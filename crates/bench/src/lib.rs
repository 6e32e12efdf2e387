//! Shared helpers for the figure-regeneration binaries.
//!
//! Each paper figure has a binary (`fig6` … `fig9`) accepting
//! `--scale {paper,fast}` and `--seeds N`; this crate holds the argument
//! parsing and run-loop plumbing they share.

pub mod cells;

pub use sb_fleet::SweepCell;

use sb_fleet::ChaosPlan;
use sb_sim::engine::{self, AlgorithmKind, PreparedNetwork};
use sb_sim::{DurabilityOptions, PreparedCache, RunMetrics, RunOutcome, ScenarioConfig};

/// Command-line options shared by every figure binary.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureOptions {
    /// The scenario to run ("paper" or "fast").
    pub scenario: ScenarioConfig,
    /// Number of seeds per configuration (paper: 5).
    pub seeds: u64,
    /// Output directory for CSV files.
    pub out_dir: std::path::PathBuf,
    /// Checkpoint interval in slots for durable runs (`--checkpoint-every
    /// N`; `0` journals without checkpointing). `None` leaves durability
    /// off unless [`Self::resume_from`] turns it on.
    pub checkpoint_every: Option<usize>,
    /// Resume interrupted runs from this durability directory
    /// (`--resume DIR`).
    pub resume_from: Option<std::path::PathBuf>,
    /// Worker threads for [`run_cells`] (`--jobs N`; default: available
    /// parallelism). Cell *results* are ordered deterministically no matter
    /// how many workers run, so CSVs are byte-identical across values.
    pub jobs: usize,
    /// Worker threads for each per-slot topology build inside `prepare`
    /// (`--build-threads N`; default: available parallelism). The built
    /// series is bit-identical for every value, so CSVs never change with
    /// it.
    pub build_threads: usize,
    /// Run the sweep across N worker *processes* via `sb-fleet`
    /// (`--fleet N`) instead of in-process threads. Results are
    /// byte-identical to `--jobs`; completed cells persist durably under
    /// `OUT/fleet/` so a killed sweep resumes where it stopped.
    pub fleet: Option<usize>,
    /// Fault-injection plan for `--fleet` runs (`--chaos SPEC`; see
    /// [`sb_fleet::ChaosPlan`] for the grammar). Ignored without
    /// `--fleet`.
    pub chaos: Option<ChaosPlan>,
}

impl Default for FigureOptions {
    fn default() -> Self {
        FigureOptions {
            scenario: ScenarioConfig::fast(),
            seeds: 3,
            out_dir: std::path::PathBuf::from("results"),
            checkpoint_every: None,
            resume_from: None,
            jobs: default_jobs(),
            build_threads: default_jobs(),
            fleet: None,
            chaos: None,
        }
    }
}

/// The default worker count: the host's available parallelism, 1 when it
/// cannot be determined.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Parses `--scale {paper,fast,tiny,mega,mega3}`, `--seeds N`, `--out DIR`,
/// `--checkpoint-every N`, `--resume DIR`, `--jobs N` and `--build-threads N`
/// from an argument iterator.
///
/// `--scale paper` defaults the seed count to the paper's 5, but an
/// explicit `--seeds N` wins regardless of argument order.
///
/// # Panics
///
/// Panics with a usage message on unknown arguments, and rejects `0` for
/// `--jobs`/`--build-threads` instead of silently
/// flooring it — these are experiment drivers, not long-lived services,
/// and a zero thread count is a typo worth surfacing.
pub fn parse_args(args: impl Iterator<Item = String>) -> FigureOptions {
    let mut opts = FigureOptions::default();
    let mut seeds_given = false;
    let mut scale_paper = false;
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args.next().expect("--scale needs a value");
                opts.scenario = match v.as_str() {
                    "paper" => {
                        scale_paper = true;
                        ScenarioConfig::paper()
                    }
                    "fast" => {
                        scale_paper = false;
                        ScenarioConfig::fast()
                    }
                    "tiny" => {
                        scale_paper = false;
                        ScenarioConfig::tiny()
                    }
                    "mega" => {
                        scale_paper = false;
                        ScenarioConfig::mega()
                    }
                    "mega3" => {
                        scale_paper = false;
                        ScenarioConfig::mega3()
                    }
                    other => panic!("unknown scale `{other}` (use paper|fast|tiny|mega|mega3)"),
                };
            }
            "--seeds" => {
                opts.seeds =
                    args.next().and_then(|v| v.parse().ok()).expect("--seeds needs an integer");
                seeds_given = true;
            }
            "--out" => {
                opts.out_dir = args.next().expect("--out needs a path").into();
            }
            "--checkpoint-every" => {
                opts.checkpoint_every = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--checkpoint-every needs an integer"),
                );
            }
            "--resume" => {
                opts.resume_from = Some(args.next().expect("--resume needs a directory").into());
            }
            "--jobs" => {
                opts.jobs = parse_at_least_one(args.next(), "--jobs");
            }
            "--build-threads" => {
                opts.build_threads = parse_at_least_one(args.next(), "--build-threads");
            }
            "--fleet" => {
                opts.fleet = Some(parse_at_least_one(args.next(), "--fleet"));
            }
            "--chaos" => {
                let spec = args.next().expect("--chaos needs a spec string");
                opts.chaos =
                    Some(ChaosPlan::parse(&spec).unwrap_or_else(|e| panic!("--chaos: {e}")));
            }
            other => panic!(
                "unknown argument `{other}` (use --scale/--seeds/--out/--checkpoint-every\
                 /--resume/--jobs/--build-threads/--fleet/--chaos)"
            ),
        }
    }
    if scale_paper && !seeds_given {
        opts.seeds = 5;
    }
    opts
}

/// Parses a thread-count flag value, rejecting zero outright: a floored
/// `0` would silently serialize a sweep the user asked to parallelize.
fn parse_at_least_one(value: Option<String>, flag: &str) -> usize {
    let n: usize =
        value.and_then(|v| v.parse().ok()).unwrap_or_else(|| panic!("{flag} needs an integer"));
    assert!(n >= 1, "{flag} must be >= 1, got {n}");
    n
}

/// The shared prepared-network cache for one sweep, sized from the
/// command line: builds fan per-slot snapshot construction across
/// `--build-threads` workers, and the `(scenario-digest, seed)` keying
/// lets every cell of a comparison point share one build. Consult it from
/// inside the [`run_cells`] closure — concurrent `get`s for the same key
/// block on a single builder.
pub fn prepared_cache(opts: &FigureOptions) -> PreparedCache {
    PreparedCache::new(opts.build_threads)
}

/// Reports a sweep's cache tally to stderr, so a paper-scale run shows at
/// a glance how many prepares the cache saved.
pub fn report_cache(cache: &PreparedCache) {
    eprintln!(
        "prepared-network cache: {} hits, {} misses, {} distinct networks",
        cache.hits(),
        cache.misses(),
        cache.len(),
    );
}

/// Runs one `(cell, seed)` of a sweep, durably when the command line asked
/// for it.
///
/// Without `--checkpoint-every` or `--resume` this is a plain in-memory
/// [`engine::run_prepared`]. With either flag, the run is journaled and
/// checkpointed into a per-cell subdirectory (under `--resume DIR`, or
/// `OUT/durable` for a fresh durable run), and `--resume` picks up each
/// cell where the interrupted sweep left it — completed cells return their
/// cached metrics without re-running.
///
/// # Panics
///
/// Panics with the durable-run error (which names the offending file) when
/// journaling, checkpointing or resume fails.
pub fn run_cell(
    opts: &FigureOptions,
    scenario: &ScenarioConfig,
    prepared: &PreparedNetwork,
    requests: &[sb_demand::Request],
    kind: &AlgorithmKind,
    seed: u64,
    cell: &str,
) -> RunMetrics {
    if opts.checkpoint_every.is_none() && opts.resume_from.is_none() {
        return engine::run_prepared(scenario, prepared, requests, kind, seed);
    }
    let base = opts.resume_from.clone().unwrap_or_else(|| opts.out_dir.join("durable"));
    // Cell labels may carry '/' (model/policy); keep the directory flat.
    let safe: String = cell
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') { c } else { '-' })
        .collect();
    let durability = DurabilityOptions {
        dir: base.join(format!("{safe}_s{seed}")),
        checkpoint_every: opts.checkpoint_every.unwrap_or(1),
        resume: opts.resume_from.is_some(),
        halt_before_slot: None,
    };
    match sb_sim::run_durable(scenario, prepared, requests, kind, seed, &durability) {
        Ok(RunOutcome::Completed(metrics)) => *metrics,
        Ok(RunOutcome::Halted { next_slot }) => {
            unreachable!("no halt requested, yet halted before slot {next_slot}")
        }
        Err(e) => panic!("durable run failed for cell `{cell}` seed {seed}: {e}"),
    }
}

/// Fans the independent cells of a sweep across `jobs` worker threads and
/// returns the results **in cell order**, so downstream CSV writing is
/// byte-identical to a serial run no matter the worker count.
///
/// Workers pull cells from a shared atomic index (dynamic load balancing —
/// sweep cells vary wildly in cost across algorithms and failure
/// probabilities) and deposit each result into its cell's dedicated slot.
/// With `jobs <= 1` the cells run inline on the caller's thread with no
/// thread machinery at all.
///
/// # Panics
///
/// A panicking cell propagates: the scope joins every worker and re-raises
/// the panic, so a sweep never silently drops cells.
pub fn run_cells<I: Sync, T: Send>(
    jobs: usize,
    items: &[I],
    run: impl Fn(usize, &I) -> T + Sync,
) -> Vec<T> {
    let jobs = jobs.clamp(1, items.len().max(1));
    if jobs == 1 {
        return items.iter().enumerate().map(|(i, item)| run(i, item)).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<Option<T>>> =
        (0..items.len()).map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let result = run(i, &items[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("result slot poisoned").expect("worker filled every slot"))
        .collect()
}

/// Runs the cells of a sweep and returns their metrics **in cell order**.
///
/// This is the single dispatch point behind every figure binary's sweep:
///
/// * default — in-process across `--jobs` threads ([`run_cells`]), with
///   the shared `cache` and per-cell durability ([`run_cell`]);
/// * `--fleet N` — across N worker *processes* via
///   [`sb_fleet::run_fleet`], with per-cell durable results under
///   `OUT/fleet/` and optional `--chaos` fault injection.
///
/// Both paths compute bit-identical metrics, so the CSVs written from the
/// returned vector are byte-identical regardless of the dispatch mode,
/// worker count, kill schedule or resume point.
///
/// # Exits
///
/// Under `--fleet`, a quarantined cell terminates the process with exit
/// code 1 after printing the quarantine report (cell names plus the dead
/// workers' stderr tails), and a chaos-scripted coordinator exit
/// (`exit:after=N`) terminates with exit code 2 — rerun the same command
/// to resume from the durable results.
pub fn run_sweep(
    opts: &FigureOptions,
    cache: &PreparedCache,
    cells: &[SweepCell],
) -> Vec<RunMetrics> {
    let Some(workers) = opts.fleet else {
        return run_cells(opts.jobs, cells, |_, c| {
            let prepared = cache.get(&c.scenario, c.seed);
            let requests = engine::workload(&c.scenario, &prepared, c.seed);
            run_cell(opts, &c.scenario, &prepared, &requests, &c.kind, c.seed, &c.label)
        });
    };
    let mut fleet_opts = sb_fleet::FleetOptions::new(workers, opts.out_dir.join("fleet"));
    fleet_opts.build_threads = opts.build_threads;
    if let Some(plan) = &opts.chaos {
        fleet_opts.chaos = plan.clone();
    }
    match sb_fleet::run_fleet(cells, &fleet_opts) {
        Ok(sb_fleet::FleetOutcome::Completed(metrics)) => metrics,
        Ok(sb_fleet::FleetOutcome::Halted { completed_this_session }) => {
            eprintln!(
                "fleet: coordinator halted by chaos after {completed_this_session} cell(s); \
                 rerun the same command to resume"
            );
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}

/// Runs a CSV writer against `path`, creating the output directory first
/// and publishing the result **atomically**: the writer targets a
/// temporary file which is fsynced and renamed over `path` only on
/// success. A sweep that dies mid-write — or a writer that errors —
/// leaves any previous CSV at `path` byte-for-byte intact.
///
/// # Panics
///
/// Panics with the offending path when the directory cannot be created,
/// the writer reports an I/O error, or the final rename fails.
pub fn write_csv(
    path: &std::path::Path,
    write: impl FnOnce(&std::path::Path) -> std::io::Result<()>,
) {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .unwrap_or_else(|e| panic!("cannot create output directory {}: {e}", parent.display()));
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    if let Err(e) = write(&tmp) {
        let _ = std::fs::remove_file(&tmp);
        panic!("cannot write {}: {e}", path.display());
    }
    // Make the bytes durable before the rename makes them visible.
    match std::fs::File::open(&tmp).and_then(|f| f.sync_all()) {
        Ok(()) => {}
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            panic!("cannot sync {}: {e}", tmp.display());
        }
    }
    std::fs::rename(&tmp, path)
        .unwrap_or_else(|e| panic!("cannot publish {}: {e}", path.display()));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> FigureOptions {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]);
        assert_eq!(o.scenario.name, "fast");
        assert_eq!(o.seeds, 3);
    }

    #[test]
    fn paper_scale_sets_five_seeds() {
        let o = parse(&["--scale", "paper"]);
        assert_eq!(o.scenario.name, "paper");
        assert_eq!(o.seeds, 5);
    }

    #[test]
    fn explicit_seeds_override() {
        let o = parse(&["--scale", "paper", "--seeds", "2"]);
        assert_eq!(o.seeds, 2);
    }

    #[test]
    fn explicit_seeds_survive_later_paper_scale() {
        // Regression: `--seeds 10 --scale paper` used to clobber the seed
        // count back to the paper default of 5.
        let o = parse(&["--seeds", "10", "--scale", "paper"]);
        assert_eq!(o.scenario.name, "paper");
        assert_eq!(o.seeds, 10);
    }

    #[test]
    fn jobs_flag_parses_and_defaults() {
        assert_eq!(parse(&["--jobs", "4"]).jobs, 4);
        assert!(parse(&[]).jobs >= 1);
    }

    #[test]
    #[should_panic(expected = "--jobs must be >= 1")]
    fn zero_jobs_is_rejected_not_floored() {
        parse(&["--jobs", "0"]);
    }

    #[test]
    fn build_threads_flag_parses_and_defaults() {
        assert_eq!(parse(&["--build-threads", "4"]).build_threads, 4);
        assert!(parse(&[]).build_threads >= 1);
    }

    #[test]
    #[should_panic(expected = "--build-threads must be >= 1")]
    fn zero_build_threads_is_rejected_not_floored() {
        parse(&["--build-threads", "0"]);
    }

    #[test]
    fn run_cells_preserves_cell_order() {
        let items: Vec<usize> = (0..37).collect();
        let serial = run_cells(1, &items, |i, &x| (i, x * x));
        for jobs in [2, 3, 8, 64] {
            let parallel = run_cells(jobs, &items, |i, &x| {
                // Jitter completion order so slots genuinely race.
                std::thread::sleep(std::time::Duration::from_micros(((x * 7) % 5) as u64 * 100));
                (i, x * x)
            });
            assert_eq!(parallel, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn run_cells_handles_empty_input() {
        let out: Vec<u32> = run_cells(8, &[] as &[u32], |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn run_cells_propagates_worker_panics() {
        let items: Vec<usize> = (0..8).collect();
        let r = std::panic::catch_unwind(|| {
            run_cells(4, &items, |_, &x| {
                if x == 5 {
                    panic!("cell 5 exploded");
                }
                x
            })
        });
        assert!(r.is_err(), "a panicking cell must fail the sweep");
    }

    #[test]
    fn mega_scale_selects_multi_shell_preset() {
        let o = parse(&["--scale", "mega"]);
        assert_eq!(o.scenario.name, "mega");
        assert!(o.scenario.total_satellites() >= 10_000);
        assert!(!o.scenario.extra_shells.is_empty());
        assert_eq!(o.seeds, FigureOptions::default().seeds);
    }

    #[test]
    fn mega3_scale_selects_the_three_shell_preset() {
        let o = parse(&["--scale", "mega3"]);
        assert_eq!(o.scenario.name, "mega3");
        assert!(o.scenario.total_satellites() >= 30_000);
        assert_eq!(o.scenario.extra_shells.len(), 2);
    }

    #[test]
    #[should_panic(expected = "unknown scale")]
    fn bad_scale_panics() {
        let _ = parse(&["--scale", "warp"]);
    }

    #[test]
    fn bad_flag_panics() {
        // The last two are removed flags: refused, not ignored.
        for flag in ["--frobnicate", "--quote-threads", "--search"] {
            let panic = std::panic::catch_unwind(|| parse(&[flag])).expect_err(flag);
            let message = panic.downcast_ref::<String>().expect("a formatted panic message");
            assert!(message.contains("unknown argument"), "{flag}: {message}");
        }
    }

    #[test]
    fn fleet_flag_parses_and_defaults_off() {
        assert_eq!(parse(&["--fleet", "4"]).fleet, Some(4));
        assert_eq!(parse(&[]).fleet, None);
    }

    #[test]
    #[should_panic(expected = "--fleet must be >= 1")]
    fn zero_fleet_is_rejected() {
        parse(&["--fleet", "0"]);
    }

    #[test]
    fn chaos_flag_parses_a_plan() {
        let o = parse(&["--chaos", "kill:cell=3;exit:after=2"]);
        let plan = o.chaos.expect("plan parsed");
        assert!(plan.has_worker_chaos());
        assert_eq!(plan.exit_after, Some(2));
        assert_eq!(parse(&[]).chaos, None);
    }

    #[test]
    #[should_panic(expected = "unknown directive")]
    fn bad_chaos_spec_panics_with_the_directive() {
        parse(&["--chaos", "explode:cell=1"]);
    }

    #[test]
    fn write_csv_creates_missing_directories() {
        let dir = std::env::temp_dir().join("sb_bench_write_csv_test").join("nested");
        let path = dir.join("out.csv");
        let _ = std::fs::remove_dir_all(dir.parent().unwrap());
        write_csv(&path, |p| std::fs::write(p, "a,b\n"));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a,b\n");
        let _ = std::fs::remove_dir_all(dir.parent().unwrap());
    }

    #[test]
    fn write_csv_failure_names_the_path() {
        // Parent exists but is a *file*, so directory creation must fail
        // and the panic message must carry the path.
        let blocker = std::env::temp_dir().join("sb_bench_write_csv_blocker");
        std::fs::write(&blocker, "not a directory").unwrap();
        let path = blocker.join("out.csv");
        let err = std::panic::catch_unwind(|| write_csv(&path, |p| std::fs::write(p, "x")))
            .expect_err("writing under a file must fail");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains(&blocker.display().to_string()), "panic message was: {msg}");
        let _ = std::fs::remove_file(&blocker);
    }

    #[test]
    fn write_csv_failure_leaves_previous_file_intact() {
        // Regression: a writer that dies mid-CSV must not clobber the
        // previous sweep's output. The atomic temp+rename publish means
        // the old bytes survive and no temp litter remains.
        let dir = std::env::temp_dir().join("sb_bench_write_csv_atomic");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("out.csv");
        write_csv(&path, |p| std::fs::write(p, "old,complete\n1,2\n"));

        let err = std::panic::catch_unwind(|| {
            write_csv(&path, |p| {
                // Simulate a crash after a partial write.
                std::fs::write(p, "new,truncated")?;
                Err(std::io::Error::other("simulated mid-write failure"))
            })
        })
        .expect_err("failing writer must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("simulated mid-write failure"), "panic message was: {msg}");

        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "old,complete\n1,2\n",
            "previous CSV must survive a failed rewrite byte-for-byte"
        );
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n != "out.csv")
            .collect();
        assert!(leftovers.is_empty(), "no temp litter, got {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
