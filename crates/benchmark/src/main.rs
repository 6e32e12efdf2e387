//! `sb-benchmark` — one workload per process:
//!
//! ```text
//! sb-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace [0|1]] [--dir <path>]
//! sb-benchmark --check <A> <B>      # compare two result sets against BENCHMARK.json
//! ```
//!
//! Prints a `host` block, every metric by name with its unit, the
//! operation counts and the `result_digest`, then — as the last line of
//! standard output — one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics untraced, the per-layer metrics
//! traced. Exits non-zero when an output check fails.

use sb_benchmark::bed::Scale;
use sb_benchmark::metrics::{metrics_json, valid_name, Metric};
use sb_benchmark::spec::Spec;
use sb_benchmark::trace::{self_times, write_chrome_trace};
use sb_benchmark::workloads::{self, Options, Outcome, Workload};
use sb_benchmark::{check, host, probe};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: sb-benchmark --workload <sweep_paper12|topo_mega|serve_open|\
serve_durable> --seed <n> [--seconds <s>] [--trace [0|1]] [--dir <path>]\n       \
sb-benchmark --check <A> <B>";

enum Command {
    Run(Options),
    Check(PathBuf, PathBuf),
}

fn parse(args: &[String], spec: &Spec) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = spec.run_seconds;
    let mut trace = false;
    let mut dir = PathBuf::from("target/benchmark");
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or(format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--check" => {
                let a = value(&mut i, "--check")?;
                let b = value(&mut i, "--check")?;
                return Ok(Command::Check(a.into(), b.into()));
            }
            "--workload" => {
                let name = value(&mut i, "--workload")?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                let text = value(&mut i, "--seed")?;
                seed = Some(text.parse::<u64>().map_err(|_| format!("bad --seed `{text}`"))?);
            }
            "--seconds" => {
                let text = value(&mut i, "--seconds")?;
                seconds = text
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds `{text}`"))?;
            }
            // `--trace` alone turns tracing on; `--trace 0|1` sets it.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    trace = false;
                    i += 1;
                }
                Some("1") => {
                    trace = true;
                    i += 1;
                }
                _ => trace = true,
            },
            "--dir" => dir = value(&mut i, "--dir")?.into(),
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let scale = Scale::Full;
    Ok(Command::Run(Options { workload, seed, seconds, trace, dir, scale, fleet_worker: None }))
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    if metrics.is_empty() {
        return;
    }
    println!("{title}:");
    for m in metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// Self time per layer of the main thread's spans, and how far their sum
/// is from the timed phase's wall clock, which the workload took with an
/// `Instant` pair of its own.
fn print_self_times(outcome: &mut Outcome) {
    let Some((_, spans)) = outcome.threads.first() else { return };
    let times = self_times(spans);
    let wall_ns = outcome.timed_wall_s * 1e9;
    println!("self time per layer (main thread):");
    for (layer, ns) in &times.by_layer {
        println!(
            "  {:<12} {:>10.4} s {:>6.1}%",
            layer,
            *ns as f64 / 1e9,
            *ns as f64 / wall_ns * 100.0
        );
    }
    println!("self time per span:");
    for (name, ns) in &times.by_name {
        println!("  {:<30} {:>10.4} s  x{}", name, *ns as f64 / 1e9, times.counts[name]);
    }
    let gap = (times.total_ns() as f64 - wall_ns).abs() / wall_ns;
    println!(
        "  sum {:.6} s of the timed phase's {:.6} s (gap {:.4}%)",
        times.total_ns() as f64 / 1e9,
        outcome.timed_wall_s,
        gap * 100.0
    );
    outcome.check(gap <= 0.05, || format!("self times are {:.1}% off the wall clock", gap * 100.0));
    outcome.set_layer(Metric::new("trace.self_time_gap_frac", gap, "ratio"));
}

/// `trace_overhead_frac`: this traced run's `wall_s` against the untraced
/// run of the same workload, seed and size, when `run.sh --all` left its
/// result next to this one.
fn print_overhead_against_untraced(options: &Options, traced: &[Metric]) {
    let file = options.dir.join(format!("{}.s{}.json", options.workload.name(), options.seed));
    let Ok(text) = std::fs::read_to_string(&file) else {
        println!("trace_overhead_frac: n/a (no untraced result at {})", file.display());
        return;
    };
    let untraced: Option<f64> = text.lines().last().and_then(|line| {
        let value: serde_json::Value = serde_json::from_str(line).ok()?;
        value.get("metrics")?.get("wall_s")?.get("value")?.as_f64()
    });
    let traced = traced.iter().find(|m| m.name == "wall_s").map(|m| m.value);
    match (untraced, traced) {
        (Some(u), Some(t)) => println!(
            "trace_overhead_frac: {:+.4} (wall_s traced {t:.4} vs untraced {u:.4})",
            (t - u) / u
        ),
        _ => println!("trace_overhead_frac: n/a ({} is not a result)", file.display()),
    }
}

fn run(mut options: Options, spec: &Spec) -> ExitCode {
    if let Some(name) = host::refused_env() {
        eprintln!("sb-benchmark: {name} is set; refusing to measure a program with an optimisation switched off");
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&options.dir) {
        eprintln!("sb-benchmark: cannot create {}: {e}", options.dir.display());
        return ExitCode::from(2);
    }
    if options.trace {
        // `run_fleet` silently runs in-process when it cannot spawn
        // workers; insist on the real binary before measuring anything.
        match probe::fleet_worker_beside_exe().filter(|p| p.is_file()) {
            Some(worker) => options.fleet_worker = Some(worker),
            None => {
                eprintln!("sb-benchmark: sb-fleet-worker is not next to this binary; build it with `cargo build --release -p sb-fleet`");
                return ExitCode::from(2);
            }
        }
    }
    println!("{}", host::host_block(&options.dir));
    println!(
        "workload: {} seed={} seconds={} trace={}",
        options.workload.name(),
        options.seed,
        options.seconds,
        u8::from(options.trace)
    );

    let mut outcome = workloads::run(&options);
    if options.trace {
        print_self_times(&mut outcome);
        let path = options.dir.join(format!("{}.trace.json", options.workload.name()));
        match write_chrome_trace(&path, &outcome.threads) {
            Ok(()) => println!(
                "trace: {} spans written to {}",
                outcome.threads.iter().map(|(_, s)| s.len()).sum::<usize>(),
                path.display()
            ),
            Err(e) => outcome.fail(format!("cannot write {}: {e}", path.display())),
        }
        print_overhead_against_untraced(&options, &outcome.e2e);
    }

    // The JSON carries exactly the metrics BENCHMARK.json names, in its
    // order; anything else a workload measured stays in the report.
    let wanted = if options.trace { &spec.per_layer } else { &spec.end_to_end };
    let source = if options.trace { &outcome.layers } else { &outcome.e2e };
    let mut reported = Vec::with_capacity(wanted.len());
    for (name, unit) in wanted.iter().map(|m| (m.name.as_str(), m.unit.as_str())) {
        match source.iter().find(|m| m.name == name) {
            Some(m) if m.value.is_finite() && m.unit == unit && valid_name(name) => {
                reported.push(m.clone());
            }
            Some(m) => {
                outcome
                    .failures
                    .push(format!("metric {name} = {} {} is not reportable", m.value, m.unit));
                reported.push(Metric::new(name, f64::NAN, m.unit));
            }
            None => outcome.failures.push(format!("metric {name} was not measured")),
        }
    }

    print_metrics(
        if options.trace { "end to end (traced, for reference only)" } else { "end to end" },
        &outcome.e2e,
    );
    print_metrics("notes", &outcome.notes);
    print_metrics("per layer", &outcome.layers);
    println!("ops_attempted {}", outcome.attempted);
    println!("ops_failed {}", outcome.failed);
    println!("result_digest {:#018x}", outcome.digest);
    for failure in &outcome.failures {
        println!("FAILED CHECK: {failure}");
    }
    let correct = outcome.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(&reported)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::committed();
    match parse(&args, &spec) {
        Ok(Command::Check(a, b)) => match check::run(&spec, &a, &b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("sb-benchmark --check: {e}");
                ExitCode::from(2)
            }
        },
        Ok(Command::Run(options)) => run(options, &spec),
        Err(e) => {
            eprintln!("sb-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
