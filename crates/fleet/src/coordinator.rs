//! The fleet coordinator: spawns workers, dispatches cells, survives
//! everything.
//!
//! The I/O shell around [`crate::sched::Scheduler`]. It owns the worker
//! processes (spawn, SIGKILL, respawn, reap), pumps their stdout pipes
//! into scheduler events via one reader thread per worker, executes the
//! scheduler's actions, and persists every completed cell durably
//! ([`crate::results`]) **before** acknowledging it — so a coordinator
//! killed at any instant resumes by scanning the results directory and
//! re-dispatching only the missing cells.
//!
//! Determinism: cells are pure functions of their spec, results are
//! collected by cell index, and the final vector is assembled in cell
//! order — so the output is byte-identical to the in-process `--jobs`
//! runner for any worker count, any kill schedule, and any resume point.
//!
//! When spawning workers fails outright the coordinator degrades to
//! in-process execution of the remaining cells through the same
//! [`crate::worker::run_cell_local`] path (identical bytes, no isolation).

use crate::chaos::ChaosPlan;
use crate::proto::{send_job, CellSpec, FrameReader, JobMsg, NextFrame, SeriesShipment, WorkerMsg};
use crate::results;
use crate::sched::{Action, CellStatus, SchedConfig, Scheduler};
use crate::SweepCell;
use sb_sim::engine::{prepare_digest, run_digest};
use sb_sim::{PreparedCache, RunMetrics};
use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Bytes of a dead worker's stderr kept as failure evidence.
const STDERR_TAIL_BYTES: usize = 4096;

/// Total bytes of joined stderr tails a quarantine report may print. Each
/// tail is individually bounded by [`STDERR_TAIL_BYTES`], but a sweep can
/// quarantine many cells; the report stays readable by spending one fixed
/// budget across all of them, eliding the rest (every cell stays named).
const QUARANTINE_TAIL_BUDGET_BYTES: usize = 16 * 1024;

/// Largest series package carried inline in a job frame; bigger packages
/// are spilled next to the results ([`results::store_series`]) and the
/// frame carries the path. Well under the protocol's frame cap.
const INLINE_SHIP_MAX_BYTES: usize = 4 << 20;

/// How a fleet sweep should run.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Worker processes to spawn.
    pub workers: usize,
    /// The worker binary. `None` looks for `sb-fleet-worker` next to the
    /// current executable.
    pub worker_bin: Option<PathBuf>,
    /// The per-cell durable results directory (the resumable unit).
    pub results_dir: PathBuf,
    /// Liveness and retry tuning.
    pub sched: SchedConfig,
    /// Fault injection (empty plan = none).
    pub chaos: ChaosPlan,
    /// Topology build threads inside each worker (bit-identical).
    pub build_threads: usize,
}

impl FleetOptions {
    /// Defaults: `workers` processes, results under `results_dir`, stock
    /// timeouts, no chaos.
    pub fn new(workers: usize, results_dir: impl Into<PathBuf>) -> Self {
        FleetOptions {
            workers: workers.max(1),
            worker_bin: None,
            results_dir: results_dir.into(),
            sched: SchedConfig::default(),
            chaos: ChaosPlan::default(),
            build_threads: 1,
        }
    }
}

/// How a fleet session ended (short of an error).
#[derive(Debug)]
pub enum FleetOutcome {
    /// Every cell ran (or was resumed); metrics in cell order.
    Completed(Vec<RunMetrics>),
    /// The chaos plan's `exit:after=N` fired: the coordinator stopped
    /// after durably recording `completed_this_session` cells, simulating
    /// a coordinator crash. Rerun the same sweep to resume.
    Halted {
        /// Cells durably recorded in this session before the scripted
        /// exit.
        completed_this_session: usize,
    },
}

/// A quarantined cell in the failure report: named, counted, and carrying
/// the dead workers' last words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineReport {
    /// The cell index in the sweep.
    pub cell: usize,
    /// The cell's label.
    pub label: String,
    /// Attempts consumed before quarantine.
    pub attempts: u32,
    /// The last failure: the worker's reported error, or the tail of its
    /// stderr at death.
    pub stderr_tail: String,
}

impl core::fmt::Display for QuarantineReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let tail =
            if self.stderr_tail.is_empty() { "<empty>" } else { self.stderr_tail.trim_end() };
        write!(
            f,
            "cell {} `{}` quarantined after {} attempts; last stderr tail:\n{tail}",
            self.cell, self.label, self.attempts
        )
    }
}

/// Why a fleet sweep failed.
#[derive(Debug)]
pub enum FleetError {
    /// One or more poison cells exhausted their retries. The rest of the
    /// sweep finished first; the run still fails (nonzero exit) with each
    /// cell named.
    Quarantine(Vec<QuarantineReport>),
    /// A filesystem operation on the results directory failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The OS error.
        source: io::Error,
    },
}

/// The longest prefix of `s` at most `max` bytes long, cut on a char
/// boundary.
fn clip_utf8(s: &str, max: usize) -> &str {
    if s.len() <= max {
        return s;
    }
    let mut end = max;
    while end > 0 && !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

impl core::fmt::Display for FleetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FleetError::Quarantine(cells) => {
                writeln!(f, "{} cell(s) quarantined:", cells.len())?;
                // One fixed byte budget across every joined tail, so a
                // mass quarantine cannot flood the terminal or a CI log.
                let mut budget = QUARANTINE_TAIL_BUDGET_BYTES;
                for c in cells {
                    writeln!(
                        f,
                        "cell {} `{}` quarantined after {} attempts; last stderr tail:",
                        c.cell, c.label, c.attempts
                    )?;
                    let tail =
                        if c.stderr_tail.is_empty() { "<empty>" } else { c.stderr_tail.trim_end() };
                    let shown = clip_utf8(tail, budget);
                    budget -= shown.len();
                    if shown.len() < tail.len() {
                        writeln!(
                            f,
                            "{shown}… ({} bytes elided by the {}-byte report budget)",
                            tail.len() - shown.len(),
                            QUARANTINE_TAIL_BUDGET_BYTES
                        )?;
                    } else {
                        writeln!(f, "{shown}")?;
                    }
                }
                Ok(())
            }
            FleetError::Io { path, source } => {
                write!(f, "fleet I/O error on {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for FleetError {}

/// One event from a worker's pipe pump.
enum Event {
    Msg { slot: usize, gen: u64, msg: WorkerMsg },
    Dead { slot: usize, gen: u64 },
}

/// A live worker process and its plumbing.
struct WorkerProc {
    child: Child,
    gen: u64,
    stdin: Option<std::process::ChildStdin>,
    stderr_tail: Arc<Mutex<Vec<u8>>>,
    stderr_pump: Option<std::thread::JoinHandle<()>>,
}

impl WorkerProc {
    /// The worker's stderr tail. Call only after the child is dead: joins
    /// the pump thread (its pipe is at EOF by then), so the snapshot is
    /// complete rather than racing the pump.
    fn tail(&mut self) -> String {
        if let Some(pump) = self.stderr_pump.take() {
            let _ = pump.join();
        }
        let buf = self.stderr_tail.lock().expect("stderr tail poisoned");
        String::from_utf8_lossy(&buf).into_owned()
    }
}

fn spawn_worker(
    bin: &std::path::Path,
    slot: usize,
    gen: u64,
    tx: &mpsc::Sender<Event>,
) -> io::Result<WorkerProc> {
    let mut child = Command::new(bin)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let stdin = child.stdin.take();
    let stdout = child.stdout.take().expect("piped stdout");
    let stderr = child.stderr.take().expect("piped stderr");
    let stderr_tail = Arc::new(Mutex::new(Vec::new()));

    // Stderr pump: keep only the newest tail, so a chatty worker cannot
    // balloon the coordinator.
    let tail = Arc::clone(&stderr_tail);
    let stderr_pump = std::thread::spawn(move || {
        use io::Read as _;
        let mut stderr = stderr;
        let mut chunk = [0u8; 1024];
        while let Ok(n) = stderr.read(&mut chunk) {
            if n == 0 {
                break;
            }
            let mut buf = tail.lock().expect("stderr tail poisoned");
            buf.extend_from_slice(&chunk[..n]);
            if buf.len() > STDERR_TAIL_BYTES {
                let cut = buf.len() - STDERR_TAIL_BYTES;
                buf.drain(..cut);
            }
        }
    });

    // Stdout pump: frames become events; EOF or corruption becomes a
    // death notice. Protocol-undecodable payloads also count as death —
    // a worker speaking garbage cannot be trusted with cells.
    let tx = tx.clone();
    std::thread::spawn(move || {
        let mut reader = FrameReader::new(stdout);
        while let Ok(NextFrame::Payload(p)) = reader.next_frame() {
            match WorkerMsg::decode(&p) {
                Ok(msg) => {
                    if tx.send(Event::Msg { slot, gen, msg }).is_err() {
                        return;
                    }
                }
                Err(_) => break,
            }
        }
        let _ = tx.send(Event::Dead { slot, gen });
    });

    Ok(WorkerProc { child, gen, stdin, stderr_tail, stderr_pump: Some(stderr_pump) })
}

/// Runs a sweep across worker processes with full fault tolerance. See
/// the module docs; this is the fleet's front door.
///
/// # Errors
///
/// [`FleetError::Quarantine`] when any cell exhausted its retries (the
/// rest of the sweep completes first), [`FleetError::Io`] when the
/// results directory fails.
pub fn run_fleet(cells: &[SweepCell], opts: &FleetOptions) -> Result<FleetOutcome, FleetError> {
    let digests: Vec<u64> =
        cells.iter().map(|c| run_digest(&c.scenario, &c.kind, c.seed)).collect();
    let mut sched = Scheduler::new(cells.len(), opts.workers, opts.sched);
    let mut collected: HashMap<usize, RunMetrics> = HashMap::new();

    // Resume: scan the results directory for cells already completed by a
    // previous (possibly killed) coordinator.
    for (i, digest) in digests.iter().enumerate() {
        if let Some(metrics) = results::load(&opts.results_dir, *digest) {
            sched.mark_done_upfront(i);
            collected.insert(i, metrics);
        }
    }
    let resumed = collected.len();
    if resumed > 0 {
        eprintln!(
            "fleet: resumed {resumed}/{} cells from {}",
            cells.len(),
            opts.results_dir.display()
        );
    }
    if sched.is_complete() {
        return finish(sched, collected, cells);
    }

    // Series shipping and affinity: cells sharing a `(prepare_digest,
    // seed)` need the same prepared series, so the coordinator compiles
    // each distinct package once, ships it in the job frame (inline or
    // spilled), and asks the scheduler to route repeat keys back to a
    // worker already holding the materialized series.
    let affinity: Vec<u64> = cells
        .iter()
        .map(|c| {
            let mut w = sb_wire::Writer::new();
            w.u64(prepare_digest(&c.scenario));
            w.u64(c.seed);
            sb_wire::checksum(&w.into_bytes())
        })
        .collect();
    sched.set_affinity(affinity.clone());
    let mut shipments: HashMap<u64, Option<SeriesShipment>> = HashMap::new();
    let compile_start = Instant::now();
    let mut wire_bytes = 0usize;
    for (i, c) in cells.iter().enumerate() {
        if *sched.cell_status(i) == CellStatus::Done || shipments.contains_key(&affinity[i]) {
            continue; // resumed cell, or package already compiled
        }
        let bytes = sb_sim::engine::compile_series_package(&c.scenario, c.seed).encode();
        let digest = sb_wire::checksum(&bytes);
        wire_bytes += bytes.len();
        let ship = if bytes.len() <= INLINE_SHIP_MAX_BYTES {
            Some(SeriesShipment::Inline(bytes))
        } else {
            match results::store_series(&opts.results_dir, digest, &bytes) {
                Ok(path) => Some(SeriesShipment::Spill {
                    path: path.to_string_lossy().into_owned(),
                    digest,
                }),
                Err(e) => {
                    eprintln!(
                        "fleet: cannot spill series {digest:016x} ({e}); shipping nothing for this key"
                    );
                    None
                }
            }
        };
        shipments.insert(affinity[i], ship);
    }
    eprintln!(
        "fleet: compiled {} series package(s), {} wire bytes, in {} ms",
        shipments.len(),
        wire_bytes,
        compile_start.elapsed().as_millis()
    );

    // Spawn the fleet. Any spawn failure degrades the whole sweep to
    // in-process execution — the results are identical, only isolation
    // and parallelism are lost.
    let worker_bin = opts.worker_bin.clone().unwrap_or_else(|| {
        std::env::current_exe()
            .map(|p| p.with_file_name("sb-fleet-worker"))
            .unwrap_or_else(|_| PathBuf::from("sb-fleet-worker"))
    });
    let (tx, rx) = mpsc::channel::<Event>();
    let mut procs: Vec<WorkerProc> = Vec::with_capacity(opts.workers);
    for slot in 0..opts.workers {
        match spawn_worker(&worker_bin, slot, 0, &tx) {
            Ok(p) => procs.push(p),
            Err(e) => {
                eprintln!(
                    "fleet: cannot spawn worker `{}` ({e}); degrading to in-process execution",
                    worker_bin.display()
                );
                for mut p in procs {
                    let _ = p.child.kill();
                    let _ = p.child.wait();
                }
                return run_in_process(cells, &digests, opts, collected);
            }
        }
    }

    let start = Instant::now();
    let now_ms = |t: Instant| t.elapsed().as_millis() as u64;
    let mut completed_this_session = 0usize;
    let mut halted = false;

    'main: loop {
        let now = now_ms(start);
        for action in sched.tick(now) {
            match action {
                Action::Dispatch { worker, cell, attempt } => {
                    let c = &cells[cell];
                    let spec = CellSpec {
                        label: c.label.clone(),
                        scenario: c.scenario.clone(),
                        kind: c.kind,
                        seed: c.seed,
                        digest: digests[cell],
                        build_threads: opts.build_threads,
                        chaos: opts.chaos.worker_chaos(cell, attempt),
                        ship: shipments.get(&affinity[cell]).cloned().flatten(),
                    };
                    let msg = JobMsg::Run { job: cell as u64, spec: Box::new(spec) };
                    if let Some(stdin) = procs[worker].stdin.as_mut() {
                        // A write failure means the worker is dying; its
                        // Dead event will reschedule the cell.
                        let _ = send_job(stdin, &msg);
                    }
                }
                Action::KillWorker { worker } => {
                    eprintln!(
                        "fleet: worker {worker} missed its heartbeat deadline; killing and respawning"
                    );
                    let _ = procs[worker].child.kill();
                    let _ = procs[worker].child.wait();
                    let tail = procs[worker].tail();
                    sched.on_worker_dead(worker, &tail, now);
                    respawn(&mut procs, worker, &worker_bin, &tx);
                }
            }
        }
        if sched.is_complete() || halted {
            break 'main;
        }

        let timeout =
            sched.next_deadline(now).map(|d| d.saturating_sub(now)).unwrap_or(200).clamp(10, 500);
        let event = match rx.recv_timeout(std::time::Duration::from_millis(timeout)) {
            Ok(e) => e,
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => break 'main,
        };
        let now = now_ms(start);
        match event {
            Event::Msg { slot, gen, msg } => {
                if procs[slot].gen != gen {
                    continue; // a superseded worker's last words
                }
                match msg {
                    WorkerMsg::Ready { proto, .. } => {
                        if proto == crate::proto::PROTO_VERSION {
                            sched.on_worker_ready(slot, now);
                        } else {
                            eprintln!(
                                "fleet: worker {slot} speaks protocol v{proto}, expected v{}; killing",
                                crate::proto::PROTO_VERSION
                            );
                            let _ = procs[slot].child.kill();
                        }
                    }
                    WorkerMsg::Heartbeat { .. } => sched.on_heartbeat(slot, now),
                    WorkerMsg::Done { job, digest, metrics } => {
                        let cell = job as usize;
                        if cell >= cells.len() || digest != digests[cell] {
                            sched.on_failed(
                                slot,
                                cell.min(cells.len() - 1),
                                "worker returned a foreign digest",
                                now,
                            );
                            continue;
                        }
                        // Durability before acknowledgment: the result
                        // file is fsynced and renamed into place before
                        // the scheduler treats the cell as done.
                        results::store(&opts.results_dir, digest, &metrics).map_err(|source| {
                            FleetError::Io { path: opts.results_dir.clone(), source }
                        })?;
                        if sched.on_done(slot, cell, now) {
                            collected.insert(cell, *metrics);
                            completed_this_session += 1;
                            if opts.chaos.exit_after == Some(completed_this_session) {
                                eprintln!(
                                    "fleet: chaos exit:after={completed_this_session} — simulating a coordinator crash"
                                );
                                halted = true;
                            }
                        }
                    }
                    WorkerMsg::Failed { job, detail } => {
                        eprintln!("fleet: worker {slot} failed cell {job}: {detail}");
                        sched.on_failed(slot, job as usize, &detail, now);
                    }
                }
            }
            Event::Dead { slot, gen } => {
                if procs[slot].gen != gen {
                    continue;
                }
                let _ = procs[slot].child.wait();
                let tail = procs[slot].tail();
                eprintln!("fleet: worker {slot} died{}", summarize_tail(&tail));
                sched.on_worker_dead(slot, &tail, now);
                respawn(&mut procs, slot, &worker_bin, &tx);
                if !sched.any_worker_alive() && !worker_respawn_possible(&procs, slot) {
                    // Every slot failed to respawn: finish in-process.
                    eprintln!("fleet: no workers left; degrading to in-process execution");
                    return run_in_process(cells, &digests, opts, collected);
                }
            }
        }
    }

    // Drain: ask politely, then make sure.
    for p in &mut procs {
        if let Some(stdin) = p.stdin.as_mut() {
            let _ = send_job(stdin, &JobMsg::Shutdown);
        }
        p.stdin = None; // close the pipe: EOF is also a shutdown
    }
    for p in &mut procs {
        let _ = p.child.kill();
        let _ = p.child.wait();
    }

    let (hits, misses) = sched.affinity_stats();
    if hits + misses > 0 {
        eprintln!("fleet: series affinity routed {hits} of {} dispatch(es) warm", hits + misses);
    }

    if halted {
        return Ok(FleetOutcome::Halted { completed_this_session });
    }
    finish(sched, collected, cells)
}

/// Whether the given slot currently holds a live (respawned) process.
fn worker_respawn_possible(procs: &[WorkerProc], slot: usize) -> bool {
    procs[slot].stdin.is_some()
}

fn summarize_tail(tail: &str) -> String {
    match tail.lines().last() {
        Some(last) if !last.trim().is_empty() => format!(" (stderr: {})", last.trim()),
        _ => String::new(),
    }
}

fn respawn(procs: &mut [WorkerProc], slot: usize, bin: &std::path::Path, tx: &mpsc::Sender<Event>) {
    let gen = procs[slot].gen + 1;
    match spawn_worker(bin, slot, gen, tx) {
        Ok(p) => procs[slot] = p,
        Err(e) => {
            eprintln!("fleet: cannot respawn worker {slot}: {e}");
            // The slot stays dead (stdin None marks it); the scheduler
            // simply never gets a Ready for it again.
            procs[slot].gen = gen;
            procs[slot].stdin = None;
        }
    }
}

/// The degraded path: run every missing cell in-process through the same
/// execution code as the workers, with the same durability. Scripted
/// worker chaos cannot apply (there is no process to kill), but
/// `exit:after` still does.
fn run_in_process(
    cells: &[SweepCell],
    digests: &[u64],
    opts: &FleetOptions,
    mut collected: HashMap<usize, RunMetrics>,
) -> Result<FleetOutcome, FleetError> {
    let cache = PreparedCache::new(opts.build_threads);
    let mut completed_this_session = 0usize;
    for (i, c) in cells.iter().enumerate() {
        if collected.contains_key(&i) {
            continue;
        }
        let spec = CellSpec {
            label: c.label.clone(),
            scenario: c.scenario.clone(),
            kind: c.kind,
            seed: c.seed,
            digest: digests[i],
            build_threads: opts.build_threads,
            chaos: None,
            ship: None,
        };
        let metrics = crate::worker::run_cell_local(&spec, &cache, |_| {});
        results::store(&opts.results_dir, digests[i], &metrics)
            .map_err(|source| FleetError::Io { path: opts.results_dir.clone(), source })?;
        collected.insert(i, metrics);
        completed_this_session += 1;
        if opts.chaos.exit_after == Some(completed_this_session) {
            return Ok(FleetOutcome::Halted { completed_this_session });
        }
    }
    Ok(FleetOutcome::Completed(assemble(collected, cells.len())))
}

fn finish(
    sched: Scheduler,
    collected: HashMap<usize, RunMetrics>,
    cells: &[SweepCell],
) -> Result<FleetOutcome, FleetError> {
    let quarantined = sched.quarantined();
    if !quarantined.is_empty() {
        return Err(FleetError::Quarantine(
            quarantined
                .into_iter()
                .map(|q| QuarantineReport {
                    cell: q.cell,
                    label: cells[q.cell].label.clone(),
                    attempts: q.attempts,
                    stderr_tail: q.detail,
                })
                .collect(),
        ));
    }
    Ok(FleetOutcome::Completed(assemble(collected, cells.len())))
}

fn assemble(mut collected: HashMap<usize, RunMetrics>, n: usize) -> Vec<RunMetrics> {
    (0..n).map(|i| collected.remove(&i).expect("complete sweep is missing a cell result")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarantine_report_joined_tails_stay_within_the_byte_budget() {
        // 8 cells, each with the maximum per-worker tail: unbounded, the
        // joined report would be 8 × 4 KiB of stderr.
        let reports: Vec<QuarantineReport> = (0..8)
            .map(|i| QuarantineReport {
                cell: i,
                label: format!("cell{i}"),
                attempts: 3,
                stderr_tail: "x".repeat(STDERR_TAIL_BYTES),
            })
            .collect();
        let text = FleetError::Quarantine(reports).to_string();
        assert!(
            text.len() < QUARANTINE_TAIL_BUDGET_BYTES + 2048,
            "joined tails must respect the budget, got {} bytes",
            text.len()
        );
        assert!(text.contains("elided"), "the cut must be announced");
        for i in 0..8 {
            assert!(text.contains(&format!("`cell{i}`")), "every cell stays named");
        }
    }

    #[test]
    fn quarantine_tail_clipping_respects_char_boundaries() {
        // A tail of multi-byte characters whose total size exceeds the
        // budget: clipping must land on a boundary, never panic.
        let reports = vec![QuarantineReport {
            cell: 0,
            label: "utf8".into(),
            attempts: 1,
            stderr_tail: "é".repeat(QUARANTINE_TAIL_BUDGET_BYTES),
        }];
        let text = FleetError::Quarantine(reports).to_string();
        assert!(text.contains("elided"));
        assert!(text.len() < QUARANTINE_TAIL_BUDGET_BYTES + 1024);
    }

    #[test]
    fn clip_utf8_is_exact_on_boundaries() {
        assert_eq!(clip_utf8("abcdef", 6), "abcdef");
        assert_eq!(clip_utf8("abcdef", 3), "abc");
        assert_eq!(clip_utf8("ééé", 3), "é", "2-byte chars cut down, not through");
        assert_eq!(clip_utf8("ééé", 0), "");
    }
}
