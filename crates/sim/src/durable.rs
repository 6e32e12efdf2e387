//! Crash-consistent runs: journaled execution, checkpoints and resume.
//!
//! [`run_durable`] wraps the deterministic engine core with three
//! artifacts in a run directory:
//!
//! * `journal.bin` — an append-only, fsync'd record of every engine event
//!   (see [`crate::journal`]);
//! * `ckpt_{slot:05}.bin` — periodic snapshots of the full engine state
//!   (see [`crate::checkpoint`]);
//! * `final.bin` — the finished run's metrics, so resuming a completed
//!   run returns instantly instead of recomputing.
//!
//! # Resume = checkpoint + verified replay
//!
//! The engine is deterministic, so restoring the newest valid checkpoint
//! and re-executing the remaining slots reproduces the uninterrupted run
//! bit-for-bit. The journal suffix past the checkpoint is not *applied* —
//! it is **verified**: every event the resumed engine regenerates is
//! compared against the journal's record, and any mismatch aborts with
//! [`EngineError::JournalDivergence`] rather than silently splicing two
//! different runs together. Once the suffix is exhausted the journal
//! switches back to append mode.
//!
//! Torn tails (a crash mid-append) are detected by the journal's
//! per-record checksums, reported, truncated away and overwritten.
//! Corrupt or foreign checkpoints are skipped in favor of older ones; with
//! no usable checkpoint at all the whole journal is replay-verified from
//! slot 0. A checkpoint or journal from a *different* run — any change to
//! the scenario, algorithm, or seed — is rejected up front via
//! [`crate::engine::run_digest`].

use crate::checkpoint;
use crate::engine::{run_digest, AlgorithmKind, EngineCore, PreparedNetwork};
use crate::journal::{self, Journal, JournalRecord};
use crate::metrics::RunMetrics;
use crate::scenario::ScenarioConfig;
use sb_demand::Request;
use sb_wire::{Reader, Writer};
use std::collections::VecDeque;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Magic prefix of `final.bin` (cached finished-run metrics).
const FINAL_MAGIC: &[u8; 8] = b"SBFIN001";

/// Why a durable run could not proceed. Every variant names the artifact
/// involved so the operator knows *which file* to look at.
#[derive(Debug)]
pub enum EngineError {
    /// An underlying filesystem operation failed.
    Io {
        /// The file or directory being accessed.
        path: PathBuf,
        /// The OS error.
        source: io::Error,
    },
    /// An artifact exists but cannot be trusted (bad framing, impossible
    /// offsets, undecodable state).
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What was wrong with it.
        detail: String,
    },
    /// The journal belongs to a different (scenario, algorithm, seed)
    /// run and must not be resumed into this one.
    DigestMismatch {
        /// The journal file.
        path: PathBuf,
        /// This run's digest.
        expected: u64,
        /// The digest found in the file.
        found: u64,
    },
    /// Replay produced a different event than the journal recorded — the
    /// on-disk state and the current inputs disagree.
    JournalDivergence {
        /// The slot being replayed when the mismatch surfaced.
        slot: usize,
        /// The two sides of the disagreement.
        detail: String,
    },
    /// The conservation auditor found a violation at a slot boundary
    /// (only checked under the `strict-audit` feature).
    AuditFailed {
        /// The slot whose boundary failed the audit.
        slot: usize,
        /// The auditor's structured findings.
        report: sb_cear::AuditReport,
    },
}

impl core::fmt::Display for EngineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EngineError::Io { path, source } => {
                write!(f, "I/O error on {}: {source}", path.display())
            }
            EngineError::Corrupt { path, detail } => {
                write!(f, "corrupt durability artifact {}: {detail}", path.display())
            }
            EngineError::DigestMismatch { path, expected, found } => write!(
                f,
                "{} belongs to a different run (digest {found:#018x}, expected {expected:#018x})",
                path.display()
            ),
            EngineError::JournalDivergence { slot, detail } => {
                write!(f, "resumed run diverged from the journal at slot {slot}: {detail}")
            }
            EngineError::AuditFailed { slot, report } => {
                write!(f, "conservation audit failed at slot {slot}: {report}")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

fn io_at(path: &Path) -> impl FnOnce(io::Error) -> EngineError + '_ {
    move |source| EngineError::Io { path: path.to_path_buf(), source }
}

/// How [`run_durable`] should persist and resume.
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// Directory holding the journal, checkpoints and final metrics. One
    /// run per directory.
    pub dir: PathBuf,
    /// Write a checkpoint every this many slot boundaries; `0` disables
    /// checkpointing (the journal alone still allows resume, by verified
    /// replay from slot 0).
    pub checkpoint_every: usize,
    /// Resume from whatever `dir` holds instead of starting fresh. With
    /// nothing usable on disk this degrades to a fresh run.
    pub resume: bool,
    /// Stop (returning [`RunOutcome::Halted`]) before executing this
    /// slot — a testing hook that simulates a crash at an exact boundary.
    pub halt_before_slot: Option<usize>,
}

impl DurabilityOptions {
    /// Fresh run into `dir`, checkpointing every slot.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityOptions {
            dir: dir.into(),
            checkpoint_every: 1,
            resume: false,
            halt_before_slot: None,
        }
    }
}

/// The result of a durable run session.
#[derive(Debug)]
pub enum RunOutcome {
    /// The horizon finished; here are the metrics.
    Completed(Box<RunMetrics>),
    /// Execution stopped at [`DurabilityOptions::halt_before_slot`];
    /// resume later with [`DurabilityOptions::resume`].
    Halted {
        /// The first slot the resumed session will execute.
        next_slot: usize,
    },
}

fn run_start(
    digest: u64,
    kind: &AlgorithmKind,
    seed: u64,
    scenario: &ScenarioConfig,
) -> JournalRecord {
    JournalRecord::RunStart {
        config_digest: digest,
        algorithm: kind.name().to_owned(),
        seed,
        horizon: scenario.horizon_slots as u32,
    }
}

/// Feeds the events of the just-executed slot through the verify queue
/// (while resuming over journaled ground) or appends them (once past it).
fn sync_events(
    core: &mut EngineCore,
    verify: &mut VecDeque<JournalRecord>,
    journal: &mut Journal,
    journal_path: &Path,
    slot: usize,
) -> Result<(), EngineError> {
    for event in core.take_events() {
        match verify.pop_front() {
            Some(expected) if expected == event => {}
            Some(expected) => {
                return Err(EngineError::JournalDivergence {
                    slot,
                    detail: format!("journal recorded {expected:?}, replay produced {event:?}"),
                });
            }
            None => journal.append(&event).map_err(io_at(journal_path))?,
        }
    }
    Ok(())
}

fn write_final(path: &Path, digest: u64, metrics: &RunMetrics) -> io::Result<()> {
    let mut body = Writer::new();
    body.u64(digest);
    metrics.encode(&mut body);
    sb_wire::sealed::write_atomic(path, FINAL_MAGIC, &body.into_bytes())
}

fn read_final(path: &Path, digest: u64) -> Option<RunMetrics> {
    let body = sb_wire::sealed::read(path, FINAL_MAGIC)?;
    let mut r = Reader::new(&body);
    if r.u64().ok()? != digest {
        return None;
    }
    let metrics = RunMetrics::decode(&mut r).ok()?;
    r.is_exhausted().then_some(metrics)
}

/// Runs one `(scenario, algorithm, seed)` cell with journaling,
/// checkpointing and (optionally) resume, per `opts`. A resumed run is
/// bit-identical to an uninterrupted one in everything but wall-clock
/// timing.
///
/// # Errors
///
/// Returns an [`EngineError`] naming the failing artifact: I/O failures,
/// corrupt or foreign on-disk state, replay divergence, or (under the
/// `strict-audit` feature) a conservation-audit violation.
pub fn run_durable(
    scenario: &ScenarioConfig,
    prepared: &PreparedNetwork,
    requests: &[Request],
    kind: &AlgorithmKind,
    seed: u64,
    opts: &DurabilityOptions,
) -> Result<RunOutcome, EngineError> {
    let digest = run_digest(scenario, kind, seed);
    fs::create_dir_all(&opts.dir).map_err(io_at(&opts.dir))?;
    let journal_path = opts.dir.join("journal.bin");
    let final_path = opts.dir.join("final.bin");
    let mut algorithm = kind.instantiate();

    let mut core;
    let mut verify: VecDeque<JournalRecord> = VecDeque::new();
    let mut journal;
    if opts.resume {
        if let Some(metrics) = read_final(&final_path, digest) {
            return Ok(RunOutcome::Completed(Box::new(metrics)));
        }
        let scan = journal::scan(&journal_path).map_err(io_at(&journal_path))?;
        match scan.records.first() {
            Some(JournalRecord::RunStart { config_digest, .. }) if *config_digest == digest => {}
            Some(JournalRecord::RunStart { config_digest, .. }) => {
                return Err(EngineError::DigestMismatch {
                    path: journal_path,
                    expected: digest,
                    found: *config_digest,
                });
            }
            Some(other) => {
                return Err(EngineError::Corrupt {
                    path: journal_path,
                    detail: format!("journal begins with {other:?}, not a run-start record"),
                });
            }
            None => {}
        }
        match checkpoint::load_latest(&opts.dir, digest).map_err(io_at(&opts.dir))? {
            Some(ckpt) => {
                if ckpt.journal_len > scan.valid_len {
                    return Err(EngineError::Corrupt {
                        path: journal_path,
                        detail: format!(
                            "journal holds {} valid bytes but checkpoint {} expects at least {}",
                            scan.valid_len,
                            ckpt.path.display(),
                            ckpt.journal_len
                        ),
                    });
                }
                let mut r = Reader::new(&ckpt.payload);
                core = EngineCore::decode(scenario, prepared, requests, seed, &mut r).map_err(
                    |e| EngineError::Corrupt { path: ckpt.path.clone(), detail: e.to_string() },
                )?;
                let split = scan
                    .offsets
                    .iter()
                    .position(|&o| o >= ckpt.journal_len)
                    .unwrap_or(scan.records.len());
                let boundary_ok = scan
                    .offsets
                    .get(split)
                    .map_or(ckpt.journal_len == scan.valid_len, |&o| o == ckpt.journal_len);
                if !boundary_ok {
                    return Err(EngineError::Corrupt {
                        path: journal_path,
                        detail: format!(
                            "checkpoint {} records a journal offset inside a record",
                            ckpt.path.display()
                        ),
                    });
                }
                verify = scan.records[split..].iter().cloned().collect();
                journal = Journal::open_append(&journal_path, scan.valid_len)
                    .map_err(io_at(&journal_path))?;
            }
            None if scan.records.is_empty() => {
                // Nothing usable on disk: degrade to a fresh run.
                core = EngineCore::new(scenario, prepared, requests, seed);
                journal = Journal::create(&journal_path).map_err(io_at(&journal_path))?;
                journal
                    .append(&run_start(digest, kind, seed, scenario))
                    .map_err(io_at(&journal_path))?;
            }
            None => {
                // No checkpoint, but a journal: replay-verify from slot 0.
                core = EngineCore::new(scenario, prepared, requests, seed);
                verify = scan.records[1..].iter().cloned().collect();
                journal = Journal::open_append(&journal_path, scan.valid_len)
                    .map_err(io_at(&journal_path))?;
            }
        }
    } else {
        checkpoint::clear(&opts.dir).map_err(io_at(&opts.dir))?;
        match fs::remove_file(&final_path) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => {
                return Err(io_at(&final_path)(e));
            }
            _ => {}
        }
        core = EngineCore::new(scenario, prepared, requests, seed);
        journal = Journal::create(&journal_path).map_err(io_at(&journal_path))?;
        journal.append(&run_start(digest, kind, seed, scenario)).map_err(io_at(&journal_path))?;
    }

    core.set_recording(true);
    while !core.is_complete() {
        if opts.halt_before_slot == Some(core.next_slot()) {
            return Ok(RunOutcome::Halted { next_slot: core.next_slot() });
        }
        core.step_slot(algorithm.as_mut());
        let slot = core.next_slot() - 1;
        sync_events(&mut core, &mut verify, &mut journal, &journal_path, slot)?;
        #[cfg(feature = "strict-audit")]
        {
            let report = core.audit();
            if !report.is_clean() {
                return Err(EngineError::AuditFailed { slot, report });
            }
        }
        // Checkpoints only once replay is re-verified: while the verify
        // queue is non-empty the journal is ahead of the engine, and a
        // checkpoint would record a journal_len it has not earned.
        if opts.checkpoint_every > 0
            && core.next_slot() % opts.checkpoint_every == 0
            && verify.is_empty()
        {
            let mut w = Writer::new();
            core.encode(&mut w);
            checkpoint::write(
                &opts.dir,
                core.next_slot() as u32,
                digest,
                journal.len(),
                &w.into_bytes(),
            )
            .map_err(io_at(&opts.dir))?;
        }
    }
    core.drain_final(algorithm.as_mut());
    let end_slot = core.next_slot();
    sync_events(&mut core, &mut verify, &mut journal, &journal_path, end_slot)?;
    if let Some(stale) = verify.front() {
        return Err(EngineError::JournalDivergence {
            slot: end_slot,
            detail: format!("journal continues with {stale:?} after the run completed"),
        });
    }
    let metrics = core.finalize(algorithm.as_ref());
    write_final(&final_path, digest, &metrics).map_err(io_at(&final_path))?;
    Ok(RunOutcome::Completed(Box::new(metrics)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{prepare, run_prepared, workload};
    use crate::scenario::UnforeseenFailures;
    use sb_cear::{CearParams, RepairPolicy};
    use sb_topology::failures::{FailureModel, LinkFailureModel};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sb_durable_test_{tag}"));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn failing(scenario: &ScenarioConfig) -> ScenarioConfig {
        let mut s = scenario.clone();
        s.unforeseen = Some(UnforeseenFailures {
            model: FailureModel::IndependentLinks(LinkFailureModel::new(0.15, 0xfee1)),
            policy: RepairPolicy::RepairPaid,
        });
        s
    }

    fn completed(outcome: RunOutcome) -> RunMetrics {
        match outcome {
            RunOutcome::Completed(m) => *m,
            RunOutcome::Halted { next_slot } => panic!("unexpected halt before slot {next_slot}"),
        }
    }

    /// The ISSUE's headline acceptance test: kill the run at *every* slot
    /// boundary, resume, and require bit-identical metrics — for CEAR and
    /// a baseline, with and without the unforeseen-failure model.
    #[test]
    fn kill_at_every_slot_resumes_bit_identically() {
        let base = ScenarioConfig::tiny();
        let seed = 3;
        for scenario in [base.clone(), failing(&base)] {
            let prepared = prepare(&scenario, seed);
            let requests = workload(&scenario, &prepared, seed);
            for kind in [AlgorithmKind::Cear(CearParams::default()), AlgorithmKind::Ssp] {
                let mut reference = run_prepared(&scenario, &prepared, &requests, &kind, seed);
                reference.processing_ms = 0;
                for halt in 1..scenario.horizon_slots {
                    let dir = tmp_dir(&format!(
                        "kill_{}_{}_{halt}",
                        kind.name(),
                        scenario.unforeseen.is_some()
                    ));
                    let mut opts = DurabilityOptions::new(&dir);
                    opts.halt_before_slot = Some(halt);
                    match run_durable(&scenario, &prepared, &requests, &kind, seed, &opts).unwrap()
                    {
                        RunOutcome::Halted { next_slot } => assert_eq!(next_slot, halt),
                        RunOutcome::Completed(_) => panic!("expected a halt at {halt}"),
                    }
                    opts.halt_before_slot = None;
                    opts.resume = true;
                    let mut resumed = completed(
                        run_durable(&scenario, &prepared, &requests, &kind, seed, &opts).unwrap(),
                    );
                    resumed.processing_ms = 0;
                    assert_eq!(
                        resumed,
                        reference,
                        "kill before slot {halt}, {} unforeseen={}",
                        kind.name(),
                        scenario.unforeseen.is_some()
                    );
                    fs::remove_dir_all(&dir).ok();
                }
            }
        }
    }

    #[test]
    fn journal_only_resume_replays_from_slot_zero() {
        let scenario = failing(&ScenarioConfig::tiny());
        let seed = 5;
        let prepared = prepare(&scenario, seed);
        let requests = workload(&scenario, &prepared, seed);
        let kind = AlgorithmKind::Cear(CearParams::default());
        let mut reference = run_prepared(&scenario, &prepared, &requests, &kind, seed);
        reference.processing_ms = 0;

        let dir = tmp_dir("journal_only");
        let mut opts = DurabilityOptions::new(&dir);
        opts.checkpoint_every = 0; // journal is the only artifact
        opts.halt_before_slot = Some(scenario.horizon_slots / 2);
        run_durable(&scenario, &prepared, &requests, &kind, seed, &opts).unwrap();
        opts.halt_before_slot = None;
        opts.resume = true;
        let mut resumed =
            completed(run_durable(&scenario, &prepared, &requests, &kind, seed, &opts).unwrap());
        resumed.processing_ms = 0;
        assert_eq!(resumed, reference);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_journal_tail_is_discarded_on_resume() {
        let scenario = failing(&ScenarioConfig::tiny());
        let seed = 7;
        let prepared = prepare(&scenario, seed);
        let requests = workload(&scenario, &prepared, seed);
        let kind = AlgorithmKind::Ssp;
        let mut reference = run_prepared(&scenario, &prepared, &requests, &kind, seed);
        reference.processing_ms = 0;

        let dir = tmp_dir("torn_tail");
        let mut opts = DurabilityOptions::new(&dir);
        opts.checkpoint_every = 4;
        opts.halt_before_slot = Some(10);
        run_durable(&scenario, &prepared, &requests, &kind, seed, &opts).unwrap();
        // A crash mid-append: garbage bytes on the end of the journal.
        {
            use std::io::Write as _;
            let mut f = fs::OpenOptions::new().append(true).open(dir.join("journal.bin")).unwrap();
            f.write_all(&[0xde, 0xad, 0xbe]).unwrap();
        }
        opts.halt_before_slot = None;
        opts.resume = true;
        let mut resumed =
            completed(run_durable(&scenario, &prepared, &requests, &kind, seed, &opts).unwrap());
        resumed.processing_ms = 0;
        assert_eq!(resumed, reference);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_journal_is_refused_with_digest_mismatch() {
        let scenario = ScenarioConfig::tiny();
        let prepared = prepare(&scenario, 1);
        let requests = workload(&scenario, &prepared, 1);
        let kind = AlgorithmKind::Ssp;

        let dir = tmp_dir("digest");
        let mut opts = DurabilityOptions::new(&dir);
        opts.halt_before_slot = Some(3);
        run_durable(&scenario, &prepared, &requests, &kind, 1, &opts).unwrap();
        // Same directory, different seed: the journal must be refused.
        opts.resume = true;
        let err = run_durable(&scenario, &prepared, &requests, &kind, 2, &opts).unwrap_err();
        assert!(
            matches!(err, EngineError::DigestMismatch { .. }),
            "expected DigestMismatch, got: {err}"
        );
        assert!(format!("{err}").contains("journal.bin"), "error must name the file: {err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn completed_run_resume_returns_cached_metrics() {
        let scenario = ScenarioConfig::tiny();
        let seed = 11;
        let prepared = prepare(&scenario, seed);
        let requests = workload(&scenario, &prepared, seed);
        let kind = AlgorithmKind::Ssp;

        let dir = tmp_dir("cached");
        let mut opts = DurabilityOptions::new(&dir);
        let first =
            completed(run_durable(&scenario, &prepared, &requests, &kind, seed, &opts).unwrap());
        opts.resume = true;
        let second =
            completed(run_durable(&scenario, &prepared, &requests, &kind, seed, &opts).unwrap());
        assert_eq!(first, second, "cached metrics must round-trip bit-exactly");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn strict_audit_passes_on_a_tiny_durable_run() {
        // With `strict-audit` on, every boundary runs the conservation
        // auditor inside run_durable; without it this is a plain smoke
        // test that the durable path completes.
        let scenario = failing(&ScenarioConfig::tiny());
        let seed = 13;
        let prepared = prepare(&scenario, seed);
        let requests = workload(&scenario, &prepared, seed);
        let kind = AlgorithmKind::Cear(CearParams::default());
        let dir = tmp_dir("strict_audit");
        let opts = DurabilityOptions::new(&dir);
        let metrics =
            completed(run_durable(&scenario, &prepared, &requests, &kind, seed, &opts).unwrap());
        assert_eq!(metrics.total_requests, requests.len());
        fs::remove_dir_all(&dir).ok();
    }
}
