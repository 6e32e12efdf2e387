//! End-to-end chaos tests for the fleet coordinator: real worker
//! processes, scripted kills and hangs, coordinator crash-and-resume —
//! and the headline invariant that the final metrics are bit-identical
//! to an uninterrupted in-process run through it all.

use sb_fleet::chaos::ChaosPlan;
use sb_fleet::coordinator::{run_fleet, FleetError, FleetOptions, FleetOutcome};
use sb_fleet::proto::CellSpec;
use sb_fleet::worker::run_cell_local;
use sb_fleet::SweepCell;
use sb_sim::engine::{run_digest, AlgorithmKind};
use sb_sim::{PreparedCache, RunMetrics, ScenarioConfig};
use std::path::PathBuf;

/// The worker binary Cargo built for this test run.
fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_sb-fleet-worker"))
}

/// A small but non-trivial sweep: two algorithms × three seeds on the
/// tiny scenario (24 slots), so kills at slot 1–2 are genuinely mid-cell.
fn sweep() -> Vec<SweepCell> {
    let scenario = ScenarioConfig::tiny();
    let mut cells = Vec::new();
    for kind in [AlgorithmKind::Ssp, AlgorithmKind::Ecars] {
        for seed in 0..3 {
            cells.push(SweepCell {
                label: format!("{}-s{seed}", kind.name()),
                scenario: scenario.clone(),
                kind,
                seed,
            });
        }
    }
    cells
}

/// The uninterrupted in-process reference for a sweep, computed through
/// the exact engine path the workers use.
fn reference(cells: &[SweepCell]) -> Vec<RunMetrics> {
    let cache = PreparedCache::new(1);
    cells
        .iter()
        .map(|c| {
            let spec = CellSpec {
                label: c.label.clone(),
                scenario: c.scenario.clone(),
                kind: c.kind,
                seed: c.seed,
                digest: run_digest(&c.scenario, &c.kind, c.seed),
                build_threads: 1,
                chaos: None,
                ship: None,
            };
            normalized(run_cell_local(&spec, &cache, |_| {}))
        })
        .collect()
}

/// Wall-clock timing is the one legitimately nondeterministic metric;
/// zero it so equality means "every simulated quantity is bit-identical".
fn normalized(mut m: RunMetrics) -> RunMetrics {
    m.processing_ms = 0;
    m
}

fn opts(tag: &str, workers: usize) -> FleetOptions {
    let dir = std::env::temp_dir().join(format!("sb_fleet_chaos_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut o = FleetOptions::new(workers, dir);
    o.worker_bin = Some(worker_bin());
    // Tight deadlines keep the hang-recovery test fast; heartbeats come
    // every slot (milliseconds apart), so these are still generous.
    o.sched.soft_timeout_ms = 500;
    o.sched.hard_timeout_ms = 2_000;
    o.sched.backoff_base_ms = 10;
    o.sched.backoff_cap_ms = 100;
    o
}

fn cleanup(o: &FleetOptions) {
    let _ = std::fs::remove_dir_all(&o.results_dir);
}

#[test]
fn clean_fleet_matches_in_process_reference() {
    let cells = sweep();
    let o = opts("clean", 3);
    let got = match run_fleet(&cells, &o).expect("clean fleet run") {
        FleetOutcome::Completed(m) => m,
        other => panic!("expected completion, got {other:?}"),
    };
    let got: Vec<_> = got.into_iter().map(normalized).collect();
    assert_eq!(got, reference(&cells), "fleet metrics must be bit-identical");
    cleanup(&o);
}

#[test]
fn scripted_kills_and_hangs_do_not_change_a_single_bit() {
    let cells = sweep();
    let mut o = opts("killhang", 2);
    // Cell 1 SIGABRTs its worker at slot 2; cell 3 hangs silently (only
    // the hard heartbeat deadline recovers that one). Both retry clean.
    o.chaos = ChaosPlan::parse("kill:cell=1,slot=2;hang:cell=3").unwrap();
    let got = match run_fleet(&cells, &o).expect("chaotic fleet run") {
        FleetOutcome::Completed(m) => m,
        other => panic!("expected completion, got {other:?}"),
    };
    let got: Vec<_> = got.into_iter().map(normalized).collect();
    assert_eq!(got, reference(&cells), "kills and hangs must not perturb results");
    cleanup(&o);
}

#[test]
fn coordinator_killed_mid_sweep_resumes_to_identical_results() {
    let cells = sweep();
    let mut o = opts("resume", 2);
    // Scripted coordinator crash after 2 durable cells, with a worker
    // kill thrown in for good measure.
    o.chaos = ChaosPlan::parse("kill:cell=0,slot=1;exit:after=2").unwrap();
    match run_fleet(&cells, &o).expect("halting run") {
        FleetOutcome::Halted { completed_this_session } => {
            assert_eq!(completed_this_session, 2, "halt honors the scripted point");
        }
        other => panic!("expected a scripted halt, got {other:?}"),
    }
    // Between 1 and 5 cell files exist (2 acked + possibly in-flight).
    let files = std::fs::read_dir(&o.results_dir).map(|d| d.count()).unwrap_or(0);
    assert!(files >= 2, "at least the acked cells are durable, found {files}");

    // The rerun resumes from the durable directory and finishes the rest.
    o.chaos = ChaosPlan::default();
    let got = match run_fleet(&cells, &o).expect("resumed run") {
        FleetOutcome::Completed(m) => m,
        other => panic!("expected completion, got {other:?}"),
    };
    let got: Vec<_> = got.into_iter().map(normalized).collect();
    assert_eq!(got, reference(&cells), "kill-and-resume must be invisible in the results");
    cleanup(&o);
}

#[test]
fn poison_cell_quarantines_with_named_cell_and_stderr_tail() {
    let cells = sweep();
    let mut o = opts("poison", 2);
    o.sched.max_attempts = 2; // fail fast
    o.chaos = ChaosPlan::parse("poison:cell=4").unwrap();
    let err = run_fleet(&cells, &o).expect_err("poison must fail the sweep");
    let FleetError::Quarantine(report) = &err else {
        panic!("expected quarantine, got {err:?}");
    };
    assert_eq!(report.len(), 1);
    assert_eq!(report[0].cell, 4);
    assert_eq!(report[0].label, cells[4].label, "report names the cell");
    assert_eq!(report[0].attempts, 2, "full retry budget consumed");
    assert!(
        report[0].stderr_tail.contains("chaos: aborting"),
        "report carries the dead worker's stderr, got: {}",
        report[0].stderr_tail
    );
    // The rest of the sweep still completed durably before the failure
    // was raised: a rerun without poison has only cell 4 left to run.
    let done = std::fs::read_dir(&o.results_dir).map(|d| d.count()).unwrap_or(0);
    assert_eq!(done, cells.len() - 1, "all healthy cells persisted");
    cleanup(&o);
}

#[test]
fn unspawnable_worker_degrades_to_in_process_with_identical_results() {
    let cells = sweep();
    let mut o = opts("degrade", 2);
    o.worker_bin = Some(PathBuf::from("/nonexistent/sb-fleet-worker"));
    let got = match run_fleet(&cells, &o).expect("degraded run") {
        FleetOutcome::Completed(m) => m,
        other => panic!("expected completion, got {other:?}"),
    };
    let got: Vec<_> = got.into_iter().map(normalized).collect();
    assert_eq!(got, reference(&cells), "the degraded path computes the same bytes");
    cleanup(&o);
}
