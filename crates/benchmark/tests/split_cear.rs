//! `SplitCear` is `Cear::process` restated from its public parts, so that
//! quote and commit can be timed apart. It must decide exactly as
//! `Cear::process` does: whole-run `RunMetrics` are equal.

use sb_benchmark::split::{SplitCear, Timed};
use sb_benchmark::trace::Tracer;
use sb_cear::Cear;
use sb_sim::engine::{self, AlgorithmKind};
use sb_sim::ScenarioConfig;
use std::time::Instant;

fn split_equals_process(scenario: &ScenarioConfig, seed: u64) {
    let prepared = engine::prepare(scenario, seed);
    let requests = engine::workload(scenario, &prepared, seed);
    let kind = AlgorithmKind::Cear(scenario.cear);
    let reference = engine::run_prepared(scenario, &prepared, &requests, &kind, seed);

    let tracer = Tracer::new(true, Instant::now(), 0);
    let mut split =
        Timed::new(Box::new(SplitCear::new(Cear::new(scenario.cear), &tracer)), &tracer);
    let mut metrics = engine::run_with_algorithm(scenario, &prepared, &requests, &mut split, seed);
    metrics.processing_ms = reference.processing_ms; // wall clock may differ
    assert_eq!(metrics, reference, "{} seed {seed}", scenario.name);
    assert!(reference.accepted_requests > 0, "{} seed {seed}: vacuous", scenario.name);

    // One process span and one quote per request; a commit per request
    // that got as far as the commit.
    assert_eq!(split.process_ns.len(), requests.len());
    assert_eq!(split.inner().quote_ns.len(), requests.len());
    let reached_commit = reference.accepted_requests + reference.rejected_at_commit;
    assert_eq!(split.inner().commit_ns.len(), reached_commit);
}

#[test]
fn split_cear_equals_cear_process_on_tiny() {
    for seed in [0, 3] {
        split_equals_process(&ScenarioConfig::tiny(), seed);
    }
}

#[test]
fn split_cear_equals_cear_process_on_fast() {
    // A third of the fast preset's horizon: the same shell, pairs and
    // load, short enough for an unoptimised test build.
    let scenario = ScenarioConfig { horizon_slots: 32, ..ScenarioConfig::fast() };
    split_equals_process(&scenario, 1);
}
