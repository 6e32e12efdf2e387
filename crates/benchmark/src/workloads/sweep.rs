//! `sweep_paper12` — the researcher's fig-6 wall clock at the paper's
//! constellation.
//!
//! Ten cells — two arrival rates × the five algorithms — run in cell
//! order through one `PreparedCache` per pass, exactly as a figure binary
//! with `--jobs 1` runs them: `PreparedCache::get` → `engine::workload` →
//! the slot-stepped engine with default `ExecOptions` (A\* + SPT cache).
//! `sb-cear` and `sb-energy` do almost all the work; the topology is
//! built once per pass (the one cache miss is inside the timed pass) and
//! shared by the ten cells, so a topology change must not move this
//! workload. It mixes the cache-friendly CEAR and SSP cells with the
//! volatile baselines that bypass the SPT cache, and light with saturated
//! load, so a cache that helps reads and hurts writes shows here.
//!
//! A pass draws its traffic from seed `seed + k`, on the network of
//! [`PINNED_SEED`], and decides the first [`bed::SWEEP_REQUESTS`] requests
//! of each cell; passes repeat while they fit `--seconds`.
//!
//! `recover_s` is what resuming a checkpointed cell pays first: decoding
//! the network state the first CEAR cell ended in
//! (`NetworkState::decode_snapshot`, the restore under
//! `sb_sim::durable`'s resume).

use super::serve_common::state_bytes;
use super::{fits, EndToEnd, Options, Outcome, TimedPhase};
use crate::bed::{self, Bed, PINNED_SEED};
use crate::metrics::{ns_to_us, Digest, Metric};
use crate::split::{SplitCear, Timed};
use crate::trace::Tracer;
use sb_cear::{Cear, NetworkState, RoutingAlgorithm};
use sb_demand::Request;
use sb_sim::engine::{self, AlgorithmKind, EngineCore, ExecOptions, PreparedNetwork};
use sb_sim::{PreparedCache, RunMetrics, ScenarioConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One finished cell.
struct Cell {
    label: String,
    metrics: RunMetrics,
    wall: Duration,
    process_ns: Vec<u64>,
    audit_clean: bool,
    /// The state the cell ended in, encoded (first cell of a run only).
    final_state: Option<Vec<u8>>,
}

/// `engine::run_with_algorithm`, slot by slot so each step gets a span,
/// plus the conservation audit and, for the run's first cell, a snapshot
/// of the final state (verification: its time is returned apart and is in
/// no metric).
fn drive<A: RoutingAlgorithm>(
    scenario: &ScenarioConfig,
    prepared: &PreparedNetwork,
    requests: &[Request],
    algorithm: &mut A,
    seed: u64,
    tracer: &Tracer,
    cell: u64,
) -> (RunMetrics, bool, Option<Vec<u8>>, Duration) {
    let mut core =
        tracer.span("sim.engine_new", cell, || EngineCore::new(scenario, prepared, requests, seed));
    while !core.is_complete() {
        let slot = core.next_slot() as u64;
        tracer.span("sim.step_slot", slot, || core.step_slot(algorithm));
    }
    tracer.span("sim.drain_final", cell, || core.drain_final(algorithm));
    let auditing = Instant::now();
    let (clean, state) = tracer.span("bench.verify", cell, || {
        (core.audit().is_clean(), (cell == 0).then(|| state_bytes(core.state())))
    });
    let audit = auditing.elapsed();
    let metrics = tracer.span("sim.finalize", cell, || core.finalize(&*algorithm));
    (metrics, clean, state, audit)
}

/// The ten cells for `seed`, in cell order, each cut to its `counts` entry.
fn run_pass(
    scenario: &ScenarioConfig,
    rates: [f64; 2],
    counts: [usize; 2],
    seed: u64,
    tracer: &Tracer,
    pass: u64,
) -> Vec<Cell> {
    let cache = PreparedCache::new(1);
    let exec = ExecOptions::default();
    let mut cells = Vec::with_capacity(10);
    for (rate, count) in rates.into_iter().zip(counts) {
        let s = ScenarioConfig { arrivals_per_slot: rate, ..scenario.clone() };
        for kind in AlgorithmKind::all(&s) {
            let id = pass * 100 + cells.len() as u64;
            let open = tracer.begin("bench.cell", id);
            let started = Instant::now();
            let prepared = tracer.span("sim.prepare", id, || cache.get(&s, PINNED_SEED));
            let requests = tracer.span("demand.generate", id, || {
                let mut requests = engine::workload(&s, &prepared, seed);
                requests.truncate(count);
                requests
            });
            // Traced CEAR cells run through SplitCear, which must decide
            // exactly as `Cear::process` does; every other cell runs the
            // algorithm `run_prepared_exec` would instantiate.
            let (metrics, audit_clean, final_state, audit, process_ns) = match kind {
                AlgorithmKind::Cear(params) if tracer.enabled() => {
                    let cear = Cear::new(params)
                        .with_quote_threads(exec.quote_threads)
                        .with_search(exec.search);
                    let mut algorithm = Timed::new(Box::new(SplitCear::new(cear, tracer)), tracer);
                    let (m, clean, state, audit) =
                        drive(&s, &prepared, &requests, &mut algorithm, seed, tracer, id);
                    (m, clean, state, audit, algorithm.process_ns)
                }
                _ => {
                    let mut algorithm = Timed::new(kind.instantiate_exec(&exec), tracer);
                    let (m, clean, state, audit) =
                        drive(&s, &prepared, &requests, &mut algorithm, seed, tracer, id);
                    (m, clean, state, audit, algorithm.process_ns)
                }
            };
            let wall = started.elapsed().saturating_sub(audit);
            tracer.end(open);
            cells.push(Cell {
                label: format!("r{rate}-{}", kind.name()),
                metrics,
                wall,
                process_ns,
                audit_clean,
                final_state,
            });
        }
    }
    assert_eq!(
        (cache.misses(), cache.hits()),
        (1, 9),
        "one prepared network per pass, shared by the other nine cells"
    );
    cells
}

/// Runs the workload.
pub fn run(options: &Options) -> Outcome {
    let scenario = bed::sweep_scenario(options.scale);
    let rates = bed::sweep_rates(options.scale);
    let counts = bed::sweep_requests(options.scale);
    let mut outcome = Outcome::default();
    let mut e2e = EndToEnd::new(options);

    // Set-up: building the inputs once, outside the cache — the work a
    // later change could move a pass's cost into.
    for _ in 0..3 {
        let started = Instant::now();
        let prepared = engine::prepare_with(&scenario, PINNED_SEED, 1);
        for rate in rates {
            let s = ScenarioConfig { arrivals_per_slot: rate, ..scenario.clone() };
            black_box(engine::workload(&s, &prepared, options.seed));
        }
        e2e.setups_s.push(started.elapsed().as_secs_f64());
    }

    let budget = options.seconds;
    let phase = TimedPhase::begin(options);
    let tracer = &phase.tracer;
    let mut passes: Vec<Vec<Cell>> = Vec::new();
    loop {
        let pass = passes.len() as u64;
        let open = tracer.begin("bench.pass", pass);
        let cells = run_pass(&scenario, rates, counts, options.seed + pass, tracer, pass);
        tracer.end(open);
        let wall: f64 = cells.iter().map(|c| c.wall.as_secs_f64()).sum();
        e2e.units_s.push(wall);
        passes.push(cells);
        if !fits(phase.elapsed_s(), wall, budget) {
            break;
        }
    }
    let traced = phase.end(&mut e2e, &mut outcome);

    // Verification, after the timed phase.
    let mut digest = Digest::default();
    for (pass, cells) in passes.iter().enumerate() {
        for cell in cells {
            let m = &cell.metrics;
            outcome.attempted += 1;
            let adds_up = m.accepted_requests
                + m.rejected_no_path
                + m.rejected_by_price
                + m.rejected_at_commit
                == m.total_requests;
            if !cell.audit_clean || !adds_up || cell.process_ns.len() != m.total_requests {
                outcome.failed += 1;
                outcome.fail(format!(
                    "pass {pass} cell {}: audit clean {}, accounting adds up {adds_up}, \
                     {} of {} requests timed",
                    cell.label,
                    cell.audit_clean,
                    cell.process_ns.len(),
                    m.total_requests
                ));
            }
            e2e.decisions += m.total_requests as u64;
            e2e.issued += m.total_requests as u64;
            e2e.latencies_us.extend(cell.process_ns.iter().map(|&ns| ns_to_us(ns)));
            if pass == 0 {
                digest.word(m.accepted_requests as u64);
                digest.float(m.welfare);
            }
        }
    }
    e2e.decision_window_s = e2e.units_s.iter().sum();
    outcome.digest = digest.value();

    // The wrappers must be transparent: the first CEAR cell, rerun through
    // the plain `run_prepared_exec` path, gives the same `RunMetrics`.
    let s = ScenarioConfig { arrivals_per_slot: rates[0], ..scenario.clone() };
    let mut reference = Bed::build(&s, PINNED_SEED, options.seed);
    reference.requests.truncate(counts[0]);
    let kind = AlgorithmKind::Cear(s.cear);
    let mut plain = engine::run_prepared_exec(
        &s,
        &reference.prepared,
        &reference.requests,
        &kind,
        options.seed,
        &ExecOptions::default(),
    );
    plain.processing_ms = passes[0][0].metrics.processing_ms;
    outcome.check(plain == passes[0][0].metrics, || {
        "the timed CEAR cell differs from engine::run_prepared_exec on the same inputs".to_owned()
    });

    // Recovery: the first cell (CEAR at the lower rate) restored from its
    // snapshot, which must encode back to the same bytes.
    let snapshot = passes[0][0].final_state.as_deref().expect("the first cell keeps its state");
    for _ in 0..31 {
        let started = Instant::now();
        let restored = NetworkState::decode_snapshot(
            reference.prepared.series.clone(),
            &mut sb_wire::Reader::new(snapshot),
        );
        e2e.recoveries_s.push(started.elapsed().as_secs_f64());
        outcome.check(restored.is_ok_and(|state| state_bytes(&state) == snapshot), || {
            "the first cell's snapshot does not restore to the state it was taken from".to_owned()
        });
    }

    outcome.notes.push(Metric::new("passes", passes.len() as f64, "count"));
    e2e.report(&mut outcome);
    traced.into_layers(&mut outcome, &reference, options);
    if options.trace {
        let busy = outcome.layers.iter().find(|m| m.name == "core.process_busy_frac");
        let busy = busy.map_or(0.0, |m| m.value);
        outcome.check(busy >= 0.8, || {
            format!("core.process_busy_frac {busy:.3} < 0.8: the sweep no longer isolates sb-cear")
        });
    }
    outcome
}
