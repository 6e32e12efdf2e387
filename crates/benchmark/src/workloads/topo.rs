//! `topo_mega` — the cold start of one mega-scale cell, which is what
//! every fleet worker pays.
//!
//! Each repetition (seed `seed + k`) prepares the two-shell, 10 368
//! satellite series locally, then ships it the way the fleet does —
//! `compile_series_package` → `encode` → `decode` → `materialize` →
//! `prepare_from_series` — and requires the shipped network to equal the
//! local one. `wall_s` is that cold start and nothing else: `sb-orbit`,
//! `sb-geo`, `sb-topology` and `sb-wire` do all of it, so a kernel or
//! cache change in `sb-cear` must not move it. It is also the only
//! workload whose `peak_rss_mib` is about the series layout.
//!
//! After each cold start a fresh CEAR routes the repetition's first
//! requests over the shipped snapshots — proof that they route, and the
//! source of this workload's decision latencies: cold caches on a 10k-node
//! graph, what a fleet worker's first requests see.
//!
//! `recover_s` is what a restarted fleet worker pays to get its series
//! back from the bytes it was shipped: `decode` → `materialize` →
//! `prepare_from_series`, timed inside each cold start.

use super::{fits, EndToEnd, Options, Outcome, TimedPhase};
use crate::bed::{self, Bed, Scale, PINNED_SEED};
use crate::metrics::{ns_to_us, Digest, Metric};
use crate::probe::span_share;
use crate::split::Timed;
use crate::trace::Tracer;
use sb_cear::{audit, Cear, Decision, NetworkState, RoutingAlgorithm};
use sb_sim::engine::{self, PreparedNetwork};
use sb_sim::ScenarioConfig;
use sb_topology::SeriesPackage;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// What one repetition leaves behind.
struct Rep {
    cold_start_s: f64,
    /// Decode, materialize and prepare from the shipped bytes.
    reload_s: f64,
    route_s: f64,
    process_ns: Vec<u64>,
    shipped_equals_local: bool,
    audit_clean: bool,
    wire_bytes: usize,
    digest: Digest,
    /// The shipped network, for the per-layer probe.
    shipped: Option<PreparedNetwork>,
}

/// One repetition. `audited` runs the conservation audit over the routed
/// state — at mega scale it costs as much as two cold starts, so only the
/// first repetition pays for it; shipped == local is checked every time.
fn run_rep(
    scenario: &ScenarioConfig,
    seed: u64,
    routed: usize,
    audited: bool,
    tracer: &Tracer,
    rep: u64,
) -> Rep {
    let open = tracer.begin("bench.rep", rep);
    let started = Instant::now();
    let local = tracer.span("topology.prepare", rep, || engine::prepare_with(scenario, seed, 1));
    let package =
        tracer.span("ship.compile", rep, || engine::compile_series_package(scenario, seed));
    let bytes = tracer.span("ship.encode", rep, || package.encode());
    let reloading = Instant::now();
    let decoded = tracer
        .span("ship.decode", rep, || SeriesPackage::decode(&bytes))
        .expect("a package this process encoded decodes");
    let series = tracer
        .span("ship.materialize", rep, || decoded.materialize())
        .expect("a package this process encoded materializes");
    let series = Arc::new(series);
    let shipped = tracer.span("topology.prepare_from_series", rep, || {
        engine::prepare_from_series(scenario, seed, &series)
    });
    let reload_s = reloading.elapsed().as_secs_f64();
    let cold_start_s = started.elapsed().as_secs_f64();

    let shipped_equals_local = tracer.span("bench.verify", rep, || {
        shipped.pairs == local.pairs && shipped.series == local.series
    });
    drop(local);

    // Route over the shipped snapshots with cold caches.
    // The request sequence is pinned per repetition; only the network the
    // requests run on follows `--seed`.
    let requests = tracer
        .span("demand.generate", rep, || engine::workload(scenario, &shipped, PINNED_SEED + rep));
    let mut state = NetworkState::new(shipped.series.clone(), &scenario.energy);
    let mut algorithm = Timed::new(Box::new(Cear::new(scenario.cear)), tracer);
    let mut digest = Digest::default();
    digest.word(sb_wire::checksum(&bytes));
    let routing = Instant::now();
    for request in requests.iter().take(routed) {
        match algorithm.process(request, &mut state) {
            Decision::Accepted { price, .. } => digest.float(price),
            Decision::Rejected { reason } => digest.word(reason as u64),
        }
    }
    let route_s = routing.elapsed().as_secs_f64();
    let audit_clean = !audited || tracer.span("bench.verify", rep, || audit(&state).is_clean());
    tracer.end(open);
    Rep {
        cold_start_s,
        reload_s,
        route_s,
        process_ns: algorithm.process_ns,
        shipped_equals_local,
        audit_clean,
        wire_bytes: bytes.len(),
        digest,
        shipped: Some(shipped),
    }
}

/// Runs the workload.
pub fn run(options: &Options) -> Outcome {
    let scenario = bed::mega_scenario(options.scale);
    let routed = match options.scale {
        Scale::Full => bed::MEGA_ROUTED,
        Scale::Tiny => 4,
    };
    let mut outcome = Outcome::default();
    let mut e2e = EndToEnd::new(options);

    // Set-up: fault in the allocator and the code with a two-slot series
    // of the same constellation, so that the first timed cold start is not
    // also the process's first large allocation.
    let warmup = ScenarioConfig { horizon_slots: 2, ..scenario.clone() };
    for i in 0..3 {
        let started = Instant::now();
        black_box(engine::prepare_with(&warmup, options.seed ^ (0x5e7 + i), 1));
        e2e.setups_s.push(started.elapsed().as_secs_f64());
    }

    let budget = options.seconds;
    let phase = TimedPhase::begin(options);
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let k = reps.len() as u64;
        let before = phase.elapsed_s();
        let mut rep = run_rep(&scenario, options.seed + k, routed, k == 0, &phase.tracer, k);
        if !(options.trace && k == 0) {
            // Only a traced run's first network is kept, for the probe.
            rep.shipped = None;
        }
        reps.push(rep);
        let now = phase.elapsed_s();
        if !fits(now, now - before, budget) {
            break;
        }
    }
    let traced = phase.end(&mut e2e, &mut outcome);

    for (k, rep) in reps.iter().enumerate() {
        outcome.attempted += 1;
        if !rep.shipped_equals_local || !rep.audit_clean {
            outcome.failed += 1;
            outcome.fail(format!(
                "repetition {k}: shipped == local {}, audit clean {}",
                rep.shipped_equals_local, rep.audit_clean
            ));
        }
        e2e.units_s.push(rep.cold_start_s);
        e2e.recoveries_s.push(rep.reload_s);
        e2e.decisions += rep.process_ns.len() as u64;
        e2e.issued += rep.process_ns.len() as u64;
        e2e.decision_window_s += rep.route_s;
        e2e.latencies_us.extend(rep.process_ns.iter().map(|&ns| ns_to_us(ns)));
    }
    outcome.check(e2e.decisions > 0, || "no request was routed over the shipped series".to_owned());
    outcome.digest = reps[0].digest.value();
    outcome.notes.push(Metric::new("repetitions", reps.len() as f64, "count"));
    outcome.notes.push(Metric::new(
        "ship_wire_mib",
        reps[0].wire_bytes as f64 / (1 << 20) as f64,
        "MiB",
    ));
    e2e.report(&mut outcome);
    if options.trace {
        let shipped = reps.swap_remove(0).shipped.expect("a traced run keeps its first network");
        drop(reps);
        let prepared = Arc::new(shipped);
        let requests = engine::workload(&scenario, &prepared, options.seed);
        let bed =
            Bed { scenario, prepared, requests, network_seed: options.seed, seed: options.seed };
        traced.into_layers(&mut outcome, &bed, options);
        // `wall_s` is the cold starts, timed by `Instant`s of their own;
        // the spans of the topology layers must account for them.
        let cold_starts_s: f64 = e2e.units_s.iter().sum();
        let share = span_share(&outcome.threads[0].1, &["topology", "ship"], cold_starts_s);
        outcome.set_layer(Metric::new("topology.share", share, "ratio"));
        outcome.check(share >= 0.8, || {
            format!(
                "topology.share {share:.3} < 0.8: wall_s no longer isolates the topology layers"
            )
        });
    }
    outcome
}
