//! The per-layer probe: every layer's public functions, timed from
//! outside on the traced workload's own inputs.
//!
//! A traced run does an untraced run's work with spans on, then comes
//! here. The probe is the same for every workload — what
//! differs is the bed it runs on (paper shell under sweep load, the mega
//! shells, the paper shell under service load) — so every workload reports
//! every per-layer metric of `BENCHMARK.json`, each a real measurement on
//! that workload's scale. Probe sets are fixed in size, so the counts
//! (pops, relaxations, read-set cells, hit fractions) repeat exactly for
//! equal code and seed and can carry a later claim; the times are medians.
//!
//! Which end-to-end metric each number should move is written down in the
//! README's interaction table, before measuring.

use crate::bed::{ack_limit_us, nodes_for, Bed, Scale};
use crate::metrics::{median, ns_to_us, tail, Metric};
use crate::openloop::{self, poisson_schedule};
use crate::split::{SplitCear, Timed};
use crate::trace::{self_times, span_cost_ns, Span, Tracer};
use crate::workloads::serve_common::{config, fresh_state, memory_journal};
use crate::workloads::serve_open::{generator_metrics, loaded_metrics};
use crate::workloads::{Options, Workload};
use sb_cear::search::{min_cost_path_in, min_cost_path_with, EdgeContext, HopBoundHeuristic};
use sb_cear::{pricing, Cear, NetworkState, PriceCache, RoutingAlgorithm, SearchScratch, SptStats};
use sb_demand::Request;
use sb_energy::SatelliteRole;
use sb_fleet::{FleetOptions, FleetOutcome, SweepCell};
use sb_geo::Epoch;
use sb_serve::{wal, AdmissionService};
use sb_sim::engine::{self, AlgorithmKind, EngineCore, ExecOptions};
use sb_sim::journal::{self, Journal, JournalRecord};
use sb_sim::{checkpoint, PreparedCache, RunMetrics, ScenarioConfig};
use sb_topology::failures::LinkFailureModel;
use sb_topology::graph::EdgeId;
use sb_topology::series::build_snapshot;
use sb_topology::{SeriesBuilder, SeriesPackage, SlotIndex, TopologySnapshot};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Per-hop tie-break of CEAR's edge cost (`sb_cear::algorithm`): every
/// edge costs at least this times `1 + rate`, which makes it the unit of
/// the hop-bound heuristic in the search kernels below.
const HOP_TIEBREAK: f64 = 1e-6;

/// How much of each thing the probe measures.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Requests each per-request pass processes.
    pub requests: usize,
    /// A state is sampled before every this-many-th request of the CEAR
    /// pass; the kernels replay on the samples.
    pub sample_every: usize,
    /// Slots the topology and shipping kernels compile.
    pub topo_slots: usize,
    /// Horizon of the cells behind the two-thread points.
    pub par_slots: usize,
    /// Appends to the file journal.
    pub fsync_appends: usize,
}

impl Sizes {
    /// The frozen sizes for `options`: a mega-scale decision costs ≈ 100
    /// ms, so that bed gets fewer of them.
    pub fn of(options: &Options) -> Sizes {
        match (options.scale, options.workload) {
            (Scale::Tiny, _) => Sizes {
                requests: 12,
                sample_every: 4,
                topo_slots: 6,
                par_slots: 4,
                fsync_appends: 40,
            },
            (Scale::Full, Workload::TopoMega) => Sizes {
                requests: 4,
                sample_every: 2,
                topo_slots: 12,
                par_slots: 2,
                fsync_appends: 200,
            },
            (Scale::Full, _) => Sizes {
                requests: 24,
                sample_every: 8,
                topo_slots: 24,
                par_slots: 3,
                fsync_appends: 200,
            },
        }
    }
}

fn secs(started: Instant) -> f64 {
    started.elapsed().as_secs_f64()
}

/// Median seconds of `runs` calls of `f`.
fn median_secs<R>(runs: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..runs)
        .map(|_| {
            let started = Instant::now();
            black_box(f());
            secs(started)
        })
        .collect();
    median(&samples)
}

fn median_us(ns: &[u64]) -> f64 {
    median(&ns.iter().map(|&n| ns_to_us(n)).collect::<Vec<_>>())
}

/// Self time of the spans in `layers` as a share of `window_s`.
pub fn span_share(spans: &[Span], layers: &[&str], window_s: f64) -> f64 {
    let times = self_times(spans);
    layers.iter().map(|layer| times.layer_ns(layer)).sum::<u64>() as f64 / 1e9 / window_s
}

/// The metrics read off a traced timed phase's main-thread spans: how
/// many there are, what recording them cost by the recorder's own
/// calibration (the measured overhead is the traced run against the
/// untraced one, which only `run.sh --all` has both of), and how much of
/// `timed_wall_s` (verification excluded) each group of layers accounts
/// for.
pub fn span_layers(spans: &[Span], timed_wall_s: f64) -> Vec<Metric> {
    let verify_s = self_times(spans).name_ns("bench.verify") as f64 / 1e9;
    let wall_s = timed_wall_s - verify_s;
    vec![
        Metric::new("trace.spans", spans.len() as f64, "count"),
        Metric::new(
            "trace.span_cost_frac",
            spans.len() as f64 * span_cost_ns() / 1e9 / timed_wall_s,
            "ratio",
        ),
        Metric::new("topology.share", span_share(spans, &["topology", "ship"], wall_s), "ratio"),
        Metric::new("core.process_busy_frac", span_share(spans, &["core"], wall_s), "ratio"),
    ]
}

/// `orbit`, `geo`, `topology`, `topology::shipping`, `wire`.
fn topology_layers(bed: &Bed, sizes: &Sizes, out: &mut Vec<Metric>) {
    let scenario = &bed.scenario;
    let nodes = nodes_for(scenario);
    let slot_s = scenario.slot_duration_s;
    let sats = nodes.num_satellites() as f64;

    let propagate_s = median_secs(5, || nodes.broadband().propagate(Epoch::from_seconds(slot_s)));
    out.push(Metric::new("orbit.propagate_ns_per_sat", propagate_s * 1e9 / sats, "ns"));

    let base_s = median_secs(3, || {
        build_snapshot(&nodes, &scenario.topology, SlotIndex(0), Epoch::from_seconds(0.0))
    });
    out.push(Metric::new("topology.base_build_ms", base_s * 1e3, "ms"));

    // Delta cost per slot: what compiling `topo_slots` costs beyond
    // compiling one.
    let builder = SeriesBuilder::new(&nodes, &scenario.topology);
    let one_s = median_secs(3, || builder.compile(1, slot_s));
    let started = Instant::now();
    let series = builder.compile(sizes.topo_slots, slot_s).into_series();
    let all_s = secs(started);
    out.push(Metric::new(
        "topology.delta_slot_us",
        (all_s - one_s).max(0.0) * 1e6 / (sizes.topo_slots - 1) as f64,
        "us",
    ));
    out.push(Metric::new(
        "topology.series_heap_mib",
        series.heap_bytes() as f64 / (1 << 20) as f64,
        "MiB",
    ));
    let marginal: Vec<f64> =
        series.snapshots()[1..].iter().map(|s| s.marginal_heap_bytes() as f64 / 1024.0).collect();
    out.push(Metric::new("topology.marginal_slot_kib", median(&marginal), "KiB"));
    let model = LinkFailureModel::new(0.02, bed.seed ^ 0xfa11_fa11);
    let started = Instant::now();
    black_box(series.with_failures(&model));
    out.push(Metric::new("topology.failures_ms", secs(started) * 1e3, "ms"));

    let started = Instant::now();
    let package = SeriesPackage::compile(&nodes, &scenario.topology, sizes.topo_slots, slot_s);
    out.push(Metric::new("topology.ship_compile_ms", secs(started) * 1e3, "ms"));
    let started = Instant::now();
    let bytes = package.encode();
    out.push(Metric::new("topology.ship_encode_ms", secs(started) * 1e3, "ms"));
    let started = Instant::now();
    let decoded = SeriesPackage::decode(&bytes).expect("own package decodes");
    out.push(Metric::new("topology.ship_decode_ms", secs(started) * 1e3, "ms"));
    let started = Instant::now();
    black_box(decoded.materialize().expect("own package materializes"));
    out.push(Metric::new("topology.ship_materialize_ms", secs(started) * 1e3, "ms"));
    let mib = bytes.len() as f64 / (1 << 20) as f64;
    out.push(Metric::new("topology.ship_wire_mib", mib, "MiB"));
    let checksum_s = median_secs(3, || sb_wire::checksum(&bytes));
    out.push(Metric::new("wire.checksum_mib_per_s", mib / checksum_s, "MiB/s"));
}

/// `demand` and `sim`: workload generation, the prepared cache, and the
/// slot-stepped engine around a CEAR pass.
fn sim_layers(bed: &Bed, requests: &[Request], out: &mut Vec<Metric>) {
    let scenario = &bed.scenario;
    let generate_s = median_secs(5, || engine::workload(scenario, &bed.prepared, bed.seed));
    out.push(Metric::new(
        "demand.generate_us_per_req",
        generate_s * 1e6 / bed.requests.len().max(1) as f64,
        "us",
    ));

    let cache = PreparedCache::new(1);
    let started = Instant::now();
    black_box(cache.get(scenario, bed.network_seed));
    out.push(Metric::new("sim.prepare_ms", secs(started) * 1e3, "ms"));
    for _ in 0..3 {
        black_box(cache.get(scenario, bed.network_seed));
    }
    let gets = (cache.hits() + cache.misses()) as f64;
    out.push(Metric::new("sim.prepare_cache_hit_frac", cache.hits() as f64 / gets, "ratio"));

    // The engine, driven slot by slot as `run_with_algorithm` drives it.
    let off = Tracer::off();
    let mut algorithm = Timed::new(Box::new(Cear::new(scenario.cear)), &off);
    let started = Instant::now();
    let mut core = EngineCore::new(scenario, &bed.prepared, requests, bed.seed);
    let mut busy_slots_ms = Vec::new();
    while !core.is_complete() {
        let decided = algorithm.process_ns.len();
        let stepping = Instant::now();
        core.step_slot(&mut algorithm);
        if algorithm.process_ns.len() > decided {
            busy_slots_ms.push(secs(stepping) * 1e3);
        }
    }
    core.drain_final(&mut algorithm);
    black_box(core.finalize(&algorithm));
    let wall_ns = started.elapsed().as_nanos() as f64;
    let process_ns: u64 = algorithm.process_ns.iter().sum();
    out.push(Metric::new("sim.step_slot_ms_p50", median(&busy_slots_ms), "ms"));
    out.push(Metric::new(
        "sim.engine_overhead_frac",
        (wall_ns - process_ns as f64).max(0.0) / wall_ns,
        "ratio",
    ));
}

/// A request with the state it was decided on.
struct Sample {
    state: NetworkState,
    request: Request,
}

/// Numbers later sections need from earlier ones.
#[derive(Default)]
struct Pieces {
    quote_recording_us: f64,
    readset_check_ns: f64,
    commit_us: f64,
    journal_append_us: f64,
}

/// `core.spt_hit_frac` and `core.spt_deferred_frac` from SPT-cache
/// counters.
pub fn spt_metrics(spt: &SptStats) -> [Metric; 2] {
    let lookups = spt.lookups().max(1) as f64;
    [
        Metric::new("core.spt_hit_frac", spt.hits as f64 / lookups, "ratio"),
        Metric::new("core.spt_deferred_frac", spt.deferred as f64 / lookups, "ratio"),
    ]
}

/// `core`, per request: every algorithm's `process`; CEAR split into quote
/// and commit; and, on the state each request of the CEAR pass meets, the
/// service's entry point `quote_recording` with its read set. Returns the
/// states sampled along the CEAR pass.
fn core_per_request(
    bed: &Bed,
    requests: &[Request],
    sizes: &Sizes,
    pieces: &mut Pieces,
    out: &mut Vec<Metric>,
) -> Vec<Sample> {
    let scenario = &bed.scenario;
    let off = Tracer::off();
    let mut samples = Vec::new();
    for kind in AlgorithmKind::all(scenario) {
        let mut state = fresh_state(bed);
        let process_ns = match kind {
            AlgorithmKind::Cear(params) => {
                let mut algorithm =
                    Timed::new(Box::new(SplitCear::new(Cear::new(params), &off)), &off);
                // A second instance, as a service worker owns its own.
                let recorder = Cear::new(params);
                let (mut recording_us, mut cells, mut check_ns) = (vec![], vec![], vec![]);
                for (i, request) in requests.iter().enumerate() {
                    let started = Instant::now();
                    let (_, reads) = recorder.quote_recording(request, &state);
                    recording_us.push(secs(started) * 1e6);
                    cells.push(reads.bandwidth_len() as f64);
                    if i % sizes.sample_every == 0 {
                        const CHECKS: u32 = 200;
                        let started = Instant::now();
                        for _ in 0..CHECKS {
                            assert!(
                                black_box(reads.is_current(&state)),
                                "a fresh read set is stale"
                            );
                        }
                        check_ns.push(started.elapsed().as_nanos() as f64 / f64::from(CHECKS));
                        samples.push(Sample { state: state.clone(), request: request.clone() });
                    }
                    black_box(algorithm.process(request, &mut state));
                }
                pieces.quote_recording_us = median(&recording_us);
                pieces.readset_check_ns = median(&check_ns);
                out.push(Metric::new("core.quote_recording_us", pieces.quote_recording_us, "us"));
                out.push(Metric::new("core.readset_cells", median(&cells), "count"));
                out.push(Metric::new("core.readset_check_ns", pieces.readset_check_ns, "ns"));
                let split = algorithm.inner();
                let slots: u32 = split.quote_slots.iter().sum();
                let quote_ns: u64 = split.quote_ns.iter().sum();
                out.push(Metric::new("core.quote_us", median_us(&split.quote_ns), "us"));
                out.push(Metric::new(
                    "core.quote_us_per_slot",
                    ns_to_us(quote_ns) / f64::from(slots.max(1)),
                    "us",
                ));
                if split.commit_ns.is_empty() {
                    eprintln!("probe: no request reached the commit; core.commit_us reads 0");
                }
                pieces.commit_us =
                    if split.commit_ns.is_empty() { 0.0 } else { median_us(&split.commit_ns) };
                out.push(Metric::new("core.commit_us", pieces.commit_us, "us"));
                out.extend(spt_metrics(&split.cear().quote_stats().spt));
                algorithm.process_ns
            }
            _ => {
                let mut algorithm = Timed::new(kind.instantiate(), &off);
                for request in requests {
                    black_box(algorithm.process(request, &mut state));
                }
                algorithm.process_ns
            }
        };
        out.push(Metric::new(
            format!("core.process_us.{}", kind.name()),
            median_us(&process_ns),
            "us",
        ));
    }
    samples
}

/// An admissible hop lower bound to `destination`: undirected BFS over
/// the snapshot's edges (unreachable nodes get 0, which stays admissible).
fn hop_bounds(snapshot: &TopologySnapshot, destination: sb_topology::NodeId) -> Vec<u32> {
    let mut adjacency: Vec<Vec<u32>> = vec![Vec::new(); snapshot.num_nodes()];
    for edge in snapshot.edges() {
        adjacency[edge.src.index()].push(edge.dst.0);
        adjacency[edge.dst.index()].push(edge.src.0);
    }
    let mut hops = vec![u32::MAX; snapshot.num_nodes()];
    hops[destination.index()] = 0;
    let mut frontier = std::collections::VecDeque::from([destination.0]);
    while let Some(node) = frontier.pop_front() {
        let next = hops[node as usize] + 1;
        for &peer in &adjacency[node as usize] {
            if hops[peer as usize] == u32::MAX {
                hops[peer as usize] = next;
                frontier.push_back(peer);
            }
        }
    }
    hops.iter_mut().filter(|h| **h == u32::MAX).for_each(|h| *h = 0);
    hops
}

/// `core` kernels and `energy`, replayed on the sampled states: the
/// search with and without goal direction under CEAR's bandwidth price,
/// the unit-price lookup against `powf`, and the ledger's peek and commit.
fn kernels(bed: &Bed, samples: &[Sample], out: &mut Vec<Metric>) {
    let params = bed.scenario.cear;
    let mut prices = PriceCache::new(params.mu1(), params.mu2());
    let mut scratch = SearchScratch::new();
    let (mut reference_us, mut astar_us) = (Vec::new(), Vec::new());
    let (mut pops, mut relaxations) = (Vec::new(), Vec::new());
    for Sample { state, request } in samples {
        let slot = request.start;
        let rate = request.rate_at(slot);
        let snapshot = state.series().snapshot(slot);
        let floor = HOP_TIEBREAK * (1.0 + rate);
        let mut cost = |ctx: &EdgeContext<'_>| {
            if state.residual_mbps(slot, ctx.edge_id) + 1e-9 < rate {
                return None;
            }
            Some(floor + rate * prices.link_unit_price(state, slot, ctx.edge_id))
        };
        let (source, destination) = (request.source, request.destination);
        let hops = hop_bounds(snapshot, destination);
        let heuristic = HopBoundHeuristic { hops_lb: &hops, unit: floor * (1.0 - 1e-9) };
        // One counted call of each, which must agree; then timed repeats.
        let reference = min_cost_path_in(&mut scratch, snapshot, source, destination, &mut cost);
        scratch.take_stats();
        let directed =
            min_cost_path_with(&mut scratch, snapshot, source, destination, &heuristic, &mut cost);
        let stats = scratch.take_stats();
        assert_eq!(reference, directed, "the search kernels disagree on request {:?}", request.id);
        pops.push(stats.pops as f64);
        relaxations.push(stats.relaxations as f64);
        reference_us.push(
            median_secs(5, || {
                min_cost_path_in(&mut scratch, snapshot, source, destination, &mut cost)
            }) * 1e6,
        );
        astar_us.push(
            median_secs(5, || {
                min_cost_path_with(
                    &mut scratch,
                    snapshot,
                    source,
                    destination,
                    &heuristic,
                    &mut cost,
                )
            }) * 1e6,
        );
    }
    out.push(Metric::new("core.search_us", median(&astar_us), "us"));
    out.push(Metric::new("core.search_reference_us", median(&reference_us), "us"));
    out.push(Metric::new("core.search_pops_per_slot", median(&pops), "count"));
    out.push(Metric::new("core.search_relaxations_per_slot", median(&relaxations), "count"));

    let Sample { state, request } = samples.last().expect("the CEAR pass sampled a state");
    let slot = request.start;
    let edges = state.series().snapshot(slot).num_edges();
    let passes = (200_000 / edges.max(1)).max(2);
    let mut cache = PriceCache::new(params.mu1(), params.mu2());
    let mut sum = 0.0;
    for e in 0..edges {
        sum += cache.link_unit_price(state, slot, EdgeId(e as u32)); // fill
    }
    let started = Instant::now();
    for _ in 0..passes {
        for e in 0..edges {
            sum += cache.link_unit_price(state, slot, EdgeId(e as u32));
        }
    }
    let lookups = (passes * edges) as f64;
    out.push(Metric::new("core.price_lookup_ns", secs(started) * 1e9 / lookups, "ns"));
    let started = Instant::now();
    for _ in 0..passes {
        for e in 0..edges {
            sum += pricing::unit_price(params.mu1(), state.utilization(slot, EdgeId(e as u32)));
        }
    }
    out.push(Metric::new("core.price_powf_ns", secs(started) * 1e9 / lookups, "ns"));
    black_box(sum);

    // Energy: the deficit recursion for a middle satellite relaying the
    // sampled request, on every satellite of the state.
    let ledger = state.ledger();
    let t = slot.index();
    let joules = state.energy_params().consumption_j(
        SatelliteRole::Middle,
        request.rate_at(slot),
        state.slot_duration_s(),
    );
    let sats = ledger.num_satellites();
    let rounds = (20_000 / sats.max(1)).max(1);
    let started = Instant::now();
    for _ in 0..rounds {
        for sat in 0..sats {
            black_box(ledger.peek(sat, t, joules));
        }
    }
    out.push(Metric::new("energy.peek_ns", secs(started) * 1e9 / (rounds * sats) as f64, "ns"));
    let mut scratch_ledger = ledger.clone();
    let feasible: Vec<usize> = (0..sats).filter(|&s| ledger.peek(s, t, joules).is_some()).collect();
    let started = Instant::now();
    for &sat in &feasible {
        black_box(scratch_ledger.commit(sat, t, joules));
    }
    out.push(Metric::new(
        "energy.commit_ns",
        secs(started) * 1e9 / feasible.len().max(1) as f64,
        "ns",
    ));
}

/// `serve` and `sim::journal`: an unloaded closed loop with one client,
/// the run's own WAL records replayed into a memory journal, a file
/// journal and a checkpoint, then a miniature loaded open loop.
fn serve_layers(
    bed: &Bed,
    requests: &[Request],
    sizes: &Sizes,
    ack_limit_us: f64,
    dir: &Path,
    pieces: &mut Pieces,
    out: &mut Vec<Metric>,
) {
    let cfg = config(bed);

    // Unloaded: one client, one request in flight.
    let (journal, io) = memory_journal();
    let service = AdmissionService::start(fresh_state(bed), journal, cfg.clone(), None, 0)
        .expect("the default configuration starts");
    let (mut submit_ns, mut ack_us) = (Vec::new(), Vec::new());
    for request in requests {
        let started = Instant::now();
        let ticket = service.submit(request.clone()).expect("the service accepts submissions");
        submit_ns.push(started.elapsed().as_nanos() as f64);
        ticket.wait().expect("the service answers");
        ack_us.push(secs(started) * 1e6);
    }
    let report = service.drain();
    let unloaded_us = median(&ack_us);
    out.push(Metric::new("serve.ack_unloaded_us", unloaded_us, "us"));

    // The WAL it wrote, fed back record by record.
    let wal_bytes = io.durable_bytes();
    let records = journal::scan_bytes(&wal_bytes).records;
    let decisions = records.len().saturating_sub(1).max(1) as f64;
    out.push(Metric::new("serve.wal_bytes_per_decision", wal_bytes.len() as f64 / decisions, "B"));
    let (mut sink, _) = memory_journal();
    let append_us: Vec<f64> = records
        .iter()
        .map(|record| {
            let started = Instant::now();
            sink.append(record).expect("memory journal appends");
            secs(started) * 1e6
        })
        .collect();
    pieces.journal_append_us = median(&append_us);
    out.push(Metric::new("sim.journal_append_us", pieces.journal_append_us, "us"));
    let path = dir.join("probe-wal.bin");
    let mut file = Journal::create(&path).expect("the probe's WAL file can be created");
    let fsync_us: Vec<f64> = records
        .iter()
        .cycle()
        .take(sizes.fsync_appends)
        .map(|record: &JournalRecord| {
            let started = Instant::now();
            file.append(record).expect("file journal appends");
            secs(started) * 1e6
        })
        .collect();
    out.push(Metric::new("sim.journal_fsync_us", median(&fsync_us), "us"));
    out.push(Metric::new("sim.journal_fsync_tail_us", tail(&fsync_us).value, "us"));
    let mut payload_len = 0usize;
    let checkpoint_s = median_secs(3, || {
        let payload = wal::encode_checkpoint_payload(records.len() as u64, &report.state);
        payload_len = payload.len();
        checkpoint::write(dir, 1, cfg.digest, file.len(), &payload).expect("checkpoint writes")
    });
    out.push(Metric::new("sim.checkpoint_write_ms", checkpoint_s * 1e3, "ms"));
    out.push(Metric::new("sim.checkpoint_bytes", payload_len as f64, "B"));
    let started = Instant::now();
    wal::replay(fresh_state(bed), 0, &records, cfg.digest).expect("own WAL replays");
    out.push(Metric::new("serve.replay_us_per_decision", secs(started) * 1e6 / decisions, "us"));

    // What the ack costs beyond the work the layers account for.
    let accounted = pieces.quote_recording_us
        + pieces.readset_check_ns / 1e3
        + pieces.commit_us
        + pieces.journal_append_us;
    out.push(Metric::new("serve.handoff_us", unloaded_us - accounted, "us"));

    // A miniature loaded leg: 0.6 of the unloaded service rate (a traced
    // `serve_open` run replaces it with the real one).
    let rate = 0.6 * 1e6 / (ack_us.iter().sum::<f64>() / ack_us.len() as f64);
    let due_ns = poisson_schedule(bed.seed, rate, requests.len());
    let (journal, _) = memory_journal();
    let service = AdmissionService::start(fresh_state(bed), journal, cfg, None, 0)
        .expect("the default configuration starts");
    let (_, sent) = openloop::run(&service, requests, &due_ns, None);
    let stats = service.drain().stats;
    out.extend(generator_metrics(&sent));
    out.extend(loaded_metrics(&sent, &stats, ack_limit_us));
    out.iter_mut()
        .filter(|m| m.name == "serve.submit_ns")
        .for_each(|m| m.value = median(&submit_ns));
}

/// `RunMetrics` equality up to the wall clock.
fn same_results(a: &[RunMetrics], b: &[RunMetrics]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            let mut y = y.clone();
            y.processing_ms = x.processing_ms;
            *x == y
        })
}

/// The two-thread points. Nothing end to end uses a second thread yet;
/// these are the evidence for keeping or deleting speculation,
/// `build_par`, `--jobs` and series shipping.
fn parallel_points(
    bed: &Bed,
    requests: &[Request],
    samples: &[Sample],
    sizes: &Sizes,
    dir: &Path,
    fleet_worker: Option<&Path>,
    out: &mut Vec<Metric>,
) {
    let scenario = &bed.scenario;

    // Speculative slot-parallel quoting, on the multi-slot requests.
    let state = &samples[0].state;
    let multi: Vec<&Request> = requests.iter().filter(|r| r.duration_slots() > 1).collect();
    let quote_all = |cear: &Cear| {
        median_secs(3, || {
            multi.iter().map(|r| cear.quote(r, state).is_ok()).filter(|ok| *ok).count()
        })
    };
    let serial = Cear::new(scenario.cear).with_quote_threads(1);
    let parallel = Cear::new(scenario.cear).with_quote_threads(2);
    let (serial_s, parallel_s) = (quote_all(&serial), quote_all(&parallel));
    out.push(Metric::new("core.parquote_speedup", serial_s / parallel_s, "ratio"));
    let stats = parallel.quote_stats();
    out.push(Metric::new(
        "core.parquote_validated_frac",
        stats.validated_slots as f64 / stats.speculated_slots.max(1) as f64,
        "ratio",
    ));

    // Snapshot builds on two threads.
    let build = ScenarioConfig { horizon_slots: sizes.topo_slots, ..scenario.clone() };
    let one_s = median_secs(3, || engine::prepare_with(&build, bed.seed, 1));
    let two_s = median_secs(3, || engine::prepare_with(&build, bed.seed, 2));
    out.push(Metric::new("topology.build_par2_speedup", one_s / two_s, "ratio"));

    // The CEAR and SSP cells of a short horizon: in-process on one and two
    // threads, then across worker processes.
    let short = ScenarioConfig { horizon_slots: sizes.par_slots, ..scenario.clone() };
    let cells: Vec<SweepCell> = [AlgorithmKind::Cear(short.cear), AlgorithmKind::Ssp]
        .into_iter()
        .map(|kind| SweepCell {
            label: format!("probe-{}", kind.name()),
            scenario: short.clone(),
            kind,
            seed: bed.seed,
        })
        .collect();
    let in_process = |jobs: usize| {
        let cache = PreparedCache::new(1);
        let started = Instant::now();
        let metrics = sb_bench::run_cells(jobs, &cells, |_, c| {
            let prepared = cache.get(&c.scenario, c.seed);
            let requests = engine::workload(&c.scenario, &prepared, c.seed);
            let exec = ExecOptions::default();
            engine::run_prepared_exec(&c.scenario, &prepared, &requests, &c.kind, c.seed, &exec)
        });
        (secs(started), metrics)
    };
    let (jobs1_s, reference) = in_process(1);
    let (jobs2_s, threaded) = in_process(2);
    assert!(same_results(&reference, &threaded), "--jobs 2 changed the results");
    out.push(Metric::new("sim.sweep_jobs2_speedup", jobs1_s / jobs2_s, "ratio"));

    let Some(worker) = fleet_worker else {
        eprintln!("probe: no fleet worker binary given; the fleet point is skipped");
        return;
    };
    // `run_fleet` degrades to in-process execution when it cannot spawn
    // its workers, which would report threads as processes.
    assert!(worker.is_file(), "fleet worker binary {} is missing", worker.display());
    let fleet = |workers: usize| {
        let results = dir.join(format!("fleet-{workers}"));
        let mut options = FleetOptions::new(workers, &results);
        options.worker_bin = Some(worker.to_path_buf());
        let started = Instant::now();
        let outcome = sb_fleet::run_fleet(&cells, &options).expect("the fleet completes");
        let wall = secs(started);
        match outcome {
            FleetOutcome::Completed(metrics) => {
                assert!(same_results(&reference, &metrics), "the fleet changed the results");
            }
            FleetOutcome::Halted { .. } => panic!("no chaos was scripted, yet the fleet halted"),
        }
        wall
    };
    let fleet2_s = fleet(2);
    let fleet1_s = fleet(1);
    out.push(Metric::new("fleet.cells_per_s", cells.len() as f64 / fleet2_s, "1/s"));
    out.push(Metric::new("fleet.overhead_frac", (fleet1_s - jobs1_s) / fleet1_s, "ratio"));
}

/// The fleet worker the benchmark binary must find next to itself.
pub fn fleet_worker_beside_exe() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    Some(exe.parent()?.join("sb-fleet-worker"))
}

/// Runs the whole probe on `bed`.
pub fn run(bed: &Bed, options: &Options) -> Vec<Metric> {
    let sizes = Sizes::of(options);
    let dir = options.dir.join(format!("probe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("the probe's scratch directory can be created");
    let requests = &bed.requests[..sizes.requests.min(bed.requests.len())];
    assert!(!requests.is_empty(), "the bed generated no requests to probe with");
    let mut out = Vec::new();
    let mut pieces = Pieces::default();
    let started = Instant::now();
    topology_layers(bed, &sizes, &mut out);
    sim_layers(bed, requests, &mut out);
    let samples = core_per_request(bed, requests, &sizes, &mut pieces, &mut out);
    kernels(bed, &samples, &mut out);
    let limit = ack_limit_us(options.workload);
    serve_layers(bed, requests, &sizes, limit, &dir, &mut pieces, &mut out);
    let worker = options.fleet_worker.as_deref();
    parallel_points(bed, requests, &samples, &sizes, &dir, worker, &mut out);
    let _ = std::fs::remove_dir_all(&dir);
    out.push(Metric::new("probe.wall_s", secs(started), "s"));
    out
}
