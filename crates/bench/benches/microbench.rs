//! Criterion micro-benchmarks for the performance-critical kernels:
//! snapshot construction, the pricing search, energy-ledger recursion and
//! an end-to-end tiny simulation.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sb_cear::{Cear, CearParams, Decision, NetworkState, RoutingAlgorithm};
use sb_demand::{RateProfile, Request, RequestId};
use sb_energy::{EnergyLedger, EnergyParams};
use sb_geo::coords::Geodetic;
use sb_geo::Epoch;
use sb_orbit::walker::WalkerConstellation;
use sb_sim::engine::{self, AlgorithmKind};
use sb_sim::ScenarioConfig;
use sb_topology::graph::EdgeId;
use sb_topology::series::build_snapshot;
use sb_topology::{NetworkNodes, NodeId, SlotIndex, TopologyConfig, TopologySeries};

fn network() -> (NetworkState, sb_topology::NodeId, sb_topology::NodeId) {
    let shell = WalkerConstellation::delta(16, 16, 5, 550e3, 53f64.to_radians());
    let mut nodes = NetworkNodes::from_walker(&shell);
    let a = nodes.add_ground_site(Geodetic::from_degrees(35.8, -78.6, 0.0));
    let b = nodes.add_ground_site(Geodetic::from_degrees(48.9, 2.3, 0.0));
    let cfg = TopologyConfig { min_elevation_rad: 15f64.to_radians(), ..TopologyConfig::default() };
    let series = TopologySeries::build(&nodes, &cfg, 10, 60.0);
    (NetworkState::new(series, &EnergyParams::default()), a, b)
}

fn bench_snapshot_build(c: &mut Criterion) {
    let shell = WalkerConstellation::starlink_shell1();
    let mut nodes = NetworkNodes::from_walker(&shell);
    nodes.add_ground_site(Geodetic::from_degrees(35.8, -78.6, 0.0));
    nodes.add_ground_site(Geodetic::from_degrees(48.9, 2.3, 0.0));
    let cfg = TopologyConfig::default();
    c.bench_function("snapshot_build_1584sats", |b| {
        b.iter(|| build_snapshot(&nodes, &cfg, SlotIndex(0), Epoch::from_seconds(0.0)))
    });
}

fn bench_series_build(c: &mut Criterion) {
    // The full horizon build, serially and fanned across the host's
    // cores — the two are bit-identical, so this measures exactly what
    // `--build-threads` buys on a 256-sat shell.
    let shell = WalkerConstellation::delta(16, 16, 5, 550e3, 53f64.to_radians());
    let mut nodes = NetworkNodes::from_walker(&shell);
    nodes.add_ground_site(Geodetic::from_degrees(35.8, -78.6, 0.0));
    nodes.add_ground_site(Geodetic::from_degrees(48.9, 2.3, 0.0));
    let cfg = TopologyConfig::default();
    c.bench_function("series_build_serial_24slots_256sats", |b| {
        b.iter(|| TopologySeries::build(&nodes, &cfg, 24, 60.0))
    });
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    c.bench_function("series_build_parallel_24slots_256sats", |b| {
        b.iter(|| TopologySeries::build_par(&nodes, &cfg, 24, 60.0, threads))
    });
}

fn bench_cear_decision(c: &mut Criterion) {
    let (state, src, dst) = network();
    let request = Request {
        id: RequestId(0),
        source: src,
        destination: dst,
        rate: RateProfile::Constant(1250.0),
        start: SlotIndex(0),
        end: SlotIndex(4),
        valuation: 2.3e9,
    };
    c.bench_function("cear_process_5slot_request_256sats", |b| {
        b.iter_batched(
            || (state.clone(), Cear::new(CearParams::default())),
            |(mut st, mut cear)| {
                let d = cear.process(&request, &mut st);
                assert!(matches!(d, Decision::Accepted { .. } | Decision::Rejected { .. }));
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_energy_recursion(c: &mut Criterion) {
    let params = EnergyParams::default();
    // One satellite, 384 slots alternating a 60/36 sunlit/umbra cycle.
    let profile: Vec<bool> = (0..384).map(|t| t % 96 < 60).collect();
    let ledger = EnergyLedger::new(&params, 60.0, &[profile]);
    c.bench_function("ledger_peek_deep_deficit", |b| b.iter(|| ledger.peek(0, 60, 50_000.0)));
    c.bench_function("ledger_commit_deep_deficit", |b| {
        b.iter_batched(|| ledger.clone(), |mut l| l.commit(0, 60, 50_000.0), BatchSize::SmallInput)
    });
}

fn bench_tiny_end_to_end(c: &mut Criterion) {
    let scenario = ScenarioConfig::tiny();
    let prepared = engine::prepare(&scenario, 0);
    let requests = engine::workload(&scenario, &prepared, 0);
    c.bench_function("end_to_end_tiny_cear", |b| {
        b.iter(|| {
            engine::run_prepared(
                &scenario,
                &prepared,
                &requests,
                &AlgorithmKind::Cear(CearParams::default()),
                0,
            )
        })
    });
}

fn bench_ground_grid(c: &mut Criterion) {
    c.bench_function("ground_grid_generate_sub3", |b| {
        b.iter(|| sb_topology::ground::GroundGrid::generate(3, 400))
    });
}

fn bench_tle_parse(c: &mut Criterion) {
    let l1 = "1 25544U 98067A   24001.50000000  .00016717  00000-0  10270-3 0  9009";
    let l2 = "2 25544  51.6400 208.9163 0006317  69.9862 290.2553 15.49560532    00";
    c.bench_function("tle_parse", |b| b.iter(|| sb_orbit::tle::Tle::parse("ISS", l1, l2).unwrap()));
}

fn bench_coverage(c: &mut Criterion) {
    let shell = WalkerConstellation::delta(16, 16, 5, 550e3, 53f64.to_radians());
    let constellation = sb_orbit::Constellation::from_walker(&shell);
    c.bench_function("global_coverage_256sats", |b| {
        b.iter(|| {
            sb_topology::coverage::global_coverage(
                &constellation,
                Epoch::from_seconds(0.0),
                25f64.to_radians(),
            )
        })
    });
}

fn bench_failure_injection(c: &mut Criterion) {
    let (state, _, _) = network();
    let snap = state.series().snapshot(SlotIndex(0)).clone();
    let model = sb_topology::failures::LinkFailureModel::new(0.05, 7);
    c.bench_function("failure_apply_256sats", |b| b.iter(|| model.apply(&snap)));
}

fn bench_search_arena(c: &mut Criterion) {
    use sb_cear::search::{min_cost_path, min_cost_path_in};
    let (state, src, dst) = network();
    let snap = state.series().snapshot(SlotIndex(0));
    let weight = |ctx: &sb_cear::search::EdgeContext<'_>| Some(1.0 + ctx.edge.length_m * 1e-9);
    c.bench_function("search_fresh_alloc_256sats", |b| {
        b.iter(|| min_cost_path(snap, src, dst, weight))
    });
    let mut scratch = sb_cear::SearchScratch::new();
    c.bench_function("search_arena_reuse_256sats", |b| {
        b.iter(|| min_cost_path_in(&mut scratch, snap, src, dst, weight))
    });
}

fn bench_search_kernels(c: &mut Criterion) {
    // The kernel's two instantiations on one 256-sat snapshot: Dijkstra,
    // which every algorithm runs, and the `Heuristic` seam under exact BFS
    // hop counts — its best case, not anything the product computes.
    // Weight ≥ 1 per edge, so BFS hop counts × 0.999 are an admissible,
    // consistent heuristic.
    use sb_cear::search::{min_cost_path_in, min_cost_path_with, HopBoundHeuristic};
    let (state, src, dst) = network();
    let snap = state.series().snapshot(SlotIndex(0));
    let weight = |ctx: &sb_cear::search::EdgeContext<'_>| Some(1.0 + ctx.edge.length_m * 1e-9);
    let mut scratch = sb_cear::SearchScratch::new();
    c.bench_function("search_kernel_dijkstra_256sats", |b| {
        b.iter(|| min_cost_path_in(&mut scratch, snap, src, dst, weight))
    });
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); snap.num_nodes()];
    for edge in snap.edges() {
        adj[edge.src.index()].push(edge.dst.index());
        adj[edge.dst.index()].push(edge.src.index());
    }
    let mut hops = vec![u32::MAX; snap.num_nodes()];
    let mut queue = std::collections::VecDeque::from([dst.index()]);
    hops[dst.index()] = 0;
    while let Some(u) = queue.pop_front() {
        for &v in &adj[u] {
            if hops[v] == u32::MAX {
                hops[v] = hops[u] + 1;
                queue.push_back(v);
            }
        }
    }
    hops.iter_mut().for_each(|h| {
        if *h == u32::MAX {
            *h = 0;
        }
    });
    let heuristic = HopBoundHeuristic { hops_lb: &hops, unit: 0.999 };
    c.bench_function("search_kernel_astar_256sats", |b| {
        b.iter(|| min_cost_path_with(&mut scratch, snap, src, dst, &heuristic, weight))
    });
}

fn bench_price_cache(c: &mut Criterion) {
    use sb_cear::pricing;
    let (state, _, _) = network();
    let params = CearParams::default();
    let slot = SlotIndex(0);
    let n_edges = state.series().snapshot(slot).num_edges();
    c.bench_function("unit_price_powf_all_edges", |b| {
        b.iter(|| {
            (0..n_edges)
                .map(|e| {
                    let id = sb_topology::graph::EdgeId(e as u32);
                    pricing::unit_price(params.mu1(), state.utilization(slot, id))
                })
                .sum::<f64>()
        })
    });
    let mut cache = sb_cear::PriceCache::new(params.mu1(), params.mu2());
    c.bench_function("unit_price_cached_all_edges", |b| {
        b.iter(|| {
            (0..n_edges)
                .map(|e| cache.link_unit_price(&state, slot, sb_topology::graph::EdgeId(e as u32)))
                .sum::<f64>()
        })
    });
}

fn bench_single_slot_admission(c: &mut Criterion) {
    let (state, src, dst) = network();
    let request = Request {
        id: RequestId(0),
        source: src,
        destination: dst,
        rate: RateProfile::Constant(1250.0),
        start: SlotIndex(0),
        end: SlotIndex(0),
        valuation: 2.3e9,
    };
    c.bench_function("admission_1slot_reference", |b| {
        b.iter_batched(
            || (state.clone(), Cear::reference(CearParams::default())),
            |(mut st, mut cear)| {
                let d = cear.process(&request, &mut st);
                assert!(matches!(d, Decision::Accepted { .. } | Decision::Rejected { .. }));
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("admission_1slot_cached", |b| {
        b.iter_batched(
            || (state.clone(), Cear::new(CearParams::default())),
            |(mut st, mut cear)| {
                let d = cear.process(&request, &mut st);
                assert!(matches!(d, Decision::Accepted { .. } | Decision::Rejected { .. }));
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_snapshot_lookup(c: &mut Criterion) {
    // Every accessor the admission path addresses a snapshot through, one
    // pass over the whole slot, split (production) against dense layout:
    // a layout change that makes one of them slower shows here before it
    // shows as a slower decision.
    let mut group = c.benchmark_group("snapshot_lookup");
    for scenario in [ScenarioConfig::paper(), ScenarioConfig::mega()] {
        let scenario = ScenarioConfig { horizon_slots: 2, ..scenario };
        let prepared = engine::prepare(&scenario, 0);
        let split = prepared.series.snapshot(SlotIndex(1)).clone();
        assert!(split.is_split(), "the production layout is the split one");
        let dense = sb_bench::dense_twin(&split);
        for (layout, snap) in [("split", &split), ("dense", &dense)] {
            let ids = 0..snap.num_edges() as u32;
            let nodes = 0..snap.num_nodes() as u32;
            let name = &scenario.name;
            group.bench_function(format!("edge/{layout}/{name}"), |b| {
                b.iter(|| ids.clone().map(|e| snap.edge(EdgeId(e)).length_m).sum::<f64>())
            });
            group.bench_function(format!("capacity_mbps/{layout}/{name}"), |b| {
                b.iter(|| ids.clone().map(|e| snap.capacity_mbps(EdgeId(e))).sum::<f64>())
            });
            group.bench_function(format!("out_edges/{layout}/{name}"), |b| {
                b.iter(|| {
                    nodes
                        .clone()
                        .flat_map(|v| snap.out_edges(NodeId(v)))
                        .map(|(_, edge)| edge.capacity_mbps)
                        .sum::<f64>()
                })
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_snapshot_build, bench_series_build, bench_cear_decision, bench_energy_recursion,
              bench_tiny_end_to_end, bench_ground_grid, bench_tle_parse,
              bench_coverage, bench_failure_injection, bench_search_arena,
              bench_search_kernels, bench_price_cache, bench_single_slot_admission, bench_snapshot_lookup
}
criterion_main!(benches);
