//! The contract of the search kernel's `Heuristic` seam at the raw
//! `FoundPath` level, and of CEAR's caches at the decision level.
//!
//! Kernel: any admissible heuristic returns the *same bits* as the
//! `ZeroHeuristic` instantiation (Dijkstra, the one every algorithm runs) —
//! same node sequence, same edge ids, same cost bit pattern. Exact BFS hop
//! counts stand in for "any admissible heuristic".
//!
//! Decisions: the cached `Cear::new` makes the decisions of the oracle
//! `Cear::reference` (fresh memory, direct `powf`) bit for bit at every
//! state epoch, including after commits and a mid-stream release.
//!
//! Seeded drivers pin a handful of Walker geometries; `proptest` wrappers
//! walk the same checks over randomly drawn shells, sites and rates.

use proptest::prelude::*;
use sb_cear::search::{
    min_cost_path_in, min_cost_path_with, EdgeContext, FoundPath, HopBoundHeuristic, SearchScratch,
};
use sb_cear::{Cear, CearParams, Decision, NetworkState, RoutingAlgorithm};
use sb_demand::{RateProfile, Request, RequestId};
use sb_energy::EnergyParams;
use sb_geo::coords::Geodetic;
use sb_orbit::walker::WalkerConstellation;
use sb_topology::{NetworkNodes, NodeId, SlotIndex, TopologyConfig, TopologySeries};
use std::sync::Arc;

/// A Walker shell with ground users at `sites`, `slots` one-minute slots.
fn build_series(
    planes: usize,
    sats_per_plane: usize,
    phasing: usize,
    slots: usize,
    sites: &[(f64, f64)],
) -> (Arc<TopologySeries>, Vec<NodeId>) {
    let shell =
        WalkerConstellation::delta(planes, sats_per_plane, phasing, 550e3, 53f64.to_radians());
    let mut nodes = NetworkNodes::from_walker(&shell);
    let users: Vec<NodeId> = sites
        .iter()
        .map(|&(lat, lon)| nodes.add_ground_site(Geodetic::from_degrees(lat, lon, 0.0)))
        .collect();
    // Small shells need a generous elevation mask for continuous coverage.
    let cfg = TopologyConfig { min_elevation_rad: 10f64.to_radians(), ..TopologyConfig::default() };
    (Arc::new(TopologySeries::build(&nodes, &cfg, slots, 60.0)), users)
}

fn request(id: u32, src: NodeId, dst: NodeId, rate: f64, start: u32, end: u32) -> Request {
    Request {
        id: RequestId(id),
        source: src,
        destination: dst,
        rate: RateProfile::Constant(rate),
        start: SlotIndex(start),
        end: SlotIndex(end),
        valuation: 2.3e9,
    }
}

/// Asserts two optional paths are the same bits (cost compared by bit
/// pattern, not float equality).
fn assert_same_path(a: &Option<FoundPath>, b: &Option<FoundPath>, what: &str) {
    match (a, b) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            assert_eq!(x.nodes, y.nodes, "{what}: node sequences differ");
            assert_eq!(x.edges, y.edges, "{what}: edge sequences differ");
            assert_eq!(
                x.cost.to_bits(),
                y.cost.to_bits(),
                "{what}: costs differ ({} vs {})",
                x.cost,
                y.cost
            );
        }
        _ => panic!("{what}: one kernel found a path, the other did not"),
    }
}

/// Undirected BFS hop counts from `goal` — an admissible, consistent
/// per-node lower bound for any weight function with per-edge cost ≥ 1.
fn bfs_hops(series: &TopologySeries, slot: SlotIndex, goal: NodeId) -> Vec<u32> {
    let snap = series.snapshot(slot);
    let n = snap.num_nodes();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for edge in snap.edges() {
        adj[edge.src.index()].push(edge.dst.index());
        adj[edge.dst.index()].push(edge.src.index());
    }
    let mut hops = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    hops[goal.index()] = 0;
    queue.push_back(goal.index());
    while let Some(u) = queue.pop_front() {
        for &v in &adj[u] {
            if hops[v] == u32::MAX {
                hops[v] = hops[u] + 1;
                queue.push_back(v);
            }
        }
    }
    // Unreachable nodes get a zero bound (trivially admissible).
    for h in &mut hops {
        if *h == u32::MAX {
            *h = 0;
        }
    }
    hops
}

/// Raw-kernel check: reference Dijkstra vs A\*, every slot, both
/// directions of the site pair, under a static length weight.
/// Returns how many lookups found a path, so seeded callers can reject a
/// vacuous all-unreachable run (random shells may legitimately lack
/// coverage, so the property wrappers ignore it).
fn check_kernels(
    planes: usize,
    sats_per_plane: usize,
    phasing: usize,
    sites: &[(f64, f64)],
) -> usize {
    let slots = 3;
    let (series, users) = build_series(planes, sats_per_plane, phasing, slots, sites);
    let mut scratch = SearchScratch::new();
    let mut found = 0usize;
    let weight = |ctx: &EdgeContext<'_>| Some(1.0 + ctx.edge.length_m * 1e-9);
    for s in 0..slots {
        let slot = SlotIndex(s as u32);
        let snap = series.snapshot(slot);
        for (&src, &dst) in users.iter().zip(users.iter().rev()) {
            if src == dst {
                continue;
            }
            let reference = min_cost_path_in(&mut scratch, snap, src, dst, weight);
            let hops = bfs_hops(&series, slot, dst);
            let heuristic = HopBoundHeuristic { hops_lb: &hops, unit: 0.999 };
            let astar = min_cost_path_with(&mut scratch, snap, src, dst, &heuristic, weight);
            let what = format!("{planes}x{sats_per_plane} slot {s} {src:?}->{dst:?}");
            assert_same_path(&reference, &astar, &what);
            found += reference.is_some() as usize;
        }
    }
    found
}

/// Decision-stream check: the cached CEAR against the oracle, over a
/// workload that commits and releases between lookups so the price caches
/// cross several state epochs.
fn check_decisions(planes: usize, sats_per_plane: usize, phasing: usize, rate: f64) -> usize {
    let slots = 6;
    let sites = [(35.8, -78.6), (48.9, 2.3), (-33.9, 151.2)];
    let (series, users) = build_series(planes, sats_per_plane, phasing, slots, &sites);
    let energy = EnergyParams::default();
    let mut requests = Vec::new();
    for start in 0..slots as u32 - 1 {
        for (i, &src) in users.iter().enumerate() {
            let dst = users[(i + 1) % users.len()];
            let end = (start + 2).min(slots as u32 - 1);
            let id = requests.len() as u32;
            requests.push(request(id, src, dst, rate * (1.0 + 0.1 * i as f64), start, end));
        }
    }
    let mut state_ref = NetworkState::new(Arc::clone(&series), &energy);
    let mut state_cached = NetworkState::new(Arc::clone(&series), &energy);
    let mut oracle = Cear::reference(CearParams::default());
    let mut cached = Cear::new(CearParams::default());
    let mut accepted = 0usize;
    for (step, req) in requests.iter().enumerate() {
        let d_ref = oracle.process(req, &mut state_ref);
        let d_cached = cached.process(req, &mut state_cached);
        assert_decisions_match(&d_ref, &d_cached, &format!("CEAR step {step}"));
        accepted += matches!(d_ref, Decision::Accepted { .. }) as usize;
        // Mid-stream release: perturb both states identically so the
        // next lookups run against a post-release epoch.
        if step == 4 {
            if let (Some(a), Some(b)) = (state_ref.last_booking(), state_cached.last_booking()) {
                state_ref.release_from(a, SlotIndex(1));
                state_cached.release_from(b, SlotIndex(1));
            }
        }
    }
    accepted
}

fn assert_decisions_match(a: &Decision, b: &Decision, what: &str) {
    match (a, b) {
        (
            Decision::Accepted { plan: pa, price: qa },
            Decision::Accepted { plan: pb, price: qb },
        ) => {
            assert_eq!(qa.to_bits(), qb.to_bits(), "{what}: prices differ ({qa} vs {qb})");
            assert_eq!(pa.total_cost.to_bits(), pb.total_cost.to_bits(), "{what}: plan costs");
            assert_eq!(pa.slot_paths.len(), pb.slot_paths.len(), "{what}: slot counts");
            for (sa, sb) in pa.slot_paths.iter().zip(&pb.slot_paths) {
                assert_eq!(sa.slot, sb.slot, "{what}");
                assert_eq!(sa.nodes, sb.nodes, "{what}: slot {:?} nodes", sa.slot);
                assert_eq!(sa.edges, sb.edges, "{what}: slot {:?} edges", sa.slot);
            }
        }
        (Decision::Rejected { reason: ra }, Decision::Rejected { reason: rb }) => {
            assert_eq!(ra, rb, "{what}: rejection reasons differ");
        }
        _ => panic!("{what}: decisions diverge: {a:?} vs {b:?}"),
    }
}

#[test]
fn kernels_agree_on_seeded_walker_shells() {
    let found = check_kernels(8, 8, 1, &[(35.8, -78.6), (48.9, 2.3)])
        + check_kernels(10, 10, 3, &[(-33.9, 151.2), (51.5, -0.1), (1.3, 103.8)])
        + check_kernels(12, 12, 5, &[(40.7, -74.0), (35.7, 139.7)]);
    assert!(found > 0, "seeded shells must exercise at least one reachable pair");
}

#[test]
fn decisions_agree_on_seeded_walker_shells() {
    let accepted = check_decisions(10, 10, 2, 25.0) + check_decisions(12, 12, 3, 60.0);
    assert!(accepted > 0, "seeded workloads must admit at least one request");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random shells and site pairs: the two kernels return the same
    /// bits for every slot and direction.
    #[test]
    fn prop_kernels_agree(
        planes in 6usize..10,
        sats_per_plane in 6usize..10,
        phasing in 0usize..3,
        lat_a in -55.0..55.0f64,
        lon_a in -180.0..180.0f64,
        lat_b in -55.0..55.0f64,
        lon_b in -180.0..180.0f64,
    ) {
        check_kernels(planes, sats_per_plane, phasing, &[(lat_a, lon_a), (lat_b, lon_b)]);
    }

    /// Random shells and rates: the cached CEAR's decision stream is the
    /// oracle's, across commit and release epochs.
    #[test]
    fn prop_decisions_agree(
        planes in 8usize..11,
        sats_per_plane in 8usize..11,
        phasing in 0usize..3,
        rate in 5.0..80.0f64,
    ) {
        check_decisions(planes, sats_per_plane, phasing, rate);
    }
}
