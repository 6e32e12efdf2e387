//! Per-slot minimum-cost path search.
//!
//! Algorithm 1 line 5 needs, for each active slot, the cheapest path from
//! the request's source user to its destination user under the current
//! prices. The subtlety is that a satellite's energy price depends on its
//! *role* (Eq. 1) — ingress gateway, middle relay, egress gateway or
//! bent-pipe — which is determined by the link types immediately before and
//! after it on the path. We therefore run Dijkstra over **states**
//! `(node, incoming-link-type)`: when relaxing an edge `(a → b)` the link
//! type by which `a` was reached plus the edge's own type fully determine
//! `a`'s role, so the edge's weight can include `a`'s exact energy cost.
//!
//! Path-shape rules enforced by the search:
//!
//! * user nodes never appear in the middle of a path (edges *into* a user
//!   are only relaxed when that user is the destination, and only the
//!   source's out-edges are expanded among user nodes);
//! * the cost callback may prune any edge (return `None`) to express
//!   feasibility constraints (insufficient residual bandwidth, battery
//!   over-draw, link pruning à la ERU).

use sb_topology::graph::{Edge, EdgeId};
use sb_topology::{LinkType, NodeId, SlotIndex, TopologySnapshot};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Everything a cost model gets to see when an edge is relaxed.
#[derive(Debug)]
pub struct EdgeContext<'a> {
    /// The slot being routed.
    pub slot: SlotIndex,
    /// The edge's id in the slot's snapshot.
    pub edge_id: EdgeId,
    /// The edge itself.
    pub edge: &'a Edge,
    /// How the edge's source node was reached: `None` when the source node
    /// is the request's source user, otherwise the incoming link type.
    pub incoming: Option<LinkType>,
}

/// A found path with its cost.
#[derive(Debug, Clone, PartialEq)]
pub struct FoundPath {
    /// Nodes from source user to destination user.
    pub nodes: Vec<NodeId>,
    /// Edges, one fewer than nodes.
    pub edges: Vec<EdgeId>,
    /// Sum of edge costs as returned by the cost model.
    pub cost: f64,
}

/// A lower bound on the remaining cost from a node to the search's
/// destination, used to goal-direct the search (A\*).
///
/// The search orders its heap on `(f, g)` where `f = g + estimate(node)`.
/// With [`ZeroHeuristic`] (`f == g` bit-for-bit) the search is plain
/// Dijkstra — the reference everything else is proven against. Any other
/// implementation must be *admissible in floating-point terms*: for every
/// node, `estimate(node)` must be `<=` the float-arithmetic cost of every
/// feasible path from that node to the destination. Tie-breaking is
/// canonical (see [`min_cost_path_with`]), so any admissible heuristic
/// returns a [`FoundPath`] bit-identical to the reference.
pub trait Heuristic {
    /// Lower bound on the remaining cost from `node` to the destination.
    fn estimate(&self, node: NodeId) -> f64;

    /// The heap key for a settled cost `g` at `node`.
    ///
    /// Default is `g + estimate(node)`; [`ZeroHeuristic`] overrides it to
    /// return `g` unchanged so the reference path never perturbs cost bits
    /// (not even `-0.0 + 0.0`).
    #[inline]
    fn fscore(&self, g: f64, node: NodeId) -> f64 {
        g + self.estimate(node)
    }
}

/// The trivial heuristic: `f == g`, i.e. plain Dijkstra.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZeroHeuristic;

impl Heuristic for ZeroHeuristic {
    #[inline]
    fn estimate(&self, _node: NodeId) -> f64 {
        0.0
    }

    #[inline]
    fn fscore(&self, g: f64, _node: NodeId) -> f64 {
        g
    }
}

/// Geometry-derived heuristic: a per-node lower bound on the remaining
/// *hop count* (straight-line distance to the destination divided by the
/// slot's maximum per-hop reach, rounded up with a relative slack so float
/// noise can never make it inadmissible) times `unit`, a lower bound on
/// the cost of any single hop under the active cost model.
#[derive(Debug, Clone, Copy)]
pub struct HopBoundHeuristic<'a> {
    /// `hops_lb[node.index()]` = lower bound on hops from node to dest.
    pub hops_lb: &'a [u32],
    /// Lower bound on any single edge's cost (already slack-scaled).
    pub unit: f64,
}

impl Heuristic for HopBoundHeuristic<'_> {
    #[inline]
    fn estimate(&self, node: NodeId) -> f64 {
        self.hops_lb[node.index()] as f64 * self.unit
    }
}

/// Per-search work counters, accumulated in [`SearchScratch`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Heap entries popped.
    pub pops: u64,
    /// Popped entries discarded because a cheaper cost was already settled.
    pub stale_skips: u64,
    /// Cost-model evaluations that returned a cost (relaxation attempts).
    pub relaxations: u64,
    /// Heap entries abandoned unexpanded when the goal bound cut the
    /// search off — the work the heuristic avoided.
    pub heuristic_prunes: u64,
}

impl SearchStats {
    /// Field-wise sum.
    pub fn merge(&mut self, other: &SearchStats) {
        self.pops += other.pops;
        self.stale_skips += other.stale_skips;
        self.relaxations += other.relaxations;
        self.heuristic_prunes += other.heuristic_prunes;
    }
}

/// Min-heap entry ordered on `(f asc, g desc)` via `total_cmp`.
///
/// With [`ZeroHeuristic`] `f == g` bitwise, so the `g` tiebreak compares
/// `Equal` and the ordering degenerates to the historical cost-only order.
#[derive(Debug, Clone, PartialEq)]
struct HeapEntry {
    f: f64,
    g: f64,
    state: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed on f: BinaryHeap is a max-heap, we want the smallest f
        // first; on equal f prefer the larger g (closer to the goal).
        other.f.total_cmp(&self.f).then_with(|| self.g.total_cmp(&other.g))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// State encoding: `2·node + (incoming == Usl ? 1 : 0)`.
#[inline]
fn state_of(node: NodeId, incoming: LinkType) -> usize {
    node.index() * 2 + usize::from(incoming == LinkType::Usl)
}

#[inline]
fn node_of_state(state: usize) -> NodeId {
    NodeId((state / 2) as u32)
}

#[inline]
fn incoming_of_state(state: usize) -> LinkType {
    if state % 2 == 1 {
        LinkType::Usl
    } else {
        LinkType::Isl
    }
}

/// Reusable Dijkstra working memory for [`min_cost_path_in`].
///
/// A fresh search needs a dist array, a predecessor array and a binary
/// heap sized to the snapshot's state space — three allocations plus an
/// O(states) reinitialization per call, which dominates the per-slot
/// admission path on large constellations. The scratch keeps all three
/// alive across calls and replaces the reinit with a generation stamp:
/// a `dist`/`pred` entry is only valid when its stamp matches the current
/// generation, so starting a new search is O(1) (bump the generation,
/// clear the heap in place).
///
/// Reusing one scratch is **bit-identical** to fresh allocation: the same
/// relaxations run in the same order against the same (logical) initial
/// state, which `tests::prop_scratch_reuse_is_bit_identical` checks.
#[derive(Debug, Clone, Default)]
pub struct SearchScratch {
    dist: Vec<f64>,
    /// Predecessor: (previous state or usize::MAX for the source, edge id).
    pred: Vec<(usize, EdgeId)>,
    /// Entry `i` of `dist`/`pred` is valid iff `stamp[i] == generation`.
    stamp: Vec<u32>,
    generation: u32,
    heap: BinaryHeap<HeapEntry>,
    /// Cumulative work counters since the last [`SearchScratch::take_stats`].
    stats: SearchStats,
}

impl SearchScratch {
    /// An empty scratch; arrays grow to fit the first snapshot searched.
    pub fn new() -> Self {
        SearchScratch::default()
    }

    /// Prepares for a search over `n_states` states: grows the arrays if
    /// needed and invalidates every entry by advancing the generation.
    fn begin(&mut self, n_states: usize) {
        if self.dist.len() < n_states {
            self.dist.resize(n_states, f64::INFINITY);
            self.pred.resize(n_states, (usize::MAX, EdgeId(0)));
            self.stamp.resize(n_states, 0);
        }
        self.generation = match self.generation.checked_add(1) {
            Some(g) => g,
            None => {
                // Wrapped after 2^32 searches: restamp everything once.
                self.stamp.fill(0);
                1
            }
        };
        self.heap.clear();
    }

    #[inline]
    fn dist(&self, state: usize) -> f64 {
        if self.stamp[state] == self.generation {
            self.dist[state]
        } else {
            f64::INFINITY
        }
    }

    #[inline]
    fn relax(&mut self, state: usize, cost: f64, pred: (usize, EdgeId)) {
        self.dist[state] = cost;
        self.pred[state] = pred;
        self.stamp[state] = self.generation;
    }

    /// Canonical relaxation: `Less` when `cost` strictly improves `state`
    /// (relax and push), `Equal` when the cost bits tie and the smaller
    /// predecessor key `(pred_state, edge_id)` should win (update the
    /// predecessor only, no push). The source marker `usize::MAX` sorts
    /// last under plain tuple order, so real predecessors beat it.
    ///
    /// Tie-breaking on the *key* rather than arrival order is what makes
    /// the final predecessor array independent of expansion order — the
    /// property that lets A\* reproduce the reference Dijkstra's
    /// [`FoundPath`] bit-for-bit.
    #[inline]
    fn offer(&mut self, state: usize, cost: f64, pred: (usize, EdgeId)) -> bool {
        if self.stamp[state] != self.generation {
            self.relax(state, cost, pred);
            return true;
        }
        match cost.total_cmp(&self.dist[state]) {
            Ordering::Less => {
                self.relax(state, cost, pred);
                true
            }
            Ordering::Equal => {
                if pred < self.pred[state] {
                    self.pred[state] = pred;
                }
                false
            }
            Ordering::Greater => false,
        }
    }

    /// Returns and resets the accumulated [`SearchStats`].
    pub fn take_stats(&mut self) -> SearchStats {
        std::mem::take(&mut self.stats)
    }

    /// The accumulated [`SearchStats`] without resetting them.
    pub fn stats(&self) -> SearchStats {
        self.stats
    }
}

/// Finds the minimum-cost path from `source` to `destination` in one
/// snapshot under an arbitrary edge-cost model.
///
/// Allocates fresh working memory per call; hot paths should hold a
/// [`SearchScratch`] and use [`min_cost_path_in`] instead — the results
/// are identical.
///
/// `cost_fn` is called once per relaxation attempt and returns the
/// non-negative cost of taking that edge, or `None` to prune it. Costs may
/// depend on the incoming link type (see [`EdgeContext`]); negative costs
/// are a logic error (checked in debug builds).
///
/// Returns `None` when the destination is unreachable under the model, or
/// when `source == destination`.
pub fn min_cost_path(
    snapshot: &TopologySnapshot,
    source: NodeId,
    destination: NodeId,
    cost_fn: impl FnMut(&EdgeContext<'_>) -> Option<f64>,
) -> Option<FoundPath> {
    min_cost_path_in(&mut SearchScratch::new(), snapshot, source, destination, cost_fn)
}

/// [`min_cost_path`] against caller-owned working memory.
///
/// `scratch` is reset (O(1)) at the start of every call, so one scratch
/// can serve any number of sequential searches over snapshots of any size.
/// This is the reference search: [`min_cost_path_with`] instantiated at
/// [`ZeroHeuristic`].
pub fn min_cost_path_in(
    scratch: &mut SearchScratch,
    snapshot: &TopologySnapshot,
    source: NodeId,
    destination: NodeId,
    cost_fn: impl FnMut(&EdgeContext<'_>) -> Option<f64>,
) -> Option<FoundPath> {
    min_cost_path_with(scratch, snapshot, source, destination, &ZeroHeuristic, cost_fn)
}

/// Relative slack on the goal bound: the search keeps expanding until the
/// heap minimum's `f` exceeds `best_cost * (1 + GOAL_BOUND_SLACK)`. The
/// slack makes the cutoff conservative against ulp-level heuristic
/// inconsistency, so every state that could supply an equal-cost canonical
/// predecessor is expanded under *any* admissible heuristic — expanding a
/// superset never changes the canonical argmin, only the work counters.
const GOAL_BOUND_SLACK: f64 = 1e-12;

/// [`min_cost_path_in`] goal-directed by an admissible [`Heuristic`].
///
/// Bit-for-bit identical to the [`ZeroHeuristic`] reference for any
/// admissible heuristic, because every cost-relevant choice is canonical
/// rather than expansion-order-dependent:
///
/// * relaxation replaces a predecessor on *bit-equal* cost iff the new
///   key `(pred_state, edge_id)` is smaller ([`SearchScratch::offer`]);
/// * the search does not stop at the first destination pop — it keeps
///   expanding until the heap minimum's `f` exceeds the best destination
///   cost (plus [`GOAL_BOUND_SLACK`]), so all equal-cost predecessors are
///   seen regardless of pop order;
/// * among the destination's two `(node, incoming)` states the winner is
///   the bitwise-cheapest, then the smaller state id.
pub fn min_cost_path_with<H: Heuristic>(
    scratch: &mut SearchScratch,
    snapshot: &TopologySnapshot,
    source: NodeId,
    destination: NodeId,
    heuristic: &H,
    mut cost_fn: impl FnMut(&EdgeContext<'_>) -> Option<f64>,
) -> Option<FoundPath> {
    if source == destination {
        return None;
    }
    let slot = snapshot.slot();
    let n_states = snapshot.num_nodes() * 2;
    scratch.begin(n_states);

    // Seed with the source's out-edges.
    for (edge_id, edge) in snapshot.out_edges(source) {
        if edge.dst != destination && snapshot.kind(edge.dst).is_user() {
            continue; // users are never intermediate
        }
        let ctx = EdgeContext { slot, edge_id, edge: &edge, incoming: None };
        if let Some(cost) = cost_fn(&ctx) {
            debug_assert!(cost >= 0.0, "negative edge cost {cost}");
            scratch.stats.relaxations += 1;
            let state = state_of(edge.dst, edge.link_type);
            if scratch.offer(state, cost, (usize::MAX, edge_id)) {
                let f =
                    if edge.dst == destination { cost } else { heuristic.fscore(cost, edge.dst) };
                scratch.heap.push(HeapEntry { f, g: cost, state });
            }
        }
    }

    // Best destination state popped so far: (cost, state), ordered by
    // (total_cmp on cost, then state id).
    let mut best_final: Option<(f64, usize)> = None;
    while let Some(HeapEntry { f, g, state }) = scratch.heap.pop() {
        if let Some((best_cost, _)) = best_final {
            if f > best_cost + best_cost * GOAL_BOUND_SLACK {
                // Heap pops in nondecreasing f: nothing left can improve
                // or retie any state on an optimal path.
                scratch.stats.heuristic_prunes += 1 + scratch.heap.len() as u64;
                break;
            }
        }
        scratch.stats.pops += 1;
        if g > scratch.dist(state) {
            scratch.stats.stale_skips += 1;
            continue; // stale entry
        }
        let node = node_of_state(state);
        if node == destination {
            let better = match best_final {
                None => true,
                Some((bc, bs)) => {
                    matches!(g.total_cmp(&bc), Ordering::Less)
                        || (g.to_bits() == bc.to_bits() && state < bs)
                }
            };
            if better {
                best_final = Some((g, state));
            }
            continue; // never expand the destination
        }
        if snapshot.kind(node).is_user() {
            continue; // never expand out of a user node (only the source is)
        }
        let g = scratch.dist(state);
        let incoming = incoming_of_state(state);
        for (edge_id, edge) in snapshot.out_edges(node) {
            if edge.dst == source {
                continue;
            }
            if edge.dst != destination && snapshot.kind(edge.dst).is_user() {
                continue;
            }
            let ctx = EdgeContext { slot, edge_id, edge: &edge, incoming: Some(incoming) };
            let Some(step) = cost_fn(&ctx) else { continue };
            debug_assert!(step >= 0.0, "negative edge cost {step}");
            scratch.stats.relaxations += 1;
            let next = state_of(edge.dst, edge.link_type);
            let next_cost = g + step;
            if scratch.offer(next, next_cost, (state, edge_id)) {
                let f = if edge.dst == destination {
                    next_cost
                } else {
                    heuristic.fscore(next_cost, edge.dst)
                };
                scratch.heap.push(HeapEntry { f, g: next_cost, state: next });
            }
        }
    }

    let (_, final_state) = best_final?;

    // Reconstruct.
    let mut edges = Vec::new();
    let mut nodes = vec![destination];
    let mut cur = final_state;
    loop {
        let (prev, edge_id) = scratch.pred[cur];
        edges.push(edge_id);
        if prev == usize::MAX {
            nodes.push(source);
            break;
        }
        nodes.push(node_of_state(prev));
        cur = prev;
    }
    nodes.reverse();
    edges.reverse();
    Some(FoundPath { nodes, edges, cost: scratch.dist(final_state) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sb_geo::coords::Eci;
    use sb_geo::Vec3;
    use sb_topology::graph::NodeKind;

    /// Builds a diamond:
    ///
    /// ```text
    ///        sat1 --- sat2
    ///       /              \
    /// user0                 user5
    ///       \              /
    ///        sat3 --- sat4
    /// ```
    fn diamond() -> TopologySnapshot {
        let kinds = vec![
            NodeKind::GroundUser(0),
            NodeKind::Satellite(0),
            NodeKind::Satellite(1),
            NodeKind::Satellite(2),
            NodeKind::Satellite(3),
            NodeKind::GroundUser(1),
        ];
        let pos = vec![Eci(Vec3::ZERO); 6];
        let mk = |s: u32, d: u32, lt| Edge {
            src: NodeId(s),
            dst: NodeId(d),
            link_type: lt,
            capacity_mbps: 4000.0,
            length_m: 1.0,
        };
        let mut edges = Vec::new();
        for (s, d, lt) in [
            (0, 1, LinkType::Usl),
            (0, 3, LinkType::Usl),
            (1, 2, LinkType::Isl),
            (3, 4, LinkType::Isl),
            (2, 5, LinkType::Usl),
            (4, 5, LinkType::Usl),
        ] {
            edges.push(mk(s, d, lt));
            edges.push(mk(d, s, lt));
        }
        TopologySnapshot::from_edges(SlotIndex(0), kinds, pos, vec![true; 6], edges)
    }

    #[test]
    fn unit_costs_find_a_shortest_path() {
        let g = diamond();
        let p = min_cost_path(&g, NodeId(0), NodeId(5), |_| Some(1.0)).unwrap();
        assert_eq!(p.cost, 3.0);
        assert_eq!(p.nodes.len(), 4);
        assert_eq!(p.nodes[0], NodeId(0));
        assert_eq!(p.nodes[3], NodeId(5));
    }

    #[test]
    fn weighted_costs_choose_the_cheap_branch() {
        let g = diamond();
        // Make the top branch expensive via its middle ISL.
        let p = min_cost_path(&g, NodeId(0), NodeId(5), |ctx| {
            if ctx.edge.src == NodeId(1) && ctx.edge.dst == NodeId(2) {
                Some(100.0)
            } else {
                Some(1.0)
            }
        })
        .unwrap();
        assert_eq!(p.nodes, vec![NodeId(0), NodeId(3), NodeId(4), NodeId(5)]);
    }

    #[test]
    fn pruning_forces_the_other_branch() {
        let g = diamond();
        let p = min_cost_path(&g, NodeId(0), NodeId(5), |ctx| {
            (ctx.edge.src != NodeId(3)).then_some(1.0)
        })
        .unwrap();
        assert_eq!(p.nodes, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(5)]);
    }

    #[test]
    fn fully_pruned_graph_has_no_path() {
        let g = diamond();
        assert!(min_cost_path(&g, NodeId(0), NodeId(5), |_| None).is_none());
    }

    #[test]
    fn same_source_destination_is_none() {
        let g = diamond();
        assert!(min_cost_path(&g, NodeId(0), NodeId(0), |_| Some(1.0)).is_none());
    }

    #[test]
    fn incoming_link_type_is_reported_correctly() {
        let g = diamond();
        let mut seen_first_hop = false;
        let mut seen_usl_incoming = false;
        let mut seen_isl_incoming = false;
        let _ = min_cost_path(&g, NodeId(0), NodeId(5), |ctx| {
            match ctx.incoming {
                None => seen_first_hop = true,
                Some(LinkType::Usl) => seen_usl_incoming = true,
                Some(LinkType::Isl) => seen_isl_incoming = true,
            }
            Some(1.0)
        });
        assert!(seen_first_hop);
        assert!(seen_usl_incoming, "satellites reached via USL relax onward");
        assert!(seen_isl_incoming, "satellites reached via ISL relax onward");
    }

    #[test]
    fn users_are_never_intermediate() {
        // Add a tempting shortcut through a third user.
        let kinds = vec![
            NodeKind::GroundUser(0),
            NodeKind::Satellite(0),
            NodeKind::GroundUser(2), // decoy user
            NodeKind::Satellite(1),
            NodeKind::GroundUser(1),
        ];
        let pos = vec![Eci(Vec3::ZERO); 5];
        let mk = |s: u32, d: u32, lt| Edge {
            src: NodeId(s),
            dst: NodeId(d),
            link_type: lt,
            capacity_mbps: 4000.0,
            length_m: 1.0,
        };
        let mut edges = Vec::new();
        for (s, d, lt) in [
            (0, 1, LinkType::Usl),
            (1, 2, LinkType::Usl), // sat0 → decoy
            (2, 3, LinkType::Usl), // decoy → sat1
            (3, 4, LinkType::Usl),
            (1, 3, LinkType::Isl), // legit ISL, "longer" cost-wise below
        ] {
            edges.push(mk(s, d, lt));
            edges.push(mk(d, s, lt));
        }
        let g = TopologySnapshot::from_edges(SlotIndex(0), kinds, pos, vec![true; 5], edges);
        let p = min_cost_path(&g, NodeId(0), NodeId(4), |ctx| {
            // Make the user shortcut cheap and the ISL expensive: the
            // search must still refuse to route through the decoy user.
            if ctx.edge.link_type == LinkType::Isl {
                Some(10.0)
            } else {
                Some(0.1)
            }
        })
        .unwrap();
        assert_eq!(p.nodes, vec![NodeId(0), NodeId(1), NodeId(3), NodeId(4)]);
    }

    #[test]
    fn cost_depends_on_incoming_type() {
        // The same satellite can be priced differently per role: make USL
        // arrivals expensive to forward, ISL arrivals cheap. Diamond's
        // first sat after the source always has USL incoming; verify that
        // cost lands in the total.
        let g = diamond();
        let p = min_cost_path(&g, NodeId(0), NodeId(5), |ctx| {
            Some(match ctx.incoming {
                None => 0.0,
                Some(LinkType::Usl) => 5.0, // forwarding out of a gateway
                Some(LinkType::Isl) => 1.0,
            })
        })
        .unwrap();
        // Hops: user0→sat (0.0), sat→sat (5.0), sat→user5 (1.0).
        assert_eq!(p.cost, 6.0);
    }

    #[test]
    fn disconnected_destination() {
        let kinds = vec![NodeKind::GroundUser(0), NodeKind::Satellite(0), NodeKind::GroundUser(1)];
        let pos = vec![Eci(Vec3::ZERO); 3];
        let edges = vec![Edge {
            src: NodeId(0),
            dst: NodeId(1),
            link_type: LinkType::Usl,
            capacity_mbps: 1.0,
            length_m: 1.0,
        }];
        let g = TopologySnapshot::from_edges(SlotIndex(0), kinds, pos, vec![true; 3], edges);
        assert!(min_cost_path(&g, NodeId(0), NodeId(2), |_| Some(1.0)).is_none());
    }

    #[test]
    fn brute_force_agreement_on_diamond() {
        // Enumerate all simple paths of the diamond and compare with the
        // search under a nontrivial cost model.
        let g = diamond();
        let cost_model = |src: u32, dst: u32| -> f64 {
            // Deterministic pseudo-random positive weights.
            ((src * 7 + dst * 13) % 11) as f64 + 0.5
        };
        let paths: Vec<Vec<u32>> = vec![vec![0, 1, 2, 5], vec![0, 3, 4, 5]];
        let brute = paths
            .iter()
            .map(|p| p.windows(2).map(|w| cost_model(w[0], w[1])).sum::<f64>())
            .fold(f64::INFINITY, f64::min);
        let found = min_cost_path(&g, NodeId(0), NodeId(5), |ctx| {
            Some(cost_model(ctx.edge.src.0, ctx.edge.dst.0))
        })
        .unwrap();
        assert!((found.cost - brute).abs() < 1e-12, "found {} brute {brute}", found.cost);
    }

    /// Exhaustive DFS over simple paths (user endpoints, satellites
    /// in the middle) for cross-checking Dijkstra on small graphs.
    fn brute_force_min_cost(
        snapshot: &TopologySnapshot,
        source: NodeId,
        destination: NodeId,
        cost: &impl Fn(u32, u32) -> f64,
    ) -> Option<f64> {
        fn dfs(
            snapshot: &TopologySnapshot,
            here: NodeId,
            destination: NodeId,
            visited: &mut Vec<bool>,
            acc: f64,
            best: &mut Option<f64>,
            cost: &impl Fn(u32, u32) -> f64,
        ) {
            if here == destination {
                *best = Some(best.map_or(acc, |b: f64| b.min(acc)));
                return;
            }
            for (_, e) in snapshot.out_edges(here) {
                let next = e.dst;
                if visited[next.index()] {
                    continue;
                }
                if next != destination && snapshot.kind(next).is_user() {
                    continue;
                }
                visited[next.index()] = true;
                dfs(snapshot, next, destination, visited, acc + cost(here.0, next.0), best, cost);
                visited[next.index()] = false;
            }
        }
        let mut visited = vec![false; snapshot.num_nodes()];
        visited[source.index()] = true;
        let mut best = None;
        dfs(snapshot, source, destination, &mut visited, 0.0, &mut best, cost);
        best
    }

    /// Builds a random snapshot: node 0 = source user, node n−1 =
    /// destination user, everything between a satellite; edges from a seed.
    fn random_snapshot(n: usize, seed: u64) -> TopologySnapshot {
        let mut kinds = vec![NodeKind::GroundUser(0)];
        for i in 1..n - 1 {
            kinds.push(NodeKind::Satellite(i - 1));
        }
        kinds.push(NodeKind::GroundUser(1));
        let pos = vec![Eci(Vec3::ZERO); n];
        let mut edges = Vec::new();
        let mut rng = seed;
        let mut next = || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            rng >> 33
        };
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                if a == b {
                    continue;
                }
                // ~45% edge density.
                if next() % 100 < 45 {
                    let user_endpoint = a == 0 || b == 0 || a == n as u32 - 1 || b == n as u32 - 1;
                    edges.push(Edge {
                        src: NodeId(a),
                        dst: NodeId(b),
                        link_type: if user_endpoint { LinkType::Usl } else { LinkType::Isl },
                        capacity_mbps: 4000.0,
                        length_m: 1.0,
                    });
                }
            }
        }
        TopologySnapshot::from_edges(SlotIndex(0), kinds, pos, vec![true; n], edges)
    }

    /// Runs `queries` sequential searches over varying random snapshots
    /// through one reused scratch and asserts every [`FoundPath`] is
    /// bit-identical (nodes, edges, exact cost bits) to a fresh-allocation
    /// call.
    fn assert_scratch_matches_fresh(base_seed: u64, queries: u64) {
        let mut scratch = SearchScratch::new();
        for q in 0..queries {
            let seed = base_seed.wrapping_add(q);
            // Vary the node count so the scratch also regrows mid-stream.
            let n = 4 + (seed % 5) as usize;
            let snapshot = random_snapshot(n, seed);
            let w = 1 + (seed % 29) as u32;
            let cost = |a: u32, b: u32| ((a * w + b * 17) % 23) as f64 + 0.25;
            let fresh = min_cost_path(&snapshot, NodeId(0), NodeId(n as u32 - 1), |ctx| {
                Some(cost(ctx.edge.src.0, ctx.edge.dst.0))
            });
            let reused =
                min_cost_path_in(&mut scratch, &snapshot, NodeId(0), NodeId(n as u32 - 1), |ctx| {
                    Some(cost(ctx.edge.src.0, ctx.edge.dst.0))
                });
            match (&fresh, &reused) {
                (None, None) => {}
                (Some(f), Some(r)) => {
                    assert_eq!(f.nodes, r.nodes, "query {q}");
                    assert_eq!(f.edges, r.edges, "query {q}");
                    assert_eq!(f.cost.to_bits(), r.cost.to_bits(), "query {q}");
                }
                _ => panic!("query {q}: reachability disagrees: {fresh:?} vs {reused:?}"),
            }
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical_over_many_queries() {
        assert_scratch_matches_fresh(0xC0FFEE, 200);
    }

    #[test]
    fn scratch_survives_generation_wraparound() {
        let mut scratch = SearchScratch::new();
        scratch.generation = u32::MAX - 1;
        let g = diamond();
        for _ in 0..4 {
            // Crosses the u32 wrap; results must stay correct throughout.
            let p = min_cost_path_in(&mut scratch, &g, NodeId(0), NodeId(5), |_| Some(1.0))
                .expect("diamond is connected");
            assert_eq!(p.cost, 3.0);
        }
    }

    /// Like [`random_snapshot`] but with real positions (so the hop-bound
    /// heuristic is non-trivial) and three user nodes: 0 and the last two.
    fn random_geo_snapshot(n: usize, seed: u64) -> TopologySnapshot {
        assert!(n >= 6);
        let mut kinds = vec![NodeKind::GroundUser(0)];
        for i in 1..n - 2 {
            kinds.push(NodeKind::Satellite(i - 1));
        }
        kinds.push(NodeKind::GroundUser(1));
        kinds.push(NodeKind::GroundUser(2));
        let mut rng = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            rng >> 33
        };
        let pos: Vec<Eci> = (0..n)
            .map(|_| {
                let x = (next() % 2_000_000) as f64 - 1_000_000.0;
                let y = (next() % 2_000_000) as f64 - 1_000_000.0;
                let z = (next() % 2_000_000) as f64 - 1_000_000.0;
                Eci(Vec3 { x, y, z })
            })
            .collect();
        let is_user = |i: usize| i == 0 || i >= n - 2;
        let mut edges = Vec::new();
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                if next() % 100 < 45 {
                    edges.push(Edge {
                        src: NodeId(a as u32),
                        dst: NodeId(b as u32),
                        link_type: if is_user(a) || is_user(b) {
                            LinkType::Usl
                        } else {
                            LinkType::Isl
                        },
                        capacity_mbps: 4000.0,
                        length_m: pos[a].distance(pos[b]),
                    });
                }
            }
        }
        TopologySnapshot::from_edges(SlotIndex(0), kinds, pos, vec![true; n], edges)
    }

    /// Conservative per-node hop lower bounds toward `dest` from raw
    /// geometry: `ceil(chord·(1−1e-9) / L_max)` with `L_max` the longest
    /// edge reach in the snapshot.
    fn hop_bounds_to(snapshot: &TopologySnapshot, dest: NodeId) -> Vec<u32> {
        let mut l_max = 0.0f64;
        for (_, e) in (0..snapshot.num_nodes()).flat_map(|i| snapshot.out_edges(NodeId(i as u32))) {
            l_max = l_max.max(snapshot.position(e.src).distance(snapshot.position(e.dst)));
        }
        let dp = snapshot.position(dest);
        (0..snapshot.num_nodes())
            .map(|i| {
                let chord = snapshot.position(NodeId(i as u32)).distance(dp);
                if l_max <= 0.0 || chord <= 0.0 {
                    0
                } else {
                    (chord * (1.0 - 1e-9) / l_max).ceil() as u32
                }
            })
            .collect()
    }

    fn assert_same(tag: &str, a: &Option<FoundPath>, b: &Option<FoundPath>) {
        match (a, b) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                assert_eq!(x.nodes, y.nodes, "{tag}: nodes");
                assert_eq!(x.edges, y.edges, "{tag}: edges");
                assert_eq!(x.cost.to_bits(), y.cost.to_bits(), "{tag}: cost bits");
            }
            _ => panic!("{tag}: reachability disagrees: {a:?} vs {b:?}"),
        }
    }

    /// Reference Dijkstra and goal-directed A\* must return bit-identical
    /// [`FoundPath`]s, for every destination, under a pruning cost model
    /// with a known floor.
    fn assert_astar_matches_reference(seed: u64) {
        let n = 8 + (seed % 5) as usize;
        let snapshot = random_geo_snapshot(n, seed);
        let w = 1 + (seed % 13) as u32;
        // Per-edge cost >= 1.0, with ~10% of edges pruned.
        let cost = move |a: u32, b: u32| -> Option<f64> {
            if (a * 7 + b * 11 + w).is_multiple_of(10) {
                None
            } else {
                Some(((a * w + b * 17) % 23) as f64 + 1.0)
            }
        };
        let source = NodeId(0);
        let mut scratch = SearchScratch::new();
        for dest_i in [n - 2, n - 1] {
            let dest = NodeId(dest_i as u32);
            let reference = min_cost_path_in(&mut scratch, &snapshot, source, dest, |ctx| {
                cost(ctx.edge.src.0, ctx.edge.dst.0)
            });
            let hops = hop_bounds_to(&snapshot, dest);
            let heuristic = HopBoundHeuristic { hops_lb: &hops, unit: 1.0 * (1.0 - 1e-9) };
            let astar =
                min_cost_path_with(&mut scratch, &snapshot, source, dest, &heuristic, |ctx| {
                    cost(ctx.edge.src.0, ctx.edge.dst.0)
                });
            assert_same(&format!("seed {seed} dest {dest_i} astar"), &reference, &astar);
        }
    }

    #[test]
    fn astar_is_bit_identical_to_reference() {
        for seed in 0..300 {
            assert_astar_matches_reference(seed);
        }
    }

    #[test]
    fn astar_prunes_work_on_goal_directed_instances() {
        // On at least some random instances the heuristic must abandon
        // part of the frontier (otherwise it is doing nothing).
        let mut pruned = 0u64;
        for seed in 0..50 {
            let n = 10;
            let snapshot = random_geo_snapshot(n, seed);
            let dest = NodeId(n as u32 - 1);
            let hops = hop_bounds_to(&snapshot, dest);
            let heuristic = HopBoundHeuristic { hops_lb: &hops, unit: 1.0 * (1.0 - 1e-9) };
            let mut scratch = SearchScratch::new();
            let _ =
                min_cost_path_with(&mut scratch, &snapshot, NodeId(0), dest, &heuristic, |ctx| {
                    Some(((ctx.edge.src.0 * 3 + ctx.edge.dst.0 * 17) % 23) as f64 + 1.0)
                });
            pruned += scratch.take_stats().heuristic_prunes;
        }
        assert!(pruned > 0, "A* never cut the frontier across 50 instances");
    }

    #[test]
    fn search_stats_count_work() {
        let g = diamond();
        let mut scratch = SearchScratch::new();
        let _ = min_cost_path_in(&mut scratch, &g, NodeId(0), NodeId(5), |_| Some(1.0));
        let stats = scratch.take_stats();
        assert!(stats.pops > 0);
        assert!(stats.relaxations > 0);
        // take_stats resets.
        assert_eq!(scratch.take_stats(), SearchStats::default());
    }

    proptest! {
        /// Reference Dijkstra vs A*: bit-identical paths over random
        /// geometric snapshots and pruning cost models.
        #[test]
        fn prop_astar_matches_reference(seed in 0u64..2000) {
            assert_astar_matches_reference(seed);
        }

        /// A reused [`SearchScratch`] must return exactly the same
        /// [`FoundPath`] (nodes, edges, cost bits) as a fresh-allocation
        /// call, across many sequential queries over random snapshots and
        /// cost models.
        #[test]
        fn prop_scratch_reuse_is_bit_identical(base_seed in 0u64..500, queries in 1u64..40) {
            assert_scratch_matches_fresh(base_seed, queries);
        }

        /// Dijkstra over (node, link-type) states must agree with an
        /// exhaustive enumeration of simple paths whenever edge costs do
        /// not depend on the incoming link type (then the state expansion
        /// is cost-neutral and walks are never cheaper than simple paths).
        #[test]
        fn prop_search_matches_brute_force(seed in 0u64..300, n in 4usize..8) {
            let snapshot = random_snapshot(n, seed);
            let cost = |a: u32, b: u32| ((a * 31 + b * 17) % 23) as f64 + 1.0;
            let brute =
                brute_force_min_cost(&snapshot, NodeId(0), NodeId(n as u32 - 1), &cost);
            let found = min_cost_path(&snapshot, NodeId(0), NodeId(n as u32 - 1), |ctx| {
                Some(cost(ctx.edge.src.0, ctx.edge.dst.0))
            });
            match (brute, found) {
                (None, None) => {}
                (Some(b), Some(f)) => prop_assert!(
                    (b - f.cost).abs() < 1e-9,
                    "brute {b} vs dijkstra {}", f.cost
                ),
                (b, f) => prop_assert!(false, "reachability disagrees: {b:?} vs {:?}", f.map(|p| p.cost)),
            }
        }

        /// The returned edge list must be a connected path from source to
        /// destination whose cost sums to the reported total.
        #[test]
        fn prop_returned_path_is_consistent(seed in 0u64..300, n in 4usize..8) {
            let snapshot = random_snapshot(n, seed);
            let cost = |a: u32, b: u32| ((a * 13 + b * 7) % 19) as f64 + 0.5;
            if let Some(p) = min_cost_path(&snapshot, NodeId(0), NodeId(n as u32 - 1), |ctx| {
                Some(cost(ctx.edge.src.0, ctx.edge.dst.0))
            }) {
                prop_assert_eq!(p.nodes.len(), p.edges.len() + 1);
                prop_assert_eq!(*p.nodes.first().unwrap(), NodeId(0));
                prop_assert_eq!(*p.nodes.last().unwrap(), NodeId(n as u32 - 1));
                let mut total = 0.0;
                for (k, &eid) in p.edges.iter().enumerate() {
                    let e = snapshot.edge(eid);
                    prop_assert_eq!(e.src, p.nodes[k]);
                    prop_assert_eq!(e.dst, p.nodes[k + 1]);
                    total += cost(e.src.0, e.dst.0);
                }
                prop_assert!((total - p.cost).abs() < 1e-9);
            }
        }
    }
}
