//! Goal-directed search acceleration: search-kind selection, geometry
//! caches for the A* hop-bound heuristic, and the epoch-validated
//! shortest-path-tree (SPT) cache.
//!
//! The per-slot `(node, incoming-link-type)` Dijkstra in [`crate::search`]
//! is the innermost admission kernel. This module makes it faster two ways
//! while staying **bitwise identical** to the reference search:
//!
//! * **A\*** — [`GeomCache`] precomputes, per `(slot, destination)`, a
//!   conservative lower bound on the remaining hop count (straight-line
//!   distance over the slot's longest edge, slack-rounded so float noise
//!   can never overestimate), and [`MinUnitPriceCache`] the slot's minimum
//!   link unit price. Their product is an admissible, *consistent*
//!   heuristic, and `min_cost_path_with` keeps expanding past the first
//!   goal pop until the bound proves optimality, so the returned path is
//!   the same bits as plain Dijkstra.
//! * **SPT reuse** — [`SptCache`] memoizes the destination-less settled
//!   tree per `(source, slot, cost model)`, validated against the coarse
//!   per-slot bandwidth and whole-battery generations stamped by
//!   commit/release/repair (the same invalidation discipline as
//!   `PriceCache`). The ten endpoint pairs of a request batch, and
//!   repeated quotes while a slot's state is unchanged, then answer from
//!   one settle via `path_via_tree` instead of ten full searches. Only
//!   models whose weights can survive a commit participate (see
//!   [`ModelSpec::volatile`]): congestion/energy-weighted baselines
//!   re-weight somewhere on the graph at every commit, so caching their
//!   settles thrashes — they run goal-directed A\* uncached instead.
//!
//! Validation is layered. An entry whose generations and request rate
//! match serves in O(1). Otherwise the stored per-edge *evaluation
//! transcript* is replayed against the bandwidth prune: the weights of a
//! model that uses this path depend on neither the rate nor the
//! reservation state (see [`ModelSpec::volatile`]), so a commit, a release
//! or another rate can change a recorded evaluation only by flipping its
//! feasibility. If every recorded evaluation would reproduce, the settle
//! trajectory is necessarily unchanged (the search is a deterministic
//! function of its evaluation results, by induction over the evaluation
//! sequence), so the tree is still exact. The replay reads one reservation
//! cell per evaluation and nothing of the snapshot. `strict` entries
//! (CEAR, whose weights read prices and the energy overlay) skip
//! transcript replay and validate only by exact generation + rate match.
//!
//! Destination (user-node) edges are never part of a stored tree's
//! transcript: `settle_tree_in` records them without consulting the cost
//! model and `path_via_tree` evaluates them fresh, so they need no
//! validation at all.
//!
//! `SB_NO_SPT_CACHE=1` disables SPT reuse process-wide (searches stay
//! goal-directed but uncached), mirroring `SB_NO_PREPARE_CACHE`.

use crate::parquote::EnergyProbe;
use crate::pricecache::PriceCache;
use crate::search::{
    path_via_tree, settle_tree_in, EdgeContext, FoundPath, SearchScratch, SettledTree,
};
use crate::state::NetworkState;
use sb_topology::graph::EdgeId;
use sb_topology::{LinkType, NodeId, SlotIndex, TopologySeries};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Which search kernel an algorithm instance runs.
///
/// Both kinds return bitwise-identical `FoundPath`s (proven by property
/// tests); they differ only in how much of the frontier they explore and
/// whether settled trees are reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchKind {
    /// Plain Dijkstra (the `ZeroHeuristic` instantiation), no tree reuse.
    Reference,
    /// Goal-directed A\* with the hop-bound heuristic, plus SPT caching
    /// unless `SB_NO_SPT_CACHE=1`.
    #[default]
    Astar,
}

impl std::str::FromStr for SearchKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "reference" => Ok(SearchKind::Reference),
            "astar" => Ok(SearchKind::Astar),
            other => Err(format!("unknown search kind '{other}' (expected reference|astar)")),
        }
    }
}

impl std::fmt::Display for SearchKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SearchKind::Reference => "reference",
            SearchKind::Astar => "astar",
        })
    }
}

/// True when `SB_NO_SPT_CACHE=1` was set at first query: the SPT cache is
/// bypassed process-wide (A\* still runs). Read once and latched, like the
/// prepared-network cache's `SB_NO_PREPARE_CACHE`.
pub fn spt_cache_disabled() -> bool {
    static DISABLED: OnceLock<bool> = OnceLock::new();
    *DISABLED.get_or_init(|| std::env::var("SB_NO_SPT_CACHE").is_ok_and(|v| v == "1"))
}

/// Relative slack applied to per-hop cost floors before they enter the
/// heuristic, so floating-point rounding in `hops × unit` can never tip an
/// exact lower bound into inadmissibility.
pub(crate) const UNIT_SLACK: f64 = 1.0 - 1e-9;

/// SPT-cache hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SptStats {
    /// Lookups served from a validated stored tree.
    pub hits: u64,
    /// Lookups that built (or rebuilt) a tree.
    pub misses: u64,
    /// Lookups that noted the key for promotion and searched directly
    /// (promotion-gated caches only).
    pub deferred: u64,
}

impl SptStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses + self.deferred
    }

    /// Fraction of lookups served from a stored tree (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let n = self.lookups();
        if n == 0 {
            0.0
        } else {
            self.hits as f64 / n as f64
        }
    }

    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &SptStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.deferred += other.deferred;
    }
}

static GLOBAL_HITS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_MISSES: AtomicU64 = AtomicU64::new(0);
static GLOBAL_DEFERRED: AtomicU64 = AtomicU64::new(0);

/// Process-wide SPT counters summed over every cache instance on every
/// thread (benchmarks read these around a sweep).
pub fn global_spt_stats() -> SptStats {
    SptStats {
        hits: GLOBAL_HITS.load(Ordering::Relaxed),
        misses: GLOBAL_MISSES.load(Ordering::Relaxed),
        deferred: GLOBAL_DEFERRED.load(Ordering::Relaxed),
    }
}

/// Zeroes the process-wide SPT counters.
pub fn reset_global_spt_stats() {
    GLOBAL_HITS.store(0, Ordering::Relaxed);
    GLOBAL_MISSES.store(0, Ordering::Relaxed);
    GLOBAL_DEFERRED.store(0, Ordering::Relaxed);
}

/// Per-`TopologySeries` geometry for the hop-bound heuristic: the longest
/// edge reach per slot and, per `(slot, destination)`, the conservative
/// per-node hop lower bounds. Anchored on the series `Arc` identity (the
/// held clone keeps the allocation alive, so pointer equality cannot
/// alias two different series).
#[derive(Debug, Clone, Default)]
pub(crate) struct GeomCache {
    anchor: Option<Arc<TopologySeries>>,
    reach: HashMap<u32, f64>,
    hops: HashMap<(u32, u32), Arc<Vec<u32>>>,
}

impl GeomCache {
    fn ensure_anchor(&mut self, series: &Arc<TopologySeries>) {
        let stale = match &self.anchor {
            Some(a) => !Arc::ptr_eq(a, series),
            None => true,
        };
        if stale {
            self.anchor = Some(Arc::clone(series));
            self.reach.clear();
            self.hops.clear();
        }
    }

    /// The slot's maximum per-hop reach: the longest straight-line
    /// endpoint distance over all edges in the snapshot.
    pub(crate) fn max_hop_reach_m(&mut self, series: &Arc<TopologySeries>, slot: SlotIndex) -> f64 {
        self.ensure_anchor(series);
        *self.reach.entry(slot.0).or_insert_with(|| {
            let snapshot = series.snapshot(slot);
            let mut reach = 0.0f64;
            for edge in snapshot.edges() {
                let span = snapshot.position(edge.src).distance(snapshot.position(edge.dst));
                reach = reach.max(span);
            }
            reach
        })
    }

    /// Per-node hop lower bounds toward `destination` in `slot`.
    pub(crate) fn hop_bounds(
        &mut self,
        series: &Arc<TopologySeries>,
        slot: SlotIndex,
        destination: NodeId,
    ) -> Arc<Vec<u32>> {
        self.ensure_anchor(series);
        if let Some(bounds) = self.hops.get(&(slot.0, destination.0)) {
            return Arc::clone(bounds);
        }
        if self.hops.len() >= 8192 {
            self.hops.clear();
        }
        let reach = self.max_hop_reach_m(series, slot);
        let snapshot = series.snapshot(slot);
        let goal = snapshot.position(destination);
        let bounds: Vec<u32> = (0..snapshot.num_nodes())
            .map(|i| {
                let here = snapshot.position(NodeId(i as u32));
                sb_geo::conservative_hop_count(here.distance(goal), reach)
            })
            .collect();
        let bounds = Arc::new(bounds);
        self.hops.insert((slot.0, destination.0), Arc::clone(&bounds));
        bounds
    }
}

/// Per-slot minimum link unit price, validated against the slot's
/// bandwidth generation — the state-dependent part of CEAR's heuristic
/// floor, recomputed only when the slot's reservations change.
#[derive(Debug, Clone, Default)]
pub(crate) struct MinUnitPriceCache {
    map: HashMap<u32, (u64, f64)>,
}

impl MinUnitPriceCache {
    /// The minimum unit price over every edge of the slot (≥ 0; 0 when
    /// the slot has no edges).
    pub(crate) fn min_unit_price(
        &mut self,
        state: &NetworkState,
        slot: SlotIndex,
        prices: &mut PriceCache,
    ) -> f64 {
        let gen = state.slot_bandwidth_gen(slot);
        if let Some(&(cached_gen, value)) = self.map.get(&slot.0) {
            if cached_gen == gen {
                return value;
            }
        }
        let num_edges = state.series().snapshot(slot).num_edges();
        let mut min = f64::INFINITY;
        for id in 0..num_edges as u32 {
            min = min.min(prices.link_unit_price(state, slot, EdgeId(id)));
        }
        let value = if min.is_finite() { min.max(0.0) } else { 0.0 };
        self.map.insert(slot.0, (gen, value));
        value
    }
}

/// Identifies a baseline cost model inside an [`SptKey`]: a stable
/// discriminant-plus-parameter hash and the model's per-edge cost floor
/// (used as the A\* heuristic unit).
///
/// Contract for SPT reuse (`volatile == false`): the weight function must
/// be a pure function of `(edge, incoming, slot)` — a stored tree is
/// revalidated by replaying the bandwidth prune alone.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ModelSpec {
    /// Discriminates cost models (and their parameters) sharing a cache.
    pub key: u64,
    /// Lower bound on any single edge weight (unscaled).
    pub floor: f64,
    /// Whether the weights read mutable reservation state (utilization,
    /// battery). Volatile models bypass the SPT cache: every commit moves
    /// their weights somewhere on the graph, so a cached settle almost
    /// never survives transcript replay and each rebuild costs a full
    /// settle where a bounded goal-directed search would do. They still
    /// run A\*; only the tree memoization is skipped.
    pub volatile: bool,
}

/// FNV-1a over a model discriminant and its parameter bit patterns.
pub(crate) fn model_key(discriminant: u64, param_bits: &[u64]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = (OFFSET ^ discriminant).wrapping_mul(PRIME);
    for &bits in param_bits {
        hash = (hash ^ bits).wrapping_mul(PRIME);
    }
    hash
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SptKey {
    slot: u32,
    source: u32,
    model: u64,
}

/// One recorded cost-model evaluation from a settle: which edge, its link
/// type (so the replay reads the capacity without locating the edge in the
/// snapshot), and whether the bandwidth prune passed.
#[derive(Debug, Clone, Copy)]
struct EdgeEval {
    edge: EdgeId,
    link_type: LinkType,
    feasible: bool,
}

#[derive(Debug, Clone)]
struct SptEntry {
    tree: SettledTree,
    /// Every bandwidth-prune evaluation of the settle — the revalidation
    /// transcript (empty for `strict` entries).
    evals: Vec<EdgeEval>,
    /// Energy probes recorded at build, replayed on hits so speculative
    /// phase-2 validation still sees every ledger read (CEAR only).
    probes: Vec<EnergyProbe>,
    /// Strict entries validate only by exact generation + rate match.
    strict: bool,
    slot_gen: u64,
    battery_gen: u64,
    rate_bits: u64,
    tick: u64,
}

/// Outcome of a strict (generation-exact) cache probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StrictLookup {
    /// A stored tree is valid: serve via [`SptCache::strict_entry`].
    Hit,
    /// The key has now been requested twice with stable generations —
    /// build a tree and [`SptCache::insert_strict`] it.
    Build,
    /// First sighting of the key at these generations — search directly.
    Defer,
}

/// Memoized settled shortest-path trees keyed on `(slot, source, cost
/// model)`, validated against the state's coarse slot-bandwidth and
/// battery generations. Bounded LRU (least-recent `tick` evicted).
#[derive(Debug, Clone)]
pub(crate) struct SptCache {
    /// The topology series the entries were built over. Trees and
    /// transcripts index edges of one concrete graph, so a cache shared
    /// across runs (the baselines keep one per thread) must flush when
    /// the series changes; pointer identity is sufficient (any anchored
    /// clone keeps the allocation alive, so `Arc::ptr_eq` cannot alias
    /// two different series).
    anchor: Option<Arc<TopologySeries>>,
    entries: HashMap<SptKey, SptEntry>,
    /// Promotion gate for strict lookups: keys seen once, with the
    /// generations and rate observed at that miss.
    pending: HashMap<SptKey, (u64, u64, u64)>,
    cap: usize,
    tick: u64,
    /// Local counters (also mirrored into the process-wide totals).
    pub(crate) stats: SptStats,
}

impl Default for SptCache {
    /// The default capacity fits a request batch's worth of distinct
    /// `(source, slot)` pairs without unbounded growth.
    fn default() -> Self {
        SptCache::new(64)
    }
}

impl SptCache {
    pub(crate) fn new(cap: usize) -> Self {
        SptCache {
            anchor: None,
            entries: HashMap::new(),
            pending: HashMap::new(),
            cap: cap.max(1),
            tick: 0,
            stats: SptStats::default(),
        }
    }

    /// Re-anchors the cache on `series`, flushing every entry (and the
    /// promotion gate) when it is not the series the entries were built
    /// over. Generation validation alone cannot catch this: edge ids and
    /// tree arrays are only meaningful against their own graph.
    pub(crate) fn ensure_anchor(&mut self, series: &Arc<TopologySeries>) {
        let stale = match &self.anchor {
            Some(a) => !Arc::ptr_eq(a, series),
            None => true,
        };
        if stale {
            self.anchor = Some(Arc::clone(series));
            self.entries.clear();
            self.pending.clear();
        }
    }

    fn insert(&mut self, key: SptKey, entry: SptEntry) {
        if self.entries.len() >= self.cap && !self.entries.contains_key(&key) {
            if let Some(oldest) = self.entries.iter().min_by_key(|(_, e)| e.tick).map(|(k, _)| *k) {
                self.entries.remove(&oldest);
            }
        }
        self.entries.insert(key, entry);
    }

    fn count_hit(&mut self) {
        self.stats.hits += 1;
        GLOBAL_HITS.fetch_add(1, Ordering::Relaxed);
    }

    fn count_miss(&mut self) {
        self.stats.misses += 1;
        GLOBAL_MISSES.fetch_add(1, Ordering::Relaxed);
    }

    fn count_deferred(&mut self) {
        self.stats.deferred += 1;
        GLOBAL_DEFERRED.fetch_add(1, Ordering::Relaxed);
    }

    /// Strict probe: a hit requires exact generation and rate match (no
    /// transcript replay). On miss, the promotion gate decides between
    /// building now and deferring — engine sweeps rarely repeat a
    /// `(source, slot, rate)` key, and a full settle costs far more than
    /// one bounded A\*, so a tree is only built once the key proves it
    /// recurs.
    pub(crate) fn probe_strict(
        &mut self,
        slot: SlotIndex,
        source: NodeId,
        model: u64,
        slot_gen: u64,
        battery_gen: u64,
        rate_bits: u64,
    ) -> StrictLookup {
        self.tick += 1;
        let key = SptKey { slot: slot.0, source: source.0, model };
        if let Some(entry) = self.entries.get_mut(&key) {
            if entry.slot_gen == slot_gen
                && entry.battery_gen == battery_gen
                && entry.rate_bits == rate_bits
            {
                entry.tick = self.tick;
                self.count_hit();
                return StrictLookup::Hit;
            }
        }
        match self.pending.get(&key) {
            Some(&(sg, bg, rb)) if sg == slot_gen && bg == battery_gen && rb == rate_bits => {
                self.pending.remove(&key);
                self.count_miss();
                StrictLookup::Build
            }
            _ => {
                if self.pending.len() >= 1024 {
                    self.pending.clear();
                }
                self.pending.insert(key, (slot_gen, battery_gen, rate_bits));
                self.count_deferred();
                StrictLookup::Defer
            }
        }
    }

    /// The tree and build-time probes behind a [`StrictLookup::Hit`].
    pub(crate) fn strict_entry(
        &self,
        slot: SlotIndex,
        source: NodeId,
        model: u64,
    ) -> (&SettledTree, &[EnergyProbe]) {
        let key = SptKey { slot: slot.0, source: source.0, model };
        let entry = self.entries.get(&key).expect("strict_entry without a Hit probe");
        (&entry.tree, &entry.probes)
    }

    /// Stores a strict entry built after [`StrictLookup::Build`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn insert_strict(
        &mut self,
        slot: SlotIndex,
        source: NodeId,
        model: u64,
        slot_gen: u64,
        battery_gen: u64,
        rate_bits: u64,
        tree: SettledTree,
        probes: Vec<EnergyProbe>,
    ) {
        let key = SptKey { slot: slot.0, source: source.0, model };
        let tick = self.tick;
        self.insert(
            key,
            SptEntry {
                tree,
                evals: Vec::new(),
                probes,
                strict: true,
                slot_gen,
                battery_gen,
                rate_bits,
                tick,
            },
        );
    }
}

/// Routes one baseline slot through the SPT cache: serves from a stored
/// tree when its transcript still validates, otherwise settles a fresh
/// tree (recording the transcript) and stores it. Either way the answer
/// is bitwise what `min_cost_path_in` would have returned, because the
/// settle uses the canonical tie-breaking and destination edges are
/// evaluated fresh by `path_via_tree`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn baseline_route_slot<W>(
    cache: &mut SptCache,
    scratch: &mut SearchScratch,
    state: &NetworkState,
    slot: SlotIndex,
    source: NodeId,
    destination: NodeId,
    rate: f64,
    model: ModelSpec,
    weight: &mut W,
) -> Option<FoundPath>
where
    W: FnMut(&EdgeContext<'_>, SlotIndex, &NetworkState) -> Option<f64>,
{
    debug_assert!(!model.volatile, "a volatile model's weights outlive no commit");
    cache.ensure_anchor(state.series_arc());
    let snapshot = state.series().snapshot(slot);
    let key = SptKey { slot: slot.0, source: source.0, model: model.key };
    let slot_gen = state.slot_bandwidth_gen(slot);
    let battery_gen = state.battery_gen();
    let rate_bits = rate.to_bits();
    cache.tick += 1;
    let tick = cache.tick;

    // Bandwidth prune (7b) from a capacity the caller already holds: a
    // relaxation has the edge, a transcript entry its link type.
    let fits = |edge: EdgeId, capacity_mbps: f64| {
        state.residual_of(slot, edge, capacity_mbps) + 1e-9 >= rate
    };
    let feasible = |ctx: &EdgeContext<'_>| fits(ctx.edge_id, ctx.edge.capacity_mbps);
    let replays = |ev: &EdgeEval| {
        fits(ev.edge, snapshot.capacity_mbps_of(ev.edge, ev.link_type)) == ev.feasible
    };

    if let Some(entry) = cache.entries.get_mut(&key) {
        let unchanged = entry.slot_gen == slot_gen
            && entry.battery_gen == battery_gen
            && entry.rate_bits == rate_bits;
        let valid = unchanged || (!entry.strict && entry.evals.iter().all(replays));
        if valid {
            entry.slot_gen = slot_gen;
            entry.battery_gen = battery_gen;
            entry.rate_bits = rate_bits;
            entry.tick = tick;
            let found = path_via_tree(&entry.tree, snapshot, source, destination, |ctx| {
                if !feasible(ctx) {
                    return None;
                }
                weight(ctx, slot, state)
            });
            cache.count_hit();
            return found;
        }
    }

    let mut evals: Vec<EdgeEval> = Vec::new();
    let tree = settle_tree_in(scratch, snapshot, source, |ctx| {
        let ok = feasible(ctx);
        let w = if ok { weight(ctx, slot, state) } else { None };
        evals.push(EdgeEval { edge: ctx.edge_id, link_type: ctx.edge.link_type, feasible: ok });
        w
    });
    let found = path_via_tree(&tree, snapshot, source, destination, |ctx| {
        if !feasible(ctx) {
            return None;
        }
        weight(ctx, slot, state)
    });
    cache.insert(
        key,
        SptEntry {
            tree,
            evals,
            probes: Vec::new(),
            strict: false,
            slot_gen,
            battery_gen,
            rate_bits,
            tick,
        },
    );
    cache.count_miss();
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_kind_parses_and_rejects() {
        assert_eq!("reference".parse::<SearchKind>().unwrap(), SearchKind::Reference);
        assert_eq!("astar".parse::<SearchKind>().unwrap(), SearchKind::Astar);
        assert!("dijkstra".parse::<SearchKind>().is_err());
        assert!("".parse::<SearchKind>().is_err());
        assert!("Astar".parse::<SearchKind>().is_err());
        assert_eq!(SearchKind::Reference.to_string(), "reference");
        assert_eq!(SearchKind::Astar.to_string(), "astar");
        assert_eq!(SearchKind::default(), SearchKind::Astar);
    }

    #[test]
    fn model_key_separates_models_and_params() {
        let a = model_key(1, &[]);
        let b = model_key(2, &[]);
        let c = model_key(2, &[0.3f64.to_bits()]);
        let d = model_key(2, &[0.35f64.to_bits()]);
        assert_ne!(a, b);
        assert_ne!(c, d);
        assert_eq!(c, model_key(2, &[0.3f64.to_bits()]));
    }

    #[test]
    fn spt_stats_rates() {
        let mut s = SptStats { hits: 3, misses: 1, deferred: 0 };
        assert_eq!(s.lookups(), 4);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        s.merge(&SptStats { hits: 1, misses: 1, deferred: 2 });
        assert_eq!(s, SptStats { hits: 4, misses: 2, deferred: 2 });
        assert_eq!(SptStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn strict_probe_promotes_on_second_sighting() {
        let mut cache = SptCache::new(4);
        let slot = SlotIndex(0);
        let src = NodeId(7);
        assert_eq!(cache.probe_strict(slot, src, 1, 10, 20, 30), StrictLookup::Defer);
        // Different generations re-defer (the pending note is stale).
        assert_eq!(cache.probe_strict(slot, src, 1, 11, 20, 30), StrictLookup::Defer);
        // Same key + same generations: promote.
        assert_eq!(cache.probe_strict(slot, src, 1, 11, 20, 30), StrictLookup::Build);
        cache.insert_strict(
            slot,
            src,
            1,
            11,
            20,
            30,
            SettledTree { dist: vec![], pred: vec![], user_edges: vec![] },
            Vec::new(),
        );
        assert_eq!(cache.probe_strict(slot, src, 1, 11, 20, 30), StrictLookup::Hit);
        // A generation bump invalidates; the stale entry defers again.
        assert_eq!(cache.probe_strict(slot, src, 1, 12, 20, 30), StrictLookup::Defer);
        assert_eq!(cache.stats, SptStats { hits: 1, misses: 1, deferred: 3 });
    }

    #[test]
    fn lru_eviction_keeps_recent_entries() {
        let mut cache = SptCache::new(2);
        let empty = || SettledTree { dist: vec![], pred: vec![], user_edges: vec![] };
        for (i, model) in [1u64, 2, 3].iter().enumerate() {
            // Two sightings to promote, then insert.
            cache.probe_strict(SlotIndex(0), NodeId(i as u32), *model, 1, 1, 1);
            cache.probe_strict(SlotIndex(0), NodeId(i as u32), *model, 1, 1, 1);
            cache.insert_strict(SlotIndex(0), NodeId(i as u32), *model, 1, 1, 1, empty(), vec![]);
        }
        assert_eq!(cache.entries.len(), 2);
        // The first-inserted (oldest-tick) entry was evicted.
        assert_eq!(cache.probe_strict(SlotIndex(0), NodeId(0), 1, 1, 1, 1), StrictLookup::Defer);
        assert_eq!(cache.probe_strict(SlotIndex(0), NodeId(2), 3, 1, 1, 1), StrictLookup::Hit);
    }
}
