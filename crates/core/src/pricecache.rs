//! Memoized exponential unit prices, invalidated by state change epochs.
//!
//! The admission search (Algorithm 1 line 5) evaluates `μ^λ − 1` via
//! `powf` on every edge relaxation and every deficit-trace slot. Between
//! two commits almost every utilization is unchanged — a commit touches
//! only the cells along the accepted plan — so the same `powf` is
//! recomputed thousands of times. [`PriceCache`] memoizes the unit price
//! per (slot, link) and per (satellite, slot) cell and revalidates each
//! entry in O(1) against the state's change epochs
//! ([`NetworkState::bandwidth_epoch`] / [`NetworkState::battery_epoch`]),
//! which advance only on reservation commit, release and repair (repair is
//! release + commit). A hit returns the exact `f64` computed earlier with
//! identical inputs, so cached quotes are bit-identical to uncached ones.
//!
//! One per-slot memo of the quote search lives beside it:
//! `EnergyPriceCache` (one Eq. 12 deficit pricing per `(satellite, role)`).

use crate::pricing;
use crate::state::NetworkState;
use sb_energy::SatelliteRole;
use sb_topology::graph::EdgeId;
use sb_topology::SlotIndex;

/// One memoized unit price. `stamp` holds the epoch of the state cell the
/// price was computed against; the process-wide epoch source starts at 1,
/// so a zeroed cell can never validate.
#[derive(Debug, Clone, Copy)]
struct CacheCell {
    stamp: u64,
    price: f64,
}

const EMPTY: CacheCell = CacheCell { stamp: 0, price: 0.0 };

/// Cached unit prices `μ₁^λ − 1` (links) and `μ₂^λ − 1` (batteries) for
/// one pricing parameterization.
///
/// Correctness does not depend on being attached to a single state: stamps
/// are globally unique epoch values (see `EPOCH_SOURCE` in the state
/// module), so an entry validates only against a cell that provably still
/// holds the value the price was computed from — even across state clones
/// or a different state of the same shape. The cache is an acceleration
/// only; one instance must simply never mix `μ` parameterizations.
#[derive(Debug, Clone)]
pub struct PriceCache {
    mu1: f64,
    mu2: f64,
    /// Per slot, per edge id: cached `unit_price(mu1, λ_e)`.
    link: Vec<Vec<CacheCell>>,
    /// Per ledger flat index (satellite-major): cached `unit_price(mu2,
    /// battery_utilization)`.
    battery: Vec<CacheCell>,
}

impl PriceCache {
    /// An empty cache pricing links with `mu1` and batteries with `mu2`.
    pub fn new(mu1: f64, mu2: f64) -> Self {
        PriceCache { mu1, mu2, link: Vec::new(), battery: Vec::new() }
    }

    /// A cache with every row already at `state`'s size, so quoting never
    /// grows it (it would otherwise grow edge by edge on first use).
    pub fn sized_for(mu1: f64, mu2: f64, state: &NetworkState) -> Self {
        let link = state
            .series()
            .snapshots()
            .iter()
            .map(|snapshot| vec![EMPTY; snapshot.num_edges()])
            .collect();
        let battery = vec![EMPTY; state.num_satellites() * state.horizon()];
        PriceCache { mu1, mu2, link, battery }
    }

    /// The link price base `μ₁`.
    pub fn mu1(&self) -> f64 {
        self.mu1
    }

    /// The battery price base `μ₂`.
    pub fn mu2(&self) -> f64 {
        self.mu2
    }

    /// The unit congestion price `μ₁^{λ_e(slot)} − 1` of `(slot, edge)`,
    /// memoized until the underlying reservation cell changes.
    #[inline]
    pub fn link_unit_price(&mut self, state: &NetworkState, slot: SlotIndex, edge: EdgeId) -> f64 {
        if self.link.len() < state.horizon() {
            self.link.resize(state.horizon(), Vec::new());
        }
        let row = &mut self.link[slot.index()];
        if row.len() <= edge.index() {
            row.resize(edge.index() + 1, EMPTY);
        }
        let epoch = state.bandwidth_epoch(slot, edge);
        let cell = &mut row[edge.index()];
        if cell.stamp != epoch {
            cell.price = pricing::unit_price(self.mu1, state.utilization(slot, edge));
            cell.stamp = epoch;
        }
        cell.price
    }

    /// The unit energy price `μ₂^{λ_s(t)} − 1` of satellite `sat` at slot
    /// `t`, memoized until the satellite's deficit cell changes.
    #[inline]
    pub fn battery_unit_price(&mut self, state: &NetworkState, sat: usize, t: usize) -> f64 {
        let i = state.ledger().flat_index(sat, t);
        if self.battery.len() <= i {
            self.battery.resize(i + 1, EMPTY);
        }
        let epoch = state.battery_epoch(sat, t);
        let cell = &mut self.battery[i];
        if cell.stamp != epoch {
            cell.price = pricing::unit_price(self.mu2, state.ledger().battery_utilization(sat, t));
            cell.stamp = epoch;
        }
        cell.price
    }
}

/// Index of a role in the flat [`EnergyPriceCache`] (4 variants).
#[inline]
fn role_index(role: SatelliteRole) -> usize {
    match role {
        SatelliteRole::Middle => 0,
        SatelliteRole::IngressGateway => 1,
        SatelliteRole::EgressGateway => 2,
        SatelliteRole::BentPipe => 3,
    }
}

/// One memoized per-slot energy evaluation.
#[derive(Debug, Clone, Copy)]
struct EnergyCell {
    stamp: u32,
    /// The Eq. (12) deficit price, `None` when the battery cannot absorb
    /// the consumption (constraint 7c).
    price: Option<f64>,
}

const EMPTY_ENERGY: EnergyCell = EnergyCell { stamp: 0, price: None };

/// The per-slot `(satellite, role) → Option<price>` energy memo of the
/// quote search, as a generation-stamped flat array.
///
/// The search queries the same satellite in the same role many times per
/// slot (once per out-edge relaxation); the memo makes each distinct pair
/// cost one deficit-trace recursion. The array lives across quotes, and
/// starting a new slot is O(1): bump the generation, exactly like
/// [`SearchScratch`](crate::search::SearchScratch)'s arena reset. Each pair
/// is computed exactly once per slot, in first-query order, so quotes are
/// bit-identical to an unmemoized search.
#[derive(Debug, Clone, Default)]
pub(crate) struct EnergyPriceCache {
    /// `sat * 4 + role_index(role)`; entry valid iff its stamp matches the
    /// current generation.
    cells: Vec<EnergyCell>,
    generation: u32,
}

impl EnergyPriceCache {
    /// Starts a new slot: grows to `num_satellites` satellites if needed
    /// and invalidates every entry by advancing the generation.
    pub(crate) fn begin_slot(&mut self, num_satellites: usize) {
        let n = num_satellites * 4;
        if self.cells.len() < n {
            self.cells.resize(n, EMPTY_ENERGY);
        }
        self.generation = match self.generation.checked_add(1) {
            Some(g) => g,
            None => {
                // Wrapped after 2^32 slots: restamp everything once.
                self.cells.fill(EMPTY_ENERGY);
                1
            }
        };
    }

    /// The memoized energy evaluation of `(sat, role)` for the current
    /// slot, computing it with `f` on first query.
    #[inline]
    pub(crate) fn get_or_insert_with(
        &mut self,
        sat: usize,
        role: SatelliteRole,
        f: impl FnOnce() -> Option<f64>,
    ) -> Option<f64> {
        let cell = &mut self.cells[sat * 4 + role_index(role)];
        if cell.stamp != self.generation {
            cell.price = f();
            cell.stamp = self.generation;
        }
        cell.price
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CearParams;
    use crate::plan::{ReservationPlan, SlotPath};
    use sb_demand::{RateProfile, Request, RequestId};
    use sb_energy::EnergyParams;
    use sb_geo::coords::Geodetic;
    use sb_orbit::walker::WalkerConstellation;
    use sb_topology::{NetworkNodes, NodeId, TopologyConfig, TopologySeries};

    fn build_state() -> (NetworkState, NodeId, NodeId) {
        let shell = WalkerConstellation::delta(12, 12, 1, 550e3, 53f64.to_radians());
        let mut nodes = NetworkNodes::from_walker(&shell);
        let a = nodes.add_ground_site(Geodetic::from_degrees(35.8, -78.6, 0.0));
        let b = nodes.add_ground_site(Geodetic::from_degrees(40.7, -74.0, 0.0));
        let cfg =
            TopologyConfig { min_elevation_rad: 10f64.to_radians(), ..TopologyConfig::default() };
        let series = TopologySeries::build(&nodes, &cfg, 3, 60.0);
        (NetworkState::new(series, &EnergyParams::default()), a, b)
    }

    /// A 1-slot user→sat→user plan along real snapshot edges, when the
    /// geometry provides one.
    fn direct_plan(state: &NetworkState, src: NodeId, dst: NodeId) -> Option<ReservationPlan> {
        let slot = SlotIndex(0);
        let snap = state.series().snapshot(slot);
        for (e1, edge1) in snap.out_edges(src) {
            if let Some(e2) = snap.find_edge(edge1.dst, dst) {
                return Some(ReservationPlan {
                    slot_paths: vec![SlotPath {
                        slot,
                        nodes: vec![src, edge1.dst, dst],
                        edges: vec![e1, e2],
                    }],
                    total_cost: 0.0,
                });
            }
        }
        None
    }

    fn request(src: NodeId, dst: NodeId, rate: f64) -> Request {
        Request {
            id: RequestId(0),
            source: src,
            destination: dst,
            rate: RateProfile::Constant(rate),
            start: SlotIndex(0),
            end: SlotIndex(0),
            valuation: f64::MAX,
        }
    }

    fn fresh_link_price(state: &NetworkState, mu1: f64, slot: SlotIndex, edge: EdgeId) -> f64 {
        pricing::unit_price(mu1, state.utilization(slot, edge))
    }

    #[test]
    fn cached_prices_match_fresh_computation_bitwise() {
        let (mut state, src, dst) = build_state();
        let params = CearParams::default();
        let mut cache = PriceCache::new(params.mu1(), params.mu2());
        let Some(plan) = direct_plan(&state, src, dst) else { return };
        let req = request(src, dst, 1100.0);
        state.try_commit_plan(&req, &plan).unwrap();

        let slot = SlotIndex(0);
        let n_edges = state.series().snapshot(slot).num_edges();
        for i in 0..n_edges {
            let e = EdgeId(i as u32);
            let cached = cache.link_unit_price(&state, slot, e);
            let fresh = fresh_link_price(&state, params.mu1(), slot, e);
            assert_eq!(cached.to_bits(), fresh.to_bits(), "edge {i} first read");
            // Second read is a hit and must return the identical bits.
            assert_eq!(cache.link_unit_price(&state, slot, e).to_bits(), fresh.to_bits());
        }
        for sat in 0..state.num_satellites() {
            for t in 0..state.horizon() {
                let cached = cache.battery_unit_price(&state, sat, t);
                let fresh =
                    pricing::unit_price(params.mu2(), state.ledger().battery_utilization(sat, t));
                assert_eq!(cached.to_bits(), fresh.to_bits(), "sat {sat} slot {t}");
            }
        }
    }

    #[test]
    fn commit_invalidates_touched_cells_only() {
        let (mut state, src, dst) = build_state();
        let params = CearParams::default();
        let mut cache = PriceCache::new(params.mu1(), params.mu2());
        let Some(plan) = direct_plan(&state, src, dst) else { return };
        let slot = SlotIndex(0);

        // Warm the cache over every edge, then commit a booking.
        let n_edges = state.series().snapshot(slot).num_edges();
        for i in 0..n_edges {
            let _ = cache.link_unit_price(&state, slot, EdgeId(i as u32));
        }
        let req = request(src, dst, 1300.0);
        state.try_commit_plan(&req, &plan).unwrap();

        // Every cell — touched (recomputed) or not (hit) — must agree with
        // a fresh computation against the new state.
        for i in 0..n_edges {
            let e = EdgeId(i as u32);
            assert_eq!(
                cache.link_unit_price(&state, slot, e).to_bits(),
                fresh_link_price(&state, params.mu1(), slot, e).to_bits(),
                "edge {i} after commit"
            );
        }
        // The booked edges now price above zero, proving invalidation.
        for &e in &plan.slot_paths[0].edges {
            assert!(cache.link_unit_price(&state, slot, e) > 0.0);
        }
    }

    #[test]
    fn release_and_debug_mutation_invalidate() {
        let (mut state, src, dst) = build_state();
        let params = CearParams::default();
        let mut cache = PriceCache::new(params.mu1(), params.mu2());
        let Some(plan) = direct_plan(&state, src, dst) else { return };
        let req = request(src, dst, 900.0);
        state.try_commit_plan(&req, &plan).unwrap();
        let id = state.last_booking().unwrap();
        let slot = SlotIndex(0);
        let e = plan.slot_paths[0].edges[0];

        assert!(cache.link_unit_price(&state, slot, e) > 0.0);
        state.release_from(id, slot);
        assert_eq!(cache.link_unit_price(&state, slot, e), 0.0, "release must invalidate");

        state.debug_set_reserved(slot, e, 2000.0);
        assert_eq!(
            cache.link_unit_price(&state, slot, e).to_bits(),
            fresh_link_price(&state, params.mu1(), slot, e).to_bits()
        );

        // debug_ledger_mut conservatively invalidates all battery cells.
        let sat = state.satellite_index(plan.slot_paths[0].nodes[1]).unwrap();
        let before = cache.battery_unit_price(&state, sat, 0);
        state.debug_ledger_mut().commit(sat, 0, 50_000.0);
        let after = cache.battery_unit_price(&state, sat, 0);
        assert!(after > before, "ledger mutation must be repriced ({before} → {after})");
    }

    #[test]
    fn one_cache_is_safe_across_diverged_clones() {
        // Two clones mutate the same cell differently; a cache shared
        // between them must never serve one clone's price to the other.
        let (state_a, src, dst) = build_state();
        let mut a = state_a;
        let mut b = a.clone();
        let Some(plan) = direct_plan(&a, src, dst) else { return };
        let e = plan.slot_paths[0].edges[0];
        let slot = SlotIndex(0);
        a.try_commit_plan(&request(src, dst, 400.0), &plan).unwrap();
        b.try_commit_plan(&request(src, dst, 3600.0), &plan).unwrap();

        let params = CearParams::default();
        let mut cache = PriceCache::new(params.mu1(), params.mu2());
        for _ in 0..2 {
            assert_eq!(
                cache.link_unit_price(&a, slot, e).to_bits(),
                fresh_link_price(&a, params.mu1(), slot, e).to_bits()
            );
            assert_eq!(
                cache.link_unit_price(&b, slot, e).to_bits(),
                fresh_link_price(&b, params.mu1(), slot, e).to_bits()
            );
        }
        assert!(cache.link_unit_price(&a, slot, e) < cache.link_unit_price(&b, slot, e));
    }

    #[test]
    fn energy_price_cache_generations_isolate_slots() {
        let mut cache = EnergyPriceCache::default();
        cache.begin_slot(2);
        let mut calls = 0;
        let v = cache.get_or_insert_with(1, SatelliteRole::Middle, || {
            calls += 1;
            Some(2.5)
        });
        assert_eq!(v, Some(2.5));
        // Hit: the closure must not run again within the slot.
        let v = cache.get_or_insert_with(1, SatelliteRole::Middle, || {
            calls += 1;
            Some(9.9)
        });
        assert_eq!(v, Some(2.5));
        assert_eq!(calls, 1);
        // Distinct role, same satellite: its own cell.
        let v = cache.get_or_insert_with(1, SatelliteRole::BentPipe, || None);
        assert_eq!(v, None);
        // New slot invalidates everything in O(1).
        cache.begin_slot(2);
        let v = cache.get_or_insert_with(1, SatelliteRole::Middle, || Some(7.0));
        assert_eq!(v, Some(7.0));
    }
}
