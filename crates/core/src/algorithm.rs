//! The online decision interface and the CEAR algorithm (Algorithm 1).

use crate::params::CearParams;
use crate::plan::{ReservationPlan, SlotPath};
use crate::pricecache::{EnergyPriceCache, PriceCache};
use crate::pricing;
use crate::search::{min_cost_path_in, EdgeContext, FoundPath, SearchScratch, SearchStats};
use crate::state::{EpochReadSet, NetworkState};
use sb_demand::Request;
use sb_energy::{LedgerOverlay, SatelliteRole};
use sb_topology::{LinkType, SlotIndex};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// Why a request was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RejectReason {
    /// No feasible path existed in some active slot (capacity or battery
    /// constraints prune every route).
    NoFeasiblePath,
    /// A plan existed but its price exceeded the request's valuation
    /// (CEAR's admission control, Algorithm 1 line 6).
    PriceAboveValuation,
    /// The plan failed atomic validation at commit time (cross-slot energy
    /// interaction discovered after per-slot search).
    CommitFailed,
}

impl core::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RejectReason::NoFeasiblePath => write!(f, "no feasible path"),
            RejectReason::PriceAboveValuation => write!(f, "price above valuation"),
            RejectReason::CommitFailed => write!(f, "commit failed"),
        }
    }
}

/// The outcome of processing one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// The request was admitted; resources are reserved.
    Accepted {
        /// The committed reservation plan.
        plan: ReservationPlan,
        /// The price charged (`π_i`) — the plan's total cost at decision
        /// time for CEAR, zero for price-oblivious baselines.
        price: f64,
    },
    /// The request was rejected; no resources were touched.
    Rejected {
        /// Why.
        reason: RejectReason,
    },
}

impl Decision {
    /// `true` when the request was admitted (`x_i = 1`).
    pub fn is_accepted(&self) -> bool {
        matches!(self, Decision::Accepted { .. })
    }
}

/// An online routing-and-reservation algorithm: processes requests one at a
/// time, mutating the shared [`NetworkState`] on acceptance.
pub trait RoutingAlgorithm {
    /// A short stable name for reports ("CEAR", "SSP", …).
    fn name(&self) -> &'static str;

    /// Processes one request: route, decide, and (on acceptance) commit.
    fn process(&mut self, request: &Request, state: &mut NetworkState) -> Decision;

    /// Computes the plan this algorithm would reserve for `request` under
    /// the current state, and its price, **without committing** — the
    /// routing half of [`RoutingAlgorithm::process`], exposed so plan
    /// *repair* can re-run any algorithm's search for a broken
    /// reservation's suffix. Edges listed in `known` are treated as down
    /// and pruned from the search (price-oblivious baselines quote 0.0).
    ///
    /// # Errors
    ///
    /// The [`RejectReason`] the search produced (admission control is the
    /// caller's job — see [`crate::lifecycle::try_repair`]).
    fn quote_plan(
        &self,
        request: &Request,
        state: &NetworkState,
        known: Option<&crate::lifecycle::KnownFailures>,
    ) -> Result<(ReservationPlan, f64), RejectReason>;
}

/// The CEAR algorithm: exponential pricing with admission control.
///
/// See the crate-level documentation for the full story; in short, each
/// active slot is routed by a min-cost search under the prices of Eqs.
/// (10)–(12), and the request is accepted iff the summed price is at most
/// its valuation.
#[derive(Debug, Clone)]
pub struct Cear {
    pub(crate) params: CearParams,
    pub(crate) ablation: AblationFlags,
    /// Reused Dijkstra arena and memoized unit prices. Interior mutability
    /// because quoting is logically read-only; the caches are pure
    /// acceleration — every quote is bit-identical with or without them
    /// (see `tests::cached_quotes_match_reference_bitwise`).
    hot: RefCell<CearHot>,
    /// `false` runs the pre-cache reference path (fresh allocations,
    /// direct `powf`) for equivalence testing — see [`Cear::reference`].
    use_caches: bool,
}

/// The per-instance acceleration state behind [`Cear`]'s quote path.
#[derive(Debug, Clone, Default)]
struct CearHot {
    scratch: SearchScratch,
    /// Built lazily on first quote (needs `μ₁, μ₂`); stays `None` on the
    /// reference path, which prices by direct `powf`.
    prices: Option<PriceCache>,
    /// Per-slot `(satellite, role)` energy memo.
    energy: EnergyPriceCache,
}

/// Which of CEAR's three mechanisms are active — for ablation studies.
///
/// Feasibility (constraints 7b/7c) is always enforced; the flags only
/// control what enters the *price*. With everything off, CEAR degenerates
/// to a feasibility-greedy min-hop-ish router (the tie-break epsilon is
/// all that remains of the cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AblationFlags {
    /// Include the bandwidth (congestion) term of Eq. (12).
    pub price_bandwidth: bool,
    /// Include the battery-deficit term of Eq. (12).
    pub price_energy: bool,
    /// Reject requests whose plan price exceeds their valuation
    /// (Algorithm 1 line 6).
    pub admission_control: bool,
}

impl Default for AblationFlags {
    fn default() -> Self {
        AblationFlags { price_bandwidth: true, price_energy: true, admission_control: true }
    }
}

impl AblationFlags {
    /// A short suffix naming the ablation, e.g. `"-noenergy"`; empty for
    /// the full algorithm.
    pub fn suffix(&self) -> &'static str {
        match (self.price_bandwidth, self.price_energy, self.admission_control) {
            (true, true, true) => "",
            (false, true, true) => "-nobw",
            (true, false, true) => "-noenergy",
            (true, true, false) => "-noadmission",
            (false, false, true) => "-noprice",
            _ => "-custom",
        }
    }
}

impl Cear {
    /// Creates CEAR with the given pricing parameters.
    pub fn new(params: CearParams) -> Self {
        Cear {
            params,
            ablation: AblationFlags::default(),
            hot: RefCell::new(CearHot::default()),
            use_caches: true,
        }
    }

    /// Creates CEAR with its price cache allocated at `state`'s full size
    /// on the calling thread (see [`PriceCache::sized_for`]) — for a caller
    /// that hands the instance to another thread to quote on.
    pub fn sized_for(params: CearParams, state: &NetworkState) -> Self {
        let cear = Cear::new(params);
        cear.hot.borrow_mut().prices =
            Some(PriceCache::sized_for(params.mu1(), params.mu2(), state));
        cear
    }

    /// Search-work counters accumulated by this instance's quotes — for
    /// the perf harness. A [`Cear::reference`] instance searches in
    /// throwaway memory and counts nothing.
    pub fn quote_stats(&self) -> QuoteStats {
        QuoteStats { search: self.hot.borrow().scratch.stats(), ..QuoteStats::default() }
    }

    /// Creates an ablated CEAR variant (for the ablation benches).
    pub fn with_ablation(params: CearParams, ablation: AblationFlags) -> Self {
        Cear { ablation, ..Cear::new(params) }
    }

    /// Creates CEAR with the hot-path caches disabled: every quote
    /// allocates fresh search memory and evaluates every `μ^λ` via `powf`.
    ///
    /// This is the pre-optimization code path, kept so equivalence tests
    /// (and anyone suspicious of a cache) can prove decisions and prices
    /// are bit-identical to the accelerated path.
    pub fn reference(params: CearParams) -> Self {
        Cear { use_caches: false, ..Cear::new(params) }
    }

    /// The pricing parameters in use.
    pub fn params(&self) -> &CearParams {
        &self.params
    }

    /// The active ablation flags.
    pub fn ablation(&self) -> &AblationFlags {
        &self.ablation
    }
}

/// Per-hop tie-breaking epsilon (scaled by `1 + rate`): on an idle network
/// every resource prices at zero (`μ^0 − 1 = 0`), so without it Dijkstra
/// may return arbitrarily long zero-cost walks that waste resources
/// without affecting the quoted price. It is *excluded* from the quoted
/// plan cost.
const HOP_TIEBREAK: f64 = 1e-6;

impl Cear {
    /// Computes the minimum-price reservation plan and its quoted price
    /// for `request` under the current network state, **without deciding
    /// or committing anything** — the "how much would this booking cost
    /// right now?" API.
    ///
    /// # Errors
    ///
    /// Returns the [`RejectReason`] that [`RoutingAlgorithm::process`]
    /// would produce: [`RejectReason::NoFeasiblePath`] when some active
    /// slot has no capacity- and battery-feasible route, or
    /// [`RejectReason::CommitFailed`] in the degenerate case of a path
    /// revisiting a satellite.
    pub fn quote(
        &self,
        request: &Request,
        state: &NetworkState,
    ) -> Result<(ReservationPlan, f64), RejectReason> {
        self.quote_avoiding(request, state, None)
    }

    /// [`Cear::quote`] with a set of known-down edges pruned from the
    /// search — the repair path's entry point.
    pub fn quote_avoiding(
        &self,
        request: &Request,
        state: &NetworkState,
        known: Option<&crate::lifecycle::KnownFailures>,
    ) -> Result<(ReservationPlan, f64), RejectReason> {
        self.quote_with(request, state, known, None)
    }

    /// [`Cear::quote`] that also returns the epoch read-set of every
    /// resource cell the search consulted — the optimistic-concurrency
    /// entry point for `sb-serve`'s quote workers.
    ///
    /// Recording changes no arithmetic — the quote is bit-identical either
    /// way. The read set is returned for **rejections too** — a rejection
    /// is as much a function of the cells read as an admission is, and a
    /// committer must revalidate it before answering honestly, or a
    /// concurrent release could have made the path affordable.
    pub fn quote_recording(
        &self,
        request: &Request,
        state: &NetworkState,
    ) -> (Result<(ReservationPlan, f64), RejectReason>, EpochReadSet) {
        let mut reads = EpochReadSet::new();
        let result = self.quote_with(request, state, None, Some(&mut reads));
        reads.normalize();
        (result, reads)
    }

    /// The quote body behind every entry point — Algorithm 1 line 5, one
    /// min-price path per active slot. `known` prunes known-down edges;
    /// when `reads` is `Some`, every resource cell the search consults is
    /// recorded at its current epoch (see [`EpochReadSet`]).
    fn quote_with(
        &self,
        request: &Request,
        state: &NetworkState,
        known: Option<&crate::lifecycle::KnownFailures>,
        mut reads: Option<&mut EpochReadSet>,
    ) -> Result<(ReservationPlan, f64), RejectReason> {
        // The retained arenas and memoized prices, or — on the reference
        // path — throwaways with no price cache. Both evaluate the same
        // arithmetic in the same order, so the result is bit-identical.
        let mut retained;
        let mut throwaway;
        let hot: &mut CearHot = if self.use_caches {
            retained = self.hot.borrow_mut();
            if retained.prices.is_none() {
                retained.prices = Some(PriceCache::new(self.params.mu1(), self.params.mu2()));
            }
            &mut retained
        } else {
            throwaway = CearHot::default();
            &mut throwaway
        };
        // Successive slots are searched against a transactional overlay that
        // carries the request's *own* consumption forward — a plan feasible
        // slot-by-slot in isolation can over-draw a battery jointly, because
        // its early slots consume the solar energy its late slots counted
        // on. Prices (σ) still use the pre-request utilizations, per the
        // paper's "before the i-th request arrives" definition (Eqs. 8–9).
        let mut tx = state.ledger().overlay();
        let mut slot_paths = Vec::with_capacity(request.duration_slots());
        let mut total_cost = 0.0;
        let slot_s = state.slot_duration_s();
        let energy = state.energy_params();
        for slot in request.active_slots() {
            let found = self
                .search_slot(request, state, known, slot, &tx, hot, reads.as_deref_mut())
                .ok_or(RejectReason::NoFeasiblePath)?;
            // Fold the slot into the quote: strip the tie-break epsilon
            // from the accumulated cost, and roll the slot's consumption
            // into the overlay so later slots of the same request see it.
            let rate = request.rate_at(slot);
            total_cost +=
                (found.cost - HOP_TIEBREAK * (1.0 + rate) * found.edges.len() as f64).max(0.0);
            let sp = SlotPath { slot, nodes: found.nodes, edges: found.edges };
            for (node, role) in sp.satellite_roles(state.series().snapshot(slot)) {
                let sat = state.satellite_index(node).expect("role on non-satellite");
                let consumption = energy.consumption_j(role, rate, slot_s);
                if tx.try_commit(sat, slot.index(), consumption).is_none() {
                    // Only reachable when a path revisits a satellite
                    // (a zero-cost walk) — reject conservatively.
                    return Err(RejectReason::CommitFailed);
                }
            }
            slot_paths.push(sp);
        }
        let plan = ReservationPlan { slot_paths, total_cost };
        Ok((plan, total_cost))
    }

    /// Searches one active slot's min-price path for `request` against the
    /// energy overlay `tx` — the per-slot kernel of Algorithm 1 line 5.
    #[allow(clippy::too_many_arguments)] // what to route, where, and what the search may write
    fn search_slot(
        &self,
        request: &Request,
        state: &NetworkState,
        known: Option<&crate::lifecycle::KnownFailures>,
        slot: SlotIndex,
        tx: &LedgerOverlay<'_>,
        hot: &mut CearHot,
        mut reads: Option<&mut EpochReadSet>,
    ) -> Option<FoundPath> {
        let ablation = self.ablation;
        let mu1 = self.params.mu1();
        let mu2 = self.params.mu2();
        let slot_s = state.slot_duration_s();
        let energy = state.energy_params();
        let ledger = state.ledger();
        let snapshot = state.series().snapshot(slot);
        let rate = request.rate_at(slot);
        let t = slot.index();
        let CearHot { scratch, prices, energy: energy_cache } = hot;
        // Energy cost of satellite `sat` playing `role` at this slot, memoized
        // per (sat, role): the deficit trace priced per Eq. (12), or None when
        // the battery cannot absorb the consumption.
        energy_cache.begin_slot(state.num_satellites());
        let cost_fn = |ctx: &EdgeContext<'_>| {
            // Known-down edges are gone, whatever the price says.
            if known.is_some_and(|k| k.is_down(slot, ctx.edge_id)) {
                return None;
            }
            // Every relaxation below reads the cell's reservation
            // (residual and, when priced, utilization) — record it
            // before the first read so rejected edges are in the read
            // set too: a foreign commit that frees capacity on one of
            // them could flip the quote.
            if let Some(rec) = reads.as_deref_mut() {
                rec.record_bandwidth(state, slot, ctx.edge_id);
            }
            // Bandwidth feasibility (7b) and price. The relaxation
            // holds the edge, so its capacity costs no lookup.
            let capacity = ctx.edge.capacity_mbps;
            if state.residual_of(slot, ctx.edge_id, capacity) + 1e-9 < rate {
                return None;
            }
            let mut cost = HOP_TIEBREAK * (1.0 + rate);
            if ablation.price_bandwidth {
                // Cached and fresh paths compute the same
                // `rate · (μ₁^λ − 1)` product bit-identically.
                cost += match prices.as_mut() {
                    Some(pc) => rate * pc.link_unit_price(state, slot, ctx.edge_id),
                    None => pricing::bandwidth_price(
                        mu1,
                        state.utilization_of(slot, ctx.edge_id, capacity),
                        rate,
                    ),
                };
            }
            // Energy feasibility (7c) and price for the edge's source
            // satellite in its role.
            if let Some(sat) = state.satellite_index(ctx.edge.src) {
                let role = SatelliteRole::from_link_types(
                    ctx.incoming == Some(LinkType::Isl),
                    ctx.edge.link_type == LinkType::Isl,
                );
                let cached = energy_cache.get_or_insert_with(sat, role, || {
                    // First probe of this satellite in this slot: the
                    // peek and the pricing below read its deficit row,
                    // so record it.
                    if let Some(rec) = reads.as_deref_mut() {
                        rec.record_battery_row(state, sat);
                    }
                    let consumption = energy.consumption_j(role, rate, slot_s);
                    let trace = tx.peek(sat, t, consumption)?;
                    Some(match prices.as_mut() {
                        Some(pc) => pricing::deficit_price_with(&trace, |tt| {
                            pc.battery_unit_price(state, sat, tt)
                        }),
                        None => pricing::deficit_price(mu2, &trace, |tt| {
                            ledger.battery_utilization(sat, tt)
                        }),
                    })
                });
                // Feasibility always applies; the price only when the
                // energy term is not ablated.
                let energy_price = cached?;
                if ablation.price_energy {
                    cost += energy_price;
                }
            }
            Some(cost)
        };
        min_cost_path_in(scratch, snapshot, request.source, request.destination, cost_fn)
    }
}

impl RoutingAlgorithm for Cear {
    fn name(&self) -> &'static str {
        "CEAR"
    }

    fn process(&mut self, request: &Request, state: &mut NetworkState) -> Decision {
        let (plan, price) = match self.quote(request, state) {
            Ok(found) => found,
            Err(reason) => return Decision::Rejected { reason },
        };

        // Algorithm 1 line 6: admission control.
        if self.ablation.admission_control && price > request.valuation {
            return Decision::Rejected { reason: RejectReason::PriceAboveValuation };
        }

        match state.try_commit_plan(request, &plan) {
            Ok(()) => Decision::Accepted { plan, price },
            Err(_) => Decision::Rejected { reason: RejectReason::CommitFailed },
        }
    }

    fn quote_plan(
        &self,
        request: &Request,
        state: &NetworkState,
        known: Option<&crate::lifecycle::KnownFailures>,
    ) -> Result<(ReservationPlan, f64), RejectReason> {
        self.quote_avoiding(request, state, known)
    }
}

/// Independently computes the Eq. (12) cost of one slot path under the
/// *current* (pre-commit) state — used both by the admission test and by
/// tests cross-checking the search.
pub fn plan_slot_cost(
    sp: &SlotPath,
    request: &Request,
    state: &NetworkState,
    mu1: f64,
    mu2: f64,
) -> f64 {
    let snapshot = state.series().snapshot(sp.slot);
    let rate = request.rate_at(sp.slot);
    let slot_s = state.slot_duration_s();
    let ledger = state.ledger();
    let params = state.energy_params();

    let mut cost = 0.0;
    for &e in &sp.edges {
        cost += pricing::bandwidth_price(mu1, state.utilization(sp.slot, e), rate);
    }
    for (node, role) in sp.satellite_roles(snapshot) {
        let sat = state.satellite_index(node).expect("role on non-satellite");
        let consumption = params.consumption_j(role, rate, slot_s);
        let trace = ledger
            .peek(sat, sp.slot.index(), consumption)
            .expect("committed path must be energy-feasible");
        cost += pricing::deficit_price(mu2, &trace, |tt| ledger.battery_utilization(sat, tt));
    }
    cost
}

/// Counters accumulated over an instance's quotes — see
/// [`Cear::quote_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuoteStats {
    /// Search work counters of the instance's arena (see [`SearchStats`]).
    pub search: SearchStats,
    // The rest is always zero: see the compatibility block in `lib.rs`.
    #[doc(hidden)]
    pub spt: crate::SptStats,
    #[doc(hidden)]
    pub speculated_slots: u64,
    #[doc(hidden)]
    pub validated_slots: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_demand::{RateProfile, RequestId};
    use sb_energy::EnergyParams;
    use sb_geo::coords::Geodetic;
    use sb_orbit::walker::WalkerConstellation;
    use sb_topology::graph::EdgeId;
    use sb_topology::{NetworkNodes, NodeId, SlotIndex, TopologyConfig, TopologySeries};

    fn build_state(slots: usize) -> (NetworkState, NodeId, NodeId) {
        build_state_with(slots, &EnergyParams::default())
    }

    fn build_state_with(slots: usize, energy: &EnergyParams) -> (NetworkState, NodeId, NodeId) {
        let shell = WalkerConstellation::delta(12, 12, 1, 550e3, 53f64.to_radians());
        let mut nodes = NetworkNodes::from_walker(&shell);
        let a = nodes.add_ground_site(Geodetic::from_degrees(35.8, -78.6, 0.0));
        let b = nodes.add_ground_site(Geodetic::from_degrees(48.9, 2.3, 0.0));
        // A 144-satellite shell needs a lower elevation mask than the
        // paper-scale 1584-satellite shell for continuous coverage.
        let cfg =
            TopologyConfig { min_elevation_rad: 10f64.to_radians(), ..TopologyConfig::default() };
        let series = TopologySeries::build(&nodes, &cfg, slots, 60.0);
        (NetworkState::new(series, energy), a, b)
    }

    fn request(src: NodeId, dst: NodeId, rate: f64, start: u32, end: u32, value: f64) -> Request {
        Request {
            id: RequestId(0),
            source: src,
            destination: dst,
            rate: RateProfile::Constant(rate),
            start: SlotIndex(start),
            end: SlotIndex(end),
            valuation: value,
        }
    }

    #[test]
    fn accepts_first_request_on_empty_network() {
        let (mut state, src, dst) = build_state(3);
        let mut cear = Cear::new(CearParams::default());
        let req = request(src, dst, 1000.0, 0, 2, 2.3e9);
        let decision = cear.process(&req, &mut state);
        let Decision::Accepted { plan, price } = decision else {
            panic!("expected acceptance, got {decision:?}");
        };
        assert_eq!(plan.slot_paths.len(), 3);
        // First request on a fresh network: bandwidth is free (λ=0) but
        // energy may already cost if the consumption exceeds solar input.
        assert!(price >= 0.0);
        assert!(price <= 2.3e9);
    }

    #[test]
    fn quoted_price_matches_eq12_for_single_slot_request() {
        // For a single-slot request the overlay is empty during the
        // search, so the quoted price must equal the Eq.-12 cost of the
        // chosen path recomputed independently against the pre-request
        // state.
        let (mut state, src, dst) = build_state(1);
        let mut cear = Cear::new(CearParams::default());
        let req = request(src, dst, 1000.0, 0, 0, 2.3e9);
        let before = state.clone();
        let Decision::Accepted { plan, price } = cear.process(&req, &mut state) else {
            panic!("expected acceptance");
        };
        let recomputed = plan_slot_cost(&plan.slot_paths[0], &req, &before, 402.0, 402.0);
        assert!(
            (recomputed - price).abs() < 1e-6 * (1.0 + price),
            "eq12 {recomputed} vs quoted {price}"
        );
        assert!((plan.total_cost - price).abs() < 1e-12);
    }

    #[test]
    fn quote_does_not_mutate_state() {
        let (state, src, dst) = build_state(2);
        let cear = Cear::new(CearParams::default());
        let req = request(src, dst, 1000.0, 0, 1, 2.3e9);
        let before = state.clone();
        let (_, price) = cear.quote(&req, &state).expect("feasible");
        assert!(price >= 0.0);
        assert_eq!(state.series().num_slots(), before.series().num_slots());
        assert_eq!(state.ledger(), before.ledger());
    }

    #[test]
    fn quote_agrees_with_process() {
        let (mut state, src, dst) = build_state(2);
        let mut cear = Cear::new(CearParams::default());
        // Load the network so prices are non-trivial.
        for _ in 0..3 {
            let filler = request(src, dst, 1500.0, 0, 1, f64::MAX);
            let _ = cear.process(&filler, &mut state);
        }
        let req = request(src, dst, 800.0, 0, 1, f64::MAX);
        let (quoted_plan, quoted_price) = cear.quote(&req, &state).expect("feasible");
        let Decision::Accepted { plan, price } = cear.process(&req, &mut state) else {
            panic!("expected acceptance");
        };
        assert_eq!(plan, quoted_plan);
        assert!((price - quoted_price).abs() < 1e-12);
    }

    #[test]
    fn ablated_noadmission_accepts_what_full_cear_prices_out() {
        let (mut state_a, src, dst) = build_state(1);
        let mut state_b = state_a.clone();
        let mut full = Cear::new(CearParams::default());
        let mut greedy = Cear::with_ablation(
            CearParams::default(),
            AblationFlags { admission_control: false, ..AblationFlags::default() },
        );
        // Saturate until the quoted price for the probe is nonzero, then
        // offer a valueless request: full CEAR rejects on price, the
        // no-admission variant accepts while feasible.
        for _ in 0..16 {
            let filler = request(src, dst, 2000.0, 0, 0, f64::MAX);
            let _ = full.process(&filler, &mut state_a);
            let _ = greedy.process(&filler, &mut state_b);
            let probe = request(src, dst, 1000.0, 0, 0, 1e-12);
            if matches!(full.quote(&probe, &state_a), Ok((_, p)) if p > 1e-9) {
                break;
            }
        }
        let cheap = request(src, dst, 1000.0, 0, 0, 1e-12);
        let a = full.process(&cheap, &mut state_a);
        let b = greedy.process(&cheap, &mut state_b);
        assert_eq!(a, Decision::Rejected { reason: RejectReason::PriceAboveValuation });
        assert!(b.is_accepted());
    }

    #[test]
    fn ablation_suffixes() {
        assert_eq!(AblationFlags::default().suffix(), "");
        assert_eq!(
            AblationFlags { price_energy: false, ..AblationFlags::default() }.suffix(),
            "-noenergy"
        );
        assert_eq!(
            AblationFlags { price_bandwidth: false, price_energy: false, admission_control: true }
                .suffix(),
            "-noprice"
        );
    }

    #[test]
    fn rejects_when_valuation_too_low() {
        let (mut state, src, dst) = build_state(2);
        let mut cear = Cear::new(CearParams::default());
        // Saturate the network a bit so prices are nonzero, then send a
        // request that values the service at nearly nothing.
        for _ in 0..3 {
            let filler = request(src, dst, 2000.0, 0, 1, f64::MAX);
            let _ = cear.process(&filler, &mut state);
        }
        let cheap = request(src, dst, 2000.0, 0, 1, 1e-12);
        let decision = cear.process(&cheap, &mut state);
        assert_eq!(decision, Decision::Rejected { reason: RejectReason::PriceAboveValuation });
    }

    #[test]
    fn rejects_unroutable_rate() {
        let (mut state, src, dst) = build_state(1);
        let mut cear = Cear::new(CearParams::default());
        // 5 Gbps exceeds the 4 Gbps USL capacity: no feasible first hop.
        let req = request(src, dst, 5000.0, 0, 0, f64::MAX);
        assert_eq!(
            cear.process(&req, &mut state),
            Decision::Rejected { reason: RejectReason::NoFeasiblePath }
        );
    }

    #[test]
    fn capacity_eventually_exhausted() {
        let (mut state, src, dst) = build_state(1);
        let mut cear = Cear::new(CearParams::default());
        // Each ground user has ≤4 USLs of 4 Gbps: at 2 Gbps per request at
        // most 8 concurrent requests can physically fit.
        let mut accepted = 0;
        for _ in 0..20 {
            let req = request(src, dst, 2000.0, 0, 0, f64::MAX);
            if cear.process(&req, &mut state).is_accepted() {
                accepted += 1;
            }
        }
        assert!(accepted <= 8, "accepted {accepted}");
        assert!(accepted >= 1);
    }

    #[test]
    fn prices_rise_with_utilization() {
        let (mut state, src, dst) = build_state(1);
        let mut cear = Cear::new(CearParams::default());
        let mut last_price = -1.0;
        let mut prices = Vec::new();
        for _ in 0..4 {
            let req = request(src, dst, 1500.0, 0, 0, f64::MAX);
            if let Decision::Accepted { price, .. } = cear.process(&req, &mut state) {
                prices.push(price);
            }
        }
        assert!(prices.len() >= 2, "need at least two acceptances");
        for p in prices {
            assert!(p >= last_price, "prices should be non-decreasing: {p} after {last_price}");
            last_price = p;
        }
    }

    #[test]
    fn accepted_plans_respect_feasibility_invariant() {
        // Lemma 1: after any sequence of accepted requests, no link is
        // over-reserved and no battery is negative.
        let (mut state, src, dst) = build_state(3);
        let mut cear = Cear::new(CearParams::default());
        for k in 0..15 {
            let req = request(src, dst, 500.0 + 100.0 * (k % 5) as f64, 0, 2, f64::MAX);
            let _ = cear.process(&req, &mut state);
        }
        for t in 0..3 {
            let slot = SlotIndex(t);
            let snap = state.series().snapshot(slot);
            for idx in 0..snap.num_edges() {
                let e = sb_topology::graph::EdgeId(idx as u32);
                assert!(state.residual_mbps(slot, e) >= -1e-6);
            }
            for s in 0..state.num_satellites() {
                assert!(state.ledger().battery_level_j(s, t as usize) >= -1e-6);
            }
        }
    }

    #[test]
    fn cached_quotes_match_reference_bitwise() {
        // The tentpole's correctness bar: CEAR with the search arena and
        // price cache makes exactly the decisions of the pre-optimization
        // path — same plans, same price bits — over a request stream that
        // exercises commits, rejections and mid-stream releases.
        let (mut state_fast, src, dst) = build_state(3);
        let mut state_ref = state_fast.clone();
        let mut fast = Cear::new(CearParams::default());
        let mut reference = Cear::reference(CearParams::default());
        let mut accepted = 0;
        for k in 0..30u32 {
            let rate = 400.0 + 150.0 * (k % 7) as f64;
            let valuation = if k % 5 == 4 { 1e-9 } else { f64::MAX };
            let req = request(src, dst, rate, 0, 2, valuation);
            let a = fast.process(&req, &mut state_fast);
            let b = reference.process(&req, &mut state_ref);
            match (&a, &b) {
                (
                    Decision::Accepted { plan: pa, price: qa },
                    Decision::Accepted { plan: pb, price: qb },
                ) => {
                    accepted += 1;
                    assert_eq!(pa, pb, "request {k}: plans differ");
                    assert_eq!(qa.to_bits(), qb.to_bits(), "request {k}: price bits differ");
                }
                _ => assert_eq!(a, b, "request {k}: decisions differ"),
            }
            // Exercise the release invalidation path mid-stream.
            if k % 6 == 5 {
                if let (Some(ia), Some(ib)) = (state_fast.last_booking(), state_ref.last_booking())
                {
                    state_fast.release_from(ia, SlotIndex(1));
                    state_ref.release_from(ib, SlotIndex(1));
                }
            }
        }
        assert!(accepted >= 2, "stream must admit some requests");
        assert_eq!(state_fast.ledger(), state_ref.ledger(), "final ledgers diverged");
    }

    #[test]
    fn every_entry_point_runs_the_same_search() {
        // One kernel, whoever asks: on a loaded state the plain quote, the
        // repair path's quote and the service's recording quote of one
        // instance return the same plan and price bits, and each adds the
        // same search work to the instance's counters.
        let (mut state, src, dst) = build_state(3);
        let mut loader = Cear::new(CearParams::default());
        for k in 0..6u32 {
            let filler = request(src, dst, 400.0 + 150.0 * k as f64, 0, 2, f64::MAX);
            let _ = loader.process(&filler, &mut state);
        }
        let req = request(src, dst, 800.0, 0, 2, f64::MAX);
        let cear = Cear::new(CearParams::default());
        let (plan, price) = cear.quote(&req, &state).expect("feasible");
        let once = cear.quote_stats().search;
        assert!(once.pops > 0, "the quote searched nothing");
        for (entry, quoted) in [
            ("quote_avoiding", cear.quote_avoiding(&req, &state, None)),
            ("quote_recording", cear.quote_recording(&req, &state).0),
        ] {
            let (p, q) = quoted.expect("feasible");
            assert_eq!((p, q.to_bits()), (plan.clone(), price.to_bits()), "{entry}");
        }
        let mut expected = once;
        expected.merge(&once);
        expected.merge(&once);
        assert_eq!(cear.quote_stats().search, expected, "three quotes, three times the work");
    }

    /// Exercises the [`EpochReadSet`] soundness contract for one request
    /// against one state:
    ///
    /// * replaying the quote against a state with untouched read-set
    ///   epochs — a clean clone, and a clone whose *unread* cells were
    ///   mutated — reproduces outcome, plan, price and read set bit for
    ///   bit, across accelerator configurations (cached recorder vs.
    ///   uncached reference replayer);
    /// * mutating any single recorded cell flips
    ///   [`is_current`](EpochReadSet::is_current) to `false` (sampled here
    ///   to bound clone count; the proptest below draws random cells);
    /// * committing the quoted plan itself conflicts the read set (every
    ///   plan resource was, by construction, read).
    fn assert_read_set_sound(req: &Request, state: &NetworkState, label: &str) {
        let (outcome, reads) = Cear::new(CearParams::default()).quote_recording(req, state);
        assert!(!reads.is_empty(), "{label}: quote recorded no reads");
        assert!(reads.is_current(state), "{label}: fresh read set already stale");

        let assert_replay_matches = |replay_state: &NetworkState, what: &str| {
            let (replayed, re_reads) =
                Cear::reference(CearParams::default()).quote_recording(req, replay_state);
            match (&outcome, &replayed) {
                (Ok((pa, qa)), Ok((pb, qb))) => {
                    assert_eq!(pa, pb, "{label}/{what}: plans differ");
                    assert_eq!(qa.to_bits(), qb.to_bits(), "{label}/{what}: price bits differ");
                }
                (a, b) => assert_eq!(a, b, "{label}/{what}: outcomes differ"),
            }
            assert_eq!(reads, re_reads, "{label}/{what}: read sets differ");
        };

        // Unchanged read-set epochs → bit-identical replay. Clones
        // preserve epochs, so a clean clone qualifies.
        assert_replay_matches(&state.clone(), "clean clone");

        // A cell the quote never read is free to change: no conflict, and
        // the replay must not notice.
        let read_bw: std::collections::HashSet<(usize, usize)> =
            reads.bandwidth_cells().map(|(s, e)| (s.index(), e.index())).collect();
        'unread: for t in 0..state.horizon() {
            let slot = SlotIndex(t as u32);
            for e in 0..state.series().snapshot(slot).num_edges() {
                if !read_bw.contains(&(t, e)) {
                    let mut other = state.clone();
                    other.debug_set_reserved(slot, EdgeId(e as u32), 1.0);
                    assert!(
                        reads.is_current(&other),
                        "{label}: unread cell ({t},{e}) flagged as a conflict"
                    );
                    assert_replay_matches(&other, "unread cell mutated");
                    break 'unread;
                }
            }
        }

        // Any single recorded bandwidth cell, touched → conflict.
        let cells: Vec<_> = reads.bandwidth_cells().collect();
        for &(slot, edge) in cells.iter().step_by((cells.len() / 8).max(1)) {
            let mut touched = state.clone();
            touched.debug_set_reserved(slot, edge, 1.0);
            assert!(
                !reads.is_current(&touched),
                "{label}: missed bandwidth conflict at slot {} edge {}",
                slot.index(),
                edge.index()
            );
        }

        // Any single recorded battery cell, touched → conflict.
        let sats: Vec<_> = reads.battery_sats().collect();
        for (k, &sat) in sats.iter().enumerate().step_by((sats.len() / 8).max(1)) {
            let mut touched = state.clone();
            touched.debug_bump_battery_epoch(sat, k % state.horizon());
            assert!(!reads.is_current(&touched), "{label}: missed battery conflict at sat {sat}");
        }

        // Committing the quote's own plan must invalidate its read set.
        if let Ok((plan, _)) = &outcome {
            let mut committed = state.clone();
            committed.try_commit_plan(req, plan).expect("quoted plan must commit");
            assert!(!reads.is_current(&committed), "{label}: commit left its own read set current");
        }
    }

    /// Deterministic read-set soundness sweep (the offline-runnable
    /// companion to the proptest below): admissions and price rejections,
    /// single- and multi-slot windows, against fresh and partially
    /// committed states.
    #[test]
    fn epoch_read_set_replay_and_conflicts() {
        let (mut state, src, dst) = build_state(3);
        let admit = request(src, dst, 800.0, 0, 2, f64::MAX);
        assert_read_set_sound(&admit, &state, "multi-slot admit");
        assert_read_set_sound(&request(src, dst, 500.0, 1, 1, f64::MAX), &state, "single slot");
        assert_read_set_sound(&request(src, dst, 800.0, 0, 2, 1e-9), &state, "price reject");

        // Reads recorded against a loaded state must see *those* epochs.
        let mut cear = Cear::new(CearParams::default());
        for k in 0..6u32 {
            let _ = cear
                .process(&request(src, dst, 400.0 + 150.0 * k as f64, 0, 2, f64::MAX), &mut state);
        }
        assert_read_set_sound(&admit, &state, "loaded state");
    }

    proptest::proptest! {
        /// Epoch read-set soundness over randomized requests: replay with
        /// unchanged read-set epochs is bit-identical; any touched read
        /// cell conflicts.
        #[test]
        fn prop_epoch_read_set_is_sound(
            seed in 0u64..48,
            tight in proptest::bool::ANY,
        ) {
            // Tight: a battery regime where a request's early slots eat the
            // solar input its late slots counted on.
            let energy = if tight {
                EnergyParams { solar_harvest_w: 5.0, battery_capacity_j: 9_000.0, ..Default::default() }
            } else {
                EnergyParams::default()
            };
            let (state, src, dst) = build_state_with(4, &energy);
            let mut z = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let rate = 200.0 + (z % 1700) as f64;
            let start = (z >> 16) as u32 % 4;
            let end = start + ((z >> 24) as u32 % (4 - start));
            let valuation = if z % 5 == 0 { 1e-9 } else { f64::MAX };
            let req = request(src, dst, rate, start, end, valuation);
            assert_read_set_sound(&req, &state, &format!("seed {seed}"));
        }
    }

    #[test]
    fn decision_accessors() {
        let d = Decision::Rejected { reason: RejectReason::NoFeasiblePath };
        assert!(!d.is_accepted());
        assert_eq!(format!("{}", RejectReason::PriceAboveValuation), "price above valuation");
    }
}
