//! The comparison algorithms of the paper's evaluation (§VI-A).
//!
//! All four baselines share CEAR's all-or-nothing reservation semantics —
//! a request is admitted only if a bandwidth- and battery-feasible path is
//! reserved in every active slot — but none of them performs price-based
//! admission control: they accept whenever their routing rule finds a
//! feasible plan. This is exactly the paper's distinction ("they lacked
//! access control for online arriving requests").
//!
//! * [`Ssp`] — Single Shortest Path: minimum hop count;
//! * [`Ecars`] — linear weighted combination of congestion, energy and
//!   delay factors;
//! * [`Eru`] — ECARS plus *pruning* of satellites whose battery discharge
//!   exceeds a depth-of-discharge threshold;
//! * [`Era`] — ECARS plus *re-weighting* (penalizing) instead of pruning.
//!
//! The published ERU/ERA threshold (5·10⁻⁶ W·min/Mbit) is defined against
//! packet-level traffic counters our reservation-level model does not
//! track; we interpret it as a battery depth-of-discharge fraction
//! (default 1 %), which reproduces the paper's qualitative behaviour —
//! ERU prunes links "even with slight network usage". DESIGN.md records
//! the interpretation.

mod ecars;
mod era;
mod eru;
mod ssp;

pub use ecars::{Ecars, EcarsFactors};
pub use era::Era;
pub use eru::Eru;
pub use ssp::Ssp;

use crate::algorithm::{Decision, RejectReason};
use crate::lifecycle::KnownFailures;
use crate::plan::{ReservationPlan, SlotPath};
use crate::search::{min_cost_path_in, EdgeContext, SearchScratch};
use crate::state::NetworkState;
use sb_demand::Request;
use sb_topology::SlotIndex;
use std::cell::RefCell;

thread_local! {
    /// One search arena per thread, shared by every baseline: the per-slot
    /// searches of all baseline calls on a thread reuse the same buffers
    /// (see [`SearchScratch`]), which is bit-transparent to the results.
    static BASELINE_SCRATCH: RefCell<SearchScratch> = RefCell::new(SearchScratch::new());
}

/// Drops the calling thread's baseline search arena. It regrows on the next
/// baseline call; a run releases it when it ends so that a mega-scale arena
/// does not stay allocated until the thread happens to route another
/// baseline.
pub fn release_thread_caches() {
    BASELINE_SCRATCH.with(|cell| *cell.borrow_mut() = SearchScratch::new());
}

/// Shared baseline search: routes every active slot with `weight_fn`
/// (bandwidth feasibility and known-down pruning are pre-checked before
/// the weight function runs) without committing anything. Baselines are
/// price-oblivious, so the plan's `total_cost` is zero.
pub(crate) fn route_plan(
    request: &Request,
    state: &NetworkState,
    known: Option<&KnownFailures>,
    mut weight_fn: impl FnMut(&EdgeContext<'_>, SlotIndex, &NetworkState) -> Option<f64>,
) -> Result<ReservationPlan, RejectReason> {
    BASELINE_SCRATCH.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        let mut slot_paths = Vec::with_capacity(request.duration_slots());
        for slot in request.active_slots() {
            let rate = request.rate_at(slot);
            let snapshot = state.series().snapshot(slot);
            let full = |ctx: &EdgeContext<'_>| {
                if known.is_some_and(|k| k.is_down(slot, ctx.edge_id)) {
                    return None;
                }
                if state.residual_of(slot, ctx.edge_id, ctx.edge.capacity_mbps) + 1e-9 < rate {
                    return None;
                }
                weight_fn(ctx, slot, state)
            };
            let found =
                min_cost_path_in(scratch, snapshot, request.source, request.destination, full);
            match found {
                Some(p) => slot_paths.push(SlotPath { slot, nodes: p.nodes, edges: p.edges }),
                None => return Err(RejectReason::NoFeasiblePath),
            }
        }
        Ok(ReservationPlan { slot_paths, total_cost: 0.0 })
    })
}

/// Shared baseline driver: [`route_plan`], then atomically commit. No
/// price is charged.
pub(crate) fn route_and_commit(
    request: &Request,
    state: &mut NetworkState,
    weight_fn: impl FnMut(&EdgeContext<'_>, SlotIndex, &NetworkState) -> Option<f64>,
) -> Decision {
    let plan = match route_plan(request, state, None, weight_fn) {
        Ok(plan) => plan,
        Err(reason) => return Decision::Rejected { reason },
    };
    match state.try_commit_plan(request, &plan) {
        Ok(()) => Decision::Accepted { plan, price: 0.0 },
        Err(_) => Decision::Rejected { reason: RejectReason::CommitFailed },
    }
}

/// The larger of the two battery utilizations of an edge's satellite
/// endpoints at `slot` (0 when neither endpoint is a satellite) — the
/// energy factor the linear baselines weigh.
pub(crate) fn edge_battery_utilization(
    ctx: &EdgeContext<'_>,
    slot: SlotIndex,
    state: &NetworkState,
) -> f64 {
    let t = slot.index();
    let mut util: f64 = 0.0;
    for node in [ctx.edge.src, ctx.edge.dst] {
        if let Some(sat) = state.satellite_index(node) {
            util = util.max(state.ledger().battery_utilization(sat, t));
        }
    }
    util
}

/// The larger of the two battery *deficits* (joules) of an edge's satellite
/// endpoints at `slot` — the quantity ERU/ERA threshold against.
pub(crate) fn edge_battery_deficit_j(
    ctx: &EdgeContext<'_>,
    slot: SlotIndex,
    state: &NetworkState,
) -> f64 {
    let t = slot.index();
    let mut deficit: f64 = 0.0;
    for node in [ctx.edge.src, ctx.edge.dst] {
        if let Some(sat) = state.satellite_index(node) {
            deficit = deficit.max(state.ledger().deficit_j(sat, t));
        }
    }
    deficit
}

/// Normalization length for the delay factor: roughly the longest +Grid
/// ISL plus slack, meters.
pub(crate) const DELAY_NORM_M: f64 = 5.0e6;

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use sb_demand::{RateProfile, RequestId};
    use sb_energy::EnergyParams;
    use sb_geo::coords::Geodetic;
    use sb_orbit::walker::WalkerConstellation;
    use sb_topology::{NetworkNodes, NodeId, TopologyConfig, TopologySeries};

    /// A 12×12 shell with two ground users, `slots` one-minute slots.
    pub fn build_state(slots: usize) -> (NetworkState, NodeId, NodeId) {
        let shell = WalkerConstellation::delta(12, 12, 1, 550e3, 53f64.to_radians());
        let mut nodes = NetworkNodes::from_walker(&shell);
        let a = nodes.add_ground_site(Geodetic::from_degrees(35.8, -78.6, 0.0));
        let b = nodes.add_ground_site(Geodetic::from_degrees(48.9, 2.3, 0.0));
        // A 144-satellite shell needs a lower elevation mask than the
        // paper-scale 1584-satellite shell for continuous coverage.
        let cfg =
            TopologyConfig { min_elevation_rad: 10f64.to_radians(), ..TopologyConfig::default() };
        let series = TopologySeries::build(&nodes, &cfg, slots, 60.0);
        (NetworkState::new(series, &EnergyParams::default()), a, b)
    }

    pub fn request(src: NodeId, dst: NodeId, rate: f64, start: u32, end: u32) -> Request {
        Request {
            id: RequestId(0),
            source: src,
            destination: dst,
            rate: RateProfile::Constant(rate),
            start: SlotIndex(start),
            end: SlotIndex(end),
            valuation: 2.3e9,
        }
    }
}
