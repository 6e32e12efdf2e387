//! ECARS — Energy and Capacity Aware Routing [da Maceno et al.].
//!
//! Routes each slot over the path minimizing a *linear* weighted sum of a
//! congestion factor (link bandwidth utilization), an energy factor
//! (battery depth-of-discharge of the link's satellites) and a delay factor
//! (normalized link length). Unlike CEAR the combination is linear — the
//! paper's evaluation attributes ECARS's weaker welfare to exactly this
//! ("their path selection was based on a linear function, which did not
//! sensibly reflect resource usage") — and there is no admission control.

use crate::algorithm::{Decision, RejectReason, RoutingAlgorithm};
use crate::baselines::{edge_battery_utilization, route_and_commit, route_plan, DELAY_NORM_M};
use crate::lifecycle::KnownFailures;
use crate::plan::ReservationPlan;
use crate::state::NetworkState;
use sb_demand::Request;
use serde::{Deserialize, Serialize};

/// The constant added to every linear-metric edge cost so that an idle
/// network still prefers fewer hops.
const HOP_EPSILON: f64 = 1e-3;

/// The linear weights of the ECARS path metric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EcarsFactors {
    /// Weight of the link bandwidth utilization term.
    pub congestion: f64,
    /// Weight of the battery depth-of-discharge term.
    pub energy: f64,
    /// Weight of the normalized link-length (delay) term.
    pub delay: f64,
}

impl Default for EcarsFactors {
    /// The paper's setting: congestion 0.3, energy 0.35 (delay takes the
    /// remaining weight).
    fn default() -> Self {
        EcarsFactors { congestion: 0.3, energy: 0.35, delay: 0.35 }
    }
}

impl EcarsFactors {
    /// The weighted edge cost. A small constant is added so that on a
    /// completely idle network the metric still prefers fewer hops.
    pub(crate) fn edge_cost(
        &self,
        utilization: f64,
        battery_utilization: f64,
        length_m: f64,
    ) -> f64 {
        self.congestion * utilization
            + self.energy * battery_utilization
            + self.delay * (length_m / DELAY_NORM_M).min(1.0)
            + HOP_EPSILON
    }
}

/// The ECARS baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ecars {
    factors: EcarsFactors,
}

impl Ecars {
    /// ECARS with the paper's default factors.
    pub fn new() -> Self {
        Self::default()
    }

    /// ECARS with custom factors.
    pub fn with_factors(factors: EcarsFactors) -> Self {
        Ecars { factors }
    }

    /// The factors in use.
    pub fn factors(&self) -> &EcarsFactors {
        &self.factors
    }
}

impl RoutingAlgorithm for Ecars {
    fn name(&self) -> &'static str {
        "ECARS"
    }

    fn process(&mut self, request: &Request, state: &mut NetworkState) -> Decision {
        let factors = self.factors;
        route_and_commit(request, state, |ctx, slot, st| {
            let lambda_e = st.utilization_of(slot, ctx.edge_id, ctx.edge.capacity_mbps);
            let lambda_s = edge_battery_utilization(ctx, slot, st);
            Some(factors.edge_cost(lambda_e, lambda_s, ctx.edge.length_m))
        })
    }

    fn quote_plan(
        &self,
        request: &Request,
        state: &NetworkState,
        known: Option<&KnownFailures>,
    ) -> Result<(ReservationPlan, f64), RejectReason> {
        let factors = self.factors;
        route_plan(request, state, known, |ctx, slot, st| {
            let lambda_e = st.utilization_of(slot, ctx.edge_id, ctx.edge.capacity_mbps);
            let lambda_s = edge_battery_utilization(ctx, slot, st);
            Some(factors.edge_cost(lambda_e, lambda_s, ctx.edge.length_m))
        })
        .map(|p| (p, 0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::testutil::{build_state, request};
    use crate::baselines::Ssp;

    #[test]
    fn default_factors_match_paper() {
        let f = EcarsFactors::default();
        assert_eq!(f.congestion, 0.3);
        assert_eq!(f.energy, 0.35);
    }

    #[test]
    fn accepts_feasible_request() {
        let (mut state, src, dst) = build_state(2);
        let mut ecars = Ecars::new();
        assert!(ecars.process(&request(src, dst, 1000.0, 0, 1), &mut state).is_accepted());
    }

    #[test]
    fn edge_cost_increases_with_each_factor() {
        let f = EcarsFactors::default();
        let base = f.edge_cost(0.1, 0.1, 1.0e6);
        assert!(f.edge_cost(0.5, 0.1, 1.0e6) > base);
        assert!(f.edge_cost(0.1, 0.5, 1.0e6) > base);
        assert!(f.edge_cost(0.1, 0.1, 3.0e6) > base);
    }

    #[test]
    fn spreads_load_compared_to_ssp() {
        // Send identical flows; ECARS should end with lower peak link
        // utilization than SSP because its metric penalizes reuse.
        let flows = 6;
        let peak = |algo: &mut dyn crate::RoutingAlgorithm| {
            let (mut state, src, dst) = build_state(1);
            for _ in 0..flows {
                let _ = algo.process(&request(src, dst, 1500.0, 0, 0), &mut state);
            }
            let slot = sb_topology::SlotIndex(0);
            let snap = state.series().snapshot(slot);
            (0..snap.num_edges())
                .map(|i| state.utilization(slot, sb_topology::graph::EdgeId(i as u32)))
                .fold(0.0f64, f64::max)
        };
        let ssp_peak = peak(&mut Ssp::new());
        let ecars_peak = peak(&mut Ecars::new());
        assert!(
            ecars_peak <= ssp_peak + 1e-9,
            "ECARS peak {ecars_peak} should not exceed SSP peak {ssp_peak}"
        );
    }

    #[test]
    fn name() {
        assert_eq!(Ecars::new().name(), "ECARS");
    }
}
