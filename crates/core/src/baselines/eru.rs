//! ERU — Energy Routing Pruning, Depth-of-Discharge [Macambira et al.].
//!
//! Extends ECARS with a hard battery-protection rule: when a satellite's
//! battery discharge exceeds a depth-of-discharge threshold in a time slot,
//! every link touching that satellite is *pruned* for that slot. The
//! paper's evaluation finds this over-conservative — "ERU's conservative
//! strategy pruned links even with slight network usage, making pathfinding
//! difficult and lowering the social welfare ratio".

use crate::algorithm::{Decision, RejectReason, RoutingAlgorithm};
use crate::baselines::ecars::EcarsFactors;
use crate::baselines::{
    edge_battery_deficit_j, edge_battery_utilization, route_and_commit, route_plan,
};
use crate::lifecycle::KnownFailures;
use crate::plan::ReservationPlan;
use crate::state::NetworkState;
use sb_demand::Request;

/// The ERU baseline: ECARS + threshold pruning.
#[derive(Debug, Clone, Copy)]
pub struct Eru {
    factors: EcarsFactors,
    /// Links of satellites whose battery deficit exceeds this fraction of
    /// capacity are pruned for the slot.
    threshold_frac: f64,
}

impl Default for Eru {
    fn default() -> Self {
        Eru { factors: EcarsFactors::default(), threshold_frac: 0.01 }
    }
}

impl Eru {
    /// ERU with the default 1 % depth-of-discharge pruning threshold (see
    /// the module docs of [`crate::baselines`] for the interpretation of
    /// the published threshold).
    pub fn new() -> Self {
        Self::default()
    }

    /// ERU with a custom threshold fraction.
    ///
    /// # Panics
    ///
    /// Panics if the fraction is outside `[0, 1]`.
    pub fn with_threshold(threshold_frac: f64) -> Self {
        assert!((0.0..=1.0).contains(&threshold_frac), "threshold must be a fraction");
        Eru { threshold_frac, ..Self::default() }
    }

    /// The pruning threshold fraction.
    pub fn threshold_frac(&self) -> f64 {
        self.threshold_frac
    }
}

impl RoutingAlgorithm for Eru {
    fn name(&self) -> &'static str {
        "ERU"
    }

    fn process(&mut self, request: &Request, state: &mut NetworkState) -> Decision {
        let factors = self.factors;
        let threshold_j = self.threshold_frac * state.energy_params().battery_capacity_j;
        route_and_commit(request, state, |ctx, slot, st| {
            if edge_battery_deficit_j(ctx, slot, st) > threshold_j {
                return None; // prune
            }
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
        let threshold_j = self.threshold_frac * state.energy_params().battery_capacity_j;
        route_plan(request, state, known, |ctx, slot, st| {
            if edge_battery_deficit_j(ctx, slot, st) > threshold_j {
                return None; // prune
            }
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
    use crate::algorithm::RejectReason;
    use crate::baselines::testutil::{build_state, request};

    #[test]
    fn accepts_on_fresh_network() {
        let (mut state, src, dst) = build_state(1);
        let mut eru = Eru::new();
        assert!(eru.process(&request(src, dst, 1000.0, 0, 0), &mut state).is_accepted());
    }

    #[test]
    fn zero_threshold_prunes_after_any_discharge() {
        let (mut state, src, dst) = build_state(1);
        let mut eru = Eru::with_threshold(0.0);
        // First request discharges gateway batteries (1 Gbps ≫ solar).
        assert!(eru.process(&request(src, dst, 1000.0, 0, 0), &mut state).is_accepted());
        // With a zero threshold, every satellite that discharged at all is
        // now pruned; the second request must route around or fail. Keep
        // sending until a rejection due to pruning shows up.
        let mut rejected = false;
        for _ in 0..12 {
            let d = eru.process(&request(src, dst, 1000.0, 0, 0), &mut state);
            if let crate::Decision::Rejected { reason } = d {
                assert_eq!(reason, RejectReason::NoFeasiblePath);
                rejected = true;
                break;
            }
        }
        assert!(rejected, "zero-threshold ERU should eventually prune all paths");
    }

    #[test]
    fn more_conservative_than_ecars() {
        // At an aggressive threshold, ERU accepts no more than ECARS.
        let run = |algo: &mut dyn crate::RoutingAlgorithm| {
            let (mut state, src, dst) = build_state(1);
            (0..10)
                .filter(|_| {
                    algo.process(&request(src, dst, 1500.0, 0, 0), &mut state).is_accepted()
                })
                .count()
        };
        let eru_accepts = run(&mut Eru::with_threshold(0.001));
        let ecars_accepts = run(&mut crate::Ecars::new());
        assert!(eru_accepts <= ecars_accepts, "ERU {eru_accepts} > ECARS {ecars_accepts}");
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn invalid_threshold_panics() {
        let _ = Eru::with_threshold(1.5);
    }

    #[test]
    fn accessors() {
        assert_eq!(Eru::new().name(), "ERU");
        assert_eq!(Eru::with_threshold(0.25).threshold_frac(), 0.25);
    }
}
