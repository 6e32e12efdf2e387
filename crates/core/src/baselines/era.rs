//! ERA — Energy Routing Penalty, Depth-of-Discharge [Macambira et al.].
//!
//! Like [`crate::Eru`] but softer: instead of pruning links whose satellite
//! batteries have discharged past the threshold, it switches those links to
//! a penalized weight profile — congestion factor 0.15, energy factor 0.7
//! in the paper — steering traffic away without forbidding it.

use crate::algorithm::{Decision, RejectReason, RoutingAlgorithm};
use crate::baselines::ecars::EcarsFactors;
use crate::baselines::{
    edge_battery_deficit_j, edge_battery_utilization, route_and_commit, route_plan,
};
use crate::lifecycle::KnownFailures;
use crate::plan::ReservationPlan;
use crate::state::NetworkState;
use sb_demand::Request;

/// The ERA baseline: ECARS + threshold re-weighting.
#[derive(Debug, Clone, Copy)]
pub struct Era {
    base: EcarsFactors,
    hot: EcarsFactors,
    threshold_frac: f64,
}

impl Default for Era {
    fn default() -> Self {
        Era {
            base: EcarsFactors::default(),
            // Paper: beyond the threshold, congestion 0.15, energy 0.7.
            hot: EcarsFactors { congestion: 0.15, energy: 0.7, delay: 0.15 },
            threshold_frac: 0.01,
        }
    }
}

impl Era {
    /// ERA with the paper's factor pairs and the default 1 % threshold.
    pub fn new() -> Self {
        Self::default()
    }

    /// ERA with a custom threshold fraction.
    ///
    /// # Panics
    ///
    /// Panics if the fraction is outside `[0, 1]`.
    pub fn with_threshold(threshold_frac: f64) -> Self {
        assert!((0.0..=1.0).contains(&threshold_frac), "threshold must be a fraction");
        Era { threshold_frac, ..Self::default() }
    }

    /// The factors applied below the threshold.
    pub fn base_factors(&self) -> &EcarsFactors {
        &self.base
    }

    /// The penalized factors applied beyond the threshold.
    pub fn hot_factors(&self) -> &EcarsFactors {
        &self.hot
    }
}

impl RoutingAlgorithm for Era {
    fn name(&self) -> &'static str {
        "ERA"
    }

    fn process(&mut self, request: &Request, state: &mut NetworkState) -> Decision {
        let (base, hot) = (self.base, self.hot);
        let threshold_j = self.threshold_frac * state.energy_params().battery_capacity_j;
        route_and_commit(request, state, |ctx, slot, st| {
            let lambda_e = st.utilization_of(slot, ctx.edge_id, ctx.edge.capacity_mbps);
            let lambda_s = edge_battery_utilization(ctx, slot, st);
            let factors =
                if edge_battery_deficit_j(ctx, slot, st) > threshold_j { hot } else { base };
            Some(factors.edge_cost(lambda_e, lambda_s, ctx.edge.length_m))
        })
    }

    fn quote_plan(
        &self,
        request: &Request,
        state: &NetworkState,
        known: Option<&KnownFailures>,
    ) -> Result<(ReservationPlan, f64), RejectReason> {
        let (base, hot) = (self.base, self.hot);
        let threshold_j = self.threshold_frac * state.energy_params().battery_capacity_j;
        route_plan(request, state, known, |ctx, slot, st| {
            let lambda_e = st.utilization_of(slot, ctx.edge_id, ctx.edge.capacity_mbps);
            let lambda_s = edge_battery_utilization(ctx, slot, st);
            let factors =
                if edge_battery_deficit_j(ctx, slot, st) > threshold_j { hot } else { base };
            Some(factors.edge_cost(lambda_e, lambda_s, ctx.edge.length_m))
        })
        .map(|p| (p, 0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::testutil::{build_state, request};

    #[test]
    fn accepts_on_fresh_network() {
        let (mut state, src, dst) = build_state(1);
        let mut era = Era::new();
        assert!(era.process(&request(src, dst, 1000.0, 0, 0), &mut state).is_accepted());
    }

    #[test]
    fn never_prunes_so_accepts_at_least_as_much_as_eru() {
        let run = |algo: &mut dyn crate::RoutingAlgorithm| {
            let (mut state, src, dst) = build_state(1);
            (0..10)
                .filter(|_| {
                    algo.process(&request(src, dst, 1500.0, 0, 0), &mut state).is_accepted()
                })
                .count()
        };
        let era_accepts = run(&mut Era::with_threshold(0.001));
        let eru_accepts = run(&mut crate::Eru::with_threshold(0.001));
        assert!(era_accepts >= eru_accepts, "ERA {era_accepts} < ERU {eru_accepts}");
    }

    #[test]
    fn hot_factors_penalize_energy_more() {
        let era = Era::new();
        assert!(era.hot_factors().energy > era.base_factors().energy);
        assert!(era.hot_factors().congestion < era.base_factors().congestion);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn invalid_threshold_panics() {
        let _ = Era::with_threshold(-0.1);
    }

    #[test]
    fn name() {
        assert_eq!(Era::new().name(), "ERA");
    }
}
