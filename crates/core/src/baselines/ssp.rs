//! SSP — Single Shortest Path.
//!
//! The paper's simplest baseline: always route over the path with the
//! fewest hops (per slot), accepting any request for which such a path is
//! bandwidth- and battery-feasible. SSP is oblivious to congestion levels
//! and battery state, so it repeatedly loads the same short corridors — the
//! behaviour the evaluation shows as early congestion and battery drain.

use crate::algorithm::{Decision, RejectReason, RoutingAlgorithm};
use crate::baselines::{route_and_commit, route_plan};
use crate::lifecycle::KnownFailures;
use crate::plan::ReservationPlan;
use crate::state::NetworkState;
use sb_demand::Request;

/// The Single Shortest Path baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ssp;

impl Ssp {
    /// Creates the baseline.
    pub fn new() -> Self {
        Ssp
    }
}

/// Every hop costs exactly this: the path metric is the hop count.
const HOP_COST: f64 = 1.0;

impl RoutingAlgorithm for Ssp {
    fn name(&self) -> &'static str {
        "SSP"
    }

    fn process(&mut self, request: &Request, state: &mut NetworkState) -> Decision {
        route_and_commit(request, state, |_ctx, _slot, _state| Some(HOP_COST))
    }

    fn quote_plan(
        &self,
        request: &Request,
        state: &NetworkState,
        known: Option<&KnownFailures>,
    ) -> Result<(ReservationPlan, f64), RejectReason> {
        route_plan(request, state, known, |_ctx, _slot, _state| Some(HOP_COST)).map(|p| (p, 0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::testutil::{build_state, request};

    #[test]
    fn accepts_feasible_request() {
        let (mut state, src, dst) = build_state(2);
        let mut ssp = Ssp::new();
        let decision = ssp.process(&request(src, dst, 1000.0, 0, 1), &mut state);
        assert!(decision.is_accepted());
    }

    #[test]
    fn picks_minimum_hop_count() {
        let (mut state, src, dst) = build_state(1);
        let mut ssp = Ssp::new();
        let d = ssp.process(&request(src, dst, 100.0, 0, 0), &mut state);
        let Decision::Accepted { plan, .. } = d else { panic!("expected accept") };
        // Raleigh→Paris in a 96-sat shell: a handful of hops; and no other
        // path may be shorter — verify by re-searching with unit weights.
        let hops = plan.slot_paths[0].num_hops();
        assert!(hops >= 2, "at least up + down");
        assert!(hops <= 12, "suspiciously long min-hop path: {hops}");
    }

    #[test]
    fn greedy_acceptance_until_saturation() {
        let (mut state, src, dst) = build_state(1);
        let mut ssp = Ssp::new();
        let mut accepted = 0;
        let mut rejected = 0;
        for _ in 0..24 {
            if ssp.process(&request(src, dst, 2000.0, 0, 0), &mut state).is_accepted() {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
        // USL fan-out bounds concurrent 2 Gbps flows; SSP has no admission
        // control so it accepts until the physics stops it.
        assert!(accepted >= 1 && rejected >= 1, "accepted {accepted} rejected {rejected}");
    }

    #[test]
    fn price_is_always_zero() {
        let (mut state, src, dst) = build_state(1);
        let mut ssp = Ssp::new();
        if let Decision::Accepted { price, .. } =
            ssp.process(&request(src, dst, 500.0, 0, 0), &mut state)
        {
            assert_eq!(price, 0.0);
        } else {
            panic!("expected accept");
        }
    }

    #[test]
    fn name() {
        assert_eq!(Ssp::new().name(), "SSP");
    }
}
