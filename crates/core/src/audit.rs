//! State-conservation auditor: proves a [`NetworkState`] is exactly the
//! fold of its own booking log.
//!
//! The exact-release invariant (see [`crate::state`]) makes every piece of
//! mutable state *recomputable*: the reserved-bandwidth plane is the fold,
//! in commit order, of the booking log's bandwidth contributions, and each
//! satellite's ledger rows are the replay, in commit order, of its logged
//! energy consumptions. [`audit`] recomputes both from scratch and
//! compares bit-for-bit, so any drift — a missed release, an orphaned
//! cell, a corrupted checkpoint, a bug in the refold itself — surfaces as
//! a structured [`AuditViolation`] carrying exact coordinates.
//!
//! The auditor never panics: it returns an [`AuditReport`] so the engine
//! can log the violations and halt cleanly (the `strict-audit` cargo
//! feature makes the simulation engine do exactly that at every slot
//! boundary).

use crate::state::{BookingId, NetworkState};
use sb_topology::graph::EdgeId;
use sb_topology::SlotIndex;

/// Violations reported beyond this count are dropped (the report notes
/// the truncation); a fully corrupted plane would otherwise produce one
/// violation per cell.
const MAX_VIOLATIONS: usize = 64;

/// One detected break of a conservation invariant, with coordinates.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditViolation {
    /// A reserved-bandwidth cell differs from the fold of the booking log.
    BandwidthMismatch {
        /// Slot of the cell.
        slot: SlotIndex,
        /// Edge of the cell.
        edge: EdgeId,
        /// What the state records, Mbps.
        recorded_mbps: f64,
        /// What the booking log folds to, Mbps.
        recomputed_mbps: f64,
    },
    /// A cell's reservation is negative or exceeds the link capacity.
    ResidualOutOfRange {
        /// Slot of the cell.
        slot: SlotIndex,
        /// Edge of the cell.
        edge: EdgeId,
        /// Reserved bandwidth, Mbps.
        reserved_mbps: f64,
        /// Link capacity, Mbps.
        capacity_mbps: f64,
    },
    /// A ledger deficit cell differs from a from-scratch replay of the
    /// booking log's energy consumptions.
    LedgerMismatch {
        /// Constellation index of the satellite.
        satellite: usize,
        /// Slot of the cell.
        slot: usize,
        /// Cumulative deficit the ledger records, joules.
        recorded_deficit_j: f64,
        /// Cumulative deficit the replay produces, joules.
        recomputed_deficit_j: f64,
    },
    /// A remaining-solar cell differs from the from-scratch replay.
    SolarMismatch {
        /// Constellation index of the satellite.
        satellite: usize,
        /// Slot of the cell.
        slot: usize,
        /// Remaining solar the ledger records, joules.
        recorded_j: f64,
        /// Remaining solar the replay produces, joules.
        recomputed_j: f64,
    },
    /// A logged energy consumption is not even feasible when replayed —
    /// the log itself is corrupt (it over-draws the battery).
    LedgerInfeasible {
        /// Constellation index of the satellite.
        satellite: usize,
        /// Slot of the infeasible consumption.
        slot: usize,
        /// The logged consumption, joules.
        consumption_j: f64,
    },
    /// A booking log entry references coordinates outside the state's
    /// dimensions.
    MalformedBooking {
        /// Which booking.
        booking: BookingId,
        /// What was out of range.
        detail: String,
    },
}

impl core::fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AuditViolation::BandwidthMismatch { slot, edge, recorded_mbps, recomputed_mbps } => {
                write!(
                    f,
                    "reserved bandwidth at {slot} edge {} is {recorded_mbps} Mbps but the \
                     booking log folds to {recomputed_mbps} Mbps",
                    edge.0
                )
            }
            AuditViolation::ResidualOutOfRange { slot, edge, reserved_mbps, capacity_mbps } => {
                write!(
                    f,
                    "reservation of {reserved_mbps} Mbps at {slot} edge {} is outside \
                     [0, {capacity_mbps}] Mbps capacity",
                    edge.0
                )
            }
            AuditViolation::LedgerMismatch {
                satellite,
                slot,
                recorded_deficit_j,
                recomputed_deficit_j,
            } => {
                write!(
                    f,
                    "deficit of satellite {satellite} at slot {slot} is {recorded_deficit_j} J \
                     but replaying the booking log gives {recomputed_deficit_j} J"
                )
            }
            AuditViolation::SolarMismatch { satellite, slot, recorded_j, recomputed_j } => {
                write!(
                    f,
                    "remaining solar of satellite {satellite} at slot {slot} is {recorded_j} J \
                     but replaying the booking log gives {recomputed_j} J"
                )
            }
            AuditViolation::LedgerInfeasible { satellite, slot, consumption_j } => {
                write!(
                    f,
                    "logged consumption of {consumption_j} J by satellite {satellite} at slot \
                     {slot} over-draws the battery on replay: the booking log is corrupt"
                )
            }
            AuditViolation::MalformedBooking { booking, detail } => {
                write!(f, "booking {} is malformed: {detail}", booking.0)
            }
        }
    }
}

/// The outcome of one [`audit`] pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    /// Every violation found, in scan order (bandwidth plane first, then
    /// the ledger), capped at an internal maximum.
    pub violations: Vec<AuditViolation>,
    /// Whether violations beyond the cap were dropped.
    pub truncated: bool,
}

impl AuditReport {
    /// Whether every conservation invariant held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    fn push(&mut self, v: AuditViolation) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(v);
        } else {
            self.truncated = true;
        }
    }
}

impl core::fmt::Display for AuditReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_clean() {
            return write!(f, "conservation audit clean");
        }
        write!(f, "conservation audit found {} violation(s)", self.violations.len())?;
        if self.truncated {
            write!(f, " (list truncated)")?;
        }
        for v in &self.violations {
            write!(f, "\n  - {v}")?;
        }
        Ok(())
    }
}

/// Audits `state` against its own booking log over the whole horizon.
///
/// Three independent recomputations:
///
/// 1. **Bandwidth conservation** — every reserved cell must equal,
///    bit-for-bit, the fold of the booking log (which also catches
///    orphaned reservations left behind by a buggy release: the orphan's
///    cell folds to less than the plane records).
/// 2. **Residual range** — every reservation lies in `[0, capacity]`
///    (tolerance `1e-6` Mbps above capacity, matching the commit path).
/// 3. **Ledger conservation** — a pristine ledger replaying the log's
///    energy consumptions in commit order must reproduce the live
///    ledger's solar and deficit planes bit-for-bit, with every replayed
///    consumption feasible.
///
/// Never panics on malformed state: out-of-range booking coordinates are
/// reported as [`AuditViolation::MalformedBooking`] and skipped.
pub fn audit(state: &NetworkState) -> AuditReport {
    let mut report = AuditReport::default();
    let horizon = state.horizon();
    let num_satellites = state.num_satellites();
    let series = state.series();

    // 1 + 2: refold the bandwidth plane from the booking log.
    let mut refolded: Vec<Vec<f64>> =
        (0..horizon).map(|t| vec![0.0; series.snapshot(SlotIndex(t as u32)).num_edges()]).collect();
    for (i, booking) in state.bookings_log().iter().enumerate() {
        for &(s, e, mbps) in &booking.bw {
            let Some(cell) = refolded.get_mut(s.index()).and_then(|row| row.get_mut(e.index()))
            else {
                report.push(AuditViolation::MalformedBooking {
                    booking: BookingId(i),
                    detail: format!("bandwidth cell at {s} edge {} is out of range", e.0),
                });
                continue;
            };
            *cell += mbps;
        }
    }
    for (t, row) in refolded.iter().enumerate() {
        let slot = SlotIndex(t as u32);
        let snapshot = series.snapshot(slot);
        for ((i, &recomputed), capacity) in row.iter().enumerate().zip(snapshot.capacities()) {
            let edge = EdgeId(i as u32);
            let recorded = state.reserved_mbps(slot, edge);
            if recorded.to_bits() != recomputed.to_bits() {
                report.push(AuditViolation::BandwidthMismatch {
                    slot,
                    edge,
                    recorded_mbps: recorded,
                    recomputed_mbps: recomputed,
                });
            }
            if !(recorded >= 0.0 && recorded <= capacity + 1e-6) {
                report.push(AuditViolation::ResidualOutOfRange {
                    slot,
                    edge,
                    reserved_mbps: recorded,
                    capacity_mbps: capacity,
                });
            }
        }
    }

    // 3: replay the energy log against a pristine ledger.
    let mut fresh = state.ledger().clone();
    for sat in 0..fresh.num_satellites() {
        fresh.reset_satellite(sat);
    }
    for (i, booking) in state.bookings_log().iter().enumerate() {
        for &(sat, t, consumption_j) in &booking.energy {
            if sat >= num_satellites || t >= horizon {
                report.push(AuditViolation::MalformedBooking {
                    booking: BookingId(i),
                    detail: format!("energy consumption names satellite {sat} slot {t}"),
                });
                continue;
            }
            let mut tx = fresh.overlay();
            if tx.try_commit(sat, t, consumption_j).is_none() {
                report.push(AuditViolation::LedgerInfeasible {
                    satellite: sat,
                    slot: t,
                    consumption_j,
                });
                continue;
            }
            let delta = tx.into_delta();
            fresh.absorb(delta);
        }
    }
    let live = state.ledger();
    for sat in 0..num_satellites {
        for t in 0..horizon {
            let (recorded, recomputed) = (live.deficit_j(sat, t), fresh.deficit_j(sat, t));
            if recorded.to_bits() != recomputed.to_bits() {
                report.push(AuditViolation::LedgerMismatch {
                    satellite: sat,
                    slot: t,
                    recorded_deficit_j: recorded,
                    recomputed_deficit_j: recomputed,
                });
            }
            let (rec_s, new_s) = (live.remaining_solar_j(sat, t), fresh.remaining_solar_j(sat, t));
            if rec_s.to_bits() != new_s.to_bits() {
                report.push(AuditViolation::SolarMismatch {
                    satellite: sat,
                    slot: t,
                    recorded_j: rec_s,
                    recomputed_j: new_s,
                });
            }
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ReservationPlan, SlotPath};
    use sb_demand::{RateProfile, Request, RequestId};
    use sb_energy::EnergyParams;
    use sb_geo::coords::Geodetic;
    use sb_orbit::walker::WalkerConstellation;
    use sb_topology::{NetworkNodes, NodeId, TopologyConfig, TopologySeries};

    fn small_state() -> (NetworkState, NodeId, NodeId) {
        let shell = WalkerConstellation::delta(12, 12, 1, 550e3, 53f64.to_radians());
        let mut nodes = NetworkNodes::from_walker(&shell);
        let a = nodes.add_ground_site(Geodetic::from_degrees(35.8, -78.6, 0.0));
        let b = nodes.add_ground_site(Geodetic::from_degrees(40.7, -74.0, 0.0));
        let cfg =
            TopologyConfig { min_elevation_rad: 10f64.to_radians(), ..TopologyConfig::default() };
        let series = TopologySeries::build(&nodes, &cfg, 3, 60.0);
        (NetworkState::new(series, &EnergyParams::default()), a, b)
    }

    fn direct_plan(
        state: &NetworkState,
        src: NodeId,
        dst: NodeId,
        slot: SlotIndex,
    ) -> Option<ReservationPlan> {
        let snap = state.series().snapshot(slot);
        for (e1, edge1) in snap.out_edges(src) {
            let sat = edge1.dst;
            if let Some(e2) = snap.find_edge(sat, dst) {
                return Some(ReservationPlan {
                    slot_paths: vec![SlotPath {
                        slot,
                        nodes: vec![src, sat, dst],
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
            valuation: 1e9,
        }
    }

    #[test]
    fn fresh_state_audits_clean() {
        let (state, _, _) = small_state();
        let report = audit(&state);
        assert!(report.is_clean(), "{report}");
        assert_eq!(format!("{report}"), "conservation audit clean");
    }

    #[test]
    fn committed_and_released_state_audits_clean() {
        let (mut state, src, dst) = small_state();
        let Some(plan) = direct_plan(&state, src, dst, SlotIndex(0)) else { return };
        let req = request(src, dst, 800.0);
        state.try_commit_plan(&req, &plan).unwrap();
        state.try_commit_plan(&req, &plan).unwrap();
        assert!(audit(&state).is_clean());

        let first = crate::state::BookingId(0);
        state.release_from(first, SlotIndex(0));
        let report = audit(&state);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn detects_bandwidth_corruption_with_coordinates() {
        let (mut state, src, dst) = small_state();
        let Some(plan) = direct_plan(&state, src, dst, SlotIndex(0)) else { return };
        let req = request(src, dst, 500.0);
        state.try_commit_plan(&req, &plan).unwrap();
        let edge = plan.slot_paths[0].edges[0];
        state.debug_set_reserved(SlotIndex(0), edge, 123.0);

        let report = audit(&state);
        assert!(!report.is_clean());
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                AuditViolation::BandwidthMismatch { slot, edge: e, recorded_mbps, .. }
                    if *slot == SlotIndex(0) && *e == edge && *recorded_mbps == 123.0
            )),
            "{report}"
        );
    }

    #[test]
    fn detects_orphaned_reservation() {
        // An orphan (bandwidth reserved with no booking covering it) is a
        // mismatch between the plane and the fold of the empty log.
        let (mut state, _, _) = small_state();
        state.debug_set_reserved(SlotIndex(1), EdgeId(0), 50.0);
        let report = audit(&state);
        assert!(report.violations.iter().any(|v| matches!(
            v,
            AuditViolation::BandwidthMismatch { slot, edge, .. }
                if *slot == SlotIndex(1) && *edge == EdgeId(0)
        )));
    }

    #[test]
    fn detects_out_of_range_reservation() {
        let (mut state, _, _) = small_state();
        state.debug_set_reserved(SlotIndex(0), EdgeId(0), -3.0);
        let report = audit(&state);
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                AuditViolation::ResidualOutOfRange { reserved_mbps, .. } if *reserved_mbps == -3.0
            )),
            "{report}"
        );
    }

    #[test]
    fn detects_ledger_corruption_with_coordinates() {
        let (mut state, _, _) = small_state();
        state.debug_ledger_mut().debug_add_deficit(7, 2, 999.0);
        let report = audit(&state);
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                AuditViolation::LedgerMismatch { satellite: 7, slot: 2, recorded_deficit_j, .. }
                    if *recorded_deficit_j == 999.0
            )),
            "{report}"
        );
        // The report's rendering names the coordinates.
        let text = format!("{report}");
        assert!(text.contains("satellite 7") && text.contains("slot 2"), "{text}");
    }

    #[test]
    fn violation_count_is_capped() {
        let (mut state, _, _) = small_state();
        for t in 0..state.horizon() {
            let slot = SlotIndex(t as u32);
            let edges = state.series().snapshot(slot).num_edges();
            for i in 0..edges {
                state.debug_set_reserved(slot, EdgeId(i as u32), -1.0);
            }
        }
        let report = audit(&state);
        assert!(report.truncated);
        assert_eq!(report.violations.len(), MAX_VIOLATIONS);
        assert!(format!("{report}").contains("truncated"));
    }

    #[test]
    fn violation_display_names_resources() {
        let v = AuditViolation::LedgerInfeasible { satellite: 3, slot: 9, consumption_j: 1.5 };
        assert!(format!("{v}").contains("satellite 3"));
        let m = AuditViolation::MalformedBooking {
            booking: BookingId(4),
            detail: "energy consumption names satellite 999 slot 0".into(),
        };
        assert!(format!("{m}").contains("booking 4"));
    }
}
