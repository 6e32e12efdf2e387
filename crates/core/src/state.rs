//! Mutable network state: bandwidth reservations and the energy ledger.
//!
//! [`NetworkState`] is the single source of truth an online algorithm reads
//! prices from and commits accepted plans into. Commits are atomic: a plan
//! either reserves every resource it needs across all of its slots, or the
//! state is left untouched (important because a plan feasible slot-by-slot
//! can be infeasible jointly — its own early slots consume the solar energy
//! its late slots counted on).

use crate::plan::ReservationPlan;
use sb_demand::Request;
use sb_energy::{EnergyLedger, EnergyParams};
use sb_topology::graph::EdgeId;
use sb_topology::{NodeKind, SlotIndex, TopologySeries};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide epoch source for resource-cell change tracking.
///
/// Every mutation of a priced resource cell stamps the cell with a fresh
/// value drawn from this counter, so an epoch value is assigned at most
/// once across *all* states and their clones. A cached price stamped with
/// epoch `e` is therefore valid against any state whose cell still reads
/// `e`: equal epochs imply the cells were copied from a common ancestor
/// before either side mutated them, hence hold bit-identical values.
static EPOCH_SOURCE: AtomicU64 = AtomicU64::new(1);

fn next_epoch() -> u64 {
    EPOCH_SOURCE.fetch_add(1, Ordering::Relaxed)
}

/// The epochs of every priced resource cell a quote read, recorded so the
/// quote can later be revalidated in O(read set) without re-running the
/// search — the optimistic-concurrency primitive behind `sb-serve`.
///
/// Soundness contract: a quote is a deterministic function of the cells it
/// read. If every recorded cell still holds its recorded epoch, those
/// cells hold bit-identical values (see [`EPOCH_SOURCE`]), so re-running
/// the quote against the current state would reproduce it bit for bit —
/// the quote may be committed as-is. If any epoch moved, the quote is
/// stale and must be recomputed.
///
/// Bandwidth reads are recorded per cell. Battery reads are recorded as
/// the *whole horizon row* of the probed satellite, by its row generation
/// ([`NetworkState::battery_row_gen`], which moves iff any cell epoch of
/// the row does): the energy recursion walks forward from the probe slot,
/// so the row is a sound superset of the cells actually read, and
/// committing/releasing always re-stamps whole rows anyway (see
/// [`NetworkState::release_from`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpochReadSet {
    /// `(slot, edge, epoch)` per bandwidth cell read, deduplicated by
    /// [`EpochReadSet::normalize`].
    bandwidth: Vec<(SlotIndex, EdgeId, u64)>,
    /// `(satellite, row generation)` per battery probe, deduplicated by
    /// [`EpochReadSet::normalize`].
    battery: Vec<(usize, u64)>,
}

impl EpochReadSet {
    /// An empty read set.
    pub fn new() -> Self {
        EpochReadSet::default()
    }

    /// Forgets all recorded reads (for reuse across quotes).
    pub fn clear(&mut self) {
        self.bandwidth.clear();
        self.battery.clear();
    }

    /// Records a read of the bandwidth cell `(slot, edge)` at its current
    /// epoch in `state`.
    #[inline]
    pub fn record_bandwidth(&mut self, state: &NetworkState, slot: SlotIndex, edge: EdgeId) {
        self.bandwidth.push((slot, edge, state.bandwidth_epoch(slot, edge)));
    }

    /// Records a read of satellite `sat`'s battery (its whole horizon row
    /// of deficit cells — a sound superset of any forward recursion's
    /// actual reads).
    #[inline]
    pub fn record_battery_row(&mut self, state: &NetworkState, sat: usize) {
        self.battery.push((sat, state.battery_row_gen(sat)));
    }

    /// Sorts and deduplicates the recorded reads. Duplicate reads of one
    /// cell or row always carry the same epoch (they were taken against
    /// one immutable snapshot), so dedup loses nothing.
    pub fn normalize(&mut self) {
        self.bandwidth.sort_unstable_by_key(|&(s, e, _)| (s, e));
        self.bandwidth.dedup();
        self.battery.sort_unstable();
        self.battery.dedup();
    }

    /// True when every recorded cell still holds its recorded epoch in
    /// `state` — i.e. replaying the quote there would reproduce it
    /// bit-identically. A state with a different shape (horizon, edge or
    /// satellite count) reads as stale, never panics.
    pub fn is_current(&self, state: &NetworkState) -> bool {
        for &(slot, edge, epoch) in &self.bandwidth {
            if slot.index() >= state.horizon()
                || edge.index() >= state.series().snapshot(slot).num_edges()
                || state.bandwidth_epoch(slot, edge) != epoch
            {
                return false;
            }
        }
        self.battery
            .iter()
            .all(|&(sat, gen)| sat < state.num_satellites() && state.battery_row_gen(sat) == gen)
    }

    /// Number of recorded bandwidth cells.
    pub fn bandwidth_len(&self) -> usize {
        self.bandwidth.len()
    }

    /// The recorded bandwidth cells (sorted after
    /// [`EpochReadSet::normalize`]).
    pub fn bandwidth_cells(&self) -> impl Iterator<Item = (SlotIndex, EdgeId)> + '_ {
        self.bandwidth.iter().map(|&(s, e, _)| (s, e))
    }

    /// The satellites whose battery rows were recorded (each once after
    /// [`EpochReadSet::normalize`]).
    pub fn battery_sats(&self) -> impl Iterator<Item = usize> + '_ {
        self.battery.iter().map(|&(s, _)| s)
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.bandwidth.is_empty() && self.battery.is_empty()
    }
}

/// Why a plan commit was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum CommitError {
    /// Reserving the plan would exceed a link's capacity.
    BandwidthExceeded {
        /// Slot of the violation.
        slot: SlotIndex,
        /// Offending edge.
        edge: EdgeId,
    },
    /// Reserving the plan would over-draw a satellite battery
    /// (constraint 7c).
    EnergyInfeasible {
        /// Slot of the violating consumption.
        slot: SlotIndex,
        /// Constellation index of the satellite.
        satellite: usize,
    },
    /// The plan does not cover exactly the request's active slots.
    SlotMismatch,
}

impl core::fmt::Display for CommitError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CommitError::BandwidthExceeded { slot, edge } => {
                write!(f, "link capacity exceeded at {slot} on edge {}", edge.0)
            }
            CommitError::EnergyInfeasible { slot, satellite } => {
                write!(f, "battery of satellite {satellite} over-drawn at {slot}")
            }
            CommitError::SlotMismatch => write!(f, "plan does not cover the request's slots"),
        }
    }
}

impl std::error::Error for CommitError {}

/// Handle to one committed reservation, in commit order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BookingId(pub usize);

/// The resource footprint of one committed plan, recorded so the booking
/// can later be (partially) released — a failure-recovery primitive.
///
/// Exact-release invariant: every `reserved_mbps` cell equals the fold, in
/// commit order, of the bandwidth contributions of the bookings that still
/// cover it, and every satellite's ledger rows equal the replay, in commit
/// order, of its surviving energy consumptions. Releases maintain the
/// invariant by recomputing affected cells/rows from the log instead of
/// subtracting (f64 subtraction is not an exact inverse of addition), so a
/// release followed by an identical re-commit restores the state
/// bit-identically.
#[derive(Debug, Clone)]
pub(crate) struct BookingEntry {
    /// Aggregated bandwidth demand per cell, sorted by `(slot, edge)` for
    /// deterministic iteration.
    pub(crate) bw: Vec<(SlotIndex, EdgeId, f64)>,
    /// Energy consumptions `(satellite, slot, joules)` in the exact order
    /// they were committed to the ledger.
    pub(crate) energy: Vec<(usize, usize, f64)>,
}

/// The operator's view of the network over the whole horizon.
#[derive(Debug, Clone)]
pub struct NetworkState {
    /// Shared, immutable topology: cloning a state (or building five
    /// algorithm states from one cached [`sb_topology::TopologySeries`])
    /// bumps a refcount instead of copying every snapshot.
    series: Arc<TopologySeries>,
    num_satellites: usize,
    energy_params: EnergyParams,
    ledger: EnergyLedger,
    /// Reserved bandwidth per slot, indexed by the slot's snapshot edge id.
    reserved_mbps: Vec<Vec<f64>>,
    /// Change epoch per `reserved_mbps` cell (see [`EPOCH_SOURCE`]): bumped
    /// whenever the cell's value may have changed, so price caches keyed on
    /// (slot, edge) can revalidate in O(1).
    bandwidth_epoch: Vec<Vec<u64>>,
    /// Change epoch per ledger deficit cell, indexed by
    /// [`EnergyLedger::flat_index`]; bumped whenever the cell's cumulative
    /// deficit (what battery prices read) may have changed.
    battery_epoch: Vec<u64>,
    /// Per-satellite row generation: the epoch of the most recent mutation
    /// that touched any deficit cell of the satellite's horizon row, i.e.
    /// the newest epoch in its `battery_epoch` row. Unchanged iff the whole
    /// row is.
    battery_row_gen: Vec<u64>,
    /// Every committed booking, in commit order (see [`BookingEntry`]).
    bookings: Vec<BookingEntry>,
}

impl NetworkState {
    /// Creates a fresh state over a topology series: no reservations, full
    /// batteries, solar input derived from each satellite's sunlit profile.
    pub fn new(series: impl Into<Arc<TopologySeries>>, energy_params: &EnergyParams) -> Self {
        let series = series.into();
        let num_satellites = series
            .snapshots()
            .first()
            .map_or(0, |s| s.kinds().iter().filter(|k| k.is_satellite()).count());
        let sunlit: Vec<Vec<bool>> = (0..num_satellites)
            .map(|i| series.sunlit_profile(sb_topology::NodeId(i as u32)))
            .collect();
        let ledger = EnergyLedger::new(energy_params, series.slot_duration_s(), &sunlit);
        let reserved_mbps: Vec<Vec<f64>> =
            series.snapshots().iter().map(|s| vec![0.0; s.num_edges()]).collect();
        let epoch = next_epoch();
        let bandwidth_epoch = reserved_mbps.iter().map(|row| vec![epoch; row.len()]).collect();
        let battery_epoch = vec![epoch; num_satellites * series.num_slots()];
        NetworkState {
            series,
            num_satellites,
            energy_params: *energy_params,
            ledger,
            reserved_mbps,
            bandwidth_epoch,
            battery_epoch,
            battery_row_gen: vec![epoch; num_satellites],
            bookings: Vec::new(),
        }
    }

    /// The underlying topology series.
    pub fn series(&self) -> &TopologySeries {
        &self.series
    }

    /// The energy ledger (read-only; mutate via plan commits).
    pub fn ledger(&self) -> &EnergyLedger {
        &self.ledger
    }

    /// The physical energy parameters.
    pub fn energy_params(&self) -> &EnergyParams {
        &self.energy_params
    }

    /// Number of broadband satellites.
    pub fn num_satellites(&self) -> usize {
        self.num_satellites
    }

    /// Number of slots in the horizon.
    pub fn horizon(&self) -> usize {
        self.series.num_slots()
    }

    /// Slot duration, seconds.
    pub fn slot_duration_s(&self) -> f64 {
        self.series.slot_duration_s()
    }

    /// Reserved bandwidth on an edge at a slot, Mbps.
    pub fn reserved_mbps(&self, slot: SlotIndex, edge: EdgeId) -> f64 {
        self.reserved_mbps[slot.index()][edge.index()]
    }

    /// Residual (unreserved) capacity on an edge at a slot, Mbps.
    pub fn residual_mbps(&self, slot: SlotIndex, edge: EdgeId) -> f64 {
        self.residual_of(slot, edge, self.series.snapshot(slot).capacity_mbps(edge))
    }

    /// [`Self::residual_mbps`] for a caller that already holds the edge's
    /// capacity — a search relaxation has the [`sb_topology::graph::Edge`]
    /// in hand — so nothing is looked up in the snapshot. Same bits.
    #[inline]
    pub fn residual_of(&self, slot: SlotIndex, edge: EdgeId, capacity_mbps: f64) -> f64 {
        capacity_mbps - self.reserved_mbps(slot, edge)
    }

    /// Bandwidth utilization `λ_e(T) ∈ [0, 1]` (Eq. 8).
    ///
    /// Guarded against degenerate capacities: a zero, negative or NaN
    /// capacity never yields NaN/inf — such an edge reads as fully
    /// utilized when anything is booked on it (so pricing repels traffic)
    /// and as idle otherwise.
    pub fn utilization(&self, slot: SlotIndex, edge: EdgeId) -> f64 {
        self.utilization_of(slot, edge, self.series.snapshot(slot).capacity_mbps(edge))
    }

    /// [`Self::utilization`] for a caller that already holds the edge's
    /// capacity (see [`Self::residual_of`]). Same bits.
    #[inline]
    pub fn utilization_of(&self, slot: SlotIndex, edge: EdgeId, cap: f64) -> f64 {
        if cap.is_nan() || cap <= 0.0 {
            return if self.reserved_mbps(slot, edge) > 0.0 { 1.0 } else { 0.0 };
        }
        let utilization = self.reserved_mbps(slot, edge) / cap;
        // A NaN reservation cell maps to 0.0 too (clamp would propagate it).
        if utilization.is_nan() {
            return 0.0;
        }
        utilization.clamp(0.0, 1.0)
    }

    /// Change epoch of the reserved-bandwidth cell `(slot, edge)`.
    ///
    /// Two reads returning the same epoch bracket a window in which the
    /// cell's value — and hence [`Self::utilization`] — was unchanged, even
    /// across state clones. Anything derived from the cell (e.g. a cached
    /// congestion price) stays valid exactly as long as the epoch does.
    #[inline]
    pub fn bandwidth_epoch(&self, slot: SlotIndex, edge: EdgeId) -> u64 {
        self.bandwidth_epoch[slot.index()][edge.index()]
    }

    /// Change epoch of satellite `sat`'s deficit cell at slot `t` — the
    /// input of [`EnergyLedger::battery_utilization`]. Same contract as
    /// [`Self::bandwidth_epoch`].
    #[inline]
    pub fn battery_epoch(&self, sat: usize, t: usize) -> u64 {
        self.battery_epoch[self.ledger.flat_index(sat, t)]
    }

    /// Generation of satellite `sat`'s whole horizon row of deficit cells:
    /// unchanged iff no [`Self::battery_epoch`] of the row moved. Same
    /// epoch semantics, one value per satellite.
    #[inline]
    pub fn battery_row_gen(&self, sat: usize) -> u64 {
        self.battery_row_gen[sat]
    }

    /// The constellation index of a node, when it is a broadband satellite.
    pub fn satellite_index(&self, node: sb_topology::NodeId) -> Option<usize> {
        match self.series.snapshots().first()?.kind(node) {
            NodeKind::Satellite(i) => Some(i),
            _ => None,
        }
    }

    /// Atomically validates and commits a reservation plan for `request`.
    ///
    /// Validation covers the request's demanded rate on every edge of every
    /// slot path (constraint 7b) and the sequential energy recursion on
    /// every satellite of every slot path (constraint 7c). On any failure
    /// the state is unchanged.
    ///
    /// # Errors
    ///
    /// Returns a [`CommitError`] naming the violated resource.
    pub fn try_commit_plan(
        &mut self,
        request: &Request,
        plan: &ReservationPlan,
    ) -> Result<(), CommitError> {
        // The plan must cover the active slots exactly, in order.
        let expected: Vec<SlotIndex> = request.active_slots().collect();
        if plan.slot_paths.len() != expected.len()
            || plan.slot_paths.iter().zip(&expected).any(|(sp, want)| sp.slot != *want)
        {
            return Err(CommitError::SlotMismatch);
        }

        // Bandwidth validation (a path may in principle repeat an edge, so
        // accumulate demand first).
        let mut demand: HashMap<(SlotIndex, EdgeId), f64> = HashMap::new();
        for sp in &plan.slot_paths {
            let rate = request.rate_at(sp.slot);
            for &e in &sp.edges {
                *demand.entry((sp.slot, e)).or_insert(0.0) += rate;
            }
        }
        for (&(slot, edge), &mbps) in &demand {
            if self.reserved_mbps(slot, edge) + mbps
                > self.series.snapshot(slot).capacity_mbps(edge) + 1e-6
            {
                return Err(CommitError::BandwidthExceeded { slot, edge });
            }
        }

        // Energy validation on a transactional overlay, in slot order —
        // exactly the sequential recursion of Algorithm 1 lines 9–16.
        let mut tx = self.ledger.overlay();
        let mut energy_log = Vec::new();
        for sp in &plan.slot_paths {
            let snapshot = self.series.snapshot(sp.slot);
            let rate = request.rate_at(sp.slot);
            for (node, role) in sp.satellite_roles(snapshot) {
                let sat = match snapshot.kind(node) {
                    NodeKind::Satellite(i) => i,
                    _ => unreachable!("satellite_roles returned a non-satellite"),
                };
                let consumption =
                    self.energy_params.consumption_j(role, rate, self.slot_duration_s());
                if tx.try_commit(sat, sp.slot.index(), consumption).is_none() {
                    return Err(CommitError::EnergyInfeasible { slot: sp.slot, satellite: sat });
                }
                energy_log.push((sat, sp.slot.index(), consumption));
            }
        }
        let delta = tx.into_delta();

        // All checks passed: apply. One fresh epoch stamps every touched
        // cell; untouched cells keep their epoch, so cached prices
        // elsewhere stay valid.
        let epoch = next_epoch();
        for (&(slot, edge), &mbps) in &demand {
            self.reserved_mbps[slot.index()][edge.index()] += mbps;
            self.bandwidth_epoch[slot.index()][edge.index()] = epoch;
        }
        for i in delta.deficit_indices() {
            self.battery_epoch[i] = epoch;
            // Flat ledger indices are satellite-major.
            self.battery_row_gen[i / self.series.num_slots()] = epoch;
        }
        self.ledger.absorb(delta);
        let mut bw: Vec<(SlotIndex, EdgeId, f64)> =
            demand.into_iter().map(|((s, e), m)| (s, e, m)).collect();
        bw.sort_by_key(|&(s, e, _)| (s, e));
        self.bookings.push(BookingEntry { bw, energy: energy_log });
        Ok(())
    }

    /// Number of bookings committed so far. With the next commit's id
    /// being `BookingId(booking_count())`, a caller can bracket a
    /// multi-commit operation and collect exactly the ids it produced.
    pub fn booking_count(&self) -> usize {
        self.bookings.len()
    }

    /// The id of the most recently committed booking.
    pub fn last_booking(&self) -> Option<BookingId> {
        self.bookings.len().checked_sub(1).map(BookingId)
    }

    /// Releases a booking's resources from slot `from` onwards: its
    /// reserved bandwidth in slots `≥ from` returns to the pool and its
    /// battery consumptions there are un-booked (deficits recomputed).
    /// Slots before `from` stay reserved — they were already served.
    ///
    /// Restoration is *exact*: affected bandwidth cells are re-folded and
    /// affected satellites' ledger rows replayed from the surviving
    /// booking log in commit order, so releasing a booking and committing
    /// an identical plan again yields a bit-identical [`NetworkState`]
    /// (see [`BookingEntry`]). Releasing an already-released range is a
    /// no-op.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never issued by this state.
    pub fn release_from(&mut self, id: BookingId, from: SlotIndex) {
        let entry = &mut self.bookings[id.0];
        let released_cells: HashSet<(SlotIndex, EdgeId)> =
            entry.bw.iter().filter(|&&(s, _, _)| s >= from).map(|&(s, e, _)| (s, e)).collect();
        let released_sats: HashSet<usize> = entry
            .energy
            .iter()
            .filter(|&&(_, t, _)| t >= from.index())
            .map(|&(sat, _, _)| sat)
            .collect();
        if released_cells.is_empty() && released_sats.is_empty() {
            return;
        }
        entry.bw.retain(|&(s, _, _)| s < from);
        entry.energy.retain(|&(_, t, _)| t < from.index());

        // Re-fold affected bandwidth cells from the surviving log.
        let epoch = next_epoch();
        for &(s, e) in &released_cells {
            self.reserved_mbps[s.index()][e.index()] = 0.0;
            self.bandwidth_epoch[s.index()][e.index()] = epoch;
        }
        for b in &self.bookings {
            for &(s, e, mbps) in &b.bw {
                if released_cells.contains(&(s, e)) {
                    self.reserved_mbps[s.index()][e.index()] += mbps;
                }
            }
        }

        // Replay affected satellites' ledger rows. Every surviving commit
        // was feasible in the original sequence, which drained strictly
        // more (it included the released consumptions), and adding energy
        // headroom never breaks feasibility — so replay cannot panic.
        // Reset + replay can move any cell of the row, so the whole row's
        // epochs advance.
        for &sat in &released_sats {
            self.ledger.reset_satellite(sat);
            self.battery_row_gen[sat] = epoch;
            for t in 0..self.horizon() {
                self.battery_epoch[self.ledger.flat_index(sat, t)] = epoch;
            }
        }
        for b in &self.bookings {
            for &(sat, t, j) in &b.energy {
                if released_sats.contains(&sat) {
                    self.ledger.commit(sat, t, j);
                }
            }
        }

        // Cheap self-check on every refolded cell (full-state audits live
        // in `crate::audit` and run at slot boundaries).
        #[cfg(feature = "strict-audit")]
        for &(s, e) in &released_cells {
            let cap = self.series.snapshot(s).capacity_mbps(e);
            let reserved = self.reserved_mbps[s.index()][e.index()];
            assert!(
                reserved >= 0.0 && reserved <= cap + 1e-6,
                "release_from left {reserved} Mbps reserved on edge {} at {s} (capacity {cap})",
                e.0
            );
        }
    }

    /// The booking log, for the conservation auditor.
    pub(crate) fn bookings_log(&self) -> &[BookingEntry] {
        &self.bookings
    }

    /// Serializes the mutable state — energy ledger, reserved-bandwidth
    /// plane, booking log — bit-exactly into `w`. The topology series is
    /// *not* written: it is deterministic given the scenario and is
    /// rebuilt by the caller, which keeps snapshots small and lets
    /// [`NetworkState::decode_snapshot`] cross-check the encoded
    /// dimensions against the freshly built series.
    pub fn encode_snapshot(&self, w: &mut sb_wire::Writer) {
        self.ledger.encode(w);
        w.usize(self.num_satellites);
        w.seq(&self.reserved_mbps, |w, row| w.seq(row, |w, v| w.f64(*v)));
        w.seq(&self.bookings, |w, b| {
            w.seq(&b.bw, |w, &(s, e, m)| {
                w.u32(s.0);
                w.u32(e.0);
                w.f64(m);
            });
            w.seq(&b.energy, |w, &(sat, t, j)| {
                w.usize(sat);
                w.usize(t);
                w.f64(j);
            });
        });
    }

    /// Restores a state written by [`NetworkState::encode_snapshot`] on
    /// top of a freshly rebuilt topology `series`.
    ///
    /// Every encoded dimension is validated against the series — slot
    /// count, per-slot edge counts, satellite count, and every booking
    /// coordinate — so a snapshot from a different scenario (or a
    /// corrupted one) is rejected instead of producing a state that
    /// panics on first use.
    ///
    /// # Errors
    ///
    /// Returns a [`sb_wire::WireError`] on truncated input or any
    /// dimension mismatch.
    pub fn decode_snapshot(
        series: impl Into<Arc<TopologySeries>>,
        r: &mut sb_wire::Reader<'_>,
    ) -> Result<Self, sb_wire::WireError> {
        let series = series.into();
        let invalid = |detail: String| sb_wire::WireError::Invalid { detail };
        let ledger = EnergyLedger::decode(r)?;
        let num_satellites = r.usize()?;
        if ledger.num_satellites() != num_satellites {
            return Err(invalid(format!(
                "ledger tracks {} satellites, snapshot header says {num_satellites}",
                ledger.num_satellites()
            )));
        }
        if ledger.horizon() != series.num_slots() {
            return Err(invalid(format!(
                "ledger horizon {} does not match series horizon {}",
                ledger.horizon(),
                series.num_slots()
            )));
        }
        let num_slots = r.seq_len(8)?;
        if num_slots != series.num_slots() {
            return Err(invalid(format!(
                "snapshot holds {num_slots} reserved-bandwidth slots, series has {}",
                series.num_slots()
            )));
        }
        let mut reserved_mbps = Vec::with_capacity(num_slots);
        for t in 0..num_slots {
            let edges = series.snapshot(SlotIndex(t as u32)).num_edges();
            let n = r.seq_len(8)?;
            if n != edges {
                return Err(invalid(format!(
                    "slot {t} holds {n} reserved-bandwidth cells, snapshot has {edges} edges"
                )));
            }
            reserved_mbps.push((0..n).map(|_| r.f64()).collect::<Result<Vec<f64>, _>>()?);
        }
        let num_bookings = r.seq_len(16)?;
        let mut bookings = Vec::with_capacity(num_bookings);
        for _ in 0..num_bookings {
            let n_bw = r.seq_len(16)?;
            let mut bw = Vec::with_capacity(n_bw);
            for _ in 0..n_bw {
                let (s, e, m) = (SlotIndex(r.u32()?), EdgeId(r.u32()?), r.f64()?);
                if s.index() >= num_slots {
                    return Err(invalid(format!("booking cell at out-of-range {s}")));
                }
                if e.index() >= series.snapshot(s).num_edges() {
                    return Err(invalid(format!(
                        "booking cell at {s} names edge {}, snapshot has {}",
                        e.0,
                        series.snapshot(s).num_edges()
                    )));
                }
                bw.push((s, e, m));
            }
            let n_energy = r.seq_len(24)?;
            let mut energy = Vec::with_capacity(n_energy);
            for _ in 0..n_energy {
                let (sat, t, j) = (r.usize()?, r.usize()?, r.f64()?);
                if sat >= num_satellites || t >= num_slots {
                    return Err(invalid(format!(
                        "booking energy names satellite {sat} slot {t}, state has \
                         {num_satellites} satellites over {num_slots} slots"
                    )));
                }
                energy.push((sat, t, j));
            }
            bookings.push(BookingEntry { bw, energy });
        }
        let energy_params = *ledger.params();
        // Epochs are transient cache-coherence data, not wire state: a
        // decoded state gets one fresh epoch everywhere, which can never
        // collide with a stamp a price cache took against another state.
        let epoch = next_epoch();
        let bandwidth_epoch = reserved_mbps.iter().map(|row| vec![epoch; row.len()]).collect();
        let battery_epoch = vec![epoch; num_satellites * series.num_slots()];
        Ok(NetworkState {
            series,
            num_satellites,
            energy_params,
            ledger,
            reserved_mbps,
            bandwidth_epoch,
            battery_epoch,
            battery_row_gen: vec![epoch; num_satellites],
            bookings,
        })
    }

    /// Test-only corruption injector: overwrites one reserved-bandwidth
    /// cell, bypassing the booking log. Exists so the conservation
    /// auditor's detection paths can be exercised; never call it from
    /// production code.
    #[doc(hidden)]
    pub fn debug_set_reserved(&mut self, slot: SlotIndex, edge: EdgeId, mbps: f64) {
        let epoch = next_epoch();
        self.reserved_mbps[slot.index()][edge.index()] = mbps;
        self.bandwidth_epoch[slot.index()][edge.index()] = epoch;
    }

    /// Test-only epoch invalidator: advances the epoch of one battery
    /// cell without touching its value, as if a foreign commit had
    /// re-stamped it. Exists so read-set conflict paths can be exercised
    /// deterministically; never call it from production code.
    #[doc(hidden)]
    pub fn debug_bump_battery_epoch(&mut self, sat: usize, t: usize) {
        let epoch = next_epoch();
        self.battery_epoch[self.ledger.flat_index(sat, t)] = epoch;
        self.battery_row_gen[sat] = epoch;
    }

    /// Test-only mutable ledger access, for injecting ledger corruption.
    /// Conservatively advances every battery epoch — the caller may mutate
    /// any cell through the returned reference.
    #[doc(hidden)]
    pub fn debug_ledger_mut(&mut self) -> &mut EnergyLedger {
        let epoch = next_epoch();
        self.battery_epoch.fill(epoch);
        self.battery_row_gen.fill(epoch);
        &mut self.ledger
    }

    /// Number of links at `slot` whose residual capacity is below
    /// `threshold_frac` of capacity — the paper's *congested links* metric
    /// uses `threshold_frac = 0.1`. Directed edges are counted once per
    /// unordered pair is **not** attempted; the paper counts links, which
    /// in our directed representation is each direction independently
    /// halved.
    pub fn congested_link_count(&self, slot: SlotIndex, threshold_frac: f64) -> usize {
        let congested_directed = self
            .series
            .snapshot(slot)
            .capacities()
            .zip(&self.reserved_mbps[slot.index()])
            .filter(|&(capacity, reserved)| capacity - reserved < threshold_frac * capacity)
            .count();
        congested_directed.div_ceil(2)
    }

    /// Number of satellites whose battery at `slot` is below
    /// `threshold_frac` of capacity (paper metric: 20 %).
    pub fn depleted_satellite_count(&self, slot: SlotIndex, threshold_frac: f64) -> usize {
        self.ledger.depleted_count(slot.index(), threshold_frac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SlotPath;
    use sb_demand::{RateProfile, RequestId};
    use sb_geo::coords::Geodetic;
    use sb_orbit::walker::WalkerConstellation;
    use sb_topology::{NetworkNodes, NodeId, TopologyConfig, TopologySeries};

    /// A 12×12 shell with two nearby ground users, and the topology
    /// configuration the small states are built with.
    fn small_network() -> (NetworkNodes, TopologyConfig, NodeId, NodeId) {
        let shell = WalkerConstellation::delta(12, 12, 1, 550e3, 53f64.to_radians());
        let mut nodes = NetworkNodes::from_walker(&shell);
        let a = nodes.add_ground_site(Geodetic::from_degrees(35.8, -78.6, 0.0));
        let b = nodes.add_ground_site(Geodetic::from_degrees(40.7, -74.0, 0.0));
        let cfg =
            TopologyConfig { min_elevation_rad: 10f64.to_radians(), ..TopologyConfig::default() };
        (nodes, cfg, a, b)
    }

    fn small_state() -> (NetworkState, NodeId, NodeId) {
        let (nodes, cfg, a, b) = small_network();
        let series = TopologySeries::build(&nodes, &cfg, 3, 60.0);
        (NetworkState::new(series, &EnergyParams::default()), a, b)
    }

    /// Builds a 1-slot plan along actual snapshot edges from `src` by
    /// following its first USL and the satellite's first USL back down.
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
    fn fresh_state_is_empty() {
        let (state, _, _) = small_state();
        assert_eq!(state.num_satellites(), 144);
        assert_eq!(state.horizon(), 3);
        let snap = state.series().snapshot(SlotIndex(0));
        for idx in 0..snap.num_edges() {
            assert_eq!(state.reserved_mbps(SlotIndex(0), EdgeId(idx as u32)), 0.0);
            assert_eq!(state.utilization(SlotIndex(0), EdgeId(idx as u32)), 0.0);
        }
        assert_eq!(state.congested_link_count(SlotIndex(0), 0.1), 0);
        assert_eq!(state.depleted_satellite_count(SlotIndex(0), 0.2), 0);
    }

    #[test]
    fn commit_reserves_bandwidth_and_energy() {
        let (mut state, src, dst) = small_state();
        // NY and Raleigh are close: often share a satellite (bent pipe).
        let Some(plan) = direct_plan(&state, src, dst, SlotIndex(0)) else {
            // Geometry didn't give a shared satellite in this build; the
            // search tests cover the general case.
            return;
        };
        let req = request(src, dst, 1000.0);
        state.try_commit_plan(&req, &plan).unwrap();
        let sp = &plan.slot_paths[0];
        for &e in &sp.edges {
            assert_eq!(state.reserved_mbps(SlotIndex(0), e), 1000.0);
            assert!(state.utilization(SlotIndex(0), e) > 0.0);
        }
        // Bent-pipe at 1000 Mbps: 7500 MB × 1.8 J/MB = 13500 J ≫ solar.
        let sat = state.satellite_index(sp.nodes[1]).unwrap();
        assert!(state.ledger().deficit_j(sat, 0) > 0.0);
    }

    #[test]
    fn overcommit_bandwidth_rejected_atomically() {
        let (mut state, src, dst) = small_state();
        let Some(plan) = direct_plan(&state, src, dst, SlotIndex(0)) else { return };
        let req = request(src, dst, 3000.0);
        state.try_commit_plan(&req, &plan).unwrap();
        // Second identical request: 6000 > 4000 Mbps USL capacity.
        let before_ledger = state.ledger().clone();
        let err = state.try_commit_plan(&req, &plan).unwrap_err();
        assert!(matches!(err, CommitError::BandwidthExceeded { .. }), "{err}");
        // Atomic: the failed commit left the ledger untouched.
        assert_eq!(state.ledger(), &before_ledger);
    }

    #[test]
    fn slot_mismatch_rejected() {
        let (mut state, src, dst) = small_state();
        let Some(plan) = direct_plan(&state, src, dst, SlotIndex(1)) else { return };
        // Request active at slot 0 but plan covers slot 1.
        let req = request(src, dst, 100.0);
        assert_eq!(state.try_commit_plan(&req, &plan), Err(CommitError::SlotMismatch));
    }

    /// Builds a random user→sat→…→user walk in the slot-0 snapshot by
    /// following out-edges with a seeded LCG; may or may not be feasible.
    fn random_plan(
        state: &NetworkState,
        src: NodeId,
        dst: NodeId,
        seed: u64,
    ) -> Option<ReservationPlan> {
        let snap = state.series().snapshot(SlotIndex(0));
        let mut rng = seed;
        let mut next = move || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 33) as usize
        };
        let mut nodes = vec![src];
        let mut edges = Vec::new();
        let mut here = src;
        for _ in 0..12 {
            let out: Vec<_> = snap.out_edges(here).collect();
            if out.is_empty() {
                return None;
            }
            let (eid, e) = out[next() % out.len()];
            // Never route through a foreign user.
            if e.dst != dst && snap.kind(e.dst).is_user() {
                continue;
            }
            nodes.push(e.dst);
            edges.push(eid);
            here = e.dst;
            if here == dst {
                return Some(ReservationPlan {
                    slot_paths: vec![crate::plan::SlotPath { slot: SlotIndex(0), nodes, edges }],
                    total_cost: 0.0,
                });
            }
        }
        None
    }

    #[test]
    fn failed_commits_are_always_atomic() {
        // Property: whatever sequence of random plans we throw at the
        // state, a rejected commit leaves it bit-identical and an accepted
        // one respects the invariants.
        let (mut state, src, dst) = small_state();
        let mut committed = 0;
        let mut rejected = 0;
        for seed in 0..200u64 {
            let Some(plan) = random_plan(&state, src, dst, seed) else { continue };
            let req = request(src, dst, 1500.0 + (seed % 7) as f64 * 300.0);
            let before_ledger = state.ledger().clone();
            let before_reserved: Vec<f64> = {
                let snap = state.series().snapshot(SlotIndex(0));
                (0..snap.num_edges())
                    .map(|i| state.reserved_mbps(SlotIndex(0), EdgeId(i as u32)))
                    .collect()
            };
            match state.try_commit_plan(&req, &plan) {
                Ok(()) => committed += 1,
                Err(_) => {
                    rejected += 1;
                    assert_eq!(state.ledger(), &before_ledger, "ledger mutated on reject");
                    for (i, &before) in before_reserved.iter().enumerate() {
                        assert_eq!(
                            state.reserved_mbps(SlotIndex(0), EdgeId(i as u32)),
                            before,
                            "bandwidth mutated on reject"
                        );
                    }
                }
            }
            // Invariants always hold.
            let snap = state.series().snapshot(SlotIndex(0));
            for i in 0..snap.num_edges() {
                assert!(state.residual_mbps(SlotIndex(0), EdgeId(i as u32)) >= -1e-6);
            }
            for sat in 0..state.num_satellites() {
                assert!(state.ledger().battery_level_j(sat, 0) >= -1e-6);
            }
        }
        assert!(committed > 0, "some random walks must commit");
        assert!(rejected > 0, "saturation must eventually reject");
    }

    /// Bit-exact resource comparison across the whole horizon.
    fn assert_resources_eq(a: &NetworkState, b: &NetworkState) {
        assert_eq!(a.ledger(), b.ledger(), "ledgers differ");
        for t in 0..a.horizon() {
            let slot = SlotIndex(t as u32);
            let snap = a.series().snapshot(slot);
            for i in 0..snap.num_edges() {
                let e = EdgeId(i as u32);
                assert!(
                    a.reserved_mbps(slot, e).to_bits() == b.reserved_mbps(slot, e).to_bits(),
                    "reserved bandwidth differs at {slot} edge {i}"
                );
            }
        }
    }

    #[test]
    fn release_then_recommit_restores_state_exactly() {
        // The ISSUE's regression requirement: release_from followed by an
        // identical re-reservation restores utilization exactly — both
        // the bandwidth plane and the battery ledger, bit for bit.
        let (mut state, src, dst) = small_state();
        let Some(plan_a) = direct_plan(&state, src, dst, SlotIndex(0)) else { return };
        let req = request(src, dst, 900.0);
        state.try_commit_plan(&req, &plan_a).unwrap();
        let after_a = state.clone();

        // A second booking over (typically) the same links and satellites.
        state.try_commit_plan(&req, &plan_a).unwrap();
        let after_b = state.clone();
        let b = state.last_booking().unwrap();

        state.release_from(b, SlotIndex(0));
        assert_resources_eq(&state, &after_a);

        state.try_commit_plan(&req, &plan_a).unwrap();
        assert_resources_eq(&state, &after_b);
    }

    #[test]
    fn partial_release_keeps_served_prefix() {
        let (mut state, src, dst) = small_state();
        // A 2-slot plan: the same bent pipe in slots 0 and 1 (node motion
        // may break slot 1; skip then).
        let Some(p0) = direct_plan(&state, src, dst, SlotIndex(0)) else { return };
        let Some(p1) = direct_plan(&state, src, dst, SlotIndex(1)) else { return };
        let plan = ReservationPlan {
            slot_paths: vec![p0.slot_paths[0].clone(), p1.slot_paths[0].clone()],
            total_cost: 0.0,
        };
        let req = Request { end: SlotIndex(1), ..request(src, dst, 700.0) };
        state.try_commit_plan(&req, &plan).unwrap();
        let id = state.last_booking().unwrap();

        state.release_from(id, SlotIndex(1));
        // Slot 0 stays reserved, slot 1 is free again.
        for &e in &plan.slot_paths[0].edges {
            assert_eq!(state.reserved_mbps(SlotIndex(0), e), 700.0);
        }
        for &e in &plan.slot_paths[1].edges {
            assert_eq!(state.reserved_mbps(SlotIndex(1), e), 0.0);
        }
        // Releasing the same suffix again is a no-op.
        let snapshot = state.clone();
        state.release_from(id, SlotIndex(1));
        assert_resources_eq(&state, &snapshot);
    }

    #[test]
    fn release_interleaved_bookings_is_exact() {
        // Releasing a booking sandwiched between two others must leave
        // exactly the state that committing only the other two produces.
        let (mut state, src, dst) = small_state();
        let Some(plan) = direct_plan(&state, src, dst, SlotIndex(0)) else { return };
        let req = request(src, dst, 400.0);

        let mut reference = state.clone();
        reference.try_commit_plan(&req, &plan).unwrap();
        reference.try_commit_plan(&req, &plan).unwrap();

        state.try_commit_plan(&req, &plan).unwrap();
        state.try_commit_plan(&req, &plan).unwrap();
        let middle = state.last_booking().unwrap();
        state.try_commit_plan(&req, &plan).unwrap();
        state.release_from(middle, SlotIndex(0));

        // Survivors (1st, 3rd) re-fold in log order; with identical plans
        // that fold matches the reference's (1st, 2nd) bit-for-bit.
        assert_resources_eq(&state, &reference);
    }

    #[test]
    fn booking_ids_are_sequential() {
        let (mut state, src, dst) = small_state();
        assert_eq!(state.booking_count(), 0);
        assert_eq!(state.last_booking(), None);
        let Some(plan) = direct_plan(&state, src, dst, SlotIndex(0)) else { return };
        let req = request(src, dst, 100.0);
        state.try_commit_plan(&req, &plan).unwrap();
        assert_eq!(state.booking_count(), 1);
        assert_eq!(state.last_booking(), Some(BookingId(0)));
        state.try_commit_plan(&req, &plan).unwrap();
        assert_eq!(state.last_booking(), Some(BookingId(1)));
    }

    #[test]
    fn snapshot_roundtrips_bit_exactly() {
        let (mut state, src, dst) = small_state();
        if let Some(plan) = direct_plan(&state, src, dst, SlotIndex(0)) {
            let req = request(src, dst, 650.0);
            state.try_commit_plan(&req, &plan).unwrap();
            state.try_commit_plan(&req, &plan).unwrap();
            state.release_from(BookingId(0), SlotIndex(0));
        }
        let mut w = sb_wire::Writer::new();
        state.encode_snapshot(&mut w);
        let bytes = w.into_bytes();
        let mut r = sb_wire::Reader::new(&bytes);
        let back = NetworkState::decode_snapshot(state.series().clone(), &mut r).unwrap();
        assert!(r.is_exhausted());
        assert_resources_eq(&state, &back);
        assert_eq!(back.booking_count(), state.booking_count());
        // The restored state keeps working bit-identically: commit the
        // same plan into both and compare again.
        if let Some(plan) = direct_plan(&state, src, dst, SlotIndex(0)) {
            let req = request(src, dst, 300.0);
            let mut live = state.clone();
            let mut restored = back.clone();
            assert_eq!(
                live.try_commit_plan(&req, &plan).is_ok(),
                restored.try_commit_plan(&req, &plan).is_ok()
            );
            assert_resources_eq(&live, &restored);
        }
        // And it still audits clean.
        assert!(crate::audit::audit(&back).is_clean());
    }

    #[test]
    fn snapshot_decode_rejects_truncation_and_foreign_series() {
        let (state, _, _) = small_state();
        let mut w = sb_wire::Writer::new();
        state.encode_snapshot(&mut w);
        let bytes = w.into_bytes();
        // Every truncation point errors instead of panicking. Stride to
        // keep the test quick (the buffer is tens of kilobytes).
        for cut in (0..bytes.len()).step_by(97) {
            let mut r = sb_wire::Reader::new(&bytes[..cut]);
            assert!(
                NetworkState::decode_snapshot(state.series().clone(), &mut r).is_err(),
                "cut at {cut}"
            );
        }
        // A series with a different horizon is rejected by dimension
        // checks, not a panic.
        let shell = WalkerConstellation::delta(12, 12, 1, 550e3, 53f64.to_radians());
        let nodes = NetworkNodes::from_walker(&shell);
        let cfg = TopologyConfig::default();
        let foreign = TopologySeries::build(&nodes, &cfg, 2, 60.0);
        let mut r = sb_wire::Reader::new(&bytes);
        assert!(NetworkState::decode_snapshot(foreign, &mut r).is_err());
    }

    #[test]
    fn random_admit_release_sequences_keep_the_auditor_green() {
        // Satellite task: whatever interleaving of commits and (partial)
        // releases happens, the state stays exactly the fold of its own
        // booking log. Uses the same seeded-LCG plan generator as the
        // atomicity property test.
        let (mut state, src, dst) = small_state();
        let mut live: Vec<BookingId> = Vec::new();
        let mut rng: u64 = 0x5eed;
        let mut next = move || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 33) as usize
        };
        let mut committed = 0;
        let mut released = 0;
        for round in 0..120u64 {
            if !live.is_empty() && next() % 3 == 0 {
                // Release a random booking from a random slot onward.
                let id = live.swap_remove(next() % live.len());
                let from = SlotIndex((next() % state.horizon()) as u32);
                state.release_from(id, from);
                released += 1;
            } else if let Some(plan) = random_plan(&state, src, dst, round.wrapping_mul(7919)) {
                let req = request(src, dst, 800.0 + (round % 5) as f64 * 250.0);
                if state.try_commit_plan(&req, &plan).is_ok() {
                    live.push(state.last_booking().unwrap());
                    committed += 1;
                }
            }
            if round % 10 == 0 {
                let report = crate::audit::audit(&state);
                assert!(report.is_clean(), "round {round}: {report}");
            }
        }
        let report = crate::audit::audit(&state);
        assert!(report.is_clean(), "final: {report}");
        assert!(committed > 0 && released > 0, "sequence must exercise both paths");
    }

    #[test]
    fn release_recommit_restores_exact_residuals() {
        // Satellite task: residual_mbps (what admission decisions read)
        // is restored bit-exactly by release + identical re-commit, for
        // every cell the booking touched.
        let (mut state, src, dst) = small_state();
        let Some(plan) = direct_plan(&state, src, dst, SlotIndex(0)) else { return };
        let req = request(src, dst, 1200.0);
        state.try_commit_plan(&req, &plan).unwrap();
        let cells: Vec<(SlotIndex, EdgeId)> =
            plan.slot_paths.iter().flat_map(|sp| sp.edges.iter().map(|&e| (sp.slot, e))).collect();
        let before: Vec<u64> =
            cells.iter().map(|&(s, e)| state.residual_mbps(s, e).to_bits()).collect();

        let id = state.last_booking().unwrap();
        state.release_from(id, SlotIndex(0));
        state.try_commit_plan(&req, &plan).unwrap();
        let after: Vec<u64> =
            cells.iter().map(|&(s, e)| state.residual_mbps(s, e).to_bits()).collect();
        assert_eq!(before, after, "residuals differ after release + re-commit");
    }

    #[test]
    fn capacity_reads_match_the_materialized_edge_bitwise() {
        // residual_mbps / utilization read the capacity through
        // `TopologySnapshot::capacity_mbps`; on both layouts that must be
        // the bits `edge(id).capacity_mbps` gives.
        let (split, src, dst) = small_state();
        assert!(split.series().snapshot(SlotIndex(0)).is_split());
        let (nodes, cfg, _, _) = small_network();
        let dense = NetworkState::new(
            TopologySeries::build_full(&nodes, &cfg, 3, 60.0),
            &EnergyParams::default(),
        );
        assert!(!dense.series().snapshot(SlotIndex(0)).is_split());
        for mut state in [split, dense] {
            for seed in 0..40u64 {
                if let Some(plan) = random_plan(&state, src, dst, seed) {
                    let _ = state.try_commit_plan(&request(src, dst, 700.0), &plan);
                }
            }
            assert!(state.booking_count() > 0, "nothing reserved: vacuous comparison");
            for t in 0..state.horizon() {
                let slot = SlotIndex(t as u32);
                let snap = state.series().snapshot(slot);
                for e in (0..snap.num_edges() as u32).map(EdgeId) {
                    let cap = snap.edge(e).capacity_mbps;
                    assert_eq!(
                        state.residual_mbps(slot, e).to_bits(),
                        (cap - state.reserved_mbps(slot, e)).to_bits(),
                        "residual at {slot} edge {}",
                        e.0
                    );
                    assert_eq!(
                        state.utilization(slot, e).to_bits(),
                        state.utilization_of(slot, e, cap).to_bits(),
                        "utilization at {slot} edge {}",
                        e.0
                    );
                }
            }
        }
    }

    /// One-slot state whose only edge has the given capacity.
    fn degenerate_state(capacity_mbps: f64) -> NetworkState {
        use sb_geo::coords::Eci;
        use sb_geo::Vec3;
        use sb_topology::graph::{Edge, LinkType, TopologySnapshot};
        use sb_topology::NodeKind;
        let kinds = vec![NodeKind::GroundUser(0), NodeKind::Satellite(0)];
        let edges = vec![Edge {
            src: NodeId(0),
            dst: NodeId(1),
            link_type: LinkType::Usl,
            capacity_mbps,
            length_m: 1.0e6,
        }];
        let snap = TopologySnapshot::from_edges(
            SlotIndex(0),
            kinds,
            vec![Eci(Vec3::ZERO); 2],
            vec![true; 2],
            edges,
        );
        let series = TopologySeries::from_snapshots(vec![snap], 60.0);
        NetworkState::new(series, &EnergyParams::default())
    }

    #[test]
    fn utilization_guards_degenerate_capacity() {
        // Zero/negative/NaN capacity must never leak NaN or inf out of
        // utilization, whatever the reservation cell holds.
        let (slot, edge) = (SlotIndex(0), EdgeId(0));
        for cap in [0.0, -10.0, f64::NAN] {
            let mut state = degenerate_state(cap);
            assert_eq!(state.utilization(slot, edge), 0.0, "cap={cap}: idle");
            state.debug_set_reserved(slot, edge, 250.0);
            assert_eq!(state.utilization(slot, edge), 1.0, "cap={cap}: loaded");
        }
        // A NaN reservation over a healthy capacity reads as idle, not NaN.
        let mut state = degenerate_state(1000.0);
        state.debug_set_reserved(slot, edge, f64::NAN);
        assert_eq!(state.utilization(slot, edge), 0.0);
        // Healthy cells are unaffected by the guard.
        state.debug_set_reserved(slot, edge, 250.0);
        assert_eq!(state.utilization(slot, edge), 0.25);
    }

    #[test]
    fn commit_error_display() {
        let e = CommitError::EnergyInfeasible { slot: SlotIndex(3), satellite: 17 };
        assert!(format!("{e}").contains("satellite 17"));
        let b = CommitError::BandwidthExceeded { slot: SlotIndex(0), edge: EdgeId(5) };
        assert!(format!("{b}").contains("capacity"));
    }
}
