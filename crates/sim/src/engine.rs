//! End-to-end deterministic simulation runs.
//!
//! [`run`] executes the full pipeline for one `(scenario, algorithm,
//! seed)` triple:
//!
//! 1. build the Walker shell, ground grid and EO fleet;
//! 2. draw the scenario's source-destination pairs (GDP-weighted ground
//!    sites; EO satellites for space-user pairs) with the seeded RNG;
//! 3. build the per-slot topology series and a fresh [`NetworkState`];
//! 4. generate the Poisson workload with the same seed;
//! 5. step the horizon slot by slot — each slot admits its due retries and
//!    arrivals in workload order, then (when the scenario configures
//!    unforeseen failures) discovers the slot's outages and applies the
//!    repair policy to every reservation they broke;
//! 6. collect the paper's metrics plus the delivered-welfare and repair
//!    accounting.
//!
//! Unforeseen failures are drawn *after* admission: requests route on the
//! clean topology series, outages surface only at slot boundaries via
//! [`FailureOracle`], and a request admitted in the very slot an outage is
//! active is caught by the same boundary pass. With no unforeseen failures
//! configured the slot loop performs exactly the request-ordered
//! processing sequence of the foresight-only engine, so those runs stay
//! bit-identical.
//!
//! Identical inputs give bit-identical outputs — the error bars in the
//! figures come solely from varying the seed.

use crate::journal::{JournalRecord, RepairEvent};
use crate::metrics::RunMetrics;
use crate::outage::FailureOracle;
use crate::scenario::{ScenarioConfig, UnforeseenFailures};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sb_cear::{
    repair, try_repair, AblationFlags, BookingId, Cear, CearParams, Decision, KnownFailures,
    NetworkState, RejectReason, RepairOutcome, RepairPolicy, RoutingAlgorithm, SlotPath,
};
use sb_demand::generator::{generate_workload, WorkloadConfig};
use sb_demand::Request;
use sb_orbit::walker::WalkerConstellation;
use sb_topology::ground::GroundGrid;
use sb_topology::{NetworkNodes, NodeId, SeriesPackage, SlotIndex, TopologySeries};
use sb_wire::{Reader, WireError, Writer};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Which algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AlgorithmKind {
    /// CEAR with the given pricing parameters.
    Cear(CearParams),
    /// An ablated CEAR variant (for ablation studies).
    CearAblated(CearParams, AblationFlags),
    /// Single Shortest Path.
    Ssp,
    /// ECARS with default factors.
    Ecars,
    /// ERU with its default depth-of-discharge threshold.
    Eru,
    /// ERA with its default threshold and factor pairs.
    Era,
}

impl AlgorithmKind {
    /// All five algorithms of the paper's comparison, CEAR configured from
    /// the scenario.
    pub fn all(scenario: &ScenarioConfig) -> Vec<AlgorithmKind> {
        vec![
            AlgorithmKind::Cear(scenario.cear),
            AlgorithmKind::Ssp,
            AlgorithmKind::Ecars,
            AlgorithmKind::Eru,
            AlgorithmKind::Era,
        ]
    }

    /// Instantiates the algorithm.
    pub fn instantiate(&self) -> Box<dyn RoutingAlgorithm> {
        match self {
            AlgorithmKind::Cear(params) => Box::new(Cear::new(*params)),
            AlgorithmKind::CearAblated(params, flags) => {
                Box::new(Cear::with_ablation(*params, *flags))
            }
            AlgorithmKind::Ssp => Box::new(sb_cear::Ssp::new()),
            AlgorithmKind::Ecars => Box::new(sb_cear::Ecars::new()),
            AlgorithmKind::Eru => Box::new(sb_cear::Eru::new()),
            AlgorithmKind::Era => Box::new(sb_cear::Era::new()),
        }
    }

    /// The algorithm's display name.
    pub fn name(&self) -> &'static str {
        match self {
            AlgorithmKind::Cear(_) => "CEAR",
            AlgorithmKind::CearAblated(_, flags) => match flags.suffix() {
                "-nobw" => "CEAR-nobw",
                "-noenergy" => "CEAR-noenergy",
                "-noadmission" => "CEAR-noadmission",
                "-noprice" => "CEAR-noprice",
                "" => "CEAR",
                _ => "CEAR-custom",
            },
            AlgorithmKind::Ssp => "SSP",
            AlgorithmKind::Ecars => "ECARS",
            AlgorithmKind::Eru => "ERU",
            AlgorithmKind::Era => "ERA",
        }
    }
}

/// The prepared, workload-independent part of a run: node table, topology
/// series and endpoint pairs. Building this is the expensive step at paper
/// scale, so it is exposed separately for reuse across algorithms (the
/// comparison figures run all five algorithms on the *same* prepared
/// network and workload), and memoized across sweep cells by
/// [`crate::prepared::PreparedCache`].
#[derive(Debug, Clone)]
pub struct PreparedNetwork {
    /// The node table used to build the series.
    pub pairs: Vec<(NodeId, NodeId)>,
    /// The topology snapshots for the whole horizon, shared so that the
    /// per-algorithm [`NetworkState`]s built from one prepared network
    /// bump a refcount instead of cloning every snapshot.
    pub series: std::sync::Arc<TopologySeries>,
}

/// Builds the constellation, selects endpoint pairs and builds the
/// topology series for a scenario. Endpoint selection uses its own RNG
/// stream derived from `seed` so workload and topology draws never
/// interfere.
pub fn prepare(scenario: &ScenarioConfig, seed: u64) -> PreparedNetwork {
    prepare_with(scenario, seed, 1)
}

/// [`prepare`] with the per-slot snapshot builds fanned across
/// `build_threads` worker threads ([`TopologySeries::build_par`]). The
/// result is bit-identical for every thread count — the knob tunes build
/// speed, never what gets built, which is why it is a plain argument and
/// not part of [`ScenarioConfig`] or any digest.
pub fn prepare_with(scenario: &ScenarioConfig, seed: u64, build_threads: usize) -> PreparedNetwork {
    let (nodes, pairs) = draw_nodes_and_pairs(scenario, seed);
    let series = TopologySeries::build_par(
        &nodes,
        &scenario.topology,
        scenario.horizon_slots,
        scenario.slot_duration_s,
        build_threads,
    );
    let series = apply_foreseen_failures(scenario, seed, series);
    PreparedNetwork { pairs, series: std::sync::Arc::new(series) }
}

/// The node-table half of [`prepare`]: builds the constellation shells and
/// draws the endpoint pairs (mutating the node table with the ground sites
/// and space users each pair adds). Cheap compared to the series build, so
/// a worker receiving a shipped series redoes this part locally.
fn draw_nodes_and_pairs(
    scenario: &ScenarioConfig,
    seed: u64,
) -> (NetworkNodes, Vec<(NodeId, NodeId)>) {
    let mut shells = Vec::with_capacity(1 + scenario.extra_shells.len());
    shells.push(WalkerConstellation::delta(
        scenario.planes,
        scenario.sats_per_plane,
        scenario.phasing,
        scenario.altitude_m,
        scenario.inclination_deg.to_radians(),
    ));
    for s in &scenario.extra_shells {
        shells.push(WalkerConstellation::delta(
            s.planes,
            s.sats_per_plane,
            s.phasing,
            s.altitude_m,
            s.inclination_deg.to_radians(),
        ));
    }
    let mut nodes = NetworkNodes::from_shells(&shells);

    let grid = GroundGrid::generate(scenario.grid_subdivisions, scenario.ground_site_count);
    let fleet = sb_orbit::eo::synthetic_fleet(scenario.eo_fleet_size);

    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_7090_dead_beef);
    let mut pairs = Vec::with_capacity(scenario.num_pairs);
    for _ in 0..scenario.num_pairs {
        let dst_site = grid.weighted_site_index(rng.gen_range(0.0..1.0));
        let dst = nodes.add_ground_site(grid.sites()[dst_site].0);
        let src = if rng.gen_range(0.0..1.0) < scenario.eo_pair_fraction && !fleet.is_empty() {
            // A space-user pair: EO satellite downlinking to the ground.
            let eo = rng.gen_range(0..fleet.len());
            nodes.add_space_user(fleet[eo].clone())
        } else {
            let src_site = grid.weighted_site_index(rng.gen_range(0.0..1.0));
            nodes.add_ground_site(grid.sites()[src_site].0)
        };
        pairs.push((src, dst));
    }
    (nodes, pairs)
}

/// Prunes the series with the foreseen ISL-failure model when the
/// scenario has one — the deterministic post-build step both the local
/// and the shipped preparation paths share.
fn apply_foreseen_failures(
    scenario: &ScenarioConfig,
    seed: u64,
    series: TopologySeries,
) -> TopologySeries {
    if scenario.isl_failure_prob > 0.0 {
        let model = sb_topology::failures::LinkFailureModel::new(
            scenario.isl_failure_prob,
            seed ^ 0xfa11_fa11,
        );
        series.with_failures(&model)
    } else {
        series
    }
}

/// Compiles the shippable topology package for `(scenario, seed)`: the
/// series a fleet coordinator sends instead of having every worker rebuild
/// it. The package covers the **pre-failure** series over the nodes the
/// pair draw adds — exactly what [`prepare_from_series`] needs on the
/// receiving side, and exactly the reuse unit keyed by
/// `(prepare_digest, seed)` in [`crate::prepared::PreparedCache`].
pub fn compile_series_package(scenario: &ScenarioConfig, seed: u64) -> SeriesPackage {
    let (nodes, _pairs) = draw_nodes_and_pairs(scenario, seed);
    SeriesPackage::compile(
        &nodes,
        &scenario.topology,
        scenario.horizon_slots,
        scenario.slot_duration_s,
    )
}

/// Builds a [`PreparedNetwork`] from a received, already-materialized
/// series (see [`compile_series_package`]): redraws the cheap endpoint
/// pairs locally and applies the foreseen failure model, which operates
/// *after* the shipped pre-failure series. Bit-identical to
/// [`prepare_with`] for every thread count — proven by the
/// `prop_prepare_from_shipped_series_bit_identical` proptest.
pub fn prepare_from_series(
    scenario: &ScenarioConfig,
    seed: u64,
    series: &std::sync::Arc<TopologySeries>,
) -> PreparedNetwork {
    let (_nodes, pairs) = draw_nodes_and_pairs(scenario, seed);
    let series = if scenario.isl_failure_prob > 0.0 {
        std::sync::Arc::new(apply_foreseen_failures(scenario, seed, (**series).clone()))
    } else {
        std::sync::Arc::clone(series)
    };
    PreparedNetwork { pairs, series }
}

/// Digest of exactly the [`ScenarioConfig`] fields [`prepare`] reads —
/// constellation shape, topology knobs, horizon, endpoint selection and
/// the foreseen ISL-failure probability. Workload-only fields (arrival
/// rate, valuation, CEAR pricing, energy) deliberately stay out, so two
/// sweep cells that differ only in load share one prepared network in
/// [`crate::prepared::PreparedCache`].
pub fn prepare_digest(scenario: &ScenarioConfig) -> u64 {
    let mut w = Writer::new();
    w.usize(scenario.planes);
    w.usize(scenario.sats_per_plane);
    w.usize(scenario.phasing);
    w.f64(scenario.altitude_m);
    w.f64(scenario.inclination_deg);
    // Extra shells are appended only when present so every single-shell
    // scenario keeps its pre-multi-shell digest (prepared caches and
    // recorded digests stay valid).
    for s in &scenario.extra_shells {
        w.usize(s.planes);
        w.usize(s.sats_per_plane);
        w.usize(s.phasing);
        w.f64(s.altitude_m);
        w.f64(s.inclination_deg);
    }
    w.str(&format!("{:?}", scenario.topology));
    w.usize(scenario.horizon_slots);
    w.f64(scenario.slot_duration_s);
    w.usize(scenario.num_pairs);
    w.f64(scenario.eo_pair_fraction);
    w.usize(scenario.eo_fleet_size);
    w.usize(scenario.ground_site_count);
    w.u32(scenario.grid_subdivisions);
    w.f64(scenario.isl_failure_prob);
    sb_wire::checksum(&w.into_bytes())
}

/// Generates the workload for a prepared network.
pub fn workload(scenario: &ScenarioConfig, prepared: &PreparedNetwork, seed: u64) -> Vec<Request> {
    let config = WorkloadConfig {
        pairs: prepared.pairs.clone(),
        arrivals_per_slot: scenario.arrivals_per_slot,
        horizon_slots: scenario.horizon_slots as u32,
        min_duration_slots: scenario.min_duration_slots,
        max_duration_slots: scenario.max_duration_slots,
        size: scenario.size,
        valuation: scenario.valuation,
        slot_duration_s: scenario.slot_duration_s,
        pattern: scenario.pattern,
    };
    generate_workload(&config, seed)
}

/// Runs one algorithm over a prepared network and workload, returning the
/// metrics. The state is built fresh, so the same `PreparedNetwork` can be
/// reused across algorithms.
pub fn run_prepared(
    scenario: &ScenarioConfig,
    prepared: &PreparedNetwork,
    requests: &[Request],
    kind: &AlgorithmKind,
    seed: u64,
) -> RunMetrics {
    let mut algorithm = kind.instantiate();
    run_with_algorithm(scenario, prepared, requests, algorithm.as_mut(), seed)
}

/// One admitted reservation, tracked across the horizon so unforeseen
/// failures can break it and the repair policy can act on it.
struct ActiveBooking {
    request: Request,
    /// Admission price plus any paid repairs — the basis for refunds and
    /// for RepairPaid affordability checks.
    paid: f64,
    /// Every [`BookingId`] backing the plan (admission plus repairs); a
    /// later break releases the suffix of all of them.
    ids: Vec<BookingId>,
    /// The current plan view: admission paths, truncated at breaks,
    /// extended by repaired suffixes.
    slot_paths: Vec<SlotPath>,
    /// The slot at which the plan broke, while a repair is still pending.
    pending_since: Option<SlotIndex>,
    /// Booked slots that went unserved (dropped or awaiting repair).
    missed_slots: u32,
    dropped: bool,
    interrupted: bool,
}

impl ActiveBooking {
    fn encode(&self, w: &mut Writer) {
        self.request.encode(w);
        w.f64(self.paid);
        w.seq(&self.ids, |w, id| w.usize(id.0));
        w.seq(&self.slot_paths, |w, sp| sp.encode(w));
        match self.pending_since {
            None => w.bool(false),
            Some(s) => {
                w.bool(true);
                w.u32(s.0);
            }
        }
        w.u32(self.missed_slots);
        w.bool(self.dropped);
        w.bool(self.interrupted);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let request = Request::decode(r)?;
        let paid = r.f64()?;
        let n = r.seq_len(8)?;
        let ids = (0..n).map(|_| r.usize().map(BookingId)).collect::<Result<_, _>>()?;
        let n = r.seq_len(20)?; // SlotPath is ≥ 20 bytes.
        let slot_paths = (0..n).map(|_| SlotPath::decode(r)).collect::<Result<_, _>>()?;
        let pending_since = if r.bool()? { Some(SlotIndex(r.u32()?)) } else { None };
        Ok(ActiveBooking {
            request,
            paid,
            ids,
            slot_paths,
            pending_since,
            missed_slots: r.u32()?,
            dropped: r.bool()?,
            interrupted: r.bool()?,
        })
    }
}

/// The mutable bookkeeping of one run: counters, the §III-B retry queue
/// and the active-booking table.
struct Tally {
    welfare: f64,
    revenue: f64,
    accepted: usize,
    accepted_after_retry: usize,
    no_path: usize,
    by_price: usize,
    at_commit: usize,
    accepted_value_by_slot: Vec<f64>,
    /// Retry queue (§III-B resubmission): rejected requests come back
    /// `delay_slots` later with the same duration and valuation. Entries:
    /// `(new_start_slot, original_arrival, attempts_left, request)`; the
    /// queue stays due-sorted because delays are constant and pushes
    /// happen in slot order.
    retries: VecDeque<(u32, usize, u32, Request)>,
    bookings: Vec<ActiveBooking>,
    repair_attempts: usize,
    repairs_succeeded: usize,
    repair_latency_sum: u64,
    repair_revenue: f64,
    /// When set, every decision pushes a [`JournalRecord`] onto
    /// [`Tally::events`] for the durable driver to persist or verify.
    record: bool,
    events: Vec<JournalRecord>,
}

impl Tally {
    fn new(horizon: usize) -> Self {
        Tally {
            welfare: 0.0,
            revenue: 0.0,
            accepted: 0,
            accepted_after_retry: 0,
            no_path: 0,
            by_price: 0,
            at_commit: 0,
            accepted_value_by_slot: vec![0.0; horizon],
            retries: VecDeque::new(),
            bookings: Vec::new(),
            repair_attempts: 0,
            repairs_succeeded: 0,
            repair_latency_sum: 0,
            repair_revenue: 0.0,
            record: false,
            events: Vec::new(),
        }
    }

    /// Serializes the tally's durable state; the transient recording
    /// buffer is not part of a checkpoint.
    fn encode(&self, w: &mut Writer) {
        w.f64(self.welfare);
        w.f64(self.revenue);
        w.usize(self.accepted);
        w.usize(self.accepted_after_retry);
        w.usize(self.no_path);
        w.usize(self.by_price);
        w.usize(self.at_commit);
        w.seq(&self.accepted_value_by_slot, |w, v| w.f64(*v));
        w.usize(self.retries.len());
        for (due, orig, left, request) in &self.retries {
            w.u32(*due);
            w.usize(*orig);
            w.u32(*left);
            request.encode(w);
        }
        w.usize(self.bookings.len());
        for booking in &self.bookings {
            booking.encode(w);
        }
        w.usize(self.repair_attempts);
        w.usize(self.repairs_succeeded);
        w.u64(self.repair_latency_sum);
        w.f64(self.repair_revenue);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let welfare = r.f64()?;
        let revenue = r.f64()?;
        let accepted = r.usize()?;
        let accepted_after_retry = r.usize()?;
        let no_path = r.usize()?;
        let by_price = r.usize()?;
        let at_commit = r.usize()?;
        let n = r.seq_len(8)?;
        let accepted_value_by_slot = (0..n).map(|_| r.f64()).collect::<Result<Vec<_>, _>>()?;
        let n = r.seq_len(16)?; // retry entries are ≥ 16 bytes
        let mut retries = VecDeque::with_capacity(n);
        for _ in 0..n {
            let due = r.u32()?;
            let orig = r.usize()?;
            let left = r.u32()?;
            retries.push_back((due, orig, left, Request::decode(r)?));
        }
        let n = r.seq_len(32)?; // bookings are ≥ 32 bytes
        let bookings = (0..n).map(|_| ActiveBooking::decode(r)).collect::<Result<Vec<_>, _>>()?;
        Ok(Tally {
            welfare,
            revenue,
            accepted,
            accepted_after_retry,
            no_path,
            by_price,
            at_commit,
            accepted_value_by_slot,
            retries,
            bookings,
            repair_attempts: r.usize()?,
            repairs_succeeded: r.usize()?,
            repair_latency_sum: r.u64()?,
            repair_revenue: r.f64()?,
            record: false,
            events: Vec::new(),
        })
    }

    /// Admits or rejects one request (arrival or retry), updating the
    /// counters and the booking table. `now` is the slot the decision is
    /// made in; welfare attributes to the *original* arrival slot.
    #[allow(clippy::too_many_arguments)]
    fn handle(
        &mut self,
        request: &Request,
        now: usize,
        original_arrival: usize,
        attempts_left: u32,
        algorithm: &mut dyn RoutingAlgorithm,
        state: &mut NetworkState,
        scenario: &ScenarioConfig,
    ) {
        let ids_before = state.booking_count();
        match algorithm.process(request, state) {
            Decision::Accepted { plan, price } => {
                if self.record {
                    self.events.push(JournalRecord::Admission {
                        slot: now as u32,
                        original_arrival: original_arrival as u32,
                        attempts_left,
                        request: request.clone(),
                        price,
                        slot_paths: plan.slot_paths.clone(),
                    });
                }
                self.welfare += request.valuation;
                self.revenue += price;
                self.accepted += 1;
                if attempts_left < scenario.retry.map_or(0, |r| r.max_attempts) {
                    self.accepted_after_retry += 1;
                }
                self.accepted_value_by_slot[original_arrival] += request.valuation;
                self.bookings.push(ActiveBooking {
                    request: request.clone(),
                    paid: price,
                    ids: (ids_before..state.booking_count()).map(BookingId).collect(),
                    slot_paths: plan.slot_paths,
                    pending_since: None,
                    missed_slots: 0,
                    dropped: false,
                    interrupted: false,
                });
            }
            Decision::Rejected { reason } => {
                if self.record {
                    self.events.push(JournalRecord::Rejection {
                        slot: now as u32,
                        original_arrival: original_arrival as u32,
                        attempts_left,
                        request_id: request.id.0,
                        reason,
                    });
                }
                match reason {
                    RejectReason::NoFeasiblePath => self.no_path += 1,
                    RejectReason::PriceAboveValuation => self.by_price += 1,
                    RejectReason::CommitFailed => self.at_commit += 1,
                }
                if let Some(policy) = scenario.retry {
                    if attempts_left > 0 {
                        let new_start = request.start.0 + policy.delay_slots;
                        let duration = request.end.0 - request.start.0;
                        if (new_start as usize) < scenario.horizon_slots {
                            let mut retried = request.clone();
                            retried.start = SlotIndex(new_start);
                            retried.end = SlotIndex(
                                (new_start + duration).min(scenario.horizon_slots as u32 - 1),
                            );
                            self.retries.push_back((
                                new_start,
                                original_arrival,
                                attempts_left - 1,
                                retried,
                            ));
                        }
                    }
                }
            }
        }
    }

    /// Pops and handles every queued retry due at or before slot `t`, in
    /// queue order.
    fn drain_due_retries(
        &mut self,
        t: usize,
        algorithm: &mut dyn RoutingAlgorithm,
        state: &mut NetworkState,
        scenario: &ScenarioConfig,
    ) {
        while self.retries.front().is_some_and(|&(due, ..)| due as usize <= t) {
            let (_, orig, left, retried) = self.retries.pop_front().unwrap();
            self.handle(&retried, t, orig, left, algorithm, state, scenario);
        }
    }

    /// Reacts to the slot's freshly discovered failures: retries pending
    /// repairs, and breaks every reservation whose current-slot path
    /// crosses a dead edge, applying the operator's policy.
    fn slot_boundary(
        &mut self,
        slot: SlotIndex,
        policy: RepairPolicy,
        known: &KnownFailures,
        algorithm: &mut dyn RoutingAlgorithm,
        state: &mut NetworkState,
    ) {
        for i in 0..self.bookings.len() {
            if self.bookings[i].dropped || self.bookings[i].request.end < slot {
                continue;
            }
            if let Some(broke) = self.bookings[i].pending_since {
                // Resources were already released at the break; keep
                // trying the suffix while the window is still open.
                self.repair_attempts += 1;
                let request = self.bookings[i].request.clone();
                let paid = self.bookings[i].paid;
                let outcome = try_repair(algorithm, policy, &request, paid, state, slot, known);
                self.apply_outcome(i, outcome, slot, broke);
                continue;
            }
            let broken = self.bookings[i]
                .slot_paths
                .iter()
                .any(|sp| sp.slot == slot && sp.edges.iter().any(|&e| known.is_down(slot, e)));
            if !broken {
                continue;
            }
            let b = &mut self.bookings[i];
            b.interrupted = true;
            b.slot_paths.retain(|sp| sp.slot < slot);
            let request = b.request.clone();
            let paid = b.paid;
            let ids = b.ids.clone();
            if policy != RepairPolicy::Drop {
                self.repair_attempts += 1;
            }
            let outcome = repair(algorithm, policy, &request, paid, &ids, state, slot, known);
            self.apply_outcome(i, outcome, slot, slot);
        }
    }

    /// Folds one repair outcome into booking `i`. `broke` is the slot the
    /// plan originally broke at (repair latency measures from there).
    fn apply_outcome(
        &mut self,
        i: usize,
        outcome: RepairOutcome,
        now: SlotIndex,
        broke: SlotIndex,
    ) {
        if self.record {
            self.events.push(JournalRecord::Repair {
                slot: now.0,
                booking_index: i as u32,
                outcome: match &outcome {
                    RepairOutcome::Dropped => RepairEvent::Dropped,
                    RepairOutcome::Repaired { price, .. } => {
                        RepairEvent::Repaired { price: *price }
                    }
                    RepairOutcome::Pending { .. } => RepairEvent::Pending,
                },
            });
        }
        let b = &mut self.bookings[i];
        match outcome {
            RepairOutcome::Dropped => {
                b.dropped = true;
                b.pending_since = None;
                b.missed_slots += b.request.end.0 - now.0 + 1;
            }
            RepairOutcome::Repaired { price, slot_paths, booking } => {
                b.paid += price;
                b.ids.push(booking);
                b.slot_paths.extend(slot_paths);
                b.pending_since = None;
                self.repairs_succeeded += 1;
                self.repair_latency_sum += u64::from(now.0 - broke.0);
                self.repair_revenue += price;
            }
            RepairOutcome::Pending { .. } => {
                // This slot goes unserved; try again at the next boundary.
                b.pending_since = Some(broke);
                b.missed_slots += 1;
            }
        }
    }
}

/// A stable digest of everything that determines a run: the full scenario
/// and algorithm configurations (via their `Debug` forms, which list every
/// field) and the seed. The engine is deterministic, so two runs with
/// equal digests produce bit-identical journals, checkpoints and metrics —
/// and a checkpoint or journal carrying a *different* digest must never be
/// resumed into this run.
pub fn run_digest(scenario: &ScenarioConfig, kind: &AlgorithmKind, seed: u64) -> u64 {
    let mut w = Writer::new();
    w.str(&format!("{scenario:?}"));
    w.str(&format!("{kind:?}"));
    w.u64(seed);
    sb_wire::checksum(&w.into_bytes())
}

/// The resumable core of one run: all the mutable state
/// [`run_with_algorithm`] tracks, behind a slot-stepped interface so the
/// durable driver ([`crate::durable::run_durable`]) can journal events,
/// checkpoint between slots and resume later.
///
/// Checkpoints capture only the *dynamic* state (network, tally, oracle,
/// timing); the static inputs — scenario, prepared topology, workload —
/// are re-supplied on restore and guarded by [`run_digest`].
pub struct EngineCore {
    scenario: ScenarioConfig,
    unforeseen: Option<UnforeseenFailures>,
    state: NetworkState,
    tally: Tally,
    oracle: Option<FailureOracle>,
    /// Arrivals grouped by (clamped) start slot, preserving workload
    /// order within each slot.
    arrivals_by_slot: Vec<Vec<Request>>,
    total_value_by_slot: Vec<f64>,
    initial_attempts: u32,
    next_slot: usize,
    total_requests: usize,
    total_valuation: f64,
    seed: u64,
    /// Wall-clock milliseconds accumulated across sessions (a resumed run
    /// reports the total, not just the final session).
    elapsed_ms: u64,
}

impl EngineCore {
    /// A fresh core at slot 0.
    pub fn new(
        scenario: &ScenarioConfig,
        prepared: &PreparedNetwork,
        requests: &[Request],
        seed: u64,
    ) -> Self {
        let horizon = scenario.horizon_slots;
        let mut arrivals_by_slot: Vec<Vec<Request>> = vec![Vec::new(); horizon];
        for request in requests {
            arrivals_by_slot[request.start.index().min(horizon - 1)].push(request.clone());
        }
        let unforeseen = scenario.unforeseen.filter(|u| !u.model.is_trivial());
        EngineCore {
            scenario: scenario.clone(),
            unforeseen,
            state: NetworkState::new(prepared.series.clone(), &scenario.energy),
            tally: Tally::new(horizon),
            oracle: unforeseen.map(|u| FailureOracle::new(u.model)),
            arrivals_by_slot,
            total_value_by_slot: vec![0.0; horizon],
            initial_attempts: scenario.retry.map_or(0, |r| r.max_attempts),
            next_slot: 0,
            total_requests: requests.len(),
            total_valuation: requests.iter().map(|r| r.valuation).sum(),
            seed,
            elapsed_ms: 0,
        }
    }

    /// The next slot [`EngineCore::step_slot`] will execute.
    pub fn next_slot(&self) -> usize {
        self.next_slot
    }

    /// Whether every slot of the horizon has been executed (the final
    /// retry drain may still be pending; see [`EngineCore::drain_final`]).
    pub fn is_complete(&self) -> bool {
        self.next_slot >= self.scenario.horizon_slots
    }

    /// The network state, for audits and inspection.
    pub fn state(&self) -> &NetworkState {
        &self.state
    }

    /// Turns journal-event recording on or off. Off by default; recording
    /// changes nothing about the decisions, only collects them.
    pub fn set_recording(&mut self, on: bool) {
        self.tally.record = on;
    }

    /// Drains the events recorded since the last call.
    pub fn take_events(&mut self) -> Vec<JournalRecord> {
        std::mem::take(&mut self.tally.events)
    }

    /// Runs the conservation auditor over the current network state.
    pub fn audit(&self) -> sb_cear::AuditReport {
        sb_cear::audit(&self.state)
    }

    /// Executes one slot: due retries, this slot's arrivals (interleaved
    /// exactly as the request-ordered loop would — a zero-delay retry
    /// pushed mid-slot re-enters before the next same-slot arrival), then
    /// the failure-discovery and repair boundary pass when the scenario
    /// configures unforeseen failures.
    ///
    /// # Panics
    ///
    /// Panics when called after the horizon is complete.
    pub fn step_slot(&mut self, algorithm: &mut dyn RoutingAlgorithm) {
        assert!(!self.is_complete(), "stepping past the horizon");
        let started = std::time::Instant::now();
        let t = self.next_slot;
        let slot = SlotIndex(t as u32);
        if self.tally.record {
            self.tally.events.push(JournalRecord::SlotStart { slot: slot.0 });
        }
        self.tally.drain_due_retries(t, algorithm, &mut self.state, &self.scenario);
        for i in 0..self.arrivals_by_slot[t].len() {
            let request = self.arrivals_by_slot[t][i].clone();
            self.tally.drain_due_retries(t, algorithm, &mut self.state, &self.scenario);
            self.total_value_by_slot[t] += request.valuation;
            self.tally.handle(
                &request,
                t,
                t,
                self.initial_attempts,
                algorithm,
                &mut self.state,
                &self.scenario,
            );
        }
        // Unforeseen failures strike during the slot; the operator detects
        // broken plans and reacts at the boundary — admission never saw
        // the outage coming.
        if let (Some(u), Some(oracle)) = (self.unforeseen, self.oracle.as_mut()) {
            let down = oracle.advance(self.state.series().snapshot(slot));
            if self.tally.record {
                let edges = down.iter().map(|e| e.0).collect();
                self.tally.events.push(JournalRecord::FailureDraw { slot: slot.0, edges });
            }
            self.tally.slot_boundary(slot, u.policy, oracle.known(), algorithm, &mut self.state);
        }
        self.next_slot += 1;
        if self.tally.record {
            self.tally.events.push(JournalRecord::SlotEnd { slot: slot.0 });
        }
        self.elapsed_ms += started.elapsed().as_millis() as u64;
    }

    /// Admits or rejects the retries still queued once the horizon is
    /// done (pushed by the very last slot's decisions). Their journal
    /// events carry `slot = horizon`.
    pub fn drain_final(&mut self, algorithm: &mut dyn RoutingAlgorithm) {
        let started = std::time::Instant::now();
        let horizon = self.scenario.horizon_slots;
        while let Some((_, orig, left, retried)) = self.tally.retries.pop_front() {
            self.tally.handle(
                &retried,
                horizon,
                orig,
                left,
                algorithm,
                &mut self.state,
                &self.scenario,
            );
        }
        self.elapsed_ms += started.elapsed().as_millis() as u64;
    }

    /// Computes the run's metrics. Call after the horizon is complete and
    /// [`EngineCore::drain_final`] has run.
    pub fn finalize(self, algorithm: &dyn RoutingAlgorithm) -> RunMetrics {
        // The run is over: its thread's baseline search arena would
        // otherwise stay allocated at this network's size behind it.
        sb_cear::baselines::release_thread_caches();
        let EngineCore {
            scenario,
            state,
            tally,
            total_value_by_slot,
            total_valuation,
            total_requests,
            seed,
            elapsed_ms,
            ..
        } = self;
        let horizon = scenario.horizon_slots;
        let mut welfare_ratio_over_time = Vec::with_capacity(horizon);
        let (mut cum_acc, mut cum_tot) = (0.0, 0.0);
        for (acc, tot) in tally.accepted_value_by_slot.iter().zip(&total_value_by_slot) {
            cum_acc += acc;
            cum_tot += tot;
            welfare_ratio_over_time.push(if cum_tot > 0.0 { cum_acc / cum_tot } else { 1.0 });
        }

        // Delivered-vs-booked accounting, pro-rata on served slots. With no
        // unforeseen failures every booking has zero missed slots, the served
        // fraction is exactly 1.0 and `delivered_welfare` reproduces `welfare`
        // bit-for-bit (same additions in the same order).
        let mut delivered_welfare = 0.0;
        let mut interrupted_requests = 0usize;
        let mut sla_violations = 0usize;
        let mut refunded_revenue = 0.0;
        for b in &tally.bookings {
            let duration = b.request.end.0 - b.request.start.0 + 1;
            let missed = b.missed_slots.min(duration);
            let served_frac = f64::from(duration - missed) / f64::from(duration);
            delivered_welfare += b.request.valuation * served_frac;
            if b.interrupted {
                interrupted_requests += 1;
            }
            if missed > 0 {
                sla_violations += 1;
                refunded_revenue += b.paid * f64::from(missed) / f64::from(duration);
            }
        }

        let depleted_satellites_over_time = (0..horizon)
            .map(|t| {
                state
                    .depleted_satellite_count(SlotIndex(t as u32), scenario.depleted_threshold_frac)
            })
            .collect();
        let congested_links_over_time = (0..horizon)
            .map(|t| {
                state.congested_link_count(SlotIndex(t as u32), scenario.congested_threshold_frac)
            })
            .collect();

        RunMetrics {
            algorithm: algorithm.name().to_owned(),
            scenario: scenario.name.clone(),
            seed,
            total_requests,
            accepted_requests: tally.accepted,
            accepted_after_retry: tally.accepted_after_retry,
            total_valuation,
            welfare: tally.welfare,
            social_welfare_ratio: if total_valuation > 0.0 {
                tally.welfare / total_valuation
            } else {
                1.0
            },
            revenue: tally.revenue,
            depleted_satellites_over_time,
            congested_links_over_time,
            welfare_ratio_over_time,
            rejected_no_path: tally.no_path,
            rejected_by_price: tally.by_price,
            rejected_at_commit: tally.at_commit,
            delivered_welfare,
            delivered_welfare_ratio: if total_valuation > 0.0 {
                delivered_welfare / total_valuation
            } else {
                1.0
            },
            interrupted_requests,
            sla_violations,
            repair_attempts: tally.repair_attempts,
            repairs_succeeded: tally.repairs_succeeded,
            mean_repair_latency_slots: if tally.repairs_succeeded > 0 {
                tally.repair_latency_sum as f64 / tally.repairs_succeeded as f64
            } else {
                0.0
            },
            refunded_revenue,
            repair_revenue: tally.repair_revenue,
            battery_wear: sb_energy::fleet_wear(state.ledger()),
            processing_ms: u128::from(elapsed_ms),
        }
    }

    /// Serializes the dynamic state for a checkpoint.
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.usize(self.next_slot);
        w.u64(self.elapsed_ms);
        self.state.encode_snapshot(w);
        self.tally.encode(w);
        w.seq(&self.total_value_by_slot, |w, v| w.f64(*v));
        match &self.oracle {
            None => w.bool(false),
            Some(oracle) => {
                w.bool(true);
                oracle.encode(w);
            }
        }
    }

    /// Restores a core from a checkpoint payload, re-deriving everything
    /// static from the same inputs [`EngineCore::new`] takes. Every
    /// decoded index is validated against the rebuilt static state so a
    /// corrupt payload fails loudly instead of corrupting the run.
    pub(crate) fn decode(
        scenario: &ScenarioConfig,
        prepared: &PreparedNetwork,
        requests: &[Request],
        seed: u64,
        r: &mut Reader<'_>,
    ) -> Result<Self, WireError> {
        let mut core = EngineCore::new(scenario, prepared, requests, seed);
        core.next_slot = r.usize()?;
        if core.next_slot > scenario.horizon_slots {
            return Err(WireError::Invalid {
                detail: format!(
                    "checkpoint slot {} past the horizon {}",
                    core.next_slot, scenario.horizon_slots
                ),
            });
        }
        core.elapsed_ms = r.u64()?;
        core.state = NetworkState::decode_snapshot(prepared.series.clone(), r)?;
        core.tally = Tally::decode(r)?;
        if core.tally.accepted_value_by_slot.len() != scenario.horizon_slots {
            return Err(WireError::Invalid {
                detail: "tally slot-value series does not match the horizon".into(),
            });
        }
        for booking in &core.tally.bookings {
            for id in &booking.ids {
                if id.0 >= core.state.booking_count() {
                    return Err(WireError::Invalid {
                        detail: format!("active booking references unknown booking id {}", id.0),
                    });
                }
            }
        }
        let n = r.seq_len(8)?;
        if n != scenario.horizon_slots {
            return Err(WireError::Invalid {
                detail: "slot-value series does not match the horizon".into(),
            });
        }
        core.total_value_by_slot = (0..n).map(|_| r.f64()).collect::<Result<Vec<_>, _>>()?;
        core.oracle = if r.bool()? {
            let model = core.unforeseen.map(|u| u.model).ok_or_else(|| WireError::Invalid {
                detail: "checkpoint has a failure oracle but the scenario has no unforeseen \
                         failures"
                    .into(),
            })?;
            Some(FailureOracle::decode(model, r)?)
        } else {
            if core.unforeseen.is_some() {
                return Err(WireError::Invalid {
                    detail: "checkpoint lacks the failure oracle the scenario requires".into(),
                });
            }
            None
        };
        Ok(core)
    }
}

/// Like [`run_prepared`] but with a caller-supplied algorithm instance —
/// for stateful algorithms outside the [`AlgorithmKind`] enum (e.g.
/// [`sb_cear::AdaptiveCear`]).
pub fn run_with_algorithm(
    scenario: &ScenarioConfig,
    prepared: &PreparedNetwork,
    requests: &[Request],
    algorithm: &mut dyn RoutingAlgorithm,
    seed: u64,
) -> RunMetrics {
    let mut core = EngineCore::new(scenario, prepared, requests, seed);
    while !core.is_complete() {
        core.step_slot(algorithm);
    }
    core.drain_final(algorithm);
    core.finalize(&*algorithm)
}

/// Convenience: prepare, generate and run in one call.
pub fn run(scenario: &ScenarioConfig, kind: &AlgorithmKind, seed: u64) -> RunMetrics {
    let prepared = prepare(scenario, seed);
    let requests = workload(scenario, &prepared, seed);
    run_prepared(scenario, &prepared, &requests, kind, seed)
}

// ---- Compatibility with the frozen `crates/benchmark` ------------------
//
// The `--search` knob and speculative slot-parallel quoting are deleted
// (EXPERIMENTS.md, "Removed: hop-bound A\* in the product" and "Removed:
// the SPT cache and speculative quoting"): there is one kernel and one
// serial quote, so there are no execution options. `crates/benchmark`
// still builds an `ExecOptions`, reads both fields and calls the two
// `_exec` functions, and may only change in a PR of its own. Until then
// the fields are ignored and the functions forward. Follow-up (`benchmark`
// archetype): call `instantiate` / `run_prepared` from `crates/benchmark`,
// then delete this block with `sb-cear`'s.

/// Two ignored fields.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecOptions {
    pub search: sb_cear::SearchCompat,
    pub quote_threads: usize,
}

impl AlgorithmKind {
    /// [`AlgorithmKind::instantiate`]; `exec` is ignored.
    #[doc(hidden)]
    pub fn instantiate_exec(&self, _exec: &ExecOptions) -> Box<dyn RoutingAlgorithm> {
        self.instantiate()
    }
}

/// [`run_prepared`]; `exec` is ignored.
#[doc(hidden)]
pub fn run_prepared_exec(
    scenario: &ScenarioConfig,
    prepared: &PreparedNetwork,
    requests: &[Request],
    kind: &AlgorithmKind,
    seed: u64,
    _exec: &ExecOptions,
) -> RunMetrics {
    run_prepared(scenario, prepared, requests, kind, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_is_deterministic() {
        let scenario = ScenarioConfig::tiny();
        let a = run(&scenario, &AlgorithmKind::Ssp, 3);
        let mut b = run(&scenario, &AlgorithmKind::Ssp, 3);
        b.processing_ms = a.processing_ms; // wall clock may differ
        assert_eq!(a, b);
    }

    #[test]
    fn a_finished_run_releases_the_baseline_thread_caches() {
        // Nothing a baseline keeps per thread may hold the series once the
        // run is over. A dedicated thread, so no other test's run shares
        // the caches.
        std::thread::spawn(|| {
            let scenario = ScenarioConfig::tiny();
            let prepared = prepare(&scenario, 3);
            let requests = workload(&scenario, &prepared, 3);
            let held = std::sync::Arc::strong_count(&prepared.series);
            for kind in [AlgorithmKind::Ssp, AlgorithmKind::Ecars] {
                let metrics = run_prepared(&scenario, &prepared, &requests, &kind, 3);
                assert!(metrics.accepted_requests > 0, "{}: vacuous run", kind.name());
                assert_eq!(
                    std::sync::Arc::strong_count(&prepared.series),
                    held,
                    "{}: the finished run still pins its topology series",
                    kind.name()
                );
            }
        })
        .join()
        .expect("the run thread panicked");
    }

    #[test]
    fn hot_path_caches_leave_run_metrics_bit_identical() {
        // The reusable search arena and the epoch-validated price cache
        // are pure accelerations: a full engine run through the cached
        // CEAR must equal a run through the cache-free reference path in
        // every metric (only wall clock may differ).
        let scenario = ScenarioConfig::tiny();
        let params = CearParams::default();
        for seed in [0, 3] {
            let prepared = prepare(&scenario, seed);
            let requests = workload(&scenario, &prepared, seed);
            let mut reference = sb_cear::Cear::reference(params);
            let a = run_with_algorithm(&scenario, &prepared, &requests, &mut reference, seed);
            let mut b =
                run_prepared(&scenario, &prepared, &requests, &AlgorithmKind::Cear(params), seed);
            b.processing_ms = a.processing_ms; // wall clock may differ
            assert_eq!(a, b, "seed {seed}");
            assert!(a.accepted_requests > 0, "seed {seed}: vacuous equivalence");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let scenario = ScenarioConfig::tiny();
        let a = run(&scenario, &AlgorithmKind::Ssp, 1);
        let b = run(&scenario, &AlgorithmKind::Ssp, 2);
        assert_ne!(a.total_requests, 0);
        // Workloads differ, so at least the request count or welfare
        // should (with overwhelming probability) differ.
        assert!(a.total_requests != b.total_requests || a.welfare != b.welfare);
    }

    #[test]
    fn accounting_adds_up() {
        let scenario = ScenarioConfig::tiny();
        for kind in [AlgorithmKind::Cear(CearParams::default()), AlgorithmKind::Ecars] {
            let m = run(&scenario, &kind, 7);
            assert_eq!(
                m.accepted_requests
                    + m.rejected_no_path
                    + m.rejected_by_price
                    + m.rejected_at_commit,
                m.total_requests,
                "{}",
                m.algorithm
            );
            assert!(m.social_welfare_ratio >= 0.0 && m.social_welfare_ratio <= 1.0);
            assert_eq!(m.depleted_satellites_over_time.len(), scenario.horizon_slots);
            assert_eq!(m.congested_links_over_time.len(), scenario.horizon_slots);
            // Final cumulative ratio equals the overall ratio.
            let last = *m.welfare_ratio_over_time.last().unwrap();
            assert!((last - m.social_welfare_ratio).abs() < 1e-9);
        }
    }

    #[test]
    fn all_algorithms_run_on_shared_network() {
        let scenario = ScenarioConfig::tiny();
        let prepared = prepare(&scenario, 5);
        let requests = workload(&scenario, &prepared, 5);
        assert_eq!(prepared.pairs.len(), scenario.num_pairs);
        for kind in AlgorithmKind::all(&scenario) {
            let m = run_prepared(&scenario, &prepared, &requests, &kind, 5);
            assert_eq!(m.total_requests, requests.len(), "{}", m.algorithm);
        }
    }

    #[test]
    fn baseline_revenue_is_zero_cear_nonnegative() {
        let scenario = ScenarioConfig::tiny();
        let ssp = run(&scenario, &AlgorithmKind::Ssp, 11);
        assert_eq!(ssp.revenue, 0.0);
        let cear = run(&scenario, &AlgorithmKind::Cear(CearParams::default()), 11);
        assert!(cear.revenue >= 0.0);
    }

    #[test]
    fn trivial_unforeseen_reproduces_the_failure_free_run_bit_identically() {
        use crate::scenario::UnforeseenFailures;
        use sb_topology::failures::{FailureModel, GilbertElliottModel, LinkFailureModel};

        let base = ScenarioConfig::tiny();
        let kind = AlgorithmKind::Cear(CearParams::default());
        let reference = run(&base, &kind, 3);
        assert_eq!(
            reference.delivered_welfare.to_bits(),
            reference.welfare.to_bits(),
            "no failures: delivered must equal booked welfare bit-for-bit"
        );
        for policy in RepairPolicy::all() {
            for model in [
                FailureModel::None,
                FailureModel::IndependentLinks(LinkFailureModel::new(0.0, 9)),
                FailureModel::GilbertElliott(GilbertElliottModel::new(0.0, 0.5, 9)),
            ] {
                let mut scenario = base.clone();
                scenario.unforeseen = Some(UnforeseenFailures { model, policy });
                let mut m = run(&scenario, &kind, 3);
                m.processing_ms = reference.processing_ms; // wall clock may differ
                assert_eq!(m, reference, "policy {policy:?}, model {model:?}");
            }
        }
    }

    #[test]
    fn repair_delivers_strictly_more_welfare_than_drop() {
        use crate::scenario::UnforeseenFailures;
        use sb_topology::failures::{FailureModel, LinkFailureModel};

        let delivered_with = |policy: RepairPolicy| -> (f64, usize) {
            let mut scenario = ScenarioConfig::tiny();
            scenario.unforeseen = Some(UnforeseenFailures {
                model: FailureModel::IndependentLinks(LinkFailureModel::new(0.1, 0xfee1)),
                policy,
            });
            let kind = AlgorithmKind::Cear(CearParams::default());
            (1..=3)
                .map(|seed| run(&scenario, &kind, seed))
                .fold((0.0, 0), |(w, i), m| (w + m.delivered_welfare, i + m.interrupted_requests))
        };
        let (drop_welfare, drop_interrupted) = delivered_with(RepairPolicy::Drop);
        let (repair_welfare, _) = delivered_with(RepairPolicy::Repair);
        assert!(drop_interrupted > 0, "failures must actually break reservations");
        assert!(
            repair_welfare > drop_welfare,
            "Repair must deliver strictly more than Drop: {repair_welfare} vs {drop_welfare}"
        );
    }

    #[test]
    fn unforeseen_failure_accounting_is_consistent() {
        use crate::scenario::UnforeseenFailures;
        use sb_topology::failures::{FailureModel, NodeOutageModel};

        let mut scenario = ScenarioConfig::tiny();
        scenario.unforeseen = Some(UnforeseenFailures {
            model: FailureModel::NodeOutages(NodeOutageModel::new(0.02, 1, 3, 7)),
            policy: RepairPolicy::RepairPaid,
        });
        let m = run(&scenario, &AlgorithmKind::Cear(CearParams::default()), 5);
        assert_eq!(
            m.accepted_requests + m.rejected_no_path + m.rejected_by_price + m.rejected_at_commit,
            m.total_requests
        );
        assert!(m.delivered_welfare <= m.welfare * (1.0 + 1e-12));
        assert!((0.0..=1.0).contains(&m.delivered_welfare_ratio));
        assert!(m.repairs_succeeded <= m.repair_attempts);
        assert!(m.interrupted_requests <= m.accepted_requests);
        assert!(m.sla_violations <= m.accepted_requests);
        assert!(m.mean_repair_latency_slots >= 0.0);
        assert!(m.refunded_revenue >= 0.0 && m.repair_revenue >= 0.0);
    }

    /// Steps `scenario` one slot at a time and runs the conservation
    /// auditor at every boundary.
    fn audit_every_boundary(scenario: &ScenarioConfig, kind: &AlgorithmKind, seed: u64) {
        let prepared = prepare(scenario, seed);
        let requests = workload(scenario, &prepared, seed);
        let mut algorithm = kind.instantiate();
        let mut core = EngineCore::new(scenario, &prepared, &requests, seed);
        while !core.is_complete() {
            core.step_slot(algorithm.as_mut());
            let report = core.audit();
            assert!(
                report.is_clean(),
                "{} violated conservation at slot {}: {report}",
                kind.name(),
                core.next_slot() - 1
            );
        }
    }

    #[test]
    fn auditor_is_green_at_every_boundary_on_fast() {
        let mut scenario = ScenarioConfig::fast();
        for seed in [1, 2] {
            audit_every_boundary(&scenario, &AlgorithmKind::Cear(CearParams::default()), seed);
        }
        scenario.unforeseen = Some(crate::scenario::UnforeseenFailures {
            model: sb_topology::failures::FailureModel::IndependentLinks(
                sb_topology::failures::LinkFailureModel::new(0.1, 9),
            ),
            policy: RepairPolicy::RepairPaid,
        });
        audit_every_boundary(&scenario, &AlgorithmKind::Cear(CearParams::default()), 1);
        audit_every_boundary(&scenario, &AlgorithmKind::Ssp, 1);
    }

    #[test]
    #[ignore = "paper-scale run, minutes of wall clock; run explicitly"]
    fn auditor_is_green_at_every_boundary_on_paper() {
        audit_every_boundary(
            &ScenarioConfig::paper(),
            &AlgorithmKind::Cear(CearParams::default()),
            1,
        );
    }

    /// Builds a small scenario, ships its series through the full wire
    /// round trip (compile → encode → decode → materialize) and asserts
    /// the received preparation is bit-identical to the local one —
    /// pairs, every snapshot, for any build thread count.
    fn check_shipped_identity(
        extra: Option<(usize, usize)>,
        failure_prob: f64,
        seed: u64,
        build_threads: usize,
    ) {
        let mut scenario = ScenarioConfig::tiny();
        scenario.planes = 4;
        scenario.sats_per_plane = 4;
        scenario.phasing = 1;
        scenario.horizon_slots = 6;
        scenario.num_pairs = 2;
        scenario.ground_site_count = 60;
        scenario.isl_failure_prob = failure_prob;
        if let Some((planes, sats_per_plane)) = extra {
            scenario.extra_shells.push(crate::scenario::ShellConfig {
                planes,
                sats_per_plane,
                phasing: 0,
                altitude_m: 600_000.0,
                inclination_deg: 70.0,
            });
        }
        let local = prepare_with(&scenario, seed, build_threads);
        let bytes = compile_series_package(&scenario, seed).encode();
        let package = SeriesPackage::decode(&bytes).expect("shipped bytes decode");
        let series = std::sync::Arc::new(package.materialize().expect("shipped bytes materialize"));
        let shipped = prepare_from_series(&scenario, seed, &series);
        assert_eq!(shipped.pairs, local.pairs, "pair draw must be identical");
        assert_eq!(shipped.series, local.series, "shipped series must be bit-identical");
    }

    #[test]
    fn shipped_series_round_trip_matches_local_prepare_bitwise() {
        for (extra, failure_prob) in
            [(None, 0.0), (None, 0.05), (Some((3, 4)), 0.0), (Some((3, 4)), 0.05)]
        {
            for build_threads in [1, 3] {
                check_shipped_identity(extra, failure_prob, 7, build_threads);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]
        #[test]
        fn prop_prepare_from_shipped_series_bit_identical(
            extra in proptest::option::of((2usize..4, 2usize..5)),
            failure_model in 0u8..2,
            seed in 0u64..1_000,
            build_threads in 1usize..4,
        ) {
            let failure_prob = if failure_model == 0 { 0.0 } else { 0.05 };
            check_shipped_identity(extra, failure_prob, seed, build_threads);
        }
    }
}
