//! Building the time-slotted snapshot series.
//!
//! [`NetworkNodes`] fixes the node table (broadband satellites — possibly
//! across several Walker shells — ground users, space users) with stable
//! [`NodeId`]s; [`TopologySeries::build`] then produces one
//! [`TopologySnapshot`] per time slot.
//!
//! Two construction paths exist and are bit-identical:
//!
//! * the default **delta-compiled** path ([`crate::delta::SeriesBuilder`]):
//!   the static +Grid ISL template is built once and shared across slots
//!   behind an `Arc`, and each slot stores only its dynamic data;
//! * the **full-rebuild** reference path ([`TopologySeries::build_full`]),
//!   which assembles a dense edge list per slot — the oracle the delta
//!   compiler's tests compare against.

use crate::graph::{NodeId, NodeKind, TopologySnapshot};
use crate::ground;
use crate::isl::{self, GridIndex};
use crate::usl;
use crate::SlotIndex;
use sb_geo::coords::{Eci, Geodetic};
use sb_geo::{visibility, Epoch};
use sb_orbit::{Constellation, Satellite, SatelliteKind};
use serde::{Deserialize, Serialize};

/// Tunable parameters of topology construction.
///
/// Defaults follow the paper's evaluation: ISL capacity 20 Gbps, USL
/// capacity 4 Gbps, a 25° ground elevation mask, and up to 4 simultaneous
/// links per user terminal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TopologyConfig {
    /// ISL bandwidth capacity, Mbps (paper: 20 Gbps).
    pub isl_capacity_mbps: f64,
    /// USL bandwidth capacity, Mbps (paper: 4 Gbps).
    pub usl_capacity_mbps: f64,
    /// Minimum elevation for ground-user visibility, radians.
    pub min_elevation_rad: f64,
    /// Earth-grazing margin for space-user line-of-sight tests, meters.
    pub grazing_margin_m: f64,
    /// Earth-grazing margin for ISL line-of-sight tests, meters. Defaults
    /// to zero: +Grid ISLs are engineered to stay above the horizon and are
    /// blocked only by the solid Earth (sparse test shells would otherwise
    /// lose their intra-plane rings).
    pub isl_grazing_margin_m: f64,
    /// Maximum simultaneous USLs per ground user.
    pub max_usl_per_ground: usize,
    /// Maximum simultaneous links per space user.
    pub max_usl_per_eo: usize,
    /// Maximum space-user link range, meters.
    pub eo_link_range_m: f64,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            isl_capacity_mbps: 20_000.0,
            usl_capacity_mbps: 4_000.0,
            min_elevation_rad: visibility::DEFAULT_MIN_ELEVATION_RAD,
            grazing_margin_m: visibility::DEFAULT_GRAZING_MARGIN_M,
            isl_grazing_margin_m: 0.0,
            max_usl_per_ground: 4,
            max_usl_per_eo: 4,
            eo_link_range_m: 1_500_000.0,
        }
    }
}

/// The canonical node table: who exists in the network.
///
/// Node ids are assigned contiguously — broadband satellites first (shells
/// concatenated in declaration order), then ground users, then space users
/// — and remain stable across every slot.
#[derive(Debug, Clone)]
pub struct NetworkNodes {
    broadband: Constellation,
    /// One +Grid index per Walker shell, with the constellation index of
    /// the shell's first satellite. ISLs are wired within shells only.
    grids: Vec<(usize, GridIndex)>,
    ground_sites: Vec<Geodetic>,
    space_users: Vec<Satellite>,
}

impl NetworkNodes {
    /// Creates a node table from a broadband constellation.
    ///
    /// The +Grid index is derived from the satellites' plane/slot
    /// annotations; constellations without full annotations get no ISLs
    /// (useful only for degenerate tests).
    pub fn new(broadband: Constellation) -> Self {
        let grids = GridIndex::from_satellites(broadband.satellites())
            .map(|g| vec![(0, g)])
            .unwrap_or_default();
        NetworkNodes { broadband, grids, ground_sites: Vec::new(), space_users: Vec::new() }
    }

    /// Convenience: node table for a single Walker shell.
    pub fn from_walker(shell: &sb_orbit::walker::WalkerConstellation) -> Self {
        Self::from_shells(std::slice::from_ref(shell))
    }

    /// Node table for a multi-shell constellation: shells are concatenated
    /// in order, each keeping its own +Grid (no cross-shell ISLs — distinct
    /// shells differ in altitude/inclination, so +Grid wiring is undefined
    /// between them; traffic crosses shells via ground/space users).
    pub fn from_shells(shells: &[sb_orbit::walker::WalkerConstellation]) -> Self {
        let mut broadband = Constellation::new();
        let mut grids = Vec::with_capacity(shells.len());
        for shell in shells {
            let c = Constellation::from_walker(shell);
            let base = broadband.len();
            if let Some(grid) = GridIndex::from_satellites(c.satellites()) {
                grids.push((base, grid));
            }
            broadband.extend_from(&c);
        }
        NetworkNodes { broadband, grids, ground_sites: Vec::new(), space_users: Vec::new() }
    }

    /// Adds a ground-user site, returning its [`NodeId`].
    pub fn add_ground_site(&mut self, site: Geodetic) -> NodeId {
        self.ground_sites.push(site);
        self.ground_node(self.ground_sites.len() - 1)
    }

    /// Adds ground-user sites sampled from a [`ground::GroundGrid`] by
    /// index, returning their [`NodeId`]s.
    pub fn add_sites_from_grid(
        &mut self,
        grid: &ground::GroundGrid,
        indices: impl IntoIterator<Item = usize>,
    ) -> Vec<NodeId> {
        indices.into_iter().map(|i| self.add_ground_site(grid.sites()[i].0)).collect()
    }

    /// Adds a space user (Earth-observation satellite), returning its
    /// [`NodeId`].
    ///
    /// # Panics
    ///
    /// Panics if the satellite is not [`SatelliteKind::EarthObservation`].
    pub fn add_space_user(&mut self, satellite: Satellite) -> NodeId {
        assert_eq!(
            satellite.kind,
            SatelliteKind::EarthObservation,
            "space users must be EO satellites"
        );
        self.space_users.push(satellite);
        self.space_user_node(self.space_users.len() - 1)
    }

    /// Number of broadband satellites (all shells).
    pub fn num_satellites(&self) -> usize {
        self.broadband.len()
    }

    /// Number of ground-user sites.
    pub fn num_ground_users(&self) -> usize {
        self.ground_sites.len()
    }

    /// Number of space users.
    pub fn num_space_users(&self) -> usize {
        self.space_users.len()
    }

    /// Total node count.
    pub fn num_nodes(&self) -> usize {
        self.num_satellites() + self.num_ground_users() + self.num_space_users()
    }

    /// The broadband constellation (shells concatenated).
    pub fn broadband(&self) -> &Constellation {
        &self.broadband
    }

    /// The per-shell +Grid indices with each shell's base constellation
    /// index.
    pub fn shell_grids(&self) -> &[(usize, GridIndex)] {
        &self.grids
    }

    /// The ground sites in index order.
    pub fn ground_sites(&self) -> &[Geodetic] {
        &self.ground_sites
    }

    /// The space users in index order.
    pub fn space_users(&self) -> &[Satellite] {
        &self.space_users
    }

    /// [`NodeId`] of broadband satellite `i`.
    pub fn satellite_node(&self, i: usize) -> NodeId {
        debug_assert!(i < self.num_satellites());
        NodeId(i as u32)
    }

    /// [`NodeId`] of ground user `i`.
    pub fn ground_node(&self, i: usize) -> NodeId {
        debug_assert!(i < self.num_ground_users());
        NodeId((self.num_satellites() + i) as u32)
    }

    /// [`NodeId`] of space user `i`.
    pub fn space_user_node(&self, i: usize) -> NodeId {
        debug_assert!(i < self.num_space_users());
        NodeId((self.num_satellites() + self.num_ground_users() + i) as u32)
    }

    /// The kind of a node id.
    pub fn kind_of(&self, node: NodeId) -> NodeKind {
        let i = node.index();
        let s = self.num_satellites();
        let g = self.num_ground_users();
        if i < s {
            NodeKind::Satellite(i)
        } else if i < s + g {
            NodeKind::GroundUser(i - s)
        } else {
            NodeKind::SpaceUser(i - s - g)
        }
    }

    /// Builds the node-kind table in node-id order.
    pub(crate) fn kinds(&self) -> Vec<NodeKind> {
        (0..self.num_nodes()).map(|i| self.kind_of(NodeId(i as u32))).collect()
    }
}

/// The full time-slotted topology: one snapshot per slot.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologySeries {
    slot_duration_s: f64,
    snapshots: Vec<TopologySnapshot>,
}

impl TopologySeries {
    /// Builds snapshots for slots `0..num_slots`, each `slot_duration_s`
    /// seconds long. Orbits are sampled at each slot's start epoch.
    ///
    /// Uses the delta compiler with shared static structure (see
    /// [`crate::delta::SeriesBuilder`]).
    pub fn build(
        nodes: &NetworkNodes,
        config: &TopologyConfig,
        num_slots: usize,
        slot_duration_s: f64,
    ) -> TopologySeries {
        crate::delta::SeriesBuilder::new(nodes, config)
            .compile(num_slots, slot_duration_s)
            .into_series()
    }

    /// [`TopologySeries::build`] with construction fanned across `threads`
    /// worker threads.
    ///
    /// The slot range is split into `threads` contiguous chunks and each
    /// worker delta-compiles its chunk independently (a fresh base state at
    /// the chunk start, deltas within). Every snapshot is a pure function
    /// of `(nodes, config, slot epoch)`, so the result is **bit-identical**
    /// to the serial build for every thread count — the same determinism
    /// discipline as the sweep runner.
    ///
    /// `threads <= 1` takes the serial path with no thread machinery.
    pub fn build_par(
        nodes: &NetworkNodes,
        config: &TopologyConfig,
        num_slots: usize,
        slot_duration_s: f64,
        threads: usize,
    ) -> TopologySeries {
        let threads = threads.clamp(1, num_slots.max(1));
        if threads == 1 {
            return Self::build(nodes, config, num_slots, slot_duration_s);
        }
        crate::delta::SeriesBuilder::new(nodes, config).compile_par(
            num_slots,
            slot_duration_s,
            threads,
        )
    }

    /// The dense full-rebuild reference: one independent
    /// [`build_snapshot`] per slot, no shared structure. Kept as the
    /// correctness oracle for the delta compiler.
    pub fn build_full(
        nodes: &NetworkNodes,
        config: &TopologyConfig,
        num_slots: usize,
        slot_duration_s: f64,
    ) -> TopologySeries {
        let snapshots = (0..num_slots)
            .map(|t| {
                build_snapshot(
                    nodes,
                    config,
                    SlotIndex(t as u32),
                    Epoch::from_seconds(t as f64 * slot_duration_s),
                )
            })
            .collect();
        TopologySeries { slot_duration_s, snapshots }
    }

    /// Assembles a series from pre-built snapshots — hand-built test
    /// topologies or replayed captures. Snapshots must be in slot order
    /// and describe the same node set.
    pub fn from_snapshots(
        snapshots: Vec<TopologySnapshot>,
        slot_duration_s: f64,
    ) -> TopologySeries {
        TopologySeries { slot_duration_s, snapshots }
    }

    /// Number of slots in the series.
    pub fn num_slots(&self) -> usize {
        self.snapshots.len()
    }

    /// Slot duration in seconds.
    pub fn slot_duration_s(&self) -> f64 {
        self.slot_duration_s
    }

    /// The snapshot for a slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is outside the built horizon.
    pub fn snapshot(&self, slot: SlotIndex) -> &TopologySnapshot {
        &self.snapshots[slot.index()]
    }

    /// All snapshots in slot order.
    pub fn snapshots(&self) -> &[TopologySnapshot] {
        &self.snapshots
    }

    /// Per-slot sunlit flags for broadband satellite `sat_idx` across the
    /// whole horizon (consumed by the energy model).
    pub fn sunlit_profile(&self, sat_node: NodeId) -> Vec<bool> {
        self.snapshots.iter().map(|s| s.is_sunlit(sat_node)).collect()
    }

    /// Estimated heap bytes of the whole series: per-slot marginal bytes
    /// plus each distinct shared static core counted once.
    pub fn heap_bytes(&self) -> usize {
        let marginal: usize = self.snapshots.iter().map(|s| s.marginal_heap_bytes()).sum();
        // All split snapshots of one series share one core.
        let shared = self.snapshots.iter().map(|s| s.shared_heap_bytes()).max().unwrap_or(0);
        marginal + shared
    }

    /// Returns the series with an ISL failure model applied to every
    /// snapshot (see [`crate::failures::LinkFailureModel`]).
    ///
    /// Takes `self` by value and moves every snapshot the model leaves
    /// untouched — slots where no drawn failure hits an existing ISL are
    /// *not* rebuilt or cloned, so applying a sparse overlay to a
    /// paper-scale series costs only the slots that actually change.
    pub fn with_failures(self, model: &crate::failures::LinkFailureModel) -> TopologySeries {
        TopologySeries {
            slot_duration_s: self.slot_duration_s,
            snapshots: self.snapshots.into_iter().map(|s| model.apply_owned(s)).collect(),
        }
    }

    /// Returns the series with any [`crate::failures::FailureModel`]
    /// applied to every snapshot. Unchanged slots are moved, not rebuilt
    /// (see [`TopologySeries::with_failures`]).
    pub fn with_failure_model(self, model: &crate::failures::FailureModel) -> TopologySeries {
        TopologySeries {
            slot_duration_s: self.slot_duration_s,
            snapshots: self.snapshots.into_iter().map(|s| model.apply_owned(s)).collect(),
        }
    }
}

/// Propagates every node to `epoch`: positions and sunlight flags in
/// node-id order (shared by the dense and delta-compiled builders so the
/// two paths can never drift).
pub(crate) fn node_states(nodes: &NetworkNodes, epoch: Epoch) -> (Vec<Eci>, Vec<bool>) {
    let sat_states = nodes.broadband.propagate(epoch);
    let mut positions: Vec<Eci> = Vec::with_capacity(nodes.num_nodes());
    let mut sunlit: Vec<bool> = Vec::with_capacity(nodes.num_nodes());
    positions.extend(sat_states.iter().map(|s| s.position));
    sunlit.extend(sat_states.iter().map(|s| s.sunlit));

    for site in nodes.ground_sites() {
        positions.push(site.to_ecef().to_eci(epoch));
        sunlit.push(true); // ground users draw no satellite battery power
    }
    for eo in nodes.space_users() {
        let p = eo.elements.position_at(epoch);
        positions.push(p);
        sunlit.push(!sb_geo::sun::in_umbra(p, epoch));
    }
    (positions, sunlit)
}

/// Builds the dense snapshot graph for one slot (the full-rebuild
/// reference path).
pub fn build_snapshot(
    nodes: &NetworkNodes,
    config: &TopologyConfig,
    slot: SlotIndex,
    epoch: Epoch,
) -> TopologySnapshot {
    let (positions, sunlit) = node_states(nodes, epoch);
    let sat_positions = &positions[..nodes.num_satellites()];

    let mut edges = Vec::new();

    // ISLs: +Grid within each shell.
    for &(base, ref grid) in nodes.shell_grids() {
        let count = grid.planes() * grid.sats_per_plane();
        edges.extend(isl::plus_grid_edges(
            grid,
            &sat_positions[base..base + count],
            |i| nodes.satellite_node(base + i),
            config.isl_capacity_mbps,
            config.isl_grazing_margin_m,
        ));
    }

    // Ground USLs.
    for (gi, _site) in nodes.ground_sites().iter().enumerate() {
        let user_node = nodes.ground_node(gi);
        let user_pos = positions[user_node.index()];
        let visible = usl::visible_sats_from_ground(
            user_pos,
            sat_positions,
            config.min_elevation_rad,
            config.max_usl_per_ground,
        );
        edges.extend(usl::usl_edges(
            user_node,
            user_pos,
            &visible,
            sat_positions,
            |i| nodes.satellite_node(i),
            config.usl_capacity_mbps,
        ));
    }

    // Space-user links (modelled as USLs per the paper's two link classes).
    for (ei, _eo) in nodes.space_users().iter().enumerate() {
        let user_node = nodes.space_user_node(ei);
        let user_pos = positions[user_node.index()];
        let visible = usl::visible_sats_from_space(
            user_pos,
            sat_positions,
            config.eo_link_range_m,
            config.grazing_margin_m,
            config.max_usl_per_eo,
        );
        edges.extend(usl::usl_edges(
            user_node,
            user_pos,
            &visible,
            sat_positions,
            |i| nodes.satellite_node(i),
            config.usl_capacity_mbps,
        ));
    }

    TopologySnapshot::from_edges(slot, nodes.kinds(), positions, sunlit, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failures::LinkFailureModel;
    use crate::graph::LinkType;
    use proptest::prelude::*;
    use sb_orbit::walker::WalkerConstellation;

    fn small_nodes() -> NetworkNodes {
        let shell = WalkerConstellation::delta(12, 8, 1, 550e3, 53f64.to_radians());
        let mut nodes = NetworkNodes::from_walker(&shell);
        nodes.add_ground_site(Geodetic::from_degrees(35.8, -78.6, 0.0));
        nodes.add_ground_site(Geodetic::from_degrees(-33.9, 151.2, 0.0));
        for eo in sb_orbit::eo::synthetic_fleet(3) {
            nodes.add_space_user(eo);
        }
        nodes
    }

    #[test]
    fn node_numbering_is_contiguous() {
        let nodes = small_nodes();
        assert_eq!(nodes.num_nodes(), 96 + 2 + 3);
        assert_eq!(nodes.satellite_node(0), NodeId(0));
        assert_eq!(nodes.ground_node(0), NodeId(96));
        assert_eq!(nodes.space_user_node(0), NodeId(98));
        assert_eq!(nodes.kind_of(NodeId(0)), NodeKind::Satellite(0));
        assert_eq!(nodes.kind_of(NodeId(97)), NodeKind::GroundUser(1));
        assert_eq!(nodes.kind_of(NodeId(100)), NodeKind::SpaceUser(2));
    }

    #[test]
    fn multi_shell_nodes_concatenate() {
        let shells = [
            WalkerConstellation::delta(4, 6, 1, 550e3, 53f64.to_radians()),
            WalkerConstellation::delta(3, 5, 0, 570e3, 70f64.to_radians()),
        ];
        let nodes = NetworkNodes::from_shells(&shells);
        assert_eq!(nodes.num_satellites(), 24 + 15);
        assert_eq!(nodes.shell_grids().len(), 2);
        assert_eq!(nodes.shell_grids()[0].0, 0);
        assert_eq!(nodes.shell_grids()[1].0, 24);
        assert_eq!(nodes.shell_grids()[1].1.planes(), 3);
    }

    #[test]
    fn multi_shell_isls_stay_within_shells() {
        // Denser shells so intra-plane neighbors clear the Earth-grazing
        // line-of-sight check (sparse rings are mostly blocked).
        let shells = [
            WalkerConstellation::delta(6, 10, 1, 550e3, 53f64.to_radians()),
            WalkerConstellation::delta(5, 8, 0, 570e3, 70f64.to_radians()),
        ];
        let cfg = TopologyConfig::default();
        let nodes = NetworkNodes::from_shells(&shells);
        let snap = build_snapshot(&nodes, &cfg, SlotIndex(0), Epoch::from_seconds(0.0));
        let isls: Vec<_> = snap.edges().filter(|e| e.link_type == LinkType::Isl).collect();
        assert!(!isls.is_empty());
        for e in &isls {
            let same_shell = (e.src.index() < 60) == (e.dst.index() < 60);
            assert!(same_shell, "cross-shell ISL {:?}", (e.src, e.dst));
        }
        // The combined graph has exactly the union of the per-shell ISLs:
        // each shell wired independently, with shifted node ids.
        let per_shell: usize = shells
            .iter()
            .map(|shell| {
                let solo = NetworkNodes::from_walker(shell);
                build_snapshot(&solo, &cfg, SlotIndex(0), Epoch::from_seconds(0.0))
                    .edges()
                    .filter(|e| e.link_type == LinkType::Isl)
                    .count()
            })
            .sum();
        assert_eq!(isls.len(), per_shell);
    }

    #[test]
    fn snapshot_has_isls_and_usls() {
        let nodes = small_nodes();
        let snap = build_snapshot(
            &nodes,
            &TopologyConfig::default(),
            SlotIndex(0),
            Epoch::from_seconds(0.0),
        );
        let isls = snap.edges().filter(|e| e.link_type == LinkType::Isl).count();
        let usls = snap.edges().filter(|e| e.link_type == LinkType::Usl).count();
        assert_eq!(isls, 4 * 96, "+Grid should give 4 directed ISLs per sat");
        assert!(usls > 0, "users should see some satellites");
        assert!(usls % 2 == 0, "USLs come in directed pairs");
    }

    #[test]
    fn series_builds_and_changes_over_time() {
        let nodes = small_nodes();
        let series = TopologySeries::build(&nodes, &TopologyConfig::default(), 4, 300.0);
        assert_eq!(series.num_slots(), 4);
        assert_eq!(series.slot_duration_s(), 300.0);
        // Edge sets should differ across 5-minute slots (satellites move
        // ~1400 km per slot).
        let e0: Vec<_> = series.snapshot(SlotIndex(0)).edges().map(|e| (e.src, e.dst)).collect();
        let e3: Vec<_> = series.snapshot(SlotIndex(3)).edges().map(|e| (e.src, e.dst)).collect();
        assert_ne!(e0, e3, "topology should evolve");
    }

    #[test]
    fn usl_capacity_from_config() {
        let nodes = small_nodes();
        let cfg = TopologyConfig { usl_capacity_mbps: 1234.0, ..TopologyConfig::default() };
        let snap = build_snapshot(&nodes, &cfg, SlotIndex(0), Epoch::from_seconds(0.0));
        for e in snap.edges().filter(|e| e.link_type == LinkType::Usl) {
            assert_eq!(e.capacity_mbps, 1234.0);
        }
    }

    #[test]
    fn ground_users_always_sunlit() {
        let nodes = small_nodes();
        let snap = build_snapshot(
            &nodes,
            &TopologyConfig::default(),
            SlotIndex(0),
            Epoch::from_seconds(0.0),
        );
        assert!(snap.is_sunlit(nodes.ground_node(0)));
        assert!(snap.is_sunlit(nodes.ground_node(1)));
    }

    #[test]
    fn sunlit_profile_varies_over_orbit() {
        let shell = WalkerConstellation::delta(2, 4, 0, 550e3, 53f64.to_radians());
        let nodes = NetworkNodes::from_walker(&shell);
        // Sample a full orbit at 1-minute slots.
        let series = TopologySeries::build(&nodes, &TopologyConfig::default(), 96, 60.0);
        let profile = series.sunlit_profile(nodes.satellite_node(0));
        let lit = profile.iter().filter(|&&b| b).count();
        // At 53° inclination near equinox the satellite must see both
        // sunlight and umbra within one orbit.
        assert!(lit > 0 && lit < 96, "lit {lit}/96");
    }

    #[test]
    fn eo_sats_link_to_nearby_broadband() {
        let shell = WalkerConstellation::delta(22, 72, 17, 550e3, 53f64.to_radians());
        let mut nodes = NetworkNodes::from_walker(&shell);
        let eo_node = nodes.add_space_user(sb_orbit::eo::synthetic_fleet(1).pop().unwrap());
        let snap = build_snapshot(
            &nodes,
            &TopologyConfig::default(),
            SlotIndex(0),
            Epoch::from_seconds(0.0),
        );
        // At paper density, an EO sat at ~500 km should see the shell.
        assert!(snap.out_degree(eo_node) > 0, "EO sat sees no broadband satellites");
    }

    #[test]
    #[should_panic(expected = "space users must be EO satellites")]
    fn rejects_broadband_as_space_user() {
        let shell = WalkerConstellation::delta(2, 2, 0, 550e3, 0.9);
        let mut nodes = NetworkNodes::from_walker(&shell);
        let sat = nodes.broadband().satellites()[0].clone();
        nodes.add_space_user(sat);
    }

    #[test]
    fn delta_build_matches_full_rebuild() {
        let nodes = small_nodes();
        let cfg = TopologyConfig::default();
        let full = TopologySeries::build_full(&nodes, &cfg, 6, 120.0);
        let delta = TopologySeries::build(&nodes, &cfg, 6, 120.0);
        assert!(delta.snapshots().iter().all(|s| s.is_split()));
        assert_eq!(delta, full);
    }

    #[test]
    fn build_par_matches_serial_build() {
        let nodes = small_nodes();
        let cfg = TopologyConfig::default();
        let serial = TopologySeries::build(&nodes, &cfg, 6, 120.0);
        let full = TopologySeries::build_full(&nodes, &cfg, 6, 120.0);
        for threads in [1, 2, 4, 16] {
            let par = TopologySeries::build_par(&nodes, &cfg, 6, 120.0, threads);
            assert_eq!(par, serial, "threads={threads}");
            assert_eq!(par, full, "threads={threads} vs full rebuild");
        }
    }

    #[test]
    fn build_par_empty_series() {
        let nodes = small_nodes();
        let par = TopologySeries::build_par(&nodes, &TopologyConfig::default(), 0, 60.0, 4);
        assert_eq!(par.num_slots(), 0);
    }

    #[test]
    fn series_heap_bytes_counts_shared_core_once() {
        let nodes = small_nodes();
        let cfg = TopologyConfig::default();
        let delta = TopologySeries::build(&nodes, &cfg, 4, 120.0);
        let full = TopologySeries::build_full(&nodes, &cfg, 4, 120.0);
        assert!(delta.heap_bytes() > 0);
        assert!(
            delta.heap_bytes() < full.heap_bytes(),
            "shared-structure series should be smaller: {} vs {}",
            delta.heap_bytes(),
            full.heap_bytes()
        );
    }

    #[test]
    fn failure_overlay_bit_identical_through_owned_path() {
        // Pins the by-value `with_failures` (move-unchanged-slots fast
        // path) to the per-snapshot reference overlay, on a shell sparse
        // enough that both the "slot untouched" and "slot rebuilt" paths
        // are exercised.
        let shell = WalkerConstellation::delta(4, 8, 0, 550e3, 53f64.to_radians());
        let nodes = NetworkNodes::from_walker(&shell);
        let original = TopologySeries::build(&nodes, &TopologyConfig::default(), 16, 300.0);
        let model = LinkFailureModel::new(0.01, 0xfa11_0005);
        let expected: Vec<TopologySnapshot> =
            original.snapshots().iter().map(|s| model.apply(s)).collect();
        let overlaid = original.clone().with_failures(&model);
        assert_eq!(overlaid.snapshots(), expected.as_slice());
        assert_eq!(overlaid.slot_duration_s(), original.slot_duration_s());
        let changed =
            overlaid.snapshots().iter().zip(original.snapshots()).filter(|(a, b)| a != b).count();
        assert!(changed > 0, "overlay should drop at least one ISL at p=0.01");
        assert!(changed < original.num_slots(), "some slots should survive untouched");
    }

    #[test]
    fn apply_owned_reuses_untouched_split_slots() {
        // Regression: the move-unchanged-slot fast path must hold on the
        // shared-structure representation — untouched split snapshots come
        // back split (moved, not rebuilt dense) and changed ones stay
        // split with the same shared core.
        let shell = WalkerConstellation::delta(4, 8, 0, 550e3, 53f64.to_radians());
        let nodes = NetworkNodes::from_walker(&shell);
        let original = TopologySeries::build(&nodes, &TopologyConfig::default(), 16, 300.0);
        assert!(original.snapshots().iter().all(|s| s.is_split()));
        let shared_before = original.snapshot(SlotIndex(0)).shared_heap_bytes();
        let model = LinkFailureModel::new(0.01, 0xfa11_0005);
        let overlaid = original.with_failures(&model);
        for s in overlaid.snapshots() {
            assert!(s.is_split(), "slot {:?} lost its split storage", s.slot());
            assert_eq!(s.shared_heap_bytes(), shared_before, "core must stay shared");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn prop_build_par_bit_identical(
            planes in 2usize..5,
            sats_per_plane in 2usize..6,
            phasing in 0usize..4,
            num_slots in 1usize..4,
            threads in 1usize..5,
        ) {
            let shell = WalkerConstellation::delta(
                planes,
                sats_per_plane,
                phasing % planes,
                550e3,
                53f64.to_radians(),
            );
            let mut nodes = NetworkNodes::from_walker(&shell);
            nodes.add_ground_site(Geodetic::from_degrees(35.8, -78.6, 0.0));
            for eo in sb_orbit::eo::synthetic_fleet(1) {
                nodes.add_space_user(eo);
            }
            let cfg = TopologyConfig::default();
            let serial = TopologySeries::build(&nodes, &cfg, num_slots, 60.0);
            let par = TopologySeries::build_par(&nodes, &cfg, num_slots, 60.0, threads);
            prop_assert_eq!(par, serial);
        }
    }
}
