//! The per-slot snapshot graph.
//!
//! Node identities are *stable across slots* (satellite k is node k in every
//! snapshot); edges change from slot to slot as satellites move. Two storage
//! layouts back the same accessor API:
//!
//! * **Dense** — a flat edge list with a CSR-style adjacency index, built by
//!   [`TopologySnapshot::from_edges`]. Used for hand-built test graphs and
//!   for the full-rebuild reference path.
//! * **Split** — a static/dynamic CSR split for delta-compiled series
//!   ([`crate::delta::SeriesBuilder`]): the +Grid ISL template (a
//!   [`StaticCore`]) is stored once per series behind an `Arc`, and each
//!   slot owns only its positions, sunlight flags, the sorted list of
//!   template edges *absent* this slot (line-of-sight blocked or failed),
//!   and a small CSR of dynamic USL edges. Edge lengths are recomputed from
//!   positions on access; IEEE negation symmetry makes them bit-identical
//!   to the dense build in both directions.
//!
//! Edge ids number the same logical edge list in both layouts: edges sorted
//! by source node, and within a source the static ISL template entries first
//! (in template order) followed by dynamic USL entries (in discovery order).
//! This matches the dense path's stable sort over the builder's push order,
//! so the two layouts are observationally identical.

use std::sync::Arc;

use sb_geo::coords::Eci;
use serde::{Deserialize, Serialize};

/// Stable identifier of a network node across all time slots.
///
/// Numbering convention (enforced by [`crate::series::NetworkNodes`]):
/// broadband satellites first, then ground users, then space users.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node as a `usize` array index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl core::fmt::Display for NodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// A broadband relay satellite; `usize` is the constellation index.
    Satellite(usize),
    /// A ground user site; `usize` is the site index.
    GroundUser(usize),
    /// A space user (Earth-observation satellite); `usize` is the EO index.
    SpaceUser(usize),
}

impl NodeKind {
    /// `true` for broadband satellites (the only nodes that route traffic
    /// and consume battery energy).
    pub fn is_satellite(self) -> bool {
        matches!(self, NodeKind::Satellite(_))
    }

    /// `true` for ground or space users.
    pub fn is_user(self) -> bool {
        !self.is_satellite()
    }
}

impl core::fmt::Display for NodeKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NodeKind::Satellite(i) => write!(f, "sat[{i}]"),
            NodeKind::GroundUser(i) => write!(f, "ground[{i}]"),
            NodeKind::SpaceUser(i) => write!(f, "eo[{i}]"),
        }
    }
}

/// The physical type of a link, which determines its capacity and its unit
/// energy consumption (the paper's `m_e ∈ {ISL, USL}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkType {
    /// Inter-satellite link between two broadband satellites.
    Isl,
    /// User-satellite link (ground terminal or space user to a broadband
    /// satellite).
    Usl,
}

impl core::fmt::Display for LinkType {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LinkType::Isl => write!(f, "ISL"),
            LinkType::Usl => write!(f, "USL"),
        }
    }
}

/// A directed edge in one snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Physical link type.
    pub link_type: LinkType,
    /// Bandwidth capacity `c_e(T)`, Mbps.
    pub capacity_mbps: f64,
    /// Straight-line length of the link, meters (for delay estimates).
    pub length_m: f64,
}

/// Index of an edge within one snapshot's edge list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The edge as a `usize` array index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The slot-invariant structure shared by every snapshot of a
/// delta-compiled series: node kinds, the directed +Grid ISL template
/// (CSR by source), and the uniform link capacities.
///
/// Stored once per series behind an [`Arc`]; a snapshot's marginal cost is
/// only its per-slot dynamic data.
#[derive(Debug, PartialEq)]
pub struct StaticCore {
    pub(crate) kinds: Vec<NodeKind>,
    /// CSR: `tmpl_offsets[n] .. tmpl_offsets[n+1]` indexes `tmpl_dst` for
    /// the directed ISL template entries whose source is node `n`.
    pub(crate) tmpl_offsets: Vec<u32>,
    pub(crate) tmpl_dst: Vec<NodeId>,
    /// Undirected pair index → its two directed template indices.
    pub(crate) pair_dirs: Vec<[u32; 2]>,
    /// Undirected pair index → endpoints `(a, b)` with `a < b`, in the
    /// builder's enumeration order (matches the dense push order).
    pub(crate) pair_nodes: Vec<(NodeId, NodeId)>,
    pub(crate) isl_capacity_mbps: f64,
    pub(crate) usl_capacity_mbps: f64,
}

impl StaticCore {
    /// Number of undirected ISL template pairs.
    pub fn num_pairs(&self) -> usize {
        self.pair_nodes.len()
    }

    /// Estimated heap bytes of the shared template.
    pub fn heap_bytes(&self) -> usize {
        self.kinds.len() * core::mem::size_of::<NodeKind>()
            + self.tmpl_offsets.len() * 4
            + self.tmpl_dst.len() * 4
            + self.pair_dirs.len() * 8
            + self.pair_nodes.len() * 8
    }
}

#[derive(Debug, Clone)]
struct DenseData {
    kinds: Vec<NodeKind>,
    positions: Vec<Eci>,
    sunlit: Vec<bool>,
    edges: Vec<Edge>,
    /// CSR: `adj_offsets[n] .. adj_offsets[n+1]` indexes `edges` for the
    /// out-edges of node `n` (edges are sorted by source, so the adjacency
    /// permutation is the identity).
    adj_offsets: Vec<u32>,
}

#[derive(Debug, Clone)]
struct SplitData {
    core: Arc<StaticCore>,
    positions: Vec<Eci>,
    sunlit: Vec<bool>,
    /// Sorted directed template indices absent at this slot (line-of-sight
    /// blocked or removed by a failure model). Both directions of a pair are
    /// always removed together.
    removed: Vec<u32>,
    /// CSR over the dynamic (USL) out-edges per node: `dyn_offsets[n] ..
    /// dyn_offsets[n+1]` indexes `dyn_peers`.
    dyn_offsets: Vec<u32>,
    dyn_peers: Vec<NodeId>,
    /// Prefix over nodes: `first_edge[v]` is the edge id of node `v`'s first
    /// out-edge and `first_edge[n]` the slot's edge count, so the edge ids
    /// of `v` are `first_edge[v] .. first_edge[v+1]`. Derived from the
    /// fields above by [`TopologySnapshot::from_split`]; never shipped.
    first_edge: Vec<u32>,
}

impl SplitData {
    /// Builds the `first_edge` prefix by one merge pass over the sorted
    /// `removed` list.
    fn first_edge_prefix(core: &StaticCore, removed: &[u32], dyn_offsets: &[u32]) -> Vec<u32> {
        // Removed entries below the current node's template block.
        let mut below = 0usize;
        core.tmpl_offsets
            .iter()
            .zip(dyn_offsets)
            .map(|(&t_lo, &d_lo)| {
                while below < removed.len() && removed[below] < t_lo {
                    below += 1;
                }
                t_lo - below as u32 + d_lo
            })
            .collect()
    }

    fn is_removed(&self, i: u32) -> bool {
        self.removed.binary_search(&i).is_ok()
    }

    fn num_edges(&self) -> usize {
        self.first_edge[self.core.kinds.len()] as usize
    }

    /// Where node `v`'s template block starts in `removed`: the number of
    /// removed entries below `tmpl_offsets[v]`.
    fn removed_start(&self, v: usize) -> usize {
        (self.core.tmpl_offsets[v] - (self.first_edge[v] - self.dyn_offsets[v])) as usize
    }

    /// Number of node `v`'s template entries present at this slot.
    fn present_isl(&self, v: usize) -> u32 {
        (self.first_edge[v + 1] - self.first_edge[v])
            - (self.dyn_offsets[v + 1] - self.dyn_offsets[v])
    }

    /// The source node of edge `id` and the edge's rank among that node's
    /// out-edges.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    fn locate(&self, id: EdgeId) -> (usize, u32) {
        assert!(id.index() < self.num_edges(), "edge id out of range");
        // The last node whose first edge id is <= id: nodes without
        // out-edges share their successor's first id and sort before it.
        let n = self.core.kinds.len();
        let v = self.first_edge[..n].partition_point(|&first| first <= id.0) - 1;
        (v, id.0 - self.first_edge[v])
    }

    fn capacity_mbps(&self, id: EdgeId) -> f64 {
        let (v, rank) = self.locate(id);
        let link_type = if rank < self.present_isl(v) { LinkType::Isl } else { LinkType::Usl };
        self.link_capacity_mbps(link_type)
    }

    fn link_capacity_mbps(&self, link_type: LinkType) -> f64 {
        match link_type {
            LinkType::Isl => self.core.isl_capacity_mbps,
            LinkType::Usl => self.core.usl_capacity_mbps,
        }
    }

    /// Node `v`'s template indices present at this slot, in template order.
    fn present_template(&self, v: usize) -> PresentTemplate<'_> {
        PresentTemplate {
            removed: &self.removed[self.removed_start(v)..],
            idx: self.core.tmpl_offsets[v],
            end: self.core.tmpl_offsets[v + 1],
        }
    }

    fn edge(&self, id: EdgeId) -> Edge {
        let (v, rank) = self.locate(id);
        let src = NodeId(v as u32);
        let isl = self.present_isl(v);
        if rank < isl {
            let i = self
                .present_template(v)
                .nth(rank as usize)
                .expect("rank is below the node's present template count");
            self.make_edge(src, self.core.tmpl_dst[i as usize], LinkType::Isl)
        } else {
            let dst = self.dyn_peers[(self.dyn_offsets[v] + (rank - isl)) as usize];
            self.make_edge(src, dst, LinkType::Usl)
        }
    }

    fn make_edge(&self, src: NodeId, dst: NodeId, link_type: LinkType) -> Edge {
        let capacity_mbps = self.link_capacity_mbps(link_type);
        let length_m = self.positions[src.index()].distance(self.positions[dst.index()]);
        Edge { src, dst, link_type, capacity_mbps, length_m }
    }
}

/// One node's template indices that are not in the slot's `removed` list:
/// the block is walked with a cursor into `removed` (both are sorted).
struct PresentTemplate<'a> {
    /// The tail of `removed` from the block's first possible entry.
    removed: &'a [u32],
    idx: u32,
    end: u32,
}

impl Iterator for PresentTemplate<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        while self.idx < self.end {
            let i = self.idx;
            self.idx += 1;
            if self.removed.first() == Some(&i) {
                self.removed = &self.removed[1..];
            } else {
                return Some(i);
            }
        }
        None
    }
}

/// The network graph at one time slot: `G(T) = (V(T), E(T))`.
///
/// Construct via [`crate::series::TopologySeries::build`] or
/// [`TopologySnapshot::from_edges`] (for hand-built test graphs).
#[derive(Debug, Clone)]
pub struct TopologySnapshot {
    slot: crate::SlotIndex,
    storage: Storage,
}

#[derive(Debug, Clone)]
enum Storage {
    Dense(DenseData),
    Split(SplitData),
}

impl TopologySnapshot {
    /// Builds a dense snapshot from node metadata and a directed edge list.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a node outside `kinds`, or if the
    /// metadata vectors disagree in length.
    pub fn from_edges(
        slot: crate::SlotIndex,
        kinds: Vec<NodeKind>,
        positions: Vec<Eci>,
        sunlit: Vec<bool>,
        mut edges: Vec<Edge>,
    ) -> Self {
        let n = kinds.len();
        assert_eq!(positions.len(), n, "positions length mismatch");
        assert_eq!(sunlit.len(), n, "sunlit length mismatch");
        for e in &edges {
            assert!(e.src.index() < n && e.dst.index() < n, "edge endpoint out of range");
        }
        // Sort edges by source for CSR layout; stable so test graphs keep
        // deterministic edge order within a source.
        edges.sort_by_key(|e| e.src);
        let mut adj_offsets = vec![0u32; n + 1];
        for e in &edges {
            adj_offsets[e.src.index() + 1] += 1;
        }
        for i in 0..n {
            adj_offsets[i + 1] += adj_offsets[i];
        }
        TopologySnapshot {
            slot,
            storage: Storage::Dense(DenseData { kinds, positions, sunlit, edges, adj_offsets }),
        }
    }

    /// Builds a shared-structure snapshot over a series' [`StaticCore`].
    ///
    /// `removed` lists the directed template indices absent at this slot
    /// (sorted, both directions of a pair together); `dyn_offsets` /
    /// `dyn_peers` form the per-node CSR of dynamic USL out-edges.
    pub(crate) fn from_split(
        slot: crate::SlotIndex,
        core: Arc<StaticCore>,
        positions: Vec<Eci>,
        sunlit: Vec<bool>,
        removed: Vec<u32>,
        dyn_offsets: Vec<u32>,
        dyn_peers: Vec<NodeId>,
    ) -> Self {
        let n = core.kinds.len();
        debug_assert_eq!(positions.len(), n);
        debug_assert_eq!(sunlit.len(), n);
        debug_assert_eq!(dyn_offsets.len(), n + 1);
        debug_assert!(removed.windows(2).all(|w| w[0] < w[1]), "removed must be sorted");
        let first_edge = SplitData::first_edge_prefix(&core, &removed, &dyn_offsets);
        TopologySnapshot {
            slot,
            storage: Storage::Split(SplitData {
                core,
                positions,
                sunlit,
                removed,
                dyn_offsets,
                dyn_peers,
                first_edge,
            }),
        }
    }

    /// The slot this snapshot describes.
    pub fn slot(&self) -> crate::SlotIndex {
        self.slot
    }

    /// Number of nodes (same in every snapshot of a series).
    pub fn num_nodes(&self) -> usize {
        self.kinds().len()
    }

    /// Number of directed edges in this snapshot.
    pub fn num_edges(&self) -> usize {
        match &self.storage {
            Storage::Dense(d) => d.edges.len(),
            Storage::Split(s) => s.num_edges(),
        }
    }

    /// The kind of a node.
    pub fn kind(&self, node: NodeId) -> NodeKind {
        self.kinds()[node.index()]
    }

    /// All node kinds, indexed by node id.
    pub fn kinds(&self) -> &[NodeKind] {
        match &self.storage {
            Storage::Dense(d) => &d.kinds,
            Storage::Split(s) => &s.core.kinds,
        }
    }

    fn positions(&self) -> &[Eci] {
        match &self.storage {
            Storage::Dense(d) => &d.positions,
            Storage::Split(s) => &s.positions,
        }
    }

    fn sunlit_flags(&self) -> &[bool] {
        match &self.storage {
            Storage::Dense(d) => &d.sunlit,
            Storage::Split(s) => &s.sunlit,
        }
    }

    /// The inertial position of a node at this slot.
    pub fn position(&self, node: NodeId) -> Eci {
        self.positions()[node.index()]
    }

    /// Whether a node is in sunlight at this slot (always `true` for ground
    /// users).
    pub fn is_sunlit(&self, node: NodeId) -> bool {
        self.sunlit_flags()[node.index()]
    }

    /// The edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn edge(&self, id: EdgeId) -> Edge {
        match &self.storage {
            Storage::Dense(d) => d.edges[id.index()],
            Storage::Split(s) => s.edge(id),
        }
    }

    /// Capacity of the edge with the given id, Mbps — what
    /// `self.edge(id).capacity_mbps` reads, without building the [`Edge`]
    /// (a split snapshot recomputes an edge's length on access).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn capacity_mbps(&self, id: EdgeId) -> f64 {
        match &self.storage {
            Storage::Dense(d) => d.edges[id.index()].capacity_mbps,
            Storage::Split(s) => s.capacity_mbps(id),
        }
    }

    /// [`Self::capacity_mbps`] for a caller that already knows the edge's
    /// link type: constant time in both layouts (a split snapshot's
    /// capacities depend on the link type alone).
    pub fn capacity_mbps_of(&self, id: EdgeId, link_type: LinkType) -> f64 {
        debug_assert_eq!(self.edge(id).link_type, link_type, "wrong link type for edge {id:?}");
        match &self.storage {
            Storage::Dense(d) => d.edges[id.index()].capacity_mbps,
            Storage::Split(s) => s.link_capacity_mbps(link_type),
        }
    }

    /// The capacity of every edge in edge-id order, Mbps — what
    /// `self.edges().map(|e| e.capacity_mbps)` yields, without building the
    /// edges (a split snapshot recomputes an edge's length on access).
    pub fn capacities(&self) -> Capacities<'_> {
        let inner = match &self.storage {
            Storage::Dense(d) => CapacitiesInner::Dense(d.edges.iter()),
            Storage::Split(s) => CapacitiesInner::Split { data: s, next_node: 0, isl: 0, usl: 0 },
        };
        Capacities { inner }
    }

    /// All edges in edge-id order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.num_nodes() as u32).flat_map(move |v| self.out_edges(NodeId(v)).map(|(_, e)| e))
    }

    /// Iterates over the out-edges of `node` as `(EdgeId, Edge)`.
    pub fn out_edges(&self, node: NodeId) -> OutEdges<'_> {
        let inner = match &self.storage {
            Storage::Dense(d) => OutEdgesInner::Dense {
                edges: &d.edges,
                idx: d.adj_offsets[node.index()],
                end: d.adj_offsets[node.index() + 1],
            },
            Storage::Split(s) => OutEdgesInner::Split {
                data: s,
                src: node,
                tmpl: s.present_template(node.index()),
                dyn_idx: s.dyn_offsets[node.index()],
                dyn_end: s.dyn_offsets[node.index() + 1],
                next_id: s.first_edge[node.index()],
            },
        };
        OutEdges { inner }
    }

    /// Out-degree of a node.
    pub fn out_degree(&self, node: NodeId) -> usize {
        match &self.storage {
            Storage::Dense(d) => {
                (d.adj_offsets[node.index() + 1] - d.adj_offsets[node.index()]) as usize
            }
            Storage::Split(s) => {
                (s.first_edge[node.index() + 1] - s.first_edge[node.index()]) as usize
            }
        }
    }

    /// Finds the edge from `src` to `dst`, if present.
    pub fn find_edge(&self, src: NodeId, dst: NodeId) -> Option<EdgeId> {
        self.out_edges(src).find(|(_, e)| e.dst == dst).map(|(id, _)| id)
    }

    /// Total capacity (Mbps) of all directed edges — a sanity metric.
    pub fn total_capacity_mbps(&self) -> f64 {
        self.capacities().sum()
    }

    /// `true` when this snapshot uses the shared-structure (split) layout.
    pub fn is_split(&self) -> bool {
        matches!(self.storage, Storage::Split(_))
    }

    /// Estimated heap bytes owned by this snapshot alone; for split
    /// snapshots the `Arc`-shared [`StaticCore`] is excluded (see
    /// [`TopologySnapshot::shared_heap_bytes`]).
    pub fn marginal_heap_bytes(&self) -> usize {
        match &self.storage {
            Storage::Dense(d) => {
                d.kinds.len() * core::mem::size_of::<NodeKind>()
                    + d.positions.len() * core::mem::size_of::<Eci>()
                    + d.sunlit.len()
                    + d.edges.len() * core::mem::size_of::<Edge>()
                    + d.adj_offsets.len() * 4
            }
            Storage::Split(s) => {
                s.positions.len() * core::mem::size_of::<Eci>()
                    + s.sunlit.len()
                    + s.removed.len() * 4
                    + s.dyn_offsets.len() * 4
                    + s.dyn_peers.len() * 4
                    + s.first_edge.len() * 4
            }
        }
    }

    /// Estimated heap bytes of the structure shared across the series
    /// (0 for dense snapshots).
    pub fn shared_heap_bytes(&self) -> usize {
        match &self.storage {
            Storage::Dense(_) => 0,
            Storage::Split(s) => s.core.heap_bytes(),
        }
    }

    /// Removes edges according to the two predicates, preserving edge
    /// order, and returns the filtered snapshot — or `None` when either the
    /// snapshot is dense (caller must take the dense rebuild path) or no
    /// edge matched (the snapshot is unchanged).
    ///
    /// `isl_down` is consulted once per *present* undirected ISL pair;
    /// `node_down` removes every edge touching a down node.
    pub(crate) fn split_filtered(
        &self,
        mut isl_down: impl FnMut(NodeId, NodeId) -> bool,
        mut node_down: impl FnMut(NodeId) -> bool,
    ) -> Option<TopologySnapshot> {
        let s = match &self.storage {
            Storage::Split(s) => s,
            Storage::Dense(_) => return None,
        };
        let mut extra: Vec<u32> = Vec::new();
        for (p, &(a, b)) in s.core.pair_nodes.iter().enumerate() {
            let dirs = s.core.pair_dirs[p];
            if s.is_removed(dirs[0]) {
                continue;
            }
            if isl_down(a, b) || node_down(a) || node_down(b) {
                extra.extend_from_slice(&dirs);
            }
        }
        let n = s.core.kinds.len();
        let mut dyn_changed = false;
        let mut dyn_offsets = Vec::with_capacity(n + 1);
        let mut dyn_peers = Vec::with_capacity(s.dyn_peers.len());
        dyn_offsets.push(0u32);
        for v in 0..n {
            let v_down = node_down(NodeId(v as u32));
            let lo = s.dyn_offsets[v] as usize;
            let hi = s.dyn_offsets[v + 1] as usize;
            for &peer in &s.dyn_peers[lo..hi] {
                if v_down || node_down(peer) {
                    dyn_changed = true;
                } else {
                    dyn_peers.push(peer);
                }
            }
            dyn_offsets.push(dyn_peers.len() as u32);
        }
        if extra.is_empty() && !dyn_changed {
            return None;
        }
        let mut removed = s.removed.clone();
        removed.extend_from_slice(&extra);
        removed.sort_unstable();
        Some(TopologySnapshot::from_split(
            self.slot,
            Arc::clone(&s.core),
            s.positions.clone(),
            s.sunlit.clone(),
            removed,
            dyn_offsets,
            dyn_peers,
        ))
    }
}

impl PartialEq for TopologySnapshot {
    /// Logical equality: the two snapshots describe the same graph,
    /// regardless of storage layout.
    fn eq(&self, other: &Self) -> bool {
        self.slot == other.slot
            && self.kinds() == other.kinds()
            && self.positions() == other.positions()
            && self.sunlit_flags() == other.sunlit_flags()
            && self.num_edges() == other.num_edges()
            && self.edges().eq(other.edges())
    }
}

/// Iterator over every edge's capacity; see
/// [`TopologySnapshot::capacities`].
pub struct Capacities<'a> {
    inner: CapacitiesInner<'a>,
}

enum CapacitiesInner<'a> {
    Dense(core::slice::Iter<'a, Edge>),
    /// `isl` then `usl` capacities are still owed for the node before
    /// `next_node`.
    Split {
        data: &'a SplitData,
        next_node: usize,
        isl: u32,
        usl: u32,
    },
}

impl Iterator for Capacities<'_> {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        match &mut self.inner {
            CapacitiesInner::Dense(edges) => edges.next().map(|e| e.capacity_mbps),
            CapacitiesInner::Split { data, next_node, isl, usl } => loop {
                if *isl > 0 {
                    *isl -= 1;
                    return Some(data.core.isl_capacity_mbps);
                }
                if *usl > 0 {
                    *usl -= 1;
                    return Some(data.core.usl_capacity_mbps);
                }
                let v = *next_node;
                if v == data.core.kinds.len() {
                    return None;
                }
                *next_node += 1;
                *isl = data.present_isl(v);
                *usl = data.dyn_offsets[v + 1] - data.dyn_offsets[v];
            },
        }
    }
}

/// Iterator over a node's out-edges; see
/// [`TopologySnapshot::out_edges`].
pub struct OutEdges<'a> {
    inner: OutEdgesInner<'a>,
}

enum OutEdgesInner<'a> {
    Dense {
        edges: &'a [Edge],
        idx: u32,
        end: u32,
    },
    Split {
        data: &'a SplitData,
        src: NodeId,
        tmpl: PresentTemplate<'a>,
        dyn_idx: u32,
        dyn_end: u32,
        next_id: u32,
    },
}

impl Iterator for OutEdges<'_> {
    type Item = (EdgeId, Edge);

    fn next(&mut self) -> Option<(EdgeId, Edge)> {
        match &mut self.inner {
            OutEdgesInner::Dense { edges, idx, end } => {
                if idx < end {
                    let id = EdgeId(*idx);
                    let e = edges[*idx as usize];
                    *idx += 1;
                    Some((id, e))
                } else {
                    None
                }
            }
            OutEdgesInner::Split { data, src, tmpl, dyn_idx, dyn_end, next_id } => {
                let (dst, link_type) = if let Some(i) = tmpl.next() {
                    (data.core.tmpl_dst[i as usize], LinkType::Isl)
                } else if dyn_idx < dyn_end {
                    *dyn_idx += 1;
                    (data.dyn_peers[*dyn_idx as usize - 1], LinkType::Usl)
                } else {
                    return None;
                };
                let id = EdgeId(*next_id);
                *next_id += 1;
                Some((id, data.make_edge(*src, dst, link_type)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::{core_from_pairs, materialize_split, SlotState};
    use crate::SlotIndex;
    use proptest::prelude::*;
    use sb_geo::Vec3;

    fn tiny() -> TopologySnapshot {
        // user0 -> sat1 -> sat2 -> user3
        let kinds = vec![
            NodeKind::GroundUser(0),
            NodeKind::Satellite(0),
            NodeKind::Satellite(1),
            NodeKind::GroundUser(1),
        ];
        let pos = vec![Eci(Vec3::ZERO); 4];
        let sunlit = vec![true; 4];
        let mk = |s: u32, d: u32, lt| Edge {
            src: NodeId(s),
            dst: NodeId(d),
            link_type: lt,
            capacity_mbps: 1000.0,
            length_m: 1.0e6,
        };
        let edges = vec![
            mk(0, 1, LinkType::Usl),
            mk(1, 0, LinkType::Usl),
            mk(1, 2, LinkType::Isl),
            mk(2, 1, LinkType::Isl),
            mk(2, 3, LinkType::Usl),
            mk(3, 2, LinkType::Usl),
        ];
        TopologySnapshot::from_edges(SlotIndex(0), kinds, pos, sunlit, edges)
    }

    #[test]
    fn csr_adjacency_complete() {
        let g = tiny();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.out_degree(NodeId(1)), 2);
        let dsts: Vec<u32> = g.out_edges(NodeId(1)).map(|(_, e)| e.dst.0).collect();
        assert!(dsts.contains(&0) && dsts.contains(&2));
    }

    #[test]
    fn find_edge_works() {
        let g = tiny();
        assert!(g.find_edge(NodeId(0), NodeId(1)).is_some());
        assert!(g.find_edge(NodeId(0), NodeId(2)).is_none());
        let id = g.find_edge(NodeId(2), NodeId(3)).unwrap();
        assert_eq!(g.edge(id).link_type, LinkType::Usl);
    }

    #[test]
    fn kinds_and_predicates() {
        let g = tiny();
        assert!(g.kind(NodeId(1)).is_satellite());
        assert!(g.kind(NodeId(0)).is_user());
        assert_eq!(format!("{}", g.kind(NodeId(0))), "ground[0]");
        assert_eq!(format!("{}", g.kind(NodeId(1))), "sat[0]");
    }

    #[test]
    fn total_capacity() {
        let g = tiny();
        assert!((g.total_capacity_mbps() - 6000.0).abs() < 1e-9);
    }

    #[test]
    fn edge_ids_enumerate_in_csr_order() {
        let g = tiny();
        for (i, e) in g.edges().enumerate() {
            assert_eq!(g.edge(EdgeId(i as u32)), e);
        }
        let ids: Vec<u32> = (0..g.num_nodes() as u32)
            .flat_map(|v| g.out_edges(NodeId(v)).map(|(id, _)| id.0))
            .collect();
        assert_eq!(ids, (0..g.num_edges() as u32).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "edge endpoint out of range")]
    fn rejects_dangling_edge() {
        let kinds = vec![NodeKind::Satellite(0)];
        let pos = vec![Eci(Vec3::ZERO)];
        let edges = vec![Edge {
            src: NodeId(0),
            dst: NodeId(7),
            link_type: LinkType::Isl,
            capacity_mbps: 1.0,
            length_m: 1.0,
        }];
        let _ = TopologySnapshot::from_edges(SlotIndex(0), kinds, pos, vec![true], edges);
    }

    #[test]
    fn isolated_node_has_no_edges() {
        let kinds = vec![NodeKind::Satellite(0), NodeKind::Satellite(1)];
        let pos = vec![Eci(Vec3::ZERO); 2];
        let g = TopologySnapshot::from_edges(SlotIndex(1), kinds, pos, vec![true, false], vec![]);
        assert_eq!(g.out_degree(NodeId(0)), 0);
        assert_eq!(g.num_edges(), 0);
        assert!(!g.is_sunlit(NodeId(1)));
        assert_eq!(g.slot(), SlotIndex(1));
    }

    // ---- split layout vs `from_edges` of the same graph ----

    const SATS: u32 = 6;
    /// Undirected template pairs over satellites 1..=5; satellite 0 has no
    /// template entry (a node without out-edges at the start).
    const PAIRS: [(u32, u32); 6] = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 3)];
    /// Candidate USL links `(user ordinal, satellite)`, selected by bit mask;
    /// the third user never sees a satellite (no out-edges at the end).
    const USL: [(usize, u32); 5] = [(0, 1), (0, 2), (1, 4), (1, 5), (0, 4)];
    const USERS: usize = 3;

    /// One hand-built graph in both layouts: template pair `q` is absent
    /// when bit `q` of `removed_pairs` is set, USL candidate `k` present
    /// when bit `k` of `usl` is set, and `down` (if any) loses every edge —
    /// through `split_filtered` on the split side.
    fn both_layouts(
        removed_pairs: u32,
        usl: u32,
        down: Option<NodeId>,
    ) -> (TopologySnapshot, TopologySnapshot) {
        let n = SATS as usize + USERS;
        let mut kinds: Vec<NodeKind> = (0..SATS as usize).map(NodeKind::Satellite).collect();
        kinds.extend((0..USERS).map(NodeKind::GroundUser));
        let positions: Vec<Eci> = (0..n)
            .map(|i| {
                Eci(Vec3::new(1.0e6 * i as f64, 3.0e5 * (i * i) as f64, 7.0e4 * (i % 3) as f64))
            })
            .collect();
        let sunlit: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let (isl_cap, usl_cap) = (20_000.0, 4_000.0);
        let pair_nodes: Vec<(NodeId, NodeId)> =
            PAIRS.iter().map(|&(a, b)| (NodeId(a), NodeId(b))).collect();
        let pair_gone = |q: usize| removed_pairs >> q & 1 == 1;
        let mut user_lists = vec![Vec::new(); USERS];
        for (k, &(u, sat)) in USL.iter().enumerate() {
            if usl >> k & 1 == 1 {
                user_lists[u].push(sat);
            }
        }

        let core = Arc::new(core_from_pairs(kinds.clone(), pair_nodes.clone(), isl_cap, usl_cap));
        let mut blocked: Vec<u32> =
            (0..PAIRS.len()).filter(|&q| pair_gone(q)).flat_map(|q| core.pair_dirs[q]).collect();
        blocked.sort_unstable();
        let state = SlotState {
            slot: 2,
            positions: positions.clone(),
            sunlit: sunlit.clone(),
            blocked,
            user_lists: user_lists.clone(),
        };
        let mut split = materialize_split(&core, SATS as usize, &state);
        if let Some(d) = down {
            if let Some(filtered) = split.split_filtered(|_, _| false, |v| v == d) {
                split = filtered;
            }
        }
        assert!(split.is_split());

        // The dense push order: per present pair both directions, then per
        // user and visible satellite both directions.
        let mut edges = Vec::new();
        let mut push = |src: NodeId, dst: NodeId, link_type, capacity_mbps| {
            if Some(src) == down || Some(dst) == down {
                return;
            }
            let length_m = positions[src.index()].distance(positions[dst.index()]);
            edges.push(Edge { src, dst, link_type, capacity_mbps, length_m });
        };
        for (q, &(a, b)) in pair_nodes.iter().enumerate() {
            if !pair_gone(q) {
                push(a, b, LinkType::Isl, isl_cap);
                push(b, a, LinkType::Isl, isl_cap);
            }
        }
        for (u, list) in user_lists.iter().enumerate() {
            let user = NodeId(SATS + u as u32);
            for &sat in list {
                push(user, NodeId(sat), LinkType::Usl, usl_cap);
                push(NodeId(sat), user, LinkType::Usl, usl_cap);
            }
        }
        let dense = TopologySnapshot::from_edges(SlotIndex(2), kinds, positions, sunlit, edges);
        (split, dense)
    }

    fn edge_bits(e: Edge) -> (NodeId, NodeId, LinkType, u64, u64) {
        (e.src, e.dst, e.link_type, e.capacity_mbps.to_bits(), e.length_m.to_bits())
    }

    /// Every id- and node-addressed accessor answers the same in both
    /// layouts, bit for bit.
    fn assert_layouts_agree(removed_pairs: u32, usl: u32, down: Option<NodeId>) {
        let (split, dense) = both_layouts(removed_pairs, usl, down);
        let case = format!("removed={removed_pairs:#b} usl={usl:#b} down={down:?}");
        assert_eq!(split.num_edges(), dense.num_edges(), "{case}");
        for id in (0..dense.num_edges() as u32).map(EdgeId) {
            assert_eq!(edge_bits(split.edge(id)), edge_bits(dense.edge(id)), "{case} edge {id:?}");
            assert_eq!(
                split.capacity_mbps(id).to_bits(),
                dense.edge(id).capacity_mbps.to_bits(),
                "{case} capacity {id:?}"
            );
            assert_eq!(dense.capacity_mbps(id).to_bits(), dense.edge(id).capacity_mbps.to_bits());
            let link_type = dense.edge(id).link_type;
            for g in [&split, &dense] {
                assert_eq!(
                    g.capacity_mbps_of(id, link_type).to_bits(),
                    dense.edge(id).capacity_mbps.to_bits()
                );
            }
        }
        let bits = |g: &TopologySnapshot| g.capacities().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(&split), bits(&dense), "{case} capacities");
        assert_eq!(
            bits(&dense),
            dense.edges().map(|e| e.capacity_mbps.to_bits()).collect::<Vec<_>>()
        );
        for v in (0..dense.num_nodes() as u32).map(NodeId) {
            let walk = |g: &TopologySnapshot| -> Vec<_> {
                g.out_edges(v).map(|(id, e)| (id, edge_bits(e))).collect()
            };
            assert_eq!(walk(&split), walk(&dense), "{case} out_edges {v}");
            assert_eq!(split.out_degree(v), dense.out_degree(v), "{case} out_degree {v}");
            for w in (0..dense.num_nodes() as u32).map(NodeId) {
                assert_eq!(split.find_edge(v, w), dense.find_edge(v, w), "{case} {v}->{w}");
            }
        }
        assert_eq!(split, dense, "{case}");
    }

    #[test]
    fn split_accessors_match_dense_on_chosen_removed_sets() {
        let all_usl = (1 << USL.len()) - 1;
        let core = core_from_pairs(
            vec![NodeKind::Satellite(0); SATS as usize],
            PAIRS.iter().map(|&(a, b)| (NodeId(a), NodeId(b))).collect(),
            1.0,
            1.0,
        );
        let last_dir = core.tmpl_dst.len() as u32 - 1;
        let pair_holding =
            |dir: u32| core.pair_dirs.iter().position(|d| d.contains(&dir)).unwrap() as u32;
        // Satellite 3's whole template block: pairs (2,3), (3,4), (1,3).
        // With no USL on it either, a node without out-edges in the middle.
        let block_of_3 = 0b100110;
        for removed in [
            0,
            block_of_3,
            1 << pair_holding(0),
            1 << pair_holding(last_dir),
            1 << pair_holding(0) | 1 << pair_holding(last_dir),
            (1 << PAIRS.len()) - 1,
        ] {
            for usl in [0, all_usl, 0b00101] {
                assert_layouts_agree(removed, usl, None);
            }
        }
        // A node outage through `split_filtered`: a relay with ISLs and
        // USLs, an endpoint of the first template entry, and a user.
        for down in [NodeId(4), NodeId(1), NodeId(SATS)] {
            assert_layouts_agree(0, all_usl, Some(down));
            assert_layouts_agree(block_of_3, all_usl, Some(down));
        }
    }

    #[test]
    #[should_panic(expected = "edge id out of range")]
    fn split_rejects_an_out_of_range_edge_id() {
        let (split, _) = both_layouts(0, 0b11111, None);
        let _ = split.capacity_mbps(EdgeId(split.num_edges() as u32));
    }

    proptest! {
        #[test]
        fn prop_split_accessors_match_dense(
            removed in 0u32..64,
            usl in 0u32..32,
            down in 0u32..18,
        ) {
            // Half of the cases take a node down (satellite or user).
            let down = (down < SATS + USERS as u32).then_some(NodeId(down));
            assert_layouts_agree(removed, usl, down);
        }
    }
}
