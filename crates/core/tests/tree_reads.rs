//! One settled tree answers every destination: `path_via_tree` keeps only
//! the candidates whose *recorded* user is the destination, so a tree
//! holding several users' candidates must still reproduce the reference
//! search for each of them, bit for bit. Same Walker shells as
//! `search_equivalence.rs`.

use sb_cear::search::{
    min_cost_path_in, path_via_tree, settle_tree_in, EdgeContext, SearchScratch,
};
use sb_geo::coords::Geodetic;
use sb_orbit::walker::WalkerConstellation;
use sb_topology::{NetworkNodes, NodeId, SlotIndex, TopologyConfig, TopologySeries};

/// Settles one tree per `(slot, source)` and reads every other user out of
/// it. Returns how many reads found a path.
fn check_tree_reads(
    planes: usize,
    sats_per_plane: usize,
    phasing: usize,
    sites: &[(f64, f64)],
) -> usize {
    let shell =
        WalkerConstellation::delta(planes, sats_per_plane, phasing, 550e3, 53f64.to_radians());
    let mut nodes = NetworkNodes::from_walker(&shell);
    let users: Vec<NodeId> = sites
        .iter()
        .map(|&(lat, lon)| nodes.add_ground_site(Geodetic::from_degrees(lat, lon, 0.0)))
        .collect();
    let cfg = TopologyConfig { min_elevation_rad: 10f64.to_radians(), ..TopologyConfig::default() };
    let slots = 3;
    let series = TopologySeries::build(&nodes, &cfg, slots, 60.0);
    let mut scratch = SearchScratch::new();
    let mut found = 0;
    // A length weight that also prunes some edges, so candidates the cost
    // model refuses are exercised too.
    let weight =
        |ctx: &EdgeContext<'_>| (ctx.edge_id.0 % 11 != 3).then_some(1.0 + ctx.edge.length_m * 1e-9);
    for s in 0..slots {
        let snap = series.snapshot(SlotIndex(s as u32));
        for &src in &users {
            let tree = settle_tree_in(&mut scratch, snap, src, weight);
            for &(edge, _, user) in &tree.user_edges {
                assert_eq!(snap.edge(edge).dst, user, "recorded user of candidate {edge:?}");
                assert!(snap.kind(user).is_user());
            }
            for &dst in users.iter().filter(|&&d| d != src) {
                let what = format!("{planes}x{sats_per_plane} slot {s} {src:?}->{dst:?}");
                let reference = min_cost_path_in(&mut scratch, snap, src, dst, weight);
                let via_tree = path_via_tree(&tree, snap, src, dst, weight);
                assert_eq!(
                    via_tree.as_ref().map(|p| (&p.nodes, &p.edges, p.cost.to_bits())),
                    reference.as_ref().map(|p| (&p.nodes, &p.edges, p.cost.to_bits())),
                    "{what}"
                );
                found += usize::from(reference.is_some());
            }
        }
    }
    found
}

#[test]
fn one_tree_answers_every_destination_like_the_reference_search() {
    let found = check_tree_reads(8, 8, 1, &[(35.8, -78.6), (48.9, 2.3)])
        + check_tree_reads(10, 10, 3, &[(-33.9, 151.2), (51.5, -0.1), (1.3, 103.8)])
        + check_tree_reads(
            12,
            12,
            5,
            &[(40.7, -74.0), (35.7, 139.7), (34.0, -118.2), (52.5, 13.4)],
        );
    assert!(found > 0, "seeded shells must exercise at least one reachable pair");
}
