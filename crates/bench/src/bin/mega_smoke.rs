//! CI smoke test for the mega-constellation topology path: builds
//! reduced-horizon multi-shell series (the two-shell ≥10k-satellite
//! `mega` preset and the three-shell ≥30k-satellite `mega3` preset) with
//! the delta compiler, verifies each is bit-identical to the dense full
//! rebuild, and asserts the shared-structure memory contract (series
//! heap ceiling and the ≥5× per-slot marginal reduction over the dense
//! representation).
//!
//! ```text
//! cargo run -p sb-bench --release --bin mega_smoke
//! ```
//!
//! Exits non-zero (panics) on any violated contract, so CI can run it
//! bare. The full-horizon measured numbers are `topo_mega`'s in
//! `BENCH_benchmark/` (see `crates/benchmark`); this bin is the gate.

use sb_geo::coords::Geodetic;
use sb_orbit::walker::WalkerConstellation;
use sb_sim::ScenarioConfig;
use sb_topology::{NetworkNodes, TopologySeries};
use std::time::Instant;

/// Reduced horizon: enough slots to exercise base + delta + parallel
/// range splits, short enough for a CI smoke job.
const SMOKE_SLOTS: usize = 4;

/// Ceiling on the retained two-shell series (measured: `topo_mega`'s
/// `topology.series_heap_mib`); the ≥5× marginal ratio below is the
/// sharper check against per-slot cloning.
const MEGA_HEAP_CEILING_BYTES: usize = 256 << 20;

/// The three-shell preset carries ~3× the satellites; the base snapshot
/// scales linearly with them, so its ceiling does too.
const MEGA3_HEAP_CEILING_BYTES: usize = 768 << 20;

/// One preset's smoke pass: delta build == full rebuild, heap ceiling,
/// ≥5× marginal ratio.
fn smoke(scenario: &ScenarioConfig, min_sats: usize, min_shells: usize, heap_ceiling: usize) {
    let name = &scenario.name;
    let mut shells = vec![WalkerConstellation::delta(
        scenario.planes,
        scenario.sats_per_plane,
        scenario.phasing,
        scenario.altitude_m,
        scenario.inclination_deg.to_radians(),
    )];
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
    nodes.add_ground_site(Geodetic::from_degrees(35.8, -78.6, 0.0));
    nodes.add_ground_site(Geodetic::from_degrees(48.9, 2.3, 0.0));
    for eo in sb_orbit::eo::synthetic_fleet(4) {
        nodes.add_space_user(eo);
    }
    assert!(
        nodes.num_satellites() >= min_sats,
        "{name} preset must be ≥{min_sats} satellites, got {}",
        nodes.num_satellites()
    );
    assert!(shells.len() >= min_shells, "{name} preset must be ≥{min_shells} shells");

    eprintln!(
        "{name}-smoke: {} satellites, {} shells, {SMOKE_SLOTS} slots…",
        nodes.num_satellites(),
        shells.len()
    );
    let t = Instant::now();
    let delta = TopologySeries::build_par(&nodes, &scenario.topology, SMOKE_SLOTS, 60.0, 4);
    let delta_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let full = TopologySeries::build_full(&nodes, &scenario.topology, SMOKE_SLOTS, 60.0);
    let full_s = t.elapsed().as_secs_f64();

    assert!(delta == full, "delta-compiled {name} series diverged from the full rebuild");

    let heap = delta.heap_bytes();
    assert!(
        heap <= heap_ceiling,
        "{name} series heap {heap} B exceeds the {heap_ceiling} B ceiling"
    );
    let marginal: usize =
        delta.snapshots().iter().map(|s| s.marginal_heap_bytes()).sum::<usize>() / SMOKE_SLOTS;
    let dense: usize =
        full.snapshots().iter().map(|s| s.marginal_heap_bytes()).sum::<usize>() / SMOKE_SLOTS;
    let ratio = dense as f64 / marginal.max(1) as f64;
    assert!(ratio >= 5.0, "{name} per-slot marginal ratio {ratio:.2}x is below the required 5x");

    println!(
        "{name}-smoke OK: build {delta_s:.2}s (full rebuild {full_s:.2}s), heap {:.1} MiB \
         (ceiling {} MiB), per-slot marginal {:.1} KiB vs dense {:.1} KiB ({ratio:.1}x)",
        heap as f64 / (1 << 20) as f64,
        heap_ceiling >> 20,
        marginal as f64 / 1024.0,
        dense as f64 / 1024.0,
    );
}

fn main() {
    smoke(&ScenarioConfig::mega(), 10_000, 2, MEGA_HEAP_CEILING_BYTES);
    smoke(&ScenarioConfig::mega3(), 30_000, 3, MEGA3_HEAP_CEILING_BYTES);
}
