//! The benchmark keeps its contract with `BENCHMARK.json`: the file names
//! this crate's workloads and well-formed metrics, and every workload
//! emits every metric it names, finite and with the named unit.

mod common;

use sb_benchmark::metrics::valid_name;
use sb_benchmark::spec::Spec;
use sb_benchmark::workloads::{self, Workload};

#[test]
fn benchmark_json_names_the_workloads_and_well_formed_metrics() {
    let spec = Spec::committed();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(spec.workloads, names);
    assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);
    assert!(spec.end_to_end.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    let mut all: Vec<&str> =
        spec.end_to_end.iter().chain(&spec.per_layer).map(|m| m.name.as_str()).collect();
    assert!(all.iter().all(|name| valid_name(name)), "{all:?}");
    all.sort_unstable();
    let before = all.len();
    all.dedup();
    assert_eq!(all.len(), before, "a metric name is used twice");
}

fn emits_every_metric(workload: Workload) {
    let spec = Spec::committed();
    let tag = workload.name();

    let untraced = workloads::run(&common::tiny(workload, false, tag));
    assert_eq!(untraced.failures, Vec::<String>::new(), "{tag}: untraced run failed its checks");
    assert!(untraced.attempted >= 1 && untraced.failed == 0, "{tag}");
    for metric in &spec.end_to_end {
        let found = untraced.e2e.iter().find(|m| m.name == metric.name);
        let found = found.unwrap_or_else(|| panic!("{tag}: no end-to-end metric {}", metric.name));
        assert!(found.value.is_finite() && found.value != 0.0, "{tag}: {found:?}");
        assert_eq!(found.unit, metric.unit, "{tag}: {}", metric.name);
    }

    let options = common::tiny(workload, true, tag);
    let traced = workloads::run(&options);
    assert_eq!(traced.failures, Vec::<String>::new(), "{tag}: traced run failed its checks");
    assert_eq!(traced.digest, untraced.digest, "{tag}: tracing changed the result digest");
    assert!(!traced.threads.is_empty() && !traced.threads[0].1.is_empty(), "{tag}: no spans");
    for metric in &spec.per_layer {
        // Set by the binary, from the spans, when it prints the self times.
        if metric.name == "trace.self_time_gap_frac" {
            continue;
        }
        // The fleet point needs the worker binary, which `cargo test -p
        // sb-benchmark` alone does not build.
        if metric.name.starts_with("fleet.") && options.fleet_worker.is_none() {
            eprintln!("{tag}: sb-fleet-worker is not built; {} not checked", metric.name);
            continue;
        }
        let found = traced.layers.iter().find(|m| m.name == metric.name);
        let found = found.unwrap_or_else(|| panic!("{tag}: no per-layer metric {}", metric.name));
        assert!(found.value.is_finite(), "{tag}: {found:?}");
        assert_eq!(found.unit, metric.unit, "{tag}: {}", metric.name);
    }
    for metric in traced.e2e.iter().chain(&traced.layers).chain(&traced.notes) {
        assert!(valid_name(&metric.name), "{tag}: bad metric name {:?}", metric.name);
    }
    let _ = std::fs::remove_dir_all(&options.dir);
}

#[test]
fn sweep_paper12_emits_every_metric() {
    emits_every_metric(Workload::SweepPaper12);
}

#[test]
fn topo_mega_emits_every_metric() {
    emits_every_metric(Workload::TopoMega);
}

#[test]
fn serve_open_emits_every_metric() {
    emits_every_metric(Workload::ServeOpen);
}

#[test]
fn serve_durable_emits_every_metric() {
    emits_every_metric(Workload::ServeDurable);
}
