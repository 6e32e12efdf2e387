//! Helpers shared by the integration tests.

use sb_benchmark::bed::Scale;
use sb_benchmark::workloads::{Options, Workload};
use std::path::PathBuf;

/// A scratch directory of this test's own, under the build's `target/tmp`
/// (tests run in parallel and must not share files).
pub fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("sb-benchmark-{tag}"));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// `sb-fleet-worker` next to the test binaries' directory, when the build
/// produced it (`cargo test -p sb-benchmark -p sb-fleet`, or `--workspace`).
pub fn fleet_worker() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let worker = exe.parent()?.parent()?.join("sb-fleet-worker");
    worker.is_file().then_some(worker)
}

/// Options for a miniature run of `workload`.
pub fn tiny(workload: Workload, trace: bool, tag: &str) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 0.4,
        trace,
        dir: scratch(tag),
        scale: Scale::Tiny,
        fleet_worker: fleet_worker(),
    }
}
