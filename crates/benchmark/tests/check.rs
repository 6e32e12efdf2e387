//! `--check A B`: medians of two result sets compared against the bounds,
//! in the direction each metric improves.

use sb_benchmark::check::compare;
use sb_benchmark::spec::Spec;
use std::path::{Path, PathBuf};

/// An empty directory of this test's own under the build's `target/tmp`.
fn fresh(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("sb-benchmark-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

const SPEC: &str = r#"{
  "run_seconds": 1,
  "workloads": [{"name": "w", "why": "test"}],
  "end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}
  ],
  "per_layer": []
}"#;

fn write_run(dir: &Path, seed: u32, correct: bool, wall_s: f64, rate: f64) {
    let line = format!(
        "a report line the check must skip\n{{\"correct\": {correct}, \"attempted\": 1, \
         \"failed\": 0, \"metrics\": {{\"wall_s\": {{\"value\": {wall_s}, \"unit\": \"s\"}}, \
         \"rate\": {{\"value\": {rate}, \"unit\": \"1/s\"}}}}}}\n"
    );
    std::fs::write(dir.join(format!("w.s{seed}.json")), line).expect("result file");
}

#[test]
fn medians_are_compared_against_the_bounds_in_each_metric_s_direction() {
    let spec = Spec::parse(SPEC).expect("the test spec parses");
    let (a, b) = (fresh("check-a"), fresh("check-b"));
    for (seed, wall_s) in [(1, 1.0), (2, 2.0), (3, 9.0)] {
        write_run(&a, seed, true, wall_s, 100.0);
    }
    // Median wall 2.1 (+5 %, inside the bound); median rate 85 (-15 %, outside).
    for (seed, wall_s, rate) in [(1, 2.1, 85.0), (2, 0.5, 200.0), (3, 50.0, 10.0)] {
        write_run(&b, seed, true, wall_s, rate);
    }
    // Files that are not `<workload>.s<digits>.json` are not runs.
    std::fs::write(b.join("w.s1.layers.json"), "{}").expect("stray file");
    std::fs::write(b.join("w2.s1.json"), "{}").expect("stray file");

    let rows = compare(&spec, &a, &b).expect("both sets load");
    assert_eq!(rows.len(), 2);
    assert_eq!((rows[0].metric.as_str(), rows[0].a, rows[0].b), ("wall_s", 2.0, 2.1));
    assert!((rows[0].worse_by - 0.05).abs() < 1e-12 && !rows[0].regressed(), "{:?}", rows[0]);
    assert_eq!((rows[1].metric.as_str(), rows[1].a, rows[1].b), ("rate", 100.0, 85.0));
    assert!((rows[1].worse_by - 0.15).abs() < 1e-12 && rows[1].regressed(), "{:?}", rows[1]);

    // The other way round the rate improved and the wall got 5 % better.
    assert!(compare(&spec, &b, &a).expect("both sets load").iter().all(|row| !row.regressed()));

    // A run whose outputs were wrong poisons its set; an empty set has no metric.
    write_run(&b, 4, false, 1.0, 100.0);
    assert!(compare(&spec, &a, &b).unwrap_err().contains("not correct"));
    let empty = fresh("check-empty");
    assert!(compare(&spec, &a, &empty).unwrap_err().contains("no `wall_s`"));
    for dir in [a, b, empty] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
