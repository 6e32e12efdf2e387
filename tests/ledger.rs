//! The committed result set `BENCH_benchmark/` against `BENCHMARK.json`:
//! every workload has an untraced and a traced result, each correct, with
//! no failed operation and exactly the metrics (names and units) the
//! benchmark declares, all measured on one host.

use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn json(path: &str) -> Value {
    serde_json::from_str(read(path).trim()).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Metric name → unit of one `BENCHMARK.json` list.
fn declared(spec: &Value, key: &str) -> BTreeMap<String, String> {
    let list = spec.get(key).and_then(Value::as_array).unwrap_or_else(|| panic!("no `{key}`"));
    list.iter()
        .map(|m| {
            let text = |field: &str| m.get(field).and_then(Value::as_str).expect(field).to_owned();
            (text("name"), text("unit"))
        })
        .collect()
}

/// Metric name → unit of a committed result line, after checking that the
/// run passed its own checks and failed no operation.
fn committed(path: &str) -> BTreeMap<String, String> {
    let result = json(path);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true), "{path}: correct");
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0), "{path}: failed");
    let metrics = result.get("metrics").and_then(Value::as_object).expect("metrics");
    let mut units = BTreeMap::new();
    for (name, entry) in metrics.iter() {
        assert!(
            entry.get("value").and_then(Value::as_f64).is_some(),
            "{path}: {name} has no value"
        );
        let unit = entry.get("unit").and_then(Value::as_str).expect("unit");
        units.insert(name.clone(), unit.to_owned());
    }
    units
}

#[test]
fn committed_result_set_matches_the_benchmark_declaration() {
    let spec = json("BENCHMARK.json");
    let (end_to_end, per_layer) = (declared(&spec, "end_to_end"), declared(&spec, "per_layer"));
    let mut hosts = BTreeSet::new();
    for workload in spec.get("workloads").and_then(Value::as_array).expect("workloads") {
        let w = workload.get("name").and_then(Value::as_str).expect("workload name");
        assert_eq!(committed(&format!("BENCH_benchmark/{w}.s1.json")), end_to_end, "{w}");
        assert_eq!(committed(&format!("BENCH_benchmark/{w}.s1.layers.json")), per_layer, "{w}");
        let log = read(&format!("BENCH_benchmark/{w}.s1.trace0.log"));
        hosts.insert(log.lines().find(|l| l.starts_with("host: ")).expect("host line").to_owned());
    }
    assert_eq!(hosts.len(), 1, "measured on several hosts: {hosts:#?}");
}
