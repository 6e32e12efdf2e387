//! `BENCHMARK.json`, the one place that names the workloads, the metrics,
//! their units and directions, the regression bounds and `run_seconds`.
//!
//! The file at the repository root is compiled into the binary and parsed
//! when a run starts: the run reports exactly the metrics it names, in its
//! order, and `--check` applies its bounds.

/// The text of the repository's `BENCHMARK.json` at build time.
const COMMITTED: &str = include_str!("../../../BENCHMARK.json");

/// Whether more or less of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Times, memory.
    Lower,
    /// Rates, fractions of good outcomes.
    Higher,
}

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// The metric's name.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// Its direction.
    pub better: Better,
    /// Share of the parent's median it may worsen by (end to end only).
    pub bound: Option<f64>,
}

/// `BENCHMARK.json` as the benchmark uses it.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Seconds one run measures.
    pub run_seconds: f64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics with their bounds.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricSpec>,
}

fn metric_specs(value: &serde_json::Value, key: &str) -> Result<Vec<MetricSpec>, String> {
    let list = value.get(key).and_then(|v| v.as_array()).ok_or(format!("`{key}` is not a list"))?;
    list.iter()
        .map(|entry| {
            let text = |field: &str| {
                entry
                    .get(field)
                    .and_then(|v| v.as_str())
                    .map(str::to_owned)
                    .ok_or(format!("a `{key}` entry lacks `{field}`"))
            };
            let better = match text("better")?.as_str() {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("`better` is `{other}`, not lower or higher")),
            };
            Ok(MetricSpec {
                name: text("name")?,
                unit: text("unit")?,
                better,
                bound: entry.get("bound").and_then(|v| v.as_f64()),
            })
        })
        .collect()
}

impl Spec {
    /// The `BENCHMARK.json` this binary was built with.
    ///
    /// # Panics
    ///
    /// Panics when the committed file does not parse — a broken build, not
    /// a broken run.
    pub fn committed() -> Spec {
        Spec::parse(COMMITTED).expect("the committed BENCHMARK.json parses")
    }

    /// Parses the text of a `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// A message naming what is missing or malformed.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let value: serde_json::Value =
            serde_json::from_str(text).map_err(|e| format!("not JSON: {e}"))?;
        let workloads = value
            .get("workloads")
            .and_then(|v| v.as_array())
            .ok_or("`workloads` is not a list")?
            .iter()
            .map(|w| w.get("name").and_then(|n| n.as_str()).map(str::to_owned))
            .collect::<Option<Vec<_>>>()
            .ok_or("a workload lacks `name`")?;
        Ok(Spec {
            run_seconds: value
                .get("run_seconds")
                .and_then(|v| v.as_f64())
                .ok_or("`run_seconds` is not a number")?,
            workloads,
            end_to_end: metric_specs(&value, "end_to_end")?,
            per_layer: metric_specs(&value, "per_layer")?,
        })
    }
}
