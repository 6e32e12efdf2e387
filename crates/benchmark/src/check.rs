//! `--check A B`: is result set `B` worse than result set `A` by more
//! than the bounds in `BENCHMARK.json`?
//!
//! A result set is a directory of `<workload>.s<seed>.json` files, each
//! holding the last line an untraced run printed (`run.sh --all` writes
//! them). Per workload and end-to-end metric the medians of the two sets
//! are compared; the check says nothing about gains — claiming one takes
//! the alternating pairs of the README — it only refuses regressions.

use crate::metrics::median;
use crate::spec::{Better, Spec};
use std::collections::BTreeMap;
use std::path::Path;

/// Metric name → the values of every run of one workload in a set.
type Values = BTreeMap<String, Vec<f64>>;

/// Reads every `<workload>.s<digits>.json` of `dir`.
fn load_set(dir: &Path, workload: &str) -> Result<Values, String> {
    let mut values = Values::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        let is_run = name
            .strip_prefix(workload)
            .and_then(|rest| rest.strip_prefix(".s"))
            .and_then(|rest| rest.strip_suffix(".json"))
            .is_some_and(|seed| !seed.is_empty() && seed.bytes().all(|b| b.is_ascii_digit()));
        if !is_run {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let line = text.lines().last().unwrap_or_default();
        let value: serde_json::Value =
            serde_json::from_str(line).map_err(|e| format!("{}: {e}", path.display()))?;
        if value.get("correct").and_then(|c| c.as_bool()) != Some(true) {
            return Err(format!("{}: the run's outputs were not correct", path.display()));
        }
        let metrics = value
            .get("metrics")
            .and_then(|m| m.as_object())
            .ok_or(format!("{}: no `metrics` object", path.display()))?;
        for (metric, entry) in metrics.iter() {
            let v = entry
                .get("value")
                .and_then(|v| v.as_f64())
                .ok_or(format!("{}: `{metric}` has no numeric value", path.display()))?;
            values.entry(metric.clone()).or_default().push(v);
        }
    }
    Ok(values)
}

/// One line of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The workload.
    pub workload: String,
    /// The end-to-end metric.
    pub metric: String,
    /// Median in set A.
    pub a: f64,
    /// Median in set B.
    pub b: f64,
    /// By what share of A the metric got worse (negative: better).
    pub worse_by: f64,
    /// The bound it may worsen by.
    pub bound: f64,
}

impl Row {
    /// Whether B is outside the bound.
    pub fn regressed(&self) -> bool {
        self.worse_by > self.bound
    }
}

/// Compares set `b` against set `a` under `spec`.
///
/// # Errors
///
/// A message when a set is unreadable or lacks a workload or metric.
pub fn compare(spec: &Spec, a: &Path, b: &Path) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for workload in &spec.workloads {
        let (set_a, set_b) = (load_set(a, workload)?, load_set(b, workload)?);
        for metric in &spec.end_to_end {
            let side = |set: &Values, dir: &Path| {
                set.get(&metric.name).map(|v| median(v)).ok_or(format!(
                    "{}: no `{}` for workload `{workload}`",
                    dir.display(),
                    metric.name
                ))
            };
            let (va, vb) = (side(&set_a, a)?, side(&set_b, b)?);
            let worse_by = match metric.better {
                Better::Lower => (vb - va) / va,
                Better::Higher => (va - vb) / va,
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.name.clone(),
                a: va,
                b: vb,
                worse_by,
                bound: metric.bound.ok_or(format!("`{}` has no bound", metric.name))?,
            });
        }
    }
    Ok(rows)
}

/// Runs the check and prints the table; `Ok(true)` when nothing regressed.
///
/// # Errors
///
/// As for [`compare`].
pub fn run(spec: &Spec, a: &Path, b: &Path) -> Result<bool, String> {
    let rows = compare(spec, a, b)?;
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for row in &rows {
        println!(
            "{:<16} {:<18} {:>14.4} {:>14.4} {:>8.1}% {:>6.1}%{}",
            row.workload,
            row.metric,
            row.a,
            row.b,
            row.worse_by * 100.0,
            row.bound * 100.0,
            if row.regressed() { "  REGRESSED" } else { "" }
        );
    }
    Ok(rows.iter().all(|row| !row.regressed()))
}
