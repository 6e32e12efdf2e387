//! Metric values, order statistics and the result digest.
//!
//! Every timing in this crate comes from the benchmark's own [`Instant`]s
//! and ends up here as a sample vector; what is reported is a median or a
//! tail percentile chosen by [`tail`], never a mean (one slow outlier on a
//! shared two-core host would own it) and never
//! `RunMetrics::processing_ms` (which truncates sub-millisecond slots to
//! zero).
//!
//! [`Instant`]: std::time::Instant

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name, matching `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// The unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.into(), value, unit }
    }
}

/// The median of `values` (mean of the two middle elements for an even
/// count); `NaN` when empty, so a missing measurement fails the
/// finiteness check instead of reading as zero.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `pct` (0–100) of an already sorted sample.
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((sorted.len() as f64 * pct / 100.0).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The percentiles [`tail`] chooses from, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile for it to be reported: with
/// fewer, the "percentile" is a handful of outliers, not a property of
/// the system.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail latency: which percentile was reportable, its value, and how
/// many samples it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile chosen from [`TAIL_LADDER`].
    pub pct: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// The sample count.
    pub samples: usize,
    /// Samples strictly beyond the chosen rank.
    pub beyond: usize,
}

/// The tail of `values` at the fixed percentile `pct`: nearest rank, or
/// the median's own definition at 50, so that a tail never reads below
/// the median it fell back to.
pub fn tail_at(values: &[f64], pct: f64) -> Tail {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((n as f64 * pct / 100.0).ceil() as usize).clamp(1, n.max(1));
    let value = if pct == 50.0 { median(&sorted) } else { percentile_sorted(&sorted, pct) };
    Tail { pct, value, samples: n, beyond: n.saturating_sub(rank) }
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it; the median when even p75 has
/// fewer (the count is then in `beyond` for the reader to judge).
pub fn tail(values: &[f64]) -> Tail {
    TAIL_LADDER
        .into_iter()
        .map(|pct| tail_at(values, pct))
        .find(|t| t.beyond >= TAIL_MIN_BEYOND || t.pct == 50.0)
        .expect("the ladder ends at the median")
}

/// Incremental FNV-1a over `u64` words — the `result_digest`.
///
/// The same construction as `sb_wire::checksum`, fed word by word so a
/// decision stream can be digested without first serializing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in, byte by byte, little end first.
    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a float in by its bits, so `-0.0` and `0.0` differ.
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Whether `name` is a legal metric name: `[A-Za-z0-9][A-Za-z0-9_.-]*`,
/// at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of each
/// value (Rust prints the shortest text that reads back to the same
/// float). Non-finite values are written as `null`, which the caller has
/// already turned into a failed run.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        if m.value.is_finite() {
            let _ =
                write!(out, "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit);
        } else {
            let _ = write!(out, "\"{}\": {{\"value\": null, \"unit\": \"{}\"}}", m.name, m.unit);
        }
    }
    out.push('}');
    out
}

/// Nanoseconds as `f64` microseconds.
pub fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn digest_matches_the_wire_checksum() {
        let mut d = Digest::default();
        d.word(7);
        d.word(u64::MAX);
        let mut bytes = 7u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(d.value(), sb_wire::checksum(&bytes));
    }

    #[test]
    fn names_follow_the_contract() {
        assert!(valid_name("core.process_us.CEAR"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
    }
}
