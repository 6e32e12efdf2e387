//! In-memory spans around the calls into each layer.
//!
//! The benchmark measures every layer **from outside**: a span brackets a
//! call into a crate's public function, recorded from this crate's own
//! code. Spans stay in memory and are written as Chrome-trace JSON when
//! the run ends. A span's *self time* is its duration minus the part its
//! child spans cover, so the self times of one thread's tree sum to the
//! root span's wall clock exactly.
//!
//! End-to-end metrics always come from a run with tracing off, where every
//! call here returns at the first branch.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.operation`; the part before the first dot is the layer.
    pub name: &'static str,
    /// The request, cell or repetition the span belongs to.
    pub id: u64,
    /// Index of the enclosing span on the same thread, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    /// Indices of the spans currently open, innermost last.
    stack: Vec<usize>,
}

/// A single thread's span recorder. Interior mutability lets a
/// [`sb_cear::RoutingAlgorithm`] wrapper deep inside an engine call record
/// into the same tree as the caller that opened the enclosing span.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    tid: u32,
    inner: RefCell<Inner>,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Open(Option<usize>);

impl Tracer {
    /// A recorder for thread `tid` measuring from `epoch`; records nothing
    /// unless `enabled`.
    pub fn new(enabled: bool, epoch: Instant, tid: u32) -> Tracer {
        Tracer { enabled, epoch, tid, inner: RefCell::new(Inner::default()) }
    }

    /// A recorder that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now(), 0)
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The instant all span times are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&self, name: &'static str, id: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.ns(Instant::now());
        let mut inner = self.inner.borrow_mut();
        let index = inner.spans.len();
        let parent = inner.stack.last().copied();
        inner.spans.push(Span { name, id, parent, start_ns, end_ns: start_ns });
        inner.stack.push(index);
        Open(Some(index))
    }

    /// Closes a span opened by [`Tracer::begin`].
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order — a bug in the caller.
    pub fn end(&self, open: Open) {
        let Some(index) = open.0 else { return };
        let end_ns = self.ns(Instant::now());
        let mut inner = self.inner.borrow_mut();
        assert_eq!(inner.stack.pop(), Some(index), "spans must nest");
        inner.spans[index].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, id);
        let result = f();
        self.end(open);
        result
    }

    /// Records a finished span from two instants the caller took anyway,
    /// as a child of the innermost open span.
    pub fn record(&self, name: &'static str, id: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        let parent = inner.stack.last().copied();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        inner.spans.push(Span { name, id, parent, start_ns, end_ns });
    }

    /// The spans recorded so far, and this recorder's thread id.
    pub fn finish(self) -> (u32, Vec<Span>) {
        (self.tid, self.inner.into_inner().spans)
    }
}

/// What one `begin`/`end` pair costs, nanoseconds — measured on a scratch
/// recorder so that `spans × cost ÷ wall` bounds the tracing overhead
/// without needing a second, untraced run of the same work.
pub fn span_cost_ns() -> f64 {
    const PAIRS: usize = 20_000;
    let scratch = Tracer::new(true, Instant::now(), 0);
    let root = scratch.begin("bench.calibrate", 0);
    let started = Instant::now();
    for i in 0..PAIRS {
        let open = scratch.begin("bench.calibrate", i as u64);
        scratch.end(open);
    }
    let cost = started.elapsed().as_nanos() as f64 / PAIRS as f64;
    scratch.end(root);
    cost
}

/// Self time per span name and per layer for one thread's spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelfTimes {
    /// Self nanoseconds by full span name.
    pub by_name: BTreeMap<&'static str, u64>,
    /// Self nanoseconds by layer (the name up to its first dot).
    pub by_layer: BTreeMap<&'static str, u64>,
    /// Span count by full span name.
    pub counts: BTreeMap<&'static str, u64>,
    /// Total duration of the root spans (those without a parent).
    pub root_ns: u64,
}

impl SelfTimes {
    /// Sum of all self times; equals `root_ns` when children nest inside
    /// their parents, which [`Tracer`] guarantees for `begin`/`end` spans.
    pub fn total_ns(&self) -> u64 {
        self.by_name.values().sum()
    }

    /// Self nanoseconds of `layer`.
    pub fn layer_ns(&self, layer: &str) -> u64 {
        self.by_layer.get(layer).copied().unwrap_or(0)
    }

    /// Self nanoseconds of the span named `name`.
    pub fn name_ns(&self, name: &str) -> u64 {
        self.by_name.get(name).copied().unwrap_or(0)
    }
}

/// The layer of a span name: `core.quote` → `core`.
pub fn layer_of(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

/// Computes self times: each span's duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> SelfTimes {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.dur_ns();
        }
    }
    let mut out = SelfTimes::default();
    for (span, children) in spans.iter().zip(&child_ns) {
        let own = span.dur_ns().saturating_sub(*children);
        *out.by_name.entry(span.name).or_default() += own;
        *out.by_layer.entry(layer_of(span.name)).or_default() += own;
        *out.counts.entry(span.name).or_default() += 1;
        if span.parent.is_none() {
            out.root_ns += span.dur_ns();
        }
    }
    out
}

/// Writes the threads' spans as Chrome-trace JSON (`chrome://tracing`,
/// Perfetto): complete events, microsecond timestamps, one `tid` each.
///
/// # Errors
///
/// The underlying [`std::io::Error`] from creating or writing the file.
pub fn write_chrome_trace(path: &Path, threads: &[(u32, Vec<Span>)]) -> std::io::Result<()> {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for (tid, spans) in threads {
        for (index, span) in spans.iter().enumerate() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"span\":{index},\"parent\":{}}}}}",
                span.name,
                layer_of(span.name),
                span.start_ns as f64 / 1e3,
                span.dur_ns() as f64 / 1e3,
                span.id,
                span.parent.map_or(-1, |p| p as i64),
            );
        }
    }
    out.push_str("\n]}\n");
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root() {
        let tracer = Tracer::new(true, Instant::now(), 0);
        tracer.span("bench.run", 0, || {
            tracer.span("sim.step_slot", 1, || {
                tracer.span("core.process", 2, || std::hint::black_box(3 + 4));
                let t = Instant::now();
                tracer.record("core.commit", 2, t, Instant::now());
            });
            tracer.span("demand.generate", 1, || ());
        });
        let (_, spans) = tracer.finish();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(1), "record() nests under the open span");
        let times = self_times(&spans);
        assert_eq!(times.total_ns(), times.root_ns);
        assert_eq!(times.counts["core.process"], 1);
        assert!(times.by_layer.contains_key("core") && times.by_layer.contains_key("sim"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::off();
        let open = tracer.begin("core.quote", 0);
        tracer.end(open);
        tracer.record("core.commit", 0, Instant::now(), Instant::now());
        assert!(tracer.finish().1.is_empty());
    }
}
