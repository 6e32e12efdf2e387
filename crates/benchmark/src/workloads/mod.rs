//! The four workloads and what they share: options, the outcome every
//! one of them returns, and the end-to-end metric assembly.
//!
//! Every workload has the same shape — set up (several times, for a
//! median), run deterministic units of work until `--seconds` is used up,
//! then verify — and reports the same eight end-to-end metrics, with the
//! same definitions:
//!
//! * a **request** is *due* at the moment it is handed to the system (the
//!   scheduled send time in the open loop), and *decided* when its answer
//!   is back; `ack_p50_us` / `ack_tail_us` are that latency, `good_frac`
//!   the share of requests issued that got a real decision within
//!   [`crate::bed::ACK_LIMIT_US`] (a second on `topo_mega`);
//! * `decisions_per_s` is decisions over the wall time the system was
//!   given to make them;
//! * `wall_s` is the median wall time of the workload's unit of work;
//! * `recover_s` is the median time to bring back, from its durable or
//!   encoded form, the state a unit of work ended in.

pub mod serve_common;
pub mod serve_durable;
pub mod serve_open;
pub mod sweep;
pub mod topo;

use crate::bed::{ack_limit_us, tail_pct, Bed, Scale};
use crate::host::peak_rss_mib;
use crate::metrics::{median, tail, tail_at, Metric, Tail, TAIL_MIN_BEYOND};
use crate::probe;
use crate::trace::{Open, Span, Tracer};
use sb_cear::{global_spt_stats, reset_global_spt_stats, SptStats};
use std::path::PathBuf;
use std::time::Instant;

/// The workloads of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Ten fig-6 cells at the paper's constellation, twelve slots each.
    SweepPaper12,
    /// The cold start of one mega-scale cell, shipped and local.
    TopoMega,
    /// The online service, open loop then burst, WAL in memory.
    ServeOpen,
    /// The online service, closed loop, WAL and checkpoints on disk.
    ServeDurable,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::SweepPaper12, Workload::TopoMega, Workload::ServeOpen, Workload::ServeDurable];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepPaper12 => "sweep_paper12",
            Workload::TopoMega => "topo_mega",
            Workload::ServeOpen => "serve_open",
            Workload::ServeDurable => "serve_durable",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the timed phase may run. A traced run does the same
    /// work as an untraced one, so the two can be compared; its per-layer
    /// probe comes on top.
    pub seconds: f64,
    /// Record spans and run the per-layer probe.
    pub trace: bool,
    /// Scratch directory (WAL, checkpoints, fleet results, trace file).
    pub dir: PathBuf,
    /// Full size or test miniature.
    pub scale: Scale,
    /// The `sb-fleet-worker` binary for the fleet point; the benchmark
    /// binary insists on one, tests pass `None` when it is not built.
    pub fleet_worker: Option<PathBuf>,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (cells, repetitions or requests sent).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// FNV digest of the outputs; equal for equal code and seed.
    pub digest: u64,
    /// The end-to-end metrics (every run).
    pub e2e: Vec<Metric>,
    /// The per-layer metrics (traced runs).
    pub layers: Vec<Metric>,
    /// Workload-specific numbers for the report, outside `BENCHMARK.json`.
    pub notes: Vec<Metric>,
    /// Why the outputs were not correct; empty when they were.
    pub failures: Vec<String>,
    /// Recorded spans per thread (traced runs).
    pub threads: Vec<(u32, Vec<Span>)>,
    /// Wall time of the timed phase by an `Instant` pair of its own —
    /// what the main thread's self times must add up to.
    pub timed_wall_s: f64,
}

impl Outcome {
    /// Notes that the outputs are wrong.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    /// Fails the run unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(why());
        }
    }

    /// Inserts or replaces a per-layer metric by name.
    pub fn set_layer(&mut self, metric: Metric) {
        match self.layers.iter_mut().find(|m| m.name == metric.name) {
            Some(slot) => *slot = metric,
            None => self.layers.push(metric),
        }
    }
}

/// The raw material of the eight end-to-end metrics.
#[derive(Debug)]
pub struct EndToEnd {
    /// One entry per set-up repetition, seconds.
    pub setups_s: Vec<f64>,
    /// One entry per unit of work, seconds.
    pub units_s: Vec<f64>,
    /// Decisions made in the window `decision_window_s`.
    pub decisions: u64,
    /// Wall time the system had for those decisions, seconds.
    pub decision_window_s: f64,
    /// Due-time-to-decision latency of every request that got a real
    /// decision (admit or algorithmic reject), microseconds.
    pub latencies_us: Vec<f64>,
    /// Requests issued in the phase the latencies come from.
    pub issued: u64,
    /// `VmHWM` when the timed phase ended.
    pub peak_rss_mib: f64,
    /// The latency limit of `good_frac`, microseconds.
    pub ack_limit_us: f64,
    /// One entry per timed recovery, seconds.
    pub recoveries_s: Vec<f64>,
    /// The percentile `ack_tail_us` reports: frozen with the workload's
    /// sizes at full scale, chosen by [`tail`] from the sample in a test
    /// miniature (`None`).
    pub tail_pct: Option<f64>,
}

impl EndToEnd {
    /// Nothing measured yet, with the latency limit and tail percentile
    /// frozen for the run's workload.
    pub fn new(options: &Options) -> EndToEnd {
        EndToEnd {
            setups_s: Vec::new(),
            units_s: Vec::new(),
            decisions: 0,
            decision_window_s: 0.0,
            latencies_us: Vec::new(),
            issued: 0,
            peak_rss_mib: f64::NAN,
            ack_limit_us: ack_limit_us(options.workload),
            recoveries_s: Vec::new(),
            tail_pct: tail_pct(options.workload, options.scale),
        }
    }

    /// The tail percentile of the latencies.
    pub fn ack_tail(&self) -> Tail {
        match self.tail_pct {
            Some(pct) => tail_at(&self.latencies_us, pct),
            None => tail(&self.latencies_us),
        }
    }

    /// Writes the eight metrics, in `BENCHMARK.json` order, and what the
    /// tail rests on into `outcome`. A frozen tail percentile the sample
    /// no longer supports fails the run: reporting a lower one under the
    /// same name would compare two different things.
    pub fn report(&self, outcome: &mut Outcome) {
        let good = self.latencies_us.iter().filter(|&&us| us <= self.ack_limit_us).count();
        let t = self.ack_tail();
        outcome.check(self.tail_pct.is_none() || t.beyond >= TAIL_MIN_BEYOND, || {
            format!("p{} of {} latencies has {} samples beyond it", t.pct, t.samples, t.beyond)
        });
        outcome.e2e = vec![
            Metric::new("setup_s", median(&self.setups_s), "s"),
            Metric::new("wall_s", median(&self.units_s), "s"),
            Metric::new("peak_rss_mib", self.peak_rss_mib, "MiB"),
            Metric::new("decisions_per_s", self.decisions as f64 / self.decision_window_s, "1/s"),
            Metric::new("ack_p50_us", median(&self.latencies_us), "us"),
            Metric::new("ack_tail_us", t.value, "us"),
            Metric::new("good_frac", good as f64 / self.issued as f64, "ratio"),
            Metric::new("recover_s", median(&self.recoveries_s), "s"),
        ];
        outcome.notes.extend([
            Metric::new("ack_tail_pct", t.pct, "%"),
            Metric::new("ack_samples", t.samples as f64, "count"),
            Metric::new("ack_samples_beyond_tail", t.beyond as f64, "count"),
        ]);
    }
}

/// A workload's timed phase: the root span, the clock the `--seconds`
/// budget runs on, and the process-global SPT counters, which are reset
/// when it begins and read when it ends.
pub struct TimedPhase {
    /// Records spans when the run is traced.
    pub tracer: Tracer,
    root: Open,
    started: Instant,
}

impl TimedPhase {
    /// Begins the phase: everything before this call is set-up.
    pub fn begin(options: &Options) -> TimedPhase {
        reset_global_spt_stats();
        let started = Instant::now();
        let tracer = Tracer::new(options.trace, started, 0);
        let root = tracer.begin("bench.run", 0);
        TimedPhase { tracer, root, started }
    }

    /// Seconds since the phase began.
    pub fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Ends the phase, taking `peak_rss_mib` as it stands now.
    pub fn end(self, e2e: &mut EndToEnd, outcome: &mut Outcome) -> Traced {
        self.tracer.end(self.root);
        outcome.timed_wall_s = self.elapsed_s();
        e2e.peak_rss_mib = peak_rss_mib();
        Traced { tracer: self.tracer, spt: global_spt_stats() }
    }
}

/// A finished timed phase.
pub struct Traced {
    /// The phase's spans.
    pub tracer: Tracer,
    spt: SptStats,
}

impl Traced {
    /// In a traced run, fills in the per-layer metrics — the span counts
    /// and shares, the probe on `bed`, and the timed phase's own SPT
    /// counters in place of the probe's 24-request pass — and keeps the
    /// spans. Does nothing in an untraced run.
    pub fn into_layers(self, outcome: &mut Outcome, bed: &Bed, options: &Options) {
        if !options.trace {
            return;
        }
        let (tid, spans) = self.tracer.finish();
        outcome.layers = probe::span_layers(&spans, outcome.timed_wall_s);
        outcome.layers.extend(probe::run(bed, options));
        probe::spt_metrics(&self.spt).into_iter().for_each(|m| outcome.set_layer(m));
        outcome.threads.insert(0, (tid, spans));
    }
}

/// Runs the workload `options` names.
pub fn run(options: &Options) -> Outcome {
    match options.workload {
        Workload::SweepPaper12 => sweep::run(options),
        Workload::TopoMega => topo::run(options),
        Workload::ServeOpen => serve_open::run(options),
        Workload::ServeDurable => serve_durable::run(options),
    }
}

/// Whether another unit of work that took `last_s` still fits: units run
/// until `--seconds` is used up, and at least once.
pub fn fits(elapsed_s: f64, last_s: f64, budget_s: f64) -> bool {
    elapsed_s + last_s <= budget_s
}
