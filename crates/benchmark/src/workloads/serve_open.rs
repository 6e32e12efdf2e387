//! `serve_open` — the operator's view of the compute path: queue →
//! `Cear::quote_recording` → read-set revalidation → `try_commit_plan` →
//! WAL encode → ack, with the WAL in memory (`FaultIo`: encode and
//! checksum, no disk).
//!
//! Network, requests and the Poisson arrival trace are pinned
//! ([`PINNED_SEED`]); `--seed` stretches or shrinks every gap of the trace
//! by up to 10 %, so two seeds differ in when the same requests arrive —
//! which is what a queue responds to — without one seed drawing a burst
//! behind a long request and the next not.
//!
//! **Phase A, open loop.** One generator thread submits the requests on a
//! seeded Poisson schedule at the frozen absolute rate
//! [`RATE_OPEN_PER_S`]; one collector thread stamps each ack. Latency
//! counts from the due time, and the generator's lateness is reported.
//! Service defaults are kept (queue 64, degraded 48/16, three attempts),
//! so shedding and degraded mode count as what they are: a shed request
//! is a miss in `good_frac` and a failed operation.
//!
//! **Phase B, burst.** A fresh service over fresh state, with a queue deep
//! enough for all of them, receives the same requests at once;
//! `decisions_per_s` is decisions over drain time and `wall_s` is the
//! drain time. Bursts repeat while they fit `--seconds`.
//!
//! **Loaded leg (traced runs).** A fresh service takes
//! [`LOADED_REQUESTS`] requests at the issue's `rate_open`,
//! [`RATE_LOADED_PER_S`] — the rate at which the worker is ≈ 60 % busy,
//! quotes go stale and the service can tip into requoting every request.
//! What happens there is reported per layer, without a bound
//! (`serve.loaded_*`, `serve.conflict_frac`, `serve.shed_frac`, …); see
//! [`RATE_LOADED_PER_S`] for why no end-to-end metric can sit at that rate.
//!
//! `recover_s` is the WAL each phase left in memory scanned and replayed
//! onto an empty state — recovery without a disk.
//!
//! This is where "A\* never reaches `sb-serve`" must show (p50, tail and
//! burst capacity) and where a WAL or fsync change must not.

use super::serve_common::{
    config, digest_ack, fresh_state, is_decision, memory_journal, request_count, serial_decisions,
    set_up, state_bytes,
};
use super::{fits, EndToEnd, Options, Outcome, TimedPhase};
use crate::bed::{
    Bed, Scale, ACK_LIMIT_US, LOADED_REQUESTS, PINNED_SEED, RATE_LOADED_PER_S, RATE_OPEN_PER_S,
};
use crate::metrics::{median, ns_to_us, tail, Digest, Metric};
use crate::openloop::{self, jitter_gaps, poisson_schedule, Sent};
use crate::trace::Tracer;
use sb_cear::audit;
use sb_serve::{wal, Ack, AdmissionService, ServeStats};
use sb_sim::faultio::FaultIo;
use sb_sim::journal;
use std::time::{Duration, Instant};

/// Share of `--seconds` phase A's schedule spans; the bursts get the rest.
const PHASE_A_SHARE: f64 = 0.7;

/// How far `--seed` moves each gap of the pinned arrival trace. Sets of
/// ten runs, one seed each, measured the alternatives on the 98 requests
/// a phase holds: traffic and schedule redrawn per seed spread `ack_p50_us` by
/// 44 % (the median of a hundred decisions that cost 13–65 ms each is the
/// draw, not the service); the pinned requests on a schedule redrawn per
/// seed spread it by 18 % and `ack_tail_us` by 27 %. Both are outside any
/// bound the benchmark contract allows; this jitter repeats within 4–6 %.
/// Traffic that follows `--seed` is on `serve_durable`, whose 800
/// decisions go through the same quote path.
const GAP_JITTER: f64 = 0.1;

/// The open-loop rate at `scale`, requests per second.
pub fn open_rate(scale: Scale) -> f64 {
    match scale {
        Scale::Full => RATE_OPEN_PER_S,
        // A tiny-constellation decision takes well under a millisecond.
        Scale::Tiny => 400.0,
    }
}

/// The load-dependent counters of one phase as report metrics.
pub fn stats_metrics(stats: &ServeStats, sent: usize) -> Vec<Metric> {
    let per_sent = |count: u64| count as f64 / sent.max(1) as f64;
    let shed = stats.shed_queue_full + stats.shed_deadline + stats.shed_retries;
    vec![
        Metric::new("serve.conflict_frac", per_sent(stats.conflicts), "ratio"),
        Metric::new("serve.requote_frac", per_sent(stats.requotes), "ratio"),
        Metric::new("serve.shed_frac", per_sent(shed), "ratio"),
        Metric::new("serve.degraded_entries", stats.degraded_entries as f64, "count"),
        Metric::new("serve.max_occupancy", stats.max_occupancy as f64, "count"),
    ]
}

/// Generator lateness — the highest percentile the phase's sample
/// supports, by the rule of `ack_tail_us` — and submit cost of an
/// open-loop phase.
pub fn generator_metrics(sent: &[Sent]) -> Vec<Metric> {
    let late: Vec<f64> = sent.iter().map(|s| ns_to_us(s.late_ns())).collect();
    let submit: Vec<f64> = sent.iter().map(|s| s.submit_ns as f64).collect();
    vec![
        Metric::new("serve.gen_late_tail_us", tail(&late).value, "us"),
        Metric::new("serve.submit_ns", median(&submit), "ns"),
    ]
}

/// An open-loop phase under load, per layer: the counters of
/// [`stats_metrics`], the median ack of the requests that got a real
/// decision, and the share of all requests sent that got one within
/// `ack_limit_us`.
pub fn loaded_metrics(sent: &[Sent], stats: &ServeStats, ack_limit_us: f64) -> Vec<Metric> {
    let decided: Vec<f64> = sent
        .iter()
        .filter(|entry| entry.ack.as_ref().is_some_and(is_decision))
        .filter_map(|entry| entry.latency_ns().map(ns_to_us))
        .collect();
    let good = decided.iter().filter(|&&us| us <= ack_limit_us).count();
    let mut out = stats_metrics(stats, sent.len());
    out.push(Metric::new("serve.loaded_ack_p50_us", median(&decided), "us"));
    out.push(Metric::new("serve.loaded_good_frac", good as f64 / sent.len() as f64, "ratio"));
    out
}

/// The loaded leg: a fresh service with the default queue, the bed's first
/// requests at 0.6 × burst capacity on a Poisson schedule drawn from
/// `seed`. The service must survive it; what it sheds, requotes or answers
/// late is the measurement.
fn loaded_leg(bed: &Bed, scale: Scale, seed: u64, outcome: &mut Outcome) -> Vec<Metric> {
    let rate = open_rate(scale) * RATE_LOADED_PER_S / RATE_OPEN_PER_S;
    let requests = &bed.requests[..LOADED_REQUESTS.min(bed.requests.len())];
    let due_ns = poisson_schedule(seed, rate, requests.len());
    let (journal, _) = memory_journal();
    let service = AdmissionService::start(fresh_state(bed), journal, config(bed), None, 0)
        .expect("the default configuration starts");
    let (_, sent) = openloop::run(&service, requests, &due_ns, None);
    let report = service.drain();
    outcome.check(report.failure.is_none(), || format!("loaded leg died: {:?}", report.failure));
    outcome.check(audit(&report.state).is_clean(), || "loaded leg: audit violation".to_owned());
    outcome.notes.push(Metric::new("rate_loaded", rate, "1/s"));
    outcome.notes.push(Metric::new("requests_loaded", requests.len() as f64, "count"));
    loaded_metrics(&sent, &report.stats, ACK_LIMIT_US)
}

/// What is kept of a drained service: enough to verify it after the timed
/// phase without holding its network state alive until then — states kept
/// around would make `peak_rss_mib` depend on how many bursts happened to
/// fit.
struct Drained {
    died: Option<String>,
    state_checksum: u64,
    audit_clean: bool,
    wal: Vec<u8>,
}

impl Drained {
    fn of(report: sb_serve::DrainReport, io: &FaultIo) -> Drained {
        Drained {
            died: report.failure,
            state_checksum: sb_wire::checksum(&state_bytes(&report.state)),
            audit_clean: audit(&report.state).is_clean(),
            wal: io.durable_bytes(),
        }
    }

    /// The service drained cleanly into the state serial CEAR reaches, and
    /// replaying its WAL rebuilds that state. Returns how long scanning
    /// and replaying took, seconds.
    fn verify(&self, bed: &Bed, serial_checksum: u64, what: &str, outcome: &mut Outcome) -> f64 {
        outcome.check(self.died.is_none(), || format!("{what} died: {:?}", self.died));
        outcome.check(self.audit_clean, || format!("{what}: audit violation"));
        outcome.check(self.state_checksum == serial_checksum, || {
            format!("{what}: the drained state differs from serial CEAR's")
        });
        let (base, digest) = (fresh_state(bed), config(bed).digest);
        let recovering = Instant::now();
        let records = journal::scan_bytes(&self.wal).records;
        let replayed = wal::replay(base, 0, &records, digest);
        let recover_s = recovering.elapsed().as_secs_f64();
        match replayed {
            Ok(recovered) => {
                let rebuilt = sb_wire::checksum(&state_bytes(&recovered.state));
                outcome.check(rebuilt == self.state_checksum, || {
                    format!("{what}: replaying the WAL does not rebuild the drained state")
                });
            }
            Err(e) => outcome.fail(format!("{what}: replaying the WAL failed: {e}")),
        }
        recover_s
    }
}

/// Runs the workload.
pub fn run(options: &Options) -> Outcome {
    let mut outcome = Outcome::default();
    let mut e2e = EndToEnd::new(options);
    let bed = set_up(options.scale, PINNED_SEED, &mut e2e);
    let budget = options.seconds;
    let rate = open_rate(options.scale);
    let n = request_count(options.scale, rate, budget * PHASE_A_SHARE, bed.requests.len());
    let requests = &bed.requests[..n];
    let due_ns = jitter_gaps(&poisson_schedule(PINNED_SEED, rate, n), options.seed, GAP_JITTER);

    let phase = TimedPhase::begin(options);
    let tracer = &phase.tracer;

    // ---- Phase A: open loop at the frozen rate -------------------------
    let (journal, io) = memory_journal();
    let service = tracer.span("serve.start", 0, || {
        AdmissionService::start(fresh_state(&bed), journal, config(&bed), None, 0)
            .expect("the default configuration starts")
    });
    let (phase_start, sent) =
        tracer.span("serve.open_loop", 0, || openloop::run(&service, requests, &due_ns, None));
    let phase_a_s = phase_start.elapsed().as_secs_f64();
    let stats_a = service.stats();
    let report = tracer.span("serve.drain", 0, || service.drain());
    let phase_a = tracer.span("bench.verify", 0, || Drained::of(report, &io));

    // ---- Phase B: bursts into a queue that holds them all ---------------
    let mut bursts: Vec<(Vec<Option<Ack>>, Drained)> = Vec::new();
    loop {
        let id = bursts.len() as u64 + 1;
        let (journal, io) = memory_journal();
        let mut cfg = config(&bed);
        cfg.queue_depth = n + 1;
        let service = tracer.span("serve.start", id, || {
            AdmissionService::start(fresh_state(&bed), journal, cfg, None, 0)
                .expect("the burst configuration starts")
        });
        let started = Instant::now();
        let acks: Vec<Option<Ack>> = tracer.span("serve.burst", id, || {
            let tickets: Vec<_> = requests.iter().map(|r| service.submit(r.clone()).ok()).collect();
            tickets.into_iter().map(|t| t.and_then(|t| t.wait().ok())).collect()
        });
        let drain_s = started.elapsed().as_secs_f64();
        let report = tracer.span("serve.drain", id, || service.drain());
        e2e.units_s.push(drain_s);
        e2e.decisions += acks.iter().flatten().filter(|a| is_decision(a)).count() as u64;
        e2e.decision_window_s += drain_s;
        bursts.push((acks, tracer.span("bench.verify", id, || Drained::of(report, &io))));
        if !fits(phase.elapsed_s(), drain_s, budget) {
            break;
        }
    }
    let traced = phase.end(&mut e2e, &mut outcome);

    // ---- Verification ---------------------------------------------------
    e2e.issued = n as u64;
    let mut missed_a = 0u64;
    for entry in &sent {
        match (&entry.ack, entry.latency_ns()) {
            (Some(ack), Some(ns)) if is_decision(ack) => e2e.latencies_us.push(ns_to_us(ns)),
            _ => missed_a += 1,
        }
    }
    outcome.attempted = (n * (1 + bursts.len())) as u64;
    outcome.failed = missed_a;
    outcome.check(!e2e.latencies_us.is_empty(), || "phase A decided nothing".to_owned());

    let (serial, serial_state) = serial_decisions(&bed, requests);
    let serial_checksum = sb_wire::checksum(&state_bytes(&serial_state));
    drop(serial_state);
    let decided_as_serial = |acks: &mut dyn Iterator<Item = Option<&Ack>>| {
        acks.zip(&serial).all(|(ack, body)| ack.is_some_and(|a| &a.body == body))
    };
    for (b, (acks, drained)) in bursts.iter().enumerate() {
        let undecided = acks.iter().filter(|a| !a.as_ref().is_some_and(is_decision)).count();
        outcome.failed += undecided as u64;
        outcome.check(undecided == 0, || format!("burst {b}: {undecided} requests shed or lost"));
        outcome.check(decided_as_serial(&mut acks.iter().map(Option::as_ref)), || {
            format!("burst {b} decided differently from serial CEAR")
        });
        let recover_s = drained.verify(&bed, serial_checksum, &format!("burst {b}"), &mut outcome);
        e2e.recoveries_s.push(recover_s);
    }
    // With nothing shed, phase A commits the same stream in the same order.
    if missed_a == 0 {
        outcome.check(decided_as_serial(&mut sent.iter().map(|entry| entry.ack.as_ref())), || {
            "phase A decided differently from serial CEAR".to_owned()
        });
        e2e.recoveries_s.push(phase_a.verify(&bed, serial_checksum, "phase A", &mut outcome));
    } else {
        outcome.check(phase_a.died.is_none(), || format!("phase A died: {:?}", phase_a.died));
    }
    let mut digest = Digest::default();
    bursts[0].0.iter().flatten().for_each(|ack| digest_ack(&mut digest, ack));
    outcome.digest = digest.value();

    // ---- Report ---------------------------------------------------------
    let load = [stats_metrics(&stats_a, n), generator_metrics(&sent)].concat();
    let ack_p50 = median(&e2e.latencies_us);
    let late = load.iter().find(|m| m.name == "serve.gen_late_tail_us").map_or(0.0, |m| m.value);
    outcome.check(late < 0.05 * ack_p50, || {
        format!("the generator ran {late:.0} us late (tail), over 5 % of ack_p50_us {ack_p50:.0}")
    });
    outcome.notes.push(Metric::new("requests_per_phase", n as f64, "count"));
    outcome.notes.push(Metric::new("rate_open", rate, "1/s"));
    outcome.notes.push(Metric::new("phase_a_s", phase_a_s, "s"));
    outcome.notes.push(Metric::new("bursts", bursts.len() as f64, "count"));
    let latest = sent.iter().map(Sent::late_ns).max().unwrap_or(0);
    outcome.notes.push(Metric::new("gen_late_max_us", ns_to_us(latest), "us"));
    outcome.notes.extend(load);
    e2e.report(&mut outcome);
    if options.trace {
        // Per-request spans, on thread ids of their own: they overlap.
        let requests_tid = Tracer::new(true, traced.tracer.epoch(), 1);
        let submits_tid = Tracer::new(true, traced.tracer.epoch(), 2);
        let at = |ns: u64| phase_start + Duration::from_nanos(ns);
        for (entry, request) in sent.iter().zip(requests) {
            let id = u64::from(request.id.0);
            if let Some(acked) = entry.acked_ns {
                requests_tid.record("serve.request", id, at(entry.due_ns), at(acked));
            }
            let returned = at(entry.sent_ns + entry.submit_ns);
            submits_tid.record("serve.submit", id, at(entry.sent_ns), returned);
        }
        outcome.threads.push(requests_tid.finish());
        outcome.threads.push(submits_tid.finish());
        traced.into_layers(&mut outcome, &bed, options);
        // Phase A's generator and the loaded leg are the real thing; their
        // numbers replace the probe's miniature open loop.
        let loaded = loaded_leg(&bed, options.scale, options.seed, &mut outcome);
        generator_metrics(&sent).into_iter().chain(loaded).for_each(|m| outcome.set_layer(m));
    }
    outcome
}
