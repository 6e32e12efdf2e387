//! `serve_durable` — the same service, used for writes: the WAL is a
//! real file (`Journal::create` under `--dir`), every decision costs one
//! `fdatasync`, and a checkpoint is written every 256 decisions.
//!
//! Closed loop: two client threads take the next request and wait for its
//! answer before taking another, so a slow service receives less load.
//! Requests are handed out in list order under one lock, which makes the
//! committed stream — and the `result_digest` — the same on every run.
//! `--seed` draws the traffic; the network is pinned
//! ([`PINNED_SEED`](crate::bed::PINNED_SEED)).
//!
//! After `drain`, recovery is timed the way an operator pays for it
//! (`recover_s`): scan the WAL, load the newest checkpoint, replay the
//! suffix; the recovered state must equal the drained state. A group-commit or checkpoint change
//! shows here and nowhere else; a quote-path change shows in `serve_open`
//! and, for as long as a decision costs far more than an `fdatasync`,
//! here too.

use super::serve_common::{
    config, digest_ack, fresh_state, is_decision, request_count, set_up, state_bytes,
};
use super::{EndToEnd, Options, Outcome, TimedPhase};
use crate::bed::{Scale, DURABLE_DECISIONS_PER_S};
use crate::host::filesystem_of;
use crate::metrics::{ns_to_us, Digest, Metric};
use sb_cear::audit;
use sb_serve::{wal, Ack, AdmissionService};
use sb_sim::checkpoint;
use sb_sim::journal::{self, Journal};
use std::sync::Mutex;
use std::time::Instant;

/// Client threads of the closed loop.
const CLIENTS: usize = 2;

/// Decisions between checkpoints.
fn checkpoint_every(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 256,
        Scale::Tiny => 8,
    }
}

/// Runs the workload.
pub fn run(options: &Options) -> Outcome {
    let mut outcome = Outcome::default();
    let mut e2e = EndToEnd::new(options);
    let bed = set_up(options.scale, options.seed, &mut e2e);
    let budget = options.seconds;
    let n = request_count(options.scale, DURABLE_DECISIONS_PER_S, budget, bed.requests.len());
    let requests = &bed.requests[..n];

    let dir = options.dir.join(format!("serve_durable-{}", std::process::id()));
    let ckpt_dir = dir.join("ckpt");
    std::fs::create_dir_all(&ckpt_dir).expect("the scratch directory can be created");
    let wal_path = dir.join("wal.bin");
    let mut cfg = config(&bed);
    cfg.checkpoint_every = checkpoint_every(options.scale);
    let digest_key = cfg.digest;

    let phase = TimedPhase::begin(options);
    let tracer = &phase.tracer;
    let journal = Journal::create(&wal_path).expect("the WAL file can be created");
    let service = tracer.span("serve.start", 0, || {
        AdmissionService::start(fresh_state(&bed), journal, cfg, Some(ckpt_dir.clone()), 0)
            .expect("the durable configuration starts")
    });

    // ---- Closed loop ------------------------------------------------------
    let next = Mutex::new(0usize);
    let started = Instant::now();
    let mut answers: Vec<(usize, u64, Option<Ack>)> = tracer.span("serve.closed_loop", 0, || {
        std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            let due = Instant::now();
                            let (index, ticket) = {
                                let mut next = next.lock().expect("dispenser lock");
                                if *next >= n {
                                    break;
                                }
                                let index = *next;
                                *next += 1;
                                (index, service.submit(requests[index].clone()).ok())
                            };
                            let ack = ticket.and_then(|t| t.wait().ok());
                            mine.push((index, due.elapsed().as_nanos() as u64, ack));
                        }
                        mine
                    })
                })
                .collect();
            clients.into_iter().flat_map(|c| c.join().expect("client thread")).collect()
        })
    });
    let wall_s = started.elapsed().as_secs_f64();
    let report = tracer.span("serve.drain", 0, || service.drain());
    let traced = phase.end(&mut e2e, &mut outcome);
    answers.sort_by_key(|(index, ..)| *index);

    // ---- Recovery, timed as the operator pays for it -----------------------
    // Scan the WAL, load the newest checkpoint, replay the suffix; seven
    // times for a median (the files were just written, so every pass reads
    // them from the page cache).
    let recover = || {
        let recovering = Instant::now();
        let scan = journal::scan(&wal_path).expect("the WAL can be scanned");
        let ckpt =
            checkpoint::load_latest(&ckpt_dir, digest_key).expect("checkpoints can be listed");
        let (base, base_decided) = match &ckpt {
            Some(c) => {
                let (decided, state) =
                    wal::decode_checkpoint_payload(bed.prepared.series.clone(), &c.payload)
                        .expect("the newest checkpoint decodes");
                (state, decided)
            }
            None => (fresh_state(&bed), 0),
        };
        let recovered = wal::replay(base, base_decided, &scan.records, digest_key);
        (recovering.elapsed().as_secs_f64(), scan, base_decided, recovered)
    };
    e2e.recoveries_s.extend((0..6).map(|_| recover().0));
    let (recover_s, scan, base_decided, recovered) = recover();
    e2e.recoveries_s.push(recover_s);

    // ---- Verification -------------------------------------------------------
    outcome.check(report.failure.is_none(), || format!("the service died: {:?}", report.failure));
    outcome.attempted = n as u64;
    e2e.issued = n as u64;
    e2e.units_s.push(wall_s);
    e2e.decision_window_s = wall_s;
    let mut digest = Digest::default();
    for (index, latency_ns, ack) in &answers {
        match ack {
            Some(ack) if is_decision(ack) => {
                e2e.decisions += 1;
                e2e.latencies_us.push(ns_to_us(*latency_ns));
                digest_ack(&mut digest, ack);
            }
            _ => {
                outcome.failed += 1;
                outcome.fail(format!("request #{index} was shed or lost"));
            }
        }
    }
    outcome.digest = digest.value();
    let drained = state_bytes(&report.state);
    match recovered {
        Ok(recovered) => {
            outcome.check(recovered.decided == n as u64, || {
                format!("recovery found {} decisions, {n} were acked", recovered.decided)
            });
            outcome.check(state_bytes(&recovered.state) == drained, || {
                "the recovered state differs from the drained state".to_owned()
            });
        }
        Err(e) => outcome.fail(format!("recovery failed: {e}")),
    }
    outcome.check(scan.discarded_tail_bytes == 0, || "the WAL has a torn tail".to_owned());
    outcome.check(audit(&report.state).is_clean(), || "audit violation".to_owned());
    // Counted after the drain: the checkpoint a decision triggers is
    // written after that decision's ack.
    let stats = &report.stats;
    let expected_checkpoints = n as u64 / checkpoint_every(options.scale);
    outcome.check(stats.checkpoints == expected_checkpoints, || {
        format!("{} checkpoints written, expected {expected_checkpoints}", stats.checkpoints)
    });

    outcome.notes.push(Metric::new("requests", n as f64, "count"));
    outcome.notes.push(Metric::new("recover_from_checkpoint", base_decided as f64, "count"));
    outcome.notes.push(Metric::new("checkpoints", stats.checkpoints as f64, "count"));
    outcome.notes.push(Metric::new("wal_bytes", scan.valid_len as f64, "B"));
    outcome.notes.extend(super::serve_open::stats_metrics(stats, n));
    eprintln!("serve_durable: WAL on {} ({})", wal_path.display(), filesystem_of(&dir));
    e2e.report(&mut outcome);
    traced.into_layers(&mut outcome, &bed, options);
    // The WAL and checkpoints are scratch: leave nothing behind.
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}
