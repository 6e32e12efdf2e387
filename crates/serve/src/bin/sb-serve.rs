//! `sb-serve` — run the fault-tolerant admission service over a scenario
//! workload, with a durable WAL and kill-anywhere recovery.
//!
//! ```text
//! # fresh run
//! sb-serve --dir out --scale tiny --seed 0 --workers 4
//! # after a crash (or kill -9): recover and finish the stream
//! sb-serve --dir out --scale tiny --seed 0 --workers 4 --resume
//! ```
//!
//! The run writes into `--dir`:
//!
//! * `serve_wal.bin` — the decision WAL (engine journal format);
//! * `ckpt/` — periodic checkpoints when `--checkpoint-every` is set;
//! * `acks.bin` — framed [`sb_serve::proto::AckFrame`]s for every ack
//!   received this invocation;
//! * `digest.txt` — hex checksum over the full WAL record stream plus the
//!   final state snapshot. A killed-and-resumed run produces the same
//!   digest as an uninterrupted one (CI asserts exactly this).

use sb_cear::{CearParams, NetworkState};
use sb_serve::proto::{AckFrame, AckVerdict};
use sb_serve::service::AckBody;
use sb_serve::{wal, AdmissionService, ServeConfig};
use sb_sim::engine::{self, AlgorithmKind};
use sb_sim::journal::Journal;
use sb_sim::{checkpoint, journal, ScenarioConfig};
use sb_wire::{checksum, Writer};
use std::time::Duration;

fn fail(msg: String) -> ! {
    eprintln!("sb-serve: {msg}");
    std::process::exit(2);
}

fn main() {
    let args =
        sb_serve::args::parse_serve_args(std::env::args().skip(1)).unwrap_or_else(|e| fail(e));
    let scenario = match args.scale.as_str() {
        "fast" => ScenarioConfig::fast(),
        _ => ScenarioConfig::tiny(),
    };
    let digest =
        engine::run_digest(&scenario, &AlgorithmKind::Cear(CearParams::default()), args.seed);
    let prepared = engine::prepare(&scenario, args.seed);
    let mut requests = engine::workload(&scenario, &prepared, args.seed);
    if let Some(cap) = args.requests {
        requests.truncate(cap);
    }

    std::fs::create_dir_all(&args.dir)
        .unwrap_or_else(|e| fail(format!("cannot create {}: {e}", args.dir.display())));
    let wal_path = args.dir.join("serve_wal.bin");
    let ckpt_dir = args.dir.join("ckpt");
    std::fs::create_dir_all(&ckpt_dir)
        .unwrap_or_else(|e| fail(format!("cannot create {}: {e}", ckpt_dir.display())));

    let (journal, state, decided) = if args.resume {
        let scan = journal::scan(&wal_path)
            .unwrap_or_else(|e| fail(format!("cannot scan {}: {e}", wal_path.display())));
        if scan.discarded_tail_bytes > 0 {
            eprintln!(
                "sb-serve: discarded {} torn tail bytes (never acknowledged)",
                scan.discarded_tail_bytes
            );
        }
        let ckpt = checkpoint::load_latest(&ckpt_dir, digest)
            .unwrap_or_else(|e| fail(format!("cannot load checkpoints: {e}")));
        let (base, base_decided) = match &ckpt {
            Some(c) => {
                let (n, state) =
                    wal::decode_checkpoint_payload(prepared.series.clone(), &c.payload)
                        .unwrap_or_else(|e| fail(format!("{}: {e}", c.path.display())));
                eprintln!("sb-serve: checkpoint {} covers {n} decisions", c.path.display());
                (state, n)
            }
            None => (NetworkState::new(prepared.series.clone(), &scenario.energy), 0),
        };
        let recovered = wal::replay(base, base_decided, &scan.records, digest)
            .unwrap_or_else(|e| fail(format!("WAL replay failed: {e}")));
        eprintln!(
            "sb-serve: recovered {} durable decisions, resuming at request #{}",
            recovered.decided, recovered.decided
        );
        let journal = Journal::open_append(&wal_path, scan.valid_len)
            .unwrap_or_else(|e| fail(format!("cannot reopen WAL: {e}")));
        (journal, recovered.state, recovered.decided)
    } else {
        let _ = std::fs::remove_file(&wal_path);
        checkpoint::clear(&ckpt_dir)
            .unwrap_or_else(|e| fail(format!("cannot clear checkpoints: {e}")));
        let journal =
            Journal::create(&wal_path).unwrap_or_else(|e| fail(format!("cannot create WAL: {e}")));
        (journal, NetworkState::new(prepared.series.clone(), &scenario.energy), 0)
    };

    let mut cfg = ServeConfig::new(digest, args.seed);
    cfg.workers = args.workers;
    cfg.queue_depth = args.queue_depth;
    cfg.checkpoint_every = args.checkpoint_every;
    cfg.deadline = args.deadline_us.map(Duration::from_micros);
    cfg.degraded_enter = (args.queue_depth * 3 / 4).max(2);
    cfg.degraded_exit = (args.queue_depth / 4).min(cfg.degraded_enter - 1);

    let service = AdmissionService::start(state, journal, cfg, Some(ckpt_dir), decided)
        .unwrap_or_else(|e| fail(format!("cannot start service: {e}")));

    let mut tickets = Vec::new();
    for request in requests.iter().skip(decided as usize) {
        if args.throttle_us > 0 {
            std::thread::sleep(Duration::from_micros(args.throttle_us));
        }
        match service.submit(request.clone()) {
            Ok(ticket) => tickets.push(ticket),
            Err(e) => {
                eprintln!("sb-serve: submissions stopped: {e}");
                break;
            }
        }
    }
    let mut acks_bytes = Vec::new();
    let mut lost = 0u64;
    for ticket in tickets {
        match ticket.wait() {
            Ok(ack) => {
                let verdict = match &ack.body {
                    AckBody::Admitted { price, .. } => AckVerdict::Admitted { price: *price },
                    AckBody::Rejected { reason } => AckVerdict::Rejected { reason: *reason },
                    AckBody::Shed { reason } => AckVerdict::Shed { reason: *reason },
                };
                AckFrame { seq: ack.seq, request_id: ack.request_id, verdict }
                    .write(&mut acks_bytes);
            }
            Err(_) => lost += 1,
        }
    }
    let report = service.drain();

    // The run digest: every durable WAL record as written, plus the final
    // state. A kill/resume sequence must reproduce an uninterrupted run's
    // value.
    let scan = journal::scan(&wal_path)
        .unwrap_or_else(|e| fail(format!("cannot re-scan {}: {e}", wal_path.display())));
    let mut w = Writer::new();
    for record in &scan.records {
        record.encode(&mut w);
    }
    report.state.encode_snapshot(&mut w);
    let run_digest = format!("{:016x}", checksum(&w.into_bytes()));
    std::fs::write(args.dir.join("digest.txt"), format!("{run_digest}\n"))
        .unwrap_or_else(|e| fail(format!("cannot write digest.txt: {e}")));
    std::fs::write(args.dir.join("acks.bin"), &acks_bytes)
        .unwrap_or_else(|e| fail(format!("cannot write acks.bin: {e}")));

    let s = &report.stats;
    println!(
        "sb-serve: digest={run_digest} decisions={} admitted={} rejected={} shed={} \
         conflicts={} degraded_entries={} checkpoints={} lost_acks={lost}",
        s.decisions(),
        s.admitted,
        s.rejected_no_path + s.rejected_price + s.rejected_commit,
        s.shed_queue_full + s.shed_deadline,
        s.conflicts,
        s.degraded_entries,
        s.checkpoints,
    );
    if let Some(failure) = report.failure {
        fail(format!("service died: {failure}"));
    }
}
