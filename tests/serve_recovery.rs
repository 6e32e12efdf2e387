//! Kill-anywhere recovery for the admission service: crash the WAL disk
//! at 20+ scripted operation points — with and without extra IO-fault
//! noise — recover from the durable prefix (optionally through a
//! checkpoint), resume the request stream, and require the final decision
//! stream and network state to be bit-identical to a never-killed run's.
//! Along the way, every acknowledged decision must already be durable
//! (WAL-before-ack), and every durable prefix must agree with the
//! reference decision stream.

use space_booking::sb_cear::{CearParams, NetworkState};
use space_booking::sb_demand::Request;
use space_booking::sb_serve::{wal, AdmissionService, ServeConfig};
use space_booking::sb_sim::engine::{self, AlgorithmKind, PreparedNetwork};
use space_booking::sb_sim::faultio::{CrashPoint, FaultIo, FaultPlan};
use space_booking::sb_sim::journal::{self, Journal, JournalRecord};
use space_booking::sb_sim::{checkpoint, ScenarioConfig};
use std::path::{Path, PathBuf};

struct Fixture {
    scenario: ScenarioConfig,
    digest: u64,
    prepared: PreparedNetwork,
    requests: Vec<Request>,
}

fn fixture() -> Fixture {
    let scenario = ScenarioConfig::tiny();
    let kind = AlgorithmKind::Cear(CearParams::default());
    let digest = engine::run_digest(&scenario, &kind, 0);
    let prepared = engine::prepare(&scenario, 0);
    let mut requests = engine::workload(&scenario, &prepared, 0);
    requests.truncate(30);
    assert!(requests.len() >= 20, "tiny workload too small for kill sweep");
    Fixture { scenario, digest, prepared, requests }
}

fn fresh_state(f: &Fixture) -> NetworkState {
    NetworkState::new(f.prepared.series.clone(), &f.scenario.energy)
}

fn serve_cfg(f: &Fixture) -> ServeConfig {
    let mut cfg = ServeConfig::new(f.digest, 0);
    cfg.workers = 2;
    cfg
}

fn snapshot(state: &NetworkState) -> Vec<u8> {
    let mut w = sb_wire::Writer::new();
    state.encode_snapshot(&mut w);
    w.into_bytes()
}

struct CrashOutcome {
    /// What a recovery scan would find on disk after the crash.
    durable: Vec<u8>,
    /// Sequence numbers whose tickets resolved with a decision.
    acked: Vec<u64>,
    /// Total WAL operations a run with this plan executed.
    ops: u64,
}

/// Runs the service over the whole stream against a fault-scripted disk,
/// riding through the death: submissions stop when the service dies,
/// undecided tickets resolve with the failure.
fn crashed_run(f: &Fixture, plan: FaultPlan, ckpt: Option<(&Path, u64)>) -> CrashOutcome {
    let io = FaultIo::new(plan);
    let journal = Journal::from_io(Box::new(io.clone()));
    let mut cfg = serve_cfg(f);
    let dir: Option<PathBuf> = ckpt.map(|(d, every)| {
        cfg.checkpoint_every = every;
        d.to_path_buf()
    });
    let service =
        AdmissionService::start(fresh_state(f), journal, cfg, dir, 0).expect("service starts");
    let mut tickets = Vec::new();
    for req in &f.requests {
        match service.submit(req.clone()) {
            Ok(t) => tickets.push(t),
            Err(_) => break, // the service died mid-stream
        }
    }
    let acked = tickets.into_iter().filter_map(|t| t.wait().ok().map(|a| a.seq)).collect();
    let _ = service.drain();
    CrashOutcome { durable: io.durable_bytes(), acked, ops: io.ops() }
}

/// Recovers from a durable WAL image (scan → optional checkpoint →
/// replay), resumes the stream from the recovery position, drains
/// cleanly, and returns the final decision records and state snapshot.
fn resume_and_finish(
    f: &Fixture,
    durable: &[u8],
    ckpt: Option<(&Path, u64)>,
) -> (Vec<JournalRecord>, Vec<u8>) {
    let scan = journal::scan_bytes(durable);
    let (base, base_decided) = match ckpt {
        Some((dir, _)) => match checkpoint::load_latest(dir, f.digest).expect("checkpoint scan") {
            Some(c) => {
                let (n, state) =
                    wal::decode_checkpoint_payload(f.prepared.series.clone(), &c.payload)
                        .expect("checkpoint payload decodes");
                (state, n)
            }
            None => (fresh_state(f), 0),
        },
        None => (fresh_state(f), 0),
    };
    let recovered =
        wal::replay(base, base_decided, &scan.records, f.digest).expect("replay succeeds");
    let io = FaultIo::with_contents(durable[..scan.valid_len as usize].to_vec(), FaultPlan::none());
    let journal = Journal::open_append_io(Box::new(io.clone()), scan.valid_len)
        .expect("journal reopens at the valid prefix");
    let mut cfg = serve_cfg(f);
    if let Some((_, every)) = ckpt {
        cfg.checkpoint_every = every;
    }
    let service = AdmissionService::start(
        recovered.state,
        journal,
        cfg,
        ckpt.map(|(d, _)| d.to_path_buf()),
        recovered.decided,
    )
    .expect("service resumes");
    let tickets: Vec<_> = f.requests[recovered.decided as usize..]
        .iter()
        .map(|r| service.submit(r.clone()).expect("resumed submissions succeed"))
        .collect();
    for t in tickets {
        t.wait().expect("resumed decisions arrive");
    }
    let report = service.drain();
    assert_eq!(report.failure, None, "resumed run must drain cleanly");
    let final_scan = journal::scan_bytes(&io.durable_bytes());
    assert_eq!(final_scan.discarded_tail_bytes, 0);
    (final_scan.records, snapshot(&report.state))
}

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn kill_anywhere_recovery_is_bit_identical() {
    let f = fixture();
    let (ref_records, ref_snapshot) = resume_and_finish(&f, &[], None);
    assert_eq!(ref_records.len(), f.requests.len() + 1); // RunStart + decisions

    // Size the kill scripts against a clean run's operation count.
    let probe = crashed_run(&f, FaultPlan::none(), None);
    assert_eq!(probe.acked.len(), f.requests.len());
    let total_ops = probe.ops;
    assert!(total_ops > 10, "op count {total_ops} too small to script against");

    let mut x = 0xC0FF_EE00u64;
    let mut cells: Vec<(String, FaultPlan)> = Vec::new();
    for i in 0..20u64 {
        let at = 2 + splitmix(&mut x) % (total_ops - 2);
        let point = if i % 2 == 0 { CrashPoint::Before } else { CrashPoint::After };
        cells.push((
            format!("kill@{at}:{point:?}"),
            FaultPlan { crash_at: Some((at, point)), ..FaultPlan::none() },
        ));
    }
    // Crashes layered over healed IO noise: short writes and EINTR are
    // retried transparently by the journal, so they must not perturb the
    // decision stream either.
    for _ in 0..3 {
        let noise_a = 2 + splitmix(&mut x) % (total_ops - 2);
        let noise_b = 2 + splitmix(&mut x) % (total_ops - 2);
        let at = 2 + splitmix(&mut x) % (total_ops - 2);
        cells.push((
            format!("noisy-kill@{at}"),
            FaultPlan {
                short_write_at: vec![noise_a],
                eintr_at: vec![noise_b],
                crash_at: Some((at, CrashPoint::After)),
                ..FaultPlan::none()
            },
        ));
    }
    // Failed fsyncs (odd op indices are syncs in a clean run): the
    // service halts on the spot and the durable prefix still recovers.
    for at in [5u64, 21] {
        cells.push((
            format!("sync-fail@{at}"),
            FaultPlan { sync_fail_at: vec![at], ..FaultPlan::none() },
        ));
    }

    for (label, plan) in cells {
        let crash = crashed_run(&f, plan, None);
        let scan = journal::scan_bytes(&crash.durable);

        // WAL-before-ack: every acknowledged decision is durable.
        let durable_decisions = scan.records.len().saturating_sub(1) as u64;
        for seq in &crash.acked {
            assert!(
                *seq < durable_decisions,
                "{label}: acked seq {seq} but only {durable_decisions} durable decisions"
            );
        }
        // The durable prefix agrees with the reference decision stream.
        assert_eq!(
            scan.records[..],
            ref_records[..scan.records.len()],
            "{label}: durable prefix diverges from the reference stream"
        );
        // Recover, resume, finish: bit-identical stream and state.
        let (records, snap) = resume_and_finish(&f, &crash.durable, None);
        assert_eq!(records, ref_records, "{label}: decision streams differ");
        assert_eq!(snap, ref_snapshot, "{label}: final states differ");
    }
}

/// Recovery through a checkpoint must land on the same stream and state
/// as replaying the whole WAL from scratch.
#[test]
fn checkpointed_recovery_matches_full_replay() {
    let f = fixture();
    let (ref_records, ref_snapshot) = resume_and_finish(&f, &[], None);
    for (i, at) in [17u64, 43].into_iter().enumerate() {
        let dir = std::env::temp_dir().join(format!("sb_serve_recovery_ckpt_{i}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let plan = FaultPlan { crash_at: Some((at, CrashPoint::Before)), ..FaultPlan::none() };
        let crash = crashed_run(&f, plan, Some((&dir, 7)));
        let loaded = checkpoint::load_latest(&dir, f.digest).expect("checkpoint scan");
        assert!(loaded.is_some(), "kill@{at}: no checkpoint was written before the crash");

        let (records, snap) = resume_and_finish(&f, &crash.durable, Some((&dir, 7)));
        assert_eq!(records, ref_records, "kill@{at}: decision streams differ");
        assert_eq!(snap, ref_snapshot, "kill@{at}: final states differ");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// With nothing shed the WAL is a function of submission order alone:
/// one burst, submitted before any ticket is redeemed so quotes go stale,
/// leaves the same bytes behind at 1 and at 4 workers.
#[test]
fn wal_bytes_do_not_depend_on_the_worker_count() {
    let f = fixture();
    let wal_at = |workers: usize| {
        let io = FaultIo::new(FaultPlan::none());
        let mut cfg = serve_cfg(&f);
        cfg.workers = workers;
        assert!(cfg.queue_depth >= f.requests.len(), "the queue must hold the whole burst");
        let journal = Journal::from_io(Box::new(io.clone()));
        let service = AdmissionService::start(fresh_state(&f), journal, cfg, None, 0)
            .expect("service starts");
        let tickets: Vec<_> =
            f.requests.iter().map(|r| service.submit(r.clone()).expect("submits")).collect();
        for t in tickets {
            t.wait().expect("decided");
        }
        let report = service.drain();
        assert_eq!(report.failure, None, "workers={workers}");
        assert_eq!(report.stats.decisions(), report.stats.submitted, "workers={workers}");
        assert_eq!(report.stats.shed_queue_full + report.stats.shed_deadline, 0);
        io.durable_bytes()
    };
    let one = wal_at(1);
    assert_eq!(journal::scan_bytes(&one).records.len(), f.requests.len() + 1);
    assert_eq!(one, wal_at(4));
}
