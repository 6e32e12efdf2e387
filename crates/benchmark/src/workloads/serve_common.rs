//! What `serve_open` and `serve_durable` share: the service
//! configuration, decision digests and the state comparison.

use super::EndToEnd;
use crate::bed::{serve_scenario, Bed, Scale, PINNED_SEED};
use crate::metrics::Digest;
use sb_cear::{Cear, Decision, NetworkState, RoutingAlgorithm};
use sb_demand::Request;
use sb_serve::{Ack, AckBody, ServeConfig};
use sb_sim::engine::{self, AlgorithmKind};
use sb_sim::faultio::{FaultIo, FaultPlan};
use sb_sim::journal::Journal;
use std::time::Instant;

/// Set-up of both `serve_*` workloads — `prepare` on the pinned network,
/// `workload` on `traffic_seed`: what `sb-serve` does before it listens.
/// Done three times, for `setup_s`'s median; the last bed is returned.
pub fn set_up(scale: Scale, traffic_seed: u64, e2e: &mut EndToEnd) -> Bed {
    let scenario = serve_scenario(scale);
    let mut build = || {
        let started = Instant::now();
        let bed = Bed::build(&scenario, PINNED_SEED, traffic_seed);
        e2e.setups_s.push(started.elapsed().as_secs_f64());
        bed
    };
    build();
    build();
    build()
}

/// A WAL that encodes and checksums but keeps its bytes in memory, and a
/// handle to read them back.
pub fn memory_journal() -> (Journal, FaultIo) {
    let io = FaultIo::new(FaultPlan::none());
    (Journal::from_io(Box::new(io.clone())), io)
}

/// `ServeConfig::new` defaults — queue 64, degraded mode 48/16, three
/// quote attempts — except one quote worker: every end-to-end number
/// runs the program under test on one worker, so shedding and degraded
/// mode count as what they are.
pub fn config(bed: &Bed) -> ServeConfig {
    let kind = AlgorithmKind::Cear(bed.scenario.cear);
    let mut cfg = ServeConfig::new(engine::run_digest(&bed.scenario, &kind, bed.seed), bed.seed);
    cfg.workers = 1;
    cfg.params = bed.scenario.cear;
    cfg
}

/// A fresh, empty network state over the bed's series.
pub fn fresh_state(bed: &Bed) -> NetworkState {
    NetworkState::new(bed.prepared.series.clone(), &bed.scenario.energy)
}

/// The state as `NetworkState::encode_snapshot` writes it — two states
/// are equal when these bytes are.
pub fn state_bytes(state: &NetworkState) -> Vec<u8> {
    let mut w = sb_wire::Writer::new();
    state.encode_snapshot(&mut w);
    w.into_bytes()
}

/// Whether the ack carries a real decision (admit or CEAR reject) rather
/// than a shed.
pub fn is_decision(ack: &Ack) -> bool {
    !matches!(ack.body, AckBody::Shed { .. })
}

/// Folds one ack into a decision-stream digest: request, verdict, price.
pub fn digest_ack(digest: &mut Digest, ack: &Ack) {
    digest.word(u64::from(ack.request_id.0));
    match &ack.body {
        AckBody::Admitted { price, .. } => {
            digest.word(1);
            digest.float(*price);
        }
        AckBody::Rejected { reason } => {
            digest.word(2);
            digest.word(*reason as u64);
        }
        AckBody::Shed { reason } => {
            digest.word(3);
            digest.word(*reason as u64);
        }
    }
}

/// What a serial CEAR loop decides for `requests` in order — the stream
/// the service must reproduce when it sheds nothing.
pub fn serial_decisions(bed: &Bed, requests: &[Request]) -> (Vec<AckBody>, NetworkState) {
    let mut state = fresh_state(bed);
    let mut cear = Cear::new(bed.scenario.cear);
    let bodies = requests
        .iter()
        .map(|request| match cear.process(request, &mut state) {
            Decision::Accepted { plan, price } => AckBody::Admitted { price, plan },
            Decision::Rejected { reason } => AckBody::Rejected { reason },
        })
        .collect();
    (bodies, state)
}

/// Requests `serve_*` sends per run at `scale`, given the frozen
/// per-second rate and the time the phase gets.
pub fn request_count(scale: Scale, per_second: f64, seconds: f64, available: usize) -> usize {
    let wanted = match scale {
        Scale::Full => (per_second * seconds).round() as usize,
        Scale::Tiny => 32,
    };
    wanted.clamp(1, available)
}
