//! Recovery: folding a scanned service WAL (plus an optional checkpoint
//! snapshot) back into the exact pre-crash [`NetworkState`].
//!
//! The service writes one [`JournalRecord`] per decision, after a single
//! `RunStart`, and fsyncs before acking — so the durable WAL prefix *is*
//! the decision history. Recovery is:
//!
//! 1. [`sb_sim::journal::scan`] the WAL — the scan stops at the first
//!    torn or corrupt frame, discarding any half-written tail (which by
//!    the WAL-before-ack rule was never acknowledged to a client);
//! 2. optionally load the newest [`sb_sim::checkpoint`] snapshot and
//!    [`decode_checkpoint_payload`] it into a base state covering its
//!    first `decided` decisions;
//! 3. [`replay`] the remaining decisions: admissions re-commit their
//!    recorded plans, rejections and sheds advance the stream position
//!    (sheds are load-dependent, so replay applies them verbatim instead
//!    of re-deriving them).
//!
//! The recovered state is bit-identical (as serialized by
//! [`NetworkState::encode_snapshot`]) to the state the service held when
//! the last durable decision was made.

use crate::ServeError;
use sb_cear::{NetworkState, ReservationPlan};
use sb_sim::journal::JournalRecord;
use sb_topology::TopologySeries;
use std::sync::Arc;

/// Serializes a checkpoint payload: the decision count followed by the
/// state snapshot. Written via [`sb_sim::checkpoint::write`] with the
/// decision count (truncated) as the slot field.
pub fn encode_checkpoint_payload(decided: u64, state: &NetworkState) -> Vec<u8> {
    let mut w = sb_wire::Writer::new();
    w.u64(decided);
    state.encode_snapshot(&mut w);
    w.into_bytes()
}

/// Restores a payload written by [`encode_checkpoint_payload`] on top of
/// a freshly rebuilt topology `series`.
///
/// # Errors
///
/// [`ServeError::Corrupt`] on truncation, trailing bytes, or any
/// dimension mismatch against `series`.
pub fn decode_checkpoint_payload(
    series: impl Into<Arc<TopologySeries>>,
    bytes: &[u8],
) -> Result<(u64, NetworkState), ServeError> {
    let corrupt = |e: sb_wire::WireError| ServeError::Corrupt(format!("checkpoint payload: {e}"));
    let mut r = sb_wire::Reader::new(bytes);
    let decided = r.u64().map_err(corrupt)?;
    let state = NetworkState::decode_snapshot(series, &mut r).map_err(corrupt)?;
    if !r.is_exhausted() {
        return Err(ServeError::Corrupt(format!(
            "checkpoint payload has {} trailing bytes",
            r.remaining()
        )));
    }
    Ok((decided, state))
}

/// The result of [`replay`]: the service's state and stream position as
/// of the last durable decision.
#[derive(Debug)]
pub struct Recovered {
    /// State with every durable admission applied.
    pub state: NetworkState,
    /// Total durable decisions (admissions + rejections + sheds) — the
    /// index of the next request to submit from the original stream.
    pub decided: u64,
    /// Every durable decision record, in commit order (including those
    /// already folded into the checkpoint `base`), for digesting or
    /// comparison against a reference run.
    pub decisions: Vec<JournalRecord>,
}

/// Folds scanned WAL `records` into `base`, skipping the first
/// `already_decided` decisions (the ones the checkpoint `base` already
/// contains).
///
/// # Errors
///
/// * [`ServeError::DigestMismatch`] — the `RunStart` digest differs from
///   `expected_digest`;
/// * [`ServeError::Corrupt`] — no `RunStart` first, a record type the
///   service never writes, an admission whose recorded plan no longer
///   commits, or a checkpoint claiming more decisions than the WAL
///   holds.
pub fn replay(
    mut base: NetworkState,
    already_decided: u64,
    records: &[JournalRecord],
    expected_digest: u64,
) -> Result<Recovered, ServeError> {
    let mut records = records.iter();
    match records.next() {
        None => {
            if already_decided > 0 {
                return Err(ServeError::Corrupt(format!(
                    "checkpoint covers {already_decided} decisions but the WAL is empty"
                )));
            }
            return Ok(Recovered { state: base, decided: 0, decisions: Vec::new() });
        }
        Some(JournalRecord::RunStart { config_digest, .. }) => {
            if *config_digest != expected_digest {
                return Err(ServeError::DigestMismatch {
                    expected: expected_digest,
                    found: *config_digest,
                });
            }
        }
        Some(other) => {
            return Err(ServeError::Corrupt(format!(
                "service WAL must begin with RunStart, found {other:?}"
            )));
        }
    }

    let mut decided: u64 = 0;
    let mut decisions = Vec::new();
    for record in records {
        match record {
            JournalRecord::Admission { request, price, slot_paths, .. } => {
                if decided >= already_decided {
                    let plan =
                        ReservationPlan { slot_paths: slot_paths.clone(), total_cost: *price };
                    base.try_commit_plan(request, &plan).map_err(|e| {
                        ServeError::Corrupt(format!(
                            "WAL admission #{decided} (request {}) no longer commits: {e:?}",
                            request.id.0
                        ))
                    })?;
                }
                decided += 1;
            }
            JournalRecord::Rejection { .. } | JournalRecord::Shed { .. } => decided += 1,
            other => {
                return Err(ServeError::Corrupt(format!(
                    "record not produced by the admission service: {other:?}"
                )));
            }
        }
        decisions.push(record.clone());
    }
    if decided < already_decided {
        return Err(ServeError::Corrupt(format!(
            "checkpoint covers {already_decided} decisions but the WAL holds only {decided}"
        )));
    }
    Ok(Recovered { state: base, decided, decisions })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{build_net, serial_decide, snapshot, stream};
    use sb_cear::Cear;
    use sb_sim::journal::ShedReason;
    use std::sync::Arc;

    const DIGEST: u64 = 0xABCD;

    fn run_start() -> JournalRecord {
        JournalRecord::RunStart {
            config_digest: DIGEST,
            algorithm: "sb-serve".to_owned(),
            seed: 0,
            horizon: 4,
        }
    }

    /// Drives the serial admission rule over a stream and returns the
    /// final state plus the records the service would have WAL'd.
    fn serial_wal(n: usize) -> (crate::testutil::TestNet, NetworkState, Vec<JournalRecord>) {
        let net = build_net(4);
        let cear = Cear::new(Default::default());
        let mut state = net.state.clone();
        let mut records = vec![run_start()];
        for req in stream(net.src, net.dst, 4, n, 5) {
            let start = req.start.0;
            records.push(match serial_decide(&cear, &mut state, &req) {
                crate::service::AckBody::Admitted { price, plan } => JournalRecord::Admission {
                    slot: start,
                    original_arrival: start,
                    attempts_left: 0,
                    request: req,
                    price,
                    slot_paths: plan.slot_paths,
                },
                crate::service::AckBody::Rejected { reason } => JournalRecord::Rejection {
                    slot: start,
                    original_arrival: start,
                    attempts_left: 0,
                    request_id: req.id.0,
                    reason,
                },
                crate::service::AckBody::Shed { .. } => unreachable!("serial rule never sheds"),
            });
        }
        (net, state, records)
    }

    #[test]
    fn checkpoint_payload_roundtrips_and_rejects_junk() {
        let (net, state, _) = serial_wal(6);
        let bytes = encode_checkpoint_payload(5, &state);
        let (decided, restored) =
            decode_checkpoint_payload(Arc::clone(&net.series), &bytes).unwrap();
        assert_eq!(decided, 5);
        assert_eq!(snapshot(&restored), snapshot(&state));
        for cut in [0, 4, bytes.len() - 1] {
            assert!(
                matches!(
                    decode_checkpoint_payload(Arc::clone(&net.series), &bytes[..cut]),
                    Err(ServeError::Corrupt(_))
                ),
                "cut at {cut}"
            );
        }
        let mut long = bytes;
        long.push(0);
        let err = decode_checkpoint_payload(Arc::clone(&net.series), &long).unwrap_err();
        assert!(matches!(err, ServeError::Corrupt(ref m) if m.contains("trailing")), "{err}");
    }

    #[test]
    fn replay_rebuilds_the_serial_state() {
        let (net, state, records) = serial_wal(10);
        let recovered = replay(net.state.clone(), 0, &records, DIGEST).unwrap();
        assert_eq!(recovered.decided, 10);
        assert_eq!(recovered.decisions.len(), 10);
        assert_eq!(snapshot(&recovered.state), snapshot(&state));
    }

    /// Starting from a mid-stream checkpoint must land on the same state
    /// as replaying the whole WAL from scratch.
    #[test]
    fn replay_skips_checkpointed_decisions_exactly() {
        let (net, state, records) = serial_wal(10);
        // Rebuild the state as of decision 6 by replaying a prefix...
        let prefix = replay(net.state.clone(), 0, &records[..7], DIGEST).unwrap();
        assert_eq!(prefix.decided, 6);
        // ...then hand it to a full replay as the checkpoint base.
        let resumed = replay(prefix.state, 6, &records, DIGEST).unwrap();
        assert_eq!(resumed.decided, 10);
        assert_eq!(snapshot(&resumed.state), snapshot(&state));
    }

    #[test]
    fn replay_guards_its_preconditions() {
        let net = build_net(4);
        let shed = JournalRecord::Shed { request_id: 0, reason: ShedReason::QueueFull };

        // Digest mismatch.
        let err = replay(net.state.clone(), 0, &[run_start()], DIGEST + 1).unwrap_err();
        assert!(
            matches!(err, ServeError::DigestMismatch { expected, found }
                if expected == DIGEST + 1 && found == DIGEST),
            "{err}"
        );
        // The WAL must begin with RunStart.
        let err = replay(net.state.clone(), 0, std::slice::from_ref(&shed), DIGEST).unwrap_err();
        assert!(matches!(err, ServeError::Corrupt(ref m) if m.contains("RunStart")), "{err}");
        // Record types the service never writes are refused.
        let foreign = JournalRecord::SlotStart { slot: 0 };
        let err = replay(net.state.clone(), 0, &[run_start(), foreign], DIGEST).unwrap_err();
        assert!(matches!(err, ServeError::Corrupt(_)), "{err}");
        // A checkpoint claiming more decisions than the WAL holds.
        let err = replay(net.state.clone(), 3, &[run_start(), shed], DIGEST).unwrap_err();
        assert!(matches!(err, ServeError::Corrupt(ref m) if m.contains("only 1")), "{err}");
        // A checkpoint over an empty WAL is impossible.
        let err = replay(net.state.clone(), 1, &[], DIGEST).unwrap_err();
        assert!(matches!(err, ServeError::Corrupt(ref m) if m.contains("empty")), "{err}");
        // An empty WAL on a fresh start is just a fresh start.
        let fresh = replay(net.state.clone(), 0, &[], DIGEST).unwrap();
        assert_eq!(fresh.decided, 0);
        assert_eq!(snapshot(&fresh.state), snapshot(&net.state));
    }
}
