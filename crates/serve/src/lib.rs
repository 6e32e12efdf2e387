//! `sb-serve` — a fault-tolerant *online* admission service wrapping the
//! CEAR algorithm of *Space Booking: Enabling Performance-Critical
//! Applications in Broadband Satellite Networks* (ICDCS 2025).
//!
//! The batch engine in `sb-sim` processes a known request stream slot by
//! slot. A real operator instead runs a long-lived service: requests
//! arrive concurrently, quotes are expensive, and the process can be
//! killed at any moment. This crate provides that service shape while
//! preserving the algorithmic contract — the decision stream a live
//! service produces is *bit-identical* to serially running CEAR over the
//! same requests in commit order.
//!
//! # Architecture
//!
//! Every request is decided on one of two paths, both ending in the same
//! admission rule and the same WAL append:
//!
//! * **Optimistic quote, validated** — quote workers price requests
//!   concurrently against a shared [`sb_cear::NetworkState`] under a read
//!   lock, recording the bandwidth/battery *epochs* of every cell the
//!   search touched in an [`sb_cear::EpochReadSet`]. One committer thread
//!   decides strictly in submission order; a staged quote whose read set
//!   is still current at its turn is committed as it stands.
//! * **Committer-serial quote** — otherwise (the staged quote is stale,
//!   or nothing was staged because the service is in degraded mode or the
//!   workers have exited) the committer quotes the request itself, under
//!   the state lock it commits under. Nothing goes back through the
//!   queue.
//!
//! Around them:
//!
//! * **Write-ahead logging** — every decision is appended to an
//!   [`sb_sim::journal::Journal`] (the engine's journal format, including
//!   fsync) *before* the client is acked, so an ack implies durability.
//!   [`wal::replay`] folds a scanned WAL (plus an optional
//!   [`sb_sim::checkpoint`] snapshot) back into the exact pre-crash
//!   state.
//! * **Overload shedding** — the admission queue is bounded; when full,
//!   the lowest value-density request is shed
//!   ([`sb_sim::journal::ShedReason::QueueFull`]), and requests whose
//!   service deadline lapses are shed without quoting
//!   ([`sb_sim::journal::ShedReason::DeadlineExceeded`]). Under sustained
//!   overload the service enters *degraded mode*: workers pause and the
//!   committer itself quotes serially (uncached reference path), shrinking
//!   the window between quote and commit to zero.
//!
//! # Modules
//!
//! * [`service`] — the service itself: [`AdmissionService`], tickets,
//!   acks, drain;
//! * [`wal`] — checkpoint payload format and WAL replay for recovery;
//! * [`proto`] — the framed submit/ack wire protocol;
//! * [`args`] — validated CLI flag parsing for the `sb-serve` binary;
//! * [`engine`] — [`engine::ServedCear`], a [`sb_cear::RoutingAlgorithm`]
//!   adapter that routes every decision through a live service, proving
//!   service/batch equivalence at the `RunMetrics` level.

#![warn(missing_docs)]

pub mod args;
pub mod engine;
pub mod proto;
pub mod service;
#[cfg(test)]
pub(crate) mod testutil;
pub mod wal;

pub use engine::{run_served, ServedCear};
pub use service::{Ack, AckBody, AdmissionService, DrainReport, ServeStats, Ticket};

use sb_cear::CearParams;
use std::fmt;
use std::time::Duration;

/// Configuration for one [`AdmissionService`] instance.
///
/// Construct with [`ServeConfig::new`] and adjust fields; the service
/// validates the whole struct at startup (see [`ServeConfig::validate`]).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Quote worker threads (≥ 1).
    pub workers: usize,
    /// Maximum undecided requests (submitted but not yet written to the
    /// WAL) before the lowest value-density candidate is shed (≥ 1).
    pub queue_depth: usize,
    /// Per-request service deadline; `None` disables deadline shedding.
    pub deadline: Option<Duration>,
    /// Occupancy at which degraded mode engages (> `degraded_exit`).
    pub degraded_enter: usize,
    /// Occupancy at or below which degraded mode disengages.
    pub degraded_exit: usize,
    /// Write a checkpoint every this many decisions (0 disables; only
    /// effective when the service is given a checkpoint directory).
    pub checkpoint_every: u64,
    /// Workload seed recorded in the WAL's `RunStart`; the service draws
    /// nothing from it.
    pub seed: u64,
    /// Config digest recorded in the WAL's `RunStart`; recovery refuses a
    /// WAL carrying a different digest.
    pub digest: u64,
    /// CEAR pricing parameters.
    pub params: CearParams,
}

impl ServeConfig {
    /// A ready-to-run configuration: 2 workers, queue depth 64, no
    /// deadline, degraded mode between 3/4 and 1/4 occupancy,
    /// checkpointing off.
    pub fn new(digest: u64, seed: u64) -> Self {
        ServeConfig {
            workers: 2,
            queue_depth: 64,
            deadline: None,
            degraded_enter: 48,
            degraded_exit: 16,
            checkpoint_every: 0,
            seed,
            digest,
            params: CearParams::default(),
        }
    }

    /// Checks every field range.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] naming the first offending field.
    pub fn validate(&self) -> Result<(), ServeError> {
        let fail = |msg: String| Err(ServeError::Config(msg));
        if self.workers == 0 {
            return fail("workers must be >= 1".to_owned());
        }
        if self.queue_depth == 0 {
            return fail("queue_depth must be >= 1".to_owned());
        }
        if self.degraded_enter <= self.degraded_exit {
            return fail(format!(
                "degraded_enter ({}) must be > degraded_exit ({})",
                self.degraded_enter, self.degraded_exit
            ));
        }
        Ok(())
    }
}

/// Everything that can go wrong starting, using, or recovering the
/// service.
#[derive(Debug)]
pub enum ServeError {
    /// A configuration field is out of range.
    Config(String),
    /// An IO failure outside the WAL (checkpoint directory, scan).
    Io(std::io::Error),
    /// A WAL or checkpoint decodes to something structurally impossible
    /// (e.g. an admission that no longer commits on replay).
    Corrupt(String),
    /// The WAL belongs to a different scenario/seed.
    DigestMismatch {
        /// The digest this service was configured with.
        expected: u64,
        /// The digest found in the WAL's `RunStart`.
        found: u64,
    },
    /// The service halted after a WAL or checkpoint write failure; the
    /// payload is the original failure message.
    Dead(String),
    /// The service is draining and no longer accepts submissions.
    Draining,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Config(msg) => write!(f, "invalid service configuration: {msg}"),
            ServeError::Io(e) => write!(f, "service io failure: {e}"),
            ServeError::Corrupt(msg) => write!(f, "corrupt service log: {msg}"),
            ServeError::DigestMismatch { expected, found } => {
                write!(f, "WAL digest {found:#018x} does not match configured {expected:#018x}")
            }
            ServeError::Dead(msg) => write!(f, "service halted: {msg}"),
            ServeError::Draining => write!(f, "service is draining"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert!(ServeConfig::new(7, 0).validate().is_ok());
    }

    #[test]
    fn zero_fields_are_rejected() {
        for (field, mutate) in [
            ("workers", Box::new(|c: &mut ServeConfig| c.workers = 0) as Box<dyn Fn(&mut _)>),
            ("queue_depth", Box::new(|c: &mut ServeConfig| c.queue_depth = 0)),
        ] {
            let mut cfg = ServeConfig::new(0, 0);
            mutate(&mut cfg);
            let err = cfg.validate().expect_err(field);
            assert!(matches!(err, ServeError::Config(ref m) if m.contains(field)), "{err}");
        }
    }

    #[test]
    fn inverted_ranges_are_rejected() {
        let mut cfg = ServeConfig::new(0, 0);
        cfg.degraded_enter = cfg.degraded_exit;
        assert!(matches!(cfg.validate(), Err(ServeError::Config(_))));
    }

    #[test]
    fn errors_display_their_payload() {
        let e = ServeError::DigestMismatch { expected: 1, found: 2 };
        let text = e.to_string();
        assert!(text.contains("0x0000000000000002"), "{text}");
        assert!(ServeError::Draining.to_string().contains("draining"));
        assert!(ServeError::Dead("fsync failed".to_owned()).to_string().contains("fsync"));
    }
}
