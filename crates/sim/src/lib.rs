//! The space-booking simulation engine.
//!
//! Reproduces the paper's evaluation methodology (§VI-A): a Starlink
//! Shell-1 constellation simulated in one-minute slots over four orbital
//! periods, GDP-weighted ground users and a Planet-Labs-sized EO fleet as
//! endpoints, Poisson request arrivals, and the three headline metrics —
//! social-welfare ratio, energy-depleted satellite count and congested
//! link count.
//!
//! * [`scenario`] — named, fully-parameterized experiment configurations
//!   (paper scale and reduced scales for CI);
//! * [`engine`] — deterministic end-to-end runs: build topology, generate
//!   workload, dispatch to an algorithm, collect metrics;
//! * [`journal`] — append-only, checksummed admission journal that
//!   survives torn writes;
//! * [`checkpoint`] — atomic, versioned snapshots of the engine state;
//! * [`durable`] — crash-consistent runs: journal + checkpoints + resume
//!   with verified replay;
//! * [`faultio`] — a fault-injecting journal backend (short writes,
//!   `EINTR`, fsync failure, scripted crashes) for recovery tests;
//! * [`metrics`] — the paper's metrics plus reject-reason, delivered-
//!   welfare and repair accounting;
//! * [`outage`] — slot-boundary discovery of unforeseen failures (the
//!   oracle behind the engine's break/repair loop);
//! * [`output`] — CSV and Markdown emission for the figure harnesses;
//! * [`trace`] — per-request decision records for post-hoc analysis;
//! * [`viz`] — GeoJSON export of snapshots and reservation paths.
//!
//! # Example
//!
//! ```
//! use sb_sim::{engine, scenario::ScenarioConfig, AlgorithmKind};
//!
//! let mut scenario = ScenarioConfig::tiny();
//! scenario.arrivals_per_slot = 2.0;
//! let metrics = engine::run(&scenario, &AlgorithmKind::Ssp, 42);
//! assert!(metrics.social_welfare_ratio >= 0.0);
//! assert!(metrics.social_welfare_ratio <= 1.0);
//! ```

#![warn(missing_docs)]
pub mod checkpoint;
pub mod durable;
pub mod engine;
pub mod faultio;
pub mod journal;
pub mod metrics;
pub mod outage;
pub mod output;
pub mod prepared;
pub mod scenario;
pub mod trace;
pub mod viz;

pub use durable::{run_durable, DurabilityOptions, EngineError, RunOutcome};
pub use engine::AlgorithmKind;
pub use metrics::RunMetrics;
pub use outage::FailureOracle;
pub use prepared::PreparedCache;
pub use scenario::{ScenarioConfig, ShellConfig, UnforeseenFailures};
