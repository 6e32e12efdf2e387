//! `sb-benchmark` — the repository's one benchmark.
//!
//! CEAR is one loop — price, search per slot, compare to ρ, commit — and
//! this repository runs it three ways: as a batch figure sweep, at
//! 10k-satellite scale, and as the durable online service. Users of a
//! booking system feel two things: how fast a booking is answered under
//! load, and how long a study takes. The four workloads here report
//! exactly that, end to end, and a traced run of each attributes it to
//! the layers, always **from outside**: by timing calls into the other
//! crates' public functions.
//!
//! * [`workloads`] — `sweep_paper12`, `topo_mega`, `serve_open`,
//!   `serve_durable`, and the end-to-end metric definitions they share;
//! * [`probe`] — the per-layer kernels a traced run adds;
//! * [`trace`] — in-memory spans, self time, Chrome-trace output;
//! * [`split`] — `RoutingAlgorithm` wrappers that time requests, and
//!   `SplitCear`, CEAR with quote and commit timed apart;
//! * [`openloop`] — scheduled load measured from the due time;
//! * [`bed`] — scenarios and the frozen sizes;
//! * [`metrics`] — medians, the tail-percentile rule, the result digest;
//! * [`spec`] / [`check`] — `BENCHMARK.json` and the regression check;
//! * [`host`] — the host block and the refusal to measure a program with
//!   an optimisation switched off.
//!
//! See `README.md` for the command, the glossary and how to compare two
//! commits.

#![warn(missing_docs)]

pub mod bed;
pub mod check;
pub mod host;
pub mod metrics;
pub mod openloop;
pub mod probe;
pub mod spec;
pub mod split;
pub mod trace;
pub mod workloads;
