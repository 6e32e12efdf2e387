//! CEAR — Congestion and Energy-Aware pricing and resource Reservation —
//! the core contribution of *Space Booking: Enabling Performance-Critical
//! Applications in Broadband Satellite Networks* (ICDCS 2025), plus the
//! baselines it is evaluated against.
//!
//! # The problem
//!
//! Data-transfer requests arrive online at an LSN operator. Each asks for a
//! guaranteed data rate between two users over a window of time slots and
//! carries a valuation — the most the user will pay. The operator must
//! immediately accept (reserving bandwidth on a path per slot and battery
//! energy on every satellite of those paths) or reject, maximizing social
//! welfare subject to link capacities (7b) and battery non-depletion (7c).
//!
//! # The algorithm
//!
//! CEAR prices each resource exponentially in its utilization:
//! `σ_e(T) = c_e(μ₁^{λ_e} − 1)` for link bandwidth and
//! `σ_s(T) = ϖ_s(μ₂^{λ_s} − 1)` for battery deficit, with
//! `μ₁ = 2(n𝕋F₁+1)`, `μ₂ = 2(n𝕋F₂+1)`. The cheapest reservation plan is
//! found per slot by a Dijkstra search whose edge costs combine the
//! bandwidth price with the *deficit-propagated* energy price of Eq. (12);
//! the request is accepted iff the total price is at most its valuation.
//! Under Assumptions 1–2 this is `2·log₂(μ₁μ₂) + 1`-competitive
//! (Theorem 1).
//!
//! # Modules
//!
//! * [`params`] — the pricing parameters `F₁, F₂, n, 𝕋 → μ₁, μ₂` and the
//!   competitive ratio;
//! * [`pricing`] — the exponential price functions (Eqs. 8–12);
//! * [`pricecache`] — memoized unit prices keyed on state change epochs
//!   (the hot-path `powf` becomes a table read, bit-identically), plus the
//!   per-slot price memos of the quote search;
//! * [`state`] — mutable network state: per-slot bandwidth reservations
//!   plus the satellite energy ledger, with atomic plan commits;
//! * [`search`] — the per-slot min-cost path search over
//!   (node × link-type) states, generic over an admissible heuristic;
//!   every algorithm runs its `ZeroHeuristic` instantiation, Dijkstra;
//! * [`plan`] — reservation plans and role extraction;
//! * [`algorithm`] — the [`RoutingAlgorithm`] trait and [`Cear`] itself;
//! * [`adaptive`] — the §V-B feedback loop that retunes `F₂` from
//!   observed battery utilization;
//! * [`lifecycle`] — reservation release and repair under unforeseen
//!   failures (extension): [`RepairPolicy`], [`lifecycle::try_repair`],
//!   [`NetworkState::release_from`];
//! * [`audit`] — the state-conservation auditor: proves the live state
//!   equals the fold of its own booking log, reporting structured
//!   violations (used at slot boundaries under the `strict-audit`
//!   feature);
//! * [`baselines`] — SSP, ECARS, ERU and ERA comparison algorithms;
//! * [`multipath`] — split-on-demand multipath reservations for flows
//!   beyond single-link capacity (extension);
//! * [`offline`] — hindsight references bounding the offline optimum;
//! * [`analysis`] — Assumption 1–2 validators.
//!
//! # Example
//!
//! ```
//! use sb_cear::{Cear, CearParams, NetworkState, RoutingAlgorithm};
//! use sb_demand::{RateProfile, Request, RequestId};
//! use sb_energy::EnergyParams;
//! use sb_orbit::walker::WalkerConstellation;
//! use sb_topology::{NetworkNodes, SlotIndex, TopologyConfig, TopologySeries};
//! use sb_geo::coords::Geodetic;
//!
//! // A small network: 12×12 shell, two ground users. (A 144-satellite
//! // shell needs a lower elevation mask than paper scale for coverage.)
//! let shell = WalkerConstellation::delta(12, 12, 1, 550e3, 53f64.to_radians());
//! let mut nodes = NetworkNodes::from_walker(&shell);
//! let src = nodes.add_ground_site(Geodetic::from_degrees(35.8, -78.6, 0.0));
//! let dst = nodes.add_ground_site(Geodetic::from_degrees(48.9, 2.3, 0.0));
//! let cfg = TopologyConfig { min_elevation_rad: 10f64.to_radians(), ..TopologyConfig::default() };
//! let series = TopologySeries::build(&nodes, &cfg, 4, 60.0);
//! let mut state = NetworkState::new(series, &EnergyParams::default());
//!
//! let request = Request {
//!     id: RequestId(0),
//!     source: src,
//!     destination: dst,
//!     rate: RateProfile::Constant(800.0),
//!     start: SlotIndex(0),
//!     end: SlotIndex(2),
//!     valuation: 2.3e9,
//! };
//! let mut cear = Cear::new(CearParams::default());
//! let decision = cear.process(&request, &mut state);
//! assert!(decision.is_accepted());
//! ```

#![warn(missing_docs)]
pub mod adaptive;
pub mod algorithm;
pub mod analysis;
pub mod audit;
pub mod baselines;
pub mod lifecycle;
pub mod multipath;
pub mod offline;
pub mod params;
pub mod plan;
pub mod pricecache;
pub mod pricing;
pub mod search;
pub mod state;

pub use adaptive::{AdaptiveCear, AdaptivePolicy};
pub use algorithm::{AblationFlags, Cear, Decision, QuoteStats, RejectReason, RoutingAlgorithm};
pub use audit::{audit, AuditReport, AuditViolation};
pub use baselines::{Ecars, Era, Eru, Ssp};
pub use lifecycle::{repair, try_repair, KnownFailures, RepairOutcome, RepairPolicy};
pub use multipath::MultipathCear;
pub use params::CearParams;
pub use plan::{ReservationPlan, SlotPath};
pub use pricecache::PriceCache;
pub use search::{SearchScratch, SearchStats};
pub use state::{BookingId, CommitError, EpochReadSet, NetworkState};

// ---- Compatibility with the frozen `crates/benchmark` ------------------
//
// The shortest-path-tree cache and speculative slot-parallel quoting are
// deleted (EXPERIMENTS.md, "Removed: the SPT cache and speculative
// quoting"), but `crates/benchmark` still reports `core.spt_*` and
// `core.parquote_*` through the names below and may only change in a PR
// of its own. Until then they are inert: the counters read 0 and the
// thread count is ignored, so `core.spt_hit_frac` is 0 and
// `core.parquote_speedup` ≈ 1, which is what is true. The `--search` knob
// is deleted too (EXPERIMENTS.md, "Removed: hop-bound A\* in the product"),
// and the frozen sweep still writes `Cear::with_search(exec.search)`.
// Follow-up (`benchmark` archetype): drop `core.spt_*` and
// `core.parquote_*` from BENCHMARK.json and the `exec` plumbing from
// `crates/benchmark`, then delete this block, the three hidden fields of
// `QuoteStats` and the compat block of `sb-sim`'s `engine.rs`.

/// Always zero: there is no tree cache to count.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SptStats {
    pub hits: u64,
    pub misses: u64,
    pub deferred: u64,
}

impl SptStats {
    #[doc(hidden)]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses + self.deferred
    }
}

/// Always zero.
#[doc(hidden)]
pub fn global_spt_stats() -> SptStats {
    SptStats::default()
}

/// Does nothing.
#[doc(hidden)]
pub fn reset_global_spt_stats() {}

/// The type of the `search` field in `sb-sim`'s compat block: there is one
/// kernel and nothing to select.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchCompat;

impl Cear {
    /// Ignores `threads`: every quote is serial.
    #[doc(hidden)]
    pub fn with_quote_threads(self, _threads: usize) -> Self {
        self
    }

    /// Ignores its argument: every quote runs the one kernel.
    #[doc(hidden)]
    pub fn with_search(self, _search: SearchCompat) -> Self {
        self
    }
}
