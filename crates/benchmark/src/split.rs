//! [`RoutingAlgorithm`] wrappers that time each request from outside.
//!
//! [`Timed`] brackets any algorithm's `process`. [`SplitCear`] re-states
//! `Cear::process` from its three public parts — [`Cear::quote`], the
//! `price > valuation` test and [`NetworkState::try_commit_plan`] — so the
//! quote and the commit get their own spans. It must stay `Cear::process`
//! line for line; `tests/split_cear.rs` holds it to that by comparing whole
//! `RunMetrics`.

use crate::trace::Tracer;
use sb_cear::{
    Cear, Decision, KnownFailures, NetworkState, RejectReason, ReservationPlan, RoutingAlgorithm,
};
use sb_demand::Request;
use std::time::Instant;

/// Times every `process` call of the wrapped algorithm.
pub struct Timed<'a, A: RoutingAlgorithm + ?Sized> {
    inner: Box<A>,
    tracer: &'a Tracer,
    /// Nanoseconds each `process` call took, in call order.
    pub process_ns: Vec<u64>,
}

impl<'a, A: RoutingAlgorithm + ?Sized> Timed<'a, A> {
    /// Wraps `inner`, recording a `core.process` span per call into
    /// `tracer` when it is enabled.
    pub fn new(inner: Box<A>, tracer: &'a Tracer) -> Self {
        Timed { inner, tracer, process_ns: Vec::new() }
    }

    /// The wrapped algorithm.
    pub fn inner(&self) -> &A {
        &self.inner
    }
}

impl<A: RoutingAlgorithm + ?Sized> RoutingAlgorithm for Timed<'_, A> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn process(&mut self, request: &Request, state: &mut NetworkState) -> Decision {
        let open = self.tracer.begin("core.process", u64::from(request.id.0));
        let started = Instant::now();
        let decision = self.inner.process(request, state);
        self.process_ns.push(started.elapsed().as_nanos() as u64);
        self.tracer.end(open);
        decision
    }

    fn quote_plan(
        &self,
        request: &Request,
        state: &NetworkState,
        known: Option<&KnownFailures>,
    ) -> Result<(ReservationPlan, f64), RejectReason> {
        self.inner.quote_plan(request, state, known)
    }
}

/// CEAR with the quote and the commit timed apart.
pub struct SplitCear<'a> {
    cear: Cear,
    tracer: &'a Tracer,
    /// Nanoseconds each quote took, in call order.
    pub quote_ns: Vec<u64>,
    /// Active slots of the request behind each entry of `quote_ns`.
    pub quote_slots: Vec<u32>,
    /// Nanoseconds each `try_commit_plan` took (admitted or refused at
    /// commit; requests rejected earlier never reach it).
    pub commit_ns: Vec<u64>,
}

impl<'a> SplitCear<'a> {
    /// Splits `cear`, recording `core.quote` / `core.commit` spans into
    /// `tracer` when it is enabled.
    pub fn new(cear: Cear, tracer: &'a Tracer) -> Self {
        SplitCear {
            cear,
            tracer,
            quote_ns: Vec::new(),
            quote_slots: Vec::new(),
            commit_ns: Vec::new(),
        }
    }

    /// The wrapped instance (for its `quote_stats`).
    pub fn cear(&self) -> &Cear {
        &self.cear
    }
}

impl RoutingAlgorithm for SplitCear<'_> {
    fn name(&self) -> &'static str {
        self.cear.name()
    }

    fn process(&mut self, request: &Request, state: &mut NetworkState) -> Decision {
        let id = u64::from(request.id.0);
        let started = Instant::now();
        let quoted = self.cear.quote(request, state);
        let quoted_at = Instant::now();
        self.tracer.record("core.quote", id, started, quoted_at);
        self.quote_ns.push((quoted_at - started).as_nanos() as u64);
        self.quote_slots.push(request.duration_slots() as u32);
        let (plan, price) = match quoted {
            Ok(found) => found,
            Err(reason) => return Decision::Rejected { reason },
        };

        // Algorithm 1 line 6: admission control.
        if self.cear.ablation().admission_control && price > request.valuation {
            return Decision::Rejected { reason: RejectReason::PriceAboveValuation };
        }

        let started = Instant::now();
        let committed = state.try_commit_plan(request, &plan);
        let committed_at = Instant::now();
        self.tracer.record("core.commit", id, started, committed_at);
        self.commit_ns.push((committed_at - started).as_nanos() as u64);
        match committed {
            Ok(()) => Decision::Accepted { plan, price },
            Err(_) => Decision::Rejected { reason: RejectReason::CommitFailed },
        }
    }

    fn quote_plan(
        &self,
        request: &Request,
        state: &NetworkState,
        known: Option<&KnownFailures>,
    ) -> Result<(ReservationPlan, f64), RejectReason> {
        self.cear.quote_avoiding(request, state, known)
    }
}
