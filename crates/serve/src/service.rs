//! The admission service: parallel optimistic quoting, a single ordering
//! committer with epoch revalidation, WAL-before-ack durability, and
//! overload shedding.
//!
//! # Threading model
//!
//! * `workers` quote threads pop submitted requests in submission order,
//!   price them with a cached [`Cear`] under a **read** lock on the shared
//!   [`NetworkState`], and stage the result together with the
//!   [`EpochReadSet`] the search touched.
//! * One committer thread decides **strictly in submission order**, on
//!   one of two paths. A staged quote whose read set is still current is
//!   committed as it stands (the committer is the only state mutator, so
//!   a quote validated current commits atomically). Otherwise — the quote
//!   was invalidated by an earlier commit, or nothing was staged because
//!   the service is in degraded mode or the workers have exited — the
//!   committer quotes the request itself under the **write** lock and
//!   commits without releasing it. Either way it appends the decision to
//!   the WAL, fsyncs, and only then resolves the client's ticket.
//!
//! The committed decision stream is therefore exactly what a serial CEAR
//! loop would produce over the same requests in submission order, and
//! when nothing is shed the WAL bytes are a function of that order alone.
//! Only *sheds* (queue overflow, lapsed deadlines) are load-dependent,
//! and each one is WAL-logged so recovery replays rather than re-derives
//! it. A service without a deadline never asks what time it is; its two
//! timed waits only bound how long a thread sleeps.

use crate::{ServeConfig, ServeError};
use sb_cear::{Cear, EpochReadSet, NetworkState, RejectReason, ReservationPlan};
use sb_demand::{Request, RequestId};
use sb_sim::checkpoint;
use sb_sim::journal::{Journal, JournalRecord, ShedReason};
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type QuoteResult = Result<(ReservationPlan, f64), RejectReason>;

/// How the service answered one request.
#[derive(Debug, Clone, PartialEq)]
pub enum AckBody {
    /// Admitted: resources are reserved and the decision is durable.
    Admitted {
        /// The price charged.
        price: f64,
        /// The committed plan (mirrors what the WAL records).
        plan: ReservationPlan,
    },
    /// Rejected by the algorithm (no path, price above valuation, or
    /// failed atomic commit validation).
    Rejected {
        /// Why.
        reason: RejectReason,
    },
    /// Dropped by load shedding without a quote-based decision.
    Shed {
        /// Why.
        reason: ShedReason,
    },
}

/// A durable answer to one submission: by the time an `Ack` is observable
/// the matching WAL record has been written and fsynced.
#[derive(Debug, Clone, PartialEq)]
pub struct Ack {
    /// Submission sequence number (commit order).
    pub seq: u64,
    /// The request this answers.
    pub request_id: RequestId,
    /// The decision.
    pub body: AckBody,
}

/// One-shot mailbox a submission's answer arrives in.
#[derive(Debug, Default)]
struct AckSlot {
    value: Mutex<Option<Result<Ack, String>>>,
    cv: Condvar,
}

impl AckSlot {
    /// First resolution wins; later calls are ignored (idempotent).
    fn resolve(&self, res: Result<Ack, String>) {
        let mut v = self.value.lock().unwrap();
        if v.is_none() {
            *v = Some(res);
            self.cv.notify_all();
        }
    }
}

/// Handle to one in-flight submission; redeem with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    /// The submission's sequence number.
    pub seq: u64,
    slot: Arc<AckSlot>,
}

impl Ticket {
    /// Blocks until the service decides (or dies).
    ///
    /// # Errors
    ///
    /// [`ServeError::Dead`] if the service halted on a WAL/checkpoint
    /// failure before deciding this request.
    pub fn wait(self) -> Result<Ack, ServeError> {
        let mut v = self.slot.value.lock().unwrap();
        loop {
            if let Some(res) = v.take() {
                return res.map_err(ServeError::Dead);
            }
            v = self.slot.cv.wait(v).unwrap();
        }
    }
}

/// Service counters, all monotone over the service's lifetime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests accepted into the queue (sheds included).
    pub submitted: u64,
    /// Admissions committed and WAL'd.
    pub admitted: u64,
    /// Rejections: no feasible path.
    pub rejected_no_path: u64,
    /// Rejections: price above valuation.
    pub rejected_price: u64,
    /// Rejections: failed atomic commit validation.
    pub rejected_commit: u64,
    /// Sheds: bounded queue overflowed.
    pub shed_queue_full: u64,
    /// Sheds: service deadline lapsed before the commit turn.
    pub shed_deadline: u64,
    /// Always 0: no request is shed for a stale quote.
    pub shed_retries: u64,
    /// Quotes found stale at commit time.
    pub conflicts: u64,
    /// Stale quotes the committer redid in place (always equal to
    /// `conflicts`).
    pub requotes: u64,
    /// Transitions into degraded (committer-serial) mode.
    pub degraded_entries: u64,
    /// Requests the committer quoted with nothing staged (degraded mode
    /// or drain tail after the workers exited).
    pub degraded_quotes: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Highest undecided-request count observed at submission.
    pub max_occupancy: u64,
}

impl ServeStats {
    /// Total decisions written to the WAL.
    pub fn decisions(&self) -> u64 {
        self.admitted
            + self.rejected_no_path
            + self.rejected_price
            + self.rejected_commit
            + self.shed_queue_full
            + self.shed_deadline
    }
}

/// What [`AdmissionService::drain`] hands back once every thread has
/// exited.
#[derive(Debug)]
pub struct DrainReport {
    /// Final counters.
    pub stats: ServeStats,
    /// The final network state (every WAL'd admission applied).
    pub state: NetworkState,
    /// `Some(message)` if the service died on a WAL/checkpoint failure
    /// instead of draining cleanly.
    pub failure: Option<String>,
}

/// One undecided request travelling through the service.
struct Job {
    seq: u64,
    request: Request,
    deadline: Option<Instant>,
    ack: Arc<AckSlot>,
}

/// A job the workers have finished with, waiting for its commit turn.
enum Staged {
    /// Quoted optimistically; `reads` must still be current at commit.
    Quoted { job: Job, result: QuoteResult, reads: EpochReadSet },
    /// Already shed (queue overflow or lapsed deadline); the committer
    /// WALs and acks it when its turn comes, preserving order.
    Shed { job: Job, reason: ShedReason },
}

impl Staged {
    fn into_job(self) -> Job {
        match self {
            Staged::Quoted { job, .. } | Staged::Shed { job, .. } => job,
        }
    }
}

/// Queue state behind the mutex.
struct Q {
    /// Submitted, not yet taken by a worker or the committer; ascending
    /// `seq`.
    pending: VecDeque<Job>,
    staged: BTreeMap<u64, Staged>,
    /// Next sequence number to hand out.
    next_seq: u64,
    /// Sequence number the committer is waiting to decide.
    next_commit: u64,
    draining: bool,
    /// `Some(message)` once the service has died.
    dead: Option<String>,
    degraded: bool,
    live_workers: usize,
    stats: ServeStats,
}

impl Q {
    /// Requests submitted but not yet decided (in flight anywhere).
    fn occupancy(&self) -> usize {
        (self.next_seq - self.next_commit) as usize
    }
}

struct Shared {
    state: RwLock<NetworkState>,
    q: Mutex<Q>,
    /// Wakes quote workers (new pending work, mode change, drain).
    work_cv: Condvar,
    /// Wakes the committer (staged result, new submission, drain).
    commit_cv: Condvar,
    cfg: ServeConfig,
}

/// Value density used to pick queue-overflow victims: valuation per
/// unit of (peak rate × duration). Requests that ask for nothing are
/// never shed first.
fn value_density(request: &Request) -> f64 {
    let demand = request.rate.peak_rate() * request.duration_slots() as f64;
    if demand > 0.0 {
        request.valuation / demand
    } else {
        f64::INFINITY
    }
}

/// A fault-tolerant online admission service over one [`NetworkState`].
///
/// Start with [`AdmissionService::start`], feed it with
/// [`AdmissionService::submit`] / [`AdmissionService::submit_blocking`],
/// stop with [`AdmissionService::drain`]. See the module docs for the
/// threading model and durability contract.
pub struct AdmissionService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    committer: Option<JoinHandle<()>>,
}

impl AdmissionService {
    /// Starts the service over `state`, journaling every decision to
    /// `journal` (a `RunStart` is written first when the journal is
    /// empty). `already_decided` is the number of decisions the caller
    /// replayed into `state` before handing it over (0 for a fresh run);
    /// it seeds the checkpoint cadence and numbering. When
    /// `checkpoint_dir` is `Some` and `cfg.checkpoint_every > 0`, a
    /// [`sb_sim::checkpoint`] snapshot is written every that many
    /// decisions.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] on an invalid `cfg`, [`ServeError::Io`] if
    /// the initial `RunStart` cannot be written.
    pub fn start(
        state: NetworkState,
        mut journal: Journal,
        cfg: ServeConfig,
        checkpoint_dir: Option<PathBuf>,
        already_decided: u64,
    ) -> Result<AdmissionService, ServeError> {
        cfg.validate()?;
        if journal.is_empty() {
            journal.append(&JournalRecord::RunStart {
                config_digest: cfg.digest,
                algorithm: "sb-serve".to_owned(),
                seed: cfg.seed,
                horizon: state.horizon() as u32,
            })?;
        }
        let shared = Arc::new(Shared {
            state: RwLock::new(state),
            q: Mutex::new(Q {
                pending: VecDeque::new(),
                staged: BTreeMap::new(),
                next_seq: already_decided,
                next_commit: already_decided,
                draining: false,
                dead: None,
                degraded: false,
                live_workers: cfg.workers,
                stats: ServeStats::default(),
            }),
            work_cv: Condvar::new(),
            commit_cv: Condvar::new(),
            cfg: cfg.clone(),
        });
        let workers = (0..cfg.workers)
            .map(|_| {
                // Built here, not on the worker: the price cache is the
                // worker's one large allocation, and memory a short-lived
                // thread allocates stays with that thread's malloc arena
                // after the service is gone.
                let cear = Cear::sized_for(cfg.params, &shared.state.read().unwrap());
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    worker_loop(&shared, cear);
                    let mut q = shared.q.lock().unwrap();
                    q.live_workers -= 1;
                    shared.commit_cv.notify_all();
                })
            })
            .collect();
        let committer = {
            let shared = Arc::clone(&shared);
            let core = Committer {
                shared,
                journal,
                checkpoint_dir,
                reference: Cear::reference(cfg.params),
                decided: already_decided,
                since_checkpoint: 0,
            };
            Some(std::thread::spawn(move || core.run()))
        };
        Ok(AdmissionService { shared, workers, committer })
    }

    /// Submits one request, returning a [`Ticket`] immediately. When the
    /// queue is at capacity the lowest value-density candidate (this
    /// request or a pending one) is shed with [`ShedReason::QueueFull`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Dead`] after the service has halted,
    /// [`ServeError::Draining`] after [`AdmissionService::drain`] began.
    pub fn submit(&self, request: Request) -> Result<Ticket, ServeError> {
        let cfg = &self.shared.cfg;
        let deadline = cfg.deadline.map(|d| Instant::now() + d);
        let mut q = self.shared.q.lock().unwrap();
        if let Some(msg) = &q.dead {
            return Err(ServeError::Dead(msg.clone()));
        }
        if q.draining {
            return Err(ServeError::Draining);
        }
        let seq = q.next_seq;
        q.next_seq += 1;
        q.stats.submitted += 1;
        let occupancy = q.occupancy();
        q.stats.max_occupancy = q.stats.max_occupancy.max(occupancy as u64);
        let slot = Arc::new(AckSlot::default());
        let job = Job { seq, request, deadline, ack: Arc::clone(&slot) };
        if occupancy > cfg.queue_depth {
            // Overflow: shed the lowest value-density candidate. Only
            // still-pending jobs compete with the incoming one — staged
            // and in-flight jobs are already being worked on. Ties keep
            // the established job (its quote work is sunk cost).
            let incoming = value_density(&job.request);
            let victim = q
                .pending
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    value_density(&a.request).total_cmp(&value_density(&b.request))
                })
                .map(|(i, j)| (i, value_density(&j.request)));
            match victim {
                Some((i, density)) if density < incoming => {
                    let shed = q.pending.remove(i).expect("victim index in range");
                    q.staged.insert(
                        shed.seq,
                        Staged::Shed { job: shed, reason: ShedReason::QueueFull },
                    );
                    q.pending.push_back(job);
                }
                _ => {
                    q.staged.insert(seq, Staged::Shed { job, reason: ShedReason::QueueFull });
                }
            }
        } else {
            q.pending.push_back(job);
        }
        drop(q);
        self.shared.work_cv.notify_all();
        self.shared.commit_cv.notify_all();
        Ok(Ticket { seq, slot })
    }

    /// [`AdmissionService::submit`] followed by [`Ticket::wait`].
    ///
    /// # Errors
    ///
    /// As for [`AdmissionService::submit`] and [`Ticket::wait`].
    pub fn submit_blocking(&self, request: Request) -> Result<Ack, ServeError> {
        self.submit(request)?.wait()
    }

    /// Snapshot of the live counters.
    pub fn stats(&self) -> ServeStats {
        self.shared.q.lock().unwrap().stats.clone()
    }

    /// `true` once the service has halted on a WAL/checkpoint failure.
    pub fn is_dead(&self) -> bool {
        self.shared.q.lock().unwrap().dead.is_some()
    }

    /// Graceful shutdown: stops accepting submissions, decides everything
    /// already queued, joins all threads, and returns the final state.
    pub fn drain(mut self) -> DrainReport {
        {
            let mut q = self.shared.q.lock().unwrap();
            q.draining = true;
        }
        self.shared.work_cv.notify_all();
        self.shared.commit_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.committer.take() {
            let _ = h.join();
        }
        let (stats, failure) = {
            let q = self.shared.q.lock().unwrap();
            (q.stats.clone(), q.dead.clone())
        };
        let state = match Arc::try_unwrap(self.shared) {
            Ok(shared) => shared.state.into_inner().unwrap(),
            // A leaked clone of the shared handle (impossible today, but
            // cheap to tolerate): fall back to copying the state out.
            Err(shared) => shared.state.read().unwrap().clone(),
        };
        DrainReport { stats, state, failure }
    }

    /// Test hook: hold the state write lock to freeze both quoting and
    /// committing, making overload deterministic.
    #[cfg(test)]
    pub(crate) fn freeze_state(&self) -> std::sync::RwLockWriteGuard<'_, NetworkState> {
        self.shared.state.write().unwrap()
    }
}

/// One quote worker: pop → price under the read lock (with the `cear` it
/// was given) → stage.
fn worker_loop(shared: &Arc<Shared>, cear: Cear) {
    loop {
        let job = {
            let mut q = shared.q.lock().unwrap();
            loop {
                if q.dead.is_some() {
                    return;
                }
                if !q.degraded {
                    if let Some(job) = q.pending.pop_front() {
                        break job;
                    }
                }
                if q.draining && q.pending.is_empty() {
                    return;
                }
                // Everything awaited here notifies `work_cv`; the timeout
                // is kept because it measures faster end to end than a
                // plain wait on the closed loop (EXPERIMENTS.md, PR 23).
                let (qq, _) = shared.work_cv.wait_timeout(q, Duration::from_micros(200)).unwrap();
                q = qq;
            }
        };
        let (result, reads) = {
            let state = shared.state.read().unwrap();
            cear.quote_recording(&job.request, &state)
        };
        let mut q = shared.q.lock().unwrap();
        if let Some(msg) = q.dead.clone() {
            drop(q);
            job.ack.resolve(Err(msg));
            return;
        }
        q.staged.insert(job.seq, Staged::Quoted { job, result, reads });
        drop(q);
        shared.commit_cv.notify_all();
    }
}

/// What the committer's turn starts from.
enum Work {
    Staged(Staged),
    /// Nothing staged (degraded mode, or the workers already exited
    /// during drain): the committer quotes for itself.
    SelfServe(Job),
}

struct Committer {
    shared: Arc<Shared>,
    journal: Journal,
    checkpoint_dir: Option<PathBuf>,
    /// Uncached CEAR for committer-serial quotes — bit-identical to the
    /// workers' cached quotes (see `sb_cear`'s
    /// `cached_quotes_match_reference_bitwise`), so which path decides a
    /// request never changes the decision.
    reference: Cear,
    decided: u64,
    since_checkpoint: u64,
}

impl Committer {
    fn run(mut self) {
        while let Some(work) = self.next_work() {
            if !self.handle(work) {
                return;
            }
        }
    }

    /// Blocks until the next-in-order job is actionable; `None` once the
    /// service has drained or died.
    fn next_work(&mut self) -> Option<Work> {
        let cfg = &self.shared.cfg;
        let mut q = self.shared.q.lock().unwrap();
        loop {
            if q.dead.is_some() {
                return None;
            }
            if cfg.deadline.is_some() {
                mark_expired(&mut q, Instant::now());
            }
            update_degraded(cfg, &mut q, &self.shared.work_cv);
            let turn = q.next_commit;
            if let Some(staged) = q.staged.remove(&turn) {
                return Some(Work::Staged(staged));
            }
            if q.draining && q.next_commit == q.next_seq {
                return None;
            }
            // `pending` ascends in `seq` and everything below `turn` is
            // decided, so an unclaimed `turn` can only be at the front.
            if (q.degraded || q.live_workers == 0)
                && q.pending.front().is_some_and(|j| j.seq == turn)
            {
                q.stats.degraded_quotes += 1;
                return q.pending.pop_front().map(Work::SelfServe);
            }
            // Timed: deadline expiry is the one thing nobody notifies.
            let (qq, _) =
                self.shared.commit_cv.wait_timeout(q, Duration::from_micros(200)).unwrap();
            q = qq;
        }
    }

    /// Decides one turn. Returns `false` once the service has died.
    fn handle(&mut self, work: Work) -> bool {
        let (job, quoted) = match work {
            Work::Staged(Staged::Shed { job, reason }) => {
                return self.finalize(job, AckBody::Shed { reason });
            }
            Work::Staged(Staged::Quoted { job, result, reads }) => (job, Some((result, reads))),
            Work::SelfServe(job) => (job, None),
        };
        let body = self.decide(&job, quoted);
        self.finalize(job, body)
    }

    /// Turns a request into a decision: a staged quote whose read set is
    /// still current is used as it stands; a stale or missing one is
    /// redone here under the write lock, which is then held through the
    /// commit (no conflict window at all). Then admission control and the
    /// atomic commit. The committer is the sole mutator, so a quote found
    /// current cannot go stale before the commit takes the write lock.
    fn decide(&self, job: &Job, quoted: Option<(QuoteResult, EpochReadSet)>) -> AckBody {
        if job.deadline.is_some_and(|d| Instant::now() >= d) {
            return AckBody::Shed { reason: ShedReason::DeadlineExceeded };
        }
        let state = &self.shared.state;
        let current = quoted.and_then(|(result, reads)| {
            if reads.is_current(&state.read().unwrap()) {
                return Some(result);
            }
            let mut q = self.shared.q.lock().unwrap();
            q.stats.conflicts += 1;
            q.stats.requotes += 1;
            None
        });
        let (result, held) = match current {
            Some(result) => (result, None),
            None => {
                let guard = state.write().unwrap();
                (self.reference.quote(&job.request, &guard), Some(guard))
            }
        };
        let (plan, price) = match result {
            Ok(quote) => quote,
            Err(reason) => return AckBody::Rejected { reason },
        };
        if price > job.request.valuation {
            return AckBody::Rejected { reason: RejectReason::PriceAboveValuation };
        }
        let mut guard = held.unwrap_or_else(|| state.write().unwrap());
        match guard.try_commit_plan(&job.request, &plan) {
            Ok(()) => AckBody::Admitted { price, plan },
            Err(_) => AckBody::Rejected { reason: RejectReason::CommitFailed },
        }
    }

    /// WAL → advance → ack → checkpoint, in that order. Returns `false`
    /// once the service has died.
    fn finalize(&mut self, job: Job, body: AckBody) -> bool {
        // `attempts_left` is the batch engine's retry counter; the
        // service never retries, so it writes 0.
        let start = job.request.start.0;
        let record = match &body {
            AckBody::Admitted { price, plan } => JournalRecord::Admission {
                slot: start,
                original_arrival: start,
                attempts_left: 0,
                request: job.request.clone(),
                price: *price,
                slot_paths: plan.slot_paths.clone(),
            },
            AckBody::Rejected { reason } => JournalRecord::Rejection {
                slot: start,
                original_arrival: start,
                attempts_left: 0,
                request_id: job.request.id.0,
                reason: *reason,
            },
            AckBody::Shed { reason } => {
                JournalRecord::Shed { request_id: job.request.id.0, reason: *reason }
            }
        };
        if let Err(e) = self.journal.append(&record) {
            self.die(format!("WAL append failed: {e}"), Some(job));
            return false;
        }
        self.decided += 1;
        self.since_checkpoint += 1;
        {
            let mut q = self.shared.q.lock().unwrap();
            q.next_commit += 1;
            match &body {
                AckBody::Admitted { .. } => q.stats.admitted += 1,
                AckBody::Rejected { reason } => match reason {
                    RejectReason::NoFeasiblePath => q.stats.rejected_no_path += 1,
                    RejectReason::PriceAboveValuation => q.stats.rejected_price += 1,
                    RejectReason::CommitFailed => q.stats.rejected_commit += 1,
                },
                AckBody::Shed { reason } => match reason {
                    ShedReason::QueueFull => q.stats.shed_queue_full += 1,
                    ShedReason::DeadlineExceeded => q.stats.shed_deadline += 1,
                },
            }
            update_degraded(&self.shared.cfg, &mut q, &self.shared.work_cv);
        }
        self.shared.work_cv.notify_all();
        self.shared.commit_cv.notify_all();
        job.ack.resolve(Ok(Ack { seq: job.seq, request_id: job.request.id, body }));
        self.maybe_checkpoint()
    }

    /// Writes a checkpoint when one is due. The decision that triggered
    /// it is already durable and acked, so a checkpoint failure only
    /// kills the service for *future* requests.
    fn maybe_checkpoint(&mut self) -> bool {
        let every = self.shared.cfg.checkpoint_every;
        let Some(dir) = self.checkpoint_dir.clone() else { return true };
        if every == 0 || self.since_checkpoint < every {
            return true;
        }
        self.since_checkpoint = 0;
        let payload = {
            let state = self.shared.state.read().unwrap();
            crate::wal::encode_checkpoint_payload(self.decided, &state)
        };
        let written = checkpoint::write(
            &dir,
            self.decided as u32,
            self.shared.cfg.digest,
            self.journal.len(),
            &payload,
        );
        match written {
            Ok(_) => {
                self.shared.q.lock().unwrap().stats.checkpoints += 1;
                true
            }
            Err(e) => {
                self.die(format!("checkpoint write failed: {e}"), None);
                false
            }
        }
    }

    /// Marks the service dead and resolves every outstanding ticket with
    /// the failure, so no client blocks forever. `victim` is the job being
    /// decided when the failure struck, whose ticket is no longer in the
    /// queue. The service is marked dead under the queue lock *before* any
    /// ticket resolves, so a client woken by its failed ticket already
    /// reads `is_dead()`.
    fn die(&mut self, msg: String, victim: Option<Job>) {
        let mut q = self.shared.q.lock().unwrap();
        q.dead = Some(msg.clone());
        for job in victim.into_iter().chain(q.pending.drain(..)) {
            job.ack.resolve(Err(msg.clone()));
        }
        for (_, staged) in std::mem::take(&mut q.staged) {
            staged.into_job().ack.resolve(Err(msg.clone()));
        }
        drop(q);
        self.shared.work_cv.notify_all();
        self.shared.commit_cv.notify_all();
    }
}

/// Moves every deadline-lapsed pending job into the staged map as a
/// [`ShedReason::DeadlineExceeded`] shed (WAL'd in order like any other
/// decision).
fn mark_expired(q: &mut Q, now: Instant) {
    let mut i = 0;
    while i < q.pending.len() {
        if q.pending[i].deadline.is_some_and(|d| now >= d) {
            let job = q.pending.remove(i).expect("index in range");
            q.staged.insert(job.seq, Staged::Shed { job, reason: ShedReason::DeadlineExceeded });
        } else {
            i += 1;
        }
    }
    // Quoted-but-expired *staged* entries are shed when their commit
    // turn comes (see `Committer::handle`); sheds staged here stay sheds.
}

/// Degraded-mode hysteresis: enter at `degraded_enter` undecided
/// requests, leave at `degraded_exit`.
fn update_degraded(cfg: &ServeConfig, q: &mut Q, work_cv: &Condvar) {
    let occupancy = q.occupancy();
    if !q.degraded && occupancy >= cfg.degraded_enter {
        q.degraded = true;
        q.stats.degraded_entries += 1;
    } else if q.degraded && occupancy <= cfg.degraded_exit {
        q.degraded = false;
        work_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{build_net, request, serial_decide, snapshot, stream};
    use sb_cear::CearParams;
    use sb_sim::faultio::{FaultIo, FaultPlan};
    use sb_sim::journal;

    const DIGEST: u64 = 0x00D1_6E57;

    fn mem_journal(plan: FaultPlan) -> (Journal, FaultIo) {
        let io = FaultIo::new(plan);
        let handle = io.clone();
        (Journal::from_io(Box::new(io)), handle)
    }

    fn cfg(workers: usize) -> ServeConfig {
        let mut cfg = ServeConfig::new(DIGEST, 0);
        cfg.workers = workers;
        cfg
    }

    /// Open-loop at 4 workers: every ack — and the final state — must
    /// equal a serial CEAR pass over the same requests in submission
    /// order, and replaying the durable WAL must rebuild that state
    /// bit-identically.
    #[test]
    fn open_loop_acks_match_serial_cear() {
        let net = build_net(8);
        let requests = stream(net.src, net.dst, 8, 24, 7);
        let (journal, io) = mem_journal(FaultPlan::none());
        let service = AdmissionService::start(net.state.clone(), journal, cfg(4), None, 0).unwrap();
        let tickets: Vec<_> = requests.iter().map(|r| service.submit(r.clone()).unwrap()).collect();
        let acks: Vec<Ack> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        let report = service.drain();
        assert_eq!(report.failure, None);

        let serial = Cear::new(CearParams::default());
        let mut serial_state = net.state.clone();
        for (i, (req, ack)) in requests.iter().zip(&acks).enumerate() {
            assert_eq!(ack.seq, i as u64);
            assert_eq!(ack.request_id, req.id);
            let expect = serial_decide(&serial, &mut serial_state, req);
            assert_eq!(ack.body, expect, "request #{i}");
        }
        assert_eq!(snapshot(&report.state), snapshot(&serial_state));
        assert_eq!(report.stats.decisions(), requests.len() as u64);
        assert_eq!(report.stats.shed_queue_full, 0);
        assert_eq!(report.stats.shed_deadline, 0);

        let scan = journal::scan_bytes(&io.durable_bytes());
        assert_eq!(scan.discarded_tail_bytes, 0);
        let recovered = crate::wal::replay(net.state, 0, &scan.records, DIGEST).unwrap();
        assert_eq!(recovered.decided, requests.len() as u64);
        assert_eq!(snapshot(&recovered.state), snapshot(&report.state));
    }

    /// With a zero deadline every request expires before its commit turn:
    /// all are shed, each shed is WAL'd, and the state is untouched.
    #[test]
    fn zero_deadline_sheds_every_request() {
        let net = build_net(6);
        let requests = stream(net.src, net.dst, 6, 5, 11);
        let (journal, io) = mem_journal(FaultPlan::none());
        let mut c = cfg(2);
        c.deadline = Some(Duration::ZERO);
        let service = AdmissionService::start(net.state.clone(), journal, c, None, 0).unwrap();
        let tickets: Vec<_> = requests.iter().map(|r| service.submit(r.clone()).unwrap()).collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let ack = t.wait().unwrap();
            assert_eq!(
                ack.body,
                AckBody::Shed { reason: ShedReason::DeadlineExceeded },
                "request #{i}"
            );
        }
        let report = service.drain();
        assert_eq!(report.failure, None);
        assert_eq!(report.stats.shed_deadline, requests.len() as u64);
        assert_eq!(snapshot(&report.state), snapshot(&net.state));
        let scan = journal::scan_bytes(&io.durable_bytes());
        assert_eq!(scan.records.len(), 1 + requests.len()); // RunStart + sheds
    }

    /// Queue overflow sheds the lowest value-density candidate: pending
    /// victims make room for denser arrivals, a sparser arrival is itself
    /// shed, and the survivors decide exactly as a serial pass over them.
    /// The state write lock is held during submission so occupancy (and
    /// therefore victim selection) is deterministic.
    #[test]
    fn queue_overflow_sheds_lowest_value_density() {
        let net = build_net(6);
        // One active slot at 100 Mbps → value density = valuation / 100.
        let by_density = |id: u32, d: f64| request(id, net.src, net.dst, 100.0, 1, 1, d * 100.0);
        let requests = [
            by_density(0, 1e6), // densest: never a victim
            by_density(1, 1.0), // shed when #3 arrives
            by_density(2, 2.0), // shed when #4 arrives
            by_density(3, 10.0),
            by_density(4, 10.0),
            by_density(5, 0.5), // sparser than all pending: sheds itself
        ];
        let (journal, _io) = mem_journal(FaultPlan::none());
        let mut c = cfg(1);
        c.queue_depth = 3;
        let service = AdmissionService::start(net.state.clone(), journal, c, None, 0).unwrap();
        let tickets: Vec<_> = {
            let _frozen = service.freeze_state();
            requests.iter().map(|r| service.submit(r.clone()).unwrap()).collect()
        };
        let acks: Vec<Ack> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        let report = service.drain();
        assert_eq!(report.failure, None);
        assert_eq!(report.stats.shed_queue_full, 3, "{:?}", report.stats);
        for shed in [1usize, 2, 5] {
            assert_eq!(
                acks[shed].body,
                AckBody::Shed { reason: ShedReason::QueueFull },
                "request #{shed}"
            );
        }
        let serial = Cear::new(CearParams::default());
        let mut serial_state = net.state;
        for kept in [0usize, 3, 4] {
            let expect = serial_decide(&serial, &mut serial_state, &requests[kept]);
            assert_eq!(acks[kept].body, expect, "request #{kept}");
        }
        assert_eq!(snapshot(&report.state), snapshot(&serial_state));
    }

    /// Sustained occupancy trips degraded mode: the committer quotes
    /// serially itself (the worker pauses), and once the backlog drains
    /// the mode disengages — with every decision still equal to a serial
    /// pass.
    #[test]
    fn degraded_mode_decides_from_the_committer() {
        let net = build_net(6);
        let requests = stream(net.src, net.dst, 6, 4, 3);
        let (journal, _io) = mem_journal(FaultPlan::none());
        let mut c = cfg(1);
        c.degraded_enter = 2;
        c.degraded_exit = 0;
        let service = AdmissionService::start(net.state.clone(), journal, c, None, 0).unwrap();
        let tickets: Vec<_> = {
            let _frozen = service.freeze_state();
            let tickets: Vec<_> =
                requests.iter().map(|r| service.submit(r.clone()).unwrap()).collect();
            // Let the committer observe the backlog and trip the degraded
            // flag while everything is still frozen.
            std::thread::sleep(Duration::from_millis(5));
            tickets
        };
        let acks: Vec<Ack> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        let report = service.drain();
        assert_eq!(report.failure, None);
        assert_eq!(report.stats.degraded_entries, 1, "{:?}", report.stats);
        // The single worker can hold at most one job; the committer
        // decided the rest itself.
        assert!(report.stats.degraded_quotes >= 3, "{:?}", report.stats);
        let serial = Cear::new(CearParams::default());
        let mut serial_state = net.state;
        for (i, (req, ack)) in requests.iter().zip(&acks).enumerate() {
            let expect = serial_decide(&serial, &mut serial_state, req);
            assert_eq!(ack.body, expect, "request #{i}");
        }
        assert_eq!(snapshot(&report.state), snapshot(&serial_state));
    }

    /// A stale read set is requoted in place: one `handle` call decides
    /// the request as a serial pass would — for an admission and for a
    /// price rejection — WALs it once, and sends nothing back through the
    /// queue.
    #[test]
    fn stale_quote_is_requoted_in_place() {
        let net = build_net(6);
        let shared = Arc::new(Shared {
            state: RwLock::new(net.state),
            q: Mutex::new(Q {
                pending: VecDeque::new(),
                staged: BTreeMap::new(),
                next_seq: 2,
                next_commit: 0,
                draining: false,
                dead: None,
                degraded: false,
                live_workers: 1,
                stats: ServeStats::default(),
            }),
            work_cv: Condvar::new(),
            commit_cv: Condvar::new(),
            cfg: cfg(1),
        });
        let (journal, io) = mem_journal(FaultPlan::none());
        let mut committer = Committer {
            shared: Arc::clone(&shared),
            journal,
            checkpoint_dir: None,
            reference: Cear::reference(CearParams::default()),
            decided: 0,
            since_checkpoint: 0,
        };
        let cear = Cear::new(CearParams::default());
        let requests = [
            request(0, net.src, net.dst, 100.0, 1, 2, 1e7), // admits
            // An idle path prices at 0, so only a negative valuation is below it.
            request(1, net.src, net.dst, 100.0, 3, 4, -1.0),
        ];
        for (i, req) in requests.iter().enumerate() {
            // Quote, then invalidate a battery row the search read (epoch
            // bump only — no value changes).
            let (result, reads) = cear.quote_recording(req, &shared.state.read().unwrap());
            let sat = reads.battery_sats().next().expect("quote read at least one battery row");
            shared.state.write().unwrap().debug_bump_battery_epoch(sat, 0);
            let expect = serial_decide(&cear, &mut shared.state.read().unwrap().clone(), req);

            let ack = Arc::new(AckSlot::default());
            let job =
                Job { seq: i as u64, request: req.clone(), deadline: None, ack: Arc::clone(&ack) };
            assert!(committer.handle(Work::Staged(Staged::Quoted { job, result, reads })));
            let got = ack.value.lock().unwrap().clone().expect("decided").expect("not dead");
            assert_eq!(got.body, expect, "request #{i}");

            let decided = i as u64 + 1;
            let q = shared.q.lock().unwrap();
            assert_eq!((q.stats.conflicts, q.stats.requotes), (decided, decided));
            assert_eq!(q.next_commit, decided);
            assert!(q.pending.is_empty() && q.staged.is_empty());
            assert_eq!(journal::scan_bytes(&io.durable_bytes()).records.len(), decided as usize);
        }
        let stats = shared.q.lock().unwrap().stats.clone();
        assert_eq!((stats.admitted, stats.rejected_price), (1, 1), "{stats:?}");
    }

    /// A WAL sync failure kills the service: the victim's ticket and all
    /// later submissions resolve with the failure instead of hanging, and
    /// nothing past the failed append is durable.
    #[test]
    fn wal_failure_kills_the_service() {
        let net = build_net(6);
        // RunStart is ops {0: write, 1: sync}; the first decision's
        // fsync is op 3.
        let plan = FaultPlan { sync_fail_at: vec![3], ..FaultPlan::none() };
        let (journal, io) = mem_journal(plan);
        let service = AdmissionService::start(net.state, journal, cfg(2), None, 0).unwrap();
        let err =
            service.submit_blocking(request(0, net.src, net.dst, 100.0, 1, 2, 1e7)).unwrap_err();
        assert!(matches!(err, ServeError::Dead(_)), "{err}");
        assert!(service.is_dead());
        let err = service.submit(request(1, net.src, net.dst, 100.0, 1, 2, 1e7)).unwrap_err();
        assert!(matches!(err, ServeError::Dead(_)), "{err}");
        let report = service.drain();
        let failure = report.failure.expect("drain must report the failure");
        assert!(failure.contains("WAL append failed"), "{failure}");
        let scan = journal::scan_bytes(&io.durable_bytes());
        assert_eq!(scan.records.len(), 1, "only RunStart survived");
        assert!(matches!(scan.records[0], JournalRecord::RunStart { .. }));
    }

    /// Draining with work still queued decides everything before the
    /// threads exit — nothing is abandoned.
    #[test]
    fn drain_decides_everything_already_queued() {
        let net = build_net(6);
        let requests = stream(net.src, net.dst, 6, 8, 23);
        let (journal, _io) = mem_journal(FaultPlan::none());
        let service = AdmissionService::start(net.state.clone(), journal, cfg(2), None, 0).unwrap();
        let tickets: Vec<_> = {
            let _frozen = service.freeze_state();
            requests.iter().map(|r| service.submit(r.clone()).unwrap()).collect()
        };
        let report = service.drain();
        assert_eq!(report.failure, None);
        assert_eq!(report.stats.decisions(), requests.len() as u64);
        let serial = Cear::new(CearParams::default());
        let mut serial_state = net.state;
        for (i, (req, t)) in requests.iter().zip(tickets).enumerate() {
            let expect = serial_decide(&serial, &mut serial_state, req);
            assert_eq!(t.wait().unwrap().body, expect, "request #{i}");
        }
        assert_eq!(snapshot(&report.state), snapshot(&serial_state));
    }
}
