//! Open-loop load: requests are sent on a schedule, whether or not the
//! service keeps up.
//!
//! One generator thread submits each request at its **due** time; one
//! collector thread redeems the tickets in submission order (the committer
//! acks in that order) and stamps each ack. Latency is measured from the
//! due time, not from the moment the generator got round to sending, so a
//! stalled generator cannot hide the wait it imposes on the requests that
//! fell due meanwhile; how late the generator ran is reported next to it.

use sb_demand::Request;
use sb_serve::{Ack, AdmissionService, Ticket};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// SplitMix64 — the benchmark's own stream for schedules, so that a
/// schedule does not depend on which `rand` the workspace resolved.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from the open interval (0, 1).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }
}

/// Due times, nanoseconds from the phase start, of `count` Poisson
/// arrivals at `rate_per_s` — exponential gaps from the seeded stream.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, count: usize) -> Vec<u64> {
    assert!(rate_per_s > 0.0, "open-loop rate must be positive");
    let mut rng = SplitMix64(seed ^ 0x4f70_656e_4c6f_6f70); // "OpenLoop"
    let mut at = 0.0f64;
    (0..count)
        .map(|_| {
            at += -rng.unit().ln() / rate_per_s;
            (at * 1e9) as u64
        })
        .collect()
}

/// `due_ns` with every gap stretched or shrunk by a seeded factor in
/// `1 ± spread` — a replay of one arrival trace that no two seeds hit
/// identically, with the trace's bursts and lulls left where they are.
pub fn jitter_gaps(due_ns: &[u64], seed: u64, spread: f64) -> Vec<u64> {
    let mut rng = SplitMix64(seed ^ 0x4a69_7474_6572_4761); // "JitterGa"
    let (mut previous, mut at) = (0u64, 0.0f64);
    due_ns
        .iter()
        .map(|&due| {
            at += (due - previous) as f64 * (1.0 + spread * (2.0 * rng.unit() - 1.0));
            previous = due;
            at as u64
        })
        .collect()
}

/// A pause injected into the generator before it sends request `before`
/// — only tests use it, to prove stalls show up in due-time latency.
#[derive(Debug, Clone, Copy)]
pub struct Stall {
    /// Index of the request the generator is about to send.
    pub before: usize,
    /// How long it sleeps first.
    pub pause: Duration,
}

/// What happened to one request of an open-loop phase.
#[derive(Debug, Clone)]
pub struct Sent {
    /// When the request was due, nanoseconds from the phase start.
    pub due_ns: u64,
    /// When `submit` was called.
    pub sent_ns: u64,
    /// How long the `submit` call took.
    pub submit_ns: u64,
    /// When the ack was observed; `None` if the ticket never resolved.
    pub acked_ns: Option<u64>,
    /// The ack; `None` on a submit error or a dead service.
    pub ack: Option<Ack>,
}

impl Sent {
    /// Due time to ack, nanoseconds.
    pub fn latency_ns(&self) -> Option<u64> {
        self.acked_ns.map(|acked| acked.saturating_sub(self.due_ns))
    }

    /// How late the generator sent it, nanoseconds.
    pub fn late_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }
}

/// Sleeps until `deadline`, spinning over the last stretch: `sleep`
/// overshoots by tens of microseconds, which at sub-millisecond gaps would
/// be the generator's own lateness.
fn wait_until(deadline: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Sends `requests[i]` at `due_ns[i]` and collects every ack. Returns one
/// [`Sent`] per request, in order, and the instant the phase started.
pub fn run(
    service: &AdmissionService,
    requests: &[Request],
    due_ns: &[u64],
    stall: Option<Stall>,
) -> (Instant, Vec<Sent>) {
    assert_eq!(requests.len(), due_ns.len(), "one due time per request");
    let (tx, rx) = mpsc::channel::<(usize, Option<Ticket>)>();
    let start = Instant::now();
    let since = |at: Instant| at.saturating_duration_since(start).as_nanos() as u64;
    let mut sent: Vec<Sent> = due_ns
        .iter()
        .map(|&due_ns| Sent { due_ns, sent_ns: 0, submit_ns: 0, acked_ns: None, ack: None })
        .collect();
    std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut acks: Vec<(usize, Option<u64>, Option<Ack>)> = Vec::new();
            for (index, ticket) in rx {
                let ack = ticket.and_then(|t| t.wait().ok());
                let at = ack.is_some().then(|| since(Instant::now()));
                acks.push((index, at, ack));
            }
            acks
        });
        let generator = scope.spawn(move || {
            let mut stamps = Vec::with_capacity(requests.len());
            for (index, request) in requests.iter().enumerate() {
                if let Some(stall) = stall.filter(|s| s.before == index) {
                    std::thread::sleep(stall.pause);
                }
                wait_until(start + Duration::from_nanos(due_ns[index]));
                let calling = Instant::now();
                let ticket = service.submit(request.clone()).ok();
                let returned = Instant::now();
                stamps.push((since(calling), (returned - calling).as_nanos() as u64));
                // The collector owns the receiver for the whole scope.
                tx.send((index, ticket)).expect("collector outlives the generator");
            }
            stamps
        });
        let stamps = generator.join().expect("generator thread");
        for (entry, (sent_ns, submit_ns)) in sent.iter_mut().zip(stamps) {
            entry.sent_ns = sent_ns;
            entry.submit_ns = submit_ns;
        }
        for (index, acked_ns, ack) in collector.join().expect("collector thread") {
            sent[index].acked_ns = acked_ns;
            sent[index].ack = ack;
        }
    });
    (start, sent)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_seeded_ordered_and_near_the_rate() {
        let a = poisson_schedule(7, 1_000.0, 4_000);
        assert_eq!(a, poisson_schedule(7, 1_000.0, 4_000));
        assert_ne!(a, poisson_schedule(8, 1_000.0, 4_000));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let seconds = *a.last().unwrap() as f64 / 1e9;
        assert!((3.6..4.4).contains(&seconds), "4000 arrivals at 1000/s took {seconds}s");
    }

    #[test]
    fn jitter_keeps_the_order_and_stays_within_its_spread() {
        let base = poisson_schedule(7, 1_000.0, 2_000);
        let jittered = jitter_gaps(&base, 3, 0.1);
        assert_eq!(jittered, jitter_gaps(&base, 3, 0.1));
        assert_ne!(jittered, jitter_gaps(&base, 4, 0.1));
        assert!(jittered.windows(2).all(|w| w[0] <= w[1]));
        for (gaps, moved) in base.windows(2).zip(jittered.windows(2)) {
            let (gap, moved) = ((gaps[1] - gaps[0]) as f64, (moved[1] - moved[0]) as f64);
            assert!((moved - gap).abs() <= 0.1 * gap + 2.0, "{gap} became {moved}");
        }
        assert_eq!(jitter_gaps(&base, 3, 0.0).len(), base.len());
    }
}
