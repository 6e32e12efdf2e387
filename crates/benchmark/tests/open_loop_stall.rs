//! Open-loop latency counts from the due time: a stalled generator cannot
//! hide the wait it imposes on the requests that fell due meanwhile.

use sb_benchmark::bed::{serve_scenario, Bed, Scale};
use sb_benchmark::openloop::{self, poisson_schedule, Stall};
use sb_benchmark::workloads::serve_common::{config, fresh_state};
use sb_serve::AdmissionService;
use sb_sim::faultio::{FaultIo, FaultPlan};
use sb_sim::journal::Journal;
use std::time::Duration;

#[test]
fn a_generator_stall_shows_in_the_latency_of_the_requests_due_during_it() {
    let bed = Bed::build(&serve_scenario(Scale::Tiny), 5, 5);
    let requests = &bed.requests[..24.min(bed.requests.len())];
    // 2 000 requests a second: the whole schedule spans about 12 ms.
    let due_ns = poisson_schedule(5, 2_000.0, requests.len());
    let stalled_at = 8;
    let pause = Duration::from_millis(60);
    let mut cfg = config(&bed);
    cfg.queue_depth = requests.len() + 1; // nothing is shed
    let journal = Journal::from_io(Box::new(FaultIo::new(FaultPlan::none())));
    let service = AdmissionService::start(fresh_state(&bed), journal, cfg, None, 0).unwrap();
    let stall = Some(Stall { before: stalled_at, pause });
    let (_, sent) = openloop::run(&service, requests, &due_ns, stall);
    assert!(service.drain().failure.is_none());

    // The stall begins no earlier than the previous request's due time and
    // lasts `pause`; a request due inside it waits at least until it ends.
    let stall_ends_ns = due_ns[stalled_at - 1] + pause.as_nanos() as u64;
    let mut during = 0;
    for (i, entry) in sent.iter().enumerate().skip(stalled_at) {
        if entry.due_ns >= stall_ends_ns {
            continue;
        }
        during += 1;
        let owed = stall_ends_ns - entry.due_ns;
        let latency = entry.latency_ns().expect("every request is answered");
        assert!(latency >= owed, "request {i}: latency {latency} ns hides {owed} ns of stall");
        assert!(entry.late_ns() >= owed, "request {i}: lateness {} ns", entry.late_ns());
    }
    assert!(during >= 8, "only {during} requests fell due during the stall");
}
