//! Service/batch equivalence at the metrics level: driving every engine
//! decision through a live [`sb_serve::AdmissionService`] must reproduce
//! the serial batch run's `RunMetrics` exactly, at any worker count.

use space_booking::sb_cear::CearParams;
use space_booking::sb_serve::{run_served, ServeConfig};
use space_booking::sb_sim::engine::{self, AlgorithmKind};
use space_booking::sb_sim::ScenarioConfig;

#[test]
fn served_metrics_equal_serial_batch_at_every_worker_count() {
    let scenario = ScenarioConfig::tiny();
    let seed = 0;
    let kind = AlgorithmKind::Cear(CearParams::default());
    let digest = engine::run_digest(&scenario, &kind, seed);
    let prepared = engine::prepare(&scenario, seed);
    let requests = engine::workload(&scenario, &prepared, seed);
    let reference = engine::run_prepared(&scenario, &prepared, &requests, &kind, seed);

    for workers in [1usize, 4] {
        let mut cfg = ServeConfig::new(digest, seed);
        cfg.workers = workers;
        let (mut metrics, report) = run_served(&scenario, &prepared, &requests, seed, cfg);
        assert_eq!(report.failure, None, "workers={workers}");
        // The engine's closed loop keeps occupancy at one: nothing can
        // conflict and nothing is shed, so the decision stream is exactly
        // serial CEAR's.
        assert_eq!(report.stats.conflicts, 0, "workers={workers}");
        assert_eq!(report.stats.shed_queue_full, 0, "workers={workers}");
        assert_eq!(report.stats.shed_deadline, 0, "workers={workers}");
        metrics.processing_ms = reference.processing_ms; // wall clock may differ
        assert_eq!(metrics, reference, "workers={workers}");
    }
}
