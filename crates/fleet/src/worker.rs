//! The fleet worker: one process, one cell at a time.
//!
//! Jobs arrive as framed [`JobMsg`]s on stdin; heartbeats and results go
//! back as framed [`WorkerMsg`]s on stdout. The run itself steps the
//! engine slot by slot ([`sb_sim::engine::EngineCore`]) and emits a
//! heartbeat after every slot boundary — liveness reflects *progress*,
//! not mere process existence, which is what lets the coordinator tell a
//! hung worker from a slow one.
//!
//! The same cell-execution path ([`run_cell_local`]) backs the
//! coordinator's in-process degradation mode, so a sweep that cannot
//! spawn processes still computes the identical bytes.

use crate::proto::{
    send_worker_msg, CellSpec, FrameReader, JobMsg, NextFrame, SeriesShipment, WorkerChaos,
    WorkerMsg, PROTO_VERSION,
};
use crate::results;
use sb_sim::engine::{EngineCore, PreparedNetwork};
use sb_sim::{PreparedCache, RunMetrics};
use sb_topology::{SeriesPackage, TopologySeries};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::sync::Arc;

/// Distinct shipped series a worker keeps materialized at once. Affinity
/// routing concentrates a worker on few keys; past the cap the cache is
/// simply dropped (correctness never depends on it).
const SHIP_CACHE_CAP: usize = 8;

/// Materialized shipped series, keyed by package digest — one decode and
/// one materialization per series per worker process, however many cells
/// the coordinator routes here for it.
#[derive(Debug, Default)]
pub struct ShipCache {
    series: HashMap<u64, Arc<TopologySeries>>,
}

impl ShipCache {
    /// Distinct series currently held.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether nothing is held yet.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }
}

/// Resolves one shipment to its materialized series, through the cache.
/// Any failure — unreadable spill, corrupt bytes, violated invariants —
/// returns `None`: a shipment is an optimization hint, and the caller
/// falls back to the bit-identical local rebuild.
fn shipped_series(ship: &SeriesShipment, ships: &mut ShipCache) -> Option<Arc<TopologySeries>> {
    let digest = ship.digest();
    if let Some(series) = ships.series.get(&digest) {
        return Some(Arc::clone(series));
    }
    let bytes = match ship {
        SeriesShipment::Inline(bytes) => std::borrow::Cow::Borrowed(bytes.as_slice()),
        SeriesShipment::Spill { path, digest } => {
            std::borrow::Cow::Owned(results::load_series(std::path::Path::new(path), *digest)?)
        }
    };
    let package = SeriesPackage::decode(&bytes).ok()?;
    let series = Arc::new(package.materialize().ok()?);
    if ships.series.len() >= SHIP_CACHE_CAP {
        ships.series.clear();
    }
    ships.series.insert(digest, Arc::clone(&series));
    Some(series)
}

/// The prepared network for a cell: materialized from the attached
/// shipment when it loads cleanly, rebuilt locally otherwise. Both paths
/// produce bit-identical networks (proven by the engine's shipped-series
/// proptests), so the choice never shows in the results.
fn prepared_for(
    spec: &CellSpec,
    cache: &PreparedCache,
    ships: &mut ShipCache,
) -> Arc<PreparedNetwork> {
    if let Some(ship) = &spec.ship {
        if let Some(series) = shipped_series(ship, ships) {
            return Arc::new(sb_sim::engine::prepare_from_series(
                &spec.scenario,
                spec.seed,
                &series,
            ));
        }
        eprintln!("worker: shipment for cell `{}` unusable; rebuilding locally", spec.label);
    }
    cache.get(&spec.scenario, spec.seed)
}

/// [`run_cell`] without a ship cache — the coordinator's in-process
/// degradation path, which never attaches shipments.
pub fn run_cell_local(
    spec: &CellSpec,
    cache: &PreparedCache,
    heartbeat: impl FnMut(u32),
) -> RunMetrics {
    run_cell(spec, cache, &mut ShipCache::default(), heartbeat)
}

/// Runs one cell to completion, invoking `heartbeat(slots_done)` after
/// every slot boundary and honoring the spec's scripted chaos.
///
/// Chaos actions are taken *before* executing their trigger slot, so a
/// `KillAtSlot(3)` dies with slots 0–2 done and slot 3 not yet run —
/// mid-cell by construction.
pub fn run_cell(
    spec: &CellSpec,
    cache: &PreparedCache,
    ships: &mut ShipCache,
    mut heartbeat: impl FnMut(u32),
) -> RunMetrics {
    let prepared = prepared_for(spec, cache, ships);
    let requests = sb_sim::engine::workload(&spec.scenario, &prepared, spec.seed);
    let mut algorithm = spec.kind.instantiate();
    let mut core = EngineCore::new(&spec.scenario, &prepared, &requests, spec.seed);
    while !core.is_complete() {
        match spec.chaos {
            Some(WorkerChaos::KillAtSlot(s)) if core.next_slot() as u32 >= s => {
                // SIGABRT, no unwinding, no cleanup: to the coordinator
                // this is indistinguishable from `kill -9` mid-cell.
                eprintln!(
                    "chaos: aborting worker at slot {} of cell `{}`",
                    core.next_slot(),
                    spec.label
                );
                std::process::abort();
            }
            Some(WorkerChaos::HangAtSlot(s)) if core.next_slot() as u32 >= s => {
                // A silent hang: no heartbeats, no progress, no exit.
                // Only the coordinator's hard deadline recovers this.
                eprintln!(
                    "chaos: hanging worker at slot {} of cell `{}`",
                    core.next_slot(),
                    spec.label
                );
                loop {
                    std::thread::sleep(std::time::Duration::from_millis(250));
                }
            }
            _ => {}
        }
        core.step_slot(algorithm.as_mut());
        heartbeat(core.next_slot() as u32);
    }
    core.drain_final(algorithm.as_mut());
    core.finalize(algorithm.as_ref())
}

/// The worker main loop. Returns cleanly on `Shutdown` or stdin EOF;
/// corrupt input is fatal (a byte pipe cannot be resynchronized).
///
/// # Errors
///
/// Returns the message on protocol corruption or I/O failure; the binary
/// exits nonzero with it on stderr, which the coordinator records as the
/// death evidence.
pub fn worker_main(stdin: impl Read, stdout: impl Write) -> Result<(), String> {
    let mut reader = FrameReader::new(stdin);
    let mut out = stdout;
    send_worker_msg(&mut out, &WorkerMsg::Ready { pid: std::process::id(), proto: PROTO_VERSION })
        .map_err(|e| format!("cannot greet coordinator: {e}"))?;
    // One worker serves many cells of one sweep; reuse prepared networks
    // across them exactly like the in-process runner does, and keep
    // shipped series materialized so affinity-routed cells pay for the
    // decode once.
    let mut cache: Option<(usize, PreparedCache)> = None;
    let mut ships = ShipCache::default();
    loop {
        let payload = match reader.next_frame().map_err(|e| format!("stdin read failed: {e}"))? {
            NextFrame::Payload(p) => p,
            NextFrame::Eof => return Ok(()), // coordinator went away
            NextFrame::Corrupt => return Err("corrupt job frame on stdin".into()),
        };
        let msg = JobMsg::decode(&payload).map_err(|e| format!("undecodable job: {e}"))?;
        let (job, spec) = match msg {
            JobMsg::Shutdown => return Ok(()),
            JobMsg::Run { job, spec } => (job, spec),
        };
        // Rebuild the cache if the build-thread setting changed (it is
        // constant within one sweep; this is belt and braces).
        if !matches!(&cache, Some((threads, _)) if *threads == spec.build_threads) {
            cache = Some((spec.build_threads, PreparedCache::new(spec.build_threads)));
        }
        let cache = &cache.as_ref().expect("cache set above").1;
        send_worker_msg(&mut out, &WorkerMsg::Heartbeat { job, slot: 0 })
            .map_err(|e| format!("heartbeat write failed: {e}"))?;
        let mut beat_err = None;
        let metrics = run_cell(&spec, cache, &mut ships, |slot| {
            if beat_err.is_none() {
                beat_err = send_worker_msg(&mut out, &WorkerMsg::Heartbeat { job, slot }).err();
            }
        });
        if let Some(e) = beat_err {
            return Err(format!("heartbeat write failed: {e}"));
        }
        send_worker_msg(
            &mut out,
            &WorkerMsg::Done { job, digest: spec.digest, metrics: Box::new(metrics) },
        )
        .map_err(|e| format!("result write failed: {e}"))?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_sim::engine::{run_digest, AlgorithmKind};
    use sb_sim::ScenarioConfig;

    fn spec(seed: u64) -> CellSpec {
        let scenario = ScenarioConfig::tiny();
        let kind = AlgorithmKind::Ssp;
        CellSpec {
            label: format!("tiny-ssp-s{seed}"),
            digest: run_digest(&scenario, &kind, seed),
            scenario,
            kind,
            seed,
            build_threads: 1,
            chaos: None,
            ship: None,
        }
    }

    fn shipment_for(spec: &CellSpec) -> SeriesShipment {
        let package = sb_sim::engine::compile_series_package(&spec.scenario, spec.seed);
        SeriesShipment::Inline(package.encode())
    }

    #[test]
    fn shipped_cell_matches_local_rebuild_and_caches_the_series() {
        let local = spec(5);
        let mut shipped = spec(5);
        shipped.ship = Some(shipment_for(&shipped));

        let cache = PreparedCache::new(1);
        let mut ships = ShipCache::default();
        let mut from_ship = run_cell(&shipped, &cache, &mut ships, |_| {});
        assert_eq!(ships.len(), 1, "the materialized series must be cached");
        assert!(cache.is_empty(), "a usable shipment must bypass the local build");
        let mut from_local = run_cell_local(&local, &cache, |_| {});
        from_ship.processing_ms = 0;
        from_local.processing_ms = 0;
        assert_eq!(from_ship, from_local, "shipped preparation must be bit-identical");

        // A second cell on the same series decodes nothing new.
        let mut again = spec(5);
        again.ship = shipped.ship.clone();
        run_cell(&again, &cache, &mut ships, |_| {});
        assert_eq!(ships.len(), 1);
    }

    #[test]
    fn unusable_shipment_falls_back_to_local_rebuild() {
        let reference = run_cell_local(&spec(4), &PreparedCache::new(1), |_| {});
        let corrupt = [
            SeriesShipment::Inline(vec![0xff; 48]),
            SeriesShipment::Spill { path: "/nonexistent/series.bin".into(), digest: 1 },
        ];
        for ship in corrupt {
            let mut s = spec(4);
            s.ship = Some(ship);
            let mut ships = ShipCache::default();
            let mut got = run_cell(&s, &PreparedCache::new(1), &mut ships, |_| {});
            assert!(ships.is_empty(), "garbage must not be cached");
            let mut want = reference.clone();
            got.processing_ms = 0;
            want.processing_ms = 0;
            assert_eq!(got, want, "fallback must still compute the exact result");
        }
    }

    #[test]
    fn local_run_matches_engine_and_heartbeats_every_slot() {
        let s = spec(3);
        let cache = PreparedCache::new(1);
        let mut beats = Vec::new();
        let mut ours = run_cell_local(&s, &cache, |slot| beats.push(slot));
        let prepared = sb_sim::engine::prepare(&s.scenario, s.seed);
        let requests = sb_sim::engine::workload(&s.scenario, &prepared, s.seed);
        let mut reference =
            sb_sim::engine::run_prepared(&s.scenario, &prepared, &requests, &s.kind, s.seed);
        ours.processing_ms = 0;
        reference.processing_ms = 0;
        assert_eq!(ours, reference, "fleet-local run must be bit-identical to the engine");
        let expected: Vec<u32> = (1..=s.scenario.horizon_slots as u32).collect();
        assert_eq!(beats, expected, "one heartbeat per completed slot");
    }

    #[test]
    fn worker_loop_serves_jobs_over_pipes() {
        // Drive the worker loop through in-memory pipes: two jobs, then
        // shutdown; expect Ready, per-slot heartbeats and two Dones.
        let mut input = Vec::new();
        for (job, seed) in [(0u64, 1u64), (1, 2)] {
            let msg = JobMsg::Run { job, spec: Box::new(spec(seed)) };
            let mut w = sb_wire::Writer::new();
            msg.encode(&mut w);
            sb_wire::frame::write_frame(&mut input, &w.into_bytes());
        }
        let mut w = sb_wire::Writer::new();
        JobMsg::Shutdown.encode(&mut w);
        sb_wire::frame::write_frame(&mut input, &w.into_bytes());

        let mut output = Vec::new();
        worker_main(std::io::Cursor::new(input), &mut output).unwrap();

        let mut reader = FrameReader::new(std::io::Cursor::new(output));
        let mut msgs = Vec::new();
        while let NextFrame::Payload(p) = reader.next_frame().unwrap() {
            msgs.push(WorkerMsg::decode(&p).unwrap());
        }
        assert!(
            matches!(msgs[0], WorkerMsg::Ready { proto: PROTO_VERSION, .. }),
            "first message must be the greeting"
        );
        let dones: Vec<_> = msgs
            .iter()
            .filter_map(|m| match m {
                WorkerMsg::Done { job, digest, metrics } => Some((*job, *digest, metrics.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(dones.len(), 2);
        assert_eq!((dones[0].0, dones[1].0), (0, 1));
        assert_eq!(dones[0].1, spec(1).digest);
        // Heartbeats cover both jobs, slot 0 (accepted) through horizon.
        let horizon = ScenarioConfig::tiny().horizon_slots as u32;
        for job in 0..2u64 {
            let beats: Vec<u32> = msgs
                .iter()
                .filter_map(|m| match m {
                    WorkerMsg::Heartbeat { job: j, slot } if *j == job => Some(*slot),
                    _ => None,
                })
                .collect();
            assert_eq!(beats, (0..=horizon).collect::<Vec<_>>(), "job {job}");
        }
    }

    #[test]
    fn worker_rejects_corrupt_input() {
        let err = worker_main(std::io::Cursor::new(vec![0xff; 64]), Vec::new()).unwrap_err();
        assert!(err.contains("corrupt"), "got: {err}");
    }
}
