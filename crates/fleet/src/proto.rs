//! The sb-fleet job protocol: length-framed sb-wire messages between the
//! coordinator and its worker processes.
//!
//! Transport is the workers' stdin/stdout pipes. Every message is one
//! [`sb_wire::frame`] (length + FNV-1a checksum + payload), so a killed
//! worker can never leave a half-message that parses: a torn frame reads
//! as `Incomplete`, a corrupted one as `Corrupt`, and the payload decoders
//! below return [`WireError`] — never panic — on anything malformed,
//! extending the sb-wire never-panics discipline to the fleet layer.
//!
//! A cell's scenario and algorithm travel as serde-JSON strings inside the
//! frame (the workspace's configs are all serde round-trippable, and
//! Rust's float formatting is shortest-round-trip so the decode is
//! bit-exact). Drift is impossible to miss: [`CellSpec`] carries the
//! coordinator's [`sb_sim::engine::run_digest`] and both sides recompute
//! it — a worker whose decoded `(scenario, kind, seed)` hashes differently
//! refuses the job, and the coordinator refuses a `Done` whose digest is
//! not the one it dispatched.

use sb_sim::engine::{run_digest, AlgorithmKind};
use sb_sim::ScenarioConfig;
use sb_wire::{Reader, WireError, Writer};

/// Protocol version; bumped on any frame-format change. A worker greets
/// with its version and the coordinator refuses a mismatch outright
/// rather than misparse jobs. Version 3 added the optional shipped
/// topology series ([`SeriesShipment`]) to [`CellSpec`]; version 4 dropped
/// its speculative-quoting thread count, version 5 its search-kernel tag.
pub const PROTO_VERSION: u32 = 5;

/// Upper bound on one protocol frame's payload. Cells are a few KB of
/// JSON and metrics a few KB of wire encoding; 16 MiB is comfortably
/// above any legitimate message and small enough to reject corrupt
/// length prefixes instantly.
pub const MAX_FRAME: u32 = 16 << 20;

/// Scripted self-sabotage carried inside a job: the chaos harness makes
/// the *worker* inject its own fault at an exact, reproducible point
/// instead of racing an external killer against the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerChaos {
    /// `abort()` (SIGABRT, no unwinding — indistinguishable from a
    /// SIGKILL to the coordinator) when the run reaches this slot.
    KillAtSlot(u32),
    /// Stop heartbeating at this slot and spin forever: the silent-hang
    /// failure mode that only heartbeat deadlines can detect.
    HangAtSlot(u32),
}

impl WorkerChaos {
    fn encode(this: &Option<WorkerChaos>, w: &mut Writer) {
        match this {
            None => w.u8(0),
            Some(WorkerChaos::KillAtSlot(s)) => {
                w.u8(1);
                w.u32(*s);
            }
            Some(WorkerChaos::HangAtSlot(s)) => {
                w.u8(2);
                w.u32(*s);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Option<WorkerChaos>, WireError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(WorkerChaos::KillAtSlot(r.u32()?))),
            2 => Ok(Some(WorkerChaos::HangAtSlot(r.u32()?))),
            tag => Err(WireError::BadTag { tag, context: "WorkerChaos" }),
        }
    }
}

/// A pre-compiled topology series riding along with a job, so the worker
/// can materialize snapshots instead of rebuilding the series from
/// orbits. Purely an acceleration: the materialized series is
/// bit-identical to a local rebuild, and a worker that cannot obtain or
/// decode the shipment silently rebuilds.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesShipment {
    /// The encoded [`sb_topology::shipping::SeriesPackage`] bytes,
    /// carried inside the job frame (small series).
    Inline(Vec<u8>),
    /// A reference to a digest-keyed spill file the coordinator wrote
    /// durably (temp + fsync + rename; see [`crate::results`]) — used
    /// when the package would not fit comfortably in one frame.
    Spill {
        /// Path of the spill file on the shared local filesystem.
        path: String,
        /// FNV-1a checksum of the package bytes, re-verified on load.
        digest: u64,
    },
}

impl SeriesShipment {
    /// The shipment's content digest — the worker's reuse-cache key.
    pub fn digest(&self) -> u64 {
        match self {
            SeriesShipment::Inline(bytes) => sb_wire::checksum(bytes),
            SeriesShipment::Spill { digest, .. } => *digest,
        }
    }

    fn encode(this: &Option<SeriesShipment>, w: &mut Writer) {
        match this {
            None => w.u8(0),
            Some(SeriesShipment::Inline(bytes)) => {
                w.u8(1);
                w.bytes(bytes);
            }
            Some(SeriesShipment::Spill { path, digest }) => {
                w.u8(2);
                w.str(path);
                w.u64(*digest);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Option<SeriesShipment>, WireError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(SeriesShipment::Inline(r.bytes()?))),
            2 => Ok(Some(SeriesShipment::Spill { path: r.str()?, digest: r.u64()? })),
            tag => Err(WireError::BadTag { tag, context: "SeriesShipment" }),
        }
    }
}

/// One sweep cell, fully specified: everything a worker needs to
/// reproduce the cell bit-for-bit in its own address space.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Human-readable cell label (for reports and stderr tails).
    pub label: String,
    /// The experiment configuration.
    pub scenario: ScenarioConfig,
    /// The algorithm to run.
    pub kind: AlgorithmKind,
    /// The workload seed.
    pub seed: u64,
    /// The coordinator's [`run_digest`] over `(scenario, kind, seed)`;
    /// the worker recomputes and must agree.
    pub digest: u64,
    /// Topology build threads (bit-identical).
    pub build_threads: usize,
    /// Scripted self-sabotage, if the chaos plan targets this attempt.
    pub chaos: Option<WorkerChaos>,
    /// The pre-compiled topology series for this cell's
    /// `(prepare_digest, seed)` key, if the coordinator shipped one.
    pub ship: Option<SeriesShipment>,
}

impl CellSpec {
    /// Encodes the spec into `w`.
    pub fn encode(&self, w: &mut Writer) {
        w.str(&self.label);
        w.str(&serde_json::to_string(&self.scenario).unwrap_or_default());
        w.str(&serde_json::to_string(&self.kind).unwrap_or_default());
        w.u64(self.seed);
        w.u64(self.digest);
        w.usize(self.build_threads);
        WorkerChaos::encode(&self.chaos, w);
        SeriesShipment::encode(&self.ship, w);
    }

    /// Decodes a spec, validating eagerly: malformed JSON, a build thread
    /// count of zero, or a digest that does not match the decoded
    /// `(scenario, kind, seed)` all surface as [`WireError`] here rather
    /// than as a wrong-config run later.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let label = r.str()?;
        let scenario_json = r.str()?;
        let kind_json = r.str()?;
        let scenario: ScenarioConfig = serde_json::from_str(&scenario_json)
            .map_err(|e| WireError::Invalid { detail: format!("cell scenario JSON: {e}") })?;
        let kind: AlgorithmKind = serde_json::from_str(&kind_json)
            .map_err(|e| WireError::Invalid { detail: format!("cell algorithm JSON: {e}") })?;
        let seed = r.u64()?;
        let digest = r.u64()?;
        let build_threads = r.usize()?;
        if build_threads == 0 {
            return Err(WireError::Invalid {
                detail: "zero build thread count in cell spec".to_owned(),
            });
        }
        let chaos = WorkerChaos::decode(r)?;
        let ship = SeriesShipment::decode(r)?;
        let expected = run_digest(&scenario, &kind, seed);
        if expected != digest {
            return Err(WireError::Invalid {
                detail: format!(
                    "cell digest mismatch: dispatched {digest:#018x}, decoded config hashes to \
                     {expected:#018x}"
                ),
            });
        }
        Ok(CellSpec { label, scenario, kind, seed, digest, build_threads, chaos, ship })
    }
}

/// Coordinator → worker messages.
#[derive(Debug, Clone, PartialEq)]
pub enum JobMsg {
    /// Run this cell; `job` is the coordinator's cell index, echoed back
    /// in every response so late frames from a superseded job are
    /// recognizable.
    Run {
        /// The coordinator's cell index.
        job: u64,
        /// The full cell specification.
        spec: Box<CellSpec>,
    },
    /// Drain and exit cleanly.
    Shutdown,
}

impl JobMsg {
    /// Encodes the message body (unframed).
    pub fn encode(&self, w: &mut Writer) {
        match self {
            JobMsg::Run { job, spec } => {
                w.u8(1);
                w.u64(*job);
                spec.encode(w);
            }
            JobMsg::Shutdown => w.u8(2),
        }
    }

    /// Decodes one message body. Trailing bytes are malformed: a frame
    /// holds exactly one message.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let msg = match r.u8()? {
            1 => JobMsg::Run { job: r.u64()?, spec: Box::new(CellSpec::decode(&mut r)?) },
            2 => JobMsg::Shutdown,
            tag => return Err(WireError::BadTag { tag, context: "JobMsg" }),
        };
        if !r.is_exhausted() {
            return Err(WireError::Invalid {
                detail: format!("{} trailing bytes after JobMsg", r.remaining()),
            });
        }
        Ok(msg)
    }
}

/// Worker → coordinator messages.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerMsg {
    /// Greeting sent once on startup, before any job.
    Ready {
        /// The worker's process id (for kill bookkeeping and logs).
        pid: u32,
        /// The worker's [`PROTO_VERSION`].
        proto: u32,
    },
    /// Liveness: sent when a job is accepted and after every completed
    /// slot. A worker that stops heartbeating past the coordinator's hard
    /// deadline is declared dead and SIGKILLed.
    Heartbeat {
        /// The job this heartbeat belongs to.
        job: u64,
        /// Slots completed so far.
        slot: u32,
    },
    /// The cell finished; metrics follow.
    Done {
        /// The finished job's cell index.
        job: u64,
        /// The cell digest, re-verified by the coordinator.
        digest: u64,
        /// The run's metrics.
        metrics: Box<sb_sim::RunMetrics>,
    },
    /// The cell failed inside the worker (the worker itself survives and
    /// can take new jobs — e.g. a durable-run I/O error).
    Failed {
        /// The failed job's cell index.
        job: u64,
        /// Human-readable failure description.
        detail: String,
    },
}

impl WorkerMsg {
    /// Encodes the message body (unframed).
    pub fn encode(&self, w: &mut Writer) {
        match self {
            WorkerMsg::Ready { pid, proto } => {
                w.u8(1);
                w.u32(*pid);
                w.u32(*proto);
            }
            WorkerMsg::Heartbeat { job, slot } => {
                w.u8(2);
                w.u64(*job);
                w.u32(*slot);
            }
            WorkerMsg::Done { job, digest, metrics } => {
                w.u8(3);
                w.u64(*job);
                w.u64(*digest);
                metrics.encode(w);
            }
            WorkerMsg::Failed { job, detail } => {
                w.u8(4);
                w.u64(*job);
                w.str(detail);
            }
        }
    }

    /// Decodes one message body; trailing bytes are malformed.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let msg = match r.u8()? {
            1 => WorkerMsg::Ready { pid: r.u32()?, proto: r.u32()? },
            2 => WorkerMsg::Heartbeat { job: r.u64()?, slot: r.u32()? },
            3 => WorkerMsg::Done {
                job: r.u64()?,
                digest: r.u64()?,
                metrics: Box::new(sb_sim::RunMetrics::decode(&mut r)?),
            },
            4 => WorkerMsg::Failed { job: r.u64()?, detail: r.str()? },
            tag => return Err(WireError::BadTag { tag, context: "WorkerMsg" }),
        };
        if !r.is_exhausted() {
            return Err(WireError::Invalid {
                detail: format!("{} trailing bytes after WorkerMsg", r.remaining()),
            });
        }
        Ok(msg)
    }
}

/// Frames an encoded message body and writes it with a flush — a message
/// is only *sent* once the pipe has it, since the receiver's liveness
/// deadlines start from what actually arrived.
fn send_framed<W: std::io::Write>(
    out: &mut W,
    encode: impl FnOnce(&mut Writer),
) -> std::io::Result<()> {
    let mut w = Writer::new();
    encode(&mut w);
    let mut framed = Vec::new();
    sb_wire::frame::write_frame(&mut framed, &w.into_bytes());
    out.write_all(&framed)?;
    out.flush()
}

/// Writes one framed [`JobMsg`] and flushes.
pub fn send_job<W: std::io::Write>(out: &mut W, msg: &JobMsg) -> std::io::Result<()> {
    send_framed(out, |w| msg.encode(w))
}

/// Writes one framed [`WorkerMsg`] and flushes.
pub fn send_worker_msg<W: std::io::Write>(out: &mut W, msg: &WorkerMsg) -> std::io::Result<()> {
    send_framed(out, |w| msg.encode(w))
}

/// A blocking frame reader over a byte stream (a pipe end): accumulates
/// bytes until one whole checksummed frame is available and returns its
/// payload. EOF mid-frame and corrupt frames are both terminal for a
/// stream transport — resynchronizing inside a byte pipe is guesswork.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    buf: Vec<u8>,
}

/// What [`FrameReader::next_frame`] produced.
#[derive(Debug, PartialEq, Eq)]
pub enum NextFrame {
    /// One complete, checksum-verified payload.
    Payload(Vec<u8>),
    /// Clean end of stream on a frame boundary (peer closed the pipe).
    Eof,
    /// End of stream inside a frame (peer died mid-write) or a corrupt
    /// frame (checksum/length mismatch).
    Corrupt,
}

impl<R: std::io::Read> FrameReader<R> {
    /// A reader at the start of the stream.
    pub fn new(inner: R) -> Self {
        FrameReader { inner, buf: Vec::new() }
    }

    /// Blocks until one whole frame (or EOF/corruption) is available.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than interruption (`EINTR` retries).
    pub fn next_frame(&mut self) -> std::io::Result<NextFrame> {
        let mut chunk = [0u8; 8192];
        loop {
            match sb_wire::frame::read_frame(&self.buf, MAX_FRAME) {
                sb_wire::frame::FrameStatus::Complete { payload, consumed } => {
                    let payload = payload.to_vec();
                    self.buf.drain(..consumed);
                    return Ok(NextFrame::Payload(payload));
                }
                sb_wire::frame::FrameStatus::Corrupt => return Ok(NextFrame::Corrupt),
                sb_wire::frame::FrameStatus::Incomplete => {}
            }
            match self.inner.read(&mut chunk) {
                Ok(0) => {
                    return Ok(if self.buf.is_empty() {
                        NextFrame::Eof
                    } else {
                        NextFrame::Corrupt
                    });
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CellSpec {
        let scenario = ScenarioConfig::tiny();
        let kind = AlgorithmKind::Ssp;
        let seed = 7;
        CellSpec {
            label: "tiny-ssp-s7".into(),
            digest: run_digest(&scenario, &kind, seed),
            scenario,
            kind,
            seed,
            build_threads: 2,
            chaos: Some(WorkerChaos::KillAtSlot(3)),
            ship: Some(SeriesShipment::Inline(vec![1, 2, 3, 4])),
        }
    }

    #[test]
    fn shipment_variants_roundtrip() {
        for ship in [
            None,
            Some(SeriesShipment::Inline(vec![7; 32])),
            Some(SeriesShipment::Spill { path: "/tmp/series_abc.bin".into(), digest: 0xfeed }),
        ] {
            let mut s = spec();
            s.ship = ship;
            let msg = JobMsg::Run { job: 1, spec: Box::new(s) };
            let mut w = Writer::new();
            msg.encode(&mut w);
            assert_eq!(JobMsg::decode(&w.into_bytes()).unwrap(), msg);
        }
    }

    #[test]
    fn shipment_digest_keys_both_variants() {
        let inline = SeriesShipment::Inline(vec![9, 9, 9]);
        assert_eq!(inline.digest(), sb_wire::checksum(&[9, 9, 9]));
        let spill = SeriesShipment::Spill { path: "x".into(), digest: 42 };
        assert_eq!(spill.digest(), 42);
    }

    #[test]
    fn job_roundtrip() {
        let msg = JobMsg::Run { job: 42, spec: Box::new(spec()) };
        let mut w = Writer::new();
        msg.encode(&mut w);
        assert_eq!(JobMsg::decode(&w.into_bytes()).unwrap(), msg);

        let mut w = Writer::new();
        JobMsg::Shutdown.encode(&mut w);
        assert_eq!(JobMsg::decode(&w.into_bytes()).unwrap(), JobMsg::Shutdown);
    }

    #[test]
    fn worker_msg_roundtrip() {
        let run = sb_sim::engine::run(&ScenarioConfig::tiny(), &AlgorithmKind::Ssp, 1);
        let msgs = [
            WorkerMsg::Ready { pid: 1234, proto: PROTO_VERSION },
            WorkerMsg::Heartbeat { job: 9, slot: 17 },
            WorkerMsg::Done { job: 9, digest: 0xabcd, metrics: Box::new(run) },
            WorkerMsg::Failed { job: 9, detail: "disk full".into() },
        ];
        for msg in msgs {
            let mut w = Writer::new();
            msg.encode(&mut w);
            assert_eq!(WorkerMsg::decode(&w.into_bytes()).unwrap(), msg);
        }
    }

    #[test]
    fn digest_mismatch_refused_at_decode() {
        let mut s = spec();
        s.digest ^= 1;
        let mut w = Writer::new();
        JobMsg::Run { job: 0, spec: Box::new(s) }.encode(&mut w);
        let err = JobMsg::decode(&w.into_bytes()).unwrap_err();
        assert!(matches!(err, WireError::Invalid { .. }), "got {err:?}");
        assert!(format!("{err}").contains("digest mismatch"));
    }

    #[test]
    fn zero_build_threads_refused_at_decode() {
        let mut s = spec();
        s.build_threads = 0;
        let mut w = Writer::new();
        JobMsg::Run { job: 0, spec: Box::new(s) }.encode(&mut w);
        let err = JobMsg::decode(&w.into_bytes()).unwrap_err();
        assert!(matches!(err, WireError::Invalid { .. }), "got {err:?}");
        assert!(format!("{err}").contains("zero build thread count"));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut w = Writer::new();
        WorkerMsg::Heartbeat { job: 1, slot: 2 }.encode(&mut w);
        let mut bytes = w.into_bytes();
        bytes.push(0);
        assert!(matches!(WorkerMsg::decode(&bytes), Err(WireError::Invalid { .. })));
    }

    #[test]
    fn frame_reader_reassembles_split_writes() {
        let msg = JobMsg::Run { job: 3, spec: Box::new(spec()) };
        let mut w = Writer::new();
        msg.encode(&mut w);
        let mut framed = Vec::new();
        sb_wire::frame::write_frame(&mut framed, &w.into_bytes());
        // Deliver the frame one byte at a time through a reader that
        // returns a single byte per read call.
        struct Trickle(std::io::Cursor<Vec<u8>>);
        impl std::io::Read for Trickle {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let take = 1.min(buf.len());
                std::io::Read::read(&mut self.0, &mut buf[..take])
            }
        }
        let mut r = FrameReader::new(Trickle(std::io::Cursor::new(framed)));
        match r.next_frame().unwrap() {
            NextFrame::Payload(p) => assert_eq!(JobMsg::decode(&p).unwrap(), msg),
            other => panic!("expected payload, got {other:?}"),
        }
        assert_eq!(r.next_frame().unwrap(), NextFrame::Eof);
    }

    #[test]
    fn frame_reader_flags_torn_tail_as_corrupt() {
        let mut framed = Vec::new();
        sb_wire::frame::write_frame(&mut framed, b"payload");
        framed.truncate(framed.len() - 3); // peer died mid-write
        let mut r = FrameReader::new(std::io::Cursor::new(framed));
        assert_eq!(r.next_frame().unwrap(), NextFrame::Corrupt);
    }
}
