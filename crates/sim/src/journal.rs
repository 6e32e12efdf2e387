//! The append-only admission journal.
//!
//! Every engine event that changes run state gets one record, appended and
//! fsync'd before the run moves on, so a crashed sweep can be resumed from
//! `checkpoint + journal suffix` with nothing invented and nothing lost.
//!
//! # On-disk format
//!
//! The journal is a flat sequence of self-checking frames:
//!
//! ```text
//! ┌──────────┬───────────────┬────────────────┐
//! │ len: u32 │ checksum: u64 │ payload (len B)│   repeated
//! └──────────┴───────────────┴────────────────┘
//! ```
//!
//! * `len` — payload length in bytes, little-endian, capped at
//!   [`MAX_RECORD_BYTES`];
//! * `checksum` — FNV-1a 64 ([`sb_wire::checksum`]) of the payload;
//! * `payload` — one [`JournalRecord`], tag byte first (see
//!   [`JournalRecord::encode`] for the per-variant layouts).
//!
//! A crash can only tear the *last* frame (appends are sequential and
//! fsync'd). [`scan`] therefore reads frames until the first one that is
//! truncated, fails its checksum, or does not decode; everything from that
//! point on is reported as `discarded_tail_bytes` and the byte offset of
//! the cut as `valid_len`. Scanning never panics and never errors on
//! corruption — a corrupt journal is simply a shorter journal.
//!
//! # Record payloads
//!
//! Each payload starts with a one-byte tag:
//!
//! | tag | record | body |
//! |-----|--------|------|
//! | 0 | [`JournalRecord::RunStart`] | `config_digest: u64`, `algorithm: str`, `seed: u64`, `horizon: u32` |
//! | 1 | [`JournalRecord::SlotStart`] | `slot: u32` |
//! | 2 | [`JournalRecord::Admission`] | `slot: u32`, `original_arrival: u32`, `attempts_left: u32`, [`Request`], `price: f64`, `slot_paths: seq` [`SlotPath`] |
//! | 3 | [`JournalRecord::Rejection`] | `slot: u32`, `original_arrival: u32`, `attempts_left: u32`, `request_id: u32`, `reason: u8` |
//! | 4 | [`JournalRecord::FailureDraw`] | `slot: u32`, `edges: seq u32` |
//! | 5 | [`JournalRecord::Repair`] | `slot: u32`, `booking_index: u32`, `outcome: u8` (+ `price: f64` when repaired) |
//! | 6 | [`JournalRecord::SlotEnd`] | `slot: u32` |
//! | 7 | [`JournalRecord::Shed`] | `request_id: u32`, `reason: u8` (0 = queue full, 1 = deadline; 2 is retired and never reused) |
//!
//! All integers are little-endian; `f64` fields are raw IEEE-754 bits, so
//! replaying a journal reproduces prices and valuations bit-for-bit.
//!
//! # IO backends
//!
//! [`Journal`] writes through the [`JournalIo`] trait: production code
//! uses the real file backend ([`Journal::create`] /
//! [`Journal::open_append`]), while robustness tests inject
//! [`crate::faultio::FaultIo`] to exercise short writes, `EINTR`, fsync
//! failure and crashes at every byte boundary. The append loop handles
//! short writes and `EINTR` transparently; any other error kills the
//! journal (the frame may be half-written) and surfaces as a typed
//! [`io::Error`], never a panic.

use sb_cear::{RejectReason, SlotPath};
use sb_demand::Request;
use sb_wire::frame::{self, FrameStatus};
use sb_wire::{Reader, WireError, Writer};
use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Seek, SeekFrom};
use std::path::Path;

/// Upper bound on a single record payload — far above any real record,
/// low enough that a corrupt length prefix cannot ask for a huge buffer.
pub const MAX_RECORD_BYTES: u32 = 1 << 26;

/// Bytes of framing overhead per record (`len` + `checksum`).
const FRAME_HEADER_BYTES: usize = frame::HEADER_BYTES;

/// How a repair attempt ended, as recorded in the journal. The full
/// [`sb_cear::RepairOutcome`] carries the re-routed paths; the journal
/// only needs the branch taken (replay re-derives the paths
/// deterministically) plus the price actually charged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RepairEvent {
    /// The booking was dropped (policy `Drop`, or the window closed).
    Dropped,
    /// The unserved suffix was re-routed and committed.
    Repaired {
        /// The extra price charged (0 under the free `Repair` policy).
        price: f64,
    },
    /// No feasible repair this slot; the booking stays pending.
    Pending,
}

/// One engine event, as written to the journal.
///
/// The sequence of records for a run is a complete, replayable account of
/// everything the engine decided: resuming from a checkpoint re-executes
/// the remaining slots and *verifies* each regenerated event against the
/// journal suffix, so divergence (corrupt state, changed binary, edited
/// file) is detected instead of silently producing a franken-run.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// Written once, first, identifying the run.
    RunStart {
        /// Digest of the scenario + algorithm + seed (see
        /// [`crate::engine::run_digest`]); resuming against a journal
        /// with a different digest is refused.
        config_digest: u64,
        /// Algorithm display name, for humans inspecting the file.
        algorithm: String,
        /// Workload seed.
        seed: u64,
        /// Horizon length in slots.
        horizon: u32,
    },
    /// A slot began processing.
    SlotStart {
        /// The slot.
        slot: u32,
    },
    /// A request (arrival or retry) was admitted.
    Admission {
        /// Slot during which the decision was made.
        slot: u32,
        /// The slot the request originally arrived in (differs from
        /// `slot` for retries; welfare attributes here).
        original_arrival: u32,
        /// Retry attempts the request still had when admitted.
        attempts_left: u32,
        /// The request, in full (retries mutate start/end, so the
        /// admitted form is recorded, not the arrival form).
        request: Request,
        /// The price charged at admission.
        price: f64,
        /// The committed plan, one path per active slot.
        slot_paths: Vec<SlotPath>,
    },
    /// A request (arrival or retry) was rejected.
    Rejection {
        /// Slot during which the decision was made.
        slot: u32,
        /// The slot the request originally arrived in.
        original_arrival: u32,
        /// Retry attempts the request still had.
        attempts_left: u32,
        /// Which request.
        request_id: u32,
        /// Why it was rejected.
        reason: RejectReason,
    },
    /// The slot's unforeseen failures, as discovered at the boundary.
    FailureDraw {
        /// The slot.
        slot: u32,
        /// Edge ids (in the slot's snapshot) found down, in id order.
        edges: Vec<u32>,
    },
    /// A repair policy acted on one broken or pending booking.
    Repair {
        /// Slot of the boundary pass.
        slot: u32,
        /// Index into the run's booking table.
        booking_index: u32,
        /// How the attempt ended.
        outcome: RepairEvent,
    },
    /// A slot finished (boundary work included).
    SlotEnd {
        /// The slot.
        slot: u32,
    },
    /// The admission service (`sb-serve`) dropped a request without a
    /// quote-based decision. Never produced by the batch engine; recorded
    /// in the service WAL so resume knows the request's stream position
    /// was consumed. Shed decisions are load-dependent (queue occupancy,
    /// deadlines), so replay applies them as-is instead of re-deriving
    /// them.
    Shed {
        /// Which request.
        request_id: u32,
        /// Why it was dropped.
        reason: ShedReason,
    },
}

/// Why the admission service dropped a request without pricing it — the
/// load-shedding arm of [`JournalRecord::Shed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The bounded admission queue was full and this request had the
    /// lowest value density of the candidates.
    QueueFull,
    /// The request's service deadline passed before its commit turn.
    DeadlineExceeded,
}

impl JournalRecord {
    /// Serializes the record payload (tag byte first) into `w`.
    pub fn encode(&self, w: &mut Writer) {
        match self {
            JournalRecord::RunStart { config_digest, algorithm, seed, horizon } => {
                w.u8(0);
                w.u64(*config_digest);
                w.str(algorithm);
                w.u64(*seed);
                w.u32(*horizon);
            }
            JournalRecord::SlotStart { slot } => {
                w.u8(1);
                w.u32(*slot);
            }
            JournalRecord::Admission {
                slot,
                original_arrival,
                attempts_left,
                request,
                price,
                slot_paths,
            } => {
                w.u8(2);
                w.u32(*slot);
                w.u32(*original_arrival);
                w.u32(*attempts_left);
                request.encode(w);
                w.f64(*price);
                w.seq(slot_paths, |w, sp| sp.encode(w));
            }
            JournalRecord::Rejection {
                slot,
                original_arrival,
                attempts_left,
                request_id,
                reason,
            } => {
                w.u8(3);
                w.u32(*slot);
                w.u32(*original_arrival);
                w.u32(*attempts_left);
                w.u32(*request_id);
                w.u8(match reason {
                    RejectReason::NoFeasiblePath => 0,
                    RejectReason::PriceAboveValuation => 1,
                    RejectReason::CommitFailed => 2,
                });
            }
            JournalRecord::FailureDraw { slot, edges } => {
                w.u8(4);
                w.u32(*slot);
                w.seq(edges, |w, e| w.u32(*e));
            }
            JournalRecord::Repair { slot, booking_index, outcome } => {
                w.u8(5);
                w.u32(*slot);
                w.u32(*booking_index);
                match outcome {
                    RepairEvent::Dropped => w.u8(0),
                    RepairEvent::Repaired { price } => {
                        w.u8(1);
                        w.f64(*price);
                    }
                    RepairEvent::Pending => w.u8(2),
                }
            }
            JournalRecord::SlotEnd { slot } => {
                w.u8(6);
                w.u32(*slot);
            }
            JournalRecord::Shed { request_id, reason } => {
                w.u8(7);
                w.u32(*request_id);
                w.u8(match reason {
                    ShedReason::QueueFull => 0,
                    ShedReason::DeadlineExceeded => 1,
                });
            }
        }
    }

    /// Restores a record payload written by [`JournalRecord::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncation or an unknown tag — the
    /// journal scanner treats either as the start of the torn tail.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(JournalRecord::RunStart {
                config_digest: r.u64()?,
                algorithm: r.str()?,
                seed: r.u64()?,
                horizon: r.u32()?,
            }),
            1 => Ok(JournalRecord::SlotStart { slot: r.u32()? }),
            2 => {
                let slot = r.u32()?;
                let original_arrival = r.u32()?;
                let attempts_left = r.u32()?;
                let request = Request::decode(r)?;
                let price = r.f64()?;
                let n = r.seq_len(20)?; // SlotPath is ≥ 20 bytes.
                let slot_paths =
                    (0..n).map(|_| SlotPath::decode(r)).collect::<Result<Vec<_>, _>>()?;
                Ok(JournalRecord::Admission {
                    slot,
                    original_arrival,
                    attempts_left,
                    request,
                    price,
                    slot_paths,
                })
            }
            3 => Ok(JournalRecord::Rejection {
                slot: r.u32()?,
                original_arrival: r.u32()?,
                attempts_left: r.u32()?,
                request_id: r.u32()?,
                reason: match r.u8()? {
                    0 => RejectReason::NoFeasiblePath,
                    1 => RejectReason::PriceAboveValuation,
                    2 => RejectReason::CommitFailed,
                    tag => return Err(WireError::BadTag { tag, context: "RejectReason" }),
                },
            }),
            4 => {
                let slot = r.u32()?;
                let n = r.seq_len(4)?;
                let edges = (0..n).map(|_| r.u32()).collect::<Result<Vec<_>, _>>()?;
                Ok(JournalRecord::FailureDraw { slot, edges })
            }
            5 => Ok(JournalRecord::Repair {
                slot: r.u32()?,
                booking_index: r.u32()?,
                outcome: match r.u8()? {
                    0 => RepairEvent::Dropped,
                    1 => RepairEvent::Repaired { price: r.f64()? },
                    2 => RepairEvent::Pending,
                    tag => return Err(WireError::BadTag { tag, context: "RepairEvent" }),
                },
            }),
            6 => Ok(JournalRecord::SlotEnd { slot: r.u32()? }),
            7 => Ok(JournalRecord::Shed {
                request_id: r.u32()?,
                reason: match r.u8()? {
                    0 => ShedReason::QueueFull,
                    1 => ShedReason::DeadlineExceeded,
                    tag => return Err(WireError::BadTag { tag, context: "ShedReason" }),
                },
            }),
            tag => Err(WireError::BadTag { tag, context: "JournalRecord" }),
        }
    }
}

/// The result of scanning a journal file: every complete, checksummed
/// record plus an account of what (if anything) had to be discarded.
#[derive(Debug, Default)]
pub struct JournalScan {
    /// The complete records, in file order.
    pub records: Vec<JournalRecord>,
    /// Byte offset of each record's frame, aligned with
    /// [`JournalScan::records`] — the resume logic splits the record list
    /// at the checkpoint's recorded journal length.
    pub offsets: Vec<u64>,
    /// File offset just past the last complete record; appending resumes
    /// here (the file is truncated to this length first).
    pub valid_len: u64,
    /// Bytes after `valid_len` that were torn, corrupt, or undecodable
    /// and are dropped on resume. 0 for a cleanly closed journal.
    pub discarded_tail_bytes: u64,
}

/// Scans journal `bytes`, stopping at the first torn or corrupt frame.
pub fn scan_bytes(bytes: &[u8]) -> JournalScan {
    let mut scan = JournalScan::default();
    let mut pos = 0usize;
    loop {
        // Torn (`Incomplete`) and corrupt frames end the scan identically:
        // appends are sequential, so nothing past the first bad frame can
        // be trusted.
        let FrameStatus::Complete { payload, consumed } =
            frame::read_frame(&bytes[pos..], MAX_RECORD_BYTES)
        else {
            break;
        };
        let mut r = Reader::new(payload);
        let Ok(record) = JournalRecord::decode(&mut r) else { break };
        if !r.is_exhausted() {
            break; // trailing garbage inside a frame: treat as corrupt
        }
        scan.offsets.push(pos as u64);
        scan.records.push(record);
        pos += consumed;
    }
    scan.valid_len = pos as u64;
    scan.discarded_tail_bytes = (bytes.len() - pos) as u64;
    scan
}

/// Reads and scans the journal at `path`. A missing file scans as empty
/// (zero records, zero discarded bytes) — only real I/O failures error.
///
/// # Errors
///
/// Returns the underlying [`io::Error`] when the file exists but cannot
/// be read. Corruption is never an error; see [`JournalScan`].
pub fn scan(path: &Path) -> io::Result<JournalScan> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    Ok(scan_bytes(&bytes))
}

/// Backend behind [`Journal`]: the minimal file surface the journal
/// needs, abstracted so robustness tests can swap the real file for a
/// fault-injecting in-memory disk ([`crate::faultio::FaultIo`]).
///
/// Contract: [`JournalIo::write`] appends at the current position and may
/// accept fewer bytes than offered (short write) or fail with
/// [`io::ErrorKind::Interrupted`] (`EINTR`) having accepted none — the
/// journal's append loop retries both. Written bytes only count as
/// durable once [`JournalIo::sync_data`] returns `Ok`; a failed sync
/// means the bytes may be gone.
pub trait JournalIo: Send {
    /// Writes a prefix of `buf` at the current position, returning how
    /// many bytes were accepted.
    fn write(&mut self, buf: &[u8]) -> io::Result<usize>;
    /// Flushes accepted bytes to durable storage.
    fn sync_data(&mut self) -> io::Result<()>;
    /// Truncates the backing store to `len` bytes.
    fn truncate(&mut self, len: u64) -> io::Result<()>;
    /// Moves the write position to `pos`.
    fn seek_to(&mut self, pos: u64) -> io::Result<()>;
}

/// The production [`JournalIo`]: a real file.
#[derive(Debug)]
pub struct FileIo(File);

impl JournalIo for FileIo {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        io::Write::write(&mut self.0, buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }

    fn seek_to(&mut self, pos: u64) -> io::Result<()> {
        self.0.seek(SeekFrom::Start(pos)).map(|_| ())
    }
}

/// An open journal, positioned for appending.
pub struct Journal {
    io: Box<dyn JournalIo>,
    len: u64,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal").field("len", &self.len).finish_non_exhaustive()
    }
}

impl Journal {
    /// Creates (or truncates) the journal at `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`io::Error`].
    pub fn create(path: &Path) -> io::Result<Journal> {
        let file = OpenOptions::new().write(true).create(true).truncate(true).open(path)?;
        Ok(Journal { io: Box::new(FileIo(file)), len: 0 })
    }

    /// Opens the journal at `path` for appending, first truncating it to
    /// `valid_len` (as reported by [`scan`]) so a torn tail from a crash
    /// is physically removed before new records follow it.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`io::Error`].
    pub fn open_append(path: &Path, valid_len: u64) -> io::Result<Journal> {
        let file = OpenOptions::new().write(true).open(path)?;
        Journal::open_append_io(Box::new(FileIo(file)), valid_len)
    }

    /// A fresh, empty journal over a custom backend (fault injection,
    /// in-memory tests).
    pub fn from_io(io: Box<dyn JournalIo>) -> Journal {
        Journal { io, len: 0 }
    }

    /// [`Journal::open_append`] over a custom backend: truncates it to
    /// `valid_len`, positions the cursor there, and syncs the truncation.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`io::Error`].
    pub fn open_append_io(mut io: Box<dyn JournalIo>, valid_len: u64) -> io::Result<Journal> {
        io.truncate(valid_len)?;
        io.seek_to(valid_len)?;
        io.sync_data()?;
        Ok(Journal { io, len: valid_len })
    }

    /// Current journal length in bytes (all of it complete records).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether no records have been written.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one record and fsyncs, so the record survives anything
    /// short of media failure once this returns. Short writes and `EINTR`
    /// from the backend are retried transparently (resuming mid-frame, so
    /// no byte is written twice).
    ///
    /// # Errors
    ///
    /// Returns the underlying [`io::Error`]; the journal must be treated
    /// as dead after a failed append (the frame may be half-written, and
    /// after a failed sync the kernel may have dropped the dirty pages).
    pub fn append(&mut self, record: &JournalRecord) -> io::Result<()> {
        let mut w = Writer::new();
        record.encode(&mut w);
        let payload = w.into_bytes();
        let mut framed = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
        frame::write_frame(&mut framed, &payload);
        let mut off = 0usize;
        while off < framed.len() {
            match self.io.write(&framed[off..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "journal backend accepted no bytes",
                    ));
                }
                Ok(n) => off += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.io.sync_data()?;
        self.len += framed.len() as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_topology::{NodeId, SlotIndex};
    use std::io::Write as _;

    fn sample_records() -> Vec<JournalRecord> {
        let request = Request {
            id: sb_demand::RequestId(4),
            source: NodeId(1),
            destination: NodeId(2),
            rate: sb_demand::RateProfile::Constant(900.0),
            start: SlotIndex(3),
            end: SlotIndex(6),
            valuation: 1.5e9,
        };
        vec![
            JournalRecord::RunStart {
                config_digest: 0xabcd_ef12,
                algorithm: "CEAR".into(),
                seed: 7,
                horizon: 24,
            },
            JournalRecord::SlotStart { slot: 3 },
            JournalRecord::Admission {
                slot: 3,
                original_arrival: 3,
                attempts_left: 2,
                request: request.clone(),
                price: 0.25,
                slot_paths: vec![SlotPath {
                    slot: SlotIndex(3),
                    nodes: vec![NodeId(1), NodeId(9), NodeId(2)],
                    edges: vec![sb_topology::graph::EdgeId(5), sb_topology::graph::EdgeId(11)],
                }],
            },
            JournalRecord::Rejection {
                slot: 3,
                original_arrival: 2,
                attempts_left: 0,
                request_id: 9,
                reason: RejectReason::PriceAboveValuation,
            },
            JournalRecord::FailureDraw { slot: 3, edges: vec![5, 17] },
            JournalRecord::Repair {
                slot: 3,
                booking_index: 0,
                outcome: RepairEvent::Repaired { price: 0.125 },
            },
            JournalRecord::Repair { slot: 3, booking_index: 1, outcome: RepairEvent::Pending },
            JournalRecord::Shed { request_id: 11, reason: ShedReason::QueueFull },
            JournalRecord::Shed { request_id: 12, reason: ShedReason::DeadlineExceeded },
            JournalRecord::SlotEnd { slot: 3 },
        ]
    }

    #[test]
    fn records_roundtrip() {
        for record in sample_records() {
            let mut w = Writer::new();
            record.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(JournalRecord::decode(&mut r).unwrap(), record);
            assert!(r.is_exhausted());
            for cut in 0..bytes.len() {
                let mut r = Reader::new(&bytes[..cut]);
                assert!(JournalRecord::decode(&mut r).is_err(), "cut at {cut}: {record:?}");
            }
        }
        // Shed reason byte 2 is retired: it decodes to nothing.
        let retired = [7, 12, 0, 0, 0, 2];
        assert!(matches!(
            JournalRecord::decode(&mut Reader::new(&retired)),
            Err(WireError::BadTag { tag: 2, context: "ShedReason" })
        ));
    }

    #[test]
    fn file_roundtrip_and_torn_tail_recovery() {
        let dir = std::env::temp_dir().join("sb_journal_test_roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.bin");
        let records = sample_records();
        {
            let mut j = Journal::create(&path).unwrap();
            for record in &records {
                j.append(record).unwrap();
            }
        }
        let clean = scan(&path).unwrap();
        assert_eq!(clean.records, records);
        assert_eq!(clean.discarded_tail_bytes, 0);
        assert_eq!(clean.offsets.len(), records.len());

        // Truncate the file at every possible byte length: the scan must
        // recover exactly the records whose frames survived intact and
        // report the rest as discarded — and never panic.
        let full = std::fs::read(&path).unwrap();
        for cut in 0..full.len() {
            let scan = scan_bytes(&full[..cut]);
            assert!(scan.records.len() <= records.len());
            assert_eq!(scan.records[..], records[..scan.records.len()], "cut at {cut}");
            assert_eq!(scan.valid_len + scan.discarded_tail_bytes, cut as u64);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flips_truncate_but_never_panic() {
        let records = sample_records();
        let mut bytes = Vec::new();
        for record in &records {
            let mut w = Writer::new();
            record.encode(&mut w);
            frame::write_frame(&mut bytes, &w.into_bytes());
        }
        // Flip one bit at a time (stride keeps the test fast): everything
        // before the damaged frame must still be recovered verbatim.
        for bit in (0..bytes.len() * 8).step_by(13) {
            let mut copy = bytes.clone();
            copy[bit / 8] ^= 1 << (bit % 8);
            let scan = scan_bytes(&copy);
            let intact = scan.records.len();
            assert_eq!(scan.records[..], records[..intact], "flip at bit {bit}");
        }
    }

    #[test]
    fn open_append_truncates_the_torn_tail() {
        let dir = std::env::temp_dir().join("sb_journal_test_append");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.bin");
        let records = sample_records();
        {
            let mut j = Journal::create(&path).unwrap();
            for record in &records[..3] {
                j.append(record).unwrap();
            }
        }
        // Simulate a crash mid-append: garbage half-frame at the end.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0x55; 7]).unwrap();
        }
        let scan = scan(&path).unwrap();
        assert_eq!(scan.records, records[..3]);
        assert_eq!(scan.discarded_tail_bytes, 7);

        let mut j = Journal::open_append(&path, scan.valid_len).unwrap();
        j.append(&records[3]).unwrap();
        let rescan = scan_bytes(&std::fs::read(&path).unwrap());
        assert_eq!(rescan.records, records[..4]);
        assert_eq!(rescan.discarded_tail_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
