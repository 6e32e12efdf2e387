//! Minimal deterministic binary encoding for durability artifacts.
//!
//! The checkpoint and journal formats (crash recovery for long-running
//! sweeps) need a serialization layer that is
//!
//! * **bit-exact** — `f64` round-trips through [`Writer::f64`] /
//!   [`Reader::f64`] via `to_bits`/`from_bits`, so a restored
//!   `NetworkState` is indistinguishable from the original;
//! * **self-checking** — [`checksum`] (FNV-1a 64) lets framers detect
//!   torn writes and bit rot without trusting the payload;
//! * **dependency-free** — it must work identically in offline stub
//!   builds and networked CI, so it cannot lean on serde.
//!
//! Everything is little-endian and length-prefixed. Decoding never
//! panics: every [`Reader`] method returns a [`WireError`] on truncated
//! or malformed input, which the journal layer converts into "discard the
//! torn tail" and the checkpoint layer into "skip this snapshot".
//!
//! The format is deliberately dumb — no schema evolution, no varints.
//! Versioning happens one layer up (the checkpoint/journal headers carry
//! an explicit format version and reject unknown ones).

#![warn(missing_docs)]

/// Decoding failure: the buffer did not contain what the caller asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the requested value.
    Truncated {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// An enum tag byte had no defined meaning.
    BadTag {
        /// The offending tag value.
        tag: u8,
        /// What was being decoded.
        context: &'static str,
    },
    /// A length prefix or field value failed a sanity bound.
    Invalid {
        /// What was wrong.
        detail: String,
    },
    /// A UTF-8 string field held invalid UTF-8.
    BadUtf8,
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated { needed, remaining } => {
                write!(f, "truncated input: needed {needed} bytes, {remaining} remaining")
            }
            WireError::BadTag { tag, context } => write!(f, "unknown tag {tag} decoding {context}"),
            WireError::Invalid { detail } => write!(f, "invalid field: {detail}"),
            WireError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
        }
    }
}

impl std::error::Error for WireError {}

/// FNV-1a 64-bit checksum of a byte slice.
///
/// Not cryptographic — it guards against torn writes and accidental
/// corruption, the failure modes of a crashed process, not an adversary.
pub fn checksum(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Length + checksum framing shared by every durability artifact that is
/// a *sequence* of self-checking payloads: the admission journal, the
/// `sb-serve` WAL, and the service's request/ack frame logs.
///
/// One frame is `len: u32 | checksum: u64 | payload (len bytes)`, all
/// little-endian. The reader never panics and never allocates: a torn or
/// corrupt head is reported as a status, so file scanners can treat it as
/// the start of the torn tail and stream decoders as "wait for more
/// bytes".
pub mod frame {
    use super::checksum;

    /// Bytes of framing overhead per frame (`len: u32` + `checksum: u64`).
    pub const HEADER_BYTES: usize = 12;

    /// Appends one frame (`len | checksum | payload`) to `out`.
    pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
        out.reserve(HEADER_BYTES + payload.len());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&checksum(payload).to_le_bytes());
        out.extend_from_slice(payload);
    }

    /// Outcome of reading one frame from the head of a buffer.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum FrameStatus<'a> {
        /// A complete frame whose checksum verified.
        Complete {
            /// The frame's payload bytes (borrowed from the input).
            payload: &'a [u8],
            /// Total bytes consumed, header included.
            consumed: usize,
        },
        /// Not enough bytes for a whole frame: more input is needed
        /// (stream case) or this is a torn tail (file case).
        Incomplete,
        /// The header or payload is inconsistent — a length prefix beyond
        /// `max_payload` or a checksum mismatch. File scanners treat this
        /// exactly like [`FrameStatus::Incomplete`] (stop and discard);
        /// stream decoders must drop the connection, since resynchronizing
        /// inside a corrupt stream is guesswork.
        Corrupt,
    }

    /// Reads one frame from the head of `buf` without copying.
    pub fn read_frame(buf: &[u8], max_payload: u32) -> FrameStatus<'_> {
        let Some((len_bytes, rest)) = buf.split_first_chunk::<4>() else {
            return FrameStatus::Incomplete;
        };
        let Some((sum_bytes, rest)) = rest.split_first_chunk::<8>() else {
            return FrameStatus::Incomplete;
        };
        let len = u32::from_le_bytes(*len_bytes);
        if len > max_payload {
            return FrameStatus::Corrupt;
        }
        let len = len as usize;
        if rest.len() < len {
            return FrameStatus::Incomplete;
        }
        let payload = &rest[..len];
        if checksum(payload) != u64::from_le_bytes(*sum_bytes) {
            return FrameStatus::Corrupt;
        }
        FrameStatus::Complete { payload, consumed: HEADER_BYTES + len }
    }
}

/// Sealed files: the one on-disk shape of every durability artifact that
/// is a *single* self-checking payload — engine checkpoints, a durable
/// run's final metrics, fleet cell results and series spills.
///
/// A sealed file is `magic: 8 bytes | checksum: u64 | body`, the checksum
/// being [`checksum`] of the body, little-endian. It is published
/// atomically (temp file, `write_all`, fsync, rename, directory fsync), so
/// a crash leaves at worst a stale `.tmp` beside the complete old file,
/// never a torn file under the final name; and whatever is under the final
/// name is trusted only after magic and checksum verify.
pub mod sealed {
    use super::checksum;
    use std::fs::{self, File};
    use std::io::{self, Write as _};
    use std::path::Path;

    /// Bytes in front of the body (`magic` + `checksum: u64`).
    pub(crate) const HEADER_BYTES: usize = 16;

    /// Durably replaces `path` with the sealed form of `body`. The temp
    /// file is `path` with `.tmp` appended to its name.
    ///
    /// # Errors
    ///
    /// The underlying [`io::Error`] of the create, write, fsync or rename.
    pub fn write_atomic(path: &Path, magic: &[u8; 8], body: &[u8]) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(HEADER_BYTES + body.len());
        bytes.extend_from_slice(magic);
        bytes.extend_from_slice(&checksum(body).to_le_bytes());
        bytes.extend_from_slice(body);

        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        // Make the rename itself durable; best-effort where the platform
        // cannot fsync a directory.
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        if let Ok(d) = File::open(dir.unwrap_or(Path::new("."))) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    /// The body of the sealed file at `path`, or `None` when the file is
    /// missing, unreadable, carries another magic, is truncated anywhere,
    /// or fails its checksum. Never panics.
    pub fn read(path: &Path, magic: &[u8; 8]) -> Option<Vec<u8>> {
        let mut bytes = fs::read(path).ok()?;
        let body = bytes.strip_prefix(magic.as_slice())?;
        let (sum, body) = body.split_first_chunk::<8>()?;
        if u64::from_le_bytes(*sum) != checksum(body) {
            return None;
        }
        bytes.drain(..HEADER_BYTES);
        Some(bytes)
    }
}

/// Append-only encoder over a growable byte buffer.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (checked nowhere: usize ≤ u64 on all
    /// supported targets).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` bit-exactly.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Writes raw bytes without a length prefix (caller frames them).
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed byte blob.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length prefix followed by per-element encoding.
    pub fn seq<T>(&mut self, items: &[T], mut each: impl FnMut(&mut Writer, &T)) {
        self.usize(items.len());
        for item in items {
            each(self, item);
        }
    }
}

/// Sequential decoder over a byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader starting at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the whole buffer was consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { needed: n, remaining: self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool; any byte other than 0/1 is malformed.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { tag, context: "bool" }),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a `usize` written by [`Writer::usize`], rejecting values that
    /// do not fit the platform's pointer width.
    pub fn usize(&mut self) -> Result<usize, WireError> {
        let v = self.u64()?;
        usize::try_from(v)
            .map_err(|_| WireError::Invalid { detail: format!("usize out of range: {v}") })
    }

    /// Reads a length prefix meant to size an allocation, bounding it by
    /// what the buffer could possibly still hold (`element_size ≥ 1`
    /// bytes each) so corrupt prefixes cannot trigger huge allocations.
    pub fn seq_len(&mut self, element_size: usize) -> Result<usize, WireError> {
        let n = self.usize()?;
        let bound = self.remaining() / element_size.max(1);
        if n > bound {
            return Err(WireError::Invalid {
                detail: format!("sequence length {n} exceeds remaining input ({bound} max)"),
            });
        }
        Ok(n)
    }

    /// Reads an `f64` bit-exactly.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let n = self.seq_len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    /// Reads a length-prefixed byte blob. The length is bounded by the
    /// remaining input, so a corrupt prefix cannot trigger a huge
    /// allocation.
    pub fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.seq_len(1)?;
        Ok(self.take(n)?.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut w = Writer::new();
        w.u8(7);
        w.bool(true);
        w.bool(false);
        w.u32(0xdead_beef);
        w.u64(u64::MAX);
        w.usize(42);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.str("hëllo");
        w.bytes(&[0xde, 0xad, 0x00]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.usize().unwrap(), 42);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.str().unwrap(), "hëllo");
        assert_eq!(r.bytes().unwrap(), vec![0xde, 0xad, 0x00]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn seq_roundtrip() {
        let mut w = Writer::new();
        w.seq(&[1.5f64, -2.5, 3.25], |w, v| w.f64(*v));
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let n = r.seq_len(8).unwrap();
        let vs: Vec<f64> = (0..n).map(|_| r.f64().unwrap()).collect();
        assert_eq!(vs, vec![1.5, -2.5, 3.25]);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.u64(12345);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(matches!(r.u64(), Err(WireError::Truncated { .. })), "cut at {cut}");
        }
    }

    #[test]
    fn bogus_length_prefix_rejected() {
        let mut w = Writer::new();
        w.usize(usize::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.seq_len(8), Err(WireError::Invalid { .. })));
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.str(), Err(WireError::Invalid { .. })));
    }

    #[test]
    fn bad_bool_tag_rejected() {
        let mut r = Reader::new(&[9]);
        assert_eq!(r.bool(), Err(WireError::BadTag { tag: 9, context: "bool" }));
    }

    #[test]
    fn checksum_detects_any_single_bit_flip() {
        let data = b"space booking durability layer";
        let base = checksum(data);
        let mut copy = data.to_vec();
        for byte in 0..copy.len() {
            for bit in 0..8 {
                copy[byte] ^= 1 << bit;
                assert_ne!(checksum(&copy), base, "flip at {byte}:{bit} undetected");
                copy[byte] ^= 1 << bit;
            }
        }
        assert_eq!(checksum(&copy), base);
    }

    #[test]
    fn checksum_known_vectors() {
        // FNV-1a 64 reference values.
        assert_eq!(checksum(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(checksum(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn frame_roundtrip_and_truncation() {
        use frame::{read_frame, write_frame, FrameStatus};
        let mut buf = Vec::new();
        write_frame(&mut buf, b"first");
        write_frame(&mut buf, b"");
        write_frame(&mut buf, b"third payload");
        let mut pos = 0;
        let mut payloads = Vec::new();
        while let FrameStatus::Complete { payload, consumed } = read_frame(&buf[pos..], 1 << 20) {
            payloads.push(payload.to_vec());
            pos += consumed;
        }
        assert_eq!(payloads, vec![b"first".to_vec(), b"".to_vec(), b"third payload".to_vec()]);
        assert_eq!(pos, buf.len());
        // Every truncation of a frame stream reads as Incomplete at the
        // cut, never as a bogus frame and never as a panic.
        for cut in 0..buf.len() {
            let mut pos = 0;
            loop {
                match read_frame(&buf[pos..cut], 1 << 20) {
                    FrameStatus::Complete { consumed, .. } => pos += consumed,
                    FrameStatus::Incomplete => break,
                    FrameStatus::Corrupt => panic!("truncation at {cut} read as corrupt"),
                }
            }
        }
    }

    #[test]
    fn frame_corruption_detected() {
        use frame::{read_frame, write_frame, FrameStatus};
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload under test");
        // Oversized length prefix.
        let mut big = buf.clone();
        big[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(read_frame(&big, 1 << 20), FrameStatus::Corrupt);
        // Any flipped payload bit fails the checksum.
        for byte in frame::HEADER_BYTES..buf.len() {
            let mut copy = buf.clone();
            copy[byte] ^= 0x10;
            assert_eq!(read_frame(&copy, 1 << 20), FrameStatus::Corrupt, "flip at {byte}");
        }
    }

    #[test]
    fn sealed_file_roundtrips_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join("sb_wire_sealed_roundtrip");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.bin");
        sealed::write_atomic(&path, b"SBTEST01", b"first body").unwrap();
        assert_eq!(sealed::read(&path, b"SBTEST01"), Some(b"first body".to_vec()));
        // A second write replaces the file whole; an empty body is a body.
        sealed::write_atomic(&path, b"SBTEST01", b"").unwrap();
        assert_eq!(sealed::read(&path, b"SBTEST01"), Some(Vec::new()));
        // Another format's reader, or no file at all, reads as absent.
        assert_eq!(sealed::read(&path, b"SBTEST02"), None);
        assert_eq!(sealed::read(&dir.join("absent.bin"), b"SBTEST01"), None);
        let names: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(names, ["state.bin"], "the temp file must be renamed away");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sealed_file_rejects_every_truncation_and_seeded_bit_flips() {
        let dir = std::env::temp_dir().join("sb_wire_sealed_corrupt");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.bin");
        let body: Vec<u8> = (0..97u32).map(|i| (i * 31 % 251) as u8).collect();
        sealed::write_atomic(&path, b"SBTEST01", &body).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len(), sealed::HEADER_BYTES + body.len());
        for cut in 0..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert_eq!(sealed::read(&path, b"SBTEST01"), None, "cut at {cut}");
        }
        // One to three flipped bits anywhere — magic, checksum or body.
        let mut rng = 0x5EA1_ED00_u64;
        let mut next = || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 33) as usize
        };
        for case in 0..400 {
            let mut copy = bytes.clone();
            for _ in 0..1 + next() % 3 {
                copy[next() % bytes.len()] ^= 1 << (next() % 8);
            }
            if copy == bytes {
                continue; // two flips of one bit cancel
            }
            std::fs::write(&path, &copy).unwrap();
            assert_eq!(sealed::read(&path, b"SBTEST01"), None, "case {case}");
        }
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(sealed::read(&path, b"SBTEST01"), Some(body));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_display() {
        let e = WireError::Truncated { needed: 8, remaining: 3 };
        assert!(format!("{e}").contains("needed 8"));
        let b = WireError::BadTag { tag: 4, context: "policy" };
        assert!(format!("{b}").contains("policy"));
    }
}
