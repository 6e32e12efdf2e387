//! Versioned, checksummed engine checkpoints.
//!
//! A checkpoint is a single self-contained file capturing the engine at a
//! slot boundary: network state (reserved bandwidth, booking log, energy
//! ledger), run tally (counters, retry queue, active bookings), and the
//! failure oracle's chain state. Restoring one and replaying the journal
//! suffix reproduces an uninterrupted run bit-for-bit.
//!
//! # On-disk format
//!
//! ```text
//! ┌───────────────┬───────────────┬──────────────────────────────┐
//! │ magic 8 bytes │ checksum: u64 │ body                         │
//! └───────────────┴───────────────┴──────────────────────────────┘
//! body = config_digest: u64 | slot: u32 | journal_len: u64 | core payload
//! ```
//!
//! * `magic` — `b"SBCKPT01"`; the trailing digits version the format, and
//!   unknown versions are skipped, not guessed at;
//! * `checksum` — FNV-1a 64 of the body;
//! * `config_digest` — ties the checkpoint to one (scenario, algorithm,
//!   seed) triple;
//! * `journal_len` — the journal's byte length when the checkpoint was
//!   taken; resume replays only records past this offset;
//! * core payload — [`crate::engine::EngineCore`] state, see its
//!   `encode`.
//!
//! Files are named `ckpt_{slot:05}.bin` and written atomically as
//! [`sb_wire::sealed`] files (temp file, fsync, rename, directory fsync),
//! so a crash mid-checkpoint leaves at worst a stale temp file, never a
//! half-written checkpoint under the final name. [`load_latest`] walks
//! candidates newest-first and silently skips any that fail validation — a
//! corrupt latest checkpoint costs some replay time, not the run.

use sb_wire::{sealed, Reader, Writer};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Format magic; bump the digits when the layout changes.
const MAGIC: &[u8; 8] = b"SBCKPT01";

/// A checkpoint that passed magic, checksum and digest validation.
#[derive(Debug)]
pub struct LoadedCheckpoint {
    /// The file it came from (for error messages).
    pub path: PathBuf,
    /// The next slot to execute (all slots `< slot` are inside).
    pub slot: u32,
    /// Journal byte length at checkpoint time.
    pub journal_len: u64,
    /// The serialized [`crate::engine::EngineCore`].
    pub payload: Vec<u8>,
}

fn file_name(slot: u32) -> String {
    format!("ckpt_{slot:05}.bin")
}

/// Writes a checkpoint for `slot` into `dir` atomically, returning the
/// final path.
///
/// # Errors
///
/// Returns the underlying [`io::Error`] from the write, fsync or rename.
pub fn write(
    dir: &Path,
    slot: u32,
    config_digest: u64,
    journal_len: u64,
    core_payload: &[u8],
) -> io::Result<PathBuf> {
    let mut body = Writer::new();
    body.u64(config_digest);
    body.u32(slot);
    body.u64(journal_len);
    body.raw(core_payload);
    let path = dir.join(file_name(slot));
    sealed::write_atomic(&path, MAGIC, &body.into_bytes())?;
    Ok(path)
}

/// Parses one checkpoint file, returning `None` if it is malformed or
/// belongs to a different run.
fn parse(path: &Path, config_digest: u64) -> Option<LoadedCheckpoint> {
    let mut body = sealed::read(path, MAGIC)?;
    let mut r = Reader::new(&body);
    let digest = r.u64().ok()?;
    if digest != config_digest {
        return None;
    }
    let slot = r.u32().ok()?;
    let journal_len = r.u64().ok()?;
    let header = body.len() - r.remaining();
    body.drain(..header);
    Some(LoadedCheckpoint { path: path.to_path_buf(), slot, journal_len, payload: body })
}

/// Finds the newest valid checkpoint for this run in `dir`: highest slot
/// whose file passes magic, checksum and digest checks. Invalid or
/// foreign files are skipped without error.
///
/// # Errors
///
/// Returns the underlying [`io::Error`] only when the directory itself
/// cannot be listed (a missing directory reads as "no checkpoint").
pub fn load_latest(dir: &Path, config_digest: u64) -> io::Result<Option<LoadedCheckpoint>> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut slots: Vec<(u32, PathBuf)> = Vec::new();
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(digits) = name.strip_prefix("ckpt_").and_then(|s| s.strip_suffix(".bin")) {
            if let Ok(slot) = digits.parse::<u32>() {
                slots.push((slot, entry.path()));
            }
        }
    }
    slots.sort_by_key(|entry| std::cmp::Reverse(entry.0));
    for (_, path) in slots {
        if let Some(loaded) = parse(&path, config_digest) {
            return Ok(Some(loaded));
        }
    }
    Ok(None)
}

/// Removes every checkpoint file in `dir` (fresh runs call this so a
/// later resume cannot pick up checkpoints from an earlier attempt whose
/// journal was overwritten).
///
/// # Errors
///
/// Returns the underlying [`io::Error`]; a missing directory is fine.
pub fn clear(dir: &Path) -> io::Result<()> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        if let Some(name) = entry.file_name().to_str() {
            if name.starts_with("ckpt_") && (name.ends_with(".bin") || name.ends_with(".tmp")) {
                fs::remove_file(entry.path())?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sb_checkpoint_test_{tag}"));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_then_load_latest_roundtrips() {
        let dir = tmp_dir("roundtrip");
        write(&dir, 3, 42, 100, b"three").unwrap();
        write(&dir, 7, 42, 200, b"seven").unwrap();
        let loaded = load_latest(&dir, 42).unwrap().expect("checkpoint");
        assert_eq!(loaded.slot, 7);
        assert_eq!(loaded.journal_len, 200);
        assert_eq!(loaded.payload, b"seven");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_latest_falls_back_to_older() {
        let dir = tmp_dir("fallback");
        write(&dir, 3, 42, 100, b"three").unwrap();
        let latest = write(&dir, 7, 42, 200, b"seven").unwrap();
        // Flip a byte in the newest file: it must be skipped, not trusted.
        let mut bytes = fs::read(&latest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&latest, bytes).unwrap();
        let loaded = load_latest(&dir, 42).unwrap().expect("older checkpoint");
        assert_eq!(loaded.slot, 3);
        assert_eq!(loaded.payload, b"three");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_digest_is_skipped() {
        let dir = tmp_dir("digest");
        write(&dir, 3, 42, 100, b"three").unwrap();
        assert!(load_latest(&dir, 43).unwrap().is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_dir_and_clear() {
        let dir = tmp_dir("clear");
        let missing = dir.join("nope");
        assert!(load_latest(&missing, 1).unwrap().is_none());
        clear(&missing).unwrap();
        write(&dir, 1, 9, 0, b"x").unwrap();
        clear(&dir).unwrap();
        assert!(load_latest(&dir, 9).unwrap().is_none());
        fs::remove_dir_all(&dir).ok();
    }
}
