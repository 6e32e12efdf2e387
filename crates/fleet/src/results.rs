//! The per-cell durable results directory — the fleet's resumable unit.
//!
//! Every completed cell is persisted as `cell_<digest>.bin` under the
//! results directory, keyed by [`sb_sim::engine::run_digest`] over the
//! cell's `(scenario, algorithm, seed)`. Writes are atomic
//! ([`sb_wire::sealed`]: temp file + `fsync` + rename, then a directory
//! fsync) so a coordinator killed at any instant leaves either the
//! complete old state or the complete new state — never a torn record.
//! Resume is a directory scan: cells whose file exists and verifies are
//! done, everything else is re-dispatched.
//! Because the key is the config digest, a results directory can never
//! leak a stale result into a changed sweep — a different config is a
//! different file name.

use sb_sim::RunMetrics;
use sb_wire::sealed;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Magic prefix of a cell-result file.
const CELL_MAGIC: &[u8; 8] = b"SBCELL01";

/// Magic prefix of a shipped-series spill file.
const SERIES_MAGIC: &[u8; 8] = b"SBSERS01";

/// The path of one cell's result file.
pub fn cell_path(dir: &Path, digest: u64) -> PathBuf {
    dir.join(format!("cell_{digest:016x}.bin"))
}

/// Durably writes one cell's metrics: temp + fsync + rename + dir fsync.
///
/// # Errors
///
/// Propagates I/O errors (the caller maps them onto the owning cell).
pub fn store(dir: &Path, digest: u64, metrics: &RunMetrics) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let mut body = sb_wire::Writer::new();
    body.u64(digest);
    metrics.encode(&mut body);
    sealed::write_atomic(&cell_path(dir, digest), CELL_MAGIC, &body.into_bytes())
}

/// Loads one cell's metrics if its file exists and verifies (magic,
/// checksum, digest). Anything torn, corrupt or foreign reads as `None` —
/// the cell simply re-runs.
pub fn load(dir: &Path, digest: u64) -> Option<RunMetrics> {
    let body = sealed::read(&cell_path(dir, digest), CELL_MAGIC)?;
    let mut r = sb_wire::Reader::new(&body);
    if r.u64().ok()? != digest {
        return None;
    }
    let metrics = RunMetrics::decode(&mut r).ok()?;
    r.is_exhausted().then_some(metrics)
}

/// The path of one shipped series' spill file, keyed by the package
/// bytes' FNV-1a checksum.
pub fn series_path(dir: &Path, digest: u64) -> PathBuf {
    dir.join(format!("series_{digest:016x}.bin"))
}

/// Durably spills one encoded series package (temp + fsync + rename +
/// dir fsync, same discipline as [`store`]) and returns its path. The
/// coordinator embeds the path in job frames too large to carry the
/// package inline.
///
/// # Errors
///
/// Propagates I/O errors (the caller degrades to shipping nothing).
pub fn store_series(dir: &Path, digest: u64, package: &[u8]) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = series_path(dir, digest);
    sealed::write_atomic(&path, SERIES_MAGIC, package)?;
    Ok(path)
}

/// Loads one spilled series package if the file exists and verifies:
/// magic, the sealed file's checksum, and the package bytes hashing to
/// `digest` (the digest *is* the content checksum, so a spill is a sealed
/// file whose checksum names it). Anything torn, corrupt or foreign reads
/// as `None` — the worker simply rebuilds the series locally.
pub fn load_series(path: &Path, digest: u64) -> Option<Vec<u8>> {
    let package = sealed::read(path, SERIES_MAGIC)?;
    (sb_wire::checksum(&package) == digest).then_some(package)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_sim::engine::{run, AlgorithmKind};
    use sb_sim::ScenarioConfig;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sb_fleet_results_{tag}"));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn roundtrips_bit_exactly() {
        let dir = tmp("roundtrip");
        let m = run(&ScenarioConfig::tiny(), &AlgorithmKind::Ssp, 3);
        store(&dir, 0xfeed, &m).unwrap();
        assert_eq!(load(&dir, 0xfeed), Some(m));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_digest_and_corruption_read_as_absent() {
        let dir = tmp("corrupt");
        let m = run(&ScenarioConfig::tiny(), &AlgorithmKind::Ssp, 3);
        store(&dir, 0xfeed, &m).unwrap();
        assert_eq!(load(&dir, 0xbeef), None, "different digest, different file");
        // Flip one payload byte: checksum must catch it.
        let path = cell_path(&dir, 0xfeed);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(load(&dir, 0xfeed), None);
        // Truncations never panic, never load.
        for cut in 0..bytes.len() {
            bytes[last] ^= 0x40; // restore
            fs::write(&path, &bytes[..cut]).unwrap();
            assert_eq!(load(&dir, 0xfeed), None, "cut at {cut}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_directory_reads_as_absent() {
        assert_eq!(load(Path::new("/nonexistent/sb-fleet"), 1), None);
    }

    #[test]
    fn series_spill_roundtrips_and_rejects_corruption() {
        let dir = tmp("series");
        let package: Vec<u8> = (0..200u16).map(|i| (i % 251) as u8).collect();
        let digest = sb_wire::checksum(&package);
        let path = store_series(&dir, digest, &package).unwrap();
        assert_eq!(path, series_path(&dir, digest));
        assert_eq!(load_series(&path, digest), Some(package.clone()));
        // A foreign digest never loads someone else's bytes.
        assert_eq!(load_series(&path, digest ^ 1), None);
        // Flip one payload byte: the content checksum must catch it.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x08;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(load_series(&path, digest), None);
        // Truncations never panic, never load.
        bytes[last] ^= 0x08;
        for cut in 0..bytes.len() {
            fs::write(&path, &bytes[..cut]).unwrap();
            assert_eq!(load_series(&path, digest), None, "cut at {cut}");
        }
        assert_eq!(load_series(Path::new("/nonexistent/series.bin"), digest), None);
        fs::remove_dir_all(&dir).ok();
    }
}
