//! What the numbers were measured on, and the guard against measuring
//! the wrong program.

use std::path::Path;
use std::process::Command;

/// Environment switches that turn an optimisation off. A benchmark run
/// with one of them set would time a program nobody ships, so the run is
/// refused instead.
pub const REFUSED_ENV: [&str; 4] =
    ["SB_NO_SPT_CACHE", "SB_NO_PREPARE_CACHE", "SB_FULL_REBUILD", "SB_FLEET_NO_SHIP"];

/// The first of [`REFUSED_ENV`] that is set, if any.
pub fn refused_env() -> Option<&'static str> {
    REFUSED_ENV.into_iter().find(|name| std::env::var_os(name).is_some())
}

/// Peak resident set size of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// First line of a command's standard output, or `unknown`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Filesystem type holding `dir`, from the longest matching mount point in
/// `/proc/self/mounts`. `fdatasync` on tmpfs and on a disk are different
/// experiments, so the durable numbers carry this.
pub fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fstype) = (fields.next()?, fields.next()?, fields.next()?);
            dir.starts_with(mount).then(|| (mount.len(), fstype.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, fstype)| fstype)
}

/// The `host` block: one line, printed with every run.
pub fn host_block(dir: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "host: nproc={nproc} rustc=\"{}\" git={} fs({})={}",
        first_line("rustc", &["--version"]),
        first_line("git", &["rev-parse", "--short", "HEAD"]),
        dir.display(),
        filesystem_of(dir),
    )
}
