//! Validated CLI parsing for the `sb-serve` binary.
//!
//! Unlike a "forgiving" parser that silently clamps nonsense values,
//! every flag here is range-checked and an offending value is reported —
//! a service started with `--workers 0` would deadlock, so it must not
//! start at all.

use std::path::PathBuf;

/// Parsed and validated `sb-serve` flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeArgs {
    /// `--dir`: working directory for the WAL, checkpoints, and outputs.
    pub dir: PathBuf,
    /// `--scale`: `tiny` or `fast` scenario.
    pub scale: String,
    /// `--seed`: workload seed.
    pub seed: u64,
    /// `--requests`: cap on the number of requests submitted (default:
    /// the scenario's whole workload).
    pub requests: Option<usize>,
    /// `--workers`: quote worker threads (≥ 1).
    pub workers: usize,
    /// `--queue-depth`: maximum undecided requests (≥ 1).
    pub queue_depth: usize,
    /// `--checkpoint-every`: decisions between checkpoints (0 disables).
    pub checkpoint_every: u64,
    /// `--deadline-us`: per-request service deadline (absent: none).
    pub deadline_us: Option<u64>,
    /// `--throttle-us`: sleep between submissions (0: none).
    pub throttle_us: u64,
    /// `--resume`: recover from the directory's WAL and checkpoints
    /// instead of starting fresh.
    pub resume: bool,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            dir: PathBuf::from("serve_out"),
            scale: "tiny".to_owned(),
            seed: 0,
            requests: None,
            workers: 2,
            queue_depth: 64,
            checkpoint_every: 0,
            deadline_us: None,
            throttle_us: 0,
            resume: false,
        }
    }
}

/// Parses `sb-serve` flags, validating every range.
///
/// # Errors
///
/// A human-readable message naming the offending flag: unknown flags,
/// missing or unparseable values, `--scale` outside `tiny|fast`, and
/// zero values for `--workers` or `--queue-depth`.
pub fn parse_serve_args(args: impl Iterator<Item = String>) -> Result<ServeArgs, String> {
    let mut out = ServeArgs::default();
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--dir" => out.dir = PathBuf::from(value("--dir")?),
            "--scale" => {
                let v = value("--scale")?;
                if v != "tiny" && v != "fast" {
                    return Err(format!("--scale must be tiny or fast, got `{v}`"));
                }
                out.scale = v;
            }
            "--seed" => out.seed = parse_num(&value("--seed")?, "--seed")?,
            "--requests" => {
                out.requests = Some(parse_num::<usize>(&value("--requests")?, "--requests")?);
            }
            "--workers" => {
                out.workers = parse_at_least_one(&value("--workers")?, "--workers")?;
            }
            "--queue-depth" => {
                out.queue_depth = parse_at_least_one(&value("--queue-depth")?, "--queue-depth")?;
            }
            "--checkpoint-every" => {
                out.checkpoint_every =
                    parse_num(&value("--checkpoint-every")?, "--checkpoint-every")?;
            }
            "--deadline-us" => {
                out.deadline_us = Some(parse_num(&value("--deadline-us")?, "--deadline-us")?);
            }
            "--throttle-us" => {
                out.throttle_us = parse_num(&value("--throttle-us")?, "--throttle-us")?;
            }
            "--resume" => out.resume = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(out)
}

fn parse_num<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse().map_err(|_| format!("{flag}: cannot parse `{text}`"))
}

fn parse_at_least_one<T>(text: &str, flag: &str) -> Result<T, String>
where
    T: std::str::FromStr + PartialOrd + From<u8>,
{
    let v: T = parse_num(text, flag)?;
    if v < T::from(1u8) {
        return Err(format!("{flag} must be >= 1, got {text}"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ServeArgs, String> {
        parse_serve_args(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn defaults_and_full_flag_set() {
        assert_eq!(parse(&[]).unwrap(), ServeArgs::default());
        let got = parse(&[
            "--dir",
            "out",
            "--scale",
            "fast",
            "--seed",
            "9",
            "--requests",
            "50",
            "--workers",
            "4",
            "--queue-depth",
            "8",
            "--checkpoint-every",
            "10",
            "--deadline-us",
            "500",
            "--throttle-us",
            "250",
            "--resume",
        ])
        .unwrap();
        assert_eq!(got.dir, PathBuf::from("out"));
        assert_eq!(got.scale, "fast");
        assert_eq!(got.seed, 9);
        assert_eq!(got.requests, Some(50));
        assert_eq!(got.workers, 4);
        assert_eq!(got.queue_depth, 8);
        assert_eq!(got.checkpoint_every, 10);
        assert_eq!(got.deadline_us, Some(500));
        assert_eq!(got.throttle_us, 250);
        assert!(got.resume);
    }

    #[test]
    fn zero_workers_is_rejected_not_floored() {
        let err = parse(&["--workers", "0"]).unwrap_err();
        assert!(err.contains("--workers must be >= 1"), "{err}");
    }

    #[test]
    fn zero_queue_depth_is_rejected_not_floored() {
        let err = parse(&["--queue-depth", "0"]).unwrap_err();
        assert!(err.contains("--queue-depth must be >= 1"), "{err}");
    }

    #[test]
    fn malformed_inputs_are_named() {
        assert!(parse(&["--scale", "huge"]).unwrap_err().contains("--scale"));
        assert!(parse(&["--seed"]).unwrap_err().contains("requires a value"));
        assert!(parse(&["--seed", "abc"]).unwrap_err().contains("cannot parse"));
        assert!(parse(&["--frobnicate"]).unwrap_err().contains("unknown flag"));
    }
}
