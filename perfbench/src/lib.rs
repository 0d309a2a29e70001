//! `perfbench`: the open-loop loopback benchmark of the reputation server.
//! `README.md` in this directory describes the workloads, the metrics, and
//! which end-to-end metric each per-layer metric should move.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

pub mod alloc;
pub mod e2e;
pub mod net;
pub mod openloop;
pub mod procs;
pub mod report;
pub mod rng;
pub mod seed;
pub mod server;
pub mod stats;
pub mod trace;
pub mod workload;

use report::{json_str, Report};
use workload::{Workload, SERVER_SEED};

/// The command line.
pub struct Args {
    /// Cache and scratch directory: seeded data, server copies, logs.
    pub work: PathBuf,
    /// The traffic mix.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Length of the measured part of the run.
    pub seconds: u64,
    /// `false`: end-to-end metrics; `true`: the traced per-layer replay.
    pub trace: bool,
}

impl Args {
    /// Parse `--work DIR --workload NAME --seed N --seconds S --trace 0|1`.
    pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut work, mut workload, mut seed, mut seconds, mut trace) =
            (None, None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad {flag} value {value}");
            match flag.as_str() {
                "--work" => work = Some(PathBuf::from(&value)),
                "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    seconds = Some(value.parse::<u64>().ok().filter(|s| *s > 0).ok_or_else(bad)?)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Args {
            work: work.ok_or("--work is required")?,
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Run the measurement `args` asks for.
pub fn run(args: &Args) -> Result<Report, String> {
    net::tighten_timer_slack();
    let mut report = if args.trace { trace::run(args)? } else { e2e::run(args)? };
    let mut manifest = manifest(args);
    manifest.append(&mut report.manifest);
    report.manifest = manifest;
    Ok(report)
}

/// The manifest fields every result carries.
fn manifest(args: &Args) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    vec![
        ("git_rev", json_str(&git_rev())),
        ("nproc", nproc.to_string()),
        ("workload", json_str(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("server_seed", SERVER_SEED.to_string()),
        ("nominal_rps", args.workload.nominal_rps().to_string()),
        ("durability", json_str("os")),
        ("frontend", json_str("epoll")),
        ("run_seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
    ]
}

/// The checkout's git revision, or "unknown" outside a repository.
fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |rev| rev.trim().to_string())
}

/// A per-run scratch directory under the work directory, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Create a fresh `run-<pid>` directory under `work`.
    pub fn new(work: &Path) -> Result<Scratch, String> {
        let dir = work.join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    /// A path inside the scratch directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
