//! The repository benchmark: four workloads driven through the public
//! `flat_core` façade, every answer checked against a brute-force key.
//!
//! `run.py` builds and runs the two binaries. `perfbench` is the timed
//! run and prints the end-to-end metrics; `perfbench_trace` reruns a
//! workload with spans recorded in this crate around each façade call,
//! adds the layer probes, and prints the per-layer metrics. Names,
//! units and the reasons behind each workload are in `BENCHMARK.json`.

pub mod report;
pub mod setup;
pub mod trace;
pub mod workloads;

use std::time::Duration;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["read_warm", "read_cold", "churn", "sharded_read"];

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 42;

/// Parsed command line: `--workload <name> [--seed <n>] [--seconds <s>]`.
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seeds the dataset, the query scripts and the update script.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: Duration,
}

impl Args {
    /// Parses `std::env::args`.
    pub fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 10.0f64;
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
        }
        if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds must be in (0, 600], got {seconds}"));
        }
        Ok(Args {
            workload,
            seed,
            seconds: Duration::from_secs_f64(seconds),
        })
    }
}
