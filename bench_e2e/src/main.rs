//! End-to-end `vcpsd` benchmark.
//!
//! ```text
//! cargo run --release --manifest-path bench_e2e/Cargo.toml -- \
//!     --workload <metro-day|ingest-wal|live-queries> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Run from the repository root. Builds `vcpsd` from the checkout,
//! generates the workload from `--seed`, drives a `vcpsd` child over
//! loopback, checks every answer against an in-process reference fed
//! the same bytes, and prints one JSON result line last on stdout:
//! end-to-end metrics with `--trace 0`, per-layer metrics from a traced
//! replay with `--trace 1`. Exits non-zero on any failure or mismatch.
//! See `bench_e2e/README.md` for the workloads and metrics.

mod conn;
mod daemon;
mod fleet;
mod gen;
mod ingest_wal;
mod live_queries;
mod metro_day;
mod mirror;
mod report;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use vcps_core::Scheme;
use vcps_hash::splitmix64;
use vcps_sim::pki::TrustedAuthority;

use crate::daemon::{Daemon, DaemonSpec};
use crate::report::Report;
use crate::stats::Summary;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Everything a workload needs from the command line and the host.
#[derive(Debug)]
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: Duration,
    /// `true` for the traced run (per-layer metrics).
    pub trace: bool,
    /// The built `vcpsd`.
    pub bin: PathBuf,
    /// Logical CPUs.
    pub nproc: usize,
    /// Client threads and daemon O–D workers: `min(nproc, 2)`.
    pub threads: usize,
}

impl Ctx {
    /// The deployment's scheme, seeded from the workload seed.
    ///
    /// # Panics
    ///
    /// Never for the fixed benchmark parameters.
    #[must_use]
    pub fn scheme(&self) -> Scheme {
        Scheme::variable(daemon::S, daemon::LOAD_FACTOR, self.scheme_seed())
            .expect("valid scheme parameters")
    }

    /// The scheme seed handed to the daemon.
    #[must_use]
    pub fn scheme_seed(&self) -> u64 {
        splitmix64(self.seed ^ 0x5C4E_3E00) >> 1
    }

    /// The certificate authority of the RSUs.
    #[must_use]
    pub fn authority(&self) -> TrustedAuthority {
        TrustedAuthority::new(splitmix64(self.seed ^ 0xCA00_0001))
    }

    /// Sets the workload up [`SETUPS`] times — generate the inputs,
    /// start a daemon, wait for its first ping — and checks that every
    /// generation equals the one before. Returns the last inputs and
    /// daemon (earlier daemons are shut down) and the set-up times.
    ///
    /// # Errors
    ///
    /// Generator, spawn and shutdown failures.
    pub fn set_up<I>(
        &self,
        report: &mut Report,
        tag: &str,
        spec: impl Fn(usize) -> Result<DaemonSpec, String>,
        generate: impl Fn() -> Result<I, String>,
        same: impl Fn(&I, &I) -> bool,
    ) -> Result<(I, Daemon, Summary), String> {
        let mut times = Vec::with_capacity(SETUPS);
        let mut kept: Option<(I, Daemon)> = None;
        for i in 0..SETUPS {
            let started = Instant::now();
            let inputs = generate()?;
            let generated = started.elapsed();
            let daemon = Daemon::start(&self.bin, &spec(i)?, &format!("{tag}-setup{i}"))?;
            times.push((generated + daemon.ready).as_secs_f64());
            if let Some((previous, old)) = kept.take() {
                report.attempted += 1;
                report.check(same(&previous, &inputs), || {
                    format!("{tag}: the generator is not deterministic")
                });
                old.shutdown()?;
            }
            kept = Some((inputs, daemon));
        }
        let (inputs, daemon) = kept.expect("at least one set-up");
        Ok((inputs, daemon, Summary::of(&times)))
    }

    /// Host facts recorded with every result.
    pub fn record_host(&self, report: &mut Report) {
        report.meta_num("nproc", self.nproc as f64);
        report.meta_num("threads", self.threads as f64);
        report.meta_num("seed", self.seed as f64);
        report.meta_num("seconds", self.seconds.as_secs_f64());
        report.meta_str("trace", if self.trace { "1" } else { "0" });
    }
}

const USAGE: &str = "usage: bench_e2e --workload <metro-day|ingest-wal|live-queries> \
                     --seed N --seconds S --trace <0|1>";

fn parse_args() -> Result<(String, u64, f64, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok((workload, seed, seconds, trace))
}

fn main() {
    let (workload, seed, seconds, trace) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run: fn(&Ctx) -> Result<Report, String> = match workload.as_str() {
        "metro-day" => metro_day::run,
        "ingest-wal" => ingest_wal::run,
        "live-queries" => live_queries::run,
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let bin = match daemon::build_vcpsd() {
        Ok(bin) => bin,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    let nproc = daemon::nproc();
    let ctx = Ctx {
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
        bin,
        nproc,
        threads: nproc.clamp(1, 2),
    };
    let outcome = run(&ctx);
    let run_dir = daemon::run_dir();
    if matches!(&outcome, Ok(report) if report.correct()) {
        let _ = std::fs::remove_dir_all(&run_dir);
    } else {
        eprintln!("daemon logs kept in {}", run_dir.display());
    }
    match outcome {
        Ok(report) => {
            report.print();
            std::process::exit(if report.correct() { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("{workload} failed: {e}");
            std::process::exit(1);
        }
    }
}
