//! `vcpsd` — the VCPS measurement server as a TCP daemon.
//!
//! Stands up a [`Daemon`] on `--addr` and serves the wire protocol
//! until a shutdown frame arrives: upload frames (tags 3–6) feed the
//! sharded server through the zero-copy decode path, pair/O–D query
//! frames answer from the same state, and `--wal-dir` makes the whole
//! thing durable (recovering whatever the directory already holds, and
//! flushing the WAL on orderly shutdown).
//!
//! ```text
//! cargo run --release -p vcps-net --bin vcpsd --
//!   [--addr HOST:PORT]        listen address (default 127.0.0.1:0)
//!   [--port-file FILE]        write the bound address here (for CI
//!                             with an ephemeral port)
//!   [--s N]                   scheme parameter s (default 2)
//!   [--load-factor F]         variable-sizing load factor (default 3.0)
//!   [--seed N]                scheme seed (default 41)
//!   [--alpha F]               history EWMA weight (default 1.0)
//!   [--shards N]              ingest shards (default 4)
//!   [--od-threads N]          O–D query workers (default 4)
//!   [--wal-dir DIR]           durable mode: every upload, close and
//!                             seed is logged here (a checkpoint is
//!                             published at each close); an existing
//!                             log is recovered on boot
//!   [--flush-every N]         (durable) group-commit every N upload
//!                             records (default: fsync per record;
//!                             closes are always fsynced)
//!   [--max-frame-bytes N]     frame cap, checked before allocation
//!   [--max-frames-in-flight N] per-connection pipeline depth
//!   [--max-bytes-per-sec N]   per-connection ingest budget
//!   [--read-timeout-ms N]     slow-loris progress window (default 10000)
//!   [--max-connections N]     concurrent connection budget
//!   [--obs]                   print an observability snapshot at exit
//! ```

use std::time::Duration;

use vcps_core::Scheme;
use vcps_net::{ConnectionLimits, Daemon, DaemonConfig};
use vcps_obs::{Level, Obs};
use vcps_sim::{DurableOptions, FlushPolicy};

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn arg_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    arg_value(args, flag)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let addr = arg_value(&args, "--addr").unwrap_or_else(|| "127.0.0.1:0".to_string());
    let s: usize = parsed(&args, "--s", 2);
    let load_factor: f64 = parsed(&args, "--load-factor", 3.0);
    let seed: u64 = parsed(&args, "--seed", 41);
    let scheme = Scheme::variable(s, load_factor, seed).expect("valid scheme parameters");

    let want_obs = arg_flag(&args, "--obs");
    let obs = if want_obs {
        Obs::enabled(Level::Info)
    } else {
        Obs::disabled()
    };

    let mut config = DaemonConfig::new(scheme);
    config.history_alpha = parsed(&args, "--alpha", 1.0);
    config.shards = parsed(&args, "--shards", 4);
    config.od_threads = parsed(&args, "--od-threads", 4);
    config.obs = obs.clone();
    config.limits = ConnectionLimits {
        max_frame_bytes: parsed(&args, "--max-frame-bytes", 64 << 20),
        max_frames_in_flight: parsed(&args, "--max-frames-in-flight", 64),
        max_bytes_per_sec: arg_value(&args, "--max-bytes-per-sec").and_then(|v| v.parse().ok()),
        read_timeout: Duration::from_millis(parsed(&args, "--read-timeout-ms", 10_000)),
        max_connections: parsed(&args, "--max-connections", 64),
    };
    if let Some(dir) = arg_value(&args, "--wal-dir") {
        config.wal_dir = Some(dir.into());
        let mut options = DurableOptions::log_only();
        if let Some(records) = arg_value(&args, "--flush-every").and_then(|v| v.parse().ok()) {
            options = options.with_flush(FlushPolicy::EveryRecords(records));
        }
        config.durable_options = options;
    }

    let daemon = Daemon::bind(addr.as_str(), config).expect("bind daemon");
    let bound = daemon.local_addr();
    if let Some(path) = arg_value(&args, "--port-file") {
        std::fs::write(&path, bound.to_string()).expect("write --port-file");
    }
    eprintln!("vcpsd listening on {bound}");

    daemon.run().expect("daemon run loop failed");
    eprintln!("vcpsd: orderly shutdown complete");
    if want_obs {
        let snap = obs.snapshot();
        for (name, value) in &snap.counters {
            eprintln!("  {name} = {value}");
        }
    }
}
