//! `vcps-load` — loopback load generator and bench harness for `vcpsd`.
//!
//! Replays a synthetic city's upload frames against a daemon over one
//! or more TCP connections, measures uploads/s through the pipelined
//! ingest path, and (optionally) proves the daemon's answers are
//! bit-identical to an in-process `ShardedServer` fed the same wire
//! bytes.
//!
//! Two modes:
//!
//! * client mode (default): replay against an already-running daemon.
//!
//! ```text
//! cargo run --release -p vcps-net --bin vcps-load --
//!   --addr HOST:PORT          daemon address (required)
//!   [--connections N]         parallel replay streams (default 1)
//!   [--periods N]             batch frames per stream (default 32)
//!   [--rsus N]                city size (default 6)
//!   [--vehicles N]            city population (default 20000)
//!   [--city-seed N]           city RNG seed (default 17)
//!   [--s N] [--load-factor F] [--seed N]
//!                             scheme parameters — MUST match the
//!                             daemon's (default 2 / 3.0 / 41)
//!   [--expect-bit-identical]  compare the daemon's O-D matrix and a
//!                             pair query against a local reference;
//!                             exit non-zero on any bit drift
//!   [--shutdown]              send a shutdown frame when done
//! ```
//!
//! * bench mode (`--bench`): spawn an in-process daemon per
//!   connection count (1/2/4, zero-copy borrowed ingest) and write the
//!   rows to
//!   `--out` (default BENCH_net.json). Every row carries its own
//!   bit-identity verdict; the CI gate refuses a file with any `false`.

use std::net::SocketAddr;
use std::time::Instant;

use vcps_core::{RsuId, Scheme};
use vcps_net::wire::estimate_bits;
use vcps_net::workload::{city_replay_frames, reference_order};
use vcps_net::{Daemon, DaemonConfig, NetClient, WireMatrix};
use vcps_sim::synthetic::SyntheticCity;
use vcps_sim::{OdMatrix, ShardedServer};

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

/// The fixed visit-probability table, cycled to the requested city
/// size so every run of the same shape replays identical traffic.
const PROB_TABLE: [f64; 6] = [0.3, 0.5, 0.2, 0.4, 0.6, 0.1];

fn visit_probs(rsus: usize) -> Vec<f64> {
    (0..rsus)
        .map(|j| PROB_TABLE[j % PROB_TABLE.len()])
        .collect()
}

struct Workload {
    scheme: Scheme,
    city: SyntheticCity,
    periods: u64,
    rsus: usize,
    vehicles: u64,
}

impl Workload {
    fn from_args(args: &[String]) -> Self {
        let s: usize = parsed(args, "--s", 2);
        let load_factor: f64 = parsed(args, "--load-factor", 3.0);
        let seed: u64 = parsed(args, "--seed", 41);
        let rsus: usize = parsed(args, "--rsus", 6);
        let vehicles: u64 = parsed(args, "--vehicles", 20_000);
        Workload {
            scheme: Scheme::variable(s, load_factor, seed).expect("valid scheme parameters"),
            city: SyntheticCity::generate(
                &visit_probs(rsus),
                vehicles,
                parsed(args, "--city-seed", 17),
            ),
            periods: parsed(args, "--periods", 32),
            rsus,
            vehicles,
        }
    }

    fn frames(&self, connections: usize) -> Vec<Vec<Vec<u8>>> {
        city_replay_frames(&self.scheme, &self.city, self.periods, connections)
    }

    /// The in-process server every daemon answer is checked against.
    fn reference(&self, frames: &[Vec<Vec<u8>>]) -> ShardedServer {
        let mut reference =
            ShardedServer::new(self.scheme.clone(), 1.0, 4).expect("reference server");
        for frame in reference_order(frames) {
            reference.receive_wire(frame).expect("reference replay");
        }
        reference
    }
}

struct RunStats {
    uploads: u64,
    wire_bytes: u64,
    elapsed_s: f64,
}

impl RunStats {
    fn uploads_per_sec(&self) -> f64 {
        self.uploads as f64 / self.elapsed_s
    }

    fn mib_per_sec(&self) -> f64 {
        self.wire_bytes as f64 / (1024.0 * 1024.0) / self.elapsed_s
    }
}

/// Replays each stream over its own connection, concurrently, and
/// times the whole fan-in (connect through last ack).
fn replay(addr: SocketAddr, frames_by_connection: Vec<Vec<Vec<u8>>>) -> RunStats {
    let wire_bytes: u64 = frames_by_connection
        .iter()
        .flatten()
        .map(|f| f.len() as u64 + 4)
        .sum();
    let started = Instant::now();
    let handles: Vec<_> = frames_by_connection
        .into_iter()
        .map(|stream| {
            std::thread::spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect to daemon");
                client
                    .ingest_pipelined(&stream)
                    .expect("replay stream")
                    .frames
            })
        })
        .collect();
    let uploads = handles
        .into_iter()
        .map(|h| h.join().expect("replay thread"))
        .sum();
    RunStats {
        uploads,
        wire_bytes,
        elapsed_s: started.elapsed().as_secs_f64(),
    }
}

fn matrices_bit_identical(wire: &WireMatrix, local: &OdMatrix) -> bool {
    let local_rsus: Vec<u64> = local.rsus().iter().map(|r| r.0).collect();
    if wire.rsus != local_rsus {
        return false;
    }
    let n = local_rsus.len();
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let same = match (wire.at(i, j), local.at(i, j)) {
                (Some(remote), Some(expected)) => estimate_bits(&remote) == estimate_bits(expected),
                (None, None) => true,
                _ => false,
            };
            if !same {
                eprintln!("vcps-load: pair ({i}, {j}) diverged from the reference");
                return false;
            }
        }
    }
    true
}

/// Queries the daemon's full O-D matrix plus one pair and compares both
/// against the local reference, bit for bit.
fn check_bit_identical(addr: SocketAddr, reference: &ShardedServer) -> bool {
    let mut client = NetClient::connect(addr).expect("connect for verification");
    let remote_matrix = client.od_query(2).expect("od query");
    let local_matrix = reference.od_matrix_threads(2).expect("local od matrix");
    if !matrices_bit_identical(&remote_matrix, &local_matrix) {
        return false;
    }
    let remote_pair = client.pair_query(1, 2).expect("pair query");
    let local_pair = reference
        .estimate_or_degraded(RsuId(1), RsuId(2))
        .expect("local pair");
    if estimate_bits(&remote_pair) != estimate_bits(&local_pair) {
        eprintln!("vcps-load: pair query (1, 2) diverged from the reference");
        return false;
    }
    true
}

fn row_json(
    connections: usize,
    path: &str,
    stats: &RunStats,
    bit_identical: Option<bool>,
) -> String {
    let verdict = match bit_identical {
        Some(v) => v.to_string(),
        None => "null".to_string(),
    };
    format!(
        concat!(
            "{{\"connections\": {}, \"path\": \"{}\", \"uploads\": {}, ",
            "\"wire_bytes\": {}, \"elapsed_ms\": {:.3}, ",
            "\"uploads_per_sec\": {:.1}, \"mib_per_sec\": {:.2}, ",
            "\"bit_identical\": {}}}"
        ),
        connections,
        path,
        stats.uploads,
        stats.wire_bytes,
        stats.elapsed_s * 1_000.0,
        stats.uploads_per_sec(),
        stats.mib_per_sec(),
        verdict,
    )
}

fn bench(args: &[String]) {
    let workload = Workload::from_args(args);
    let out = arg_value(args, "--out").unwrap_or_else(|| "BENCH_net.json".to_string());
    let mut rows = Vec::new();
    for connections in [1usize, 2, 4] {
        let frames = workload.frames(connections);
        let reference = workload.reference(&frames);
        let path = "borrowed";
        let config = DaemonConfig::new(workload.scheme.clone());
        let daemon = Daemon::bind("127.0.0.1:0", config).expect("bind bench daemon");
        let addr = daemon.local_addr();
        let handle = daemon.spawn();

        let stats = replay(addr, frames);
        let bit_identical = check_bit_identical(addr, &reference);

        let mut client = NetClient::connect(addr).expect("connect for shutdown");
        client.shutdown().expect("shutdown bench daemon");
        handle.join().expect("bench daemon exit");

        eprintln!(
            "net_loopback_replay connections={connections} path={path} \
             uploads/s={:.1} MiB/s={:.2} bit_identical={bit_identical}",
            stats.uploads_per_sec(),
            stats.mib_per_sec(),
        );
        rows.push(row_json(connections, path, &stats, Some(bit_identical)));
    }
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"net_loopback_replay\",\n",
            "  \"schema_version\": 1,\n",
            "  \"scheme\": {{\"s\": {}, \"load_factor\": {}, \"seed\": {}}},\n",
            "  \"city\": {{\"rsus\": {}, \"vehicles\": {}, \"periods\": {}}},\n",
            "  \"rows\": [\n    {}\n  ]\n",
            "}}\n"
        ),
        parsed::<usize>(args, "--s", 2),
        parsed::<f64>(args, "--load-factor", 3.0),
        parsed::<u64>(args, "--seed", 41),
        workload.rsus,
        workload.vehicles,
        workload.periods,
        rows.join(",\n    "),
    );
    std::fs::write(&out, &json).expect("write bench output");
    print!("{json}");
    eprintln!("vcps-load: wrote {out}");
}

fn client_mode(args: &[String]) {
    let Some(addr) = arg_value(args, "--addr") else {
        eprintln!(
            "vcps-load: --addr HOST:PORT is required (or use --bench); \
             see the usage header in crates/net/src/bin/vcps_load.rs"
        );
        std::process::exit(2);
    };
    let addr: SocketAddr = addr.parse().expect("parse --addr");
    let connections: usize = parsed(args, "--connections", 1);
    let workload = Workload::from_args(args);
    let frames = workload.frames(connections);

    let reference = if arg_flag(args, "--expect-bit-identical") {
        Some(workload.reference(&frames))
    } else {
        None
    };

    let stats = replay(addr, frames);
    let bit_identical = reference.as_ref().map(|r| check_bit_identical(addr, r));

    if arg_flag(args, "--shutdown") {
        let mut client = NetClient::connect(addr).expect("connect for shutdown");
        client.shutdown().expect("send shutdown frame");
    }

    println!("{}", row_json(connections, "replay", &stats, bit_identical));
    if bit_identical == Some(false) {
        eprintln!("vcps-load: daemon answers diverged from the in-process reference");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if arg_flag(&args, "--bench") {
        bench(&args);
    } else {
        client_mode(&args);
    }
}
