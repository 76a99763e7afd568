//! Loopback differential tests: everything the daemon answers must be
//! bit-identical to the in-process `ShardedServer` fed the same wire
//! bytes — the network layer is transport, never arithmetic.

use std::path::PathBuf;

use vcps_core::{RsuId, Scheme};
use vcps_net::wire::{estimate_bits, Response};
use vcps_net::workload::{city_replay_frames, reference_order};
use vcps_net::{ConnectionLimits, Daemon, DaemonConfig, NetClient, WireMatrix};
use vcps_obs::Obs;
use vcps_sim::synthetic::SyntheticCity;
use vcps_sim::{
    BatchUpload, DurableOptions, DurableServer, FlushPolicy, OdMatrix, PeriodUpload,
    SequencedUpload, ShardedServer,
};

fn scheme() -> Scheme {
    Scheme::variable(2, 3.0, 41).unwrap()
}

fn city() -> SyntheticCity {
    SyntheticCity::generate(&[0.3, 0.5, 0.2, 0.4, 0.6, 0.1], 3_000, 17)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vcps-net-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn assert_matrix_bit_identical(wire: &WireMatrix, local: &OdMatrix) {
    let local_rsus: Vec<u64> = local.rsus().iter().map(|r| r.0).collect();
    assert_eq!(wire.rsus, local_rsus, "RSU sets diverged");
    let n = local_rsus.len();
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            match (wire.at(i, j), local.at(i, j)) {
                (Some(remote), Some(expected)) => assert_eq!(
                    estimate_bits(&remote),
                    estimate_bits(expected),
                    "pair ({i}, {j}) diverged"
                ),
                (None, None) => {}
                (remote, expected) => {
                    panic!("pair ({i}, {j}): remote {remote:?} vs local {expected:?}")
                }
            }
        }
    }
}

/// Replays the same frames into an in-process reference server.
fn reference_server(frames_by_connection: &[Vec<Vec<u8>>], shards: usize) -> ShardedServer {
    let mut reference = ShardedServer::new(scheme(), 1.0, shards).unwrap();
    for frame in reference_order(frames_by_connection) {
        reference.receive_wire(frame).unwrap();
    }
    reference
}

/// Replays each stream over its own connection (concurrently when there
/// is more than one) and returns the total upload count acked.
fn replay(addr: std::net::SocketAddr, frames_by_connection: Vec<Vec<Vec<u8>>>) -> u64 {
    let handles: Vec<_> = frames_by_connection
        .into_iter()
        .map(|stream| {
            std::thread::spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect");
                client.ingest_pipelined(&stream).expect("replay").frames
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("replayer"))
        .sum()
}

#[test]
fn loopback_replay_is_bit_identical_to_in_process() {
    for connections in [1usize, 2, 4] {
        let frames = city_replay_frames(&scheme(), &city(), 2, connections);
        let reference = reference_server(&frames, 4);

        let config = DaemonConfig::new(scheme());
        let daemon = Daemon::bind("127.0.0.1:0", config).unwrap();
        let addr = daemon.local_addr();
        let handle = daemon.spawn();

        let acked = replay(addr, frames);
        assert_eq!(acked, 6 * 2, "6 RSUs x 2 periods regardless of fan-in");

        let mut client = NetClient::connect(addr).unwrap();
        let remote_matrix = client.od_query(2).unwrap();
        let local_matrix = reference.od_matrix_threads(2).unwrap();
        assert_matrix_bit_identical(&remote_matrix, &local_matrix);

        let remote_pair = client.pair_query(1, 2).unwrap();
        let local_pair = reference.estimate_or_degraded(RsuId(1), RsuId(2)).unwrap();
        assert_eq!(estimate_bits(&remote_pair), estimate_bits(&local_pair));

        client.shutdown().unwrap();
        handle.join().unwrap();
    }
}

#[test]
fn finish_period_matches_in_process_sizes() {
    let frames = city_replay_frames(&scheme(), &city(), 1, 1);
    let mut reference = reference_server(&frames, 4);

    let daemon = Daemon::bind("127.0.0.1:0", DaemonConfig::new(scheme())).unwrap();
    let addr = daemon.local_addr();
    let handle = daemon.spawn();
    replay(addr, frames);

    let mut client = NetClient::connect(addr).unwrap();
    let remote_sizes = client.finish_period().unwrap();
    let local_sizes: Vec<(u64, u64)> = reference
        .finish_period()
        .unwrap()
        .into_iter()
        .map(|(rsu, m)| (rsu.0, m as u64))
        .collect();
    assert_eq!(remote_sizes, local_sizes);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn durable_daemon_flushes_on_shutdown_and_recovers() {
    let dir = temp_dir("durable");
    let frames = city_replay_frames(&scheme(), &city(), 2, 2);
    let reference = reference_server(&frames, 4);
    let frames_sent: usize = frames.iter().map(Vec::len).sum();

    let obs = Obs::enabled(vcps_obs::Level::Info);
    let mut config = DaemonConfig::new(scheme());
    config.wal_dir = Some(dir.clone());
    // Manual flushing: nothing reaches disk until the shutdown path
    // flushes explicitly — the exact behavior under test.
    config.durable_options = DurableOptions::log_only().with_flush(FlushPolicy::Manual);
    config.obs = obs.clone();
    let daemon = Daemon::bind("127.0.0.1:0", config).unwrap();
    let addr = daemon.local_addr();
    let handle = daemon.spawn();

    replay(addr, frames);
    let mut client = NetClient::connect(addr).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap();

    // The orderly shutdown flushed, so nothing was dropped...
    let snap = obs.snapshot();
    assert!(
        !snap.counters.contains_key("wal.dropped_buffered_records"),
        "shutdown must flush the WAL, not drop it"
    );

    // ...and a fresh process recovers the exact state the daemon held.
    let (recovered, report) = DurableServer::recover(
        scheme(),
        1.0,
        4,
        &dir,
        DurableOptions::log_only(),
        &Obs::disabled(),
    )
    .unwrap();
    assert_eq!(report.tail_error, None);
    assert_eq!(
        report.checkpoint_records + report.replayed_records,
        frames_sent as u64
    );
    assert_eq!(
        recovered.server().checkpoint(0),
        reference.checkpoint(0),
        "recovered state must be bit-identical to the in-process reference"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Durable mode logs only sequenced frames that validate: bare uploads
/// (tags 3/4) and truncated tag-5/tag-6 frames each get an error
/// response on a connection that stays usable, and recovery replays
/// exactly the accepted frames.
#[test]
fn durable_daemon_rejects_bad_frames_and_recovers_only_accepted() {
    let dir = temp_dir("durable-bad-frames");
    let upload = |rsu: u64, ones: &[usize]| PeriodUpload {
        rsu: RsuId(rsu),
        counter: ones.len() as u64,
        bits: vcps_core::BitArray::from_indices(256, ones.iter().copied()).unwrap(),
    };
    let sequenced = SequencedUpload {
        seq: 0,
        upload: upload(1, &[3, 77, 130]),
    }
    .encode();
    let batch = BatchUpload::new(vec![
        SequencedUpload {
            seq: 0,
            upload: upload(2, &[5]),
        },
        SequencedUpload {
            seq: 0,
            upload: upload(3, &[9, 200]),
        },
    ])
    .unwrap()
    .encode();
    let bare = upload(4, &[1, 2]);

    let mut config = DaemonConfig::new(scheme());
    config.wal_dir = Some(dir.clone());
    let daemon = Daemon::bind("127.0.0.1:0", config).unwrap();
    let addr = daemon.local_addr();
    let handle = daemon.spawn();

    let mut client = NetClient::connect(addr).unwrap();
    let rejected = [
        bare.encode().to_vec(),
        bare.encode_compact().to_vec(),
        sequenced[..sequenced.len() - 1].to_vec(),
        batch[..batch.len() - 1].to_vec(),
    ];
    for (i, frame) in rejected.iter().enumerate() {
        match client.call_raw(frame).unwrap() {
            Response::Error(msg) => assert!(msg.contains("malformed"), "frame {i}: {msg}"),
            other => panic!("frame {i} must be refused, got {other:?}"),
        }
        client
            .ping()
            .expect("the connection survives a refused frame");
    }
    assert_eq!(client.ingest(&sequenced).unwrap().frames, 1);
    assert_eq!(client.ingest(&batch).unwrap().frames, 2);
    client.shutdown().unwrap();
    handle.join().unwrap();

    let mut reference = ShardedServer::new(scheme(), 1.0, 4).unwrap();
    reference.receive_wire(&sequenced).unwrap();
    reference.receive_wire(&batch).unwrap();
    let (recovered, report) = DurableServer::recover(
        scheme(),
        1.0,
        4,
        &dir,
        DurableOptions::log_only(),
        &Obs::disabled(),
    )
    .unwrap();
    assert_eq!(report.tail_error, None);
    assert_eq!(report.checkpoint_records + report.replayed_records, 2);
    assert_eq!(recovered.server().checkpoint(0), reference.checkpoint(0));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn connection_budget_rejects_excess_connections() {
    let mut config = DaemonConfig::new(scheme());
    config.limits = ConnectionLimits {
        max_connections: 1,
        ..ConnectionLimits::default()
    };
    let daemon = Daemon::bind("127.0.0.1:0", config).unwrap();
    let addr = daemon.local_addr();
    let handle = daemon.spawn();

    let mut first = NetClient::connect(addr).unwrap();
    first.ping().unwrap();
    // The budget is enforced at accept time; the second connection gets
    // an error frame and a close.
    let mut second = NetClient::connect(addr).unwrap();
    match second.ping() {
        Err(_) => {}
        Ok(()) => panic!("second connection must be rejected"),
    }
    first.shutdown().unwrap();
    handle.join().unwrap();
}
