//! Differential conformance suite for the durability layer (DESIGN.md
//! §17).
//!
//! The durability contract is that a server which crashes — losing
//! *all* in-memory state — and recovers from its write-ahead log is
//! indistinguishable from one that never crashed: same uploads, same
//! history, same pair estimates, same O–D matrices, and same registry
//! counters (modulo the `wal.*` series) at every shard count × worker
//! count, under ideal channels and under seeded link-fault injection.
//! The log alone reproduces state — uploads, history seeds, and period
//! closes are all records — so recovery must agree whether it starts
//! from a close checkpoint, from none, or past a corrupted one. A
//! corrupted log tail must surface as a typed error and recovery must
//! land on the last valid record — never a panic, never silently
//! accepted garbage.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use vcps::hash::splitmix64;
use vcps::obs::{Level, Obs};
use vcps::roadnet::{Link, RoadNetwork, VehicleTrip};
use vcps::sim::durable::CHECKPOINT_DIR;
use vcps::sim::protocol::{PeriodUpload, SequencedUpload};
use vcps::sim::{
    DurableOptions, DurableServer, FaultPlan, FlushPolicy, LinkFaults, PeriodRun, PeriodSettings,
    RetryPolicy, ServerBackend, ServerCrash, ShardedServer, SimError,
};
use vcps::{BitArray, RsuId, Scheme};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// A fresh scratch directory per call (unique across the whole test
/// binary, parallel tests included).
fn scratch(label: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "vcps-durable-{}-{label}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Strips the sharded server's progress series *and* the durability
/// layer's own counters, leaving exactly what an uninstrumented run
/// also fires.
fn strip_own_series(mut counters: BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    counters.retain(|name, _| {
        !name.starts_with("shard.")
            && !name.starts_with("batch.")
            && !name.starts_with("wal.")
            && !name.starts_with("phase.wal_")
    });
    counters
}

/// The same seed-derived workload shape as the sharding differential:
/// one upload per RSU plus re-sends exercising every dedup verdict.
fn workload(rsus: u64, seed: u64) -> Vec<SequencedUpload> {
    let mut frames = Vec::new();
    for r in 1..=rsus {
        let h = splitmix64(seed ^ r);
        let m = 1usize << (6 + (h % 5) as usize);
        let ones = (h >> 8) % (m as u64 / 2);
        let bits = BitArray::from_indices(
            m,
            (0..ones).map(|i| (splitmix64(h ^ i) % m as u64) as usize),
        )
        .expect("indices in range");
        frames.push(SequencedUpload {
            seq: h % 3,
            upload: PeriodUpload {
                rsu: RsuId(r),
                counter: bits.count_ones() as u64 + h % 7,
                bits,
            },
        });
    }
    for r in 1..=rsus {
        let h = splitmix64(seed ^ r ^ 0xD1FF);
        let mut resend = frames[(r - 1) as usize].clone();
        match h % 4 {
            0 => continue,
            1 => {}
            2 => resend.upload.counter ^= 1,
            _ => {
                if resend.seq == 0 {
                    continue;
                }
                resend.seq -= 1;
            }
        }
        frames.push(resend);
    }
    frames
}

fn line4() -> RoadNetwork {
    RoadNetwork::new(
        4,
        vec![
            Link::new(0, 1, 10.0, 2.0),
            Link::new(1, 2, 10.0, 3.0),
            Link::new(2, 3, 10.0, 2.5),
        ],
    )
    .expect("valid network")
}

fn line4_trips(count: u64, seed: u64) -> Vec<VehicleTrip> {
    const ROUTES: [&[usize]; 4] = [&[0, 1, 2, 3], &[0, 1, 2], &[1, 2, 3], &[2, 3]];
    (0..count)
        .map(|id| {
            let route = ROUTES[(splitmix64(seed ^ id) % 4) as usize].to_vec();
            VehicleTrip {
                id,
                origin: *route.first().expect("non-empty route"),
                dest: *route.last().expect("non-empty route"),
                route,
            }
        })
        .collect()
}

/// A 60-second departure window under `seed`, at `threads` workers.
fn config(seed: u64, threads: usize) -> PeriodRun {
    PeriodRun {
        settings: PeriodSettings {
            period_length: 60.0,
            seed,
        },
        threads,
        ..PeriodRun::default()
    }
}

fn all_pair_estimates<F, E>(nodes: u64, estimate: F) -> Vec<E>
where
    F: Fn(RsuId, RsuId) -> E,
{
    let mut out = Vec::new();
    for a in 0..nodes {
        for b in (a + 1)..nodes {
            out.push(estimate(RsuId(a), RsuId(b)));
        }
    }
    out
}

/// How a durable run's checkpoints stand when recovery reads them.
/// Checkpoints are a cache over the log, so both arms must recover the
/// same state.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Checkpoints {
    /// As each `finish_period` published them.
    AsWritten,
    /// `checkpoints/` deleted right after `create`: every close's
    /// publish before the crash fails (counted in
    /// `wal.checkpoint.failed`, stripped with the `wal.*` series), so
    /// recovery finds none and replays the whole log.
    Deleted,
}

fn durable_server(
    scheme: &Scheme,
    shards: usize,
    dir: &std::path::Path,
    checkpoints: Checkpoints,
    obs: &Obs,
) -> DurableServer {
    let server = DurableServer::create(
        scheme.clone(),
        1.0,
        shards,
        dir,
        DurableOptions::log_only(),
        obs,
    )
    .expect("create durable server");
    if checkpoints == Checkpoints::Deleted {
        std::fs::remove_dir_all(dir.join(CHECKPOINT_DIR)).expect("delete checkpoints");
    }
    server
}

/// Ideal channels over two periods: a durable run — uninterrupted, and
/// crashed at every ingest boundary — must reproduce the plain sharded
/// run's uploads, history, estimates, O–D matrix, and counters bit for
/// bit at every shard × thread count, whether recovery starts from the
/// close checkpoint or from the log alone.
#[test]
fn ideal_crash_and_recover_is_bit_identical() {
    let seed = 0xD0_0D;
    let net = line4();
    let periods = [line4_trips(120, seed), line4_trips(90, seed ^ 1)];
    let scheme = Scheme::variable(2, 3.0, 9).expect("valid scheme");
    let history = vec![120.0; 4];

    let ref_obs = Obs::enabled(Level::Info);
    let reference = config(seed, 1)
        .run(
            ShardedServer::new(scheme.clone(), 1.0, 2)
                .expect("reference server")
                .with_obs(ref_obs.clone()),
            &net,
            &net.free_flow_times(),
            &periods,
            &history,
        )
        .expect("reference run");
    let ref_counters = strip_own_series(ref_obs.snapshot().counters);
    let ref_matrix = reference.server.od_matrix_threads(1);
    let ref_pairs = all_pair_estimates(4, |a, b| reference.server.estimate_or_degraded(a, b));

    for shards in SHARD_COUNTS {
        for threads in THREAD_COUNTS {
            for checkpoints in [Checkpoints::AsWritten, Checkpoints::Deleted] {
                // The log is seed, batch 0, close, batch 1. The seed
                // record shifts every boundary by one: crash points 1
                // (seed-only log) and 2 (full period-0 log) are period
                // 0's two ends, 3 and 4 period 1's, past the close
                // checkpoint; `None` is the uninterrupted control.
                for crash in [None, Some(1), Some(2), Some(3), Some(4)] {
                    let dir = scratch("ideal");
                    let obs = Obs::enabled(Level::Info);
                    let server = durable_server(&scheme, shards, &dir, checkpoints, &obs);
                    let run = PeriodRun {
                        crash: crash.map(|at_record| ServerCrash { at_record }),
                        ..config(seed, threads)
                    }
                    .run(server, &net, &net.free_flow_times(), &periods, &history)
                    .expect("durable run");
                    let label = format!(
                        "{shards} shards x {threads} threads, crash at {crash:?}, {checkpoints:?}"
                    );
                    // Snapshot before any reads — estimates and O–D
                    // decodes fire their own counters.
                    assert_eq!(
                        strip_own_series(obs.snapshot().counters),
                        ref_counters,
                        "counters: {label}"
                    );
                    assert_eq!(
                        run.exchanges_per_period, reference.exchanges_per_period,
                        "exchanges: {label}"
                    );
                    assert_eq!(
                        run.sizes_per_period, reference.sizes_per_period,
                        "sizes: {label}"
                    );
                    assert_eq!(run.server.records_logged(), 4, "wal records: {label}");
                    assert_eq!(run.recovery.is_some(), crash.is_some(), "recovery: {label}");
                    if let (Some(report), Some(at)) = (&run.recovery, crash) {
                        let restored = if checkpoints == Checkpoints::AsWritten && at >= 3 {
                            3
                        } else {
                            0
                        };
                        assert_eq!(report.checkpoint_records, restored, "checkpoint: {label}");
                        assert_eq!(
                            report.checkpoint_records + report.replayed_records,
                            at,
                            "recovery lands on the crash boundary: {label}"
                        );
                        assert!(report.tail_error.is_none(), "clean tail: {label}");
                    }
                    for node in 0..4u64 {
                        assert_eq!(
                            run.server.server().upload(RsuId(node)),
                            reference.server.upload(RsuId(node)),
                            "upload for node {node}: {label}"
                        );
                        assert_eq!(
                            run.server.server().history_average(RsuId(node)),
                            reference.server.history_average(RsuId(node)),
                            "history for node {node}: {label}"
                        );
                    }
                    assert_eq!(
                        run.server.server().od_matrix_threads(threads),
                        ref_matrix,
                        "od matrix: {label}"
                    );
                    assert_eq!(
                        all_pair_estimates(4, |a, b| run
                            .server
                            .server()
                            .estimate_or_degraded(a, b)),
                        ref_pairs,
                        "estimates: {label}"
                    );
                    let _ = std::fs::remove_dir_all(&dir);
                }
            }
        }
    }
}

/// Link-fault injection over two periods: seeded drop / bit-flip /
/// duplication on both channels, a retrying delivery path, and a server
/// crash at the start and middle of period 0 and at the end of period 1.
/// The crashed-and-recovered run must replay the never-crashed faulty
/// sharded run's every decision — identical fault metrics, undelivered
/// sets, uploads, history, estimates, and counters — from the close
/// checkpoint or from the log alone.
#[test]
fn faulty_crash_and_recover_is_bit_identical() {
    let seed = 0xFA_CADE;
    let net = line4();
    let periods = [line4_trips(100, seed), line4_trips(80, seed ^ 1)];
    let scheme = Scheme::variable(2, 3.0, 9).expect("valid scheme");
    let history = vec![100.0; 4];
    let report_link = LinkFaults::none().with_drop(0.2).with_bit_flip(0.1);
    // The second upload link also corrupts copies: a truncated or
    // bit-flipped copy that still validates is logged byte-for-byte as it
    // arrived, and replay must reach the same state from those bytes.
    let plans = [
        FaultPlan::new(seed ^ 0xFA_17)
            .with_report_link(report_link)
            .with_upload_link(LinkFaults::none().with_drop(0.3).with_duplicate(0.2)),
        FaultPlan::new(seed ^ 0xFA_17)
            .with_report_link(report_link)
            .with_upload_link(
                LinkFaults::none()
                    .with_drop(0.2)
                    .with_duplicate(0.2)
                    .with_bit_flip(0.3)
                    .with_truncate(0.6),
            ),
    ];
    let policy = RetryPolicy::default();
    for plan in &plans {
        let faulty = |threads| PeriodRun {
            faults: Some((plan.clone(), policy)),
            ..config(seed, threads)
        };
        let ref_obs = Obs::enabled(Level::Info);
        let reference = faulty(1)
            .run(
                ShardedServer::new(scheme.clone(), 1.0, 2)
                    .expect("reference server")
                    .with_obs(ref_obs.clone()),
                &net,
                &net.free_flow_times(),
                &periods,
                &history,
            )
            .expect("reference faulty run");
        let ref_counters = strip_own_series(ref_obs.snapshot().counters);
        let ref_pairs = all_pair_estimates(4, |a, b| reference.server.estimate_or_degraded(a, b));
        if plan.upload_link.truncate > 0.0 {
            // The corrupting link must really truncate and flip copies,
            // and deliver at least one corrupted copy that still
            // validates (a conflicting re-send of the same sequence).
            let faults = &reference.faults_per_period[0];
            assert!(faults.upload_link.truncated > 0 && faults.upload_link.bit_flipped > 0);
            assert!(faults.upload_conflicts > 0);
        }

        for shards in SHARD_COUNTS {
            for threads in THREAD_COUNTS {
                for checkpoints in [Checkpoints::AsWritten, Checkpoints::Deleted] {
                    // Crash immediately, mid-period 0, and (via an
                    // at_record the log never reaches) at the end of
                    // period 1, past the close checkpoint.
                    for at_record in [0, 2, 1 << 40] {
                        let dir = scratch("faulty");
                        let obs = Obs::enabled(Level::Info);
                        let server = durable_server(&scheme, shards, &dir, checkpoints, &obs);
                        let run = PeriodRun {
                            crash: Some(ServerCrash { at_record }),
                            ..faulty(threads)
                        }
                        .run(server, &net, &net.free_flow_times(), &periods, &history)
                        .expect("durable faulty run");
                        let label = format!(
                            "{shards} shards x {threads} threads, crash at {at_record}, \
                             {checkpoints:?}, upload link {:?}",
                            plan.upload_link
                        );
                        assert_eq!(
                            strip_own_series(obs.snapshot().counters),
                            ref_counters,
                            "counters: {label}"
                        );
                        assert_eq!(
                            run.exchanges_per_period, reference.exchanges_per_period,
                            "exchanges: {label}"
                        );
                        assert_eq!(
                            run.sizes_per_period, reference.sizes_per_period,
                            "sizes: {label}"
                        );
                        assert_eq!(
                            run.faults_per_period, reference.faults_per_period,
                            "fault metrics: {label}"
                        );
                        assert_eq!(
                            run.undelivered_per_period, reference.undelivered_per_period,
                            "undelivered: {label}"
                        );
                        let report = run.recovery.as_ref().expect("crash always recovers");
                        assert!(report.tail_error.is_none(), "clean tail: {label}");
                        assert_eq!(
                            report.checkpoint_records > 0,
                            at_record == 1 << 40 && checkpoints == Checkpoints::AsWritten,
                            "only a period-1 crash over written checkpoints restores one: {label}"
                        );
                        for node in 0..4u64 {
                            assert_eq!(
                                run.server.server().upload(RsuId(node)),
                                reference.server.upload(RsuId(node)),
                                "upload for node {node}: {label}"
                            );
                            assert_eq!(
                                run.server.server().history_average(RsuId(node)),
                                reference.server.history_average(RsuId(node)),
                                "history for node {node}: {label}"
                            );
                        }
                        assert_eq!(
                            all_pair_estimates(4, |a, b| run
                                .server
                                .server()
                                .estimate_or_degraded(a, b)),
                            ref_pairs,
                            "estimates: {label}"
                        );
                        let _ = std::fs::remove_dir_all(&dir);
                    }
                }
            }
        }
    }
}

/// Multi-period durability: a 3-period ideal run through the durable
/// backend (no crash) must match the sharded backend's per-period
/// sizes, sliding window, every post-run pair, and counters — and
/// reopening the WAL directory must answer the same pairs.
#[test]
fn multi_period_durable_run_matches_sharded_and_recovers() {
    let seed = 0x3E_71;
    let net = line4();
    let periods: Vec<Vec<VehicleTrip>> = [80u64, 160, 120]
        .iter()
        .enumerate()
        .map(|(p, &count)| line4_trips(count, seed ^ p as u64))
        .collect();
    let scheme = Scheme::variable(2, 3.0, 9).expect("valid scheme");
    let history = vec![80.0; 4];
    let multi = PeriodRun {
        window: Some(3),
        ..config(seed, 2)
    };

    let ref_obs = Obs::enabled(Level::Info);
    let reference = multi
        .run(
            ShardedServer::new(scheme.clone(), 0.5, 2)
                .expect("reference server")
                .with_obs(ref_obs.clone()),
            &net,
            &net.free_flow_times(),
            &periods,
            &history,
        )
        .expect("reference run");
    let ref_counters = strip_own_series(ref_obs.snapshot().counters);
    let ref_pairs = all_pair_estimates(4, |a, b| reference.server.estimate_or_degraded(a, b));
    assert_ne!(
        reference.sizes_per_period[0], reference.sizes_per_period[2],
        "the workload must actually re-size arrays between periods"
    );

    let dir = scratch("multi-period");
    let options = DurableOptions::log_only();
    let obs = Obs::enabled(Level::Info);
    let server = DurableServer::create(scheme.clone(), 0.5, 2, &dir, options, &obs)
        .expect("create durable server");
    let run = multi
        .run(server, &net, &net.free_flow_times(), &periods, &history)
        .expect("durable run");
    // Snapshot before any reads — estimates fire their own counters.
    assert_eq!(
        strip_own_series(obs.snapshot().counters),
        ref_counters,
        "counters"
    );
    assert!(run.recovery.is_none());
    assert_eq!(
        run.server.records_logged(),
        6,
        "a seed record, one batch record per period, a close between periods"
    );
    assert_eq!(run.exchanges_per_period, reference.exchanges_per_period);
    assert_eq!(run.sizes_per_period, reference.sizes_per_period);
    assert_eq!(run.window, reference.window);
    assert_eq!(
        all_pair_estimates(4, |a, b| run.server.server().estimate_or_degraded(a, b)),
        ref_pairs,
        "post-run pairs"
    );
    drop(run);

    let (recovered, report) =
        DurableServer::recover(scheme, 0.5, 2, &dir, options, &Obs::disabled()).expect("recovery");
    assert!(report.tail_error.is_none());
    assert_eq!(
        all_pair_estimates(4, |a, b| recovered.server().estimate_or_degraded(a, b)),
        ref_pairs,
        "recovered pairs"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Feeds a workload through a durable server, then corrupts the WAL
/// tail (bit-flip or truncation) and recovers: the tail error must be
/// typed, recovery must land exactly on the longest valid prefix, and
/// the recovered state must equal a fresh server fed only that prefix.
#[test]
fn corrupted_tail_recovers_to_last_valid_record() {
    let frames = workload(8, 0xBAD_5EED);
    let scheme = Scheme::variable(2, 3.0, 9).expect("valid scheme");

    // `survivors` = exactly how many leading records the corruption
    // leaves intact (the WAL scan computes record boundaries for us).
    enum Corruption {
        FlipLastByte,
        TruncateTail,
        FlipMidFile,
    }
    for (label, kind) in [
        ("bit-flip in last record", Corruption::FlipLastByte),
        ("truncated mid-record", Corruption::TruncateTail),
        ("bit-flip mid-file", Corruption::FlipMidFile),
    ] {
        let dir = scratch("corrupt");
        let mut durable = DurableServer::create(
            scheme.clone(),
            1.0,
            4,
            &dir,
            DurableOptions::log_only(),
            &Obs::disabled(),
        )
        .expect("create durable server");
        for frame in &frames {
            durable.receive_wire(&frame.encode()).expect("ingest");
        }
        let wal_path = durable.wal_path().to_path_buf();
        drop(durable);

        let clean = vcps::durable::read_wal(&wal_path).expect("scan clean wal");
        assert_eq!(clean.records.len(), frames.len(), "one record per frame");
        // Byte offset where record k starts: magic, then
        // `header ‖ payload` per record.
        let record_start = |k: usize| {
            8 + clean.records[..k]
                .iter()
                .map(|r| 16 + r.len())
                .sum::<usize>()
        };

        let mut wal = std::fs::read(&wal_path).expect("read wal");
        let survivors = match kind {
            Corruption::FlipLastByte => {
                let last = wal.len() - 1;
                wal[last] ^= 0x40;
                frames.len() - 1
            }
            Corruption::TruncateTail => {
                wal.truncate(wal.len() - 3);
                frames.len() - 1
            }
            Corruption::FlipMidFile => {
                // First payload byte of the third record: records 0 and
                // 1 survive, everything after is unreachable.
                wal[record_start(2) + 16] ^= 0x01;
                2
            }
        };
        std::fs::write(&wal_path, &wal).expect("rewrite wal");

        let (recovered, report) = DurableServer::recover(
            scheme.clone(),
            1.0,
            4,
            &dir,
            DurableOptions::log_only(),
            &Obs::disabled(),
        )
        .unwrap_or_else(|e| panic!("{label}: recovery must not fail, got {e}"));
        assert!(
            report.tail_error.is_some(),
            "{label}: corruption must surface as a typed tail error"
        );
        assert_eq!(
            report.replayed_records, survivors as u64,
            "{label}: recovery must land exactly on the longest valid prefix"
        );

        // The recovered server equals a fresh one fed only the
        // surviving prefix — corruption never invents or loses state.
        let mut prefix = ShardedServer::new(scheme.clone(), 1.0, 4).expect("prefix server");
        for frame in frames.iter().take(report.replayed_records as usize) {
            prefix.receive_sequenced(frame.clone());
        }
        assert_eq!(
            recovered.server().checkpoint(0),
            prefix.checkpoint(0),
            "{label}: recovered state must equal the valid-prefix state"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A close checkpoint "ahead of" a corrupted log must be ignored:
/// state is only trusted as far as the log that produced it, so
/// recovery falls back to replaying the surviving prefix from scratch —
/// uploads and the close inside it alike.
#[test]
fn checkpoint_past_corrupted_log_is_ignored() {
    let scheme = Scheme::variable(2, 3.0, 9).expect("valid scheme");
    let dir = scratch("stale-ckpt");
    // Three closed periods (`None` is a close); sequence numbers climb
    // by period so each period's frames are fresh.
    let mut events: Vec<Option<SequencedUpload>> = Vec::new();
    for period in 0..3u64 {
        for mut frame in workload(6, 0xCAFE ^ period) {
            frame.seq += 3 * period;
            events.push(Some(frame));
        }
        events.push(None);
    }

    let mut durable = DurableServer::create(
        scheme.clone(),
        1.0,
        2,
        &dir,
        DurableOptions::log_only(),
        &Obs::disabled(),
    )
    .expect("create durable server");
    for event in &events {
        match event {
            Some(frame) => {
                durable.receive_wire(&frame.encode()).expect("ingest");
            }
            None => {
                durable.finish_period().expect("close");
            }
        }
    }
    let wal_path = durable.wal_path().to_path_buf();
    drop(durable);

    // Tear the log two records past the first close: the later close
    // checkpoints now describe state the surviving log cannot vouch for.
    let first_close = events.iter().position(Option::is_none).expect("a close") as u64 + 1;
    let clean = vcps::durable::read_wal(&wal_path).expect("scan clean wal");
    let record_start = |k: usize| {
        8 + clean.records[..k]
            .iter()
            .map(|r| 16 + r.len())
            .sum::<usize>()
    };
    let mut wal = std::fs::read(&wal_path).expect("read wal");
    wal.truncate(record_start(first_close as usize + 2) + 5);
    std::fs::write(&wal_path, &wal).expect("rewrite wal");

    let (recovered, report) = DurableServer::recover(
        scheme.clone(),
        1.0,
        2,
        &dir,
        DurableOptions::log_only(),
        &Obs::disabled(),
    )
    .expect("recovery");
    assert!(report.tail_error.is_some(), "the torn record is reported");
    assert_eq!(
        report.checkpoint_records, 0,
        "the newest checkpoint is past the cut"
    );
    assert_eq!(
        report.replayed_records,
        first_close + 2,
        "the surviving prefix spans the first close"
    );
    let total = report.checkpoint_records + report.replayed_records;

    let mut prefix = ShardedServer::new(scheme.clone(), 1.0, 2).expect("prefix server");
    for event in events.iter().take(total as usize) {
        match event {
            Some(frame) => {
                prefix.receive_sequenced(frame.clone());
            }
            None => {
                prefix.finish_period().expect("close");
            }
        }
    }
    assert_eq!(
        recovered.server().checkpoint(total),
        prefix.checkpoint(total),
        "recovered state must equal the surviving-prefix state"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A seeded multi-period run whose newest close checkpoint is corrupted
/// must recover exactly the never-crashed run: the closes and the seeds
/// are in the log, so falling back to an older checkpoint — or to none —
/// replays them instead of resurrecting a closed period's uploads.
#[test]
fn corrupted_close_checkpoint_recovers_from_the_log() {
    let seed = 0x5EED_C105;
    let net = line4();
    let periods: Vec<Vec<VehicleTrip>> = [90u64, 150, 110]
        .iter()
        .enumerate()
        .map(|(p, &count)| line4_trips(count, seed ^ p as u64))
        .collect();
    let scheme = Scheme::variable(2, 3.0, 9).expect("valid scheme");
    let history = vec![60.0, 140.0, 90.0, 30.0];
    for shards in SHARD_COUNTS {
        let reference = config(seed, 1)
            .run(
                ShardedServer::new(scheme.clone(), 0.5, shards).expect("reference server"),
                &net,
                &net.free_flow_times(),
                &periods,
                &history,
            )
            .expect("reference run");
        let dir = scratch("corrupt-ckpt");
        let options = DurableOptions::log_only();
        let server =
            DurableServer::create(scheme.clone(), 0.5, shards, &dir, options, &Obs::disabled())
                .expect("create durable server");
        let run = config(seed, 1)
            .run(server, &net, &net.free_flow_times(), &periods, &history)
            .expect("durable run");
        drop(run);

        // Flip one payload byte of the newest close checkpoint.
        let mut files: Vec<PathBuf> = std::fs::read_dir(dir.join(CHECKPOINT_DIR))
            .expect("list checkpoints")
            .map(|e| e.expect("entry").path())
            .collect();
        files.sort();
        assert_eq!(files.len(), 2, "one checkpoint per close");
        let newest = files.last().expect("a checkpoint");
        let mut bytes = std::fs::read(newest).expect("read checkpoint");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(newest, &bytes).expect("corrupt checkpoint");

        let (recovered, report) =
            DurableServer::recover(scheme.clone(), 0.5, shards, &dir, options, &Obs::disabled())
                .expect("recovery");
        assert!(report.tail_error.is_none());
        assert_eq!(
            report.checkpoint_records, 3,
            "{shards} shards: falls back to the first close checkpoint (seed, batch, close)"
        );
        assert_eq!(report.checkpoint_records + report.replayed_records, 6);
        assert_eq!(
            recovered.server().checkpoint(0),
            reference.server.checkpoint(0),
            "{shards} shards: recovered state must equal the never-crashed run"
        );
        assert_eq!(
            all_pair_estimates(4, |a, b| recovered.server().estimate_or_degraded(a, b)),
            all_pair_estimates(4, |a, b| reference.server.estimate_or_degraded(a, b)),
            "{shards} shards: recovered pairs"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// One upload claiming `counter = u64::MAX` must not wedge period
/// close: sizing saturates at the upload cap, so `finish_period`
/// succeeds, every other RSU's history is folded exactly once, no
/// upload survives the close, and the logged close replays to the same
/// state bit for bit.
#[test]
fn absurd_counter_cannot_wedge_period_close() {
    let scheme = Scheme::variable(2, 3.0, 9).expect("valid scheme");
    let seeds: Vec<(RsuId, f64)> = (1..=6u64).map(|r| (RsuId(r), 10.0 * r as f64)).collect();
    let upload = |rsu: u64, counter: u64| SequencedUpload {
        seq: 0,
        upload: PeriodUpload {
            rsu: RsuId(rsu),
            counter,
            bits: BitArray::from_indices(64, [rsu as usize]).expect("in range"),
        },
    };
    let frames: Vec<SequencedUpload> = (1..=6u64)
        .map(|r| upload(r, if r == 4 { u64::MAX } else { 7 * r }))
        .collect();

    let mut reference = ShardedServer::new(scheme.clone(), 0.5, 2).expect("reference server");
    reference.seed(&seeds).expect("seed");
    for frame in &frames {
        reference.receive_sequenced(frame.clone());
    }
    let sizes = reference
        .finish_period()
        .expect("one absurd counter must not fail the close");
    assert_eq!(
        reference.upload_count(),
        0,
        "every shard cleared its uploads"
    );
    assert_eq!(
        sizes[&RsuId(4)],
        1 << 32,
        "sizing saturates at the upload cap"
    );
    for r in (1..=6u64).filter(|&r| r != 4) {
        assert_eq!(
            reference.history_average(RsuId(r)),
            Some(0.5 * (10.0 * r as f64) + 0.5 * (7 * r) as f64),
            "RSU {r} folded exactly once"
        );
    }
    // Not wedged: the next close succeeds too.
    let mut closed_twice = reference.clone();
    closed_twice.finish_period().expect("second close");

    let dir = scratch("wedge");
    let mut durable = DurableServer::create(
        scheme.clone(),
        0.5,
        2,
        &dir,
        DurableOptions::log_only(),
        &Obs::disabled(),
    )
    .expect("create durable server");
    durable.seed_history(&seeds).expect("seed");
    for frame in &frames {
        durable.receive_wire(&frame.encode()).expect("ingest");
    }
    assert_eq!(durable.finish_period().expect("close"), sizes);
    drop(durable);
    std::fs::remove_dir_all(dir.join(CHECKPOINT_DIR)).expect("delete checkpoints");
    let (recovered, report) = DurableServer::recover(
        scheme,
        0.5,
        2,
        &dir,
        DurableOptions::log_only(),
        &Obs::disabled(),
    )
    .expect("recovery");
    assert_eq!(report.replayed_records, 8, "seed, six uploads, close");
    assert_eq!(
        recovered.server().checkpoint(0),
        reference.checkpoint(0),
        "the replayed close must be bit-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checksummed record that does not parse — a truncated seed record,
/// a close with trailing bytes, any unknown tag — replays as a typed
/// `MalformedMessage`, never a panic. (Checksums stop random damage
/// first; this is a foreign or logically corrupted log.)
#[test]
fn malformed_log_records_replay_as_typed_errors() {
    let golden = |name: &str| {
        std::fs::read(
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("tests/data")
                .join(name),
        )
        .expect("golden WAL record")
    };
    let (seed, close) = (golden("wal_seed.bin"), golden("wal_close.bin"));
    let scheme = Scheme::variable(2, 3.0, 9).expect("valid scheme");
    let replay = |record: &[u8]| {
        let dir = scratch("malformed");
        let mut wal = vcps::durable::WalWriter::create(dir.join("frames.wal")).expect("wal");
        wal.append(&seed).expect("append");
        wal.append(record).expect("append");
        wal.sync().expect("sync");
        let result = DurableServer::recover(
            scheme.clone(),
            1.0,
            2,
            &dir,
            DurableOptions::log_only(),
            &Obs::disabled(),
        )
        .map(|(server, report)| (server.server().checkpoint(0), report.replayed_records));
        let _ = std::fs::remove_dir_all(&dir);
        result
    };
    let mut malformed: Vec<Vec<u8>> = (1..seed.len()).map(|cut| seed[..cut].to_vec()).collect();
    malformed.push([&seed[..], &[0]].concat());
    malformed.push([&close[..], &[0]].concat());
    malformed.push(Vec::new());
    // Every tag byte, alone and with a short body: only the close record
    // is a valid one-byte record, and no upload frame is this short.
    for tag in 0..=u8::MAX {
        if tag != close[0] {
            malformed.push(vec![tag]);
        }
        malformed.push(vec![tag, 0xFF, 0xFF, 0xFF]);
    }
    for record in &malformed {
        assert!(
            matches!(replay(record), Err(SimError::MalformedMessage { .. })),
            "record {record:02x?} must replay as a typed MalformedMessage"
        );
    }
    let (_, replayed) = replay(&close).expect("the golden records replay");
    assert_eq!(replayed, 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Group-commit prefix durability (DESIGN.md §18): for any record
    /// sequence, flush policy, and crash point, a crash loses at most
    /// the buffered tail — the on-disk log is an exact *prefix* of the
    /// appended frames with a **clean** tail (a lost buffered record is
    /// absent, never torn), the policy bounds how long that lost tail
    /// can be, and recovery replays the prefix into a state identical
    /// to a never-crashed server fed the same prefix.
    #[test]
    fn group_commit_crash_recovers_exact_durable_prefix(
        seed in any::<u64>(),
        rsus in 2u64..6,
        crash_at in any::<usize>(),
        policy_kind in 0u8..3,
        every_n in 1u64..6,
        flush_before_crash in any::<bool>(),
    ) {
        let policy = match policy_kind {
            0 => FlushPolicy::EveryRecords(1),
            1 => FlushPolicy::EveryRecords(every_n),
            _ => FlushPolicy::Manual,
        };
        let frames = workload(rsus, seed);
        let crash = crash_at % (frames.len() + 1);
        let scheme = Scheme::variable(2, 3.0, 9).expect("valid scheme");
        let dir = scratch("group-commit");

        let mut durable = DurableServer::create(
            scheme.clone(),
            1.0,
            2,
            &dir,
            DurableOptions::log_only().with_flush(policy),
            &Obs::disabled(),
        )
        .expect("create durable server");
        for frame in &frames[..crash] {
            durable.receive_wire(&frame.encode()).expect("ingest");
        }
        if flush_before_crash {
            durable.flush_wal().expect("flush");
        }
        let wal_path = durable.wal_path().to_path_buf();
        // Crash: drop deliberately does NOT flush, so the buffered
        // tail vanishes with the process.
        drop(durable);

        let scan = vcps::durable::read_wal(&wal_path).expect("scan wal");
        prop_assert!(
            scan.tail_error.is_none(),
            "losing the buffer must leave a clean tail, got {:?}",
            scan.tail_error
        );
        let durable_records = scan.records.len();
        prop_assert!(durable_records <= crash);
        // The surviving records are byte-identical to the first
        // `durable_records` appended frames — a prefix, never a
        // reordering or a partial record.
        for (record, frame) in scan.records.iter().zip(&frames[..crash]) {
            let encoded = frame.encode();
            prop_assert_eq!(&record[..], &encoded[..]);
        }
        // The policy bounds the lost tail.
        if flush_before_crash {
            prop_assert_eq!(durable_records, crash, "explicit flush makes everything durable");
        } else {
            match policy {
                // `EveryRecords(1)`: every record durable on append.
                FlushPolicy::EveryRecords(n) => {
                    prop_assert_eq!(durable_records, crash - crash % n as usize)
                }
                FlushPolicy::Manual => prop_assert_eq!(durable_records, 0),
            }
        }

        let (recovered, report) = DurableServer::recover(
            scheme.clone(),
            1.0,
            2,
            &dir,
            DurableOptions::log_only(),
            &Obs::disabled(),
        )
        .expect("recovery");
        prop_assert!(report.tail_error.is_none());
        prop_assert_eq!(
            report.checkpoint_records + report.replayed_records,
            durable_records as u64
        );

        let mut prefix = ShardedServer::new(scheme, 1.0, 2).expect("prefix server");
        for frame in frames.iter().take(durable_records) {
            prefix.receive_sequenced(frame.clone());
        }
        prop_assert_eq!(
            recovered.server().checkpoint(durable_records as u64),
            prefix.checkpoint(durable_records as u64),
            "recovered state must equal the durable-prefix state"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
