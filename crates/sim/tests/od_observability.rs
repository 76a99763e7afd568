//! The batch O–D decode records its metrics from per-worker tallies
//! folded after the join. These tests pin that the folded numbers are
//! exactly what per-pair recording would give, at every thread count,
//! with observability on or off, and that the answers never change.

use std::collections::BTreeMap;

use vcps_bitarray::BitArray;
use vcps_core::{RsuId, Scheme};
use vcps_hash::splitmix64;
use vcps_obs::{Level, Obs, RegistrySnapshot};
use vcps_sim::{OdMatrix, PeriodUpload, ShardedServer};

/// RSUs holding an upload; every pair among them decodes.
const UPLOADED: u64 = 120;
/// RSUs known only from history; their pairs answer degraded.
const HISTORY_ONLY: u64 = 4;

/// A 4-shard server whose triangle is large enough to fan out, with
/// three array sizes, a mix of sparse and dense fills (so more than one
/// kernel runs), and a few history-only RSUs.
fn server() -> ShardedServer {
    let scheme = Scheme::variable(2, 3.0, 7).expect("valid scheme");
    let mut server = ShardedServer::new(scheme, 0.5, 4).expect("valid alpha");
    for id in 1..=UPLOADED {
        let m = 1usize << (14 + id % 3);
        let ones = if id % 4 == 0 { 3 } else { m / 3 };
        let bits = BitArray::from_indices(
            m,
            (0..ones as u64).map(|k| (splitmix64(id << 20 | k) % m as u64) as usize),
        )
        .expect("in range");
        server.receive(PeriodUpload {
            rsu: RsuId(id),
            counter: ones as u64,
            bits,
        });
    }
    for id in UPLOADED + 1..=UPLOADED + HISTORY_ONLY {
        server.seed_history(RsuId(id), 40.0);
    }
    server
}

/// The deterministic part of a snapshot: every counter and gauge, and
/// each histogram's sample count (durations vary run to run).
fn deterministic(snap: &RegistrySnapshot) -> (BTreeMap<String, u64>, BTreeMap<String, u64>) {
    let histograms = snap
        .histograms
        .iter()
        .map(|(name, h)| (name.clone(), h.count))
        .collect();
    let mut counters = snap.counters.clone();
    counters.extend(
        snap.gauges
            .iter()
            .map(|(name, v)| (format!("gauge:{name}"), v.to_bits())),
    );
    (counters, histograms)
}

#[test]
fn od_metrics_equal_per_pair_counts_at_every_thread_count() {
    let decodable_pairs = UPLOADED * (UPLOADED - 1) / 2;
    let reference: OdMatrix = server().od_matrix_threads(1).expect("matrix");
    let mut snapshots = Vec::new();
    for threads in [1, 2, 4] {
        let off = server();
        assert_eq!(off.od_matrix_threads(threads).expect("matrix"), reference);
        assert!(off.obs().snapshot().is_empty());

        let on = server().with_obs(Obs::enabled(Level::Info));
        assert_eq!(on.od_matrix_threads(threads).expect("matrix"), reference);
        let snap = on.obs().snapshot();
        let kernels = snap.counters_with_prefix("kernel.");
        assert!(
            kernels.len() > 1,
            "workload exercises one kernel only: {kernels:?}"
        );
        assert_eq!(
            kernels.values().sum::<u64>(),
            decodable_pairs,
            "threads={threads}"
        );
        assert_eq!(snap.counters["phase.decode.calls"], decodable_pairs);
        assert_eq!(snap.histograms["phase.decode.ns"].count, decodable_pairs);
        assert_eq!(snap.counters["phase.od_matrix.calls"], 1);
        snapshots.push(deterministic(&snap));
    }
    assert!(snapshots.windows(2).all(|w| w[0] == w[1]), "{snapshots:?}");

    // The memoized single-pair path decodes and counts one pair at a
    // time; the batch tallies must agree with it kernel for kernel.
    let per_pair = server().with_obs(Obs::enabled(Level::Info));
    let ids: Vec<RsuId> = (1..=UPLOADED).map(RsuId).collect();
    for (i, &a) in ids.iter().enumerate() {
        for &b in &ids[i + 1..] {
            assert_eq!(
                per_pair.estimate_or_degraded(a, b).expect("answer"),
                *reference.get(a, b).expect("covered")
            );
        }
    }
    let per_pair = per_pair.obs().snapshot();
    let (batch_counters, _) = &snapshots[0];
    let batch_kernels: BTreeMap<_, _> = batch_counters
        .iter()
        .filter(|(name, _)| name.starts_with("kernel."))
        .map(|(name, v)| (name.clone(), *v))
        .collect();
    assert_eq!(per_pair.counters_with_prefix("kernel."), batch_kernels);
    assert_eq!(per_pair.counters["phase.decode.calls"], decodable_pairs);
}
