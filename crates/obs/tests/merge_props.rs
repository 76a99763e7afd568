//! Property tests for the snapshot merge algebra: `RegistrySnapshot::merge`
//! must be associative and commutative so per-worker snapshots can be
//! reduced in any grouping or order (the guarantee the engine's
//! thread-count-independence tests lean on), and a locally tallied
//! histogram merged into a live one must equal recording its values
//! directly (the per-worker O–D decode tally relies on that).

use proptest::prelude::*;
use vcps_obs::{Histogram, HistogramSnapshot, Registry, RegistrySnapshot};

/// Small name pool so generated snapshots collide on keys (merging
/// disjoint maps would never exercise the combining operators).
const NAMES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// One randomly generated recording: `(kind, name index, value)`.
type Op = (u8, u8, u64);

fn build(ops: &[Op]) -> RegistrySnapshot {
    let registry = Registry::new();
    for &(kind, name, value) in ops {
        let name = NAMES[name as usize % NAMES.len()];
        match kind % 3 {
            0 => registry.add(name, value),
            1 => registry.set_gauge(name, value as f64 / 128.0),
            _ => registry.observe(name, value),
        }
    }
    registry.snapshot()
}

fn merged(mut a: RegistrySnapshot, b: &RegistrySnapshot) -> RegistrySnapshot {
    a.merge(b);
    a
}

proptest! {
    #[test]
    fn merge_is_commutative(
        ops_a in proptest::collection::vec((0u8..3, 0u8..4, 0u64..1_000_000), 0..12),
        ops_b in proptest::collection::vec((0u8..3, 0u8..4, 0u64..1_000_000), 0..12),
    ) {
        let a = build(&ops_a);
        let b = build(&ops_b);
        prop_assert_eq!(merged(a.clone(), &b), merged(b, &a));
    }

    #[test]
    fn merge_is_associative(
        ops_a in proptest::collection::vec((0u8..3, 0u8..4, 0u64..1_000_000), 0..10),
        ops_b in proptest::collection::vec((0u8..3, 0u8..4, 0u64..1_000_000), 0..10),
        ops_c in proptest::collection::vec((0u8..3, 0u8..4, 0u64..1_000_000), 0..10),
    ) {
        let a = build(&ops_a);
        let b = build(&ops_b);
        let c = build(&ops_c);
        let left = merged(merged(a.clone(), &b), &c);
        let right = merged(a, &merged(b, &c));
        prop_assert_eq!(left, right);
    }

    #[test]
    fn empty_snapshot_is_identity(
        ops in proptest::collection::vec((0u8..3, 0u8..4, 0u64..1_000_000), 0..12),
    ) {
        let a = build(&ops);
        let empty = RegistrySnapshot::default();
        prop_assert_eq!(merged(a.clone(), &empty), a.clone());
        prop_assert_eq!(merged(empty, &a), a);
    }

    #[test]
    fn merged_tally_equals_direct_recording(
        before in proptest::collection::vec(any::<u64>(), 0..16),
        tallied in proptest::collection::vec(any::<u64>(), 0..64),
    ) {
        let direct = Histogram::default();
        let merged = Histogram::default();
        for &v in &before {
            direct.record(v);
            merged.record(v);
        }
        let mut tally = HistogramSnapshot::default();
        for &v in &tallied {
            direct.record(v);
            tally.record(v);
        }
        merged.merge_snapshot(&tally);
        prop_assert_eq!(merged.snapshot(), direct.snapshot());
    }
}
