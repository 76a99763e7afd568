//! Conformance for the zero-copy borrowed wire views (DESIGN.md §18).
//!
//! `decode_ref` is the only validator of the upload frames; the owned
//! decoders are it plus `to_owned_*`, so accept parity holds by
//! construction. What can still split is the view's allocation-free
//! accessors (`count_ones`, `dense_words`, `sparse_indices`, `matches`,
//! `frames`) against the owned copy: every accepted frame must agree
//! with its copy field for field, and every rejection must be a typed
//! `MalformedMessage`, never a panic. The suite checks this on every
//! golden vector under `tests/data/`, on every prefix truncation of
//! those vectors, on a single-bit-flip sweep, and under randomized
//! mutation (truncation, byte corruption, batch frame reordering and
//! duplication).

use proptest::prelude::*;

use vcps::durable::fnv1a_64;
use vcps::sim::protocol::{
    BatchUpload, BatchUploadRef, PeriodUpload, PeriodUploadRef, SequencedUpload, SequencedUploadRef,
};
use vcps::sim::SimError;
use vcps::{BitArray, RsuId};

fn data(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

const GOLDEN: [&str; 8] = [
    "query.bin",
    "report.bin",
    "upload_dense.bin",
    "upload_sparse.bin",
    "sequenced.bin",
    "batch.bin",
    "ckpt_server.bin",
    "ckpt_set.bin",
];

/// Runs one wire image through all three hot frame validators: an
/// accepted view must agree with its owned copy, a rejection must be
/// typed.
fn check_views(wire: &[u8]) {
    if let Some(view) = accepted(PeriodUploadRef::decode_ref(wire)) {
        check_upload_view(&view);
    }
    if let Some(view) = accepted(SequencedUploadRef::decode_ref(wire)) {
        let owned = view.to_owned_upload();
        assert_eq!(view.seq(), owned.seq);
        check_upload_view(&view.upload());
    }
    if let Some(view) = accepted(BatchUploadRef::decode_ref(wire)) {
        let owned = view.to_owned_batch();
        assert_eq!(view.len(), owned.frames().len());
        for (frame_view, frame) in view.frames().zip(owned.frames()) {
            assert_eq!(frame_view.seq(), frame.seq);
            assert!(frame_view.upload().matches(&frame.upload));
            assert_eq!(frame_view.to_owned_upload(), *frame);
        }
    }
}

/// `Some(view)` on acceptance; on rejection, asserts the error is the
/// typed malformed-frame error.
fn accepted<T>(verdict: Result<T, SimError>) -> Option<T> {
    match verdict {
        Ok(view) => Some(view),
        Err(SimError::MalformedMessage { .. }) => None,
        Err(other) => panic!("untyped rejection: {other:?}"),
    }
}

/// Every allocation-free accessor of an accepted upload view against
/// the owned copy it materializes.
fn check_upload_view(view: &PeriodUploadRef<'_>) {
    let owned = view.to_owned_upload();
    assert_eq!(view.rsu(), owned.rsu);
    assert_eq!(view.counter(), owned.counter);
    assert_eq!(view.bits_len(), owned.bits.len());
    assert_eq!(view.count_ones(), owned.bits.count_ones());
    assert!(view.matches(&owned), "accepted view must match its copy");
    if view.is_sparse() {
        assert!(view.dense_words().is_none());
        let indices: Vec<u64> = view.sparse_indices().expect("sparse").collect();
        let ones: Vec<u64> = owned.bits.ones().map(|i| i as u64).collect();
        assert_eq!(indices, ones);
    } else {
        assert!(view.sparse_indices().is_none());
        let words: Vec<u64> = view.dense_words().expect("dense").collect();
        assert_eq!(words, owned.bits.as_words());
    }
}

/// Assembles a batch wire image from frames *in the given order*, with
/// valid per-record checksums — canonical when the order is, hostile
/// (out-of-order / duplicate keys) when it is not. Lets the mutation
/// tests probe the ordering validation without the owned encoder
/// sorting the hostility away.
fn raw_batch_wire(frames: &[SequencedUpload]) -> Vec<u8> {
    let mut wire = vec![6u8]; // TAG_BATCH
    wire.extend((frames.len() as u64).to_be_bytes());
    for frame in frames {
        let inner = frame.encode();
        wire.extend((inner.len() as u64).to_be_bytes());
        wire.extend(fnv1a_64(&inner).to_be_bytes());
        wire.extend(inner.iter());
    }
    wire
}

#[test]
fn golden_vectors_decode_identically_borrowed_and_owned() {
    for name in GOLDEN {
        check_views(&data(name));
    }
    // The hot vectors must actually be accepted — an all-reject suite
    // would pass vacuously.
    let dense_wire = data("upload_dense.bin");
    let sparse_wire = data("upload_sparse.bin");
    let dense = PeriodUploadRef::decode_ref(&dense_wire).expect("dense golden vector");
    let sparse = PeriodUploadRef::decode_ref(&sparse_wire).expect("sparse golden vector");
    assert!(!dense.is_sparse() && sparse.is_sparse());
    assert!(SequencedUploadRef::decode_ref(&data("sequenced.bin")).is_ok());
    assert!(BatchUploadRef::decode_ref(&data("batch.bin")).is_ok());

    // `matches` must also say no: a differing counter or one extra set
    // bit breaks the match on both encodings.
    for view in [dense, sparse] {
        let mut other = view.to_owned_upload();
        other.counter += 1;
        assert!(!view.matches(&other));
        let mut other = view.to_owned_upload();
        let unset = (0..other.bits.len())
            .find(|&i| !other.bits.get(i))
            .expect("golden arrays are not full");
        other.bits.set(unset);
        assert!(!view.matches(&other));
    }
}

/// Every prefix of every golden vector: truncation anywhere — inside
/// the header, a length field, a checksum, or a payload — must be a
/// typed rejection by every hot validator (only the full image
/// accepts).
#[test]
fn golden_vector_truncations_never_split_the_decoders() {
    for name in GOLDEN {
        let wire = data(name);
        for cut in 0..wire.len() {
            let prefix = &wire[..cut];
            check_views(prefix);
            assert!(
                accepted(PeriodUploadRef::decode_ref(prefix)).is_none()
                    && accepted(SequencedUploadRef::decode_ref(prefix)).is_none()
                    && accepted(BatchUploadRef::decode_ref(prefix)).is_none(),
                "{name}: prefix of {cut} bytes accepted"
            );
        }
    }
}

/// Exhaustive single-bit-flip sweep over the hot golden vectors: a
/// flipped tag, length, checksum, index, or payload byte must be a
/// typed rejection, or an accepted now-different-but-valid frame whose
/// view agrees with its owned copy.
#[test]
fn golden_vector_bit_flips_never_split_the_decoders() {
    for name in [
        "upload_dense.bin",
        "upload_sparse.bin",
        "sequenced.bin",
        "batch.bin",
    ] {
        let wire = data(name);
        for i in 0..wire.len() {
            for bit in 0..8 {
                let mut flipped = wire.clone();
                flipped[i] ^= 1 << bit;
                check_views(&flipped);
            }
        }
    }
}

fn arb_upload() -> impl Strategy<Value = PeriodUpload> {
    (
        1u64..1_000,
        any::<u64>(),
        1usize..=512,
        prop::collection::vec(any::<u32>(), 0..64),
    )
        .prop_map(|(rsu, counter, len, raw)| {
            let bits = BitArray::from_indices(len, raw.into_iter().map(|v| v as usize % len))
                .expect("indices in range");
            PeriodUpload {
                rsu: RsuId(rsu),
                counter,
                bits,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn truncated_random_frames_never_split_the_decoders(
        upload in arb_upload(),
        seq in any::<u64>(),
        cut_frac in 0.0f64..1.0,
        sparse in any::<bool>(),
    ) {
        let period_wire = if sparse {
            upload.encode_compact()
        } else {
            upload.encode()
        };
        let cut = (period_wire.len() as f64 * cut_frac) as usize;
        check_views(&period_wire[..cut]);
        check_views(&period_wire);

        let sequenced = SequencedUpload { seq, upload };
        let seq_wire = sequenced.encode();
        let cut = (seq_wire.len() as f64 * cut_frac) as usize;
        check_views(&seq_wire[..cut]);
        check_views(&seq_wire);

        let batch = BatchUpload::new(vec![sequenced]).expect("single frame");
        let batch_wire = batch.encode();
        let cut = (batch_wire.len() as f64 * cut_frac) as usize;
        check_views(&batch_wire[..cut]);
        check_views(&batch_wire);
    }

    #[test]
    fn corrupted_random_frames_never_split_the_decoders(
        upload in arb_upload(),
        seq in any::<u64>(),
        byte in any::<usize>(),
        mask in 1u8..=255,
        sparse in any::<bool>(),
    ) {
        let mut period_wire = if sparse {
            upload.encode_compact().to_vec()
        } else {
            upload.encode().to_vec()
        };
        let i = byte % period_wire.len();
        period_wire[i] ^= mask;
        check_views(&period_wire);

        let batch = BatchUpload::new(vec![SequencedUpload { seq, upload }])
            .expect("single frame");
        let mut batch_wire = batch.encode().to_vec();
        let i = byte % batch_wire.len();
        batch_wire[i] ^= mask;
        check_views(&batch_wire);
    }

    #[test]
    fn reordered_batch_frames_never_split_the_decoders(
        a in arb_upload(),
        b in arb_upload(),
        seq_a in any::<u64>(),
        seq_b in any::<u64>(),
        order in 0usize..4,
    ) {
        let fa = SequencedUpload { seq: seq_a, upload: a };
        let fb = SequencedUpload { seq: seq_b, upload: b };
        // In-order, reversed, and duplicated-key layouts; every record
        // carries a valid checksum, so only the (rsu, seq) ordering
        // validation distinguishes them.
        let frames = match order {
            0 => vec![fa.clone(), fb.clone()],
            1 => vec![fb.clone(), fa.clone()],
            2 => vec![fa.clone(), fa.clone()],
            _ => vec![fb.clone(), fb.clone()],
        };
        let wire = raw_batch_wire(&frames);
        check_views(&wire);
        let key = |f: &SequencedUpload| (f.upload.rsu, f.seq);
        if key(&frames[0]) >= key(&frames[1]) {
            prop_assert!(matches!(
                BatchUploadRef::decode_ref(&wire),
                Err(SimError::MalformedMessage {
                    reason: "batch records not strictly increasing"
                })
            ));
        }

        // The canonically sorted two-frame batch must be accepted
        // whenever its keys are distinct.
        if key(&fa) != key(&fb) {
            let mut sorted = vec![fa, fb];
            sorted.sort_by_key(key);
            let wire = raw_batch_wire(&sorted);
            prop_assert!(BatchUpload::decode(&wire).is_ok());
            check_views(&wire);
        }
    }
}
