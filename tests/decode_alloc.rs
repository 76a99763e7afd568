//! Proof that the borrowed decode path is allocation-free (DESIGN.md
//! §18): a counting global allocator is armed around the hot region
//! and must observe **zero** heap allocations while a batch wire image
//! is validated, walked frame by frame, and compared against
//! already-owned uploads. The owned decode of the same bytes is
//! measured as a sanity check that the counter actually counts — and
//! re-ingesting a duplicate batch through `ShardedServer` must
//! allocate O(1) in the batch size (the outcomes vector), which is
//! checked by comparing counts at two batch sizes.
//!
//! The armed flag is thread-local so harness threads (stdout capture,
//! timers) can't contaminate the count; the counter itself is a global
//! atomic that only the armed thread increments.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use vcps::sim::protocol::{BatchUpload, BatchUploadRef, PeriodUpload, SequencedUpload};
use vcps::sim::ShardedServer;
use vcps::{BitArray, RsuId, Scheme};

struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// True when the *current thread* is inside an armed region.
/// `try_with` because the allocator can be called during TLS teardown.
fn armed() -> bool {
    ARMED.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with the allocation counter armed, returning its result
/// and the number of heap allocations it performed.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.with(|armed| armed.set(true));
    let out = f();
    ARMED.with(|armed| armed.set(false));
    (out, ALLOCS.load(Ordering::SeqCst))
}

/// `rsus` sequenced uploads over 4096-bit arrays, alternating between
/// sparse-encodable (40 ones < 64 words) and dense-falling-back (80
/// ones > 64 words) fills so the armed walk exercises both payload
/// shapes.
fn batch(rsus: u64) -> BatchUpload {
    let frames: Vec<SequencedUpload> = (1..=rsus)
        .map(|r| {
            let ones = if r % 2 == 0 { 40u64 } else { 80 };
            let bits =
                BitArray::from_indices(4096, (0..ones).map(|i| (i * 51 + r) as usize % 4096))
                    .expect("indices in range");
            SequencedUpload {
                seq: 0,
                upload: PeriodUpload {
                    rsu: RsuId(r),
                    counter: bits.count_ones() as u64,
                    bits,
                },
            }
        })
        .collect();
    BatchUpload::new(frames).expect("distinct keys")
}

/// Validates the wire, walks every frame through every borrowed
/// accessor, and cross-checks against the owned uploads — the exact
/// read work an ingesting server performs before deciding what to
/// materialize.
fn walk_borrowed(wire: &[u8], owned: &BatchUpload) -> u64 {
    let view = BatchUploadRef::decode_ref(wire).expect("valid batch");
    let mut acc = 0u64;
    for (frame, reference) in view.frames().zip(owned.frames()) {
        let upload = frame.upload();
        acc += frame.seq() + upload.rsu().0 + upload.counter() + upload.count_ones() as u64;
        if let Some(words) = upload.dense_words() {
            acc += words.map(|w| u64::from(w.count_ones())).sum::<u64>();
        } else {
            acc += upload
                .sparse_indices()
                .expect("sparse payload")
                .sum::<u64>();
        }
        assert!(upload.matches(&reference.upload));
    }
    acc
}

#[test]
fn borrowed_decode_is_allocation_free() {
    let owned = batch(64);
    let wire = owned.encode().to_vec();

    // Sanity: the counter counts. The owned decode materializes a
    // frames vector plus one heap-backed bit array per upload, so it
    // must register a healthy number of allocations.
    let (decoded, owned_allocs) = allocs_during(|| BatchUpload::decode(&wire).expect("valid"));
    assert_eq!(decoded, owned);
    assert!(
        owned_allocs >= 64,
        "owned decode of 64 frames allocated only {owned_allocs} times — \
         is the counter wired up?"
    );

    // The claim: validate + full walk + owned comparison, zero heap
    // traffic.
    let expected = walk_borrowed(&wire, &owned);
    let (walked, borrowed_allocs) = allocs_during(|| walk_borrowed(&wire, &owned));
    assert_eq!(walked, expected);
    assert_eq!(
        borrowed_allocs, 0,
        "borrowed decode walk must not touch the heap"
    );

    // Server-side: re-ingesting a duplicate batch through the borrowed
    // path allocates O(1) in the batch size — the outcomes vector —
    // not O(frames) bit arrays. Equal counts at 64 and 256 frames pin
    // that down without hard-coding the constant.
    let scheme = Scheme::variable(2, 3.0, 1).expect("valid scheme");
    let mut allocs_by_size = Vec::new();
    for rsus in [64u64, 256] {
        let owned = batch(rsus);
        let wire = owned.encode().to_vec();
        let mut server = ShardedServer::new(scheme.clone(), 1.0, 4).expect("valid shard count");
        server.receive_wire(&wire).expect("first ingest");
        let (outcomes, allocs) =
            allocs_during(|| server.receive_wire(&wire).expect("duplicate ingest"));
        assert_eq!(outcomes.len(), rsus as usize);
        assert!(
            outcomes
                .iter()
                .all(|o| *o == vcps::sim::ReceiveOutcome::Duplicate),
            "re-ingest must classify every frame as a duplicate"
        );
        allocs_by_size.push(allocs);
    }
    assert_eq!(
        allocs_by_size[0], allocs_by_size[1],
        "duplicate re-ingest allocations must not scale with batch size \
         (64 frames: {}, 256 frames: {})",
        allocs_by_size[0], allocs_by_size[1]
    );
}
