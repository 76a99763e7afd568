//! Per-shard server state and the pair decode behind
//! [`crate::ShardedServer`], the one in-memory server (paper §II-A,
//! §IV-C; a one-shard server is the paper's single central server).
//!
//! A [`Shard`] holds one hash bucket of RSUs: their volume history,
//! open-period uploads, accepted sequence numbers, and sparse index
//! lists. It classifies receives, captures and restores its
//! [`ServerCheckpoint`], and closes its part of a period. Everything a
//! query touches across shards — the pair memo, the O–D fan-out, the
//! observability handle — lives on the composite.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use vcps_bitarray::{
    combined_zero_count_adaptive, select_pair_kernel, select_pair_kernel_with_cost,
    sparse_is_profitable, DecodeScratch, PairKernel,
};
use vcps_core::estimator::{estimate_from_counts_or_clamp, first_plays_x, PairCounts};
use vcps_core::{CoreError, DegradedEstimate, PairEstimate, RsuId, Scheme, VolumeHistory};
use vcps_obs::{HistogramSnapshot, Level, Obs, Value};

use crate::protocol::{PeriodUpload, SequencedUpload, SequencedUploadRef, ServerCheckpoint};
use crate::SimError;

thread_local! {
    /// Per-thread scratch for the sparse-sparse decode kernel, so both
    /// the single-pair and all-pairs paths reuse one membership mask per
    /// worker instead of allocating per pair.
    static SCRATCH: RefCell<DecodeScratch> = RefCell::new(DecodeScratch::new());
}

/// Runs `f` with this thread's decode scratch — the one per-worker
/// buffer the single-pair and O–D paths share.
pub(crate) fn with_thread_scratch<R>(f: impl FnOnce(&mut DecodeScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// One RSU's decode-relevant state, resolved once per query.
///
/// The naive pair loop resolves `uploads` and `sparse_ones` map entries
/// per *pair* — `O(N²)` tree walks for `N` RSUs, which dominates decode
/// time on sparse workloads. Prefetching the `N` lookups once and
/// handing the pair loop plain references removes that entirely. The
/// `history` reference is the owning shard's, for the degraded path.
pub(crate) struct RsuDecodeRef<'a> {
    pub(crate) rsu: RsuId,
    pub(crate) history: &'a VolumeHistory,
    pub(crate) upload: Option<&'a PeriodUpload>,
    pub(crate) ones: Option<&'a [u64]>,
}

impl<'a> RsuDecodeRef<'a> {
    /// The upload, if it can be decoded: present, and at least 2 bits
    /// (the estimator needs a meaningful zero fraction).
    pub(crate) fn decodable(&self) -> Result<&'a PeriodUpload, SimError> {
        let upload = self
            .upload
            .ok_or(SimError::MissingUpload { rsu: self.rsu })?;
        if upload.bits.len() < 2 {
            return Err(SimError::Core(CoreError::InvalidConfig {
                parameter: "m",
                reason: format!(
                    "bit array size must be at least 2, got {}",
                    upload.bits.len()
                ),
            }));
        }
        Ok(upload)
    }

    /// What this RSU contributes to each of its pair answers: its
    /// decodable upload's Eq. 5 inputs, else its volume history.
    pub(crate) fn side(&self) -> RsuSide {
        match self.decodable() {
            Ok(upload) => RsuSide::Upload {
                m: upload.bits.len(),
                zeros: upload.bits.count_zeros(),
                counter: upload.counter,
            },
            Err(_) => RsuSide::History(self.history.average(self.rsu)),
        }
    }
}

/// Two decodable uploads in decode orientation — `x` is the side
/// [`first_plays_x`] puts first — with their sparse index lists. The
/// memoized single-pair path and the O–D matrix both decode through
/// [`decode`](Self::decode), so they are bit-identical by construction.
pub(crate) struct OrientedPair<'a> {
    x: &'a PeriodUpload,
    ones_x: Option<&'a [u64]>,
    y: &'a PeriodUpload,
    ones_y: Option<&'a [u64]>,
}

impl<'a> OrientedPair<'a> {
    /// Checks both prefetched sides are decodable and orients them.
    pub(crate) fn new(a: &RsuDecodeRef<'a>, b: &RsuDecodeRef<'a>) -> Result<Self, SimError> {
        let (ua, ub) = (a.decodable()?, b.decodable()?);
        let a_first = first_plays_x(
            ua.bits.len(),
            ua.counter,
            ua.rsu,
            ub.bits.len(),
            ub.counter,
            ub.rsu,
        );
        Ok(if a_first {
            Self {
                x: ua,
                ones_x: a.ones,
                y: ub,
                ones_y: b.ones,
            }
        } else {
            Self {
                x: ub,
                ones_x: b.ones,
                y: ua,
                ones_y: a.ones,
            }
        })
    }

    /// Decodes the pair's sufficient statistics with the cheapest kernel
    /// ([`combined_zero_count_adaptive`]) over whatever sparse index
    /// lists the receive path extracted. Returns the kernel that ran
    /// alongside the result; when the kernel rejects the pair (sizes
    /// not nested), it is the kernel the selector picked.
    pub(crate) fn decode(
        &self,
        scratch: &mut DecodeScratch,
    ) -> (PairKernel, Result<PairCounts, SimError>) {
        let (x, y) = (self.x, self.y);
        match combined_zero_count_adaptive(&x.bits, self.ones_x, &y.bits, self.ones_y, scratch) {
            Ok((u_c, kernel)) => (
                kernel,
                Ok(PairCounts {
                    m_x: x.bits.len(),
                    m_y: y.bits.len(),
                    u_x: x.bits.count_zeros(),
                    u_y: y.bits.count_zeros(),
                    u_c,
                    n_x: x.counter,
                    n_y: y.counter,
                }),
            ),
            Err(e) => (
                select_pair_kernel(
                    x.bits.len(),
                    self.ones_x.map(<[u64]>::len),
                    y.bits.len(),
                    self.ones_y.map(<[u64]>::len),
                ),
                Err(CoreError::from(e).into()),
            ),
        }
    }

    /// Emits the `Debug`-level `kernel_select` event for a decode that
    /// ran `kernel`: the cost-model inputs the selector weighed (array
    /// sizes and set-bit counts). Callers guard it with
    /// `obs.enabled_at(Level::Debug)`.
    pub(crate) fn kernel_event(&self, obs: &Obs, kernel: PairKernel) {
        let ones = |o: Option<&[u64]>| {
            o.map_or(Value::Str("dense".to_string()), |o| {
                Value::U64(o.len() as u64)
            })
        };
        obs.event(
            Level::Debug,
            "kernel_select",
            &[
                ("kernel", Value::Str(kernel.label().to_string())),
                ("m_x", Value::U64(self.x.bits.len() as u64)),
                ("m_y", Value::U64(self.y.bits.len() as u64)),
                ("sparse_ones_x", ones(self.ones_x)),
                ("sparse_ones_y", ones(self.ones_y)),
            ],
        );
    }
}

/// One RSU's share of the sufficient statistics behind every pair
/// answer it takes part in (paper Eq. 5 needs per-RSU `(m, U, n)` plus
/// one per-pair `U_c`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RsuSide {
    /// A decodable upload (at least 2 bits).
    Upload {
        /// Array size `m`.
        m: usize,
        /// Zero count `U`.
        zeros: usize,
        /// The RSU's vehicle counter `n`.
        counter: u64,
    },
    /// No decodable upload this period: the RSU's EWMA volume history,
    /// `None` if the server has none.
    History(Option<f64>),
}

impl RsuSide {
    pub(crate) fn is_upload(self) -> bool {
        matches!(self, RsuSide::Upload { .. })
    }
}

/// The one place Eq. 5 and its degraded arm are applied: turns two
/// sides and the pair's decoded `U_c` (`None` when nothing was decoded)
/// into the answer. The memoized single-pair path,
/// [`OdMatrix::estimate`] and a matrix rebuilt off the wire all answer
/// through it, so they agree bit for bit by construction.
///
/// Two uploads with a `U_c` give [`PairEstimate::Measured`] (saturated
/// counts clamped), oriented by [`first_plays_x`]. Otherwise the answer
/// is [`PairEstimate::Degraded`], bracketing the overlap with the
/// feasible interval `[0, min(n̄_x, n̄_y)]`: an upload contributes its
/// counter, a history side its EWMA average. Two uploads without a
/// `U_c` (sizes the kernel rejected as not nested) still bound the
/// overlap by their counters, so they degrade rather than fail.
///
/// Returns [`SimError::MissingUpload`] only when a side in the degraded
/// arm has neither an upload nor any volume history.
pub(crate) fn pair_answer(
    s: usize,
    (rsu_a, a): (RsuId, RsuSide),
    (rsu_b, b): (RsuId, RsuSide),
    u_c: Option<usize>,
) -> Result<PairEstimate, SimError> {
    if let (
        RsuSide::Upload {
            m: m_a,
            zeros: u_a,
            counter: n_a,
        },
        RsuSide::Upload {
            m: m_b,
            zeros: u_b,
            counter: n_b,
        },
    ) = (a, b)
    {
        let measured = u_c.and_then(|u_c| {
            let counts = if first_plays_x(m_a, n_a, rsu_a, m_b, n_b, rsu_b) {
                PairCounts {
                    m_x: m_a,
                    m_y: m_b,
                    u_x: u_a,
                    u_y: u_b,
                    u_c,
                    n_x: n_a,
                    n_y: n_b,
                }
            } else {
                PairCounts {
                    m_x: m_b,
                    m_y: m_a,
                    u_x: u_b,
                    u_y: u_a,
                    u_c,
                    n_x: n_b,
                    n_y: n_a,
                }
            };
            estimate_from_counts_or_clamp(&counts, s).ok()
        });
        return Ok(match measured {
            Some(e) => PairEstimate::Measured(e),
            None => PairEstimate::Degraded(DegradedEstimate::from_volumes(
                n_a as f64, n_b as f64, false, false,
            )),
        });
    }
    let volume = |rsu: RsuId, side: RsuSide| match side {
        RsuSide::Upload { counter, .. } => Ok(counter as f64),
        RsuSide::History(average) => average.ok_or(SimError::MissingUpload { rsu }),
    };
    let (va, vb) = (volume(rsu_a, a)?, volume(rsu_b, b)?);
    Ok(PairEstimate::Degraded(DegradedEstimate::from_volumes(
        va,
        vb,
        !a.is_upload(),
        !b.is_upload(),
    )))
}

/// Pair count below which the all-pairs decoder estimates the triangle's
/// work before fanning out (estimating costs one selector evaluation per
/// pair, so it is itself skipped for big triangles, which always
/// parallelize).
const OD_ESTIMATE_PAIR_LIMIT: usize = 4096;

/// Estimated triangle work, in kernel-cost word-units, below which
/// [`crate::ShardedServer::od_matrix_threads`] runs sequentially instead
/// of dispatching the worker pool. Calibrated on the reference box
/// against the pool's measured dispatch+rendezvous cost (tens of µs): an
/// 8-RSU triangle at any load factor lands well below this threshold —
/// fixing the historical 2/4-thread regression on small matrices — while
/// a 24-RSU triangle at moderate load clears it.
const OD_SEQUENTIAL_COST_LIMIT: usize = 400_000;

/// Fixed per-pair overhead (orientation, selection, estimator
/// arithmetic, result push) in the same word-units, added on top of the
/// selected kernel's modeled cost when estimating triangle work.
const OD_PAIR_OVERHEAD: usize = 600;

/// At most this many pairs are cost-modeled when estimating a
/// triangle's work; larger triangles are sampled at an even stride and
/// the sum extrapolated. The estimate only gates a threshold decision,
/// so sampling error is harmless — but the loop runs *immediately
/// before* the decode it is sizing, and keeping it tiny matters beyond
/// its own runtime: a few hundred branchy selector evaluations measured
/// ~12 µs of slowdown on the following 24-RSU decode (front-end /
/// branch-predictor pollution), an order of magnitude more than the
/// loop itself.
const OD_ESTIMATE_SAMPLES: usize = 64;

/// Decides the effective thread count for an all-pairs decode: requested
/// threads, unless the triangle's estimated work is too small to repay a
/// pool dispatch, in which case 1 (the inline path).
pub(crate) fn od_effective_threads(
    threads: usize,
    pre: &[RsuDecodeRef<'_>],
    pair_count: usize,
) -> usize {
    if threads <= 1 {
        return threads;
    }
    if pair_count >= OD_ESTIMATE_PAIR_LIMIT {
        return threads;
    }
    // Hoist each RSU's (array length, index-list length) out of its
    // upload once: the sampled pair loop below must stay pure
    // arithmetic over this dense vector — chasing the upload references
    // per pair costs more than the decode it is trying to avoid
    // estimating.
    let sides: Vec<Option<(usize, Option<usize>)>> = pre
        .iter()
        .map(|d| d.upload.map(|u| (u.bits.len(), d.ones.map(<[u64]>::len))))
        .collect();
    let stride = pair_count.div_ceil(OD_ESTIMATE_SAMPLES).max(1);
    let mut cost = 0usize;
    let mut k = 0usize;
    for (i, a) in sides.iter().enumerate() {
        for b in &sides[i + 1..] {
            let sampled = k.is_multiple_of(stride);
            k += 1;
            if !sampled {
                continue;
            }
            cost += OD_PAIR_OVERHEAD;
            if let (Some((la, oa)), Some((lb, ob))) = (a, b) {
                // Orient by size like the decoder (only the cost matters
                // here, so counter tie-breaks are irrelevant).
                let ((m_x, ones_x), (m_y, ones_y)) = if la <= lb {
                    ((*la, *oa), (*lb, *ob))
                } else {
                    ((*lb, *ob), (*la, *oa))
                };
                cost += select_pair_kernel_with_cost(m_x, ones_x, m_y, ones_y).1;
            }
            // Each sampled pair stands for `stride` real ones.
            if cost.saturating_mul(stride) >= OD_SEQUENTIAL_COST_LIMIT {
                return threads;
            }
        }
    }
    if cost.saturating_mul(stride) >= OD_SEQUENTIAL_COST_LIMIT {
        return threads;
    }
    1
}

/// O–D triangle blocks per worker thread: enough that the pool's range
/// claiming can even out rows of uneven decode cost, few enough that
/// per-block setup (a slot vector, a tally, two clock reads) stays
/// negligible next to thousands of pair decodes.
pub(crate) const OD_BLOCKS_PER_THREAD: usize = 8;

/// A contiguous run of the O–D triangle: `len` pairs in row-major
/// `(i, j)`, `i < j` order, starting at `(i, j)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TriangleBlock {
    pub(crate) i: usize,
    pub(crate) j: usize,
    pub(crate) len: usize,
}

/// Splits the triangle of an `n`-RSU matrix into at most `blocks`
/// contiguous runs of near-equal pair counts, in triangle order (empty
/// when there are no pairs).
pub(crate) fn triangle_blocks(n: usize, blocks: usize) -> Vec<TriangleBlock> {
    let total = n * n.saturating_sub(1) / 2;
    if total == 0 {
        return Vec::new();
    }
    let blocks = blocks.clamp(1, total);
    let (mut i, mut j) = (0, 1);
    let mut out = Vec::with_capacity(blocks);
    for b in 0..blocks {
        let len = (b + 1) * total / blocks - b * total / blocks;
        out.push(TriangleBlock { i, j, len });
        let mut left = len;
        while left > 0 {
            let in_row = n - j;
            if left < in_row {
                j += left;
                left = 0;
            } else {
                left -= in_row;
                i += 1;
                j = i + 1;
            }
        }
    }
    out
}

/// What one O–D worker block observed about its decodes: pairs decoded
/// per kernel (indexed by `PairKernel as usize`) and a histogram of
/// per-pair decode nanoseconds (each block's mean, weighted by its
/// decode count; see [`record_block`](Self::record_block)). Workers
/// fill their own tally in plain memory; the caller folds the tallies
/// after the join and records each metric once, so workers share no
/// metric cache line.
#[derive(Debug, Default)]
pub(crate) struct DecodeTally {
    pub(crate) kernels: [u64; 4],
    pub(crate) ns: HistogramSnapshot,
}

impl DecodeTally {
    /// Folds `other` in (kernel counts add, histograms merge).
    pub(crate) fn merge(&mut self, other: &DecodeTally) {
        for (mine, theirs) in self.kernels.iter_mut().zip(&other.kernels) {
            *mine += theirs;
        }
        self.ns.merge(&other.ns);
    }

    /// Records a block that decoded `decoded` pairs in `ns` wall-clock
    /// nanoseconds as `decoded` samples of the per-pair mean. The
    /// remainder goes to `ns % decoded` samples one nanosecond above
    /// the mean, so the histogram's count is the decode count and its
    /// sum the block's wall time, both exactly.
    pub(crate) fn record_block(&mut self, ns: u64, decoded: u64) {
        if decoded == 0 {
            return;
        }
        let (mean, rest) = (ns / decoded, ns % decoded);
        self.ns.record_n(mean, decoded - rest);
        if rest > 0 {
            self.ns.record_n(mean + 1, rest);
        }
    }
}

/// A `U_c` slot of an [`OdMatrix`] triangle: `NONE` marks a pair with
/// no decoded overlap.
pub(crate) trait Slot: Copy + Send {
    const NONE: Self;
    /// The slot holding `u_c`; the caller picked a width that holds
    /// every `U_c` below `NONE` ([`OverlapSlots::needs_wide`]).
    fn of(u_c: usize) -> Self;
}

impl Slot for u32 {
    const NONE: Self = u32::MAX;
    fn of(u_c: usize) -> Self {
        debug_assert!(u_c < u32::MAX as usize);
        u_c as u32
    }
}

impl Slot for u64 {
    const NONE: Self = u64::MAX;
    fn of(u_c: usize) -> Self {
        u_c as u64
    }
}

/// How the server classified one incoming upload relative to what it
/// already holds (see [`crate::ShardedServer::receive`] and
/// [`crate::ShardedServer::receive_sequenced`]).
///
/// Lossy links make re-sends routine (the RSU retries whenever an ack is
/// lost), so the server must distinguish a benign duplicate from an RSU
/// that changed its story mid-period — silently taking the last write
/// would hide both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReceiveOutcome {
    /// First upload from this RSU (or a newer sequence number): stored.
    Fresh,
    /// Byte-identical to the stored upload: discarded idempotently.
    Duplicate,
    /// Same RSU (and sequence number) but *different* content — a
    /// corrupted frame that still parsed, or an equivocating RSU. The
    /// newer content replaces the old so behavior stays last-write-wins,
    /// but the caller is told.
    Conflicting,
    /// Sequence number at or below one already folded into history (a
    /// straggler from an earlier period): ignored entirely.
    Stale,
}

/// The upper triangle of an [`OdMatrix`]'s per-pair `U_c` (zero count
/// of the combined array, paper Eq. 4), row-major over `(i, j)`,
/// `i < j`. The all-ones value of each width marks a pair with no
/// decoded overlap: a side without a decodable upload, or sizes the
/// kernel rejected as not nested.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OverlapSlots {
    /// 4-byte slots, `u32::MAX` = none. Used whenever every decodable
    /// array is below `u32::MAX` bits, so every `U_c` fits under the
    /// sentinel.
    Narrow(Vec<u32>),
    /// 8-byte slots, `u64::MAX` = none: some decodable array has at
    /// least `u32::MAX` bits (the protocol admits up to `2^32`).
    Wide(Vec<u64>),
}

impl OverlapSlots {
    /// `true` if `sides` need [`OverlapSlots::Wide`]: some decodable
    /// array is too large for a `U_c` to stay below the `u32` sentinel.
    #[must_use]
    pub fn needs_wide(sides: &[RsuSide]) -> bool {
        sides
            .iter()
            .any(|side| matches!(*side, RsuSide::Upload { m, .. } if m >= u32::MAX as usize))
    }

    /// Number of slots (pairs).
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            OverlapSlots::Narrow(v) => v.len(),
            OverlapSlots::Wide(v) => v.len(),
        }
    }

    /// `true` if there are no pairs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes per slot: 4 or 8.
    #[must_use]
    pub fn width(&self) -> usize {
        match self {
            OverlapSlots::Narrow(_) => 4,
            OverlapSlots::Wide(_) => 8,
        }
    }

    /// The `U_c` in slot `k`, `None` for the sentinel.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not below [`len`](Self::len).
    #[must_use]
    pub fn get(&self, k: usize) -> Option<usize> {
        match self {
            OverlapSlots::Narrow(v) => (v[k] != u32::MAX).then(|| v[k] as usize),
            OverlapSlots::Wide(v) => (v[k] != u64::MAX).then(|| v[k] as usize),
        }
    }
}

/// Index of pair `(i, j)`, `i < j`, in a row-major upper triangle over
/// `n` RSUs.
fn triangle_index(n: usize, i: usize, j: usize) -> usize {
    i * n - i * (i + 1) / 2 + (j - i - 1)
}

/// One period's origin–destination matrix over every RSU the server
/// knows about (uploads and volume history), produced by
/// [`crate::ShardedServer::od_matrix`].
///
/// It holds the sufficient statistics, not the answers: the sorted RSU
/// axis, the scheme's `s`, one [`RsuSide`] per RSU and one `U_c` slot
/// per unordered pair ([`OverlapSlots`]) — 4 bytes per pair instead of
/// two 72-byte [`PairEstimate`]s. [`estimate`](Self::estimate) answers a
/// pair by value through the same function as
/// [`crate::ShardedServer::estimate_or_degraded`], so the two agree bit
/// for bit. The borrowing accessors ([`at`](Self::at),
/// [`get`](Self::get), [`iter_pairs`](Self::iter_pairs)) read a full
/// `len × len` square of answers, built once on first use and kept; the
/// daemon only encodes the statistics and never builds it.
///
/// The diagonal is `None` (an RSU's "overlap with itself" is just its
/// counter, not an O–D flow); `(j, i)` is `(i, j)` with the argument
/// roles swapped ([`PairEstimate::transposed`]).
#[derive(Clone, Serialize, Deserialize)]
pub struct OdMatrix {
    rsus: Vec<RsuId>,
    s: usize,
    sides: Vec<RsuSide>,
    slots: OverlapSlots,
    square: OnceLock<Vec<Option<PairEstimate>>>,
}

impl PartialEq for OdMatrix {
    /// Equal statistics; whether a square has been built is not compared.
    fn eq(&self, other: &Self) -> bool {
        self.rsus == other.rsus
            && self.s == other.s
            && self.sides == other.sides
            && self.slots == other.slots
    }
}

impl std::fmt::Debug for OdMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OdMatrix")
            .field("rsus", &self.rsus)
            .field("s", &self.s)
            .field("sides", &self.sides)
            .field("slots", &self.slots)
            .finish_non_exhaustive()
    }
}

impl OdMatrix {
    /// A matrix from statistics the server decoded itself, which hold
    /// [`from_parts`](Self::from_parts)'s invariants by construction.
    pub(crate) fn from_decoded(
        rsus: Vec<RsuId>,
        s: usize,
        sides: Vec<RsuSide>,
        slots: OverlapSlots,
    ) -> Self {
        debug_assert_eq!(sides.len(), rsus.len());
        debug_assert_eq!(slots.len(), rsus.len() * rsus.len().saturating_sub(1) / 2);
        Self {
            rsus,
            s,
            sides,
            slots,
            square: OnceLock::new(),
        }
    }

    /// Rebuilds a matrix from its statistics — the RSU axis, `s`, one
    /// side per RSU and the `U_c` triangle — as read off the wire,
    /// checking everything a pair answer relies on.
    ///
    /// # Errors
    ///
    /// [`SimError::MalformedMessage`] if `s` is 0; the RSU ids are not
    /// strictly ascending; the side or slot counts do not match the
    /// axis; an upload side has `m < 2` or `zeros > m`; a history
    /// average is negative or not finite; a side has neither upload nor
    /// history while some pair needs it (two or more RSUs); `Narrow`
    /// slots carry an array of `u32::MAX` bits or more; or a slot holds
    /// a `U_c` for a pair without two uploads, or one above the larger
    /// array's size.
    pub fn from_parts(
        rsus: Vec<RsuId>,
        s: usize,
        sides: Vec<RsuSide>,
        slots: OverlapSlots,
    ) -> Result<Self, SimError> {
        let malformed = |reason| Err(SimError::MalformedMessage { reason });
        let n = rsus.len();
        if s == 0 {
            return malformed("O–D matrix with s = 0");
        }
        if rsus.windows(2).any(|w| w[0] >= w[1]) {
            return malformed("O–D matrix RSU ids not strictly ascending");
        }
        if sides.len() != n || slots.len() != n * n.saturating_sub(1) / 2 {
            return malformed("O–D matrix part counts do not match its axis");
        }
        for side in &sides {
            match *side {
                RsuSide::Upload { m, zeros, .. } if m < 2 || zeros > m => {
                    return malformed("O–D matrix side with m < 2 or zeros > m");
                }
                RsuSide::History(Some(average)) if !(average.is_finite() && average >= 0.0) => {
                    return malformed("O–D matrix side with an invalid history average");
                }
                RsuSide::History(None) if n >= 2 => {
                    return malformed("O–D matrix side with neither upload nor history");
                }
                _ => {}
            }
        }
        if matches!(slots, OverlapSlots::Narrow(_)) && OverlapSlots::needs_wide(&sides) {
            return malformed("O–D matrix narrow slots for an array of 2^32 bits");
        }
        let mut k = 0;
        for (i, a) in sides.iter().enumerate() {
            for b in &sides[i + 1..] {
                if let Some(u_c) = slots.get(k) {
                    let (RsuSide::Upload { m: m_a, .. }, RsuSide::Upload { m: m_b, .. }) = (a, b)
                    else {
                        return malformed("O–D matrix overlap slot for a pair without two uploads");
                    };
                    if u_c > *m_a.max(m_b) {
                        return malformed("O–D matrix overlap slot above the larger array size");
                    }
                }
                k += 1;
            }
        }
        Ok(Self::from_decoded(rsus, s, sides, slots))
    }

    /// The RSUs covered, in ascending id order (the matrix axes).
    #[must_use]
    pub fn rsus(&self) -> &[RsuId] {
        &self.rsus
    }

    /// The scheme's `s` the answers are decoded with.
    #[must_use]
    pub fn s(&self) -> usize {
        self.s
    }

    /// Each RSU's side, aligned with [`rsus`](Self::rsus).
    #[must_use]
    pub fn sides(&self) -> &[RsuSide] {
        &self.sides
    }

    /// The `U_c` triangle.
    #[must_use]
    pub fn slots(&self) -> &OverlapSlots {
        &self.slots
    }

    /// Number of RSUs covered (the matrix is `len × len`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.rsus.len()
    }

    /// `true` if the server knew no RSUs at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rsus.is_empty()
    }

    /// The answer at row `i`, column `j`, computed from the statistics
    /// (`None` on the diagonal). Builds no square.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is not below [`len`](OdMatrix::len).
    #[must_use]
    pub fn estimate(&self, i: usize, j: usize) -> Option<PairEstimate> {
        let n = self.len();
        assert!(i < n && j < n, "index out of range");
        if i == j {
            return None;
        }
        let k = triangle_index(n, i.min(j), i.max(j));
        let answer = pair_answer(
            self.s,
            (self.rsus[i], self.sides[i]),
            (self.rsus[j], self.sides[j]),
            self.slots.get(k),
        );
        Some(answer.expect("every side of a multi-RSU matrix has an upload or history"))
    }

    /// [`estimate`](Self::estimate) by RSU id, `None` if either RSU is
    /// not covered or `a == b`. Builds no square.
    #[must_use]
    pub fn estimate_for(&self, a: RsuId, b: RsuId) -> Option<PairEstimate> {
        let i = self.rsus.binary_search(&a).ok()?;
        let j = self.rsus.binary_search(&b).ok()?;
        self.estimate(i, j)
    }

    /// The full square of answers, built on first use.
    fn square(&self) -> &[Option<PairEstimate>] {
        self.square.get_or_init(|| {
            let n = self.len();
            let mut entries = vec![None; n * n];
            for i in 0..n {
                for j in i + 1..n {
                    let estimate = self.estimate(i, j);
                    entries[j * n + i] = estimate.as_ref().map(PairEstimate::transposed);
                    entries[i * n + j] = estimate;
                }
            }
            entries
        })
    }

    /// The estimate at row `i`, column `j` of the matrix (`None` on the
    /// diagonal), borrowed from the square (built on first use; prefer
    /// [`estimate`](Self::estimate) for a few pairs).
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is not below [`len`](OdMatrix::len).
    #[must_use]
    pub fn at(&self, i: usize, j: usize) -> Option<&PairEstimate> {
        assert!(i < self.len() && j < self.len(), "index out of range");
        self.square()[i * self.len() + j].as_ref()
    }

    /// The estimate for an RSU pair by id, `None` if either RSU is not
    /// covered or `a == b` (borrowed from the square, like
    /// [`at`](Self::at)).
    #[must_use]
    pub fn get(&self, a: RsuId, b: RsuId) -> Option<&PairEstimate> {
        let i = self.rsus.binary_search(&a).ok()?;
        let j = self.rsus.binary_search(&b).ok()?;
        self.at(i, j)
    }

    /// Iterates the upper triangle: every unordered pair once, as
    /// `(origin, destination, estimate)` with `origin < destination`
    /// (borrowed from the square, like [`at`](Self::at)).
    pub fn iter_pairs(&self) -> impl Iterator<Item = (RsuId, RsuId, &PairEstimate)> {
        let n = self.rsus.len();
        let square = self.square();
        (0..n).flat_map(move |i| {
            (i + 1..n).filter_map(move |j| {
                square[i * n + j]
                    .as_ref()
                    .map(|e| (self.rsus[i], self.rsus[j], e))
            })
        })
    }
}

/// One shard's state: the RSUs [`crate::shard_for`] assigns to it.
///
/// `sparse_ones` caches the sorted set-bit index list of every upload
/// still under the densify threshold
/// ([`vcps_bitarray::sparse_is_profitable`]), extracted once at receive
/// time and shared by all `N−1` pair decodes that touch the RSU. An
/// entry is re-derived whenever a new upload replaces its RSU's data and
/// everything is cleared by [`finish_period`](Self::finish_period), so
/// the cache never outlives the uploads it came from.
#[derive(Debug, Clone)]
pub(crate) struct Shard {
    history: VolumeHistory,
    uploads: BTreeMap<RsuId, PeriodUpload>,
    /// Highest sequence number accepted per RSU (survives
    /// [`finish_period`](Self::finish_period) so stragglers from closed
    /// periods are recognized as stale).
    upload_seqs: BTreeMap<RsuId, u64>,
    sparse_ones: BTreeMap<RsuId, Vec<u64>>,
}

impl Shard {
    /// An empty shard; `history_alpha` is the EWMA smoothing factor for
    /// volume history.
    ///
    /// Returns [`SimError::Core`] if `history_alpha` is outside `(0, 1]`
    /// (NaN included).
    pub(crate) fn new(history_alpha: f64) -> Result<Self, SimError> {
        if !(history_alpha > 0.0 && history_alpha <= 1.0) {
            return Err(SimError::Core(CoreError::InvalidConfig {
                parameter: "history_alpha",
                reason: format!("must be in (0, 1], got {history_alpha}"),
            }));
        }
        Ok(Self {
            history: VolumeHistory::new(history_alpha),
            uploads: BTreeMap::new(),
            upload_seqs: BTreeMap::new(),
            sparse_ones: BTreeMap::new(),
        })
    }

    pub(crate) fn history(&self) -> &VolumeHistory {
        &self.history
    }

    pub(crate) fn seed_history(&mut self, rsu: RsuId, average: f64) {
        self.history.seed(rsu, average);
    }

    pub(crate) fn upload_count(&self) -> usize {
        self.uploads.len()
    }

    pub(crate) fn upload(&self, rsu: RsuId) -> Option<&PeriodUpload> {
        self.uploads.get(&rsu)
    }

    /// The RSUs with an upload currently held, in ascending id order.
    pub(crate) fn upload_rsus(&self) -> impl Iterator<Item = RsuId> + '_ {
        self.uploads.keys().copied()
    }

    /// Stores an unsequenced upload: [`ReceiveOutcome::Fresh`] (first),
    /// `Duplicate` (identical re-send, discarded), or `Conflicting`
    /// (different content — replaces the stored upload, but flagged).
    pub(crate) fn receive(&mut self, upload: PeriodUpload) -> ReceiveOutcome {
        let outcome = match self.uploads.get(&upload.rsu) {
            None => ReceiveOutcome::Fresh,
            Some(prev) if *prev == upload => return ReceiveOutcome::Duplicate,
            Some(_) => ReceiveOutcome::Conflicting,
        };
        self.store(upload);
        outcome
    }

    /// Stores a sequence-numbered upload. Sequence numbers are per-RSU
    /// and monotone across periods, which tells a harmless
    /// retransmission (`Duplicate`) from a straggler of an
    /// already-closed period (`Stale`) — the latter must not resurrect
    /// as the *current* period's data.
    pub(crate) fn receive_sequenced(&mut self, sequenced: SequencedUpload) -> ReceiveOutcome {
        let SequencedUpload { seq, upload } = sequenced;
        self.receive_sequenced_with(upload.rsu, seq, upload, |u, prev| u == prev, |u| u)
    }

    /// [`receive_sequenced`](Self::receive_sequenced) over a borrowed
    /// wire view (DESIGN.md §18): stale and duplicate frames are
    /// classified without materializing anything, and only a fresh or
    /// conflicting frame pays
    /// [`crate::protocol::PeriodUploadRef::to_owned_upload`].
    pub(crate) fn receive_sequenced_ref(
        &mut self,
        frame: &SequencedUploadRef<'_>,
    ) -> ReceiveOutcome {
        self.receive_sequenced_with(
            frame.upload().rsu(),
            frame.seq(),
            frame.upload(),
            |u, prev| u.matches(prev),
            |u| u.to_owned_upload(),
        )
    }

    /// The one Stale/Duplicate/Conflicting/Fresh ladder behind both
    /// sequenced receives: `same` compares the frame's upload with the
    /// one held, `own` materializes it — called only when the upload is
    /// actually retained.
    fn receive_sequenced_with<U>(
        &mut self,
        rsu: RsuId,
        seq: u64,
        upload: U,
        same: impl FnOnce(&U, &PeriodUpload) -> bool,
        own: impl FnOnce(U) -> PeriodUpload,
    ) -> ReceiveOutcome {
        let outcome = match self.upload_seqs.get(&rsu).copied() {
            Some(seen) if seq < seen => ReceiveOutcome::Stale,
            Some(seen) if seq == seen => match self.uploads.get(&rsu) {
                // Same sequence but the period already closed: the upload
                // was folded into history, so a re-send carries nothing.
                None => ReceiveOutcome::Stale,
                Some(prev) if same(&upload, prev) => ReceiveOutcome::Duplicate,
                Some(_) => ReceiveOutcome::Conflicting,
            },
            _ => ReceiveOutcome::Fresh,
        };
        if matches!(outcome, ReceiveOutcome::Fresh | ReceiveOutcome::Conflicting) {
            self.upload_seqs.insert(rsu, seq);
            self.store(own(upload));
        }
        outcome
    }

    /// Retains `upload` as its RSU's current data and re-derives (or
    /// drops) the RSU's sparse index list.
    fn store(&mut self, upload: PeriodUpload) {
        let rsu = upload.rsu;
        if sparse_is_profitable(upload.bits.len(), upload.bits.count_ones()) {
            self.sparse_ones
                .insert(rsu, upload.bits.ones().map(|i| i as u64).collect());
        } else {
            self.sparse_ones.remove(&rsu);
        }
        self.uploads.insert(rsu, upload);
    }

    /// The shard's durable state — history, accepted sequence numbers,
    /// and the open period's uploads; the sparse cache is derived and
    /// rebuilt by [`restore_from_checkpoint`](Self::restore_from_checkpoint).
    pub(crate) fn checkpoint(&self) -> ServerCheckpoint {
        ServerCheckpoint {
            alpha: self.history.alpha(),
            history: self.history.iter().collect(),
            seqs: self.upload_seqs.iter().map(|(&r, &s)| (r, s)).collect(),
            uploads: self.uploads.values().cloned().collect(),
        }
    }

    /// Rebuilds a shard from its [`ServerCheckpoint`].
    ///
    /// Returns [`SimError::Core`] if the checkpoint's alpha is outside
    /// `(0, 1]` (possible only for hand-built checkpoints — the wire
    /// decoder already rejects it).
    pub(crate) fn restore_from_checkpoint(checkpoint: &ServerCheckpoint) -> Result<Self, SimError> {
        let mut shard = Self::new(checkpoint.alpha)?;
        for &(rsu, avg) in &checkpoint.history {
            shard.history.seed(rsu, avg);
        }
        shard.upload_seqs.extend(checkpoint.seqs.iter().copied());
        for upload in &checkpoint.uploads {
            shard.store(upload.clone());
        }
        Ok(shard)
    }

    /// Snapshots everything a pair decode needs about one RSU — upload
    /// reference, cached sparse index list, history — so the all-pairs
    /// loop resolves each RSU's maps *once* instead of paying ~6
    /// `BTreeMap` lookups per pair (the dominant per-pair cost on sparse
    /// workloads).
    pub(crate) fn prefetch_decode_ref(&self, rsu: RsuId) -> RsuDecodeRef<'_> {
        RsuDecodeRef {
            rsu,
            history: &self.history,
            upload: self.uploads.get(&rsu),
            ones: self.sparse_ones.get(&rsu).map(Vec::as_slice),
        }
    }

    /// Ends the period: folds every upload's counter into the volume
    /// history, clears the uploads and the sparse cache derived from
    /// them, and returns the array size each of the shard's RSUs should
    /// use next period. Sequence numbers survive, so stragglers from the
    /// closed period are still recognized as stale.
    ///
    /// Returns [`SimError::Core`] if a size computation fails.
    pub(crate) fn finish_period(
        &mut self,
        scheme: &Scheme,
    ) -> Result<BTreeMap<RsuId, usize>, SimError> {
        for (&rsu, upload) in &self.uploads {
            self.history.update(rsu, upload.counter as f64);
        }
        let mut sizes = BTreeMap::new();
        for (rsu, average) in self.history.iter() {
            sizes.insert(rsu, scheme.array_size_for(average)?);
        }
        self.uploads.clear();
        self.sparse_ones.clear();
        Ok(sizes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrays_of_2_pow_32_bits_need_wide_slots() {
        let sides = vec![
            RsuSide::Upload {
                m: 1 << 16,
                zeros: 1 << 15,
                counter: 9,
            },
            RsuSide::Upload {
                m: 1 << 32,
                zeros: (1 << 32) - 3,
                counter: 2,
            },
        ];
        assert!(OverlapSlots::needs_wide(&sides));
        assert!(!OverlapSlots::needs_wide(&sides[..1]));
        let rsus = vec![RsuId(1), RsuId(2)];
        // A U_c of u32::MAX or more is legal here; 4-byte slots could
        // not tell it from the sentinel.
        let u_c: u64 = (1 << 32) - 1;
        assert_eq!(
            OdMatrix::from_parts(
                rsus.clone(),
                2,
                sides.clone(),
                OverlapSlots::Narrow(vec![7])
            ),
            Err(SimError::MalformedMessage {
                reason: "O–D matrix narrow slots for an array of 2^32 bits"
            })
        );
        let matrix = OdMatrix::from_parts(rsus, 2, sides, OverlapSlots::Wide(vec![u_c]))
            .expect("wide slots hold every U_c");
        match matrix.estimate(1, 0) {
            Some(PairEstimate::Measured(e)) => {
                assert_eq!(e.m_y, 1 << 32);
                assert_eq!(e.v_c, u_c as f64 / (1u64 << 32) as f64);
            }
            other => panic!("expected a measured answer, got {other:?}"),
        }
        assert_eq!(matrix.at(1, 0), matrix.estimate(1, 0).as_ref());
    }

    #[test]
    fn record_block_keeps_count_and_sum_exact() {
        let mut tally = DecodeTally::default();
        tally.record_block(1_003, 10);
        tally.record_block(5, 0);
        assert_eq!(tally.ns.count, 10);
        assert_eq!(tally.ns.sum, 1_003);
    }

    #[test]
    fn triangle_blocks_cover_every_pair_once_in_order() {
        for n in [0usize, 1, 2, 3, 7, 24, 100] {
            let total = n * n.saturating_sub(1) / 2;
            let expected: Vec<(usize, usize)> = (0..n)
                .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
                .collect();
            for blocks in [1usize, 2, 5, 16, 64, 10_000] {
                let cut = triangle_blocks(n, blocks);
                assert!(cut.len() <= blocks.max(1));
                let lens: Vec<usize> = cut.iter().map(|b| b.len).collect();
                if let (Some(lo), Some(hi)) = (lens.iter().min(), lens.iter().max()) {
                    assert!(hi - lo <= 1, "n={n} blocks={blocks}: {lens:?}");
                }
                let mut walked = Vec::with_capacity(total);
                for b in cut {
                    let (mut i, mut j) = (b.i, b.j);
                    for _ in 0..b.len {
                        walked.push((i, j));
                        j += 1;
                        if j == n {
                            i += 1;
                            j = i + 1;
                        }
                    }
                }
                assert_eq!(walked, expected, "n={n} blocks={blocks}");
            }
        }
    }
}
