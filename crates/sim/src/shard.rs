//! The server (paper §II-A, §IV-C): [`ShardedServer`] partitions RSUs
//! across `K` independent shards by a stable hash of the RSU id, so
//! receive-side state (dedup sequence numbers, uploads, sparse index
//! caches) never needs cross-shard coordination — two uploads race only
//! if they are for the same RSU, and same-RSU uploads always land on the
//! same shard. With `K = 1` it is the paper's single central server;
//! every other shard count answers bit-identically to it.
//!
//! The read side composes shards without copying: a pair query
//! prefetches each side's upload, sparse index list and history from
//! its owning shard and runs the one decode over those references,
//! wherever the two RSUs live. The differential conformance suite
//! (`tests/sharded_differential.rs`) verifies shard-count invariance end
//! to end for estimates, O–D matrices, and registry counters at every
//! shard/thread count, with and without injected faults, and checks
//! every measured pair against the dense Eq. 5 over the held uploads.
//!
//! Instrumentation goes through one handle on the composite; beyond the
//! receive, kernel and phase series it adds its own `shard.*` /
//! `batch.*` counters and the `shard.count` gauge, which the
//! differential suite strips before comparing shard counts. Per-upload
//! and per-pair counters go through handles resolved once per attached
//! handle, and the O–D fan-out tallies per worker and records once per
//! matrix (DESIGN.md §14).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::RwLock;
use std::time::Instant;

use vcps_bitarray::PairKernel;
use vcps_core::estimator::{
    estimate_from_counts, estimate_from_counts_or_clamp, Estimate, PairCounts,
};
use vcps_core::{CoreError, PairEstimate, RsuId, Scheme};
use vcps_hash::splitmix64;
use vcps_obs::{CounterHandle, Level, Obs, Phase};

use crate::protocol::{
    BatchUploadRef, CheckpointSet, PeriodUpload, SequencedUpload, SequencedUploadRef,
    UploadFrameRef,
};
use crate::server::{
    od_effective_threads, pair_answer, triangle_blocks, with_thread_scratch, DecodeTally,
    OrientedPair, RsuDecodeRef, RsuSide, Shard, Slot, TriangleBlock, OD_BLOCKS_PER_THREAD,
};
use crate::{OdMatrix, OverlapSlots, ReceiveOutcome, SimError};

/// Stable shard assignment: which of `shard_count` shards owns `rsu`.
///
/// A free function so the engine, experiments, and tests can predict
/// placement without a server instance. [`splitmix64`] scrambles the id
/// first, so dense id ranges (RSU 1..=N, the common case) spread evenly
/// instead of striping.
#[must_use]
pub fn shard_for(rsu: RsuId, shard_count: usize) -> usize {
    assert!(shard_count > 0, "shard_count must be positive");
    (splitmix64(rsu.0) % shard_count as u64) as usize
}

/// The composite's per-upload and per-pair counters, resolved from the
/// attached [`Obs`] once (each on first use) instead of by name on
/// every update. The default is the disabled set.
#[derive(Debug, Clone, Default)]
struct ServerMetrics {
    routed: CounterHandle,
    /// `server.receive.*`, in [`ReceiveOutcome`] declaration order.
    outcomes: [CounterHandle; 4],
    /// `kernel.*`, indexed by `PairKernel as usize`.
    kernels: [CounterHandle; 4],
    local_pair: CounterHandle,
    cross_pair: CounterHandle,
    batch_frames: CounterHandle,
    batch_uploads: CounterHandle,
}

impl ServerMetrics {
    fn new(obs: &Obs) -> Self {
        Self {
            routed: obs.counter("shard.routed"),
            outcomes: [
                "server.receive.fresh",
                "server.receive.duplicate",
                "server.receive.conflicting",
                "server.receive.stale",
            ]
            .map(|name| obs.counter(name)),
            kernels: PairKernel::ALL.map(|k| obs.counter(kernel_metric(k))),
            local_pair: obs.counter("shard.local_pair"),
            cross_pair: obs.counter("shard.cross_pair"),
            batch_frames: obs.counter("batch.frames"),
            batch_uploads: obs.counter("batch.uploads"),
        }
    }

    fn outcome(&self, outcome: ReceiveOutcome) -> &CounterHandle {
        &self.outcomes[outcome as usize]
    }
}

/// Registry name of a kernel's choice counter.
fn kernel_metric(kernel: PairKernel) -> &'static str {
    match kernel {
        PairKernel::Dense => "kernel.dense",
        PairKernel::SparseSparse => "kernel.sparse_sparse",
        PairKernel::SparseDense => "kernel.sparse_dense",
        PairKernel::DenseSparse => "kernel.dense_sparse",
    }
}

/// The central server, sharded over `K` hash buckets of RSU ids:
/// collects [`PeriodUpload`]s, answers point-to-point queries for
/// arbitrary RSU pairs, and at period end updates the per-RSU volume
/// history and recomputes next-period array sizes (the "first updates
/// the history average … then measures" loop of §IV-C). Answers never
/// depend on `K`; `K = 1` is the paper's monolithic server.
///
/// * **Writes** ([`receive_wire`], [`receive`], [`receive_sequenced`],
///   [`receive_parallel`]) route each upload to the owning shard; the
///   parallel form runs one worker per shard over disjoint `&mut`
///   shards, lock-free.
/// * **Reads** ([`estimate`], [`estimate_or_degraded`], [`od_matrix`])
///   borrow the owning shards' uploads and sparse index caches, plus a
///   pair memo so repeated queries are O(1) after first touch.
///
/// Under fault injection ([`crate::faults`]) the server deduplicates
/// re-sent uploads by sequence number and, when an RSU's upload never
/// arrives, degrades gracefully: [`estimate_or_degraded`] falls back to
/// the volume history and answers with an explicit
/// [`PairEstimate::Degraded`] instead of failing.
///
/// [`receive`]: ShardedServer::receive
/// [`receive_sequenced`]: ShardedServer::receive_sequenced
/// [`receive_wire`]: ShardedServer::receive_wire
/// [`receive_parallel`]: ShardedServer::receive_parallel
/// [`estimate`]: ShardedServer::estimate
/// [`estimate_or_degraded`]: ShardedServer::estimate_or_degraded
/// [`od_matrix`]: ShardedServer::od_matrix
///
/// # Example
///
/// ```
/// use vcps_bitarray::BitArray;
/// use vcps_core::{RsuId, Scheme};
/// use vcps_sim::{PeriodUpload, ShardedServer};
///
/// # fn main() -> Result<(), vcps_sim::SimError> {
/// let scheme = Scheme::variable(2, 3.0, 1)?;
/// let mut server = ShardedServer::new(scheme, 0.5, 4)?;
/// for rsu in 1..=2u64 {
///     server.receive(PeriodUpload {
///         rsu: RsuId(rsu),
///         counter: 4,
///         bits: BitArray::new(16),
///     });
/// }
/// assert!(server.estimate(RsuId(1), RsuId(2))?.n_c.is_finite());
/// let sizes = server.finish_period()?;
/// assert_eq!(sizes[&RsuId(1)], 16); // 4 vehicles × f̄ 3 → next power of two
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShardedServer {
    scheme: Scheme,
    shards: Vec<Shard>,
    /// The [`PairCounts`] of every pair already decoded this period,
    /// local and cross-shard alike. A pair's entry is dropped whenever
    /// either member RSU's data changes, and the memo is cleared at
    /// period end, so it never outlives the uploads it came from.
    pair_memo: RwLock<BTreeMap<(RsuId, RsuId), PairCounts>>,
    /// Observability handle; disabled unless [`set_obs`](Self::set_obs)
    /// was called.
    obs: Obs,
    /// Counter handles resolved from `obs`.
    metrics: ServerMetrics,
}

impl Clone for ShardedServer {
    fn clone(&self) -> Self {
        Self {
            scheme: self.scheme.clone(),
            shards: self.shards.clone(),
            pair_memo: RwLock::new(self.pair_memo.read().expect("pair memo poisoned").clone()),
            obs: self.obs.clone(),
            metrics: self.metrics.clone(),
        }
    }
}

impl ShardedServer {
    /// Creates a server sharded `shard_count` ways (1 for the
    /// monolithic server); `history_alpha` is the EWMA smoothing factor
    /// for volume history.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Core`] if `shard_count` is zero or
    /// `history_alpha` is outside `(0, 1]` (NaN included).
    pub fn new(scheme: Scheme, history_alpha: f64, shard_count: usize) -> Result<Self, SimError> {
        if shard_count == 0 {
            return Err(SimError::Core(CoreError::InvalidConfig {
                parameter: "shard_count",
                reason: "must be at least 1".to_string(),
            }));
        }
        let shards = (0..shard_count)
            .map(|_| Shard::new(history_alpha))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::from_shards(scheme, shards))
    }

    fn from_shards(scheme: Scheme, shards: Vec<Shard>) -> Self {
        Self {
            scheme,
            shards,
            pair_memo: RwLock::new(BTreeMap::new()),
            obs: Obs::disabled(),
            metrics: ServerMetrics::default(),
        }
    }

    /// Attaches an observability handle: receive outcomes, decode phase
    /// timings, and kernel selections are recorded through it from now
    /// on. Also publishes the topology as the `shard.count` gauge. The
    /// default handle is disabled ([`Obs::disabled`]), in which case
    /// every instrumentation point is a single pointer check.
    pub fn set_obs(&mut self, obs: Obs) {
        obs.gauge("shard.count", self.shards.len() as f64);
        self.metrics = ServerMetrics::new(&obs);
        self.obs = obs;
    }

    /// Builder-style [`set_obs`](Self::set_obs).
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.set_obs(obs);
        self
    }

    /// The attached observability handle.
    #[must_use]
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard owns `rsu` (see [`shard_for`]).
    #[must_use]
    pub fn shard_of(&self, rsu: RsuId) -> usize {
        shard_for(rsu, self.shards.len())
    }

    /// The scheme configuration.
    #[must_use]
    pub fn scheme(&self) -> &Scheme {
        &self.scheme
    }

    /// Seeds an RSU's historical average (e.g. from past traffic
    /// studies) before the first period.
    pub fn seed_history(&mut self, rsu: RsuId, average: f64) {
        let shard = self.shard_of(rsu);
        self.shards[shard].seed_history(rsu, average);
    }

    /// The EWMA smoothing factor every shard's history uses.
    pub(crate) fn history_alpha(&self) -> f64 {
        self.shards[0].history().alpha()
    }

    /// The historical average volume recorded for `rsu`, if any.
    #[must_use]
    pub fn history_average(&self, rsu: RsuId) -> Option<f64> {
        self.shards[self.shard_of(rsu)].history().average(rsu)
    }

    /// Total uploads currently held across all shards.
    #[must_use]
    pub fn upload_count(&self) -> usize {
        self.shards.iter().map(Shard::upload_count).sum()
    }

    /// The upload currently held for `rsu`, if any.
    #[must_use]
    pub fn upload(&self, rsu: RsuId) -> Option<&PeriodUpload> {
        self.shards[self.shard_of(rsu)].upload(rsu)
    }

    /// Captures every shard's durable state as a [`CheckpointSet`]
    /// covering `frames_applied` WAL records: per shard, history,
    /// accepted sequence numbers, and the open period's uploads. Derived
    /// state (sparse caches, the pair memo, the observability handle) is
    /// excluded. Shards appear in shard order, so the set restores under
    /// the same topology only — which is the point: the shard count is
    /// part of the deployment's identity.
    #[must_use]
    pub fn checkpoint(&self, frames_applied: u64) -> CheckpointSet {
        CheckpointSet {
            frames_applied,
            shards: self.shards.iter().map(Shard::checkpoint).collect(),
        }
    }

    /// Rebuilds a server from a [`CheckpointSet`] and the deployment's
    /// scheme (checkpoints deliberately do not carry the scheme: a
    /// snapshot is only meaningful to the deployment that wrote it).
    /// Sparse caches are re-derived from the restored uploads; the pair
    /// memo starts empty and the observability handle starts disabled,
    /// exactly as after [`ShardedServer::new`] — re-attach with
    /// [`set_obs`](Self::set_obs).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Core`] if the set holds no shards or a
    /// shard's alpha is outside `(0, 1]` (possible only for hand-built
    /// checkpoints — the wire decoder already rejects it).
    pub fn restore_from_checkpoint(scheme: Scheme, set: &CheckpointSet) -> Result<Self, SimError> {
        if set.shards.is_empty() {
            return Err(SimError::Core(CoreError::InvalidConfig {
                parameter: "shard_count",
                reason: "checkpoint set holds no shards".to_string(),
            }));
        }
        let shards = set
            .shards
            .iter()
            .map(Shard::restore_from_checkpoint)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::from_shards(scheme, shards))
    }

    /// Stores one RSU's period upload on its owning shard, reporting how
    /// it related to any upload already held for that RSU: [`Fresh`]
    /// (first), [`Duplicate`] (identical re-send, discarded), or
    /// [`Conflicting`] (different content — replaces the stored upload,
    /// but flagged).
    ///
    /// [`Fresh`]: ReceiveOutcome::Fresh
    /// [`Duplicate`]: ReceiveOutcome::Duplicate
    /// [`Conflicting`]: ReceiveOutcome::Conflicting
    pub fn receive(&mut self, upload: PeriodUpload) -> ReceiveOutcome {
        let rsu = upload.rsu;
        let shard = self.shard_of(rsu);
        let outcome = self.shards[shard].receive(upload);
        self.note_receive(rsu, outcome)
    }

    /// Stores a sequence-numbered upload from the retrying upload path
    /// ([`crate::faults::upload_with_retry`]) on its owning shard.
    ///
    /// Sequence numbers are per-RSU and monotone across periods (the
    /// engine uses the period index), which lets the server tell a
    /// harmless retransmission ([`ReceiveOutcome::Duplicate`]) from a
    /// straggler of an already-closed period ([`ReceiveOutcome::Stale`])
    /// — the latter must not resurrect as the *current* period's data.
    pub fn receive_sequenced(&mut self, sequenced: SequencedUpload) -> ReceiveOutcome {
        let rsu = sequenced.upload.rsu;
        let shard = self.shard_of(rsu);
        let outcome = self.shards[shard].receive_sequenced(sequenced);
        self.note_receive(rsu, outcome)
    }

    /// [`receive_sequenced`](Self::receive_sequenced) over a borrowed
    /// wire view — the zero-copy ingest path (DESIGN.md §18).
    ///
    /// Verdict logic is identical; the difference is allocation
    /// discipline: stale and duplicate frames (the retransmission
    /// steady state) are classified without materializing anything —
    /// duplicate detection compares the view against the stored upload
    /// via [`crate::protocol::PeriodUploadRef::matches`] — and only a
    /// fresh or conflicting frame pays
    /// [`crate::protocol::PeriodUploadRef::to_owned_upload`].
    pub fn receive_sequenced_ref(&mut self, frame: &SequencedUploadRef<'_>) -> ReceiveOutcome {
        let rsu = frame.upload().rsu();
        let shard = self.shard_of(rsu);
        let outcome = self.shards[shard].receive_sequenced_ref(frame);
        self.note_receive(rsu, outcome)
    }

    /// Ingests an already-validated batch view: inner frames are routed
    /// straight off the wire buffer in canonical `(rsu, seq)` order,
    /// exactly as [`receive_sequenced_ref`](Self::receive_sequenced_ref)
    /// routes them, with per-record heap allocation only where a fresh
    /// or conflicting upload is actually retained (DESIGN.md §18).
    pub fn receive_batch_ref(&mut self, batch: &BatchUploadRef<'_>) -> Vec<ReceiveOutcome> {
        self.metrics.batch_frames.inc();
        self.metrics.batch_uploads.add(batch.len() as u64);
        batch
            .frames()
            .map(|frame| self.receive_sequenced_ref(&frame))
            .collect()
    }

    /// Validates one upload wire frame of any tag (see
    /// [`UploadFrameRef`]) and ingests it: a bare upload through
    /// [`receive`](Self::receive), a sequenced one through
    /// [`receive_sequenced_ref`](Self::receive_sequenced_ref), a batch
    /// frame by frame in its canonical order.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MalformedMessage`] for a frame the validator
    /// rejects; nothing is ingested in that case.
    pub fn receive_wire(&mut self, wire: &[u8]) -> Result<Vec<ReceiveOutcome>, SimError> {
        Ok(self.apply(&UploadFrameRef::decode_ref(wire)?))
    }

    /// Ingests an already-validated upload frame.
    pub(crate) fn apply(&mut self, frame: &UploadFrameRef<'_>) -> Vec<ReceiveOutcome> {
        match frame {
            UploadFrameRef::Plain(upload) => vec![self.receive(upload.to_owned_upload())],
            UploadFrameRef::Sequenced(sequenced) => vec![self.receive_sequenced_ref(sequenced)],
            UploadFrameRef::Batch(batch) => self.receive_batch_ref(batch),
        }
    }

    /// Ingests a whole period's uploads with one worker per shard:
    /// uploads are bucketed by owning shard (preserving their relative
    /// order, so per-RSU sequencing semantics are untouched), each shard
    /// drains its bucket on its own thread over exclusive `&mut` state,
    /// and the outcomes are scattered back to input order.
    ///
    /// Equivalent to calling [`receive_sequenced`] for each upload in
    /// input order — dedup state is per-RSU and same-RSU uploads share a
    /// shard, so only commutative cross-RSU interleavings change.
    ///
    /// [`receive_sequenced`]: ShardedServer::receive_sequenced
    ///
    /// # Panics
    ///
    /// Panics if a shard worker panics.
    pub fn receive_parallel(&mut self, uploads: Vec<SequencedUpload>) -> Vec<ReceiveOutcome> {
        self.receive_parallel_threads(uploads, crate::concurrent::default_threads())
    }

    /// [`receive_parallel`](Self::receive_parallel) with an explicit
    /// worker cap (the effective worker count is
    /// `threads.min(shard_count)`). Outcomes are identical at every
    /// thread count — the cap only changes how shard buckets are grouped
    /// onto workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or a shard worker panics.
    pub fn receive_parallel_threads(
        &mut self,
        uploads: Vec<SequencedUpload>,
        threads: usize,
    ) -> Vec<ReceiveOutcome> {
        let n = uploads.len();
        let mut buckets: Vec<Vec<(usize, SequencedUpload)>> = vec![Vec::new(); self.shards.len()];
        for (index, sequenced) in uploads.into_iter().enumerate() {
            let shard = shard_for(sequenced.upload.rsu, self.shards.len());
            buckets[shard].push((index, sequenced));
        }
        let per_shard = crate::concurrent::for_each_slot_mut_threads(
            &mut self.shards,
            buckets,
            threads,
            |shard: &mut Shard, bucket: Vec<(usize, SequencedUpload)>| {
                bucket
                    .into_iter()
                    .map(|(index, sequenced)| {
                        let rsu = sequenced.upload.rsu;
                        (index, rsu, shard.receive_sequenced(sequenced))
                    })
                    .collect::<Vec<_>>()
            },
        );
        let mut outcomes = vec![ReceiveOutcome::Stale; n];
        let mut order: Vec<(usize, RsuId, ReceiveOutcome)> =
            per_shard.into_iter().flatten().collect();
        order.sort_unstable_by_key(|&(index, _, _)| index);
        for (index, rsu, outcome) in order {
            outcomes[index] = self.note_receive(rsu, outcome);
        }
        outcomes
    }

    /// Records one routed receive (`shard.routed` plus the outcome's
    /// `server.receive.*` counter) and invalidates the pair memo when
    /// the RSU's data changed.
    fn note_receive(&mut self, rsu: RsuId, outcome: ReceiveOutcome) -> ReceiveOutcome {
        self.metrics.routed.inc();
        self.metrics.outcome(outcome).inc();
        if matches!(outcome, ReceiveOutcome::Fresh | ReceiveOutcome::Conflicting) {
            self.pair_memo
                .get_mut()
                .expect("pair memo poisoned")
                .retain(|&(a, b), _| a != rsu && b != rsu);
        }
        outcome
    }

    /// The one entry every pair query goes through: rejects a self pair
    /// (an RSU's overlap with itself is its own counter, not an O–D
    /// flow, so Eq. 5 has no meaning there — the O–D matrix diagonal is
    /// `None` for the same reason), then prefetches each side from its
    /// owning shard.
    fn pair(&self, a: RsuId, b: RsuId) -> Result<[RsuDecodeRef<'_>; 2], SimError> {
        if a == b {
            return Err(SimError::Core(CoreError::InvalidParams {
                parameter: "pair",
                reason: format!("needs two distinct RSUs, got {a} twice"),
            }));
        }
        Ok([a, b].map(|rsu| self.shards[self.shard_of(rsu)].prefetch_decode_ref(rsu)))
    }

    /// One pair's sufficient statistics behind the pair memo: the first
    /// query for a pair decodes it, every repeat is a map lookup.
    fn pair_counts(
        &self,
        a: &RsuDecodeRef<'_>,
        b: &RsuDecodeRef<'_>,
    ) -> Result<PairCounts, SimError> {
        let key = if a.rsu <= b.rsu {
            (a.rsu, b.rsu)
        } else {
            (b.rsu, a.rsu)
        };
        if let Some(counts) = self.pair_memo.read().expect("pair memo poisoned").get(&key) {
            return Ok(*counts);
        }
        if self.shard_of(a.rsu) == self.shard_of(b.rsu) {
            self.metrics.local_pair.inc();
        } else {
            self.metrics.cross_pair.inc();
        }
        let pair = OrientedPair::new(a, b)?;
        let (kernel, counts) = {
            let _timer = self.obs.phase(Phase::Decode);
            with_thread_scratch(|s| pair.decode(s))
        };
        self.metrics.kernels[kernel as usize].inc();
        if self.obs.enabled_at(Level::Debug) {
            pair.kernel_event(&self.obs, kernel);
        }
        let counts = counts?;
        self.pair_memo
            .write()
            .expect("pair memo poisoned")
            .insert(key, counts);
        Ok(counts)
    }

    /// Estimates the point-to-point volume between two uploaded RSUs
    /// (paper Eq. 5).
    ///
    /// The pair's sufficient statistics are decoded once and memoized
    /// for the rest of the period, so repeated queries are O(1) after
    /// first touch.
    ///
    /// # Errors
    ///
    /// * [`SimError::MissingUpload`] if either RSU has not uploaded;
    /// * [`SimError::Core`] for a self pair (`a == b`), saturation, or
    ///   incompatible sizes.
    pub fn estimate(&self, a: RsuId, b: RsuId) -> Result<Estimate, SimError> {
        let [a, b] = self.pair(a, b)?;
        Ok(estimate_from_counts(
            &self.pair_counts(&a, &b)?,
            self.scheme.s(),
        )?)
    }

    /// Like [`estimate`](Self::estimate) but clamps saturated zero
    /// counts instead of failing.
    ///
    /// # Errors
    ///
    /// * [`SimError::MissingUpload`] if either RSU has not uploaded;
    /// * [`SimError::Core`] for a self pair or incompatible sizes.
    pub fn estimate_or_clamp(&self, a: RsuId, b: RsuId) -> Result<Estimate, SimError> {
        let [a, b] = self.pair(a, b)?;
        Ok(estimate_from_counts_or_clamp(
            &self.pair_counts(&a, &b)?,
            self.scheme.s(),
        )?)
    }

    /// Answers a pair query even when uploads are missing: full decode
    /// when both sketches are present ([`PairEstimate::Measured`]),
    /// otherwise a history-backed fallback ([`PairEstimate::Degraded`])
    /// that brackets the overlap with the feasible interval
    /// `[0, min(n̄_x, n̄_y)]`.
    ///
    /// A present side contributes its measured counter; a missing side
    /// contributes its EWMA volume history.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Core`] for a self pair (`a == b`), and
    /// [`SimError::MissingUpload`] only when a side has *neither* an
    /// upload nor any volume history — the server knows nothing at all
    /// about that RSU.
    pub fn estimate_or_degraded(&self, a: RsuId, b: RsuId) -> Result<PairEstimate, SimError> {
        let [a, b] = self.pair(a, b)?;
        let (side_a, side_b) = (a.side(), b.side());
        let u_c = if side_a.is_upload() && side_b.is_upload() {
            self.pair_counts(&a, &b).ok().map(|c| c.u_c)
        } else {
            None
        };
        pair_answer(self.scheme.s(), (a.rsu, side_a), (b.rsu, side_b), u_c)
    }

    /// Computes the full origin–destination matrix for every RSU any
    /// shard knows about — current uploads and volume history alike —
    /// with one worker per available core (see
    /// [`od_matrix_threads`](Self::od_matrix_threads)).
    ///
    /// # Errors
    ///
    /// As [`od_matrix_threads`](Self::od_matrix_threads).
    pub fn od_matrix(&self) -> Result<OdMatrix, SimError> {
        self.od_matrix_threads(crate::concurrent::default_threads())
    }

    /// [`od_matrix`](Self::od_matrix) with an explicit worker count.
    ///
    /// Only `U_c` is decoded per pair: each RSU's [`RsuSide`] is read
    /// once, and the matrix keeps those plus a `U_c` slot per pair
    /// ([`OdMatrix`]), answering a pair on demand exactly as
    /// [`estimate_or_degraded`](Self::estimate_or_degraded) would —
    /// measured where both uploads are decodable, degraded where
    /// history must fill in.
    ///
    /// The pair triangle is cut into about `threads × 8` contiguous
    /// blocks of near-equal pair counts, which fan out through
    /// [`parallel_map_threads`](crate::concurrent::parallel_map_threads)
    /// — persistent-pool workers claiming blocks off a shared cursor
    /// (consecutive pairs share their `i`-side upload). Each RSU's
    /// upload reference, sparse index list and history are prefetched
    /// *once* from its owning shard before the fan-out, so the per-pair
    /// work is pure kernel time with no map lookups; each block reuses
    /// its worker's decode scratch across all its pairs. When the
    /// estimated triangle work is too small to repay a pool dispatch,
    /// the whole triangle runs inline on the caller as one block —
    /// small matrices can never lose to the 1-thread path. The batch
    /// path deliberately bypasses the pair memo: it never re-reads a
    /// pair, and N²/2 lock round-trips would serialize the workers.
    ///
    /// Observability touches no shared memory per pair. Each block
    /// tallies its kernel choices in a local `DecodeTally` and, with
    /// observability on, reads the clock twice: its decode time is
    /// recorded as one per-pair mean sample per decoded pair. After the
    /// join the tallies are folded in block order and recorded with one
    /// registry update per metric. `kernel.*`, `phase.decode.calls` and
    /// the `phase.decode.ns` count come out exactly as if every decode
    /// had been counted on its own.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MissingUpload`] (for the first such RSU) if
    /// the matrix has a pair and some RSU has neither a decodable
    /// upload nor history — possible only for an undecodable
    /// (`m < 2`) upload from an RSU with no history.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or a worker thread panics.
    pub fn od_matrix_threads(&self, threads: usize) -> Result<OdMatrix, SimError> {
        let _timer = self.obs.phase(Phase::OdMatrix);
        let rsus: Vec<RsuId> = self
            .shards
            .iter()
            .flat_map(|shard| {
                shard
                    .upload_rsus()
                    .chain(shard.history().iter().map(|(rsu, _)| rsu))
            })
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let n = rsus.len();
        let pair_count = n * n.saturating_sub(1) / 2;
        self.obs.add("od_matrix.pairs", pair_count as u64);
        let shard_idx: Vec<usize> = rsus.iter().map(|&rsu| self.shard_of(rsu)).collect();
        let pre: Vec<RsuDecodeRef<'_>> = rsus
            .iter()
            .zip(&shard_idx)
            .map(|(&rsu, &s)| self.shards[s].prefetch_decode_ref(rsu))
            .collect();
        let sides: Vec<RsuSide> = pre.iter().map(RsuDecodeRef::side).collect();
        if pair_count > 0 {
            if let Some(k) = sides
                .iter()
                .position(|side| matches!(side, RsuSide::History(None)))
            {
                return Err(SimError::MissingUpload { rsu: rsus[k] });
            }
        }
        if self.obs.is_enabled() {
            self.note_pair_locality(&pre, &shard_idx);
        }
        let threads = od_effective_threads(threads, &pre, pair_count);
        let blocks = if threads > 1 {
            threads * OD_BLOCKS_PER_THREAD
        } else {
            1
        };
        let blocks = triangle_blocks(n, blocks);
        let slots = if OverlapSlots::needs_wide(&sides) {
            OverlapSlots::Wide(self.decode_triangle(&pre, blocks, threads, pair_count))
        } else {
            OverlapSlots::Narrow(self.decode_triangle(&pre, blocks, threads, pair_count))
        };
        Ok(OdMatrix::from_decoded(rsus, self.scheme.s(), sides, slots))
    }

    /// Fans the triangle's blocks out and joins their slots in triangle
    /// order, then records the folded [`DecodeTally`].
    fn decode_triangle<S: Slot>(
        &self,
        pre: &[RsuDecodeRef<'_>],
        blocks: Vec<TriangleBlock>,
        threads: usize,
        pair_count: usize,
    ) -> Vec<S> {
        let decoded = crate::concurrent::parallel_map_threads(blocks, threads, |&block| {
            self.decode_block(pre, block)
        });
        let mut tally = DecodeTally::default();
        let mut slots = Vec::with_capacity(pair_count);
        for (block_slots, block_tally) in decoded {
            tally.merge(&block_tally);
            slots.extend_from_slice(&block_slots);
        }
        for (handle, &count) in self.metrics.kernels.iter().zip(&tally.kernels) {
            if count > 0 {
                handle.add(count);
            }
        }
        self.obs.merge_phase(Phase::Decode, &tally.ns);
        slots
    }

    /// Decodes one triangle block for
    /// [`od_matrix_threads`](Self::od_matrix_threads): its `U_c` slots in
    /// triangle order, plus the block's [`DecodeTally`].
    ///
    /// The pair loop is instantiated twice, with and without the
    /// Debug-level `kernel_select` hook, so the common loop carries no
    /// call it does not make. That is for speed: a call left inside the
    /// per-pair decode, even one that never runs, measured 15–35%
    /// slower on cheap pairs.
    fn decode_block<S: Slot>(
        &self,
        pre: &[RsuDecodeRef<'_>],
        block: TriangleBlock,
    ) -> (Vec<S>, DecodeTally) {
        let start = self.obs.is_enabled().then(Instant::now);
        let (slots, mut tally) = if self.obs.enabled_at(Level::Debug) {
            decode_pairs(pre, block, |pair, kernel| {
                pair.kernel_event(&self.obs, kernel);
            })
        } else {
            decode_pairs(pre, block, |_, _| {})
        };
        if let Some(start) = start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            tally.record_block(ns, tally.kernels.iter().sum());
        }
        (slots, tally)
    }

    /// Counts an O–D matrix's decoded pairs as `shard.local_pair` (both
    /// RSUs on one shard) or `shard.cross_pair` in closed form from the
    /// shard-index table, instead of one registry update per pair: with
    /// `d_k` decodable RSUs on shard `k` and `D = Σ d_k`, local pairs are
    /// `Σ d_k(d_k − 1)/2` and cross pairs the rest of `D(D − 1)/2`.
    fn note_pair_locality(&self, pre: &[RsuDecodeRef<'_>], shard_idx: &[usize]) {
        let mut decodable = vec![0u64; self.shards.len()];
        for (d, &s) in pre.iter().zip(shard_idx) {
            if d.decodable().is_ok() {
                decodable[s] += 1;
            }
        }
        let pairs_among = |d: u64| d * d.saturating_sub(1) / 2;
        let local: u64 = decodable.iter().map(|&d| pairs_among(d)).sum();
        let cross = pairs_among(decodable.iter().sum()) - local;
        for (handle, count) in [
            (&self.metrics.local_pair, local),
            (&self.metrics.cross_pair, cross),
        ] {
            if count > 0 {
                handle.add(count);
            }
        }
    }

    /// Ends the period: folds every upload's counter into its shard's
    /// volume history, clears the uploads and every cache derived from
    /// them, and returns the array size each RSU should use next period
    /// (the shards' disjoint maps, merged).
    ///
    /// Sequence-number bookkeeping survives, so stragglers from the
    /// closed period are still recognized as stale.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Core`] if a size computation fails.
    pub fn finish_period(&mut self) -> Result<BTreeMap<RsuId, usize>, SimError> {
        self.obs.inc("server.finish_period.calls");
        let mut sizes = BTreeMap::new();
        for shard in &mut self.shards {
            sizes.append(&mut shard.finish_period(&self.scheme)?);
        }
        self.pair_memo
            .get_mut()
            .expect("pair memo poisoned")
            .clear();
        Ok(sizes)
    }
}

/// The pair loop behind `ShardedServer::decode_block`: one `U_c` slot
/// per pair of the block (`S::NONE` where a side is not decodable or
/// the kernel rejected the sizes), with kernel choices tallied.
/// `on_decode` sees every decode.
fn decode_pairs<S: Slot>(
    pre: &[RsuDecodeRef<'_>],
    block: TriangleBlock,
    mut on_decode: impl FnMut(&OrientedPair<'_>, PairKernel),
) -> (Vec<S>, DecodeTally) {
    let n = pre.len();
    let mut tally = DecodeTally::default();
    let mut slots = Vec::with_capacity(block.len);
    with_thread_scratch(|scratch| {
        let (mut i, mut j) = (block.i, block.j);
        for _ in 0..block.len {
            let slot = match OrientedPair::new(&pre[i], &pre[j]) {
                Ok(pair) => {
                    let (kernel, counts) = pair.decode(scratch);
                    on_decode(&pair, kernel);
                    tally.kernels[kernel as usize] += 1;
                    counts.map_or(S::NONE, |c| S::of(c.u_c))
                }
                Err(_) => S::NONE,
            };
            slots.push(slot);
            j += 1;
            if j == n {
                i += 1;
                j = i + 1;
            }
        }
    });
    (slots, tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::BatchUpload;
    use vcps_bitarray::BitArray;

    fn upload(rsu: u64, m: usize, ones: &[usize], counter: u64) -> PeriodUpload {
        let mut bits = BitArray::new(m);
        for &i in ones {
            bits.set(i);
        }
        PeriodUpload {
            rsu: RsuId(rsu),
            counter,
            bits,
        }
    }

    fn scheme() -> Scheme {
        Scheme::variable(2, 3.0, 1).unwrap()
    }

    fn servers(shards: usize) -> (ShardedServer, ShardedServer) {
        (
            ShardedServer::new(scheme(), 0.5, 1).unwrap(),
            ShardedServer::new(scheme(), 0.5, shards).unwrap(),
        )
    }

    fn feed_both(mono: &mut ShardedServer, sharded: &mut ShardedServer, rsus: u64) {
        for r in 0..rsus {
            let ones: Vec<usize> = (0..(r as usize * 5) % 9)
                .map(|k| (k * 13 + 2) % 64)
                .collect();
            let up = upload(r, 64, &ones, ones.len() as u64 + 1);
            mono.receive(up.clone());
            sharded.receive(up);
        }
    }

    #[test]
    fn zero_shards_is_rejected() {
        assert!(ShardedServer::new(scheme(), 0.5, 0).is_err());
        assert!(ShardedServer::new(scheme(), 0.0, 4).is_err());
    }

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        let server = ShardedServer::new(scheme(), 0.5, 4).unwrap();
        for r in 0..1000u64 {
            let s = server.shard_of(RsuId(r));
            assert!(s < 4);
            assert_eq!(s, shard_for(RsuId(r), 4), "free function agrees");
            assert_eq!(s, server.shard_of(RsuId(r)), "stable");
        }
        // splitmix64 spreads a dense id range over all shards.
        let hit: BTreeSet<usize> = (0..64u64).map(|r| shard_for(RsuId(r), 4)).collect();
        assert_eq!(hit.len(), 4);
    }

    #[test]
    fn estimates_match_monolith_at_every_shard_count() {
        for shards in [1, 2, 4, 8] {
            let (mut mono, mut sharded) = servers(shards);
            feed_both(&mut mono, &mut sharded, 12);
            for a in 0..12u64 {
                for b in (a + 1)..12u64 {
                    assert_eq!(
                        mono.estimate_or_clamp(RsuId(a), RsuId(b)).unwrap(),
                        sharded.estimate_or_clamp(RsuId(a), RsuId(b)).unwrap(),
                        "pair ({a}, {b}) at {shards} shards"
                    );
                }
            }
            assert_eq!(
                mono.od_matrix_threads(2).unwrap(),
                sharded.od_matrix_threads(2).unwrap()
            );
        }
    }

    #[test]
    fn receive_parallel_matches_sequential_routing() {
        let sequenced: Vec<SequencedUpload> = (0..40u64)
            .map(|r| SequencedUpload {
                seq: 0,
                upload: upload(r % 20, 64, &[(r % 60) as usize], r % 20 + 1),
            })
            .collect();
        for shards in [1, 2, 4, 8] {
            let (_, mut seq_srv) = servers(shards);
            let seq_outcomes: Vec<ReceiveOutcome> = sequenced
                .iter()
                .cloned()
                .map(|s| seq_srv.receive_sequenced(s))
                .collect();
            let (_, mut par_srv) = servers(shards);
            let par_outcomes = par_srv.receive_parallel(sequenced.clone());
            assert_eq!(par_outcomes, seq_outcomes, "{shards} shards");
            assert_eq!(par_srv.upload_count(), seq_srv.upload_count());
            for r in 0..20u64 {
                assert_eq!(par_srv.upload(RsuId(r)), seq_srv.upload(RsuId(r)));
            }
        }
    }

    #[test]
    fn receive_batch_matches_sequenced_loop() {
        let frames: Vec<SequencedUpload> = (0..10u64)
            .map(|r| SequencedUpload {
                seq: 3,
                upload: upload(r, 64, &[r as usize], r + 1),
            })
            .collect();
        let batch = BatchUpload::new(frames.clone()).unwrap();
        let (_, mut via_batch) = servers(4);
        let outcomes = via_batch.receive_wire(&batch.encode()).unwrap();
        assert!(outcomes.iter().all(|&o| o == ReceiveOutcome::Fresh));
        let (_, mut via_loop) = servers(4);
        for f in frames {
            via_loop.receive_sequenced(f);
        }
        assert_eq!(via_batch.upload_count(), via_loop.upload_count());
        assert_eq!(
            via_batch.estimate(RsuId(1), RsuId(2)).unwrap(),
            via_loop.estimate(RsuId(1), RsuId(2)).unwrap()
        );
    }

    /// The zero-copy wire path is outcome- and state-identical to the
    /// owned sequenced path, including on retransmissions (duplicates)
    /// and conflicting re-sends.
    #[test]
    fn receive_wire_batch_matches_owned_sequenced_path() {
        let frames: Vec<SequencedUpload> = (0..10u64)
            .map(|r| SequencedUpload {
                seq: 3,
                upload: upload(r, 64, &[r as usize], r + 1),
            })
            .collect();
        let wire = BatchUpload::new(frames.clone()).unwrap().encode();
        let conflicting = BatchUpload::new(vec![SequencedUpload {
            seq: 3,
            upload: upload(4, 64, &[63], 9),
        }])
        .unwrap()
        .encode();
        let (_, mut via_wire) = servers(4);
        let (_, mut via_owned) = servers(4);
        for batch_wire in [&wire, &wire, &conflicting] {
            let wire_outcomes = via_wire.receive_wire(batch_wire).unwrap();
            let owned_outcomes: Vec<ReceiveOutcome> = BatchUpload::decode(batch_wire)
                .unwrap()
                .into_frames()
                .into_iter()
                .map(|f| via_owned.receive_sequenced(f))
                .collect();
            assert_eq!(wire_outcomes, owned_outcomes);
        }
        assert_eq!(via_wire.upload_count(), via_owned.upload_count());
        for r in 0..10u64 {
            assert_eq!(via_wire.upload(RsuId(r)), via_owned.upload(RsuId(r)));
        }
        assert_eq!(
            via_wire.estimate(RsuId(1), RsuId(2)).unwrap(),
            via_owned.estimate(RsuId(1), RsuId(2)).unwrap()
        );
        // A malformed wire is rejected without ingesting anything.
        let before = via_wire.upload_count();
        assert!(via_wire.receive_wire(&wire[..wire.len() - 1]).is_err());
        assert_eq!(via_wire.upload_count(), before);
    }

    /// Every upload tag reaches the same state through the monolith's
    /// and the composite's `receive_wire`; anything else is refused.
    #[test]
    fn receive_wire_routes_every_upload_tag_like_the_monolith() {
        let plain = upload(1, 64, &[3], 1);
        let sequenced = SequencedUpload {
            seq: 2,
            upload: upload(2, 64, &[5, 9], 2),
        };
        let batch = BatchUpload::new(vec![
            SequencedUpload {
                seq: 2,
                upload: upload(3, 64, &[7], 1),
            },
            sequenced.clone(),
        ])
        .unwrap();
        let frames = [
            plain.encode(),
            plain.encode_compact(),
            sequenced.encode(),
            batch.encode(),
        ];
        let (mut mono, mut sharded) = servers(4);
        for wire in &frames {
            assert_eq!(
                mono.receive_wire(wire).unwrap(),
                sharded.receive_wire(wire).unwrap()
            );
        }
        assert_eq!(sharded.upload_count(), 3);
        for r in 1..=3u64 {
            assert_eq!(mono.upload(RsuId(r)), sharded.upload(RsuId(r)));
        }
        let query = crate::protocol::Query {
            rsu: RsuId(1),
            certificate: crate::pki::TrustedAuthority::new(1).issue(RsuId(1)),
            array_size: 64,
        };
        for bad in [Vec::new(), query.encode().to_vec(), vec![99, 0, 0]] {
            assert!(matches!(
                sharded.receive_wire(&bad),
                Err(SimError::MalformedMessage { .. })
            ));
        }
    }

    #[test]
    fn finish_period_merges_shard_sizes_and_ages_sequences() {
        let (mut mono, mut sharded) = servers(4);
        feed_both(&mut mono, &mut sharded, 10);
        sharded.seed_history(RsuId(77), 500.0);
        mono.seed_history(RsuId(77), 500.0);
        assert_eq!(
            mono.finish_period().unwrap(),
            sharded.finish_period().unwrap()
        );
        assert_eq!(sharded.upload_count(), 0);
        assert_eq!(sharded.history_average(RsuId(77)), Some(500.0));
    }

    #[test]
    fn memo_is_invalidated_by_re_uploads() {
        let (_, mut sharded) = servers(4);
        sharded.receive(upload(1, 64, &[1], 1));
        sharded.receive(upload(2, 64, &[2], 1));
        let before = sharded.estimate(RsuId(1), RsuId(2)).unwrap();
        assert_eq!(sharded.pair_memo.read().unwrap().len(), 1);
        // RSU 2 re-uploads with different content: the memoized pair must
        // not survive, and the fresh answer must see the new data.
        sharded.receive(upload(2, 64, &[2, 9], 3));
        assert!(sharded.pair_memo.read().unwrap().is_empty());
        let after = sharded.estimate(RsuId(1), RsuId(2)).unwrap();
        assert_eq!(after.n_y, 3);
        assert_ne!(before, after);
    }

    #[test]
    fn composite_counters_match_monolith_modulo_shard_series() {
        let obs_mono = Obs::enabled(vcps_obs::Level::Info);
        let obs_shard = Obs::enabled(vcps_obs::Level::Info);
        let mut mono = ShardedServer::new(scheme(), 0.5, 1)
            .unwrap()
            .with_obs(obs_mono.clone());
        let mut sharded = ShardedServer::new(scheme(), 0.5, 4)
            .unwrap()
            .with_obs(obs_shard.clone());
        feed_both(&mut mono, &mut sharded, 10);
        let _ = mono.estimate_or_clamp(RsuId(1), RsuId(2)).unwrap();
        let _ = sharded.estimate_or_clamp(RsuId(1), RsuId(2)).unwrap();
        let _ = mono.od_matrix_threads(2).unwrap();
        let _ = sharded.od_matrix_threads(2).unwrap();
        mono.finish_period().unwrap();
        sharded.finish_period().unwrap();
        let strip = |obs: &Obs| {
            let mut counters = obs.snapshot().counters;
            counters.retain(|name, _| !name.starts_with("shard.") && !name.starts_with("batch."));
            counters
        };
        assert_eq!(strip(&obs_shard), strip(&obs_mono));
    }

    fn server() -> ShardedServer {
        ShardedServer::new(scheme(), 0.5, 1).unwrap()
    }

    #[test]
    fn new_rejects_out_of_range_alpha() {
        let scheme = Scheme::variable(2, 3.0, 1).unwrap();
        for alpha in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            let err = ShardedServer::new(scheme.clone(), alpha, 1);
            assert!(err.is_err(), "alpha {alpha} must be rejected");
        }
        assert!(ShardedServer::new(scheme.clone(), 1.0, 1).is_ok());
        assert!(ShardedServer::new(scheme, 0.01, 1).is_ok());
    }

    #[test]
    fn estimate_requires_uploads() {
        let server = server();
        assert_eq!(
            server.estimate(RsuId(1), RsuId(2)),
            Err(SimError::MissingUpload { rsu: RsuId(1) })
        );
    }

    #[test]
    fn estimate_decodes_uploaded_pair() {
        let mut server = server();
        server.receive(upload(1, 64, &[1, 5], 2));
        server.receive(upload(2, 256, &[1, 70], 2));
        let e = server.estimate(RsuId(1), RsuId(2)).unwrap();
        assert!(e.n_c.is_finite());
        assert_eq!(e.m_x, 64);
        assert_eq!(e.m_y, 256);
    }

    #[test]
    fn receive_classifies_fresh_duplicate_conflicting() {
        let mut server = server();
        assert_eq!(server.receive(upload(1, 64, &[], 2)), ReceiveOutcome::Fresh);
        assert_eq!(
            server.receive(upload(1, 64, &[], 2)),
            ReceiveOutcome::Duplicate
        );
        assert_eq!(
            server.receive(upload(1, 64, &[3], 9)),
            ReceiveOutcome::Conflicting
        );
        // Conflicting content replaced the stored upload.
        assert_eq!(server.upload(RsuId(1)).unwrap().counter, 9);
        assert_eq!(server.upload_count(), 1);
    }

    #[test]
    fn re_upload_replaces_previous() {
        let mut server = server();
        server.receive(upload(1, 64, &[], 2));
        server.receive(upload(1, 64, &[3], 9));
        assert_eq!(server.upload_count(), 1);
        let sizes = server.finish_period().unwrap();
        // History saw 9, not 2: 9 × 3 = 27 → 32.
        assert_eq!(sizes[&RsuId(1)], 32);
    }

    #[test]
    fn sequenced_uploads_dedup_and_age_out() {
        let mut server = server();
        let wrap = |seq, up| SequencedUpload { seq, upload: up };
        assert_eq!(
            server.receive_sequenced(wrap(0, upload(1, 64, &[1], 5))),
            ReceiveOutcome::Fresh
        );
        assert_eq!(
            server.receive_sequenced(wrap(0, upload(1, 64, &[1], 5))),
            ReceiveOutcome::Duplicate
        );
        assert_eq!(
            server.receive_sequenced(wrap(0, upload(1, 64, &[2], 5))),
            ReceiveOutcome::Conflicting
        );
        // Next period: higher sequence is fresh again…
        assert_eq!(
            server.receive_sequenced(wrap(1, upload(1, 64, &[9], 7))),
            ReceiveOutcome::Fresh
        );
        // …and the old sequence is stale, leaving the new data intact.
        assert_eq!(
            server.receive_sequenced(wrap(0, upload(1, 64, &[1], 5))),
            ReceiveOutcome::Stale
        );
        assert_eq!(server.upload(RsuId(1)).unwrap().counter, 7);
    }

    #[test]
    fn sequenced_straggler_after_finish_period_is_stale() {
        let mut server = server();
        let wrap = |seq, up| SequencedUpload { seq, upload: up };
        server.receive_sequenced(wrap(3, upload(1, 64, &[1], 5)));
        server.finish_period().unwrap();
        assert_eq!(server.upload_count(), 0);
        // A re-send of the already-folded upload must not resurrect it as
        // current-period data.
        assert_eq!(
            server.receive_sequenced(wrap(3, upload(1, 64, &[1], 5))),
            ReceiveOutcome::Stale
        );
        assert_eq!(server.upload_count(), 0);
    }

    #[test]
    fn finish_period_updates_history_and_clears() {
        let mut server = ShardedServer::new(scheme(), 1.0, 1).unwrap();
        server.seed_history(RsuId(1), 100.0);
        server.receive(upload(1, 64, &[], 1000));
        let sizes = server.finish_period().unwrap();
        assert_eq!(server.upload_count(), 0);
        // alpha = 1: history = last observation = 1000 → 3000 → 4096.
        assert_eq!(sizes[&RsuId(1)], 4096);
        assert_eq!(server.history_average(RsuId(1)), Some(1000.0));
    }

    #[test]
    fn seeded_rsus_get_sizes_without_uploads() {
        let mut server = server();
        server.seed_history(RsuId(9), 500.0);
        let sizes = server.finish_period().unwrap();
        assert_eq!(sizes[&RsuId(9)], 2048); // 1500 → 2^11
    }

    #[test]
    fn fixed_scheme_sizes_are_constant() {
        let mut server = ShardedServer::new(Scheme::fixed(2, 4096, 1).unwrap(), 0.5, 1).unwrap();
        server.receive(upload(1, 4096, &[], 10));
        server.receive(upload(2, 4096, &[], 1_000_000));
        let sizes = server.finish_period().unwrap();
        assert!(sizes.values().all(|&m| m == 4096));
    }

    #[test]
    fn zero_counter_uploads_estimate_to_zero_overlap() {
        // Empty arrays and zero counters are a legal (if dull) period:
        // the decode must produce 0, not NaN or an error.
        let mut server = server();
        server.receive(upload(1, 64, &[], 0));
        server.receive(upload(2, 64, &[], 0));
        let e = server.estimate(RsuId(1), RsuId(2)).unwrap();
        assert_eq!(e.n_c, 0.0);
        assert!(e.n_c.is_finite());
        let p = server.estimate_or_degraded(RsuId(1), RsuId(2)).unwrap();
        assert!(!p.is_degraded());
        assert_eq!(p.n_c(), 0.0);
    }

    #[test]
    fn degraded_fallback_uses_history_for_missing_side() {
        let mut server = server();
        server.seed_history(RsuId(2), 80.0);
        server.receive(upload(1, 64, &[1, 2], 50));
        // RSU 2 never uploaded: degraded answer bounded by min(50, 80).
        let p = server.estimate_or_degraded(RsuId(1), RsuId(2)).unwrap();
        assert!(p.is_degraded());
        assert!(p.measured().is_none());
        match p {
            PairEstimate::Degraded(d) => {
                assert!(!d.missing_x);
                assert!(d.missing_y);
                assert_eq!(d.upper, 50.0);
                assert_eq!(d.lower, 0.0);
                assert_eq!(d.n_c, 25.0);
            }
            PairEstimate::Measured(_) => unreachable!(),
        }
    }

    #[test]
    fn degraded_fallback_with_both_sides_missing() {
        let mut server = server();
        server.seed_history(RsuId(1), 40.0);
        server.seed_history(RsuId(2), 60.0);
        let p = server.estimate_or_degraded(RsuId(1), RsuId(2)).unwrap();
        match p {
            PairEstimate::Degraded(d) => {
                assert!(d.missing_x && d.missing_y);
                assert_eq!(d.upper, 40.0);
            }
            PairEstimate::Measured(_) => unreachable!(),
        }
    }

    #[test]
    fn degraded_fallback_fails_only_with_no_knowledge_at_all() {
        let server = server();
        assert_eq!(
            server.estimate_or_degraded(RsuId(1), RsuId(2)),
            Err(SimError::MissingUpload { rsu: RsuId(1) })
        );
    }

    #[test]
    fn repeated_estimates_hit_the_pair_memo() {
        let mut server = server();
        server.receive(upload(1, 64, &[1, 5], 2));
        server.receive(upload(2, 256, &[1, 70], 2));
        let first = server.estimate(RsuId(1), RsuId(2)).unwrap();
        assert!(server
            .pair_memo
            .read()
            .unwrap()
            .get(&(RsuId(1), RsuId(2)))
            .is_some());
        // Repeat in both argument orders: same memo entry, same answer.
        assert_eq!(server.estimate(RsuId(2), RsuId(1)).unwrap(), first);
        assert_eq!(server.pair_memo.read().unwrap().len(), 1);
        assert_eq!(server.estimate_or_clamp(RsuId(1), RsuId(2)).unwrap(), first);
    }

    #[test]
    fn new_upload_invalidates_only_its_pairs() {
        let mut server = server();
        server.receive(upload(1, 64, &[1], 1));
        server.receive(upload(2, 64, &[2], 1));
        server.receive(upload(3, 64, &[3], 1));
        server.estimate(RsuId(1), RsuId(2)).unwrap();
        server.estimate(RsuId(2), RsuId(3)).unwrap();
        assert_eq!(server.pair_memo.read().unwrap().len(), 2);
        // RSU 3 re-uploads: the (2,3) entry must go, (1,2) must stay.
        server.receive(upload(3, 64, &[3, 9], 2));
        let memo = server.pair_memo.read().unwrap();
        assert!(memo.contains_key(&(RsuId(1), RsuId(2))));
        assert!(!memo.contains_key(&(RsuId(2), RsuId(3))));
        drop(memo);
        // And the refreshed pair decodes against the new content.
        let e = server.estimate(RsuId(2), RsuId(3)).unwrap();
        assert_eq!(e.n_y, 2);
    }

    #[test]
    fn sparse_cache_tracks_the_densify_threshold() {
        let mut server = server();
        // 2 ones in 256 bits (4 words): sparse.
        server.receive(upload(1, 256, &[1, 200], 2));
        assert_eq!(
            server.shards[0].prefetch_decode_ref(RsuId(1)).ones,
            Some(&[1u64, 200][..])
        );
        // Re-upload above the threshold: list dropped.
        server.receive(upload(
            1,
            256,
            &(0..8).map(|i| i * 30).collect::<Vec<_>>(),
            8,
        ));
        assert!(server.shards[0]
            .prefetch_decode_ref(RsuId(1))
            .ones
            .is_none());
        // finish_period clears everything.
        server.receive(upload(2, 256, &[7], 1));
        server.estimate(RsuId(1), RsuId(2)).unwrap();
        server.finish_period().unwrap();
        for rsu in [RsuId(1), RsuId(2)] {
            assert!(server.shards[0].prefetch_decode_ref(rsu).ones.is_none());
        }
        assert!(server.pair_memo.read().unwrap().is_empty());
    }

    #[test]
    fn od_matrix_matches_pairwise_estimates() {
        let mut server = server();
        server.seed_history(RsuId(9), 120.0); // history-only RSU
        server.receive(upload(1, 64, &[1, 5], 7));
        server.receive(upload(2, 256, &[1, 70, 200], 9));
        server.receive(upload(3, 64, &[2], 1));
        let matrix = server.od_matrix().unwrap();
        assert_eq!(
            matrix.rsus(),
            &[RsuId(1), RsuId(2), RsuId(3), RsuId(9)],
            "uploads and history-only RSUs are both covered"
        );
        assert_eq!(matrix.len(), 4);
        assert!(!matrix.is_empty());
        for i in 0..matrix.len() {
            assert!(matrix.at(i, i).is_none(), "diagonal is undefined");
            for j in 0..matrix.len() {
                if i == j {
                    continue;
                }
                let (a, b) = (matrix.rsus()[i], matrix.rsus()[j]);
                let pairwise = server.estimate_or_degraded(a, b).unwrap();
                assert_eq!(matrix.at(i, j), Some(&pairwise), "entry ({i}, {j})");
                assert_eq!(
                    matrix.at(i, j).map(PairEstimate::transposed).as_ref(),
                    matrix.at(j, i),
                    "mirror symmetry up to role swap"
                );
                assert_eq!(matrix.get(a, b), Some(&pairwise));
            }
        }
        // The history-only column is degraded, the upload pairs measured.
        assert!(matrix.get(RsuId(1), RsuId(9)).unwrap().is_degraded());
        assert!(!matrix.get(RsuId(1), RsuId(2)).unwrap().is_degraded());
        assert_eq!(matrix.iter_pairs().count(), 6);
        assert_eq!(matrix.get(RsuId(1), RsuId(1)), None);
        assert_eq!(matrix.get(RsuId(1), RsuId(77)), None);
    }

    #[test]
    fn od_matrix_is_identical_across_thread_counts() {
        let mut server = server();
        for r in 0..12u64 {
            let ones: Vec<usize> = (0..(r as usize * 3) % 7)
                .map(|k| (k * 11 + 1) % 64)
                .collect();
            server.receive(upload(r, 64, &ones, ones.len() as u64));
        }
        let reference = server.od_matrix_threads(1).unwrap();
        for threads in [2, 4, 8] {
            assert_eq!(server.od_matrix_threads(threads).unwrap(), reference);
        }
    }

    #[test]
    fn od_matrix_of_empty_server_is_empty() {
        let server = server();
        let matrix = server.od_matrix().unwrap();
        assert!(matrix.is_empty());
        assert_eq!(matrix.iter_pairs().count(), 0);
    }

    #[test]
    fn measured_beats_degraded_when_both_uploads_arrive() {
        let mut server = server();
        server.seed_history(RsuId(1), 9999.0);
        server.seed_history(RsuId(2), 9999.0);
        server.receive(upload(1, 64, &[1, 5], 2));
        server.receive(upload(2, 256, &[1, 70], 2));
        let p = server.estimate_or_degraded(RsuId(1), RsuId(2)).unwrap();
        assert!(!p.is_degraded());
        assert!(p.measured().is_some());
    }

    #[test]
    fn observability_never_changes_answers() {
        // Obs-on results (estimates and the full O-D matrix) must be
        // bit-identical to obs-off, across thread counts.
        let feed = |server: &mut ShardedServer| {
            for r in 0..10u64 {
                let ones: Vec<usize> = (0..(r as usize * 5) % 9)
                    .map(|k| (k * 13 + 2) % 64)
                    .collect();
                server.receive(upload(r, 64, &ones, ones.len() as u64 + 1));
            }
        };
        let mut plain = server();
        feed(&mut plain);
        let mut observed = server().with_obs(vcps_obs::Obs::enabled(vcps_obs::Level::Trace));
        feed(&mut observed);
        assert_eq!(
            plain.estimate_or_clamp(RsuId(1), RsuId(2)).unwrap(),
            observed.estimate_or_clamp(RsuId(1), RsuId(2)).unwrap()
        );
        for threads in [1, 2, 4] {
            assert_eq!(
                plain.od_matrix_threads(threads).unwrap(),
                observed.od_matrix_threads(threads).unwrap(),
                "threads = {threads}"
            );
        }
        // Observability never reaches the durable state either.
        assert_eq!(plain.checkpoint(0), observed.checkpoint(0));
    }

    #[test]
    fn obs_records_receive_outcomes_and_kernel_choices() {
        let mut server = server().with_obs(vcps_obs::Obs::enabled(vcps_obs::Level::Info));
        server.receive(upload(1, 64, &[1, 5], 2));
        server.receive(upload(1, 64, &[1, 5], 2)); // duplicate
        server.receive(upload(1, 64, &[1, 9], 2)); // conflicting
        server.receive(upload(2, 256, &[3], 1));
        let _ = server.estimate_or_clamp(RsuId(1), RsuId(2)).unwrap();
        let _ = server.estimate_or_clamp(RsuId(1), RsuId(2)).unwrap(); // memo hit
        let snap = server.obs().snapshot();
        assert_eq!(snap.counters["server.receive.fresh"], 2);
        assert_eq!(snap.counters["server.receive.duplicate"], 1);
        assert_eq!(snap.counters["server.receive.conflicting"], 1);
        // One uncached decode: exactly one kernel counter bump and one
        // decode phase sample (the memoized repeat records nothing).
        assert_eq!(
            snap.counters_with_prefix("kernel.").values().sum::<u64>(),
            1
        );
        assert_eq!(snap.histograms["phase.decode.ns"].count, 1);
        assert_eq!(snap.counters["phase.decode.calls"], 1);
    }

    #[test]
    fn self_pairs_are_rejected_on_every_query_path() {
        let mut server = server();
        let ones: Vec<usize> = (0..300).map(|i| i * 3).collect();
        server.receive(upload(1, 1024, &ones, 400));
        server.receive(upload(2, 1024, &ones[..100], 120));
        server.seed_history(RsuId(3), 80.0);
        let is_pair_error = |e: SimError| {
            matches!(
                e,
                SimError::Core(CoreError::InvalidParams {
                    parameter: "pair",
                    ..
                })
            )
        };
        // An uploaded RSU, a history-only one, and one the server has
        // never heard of: a self pair is an error whatever is held.
        for rsu in [RsuId(1), RsuId(3), RsuId(9)] {
            assert!(is_pair_error(
                server.estimate_or_degraded(rsu, rsu).unwrap_err()
            ));
            assert!(is_pair_error(server.estimate(rsu, rsu).unwrap_err()));
            assert!(is_pair_error(
                server.estimate_or_clamp(rsu, rsu).unwrap_err()
            ));
        }
        assert!(server.pair_memo.read().unwrap().is_empty());
        // Distinct pairs still answer, and the matrix diagonal agrees.
        assert!(!server
            .estimate_or_degraded(RsuId(1), RsuId(2))
            .unwrap()
            .is_degraded());
        assert!(server
            .od_matrix()
            .unwrap()
            .get(RsuId(1), RsuId(1))
            .is_none());
    }

    #[test]
    fn od_matrix_counts_pair_locality_once_per_matrix() {
        let obs = Obs::enabled(vcps_obs::Level::Info);
        let mut server = ShardedServer::new(scheme(), 0.5, 3)
            .unwrap()
            .with_obs(obs.clone());
        for r in 0..9u64 {
            server.receive(upload(r, 64, &[r as usize], 1));
        }
        server.seed_history(RsuId(20), 50.0); // history only
        server.seed_history(RsuId(21), 5.0);
        server.receive(upload(21, 1, &[], 1)); // 1 bit: undecodable
        let _ = server.od_matrix_threads(2).unwrap();
        // The per-pair tally the totals must equal: every pair of
        // decodable RSUs, split by whether one shard owns both.
        let decodable: Vec<RsuId> = (0..9).map(RsuId).collect();
        let (mut local, mut cross) = (0u64, 0u64);
        for (i, &a) in decodable.iter().enumerate() {
            for &b in &decodable[i + 1..] {
                if server.shard_of(a) == server.shard_of(b) {
                    local += 1;
                } else {
                    cross += 1;
                }
            }
        }
        let counters = obs.snapshot().counters;
        assert_eq!((local, cross), (10, 26)); // 2, 4 and 3 decodable per shard
        assert_eq!(counters["shard.local_pair"], local);
        assert_eq!(counters["shard.cross_pair"], cross);
    }
}
