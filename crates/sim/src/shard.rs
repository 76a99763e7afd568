//! Sharded ingestion server: [`ShardedServer`] partitions RSUs across
//! `K` independent [`CentralServer`] shards by a stable hash of the RSU
//! id, so receive-side state (dedup sequence numbers, uploads, decode
//! caches) never needs cross-shard coordination — two uploads race only
//! if they are for the same RSU, and same-RSU uploads always land on the
//! same shard.
//!
//! The read side composes shards without copying: a pair estimate for
//! RSUs owned by different shards borrows both shards' uploads and
//! sparse index caches through
//! [`CentralServer::pair_counts_across`], the *same* decode the
//! monolithic server runs on itself, so the sharded answer is
//! bit-identical to the unsharded one by construction — there is one
//! decode code path, not two. The differential conformance suite
//! (`tests/sharded_differential.rs`) verifies this equivalence end to
//! end for estimates, O–D matrices, and registry counters at every
//! shard/thread count, with and without injected faults.
//!
//! Instrumentation follows the same single-registry principle: every
//! shard carries a *disabled* [`Obs`] handle and the composite owns the
//! real one, firing exactly the counters the monolith fires (plus its
//! own `shard.*` / `batch.*` series, which the differential suite
//! strips before comparing).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::RwLock;

use vcps_bitarray::DecodeScratch;
use vcps_core::estimator::{
    estimate_from_counts, estimate_from_counts_or_clamp, Estimate, PairCounts,
};
use vcps_core::{CoreError, PairEstimate, RsuId, Scheme};
use vcps_hash::splitmix64;
use vcps_obs::{Obs, Phase};

use crate::protocol::{
    BatchUploadRef, CheckpointSet, PeriodUpload, SequencedUpload, SequencedUploadRef,
    UploadFrameRef,
};
use crate::server::{
    od_effective_threads, pair_counts_prefetched, receive_counter_name, with_thread_scratch,
    RsuDecodeRef,
};
use crate::{CentralServer, OdMatrix, ReceiveOutcome, SimError};

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

/// A server sharded over `K` independent [`CentralServer`]s (one per
/// hash bucket of RSU ids), answering exactly like a single monolithic
/// server would.
///
/// * **Writes** ([`receive_wire`], [`receive`], [`receive_sequenced`],
///   [`receive_parallel`]) route each upload to the owning shard; the
///   parallel form runs one worker per shard over disjoint `&mut`
///   shards, lock-free.
/// * **Reads** ([`estimate`], [`estimate_or_degraded`], [`od_matrix`])
///   borrow the owning shards' uploads and decode caches through the
///   monolith's own cross-holder decode, plus a composite-level pair
///   memo so repeated queries stay O(1) exactly like the monolith's.
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
///         counter: 2,
///         bits: BitArray::new(64),
///     });
/// }
/// assert!(server.estimate(RsuId(1), RsuId(2))?.n_c.is_finite());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShardedServer {
    scheme: Scheme,
    shards: Vec<CentralServer>,
    /// Composite-level pair memo: the sharded analogue of the monolith's
    /// per-server memo, covering local and cross-shard pairs alike.
    /// Invalidated whenever either member RSU re-uploads, cleared at
    /// period end — the same lifetime the monolith enforces.
    pair_memo: RwLock<BTreeMap<(RsuId, RsuId), PairCounts>>,
    /// The composite's (real) observability handle; the shards all carry
    /// disabled handles so nothing is double-counted.
    obs: Obs,
}

impl Clone for ShardedServer {
    fn clone(&self) -> Self {
        Self {
            scheme: self.scheme.clone(),
            shards: self.shards.clone(),
            pair_memo: RwLock::new(self.pair_memo.read().expect("pair memo poisoned").clone()),
            obs: self.obs.clone(),
        }
    }
}

impl ShardedServer {
    /// Creates a server sharded `shard_count` ways; `history_alpha` is
    /// the EWMA smoothing factor, as in [`CentralServer::new`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Core`] if `shard_count` is zero or
    /// `history_alpha` is outside `(0, 1]`.
    pub fn new(scheme: Scheme, history_alpha: f64, shard_count: usize) -> Result<Self, SimError> {
        if shard_count == 0 {
            return Err(SimError::Core(CoreError::InvalidConfig {
                parameter: "shard_count",
                reason: "must be at least 1".to_string(),
            }));
        }
        let shards = (0..shard_count)
            .map(|_| CentralServer::new(scheme.clone(), history_alpha))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            scheme,
            shards,
            pair_memo: RwLock::new(BTreeMap::new()),
            obs: Obs::disabled(),
        })
    }

    /// Attaches an observability handle to the composite (the shards
    /// deliberately keep disabled handles — see the module docs). Also
    /// publishes the topology as the `shard.count` gauge.
    pub fn set_obs(&mut self, obs: Obs) {
        obs.gauge("shard.count", self.shards.len() as f64);
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

    /// The scheme configuration (shared by every shard).
    #[must_use]
    pub fn scheme(&self) -> &Scheme {
        &self.scheme
    }

    /// Seeds an RSU's historical average on its owning shard (see
    /// [`CentralServer::seed_history`]).
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
        self.shards.iter().map(CentralServer::upload_count).sum()
    }

    /// The upload currently held for `rsu`, if any.
    #[must_use]
    pub fn upload(&self, rsu: RsuId) -> Option<&PeriodUpload> {
        self.shards[self.shard_of(rsu)].upload(rsu)
    }

    /// Captures every shard's durable state as a [`CheckpointSet`]
    /// covering `frames_applied` WAL records (see
    /// [`CentralServer::checkpoint`] for what each snapshot carries and
    /// omits). Shards appear in shard order, so the set restores under
    /// the same topology only — which is the point: the shard count is
    /// part of the deployment's identity.
    #[must_use]
    pub fn checkpoint(&self, frames_applied: u64) -> CheckpointSet {
        CheckpointSet {
            frames_applied,
            shards: self.shards.iter().map(CentralServer::checkpoint).collect(),
        }
    }

    /// Rebuilds a sharded server from a [`CheckpointSet`] and the
    /// deployment's scheme. The composite pair memo starts empty (it is
    /// derived state) and the observability handle starts disabled,
    /// exactly as after [`ShardedServer::new`] — re-attach with
    /// [`set_obs`](Self::set_obs).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Core`] if the set holds no shards, or
    /// propagates [`CentralServer::restore_from_checkpoint`] failures.
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
            .map(|c| CentralServer::restore_from_checkpoint(scheme.clone(), c))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            scheme,
            shards,
            pair_memo: RwLock::new(BTreeMap::new()),
            obs: Obs::disabled(),
        })
    }

    /// Routes one period upload to its owning shard (the sharded
    /// [`CentralServer::receive`] — same classification, same outcome).
    pub fn receive(&mut self, upload: PeriodUpload) -> ReceiveOutcome {
        let rsu = upload.rsu;
        let shard = self.shard_of(rsu);
        let outcome = self.shards[shard].receive(upload);
        self.note_receive(rsu, outcome)
    }

    /// Routes one sequence-numbered upload to its owning shard (the
    /// sharded [`CentralServer::receive_sequenced`]).
    pub fn receive_sequenced(&mut self, sequenced: SequencedUpload) -> ReceiveOutcome {
        let rsu = sequenced.upload.rsu;
        let shard = self.shard_of(rsu);
        let outcome = self.shards[shard].receive_sequenced(sequenced);
        self.note_receive(rsu, outcome)
    }

    /// [`receive_sequenced`](Self::receive_sequenced) over a borrowed
    /// wire view: routed to the owning shard's
    /// [`CentralServer::receive_sequenced_ref`], so stale and duplicate
    /// frames are classified without materializing anything.
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
        self.obs.inc("batch.frames");
        self.obs.add("batch.uploads", batch.len() as u64);
        batch
            .frames()
            .map(|frame| self.receive_sequenced_ref(&frame))
            .collect()
    }

    /// Validates one upload wire frame of any tag (see
    /// [`UploadFrameRef`]) and routes it: the sharded
    /// [`CentralServer::receive_wire`] — same outcomes, same registry
    /// counters, plus the composite's `shard.*` / `batch.*` series.
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
            |shard: &mut CentralServer, bucket: Vec<(usize, SequencedUpload)>| {
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

    /// Records one routed receive: fires the same registry counter the
    /// monolith fires (plus `shard.routed`) and invalidates the
    /// composite pair memo when the RSU's data changed.
    fn note_receive(&mut self, rsu: RsuId, outcome: ReceiveOutcome) -> ReceiveOutcome {
        self.obs.inc("shard.routed");
        self.obs.inc(receive_counter_name(outcome));
        if matches!(outcome, ReceiveOutcome::Fresh | ReceiveOutcome::Conflicting) {
            self.pair_memo
                .get_mut()
                .expect("pair memo poisoned")
                .retain(|&(a, b), _| a != rsu && b != rsu);
        }
        outcome
    }

    /// Decodes one pair straight from the owning shards — the sharded
    /// form of the monolith's uncached decode, dispatching to
    /// [`CentralServer::pair_counts_across`] with the two holders (which
    /// coincide for a shard-local pair).
    fn pair_counts_uncached(
        &self,
        a: RsuId,
        b: RsuId,
        scratch: &mut DecodeScratch,
    ) -> Result<PairCounts, SimError> {
        let (sa, sb) = (self.shard_of(a), self.shard_of(b));
        self.obs.inc(if sa == sb {
            "shard.local_pair"
        } else {
            "shard.cross_pair"
        });
        self.shards[sa].pair_counts_across(&self.shards[sb], a, b, scratch, &self.obs)
    }

    /// [`pair_counts_uncached`](Self::pair_counts_uncached) behind the
    /// composite memo, mirroring [`CentralServer`]'s memoized path.
    fn pair_counts(&self, a: RsuId, b: RsuId) -> Result<PairCounts, SimError> {
        let key = if a <= b { (a, b) } else { (b, a) };
        if let Some(counts) = self.pair_memo.read().expect("pair memo poisoned").get(&key) {
            return Ok(*counts);
        }
        let counts = with_thread_scratch(|s| self.pair_counts_uncached(a, b, s))?;
        self.pair_memo
            .write()
            .expect("pair memo poisoned")
            .insert(key, counts);
        Ok(counts)
    }

    /// Estimates the point-to-point volume between two uploaded RSUs,
    /// bit-identical to [`CentralServer::estimate`] on the same uploads.
    ///
    /// # Errors
    ///
    /// As [`CentralServer::estimate`].
    pub fn estimate(&self, a: RsuId, b: RsuId) -> Result<Estimate, SimError> {
        Ok(estimate_from_counts(
            &self.pair_counts(a, b)?,
            self.scheme.s(),
        )?)
    }

    /// Like [`estimate`](Self::estimate) but clamps saturated zero
    /// counts, as [`CentralServer::estimate_or_clamp`].
    ///
    /// # Errors
    ///
    /// As [`CentralServer::estimate_or_clamp`].
    pub fn estimate_or_clamp(&self, a: RsuId, b: RsuId) -> Result<Estimate, SimError> {
        Ok(estimate_from_counts_or_clamp(
            &self.pair_counts(a, b)?,
            self.scheme.s(),
        )?)
    }

    /// Answers a pair query with the monolith's exact degradation
    /// ladder ([`CentralServer::estimate_or_degraded`]), each side's
    /// upload and history read from its owning shard.
    ///
    /// # Errors
    ///
    /// As [`CentralServer::estimate_or_degraded`].
    pub fn estimate_or_degraded(&self, a: RsuId, b: RsuId) -> Result<PairEstimate, SimError> {
        let (sa, sb) = (self.shard_of(a), self.shard_of(b));
        self.shards[sa]
            .estimate_or_degraded_across(&self.shards[sb], a, b, || self.pair_counts(a, b))
    }

    /// The full origin–destination matrix over every RSU any shard
    /// knows about, with one worker per available core (see
    /// [`od_matrix_threads`](Self::od_matrix_threads)).
    ///
    /// # Errors
    ///
    /// As [`od_matrix_threads`](Self::od_matrix_threads).
    pub fn od_matrix(&self) -> Result<OdMatrix, SimError> {
        self.od_matrix_threads(crate::concurrent::default_threads())
    }

    /// [`od_matrix`](Self::od_matrix) with an explicit worker count —
    /// the same fan-out as [`CentralServer::od_matrix_threads`] (same
    /// RSU discovery, same pair triangle, same per-RSU prefetch, same
    /// sequential-fallback threshold, same memo bypass), with each
    /// pair's prefetched state drawn from its owning shard.
    ///
    /// # Errors
    ///
    /// As [`CentralServer::od_matrix_threads`].
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
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .collect();
        self.obs.add("od_matrix.pairs", pairs.len() as u64);
        let shard_idx: Vec<usize> = rsus.iter().map(|&rsu| self.shard_of(rsu)).collect();
        let pre: Vec<RsuDecodeRef<'_>> = rsus
            .iter()
            .zip(&shard_idx)
            .map(|(&rsu, &s)| self.shards[s].prefetch_decode_ref(rsu))
            .collect();
        let threads = od_effective_threads(threads, &pre, pairs.len());
        let computed =
            crate::concurrent::parallel_map_threads(pairs.clone(), threads, |&(i, j)| {
                let (a, b) = (&pre[i], &pre[j]);
                a.holder.estimate_or_degraded_prefetched(a, b, || {
                    self.obs.inc(if shard_idx[i] == shard_idx[j] {
                        "shard.local_pair"
                    } else {
                        "shard.cross_pair"
                    });
                    with_thread_scratch(|s| pair_counts_prefetched(a, b, s, &self.obs))
                })
            });
        OdMatrix::from_pair_estimates(rsus, &pairs, computed)
    }

    /// Ends the period on every shard and merges the (disjoint) per-RSU
    /// next-period sizes — exactly the map the monolith's
    /// [`CentralServer::finish_period`] would return for the union of
    /// the shards' state.
    ///
    /// # Errors
    ///
    /// As [`CentralServer::finish_period`].
    pub fn finish_period(&mut self) -> Result<BTreeMap<RsuId, usize>, SimError> {
        self.obs.inc("server.finish_period.calls");
        let mut sizes = BTreeMap::new();
        for shard in &mut self.shards {
            sizes.append(&mut shard.finish_period()?);
        }
        self.pair_memo
            .get_mut()
            .expect("pair memo poisoned")
            .clear();
        Ok(sizes)
    }
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

    fn servers(shards: usize) -> (CentralServer, ShardedServer) {
        (
            CentralServer::new(scheme(), 0.5).unwrap(),
            ShardedServer::new(scheme(), 0.5, shards).unwrap(),
        )
    }

    fn feed_both(mono: &mut CentralServer, sharded: &mut ShardedServer, rsus: u64) {
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
        let mut mono = CentralServer::new(scheme(), 0.5)
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
        let mut counters = obs_shard.snapshot().counters;
        counters.retain(|name, _| !name.starts_with("shard.") && !name.starts_with("batch."));
        assert_eq!(counters, obs_mono.snapshot().counters);
    }
}
