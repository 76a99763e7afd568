//! Durable ingestion: [`DurableServer`] wraps a [`ShardedServer`] with
//! a write-ahead frame log and periodic whole-deployment checkpoints
//! (both from `vcps-durable`), so a process crash between `receive` and
//! `finish_period` no longer loses the period's masked uploads.
//!
//! # Recovery model
//!
//! Uploads arrive as wire frames through one entry point,
//! [`DurableServer::receive_wire`]. Each frame is validated once as a
//! sequenced [`UploadFrameRef`] (tag 5 or 6; bare tags 3/4 carry no
//! sequence number and are refused), appended to the WAL *verbatim* —
//! the log is the wire, no re-encode — and only then applied from the
//! view already validated (fsynced per record by default, or batched
//! under a group-commit [`FlushPolicy`] — see DESIGN.md §18). Every
//! accepted frame is logged, whatever its outcome, not just `Fresh`:
//! recovery replays the log through the very same validate-and-apply
//! step, so dedup and sequencing decisions are reproduced *by
//! construction* instead of by a recovery routine that could drift.
//! Recovery is therefore:
//!
//! 1. load the newest checkpoint that validates **and** is covered by
//!    the WAL's surviving prefix (a checkpoint ahead of a mid-file
//!    corruption is ignored — state is only trusted when the log that
//!    produced it is);
//! 2. replay the WAL records past the checkpoint through that same
//!    validate-and-apply step, silently (the rebuilt server carries a
//!    disabled observability handle during replay — every replayed
//!    frame was already counted when it was first accepted, so counters
//!    fire exactly once per live event and a crashed-and-recovered
//!    run's registry matches an uninterrupted run's, modulo the `wal.*`
//!    series);
//! 3. truncate any torn tail so future appends land after the last
//!    valid record, and re-attach the real observability handle.
//!
//! Torn writes, truncated tails, and bit-flipped records come back as
//! typed [`DurabilityError`]s in the [`RecoveryReport`] — the scan
//! stops at the first corrupt record, never panics, and never applies
//! a record that failed its checksum. See DESIGN.md §17.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use vcps_core::estimator::Estimate;
use vcps_core::{CoreError, PairEstimate, RsuId, Scheme};
use vcps_durable::{read_wal, CheckpointStore, DurabilityError, FlushPolicy, WalWriter};
use vcps_obs::{Level, Obs, Phase, Value};

use crate::engine::ServerBackend;
use crate::protocol::{CheckpointSet, UploadFrameRef};
use crate::{OdMatrix, ReceiveOutcome, ShardedServer, SimError};

/// File name of the frame log inside a durability directory.
pub const WAL_FILE: &str = "frames.wal";

/// Subdirectory holding published checkpoints.
pub const CHECKPOINT_DIR: &str = "checkpoints";

/// Durability tuning for a [`DurableServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DurableOptions {
    /// Publish a whole-deployment checkpoint every this many WAL
    /// records (`None`: log-only, recovery replays from the start).
    /// Must be positive when set.
    pub checkpoint_interval: Option<u64>,
    /// When WAL appends are flushed to stable storage (group commit,
    /// DESIGN.md §18). The default, [`FlushPolicy::PerRecord`], keeps
    /// the original acknowledge-after-fsync semantics; grouped policies
    /// trade a bounded window of acknowledged-but-volatile frames for
    /// an order-of-magnitude fsync reduction. Thresholded policies must
    /// be positive.
    pub flush: FlushPolicy,
}

impl DurableOptions {
    /// Log-only durability: every frame is persisted, no checkpoints.
    #[must_use]
    pub fn log_only() -> Self {
        Self::default()
    }

    /// Checkpoint every `interval` WAL records.
    #[must_use]
    pub fn with_checkpoint_every(mut self, interval: u64) -> Self {
        self.checkpoint_interval = Some(interval);
        self
    }

    /// Sets the WAL group-commit flush policy.
    #[must_use]
    pub fn with_flush(mut self, flush: FlushPolicy) -> Self {
        self.flush = flush;
        self
    }

    fn validate(&self) -> Result<(), SimError> {
        if self.checkpoint_interval == Some(0) {
            return Err(SimError::Core(CoreError::InvalidConfig {
                parameter: "checkpoint_interval",
                reason: "must be positive when set".to_string(),
            }));
        }
        if matches!(
            self.flush,
            FlushPolicy::EveryRecords(0) | FlushPolicy::EveryBytes(0)
        ) {
            return Err(SimError::Core(CoreError::InvalidConfig {
                parameter: "flush",
                reason: "flush threshold must be positive".to_string(),
            }));
        }
        Ok(())
    }
}

/// What [`DurableServer::recover`] found on disk and did about it.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// WAL records covered by the restored checkpoint (0: no usable
    /// checkpoint, full replay).
    pub checkpoint_records: u64,
    /// WAL records replayed through the live validate-and-apply step.
    pub replayed_records: u64,
    /// Bytes of torn/corrupt WAL tail discarded before resuming
    /// appends.
    pub truncated_bytes: u64,
    /// Why the WAL scan stopped early, if it did (`None`: the log ended
    /// cleanly on a record boundary).
    pub tail_error: Option<DurabilityError>,
}

/// A [`ShardedServer`] whose ingestion is write-ahead logged and
/// periodically checkpointed, recoverable bit-identically after a
/// process crash (see the module docs for the recovery model).
///
/// Reads go straight to the wrapped server via [`server`](Self::server)
/// — durability is an ingest-side concern only.
#[derive(Debug)]
pub struct DurableServer {
    inner: ShardedServer,
    wal: WalWriter,
    store: CheckpointStore,
    options: DurableOptions,
    records_logged: u64,
    last_checkpoint: u64,
}

impl DurableServer {
    /// Arms the WAL writer's drop hook: a writer dropped while still
    /// holding group-commit records has silently discarded
    /// acknowledged-but-unflushed frames, which must show up in the
    /// deployment's counters rather than only at the next recovery.
    fn install_drop_accounting(wal: &mut WalWriter, obs: &Obs) {
        let obs = obs.clone();
        wal.set_drop_hook(move |records, bytes| {
            obs.add("wal.dropped_buffered_records", records);
            obs.add("wal.dropped_buffered_bytes", bytes);
            obs.event(
                Level::Warn,
                "wal.dropped_buffered_records",
                &[
                    ("records", Value::U64(records)),
                    ("bytes", Value::U64(bytes)),
                ],
            );
        });
    }

    /// Starts a fresh durable server in `dir` (created if needed): a
    /// new WAL (truncating any previous one) and an empty deployment.
    /// Use [`recover`](Self::recover) to resume from existing state
    /// instead.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Core`] for an invalid shard count, alpha,
    /// or checkpoint interval, and [`SimError::Durability`] if the
    /// directory or log cannot be created.
    pub fn create(
        scheme: Scheme,
        history_alpha: f64,
        shard_count: usize,
        dir: &Path,
        options: DurableOptions,
        obs: &Obs,
    ) -> Result<Self, SimError> {
        options.validate()?;
        // Opening the checkpoint store first creates `dir` itself (the
        // store's directory is nested inside it).
        let store = CheckpointStore::open(dir.join(CHECKPOINT_DIR))?;
        let mut wal = WalWriter::create(dir.join(WAL_FILE))?.with_flush_policy(options.flush);
        Self::install_drop_accounting(&mut wal, obs);
        let inner = ShardedServer::new(scheme, history_alpha, shard_count)?.with_obs(obs.clone());
        Ok(Self {
            inner,
            wal,
            store,
            options,
            records_logged: 0,
            last_checkpoint: 0,
        })
    }

    /// Rebuilds a durable server from what `dir` holds: newest usable
    /// checkpoint plus a silent WAL-tail replay (see the module docs),
    /// tolerating torn writes, truncated tails, and bit-flipped records
    /// — the scan stops at the first corrupt record and the tail is
    /// discarded, reported in the [`RecoveryReport`]. A missing WAL is
    /// an empty one (the crash may have landed before the first
    /// append).
    ///
    /// `history_alpha` and `shard_count` describe the deployment being
    /// recovered; a checkpoint whose topology disagrees with
    /// `shard_count` is rejected rather than silently re-routing RSUs.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Durability`] for hard I/O failures or a
    /// non-WAL file where the log should be, [`SimError::Core`] for a
    /// topology mismatch or invalid parameters, and
    /// [`SimError::MalformedMessage`] if a checksummed WAL record or
    /// checkpoint payload does not parse (possible only for a foreign
    /// or logically corrupted store — checksums catch random damage
    /// first). Never panics.
    pub fn recover(
        scheme: Scheme,
        history_alpha: f64,
        shard_count: usize,
        dir: &Path,
        options: DurableOptions,
        obs: &Obs,
    ) -> Result<(Self, RecoveryReport), SimError> {
        options.validate()?;
        let _timer = obs.phase(Phase::WalRecover);
        let store = CheckpointStore::open(dir.join(CHECKPOINT_DIR))?;
        let wal_path = dir.join(WAL_FILE);
        let (records, tail_error, truncated_bytes, mut wal) = if wal_path.exists() {
            let file_len = std::fs::metadata(&wal_path).map(|m| m.len()).unwrap_or(0);
            let scan = read_wal(&wal_path)?;
            let truncated = file_len.saturating_sub(scan.valid_len);
            let wal = WalWriter::resume(&wal_path, &scan)?.with_flush_policy(options.flush);
            (scan.records, scan.tail_error, truncated, wal)
        } else {
            (
                Vec::new(),
                None,
                0,
                WalWriter::create(&wal_path)?.with_flush_policy(options.flush),
            )
        };
        Self::install_drop_accounting(&mut wal, obs);
        let total = records.len() as u64;
        // A checkpoint is only usable if the surviving log prefix
        // covers it: state is trusted exactly as far as the log that
        // produced it.
        let checkpoint = store.latest_valid()?.filter(|c| c.seq <= total);
        let (mut inner, start) = match checkpoint {
            Some(c) => {
                let set = CheckpointSet::decode(&c.payload)?;
                if set.frames_applied != c.seq {
                    return Err(SimError::MalformedMessage {
                        reason: "checkpoint sequence disagrees with its payload",
                    });
                }
                if set.shards.len() != shard_count {
                    return Err(SimError::Core(CoreError::InvalidConfig {
                        parameter: "shard_count",
                        reason: format!(
                            "checkpoint holds {} shards, deployment expects {shard_count}",
                            set.shards.len()
                        ),
                    }));
                }
                (
                    ShardedServer::restore_from_checkpoint(scheme, &set)?,
                    set.frames_applied,
                )
            }
            None => (ShardedServer::new(scheme, history_alpha, shard_count)?, 0),
        };
        // Silent replay: `inner` carries a disabled observability
        // handle here (both construction paths leave it disabled), so
        // replayed frames are not double-counted.
        let mut replayed = 0u64;
        for frame in &records[start as usize..] {
            inner.apply(&UploadFrameRef::decode_sequenced_ref(frame)?);
            replayed += 1;
        }
        inner.set_obs(obs.clone());
        obs.inc("wal.recover");
        obs.add("wal.replay.records", replayed);
        let report = RecoveryReport {
            checkpoint_records: start,
            replayed_records: replayed,
            truncated_bytes,
            tail_error,
        };
        Ok((
            Self {
                inner,
                wal,
                store,
                options,
                records_logged: total,
                last_checkpoint: start,
            },
            report,
        ))
    }

    /// Simulates a process crash and restart: drops every in-memory
    /// structure — shard state, dedup bookkeeping, history, and any
    /// group-commit-buffered WAL records — and rebuilds the deployment
    /// from its directory via [`recover`](Self::recover) with the same
    /// scheme, alpha, topology, options, and observability handle.
    /// History seeds are configuration, not logged state: re-apply them
    /// unless a checkpoint restored them.
    ///
    /// # Errors
    ///
    /// As [`recover`](Self::recover).
    pub fn crash_and_recover(self) -> Result<(Self, RecoveryReport), SimError> {
        let scheme = self.inner.scheme().clone();
        let history_alpha = self.inner.history_alpha();
        let shard_count = self.inner.shard_count();
        let obs = self.obs().clone();
        let options = self.options;
        let dir = self
            .wal
            .path()
            .parent()
            .expect("the WAL lives inside the deployment directory")
            .to_path_buf();
        drop(self);
        Self::recover(scheme, history_alpha, shard_count, &dir, options, &obs)
    }

    /// Appends one frame to the WAL — the write-ahead step, always
    /// before the in-memory apply. Whether the append is fsynced here
    /// (per-record) or batched into a later group commit is the
    /// [`FlushPolicy`]'s call; `wal.fsync` counts the flushes that
    /// actually happened.
    fn log_frame(&mut self, frame: &[u8]) -> Result<(), SimError> {
        let obs = self.inner.obs().clone();
        let _timer = obs.phase(Phase::WalAppend);
        let flushes_before = self.wal.flushes();
        self.wal.append(frame)?;
        self.records_logged += 1;
        obs.inc("wal.append");
        obs.add("wal.append.bytes", frame.len() as u64);
        obs.add("wal.fsync", self.wal.flushes() - flushes_before);
        Ok(())
    }

    /// Publishes a checkpoint if the configured cadence is due.
    fn maybe_checkpoint(&mut self) -> Result<(), SimError> {
        if let Some(interval) = self.options.checkpoint_interval {
            if self.records_logged - self.last_checkpoint >= interval {
                self.checkpoint_now()?;
            }
        }
        Ok(())
    }

    /// Flushes any group-commit-buffered WAL records to stable storage
    /// — the explicit flush boundary for [`FlushPolicy::Manual`] (and
    /// an early boundary for the thresholded policies). Every frame
    /// acknowledged before this call is durable once it returns.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Durability`] if the write or fsync fails.
    pub fn flush_wal(&mut self) -> Result<(), SimError> {
        let flushes_before = self.wal.flushes();
        self.wal.sync()?;
        self.inner
            .obs()
            .add("wal.fsync", self.wal.flushes() - flushes_before);
        Ok(())
    }

    /// Publishes a whole-deployment checkpoint covering everything
    /// logged so far, unconditionally. The WAL is flushed first so the
    /// checkpoint never claims records the log does not durably hold
    /// (recovery trusts a checkpoint only as far as the surviving log
    /// prefix).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Durability`] if the flush or publication
    /// fails.
    pub fn checkpoint_now(&mut self) -> Result<(), SimError> {
        self.flush_wal()?;
        let set = self.inner.checkpoint(self.records_logged);
        self.store.publish(self.records_logged, &set.encode())?;
        self.last_checkpoint = self.records_logged;
        self.inner.obs().inc("wal.checkpoint");
        Ok(())
    }

    /// Validates one sequenced upload frame (tag 5 or 6), appends its
    /// bytes verbatim to the WAL as one record, then applies the view
    /// already validated through [`ShardedServer::receive_wire`]'s
    /// routing — the same apply [`recover`](Self::recover) replays
    /// through.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MalformedMessage`] for a bare upload (tags
    /// 3/4) or a frame the validator rejects — nothing is logged or
    /// applied — and [`SimError::Durability`] if the append, fsync, or
    /// a due checkpoint fails, in which case the frame was **not**
    /// applied (log first, apply second).
    pub fn receive_wire(&mut self, wire: &[u8]) -> Result<Vec<ReceiveOutcome>, SimError> {
        // Validate before logging: a malformed frame must never enter
        // the log, or replay would fail on it.
        let frame = UploadFrameRef::decode_sequenced_ref(wire)?;
        self.log_frame(wire)?;
        let outcomes = self.inner.apply(&frame);
        self.maybe_checkpoint()?;
        Ok(outcomes)
    }

    /// [`ShardedServer::finish_period`], followed by a mandatory
    /// checkpoint: closing a period folds uploads into history and
    /// drops them, a transition the WAL does not record — the
    /// checkpoint is what keeps recovery from resurrecting the closed
    /// period's uploads as current.
    ///
    /// # Errors
    ///
    /// Propagates sizing failures and [`SimError::Durability`] from the
    /// checkpoint publication.
    pub fn finish_period(&mut self) -> Result<BTreeMap<RsuId, usize>, SimError> {
        let sizes = self.inner.finish_period()?;
        self.checkpoint_now()?;
        Ok(sizes)
    }

    /// The wrapped server — all reads (estimates, O–D matrices) go
    /// through here and are bit-identical to a non-durable server's.
    #[must_use]
    pub fn server(&self) -> &ShardedServer {
        &self.inner
    }

    /// Consumes the wrapper, yielding the wrapped server (the WAL file
    /// and checkpoints stay on disk).
    #[must_use]
    pub fn into_server(self) -> ShardedServer {
        self.inner
    }

    /// The attached observability handle (the wrapped server's).
    #[must_use]
    pub fn obs(&self) -> &Obs {
        self.inner.obs()
    }

    /// Re-seeds an RSU's historical average (see
    /// [`ShardedServer::seed_history`]). Seeds are engine-provided
    /// configuration, not logged state — a recovering driver re-applies
    /// them after [`recover`](Self::recover).
    pub fn seed_history(&mut self, rsu: RsuId, average: f64) {
        self.inner.seed_history(rsu, average);
    }

    /// WAL records appended so far (including those found by
    /// recovery).
    #[must_use]
    pub fn records_logged(&self) -> u64 {
        self.records_logged
    }

    /// The WAL file's path.
    #[must_use]
    pub fn wal_path(&self) -> &Path {
        self.wal.path()
    }

    /// The checkpoint directory.
    #[must_use]
    pub fn checkpoint_dir(&self) -> PathBuf {
        self.store.dir().to_path_buf()
    }
}

impl ServerBackend for DurableServer {
    fn scheme(&self) -> &Scheme {
        self.inner.scheme()
    }

    fn seed(&mut self, rsu: RsuId, average: f64) {
        self.seed_history(rsu, average);
    }

    fn finish(&mut self) -> Result<BTreeMap<RsuId, usize>, SimError> {
        self.finish_period()
    }

    fn od(&self, threads: usize) -> Result<OdMatrix, SimError> {
        self.inner.od_matrix_threads(threads)
    }

    fn estimate_or_clamp(&self, a: RsuId, b: RsuId) -> Result<Estimate, SimError> {
        self.inner.estimate_or_clamp(a, b)
    }

    fn estimate_or_degraded(&self, a: RsuId, b: RsuId) -> Result<PairEstimate, SimError> {
        self.inner.estimate_or_degraded(a, b)
    }

    fn ingest_wire(&mut self, wire: &[u8]) -> Result<Vec<ReceiveOutcome>, SimError> {
        self.receive_wire(wire)
    }

    fn obs(&self) -> &Obs {
        DurableServer::obs(self)
    }

    fn records_logged(&self) -> u64 {
        self.records_logged
    }

    fn crash_and_recover(self) -> Result<(Self, RecoveryReport), SimError> {
        DurableServer::crash_and_recover(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcps_core::{BitArray, RsuId, Scheme};

    use crate::protocol::{BatchUpload, PeriodUpload, SequencedUpload};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "vcps-sim-durable-test-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn scheme() -> Scheme {
        Scheme::variable(2, 3.0, 9).unwrap()
    }

    /// Ingests one sequenced upload through the wire entry point.
    fn ingest(durable: &mut DurableServer, frame: &SequencedUpload) -> ReceiveOutcome {
        let outcomes = durable.receive_wire(&frame.encode()).unwrap();
        assert_eq!(outcomes.len(), 1);
        outcomes[0]
    }

    fn sequenced(rsu: u64, seq: u64, ones: &[usize]) -> SequencedUpload {
        let mut bits = BitArray::new(256);
        for &i in ones {
            bits.set(i);
        }
        SequencedUpload {
            seq,
            upload: PeriodUpload {
                rsu: RsuId(rsu),
                counter: ones.len() as u64,
                bits,
            },
        }
    }

    #[test]
    fn options_reject_zero_interval() {
        let dir = temp_dir("opts");
        assert!(DurableServer::create(
            scheme(),
            1.0,
            2,
            &dir,
            DurableOptions::log_only().with_checkpoint_every(0),
            &Obs::disabled(),
        )
        .is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dropping_with_buffered_records_is_counted() {
        let dir = temp_dir("drop-counted");
        let obs = Obs::enabled(Level::Info);
        let mut durable = DurableServer::create(
            scheme(),
            1.0,
            2,
            &dir,
            DurableOptions::log_only().with_flush(FlushPolicy::Manual),
            &obs,
        )
        .unwrap();
        ingest(&mut durable, &sequenced(1, 0, &[3, 77]));
        ingest(&mut durable, &sequenced(2, 0, &[9]));
        // Simulated crash: two acknowledged frames never hit disk.
        drop(durable);
        let snap = obs.snapshot();
        assert_eq!(snap.counters["wal.dropped_buffered_records"], 2);
        assert!(snap.counters["wal.dropped_buffered_bytes"] > 0);

        // An explicit flush before drop leaves the counters untouched.
        let dir2 = temp_dir("drop-flushed");
        let obs2 = Obs::enabled(Level::Info);
        let mut durable = DurableServer::create(
            scheme(),
            1.0,
            2,
            &dir2,
            DurableOptions::log_only().with_flush(FlushPolicy::Manual),
            &obs2,
        )
        .unwrap();
        ingest(&mut durable, &sequenced(1, 0, &[3, 77]));
        durable.flush_wal().unwrap();
        drop(durable);
        assert!(!obs2
            .snapshot()
            .counters
            .contains_key("wal.dropped_buffered_records"));
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn crash_and_recover_reproduces_state_bit_identically() {
        let dir = temp_dir("recover");
        let obs = Obs::disabled();
        let mut reference = ShardedServer::new(scheme(), 1.0, 4).unwrap();
        let mut durable = DurableServer::create(
            scheme(),
            1.0,
            4,
            &dir,
            DurableOptions::log_only().with_checkpoint_every(3),
            &obs,
        )
        .unwrap();
        // A stream exercising every verdict: fresh, duplicate,
        // conflicting, stale.
        let frames = vec![
            sequenced(1, 0, &[3, 77]),
            sequenced(2, 0, &[9]),
            sequenced(1, 0, &[3, 77]), // duplicate
            sequenced(2, 0, &[9, 10]), // conflicting
            sequenced(3, 2, &[0]),
            sequenced(3, 1, &[200]), // stale
            sequenced(9, 5, &[8, 16, 32]),
        ];
        for f in &frames {
            let expected = reference.receive_sequenced(f.clone());
            let got = ingest(&mut durable, f);
            assert_eq!(got, expected);
        }
        let logged = durable.records_logged();
        drop(durable); // the crash: all in-memory state gone
        let (recovered, report) =
            DurableServer::recover(scheme(), 1.0, 4, &dir, DurableOptions::log_only(), &obs)
                .unwrap();
        assert_eq!(report.tail_error, None);
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(report.checkpoint_records + report.replayed_records, logged);
        assert!(report.checkpoint_records > 0, "interval 3 must have fired");
        assert_eq!(recovered.records_logged(), logged);
        // Durable-state equality via the checkpoint image (PartialEq on
        // the wrapped servers' snapshots — derived caches excluded).
        assert_eq!(
            recovered.server().checkpoint(0),
            reference.checkpoint(0),
            "recovered state must be bit-identical"
        );
        // And the recovered server keeps ingesting correctly.
        let mut recovered = recovered;
        let f = sequenced(3, 1, &[200]);
        assert_eq!(ingest(&mut recovered, &f), reference.receive_sequenced(f));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_tolerates_torn_tail() {
        let dir = temp_dir("torn");
        let obs = Obs::disabled();
        let mut durable =
            DurableServer::create(scheme(), 1.0, 2, &dir, DurableOptions::log_only(), &obs)
                .unwrap();
        let mut reference = ShardedServer::new(scheme(), 1.0, 2).unwrap();
        for i in 0..4u64 {
            let f = sequenced(i + 1, 0, &[i as usize]);
            ingest(&mut durable, &f);
            if i < 3 {
                reference.receive_sequenced(f);
            }
        }
        let wal = durable.wal_path().to_path_buf();
        drop(durable);
        // Tear the last record mid-payload.
        let bytes = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, &bytes[..bytes.len() - 3]).unwrap();
        let (recovered, report) =
            DurableServer::recover(scheme(), 1.0, 2, &dir, DurableOptions::log_only(), &obs)
                .unwrap();
        assert!(matches!(
            report.tail_error,
            Some(DurabilityError::TruncatedRecord { .. })
        ));
        assert!(report.truncated_bytes > 0);
        assert_eq!(recovered.records_logged(), 3);
        assert_eq!(recovered.server().checkpoint(0), reference.checkpoint(0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_rejects_topology_mismatch() {
        let dir = temp_dir("topology");
        let obs = Obs::disabled();
        let mut durable = DurableServer::create(
            scheme(),
            1.0,
            4,
            &dir,
            DurableOptions::log_only().with_checkpoint_every(1),
            &obs,
        )
        .unwrap();
        ingest(&mut durable, &sequenced(1, 0, &[5]));
        drop(durable);
        assert!(matches!(
            DurableServer::recover(scheme(), 1.0, 2, &dir, DurableOptions::log_only(), &obs),
            Err(SimError::Core(CoreError::InvalidConfig {
                parameter: "shard_count",
                ..
            }))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_of_missing_directory_starts_fresh() {
        let dir = temp_dir("fresh").join("never-written");
        let obs = Obs::disabled();
        let (server, report) =
            DurableServer::recover(scheme(), 1.0, 2, &dir, DurableOptions::log_only(), &obs)
                .unwrap();
        assert_eq!(report.replayed_records, 0);
        assert_eq!(report.checkpoint_records, 0);
        assert_eq!(server.records_logged(), 0);
        std::fs::remove_dir_all(dir.parent().unwrap()).unwrap();
    }

    /// A batch frame is logged as one record holding the wire bytes
    /// verbatim — no re-encode drift — and replays to the state a plain
    /// server reaches from the same frame.
    #[test]
    fn batch_wire_logs_raw_bytes_and_replays() {
        let dir = temp_dir("batch-wire");
        let obs = Obs::disabled();
        let mut durable =
            DurableServer::create(scheme(), 1.0, 2, &dir, DurableOptions::log_only(), &obs)
                .unwrap();
        let mut reference = ShardedServer::new(scheme(), 1.0, 2).unwrap();
        let batch =
            BatchUpload::new(vec![sequenced(1, 0, &[5]), sequenced(2, 0, &[6, 7])]).unwrap();
        let wire = batch.encode();
        let expected = reference.receive_wire(&wire).unwrap();
        assert_eq!(durable.receive_wire(&wire).unwrap(), expected);
        assert_eq!(durable.records_logged(), 1, "one record per batch");
        // The log holds the wire bytes verbatim — no re-encode drift.
        let logged = read_wal(durable.wal_path()).unwrap();
        assert_eq!(logged.records, vec![wire.to_vec()]);
        // A malformed wire is rejected without logging anything.
        assert!(durable.receive_wire(&wire[..wire.len() - 1]).is_err());
        assert_eq!(durable.records_logged(), 1);
        drop(durable);
        let (recovered, report) =
            DurableServer::recover(scheme(), 1.0, 2, &dir, DurableOptions::log_only(), &obs)
                .unwrap();
        assert_eq!(report.replayed_records, 1);
        assert_eq!(recovered.server().checkpoint(0), reference.checkpoint(0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Bare uploads carry no sequence number, so a re-delivery could not
    /// dedup on replay: they are refused before anything is logged.
    #[test]
    fn bare_uploads_are_refused_unlogged() {
        let dir = temp_dir("bare");
        let obs = Obs::disabled();
        let mut durable =
            DurableServer::create(scheme(), 1.0, 2, &dir, DurableOptions::log_only(), &obs)
                .unwrap();
        let bare = sequenced(1, 0, &[5]).upload;
        for wire in [bare.encode(), bare.encode_compact()] {
            assert!(matches!(
                durable.receive_wire(&wire),
                Err(SimError::MalformedMessage { .. })
            ));
        }
        assert_eq!(durable.records_logged(), 0);
        assert_eq!(durable.server().upload_count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn options_reject_zero_flush_thresholds() {
        let dir = temp_dir("flush-opts");
        for flush in [FlushPolicy::EveryRecords(0), FlushPolicy::EveryBytes(0)] {
            assert!(DurableServer::create(
                scheme(),
                1.0,
                2,
                &dir,
                DurableOptions::log_only().with_flush(flush),
                &Obs::disabled(),
            )
            .is_err());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Group commit: a crash loses exactly the buffered (unflushed)
    /// tail, and recovery reproduces the state of a reference server
    /// fed the surviving prefix. `finish_period` (checkpoint) is a
    /// flush boundary, so a closed period is never lost.
    #[test]
    fn group_commit_crash_loses_only_the_buffered_tail() {
        let dir = temp_dir("group-commit");
        let obs = Obs::disabled();
        let options = DurableOptions::log_only().with_flush(FlushPolicy::EveryRecords(3));
        let mut durable = DurableServer::create(scheme(), 1.0, 2, &dir, options, &obs).unwrap();
        // 8 frames under flush-every-3: records 1..=6 are flushed, 7–8
        // sit in the buffer when the crash hits.
        let frames: Vec<SequencedUpload> =
            (1..=8u64).map(|r| sequenced(r, 0, &[r as usize])).collect();
        for f in &frames {
            ingest(&mut durable, f);
        }
        drop(durable); // crash: buffered tail gone
        let (recovered, report) =
            DurableServer::recover(scheme(), 1.0, 2, &dir, options, &obs).unwrap();
        assert_eq!(report.tail_error, None, "a lost tail is not a torn tail");
        assert_eq!(recovered.records_logged(), 6);
        let mut reference = ShardedServer::new(scheme(), 1.0, 2).unwrap();
        for f in &frames[..6] {
            reference.receive_sequenced(f.clone());
        }
        assert_eq!(recovered.server().checkpoint(0), reference.checkpoint(0));

        // Same stream, but with an explicit flush boundary before the
        // crash: nothing is lost.
        let dir2 = temp_dir("group-commit-flushed");
        let mut durable = DurableServer::create(scheme(), 1.0, 2, &dir2, options, &obs).unwrap();
        let mut reference = ShardedServer::new(scheme(), 1.0, 2).unwrap();
        for f in &frames {
            ingest(&mut durable, f);
            reference.receive_sequenced(f.clone());
        }
        durable.flush_wal().unwrap();
        drop(durable);
        let (recovered, _) =
            DurableServer::recover(scheme(), 1.0, 2, &dir2, options, &obs).unwrap();
        assert_eq!(recovered.records_logged(), 8);
        assert_eq!(recovered.server().checkpoint(0), reference.checkpoint(0));
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }

    /// A checkpoint must never claim records the log does not durably
    /// hold: under Manual flushing, `checkpoint_now` (and thus
    /// `finish_period`) flushes the WAL before publishing, so the
    /// recovered checkpoint is always covered by the log prefix.
    #[test]
    fn checkpoint_flushes_buffered_records_first() {
        let dir = temp_dir("ckpt-flush");
        let obs = Obs::disabled();
        let options = DurableOptions::log_only().with_flush(FlushPolicy::Manual);
        let mut durable = DurableServer::create(scheme(), 1.0, 2, &dir, options, &obs).unwrap();
        let mut reference = ShardedServer::new(scheme(), 1.0, 2).unwrap();
        for f in [sequenced(1, 0, &[5]), sequenced(2, 0, &[6])] {
            ingest(&mut durable, &f);
            reference.receive_sequenced(f);
        }
        durable.finish_period().unwrap();
        reference.finish_period().unwrap();
        drop(durable); // no explicit flush after the checkpoint
        let (recovered, report) =
            DurableServer::recover(scheme(), 1.0, 2, &dir, options, &obs).unwrap();
        assert_eq!(report.checkpoint_records, 2, "checkpoint covered by log");
        assert_eq!(recovered.server().upload_count(), 0);
        assert_eq!(recovered.server().checkpoint(0), reference.checkpoint(0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn finish_period_checkpoint_prevents_upload_resurrection() {
        let dir = temp_dir("finish");
        let obs = Obs::disabled();
        let mut durable =
            DurableServer::create(scheme(), 1.0, 2, &dir, DurableOptions::log_only(), &obs)
                .unwrap();
        let mut reference = ShardedServer::new(scheme(), 1.0, 2).unwrap();
        for f in [sequenced(1, 0, &[5]), sequenced(2, 0, &[6])] {
            ingest(&mut durable, &f);
            reference.receive_sequenced(f);
        }
        durable.finish_period().unwrap();
        reference.finish_period().unwrap();
        drop(durable);
        let (recovered, _) =
            DurableServer::recover(scheme(), 1.0, 2, &dir, DurableOptions::log_only(), &obs)
                .unwrap();
        assert_eq!(recovered.server().upload_count(), 0);
        assert_eq!(recovered.server().checkpoint(0), reference.checkpoint(0));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
