//! Durable ingestion: [`DurableServer`] wraps a [`ShardedServer`] with
//! a write-ahead log (from `vcps-durable`) that alone reproduces the
//! deployment's state, so a process crash loses nothing the log made
//! durable.
//!
//! # The log is the state
//!
//! Every state transition is a WAL record, appended *before* it is
//! applied: an **upload** — a sequenced wire frame (tag 5 or 6; bare
//! tags 3/4 carry no sequence number and are refused) accepted by
//! [`DurableServer::receive_wire`] and logged verbatim, whatever its
//! dedup outcome; a **close** — [`DurableServer::finish_period`]; a
//! **seed** — one [`DurableServer::seed_history`] call. Only this
//! module knows the close and seed formats; their tags collide with no
//! wire tag, and `receive_wire` admits uploads only, so no network
//! client can inject one. Both are flushed before they are applied
//! under every [`FlushPolicy`], so group commit can lose only buffered
//! upload frames (DESIGN.md §18).
//!
//! Checkpoints are a cache over the log, published after each close
//! record; a failed publish costs recovery time, never state. Recovery:
//!
//! 1. load the newest checkpoint that validates **and** is covered by
//!    the WAL's surviving prefix (a checkpoint ahead of a mid-file
//!    corruption is ignored — state is only trusted when the log that
//!    produced it is), else start from scratch;
//! 2. replay the records past it through the server calls the live
//!    path made, silently (the rebuilt server carries a disabled
//!    observability handle during replay, so a crashed-and-recovered
//!    run's registry matches an uninterrupted run's, modulo the
//!    `wal.*` series);
//! 3. truncate any torn tail so future appends land after the last
//!    valid record, and re-attach the real observability handle.
//!
//! Torn writes, truncated tails, and bit-flipped records come back as
//! typed [`DurabilityError`]s in the [`RecoveryReport`] — the scan
//! stops at the first corrupt record, never panics, and never applies
//! a record that failed its checksum. See DESIGN.md §17.

use std::collections::BTreeMap;
use std::path::Path;

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

/// A close record: this one byte, nothing else.
const CLOSE_RECORD: u8 = 0xC1;

/// A seed record: this byte, then a `u64` count and `count` ×
/// (`u64` RSU id ‖ `u64` average as IEEE-754 bits), big-endian.
const SEED_RECORD: u8 = 0xC2;

/// One WAL record, validated.
enum Record<'a> {
    Upload(UploadFrameRef<'a>),
    Close,
    Seed(Vec<(RsuId, f64)>),
}

impl<'a> Record<'a> {
    /// Tells the record kinds apart by their first byte; anything that
    /// is neither a close nor a seed must be a sequenced upload frame.
    fn decode(bytes: &'a [u8]) -> Result<Self, SimError> {
        let malformed = |reason| SimError::MalformedMessage { reason };
        match bytes.split_first() {
            Some((&CLOSE_RECORD, [])) => Ok(Record::Close),
            Some((&CLOSE_RECORD, _)) => Err(malformed("close record carries trailing bytes")),
            Some((&SEED_RECORD, body)) => {
                let (count, pairs) = body
                    .split_first_chunk::<8>()
                    .ok_or(malformed("seed record truncated"))?;
                if pairs.len() % 16 != 0 || (pairs.len() / 16) as u64 != u64::from_be_bytes(*count)
                {
                    return Err(malformed("seed record length disagrees with its count"));
                }
                let word = |b: &[u8]| u64::from_be_bytes(b.try_into().expect("8-byte slice"));
                Ok(Record::Seed(
                    pairs
                        .chunks_exact(16)
                        .map(|p| (RsuId(word(&p[..8])), f64::from_bits(word(&p[8..]))))
                        .collect(),
                ))
            }
            _ => UploadFrameRef::decode_sequenced_ref(bytes).map(Record::Upload),
        }
    }
}

fn encode_seed_record(seeds: &[(RsuId, f64)]) -> Vec<u8> {
    let mut record = Vec::with_capacity(9 + 16 * seeds.len());
    record.push(SEED_RECORD);
    record.extend_from_slice(&(seeds.len() as u64).to_be_bytes());
    for &(rsu, average) in seeds {
        record.extend_from_slice(&rsu.0.to_be_bytes());
        record.extend_from_slice(&average.to_bits().to_be_bytes());
    }
    record
}

/// Durability tuning for a [`DurableServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DurableOptions {
    /// When WAL appends are flushed to stable storage (group commit,
    /// DESIGN.md §18). The default, `EveryRecords(1)`, keeps
    /// acknowledge-after-fsync semantics; larger groups trade a bounded
    /// window of acknowledged-but-volatile upload frames for an
    /// order-of-magnitude fsync reduction. The threshold must be
    /// positive.
    pub flush: FlushPolicy,
}

impl DurableOptions {
    /// Every record fsynced before it is acknowledged.
    #[must_use]
    pub fn log_only() -> Self {
        Self::default()
    }

    /// Sets the WAL group-commit flush policy.
    #[must_use]
    pub fn with_flush(mut self, flush: FlushPolicy) -> Self {
        self.flush = flush;
        self
    }

    fn validate(&self) -> Result<(), SimError> {
        if self.flush == FlushPolicy::EveryRecords(0) {
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
    /// WAL records replayed through the live apply step.
    pub replayed_records: u64,
    /// Bytes of torn/corrupt WAL tail discarded before resuming
    /// appends.
    pub truncated_bytes: u64,
    /// Why the WAL scan stopped early, if it did (`None`: the log ended
    /// cleanly on a record boundary).
    pub tail_error: Option<DurabilityError>,
}

/// A [`ShardedServer`] whose every state transition is write-ahead
/// logged, recoverable bit-identically after a process crash (see the
/// module docs for the recovery model).
///
/// Reads go straight to the wrapped server via [`server`](Self::server)
/// — durability is a write-side concern only.
#[derive(Debug)]
pub struct DurableServer {
    inner: ShardedServer,
    wal: WalWriter,
    store: CheckpointStore,
    options: DurableOptions,
    records_logged: u64,
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
    /// Returns [`SimError::Core`] for an invalid shard count, alpha, or
    /// flush threshold, and [`SimError::Durability`] if the directory
    /// or log cannot be created.
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
        })
    }

    /// Rebuilds a durable server from what `dir` holds: newest usable
    /// checkpoint (if any) plus a silent replay of every record past it
    /// (see the module docs), tolerating torn writes, truncated tails,
    /// and bit-flipped records — the scan stops at the first corrupt
    /// record and the tail is discarded, reported in the
    /// [`RecoveryReport`]. A missing WAL is an empty one (the crash may
    /// have landed before the first append).
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
        // replayed records are not double-counted. Each kind goes
        // through the server call its live path made.
        for record in &records[start as usize..] {
            match Record::decode(record)? {
                Record::Upload(frame) => {
                    inner.apply(&frame);
                }
                Record::Close => {
                    inner.finish_period()?;
                }
                Record::Seed(seeds) => inner.seed(&seeds)?,
            }
        }
        let replayed = total - start;
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
            },
            report,
        ))
    }

    /// Simulates a process crash and restart: drops every in-memory
    /// structure — shard state, dedup bookkeeping, history, and any
    /// group-commit-buffered WAL records — and rebuilds the deployment
    /// from its directory via [`recover`](Self::recover) with the same
    /// scheme, alpha, topology, options, and observability handle.
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

    /// Appends one record to the WAL — the write-ahead step, always
    /// before the in-memory apply. Whether the append is fsynced here
    /// or batched into a later group commit is the [`FlushPolicy`]'s
    /// call; `wal.fsync` counts the flushes that actually happened.
    fn log_record(&mut self, record: &[u8]) -> Result<(), SimError> {
        let obs = self.inner.obs().clone();
        let _timer = obs.phase(Phase::WalAppend);
        let flushes_before = self.wal.flushes();
        self.wal.append(record)?;
        self.records_logged += 1;
        obs.inc("wal.append");
        obs.add("wal.append.bytes", record.len() as u64);
        obs.add("wal.fsync", self.wal.flushes() - flushes_before);
        Ok(())
    }

    /// Appends a close or seed record and flushes the log through it:
    /// these are full-durability points under every [`FlushPolicy`].
    fn log_durably(&mut self, record: &[u8]) -> Result<(), SimError> {
        self.log_record(record)?;
        self.flush_wal()
    }

    /// Flushes any group-commit-buffered WAL records to stable storage
    /// — the explicit flush boundary for [`FlushPolicy::Manual`] (and
    /// an early boundary for `EveryRecords`). Every frame acknowledged
    /// before this call is durable once it returns.
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

    /// Validates one sequenced upload frame (tag 5 or 6), appends its
    /// bytes verbatim to the WAL as one record, then applies the view
    /// already validated — the same apply [`recover`](Self::recover)
    /// replays through.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MalformedMessage`] for a bare upload (tags
    /// 3/4), a close or seed record, or a frame the validator rejects —
    /// nothing is logged or applied — and [`SimError::Durability`] if
    /// the append or fsync fails, in which case the frame was **not**
    /// applied (log first, apply second).
    pub fn receive_wire(&mut self, wire: &[u8]) -> Result<Vec<ReceiveOutcome>, SimError> {
        // Validate before logging: a malformed frame must never enter
        // the log, or replay would fail on it.
        let frame = UploadFrameRef::decode_sequenced_ref(wire)?;
        self.log_record(wire)?;
        Ok(self.inner.apply(&frame))
    }

    /// Logs a close record and flushes the log through it, then
    /// [`ShardedServer::finish_period`], then publishes a checkpoint of
    /// the closed state. The checkpoint only shortens recovery: if its
    /// publication fails, `wal.checkpoint.failed` counts it and the
    /// close still stands, because the log already holds it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Durability`] if the close record cannot be
    /// made durable (nothing is applied then); propagates sizing
    /// failures.
    pub fn finish_period(&mut self) -> Result<BTreeMap<RsuId, usize>, SimError> {
        self.log_durably(&[CLOSE_RECORD])?;
        let sizes = self.inner.finish_period()?;
        let set = self.inner.checkpoint(self.records_logged);
        if let Err(e) = self.store.publish(self.records_logged, &set.encode()) {
            let error = [("error", Value::Str(e.to_string()))];
            self.obs()
                .event(Level::Warn, "wal.checkpoint.failed", &error);
            self.obs().inc("wal.checkpoint.failed");
        } else {
            self.obs().inc("wal.checkpoint");
        }
        Ok(sizes)
    }

    /// Seeds RSUs' historical averages (see
    /// [`ShardedServer::seed_history`]) as one seed record, logged and
    /// flushed before it is applied: seeds are state the log
    /// reproduces, so nothing needs re-applying after a crash.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Durability`] if the record cannot be made
    /// durable; nothing is applied then.
    pub fn seed_history(&mut self, seeds: &[(RsuId, f64)]) -> Result<(), SimError> {
        self.log_durably(&encode_seed_record(seeds))?;
        self.inner.seed(seeds)
    }

    /// The wrapped server — all reads (estimates, O–D matrices) go
    /// through here and are bit-identical to a non-durable server's.
    #[must_use]
    pub fn server(&self) -> &ShardedServer {
        &self.inner
    }

    /// The attached observability handle (the wrapped server's).
    #[must_use]
    pub fn obs(&self) -> &Obs {
        self.inner.obs()
    }

    /// WAL records appended so far, every kind (including those found
    /// by recovery).
    #[must_use]
    pub fn records_logged(&self) -> u64 {
        self.records_logged
    }

    /// The WAL file's path.
    #[must_use]
    pub fn wal_path(&self) -> &Path {
        self.wal.path()
    }
}

impl ServerBackend for DurableServer {
    fn scheme(&self) -> &Scheme {
        self.inner.scheme()
    }

    fn seed(&mut self, history: &[(RsuId, f64)]) -> Result<(), SimError> {
        self.seed_history(history)
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
    use std::path::PathBuf;
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
        let mut durable =
            DurableServer::create(scheme(), 1.0, 4, &dir, DurableOptions::log_only(), &obs)
                .unwrap();
        // A stream exercising every verdict: fresh, duplicate,
        // conflicting, stale — with a period close in the middle.
        let frames = [
            sequenced(1, 0, &[3, 77]),
            sequenced(2, 0, &[9]),
            sequenced(1, 0, &[3, 77]), // duplicate
            sequenced(2, 0, &[9, 10]), // conflicting
            sequenced(3, 2, &[0]),
            sequenced(3, 1, &[200]), // stale
            sequenced(9, 5, &[8, 16, 32]),
        ];
        for (i, f) in frames.iter().enumerate() {
            let expected = reference.receive_sequenced(f.clone());
            let got = ingest(&mut durable, f);
            assert_eq!(got, expected);
            if i == 3 {
                assert_eq!(
                    durable.finish_period().unwrap(),
                    reference.finish_period().unwrap()
                );
            }
        }
        let logged = durable.records_logged();
        drop(durable); // the crash: all in-memory state gone
        let (recovered, report) =
            DurableServer::recover(scheme(), 1.0, 4, &dir, DurableOptions::log_only(), &obs)
                .unwrap();
        assert_eq!(report.tail_error, None);
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(report.checkpoint_records + report.replayed_records, logged);
        assert_eq!(
            report.checkpoint_records, 5,
            "the close checkpoint covers 4 frames + close"
        );
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
        let mut durable =
            DurableServer::create(scheme(), 1.0, 4, &dir, DurableOptions::log_only(), &obs)
                .unwrap();
        ingest(&mut durable, &sequenced(1, 0, &[5]));
        durable.finish_period().unwrap(); // publishes a 4-shard checkpoint
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
        assert!(DurableServer::create(
            scheme(),
            1.0,
            2,
            &dir,
            DurableOptions::log_only().with_flush(FlushPolicy::EveryRecords(0)),
            &Obs::disabled(),
        )
        .is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Group commit: a crash loses exactly the buffered (unflushed)
    /// tail, and recovery reproduces the state of a reference server
    /// fed the surviving prefix. A close is a flush boundary, so a
    /// closed period is never lost.
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

    /// A close is a full-durability point even under Manual flushing:
    /// the close record and every upload before it are on disk before
    /// the close is applied, so the checkpoint published after it is
    /// always covered by the log.
    #[test]
    fn close_flushes_buffered_records_first() {
        let dir = temp_dir("close-flush");
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
        drop(durable); // no explicit flush after the close
        let (recovered, report) =
            DurableServer::recover(scheme(), 1.0, 2, &dir, options, &obs).unwrap();
        assert_eq!(report.checkpoint_records, 3, "checkpoint covered by log");
        assert_eq!(recovered.server().upload_count(), 0);
        assert_eq!(recovered.server().checkpoint(0), reference.checkpoint(0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The close is a log record, so the closed period's uploads stay
    /// closed whether recovery starts from the close checkpoint or, with
    /// every checkpoint gone, from the log alone — and so do the seeds.
    #[test]
    fn logged_close_and_seeds_survive_without_checkpoints() {
        let dir = temp_dir("finish");
        let obs = Obs::disabled();
        let mut durable =
            DurableServer::create(scheme(), 1.0, 2, &dir, DurableOptions::log_only(), &obs)
                .unwrap();
        let mut reference = ShardedServer::new(scheme(), 1.0, 2).unwrap();
        let seeds = [(RsuId(1), 40.0), (RsuId(7), 900.0)];
        durable.seed_history(&seeds).unwrap();
        reference.seed(&seeds).unwrap();
        for f in [sequenced(1, 0, &[5]), sequenced(2, 0, &[6])] {
            ingest(&mut durable, &f);
            reference.receive_sequenced(f);
        }
        durable.finish_period().unwrap();
        reference.finish_period().unwrap();
        ingest(&mut durable, &sequenced(2, 1, &[7]));
        reference.receive_sequenced(sequenced(2, 1, &[7]));
        drop(durable);
        for checkpointed in [true, false] {
            if !checkpointed {
                std::fs::remove_dir_all(dir.join(CHECKPOINT_DIR)).unwrap();
            }
            let (recovered, report) =
                DurableServer::recover(scheme(), 1.0, 2, &dir, DurableOptions::log_only(), &obs)
                    .unwrap();
            assert_eq!(report.checkpoint_records, if checkpointed { 4 } else { 0 });
            assert_eq!(report.checkpoint_records + report.replayed_records, 5);
            assert_eq!(recovered.server().upload_count(), 1);
            assert_eq!(recovered.server().history_average(RsuId(7)), Some(900.0));
            assert_eq!(recovered.server().checkpoint(0), reference.checkpoint(0));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A failed checkpoint publish costs recovery time, never the close:
    /// `finish_period` still succeeds and counts the failure.
    #[test]
    fn failed_checkpoint_publish_keeps_the_close() {
        let dir = temp_dir("publish-fails");
        let obs = Obs::enabled(Level::Info);
        let mut durable =
            DurableServer::create(scheme(), 1.0, 2, &dir, DurableOptions::log_only(), &obs)
                .unwrap();
        let mut reference = ShardedServer::new(scheme(), 1.0, 2).unwrap();
        ingest(&mut durable, &sequenced(1, 0, &[5]));
        reference.receive_sequenced(sequenced(1, 0, &[5]));
        std::fs::remove_dir_all(dir.join(CHECKPOINT_DIR)).unwrap();
        assert_eq!(
            durable.finish_period().unwrap(),
            reference.finish_period().unwrap()
        );
        assert_eq!(obs.snapshot().counters["wal.checkpoint.failed"], 1);
        drop(durable);
        let (recovered, report) =
            DurableServer::recover(scheme(), 1.0, 2, &dir, DurableOptions::log_only(), &obs)
                .unwrap();
        assert_eq!(report.replayed_records, 2);
        assert_eq!(recovered.server().checkpoint(0), reference.checkpoint(0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The WAL-only kinds are refused at the network door: a client can
    /// never inject a close or a seed.
    #[test]
    fn receive_wire_refuses_close_and_seed_records() {
        let dir = temp_dir("inject");
        let obs = Obs::disabled();
        let mut durable =
            DurableServer::create(scheme(), 1.0, 2, &dir, DurableOptions::log_only(), &obs)
                .unwrap();
        for wire in [vec![CLOSE_RECORD], encode_seed_record(&[(RsuId(1), 5.0)])] {
            assert!(matches!(
                durable.receive_wire(&wire),
                Err(SimError::MalformedMessage { .. })
            ));
        }
        assert_eq!(durable.records_logged(), 0);
        assert_eq!(durable.server().history_average(RsuId(1)), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
