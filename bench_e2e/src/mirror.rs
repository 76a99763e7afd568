//! A write-ahead log and checkpoint store fed the frames the traced run
//! replays, with the daemon's durable policy: group commit every
//! [`FLUSH_EVERY`] records and a checkpoint at each period close. Spans
//! time each call, so the durable layer's per-call cost is measured on
//! every workload's own frames — whether or not that workload's daemon
//! writes a log.

use std::path::PathBuf;

use vcps_core::Scheme;
use vcps_durable::{CheckpointStore, FlushPolicy, WalWriter};
use vcps_obs::Obs;
use vcps_sim::{DurableOptions, DurableServer, ShardedServer};

use crate::daemon::{self, ALPHA, SHARDS};
use crate::trace::{SpanId, Tracer};

/// Group-commit size (the durable daemon's `--flush-every`).
pub const FLUSH_EVERY: u64 = 64;

/// The durable options a daemon started with `--flush-every FLUSH_EVERY`
/// recovers with.
#[must_use]
pub fn durable_options() -> DurableOptions {
    DurableOptions::log_only().with_flush(FlushPolicy::EveryRecords(FLUSH_EVERY))
}

/// The mirror: a WAL flushed by hand on the daemon's schedule.
pub struct Mirror {
    dir: PathBuf,
    wal: WalWriter,
    store: CheckpointStore,
    buffered: u64,
}

impl Mirror {
    /// Creates an empty mirror in a fresh directory of this run's scratch
    /// space.
    ///
    /// # Errors
    ///
    /// File-system failures.
    pub fn create(tag: &str) -> Result<Self, String> {
        let dir = daemon::run_dir().join(format!("wal-mirror-{tag}"));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
        }
        let store = CheckpointStore::open(dir.join("checkpoints"))
            .map_err(|e| format!("mirror store: {e}"))?;
        let wal = WalWriter::create(dir.join("frames.wal"))
            .map_err(|e| format!("mirror WAL: {e}"))?
            .with_flush_policy(FlushPolicy::Manual);
        Ok(Self {
            dir,
            wal,
            store,
            buffered: 0,
        })
    }

    fn flush(&mut self, tracer: &Tracer, id: u64) -> Result<(), String> {
        let flushing = tracer.open("durable.flush", SpanId::NONE, id);
        self.wal.sync().map_err(|e| format!("mirror sync: {e}"))?;
        tracer.close(flushing, 1);
        self.buffered = 0;
        Ok(())
    }

    /// Appends one upload frame (`durable.append`), group-committing
    /// every [`FLUSH_EVERY`] records (`durable.flush`).
    ///
    /// # Errors
    ///
    /// Write or fsync failures.
    pub fn append(&mut self, tracer: &Tracer, id: u64, frame: &[u8]) -> Result<(), String> {
        let appending = tracer.open("durable.append", SpanId::NONE, id);
        self.wal
            .append(frame)
            .map_err(|e| format!("mirror append: {e}"))?;
        tracer.close(appending, 1);
        self.buffered += 1;
        if self.buffered == FLUSH_EVERY {
            self.flush(tracer, id)?;
        }
        Ok(())
    }

    /// The period-close checkpoint: flush the log, then publish
    /// `server`'s state as covering every record so far.
    ///
    /// # Errors
    ///
    /// Write, fsync or publication failures.
    pub fn checkpoint(
        &mut self,
        tracer: &Tracer,
        id: u64,
        server: &ShardedServer,
    ) -> Result<(), String> {
        if self.buffered > 0 {
            self.flush(tracer, id)?;
        }
        let records = self.wal.record_count();
        self.store
            .publish(records, &server.checkpoint(records).encode())
            .map_err(|e| format!("mirror checkpoint: {e}"))?;
        Ok(())
    }

    /// Group commits so far.
    #[must_use]
    pub fn flushes(&self) -> u64 {
        self.wal.flushes()
    }

    /// Recovers a `DurableServer` from everything appended so far
    /// (`durable.recover`) and returns the records replayed past the last
    /// checkpoint.
    ///
    /// # Errors
    ///
    /// Flush or recovery failures.
    pub fn recover(&mut self, tracer: &Tracer, scheme: Scheme) -> Result<u64, String> {
        self.wal.sync().map_err(|e| format!("mirror sync: {e}"))?;
        self.buffered = 0;
        recover_dir(tracer, scheme, &self.dir)
    }
}

impl Drop for Mirror {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// `DurableServer::recover` on `dir`, traced as `durable.recover`;
/// returns the records replayed past the last checkpoint.
///
/// # Errors
///
/// Recovery failures.
pub fn recover_dir(tracer: &Tracer, scheme: Scheme, dir: &std::path::Path) -> Result<u64, String> {
    let recovering = tracer.open("durable.recover", SpanId::NONE, 0);
    let (server, report) = DurableServer::recover(
        scheme,
        ALPHA,
        SHARDS,
        dir,
        durable_options(),
        &Obs::disabled(),
    )
    .map_err(|e| format!("in-process recovery: {e}"))?;
    tracer.close(recovering, 1);
    drop(server);
    Ok(report.replayed_records)
}
