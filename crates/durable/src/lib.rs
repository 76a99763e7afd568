//! `vcps-durable`: the workspace's durability substrate — a checksummed
//! append-only write-ahead log (WAL) and an atomically-published
//! checkpoint store, with zero dependencies (DESIGN.md §17).
//!
//! The crate is deliberately *payload-agnostic*: it persists and
//! recovers opaque byte records. What those bytes mean (wire frames,
//! serialized server state) is the simulator's business — `vcps-sim`
//! layers frame logging, per-shard checkpoints, and replay-based
//! recovery on top, keeping the dependency arrow pointing from the
//! system to the substrate.
//!
//! * [`WalWriter`] appends length-delimited, FNV-1a-64-checksummed
//!   records to a magic-prefixed log file — the same
//!   `len ‖ checksum ‖ payload` framing discipline the batch wire
//!   format uses, so one corrupted record is attributed precisely
//!   instead of desynchronizing the rest of the scan.
//! * [`read_wal`] scans a log tolerantly: a torn write, truncated
//!   tail, or bit-flipped record stops the scan at the last valid
//!   record and reports a typed [`DurabilityError`] in
//!   [`WalScan::tail_error`] — it never panics and never yields a
//!   record that failed its checksum.
//! * [`CheckpointStore`] publishes snapshot payloads via
//!   write-to-temp-then-rename, so a crash mid-checkpoint can never
//!   leave a half-written file where [`CheckpointStore::latest_valid`]
//!   would find it; corrupt or torn checkpoint files are skipped in
//!   favor of the newest one that validates.
//!
//! # Example
//!
//! ```
//! use vcps_durable::{read_wal, CheckpointStore, WalWriter};
//!
//! let dir = std::env::temp_dir().join(format!("vcps-durable-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let wal = dir.join("frames.wal");
//!
//! let mut writer = WalWriter::create(&wal).unwrap();
//! writer.append(b"frame-1").unwrap();
//! writer.append(b"frame-2").unwrap();
//! writer.sync().unwrap();
//!
//! let scan = read_wal(&wal).unwrap();
//! assert_eq!(scan.records, vec![b"frame-1".to_vec(), b"frame-2".to_vec()]);
//! assert!(scan.tail_error.is_none());
//!
//! let store = CheckpointStore::open(dir.join("ckpt")).unwrap();
//! store.publish(2, b"snapshot-after-2").unwrap();
//! let latest = store.latest_valid().unwrap().unwrap();
//! assert_eq!((latest.seq, latest.payload.as_slice()), (2, &b"snapshot-after-2"[..]));
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic prefix of a WAL file (8 bytes, version-suffixed).
pub const WAL_MAGIC: [u8; 8] = *b"VCPSWAL1";

/// Magic prefix of a checkpoint file (8 bytes, version-suffixed).
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"VCPSCKP1";

/// Per-record header size: `u64` payload length ‖ `u64` FNV-1a-64
/// checksum, both big-endian like the wire protocol.
const RECORD_HEADER: usize = 16;

/// Checkpoint file header size: magic ‖ `u64` seq ‖ `u64` payload
/// length ‖ `u64` checksum.
const CHECKPOINT_HEADER: usize = 8 + 24;

/// When a [`WalWriter`] flushes its append buffer (writes it to the
/// file and fsyncs) — the group-commit knob (DESIGN.md §18).
///
/// Durability is a *prefix* property under every policy: records reach
/// stable storage strictly in append order, so a crash loses at most
/// the buffered tail past the last flush boundary — never a record in
/// the middle. The trade is explicit: `EveryRecords(1)` pays one fsync
/// per record; larger groups amortize that fsync over many records at
/// the cost of a bounded, caller-chosen window of
/// acknowledged-but-volatile appends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Flush and fsync once this many records have accumulated in the
    /// buffer (group commit). Must be positive. The default,
    /// `EveryRecords(1)`, makes every record durable before `append`
    /// returns.
    EveryRecords(u64),
    /// Flush only on an explicit [`WalWriter::sync`] — the caller owns
    /// the boundary (e.g. once per period).
    Manual,
}

impl Default for FlushPolicy {
    fn default() -> Self {
        FlushPolicy::EveryRecords(1)
    }
}

impl FlushPolicy {
    /// Whether `records` buffered records make a flush due under this
    /// policy.
    fn due(self, records: u64) -> bool {
        match self {
            FlushPolicy::EveryRecords(n) => records >= n,
            FlushPolicy::Manual => false,
        }
    }
}

/// FNV-1a 64 over a byte slice — the same hand-rolled checksum the
/// batch wire format uses (`vcps-sim` keeps its own private copy; the
/// constants are the algorithm, so the two cannot drift). It catches
/// disk and channel corruption, not adversaries.
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A typed durability failure. I/O errors carry the failed operation
/// and OS detail; corruption errors carry the byte offset so a log can
/// be inspected (and are what [`read_wal`] reports for a torn tail —
/// the scan itself still succeeds up to the last valid record).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DurabilityError {
    /// An underlying filesystem operation failed.
    Io {
        /// What was being attempted (e.g. `"append"`, `"fsync"`).
        op: &'static str,
        /// The path involved.
        path: PathBuf,
        /// The OS error rendered to text.
        detail: String,
    },
    /// The file does not start with the expected magic bytes — it is
    /// not (this version of) a WAL or checkpoint file at all.
    BadMagic {
        /// The path involved.
        path: PathBuf,
    },
    /// A record's header or payload extends past the end of the file:
    /// a torn write or truncation. `have` bytes remained where `need`
    /// were promised.
    TruncatedRecord {
        /// Byte offset of the record's header.
        offset: u64,
        /// Bytes actually remaining in the file.
        have: u64,
        /// Bytes the header (or header itself) required.
        need: u64,
    },
    /// A record's payload no longer matches its stored checksum: a
    /// bit flip or partial overwrite.
    ChecksumMismatch {
        /// Byte offset of the record's header.
        offset: u64,
    },
    /// A checkpoint file failed validation (bad magic, torn header,
    /// length or checksum mismatch).
    CorruptCheckpoint {
        /// The checkpoint file.
        path: PathBuf,
        /// What failed.
        reason: &'static str,
    },
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityError::Io { op, path, detail } => {
                write!(f, "{op} failed on {}: {detail}", path.display())
            }
            DurabilityError::BadMagic { path } => {
                write!(f, "{} is not a recognized durable file", path.display())
            }
            DurabilityError::TruncatedRecord { offset, have, need } => write!(
                f,
                "truncated record at offset {offset}: {have} bytes remain where {need} were promised"
            ),
            DurabilityError::ChecksumMismatch { offset } => {
                write!(f, "record checksum mismatch at offset {offset}")
            }
            DurabilityError::CorruptCheckpoint { path, reason } => {
                write!(f, "corrupt checkpoint {}: {reason}", path.display())
            }
        }
    }
}

impl Error for DurabilityError {}

fn io_err(op: &'static str, path: &Path, e: &std::io::Error) -> DurabilityError {
    DurabilityError::Io {
        op,
        path: path.to_path_buf(),
        detail: e.to_string(),
    }
}

/// Fsyncs a directory so a file created or renamed into it survives a
/// crash: the file's own fsync makes its bytes durable, not its name.
fn sync_dir(dir: &Path) -> Result<(), DurabilityError> {
    // A bare file name has an empty parent: the current directory.
    let dir = if dir.as_os_str().is_empty() {
        Path::new(".")
    } else {
        dir
    };
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err("fsync dir", dir, &e))
}

/// An append-only write-ahead log file with group commit.
///
/// Records are `u64 length ‖ u64 fnv1a-64 ‖ payload`, big-endian,
/// after an 8-byte magic prefix. [`append`](WalWriter::append) stages
/// each record in a user-space buffer and flushes (file write + fsync)
/// according to the writer's [`FlushPolicy`]; [`sync`](WalWriter::sync)
/// forces an immediate flush. Records become durable strictly in
/// append order, so the on-disk log is always a prefix of the appended
/// sequence.
///
/// Dropping the writer deliberately does **not** flush: a process
/// crash is exactly the event group commit trades against, and the
/// drop path models it — only records covered by a completed flush
/// survive. It must not be *silent*, though: a writer dropped with a
/// non-empty buffer fires its [drop hook](WalWriter::set_drop_hook) so
/// the owner can count the acknowledged-but-discarded records instead
/// of discovering the gap at the next recovery.
pub struct WalWriter {
    file: File,
    path: PathBuf,
    len: u64,
    records: u64,
    policy: FlushPolicy,
    buf: Vec<u8>,
    buffered_records: u64,
    flushes: u64,
    /// Bytes have reached the file since the last fsync (so the next
    /// [`sync`](WalWriter::sync) must actually fsync).
    dirty: bool,
    /// Called from `Drop` with `(buffered_records, buffered_bytes)`
    /// when the writer dies holding unflushed records.
    drop_hook: Option<Box<dyn FnMut(u64, u64) + Send + Sync>>,
}

impl fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WalWriter")
            .field("path", &self.path)
            .field("len", &self.len)
            .field("records", &self.records)
            .field("policy", &self.policy)
            .field("buffered_records", &self.buffered_records)
            .field("flushes", &self.flushes)
            .field("dirty", &self.dirty)
            .field("drop_hook", &self.drop_hook.is_some())
            .finish()
    }
}

impl Drop for WalWriter {
    fn drop(&mut self) {
        if self.buffered_records > 0 {
            let (records, bytes) = (self.buffered_records, self.buf.len() as u64);
            if let Some(hook) = self.drop_hook.as_mut() {
                hook(records, bytes);
            }
        }
    }
}

impl WalWriter {
    /// Creates (or truncates) a WAL file, writes the magic prefix, and
    /// fsyncs the parent directory so the log's name survives a crash.
    /// The writer starts under `FlushPolicy::EveryRecords(1)`; use
    /// [`with_flush_policy`](WalWriter::with_flush_policy) to opt into
    /// group commit.
    ///
    /// # Errors
    ///
    /// Returns [`DurabilityError::Io`] if the file cannot be created,
    /// the prefix written, or the directory fsynced.
    pub fn create(path: impl Into<PathBuf>) -> Result<Self, DurabilityError> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| io_err("create", &path, &e))?;
        file.write_all(&WAL_MAGIC)
            .map_err(|e| io_err("write magic", &path, &e))?;
        sync_dir(path.parent().unwrap_or(Path::new(".")))?;
        Ok(Self {
            file,
            path,
            len: WAL_MAGIC.len() as u64,
            records: 0,
            policy: FlushPolicy::default(),
            buf: Vec::new(),
            buffered_records: 0,
            flushes: 0,
            dirty: true,
            drop_hook: None,
        })
    }

    /// Reopens an existing WAL for appending after a tolerant scan:
    /// the file is truncated to the scan's last valid byte (discarding
    /// any torn tail, which could otherwise corrupt the *next* append
    /// by fusing with it) and positioned at the end.
    ///
    /// # Errors
    ///
    /// Returns [`DurabilityError::Io`] if the file cannot be opened,
    /// truncated, or seeked.
    pub fn resume(path: impl Into<PathBuf>, scan: &WalScan) -> Result<Self, DurabilityError> {
        let path = path.into();
        let file = OpenOptions::new()
            .write(true)
            .read(true)
            .open(&path)
            .map_err(|e| io_err("open", &path, &e))?;
        file.set_len(scan.valid_len)
            .map_err(|e| io_err("truncate torn tail", &path, &e))?;
        let mut file = file;
        file.seek(SeekFrom::End(0))
            .map_err(|e| io_err("seek", &path, &e))?;
        Ok(Self {
            file,
            path,
            len: scan.valid_len,
            records: scan.records.len() as u64,
            policy: FlushPolicy::default(),
            buf: Vec::new(),
            buffered_records: 0,
            flushes: 0,
            dirty: true,
            drop_hook: None,
        })
    }

    /// Sets the flush policy, builder-style.
    #[must_use]
    pub fn with_flush_policy(mut self, policy: FlushPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The active flush policy.
    #[must_use]
    pub fn flush_policy(&self) -> FlushPolicy {
        self.policy
    }

    /// Installs a hook invoked from `Drop` with
    /// `(buffered_records, buffered_bytes)` when the writer is dropped
    /// while still holding unflushed records. Those records were
    /// accepted by [`append`](WalWriter::append) but never reached
    /// stable storage, so dropping them is silent data loss from the
    /// caller's perspective; the hook is the owner's chance to account
    /// for the discarded tail (e.g. bump an observability counter)
    /// instead of discovering the gap at the next recovery. The hook
    /// does not fire when the buffer is empty, and it cannot rescue the
    /// records — call [`sync`](WalWriter::sync) before dropping to keep
    /// them.
    pub fn set_drop_hook(&mut self, hook: impl FnMut(u64, u64) + Send + Sync + 'static) {
        self.drop_hook = Some(Box::new(hook));
    }

    /// Appends one record to the group-commit buffer, flushing (file
    /// write + fsync) if the writer's [`FlushPolicy`] says the batch is
    /// due. Under `EveryRecords(1)` (the default) the record is durable
    /// when this returns; under larger groups it is durable once a
    /// later flush covers it.
    ///
    /// # Errors
    ///
    /// Returns [`DurabilityError::Io`] on a write or fsync failure (the
    /// writer should be considered poisoned: the file may hold a torn
    /// record, which the next tolerant scan will discard).
    pub fn append(&mut self, payload: &[u8]) -> Result<(), DurabilityError> {
        self.buf.reserve(RECORD_HEADER + payload.len());
        self.buf
            .extend_from_slice(&(payload.len() as u64).to_be_bytes());
        self.buf.extend_from_slice(&fnv1a_64(payload).to_be_bytes());
        self.buf.extend_from_slice(payload);
        self.len += (RECORD_HEADER + payload.len()) as u64;
        self.records += 1;
        self.buffered_records += 1;
        if self.policy.due(self.buffered_records) {
            self.sync()?;
        }
        Ok(())
    }

    /// Flushes the group-commit buffer and forces everything appended
    /// so far to stable storage. A no-op (no fsync counted) when
    /// nothing new reached the file since the last flush.
    ///
    /// # Errors
    ///
    /// Returns [`DurabilityError::Io`] if the write or fsync fails.
    pub fn sync(&mut self) -> Result<(), DurabilityError> {
        if !self.buf.is_empty() {
            self.file
                .write_all(&self.buf)
                .map_err(|e| io_err("append", &self.path, &e))?;
            self.buf.clear();
            self.buffered_records = 0;
            self.dirty = true;
        }
        if self.dirty {
            self.file
                .sync_data()
                .map_err(|e| io_err("fsync", &self.path, &e))?;
            self.dirty = false;
            self.flushes += 1;
        }
        Ok(())
    }

    /// Records appended (including those found by a resume scan and
    /// those still waiting in the group-commit buffer).
    #[must_use]
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// Completed flushes (buffer write + fsync) so far — the metric
    /// group commit exists to shrink.
    #[must_use]
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Records currently staged in the group-commit buffer — appended
    /// and acknowledged, but not yet durable. A crash now loses exactly
    /// these.
    #[must_use]
    pub fn buffered_records(&self) -> u64 {
        self.buffered_records
    }

    /// Bytes currently staged in the group-commit buffer (record
    /// headers included).
    #[must_use]
    pub fn buffered_bytes(&self) -> u64 {
        self.buf.len() as u64
    }

    /// Logical log length in bytes (magic prefix and buffered records
    /// included). After [`sync`](WalWriter::sync) this equals the file
    /// length on disk.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when no record has been appended yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// The log file's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// The result of a tolerant WAL scan ([`read_wal`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalScan {
    /// Every record that validated, in append order.
    pub records: Vec<Vec<u8>>,
    /// Byte length of the valid prefix (where appends may resume).
    pub valid_len: u64,
    /// Why the scan stopped early, if it did: the first torn,
    /// truncated, or checksum-failing record. `None` means the file
    /// ended exactly on a record boundary.
    pub tail_error: Option<DurabilityError>,
}

/// Scans a WAL file, stopping at the first record that fails to
/// validate.
///
/// Corruption is *not* a scan failure: torn writes and bit flips are
/// exactly what a crash leaves behind, so they come back as
/// [`WalScan::tail_error`] alongside every record before them. Only a
/// missing/unreadable file or a wrong magic prefix — cases where there
/// is no valid prefix to recover — are hard errors.
///
/// # Errors
///
/// Returns [`DurabilityError::Io`] if the file cannot be read,
/// [`DurabilityError::BadMagic`] if it is not a WAL file (including a
/// file shorter than the magic prefix).
pub fn read_wal(path: impl AsRef<Path>) -> Result<WalScan, DurabilityError> {
    let path = path.as_ref();
    let bytes = fs::read(path).map_err(|e| io_err("read", path, &e))?;
    if bytes.len() < WAL_MAGIC.len() || bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(DurabilityError::BadMagic {
            path: path.to_path_buf(),
        });
    }
    let mut records = Vec::new();
    let mut offset = WAL_MAGIC.len() as u64;
    let mut tail_error = None;
    loop {
        let rest = &bytes[offset as usize..];
        if rest.is_empty() {
            break;
        }
        if rest.len() < RECORD_HEADER {
            tail_error = Some(DurabilityError::TruncatedRecord {
                offset,
                have: rest.len() as u64,
                need: RECORD_HEADER as u64,
            });
            break;
        }
        let len = u64::from_be_bytes(rest[..8].try_into().expect("8-byte slice"));
        let checksum = u64::from_be_bytes(rest[8..16].try_into().expect("8-byte slice"));
        let body = &rest[RECORD_HEADER..];
        // `len` comes straight off disk: compare against the remaining
        // byte count (no addition, no overflow) before slicing. A bit
        // flip in the length field lands here too — indistinguishable
        // from truncation, and handled the same way.
        if len > body.len() as u64 {
            tail_error = Some(DurabilityError::TruncatedRecord {
                offset,
                have: body.len() as u64,
                need: len,
            });
            break;
        }
        let payload = &body[..len as usize];
        if fnv1a_64(payload) != checksum {
            tail_error = Some(DurabilityError::ChecksumMismatch { offset });
            break;
        }
        records.push(payload.to_vec());
        offset += RECORD_HEADER as u64 + len;
    }
    Ok(WalScan {
        records,
        valid_len: offset,
        tail_error,
    })
}

/// One validated checkpoint, as returned by
/// [`CheckpointStore::latest_valid`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// The publisher's sequence number (the WAL record count covered,
    /// in `vcps-sim`'s usage).
    pub seq: u64,
    /// The opaque snapshot payload.
    pub payload: Vec<u8>,
}

/// A directory of checkpoint files, published atomically and selected
/// by highest validating sequence number.
///
/// File layout: `magic(8) ‖ seq(8) ‖ payload_len(8) ‖ fnv1a-64(8) ‖
/// payload`, big-endian. Publication writes to a `.tmp` name, fsyncs,
/// renames into place, then fsyncs the directory so the new name is
/// durable too — a crash mid-publish leaves only the temp file, which
/// the reader ignores.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory.
    ///
    /// # Errors
    ///
    /// Returns [`DurabilityError::Io`] if the directory cannot be
    /// created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, DurabilityError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err("create checkpoint dir", &dir, &e))?;
        Ok(Self { dir })
    }

    /// The store's directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn file_name(seq: u64) -> String {
        // Zero-padded so lexicographic directory order is seq order.
        format!("ckpt-{seq:020}.bin")
    }

    /// Atomically publishes a checkpoint payload under sequence `seq`,
    /// returning its final path. An existing checkpoint with the same
    /// sequence is replaced.
    ///
    /// # Errors
    ///
    /// Returns [`DurabilityError::Io`] on any write, fsync, rename, or
    /// directory fsync failure.
    pub fn publish(&self, seq: u64, payload: &[u8]) -> Result<PathBuf, DurabilityError> {
        let tmp = self.dir.join(format!("{}.tmp", Self::file_name(seq)));
        let target = self.dir.join(Self::file_name(seq));
        let mut bytes = Vec::with_capacity(CHECKPOINT_HEADER + payload.len());
        bytes.extend_from_slice(&CHECKPOINT_MAGIC);
        bytes.extend_from_slice(&seq.to_be_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_be_bytes());
        bytes.extend_from_slice(&fnv1a_64(payload).to_be_bytes());
        bytes.extend_from_slice(payload);
        {
            let mut file = File::create(&tmp).map_err(|e| io_err("create", &tmp, &e))?;
            file.write_all(&bytes)
                .map_err(|e| io_err("write", &tmp, &e))?;
            file.sync_data().map_err(|e| io_err("fsync", &tmp, &e))?;
        }
        fs::rename(&tmp, &target).map_err(|e| io_err("rename", &target, &e))?;
        sync_dir(&self.dir)?;
        Ok(target)
    }

    /// Validates and decodes one checkpoint file.
    ///
    /// # Errors
    ///
    /// Returns [`DurabilityError::Io`] if the file cannot be read, or
    /// [`DurabilityError::CorruptCheckpoint`] naming what failed.
    pub fn load(path: impl AsRef<Path>) -> Result<Checkpoint, DurabilityError> {
        let path = path.as_ref();
        let mut bytes = Vec::new();
        File::open(path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| io_err("read", path, &e))?;
        let corrupt = |reason: &'static str| DurabilityError::CorruptCheckpoint {
            path: path.to_path_buf(),
            reason,
        };
        if bytes.len() < CHECKPOINT_HEADER {
            return Err(corrupt("truncated header"));
        }
        if bytes[..8] != CHECKPOINT_MAGIC {
            return Err(corrupt("bad magic"));
        }
        let seq = u64::from_be_bytes(bytes[8..16].try_into().expect("8-byte slice"));
        let len = u64::from_be_bytes(bytes[16..24].try_into().expect("8-byte slice"));
        let checksum = u64::from_be_bytes(bytes[24..32].try_into().expect("8-byte slice"));
        let payload = &bytes[CHECKPOINT_HEADER..];
        if len != payload.len() as u64 {
            return Err(corrupt("payload length mismatch"));
        }
        if fnv1a_64(payload) != checksum {
            return Err(corrupt("payload checksum mismatch"));
        }
        Ok(Checkpoint {
            seq,
            payload: payload.to_vec(),
        })
    }

    /// The newest checkpoint that validates, or `None` if the store
    /// holds no valid checkpoint at all. Corrupt, torn, or temp files
    /// are skipped (recovery falls back to the previous checkpoint and
    /// a longer WAL replay — never to corrupt state).
    ///
    /// # Errors
    ///
    /// Returns [`DurabilityError::Io`] only if the directory itself
    /// cannot be listed.
    pub fn latest_valid(&self) -> Result<Option<Checkpoint>, DurabilityError> {
        let entries = fs::read_dir(&self.dir).map_err(|e| io_err("list", &self.dir, &e))?;
        let mut names: Vec<PathBuf> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".bin"))
            })
            .collect();
        // Zero-padded names: lexicographically descending is newest
        // first.
        names.sort_unstable();
        for path in names.into_iter().rev() {
            if let Ok(checkpoint) = Self::load(&path) {
                return Ok(Some(checkpoint));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("vcps-durable-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn wal_round_trips_records_in_order() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("frames.wal");
        let payloads: Vec<Vec<u8>> = vec![vec![], vec![1], vec![2; 300], b"hello".to_vec()];
        let mut writer = WalWriter::create(&path).unwrap();
        for p in &payloads {
            writer.append(p).unwrap();
        }
        writer.sync().unwrap();
        assert_eq!(writer.record_count(), 4);
        assert!(!writer.is_empty());
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records, payloads);
        assert_eq!(scan.tail_error, None);
        assert_eq!(scan.valid_len, writer.len());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drop_hook_fires_only_when_records_are_buffered() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        let dir = temp_dir("drophook");
        let path = dir.join("frames.wal");
        let dropped_records = Arc::new(AtomicU64::new(0));
        let dropped_bytes = Arc::new(AtomicU64::new(0));

        // Dropping with unflushed records fires the hook with the
        // buffered tail's size.
        let mut writer = WalWriter::create(&path)
            .unwrap()
            .with_flush_policy(FlushPolicy::Manual);
        let (r, b) = (Arc::clone(&dropped_records), Arc::clone(&dropped_bytes));
        writer.set_drop_hook(move |records, bytes| {
            r.fetch_add(records, Ordering::SeqCst);
            b.fetch_add(bytes, Ordering::SeqCst);
        });
        writer.append(b"lost-one").unwrap();
        writer.append(b"lost-two").unwrap();
        let expected_bytes = writer.buffered_bytes();
        drop(writer);
        assert_eq!(dropped_records.load(Ordering::SeqCst), 2);
        assert_eq!(dropped_bytes.load(Ordering::SeqCst), expected_bytes);

        // A synced writer drops silently: nothing was discarded.
        let scan = read_wal(&path).unwrap();
        let mut writer = WalWriter::resume(&path, &scan)
            .unwrap()
            .with_flush_policy(FlushPolicy::Manual);
        let r = Arc::clone(&dropped_records);
        writer.set_drop_hook(move |records, _| {
            r.fetch_add(records, Ordering::SeqCst);
        });
        writer.append(b"kept").unwrap();
        writer.sync().unwrap();
        drop(writer);
        assert_eq!(dropped_records.load(Ordering::SeqCst), 2);

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_wal_scans_clean() {
        let dir = temp_dir("empty");
        let path = dir.join("frames.wal");
        let writer = WalWriter::create(&path).unwrap();
        assert!(writer.is_empty());
        let scan = read_wal(&path).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.tail_error, None);
        assert_eq!(scan.valid_len, WAL_MAGIC.len() as u64);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_and_bad_magic_are_hard_errors() {
        let dir = temp_dir("magic");
        assert!(matches!(
            read_wal(dir.join("absent.wal")),
            Err(DurabilityError::Io { op: "read", .. })
        ));
        let not_wal = dir.join("not.wal");
        fs::write(&not_wal, b"something else entirely").unwrap();
        assert!(matches!(
            read_wal(&not_wal),
            Err(DurabilityError::BadMagic { .. })
        ));
        let short = dir.join("short.wal");
        fs::write(&short, b"VC").unwrap();
        assert!(matches!(
            read_wal(&short),
            Err(DurabilityError::BadMagic { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A WAL truncated at *every* possible byte boundary recovers
    /// exactly the records whose bytes fully survived — never a
    /// partial record, never a panic.
    #[test]
    fn truncated_tails_recover_to_last_valid_record() {
        let dir = temp_dir("truncate");
        let path = dir.join("frames.wal");
        let payloads: Vec<Vec<u8>> = (0u8..5).map(|i| vec![i; 10 + i as usize]).collect();
        let mut writer = WalWriter::create(&path).unwrap();
        let mut boundaries = vec![writer.len()];
        for p in &payloads {
            writer.append(p).unwrap();
            boundaries.push(writer.len());
        }
        writer.sync().unwrap();
        let full = fs::read(&path).unwrap();
        for cut in (WAL_MAGIC.len() as u64)..=(full.len() as u64) {
            fs::write(&path, &full[..cut as usize]).unwrap();
            let scan = read_wal(&path).unwrap();
            let complete = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(scan.records.len(), complete, "cut at {cut}");
            assert_eq!(scan.records, payloads[..complete].to_vec());
            assert_eq!(scan.valid_len, boundaries[complete]);
            if cut == boundaries[complete] {
                assert_eq!(scan.tail_error, None, "cut on boundary {cut}");
            } else {
                assert!(
                    matches!(
                        scan.tail_error,
                        Some(DurabilityError::TruncatedRecord { .. })
                    ),
                    "cut at {cut} must report a truncated record"
                );
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Flipping any single bit in a record's payload or header stops
    /// the scan at (or before) that record with a typed error.
    #[test]
    fn bit_flips_are_caught_and_stop_the_scan() {
        let dir = temp_dir("bitflip");
        let path = dir.join("frames.wal");
        let payloads: Vec<Vec<u8>> = (0u8..3).map(|i| vec![i ^ 0x5A; 24]).collect();
        let mut writer = WalWriter::create(&path).unwrap();
        for p in &payloads {
            writer.append(p).unwrap();
        }
        writer.sync().unwrap();
        let full = fs::read(&path).unwrap();
        for byte in WAL_MAGIC.len()..full.len() {
            for bit in 0..8 {
                let mut corrupted = full.clone();
                corrupted[byte] ^= 1 << bit;
                fs::write(&path, &corrupted).unwrap();
                let scan = read_wal(&path).unwrap();
                assert!(
                    scan.tail_error.is_some(),
                    "flip at byte {byte} bit {bit} must be detected"
                );
                // Every surviving record is byte-identical to what was
                // written — corruption never leaks through.
                for (i, r) in scan.records.iter().enumerate() {
                    assert_eq!(r, &payloads[i], "flip at byte {byte} bit {bit}");
                }
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_truncates_torn_tail_and_appends_cleanly() {
        let dir = temp_dir("resume");
        let path = dir.join("frames.wal");
        let mut writer = WalWriter::create(&path).unwrap();
        writer.append(b"alpha").unwrap();
        writer.append(b"beta").unwrap();
        writer.sync().unwrap();
        // Tear the second record.
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 2]).unwrap();
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records, vec![b"alpha".to_vec()]);
        assert!(scan.tail_error.is_some());
        let mut resumed = WalWriter::resume(&path, &scan).unwrap();
        assert_eq!(resumed.record_count(), 1);
        resumed.append(b"gamma").unwrap();
        resumed.sync().unwrap();
        let rescan = read_wal(&path).unwrap();
        assert_eq!(rescan.records, vec![b"alpha".to_vec(), b"gamma".to_vec()]);
        assert_eq!(rescan.tail_error, None);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The default policy, `EveryRecords(1)`: every append is flushed,
    /// so the on-disk log always matches the logical log.
    #[test]
    fn per_record_policy_flushes_every_append() {
        let dir = temp_dir("flush-per-record");
        let path = dir.join("frames.wal");
        let mut writer = WalWriter::create(&path).unwrap();
        assert_eq!(writer.flush_policy(), FlushPolicy::EveryRecords(1));
        for i in 0u8..4 {
            writer.append(&[i; 9]).unwrap();
            assert_eq!(writer.buffered_records(), 0);
            assert_eq!(fs::metadata(&path).unwrap().len(), writer.len());
        }
        assert_eq!(writer.flushes(), 4);
        // A redundant sync with nothing new is a no-op, not an fsync.
        writer.sync().unwrap();
        assert_eq!(writer.flushes(), 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Manual policy: appends stay invisible to the file until an
    /// explicit sync, then everything lands at once.
    #[test]
    fn manual_policy_buffers_until_explicit_sync() {
        let dir = temp_dir("flush-manual");
        let path = dir.join("frames.wal");
        let mut writer = WalWriter::create(&path)
            .unwrap()
            .with_flush_policy(FlushPolicy::Manual);
        let payloads: Vec<Vec<u8>> = (0u8..5).map(|i| vec![i; 7]).collect();
        for p in &payloads {
            writer.append(p).unwrap();
        }
        assert_eq!(writer.buffered_records(), 5);
        assert!(writer.buffered_bytes() > 0);
        assert_eq!(writer.flushes(), 0);
        // Only the magic prefix is on disk so far.
        assert_eq!(fs::metadata(&path).unwrap().len(), WAL_MAGIC.len() as u64);
        writer.sync().unwrap();
        assert_eq!(writer.buffered_records(), 0);
        assert_eq!(writer.buffered_bytes(), 0);
        assert_eq!(writer.flushes(), 1);
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records, payloads);
        assert_eq!(scan.valid_len, writer.len());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// EveryRecords(n): one flush per n appends, and the on-disk log is
    /// always the longest flushed prefix.
    #[test]
    fn every_records_policy_groups_appends() {
        let dir = temp_dir("flush-every-records");
        let path = dir.join("frames.wal");
        let mut writer = WalWriter::create(&path)
            .unwrap()
            .with_flush_policy(FlushPolicy::EveryRecords(3));
        for i in 0u8..7 {
            writer.append(&[i; 5]).unwrap();
            let on_disk = read_wal(&path).unwrap().records.len() as u64;
            assert_eq!(on_disk, writer.record_count() - writer.buffered_records());
            assert_eq!(on_disk, (u64::from(i) + 1) / 3 * 3);
        }
        assert_eq!(writer.flushes(), 2);
        assert_eq!(writer.buffered_records(), 1);
        writer.sync().unwrap();
        assert_eq!(writer.flushes(), 3);
        assert_eq!(read_wal(&path).unwrap().records.len(), 7);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Dropping a writer with a buffered tail models a crash: exactly
    /// the unflushed records are lost, and the survivors are a clean
    /// prefix a resumed writer can extend.
    #[test]
    fn drop_without_sync_loses_exactly_the_buffered_tail() {
        let dir = temp_dir("flush-crash");
        let path = dir.join("frames.wal");
        let payloads: Vec<Vec<u8>> = (0u8..8).map(|i| vec![i; 12]).collect();
        {
            let mut writer = WalWriter::create(&path)
                .unwrap()
                .with_flush_policy(FlushPolicy::EveryRecords(3));
            for p in &payloads {
                writer.append(p).unwrap();
            }
            assert_eq!(writer.buffered_records(), 2);
            // Crash: drop without sync.
        }
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records, payloads[..6].to_vec());
        assert_eq!(scan.tail_error, None, "a lost tail is not a torn tail");
        let mut resumed = WalWriter::resume(&path, &scan)
            .unwrap()
            .with_flush_policy(FlushPolicy::EveryRecords(3));
        assert_eq!(resumed.record_count(), 6);
        resumed.append(b"after-crash").unwrap();
        resumed.sync().unwrap();
        assert_eq!(read_wal(&path).unwrap().records.len(), 7);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_store_publishes_and_selects_latest() {
        let dir = temp_dir("ckpt");
        let store = CheckpointStore::open(dir.join("ckpt")).unwrap();
        assert_eq!(store.latest_valid().unwrap(), None);
        store.publish(1, b"one").unwrap();
        store.publish(10, b"ten").unwrap();
        store.publish(2, b"two").unwrap();
        let latest = store.latest_valid().unwrap().unwrap();
        assert_eq!(latest.seq, 10);
        assert_eq!(latest.payload, b"ten");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_latest_checkpoint_falls_back_to_previous() {
        let dir = temp_dir("ckpt-fallback");
        let store = CheckpointStore::open(dir.join("ckpt")).unwrap();
        store.publish(1, b"good").unwrap();
        let newest = store.publish(2, b"newer").unwrap();
        // Flip a payload bit in the newest checkpoint.
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&newest, &bytes).unwrap();
        assert!(matches!(
            CheckpointStore::load(&newest),
            Err(DurabilityError::CorruptCheckpoint { .. })
        ));
        let latest = store.latest_valid().unwrap().unwrap();
        assert_eq!((latest.seq, latest.payload.as_slice()), (1, &b"good"[..]));
        // Truncate the newest below its header: still skipped.
        fs::write(&newest, b"VCPSCKP1").unwrap();
        assert_eq!(store.latest_valid().unwrap().unwrap().seq, 1);
        // A stray temp file (crash mid-publish) is ignored entirely.
        fs::write(dir.join("ckpt").join("ckpt-99.bin.tmp"), b"torn").unwrap();
        assert_eq!(store.latest_valid().unwrap().unwrap().seq, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_republish_replaces_same_seq() {
        let dir = temp_dir("ckpt-replace");
        let store = CheckpointStore::open(dir.join("ckpt")).unwrap();
        store.publish(5, b"first").unwrap();
        store.publish(5, b"second").unwrap();
        let latest = store.latest_valid().unwrap().unwrap();
        assert_eq!((latest.seq, latest.payload.as_slice()), (5, &b"second"[..]));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_dir_handles_a_bare_parent_and_types_a_missing_dir() {
        // `Path::new("wal.bin").parent()` is the empty path.
        sync_dir(Path::new("")).unwrap();
        let missing = temp_dir("sync-dir").join("absent");
        match sync_dir(&missing) {
            Err(DurabilityError::Io { op, path, .. }) => {
                assert_eq!((op, path), ("fsync dir", missing.clone()));
            }
            other => panic!("expected a typed I/O error, got {other:?}"),
        }
        fs::remove_dir_all(missing.parent().unwrap()).unwrap();
    }

    #[test]
    fn errors_display_and_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DurabilityError>();
        assert_send_sync::<WalWriter>();
        assert_send_sync::<CheckpointStore>();
        let e = DurabilityError::TruncatedRecord {
            offset: 8,
            have: 3,
            need: 16,
        };
        assert!(e.to_string().contains("offset 8"));
        assert!(DurabilityError::ChecksumMismatch { offset: 40 }
            .to_string()
            .contains("checksum"));
    }
}
