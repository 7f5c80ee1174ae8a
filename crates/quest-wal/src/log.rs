//! The append-only on-disk log.
//!
//! Text framing, one record per line:
//!
//! ```text
//! QUESTWAL<TAB>1<TAB><schema fingerprint, hex>          (header)
//! <seq><TAB><fnv64 of body, hex><TAB><body>             (records)
//! ```
//!
//! Sequence numbers start at 1 and rise by exactly one per record: every
//! writer numbers from 1 without gaps, and clearing a log starts it over
//! at 1. The checksum covers the record body, so a torn write (a crash
//! mid-append) is detected. Every reader of the format — the writer's
//! open, [`read_log`], [`crate::LogReader`] and the salvage cut — applies
//! the same two rules:
//!
//! * **Header** (`header_len`). Newline-free bytes shorter than a header
//!   line are a creation in flight or torn by a crash: nothing was logged,
//!   so the log reads as empty and the writer starts it over. Any other
//!   first line that is not the header is corrupt.
//! * **Records** (`scan_records`). A line is bad when it is not UTF-8,
//!   does not parse or checksum, or its seq is not one past the previous
//!   record's. Any bad *final* line — unterminated or not — ends the log:
//!   filesystems flush pages out of order, so an un-synced append
//!   interrupted by a crash can surface either way, and refusing to load
//!   would hold every durable record hostage to one unacknowledged tail.
//!   The dropped tail is always reported ([`LogRecovery::torn_tail`],
//!   [`crate::TailPoll::pending`]), so a tail that was in fact
//!   synced-then-rotted is surfaced, not silently swallowed. A bad line
//!   anywhere *else* cannot be a torn append and refuses to load.
//!
//! A coordinator log ([`crate::CoordinatorLog`]) uses the same framing and
//! rules with [`crate::BatchFrame`] bodies.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::time::Instant;

use quest_obs::{TraceCtx, TraceKind};
use relstore::{Catalog, Database};

use crate::codec::{fnv64, schema_fingerprint};
use crate::error::WalError;
use crate::record::ChangeRecord;

/// Magic first field of a log header.
const MAGIC: &str = "QUESTWAL";
/// Format version this code writes and reads.
const VERSION: &str = "1";
/// Length of a header line, newline included: magic, version and a
/// 16-digit fingerprint, tab-separated.
pub(crate) const HEADER_LEN: usize = MAGIC.len() + VERSION.len() + 16 + 3;

/// The WAL's metric names in the [`quest_obs::global`] registry.
pub mod names {
    /// Wall time of one (possibly batched) append (histogram, nanoseconds).
    pub const APPEND: &str = "quest_wal_append_ns";
    /// Wall time of one fsync barrier (histogram, nanoseconds).
    pub const FSYNC: &str = "quest_wal_fsync_ns";
    /// Wall time of one full recovery — snapshot load plus log replay
    /// (histogram, nanoseconds).
    pub const RECOVER: &str = "quest_wal_recover_ns";
    /// Torn (dropped) log tails observed by scans and opens (counter).
    pub const TORN_TAIL: &str = "quest_wal_torn_tail_total";
    /// Writers that poisoned themselves after an unrecoverable I/O failure
    /// (counter).
    pub const POISONED: &str = "quest_wal_poisoned_total";
    /// Records re-rejected during replay (counter).
    pub const REPLAY_REJECTED: &str = "quest_wal_replay_rejected_total";
    /// Logical payload bytes appended — encoded record bodies only, before
    /// framing (counter). `PHYSICAL_BYTES / LOGICAL_BYTES` is the log's
    /// write amplification.
    pub const LOGICAL_BYTES: &str = "quest_wal_logical_bytes_total";
    /// Physical bytes appended — full framed lines including sequence
    /// numbers and checksums (counter).
    pub const PHYSICAL_BYTES: &str = "quest_wal_physical_bytes_total";
}

/// Registry handles for the writer's hot paths, resolved once at open so an
/// append touches only its own relaxed atomics.
#[derive(Debug)]
struct WalObs {
    append: quest_obs::Histogram,
    fsync: quest_obs::Histogram,
    poisoned: quest_obs::Counter,
    logical_bytes: quest_obs::Counter,
    physical_bytes: quest_obs::Counter,
}

impl WalObs {
    fn new() -> WalObs {
        let registry = quest_obs::global();
        registry.describe(names::APPEND, "Wall time of one WAL append, ns.");
        registry.describe(names::FSYNC, "Wall time of one WAL fsync barrier, ns.");
        registry.describe(
            names::LOGICAL_BYTES,
            "Logical payload bytes appended (record bodies, pre-framing).",
        );
        registry.describe(
            names::PHYSICAL_BYTES,
            "Physical bytes appended (framed lines with seq and checksum).",
        );
        WalObs {
            append: registry.histogram(names::APPEND),
            fsync: registry.histogram(names::FSYNC),
            poisoned: registry.counter(names::POISONED),
            logical_bytes: registry.counter(names::LOGICAL_BYTES),
            physical_bytes: registry.counter(names::PHYSICAL_BYTES),
        }
    }
}

/// Count one observed torn tail in the global registry (cold path: scans
/// and opens only).
fn count_torn_tail() {
    quest_obs::global().counter(names::TORN_TAIL).inc();
}

/// When the log fsyncs on its own, independent of explicit
/// [`WalWriter::sync`] calls.
///
/// The default is [`SyncPolicy::Never`]: appends are flushed to the OS but
/// the durability point is wherever the caller puts its `sync()` — the
/// fastest mode, and the right one for tests and for callers that batch
/// their own barriers. `EveryN(n)` bounds data loss to `n` acknowledged
/// appends; `Always` is one fsync per append, the classic group-commit-free
/// worst case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// No automatic fsync; the caller owns the durability points.
    #[default]
    Never,
    /// fsync once every `n` appends (`EveryN(0)` behaves like `Never`).
    EveryN(u32),
    /// fsync after every append.
    Always,
}

/// Append handle to a write-ahead log bound to one schema.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    fingerprint: u64,
    next_seq: u64,
    /// Byte length of the last known-good (fully appended) state; a failed
    /// append truncates back to it so no torn line is left mid-file.
    len: u64,
    /// Set when a failed append could not be rolled back: the file may end
    /// in a torn line, so further appends would corrupt it mid-file.
    poisoned: bool,
    /// Automatic-fsync policy (see [`SyncPolicy`]).
    policy: SyncPolicy,
    /// Appends since the last fsync (explicit or automatic); drives
    /// [`SyncPolicy::EveryN`].
    unsynced: u32,
    /// Global-registry handles (append/fsync latency, poison events).
    obs: WalObs,
}

impl WalWriter {
    /// Open (or create) the log at `path` for appending, bound to
    /// `catalog`'s schema.
    ///
    /// An existing log must carry the same schema fingerprint; its records
    /// are scanned to continue the sequence, and a torn tail from an
    /// earlier crash is truncated away before new appends.
    pub fn open(path: &Path, catalog: &Catalog) -> Result<WalWriter, WalError> {
        WalWriter::open_with(path, catalog, SyncPolicy::default())
    }

    /// [`WalWriter::open`] with an explicit automatic-fsync policy.
    pub fn open_with(
        path: &Path,
        catalog: &Catalog,
        policy: SyncPolicy,
    ) -> Result<WalWriter, WalError> {
        WalWriter::open_as(path, catalog, policy, ChangeRecord::decode).map(|(writer, _)| writer)
    }

    /// [`WalWriter::open_with`] for a log whose bodies `decode` parses,
    /// returning the bodies the log already holds beside the writer. The
    /// framing, the sequence rule and the torn-tail rule are the same for
    /// every body type.
    pub(crate) fn open_as<T>(
        path: &Path,
        catalog: &Catalog,
        policy: SyncPolicy,
        decode: fn(&str) -> Result<T, String>,
    ) -> Result<(WalWriter, Vec<(u64, T)>), WalError> {
        // Cold constructor path: arm any QUEST_FAULT_PLAN schedule before
        // the first seam can fire.
        quest_fault::init_from_env();
        let fingerprint = schema_fingerprint(catalog);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let scan = scan_log(&bytes, fingerprint, decode)?;
        // Drop a torn tail so the next append starts on a clean line.
        if scan.valid_len < bytes.len() {
            count_torn_tail();
            file.set_len(scan.valid_len as u64)?;
        }
        let mut len = scan.valid_len as u64;
        if len == 0 {
            // No complete header: the log is new, or its creation crashed
            // and nothing was ever logged. Start it over.
            file.seek(SeekFrom::Start(0))?;
            file.write_all(format!("{MAGIC}\t{VERSION}\t{fingerprint:016x}\n").as_bytes())?;
            len = HEADER_LEN as u64;
        }
        file.seek(SeekFrom::End(0))?;
        let writer = WalWriter {
            file,
            fingerprint,
            next_seq: scan.last_seq + 1,
            len,
            poisoned: false,
            policy,
            unsynced: 0,
            obs: WalObs::new(),
        };
        Ok((writer, scan.records))
    }

    /// The schema fingerprint this log is bound to.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Sequence number the next append will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The automatic-fsync policy in force.
    pub fn sync_policy(&self) -> SyncPolicy {
        self.policy
    }

    /// Whether the writer refuses further appends after an unrecoverable
    /// I/O failure. When set by a *post-write* fsync failure, the batch
    /// that triggered it is still fully in the log ([`WalWriter::next_seq`]
    /// has advanced past it) — callers that mirror the log into live state
    /// can use that to stay consistent with what tailing readers see.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Change the automatic-fsync policy; takes effect from the next append.
    pub fn set_sync_policy(&mut self, policy: SyncPolicy) {
        self.policy = policy;
    }

    /// Append one change record, returning its sequence number. The line is
    /// flushed to the OS; call [`WalWriter::sync`] to force it to disk.
    ///
    /// A failed write (e.g. disk full) is rolled back by truncating to the
    /// last known-good length, so the file never carries a torn line
    /// *mid-file* (which would be unrecoverable corruption, unlike a torn
    /// tail). If even the rollback fails, the writer poisons itself and
    /// refuses further appends; the log on disk is still readable up to
    /// the torn tail.
    pub fn append(&mut self, record: &ChangeRecord) -> Result<u64, WalError> {
        self.append_batch(std::slice::from_ref(record))
            .map(|(first, _)| first)
    }

    /// Append a batch of records **all-or-nothing**, returning the
    /// sequence numbers of the first and last (`(next, next - 1)` — an
    /// empty range — for an empty batch).
    ///
    /// The batch is written as a single `write` to the OS, and a failed
    /// write is rolled back by truncating to the pre-batch length, so a
    /// live process never continues past a log holding only a prefix of a
    /// batch it thinks failed — the failure mode that would silently
    /// diverge a primary from the replicas tailing its log. (A *crash*
    /// mid-batch can still persist a prefix of complete lines; that is the
    /// normal torn-tail story, and recovery/replicas replay exactly what
    /// the log holds.)
    pub fn append_batch(&mut self, records: &[ChangeRecord]) -> Result<(u64, u64), WalError> {
        self.append_batch_in(records, TraceCtx::detached(TraceKind::Commit))
    }

    /// [`WalWriter::append_batch`] under an explicit trace context: the
    /// `wal_append` (and any policy-driven `wal_fsync`) spans carry the
    /// caller's commit id, so the whole `Primary::commit` chain reassembles
    /// into one tree in the Chrome trace export.
    pub fn append_batch_in(
        &mut self,
        records: &[ChangeRecord],
        ctx: TraceCtx,
    ) -> Result<(u64, u64), WalError> {
        let bodies: Vec<String> = records.iter().map(ChangeRecord::encode).collect();
        self.append_bodies_in(&bodies, ctx, quest_fault::sites::WAL_APPEND)
    }

    /// [`WalWriter::append_batch_in`] over already-encoded bodies, one line
    /// each: the single append path every body type shares. The failpoint
    /// `site` fires before the write.
    pub(crate) fn append_bodies_in(
        &mut self,
        bodies: &[String],
        ctx: TraceCtx,
        site: &str,
    ) -> Result<(u64, u64), WalError> {
        if self.poisoned {
            return Err(WalError::Io(std::io::Error::other(
                "writer poisoned by an earlier failed append; reopen the log",
            )));
        }
        let first = self.next_seq;
        if bodies.is_empty() {
            return Ok((first, first - 1));
        }
        let span = quest_obs::spans().start();
        let start = Instant::now();
        let mut buf = String::new();
        let mut logical = 0u64;
        for (i, body) in bodies.iter().enumerate() {
            let seq = first + i as u64;
            logical += body.len() as u64;
            buf.push_str(&format!("{seq}\t{:016x}\t{body}\n", fnv64(body.as_bytes())));
        }
        if let Some(fault) = quest_fault::fire(site) {
            match fault.kind {
                quest_fault::FaultKind::SlowIo => fault.stall(),
                quest_fault::FaultKind::TornWrite => {
                    // Half the framed batch reaches the file, then the write
                    // errors. Take the real failed-append path: roll back to
                    // the last known-good length, poisoning if that fails.
                    let torn = &buf.as_bytes()[..buf.len() / 2];
                    let _ = self.file.write_all(torn);
                    if self.file.set_len(self.len).is_err()
                        || self.file.seek(SeekFrom::End(0)).is_err()
                    {
                        self.poison();
                    }
                    return Err(WalError::Io(fault.io_error()));
                }
                _ => return Err(WalError::Io(fault.io_error())),
            }
        }
        if let Err(e) = self.file.write_all(buf.as_bytes()) {
            if self.file.set_len(self.len).is_err() || self.file.seek(SeekFrom::End(0)).is_err() {
                self.poison();
            }
            return Err(WalError::Io(e));
        }
        self.len += buf.len() as u64;
        self.next_seq += bodies.len() as u64;
        match self.policy {
            SyncPolicy::Always => self.sync_or_poison(ctx)?,
            SyncPolicy::EveryN(n) => {
                self.unsynced += bodies.len() as u32;
                if n > 0 && self.unsynced >= n {
                    self.sync_or_poison(ctx)?;
                }
            }
            SyncPolicy::Never => {}
        }
        self.obs
            .append
            .record(quest_obs::duration_ns(start.elapsed()));
        self.obs.logical_bytes.add(logical);
        self.obs.physical_bytes.add(buf.len() as u64);
        quest_obs::spans().record_with(
            ctx,
            "wal_append",
            span,
            [
                Some(("records", bodies.len() as u64)),
                Some(("bytes", buf.len() as u64)),
            ],
        );
        Ok((first, self.next_seq - 1))
    }

    /// Refuse further appends and count the event.
    fn poison(&mut self) {
        self.poisoned = true;
        self.obs.poisoned.inc();
    }

    /// Policy-driven durability barrier inside an append. At this point the
    /// batch is already written: a failed fsync leaves the on-disk state
    /// unknown (the bytes may or may not survive a crash), so the writer
    /// poisons itself rather than hand back an error the caller would read
    /// as "batch not written" while tailing readers may already be applying
    /// it. Recovery: reopen the log; the scan re-establishes the truth.
    fn sync_or_poison(&mut self, ctx: TraceCtx) -> Result<(), WalError> {
        if let Err(e) = self.sync_in(ctx) {
            self.poison();
            return Err(e);
        }
        Ok(())
    }

    /// Empty the log back to its header and fsync it; sequence numbers start
    /// over at 1. A failure leaves the writer consistent with its file
    /// whichever step failed, so the call can simply be retried.
    pub(crate) fn clear(&mut self) -> Result<(), WalError> {
        self.heal()?;
        self.file.set_len(HEADER_LEN as u64)?;
        self.file.seek(SeekFrom::End(0))?;
        self.len = HEADER_LEN as u64;
        self.next_seq = 1;
        self.sync()
    }

    /// fsync the log file (durability point). Resets the
    /// [`SyncPolicy::EveryN`] append counter.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.sync_in(TraceCtx::detached(TraceKind::Commit))
    }

    /// [`WalWriter::sync`] under an explicit trace context (the
    /// `wal_fsync` span carries the caller's commit id).
    pub fn sync_in(&mut self, ctx: TraceCtx) -> Result<(), WalError> {
        let span = quest_obs::spans().start();
        let start = Instant::now();
        if let Some(fault) = quest_fault::fire(quest_fault::sites::WAL_FSYNC) {
            match fault.kind {
                quest_fault::FaultKind::SlowIo => fault.stall(),
                _ => return Err(WalError::Io(fault.io_error())),
            }
        }
        self.file.sync_data()?;
        self.obs
            .fsync
            .record(quest_obs::duration_ns(start.elapsed()));
        self.unsynced = 0;
        quest_obs::spans().record(ctx, "wal_fsync", span);
        Ok(())
    }

    /// Attempt to reconcile a poisoned writer in place instead of forcing a
    /// process restart.
    ///
    /// Poison means one of two things, and the same repair covers both:
    /// truncate to the last known-good length `len`, restore the append
    /// position, and prove the file healthy with an fsync.
    ///
    /// * **Rollback failure** — a failed append could not truncate its torn
    ///   line, so `len` excludes the batch; the `set_len` removes the torn
    ///   bytes now.
    /// * **Post-write fsync failure** — the batch is fully in the log and
    ///   `len` includes it, so the `set_len` is a no-op and the successful
    ///   fsync here *is* the durability barrier the append was missing.
    ///
    /// Only a fully successful sequence clears the poison; any failure
    /// leaves the writer poisoned and returns the error, so callers can
    /// retry transient faults under a backoff policy. A no-op on healthy
    /// writers.
    pub fn heal(&mut self) -> Result<(), WalError> {
        if !self.poisoned {
            return Ok(());
        }
        self.file.set_len(self.len)?;
        self.file.seek(SeekFrom::End(0))?;
        self.sync_in(TraceCtx::detached(TraceKind::Commit))?;
        self.poisoned = false;
        quest_fault::count_heal("wal");
        Ok(())
    }
}

/// Outcome of reading a log file.
#[derive(Debug)]
pub struct LogRecovery {
    /// Parsed records with their sequence numbers, in log order.
    pub records: Vec<(u64, ChangeRecord)>,
    /// Whether an invalid final line was dropped — a torn (half-written)
    /// append, or a final record whose checksum failed. If the tail was
    /// knowingly synced before the crash, this flag is the data-loss
    /// signal: the log itself cannot distinguish an unacknowledged torn
    /// append from acknowledged-then-rotted bytes.
    pub torn_tail: bool,
}

/// What the record rule accepted: records, the last seq (the starting one
/// if none), and the byte length of the verified prefix — anything past it
/// is a torn tail.
pub(crate) struct LogScan<T> {
    pub(crate) records: Vec<(u64, T)>,
    pub(crate) last_seq: u64,
    pub(crate) valid_len: usize,
}

/// Read and verify a whole log against `catalog`'s fingerprint. A torn
/// final line — including a header torn during log creation — is tolerated
/// (reported via [`LogRecovery::torn_tail`]); corruption anywhere else is
/// an error. See the [module docs](self) for both rules.
pub fn read_log(path: &Path, catalog: &Catalog) -> Result<LogRecovery, WalError> {
    let bytes = std::fs::read(path)?;
    let scan = scan_log(&bytes, schema_fingerprint(catalog), ChangeRecord::decode)?;
    let torn_tail = scan.valid_len < bytes.len();
    if torn_tail {
        count_torn_tail();
    }
    Ok(LogRecovery {
        records: scan.records,
        torn_tail,
    })
}

/// The header rule, then the record rule, over a whole log file.
fn scan_log<T>(
    bytes: &[u8],
    expected_fp: u64,
    decode: fn(&str) -> Result<T, String>,
) -> Result<LogScan<T>, WalError> {
    let Some(header) = header_len(bytes, expected_fp)? else {
        return Ok(LogScan {
            records: Vec::new(),
            last_seq: 0,
            valid_len: 0,
        });
    };
    let mut scan = scan_records(&bytes[header..], 0, 2, decode)?;
    scan.valid_len += header;
    Ok(scan)
}

/// The header rule: verify the header line `bytes` start with against
/// `expected_fp` and return its length, newline included; `None` for a
/// newline-free start shorter than a header line. Reads no further.
pub(crate) fn header_len(bytes: &[u8], expected_fp: u64) -> Result<Option<usize>, WalError> {
    let head = &bytes[..bytes.len().min(HEADER_LEN)];
    let Some(nl) = head.iter().position(|&b| b == b'\n') else {
        if head.len() < HEADER_LEN {
            return Ok(None);
        }
        return Err(bad_header(head));
    };
    let line = std::str::from_utf8(&head[..nl]).map_err(|_| bad_header(head))?;
    let mut fields = line.split('\t');
    let (Some(MAGIC), Some(VERSION), Some(fp)) = (fields.next(), fields.next(), fields.next())
    else {
        return Err(bad_header(head));
    };
    let found = u64::from_str_radix(fp, 16).map_err(|_| bad_header(head))?;
    if found != expected_fp {
        return Err(WalError::SchemaMismatch {
            expected: expected_fp,
            found,
        });
    }
    Ok(Some(nl + 1))
}

/// The header rule's one error; it quotes at most a header line.
fn bad_header(head: &[u8]) -> WalError {
    WalError::Corrupt {
        line: 1,
        message: format!("bad header `{}`", head.escape_ascii()),
    }
}

/// The record rule: verify the lines of `bytes` (the first is line
/// `first_line` of the file), with sequence numbers rising by exactly one
/// from `after`. Bytes after the last newline and a bad final line are a
/// torn tail; a bad line with a complete line after it is
/// [`WalError::Corrupt`].
pub(crate) fn scan_records<T>(
    bytes: &[u8],
    after: u64,
    first_line: usize,
    decode: fn(&str) -> Result<T, String>,
) -> Result<LogScan<T>, WalError> {
    let mut scan = LogScan {
        records: Vec::new(),
        last_seq: after,
        valid_len: 0,
    };
    // Bytes after the last newline are an append in flight or a torn tail;
    // a crash can split a multi-byte character, so they are never decoded.
    let cut = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let mut lines = bytes[..cut]
        .split_inclusive(|&b| b == b'\n')
        .zip(first_line..)
        .peekable();
    while let Some((raw, line)) = lines.next() {
        // Complete lines were written as UTF-8: one that is not is as bad
        // as one that does not parse.
        let parsed = std::str::from_utf8(&raw[..raw.len() - 1])
            .map_err(|e| format!("not valid UTF-8 at byte {}", e.valid_up_to()))
            .and_then(|text| parse_line(text, decode));
        match parsed {
            Ok((seq, body)) if scan.last_seq.checked_add(1) == Some(seq) => {
                scan.records.push((seq, body));
                scan.last_seq = seq;
                scan.valid_len += raw.len();
            }
            // A bad final line ends the log: out-of-order page flush can
            // persist a torn append's newline, so only *position* proves
            // anything. A seq that does not follow by one is bad too: the
            // seq field sits outside the checksum, so tail rot can damage
            // it alone.
            _ if lines.peek().is_none() => break,
            Ok((seq, _)) => {
                return Err(WalError::Corrupt {
                    line,
                    message: format!("sequence {seq} does not follow {}", scan.last_seq),
                })
            }
            Err(message) => return Err(WalError::Corrupt { line, message }),
        }
    }
    Ok(scan)
}

/// Cut a damaged log at `path` back to its valid prefix: the header and the
/// records, in sequence, up to the first line that does not verify. This is
/// done only when the prefix reaches `keep_through`, and only when `copy`,
/// the range of LSNs the caller holds elsewhere and re-appends (`None`:
/// none), starts no later than the first LSN after the prefix and reaches
/// every LSN a verified line past the damage holds. Returns whether the log was cut;
/// the cut is fsynced and counted as a torn tail.
pub(crate) fn cut_damage(
    path: &Path,
    catalog: &Catalog,
    keep_through: u64,
    copy: Option<std::ops::RangeInclusive<u64>>,
) -> Result<bool, WalError> {
    let bytes = std::fs::read(path)?;
    let Some(header) = header_len(&bytes, schema_fingerprint(catalog))? else {
        return Ok(false);
    };
    let (mut valid_len, mut last_seq, mut damaged) = (header, 0u64, false);
    // Highest LSN any verified line holds, past the damage included.
    let mut held = 0u64;
    for raw in bytes[header..].split_inclusive(|&b| b == b'\n') {
        let seq = std::str::from_utf8(raw)
            .ok()
            .and_then(|line| line.strip_suffix('\n'))
            .and_then(|line| parse_line(line, ChangeRecord::decode).ok())
            .map(|(seq, _)| seq);
        held = held.max(seq.unwrap_or(0));
        match seq {
            Some(seq) if !damaged && last_seq.checked_add(1) == Some(seq) => {
                last_seq = seq;
                valid_len += raw.len();
            }
            _ => damaged = true,
        }
    }
    let resupplied = copy.is_some_and(|copy| *copy.start() <= last_seq + 1 && held <= *copy.end());
    if !damaged || last_seq < keep_through || !resupplied {
        return Ok(false);
    }
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(valid_len as u64)?;
    file.sync_all()?;
    count_torn_tail();
    Ok(true)
}

/// Parse one line of any body type: `seq \t checksum \t body`. The last
/// `u64` is no sequence number: a log ending at it could never be appended
/// to, and the seq field sits outside the checksum, so only rot writes it.
pub(crate) fn parse_line<T>(
    line: &str,
    decode: fn(&str) -> Result<T, String>,
) -> Result<(u64, T), String> {
    let mut parts = line.splitn(3, '\t');
    let seq = parts
        .next()
        .and_then(|s| s.parse::<u64>().ok())
        .filter(|&seq| seq < u64::MAX)
        .ok_or("bad sequence field")?;
    let crc = parts
        .next()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or("bad checksum field")?;
    let body = parts.next().ok_or("missing body")?;
    if fnv64(body.as_bytes()) != crc {
        return Err(format!("checksum mismatch on record {seq}"));
    }
    Ok((seq, decode(body)?))
}

/// Outcome of [`replay`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Records applied.
    pub applied: usize,
    /// Records the store rejected — deterministically, exactly as the live
    /// system rejected them when they were first logged (see below).
    pub rejected: usize,
}

/// Apply records (as returned by [`read_log`]) with sequence numbers
/// strictly greater than `after_seq`, in order.
///
/// A record the store rejects (constraint violation) is **skipped and
/// counted**, not treated as an error: under the write-ahead protocol
/// records are logged before they are applied, so the log legitimately
/// contains records the live system rejected. A rejection is a pure
/// function of the database state at that log position, and replay visits
/// the same states in the same order, so it re-rejects exactly the same
/// records and converges on the state the live system held.
///
/// Statistics refresh is deferred across the whole replay (one per-table
/// recompute at the end instead of one per record); the final state is
/// bit-identical either way.
pub fn replay(
    db: &mut Database,
    records: &[(u64, ChangeRecord)],
    after_seq: u64,
) -> Result<ReplayReport, WalError> {
    let report = db.with_stats_deferred(|db| {
        let mut report = ReplayReport::default();
        for (seq, record) in records {
            if *seq <= after_seq {
                continue;
            }
            match record.apply(db) {
                Ok(_) => report.applied += 1,
                Err(_) => report.rejected += 1,
            }
        }
        report
    });
    if report.rejected > 0 {
        quest_obs::global()
            .counter(names::REPLAY_REJECTED)
            .add(report.rejected as u64);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::DataType;
    use std::path::PathBuf;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.define_table("t")
            .unwrap()
            .pk("id", DataType::Int)
            .unwrap()
            .col("name", DataType::Text)
            .unwrap()
            .finish();
        c
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("quest-wal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.wal", std::process::id()))
    }

    fn ins(id: i64) -> ChangeRecord {
        ChangeRecord::Insert {
            table: "t".into(),
            row: vec![id.into(), format!("row {id}").into()],
        }
    }

    #[test]
    fn cut_damage_cuts_only_what_the_copy_resupplies() {
        let c = catalog();
        let path = temp_path("cut-damage");
        std::fs::remove_file(&path).ok();
        {
            let mut w = WalWriter::open(&path, &c).unwrap();
            w.append_batch(&(1..=5).map(ins).collect::<Vec<_>>())
                .unwrap();
        }
        let clean = std::fs::read(&path).unwrap();
        // Garble record 3; records 4 and 5 still verify after it.
        let mut lines: Vec<Vec<u8>> = clean
            .split_inclusive(|&b| b == b'\n')
            .map(<[u8]>::to_vec)
            .collect();
        let body = lines[3].len() - 1;
        lines[3][..body].fill(0);
        let damaged = lines.concat();
        std::fs::write(&path, &damaged).unwrap();
        assert!(matches!(
            read_log(&path, &c).unwrap_err(),
            WalError::Corrupt { line: 4, .. }
        ));

        // Refused: the prefix (records 1–2) ends below `keep_through`; the
        // copy starts past record 3, stops short of record 5, or is empty.
        let refused = [
            (3, Some(3..=5)),
            (2, Some(4..=5)),
            (2, Some(3..=4)),
            (2, None),
        ];
        for (keep_through, copy) in refused {
            assert!(!cut_damage(&path, &c, keep_through, copy).unwrap());
            assert_eq!(std::fs::read(&path).unwrap(), damaged);
        }
        // Cut: the log ends at record 2 and reads clean.
        assert!(cut_damage(&path, &c, 2, Some(3..=5)).unwrap());
        let kept = read_log(&path, &c).unwrap();
        assert_eq!(kept.records.len(), 2);
        assert!(!kept.torn_tail);
        assert!(clean.starts_with(&std::fs::read(&path).unwrap()));
        // An undamaged log is left alone.
        assert!(!cut_damage(&path, &c, 0, Some(1..=5)).unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_read_round_trip() {
        let path = temp_path("roundtrip");
        let c = catalog();
        {
            let mut w = WalWriter::open(&path, &c).unwrap();
            assert_eq!(w.append(&ins(1)).unwrap(), 1);
            assert_eq!(w.append(&ins(2)).unwrap(), 2);
            w.sync().unwrap();
        }
        // Reopen continues the sequence.
        {
            let mut w = WalWriter::open(&path, &c).unwrap();
            assert_eq!(w.next_seq(), 3);
            assert_eq!(w.append(&ins(3)).unwrap(), 3);
        }
        let log = read_log(&path, &c).unwrap();
        assert!(!log.torn_tail);
        assert_eq!(log.records.len(), 3);
        assert_eq!(log.records[2], (3, ins(3)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sync_policies_apply_and_reset() {
        // fsync effects are invisible to a test, but every policy path must
        // append successfully, keep counting, and survive reopen.
        let path = temp_path("syncpolicy");
        let c = catalog();
        {
            let mut w = WalWriter::open_with(&path, &c, SyncPolicy::Always).unwrap();
            assert_eq!(w.sync_policy(), SyncPolicy::Always);
            w.append(&ins(1)).unwrap();
            w.set_sync_policy(SyncPolicy::EveryN(2));
            w.append(&ins(2)).unwrap();
            w.append(&ins(3)).unwrap(); // second unsynced append: auto-syncs
            w.append(&ins(4)).unwrap();
            w.sync().unwrap(); // manual sync resets the EveryN counter
            w.set_sync_policy(SyncPolicy::EveryN(0)); // behaves like Never
            w.append(&ins(5)).unwrap();
            w.set_sync_policy(SyncPolicy::Never);
            w.append(&ins(6)).unwrap();
        }
        let log = read_log(&path, &c).unwrap();
        assert_eq!(log.records.len(), 6);
        assert!(!log.torn_tail);
        // The default stays the fast path.
        let w = WalWriter::open(&path, &c).unwrap();
        assert_eq!(w.sync_policy(), SyncPolicy::Never);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let path = temp_path("torn");
        let c = catalog();
        {
            let mut w = WalWriter::open(&path, &c).unwrap();
            w.append(&ins(1)).unwrap();
            w.append(&ins(2)).unwrap();
        }
        // Simulate a crash mid-append: a half-written line with no newline.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"3\t00ff").unwrap();
        }
        let log = read_log(&path, &c).unwrap();
        assert!(log.torn_tail);
        assert_eq!(log.records.len(), 2);
        // Reopening for append truncates the torn tail and resumes at 3.
        let mut w = WalWriter::open(&path, &c).unwrap();
        assert_eq!(w.next_seq(), 3);
        w.append(&ins(3)).unwrap();
        drop(w);
        let log = read_log(&path, &c).unwrap();
        assert!(!log.torn_tail);
        assert_eq!(log.records.len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_header_reinitializes_the_log() {
        // A crash during log *creation* can leave a partial header with no
        // newline; nothing was ever appended, so open() starts over with a
        // fresh header instead of leaving a headerless (or bricked) file.
        let path = temp_path("torn-header");
        let c = catalog();
        for partial in ["QUESTW", "QUESTWAL\t1\t0123456789abcdef"] {
            std::fs::write(&path, partial).unwrap();
            // The read path tolerates it too (recover() must not brick on
            // a log whose creation crashed): empty log, torn tail noted.
            let log = read_log(&path, &c).unwrap();
            assert!(log.records.is_empty());
            assert!(log.torn_tail);
            let mut w = WalWriter::open(&path, &c).unwrap();
            assert_eq!(w.next_seq(), 1);
            w.append(&ins(1)).unwrap();
            drop(w);
            let log = read_log(&path, &c).unwrap();
            assert!(!log.torn_tail);
            assert_eq!(log.records, vec![(1, ins(1))]);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_first_line_longer_than_a_header_is_corrupt_to_every_reader() {
        // A header can be torn only while it is shorter than a header line;
        // past that length the first line is damage, newline or not, and
        // the one header error names it once and quotes no more of it than
        // a header's length.
        let path = temp_path("long-header");
        let c = catalog();
        let records = {
            let mut w = WalWriter::open(&path, &c).unwrap();
            w.append_batch(&[ins(1), ins(2), ins(3)]).unwrap();
            w.sync().unwrap();
            let text = std::fs::read_to_string(&path).unwrap();
            text[HEADER_LEN..].to_string()
        };
        let long = format!("QUESTWAL\t1\t{}\n{records}", "f".repeat(300));
        let newline_free = "QUESTWAL\t1\t0123456789abcdef0".to_string();
        assert_eq!(newline_free.len(), HEADER_LEN);
        for bytes in [long, newline_free] {
            std::fs::write(&path, &bytes).unwrap();
            let errors = [
                read_log(&path, &c).unwrap_err(),
                WalWriter::open(&path, &c).unwrap_err(),
                crate::LogReader::open(&path, &c).unwrap_err(),
            ];
            for err in errors {
                assert!(matches!(err, WalError::Corrupt { line: 1, .. }), "{err}");
                let shown = err.to_string();
                assert_eq!(
                    shown.matches("corrupt record at line 1").count(),
                    1,
                    "{shown}"
                );
                assert!(shown.len() <= 32 + 4 * HEADER_LEN, "{shown}");
            }
            // The writer refused without touching the file.
            assert_eq!(std::fs::read_to_string(&path).unwrap(), bytes);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mid_file_corruption_is_fatal() {
        let path = temp_path("corrupt");
        let c = catalog();
        {
            let mut w = WalWriter::open(&path, &c).unwrap();
            w.append(&ins(1)).unwrap();
            w.append(&ins(2)).unwrap();
        }
        let mut text = std::fs::read_to_string(&path).unwrap();
        // Flip a byte inside the first record's body.
        text = text.replace("row 1", "row X");
        std::fs::write(&path, text).unwrap();
        let err = read_log(&path, &c).unwrap_err();
        assert!(matches!(err, WalError::Corrupt { line: 2, .. }), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn complete_but_corrupt_final_record_is_dropped_and_reported() {
        // Out-of-order page flush means a crash during an un-synced append
        // can leave a newline-terminated line with garbage before it, so a
        // corrupt *final* record ends the log (availability) — but is
        // always reported via torn_tail, never silently swallowed.
        let path = temp_path("rotted-tail");
        let c = catalog();
        {
            let mut w = WalWriter::open(&path, &c).unwrap();
            w.append(&ins(1)).unwrap();
            w.append(&ins(2)).unwrap();
            w.sync().unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with('\n'));
        std::fs::write(&path, text.replace("row 2", "row Z")).unwrap();
        let log = read_log(&path, &c).unwrap();
        assert!(log.torn_tail, "the dropped tail must be reported");
        assert_eq!(log.records, vec![(1, ins(1))]);
        // Reopening truncates the bad tail and resumes the sequence.
        let mut w = WalWriter::open(&path, &c).unwrap();
        assert_eq!(w.next_seq(), 2);
        w.append(&ins(2)).unwrap();
        drop(w);
        let log = read_log(&path, &c).unwrap();
        assert!(!log.torn_tail);
        assert_eq!(log.records.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sequence_regression_is_torn_on_the_final_line_but_fatal_mid_file() {
        // The seq field sits outside the body checksum, so tail rot can
        // damage it alone: 3 -> 1 (or 2 -> 1) leaves a line that verifies
        // but goes backwards.
        assert_tail_torn_and_middle_corrupt("seq-rot", |line| line[0] = b'1');
    }

    /// Write a three-record log beside a snapshot at LSN 0, then `rot`
    /// the line of record `n`.
    fn rotted_log(name: &str, n: usize, rot: fn(&mut [u8])) -> (PathBuf, PathBuf) {
        let (path, snap) = (temp_path(name), temp_path(&format!("{name}-snap")));
        std::fs::remove_file(&path).ok();
        let c = catalog();
        let mut db = Database::new(c.clone()).unwrap();
        db.finalize();
        crate::write_snapshot(&db, &snap, 0).unwrap();
        WalWriter::open(&path, &c)
            .unwrap()
            .append_batch(&(1..=3).map(ins).collect::<Vec<_>>())
            .unwrap();
        let mut lines: Vec<Vec<u8>> = std::fs::read(&path)
            .unwrap()
            .split_inclusive(|&b| b == b'\n')
            .map(<[u8]>::to_vec)
            .collect();
        rot(&mut lines[n]);
        std::fs::write(&path, lines.concat()).unwrap();
        (path, snap)
    }

    /// Rot of record 3 (the final line) is a torn tail to every reader and
    /// the writer resumes at seq 3; the same rot of record 2 is corrupt at
    /// line 3 to every reader.
    fn assert_tail_torn_and_middle_corrupt(name: &str, rot: fn(&mut [u8])) {
        let c = catalog();
        let (path, snap) = rotted_log(name, 3, rot);
        let log = read_log(&path, &c).unwrap();
        assert!(log.torn_tail);
        assert_eq!(log.records, vec![(1, ins(1)), (2, ins(2))]);
        let recovered = crate::recover(&snap, &path).unwrap();
        assert!(recovered.torn_tail);
        assert_eq!(recovered.applied, 2);
        assert_eq!(WalWriter::open(&path, &c).unwrap().next_seq(), 3);

        let (path, snap) = rotted_log(name, 2, rot);
        let corrupt_at_line_3 = |e: WalError| matches!(e, WalError::Corrupt { line: 3, .. });
        assert!(corrupt_at_line_3(read_log(&path, &c).unwrap_err()));
        assert!(corrupt_at_line_3(crate::recover(&snap, &path).unwrap_err()));
        assert!(corrupt_at_line_3(WalWriter::open(&path, &c).unwrap_err()));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&snap).ok();
    }

    #[test]
    fn a_line_that_is_not_utf8_is_torn_at_the_tail_and_corrupt_mid_file() {
        // 0xFF in the body: the line fails UTF-8 before its checksum.
        assert_tail_torn_and_middle_corrupt("not-utf8", |line| {
            let body_end = line.len() - 2;
            line[body_end] = 0xFF;
        });
    }

    #[test]
    fn a_seq_that_skips_is_torn_at_the_tail_and_corrupt_mid_file() {
        // The seq field sits outside the checksum: 3 -> 9 (or 2 -> 9)
        // leaves a line that verifies but skips LSNs.
        assert_tail_torn_and_middle_corrupt("seq-gap", |line| line[0] = b'9');
        // The salvage cut stops before the skip too, not after it.
        let c = catalog();
        let (path, snap) = rotted_log("seq-gap-cut", 2, |line| line[0] = b'9');
        assert!(cut_damage(&path, &c, 1, Some(2..=9)).unwrap());
        assert_eq!(read_log(&path, &c).unwrap().records, vec![(1, ins(1))]);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&snap).ok();
    }

    #[test]
    fn schema_mismatch_refuses_load() {
        let path = temp_path("mismatch");
        let c = catalog();
        {
            let mut w = WalWriter::open(&path, &c).unwrap();
            w.append(&ins(1)).unwrap();
        }
        let mut other = Catalog::new();
        other
            .define_table("t")
            .unwrap()
            .pk("id", DataType::Int)
            .unwrap()
            .col("renamed", DataType::Text)
            .unwrap()
            .finish();
        assert!(matches!(
            read_log(&path, &other).unwrap_err(),
            WalError::SchemaMismatch { .. }
        ));
        assert!(matches!(
            WalWriter::open(&path, &other).unwrap_err(),
            WalError::SchemaMismatch { .. }
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wal_metrics_reach_the_global_registry() {
        // Deltas, not absolutes: the global registry is shared by every
        // test in this binary.
        let path = temp_path("obs");
        let c = catalog();
        let registry = quest_obs::global();
        let appends =
            |s: &quest_obs::MetricsSnapshot| s.histogram(names::APPEND).map_or(0, |h| h.count);
        let fsyncs =
            |s: &quest_obs::MetricsSnapshot| s.histogram(names::FSYNC).map_or(0, |h| h.count);
        let torn = |s: &quest_obs::MetricsSnapshot| s.counter(names::TORN_TAIL).unwrap_or(0);
        let before = registry.snapshot();
        {
            let mut w = WalWriter::open(&path, &c).unwrap();
            w.append(&ins(1)).unwrap();
            w.sync().unwrap();
        }
        // `>=`: sibling tests in this binary append concurrently.
        let after = registry.snapshot();
        assert!(appends(&after) > appends(&before));
        assert!(fsyncs(&after) > fsyncs(&before));

        // A torn tail is counted by the scan that observes it.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"2\tdead").unwrap();
        }
        assert!(read_log(&path, &c).unwrap().torn_tail);
        assert!(torn(&registry.snapshot()) > torn(&after));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn replay_applies_suffix_only_and_rerejects_deterministically() {
        let c = catalog();
        let mut db = Database::new(c.clone()).unwrap();
        db.finalize();
        let records = vec![(1, ins(1)), (2, ins(2)), (3, ins(3))];
        // Pretend a snapshot already contains record 1's effect.
        db.insert("t", relstore::Row::new(vec![1.into(), "row 1".into()]))
            .unwrap();
        let report = replay(&mut db, &records, 1).unwrap();
        assert_eq!(
            report,
            ReplayReport {
                applied: 2,
                rejected: 0
            }
        );
        assert_eq!(db.total_rows(), 3);
        assert!(db.validate().is_ok());
        // A logged record the live system rejected (duplicate key) is
        // re-rejected and skipped, and the records after it still apply —
        // a single poison record must not make the log unrecoverable.
        let tail = vec![(4, ins(2)), (5, ins(4))];
        let report = replay(&mut db, &tail, 0).unwrap();
        assert_eq!(
            report,
            ReplayReport {
                applied: 1,
                rejected: 1
            }
        );
        assert_eq!(db.total_rows(), 4);
        assert!(db.validate().is_ok());
    }
}
