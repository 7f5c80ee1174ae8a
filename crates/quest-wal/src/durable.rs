//! [`DurableLog`]: a write-ahead log and the latest snapshot of its
//! database in one directory — everything about a write point that is
//! *only* durability (the rules are listed in the crate docs), and no rows.

use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use quest_fault::{Clock, RetryPolicy};
use quest_obs::TraceCtx;
use relstore::Database;

use crate::error::WalError;
use crate::log::{ensure_covers, read_failpoint, replay, LogFile, SyncPolicy, WalWriter};
use crate::record::ChangeRecord;
use crate::snapshot::{read_snapshot, write_snapshot};

/// File name of the write-ahead log inside the directory.
pub(crate) const WAL_FILE: &str = "primary.wal";
/// File name of the latest published snapshot inside the directory.
pub(crate) const SNAPSHOT_FILE: &str = "latest.snap";

/// Run `step` on `wal` until it succeeds, sleeping out `retry`'s backoff on
/// `clock` between transient failures; a permanent error or a spent budget
/// is returned.
pub(crate) fn retrying<T>(
    wal: &mut WalWriter,
    retry: &RetryPolicy,
    clock: &dyn Clock,
    mut step: impl FnMut(&mut WalWriter) -> Result<T, WalError>,
) -> Result<T, WalError> {
    let mut attempt: u32 = 0;
    loop {
        match step(wal) {
            Err(e) if retry.backoff(clock, e.is_transient(), &mut attempt) => {}
            result => return result,
        }
    }
}

/// A write-ahead log and its latest snapshot in one directory, with
/// transient-fault retries. Plain `&mut self`: whoever owns the live
/// database serializes access.
#[derive(Debug)]
pub struct DurableLog {
    dir: PathBuf,
    wal: WalWriter,
    /// Backoff policy for transient faults, and the clock it sleeps against.
    retry: RetryPolicy,
    clock: Arc<dyn Clock>,
}

impl DurableLog {
    /// Start a fresh log in `dir` for `db`: create the directory and the
    /// log, and publish a snapshot at LSN 0 so readers can bootstrap
    /// immediately. Refuses a directory whose log already has records —
    /// that history belongs to an earlier incarnation; use
    /// [`DurableLog::reopen`] to resume it.
    pub fn create(
        dir: &Path,
        db: &Database,
        sync_policy: SyncPolicy,
        retry: RetryPolicy,
        clock: Arc<dyn Clock>,
    ) -> Result<DurableLog, WalError> {
        std::fs::create_dir_all(dir)?;
        let wal = WalWriter::open_with(&dir.join(WAL_FILE), db.catalog(), sync_policy)?;
        if wal.next_seq() != 1 {
            return Err(WalError::State(format!(
                "{} already holds {} records; reopen the directory to resume it",
                dir.join(WAL_FILE).display(),
                wal.next_seq() - 1
            )));
        }
        let mut log = DurableLog {
            dir: dir.to_path_buf(),
            wal,
            retry,
            clock,
        };
        log.publish_snapshot(db)?;
        Ok(log)
    }

    /// Resume the log in `dir`: restore the latest snapshot's rows, replay
    /// the log suffix on them, and continue the LSN sequence where the
    /// previous incarnation stopped. Each file is read once: one scan of
    /// the log verifies every record, decodes those past the snapshot's
    /// LSN, and gives the writer its end. A log that ends below that LSN is
    /// refused with [`WalError::State`] before any byte of it is written.
    /// The rows come back bare, beside the log: the owner runs
    /// [`Database::finalize`] and [`Database::validate`] once.
    pub fn reopen(
        dir: &Path,
        sync_policy: SyncPolicy,
        retry: RetryPolicy,
        clock: Arc<dyn Clock>,
    ) -> Result<(DurableLog, Database), WalError> {
        DurableLog::reopen_salvaging(dir, sync_policy, retry, clock, None)
    }

    /// [`DurableLog::reopen`] for a log whose records in `copy` (a range of
    /// LSNs, `None` for none) are also held elsewhere, as a shard log's unsynced suffix is by
    /// its coordinator log. A power loss can leave a garbled line with valid
    /// lines after it in a region that was never fsynced, which `reopen`
    /// refuses as corruption. Here the log is cut back to its valid prefix
    /// instead, when that prefix reaches the snapshot's LSN and `copy`
    /// re-supplies everything past it. The caller must then re-append the
    /// records `copy` holds beyond [`DurableLog::last_lsn`]. Damage at or
    /// below the snapshot's LSN, or beyond what `copy` covers, is refused
    /// as `reopen` refuses it.
    pub fn reopen_salvaging(
        dir: &Path,
        sync_policy: SyncPolicy,
        retry: RetryPolicy,
        clock: Arc<dyn Clock>,
        copy: Option<RangeInclusive<u64>>,
    ) -> Result<(DurableLog, Database), WalError> {
        let snapshot = read_snapshot(&dir.join(SNAPSHOT_FILE))?;
        let covered = snapshot.last_seq;
        let path = dir.join(WAL_FILE);
        read_failpoint()?;
        let mut file = LogFile::open(&path, snapshot.db.catalog(), false)?;
        let scan = match file.scan(covered, ChangeRecord::decode) {
            Ok(scan) => scan,
            Err(damage) => file.cut_damage(damage, covered, copy)?,
        };
        ensure_covers(&path, scan.last_seq, covered)?;
        let wal = file.into_writer(&scan, sync_policy)?;
        let mut db = snapshot.db;
        replay(&mut db, &scan.records, covered)?;
        let log = DurableLog {
            dir: dir.to_path_buf(),
            wal,
            retry,
            clock,
        };
        Ok((log, db))
    }

    /// Replace the retry policy and the clock its backoff sleeps against.
    pub fn set_recovery(&mut self, retry: RetryPolicy, clock: Arc<dyn Clock>) {
        self.retry = retry;
        self.clock = clock;
    }

    /// [`retrying`] under this log's policy and clock.
    fn retrying<T>(
        &mut self,
        step: impl FnMut(&mut WalWriter) -> Result<T, WalError>,
    ) -> Result<T, WalError> {
        retrying(&mut self.wal, &self.retry, self.clock.as_ref(), step)
    }

    /// Append `batch` **all-or-nothing** ([`WalWriter::append_batch`]),
    /// assigning each record its LSN, and return the first and last.
    /// Transient faults are retried in place: each turn first reconciles a
    /// poisoned writer ([`WalWriter::heal`]), then (re-)appends at the same
    /// LSNs.
    ///
    /// On `Err`, [`DurableLog::last_lsn`] says which failure it was. If it
    /// did not move, the log is back at its pre-batch state. If it advanced
    /// past the batch, a *post-write* fsync failure left the records in the
    /// log — where tailing readers may already be applying them — with
    /// their durability unknown: the append is not acknowledged, but
    /// failure is not rollback under write-ahead logging, so a caller that
    /// mirrors the log into live state must apply the batch anyway.
    pub fn append(
        &mut self,
        batch: &[ChangeRecord],
        ctx: TraceCtx,
    ) -> Result<(u64, u64), WalError> {
        let first = self.wal.next_seq();
        // What `next_seq` reads once the whole batch is in the log.
        let landed_at = first + batch.len() as u64;
        self.retrying(|wal| {
            let landed = !batch.is_empty() && wal.next_seq() == landed_at;
            wal.heal()?; // a no-op on a healthy writer
            if landed {
                // The batch landed before a post-write fsync poison; the
                // heal's successful fsync IS the durability barrier it was
                // missing, and re-appending would duplicate the records.
                Ok((first, landed_at - 1))
            } else {
                wal.append_batch_in(batch, ctx)
            }
        })
    }

    /// fsync the log: everything appended so far becomes durable.
    /// Transient faults (and a heal-able poisoned writer) are retried.
    pub fn sync(&mut self) -> Result<(), WalError> {
        // heal() truncates any torn tail and ends in an fsync of its own.
        self.retrying(|wal| {
            if wal.poisoned() {
                wal.heal()
            } else {
                wal.sync()
            }
        })
    }

    /// Write a fresh snapshot of `db` at the current LSN (atomically
    /// replacing the previous one) and return that LSN. `db` must be the
    /// state after exactly the records this log holds — the caller's
    /// exclusive access to both is what makes the snapshot slot-exact.
    pub fn publish_snapshot(&mut self, db: &Database) -> Result<u64, WalError> {
        // The snapshot must never become durable ahead of the log it
        // watermarks: a crash in between would leave a snapshot covering
        // LSNs the log does not hold, and a resumed log would re-issue
        // them. fsync the log first, whatever the SyncPolicy says.
        self.sync()?;
        let (lsn, path) = (self.last_lsn(), self.snapshot_path());
        // A failed publish never harms bootstrap: the write-to-temp then
        // rename protocol leaves the previous snapshot intact.
        self.retrying(|_| write_snapshot(db, &path, lsn))?;
        Ok(lsn)
    }

    /// LSN of the last record in the log.
    pub fn last_lsn(&self) -> u64 {
        self.wal.next_seq() - 1
    }

    /// Path of the write-ahead log readers tail.
    pub fn wal_path(&self) -> PathBuf {
        self.dir.join(WAL_FILE)
    }

    /// Path of the latest published snapshot readers bootstrap from.
    pub fn snapshot_path(&self) -> PathBuf {
        self.dir.join(SNAPSHOT_FILE)
    }
}
