//! [`Primary`]: the single write point of a replicated QUEST topology.
//!
//! The primary owns the only [`DurableLog`] and the only mutable engine. A
//! [`Primary::commit`] appends the batch to the log — assigning each record
//! its **LSN**, the log sequence number that is the topology's global clock
//! — and then applies it through the primary's own [`CachedEngine`], all
//! under one lock so log order always equals apply order (the invariant
//! every replica's convergence proof rests on). The committed LSN is
//! published only after the apply completes, so a client holding a
//! [`CommitReceipt`] can demand read-your-writes from any server at or past
//! `receipt.last_lsn`.
//!
//! Replicas bootstrap from the primary's published snapshot
//! ([`Primary::publish_snapshot`], always at an exact LSN) and then tail
//! the same log file with a positioned
//! [`LogReader`](quest_wal::LogReader) — the log is the replication
//! transport, not just a crash-recovery artifact.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use quest_core::{FullAccessWrapper, Quest, QuestConfig, QuestError, SearchOutcome};
use quest_fault::{Clock, RetryPolicy, SystemClock};
use quest_obs::TraceKind;
use quest_serve::{ApplyReport, CachedEngine};
use quest_wal::{ChangeRecord, DurableLog, SyncPolicy, WalError};
use relstore::Database;

use crate::error::ReplicaError;

/// Tuning knobs of a [`Primary`].
#[derive(Debug, Clone)]
pub struct PrimaryOptions {
    /// Automatic-fsync policy of the log (default: [`SyncPolicy::Never`] —
    /// the caller owns durability points via [`Primary::sync`]).
    pub sync_policy: SyncPolicy,
    /// Backoff policy for transient WAL faults inside [`Primary::commit`],
    /// [`Primary::sync`], and [`Primary::publish_snapshot`] (default:
    /// [`RetryPolicy::default`]).
    pub retry: RetryPolicy,
    /// Time source the retry loops sleep against (default: wall clock;
    /// tests inject a [`quest_fault::ManualClock`]).
    pub clock: Arc<dyn Clock>,
}

impl Default for PrimaryOptions {
    fn default() -> PrimaryOptions {
        PrimaryOptions {
            sync_policy: SyncPolicy::default(),
            retry: RetryPolicy::default(),
            clock: Arc::new(SystemClock::new()),
        }
    }
}

/// What one [`Primary::commit`] did.
#[derive(Debug)]
pub struct CommitReceipt {
    /// LSN of the first record in the batch. For an empty batch this is
    /// `last_lsn + 1` (an empty LSN range).
    pub first_lsn: u64,
    /// LSN of the last record — the token to pass as
    /// [`Consistency::AtLeast`](crate::Consistency::AtLeast) for
    /// read-your-writes over this commit.
    pub last_lsn: u64,
    /// Per-record outcome: which records applied and which the store
    /// rejected (rejections are logged too, and re-rejected identically by
    /// every replica and every recovery).
    pub report: ApplyReport,
}

/// The write point: one log, one mutable engine, monotonic LSNs.
#[derive(Debug)]
pub struct Primary {
    engine: Arc<CachedEngine<FullAccessWrapper>>,
    /// The single durable log (WAL + snapshot + fault retries). Held across
    /// append **and** apply in [`Primary::commit`], so log order equals
    /// apply order.
    log: Mutex<DurableLog>,
    /// Highest LSN whose effect is applied and visible to searches.
    /// Published with `Release` after the apply, so a reader that observes
    /// LSN `L` here can rely on the primary serving data at or past `L`.
    last_lsn: AtomicU64,
    /// Acknowledged records, in the global registry — the logical write
    /// volume the replication amplification ratio divides by.
    records_committed: quest_obs::Counter,
}

impl Primary {
    /// Start a fresh primary in `dir` over `db`, with default options.
    ///
    /// Creates the directory, the log, and an initial snapshot at LSN 0 so
    /// replicas can bootstrap immediately. Refuses a directory whose log
    /// already has records — that history belongs to an earlier incarnation;
    /// use [`Primary::reopen`] to resume it.
    pub fn open(dir: &Path, db: Database, config: QuestConfig) -> Result<Primary, ReplicaError> {
        Primary::open_with(dir, db, config, PrimaryOptions::default())
    }

    /// [`Primary::open`] with explicit options.
    pub fn open_with(
        dir: &Path,
        db: Database,
        config: QuestConfig,
        options: PrimaryOptions,
    ) -> Result<Primary, ReplicaError> {
        let log = DurableLog::create(dir, &db, options.sync_policy, options.retry, options.clock)?;
        Primary::assemble(log, db, config)
    }

    /// Resume a primary from its directory: restore the latest snapshot
    /// plus the log suffix ([`DurableLog::reopen`]), build the derived
    /// state and validate it once, as [`quest_wal::recover`] does, and
    /// continue the LSN sequence where the previous incarnation stopped.
    pub fn reopen(
        dir: &Path,
        config: QuestConfig,
        options: PrimaryOptions,
    ) -> Result<Primary, ReplicaError> {
        let (log, mut db) =
            DurableLog::reopen(dir, options.sync_policy, options.retry, options.clock)?;
        db.finalize();
        db.validate().map_err(WalError::Store)?;
        Primary::assemble(log, db, config)
    }

    /// A primary serving `db`, the state after exactly the records in `log`.
    fn assemble(
        log: DurableLog,
        db: Database,
        config: QuestConfig,
    ) -> Result<Primary, ReplicaError> {
        let engine = Quest::new(FullAccessWrapper::new(db), config)?;
        let registry = quest_obs::global();
        registry.describe(
            crate::names::RECORDS_COMMITTED,
            "Records committed through Primary::commit.",
        );
        Ok(Primary {
            engine: Arc::new(CachedEngine::new(engine)),
            last_lsn: AtomicU64::new(log.last_lsn()),
            log: Mutex::new(log),
            records_committed: registry.counter(crate::names::RECORDS_COMMITTED),
        })
    }

    /// Every update leaves the log valid at every step (a failed append
    /// rolls back or poisons the writer, which the next call heals), so a
    /// panic under the lock does not invalidate it.
    fn log(&self) -> MutexGuard<'_, DurableLog> {
        self.log.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Commit a mutation batch: write-ahead to the log (assigning LSNs),
    /// then apply through the serving engine — both under the writer lock,
    /// so concurrent commits serialize and log order equals apply order.
    ///
    /// The batch is appended **all-or-nothing** ([`DurableLog::append`],
    /// which also retries transient faults in place): a failed append rolls
    /// the log back and applies nothing, so the live primary can never
    /// diverge from a log that holds only a prefix of a batch it reported
    /// failed. The one failure that cannot roll back (a *post-write* fsync
    /// failure) applies the batch here too and still returns the error.
    ///
    /// Rejected records are part of the committed history (they are logged,
    /// and every replica re-rejects them identically); the receipt's
    /// [`ApplyReport`] says which ones. Durability at commit time follows
    /// the [`SyncPolicy`]; call [`Primary::sync`] for an explicit barrier.
    ///
    /// `last_lsn` is published only once the apply completes — it is the
    /// primary's read-your-writes barrier, **not** a replication barrier:
    /// a replica tailing the shared log may legitimately apply (and serve)
    /// a batch in the window between the append and the publish.
    pub fn commit(&self, batch: &[ChangeRecord]) -> Result<CommitReceipt, ReplicaError> {
        let mut log = self.log();
        if batch.is_empty() {
            return Ok(CommitReceipt {
                first_lsn: self.last_lsn() + 1,
                last_lsn: self.last_lsn(),
                report: ApplyReport::default(),
            });
        }
        // One trace context for the whole commit: the WAL append/fsync and
        // the engine apply below record their spans under it, so the Chrome
        // export can reassemble this commit's full write-path timeline.
        let collector = quest_obs::spans();
        let ctx = collector.ctx(TraceKind::Commit);
        let commit_started = collector.start();
        let lsn_before = log.last_lsn();
        let appended = log.append(batch, ctx);
        if log.last_lsn() == lsn_before {
            // Rolled back: nothing is in the log, so nothing is applied.
            return Err(appended.expect_err("an append advances the log").into());
        }
        // The whole batch is in the log — also when the append reports a
        // post-write failure — so mirror it. Publish only after the apply:
        // a client that reads LSN L off a receipt (or off `last_lsn`) may
        // immediately demand data at L from this very primary.
        let report = self.engine.apply_in(batch, ctx)?;
        self.last_lsn.store(log.last_lsn(), Ordering::Release);
        let (first_lsn, last_lsn) = appended?;
        self.records_committed.add(batch.len() as u64);
        collector.record_with(
            ctx,
            "primary_commit",
            commit_started,
            [
                Some(("records", batch.len() as u64)),
                Some(("last_lsn", last_lsn)),
            ],
        );
        Ok(CommitReceipt {
            first_lsn,
            last_lsn,
            report,
        })
    }

    /// fsync the log: everything committed so far becomes durable.
    /// Transient faults (and a heal-able poisoned writer) are retried under
    /// the backoff policy.
    pub fn sync(&self) -> Result<(), ReplicaError> {
        Ok(self.log().sync()?)
    }

    /// Write a fresh snapshot of the current state at the current LSN
    /// (atomically replacing the previous one) and return that LSN. New
    /// replicas bootstrap from here and only stream the log suffix past it.
    ///
    /// Holds the writer lock, so the snapshot is slot-exact for its LSN: no
    /// commit can interleave between reading the LSN and the data.
    pub fn publish_snapshot(&self) -> Result<u64, ReplicaError> {
        let mut log = self.log();
        let engine = self.engine.engine();
        Ok(log.publish_snapshot(engine.wrapper().database())?)
    }

    /// Highest LSN whose effect is applied and visible to searches.
    pub fn last_lsn(&self) -> u64 {
        self.last_lsn.load(Ordering::Acquire)
    }

    /// Serve a search from the primary itself (always current).
    pub fn search(&self, raw_query: &str) -> Result<SearchOutcome, QuestError> {
        self.engine.search(raw_query)
    }

    /// The primary's cache-backed engine (for stats, feedback, or wiring a
    /// [`QueryService`](quest_serve::QueryService) over it).
    pub fn engine(&self) -> &Arc<CachedEngine<FullAccessWrapper>> {
        &self.engine
    }

    /// Path of the write-ahead log replicas tail.
    pub fn wal_path(&self) -> PathBuf {
        self.log().wal_path()
    }

    /// Path of the latest published snapshot replicas bootstrap from.
    pub fn snapshot_path(&self) -> PathBuf {
        self.log().snapshot_path()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{movie_batch, sample_db, temp_dir};
    use quest_core::QuestConfig;

    #[test]
    fn commit_assigns_contiguous_lsns_and_publishes_after_apply() {
        let dir = temp_dir("primary-lsn");
        let primary = Primary::open(&dir, sample_db(), QuestConfig::default()).unwrap();
        assert_eq!(primary.last_lsn(), 0);

        let receipt = primary.commit(&movie_batch(1)).unwrap();
        assert_eq!(receipt.first_lsn, 1);
        assert_eq!(receipt.last_lsn, 2);
        assert!(receipt.report.all_applied());
        assert_eq!(primary.last_lsn(), 2);

        let receipt = primary.commit(&movie_batch(2)).unwrap();
        assert_eq!((receipt.first_lsn, receipt.last_lsn), (3, 4));

        // Empty batch: empty LSN range, nothing changes.
        let receipt = primary.commit(&[]).unwrap();
        assert_eq!(receipt.first_lsn, 5);
        assert_eq!(receipt.last_lsn, 4);
        assert_eq!(primary.last_lsn(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_refuses_a_directory_with_history_but_reopen_resumes_it() {
        let dir = temp_dir("primary-reopen");
        {
            let primary = Primary::open(&dir, sample_db(), QuestConfig::default()).unwrap();
            primary.commit(&movie_batch(1)).unwrap();
            primary.sync().unwrap();
        }
        assert!(matches!(
            Primary::open(&dir, sample_db(), QuestConfig::default()),
            Err(ReplicaError::State(_))
        ));
        let primary =
            Primary::reopen(&dir, QuestConfig::default(), PrimaryOptions::default()).unwrap();
        assert_eq!(primary.last_lsn(), 2);
        let receipt = primary.commit(&movie_batch(2)).unwrap();
        assert_eq!(receipt.first_lsn, 3, "LSN sequence continues");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_log_that_lost_acknowledged_history_is_refused_everywhere() {
        // publish_snapshot syncs the log before the snapshot, so a log
        // ending below the snapshot watermark is rot/tampering. Resuming a
        // primary from it would re-issue covered LSNs; bootstrapping a
        // replica from it would mis-frame the stream; recovering from it
        // would serve a state the log cannot extend. All must refuse.
        let dir = temp_dir("primary-lost-history");
        let (wal_path, snap_path) = {
            let primary = Primary::open(&dir, sample_db(), QuestConfig::default()).unwrap();
            primary.commit(&movie_batch(1)).unwrap();
            primary.publish_snapshot().unwrap();
            (primary.wal_path(), primary.snapshot_path())
        };
        // Rot: the record lines vanish, the header survives, and a torn
        // line follows it that a writer's open would cut away.
        let text = std::fs::read_to_string(&wal_path).unwrap();
        let header: String = text.lines().take(1).map(|l| format!("{l}\n")).collect();
        let rotted = format!("{header}1\t00");
        std::fs::write(&wal_path, &rotted).unwrap();

        let err =
            Primary::reopen(&dir, QuestConfig::default(), PrimaryOptions::default()).unwrap_err();
        assert!(matches!(err, ReplicaError::State(_)), "{err}");
        // Refused before a byte of the log was written.
        assert_eq!(std::fs::read_to_string(&wal_path).unwrap(), rotted);
        let err = crate::Replica::bootstrap("r1", &snap_path, &wal_path, QuestConfig::default())
            .unwrap_err();
        assert!(matches!(err, ReplicaError::State(_)), "{err}");
        let err = quest_wal::recover(&snap_path, &wal_path).unwrap_err();
        assert!(matches!(err, quest_wal::WalError::State(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_rotted_header_is_corrupt_to_every_reader() {
        // A header whose line grew past a header's length (here past any
        // fixed look-ahead window) is damage, not a log still being
        // created: every reader of the format must refuse it rather than
        // read the acknowledged records after it as an empty log.
        use quest_wal::{read_log, recover, LogReader, WalError, WalWriter};
        let dir = temp_dir("primary-rotted-header");
        let (wal_path, snap_path) = {
            let primary = Primary::open(&dir, sample_db(), QuestConfig::default()).unwrap();
            primary.commit(&movie_batch(1)).unwrap();
            primary.commit(&movie_batch(2)).unwrap();
            primary.sync().unwrap();
            (primary.wal_path(), primary.snapshot_path())
        };
        let text = std::fs::read_to_string(&wal_path).unwrap();
        let records = text.split_once('\n').unwrap().1;
        std::fs::write(&wal_path, format!("{}\n{records}", "#".repeat(300))).unwrap();
        let catalog = sample_db().catalog().clone();

        let corrupt = |err: &WalError| matches!(err, WalError::Corrupt { line: 1, .. });
        assert!(corrupt(&read_log(&wal_path, &catalog).unwrap_err()));
        assert!(corrupt(&WalWriter::open(&wal_path, &catalog).unwrap_err()));
        assert!(corrupt(&LogReader::open(&wal_path, &catalog).unwrap_err()));
        assert!(corrupt(&recover(&snap_path, &wal_path).unwrap_err()));
        let err = crate::Replica::bootstrap("r1", &snap_path, &wal_path, QuestConfig::default())
            .unwrap_err();
        assert!(matches!(&err, ReplicaError::Wal(e) if corrupt(e)), "{err}");
        let err =
            Primary::reopen(&dir, QuestConfig::default(), PrimaryOptions::default()).unwrap_err();
        assert!(matches!(&err, ReplicaError::Wal(e) if corrupt(e)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The log error inside a [`ReplicaError`], shown.
    fn wal_error(err: ReplicaError) -> String {
        match err {
            ReplicaError::Wal(e) => e.to_string(),
            other => panic!("not a log error: {other}"),
        }
    }

    #[test]
    fn a_rotted_covered_record_is_corrupt_to_every_reader() {
        // Five commits, a snapshot at LSN 3, and the body of record 2 — one
        // the snapshot covers — rotted. Skipping a covered record still
        // verifies it, so every reader refuses the log at line 3 exactly as
        // `read_log` does, rather than resuming over the rot.
        use quest_wal::{read_log, recover, WalError};
        let dir = temp_dir("primary-rotted-covered");
        let (wal_path, snap_path) = {
            let primary = Primary::open(&dir, sample_db(), QuestConfig::default()).unwrap();
            for id in 1..=5i64 {
                let row = vec![(200 + id).into(), format!("Covered {id}").into()];
                let table = "person".into();
                primary
                    .commit(&[ChangeRecord::Insert { table, row }])
                    .unwrap();
                if id == 3 {
                    assert_eq!(primary.publish_snapshot().unwrap(), 3);
                }
            }
            primary.sync().unwrap();
            (primary.wal_path(), primary.snapshot_path())
        };
        let text = std::fs::read_to_string(&wal_path).unwrap();
        std::fs::write(&wal_path, text.replace("Covered 2", "Covered X")).unwrap();

        let expected = read_log(&wal_path, sample_db().catalog()).unwrap_err();
        assert!(
            matches!(expected, WalError::Corrupt { line: 3, .. }),
            "{expected}"
        );
        let expected = expected.to_string();
        assert!(
            expected.contains("checksum mismatch on record 2"),
            "{expected}"
        );
        let recovered = recover(&snap_path, &wal_path).unwrap_err();
        assert_eq!(recovered.to_string(), expected);
        let bootstrapped =
            crate::Replica::bootstrap("r1", &snap_path, &wal_path, QuestConfig::default());
        assert_eq!(wal_error(bootstrapped.unwrap_err()), expected);
        let reopened = Primary::reopen(&dir, QuestConfig::default(), PrimaryOptions::default());
        assert_eq!(wal_error(reopened.unwrap_err()), expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_rejects_a_referentially_broken_snapshot() {
        // `DurableLog::reopen` and `read_snapshot` hand back bare rows, so
        // the check that catches a snapshot rotted into a dangling foreign
        // key is the owner's: the primary's and a bootstrapping replica's
        // refuse exactly as `recover`'s does.
        let dir = temp_dir("primary-broken-fk");
        let (wal_path, snap_path) = {
            let primary = Primary::open(&dir, sample_db(), QuestConfig::default()).unwrap();
            (primary.wal_path(), primary.snapshot_path())
        };
        // The movie's director (the trailing value of its row) now names a
        // person who does not exist.
        let text = std::fs::read_to_string(&snap_path).unwrap();
        let rotted = text.replace("\ti1\n", "\ti9\n");
        assert_ne!(rotted, text);
        std::fs::write(&snap_path, rotted).unwrap();

        let expected = quest_wal::recover(&snap_path, &wal_path).unwrap_err();
        assert!(
            matches!(expected, quest_wal::WalError::Store(_)),
            "{expected}"
        );
        let reopened = Primary::reopen(&dir, QuestConfig::default(), PrimaryOptions::default());
        assert_eq!(wal_error(reopened.unwrap_err()), expected.to_string());
        let bootstrapped =
            crate::Replica::bootstrap("r1", &snap_path, &wal_path, QuestConfig::default());
        assert_eq!(wal_error(bootstrapped.unwrap_err()), expected.to_string());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn publish_snapshot_records_the_exact_lsn() {
        let dir = temp_dir("primary-snap");
        let primary = Primary::open(&dir, sample_db(), QuestConfig::default()).unwrap();
        primary.commit(&movie_batch(1)).unwrap();
        let lsn = primary.publish_snapshot().unwrap();
        assert_eq!(lsn, 2);
        let snap = quest_wal::read_snapshot(&primary.snapshot_path()).unwrap();
        assert_eq!(snap.last_seq, 2);
        assert_eq!(
            snap.db.total_rows(),
            primary.engine().engine().wrapper().database().total_rows()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
