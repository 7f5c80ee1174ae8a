//! [`Replica`]: a read-only serving node fed by the primary's log.
//!
//! A replica bootstraps from a published snapshot (slot-exact at some LSN
//! `S`), then tails the log with a positioned [`LogReader`]:
//! [`LogReader::after`] seeks past `S` (verifying, not decoding, what it
//! skips) and refuses a log that ends below `S` or is damaged at or below
//! it, then the replica polls and applies batches through its own
//! [`CachedEngine`]. Applying uses the exact per-record apply-or-reject
//! path recovery uses, so a poison record the primary rejected is
//! re-rejected here — byte-for-byte convergence, not best-effort mirroring
//! (`tests/replica.rs` pins a replica at LSN `L` against a cold engine
//! built from the first `L` log records, bitwise).
//!
//! The replica's engine accepts **no feedback and no local mutations** —
//! its only writer is the log. That restriction is what makes its results
//! a pure function of (snapshot, LSN), and the API enforces it by simply
//! not exposing the mutating surface.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use quest_core::{FullAccessWrapper, Quest, QuestConfig, QuestError, SearchOutcome};
use quest_serve::{CachedEngine, ServeStats};
use quest_wal::{read_snapshot, ChangeRecord, LogReader, WalError};

use crate::error::ReplicaError;
use crate::primary::Primary;

/// Bounded number of empty-but-pending polls [`Replica::sync_to`] tolerates
/// while an in-flight append finishes landing.
const SYNC_TO_RETRIES: usize = 1024;

/// What one [`Replica::sync`] round did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncReport {
    /// Records applied this round.
    pub applied: usize,
    /// Records re-rejected this round (the primary rejected them too).
    pub rejected: usize,
    /// The replica's LSN after the round.
    pub lsn: u64,
    /// Whether bytes past the last complete record were seen (an append in
    /// flight on the primary; poll again to pick it up).
    pub pending: bool,
}

/// A read replica: snapshot-bootstrapped, log-fed, serving bit-identical
/// results for its LSN.
#[derive(Debug)]
pub struct Replica {
    name: String,
    engine: Arc<CachedEngine<FullAccessWrapper>>,
    /// The log tail. Held across poll **and** apply in [`Replica::sync`],
    /// so concurrent sync calls serialize and apply order equals log order.
    /// The applied LSN lives in the engine's watermark (one source of
    /// truth), published with `Release` after each apply and monotonic.
    reader: Mutex<LogReader>,
    /// Set when an apply failed after its records were consumed from the
    /// log: the replica can no longer converge and must be re-bootstrapped
    /// (see [`Replica::is_healthy`]).
    broken: AtomicBool,
    /// Searches currently executing here (the least-loaded routing signal).
    inflight: AtomicUsize,
    /// Apply-batch latency in the global registry.
    apply_ns: quest_obs::Histogram,
    /// This replica's lag gauge (`quest_replica_lag_lsns{replica=name}`):
    /// the lag of the latest [`Replica::lag`] computation.
    lag_lsns: quest_obs::Gauge,
    /// Records this replica consumed from the log and applied (or
    /// re-rejected) — the replication-amplification numerator.
    records_applied: quest_obs::Counter,
}

impl Replica {
    /// Bootstrap a replica from a snapshot file and the log it is a prefix
    /// of. `config` must be the primary's engine configuration — use
    /// [`Replica::from_primary`] where the primary is in reach, which
    /// derives it and cannot drift.
    pub fn bootstrap(
        name: &str,
        snapshot_path: &Path,
        wal_path: &Path,
        config: QuestConfig,
    ) -> Result<Replica, ReplicaError> {
        if let Some(fault) = quest_fault::fire(quest_fault::sites::REPLICA_BOOTSTRAP) {
            match fault.kind {
                quest_fault::FaultKind::SlowIo => fault.stall(),
                _ => return Err(WalError::Io(fault.io_error()).into()),
            }
        }
        let snapshot = read_snapshot(snapshot_path)?;
        let reader = LogReader::after(wal_path, &snapshot)?;
        // Restore already checked every row's shape and key; the foreign
        // keys are what a snapshot can rot into without a parse error, and
        // `recover` and `Primary::reopen` refuse those too.
        let mut db = snapshot.db;
        db.finalize();
        db.validate_foreign_keys().map_err(WalError::Store)?;
        let engine = Quest::new(FullAccessWrapper::new(db), config)?;
        let engine = Arc::new(CachedEngine::new(engine));
        engine.set_watermark(snapshot.last_seq);
        let registry = quest_obs::global();
        registry.describe(
            crate::names::APPLY,
            "Wall time of one non-empty apply batch on a replica, nanoseconds.",
        );
        registry.describe(crate::names::LAG, "Records behind the primary.");
        registry.describe(
            crate::names::RECORDS_APPLIED,
            "Records replicas consumed from the log and applied.",
        );
        Ok(Replica {
            engine,
            reader: Mutex::new(reader),
            broken: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            apply_ns: registry.histogram(crate::names::APPLY),
            lag_lsns: registry.gauge_with(crate::names::LAG, &[("replica", name)]),
            records_applied: registry.counter(crate::names::RECORDS_APPLIED),
            name: name.to_string(),
        })
    }

    /// Bootstrap from a primary's published snapshot and log, deriving the
    /// engine configuration from the primary itself.
    pub fn from_primary(name: &str, primary: &Primary) -> Result<Replica, ReplicaError> {
        let config = primary.engine().engine().config().clone();
        Replica::bootstrap(name, &primary.snapshot_path(), &primary.wal_path(), config)
    }

    /// This replica's name (how the router reports it).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Highest LSN whose effect this replica serves (the engine's
    /// watermark — the single copy of this fact, so stats and routing can
    /// never disagree).
    pub fn applied_lsn(&self) -> u64 {
        self.engine.watermark()
    }

    /// Whether this replica can still converge. `false` after an apply
    /// failed mid-stream (its records were already consumed from the log):
    /// the replica keeps serving at its last good LSN, but the router
    /// stops selecting it and the fix is a re-bootstrap.
    pub fn is_healthy(&self) -> bool {
        !self.broken.load(Ordering::Acquire)
    }

    /// How far behind `primary_lsn` this replica is. Each computation
    /// refreshes the replica's lag gauge in the global registry.
    pub fn lag(&self, primary_lsn: u64) -> u64 {
        let lag = primary_lsn.saturating_sub(self.applied_lsn());
        self.lag_lsns.set(i64::try_from(lag).unwrap_or(i64::MAX));
        lag
    }

    /// Searches currently executing here.
    pub fn load(&self) -> usize {
        self.inflight.load(Ordering::Acquire)
    }

    /// One replication round: poll the log tail and apply what arrived.
    /// Concurrent calls serialize; each round's batch is applied in log
    /// order through the same per-record apply-or-reject path recovery
    /// uses.
    pub fn sync(&self) -> Result<SyncReport, ReplicaError> {
        let mut reader = self.reader.lock().unwrap_or_else(PoisonError::into_inner);
        if self.broken.load(Ordering::Acquire) {
            return Err(ReplicaError::State(format!(
                "replica {} lost records to a failed apply; re-bootstrap it",
                self.name
            )));
        }
        // One trace context per sync round: the tail and apply spans — and
        // the engine's own apply spans underneath — share it.
        let collector = quest_obs::spans();
        let ctx = collector.ctx(quest_obs::TraceKind::Replica);
        let tail_started = collector.start();
        let poll = reader.poll()?;
        collector.record_with(
            ctx,
            "replica_tail",
            tail_started,
            [
                Some(("records", poll.records.len() as u64)),
                Some(("pending", poll.pending)),
            ],
        );
        let Some(&(last_lsn, _)) = poll.records.last() else {
            return Ok(SyncReport {
                applied: 0,
                rejected: 0,
                lsn: self.applied_lsn(),
                pending: poll.pending > 0,
            });
        };
        let changes: Vec<ChangeRecord> = poll.records.into_iter().map(|(_, r)| r).collect();
        if let Some(fault) = quest_fault::fire(quest_fault::sites::REPLICA_APPLY) {
            if fault.kind == quest_fault::FaultKind::SlowIo {
                fault.stall();
            } else {
                // The poll above consumed these records; failing now loses
                // them — exactly the consumed-but-not-applied shape a real
                // apply failure has, so the replica breaks the same way.
                self.broken.store(true, Ordering::Release);
                return Err(WalError::Io(fault.io_error()).into());
            }
        }
        // The poll above consumed these records: an apply failure here (a
        // path `CachedEngine::apply` documents as unreachable for
        // ChangeRecords) would lose them, so it marks the replica broken —
        // loudly unconvergeable — instead of silently serving behind.
        let replica_apply_started = collector.start();
        let apply_start = std::time::Instant::now();
        let report = self.engine.apply_in(&changes, ctx).inspect_err(|_| {
            self.broken.store(true, Ordering::Release);
        })?;
        self.apply_ns
            .record(quest_obs::duration_ns(apply_start.elapsed()));
        self.records_applied.add(changes.len() as u64);
        // Publish after the apply so a router that observes LSN L here can
        // immediately serve data at L. Rejected records advance the LSN
        // too: the LSN is a log position, not a success count.
        self.engine.set_watermark(last_lsn);
        collector.record_with(
            ctx,
            "replica_apply",
            replica_apply_started,
            [
                Some(("records", changes.len() as u64)),
                Some(("lsn", last_lsn)),
            ],
        );
        Ok(SyncReport {
            applied: report.applied,
            rejected: report.rejected.len(),
            lsn: last_lsn,
            pending: poll.pending > 0,
        })
    }

    /// Sync until this replica reaches `lsn`. Fails with
    /// [`ReplicaError::Lagging`] if the log simply does not hold `lsn`
    /// (tolerating a bounded window for an append still in flight).
    pub fn sync_to(&self, lsn: u64) -> Result<SyncReport, ReplicaError> {
        let mut report = SyncReport {
            applied: 0,
            rejected: 0,
            lsn: self.applied_lsn(),
            pending: false,
        };
        if report.lsn >= lsn {
            return Ok(report);
        }
        for _ in 0..SYNC_TO_RETRIES {
            report = self.sync()?;
            if report.lsn >= lsn {
                return Ok(report);
            }
            if !report.pending && report.applied == 0 && report.rejected == 0 {
                // End of log, nothing in flight: the records are not there.
                break;
            }
            std::thread::yield_now();
        }
        Err(ReplicaError::Lagging {
            required: lsn,
            reached: report.lsn,
        })
    }

    /// Serve a search at this replica's current LSN.
    pub fn search(&self, raw_query: &str) -> Result<SearchOutcome, QuestError> {
        self.inflight.fetch_add(1, Ordering::AcqRel);
        let result = self.engine.search(raw_query);
        self.inflight.fetch_sub(1, Ordering::AcqRel);
        result
    }

    /// Serving counters; [`ServeStats::watermark`] carries the applied LSN.
    pub fn stats(&self) -> ServeStats {
        self.engine.stats()
    }

    /// The replica's engine, read-only uses only (stats, direct searches,
    /// wiring a [`QueryService`](quest_serve::QueryService)). The mutating
    /// surface stays private: the log is this engine's only writer.
    pub fn engine(&self) -> &Arc<CachedEngine<FullAccessWrapper>> {
        &self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primary::Primary;
    use crate::testutil::{movie_batch, sample_db, temp_dir};
    use quest_core::QuestConfig;

    #[test]
    fn replica_bootstraps_seeks_and_follows() {
        let dir = temp_dir("replica-follow");
        let primary = Primary::open(&dir, sample_db(), QuestConfig::default()).unwrap();
        primary.commit(&movie_batch(1)).unwrap();

        let replica = Replica::from_primary("r1", &primary).unwrap();
        assert_eq!(
            replica.applied_lsn(),
            0,
            "bootstrapped from the LSN-0 snapshot"
        );
        let report = replica.sync().unwrap();
        assert_eq!((report.applied, report.lsn), (2, 2));
        assert_eq!(replica.lag(primary.last_lsn()), 0);

        // New commits stream incrementally.
        primary.commit(&movie_batch(2)).unwrap();
        let report = replica.sync().unwrap();
        assert_eq!((report.applied, report.lsn), (2, 4));
        assert_eq!(replica.stats().watermark, 4);

        // A replica bootstrapped from a *newer* snapshot starts at its LSN
        // and replays nothing that the snapshot already contains.
        primary.publish_snapshot().unwrap();
        let fresh = Replica::from_primary("r2", &primary).unwrap();
        assert_eq!(fresh.applied_lsn(), 4);
        assert_eq!(fresh.sync().unwrap().applied, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sync_to_reaches_or_reports_lagging() {
        let dir = temp_dir("replica-syncto");
        let primary = Primary::open(&dir, sample_db(), QuestConfig::default()).unwrap();
        let replica = Replica::from_primary("r1", &primary).unwrap();
        let receipt = primary.commit(&movie_batch(1)).unwrap();
        let report = replica.sync_to(receipt.last_lsn).unwrap();
        assert_eq!(report.lsn, receipt.last_lsn);
        // An LSN the log does not hold fails loudly instead of spinning.
        let err = replica.sync_to(99).unwrap_err();
        assert!(matches!(
            err,
            ReplicaError::Lagging {
                required: 99,
                reached: 2
            }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
