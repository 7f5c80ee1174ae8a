//! [`ShardedPrimary`]: a shard as the unit of replication.
//!
//! There is **one copy** of every row, and the gateway owns it: a
//! [`ScatterGather`] engine over the [`ShardedStore`] performs the *global*
//! accept/reject decisions and serves searches. Each shard adds only a
//! [`DurableLog`] — its own write-ahead log and snapshots in
//! `dir/shard-NNN/`, holding no rows — and the router appends each
//! **accepted** record to the log of the shard its partition key owns.
//! Because acceptance was decided globally, a shard's log replays
//! deterministically over that shard's FK-less database, which is how a
//! cold [`ShardedPrimary::reopen`] rebuilds the store and how a stock
//! per-shard `Replica` follows it. A shard whose append fails (I/O,
//! poisoned log) is **fenced**: the topology reports it broken and every
//! subsequent search or commit returns a typed [`ShardError::ShardDown`]
//! instead of silently partial results.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use quest_core::{QuestConfig, SearchOutcome};
use quest_fault::{Clock, FaultKind, RetryPolicy, SystemClock};
use quest_obs::{TraceCtx, TraceKind};
use quest_serve::ApplyReport;
use quest_wal::{ChangeRecord, DurableLog, SyncPolicy, WalError};
use relstore::{Catalog, Database, Row, TableData};

use crate::config::ShardConfig;
use crate::error::ShardError;
use crate::partition::Partitioner;
use crate::scatter::ScatterGather;
use crate::store::ShardedStore;

/// Subdirectory of one shard's log inside the set's directory.
fn shard_dir(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:03}"))
}

/// Count one fence event (a shard marked broken) in the global registry.
fn count_fence() {
    quest_obs::global().counter(crate::names::FENCE).inc();
}

/// Count one refused operation (search/commit against a fenced set).
fn count_down() {
    quest_obs::global().counter(crate::names::DOWN).inc();
}

/// Everything a fenced shard needs to be healed in place.
///
/// `lsn_before` is the shard's watermark captured **before** the failed
/// commit attempt and `pending` is the per-shard record slice that never
/// (or only partially) reached its log; together they bound exactly what
/// [`ShardedPrimary::recover`] must replay or re-commit, and let it verify
/// the healed watermark to the record.
#[derive(Debug, Clone)]
struct FenceState {
    /// Why the shard was fenced (updated with the latest recovery error).
    reason: String,
    /// The shard's last LSN before the failed commit attempt.
    lsn_before: u64,
    /// Records the gateway accepted for this shard that its log may miss.
    pending: Vec<ChangeRecord>,
    /// Failed recovery probes that were rescheduled so far.
    attempts: u32,
    /// Escalated: the first recovery probe and all
    /// [`RetryPolicy::retries`] retries failed; only an operator restart
    /// clears this.
    permanent: bool,
    /// Earliest clock reading at which the next recovery probe is due.
    next_probe: Duration,
}

/// Point-in-time view of the shard set's replication state.
#[derive(Debug, Clone)]
pub struct ShardTopology {
    /// Number of shards.
    pub shard_count: usize,
    /// Each shard's last applied LSN (shard LSN sequences are independent).
    pub lsns: Vec<u64>,
    /// Fence reasons, by shard; `None` = healthy. Any `Some` means the set
    /// refuses reads and writes until repaired.
    pub broken: Vec<Option<String>>,
}

impl ShardTopology {
    /// Whether every shard is serving.
    pub fn is_healthy(&self) -> bool {
        self.broken.iter().all(Option::is_none)
    }

    /// Grade the set against `spec`. The lag observation is the commit
    /// **skew** between the most- and least-advanced serving shards (shard
    /// LSN sequences are independent, so skew — not absolute position — is
    /// the meaningful staleness signal; fenced shards are excluded because
    /// their skew grows without bound). Every fenced shard additionally
    /// forces a [`Critical`](quest_obs::HealthStatus::Critical) reason of
    /// its own. Purely observational: grading health never changes fencing
    /// or routing.
    pub fn health(&self, spec: &quest_obs::SloSpec) -> quest_obs::HealthReport {
        let serving: Vec<u64> = self
            .lsns
            .iter()
            .zip(&self.broken)
            .filter(|(_, state)| state.is_none())
            .map(|(&lsn, _)| lsn)
            .collect();
        let skew = match (serving.iter().max(), serving.iter().min()) {
            (Some(max), Some(min)) => Some(max - min),
            _ => None,
        };
        let mut report = spec.evaluate(&quest_obs::HealthInputs {
            p99_us: None,
            error_rate: None,
            lag: skew,
        });
        for (shard, state) in self.broken.iter().enumerate() {
            if let Some(reason) = state {
                report.push(
                    quest_obs::HealthStatus::Critical,
                    format!("shard {shard} fenced: {reason}"),
                );
            }
        }
        report
    }
}

/// What one [`ShardedPrimary::commit`] did.
#[derive(Debug)]
pub struct ShardReceipt {
    /// Per-record outcome of the *global* accept/reject pass — identical
    /// to the report the unsharded serving layer would produce for the
    /// same batch against the same data.
    pub report: ApplyReport,
    /// Each shard's last LSN after the commit — the vector to pass to
    /// per-shard replicas for read-your-writes.
    pub lsns: Vec<u64>,
}

/// The sharded write point: a gateway engine that owns the rows, decides
/// globally and serves searches, plus one [`DurableLog`] per shard for
/// durability.
///
/// The logs hold no data of their own. They stay in lockstep with the
/// gateway's store because every commit appends to them exactly the records
/// the store accepted, in batch order; while a shard is fenced the store is
/// ahead of that shard's log by the fence's pending records, which is why a
/// fenced set refuses snapshots as well as reads and writes.
#[derive(Debug)]
pub struct ShardedPrimary {
    catalog: Catalog,
    partitioner: Partitioner,
    logs: Vec<DurableLog>,
    fences: Vec<Option<FenceState>>,
    gateway: ScatterGather,
    /// Root directory of the set — each shard's log lives in
    /// `dir/shard-NNN/`, which is where [`ShardedPrimary::recover`] reopens
    /// it from.
    dir: PathBuf,
    retry: RetryPolicy,
    clock: Arc<dyn Clock>,
}

impl ShardedPrimary {
    /// Start a fresh sharded primary in `dir` over `db`: the database is
    /// hash-partitioned, each shard's log is created in `dir/shard-NNN/`
    /// (publishing a bootstrap snapshot of that shard at LSN 0), and the
    /// gateway engine takes the partitioned store.
    pub fn open(
        dir: &Path,
        db: Database,
        shard_config: &ShardConfig,
        config: QuestConfig,
    ) -> Result<ShardedPrimary, ShardError> {
        let store = ShardedStore::from_database(&db, shard_config)?;
        let retry = RetryPolicy::from_env();
        let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
        let logs = (0..store.shard_count())
            .map(|i| {
                DurableLog::create(
                    &shard_dir(dir, i),
                    store.shard(i),
                    SyncPolicy::default(),
                    retry.clone(),
                    clock.clone(),
                )
            })
            .collect::<Result<Vec<_>, WalError>>()?;
        ShardedPrimary::assemble(dir, store, logs, config, retry, clock)
    }

    /// Resume a sharded primary: recover every shard's database from its
    /// snapshot + log suffix, move the recovered databases into the gateway
    /// store (verifying placement and global referential integrity), and
    /// continue each shard's LSN sequence. `catalog` is the full catalog —
    /// foreign keys included — which the FK-less shard logs cannot carry.
    pub fn reopen(
        dir: &Path,
        catalog: Catalog,
        shard_config: &ShardConfig,
        config: QuestConfig,
    ) -> Result<ShardedPrimary, ShardError> {
        shard_config.validate()?;
        let retry = RetryPolicy::from_env();
        let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
        let mut logs = Vec::with_capacity(shard_config.shard_count);
        let mut dbs = Vec::with_capacity(shard_config.shard_count);
        for i in 0..shard_config.shard_count {
            let (log, db) = DurableLog::reopen(
                &shard_dir(dir, i),
                SyncPolicy::default(),
                retry.clone(),
                clock.clone(),
            )?;
            logs.push(log);
            dbs.push(db);
        }
        let store = ShardedStore::from_shards(catalog, dbs, shard_config)?;
        ShardedPrimary::assemble(dir, store, logs, config, retry, clock)
    }

    /// A healthy set serving `store`, shard `i` of which is the state after
    /// exactly the records in `logs[i]`.
    fn assemble(
        dir: &Path,
        store: ShardedStore,
        logs: Vec<DurableLog>,
        config: QuestConfig,
        retry: RetryPolicy,
        clock: Arc<dyn Clock>,
    ) -> Result<ShardedPrimary, ShardError> {
        Ok(ShardedPrimary {
            catalog: store.catalog().clone(),
            partitioner: *store.partitioner(),
            fences: vec![None; logs.len()],
            logs,
            gateway: ScatterGather::from_store(store, config)?,
            dir: dir.to_path_buf(),
            retry,
            clock,
        })
    }

    /// Override the retry policy and clock at every level of the set: WAL
    /// retries inside each shard's log, commit-level retries, and
    /// [`ShardedPrimary::supervise`]'s probe-after-backoff scheduling. Tests
    /// inject a [`ManualClock`](quest_fault::ManualClock): no wall time passes.
    pub fn set_recovery(&mut self, retry: RetryPolicy, clock: Arc<dyn Clock>) {
        for log in &mut self.logs {
            log.set_recovery(retry.clone(), clock.clone());
        }
        self.retry = retry;
        self.clock = clock;
    }

    /// Commit a mutation batch.
    ///
    /// The gateway applies the whole batch first — global integrity checks,
    /// per-record accept/reject, epoch bump — producing a report identical
    /// to the unsharded serving layer's. Accepted records are then grouped
    /// by owning shard (order preserved; a PK-moving update becomes a
    /// delete on the old shard and an insert on the new one) and appended
    /// to each shard's [`DurableLog`]. A commit-level fault classified
    /// transient ([`WalError::is_transient`]) is retried under the set's
    /// [`RetryPolicy`] before giving up. A shard whose append still fails
    /// is fenced **with its pending records captured**, the remaining
    /// shards are appended anyway (their logs must not fall behind the
    /// store), and the commit returns the first [`ShardError::ShardDown`].
    /// The fence holds everything [`ShardedPrimary::recover`] needs to
    /// re-drive the missed slice and rejoin the set.
    pub fn commit(&mut self, batch: &[ChangeRecord]) -> Result<ShardReceipt, ShardError> {
        self.ensure_healthy()?;
        let report = self.gateway.apply(batch)?;
        let rejected: HashSet<usize> = report.rejected.iter().map(|(i, _)| *i).collect();
        let mut per_shard: Vec<Vec<ChangeRecord>> = vec![Vec::new(); self.logs.len()];
        for (i, record) in batch.iter().enumerate() {
            if rejected.contains(&i) {
                continue;
            }
            self.route_record(record, &mut per_shard)?;
        }
        let mut first_down: Option<ShardError> = None;
        for (s, records) in per_shard.into_iter().enumerate() {
            if records.is_empty() {
                continue;
            }
            let lsn_before = self.logs[s].last_lsn();
            if let Err(e) = self.append_to_shard(s, &records) {
                let reason = e.to_string();
                self.install_fence(s, reason.clone(), lsn_before, records);
                first_down.get_or_insert(ShardError::ShardDown { shard: s, reason });
            }
        }
        match first_down {
            Some(e) => Err(e),
            None => Ok(ShardReceipt {
                report,
                lsns: self.logs.iter().map(DurableLog::last_lsn).collect(),
            }),
        }
    }

    /// Append `records` to shard `s`'s log, retrying transient commit-level
    /// faults under the set's [`RetryPolicy`] (WAL-level faults are retried
    /// inside [`DurableLog::append`], under the same policy).
    fn append_to_shard(&mut self, s: usize, records: &[ChangeRecord]) -> Result<(), ShardError> {
        let mut attempt = 0u32;
        while let Some(fault) = quest_fault::fire(quest_fault::sites::SHARD_COMMIT) {
            if matches!(fault.kind, FaultKind::SlowIo) {
                fault.stall();
                break;
            }
            let err = WalError::Io(fault.io_error());
            if !self
                .retry
                .backoff(self.clock.as_ref(), err.is_transient(), &mut attempt)
            {
                return Err(err.into());
            }
        }
        self.logs[s].append(records, TraceCtx::detached(TraceKind::Commit))?;
        Ok(())
    }

    /// Heal fenced shard `shard` in place: reopen its log exactly as a cold
    /// start would (snapshot + log suffix replayed and validated), verify
    /// the replayed watermark lies inside the fence window, append whatever
    /// suffix of the fence's pending records the log misses, verify the
    /// final watermark matches the fence's expectation exactly, then swap
    /// the fresh log in and lift the fence. On any verification failure the
    /// shard stays fenced and the error becomes the fence's new reason.
    pub fn recover(&mut self, shard: usize) -> Result<(), ShardError> {
        let Some(fence) = &self.fences[shard] else {
            return Ok(());
        };
        let (mut log, replayed_db) = DurableLog::reopen(
            &shard_dir(&self.dir, shard),
            SyncPolicy::default(),
            self.retry.clone(),
            self.clock.clone(),
        )?;
        let replayed = log.last_lsn();
        let expect = fence.lsn_before + fence.pending.len() as u64;
        if replayed < fence.lsn_before || replayed > expect {
            return Err(ShardError::Recovery(format!(
                "shard {shard} replayed to lsn {replayed}, outside the fence \
                 window [{}, {expect}]",
                fence.lsn_before
            )));
        }
        // The log already holds `replayed - lsn_before` of the pending
        // records (a torn commit can land a prefix); append only the
        // missing suffix so nothing is logged twice.
        let missing = &fence.pending[(replayed - fence.lsn_before) as usize..];
        log.append(missing, TraceCtx::detached(TraceKind::Commit))?;
        if log.last_lsn() != expect {
            return Err(ShardError::Recovery(format!(
                "shard {shard} recovered to lsn {} but the fence expected {expect}",
                log.last_lsn()
            )));
        }
        // The replay proved the snapshot + log pair still loads; the rows
        // themselves are served from the gateway's store, which never
        // stopped holding them.
        drop(replayed_db);
        self.logs[shard] = log;
        self.fences[shard] = None;
        quest_fault::quarantined("shard").sub(1);
        quest_fault::count_heal("shard");
        Ok(())
    }

    /// One supervision tick: attempt [`ShardedPrimary::recover`] on every
    /// fenced, non-permanent shard whose backoff has elapsed. A failed
    /// attempt reschedules the probe under the retry policy's backoff; a
    /// shard whose first probe and all [`RetryPolicy::retries`] retries
    /// fail escalates to permanent and is left for the operator. Returns
    /// how many shards healed this tick.
    pub fn supervise(&mut self) -> usize {
        let now = self.clock.now();
        let mut healed = 0;
        for shard in 0..self.fences.len() {
            let due = matches!(
                &self.fences[shard],
                Some(f) if !f.permanent && now >= f.next_probe
            );
            if !due {
                continue;
            }
            match self.recover(shard) {
                Ok(()) => healed += 1,
                Err(e) => {
                    if let Some(f) = self.fences[shard].as_mut() {
                        f.reason = e.to_string();
                        match self.retry.next_probe(&mut f.attempts, now) {
                            Some(due) => f.next_probe = due,
                            None => {
                                f.permanent = true;
                                quest_fault::count_escalation("shard");
                            }
                        }
                    }
                }
            }
        }
        healed
    }

    /// Route one accepted record to the shard(s) that must log it.
    fn route_record(
        &self,
        record: &ChangeRecord,
        per_shard: &mut [Vec<ChangeRecord>],
    ) -> Result<(), ShardError> {
        match record {
            ChangeRecord::Insert { table, row } => {
                let tid = self.catalog.table_id(table).map_err(ShardError::Store)?;
                let schema = self.catalog.table(tid);
                let key = TableData::pk_of(&self.catalog, schema, &Row::new(row.clone()));
                per_shard[self.partitioner.shard_of_key(&key)].push(record.clone());
            }
            ChangeRecord::Delete { key, .. } => {
                per_shard[self.partitioner.shard_of_key(key)].push(record.clone());
            }
            ChangeRecord::Update { table, key, row } => {
                let tid = self.catalog.table_id(table).map_err(ShardError::Store)?;
                let schema = self.catalog.table(tid);
                let new_key = TableData::pk_of(&self.catalog, schema, &Row::new(row.clone()));
                let old_shard = self.partitioner.shard_of_key(key);
                let new_shard = self.partitioner.shard_of_key(&new_key);
                if old_shard == new_shard {
                    per_shard[old_shard].push(record.clone());
                } else {
                    // A PK move crosses shards: the old shard logs the
                    // disappearance, the new shard logs the appearance —
                    // exactly the store's cross-shard update semantics.
                    per_shard[old_shard].push(ChangeRecord::Delete {
                        table: table.clone(),
                        key: key.clone(),
                    });
                    per_shard[new_shard].push(ChangeRecord::Insert {
                        table: table.clone(),
                        row: row.clone(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Run one keyword search through the gateway engine. Refuses with
    /// [`ShardError::ShardDown`] while any shard is fenced — a broken
    /// shard means part of the data is unaccounted for, and a partial
    /// answer would be silently wrong.
    pub fn search(&self, raw_query: &str) -> Result<SearchOutcome, ShardError> {
        self.ensure_healthy()?;
        self.gateway.search(raw_query).map_err(ShardError::Engine)
    }

    /// The current replication state of the set.
    pub fn topology(&self) -> ShardTopology {
        ShardTopology {
            shard_count: self.logs.len(),
            lsns: self.logs.iter().map(DurableLog::last_lsn).collect(),
            broken: self
                .fences
                .iter()
                .map(|f| f.as_ref().map(|f| f.reason.clone()))
                .collect(),
        }
    }

    /// Operator fence: mark a shard broken (e.g. after out-of-band
    /// detection of a poisoned WAL or failing disk). Subsequent searches
    /// and commits return [`ShardError::ShardDown`] until repair — which
    /// [`ShardedPrimary::supervise`] attempts automatically (an operator
    /// fence carries no pending records, so recovery is reopen + verify).
    pub fn fence(&mut self, shard: usize, reason: impl Into<String>) {
        let lsn_before = self.logs[shard].last_lsn();
        self.install_fence(shard, reason.into(), lsn_before, Vec::new());
    }

    /// Record a fence, charging the quarantine gauge only on the
    /// not-fenced → fenced edge.
    fn install_fence(
        &mut self,
        shard: usize,
        reason: String,
        lsn_before: u64,
        pending: Vec<ChangeRecord>,
    ) {
        if self.fences[shard].is_none() {
            quest_fault::quarantined("shard").add(1);
        }
        self.fences[shard] = Some(FenceState {
            reason,
            lsn_before,
            pending,
            attempts: 0,
            permanent: false,
            next_probe: self.clock.now(),
        });
        count_fence();
    }

    /// Whether every shard is serving.
    pub fn is_healthy(&self) -> bool {
        self.fences.iter().all(Option::is_none)
    }

    fn ensure_healthy(&self) -> Result<(), ShardError> {
        for (shard, state) in self.fences.iter().enumerate() {
            if let Some(fence) = state {
                count_down();
                return Err(ShardError::ShardDown {
                    shard,
                    reason: fence.reason.clone(),
                });
            }
        }
        Ok(())
    }

    /// Fsync every shard's log (group durability point).
    pub fn sync(&mut self) -> Result<(), ShardError> {
        for log in &mut self.logs {
            log.sync()?;
        }
        Ok(())
    }

    /// Publish a snapshot of every shard, serialized in place from the
    /// gateway's store, returning each shard's snapshot LSN; new replicas
    /// bootstrap per shard from these. Refuses a fenced set
    /// ([`ShardError::ShardDown`]): its store is ahead of the fenced log by
    /// the pending records, and a snapshot that covers records its log does
    /// not hold is the pair `reopen` refuses.
    pub fn publish_snapshots(&mut self) -> Result<Vec<u64>, ShardError> {
        self.ensure_healthy()?;
        // Commits need `&mut self`, so the store under this read guard is
        // exactly the state after each log's last record.
        let engine = self.gateway.engine().engine();
        let store = engine.wrapper().store();
        self.logs
            .iter_mut()
            .enumerate()
            .map(|(i, log)| Ok(log.publish_snapshot(store.shard(i))?))
            .collect()
    }

    /// One shard's durable log — the WAL/snapshot endpoints a per-shard
    /// `Replica` bootstraps from and tails.
    pub fn shard(&self, i: usize) -> &DurableLog {
        &self.logs[i]
    }

    /// The gateway serving engine (searches, stats).
    pub fn gateway(&self) -> &ScatterGather {
        &self.gateway
    }
}

#[cfg(test)]
mod tests {
    use super::ShardTopology;
    use quest_obs::{HealthStatus, SloSpec};

    #[test]
    fn topology_health_grades_skew_and_fences() {
        let spec = SloSpec {
            max_lag: Some(2),
            ..SloSpec::default()
        };
        let mut topo = ShardTopology {
            shard_count: 3,
            lsns: vec![10, 7, 10],
            broken: vec![None, None, None],
        };
        // Skew 3 exceeds the bound of 2 but not 2× it: degraded.
        let report = topo.health(&spec);
        assert_eq!(report.status, HealthStatus::Degraded);
        assert!(
            report.reasons.iter().any(|r| r.contains("lag")),
            "{report:?}"
        );

        // Caught up: healthy.
        topo.lsns = vec![10, 10, 10];
        assert_eq!(topo.health(&spec).status, HealthStatus::Healthy);

        // Skew at 2× the bound: critical.
        topo.lsns = vec![10, 6, 10];
        assert_eq!(topo.health(&spec).status, HealthStatus::Critical);

        // A fenced shard is critical regardless of skew, with its own
        // reason, and drops out of the skew observation.
        topo.lsns = vec![10, 0, 10];
        topo.broken[1] = Some("disk gone".into());
        let report = topo.health(&spec);
        assert_eq!(report.status, HealthStatus::Critical);
        assert!(
            report.reasons.iter().any(|r| r.contains("shard 1 fenced")),
            "{report:?}"
        );
        assert!(
            !report.reasons.iter().any(|r| r.contains("lag")),
            "fenced shard must not feed the skew observation: {report:?}"
        );

        // An empty spec never violates: grading is opt-in.
        topo.broken[1] = None;
        assert_eq!(
            topo.health(&SloSpec::default()).status,
            HealthStatus::Healthy
        );
    }
}
