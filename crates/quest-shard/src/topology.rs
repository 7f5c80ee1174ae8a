//! [`ShardedPrimary`]: a shard as the unit of replication.
//!
//! There is **one copy** of every row, and the gateway owns it: a
//! [`ScatterGather`] engine over the [`ShardedStore`] performs the *global*
//! accept/reject decisions and serves searches. Each shard adds only a
//! [`DurableLog`] — its own write-ahead log and snapshots, holding no rows —
//! and the set adds one [`CoordinatorLog`], the commit point:
//!
//! ```text
//! dir/coordinator.wal            one fsynced frame per committed batch
//! dir/shard-NNN/primary.wal      shard NNN's records, appended unsynced
//! dir/shard-NNN/latest.snap      shard NNN's latest snapshot
//! ```
//!
//! **Commit.** [`ShardedPrimary::commit`] lets the gateway apply the batch,
//! routes each **accepted** record to the shard the store wrote it to, and
//! appends all the slices as one [`BatchFrame`] to the coordinator log,
//! with each participant's LSN after the batch. The frame's fsync is the
//! commit point and the only fsync a commit pays. Only then are the slices
//! appended to the shard logs, without a sync. Because acceptance was
//! decided globally, a shard's log replays deterministically over that
//! shard's FK-less database, which is how a stock per-shard `Replica`
//! follows it.
//!
//! **Recovery only rolls forward.** A shard log never holds a record the
//! coordinator lacks, so [`ShardedPrimary::reopen`] restores each shard's
//! rows from its snapshot and log, then appends whatever suffix of its
//! slices the coordinator holds beyond the log's end and replays it on
//! those rows; the store then finalizes and validates each shard once. A
//! frame torn by a crash was never committed, and no shard log holds any
//! of its records. A shard log is fsynced only when a snapshot is
//! published, so after a power loss its part past the snapshot can hold a
//! garbled line with valid lines after it; the coordinator holds every
//! record of that part, so the log is cut back to its valid prefix and
//! rolled forward ([`DurableLog::reopen_salvaging`]). Publishing snapshots
//! empties the coordinator log, because every frame it held is then in a
//! synced shard log. A directory written before the coordinator log
//! existed reopens with its shard logs as they are and starts one.
//!
//! **Visibility.** The gateway applies a batch before its frame is written,
//! but `commit` holds `&mut self`, so no read runs in between: a read sees
//! a batch only after its frame is durable. A reopen fsyncs the coordinator
//! log before it serves anything, for the same reason. If the frame cannot
//! be made durable, `commit` returns [`ShardError::CommitUnknown`] and the
//! whole set is fenced. A shard whose append fails after the commit point
//! is fenced and `commit` returns [`ShardError::ShardDown`]; that batch
//! stays committed. [`ShardedPrimary::supervise`] heals every fence the
//! same way: it rebuilds the set from its directory, which holds a batch
//! exactly when its frame reached the file. A fenced set refuses reads and
//! writes with a typed [`ShardError::ShardDown`] instead of serving
//! silently partial results.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use quest_core::{QuestConfig, SearchOutcome};
use quest_fault::{Clock, FaultKind, Quarantine, RetryPolicy, SystemClock};
use quest_obs::{TraceCtx, TraceKind};
use quest_serve::ApplyReport;
use quest_wal::{
    BatchFrame, ChangeRecord, CoordinatorLog, DurableLog, ShardSlice, SyncPolicy, WalError,
};
use relstore::{Catalog, Database};

use crate::config::ShardConfig;
use crate::error::ShardError;
use crate::scatter::ScatterGather;
use crate::store::ShardedStore;

/// File name of the coordinator log inside the set's directory.
const COORDINATOR_FILE: &str = "coordinator.wal";

/// Subdirectory of one shard's log inside the set's directory.
fn shard_dir(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:03}"))
}

/// Count one fence event (a shard or the set marked broken) in the global
/// registry.
fn count_fence() {
    quest_obs::global().counter(crate::names::FENCE).inc();
}

/// Count one refused operation (search/commit against a fenced set).
fn count_down() {
    quest_obs::global().counter(crate::names::DOWN).inc();
}

/// A commit context for the log appends of one batch.
fn commit_ctx() -> TraceCtx {
    TraceCtx::detached(TraceKind::Commit)
}

/// Which shards are fenced and why, and the set's quarantine: one probe
/// heals every fenced shard, because it rebuilds the whole set from its
/// directory. What to repair is not stored here: the coordinator log on
/// disk holds every committed slice a shard log may lack.
#[derive(Debug)]
struct Fence {
    /// Why each shard is fenced (`None` = not fenced); a failed probe's
    /// error replaces every reason.
    reasons: Vec<Option<String>>,
    quarantine: Quarantine,
}

/// Point-in-time view of the shard set's replication state.
#[derive(Debug, Clone)]
pub struct ShardTopology {
    /// Number of shards.
    pub shard_count: usize,
    /// Each shard's last applied LSN (shard LSN sequences are independent).
    pub lsns: Vec<u64>,
    /// Fence reasons, by shard; `None` = healthy. Any `Some` means the set
    /// refuses reads and writes until repaired. A batch whose commit point
    /// failed fences every shard.
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
        let mut report = spec.evaluate(skew);
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
/// globally and serves searches, one [`DurableLog`] per shard, and the
/// [`CoordinatorLog`] that makes a batch atomic across them (see the module
/// docs for the commit protocol and the visibility rule).
///
/// The shard logs hold no data of their own. They stay in lockstep with the
/// gateway's store because every commit appends to them exactly the records
/// the store accepted, in batch order; while a shard is fenced its log lags
/// the store by slices the coordinator holds, which is why a fenced set
/// refuses snapshots as well as reads and writes.
#[derive(Debug)]
pub struct ShardedPrimary {
    catalog: Catalog,
    coordinator: CoordinatorLog,
    logs: Vec<DurableLog>,
    /// `Some` while any shard is fenced.
    fence: Option<Fence>,
    gateway: ScatterGather,
    /// Root directory of the set, which a rebuild reads back.
    dir: PathBuf,
    /// What a rebuild reopens the directory with.
    shard_config: ShardConfig,
    config: QuestConfig,
    retry: RetryPolicy,
    clock: Arc<dyn Clock>,
}

impl ShardedPrimary {
    /// Start a fresh sharded primary in `dir` over `db`: the database is
    /// hash-partitioned, each shard's log is created in `dir/shard-NNN/`
    /// (publishing a bootstrap snapshot of that shard at LSN 0), an empty
    /// coordinator log is created in `dir/coordinator.wal`, and the gateway
    /// engine takes the partitioned store. Refuses a directory whose logs
    /// already hold history; [`ShardedPrimary::reopen`] resumes it.
    pub fn open(
        dir: &Path,
        db: Database,
        shard_config: &ShardConfig,
        config: QuestConfig,
    ) -> Result<ShardedPrimary, ShardError> {
        let store = ShardedStore::from_database(&db, shard_config)?;
        let retry = RetryPolicy::default();
        let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
        std::fs::create_dir_all(dir).map_err(WalError::Io)?;
        let path = dir.join(COORDINATOR_FILE);
        let (coordinator, frames) =
            CoordinatorLog::open(&path, store.catalog(), retry.clone(), clock.clone())?;
        if !frames.is_empty() {
            return Err(WalError::State(format!(
                "{} already holds {} batches; reopen the directory to resume it",
                path.display(),
                frames.len()
            ))
            .into());
        }
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
        ShardedPrimary::assemble(
            dir,
            store,
            coordinator,
            logs,
            shard_config,
            config,
            (retry, clock),
        )
    }

    /// Resume a sharded primary: restore every shard's rows from its
    /// snapshot + log suffix (cutting away damage past the snapshot that
    /// the coordinator re-supplies), roll each shard log forward over the
    /// coordinator's frames it lacks and replay those on the same bare
    /// rows, then move the rows into the gateway store, which finalizes
    /// and validates each shard once (placement and global referential
    /// integrity included), and continue each shard's LSN sequence.
    /// `catalog` is the full catalog — foreign keys included — which the
    /// FK-less shard logs cannot carry.
    pub fn reopen(
        dir: &Path,
        catalog: Catalog,
        shard_config: &ShardConfig,
        config: QuestConfig,
    ) -> Result<ShardedPrimary, ShardError> {
        let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
        ShardedPrimary::reopen_with(
            dir,
            catalog,
            shard_config,
            config,
            RetryPolicy::default(),
            clock,
        )
    }

    /// [`ShardedPrimary::reopen`] under an explicit retry policy and clock.
    fn reopen_with(
        dir: &Path,
        catalog: Catalog,
        shard_config: &ShardConfig,
        config: QuestConfig,
        retry: RetryPolicy,
        clock: Arc<dyn Clock>,
    ) -> Result<ShardedPrimary, ShardError> {
        shard_config.validate()?;
        let (mut coordinator, frames) = CoordinatorLog::open(
            &dir.join(COORDINATOR_FILE),
            &catalog,
            retry.clone(),
            clock.clone(),
        )?;
        // A frame whose fsync failed before the previous owner stopped can
        // still be in the file; the set is about to serve it, so make it
        // durable first.
        coordinator.sync()?;
        let count = shard_config.shard_count;
        // The first and last LSN of each shard's records the coordinator
        // holds.
        let mut held: Vec<Option<(u64, u64)>> = vec![None; count];
        for (seq, frame) in &frames {
            for slice in &frame.slices {
                let Some(range) = held.get_mut(slice.shard) else {
                    return Err(ShardError::Config(format!(
                        "coordinator frame {seq} names shard {} but the set has {count} shards",
                        slice.shard
                    )));
                };
                let first = range.map_or(slice.lsn_before() + 1, |(first, _)| first);
                *range = Some((first, slice.last_lsn));
            }
        }
        let mut logs = Vec::with_capacity(count);
        let mut dbs = Vec::with_capacity(count);
        for (i, range) in held.into_iter().enumerate() {
            let (mut log, mut db) = DurableLog::reopen_salvaging(
                &shard_dir(dir, i),
                SyncPolicy::default(),
                retry.clone(),
                clock.clone(),
                range.map(|(first, last)| first..=last),
            )?;
            roll_forward(i, &mut log, &mut db, &frames)?;
            logs.push(log);
            dbs.push(db);
        }
        let store = ShardedStore::from_shards(catalog, dbs, shard_config)?;
        ShardedPrimary::assemble(
            dir,
            store,
            coordinator,
            logs,
            shard_config,
            config,
            (retry, clock),
        )
    }

    /// A healthy set serving `store`, shard `i` of which is the state after
    /// exactly the records in `logs[i]`.
    fn assemble(
        dir: &Path,
        store: ShardedStore,
        coordinator: CoordinatorLog,
        logs: Vec<DurableLog>,
        shard_config: &ShardConfig,
        config: QuestConfig,
        (retry, clock): (RetryPolicy, Arc<dyn Clock>),
    ) -> Result<ShardedPrimary, ShardError> {
        Ok(ShardedPrimary {
            catalog: store.catalog().clone(),
            coordinator,
            fence: None,
            logs,
            gateway: ScatterGather::from_store(store, config.clone())?,
            dir: dir.to_path_buf(),
            shard_config: shard_config.clone(),
            config,
            retry,
            clock,
        })
    }

    /// Override the retry policy and clock at every level of the set: WAL
    /// retries inside the coordinator and each shard's log, commit-level
    /// retries, and [`ShardedPrimary::supervise`]'s probe-after-backoff
    /// scheduling. Tests inject a [`ManualClock`](quest_fault::ManualClock):
    /// no wall time passes.
    pub fn set_recovery(&mut self, retry: RetryPolicy, clock: Arc<dyn Clock>) {
        self.coordinator.set_recovery(retry.clone(), clock.clone());
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
    /// by the shard the store wrote each to (order preserved; an update
    /// the store moved between shards becomes a delete on the old shard
    /// and an insert on the new one), and the
    /// slices are appended to the coordinator log as one [`BatchFrame`] and
    /// fsynced: the commit point. A batch with no accepted record writes
    /// nothing. Faults classified transient ([`WalError::is_transient`])
    /// are retried under the set's [`RetryPolicy`] before giving up.
    ///
    /// * If the frame cannot be made durable, every shard is fenced and the
    ///   commit returns [`ShardError::CommitUnknown`]: the frame may or may
    ///   not have reached the file. The set learns which once it is healed
    ///   ([`ShardedPrimary::supervise`] or [`ShardedPrimary::reopen`]
    ///   rebuild it from the directory). The batch was committed exactly
    ///   when [`ShardedPrimary::topology`]'s `lsns` then differ from their
    ///   values before this commit, so a caller resends it only when they
    ///   do not.
    /// * Once the frame is durable, each slice is appended to its shard's
    ///   log without a sync. A shard whose append fails is fenced, the
    ///   remaining shards are appended anyway, and the commit returns the
    ///   first [`ShardError::ShardDown`]. The batch is committed all the
    ///   same, so a caller must not resend it: healing re-drives the
    ///   missing slice from the coordinator.
    pub fn commit(&mut self, batch: &[ChangeRecord]) -> Result<ShardReceipt, ShardError> {
        self.ensure_healthy()?;
        let report = self.gateway.apply(batch)?;
        let per_shard = self
            .gateway
            .engine()
            .engine()
            .wrapper()
            .store()
            .route(batch, &report);
        let frame = BatchFrame {
            slices: per_shard
                .into_iter()
                .enumerate()
                .filter(|(_, records)| !records.is_empty())
                .map(|(shard, records)| ShardSlice {
                    shard,
                    last_lsn: self.logs[shard].last_lsn() + records.len() as u64,
                    records,
                })
                .collect(),
        };
        if !frame.slices.is_empty() {
            if let Err(e) = self.log_frame(&frame) {
                let reason = format!("coordinator log: {e}");
                self.install_fence(0..self.logs.len(), reason.clone());
                return Err(ShardError::CommitUnknown { reason });
            }
        }
        let mut first_down: Option<ShardError> = None;
        for slice in &frame.slices {
            if let Err(e) = self.append_to_shard(slice.shard, &slice.records) {
                let reason = e.to_string();
                self.install_fence([slice.shard], reason.clone());
                first_down.get_or_insert(ShardError::ShardDown {
                    shard: slice.shard,
                    reason,
                });
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

    /// Fire the commit-level failpoint `site`, retrying transient faults
    /// under the set's [`RetryPolicy`]; a slow-IO fault stalls and passes.
    fn commit_failpoint(&self, site: &str) -> Result<(), ShardError> {
        let mut attempt = 0u32;
        while let Some(fault) = quest_fault::fire(site) {
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
        Ok(())
    }

    /// Append `frame` to the coordinator log and fsync it (WAL-level
    /// faults are retried inside [`CoordinatorLog::commit`]).
    fn log_frame(&mut self, frame: &BatchFrame) -> Result<(), ShardError> {
        self.coordinator.commit(frame, commit_ctx())?;
        Ok(())
    }

    /// Append `records` to shard `s`'s log (WAL-level faults are retried
    /// inside [`DurableLog::append`], under the same policy).
    fn append_to_shard(&mut self, s: usize, records: &[ChangeRecord]) -> Result<(), ShardError> {
        self.commit_failpoint(quest_fault::sites::SHARD_COMMIT)?;
        self.logs[s].append(records, commit_ctx())?;
        Ok(())
    }

    /// Heal the set: reopen the directory exactly as
    /// [`ShardedPrimary::reopen`] would, which rolls every lagging shard
    /// log forward from the coordinator, and take its gateway, logs and
    /// coordinator, keeping this set's retry policy and clock. Returns how
    /// many shard fences were lifted.
    fn rebuild(&mut self) -> Result<usize, ShardError> {
        let fresh = ShardedPrimary::reopen_with(
            &self.dir,
            self.catalog.clone(),
            &self.shard_config,
            self.config.clone(),
            self.retry.clone(),
            self.clock.clone(),
        )?;
        let Some(fence) = std::mem::replace(self, fresh).fence else {
            return Ok(0);
        };
        let lifted = fence.reasons.iter().flatten().count();
        fence.quarantine.lift(lifted);
        Ok(lifted)
    }

    /// One supervision tick. If the set is fenced and its probe is due,
    /// it is rebuilt from the directory, which lifts every shard's fence.
    /// A failed probe is rescheduled under the retry policy's backoff; a
    /// fence whose first probe and all [`RetryPolicy::retries`] retries
    /// fail escalates to permanent and is left for the operator. Returns
    /// how many shard fences were lifted this tick.
    pub fn supervise(&mut self) -> usize {
        let now = self.clock.now();
        if !self
            .fence
            .as_ref()
            .is_some_and(|f| f.quarantine.is_due(now))
        {
            return 0;
        }
        match self.rebuild() {
            Ok(lifted) => lifted,
            Err(e) => {
                if let Some(fence) = self.fence.as_mut() {
                    for reason in fence.reasons.iter_mut().flatten() {
                        *reason = e.to_string();
                    }
                    fence.quarantine.probe_failed(&self.retry, now);
                }
                0
            }
        }
    }

    /// Run one keyword search through the gateway engine. Refuses with
    /// [`ShardError::ShardDown`] while any shard (or the whole set) is
    /// fenced — a broken shard means part of the data is unaccounted for,
    /// and a partial answer would be silently wrong.
    pub fn search(&self, raw_query: &str) -> Result<SearchOutcome, ShardError> {
        self.ensure_healthy()?;
        self.gateway.search(raw_query).map_err(ShardError::Engine)
    }

    /// The current replication state of the set.
    pub fn topology(&self) -> ShardTopology {
        let count = self.logs.len();
        ShardTopology {
            shard_count: count,
            lsns: self.logs.iter().map(DurableLog::last_lsn).collect(),
            broken: self
                .fence
                .as_ref()
                .map_or_else(|| vec![None; count], |f| f.reasons.clone()),
        }
    }

    /// Operator fence: mark a shard broken (e.g. after out-of-band
    /// detection of a poisoned WAL or failing disk). Subsequent searches
    /// and commits return [`ShardError::ShardDown`] until repair — which
    /// [`ShardedPrimary::supervise`] attempts automatically (a rebuild of
    /// the set from its directory).
    pub fn fence(&mut self, shard: usize, reason: impl Into<String>) {
        self.install_fence([shard], reason.into());
    }

    /// Fence `shards` for `reason`, quarantining the set on its not-fenced →
    /// fenced edge with its first probe due at once. A set already fenced
    /// keeps its probe schedule.
    fn install_fence(&mut self, shards: impl IntoIterator<Item = usize>, reason: String) {
        let (count, now) = (self.logs.len(), self.clock.now());
        let fence = self.fence.get_or_insert_with(|| Fence {
            reasons: vec![None; count],
            quarantine: Quarantine::enter("shard", now),
        });
        for shard in shards {
            count_fence();
            fence.reasons[shard] = Some(reason.clone());
        }
    }

    /// Whether every shard is serving.
    pub fn is_healthy(&self) -> bool {
        self.fence.is_none()
    }

    fn ensure_healthy(&self) -> Result<(), ShardError> {
        let fenced = self.fence.as_ref().and_then(|f| {
            f.reasons
                .iter()
                .enumerate()
                .find_map(|(shard, reason)| Some((shard, reason.clone()?)))
        });
        match fenced {
            Some((shard, reason)) => {
                count_down();
                Err(ShardError::ShardDown { shard, reason })
            }
            None => Ok(()),
        }
    }

    /// A durability point for callers that pair it with
    /// [`ShardedPrimary::commit`]. It has nothing to do: a commit is
    /// durable when it returns (its coordinator frame is fsynced), and
    /// shard logs need no fsync until a snapshot is published, because
    /// after a crash they roll forward from the coordinator.
    pub fn sync(&mut self) -> Result<(), ShardError> {
        Ok(())
    }

    /// Publish a snapshot of every shard, serialized in place from the
    /// gateway's store, returning each shard's snapshot LSN; new replicas
    /// bootstrap per shard from these. The coordinator log is fsynced
    /// before each shard log, and each shard log before its snapshot. Once
    /// every snapshot is published, the coordinator log is emptied: each
    /// frame it held is now in a synced shard log, and this bounds both its
    /// size and what a reopen reads. Refuses a fenced set
    /// ([`ShardError::ShardDown`]): its store is ahead of a fenced log, and
    /// a snapshot that covers records its log does not hold is the pair
    /// `reopen` refuses.
    pub fn publish_snapshots(&mut self) -> Result<Vec<u64>, ShardError> {
        self.ensure_healthy()?;
        self.coordinator.sync()?;
        // Commits need `&mut self`, so the store under this read guard is
        // exactly the state after each log's last record.
        let engine = self.gateway.engine().engine();
        let store = engine.wrapper().store();
        let lsns = self
            .logs
            .iter_mut()
            .enumerate()
            .map(|(i, log)| Ok(log.publish_snapshot(store.shard(i))?))
            .collect::<Result<Vec<u64>, ShardError>>()?;
        self.coordinator.clear()?;
        Ok(lsns)
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

/// Append to shard `shard`'s `log` every record the coordinator's `frames`
/// hold for it beyond the log's end, and replay them on `db`, the shard's
/// rows. A slice can be partly in the log already (a crash can tear an
/// unsynced append), so only its missing suffix is appended. A slice that
/// starts past the log's end means the log lost records no frame holds: an
/// error.
fn roll_forward(
    shard: usize,
    log: &mut DurableLog,
    db: &mut Database,
    frames: &[(u64, BatchFrame)],
) -> Result<(), ShardError> {
    let mut missing: Vec<ChangeRecord> = Vec::new();
    for (seq, frame) in frames {
        for slice in frame.slices.iter().filter(|s| s.shard == shard) {
            let end = log.last_lsn() + missing.len() as u64;
            if slice.last_lsn <= end {
                continue;
            }
            let before = slice.lsn_before();
            if before > end {
                return Err(ShardError::Recovery(format!(
                    "shard {shard} log ends at lsn {end} but coordinator frame {seq} \
                     continues it at lsn {}",
                    before + 1
                )));
            }
            missing.extend_from_slice(&slice.records[(end - before) as usize..]);
        }
    }
    let first = log.last_lsn() + 1;
    log.append(&missing, commit_ctx())?;
    quest_wal::replay(db, &(first..).zip(missing).collect::<Vec<_>>(), 0)?;
    Ok(())
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
