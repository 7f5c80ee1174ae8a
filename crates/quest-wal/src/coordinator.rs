//! [`CoordinatorLog`]: the commit point of a set of shard logs.
//!
//! Shard logs number their records independently, and nothing in them says
//! which slices of which logs form one batch, so a crash between two shard
//! appends would leave half a batch on disk. The coordinator log closes that
//! gap. Its owner appends each accepted batch as one [`BatchFrame`] (every
//! participant's slice, with that shard's LSN after the batch) and fsyncs
//! it *before* any shard log sees a record of the batch. That fsync is the
//! commit point. The shard logs are appended afterwards without a sync, so
//! a shard log never holds a record the coordinator lacks, and recovery only
//! ever rolls a lagging shard forward from the frames.
//!
//! The file uses the WAL's own framing (see [`crate::log`]): a
//! schema-fingerprinted header, one checksummed line per frame, sequence
//! numbers from 1, and the same torn-tail rule. An invalid final line is a
//! frame whose fsync never returned, so its batch was never committed; it
//! is dropped and counted in `quest_wal_torn_tail_total`.

use std::path::Path;
use std::sync::Arc;

use quest_fault::{Clock, RetryPolicy};
use quest_obs::TraceCtx;
use relstore::Catalog;

use crate::durable::retrying;
use crate::error::WalError;
use crate::log::{LogFile, SyncPolicy, WalWriter};
use crate::record::BatchFrame;

/// An append-only log of [`BatchFrame`]s whose every append is fsynced
/// before it returns, with transient-fault retries. Plain `&mut self`: the
/// owner of the shard set serializes commits.
#[derive(Debug)]
pub struct CoordinatorLog {
    wal: WalWriter,
    /// Backoff policy for transient faults, and the clock it sleeps against.
    retry: RetryPolicy,
    clock: Arc<dyn Clock>,
}

impl CoordinatorLog {
    /// Open the coordinator log at `path`, creating an empty one if there
    /// is none, bound to `catalog`'s schema. Returns the frames it holds, in
    /// sequence order. A torn final frame is dropped (and truncated away
    /// before the next append).
    pub fn open(
        path: &Path,
        catalog: &Catalog,
        retry: RetryPolicy,
        clock: Arc<dyn Clock>,
    ) -> Result<(CoordinatorLog, Vec<(u64, BatchFrame)>), WalError> {
        let file = LogFile::open(path, catalog, true)?;
        let scan = file.scan(0, BatchFrame::decode)?;
        let wal = file.into_writer(&scan, SyncPolicy::Never)?;
        let log = CoordinatorLog { wal, retry, clock };
        Ok((log, scan.records))
    }

    /// Replace the retry policy and the clock its backoff sleeps against.
    pub fn set_recovery(&mut self, retry: RetryPolicy, clock: Arc<dyn Clock>) {
        self.retry = retry;
        self.clock = clock;
    }

    /// Append `frame` and fsync it, returning its sequence number. Once
    /// this returns `Ok`, the batch is committed.
    ///
    /// The append fires the `shard.coordinator` failpoint, leaving
    /// `wal.append` to logs of records. Transient faults are retried in
    /// place. Each turn first reconciles a poisoned writer
    /// ([`WalWriter::heal`]), then re-appends the frame only if it has not
    /// landed, then fsyncs. On `Err` the frame may still be in the file,
    /// because an fsync can fail after the write. The outcome is unknown
    /// until the directory is read back.
    pub fn commit(&mut self, frame: &BatchFrame, ctx: TraceCtx) -> Result<u64, WalError> {
        let seq = self.wal.next_seq();
        let body = [frame.encode()];
        retrying(&mut self.wal, &self.retry, self.clock.as_ref(), |wal| {
            let landed = wal.next_seq() > seq;
            wal.heal()?; // a no-op on a healthy writer
            if !landed {
                wal.append_bodies_in(&body, ctx, quest_fault::sites::SHARD_COORDINATOR)?;
            }
            wal.sync_in(ctx)
        })?;
        Ok(seq)
    }

    /// fsync the log. Transient faults (and a heal-able poisoned writer)
    /// are retried.
    pub fn sync(&mut self) -> Result<(), WalError> {
        retrying(&mut self.wal, &self.retry, self.clock.as_ref(), |wal| {
            if wal.poisoned() {
                wal.heal()
            } else {
                wal.sync()
            }
        })
    }

    /// Empty the log back to its header and fsync it; frame sequence
    /// numbers start over at 1. Only for when every shard log that the
    /// frames feed is durable through its last record. Transient faults are
    /// retried.
    pub fn clear(&mut self) -> Result<(), WalError> {
        retrying(&mut self.wal, &self.retry, self.clock.as_ref(), |wal| {
            wal.clear()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{ChangeRecord, ShardSlice};
    use quest_fault::SystemClock;
    use relstore::DataType;

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

    fn frame(shard: usize, last_lsn: u64) -> BatchFrame {
        BatchFrame {
            slices: vec![ShardSlice {
                shard,
                last_lsn,
                records: vec![ChangeRecord::Insert {
                    table: "t".into(),
                    row: vec![(last_lsn as i64).into(), "x\ty".into()],
                }],
            }],
        }
    }

    fn open(path: &Path) -> (CoordinatorLog, Vec<(u64, BatchFrame)>) {
        CoordinatorLog::open(
            path,
            &catalog(),
            RetryPolicy::default(),
            Arc::new(SystemClock::new()),
        )
        .unwrap()
    }

    #[test]
    fn frames_survive_reopen_and_a_torn_frame_is_dropped() {
        let dir = std::env::temp_dir().join("quest-wal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("coordinator-{}.wal", std::process::id()));
        std::fs::remove_file(&path).ok();
        let ctx = TraceCtx::detached(quest_obs::TraceKind::Commit);
        {
            let (mut log, frames) = open(&path);
            assert!(frames.is_empty());
            assert_eq!(log.commit(&frame(0, 1), ctx).unwrap(), 1);
            assert_eq!(log.commit(&frame(1, 1), ctx).unwrap(), 2);
        }
        let (log, frames) = open(&path);
        assert_eq!(frames, vec![(1, frame(0, 1)), (2, frame(1, 1))]);
        drop(log);

        // Half of a third frame: the crash hit before its fsync returned.
        let full = std::fs::read(&path).unwrap();
        let line = format!("3\t0\t{}\n", frame(0, 2).encode());
        let mut torn = full.clone();
        torn.extend_from_slice(&line.as_bytes()[..line.len() / 2]);
        std::fs::write(&path, &torn).unwrap();
        let (mut log, frames) = open(&path);
        assert_eq!(frames.len(), 2);
        assert_eq!(std::fs::read(&path).unwrap(), full, "torn tail truncated");
        assert_eq!(log.commit(&frame(0, 2), ctx).unwrap(), 3);

        // Cleared once the shard logs are synced: numbering starts over.
        log.clear().unwrap();
        assert_eq!(log.commit(&frame(0, 3), ctx).unwrap(), 1);
        drop(log);
        assert_eq!(open(&path).1, vec![(1, frame(0, 3))]);
        std::fs::remove_file(&path).ok();
    }
}
