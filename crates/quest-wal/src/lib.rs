//! # quest-wal — durability for live QUEST databases
//!
//! The storage engine under QUEST (`relstore`) mutates in memory; this crate
//! makes those mutations durable and recoverable, the way a
//! change-data-capture pipeline treats its source of truth:
//!
//! * [`ChangeRecord`] — a serializable `Insert` / `Delete` / `Update`
//!   addressed by table name and primary key, the unit of both logging and
//!   replication;
//! * [`WalWriter`] / [`read_log`] — an append-only on-disk log with a text
//!   framing format: a schema-fingerprinted header, per-record FNV-64
//!   checksums, sequence numbers that rise by exactly one, a
//!   [`SyncPolicy`] durability knob, and torn-tail recovery (a crash
//!   mid-append costs at most the unfinished record; any bad final line —
//!   not UTF-8, failing its checksum, or a seq that is not the next one —
//!   is dropped and reported as a torn tail);
//! * [`LogReader`] — positioned, incremental reading of the same log:
//!   `seek` past a snapshot's watermark without decoding the skipped
//!   prefix, then `poll` the tail as it grows (the replication transport —
//!   see the `quest-replica` crate), under the same header and torn-tail
//!   rules as the writer and `read_log` ([`log`]);
//! * [`write_snapshot`] / [`read_snapshot`] — whole-[`Database`] snapshots
//!   that preserve the exact slot layout (tombstones included), so a
//!   restored instance is structurally identical, not merely equivalent;
//! * [`recover`] — snapshot + log suffix ⇒ the database the uninterrupted
//!   process would have held, bit-identical down to index postings and
//!   statistics (asserted by `tests/wal.rs`);
//! * [`DurableLog`] — the three above composed into one directory a write
//!   point owns (see below);
//! * [`CoordinatorLog`] / [`BatchFrame`] — the commit point of a set of
//!   shard logs: one fsynced frame per batch holding every participant's
//!   slice, in the same framing, so a lagging shard log rolls forward from
//!   it after a crash, and [`DurableLog::reopen_salvaging`] cuts a shard
//!   log that a power loss garbled past its snapshot back to a prefix the
//!   frames extend (see the `quest-shard` crate).
//!
//! Logs and snapshots both carry a [`schema_fingerprint`]; replay against a
//! database with a different schema fails fast with
//! [`WalError::SchemaMismatch`] instead of corrupting data.
//!
//! ## Durable log
//!
//! A [`DurableLog`] is a directory holding `primary.wal` and `latest.snap`
//! plus the rules that keep the two a consistent pair. It stores no rows —
//! the owner of the live [`Database`] passes a reference in when a snapshot
//! is due — so `quest-replica`'s `Primary` (one log behind its commit mutex)
//! and `quest-shard`'s `ShardedPrimary` (one log per shard over the
//! gateway's store) share one implementation of the five rules it owns,
//! each pinned by a test (`P::` = `quest-replica`'s `primary::tests`, `F::`
//! = `tests/failure_injection.rs`):
//!
//! 1. **History is never overwritten**: [`DurableLog::create`] refuses a log
//!    that already holds records
//!    (`P::open_refuses_a_directory_with_history_but_reopen_resumes_it`).
//! 2. **Covered LSNs are never re-issued**: [`LogReader::after`], the one
//!    check, refuses a log that ends below its snapshot's watermark with
//!    [`WalError::State`]; [`recover`] (so [`DurableLog::reopen`]) and
//!    `quest-replica`'s `Replica::bootstrap` both attach through it
//!    (`P::a_log_that_lost_acknowledged_history_is_refused_everywhere`).
//! 3. **The log is durable before the snapshot that watermarks it**, and a
//!    failed publish leaves the previous snapshot in place
//!    (`F::failed_snapshot_publish_leaves_prior_snapshot_bootstrappable`).
//! 4. **Transient faults heal in place, at the same LSNs**, under the log's
//!    own `RetryPolicy` and `Clock` (`F::torn_append_mid_batch_heals_on_retry`,
//!    `F::transient_fsync_failure_no_longer_poisons_the_writer`,
//!    `F::set_recovery_reaches_the_shard_logs`).
//! 5. **A landed batch stays landed**: after a *post-write* fsync failure
//!    the append reports the error, [`DurableLog::last_lsn`] has advanced,
//!    retries only heal, and the caller applies the batch to stay
//!    consistent with its own log (the 100-seed `tests/chaos.rs` compares
//!    log-fed replicas and reopened shard sets to never-faulted twins).
//!
//! ```
//! use quest_wal::{recover, ChangeRecord, WalWriter};
//! use relstore::{Catalog, DataType, Database, Row, Value};
//!
//! let mut catalog = Catalog::new();
//! catalog
//!     .define_table("movie")?
//!     .pk("id", DataType::Int)?
//!     .col("title", DataType::Text)?
//!     .finish();
//! let mut db = Database::new(catalog)?;
//! db.finalize();
//!
//! let dir = std::env::temp_dir().join("quest-wal-doctest");
//! std::fs::create_dir_all(&dir)?;
//! let wal = dir.join(format!("{}.wal", std::process::id()));
//! let snap = dir.join(format!("{}.snap", std::process::id()));
//!
//! // Log every mutation before applying it (write-ahead), snapshot once.
//! let mut writer = WalWriter::open(&wal, db.catalog())?;
//! quest_wal::write_snapshot(&db, &snap, 0)?;
//! for (id, title) in [(1, "Casablanca"), (2, "Gone with the Wind")] {
//!     let change = ChangeRecord::Insert {
//!         table: "movie".into(),
//!         row: vec![id.into(), title.into()],
//!     };
//!     writer.append(&change)?;
//!     change.apply(&mut db)?;
//! }
//! writer.sync()?;
//!
//! // Crash here. Recovery = snapshot + log suffix.
//! let recovery = recover(&snap, &wal)?;
//! assert_eq!(recovery.db.total_rows(), db.total_rows());
//! assert_eq!(recovery.applied, 2);
//! let title = db.catalog().attr_id("movie", "title")?;
//! assert_eq!(
//!     recovery.db.search_score(title, "casablanca").to_bits(),
//!     db.search_score(title, "casablanca").to_bits(),
//! );
//! # std::fs::remove_file(&wal).ok();
//! # std::fs::remove_file(&snap).ok();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod codec;
pub mod coordinator;
pub mod durable;
pub mod error;
pub mod log;
pub mod reader;
pub mod record;
pub mod snapshot;

use std::path::Path;

use relstore::Database;

pub use codec::schema_fingerprint;
pub use coordinator::CoordinatorLog;
pub use durable::DurableLog;
pub use error::WalError;
pub use log::{names, read_log, replay, LogRecovery, ReplayReport, SyncPolicy, WalWriter};
pub use reader::{LogReader, TailPoll};
pub use record::{BatchFrame, ChangeRecord, ShardSlice};
pub use snapshot::{read_snapshot, write_snapshot, Snapshot};

/// Outcome of [`recover`].
#[derive(Debug)]
pub struct Recovery {
    /// The recovered, finalized database.
    pub db: Database,
    /// The snapshot's watermark: every record at or below this sequence
    /// number is already reflected in it. The log holds at least this far
    /// — [`recover`] refuses a log that ends below it — so a caller can
    /// resume writing after the log's own last record.
    pub snapshot_lsn: u64,
    /// Log records applied on top of the snapshot.
    pub applied: usize,
    /// Log records re-rejected during replay — exactly the records the
    /// live system rejected after logging them (see [`replay`]).
    pub rejected: usize,
    /// Whether the log ended in a torn (dropped) record.
    pub torn_tail: bool,
}

/// Crash recovery: load the snapshot at `snapshot_path`, then replay every
/// log record at `wal_path` with a sequence number newer than the
/// snapshot's watermark. The result is bit-identical to the database the
/// uninterrupted process held after its last complete append.
///
/// The log suffix is read through [`LogReader::after`]: records at or
/// below the snapshot's watermark are skipped by frame (no checksumming or
/// body decode — their effects are already in the snapshot), so recovery
/// cost scales with the suffix, not the whole log. Run [`read_log`]
/// separately for a full-file integrity audit; both apply the same header
/// and torn-tail rules. A log that ends below the snapshot's watermark is
/// refused with [`WalError::State`].
///
/// The recovered instance passes through [`Database::validate`] before it
/// is returned: WAL records carry per-line checksums but snapshot data
/// lines do not, so this is the gate that catches a snapshot whose bytes
/// rotted into something type-correct but referentially inconsistent.
pub fn recover(snapshot_path: &Path, wal_path: &Path) -> Result<Recovery, WalError> {
    let start = std::time::Instant::now();
    let snapshot = read_snapshot(snapshot_path)?;
    let tail = LogReader::after(wal_path, &snapshot)?.poll()?;
    let mut db = snapshot.db;
    let report = replay(&mut db, &tail.records, snapshot.last_seq)?;
    db.validate()?;
    quest_obs::global()
        .histogram(names::RECOVER)
        .record(quest_obs::duration_ns(start.elapsed()));
    Ok(Recovery {
        db,
        snapshot_lsn: snapshot.last_seq,
        applied: report.applied,
        rejected: report.rejected,
        torn_tail: tail.pending > 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::{Catalog, DataType, Row};

    #[test]
    fn recover_rejects_a_referentially_broken_snapshot() {
        // Snapshot data lines carry no per-line checksum; the recover()
        // validate() gate must catch bytes that rotted into a
        // type-correct but dangling foreign key.
        let dir = std::env::temp_dir().join("quest-wal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let pid = std::process::id();
        let snap = dir.join(format!("broken-fk-{pid}.snap"));
        let wal = dir.join(format!("broken-fk-{pid}.wal"));

        let mut c = Catalog::new();
        c.define_table("person")
            .unwrap()
            .pk("id", DataType::Int)
            .unwrap()
            .col("name", DataType::Text)
            .unwrap()
            .finish();
        c.define_table("movie")
            .unwrap()
            .pk("id", DataType::Int)
            .unwrap()
            .col("title", DataType::Text)
            .unwrap()
            .col_opts("director_id", DataType::Int, true, false)
            .unwrap()
            .finish();
        c.add_foreign_key("movie", "director_id", "person").unwrap();
        let mut db = Database::new(c).unwrap();
        db.insert("person", Row::new(vec![7.into(), "Fleming".into()]))
            .unwrap();
        db.insert("movie", Row::new(vec![10.into(), "Wind".into(), 7.into()]))
            .unwrap();
        db.finalize();
        let _ = WalWriter::open(&wal, db.catalog()).unwrap();
        write_snapshot(&db, &snap, 0).unwrap();

        // Sanity: the clean pair recovers.
        assert!(recover(&snap, &wal).is_ok());
        // Rot the movie's FK field (trailing value of its R line) to a
        // person id that does not exist.
        let text = std::fs::read_to_string(&snap).unwrap();
        std::fs::write(&snap, text.replace("\ti7\n", "\ti9\n")).unwrap();
        let err = recover(&snap, &wal).unwrap_err();
        assert!(matches!(err, WalError::Store(_)), "{err}");

        std::fs::remove_file(&snap).ok();
        std::fs::remove_file(&wal).ok();
    }
}
