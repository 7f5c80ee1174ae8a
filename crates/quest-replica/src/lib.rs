//! # quest-replica — WAL-shipped read replicas for QUEST
//!
//! `quest-wal` made the write-ahead log the system's source of truth for
//! crash recovery; this crate promotes it to the **distribution backbone**:
//! the same log, shipped to N read replicas, turns the single-node pipeline
//! into a horizontally scalable read tier without giving up the
//! bit-identical-results guarantee the test suite is built on.
//!
//! * [`Primary`] — the single write point. [`Primary::commit`] assigns each
//!   record a monotonic **LSN** (its log sequence number — the topology's
//!   global clock), appends it write-ahead, applies it, and only then
//!   publishes the LSN; [`Primary::publish_snapshot`] emits slot-exact
//!   snapshots at exact LSNs for replica bootstrap.
//! * [`Replica`] — bootstraps from a snapshot, then tails the log with a
//!   positioned [`LogReader`](quest_wal::LogReader) —
//!   [`LogReader::after`](quest_wal::LogReader::after) seeks past the
//!   snapshot and refuses a log that ends below it, the same check
//!   `quest_wal::recover` makes — polls the tail, and applies batches
//!   through its own cached engine, re-rejecting poison records exactly
//!   like recovery does. A
//!   replica at LSN `L` answers bit-identically to a cold engine built
//!   from the first `L` log records (`tests/replica.rs`).
//! * [`ReplicaSet`] — a consistency-aware router: [`RoutingPolicy`] picks
//!   among replicas (round-robin / least-loaded), and each query carries a
//!   [`Consistency`] tag — `Eventual`, or `AtLeast(lsn)` read-your-writes,
//!   which never consults a replica behind the bound: it catches one up
//!   over the shared log or falls back to the primary.
//!
//! Scope of the guarantee: LSN-bounded consistency is about **data**
//! visibility. User feedback recorded on the primary is a primary-local
//! ranking signal and is not replicated, so after feedback training a
//! primary-served answer may rank results differently than a (feedback-
//! free) replica-served one at the same LSN.
//!
//! ```
//! use quest_core::QuestConfig;
//! use quest_replica::{Consistency, Primary, ReplicaSet, RoutingPolicy};
//! use quest_wal::ChangeRecord;
//! use relstore::{Catalog, DataType, Database, Row};
//! use std::sync::Arc;
//!
//! // A tiny database: people direct movies.
//! let mut catalog = Catalog::new();
//! catalog
//!     .define_table("person")?
//!     .pk("id", DataType::Int)?
//!     .col("name", DataType::Text)?
//!     .finish();
//! catalog
//!     .define_table("movie")?
//!     .pk("id", DataType::Int)?
//!     .col("title", DataType::Text)?
//!     .col_opts("director_id", DataType::Int, true, false)?
//!     .finish();
//! catalog.add_foreign_key("movie", "director_id", "person")?;
//! let mut db = Database::new(catalog)?;
//! db.insert("person", Row::new(vec![1.into(), "Victor Fleming".into()]))?;
//! db.insert(
//!     "movie",
//!     Row::new(vec![10.into(), "Gone with the Wind".into(), 1.into()]),
//! )?;
//!
//! // Primary + one replica, routed round-robin.
//! let dir = std::env::temp_dir().join(format!("quest-replica-doc-{}", std::process::id()));
//! let primary = Arc::new(Primary::open(&dir, db, QuestConfig::default())?);
//! let mut set = ReplicaSet::new(Arc::clone(&primary), RoutingPolicy::RoundRobin);
//! set.spawn_replica("r1")?;
//!
//! // Commit through the primary; read your write from the replica tier.
//! let receipt = primary.commit(&[ChangeRecord::Insert {
//!     table: "movie".into(),
//!     row: vec![11.into(), "The Wizard of Oz".into(), 1.into()],
//! }])?;
//! let routed = set.query("wizard fleming", Consistency::AtLeast(receipt.last_lsn))?;
//! assert!(routed.lsn >= receipt.last_lsn);
//! assert_eq!(routed.served_by, "r1"); // caught up over the shared log
//! assert!(!routed.outcome.explanations.is_empty());
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod primary;
pub mod replica;
pub mod router;

pub use error::ReplicaError;
pub use primary::{CommitReceipt, Primary, PrimaryOptions};
pub use replica::{Replica, SyncReport};
pub use router::{Consistency, ReplicaSet, ReplicaStatus, Routed, RoutingPolicy, Topology};

/// The replication tier's metric names in the [`quest_obs::global`]
/// registry.
pub mod names {
    /// Wall time of one non-empty apply batch on a replica (histogram,
    /// nanoseconds).
    pub const APPLY: &str = "quest_replica_apply_ns";
    /// Records behind the primary, one gauge per replica
    /// (`quest_replica_lag_lsns{replica="<name>"}`), refreshed whenever
    /// lag is computed (e.g. every topology report).
    pub const LAG: &str = "quest_replica_lag_lsns";
    /// Queries the router served from the primary because no registered
    /// replica could satisfy the consistency bound (counter).
    pub const ROUTER_FALLBACK: &str = "quest_router_fallback_total";
    /// Records committed through [`Primary::commit`](crate::Primary::commit)
    /// — the logical write volume, the denominator of the replication
    /// amplification ratio (counter; rejected-but-logged records count, an
    /// unacknowledged poisoned append does not).
    pub const RECORDS_COMMITTED: &str = "quest_replica_records_committed_total";
    /// Records replicas consumed from the log and applied (or re-rejected)
    /// — the physical replication volume: ≈ `records_committed × replicas`
    /// (counter).
    pub const RECORDS_APPLIED: &str = "quest_replica_records_applied_total";
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared unit-test fixture.

    use quest_wal::ChangeRecord;
    use relstore::{Catalog, DataType, Database, Row};
    use std::path::PathBuf;

    /// A two-table database: Victor Fleming directed Gone with the Wind.
    pub fn sample_db() -> Database {
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
        let mut d = Database::new(c).unwrap();
        d.insert("person", Row::new(vec![1.into(), "Victor Fleming".into()]))
            .unwrap();
        d.insert(
            "movie",
            Row::new(vec![10.into(), "Gone with the Wind".into(), 1.into()]),
        )
        .unwrap();
        d.finalize();
        d
    }

    /// A two-record batch (person + their movie) with keys salted by
    /// `round` so successive batches never collide.
    pub fn movie_batch(round: i64) -> Vec<ChangeRecord> {
        let person_id = 100 + 2 * round;
        let movie_id = person_id + 1;
        vec![
            ChangeRecord::Insert {
                table: "person".into(),
                row: vec![person_id.into(), format!("Director {round}").into()],
            },
            ChangeRecord::Insert {
                table: "movie".into(),
                row: vec![
                    movie_id.into(),
                    format!("Premiere {round}").into(),
                    person_id.into(),
                ],
            },
        ]
    }

    /// A per-test, per-process temp directory.
    pub fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("quest-replica-tests")
            .join(format!("{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }
}
