//! # quest-shard — horizontal sharding with bit-identical scatter-gather
//!
//! Partitions a `relstore` database into N shards by a hash of each row's
//! primary key, runs QUEST's forward pass per shard, and merges per-shard
//! score and statistics state so that the final ranking is **bit-identical**
//! to the unsharded engine — same SQL text, same score bits, same order.
//!
//! The layers, bottom up:
//!
//! * [`Partitioner`] — stable PK-hash routing (FNV-1a over a canonical
//!   value encoding that mirrors `Value`'s equality, so a row's shard never
//!   depends on *how* its key is spelled).
//! * [`ShardedStore`] — N FK-less shard [`Database`](relstore::Database)s
//!   behind one full catalog. Mutations route by PK hash and reproduce the
//!   unsharded database's check order and error strings; referential
//!   integrity is enforced *globally* by the store (shard catalogs carry no
//!   foreign keys, so a shard never rejects a cross-shard reference).
//!   Scores merge through `relstore`'s
//!   [`ScoreAccumulator`](relstore::index::ScoreAccumulator): integer state
//!   (df, doc counts, lengths) sums across shards. The per-FK join
//!   statistics — the one statistic maintained, read by
//!   `join_informativeness`; shards keep none of their own — come from one
//!   live [`JoinCounts`](relstore::stats::JoinCounts) per foreign key: a
//!   reference count per referenced row slot per shard, moved by ±1 per
//!   record, which also answers the restrictive delete rule. Every
//!   floating-point expression is evaluated **once** from the merged
//!   integers — which is what makes the merge exact rather than
//!   approximately associative.
//! * [`ShardedWrapper`] / [`ScatterGather`] — a
//!   [`SourceWrapper`](quest_core::SourceWrapper) over the store plus a
//!   cached serving engine. One scatter per keyword precomputes the whole
//!   per-attribute score table, so the engine's emission pass never fans
//!   out per `(keyword, attribute)` pair. The scatter runs inline on the
//!   querying thread: threads are for data-proportional work (index and
//!   statistics builds, single-table scans — all on
//!   [`relstore::jobs::run`]), never for a read's hash lookups or a commit.
//! * [`ShardedPrimary`] — a shard is the unit of replication. The gateway's
//!   store holds the only copy of the rows; each shard adds a
//!   [`DurableLog`](quest_wal::DurableLog) (own WAL, own snapshots, no
//!   rows), and a router appends accepted records to the log of the shard
//!   their partition key owns — after the whole batch is fsynced as one
//!   frame to the set's [`CoordinatorLog`](quest_wal::CoordinatorLog), the
//!   commit point that a crashed set's shard logs roll forward from. A
//!   shard whose append fails is fenced in the topology — queries against
//!   a set with a broken shard return a typed [`ShardError::ShardDown`],
//!   never silently partial results. A frame that cannot be made durable
//!   fences every shard and returns [`ShardError::CommitUnknown`].
//!
//! The identity discipline is pinned end to end by `tests/shard.rs` (the
//! repo-level shard identity suite) and by this crate's partitioner
//! property suite.

#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod partition;
pub mod scatter;
pub mod store;
pub mod topology;
pub mod wrapper;

pub use config::{ShardConfig, MAX_SHARD_COUNT};
pub use error::ShardError;
pub use partition::{partition_key, Partitioner};
pub use scatter::ScatterGather;
pub use store::ShardedStore;
pub use topology::{ShardReceipt, ShardTopology, ShardedPrimary};
pub use wrapper::ShardedWrapper;

/// The shard layer's metric names in the [`quest_obs::global`] registry.
pub mod names {
    /// Per-shard wall time inside one keyword scatter
    /// (`quest_shard_scatter_ns{shard="<i>"}`; histogram, nanoseconds).
    pub const SCATTER: &str = "quest_shard_scatter_ns";
    /// Per-shard index probes a keyword scatter issued — every `(indexed
    /// attribute, shard)` pair consulted, whether or not it matched;
    /// attributes no shard indexes are never probed (counter; the numerator
    /// of the scatter read-amplification ratio).
    pub const SCATTER_PROBES: &str = "quest_shard_scatter_probes_total";
    /// Scatter results the gather actually used: attribute slots whose
    /// merged score came back nonzero (counter; the denominator of the
    /// scatter read-amplification ratio).
    pub const SCATTER_USED: &str = "quest_shard_scatter_results_used_total";
    /// Searches or commits refused because a shard was fenced (counter).
    pub const DOWN: &str = "quest_shard_down_total";
    /// Shards fenced — by a failed commit or an operator (counter).
    pub const FENCE: &str = "quest_shard_fence_total";
}
