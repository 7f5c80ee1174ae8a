//! The crate's error type.

use std::fmt;

use quest_core::QuestError;
use quest_serve::ServeError;
use quest_wal::WalError;
use relstore::StoreError;

/// Anything that can go wrong inside the sharding layer.
#[derive(Debug)]
pub enum ShardError {
    /// Invalid shard configuration (count out of range, mismatched reopen).
    Config(String),
    /// A storage-level rejection surfaced by a shard or a global check.
    Store(StoreError),
    /// The engine rejected or failed a search.
    Engine(QuestError),
    /// The serving layer failed to apply a batch or re-sync.
    Serve(ServeError),
    /// A shard's durable log failed: WAL or snapshot I/O, corruption, a
    /// schema mismatch, or a log/snapshot pair that must not be resumed.
    Wal(WalError),
    /// A row was found on a shard its primary key does not hash to.
    Placement(String),
    /// A shard log cannot be rolled forward from the coordinator log: a
    /// coordinator frame continues it past where it ends. The set does not
    /// open (or stays fenced).
    Recovery(String),
    /// A batch's commit point was not reached: its coordinator frame could
    /// not be made durable, and may or may not be in the file. Every shard
    /// is fenced. Once the set is healed, the batch was committed exactly
    /// when the set's LSNs differ from their values before the commit.
    CommitUnknown {
        /// Why the frame failed.
        reason: String,
    },
    /// A shard is fenced: it failed a commit (or an operator fenced it) and
    /// the set refuses to serve queries or writes until it is repaired —
    /// a typed refusal instead of silently partial results. A commit that
    /// returns it was committed: the fenced shard's slice is in the
    /// coordinator log, and healing re-drives it.
    ShardDown {
        /// Index of the broken shard.
        shard: usize,
        /// Why it was fenced.
        reason: String,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Config(m) => write!(f, "shard config: {m}"),
            ShardError::Store(e) => write!(f, "store: {e}"),
            ShardError::Engine(e) => write!(f, "engine: {e}"),
            ShardError::Serve(e) => write!(f, "serve: {e}"),
            ShardError::Wal(e) => write!(f, "wal: {e}"),
            ShardError::Placement(m) => write!(f, "placement: {m}"),
            ShardError::Recovery(m) => write!(f, "recovery: {m}"),
            ShardError::CommitUnknown { reason } => {
                write!(f, "commit outcome unknown: {reason}")
            }
            ShardError::ShardDown { shard, reason } => {
                write!(f, "shard {shard} is down: {reason}")
            }
        }
    }
}

impl std::error::Error for ShardError {}

impl From<StoreError> for ShardError {
    fn from(e: StoreError) -> ShardError {
        ShardError::Store(e)
    }
}

impl From<QuestError> for ShardError {
    fn from(e: QuestError) -> ShardError {
        ShardError::Engine(e)
    }
}

impl From<ServeError> for ShardError {
    fn from(e: ServeError) -> ShardError {
        ShardError::Serve(e)
    }
}

impl From<WalError> for ShardError {
    fn from(e: WalError) -> ShardError {
        ShardError::Wal(e)
    }
}
