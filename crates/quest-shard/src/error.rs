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
    /// Shard recovery could not verify the healed log (replayed LSN outside
    /// the fence window, or a final watermark other than the fence
    /// expected). The shard stays fenced.
    Recovery(String),
    /// A shard is fenced: it failed a commit (or an operator fenced it) and
    /// the set refuses to serve queries or writes until it is repaired —
    /// a typed refusal instead of silently partial results.
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
