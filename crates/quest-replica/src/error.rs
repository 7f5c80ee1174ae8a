//! Errors raised by the replication layer.

use std::fmt;

use quest_core::QuestError;
use quest_serve::ServeError;
use quest_wal::WalError;

/// What can go wrong while shipping the log, applying it, or routing a
/// query against a consistency bound.
#[derive(Debug)]
pub enum ReplicaError {
    /// Log or snapshot I/O, corruption, or schema mismatch.
    Wal(WalError),
    /// The serving layer failed to apply a record batch or re-sync.
    Serve(ServeError),
    /// The engine rejected or failed a search.
    Engine(QuestError),
    /// A consistency bound could not be met: the target LSN is beyond what
    /// the log (or the primary itself) holds.
    Lagging {
        /// The LSN the caller demanded.
        required: u64,
        /// The LSN actually reached.
        reached: u64,
    },
    /// The topology was asked to do something its state forbids (e.g.
    /// opening a fresh primary over a directory that already has history).
    State(String),
}

impl fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicaError::Wal(e) => write!(f, "wal: {e}"),
            ReplicaError::Serve(e) => write!(f, "serve: {e}"),
            ReplicaError::Engine(e) => write!(f, "engine: {e}"),
            ReplicaError::Lagging { required, reached } => {
                write!(f, "lsn {required} required but only {reached} reached")
            }
            ReplicaError::State(msg) => write!(f, "invalid topology state: {msg}"),
        }
    }
}

impl std::error::Error for ReplicaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplicaError::Wal(e) => Some(e),
            ReplicaError::Serve(e) => Some(e),
            ReplicaError::Engine(e) => Some(e),
            ReplicaError::Lagging { .. } | ReplicaError::State(_) => None,
        }
    }
}

impl From<WalError> for ReplicaError {
    fn from(e: WalError) -> Self {
        match e {
            // The durable log's refusals (history on create, a log below
            // its snapshot on reopen or bootstrap) are this layer's state
            // errors.
            WalError::State(msg) => ReplicaError::State(msg),
            e => ReplicaError::Wal(e),
        }
    }
}

impl From<ServeError> for ReplicaError {
    fn from(e: ServeError) -> Self {
        ReplicaError::Serve(e)
    }
}

impl From<QuestError> for ReplicaError {
    fn from(e: QuestError) -> Self {
        ReplicaError::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e: ReplicaError = QuestError::EmptyQuery.into();
        assert!(e.to_string().contains("engine"));
        assert!(e.source().is_some());
        let e = ReplicaError::Lagging {
            required: 9,
            reached: 4,
        };
        assert!(e.to_string().contains('9'));
        assert!(e.source().is_none());
        let e = ReplicaError::State("already has history".into());
        assert!(e.to_string().contains("history"));
    }
}
