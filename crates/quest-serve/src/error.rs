//! Errors raised by the serving layer.

use std::fmt;

use quest_core::QuestError;
use relstore::StoreError;

/// What can go wrong between `submit` and a result, or while applying a
/// mutation batch.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The engine rejected or failed the search (or a post-mutation
    /// re-sync).
    Engine(QuestError),
    /// A storage-level rejection (RI violation, duplicate key, unknown
    /// table/row) promoted to an error.
    /// [`CachedEngine::apply`](crate::CachedEngine::apply) reports
    /// rejections per record in its [`ApplyReport`](crate::ApplyReport)
    /// instead of failing; this variant (and the `From<StoreError>` impl)
    /// is for callers that treat any rejection as fatal.
    Mutation(StoreError),
    /// The search panicked, so no answer was sent. The panic is contained
    /// to this ticket: the thread that ran the search carries on serving.
    Disconnected,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Engine(e) => write!(f, "engine: {e}"),
            ServeError::Mutation(e) => write!(f, "mutation rejected: {e}"),
            ServeError::Disconnected => write!(f, "query service disconnected before answering"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Engine(e) => Some(e),
            ServeError::Mutation(e) => Some(e),
            ServeError::Disconnected => None,
        }
    }
}

impl From<QuestError> for ServeError {
    fn from(e: QuestError) -> Self {
        ServeError::Engine(e)
    }
}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        ServeError::Mutation(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e: ServeError = QuestError::EmptyQuery.into();
        assert!(e.to_string().contains("engine"));
        assert!(e.source().is_some());
        let e: ServeError = StoreError::UnknownTable("t".into()).into();
        assert!(e.to_string().contains("mutation rejected"));
        assert!(e.source().is_some());
        assert!(ServeError::Disconnected.source().is_none());
        assert!(ServeError::Disconnected
            .to_string()
            .contains("disconnected"));
    }
}
