//! [`ScatterGather`]: the cached serving engine over a sharded store.

use std::sync::Arc;

use quest_core::{Quest, QuestConfig, QuestError, SearchOutcome, SourceWrapper};
use quest_serve::{ApplyReport, CachedEngine, ServeError, ServeStats};
use quest_wal::ChangeRecord;
use relstore::Database;

use crate::config::ShardConfig;
use crate::error::ShardError;
use crate::store::ShardedStore;
use crate::wrapper::ShardedWrapper;

/// A QUEST engine over N shards behind the standard serving layer.
///
/// The forward pass scatters once per keyword (filling the per-attribute
/// score table at prepare time), the merged statistics feed the same
/// HMM/DST machinery as the unsharded engine, and backward/assembly run on
/// the merged candidate state — so search outcomes are **bit-identical** to
/// [`CachedEngine`] over the unsharded database: same SQL text, same score
/// bits, same ranking order. Mutation batches go through
/// [`ScatterGather::apply`] with the same per-record accept/reject
/// semantics the WAL protocol relies on.
#[derive(Debug)]
pub struct ScatterGather {
    engine: Arc<CachedEngine<ShardedWrapper>>,
}

impl ScatterGather {
    /// Shard `db` and serve it.
    pub fn new(
        db: &Database,
        shard: &ShardConfig,
        config: QuestConfig,
    ) -> Result<ScatterGather, ShardError> {
        Self::from_store(ShardedStore::from_database(db, shard)?, config)
    }

    /// Serve an existing sharded store with default cache sizing.
    pub fn from_store(
        store: ShardedStore,
        mut config: QuestConfig,
    ) -> Result<ScatterGather, ShardError> {
        // Keep the engine config's shard knob in sync with the actual
        // partitioning, so config introspection and ServeStats agree.
        config.shard_count = store.shard_count();
        let engine = Quest::new(ShardedWrapper::new(store), config)?;
        Ok(ScatterGather {
            engine: Arc::new(CachedEngine::new(engine)),
        })
    }

    /// Run one keyword search.
    pub fn search(&self, raw_query: &str) -> Result<SearchOutcome, QuestError> {
        self.engine.search(raw_query)
    }

    /// Apply a mutation batch (per-record accept/reject, epoch bump on any
    /// application — identical contract to the unsharded serving layer).
    pub fn apply(&self, changes: &[ChangeRecord]) -> Result<ApplyReport, ServeError> {
        self.engine.apply(changes)
    }

    /// Serving counters; `stats().shards` reports the shard count.
    pub fn stats(&self) -> ServeStats {
        self.engine.stats()
    }

    /// The underlying cached engine (shareable across threads; pass clones
    /// of the `Arc` to a [`QueryService`](quest_serve::QueryService)).
    pub fn engine(&self) -> &Arc<CachedEngine<ShardedWrapper>> {
        &self.engine
    }

    /// Number of shards behind the engine.
    pub fn shard_count(&self) -> usize {
        self.engine.engine().wrapper().shard_count()
    }
}
