//! [`ShardedWrapper`]: the engine's view of a sharded store.

use std::sync::Arc;

use quest_core::{Keyword, MiniOntology, PreparedKeyword, SourceWrapper};
use quest_serve::{ApplyReport, MutableSource};
use quest_wal::ChangeRecord;
use relstore::index::KeywordProbe;
use relstore::sql::{ResultSet, SelectStatement};
use relstore::{AttrId, Catalog, Database, ForeignKey, StoreError, TableId};

use crate::config::ShardConfig;
use crate::error::ShardError;
use crate::store::ShardedStore;

/// A [`SourceWrapper`] over a [`ShardedStore`]: the engine sees one full
/// catalog and one search function, and every answer is bit-identical to
/// [`FullAccessWrapper`](quest_core::FullAccessWrapper) over the unsharded
/// union of the shards.
///
/// The one structural difference from the unsharded wrapper is keyword
/// preparation: instead of attaching an index probe and scoring per
/// attribute on demand, preparation runs **one scatter per keyword** that
/// fills the whole per-attribute score table
/// ([`ShardedStore::scatter_value_scores`]). The emission pass then reads a
/// table slot per `(keyword, attribute)` pair — the per-shard fan-out cost
/// is paid once per keyword, not once per attribute. The scatter runs
/// inline on the thread that prepares the keyword (a keyword read never
/// spawns) and probes only the attributes some shard indexes. Generated
/// SQL goes to [`ShardedStore::execute`], which spreads a single-table
/// statement over the shards on relstore's job runner.
#[derive(Debug)]
pub struct ShardedWrapper {
    store: ShardedStore,
    ontology: MiniOntology,
}

impl ShardedWrapper {
    /// Wrap a sharded store.
    pub fn new(store: ShardedStore) -> ShardedWrapper {
        ShardedWrapper {
            store,
            ontology: MiniOntology::builtin(),
        }
    }

    /// Shard an existing database and wrap the result.
    pub fn from_database(
        db: &Database,
        config: &ShardConfig,
    ) -> Result<ShardedWrapper, ShardError> {
        Ok(ShardedWrapper::new(ShardedStore::from_database(
            db, config,
        )?))
    }

    /// The wrapped store.
    pub fn store(&self) -> &ShardedStore {
        &self.store
    }
}

impl SourceWrapper for ShardedWrapper {
    fn catalog(&self) -> &Catalog {
        self.store.catalog()
    }

    fn value_score(&self, attr: AttrId, keyword: &Keyword) -> f64 {
        self.store.search_score(attr, &keyword.normalized)
    }

    fn prepare_keyword(&self, keyword: &Keyword) -> PreparedKeyword {
        // Scatter-probe failpoint: an in-memory table scan cannot fail, so
        // only `SlowIo` is honored here (`stall` is a no-op for every other
        // kind). Results are bit-identical with or without an armed plan.
        if let Some(fault) = quest_fault::fire(quest_fault::sites::SHARD_PROBE) {
            fault.stall();
        }
        let scores = match KeywordProbe::new(&keyword.normalized) {
            Some(probe) => self.store.scatter_value_scores(&probe),
            // Normalized away: every score is 0. An empty table makes every
            // lookup fall back to 0.0 without allocating per attribute.
            None => Vec::new(),
        };
        PreparedKeyword::with_value_scores(keyword.clone(), Arc::new(scores))
    }

    fn value_score_prepared(&self, attr: AttrId, prepared: &PreparedKeyword) -> f64 {
        match prepared.value_scores() {
            Some(table) => table.get(attr.0 as usize).copied().unwrap_or(0.0),
            None => self.value_score(attr, prepared.keyword()),
        }
    }

    fn join_informativeness(&self, fk: ForeignKey) -> Option<f64> {
        self.store.fk_stats(fk).map(|s| s.nmi)
    }

    fn execute(&self, stmt: &SelectStatement) -> Result<ResultSet, StoreError> {
        self.store.execute(stmt)
    }

    fn has_results(&self, stmt: &SelectStatement) -> Result<bool, StoreError> {
        self.store.has_results(stmt)
    }

    fn has_instance_access(&self) -> bool {
        true
    }

    fn table_rows(&self, table: TableId) -> Option<u64> {
        Some(self.store.row_count(table) as u64)
    }

    fn ontology(&self) -> &MiniOntology {
        &self.ontology
    }

    fn shard_count(&self) -> usize {
        self.store.shard_count()
    }
}

impl MutableSource for ShardedWrapper {
    fn apply_changes(&mut self, changes: &[ChangeRecord], report: &mut ApplyReport) {
        self.store.apply_changes(changes, report);
    }
}
