//! The backward module: configuration → top-k interpretations.
//!
//! "The backward module adopts a Steiner Tree-based technique to select, for
//! each configuration, the top-k paths joining the involved database schema
//! elements" (paper §3). The tree is grown over the attribute-level
//! [`SchemaGraph`] — not the instance — which keeps the graph small,
//! update-stable, uniform in edge semantics, and computable without instance
//! access (the paper's four advantages).

pub mod interpretation;
pub mod schema_graph;
pub mod summary;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use quest_graph::{top_k_steiner, top_k_steiner_with, GraphError, SteinerConfig, SteinerScratch};
use relstore::Catalog;

use crate::error::QuestError;
use crate::forward::Configuration;
use crate::wrapper::SourceWrapper;

pub use interpretation::{dedup_interpretations, Interpretation};
pub use schema_graph::{hub_attr, SchemaEdgeKind, SchemaGraph, SchemaGraphWeights};
pub use summary::{render_summary, summarize, SchemaSummary, SummaryWeights, TableImportance};

/// Join-path templates are keyed by configuration schema *shape*: the
/// sorted, deduped terminal node set plus the requested `k` — not the
/// query's terms. Distinct queries (and distinct configurations within one
/// query) that anchor to the same schema elements share one template.
type TemplateKey = (Vec<quest_graph::NodeId>, usize);

/// Gauges of the per-engine join-template memo at snapshot time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TemplateCacheStats {
    /// Lookups answered from a memoized template.
    pub hits: u64,
    /// Lookups that ran the Steiner enumeration.
    pub misses: u64,
    /// Templates currently memoized.
    pub entries: usize,
}

/// The backward module: owns the schema graph and the per-engine
/// join-template memo.
///
/// The memo lives here — not in a per-query scratch — because join-path
/// templates are a pure function of the schema graph: they stay valid for
/// the engine's whole lifetime and are shared across queries and threads.
/// Invalidation is structural: `Quest::resync` (the funnel for every data
/// mutation) rebuilds the `BackwardModule`, so a schema-affecting change
/// starts from an empty memo by construction.
#[derive(Debug)]
pub struct BackwardModule {
    schema: SchemaGraph,
    templates: RwLock<HashMap<TemplateKey, Arc<Vec<Interpretation>>>>,
    template_hits: AtomicU64,
    template_misses: AtomicU64,
}

impl Clone for BackwardModule {
    fn clone(&self) -> Self {
        // A cloned engine is a fresh engine: templates are pure derived
        // data, so the clone starts with a cold memo and zeroed gauges.
        BackwardModule::with_schema(self.schema.clone())
    }
}

impl BackwardModule {
    fn with_schema(schema: SchemaGraph) -> Self {
        BackwardModule {
            schema,
            templates: RwLock::new(HashMap::new()),
            template_hits: AtomicU64::new(0),
            template_misses: AtomicU64::new(0),
        }
    }

    /// Build from a wrapper with the given weights.
    pub fn new<W: SourceWrapper + ?Sized>(wrapper: &W, weights: &SchemaGraphWeights) -> Self {
        BackwardModule::with_schema(SchemaGraph::build(wrapper, weights))
    }

    /// Build with the E8 ablation (uniform FK weights).
    pub fn new_uniform<W: SourceWrapper + ?Sized>(wrapper: &W) -> Self {
        BackwardModule::with_schema(SchemaGraph::build_uniform(wrapper))
    }

    /// The schema graph.
    pub fn schema_graph(&self) -> &SchemaGraph {
        &self.schema
    }

    /// Terminal nodes of a configuration: the anchor attribute of each
    /// distinct mapped term (paper: the tree joins "the database elements
    /// discovered during the first task").
    pub fn terminals(&self, catalog: &Catalog, config: &Configuration) -> Vec<quest_graph::NodeId> {
        let mut nodes: Vec<quest_graph::NodeId> = config
            .terms
            .iter()
            .map(|t| self.schema.node_of(t.anchor_attr(catalog)))
            .collect();
        nodes.sort();
        nodes.dedup();
        nodes
    }

    /// Top-k interpretations for one configuration, best first. A
    /// configuration whose elements cannot be joined (disconnected schema)
    /// yields no interpretations rather than an error — it simply produces
    /// no explanations downstream.
    pub fn interpretations(
        &self,
        catalog: &Catalog,
        config: &Configuration,
        k: usize,
    ) -> Result<Vec<Interpretation>, QuestError> {
        self.interpretations_for_terminals(&self.terminals(catalog, config), k)
    }

    /// Top-k interpretations for an already-resolved terminal set (sorted,
    /// deduped — as produced by [`BackwardModule::terminals`]).
    ///
    /// Interpretations are a pure function of `(terminals, k)` for a fixed
    /// schema graph; distinct configurations of one query frequently anchor
    /// to the *same* terminals, so the per-query scratch memoizes on this
    /// entry point (see `SearchScratch`).
    pub fn interpretations_for_terminals(
        &self,
        terminals: &[quest_graph::NodeId],
        k: usize,
    ) -> Result<Vec<Interpretation>, QuestError> {
        if terminals.is_empty() {
            return Ok(Vec::new());
        }
        let cfg = SteinerConfig::top_k(k);
        match top_k_steiner(self.schema.graph(), terminals, &cfg) {
            Ok(trees) => Ok(dedup_interpretations(
                trees.into_iter().map(Interpretation::from_tree).collect(),
            )),
            Err(GraphError::Disconnected) => Ok(Vec::new()),
            Err(e) => Err(e.into()),
        }
    }

    /// [`BackwardModule::interpretations_for_terminals`] through the
    /// per-engine join-template memo and the scratch-reused, pruned Steiner
    /// enumeration — the backward hot path.
    ///
    /// A miss runs `top_k_steiner_with` (bit-identical to the reference's
    /// `top_k_steiner`, pinned by `quest-graph`'s property suite) and
    /// memoizes the deduped interpretations; a hit shares the memoized
    /// template's `Arc`, so the caller decides whether to deep-copy it. Two
    /// threads racing on the same miss both compute the same pure value, so
    /// the second insert overwrites with an equal payload.
    pub fn interpretations_for_terminals_cached(
        &self,
        terminals: &[quest_graph::NodeId],
        k: usize,
        scratch: &mut SteinerScratch,
    ) -> Result<Arc<Vec<Interpretation>>, QuestError> {
        if terminals.is_empty() {
            return Ok(Arc::new(Vec::new()));
        }
        let key: TemplateKey = (terminals.to_vec(), k);
        if let Some(hit) = self
            .templates
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            self.template_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(hit));
        }
        self.template_misses.fetch_add(1, Ordering::Relaxed);
        let cfg = SteinerConfig::top_k(k);
        let computed = Arc::new(
            match top_k_steiner_with(self.schema.graph(), terminals, &cfg, scratch) {
                Ok(trees) => dedup_interpretations(
                    trees.into_iter().map(Interpretation::from_tree).collect(),
                ),
                Err(GraphError::Disconnected) => Vec::new(),
                Err(e) => return Err(e.into()),
            },
        );
        self.templates
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, Arc::clone(&computed));
        Ok(computed)
    }

    /// Hit/miss/entry gauges of the join-template memo.
    pub fn template_stats(&self) -> TemplateCacheStats {
        TemplateCacheStats {
            hits: self.template_hits.load(Ordering::Relaxed),
            misses: self.template_misses.load(Ordering::Relaxed),
            entries: self
                .templates
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .len(),
        }
    }

    /// Convenience: interpretations keyed by terminal attributes only (used
    /// by benchmarks that bypass the forward step).
    pub fn interpretations_for_attrs(
        &self,
        attrs: &[relstore::AttrId],
        k: usize,
    ) -> Result<Vec<Interpretation>, QuestError> {
        let mut terminals: Vec<_> = attrs.iter().map(|a| self.schema.node_of(*a)).collect();
        terminals.sort();
        terminals.dedup();
        if terminals.is_empty() {
            return Ok(Vec::new());
        }
        match top_k_steiner(self.schema.graph(), &terminals, &SteinerConfig::top_k(k)) {
            Ok(trees) => Ok(dedup_interpretations(
                trees.into_iter().map(Interpretation::from_tree).collect(),
            )),
            Err(GraphError::Disconnected) => Ok(Vec::new()),
            Err(e) => Err(e.into()),
        }
    }

    /// The distinct tables a configuration's interpretation would span if it
    /// used only its own terms (diagnostics).
    pub fn config_tables(&self, catalog: &Catalog, config: &Configuration) -> usize {
        config.tables(catalog).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::DbTerm;
    use crate::wrapper::FullAccessWrapper;
    use relstore::{DataType, Database, Row};

    fn wrapper() -> FullAccessWrapper {
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
        // An island table with no FK at all.
        c.define_table("island")
            .unwrap()
            .pk("id", DataType::Int)
            .unwrap()
            .col("label", DataType::Text)
            .unwrap()
            .finish();
        c.add_foreign_key("movie", "director_id", "person").unwrap();
        let mut d = Database::new(c).unwrap();
        d.insert("person", Row::new(vec![1.into(), "Victor Fleming".into()]))
            .unwrap();
        d.insert("movie", Row::new(vec![10.into(), "Wind".into(), 1.into()]))
            .unwrap();
        d.insert("island", Row::new(vec![1.into(), "Atlantis".into()]))
            .unwrap();
        d.finalize();
        FullAccessWrapper::new(d)
    }

    #[test]
    fn cross_table_configuration_joins_via_fk() {
        let w = wrapper();
        let c = w.catalog();
        let b = BackwardModule::new(&w, &SchemaGraphWeights::default());
        let cfg = Configuration::new(
            vec![
                DbTerm::Domain(c.attr_id("movie", "title").unwrap()),
                DbTerm::Domain(c.attr_id("person", "name").unwrap()),
            ],
            1.0,
        );
        let interps = b.interpretations(c, &cfg, 3).unwrap();
        assert!(!interps.is_empty());
        let joins = interps[0].join_conditions(b.schema_graph());
        assert_eq!(joins.len(), 1, "one FK hop expected");
        assert!(interps[0].score > 0.0);
    }

    #[test]
    fn single_table_configuration_is_trivial() {
        let w = wrapper();
        let c = w.catalog();
        let b = BackwardModule::new(&w, &SchemaGraphWeights::default());
        let title = c.attr_id("movie", "title").unwrap();
        let cfg = Configuration::new(vec![DbTerm::Domain(title)], 1.0);
        let interps = b.interpretations(c, &cfg, 3).unwrap();
        assert_eq!(interps.len(), 1);
        assert!(interps[0].tree.is_empty());
        assert_eq!(interps[0].score, 1.0);
    }

    #[test]
    fn disconnected_terms_yield_no_interpretations() {
        let w = wrapper();
        let c = w.catalog();
        let b = BackwardModule::new(&w, &SchemaGraphWeights::default());
        let cfg = Configuration::new(
            vec![
                DbTerm::Domain(c.attr_id("movie", "title").unwrap()),
                DbTerm::Domain(c.attr_id("island", "label").unwrap()),
            ],
            1.0,
        );
        assert!(b.interpretations(c, &cfg, 3).unwrap().is_empty());
    }

    #[test]
    fn table_terms_anchor_at_primary_key() {
        let w = wrapper();
        let c = w.catalog();
        let b = BackwardModule::new(&w, &SchemaGraphWeights::default());
        let cfg = Configuration::new(
            vec![
                DbTerm::Table(c.table_id("movie").unwrap()),
                DbTerm::Domain(c.attr_id("person", "name").unwrap()),
            ],
            1.0,
        );
        let terms = b.terminals(c, &cfg);
        assert_eq!(terms.len(), 2);
        let interps = b.interpretations(c, &cfg, 2).unwrap();
        assert!(!interps.is_empty());
    }

    #[test]
    fn interpretations_sorted_and_distinct() {
        let w = wrapper();
        let c = w.catalog();
        let b = BackwardModule::new(&w, &SchemaGraphWeights::default());
        let cfg = Configuration::new(
            vec![
                DbTerm::Domain(c.attr_id("movie", "title").unwrap()),
                DbTerm::Domain(c.attr_id("person", "name").unwrap()),
            ],
            1.0,
        );
        let interps = b.interpretations(c, &cfg, 5).unwrap();
        for wpair in interps.windows(2) {
            assert!(wpair[0].score >= wpair[1].score);
        }
        for (i, a) in interps.iter().enumerate() {
            for bb in interps.iter().skip(i + 1) {
                assert_ne!(a.key(), bb.key());
            }
        }
    }

    #[test]
    fn template_memo_is_bit_identical_and_counts() {
        let w = wrapper();
        let c = w.catalog();
        let b = BackwardModule::new(&w, &SchemaGraphWeights::default());
        let cfg = Configuration::new(
            vec![
                DbTerm::Domain(c.attr_id("movie", "title").unwrap()),
                DbTerm::Domain(c.attr_id("person", "name").unwrap()),
            ],
            1.0,
        );
        let terminals = b.terminals(c, &cfg);
        let reference = b.interpretations_for_terminals(&terminals, 3).unwrap();
        let mut scratch = SteinerScratch::new();
        let cold = b
            .interpretations_for_terminals_cached(&terminals, 3, &mut scratch)
            .unwrap();
        let warm = b
            .interpretations_for_terminals_cached(&terminals, 3, &mut scratch)
            .unwrap();
        assert!(Arc::ptr_eq(&cold, &warm), "a hit shares the template");
        for got in [&cold, &warm] {
            assert_eq!(got.len(), reference.len());
            for (x, y) in reference.iter().zip(got.iter()) {
                assert_eq!(x.key(), y.key());
                assert_eq!(x.score.to_bits(), y.score.to_bits());
            }
        }
        let stats = b.template_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        // Different k is a different template; a clone starts cold.
        b.interpretations_for_terminals_cached(&terminals, 1, &mut scratch)
            .unwrap();
        assert_eq!(b.template_stats().entries, 2);
        assert_eq!(b.clone().template_stats(), TemplateCacheStats::default());
    }

    #[test]
    fn attrs_entry_point() {
        let w = wrapper();
        let c = w.catalog();
        let b = BackwardModule::new(&w, &SchemaGraphWeights::default());
        let interps = b
            .interpretations_for_attrs(
                &[
                    c.attr_id("movie", "title").unwrap(),
                    c.attr_id("person", "name").unwrap(),
                ],
                2,
            )
            .unwrap();
        assert!(!interps.is_empty());
        assert!(b.interpretations_for_attrs(&[], 2).unwrap().is_empty());
    }
}
