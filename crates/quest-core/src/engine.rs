//! The QUEST engine: Algorithm 1 end to end.
//!
//! ```text
//! Cap ← HMM_a_priori(q, k)  |  Cf ← HMM_feedback(q, k)
//! C   ← CombinerDST(Cap, Cf, O_Cap, O_Cf)
//! I   ← ST(q, C, k)
//! E   ← CombinerDST(C, I, O_C, O_I)
//! E   ← QueryBuilder(E)
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use relstore::sql::ResultSet;
use relstore::StoreError;

use crate::backward::{BackwardModule, Interpretation, SchemaGraphWeights};
use crate::combiner::{combine_explanation_scores, combine_ranked};
use crate::error::QuestError;
use crate::explain::Explanation;
use crate::forward::{Configuration, ForwardModule};
use crate::keyword::KeywordQuery;
use crate::query_builder::build_query;
use crate::scratch::SearchScratch;
use crate::semantics::SemanticRules;
use crate::term::DbTerm;
use crate::wrapper::SourceWrapper;

/// Engine parameters: the `k` and the four uncertainty degrees of
/// Algorithm 1, plus tuning knobs.
#[derive(Debug, Clone)]
pub struct QuestConfig {
    /// Results kept at every stage (top-k configurations, interpretations
    /// per configuration, and final explanations).
    pub k: usize,
    /// Uncertainty of the a-priori operating mode (`O_Cap`).
    pub o_cap: f64,
    /// Floor uncertainty of the feedback operating mode (`O_Cf`); see
    /// `adaptive_feedback`.
    pub o_cf: f64,
    /// Uncertainty of the (combined) forward approach (`O_C`).
    pub o_c: f64,
    /// Uncertainty of the backward approach (`O_I`).
    pub o_i: f64,
    /// When true, the effective `O_Cf` starts at 1 (vacuous) with no
    /// feedback and decays toward the configured floor as validated searches
    /// accumulate — the paper's adaptation story (§3).
    pub adaptive_feedback: bool,
    /// A-priori transition heuristics.
    pub rules: SemanticRules,
    /// Schema-graph edge weights.
    pub weights: SchemaGraphWeights,
    /// LIMIT applied to generated SQL.
    pub result_limit: Option<usize>,
    /// Drop explanations whose SQL returns no tuples (requires an endpoint
    /// probe per explanation).
    pub prune_empty: bool,
}

impl Default for QuestConfig {
    fn default() -> Self {
        QuestConfig {
            k: 5,
            o_cap: 0.3,
            o_cf: 0.2,
            o_c: 0.3,
            o_i: 0.3,
            adaptive_feedback: true,
            rules: SemanticRules::default(),
            weights: SchemaGraphWeights::default(),
            result_limit: Some(100),
            prune_empty: false,
        }
    }
}

impl QuestConfig {
    /// Validate all uncertainty degrees and k.
    pub fn validate(&self) -> Result<(), QuestError> {
        for (name, v) in [
            ("O_Cap", self.o_cap),
            ("O_Cf", self.o_cf),
            ("O_C", self.o_c),
            ("O_I", self.o_i),
        ] {
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return Err(QuestError::BadParameter(format!(
                    "{name} = {v} outside [0, 1]"
                )));
            }
        }
        if self.k == 0 {
            return Err(QuestError::BadParameter("k must be positive".into()));
        }
        if self.result_limit == Some(0) {
            return Err(QuestError::BadParameter(
                "result_limit = Some(0) silently yields empty result sets; \
                 use None for no limit"
                    .into(),
            ));
        }
        Ok(())
    }
}

/// Wall-clock cost of each pipeline stage of one search.
#[derive(Debug, Clone, Default)]
pub struct StageTimings {
    /// Emission computation (index probes / metadata matching).
    pub emissions: Duration,
    /// A-priori list Viterbi.
    pub forward_apriori: Duration,
    /// Feedback list Viterbi.
    pub forward_feedback: Duration,
    /// First DST combination (configurations).
    pub combine_configs: Duration,
    /// Steiner tree enumeration.
    pub backward: Duration,
    /// Second DST combination + query building.
    pub combine_explanations: Duration,
}

impl StageTimings {
    /// Total pipeline time.
    pub fn total(&self) -> Duration {
        self.emissions
            + self.forward_apriori
            + self.forward_feedback
            + self.combine_configs
            + self.backward
            + self.combine_explanations
    }
}

/// Output of the forward stage of Algorithm 1: the two operating modes'
/// ranked configuration lists and their DST combination, plus the timings of
/// the stages that produced them.
///
/// Produced by [`Quest::forward_pass`]; a serving layer can cache it keyed
/// on the query keywords and the engine's
/// [feedback epoch](Quest::feedback_epoch) and later replay it through
/// [`Quest::assemble`] for results identical to an uncached
/// [`Quest::search_query`].
#[derive(Debug, Clone)]
pub struct ForwardResult {
    /// A-priori configurations (partial result).
    pub apriori: Vec<Configuration>,
    /// Feedback configurations (partial result; empty before training).
    pub feedback: Vec<Configuration>,
    /// DST-combined configurations, best first, truncated to `k`.
    pub configurations: Vec<Configuration>,
    /// Effective `O_Cf` used for the combination (after adaptation).
    pub effective_o_cf: f64,
    /// Timings of the forward stages (emissions, both decodes, first
    /// combination); the backward/assembly fields are zero.
    pub timings: StageTimings,
}

/// Everything one search produced, including the per-module partial results
/// the demo compares (§4, message 2).
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The parsed query.
    pub query: KeywordQuery,
    /// A-priori configurations (partial result).
    pub apriori_configs: Vec<Configuration>,
    /// Feedback configurations (partial result; empty before training).
    pub feedback_configs: Vec<Configuration>,
    /// DST-combined configurations.
    pub configurations: Vec<Configuration>,
    /// Ranked explanations (the answer).
    pub explanations: Vec<Explanation>,
    /// Per-stage timings.
    pub timings: StageTimings,
    /// Effective `O_Cf` used (after adaptation).
    pub effective_o_cf: f64,
}

/// The QUEST search engine over one wrapped source.
#[derive(Debug, Clone)]
pub struct Quest<W: SourceWrapper> {
    wrapper: W,
    forward: ForwardModule,
    backward: BackwardModule,
    config: QuestConfig,
}

impl<W: SourceWrapper> Quest<W> {
    /// Build the engine: extracts the vocabulary, builds the a-priori HMM
    /// and the schema graph (the paper's setup phase).
    pub fn new(wrapper: W, config: QuestConfig) -> Result<Quest<W>, QuestError> {
        config.validate()?;
        let forward = ForwardModule::new(&wrapper, &config.rules)?;
        let backward = BackwardModule::new(&wrapper, &config.weights);
        Ok(Quest {
            wrapper,
            forward,
            backward,
            config,
        })
    }

    /// The wrapped source.
    pub fn wrapper(&self) -> &W {
        &self.wrapper
    }

    /// The forward module.
    pub fn forward(&self) -> &ForwardModule {
        &self.forward
    }

    /// The backward module.
    pub fn backward(&self) -> &BackwardModule {
        &self.backward
    }

    /// Engine parameters.
    pub fn config(&self) -> &QuestConfig {
        &self.config
    }

    /// Mutable engine parameters (e.g. to sweep uncertainty degrees).
    pub fn config_mut(&mut self) -> &mut QuestConfig {
        &mut self.config
    }

    /// Effective feedback uncertainty: vacuous at zero feedback, decaying
    /// toward the configured floor as validated searches accumulate.
    pub fn effective_o_cf(&self) -> f64 {
        if !self.config.adaptive_feedback {
            return self.config.o_cf;
        }
        let n = self.forward.feedback_count() as f64;
        let floor = self.config.o_cf;
        floor + (1.0 - floor) * (-n / 10.0).exp()
    }

    /// Run Algorithm 1 on a raw query string.
    pub fn search(&self, raw_query: &str) -> Result<SearchOutcome, QuestError> {
        let query = KeywordQuery::parse(raw_query)?;
        self.search_query(&query)
    }

    /// Run Algorithm 1 on a parsed query.
    ///
    /// Equivalent to [`Quest::forward_pass`], one [`Quest::backward_pass`]
    /// per combined configuration, and [`Quest::assemble`]; a serving layer
    /// that caches the stage results and replays them through `assemble`
    /// produces identical outcomes.
    ///
    /// Allocates a throwaway [`SearchScratch`]; callers issuing many
    /// searches should hold one and use [`Quest::search_query_with`].
    pub fn search_query(&self, query: &KeywordQuery) -> Result<SearchOutcome, QuestError> {
        self.search_query_with(query, &mut SearchScratch::new())
    }

    /// [`Quest::search_query`] through a caller-owned [`SearchScratch`]:
    /// the allocation-lean hot path (prepared keywords, reused emission
    /// matrix and decoder lattice, pruned decoding, per-query Steiner
    /// memo). Bit-identical to the scratch-free and reference paths
    /// (`tests/perf_identity.rs`).
    pub fn search_query_with(
        &self,
        query: &KeywordQuery,
        scratch: &mut SearchScratch,
    ) -> Result<SearchOutcome, QuestError> {
        scratch.reset_query_state();
        let forward = self.forward_pass_with(query, scratch)?;
        let t0 = Instant::now();
        let mut interpretations = Vec::with_capacity(forward.configurations.len());
        for cfg in &forward.configurations {
            interpretations.push(self.backward_pass_with(cfg, scratch)?);
        }
        let backward = t0.elapsed();
        self.assemble_with(query, forward, interpretations, backward, scratch)
    }

    /// Run Algorithm 1 through the retained **reference** implementations
    /// of every optimized stage: per-probe keyword normalization and
    /// posting-list scans for emissions, freshly allocated unpruned list
    /// Viterbi for both decodes, unmemoized unpruned Steiner enumeration,
    /// and freshly allocated assembly buffers.
    ///
    /// This is the pre-optimization pipeline, kept callable as the anchor
    /// of the bit-identity suite and the baseline of the committed
    /// pipeline benchmark (`BENCH_pipeline.json`).
    pub fn search_query_reference(
        &self,
        query: &KeywordQuery,
    ) -> Result<SearchOutcome, QuestError> {
        let forward = self.forward_pass_reference(query)?;
        let t0 = Instant::now();
        let mut interpretations = Vec::with_capacity(forward.configurations.len());
        for cfg in &forward.configurations {
            interpretations.push(self.backward_pass(cfg)?);
        }
        let backward = t0.elapsed();
        self.assemble_reference(query, forward, interpretations, backward)
    }

    /// Forward stage of Algorithm 1: emissions, both operating-mode decodes,
    /// and the first DST combination (`C ← CombinerDST(Cap, Cf, O_Cap,
    /// O_Cf)`).
    ///
    /// The result depends only on the query's normalized keywords and the
    /// current [feedback epoch](Quest::feedback_epoch), which makes it
    /// cacheable on that pair.
    pub fn forward_pass(&self, query: &KeywordQuery) -> Result<ForwardResult, QuestError> {
        self.forward_pass_with(query, &mut SearchScratch::new())
    }

    /// [`Quest::forward_pass`] through a caller-owned scratch: the emission
    /// matrix is computed **once** into the scratch's reused buffer via
    /// prepared keywords and shared by both operating-mode decodes, which
    /// run on the scratch's pruned [`quest_hmm::ListDecoder`].
    pub fn forward_pass_with(
        &self,
        query: &KeywordQuery,
        scratch: &mut SearchScratch,
    ) -> Result<ForwardResult, QuestError> {
        let k = self.config.k;
        let mut timings = StageTimings::default();

        // Emissions (computed once, shared by both operating modes).
        let t0 = Instant::now();
        self.forward.emissions_into(&self.wrapper, query, scratch);
        timings.emissions = t0.elapsed();
        let SearchScratch {
            decoder, emissions, ..
        } = scratch;

        // Forward, both modes, on the shared scratch decoder.
        let t0 = Instant::now();
        let apriori = self.forward.top_k_apriori_with(decoder, emissions, k)?;
        timings.forward_apriori = t0.elapsed();
        let t0 = Instant::now();
        let feedback = self.forward.top_k_feedback_with(decoder, emissions, k)?;
        timings.forward_feedback = t0.elapsed();

        self.combine_forward(apriori, feedback, timings)
    }

    /// [`Quest::forward_pass`] through the reference (pre-optimization)
    /// emission scoring and decoders; see
    /// [`Quest::search_query_reference`].
    pub fn forward_pass_reference(
        &self,
        query: &KeywordQuery,
    ) -> Result<ForwardResult, QuestError> {
        let k = self.config.k;
        let mut timings = StageTimings::default();

        let t0 = Instant::now();
        let emissions = self.forward.emissions_reference(&self.wrapper, query);
        timings.emissions = t0.elapsed();

        let t0 = Instant::now();
        let apriori = self.forward.top_k_apriori(&emissions, k)?;
        timings.forward_apriori = t0.elapsed();
        let t0 = Instant::now();
        let feedback = self.forward.top_k_feedback(&emissions, k)?;
        timings.forward_feedback = t0.elapsed();

        self.combine_forward(apriori, feedback, timings)
    }

    /// The first DST combination, shared by every forward-pass variant so
    /// the combination logic cannot drift between them.
    fn combine_forward(
        &self,
        apriori: Vec<Configuration>,
        feedback: Vec<Configuration>,
        mut timings: StageTimings,
    ) -> Result<ForwardResult, QuestError> {
        if apriori.is_empty() && feedback.is_empty() {
            return Err(QuestError::NoConfiguration);
        }

        // First combination: C ← CombinerDST(Cap, Cf, O_Cap, O_Cf).
        let t0 = Instant::now();
        let k = self.config.k;
        let o_cf = self.effective_o_cf();
        let l1: Vec<(Vec<DbTerm>, f64)> =
            apriori.iter().map(|c| (c.terms.clone(), c.score)).collect();
        let l2: Vec<(Vec<DbTerm>, f64)> = feedback
            .iter()
            .map(|c| (c.terms.clone(), c.score))
            .collect();
        let combined = combine_ranked(&l1, self.config.o_cap, &l2, o_cf)?;
        let configurations: Vec<Configuration> = combined
            .into_iter()
            .take(k)
            .map(|(terms, score)| Configuration::new(terms, score))
            .collect();
        timings.combine_configs = t0.elapsed();

        Ok(ForwardResult {
            apriori,
            feedback,
            configurations,
            effective_o_cf: o_cf,
            timings,
        })
    }

    /// Backward stage for one configuration: its top-k interpretations
    /// (`I ← ST(q, C, k)`), using the engine's configured `k`.
    ///
    /// Depends only on the configuration's term sequence (and the immutable
    /// schema graph), which makes it cacheable on `config.terms`.
    pub fn backward_pass(&self, config: &Configuration) -> Result<Vec<Interpretation>, QuestError> {
        self.backward
            .interpretations(self.wrapper.catalog(), config, self.config.k)
    }

    /// [`Quest::backward_pass`] through two memo layers and the pruned
    /// enumeration — the backward hot path, bit-identical to the reference:
    ///
    /// 1. the scratch's **per-query memo** (distinct configurations of one
    ///    query frequently anchor to the same Steiner terminal set);
    /// 2. the engine's **join-template memo**, keyed by schema shape
    ///    `(terminals, k)` and shared across queries and threads (rebuilt
    ///    from empty whenever [`Quest::resync`] rebuilds the backward
    ///    module);
    /// 3. on a cold miss, the scratch-reused pruned Steiner enumeration
    ///    (`quest_graph::top_k_steiner_with`).
    pub fn backward_pass_with(
        &self,
        config: &Configuration,
        scratch: &mut SearchScratch,
    ) -> Result<Vec<Interpretation>, QuestError> {
        let terminals = self.backward.terminals(self.wrapper.catalog(), config);
        if let Some(hit) = scratch.memoized_interpretations(&terminals) {
            return Ok(hit.as_ref().clone());
        }
        let interps = self.backward.interpretations_for_terminals_cached(
            &terminals,
            self.config.k,
            &mut scratch.steiner,
        )?;
        scratch.steiner_memo.push((terminals, Arc::clone(&interps)));
        Ok(interps.as_ref().clone())
    }

    /// Final stage of Algorithm 1: the second DST combination, query
    /// building, ranking, and optional empty-result pruning.
    ///
    /// `interpretations` holds one interpretation list per entry of
    /// `forward.configurations`, as produced by [`Quest::backward_pass`];
    /// `backward_time` is charged to the backward stage in the outcome's
    /// timings (pass [`Duration::ZERO`] when replaying cached results).
    ///
    /// Allocates a throwaway [`SearchScratch`]; callers issuing many
    /// searches should hold one and use [`Quest::assemble_with`].
    pub fn assemble(
        &self,
        query: &KeywordQuery,
        forward: ForwardResult,
        interpretations: Vec<Vec<Interpretation>>,
        backward_time: Duration,
    ) -> Result<SearchOutcome, QuestError> {
        self.assemble_with(
            query,
            forward,
            interpretations,
            backward_time,
            &mut SearchScratch::new(),
        )
    }

    /// [`Quest::assemble`] through a caller-owned scratch: the flattened
    /// `(configuration, interpretation)` pairs and both score lists are
    /// built in the scratch's reused buffers instead of three fresh
    /// vectors per search. Bit-identical to [`Quest::assemble_reference`]
    /// (`tests/perf_identity.rs`).
    pub fn assemble_with(
        &self,
        query: &KeywordQuery,
        forward: ForwardResult,
        interpretations: Vec<Vec<Interpretation>>,
        backward_time: Duration,
        scratch: &mut SearchScratch,
    ) -> Result<SearchOutcome, QuestError> {
        let ForwardResult {
            apriori,
            feedback,
            mut configurations,
            effective_o_cf,
            mut timings,
        } = forward;
        if interpretations.len() != configurations.len() {
            return Err(QuestError::BadParameter(format!(
                "assemble: {} interpretation lists for {} configurations",
                interpretations.len(),
                configurations.len()
            )));
        }
        timings.backward = backward_time;
        let k = self.config.k;
        let catalog = self.wrapper.catalog();
        scratch.assemble_pairs.clear();
        for (ci, interps) in interpretations.into_iter().enumerate() {
            for i in interps {
                scratch.assemble_pairs.push((ci, i));
            }
        }

        // Second combination + query building.
        let t0 = Instant::now();
        scratch.config_scores.clear();
        scratch
            .config_scores
            .extend(configurations.iter().map(|c| c.score));
        scratch.pair_scores.clear();
        scratch
            .pair_scores
            .extend(scratch.assemble_pairs.iter().map(|(ci, i)| (*ci, i.score)));
        let scores = combine_explanation_scores(
            &scratch.config_scores,
            &scratch.pair_scores,
            self.config.o_c,
            self.config.o_i,
        )?;
        let mut explanations: Vec<Explanation> = Vec::with_capacity(scratch.assemble_pairs.len());
        for ((ci, interp), score) in scratch.assemble_pairs.drain(..).zip(scores) {
            let cfg = &configurations[ci];
            let stmt = build_query(
                catalog,
                self.backward.schema_graph(),
                query,
                cfg,
                &interp,
                self.config.result_limit,
            )?;
            explanations.push(Explanation {
                configuration: cfg.clone(),
                interpretation: interp,
                statement: stmt,
                score,
            });
        }
        explanations.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        if self.config.prune_empty {
            explanations.retain(|e| self.wrapper.has_results(&e.statement).unwrap_or(true));
        }
        explanations.truncate(k);
        timings.combine_explanations = t0.elapsed();

        // Keep partial configuration lists sorted for the demo comparisons.
        configurations.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        Ok(SearchOutcome {
            query: query.clone(),
            apriori_configs: apriori,
            feedback_configs: feedback,
            configurations,
            explanations,
            timings,
            effective_o_cf,
        })
    }

    /// The retained **reference** assembly: identical logic to
    /// [`Quest::assemble_with`] built with freshly allocated buffers, kept
    /// callable as the anchor of the bit-identity suite (exactly like the
    /// decode and Steiner reference twins).
    pub fn assemble_reference(
        &self,
        query: &KeywordQuery,
        forward: ForwardResult,
        interpretations: Vec<Vec<Interpretation>>,
        backward_time: Duration,
    ) -> Result<SearchOutcome, QuestError> {
        let ForwardResult {
            apriori,
            feedback,
            mut configurations,
            effective_o_cf,
            mut timings,
        } = forward;
        if interpretations.len() != configurations.len() {
            return Err(QuestError::BadParameter(format!(
                "assemble: {} interpretation lists for {} configurations",
                interpretations.len(),
                configurations.len()
            )));
        }
        timings.backward = backward_time;
        let k = self.config.k;
        let catalog = self.wrapper.catalog();
        let pairs: Vec<(usize, Interpretation)> = interpretations
            .into_iter()
            .enumerate()
            .flat_map(|(ci, interps)| interps.into_iter().map(move |i| (ci, i)))
            .collect();

        // Second combination + query building.
        let t0 = Instant::now();
        let config_scores: Vec<f64> = configurations.iter().map(|c| c.score).collect();
        let pair_scores: Vec<(usize, f64)> = pairs.iter().map(|(ci, i)| (*ci, i.score)).collect();
        let scores = combine_explanation_scores(
            &config_scores,
            &pair_scores,
            self.config.o_c,
            self.config.o_i,
        )?;
        let mut explanations: Vec<Explanation> = Vec::with_capacity(pairs.len());
        for ((ci, interp), score) in pairs.into_iter().zip(scores) {
            let cfg = &configurations[ci];
            let stmt = build_query(
                catalog,
                self.backward.schema_graph(),
                query,
                cfg,
                &interp,
                self.config.result_limit,
            )?;
            explanations.push(Explanation {
                configuration: cfg.clone(),
                interpretation: interp,
                statement: stmt,
                score,
            });
        }
        explanations.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        if self.config.prune_empty {
            explanations.retain(|e| self.wrapper.has_results(&e.statement).unwrap_or(true));
        }
        explanations.truncate(k);
        timings.combine_explanations = t0.elapsed();

        // Keep partial configuration lists sorted for the demo comparisons.
        configurations.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        Ok(SearchOutcome {
            query: query.clone(),
            apriori_configs: apriori,
            feedback_configs: feedback,
            configurations,
            explanations,
            timings,
            effective_o_cf,
        })
    }

    /// Execute an explanation's SQL through the wrapper.
    pub fn execute(&self, explanation: &Explanation) -> Result<ResultSet, StoreError> {
        self.wrapper.execute(&explanation.statement)
    }

    /// Record user feedback on an explanation. Positive feedback validates
    /// its configuration; negative feedback discounts it. Remembers the
    /// query emissions for optional EM refinement.
    ///
    /// Takes `&self`: the feedback state lives behind interior mutability
    /// (see [`ForwardModule`]), so feedback can be recorded on an engine
    /// shared across threads (e.g. through an `Arc`).
    pub fn feedback(
        &self,
        query: &KeywordQuery,
        explanation: &Explanation,
        positive: bool,
    ) -> Result<(), QuestError> {
        let emissions = self.forward.emissions(&self.wrapper, query);
        self.forward.remember_query(emissions);
        self.forward
            .record_feedback(&explanation.configuration, positive)
    }

    /// Directly record a validated configuration (used by training oracles).
    pub fn feedback_configuration(
        &self,
        config: &Configuration,
        positive: bool,
    ) -> Result<(), QuestError> {
        self.forward.record_feedback(config, positive)
    }

    /// Run Baum-Welch refinement over remembered queries.
    pub fn refine_feedback_model(&self, max_iters: usize) -> Result<usize, QuestError> {
        self.forward.refine_with_em(max_iters)
    }

    /// Monotonic feedback version: bumped whenever feedback or EM refinement
    /// changes what a search can return. External caches key on this.
    pub fn feedback_epoch(&self) -> u64 {
        self.forward.feedback_epoch()
    }

    /// Re-run the parts of the setup phase that depend on the *instance*
    /// after the underlying source mutated.
    ///
    /// Emission probabilities always flow live from the wrapper's search
    /// function, so the forward module needs no work for data changes — but
    /// the backward module's schema graph bakes in the per-FK mutual
    /// information at build time, so it is rebuilt here (cheap: its size is
    /// schema-, not instance-bound). If the catalog itself changed (DDL,
    /// out of scope for the mutation API but possible through
    /// [`Quest::mutate_source`]), the vocabulary and a-priori HMM are
    /// rebuilt too, discarding accumulated feedback — terms learned against
    /// the old vocabulary no longer apply.
    pub fn resync(&mut self) -> Result<(), QuestError> {
        if !self.forward.check_catalog(self.wrapper.catalog()) {
            self.forward = ForwardModule::new(&self.wrapper, &self.config.rules)?;
        }
        self.backward = BackwardModule::new(&self.wrapper, &self.config.weights);
        Ok(())
    }

    /// Mutate the wrapped source through `f`, then [`Quest::resync`] so
    /// searches immediately see the new data with consistent join weights.
    /// This is the engine-level hook for one-shot mutations.
    pub fn mutate_source<R>(&mut self, f: impl FnOnce(&mut W) -> R) -> Result<R, QuestError> {
        let result = f(&mut self.wrapper);
        self.resync()?;
        Ok(result)
    }

    /// Raw mutable access to the wrapped source, for callers that want to
    /// decide *whether* to pay for a [`Quest::resync`] afterwards (e.g. a
    /// batch applier that skips the re-sync when every record was
    /// rejected). After any actual mutation, searches are inconsistent
    /// until `resync` runs — prefer [`Quest::mutate_source`] unless you
    /// are managing that explicitly.
    pub fn source_mut(&mut self) -> &mut W {
        &mut self.wrapper
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wrapper::FullAccessWrapper;
    use relstore::{Catalog, DataType, Database, Row};

    fn engine() -> Quest<FullAccessWrapper> {
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
            .col_opts("year", DataType::Int, true, false)
            .unwrap()
            .finish();
        c.add_foreign_key("movie", "director_id", "person").unwrap();
        let mut d = Database::new(c).unwrap();
        d.insert("person", Row::new(vec![1.into(), "Victor Fleming".into()]))
            .unwrap();
        d.insert("person", Row::new(vec![2.into(), "Michael Curtiz".into()]))
            .unwrap();
        d.insert(
            "movie",
            Row::new(vec![
                10.into(),
                "Gone with the Wind".into(),
                1.into(),
                1939.into(),
            ]),
        )
        .unwrap();
        d.insert(
            "movie",
            Row::new(vec![11.into(), "Casablanca".into(), 2.into(), 1942.into()]),
        )
        .unwrap();
        d.finalize();
        Quest::new(FullAccessWrapper::new(d), QuestConfig::default()).unwrap()
    }

    #[test]
    fn end_to_end_single_table() {
        let q = engine();
        let out = q.search("casablanca").unwrap();
        assert!(!out.explanations.is_empty());
        let best = &out.explanations[0];
        let rs = q.execute(best).unwrap();
        assert_eq!(rs.len(), 1);
        assert!(best.sql(q.wrapper().catalog()).contains("casablanca"));
    }

    #[test]
    fn end_to_end_join_query() {
        let q = engine();
        let out = q.search("wind fleming").unwrap();
        let best = &out.explanations[0];
        let sql = best.sql(q.wrapper().catalog());
        assert!(sql.contains("movie.director_id = person.id"), "{sql}");
        let rs = q.execute(best).unwrap();
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn partial_results_are_exposed() {
        let q = engine();
        let out = q.search("casablanca director").unwrap();
        assert!(!out.apriori_configs.is_empty());
        assert!(out.feedback_configs.is_empty()); // no training yet
        assert!(!out.configurations.is_empty());
        assert!(out.timings.total() > Duration::ZERO);
    }

    #[test]
    fn adaptive_o_cf_decays_with_feedback() {
        let mut q = engine();
        assert!(
            (q.effective_o_cf() - 1.0).abs() < 1e-9,
            "vacuous before feedback"
        );
        let query = KeywordQuery::parse("casablanca").unwrap();
        let out = q.search_query(&query).unwrap();
        let best = out.explanations[0].clone();
        for _ in 0..20 {
            q.feedback(&query, &best, true).unwrap();
        }
        let o = q.effective_o_cf();
        assert!(o < 0.4, "o_cf should approach the floor, got {o}");
        // With adaptation off, the raw floor applies.
        q.config_mut().adaptive_feedback = false;
        assert_eq!(q.effective_o_cf(), 0.2);
    }

    #[test]
    fn feedback_changes_final_ranking() {
        let q = engine();
        let query = KeywordQuery::parse("fleming 1939").unwrap();
        let before = q.search_query(&query).unwrap();
        // Validate the best explanation repeatedly; the combined list must
        // eventually contain its configuration at rank 1 by feedback alone.
        let target = before.explanations[0].configuration.clone();
        for _ in 0..10 {
            q.feedback_configuration(&target, true).unwrap();
        }
        let after = q.search_query(&query).unwrap();
        assert!(!after.feedback_configs.is_empty());
        assert_eq!(after.feedback_configs[0].terms, target.terms);
    }

    #[test]
    fn prune_empty_filters_resultless_sql() {
        let mut q = engine();
        q.config_mut().prune_empty = true;
        let out = q.search("casablanca fleming").unwrap();
        // Casablanca was directed by Curtiz, not Fleming: the join
        // explanation is empty and must be pruned; whatever remains returns
        // rows or nothing survives.
        for e in &out.explanations {
            assert!(q.wrapper().has_results(&e.statement).unwrap_or(false));
        }
        use crate::wrapper::SourceWrapper;
    }

    #[test]
    fn config_validation() {
        let bad = QuestConfig {
            o_cap: 1.5,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = QuestConfig {
            k: 0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        assert!(QuestConfig::default().validate().is_ok());
    }

    #[test]
    fn zero_result_limit_rejected() {
        // `LIMIT 0` would make every explanation return an empty result set
        // with no error anywhere downstream — reject it at validation.
        let bad = QuestConfig {
            result_limit: Some(0),
            ..Default::default()
        };
        let err = bad.validate().unwrap_err();
        assert!(matches!(&err, QuestError::BadParameter(m) if m.contains("result_limit")));
        // Quest::new runs validation, so construction fails too.
        let db = {
            let mut c = relstore::Catalog::new();
            c.define_table("t")
                .unwrap()
                .pk("id", DataType::Int)
                .unwrap()
                .finish();
            Database::new(c).unwrap()
        };
        assert!(Quest::new(
            FullAccessWrapper::new(db),
            QuestConfig {
                result_limit: Some(0),
                ..Default::default()
            }
        )
        .is_err());
        // `None` (no LIMIT) and positive limits remain valid.
        assert!(QuestConfig {
            result_limit: None,
            ..Default::default()
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn stage_api_matches_search_query() {
        // forward_pass + backward_pass + assemble is exactly search_query.
        let q = engine();
        let query = KeywordQuery::parse("wind fleming").unwrap();
        let whole = q.search_query(&query).unwrap();
        let fwd = q.forward_pass(&query).unwrap();
        let interps: Vec<_> = fwd
            .configurations
            .iter()
            .map(|c| q.backward_pass(c).unwrap())
            .collect();
        let staged = q.assemble(&query, fwd, interps, Duration::ZERO).unwrap();
        assert_eq!(staged.explanations.len(), whole.explanations.len());
        for (a, b) in staged.explanations.iter().zip(&whole.explanations) {
            assert_eq!(a.score, b.score);
            assert_eq!(a.configuration.terms, b.configuration.terms);
            assert_eq!(a.statement, b.statement);
        }
        let terms = |cs: &[Configuration]| cs.iter().map(|c| c.terms.clone()).collect::<Vec<_>>();
        assert_eq!(terms(&staged.configurations), terms(&whole.configurations));
    }

    #[test]
    fn scratch_and_reference_paths_match_bitwise() {
        let q = engine();
        let mut scratch = SearchScratch::new();
        for raw in ["casablanca", "wind fleming", "casablanca director 1942"] {
            let query = KeywordQuery::parse(raw).unwrap();
            let fast = q.search_query_with(&query, &mut scratch).unwrap();
            let plain = q.search_query(&query).unwrap();
            let reference = q.search_query_reference(&query).unwrap();
            for other in [&plain, &reference] {
                assert_eq!(fast.explanations.len(), other.explanations.len(), "{raw}");
                for (a, b) in fast.explanations.iter().zip(&other.explanations) {
                    assert_eq!(a.score.to_bits(), b.score.to_bits(), "{raw}");
                    assert_eq!(a.statement, b.statement, "{raw}");
                    assert_eq!(a.configuration.terms, b.configuration.terms);
                }
                assert_eq!(fast.configurations.len(), other.configurations.len());
            }
        }
    }

    #[test]
    fn assemble_rejects_mismatched_interpretations() {
        let q = engine();
        let query = KeywordQuery::parse("casablanca").unwrap();
        let fwd = q.forward_pass(&query).unwrap();
        assert!(q.assemble(&query, fwd, Vec::new(), Duration::ZERO).is_err());
    }

    #[test]
    fn feedback_epoch_advances() {
        let q = engine();
        assert_eq!(q.feedback_epoch(), 0);
        let query = KeywordQuery::parse("casablanca").unwrap();
        let out = q.search_query(&query).unwrap();
        let best = out.explanations[0].clone();
        q.feedback(&query, &best, true).unwrap();
        assert_eq!(q.feedback_epoch(), 1);
        q.feedback(&query, &best, false).unwrap();
        assert_eq!(q.feedback_epoch(), 2);
        // EM refinement also changes the model, so it bumps the epoch.
        q.refine_feedback_model(3).unwrap();
        assert_eq!(q.feedback_epoch(), 3);
    }

    #[test]
    fn shared_engine_accepts_concurrent_feedback() {
        // The point of the interior-mutability split: searches and feedback
        // interleave freely on an Arc-shared engine.
        let q = std::sync::Arc::new(engine());
        let query = KeywordQuery::parse("casablanca").unwrap();
        let best = q.search_query(&query).unwrap().explanations[0].clone();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let q = std::sync::Arc::clone(&q);
                let query = query.clone();
                let best = best.clone();
                std::thread::spawn(move || {
                    for _ in 0..5 {
                        if i % 2 == 0 {
                            q.feedback(&query, &best, true).unwrap();
                        } else {
                            q.search_query(&query).unwrap();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(q.forward().feedback_count(), 10);
        assert_eq!(q.feedback_epoch(), 10);
    }

    #[test]
    fn mutate_source_keeps_searches_fresh() {
        let mut q = engine();
        let title = q.wrapper().catalog().attr_id("movie", "title").unwrap();
        assert_eq!(
            q.wrapper().database().search_score(title, "oz"),
            0.0,
            "no match before the mutation"
        );
        q.mutate_source(|w| {
            w.database_mut()
                .insert(
                    "movie",
                    Row::new(vec![
                        12.into(),
                        "The Wizard of Oz".into(),
                        1.into(),
                        1939.into(),
                    ]),
                )
                .unwrap();
        })
        .unwrap();
        let out = q.search("oz fleming").unwrap();
        let best = &out.explanations[0];
        assert_eq!(q.execute(best).unwrap().len(), 1);
        // Searches and mutations compose: a mutated engine equals a fresh
        // engine built over the same data, bit for bit.
        let fresh = Quest::new(
            FullAccessWrapper::new(q.wrapper().database().clone()),
            QuestConfig::default(),
        )
        .unwrap();
        let a = q.search("oz fleming").unwrap();
        let b = fresh.search("oz fleming").unwrap();
        assert_eq!(a.explanations.len(), b.explanations.len());
        for (x, y) in a.explanations.iter().zip(&b.explanations) {
            assert_eq!(x.score.to_bits(), y.score.to_bits());
            assert_eq!(x.statement, y.statement);
        }
        // Feedback state survives a data-only resync.
        let best = a.explanations[0].clone();
        let query = KeywordQuery::parse("oz fleming").unwrap();
        q.feedback(&query, &best, true).unwrap();
        let epoch = q.feedback_epoch();
        q.mutate_source(|w| {
            w.database_mut()
                .delete("movie", &[relstore::Value::Int(11)])
                .unwrap();
        })
        .unwrap();
        assert_eq!(q.feedback_epoch(), epoch, "data resync keeps feedback");
        assert_eq!(q.forward().feedback_count(), 1);
    }

    #[test]
    fn empty_query_rejected() {
        let q = engine();
        assert!(matches!(q.search("   "), Err(QuestError::EmptyQuery)));
    }
}
