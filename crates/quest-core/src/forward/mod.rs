//! The forward module: keyword query → top-k configurations.
//!
//! Runs the list Viterbi algorithm over an HMM whose states are database
//! terms, in two operating modes (paper §3):
//!
//! * **a-priori** — transitions from heuristic semantic rules over the
//!   schema, no training required;
//! * **feedback-based** — transitions learned from user-validated searches,
//!   combining count-based supervised updates (list Viterbi training) with
//!   optional Baum-Welch EM refinement over past query emissions.

mod compiled;
pub mod configuration;
pub mod emission;

use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use quest_hmm::{list_viterbi, train, DecodedPath, Emissions, Hmm, ListDecoder, SupervisedTrainer};
use relstore::Catalog;

use crate::error::QuestError;
use crate::keyword::KeywordQuery;
use crate::scratch::SearchScratch;
use crate::semantics::{apriori_weights, SemanticRules};
use crate::term::{DbTerm, Vocabulary};
use crate::wrapper::SourceWrapper;

use compiled::CompiledMatcher;
pub(crate) use compiled::MatchScratch;

pub use configuration::{dedup_configurations, Configuration};
pub use emission::{
    emission_row, emissions_for_query, emissions_for_query_reference, EMISSION_FLOOR,
};

/// Smoothing used by the feedback trainer.
const FEEDBACK_SMOOTHING: f64 = 0.05;

/// Distinct keywords whose metadata-similarity rows are memoized before the
/// memo is reset (keeps a pathological keyword stream from growing it
/// without bound).
const META_MEMO_CAP: usize = 1024;

/// The mutable half of the forward module: everything user feedback touches.
///
/// Kept behind a [`RwLock`] so one [`ForwardModule`] (and hence one engine)
/// can serve many threads concurrently — searches take the read lock, while
/// feedback recording and EM refinement take the write lock.
#[derive(Debug, Clone)]
struct FeedbackState {
    trainer: SupervisedTrainer,
    hmm: Option<Hmm>,
    count: usize,
    /// Monotonic version, bumped on every change that can alter decoding
    /// results. External caches key on this to stay transparent.
    epoch: u64,
    /// Emission histories retained for EM refinement.
    history: Vec<Emissions>,
}

/// The forward module.
///
/// The vocabulary and a-priori HMM are immutable after setup; the
/// feedback-trained model lives in an interior-mutability cell
/// (`RwLock<FeedbackState>`) so feedback can be recorded through a shared
/// reference.
#[derive(Debug)]
pub struct ForwardModule {
    vocab: Vocabulary,
    apriori: Hmm,
    feedback: RwLock<FeedbackState>,
    /// The name side of metadata matching (state names, their tokens,
    /// annotation aliases, ontology synonyms), compiled at setup. The
    /// wrapper's ontology and annotations are construction-time inputs
    /// everywhere in this crate (there is no post-construction mutation
    /// path), so the capture cannot drift from live reads.
    matcher: CompiledMatcher,
    /// Keyword → metadata-state emission scores. Metadata similarity is a
    /// pure function of `(normalized keyword, state name/aliases,
    /// ontology)` — all fixed at setup — so the memo is semantically
    /// transparent. A miss runs the compiled matcher (a few µs per
    /// keyword); the memo turns that into one lookup because real query
    /// streams repeat keywords heavily.
    meta_memo: RwLock<HashMap<String, Arc<Vec<f64>>>>,
}

impl Clone for ForwardModule {
    fn clone(&self) -> ForwardModule {
        ForwardModule {
            vocab: self.vocab.clone(),
            apriori: self.apriori.clone(),
            feedback: RwLock::new(self.state().clone()),
            matcher: self.matcher.clone(),
            meta_memo: RwLock::new(
                self.meta_memo
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone(),
            ),
        }
    }
}

impl ForwardModule {
    /// Build the module from a catalog using the given semantic rules and
    /// the wrapper's ontology for generalization matching.
    pub fn new<W: SourceWrapper + ?Sized>(
        wrapper: &W,
        rules: &SemanticRules,
    ) -> Result<ForwardModule, QuestError> {
        let catalog = wrapper.catalog();
        let vocab = Vocabulary::from_catalog(catalog);
        if vocab.is_empty() {
            return Err(QuestError::BadParameter("empty catalog".into()));
        }
        let (init, trans) = apriori_weights(catalog, wrapper.ontology(), &vocab, rules);
        let apriori = Hmm::from_weights(init, trans)?;
        let trainer = SupervisedTrainer::new(vocab.len(), FEEDBACK_SMOOTHING)?;
        let matcher = CompiledMatcher::compile(&vocab, wrapper.annotations(), wrapper.ontology());
        Ok(ForwardModule {
            vocab,
            apriori,
            feedback: RwLock::new(FeedbackState {
                trainer,
                hmm: None,
                count: 0,
                epoch: 0,
                history: Vec::new(),
            }),
            matcher,
            meta_memo: RwLock::new(HashMap::new()),
        })
    }

    /// Read access to the feedback state; a poisoned lock (a panic in
    /// another thread mid-update) degrades to the last written state.
    fn state(&self) -> RwLockReadGuard<'_, FeedbackState> {
        self.feedback.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn state_mut(&self) -> RwLockWriteGuard<'_, FeedbackState> {
        self.feedback
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The HMM state vocabulary.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The a-priori model.
    pub fn apriori_hmm(&self) -> &Hmm {
        &self.apriori
    }

    /// A snapshot of the feedback model, once any feedback has been
    /// recorded. Returns a clone: the live model may be retrained
    /// concurrently.
    pub fn feedback_hmm(&self) -> Option<Hmm> {
        self.state().hmm.clone()
    }

    /// Number of feedback observations recorded.
    pub fn feedback_count(&self) -> usize {
        self.state().count
    }

    /// Monotonic feedback version: bumped whenever recorded feedback or EM
    /// refinement changes what [`ForwardModule::top_k_feedback`] can return.
    /// Caches layered over the engine key on this to stay transparent.
    pub fn feedback_epoch(&self) -> u64 {
        self.state().epoch
    }

    /// Emission matrix for a query through the wrapper.
    pub fn emissions<W: SourceWrapper + ?Sized>(
        &self,
        wrapper: &W,
        query: &KeywordQuery,
    ) -> Emissions {
        emissions_for_query(wrapper, &self.vocab, query)
    }

    /// Emission matrix into the scratch's reusable buffers
    /// (`scratch.emissions`) — the hot-path form of
    /// [`ForwardModule::emissions`], bit-identical to it. Keywords are
    /// prepared once per query (index probes become one hash lookup per
    /// attribute); a keyword's metadata-similarity row comes from the
    /// per-engine memo, or on first sight from the compiled matcher, which
    /// scores it against each distinct name string once with no allocation
    /// per pair; and the matrix rows are written in place.
    pub fn emissions_into<W: SourceWrapper + ?Sized>(
        &self,
        wrapper: &W,
        query: &KeywordQuery,
        scratch: &mut SearchScratch,
    ) {
        let SearchScratch {
            prepared,
            emissions,
            matcher,
            ..
        } = scratch;
        prepared.clear();
        prepared.extend(query.keywords.iter().map(|kw| wrapper.prepare_keyword(kw)));
        emissions.resize_with(query.keywords.len(), Vec::new);
        for (pk, row) in prepared.iter().zip(emissions.iter_mut()) {
            let meta_scores = self.metadata_scores(&pk.keyword().normalized, matcher);
            row.clear();
            row.reserve(self.vocab.len());
            for s in 0..self.vocab.len() {
                let score = match self.vocab.term(s) {
                    DbTerm::Domain(a) => wrapper.value_score_prepared(a, pk).clamp(0.0, 1.0),
                    _ => meta_scores[s],
                };
                row.push(score);
            }
            emission::apply_emission_floor(row);
        }
    }

    /// Metadata-state emission scores of one normalized keyword, memoized.
    /// Domain-state slots hold 0 and are overwritten by the caller's value
    /// probes. A miss is scored by the compiled matcher, the bit-identical
    /// twin of the reference path's `metadata_state_score` (pinned by
    /// `tests/matcher_properties.rs` and `tests/perf_identity.rs`), so the
    /// memo is transparent.
    fn metadata_scores(&self, keyword: &str, scratch: &mut MatchScratch) -> Arc<Vec<f64>> {
        if let Some(hit) = self
            .meta_memo
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(keyword)
        {
            return Arc::clone(hit);
        }
        let scores = Arc::new(self.matcher.state_scores(keyword, scratch));
        let mut memo = self
            .meta_memo
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if memo.len() >= META_MEMO_CAP {
            memo.clear();
        }
        memo.insert(keyword.to_string(), Arc::clone(&scores));
        scores
    }

    /// Emission matrix through the wrapper's reference (pre-optimization)
    /// scoring path — baseline for the bit-identity suite and benchmark.
    pub fn emissions_reference<W: SourceWrapper + ?Sized>(
        &self,
        wrapper: &W,
        query: &KeywordQuery,
    ) -> Emissions {
        emissions_for_query_reference(wrapper, &self.vocab, query)
    }

    /// Top-k configurations in the a-priori mode (reference decoder).
    pub fn top_k_apriori(
        &self,
        emissions: &Emissions,
        k: usize,
    ) -> Result<Vec<Configuration>, QuestError> {
        self.decode(&self.apriori, emissions, k)
    }

    /// Top-k configurations in the feedback mode. Empty before any feedback.
    /// (Reference decoder.)
    pub fn top_k_feedback(
        &self,
        emissions: &Emissions,
        k: usize,
    ) -> Result<Vec<Configuration>, QuestError> {
        match &self.state().hmm {
            Some(hmm) => self.decode(hmm, emissions, k),
            None => Ok(Vec::new()),
        }
    }

    /// [`ForwardModule::top_k_apriori`] through a reusable pruned decoder —
    /// bit-identical output, no per-call lattice allocation.
    pub fn top_k_apriori_with(
        &self,
        decoder: &mut ListDecoder,
        emissions: &Emissions,
        k: usize,
    ) -> Result<Vec<Configuration>, QuestError> {
        let paths = decoder.decode(&self.apriori, emissions, k)?;
        Ok(self.configurations_from(paths))
    }

    /// [`ForwardModule::top_k_feedback`] through a reusable pruned decoder.
    pub fn top_k_feedback_with(
        &self,
        decoder: &mut ListDecoder,
        emissions: &Emissions,
        k: usize,
    ) -> Result<Vec<Configuration>, QuestError> {
        let paths = match &self.state().hmm {
            Some(hmm) => decoder.decode(hmm, emissions, k)?,
            None => return Ok(Vec::new()),
        };
        Ok(self.configurations_from(paths))
    }

    fn decode(
        &self,
        hmm: &Hmm,
        emissions: &Emissions,
        k: usize,
    ) -> Result<Vec<Configuration>, QuestError> {
        let paths = list_viterbi(hmm, emissions, k)?;
        Ok(self.configurations_from(paths))
    }

    /// Decoded paths → deduplicated configurations (shared by the reference
    /// and scratch decode paths, so their mapping cannot drift).
    fn configurations_from(&self, paths: Vec<DecodedPath>) -> Vec<Configuration> {
        let configs = paths
            .into_iter()
            .map(|p| {
                let terms = p.states.iter().map(|&s| self.vocab.term(s)).collect();
                Configuration::new(terms, p.log_prob.exp())
            })
            .collect();
        dedup_configurations(configs)
    }

    /// Record user feedback on a configuration: `positive` marks a validated
    /// explanation, negative feedback discounts the transitions (paper §3:
    /// the parameter "should be decreased when 'negative' feedbacks are
    /// obtained").
    pub fn record_feedback(
        &self,
        config: &Configuration,
        positive: bool,
    ) -> Result<(), QuestError> {
        let states: Vec<usize> = config
            .terms
            .iter()
            .map(|t| {
                self.vocab
                    .state(*t)
                    .ok_or_else(|| QuestError::BadParameter("term outside vocabulary".into()))
            })
            .collect::<Result<_, _>>()?;
        let mut state = self.state_mut();
        if positive {
            state.trainer.observe(&states)?;
        } else {
            state.trainer.observe_negative(&states, 0.5)?;
        }
        state.count += 1;
        state.hmm = Some(state.trainer.build()?);
        state.epoch += 1;
        Ok(())
    }

    /// Retain a query's emission matrix for later EM refinement.
    pub fn remember_query(&self, emissions: Emissions) {
        self.state_mut().history.push(emissions);
    }

    /// Refine the feedback model with Baum-Welch EM over the remembered
    /// query emissions ("an Expectation-Maximization on-line training
    /// algorithm to a dataset composed of previous searches", paper §3).
    /// No-op when no feedback model exists yet or no history was kept.
    pub fn refine_with_em(&self, max_iters: usize) -> Result<usize, QuestError> {
        let mut state = self.state_mut();
        if state.history.is_empty() {
            return Ok(0);
        }
        let FeedbackState { hmm, history, .. } = &mut *state;
        let Some(hmm) = hmm.as_mut() else {
            return Ok(0);
        };
        let report = train(hmm, history, max_iters, 1e-6)?;
        state.epoch += 1;
        Ok(report.iterations)
    }

    /// Catalog consistency check helper for tests and debug assertions.
    pub fn check_catalog(&self, catalog: &Catalog) -> bool {
        self.vocab.len() == catalog.table_count() + 2 * catalog.attribute_count()
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
        c.add_foreign_key("movie", "director_id", "person").unwrap();
        let mut d = Database::new(c).unwrap();
        d.insert("person", Row::new(vec![1.into(), "Victor Fleming".into()]))
            .unwrap();
        d.insert("person", Row::new(vec![2.into(), "Michael Curtiz".into()]))
            .unwrap();
        d.insert(
            "movie",
            Row::new(vec![10.into(), "Gone with the Wind".into(), 1.into()]),
        )
        .unwrap();
        d.insert(
            "movie",
            Row::new(vec![11.into(), "Casablanca".into(), 2.into()]),
        )
        .unwrap();
        d.finalize();
        FullAccessWrapper::new(d)
    }

    #[test]
    fn apriori_maps_value_and_schema_keywords() {
        let w = wrapper();
        let fwd = ForwardModule::new(&w, &SemanticRules::default()).unwrap();
        assert!(fwd.check_catalog(w.catalog()));
        let q = KeywordQuery::parse("casablanca director").unwrap();
        let e = fwd.emissions(&w, &q);
        let top = fwd.top_k_apriori(&e, 5).unwrap();
        assert!(!top.is_empty());
        let title = w.catalog().attr_id("movie", "title").unwrap();
        // Best configuration: casablanca -> movie.title::value.
        assert_eq!(top[0].terms[0], DbTerm::Domain(title));
        // Scores are descending.
        for pair in top.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }

    #[test]
    fn feedback_mode_empty_before_training() {
        let w = wrapper();
        let fwd = ForwardModule::new(&w, &SemanticRules::default()).unwrap();
        let q = KeywordQuery::parse("casablanca").unwrap();
        let e = fwd.emissions(&w, &q);
        assert!(fwd.top_k_feedback(&e, 3).unwrap().is_empty());
        assert_eq!(fwd.feedback_count(), 0);
    }

    #[test]
    fn feedback_shifts_ranking() {
        let w = wrapper();
        let fwd = ForwardModule::new(&w, &SemanticRules::default()).unwrap();
        let q = KeywordQuery::parse("fleming wind").unwrap();
        let e = fwd.emissions(&w, &q);
        let name = w.catalog().attr_id("person", "name").unwrap();
        let title = w.catalog().attr_id("movie", "title").unwrap();
        let validated = Configuration::new(vec![DbTerm::Domain(name), DbTerm::Domain(title)], 1.0);
        for _ in 0..5 {
            fwd.record_feedback(&validated, true).unwrap();
        }
        assert_eq!(fwd.feedback_count(), 5);
        let top = fwd.top_k_feedback(&e, 3).unwrap();
        assert!(!top.is_empty());
        assert_eq!(top[0].terms, validated.terms);
    }

    #[test]
    fn negative_feedback_demotes() {
        let w = wrapper();
        let fwd = ForwardModule::new(&w, &SemanticRules::default()).unwrap();
        let name = w.catalog().attr_id("person", "name").unwrap();
        let title = w.catalog().attr_id("movie", "title").unwrap();
        let good = Configuration::new(vec![DbTerm::Domain(name), DbTerm::Domain(title)], 1.0);
        let bad = Configuration::new(vec![DbTerm::Attribute(name), DbTerm::Domain(title)], 1.0);
        fwd.record_feedback(&good, true).unwrap();
        fwd.record_feedback(&bad, true).unwrap();
        // Retract the bad one.
        fwd.record_feedback(&bad, false).unwrap();
        let q = KeywordQuery::parse("fleming wind").unwrap();
        let e = fwd.emissions(&w, &q);
        let top = fwd.top_k_feedback(&e, 2).unwrap();
        assert_eq!(top[0].terms, good.terms);
    }

    #[test]
    fn em_refinement_runs() {
        let w = wrapper();
        let fwd = ForwardModule::new(&w, &SemanticRules::default()).unwrap();
        let q = KeywordQuery::parse("casablanca director").unwrap();
        let e = fwd.emissions(&w, &q);
        fwd.remember_query(e.clone());
        // No feedback model yet: refinement is a no-op.
        assert_eq!(fwd.refine_with_em(5).unwrap(), 0);
        let title = w.catalog().attr_id("movie", "title").unwrap();
        let cfg = Configuration::new(vec![DbTerm::Domain(title), DbTerm::Attribute(title)], 1.0);
        fwd.record_feedback(&cfg, true).unwrap();
        let iters = fwd.refine_with_em(5).unwrap();
        assert!(iters > 0);
        // Model remains a valid distribution after EM.
        let hmm = fwd.feedback_hmm().unwrap();
        assert!((hmm.initial_dist().iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_empty_catalog() {
        let c = Catalog::new();
        let d = Database::new(c).unwrap();
        let w = FullAccessWrapper::new(d);
        assert!(ForwardModule::new(&w, &SemanticRules::default()).is_err());
    }
}
