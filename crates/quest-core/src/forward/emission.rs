//! Emission likelihoods: how well a keyword fits each HMM state.
//!
//! "The emission probability distribution describes the likelihood for a
//! keyword to be 'generated' by a specific state" (paper §3). For *domain*
//! states the likelihood is the wrapper's search function (full-text score,
//! or the annotation/ontology surrogate on hidden sources); for *table* and
//! *attribute* states it is name similarity between the keyword and the
//! element's identifier (optionally extended with annotation aliases).

use quest_hmm::Emissions;

use crate::keyword::{Keyword, KeywordQuery};
use crate::matcher::name_similarity;
use crate::term::{normalize_identifier, DbTerm, Vocabulary};
use crate::wrapper::SourceWrapper;

/// Uniform floor applied when a keyword matches no state at all, keeping the
/// observation sequence decodable (the keyword then contributes no
/// discrimination but does not veto the query).
pub const EMISSION_FLOOR: f64 = 1e-6;

/// How one keyword's domain-state emissions are scored: the two paths are
/// bit-identical on the same wrapper (pinned by tests) but the reference
/// one deliberately keeps the pre-optimization cost profile. (The hot path
/// lives in `ForwardModule::emissions_into`.)
enum ValueScorer {
    /// Plain `value_score`: normalization per `(keyword, attribute)` probe.
    Plain,
    /// The wrapper's retained pre-optimization path (benchmark baseline).
    Reference,
}

/// Compute the dense emission matrix for a query over the vocabulary states.
pub fn emissions_for_query<W: SourceWrapper + ?Sized>(
    wrapper: &W,
    vocab: &Vocabulary,
    query: &KeywordQuery,
) -> Emissions {
    query
        .keywords
        .iter()
        .map(|kw| emission_row(wrapper, vocab, kw))
        .collect()
}

/// [`emissions_for_query`] through the wrapper's *reference* value-scoring
/// path — the pre-optimization baseline kept for the bit-identity suite and
/// the committed pipeline benchmark.
pub fn emissions_for_query_reference<W: SourceWrapper + ?Sized>(
    wrapper: &W,
    vocab: &Vocabulary,
    query: &KeywordQuery,
) -> Emissions {
    query
        .keywords
        .iter()
        .map(|kw| {
            let mut row = Vec::new();
            fill_emission_row(wrapper, vocab, kw, ValueScorer::Reference, &mut row);
            row
        })
        .collect()
}

/// Emission likelihoods of one keyword across all states.
pub fn emission_row<W: SourceWrapper + ?Sized>(
    wrapper: &W,
    vocab: &Vocabulary,
    keyword: &Keyword,
) -> Vec<f64> {
    let mut row = Vec::new();
    fill_emission_row(wrapper, vocab, keyword, ValueScorer::Plain, &mut row);
    row
}

/// The one emission-row implementation all public entry points share, so
/// the prepared, plain, and reference paths cannot drift: only the
/// domain-state value probe differs.
fn fill_emission_row<W: SourceWrapper + ?Sized>(
    wrapper: &W,
    vocab: &Vocabulary,
    keyword: &Keyword,
    scorer: ValueScorer,
    row: &mut Vec<f64>,
) {
    let ontology = wrapper.ontology();
    row.clear();
    row.reserve(vocab.len());
    for s in 0..vocab.len() {
        let score = match vocab.term(s) {
            DbTerm::Domain(a) => match scorer {
                ValueScorer::Plain => wrapper.value_score(a, keyword),
                ValueScorer::Reference => wrapper.value_score_reference(a, keyword),
            }
            .clamp(0.0, 1.0),
            DbTerm::Table(_) | DbTerm::Attribute(_) => {
                // Normalize any annotation aliases on the fly; the hot path
                // compiles them once at setup.
                let aliases: Vec<String> = match (vocab.term(s), wrapper.annotations()) {
                    (DbTerm::Attribute(a), Some(anns)) => anns
                        .get(a)
                        .map(|ann| {
                            ann.aliases
                                .iter()
                                .map(|al| normalize_identifier(al))
                                .collect()
                        })
                        .unwrap_or_default(),
                    _ => Vec::new(),
                };
                metadata_state_score(&keyword.normalized, vocab.name(s), &aliases, ontology)
            }
        };
        row.push(score);
    }
    apply_emission_floor(row);
}

/// Emission score of one keyword against one *metadata* (table/attribute)
/// state: name similarity, lifted by annotation-alias matches at a 0.95
/// discount, clamped to [0, 1]. The reference form of the rule: the plain
/// and reference row builders here call it, and the hot path's
/// `CompiledMatcher` (`forward/compiled.rs`) is its bit-identical twin on
/// names encoded at setup.
pub(crate) fn metadata_state_score(
    keyword: &str,
    name: &str,
    normalized_aliases: &[String],
    ontology: &crate::wrapper::ontology::MiniOntology,
) -> f64 {
    let mut best = name_similarity(keyword, name, ontology);
    for alias in normalized_aliases {
        best = best.max(name_similarity(keyword, alias, ontology) * 0.95);
    }
    best.clamp(0.0, 1.0)
}

/// Replace an all-zero emission row with the uniform [`EMISSION_FLOOR`].
/// Shared by every row builder (see `ForwardModule::emissions_into`).
pub(crate) fn apply_emission_floor(row: &mut [f64]) {
    if row.iter().all(|&v| v <= 0.0) {
        row.iter_mut().for_each(|v| *v = EMISSION_FLOOR);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wrapper::FullAccessWrapper;
    use relstore::{Catalog, DataType, Database, Row};

    fn wrapper() -> (FullAccessWrapper, Vocabulary) {
        let mut c = Catalog::new();
        c.define_table("movie")
            .unwrap()
            .pk("id", DataType::Int)
            .unwrap()
            .col("title", DataType::Text)
            .unwrap()
            .finish();
        let mut d = Database::new(c).unwrap();
        d.insert("movie", Row::new(vec![1.into(), "Casablanca".into()]))
            .unwrap();
        d.finalize();
        let v = Vocabulary::from_catalog(d.catalog());
        (FullAccessWrapper::new(d), v)
    }

    #[test]
    fn value_keyword_hits_domain_state() {
        let (w, v) = wrapper();
        let q = KeywordQuery::parse("casablanca").unwrap();
        let e = emissions_for_query(&w, &v, &q);
        assert_eq!(e.len(), 1);
        let title = w.catalog().attr_id("movie", "title").unwrap();
        let dom = v.state(DbTerm::Domain(title)).unwrap();
        let tab = v
            .state(DbTerm::Table(w.catalog().table_id("movie").unwrap()))
            .unwrap();
        assert!(e[0][dom] > 0.0);
        assert_eq!(e[0][tab], 0.0); // "casablanca" is not similar to "movie"
    }

    #[test]
    fn schema_keyword_hits_metadata_states() {
        let (w, v) = wrapper();
        let q = KeywordQuery::parse("film title").unwrap();
        let e = emissions_for_query(&w, &v, &q);
        let tab = v
            .state(DbTerm::Table(w.catalog().table_id("movie").unwrap()))
            .unwrap();
        let title = w.catalog().attr_id("movie", "title").unwrap();
        let attr = v.state(DbTerm::Attribute(title)).unwrap();
        assert!(e[0][tab] > 0.8, "film ~ movie via ontology");
        assert!(e[1][attr] > 0.9, "title == title");
    }

    #[test]
    fn unknown_keyword_gets_floor() {
        let (w, v) = wrapper();
        let q = KeywordQuery::parse("qqqqzzzz").unwrap();
        let e = emissions_for_query(&w, &v, &q);
        assert!(e[0].iter().all(|&x| x == EMISSION_FLOOR));
    }

    #[test]
    fn reference_rows_match_plain_bitwise() {
        let (w, v) = wrapper();
        let q = KeywordQuery::parse("casablanca film title qqqzzz").unwrap();
        let plain = emissions_for_query(&w, &v, &q);
        let reference = emissions_for_query_reference(&w, &v, &q);
        assert_eq!(plain.len(), reference.len());
        for t in 0..plain.len() {
            for s in 0..plain[t].len() {
                assert_eq!(
                    plain[t][s].to_bits(),
                    reference[t][s].to_bits(),
                    "t={t} s={s}"
                );
            }
        }
    }

    #[test]
    fn rows_are_bounded() {
        let (w, v) = wrapper();
        let q = KeywordQuery::parse("casablanca film title").unwrap();
        for row in emissions_for_query(&w, &v, &q) {
            assert!(row.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }
}
