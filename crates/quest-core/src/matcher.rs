//! Keyword ↔ schema-term name matching.
//!
//! The forward module needs "similarity measures, domain compatibilities and
//! semantic matchings" (paper §3) wherever full-text index scores are
//! unavailable — always for table/attribute *name* states, and for every
//! state when the source is hidden. This module scores a normalized keyword
//! against a normalized identifier using, in priority order: exact match,
//! ontology synonymy, token containment, and string similarity (max of
//! trigram-Jaccard and edit similarity) with a noise threshold.
//!
//! This is the **reference scorer**: it states the rule, allocates freely,
//! and is what `emissions_for_query`, `emissions_for_query_reference` and
//! `Quest::search_query_reference` run. The hot path is
//! `CompiledMatcher::state_scores` in `forward/compiled.rs`, reached from
//! `ForwardModule::emissions_into` when a keyword misses the metadata memo;
//! it mirrors [`name_similarity`] branch for branch on names encoded once at
//! setup and is pinned to it bit for bit by `tests/matcher_properties.rs`
//! and `tests/perf_identity.rs`. Change the rule here and there together.

use relstore::index::{edit_similarity, trigram_similarity};

use crate::wrapper::ontology::MiniOntology;

/// Below this string similarity, names are considered unrelated.
pub const SIMILARITY_FLOOR: f64 = 0.55;

/// Score keyword-name similarity in [0, 1]. Both inputs must already be
/// normalized (lowercased, stemmed — see `normalize_keyword` /
/// `normalize_identifier`).
pub fn name_similarity(keyword: &str, name: &str, ontology: &MiniOntology) -> f64 {
    if keyword.is_empty() || name.is_empty() {
        return 0.0;
    }
    if keyword == name {
        return 1.0;
    }
    if ontology.are_synonyms(keyword, name) {
        return 0.9;
    }
    // Multi-token identifiers ("director id", "birth date"): a keyword that
    // equals or is synonymous with one token is a strong partial match.
    let name_tokens: Vec<&str> = name.split(' ').collect();
    if name_tokens.len() > 1 {
        let best_token = name_tokens
            .iter()
            .map(|t| {
                if *t == keyword {
                    0.85
                } else if ontology.are_synonyms(keyword, t) {
                    0.75
                } else {
                    string_similarity(keyword, t) * 0.7
                }
            })
            .fold(0.0f64, f64::max);
        let whole = string_similarity(keyword, name);
        return threshold(best_token.max(whole));
    }
    // Synonym-boosted fuzzy match: a keyword close to a synonym of the name.
    let syn_boost = ontology
        .related_terms(name)
        .iter()
        .map(|syn| string_similarity(keyword, syn) * 0.8)
        .fold(0.0f64, f64::max);
    threshold(string_similarity(keyword, name).max(syn_boost))
}

/// Max of trigram and edit similarity, with a guard for short tokens: a
/// single edit flips most of a 4-letter word ("wind" ↔ "kind" is 0.75 edit
/// similarity but means something entirely different), so short pairs with
/// different initials are capped below the similarity floor.
fn string_similarity(a: &str, b: &str) -> f64 {
    let s = trigram_similarity(a, b).max(edit_similarity(a, b));
    let short = a.chars().count().min(b.chars().count()) <= 4;
    if short && a.chars().next() != b.chars().next() {
        return s.min(SIMILARITY_FLOOR - 0.05);
    }
    s
}

pub(crate) fn threshold(s: f64) -> f64 {
    if s < SIMILARITY_FLOOR {
        0.0
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ont() -> MiniOntology {
        MiniOntology::builtin()
    }

    #[test]
    fn exact_match_is_one() {
        assert_eq!(name_similarity("title", "title", &ont()), 1.0);
    }

    #[test]
    fn synonyms_score_high() {
        let s = name_similarity("film", "movy", &ont()); // "movie" normalized
        assert!((s - 0.9).abs() < 1e-12, "s={s}");
        assert!(name_similarity("nation", "country", &ont()) > 0.85);
    }

    #[test]
    fn unrelated_names_score_zero() {
        assert_eq!(name_similarity("casablanca", "year", &ont()), 0.0);
        assert_eq!(name_similarity("", "year", &ont()), 0.0);
    }

    #[test]
    fn typos_survive_threshold() {
        let s = name_similarity("directr", "director", &ont());
        assert!(s > 0.7, "s={s}");
    }

    #[test]
    fn multi_token_identifiers_match_on_tokens() {
        // keyword "director" vs column "director id"
        let s = name_similarity("director", "director id", &ont());
        assert!((s - 0.85).abs() < 1e-12, "s={s}");
        // synonym of a token
        let s = name_similarity("filmmaker", "director id", &ont());
        assert!((s - 0.75).abs() < 1e-12, "s={s}");
    }

    #[test]
    fn near_miss_below_floor_is_zero() {
        let s = name_similarity("zzz", "title", &ont());
        assert_eq!(s, 0.0);
    }

    #[test]
    fn short_token_edit_traps_are_guarded() {
        // "wind" is one edit from "kind", which is an ontology synonym of
        // "genre" — without the short-token guard this scored 0.6 and beat
        // genuine value mappings.
        assert_eq!(name_similarity("wind", "genre", &ont()), 0.0);
        assert_eq!(name_similarity("wind", "kind", &ont()), 0.0);
        // Same-initial short fuzz still works ("year" vs "years" stems away,
        // "code" vs "core" stays plausible).
        assert!(name_similarity("code", "core", &ont()) > 0.0);
    }

    #[test]
    fn scores_bounded() {
        for (k, n) in [("movy", "movy"), ("film", "movy"), ("directr", "director")] {
            let s = name_similarity(k, n, &ont());
            assert!((0.0..=1.0).contains(&s));
        }
    }
}
