//! A small embedded ontology: synonym and hypernym lookup.
//!
//! Stand-in for the "external ontologies" the wrapper consults (paper §1).
//! The engine only needs `related_terms(word)`; this implementation ships
//! curated synonym rings for the three demo domains (movies, bibliography,
//! geography) and supports user extension.

use std::collections::HashMap;

use relstore::index::normalize_keyword;

/// Synonym/hypernym dictionary with normalized keys.
#[derive(Debug, Clone, Default)]
pub struct MiniOntology {
    /// normalized word -> ring id
    ring_of: HashMap<String, usize>,
    /// ring id -> normalized members
    rings: Vec<Vec<String>>,
}

impl MiniOntology {
    /// Empty ontology.
    pub fn new() -> MiniOntology {
        MiniOntology::default()
    }

    /// Ontology preloaded with synonym rings for the QUEST demo domains
    /// (IMDB-like movies, DBLP-like bibliography, Mondial-like geography).
    pub fn builtin() -> MiniOntology {
        let mut o = MiniOntology::new();
        let rings: &[&[&str]] = &[
            // movies
            &["movie", "film", "picture", "feature"],
            &["actor", "actress", "performer", "star", "cast"],
            &["director", "filmmaker"],
            &["genre", "category", "kind"],
            &["title", "name"],
            &["year", "date", "released"],
            &["person", "people", "individual"],
            &["company", "studio", "producer"],
            &["rating", "score", "stars"],
            // bibliography
            &["paper", "article", "publication", "work"],
            &["author", "writer", "creator"],
            &["venue", "conference", "journal", "proceedings"],
            &["citation", "reference", "cites"],
            &["university", "affiliation", "institute", "school"],
            // geography
            &["country", "nation", "state"],
            &["city", "town", "municipality", "metropolis"],
            &["capital", "seat"],
            &["population", "inhabitants", "people"],
            &["river", "stream", "waterway"],
            &["mountain", "peak", "summit"],
            &["language", "tongue"],
            &["religion", "faith"],
            &["organization", "organisation", "union", "alliance"],
            &["border", "boundary", "frontier", "neighbor"],
            &["province", "region", "district", "area"],
            &["economy", "gdp", "economic"],
        ];
        for ring in rings {
            o.add_ring(ring);
        }
        o
    }

    /// Add a ring of mutually synonymous words. Words already present are
    /// merged into the existing ring.
    pub fn add_ring(&mut self, words: &[&str]) {
        let normalized: Vec<String> = words.iter().filter_map(|w| normalize_keyword(w)).collect();
        if normalized.is_empty() {
            return;
        }
        // Reuse an existing ring if any member is known.
        let existing = normalized.iter().find_map(|w| self.ring_of.get(w).copied());
        let rid = existing.unwrap_or_else(|| {
            self.rings.push(Vec::new());
            self.rings.len() - 1
        });
        for w in normalized {
            if self.ring_of.insert(w.clone(), rid).is_none() {
                self.rings[rid].push(w);
            }
        }
    }

    /// All words related to `word` (excluding the word itself). Empty when
    /// unknown.
    pub fn related_terms(&self, word: &str) -> Vec<&str> {
        let Some(norm) = normalize_keyword(word) else {
            return Vec::new();
        };
        match self.ring_of.get(&norm) {
            Some(&rid) => self.rings[rid]
                .iter()
                .filter(|w| **w != norm)
                .map(|s| s.as_str())
                .collect(),
            None => Vec::new(),
        }
    }

    /// Whether two words are synonymous (same ring or equal after
    /// normalization).
    pub fn are_synonyms(&self, a: &str, b: &str) -> bool {
        let (Some(na), Some(nb)) = (normalize_keyword(a), normalize_keyword(b)) else {
            return false;
        };
        if na == nb {
            return true;
        }
        match (self.ring_of.get(&na), self.ring_of.get(&nb)) {
            (Some(ra), Some(rb)) => ra == rb,
            _ => false,
        }
    }

    /// Ring id of an already [`normalize_keyword`]ed word — the half of
    /// [`MiniOntology::are_synonyms`] the compiled metadata matcher
    /// precomputes per name and derives once per keyword.
    pub(crate) fn ring_id(&self, normalized: &str) -> Option<usize> {
        self.ring_of.get(normalized).copied()
    }

    /// Number of distinct words known.
    pub fn word_count(&self) -> usize {
        self.ring_of.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_covers_demo_domains() {
        let o = MiniOntology::builtin();
        assert!(o.are_synonyms("movie", "film"));
        assert!(o.are_synonyms("author", "writer"));
        assert!(o.are_synonyms("country", "nation"));
        assert!(!o.are_synonyms("movie", "country"));
        assert!(o.word_count() > 50);
    }

    #[test]
    fn normalization_applies() {
        let o = MiniOntology::builtin();
        // Plural and case fold into the ring.
        assert!(o.are_synonyms("Movies", "FILM"));
        assert!(o.are_synonyms("actors", "cast"));
    }

    #[test]
    fn related_terms_exclude_self() {
        let o = MiniOntology::builtin();
        let rel = o.related_terms("director");
        assert!(rel.contains(&"filmmaker"));
        assert!(!rel.contains(&"director"));
        assert!(o.related_terms("xyzzy").is_empty());
    }

    #[test]
    fn rings_merge_on_overlap() {
        let mut o = MiniOntology::new();
        o.add_ring(&["car", "automobile"]);
        o.add_ring(&["automobile", "vehicle"]);
        assert!(o.are_synonyms("car", "vehicle"));
    }

    #[test]
    fn identical_words_are_synonyms_even_unknown() {
        let o = MiniOntology::new();
        assert!(o.are_synonyms("zebra", "zebras")); // co-stem
        assert!(!o.are_synonyms("zebra", "lion"));
    }
}
