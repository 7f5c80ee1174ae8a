//! The compiled metadata matcher: what a first-sight keyword pays to score
//! every table/attribute *name* state.
//!
//! [`crate::matcher::name_similarity`] is the reference scorer. Per call it
//! re-normalizes both strings for the ontology, and per `(keyword, name |
//! token | synonym)` pair it builds trigram strings, hash sets and DP
//! vectors — fixed overhead that dwarfs the few hundred bytes actually
//! compared. The name side of every pair is fixed at setup, so
//! [`CompiledMatcher::compile`] encodes it once:
//!
//! * a table of the *distinct* target strings (state names, tokens of
//!   multi-token names, normalized annotation aliases, the
//!   `related_terms` of single-token names), each with its characters, its
//!   packed sorted trigram set and its [`SynonymKey`];
//! * one [`NameProgram`] per distinct name or alias — target indexes
//!   mirroring the branches of `name_similarity`;
//! * one [`StateProgram`] per metadata state — its name and aliases,
//!   mirroring `metadata_state_score`.
//!
//! [`CompiledMatcher::state_scores`] then derives the keyword side once,
//! computes each distinct `(keyword, target)` string similarity once into
//! [`MatchScratch`], and assembles name and state scores from that buffer.
//! Intersection, union and distance are the same integers feeding the same
//! `f64` expressions as the reference, so scores are bit-identical (pinned
//! by `tests/matcher_properties.rs` and `tests/perf_identity.rs`).

use std::collections::HashMap;

use relstore::index::{
    edit_distance_chars, normalize_keyword, packed_trigram_similarity, packed_trigrams_into,
};

use crate::matcher::threshold;
use crate::term::{normalize_identifier, DbTerm, Vocabulary};
use crate::wrapper::annotations::AnnotationSet;
use crate::wrapper::ontology::MiniOntology;

/// What [`MiniOntology::are_synonyms`] derives from one of its arguments:
/// the re-normalized word and its ring. `None` when the word normalizes
/// away, which makes it synonymous with nothing.
type SynonymKey = Option<(String, Option<usize>)>;

fn synonym_key(ontology: &MiniOntology, word: &str) -> SynonymKey {
    let norm = normalize_keyword(word)?;
    let ring = ontology.ring_id(&norm);
    Some((norm, ring))
}

/// [`MiniOntology::are_synonyms`] on two precomputed keys.
fn synonymous(a: &SynonymKey, b: &SynonymKey) -> bool {
    let (Some((na, ra)), Some((nb, rb))) = (a, b) else {
        return false;
    };
    na == nb || (ra.is_some() && ra == rb)
}

/// One string a keyword is compared against, encoded at setup.
#[derive(Debug, Clone)]
struct Target {
    chars: Vec<char>,
    /// Sorted, de-duplicated packed trigrams of `text`.
    trigrams: Vec<u64>,
    synonym_key: SynonymKey,
}

/// `name_similarity` against one distinct name or alias, as target indexes.
#[derive(Debug, Clone)]
struct NameProgram {
    whole: usize,
    /// Tokens of a multi-token name; empty for a single-token name.
    tokens: Vec<usize>,
    /// `related_terms` of a single-token name; empty for a multi-token one.
    synonyms: Vec<usize>,
}

/// `metadata_state_score` of one table/attribute state, as indexes into the
/// name programs. Empty names and aliases score 0 against every keyword
/// and are left out.
#[derive(Debug, Clone)]
struct StateProgram {
    name: Option<usize>,
    aliases: Vec<usize>,
}

/// Reusable buffers of [`CompiledMatcher::state_scores`]; lives in
/// [`crate::SearchScratch`].
#[derive(Debug, Default)]
pub(crate) struct MatchScratch {
    /// The keyword's characters and packed trigram set.
    chars: Vec<char>,
    trigrams: Vec<u64>,
    /// String similarity of the keyword to each target.
    sims: Vec<f64>,
    /// `name_similarity` of the keyword to each name program.
    name_sims: Vec<f64>,
    /// Levenshtein DP row.
    edit_row: Vec<usize>,
}

/// The name side of metadata matching, compiled once per engine. See the
/// module docs.
#[derive(Debug, Clone)]
pub(crate) struct CompiledMatcher {
    ontology: MiniOntology,
    targets: Vec<Target>,
    names: Vec<NameProgram>,
    /// Per state; `None` for domain states, which the wrapper's search
    /// function scores instead.
    states: Vec<Option<StateProgram>>,
}

/// Interning tables used only while compiling.
#[derive(Default)]
struct Builder {
    targets: Vec<Target>,
    target_of: HashMap<String, usize>,
    names: Vec<NameProgram>,
    name_of: HashMap<String, usize>,
}

impl Builder {
    fn target(&mut self, ontology: &MiniOntology, text: &str) -> usize {
        if let Some(&t) = self.target_of.get(text) {
            return t;
        }
        let chars: Vec<char> = text.chars().collect();
        let mut trigrams = Vec::new();
        packed_trigrams_into(&chars, &mut trigrams);
        self.targets.push(Target {
            chars,
            trigrams,
            synonym_key: synonym_key(ontology, text),
        });
        self.target_of
            .insert(text.to_string(), self.targets.len() - 1);
        self.targets.len() - 1
    }

    /// The program of one normalized name or alias; `None` for the empty
    /// string, which `name_similarity` scores 0 against everything.
    fn name(&mut self, ontology: &MiniOntology, name: &str) -> Option<usize> {
        if name.is_empty() {
            return None;
        }
        if let Some(&n) = self.name_of.get(name) {
            return Some(n);
        }
        let whole = self.target(ontology, name);
        let (mut tokens, mut synonyms) = (Vec::new(), Vec::new());
        if name.contains(' ') {
            tokens.extend(name.split(' ').map(|t| self.target(ontology, t)));
        } else {
            for syn in ontology.related_terms(name) {
                synonyms.push(self.target(ontology, syn));
            }
        }
        self.names.push(NameProgram {
            whole,
            tokens,
            synonyms,
        });
        self.name_of.insert(name.to_string(), self.names.len() - 1);
        Some(self.names.len() - 1)
    }
}

impl CompiledMatcher {
    /// Encode every metadata state's name, tokens, aliases and synonyms.
    pub(crate) fn compile(
        vocab: &Vocabulary,
        annotations: Option<&AnnotationSet>,
        ontology: &MiniOntology,
    ) -> CompiledMatcher {
        let mut b = Builder::default();
        let states = (0..vocab.len())
            .map(|s| {
                let aliases = match (vocab.term(s), annotations) {
                    (DbTerm::Domain(_), _) => return None,
                    (DbTerm::Attribute(a), Some(anns)) => anns.get(a).map(|ann| &ann.aliases[..]),
                    _ => None,
                };
                Some(StateProgram {
                    name: b.name(ontology, vocab.name(s)),
                    aliases: aliases
                        .unwrap_or_default()
                        .iter()
                        .filter_map(|alias| b.name(ontology, &normalize_identifier(alias)))
                        .collect(),
                })
            })
            .collect();
        CompiledMatcher {
            ontology: ontology.clone(),
            targets: b.targets,
            names: b.names,
            states,
        }
    }

    /// Metadata-state emission scores of one normalized keyword: per state
    /// exactly what `metadata_state_score` returns, 0 in domain slots.
    pub(crate) fn state_scores(&self, keyword: &str, scratch: &mut MatchScratch) -> Vec<f64> {
        if keyword.is_empty() {
            return vec![0.0; self.states.len()];
        }
        let MatchScratch {
            chars,
            trigrams,
            sims,
            name_sims,
            edit_row,
        } = scratch;
        chars.clear();
        chars.extend(keyword.chars());
        packed_trigrams_into(chars, trigrams);
        let key = synonym_key(&self.ontology, keyword);

        sims.clear();
        sims.extend(
            self.targets
                .iter()
                .map(|t| string_similarity(chars, trigrams, t, edit_row)),
        );
        name_sims.clear();
        name_sims.extend(
            self.names
                .iter()
                .map(|p| self.name_similarity(chars, &key, p, sims)),
        );
        self.states
            .iter()
            .map(|state| {
                let Some(state) = state else { return 0.0 };
                let mut best = state.name.map_or(0.0, |n| name_sims[n]);
                for &alias in &state.aliases {
                    best = best.max(name_sims[alias] * 0.95);
                }
                best.clamp(0.0, 1.0)
            })
            .collect()
    }

    /// `matcher::name_similarity` of a non-empty keyword against one
    /// compiled name, branch for branch.
    fn name_similarity(
        &self,
        keyword: &[char],
        key: &SynonymKey,
        name: &NameProgram,
        sims: &[f64],
    ) -> f64 {
        let whole = &self.targets[name.whole];
        if keyword == whole.chars {
            return 1.0;
        }
        if synonymous(key, &whole.synonym_key) {
            return 0.9;
        }
        if !name.tokens.is_empty() {
            let best_token = name
                .tokens
                .iter()
                .map(|&t| {
                    let token = &self.targets[t];
                    if token.chars == keyword {
                        0.85
                    } else if synonymous(key, &token.synonym_key) {
                        0.75
                    } else {
                        sims[t] * 0.7
                    }
                })
                .fold(0.0f64, f64::max);
            return threshold(best_token.max(sims[name.whole]));
        }
        let syn_boost = name
            .synonyms
            .iter()
            .map(|&syn| sims[syn] * 0.8)
            .fold(0.0f64, f64::max);
        threshold(sims[name.whole].max(syn_boost))
    }
}

/// `matcher::string_similarity` of the keyword against one target, except
/// that a pair the short-token guard caps is not scored at all: the cap is
/// below `SIMILARITY_FLOOR`, every use of a string similarity is a `max`
/// that ends in `threshold`, and all scores are non-negative, so a capped
/// value and 0 give the same bits in every name score.
fn string_similarity(
    chars: &[char],
    trigrams: &[u64],
    target: &Target,
    edit_row: &mut Vec<usize>,
) -> f64 {
    let short = chars.len().min(target.chars.len()) <= 4;
    if short && chars.first() != target.chars.first() {
        return 0.0;
    }
    let longest = chars.len().max(target.chars.len());
    let edit = 1.0 - edit_distance_chars(chars, &target.chars, edit_row) as f64 / longest as f64;
    packed_trigram_similarity(trigrams, &target.trigrams).max(edit)
}
