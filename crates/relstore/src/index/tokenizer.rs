//! Text tokenization for full-text indexing and keyword queries.
//!
//! The tokenizer is deliberately shared between the index side and the query
//! side so that a keyword matches the tokens produced at indexing time.
//! Pipeline: lowercase → split on non-alphanumerics → drop stopwords →
//! light suffix stemming (plural/gerund trimming, enough for English-ish
//! synthetic corpora without a full Porter stemmer).

/// English stopwords dropped by the tokenizer (kept small on purpose: keyword
/// queries are short and over-aggressive stopping hurts recall).
const STOPWORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "by", "for", "from", "in", "is", "it", "of", "on",
    "or", "the", "to", "with",
];

/// Whether a token is a stopword.
pub fn is_stopword(token: &str) -> bool {
    STOPWORDS.contains(&token)
}

/// Light stemming: strips a few common English suffixes, then canonicalizes
/// a trailing "ie" to "y" so that singular/plural pairs of -ie words agree
/// ("movie" and "movies" both stem to "movy", "city" and "cities" to
/// "city"). Never shrinks a token below three characters.
pub fn stem(token: &str) -> String {
    let mut t = token.to_string();
    stem_in_place(&mut t);
    t
}

/// [`stem`] on an owned buffer, in place — the hot-path form: no allocation
/// beyond the buffer the caller already holds. The suffix rules operate on
/// byte lengths; every matched suffix is ASCII, so truncation always lands
/// on a character boundary.
pub fn stem_in_place(t: &mut String) {
    let n = t.len();
    if n >= 5 && t.ends_with("sses") {
        t.truncate(n - 2);
    } else if n >= 4 && t.ends_with("ies") {
        t.truncate(n - 3);
        t.push('y');
    } else if t.ends_with("ss") {
        // keep: "class", "press"
    } else if n >= 4 && t.ends_with('s') {
        t.truncate(n - 1);
    } else if n >= 6 && t.ends_with("ing") {
        t.truncate(n - 3);
    } else if n >= 5 && t.ends_with("ed") {
        t.truncate(n - 2);
    }
    let n = t.len();
    if n >= 4 && t.ends_with("ie") {
        t.truncate(n - 2);
        t.push('y');
    }
}

/// Tokenize text into normalized index tokens.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    tokenize_with(text, |t| out.push(t.to_string()));
    out
}

/// Tokenize without allocating one `String` per token: each normalized
/// token is produced in a single reused buffer and handed to `f` as a
/// borrowed slice. This is the allocation-lean core [`tokenize`] wraps; the
/// two produce identical token sequences (pinned by a property test).
///
/// ASCII characters take a branch-free lowercase fast path; anything else
/// falls back to the full Unicode lowercasing the old tokenizer used.
pub fn tokenize_with(text: &str, mut f: impl FnMut(&str)) {
    let mut cur = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            if ch.is_ascii() {
                cur.push(ch.to_ascii_lowercase());
            } else {
                cur.extend(ch.to_lowercase());
            }
        } else if !cur.is_empty() {
            emit_token(&mut cur, &mut f);
        }
    }
    if !cur.is_empty() {
        emit_token(&mut cur, &mut f);
    }
}

fn emit_token(cur: &mut String, f: &mut impl FnMut(&str)) {
    if !is_stopword(cur) {
        stem_in_place(cur);
        f(cur);
    }
    cur.clear();
}

/// Normalize a single keyword from a user query through the same pipeline.
/// Returns `None` when the keyword normalizes away (stopword / empty).
pub fn normalize_keyword(raw: &str) -> Option<String> {
    let toks = tokenize(raw);
    if toks.len() == 1 {
        return Some(toks.into_iter().next().expect("len checked"));
    }
    // Multi-token phrase keywords are joined with a space: phrase matching
    // is handled by the index as a conjunction.
    if toks.is_empty() {
        None
    } else {
        Some(toks.join(" "))
    }
}

/// Character trigrams of a normalized token, used by similarity matching in
/// the wrapper (keyword ↔ schema-term similarity).
pub fn trigrams(token: &str) -> Vec<String> {
    let padded: Vec<char> = format!("  {token} ").chars().collect();
    padded.windows(3).map(|w| w.iter().collect()).collect()
}

/// Jaccard similarity of trigram sets; 1.0 for identical strings.
pub fn trigram_similarity(a: &str, b: &str) -> f64 {
    if a == b {
        return 1.0;
    }
    let ta = trigrams(a);
    let tb = trigrams(b);
    if ta.is_empty() || tb.is_empty() {
        return 0.0;
    }
    let sa: std::collections::HashSet<&String> = ta.iter().collect();
    let sb: std::collections::HashSet<&String> = tb.iter().collect();
    let inter = sa.intersection(&sb).count() as f64;
    let union = sa.union(&sb).count() as f64;
    inter / union
}

/// Levenshtein edit distance (iterative two-row DP).
pub fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = if ca == cb { 0 } else { 1 };
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Normalized edit similarity in [0, 1].
pub fn edit_similarity(a: &str, b: &str) -> f64 {
    let max = a.chars().count().max(b.chars().count());
    if max == 0 {
        return 1.0;
    }
    1.0 - edit_distance(a, b) as f64 / max as f64
}

/// Pack one character trigram into a `u64`, 21 bits per `char` (every
/// Unicode scalar value fits), so distinct trigrams get distinct keys and a
/// trigram set becomes a flat integer array.
fn pack_trigram(a: char, b: char, c: char) -> u64 {
    (a as u64) << 42 | (b as u64) << 21 | c as u64
}

/// The trigram *set* of a token as a sorted, de-duplicated array of packed
/// trigrams, written into `out` (cleared first): the same set
/// [`trigram_similarity`] builds from [`trigrams`] (two leading pad spaces,
/// one trailing), without one heap `String` per trigram. The allocation-free
/// form used by compiled name matching; compare two of them with
/// [`packed_trigram_similarity`].
pub fn packed_trigrams_into(token: &[char], out: &mut Vec<u64>) {
    out.clear();
    let (mut a, mut b) = (' ', ' ');
    for &c in token.iter().chain(std::iter::once(&' ')) {
        out.push(pack_trigram(a, b, c));
        (a, b) = (b, c);
    }
    out.sort_unstable();
    out.dedup();
}

/// Jaccard similarity of two packed trigram sets (see
/// [`packed_trigrams_into`]) by one sorted merge. Bit-identical to
/// [`trigram_similarity`] on the strings the sets came from: the
/// intersection and union are the same integer counts feeding the same
/// division, and identical strings have identical sets, so `n / n` gives
/// the `1.0` of that function's early return.
pub fn packed_trigram_similarity(a: &[u64], b: &[u64]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let (mut i, mut j, mut inter) = (0, 0, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// [`edit_distance`] over pre-split characters with a caller-owned DP row:
/// the same Levenshtein recurrence, updated in place in one row that is
/// reused across calls instead of four fresh vectors per pair.
pub fn edit_distance_chars(a: &[char], b: &[char], row: &mut Vec<usize>) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    row.clear();
    row.extend(0..=b.len());
    for (i, ca) in a.iter().enumerate() {
        // `diag` is the previous row's cell to the left of the one being
        // written, `left` the current row's.
        let mut diag = row[0];
        let mut left = i + 1;
        row[0] = left;
        for (cb, cell) in b.iter().zip(row[1..].iter_mut()) {
            let up = *cell;
            left = (diag + usize::from(ca != cb)).min(up + 1).min(left + 1);
            diag = up;
            *cell = left;
        }
    }
    row[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`packed_trigram_similarity`] and [`edit_distance_chars`] of two
    /// strings, the way compiled name matching calls them.
    fn packed(a: &str, b: &str, row: &mut Vec<usize>) -> (f64, usize) {
        let (ca, cb): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
        let (mut ta, mut tb) = (Vec::new(), Vec::new());
        packed_trigrams_into(&ca, &mut ta);
        packed_trigrams_into(&cb, &mut tb);
        (
            packed_trigram_similarity(&ta, &tb),
            edit_distance_chars(&ca, &cb, row),
        )
    }

    #[test]
    fn packed_primitives_equal_the_string_functions() {
        // One row across all pairs: stale cells from a longer pair must not
        // leak into a shorter one.
        let mut row = Vec::new();
        let words = [
            "café",
            "cafe",
            "aaaa",
            "aaaaa",
            "a",
            "b",
            "",
            "director",
            "directr",
            "wind",
            "kind",
            "new york",
            "日本語",
            "日本",
        ];
        for a in words {
            for b in words {
                let (tri, dist) = packed(a, b, &mut row);
                assert_eq!(
                    tri.to_bits(),
                    trigram_similarity(a, b).to_bits(),
                    "trigram {a:?} {b:?}"
                );
                assert_eq!(dist, edit_distance(a, b), "edit {a:?} {b:?}");
            }
        }
    }

    #[test]
    fn packed_trigram_sets_are_sorted_and_deduplicated() {
        let mut set = Vec::new();
        packed_trigrams_into(&['a'; 4], &mut set);
        // "  a", " aa", "aaa" (twice), "aa ".
        assert_eq!(set.len(), 4);
        assert!(set.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(trigrams("aaaa").len(), 5);
        // Repeated trigrams count once on both sides, so "aaaa" and "aaaaa"
        // are different strings with the same set.
        let mut row = Vec::new();
        assert_eq!(packed("aaaa", "aaaaa", &mut row), (1.0, 1));
        // One-char strings: two trigrams each, none shared unless equal.
        packed_trigrams_into(&['a'], &mut set);
        assert_eq!(set.len(), 2);
        assert_eq!(packed("a", "b", &mut row), (0.0, 1));
        // The `a == b` early return of `trigram_similarity` is the n / n case.
        assert_eq!(packed("a", "a", &mut row), (1.0, 0));
        assert_eq!(packed("café", "café", &mut row), (1.0, 0));
        assert_eq!(packed("café", "cafe", &mut row).1, 1);
        // The empty token still has its one all-padding trigram.
        packed_trigrams_into(&[], &mut set);
        assert_eq!(set.len(), 1);
        assert_eq!(packed("", "abc", &mut row), (0.0, 3));
    }

    #[test]
    fn tokenizes_and_stems() {
        assert_eq!(tokenize("The Lord of the Rings"), vec!["lord", "ring"]);
        assert_eq!(tokenize("running dogs"), vec!["runn", "dog"]);
        assert_eq!(tokenize("  "), Vec::<String>::new());
    }

    #[test]
    fn stem_preserves_short_tokens() {
        assert_eq!(stem("is"), "is");
        assert_eq!(stem("as"), "as");
        assert_eq!(stem("cities"), "city");
        assert_eq!(stem("class"), "class");
    }

    #[test]
    fn stopwords_dropped() {
        assert!(is_stopword("the"));
        assert!(!is_stopword("movie"));
        assert_eq!(tokenize("of and or"), Vec::<String>::new());
    }

    #[test]
    fn singular_plural_costem() {
        // The whole point of the "ie"->"y" canonicalization: both forms of
        // -ie words reach the same token.
        assert_eq!(stem("movie"), stem("movies"));
        assert_eq!(stem("city"), stem("cities"));
        assert_eq!(stem("country"), stem("countries"));
        assert_eq!(stem("actor"), stem("actors"));
    }

    #[test]
    fn keyword_normalization() {
        assert_eq!(normalize_keyword("Movies"), Some("movy".to_string()));
        assert_eq!(normalize_keyword("the"), None);
        assert_eq!(normalize_keyword("New York"), Some("new york".to_string()));
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert!(edit_similarity("director", "directors") > 0.85);
    }

    #[test]
    fn trigram_similarity_ranges() {
        assert_eq!(trigram_similarity("actor", "actor"), 1.0);
        let s = trigram_similarity("actor", "actress");
        assert!(s > 0.0 && s < 1.0);
        assert_eq!(trigram_similarity("", "abc"), 0.0);
    }

    #[test]
    fn unicode_safe() {
        // Multi-byte characters must not panic the tokenizer or distance.
        assert_eq!(edit_distance("café", "cafe"), 1);
        assert_eq!(tokenize("Änder-ung"), vec!["änder", "ung"]);
    }
}
