//! Per-attribute full-text inverted indexes.
//!
//! The paper's forward module computes HMM emission probabilities "for each
//! keyword and for each database attribute by applying the search function
//! over full text indexes provided by the DBMS", treating the returned score
//! as a probability after normalizing with a per-attribute coefficient
//! computed in the setup phase. This module provides exactly that search
//! function: a BM25-lite relevance score per `(keyword, attribute)` plus the
//! posting lists needed to fetch matching rows.
//!
//! # Hot-path layout
//!
//! Tokens are interned into dense `u32` ids (one [`TokenInterner`] per
//! attribute); posting lists live in an id-indexed contiguous table, so a
//! probe is one hash lookup on the token string and then pure array access.
//! Each list tracks the maximum term frequency it contains, which makes the
//! dominant probe — "best single-token score of this attribute" — O(1)
//! instead of a scan of the whole posting list: BM25's tf saturation is
//! monotonic, so the best row is always one with the maximal tf, and
//! `idf(df) * tf_part(max_tf)` is the *same `f64` expression* the scan
//! would have maximized (bit-identical, pinned by a property test against
//! [`AttributeIndex::score_reference`]).
//!
//! Bulk loads go through [`AttributeIndex::add_bulk`] +
//! [`AttributeIndex::finish_build`]: postings are appended and each list is
//! sorted once at the end, replacing the per-posting mid-list insert of the
//! incremental path. The two paths build bit-identical indexes.

use std::collections::HashMap;

use crate::index::interner::TokenInterner;
use crate::index::tokenizer::{tokenize, tokenize_with};
use crate::row::RowId;

/// One posting: a row and the term frequency of the token within the row's
/// attribute value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// Matching row.
    pub row: RowId,
    /// Occurrences of the token in the attribute value.
    pub tf: u32,
}

/// One token's postings plus the maximum term frequency among them (0 when
/// the list is empty). `max_tf` is maintained incrementally and lets the
/// single-token score probe skip the list scan entirely.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct PostingList {
    /// Postings sorted by row id.
    rows: Vec<Posting>,
    /// `max(rows[i].tf)`, 0 when empty.
    max_tf: u32,
}

/// A keyword prepared for repeated index probes: the normalized token
/// sequence, computed **once** per keyword instead of once per
/// `(keyword, attribute)` pair. Build it with [`KeywordProbe::new`] and
/// hand it to [`AttributeIndex::score_probe`] /
/// [`AttributeIndex::search_probe`]; the result is bit-identical to the
/// string-keyed entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeywordProbe {
    tokens: Vec<String>,
}

impl KeywordProbe {
    /// Normalize a keyword into probe tokens through the same pipeline the
    /// index applies at query time. `None` when the keyword normalizes away
    /// (stopwords, punctuation) — exactly the inputs for which every score
    /// probe returns 0.
    pub fn new(keyword: &str) -> Option<KeywordProbe> {
        let tokens = tokenize(keyword);
        if tokens.is_empty() {
            None
        } else {
            Some(KeywordProbe { tokens })
        }
    }

    /// The normalized probe tokens.
    pub fn tokens(&self) -> &[String] {
        &self.tokens
    }
}

/// Inverted index over a single attribute's values.
///
/// Maintained *incrementally*: [`AttributeIndex::add`] and
/// [`AttributeIndex::remove`] are exact inverses, and any interleaving of
/// them leaves the index bit-identical to one rebuilt from scratch over the
/// surviving values (posting lists are kept sorted by row id, and the
/// doc-count / total-length bookkeeping is symmetric). Equality compares the
/// full posting structure *by token string* — interner id assignment order
/// is an implementation detail that legitimately differs between an
/// incrementally maintained index and a rebuilt one — so tests can assert
/// that identity directly.
#[derive(Debug, Clone, Default)]
pub struct AttributeIndex {
    /// Token string → dense id.
    interner: TokenInterner,
    /// Token id → postings (indexes into this table never shrink; a fully
    /// drained token keeps its id with an empty list, which equality and
    /// the vocabulary count treat as absent).
    lists: Vec<PostingList>,
    /// Number of indexed (non-null) values.
    doc_count: u64,
    /// Sum of token counts over all indexed values.
    total_len: u64,
    /// True between [`AttributeIndex::add_bulk`] and
    /// [`AttributeIndex::finish_build`]: lists may be unsorted.
    bulk_dirty: bool,
    /// Reusable per-call buffer of the current row's token ids.
    scratch: Vec<u32>,
}

impl AttributeIndex {
    /// Empty index.
    pub fn new() -> AttributeIndex {
        AttributeIndex::default()
    }

    /// Tokenize `text` into `self.scratch` as interned ids (sorted), and
    /// return the raw token count. The scratch holds one id per token
    /// occurrence, so equal ids appear as runs after sorting.
    fn collect_ids(&mut self, text: &str) -> usize {
        let interner = &mut self.interner;
        let scratch = &mut self.scratch;
        scratch.clear();
        tokenize_with(text, |tok| scratch.push(interner.intern(tok)));
        let count = scratch.len();
        scratch.sort_unstable();
        count
    }

    fn list_mut(&mut self, id: u32) -> &mut PostingList {
        let at = id as usize;
        if at >= self.lists.len() {
            self.lists.resize_with(at + 1, PostingList::default);
        }
        &mut self.lists[at]
    }

    /// Index one attribute value of `row`.
    pub fn add(&mut self, row: RowId, text: &str) {
        debug_assert!(!self.bulk_dirty, "add during an unfinished bulk build");
        let count = self.collect_ids(text);
        if count == 0 {
            return;
        }
        self.doc_count += 1;
        self.total_len += count as u64;
        let mut i = 0;
        let ids = std::mem::take(&mut self.scratch);
        while i < ids.len() {
            let id = ids[i];
            let mut tf = 0u32;
            while i < ids.len() && ids[i] == id {
                tf += 1;
                i += 1;
            }
            let list = self.list_mut(id);
            // Keep lists sorted by row id. Re-adds after deletes land
            // mid-list, exactly where a full rebuild would have put them.
            let at = list.rows.partition_point(|p| p.row < row);
            list.rows.insert(at, Posting { row, tf });
            list.max_tf = list.max_tf.max(tf);
        }
        self.scratch = ids;
    }

    /// Index one attribute value of `row` during a bulk load: postings are
    /// *appended*, deferring the sort to one [`AttributeIndex::finish_build`]
    /// per load instead of a mid-list insert per posting. Queries are
    /// invalid until `finish_build` runs; the finished index is
    /// bit-identical to one built with [`AttributeIndex::add`].
    pub fn add_bulk(&mut self, row: RowId, text: &str) {
        let count = self.collect_ids(text);
        if count == 0 {
            return;
        }
        self.bulk_dirty = true;
        self.doc_count += 1;
        self.total_len += count as u64;
        let mut i = 0;
        let ids = std::mem::take(&mut self.scratch);
        while i < ids.len() {
            let id = ids[i];
            let mut tf = 0u32;
            while i < ids.len() && ids[i] == id {
                tf += 1;
                i += 1;
            }
            let list = self.list_mut(id);
            list.rows.push(Posting { row, tf });
            list.max_tf = list.max_tf.max(tf);
        }
        self.scratch = ids;
    }

    /// Sort every posting list by row id, closing a bulk load. Idempotent;
    /// a no-op when no [`AttributeIndex::add_bulk`] ran since the last call.
    pub fn finish_build(&mut self) {
        if !self.bulk_dirty {
            return;
        }
        for list in &mut self.lists {
            // Row ids are unique within a list (one posting per row), so
            // the sort order is total and deterministic.
            list.rows.sort_unstable_by_key(|p| p.row);
        }
        self.bulk_dirty = false;
    }

    /// Un-index one attribute value of `row`: the exact inverse of
    /// [`AttributeIndex::add`] with the same arguments. Pass the value that
    /// was indexed (the caller keeps the row, so it has it).
    pub fn remove(&mut self, row: RowId, text: &str) {
        debug_assert!(!self.bulk_dirty, "remove during an unfinished bulk build");
        // Look tokens up without interning: removing text containing a
        // never-indexed token must not grow the interner. Unknown tokens
        // still count toward the length bookkeeping (the documented
        // contract is that `text` is the value that was added, so this
        // only matters for mismatched calls — which stay symmetric with
        // the old behavior).
        let interner = &self.interner;
        let scratch = &mut self.scratch;
        scratch.clear();
        let mut count = 0usize;
        tokenize_with(text, |tok| {
            count += 1;
            if let Some(id) = interner.get(tok) {
                scratch.push(id);
            }
        });
        if count == 0 {
            return;
        }
        scratch.sort_unstable();
        self.doc_count -= 1;
        self.total_len -= count as u64;
        let ids = std::mem::take(&mut self.scratch);
        let mut prev: Option<u32> = None;
        for &id in &ids {
            if prev == Some(id) {
                continue; // distinct tokens only
            }
            prev = Some(id);
            // A known token may still have no list (drained earlier).
            let Some(list) = self.lists.get_mut(id as usize) else {
                continue;
            };
            if let Ok(at) = list.rows.binary_search_by(|p| p.row.cmp(&row)) {
                let gone = list.rows.remove(at);
                if gone.tf == list.max_tf {
                    // The maximum may have left; recompute it exactly as a
                    // rebuild over the surviving postings would.
                    list.max_tf = list.rows.iter().map(|p| p.tf).max().unwrap_or(0);
                }
            }
        }
        self.scratch = ids;
        self.maybe_compact();
    }

    /// Reclaim interner and posting-table memory once drained tokens
    /// outnumber live ones: rebuild both with only the tokens that still
    /// have postings, in (old-)id order so the result is deterministic.
    /// The old `HashMap<String, _>` index dropped a token's entry the
    /// moment its list emptied; with dense ids the reclaim is batched
    /// here instead, keeping memory proportional to *live* vocabulary
    /// under delete-heavy churn. Purely an allocation-level operation:
    /// every query answers identically before and after (equality is by
    /// token string, and empty lists are treated as absent everywhere).
    fn maybe_compact(&mut self) {
        const COMPACT_FLOOR: usize = 64;
        let live = self.lists.iter().filter(|l| !l.rows.is_empty()).count();
        let dead = self.lists.len() - live;
        if dead < COMPACT_FLOOR || dead <= live {
            return;
        }
        let mut interner = TokenInterner::new();
        let mut lists = Vec::with_capacity(live);
        for (id, list) in std::mem::take(&mut self.lists).into_iter().enumerate() {
            if list.rows.is_empty() {
                continue;
            }
            let new_id = interner.intern(self.interner.resolve(id as u32));
            debug_assert_eq!(new_id as usize, lists.len());
            lists.push(list);
        }
        self.interner = interner;
        self.lists = lists;
    }

    /// Number of indexed values.
    pub fn doc_count(&self) -> u64 {
        self.doc_count
    }

    /// Number of distinct tokens with live postings.
    pub fn vocabulary_size(&self) -> usize {
        self.lists.iter().filter(|l| !l.rows.is_empty()).count()
    }

    /// Average indexed value length in tokens.
    pub fn avg_len(&self) -> f64 {
        if self.doc_count == 0 {
            0.0
        } else {
            self.total_len as f64 / self.doc_count as f64
        }
    }

    /// Posting list for a single *normalized* token.
    pub fn postings(&self, token: &str) -> &[Posting] {
        debug_assert!(!self.bulk_dirty, "query during an unfinished bulk build");
        // An interned id may have no list yet: `remove` interns the tokens
        // of text that was never indexed without allocating lists for them.
        self.interner
            .get(token)
            .and_then(|id| self.lists.get(id as usize))
            .map(|l| l.rows.as_slice())
            .unwrap_or(&[])
    }

    /// BM25-lite score of a (possibly multi-token phrase) keyword against
    /// this attribute: the maximum per-row score, i.e. "how well does the
    /// best value of this attribute match the keyword".
    ///
    /// Phrases are scored conjunctively: a row must contain every token.
    pub fn score(&self, keyword: &str) -> f64 {
        match KeywordProbe::new(keyword) {
            Some(probe) => self.score_probe(&probe),
            None => 0.0,
        }
    }

    /// [`AttributeIndex::score`] for a keyword prepared once with
    /// [`KeywordProbe::new`]. Single-token keywords — the common case — are
    /// answered in O(1) from the list's `max_tf`; phrases fall back to the
    /// conjunctive accumulation. Bit-identical to `score`.
    pub fn score_probe(&self, probe: &KeywordProbe) -> f64 {
        debug_assert!(!self.bulk_dirty, "query during an unfinished bulk build");
        if let [token] = probe.tokens.as_slice() {
            // `get` both ways: the id may exist without a list (see
            // `postings`).
            let Some(list) = self
                .interner
                .get(token)
                .and_then(|id| self.lists.get(id as usize))
            else {
                return 0.0;
            };
            if list.rows.is_empty() {
                return 0.0;
            }
            // The one scored term of the scan path, evaluated at the row
            // that maximizes it: same idf, same tf saturation, same product.
            return self.idf(list.rows.len() as u64) * bm25_tf(list.max_tf);
        }
        self.search_tokens(&probe.tokens, 1)
            .first()
            .map(|(_, s)| *s)
            .unwrap_or(0.0)
    }

    /// The pre-interning scoring path: normalize, accumulate over every
    /// posting of every token, sort, take the best row. Kept callable as
    /// the *reference* the O(1) probe is verified against (property tests)
    /// and as the baseline of the committed pipeline benchmark.
    pub fn score_reference(&self, keyword: &str) -> f64 {
        self.search(keyword, 1)
            .first()
            .map(|(_, s)| *s)
            .unwrap_or(0.0)
    }

    /// Top-`limit` rows matching the keyword, scored, best first.
    pub fn search(&self, keyword: &str, limit: usize) -> Vec<(RowId, f64)> {
        match KeywordProbe::new(keyword) {
            Some(probe) => self.search_tokens(&probe.tokens, limit),
            None => Vec::new(),
        }
    }

    /// [`AttributeIndex::search`] for a prepared keyword.
    pub fn search_probe(&self, probe: &KeywordProbe, limit: usize) -> Vec<(RowId, f64)> {
        self.search_tokens(&probe.tokens, limit)
    }

    fn search_tokens(&self, tokens: &[String], limit: usize) -> Vec<(RowId, f64)> {
        debug_assert!(!self.bulk_dirty, "query during an unfinished bulk build");
        let mut acc: HashMap<RowId, (usize, f64)> = HashMap::new();
        for tok in tokens {
            let plist = self.postings(tok);
            if plist.is_empty() {
                return Vec::new(); // conjunctive phrase semantics
            }
            let idf = self.idf(plist.len() as u64);
            for p in plist {
                let tf_part = bm25_tf(p.tf);
                let e = acc.entry(p.row).or_insert((0, 0.0));
                e.0 += 1;
                e.1 += idf * tf_part;
            }
        }
        let need = tokens.len();
        let mut hits: Vec<(RowId, f64)> = acc
            .into_iter()
            .filter(|(_, (n, _))| *n == need)
            .map(|(r, (_, s))| (r, s))
            .collect();
        hits.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        hits.truncate(limit);
        hits
    }

    /// Document frequency of a normalized token.
    pub fn doc_freq(&self, token: &str) -> u64 {
        self.postings(token).len() as u64
    }

    fn idf(&self, df: u64) -> f64 {
        bm25_idf(self.doc_count, df)
    }

    /// The setup-phase normalization coefficient: the maximum achievable
    /// single-token score on this attribute. Scores divided by this fall in
    /// [0, 1] and can be treated as probabilities by the HMM emission model.
    pub fn normalization_coefficient(&self) -> f64 {
        // Max idf occurs for df=1; max tf part is the bm25 asymptote.
        let max_idf = self.idf(1);
        max_idf * bm25_tf(u32::MAX)
    }

    /// This index's summable document statistics (see [`DocPartial`]).
    pub fn doc_partial(&self) -> DocPartial {
        DocPartial {
            doc_count: self.doc_count,
            total_len: self.total_len,
        }
    }

    /// This index's mergeable per-token state for one *normalized* token
    /// (see [`TokenPartial`]). All-zero when the token is absent.
    pub fn token_partial(&self, token: &str) -> TokenPartial {
        debug_assert!(!self.bulk_dirty, "query during an unfinished bulk build");
        match self
            .interner
            .get(token)
            .and_then(|id| self.lists.get(id as usize))
        {
            Some(list) => TokenPartial {
                df: list.rows.len() as u64,
                max_tf: list.max_tf,
            },
            None => TokenPartial::default(),
        }
    }

    /// Every token with live postings, sorted. The cross-partition
    /// vocabulary of a sharded attribute is the union of these.
    pub fn live_tokens(&self) -> Vec<&str> {
        let mut toks: Vec<&str> = self
            .lists
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.rows.is_empty())
            .map(|(id, _)| self.interner.resolve(id as u32))
            .collect();
        toks.sort_unstable();
        toks
    }

    /// Best conjunctive per-row sum `Σ idfs[i] * tf_part(tf_i)` over this
    /// index's rows, with the idf of each token *injected* by the caller
    /// instead of derived from this index's own doc count.
    ///
    /// This is the scatter half of phrase scoring across partitions: each
    /// partition runs the same accumulation as [`AttributeIndex::score_probe`]
    /// but under the *merged* idfs (see [`ScoreAccumulator::idfs`]), and the
    /// gather step takes the max — bit-identical to the unpartitioned scan
    /// because per-row sums only involve that row's own postings, which live
    /// wholly in one partition. `None` when no local row contains every
    /// token (local absence is not global absence; the caller has already
    /// checked global dfs before scattering).
    pub fn best_conjunctive_score(&self, tokens: &[String], idfs: &[f64]) -> Option<f64> {
        debug_assert!(!self.bulk_dirty, "query during an unfinished bulk build");
        debug_assert_eq!(tokens.len(), idfs.len());
        let mut acc: HashMap<RowId, (usize, f64)> = HashMap::new();
        for (tok, idf) in tokens.iter().zip(idfs) {
            let plist = self.postings(tok);
            if plist.is_empty() {
                return None; // conjunctive phrase semantics
            }
            for p in plist {
                let e = acc.entry(p.row).or_insert((0, 0.0));
                e.0 += 1;
                e.1 += idf * bm25_tf(p.tf);
            }
        }
        let need = tokens.len();
        acc.values()
            .filter(|(n, _)| *n == need)
            .map(|(_, s)| *s)
            .fold(None, |best, s| match best {
                Some(b) if b >= s => Some(b),
                _ => Some(s),
            })
    }
}

/// Summable document statistics of one attribute index: the inputs of the
/// idf and avg-length formulas. Partitions hold disjoint rows, so the
/// global statistics are exact field-wise sums.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DocPartial {
    /// Number of indexed (non-null, non-empty) values.
    pub doc_count: u64,
    /// Sum of token counts over all indexed values.
    pub total_len: u64,
}

impl DocPartial {
    /// Fold another partition's statistics into this one.
    pub fn merge(&mut self, other: DocPartial) {
        self.doc_count += other.doc_count;
        self.total_len += other.total_len;
    }
}

/// Mergeable per-token state: document frequency sums across disjoint
/// partitions; the maximum term frequency is a max.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TokenPartial {
    /// Rows containing the token.
    pub df: u64,
    /// Maximum term frequency among them (0 when absent).
    pub max_tf: u32,
}

impl TokenPartial {
    /// Fold another partition's state into this one.
    pub fn merge(&mut self, other: TokenPartial) {
        self.df += other.df;
        self.max_tf = self.max_tf.max(other.max_tf);
    }
}

/// Mergeable BM25 state for one `(attribute, probe)` pair across disjoint
/// row partitions.
///
/// The merge law that makes sharded scoring bit-identical to the unsharded
/// engine: every score formula is a function of *integers* (doc counts,
/// dfs, tfs) plus per-row tf sums. Integers merge exactly (sums and maxes),
/// and the accumulator evaluates the **same `f64` expressions** the
/// unsharded [`AttributeIndex`] would have, once, from the merged integers
/// — floating point is never itself summed across partitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScoreAccumulator {
    doc: DocPartial,
    tokens: Vec<TokenPartial>,
}

impl ScoreAccumulator {
    /// Accumulator for a probe with `token_count` tokens, all partials zero.
    pub fn new(token_count: usize) -> ScoreAccumulator {
        ScoreAccumulator {
            doc: DocPartial::default(),
            tokens: vec![TokenPartial::default(); token_count],
        }
    }

    /// Zero every partial, keeping the token count and the allocation, so
    /// one accumulator can serve every attribute of a scatter (one probe,
    /// many attributes) instead of being reallocated per attribute. A reset
    /// accumulator is indistinguishable from a fresh one of the same token
    /// count.
    pub fn reset(&mut self) {
        self.doc = DocPartial::default();
        self.tokens.fill(TokenPartial::default());
    }

    /// Fold one partition's index state for `probe` into the accumulator.
    pub fn absorb(&mut self, index: &AttributeIndex, probe: &KeywordProbe) {
        debug_assert_eq!(self.tokens.len(), probe.tokens().len());
        self.doc.merge(index.doc_partial());
        for (slot, tok) in self.tokens.iter_mut().zip(probe.tokens()) {
            slot.merge(index.token_partial(tok));
        }
    }

    /// Fold another accumulator (over a further disjoint partition set).
    pub fn merge(&mut self, other: &ScoreAccumulator) {
        debug_assert_eq!(self.tokens.len(), other.tokens.len());
        self.doc.merge(other.doc);
        for (slot, t) in self.tokens.iter_mut().zip(&other.tokens) {
            slot.merge(*t);
        }
    }

    /// Merged document statistics.
    pub fn doc(&self) -> DocPartial {
        self.doc
    }

    /// Merged per-token partials, in probe token order.
    pub fn tokens(&self) -> &[TokenPartial] {
        &self.tokens
    }

    /// True when some probe token matches no row in any partition — the
    /// conjunctive phrase score is 0 and nothing needs scattering.
    pub fn any_token_absent(&self) -> bool {
        self.tokens.iter().any(|t| t.df == 0)
    }

    /// Global idf of each probe token under the merged doc count — the
    /// values to inject into [`AttributeIndex::best_conjunctive_score`].
    pub fn idfs(&self) -> Vec<f64> {
        self.tokens
            .iter()
            .map(|t| bm25_idf(self.doc.doc_count, t.df))
            .collect()
    }

    /// The O(1) single-token score under the merged statistics: same idf,
    /// same tf saturation, same product as
    /// [`AttributeIndex::score_probe`] on the unpartitioned index. 0 when
    /// the token is absent everywhere.
    pub fn single_token_raw(&self) -> f64 {
        debug_assert_eq!(self.tokens.len(), 1);
        let t = self.tokens[0];
        if t.df == 0 {
            0.0
        } else {
            bm25_idf(self.doc.doc_count, t.df) * bm25_tf(t.max_tf)
        }
    }

    /// [`AttributeIndex::normalization_coefficient`] under the merged doc
    /// count.
    pub fn normalization_coefficient(&self) -> f64 {
        bm25_idf(self.doc.doc_count, 1) * bm25_tf(u32::MAX)
    }
}

/// Equality by *content*: document statistics plus every token's postings
/// and maintained `max_tf`, matched by token string. Interner numbering is
/// excluded on purpose: an incrementally maintained index and a rebuilt one
/// assign ids in different orders yet index the same data.
impl PartialEq for AttributeIndex {
    fn eq(&self, other: &AttributeIndex) -> bool {
        if self.doc_count != other.doc_count || self.total_len != other.total_len {
            return false;
        }
        if self.vocabulary_size() != other.vocabulary_size() {
            return false;
        }
        for (id, list) in self.lists.iter().enumerate() {
            if list.rows.is_empty() {
                continue;
            }
            let token = self.interner.resolve(id as u32);
            let theirs = other.interner.get(token).map(|o| &other.lists[o as usize]);
            match theirs {
                Some(o) if o.rows == list.rows && o.max_tf == list.max_tf => {}
                _ => return false,
            }
        }
        true
    }
}

/// BM25 term-frequency saturation with k1 = 1.2 (no length normalization:
/// attribute values are short and length effects washed out in testing).
pub fn bm25_tf(tf: u32) -> f64 {
    let tf = tf as f64;
    tf * 2.2 / (tf + 1.2)
}

/// BM25 idf with +1 smoothing so every match scores positively. The one
/// idf expression of the whole engine: [`AttributeIndex`] and the sharded
/// [`ScoreAccumulator`] both evaluate it, which is what pins their scores
/// bit-identical.
pub fn bm25_idf(doc_count: u64, df: u64) -> f64 {
    let n = doc_count.max(1) as f64;
    ((n - df as f64 + 0.5) / (df as f64 + 0.5) + 1.0).ln()
}

/// Map a raw BM25 score into the [0, 1] emission domain using the
/// setup-phase normalization coefficient. The one normalization expression
/// shared by [`crate::Database::search_score`] and the sharded scatter path.
pub fn normalize_score(raw: f64, coeff: f64) -> f64 {
    if coeff <= 0.0 {
        0.0
    } else {
        (raw / coeff).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(values: &[&str]) -> AttributeIndex {
        let mut ix = AttributeIndex::new();
        for (i, v) in values.iter().enumerate() {
            ix.add(RowId(i as u64), v);
        }
        ix
    }

    #[test]
    fn exact_match_scores_highest() {
        let ix = index(&["Gone with the Wind", "The Wind Rises", "Casablanca"]);
        let hits = ix.search("wind", 10);
        assert_eq!(hits.len(), 2);
        // Both contain "wind" once; scores equal, stable by row id.
        assert_eq!(hits[0].0, RowId(0));
        assert!(ix.score("casablanca") > ix.score("wind"));
    }

    #[test]
    fn phrase_is_conjunctive() {
        let ix = index(&["Gone with the Wind", "The Wind Rises"]);
        let hits = ix.search("gone wind", 10);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, RowId(0));
        assert!(ix.search("gone rises", 10).is_empty());
    }

    #[test]
    fn missing_token_scores_zero() {
        let ix = index(&["Casablanca"]);
        assert_eq!(ix.score("wind"), 0.0);
        assert!(ix.search("", 5).is_empty());
    }

    #[test]
    fn normalization_bounds_scores() {
        let ix = index(&["alpha beta", "alpha", "gamma gamma gamma"]);
        let coeff = ix.normalization_coefficient();
        for kw in ["alpha", "beta", "gamma", "alpha beta"] {
            // Single-token scores are <= coeff; phrases may exceed single-token
            // normalization but stay within token_count * coeff.
            let toks = kw.split(' ').count() as f64;
            assert!(ix.score(kw) <= coeff * toks + 1e-12, "kw={kw}");
        }
        assert!(coeff > 0.0);
    }

    #[test]
    fn tf_saturates() {
        assert!(bm25_tf(100) > bm25_tf(2));
        assert!(bm25_tf(u32::MAX) <= 2.2);
    }

    #[test]
    fn fast_probe_matches_reference_bitwise() {
        let ix = index(&[
            "Gone with the Wind",
            "wind wind wind",
            "The Wind Rises",
            "Casablanca",
            "wind of change",
        ]);
        for kw in ["wind", "casablanca", "gone wind", "rises", "zzz", "the"] {
            let fast = ix.score(kw);
            let reference = ix.score_reference(kw);
            assert_eq!(
                fast.to_bits(),
                reference.to_bits(),
                "score mismatch for {kw}: {fast} vs {reference}"
            );
            if let Some(p) = KeywordProbe::new(kw) {
                assert_eq!(ix.score_probe(&p).to_bits(), reference.to_bits());
                assert_eq!(ix.search_probe(&p, 3), ix.search(kw, 3));
            }
        }
    }

    #[test]
    fn bulk_build_matches_incremental() {
        let values = [
            "Gone with the Wind",
            "The Wind Rises",
            "Casablanca",
            "wind wind wind",
            "",
            "the of and", // stopwords only: never indexed
        ];
        let incremental = index(&values);
        let mut bulk = AttributeIndex::new();
        for (i, v) in values.iter().enumerate() {
            bulk.add_bulk(RowId(i as u64), v);
        }
        bulk.finish_build();
        assert_eq!(bulk, incremental, "bulk path diverges from incremental");
        // finish_build is idempotent, and out-of-order bulk rows sort.
        bulk.finish_build();
        assert_eq!(bulk, incremental);
        let mut reversed = AttributeIndex::new();
        for (i, v) in values.iter().enumerate().rev() {
            reversed.add_bulk(RowId(i as u64), v);
        }
        reversed.finish_build();
        assert_eq!(reversed, incremental, "bulk order must not matter");
    }

    #[test]
    fn remove_is_the_exact_inverse_of_add() {
        let values = ["Gone with the Wind", "The Wind Rises", "Casablanca"];
        let before = index(&values);
        let mut ix = before.clone();
        ix.add(RowId(9), "Wind of Change");
        ix.remove(RowId(9), "Wind of Change");
        assert_eq!(ix, before, "add then remove restores the index bitwise");
        // Removing a middle row then re-adding it matches a fresh rebuild.
        ix.remove(RowId(1), values[1]);
        ix.add(RowId(1), values[1]);
        assert_eq!(ix, before, "remove then re-add is order-stable");
        // Empty/stopword-only values were never indexed; removal is a no-op.
        ix.remove(RowId(5), "");
        ix.remove(RowId(5), "the");
        assert_eq!(ix, before);
    }

    #[test]
    fn remove_of_unindexed_text_does_not_poison_probes() {
        // `remove` interns the tokens of whatever text it is handed; a
        // token that was never indexed must keep probing as absent (this
        // used to panic with an out-of-bounds list index).
        let mut ix = index(&["Gone with the Wind"]);
        ix.add(RowId(5), "storm front");
        ix.remove(RowId(5), "storm front tempest");
        for kw in ["tempest", "storm", "storm tempest"] {
            assert_eq!(ix.postings(kw).len().min(1), ix.search(kw, 1).len());
            assert_eq!(
                ix.score(kw).to_bits(),
                ix.score_reference(kw).to_bits(),
                "probe vs reference for {kw}"
            );
        }
        assert_eq!(ix.postings("tempest"), &[]);
        assert_eq!(ix.score("tempest"), 0.0);
        assert_eq!(ix.doc_freq("tempest"), 0);
        assert!(ix.score("wind") > 0.0);
    }

    #[test]
    fn max_tf_tracks_removals() {
        let mut ix = AttributeIndex::new();
        ix.add(RowId(0), "wind");
        ix.add(RowId(1), "wind wind wind");
        let high = ix.score("wind");
        assert_eq!(high.to_bits(), ix.score_reference("wind").to_bits());
        ix.remove(RowId(1), "wind wind wind");
        // The max-tf row left; the O(1) probe must fall back to tf=1 and
        // still agree with the reference scan bitwise. (The raw score can
        // move either way: losing a document also shifts idf.)
        let after = ix.score("wind");
        assert_ne!(after.to_bits(), high.to_bits());
        assert_eq!(after.to_bits(), ix.score_reference("wind").to_bits());
    }

    #[test]
    fn interleaved_maintenance_matches_rebuild() {
        let mut live: Vec<(u64, &str)> = Vec::new();
        let mut ix = AttributeIndex::new();
        let script: &[(char, u64, &str)] = &[
            ('a', 0, "alpha beta"),
            ('a', 1, "beta gamma"),
            ('a', 2, "alpha alpha"),
            ('d', 1, "beta gamma"),
            ('a', 3, "delta"),
            ('d', 0, "alpha beta"),
            ('a', 4, "beta beta gamma"),
            ('d', 3, "delta"),
        ];
        for &(op, rid, text) in script {
            match op {
                'a' => {
                    ix.add(RowId(rid), text);
                    live.push((rid, text));
                }
                _ => {
                    ix.remove(RowId(rid), text);
                    live.retain(|(r, _)| *r != rid);
                }
            }
            let mut rebuilt = AttributeIndex::new();
            live.sort_by_key(|(r, _)| *r);
            for &(r, t) in &live {
                rebuilt.add(RowId(r), t);
            }
            assert_eq!(ix, rebuilt, "divergence after op {op} r{rid}");
        }
    }

    #[test]
    fn churn_compacts_dead_tokens() {
        // Delete-heavy churn over distinct values must not grow the
        // interner without bound: once drained tokens dominate, the index
        // compacts down to the live vocabulary, and every probe still
        // answers identically (including against a fresh rebuild).
        let mut ix = AttributeIndex::new();
        ix.add(RowId(0), "keeper alpha");
        for i in 0..600u64 {
            let text = format!("churn{i} transient{i}");
            ix.add(RowId(1000 + i), &text);
            ix.remove(RowId(1000 + i), &text);
        }
        assert!(
            ix.interner.len() < 100,
            "interner retained {} tokens after churn",
            ix.interner.len()
        );
        assert_eq!(ix.vocabulary_size(), 2);
        assert!(ix.score("keeper") > 0.0);
        assert_eq!(ix.score("churn5"), 0.0);
        assert_eq!(ix.postings("transient9"), &[]);
        let mut rebuilt = AttributeIndex::new();
        rebuilt.add(RowId(0), "keeper alpha");
        assert_eq!(ix, rebuilt);
        // Removing never-indexed text does not intern its tokens. (Two
        // tokens, matching the one remaining doc's length: the documented
        // contract is that removals mirror adds, so the bookkeeping here
        // stays in range even for this deliberately mismatched call.)
        let before = ix.interner.len();
        ix.remove(RowId(77), "phantom zzz");
        assert_eq!(ix.interner.len(), before);
    }

    /// Score a probe from per-partition accumulators the way the sharded
    /// engine does: merge integer partials, evaluate once, scatter phrases
    /// under injected global idfs, gather the max.
    fn merged_score(parts: &[&AttributeIndex], probe: &KeywordProbe) -> f64 {
        let mut acc = ScoreAccumulator::new(probe.tokens().len());
        for ix in parts {
            acc.absorb(ix, probe);
        }
        let raw = if probe.tokens().len() == 1 {
            acc.single_token_raw()
        } else if acc.any_token_absent() {
            0.0
        } else {
            let idfs = acc.idfs();
            parts
                .iter()
                .filter_map(|ix| ix.best_conjunctive_score(probe.tokens(), &idfs))
                .fold(0.0, f64::max)
        };
        normalize_score(raw, acc.normalization_coefficient())
    }

    #[test]
    fn merged_partials_match_whole_index_bitwise() {
        let values = [
            "Gone with the Wind",
            "wind wind wind",
            "The Wind Rises",
            "Casablanca",
            "wind of change",
            "gone wind gone",
            "storm front",
        ];
        let whole = index(&values);
        // Three partitions, deliberately uneven, rows interleaved.
        for stride in [2usize, 3] {
            let mut parts: Vec<AttributeIndex> =
                (0..stride).map(|_| AttributeIndex::new()).collect();
            for (i, v) in values.iter().enumerate() {
                parts[i % stride].add(RowId(i as u64), v);
            }
            let refs: Vec<&AttributeIndex> = parts.iter().collect();
            for kw in [
                "wind",
                "casablanca",
                "gone wind",
                "storm front",
                "zzz",
                "wind zzz",
            ] {
                let Some(probe) = KeywordProbe::new(kw) else {
                    continue;
                };
                let whole_score =
                    normalize_score(whole.score_probe(&probe), whole.normalization_coefficient());
                let merged = merged_score(&refs, &probe);
                assert_eq!(
                    merged.to_bits(),
                    whole_score.to_bits(),
                    "kw={kw} stride={stride}: merged {merged} vs whole {whole_score}"
                );
            }
            // Vocabulary and per-token integer state also merge exactly.
            let mut union: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
            for p in &parts {
                union.extend(p.live_tokens().iter().map(|t| t.to_string()));
            }
            let whole_toks: Vec<String> =
                whole.live_tokens().iter().map(|t| t.to_string()).collect();
            assert_eq!(union.into_iter().collect::<Vec<_>>(), whole_toks);
            for tok in whole.live_tokens() {
                let mut merged = TokenPartial::default();
                for p in &parts {
                    merged.merge(p.token_partial(tok));
                }
                assert_eq!(merged.df, whole.doc_freq(tok), "df of {tok}");
                assert_eq!(merged, whole.token_partial(tok), "partial of {tok}");
            }
            let mut doc = DocPartial::default();
            for p in &parts {
                doc.merge(p.doc_partial());
            }
            assert_eq!(doc, whole.doc_partial());
        }
    }

    #[test]
    fn reset_accumulator_equals_a_fresh_one_after_a_dirty_probe() {
        let dirty_ix = index(&["wind wind wind", "gone with the wind", "storm"]);
        let clean_ix = index(&["The Wind Rises", "Casablanca"]);
        for kw in ["wind", "gone wind", "zzz"] {
            let probe = KeywordProbe::new(kw).unwrap();
            let mut reused = ScoreAccumulator::new(probe.tokens().len());
            reused.absorb(&dirty_ix, &probe);
            reused.reset();
            assert_eq!(reused, ScoreAccumulator::new(probe.tokens().len()));
            reused.absorb(&clean_ix, &probe);
            let mut fresh = ScoreAccumulator::new(probe.tokens().len());
            fresh.absorb(&clean_ix, &probe);
            assert_eq!(reused, fresh, "kw={kw}");
            assert_eq!(
                reused.normalization_coefficient().to_bits(),
                fresh.normalization_coefficient().to_bits()
            );
        }
    }

    #[test]
    fn empty_partition_set_scores_zero() {
        let probe = KeywordProbe::new("wind").unwrap();
        assert_eq!(merged_score(&[], &probe), 0.0);
        let empty = AttributeIndex::new();
        assert_eq!(merged_score(&[&empty, &empty], &probe), 0.0);
    }

    #[test]
    fn doc_stats() {
        let ix = index(&["a b c x y", "x"]);
        // "a" is a stopword, so first doc indexes fewer tokens than written.
        assert_eq!(ix.doc_count(), 2);
        assert!(ix.avg_len() > 0.0);
        assert_eq!(ix.doc_freq("x"), 2);
        assert_eq!(ix.doc_freq("zzz"), 0);
        assert_eq!(ix.vocabulary_size(), 4);
    }
}
