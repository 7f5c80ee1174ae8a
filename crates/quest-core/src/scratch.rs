//! [`SearchScratch`]: reusable per-query working memory for the uncached
//! search hot path.
//!
//! One uncached search used to allocate a fresh emission matrix, a fresh
//! list-Viterbi lattice per operating mode, and re-normalize every keyword
//! once per attribute probe. A `SearchScratch` owns all of that state and
//! is threaded through the pipeline —
//!
//! * **forward emission scoring** — prepared keywords
//!   ([`crate::wrapper::PreparedKeyword`]), the reused emission matrix, and
//!   the compiled metadata matcher's per-keyword buffers (characters,
//!   packed trigrams, similarity rows) for first-sight keywords;
//! * **decoding** — one [`quest_hmm::ListDecoder`] whose flat lattice
//!   buffers serve both HMM operating modes over the *same* emission
//!   matrix, with the admissible top-k prune;
//! * **backward interpretation** — a per-query memo from Steiner terminal
//!   sets to interpretation lists (because distinct configurations of one
//!   query frequently anchor to identical terminals), plus the flat
//!   [`quest_graph::SteinerScratch`] buffers (frontier heap, state tables,
//!   pooled edge lists) reused by the pruned enumeration on a
//!   template-memo miss;
//! * **assembly** — the flattened `(configuration, interpretation)` pair
//!   and score buffers reused while ranking explanations.
//!
//! Results are bit-identical with or without scratch reuse (pinned by
//! `tests/perf_identity.rs`); the scratch only changes where the memory
//! comes from and how much redundant work is skipped. Create one per
//! worker thread (or per engine use-site) and pass it to the `*_with`
//! methods of [`crate::Quest`]; the convenience methods without a scratch
//! argument create a throwaway one per call.

use std::sync::Arc;

use quest_graph::{NodeId, SteinerScratch};
use quest_hmm::{Emissions, ListDecoder};

use crate::backward::Interpretation;
use crate::forward::MatchScratch;
use crate::wrapper::PreparedKeyword;

/// Reusable buffers for one in-flight search. See the module docs.
#[derive(Debug, Default)]
pub struct SearchScratch {
    /// Shared list-Viterbi decoder scratch (both operating modes).
    pub(crate) decoder: ListDecoder,
    /// The query's emission matrix, rows reused across queries.
    pub(crate) emissions: Emissions,
    /// One prepared keyword per query keyword.
    pub(crate) prepared: Vec<PreparedKeyword>,
    /// Keyword-side buffers of the compiled metadata matcher, used when a
    /// keyword misses the engine's metadata memo.
    pub(crate) matcher: MatchScratch,
    /// Per-query memo: Steiner terminal set → the join-template memo's
    /// shared interpretations (no second copy). Valid only within one
    /// search (cleared by `Quest::search_query_with`); the engine state is
    /// locked for that duration by every caller.
    pub(crate) steiner_memo: Vec<(Vec<NodeId>, Arc<Vec<Interpretation>>)>,
    /// Flat graph scratch (frontier heap, state tables, pooled edge lists)
    /// for the pruned Steiner enumeration on template-memo misses.
    pub(crate) steiner: SteinerScratch,
    /// Assembly: flattened `(configuration index, interpretation)` pairs.
    pub(crate) assemble_pairs: Vec<(usize, Interpretation)>,
    /// Assembly: per-configuration scores for the DST combination.
    pub(crate) config_scores: Vec<f64>,
    /// Assembly: `(configuration index, interpretation score)` pairs.
    pub(crate) pair_scores: Vec<(usize, f64)>,
}

impl SearchScratch {
    /// Empty scratch; buffers grow to their steady-state sizes on first
    /// use and are retained afterwards.
    pub fn new() -> SearchScratch {
        SearchScratch::default()
    }

    /// The emission matrix of the last forward pass run through this
    /// scratch (one row per keyword, one column per vocabulary state) —
    /// read by the identity suites that compare it to the reference rows.
    pub fn emissions(&self) -> &Emissions {
        &self.emissions
    }

    /// Drop the per-query memo state. [`crate::Quest::search_query_with`]
    /// calls this itself; callers that drive the stage APIs directly
    /// ([`crate::Quest::forward_pass_with`] +
    /// [`crate::Quest::backward_pass_with`], as the serving layer does)
    /// must call it once at the start of each search, because memoized
    /// interpretations are only valid for one engine state.
    pub fn reset_query_state(&mut self) {
        self.steiner_memo.clear();
    }

    /// Memoized interpretations lookup for a terminal set.
    pub(crate) fn memoized_interpretations(
        &self,
        terminals: &[NodeId],
    ) -> Option<&Arc<Vec<Interpretation>>> {
        self.steiner_memo
            .iter()
            .find(|(t, _)| t.as_slice() == terminals)
            .map(|(_, i)| i)
    }
}
