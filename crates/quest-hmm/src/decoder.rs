//! [`ListDecoder`]: the hot-path list Viterbi — scratch-reusing, sort-free
//! and top-k-pruned, bit-identical to
//! [`list_viterbi()`](crate::list_viterbi::list_viterbi).
//!
//! The textbook parallel LVA in `list_viterbi.rs` allocates a fresh lattice
//! (`Vec<Vec<Vec<Entry>>>`) per decode, takes `ln(transition)` per pair per
//! call, and fills a cell by collecting every `(predecessor, rank)`
//! candidate, stable-sorting them and keeping the first `k`. The lattice of
//! a keyword query is tiny (tens of states, a few steps, `k = 5`), so what
//! that pays for is fixed per-candidate overhead, not data. This decoder
//! keeps all DP state in flat reusable buffers (no allocation in steady
//! state beyond the returned paths) and is built on three facts:
//!
//! * **The log model is compiled once.** [`Hmm`] carries `ln(initial)` and
//!   `ln(transition)` beside the linear tables, written by the same
//!   `viterbi::ln` the reference decoder calls; the passes read
//!   them and take no logarithm of the model.
//! * **Live lists.** `prepare` records, per step, the states whose emission
//!   is non-zero, in ascending order, in one flat buffer. Every loop over
//!   states and over predecessors walks those lists, so a step costs
//!   `live[t-1] × live[t]` by construction; a dead cell is never written,
//!   read or reset. (Keyword rows are bimodal: a handful of live states, or
//!   — for a keyword that matches nothing and gets the uniform emission
//!   floor — all of them.)
//! * **Bounded stable selection.** A cell's candidates are met in
//!   `(predecessor, rank)` order, the reference's enumeration order, and go
//!   straight into the cell's `k` slots: each is inserted *behind* every
//!   kept entry whose score is ≥ its own, and a candidate that does not
//!   strictly beat the last slot of a full cell is dropped. That is what a
//!   stable descending sort followed by "keep the first `k`" does — equal
//!   scores keep their arrival order, and a late tie with the k-th entry
//!   loses to it — so sequences, order and score bits are unchanged. A
//!   dropped candidate also *ends its predecessor's rank list*: ranks
//!   descend in score and `x ↦ (x + tp) + e` is monotone, so every later
//!   rank would be dropped too, ties included. The final merge is the same
//!   selection over a virtual cell whose predecessors are the final states.
//!
//! On large lattices an **admissible prune** additionally skips partial
//! paths provably outside the global top-k:
//!
//! 1. A standard 1-best Viterbi forward pass computes, per final state, the
//!    best full-path score — each candidate by *exactly* the list DP's
//!    floating-point operations, `(score + tp) + e`, so each value is
//!    bitwise equal to that state's rank-0 final score. The k-th largest of
//!    these, `L`, is a score actually achieved by k distinct state
//!    sequences: a certified lower bound on the true k-th best score.
//! 2. A backward max-product pass computes `bound[t][s]`: an upper bound on
//!    the score any partial path ending in `(t, s)` can still gain.
//! 3. During the list DP, a candidate with `score + bound[t][s] < L - ε`
//!    can never appear in the global top-k and is skipped — and, scores
//!    descending within a rank list, ends its predecessor like any other
//!    dropped candidate.
//!
//! **Why the prune keeps the output bit-identical, ties included.** All
//! candidates at one `(t, s)` share the same `bound[t][s]`, so the prune
//! threshold is a pure score cutoff per cell: it removes a *suffix* of the
//! cell's candidates in descending order, never reorders survivors. Every
//! prefix of a true top-k path satisfies `score + bound ≥ final score ≥ L`,
//! so it survives and keeps the per-cell rank it has in the unpruned run;
//! everything removed has every completion strictly below `L` and thus
//! below the k-th best, ties notwithstanding. The margin `ε` (1e-6 in log
//! space) exists only to dominate worst-case floating-point drift between
//! the backward bound's association order and the forward DP's — many
//! orders of magnitude larger than the attainable rounding error, and far
//! smaller than any score gap that could matter.
//!
//! **When the prune engages.** Its two extra passes cost about two visits
//! of every live `(p, s)` pair; what they save is selection work in the
//! list pass, which grows with `k`. [`ListDecoder::decode`] therefore
//! measures the lattice it was actually given — candidate work
//! `Σ_t live[t-1] · live[t] · k` over the live lists — against
//! `PRUNE_ENGAGE_WORK`, so a sparse lattice over a large vocabulary never
//! pays for the bound passes. The prune is lossless, so the switch is
//! invisible in the output; [`ListDecoder::decode_pruned`] forces it on for
//! tests.
//!
//! Both equivalences — selection ≡ sort-and-truncate, pruned ≡ unpruned —
//! are pinned bitwise against `list_viterbi` by the quest-hmm property
//! suite (random models, all-tied floor rows, single-live-state rows,
//! blocked transitions, one decoder reused across shapes) and on every
//! query of the `tests/perf_identity.rs` tail streams.
//!
//! **Not done here:** collapsing a uniform floor step into a precomputed
//! two-hop transition table. A floor row adds the same constant to every
//! path, but `(a + b) + c ≠ a + (b + c)` in `f64`, so a table built ahead
//! of time cannot reproduce the reference's score bits.

use crate::error::HmmError;
use crate::model::Hmm;
use crate::viterbi::{ln, DecodedPath};

/// Slack subtracted from the pruning bound, in log-probability units. See
/// the module docs: it dominates floating-point drift without ever pruning
/// a candidate that could reach the top-k.
const PRUNE_MARGIN: f64 = 1e-6;

/// Candidate work (`Σ_t live[t-1] · live[t] · k`, see
/// [`ListDecoder::prune_pays`]) from which the prune engages.
///
/// Measured crossover (6,000 queries of the repo benchmark's tail stream on
/// the 53-state IMDB vocabulary, `k = 5`, µs per decode, plain / pruned;
/// the `list_decoder` group of `cargo bench -p quest-bench --bench modules`
/// reproduces one lattice per shape): every shape whose work is at most
/// 3,710 — a floor row beside sparse rows — is faster plain (2 keywords, 1
/// floor row: 1.07 / 1.20; 3 keywords, 1 floor row: 1.41 / 1.48), every
/// shape with two adjacent floor rows, 14,045 and up, is level or faster
/// pruned (2 keywords: 10.3 / 9.3; 3 keywords, 3 floor rows: 19.8 / 17.5).
/// The value sits between the two groups.
///
/// Work is a proxy. What the prune saves is insertions, and those grow
/// with `k` relative to the live count: on dense lattices of the DBLP (39),
/// IMDB (53) and Mondial (119 states) models the pruned pass costs ≈ 3.3–3.7
/// ns per live `(p, s)` pair whatever `k` is, the plain one ≈ 2.7–3.5 ns at
/// `k = 5`, ≈ 4.5 at 10 and ≈ 9 at 20. So above the threshold the prune is
/// within ±15 % at `k = 5` (behind by 7–20 % on Mondial's 119 states, where
/// few of a cell's candidates are ever inserted), behind by 10–30 % at
/// `k ≤ 3`, and ahead 1.3–2.4x at `k = 10`, 2–3.4x at `k = 20`.
const PRUNE_ENGAGE_WORK: usize = 8_192;

/// One k-best lattice entry: score plus backpointer `(prev_state,
/// prev_rank)`.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    score: f64,
    prev_state: u32,
    prev_rank: u32,
}

/// Insert `cand` into a k-best cell whose last slot it beats: `slots` is
/// the cell's `k` slots, of which the first `*len` are kept entries in
/// descending score order. The candidate goes behind every kept entry whose
/// score is ≥ its own, pushing the last one out of a full cell. Returns the
/// score a later candidate must beat: the last slot's once the cell is
/// full, `-inf` before.
///
/// Candidates are met in enumeration order, and the caller drops one that
/// does not beat the returned score, so the cell always holds what "stable
/// sort descending, keep the first k" would: equal scores stay in the order
/// they arrived, and a late tie with the last slot loses to it.
#[inline]
fn insert(slots: &mut [Entry], len: &mut usize, cand: Entry) -> f64 {
    let k = slots.len();
    if *len < k {
        *len += 1;
    }
    let mut i = *len - 1;
    while i > 0 && slots[i - 1].score < cand.score {
        slots[i] = slots[i - 1];
        i -= 1;
    }
    slots[i] = cand;
    if *len == k {
        slots[k - 1].score
    } else {
        f64::NEG_INFINITY
    }
}

/// The live states (non-zero emission) of every step, ascending within a
/// step, back to back in one reused buffer. A field of its own so a pass
/// can hold a step's list while it writes the decoder's other buffers.
#[derive(Debug, Clone, Default)]
struct LiveLists {
    states: Vec<u32>,
    /// Step `t`'s list is `states[start[t]..start[t + 1]]`.
    start: Vec<usize>,
}

impl LiveLists {
    fn steps(&self) -> usize {
        self.start.len() - 1
    }

    fn at(&self, t: usize) -> &[u32] {
        &self.states[self.start[t]..self.start[t + 1]]
    }

    fn count(&self, t: usize) -> usize {
        self.start[t + 1] - self.start[t]
    }
}

/// Reusable list-Viterbi decoder. Create once (per worker thread, engine,
/// or query scratch) and call [`ListDecoder::decode`] repeatedly; all DP
/// buffers are retained between calls and grow to the high-water mark of
/// `steps × states × k`.
#[derive(Debug, Clone, Default)]
pub struct ListDecoder {
    /// `ln(emission)` matrix, row-major `t × n`.
    ln_emis: Vec<f64>,
    /// Which states each step has to look at.
    live: LiveLists,
    /// 1-best forward scores, two rolling rows.
    delta: Vec<f64>,
    delta_next: Vec<f64>,
    /// Backward completion bounds, row-major `t × n`.
    bounds: Vec<f64>,
    /// Lattice entries, `k` slots per `(t, s)` cell.
    entries: Vec<Entry>,
    /// Kept entry count per `(t, s)` cell.
    lens: Vec<u32>,
    /// The global top-k: a cell whose predecessors are the final states.
    finals: Vec<Entry>,
    /// Scratch for the k-th-largest final-delta selection.
    tops: Vec<f64>,
}

impl ListDecoder {
    /// A decoder with empty buffers.
    pub fn new() -> ListDecoder {
        ListDecoder::default()
    }

    /// Top-`k` most probable state sequences, best first — bit-identical to
    /// [`list_viterbi()`](crate::list_viterbi::list_viterbi) on the same inputs (scores, sequences, and
    /// order, ties included).
    pub fn decode(
        &mut self,
        model: &Hmm,
        emissions: &[Vec<f64>],
        k: usize,
    ) -> Result<Vec<DecodedPath>, HmmError> {
        self.decode_inner(model, emissions, k, false)
    }

    /// [`ListDecoder::decode`] with the prune forced on regardless of
    /// lattice size. Same output, by construction; the property suite uses
    /// this to pin prune losslessness on models small enough to brute-force.
    pub fn decode_pruned(
        &mut self,
        model: &Hmm,
        emissions: &[Vec<f64>],
        k: usize,
    ) -> Result<Vec<DecodedPath>, HmmError> {
        self.decode_inner(model, emissions, k, true)
    }

    fn decode_inner(
        &mut self,
        model: &Hmm,
        emissions: &[Vec<f64>],
        k: usize,
        force_prune: bool,
    ) -> Result<Vec<DecodedPath>, HmmError> {
        model.check_emissions(emissions)?;
        let n = model.n_states();
        let t_len = emissions.len();
        self.prepare(emissions, n);
        // No lattice has more paths than the product of its live counts, so
        // a larger `k` only asks for slots nothing can fill.
        let k = k.min(self.path_limit());
        if k == 0 {
            return Ok(Vec::new());
        }
        let mut lower = f64::NEG_INFINITY;
        if force_prune || self.prune_pays(k) {
            lower = self.one_best_lower_bound(model, n, t_len, k);
            if lower != f64::NEG_INFINITY {
                self.backward_bounds(model, n, t_len);
            }
        }
        self.list_pass(model, n, t_len, k, lower);
        Ok(self.merge_and_backtrack(n, t_len, k))
    }

    /// Fill the emission logs and the live lists. Nothing else is reset:
    /// every pass writes each live cell before any pass reads it, and no
    /// pass reads a dead one.
    fn prepare(&mut self, emissions: &[Vec<f64>], n: usize) {
        self.ln_emis.clear();
        self.live.states.clear();
        self.live.start.clear();
        self.live.start.push(0);
        for row in emissions {
            for (s, &e) in row.iter().enumerate() {
                let le = ln(e);
                self.ln_emis.push(le);
                if le != f64::NEG_INFINITY {
                    self.live.states.push(s as u32);
                }
            }
            self.live.start.push(self.live.states.len());
        }
        let cells = emissions.len() * n;
        self.lens.resize(cells, 0);
        self.bounds.resize(cells, 0.0);
        self.delta.resize(n, 0.0);
        self.delta_next.resize(n, 0.0);
    }

    /// Product of the steps' live counts: an upper bound on the number of
    /// positive-probability paths.
    fn path_limit(&self) -> usize {
        (0..self.live.steps()).fold(1usize, |paths, t| paths.saturating_mul(self.live.count(t)))
    }

    /// Whether the 1-best and bound passes are worth running on the lattice
    /// `prepare` just laid out: the `(predecessor, rank)` candidates the
    /// list pass may have to look at, `Σ_t live[t-1] · live[t] · k`, reach
    /// [`PRUNE_ENGAGE_WORK`]. Two cases can never pay and are left to the
    /// plain pass whatever their size: `k = 1`, where the list pass *is*
    /// the 1-best pass, and fewer than `k` live final states, where no k-th
    /// best final score exists to prune against.
    fn prune_pays(&self, k: usize) -> bool {
        let live = &self.live;
        let t_len = live.steps();
        let pairs: usize = (1..t_len).map(|t| live.count(t - 1) * live.count(t)).sum();
        k > 1 && live.count(t_len - 1) >= k && pairs.saturating_mul(k) >= PRUNE_ENGAGE_WORK
    }

    /// 1-best forward pass; returns the certified lower bound `L` on the
    /// k-th best final score (`-inf` when fewer than `k` final states are
    /// reachable — no pruning then).
    fn one_best_lower_bound(&mut self, model: &Hmm, n: usize, t_len: usize, k: usize) -> f64 {
        let ln_init = model.ln_initial_dist();
        let ln_trans = model.ln_transitions();
        for &s in self.live.at(0) {
            let s = s as usize;
            self.delta[s] = ln_init[s] + self.ln_emis[s];
        }
        for t in 1..t_len {
            let cur = self.live.at(t);
            for &s in cur {
                self.delta_next[s as usize] = f64::NEG_INFINITY;
            }
            // Predecessor outside, state inside: every state's running
            // maximum is its own, so the inner loop carries no dependency
            // and reads one transition row front to back. A maximum does
            // not depend on the order its candidates are met in.
            let emis = &self.ln_emis[t * n..(t + 1) * n];
            for &p in self.live.at(t - 1) {
                let d = self.delta[p as usize];
                let row = &ln_trans[p as usize * n..(p as usize + 1) * n];
                for &s in cur {
                    let s = s as usize;
                    // Same association as the list DP: (score + tp) + e. A
                    // dead prefix or a blocked transition gives -inf, which
                    // never beats the running maximum.
                    let cand = (d + row[s]) + emis[s];
                    let best = self.delta_next[s];
                    self.delta_next[s] = if cand > best { cand } else { best };
                }
            }
            std::mem::swap(&mut self.delta, &mut self.delta_next);
        }
        self.tops.clear();
        for &s in self.live.at(t_len - 1) {
            let d = self.delta[s as usize];
            if d != f64::NEG_INFINITY {
                self.tops.push(d);
            }
        }
        if self.tops.len() < k {
            return f64::NEG_INFINITY;
        }
        let (_, kth, _) = self
            .tops
            .select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a));
        *kth
    }

    /// Backward max-product completion bounds: `bounds[t][s]` ≥ anything a
    /// partial path at `(t, s)` can still add before the final step.
    fn backward_bounds(&mut self, model: &Hmm, n: usize, t_len: usize) {
        let ln_trans = model.ln_transitions();
        for &s in self.live.at(t_len - 1) {
            self.bounds[(t_len - 1) * n + s as usize] = 0.0;
        }
        for t in (0..t_len - 1).rev() {
            let next = self.live.at(t + 1);
            for &p in self.live.at(t) {
                let p = p as usize;
                let row = &ln_trans[p * n..(p + 1) * n];
                let mut best = f64::NEG_INFINITY;
                for &s in next {
                    let s = s as usize;
                    let via =
                        (row[s] + self.ln_emis[(t + 1) * n + s]) + self.bounds[(t + 1) * n + s];
                    if via > best {
                        best = via;
                    }
                }
                self.bounds[t * n + p] = best;
            }
        }
    }

    /// The parallel-LVA pass over the flat lattice: every live cell's `k`
    /// best partial paths by bounded selection, pruned against `lower` when
    /// that is finite.
    fn list_pass(&mut self, model: &Hmm, n: usize, t_len: usize, k: usize, lower: f64) {
        let prune = lower != f64::NEG_INFINITY;
        let ln_init = model.ln_initial_dist();
        let ln_trans = model.ln_transitions();
        if self.entries.len() < t_len * n * k {
            self.entries.resize(t_len * n * k, Entry::default());
        }
        // Step 0: one entry per reachable state, scored exactly as the
        // reference decoder does: ln(init) + ln(e_0).
        for &s in self.live.at(0) {
            let s = s as usize;
            let init_score = ln_init[s] + self.ln_emis[s];
            let dead = init_score == f64::NEG_INFINITY
                || (prune && init_score + self.bounds[s] < lower - PRUNE_MARGIN);
            self.lens[s] = u32::from(!dead);
            self.entries[s * k] = Entry {
                score: init_score,
                prev_state: u32::MAX,
                prev_rank: 0,
            };
        }
        for t in 1..t_len {
            // Cells of step t - 1 are read, cells of step t written.
            let (done, cur) = self.entries.split_at_mut(t * n * k);
            let prev = self.live.at(t - 1);
            for &s in self.live.at(t) {
                let s = s as usize;
                let e = self.ln_emis[t * n + s];
                let threshold = if prune {
                    (lower - PRUNE_MARGIN) - self.bounds[t * n + s]
                } else {
                    f64::NEG_INFINITY
                };
                let slots = &mut cur[s * k..(s + 1) * k];
                let mut len = 0usize;
                let mut cut = f64::NEG_INFINITY;
                for &p in prev {
                    let p = p as usize;
                    let tp = ln_trans[p * n + s];
                    if tp == f64::NEG_INFINITY {
                        continue;
                    }
                    let cell = (t - 1) * n + p;
                    let ranks = &done[cell * k..cell * k + self.lens[cell] as usize];
                    for (rank, pe) in ranks.iter().enumerate() {
                        let score = (pe.score + tp) + e;
                        // Ranks descend in score and `x ↦ (x + tp) + e` is
                        // monotone: once one rank fails the prune or the
                        // cell's last slot, every later rank of this
                        // predecessor fails too, ties included.
                        if score < threshold || score <= cut {
                            break;
                        }
                        let cand = Entry {
                            score,
                            prev_state: p as u32,
                            prev_rank: rank as u32,
                        };
                        cut = insert(slots, &mut len, cand);
                    }
                }
                self.lens[t * n + s] = len as u32;
            }
        }
    }

    /// Select the global top-k over the final step's per-state lists —
    /// met in `(state, rank)` order, the reference decoder's — and
    /// backtrack each path.
    fn merge_and_backtrack(&mut self, n: usize, t_len: usize, k: usize) -> Vec<DecodedPath> {
        self.finals.resize(k, Entry::default());
        let mut len = 0usize;
        let mut cut = f64::NEG_INFINITY;
        for &s in self.live.at(t_len - 1) {
            let cell = (t_len - 1) * n + s as usize;
            let ranks = &self.entries[cell * k..cell * k + self.lens[cell] as usize];
            for (rank, pe) in ranks.iter().enumerate() {
                if pe.score <= cut {
                    break; // ranks descend: the rest of this state loses too
                }
                let cand = Entry {
                    score: pe.score,
                    prev_state: s,
                    prev_rank: rank as u32,
                };
                cut = insert(&mut self.finals, &mut len, cand);
            }
        }
        let mut out = Vec::with_capacity(len);
        for last in &self.finals[..len] {
            let mut states = vec![0usize; t_len];
            let (mut s, mut r) = (last.prev_state as usize, last.prev_rank as usize);
            for t in (0..t_len).rev() {
                states[t] = s;
                let e = self.entries[(t * n + s) * k + r];
                s = e.prev_state as usize;
                r = e.prev_rank as usize;
            }
            out.push(DecodedPath {
                states,
                log_prob: last.score,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list_viterbi::list_viterbi;

    fn model() -> Hmm {
        Hmm::from_distributions(vec![0.6, 0.4], vec![0.7, 0.3, 0.4, 0.6]).unwrap()
    }

    fn assert_bitwise_equal(model: &Hmm, emissions: &[Vec<f64>], k: usize) {
        let reference = list_viterbi(model, emissions, k).unwrap();
        let mut decoder = ListDecoder::new();
        for forced in [false, true] {
            let got = if forced {
                decoder.decode_pruned(model, emissions, k).unwrap()
            } else {
                decoder.decode(model, emissions, k).unwrap()
            };
            assert_eq!(got.len(), reference.len(), "path count (k={k})");
            for (a, b) in got.iter().zip(&reference) {
                assert_eq!(a.states, b.states, "state sequence (k={k} forced={forced})");
                assert_eq!(
                    a.log_prob.to_bits(),
                    b.log_prob.to_bits(),
                    "score bits (k={k} forced={forced}): {} vs {}",
                    a.log_prob,
                    b.log_prob
                );
            }
        }
    }

    #[test]
    fn matches_reference_on_textbook_example() {
        let m = model();
        let e = vec![vec![0.1, 0.6], vec![0.4, 0.3], vec![0.5, 0.1]];
        for k in [1, 2, 4, 8, 16] {
            assert_bitwise_equal(&m, &e, k);
        }
    }

    #[test]
    fn matches_reference_under_floor_ties() {
        // Uniform "emission floor" rows create massive exact score ties —
        // the case where a sloppy prune would reorder the output.
        let m = Hmm::uniform(4).unwrap();
        let e = vec![vec![1e-6; 4], vec![1e-6; 4], vec![1e-6; 4]];
        for k in [1, 3, 5, 64] {
            assert_bitwise_equal(&m, &e, k);
        }
    }

    #[test]
    fn matches_reference_with_blocked_states() {
        let m = model();
        let e = vec![vec![0.5, 0.0], vec![0.0, 0.9], vec![0.5, 0.5]];
        for k in [1, 2, 8] {
            assert_bitwise_equal(&m, &e, k);
        }
    }

    #[test]
    fn engagement_follows_live_work_not_vocabulary_size() {
        let big = Hmm::uniform(1024).unwrap();
        let mut d = ListDecoder::new();
        // Three rows of five live states among 1,024: 2 · 25 · 5 candidates.
        let sparse: Vec<Vec<f64>> = (0..3)
            .map(|t| {
                let mut row = vec![0.0; 1024];
                (0..5).for_each(|i| row[(t * 331 + i * 197) % 1024] = 0.1 * (i + 1) as f64);
                row
            })
            .collect();
        d.prepare(&sparse, 1024);
        assert!(!d.prune_pays(5), "sparse rows run the plain pass");
        let dense = vec![vec![1e-6; 1024]; 3];
        d.prepare(&dense, 1024);
        assert!(d.prune_pays(5), "dense rows engage the prune");
        assert!(!d.prune_pays(1), "k = 1: the list pass is the 1-best pass");
        // Dense steps ending in a row with fewer than k live states: no
        // k-th best final score to prune against.
        let narrow_end = [dense[0].clone(), dense[1].clone(), sparse[0].clone()];
        d.prepare(&narrow_end, 1024);
        assert!(d.prune_pays(5) && !d.prune_pays(6));
        // The shipped shape: 53 states, k = 5. One floor row between two
        // rows of a few live states stays plain; two adjacent floor rows
        // engage.
        let few = |live: usize| {
            let mut row = vec![0.0; 53];
            row[..live].fill(0.2);
            row
        };
        d.prepare(&[few(7), vec![1e-6; 53], few(7)], 53);
        assert!(!d.prune_pays(5));
        d.prepare(&[few(7), vec![1e-6; 53], vec![1e-6; 53]], 53);
        assert!(d.prune_pays(5));
        d.prepare(&[vec![1e-6; 53]], 53);
        assert!(!d.prune_pays(usize::MAX), "one step: nothing to prune");
        assert_bitwise_equal(&big, &sparse, 5);
    }

    #[test]
    fn k_beyond_the_path_count_is_capped_not_allocated() {
        let m = model();
        let e = vec![vec![0.5, 0.0], vec![0.3, 0.9], vec![0.5, 0.5]];
        let reference = list_viterbi(&m, &e, 64).unwrap();
        assert_eq!(reference.len(), 4);
        let mut d = ListDecoder::new();
        for forced in [false, true] {
            let got = if forced {
                d.decode_pruned(&m, &e, usize::MAX).unwrap()
            } else {
                d.decode(&m, &e, usize::MAX).unwrap()
            };
            assert_eq!(got, reference);
            assert!(d.entries.len() <= 3 * 2 * 4, "k capped at the path count");
        }
    }

    #[test]
    fn infeasible_and_k0() {
        let m = model();
        let mut d = ListDecoder::new();
        assert!(d.decode(&m, &[vec![0.0, 0.0]], 3).unwrap().is_empty());
        assert!(d
            .decode(&m, &[vec![0.5, 0.5], vec![0.4, 0.4]], 0)
            .unwrap()
            .is_empty());
        assert!(d.decode(&m, &[], 3).is_err(), "empty emissions rejected");
    }

    #[test]
    fn scratch_reuse_across_varied_shapes() {
        // Same decoder instance across different n, t, k: buffers must not
        // leak state between decodes.
        let mut d = ListDecoder::new();
        let small = model();
        let big = Hmm::uniform(7).unwrap();
        for round in 0..3 {
            let e2 = vec![vec![0.3, 0.7], vec![0.6, 0.2]];
            let e7 = vec![vec![0.2; 7], vec![0.9; 7], vec![0.1; 7], vec![0.5; 7]];
            let k = 1 + round * 3;
            let a = d.decode(&small, &e2, k).unwrap();
            let ra = list_viterbi(&small, &e2, k).unwrap();
            assert_eq!(a.len(), ra.len());
            let b = d.decode(&big, &e7, k).unwrap();
            let rb = list_viterbi(&big, &e7, k).unwrap();
            for (x, y) in b.iter().zip(&rb) {
                assert_eq!(x.states, y.states);
                assert_eq!(x.log_prob.to_bits(), y.log_prob.to_bits());
            }
            assert_eq!(a.len(), ra.len());
        }
    }
}
