//! Baum-Welch Expectation-Maximization training with fixed emissions.
//!
//! QUEST's feedback-based operating mode "applies an Expectation-Maximization
//! on-line training algorithm to a dataset composed of previous searches
//! validated by the user" (paper §3). Emission probabilities come from the
//! wrapper's search function and are *not* re-estimated; training updates the
//! initial distribution and the transition matrix — the quantities the
//! a-priori heuristics guess and feedback refines.

// Index-based loops below intentionally mirror the textbook DP
// recurrences (Rabiner's notation); iterator rewrites obscure them.
#![allow(clippy::needless_range_loop)]

use crate::error::HmmError;
use crate::forward_backward::forward_backward;
use crate::model::{Emissions, Hmm};

/// Result of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Iterations actually performed.
    pub iterations: usize,
    /// Total log-likelihood after each iteration.
    pub log_likelihoods: Vec<f64>,
    /// Sequences skipped because they have zero probability under the model.
    pub skipped_sequences: usize,
}

/// One EM step over a batch of observation sequences (each given as its
/// per-step emission likelihood matrix). Returns the total log-likelihood of
/// the batch *before* the update, or `None` if every sequence was
/// impossible.
pub fn baum_welch_step(model: &mut Hmm, batch: &[Emissions]) -> Result<Option<f64>, HmmError> {
    let n = model.n_states();
    let mut init_acc = vec![0.0; n];
    let mut xi_acc = vec![0.0; n * n]; // numerator of a_ij
    let mut gamma_acc = vec![0.0; n]; // denominator of a_ij (t < T-1)
    let mut total_ll = 0.0;
    let mut used = 0usize;

    for emissions in batch {
        let Some(fb) = forward_backward(model, emissions)? else {
            continue;
        };
        used += 1;
        total_ll += fb.log_likelihood;
        let t_len = emissions.len();
        for s in 0..n {
            init_acc[s] += fb.gamma(0, s);
        }
        for t in 0..t_len.saturating_sub(1) {
            for i in 0..n {
                let g = fb.gamma(t, i);
                gamma_acc[i] += g;
                for j in 0..n {
                    // Scaled xi needs no extra normalization (Rabiner eq. 109).
                    let xi = fb.alpha[t][i]
                        * model.transition(i, j)
                        * emissions[t + 1][j]
                        * fb.beta[t + 1][j];
                    xi_acc[i * n + j] += xi;
                }
            }
        }
    }
    if used == 0 {
        return Ok(None);
    }

    // M step.
    let mut initial = init_acc;
    let isum: f64 = initial.iter().sum();
    if isum > 0.0 {
        initial.iter_mut().for_each(|v| *v /= isum);
    } else {
        initial = model.initial_dist().to_vec();
    }
    let mut trans = vec![0.0; n * n];
    for i in 0..n {
        if gamma_acc[i] > 0.0 {
            // Normalize the row of accumulated xi; tiny numerical drift from
            // gamma_acc is corrected by renormalizing the row itself.
            let row_sum: f64 = (0..n).map(|j| xi_acc[i * n + j]).sum();
            if row_sum > 0.0 {
                for j in 0..n {
                    trans[i * n + j] = xi_acc[i * n + j] / row_sum;
                }
                continue;
            }
        }
        // State never visited before the last step: keep its old row.
        trans[i * n..(i + 1) * n].copy_from_slice(model.transition_row(i));
    }
    model.set_distributions(initial, trans)?;
    Ok(Some(total_ll))
}

/// Iterate EM until the batch log-likelihood improves by less than `tol` or
/// `max_iters` is reached.
pub fn train(
    model: &mut Hmm,
    batch: &[Emissions],
    max_iters: usize,
    tol: f64,
) -> Result<TrainReport, HmmError> {
    let mut lls = Vec::new();
    let mut skipped = 0usize;
    for emissions in batch {
        if forward_backward(model, emissions)?.is_none() {
            skipped += 1;
        }
    }
    let mut prev: Option<f64> = None;
    for _ in 0..max_iters {
        let Some(ll) = baum_welch_step(model, batch)? else {
            break;
        };
        lls.push(ll);
        if let Some(p) = prev {
            if (ll - p).abs() < tol {
                break;
            }
        }
        prev = Some(ll);
    }
    Ok(TrainReport {
        iterations: lls.len(),
        log_likelihoods: lls,
        skipped_sequences: skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> Hmm {
        Hmm::from_distributions(vec![0.5, 0.5], vec![0.5, 0.5, 0.5, 0.5]).unwrap()
    }

    /// Emissions encoding a near-deterministic alternating pattern.
    fn alternating_batch() -> Vec<Emissions> {
        let hi = 0.95;
        let lo = 0.05;
        (0..4)
            .map(|_| {
                (0..6)
                    .map(|t| {
                        if t % 2 == 0 {
                            vec![hi, lo]
                        } else {
                            vec![lo, hi]
                        }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn em_increases_likelihood_monotonically() {
        let mut m = model();
        let batch = alternating_batch();
        let mut last = f64::NEG_INFINITY;
        for _ in 0..10 {
            let ll = baum_welch_step(&mut m, &batch).unwrap().unwrap();
            assert!(ll >= last - 1e-9, "ll={ll} last={last}");
            last = ll;
        }
    }

    #[test]
    fn em_learns_alternation() {
        let mut m = model();
        let batch = alternating_batch();
        train(&mut m, &batch, 50, 1e-9).unwrap();
        // After training, transitions should strongly prefer switching state.
        assert!(m.transition(0, 1) > 0.8, "t01={}", m.transition(0, 1));
        assert!(m.transition(1, 0) > 0.8, "t10={}", m.transition(1, 0));
        assert!(m.initial(0) > 0.8);
    }

    #[test]
    fn impossible_batch_is_skipped() {
        let mut m = model();
        let impossible: Emissions = vec![vec![0.0, 0.0]];
        assert_eq!(
            baum_welch_step(&mut m, std::slice::from_ref(&impossible)).unwrap(),
            None
        );
        let rep = train(&mut m, &[impossible], 5, 1e-6).unwrap();
        assert_eq!(rep.skipped_sequences, 1);
        assert_eq!(rep.iterations, 0);
    }

    #[test]
    fn model_stays_normalized_after_training() {
        let mut m = model();
        train(&mut m, &alternating_batch(), 20, 1e-9).unwrap();
        let n = m.n_states();
        assert!((m.initial_dist().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for r in 0..n {
            assert!((m.transition_row(r).iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn single_observation_sequences_update_initial_only() {
        let mut m = model();
        let batch: Vec<Emissions> = vec![vec![vec![0.9, 0.1]]; 3];
        let before = m.transition_row(0).to_vec();
        baum_welch_step(&mut m, &batch).unwrap().unwrap();
        assert!(m.initial(0) > 0.8);
        // No transitions observed: rows preserved.
        assert_eq!(m.transition_row(0), &before[..]);
    }
}
