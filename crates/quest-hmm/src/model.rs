//! The Hidden Markov Model type.
//!
//! QUEST models the keyword-to-schema mapping problem as an HMM whose hidden
//! states are database elements (tables, attributes, attribute domains) and
//! whose observations are the user's keywords (paper §2, §3). Emission
//! probabilities are *not* a fixed symbol table: they are computed per
//! keyword by the wrapper's search function. The model therefore stores only
//! the initial distribution and the transition matrix; every inference
//! routine takes the per-step emission likelihoods as input. The model only
//! changes on feedback, so it also carries the logarithms of both tables,
//! compiled once per (re)build, for the log-space decoder to read.

use crate::error::HmmError;
use crate::viterbi::ln;

/// Dense emission likelihoods for one observation sequence: for each time
/// step `t`, `emissions[t][s]` is `P(observation_t | state = s)`. Values must
/// be non-negative; they need not sum to one across states (they are
/// likelihoods, not a distribution over states).
pub type Emissions = Vec<Vec<f64>>;

/// A discrete-state HMM with externally supplied emissions.
#[derive(Debug, Clone)]
pub struct Hmm {
    n: usize,
    /// Initial state distribution, linear space, sums to 1.
    initial: Vec<f64>,
    /// Row-major transition matrix `trans[from * n + to]`, rows sum to 1.
    trans: Vec<f64>,
    /// `ln(initial)` and `ln(trans)`, element for element, through the same
    /// [`ln`] the decoders apply to a linear probability (a zero maps to
    /// `-inf`). Derived state: [`Hmm::assemble`] is the only place either
    /// pair of tables is written, so the two can never disagree.
    ln_initial: Vec<f64>,
    ln_trans: Vec<f64>,
}

/// Two models are equal when their distributions are; the log tables are a
/// function of those and take no part.
impl PartialEq for Hmm {
    fn eq(&self, other: &Hmm) -> bool {
        self.n == other.n && self.initial == other.initial && self.trans == other.trans
    }
}

impl Hmm {
    /// The one place a model is put together: validated distributions in,
    /// log tables compiled beside them.
    fn assemble(initial: Vec<f64>, trans: Vec<f64>) -> Hmm {
        Hmm {
            n: initial.len(),
            ln_initial: initial.iter().map(|&p| ln(p)).collect(),
            ln_trans: trans.iter().map(|&p| ln(p)).collect(),
            initial,
            trans,
        }
    }

    /// Uniform model over `n` states.
    pub fn uniform(n: usize) -> Result<Hmm, HmmError> {
        if n == 0 {
            return Err(HmmError::Empty);
        }
        let p = 1.0 / n as f64;
        Ok(Hmm::assemble(vec![p; n], vec![p; n * n]))
    }

    /// Build from explicit distributions. `initial` must have length `n` and
    /// sum to 1; `trans` must be `n*n` row-major with each row summing to 1
    /// (tolerance 1e-6). Rows summing to zero are rejected.
    pub fn from_distributions(initial: Vec<f64>, trans: Vec<f64>) -> Result<Hmm, HmmError> {
        let n = initial.len();
        if n == 0 {
            return Err(HmmError::Empty);
        }
        if trans.len() != n * n {
            return Err(HmmError::Dimension {
                expected: n * n,
                got: trans.len(),
            });
        }
        check_distribution(&initial, "initial")?;
        for r in 0..n {
            check_distribution(&trans[r * n..(r + 1) * n], "transition row")?;
        }
        Ok(Hmm::assemble(initial, trans))
    }

    /// Build from non-negative *weights*, normalizing each distribution.
    /// Zero rows become uniform.
    pub fn from_weights(initial: Vec<f64>, trans: Vec<f64>) -> Result<Hmm, HmmError> {
        let n = initial.len();
        if n == 0 {
            return Err(HmmError::Empty);
        }
        if trans.len() != n * n {
            return Err(HmmError::Dimension {
                expected: n * n,
                got: trans.len(),
            });
        }
        let mut initial = initial;
        normalize_or_uniform(&mut initial)?;
        let mut trans = trans;
        for r in 0..n {
            normalize_or_uniform(&mut trans[r * n..(r + 1) * n])?;
        }
        Ok(Hmm::assemble(initial, trans))
    }

    /// Number of states.
    pub fn n_states(&self) -> usize {
        self.n
    }

    /// Initial probability of a state.
    pub fn initial(&self, s: usize) -> f64 {
        self.initial[s]
    }

    /// Transition probability `from -> to`.
    pub fn transition(&self, from: usize, to: usize) -> f64 {
        self.trans[from * self.n + to]
    }

    /// The full initial distribution.
    pub fn initial_dist(&self) -> &[f64] {
        &self.initial
    }

    /// One row of the transition matrix.
    pub fn transition_row(&self, from: usize) -> &[f64] {
        &self.trans[from * self.n..(from + 1) * self.n]
    }

    /// `ln` of the initial distribution, compiled when the model was built.
    pub(crate) fn ln_initial_dist(&self) -> &[f64] {
        &self.ln_initial
    }

    /// `ln` of the transition matrix, row-major `[from * n + to]`, compiled
    /// when the model was built.
    pub(crate) fn ln_transitions(&self) -> &[f64] {
        &self.ln_trans
    }

    /// Replace the distributions (used by training). Same validation as
    /// [`Hmm::from_distributions`].
    pub fn set_distributions(
        &mut self,
        initial: Vec<f64>,
        trans: Vec<f64>,
    ) -> Result<(), HmmError> {
        let updated = Hmm::from_distributions(initial, trans)?;
        if updated.n != self.n {
            return Err(HmmError::Dimension {
                expected: self.n,
                got: updated.n,
            });
        }
        *self = updated;
        Ok(())
    }

    /// Validate an emission matrix against this model: at least one step,
    /// every step dense over `n` states, all values finite and non-negative.
    pub fn check_emissions(&self, emissions: &[Vec<f64>]) -> Result<(), HmmError> {
        if emissions.is_empty() {
            return Err(HmmError::Empty);
        }
        for (t, row) in emissions.iter().enumerate() {
            if row.len() != self.n {
                return Err(HmmError::Dimension {
                    expected: self.n,
                    got: row.len(),
                });
            }
            for &v in row {
                if !v.is_finite() || v < 0.0 {
                    return Err(HmmError::InvalidEmission { step: t, value: v });
                }
            }
        }
        Ok(())
    }
}

fn check_distribution(p: &[f64], what: &'static str) -> Result<(), HmmError> {
    let mut sum = 0.0;
    for &v in p {
        if !v.is_finite() || v < 0.0 {
            return Err(HmmError::InvalidProbability { what, value: v });
        }
        sum += v;
    }
    if (sum - 1.0).abs() > 1e-6 {
        return Err(HmmError::NotNormalized { what, sum });
    }
    Ok(())
}

fn normalize_or_uniform(p: &mut [f64]) -> Result<(), HmmError> {
    let mut sum = 0.0;
    for &v in p.iter() {
        if !v.is_finite() || v < 0.0 {
            return Err(HmmError::InvalidProbability {
                what: "weight",
                value: v,
            });
        }
        sum += v;
    }
    if sum <= 0.0 {
        let u = 1.0 / p.len() as f64;
        p.iter_mut().for_each(|v| *v = u);
    } else {
        p.iter_mut().for_each(|v| *v /= sum);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_model_is_normalized() {
        let m = Hmm::uniform(4).unwrap();
        assert_eq!(m.n_states(), 4);
        assert!((m.initial_dist().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        for r in 0..4 {
            assert!((m.transition_row(r).iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_states_rejected() {
        assert!(matches!(Hmm::uniform(0), Err(HmmError::Empty)));
    }

    #[test]
    fn from_distributions_validates() {
        assert!(Hmm::from_distributions(vec![0.5, 0.4], vec![0.5; 4]).is_err()); // init sums to .9
        assert!(Hmm::from_distributions(vec![0.5, 0.5], vec![0.5; 3]).is_err()); // wrong dims
        assert!(Hmm::from_distributions(vec![0.5, 0.5], vec![-0.5, 1.5, 0.5, 0.5]).is_err());
        let m = Hmm::from_distributions(vec![0.3, 0.7], vec![0.1, 0.9, 0.8, 0.2]).unwrap();
        assert!((m.transition(1, 0) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn from_weights_normalizes_and_handles_zero_rows() {
        let m = Hmm::from_weights(vec![2.0, 2.0], vec![3.0, 1.0, 0.0, 0.0]).unwrap();
        assert!((m.initial(0) - 0.5).abs() < 1e-12);
        assert!((m.transition(0, 0) - 0.75).abs() < 1e-12);
        // zero row becomes uniform
        assert!((m.transition(1, 0) - 0.5).abs() < 1e-12);
    }

    /// Every log entry is `ln` of the linear entry it sits beside, bit for
    /// bit, and a zero probability is `-inf`, never NaN.
    fn assert_log_tables_current(m: &Hmm, context: &str) {
        let n = m.n_states();
        let same = |got: f64, linear: f64, what: &str| {
            assert!(!got.is_nan(), "{context}: {what}");
            assert_eq!(got.to_bits(), ln(linear).to_bits(), "{context}: {what}");
            assert_eq!(got == f64::NEG_INFINITY, linear == 0.0, "{context}: {what}");
        };
        for s in 0..n {
            same(
                m.ln_initial_dist()[s],
                m.initial(s),
                &format!("initial {s}"),
            );
            for to in 0..n {
                let got = m.ln_transitions()[s * n + to];
                same(got, m.transition(s, to), &format!("{s} -> {to}"));
            }
        }
    }

    #[test]
    fn log_tables_follow_every_way_a_model_changes() {
        use crate::baum_welch::{baum_welch_step, train};
        use crate::supervised::SupervisedTrainer;

        assert_log_tables_current(&Hmm::uniform(5).unwrap(), "uniform");
        let mut m = Hmm::from_distributions(
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0, 0.5, 0.0, 0.5, 0.2, 0.3, 0.5],
        )
        .unwrap();
        assert_log_tables_current(&m, "from_distributions with zeros");
        assert_eq!(m.ln_initial_dist()[1], f64::NEG_INFINITY);
        assert_eq!(m.ln_transitions()[0], f64::NEG_INFINITY);
        // A zero weight row becomes uniform: its logs are ln(1/n), not -inf.
        let w = Hmm::from_weights(
            vec![2.0, 0.0, 6.0],
            vec![3.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 2.0],
        )
        .unwrap();
        assert_log_tables_current(&w, "from_weights");
        assert!(w.ln_transitions()[3..6].iter().all(|v| v.is_finite()));

        m.set_distributions(
            vec![0.2, 0.3, 0.5],
            vec![0.1, 0.9, 0.0, 0.0, 0.4, 0.6, 1.0, 0.0, 0.0],
        )
        .unwrap();
        assert_log_tables_current(&m, "set_distributions");
        // A rejected update leaves both pairs of tables as they were.
        let before = m.clone();
        assert!(m.set_distributions(vec![0.5, 0.5], vec![0.5; 4]).is_err());
        assert!(m
            .set_distributions(vec![0.2, 0.3, 0.4], vec![1.0 / 3.0; 9])
            .is_err());
        assert_eq!(m, before);
        assert_log_tables_current(&m, "rejected set_distributions");

        let batch = vec![
            vec![
                vec![0.9, 0.1, 0.3],
                vec![0.2, 0.7, 0.1],
                vec![0.0, 0.4, 0.6],
            ],
            vec![vec![0.1, 0.5, 0.5], vec![0.6, 0.0, 0.2]],
        ];
        baum_welch_step(&mut m, &batch).unwrap().expect("feasible");
        assert_log_tables_current(&m, "baum_welch_step");
        train(&mut m, &batch, 3, 0.0).unwrap();
        assert_log_tables_current(&m, "train");

        let mut trainer = SupervisedTrainer::new(4, 0.0).unwrap();
        trainer.observe(&[0, 1, 2]).unwrap();
        trainer.observe(&[0, 2]).unwrap();
        let learned = trainer.build().unwrap();
        assert_log_tables_current(&learned, "SupervisedTrainer, no smoothing");
        assert!(
            learned.ln_transitions().contains(&f64::NEG_INFINITY),
            "unsmoothed counts leave learned zeros"
        );
    }

    #[test]
    fn equality_is_about_distributions() {
        let a = Hmm::from_weights(vec![1.0, 3.0], vec![1.0, 1.0, 1.0, 3.0]).unwrap();
        let b = Hmm::from_distributions(vec![0.25, 0.75], vec![0.5, 0.5, 0.25, 0.75]).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, Hmm::uniform(2).unwrap());
        assert_ne!(Hmm::uniform(2).unwrap(), Hmm::uniform(3).unwrap());
    }

    #[test]
    fn emission_validation() {
        let m = Hmm::uniform(2).unwrap();
        assert!(m.check_emissions(&[]).is_err());
        assert!(m.check_emissions(&[vec![0.1]]).is_err());
        assert!(m.check_emissions(&[vec![0.1, f64::NAN]]).is_err());
        assert!(m.check_emissions(&[vec![0.1, 0.2]]).is_ok());
    }
}
