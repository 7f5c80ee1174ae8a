//! # quest-hmm — Hidden Markov Model substrate for QUEST
//!
//! QUEST's forward module models keyword-to-schema mapping as inference in a
//! Hidden Markov Model whose states are database elements and whose
//! observations are the user's keywords (paper §2–3). This crate provides:
//!
//! * [`Hmm`] — the model (initial + transition distributions, with their
//!   logarithms compiled beside them whenever the model is built or
//!   retrained; emissions are supplied per query by the wrapper's search
//!   function);
//! * [`viterbi()`](viterbi::viterbi) — maximum-probability decoding;
//! * [`list_viterbi()`](list_viterbi::list_viterbi) — the top-k *list Viterbi algorithm*
//!   (Seshadri–Sundberg), producing the top-k configurations;
//! * [`ListDecoder`] — the hot-path form of the same algorithm: reusable
//!   scratch buffers (no per-query lattice allocation), loops over each
//!   step's live states only, k-best cells filled by bounded stable
//!   selection instead of collect-sort-truncate, and — on lattices with
//!   enough live work — an admissible top-k prune; bit-identical to
//!   `list_viterbi` by construction;
//! * [`forward_backward()`](forward_backward::forward_backward) / [`baum_welch_step`] / [`train`] — scaled
//!   Expectation-Maximization for the feedback-based operating mode;
//! * [`SupervisedTrainer`] — count-based online training from user-validated
//!   sequences (the "list Viterbi training" of Rota et al.).
//!
//! ```
//! use quest_hmm::{list_viterbi, Hmm};
//!
//! // Two states; state 0 is sticky, state 1 is indifferent.
//! let hmm = Hmm::from_weights(vec![0.8, 0.2], vec![0.9, 0.1, 0.5, 0.5])?;
//! // Two observations, each scored against both states by the wrapper.
//! let emissions = vec![vec![0.9, 0.1], vec![0.6, 0.4]];
//! let paths = list_viterbi(&hmm, &emissions, 3)?;
//! assert_eq!(paths[0].states, vec![0, 0], "stay in the sticky state");
//! assert!(paths.windows(2).all(|p| p[0].log_prob >= p[1].log_prob));
//! # Ok::<(), quest_hmm::HmmError>(())
//! ```

#![warn(missing_docs)]

pub mod baum_welch;
pub mod decoder;
pub mod error;
pub mod forward_backward;
pub mod list_viterbi;
pub mod model;
pub mod sampling;
pub mod supervised;
pub mod viterbi;

pub use baum_welch::{baum_welch_step, train, TrainReport};
pub use decoder::ListDecoder;
pub use error::HmmError;
pub use forward_backward::{forward_backward, ForwardBackward};
pub use list_viterbi::list_viterbi;
pub use model::{Emissions, Hmm};
pub use sampling::{emissions_for_states, sample_states, UniformSource, XorShift};
pub use supervised::SupervisedTrainer;
pub use viterbi::{viterbi, DecodedPath};
