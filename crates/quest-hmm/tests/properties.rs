//! Property-based tests for the HMM substrate.

use proptest::prelude::*;
use quest_hmm::{baum_welch_step, forward_backward, list_viterbi, viterbi, Hmm, ListDecoder};

/// Arbitrary small HMM from positive weights.
fn arb_hmm(n: usize) -> impl Strategy<Value = Hmm> {
    (
        proptest::collection::vec(0.05f64..1.0, n),
        proptest::collection::vec(0.05f64..1.0, n * n),
    )
        .prop_map(|(init, trans)| Hmm::from_weights(init, trans).expect("weights normalize"))
}

/// Arbitrary emission matrix: `t` steps over `n` states, strictly positive
/// likelihoods so every sequence is feasible.
fn arb_emissions(n: usize, t: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<f64>>> {
    t.prop_flat_map(move |len| {
        proptest::collection::vec(proptest::collection::vec(0.01f64..1.0, n), len)
    })
}

/// A model with learned zeros: about a third of the initial and transition
/// weights are 0, so some `(p, s)` moves are blocked outright (a row that
/// comes out all-zero is made uniform by `from_weights`).
fn arb_hmm_with_zeros(n: usize) -> impl Strategy<Value = Hmm> {
    let weights = |len: usize| {
        proptest::collection::vec((0.05f64..1.0, 0u8..3), len).prop_map(|ws| {
            ws.into_iter()
                .map(|(w, keep)| if keep == 0 { 0.0 } else { w })
                .collect::<Vec<f64>>()
        })
    };
    (weights(n), weights(n * n))
        .prop_map(|(init, trans)| Hmm::from_weights(init, trans).expect("weights normalize"))
}

/// One emission row of any shape the pipeline produces, and the degenerate
/// ones around them: the uniform emission floor (every state live, every
/// score tied), a dense random row, exactly one live state, and a random
/// mask (which may leave the row all-zero, i.e. the lattice infeasible).
fn arb_row(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop_oneof![
        Just(vec![1e-6; n]),
        proptest::collection::vec(0.01f64..1.0, n),
        (0..n, 0.01f64..1.0).prop_map(move |(at, e)| {
            let mut row = vec![0.0; n];
            row[at] = e;
            row
        }),
        proptest::collection::vec((0.01f64..1.0, any::<bool>()), n).prop_map(|cells| {
            cells
                .into_iter()
                .map(|(e, live)| if live { e } else { 0.0 })
                .collect()
        }),
    ]
}

/// Both decoder entry points against the reference LVA: same sequences, in
/// the same order, with bitwise-equal scores.
fn assert_matches_reference(
    decoder: &mut ListDecoder,
    hmm: &Hmm,
    em: &[Vec<f64>],
    k: usize,
) -> Result<(), TestCaseError> {
    let reference = list_viterbi(hmm, em, k).expect("valid");
    let adaptive = decoder.decode(hmm, em, k).expect("valid");
    let pruned = decoder.decode_pruned(hmm, em, k).expect("valid");
    for (got, which) in [(adaptive, "decode"), (pruned, "decode_pruned")] {
        prop_assert_eq!(got.len(), reference.len(), "{} path count, k={}", which, k);
        for (a, b) in got.iter().zip(&reference) {
            prop_assert_eq!(&a.states, &b.states, "{} sequence, k={}", which, k);
            prop_assert_eq!(
                a.log_prob.to_bits(),
                b.log_prob.to_bits(),
                "{} score bits, k={}",
                which,
                k
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn list_viterbi_k1_matches_viterbi(
        hmm in arb_hmm(4),
        em in arb_emissions(4, 1..6),
    ) {
        let v = viterbi(&hmm, &em).expect("valid").expect("feasible");
        let l = list_viterbi(&hmm, &em, 1).expect("valid");
        prop_assert_eq!(l.len(), 1);
        prop_assert!((l[0].log_prob - v.log_prob).abs() < 1e-9);
        prop_assert_eq!(&l[0].states, &v.states);
    }

    #[test]
    fn list_viterbi_scores_sorted_and_distinct(
        hmm in arb_hmm(3),
        em in arb_emissions(3, 2..5),
        k in 1usize..12,
    ) {
        let l = list_viterbi(&hmm, &em, k).expect("valid");
        prop_assert!(l.len() <= k);
        for w in l.windows(2) {
            prop_assert!(w[0].log_prob >= w[1].log_prob - 1e-12);
        }
        let mut seqs: Vec<_> = l.iter().map(|p| p.states.clone()).collect();
        let before = seqs.len();
        seqs.sort();
        seqs.dedup();
        prop_assert_eq!(seqs.len(), before, "duplicate sequences returned");
    }

    #[test]
    fn list_viterbi_exhaustive_matches_brute_force(
        hmm in arb_hmm(2),
        em in arb_emissions(2, 2..5),
    ) {
        // k large enough to enumerate all 2^T sequences.
        let t = em.len();
        let all = 1usize << t;
        let l = list_viterbi(&hmm, &em, all).expect("valid");
        prop_assert_eq!(l.len(), all);
        // Brute force.
        let mut bf: Vec<(Vec<usize>, f64)> = Vec::new();
        for code in 0..all {
            let states: Vec<usize> = (0..t).map(|i| (code >> i) & 1).collect();
            let mut p = hmm.initial(states[0]).ln() + em[0][states[0]].ln();
            for i in 1..t {
                p += hmm.transition(states[i - 1], states[i]).ln() + em[i][states[i]].ln();
            }
            bf.push((states, p));
        }
        bf.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        for (got, want) in l.iter().zip(bf.iter()) {
            prop_assert!((got.log_prob - want.1).abs() < 1e-9);
        }
    }

    #[test]
    fn pruned_decoder_bit_identical_to_list_viterbi(
        hmm in arb_hmm(5),
        em in arb_emissions(5, 1..7),
        k in 1usize..12,
    ) {
        // The hot-path decoder (scratch reuse, bounded selection, admissible
        // top-k prune) must reproduce the reference LVA bit for bit.
        assert_matches_reference(&mut ListDecoder::new(), &hmm, &em, k)?;
    }

    #[test]
    fn pruned_decoder_bit_identical_under_ties_and_zeros(
        n in 2usize..5,
        t in 1usize..5,
        k in 1usize..10,
        floor in prop_oneof![Just(0.0f64), Just(1e-6), Just(0.5)],
        blocked in proptest::collection::vec(any::<bool>(), 0..12),
    ) {
        // Degenerate inputs: uniform models, emission-floor rows (mass
        // exact ties), and zeroed (state, step) cells. Tie order must
        // survive pruning bitwise.
        let hmm = Hmm::uniform(n).expect("uniform");
        let mut em = vec![vec![if floor > 0.0 { floor } else { 0.3 }; n]; t];
        for (i, b) in blocked.iter().enumerate() {
            if *b {
                let step = i % t;
                let state = (i / t) % n;
                em[step][state] = 0.0;
            }
        }
        assert_matches_reference(&mut ListDecoder::new(), &hmm, &em, k)?;
    }

    #[test]
    fn selection_keeps_arrival_order_when_every_score_ties(
        n in 2usize..6,
        t in 1usize..5,
    ) {
        // All-floor rows on a uniform model: every path has the same score,
        // so the output is decided by tie order alone. k = 1, one cell's
        // worth, and more than any step can offer.
        let hmm = Hmm::uniform(n).expect("uniform");
        let em = vec![vec![1e-6; n]; t];
        let mut decoder = ListDecoder::new();
        for k in [1, n, n * n + 1] {
            assert_matches_reference(&mut decoder, &hmm, &em, k)?;
        }
    }

    #[test]
    fn alternating_dense_and_sparse_rows_match_reference(
        hmm in arb_hmm_with_zeros(6),
        dense in proptest::collection::vec(prop_oneof![
            Just(vec![1e-6; 6]),
            proptest::collection::vec(0.01f64..1.0, 6),
        ], 3),
        sparse in proptest::collection::vec((0usize..6, 0usize..6, 0.01f64..1.0), 3),
        t in 2usize..7,
        dense_first in any::<bool>(),
        k in 1usize..9,
    ) {
        let em: Vec<Vec<f64>> = (0..t)
            .map(|i| {
                if (i % 2 == 0) == dense_first {
                    dense[i / 2].clone()
                } else {
                    let (a, b, e) = sparse[i / 2];
                    let mut row = vec![0.0; 6];
                    row[a] = e;
                    row[b] = 1.0 - e;
                    row
                }
            })
            .collect();
        assert_matches_reference(&mut ListDecoder::new(), &hmm, &em, k)?;
    }

    #[test]
    fn single_live_state_rows_match_reference(
        hmm in arb_hmm_with_zeros(5),
        cells in proptest::collection::vec((0usize..5, 0.01f64..1.0), 1..6),
        k in 1usize..5,
    ) {
        // One path at most, and it may be blocked by a zero transition.
        let em: Vec<Vec<f64>> = cells
            .iter()
            .map(|&(at, e)| {
                let mut row = vec![0.0; 5];
                row[at] = e;
                row
            })
            .collect();
        assert_matches_reference(&mut ListDecoder::new(), &hmm, &em, k)?;
    }

    #[test]
    fn blocked_transitions_and_k_beyond_the_path_count_match_reference(
        hmm in arb_hmm_with_zeros(3),
        em in (1usize..5).prop_flat_map(|t| proptest::collection::vec(arb_row(3), t)),
        extra in 0usize..4,
    ) {
        // 3^t sequences exist; zeros in the model and the rows leave fewer
        // with positive probability. Ask for all of them and then some.
        let k = 3usize.pow(em.len() as u32) + extra;
        let mut decoder = ListDecoder::new();
        assert_matches_reference(&mut decoder, &hmm, &em, k)?;
        assert_matches_reference(&mut decoder, &hmm, &em, 1 + extra)?;
    }

    #[test]
    fn one_decoder_reused_across_shapes_matches_reference(
        cases in proptest::collection::vec(
            (2usize..9).prop_flat_map(|n| (
                arb_hmm_with_zeros(n),
                (1usize..5).prop_flat_map(move |t| proptest::collection::vec(arb_row(n), t)),
                1usize..8,
            )),
            2..7,
        ),
    ) {
        // Dense after sparse, small n after large, short after long: a live
        // list, a cell length or a slot left over from the previous decode
        // must not leak into the next. Run the sequence forth and back.
        let mut decoder = ListDecoder::new();
        for (hmm, em, k) in cases.iter().chain(cases.iter().rev()) {
            assert_matches_reference(&mut decoder, hmm, em, *k)?;
        }
    }

    #[test]
    fn forward_backward_likelihood_bounds_viterbi(
        hmm in arb_hmm(4),
        em in arb_emissions(4, 1..6),
    ) {
        // P(best path) <= P(observations) always.
        let v = viterbi(&hmm, &em).expect("valid").expect("feasible");
        let fb = forward_backward(&hmm, &em).expect("valid").expect("feasible");
        prop_assert!(v.log_prob <= fb.log_likelihood + 1e-9);
    }

    #[test]
    fn gammas_are_distributions(
        hmm in arb_hmm(3),
        em in arb_emissions(3, 1..6),
    ) {
        let fb = forward_backward(&hmm, &em).expect("valid").expect("feasible");
        for t in 0..em.len() {
            let g: f64 = (0..3).map(|s| fb.gamma(t, s)).sum();
            prop_assert!((g - 1.0).abs() < 1e-6, "t={t} sum={g}");
        }
    }

    #[test]
    fn em_never_decreases_likelihood(
        hmm in arb_hmm(3),
        em1 in arb_emissions(3, 2..5),
        em2 in arb_emissions(3, 2..5),
    ) {
        let batch = vec![em1, em2];
        let mut m = hmm;
        let ll1 = baum_welch_step(&mut m, &batch).expect("valid").expect("feasible");
        let ll2 = baum_welch_step(&mut m, &batch).expect("valid").expect("feasible");
        // ll2 is the likelihood of the batch under the *updated* model.
        prop_assert!(ll2 >= ll1 - 1e-7, "EM regressed: {ll1} -> {ll2}");
    }

    #[test]
    fn em_preserves_normalization(
        hmm in arb_hmm(4),
        em in arb_emissions(4, 2..5),
    ) {
        let mut m = hmm;
        baum_welch_step(&mut m, &[em]).expect("valid");
        prop_assert!((m.initial_dist().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for r in 0..4 {
            prop_assert!((m.transition_row(r).iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }
}
