//! The output check must be able to fail: answers fingerprinted on one
//! database, compared with a reference twin built from another seed, have to
//! be counted as failures.

use quest::data::imdb::{generate, ImdbScale};
use quest::prelude::*;
use quest_benchmark::gen::query_pool;
use quest_benchmark::harness::{SpeedGauge, Tally};
use quest_benchmark::workloads::{direct_reads, verify_reads_against_reference, Stream};
use std::sync::Arc;

fn db(seed: u64) -> Database {
    generate(&ImdbScale { movies: 300, seed }).expect("generator succeeds")
}

#[test]
fn a_twin_from_another_seed_fails_the_fingerprint_check() {
    let served = db(1);
    let engine = CachedEngine::new(
        Quest::new(
            FullAccessWrapper::new(served.clone()),
            QuestConfig::default(),
        )
        .unwrap(),
    );
    let pool = Arc::new(query_pool(1, 48));
    let mut tally = Tally::default();
    let reads = direct_reads(
        &engine,
        served.catalog(),
        &mut Stream::hot(1, "reads", &pool),
        0.2,
        1,
        &SpeedGauge::new(),
        &mut tally,
    );
    assert_eq!(tally.failed, 0);
    assert!(reads.sampled.len() > 100);

    // Same data: every sampled answer equals the reference pipeline.
    let mut same = Tally::default();
    verify_reads_against_reference(&served, &reads.sampled, &mut same).unwrap();
    assert_eq!(same.attempted, reads.sampled.len() as u64);
    assert_eq!(same.failed, 0, "{:?}", same.examples);

    // Different data: scores (and some SQL) differ, and the check says so.
    let mut other = Tally::default();
    verify_reads_against_reference(&db(2), &reads.sampled, &mut other).unwrap();
    assert!(
        other.failed > 0,
        "the check passed against the wrong database"
    );
    assert!(other.failed as f64 / other.attempted as f64 > 0.0);
    assert!(!other.examples.is_empty());
}
