//! The shard layer's observability wiring: scatter timings land in the
//! global registry as per-shard labeled histograms, and fence/refusal
//! events count. The identity suites (`tests/shard.rs` at the repo root)
//! prove the same instrumentation never perturbs a score bit; this file
//! only proves the metrics actually arrive.
//!
//! All assertions on the global registry use `>=` deltas and unique label
//! values where possible: every test in this binary shares the one
//! process-wide registry and runs concurrently.

use std::path::PathBuf;

use quest_core::QuestConfig;
use quest_data::imdb::{generate, ImdbScale};
use quest_obs::MetricValue;
use quest_shard::{names, ScatterGather, ShardConfig, ShardedPrimary};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("quest-shard-obs")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn counter(name: &str) -> u64 {
    quest_obs::global()
        .snapshot()
        .counter(name)
        .unwrap_or_default()
}

#[test]
fn scatter_records_per_shard_histograms() {
    let db = generate(&ImdbScale {
        movies: 60,
        seed: 7,
    })
    .expect("imdb generates");
    let gateway = ScatterGather::new(&db, &ShardConfig::new(3), QuestConfig::default())
        .expect("gateway builds");
    gateway
        .search("casablanca director")
        .expect("search succeeds");

    let snap = quest_obs::global().snapshot();
    let scatter = snap.get_all(names::SCATTER);
    // One labeled series per shard that did work; at least one shard holds
    // a hit for these keywords.
    assert!(
        !scatter.is_empty(),
        "a scatter should record at least one per-shard histogram"
    );
    for metric in &scatter {
        let MetricValue::Histogram(h) = &metric.value else {
            panic!("{} should be a histogram", metric.full_name());
        };
        assert!(h.count >= 1, "{} should have samples", metric.full_name());
        assert!(
            metric.labels.iter().any(|(k, _)| k == "shard"),
            "{} should carry a shard label",
            metric.full_name()
        );
    }
}

#[test]
fn fencing_and_refusals_count_in_the_global_registry() {
    let db = generate(&ImdbScale {
        movies: 40,
        seed: 11,
    })
    .expect("imdb generates");
    let dir = temp_dir("fence-counters");
    let mut primary = ShardedPrimary::open(&dir, db, &ShardConfig::new(2), QuestConfig::default())
        .expect("sharded primary opens");

    let fences_before = counter(names::FENCE);
    let downs_before = counter(names::DOWN);

    primary.fence(1, "operator drill");
    assert!(!primary.is_healthy());
    primary
        .search("casablanca")
        .expect_err("a fenced set refuses searches");

    // `>=`: sibling tests in this binary may fence concurrently.
    assert!(
        counter(names::FENCE) > fences_before,
        "the operator fence should count"
    );
    assert!(
        counter(names::DOWN) > downs_before,
        "the refused search should count"
    );

    std::fs::remove_dir_all(&dir).ok();
}
