//! `experiments bench-json [path]` — the committed perf trajectory.
//!
//! Measures the **uncached** single-query pipeline on the IMDB corpus —
//! no result caches anywhere: every query recomputes its forward and
//! backward stages — through two implementations of the identical
//! computation:
//!
//! * **baseline** — the retained pre-optimization path
//!   ([`Quest::search_query_reference`]): posting-list scans per probe,
//!   per-probe keyword normalization and string matching, freshly
//!   allocated unpruned list Viterbi, unmemoized Steiner enumeration;
//! * **optimized** — the hot path ([`Quest::search_query_with`]):
//!   interned O(1) index probes, prepared keywords, memoized
//!   metadata-similarity rows, scratch-reused pruned decoding, per-query
//!   Steiner memo.
//!
//! Optimized samples are split honestly: `optimized_first_pass` is the
//! first time the engine sees each query (per-keyword engine memos still
//! cold), `optimized` is the steady state (memos warm — the production
//! regime, since real streams repeat a small keyword vocabulary). The
//! ≥3x regression gate is on the steady state and says so in the
//! artifact.
//!
//! Both paths produce bit-identical results (`tests/perf_identity.rs`);
//! this mode pins how much cheaper the optimized path is, per stage, so
//! every future PR has a measured baseline to defend.

use std::time::Duration;

use quest_bench::{percentile_us, Dataset, JsonObject};
use quest_core::{FullAccessWrapper, Quest, QuestConfig, SearchScratch, StageTimings};

/// Per-stage sample pools for one pipeline variant.
#[derive(Default)]
struct StageSamples {
    total: Vec<Duration>,
    emissions: Vec<Duration>,
    decode: Vec<Duration>,
    combine: Vec<Duration>,
    backward: Vec<Duration>,
}

impl StageSamples {
    fn record(&mut self, t: &StageTimings) {
        self.total.push(t.total());
        self.emissions.push(t.emissions);
        self.decode.push(t.forward_apriori + t.forward_feedback);
        self.combine
            .push(t.combine_configs + t.combine_explanations);
        self.backward.push(t.backward);
    }

    fn to_json(&self) -> JsonObject {
        let stage = |s: &[Duration]| {
            JsonObject::new()
                .num("p50_us", percentile_us(s, 50.0))
                .num("p95_us", percentile_us(s, 95.0))
        };
        JsonObject::new()
            .obj("total", stage(&self.total))
            .obj("emissions", stage(&self.emissions))
            .obj("decode", stage(&self.decode))
            .obj("combine", stage(&self.combine))
            .obj("backward", stage(&self.backward))
    }
}

pub fn run(path: &str) {
    const REPS: usize = 25;

    let ds = Dataset::Imdb;
    let db = ds.generate_default();
    let rows = db.total_rows();
    let engine = Quest::new(FullAccessWrapper::new(db), QuestConfig::default()).expect("build");
    let workload = ds.workload();

    // Uncached single-query stage profile, baseline vs optimized,
    // interleaved per query so frequency effects hit both paths alike.
    // Rep 0 lands in the first-pass pool (engine keyword memos cold);
    // later reps are the steady state. The baseline path has no memos, so
    // its cost profile is the same in every rep.
    let mut baseline = StageSamples::default();
    let mut optimized = StageSamples::default();
    let mut optimized_first = StageSamples::default();
    let mut scratch = SearchScratch::new();
    for rep in 0..REPS {
        for wq in &workload {
            let query = wq.parse();
            if let Ok(out) = engine.search_query_reference(&query) {
                baseline.record(&out.timings);
            }
            if let Ok(out) = engine.search_query_with(&query, &mut scratch) {
                if rep == 0 {
                    optimized_first.record(&out.timings);
                } else {
                    optimized.record(&out.timings);
                }
            }
        }
    }
    let speedup = |b: &[Duration], o: &[Duration]| {
        let b50 = percentile_us(b, 50.0);
        let o50 = percentile_us(o, 50.0);
        if o50 <= 0.0 {
            0.0
        } else {
            b50 / o50
        }
    };
    let total_speedup = speedup(&baseline.total, &optimized.total);
    let backward_speedup = speedup(&baseline.backward, &optimized.backward);

    let json = JsonObject::new()
        .obj(
            "meta",
            JsonObject::new()
                .str("dataset", "imdb")
                .num("rows", rows as f64)
                .num("distinct_queries", workload.len() as f64)
                .num("reps", REPS as f64)
                .str("units", "microseconds unless suffixed"),
        )
        .obj(
            "uncached_single_query",
            JsonObject::new()
                .str(
                    "note",
                    "no result caches; optimized = steady state (engine keyword \
memos warm), optimized_first_pass = first sight of each query; the >=3x \
gate is on the steady state",
                )
                .obj("baseline", baseline.to_json())
                .obj("optimized", optimized.to_json())
                .obj("optimized_first_pass", optimized_first.to_json())
                .num("speedup_total_p50", total_speedup)
                .num(
                    "speedup_first_pass_p50",
                    speedup(&baseline.total, &optimized_first.total),
                )
                .num(
                    "speedup_emissions_p50",
                    speedup(&baseline.emissions, &optimized.emissions),
                )
                .num(
                    "speedup_decode_p50",
                    speedup(&baseline.decode, &optimized.decode),
                )
                .num("speedup_backward_p50", backward_speedup),
        );

    std::fs::write(path, json.render_pretty()).expect("write benchmark artifact");
    println!(
        "wrote {path}: uncached single-query speedup {total_speedup:.2}x steady / {:.2}x first pass \
         (baseline p50 {:.1}us -> optimized p50 {:.1}us), backward stage {backward_speedup:.2}x \
         (p50 {:.1}us -> {:.1}us)",
        speedup(&baseline.total, &optimized_first.total),
        percentile_us(&baseline.total, 50.0),
        percentile_us(&optimized.total, 50.0),
        percentile_us(&baseline.backward, 50.0),
        percentile_us(&optimized.backward, 50.0),
    );
    // The default floor (3x) is for artifact regeneration on a quiet
    // machine; CI overrides it down via QUEST_BENCH_MIN_SPEEDUP because a
    // shared runner's microsecond-scale p50s are noisy — the gate should
    // catch a real regression of a ~4.7x path, not neighbor load.
    let min_speedup: f64 = std::env::var("QUEST_BENCH_MIN_SPEEDUP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3.0);
    assert!(
        total_speedup >= min_speedup,
        "perf regression: steady-state uncached single-query speedup \
         {total_speedup:.2}x < {min_speedup}x floor"
    );
    // Per-stage floor for the backward rebuild (join-template memo + flat
    // Steiner scratch + admissible prune). Same philosophy: the default
    // (2x) is for quiet-machine artifact regeneration, CI overrides down
    // via QUEST_BENCH_MIN_BACKWARD_SPEEDUP to absorb runner noise.
    let min_backward: f64 = std::env::var("QUEST_BENCH_MIN_BACKWARD_SPEEDUP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0);
    assert!(
        backward_speedup >= min_backward,
        "perf regression: steady-state backward-stage speedup \
         {backward_speedup:.2}x < {min_backward}x floor"
    );
}
