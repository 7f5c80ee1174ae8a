//! Prints every experiment table (markdown, to stdout).
//!
//! Usage: `cargo run --release -p quest-bench --bin experiments
//! [e1|e2|e3|e4|e5|e7|e8|e9|e10|e11|e12|e13|e14|all]`
//! (aliases: `serve-throughput` = e10, `live-update` = e11,
//! `replication` = e12, `sharding` = e13, `chaos` = e14)
//!
//! (E6 — per-module microbenches — lives in the criterion benches:
//! `cargo bench -p quest-bench`.)

use std::time::Duration;

use quest_bench::{engine_for, evaluate, fmt_dur, time, Dataset, Table};
use quest_core::backward::{BackwardModule, SchemaGraphWeights};
use quest_core::baseline::{banks_search, discover_statements, InstanceGraph};
use quest_core::eval::{aggregate, statements_equivalent};
use quest_core::forward::ForwardModule;
use quest_core::query_builder::build_query;
use quest_core::semantics::SemanticRules;
use quest_core::{
    AnnotationSet, Configuration, DeepWebWrapper, FullAccessWrapper, KeywordQuery, Quest,
    QuestConfig, SourceWrapper,
};
use quest_data::workload::WorkloadQuery;
use quest_data::{imdb, FeedbackOracle};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    if which == "bench-json" || which == "--bench-json" {
        // The perf-trajectory artifact is a dedicated mode, not part of
        // "all": it writes a file (BENCH_pipeline.json by default) instead
        // of printing a table.
        let path = std::env::args()
            .nth(2)
            .unwrap_or_else(|| "BENCH_pipeline.json".to_string());
        bench_json(&path);
        return;
    }
    let run = |name: &str| which == "all" || which == name;
    if run("e1") {
        e1_scaling();
    }
    if run("e2") {
        e2_module_comparison();
    }
    if run("e3") {
        e3_schema_vs_instance();
    }
    if run("e4") {
        e4_dst_sensitivity();
    }
    if run("e5") {
        e5_deep_web();
    }
    if run("e7") {
        e7_k_sweep();
    }
    if run("e8") {
        e8_mi_ablation();
    }
    if run("e9") {
        e9_rules_ablation();
    }
    if run("e10") || run("serve-throughput") {
        e10_serve_throughput();
    }
    if run("e11") || run("live-update") {
        e11_live_update();
    }
    if run("e12") || run("replication") {
        e12_replication();
    }
    if run("e13") || run("sharding") {
        e13_sharding();
    }
    if run("e14") || run("chaos") {
        e14_chaos();
    }
}

// ---------------------------------------------------------------- bench-json

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
    fn record(&mut self, t: &quest_core::StageTimings) {
        self.total.push(t.total());
        self.emissions.push(t.emissions);
        self.decode.push(t.forward_apriori + t.forward_feedback);
        self.combine
            .push(t.combine_configs + t.combine_explanations);
        self.backward.push(t.backward);
    }

    fn to_json(&self) -> quest_bench::JsonObject {
        let stage = |s: &[Duration]| {
            quest_bench::JsonObject::new()
                .num("p50_us", quest_bench::percentile_us(s, 50.0))
                .num("p95_us", quest_bench::percentile_us(s, 95.0))
        };
        quest_bench::JsonObject::new()
            .obj("total", stage(&self.total))
            .obj("emissions", stage(&self.emissions))
            .obj("decode", stage(&self.decode))
            .obj("combine", stage(&self.combine))
            .obj("backward", stage(&self.backward))
    }
}

/// One stage histogram from the serve registry, rendered with exact
/// percentile bounds and its non-empty buckets. Histograms record
/// nanoseconds; the artifact stays in microseconds like every other
/// latency field.
fn histogram_json(h: &quest_obs::HistogramSnapshot) -> quest_bench::JsonObject {
    let us = |ns: u64| ns as f64 / 1e3;
    quest_bench::JsonObject::new()
        .num("count", h.count as f64)
        .num("p50_us", us(h.percentile(50.0)))
        .num("p95_us", us(h.percentile(95.0)))
        .num("p99_us", us(h.percentile(99.0)))
        .num("max_us", us(h.max))
        .arr(
            "nonzero_buckets",
            h.nonzero_buckets()
                .iter()
                .map(|(le, count)| {
                    quest_bench::JsonObject::new()
                        .num("le_us", us(*le))
                        .num("count", *count as f64)
                })
                .collect(),
        )
}

/// `experiments bench-json [path]` — the committed perf trajectory.
///
/// Measures the **uncached** single-query pipeline on the IMDB corpus —
/// no result caches anywhere: every query recomputes its forward and
/// backward stages — through two implementations of the identical
/// computation:
///
/// * **baseline** — the retained pre-optimization path
///   ([`Quest::search_query_reference`]): posting-list scans per probe,
///   per-probe keyword normalization and string matching, freshly
///   allocated unpruned list Viterbi, unmemoized Steiner enumeration;
/// * **optimized** — the hot path ([`Quest::search_query_with`]):
///   interned O(1) index probes, prepared keywords, memoized
///   metadata-similarity rows, scratch-reused pruned decoding, per-query
///   Steiner memo.
///
/// Optimized samples are split honestly: `optimized_first_pass` is the
/// first time the engine sees each query (per-keyword engine memos still
/// cold), `optimized` is the steady state (memos warm — the production
/// regime, since real streams repeat a small keyword vocabulary). The
/// ≥3x regression gate is on the steady state and says so in the
/// artifact.
///
/// Both paths produce bit-identical results (`tests/perf_identity.rs`);
/// this mode pins how much cheaper the optimized path is, per stage, plus
/// the serve-layer cold/warm serial/pooled throughput, so every future PR
/// has a measured baseline to defend.
fn bench_json(path: &str) {
    use quest_serve::{CachedEngine, QueryService};

    const REPS: usize = 25;
    const WORKERS: usize = 4;

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
    let mut scratch = quest_core::SearchScratch::new();
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
        let b50 = quest_bench::percentile_us(b, 50.0);
        let o50 = quest_bench::percentile_us(o, 50.0);
        if o50 <= 0.0 {
            0.0
        } else {
            b50 / o50
        }
    };
    let total_speedup = speedup(&baseline.total, &optimized.total);
    let backward_speedup = speedup(&baseline.backward, &optimized.backward);

    // Serve layer: serial uncached engine vs the pooled cached service,
    // cold and warm passes over the repeated shuffled stream.
    let stream = quest_bench::shuffled_stream(&workload, REPS, 0x5EED_F00D_BE9C_0001);
    let n = stream.len();
    let (_, serial_wall) = time(|| {
        let mut scratch = quest_core::SearchScratch::new();
        for raw in &stream {
            let query = match KeywordQuery::parse(raw) {
                Ok(q) => q,
                Err(_) => continue,
            };
            let _ = engine.search_query_with(&query, &mut scratch);
        }
    });
    let qps = |d: Duration| n as f64 / d.as_secs_f64().max(1e-9);

    let service = QueryService::new(CachedEngine::new(engine.clone()), WORKERS);
    let (_, pooled_cold) = time(|| {
        for t in service.submit_batch(&stream) {
            let _ = t.wait();
        }
    });
    let (_, pooled_warm) = time(|| {
        for t in service.submit_batch(&stream) {
            let _ = t.wait();
        }
    });
    let stats = service.shutdown();

    let json = quest_bench::JsonObject::new()
        .obj(
            "meta",
            quest_bench::JsonObject::new()
                .str("dataset", "imdb")
                .num("rows", rows as f64)
                .num("distinct_queries", workload.len() as f64)
                .num("reps", REPS as f64)
                .str("units", "microseconds unless suffixed"),
        )
        .obj(
            "uncached_single_query",
            quest_bench::JsonObject::new()
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
        )
        .obj(
            "serve",
            quest_bench::JsonObject::new()
                .num("stream_len", n as f64)
                .num("serial_uncached_qps", qps(serial_wall))
                .arr(
                    "pooled",
                    vec![quest_bench::JsonObject::new()
                        .num("workers", WORKERS as f64)
                        .num("cold_qps", qps(pooled_cold))
                        .num("warm_qps", qps(pooled_warm))
                        .num("forward_hit_rate", stats.forward_cache.hit_rate())
                        .num("backward_hit_rate", stats.backward_cache.hit_rate())],
                )
                .obj(
                    "stage_totals_ms",
                    quest_bench::JsonObject::new()
                        .num("forward", stats.stages.forward.as_secs_f64() * 1e3)
                        .num("backward", stats.stages.backward.as_secs_f64() * 1e3)
                        .num("assemble", stats.stages.assemble.as_secs_f64() * 1e3)
                        .num("emissions", stats.stages.emissions.as_secs_f64() * 1e3)
                        .num("decode", stats.stages.decode.as_secs_f64() * 1e3)
                        .num("uncached_forward", stats.stages.uncached_forward as f64),
                )
                .obj("stage_histograms", {
                    // Full distributions from the serve registry: tail
                    // behaviour (p99, exact max, bucket shape) the p50/p95
                    // pairs above cannot carry.
                    let mut hists = quest_bench::JsonObject::new().str(
                        "note",
                        "per-request stage distributions over the pooled cold+warm \
streams, from the serve metrics registry; bucket bounds are inclusive upper \
edges of log-spaced bins",
                    );
                    for (key, name) in [
                        ("total", quest_serve::names::LATENCY),
                        ("forward", quest_serve::names::STAGE_FORWARD),
                        ("backward", quest_serve::names::STAGE_BACKWARD),
                        ("assemble", quest_serve::names::STAGE_ASSEMBLE),
                        ("emissions", quest_serve::names::STAGE_EMISSIONS),
                        ("decode", quest_serve::names::STAGE_DECODE),
                        ("combine", quest_serve::names::STAGE_COMBINE),
                    ] {
                        if let Some(h) = stats.metrics.histogram(name) {
                            hists = hists.obj(key, histogram_json(h));
                        }
                    }
                    hists
                }),
        );

    // E13 companion: the shard-count sweep, with its identity gate. Fewer
    // reps than the standalone experiment — the artifact needs the shape
    // of the curve and the gate, not tight confidence intervals.
    let shard_points = shard_sweep(&[1, 2, 4, 8, 16], 3);
    assert!(
        shard_points.iter().all(|p| p.identical),
        "perf artifact refused: a sharded configuration diverged from the unsharded engine"
    );
    let json = json.obj(
        "shard_sweep",
        quest_bench::JsonObject::new()
            .str(
                "note",
                "scatter-gather over N hash shards; every point passed the bit-identity \
gate (full-workload SQL + score bits equal to the unsharded engine, pristine and after \
a routed mutation burst); reads are the uncached pipeline path",
            )
            .arr(
                "sweep",
                shard_points
                    .iter()
                    .map(|p| {
                        quest_bench::JsonObject::new()
                            .num("shards", p.shards as f64)
                            .num("build_ms", p.build.as_secs_f64() * 1e3)
                            .num("read_p50_us", p.search_p50_us)
                            .num("read_qps", p.search_qps)
                            .num("write_qps", p.write_qps)
                            .num("identity", if p.identical { 1.0 } else { 0.0 })
                    })
                    .collect(),
            ),
    );

    // Amplification accounting: physical work per unit of logical work,
    // read from the process-wide registry. The shard sweep above already
    // generated the scatter traffic; a dedicated replication exercise (one
    // primary, two replicas tailing the same log) produces the WAL and
    // replica volumes.
    {
        use quest_replica::{Primary, ReplicaSet, RoutingPolicy};
        use quest_wal::ChangeRecord;
        use std::sync::Arc;

        let amp_dir = std::env::temp_dir().join(format!("quest-bench-amp-{}", std::process::id()));
        std::fs::remove_dir_all(&amp_dir).ok();
        let primary = Arc::new(
            Primary::open(&amp_dir, ds.generate_default(), QuestConfig::default())
                .expect("amplification primary"),
        );
        let mut set = ReplicaSet::new(Arc::clone(&primary), RoutingPolicy::RoundRobin);
        for i in 0..2 {
            set.spawn_replica(&format!("amp-r{i}"))
                .expect("amplification replica");
        }
        for round in 0..8i64 {
            let person_id = 830_000 + 2 * round;
            primary
                .commit(&[
                    ChangeRecord::Insert {
                        table: "person".into(),
                        row: vec![
                            person_id.into(),
                            format!("Amplified Director {round}").into(),
                            1970.into(),
                        ],
                    },
                    ChangeRecord::Insert {
                        table: "movie".into(),
                        row: vec![
                            (person_id + 1).into(),
                            format!("Amplified Release {round}").into(),
                            2024.into(),
                            7.5.into(),
                            person_id.into(),
                        ],
                    },
                ])
                .expect("amplification commit");
            set.sync_all().expect("amplification sync");
        }
        primary.sync().expect("amplification fsync");
        drop(set);
        drop(primary);
        std::fs::remove_dir_all(&amp_dir).ok();
    }
    let global = quest_obs::global().snapshot();
    let counter = |name: &str| global.counter(name).unwrap_or(0) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let wal_logical = counter(quest_wal::names::LOGICAL_BYTES);
    let wal_physical = counter(quest_wal::names::PHYSICAL_BYTES);
    let committed = counter(quest_replica::names::RECORDS_COMMITTED);
    let applied = counter(quest_replica::names::RECORDS_APPLIED);
    let probes = counter(quest_shard::names::SCATTER_PROBES);
    let used = counter(quest_shard::names::SCATTER_USED);
    let json = json.obj(
        "amplification",
        quest_bench::JsonObject::new()
            .str(
                "note",
                "process-wide physical-vs-logical volume ratios: WAL bytes from the \
replication exercise (2 tailing replicas), replica records applied vs committed \
(~replica count), shard scatter probes issued vs nonzero results used (from the \
shard sweep's read bursts)",
            )
            .obj(
                "wal",
                quest_bench::JsonObject::new()
                    .num("logical_bytes", wal_logical)
                    .num("physical_bytes", wal_physical)
                    .num("write_amplification", ratio(wal_physical, wal_logical)),
            )
            .obj(
                "replica",
                quest_bench::JsonObject::new()
                    .num("records_committed", committed)
                    .num("records_applied", applied)
                    .num("apply_ratio", ratio(applied, committed)),
            )
            .obj(
                "shard",
                quest_bench::JsonObject::new()
                    .num("scatter_probes", probes)
                    .num("results_used", used)
                    .num("read_amplification", ratio(probes, used)),
            ),
    );

    std::fs::write(path, json.render_pretty()).expect("write benchmark artifact");
    println!(
        "wrote {path}: uncached single-query speedup {total_speedup:.2}x steady / {:.2}x first pass \
         (baseline p50 {:.1}us -> optimized p50 {:.1}us), backward stage {backward_speedup:.2}x \
         (p50 {:.1}us -> {:.1}us), pooled warm {:.0} qps",
        speedup(&baseline.total, &optimized_first.total),
        quest_bench::percentile_us(&baseline.total, 50.0),
        quest_bench::percentile_us(&optimized.total, 50.0),
        quest_bench::percentile_us(&baseline.backward, 50.0),
        quest_bench::percentile_us(&optimized.backward, 50.0),
        qps(pooled_warm)
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

// ---------------------------------------------------------------- E13

/// One measured point of the shard-count sweep.
struct ShardPoint {
    shards: usize,
    build: Duration,
    search_p50_us: f64,
    search_qps: f64,
    write_qps: f64,
    identical: bool,
}

/// Deterministic write rounds for the sweep: each inserts a fresh
/// person + movie (the movie referencing the person, so routing must
/// satisfy a cross-shard FK check) and retires the previous round's movie.
fn shard_write_batches() -> Vec<Vec<quest_wal::ChangeRecord>> {
    use quest_wal::ChangeRecord;
    (0..6i64)
        .map(|round| {
            let person_id = 830_000 + 2 * round;
            let movie_id = person_id + 1;
            let mut batch = vec![
                ChangeRecord::Insert {
                    table: "person".into(),
                    row: vec![
                        person_id.into(),
                        format!("Sharded Director {round}").into(),
                        1970.into(),
                    ],
                },
                ChangeRecord::Insert {
                    table: "movie".into(),
                    row: vec![
                        movie_id.into(),
                        format!("Sharded Release {round}").into(),
                        2024.into(),
                        7.5.into(),
                        person_id.into(),
                    ],
                },
            ];
            if round > 0 {
                batch.push(ChangeRecord::Delete {
                    table: "movie".into(),
                    key: vec![(movie_id - 2).into()],
                });
            }
            batch
        })
        .collect()
}

/// Bit-exact (SQL text, score bits) fingerprints over the workload.
fn shard_prints(
    workload: &[WorkloadQuery],
    catalog: &relstore::Catalog,
    search: impl Fn(&str) -> Option<quest_core::SearchOutcome>,
) -> Vec<Vec<(String, u64)>> {
    workload
        .iter()
        .map(|wq| match search(&wq.raw) {
            Some(out) => out
                .explanations
                .iter()
                .map(|e| (e.sql(catalog), e.score.to_bits()))
                .collect(),
            None => Vec::new(),
        })
        .collect()
}

/// Measure the sweep: per shard count, gather build time, the **uncached**
/// pipeline read p50/throughput (`search_query_with`, no result caches —
/// repeated streams would otherwise collapse every shard count to a cache
/// hit), the routed write throughput, and the identity verdict against the
/// unsharded engine before *and* after the write rounds.
fn shard_sweep(shard_counts: &[usize], reps: usize) -> Vec<ShardPoint> {
    use quest_serve::CachedEngine;
    use quest_shard::{ScatterGather, ShardConfig};

    let ds = Dataset::Imdb;
    let db = ds.generate_default();
    let workload = ds.workload();
    let queries: Vec<KeywordQuery> = workload.iter().map(|wq| wq.parse()).collect();
    let batches = shard_write_batches();
    let writes: usize = batches.iter().map(Vec::len).sum();

    // Unsharded reference fingerprints, pristine and post-mutation.
    let whole = CachedEngine::new(
        Quest::new(FullAccessWrapper::new(db.clone()), QuestConfig::default()).expect("build"),
    );
    let before = shard_prints(&workload, db.catalog(), |raw| whole.search(raw).ok());
    for batch in &batches {
        let report = whole.apply(batch).expect("unsharded apply");
        assert!(report.all_applied(), "write rounds are designed to apply");
    }
    let after = shard_prints(&workload, db.catalog(), |raw| whole.search(raw).ok());

    shard_counts
        .iter()
        .map(|&n| {
            let config = ShardConfig {
                shard_count: n,
                parallel: true,
            };
            let (gather, build) = time(|| {
                ScatterGather::new(&db, &config, QuestConfig::default()).expect("gather builds")
            });
            let mut identical =
                shard_prints(&workload, db.catalog(), |raw| gather.search(raw).ok()) == before;

            // Uncached pipeline reads: per-query timings, p50 over all reps.
            let mut samples = Vec::with_capacity(reps * queries.len());
            let mut scratch = quest_core::SearchScratch::new();
            let (_, read_wall) = time(|| {
                for _ in 0..reps {
                    for query in &queries {
                        let (_, d) = time(|| {
                            let engine = gather.engine().engine();
                            let _ = engine.search_query_with(query, &mut scratch);
                        });
                        samples.push(d);
                    }
                }
            });

            // Routed writes through the serving layer.
            let (_, write_wall) = time(|| {
                for batch in &batches {
                    let report = gather.apply(batch).expect("sharded apply");
                    assert!(report.all_applied(), "sharded write rounds all apply");
                }
            });
            identical &=
                shard_prints(&workload, db.catalog(), |raw| gather.search(raw).ok()) == after;

            ShardPoint {
                shards: n,
                build,
                search_p50_us: quest_bench::percentile_us(&samples, 50.0),
                search_qps: samples.len() as f64 / read_wall.as_secs_f64().max(1e-9),
                write_qps: writes as f64 / write_wall.as_secs_f64().max(1e-9),
                identical,
            }
        })
        .collect()
}

/// E13 — horizontal sharding: scatter-gather economics as the shard count
/// sweeps 1/2/4/8/16, with an inline identity gate — every configuration
/// must answer the full workload bit-identically (SQL text + score bits)
/// to the unsharded engine, pristine and after a mutation burst.
/// Correctness across shard counts, datasets, feedback epochs, and
/// recovery is pinned by `tests/shard.rs`; this experiment prices the
/// layout and refuses to report a divergent configuration.
///
/// Env knobs (used by the CI smoke run): `QUEST_E13_SHARDS` =
/// comma-separated shard counts (default `1,2,4,8,16`), `QUEST_E13_REPS` =
/// read-stream repetitions (default 6).
fn e13_sharding() {
    println!("\n## E13 — sharding: scatter-gather economics across shard counts (IMDB-shaped)\n");
    let reps: usize = std::env::var("QUEST_E13_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6);
    let shard_counts: Vec<usize> = std::env::var("QUEST_E13_SHARDS")
        .ok()
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .unwrap_or_default();
    let shard_counts = if shard_counts.is_empty() {
        vec![1, 2, 4, 8, 16]
    } else {
        shard_counts
    };

    let points = shard_sweep(&shard_counts, reps);
    let mut t = Table::new(&[
        "shards",
        "build",
        "read p50",
        "read qps",
        "write qps",
        "identity",
    ]);
    for p in &points {
        t.row(vec![
            p.shards.to_string(),
            fmt_dur(p.build),
            format!("{:.1}us", p.search_p50_us),
            format!("{:.0}", p.search_qps),
            format!("{:.0}", p.write_qps),
            if p.identical {
                "ok".into()
            } else {
                "DIVERGED".into()
            },
        ]);
    }
    print!("{}", t.render());
    println!(
        "\n(identity = full-workload SQL + score-bit equality with the unsharded engine, \
checked pristine and after the write rounds; shards scatter in-process threads, so read \
qps pins the scatter overhead per shard rather than cross-machine fan-out.)"
    );
    assert!(
        points.iter().all(|p| p.identical),
        "E13 identity gate: a sharded configuration diverged from the unsharded engine"
    );
}

// ---------------------------------------------------------------- E14

/// E14 — chaos: seeded deterministic fault schedules against replicated and
/// sharded topologies. Each schedule installs a generated `FaultPlan`, runs
/// a fixed mutation workload, drives the self-healing machinery (commit
/// retries, replica re-bootstrap, shard unfencing) to convergence under a
/// manual clock, and checks the healed service answers byte-identically to
/// a never-faulted twin. `QUEST_E14_SCHEDULES` overrides the schedule count
/// (CI smoke runs one batch and archives this output as the chaos summary).
fn e14_chaos() {
    use quest_fault::{self as fault, FaultPlan, ManualClock, RetryPolicy};
    use quest_replica::{Primary, PrimaryOptions, ReplicaSet, RoutingPolicy};
    use quest_shard::{ShardConfig, ShardError, ShardedPrimary};
    use quest_wal::ChangeRecord;
    use std::sync::Arc;

    println!(
        "\n## E14 — chaos: seeded fault schedules with self-healing convergence (IMDB-shaped)\n"
    );
    let schedules: u64 = std::env::var("QUEST_E14_SCHEDULES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24);

    let dataset = || {
        imdb::generate(&imdb::ImdbScale {
            movies: 40,
            seed: 7,
        })
        .expect("imdb generates")
    };
    let batches: Vec<Vec<ChangeRecord>> = (0..3i64)
        .map(|round| {
            let base = 930_000 + round * 10;
            vec![
                ChangeRecord::Insert {
                    table: "person".into(),
                    row: vec![
                        (base + 1).into(),
                        format!("Chaos Person {round}").into(),
                        (1950 + round).into(),
                    ],
                },
                ChangeRecord::Insert {
                    table: "movie".into(),
                    row: vec![
                        (base + 2).into(),
                        format!("Chaos Feature {round}").into(),
                        (1980 + round).into(),
                        7.0.into(),
                        (base + 1).into(),
                    ],
                },
            ]
        })
        .collect();
    let probes = ["chaos feature", "chaos person", "casablanca"];
    let e14_dir = |name: &str| {
        let dir = std::env::temp_dir().join(format!("quest-e14-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    };
    let retry = RetryPolicy {
        retries: 8,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(8),
        jitter_seed: 1,
    };

    // Fingerprints: per probe, each explanation's SQL + score bits in order.
    let prints = |search: &dyn Fn(&str) -> Option<quest_core::SearchOutcome>,
                  catalog: &relstore::Catalog| {
        probes
            .iter()
            .map(|raw| match search(raw) {
                Some(out) => out
                    .explanations
                    .iter()
                    .map(|e| (e.sql(catalog), e.score.to_bits()))
                    .collect(),
                None => Vec::new(),
            })
            .collect::<Vec<Vec<(String, u64)>>>()
    };

    // One replicated schedule under `plan` (None = the twin).
    let replicated = |tag: &str, plan: Option<FaultPlan>| {
        let dir = e14_dir(tag);
        let initial = dataset();
        let clock = Arc::new(ManualClock::new());
        let primary = Arc::new(
            Primary::open_with(
                &dir,
                initial.clone(),
                QuestConfig::default(),
                PrimaryOptions {
                    retry: retry.clone(),
                    clock: clock.clone(),
                    ..Default::default()
                },
            )
            .expect("primary opens"),
        );
        let mut set = ReplicaSet::new(Arc::clone(&primary), RoutingPolicy::RoundRobin);
        set.set_recovery(retry.clone(), clock.clone());
        set.spawn_replica("e14a").expect("replica");
        set.spawn_replica("e14b").expect("replica");
        if let Some(plan) = plan {
            fault::install(plan);
        }
        for batch in &batches {
            primary.commit(batch).expect("commit heals under retry");
            let _ = set.sync_all();
        }
        let target = primary.last_lsn();
        let mut ticks = 0u32;
        loop {
            clock.advance(Duration::from_millis(60));
            set.supervise();
            let synced = set.sync_all().is_ok();
            let replicas = set.replicas();
            if synced
                && replicas
                    .iter()
                    .all(|r| r.is_healthy() && r.applied_lsn() == target)
            {
                break;
            }
            ticks += 1;
            assert!(ticks < 256, "replicated schedule {tag} failed to converge");
        }
        let replica = &set.replicas()[0];
        let fp = prints(&|raw| replica.search(raw).ok(), initial.catalog());
        fault::clear();
        std::fs::remove_dir_all(&dir).ok();
        (fp, ticks)
    };

    // One sharded schedule under `plan` (None = the twin); a small retry
    // budget so stacked faults actually fence and exercise `recover()`.
    let sharded = |tag: &str, plan: Option<FaultPlan>| {
        let dir = e14_dir(tag);
        let db = dataset();
        let catalog = db.catalog().clone();
        let clock = Arc::new(ManualClock::new());
        let mut sp = ShardedPrimary::open(
            &dir,
            db,
            &ShardConfig {
                shard_count: 2,
                parallel: false,
            },
            QuestConfig::default(),
        )
        .expect("sharded primary opens");
        sp.set_recovery(
            RetryPolicy {
                retries: 2,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(4),
                jitter_seed: 1,
            },
            clock.clone(),
        );
        if let Some(plan) = plan {
            fault::install(plan);
        }
        let mut ticks = 0u32;
        for batch in &batches {
            match sp.commit(batch) {
                Ok(_) => {}
                Err(ShardError::ShardDown { .. }) => {
                    while !sp.is_healthy() {
                        clock.advance(Duration::from_millis(40));
                        sp.supervise();
                        ticks += 1;
                        assert!(ticks < 256, "sharded schedule {tag} failed to unfence");
                    }
                }
                Err(other) => panic!("unexpected commit error in {tag}: {other}"),
            }
        }
        assert!(sp.is_healthy(), "sharded set must end healthy in {tag}");
        let fp = prints(&|raw| sp.search(raw).ok(), &catalog);
        fault::clear();
        std::fs::remove_dir_all(&dir).ok();
        (fp, ticks)
    };

    let counters = || {
        let snap = quest_obs::global().snapshot();
        (
            snap.counter(fault::names::INJECTED).unwrap_or(0),
            snap.counter(fault::names::RETRIES).unwrap_or(0),
            snap.counter(fault::names::HEALS).unwrap_or(0),
        )
    };

    fault::clear();
    let twin_replicated = replicated("twin-r", None);
    let twin_sharded = sharded("twin-s", None);
    let (inj0, retry0, heal0) = counters();
    let mut identical = true;
    let mut max_ticks = 0u32;
    let per_topology = schedules.div_ceil(2);
    for seed in 0..schedules {
        let plan = FaultPlan::generate(seed, 5);
        if seed % 2 == 0 {
            let (fp, ticks) = replicated(&format!("r{seed}"), Some(plan));
            identical &= fp == twin_replicated.0;
            max_ticks = max_ticks.max(ticks);
        } else {
            let (fp, ticks) = sharded(&format!("s{seed}"), Some(plan));
            identical &= fp == twin_sharded.0;
            max_ticks = max_ticks.max(ticks);
        }
    }
    let (inj1, retry1, heal1) = counters();

    let mut t = Table::new(&[
        "topology",
        "schedules",
        "faults",
        "retries",
        "heals",
        "max heal ticks",
        "identity",
    ]);
    t.row(vec![
        "replicated + sharded".into(),
        schedules.to_string(),
        (inj1 - inj0).to_string(),
        (retry1 - retry0).to_string(),
        (heal1 - heal0).to_string(),
        max_ticks.to_string(),
        if identical {
            "ok".into()
        } else {
            "DIVERGED".into()
        },
    ]);
    print!("{}", t.render());
    println!(
        "\n(each schedule is a seeded FaultPlan over WAL, replica, and shard seams; identity = \
SQL + score-bit equality of the healed topology against a never-faulted twin; ~{per_topology} \
schedules per topology; heal ticks are manual-clock supervision rounds, so no wall time is \
spent in backoff.)"
    );
    assert!(
        identical,
        "E14 identity gate: a healed schedule diverged from its twin"
    );
    println!(
        "chaos OK: {schedules} schedules, {} faults injected, {} retries, {} heals, all \
converged healthy and twin-identical",
        inj1 - inj0,
        retry1 - retry0,
        heal1 - heal0
    );
}

// ---------------------------------------------------------------- E12

/// E12 — replication: read throughput as replicas are added (round-robin
/// routing, concurrent clients), then the cost of read-your-writes
/// consistency right after commits against eventual reads. Correctness —
/// replicas bit-identical to a cold engine at the same LSN — is pinned by
/// `tests/replica.rs`; this experiment measures the serving economics.
fn e12_replication() {
    use quest_replica::{Consistency, Primary, ReplicaSet, RoutingPolicy};
    use quest_wal::ChangeRecord;
    use std::sync::Arc;

    println!("\n## E12 — replication: read scale-out and consistency cost (IMDB-shaped)\n");
    const REPS: usize = 10;
    const CLIENTS: usize = 4;

    let ds = Dataset::Imdb;
    let db = ds.generate_default();
    let stream = quest_bench::shuffled_stream(&ds.workload(), REPS, 0x5EED_F00D_0000_0012);
    let e12_dir = |name: &str| {
        let dir = std::env::temp_dir().join(format!("quest-e12-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    };

    // Part A: read scale-out. The same warmed query stream, CLIENTS client
    // threads, routed over 0..4 replicas (0 = every read on the primary).
    let mut t = Table::new(&["replicas", "queries", "wall", "qps", "speedup"]);
    let mut base_wall = None;
    for replicas in [0usize, 1, 2, 4] {
        let dir = e12_dir(&format!("scale-{replicas}"));
        let primary =
            Arc::new(Primary::open(&dir, db.clone(), QuestConfig::default()).expect("primary"));
        let mut set = ReplicaSet::new(Arc::clone(&primary), RoutingPolicy::RoundRobin);
        for i in 0..replicas {
            set.spawn_replica(&format!("r{i}")).expect("replica");
        }
        // Warm every server's caches once (each replica sees each query).
        for wq in ds.workload() {
            for _ in 0..replicas.max(1) {
                set.query(&wq.raw, Consistency::Eventual).expect("warm");
            }
        }
        let (_, wall) = time(|| {
            std::thread::scope(|scope| {
                for chunk in stream.chunks(stream.len().div_ceil(CLIENTS)) {
                    let set = &set;
                    scope.spawn(move || {
                        for raw in chunk {
                            set.query(raw, Consistency::Eventual).expect("query");
                        }
                    });
                }
            });
        });
        let speedup = match base_wall {
            None => {
                base_wall = Some(wall);
                "1.00x".to_string()
            }
            Some(base) => format!("{:.2}x", base.as_secs_f64() / wall.as_secs_f64().max(1e-9)),
        };
        t.row(vec![
            replicas.to_string(),
            stream.len().to_string(),
            fmt_dur(wall),
            format!("{:.0}", stream.len() as f64 / wall.as_secs_f64().max(1e-9)),
            speedup,
        ]);
        std::fs::remove_dir_all(&dir).ok();
    }
    print!("{}", t.render());
    println!("\n(in-process replicas share one host's cores, so warm-cache throughput is flat by design — this table pins the router's overhead at near zero; the replica win is cache/lock isolation under churn and, across machines, real fan-out.)");

    // Part B: consistency cost. Two replicas with no background daemons;
    // after every commit, a burst of reads either tolerates staleness
    // (eventual: replicas drift behind) or demands the commit back
    // (read-your-writes: the first bounded read pulls a replica up to the
    // commit LSN over the shared log).
    const ROUNDS: usize = 5;
    const BURST: usize = 20;
    let mut t = Table::new(&[
        "consistency",
        "queries",
        "wall",
        "qps",
        "served stale",
        "max lag seen",
    ]);
    for read_your_writes in [false, true] {
        let dir = e12_dir(if read_your_writes { "ryw" } else { "eventual" });
        let primary =
            Arc::new(Primary::open(&dir, db.clone(), QuestConfig::default()).expect("primary"));
        let mut set = ReplicaSet::new(Arc::clone(&primary), RoutingPolicy::RoundRobin);
        for i in 0..2 {
            set.spawn_replica(&format!("r{i}")).expect("replica");
        }
        for wq in ds.workload().iter().take(BURST) {
            let _ = set.query(&wq.raw, Consistency::Eventual).expect("warm");
        }
        let mut stale = 0usize;
        let mut max_lag = 0u64;
        let queries: Vec<String> = ds
            .workload()
            .iter()
            .cycle()
            .take(BURST)
            .map(|wq| wq.raw.clone())
            .collect();
        let (_, wall) = time(|| {
            for round in 0..ROUNDS {
                let person_id = 820_000 + 2 * round as i64;
                let receipt = primary
                    .commit(&[
                        ChangeRecord::Insert {
                            table: "person".into(),
                            row: vec![
                                person_id.into(),
                                format!("Replicated Director {round}").into(),
                                1970.into(),
                            ],
                        },
                        ChangeRecord::Insert {
                            table: "movie".into(),
                            row: vec![
                                (person_id + 1).into(),
                                format!("Replicated Release {round}").into(),
                                2024.into(),
                                7.5.into(),
                                person_id.into(),
                            ],
                        },
                    ])
                    .expect("commit");
                let consistency = if read_your_writes {
                    Consistency::AtLeast(receipt.last_lsn)
                } else {
                    Consistency::Eventual
                };
                for raw in &queries {
                    let routed = set.query(raw, consistency).expect("query");
                    let lag = primary.last_lsn().saturating_sub(routed.lsn);
                    max_lag = max_lag.max(lag);
                    if lag > 0 {
                        stale += 1;
                    }
                }
            }
        });
        let total = ROUNDS * BURST;
        t.row(vec![
            if read_your_writes {
                "read-your-writes".into()
            } else {
                "eventual".into()
            },
            total.to_string(),
            fmt_dur(wall),
            format!("{:.0}", total as f64 / wall.as_secs_f64().max(1e-9)),
            format!("{stale}/{total}"),
            max_lag.to_string(),
        ]);
        std::fs::remove_dir_all(&dir).ok();
    }
    print!("{}", t.render());
    println!("\nread-your-writes pays one catch-up pull per commit (the shared log makes it a read, not a wait); eventual reads never block but drift by the full commit lag until a sync daemon catches the replicas up.");
}

// ---------------------------------------------------------------- E11

/// E11 — live update: sustained query throughput while mutation batches
/// interleave with the stream, against the static-data baseline. Each live
/// round applies one batch (insert person + movie, retitle an existing
/// movie, drop the previous round's movie) through the service's shared
/// engine before the next chunk of queries; the data epoch retires stale
/// cache entries, so the measured cost is honest (recompute + epoch purge +
/// engine re-sync), not stale-cache hits.
fn e11_live_update() {
    use quest_serve::{CachedEngine, QueryService};
    use quest_wal::ChangeRecord;

    println!("\n## E11 — query throughput under interleaved mutation batches (IMDB-shaped)\n");
    const REPS: usize = 20;
    const WORKERS: usize = 4;
    const CHUNK: usize = 50;
    let mut t = Table::new(&[
        "mode",
        "queries",
        "mutation batches",
        "wall",
        "qps",
        "slowdown",
        "fwd hit",
    ]);

    let ds = Dataset::Imdb;
    let engine = engine_for(ds);
    let stream = quest_bench::shuffled_stream(&ds.workload(), REPS, 0x5EED_F00D_0000_0011);
    // Existing movie PKs to retitle, read off the instance once.
    let movie_pks: Vec<relstore::Value> = {
        let db = engine.wrapper().database();
        let movie = db.catalog().table_id("movie").expect("movie");
        db.table_data(movie)
            .iter()
            .take(64)
            .map(|(_, row)| row.get(0).clone())
            .collect()
    };
    let batch_for = |round: usize| -> Vec<ChangeRecord> {
        let person_id = 800_000 + 2 * round as i64;
        let movie_id = person_id + 1;
        let mut batch = vec![
            ChangeRecord::Insert {
                table: "person".into(),
                row: vec![
                    person_id.into(),
                    format!("Fresh Director {round}").into(),
                    1970.into(),
                ],
            },
            ChangeRecord::Insert {
                table: "movie".into(),
                row: vec![
                    movie_id.into(),
                    format!("Hot Release {round}").into(),
                    2024.into(),
                    7.5.into(),
                    person_id.into(),
                ],
            },
            ChangeRecord::Update {
                table: "movie".into(),
                key: vec![movie_pks[round % movie_pks.len()].clone()],
                row: Vec::new(), // filled below: needs the live row
            },
        ];
        if round > 0 {
            batch.push(ChangeRecord::Delete {
                table: "movie".into(),
                key: vec![(movie_id - 2).into()],
            });
        }
        batch
    };

    let mut static_wall = None;
    for live in [false, true] {
        let service = QueryService::new(CachedEngine::new(engine.clone()), WORKERS);
        // Warm pass so both modes start from the steady state.
        for ticket in service.submit_batch(&stream) {
            let _ = ticket.wait();
        }
        let warm_stats = service.stats();
        let mut batches = 0usize;
        let (_, wall) = time(|| {
            for (round, chunk) in stream.chunks(CHUNK).enumerate() {
                if live {
                    let mut batch = batch_for(round);
                    // Resolve the retitle against the current live row.
                    if let ChangeRecord::Update { key, row, .. } = &mut batch[2] {
                        let engine_guard = service.engine().engine();
                        let db = engine_guard.wrapper().database();
                        let movie = db.catalog().table_id("movie").expect("movie");
                        let rid = db.table_data(movie).lookup_pk(key).expect("pk exists");
                        *row = db.table_data(movie).row(rid).values().to_vec();
                        row[1] = format!("Retitled Classic {round}").into();
                    }
                    service.engine().apply(&batch).expect("batch applies");
                    batches += 1;
                }
                for ticket in service.submit_batch(chunk) {
                    let _ = ticket.wait();
                }
            }
        });
        let stats = service.stats();
        let hits = stats.forward_cache.hits - warm_stats.forward_cache.hits;
        let misses = stats.forward_cache.misses - warm_stats.forward_cache.misses;
        let fwd = if hits + misses == 0 {
            "-".to_string()
        } else {
            format!("{:.1}%", 100.0 * hits as f64 / (hits + misses) as f64)
        };
        let slowdown = match static_wall {
            None => {
                static_wall = Some(wall);
                "1.00x".to_string()
            }
            Some(s) => format!("{:.2}x", wall.as_secs_f64() / s.as_secs_f64().max(1e-9)),
        };
        t.row(vec![
            if live { "live (mutating)" } else { "static" }.into(),
            stream.len().to_string(),
            batches.to_string(),
            fmt_dur(wall),
            format!("{:.0}", stream.len() as f64 / wall.as_secs_f64().max(1e-9)),
            slowdown,
            fwd,
        ]);
        service.shutdown();
    }
    print!("{}", t.render());
    println!("\nlive mode pays for epoch purges, cache refills, and engine re-syncs; correctness is pinned by tests/serve.rs (bit-identical to a cold engine on the mutated data).");
}

// ---------------------------------------------------------------- E10

/// E10 — serving throughput: the single-threaded engine vs the
/// `quest-serve` thread pool with cold and warm caches, on every dataset's
/// workload stream (each workload repeated and deterministically shuffled,
/// the shape of an analytical query stream with popular repeats).
fn e10_serve_throughput() {
    use quest_serve::{CachedEngine, QueryService};

    println!("\n## E10 — serve-throughput: thread pool + stage caches vs serial engine\n");
    const REPS: usize = 40;
    let mut t = Table::new(&[
        "dataset", "mode", "queries", "wall", "qps", "speedup", "fwd hit", "bwd hit",
    ]);
    let mut imdb_warm4_speedup = None;
    for ds in Dataset::ALL {
        let engine = engine_for(ds);
        let stream = quest_bench::shuffled_stream(&ds.workload(), REPS, 0x9E37_79B9_7F4A_7C15);
        let n = stream.len();

        // Serial baseline: today's blocking Quest::search loop, no cache.
        let (_, serial_t) = time(|| {
            for raw in &stream {
                let _ = engine.search(raw);
            }
        });
        let qps = |d: Duration| {
            if d.is_zero() {
                "inf".to_string()
            } else {
                format!("{:.0}", n as f64 / d.as_secs_f64())
            }
        };
        t.row(vec![
            ds.name().into(),
            "serial".into(),
            n.to_string(),
            fmt_dur(serial_t),
            qps(serial_t),
            "1.00x".into(),
            "-".into(),
            "-".into(),
        ]);

        for workers in [1usize, 2, 4] {
            let service = QueryService::new(CachedEngine::new(engine.clone()), workers);
            // Per-phase hit rates: cumulative counters minus the previous
            // phase's, so the warm row shows warm-pass behavior alone.
            let mut prev = service.stats();
            for phase in ["cold", "warm"] {
                let (_, wall) = time(|| {
                    let tickets = service.submit_batch(&stream);
                    for ticket in tickets {
                        let _ = ticket.wait();
                    }
                });
                let stats = service.stats();
                let rate = |hits: u64, misses: u64| {
                    let total = hits + misses;
                    if total == 0 {
                        "-".to_string()
                    } else {
                        format!("{:.1}%", 100.0 * hits as f64 / total as f64)
                    }
                };
                let fwd = rate(
                    stats.forward_cache.hits - prev.forward_cache.hits,
                    stats.forward_cache.misses - prev.forward_cache.misses,
                );
                let bwd = rate(
                    stats.backward_cache.hits - prev.backward_cache.hits,
                    stats.backward_cache.misses - prev.backward_cache.misses,
                );
                prev = stats;
                let speedup = serial_t.as_secs_f64() / wall.as_secs_f64().max(1e-9);
                if ds == Dataset::Imdb && workers == 4 && phase == "warm" {
                    imdb_warm4_speedup = Some(speedup);
                }
                t.row(vec![
                    ds.name().into(),
                    format!("serve {workers}w {phase}"),
                    n.to_string(),
                    fmt_dur(wall),
                    qps(wall),
                    format!("{speedup:.2}x"),
                    fwd,
                    bwd,
                ]);
            }
            service.shutdown();
        }
    }
    print!("{}", t.render());
    if let Some(s) = imdb_warm4_speedup {
        println!("\nwarm-cache IMDB at 4 workers: {s:.2}x serial throughput (target >= 2x)");
    }
}

// ---------------------------------------------------------------- E9

/// E9 — a-priori heuristic rules ablation: knock each semantic relationship
/// down to the unrelated floor and measure the damage (DESIGN.md's "design
/// choices" ablation; paper §3: the rules "foster the transition between
/// database terms belonging to the same table and belonging to tables
/// connected through foreign keys").
fn e9_rules_ablation() {
    println!("\n## E9 — a-priori semantic-rule ablation (MRR per dataset)\n");
    let base = SemanticRules::default();
    let floor = base.unrelated;
    let variants: Vec<(&str, SemanticRules)> = vec![
        ("full rules", base.clone()),
        (
            "no aggregation",
            SemanticRules {
                aggregation: floor,
                ..base.clone()
            },
        ),
        (
            "no inclusion (FK)",
            SemanticRules {
                inclusion: floor,
                ..base.clone()
            },
        ),
        (
            "no same-table",
            SemanticRules {
                same_table: floor,
                ..base.clone()
            },
        ),
        (
            "no generalization",
            SemanticRules {
                generalization: floor,
                ..base.clone()
            },
        ),
        (
            "flat (all = floor)",
            SemanticRules {
                aggregation: floor,
                inclusion: floor,
                same_table: floor,
                generalization: floor,
                identity: floor,
                ..base.clone()
            },
        ),
    ];
    let mut t = Table::new(&["rules", "imdb", "mondial", "dblp"]);
    for (label, rules) in &variants {
        let mut cells = vec![label.to_string()];
        for ds in Dataset::ALL {
            let db = ds.generate_default();
            let cfg = QuestConfig {
                rules: rules.clone(),
                ..Default::default()
            };
            let engine = Quest::new(FullAccessWrapper::new(db), cfg).expect("build");
            let m = evaluate(&engine, &ds.workload());
            cells.push(format!("{:.3}", m.mrr));
        }
        t.row(cells);
    }
    print!("{}", t.render());
}

// ---------------------------------------------------------------- E1

/// E1 — end-to-end effectiveness and latency on the IMDB-shaped database at
/// growing scale (demo message 1).
fn e1_scaling() {
    println!("\n## E1 — schema-based keyword→SQL at scale (IMDB-shaped)\n");
    let mut t = Table::new(&[
        "movies",
        "total rows",
        "setup",
        "avg query",
        "emissions",
        "forward",
        "backward",
        "combine",
        "hit@1",
        "hit@3",
        "MRR",
    ]);
    for movies in [500usize, 5_000, 25_000] {
        let (db, gen_t) =
            time(|| imdb::generate(&imdb::ImdbScale { movies, seed: 42 }).expect("generate"));
        let rows = db.total_rows();
        let (engine, setup_t) =
            time(|| Quest::new(FullAccessWrapper::new(db), QuestConfig::default()).expect("build"));
        let wl = imdb::workload();
        let mut stage = [Duration::ZERO; 4];
        let mut total = Duration::ZERO;
        let mut n = 0u32;
        for wq in &wl {
            if let Ok(out) = engine.search(&wq.raw) {
                let s = &out.timings;
                stage[0] += s.emissions;
                stage[1] += s.forward_apriori + s.forward_feedback;
                stage[2] += s.backward;
                stage[3] += s.combine_configs + s.combine_explanations;
                total += s.total();
                n += 1;
            }
        }
        let m = evaluate(&engine, &wl);
        let per = |d: Duration| fmt_dur(d / n.max(1));
        t.row(vec![
            movies.to_string(),
            rows.to_string(),
            fmt_dur(gen_t + setup_t),
            per(total),
            per(stage[0]),
            per(stage[1]),
            per(stage[2]),
            per(stage[3]),
            format!("{:.2}", m.hit_at_1),
            format!("{:.2}", m.hit_at_3),
            format!("{:.3}", m.mrr),
        ]);
    }
    print!("{}", t.render());
}

// ---------------------------------------------------------------- E2

/// E2 — the same queries through each module separately vs combined
/// (demo message 2).
fn e2_module_comparison() {
    println!("\n## E2 — per-module partial results vs DST combination\n");
    let mut t = Table::new(&["dataset", "mode", "hit@1", "hit@3", "MRR"]);
    for ds in Dataset::ALL {
        let db = ds.generate_default();
        let w = FullAccessWrapper::new(db);
        let wl = ds.workload();
        let catalog_owned = w.catalog().clone();
        let catalog = &catalog_owned;

        let forward = ForwardModule::new(&w, &SemanticRules::default()).expect("forward");
        let backward = BackwardModule::new(&w, &SchemaGraphWeights::default());

        // Train a feedback copy with two passes of perfect oracle feedback.
        let trained = forward.clone();
        let mut oracle = FeedbackOracle::perfect(11);
        for _ in 0..2 {
            for wq in &wl {
                let (cfg, _) = oracle.feedback_for(catalog, wq);
                trained.record_feedback(&cfg, true).expect("feedback");
            }
        }

        let k = 5usize;
        // Rank explanations per mode and evaluate against gold.
        type ModeFn<'a> = Box<dyn Fn(&WorkloadQuery) -> Vec<bool> + 'a>;
        let modes: Vec<(&str, ModeFn<'_>)> = vec![
            (
                "a-priori only",
                Box::new(|wq: &WorkloadQuery| {
                    let q = wq.parse();
                    let em = forward.emissions(&w, &q);
                    let configs = forward.top_k_apriori(&em, k).unwrap_or_default();
                    mask_for_configs(catalog, &backward, &q, &configs, wq, k)
                }),
            ),
            (
                "feedback only",
                Box::new(|wq: &WorkloadQuery| {
                    let q = wq.parse();
                    let em = trained.emissions(&w, &q);
                    let configs = trained.top_k_feedback(&em, k).unwrap_or_default();
                    mask_for_configs(catalog, &backward, &q, &configs, wq, k)
                }),
            ),
            (
                "backward only",
                Box::new(|wq: &WorkloadQuery| {
                    // Candidates from the a-priori list, ranked purely by
                    // interpretation (join path) score.
                    let q = wq.parse();
                    let em = forward.emissions(&w, &q);
                    let configs = forward.top_k_apriori(&em, k).unwrap_or_default();
                    let gold = wq.gold.to_statement(catalog).expect("gold");
                    let mut scored: Vec<(f64, bool)> = Vec::new();
                    for cfg in &configs {
                        for interp in backward
                            .interpretations(catalog, cfg, k)
                            .unwrap_or_default()
                        {
                            if let Ok(stmt) = build_query(
                                catalog,
                                backward.schema_graph(),
                                &q,
                                cfg,
                                &interp,
                                None,
                            ) {
                                scored.push((interp.score, statements_equivalent(&stmt, &gold)));
                            }
                        }
                    }
                    scored
                        .sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
                    scored.into_iter().take(k).map(|(_, hit)| hit).collect()
                }),
            ),
        ];

        for (name, f) in &modes {
            let masks: Vec<Vec<bool>> = wl.iter().map(f.as_ref()).collect();
            let m = aggregate(&masks);
            t.row(vec![
                ds.name().into(),
                (*name).into(),
                format!("{:.2}", m.hit_at_1),
                format!("{:.2}", m.hit_at_3),
                format!("{:.3}", m.mrr),
            ]);
        }

        // Combined: the full engine, trained identically.
        let engine = Quest::new(w.clone(), QuestConfig::default()).expect("engine builds");
        let mut oracle = FeedbackOracle::perfect(11);
        for _ in 0..2 {
            for wq in &wl {
                let (cfg, _) = oracle.feedback_for(engine.wrapper().catalog(), wq);
                engine.feedback_configuration(&cfg, true).expect("feedback");
            }
        }
        let m = evaluate(&engine, &wl);
        t.row(vec![
            ds.name().into(),
            "combined (QUEST)".into(),
            format!("{:.2}", m.hit_at_1),
            format!("{:.2}", m.hit_at_3),
            format!("{:.3}", m.mrr),
        ]);
    }
    print!("{}", t.render());
}

/// Rank a configuration list (scores as given), expand each to its best
/// interpretation, and compare the statements to gold.
fn mask_for_configs(
    catalog: &relstore::Catalog,
    backward: &BackwardModule,
    q: &KeywordQuery,
    configs: &[Configuration],
    wq: &WorkloadQuery,
    k: usize,
) -> Vec<bool> {
    let gold = wq.gold.to_statement(catalog).expect("gold resolves");
    configs
        .iter()
        .take(k)
        .map(|cfg| {
            backward
                .interpretations(catalog, cfg, 1)
                .ok()
                .and_then(|is| is.into_iter().next())
                .and_then(|interp| {
                    build_query(catalog, backward.schema_graph(), q, cfg, &interp, None).ok()
                })
                .map(|stmt| statements_equivalent(&stmt, &gold))
                .unwrap_or(false)
        })
        .collect()
}

// ---------------------------------------------------------------- E3

/// E3 — schema-level Steiner trees vs instance-level baselines at growing
/// instance size (demo message 3).
fn e3_schema_vs_instance() {
    println!("\n## E3 — schema-level Steiner vs instance-level baselines (IMDB-shaped)\n");
    let mut t = Table::new(&[
        "movies",
        "schema nodes",
        "schema edges",
        "QUEST top-5 ST",
        "instance nodes",
        "instance edges",
        "IG build",
        "BANKS top-5",
        "DISCOVER CNs",
        "DISCOVER time",
    ]);
    for movies in [200usize, 1_000, 5_000, 20_000] {
        let db = imdb::generate(&imdb::ImdbScale { movies, seed: 42 }).expect("generate");
        let w = FullAccessWrapper::new(db);
        let backward = BackwardModule::new(&w, &SchemaGraphWeights::default());
        let catalog = w.catalog();

        // QUEST: top-5 Steiner trees for the actor-join query's terminals.
        let attrs = [
            catalog.attr_id("person", "name").expect("attr"),
            catalog.attr_id("movie", "title").expect("attr"),
        ];
        let (_, st_t) = time(|| {
            backward
                .interpretations_for_attrs(&attrs, 5)
                .expect("steiner")
        });

        // Instance graph + BANKS.
        let (ig, ig_t) = time(|| InstanceGraph::build(w.database()));
        let q = KeywordQuery::parse("leigh wind").expect("parse");
        let (banks, banks_t) = time(|| banks_search(w.database(), &ig, &q, 5).expect("banks"));
        let _ = banks;

        // DISCOVER candidate networks.
        let (cns, cn_t) = time(|| discover_statements(w.database(), &q, 4, Some(10)));

        t.row(vec![
            movies.to_string(),
            backward.schema_graph().node_count().to_string(),
            backward.schema_graph().edge_count().to_string(),
            fmt_dur(st_t),
            ig.node_count().to_string(),
            ig.edge_count().to_string(),
            fmt_dur(ig_t),
            fmt_dur(banks_t),
            cns.len().to_string(),
            fmt_dur(cn_t),
        ]);
    }
    print!("{}", t.render());
    println!("\nschema graph is instance-size independent; the tuple graph and BANKS grow with the data.");
}

// ---------------------------------------------------------------- E4

/// E4 — DST sensitivity: uncertainty sweep and the feedback learning curve
/// (demo message 4 + abstract claim).
fn e4_dst_sensitivity() {
    println!("\n## E4a — forward/backward uncertainty sweep (IMDB-shaped, MRR)\n");
    let mut t = Table::new(&["O_C \\ O_I", "0.1", "0.3", "0.5", "0.7", "0.9"]);
    let db = imdb::generate(&imdb::ImdbScale {
        movies: 1_000,
        seed: 42,
    })
    .expect("generate");
    let w = FullAccessWrapper::new(db);
    let wl = imdb::workload();
    for o_c in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let mut cells = vec![format!("{o_c:.1}")];
        for o_i in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let cfg = QuestConfig {
                o_c,
                o_i,
                ..Default::default()
            };
            let engine = Quest::new(w.clone(), cfg).expect("build");
            let m = evaluate(&engine, &wl);
            cells.push(format!("{:.3}", m.mrr));
        }
        t.row(cells);
    }
    print!("{}", t.render());

    println!("\n## E4b — accuracy vs amount of (noisy) feedback\n");
    let mut t = Table::new(&["feedbacks", "O_Cf eff", "feedback-only MRR", "combined MRR"]);
    let forward0 = ForwardModule::new(&w, &SemanticRules::default()).expect("forward");
    let backward = BackwardModule::new(&w, &SchemaGraphWeights::default());
    let catalog_owned = w.catalog().clone();
    let catalog = &catalog_owned;
    let engine = Quest::new(w.clone(), QuestConfig::default()).expect("build");
    let fwd = forward0;
    let mut oracle_a = FeedbackOracle::new(0.2, 21);
    let mut oracle_b = FeedbackOracle::new(0.2, 21);
    let steps = [0usize, 12, 24, 60, 120];
    let mut given = 0usize;
    for target in steps {
        while given < target {
            let wq = &wl[given % wl.len()];
            let (cfg_a, _) = oracle_a.feedback_for(catalog, wq);
            fwd.record_feedback(&cfg_a, true).expect("feedback");
            let (cfg_b, _) = oracle_b.feedback_for(catalog, wq);
            engine
                .feedback_configuration(&cfg_b, true)
                .expect("feedback");
            given += 1;
        }
        // Feedback-only ranking quality.
        let masks: Vec<Vec<bool>> = wl
            .iter()
            .map(|wq| {
                let q = wq.parse();
                let em = fwd.emissions(&w, &q);
                let configs = fwd.top_k_feedback(&em, 5).unwrap_or_default();
                mask_for_configs(catalog, &backward, &q, &configs, wq, 5)
            })
            .collect();
        let fb_only = aggregate(&masks);
        let combined = evaluate(&engine, &wl);
        t.row(vec![
            target.to_string(),
            format!("{:.3}", engine.effective_o_cf()),
            format!("{:.3}", fb_only.mrr),
            format!("{:.3}", combined.mrr),
        ]);
    }
    print!("{}", t.render());
}

// ---------------------------------------------------------------- E5

/// E5 — full access vs Deep-Web wrapper on all three datasets.
fn e5_deep_web() {
    println!("\n## E5 — full access vs hidden source (Deep-Web wrapper)\n");
    let mut t = Table::new(&["dataset", "access", "hit@1", "hit@3", "hit@k", "MRR"]);
    for ds in Dataset::ALL {
        let wl = ds.workload();
        // Full access.
        let full = engine_for(ds);
        let m = evaluate(&full, &wl);
        t.row(vec![
            ds.name().into(),
            "full".into(),
            format!("{:.2}", m.hit_at_1),
            format!("{:.2}", m.hit_at_3),
            format!("{:.2}", m.hit_at_k),
            format!("{:.3}", m.mrr),
        ]);
        // Hidden.
        let db = ds.generate_default();
        let ann = annotations_for(ds, db.catalog());
        let deep = Quest::new_deep(db, ann);
        let catalog = deep.wrapper().catalog();
        let masks: Vec<Vec<bool>> = wl
            .iter()
            .map(|wq| {
                let gold = wq.gold.to_statement(catalog).expect("gold");
                deep.search(&wq.raw)
                    .map(|o| {
                        o.explanations
                            .iter()
                            .map(|e| statements_equivalent(&e.statement, &gold))
                            .collect()
                    })
                    .unwrap_or_default()
            })
            .collect();
        let m = aggregate(&masks);
        t.row(vec![
            ds.name().into(),
            "deep web".into(),
            format!("{:.2}", m.hit_at_1),
            format!("{:.2}", m.hit_at_3),
            format!("{:.2}", m.hit_at_k),
            format!("{:.3}", m.mrr),
        ]);
    }
    print!("{}", t.render());
}

/// Helper trait-ish constructor to keep E5 readable.
trait QuestDeep {
    fn new_deep(db: relstore::Database, ann: AnnotationSet) -> Quest<DeepWebWrapper>;
}
impl QuestDeep for Quest<DeepWebWrapper> {
    fn new_deep(db: relstore::Database, ann: AnnotationSet) -> Quest<DeepWebWrapper> {
        Quest::new(DeepWebWrapper::new(db, ann, 50), QuestConfig::default()).expect("build")
    }
}

/// Plausible owner-published annotations per dataset.
fn annotations_for(ds: Dataset, c: &relstore::Catalog) -> AnnotationSet {
    let mut ann = AnnotationSet::new();
    let mut pat = |t: &str, a: &str, p: &str| {
        let attr = c.attr_id(t, a).expect("attr exists");
        ann.set_pattern(attr, p).expect("pattern compiles");
    };
    match ds {
        Dataset::Imdb => {
            pat("movie", "year", r"(18|19|20)\d{2}");
            pat("person", "birth_year", r"(18|19|20)\d{2}");
            pat("person", "name", r"[A-Za-z' ]+");
            pat("movie", "title", r"[A-Za-z0-9' ]+");
            pat("company", "name", r"[A-Z][a-z]+ Pictures");
            let genre = c.attr_id("genre", "name").expect("attr");
            ann.add_examples(genre, ["Drama", "Comedy", "Thriller", "Noir", "Western"]);
        }
        Dataset::Mondial => {
            // A geographic form endpoint typically exposes its vocabularies
            // as dropdown lists: publish them as example values.
            let mut ex = |t: &str, a: &str, values: &[&str]| {
                let attr = c.attr_id(t, a).expect("attr exists");
                ann.add_examples(attr, values.iter().copied());
            };
            ex("country", "name", quest_data::corpus::COUNTRIES);
            ex("city", "name", quest_data::corpus::CITIES);
            ex("river", "name", quest_data::corpus::RIVERS);
            ex("mountain", "name", quest_data::corpus::MOUNTAINS);
            ex("language", "name", quest_data::corpus::LANGUAGES);
            ex("religion", "name", quest_data::corpus::RELIGIONS);
            let org = c.attr_id("organization", "abbreviation").expect("attr");
            ann.add_examples(
                org,
                quest_data::corpus::ORGANIZATIONS
                    .iter()
                    .map(|(_, abbr)| *abbr),
            );
        }
        Dataset::Dblp => {
            pat("author", "name", r"[A-Za-z' ]+");
            pat("publication", "title", r"[A-Za-z0-9 ]+");
            pat("publication", "year", r"(19|20)\d{2}");
            let venue = c.attr_id("venue", "name").expect("attr");
            ann.add_examples(venue, quest_data::corpus::VENUES.iter().copied());
            let aff = c.attr_id("author", "affiliation").expect("attr");
            ann.add_examples(
                aff,
                quest_data::corpus::UNIVERSITIES
                    .iter()
                    .map(|u| format!("University of {u}")),
            );
            let kind = c.attr_id("venue", "kind").expect("attr");
            ann.add_examples(kind, ["journal", "conference"]);
        }
    }
    ann
}

// ---------------------------------------------------------------- E7

/// E7 — list Viterbi k sweep: accuracy and latency vs k.
fn e7_k_sweep() {
    println!("\n## E7 — top-k sweep (IMDB-shaped)\n");
    let mut t = Table::new(&["k", "avg query", "hit@1", "hit@k", "MRR"]);
    let db = imdb::generate(&imdb::ImdbScale {
        movies: 1_000,
        seed: 42,
    })
    .expect("generate");
    let w = FullAccessWrapper::new(db);
    let wl = imdb::workload();
    for k in [1usize, 3, 5, 10, 20] {
        let cfg = QuestConfig {
            k,
            ..Default::default()
        };
        let engine = Quest::new(w.clone(), cfg).expect("build");
        let lat = quest_bench::mean_query_latency(&engine, &wl);
        let m = evaluate(&engine, &wl);
        t.row(vec![
            k.to_string(),
            fmt_dur(lat),
            format!("{:.2}", m.hit_at_1),
            format!("{:.2}", m.hit_at_k),
            format!("{:.3}", m.mrr),
        ]);
    }
    print!("{}", t.render());
}

// ---------------------------------------------------------------- E8

/// E8 — mutual-information edge weights vs uniform weights.
///
/// Two measurements:
/// * on the standard datasets, the fraction of top-3 interpretations whose
///   SQL returns tuples (both weightings do well — the generated joins are
///   dense);
/// * on the *sparse-directors* IMDB variant, where the direct person↔movie
///   FK is empty in the instance while the `cast_info` path is populated:
///   MI weighting routes around the dead join, uniform weighting walks
///   straight into it ("we want to consider only join-paths actually
///   existing in the database instance", paper §1).
fn e8_mi_ablation() {
    println!("\n## E8a — non-empty interpretations, standard datasets (top-3)\n");
    let mi_weights = SchemaGraphWeights {
        mi_penalty: 4.0,
        ..Default::default()
    };
    let mut t = Table::new(&["dataset", "weighting", "non-empty", "of total"]);
    for ds in Dataset::ALL {
        let db = ds.generate_default();
        let w = FullAccessWrapper::new(db);
        for (label, backward) in [
            ("MI", BackwardModule::new(&w, &mi_weights)),
            ("uniform", BackwardModule::new_uniform(&w)),
        ] {
            let (non_empty, total) = non_empty_stats(&w, &backward, &ds.workload(), 3, false);
            t.row(vec![
                ds.name().into(),
                label.into(),
                format!("{:.1}%", 100.0 * non_empty as f64 / total.max(1) as f64),
                format!("{non_empty}/{total}"),
            ]);
        }
    }
    print!("{}", t.render());

    println!("\n## E8b — top-1 interpretation non-empty, sparse-directors IMDB\n");
    let mut t = Table::new(&["weighting", "top-1 non-empty", "of queries"]);
    let db = imdb::generate_sparse_directors(&imdb::ImdbScale {
        movies: 1_000,
        seed: 42,
    })
    .expect("generate sparse");
    let w = FullAccessWrapper::new(db);
    // Only the person↔movie joining queries discriminate the two paths.
    let joining: Vec<WorkloadQuery> = imdb::workload()
        .into_iter()
        .filter(|wq| {
            wq.gold.tables.contains(&"person".to_string())
                && wq.gold.tables.contains(&"movie".to_string())
        })
        .collect();
    for (label, backward) in [
        ("MI", BackwardModule::new(&w, &mi_weights)),
        ("uniform", BackwardModule::new_uniform(&w)),
    ] {
        let (non_empty, total) = non_empty_stats(&w, &backward, &joining, 1, true);
        t.row(vec![
            label.into(),
            format!("{:.1}%", 100.0 * non_empty as f64 / total.max(1) as f64),
            format!("{non_empty}/{total}"),
        ]);
    }
    print!("{}", t.render());
}

/// Count non-empty interpretations among each gold configuration's top-k.
/// With `value_terms_only`, predicates from the gold config are kept but the
/// configuration used for routing is the gold one (pure backward test).
fn non_empty_stats(
    w: &FullAccessWrapper,
    backward: &BackwardModule,
    workload: &[WorkloadQuery],
    k: usize,
    top1_only: bool,
) -> (usize, usize) {
    let catalog = w.catalog();
    let mut non_empty = 0usize;
    let mut total = 0usize;
    for wq in workload {
        let q = wq.parse();
        let Ok(cfg) = wq.gold.to_configuration(catalog) else {
            continue;
        };
        let interps = backward
            .interpretations(catalog, &cfg, k)
            .unwrap_or_default();
        let take = if top1_only { 1 } else { k };
        for interp in interps.into_iter().take(take) {
            let Ok(stmt) = build_query(catalog, backward.schema_graph(), &q, &cfg, &interp, None)
            else {
                continue;
            };
            total += 1;
            if w.has_results(&stmt).unwrap_or(false) {
                non_empty += 1;
            }
        }
    }
    (non_empty, total)
}
