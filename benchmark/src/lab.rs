//! The traced run: per-layer numbers, measured from outside.
//!
//! Each layer is timed by a benchmark-owned span around a call into one of
//! its public functions, on twins built from the workload's database and
//! fed the workload's query and commit streams; ratios are read off the
//! counters the product already exports. Reads are executed stage by stage
//! through the pipeline's public seams and must fingerprint-equal the
//! one-call result, so the decomposition is of the same computation.
//! End-to-end metrics never come from here.

use std::sync::Arc;
use std::time::{Duration, Instant};

use quest::core::StageTimings;
use quest::graph::{top_k_steiner_with, SteinerConfig, SteinerScratch};
use quest::prelude::*;
use quest::replica::names as replica_names;
use quest::serve::MutableSource;
use quest::shard::names as shard_names;
use quest::wal::names as wal_names;

use crate::gen::{query_pool, CommitStream};
use crate::harness::{
    fingerprint, metric, micros, out_dir, workers, Deadline, Metric, Report, ScratchDir,
    SpeedGauge, Tally,
};
use crate::json::Json;
use crate::span::Tracer;
use crate::stats::median;
use crate::workloads::{self, primary_options, sees_title, RunArgs, Stream};

/// Share of `--seconds` the workload's own client loop gets in a traced
/// run; the rest goes to the layer measurements.
const CLIENT_SHARE: f64 = 0.3;

/// Queries of the single-shard comparison.
const SINGLE_SHARD_QUERIES: usize = 2_000;

/// Spans per kind of request the trace file keeps; beyond that, every n-th
/// request is written.
const TRACE_FILE_SPANS_PER_GROUP: usize = 5_000;

/// Commit rounds the write path is decomposed over at least.
const MIN_WRITE_ROUNDS: usize = 3;

fn counter(name: &str) -> f64 {
    quest::obs::global().counter(name).value() as f64
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Median; a layer that was never called reports 0.
fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// Median of a span's durations, microseconds.
fn median_us(tracer: &Tracer, name: &str) -> f64 {
    median_or_zero(&tracer.durations_us(name))
}

/// What one staged read measured besides its spans.
struct Staged {
    outcome: SearchOutcome,
    /// Sum of the stage spans (parse, forward, every backward, assemble).
    stages: Duration,
    /// Wall time of the request span around them.
    wall: Duration,
    backward: Duration,
    configurations: usize,
    timings: StageTimings,
}

/// One read, stage by stage through the public seams, a span per call.
fn staged_read<W: SourceWrapper>(
    engine: &Quest<W>,
    raw: &str,
    scratch: &mut SearchScratch,
    tracer: &mut Tracer,
    request: u64,
) -> Result<Staged, QuestError> {
    let root = tracer.begin("client.staged", None, request);
    let mut stages = Duration::ZERO;
    let stage = |tracer: &mut Tracer, name: &'static str| {
        let id = tracer.begin(name, Some(root), request);
        move |tracer: &mut Tracer, stages: &mut Duration| {
            *stages += Duration::from_nanos(tracer.end(id));
            id
        }
    };

    let end = stage(tracer, "quest-core.parse");
    let query = KeywordQuery::parse(raw);
    end(tracer, &mut stages);
    let query = query?;

    scratch.reset_query_state();
    let end = stage(tracer, "quest-core.forward");
    let forward = engine.forward_pass_with(&query, scratch);
    let forward_span = end(tracer, &mut stages);
    let forward = forward?;
    // The forward pass reports its own inner stages; lay them out as child
    // spans so the trace shows them and self time excludes them.
    let timings = forward.timings.clone();
    let mut at = tracer.spans()[forward_span].start_ns;
    for (name, d) in [
        ("quest-core.forward.emissions", timings.emissions),
        (
            "quest-hmm.decode",
            timings.forward_apriori + timings.forward_feedback,
        ),
        ("quest-dst.combine_configs", timings.combine_configs),
    ] {
        tracer.record(name, forward_span, at, d.as_nanos() as u64);
        at += d.as_nanos() as u64;
    }

    let configurations = forward.configurations.len();
    let mut backward = Duration::ZERO;
    let mut interpretations = Vec::with_capacity(configurations);
    for cfg in &forward.configurations {
        let end = stage(tracer, "quest-core.backward");
        let interps = engine.backward_pass_with(cfg, scratch);
        let before = stages;
        end(tracer, &mut stages);
        backward += stages - before;
        interpretations.push(interps?);
    }

    let end = stage(tracer, "quest-core.assemble");
    let outcome = engine.assemble_with(&query, forward, interpretations, backward, scratch);
    end(tracer, &mut stages);
    let wall = Duration::from_nanos(tracer.end(root));
    Ok(Staged {
        outcome: outcome?,
        stages,
        wall,
        backward,
        configurations,
        timings,
    })
}

/// The same read in one call, under one span.
fn one_call_read<W: SourceWrapper>(
    engine: &Quest<W>,
    raw: &str,
    scratch: &mut SearchScratch,
    tracer: &mut Tracer,
    request: u64,
) -> (Result<SearchOutcome, QuestError>, Duration) {
    let id = tracer.begin("client.one_call", None, request);
    let result = KeywordQuery::parse(raw).and_then(|q| engine.search_query_with(&q, scratch));
    (result, Duration::from_nanos(tracer.end(id)))
}

/// Uncached single-thread read latency of `engine` over `queries`.
fn bare_read_us<W: SourceWrapper>(
    engine: &Quest<W>,
    queries: &[String],
    tally: &mut Tally,
) -> Vec<f64> {
    let mut scratch = SearchScratch::new();
    queries
        .iter()
        .filter_map(|raw| {
            let query = tally.op("parse", KeywordQuery::parse(raw))?;
            let t0 = Instant::now();
            let result = engine.search_query_with(&query, &mut scratch);
            let wall = t0.elapsed();
            tally.op("bare read", result).map(|_| micros(wall))
        })
        .collect()
}

/// The per-layer metrics, gathered section by section.
struct Lab<'a> {
    args: &'a RunArgs,
    db: &'a Database,
    catalog: Catalog,
    pool: Arc<Vec<String>>,
    hot: bool,
    tracer: Tracer,
    /// Machine speed over the whole of the layer measurements: every time
    /// reported here is at the nominal speed, like the end-to-end metrics.
    gauge: SpeedGauge,
    tally: Tally,
    metrics: Vec<Metric>,
    requests: u64,
}

impl Lab<'_> {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(metric(name, value, unit));
    }

    /// A new request id. Called between operations, so it is also where
    /// the speed gauge takes its sample when one is due.
    fn request(&mut self) -> u64 {
        self.gauge.tick(Instant::now());
        self.requests += 1;
        self.requests
    }

    /// The workload's query stream; `purpose` separates the sections.
    fn stream(&self, purpose: &str) -> Stream {
        if self.hot {
            Stream::hot(self.args.seed, purpose, &self.pool)
        } else {
            Stream::tail(self.args.seed, purpose)
        }
    }

    /// Distinct queries no engine of this section has seen: the pool in
    /// order for the hot workload, fresh tail queries otherwise.
    fn unseen(&self, n: usize) -> Vec<String> {
        if self.hot {
            self.pool.iter().take(n).cloned().collect()
        } else {
            let mut s = self.stream("unseen");
            (0..n).map(|_| s.next().to_string()).collect()
        }
    }

    /// relstore and quest-core read path, on a bare uncached engine.
    fn pipeline(&mut self, seconds: f64) -> Result<Quest<FullAccessWrapper>, String> {
        let mut copy = self.db.clone();
        let t0 = Instant::now();
        copy.finalize();
        self.put("relstore.finalize_s", t0.elapsed().as_secs_f64(), "s");
        let engine = Quest::new(FullAccessWrapper::new(copy), QuestConfig::default())
            .map_err(|e| e.to_string())?;
        let mut scratch = SearchScratch::new();

        // First against second sight of a query: the second finds the
        // engine's per-keyword memo filled.
        for raw in self.unseen(self.pool.len().min(256)) {
            let Some(query) = self.tally.op("parse", KeywordQuery::parse(&raw)) else {
                continue;
            };
            let request = self.request();
            for name in [
                "quest-core.forward.first_sight",
                "quest-core.forward.repeat",
            ] {
                scratch.reset_query_state();
                let id = self.tracer.begin(name, None, request);
                let result = engine.forward_pass_with(&query, &mut scratch);
                self.tracer.end(id);
                self.tally.op("forward pass", result);
            }
        }
        let first = median_us(&self.tracer, "quest-core.forward.first_sight");
        let repeat = median_us(&self.tracer, "quest-core.forward.repeat");
        self.put("quest-core.forward.first_sight_us", first, "us");
        self.put("quest-core.forward.repeat_us", repeat, "us");

        // Index probes: one prepared keyword against every value attribute.
        let domains: Vec<_> = engine
            .forward()
            .vocabulary()
            .terms()
            .iter()
            .filter_map(|t| match t {
                DbTerm::Domain(attr) => Some(*attr),
                _ => None,
            })
            .collect();
        let mut keywords_per_query = Vec::new();
        for raw in self.unseen(self.pool.len().min(256)) {
            let Some(query) = self.tally.op("parse", KeywordQuery::parse(&raw)) else {
                continue;
            };
            keywords_per_query.push(query.len() as f64);
            for keyword in &query.keywords {
                let request = self.request();
                self.tracer.time("relstore.probe", None, request, || {
                    let prepared = engine.wrapper().prepare_keyword(keyword);
                    for &attr in &domains {
                        std::hint::black_box(
                            engine.wrapper().value_score_prepared(attr, &prepared),
                        );
                    }
                });
            }
        }
        let probe_us = median_us(&self.tracer, "relstore.probe");
        self.put("relstore.probe_us", probe_us, "us");
        let keywords =
            keywords_per_query.iter().sum::<f64>() / keywords_per_query.len().max(1) as f64;
        self.put(
            "relstore.probes_per_query",
            keywords * domains.len() as f64,
            "count",
        );

        // Staged against one-call execution of the workload's stream.
        let templates_before = engine.backward().template_stats();
        let mut stream = self.stream("staged");
        let mut steiner = SteinerScratch::new();
        let steiner_cfg = SteinerConfig::top_k(engine.config().k);
        let (mut staged_wall, mut one_call_wall) = (Duration::ZERO, Duration::ZERO);
        let mut unattributed = Vec::new();
        let mut forward_total = Vec::new();
        let mut emissions = Vec::new();
        let mut decode = Vec::new();
        let mut combine = Vec::new();
        let mut backward_total = Vec::new();
        let mut configurations = Vec::new();
        let mut explanations = Vec::new();
        let deadline = Deadline::after(seconds);
        let mut n = 0u64;
        while !deadline.passed() {
            let raw = stream.next().to_string();
            let request = self.request();
            // Alternate which execution meets the engine's memos first.
            let one_call_first = n.is_multiple_of(2);
            n += 1;
            let mut one = None;
            if one_call_first {
                one = Some(one_call_read(
                    &engine,
                    &raw,
                    &mut scratch,
                    &mut self.tracer,
                    request,
                ));
            }
            let staged = staged_read(&engine, &raw, &mut scratch, &mut self.tracer, request);
            let (one, one_wall) = one.unwrap_or_else(|| {
                one_call_read(&engine, &raw, &mut scratch, &mut self.tracer, request)
            });
            let (Some(staged), Some(one)) = (
                self.tally.op("staged read", staged),
                self.tally.op("one-call read", one),
            ) else {
                continue;
            };
            let same =
                fingerprint(&staged.outcome, &self.catalog) == fingerprint(&one, &self.catalog);
            self.tally.check(same, || {
                format!("staged `{raw}` differs from the one-call result")
            });
            staged_wall += staged.wall;
            one_call_wall += one_wall;
            unattributed.push(micros(one_wall) - micros(staged.stages));
            let t = &staged.timings;
            forward_total.push(micros(
                t.emissions + t.forward_apriori + t.forward_feedback + t.combine_configs,
            ));
            emissions.push(micros(t.emissions));
            decode.push(micros(t.forward_apriori + t.forward_feedback));
            combine.push(micros(t.combine_configs));
            backward_total.push(micros(staged.backward));
            configurations.push(staged.configurations as f64);
            explanations.push(staged.outcome.explanations.len() as f64);

            // Price of a join-template miss: the Steiner enumeration for
            // the best configuration's terminals.
            if let Some(cfg) = staged.outcome.configurations.first() {
                let terminals = engine.backward().terminals(engine.wrapper().catalog(), cfg);
                if terminals.len() > 1 {
                    let graph = engine.backward().schema_graph().graph();
                    self.tracer.time("quest-graph.steiner", None, request, || {
                        std::hint::black_box(top_k_steiner_with(
                            graph,
                            &terminals,
                            &steiner_cfg,
                            &mut steiner,
                        ))
                        .is_ok()
                    });
                }
            }
        }
        let templates = engine.backward().template_stats();
        let hits = (templates.hits - templates_before.hits) as f64;
        let misses = (templates.misses - templates_before.misses) as f64;
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        self.put(
            "quest-core.forward.total_us",
            median_us(&self.tracer, "quest-core.forward"),
            "us",
        );
        self.put(
            "quest-core.forward.emissions_us",
            median_or_zero(&emissions),
            "us",
        );
        self.put("quest-hmm.decode_us", median_or_zero(&decode), "us");
        self.put(
            "quest-dst.combine_configs_us",
            median_or_zero(&combine),
            "us",
        );
        self.put(
            "quest-core.backward.total_us",
            median_or_zero(&backward_total),
            "us",
        );
        self.put(
            "quest-core.backward.configs_per_query",
            mean(&configurations),
            "count",
        );
        self.put(
            "quest-core.backward.template_hit_share",
            share(hits, hits + misses),
            "ratio",
        );
        self.put(
            "quest-graph.steiner_us",
            median_us(&self.tracer, "quest-graph.steiner"),
            "us",
        );
        self.put(
            "quest-core.assemble.total_us",
            median_us(&self.tracer, "quest-core.assemble"),
            "us",
        );
        self.put(
            "quest-core.assemble.explanations_per_query",
            mean(&explanations),
            "count",
        );
        self.put(
            "client.unattributed_us",
            median_or_zero(&unattributed),
            "us",
        );
        self.put(
            "client.trace_overhead_pct",
            100.0
                * share(
                    staged_wall.as_secs_f64() - one_call_wall.as_secs_f64(),
                    one_call_wall.as_secs_f64(),
                ),
            "%",
        );
        // The product's own forward timings must add up to the span around
        // the call, or the decomposition above is of something else.
        let inner = median_or_zero(&forward_total);
        let outer = median_us(&self.tracer, "quest-core.forward");
        self.tally.check(inner <= outer * 1.05, || {
            format!("forward timings ({inner} us) exceed the span around the call ({outer} us)")
        });
        Ok(engine)
    }

    /// quest-serve and quest-obs, on a cached engine with default caches.
    fn serving(
        &mut self,
        bare: &Quest<FullAccessWrapper>,
        seconds: f64,
    ) -> Result<Arc<CachedEngine<FullAccessWrapper>>, String> {
        let engine = Arc::new(CachedEngine::new(
            Quest::new(
                FullAccessWrapper::new(self.db.clone()),
                QuestConfig::default(),
            )
            .map_err(|e| e.to_string())?,
        ));
        let mut scratch = SearchScratch::new();
        if self.hot {
            for q in self.pool.iter() {
                self.tally
                    .op("warm read", engine.search_with(q, &mut scratch));
            }
        }

        // Cached reads, and what they cost beyond the pipeline stages the
        // engine itself accounts for.
        let mut stream = self.stream("cached");
        let before = engine.stats();
        let mut queries = Vec::new();
        let mut wall = Duration::ZERO;
        let deadline = Deadline::after(0.3 * seconds);
        while !deadline.passed() {
            let raw = stream.next().to_string();
            let request = self.request();
            let id = self
                .tracer
                .begin("quest-serve.cached_search", None, request);
            let result = engine.search_with(&raw, &mut scratch);
            wall += Duration::from_nanos(self.tracer.end(id));
            self.tally.op("cached read", result);
            queries.push(raw);
        }
        let after = engine.stats();
        let stage_sum = |s: &ServeStats| s.stages.forward + s.stages.backward + s.stages.assemble;
        let n = queries.len().max(1) as f64;
        let direct_qps = n / wall.as_secs_f64();
        let delta = |a: u64, b: u64| (a - b) as f64;
        let hit_share = |a: &quest::serve::CacheStats, b: &quest::serve::CacheStats| {
            let (hits, misses) = (delta(a.hits, b.hits), delta(a.misses, b.misses));
            share(hits, hits + misses)
        };
        self.put(
            "quest-serve.cached_search_us",
            median_us(&self.tracer, "quest-serve.cached_search"),
            "us",
        );
        self.put(
            "quest-serve.cache_overhead_us",
            (micros(wall) - micros(stage_sum(&after) - stage_sum(&before))) / n,
            "us",
        );
        self.put(
            "quest-serve.forward_hit_share",
            hit_share(&after.forward_cache, &before.forward_cache),
            "ratio",
        );
        self.put(
            "quest-serve.backward_hit_share",
            hit_share(&after.backward_cache, &before.backward_cache),
            "ratio",
        );

        // The same queries through the bare engine: what the caches save.
        let sample: Vec<String> = queries.iter().take(5_000).cloned().collect();
        let bare_us = bare_read_us(bare, &sample, &mut self.tally);
        self.put("quest-serve.bare_engine_us", median_or_zero(&bare_us), "us");

        // The pool: throughput in windows of 4 × workers against one thread
        // calling the engine directly, and a window-1 round trip.
        let service = QueryService::over(Arc::clone(&engine), workers());
        let window = 4 * workers();
        let (mut completed, mut busy) = (0usize, Duration::ZERO);
        let deadline = Deadline::after(0.25 * seconds);
        while !deadline.passed() {
            let batch: Vec<String> = (0..window).map(|_| stream.next().to_string()).collect();
            let t0 = Instant::now();
            let tickets = service.submit_batch(&batch);
            for ticket in tickets {
                self.tally.op("pooled read", ticket.wait());
                completed += 1;
            }
            busy += t0.elapsed();
        }
        let pooled_qps = completed as f64 / busy.as_secs_f64();
        self.put(
            "quest-serve.pool_efficiency",
            share(pooled_qps, workers() as f64 * direct_qps),
            "ratio",
        );
        let deadline = Deadline::after(0.1 * seconds);
        while !deadline.passed() {
            let raw = stream.next().to_string();
            let request = self.request();
            let id = self
                .tracer
                .begin("quest-serve.queue_roundtrip", None, request);
            let result = service.submit(&raw).wait();
            self.tracer.end(id);
            self.tally.op("round trip", result);
        }
        service.shutdown();
        self.put(
            "quest-serve.queue_roundtrip_us",
            median_us(&self.tracer, "quest-serve.queue_roundtrip"),
            "us",
        );

        // Observability overhead: the same reads with every registry and
        // the span collector off, in alternating slices.
        let slice = 0.35 * seconds / 8.0;
        let mut mean_us = [Vec::new(), Vec::new()];
        for i in 0..8 {
            let enabled = i % 2 == 0;
            engine.metrics().set_enabled(enabled);
            quest::obs::global().set_enabled(enabled);
            quest::obs::spans().set_enabled(enabled);
            let deadline = Deadline::after(slice);
            let (mut reads, t0) = (0u64, Instant::now());
            while !deadline.passed() {
                let result = engine.search_with(stream.next(), &mut scratch);
                self.tally.op("read", result);
                reads += 1;
            }
            mean_us[usize::from(enabled)].push(micros(t0.elapsed()) / reads.max(1) as f64);
        }
        engine.metrics().set_enabled(true);
        quest::obs::global().set_enabled(true);
        quest::obs::spans().set_enabled(true);
        let (off, on) = (median(&mean_us[0]), median(&mean_us[1]));
        self.put("quest-obs.overhead_pct", 100.0 * share(on - off, off), "%");
        Ok(engine)
    }

    /// quest-shard read path: scatter per keyword and the price of
    /// sharding against the bare unsharded engine.
    fn scatter(
        &mut self,
        bare: &Quest<FullAccessWrapper>,
        seconds: f64,
    ) -> Result<ScatterGather, String> {
        let gateway = ScatterGather::new(self.db, &ShardConfig::default(), QuestConfig::default())
            .map_err(|e| e.to_string())?;
        let mut stream = self.stream("scatter");
        let (probes, used) = (
            counter(shard_names::SCATTER_PROBES),
            counter(shard_names::SCATTER_USED),
        );
        let mut queries = Vec::new();
        let mut sharded_us = Vec::new();
        {
            let engine = gateway.engine().engine();
            let mut scratch = SearchScratch::new();
            let deadline = Deadline::after(0.5 * seconds);
            while !deadline.passed() {
                let raw = stream.next().to_string();
                let Some(query) = self.tally.op("parse", KeywordQuery::parse(&raw)) else {
                    continue;
                };
                let request = self.request();
                for keyword in &query.keywords {
                    self.tracer.time("quest-shard.scatter", None, request, || {
                        std::hint::black_box(engine.wrapper().prepare_keyword(keyword));
                    });
                }
                let t0 = Instant::now();
                let result = engine.search_query_with(&query, &mut scratch);
                let wall = t0.elapsed();
                if self.tally.op("sharded read", result).is_some() {
                    sharded_us.push(micros(wall));
                    queries.push(raw);
                }
            }
        }
        let unsharded_us = bare_read_us(bare, &queries, &mut self.tally);
        self.put(
            "quest-shard.scatter_us",
            median_us(&self.tracer, "quest-shard.scatter"),
            "us",
        );
        self.put(
            "quest-shard.scatter_tax",
            share(median_or_zero(&sharded_us), median_or_zero(&unsharded_us)),
            "ratio",
        );
        self.put(
            "quest-shard.read_amplification",
            share(
                counter(shard_names::SCATTER_PROBES) - probes,
                counter(shard_names::SCATTER_USED) - used,
            ),
            "ratio",
        );

        // One shard: what the gateway costs when there is nothing to merge.
        let single = ScatterGather::new(self.db, &ShardConfig::new(1), QuestConfig::default())
            .map_err(|e| e.to_string())?;
        let sample: Vec<String> = queries.into_iter().take(SINGLE_SHARD_QUERIES).collect();
        let single_us = bare_read_us(&single.engine().engine(), &sample, &mut self.tally);
        let unsharded_us = bare_read_us(bare, &sample, &mut self.tally);
        self.put(
            "quest-shard.single_shard_tax",
            share(median_or_zero(&single_us), median_or_zero(&unsharded_us)),
            "ratio",
        );
        Ok(gateway)
    }

    /// The write path, decomposed: every round applies one generated batch
    /// to a twin per layer, a span around each call.
    fn write_path(
        &mut self,
        mut bare: Quest<FullAccessWrapper>,
        cached: Arc<CachedEngine<FullAccessWrapper>>,
        gateway: ScatterGather,
        seconds: f64,
    ) -> Result<(), String> {
        let dir = ScratchDir::new("lab").map_err(|e| e.to_string())?;
        let err = |e: &dyn std::fmt::Display| e.to_string();
        let mut database = self.db.clone();
        let mut log = WalWriter::open_with(
            &dir.path().join("scratch.wal"),
            &self.catalog,
            SyncPolicy::Never,
        )
        .map_err(|e| err(&e))?;
        let primary = Arc::new(
            Primary::open_with(
                &dir.path().join("primary"),
                self.db.clone(),
                QuestConfig::default(),
                primary_options(),
            )
            .map_err(|e| err(&e))?,
        );
        let mut set = ReplicaSet::new(Arc::clone(&primary), RoutingPolicy::RoundRobin);
        let t0 = Instant::now();
        let replica = set.spawn_replica("replica-1").map_err(|e| err(&e))?;
        self.put("quest-replica.bootstrap_s", t0.elapsed().as_secs_f64(), "s");
        let t0 = Instant::now();
        let mut topology = ShardedPrimary::open(
            &dir.path().join("sharded"),
            self.db.clone(),
            &ShardConfig::default(),
            QuestConfig::default(),
        )
        .map_err(|e| err(&e))?;
        self.put("quest-shard.open_s", t0.elapsed().as_secs_f64(), "s");

        let purges = |e: &CachedEngine<FullAccessWrapper>| {
            let s = e.stats();
            (s.forward_cache.purge_scans + s.backward_cache.purge_scans) as f64
        };
        let purges_before = purges(&cached);
        let fsync = || {
            quest::obs::global()
                .histogram(wal_names::FSYNC)
                .snapshot()
                .count as f64
        };
        let (mut fsyncs, mut logical, mut physical) = (0.0, 0.0, 0.0);
        let (mut committed, mut applied) = (0.0, 0.0);
        let fallbacks = counter(replica_names::ROUTER_FALLBACK);
        let mut at_least_reads = 0.0;
        let mut rounds = 0usize;
        let deadline = Deadline::after(seconds);
        for batch in CommitStream::new(self.args.seed) {
            if rounds >= MIN_WRITE_ROUNDS && deadline.passed() {
                break;
            }
            rounds += 1;
            let request = self.request();
            let records = &batch.records;
            let root = self.tracer.begin("client.commit", None, request);
            let t = &mut self.tracer;

            // quest-wal: append, then the fsync a durable commit pays.
            let ok = t.time("quest-wal.append", Some(root), request, || {
                log.append_batch(records)
            });
            self.tally.op("append", ok);
            let ok = t.time("quest-wal.fsync", Some(root), request, || log.sync());
            self.tally.op("fsync", ok);

            // relstore: the batch on a bare database, statistics deferred
            // to the end of the batch as the engine does it.
            let rejected = t.time("relstore.mutate", Some(root), request, || {
                database.with_stats_deferred(|db| {
                    records.iter().filter(|r| r.apply(db).is_err()).count()
                })
            });
            self.tally
                .check(rejected == 0, || "bare database rejected records".into());

            // quest-core: re-sync of the engine after a real mutation.
            let mut report = quest::serve::ApplyReport::default();
            bare.source_mut().apply_changes(records, &mut report);
            let ok = t.time("quest-core.resync", Some(root), request, || bare.resync());
            self.tally.op("resync", ok);

            // quest-serve: the whole apply (mutate, resync, epoch, purge).
            let ok = t.time("quest-serve.apply", Some(root), request, || {
                cached.apply(records)
            });
            self.tally.op("apply", ok);

            // quest-replica: commit on a durable primary, then the replica
            // catching up — directly on even rounds, inside a read-your-
            // writes query on odd ones.
            let (f0, l0, p0) = (
                fsync(),
                counter(wal_names::LOGICAL_BYTES),
                counter(wal_names::PHYSICAL_BYTES),
            );
            let (c0, a0) = (
                counter(replica_names::RECORDS_COMMITTED),
                counter(replica_names::RECORDS_APPLIED),
            );
            let receipt = t.time("quest-replica.commit", Some(root), request, || {
                primary.commit(records)
            });
            fsyncs += fsync() - f0;
            logical += counter(wal_names::LOGICAL_BYTES) - l0;
            physical += counter(wal_names::PHYSICAL_BYTES) - p0;
            if let Some(receipt) = self.tally.op("commit", receipt) {
                if rounds.is_multiple_of(2) {
                    let ok = t.time("quest-replica.replica_sync", Some(root), request, || {
                        replica.sync()
                    });
                    self.tally.op("replica sync", ok);
                } else {
                    at_least_reads += 1.0;
                    let routed =
                        set.query(&batch.title_word, Consistency::AtLeast(receipt.last_lsn));
                    let fresh = self.tally.op("read own write", routed).is_some_and(|r| {
                        r.lsn >= receipt.last_lsn
                            && sees_title(&primary.engine().engine(), &r.outcome, &batch.title)
                    });
                    self.tally
                        .check(fresh, || format!("read own write missed {}", batch.title));
                }
            }
            committed += counter(replica_names::RECORDS_COMMITTED) - c0;
            applied += counter(replica_names::RECORDS_APPLIED) - a0;

            // quest-shard: the gateway's apply alone, then a whole sharded
            // commit (gateway, routing, one log per touched shard).
            let ok = t.time("quest-shard.gateway_apply", Some(root), request, || {
                gateway.apply(records)
            });
            self.tally.op("gateway apply", ok);
            let ok = t.time("quest-shard.commit", Some(root), request, || {
                topology.commit(records)
            });
            self.tally.op("sharded commit", ok);
            t.end(root);
        }
        let commits = rounds as f64;
        for (name, span) in [
            ("quest-wal.append_us", "quest-wal.append"),
            ("quest-wal.fsync_us", "quest-wal.fsync"),
            ("relstore.mutate_us", "relstore.mutate"),
            ("quest-core.resync_us", "quest-core.resync"),
            ("quest-serve.apply_us", "quest-serve.apply"),
            ("quest-replica.commit_us", "quest-replica.commit"),
            (
                "quest-replica.replica_sync_us",
                "quest-replica.replica_sync",
            ),
            ("quest-shard.gateway_apply_us", "quest-shard.gateway_apply"),
        ] {
            let value = median_us(&self.tracer, span);
            self.put(name, value, "us");
        }
        let route_and_log = median_us(&self.tracer, "quest-shard.commit")
            - median_us(&self.tracer, "quest-shard.gateway_apply");
        self.put("quest-shard.route_and_log_us", route_and_log, "us");
        self.put(
            "quest-serve.purge_scans",
            purges(&cached) - purges_before,
            "count",
        );
        self.put(
            "quest-wal.physical_per_logical_bytes",
            share(physical, logical),
            "ratio",
        );
        self.put(
            "quest-wal.fsyncs_per_commit",
            share(fsyncs, commits),
            "ratio",
        );
        self.put(
            "quest-replica.apply_ratio",
            share(applied, committed),
            "ratio",
        );
        self.put(
            "quest-replica.fallback_share",
            share(
                counter(replica_names::ROUTER_FALLBACK) - fallbacks,
                at_least_reads,
            ),
            "ratio",
        );

        // quest-wal's share of recovery: snapshot plus log suffix.
        let (snapshot, wal) = (primary.snapshot_path(), primary.wal_path());
        drop((set, replica, primary));
        let t0 = Instant::now();
        let recovered = quest::wal::recover(&snapshot, &wal);
        self.put("quest-wal.reopen_s", t0.elapsed().as_secs_f64(), "s");
        let replayed = self
            .tally
            .op("recover", recovered)
            .map(|r| r.applied as f64);
        self.tally.check(replayed.is_some_and(|n| n > 0.0), || {
            "recovery replayed nothing".into()
        });
        Ok(())
    }
}

/// The traced run of one workload: its client loop for a share of the time
/// (tails and failure counts), then every layer on twins of its database.
pub fn traced_run(workload: &str, args: &RunArgs) -> Result<Report, String> {
    let data = workloads::generate_for(workload, args)?;
    let generate_s = data.generate_s;
    let db = data.db.clone();
    // Set-up and recovery are end-to-end metrics, which a traced run does
    // not report: once each is enough here.
    let client_args = RunArgs {
        seconds: CLIENT_SHARE * args.seconds,
        scale: workloads::Scale {
            repeats: 1,
            small_repeats: 1,
            ..args.scale
        },
        ..*args
    };
    let client = workloads::run_on(workload, &client_args, data)?;
    let mut lab = Lab {
        args,
        db: &db,
        catalog: db.catalog().clone(),
        pool: Arc::new(query_pool(args.seed, args.scale.pool)),
        // `write_mixed` reads the hot pool; `shard_mixed` the tail stream.
        hot: matches!(workload, "serve_hot" | "write_mixed"),
        tracer: Tracer::new(),
        gauge: SpeedGauge::new(),
        tally: client.report.tally,
        metrics: Vec::new(),
        requests: 0,
    };
    lab.put("quest-data.generate_s", generate_s, "s");
    let seconds = (1.0 - CLIENT_SHARE) * args.seconds;
    let bare = lab.pipeline(0.3 * seconds)?;
    let cached = lab.serving(&bare, 0.25 * seconds)?;
    let gateway = lab.scatter(&bare, 0.15 * seconds)?;
    lab.write_path(bare, cached, gateway, 0.3 * seconds)?;
    // Times so far are as measured; report them at the nominal speed. The
    // client loop's figures below already are.
    let factor = lab.gauge.factor();
    for m in &mut lab.metrics {
        if matches!(m.unit, "us" | "s") {
            m.value *= factor;
        }
    }
    let tails = client.tails;
    lab.put("client.read_p50_us", tails.read_p50_us, "us");
    lab.put("client.read_p99_us", tails.read.value, "us");
    lab.put("client.commit_per_s", tails.commit_per_s, "1/s");
    lab.put("client.commit_p95_us", tails.commit.value, "us");
    lab.put(
        "client.read_after_commit_p95_us",
        tails.read_after_commit.value,
        "us",
    );

    let file = out_dir()
        .map_err(|e| e.to_string())?
        .join(format!("trace-{workload}.json"));
    std::fs::write(
        &file,
        lab.tracer
            .to_chrome_trace(TRACE_FILE_SPANS_PER_GROUP)
            .to_string(),
    )
    .map_err(|e| format!("{}: {e}", file.display()))?;
    let self_time = Json::obj(
        lab.tracer
            .self_time_by_name_us()
            .into_iter()
            .map(|(name, us)| (name, Json::Num(us))),
    );
    let mut notes = client.report.notes;
    if let Json::Obj(pairs) = &mut notes {
        pairs.push(("spans".into(), Json::Num(lab.tracer.spans().len() as f64)));
        pairs.push(("self_time_us".into(), self_time));
        pairs.push(("trace_file".into(), Json::str(file.display().to_string())));
        pairs.retain(|(k, _)| k != "failures");
        pairs.push((
            "failures".into(),
            Json::Arr(lab.tally.examples.iter().map(Json::str).collect()),
        ));
    }
    Ok(Report {
        tally: lab.tally,
        metrics: lab.metrics,
        notes,
    })
}
