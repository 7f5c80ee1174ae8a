//! Serving counters, the registry-backed recorder, and the [`ServeStats`]
//! snapshot.
//!
//! Every number the serving layer records lives in a per-engine
//! [`quest_obs::MetricsRegistry`]: query/error counters, a total-latency
//! histogram, one histogram per pipeline stage (replacing the old flat
//! wall-time sums — the sums are now derived from the histograms, which
//! additionally give exact-bound p50/p95/p99). Cache hit/miss counts live
//! inside the forward LRU and the engine's join-template memo and are
//! mirrored into registry gauges at snapshot time, so one registry
//! snapshot — and therefore one [`ServeStats::metrics`] and one `Display`
//! rendering — covers every public counter. `Display` iterates the snapshot instead of a hand-kept
//! field list: a newly registered metric cannot be silently omitted.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use quest_obs::{Counter, HealthReport, Histogram, MetricValue, MetricsRegistry, MetricsSnapshot};

/// Counters of one cache at snapshot time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries currently held.
    pub entries: usize,
    /// Maximum entries; 0 for the unbounded join-template memo.
    pub capacity: usize,
    /// Always 0. Dead-epoch entries are no longer swept; they age out of
    /// the LRU. The field stays for readers of the old counter.
    pub purge_scans: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when never consulted).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Cumulative wall time per pipeline stage, summed across all searches
/// (and across threads). Divide by [`ServeStats::queries`] — or by
/// `uncached_forward` for the fine-grained forward substages — for means.
/// An answered hit ([`ServeStats::answered_hits`]) runs no stage and adds
/// nothing here; its wall time is in the total latency only.
///
/// Derived from the per-stage histograms (exact sums), so it stays
/// consistent with the percentile readouts in [`ServeStats::metrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageLatencies {
    /// Forward stage (cache lookup, and on a miss the full computation).
    pub forward: Duration,
    /// Backward stage (template-memo lookups plus any Steiner enumeration).
    pub backward: Duration,
    /// Final assembly: second DST combination, SQL building, ranking.
    pub assemble: Duration,
    /// Emission-matrix computation inside *uncached* forward passes.
    pub emissions: Duration,
    /// Both HMM decodes inside uncached forward passes.
    pub decode: Duration,
    /// First DST combination inside uncached forward passes.
    pub combine_configs: Duration,
    /// Forward passes actually computed (denominator for the three
    /// substage counters above).
    pub uncached_forward: u64,
}

/// A point-in-time snapshot of the serving layer's counters.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Searches completed (successfully or not).
    pub queries: u64,
    /// Searches that returned an error.
    pub errors: u64,
    /// Data epoch at snapshot time (mutation batches applied so far).
    pub data_epoch: u64,
    /// Externally assigned progress marker — a replication LSN for a
    /// replica engine (see the `quest-replica` crate), 0 when unused.
    pub watermark: u64,
    /// Physical partitions behind the engine's source: 1 for an ordinary
    /// store, N for a sharded scatter-gather store (the `quest-shard`
    /// crate). 0 only in a default-constructed snapshot.
    pub shards: usize,
    /// Keyword → top-k-configurations cache (forward stage).
    pub forward_cache: CacheStats,
    /// The engine's join-template memo (Steiner terminal set + k →
    /// interpretations), which serves the backward stage. Rebuilt from
    /// empty — every count back to zero — whenever a mutation batch
    /// resyncs the engine.
    pub backward_cache: CacheStats,
    /// Forward-cache hits served from a stored answer, with no backward
    /// pass and no assembly (a subset of `forward_cache.hits`).
    pub answered_hits: u64,
    /// Total wall time spent inside searches, summed across threads.
    pub total_latency: Duration,
    /// Slowest single search.
    pub max_latency: Duration,
    /// Cumulative per-stage wall time (see [`StageLatencies`]).
    pub stages: StageLatencies,
    /// The engine registry's full snapshot: every counter, gauge, and
    /// stage histogram (with exact-bound p50/p95/p99), including all of
    /// the typed fields above. `Display` renders *this*, so nothing can be
    /// registered yet dropped from the rendering.
    pub metrics: MetricsSnapshot,
    /// SLO grade of the window ending at this snapshot — `None` until a
    /// spec is installed via `CachedEngine::set_slo`. Strictly
    /// observational: the grade never feeds back into serving.
    pub health: Option<HealthReport>,
}

impl ServeStats {
    /// Mean wall time per search ([`Duration::ZERO`] before any search).
    pub fn mean_latency(&self) -> Duration {
        if self.queries == 0 {
            Duration::ZERO
        } else {
            // Divide in u128: `Duration / u32` would truncate the query
            // count and wrap to a division by zero at 2^32 queries.
            Duration::from_nanos((self.total_latency.as_nanos() / self.queries as u128) as u64)
        }
    }

    /// Exact-bound latency percentile in microseconds, read from the
    /// total-latency histogram (0 before any search or in a
    /// default-constructed snapshot).
    pub fn latency_percentile_us(&self, p: f64) -> u64 {
        self.metrics
            .histogram(names::LATENCY)
            .map(|h| h.percentile(p) / 1_000)
            .unwrap_or(0)
    }
}

impl fmt::Display for ServeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "queries: {} ({} errors), mean {:?}, max {:?}, {} shard{}",
            self.queries,
            self.errors,
            self.mean_latency(),
            self.max_latency,
            self.shards,
            if self.shards == 1 { "" } else { "s" }
        )?;
        writeln!(
            f,
            "forward cache:  {}/{} hits ({:.1}%), {} answered, {} of {} entries",
            self.forward_cache.hits,
            self.forward_cache.hits + self.forward_cache.misses,
            100.0 * self.forward_cache.hit_rate(),
            self.answered_hits,
            self.forward_cache.entries,
            self.forward_cache.capacity
        )?;
        writeln!(
            f,
            "backward cache: {}/{} hits ({:.1}%), {} join templates",
            self.backward_cache.hits,
            self.backward_cache.hits + self.backward_cache.misses,
            100.0 * self.backward_cache.hit_rate(),
            self.backward_cache.entries
        )?;
        write!(
            f,
            "stages: forward {:?}, backward {:?}, assemble {:?} \
             (uncached fwd {}: emissions {:?}, decode {:?}, combine {:?})",
            self.stages.forward,
            self.stages.backward,
            self.stages.assemble,
            self.stages.uncached_forward,
            self.stages.emissions,
            self.stages.decode,
            self.stages.combine_configs
        )?;
        // The registry-driven section: one line per registered metric.
        // Regenerated from the snapshot, never from a hand-kept list — a
        // metric added anywhere in the serving layer shows up here without
        // touching this function (pinned by `display_covers_every_metric`).
        // The same property surfaces cross-cutting series: merging the
        // global registry's snapshot into `metrics` (see
        // `MetricsSnapshot::merge`) renders the `quest_fault_*` fault,
        // retry, heal, and quarantine counters alongside the serving
        // numbers — pinned by the chaos suite's exposition-coverage test.
        for m in &self.metrics.metrics {
            write!(f, "\n  {}: ", m.full_name())?;
            match &m.value {
                MetricValue::Counter(v) => write!(f, "{v}")?,
                MetricValue::Gauge(v) => write!(f, "{v}")?,
                MetricValue::Histogram(h) => write!(
                    f,
                    "count={} p50={:?} p95={:?} p99={:?} max={:?}",
                    h.count,
                    Duration::from_nanos(h.percentile(50.0)),
                    Duration::from_nanos(h.percentile(95.0)),
                    Duration::from_nanos(h.percentile(99.0)),
                    Duration::from_nanos(h.max),
                )?,
            }
        }
        if let Some(health) = &self.health {
            write!(f, "\nhealth: {health}")?;
        }
        Ok(())
    }
}

/// The serving layer's metric names, shared by the recorder, the snapshot
/// mirrors, and the consumers that read a registry snapshot by name.
pub mod names {
    /// Total searches (counter).
    pub const QUERIES: &str = "quest_serve_queries_total";
    /// Failed searches (counter).
    pub const ERRORS: &str = "quest_serve_errors_total";
    /// Total per-search wall time (histogram, nanoseconds).
    pub const LATENCY: &str = "quest_serve_latency_ns";
    /// Forward-stage wall (histogram, nanoseconds).
    pub const STAGE_FORWARD: &str = "quest_serve_stage_forward_ns";
    /// Backward-stage wall (histogram, nanoseconds).
    pub const STAGE_BACKWARD: &str = "quest_serve_stage_backward_ns";
    /// Assembly wall (histogram, nanoseconds).
    pub const STAGE_ASSEMBLE: &str = "quest_serve_stage_assemble_ns";
    /// Emission computation inside uncached forward passes (histogram).
    pub const STAGE_EMISSIONS: &str = "quest_serve_stage_emissions_ns";
    /// HMM decodes inside uncached forward passes (histogram).
    pub const STAGE_DECODE: &str = "quest_serve_stage_decode_ns";
    /// First DST combination inside uncached forward passes (histogram).
    pub const STAGE_COMBINE: &str = "quest_serve_stage_combine_ns";
    /// Forward passes actually computed (counter).
    pub const UNCACHED_FORWARD: &str = "quest_serve_uncached_forward_total";
    /// Forward-cache hits answered from a stored outcome (counter).
    pub const ANSWERED_HITS: &str = "quest_serve_answered_hits_total";
    /// Jobs submitted but not yet picked up by a worker (gauge).
    pub const QUEUE_DEPTH: &str = "quest_serve_queue_depth";
    /// Snapshot-time mirror gauges of the non-registry counters.
    pub const MIRRORS: &[&str] = &[
        "quest_serve_data_epoch",
        "quest_serve_watermark",
        "quest_serve_shards",
        "quest_serve_forward_cache_hits",
        "quest_serve_forward_cache_misses",
        "quest_serve_forward_cache_entries",
        "quest_serve_backward_cache_hits",
        "quest_serve_backward_cache_misses",
        "quest_serve_backward_cache_entries",
    ];
}

/// Registry-backed recorder: the engine's hot-path handles. Recording is
/// handle-local relaxed atomics; nothing here takes the registry lock after
/// construction.
#[derive(Debug)]
pub(crate) struct ServeObs {
    registry: Arc<MetricsRegistry>,
    queries: Counter,
    errors: Counter,
    latency: Histogram,
    forward: Histogram,
    backward: Histogram,
    assemble: Histogram,
    emissions: Histogram,
    decode: Histogram,
    combine: Histogram,
    uncached_forward: Counter,
    answered_hits: Counter,
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl ServeObs {
    pub fn new(registry: Arc<MetricsRegistry>) -> ServeObs {
        registry.describe(names::QUERIES, "Total searches served.");
        registry.describe(names::ERRORS, "Searches that returned an error.");
        registry.describe(names::LATENCY, "Per-search wall time, nanoseconds.");
        registry.describe(
            names::ANSWERED_HITS,
            "Forward-cache hits answered from a stored outcome, with no stage run.",
        );
        registry.describe(
            names::QUEUE_DEPTH,
            "Jobs submitted but not yet claimed by a worker or a waiting caller.",
        );
        ServeObs {
            queries: registry.counter(names::QUERIES),
            errors: registry.counter(names::ERRORS),
            latency: registry.histogram(names::LATENCY),
            forward: registry.histogram(names::STAGE_FORWARD),
            backward: registry.histogram(names::STAGE_BACKWARD),
            assemble: registry.histogram(names::STAGE_ASSEMBLE),
            emissions: registry.histogram(names::STAGE_EMISSIONS),
            decode: registry.histogram(names::STAGE_DECODE),
            combine: registry.histogram(names::STAGE_COMBINE),
            uncached_forward: registry.counter(names::UNCACHED_FORWARD),
            answered_hits: registry.counter(names::ANSWERED_HITS),
            registry,
        }
    }

    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Record one completed search.
    pub fn record(&self, elapsed: Duration, ok: bool) {
        self.queries.inc();
        if !ok {
            self.errors.inc();
        }
        self.latency.record(nanos(elapsed));
    }

    /// Record one search's stage wall times (what this search actually
    /// spent — a cache hit contributes only its lookup cost).
    pub fn record_stage_walls(&self, forward: Duration, backward: Duration, assemble: Duration) {
        self.forward.record(nanos(forward));
        self.backward.record(nanos(backward));
        self.assemble.record(nanos(assemble));
    }

    /// Record one search answered from a stored outcome. It ran no stage,
    /// so it records no stage wall.
    pub fn record_answered(&self) {
        self.answered_hits.inc();
    }

    /// Record the fine-grained timings of one forward pass that was
    /// actually computed (a forward-cache miss).
    pub fn record_uncached_forward(&self, timings: &quest_core::StageTimings) {
        self.uncached_forward.inc();
        self.emissions.record(nanos(timings.emissions));
        self.decode
            .record(nanos(timings.forward_apriori + timings.forward_feedback));
        self.combine.record(nanos(timings.combine_configs));
    }

    /// Fill the query-level fields of a snapshot from the registry handles.
    /// The histogram sums are exact, so the derived [`StageLatencies`] are
    /// bit-identical to the old dedicated wall-time accumulators.
    pub fn snapshot_into(&self, stats: &mut ServeStats) {
        stats.queries = self.queries.value();
        stats.errors = self.errors.value();
        stats.answered_hits = self.answered_hits.value();
        let latency = self.latency.snapshot();
        stats.total_latency = Duration::from_nanos(latency.sum);
        stats.max_latency = Duration::from_nanos(latency.max);
        stats.stages = StageLatencies {
            forward: Duration::from_nanos(self.forward.snapshot().sum),
            backward: Duration::from_nanos(self.backward.snapshot().sum),
            assemble: Duration::from_nanos(self.assemble.snapshot().sum),
            emissions: Duration::from_nanos(self.emissions.snapshot().sum),
            decode: Duration::from_nanos(self.decode.snapshot().sum),
            combine_configs: Duration::from_nanos(self.combine.snapshot().sum),
            uncached_forward: self.uncached_forward.value(),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs() -> ServeObs {
        ServeObs::new(Arc::new(MetricsRegistry::new()))
    }

    #[test]
    fn hit_rate_handles_zero_and_mixed() {
        let s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        let s = CacheStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert_eq!(s.hit_rate(), 0.75);
    }

    #[test]
    fn recorder_accumulates() {
        let r = obs();
        r.record(Duration::from_millis(2), true);
        r.record(Duration::from_millis(6), false);
        let mut s = ServeStats::default();
        r.snapshot_into(&mut s);
        assert_eq!(s.queries, 2);
        assert_eq!(s.errors, 1);
        assert_eq!(s.total_latency, Duration::from_millis(8));
        assert_eq!(s.max_latency, Duration::from_millis(6));
        assert_eq!(s.mean_latency(), Duration::from_millis(4));
    }

    #[test]
    fn stage_sums_match_the_histograms_exactly() {
        let r = obs();
        r.record_stage_walls(
            Duration::from_micros(100),
            Duration::from_micros(7),
            Duration::from_nanos(333),
        );
        r.record_stage_walls(
            Duration::from_micros(50),
            Duration::ZERO,
            Duration::from_nanos(667),
        );
        let mut s = ServeStats::default();
        r.snapshot_into(&mut s);
        assert_eq!(s.stages.forward, Duration::from_micros(150));
        assert_eq!(s.stages.backward, Duration::from_micros(7));
        assert_eq!(s.stages.assemble, Duration::from_micros(1));
        let snap = r.registry().snapshot();
        assert_eq!(snap.histogram(names::STAGE_FORWARD).unwrap().count, 2);
    }

    #[test]
    fn display_renders_all_sections() {
        let s = ServeStats {
            queries: 5,
            forward_cache: CacheStats {
                hits: 4,
                misses: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let text = s.to_string();
        assert!(text.contains("queries: 5"));
        assert!(text.contains("forward cache"));
        assert!(text.contains("80.0%"));
        assert!(text.contains("backward cache"));
        assert!(text.contains("stages:"));
    }
}
