//! Zero-dependency observability core for the QUEST stack: an atomic
//! [`MetricsRegistry`] of counters, gauges, and log-bucketed latency
//! histograms; explicit-context spans in one bounded ring; and two
//! exporters (Prometheus text exposition, JSON snapshot).
//!
//! Design constraints, in order:
//!
//! 1. **Inert.** Recording is relaxed atomics behind handles resolved at
//!    construction time — no locks, no allocation, no branches beyond one
//!    enabled check on the hot path. A [`MetricsRegistry::disabled`]
//!    registry reduces every recording call to a single relaxed load, and
//!    the serving/replica/shard bit-identity suites run with
//!    instrumentation live.
//! 2. **Dependency-free.** Sits below every runtime crate (even
//!    `quest-wal`), so it can be wired through the whole stack without
//!    cycles, and builds offline.
//! 3. **Exact where it counts.** Histogram `count`/`sum`/`max` are exact;
//!    percentiles are exact *bucket bounds* (factor-of-two intervals), not
//!    interpolations; merges are lossless.
//!
//! Two registries matter in practice: each `CachedEngine` owns one (its
//! snapshot rides along in `ServeStats`), and [`global()`] aggregates the
//! layers with no natural owner — the WAL, replication, and shard fan-out
//! paths. Beyond the registry, three observability subsystems build on it:
//!
//! - **Span tracing** ([`span`]): explicit-[`TraceCtx`] spans through the
//!   write path and query path, collected in the bounded [`spans()`] ring
//!   and exported as Chrome trace-event JSON
//!   ([`to_chrome_trace_json`]). A served query is one `query` root span
//!   plus one span per stage, all under one trace id.
//! - **SLO health** ([`health`]): declarative [`SloSpec`] bounds graded
//!   into a [`HealthReport`] — strictly observational.
//! - **Amplification accounting**: the WAL/replica/shard layers publish
//!   logical-vs-physical byte and probe counters here; their ratios are
//!   per-layer metrics of the repo benchmark.
//!
//! The span ring holds the last 2048 spans; `spans().set_enabled(false)`
//! turns tracing off.

#![warn(missing_docs)]

pub mod export;
pub mod health;
pub mod histogram;
pub mod metrics;
pub mod span;

pub use export::{
    parse_prometheus_text, to_chrome_trace_json, to_json, to_prometheus_text, ParsedSample,
};
pub use health::{HealthInputs, HealthReport, HealthStatus, SloSpec};
pub use histogram::{
    bucket_index, bucket_lower_bound, bucket_upper_bound, HistogramSnapshot, BUCKETS,
};
pub use metrics::{
    Counter, Gauge, Histogram, Labels, MetricSnapshot, MetricValue, MetricsRegistry,
    MetricsSnapshot, WindowedGauge,
};
pub use span::{spans, SpanCollector, SpanRecord, TraceCtx, TraceKind};

use std::sync::OnceLock;

/// The process-wide registry for layers with no natural per-instance owner:
/// WAL writers, replicas, routers, and shard stores all record here, so one
/// scrape sees the whole process. Always enabled by default; flip it off
/// with `global().set_enabled(false)` for a near-no-op stack.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Saturating `Duration` → whole microseconds (the unit spans use).
pub fn duration_us(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Saturating `Duration` → whole nanoseconds (the unit latency histograms
/// use — nanoseconds keep histogram sums exact, so wall-time totals derived
/// from them match dedicated accumulators bit for bit).
pub fn duration_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_shared_and_enabled() {
        assert!(global().is_enabled());
        let c = global().counter("quest_obs_selftest_total");
        c.inc();
        assert!(global().snapshot().counter("quest_obs_selftest_total") >= Some(1));
    }

    #[test]
    fn duration_us_floors_and_saturates() {
        assert_eq!(duration_us(std::time::Duration::from_nanos(999)), 0);
        assert_eq!(duration_us(std::time::Duration::from_micros(7)), 7);
        assert_eq!(duration_us(std::time::Duration::MAX), u64::MAX);
    }
}
