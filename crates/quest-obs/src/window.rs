//! Rolling-window aggregation over [`MetricsSnapshot`] deltas.
//!
//! Cumulative counters answer "how much ever"; operators ask "how much *per
//! second, right now*". A [`WindowAggregator`] retains the last
//! [`WindowConfig::window_ms`] worth of timestamped registry snapshots and
//! derives windowed readings from the delta between the oldest and newest
//! retained sample: counter deltas and per-second rates (QPS, error rate,
//! apply throughput), sliding percentiles from histogram *bucket* deltas
//! (the window's own latency distribution, not the lifetime one), and
//! per-gauge min/max across the retained instantaneous readings.
//!
//! **Counter-reset tolerance:** a process restart (or a fresh registry)
//! makes cumulative values go backwards. A counter whose newest reading is
//! below its oldest is treated as reset, and the newest reading *is* the
//! windowed delta; a histogram whose count or any bucket went backwards is
//! treated the same way. This is the standard scrape-side convention
//! (Prometheus `rate()` does likewise), so windowed numbers stay sane
//! across restarts instead of underflowing.
//!
//! Sampling is pull-driven — whoever scrapes ([`CachedEngine::stats`] in
//! the serving layer, or any caller with a snapshot) feeds
//! [`WindowAggregator::observe`]; nothing here spawns threads or reads
//! clocks behind the caller's back. `observe_at` takes an explicit
//! timestamp for deterministic tests.
//!
//! [`CachedEngine::stats`]: https://docs.rs/quest-serve

use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use crate::histogram::HistogramSnapshot;
use crate::metrics::MetricsSnapshot;

/// Window knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Width of the rolling window, milliseconds. Samples older than
    /// `newest - window_ms` are dropped.
    pub window_ms: u64,
    /// Hard cap on retained samples (oldest dropped first) so a caller
    /// scraping at high frequency cannot grow the aggregator unboundedly.
    pub max_samples: usize,
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig {
            window_ms: 10_000,
            max_samples: 128,
        }
    }
}

#[derive(Debug)]
struct WindowState {
    samples: VecDeque<(u64, MetricsSnapshot)>,
}

/// Windowed rates derived from the queries/errors counter pair — the
/// convenience readout the serving layer's health monitor consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowRates {
    /// Actual span covered by the retained samples, seconds.
    pub window_secs: f64,
    /// Queries per second over the window.
    pub qps: f64,
    /// Errors per query over the window (0 when no queries ran).
    pub error_rate: f64,
}

/// A rolling-window aggregator over timestamped [`MetricsSnapshot`]s.
#[derive(Debug)]
pub struct WindowAggregator {
    config: WindowConfig,
    epoch: Instant,
    state: Mutex<WindowState>,
}

impl WindowAggregator {
    /// An aggregator with explicit knobs.
    pub fn new(config: WindowConfig) -> WindowAggregator {
        WindowAggregator {
            config,
            epoch: Instant::now(),
            state: Mutex::new(WindowState {
                samples: VecDeque::new(),
            }),
        }
    }

    /// The knobs this aggregator runs with.
    pub fn config(&self) -> WindowConfig {
        self.config
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WindowState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Feed one snapshot, timestamped off the aggregator's own monotonic
    /// clock.
    pub fn observe(&self, snapshot: &MetricsSnapshot) {
        let at_ms = u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX);
        self.observe_at(at_ms, snapshot);
    }

    /// Feed one snapshot at an explicit millisecond timestamp (must be
    /// non-decreasing; an out-of-order sample is dropped — wall clocks
    /// step, windows must not).
    pub fn observe_at(&self, at_ms: u64, snapshot: &MetricsSnapshot) {
        let mut state = self.lock();
        if let Some(&(newest, _)) = state.samples.back() {
            if at_ms < newest {
                return;
            }
        }
        state.samples.push_back((at_ms, snapshot.clone()));
        // Retain one baseline sample at or before the horizon so a full
        // window's delta always has its left endpoint. While the window
        // still reaches back past the epoch (`at_ms < window_ms`) there is
        // no horizon yet and nothing may be evicted — a saturated horizon
        // of 0 would count a sample at ms 0 as "at the horizon" and evict
        // the baseline out of a same-millisecond pair.
        if let Some(horizon) = at_ms.checked_sub(self.config.window_ms) {
            while state.samples.len() >= 2 && state.samples[1].0 <= horizon {
                state.samples.pop_front();
            }
        }
        while state.samples.len() > self.config.max_samples {
            state.samples.pop_front();
        }
    }

    /// Retained sample count.
    pub fn samples(&self) -> usize {
        self.lock().samples.len()
    }

    /// `(oldest, newest)` retained timestamps, when at least one sample is
    /// held.
    pub fn span_ms(&self) -> Option<(u64, u64)> {
        let state = self.lock();
        Some((state.samples.front()?.0, state.samples.back()?.0))
    }

    fn endpoints<T>(
        &self,
        read: impl Fn(&MetricsSnapshot) -> Option<T>,
    ) -> Option<(u64, T, u64, T)> {
        let state = self.lock();
        if state.samples.len() < 2 {
            return None;
        }
        let (t0, oldest) = state.samples.front()?;
        let (t1, newest) = state.samples.back()?;
        Some((*t0, read(oldest)?, *t1, read(newest)?))
    }

    /// Windowed counter delta (newest − oldest), reset-tolerant: a newest
    /// reading below the oldest means the counter restarted, and the
    /// newest reading is the delta. `None` with fewer than two samples or
    /// when the counter is absent.
    pub fn delta_counter(&self, name: &str) -> Option<u64> {
        let (_, a, _, b) = self.endpoints(|s| s.counter(name))?;
        Some(if b < a { b } else { b - a })
    }

    /// Windowed per-second rate of a counter. `None` with fewer than two
    /// samples or a zero-width window.
    pub fn rate_per_sec(&self, name: &str) -> Option<f64> {
        let (t0, a, t1, b) = self.endpoints(|s| s.counter(name))?;
        if t1 == t0 {
            return None;
        }
        let delta = if b < a { b } else { b - a };
        Some(delta as f64 / ((t1 - t0) as f64 / 1000.0))
    }

    /// The window's own histogram: newest − oldest, bucket-wise. A count
    /// or bucket that went backwards marks a reset, and the newest
    /// snapshot is returned whole. `max` is the lifetime max (the
    /// histogram does not retain per-window maxima). `None` with fewer
    /// than two samples or when the histogram is absent.
    pub fn histogram_window(&self, name: &str) -> Option<HistogramSnapshot> {
        let (_, a, _, b) = self.endpoints(|s| s.histogram(name).cloned())?;
        let reset = b.count < a.count || b.buckets.iter().zip(&a.buckets).any(|(bn, an)| bn < an);
        if reset {
            return Some(b);
        }
        let mut delta = b.clone();
        for (slot, n) in delta.buckets.iter_mut().zip(&a.buckets) {
            *slot -= n;
        }
        delta.count -= a.count;
        delta.sum = delta.sum.wrapping_sub(a.sum);
        Some(delta)
    }

    /// Sliding exact-bound percentile over the window's histogram delta.
    pub fn percentile(&self, name: &str, p: f64) -> Option<u64> {
        Some(self.histogram_window(name)?.percentile(p))
    }

    /// `(min, max)` of a gauge's instantaneous readings across every
    /// retained sample. `None` when the gauge appears in no sample.
    pub fn gauge_extremes(&self, name: &str) -> Option<(i64, i64)> {
        let state = self.lock();
        let mut extremes: Option<(i64, i64)> = None;
        for (_, snap) in &state.samples {
            if let Some(v) = snap.gauge(name) {
                extremes = Some(match extremes {
                    None => (v, v),
                    Some((lo, hi)) => (lo.min(v), hi.max(v)),
                });
            }
        }
        extremes
    }

    /// QPS and error rate from a queries/errors counter pair.
    pub fn query_rates(&self, queries: &str, errors: &str) -> Option<WindowRates> {
        let (t0, q0, t1, q1) = self.endpoints(|s| s.counter(queries))?;
        if t1 == t0 {
            return None;
        }
        let dq = if q1 < q0 { q1 } else { q1 - q0 };
        let de = self.delta_counter(errors).unwrap_or(0);
        let window_secs = (t1 - t0) as f64 / 1000.0;
        Some(WindowRates {
            window_secs,
            qps: dq as f64 / window_secs,
            error_rate: if dq == 0 { 0.0 } else { de as f64 / dq as f64 },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    #[test]
    fn rates_and_deltas_over_a_window() {
        let r = MetricsRegistry::new();
        let q = r.counter("q");
        let e = r.counter("e");
        let w = WindowAggregator::new(WindowConfig {
            window_ms: 10_000,
            max_samples: 16,
        });
        w.observe_at(0, &r.snapshot());
        q.add(100);
        e.add(5);
        w.observe_at(2_000, &r.snapshot());
        assert_eq!(w.delta_counter("q"), Some(100));
        assert_eq!(w.rate_per_sec("q"), Some(50.0));
        let rates = w.query_rates("q", "e").unwrap();
        assert_eq!(rates.qps, 50.0);
        assert_eq!(rates.error_rate, 0.05);
        assert_eq!(rates.window_secs, 2.0);
    }

    #[test]
    fn empty_and_single_sample_windows_read_none() {
        let w = WindowAggregator::new(WindowConfig::default());
        assert_eq!(w.delta_counter("q"), None);
        assert_eq!(w.rate_per_sec("q"), None);
        assert_eq!(w.percentile("h", 99.0), None);
        assert_eq!(w.gauge_extremes("g"), None);
        let r = MetricsRegistry::new();
        r.counter("q").add(3);
        w.observe_at(0, &r.snapshot());
        assert_eq!(w.delta_counter("q"), None, "one sample has no baseline");
    }

    #[test]
    fn counter_reset_uses_newest_as_delta() {
        let old = MetricsRegistry::new();
        old.counter("q").add(1_000);
        let fresh = MetricsRegistry::new();
        fresh.counter("q").add(7);
        let w = WindowAggregator::new(WindowConfig::default());
        w.observe_at(0, &old.snapshot());
        w.observe_at(1_000, &fresh.snapshot());
        assert_eq!(w.delta_counter("q"), Some(7));
        assert_eq!(w.rate_per_sec("q"), Some(7.0));
    }

    #[test]
    fn window_percentile_sees_only_the_window() {
        let r = MetricsRegistry::new();
        let h = r.histogram("lat");
        for _ in 0..100 {
            h.record(100); // old fast traffic
        }
        let w = WindowAggregator::new(WindowConfig::default());
        w.observe_at(0, &r.snapshot());
        for _ in 0..10 {
            h.record(1_000_000); // the window's slow traffic
        }
        w.observe_at(1_000, &r.snapshot());
        let lifetime = r.snapshot().histogram("lat").unwrap().percentile(50.0);
        let windowed = w.percentile("lat", 50.0).unwrap();
        assert!(lifetime <= 127, "lifetime p50 dominated by fast traffic");
        assert!(windowed >= 1_000_000, "window p50 sees only slow traffic");
        assert_eq!(w.histogram_window("lat").unwrap().count, 10);
    }

    #[test]
    fn old_samples_fall_off_and_out_of_order_is_dropped() {
        let r = MetricsRegistry::new();
        let q = r.counter("q");
        let w = WindowAggregator::new(WindowConfig {
            window_ms: 1_000,
            max_samples: 16,
        });
        w.observe_at(0, &r.snapshot());
        q.add(10);
        w.observe_at(500, &r.snapshot());
        q.add(10);
        // Evicts t=0; t=500 survives as the baseline at the horizon.
        w.observe_at(2_000, &r.snapshot());
        assert_eq!(w.samples(), 2);
        assert_eq!(w.delta_counter("q"), Some(10));
        w.observe_at(1_999, &r.snapshot()); // out of order: dropped
        assert_eq!(w.samples(), 2);
    }

    #[test]
    fn same_millisecond_pair_at_the_epoch_keeps_its_baseline() {
        // Two scrapes inside the first millisecond of the aggregator's
        // life: before the window has elapsed there is no horizon, so the
        // seed sample must survive as the delta's left endpoint (a
        // saturated horizon of 0 used to evict it).
        let r = MetricsRegistry::new();
        let h = r.histogram("lat");
        let w = WindowAggregator::new(WindowConfig::default());
        w.observe_at(0, &r.snapshot());
        for _ in 0..10 {
            h.record(50_000);
        }
        w.observe_at(0, &r.snapshot());
        assert_eq!(w.samples(), 2);
        assert_eq!(w.histogram_window("lat").unwrap().count, 10);
        assert!(w.percentile("lat", 99.0).unwrap() >= 50_000);
    }

    #[test]
    fn gauge_extremes_cover_every_retained_sample() {
        let r = MetricsRegistry::new();
        let g = r.gauge("depth");
        let w = WindowAggregator::new(WindowConfig::default());
        for (t, v) in [(0, 2), (100, 9), (200, -1), (300, 4)] {
            g.set(v);
            w.observe_at(t, &r.snapshot());
        }
        assert_eq!(w.gauge_extremes("depth"), Some((-1, 9)));
    }
}
