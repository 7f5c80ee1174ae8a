//! The [`MetricsRegistry`]: named counters, gauges, and histograms.
//!
//! Registration (name → handle) takes a mutex, but it happens once per
//! metric at construction time; the returned handles are `Arc`-backed and
//! record through relaxed atomics only. A registry built with
//! [`MetricsRegistry::disabled`] hands out the same handles but every
//! recording call returns after one relaxed load — the near-no-op mode the
//! serving layer's inertness proof relies on.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::histogram::{HistogramCore, HistogramSnapshot};

/// A label set: `(key, value)` pairs, kept sorted for deterministic
/// identity and rendering.
pub type Labels = Vec<(String, String)>;

fn labels_of(pairs: &[(&str, &str)]) -> Labels {
    let mut labels: Labels = pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    labels.sort();
    labels
}

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter {
    enabled: Arc<AtomicBool>,
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (queue depth, lag, entries).
#[derive(Debug, Clone)]
pub struct Gauge {
    enabled: Arc<AtomicBool>,
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Add `n` (may be negative via [`Gauge::sub`]).
    #[inline]
    pub fn add(&self, n: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Subtract `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.add(-n);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A log-bucketed histogram handle (see [`crate::histogram`]).
#[derive(Debug, Clone)]
pub struct Histogram {
    enabled: Arc<AtomicBool>,
    core: Arc<HistogramCore>,
}

impl Histogram {
    /// Record one value (typically nanoseconds).
    #[inline]
    pub fn record(&self, value: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.core.record(value);
        }
    }

    /// Record a [`std::time::Duration`] in nanoseconds (saturating at
    /// `u64::MAX`, i.e. after ~584 years).
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.core.snapshot()
    }
}

/// What one registered metric held at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A [`Counter`] reading.
    Counter(u64),
    /// A [`Gauge`] reading.
    Gauge(i64),
    /// A [`Histogram`] reading (boxed: the bucket array dwarfs the scalar
    /// variants).
    Histogram(Box<HistogramSnapshot>),
}

/// One metric in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Metric name (`[a-zA-Z_][a-zA-Z0-9_]*`, conventionally
    /// `quest_<layer>_<what>[_<unit>|_total]`).
    pub name: String,
    /// Sorted label pairs (empty for unlabeled metrics).
    pub labels: Labels,
    /// The reading.
    pub value: MetricValue,
}

impl MetricSnapshot {
    /// `name{k="v",..}` — the canonical identity used for sorting, merging,
    /// and the exporters.
    pub fn full_name(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let pairs: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{v}\""))
            .collect();
        format!("{}{{{}}}", self.name, pairs.join(","))
    }
}

/// A deterministic (name-sorted) point-in-time copy of a whole registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Every registered metric, sorted by `(name, labels)`.
    pub metrics: Vec<MetricSnapshot>,
    /// Per-family help text ([`MetricsRegistry::describe`]) — the
    /// Prometheus exporter renders these as `# HELP` lines.
    pub help: BTreeMap<String, String>,
}

impl MetricsSnapshot {
    /// Look a metric up by bare name (first label set wins).
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| &m.value)
    }

    /// Every metric sharing `name` (one per label set).
    pub fn get_all<'a>(&'a self, name: &str) -> Vec<&'a MetricSnapshot> {
        self.metrics.iter().filter(|m| m.name == name).collect()
    }

    /// Convenience: the histogram under `name`, if registered as one.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h.as_ref()),
            _ => None,
        }
    }

    /// Convenience: the counter under `name`, if registered as one.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Convenience: the gauge under `name`, if registered as one.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.get(name) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Lossless union with another snapshot: same-identity counters add,
    /// histograms merge bucket-wise, gauges keep `other`'s (later) reading;
    /// metrics present on one side only carry over unchanged. Merging
    /// per-engine snapshots this way equals one registry that saw all the
    /// traffic.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for theirs in &other.metrics {
            match self
                .metrics
                .iter_mut()
                .find(|m| m.name == theirs.name && m.labels == theirs.labels)
            {
                None => self.metrics.push(theirs.clone()),
                Some(ours) => match (&mut ours.value, &theirs.value) {
                    (MetricValue::Counter(a), MetricValue::Counter(b)) => {
                        *a = a.wrapping_add(*b);
                    }
                    (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = *b,
                    (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
                    // Kind mismatch across registries: keep ours; the
                    // exporters would otherwise emit conflicting TYPE lines.
                    _ => {}
                },
            }
        }
        for (name, help) in &other.help {
            self.help
                .entry(name.clone())
                .or_insert_with(|| help.clone());
        }
        self.metrics
            .sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
    }
}

#[derive(Debug)]
enum MetricKind {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<HistogramCore>),
}

/// An atomic registry of named metrics.
///
/// `counter` / `gauge` / `histogram` get-or-create by `(name, labels)`, so
/// independently constructed components that name the same metric share one
/// series. Keep the returned handle and record through it — the hot path is
/// then handle-local atomics with no name lookup.
#[derive(Debug)]
pub struct MetricsRegistry {
    enabled: Arc<AtomicBool>,
    metrics: Mutex<BTreeMap<(String, Labels), MetricKind>>,
    help: Mutex<BTreeMap<String, String>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An enabled registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            enabled: Arc::new(AtomicBool::new(true)),
            metrics: Mutex::new(BTreeMap::new()),
            help: Mutex::new(BTreeMap::new()),
        }
    }

    /// A registry whose handles are near-no-ops: every recording call
    /// returns after a single relaxed load, nothing is ever written.
    pub fn disabled() -> MetricsRegistry {
        let r = MetricsRegistry::new();
        r.set_enabled(false);
        r
    }

    /// Whether recording is live.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flip recording on or off; existing handles observe the change on
    /// their next call.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    fn map(&self) -> std::sync::MutexGuard<'_, BTreeMap<(String, Labels), MetricKind>> {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Attach family help text, rendered by the Prometheus exporter as a
    /// `# HELP` line. First writer wins (help is documentation, not
    /// state).
    pub fn describe(&self, name: &str, help: &str) {
        self.help
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(name.to_string())
            .or_insert_with(|| help.to_string());
    }

    /// Get-or-create an unlabeled counter.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Get-or-create a labeled counter.
    ///
    /// # Panics
    /// If `name` was already registered with a different metric kind.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = (name.to_string(), labels_of(labels));
        let mut map = self.map();
        let kind = map
            .entry(key)
            .or_insert_with(|| MetricKind::Counter(Arc::new(AtomicU64::new(0))));
        match kind {
            MetricKind::Counter(v) => Counter {
                enabled: Arc::clone(&self.enabled),
                value: Arc::clone(v),
            },
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Get-or-create an unlabeled gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// Get-or-create a labeled gauge.
    ///
    /// # Panics
    /// If `name` was already registered with a different metric kind.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = (name.to_string(), labels_of(labels));
        let mut map = self.map();
        let kind = map
            .entry(key)
            .or_insert_with(|| MetricKind::Gauge(Arc::new(AtomicI64::new(0))));
        match kind {
            MetricKind::Gauge(v) => Gauge {
                enabled: Arc::clone(&self.enabled),
                value: Arc::clone(v),
            },
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Get-or-create an unlabeled histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &[])
    }

    /// Get-or-create a labeled histogram.
    ///
    /// # Panics
    /// If `name` was already registered with a different metric kind.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let key = (name.to_string(), labels_of(labels));
        let mut map = self.map();
        let kind = map
            .entry(key)
            .or_insert_with(|| MetricKind::Histogram(Arc::new(HistogramCore::default())));
        match kind {
            MetricKind::Histogram(core) => Histogram {
                enabled: Arc::clone(&self.enabled),
                core: Arc::clone(core),
            },
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// A deterministic point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.map();
        let metrics = map
            .iter()
            .map(|((name, labels), kind)| MetricSnapshot {
                name: name.clone(),
                labels: labels.clone(),
                value: match kind {
                    MetricKind::Counter(v) => MetricValue::Counter(v.load(Ordering::Relaxed)),
                    MetricKind::Gauge(v) => MetricValue::Gauge(v.load(Ordering::Relaxed)),
                    MetricKind::Histogram(core) => {
                        MetricValue::Histogram(Box::new(core.snapshot()))
                    }
                },
            })
            .collect();
        // BTreeMap iteration is already (name, labels)-sorted.
        MetricsSnapshot {
            metrics,
            help: self
                .help
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_series_by_name_and_labels() {
        let r = MetricsRegistry::new();
        r.counter("hits").add(2);
        r.counter("hits").inc();
        assert_eq!(r.snapshot().counter("hits"), Some(3));

        r.counter_with("lag", &[("replica", "a")]).add(5);
        r.counter_with("lag", &[("replica", "b")]).add(7);
        let snap = r.snapshot();
        assert_eq!(snap.get_all("lag").len(), 2);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let r = MetricsRegistry::disabled();
        let c = r.counter("c");
        let g = r.gauge("g");
        let h = r.histogram("h");
        c.add(10);
        g.set(5);
        h.record(123);
        assert_eq!(c.value(), 0);
        assert_eq!(g.value(), 0);
        assert_eq!(h.snapshot().count, 0);
        // Re-enabling makes the same handles live.
        r.set_enabled(true);
        c.inc();
        assert_eq!(c.value(), 1);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let r = MetricsRegistry::new();
        let g = r.gauge("depth");
        g.add(3);
        g.sub(1);
        assert_eq!(g.value(), 2);
        g.set(-4);
        assert_eq!(r.snapshot().gauge("depth"), Some(-4));
    }

    #[test]
    fn snapshot_merge_is_lossless_for_counters_and_histograms() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        let union = MetricsRegistry::new();
        for (r, values) in [(&a, &[3u64, 900][..]), (&b, &[17, 60_000][..])] {
            let h = r.histogram("lat");
            for &v in values {
                h.record(v);
                union.histogram("lat").record(v);
            }
            r.counter("n").add(values.len() as u64);
            union.counter("n").add(values.len() as u64);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, union.snapshot());
    }

    #[test]
    fn describe_attaches_help_and_merge_unions_it() {
        let a = MetricsRegistry::new();
        a.counter("hits").inc();
        a.describe("hits", "Total hits.");
        a.describe("hits", "ignored: first writer wins");
        let b = MetricsRegistry::new();
        b.describe("misses", "Total misses.");
        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(
            snap.help.get("hits").map(String::as_str),
            Some("Total hits.")
        );
        assert_eq!(
            snap.help.get("misses").map(String::as_str),
            Some("Total misses.")
        );
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflicts_panic_at_registration() {
        let r = MetricsRegistry::new();
        let _c = r.counter("x");
        let _g = r.gauge("x");
    }
}
