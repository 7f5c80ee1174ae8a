//! Log-bucketed latency histogram with exact-bound percentile readout.
//!
//! Values (u64, typically nanoseconds) land in power-of-two buckets:
//! bucket 0 holds exactly 0, bucket `i` (1..=62) holds `[2^(i-1), 2^i - 1]`,
//! and the top bucket (63) saturates — it holds everything at or above
//! `2^62`. Bucketing a value is a `leading_zeros` and recording it is three
//! relaxed atomic adds (bucket, count, sum) plus an atomic max, so the hot
//! path never locks and never allocates.
//!
//! Percentiles are **exact-bound**: [`HistogramSnapshot::percentile`]
//! returns the inclusive *upper bound* of the bucket holding the requested
//! rank, so the true recorded value is provably within
//! `[bucket_lower_bound(b), percentile(p)]` — a factor-of-two certainty
//! interval rather than an interpolated guess. `count`, `sum`, and `max`
//! are exact, and [`HistogramSnapshot::merge`] is lossless: merging two
//! snapshots is bit-identical to having recorded the union of their samples
//! into one histogram (bucketing is a pure function of the value).

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one zero bucket, 62 power-of-two ranges, one
/// saturating top bucket.
pub const BUCKETS: usize = 64;

/// Index of the saturating top bucket.
pub const TOP_BUCKET: usize = BUCKETS - 1;

/// The bucket a value lands in (a pure function — merge losslessness and
/// the property suite both lean on this).
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros() as usize).min(TOP_BUCKET)
    }
}

/// Inclusive lower bound of a bucket.
pub fn bucket_lower_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        i if i >= TOP_BUCKET => 1 << (TOP_BUCKET - 1),
        i => 1 << (i - 1),
    }
}

/// Inclusive upper bound of a bucket (`u64::MAX` for the saturating top).
pub fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        i if i >= TOP_BUCKET => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

/// The lock-free recording core shared by every clone of a
/// [`Histogram`](crate::Histogram) handle.
#[derive(Debug)]
pub struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl HistogramCore {
    /// Record one value: three relaxed adds and a relaxed max.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters. Under concurrent recording the
    /// fields are each individually correct but may straddle an in-flight
    /// record (count and buckets can disagree by the records in flight).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An owned, mergeable copy of a histogram's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_index`]).
    pub buckets: [u64; BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Exact sum of all recorded values (wrapping only past `u64::MAX`).
    pub sum: u64,
    /// Exact largest recorded value.
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Exact-bound percentile: the inclusive upper bound of the bucket that
    /// holds the sample at rank `ceil(p/100 × count)` (best-first ranking
    /// of the sorted samples). Returns 0 when nothing was recorded, and the
    /// exact `max` instead of `u64::MAX` when the rank lands in the
    /// saturating top bucket.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let rank = rank.min(self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i == TOP_BUCKET {
                    self.max
                } else {
                    bucket_upper_bound(i)
                };
            }
        }
        self.max
    }

    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Lossless merge: bucket-wise and counter-wise addition, so
    /// `merge(a, b)` is bit-identical to one histogram that recorded the
    /// union of both sample streams.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (slot, n) in self.buckets.iter_mut().zip(&other.buckets) {
            *slot = slot.wrapping_add(*n);
        }
        self.count = self.count.wrapping_add(other.count);
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The non-empty buckets as `(inclusive upper bound, count)` pairs —
    /// the compact dump the exporters emit.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (bucket_upper_bound(i), n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_partition_the_u64_line() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), TOP_BUCKET);
        for i in 0..BUCKETS {
            let lo = bucket_lower_bound(i);
            let hi = bucket_upper_bound(i);
            assert!(lo <= hi, "bucket {i}");
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
            assert_eq!(bucket_index(hi), i, "upper bound of bucket {i}");
        }
        // Adjacent buckets tile with no gap.
        for i in 1..BUCKETS {
            assert_eq!(bucket_upper_bound(i - 1) + 1, bucket_lower_bound(i));
        }
    }

    #[test]
    fn percentile_is_exact_for_single_value() {
        let core = HistogramCore::default();
        for _ in 0..10 {
            core.record(1000);
        }
        let snap = core.snapshot();
        assert_eq!(snap.count, 10);
        assert_eq!(snap.sum, 10_000);
        assert_eq!(snap.max, 1000);
        // 1000 lands in [512, 1023]; the exact bound readout is 1023.
        let p50 = snap.percentile(50.0);
        assert_eq!(p50, 1023);
        assert!(bucket_lower_bound(bucket_index(1000)) <= 1000 && 1000 <= p50);
    }

    #[test]
    fn top_bucket_saturates_and_reports_exact_max() {
        let core = HistogramCore::default();
        core.record(u64::MAX);
        core.record(1 << 62);
        core.record(7);
        let snap = core.snapshot();
        assert_eq!(snap.buckets[TOP_BUCKET], 2);
        assert_eq!(snap.max, u64::MAX);
        assert_eq!(snap.percentile(99.0), u64::MAX);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let snap = HistogramCore::default().snapshot();
        assert_eq!(snap.percentile(50.0), 0);
        assert_eq!(snap.mean(), 0.0);
        assert!(snap.nonzero_buckets().is_empty());
    }
}
