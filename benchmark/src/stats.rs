//! Order statistics over latency samples.

/// Percentiles the benchmark reports, ascending, in per mille so that rank
/// arithmetic is exact.
const LADDER: &[usize] = &[500, 750, 900, 950, 990, 999];

/// Samples that must lie beyond a percentile for it to be reported: below
/// that, the value is set by a handful of outliers and does not repeat.
const MIN_BEYOND: usize = 10;

/// Nearest-rank position (1-based) of the `permille` percentile among `n`.
fn rank(n: usize, permille: usize) -> usize {
    (n * permille).div_ceil(1000).clamp(1, n)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median: the mean of the two middle samples when the count is even.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Reads per window of [`typical`].
pub const WINDOW: usize = 64;

/// Typical latency of a stream of operations: the median, over windows of
/// [`WINDOW`] consecutive samples, of the window's mean.
///
/// A plain median of single-operation latencies is unstable when the
/// operations are of a few distinct sizes (1-, 2- and 3-keyword queries):
/// it sits in a gap between two modes and jumps when their weights shift a
/// little. A plain mean is moved by a single scheduling stall. Averaging
/// inside a window covers the mix; taking the median across windows drops
/// the stalls.
pub fn typical(samples: &[f64]) -> f64 {
    let mean = |w: &[f64]| w.iter().sum::<f64>() / w.len() as f64;
    assert!(!samples.is_empty(), "typical of no samples");
    if samples.len() < WINDOW {
        return mean(samples);
    }
    let means: Vec<f64> = samples.chunks_exact(WINDOW).map(mean).collect();
    median(&means)
}

/// The highest percentile of the ladder, at most `wanted`, that `n` samples
/// support: at least ten samples must lie beyond it. The median is the
/// floor, whatever `n` is.
pub fn supported_percentile(n: usize, wanted: f64) -> f64 {
    supported_permille(n, wanted) as f64 / 10.0
}

fn supported_permille(n: usize, wanted: f64) -> usize {
    LADDER
        .iter()
        .copied()
        .filter(|&pm| pm as f64 / 10.0 <= wanted && n > 0 && n - rank(n, pm) >= MIN_BEYOND)
        .fold(500, usize::max)
}

/// A tail latency with the percentile and sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The reported value.
    pub value: f64,
    /// The percentile actually used (`<=` the one asked for).
    pub percentile: f64,
    /// How many samples it was taken over.
    pub samples: usize,
}

/// The `wanted` percentile of `samples`, lowered to the highest percentile
/// the sample count supports.
pub fn tail(samples: &[f64], wanted: f64) -> Tail {
    assert!(!samples.is_empty(), "tail of no samples");
    let permille = supported_permille(samples.len(), wanted);
    Tail {
        value: sorted(samples)[rank(samples.len(), permille) - 1],
        percentile: permille as f64 / 10.0,
        samples: samples.len(),
    }
}

/// Quartile spread of `values` as a share of their median — the steadiness
/// figure the benchmark's bounds are checked against. Uses the same
/// exclusive-method quartiles as Python's `statistics.quantiles(v, n=4)`.
pub fn iqr_share(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(v.len() >= 2, "quartiles need two samples");
    let quartile = |k: usize| {
        let pos = k as f64 * (v.len() + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    };
    (quartile(3) - quartile(1)) / median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn typical_covers_the_mix_and_drops_stalls() {
        // Alternating 100 us and 300 us operations: the plain median is one
        // of the modes; the typical latency is their mean.
        let mut samples: Vec<f64> = (0..64 * 20)
            .map(|i| if i % 2 == 0 { 100.0 } else { 300.0 })
            .collect();
        assert_eq!(typical(&samples), 200.0);
        // One 50 ms stall moves the mean by 39 us and the typical by nothing.
        samples[70] = 50_000.0;
        assert_eq!(typical(&samples), 200.0);
        // Fewer samples than a window: their mean.
        assert_eq!(typical(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 1,000 samples leave exactly 10 beyond p99, and only 1 beyond p99.9.
        assert_eq!(supported_percentile(1_000, 99.9), 99.0);
        assert_eq!(supported_percentile(999, 99.0), 95.0);
        assert_eq!(supported_percentile(10_000, 99.9), 99.9);
        // 30 commits support nothing above the median.
        assert_eq!(supported_percentile(30, 95.0), 50.0);
        assert_eq!(supported_percentile(40, 95.0), 75.0);
        assert_eq!(supported_percentile(200, 95.0), 95.0);
        // Never above what was asked for.
        assert_eq!(supported_percentile(1_000_000, 95.0), 95.0);
    }

    #[test]
    fn tail_states_its_percentile_and_count() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&samples, 99.0);
        assert_eq!(
            t,
            Tail {
                value: 990.0,
                percentile: 99.0,
                samples: 1000
            }
        );
        let t = tail(&samples[..100], 99.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90.0);
    }

    #[test]
    fn iqr_share_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
