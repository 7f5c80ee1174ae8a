//! Offline shim for the `criterion` benchmark harness.
//!
//! The build environment has no access to crates.io, so this crate provides
//! the subset of criterion's API the QUEST benches use — benchmark groups,
//! [`BenchmarkId`], [`Bencher::iter`], [`Bencher::iter_batched`], and the
//! [`criterion_group!`] /
//! [`criterion_main!`] macros — backed by a simple fixed-budget timer
//! instead of criterion's statistical machinery. Numbers printed here are
//! indicative means, not confidence intervals; swap the workspace `path`
//! dependency for the registry crate when network access is available.

#![warn(missing_docs)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Re-export of [`std::hint::black_box`] for parity with the real crate.
pub use std::hint::black_box;

/// Per-sample time budget for a measurement.
const SAMPLE_BUDGET: Duration = Duration::from_millis(10);

/// The benchmark driver.
pub struct Criterion {
    /// In test mode (`--test`, as passed by `cargo test --benches`) each
    /// bench body runs exactly once, unmeasured.
    test_mode: bool,
    /// Target number of samples per benchmark.
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion {
            test_mode: std::env::args().any(|a| a == "--test"),
            sample_size: 20,
        }
    }
}

impl Criterion {
    /// Run a single named benchmark.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Criterion
    where
        F: FnMut(&mut Bencher),
    {
        run_bench(name, self.test_mode, self.sample_size, f);
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            criterion: self,
            sample_size: None,
        }
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    name: String,
    criterion: &'a mut Criterion,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Set the target sample count for benches in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n);
        self
    }

    /// Run a benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.label);
        let samples = self.sample_size.unwrap_or(self.criterion.sample_size);
        run_bench(&label, self.criterion.test_mode, samples, |b| f(b, input));
        self
    }

    /// Run an unparameterized benchmark inside the group.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, name);
        let samples = self.sample_size.unwrap_or(self.criterion.sample_size);
        run_bench(&label, self.criterion.test_mode, samples, |b| f(b));
        self
    }

    /// Close the group.
    pub fn finish(self) {}
}

/// Identifier for one parameterized benchmark within a group.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `name/parameter` identifier.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> BenchmarkId {
        BenchmarkId {
            label: format!("{}/{}", name.into(), parameter),
        }
    }

    /// Identifier from a parameter alone.
    pub fn from_parameter(parameter: impl Display) -> BenchmarkId {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

/// Passed to bench bodies; [`Bencher::iter`] does the measuring.
pub struct Bencher {
    test_mode: bool,
    samples: usize,
    /// Mean duration of one iteration, filled in by `iter`.
    mean: Option<Duration>,
}

impl Bencher {
    /// Measure `f`: one warm-up call, then up to `samples` timed batches
    /// within a fixed budget.
    pub fn iter<O, F>(&mut self, mut f: F)
    where
        F: FnMut() -> O,
    {
        if self.test_mode {
            black_box(f());
            self.mean = Some(Duration::ZERO);
            return;
        }
        black_box(f()); // warm-up, and lets one-shot setup costs settle
        let mut total = Duration::ZERO;
        let mut iters = 0u32;
        for _ in 0..self.samples.max(1) {
            let t0 = Instant::now();
            black_box(f());
            total += t0.elapsed();
            iters += 1;
            if total > SAMPLE_BUDGET * self.samples.max(1) as u32 {
                break;
            }
        }
        self.mean = Some(total / iters.max(1));
    }

    /// Measure `routine` over inputs built by `setup`: neither the setup
    /// nor dropping the routine's output is timed. One input is alive at a
    /// time, so a bench may consume something large.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let samples = if self.test_mode {
            0
        } else {
            self.samples.max(1)
        };
        black_box(routine(setup())); // warm-up (the whole run in test mode)
        let mut total = Duration::ZERO;
        let mut iters = 0u32;
        for _ in 0..samples {
            let input = setup();
            let t0 = Instant::now();
            let output = black_box(routine(input));
            total += t0.elapsed();
            drop(output);
            iters += 1;
            if total > SAMPLE_BUDGET * samples as u32 {
                break;
            }
        }
        self.mean = Some(total / iters.max(1));
    }
}

/// How many inputs real criterion builds per batch. The shim only ever
/// holds one (see [`Bencher::iter_batched`]), so that is the one it names.
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// One input per iteration.
    PerIteration,
}

fn run_bench<F>(label: &str, test_mode: bool, samples: usize, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    let mut b = Bencher {
        test_mode,
        samples,
        mean: None,
    };
    f(&mut b);
    match (test_mode, b.mean) {
        (true, _) => println!("test {label} ... ok"),
        (false, Some(mean)) => println!("{label:<44} time: {}", fmt_duration(mean)),
        (false, None) => println!("{label:<44} (no measurement: bencher never iterated)"),
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3} s", d.as_secs_f64())
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Bundle benchmark functions into a named group runner.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Entry point running one or more [`criterion_group!`] groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
