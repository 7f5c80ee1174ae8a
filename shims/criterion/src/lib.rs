//! Offline shim for the `criterion` benchmark harness.
//!
//! The build environment has no access to crates.io, so this crate provides
//! the subset of criterion's API the QUEST benches use — benchmark groups,
//! [`BenchmarkId`], [`Bencher::iter`], [`Bencher::iter_batched`], and the
//! [`criterion_group!`] /
//! [`criterion_main!`] macros — backed by a simple fixed-budget timer
//! instead of criterion's statistical machinery. Each bench prints
//! `time: [q1 median q3]` over its timed samples — a spread, not a
//! confidence interval; swap the workspace `path` dependency for the
//! registry crate when network access is available.

#![warn(missing_docs)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Re-export of [`std::hint::black_box`] for parity with the real crate.
pub use std::hint::black_box;

/// Per-sample time budget for a measurement.
const SAMPLE_BUDGET: Duration = Duration::from_millis(10);

/// Samples taken even past the budget (or all of them, if fewer are
/// asked for), so the printed quartiles come from different samples.
const MIN_SAMPLES: usize = 5;

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
    /// One duration per timed iteration, filled in by `iter`.
    times: Vec<Duration>,
}

impl Bencher {
    /// Measure `f`: one warm-up call, then up to `samples` timed calls
    /// within a fixed budget.
    pub fn iter<O, F>(&mut self, mut f: F)
    where
        F: FnMut() -> O,
    {
        self.iter_batched(|| (), |()| f(), BatchSize::PerIteration);
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
        self.times.clear();
        let mut total = Duration::ZERO;
        for _ in 0..samples {
            let input = setup();
            let t0 = Instant::now();
            let output = black_box(routine(input));
            let elapsed = t0.elapsed();
            drop(output);
            self.times.push(elapsed);
            total += elapsed;
            if self.times.len() >= MIN_SAMPLES && total > SAMPLE_BUDGET * samples as u32 {
                break;
            }
        }
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
        times: Vec::new(),
    };
    f(&mut b);
    if test_mode {
        println!("test {label} ... ok");
        return;
    }
    let mut times = b.times;
    if times.is_empty() {
        println!("{label:<44} (no measurement: bencher never iterated)");
        return;
    }
    times.sort_unstable();
    // Lower-rank quartiles: with one sample all three are that sample.
    let quartile = |q: usize| fmt_duration(times[(times.len() - 1) * q / 4]);
    println!(
        "{label:<44} time: [{} {} {}]",
        quartile(1),
        quartile(2),
        quartile(3)
    );
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
