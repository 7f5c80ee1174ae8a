//! What every workload shares: scratch directories, process facts, output
//! fingerprints, the failure tally, and the result a run hands back.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use quest::prelude::{Catalog, SearchOutcome};

use crate::json::Json;

/// The benchmark's own directory: all files it writes go under `out/` here,
/// inside the checkout. `cargo run` exports the manifest directory at run
/// time; a binary started by hand falls back to where it was built.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// `out/` under [`bench_dir`], created on demand.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// A directory for logs and snapshots, named after the process and removed
/// when dropped — on success, on a failed check, and on a panic alike.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// A fresh, empty directory under `out/`.
    pub fn new(label: &str) -> std::io::Result<ScratchDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out_dir()?.join(format!("tmp-{}-{n}-{label}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Nothing useful can be done about a failed removal here; the next
        // run uses a different name.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Pool workers and client threads: `min(nproc, 4)`, so the benchmark never
/// keeps more threads busy than there are processors.
pub fn workers() -> usize {
    nproc().min(4)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Total length of the files at `paths`.
pub fn files_len(paths: &[PathBuf]) -> Result<u64, String> {
    paths.iter().try_fold(0, |sum, p| {
        std::fs::metadata(p)
            .map(|m| sum + m.len())
            .map_err(|e| format!("{}: {e}", p.display()))
    })
}

/// Fingerprint of a search result: every explanation's SQL text and score
/// bits, in rank order (FNV-1a). Two results with equal fingerprints show
/// the user the same ranked answers.
pub fn fingerprint(outcome: &SearchOutcome, catalog: &Catalog) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for e in &outcome.explanations {
        eat(e.sql(catalog).as_bytes());
        eat(&[0xff]);
        eat(&e.score.to_bits().to_le_bytes());
    }
    h
}

/// Operations attempted and failed. An `Err`, a refused read, and an output
/// that fails its check all count as failures.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// How many of them failed.
    pub failed: u64,
    /// The first few failures, for the person reading the output.
    pub examples: Vec<String>,
}

impl Tally {
    /// Count one operation or check; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.examples.len() < 5 {
                self.examples.push(what());
            }
        }
    }

    /// Count an operation by its result, handing back the success value.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        match result {
            Ok(v) => {
                self.attempted += 1;
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    /// Fold another tally (e.g. a thread's) into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.examples {
            if self.examples.len() < 5 {
                self.examples.push(e);
            }
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand for building a [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run of one workload produced.
#[derive(Debug)]
pub struct Report {
    /// Operations and checks, attempted and failed.
    pub tally: Tally,
    /// The end-to-end metrics (untraced run) or the per-layer metrics
    /// (traced run).
    pub metrics: Vec<Metric>,
    /// Facts about the run that are not metrics: processors, workers,
    /// operation and sample counts, percentiles used.
    pub notes: Json,
}

/// A stopwatch over a phase's share of `--seconds`.
#[derive(Debug, Clone, Copy)]
pub struct Deadline(Instant);

impl Deadline {
    /// A deadline `seconds` from now.
    pub fn after(seconds: f64) -> Deadline {
        Deadline(Instant::now() + Duration::from_secs_f64(seconds.max(0.0)))
    }

    /// Whether the phase's time is used up at instant `now`.
    pub fn passed_at(&self, now: Instant) -> bool {
        now >= self.0
    }

    /// Whether the phase's time is used up.
    pub fn passed(&self) -> bool {
        self.passed_at(Instant::now())
    }
}

/// Microseconds in a duration, with its nanosecond digits.
pub fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// Time the speed gauge's kernel takes on the machine the benchmark was
/// calibrated on, in its usual state: the speed every time is reported at.
pub const NOMINAL_KERNEL_US: f64 = 1000.0;

/// Words of the gauge's table: 256 KiB, resident in a private cache, so the
/// kernel follows the core's speed and not the memory system's.
const GAUGE_TABLE_WORDS: usize = 1 << 15;

/// Dependent steps of one kernel run.
const GAUGE_STEPS: usize = 100_000;

/// Least time between two samples taken by [`SpeedGauge::tick`].
const GAUGE_PERIOD: Duration = Duration::from_millis(25);

/// A gauge of how fast the machine is running right now.
///
/// On shared hardware the same code runs 20–35% slower or faster from one
/// minute to the next (a busy sibling hyper-thread, clock changes), which
/// would drown any change to the product. The gauge times a fixed kernel of
/// its own — a chain of dependent table reads and integer mixing, nothing of
/// the product's — every [`GAUGE_PERIOD`] while a phase runs. A phase's
/// times are then reported as they would be at the nominal speed:
/// multiplied by `NOMINAL_KERNEL_US / median kernel time`. A change to the
/// product cannot move the kernel, so it shows in full; the machine's mood
/// moves both alike and cancels.
#[derive(Debug, Clone)]
pub struct SpeedGauge {
    table: Arc<Vec<u64>>,
    kernel_us: Vec<f64>,
    last: Instant,
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Default for SpeedGauge {
    fn default() -> SpeedGauge {
        SpeedGauge::new()
    }
}

impl SpeedGauge {
    /// A gauge holding its first sample.
    pub fn new() -> SpeedGauge {
        SpeedGauge {
            table: Arc::new((0..GAUGE_TABLE_WORDS as u64).map(mix).collect()),
            kernel_us: Vec::new(),
            last: Instant::now(),
        }
        .fresh()
    }

    /// A gauge for another phase or thread: the same table and one sample
    /// taken now, so even the shortest phase has a reading.
    pub fn fresh(&self) -> SpeedGauge {
        let mut gauge = SpeedGauge {
            table: Arc::clone(&self.table),
            kernel_us: Vec::new(),
            last: Instant::now(),
        };
        gauge.sample();
        gauge
    }

    /// Run the kernel once and record how long it took.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        let mut acc = self.kernel_us.len() as u64;
        for _ in 0..GAUGE_STEPS {
            acc = mix(acc ^ self.table[acc as usize & (GAUGE_TABLE_WORDS - 1)]);
        }
        std::hint::black_box(acc);
        self.last = Instant::now();
        self.kernel_us.push(micros(self.last - t0));
    }

    /// Sample if the last sample is at least [`GAUGE_PERIOD`] old at `now`.
    /// Call between operations, never inside a timed one.
    pub fn tick(&mut self, now: Instant) {
        if now.duration_since(self.last) >= GAUGE_PERIOD {
            self.sample();
        }
    }

    /// Median kernel time of the phase, microseconds.
    pub fn kernel_us(&self) -> f64 {
        crate::stats::median(&self.kernel_us)
    }

    /// What a time measured during the phase is multiplied by to report it
    /// at the nominal machine speed (a rate is divided by it).
    pub fn factor(&self) -> f64 {
        NOMINAL_KERNEL_US / self.kernel_us()
    }
}
