//! The four workloads and the end-to-end metrics they report.
//!
//! Every workload is a closed loop: a client sends its next request only
//! when the previous one has completed. Every workload deploys a durable
//! primary, reads, commits, and recovers, so every end-to-end metric is
//! defined on every workload; they differ in which layer does the work
//! (see `README.md`).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use quest::data::imdb::{generate, ImdbScale};
use quest::prelude::*;
use quest::replica::PrimaryOptions;

use crate::gen::{query_pool, CommitBatch, CommitStream, HotStream, TailStream};
use crate::harness::{
    files_len, fingerprint, metric, micros, nproc, peak_rss_mb, workers, Deadline, Metric, Report,
    ScratchDir, SpeedGauge, Tally, NOMINAL_KERNEL_US,
};
use crate::json::Json;
use crate::stats::{median, tail, typical, Tail};

/// Workload names, in the order they are run and reported.
pub const WORKLOADS: &[&str] = &["serve_hot", "pipeline_tail", "shard_mixed", "write_mixed"];

/// Reads between two commits of `shard_mixed`.
const READS_PER_COMMIT: usize = 200;

/// Sizes of a run. [`Scale::FULL`] is the benchmark; [`Scale::SMOKE`] is the
/// same code on a database small enough for a test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// `movies` of the database behind `serve_hot` and `pipeline_tail`.
    pub large_movies: usize,
    /// `movies` of the database behind `shard_mixed` and `write_mixed`.
    pub small_movies: usize,
    /// Distinct queries of the hot pool.
    pub pool: usize,
    /// How often set-up and recovery are repeated on the large database;
    /// the median is reported.
    pub repeats: usize,
    /// The same on the small database, where a round is a quarter of the
    /// time and as noisy, so more of them are affordable and needed.
    pub small_repeats: usize,
    /// Every n-th read has its output checked against a reference.
    pub check_every: usize,
    /// Commits a write phase makes at least, however short its time share:
    /// enough for one of them to carry a delete.
    pub min_commits: usize,
}

impl Scale {
    /// The benchmark proper: 420,043 and 105,043 rows.
    pub const FULL: Scale = Scale {
        large_movies: 60_000,
        small_movies: 15_000,
        pool: 512,
        repeats: 5,
        small_repeats: 9,
        check_every: 40,
        min_commits: 6,
    };

    /// A miniature for tests and `smoke`.
    pub const SMOKE: Scale = Scale {
        large_movies: 400,
        small_movies: 300,
        pool: 48,
        repeats: 1,
        small_repeats: 1,
        check_every: 5,
        min_commits: 4,
    };
}

/// What the command line asks of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds of timed work.
    pub seconds: f64,
    /// Database and pool sizes.
    pub scale: Scale,
}

/// The query stream a client draws from.
pub enum Stream {
    /// Zipf(1.0) over the pool: the working set fits the caches.
    Hot {
        /// The pool.
        pool: Arc<Vec<String>>,
        /// Which entry comes next.
        picks: HotStream,
    },
    /// Mutated keywords: larger than every cache.
    Tail {
        /// The generator.
        stream: TailStream,
        /// The query last handed out.
        current: String,
    },
}

impl Stream {
    /// The hot stream of one phase or thread.
    pub fn hot(seed: u64, purpose: &str, pool: &Arc<Vec<String>>) -> Stream {
        Stream::Hot {
            pool: Arc::clone(pool),
            picks: HotStream::new(seed, purpose, pool.len()),
        }
    }

    /// The tail stream of one phase.
    pub fn tail(seed: u64, purpose: &str) -> Stream {
        Stream::Tail {
            stream: TailStream::new(seed, purpose),
            current: String::new(),
        }
    }

    /// The next query.
    #[allow(clippy::should_implement_trait)] // lends from self, unlike Iterator
    pub fn next(&mut self) -> &str {
        match self {
            Stream::Hot { pool, picks } => &pool[picks.next().expect("endless stream")],
            Stream::Tail { stream, current } => {
                *current = stream.next().expect("endless stream");
                current
            }
        }
    }
}

/// A read whose output was kept for checking after the timed phases.
#[derive(Debug, Clone)]
pub struct Sampled {
    /// The query.
    pub query: String,
    /// Fingerprint of what the system under test answered.
    pub got: u64,
    /// How many commits had been applied when it was answered.
    pub after_commits: usize,
}

/// Latencies and checked samples of a run of reads. What it reports is at
/// the nominal machine speed (see [`SpeedGauge`]).
#[derive(Debug)]
pub struct Reads {
    /// Caller-side wall time of each read, microseconds, as measured.
    pub latency_us: Vec<f64>,
    /// Sum of those wall times.
    pub busy: Duration,
    /// Every n-th read, kept for the output check.
    pub sampled: Vec<Sampled>,
    /// Machine speed while these reads ran.
    pub gauge: SpeedGauge,
}

impl Reads {
    fn new(gauge: &SpeedGauge) -> Reads {
        Reads {
            latency_us: Vec::new(),
            busy: Duration::ZERO,
            sampled: Vec::new(),
            gauge: gauge.fresh(),
        }
    }

    /// Record a read that ran from `t0` to `t1`; between reads, let the
    /// gauge take its sample when one is due.
    fn record(&mut self, t0: Instant, t1: Instant) {
        self.latency_us.push(micros(t1 - t0));
        self.busy += t1 - t0;
        self.gauge.tick(t1);
    }

    /// Typical read latency (see [`typical`]), microseconds.
    pub fn typical_us(&self) -> f64 {
        typical(&self.latency_us) * self.gauge.factor()
    }

    /// Completed reads per second of time spent reading.
    pub fn per_second(&self) -> f64 {
        self.latency_us.len() as f64 / self.busy.as_secs_f64() / self.gauge.factor()
    }
}

/// Latencies of a run of commits, each followed by a read. What it reports
/// is at the nominal machine speed.
#[derive(Debug)]
pub struct Writes {
    /// Wall time of each commit, microseconds, as measured.
    pub commit_us: Vec<f64>,
    /// Sum of those wall times.
    pub busy: Duration,
    /// Wall time of the first read after each commit, microseconds.
    pub read_after_us: Vec<f64>,
    /// The batches committed, in order.
    pub batches: Vec<CommitBatch>,
    /// Machine speed while these commits ran.
    pub gauge: SpeedGauge,
}

impl Writes {
    fn new(gauge: &SpeedGauge) -> Writes {
        Writes {
            commit_us: Vec::new(),
            busy: Duration::ZERO,
            read_after_us: Vec::new(),
            batches: Vec::new(),
            gauge: gauge.fresh(),
        }
    }

    fn record_commit(&mut self, wall: Duration) {
        self.commit_us.push(micros(wall));
        self.busy += wall;
    }

    /// Median commit wall time, microseconds.
    pub fn commit_p50_us(&self) -> f64 {
        median(&self.commit_us) * self.gauge.factor()
    }

    /// Median wall time of the first read after a commit, microseconds.
    pub fn read_after_p50_us(&self) -> f64 {
        median(&self.read_after_us) * self.gauge.factor()
    }

    /// Commits per second of time spent committing.
    pub fn per_second(&self) -> f64 {
        self.commit_us.len() as f64 / self.busy.as_secs_f64() / self.gauge.factor()
    }
}

/// Durable-primary options every workload uses: one fsync per commit.
pub fn primary_options() -> PrimaryOptions {
    PrimaryOptions {
        sync_policy: SyncPolicy::Always,
        ..PrimaryOptions::default()
    }
}

/// Whether `outcome` maps its keyword to the committed movie: executing one
/// of its explanations on `engine` returns the title.
pub fn sees_title<W: SourceWrapper>(
    engine: &Quest<W>,
    outcome: &SearchOutcome,
    title: &str,
) -> bool {
    let wanted = Value::text(title);
    outcome.explanations.iter().any(|e| {
        engine
            .execute(e)
            .is_ok_and(|rs| rs.rows.iter().any(|r| r.values().contains(&wanted)))
    })
}

/// Caller-thread reads straight into the cached engine.
pub fn direct_reads(
    engine: &CachedEngine<FullAccessWrapper>,
    catalog: &Catalog,
    stream: &mut Stream,
    seconds: f64,
    check_every: usize,
    gauge: &SpeedGauge,
    tally: &mut Tally,
) -> Reads {
    let mut reads = Reads::new(gauge);
    let mut scratch = SearchScratch::new();
    let deadline = Deadline::after(seconds);
    for n in 0.. {
        let query = stream.next();
        let t0 = Instant::now();
        let result = engine.search_with(query, &mut scratch);
        let t1 = Instant::now();
        reads.record(t0, t1);
        if let Some(outcome) = tally.op("read", result) {
            if n % check_every == 0 {
                reads.sampled.push(Sampled {
                    query: query.to_string(),
                    got: fingerprint(&outcome, catalog),
                    after_commits: 0,
                });
            }
        }
        if deadline.passed_at(t1) {
            break;
        }
    }
    reads
}

/// The same stream through the worker pool, in windows of `4 × workers`
/// submitted together and awaited together. Returns completions per second
/// of window time and the checked samples.
fn pooled_reads(
    engine: &Arc<CachedEngine<FullAccessWrapper>>,
    catalog: &Catalog,
    stream: &mut Stream,
    seconds: f64,
    check_every: usize,
    gauge: &SpeedGauge,
    tally: &mut Tally,
) -> (f64, Vec<Sampled>) {
    let mut gauge = gauge.fresh();
    let service = QueryService::over(Arc::clone(engine), workers());
    let window = 4 * workers();
    let mut sampled = Vec::new();
    let (mut completed, mut busy) = (0usize, Duration::ZERO);
    let deadline = Deadline::after(seconds);
    loop {
        let batch: Vec<String> = (0..window).map(|_| stream.next().to_string()).collect();
        let t0 = Instant::now();
        let tickets = service.submit_batch(&batch);
        let outcomes: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
        let t1 = Instant::now();
        busy += t1 - t0;
        for (query, result) in batch.into_iter().zip(outcomes) {
            if let Some(outcome) = tally.op("pooled read", result) {
                if completed % check_every == 0 {
                    sampled.push(Sampled {
                        query,
                        got: fingerprint(&outcome, catalog),
                        after_commits: 0,
                    });
                }
            }
            completed += 1;
        }
        if deadline.passed_at(t1) {
            break;
        }
        // The workers are idle between windows, so the gauge has the
        // machine to itself, as a window has.
        gauge.tick(t1);
    }
    service.shutdown();
    (
        completed as f64 / busy.as_secs_f64() / gauge.factor(),
        sampled,
    )
}

/// Commits through `primary`, each followed by a read of the title just
/// written, for `seconds` and at least `min_commits` rounds.
fn commits_then_reads(
    primary: &Primary,
    commits: &mut CommitStream,
    seconds: f64,
    min_commits: usize,
    gauge: &SpeedGauge,
    tally: &mut Tally,
) -> Writes {
    let mut writes = Writes::new(gauge);
    let mut scratch = SearchScratch::new();
    let deadline = Deadline::after(seconds);
    loop {
        let batch = commits.next().expect("endless stream");
        let t0 = Instant::now();
        let receipt = primary.commit(&batch.records);
        writes.record_commit(t0.elapsed());
        let applied = tally.op("commit", receipt).map(|r| r.report.all_applied());
        tally.check(applied == Some(true), || "commit rejected records".into());

        let t0 = Instant::now();
        let result = primary
            .engine()
            .search_with(&batch.title_word, &mut scratch);
        let t1 = Instant::now();
        writes.read_after_us.push(micros(t1 - t0));
        let seen = tally
            .op("read after commit", result)
            .is_some_and(|o| sees_title(&primary.engine().engine(), &o, &batch.title));
        tally.check(seen, || format!("read after commit missed {}", batch.title));
        writes.batches.push(batch);
        if writes.batches.len() >= min_commits && deadline.passed_at(t1) {
            break;
        }
        writes.gauge.tick(t1);
    }
    writes
}

/// Kernel samples the gauge takes on each side of a set-up or recovery
/// round.
const GAUGE_SAMPLES_PER_SIDE: usize = 3;

/// Set-up or recovery, repeated: each round `prepare` runs untimed (copying
/// the generated database, making a directory), then `build` is timed, with
/// the speed gauge sampled just before and just after. Returns every
/// round's seconds at the nominal machine speed and the last deployment
/// built; the metric is the median.
fn repeated<P, D>(
    repeats: usize,
    gauge: &SpeedGauge,
    mut prepare: impl FnMut() -> Result<P, String>,
    mut build: impl FnMut(P) -> Result<D, String>,
) -> Result<(Vec<f64>, D), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..repeats.max(1) {
        // One deployment at a time: the previous one is torn down first.
        drop(last.take());
        let prepared = prepare()?;
        let mut gauge = gauge.fresh();
        (0..GAUGE_SAMPLES_PER_SIDE).for_each(|_| gauge.sample());
        let t0 = Instant::now();
        last = Some(build(prepared)?);
        let wall = t0.elapsed().as_secs_f64();
        (0..GAUGE_SAMPLES_PER_SIDE).for_each(|_| gauge.sample());
        times.push(wall * gauge.factor());
    }
    Ok((times, last.expect("at least one repeat")))
}

/// A fresh scratch directory and a copy of the generated database: what a
/// set-up round starts from.
fn fresh(db: &Database, label: &str) -> Result<(ScratchDir, Database), String> {
    Ok((
        ScratchDir::new(label).map_err(|e| e.to_string())?,
        db.clone(),
    ))
}

/// Output check, run after the timed phases and after peak memory was read
/// so the twin costs the system under test nothing: reads sampled before any
/// commit must equal the uncached reference pipeline on a separate engine
/// over `db`.
pub fn verify_reads_against_reference(
    db: &Database,
    sampled: &[Sampled],
    tally: &mut Tally,
) -> Result<(), String> {
    let twin = Quest::new(FullAccessWrapper::new(db.clone()), QuestConfig::default())
        .map_err(|e| e.to_string())?;
    let mut expected: HashMap<&str, Option<u64>> = HashMap::new();
    for s in sampled {
        let want = *expected.entry(&s.query).or_insert_with(|| {
            KeywordQuery::parse(&s.query)
                .and_then(|q| twin.search_query_reference(&q))
                .ok()
                .map(|o| fingerprint(&o, db.catalog()))
        });
        tally.check(want == Some(s.got), || {
            format!("`{}` differs from the reference pipeline", s.query)
        });
    }
    Ok(())
}

/// Durability and recovery check: the reopened deployment (`search`) finds
/// every committed title that was not deleted again, finds none that was,
/// and answers the pool exactly like a cold engine over a database the
/// benchmark mutated itself.
pub fn verify_recovery_against_cold_rebuild(
    mut db: Database,
    batches: &[CommitBatch],
    pool: &[String],
    search: &dyn Fn(&str) -> Result<SearchOutcome, String>,
    tally: &mut Tally,
) -> Result<(), String> {
    db.with_stats_deferred(|db| {
        for record in batches.iter().flat_map(|b| &b.records) {
            record.apply(db).map_err(|e| e.to_string())?;
        }
        Ok::<(), String>(())
    })?;
    let catalog = db.catalog().clone();
    let cold = Quest::new(FullAccessWrapper::new(db), QuestConfig::default())
        .map_err(|e| e.to_string())?;
    let deleted: Vec<&String> = batches
        .iter()
        .filter_map(|b| b.deleted_word.as_ref())
        .collect();
    for b in batches {
        let kept = !deleted.contains(&&b.title_word);
        let found = tally
            .op("search after recovery", search(&b.title_word))
            .is_some_and(|o| sees_title(&cold, &o, &b.title));
        tally.check(found == kept, || {
            format!(
                "after recovery `{}` found={found}, committed={kept}",
                b.title
            )
        });
    }
    for q in pool {
        let got = search(q).ok().map(|o| fingerprint(&o, &catalog));
        let want = cold.search(q).ok().map(|o| fingerprint(&o, &catalog));
        tally.check(got.is_some() && got == want, || {
            format!("after recovery `{q}` differs from a cold rebuild")
        });
    }
    Ok(())
}

/// What a workload measured; [`finish`] turns it into the end-to-end
/// metrics, the client tails and the notes.
struct Measured {
    rows: usize,
    generate_s: f64,
    /// Every set-up round, seconds.
    setup_s: Vec<f64>,
    /// Every recovery round, seconds.
    recover_s: Vec<f64>,
    /// Pooled completions per second where the workload has a pool phase;
    /// otherwise reads ÷ Σ read time.
    read_qps: f64,
    reads: Reads,
    writes: Writes,
    /// Log growth over all commits.
    wal_bytes: u64,
    peak_rss_mb: f64,
}

impl Measured {
    /// The end-to-end metrics, in the order `BENCHMARK.json` lists them.
    fn metrics(&self) -> Vec<Metric> {
        let commits = self.writes.commit_us.len() as f64;
        vec![
            metric("setup_s", median(&self.setup_s), "s"),
            metric("read_qps", self.read_qps, "1/s"),
            metric("read_us", self.reads.typical_us(), "us"),
            metric("commit_p50_us", self.writes.commit_p50_us(), "us"),
            metric(
                "read_after_commit_p50_us",
                self.writes.read_after_p50_us(),
                "us",
            ),
            metric("recover_s", median(&self.recover_s), "s"),
            metric(
                "wal_bytes_per_commit",
                self.wal_bytes as f64 / commits,
                "bytes",
            ),
            metric("peak_rss_mb", self.peak_rss_mb, "MiB"),
        ]
    }
}

/// Tail latencies of a run: not end-to-end metrics (they do not repeat
/// within the bounds), reported under the `client` layer by the traced run.
#[derive(Debug, Clone, Copy)]
pub struct ClientTails {
    /// Commits ÷ Σ commit time: the mean-based twin of `commit_p50_us`,
    /// which one stall moves and which therefore is not end-to-end.
    pub commit_per_s: f64,
    /// Plain median of single-read latencies (the end-to-end `read_us` is
    /// the windowed typical latency instead; see [`typical`]).
    pub read_p50_us: f64,
    /// Read latency, wanted at p99.
    pub read: Tail,
    /// Commit latency, wanted at p95.
    pub commit: Tail,
    /// First read after a commit, wanted at p95.
    pub read_after_commit: Tail,
}

fn client_tails(reads: &Reads, writes: &Writes) -> ClientTails {
    let at_nominal_speed = |mut t: Tail, gauge: &SpeedGauge| {
        t.value *= gauge.factor();
        t
    };
    ClientTails {
        commit_per_s: writes.per_second(),
        read_p50_us: median(&reads.latency_us) * reads.gauge.factor(),
        read: at_nominal_speed(tail(&reads.latency_us, 99.0), &reads.gauge),
        commit: at_nominal_speed(tail(&writes.commit_us, 95.0), &writes.gauge),
        read_after_commit: at_nominal_speed(tail(&writes.read_after_us, 95.0), &writes.gauge),
    }
}

fn seconds_json(rounds: &[f64]) -> Json {
    Json::Arr(rounds.iter().map(|&s| Json::Num(s)).collect())
}

fn tail_json(t: &Tail) -> Json {
    Json::obj([
        ("value_us", Json::Num(t.value)),
        ("percentile", Json::Num(t.percentile)),
        ("samples", Json::Num(t.samples as f64)),
    ])
}

/// Everything a workload run yields: its report and, for the traced run,
/// the plain median and tails of its client loop.
pub struct WorkloadRun {
    /// Tally, end-to-end metrics, notes.
    pub report: Report,
    /// Tail latencies of the client loop.
    pub tails: ClientTails,
}

fn finish(workload: &str, args: &RunArgs, m: Measured, tally: Tally) -> WorkloadRun {
    let tails = client_tails(&m.reads, &m.writes);
    let num = |v: f64| Json::Num(v);
    let notes = Json::obj([
        ("workload", Json::str(workload)),
        ("seed", num(args.seed as f64)),
        ("seconds", num(args.seconds)),
        ("nproc", num(nproc() as f64)),
        ("workers", num(workers() as f64)),
        ("rows", num(m.rows as f64)),
        ("generate_s", num(m.generate_s)),
        ("setup_rounds_s", seconds_json(&m.setup_s)),
        ("recover_rounds_s", seconds_json(&m.recover_s)),
        ("reads", num(m.reads.latency_us.len() as f64)),
        ("reads_per_s", num(m.reads.per_second())),
        ("checked_reads", num(m.reads.sampled.len() as f64)),
        ("commits", num(m.writes.commit_us.len() as f64)),
        ("nominal_kernel_us", num(NOMINAL_KERNEL_US)),
        ("kernel_us_during_reads", num(m.reads.gauge.kernel_us())),
        ("kernel_us_during_commits", num(m.writes.gauge.kernel_us())),
        ("read_tail", tail_json(&tails.read)),
        ("commit_tail", tail_json(&tails.commit)),
        (
            "read_after_commit_tail",
            tail_json(&tails.read_after_commit),
        ),
        (
            "failures",
            Json::Arr(tally.examples.iter().map(Json::str).collect()),
        ),
    ]);
    WorkloadRun {
        report: Report {
            tally,
            metrics: m.metrics(),
            notes,
        },
        tails,
    }
}

/// The generated database of a workload and how long generating it took.
#[derive(Debug, Clone)]
pub struct Generated {
    /// The database, finalized.
    pub db: Database,
    /// Seconds `imdb::generate` took (never part of `setup_s`).
    pub generate_s: f64,
}

fn unknown_workload(name: &str) -> String {
    format!(
        "unknown workload `{name}` (one of {})",
        WORKLOADS.join(", ")
    )
}

/// Generate the database `workload` runs on.
pub fn generate_for(workload: &str, args: &RunArgs) -> Result<Generated, String> {
    let movies = match workload {
        "serve_hot" | "pipeline_tail" => args.scale.large_movies,
        "shard_mixed" | "write_mixed" => args.scale.small_movies,
        other => return Err(unknown_workload(other)),
    };
    let t0 = Instant::now();
    let db = generate(&ImdbScale {
        movies,
        seed: args.seed,
    })
    .map_err(|e| e.to_string())?;
    Ok(Generated {
        db,
        generate_s: t0.elapsed().as_secs_f64(),
    })
}

/// `serve_hot` (`hot = true`) and `pipeline_tail` (`hot = false`): one
/// durable primary over the large database. 40% of the time goes to
/// caller-thread reads, 40% to the same stream through the worker pool, 20%
/// to commits each followed by a read of the row just written.
pub fn serving(hot: bool, args: &RunArgs, data: Generated) -> Result<WorkloadRun, String> {
    let workload = if hot { "serve_hot" } else { "pipeline_tail" };
    let scale = args.scale;
    let mut tally = Tally::default();
    let gauge = SpeedGauge::new();
    let Generated { db, generate_s } = data;
    let rows = db.total_rows();
    let catalog = db.catalog().clone();
    let pool = Arc::new(query_pool(args.seed, scale.pool));

    // Set-up: open the durable primary (log, engine, bootstrap snapshot) and
    // serve the pool once, so every cache has seen the working set.
    let (setup_s, (primary, dir)) = repeated(
        scale.repeats,
        &gauge,
        || fresh(&db, workload),
        |(dir, copy)| {
            let primary =
                Primary::open_with(dir.path(), copy, QuestConfig::default(), primary_options())
                    .map_err(|e| e.to_string())?;
            let mut scratch = SearchScratch::new();
            for q in pool.iter() {
                tally.op("warm read", primary.engine().search_with(q, &mut scratch));
            }
            Ok((primary, dir))
        },
    )?;

    let mut stream = if hot {
        Stream::hot(args.seed, "reads", &pool)
    } else {
        Stream::tail(args.seed, "reads")
    };
    let mut reads = direct_reads(
        primary.engine(),
        &catalog,
        &mut stream,
        0.3 * args.seconds,
        scale.check_every,
        &gauge,
        &mut tally,
    );
    let (read_qps, pooled_sampled) = pooled_reads(
        primary.engine(),
        &catalog,
        &mut stream,
        0.3 * args.seconds,
        scale.check_every,
        &gauge,
        &mut tally,
    );
    let wal = [primary.wal_path()];
    let wal_before = files_len(&wal)?;
    let writes = commits_then_reads(
        &primary,
        &mut CommitStream::new(args.seed),
        0.4 * args.seconds,
        scale.min_commits,
        &gauge,
        &mut tally,
    );
    let wal_bytes = files_len(&wal)? - wal_before;

    drop(primary);
    let (recover_s, recovered) = repeated(
        scale.repeats,
        &gauge,
        || Ok(()),
        |()| {
            Primary::reopen(dir.path(), QuestConfig::default(), primary_options())
                .map_err(|e| e.to_string())
        },
    )?;
    let peak_rss_mb = peak_rss_mb()?;

    reads.sampled.extend(pooled_sampled);
    verify_reads_against_reference(&db, &reads.sampled, &mut tally)?;
    let search = |q: &str| recovered.search(q).map_err(|e| e.to_string());
    verify_recovery_against_cold_rebuild(db, &writes.batches, &pool, &search, &mut tally)?;

    let measured = Measured {
        rows,
        generate_s,
        setup_s,
        recover_s,
        read_qps,
        reads,
        writes,
        wal_bytes,
        peak_rss_mb,
    };
    Ok(finish(workload, args, measured, tally))
}

/// `shard_mixed`: a four-shard durable topology over the small database,
/// one client. Rounds of [`READS_PER_COMMIT`] tail-stream reads and one
/// commit (gateway, route, per-shard log, then a group fsync).
pub fn shard_mixed(args: &RunArgs, data: Generated) -> Result<WorkloadRun, String> {
    let workload = "shard_mixed";
    let scale = args.scale;
    let mut tally = Tally::default();
    let gauge = SpeedGauge::new();
    let Generated { db, generate_s } = data;
    let rows = db.total_rows();
    let catalog = db.catalog().clone();
    let pool = Arc::new(query_pool(args.seed, scale.pool));
    let shards = ShardConfig::default();

    let (setup_s, (mut topology, dir)) = repeated(
        scale.small_repeats,
        &gauge,
        || fresh(&db, workload),
        |(dir, copy)| {
            let topology = ShardedPrimary::open(dir.path(), copy, &shards, QuestConfig::default())
                .map_err(|e| e.to_string())?;
            for q in pool.iter() {
                tally.op("warm read", topology.search(q));
            }
            Ok((topology, dir))
        },
    )?;

    let wal: Vec<PathBuf> = (0..shards.shard_count)
        .map(|i| topology.shard(i).wal_path())
        .collect();
    let wal_before = files_len(&wal)?;
    let mut stream = Stream::tail(args.seed, "reads");
    let mut commits = CommitStream::new(args.seed);
    let mut reads = Reads::new(&gauge);
    let mut writes = Writes::new(&gauge);
    let mut reports = Vec::new();
    let deadline = Deadline::after(args.seconds);
    loop {
        for n in 0..READS_PER_COMMIT {
            let query = stream.next();
            let t0 = Instant::now();
            let result = topology.search(query);
            reads.record(t0, Instant::now());
            if let Some(outcome) = tally.op("read", result) {
                if n % scale.check_every == 0 {
                    reads.sampled.push(Sampled {
                        query: query.to_string(),
                        got: fingerprint(&outcome, &catalog),
                        after_commits: writes.batches.len(),
                    });
                }
            }
        }
        if writes.batches.len() >= scale.min_commits && deadline.passed() {
            break;
        }
        let batch = commits.next().expect("endless stream");
        let t0 = Instant::now();
        let receipt = topology
            .commit(&batch.records)
            .and_then(|r| topology.sync().map(|()| r));
        writes.record_commit(t0.elapsed());
        reports.push(
            tally
                .op("commit", receipt)
                .map(|r| (r.report.applied, r.report.rejected.len())),
        );
        let t0 = Instant::now();
        let result = topology.search(&batch.title_word);
        let t1 = Instant::now();
        writes.read_after_us.push(micros(t1 - t0));
        writes.gauge.tick(t1);
        let seen = tally
            .op("read after commit", result)
            .is_some_and(|o| sees_title(&topology.gateway().engine().engine(), &o, &batch.title));
        tally.check(seen, || format!("read after commit missed {}", batch.title));
        writes.batches.push(batch);
    }
    let wal_bytes = files_len(&wal)? - wal_before;

    drop(topology);
    let (recover_s, recovered) = repeated(
        scale.small_repeats,
        &gauge,
        || Ok(()),
        |()| {
            ShardedPrimary::reopen(dir.path(), catalog.clone(), &shards, QuestConfig::default())
                .map_err(|e| e.to_string())
        },
    )?;
    let peak_rss_mb = peak_rss_mb()?;

    // An unsharded cached engine fed the same batches must report the same
    // per-record outcome for every commit and the same answer for every
    // sampled read, at the data version the read saw.
    let twin = CachedEngine::new(
        Quest::new(FullAccessWrapper::new(db.clone()), QuestConfig::default())
            .map_err(|e| e.to_string())?,
    );
    let mut sampled = reads.sampled.iter().peekable();
    let mut check_reads_after = |commits: usize, tally: &mut Tally| {
        while let Some(s) = sampled.next_if(|s| s.after_commits == commits) {
            let want = twin
                .search(&s.query)
                .ok()
                .map(|o| fingerprint(&o, &catalog));
            tally.check(want == Some(s.got), || {
                format!("`{}` differs from the unsharded engine", s.query)
            });
        }
    };
    check_reads_after(0, &mut tally);
    for (i, (batch, report)) in writes.batches.iter().zip(&reports).enumerate() {
        let want = twin
            .apply(&batch.records)
            .ok()
            .map(|r| (r.applied, r.rejected.len()));
        tally.check(want.is_some() && want == *report, || {
            format!("commit {i} applied differently from the unsharded engine")
        });
        check_reads_after(i + 1, &mut tally);
    }
    drop(twin);
    let search = |q: &str| recovered.search(q).map_err(|e| e.to_string());
    verify_recovery_against_cold_rebuild(db, &writes.batches, &pool, &search, &mut tally)?;

    let measured = Measured {
        rows,
        generate_s,
        setup_s,
        recover_s,
        read_qps: reads.per_second(),
        reads,
        writes,
        wal_bytes,
        peak_rss_mb,
    };
    Ok(finish(workload, args, measured, tally))
}

/// `write_mixed`: a durable primary (one fsync per commit) and one replica
/// behind a round-robin router, over the small database. A writer commits
/// and reads its own write back at `AtLeast(lsn)`; a reader draws the hot
/// pool at `Eventual` consistency until the writer stops. With one
/// processor the two alternate on one thread.
pub fn write_mixed(args: &RunArgs, data: Generated) -> Result<WorkloadRun, String> {
    /// Reads per commit when writer and reader share one thread.
    const READS_PER_ROUND_ON_ONE_THREAD: usize = 50;

    let workload = "write_mixed";
    let scale = args.scale;
    let mut tally = Tally::default();
    let gauge = SpeedGauge::new();
    let Generated { db, generate_s } = data;
    let rows = db.total_rows();
    let pool = Arc::new(query_pool(args.seed, scale.pool));

    let (setup_s, (set, dir)) = repeated(
        scale.small_repeats,
        &gauge,
        || fresh(&db, workload),
        |(dir, copy)| {
            let primary =
                Primary::open_with(dir.path(), copy, QuestConfig::default(), primary_options())
                    .map_err(|e| e.to_string())?;
            let mut set = ReplicaSet::new(Arc::new(primary), RoutingPolicy::RoundRobin);
            set.spawn_replica("replica-1").map_err(|e| e.to_string())?;
            for q in pool.iter() {
                tally.op("warm read", set.query(q, Consistency::Eventual));
            }
            Ok((set, dir))
        },
    )?;

    let wal = [set.primary().wal_path()];
    let wal_before = files_len(&wal)?;
    let deadline = Deadline::after(args.seconds);
    let writer_done = AtomicBool::new(false);

    // One writer round: commit, then read the write back through the router
    // at the commit's LSN (which makes the replica catch up first).
    let mut writes = Writes::new(&gauge);
    let mut writer_tally = Tally::default();
    let mut commits = CommitStream::new(args.seed);
    let mut writer_round = |writes: &mut Writes, tally: &mut Tally| -> bool {
        let batch = commits.next().expect("endless stream");
        let t0 = Instant::now();
        let receipt = set.primary().commit(&batch.records);
        writes.record_commit(t0.elapsed());
        let lsn = tally.op("commit", receipt).map(|r| {
            tally.check(r.report.all_applied(), || "commit rejected records".into());
            r.last_lsn
        });
        // A failed commit leaves nothing to read back at; LSN 0 makes the
        // read itself still happen and the title check fail.
        let bound = lsn.unwrap_or(0);
        let t0 = Instant::now();
        let routed = set.query(&batch.title_word, Consistency::AtLeast(bound));
        let t1 = Instant::now();
        writes.read_after_us.push(micros(t1 - t0));
        let fresh = tally.op("read own write", routed).is_some_and(|r| {
            r.lsn >= bound && sees_title(&set.primary().engine().engine(), &r.outcome, &batch.title)
        });
        tally.check(fresh, || format!("read own write missed {}", batch.title));
        writes.batches.push(batch);
        writes.gauge.tick(t1);
        !(writes.batches.len() >= scale.min_commits && deadline.passed_at(t1))
    };

    let mut reads = Reads::new(&gauge);
    let mut reader_tally = Tally::default();
    let mut stream = Stream::hot(args.seed, "reader", &pool);
    let mut reader_read = |reads: &mut Reads, tally: &mut Tally| {
        let query = stream.next();
        let t0 = Instant::now();
        let routed = set.query(query, Consistency::Eventual);
        reads.record(t0, Instant::now());
        tally.op("read", routed);
    };

    if workers() >= 2 {
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while writer_round(&mut writes, &mut writer_tally) {}
                writer_done.store(true, Ordering::SeqCst);
            });
            scope.spawn(|| {
                while !writer_done.load(Ordering::SeqCst) {
                    reader_read(&mut reads, &mut reader_tally);
                }
            });
        });
    } else {
        while writer_round(&mut writes, &mut writer_tally) {
            for _ in 0..READS_PER_ROUND_ON_ONE_THREAD {
                reader_read(&mut reads, &mut reader_tally);
            }
        }
    }
    tally.absorb(writer_tally);
    tally.absorb(reader_tally);
    let wal_bytes = files_len(&wal)? - wal_before;

    drop(set);
    let (recover_s, recovered) = repeated(
        scale.small_repeats,
        &gauge,
        || Ok(()),
        |()| {
            Primary::reopen(dir.path(), QuestConfig::default(), primary_options())
                .map_err(|e| e.to_string())
        },
    )?;
    let peak_rss_mb = peak_rss_mb()?;

    let search = |q: &str| recovered.search(q).map_err(|e| e.to_string());
    verify_recovery_against_cold_rebuild(db, &writes.batches, &pool, &search, &mut tally)?;

    let measured = Measured {
        rows,
        generate_s,
        setup_s,
        recover_s,
        read_qps: reads.per_second(),
        reads,
        writes,
        wal_bytes,
        peak_rss_mb,
    };
    Ok(finish(workload, args, measured, tally))
}

/// Run one workload by name on its generated database.
pub fn run_on(workload: &str, args: &RunArgs, data: Generated) -> Result<WorkloadRun, String> {
    match workload {
        "serve_hot" => serving(true, args, data),
        "pipeline_tail" => serving(false, args, data),
        "shard_mixed" => shard_mixed(args, data),
        "write_mixed" => write_mixed(args, data),
        other => Err(unknown_workload(other)),
    }
}

/// Generate a workload's database and run it.
pub fn run(workload: &str, args: &RunArgs) -> Result<WorkloadRun, String> {
    run_on(workload, args, generate_for(workload, args)?)
}
