//! Failure injection: malformed schemas, hostile queries and edge-case
//! configurations must fail cleanly (typed errors), never panic — and
//! deterministic failpoint plans must heal through the retry/re-bootstrap
//! machinery instead of terminating service.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use quest::fault::{self, Clock, ManualClock, RetryPolicy};
use quest::prelude::*;
use quest::replica::PrimaryOptions;
use quest_data::imdb::{self, ImdbScale};

/// The failpoint registry is process-global, so every test in this binary
/// that installs a plan — or that drives WAL traffic which could consume an
/// armed plan's hits — serializes on this lock.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// A small deterministic insert batch with keys disjoint per `round`.
fn insert_batch(round: i64) -> Vec<ChangeRecord> {
    let base = 920_000 + round * 10;
    vec![
        ChangeRecord::Insert {
            table: "person".into(),
            row: vec![
                (base + 1).into(),
                format!("Injected Person {round}").into(),
                (1940 + round).into(),
            ],
        },
        ChangeRecord::Insert {
            table: "movie".into(),
            row: vec![
                (base + 2).into(),
                format!("Injected Feature {round}").into(),
                (1970 + round).into(),
                6.5.into(),
                (base + 1).into(),
            ],
        },
    ]
}

/// The retry budget of every failpoint test: four retries, short backoff.
fn short_retry() -> RetryPolicy {
    RetryPolicy {
        retries: 4,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(4),
        jitter_seed: 1,
    }
}

/// A primary wired to a manual clock so retry backoff takes no wall time.
fn manual_primary(dir: &std::path::Path, db: Database, sync_policy: SyncPolicy) -> Primary {
    Primary::open_with(
        dir,
        db,
        QuestConfig::default(),
        PrimaryOptions {
            sync_policy,
            retry: short_retry(),
            clock: Arc::new(ManualClock::new()),
        },
    )
    .expect("primary opens")
}

fn engine() -> Quest<FullAccessWrapper> {
    let db = imdb::generate(&ImdbScale {
        movies: 30,
        seed: 2,
    })
    .expect("generate");
    Quest::new(FullAccessWrapper::new(db), QuestConfig::default()).expect("build")
}

#[test]
fn empty_and_stopword_queries() {
    let e = engine();
    assert!(matches!(e.search(""), Err(QuestError::EmptyQuery)));
    assert!(matches!(e.search("   \t "), Err(QuestError::EmptyQuery)));
    assert!(matches!(
        e.search("the of and"),
        Err(QuestError::EmptyQuery)
    ));
}

#[test]
fn oversized_query_rejected() {
    let e = engine();
    let q = (0..12)
        .map(|i| format!("kw{i}"))
        .collect::<Vec<_>>()
        .join(" ");
    assert!(matches!(
        e.search(&q),
        Err(QuestError::TooManyKeywords { .. })
    ));
}

#[test]
fn unknown_keywords_still_answer_or_fail_cleanly() {
    let e = engine();
    // Pure gibberish: the emission floor keeps decoding alive; the engine
    // returns (low-quality) explanations rather than panicking.
    let out = e.search("zzqx vvrw").expect("gibberish handled");
    for ex in &out.explanations {
        // Whatever comes back must execute.
        e.execute(ex).expect("sql executes");
    }
}

#[test]
fn hostile_strings_are_safe() {
    let e = engine();
    for q in [
        "Robert'); DROP TABLE movie;--",
        "movie % _ \\ '",
        "\"unterminated phrase",
        "emoji 🎬 query",
        "ünïcödé tïtle",
    ] {
        match e.search(q) {
            Ok(out) => {
                for ex in &out.explanations {
                    let _ = e.execute(ex);
                    // Rendered SQL must escape quotes.
                    let sql = ex.sql(e.wrapper().catalog());
                    assert!(!sql.contains("');"), "unescaped quote in {sql}");
                }
            }
            Err(err) => {
                let _ = err.to_string();
            }
        }
    }
}

#[test]
fn invalid_engine_parameters_rejected() {
    let db = imdb::generate(&ImdbScale {
        movies: 10,
        seed: 2,
    })
    .expect("generate");
    let w = FullAccessWrapper::new(db);
    for bad in [
        QuestConfig {
            o_cap: -0.1,
            ..Default::default()
        },
        QuestConfig {
            o_i: 2.0,
            ..Default::default()
        },
        QuestConfig {
            o_c: f64::NAN,
            ..Default::default()
        },
        QuestConfig {
            k: 0,
            ..Default::default()
        },
    ] {
        assert!(Quest::new(w.clone(), bad).is_err());
    }
}

#[test]
fn schema_without_fk_still_searches() {
    // A single isolated table: no joins possible, single-table answers only.
    let mut c = Catalog::new();
    c.define_table("note")
        .expect("define")
        .pk("id", DataType::Int)
        .expect("pk")
        .col("body", DataType::Text)
        .expect("col")
        .finish();
    let mut db = Database::new(c).expect("db");
    db.insert("note", Row::new(vec![1.into(), "remember the milk".into()]))
        .expect("insert");
    db.finalize();
    let e = Quest::new(FullAccessWrapper::new(db), QuestConfig::default()).expect("build");
    let out = e.search("milk").expect("search");
    assert!(!out.explanations.is_empty());
    assert!(e.execute(&out.explanations[0]).expect("exec").len() == 1);
}

#[test]
fn malformed_catalogs_rejected_at_setup() {
    // No primary key.
    let mut c = Catalog::new();
    c.define_table("t")
        .expect("define")
        .col("x", DataType::Int)
        .expect("col")
        .finish();
    assert!(Database::new(c).is_err());
    // Empty catalog builds a database but no engine.
    let db = Database::new(Catalog::new()).expect("empty catalog is structurally fine");
    assert!(Quest::new(FullAccessWrapper::new(db), QuestConfig::default()).is_err());
}

#[test]
fn feedback_with_foreign_terms_rejected() {
    let e = engine();
    // A configuration whose term refers to an attribute id far outside the
    // catalog is rejected, not silently accepted.
    let bogus = Configuration::new(vec![DbTerm::Domain(quest::store::AttrId(9999))], 1.0);
    assert!(e.feedback_configuration(&bogus, true).is_err());
}

/// A fresh sharded primary over a 40-movie IMDB instance, and its directory.
fn sharded_primary(name: &str, shard_count: usize) -> (std::path::PathBuf, ShardedPrimary) {
    let dir = std::env::temp_dir()
        .join("quest-shard-failures")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let db = imdb::generate(&ImdbScale {
        movies: 40,
        seed: 3,
    })
    .expect("generate");
    let shards = quest::shard::ShardConfig::new(shard_count);
    let primary = ShardedPrimary::open(&dir, db, &shards, QuestConfig::default())
        .expect("sharded primary opens");
    (dir, primary)
}

#[test]
fn broken_shard_refuses_queries_with_a_typed_error() {
    use quest::shard::ShardError;
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (dir, mut primary) = sharded_primary("fenced-read", 3);
    assert!(primary.search("casablanca").is_ok());

    // One shard goes down (operator fence, e.g. after a failing disk is
    // detected out of band). A query against the set must now return a
    // typed error naming the shard — never silently partial results from
    // the surviving shards.
    primary.fence(1, "fsync: I/O error (injected)");
    match primary.search("casablanca") {
        Err(ShardError::ShardDown { shard, reason }) => {
            assert_eq!(shard, 1);
            assert!(reason.contains("fsync"), "{reason}");
        }
        other => panic!("expected ShardDown, got {other:?}"),
    }
    // Writes are refused with the same typed error.
    let batch = vec![ChangeRecord::Insert {
        table: "person".into(),
        row: vec![910_000.into(), "Fenced Writer".into(), 1960.into()],
    }];
    assert!(matches!(
        primary.commit(&batch),
        Err(ShardError::ShardDown { shard: 1, .. })
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn poisoned_shard_primary_is_reported_in_the_topology() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (dir, mut primary) = sharded_primary("fenced-topology", 4);
    let healthy = primary.topology();
    assert!(healthy.is_healthy());
    assert_eq!(healthy.broken, vec![None; 4]);

    // A shard whose primary poisons on fsync failure is fenced; the
    // topology names it and carries the reason for the operator.
    primary.fence(2, "wal poisoned after failed fsync");
    let topo = primary.topology();
    assert!(!topo.is_healthy());
    assert_eq!(topo.shard_count, 4);
    for (i, state) in topo.broken.iter().enumerate() {
        if i == 2 {
            let reason = state.as_deref().expect("shard 2 is fenced");
            assert!(reason.contains("poisoned"), "{reason}");
        } else {
            assert!(state.is_none(), "shard {i} must stay healthy");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn failpoint_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("quest-failpoints")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn small_db() -> Database {
    imdb::generate(&ImdbScale {
        movies: 25,
        seed: 5,
    })
    .expect("generate")
}

#[test]
fn torn_append_mid_batch_heals_on_retry() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    let dir = failpoint_dir("torn-append");
    let db = small_db();
    let primary = manual_primary(&dir, db.clone(), SyncPolicy::Never);

    // The first append tears mid-batch: half the framed bytes land, the
    // write errors, and the writer rolls the file back. The retry loop
    // must re-append the whole batch at the SAME LSNs — nothing torn left
    // behind, nothing logged twice.
    fault::install("wal.append@1=torn_write".parse().expect("plan parses"));
    let batch = insert_batch(0);
    let receipt = primary.commit(&batch).expect("torn write heals on retry");
    fault::clear();
    assert_eq!(receipt.first_lsn, 1);
    assert_eq!(receipt.last_lsn, batch.len() as u64);
    assert!(receipt.report.all_applied());

    // The log holds exactly the batch, checksums intact, no torn tail.
    let log = quest::wal::read_log(&primary.wal_path(), db.catalog()).expect("log reads cleanly");
    assert_eq!(log.records.len(), batch.len());
    assert_eq!(
        log.records.iter().map(|(seq, _)| *seq).collect::<Vec<_>>(),
        vec![1, 2]
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn transient_fsync_failure_no_longer_poisons_the_writer() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    let dir = failpoint_dir("fsync-heal");
    let db = small_db();
    // SyncPolicy::Always drives the injected fsync inside the commit path
    // itself — the exact sequence that used to leave the writer poisoned
    // for good and the primary refusing every later commit.
    let primary = manual_primary(&dir, db, SyncPolicy::Always);

    fault::install("wal.fsync@1=fsync_error".parse().expect("plan parses"));
    let receipt = primary
        .commit(&insert_batch(0))
        .expect("transient fsync failure heals inside commit");
    assert!(receipt.report.all_applied());
    fault::clear();

    // Regression: the writer is healed, not poisoned — later commits and
    // explicit durability points keep working without reopening anything.
    let receipt = primary
        .commit(&insert_batch(1))
        .expect("writer survives the earlier fsync fault");
    assert!(receipt.report.all_applied());
    primary.sync().expect("explicit sync works");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_snapshot_publish_leaves_prior_snapshot_bootstrappable() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    let dir = failpoint_dir("snapshot-fault");
    let db = small_db();
    let primary = manual_primary(&dir, db, SyncPolicy::Never);
    let receipt = primary.commit(&insert_batch(0)).expect("commit");

    // A PERMANENT snapshot fault (trailing `!`): the retry loop must not
    // burn its budget on it, and the publish fails...
    fault::install("wal.snapshot@1=append_error!".parse().expect("plan parses"));
    assert!(primary.publish_snapshot().is_err());
    fault::clear();

    // ...but the snapshot written at open (LSN 0) is untouched, so a new
    // replica still bootstraps from it and catches up over the log.
    let replica = Replica::from_primary("fresh", &primary).expect("bootstrap uses prior snapshot");
    let report = replica.sync_to(receipt.last_lsn).expect("catches up");
    assert_eq!(report.lsn, primary.last_lsn());
    assert!(replica.is_healthy());
    std::fs::remove_dir_all(&dir).ok();
}

/// A primary under `dir` and a one-replica set supervised on `clock`, whose
/// replica `victim` an injected apply fault has just broken mid-tail.
fn set_with_broken_replica(
    dir: &std::path::Path,
    clock: &Arc<ManualClock>,
) -> (Arc<Primary>, ReplicaSet) {
    let primary = Arc::new(manual_primary(dir, small_db(), SyncPolicy::Never));
    let mut set = ReplicaSet::new(Arc::clone(&primary), RoutingPolicy::RoundRobin);
    set.set_recovery(short_retry(), clock.clone());
    let victim = set.spawn_replica("victim").expect("spawn");
    primary.commit(&insert_batch(0)).expect("commit");
    victim.sync().expect("baseline sync");
    fault::install("replica.apply@1=apply_error".parse().expect("plan parses"));
    primary.commit(&insert_batch(1)).expect("commit");
    assert!(victim.sync().is_err(), "the injected apply fault surfaces");
    assert!(!victim.is_healthy());
    (primary, set)
}

#[test]
fn healed_replica_resumes_serving_bounded_reads() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    let dir = failpoint_dir("quarantine-heal");
    let clock = Arc::new(ManualClock::new());
    let (primary, set) = set_with_broken_replica(&dir, &clock);

    // Supervision quarantines it, probes after backoff, re-bootstraps from
    // the latest snapshot, and swaps the healed instance back in.
    let mut iters = 0;
    loop {
        clock.advance(Duration::from_millis(20));
        let healed = set.supervise();
        if healed > 0 {
            break;
        }
        iters += 1;
        assert!(iters < 64, "supervision never healed the replica");
    }
    fault::clear();

    // The healed replica serves read-your-writes at the full bound again —
    // routed by name, not via the primary fallback.
    let last = primary.last_lsn();
    let routed = set
        .query("injected feature", Consistency::AtLeast(last))
        .expect("bounded read routes");
    assert_eq!(routed.served_by, "victim");
    assert!(routed.lsn >= last, "{routed:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_dropped_set_releases_its_quarantined_slot() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    let dir = failpoint_dir("quarantine-drop");
    let clock = Arc::new(ManualClock::new());
    let (_primary, set) = set_with_broken_replica(&dir, &clock);
    let uncharged = fault::quarantined("replica").value();
    // The first tick quarantines the slot; its probe fails, so the slot
    // stays quarantined when the set goes.
    fault::install(
        "replica.bootstrap@1=append_error!"
            .parse()
            .expect("plan parses"),
    );
    assert_eq!(set.supervise(), 0, "the probe fails");
    assert_eq!(fault::pending(), 0, "the probe ran");
    fault::clear();
    assert_eq!(fault::quarantined("replica").value(), uncharged + 1);
    drop(set);
    assert_eq!(fault::quarantined("replica").value(), uncharged);
    std::fs::remove_dir_all(&dir).ok();
}

/// Supervise under a fault that fails every probe — `site` armed for more
/// arrivals than the budget — then once more with the fault gone. The slot
/// must have been probed exactly `1 + retries` times (each probe consumes
/// one injection), escalated once with the quarantine gauge still charged
/// (one above `uncharged`), and not be probed again even though a probe
/// would now heal it.
fn assert_escalates_on_budget(
    component: &str,
    site: &str,
    uncharged: i64,
    clock: &ManualClock,
    mut supervise: impl FnMut() -> usize,
) {
    const ARMED: usize = 16;
    let escalations = || {
        quest::obs::global()
            .counter_with(fault::names::ESCALATIONS, &[("component", component)])
            .value()
    };
    let before = escalations();
    let plan: Vec<String> = (1..=ARMED)
        .map(|hit| format!("{site}@{hit}=append_error!"))
        .collect();
    fault::install(plan.join(",").parse().expect("plan parses"));
    for _ in 0..ARMED {
        clock.advance(Duration::from_millis(20));
        assert_eq!(supervise(), 0, "no probe can succeed");
    }
    assert_eq!(ARMED - fault::pending(), 1 + short_retry().retries as usize);
    fault::clear();
    clock.advance(Duration::from_millis(20));
    assert_eq!(supervise(), 0, "an escalated slot is left to the operator");
    assert_eq!(escalations(), before + 1);
    assert_eq!(fault::quarantined(component).value(), uncharged + 1);
}

#[test]
fn replica_supervisor_escalates_after_the_first_probe_plus_retries() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    let dir = failpoint_dir("replica-escalation");
    let clock = Arc::new(ManualClock::new());
    let (_primary, mut set) = set_with_broken_replica(&dir, &clock);
    // The first tick quarantines the slot (charging the gauge) and probes.
    let uncharged = fault::quarantined("replica").value();
    let site = fault::sites::REPLICA_BOOTSTRAP;
    assert_escalates_on_budget("replica", site, uncharged, &clock, || set.supervise());
    assert!(!set.replicas()[0].is_healthy());
    let spec = quest::obs::SloSpec::default();
    assert_eq!(
        set.topology().health(&spec).status,
        quest::obs::HealthStatus::Critical
    );

    // The operator's way out: retiring the escalated slot drops its
    // quarantine, which releases the gauge, and the set stops reporting it.
    let retired = set.retire("victim").expect("the slot is registered");
    assert!(!retired.is_healthy());
    assert!(set.retire("victim").is_none(), "a slot retires once");
    assert_eq!(fault::quarantined("replica").value(), uncharged);
    assert!(set.replicas().iter().all(|r| r.name() != "victim"));
    assert_ne!(
        set.topology().health(&spec).status,
        quest::obs::HealthStatus::Critical
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shard_supervisor_escalates_after_the_first_probe_plus_retries() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    let (dir, mut primary) = sharded_primary("shard-escalation", 2);
    let clock = Arc::new(ManualClock::new());
    primary.set_recovery(short_retry(), clock.clone());
    let uncharged = fault::quarantined("shard").value();
    primary.fence(1, "operator fence");
    // Recovery reopens the shard's primary, which replays its log through
    // `LogReader::poll` — the `wal.read` seam.
    let site = fault::sites::WAL_READ;
    assert_escalates_on_budget("shard", site, uncharged, &clock, || primary.supervise());
    assert!(!primary.is_healthy());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn set_recovery_reaches_the_shard_logs() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    let retries = || {
        quest::obs::global()
            .snapshot()
            .counter(fault::names::RETRIES)
            .unwrap_or(0)
    };

    // One transient fault inside a shard's WAL append: the retry one layer
    // below the set must run under the policy and clock the set was given —
    // exactly one retry, slept out on the manual clock, no wall time.
    let (dir, mut primary) = sharded_primary("shard-log-retry", 2);
    let clock = Arc::new(ManualClock::new());
    primary.set_recovery(short_retry(), clock.clone());
    let (retries_before, now_before) = (retries(), clock.now());
    fault::install("wal.append@1=append_error".parse().expect("plan parses"));
    let receipt = primary
        .commit(&insert_batch(0))
        .expect("a transient append fault heals inside the shard's log");
    assert_eq!(fault::pending(), 0, "the fault fired");
    fault::clear();
    assert!(receipt.report.all_applied());
    assert_eq!(retries() - retries_before, 1);
    assert_eq!(clock.now() - now_before, short_retry().delay(0));
    std::fs::remove_dir_all(&dir).ok();

    // With no retry budget the same fault is not retried anywhere: the
    // shard is fenced instead, and heals once the fault is gone.
    let (dir, mut primary) = sharded_primary("shard-log-no-retry", 2);
    let no_retry = RetryPolicy {
        retries: 0,
        ..short_retry()
    };
    primary.set_recovery(no_retry, clock.clone());
    fault::install("wal.append@1=append_error".parse().expect("plan parses"));
    assert!(matches!(
        primary.commit(&insert_batch(0)),
        Err(quest::shard::ShardError::ShardDown { .. })
    ));
    fault::clear();
    assert!(!primary.is_healthy());
    assert_eq!(primary.supervise(), 1);
    assert!(primary.is_healthy());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn publish_snapshots_refuses_a_fenced_set_and_the_healed_disk_reopens() {
    use quest::shard::ShardError;
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    let (dir, mut primary) = sharded_primary("fenced-snapshot", 2);
    let catalog = primary
        .gateway()
        .engine()
        .engine()
        .wrapper()
        .catalog()
        .clone();
    primary.set_recovery(short_retry(), Arc::new(ManualClock::new()));

    // A permanent commit-level fault fences the first shard that is handed
    // records, with those records pending: the store now holds rows that
    // shard's log does not.
    fault::install("shard.commit@1=append_error!".parse().expect("plan parses"));
    assert!(matches!(
        primary.commit(&insert_batch(0)),
        Err(ShardError::ShardDown { .. })
    ));
    fault::clear();
    // A snapshot of the store at the log's LSN would cover records the log
    // does not hold — the pair `reopen` refuses — so it is refused here.
    assert!(matches!(
        primary.publish_snapshots(),
        Err(ShardError::ShardDown { .. })
    ));

    assert_eq!(primary.supervise(), 1, "the pending slice is re-driven");
    let lsns = primary
        .publish_snapshots()
        .expect("a healthy set publishes");
    assert_eq!(lsns, primary.topology().lsns);
    primary.commit(&insert_batch(1)).expect("commit");
    primary.sync().expect("group fsync");

    let queries = ["injected feature", "injected person", "casablanca"];
    let answers = |p: &ShardedPrimary| -> Vec<Vec<(String, u64)>> {
        queries
            .iter()
            .map(|q| {
                let out = p.search(q).expect("search");
                out.explanations
                    .iter()
                    .map(|e| (e.sql(&catalog), e.score.to_bits()))
                    .collect()
            })
            .collect()
    };
    let live = answers(&primary);
    assert!(live.iter().all(|a| !a.is_empty()));
    drop(primary);
    let shards = quest::shard::ShardConfig::new(2);
    let reopened = ShardedPrimary::reopen(&dir, catalog.clone(), &shards, QuestConfig::default())
        .expect("healed directory reopens");
    assert_eq!(answers(&reopened), live);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Crash points of a sharded commit. The coordinator log's fsynced frame is
// the commit point: a crash after it must reopen *with* the batch, a crash
// before it *without* the batch, and never with half of it.
// ---------------------------------------------------------------------------

fn crash_db() -> Database {
    imdb::generate(&ImdbScale {
        movies: 50,
        seed: 7,
    })
    .expect("generate")
}

fn crash_shards() -> quest::shard::ShardConfig {
    quest::shard::ShardConfig::new(4)
}

/// A fresh 4-shard set over a 50-movie IMDB instance, retrying on a manual
/// clock.
fn crash_set(name: &str) -> (std::path::PathBuf, ShardedPrimary) {
    let dir = failpoint_dir(name);
    let mut set = ShardedPrimary::open(&dir, crash_db(), &crash_shards(), QuestConfig::default())
        .expect("sharded primary opens");
    set.set_recovery(short_retry(), Arc::new(ManualClock::new()));
    (dir, set)
}

/// Reopen a set directory the way a restarted process would.
fn reopen_set(dir: &std::path::Path) -> ShardedPrimary {
    ShardedPrimary::reopen(
        dir,
        crash_db().catalog().clone(),
        &crash_shards(),
        QuestConfig::default(),
    )
    .expect("the set directory reopens without an operator")
}

/// One batch over two shards: a person (shard 1) and a movie directed by
/// that person (shard 0). Logged half-way, it leaves a dangling foreign key.
fn probe_batch() -> Vec<ChangeRecord> {
    vec![
        ChangeRecord::Insert {
            table: "person".into(),
            row: vec![9_000_003.into(), "Probe Director".into(), 1950.into()],
        },
        ChangeRecord::Insert {
            table: "movie".into(),
            row: vec![
                9_500_021.into(),
                "Probe Feature".into(),
                1990.into(),
                7.0.into(),
                9_000_003.into(),
            ],
        },
    ]
}

/// What two sets must agree on: each probe query's answers (SQL text and
/// score bits, in ranking order), the LSN vector, and every table's rows.
type SetState = (Vec<Vec<(String, u64)>>, Vec<u64>, Vec<Vec<Vec<Value>>>);

fn set_state(set: &ShardedPrimary) -> SetState {
    let guard = set.gateway().engine().engine();
    let store = guard.wrapper().store();
    let catalog = store.catalog();
    let answers = [
        "probe feature",
        "probe director",
        "injected feature",
        "casablanca",
    ]
    .iter()
    .map(|q| {
        let out = set.search(q).expect("a healthy set answers");
        out.explanations
            .iter()
            .map(|e| (e.sql(catalog), e.score.to_bits()))
            .collect()
    })
    .collect();
    let db = store.gather().expect("shards gather");
    let rows = catalog
        .tables()
        .iter()
        .map(|t| {
            let mut rows: Vec<Vec<Value>> = db
                .table_data(t.id)
                .iter()
                .map(|(_, r)| r.values().to_vec())
                .collect();
            rows.sort();
            rows
        })
        .collect();
    (answers, set.topology().lsns, rows)
}

/// The never-crashed twin after `batches`.
fn twin_state(name: &str, batches: &[Vec<ChangeRecord>]) -> SetState {
    let (dir, mut twin) = crash_set(name);
    for batch in batches {
        twin.commit(batch).expect("the twin commits");
    }
    let state = set_state(&twin);
    drop(twin);
    std::fs::remove_dir_all(&dir).ok();
    state
}

#[test]
fn a_crash_between_two_shard_appends_reopens_with_the_whole_batch() {
    use quest::shard::ShardError;
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    let (dir, mut set) = crash_set("probe-crash");
    // The movie's shard appends first; the person's shard fails for good.
    fault::install("shard.commit@2=append_error!".parse().expect("plan parses"));
    let fenced = set.commit(&probe_batch());
    fault::clear();
    assert!(
        matches!(fenced, Err(ShardError::ShardDown { shard: 1, .. })),
        "{fenced:?}"
    );
    assert_eq!(set.topology().lsns, vec![1, 0, 0, 0]);
    // The process dies before supervision runs.
    drop(set);
    let reopened = reopen_set(&dir);
    assert_eq!(reopened.topology().lsns, vec![1, 1, 0, 0]);
    assert_eq!(
        set_state(&reopened),
        twin_state("probe-twin", &[probe_batch()])
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_shard_append_crash_point_reopens_to_the_twin_with_the_batch() {
    use quest::shard::ShardError;
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    let with = twin_state("append-twin", &[insert_batch(0), probe_batch()]);
    let before = twin_state("append-twin-before", &[insert_batch(0)]);
    let participants = with
        .1
        .iter()
        .zip(&before.1)
        .filter(|(after, before)| after > before)
        .count();
    assert_eq!(participants, 2, "the probe batch spans two shards");
    for k in 1..=participants {
        let (dir, mut set) = crash_set(&format!("append-crash-{k}"));
        set.commit(&insert_batch(0)).expect("commit");
        fault::install(
            format!("shard.commit@{k}=append_error!")
                .parse()
                .expect("plan parses"),
        );
        let fenced = set.commit(&probe_batch());
        fault::clear();
        assert!(
            matches!(fenced, Err(ShardError::ShardDown { .. })),
            "crash at append {k}: {fenced:?}"
        );
        drop(set);
        let reopened = reopen_set(&dir);
        assert_eq!(set_state(&reopened), with, "crash at append {k}");
        drop(reopened);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn a_failed_coordinator_append_reopens_or_rebuilds_without_the_batch() {
    use quest::shard::ShardError;
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    let without = twin_state("coordinator-twin", &[insert_batch(0)]);
    let with = twin_state("coordinator-twin-with", &[insert_batch(0), probe_batch()]);
    for supervised in [false, true] {
        let (dir, mut set) = crash_set(&format!("coordinator-crash-{supervised}"));
        set.commit(&insert_batch(0)).expect("commit");
        fault::install(
            "shard.coordinator@1=append_error!"
                .parse()
                .expect("plan parses"),
        );
        let fenced = set.commit(&probe_batch());
        fault::clear();
        assert!(
            matches!(fenced, Err(ShardError::CommitUnknown { .. })),
            "{fenced:?}"
        );
        // The whole set is fenced: the gateway holds a batch no log does.
        let topology = set.topology();
        assert!(topology.broken.iter().all(Option::is_some), "{topology:?}");
        assert!(matches!(
            set.search("probe feature"),
            Err(ShardError::ShardDown { .. })
        ));
        if supervised {
            assert_eq!(
                set.supervise(),
                topology.shard_count,
                "the rebuild lifts every shard's fence"
            );
            assert!(set.is_healthy());
            assert_eq!(set_state(&set), without);
            // The batch was never committed; committing it again lands it.
            set.commit(&probe_batch()).expect("commit");
            assert_eq!(set_state(&set), with);
        } else {
            drop(set);
            assert_eq!(set_state(&reopen_set(&dir)), without);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Copy a set directory (the root and one level of shard directories).
fn copy_set_dir(from: &std::path::Path, to: &std::path::Path) {
    std::fs::create_dir_all(to).expect("mkdir");
    for entry in std::fs::read_dir(from).expect("read dir") {
        let entry = entry.expect("entry");
        let target = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_set_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).expect("copy");
        }
    }
}

#[test]
fn a_coordinator_frame_torn_before_its_fsync_reopens_without_its_batch() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    let (dir, mut set) = crash_set("torn-frame");
    set.commit(&insert_batch(0)).expect("commit");
    // The directory as it stood before the next commit...
    let crashed = failpoint_dir("torn-frame-crashed");
    copy_set_dir(&dir, &crashed);
    set.commit(&probe_batch()).expect("commit");
    drop(set);
    // ...plus half of the next frame: the crash hit while the frame was
    // being written, before its fsync returned and before any shard append.
    let coordinator = std::fs::read(dir.join("coordinator.wal")).expect("read");
    let last_frame = coordinator[..coordinator.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .expect("a header precedes the frames")
        + 1;
    let cut = last_frame + (coordinator.len() - last_frame) / 2;
    std::fs::write(crashed.join("coordinator.wal"), &coordinator[..cut]).expect("write");

    let torn = || {
        quest::obs::global()
            .snapshot()
            .counter(quest::wal::names::TORN_TAIL)
            .unwrap_or(0)
    };
    let torn_before = torn();
    let reopened = reopen_set(&crashed);
    assert!(torn() > torn_before, "the dropped frame is counted");
    assert_eq!(
        set_state(&reopened),
        twin_state("torn-frame-twin", &[insert_batch(0)])
    );
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&crashed).ok();
}

/// Overwrite record `lsn` of a shard log with zero bytes, keeping its
/// newline: a page that never reached the disk before a power loss.
fn zero_record(wal: &std::path::Path, lsn: u64) {
    let bytes = std::fs::read(wal).expect("read");
    let mut lines: Vec<Vec<u8>> = bytes
        .split_inclusive(|&b| b == b'\n')
        .map(<[u8]>::to_vec)
        .collect();
    // Line 0 is the header; record `lsn` is line `lsn`.
    let line = &mut lines[lsn as usize];
    let body = line.len() - 1;
    line[..body].fill(0);
    std::fs::write(wal, lines.concat()).expect("write");
}

#[test]
fn a_shard_log_garbled_past_its_snapshot_rolls_forward_from_the_coordinator() {
    use quest::shard::ShardError;
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    let batches = [
        insert_batch(0),
        insert_batch(1),
        insert_batch(2),
        insert_batch(3),
        probe_batch(),
    ];
    let (dir, mut set) = crash_set("garbled-shard");
    set.commit(&batches[0]).expect("commit");
    let snapshots = set.publish_snapshots().expect("publish");
    // Every frame is now in a synced shard log: the coordinator is emptied
    // back to its header.
    let coordinator = std::fs::read_to_string(dir.join("coordinator.wal")).expect("read");
    assert_eq!(coordinator.lines().count(), 1, "{coordinator}");
    for batch in &batches[1..] {
        set.commit(batch).expect("commit");
    }
    let lsns = set.topology().lsns;
    drop(set);
    // A shard with a record past its snapshot that has another after it,
    // and one with a record at or below its snapshot.
    let past = (0..lsns.len())
        .find(|&i| lsns[i] >= snapshots[i] + 2)
        .expect("a shard holds two records past its snapshot");
    let covered = (0..lsns.len())
        .find(|&i| snapshots[i] >= 1 && lsns[i] > snapshots[i])
        .expect("a shard holds records on both sides of its snapshot");
    let wal = |dir: &std::path::Path, shard: usize| {
        dir.join(format!("shard-{shard:03}")).join("primary.wal")
    };

    // Damage below the snapshot was fsynced before it, so it is rot, not a
    // power loss: the set refuses to open.
    let rotted = failpoint_dir("garbled-shard-rotted");
    copy_set_dir(&dir, &rotted);
    zero_record(&wal(&rotted, covered), snapshots[covered]);
    let refused = ShardedPrimary::reopen(
        &rotted,
        crash_db().catalog().clone(),
        &crash_shards(),
        QuestConfig::default(),
    );
    assert!(
        matches!(
            refused,
            Err(ShardError::Wal(quest::wal::WalError::Corrupt { .. }))
        ),
        "{refused:?}"
    );
    std::fs::remove_dir_all(&rotted).ok();

    // Damage past the snapshot, with a valid line after it: the log is cut
    // back and the coordinator re-supplies the rest.
    zero_record(&wal(&dir, past), snapshots[past] + 1);
    let reopened = reopen_set(&dir);
    assert_eq!(reopened.topology().lsns, lsns);
    assert_eq!(
        set_state(&reopened),
        twin_state("garbled-shard-twin", &batches)
    );
    // The repaired log reopens as it is.
    drop(reopened);
    assert_eq!(set_state(&reopen_set(&dir)).1, lsns);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_set_directory_without_a_coordinator_log_reopens_and_starts_one() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    let (dir, mut set) = crash_set("legacy-set");
    set.commit(&insert_batch(0)).expect("commit");
    drop(set);
    // A directory written before the coordinator log existed: shard logs
    // and snapshots only.
    let coordinator = dir.join("coordinator.wal");
    std::fs::remove_file(&coordinator).expect("remove");
    let mut reopened = reopen_set(&dir);
    assert!(coordinator.exists(), "reopen starts a coordinator log");
    assert_eq!(
        set_state(&reopened),
        twin_state("legacy-twin", &[insert_batch(0)])
    );
    reopened.commit(&probe_batch()).expect("commit");
    drop(reopened);
    assert_eq!(
        set_state(&reopen_set(&dir)),
        twin_state("legacy-twin-with", &[insert_batch(0), probe_batch()])
    );
    std::fs::remove_dir_all(&dir).ok();
}
