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
            ..Default::default()
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
    let shards = quest::shard::ShardConfig {
        shard_count,
        parallel: true,
    };
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
    let (_primary, set) = set_with_broken_replica(&dir, &clock);
    // The first tick quarantines the slot (charging the gauge) and probes.
    let uncharged = fault::quarantined("replica").value();
    let site = fault::sites::REPLICA_BOOTSTRAP;
    assert_escalates_on_budget("replica", site, uncharged, &clock, || set.supervise());
    assert!(!set.replicas()[0].is_healthy());
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
    let shards = quest::shard::ShardConfig {
        shard_count: 2,
        parallel: true,
    };
    let reopened = ShardedPrimary::reopen(&dir, catalog.clone(), &shards, QuestConfig::default())
        .expect("healed directory reopens");
    assert_eq!(answers(&reopened), live);
    std::fs::remove_dir_all(&dir).ok();
}
