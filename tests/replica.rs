//! Replication determinism and routing-consistency suite.
//!
//! The contract under test: a replica at LSN `L` is indistinguishable — SQL
//! text, score *bits*, index postings, statistics — from a cold engine
//! built by replaying the first `L` WAL records onto the initial database.
//! That must hold at every checkpoint, across replica crash + re-bootstrap
//! from a newer snapshot, and under concurrent mutation. And the router's
//! LSN-bounded policy must never serve a query from a replica behind the
//! query's minimum LSN.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use quest::prelude::*;
use quest::wal::{read_log, replay};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("quest-replica-integration")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn imdb_db() -> Database {
    quest::data::imdb::generate(&quest::data::imdb::ImdbScale {
        movies: 150,
        seed: 42,
    })
    .expect("imdb generates")
}

/// Commit batches with fresh inserts, an update, a delete, and (round 2) a
/// poison record the primary rejects — so replicas must re-reject it too.
fn commit_batches(db: &Database) -> Vec<Vec<ChangeRecord>> {
    let movie = db.catalog().table_id("movie").expect("movie");
    let movie_row = db.table_data(movie).iter().next().expect("a movie").1;
    let mut retitled = movie_row.values().to_vec();
    retitled[1] = "Replicated Horizons".into();
    retitled[3] = (0.1f64 + 0.2).into(); // decimal-inexact rating
    vec![
        vec![
            ChangeRecord::Insert {
                table: "person".into(),
                row: vec![800_001.into(), "Joe Gillis".into(), 1917.into()],
            },
            ChangeRecord::Insert {
                table: "movie".into(),
                row: vec![
                    800_002.into(),
                    "Sunset Replicated".into(),
                    1950.into(),
                    8.5.into(),
                    800_001.into(),
                ],
            },
        ],
        vec![
            ChangeRecord::Update {
                table: "movie".into(),
                key: vec![movie_row.get(0).clone()],
                row: retitled,
            },
            // Poison: dangling FK, rejected at the primary, logged anyway.
            ChangeRecord::Insert {
                table: "movie".into(),
                row: vec![
                    800_003.into(),
                    "Dangling".into(),
                    2000.into(),
                    Value::Null,
                    999_999.into(),
                ],
            },
        ],
        vec![
            ChangeRecord::Insert {
                table: "movie".into(),
                row: vec![
                    800_004.into(),
                    "Ephemeral".into(),
                    2001.into(),
                    Value::Null,
                    Value::Null,
                ],
            },
            ChangeRecord::Delete {
                table: "movie".into(),
                key: vec![800_004.into()],
            },
        ],
    ]
}

fn probe_queries() -> Vec<String> {
    let mut queries: Vec<String> = quest::data::imdb::workload()
        .iter()
        .take(4)
        .map(|wq| wq.raw.clone())
        .collect();
    queries.extend(
        ["sunset replicated", "replicated horizons", "joe gillis"]
            .iter()
            .map(|s| s.to_string()),
    );
    queries
}

/// Bit-exact fingerprints of an outcome list: SQL text + score bits.
fn fingerprints(
    search: impl Fn(&str) -> Result<SearchOutcome, QuestError>,
    catalog: &Catalog,
) -> Vec<(String, Vec<(String, u64)>)> {
    probe_queries()
        .into_iter()
        .map(|raw| {
            let prints = match search(&raw) {
                Ok(out) => out
                    .explanations
                    .iter()
                    .map(|e| (e.sql(catalog), e.score.to_bits()))
                    .collect(),
                Err(_) => Vec::new(),
            };
            (raw, prints)
        })
        .collect()
}

/// Index/join-statistics/slot-by-slot row identity — stronger than query equality.
fn assert_structurally_identical(a: &Database, b: &Database) {
    for attr in a.catalog().attributes() {
        assert_eq!(
            a.index(attr.id),
            b.index(attr.id),
            "inverted index of {} diverged",
            a.catalog().qualified_name(attr.id)
        );
    }
    for fk in a.catalog().foreign_keys() {
        assert_eq!(a.fk_stats(*fk), b.fk_stats(*fk));
    }
    for table in a.catalog().tables() {
        let (a, b) = (a.table_data(table.id), b.table_data(table.id));
        assert!(a.slots().eq(b.slots()), "slots of {} diverged", table.name);
    }
}

/// A cold engine built from the initial database plus the first `lsn` WAL
/// records — the reference every replica state is measured against.
fn cold_engine_at(
    initial: &Database,
    wal_path: &std::path::Path,
    lsn: u64,
) -> Quest<FullAccessWrapper> {
    let log = read_log(wal_path, initial.catalog()).expect("log reads");
    let prefix: Vec<(u64, ChangeRecord)> = log
        .records
        .into_iter()
        .filter(|(seq, _)| *seq <= lsn)
        .collect();
    let mut db = initial.clone();
    replay(&mut db, &prefix, 0).expect("replay applies");
    db.validate().expect("cold reference validates");
    Quest::new(FullAccessWrapper::new(db), QuestConfig::default()).expect("cold engine builds")
}

#[test]
fn replica_at_lsn_l_matches_cold_engine_from_first_l_records() {
    let dir = temp_dir("bitwise");
    let initial = imdb_db();
    let primary = Primary::open(&dir, initial.clone(), QuestConfig::default()).expect("primary");
    let replica = Replica::from_primary("r1", &primary).expect("replica bootstraps");

    for batch in commit_batches(&initial) {
        let receipt = primary.commit(&batch).expect("commit");
        let report = replica.sync_to(receipt.last_lsn).expect("replica syncs");
        assert_eq!(report.lsn, receipt.last_lsn);
        let lsn = replica.applied_lsn();

        let cold = cold_engine_at(&initial, &primary.wal_path(), lsn);
        {
            let guard = replica.engine().engine();
            assert_structurally_identical(guard.wrapper().database(), cold.wrapper().database());
        }
        assert_eq!(
            fingerprints(|raw| replica.search(raw), initial.catalog()),
            fingerprints(|raw| cold.search(raw), initial.catalog()),
            "replica at lsn {lsn} must answer bit-identically to the cold engine"
        );
    }
    // The poison record was really exercised: one rejection re-applied.
    let stats = replica.stats();
    assert_eq!(stats.watermark, primary.last_lsn());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crashed_replica_rebootstraps_from_a_newer_snapshot_bit_identically() {
    let dir = temp_dir("rebootstrap");
    let initial = imdb_db();
    let primary = Primary::open(&dir, initial.clone(), QuestConfig::default()).expect("primary");
    let batches = commit_batches(&initial);

    // First replica follows the first commit, then "crashes" (dropped).
    let replica = Replica::from_primary("r1", &primary).expect("replica bootstraps");
    let receipt = primary.commit(&batches[0]).expect("commit");
    replica.sync_to(receipt.last_lsn).expect("sync");
    drop(replica);

    // The primary moves on and publishes a newer snapshot mid-history.
    primary.commit(&batches[1]).expect("commit");
    let snapshot_lsn = primary.publish_snapshot().expect("snapshot");
    assert!(snapshot_lsn > receipt.last_lsn);
    let receipt = primary.commit(&batches[2]).expect("commit");

    // The replacement bootstraps from the newer snapshot: it starts at the
    // snapshot LSN (no re-replay of the prefix) and converges bitwise.
    let replacement = Replica::from_primary("r2", &primary).expect("re-bootstrap");
    assert_eq!(replacement.applied_lsn(), snapshot_lsn);
    let report = replacement.sync_to(receipt.last_lsn).expect("catch up");
    assert_eq!(report.lsn, primary.last_lsn());

    let cold = cold_engine_at(&initial, &primary.wal_path(), report.lsn);
    {
        let guard = replacement.engine().engine();
        assert_structurally_identical(guard.wrapper().database(), cold.wrapper().database());
    }
    assert_eq!(
        fingerprints(|raw| replacement.search(raw), initial.catalog()),
        fingerprints(|raw| cold.search(raw), initial.catalog()),
        "re-bootstrapped replica must answer bit-identically to the cold engine"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replicas_converge_under_concurrent_mutation_and_reads() {
    let dir = temp_dir("concurrent");
    let initial = imdb_db();
    let primary =
        Arc::new(Primary::open(&dir, initial.clone(), QuestConfig::default()).expect("primary"));
    let mut set = ReplicaSet::new(Arc::clone(&primary), RoutingPolicy::RoundRobin);
    let replicas = [
        set.spawn_replica("r1").expect("r1"),
        set.spawn_replica("r2").expect("r2"),
    ];

    // Replication daemons: one sync loop per replica until shutdown.
    let stop = Arc::new(AtomicBool::new(false));
    let daemons: Vec<_> = replicas
        .iter()
        .map(|replica| {
            let replica = Arc::clone(replica);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    replica.sync().expect("sync keeps working");
                    std::thread::yield_now();
                }
            })
        })
        .collect();

    // Writer: commit every batch while reads hammer the router.
    let writer = {
        let primary = Arc::clone(&primary);
        let batches = commit_batches(&initial);
        std::thread::spawn(move || {
            for batch in batches {
                primary.commit(&batch).expect("commit");
            }
        })
    };
    // (No upper bound on routed.lsn here: a replica that tails the shared
    // log may apply a batch in the window between the primary's append and
    // its last_lsn publish, so it can legitimately run briefly "ahead".)
    for raw in probe_queries().iter().cycle().take(40) {
        let routed = set.query(raw, Consistency::Eventual).expect("routes");
        assert!(!routed.served_by.is_empty());
    }
    writer.join().expect("writer finishes");

    // Read-your-writes against the final LSN, while daemons still run.
    let last = primary.last_lsn();
    for raw in probe_queries().iter().take(4) {
        let routed = set.query(raw, Consistency::AtLeast(last)).expect("routes");
        assert!(
            routed.lsn >= last,
            "served at {} < bound {last}",
            routed.lsn
        );
    }
    stop.store(true, Ordering::Release);
    for daemon in daemons {
        daemon.join().expect("daemon exits cleanly");
    }

    // Both replicas converged to the cold reference at the final LSN.
    for replica in &replicas {
        replica.sync().expect("final drain");
        assert_eq!(replica.applied_lsn(), last);
        let cold = cold_engine_at(&initial, &primary.wal_path(), last);
        {
            let guard = replica.engine().engine();
            assert_structurally_identical(guard.wrapper().database(), cold.wrapper().database());
        }
        assert_eq!(
            fingerprints(|raw| replica.search(raw), initial.catalog()),
            fingerprints(|raw| cold.search(raw), initial.catalog()),
            "{} must converge bitwise",
            replica.name()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lsn_bounded_routing_never_serves_below_the_bound() {
    let dir = temp_dir("routing");
    let initial = imdb_db();
    let primary =
        Arc::new(Primary::open(&dir, initial.clone(), QuestConfig::default()).expect("primary"));
    let mut set = ReplicaSet::new(Arc::clone(&primary), RoutingPolicy::RoundRobin);
    let stale = set.spawn_replica("stale").expect("stale");
    let fresh = set.spawn_replica("fresh").expect("fresh");

    let receipt = primary
        .commit(&commit_batches(&initial)[0])
        .expect("commit");
    fresh.sync_to(receipt.last_lsn).expect("fresh catches up");
    assert_eq!(stale.applied_lsn(), 0, "stale replica stays behind");

    // Every bounded query must come from a server at or past the bound —
    // and since an eligible replica exists, the stale one is never asked
    // (its LSN stays frozen).
    for _ in 0..10 {
        let routed = set
            .query("sunset replicated", Consistency::AtLeast(receipt.last_lsn))
            .expect("routes");
        assert!(routed.lsn >= receipt.last_lsn, "{routed:?}");
        assert_eq!(routed.served_by, "fresh");
    }
    assert_eq!(stale.applied_lsn(), 0, "stale replica was never consulted");

    // Eventual reads still rotate over both, each stamped with its LSN.
    let mut saw_stale = false;
    for _ in 0..4 {
        let routed = set
            .query("casablanca", Consistency::Eventual)
            .expect("routes");
        if routed.served_by == "stale" {
            saw_stale = true;
            assert_eq!(routed.lsn, 0);
        }
    }
    assert!(
        saw_stale,
        "round-robin uses the stale replica for eventual reads"
    );

    // A bound past the primary's LSN is unsatisfiable, loudly.
    assert!(matches!(
        set.query("casablanca", Consistency::AtLeast(primary.last_lsn() + 1)),
        Err(ReplicaError::Lagging { .. })
    ));
    std::fs::remove_dir_all(&dir).ok();
}
