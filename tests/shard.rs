//! Shard identity suite: the scatter-gather engine over N hash shards must
//! be **bit-identical** to the unsharded engine over the union of the
//! shards — same SQL text, same score bits, same ranking order, same
//! postings and statistics — for every shard count, dataset, seed,
//! feedback epoch, and mutation interleaving below. Sharding is a physical
//! layout decision; it must never be observable in an answer.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use quest::prelude::*;
use quest::shard::ShardedStore;
use quest::store::index::TokenPartial;
use quest::store::stats::JoinStats;

/// The failpoint registry is process-global: every test here that commits
/// through a `ShardedPrimary` (whose commit path can consume an armed
/// `shard.commit` hit) serializes on this lock.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("quest-shard-integration")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn imdb_db(seed: u64) -> Database {
    quest::data::imdb::generate(&quest::data::imdb::ImdbScale { movies: 150, seed })
        .expect("imdb generates")
}

fn dblp_db() -> Database {
    quest::data::dblp::generate(&quest::data::dblp::DblpScale::with_publications(120))
        .expect("dblp generates")
}

fn shard_config(n: usize) -> quest::shard::ShardConfig {
    quest::shard::ShardConfig {
        shard_count: n,
        parallel: true,
    }
}

fn unsharded(db: &Database) -> CachedEngine<FullAccessWrapper> {
    CachedEngine::new(
        Quest::new(FullAccessWrapper::new(db.clone()), QuestConfig::default())
            .expect("unsharded engine builds"),
    )
}

fn sharded(db: &Database, shards: usize) -> ScatterGather {
    ScatterGather::new(db, &shard_config(shards), QuestConfig::default())
        .expect("sharded engine builds")
}

/// Bit-exact fingerprints of an outcome list: SQL text + score bits, in
/// ranking order. Equality of two fingerprint vectors is the identity
/// criterion from the issue: SQL text, score bits, and ranking order.
fn fingerprints(
    queries: &[String],
    search: impl Fn(&str) -> Result<SearchOutcome, QuestError>,
    catalog: &Catalog,
) -> Vec<(String, Vec<(String, u64)>)> {
    queries
        .iter()
        .map(|raw| {
            let prints = match search(raw) {
                Ok(out) => out
                    .explanations
                    .iter()
                    .map(|e| (e.sql(catalog), e.score.to_bits()))
                    .collect(),
                Err(_) => Vec::new(),
            };
            (raw.clone(), prints)
        })
        .collect()
}

fn imdb_queries() -> Vec<String> {
    let mut queries: Vec<String> = quest::data::imdb::workload()
        .iter()
        .take(5)
        .map(|wq| wq.raw.clone())
        .collect();
    queries.push("casablanca director".into());
    queries.push("gone wind".into());
    queries
}

fn dblp_queries() -> Vec<String> {
    quest::data::dblp::workload()
        .iter()
        .take(5)
        .map(|wq| wq.raw.clone())
        .collect()
}

/// A table's live rows as a sorted multiset (shard- and slot-order free).
fn sorted_rows(db: &Database, table: quest::store::TableId) -> Vec<&[Value]> {
    let mut rows: Vec<&[Value]> = db
        .table_data(table)
        .iter()
        .map(|(_, r)| r.values())
        .collect();
    rows.sort();
    rows
}

/// Merged postings + statistics identity, token by token: for every
/// attribute, the union of per-shard vocabularies equals the unsharded
/// vocabulary, per-token `df` is the *sum* of shard partials and `max_tf`
/// the *max* (the integer merge laws), the gathered rows of every table
/// equal the unsharded table's as a sorted multiset, and the merged join
/// statistics equal the unsharded ones bit for bit.
fn assert_postings_and_stats_identical(store: &ShardedStore, whole: &Database) {
    let gathered = store.gather().expect("shards gather");
    for table in whole.catalog().tables() {
        assert_eq!(
            sorted_rows(&gathered, table.id),
            sorted_rows(whole, table.id),
            "rows of {} diverged",
            table.name
        );
    }
    for attr in whole.catalog().attributes() {
        let Some(whole_index) = whole.index(attr.id) else {
            continue;
        };
        let mut vocab: Vec<String> = (0..store.shard_count())
            .filter_map(|s| store.shard(s).index(attr.id))
            .flat_map(|idx| idx.live_tokens().into_iter().map(str::to_string))
            .collect();
        vocab.sort();
        vocab.dedup();
        let mut whole_vocab: Vec<String> = whole_index
            .live_tokens()
            .into_iter()
            .map(str::to_string)
            .collect();
        whole_vocab.sort();
        assert_eq!(
            vocab,
            whole_vocab,
            "vocabulary union diverged on {}",
            whole.catalog().qualified_name(attr.id)
        );
        for token in &vocab {
            let merged = (0..store.shard_count())
                .filter_map(|s| store.shard(s).index(attr.id))
                .map(|idx| idx.token_partial(token))
                .fold(TokenPartial::default(), |acc, p| TokenPartial {
                    df: acc.df + p.df,
                    max_tf: acc.max_tf.max(p.max_tf),
                });
            let reference = whole_index.token_partial(token);
            assert_eq!(merged.df, reference.df, "df sum diverged for {token:?}");
            assert_eq!(
                merged.max_tf, reference.max_tf,
                "max_tf diverged for {token:?}"
            );
        }
    }
    for fk in whole.catalog().foreign_keys() {
        let merged = store.fk_stats(*fk).expect("merged join stats");
        let reference = whole.fk_stats(*fk).expect("whole join stats");
        assert_eq!(merged.pairs, reference.pairs);
        assert_eq!(merged.referenced_distinct, reference.referenced_distinct);
        assert_eq!(merged.referencing_rows, reference.referencing_rows);
        assert_eq!(merged.referenced_rows, reference.referenced_rows);
        assert_eq!(
            merged.nmi.to_bits(),
            reference.nmi.to_bits(),
            "join NMI bits diverged"
        );
    }
}

/// Every foreign key's merged join statistics, in catalog order.
fn all_fk_stats(store: &ShardedStore) -> Vec<JoinStats> {
    let fks = store.catalog().foreign_keys();
    fks.iter()
        .map(|fk| store.fk_stats(*fk).expect("merged join stats").clone())
        .collect()
}

/// Bit equality of two statistics lists: all five fields, NMI bits too.
fn assert_fk_stats_bitwise(got: &[JoinStats], want: &[JoinStats], what: &str) {
    assert_eq!(got, want, "{what}");
    let bits = |s: &[JoinStats]| s.iter().map(|j| j.nmi.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(want), "{what}: NMI bits");
}

/// Per-record accept/reject parity: applied counts, rejected indices, and
/// the exact error strings.
fn assert_reports_match(sharded: &quest::serve::ApplyReport, whole: &quest::serve::ApplyReport) {
    assert_eq!(sharded.applied, whole.applied, "applied counts diverged");
    let project = |r: &quest::serve::ApplyReport| -> Vec<(usize, String)> {
        r.rejected
            .iter()
            .map(|(i, e)| (*i, e.to_string()))
            .collect()
    };
    assert_eq!(project(sharded), project(whole), "rejections diverged");
}

/// Mutation rounds with fresh inserts, a full-text retitle, a delete, a
/// dangling-FK poison record (must be rejected on both sides with the same
/// message), and a cross-partition PK move.
fn mutation_batches(db: &Database) -> Vec<Vec<ChangeRecord>> {
    let movie = db.catalog().table_id("movie").expect("movie");
    let movie_row = db.table_data(movie).iter().next().expect("a movie").1;
    let mut retitled = movie_row.values().to_vec();
    retitled[1] = "Sharded Horizons".into();
    retitled[3] = (0.1f64 + 0.2).into();
    vec![
        vec![
            ChangeRecord::Insert {
                table: "person".into(),
                row: vec![900_001.into(), "Norma Desmond".into(), 1899.into()],
            },
            ChangeRecord::Insert {
                table: "movie".into(),
                row: vec![
                    900_002.into(),
                    "Scatter Boulevard".into(),
                    1950.into(),
                    8.5.into(),
                    900_001.into(),
                ],
            },
            // Poison: dangling FK. Both sides must reject with one message.
            ChangeRecord::Insert {
                table: "movie".into(),
                row: vec![
                    900_003.into(),
                    "Dangling".into(),
                    2000.into(),
                    Value::Null,
                    777_777.into(),
                ],
            },
        ],
        vec![
            ChangeRecord::Update {
                table: "movie".into(),
                key: vec![movie_row.get(0).clone()],
                row: retitled,
            },
            // PK move: almost certainly a cross-shard migration at N > 1.
            ChangeRecord::Update {
                table: "movie".into(),
                key: vec![900_002.into()],
                row: vec![
                    900_004.into(),
                    "Scatter Boulevard".into(),
                    1950.into(),
                    8.5.into(),
                    900_001.into(),
                ],
            },
        ],
        vec![
            ChangeRecord::Insert {
                table: "movie".into(),
                row: vec![
                    900_005.into(),
                    "Ephemeral Partition".into(),
                    2001.into(),
                    Value::Null,
                    Value::Null,
                ],
            },
            ChangeRecord::Delete {
                table: "movie".into(),
                key: vec![900_005.into()],
            },
            // Duplicate key: second rejection flavor.
            ChangeRecord::Insert {
                table: "person".into(),
                row: vec![900_001.into(), "Norma Again".into(), 1899.into()],
            },
        ],
    ]
}

// ---------------------------------------------------------------------------
// 1. Pure-search identity: shard counts × datasets × seeds.
// ---------------------------------------------------------------------------

#[test]
fn sharded_search_is_bit_identical_across_shard_counts_datasets_and_seeds() {
    let cases: Vec<(&str, Database, Vec<String>)> = vec![
        ("imdb/seed42", imdb_db(42), imdb_queries()),
        ("imdb/seed7", imdb_db(7), imdb_queries()),
        ("dblp", dblp_db(), dblp_queries()),
    ];
    for (name, db, queries) in &cases {
        let whole = unsharded(db);
        let reference = fingerprints(queries, |raw| whole.search(raw), db.catalog());
        for shards in [1usize, 2, 4, 8, 16] {
            let gather = sharded(db, shards);
            assert_eq!(gather.shard_count(), shards);
            assert_eq!(
                fingerprints(queries, |raw| gather.search(raw), db.catalog()),
                reference,
                "{name}: {shards}-shard ranking diverged from unsharded"
            );
            {
                let guard = gather.engine().engine();
                assert_postings_and_stats_identical(guard.wrapper().store(), db);
            }
            assert_eq!(gather.stats().shards, shards);
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Mutation interleavings: apply-report parity + identity after each batch.
// ---------------------------------------------------------------------------

#[test]
fn mutation_interleavings_preserve_identity_and_reports() {
    let db = imdb_db(42);
    let queries = {
        let mut q = imdb_queries();
        q.push("scatter boulevard".into());
        q.push("sharded horizons".into());
        q
    };
    for shards in [2usize, 4, 8, 16] {
        let whole = unsharded(&db);
        let gather = sharded(&db, shards);
        let mut total_rejected = 0usize;
        for batch in mutation_batches(&db) {
            let whole_report = whole.apply(&batch).expect("unsharded apply");
            let shard_report = gather.apply(&batch).expect("sharded apply");
            assert_reports_match(&shard_report, &whole_report);
            total_rejected += shard_report.rejected.len();
            let guard = whole.engine();
            assert_eq!(
                fingerprints(
                    &queries,
                    |raw| gather.search(raw),
                    guard.wrapper().catalog()
                ),
                fingerprints(&queries, |raw| whole.search(raw), guard.wrapper().catalog()),
                "{shards}-shard identity broke mid-interleaving"
            );
            {
                let shard_guard = gather.engine().engine();
                assert_postings_and_stats_identical(
                    shard_guard.wrapper().store(),
                    guard.wrapper().database(),
                );
            }
        }
        // At least one poison record really was rejected on both sides.
        assert!(total_rejected > 0);
    }
}

// ---------------------------------------------------------------------------
// 3. Feedback epochs: supervised updates + EM refinement on both sides.
// ---------------------------------------------------------------------------

#[test]
fn feedback_epochs_preserve_identity() {
    let db = imdb_db(42);
    let queries = imdb_queries();
    let wl = quest::data::imdb::workload();
    let whole = unsharded(&db);
    let gather = sharded(&db, 4);
    let mut oracle = quest::data::FeedbackOracle::new(0.2, 21);
    for round in 0..3 {
        let feedback: Vec<(Configuration, bool)> = wl
            .iter()
            .take(3 + round)
            .map(|wq| oracle.feedback_for(db.catalog(), wq))
            .collect();
        for (cfg, positive) in &feedback {
            whole
                .engine()
                .feedback_configuration(cfg, *positive)
                .expect("unsharded feedback records");
            gather
                .engine()
                .engine()
                .feedback_configuration(cfg, *positive)
                .expect("sharded feedback records");
        }
        if round == 1 {
            let a = whole.engine().refine_feedback_model(3).expect("EM refines");
            let b = gather
                .engine()
                .engine()
                .refine_feedback_model(3)
                .expect("EM refines");
            assert_eq!(a, b, "EM iteration counts diverged");
        }
        assert_eq!(
            whole.engine().feedback_epoch(),
            gather.engine().engine().feedback_epoch()
        );
        assert_eq!(
            fingerprints(&queries, |raw| gather.search(raw), db.catalog()),
            fingerprints(&queries, |raw| whole.search(raw), db.catalog()),
            "feedback round {round}: sharded ranking diverged"
        );
    }
}

// ---------------------------------------------------------------------------
// 4. Rebalance: n → m keeps searches, postings, and stats bit-identical.
// ---------------------------------------------------------------------------

#[test]
fn rebalance_preserves_search_identity() {
    let db = imdb_db(42);
    let queries = imdb_queries();
    let whole = unsharded(&db);
    let reference = fingerprints(&queries, |raw| whole.search(raw), db.catalog());
    let store = ShardedStore::from_database(&db, &shard_config(2)).expect("store builds");
    for target in [1usize, 4, 8] {
        let rebalanced = store.rebalance(&shard_config(target)).expect("rebalance");
        rebalanced.validate().expect("placement + RI hold");
        assert_postings_and_stats_identical(&rebalanced, &db);
        let gather = ScatterGather::from_store(rebalanced, QuestConfig::default())
            .expect("rebalanced engine builds");
        assert_eq!(
            fingerprints(&queries, |raw| gather.search(raw), db.catalog()),
            reference,
            "rebalance to {target} shards changed an answer"
        );
    }
}

// ---------------------------------------------------------------------------
// 5. ShardedPrimary: WAL-backed commits, LSN vector, reopen, replicas.
// ---------------------------------------------------------------------------

#[test]
fn sharded_primary_commits_recover_and_feed_replicas() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = temp_dir("primary");
    let db = imdb_db(42);
    let queries = {
        let mut q = imdb_queries();
        q.push("scatter boulevard".into());
        q
    };
    let whole = unsharded(&db);
    let mut primary =
        ShardedPrimary::open(&dir, db.clone(), &shard_config(3), QuestConfig::default())
            .expect("sharded primary opens");

    for batch in mutation_batches(&db) {
        let whole_report = whole.apply(&batch).expect("unsharded apply");
        let receipt = primary.commit(&batch).expect("sharded commit");
        assert_reports_match(&receipt.report, &whole_report);
        assert_eq!(receipt.lsns.len(), 3);
        assert_eq!(
            fingerprints(
                &queries,
                |raw| primary.search(raw).map_err(|e| match e {
                    quest::shard::ShardError::Engine(e) => e,
                    other => panic!("unexpected error {other}"),
                }),
                db.catalog()
            ),
            fingerprints(&queries, |raw| whole.search(raw), db.catalog()),
            "sharded primary diverged from unsharded engine mid-commit"
        );
    }

    // One fenced-then-healed commit: the gateway's store applies the batch,
    // the first shard handed records fails its append permanently and is
    // fenced with them pending, and supervision re-drives them into its log.
    primary.set_recovery(
        RetryPolicy {
            retries: 1,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(1),
            jitter_seed: 1,
        },
        Arc::new(ManualClock::new()),
    );
    quest::fault::install("shard.commit@1=append_error!".parse().expect("plan parses"));
    let fenced = primary.commit(&[
        ChangeRecord::Insert {
            table: "person".into(),
            row: vec![900_101.into(), "Fenced Mentor".into(), 1901.into()],
        },
        ChangeRecord::Insert {
            table: "movie".into(),
            row: vec![
                900_102.into(),
                "Fenced Feature".into(),
                1931.into(),
                7.0.into(),
                900_101.into(),
            ],
        },
        ChangeRecord::Delete {
            table: "movie".into(),
            key: vec![900_004.into()],
        },
    ]);
    quest::fault::clear();
    assert!(
        matches!(fenced, Err(quest::shard::ShardError::ShardDown { .. })),
        "{fenced:?}"
    );
    assert_eq!(primary.supervise(), 1, "the fenced shard heals");
    // The live counts followed the store through the stream and the fence:
    // the statistics they derive equal a cold `join_stats` over the same
    // rows, bit for bit (and a cold reopen, checked below).
    let live = {
        let guard = primary.gateway().engine().engine();
        let store = guard.wrapper().store();
        let cold = store.gather().expect("shards gather");
        let live = all_fk_stats(store);
        let rescanned: Vec<JoinStats> = cold
            .catalog()
            .foreign_keys()
            .iter()
            .map(|fk| cold.fk_stats(*fk).expect("cold join stats").clone())
            .collect();
        assert_fk_stats_bitwise(&live, &rescanned, "live counts vs cold rescan");
        live
    };
    primary.sync().expect("group fsync");
    let topo = primary.topology();
    assert!(topo.is_healthy());
    assert_eq!(topo.shard_count, 3);
    // LSN sequences are per shard: only shards that were routed records
    // advanced, and at least one did.
    assert!(topo.lsns.iter().any(|&l| l > 0), "lsns: {:?}", topo.lsns);

    // The logs are the only durable witness of the store's rows: each
    // shard's LSN-0 snapshot plus its whole log must replay to that shard
    // of the gateway's store slot by slot, tombstones included.
    {
        let gateway_guard = primary.gateway().engine().engine();
        let store = gateway_guard.wrapper().store();
        for i in 0..3 {
            let log = primary.shard(i);
            let replayed = quest::wal::recover(&log.snapshot_path(), &log.wal_path())
                .expect("shard log recovers")
                .db;
            for table in store.shard(i).catalog().tables() {
                assert!(
                    replayed
                        .table_data(table.id)
                        .slots()
                        .eq(store.shard(i).table_data(table.id).slots()),
                    "shard {i} table {} replays to different slots",
                    table.name
                );
            }
        }
    }

    // A stock per-shard replica bootstraps from one shard's log and
    // converges to the gateway's copy of that shard, bit for bit.
    let snapshot_lsns = primary.publish_snapshots().expect("snapshots publish");
    let log = primary.shard(0);
    let replica = Replica::bootstrap(
        "r0",
        &log.snapshot_path(),
        &log.wal_path(),
        QuestConfig::default(),
    )
    .expect("replica bootstraps");
    assert_eq!(replica.applied_lsn(), snapshot_lsns[0]);
    replica.sync().expect("replica drains");
    assert_eq!(replica.applied_lsn(), topo.lsns[0]);
    {
        let replica_guard = replica.engine().engine();
        let gateway_guard = primary.gateway().engine().engine();
        let shard0 = gateway_guard.wrapper().store().shard(0);
        for attr in shard0.catalog().attributes() {
            assert_eq!(
                replica_guard.wrapper().database().index(attr.id),
                shard0.index(attr.id)
            );
        }
    }

    // Reopen from disk: every shard recovers, the LSN vector continues,
    // and the gateway answers exactly as before.
    let before = fingerprints(&queries, |raw| primary.gateway().search(raw), db.catalog());
    let lsns_before = primary.topology().lsns;
    drop(primary);
    let reopened = ShardedPrimary::reopen(
        &dir,
        db.catalog().clone(),
        &shard_config(3),
        QuestConfig::default(),
    )
    .expect("sharded primary reopens");
    assert_eq!(reopened.topology().lsns, lsns_before);
    assert_eq!(
        fingerprints(&queries, |raw| reopened.gateway().search(raw), db.catalog()),
        before,
        "recovery changed an answer"
    );
    assert_fk_stats_bitwise(
        &all_fk_stats(reopened.gateway().engine().engine().wrapper().store()),
        &live,
        "reopen rebuilt different counts than the live ones",
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn topology_health_is_purely_observational() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = temp_dir("health");
    let db = imdb_db(42);
    let queries = imdb_queries();
    let mut primary =
        ShardedPrimary::open(&dir, db.clone(), &shard_config(3), QuestConfig::default())
            .expect("sharded primary opens");
    for batch in mutation_batches(&db) {
        primary.commit(&batch).expect("sharded commit");
    }
    let search = |p: &ShardedPrimary| {
        fingerprints(
            &queries,
            |raw| {
                p.search(raw).map_err(|e| match e {
                    quest::shard::ShardError::Engine(e) => e,
                    other => panic!("unexpected error {other}"),
                })
            },
            db.catalog(),
        )
    };
    let before = search(&primary);

    // Grade against a zero-tolerance spec: routed batches land unevenly,
    // so the shards' independent LSN sequences skew and the verdict is
    // unhealthy — but grading is a pure read. The set still serves, the
    // answers are still bit-identical, and the fencing state is untouched.
    let spec = quest::obs::SloSpec {
        max_lag: Some(0),
        ..Default::default()
    };
    let topo = primary.topology();
    let report = topo.health(&spec);
    if topo.lsns.iter().max() != topo.lsns.iter().min() {
        assert_ne!(report.status, quest::obs::HealthStatus::Healthy);
        assert!(
            report.reasons.iter().any(|r| r.contains("lag")),
            "{report:?}"
        );
    }
    assert!(primary.is_healthy(), "grading must not fence");
    assert_eq!(search(&primary), before, "grading changed an answer");

    // A permissive spec over the same topology is healthy; fencing a
    // shard turns any verdict critical with the shard named — and the
    // report is still just a value, not a state change.
    assert_eq!(
        topo.health(&quest::obs::SloSpec::default()).status,
        quest::obs::HealthStatus::Healthy
    );
    primary.fence(1, "drill");
    let report = primary.topology().health(&quest::obs::SloSpec::default());
    assert_eq!(report.status, quest::obs::HealthStatus::Critical);
    assert!(
        report.reasons.iter().any(|r| r.contains("shard 1 fenced")),
        "{report:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// 6. Config validation regression: zero shards rejected everywhere.
// ---------------------------------------------------------------------------

#[test]
fn zero_shard_count_is_rejected_everywhere() {
    // ShardConfig, the partitioning knob.
    let err = quest::shard::ShardConfig::new(0)
        .validate()
        .expect_err("0 rejected");
    assert!(err.to_string().contains("shard_count = 0"), "{err}");
    assert!(err.to_string().contains("valid range"), "{err}");

    // QuestConfig rejects the same failure shape: a result limit of zero.
    let bad = QuestConfig {
        result_limit: Some(0),
        ..QuestConfig::default()
    };
    let err = Quest::new(FullAccessWrapper::new(imdb_db(42)), bad).expect_err("Some(0) rejected");
    assert!(err.to_string().contains("result_limit"), "{err}");

    // And the sane path still works at the boundary: one shard is legal.
    quest::shard::ShardConfig::new(1)
        .validate()
        .expect("1 is unsharded");
}
