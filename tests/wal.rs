//! Crash-recovery determinism: for a scripted mutation+query workload,
//! snapshot + WAL-suffix replay must reproduce a `Database` whose query
//! results — SQL text and score *bits* — are identical to the uninterrupted
//! run, down to the inverted-index postings and statistics.

use std::path::PathBuf;

use quest::prelude::*;
use quest::wal::{read_log, recover, write_snapshot, WalWriter};

fn temp_path(name: &str, ext: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("quest-wal-integration");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{name}-{}.{ext}", std::process::id()))
}

fn imdb_db() -> Database {
    quest::data::imdb::generate(&quest::data::imdb::ImdbScale {
        movies: 150,
        seed: 42,
    })
    .expect("imdb generates")
}

/// The scripted mutation workload: inserts, updates (including bit-tricky
/// float ratings), and a delete, all through the checked mutation API.
fn mutation_script(db: &Database) -> Vec<ChangeRecord> {
    let movie = db.catalog().table_id("movie").expect("movie");
    let person = db.catalog().table_id("person").expect("person");
    // Two existing rows to update, read off the live instance.
    let movie_row = db.table_data(movie).iter().next().expect("a movie").1;
    let person_row = db.table_data(person).iter().next().expect("a person").1;
    let mut retitled = movie_row.values().to_vec();
    retitled[1] = "Recovered Horizons".into();
    retitled[3] = (0.1f64 + 0.2).into(); // rating: inexact in decimal
    let mut renamed = person_row.values().to_vec();
    renamed[1] = "Norma Desmond".into();
    vec![
        ChangeRecord::Insert {
            table: "person".into(),
            row: vec![700_001.into(), "Joe Gillis".into(), 1917.into()],
        },
        ChangeRecord::Insert {
            table: "movie".into(),
            row: vec![
                700_002.into(),
                "Sunset Revisited".into(),
                1950.into(),
                8.5.into(),
                700_001.into(),
            ],
        },
        ChangeRecord::Update {
            table: "movie".into(),
            key: vec![movie_row.get(0).clone()],
            row: retitled,
        },
        ChangeRecord::Update {
            table: "person".into(),
            key: vec![person_row.get(0).clone()],
            row: renamed,
        },
        ChangeRecord::Insert {
            table: "movie".into(),
            row: vec![
                700_003.into(),
                "Ephemeral".into(),
                2001.into(),
                Value::Null,
                Value::Null,
            ],
        },
        ChangeRecord::Delete {
            table: "movie".into(),
            key: vec![700_003.into()],
        },
    ]
}

/// Bit-exact query fingerprints over a mixed workload: generated queries
/// plus ones that only match post-mutation data.
fn query_fingerprints(db: &Database) -> Vec<(String, Vec<(String, u64)>)> {
    let engine = Quest::new(FullAccessWrapper::new(db.clone()), QuestConfig::default())
        .expect("engine builds");
    let mut queries: Vec<String> = quest::data::imdb::workload()
        .iter()
        .take(6)
        .map(|wq| wq.raw.clone())
        .collect();
    queries.extend(
        ["recovered horizons", "norma desmond", "sunset revisited"]
            .iter()
            .map(|s| s.to_string()),
    );
    queries
        .into_iter()
        .map(|raw| {
            let prints = match engine.search(&raw) {
                Ok(out) => out
                    .explanations
                    .iter()
                    .map(|e| (e.sql(engine.wrapper().catalog()), e.score.to_bits()))
                    .collect(),
                Err(_) => Vec::new(),
            };
            (raw, prints)
        })
        .collect()
}

/// Structural identity: indexes, join statistics and rows (slot by slot,
/// tombstones included) equal — stronger than query-level equality.
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
        let (x, y) = (a.fk_stats(*fk), b.fk_stats(*fk));
        assert_eq!(x, y);
        assert_eq!(x.map(|s| s.nmi.to_bits()), y.map(|s| s.nmi.to_bits()));
    }
    for table in a.catalog().tables() {
        let (a, b) = (a.table_data(table.id), b.table_data(table.id));
        assert!(a.slots().eq(b.slots()), "slots of {} diverged", table.name);
    }
}

/// `db`'s rows with their derived state built from scratch by the serial
/// setup phase: the cold rebuild a recovered database must equal.
fn cold_rebuild(db: &Database) -> Database {
    let mut cold = db.clone();
    cold.finalize_reference();
    cold
}

#[test]
fn snapshot_plus_wal_suffix_reproduces_the_uninterrupted_run() {
    let wal_path = temp_path("determinism", "wal");
    let snap_path = temp_path("determinism", "snap");
    let mut db = imdb_db();
    let script = mutation_script(&db);

    // Uninterrupted run: write-ahead, apply, snapshot mid-script.
    let snapshot_after = 3usize;
    let mut writer = WalWriter::open(&wal_path, db.catalog()).expect("wal opens");
    for (i, change) in script.iter().enumerate() {
        let seq = writer.append(change).expect("append");
        change.apply(&mut db).expect("apply");
        if i + 1 == snapshot_after {
            writer.sync().expect("sync");
            write_snapshot(&db, &snap_path, seq).expect("snapshot");
        }
    }
    writer.sync().expect("sync");
    db.validate().expect("uninterrupted instance is consistent");
    let expected = query_fingerprints(&db);

    // Crash here. Recover from snapshot + log suffix.
    let recovery = recover(&snap_path, &wal_path).expect("recovery succeeds");
    assert_eq!(recovery.applied, script.len() - snapshot_after);
    assert!(!recovery.torn_tail);
    recovery
        .db
        .validate()
        .expect("recovered instance is consistent");
    assert_structurally_identical(&db, &recovery.db);
    assert_eq!(
        query_fingerprints(&recovery.db),
        expected,
        "recovered query results must be bit-identical"
    );

    // Recovery is idempotent: running it again changes nothing.
    let again = recover(&snap_path, &wal_path).expect("second recovery");
    assert_structurally_identical(&recovery.db, &again.db);

    std::fs::remove_file(&wal_path).ok();
    std::fs::remove_file(&snap_path).ok();
}

#[test]
fn recovery_without_snapshot_replays_the_whole_log() {
    let wal_path = temp_path("fulllog", "wal");
    let snap_path = temp_path("fulllog", "snap");
    let mut db = imdb_db();
    // Snapshot the pristine database, then log the whole script.
    write_snapshot(&db, &snap_path, 0).expect("snapshot");
    let mut writer = WalWriter::open(&wal_path, db.catalog()).expect("wal opens");
    let script = mutation_script(&db);
    for change in &script {
        writer.append(change).expect("append");
        change.apply(&mut db).expect("apply");
    }
    writer.sync().expect("sync");

    let recovery = recover(&snap_path, &wal_path).expect("recovery succeeds");
    assert_eq!(recovery.applied, script.len());
    recovery
        .db
        .validate()
        .expect("recovered instance validates");
    assert_structurally_identical(&db, &recovery.db);

    std::fs::remove_file(&wal_path).ok();
    std::fs::remove_file(&snap_path).ok();
}

#[test]
fn live_rejected_records_replay_to_the_same_state() {
    // The write-ahead protocol logs records *before* applying them, so the
    // log legitimately contains records the live system rejected. Replay
    // must re-reject exactly those (rejections are deterministic) and
    // converge on the live state — one poison record must never make the
    // log unrecoverable.
    let wal_path = temp_path("rejected", "wal");
    let snap_path = temp_path("rejected", "snap");
    let db = imdb_db();
    write_snapshot(&db, &snap_path, 0).expect("snapshot");
    let mut writer = WalWriter::open(&wal_path, db.catalog()).expect("wal opens");

    let mut script = mutation_script(&db);
    // Poison records mid-stream: a dangling-FK insert and a restricted
    // delete, logged like everything else.
    script.insert(
        2,
        ChangeRecord::Insert {
            table: "movie".into(),
            row: vec![
                700_500.into(),
                "Dangling".into(),
                2000.into(),
                Value::Null,
                999_999.into(),
            ],
        },
    );
    script.push(ChangeRecord::Delete {
        table: "person".into(),
        key: vec![700_001.into()], // still directs "Sunset Revisited"
    });

    // Live run through the serving layer: log first, then apply.
    let engine = Quest::new(FullAccessWrapper::new(db), QuestConfig::default()).expect("engine");
    let cached = CachedEngine::new(engine);
    for change in &script {
        writer.append(change).expect("append");
    }
    writer.sync().expect("sync");
    let report = cached.apply(&script).expect("batch applies");
    assert_eq!(report.rejected.len(), 2, "both poison records rejected");
    assert_eq!(report.applied, script.len() - 2);

    let recovery = recover(&snap_path, &wal_path).expect("recovery succeeds");
    assert_eq!(recovery.applied, report.applied);
    assert_eq!(recovery.rejected, 2, "replay re-rejects the same records");
    let live = cached.engine().wrapper().database().clone();
    assert_structurally_identical(&live, &recovery.db);

    std::fs::remove_file(&wal_path).ok();
    std::fs::remove_file(&snap_path).ok();
}

#[test]
fn torn_tail_recovers_to_the_last_complete_record() {
    let wal_path = temp_path("torn", "wal");
    let snap_path = temp_path("torn", "snap");
    let mut db = imdb_db();
    write_snapshot(&db, &snap_path, 0).expect("snapshot");
    let mut writer = WalWriter::open(&wal_path, db.catalog()).expect("wal opens");
    let script = mutation_script(&db);
    // Only the first four records make it to disk intact; the fifth is
    // torn mid-write by the "crash".
    for change in script.iter().take(4) {
        writer.append(change).expect("append");
        change.apply(&mut db).expect("apply");
    }
    drop(writer);
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&wal_path)
            .expect("reopen");
        f.write_all(b"5\tdeadbeef\tI\tmovie\ti7000").expect("tear");
    }

    let recovery = recover(&snap_path, &wal_path).expect("recovery succeeds");
    assert!(recovery.torn_tail, "the torn record must be detected");
    assert_eq!(recovery.applied, 4);
    recovery
        .db
        .validate()
        .expect("recovered instance validates");
    assert_structurally_identical(&db, &recovery.db);

    // Re-opening the log for append truncates the torn tail; the next
    // append lands at sequence 5 and reads back cleanly.
    let mut writer = WalWriter::open(&wal_path, db.catalog()).expect("reopen");
    assert_eq!(writer.next_seq(), 5);
    writer.append(&script[4]).expect("append after truncation");
    drop(writer);
    let log = read_log(&wal_path, db.catalog()).expect("log reads");
    assert!(!log.torn_tail);
    assert_eq!(log.records.len(), 5);

    std::fs::remove_file(&wal_path).ok();
    std::fs::remove_file(&snap_path).ok();
}

#[test]
fn recovery_at_every_lsn_equals_the_cold_rebuild() {
    // Every (snapshot LSN, log end) pair of the script: the recovered
    // database equals a cold rebuild over its own rows and the
    // uninterrupted run at the log's end.
    let mut db = imdb_db();
    let script = mutation_script(&db);
    let mut snaps = vec![temp_path("every-lsn-0", "snap")];
    let mut lives = vec![db.clone()];
    write_snapshot(&db, &snaps[0], 0).expect("snapshot");
    for (i, change) in script.iter().enumerate() {
        change.apply(&mut db).expect("apply");
        let lsn = i as u64 + 1;
        let snap = temp_path(&format!("every-lsn-{lsn}"), "snap");
        write_snapshot(&db, &snap, lsn).expect("snapshot");
        snaps.push(snap);
        lives.push(db.clone());
    }
    for end in 0..=script.len() {
        let wal_path = temp_path(&format!("every-lsn-end-{end}"), "wal");
        std::fs::remove_file(&wal_path).ok();
        let mut writer = WalWriter::open(&wal_path, db.catalog()).expect("wal opens");
        for change in &script[..end] {
            writer.append(change).expect("append");
        }
        writer.sync().expect("sync");
        for (from, snap) in snaps.iter().enumerate().take(end + 1) {
            let recovery = recover(snap, &wal_path).expect("recovery succeeds");
            assert_eq!(recovery.applied, end - from, "snapshot {from}, end {end}");
            assert_eq!(recovery.rejected, 0);
            assert_structurally_identical(&cold_rebuild(&recovery.db), &recovery.db);
            assert_structurally_identical(&lives[end], &recovery.db);
        }
        std::fs::remove_file(&wal_path).ok();
    }
    for snap in &snaps {
        std::fs::remove_file(snap).ok();
    }
}

#[test]
fn a_suffix_deleting_the_only_row_of_a_token_recovers_without_it() {
    // The token lives in the snapshot; the suffix deletes its only row.
    // The live index drains it, the recovered one never builds it.
    let wal_path = temp_path("only-row", "wal");
    let snap_path = temp_path("only-row", "snap");
    let mut db = imdb_db();
    let title = db.catalog().attr_id("movie", "title").expect("title");
    let mut writer = WalWriter::open(&wal_path, db.catalog()).expect("wal opens");
    let insert = ChangeRecord::Insert {
        table: "movie".into(),
        row: vec![
            700_010.into(),
            "Zyzzyva".into(),
            1999.into(),
            Value::Null,
            Value::Null,
        ],
    };
    let seq = writer.append(&insert).expect("append");
    insert.apply(&mut db).expect("apply");
    writer.sync().expect("sync");
    write_snapshot(&db, &snap_path, seq).expect("snapshot");
    assert!(db.search_score(title, "zyzzyva") > 0.0);
    let delete = ChangeRecord::Delete {
        table: "movie".into(),
        key: vec![700_010.into()],
    };
    writer.append(&delete).expect("append");
    delete.apply(&mut db).expect("apply");
    writer.sync().expect("sync");

    let recovery = recover(&snap_path, &wal_path).expect("recovery succeeds");
    assert_eq!((recovery.applied, recovery.rejected), (1, 0));
    let index = recovery.db.index(title).expect("title is indexed");
    assert!(!index.live_tokens().contains(&"zyzzyva"));
    assert_eq!(recovery.db.search_score(title, "zyzzyva"), 0.0);
    assert_structurally_identical(&db, &recovery.db);
    assert_structurally_identical(&cold_rebuild(&recovery.db), &recovery.db);

    std::fs::remove_file(&wal_path).ok();
    std::fs::remove_file(&snap_path).ok();
}

#[test]
fn a_suffix_with_rejected_records_counts_them_as_the_live_run_did() {
    let wal_path = temp_path("rejected-suffix", "wal");
    let snap_path = temp_path("rejected-suffix", "snap");
    let mut db = imdb_db();
    write_snapshot(&db, &snap_path, 0).expect("snapshot");
    let movie = |id: i64, director: i64| ChangeRecord::Insert {
        table: "movie".into(),
        row: vec![
            id.into(),
            "Suffix Picture".into(),
            2002.into(),
            Value::Null,
            director.into(),
        ],
    };
    let script = vec![
        ChangeRecord::Insert {
            table: "person".into(),
            row: vec![700_020.into(), "Suffix Director".into(), 1950.into()],
        },
        movie(700_021, 999_999), // dangling director: rejected
        movie(700_022, 700_020),
        ChangeRecord::Delete {
            table: "person".into(),
            key: vec![700_020.into()], // still directs 700_022: rejected
        },
    ];
    let mut writer = WalWriter::open(&wal_path, db.catalog()).expect("wal opens");
    let mut live = (0, 0);
    for change in &script {
        writer.append(change).expect("append");
        match change.apply(&mut db) {
            Ok(_) => live.0 += 1,
            Err(_) => live.1 += 1,
        }
    }
    writer.sync().expect("sync");
    assert_eq!(live, (2, 2));

    let recovery = recover(&snap_path, &wal_path).expect("recovery succeeds");
    assert_eq!((recovery.applied, recovery.rejected), live);
    assert_structurally_identical(&db, &recovery.db);
    assert_structurally_identical(&cold_rebuild(&recovery.db), &recovery.db);

    std::fs::remove_file(&wal_path).ok();
    std::fs::remove_file(&snap_path).ok();
}
