//! Partitioner property suite: placement stability, unsharded mutation
//! equivalence, live reference counts, and rebalance round-trip identity.
//!
//! Placement is a pure function of a row's primary-key values, so no
//! interleaving of inserts, deletes, re-insertions (tombstone churn), or
//! repartitioning may ever move a key to a different shard — and every
//! mutation outcome (accept or reject, down to the error string) must
//! match the unsharded database's. The sharded store keeps its join
//! statistics as live per-slot reference counts, so after every record (and
//! every batch) its `fk_stats` must equal the unsharded rescan bit for bit —
//! through PK changes of referenced rows, rows that reference themselves,
//! and references whose target does not exist yet.

use proptest::collection::vec;
use proptest::prelude::*;
use quest_serve::ApplyReport;
use quest_shard::{ShardConfig, ShardedStore};
use quest_wal::ChangeRecord;
use relstore::index::KeywordProbe;
use relstore::{Catalog, DataType, Database, Row, StoreError, Value};

/// person(id PK, name full-text, mentor_id nullable) ← movie(id PK, title
/// full-text, director_id nullable FK → person). With `self_ref`,
/// `person.mentor_id` is a foreign key to `person` itself.
fn catalog_with(self_ref: bool) -> Catalog {
    let mut c = Catalog::new();
    c.define_table("person")
        .unwrap()
        .pk("id", DataType::Int)
        .unwrap()
        .col("name", DataType::Text)
        .unwrap()
        .col_opts("mentor_id", DataType::Int, true, false)
        .unwrap()
        .finish();
    c.define_table("movie")
        .unwrap()
        .pk("id", DataType::Int)
        .unwrap()
        .col("title", DataType::Text)
        .unwrap()
        .col_opts("director_id", DataType::Int, true, false)
        .unwrap()
        .finish();
    c.add_foreign_key("movie", "director_id", "person").unwrap();
    if self_ref {
        c.add_foreign_key("person", "mentor_id", "person").unwrap();
    }
    c
}

fn catalog() -> Catalog {
    catalog_with(false)
}

/// Mutations over a small key space, so duplicate keys, dangling FKs,
/// re-insertions after deletes, and restrictive-delete violations all
/// actually occur.
#[derive(Debug, Clone)]
enum Op {
    InsertPerson(i64, String, Option<i64>),
    InsertMovie(i64, String, Option<i64>),
    DeletePerson(i64),
    DeleteMovie(i64),
    /// Update movie `0` to key `1` (a PK change when they differ — which
    /// may also move the row across shards).
    UpdateMovie(i64, i64, String, Option<i64>),
    /// Update person `0` to key `1` with mentor `3`: a PK change of a
    /// *referenced* row, refused while anything references the old key,
    /// judged by its replacement, and moving shards when the new key hashes
    /// elsewhere. Keeping the key while naming itself as mentor is how a
    /// row comes to reference itself.
    UpdatePerson(i64, i64, String, Option<i64>),
}

impl Op {
    /// The op as the change record both stores apply.
    fn record(&self) -> ChangeRecord {
        let person =
            |k: &i64, w: &String, m: &Option<i64>| vec![(*k).into(), w.as_str().into(), opt(m)];
        let movie =
            |k: &i64, w: &String, d: &Option<i64>| vec![(*k).into(), w.as_str().into(), opt(d)];
        match self {
            Op::InsertPerson(k, w, m) => ChangeRecord::Insert {
                table: "person".into(),
                row: person(k, w, m),
            },
            Op::InsertMovie(k, w, d) => ChangeRecord::Insert {
                table: "movie".into(),
                row: movie(k, w, d),
            },
            Op::DeletePerson(k) => ChangeRecord::Delete {
                table: "person".into(),
                key: vec![(*k).into()],
            },
            Op::DeleteMovie(k) => ChangeRecord::Delete {
                table: "movie".into(),
                key: vec![(*k).into()],
            },
            Op::UpdateMovie(k, nk, w, d) => ChangeRecord::Update {
                table: "movie".into(),
                key: vec![(*k).into()],
                row: movie(nk, w, d),
            },
            Op::UpdatePerson(k, nk, w, m) => ChangeRecord::Update {
                table: "person".into(),
                key: vec![(*k).into()],
                row: person(nk, w, m),
            },
        }
    }
}

fn arb_word() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("gone".to_string()),
        Just("wind".to_string()),
        Just("storm".to_string()),
        Just("fleming".to_string()),
        Just("gone wind".to_string()),
    ]
}

fn arb_director(keys: i64) -> impl Strategy<Value = Option<i64>> {
    prop_oneof![Just(None), (0..keys).prop_map(Some)]
}

/// A person update biased toward the interesting cases: the key kept half
/// the time, and the mentor often the old or the new key itself.
fn arb_person_update(keys: i64) -> impl Strategy<Value = Op> {
    (0..keys)
        .prop_flat_map(move |k| (Just(k), prop_oneof![Just(k), 0..keys]))
        .prop_flat_map(move |(k, nk)| {
            let mentor = prop_oneof![
                Just(None),
                Just(Some(k)),
                Just(Some(nk)),
                (0..keys).prop_map(Some)
            ];
            (Just(k), Just(nk), arb_word(), mentor)
        })
        .prop_map(|(k, nk, w, m)| Op::UpdatePerson(k, nk, w, m))
}

/// The op mix over keys `0..keys`: the fewer keys, the more often ops
/// collide on one row (a self-reference followed by that row's delete
/// takes three ops on one key). Person inserts, person updates and movies
/// that name a director come up twice as often as the other ops, so a
/// person update often finds its row present and referenced.
fn arb_op_over(keys: i64) -> impl Strategy<Value = Op> {
    let key = 0..keys;
    let insert_person = move || {
        (0..keys, arb_word(), arb_director(keys)).prop_map(|(k, w, m)| Op::InsertPerson(k, w, m))
    };
    prop_oneof![
        insert_person(),
        insert_person(),
        (key.clone(), arb_word(), arb_director(keys))
            .prop_map(|(k, w, d)| Op::InsertMovie(k, w, d)),
        (key.clone(), arb_word(), key.clone()).prop_map(|(k, w, d)| Op::InsertMovie(k, w, Some(d))),
        key.clone().prop_map(Op::DeletePerson),
        key.clone().prop_map(Op::DeleteMovie),
        (key.clone(), key, arb_word(), arb_director(keys))
            .prop_map(|(k, nk, w, d)| Op::UpdateMovie(k, nk, w, d)),
        arb_person_update(keys),
        arb_person_update(keys),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    arb_op_over(12)
}

/// Apply one change record to the unsharded reference.
fn apply_db(db: &mut Database, record: &ChangeRecord) -> Result<(), StoreError> {
    match record {
        ChangeRecord::Insert { table, row } => db.insert(table, Row::new(row.clone())),
        ChangeRecord::Delete { table, key } => db.delete(table, key),
        ChangeRecord::Update { table, key, row } => db.update(table, key, Row::new(row.clone())),
    }
    .map(|_| ())
}

fn apply_sharded(store: &mut ShardedStore, op: &Op) -> Result<(), StoreError> {
    store.apply_record(&op.record()).map(|_| ())
}

fn opt(d: &Option<i64>) -> Value {
    match d {
        Some(v) => (*v).into(),
        None => Value::Null,
    }
}

/// Sorted multiset of a table's live rows, slot-order independent.
fn row_multiset(db: &Database, table: &str) -> Vec<Vec<Value>> {
    let tid = db.catalog().table_id(table).unwrap();
    let rows = db.table_data(tid).iter();
    let mut rows: Vec<Vec<Value>> = rows.map(|(_, row)| row.values().to_vec()).collect();
    rows.sort();
    rows
}

/// The merged join statistics of every foreign key equal the unsharded
/// ones in all five fields, the NMI bit for bit.
fn assert_fk_stats_identical(store: &ShardedStore, reference: &Database) {
    for fk in reference.catalog().foreign_keys() {
        let merged = store.fk_stats(*fk).unwrap();
        let whole = reference.fk_stats(*fk).unwrap();
        assert_eq!(merged.pairs, whole.pairs);
        assert_eq!(merged.referenced_distinct, whole.referenced_distinct);
        assert_eq!(merged.referencing_rows, whole.referencing_rows);
        assert_eq!(merged.referenced_rows, whole.referenced_rows);
        assert_eq!(
            merged.nmi.to_bits(),
            whole.nmi.to_bits(),
            "NMI bits diverged"
        );
    }
}

/// Compare gathered rows, merged scores and join statistics against an
/// unsharded reference, bit for bit.
fn assert_identical_to_unsharded(store: &ShardedStore, reference: &Database) {
    let catalog = reference.catalog();
    let gathered = store.gather().unwrap();
    for table in catalog.tables() {
        assert_eq!(
            row_multiset(&gathered, &table.name),
            row_multiset(reference, &table.name),
            "rows of {} diverged",
            table.name
        );
    }
    for attr in catalog.attributes() {
        for kw in ["gone", "wind", "storm", "fleming", "gone wind", "zzz"] {
            let s = store.search_score(attr.id, kw);
            let u = reference.search_score(attr.id, kw);
            assert_eq!(
                s.to_bits(),
                u.to_bits(),
                "score bits diverged: attr {} keyword {kw:?} ({s} vs {u})",
                attr.id.0
            );
        }
    }
    assert_fk_stats_identical(store, reference);
}

/// Run `ops` one record at a time through both stores over `catalog`: the
/// same outcome (down to the error string) for every op, `fk_stats`
/// bit-identical after every op, and the whole state identical at the end.
fn run_per_record(catalog: Catalog, ops: &[Op], shards: usize) -> Result<(), TestCaseError> {
    let mut reference = Database::new(catalog.clone()).unwrap();
    reference.finalize();
    let mut store = ShardedStore::new(catalog, &ShardConfig::new(shards)).unwrap();
    for op in ops {
        let expected = apply_db(&mut reference, &op.record());
        let got = apply_sharded(&mut store, op);
        match (&expected, &got) {
            (Ok(()), Ok(())) => {}
            (Err(e), Err(g)) => prop_assert_eq!(
                e.to_string(),
                g.to_string(),
                "divergent rejection for {:?}",
                op
            ),
            _ => prop_assert!(
                false,
                "divergent outcome for {:?}: {:?} vs {:?}",
                op,
                expected,
                got
            ),
        }
        assert_fk_stats_identical(&store, &reference);
    }
    store.validate().unwrap();
    assert_identical_to_unsharded(&store, &reference);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The centerpiece: any mutation interleaving produces (a) the same
    /// accept/reject outcome — same error string — as the unsharded
    /// database, (b) a placement-valid shard set, and (c) merged
    /// statistics and scores bit-identical to the unsharded state.
    #[test]
    fn mutations_match_unsharded_bitwise(ops in vec(arb_op(), 0..40), shards in 1usize..6) {
        run_per_record(catalog(), &ops, shards)?;
    }

    /// The same over a self-referencing foreign key (`person.mentor_id →
    /// person`): a person's own reference is counted at its own slot, dies
    /// with it on delete, and is judged by the replacement on a key change —
    /// every outcome and every `fk_stats` bit as the unsharded rescan.
    #[test]
    fn self_referencing_mutations_match_unsharded_bitwise(
        ops in vec(arb_op_over(4), 0..40),
        shards in 1usize..6,
    ) {
        run_per_record(catalog_with(true), &ops, shards)?;
    }

    /// Random batches through `ShardedStore::apply_changes` against
    /// `Database::with_stats_deferred`: per-record accept/reject parity, and
    /// `fk_stats` derived once per dirty foreign key at the batch end equal
    /// to the unsharded refresh after every batch, over both catalogs.
    #[test]
    fn batches_match_unsharded_bitwise(
        batches in vec(vec(arb_op_over(6), 0..8), 0..8),
        shards in 1usize..6,
    ) {
        for self_ref in [false, true] {
            let mut reference = Database::new(catalog_with(self_ref)).unwrap();
            reference.finalize();
            let mut store = ShardedStore::new(catalog_with(self_ref), &ShardConfig::new(shards)).unwrap();
            for batch in &batches {
                let records: Vec<ChangeRecord> = batch.iter().map(Op::record).collect();
                let expected: Vec<Result<(), String>> = reference.with_stats_deferred(|db| {
                    records
                        .iter()
                        .map(|r| apply_db(db, r).map_err(|e| e.to_string()))
                        .collect()
                });
                let mut report = ApplyReport::default();
                store.apply_changes(&records, &mut report);
                let mut got: Vec<Result<(), String>> = vec![Ok(()); records.len()];
                for (i, e) in &report.rejected {
                    got[*i] = Err(e.to_string());
                }
                prop_assert_eq!(report.applied, expected.iter().filter(|r| r.is_ok()).count());
                prop_assert_eq!(got, expected, "divergent batch outcome for {:?}", batch);
                assert_fk_stats_identical(&store, &reference);
            }
            store.validate().unwrap();
        }
    }

    /// Placement never depends on history: delete a key, re-insert it (and
    /// churn through a same-count rebalance, the compaction equivalent —
    /// tombstones are dropped, indexes rebuilt), and the key still lives on
    /// the shard its hash names.
    #[test]
    fn placement_stable_under_reinsertion_and_compaction(
        keys in vec(0i64..30, 1..15),
        shards in 2usize..6,
    ) {
        let mut store = ShardedStore::new(catalog(), &ShardConfig::new(shards)).unwrap();
        let mut homes = std::collections::HashMap::new();
        for k in &keys {
            if store.insert("person", Row::new(vec![(*k).into(), "gone".into(), Value::Null])).is_ok() {
                let home = store.partitioner().shard_of_key(&[(*k).into()]);
                homes.insert(*k, home);
            }
        }
        store.validate().unwrap();
        // Tombstone churn: delete everything, re-insert everything.
        for k in homes.keys() {
            store.delete("person", &[(*k).into()]).unwrap();
        }
        for k in homes.keys() {
            store.insert("person", Row::new(vec![(*k).into(), "wind".into(), Value::Null])).unwrap();
        }
        // Compaction: rebuild at the same shard count.
        let compacted = store.rebalance(&ShardConfig::new(shards)).unwrap();
        compacted.validate().unwrap();
        for (k, home) in &homes {
            let tid = compacted.catalog().table_id("person").unwrap();
            let found = compacted.shard(*home).table_data(tid).lookup_pk(&[(*k).into()]);
            prop_assert!(found.is_some(), "key {} left its home shard {}", k, home);
        }
    }

    /// `rebalance(n → m → n)` loses no rows, keeps merged state bit-equal,
    /// and leaves every shard's inverted index bit-identical to a fresh
    /// `finalize` over that shard's row subset.
    #[test]
    fn rebalance_round_trip_is_lossless(
        ops in vec(arb_op(), 0..30),
        n in 1usize..5,
        m in 1usize..8,
    ) {
        let mut reference = Database::new(catalog()).unwrap();
        reference.finalize();
        let mut store = ShardedStore::new(catalog(), &ShardConfig::new(n)).unwrap();
        for op in &ops {
            let _ = apply_db(&mut reference, &op.record());
            let _ = apply_sharded(&mut store, op);
        }
        let wide = store.rebalance(&ShardConfig::new(m)).unwrap();
        wide.validate().unwrap();
        let back = wide.rebalance(&ShardConfig::new(n)).unwrap();
        back.validate().unwrap();
        for s in [&wide, &back] {
            assert_identical_to_unsharded(s, &reference);
        }
        // Each shard's index is bit-identical to a fresh bulk build over
        // exactly its row subset (incremental/bulk equivalence per shard).
        let shard_catalog = catalog().without_foreign_keys();
        for s in [&wide, &back] {
            for i in 0..s.shard_count() {
                let shard = s.shard(i);
                let mut fresh = Database::new(shard_catalog.clone()).unwrap();
                for schema in shard_catalog.tables() {
                    let tid = schema.id;
                    for (_, row) in shard.table_data(tid).iter() {
                        fresh.insert_unchecked(&schema.name, row.clone()).unwrap();
                    }
                }
                fresh.finalize();
                for attr in shard_catalog.attributes() {
                    prop_assert_eq!(
                        shard.index(attr.id),
                        fresh.index(attr.id),
                        "shard {} index diverged from fresh rebuild on attr {}",
                        i,
                        attr.id.0
                    );
                }
            }
        }
    }

    /// Scatter scoring agrees with the single-probe path for every
    /// attribute (the whole-table scatter is what keyword preparation
    /// uses; the per-attribute probe is the reference).
    #[test]
    fn scatter_table_matches_per_attribute_probes(ops in vec(arb_op(), 0..25)) {
        let mut store = ShardedStore::new(catalog(), &ShardConfig::new(3)).unwrap();
        for op in &ops {
            let _ = apply_sharded(&mut store, op);
        }
        for kw in ["gone", "wind", "gone wind", "zzz"] {
            let Some(probe) = KeywordProbe::new(kw) else { continue };
            let table = store.scatter_value_scores(&probe);
            prop_assert_eq!(table.len(), store.catalog().attribute_count());
            for attr in store.catalog().attributes() {
                let direct = store.search_score_probe(attr.id, &probe);
                prop_assert_eq!(
                    table[attr.id.0 as usize].to_bits(),
                    direct.to_bits(),
                    "scatter slot diverged for attr {} keyword {:?}",
                    attr.id.0,
                    kw
                );
            }
        }
    }
}

/// The self-reference cases in one scripted stream, so each is reached on
/// every run: a row that names itself as mentor is renamed in place,
/// refused a key change while its replacement still names the old key, let
/// change its key once it names nobody, refused deletion while another row
/// references it, and deleted once only its own reference is left.
#[test]
fn self_reference_edge_cases_match_unsharded() {
    let person = |k: i64, nk: i64, m: Option<i64>| Op::UpdatePerson(k, nk, "fleming".into(), m);
    let insert = |k: i64| Op::InsertPerson(k, "gone".into(), None);
    // (op, accepted by the unsharded reference)
    let script = [
        (insert(1), true),
        (insert(2), true),
        (person(1, 1, Some(1)), true),  // 1 references itself
        (person(1, 1, Some(1)), true),  // renamed in place, still itself
        (person(1, 3, Some(1)), false), // replacement names the old key
        (person(1, 3, Some(3)), false), // the new key has no target yet
        (Op::DeletePerson(1), true),    // only its own reference was left
        (insert(1), true),
        (person(1, 1, Some(1)), true),
        (person(2, 2, Some(1)), true),  // 2 references 1 too
        (Op::DeletePerson(1), false),   // 2 still references 1
        (person(1, 4, Some(2)), false), // 2 still references 1
        (person(2, 2, None), true),
        (person(1, 4, None), true), // key change of a self-referencing row
        (person(4, 4, Some(4)), true),
        (person(2, 5, Some(4)), true), // unreferenced key change, now naming 4
        (Op::DeletePerson(4), false),  // 5 references 4
        (person(5, 5, None), true),
        (Op::DeletePerson(4), true),
    ];
    let mut reference = Database::new(catalog_with(true)).unwrap();
    reference.finalize();
    for (op, accepted) in &script {
        let outcome = apply_db(&mut reference, &op.record());
        assert_eq!(outcome.is_ok(), *accepted, "{op:?}: {outcome:?}");
    }
    let ops: Vec<Op> = script.into_iter().map(|(op, _)| op).collect();
    for shards in 1..6 {
        run_per_record(catalog_with(true), &ops, shards).unwrap();
    }
}

/// A store sharded from an unvalidated load — `insert_unchecked` rows whose
/// director does not exist — reports what `join_stats` reports over the
/// same rows: the dangling references are no pairs. Inserting the missing
/// person makes them pairs (the new slot adopts them), and deleting the
/// references and then the person returns to a clean state.
#[test]
fn from_database_with_dangling_references_matches_join_stats() {
    let person = |k: i64| Row::new(vec![k.into(), "fleming".into(), Value::Null]);
    let movie = |k: i64, d: Option<i64>| Row::new(vec![k.into(), "gone wind".into(), opt(&d)]);
    let mut db = Database::new(catalog()).unwrap();
    for k in 0..3 {
        db.insert_unchecked("person", person(k)).unwrap();
    }
    for (k, d) in [
        (10, Some(0)),
        (11, Some(7)),
        (12, Some(7)),
        (13, Some(1)),
        (14, None),
    ] {
        db.insert_unchecked("movie", movie(k, d)).unwrap();
    }
    assert!(db.validate().is_err(), "the load dangles");
    db.finalize();
    for shards in 1..6 {
        let mut reference = db.clone();
        let mut store = ShardedStore::from_database(&reference, &ShardConfig::new(shards)).unwrap();
        let fk = reference.catalog().foreign_keys()[0];
        assert_fk_stats_identical(&store, &reference);
        assert_eq!(store.fk_stats(fk).unwrap().pairs, 2, "7 dangles twice");
        let steps = [
            Op::InsertPerson(7, "fleming".into(), None), // the missing target
            Op::DeleteMovie(11),
            Op::DeleteMovie(12),
            Op::DeletePerson(7),
        ];
        for op in &steps {
            apply_db(&mut reference, &op.record()).unwrap();
            apply_sharded(&mut store, op).unwrap();
            assert_fk_stats_identical(&store, &reference);
            if matches!(op, Op::InsertPerson(..)) {
                assert_eq!(store.fk_stats(fk).unwrap().pairs, 4, "7 adopted");
            }
        }
        assert_eq!(store.fk_stats(fk).unwrap().pairs, 2);
        // Refused while referenced: 7's two references keep the person.
        let mut again = ShardedStore::from_database(&db, &ShardConfig::new(shards)).unwrap();
        again.insert("person", person(7)).unwrap();
        let mut whole = db.clone();
        whole.insert("person", person(7)).unwrap();
        assert_eq!(
            again.delete("person", &[7.into()]).unwrap_err().to_string(),
            whole.delete("person", &[7.into()]).unwrap_err().to_string()
        );
    }
}
