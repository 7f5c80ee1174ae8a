//! Partitioner property suite: placement stability, unsharded mutation
//! equivalence, and rebalance round-trip identity.
//!
//! Placement is a pure function of a row's primary-key values, so no
//! interleaving of inserts, deletes, re-insertions (tombstone churn), or
//! repartitioning may ever move a key to a different shard — and every
//! mutation outcome (accept or reject, down to the error string) must
//! match the unsharded database's.

use proptest::collection::vec;
use proptest::prelude::*;
use quest_shard::{ShardConfig, ShardedStore};
use relstore::index::KeywordProbe;
use relstore::{Catalog, DataType, Database, Row, StoreError, Value};

/// person(id PK, name full-text) ← movie(id PK, title full-text,
/// director_id nullable FK).
fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.define_table("person")
        .unwrap()
        .pk("id", DataType::Int)
        .unwrap()
        .col("name", DataType::Text)
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
    c
}

/// A config that keeps property runs cheap and deterministic to debug.
fn shard_config(n: usize) -> ShardConfig {
    ShardConfig {
        shard_count: n,
        parallel: false,
    }
}

/// Mutations over a small key space, so duplicate keys, dangling FKs,
/// re-insertions after deletes, and restrictive-delete violations all
/// actually occur.
#[derive(Debug, Clone)]
enum Op {
    InsertPerson(i64, String),
    InsertMovie(i64, String, Option<i64>),
    DeletePerson(i64),
    DeleteMovie(i64),
    /// Update movie `0` to key `1` (a PK change when they differ — which
    /// may also move the row across shards).
    UpdateMovie(i64, i64, String, Option<i64>),
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

fn arb_director() -> impl Strategy<Value = Option<i64>> {
    prop_oneof![Just(None), (0i64..12).prop_map(Some)]
}

fn arb_op() -> impl Strategy<Value = Op> {
    let key = 0i64..12;
    prop_oneof![
        (key.clone(), arb_word()).prop_map(|(k, w)| Op::InsertPerson(k, w)),
        (key.clone(), arb_word(), arb_director()).prop_map(|(k, w, d)| Op::InsertMovie(k, w, d)),
        key.clone().prop_map(Op::DeletePerson),
        key.clone().prop_map(Op::DeleteMovie),
        (key.clone(), key, arb_word(), arb_director())
            .prop_map(|(k, nk, w, d)| Op::UpdateMovie(k, nk, w, d)),
    ]
}

fn apply_db(db: &mut Database, op: &Op) -> Result<(), StoreError> {
    match op {
        Op::InsertPerson(k, w) => db
            .insert("person", Row::new(vec![(*k).into(), w.as_str().into()]))
            .map(|_| ()),
        Op::InsertMovie(k, w, d) => db
            .insert(
                "movie",
                Row::new(vec![(*k).into(), w.as_str().into(), opt(d)]),
            )
            .map(|_| ()),
        Op::DeletePerson(k) => db.delete("person", &[(*k).into()]).map(|_| ()),
        Op::DeleteMovie(k) => db.delete("movie", &[(*k).into()]).map(|_| ()),
        Op::UpdateMovie(k, nk, w, d) => db
            .update(
                "movie",
                &[(*k).into()],
                Row::new(vec![(*nk).into(), w.as_str().into(), opt(d)]),
            )
            .map(|_| ()),
    }
}

fn apply_sharded(store: &mut ShardedStore, op: &Op) -> Result<(), StoreError> {
    match op {
        Op::InsertPerson(k, w) => store
            .insert("person", Row::new(vec![(*k).into(), w.as_str().into()]))
            .map(|_| ()),
        Op::InsertMovie(k, w, d) => store
            .insert(
                "movie",
                Row::new(vec![(*k).into(), w.as_str().into(), opt(d)]),
            )
            .map(|_| ()),
        Op::DeletePerson(k) => store.delete("person", &[(*k).into()]).map(|_| ()),
        Op::DeleteMovie(k) => store.delete("movie", &[(*k).into()]).map(|_| ()),
        Op::UpdateMovie(k, nk, w, d) => store
            .update(
                "movie",
                &[(*k).into()],
                Row::new(vec![(*nk).into(), w.as_str().into(), opt(d)]),
            )
            .map(|_| ()),
    }
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
    for fk in catalog.foreign_keys() {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The centerpiece: any mutation interleaving produces (a) the same
    /// accept/reject outcome — same error string — as the unsharded
    /// database, (b) a placement-valid shard set, and (c) merged
    /// statistics and scores bit-identical to the unsharded state.
    #[test]
    fn mutations_match_unsharded_bitwise(ops in vec(arb_op(), 0..40), shards in 1usize..6) {
        let mut reference = Database::new(catalog()).unwrap();
        reference.finalize();
        let mut store = ShardedStore::new(catalog(), &shard_config(shards)).unwrap();
        for op in &ops {
            let expected = apply_db(&mut reference, op);
            let got = apply_sharded(&mut store, op);
            match (&expected, &got) {
                (Ok(()), Ok(())) => {}
                (Err(e), Err(g)) => prop_assert_eq!(
                    e.to_string(),
                    g.to_string(),
                    "divergent rejection for {:?}",
                    op
                ),
                _ => prop_assert!(false, "divergent outcome for {:?}: {:?} vs {:?}", op, expected, got),
            }
        }
        store.validate().unwrap();
        assert_identical_to_unsharded(&store, &reference);
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
        let mut store = ShardedStore::new(catalog(), &shard_config(shards)).unwrap();
        let mut homes = std::collections::HashMap::new();
        for k in &keys {
            if store.insert("person", Row::new(vec![(*k).into(), "gone".into()])).is_ok() {
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
            store.insert("person", Row::new(vec![(*k).into(), "wind".into()])).unwrap();
        }
        // Compaction: rebuild at the same shard count.
        let compacted = store.rebalance(&shard_config(shards)).unwrap();
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
        let mut store = ShardedStore::new(catalog(), &shard_config(n)).unwrap();
        for op in &ops {
            let _ = apply_db(&mut reference, op);
            let _ = apply_sharded(&mut store, op);
        }
        let wide = store.rebalance(&shard_config(m)).unwrap();
        wide.validate().unwrap();
        let back = wide.rebalance(&shard_config(n)).unwrap();
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
        let mut store = ShardedStore::new(catalog(), &shard_config(3)).unwrap();
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
