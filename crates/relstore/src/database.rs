//! The `Database`: catalog + table data + full-text indexes + join statistics.

use std::collections::{BTreeSet, HashMap};

use crate::error::StoreError;
use crate::index::inverted::{AttributeIndex, KeywordProbe};
use crate::jobs;
use crate::row::{Row, RowId};
use crate::rules::{self, Checked, Partitions};
use crate::schema::{AttrId, Attribute, Catalog, ForeignKey, TableId, TableSchema};
use crate::stats::{join_stats, JoinStats, Target};
use crate::table::TableData;
use crate::value::Value;

type Result<T, E = StoreError> = std::result::Result<T, E>;

/// An in-memory relational database instance.
///
/// Construction: build a [`Catalog`], call [`Database::new`], insert rows in
/// FK dependency order (or use [`Database::insert_unchecked`] followed by
/// [`Database::validate_foreign_keys`]), then call [`Database::finalize`] to
/// build full-text indexes and join statistics — the paper's "setup phase".
/// The per-foreign-key [`JoinStats`] is the only statistic kept (its one
/// reader is the wrapper's `join_informativeness`), so an FK-less database —
/// a shard — keeps none.
///
/// [`Database::insert`], [`Database::delete`] and [`Database::update`] are
/// the shared write rules ([`rules`]) over the database as one partition,
/// so a sharded store checks alike. Its own [`Partitions`] hooks scan: the
/// restrictive rule counts references over the referencing table, and a
/// foreign key's statistics are a [`join_stats`] rescan of its two tables.
///
/// After `finalize`, the database is *live*: mutations maintain the
/// inverted indexes incrementally and recompute the join statistics of the
/// foreign keys touching the mutated table only, so mutations never force a
/// full rebuild and the database stays finalized. The maintained state is
/// bit-identical to what a fresh [`Database::finalize`] over the same rows
/// would build (asserted by the relstore property suite). Batch writers
/// wrap their loop in [`Database::with_stats_deferred`] to rescan each
/// touched foreign key once per batch instead of once per record.
///
/// Before `finalize`, mutations touch rows only. A bulk path that ends
/// in `finalize` therefore pays for its derived state once: crash
/// recovery restores a snapshot's rows, replays the log suffix on them,
/// then finalizes and validates. `finalize` and [`Database::validate`]
/// split into independent jobs (one per full-text index, per foreign
/// key's statistics, per table's structure check, per foreign key's
/// target check) on the [`jobs`] runner;
/// [`Database::finalize_reference`] is the serial twin. Mutations never
/// reach the runner.
#[derive(Debug, Clone)]
pub struct Database {
    catalog: Catalog,
    tables: Vec<TableData>,
    /// Full-text indexes, one per attribute with `full_text = true`.
    indexes: HashMap<AttrId, AttributeIndex>,
    /// Per-foreign-key join statistics (built in `finalize`).
    join_stats: HashMap<ForeignKey, JoinStats>,
    finalized: bool,
    /// When `Some`, statistics refresh is deferred: the positions of the
    /// foreign keys mutations touched are collected here and rescanned once
    /// when the batch scope closes (see [`Database::with_stats_deferred`]).
    /// Index maintenance is never deferred — it is cheap and per-row.
    stats_dirty: Option<BTreeSet<usize>>,
}

impl Database {
    /// Create an empty database over a validated catalog.
    pub fn new(catalog: Catalog) -> Result<Database, StoreError> {
        catalog.validate()?;
        let tables = (0..catalog.table_count())
            .map(|_| TableData::new())
            .collect();
        Ok(Database {
            catalog,
            tables,
            indexes: HashMap::new(),
            join_stats: HashMap::new(),
            finalized: false,
            stats_dirty: None,
        })
    }

    /// The schema catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Data of one table.
    pub fn table_data(&self, id: TableId) -> &TableData {
        &self.tables[id.0 as usize]
    }

    /// Live row count of one table.
    pub fn row_count(&self, id: TableId) -> usize {
        self.tables[id.0 as usize].len()
    }

    /// Total live rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(|t| t.len()).sum()
    }

    /// Insert with full integrity checking ([`rules::insert`]). FK targets
    /// must already exist, so load tables in dependency order.
    pub fn insert(&mut self, table: &str, row: Row) -> Result<RowId, StoreError> {
        rules::insert(self, table, row)
    }

    /// Insert with type/PK checking but *without* FK target checking. Use for
    /// bulk loads with cycles, then call [`Database::validate_foreign_keys`].
    pub fn insert_unchecked(&mut self, table: &str, row: Row) -> Result<RowId, StoreError> {
        let tid = self.catalog.table_id(table)?;
        TableData::check_row(&self.catalog, self.catalog.table(tid), &row)?;
        let rid = self.store_row(tid, row)?;
        // A bulk load (a shard, a snapshot, a join's scratch copy) has no
        // statistics to keep until `finalize` builds them.
        if self.finalized {
            rules::touched(self, tid);
        }
        Ok(rid)
    }

    /// Delete the row keyed `key` unless a live row references it
    /// ([`rules::delete`]). Its slot is tombstoned, so other row ids stay
    /// stable.
    pub fn delete(&mut self, table: &str, key: &[Value]) -> Result<RowId, StoreError> {
        rules::delete(self, table, key)
    }

    /// Replace the row keyed `key` with `row` ([`rules::update`]), in its
    /// slot: one partition, so even a PK move keeps the [`RowId`].
    pub fn update(&mut self, table: &str, key: &[Value], row: Row) -> Result<RowId, StoreError> {
        rules::update(self, table, key, row)
    }

    /// Scan every FK column and verify all non-null values have targets.
    pub fn validate_foreign_keys(&self) -> Result<(), StoreError> {
        self.run_checks(&[], self.catalog.foreign_keys())
    }

    /// Full instance integrity check: every live row satisfies its table's
    /// arity, types and NOT NULL constraints; the PK index maps each live
    /// row's key back to its slot (and nothing else); and every FK value has
    /// a target. Bulk loaders and WAL replay use this as the final gate.
    ///
    /// Each table's structure and each foreign key's targets are checked
    /// as separate jobs, in parallel. The error reported is the one a
    /// serial pass meets first: any structure error before any FK error,
    /// an earlier table's before a later one's.
    pub fn validate(&self) -> Result<(), StoreError> {
        self.run_checks(self.catalog.tables(), self.catalog.foreign_keys())
    }

    /// [`Database::validate`] minus the foreign-key pass: row shape, PK
    /// index consistency and live counts only. This is the whole check for
    /// a *shard* database, where FK targets may live on other shards and
    /// referential integrity is validated globally by the sharded store.
    pub fn validate_structure(&self) -> Result<(), StoreError> {
        self.run_checks(self.catalog.tables(), &[])
    }

    /// One job per table's structure check, then one per foreign key's
    /// target check ([`rules::validate_references`]); the first error in
    /// that order wins.
    fn run_checks(&self, tables: &[TableSchema], fks: &[ForeignKey]) -> Result<(), StoreError> {
        jobs::run(tables.len() + fks.len(), |i| match tables.get(i) {
            Some(schema) => self.check_structure(schema),
            None => rules::validate_references(self, fks[i - tables.len()]),
        })
        .into_iter()
        .collect()
    }

    /// Row shape, PK index consistency and live count of one table.
    fn check_structure(&self, schema: &TableSchema) -> Result<(), StoreError> {
        let data = &self.tables[schema.id.0 as usize];
        let mut live = 0usize;
        for (rid, row) in data.iter() {
            TableData::check_row(&self.catalog, schema, row)?;
            let key = TableData::pk_of(&self.catalog, schema, row);
            if data.lookup_pk(&key) != Some(rid) {
                return Err(StoreError::InvalidSchema(format!(
                    "{}: PK index does not map {} back to row {rid}",
                    schema.name,
                    rules::fmt_key(&key)
                )));
            }
            live += 1;
        }
        if live != data.len() {
            return Err(StoreError::InvalidSchema(format!(
                "{}: live-row count {} disagrees with len {}",
                schema.name,
                live,
                data.len()
            )));
        }
        Ok(())
    }

    /// Replace one table's storage with an explicit slot layout, tombstones
    /// included (snapshot import). Leaves the database unfinalized; call
    /// [`Database::finalize`] after all tables are restored.
    pub fn restore_table(
        &mut self,
        table: TableId,
        slots: Vec<Option<Row>>,
    ) -> Result<(), StoreError> {
        let schema = self.catalog.table(table).clone();
        self.tables[table.0 as usize] = TableData::restore(&self.catalog, &schema, slots)?;
        self.finalized = false;
        Ok(())
    }

    /// The setup phase: build full-text indexes over all `full_text`
    /// attributes and compute the join statistics of every foreign key.
    ///
    /// Each index and each foreign key's statistics is its own job on
    /// scoped threads (see [`Database`]). The result equals
    /// [`Database::finalize_reference`]'s, postings and statistic bits
    /// alike (pinned by the relstore property suite).
    pub fn finalize(&mut self) {
        enum Built {
            Index(AttrId, AttributeIndex),
            Stats(ForeignKey, JoinStats),
        }
        let full_text: Vec<&Attribute> = self.full_text_attributes().collect();
        let fks = self.catalog.foreign_keys();
        let built = jobs::run(full_text.len() + fks.len(), |i| match full_text.get(i) {
            Some(attr) => Built::Index(attr.id, self.build_index(attr)),
            None => {
                let fk = fks[i - full_text.len()];
                Built::Stats(fk, self.build_join_stats(fk))
            }
        });
        self.indexes.clear();
        self.join_stats.clear();
        for item in built {
            match item {
                Built::Index(attr, ix) => {
                    self.indexes.insert(attr, ix);
                }
                Built::Stats(fk, stats) => {
                    self.join_stats.insert(fk, stats);
                }
            }
        }
        self.finalized = true;
    }

    /// [`Database::finalize`] on the calling thread, one index and one
    /// foreign key after another: the twin the parallel setup phase is
    /// checked against.
    pub fn finalize_reference(&mut self) {
        let indexes = self
            .full_text_attributes()
            .map(|attr| (attr.id, self.build_index(attr)))
            .collect();
        let join_stats = self
            .catalog
            .foreign_keys()
            .iter()
            .map(|fk| (*fk, self.build_join_stats(*fk)))
            .collect();
        self.indexes = indexes;
        self.join_stats = join_stats;
        self.finalized = true;
    }

    fn full_text_attributes(&self) -> impl Iterator<Item = &Attribute> {
        self.catalog.attributes().iter().filter(|a| a.full_text)
    }

    /// One attribute's full-text index over the live rows. Bulk-build
    /// path: append postings, sort each list once at the end —
    /// bit-identical to per-row sorted inserts (pinned by the relstore
    /// property suite) without the mid-list shifting.
    fn build_index(&self, attr: &Attribute) -> AttributeIndex {
        let mut ix = AttributeIndex::new();
        for (rid, row) in self.tables[attr.table.0 as usize].iter() {
            let v = row.get(attr.position);
            if !v.is_null() {
                ix.add_bulk(rid, &v.render());
            }
        }
        ix.finish_build();
        ix
    }

    /// One foreign key's join statistics over the live rows.
    fn build_join_stats(&self, fk: ForeignKey) -> JoinStats {
        let referencing = &self.tables[self.catalog.attribute(fk.from).table.0 as usize];
        let referenced = &self.tables[self.catalog.attribute(fk.to).table.0 as usize];
        join_stats(&self.catalog, fk, referencing, referenced)
    }

    /// Store a shape-checked row of `tid` in a fresh slot and index it;
    /// fails only on a duplicate key.
    fn store_row(&mut self, tid: TableId, row: Row) -> Result<RowId, StoreError> {
        let schema = self.catalog.table(tid);
        let rid = self.tables[tid.0 as usize].insert_prevalidated(&self.catalog, schema, row)?;
        self.reindex_row(tid, rid, None, true);
        Ok(rid)
    }

    /// Incremental index maintenance for one mutated row: un-index the old
    /// values (if any), index the new ones (if the slot is still live).
    /// Before `finalize` there are no indexes to maintain.
    fn reindex_row(&mut self, tid: TableId, rid: RowId, old: Option<&Row>, live: bool) {
        if !self.finalized {
            return;
        }
        let full_text: Vec<(AttrId, usize)> = self
            .catalog
            .table(tid)
            .attributes
            .iter()
            .map(|a| self.catalog.attribute(*a))
            .filter(|a| a.full_text)
            .map(|a| (a.id, a.position))
            .collect();
        for (attr, pos) in full_text {
            let old_text = old
                .map(|r| r.get(pos))
                .filter(|v| !v.is_null())
                .map(Value::render);
            let new_text = if live {
                let v = self.tables[tid.0 as usize].row(rid).get(pos);
                (!v.is_null()).then(|| v.render())
            } else {
                None
            };
            let ix = self.indexes.entry(attr).or_default();
            if let Some(text) = old_text {
                ix.remove(rid, &text);
            }
            if let Some(text) = new_text {
                ix.add(rid, &text);
            }
        }
    }

    /// Run a batch of mutations with the join-statistics refresh deferred
    /// to its end ([`rules::with_stats_deferred`]): each foreign key the
    /// batch touched is rescanned once. Index maintenance is never deferred.
    pub fn with_stats_deferred<R>(&mut self, f: impl FnOnce(&mut Database) -> R) -> R {
        rules::with_stats_deferred(self, f)
    }

    /// Whether `finalize` has been run (mutations on a finalized database
    /// keep it finalized by maintaining indexes and stats incrementally).
    pub fn is_finalized(&self) -> bool {
        self.finalized
    }

    /// Full-text index of an attribute, if one was built.
    pub fn index(&self, attr: AttrId) -> Option<&AttributeIndex> {
        self.indexes.get(&attr)
    }

    /// The paper's search function: relevance score of `keyword` against the
    /// values of `attr`, already normalized to [0, 1] with the per-attribute
    /// coefficient computed at setup. Returns 0 for unindexed attributes.
    pub fn search_score(&self, attr: AttrId, keyword: &str) -> f64 {
        match self.indexes.get(&attr) {
            Some(ix) => {
                crate::index::normalize_score(ix.score(keyword), ix.normalization_coefficient())
            }
            None => 0.0,
        }
    }

    /// Normalize a keyword into a reusable probe, paying tokenization once
    /// per keyword instead of once per `(keyword, attribute)` pair. `None`
    /// when the keyword normalizes away — every score for it is 0.
    pub fn prepare_probe(&self, keyword: &str) -> Option<KeywordProbe> {
        KeywordProbe::new(keyword)
    }

    /// [`Database::search_score`] for a keyword prepared with
    /// [`Database::prepare_probe`]; bit-identical results.
    pub fn search_score_probe(&self, attr: AttrId, probe: &KeywordProbe) -> f64 {
        match self.indexes.get(&attr) {
            Some(ix) => {
                crate::index::normalize_score(ix.score_probe(probe), ix.normalization_coefficient())
            }
            None => 0.0,
        }
    }

    /// [`Database::search_score`] through the pre-interning scan path
    /// ([`AttributeIndex::score_reference`]): the reference the optimized
    /// probes are verified against, and the baseline of the committed
    /// pipeline benchmark.
    pub fn search_score_reference(&self, attr: AttrId, keyword: &str) -> f64 {
        match self.indexes.get(&attr) {
            Some(ix) => crate::index::normalize_score(
                ix.score_reference(keyword),
                ix.normalization_coefficient(),
            ),
            None => 0.0,
        }
    }

    /// Top matching rows of `attr` for `keyword`, with normalized scores.
    pub fn search_rows(&self, attr: AttrId, keyword: &str, limit: usize) -> Vec<(RowId, f64)> {
        match self.indexes.get(&attr) {
            Some(ix) => {
                let coeff = ix.normalization_coefficient().max(f64::MIN_POSITIVE);
                ix.search(keyword, limit)
                    .into_iter()
                    .map(|(r, s)| (r, (s / coeff).clamp(0.0, 1.0)))
                    .collect()
            }
            None => Vec::new(),
        }
    }

    /// Join statistics of one foreign key (requires `finalize`).
    pub fn fk_stats(&self, fk: ForeignKey) -> Option<&JoinStats> {
        self.join_stats.get(&fk)
    }

    /// Look up a row's value by attribute id.
    pub fn value(&self, table: TableId, row: RowId, attr: AttrId) -> &Value {
        let pos = self.catalog.attribute(attr).position;
        self.tables[table.0 as usize].row(row).get(pos)
    }
}

/// The database as one partition: every key's home is partition 0, so a
/// PK move never changes partition and an update stays in its slot.
impl Partitions for Database {
    fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    fn partition_count(&self) -> usize {
        1
    }

    fn rows(&self, _: usize, table: TableId) -> &TableData {
        &self.tables[table.0 as usize]
    }

    fn locate(&self, table: TableId, key: &[Value]) -> Option<Target> {
        self.tables[table.0 as usize]
            .lookup_pk(key)
            .map(|rid| (0, rid))
    }

    fn home(&self, _: TableId, _: &Row) -> usize {
        0
    }

    fn insert_at(&mut self, _: usize, table: TableId, row: Row, _: Checked) -> Result<RowId> {
        self.store_row(table, row)
    }

    fn delete_at(&mut self, table: TableId, (_, rid): Target, _: Checked) -> Row {
        let schema = self.catalog.table(table);
        let old = self.tables[table.0 as usize]
            .delete(&self.catalog, schema, rid)
            .expect("the rules located a live row");
        self.reindex_row(table, rid, Some(&old), false);
        old
    }

    fn update_at(&mut self, table: TableId, (_, rid): Target, row: Row, _: Checked) -> Result<Row> {
        let schema = self.catalog.table(table);
        let old =
            self.tables[table.0 as usize].update_prevalidated(&self.catalog, schema, rid, row)?;
        self.reindex_row(table, rid, Some(&old), true);
        Ok(old)
    }

    /// A scan of the referencing table, O(its rows) per delete or key
    /// change, stopping at the second match. The sharded store reads a live
    /// count ([`crate::stats::JoinCounts`]) instead; moving this hook and
    /// [`Partitions::refresh_stats`] onto counts is ROADMAP item 2, after
    /// item 1(a). The scan stays the sharded suites' reference.
    fn references(&self, fk: usize, (_, rid): Target) -> u64 {
        let (catalog, fk) = (&self.catalog, self.catalog.foreign_keys()[fk]);
        let (from, to) = (catalog.attribute(fk.from), catalog.attribute(fk.to));
        let key = self.tables[to.table.0 as usize].row(rid).get(to.position);
        self.tables[from.table.0 as usize]
            .iter()
            .filter(|(_, row)| row.get(from.position) == key)
            .take(2)
            .count() as u64
    }

    /// A [`join_stats`] rescan of both tables — the same pure function as
    /// [`Database::finalize`], so maintained statistics are bit-identical
    /// to a full rebuild. Nothing to refresh before `finalize`.
    fn refresh_stats(&mut self, fk: usize) {
        if self.finalized {
            let fk = self.catalog.foreign_keys()[fk];
            self.join_stats.insert(fk, self.build_join_stats(fk));
        }
    }

    fn stats_dirty(&mut self, _: Checked) -> &mut Option<BTreeSet<usize>> {
        &mut self.stats_dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DataType;

    fn movie_db() -> Database {
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
        let mut db = Database::new(c).unwrap();
        db.insert("person", Row::new(vec![1.into(), "Victor Fleming".into()]))
            .unwrap();
        db.insert("person", Row::new(vec![2.into(), "Michael Curtiz".into()]))
            .unwrap();
        db.insert(
            "movie",
            Row::new(vec![10.into(), "Gone with the Wind".into(), 1.into()]),
        )
        .unwrap();
        db.insert(
            "movie",
            Row::new(vec![11.into(), "Casablanca".into(), 2.into()]),
        )
        .unwrap();
        db.finalize();
        db
    }

    /// Every full-text index, statistic, and row of `db` must be
    /// bit-identical to a from-scratch `finalize` over the same rows.
    fn assert_matches_rebuild(db: &Database) {
        let mut rebuilt = db.clone();
        rebuilt.finalize();
        for attr in db.catalog().attributes() {
            assert_eq!(
                db.index(attr.id),
                rebuilt.index(attr.id),
                "index of {} diverged from rebuild",
                db.catalog().qualified_name(attr.id)
            );
        }
        for t in db.catalog().tables() {
            let (kept, fresh) = (db.table_data(t.id), rebuilt.table_data(t.id));
            assert!(kept.slots().eq(fresh.slots()), "rows of {}", t.name);
        }
        for fk in db.catalog().foreign_keys() {
            assert_eq!(db.fk_stats(*fk), rebuilt.fk_stats(*fk));
        }
    }

    #[test]
    fn fk_enforced_on_insert() {
        let mut db = movie_db();
        let err = db
            .insert(
                "movie",
                Row::new(vec![12.into(), "Orphan".into(), 99.into()]),
            )
            .unwrap_err();
        assert!(matches!(err, StoreError::ForeignKeyViolation(_)));
        // NULL FK allowed.
        db.insert(
            "movie",
            Row::new(vec![12.into(), "Orphan".into(), Value::Null]),
        )
        .unwrap();
    }

    #[test]
    fn unchecked_then_validate() {
        let mut c = Catalog::new();
        c.define_table("b")
            .unwrap()
            .pk("id", DataType::Int)
            .unwrap()
            .finish();
        c.define_table("a")
            .unwrap()
            .pk("id", DataType::Int)
            .unwrap()
            .col_opts("b_id", DataType::Int, true, false)
            .unwrap()
            .finish();
        c.add_foreign_key("a", "b_id", "b").unwrap();
        let mut db = Database::new(c).unwrap();
        db.insert_unchecked("a", Row::new(vec![1.into(), 7.into()]))
            .unwrap();
        assert!(db.validate_foreign_keys().is_err());
        assert!(db.validate().is_err());
        db.insert("b", Row::new(vec![7.into()])).unwrap();
        assert!(db.validate_foreign_keys().is_ok());
        assert!(db.validate().is_ok());
    }

    #[test]
    fn validate_reports_structure_before_targets_and_earlier_tables_first() {
        let mut db = movie_db();
        db.insert_unchecked(
            "movie",
            Row::new(vec![12.into(), "Orphan".into(), 99.into()]),
        )
        .unwrap();
        // A row keyed by text in an INT-keyed table: restored under a
        // catalog that types every column TEXT, which only a fault can do
        // to a live database.
        let fault = |db: &mut Database, table: &str, row: Vec<Value>| {
            let tid = db.catalog().table_id(table).unwrap();
            let mut loose = Catalog::new();
            let mut columns = loose
                .define_table(table)
                .unwrap()
                .pk("id", DataType::Text)
                .unwrap();
            for attr in &db.catalog().table(tid).attributes[1..] {
                let name = &db.catalog().attribute(*attr).name;
                columns = columns.col(name, DataType::Text).unwrap();
            }
            columns.finish();
            let schema = loose.table(TableId(0)).clone();
            let mut slots: Vec<Option<Row>> =
                db.table_data(tid).slots().map(|s| s.cloned()).collect();
            slots.push(Some(Row::new(row)));
            db.tables[tid.0 as usize] = TableData::restore(&loose, &schema, slots).unwrap();
        };
        assert!(matches!(
            db.validate(),
            Err(StoreError::ForeignKeyViolation(_))
        ));
        fault(&mut db, "movie", vec!["m".into(), "x".into(), Value::Null]);
        let movie_fault = db.validate().unwrap_err();
        assert!(!matches!(movie_fault, StoreError::ForeignKeyViolation(_)));
        assert!(movie_fault.to_string().contains("movie"), "{movie_fault}");
        fault(&mut db, "person", vec!["p".into(), "x".into()]);
        let person_fault = db.validate().unwrap_err();
        assert!(
            person_fault.to_string().contains("person"),
            "{person_fault}"
        );
        assert_eq!(
            db.validate_structure().unwrap_err().to_string(),
            person_fault.to_string()
        );
        assert!(matches!(
            db.validate_foreign_keys(),
            Err(StoreError::ForeignKeyViolation(_))
        ));
    }

    #[test]
    fn search_scores_normalized() {
        let db = movie_db();
        let title = db.catalog().attr_id("movie", "title").unwrap();
        let s = db.search_score(title, "casablanca");
        assert!(s > 0.0 && s <= 1.0);
        assert_eq!(db.search_score(title, "nonexistentword"), 0.0);
        // Non-indexed attribute scores 0.
        let pk = db.catalog().attr_id("movie", "id").unwrap();
        assert_eq!(db.search_score(pk, "casablanca"), 0.0);
    }

    #[test]
    fn search_rows_returns_matches() {
        let db = movie_db();
        let title = db.catalog().attr_id("movie", "title").unwrap();
        let hits = db.search_rows(title, "wind", 10);
        assert_eq!(hits.len(), 1);
        let tid = db.catalog().table_id("movie").unwrap();
        let name_attr = db.catalog().attr_id("movie", "title").unwrap();
        assert_eq!(
            db.value(tid, hits[0].0, name_attr),
            &Value::text("Gone with the Wind")
        );
    }

    #[test]
    fn finalize_builds_stats() {
        let db = movie_db();
        assert!(db.is_finalized());
        let title = db.catalog().attr_id("movie", "title").unwrap();
        assert_eq!(db.index(title).unwrap().doc_count(), 2);
        let fk = db.catalog().foreign_keys()[0];
        let js = db.fk_stats(fk).unwrap();
        assert_eq!((js.pairs, js.referenced_distinct), (2, 2));
        assert_eq!((js.referencing_rows, js.referenced_rows), (2, 2));
        assert!(js.nmi > 0.9);
    }

    #[test]
    fn insert_maintains_indexes_incrementally() {
        let mut db = movie_db();
        assert!(db.is_finalized());
        assert_eq!(
            db.search_score(db.catalog().attr_id("movie", "title").unwrap(), "oz"),
            0.0
        );
        db.insert("person", Row::new(vec![3.into(), "Noel Langley".into()]))
            .unwrap();
        db.insert(
            "movie",
            Row::new(vec![12.into(), "The Wizard of Oz".into(), 1.into()]),
        )
        .unwrap();
        assert!(db.is_finalized(), "mutations keep the database finalized");
        let title = db.catalog().attr_id("movie", "title").unwrap();
        assert!(db.search_score(title, "oz") > 0.0);
        assert_eq!(db.index(title).unwrap().doc_count(), 3);
        let js = db.fk_stats(db.catalog().foreign_keys()[0]).unwrap();
        assert_eq!((js.referencing_rows, js.referenced_rows), (3, 3));
        assert_eq!((js.pairs, js.referenced_distinct), (3, 2));
        assert_matches_rebuild(&db);
    }

    #[test]
    fn delete_restricts_and_maintains() {
        let mut db = movie_db();
        // Fleming still directs a movie: restricted.
        let err = db.delete("person", &[Value::Int(1)]).unwrap_err();
        assert!(matches!(err, StoreError::ForeignKeyViolation(_)));
        // Remove the movie first, then the person.
        db.delete("movie", &[Value::Int(10)]).unwrap();
        db.delete("person", &[Value::Int(1)]).unwrap();
        let title = db.catalog().attr_id("movie", "title").unwrap();
        assert_eq!(db.search_score(title, "wind"), 0.0);
        assert!(db.search_score(title, "casablanca") > 0.0);
        assert_eq!(db.row_count(db.catalog().table_id("movie").unwrap()), 1);
        // Unknown key.
        assert!(matches!(
            db.delete("movie", &[Value::Int(10)]).unwrap_err(),
            StoreError::RowNotFound(_)
        ));
        assert!(db.validate().is_ok());
        assert_matches_rebuild(&db);
    }

    #[test]
    fn update_maintains_indexes_and_stats() {
        let mut db = movie_db();
        let title = db.catalog().attr_id("movie", "title").unwrap();
        db.update(
            "movie",
            &[Value::Int(10)],
            Row::new(vec![10.into(), "The Wizard of Oz".into(), 1.into()]),
        )
        .unwrap();
        assert_eq!(db.search_score(title, "wind"), 0.0);
        assert!(db.search_score(title, "wizard") > 0.0);
        // FK change to a missing target rejected.
        let err = db
            .update(
                "movie",
                &[Value::Int(10)],
                Row::new(vec![10.into(), "The Wizard of Oz".into(), 99.into()]),
            )
            .unwrap_err();
        assert!(matches!(err, StoreError::ForeignKeyViolation(_)));
        // PK change of a referenced row rejected (movies point at person 1).
        let err = db
            .update(
                "person",
                &[Value::Int(1)],
                Row::new(vec![5.into(), "Victor Fleming".into()]),
            )
            .unwrap_err();
        assert!(matches!(err, StoreError::ForeignKeyViolation(_)));
        // PK change of an unreferenced row is fine and re-keys the index.
        db.delete("movie", &[Value::Int(11)]).unwrap();
        db.update(
            "person",
            &[Value::Int(2)],
            Row::new(vec![6.into(), "Mervyn LeRoy".into()]),
        )
        .unwrap();
        let name = db.catalog().attr_id("person", "name").unwrap();
        assert!(db.search_score(name, "leroy") > 0.0);
        assert_eq!(db.search_score(name, "curtiz"), 0.0);
        assert!(db.validate().is_ok());
        assert_matches_rebuild(&db);
    }

    #[test]
    fn deferred_stats_batch_matches_per_record_refresh() {
        let mut db = movie_db();
        let title = db.catalog().attr_id("movie", "title").unwrap();
        let fk = db.catalog().foreign_keys()[0];
        let rows_before = db.fk_stats(fk).unwrap().referencing_rows;
        db.with_stats_deferred(|db| {
            db.insert("person", Row::new(vec![3.into(), "Noel Langley".into()]))
                .unwrap();
            db.insert(
                "movie",
                Row::new(vec![12.into(), "The Wizard of Oz".into(), 3.into()]),
            )
            .unwrap();
            // Indexes are exact mid-batch; stats are stale until the scope
            // closes.
            assert!(db.search_score(title, "wizard") > 0.0);
            assert_eq!(db.fk_stats(fk).unwrap().referencing_rows, rows_before);
            // Nested scopes coalesce into the outermost batch.
            db.with_stats_deferred(|db| {
                db.insert(
                    "movie",
                    Row::new(vec![13.into(), "Advise and Consent".into(), Value::Null]),
                )
                .unwrap();
            });
            assert_eq!(db.fk_stats(fk).unwrap().referencing_rows, rows_before);
        });
        assert_eq!(db.fk_stats(fk).unwrap().referencing_rows, rows_before + 2);
        assert_matches_rebuild(&db);
        assert!(db.validate().is_ok());
    }

    #[test]
    fn panic_inside_deferred_batch_still_refreshes_and_closes_the_scope() {
        let mut db = movie_db();
        let fk = db.catalog().foreign_keys()[0];
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            db.with_stats_deferred(|db| {
                db.insert(
                    "movie",
                    Row::new(vec![12.into(), "The Wizard of Oz".into(), 1.into()]),
                )
                .unwrap();
                panic!("batch aborted after an applied insert");
            })
        }));
        assert!(unwound.is_err());
        // The unwind drained the dirty set: the applied insert is visible
        // in the join statistics, bit-identical to a cold finalize.
        assert_eq!(db.fk_stats(fk).unwrap().referencing_rows, 3);
        assert_matches_rebuild(&db);
        // No scope was left open: a single mutation refreshes immediately.
        db.delete("movie", &[Value::Int(12)]).unwrap();
        assert_eq!(db.fk_stats(fk).unwrap().referencing_rows, 2);
        assert_matches_rebuild(&db);
    }

    #[test]
    fn mutations_before_finalize_stay_lazy() {
        let mut c = Catalog::new();
        c.define_table("t")
            .unwrap()
            .pk("id", DataType::Int)
            .unwrap()
            .col("name", DataType::Text)
            .unwrap()
            .finish();
        let mut db = Database::new(c).unwrap();
        db.insert("t", Row::new(vec![1.into(), "alpha".into()]))
            .unwrap();
        assert!(!db.is_finalized());
        let name = db.catalog().attr_id("t", "name").unwrap();
        assert!(db.index(name).is_none(), "no index work before finalize");
        db.delete("t", &[Value::Int(1)]).unwrap();
        db.insert("t", Row::new(vec![2.into(), "beta".into()]))
            .unwrap();
        db.finalize();
        assert!(db.search_score(name, "beta") > 0.0);
        assert_eq!(db.search_score(name, "alpha"), 0.0);
    }
}
