//! The sharded store: N FK-less shard databases behind one full catalog.
//!
//! ## Merge laws (what makes sharded ≡ unsharded, bit for bit)
//!
//! * **Integer domain first.** Everything that crosses a shard boundary is
//!   an integer: document counts, total token lengths, per-token document
//!   frequencies, max term frequencies, join pair and row counts. Integer
//!   sums and maxes are exactly associative, so the merge order cannot
//!   perturb them.
//! * **Reference counts are live integer state.** Each foreign key keeps a
//!   [`JoinCounts`]: one count per referenced row slot per shard, moved by
//!   ±1 as each record is applied, so a commit never rescans a table to
//!   learn how often a key is referenced.
//! * **One float evaluation.** Every floating-point expression (idf, tf
//!   saturation, normalization, NMI entropy) is evaluated **once**, from
//!   the merged integers, through the *same* code path the unsharded
//!   database uses — never "merged" in the float domain. The join entropy
//!   is evaluated once per dirty foreign key, from the counts' histogram,
//!   through the `join_stats` core.
//! * **Phrase scatter under injected idfs.** Multi-token scoring needs
//!   per-row conjunctive sums. A row's postings live wholly on its shard,
//!   so each shard reruns the conjunctive accumulation under the *merged*
//!   idfs and the gather step takes the max — the only cross-shard float
//!   operation, and max is exact.
//! * **Global checks, local storage, one set of rules.** Shard catalogs
//!   carry no foreign keys; the store runs relstore's write rules
//!   ([`relstore::rules`]) over the shard set as N partitions, the code
//!   [`Database`] runs as one, so every integrity check is global and runs
//!   *before* any shard mutates, with the unsharded order and errors.
//!   Records a shard is asked to apply therefore never fail locally, which
//!   is what keeps per-shard WAL replay deterministic, and each is logged
//!   on the shard the rules wrote it to.

use std::collections::{BTreeSet, HashMap};
use std::slice;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use quest_serve::ApplyReport;
use quest_wal::ChangeRecord;
use relstore::index::{KeywordProbe, ScoreAccumulator};
use relstore::rules::{self, Checked};
use relstore::sql::{ResultSet, SelectStatement};
use relstore::stats::{JoinCounts, JoinStats, Target};
use relstore::{
    AttrId, Catalog, Database, ForeignKey, Partitions, Row, RowId, StoreError, TableData, TableId,
    Value,
};

use crate::config::ShardConfig;
use crate::error::ShardError;
use crate::partition::Partitioner;

type Result<T, E = StoreError> = std::result::Result<T, E>;

/// The scatter's handles into the global registry, resolved once per store
/// (on its first instrumented scatter) so a keyword probe records through
/// handle-local atomics: no label formatting, no registry lock.
#[derive(Debug)]
struct ScatterMetrics {
    /// `quest_shard_scatter_ns{shard="<i>"}`, indexed by shard.
    per_shard: Vec<quest_obs::Histogram>,
    probes: quest_obs::Counter,
    used: quest_obs::Counter,
}

impl ScatterMetrics {
    fn resolve(shard_count: usize) -> ScatterMetrics {
        let registry = quest_obs::global();
        registry.describe(
            crate::names::SCATTER_PROBES,
            "Per-shard index probes issued by keyword scatters.",
        );
        registry.describe(
            crate::names::SCATTER_USED,
            "Scatter results the gather used (nonzero merged attribute scores).",
        );
        ScatterMetrics {
            per_shard: (0..shard_count)
                .map(|s| {
                    registry.histogram_with(crate::names::SCATTER, &[("shard", &s.to_string())])
                })
                .collect(),
            probes: registry.counter(crate::names::SCATTER_PROBES),
            used: registry.counter(crate::names::SCATTER_USED),
        }
    }

    /// Publish one scatter: the per-shard walls (labeled latency
    /// histograms) and its read amplification — per-shard index probes
    /// issued versus results the gather used (attribute slots whose merged
    /// score came back nonzero; a zero slot contributes nothing to emission
    /// downstream).
    fn record(&self, walls: &[u64], probes: u64, scores: &[f64]) {
        for (histogram, &ns) in self.per_shard.iter().zip(walls) {
            histogram.record(ns);
        }
        self.probes.add(probes);
        let used = scores.iter().filter(|s| **s != 0.0).count();
        self.used.add(used as u64);
    }
}

/// What one scatter reuses across attributes: the merge accumulator, the
/// count of per-shard index probes issued, and — when instrumented — a
/// running clock whose laps are charged to per-shard wall slots.
struct ProbeScratch {
    acc: ScoreAccumulator,
    probes: u64,
    /// Lap clock; `None` on an uninstrumented scatter (no clock reads).
    clock: Option<Instant>,
    /// Per-shard walls in nanoseconds (empty when uninstrumented).
    walls: Vec<u64>,
}

impl ProbeScratch {
    fn new(probe: &KeywordProbe, timed_shards: Option<usize>) -> ProbeScratch {
        ProbeScratch {
            acc: ScoreAccumulator::new(probe.tokens().len()),
            probes: 0,
            clock: timed_shards.map(|_| Instant::now()),
            walls: vec![0; timed_shards.unwrap_or(0)],
        }
    }

    /// Restart the clock: the time since the last lap belongs to no shard.
    fn start_lap(&mut self) {
        if let Some(last) = &mut self.clock {
            *last = Instant::now();
        }
    }

    /// Charge the time since the last lap (or restart) to `shard`.
    fn end_lap(&mut self, shard: usize) {
        if let Some(last) = &mut self.clock {
            let now = Instant::now();
            self.walls[shard] += quest_obs::duration_ns(now - *last);
            *last = now;
        }
    }
}

/// A hash-partitioned database: one full catalog, N FK-less shards, and
/// merged per-FK join statistics that are bit-identical to the unsharded
/// computation. Shards keep no statistics of their own: the join statistic
/// is the only one maintained (its reader is the wrapper's
/// `join_informativeness`), and an FK-less shard has no join.
///
/// Mutations are relstore's shared write rules over the shard set as N
/// [`Partitions`], where [`Database`] is one. The store's own part is its
/// two hooks, over one live [`JoinCounts`] per foreign key — a `u32` per
/// referenced row slot per shard, moved by ±1 per applied record: a
/// restrictive delete reads one count per foreign key that references the
/// victim's table, and a commit derives one entropy per dirty foreign key.
#[derive(Debug)]
pub struct ShardedStore {
    /// The *full* catalog, foreign keys included — the schema queries and
    /// global integrity checks see.
    catalog: Catalog,
    partitioner: Partitioner,
    /// One database per shard, each over `catalog.without_foreign_keys()`.
    shards: Vec<Database>,
    /// Attributes with a full-text index on some shard, ascending — the
    /// only ones a keyword scatter probes (every other score is 0).
    /// Computed once at build: mutations maintain existing indexes and
    /// never create one for a new attribute.
    indexed_attrs: Vec<AttrId>,
    /// Registry handles of the scatter metrics (see [`ScatterMetrics`]).
    scatter_metrics: OnceLock<ScatterMetrics>,
    /// Live reference counts, one per foreign key, in catalog FK order.
    join_counts: Vec<JoinCounts>,
    /// Merged join statistics derived from the counts (bit-identical NMI).
    join_stats: HashMap<ForeignKey, JoinStats>,
    /// When `Some`, statistics derivation is deferred: mutations record the
    /// positions of the foreign keys they touch here, and the batch end
    /// derives each dirty foreign key once.
    stats_dirty: Option<BTreeSet<usize>>,
    /// Gathered scratch databases for join execution, keyed by the sorted
    /// FROM-table set; invalidated by every mutation. Interior-mutable so
    /// read paths (`execute`, `has_results`) can fill it.
    scratch: Mutex<HashMap<Vec<TableId>, Arc<Database>>>,
    /// The slot mutations of the last write call (one record or a batch),
    /// in order: where the rules put each accepted record, which is what
    /// [`ShardedStore::route`] logs. Each of the store's own write methods
    /// starts it afresh; rules run on the store from outside append to it.
    landings: Vec<Landing>,
}

/// One slot mutation the write rules made, by shard.
#[derive(Debug, Clone, Copy)]
enum Landing {
    Insert(usize),
    Delete(usize),
    Update(usize),
}

impl ShardedStore {
    /// An empty sharded store over `catalog`.
    pub fn new(catalog: Catalog, config: &ShardConfig) -> Result<ShardedStore, ShardError> {
        ShardedStore::partition(catalog, config, &[])
    }

    /// Shard an existing database: every row is routed by the hash of its
    /// primary key, shard indexes are built per shard, and the merged
    /// statistics are computed once.
    pub fn from_database(db: &Database, config: &ShardConfig) -> Result<ShardedStore, ShardError> {
        ShardedStore::partition(db.catalog().clone(), config, std::slice::from_ref(db))
    }

    /// Reassemble a sharded store from recovered shard databases (the
    /// reopen path of [`ShardedPrimary`](crate::ShardedPrimary), which
    /// hands over bare rows: each shard is finalized here, once). Verifies
    /// the shard count, the structural agreement of every shard's catalog
    /// with `catalog` (modulo foreign keys), and — via
    /// [`ShardedStore::validate`], each shard's structure once —
    /// placement and global referential integrity.
    pub fn from_shards(
        catalog: Catalog,
        shards: Vec<Database>,
        config: &ShardConfig,
    ) -> Result<ShardedStore, ShardError> {
        let mut store = ShardedStore::empty(catalog, config)?;
        if shards.len() != config.shard_count {
            return Err(ShardError::Config(format!(
                "expected {} shard databases, got {}",
                config.shard_count,
                shards.len()
            )));
        }
        let catalog = &store.catalog;
        for (i, shard) in shards.iter().enumerate() {
            let sc = shard.catalog();
            if sc.table_count() != catalog.table_count()
                || sc.attribute_count() != catalog.attribute_count()
                || !sc.foreign_keys().is_empty()
            {
                return Err(ShardError::Config(format!(
                    "shard {i} catalog does not match the set's catalog \
                     (want {} tables / {} attributes, FK-less; got {} / {} with {} FKs)",
                    catalog.table_count(),
                    catalog.attribute_count(),
                    sc.table_count(),
                    sc.attribute_count(),
                    sc.foreign_keys().len()
                )));
            }
        }
        store.shards = shards;
        store.finalize_shards();
        store.validate()?;
        store.rebuild_all_stats();
        Ok(store)
    }

    /// Route every live row of `sources` to the shard its key hashes to —
    /// tables, then sources, then slots, so placement and slot order depend
    /// only on the rows — then build the shard indexes and the merged
    /// statistics once.
    fn partition(
        catalog: Catalog,
        config: &ShardConfig,
        sources: &[Database],
    ) -> Result<ShardedStore, ShardError> {
        let mut store = ShardedStore::empty(catalog, config)?;
        for schema in store.catalog.tables() {
            for (_, row) in sources
                .iter()
                .flat_map(|db| db.table_data(schema.id).iter())
            {
                let s = store.home(schema.id, row);
                store.shards[s].insert_unchecked(&schema.name, row.clone())?;
            }
        }
        store.finalize_shards();
        store.rebuild_all_stats();
        Ok(store)
    }

    fn empty(catalog: Catalog, config: &ShardConfig) -> Result<ShardedStore, ShardError> {
        let partitioner = Partitioner::new(config)?;
        catalog.validate()?;
        let shard_catalog = catalog.without_foreign_keys();
        let shards = (0..config.shard_count)
            .map(|_| Database::new(shard_catalog.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedStore {
            catalog,
            partitioner,
            shards,
            indexed_attrs: Vec::new(),
            scatter_metrics: OnceLock::new(),
            join_counts: Vec::new(),
            join_stats: HashMap::new(),
            stats_dirty: None,
            scratch: Mutex::new(HashMap::new()),
            landings: Vec::new(),
        })
    }

    /// Build (or rebuild) every shard's indexes and list the attributes a
    /// keyword scatter has to probe. Shards finalize one after another:
    /// each `finalize` already spreads its indexes over relstore's job
    /// runner, and a thread per shard on top would nest spawns.
    fn finalize_shards(&mut self) {
        for db in self.shards.iter_mut().filter(|db| !db.is_finalized()) {
            db.finalize();
        }
        self.indexed_attrs = (0..self.catalog.attribute_count())
            .map(|a| AttrId(a as u32))
            .filter(|a| self.shards.iter().any(|s| s.index(*a).is_some()))
            .collect();
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The full catalog (foreign keys included).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The routing function.
    pub fn partitioner(&self) -> &Partitioner {
        &self.partitioner
    }

    /// One shard's database (FK-less catalog).
    pub fn shard(&self, i: usize) -> &Database {
        &self.shards[i]
    }

    /// All shard databases, in shard order.
    pub fn shards(&self) -> &[Database] {
        &self.shards
    }

    /// Live rows of a table, summed over shards.
    pub fn row_count(&self, table: TableId) -> usize {
        self.shards.iter().map(|s| s.row_count(table)).sum()
    }

    /// Merged statistics of one foreign key.
    pub fn fk_stats(&self, fk: ForeignKey) -> Option<&JoinStats> {
        self.join_stats.get(&fk)
    }

    // ------------------------------------------------------------------
    // Mutations — the shared write rules over the shard set
    // ------------------------------------------------------------------

    /// Insert with full integrity checking ([`rules::insert`]), on the
    /// shard the row's primary key hashes to.
    pub fn insert(&mut self, table: &str, row: Row) -> Result<RowId, StoreError> {
        self.landings.clear();
        rules::insert(self, table, row)
    }

    /// Delete by primary key ([`rules::delete`]): a referencing row on
    /// *any* shard blocks it.
    pub fn delete(&mut self, table: &str, key: &[Value]) -> Result<RowId, StoreError> {
        self.landings.clear();
        rules::delete(self, table, key)
    }

    /// Replace the row at `key` with `row` ([`rules::update`]); a new key
    /// that hashes to another shard moves the row there.
    pub fn update(&mut self, table: &str, key: &[Value], row: Row) -> Result<RowId, StoreError> {
        self.landings.clear();
        rules::update(self, table, key, row)
    }

    /// Apply one WAL change record through the checked mutation API.
    pub fn apply_record(&mut self, record: &ChangeRecord) -> Result<RowId, StoreError> {
        self.landings.clear();
        record.apply(self)
    }

    /// Apply a mutation batch ([`ApplyReport::apply`]): indexes and
    /// reference counts stay exact per record, and the merged join
    /// statistics are derived once per dirty foreign key at the batch end.
    pub fn apply_changes(&mut self, changes: &[ChangeRecord], report: &mut ApplyReport) {
        self.landings.clear();
        report.apply(self, changes);
    }

    /// The shard logs' share of the last [`ShardedStore::apply_changes`]
    /// call, whose input was `batch` and whose outcome `report`: each
    /// accepted record, in order, on the shard the rules wrote it to. A
    /// row the rules moved between shards (inserted on the new one, then
    /// deleted from the old) is logged as that delete and that insert.
    pub(crate) fn route(
        &self,
        batch: &[ChangeRecord],
        report: &ApplyReport,
    ) -> Vec<Vec<ChangeRecord>> {
        let mut per_shard = vec![Vec::new(); self.shards.len()];
        let mut rejected = report.rejected.iter().map(|(i, _)| *i).peekable();
        let mut landings = self.landings.iter();
        let mut next = || *landings.next().expect("an accepted record landed");
        for (i, record) in batch.iter().enumerate() {
            if rejected.next_if_eq(&i).is_some() {
                continue;
            }
            match (record, next()) {
                (ChangeRecord::Update { table, key, row }, Landing::Insert(to)) => {
                    let Landing::Delete(from) = next() else {
                        unreachable!("a moved row is deleted from its old shard")
                    };
                    per_shard[from].push(ChangeRecord::Delete {
                        table: table.clone(),
                        key: key.clone(),
                    });
                    per_shard[to].push(ChangeRecord::Insert {
                        table: table.clone(),
                        row: row.clone(),
                    });
                }
                (_, Landing::Insert(s) | Landing::Delete(s) | Landing::Update(s)) => {
                    per_shard[s].push(record.clone());
                }
            }
        }
        per_shard
    }

    /// Follow one row's move on the shards: drop the gathered scratch
    /// databases (their rows are stale) and move the reference counts from
    /// `old` — the row that left its place in `tid`, if any — to the row
    /// now at `new`, if any. Per foreign key, the referenced side changes
    /// first (a key that left hands its count to the side map, a key that
    /// arrived adopts its dangling count), then the referencing side (the
    /// old value withdrawn, the new one counted), both resolved against the
    /// new state — the order [`JoinCounts`] documents, which keeps a row
    /// referencing itself right through a delete or a key change.
    fn row_moved(&mut self, tid: TableId, old: Option<(Target, &Row)>, new: Option<Target>) {
        self.scratch.lock().expect("scratch lock poisoned").clear();
        let new_row = new.map(|(s, rid)| self.shards[s].table_data(tid).row(rid));
        let catalog = &self.catalog;
        for (fk, counts) in catalog.foreign_keys().iter().zip(&mut self.join_counts) {
            let (from, to) = (catalog.attribute(fk.from), catalog.attribute(fk.to));
            if to.table == tid {
                let left = old.map(|(at, row)| (at, row.get(to.position)));
                let arrived = new.zip(new_row).map(|(at, row)| (at, row.get(to.position)));
                // An update that keeps its key keeps its slot: nothing moves.
                if left != arrived {
                    if let Some((at, key)) = left {
                        counts.remove_target(at, key);
                    }
                    if let Some((at, key)) = arrived {
                        counts.add_target(at, key);
                    }
                }
            }
            if from.table == tid {
                let (partitioner, shards) = (&self.partitioner, &self.shards);
                let target = |v: &Value| locate(partitioner, shards, to.table, slice::from_ref(v));
                if let Some((_, row)) = old {
                    let v = row.get(from.position);
                    if !v.is_null() {
                        counts.remove_reference(v, target(v));
                    }
                }
                if let Some(row) = new_row {
                    let v = row.get(from.position);
                    if !v.is_null() {
                        counts.add_reference(v, target(v));
                    }
                }
            }
        }
    }

    /// Full integrity check of the shard set: every shard's structural
    /// invariants, every row's placement (its PK must hash to the shard
    /// holding it), and the unsharded validator's foreign-key pass
    /// ([`rules::validate_references`]).
    pub fn validate(&self) -> Result<(), ShardError> {
        for (i, shard) in self.shards.iter().enumerate() {
            shard.validate_structure()?;
            for schema in self.catalog.tables() {
                for (_, row) in shard.table_data(schema.id).iter() {
                    let key = TableData::pk_of(&self.catalog, schema, row);
                    let want = self.partitioner.shard_of_key(&key);
                    if want != i {
                        return Err(ShardError::Placement(format!(
                            "{}{} lives on shard {i} but hashes to shard {want}",
                            schema.name,
                            Row::new(key)
                        )));
                    }
                }
            }
        }
        for fk in self.catalog.foreign_keys() {
            rules::validate_references(self, *fk)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Merged statistics
    // ------------------------------------------------------------------

    /// Count every live reference of `fk` across all shards, each resolved
    /// to the shard and slot holding its target (or to the dangling side
    /// map when none does).
    fn build_counts(&self, fk: ForeignKey) -> JoinCounts {
        let from = self.catalog.attribute(fk.from);
        let to_table = self.catalog.attribute(fk.to).table;
        JoinCounts::build(
            self.shards
                .iter()
                .flat_map(|shard| shard.table_data(from.table).iter())
                .map(|(_, row)| row.get(from.position))
                .filter(|v| !v.is_null())
                .map(|v| (v, self.locate(to_table, std::slice::from_ref(v)))),
        )
    }

    /// Derive the merged statistics of the foreign key at catalog position
    /// `i` from its counts and the two tables' live row totals.
    fn derive_join_stats(&mut self, i: usize) {
        let fk = self.catalog.foreign_keys()[i];
        let from_table = self.catalog.attribute(fk.from).table;
        let to_table = self.catalog.attribute(fk.to).table;
        let stats = self.join_counts[i].stats(
            self.row_count(from_table) as u64,
            self.row_count(to_table) as u64,
        );
        self.join_stats.insert(fk, stats);
    }

    /// Build every foreign key's counts from scratch — one job per foreign
    /// key on relstore's job runner (each is independent and comes back in
    /// catalog order, so the threads cannot perturb anything) — and derive
    /// the merged statistics from them. Only the store's constructors and
    /// `rebalance` call this; a commit moves the live counts instead.
    fn rebuild_all_stats(&mut self) {
        let fks = self.catalog.foreign_keys();
        self.join_counts = relstore::jobs::run(fks.len(), |i| self.build_counts(fks[i]));
        for i in 0..self.join_counts.len() {
            self.derive_join_stats(i);
        }
    }

    // ------------------------------------------------------------------
    // Scatter-gather scoring
    // ------------------------------------------------------------------

    /// The paper's search function over the shard set — bit-identical to
    /// `Database::search_score` on the unsharded union.
    pub fn search_score(&self, attr: AttrId, keyword: &str) -> f64 {
        match KeywordProbe::new(keyword) {
            Some(probe) => self.search_score_probe(attr, &probe),
            None => 0.0,
        }
    }

    /// [`ShardedStore::search_score`] for a prepared probe: absorb each
    /// shard's integer partials, evaluate the score formula once from the
    /// merged state, and — for phrases — rerun the conjunctive scan per
    /// shard under the merged idfs, gathering by max.
    pub fn search_score_probe(&self, attr: AttrId, probe: &KeywordProbe) -> f64 {
        self.score_probe(attr, probe, &mut ProbeScratch::new(probe, None))
    }

    /// One attribute's merged score, on the calling thread, visiting the
    /// shards in index order. `scratch` is the scatter's reused state: its
    /// accumulator is reset here, its probe count grows by one per shard
    /// index consulted, and — when it carries a clock — each shard's share
    /// of the work (partial absorb + conjunctive rescan) is added to that
    /// shard's wall slot. The scoring arithmetic is identical either way:
    /// the laps wrap the per-shard sections without reordering any float
    /// operation, so instrumented scores stay bit-identical (the shard
    /// identity suite runs with the global registry enabled).
    fn score_probe(&self, attr: AttrId, probe: &KeywordProbe, scratch: &mut ProbeScratch) -> f64 {
        scratch.acc.reset();
        let mut any_index = false;
        scratch.start_lap();
        for (s, shard) in self.shards.iter().enumerate() {
            if let Some(ix) = shard.index(attr) {
                any_index = true;
                scratch.probes += 1;
                scratch.acc.absorb(ix, probe);
            }
            scratch.end_lap(s);
        }
        if !any_index {
            // Not a full-text attribute: the unsharded store returns 0 too.
            return 0.0;
        }
        let raw = if probe.tokens().len() == 1 {
            scratch.acc.single_token_raw()
        } else if scratch.acc.any_token_absent() {
            0.0
        } else {
            let idfs = scratch.acc.idfs();
            let mut best: Option<f64> = None;
            scratch.start_lap();
            for (s, shard) in self.shards.iter().enumerate() {
                if let Some(ix) = shard.index(attr) {
                    if let Some(score) = ix.best_conjunctive_score(probe.tokens(), &idfs) {
                        best = match best {
                            Some(b) if b >= score => Some(b),
                            _ => Some(score),
                        };
                    }
                }
                scratch.end_lap(s);
            }
            best.unwrap_or(0.0)
        };
        relstore::index::normalize_score(raw, scratch.acc.normalization_coefficient())
    }

    /// One scatter for a whole keyword: the per-attribute score table,
    /// indexed by `AttrId`. Computing all attributes at once lets the
    /// emission pass above run from a lookup table instead of fanning out
    /// to every shard once per `(keyword, attribute)` pair.
    ///
    /// The scatter runs **inline on the calling thread**, attribute by
    /// attribute over the shards in index order: a probe is a few hash
    /// lookups per shard, far less than creating one OS thread costs, so
    /// keyword reads never reach the job runner. Only attributes with an
    /// index on some shard are probed (the rest score 0, as on the
    /// unsharded store), and the whole scatter shares one accumulator and
    /// one per-shard timing array.
    ///
    /// While the global registry is enabled, each shard's share of the
    /// scatter wall is summed across attributes into
    /// `quest_shard_scatter_ns{shard=<i>}`, and the per-shard index probes
    /// issued are counted against the results used.
    pub fn scatter_value_scores(&self, probe: &KeywordProbe) -> Vec<f64> {
        let metrics = quest_obs::global().is_enabled().then(|| {
            self.scatter_metrics
                .get_or_init(|| ScatterMetrics::resolve(self.shards.len()))
        });
        let mut scratch = ProbeScratch::new(probe, metrics.map(|_| self.shards.len()));
        let mut scores = vec![0.0; self.catalog.attribute_count()];
        for &attr in &self.indexed_attrs {
            scores[attr.0 as usize] = self.score_probe(attr, probe, &mut scratch);
        }
        if let Some(metrics) = metrics {
            metrics.record(&scratch.walls, scratch.probes, &scores);
        }
        scores
    }

    // ------------------------------------------------------------------
    // SQL execution
    // ------------------------------------------------------------------

    /// Gather the listed tables' rows into one scratch database (full
    /// catalog, no index build — the executor only reads raw rows), cached
    /// until the next mutation.
    fn gathered(&self, from: &[TableId]) -> Result<Arc<Database>, StoreError> {
        let mut key: Vec<TableId> = from.to_vec();
        key.sort_unstable_by_key(|t| t.0);
        key.dedup();
        if let Some(db) = self
            .scratch
            .lock()
            .expect("scratch lock poisoned")
            .get(&key)
        {
            return Ok(db.clone());
        }
        let db = Arc::new(self.union(&key)?);
        self.scratch
            .lock()
            .expect("scratch lock poisoned")
            .insert(key, db.clone());
        Ok(db)
    }

    /// Execute a generated SQL statement over the shard set.
    ///
    /// Single-table statements scatter to every shard (each scans only its
    /// own rows, one job per shard on relstore's job runner) and merge in
    /// shard order; join statements run over a gathered scratch
    /// database. Result rows come back in **canonical value order** (SQL
    /// set semantics — the unsharded executor's row order is a storage
    /// artifact that sharding legitimately permutes), `DISTINCT` dedups
    /// across shards, and `LIMIT` applies after the merge so the kept
    /// prefix is deterministic.
    pub fn execute(&self, stmt: &SelectStatement) -> Result<ResultSet, StoreError> {
        let mut inner = stmt.clone();
        inner.limit = None;
        let mut rs = if stmt.from.len() == 1 {
            let parts = relstore::jobs::run(self.shards.len(), |i| {
                relstore::sql::execute(&self.shards[i], &inner)
            });
            let mut merged: Option<ResultSet> = None;
            for part in parts {
                let part = part?;
                match &mut merged {
                    None => merged = Some(part),
                    Some(m) => m.rows.extend(part.rows),
                }
            }
            merged.expect("shard_count >= 1")
        } else {
            relstore::sql::execute(self.gathered(&stmt.from)?.as_ref(), &inner)?
        };
        rs.rows.sort_by(|a, b| a.values().cmp(b.values()));
        if stmt.distinct {
            rs.rows.dedup();
        }
        if let Some(l) = stmt.limit {
            rs.rows.truncate(l);
        }
        Ok(rs)
    }

    /// Whether the statement returns at least one row — a scatter with
    /// early exit for single-table statements, the gathered database for
    /// joins. Agrees exactly with the unsharded answer (a boolean has no
    /// row order to disagree about).
    pub fn has_results(&self, stmt: &SelectStatement) -> Result<bool, StoreError> {
        if stmt.from.len() == 1 {
            let mut probe = stmt.clone();
            probe.limit = Some(1);
            probe.distinct = false;
            for shard in &self.shards {
                if !relstore::sql::execute(shard, &probe)?.is_empty() {
                    return Ok(true);
                }
            }
            Ok(false)
        } else {
            relstore::sql::has_results(self.gathered(&stmt.from)?.as_ref(), stmt)
        }
    }

    // ------------------------------------------------------------------
    // Reshaping
    // ------------------------------------------------------------------

    /// Merge every shard back into one unsharded database (full catalog,
    /// finalized) — the reference the identity suite compares against, and
    /// an escape hatch back to single-store deployment.
    pub fn gather(&self) -> Result<Database, StoreError> {
        let tables: Vec<TableId> = self.catalog.tables().iter().map(|t| t.id).collect();
        let mut db = self.union(&tables)?;
        db.finalize();
        Ok(db)
    }

    /// The listed tables' rows, shard after shard, in one unfinalized
    /// database over the full catalog.
    fn union(&self, tables: &[TableId]) -> Result<Database, StoreError> {
        let mut db = Database::new(self.catalog.clone())?;
        for &tid in tables {
            let name = &self.catalog.table(tid).name;
            for (_, row) in self.shards.iter().flat_map(|s| s.table_data(tid).iter()) {
                db.insert_unchecked(name, row.clone())?;
            }
        }
        Ok(db)
    }

    /// Repartition into a new shard count. Rows are routed afresh by the
    /// same PK hash (deterministic order: tables, then source shards, then
    /// row slots), shard indexes are rebuilt, and merged statistics are
    /// recomputed — so an `n → m → n` round trip preserves every row and
    /// every merged score and statistic bit for bit (placement depends
    /// only on key hashes, never on history).
    pub fn rebalance(&self, config: &ShardConfig) -> Result<ShardedStore, ShardError> {
        ShardedStore::partition(self.catalog.clone(), config, &self.shards)
    }
}

/// The shard set as N partitions: a key's home is the shard it hashes to,
/// and a slot-level mutation runs on that shard, then moves the counts.
impl Partitions for ShardedStore {
    fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    fn partition_count(&self) -> usize {
        self.shards.len()
    }

    fn rows(&self, partition: usize, table: TableId) -> &TableData {
        self.shards[partition].table_data(table)
    }

    fn locate(&self, table: TableId, key: &[Value]) -> Option<Target> {
        locate(&self.partitioner, &self.shards, table, key)
    }

    fn home(&self, table: TableId, row: &Row) -> usize {
        self.partitioner.shard_of_row(&self.catalog, table, row)
    }

    fn insert_at(&mut self, s: usize, table: TableId, row: Row, checked: Checked) -> Result<RowId> {
        let rid = self.shards[s].insert_at(0, table, row, checked)?;
        self.row_moved(table, None, Some((s, rid)));
        self.landings.push(Landing::Insert(s));
        Ok(rid)
    }

    fn delete_at(&mut self, table: TableId, at: Target, checked: Checked) -> Row {
        let old = self.shards[at.0].delete_at(table, (0, at.1), checked);
        self.row_moved(table, Some((at, &old)), None);
        self.landings.push(Landing::Delete(at.0));
        old
    }

    fn update_at(&mut self, table: TableId, at: Target, row: Row, checked: Checked) -> Result<Row> {
        let old = self.shards[at.0].update_at(table, (0, at.1), row, checked)?;
        self.row_moved(table, Some((at, &old)), Some(at));
        self.landings.push(Landing::Update(at.0));
        Ok(old)
    }

    /// One read of the victim's live reference count.
    fn references(&self, fk: usize, at: Target) -> u64 {
        u64::from(self.join_counts[fk].count(at))
    }

    /// A derivation from the counts: no table is rescanned.
    fn refresh_stats(&mut self, fk: usize) {
        self.derive_join_stats(fk);
    }

    fn stats_dirty(&mut self, _: Checked) -> &mut Option<BTreeSet<usize>> {
        &mut self.stats_dirty
    }
}

/// The shard and slot of the live row of `table` keyed `key`: the shard
/// the key hashes to is the only one that can hold it. Free of the store,
/// so reference counts resolve targets while they are borrowed mutably.
fn locate(
    partitioner: &Partitioner,
    shards: &[Database],
    table: TableId,
    key: &[Value],
) -> Option<Target> {
    let owner = partitioner.shard_of_key(key);
    shards[owner]
        .table_data(table)
        .lookup_pk(key)
        .map(|rid| (owner, rid))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_imdb() -> Database {
        let scale = quest_data::imdb::ImdbScale {
            movies: 40,
            seed: 5,
        };
        quest_data::imdb::generate(&scale).expect("imdb generates")
    }

    #[test]
    fn scatter_probes_only_indexed_attributes_and_counts_what_it_issued() {
        let db = small_imdb();
        let indexed: Vec<AttrId> = db
            .catalog()
            .attributes()
            .iter()
            .map(|a| a.id)
            .filter(|a| db.index(*a).is_some())
            .collect();
        assert!(indexed.len() < db.catalog().attribute_count());
        for shards in [1, 3] {
            let store = ShardedStore::from_database(&db, &ShardConfig::new(shards)).unwrap();
            assert_eq!(store.indexed_attrs, indexed);
            let probe = KeywordProbe::new("drama").unwrap();
            let mut scratch = ProbeScratch::new(&probe, Some(shards));
            for &attr in &store.indexed_attrs {
                store.score_probe(attr, &probe, &mut scratch);
            }
            // One probe per (indexed attribute, shard) pair — not per
            // (attribute, shard) pair — and every shard got a wall slot.
            assert_eq!(scratch.probes, (indexed.len() * shards) as u64);
            assert_eq!(scratch.walls.len(), shards);
            // A non-indexed attribute scores 0 without issuing a probe.
            let unindexed = db
                .catalog()
                .attributes()
                .iter()
                .find(|a| db.index(a.id).is_none())
                .unwrap();
            let before = scratch.probes;
            assert_eq!(store.score_probe(unindexed.id, &probe, &mut scratch), 0.0);
            assert_eq!(scratch.probes, before);
        }
    }

    #[test]
    fn reopen_validation_reports_a_dangling_reference_like_the_database() {
        let mut db = small_imdb();
        let orphan = Row::new(vec![
            990_001.into(),
            "Orphaned".into(),
            Value::Null,
            Value::Null,
            990_009.into(),
        ]);
        db.insert_unchecked("movie", orphan).unwrap();
        let expected = db.validate().unwrap_err().to_string();
        assert!(
            expected.contains("movie.director_id = 990009"),
            "{expected}"
        );
        for shards in [1, 3] {
            let config = ShardConfig::new(shards);
            let split = ShardedStore::from_database(&db, &config).unwrap();
            let handed = split.shards().to_vec();
            match ShardedStore::from_shards(db.catalog().clone(), handed, &config) {
                Err(ShardError::Store(e)) => assert_eq!(e.to_string(), expected),
                other => panic!("{shards} shards: want the FK error, got {other:?}"),
            }
        }
    }

    #[test]
    fn route_logs_each_accepted_record_where_the_rules_wrote_it() {
        let mut store = ShardedStore::from_database(&small_imdb(), &ShardConfig::new(3)).unwrap();
        let shard = |id: i64| store.partitioner.shard_of_key(&[id.into()]);
        let (a, b) = (
            900_001,
            (900_002..).find(|b| shard(*b) != shard(900_001)).unwrap(),
        );
        let (sa, sb) = (shard(a), shard(b));
        let person = |id: i64, name: &str| vec![id.into(), name.into(), Value::Null];
        let table = "person".to_string();
        let insert = ChangeRecord::Insert {
            table: table.clone(),
            row: person(a, "Routed"),
        };
        let rename = ChangeRecord::Update {
            table: table.clone(),
            key: vec![a.into()],
            row: person(a, "Renamed"),
        };
        let moved = ChangeRecord::Update {
            table: table.clone(),
            key: vec![a.into()],
            row: person(b, "Moved"),
        };
        let missing = ChangeRecord::Delete {
            table: table.clone(),
            key: vec![a.into()],
        };
        let delete = ChangeRecord::Delete {
            table: table.clone(),
            key: vec![b.into()],
        };
        let batch = [
            insert.clone(),
            rename.clone(),
            moved,
            missing,
            delete.clone(),
        ];
        let mut report = ApplyReport::default();
        store.apply_changes(&batch, &mut report);
        assert_eq!(report.applied, 4);
        assert_eq!(report.rejected.len(), 1);
        let mut want = vec![Vec::new(); 3];
        want[sa].extend([insert, rename]);
        want[sa].push(ChangeRecord::Delete {
            table: table.clone(),
            key: vec![a.into()],
        });
        want[sb].push(ChangeRecord::Insert {
            table,
            row: person(b, "Moved"),
        });
        want[sb].push(delete);
        assert_eq!(store.route(&batch, &report), want);
    }

    #[test]
    fn panic_inside_deferred_batch_still_refreshes_and_closes_the_scope() {
        let db = small_imdb();
        let mut store = ShardedStore::from_database(&db, &ShardConfig::new(3)).unwrap();
        let person = |id: i64| Row::new(vec![id.into(), "Unwound".into(), Value::Null]);
        // Every merged join statistic is bit-identical to a cold build, and
        // `movie.director_id → person` has seen `added` more persons.
        let assert_fresh = |store: &ShardedStore, added: u64| {
            let cold = store.gather().unwrap();
            for fk in store.catalog.foreign_keys() {
                let (merged, whole) = (store.fk_stats(*fk).unwrap(), cold.fk_stats(*fk).unwrap());
                assert_eq!(merged, whole);
                assert_eq!(merged.nmi.to_bits(), whole.nmi.to_bits());
            }
            let fk = store.catalog.foreign_keys()[0];
            let before = db.fk_stats(fk).unwrap().referenced_rows;
            assert_eq!(store.fk_stats(fk).unwrap().referenced_rows, before + added);
        };
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rules::with_stats_deferred(&mut store, |store| {
                store.insert("person", person(900_001)).unwrap();
                panic!("batch aborted after an applied insert");
            })
        }));
        assert!(unwound.is_err());
        // The unwind drained the dirty set, so the applied insert shows; and
        // no scope was left open, so a single mutation refreshes at once.
        assert_fresh(&store, 1);
        store.insert("person", person(900_002)).unwrap();
        assert_fresh(&store, 2);
    }
}
