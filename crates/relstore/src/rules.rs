//! The write rules, once for every store whose rows are spread over one
//! or more partitions ([`Partitions`]): [`insert`], [`delete`], [`update`],
//! validation's foreign-key pass and the statistics-deferral scope. A
//! [`Database`](crate::Database) is the one-partition instance and a
//! sharded store the N-partition one, so both give the same verdicts with
//! the same errors.
//!
//! A mutation checks the row's shape, then its foreign-key targets, then
//! the restrictive rule (no live row may keep referencing a key that
//! disappears), then primary-key uniqueness. All of it runs before
//! anything mutates, so a rejected record leaves the store as it was and a
//! log of accepted and rejected records replays deterministically.

use std::collections::BTreeSet;

use crate::error::StoreError;
use crate::row::{Row, RowId};
use crate::schema::{Catalog, ForeignKey, TableId};
use crate::stats::Target;
use crate::table::TableData;
use crate::value::Value;

type Result<T> = std::result::Result<T, StoreError>;

/// A store the write rules run over: each row lives on the partition its
/// primary key belongs to, and a foreign key is named by its position in
/// [`Catalog::foreign_keys`]. The slot-level mutations run unchecked and
/// keep per-row derived state (indexes, reference counts) exact; they take
/// a [`Checked`], so only the rules can call them. The two hooks,
/// [`Partitions::references`] and [`Partitions::refresh_stats`], are what
/// stores really do differently.
pub trait Partitions {
    /// The full catalog, foreign keys included.
    fn catalog(&self) -> &Catalog;

    /// Number of partitions.
    fn partition_count(&self) -> usize;

    /// The rows of `table` on `partition`.
    fn rows(&self, partition: usize, table: TableId) -> &TableData;

    /// The partition and slot of the live row of `table` keyed `key`.
    fn locate(&self, table: TableId, key: &[Value]) -> Option<Target>;

    /// The partition a row of `table` belongs on, by its primary key.
    fn home(&self, table: TableId, row: &Row) -> usize;

    /// Store `row` in a fresh slot on `partition`; fails only if the
    /// partition already holds its key.
    fn insert_at(
        &mut self,
        partition: usize,
        table: TableId,
        row: Row,
        _: Checked,
    ) -> Result<RowId>;

    /// Tombstone the live row at `at`, returning it.
    fn delete_at(&mut self, table: TableId, at: Target, _: Checked) -> Row;

    /// Replace the live row at `at` in its slot, returning the old row;
    /// fails only if the partition already holds the new key.
    fn update_at(&mut self, table: TableId, at: Target, row: Row, _: Checked) -> Result<Row>;

    /// Live rows whose value of foreign key `fk` is the key of the row at
    /// `at`, that row included if it references itself. A count above 2
    /// may read 2: the restrictive rule tells only none, one and more.
    fn references(&self, fk: usize, at: Target) -> u64;

    /// Bring the statistics of foreign key `fk` up to the current rows.
    fn refresh_stats(&mut self, fk: usize);

    /// The foreign keys awaiting refresh while a [`with_stats_deferred`]
    /// scope is open, `None` outside one.
    fn stats_dirty(&mut self, _: Checked) -> &mut Option<BTreeSet<usize>>;
}

/// Proof that the rules are the caller: only they make one, so no other
/// code mutates a store unchecked or switches its refresh off. A store may
/// pass the one it was given on to a store it holds.
///
/// ```compile_fail
/// let _ = relstore::rules::Checked(());
/// ```
#[derive(Debug)]
pub struct Checked(());

/// Insert with full integrity checking. Equal keys share a home
/// partition, so its uniqueness check is global.
pub fn insert<S: Partitions>(store: &mut S, table: &str, row: Row) -> Result<RowId> {
    let catalog = store.catalog();
    let tid = catalog.table_id(table)?;
    // Shape first: FK columns are addressed by position, so a short row
    // must be rejected (not panic) before the FK check.
    TableData::check_row(catalog, catalog.table(tid), &row)?;
    check_targets(store, tid, &row)?;
    let rid = store.insert_at(store.home(tid, &row), tid, row, Checked(()))?;
    touched(store, tid);
    Ok(rid)
}

/// Delete the row keyed `key`, returning its slot, unless another live row
/// still references it (restrictive referential integrity).
pub fn delete<S: Partitions>(store: &mut S, table: &str, key: &[Value]) -> Result<RowId> {
    let tid = store.catalog().table_id(table)?;
    let at = find(store, tid, key)?;
    check_unreferenced(store, tid, at, None)?;
    store.delete_at(tid, at, Checked(()));
    touched(store, tid);
    Ok(at.1)
}

/// Replace the row keyed `key` with `row`, returning its slot afterwards.
/// A changed key must be unique and, like a deleted one, unreferenced
/// (the updated row is judged by its new values). A row whose new key
/// belongs on another partition moves there: inserted first, so a
/// duplicate rejects it before anything changed, then deleted from the old.
pub fn update<S: Partitions>(store: &mut S, table: &str, key: &[Value], row: Row) -> Result<RowId> {
    let catalog = store.catalog();
    let tid = catalog.table_id(table)?;
    let at = find(store, tid, key)?;
    let schema = catalog.table(tid);
    TableData::check_row(catalog, schema, &row)?;
    check_targets(store, tid, &row)?;
    // `key` located a row, so it has the primary key's arity.
    let new_key = schema
        .primary_key
        .iter()
        .map(|a| catalog.attribute(*a).position);
    let moved = new_key.zip(key).any(|(pos, old)| row.get(pos) != old);
    if moved {
        check_unreferenced(store, tid, at, Some(&row))?;
    }
    let home = if moved { store.home(tid, &row) } else { at.0 };
    let rid = if home == at.0 {
        store.update_at(tid, at, row, Checked(()))?;
        at.1
    } else {
        let rid = store.insert_at(home, tid, row, Checked(()))?;
        store.delete_at(tid, at, Checked(()));
        rid
    };
    touched(store, tid);
    Ok(rid)
}

/// Validation's foreign-key pass for `fk`: every non-null value of its
/// column, on every partition, has a target.
pub fn validate_references<S: Partitions>(store: &S, fk: ForeignKey) -> Result<()> {
    let catalog = store.catalog();
    let (from, target) = (catalog.attribute(fk.from), catalog.attribute(fk.to).table);
    for p in 0..store.partition_count() {
        for (_, row) in store.rows(p, from.table).iter() {
            let v = row.get(from.position);
            if !v.is_null() && store.locate(target, std::slice::from_ref(v)).is_none() {
                let column = catalog.qualified_name(fk.from);
                return Err(StoreError::ForeignKeyViolation(format!("{column} = {v}")));
            }
        }
    }
    Ok(())
}

/// Run `f` with the statistics refresh deferred to its end: mutations
/// inside only mark their tables' foreign keys dirty, and when `f` returns
/// — or unwinds — each dirty key is refreshed once, however many records
/// touched either of its tables. The final state equals per-mutation
/// refresh; only statistics read inside `f` may be stale. Nested scopes
/// coalesce into the outermost.
pub fn with_stats_deferred<S: Partitions, R>(store: &mut S, f: impl FnOnce(&mut S) -> R) -> R {
    /// Drains the dirty set on exit, unwinds included, so a panicking
    /// batch cannot leave statistics refresh switched off.
    struct Scope<'a, S: Partitions> {
        store: &'a mut S,
        outermost: bool,
    }
    impl<S: Partitions> Drop for Scope<'_, S> {
        fn drop(&mut self) {
            if !self.outermost {
                return;
            }
            let dirty = self.store.stats_dirty(Checked(())).take();
            for fk in dirty.into_iter().flatten() {
                self.store.refresh_stats(fk);
            }
        }
    }
    let dirty = store.stats_dirty(Checked(()));
    let outermost = dirty.is_none();
    if outermost {
        *dirty = Some(BTreeSet::new());
    }
    let scope = Scope { store, outermost };
    f(&mut *scope.store)
}

/// After a mutation of `table`: refresh each foreign key touching it, or
/// mark it dirty inside a deferral scope.
pub(crate) fn touched<S: Partitions>(store: &mut S, table: TableId) {
    for i in 0..store.catalog().foreign_keys().len() {
        let (catalog, fk) = (store.catalog(), store.catalog().foreign_keys()[i]);
        if catalog.attribute(fk.from).table != table && catalog.attribute(fk.to).table != table {
            continue;
        }
        match store.stats_dirty(Checked(())) {
            Some(dirty) => _ = dirty.insert(i),
            None => store.refresh_stats(i),
        }
    }
}

/// Render a PK tuple for error messages.
pub(crate) fn fmt_key(key: &[Value]) -> String {
    Row::new(key.to_vec()).to_string()
}

/// Where the live row of `table` keyed `key` is, or `RowNotFound`.
fn find<S: Partitions>(store: &S, table: TableId, key: &[Value]) -> Result<Target> {
    store.locate(table, key).ok_or_else(|| {
        let name = &store.catalog().table(table).name;
        StoreError::RowNotFound(format!("{name}{}", fmt_key(key)))
    })
}

/// Every non-null FK value of a candidate row of `table` has a target.
fn check_targets<S: Partitions>(store: &S, table: TableId, row: &Row) -> Result<()> {
    let catalog = store.catalog();
    for fk in catalog.foreign_keys() {
        let from = catalog.attribute(fk.from);
        if from.table != table || row.get(from.position).is_null() {
            continue;
        }
        let v = row.get(from.position);
        let target = catalog.attribute(fk.to).table;
        if store.locate(target, std::slice::from_ref(v)).is_none() {
            return Err(StoreError::ForeignKeyViolation(format!(
                "{} = {v} has no target in {}",
                catalog.qualified_name(fk.from),
                catalog.table(target).name
            )));
        }
    }
    Ok(())
}

/// The restrictive rule for the row of `table` at `at`, whose key is about
/// to disappear: no live row may reference it afterwards. Its own
/// reference dies with it on delete and is judged by `replacement` on
/// update.
fn check_unreferenced<S: Partitions>(
    store: &S,
    table: TableId,
    at: Target,
    replacement: Option<&Row>,
) -> Result<()> {
    let catalog = store.catalog();
    let victim = store.rows(at.0, table).row(at.1);
    for (i, fk) in catalog.foreign_keys().iter().enumerate() {
        let (from, to) = (catalog.attribute(fk.from), catalog.attribute(fk.to));
        if to.table != table {
            continue;
        }
        let key = victim.get(to.position);
        let refers = |row: &Row| from.table == table && row.get(from.position) == key;
        let references = store
            .references(i, at)
            .saturating_sub(u64::from(refers(victim)))
            + u64::from(replacement.is_some_and(refers));
        if references > 0 {
            return Err(StoreError::ForeignKeyViolation(format!(
                "{} = {key} still references {}",
                catalog.qualified_name(fk.from),
                catalog.qualified_name(fk.to)
            )));
        }
    }
    Ok(())
}
