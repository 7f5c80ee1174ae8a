//! Row storage for a single table, with a primary-key index.

use std::collections::HashMap;

use crate::error::StoreError;
use crate::row::{Row, RowId};
use crate::schema::{Catalog, TableId, TableSchema};
use crate::value::Value;

/// Row storage for one table plus a hash index on the primary key.
///
/// Rows live in *slots*: a [`RowId`] is the slot position, assigned at
/// insertion and never reused, so references held elsewhere (inverted-index
/// postings, result sets) stay valid across deletes. A deleted row leaves a
/// tombstoned slot behind; [`TableData::iter`] skips tombstones and
/// [`TableData::len`] counts live rows only.
#[derive(Debug, Clone, Default)]
pub struct TableData {
    /// Slot-addressed rows; `None` marks a tombstone.
    rows: Vec<Option<Row>>,
    /// Number of live (non-tombstoned) rows.
    live: usize,
    /// PK value tuple -> row id. Keys are the PK column values in key order.
    pk_index: HashMap<Vec<Value>, RowId>,
}

impl TableData {
    /// Empty storage.
    pub fn new() -> TableData {
        TableData::default()
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the table has no live rows.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of slots, including tombstones (the next insert's [`RowId`]).
    pub fn slot_count(&self) -> usize {
        self.rows.len()
    }

    /// Row by id. Panics if the slot is tombstoned or out of range; use
    /// [`TableData::get`] when the id may refer to a deleted row.
    pub fn row(&self, id: RowId) -> &Row {
        self.rows[id.0 as usize]
            .as_ref()
            .expect("row slot is tombstoned")
    }

    /// Row by id, `None` for tombstoned or out-of-range slots.
    pub fn get(&self, id: RowId) -> Option<&Row> {
        self.rows.get(id.0 as usize).and_then(|s| s.as_ref())
    }

    /// Iterate `(RowId, &Row)` over live rows in slot (= insertion) order.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &Row)> {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|r| (RowId(i as u64), r)))
    }

    /// Iterate all slots in order, tombstones included (snapshot export).
    pub fn slots(&self) -> impl Iterator<Item = Option<&Row>> {
        self.rows.iter().map(|s| s.as_ref())
    }

    /// Find a row by its primary-key values.
    pub fn lookup_pk(&self, key: &[Value]) -> Option<RowId> {
        self.pk_index.get(key).copied()
    }

    /// Validate a row against the schema: arity, column types (with coercion
    /// per [`crate::types::DataType::accepts`]), and NOT NULL constraints.
    pub fn check_row(catalog: &Catalog, schema: &TableSchema, row: &Row) -> Result<(), StoreError> {
        if row.arity() != schema.attributes.len() {
            return Err(StoreError::TypeMismatch(format!(
                "table {} expects {} columns, row has {}",
                schema.name,
                schema.attributes.len(),
                row.arity()
            )));
        }
        for (pos, attr_id) in schema.attributes.iter().enumerate() {
            let attr = catalog.attribute(*attr_id);
            let v = row.get(pos);
            if v.is_null() {
                if !attr.nullable {
                    return Err(StoreError::NullViolation(format!(
                        "{}.{}",
                        schema.name, attr.name
                    )));
                }
                continue;
            }
            let vty = v.data_type().expect("non-null value has a type");
            if !attr.data_type.accepts(vty) {
                return Err(StoreError::TypeMismatch(format!(
                    "{}.{} expects {}, got {}",
                    schema.name, attr.name, attr.data_type, vty
                )));
            }
        }
        Ok(())
    }

    /// The primary-key value tuple of a row, in key order.
    pub fn pk_of(catalog: &Catalog, schema: &TableSchema, row: &Row) -> Vec<Value> {
        schema
            .primary_key
            .iter()
            .map(|a| row.get(catalog.attribute(*a).position).clone())
            .collect()
    }

    /// Validate a row and append it to a fresh slot.
    ///
    /// Checks: arity, column types, NOT NULL constraints, and PK uniqueness.
    /// FK checks live in `Database::insert` because they need other tables.
    pub fn insert(
        &mut self,
        catalog: &Catalog,
        schema: &TableSchema,
        row: Row,
    ) -> Result<RowId, StoreError> {
        Self::check_row(catalog, schema, &row)?;
        self.insert_prevalidated(catalog, schema, row)
    }

    /// [`TableData::insert`] for callers that already ran
    /// [`TableData::check_row`] on `row` earlier in their own pipeline, so
    /// the row is not re-validated here.
    pub fn insert_prevalidated(
        &mut self,
        catalog: &Catalog,
        schema: &TableSchema,
        row: Row,
    ) -> Result<RowId, StoreError> {
        let key = Self::pk_of(catalog, schema, &row);
        if self.pk_index.contains_key(&key) {
            return Err(duplicate(schema, key));
        }
        let id = RowId(self.rows.len() as u64);
        self.pk_index.insert(key, id);
        self.rows.push(Some(row));
        self.live += 1;
        Ok(id)
    }

    /// Tombstone the row at `id`, returning the removed row. RI checks live
    /// in `Database::delete`.
    pub fn delete(
        &mut self,
        catalog: &Catalog,
        schema: &TableSchema,
        id: RowId,
    ) -> Result<Row, StoreError> {
        let slot = self
            .rows
            .get_mut(id.0 as usize)
            .and_then(Option::take)
            .ok_or_else(|| StoreError::RowNotFound(format!("{}: no live row {id}", schema.name)))?;
        self.pk_index.remove(&Self::pk_of(catalog, schema, &slot));
        self.live -= 1;
        Ok(slot)
    }

    /// Replace the row at `id` in place (same slot, same [`RowId`]),
    /// returning the old row. Validates the new row and PK uniqueness when
    /// the key changes; FK checks live in `Database::update`.
    pub fn update(
        &mut self,
        catalog: &Catalog,
        schema: &TableSchema,
        id: RowId,
        row: Row,
    ) -> Result<Row, StoreError> {
        Self::check_row(catalog, schema, &row)?;
        self.update_prevalidated(catalog, schema, id, row)
    }

    /// [`TableData::update`] for callers that already ran
    /// [`TableData::check_row`] on `row` earlier in their own pipeline
    /// (`Database::update` validates before its FK checks), so the row is
    /// not re-validated here.
    pub fn update_prevalidated(
        &mut self,
        catalog: &Catalog,
        schema: &TableSchema,
        id: RowId,
        row: Row,
    ) -> Result<Row, StoreError> {
        let old = self
            .rows
            .get(id.0 as usize)
            .and_then(|s| s.as_ref())
            .ok_or_else(|| StoreError::RowNotFound(format!("{}: no live row {id}", schema.name)))?;
        let old_key = Self::pk_of(catalog, schema, old);
        let new_key = Self::pk_of(catalog, schema, &row);
        if new_key != old_key {
            if self.pk_index.contains_key(&new_key) {
                return Err(duplicate(schema, new_key));
            }
            self.pk_index.remove(&old_key);
            self.pk_index.insert(new_key, id);
        }
        let slot = &mut self.rows[id.0 as usize];
        let old = slot.replace(row).expect("slot checked live above");
        Ok(old)
    }

    /// Rebuild storage from an explicit slot layout, tombstones included
    /// (snapshot import). Live rows are validated like inserts.
    pub fn restore(
        catalog: &Catalog,
        schema: &TableSchema,
        slots: Vec<Option<Row>>,
    ) -> Result<TableData, StoreError> {
        let mut data = TableData {
            rows: Vec::with_capacity(slots.len()),
            live: 0,
            pk_index: HashMap::new(),
        };
        for slot in slots {
            match slot {
                Some(row) => {
                    Self::check_row(catalog, schema, &row)?;
                    let key = Self::pk_of(catalog, schema, &row);
                    let id = RowId(data.rows.len() as u64);
                    if data.pk_index.insert(key, id).is_some() {
                        return Err(StoreError::DuplicateKey(format!(
                            "{} slot {id}",
                            schema.name
                        )));
                    }
                    data.rows.push(Some(row));
                    data.live += 1;
                }
                None => data.rows.push(None),
            }
        }
        Ok(data)
    }
}

/// The uniqueness violation of `key` in `schema`'s table — one message for
/// every store, because equal keys share a partition.
fn duplicate(schema: &TableSchema, key: Vec<Value>) -> StoreError {
    StoreError::DuplicateKey(format!("{}{}", schema.name, Row::new(key)))
}

/// A `(table, row)` reference used by instance-level baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleRef {
    /// Owning table.
    pub table: TableId,
    /// Row within the table.
    pub row: RowId,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DataType;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.define_table("t")
            .unwrap()
            .pk("id", DataType::Int)
            .unwrap()
            .col("name", DataType::Text)
            .unwrap()
            .col_opts("score", DataType::Float, true, false)
            .unwrap()
            .finish();
        c
    }

    #[test]
    fn insert_and_lookup() {
        let c = catalog();
        let ts = c.table(c.table_id("t").unwrap()).clone();
        let mut d = TableData::new();
        let id = d
            .insert(&c, &ts, Row::new(vec![1.into(), "a".into(), 0.5.into()]))
            .unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d.lookup_pk(&[Value::Int(1)]), Some(id));
        assert_eq!(d.lookup_pk(&[Value::Int(2)]), None);
    }

    #[test]
    fn arity_checked() {
        let c = catalog();
        let ts = c.table(c.table_id("t").unwrap()).clone();
        let mut d = TableData::new();
        let err = d.insert(&c, &ts, Row::new(vec![1.into()])).unwrap_err();
        assert!(matches!(err, StoreError::TypeMismatch(_)));
    }

    #[test]
    fn type_checked_with_coercion() {
        let c = catalog();
        let ts = c.table(c.table_id("t").unwrap()).clone();
        let mut d = TableData::new();
        // Int coerces into Float column.
        d.insert(&c, &ts, Row::new(vec![1.into(), "a".into(), 3.into()]))
            .unwrap();
        // Text into Float column rejected.
        let err = d
            .insert(&c, &ts, Row::new(vec![2.into(), "b".into(), "x".into()]))
            .unwrap_err();
        assert!(matches!(err, StoreError::TypeMismatch(_)));
    }

    #[test]
    fn pk_uniqueness() {
        let c = catalog();
        let ts = c.table(c.table_id("t").unwrap()).clone();
        let mut d = TableData::new();
        d.insert(&c, &ts, Row::new(vec![1.into(), "a".into(), Value::Null]))
            .unwrap();
        let err = d
            .insert(&c, &ts, Row::new(vec![1.into(), "b".into(), Value::Null]))
            .unwrap_err();
        assert!(matches!(err, StoreError::DuplicateKey(_)));
    }

    #[test]
    fn null_violation_on_pk() {
        let c = catalog();
        let ts = c.table(c.table_id("t").unwrap()).clone();
        let mut d = TableData::new();
        let err = d
            .insert(
                &c,
                &ts,
                Row::new(vec![Value::Null, "a".into(), Value::Null]),
            )
            .unwrap_err();
        assert!(matches!(err, StoreError::NullViolation(_)));
    }

    #[test]
    fn delete_tombstones_and_keeps_ids_stable() {
        let c = catalog();
        let ts = c.table(c.table_id("t").unwrap()).clone();
        let mut d = TableData::new();
        for i in 0..3i64 {
            d.insert(
                &c,
                &ts,
                Row::new(vec![i.into(), format!("r{i}").into(), Value::Null]),
            )
            .unwrap();
        }
        let gone = d.delete(&c, &ts, RowId(1)).unwrap();
        assert_eq!(gone.get(1), &Value::text("r1"));
        assert_eq!(d.len(), 2);
        assert_eq!(d.slot_count(), 3);
        assert_eq!(d.lookup_pk(&[Value::Int(1)]), None);
        assert_eq!(d.get(RowId(1)), None);
        // Survivors keep their slots; iteration skips the tombstone.
        assert_eq!(d.row(RowId(2)).get(1), &Value::text("r2"));
        let ids: Vec<u64> = d.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 2]);
        // Double delete fails; next insert takes a fresh slot.
        assert!(d.delete(&c, &ts, RowId(1)).is_err());
        let id = d
            .insert(&c, &ts, Row::new(vec![9.into(), "r9".into(), Value::Null]))
            .unwrap();
        assert_eq!(id, RowId(3));
    }

    #[test]
    fn update_in_place_and_pk_moves() {
        let c = catalog();
        let ts = c.table(c.table_id("t").unwrap()).clone();
        let mut d = TableData::new();
        d.insert(&c, &ts, Row::new(vec![1.into(), "a".into(), Value::Null]))
            .unwrap();
        d.insert(&c, &ts, Row::new(vec![2.into(), "b".into(), Value::Null]))
            .unwrap();
        // Same PK: value change only.
        let old = d
            .update(
                &c,
                &ts,
                RowId(0),
                Row::new(vec![1.into(), "a2".into(), Value::Null]),
            )
            .unwrap();
        assert_eq!(old.get(1), &Value::text("a"));
        assert_eq!(d.row(RowId(0)).get(1), &Value::text("a2"));
        // PK change relocates the index entry.
        d.update(
            &c,
            &ts,
            RowId(0),
            Row::new(vec![7.into(), "a3".into(), Value::Null]),
        )
        .unwrap();
        assert_eq!(d.lookup_pk(&[Value::Int(1)]), None);
        assert_eq!(d.lookup_pk(&[Value::Int(7)]), Some(RowId(0)));
        // PK collision rejected, state unchanged.
        let err = d
            .update(
                &c,
                &ts,
                RowId(0),
                Row::new(vec![2.into(), "x".into(), Value::Null]),
            )
            .unwrap_err();
        assert!(matches!(err, StoreError::DuplicateKey(_)));
        assert_eq!(d.lookup_pk(&[Value::Int(7)]), Some(RowId(0)));
        // Updating a tombstone fails.
        d.delete(&c, &ts, RowId(1)).unwrap();
        assert!(d
            .update(
                &c,
                &ts,
                RowId(1),
                Row::new(vec![3.into(), "y".into(), Value::Null])
            )
            .is_err());
    }

    #[test]
    fn restore_preserves_slot_layout() {
        let c = catalog();
        let ts = c.table(c.table_id("t").unwrap()).clone();
        let slots = vec![
            Some(Row::new(vec![1.into(), "a".into(), Value::Null])),
            None,
            Some(Row::new(vec![2.into(), "b".into(), Value::Null])),
        ];
        let d = TableData::restore(&c, &ts, slots).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.slot_count(), 3);
        assert_eq!(d.lookup_pk(&[Value::Int(2)]), Some(RowId(2)));
        assert_eq!(d.get(RowId(1)), None);
        // Duplicate PKs across slots rejected.
        let bad = vec![
            Some(Row::new(vec![1.into(), "a".into(), Value::Null])),
            Some(Row::new(vec![1.into(), "b".into(), Value::Null])),
        ];
        assert!(TableData::restore(&c, &ts, bad).is_err());
    }
}
