//! Relational schema catalog: tables, attributes, keys and foreign keys.
//!
//! The catalog is the single source of truth QUEST's forward and backward
//! modules read: database *terms* (table names, attribute names, attribute
//! domains) come from here, and the backward module's schema graph is built
//! from the primary-key / foreign-key structure recorded here.

use std::collections::HashMap;
use std::fmt;

use crate::error::StoreError;
use crate::types::DataType;

/// Identifier of a table within a [`Catalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u32);

/// Identifier of an attribute, global across the catalog (not per-table).
///
/// Global ids make attributes directly usable as graph-node ids in the
/// backward module's schema graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrId(pub u32);

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}
impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// A column of a table.
#[derive(Debug, Clone)]
pub struct Attribute {
    /// Global attribute id.
    pub id: AttrId,
    /// Owning table.
    pub table: TableId,
    /// Column name (unique within the table).
    pub name: String,
    /// Static type.
    pub data_type: DataType,
    /// Position within the table, 0-based.
    pub position: usize,
    /// Whether this column is part of the table's primary key.
    pub in_primary_key: bool,
    /// Whether NULLs are allowed.
    pub nullable: bool,
    /// Whether a full-text index should be maintained for this column.
    pub full_text: bool,
}

/// A foreign-key edge from one attribute to the primary-key attribute of
/// another table. QUEST models FKs attribute-to-attribute, which is exactly
/// what the schema graph needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ForeignKey {
    /// Referencing attribute (the FK column).
    pub from: AttrId,
    /// Referenced attribute (a PK column of the target table).
    pub to: AttrId,
}

/// A table definition.
#[derive(Debug, Clone)]
pub struct TableSchema {
    /// Table id.
    pub id: TableId,
    /// Table name, unique within the catalog.
    pub name: String,
    /// Attributes in declaration order.
    pub attributes: Vec<AttrId>,
    /// Primary key attributes (subset of `attributes`), in key order.
    pub primary_key: Vec<AttrId>,
}

/// The schema catalog for one database.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: Vec<TableSchema>,
    attributes: Vec<Attribute>,
    foreign_keys: Vec<ForeignKey>,
    table_by_name: HashMap<String, TableId>,
    attr_by_name: HashMap<(TableId, String), AttrId>,
}

impl Catalog {
    /// Create an empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Begin defining a new table. Fails if the name is already taken.
    pub fn define_table(&mut self, name: &str) -> Result<TableBuilder<'_>, StoreError> {
        if name.trim().is_empty() {
            return Err(StoreError::InvalidSchema("empty table name".into()));
        }
        if self.table_by_name.contains_key(name) {
            return Err(StoreError::DuplicateTable(name.to_string()));
        }
        let id = TableId(self.tables.len() as u32);
        self.tables.push(TableSchema {
            id,
            name: name.to_string(),
            attributes: Vec::new(),
            primary_key: Vec::new(),
        });
        self.table_by_name.insert(name.to_string(), id);
        Ok(TableBuilder {
            catalog: self,
            table: id,
        })
    }

    /// Resume defining an existing table (used by restore tooling that
    /// reads a table name before its attribute list). The returned builder
    /// appends attributes after any already defined.
    pub fn resume_table(&mut self, id: TableId) -> Result<TableBuilder<'_>, StoreError> {
        if (id.0 as usize) >= self.tables.len() {
            return Err(StoreError::UnknownTable(id.to_string()));
        }
        Ok(TableBuilder {
            catalog: self,
            table: id,
        })
    }

    /// Register a foreign key `from_table.from_attr -> to_table's PK`.
    ///
    /// The referenced table must have a single-attribute primary key (QUEST's
    /// schema graph connects attribute pairs).
    pub fn add_foreign_key(
        &mut self,
        from_table: &str,
        from_attr: &str,
        to_table: &str,
    ) -> Result<(), StoreError> {
        let from = self.attr_id(from_table, from_attr)?;
        let to_tid = self.table_id(to_table)?;
        let pk = &self.table(to_tid).primary_key;
        if pk.len() != 1 {
            return Err(StoreError::InvalidSchema(format!(
                "foreign key target {to_table} must have a single-attribute primary key"
            )));
        }
        let to = pk[0];
        let from_ty = self.attribute(from).data_type;
        let to_ty = self.attribute(to).data_type;
        if from_ty != to_ty {
            return Err(StoreError::InvalidSchema(format!(
                "foreign key type mismatch: {from_table}.{from_attr} is {from_ty}, {to_table} pk is {to_ty}"
            )));
        }
        let fk = ForeignKey { from, to };
        if !self.foreign_keys.contains(&fk) {
            self.foreign_keys.push(fk);
        }
        Ok(())
    }

    /// All tables, in definition order.
    pub fn tables(&self) -> &[TableSchema] {
        &self.tables
    }

    /// All attributes, in global-id order.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// All foreign keys.
    pub fn foreign_keys(&self) -> &[ForeignKey] {
        &self.foreign_keys
    }

    /// A copy of this catalog with every foreign key dropped. Table and
    /// attribute ids are preserved, so rows, indexes and statistics keyed
    /// by them stay valid.
    ///
    /// This is the catalog a *shard* runs under: a shard holds only a
    /// partition of each table's rows, so a locally missing FK target may
    /// legitimately live on another shard — referential integrity is a
    /// global property the sharded store checks itself, before any record
    /// reaches a shard.
    pub fn without_foreign_keys(&self) -> Catalog {
        let mut c = self.clone();
        c.foreign_keys.clear();
        c
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Number of attributes across all tables.
    pub fn attribute_count(&self) -> usize {
        self.attributes.len()
    }

    /// Look up a table id by name.
    pub fn table_id(&self, name: &str) -> Result<TableId, StoreError> {
        self.table_by_name
            .get(name)
            .copied()
            .ok_or_else(|| StoreError::UnknownTable(name.to_string()))
    }

    /// Table schema by id. Panics on a foreign id (ids are only minted here).
    pub fn table(&self, id: TableId) -> &TableSchema {
        &self.tables[id.0 as usize]
    }

    /// Look up an attribute id by `(table, column)` name.
    pub fn attr_id(&self, table: &str, attr: &str) -> Result<AttrId, StoreError> {
        let tid = self.table_id(table)?;
        self.attr_by_name
            .get(&(tid, attr.to_string()))
            .copied()
            .ok_or_else(|| StoreError::UnknownAttribute(format!("{table}.{attr}")))
    }

    /// Attribute by id.
    pub fn attribute(&self, id: AttrId) -> &Attribute {
        &self.attributes[id.0 as usize]
    }

    /// Fully-qualified `table.attr` name of an attribute.
    pub fn qualified_name(&self, id: AttrId) -> String {
        let a = self.attribute(id);
        format!("{}.{}", self.table(a.table).name, a.name)
    }

    /// The single-attribute primary key of a table, if it has one.
    pub fn single_pk(&self, table: TableId) -> Option<AttrId> {
        let pk = &self.table(table).primary_key;
        if pk.len() == 1 {
            Some(pk[0])
        } else {
            None
        }
    }

    /// Validate catalog-level invariants: every table has a primary key and
    /// at least one attribute. Called by `Database::new`.
    pub fn validate(&self) -> Result<(), StoreError> {
        for t in &self.tables {
            if t.attributes.is_empty() {
                return Err(StoreError::InvalidSchema(format!(
                    "table {} has no attributes",
                    t.name
                )));
            }
            if t.primary_key.is_empty() {
                return Err(StoreError::InvalidSchema(format!(
                    "table {} has no primary key",
                    t.name
                )));
            }
        }
        Ok(())
    }

    fn push_attribute(
        &mut self,
        table: TableId,
        name: &str,
        data_type: DataType,
        in_primary_key: bool,
        nullable: bool,
        full_text: bool,
    ) -> Result<AttrId, StoreError> {
        if name.trim().is_empty() {
            return Err(StoreError::InvalidSchema("empty attribute name".into()));
        }
        let key = (table, name.to_string());
        if self.attr_by_name.contains_key(&key) {
            return Err(StoreError::DuplicateAttribute(format!(
                "{}.{}",
                self.table(table).name,
                name
            )));
        }
        let id = AttrId(self.attributes.len() as u32);
        let position = self.table(table).attributes.len();
        self.attributes.push(Attribute {
            id,
            table,
            name: name.to_string(),
            data_type,
            position,
            in_primary_key,
            nullable: nullable && !in_primary_key,
            full_text,
        });
        self.attr_by_name.insert(key, id);
        let ts = &mut self.tables[table.0 as usize];
        ts.attributes.push(id);
        if in_primary_key {
            ts.primary_key.push(id);
        }
        Ok(id)
    }
}

/// Fluent builder returned by [`Catalog::define_table`].
pub struct TableBuilder<'a> {
    catalog: &'a mut Catalog,
    table: TableId,
}

impl<'a> TableBuilder<'a> {
    /// Add the primary-key column (non-null, not full-text indexed).
    pub fn pk(self, name: &str, ty: DataType) -> Result<Self, StoreError> {
        self.catalog
            .push_attribute(self.table, name, ty, true, false, false)?;
        Ok(self)
    }

    /// Add a regular column. Text columns are full-text indexed by default.
    pub fn col(self, name: &str, ty: DataType) -> Result<Self, StoreError> {
        let ft = ty.is_textual();
        self.catalog
            .push_attribute(self.table, name, ty, false, true, ft)?;
        Ok(self)
    }

    /// Add a column with explicit nullability and full-text indexing.
    pub fn col_opts(
        self,
        name: &str,
        ty: DataType,
        nullable: bool,
        full_text: bool,
    ) -> Result<Self, StoreError> {
        self.catalog
            .push_attribute(self.table, name, ty, false, nullable, full_text)?;
        Ok(self)
    }

    /// Finish, returning the new table's id.
    pub fn finish(self) -> TableId {
        self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_table_catalog() -> Catalog {
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

    #[test]
    fn builds_and_resolves_names() {
        let c = two_table_catalog();
        assert_eq!(c.table_count(), 2);
        assert_eq!(c.attribute_count(), 5);
        let a = c.attr_id("movie", "title").unwrap();
        assert_eq!(c.qualified_name(a), "movie.title");
        assert!(c.attribute(a).full_text);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut c = two_table_catalog();
        assert!(matches!(
            c.define_table("person").err(),
            Some(StoreError::DuplicateTable(_))
        ));
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let mut c = Catalog::new();
        let b = c
            .define_table("t")
            .unwrap()
            .pk("id", DataType::Int)
            .unwrap();
        assert!(b.col("id", DataType::Text).is_err());
    }

    #[test]
    fn fk_requires_single_pk_and_matching_type() {
        let mut c = Catalog::new();
        c.define_table("a")
            .unwrap()
            .pk("k1", DataType::Int)
            .unwrap()
            .pk("k2", DataType::Int)
            .unwrap()
            .finish();
        c.define_table("b")
            .unwrap()
            .pk("id", DataType::Int)
            .unwrap()
            .col_opts("a_ref", DataType::Int, true, false)
            .unwrap()
            .col("txt", DataType::Text)
            .unwrap()
            .finish();
        // composite pk target rejected
        assert!(c.add_foreign_key("b", "a_ref", "a").is_err());
        // type mismatch rejected
        c.define_table("c")
            .unwrap()
            .pk("id", DataType::Int)
            .unwrap()
            .finish();
        assert!(c.add_foreign_key("b", "txt", "c").is_err());
        // happy path
        c.add_foreign_key("b", "a_ref", "c").unwrap();
        assert_eq!(c.foreign_keys().len(), 1);
        // duplicates are idempotent
        c.add_foreign_key("b", "a_ref", "c").unwrap();
        assert_eq!(c.foreign_keys().len(), 1);
    }

    #[test]
    fn validate_catches_missing_pk() {
        let mut c = Catalog::new();
        c.define_table("t")
            .unwrap()
            .col("x", DataType::Int)
            .unwrap()
            .finish();
        assert!(c.validate().is_err());
    }

    #[test]
    fn pk_attrs_are_non_nullable() {
        let c = two_table_catalog();
        let pk = c.attr_id("person", "id").unwrap();
        assert!(!c.attribute(pk).nullable);
        assert!(c.attribute(pk).in_primary_key);
    }
}
