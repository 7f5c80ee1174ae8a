//! # relstore — the relational substrate under QUEST
//!
//! An in-memory relational storage engine providing exactly the services the
//! QUEST keyword-search system expects from "a traditional DBMS" (paper §1,
//! §3):
//!
//! * a **schema catalog** (tables, attributes, primary keys, foreign keys) —
//!   the source of database *terms* for the forward module and of the schema
//!   graph for the backward module;
//! * **full-text inverted indexes** over textual attributes with a
//!   `search(keyword, attribute) → score` function whose scores are
//!   normalized per attribute at setup time, ready to be used as HMM emission
//!   probabilities;
//! * one **instance statistic**: the per-foreign-key join statistics, whose
//!   mutual-information measure weights the backward module's schema-graph
//!   edges (the one reader is the wrapper's `join_informativeness`);
//! * a **SQL fragment** (SELECT-PROJECT-JOIN ASTs, a renderer producing the
//!   SQL text shown to users, and a hash-join executor computing results).
//!
//! The engine is deliberately small — no transactions, no durability, no
//! query optimizer beyond join-order selection — because QUEST treats the
//! DBMS as a black box reached through a wrapper.

#![warn(missing_docs)]

pub mod database;
pub mod error;
pub mod index;
pub mod jobs;
pub mod row;
pub mod schema;
pub mod sql;
pub mod stats;
pub mod table;
pub mod types;
pub mod value;

pub use database::Database;
pub use error::StoreError;
pub use row::{Row, RowId};
pub use schema::{AttrId, Attribute, Catalog, ForeignKey, TableId, TableSchema};
pub use table::{TableData, TupleRef};
pub use types::DataType;
pub use value::{Date, Value};
