//! # quest-serve — a concurrent, cache-backed query service for QUEST
//!
//! The engine in `quest-core` answers one query at a time. This crate puts a
//! serving layer in front of it for analytical keyword-query streams, where
//! many queries repeat the same schema terms and join paths:
//!
//! * [`CachedEngine`] — wraps a [`Quest`](quest_core::Quest) engine with a
//!   bounded LRU cache (keyword → top-k configurations for the forward
//!   stage, which a key's first hit overwrites with the finished answer)
//!   and hit/miss/latency counters. The backward/Steiner stage is served by
//!   the engine's own join-template memo, so it has no serving cache.
//!   Caching is semantically transparent: results are bit-identical to the
//!   uncached engine. Two monotonic epochs keep it that way under change —
//!   the engine's *feedback epoch* (user feedback, EM refinement) and the
//!   serving layer's *data epoch*, bumped by every live-data mutation batch
//!   applied through [`CachedEngine::apply`] (a slice of
//!   [`quest_wal::ChangeRecord`]s). Both epochs are in the cache key, so an
//!   entry of a dead epoch is never served; nothing is purged, and it ages
//!   out of the LRU.
//! * [`QueryService`] — a thread pool (std threads, a mutex-and-condvar
//!   work queue, no external dependencies) draining submitted queries
//!   through one shared `CachedEngine`, so every worker benefits from every
//!   other worker's cache fills. `submit`/[`submit_batch`](QueryService::submit_batch)
//!   return [`Ticket`]s; a caller blocked in [`Ticket::wait`] runs queued
//!   queries — possibly other callers' — on its own thread until its answer
//!   is in. [`shutdown`](QueryService::shutdown) drains and joins.
//! * [`ServeStats`] — a point-in-time snapshot of cache and latency
//!   counters.
//!
//! ```
//! use quest_core::{FullAccessWrapper, Quest, QuestConfig};
//! use quest_serve::{CachedEngine, QueryService};
//! use relstore::{Catalog, DataType, Database, Row};
//!
//! // A two-row database: people direct movies.
//! let mut catalog = Catalog::new();
//! catalog
//!     .define_table("person")?
//!     .pk("id", DataType::Int)?
//!     .col("name", DataType::Text)?
//!     .finish();
//! catalog
//!     .define_table("movie")?
//!     .pk("id", DataType::Int)?
//!     .col("title", DataType::Text)?
//!     .col_opts("director_id", DataType::Int, true, false)?
//!     .finish();
//! catalog.add_foreign_key("movie", "director_id", "person")?;
//! let mut db = Database::new(catalog)?;
//! db.insert("person", Row::new(vec![1.into(), "Victor Fleming".into()]))?;
//! db.insert(
//!     "movie",
//!     Row::new(vec![10.into(), "Gone with the Wind".into(), 1.into()]),
//! )?;
//!
//! // Serve a query stream from two workers over one shared cache.
//! let engine = Quest::new(FullAccessWrapper::new(db), QuestConfig::default())?;
//! let service = QueryService::new(CachedEngine::new(engine), 2);
//! let tickets = service.submit_batch(["wind fleming", "wind"]);
//! for ticket in tickets {
//!     assert!(!ticket.wait()?.explanations.is_empty());
//! }
//! // The stream has been seen once, so a repeat is served from the cache.
//! let repeat = service.submit("wind fleming").wait()?;
//! assert!(!repeat.explanations.is_empty());
//! let stats = service.shutdown();
//! assert_eq!(stats.queries, 3);
//! assert!(stats.forward_cache.hits >= 1); // the repeat was a lookup
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod cache;
pub mod engine;
pub mod error;
pub mod service;
pub mod stats;

pub use engine::{ApplyReport, CachedEngine, MutableSource};
pub use error::ServeError;
pub use service::{QueryService, Ticket};
pub use stats::{names, CacheStats, ServeStats, StageLatencies};

// Re-exported observability vocabulary so service consumers can pass a
// registry and read snapshots without a direct `quest-obs` dependency.
pub use quest_obs::{MetricsRegistry, MetricsSnapshot};

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared unit-test fixture.

    use quest_core::{FullAccessWrapper, Quest, QuestConfig};
    use relstore::{Catalog, DataType, Database, Row};

    /// A two-table engine: Victor Fleming directed Gone with the Wind.
    pub fn engine() -> Quest<FullAccessWrapper> {
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
        let mut d = Database::new(c).unwrap();
        d.insert("person", Row::new(vec![1.into(), "Victor Fleming".into()]))
            .unwrap();
        d.insert(
            "movie",
            Row::new(vec![10.into(), "Gone with the Wind".into(), 1.into()]),
        )
        .unwrap();
        d.finalize();
        Quest::new(FullAccessWrapper::new(d), QuestConfig::default()).unwrap()
    }
}
