//! # quest — facade for the QUEST keyword-search system
//!
//! One `use quest::prelude::*` away from the full reproduction of
//! *QUEST: A Keyword Search System for Relational Data based on Semantic and
//! Machine Learning Techniques* (Bergamaschi et al., PVLDB 6(12), 2013).
//!
//! ```
//! use quest::prelude::*;
//!
//! let db = quest::data::imdb::generate(&quest::data::imdb::ImdbScale::with_movies(50))
//!     .expect("generator succeeds");
//! let engine = Quest::new(FullAccessWrapper::new(db), QuestConfig::default())
//!     .expect("setup succeeds");
//! let outcome = engine.search("casablanca director").expect("search succeeds");
//! assert!(!outcome.explanations.is_empty());
//! println!("{}", outcome.explanations[0].sql(engine.wrapper().catalog()));
//! ```

#![warn(missing_docs)]

pub use quest_core as core;
pub use quest_data as data;
pub use quest_dst as dst;
pub use quest_fault as fault;
pub use quest_graph as graph;
pub use quest_hmm as hmm;
pub use quest_obs as obs;
pub use quest_replica as replica;
pub use quest_serve as serve;
pub use quest_shard as shard;
pub use quest_wal as wal;
pub use relstore as store;

/// The most common imports.
pub mod prelude {
    pub use quest_core::{
        AnnotationSet, Configuration, DbTerm, DeepWebWrapper, Explanation, FullAccessWrapper,
        KeywordQuery, MiniOntology, Quest, QuestConfig, QuestError, SearchOutcome, SearchScratch,
        SourceWrapper,
    };
    pub use quest_fault::{FaultPlan, ManualClock, RetryPolicy};
    pub use quest_replica::{
        Consistency, Primary, Replica, ReplicaError, ReplicaSet, RoutingPolicy,
    };
    pub use quest_serve::{CachedEngine, QueryService, ServeError, ServeStats};
    pub use quest_shard::{
        ScatterGather, ShardConfig, ShardError, ShardedPrimary, ShardedStore, ShardedWrapper,
    };
    pub use quest_wal::{ChangeRecord, SyncPolicy, WalWriter};
    pub use relstore::{Catalog, DataType, Database, Row, Value};
}
