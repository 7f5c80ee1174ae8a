//! [`CachedEngine`]: a thread-safe, cache-fronted wrapper around
//! [`Quest`] that also owns the serving layer's **live-data mutation
//! path**.
//!
//! One bounded LRU cache sits in front of the pipeline: normalized
//! keywords (+ data epoch + feedback epoch) → a `ForwardEntry`. A miss
//! stores the full [`ForwardResult`] (both operating-mode decodes and their
//! DST combination). The first hit runs the rest of the pipeline from it
//! once — [`Quest::backward_pass_with`] per configuration, then
//! [`Quest::assemble_with`] — and overwrites the slot with the finished
//! [`SearchOutcome`]. Every later hit is *answered*: one lookup and one
//! clone, with no backward pass and no assembly.
//!
//! The backward stage needs no serving cache of its own: a configuration's
//! interpretations are a pure function of its Steiner terminal set and
//! `k`, which the engine's join-template memo already holds, under the same
//! invalidation ([`Quest::resync`] rebuilds it on every data change).
//!
//! Every stage is a pure function of its key for a fixed engine state, so
//! caching is semantically transparent: a cached search returns bit-identical
//! explanations and scores to an uncached [`Quest::search_query`]. An
//! answer is a pure function of the forward key too: assembly reads only
//! the forward result, backward results of the same engine state and the
//! fixed [`quest_core::QuestConfig`]. Two monotonic epochs version that
//! state:
//!
//! * the **feedback epoch** ([`Quest::feedback_epoch`]) advances on user
//!   feedback and EM refinement;
//! * the **data epoch** ([`CachedEngine::data_epoch`]) advances on every
//!   mutation batch applied through [`CachedEngine::apply`].
//!
//! Both epochs are part of every key, so an entry keyed by a dead epoch can
//! never match again: it is never served, and it ages out of the LRU as
//! live entries push it to the tail. Nothing is purged on an epoch bump, so
//! neither a commit nor a search pays a sweep of the cache.
//!
//! Answers are admitted on a key's *second* sight, not its first: most
//! keys of a tail stream are seen once, and storing an outcome on every
//! miss would charge each of them a clone of the answer and a larger
//! eviction.
//!
//! Mutations serialize against searches through an `RwLock`: searches share
//! the read side, a mutation batch takes the write side, applies its
//! [`ChangeRecord`]s through the database's checked mutation API (indexes
//! maintained incrementally), re-syncs the engine's instance-derived state
//! ([`Quest::resync`]), and bumps the data epoch. Served results after a
//! batch are bit-identical to a cold engine built over the mutated data
//! (asserted by `tests/serve.rs`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard};
use std::time::Instant;

use quest_core::{
    Configuration, Explanation, ForwardResult, FullAccessWrapper, KeywordQuery, Quest, QuestError,
    SearchOutcome, SearchScratch, SourceWrapper,
};
use quest_obs::{MetricsRegistry, TraceCtx, TraceKind};
use quest_wal::ChangeRecord;

use crate::cache::LruCache;
use crate::error::ServeError;
use crate::stats::{CacheStats, ServeObs, ServeStats};

/// Entries of the forward cache: distinct keyword queries per epoch pair.
/// A workload's distinct-query set is small next to its volume.
const FORWARD_CAPACITY: usize = 1024;

/// Forward-cache key: data epoch, feedback epoch, and the normalized
/// keyword sequence (normalized text and phrase flag are the only keyword
/// features the pipeline reads, so raw strings that normalize identically
/// share a slot).
type ForwardKey = (u64, u64, Vec<(String, bool)>);

/// What a forward-cache slot holds.
#[derive(Debug, Clone)]
enum ForwardEntry {
    /// Stored by a miss: the forward stage's result.
    Forward(Arc<ForwardResult>),
    /// Stored by the first hit, over its `Forward`: the finished answer.
    /// Its `query` is the promoting caller's; a hit re-stamps its own.
    Answer(Arc<SearchOutcome>),
}

/// A [`Quest`] engine plus the forward cache, serving counters, and the
/// mutation path.
///
/// All methods take `&self`; wrap it in an [`std::sync::Arc`] to share one
/// instance — and one warm cache — across threads.
#[derive(Debug)]
pub struct CachedEngine<W: SourceWrapper> {
    engine: RwLock<Quest<W>>,
    /// Monotonic data version: bumped by every mutation batch that changes
    /// what a search can return. Written only under the engine write lock;
    /// read under the read lock, so searches see a consistent pair of
    /// (engine state, epoch).
    data_epoch: AtomicU64,
    /// Externally assigned progress marker (e.g. the replication LSN a
    /// replica engine has applied through); surfaced in [`ServeStats`].
    watermark: AtomicU64,
    // Values are Arc-wrapped so a hit clones a pointer inside the lock and
    // the (potentially large) payload copy happens outside it.
    forward: Mutex<LruCache<ForwardKey, ForwardEntry>>,
    obs: ServeObs,
}

impl<W: SourceWrapper> CachedEngine<W> {
    /// Front `engine` with the forward cache and a fresh per-engine
    /// metrics registry.
    pub fn new(engine: Quest<W>) -> CachedEngine<W> {
        CachedEngine {
            engine: RwLock::new(engine),
            data_epoch: AtomicU64::new(0),
            watermark: AtomicU64::new(0),
            forward: Mutex::new(LruCache::new(FORWARD_CAPACITY)),
            obs: ServeObs::new(Arc::new(MetricsRegistry::new())),
        }
    }

    /// [`CachedEngine::new`] with a forward cache of `capacity` entries.
    #[cfg(test)]
    fn with_forward_capacity(engine: Quest<W>, capacity: usize) -> CachedEngine<W> {
        let cached = CachedEngine::new(engine);
        *cached.forward_cache() = LruCache::new(capacity);
        cached
    }

    /// The engine's metrics registry (counters, gauges, and the per-stage
    /// latency histograms; export with [`quest_obs::to_prometheus_text`]
    /// or [`quest_obs::to_json`]).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        self.obs.registry()
    }

    /// Read access to the wrapped engine. The guard shares the lock with
    /// concurrent searches; a mutation batch waits until it is dropped.
    pub fn engine(&self) -> RwLockReadGuard<'_, Quest<W>> {
        self.engine.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The current data epoch: how many mutation batches have been applied.
    pub fn data_epoch(&self) -> u64 {
        self.data_epoch.load(Ordering::Acquire)
    }

    /// The externally assigned progress marker (0 until set). A replica
    /// engine stores the replication LSN it has applied through here, so
    /// lag is readable off [`CachedEngine::stats`] snapshots.
    pub fn watermark(&self) -> u64 {
        self.watermark.load(Ordering::Acquire)
    }

    /// Publish a new progress marker. Monotonicity is the caller's
    /// contract; the engine only stores and reports it.
    pub fn set_watermark(&self, watermark: u64) {
        self.watermark.store(watermark, Ordering::Release);
    }

    fn forward_cache(&self) -> MutexGuard<'_, LruCache<ForwardKey, ForwardEntry>> {
        self.forward.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Run Algorithm 1 on a raw query string, through the caches.
    pub fn search(&self, raw_query: &str) -> Result<SearchOutcome, QuestError> {
        let query = KeywordQuery::parse(raw_query)?;
        self.search_query(&query)
    }

    /// [`CachedEngine::search`] with a caller-owned [`SearchScratch`] —
    /// what the [`crate::QueryService`] workers use (one scratch per worker
    /// thread, reused across every query the worker serves).
    pub fn search_with(
        &self,
        raw_query: &str,
        scratch: &mut SearchScratch,
    ) -> Result<SearchOutcome, QuestError> {
        let query = KeywordQuery::parse(raw_query)?;
        self.search_query_with(&query, scratch)
    }

    /// Run Algorithm 1 on a parsed query, through the caches. Results are
    /// identical to an uncached search on the wrapped engine.
    pub fn search_query(&self, query: &KeywordQuery) -> Result<SearchOutcome, QuestError> {
        self.search_query_with(query, &mut SearchScratch::new())
    }

    /// [`CachedEngine::search_query`] with a caller-owned scratch; cache
    /// misses run the engine's allocation-lean hot path instead of
    /// allocating per query. Bit-identical results either way.
    ///
    /// An answered hit (a key's third and later sights in one epoch pair)
    /// returns a stored outcome: its `query` is the caller's, but its
    /// `timings` are those of the search that assembled it, not of this
    /// lookup.
    pub fn search_query_with(
        &self,
        query: &KeywordQuery,
        scratch: &mut SearchScratch,
    ) -> Result<SearchOutcome, QuestError> {
        let t0 = Instant::now();
        let collector = quest_obs::spans();
        let ctx = collector.ctx(TraceKind::Query);
        let result = self.search_inner(query, scratch, ctx);
        let ok = result.is_ok();
        self.obs.record(t0.elapsed(), ok);
        collector.record_with(ctx, "query", Some(t0), [Some(("ok", ok as u64)), None]);
        result
    }

    fn search_inner(
        &self,
        query: &KeywordQuery,
        scratch: &mut SearchScratch,
        ctx: TraceCtx,
    ) -> Result<SearchOutcome, QuestError> {
        // Memoized Steiner interpretations are valid for one engine state
        // only; the engine read lock below pins that state for the whole
        // search.
        scratch.reset_query_state();
        let engine = self.engine();
        // Both epochs are stable for the lifetime of the read guard except
        // the feedback epoch, which can advance concurrently (feedback only
        // needs the read side); the miss path re-checks it before inserting.
        let data_epoch = self.data_epoch();
        let feedback_epoch = engine.feedback_epoch();
        let key: ForwardKey = (
            data_epoch,
            feedback_epoch,
            query
                .keywords
                .iter()
                .map(|k| (k.normalized.clone(), k.phrase))
                .collect(),
        );
        // Bind the lookup before matching: a guard born in a match
        // scrutinee lives to the end of the match and would deadlock the
        // inserts below.
        let t0 = Instant::now();
        let cached_forward = self.forward_cache().get(&key);
        let (forward, promote) = match cached_forward {
            Some(ForwardEntry::Answer(answer)) => {
                let mut outcome = (*answer).clone(); // payload copy happens off-lock
                outcome.query = query.clone();
                self.obs.record_answered();
                quest_obs::spans().record_with(
                    ctx,
                    "query_forward",
                    Some(t0),
                    [Some(("cache_hit", 1)), Some(("answered", 1))],
                );
                return Ok(outcome);
            }
            // First hit: assemble below, then store the answer under `key`.
            Some(ForwardEntry::Forward(hit)) => ((*hit).clone(), Some(key)),
            None => {
                let computed = engine.forward_pass_with(query, scratch)?;
                self.obs.record_uncached_forward(&computed.timings);
                // Only cache if no feedback landed mid-computation; a result
                // spanning an epoch boundary may mix old and new model state
                // and must not be replayed.
                if engine.feedback_epoch() == feedback_epoch {
                    self.forward_cache()
                        .insert(key, ForwardEntry::Forward(Arc::new(computed.clone())));
                }
                (computed, None)
            }
        };
        let forward_wall = t0.elapsed();
        quest_obs::spans().record_with(
            ctx,
            "query_forward",
            Some(t0),
            [
                Some(("cache_hit", promote.is_some() as u64)),
                Some(("answered", 0)),
            ],
        );

        let t0 = Instant::now();
        let mut interpretations = Vec::with_capacity(forward.configurations.len());
        for cfg in &forward.configurations {
            interpretations.push(engine.backward_pass_with(cfg, scratch)?);
        }
        let backward_time = t0.elapsed();
        quest_obs::spans().record(ctx, "query_backward", Some(t0));
        let t0 = Instant::now();
        let outcome = engine.assemble_with(query, forward, interpretations, backward_time, scratch);
        let assemble_wall = t0.elapsed();
        quest_obs::spans().record(ctx, "query_assemble", Some(t0));
        self.obs
            .record_stage_walls(forward_wall, backward_time, assemble_wall);
        // The answer depends on nothing the key does not pin: the forward
        // result came from this key's slot, the backward results from the
        // engine state the read guard holds, the rest from the fixed config.
        // So it is stored even if feedback landed meanwhile.
        if let (Some(key), Ok(answer)) = (promote, &outcome) {
            self.forward_cache()
                .insert(key, ForwardEntry::Answer(Arc::new(answer.clone())));
        }
        outcome
    }

    /// Record user feedback on an explanation (see [`Quest::feedback`]).
    /// Bumps the feedback epoch, so forward-cache entries built on the old
    /// model stop matching. Nothing is purged: they age out of the LRU.
    pub fn feedback(
        &self,
        query: &KeywordQuery,
        explanation: &Explanation,
        positive: bool,
    ) -> Result<(), QuestError> {
        self.engine().feedback(query, explanation, positive)
    }

    /// Directly record a validated configuration (see
    /// [`Quest::feedback_configuration`]).
    pub fn feedback_configuration(
        &self,
        config: &Configuration,
        positive: bool,
    ) -> Result<(), QuestError> {
        self.engine().feedback_configuration(config, positive)
    }

    /// A point-in-time snapshot of hit/miss/latency counters.
    ///
    /// Counters kept outside the registry (the forward cache's hit/miss
    /// tallies inside its lock, the join-template memo's, the epochs) are
    /// mirrored into
    /// registry gauges here, so [`ServeStats::metrics`] — and with it the
    /// `Display` rendering and both exporters — always covers every public
    /// counter.
    pub fn stats(&self) -> ServeStats {
        let mut stats = ServeStats::default();
        self.obs.snapshot_into(&mut stats);
        stats.data_epoch = self.data_epoch();
        stats.watermark = self.watermark();
        {
            let c = self.forward_cache();
            stats.forward_cache = CacheStats {
                hits: c.hits(),
                misses: c.misses(),
                entries: c.len(),
                capacity: c.capacity(),
                purge_scans: 0,
            };
        }
        {
            let engine = self.engine();
            let templates = engine.backward().template_stats();
            stats.backward_cache = CacheStats {
                hits: templates.hits,
                misses: templates.misses,
                entries: templates.entries,
                capacity: 0,
                purge_scans: 0,
            };
            stats.shards = engine.wrapper().shard_count();
        }
        let registry = self.metrics();
        for (name, value) in [
            ("quest_serve_data_epoch", stats.data_epoch as i64),
            ("quest_serve_watermark", stats.watermark as i64),
            ("quest_serve_shards", stats.shards as i64),
        ] {
            registry.gauge(name).set(value);
        }
        for (prefix, cache) in [
            ("forward", &stats.forward_cache),
            ("backward", &stats.backward_cache),
        ] {
            registry
                .gauge(&format!("quest_serve_{prefix}_cache_hits"))
                .set(cache.hits as i64);
            registry
                .gauge(&format!("quest_serve_{prefix}_cache_misses"))
                .set(cache.misses as i64);
            registry
                .gauge(&format!("quest_serve_{prefix}_cache_entries"))
                .set(cache.entries as i64);
        }
        stats.metrics = registry.snapshot();
        stats
    }
}

/// What a mutation batch did: how many records took effect and which were
/// rejected (by zero-based batch index, with the storage error).
#[derive(Debug, Default)]
pub struct ApplyReport {
    /// Records applied.
    pub applied: usize,
    /// Rejected records: `(index within the batch, why)`. Rejections are
    /// deterministic functions of the database state at that log position,
    /// which is what lets WAL replay reproduce them exactly.
    pub rejected: Vec<(usize, relstore::StoreError)>,
}

impl ApplyReport {
    /// Whether every record applied.
    pub fn all_applied(&self) -> bool {
        self.rejected.is_empty()
    }

    /// Apply `changes` to `store` in order through the shared write rules,
    /// each one accepted or rejected on its own, with the statistics
    /// refresh deferred to the end of the batch; record what happened.
    pub fn apply<S: relstore::Partitions>(&mut self, store: &mut S, changes: &[ChangeRecord]) {
        relstore::rules::with_stats_deferred(store, |store| {
            for (i, change) in changes.iter().enumerate() {
                match change.apply(store) {
                    Ok(_) => self.applied += 1,
                    Err(e) => self.rejected.push((i, e)),
                }
            }
        })
    }
}

/// A source the serving layer can mutate in place: the wrapper-specific
/// half of [`CachedEngine::apply`].
///
/// Implementations route each record through the store's *checked* mutation
/// API with the batch semantics the write-ahead protocol relies on: records
/// apply or are rejected independently and in order, and a rejection is a
/// deterministic function of the store state at that position (so WAL
/// replay reproduces it exactly). [`FullAccessWrapper`] applies to its one
/// database; a sharded wrapper routes each record to its shard after
/// global integrity checks.
pub trait MutableSource: SourceWrapper {
    /// Apply each record in order, filling `report` with what happened.
    fn apply_changes(&mut self, changes: &[ChangeRecord], report: &mut ApplyReport);
}

impl MutableSource for FullAccessWrapper {
    fn apply_changes(&mut self, changes: &[ChangeRecord], report: &mut ApplyReport) {
        report.apply(self.database_mut(), changes);
    }
}

impl<W: SourceWrapper + MutableSource> CachedEngine<W> {
    /// Apply a batch of live-data mutations, serialized against searches.
    ///
    /// Each record applies — or is rejected — **independently and
    /// deterministically** through the database's checked mutation API
    /// (referential integrity enforced, inverted indexes maintained
    /// per-record, statistics refreshed once per dirty table at the end of
    /// the batch). A rejected record does not stop the batch; the report
    /// says exactly which indices were rejected and why. These per-record
    /// semantics are what make the write-ahead protocol sound: the caller
    /// logs the whole batch *before* applying it, and because a rejection
    /// is a pure function of the database state at that log position, WAL
    /// replay re-rejects exactly the records the live system rejected and
    /// converges on the identical state.
    ///
    /// If anything applied, the engine re-syncs its instance-derived state
    /// and the data epoch advances, retiring every cache entry built on
    /// the old data (retired entries are never served again and age out of
    /// the LRU; nothing is swept here); an all-rejected batch leaves
    /// engine, epoch, and caches untouched. Durability is the caller's
    /// concern: append records to a [`quest_wal::WalWriter`] and sync
    /// *before* handing them here.
    ///
    /// **Single mutation writer.** The replay guarantee assumes log order
    /// equals apply order. `apply` serializes batches against each other
    /// (engine write lock), but the WAL writer is a separate object — two
    /// threads that each append-then-apply can interleave so the lock is
    /// won in the opposite order of their appends. Route all mutations
    /// through one writer (append + `apply` under one serialization
    /// point), as the example and tests do.
    pub fn apply(&self, changes: &[ChangeRecord]) -> Result<ApplyReport, ServeError> {
        self.apply_in(changes, TraceCtx::detached(TraceKind::Commit))
    }

    /// [`CachedEngine::apply`] under an explicit trace context, so the
    /// `engine_apply` and `cache_epoch_bump` spans join the caller's commit
    /// trace (`Primary::commit` in the `quest-replica` crate threads its
    /// context through here).
    pub fn apply_in(
        &self,
        changes: &[ChangeRecord],
        ctx: TraceCtx,
    ) -> Result<ApplyReport, ServeError> {
        let mut report = ApplyReport::default();
        if changes.is_empty() {
            return Ok(report);
        }
        let apply_started = quest_obs::spans().start();
        let mut engine = self.engine.write().unwrap_or_else(PoisonError::into_inner);
        engine.source_mut().apply_changes(changes, &mut report);
        if report.applied > 0 {
            // Bump the epoch and re-sync instance-derived engine state
            // (MI-weighted schema graph) while still under the write lock:
            // no search can observe the new data with the old epoch or
            // vice versa. The bump comes first so that even a failed
            // re-sync (unreachable for ChangeRecords, which cannot alter
            // the catalog) can never leave old cache entries serving over
            // mutated data. An all-rejected batch changed nothing, so it
            // pays for none of this.
            let bump_started = quest_obs::spans().start();
            self.data_epoch.fetch_add(1, Ordering::AcqRel);
            let resync = engine.resync();
            let data = self.data_epoch();
            drop(engine);
            quest_obs::spans().record_with(
                ctx,
                "cache_epoch_bump",
                bump_started,
                [Some(("data_epoch", data)), None],
            );
            resync.map_err(ServeError::Engine)?;
        }
        quest_obs::spans().record_with(
            ctx,
            "engine_apply",
            apply_started,
            [
                Some(("applied", report.applied as u64)),
                Some(("rejected", report.rejected.len() as u64)),
            ],
        );
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::engine;
    use relstore::Value;

    /// Bit-for-bit equality of everything an outcome answers with: each
    /// explanation's SQL, configuration and score bits (its own and its
    /// interpretation's), all three configuration lists with their score
    /// bits, and `O_Cf`.
    fn same_outcome(a: &SearchOutcome, b: &SearchOutcome) {
        let config = |c: &Configuration| (c.terms.clone(), c.score.to_bits());
        let configs = |cs: &[Configuration]| cs.iter().map(config).collect::<Vec<_>>();
        let explanations = |o: &SearchOutcome| {
            o.explanations
                .iter()
                .map(|e| {
                    (
                        config(&e.configuration),
                        e.interpretation.score.to_bits(),
                        e.statement.clone(),
                        e.score.to_bits(),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(explanations(a), explanations(b));
        assert_eq!(configs(&a.configurations), configs(&b.configurations));
        assert_eq!(configs(&a.apriori_configs), configs(&b.apriori_configs));
        assert_eq!(configs(&a.feedback_configs), configs(&b.feedback_configs));
        assert_eq!(a.effective_o_cf.to_bits(), b.effective_o_cf.to_bits());
    }

    #[test]
    fn cached_search_matches_uncached() {
        let cached = CachedEngine::new(engine());
        let reference = engine();
        for raw in ["wind fleming", "fleming", "wind"] {
            let a = cached.search(raw).unwrap(); // cold: fills caches
            let b = cached.search(raw).unwrap(); // warm: assembles, stores the answer
            let answered = cached.search(raw).unwrap(); // warm: the stored answer
            let c = reference.search(raw).unwrap(); // uncached reference
            let query = KeywordQuery::parse(raw).unwrap();
            let cold = reference.search_query_reference(&query).unwrap();
            for served in [&a, &b, &answered] {
                same_outcome(served, &c);
                same_outcome(served, &cold);
            }
            assert_eq!(answered.query, query);
        }
        let stats = cached.stats();
        assert_eq!(stats.queries, 9);
        assert_eq!(stats.forward_cache.hits, 6);
        assert_eq!(stats.forward_cache.misses, 3);
        assert_eq!(stats.answered_hits, 3, "every third search is answered");
        assert!(stats.backward_cache.hits > 0);
        // The backward figures are the engine's join-template memo.
        let templates = cached.engine().backward().template_stats();
        assert_eq!(stats.backward_cache.hits, templates.hits);
        assert_eq!(stats.backward_cache.misses, templates.misses);
        assert_eq!(stats.backward_cache.entries, templates.entries);
    }

    #[test]
    fn feedback_epoch_invalidates_forward_entries() {
        let cached = CachedEngine::new(engine());
        let before = cached.search("wind fleming").unwrap();
        let _warm = cached.search("wind fleming").unwrap();
        assert_eq!(cached.stats().forward_cache.hits, 1);
        let _answered = cached.search("wind fleming").unwrap();
        assert_eq!(cached.stats().answered_hits, 1);

        // Feedback bumps the epoch: the next search must recompute the
        // forward stage and reflect the trained model, and the answer stored
        // under the old epoch must not be served.
        let best = before.explanations[0].clone();
        let query = KeywordQuery::parse("wind fleming").unwrap();
        for _ in 0..5 {
            cached.feedback(&query, &best, true).unwrap();
        }
        let after = cached.search("wind fleming").unwrap();
        let stats = cached.stats();
        assert_eq!(
            stats.forward_cache.hits, 2,
            "post-feedback search must miss the forward cache"
        );
        assert_eq!(stats.answered_hits, 1, "no dead-epoch answer is served");
        assert!(
            !after.feedback_configs.is_empty(),
            "trained model must now contribute"
        );
        let fresh = cached.engine().search_query_reference(&query).unwrap();
        same_outcome(&after, &fresh);
        // The new epoch's answer is the trained model's, too.
        for _ in 0..2 {
            same_outcome(&cached.search("wind fleming").unwrap(), &fresh);
        }
        assert_eq!(cached.stats().answered_hits, 2);
    }

    #[test]
    fn dead_epoch_entries_age_out_within_capacity() {
        // Nothing sweeps the cache on an epoch bump. Under three
        // capacities' worth of data and feedback bumps, dead entries must
        // stay bounded by the LRU, and no search may be served one.
        let capacity = 8;
        let cached = CachedEngine::with_forward_capacity(engine(), capacity);
        let queries = ["wind fleming", "fleming", "wind"];
        let query = KeywordQuery::parse("wind fleming").unwrap();
        let best = cached.search("wind fleming").unwrap().explanations[0].clone();
        for step in 0..3 * capacity as i64 {
            if step % 2 == 0 {
                cached
                    .apply(&[ChangeRecord::Insert {
                        table: "person".into(),
                        row: vec![(100 + step).into(), format!("Wind Person {step}").into()],
                    }])
                    .unwrap();
            } else {
                cached.feedback(&query, &best, true).unwrap();
            }
            // Three sights per epoch pair: a miss, a first hit that stores
            // the answer, and an answered hit.
            for raw in queries {
                let fresh = cached
                    .engine()
                    .search_query_reference(&KeywordQuery::parse(raw).unwrap())
                    .unwrap();
                for _ in 0..3 {
                    same_outcome(&cached.search(raw).unwrap(), &fresh);
                }
            }
            assert!(cached.stats().forward_cache.entries <= capacity);
        }
        let stats = cached.stats();
        assert_eq!(
            stats.forward_cache.entries, capacity,
            "dead entries fill the cache to capacity, and no further: {stats}"
        );
        assert_eq!(stats.forward_cache.purge_scans, 0);
        assert_eq!(
            stats.answered_hits,
            (3 * capacity * queries.len()) as u64,
            "exactly one answered hit per query per epoch pair: {stats}"
        );
    }

    #[test]
    fn stage_latency_counters_accumulate() {
        let cached = CachedEngine::new(engine());
        let mut scratch = SearchScratch::new();
        let _ = cached.search_with("wind fleming", &mut scratch).unwrap();
        let cold = cached.stats();
        assert_eq!(cold.stages.uncached_forward, 1, "cold search computes");
        assert!(cold.stages.forward > std::time::Duration::ZERO);
        assert!(cold.stages.emissions > std::time::Duration::ZERO);
        assert!(cold.stages.assemble > std::time::Duration::ZERO);

        // A warm repeat adds wall time to the stage buckets but computes no
        // new forward pass.
        let _ = cached.search_with("wind fleming", &mut scratch).unwrap();
        let warm = cached.stats();
        assert_eq!(warm.stages.uncached_forward, 1, "warm search hits");
        assert_eq!(warm.stages.emissions, cold.stages.emissions);
        assert!(warm.stages.forward >= cold.stages.forward);
        let text = warm.to_string();
        assert!(text.contains("stages:"), "{text}");

        // An answered hit runs no stage, so it adds to no stage bucket.
        let _ = cached.search_with("wind fleming", &mut scratch).unwrap();
        let answered = cached.stats();
        assert_eq!(answered.answered_hits, 1);
        assert_eq!(answered.stages, warm.stages);
        assert_eq!(answered.queries, 3);
    }

    #[test]
    fn watermark_is_stored_and_reported() {
        let cached = CachedEngine::new(engine());
        assert_eq!(cached.watermark(), 0);
        cached.set_watermark(42);
        assert_eq!(cached.watermark(), 42);
        assert_eq!(cached.stats().watermark, 42);
    }

    #[test]
    fn mutations_are_visible_and_match_a_cold_engine() {
        let cached = CachedEngine::new(engine());
        let _warm = cached.search("wind fleming").unwrap();
        assert_eq!(cached.data_epoch(), 0);

        let batch = vec![
            ChangeRecord::Insert {
                table: "person".into(),
                row: vec![2.into(), "Mervyn LeRoy".into()],
            },
            ChangeRecord::Insert {
                table: "movie".into(),
                row: vec![11.into(), "The Wizard of Oz".into(), 2.into()],
            },
        ];
        let report = cached.apply(&batch).unwrap();
        assert_eq!(report.applied, 2);
        assert!(report.all_applied());
        assert_eq!(cached.data_epoch(), 1);

        // Served results over the mutated data are bit-identical to a cold
        // engine built on an identically mutated database.
        let reference = {
            let guard = cached.engine();
            Quest::new(
                FullAccessWrapper::new(guard.wrapper().database().clone()),
                guard.config().clone(),
            )
            .unwrap()
        };
        for raw in ["oz leroy", "wind fleming", "wizard"] {
            let served = cached.search(raw).unwrap();
            let cold = reference.search(raw).unwrap();
            same_outcome(&served, &cold);
        }
    }

    #[test]
    fn rejections_are_per_record_and_reported() {
        let cached = CachedEngine::new(engine());
        let batch = vec![
            ChangeRecord::Insert {
                table: "person".into(),
                row: vec![3.into(), "Kept".into()],
            },
            ChangeRecord::Delete {
                // Fleming still directs a movie: restricted.
                table: "person".into(),
                key: vec![Value::Int(1)],
            },
            ChangeRecord::Insert {
                table: "person".into(),
                row: vec![4.into(), "Also Kept".into()],
            },
        ];
        let report = cached.apply(&batch).unwrap();
        // Per-record semantics: the rejection does not stop the batch —
        // exactly what WAL replay will reproduce from the logged records.
        assert_eq!(report.applied, 2);
        assert_eq!(report.rejected.len(), 1);
        assert_eq!(report.rejected[0].0, 1);
        assert!(matches!(
            report.rejected[0].1,
            relstore::StoreError::ForeignKeyViolation(_)
        ));
        assert_eq!(cached.data_epoch(), 1);
        let name = cached
            .engine()
            .wrapper()
            .catalog()
            .attr_id("person", "name")
            .unwrap();
        let db = cached.engine().wrapper().database().clone();
        assert!(db.search_score(name, "kept") > 0.0);
        assert!(db.validate().is_ok());
        // An all-rejected batch leaves epoch and engine untouched.
        let report = cached
            .apply(&[ChangeRecord::Delete {
                table: "person".into(),
                key: vec![Value::Int(1)],
            }])
            .unwrap();
        assert_eq!(report.applied, 0);
        assert_eq!(report.rejected.len(), 1);
        assert_eq!(cached.data_epoch(), 1, "no state change, no epoch bump");
        // An empty batch is a no-op.
        assert!(cached.apply(&[]).unwrap().all_applied());
        assert_eq!(cached.data_epoch(), 1);
    }

    #[test]
    fn normalization_shares_forward_slots() {
        let cached = CachedEngine::new(engine());
        let _ = cached.search("Fleming").unwrap();
        let promoted = cached.search("  fleming  ").unwrap();
        let stats = cached.stats();
        assert_eq!(
            stats.forward_cache.hits, 1,
            "case/whitespace variants share one cache slot"
        );
        // The slot now holds the answer "  fleming  " assembled. Each
        // answered variant carries its own query, not the one stored.
        for raw in ["Fleming", "  fleming  "] {
            let answered = cached.search(raw).unwrap();
            assert_eq!(answered.query, KeywordQuery::parse(raw).unwrap());
            assert_eq!(answered.query.raw, raw);
            same_outcome(&answered, &promoted);
        }
        assert_eq!(cached.stats().answered_hits, 2);
    }

    /// Every public counter the serving layer exposes is present in the
    /// registry snapshot, and the `Display` rendering (which iterates the
    /// snapshot) therefore names all of them — nothing can be registered
    /// yet dropped from the human-readable report.
    #[test]
    fn display_covers_every_registered_metric() {
        use crate::stats::names;

        let cached = CachedEngine::new(engine());
        for _ in 0..3 {
            let _ = cached.search("wind fleming").unwrap();
        }
        let stats = cached.stats();

        // The core recorder metrics and every snapshot-time mirror gauge
        // must exist in the snapshot...
        let expected = [
            names::ANSWERED_HITS,
            names::QUERIES,
            names::ERRORS,
            names::LATENCY,
            names::STAGE_FORWARD,
            names::STAGE_BACKWARD,
            names::STAGE_ASSEMBLE,
            names::STAGE_EMISSIONS,
            names::STAGE_DECODE,
            names::STAGE_COMBINE,
            names::UNCACHED_FORWARD,
        ];
        for name in expected.iter().chain(names::MIRRORS) {
            assert!(
                stats.metrics.get(name).is_some(),
                "metric {name} missing from the snapshot"
            );
        }
        // ...and every snapshot metric must appear in the rendering.
        let text = stats.to_string();
        for m in &stats.metrics.metrics {
            assert!(
                text.contains(&m.full_name()),
                "metric {} registered but absent from Display:\n{text}",
                m.full_name()
            );
        }
        // The mirrors agree with the typed fields they shadow.
        assert_eq!(
            stats.metrics.gauge("quest_serve_forward_cache_hits"),
            Some(stats.forward_cache.hits as i64)
        );
        assert_eq!(
            stats.metrics.gauge("quest_serve_backward_cache_entries"),
            Some(stats.backward_cache.entries as i64)
        );
        assert_eq!(
            stats.metrics.counter(names::QUERIES),
            Some(stats.queries),
            "registry counter and typed field are the same number"
        );
        assert_eq!(stats.answered_hits, 1);
        assert_eq!(
            stats.metrics.counter(names::ANSWERED_HITS),
            Some(stats.answered_hits)
        );
        assert!(text.contains("1 answered"), "{text}");
    }

    /// A served query is recorded once, as a span tree: a `query` root
    /// under a fresh trace id, with exactly one span per stage it ran
    /// inside the root's interval, carrying the cache outcomes (the cold
    /// search misses the forward cache, the first warm repeat hits it, and
    /// the second is answered with `query_forward` alone).
    #[test]
    fn traces_attribute_stages_and_cache_outcomes() {
        let cached = CachedEngine::new(engine());
        for _ in 0..3 {
            let _ = cached.search("wind fleming").unwrap();
        }

        // The collector is process-wide: keep only this thread's spans.
        let tid = quest_obs::span::thread_id();
        let spans: Vec<quest_obs::SpanRecord> = quest_obs::spans()
            .recent()
            .into_iter()
            .filter(|s| s.tid == tid)
            .collect();
        let arg = |s: &quest_obs::SpanRecord, key: &str| {
            s.args
                .iter()
                .flatten()
                .find(|(k, _)| *k == key)
                .map(|a| a.1)
        };
        let roots: Vec<_> = spans.iter().filter(|s| s.name == "query").collect();
        assert_eq!(roots.len(), 3, "{spans:?}");
        assert_ne!(roots[0].trace_id, roots[1].trace_id);
        assert_ne!(roots[1].trace_id, roots[2].trace_id);
        let mut forward_hits = Vec::new();
        let mut answered = Vec::new();
        for root in &roots {
            assert_ne!(root.trace_id, 0, "a served query mints its own ctx");
            assert_eq!(root.kind, TraceKind::Query);
            assert_eq!(arg(root, "ok"), Some(1));
            let stage = |name: &str| {
                let found: Vec<_> = spans
                    .iter()
                    .filter(|s| s.trace_id == root.trace_id && s.name == name)
                    .collect();
                assert_eq!(found.len(), 1, "{name} under {root:?}: {spans:?}");
                let s = found[0];
                // Starts and durations are floored to whole microseconds,
                // so a child can overhang the root's end by 1 µs.
                assert!(s.start_us >= root.start_us, "{s:?} starts before {root:?}");
                assert!(
                    s.start_us + s.dur_us <= root.start_us + root.dur_us + 1,
                    "{s:?} ends after {root:?}"
                );
                s
            };
            let forward = stage("query_forward");
            forward_hits.push(arg(forward, "cache_hit"));
            answered.push(arg(forward, "answered"));
            if arg(forward, "answered") == Some(1) {
                for name in ["query_backward", "query_assemble"] {
                    assert!(
                        !spans
                            .iter()
                            .any(|s| s.trace_id == root.trace_id && s.name == name),
                        "an answered hit runs no {name}: {spans:?}"
                    );
                }
                continue;
            }
            stage("query_backward");
            stage("query_assemble");
        }
        assert_eq!(
            forward_hits,
            [Some(0), Some(1), Some(1)],
            "cold misses, warm hits"
        );
        assert_eq!(
            answered,
            [Some(0), Some(0), Some(1)],
            "the third sight is answered"
        );
    }
}
