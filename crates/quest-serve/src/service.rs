//! [`QueryService`]: a thread pool draining keyword queries through a shared
//! [`CachedEngine`], with the waiting callers pitching in.
//!
//! Built on `std` threads only. Submissions go to one FIFO work queue (a
//! `VecDeque` behind a mutex, with a condvar that idle workers sleep on), so
//! a slow query never blocks the others; every submission returns a
//! [`Ticket`] the caller can block on. Because all workers share one engine,
//! its join-template memo and one forward cache, repeated keywords and
//! shared join paths turn into lookups no matter which thread serves them.
//!
//! **The waiting caller serves.** A caller blocked in [`Ticket::wait`] has a
//! core and nothing to do, and a warm query costs about as much as waking a
//! worker to run it. So until its own reply has arrived, `wait` pops the
//! oldest queued job and runs it on the calling thread, with a scratch the
//! service owns; only when the queue is empty does it block on its reply.
//! One caller helps at a time: one that finds the helper scratch taken
//! blocks straight away. The job popped is anyone's, not only the caller's
//! own, so a waiting thread may run other callers' queries — their spans
//! carry its thread id, and their cost lands inside its `wait`. Workers and
//! helpers run a job through one function, and hits and misses alike, so
//! who ran a query never changes its result.
//!
//! **A panicking search is contained.** Every job runs under
//! `catch_unwind`: a panic drops the job's reply, so its ticket reports
//! [`ServeError::Disconnected`]; the thread that ran it swaps in a fresh
//! scratch and carries on. A worker never dies, so the pool keeps its size,
//! and a panic never unwinds into an unrelated caller's `wait`.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
use std::thread::JoinHandle;

use quest_core::{QuestError, SearchOutcome, SearchScratch, SourceWrapper};
use quest_obs::Gauge;

use crate::engine::CachedEngine;
use crate::error::ServeError;
use crate::stats::{names, ServeStats};

type Reply = Result<SearchOutcome, QuestError>;

/// One unit of work: a raw query and where to send its outcome.
#[derive(Debug)]
struct Job {
    raw: String,
    reply: Sender<Reply>,
}

/// The work queue's state, behind [`Pool::queue`].
#[derive(Debug, Default)]
struct Queue {
    jobs: VecDeque<Job>,
    /// Set by shutdown only: workers exit once `jobs` has drained.
    closed: bool,
}

/// What the service, its workers and its tickets share.
#[derive(Debug)]
struct Pool<W: SourceWrapper> {
    engine: Arc<CachedEngine<W>>,
    queue: Mutex<Queue>,
    /// Signalled on every push and on close; idle workers wait on it.
    ready: Condvar,
    /// Jobs submitted but not yet popped, mirrored into the engine
    /// registry's `quest_serve_queue_depth` gauge.
    queue_depth: Gauge,
    /// The scratch a waiting caller runs queued jobs with.
    helper_scratch: Mutex<SearchScratch>,
}

impl<W: SourceWrapper + Send + Sync> Pool<W> {
    fn queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, job: Job) {
        // Count before the push so a pop's decrement can never observe the
        // job without its increment.
        self.queue_depth.add(1);
        self.queue().jobs.push_back(job);
        self.ready.notify_one();
    }

    /// The oldest queued job. With `block`, wait for one until the queue
    /// closes; without, return `None` at once if there is none.
    fn pop(&self, block: bool) -> Option<Job> {
        let mut queue = self.queue();
        loop {
            if let Some(job) = queue.jobs.pop_front() {
                // Claimed: no longer waiting in the queue.
                self.queue_depth.add(-1);
                return Some(job);
            }
            if !block || queue.closed {
                return None;
            }
            queue = self
                .ready
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Run one job on the calling thread: the only way a job runs, whether
    /// a worker or a waiting caller popped it.
    fn run(&self, job: Job, scratch: &mut SearchScratch) {
        let Job { raw, reply } = job;
        match panic::catch_unwind(AssertUnwindSafe(|| self.engine.search_with(&raw, scratch))) {
            // The submitter may have dropped its ticket; a failed reply
            // send is not an error.
            Ok(result) => {
                let _ = reply.send(result);
            }
            // `reply` drops unsent, so the ticket reports `Disconnected`;
            // the panic may have left the scratch half-written.
            Err(_) => *scratch = SearchScratch::new(),
        }
    }

    fn close(&self) {
        self.queue().closed = true;
        self.ready.notify_all();
    }
}

/// A [`Pool`] with its wrapper type erased, so [`Ticket`] stays non-generic.
trait Help: Send + Sync {
    /// Run the oldest queued job on this thread. `false` if the queue is
    /// empty or another waiting caller holds the helper scratch.
    fn help(&self) -> bool;
}

impl<W: SourceWrapper + Send + Sync> Help for Pool<W> {
    fn help(&self) -> bool {
        let mut scratch = match self.helper_scratch.try_lock() {
            Ok(scratch) => scratch,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => return false,
        };
        match self.pop(false) {
            Some(job) => {
                self.run(job, &mut scratch);
                true
            }
            None => false,
        }
    }
}

/// A claim on one submitted query's result.
pub struct Ticket {
    rx: Receiver<Reply>,
    pool: Arc<dyn Help>,
}

impl fmt::Debug for Ticket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ticket")
            .field("rx", &self.rx)
            .finish_non_exhaustive()
    }
}

impl Ticket {
    /// Block until the query's outcome arrives. Meanwhile this thread runs
    /// queued queries — possibly other callers' — as long as there are any
    /// (see the [module docs](self)).
    pub fn wait(self) -> Result<SearchOutcome, ServeError> {
        let reply = loop {
            match self.rx.try_recv() {
                Err(TryRecvError::Empty) if self.pool.help() => {}
                Err(TryRecvError::Empty) => break self.rx.recv().ok(),
                received => break received.ok(),
            }
        };
        match reply {
            Some(Ok(outcome)) => Ok(outcome),
            Some(Err(e)) => Err(ServeError::Engine(e)),
            None => Err(ServeError::Disconnected),
        }
    }
}

/// A concurrent query service over one shared, cache-backed engine.
///
/// Dropping the service shuts it down: the queue closes, queued jobs finish,
/// and the workers are joined.
#[derive(Debug)]
pub struct QueryService<W: SourceWrapper + Send + Sync + 'static> {
    pool: Arc<Pool<W>>,
    workers: Vec<JoinHandle<()>>,
}

impl<W: SourceWrapper + Send + Sync + 'static> QueryService<W> {
    /// Spawn `workers` threads (at least one) over a freshly wrapped engine.
    pub fn new(engine: CachedEngine<W>, workers: usize) -> QueryService<W> {
        QueryService::over(Arc::new(engine), workers)
    }

    /// Spawn `workers` threads (at least one) over an already shared engine
    /// — e.g. one whose cache another service or a direct caller is also
    /// using.
    pub fn over(shared: Arc<CachedEngine<W>>, workers: usize) -> QueryService<W> {
        QueryService::spawn(shared, workers.max(1))
    }

    /// [`QueryService::over`] without the clamp: with zero workers, only
    /// waiting callers drain the queue.
    fn spawn(engine: Arc<CachedEngine<W>>, workers: usize) -> QueryService<W> {
        let queue_depth = engine.metrics().gauge(names::QUEUE_DEPTH);
        let pool = Arc::new(Pool {
            engine,
            queue: Mutex::default(),
            ready: Condvar::new(),
            queue_depth,
            helper_scratch: Mutex::default(),
        });
        let workers = (1..=workers)
            .map(|i| {
                let pool = Arc::clone(&pool);
                std::thread::Builder::new()
                    .name(format!("quest-serve-{i}"))
                    .spawn(move || {
                        // One scratch per worker: emission/decoder buffers
                        // are reused across every query this thread serves.
                        let mut scratch = SearchScratch::new();
                        while let Some(job) = pool.pop(true) {
                            pool.run(job, &mut scratch);
                        }
                    })
                    .expect("spawning a worker thread succeeds")
            })
            .collect();
        QueryService { pool, workers }
    }

    /// Enqueue one raw keyword query; the returned [`Ticket`] resolves to
    /// the same outcome an uncached `Quest::search` would produce.
    pub fn submit(&self, raw_query: &str) -> Ticket {
        let (reply, rx) = mpsc::channel();
        self.pool.push(Job {
            raw: raw_query.to_string(),
            reply,
        });
        Ticket {
            rx,
            pool: self.pool.clone(),
        }
    }

    /// Enqueue a batch; tickets come back in submission order while the
    /// queries themselves run on whichever threads are free.
    pub fn submit_batch<I, S>(&self, queries: I) -> Vec<Ticket>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        queries
            .into_iter()
            .map(|q| self.submit(q.as_ref()))
            .collect()
    }

    /// The shared engine (for direct searches, feedback, or stats).
    pub fn engine(&self) -> &Arc<CachedEngine<W>> {
        &self.pool.engine
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// A snapshot of the shared engine's serving counters.
    pub fn stats(&self) -> ServeStats {
        self.pool.engine.stats()
    }

    /// Close the queue, finish queued jobs, join all workers, and return the
    /// final counters.
    pub fn shutdown(mut self) -> ServeStats {
        self.join_workers();
        self.pool.engine.stats()
    }

    fn join_workers(&mut self) {
        // Workers drain the closed queue, then exit.
        self.pool.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<W: SourceWrapper + Send + Sync + 'static> Drop for QueryService<W> {
    fn drop(&mut self) {
        self.join_workers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::engine;
    use quest_core::{
        FullAccessWrapper, Keyword, KeywordQuery, MiniOntology, PreparedKeyword, Quest, QuestConfig,
    };
    use relstore::sql::{ResultSet, SelectStatement};
    use relstore::{AttrId, Catalog, ForeignKey, StoreError, TableId};
    use std::time::Duration;

    /// The served outcome equals a direct search on the uncached engine.
    fn assert_same(direct: &SearchOutcome, served: &SearchOutcome) {
        assert_eq!(direct.explanations.len(), served.explanations.len());
        for (a, b) in direct.explanations.iter().zip(&served.explanations) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
            assert_eq!(a.statement, b.statement);
        }
    }

    #[test]
    fn submit_resolves_like_direct_search() {
        let service = QueryService::new(CachedEngine::new(engine()), 2);
        let direct = service.engine().engine().search("wind fleming").unwrap();
        let served = service.submit("wind fleming").wait().unwrap();
        assert_same(&direct, &served);
    }

    #[test]
    fn batch_preserves_submission_order() {
        let service = QueryService::new(CachedEngine::new(engine()), 3);
        let queries = ["wind", "fleming", "wind fleming", "wind", "fleming"];
        let tickets = service.submit_batch(queries);
        for (raw, ticket) in queries.iter().zip(tickets) {
            let out = ticket.wait().unwrap();
            assert_eq!(&out.query.raw, raw, "ticket order matches submission");
            assert!(!out.explanations.is_empty());
        }
        // Every cache insert from the first batch is complete once all its
        // tickets resolved, so a second identical batch hits on every query
        // (within one batch, concurrent duplicates may race the insert).
        for t in service.submit_batch(queries) {
            t.wait().unwrap();
        }
        let stats = service.shutdown();
        assert_eq!(stats.queries, 10);
        assert!(
            stats.forward_cache.hits >= 5,
            "second pass is all lookups: {stats}"
        );
    }

    #[test]
    fn engine_errors_travel_to_the_ticket() {
        let service = QueryService::new(CachedEngine::new(engine()), 1);
        let err = service.submit("   ").wait().unwrap_err();
        assert!(matches!(err, ServeError::Engine(QuestError::EmptyQuery)));
    }

    #[test]
    fn shutdown_finishes_queued_work_and_kills_later_submissions() {
        let shared = Arc::new(CachedEngine::new(engine()));
        let service = QueryService::over(Arc::clone(&shared), 2);
        let tickets = service.submit_batch(["wind", "fleming", "wind"]);
        let stats = service.shutdown();
        assert_eq!(stats.queries, 3, "queued jobs drained before join");
        for t in tickets {
            assert!(t.wait().is_ok(), "tickets stay valid across shutdown");
        }
        // A fresh service over the same engine reuses the warm cache.
        let service = QueryService::over(shared, 1);
        let _ = service.submit("wind").wait().unwrap();
        assert!(service.stats().forward_cache.hits > 0);
    }

    #[test]
    fn feedback_through_shared_engine_affects_served_results() {
        let service = QueryService::new(CachedEngine::new(engine()), 2);
        let before = service.submit("wind fleming").wait().unwrap();
        assert!(before.feedback_configs.is_empty());
        let query = KeywordQuery::parse("wind fleming").unwrap();
        let best = before.explanations[0].clone();
        for _ in 0..5 {
            service.engine().feedback(&query, &best, true).unwrap();
        }
        let after = service.submit("wind fleming").wait().unwrap();
        assert!(!after.feedback_configs.is_empty());
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let service = QueryService::new(CachedEngine::new(engine()), 0);
        assert_eq!(service.worker_count(), 1);
        assert!(service.submit("wind").wait().is_ok());
    }

    /// With no worker thread at all, a caller blocked in `wait` must drain
    /// the queue itself: every query resolves, on the waiting thread.
    #[test]
    fn a_waiting_caller_runs_queued_queries_on_its_own_thread() {
        let service = QueryService::spawn(Arc::new(CachedEngine::new(engine())), 0);
        assert_eq!(service.worker_count(), 0);
        let queries = ["wind", "fleming", "wind fleming"];
        let tickets = service.submit_batch(queries);
        let (done, outcomes) = mpsc::channel();
        // A `wait` that never helps blocks forever: the guard below turns
        // that into a failure instead of a hung suite (the waiter is joined
        // only once it has answered).
        let waiter = std::thread::spawn(move || {
            let served: Vec<_> = tickets.into_iter().map(Ticket::wait).collect();
            let tid = quest_obs::span::thread_id();
            let roots = quest_obs::spans()
                .recent()
                .into_iter()
                .filter(|s| s.tid == tid && s.name == "query")
                .count();
            let _ = done.send((served, roots));
        });
        let (served, roots) = outcomes
            .recv_timeout(Duration::from_secs(10))
            .expect("the waiting caller drains a worker-less queue");
        waiter.join().expect("waiter thread");
        assert_eq!(roots, queries.len(), "every query span is the waiter's");
        for (raw, got) in queries.iter().zip(served) {
            let direct = service.engine().engine().search(raw).unwrap();
            assert_same(&direct, &got.unwrap());
        }
        assert_eq!(service.stats().queries, queries.len() as u64);
    }

    /// Delegates to [`FullAccessWrapper`], but panics preparing one keyword.
    #[derive(Debug)]
    struct PanicsOn(FullAccessWrapper, &'static str);

    impl SourceWrapper for PanicsOn {
        fn catalog(&self) -> &Catalog {
            self.0.catalog()
        }
        fn value_score(&self, attr: AttrId, keyword: &Keyword) -> f64 {
            self.0.value_score(attr, keyword)
        }
        fn prepare_keyword(&self, keyword: &Keyword) -> PreparedKeyword {
            assert_ne!(keyword.normalized, self.1, "injected search panic");
            self.0.prepare_keyword(keyword)
        }
        fn value_score_prepared(&self, attr: AttrId, prepared: &PreparedKeyword) -> f64 {
            self.0.value_score_prepared(attr, prepared)
        }
        fn join_informativeness(&self, fk: ForeignKey) -> Option<f64> {
            self.0.join_informativeness(fk)
        }
        fn execute(&self, stmt: &SelectStatement) -> Result<ResultSet, StoreError> {
            self.0.execute(stmt)
        }
        fn has_results(&self, stmt: &SelectStatement) -> Result<bool, StoreError> {
            self.0.has_results(stmt)
        }
        fn has_instance_access(&self) -> bool {
            self.0.has_instance_access()
        }
        fn table_rows(&self, table: TableId) -> Option<u64> {
            self.0.table_rows(table)
        }
        fn ontology(&self) -> &MiniOntology {
            self.0.ontology()
        }
    }

    /// A panicking search fails its own ticket only: the one worker
    /// survives, every other query in the batch resolves as a direct search
    /// would, and a later batch (panic included) still resolves.
    #[test]
    fn a_panicking_search_disconnects_its_ticket_and_spares_the_pool() {
        let wrapper = PanicsOn(engine().wrapper().clone(), "boom");
        let reference = engine();
        let quest = Quest::new(wrapper, QuestConfig::default()).unwrap();
        let service = QueryService::new(CachedEngine::new(quest), 1);
        let batch = ["wind", "boom", "fleming", "wind fleming"];
        for round in 0..2 {
            for (raw, ticket) in batch.iter().zip(service.submit_batch(batch)) {
                let served = ticket.wait();
                if *raw == "boom" {
                    assert!(
                        matches!(served, Err(ServeError::Disconnected)),
                        "round {round}: {served:?}"
                    );
                } else {
                    assert_same(&reference.search(raw).unwrap(), &served.unwrap());
                }
            }
        }
        assert_eq!(service.worker_count(), 1);
    }
}
