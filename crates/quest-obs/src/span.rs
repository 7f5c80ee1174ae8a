//! Write-path and query-path span tracing with explicit context
//! propagation.
//!
//! A [`TraceCtx`] is the identity of one logical operation — a commit, a
//! query, or a replica sync round — minted by [`SpanCollector::ctx`] and
//! passed *explicitly* down the call chain (`Primary::commit` → WAL
//! append/fsync → engine apply → cache epoch bump). Each instrumented
//! section records one [`SpanRecord`] carrying the ctx id, so the spans of
//! one commit can be reassembled into a tree and laid out on a timeline by
//! the Chrome trace-event export
//! ([`to_chrome_trace_json`](crate::export::to_chrome_trace_json)).
//!
//! The collector follows the registry's inertness discipline: span records
//! are `Copy` (static names, fixed-size args), slots are pre-allocated, and
//! recording is gated on a single relaxed load — a disabled collector
//! ([`SpanCollector::disabled`], or [`spans()`] after
//! `set_enabled(false)`) performs **no allocation and no clock read** on
//! the hot path:
//! [`SpanCollector::start`] returns `None` before touching the clock, and
//! [`SpanCollector::record`] returns before building anything.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Which logical operation family a trace belongs to. Families map to
/// distinct `pid` lanes in the Chrome trace export so write-path, query,
/// and replica timelines render side by side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// The write path: `Primary::commit`, WAL append/fsync, engine apply,
    /// cache epoch bump.
    Commit,
    /// The read path: one served query (forward/backward/assemble stages).
    Query,
    /// A replica sync round: log tail plus apply.
    Replica,
}

impl TraceKind {
    /// The Chrome trace `pid` lane for this family.
    pub fn pid(self) -> u64 {
        match self {
            TraceKind::Commit => 1,
            TraceKind::Query => 2,
            TraceKind::Replica => 3,
        }
    }

    /// Human-readable lane name (the Chrome trace `process_name`).
    pub fn lane(self) -> &'static str {
        match self {
            TraceKind::Commit => "write-path",
            TraceKind::Query => "queries",
            TraceKind::Replica => "replicas",
        }
    }
}

/// The explicit trace context threaded through an instrumented call chain:
/// a process-unique operation id plus the operation family. `Copy`, two
/// words — cheap to pass by value through every layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Process-unique id of the traced operation (a commit id or query id).
    /// 0 means "detached": spans still record, but under an anonymous
    /// trace.
    pub id: u64,
    /// The operation family.
    pub kind: TraceKind,
}

impl TraceCtx {
    /// A detached context (id 0) for call sites with no propagated parent.
    pub fn detached(kind: TraceKind) -> TraceCtx {
        TraceCtx { id: 0, kind }
    }
}

/// Up to two `(label, value)` numeric arguments attached to a span.
pub type SpanArgs = [Option<(&'static str, u64)>; 2];

/// One completed span: a named section of one traced operation. `Copy` —
/// static name, fixed args — so pushing into the ring never allocates.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// Sequence number assigned by the collector at push time.
    pub seq: u64,
    /// The owning operation's id ([`TraceCtx::id`]).
    pub trace_id: u64,
    /// The owning operation's family.
    pub kind: TraceKind,
    /// Section name (e.g. `wal_append`, `cache_epoch_bump`).
    pub name: &'static str,
    /// Start offset from the collector's epoch, microseconds.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Recording thread (small per-process ordinal, the Chrome `tid`).
    pub tid: u64,
    /// Numeric arguments (`None`-padded).
    pub args: SpanArgs,
}

/// A small per-process thread ordinal, assigned on first use — the `tid`
/// lane spans render under.
pub fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

/// A bounded, lock-light ring of completed spans: writers claim slots with
/// one atomic `fetch_add` and records are `Copy`, so recording never
/// allocates.
#[derive(Debug)]
pub struct SpanCollector {
    enabled: AtomicBool,
    epoch: Instant,
    next_trace: AtomicU64,
    slots: Vec<Mutex<Option<SpanRecord>>>,
    head: AtomicU64,
}

impl SpanCollector {
    /// A collector retaining the last `capacity` spans (0 disables
    /// recording entirely).
    pub fn new(capacity: usize) -> SpanCollector {
        SpanCollector {
            enabled: AtomicBool::new(capacity > 0),
            epoch: Instant::now(),
            next_trace: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// A collector whose recording calls are near-no-ops: [`start`]
    /// returns `None` after one relaxed load, so instrumented sections
    /// skip the clock reads and the record entirely.
    ///
    /// [`start`]: SpanCollector::start
    pub fn disabled() -> SpanCollector {
        let c = SpanCollector::new(0);
        c.set_enabled(false);
        c
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        !self.slots.is_empty() && self.enabled.load(Ordering::Relaxed)
    }

    /// Flip recording on or off (a zero-capacity collector stays off).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Maximum spans retained.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Spans ever pushed (retained plus overwritten).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Mint a fresh trace context for one logical operation. Ids are
    /// process-unique and start at 1 (0 is the detached sentinel).
    pub fn ctx(&self, kind: TraceKind) -> TraceCtx {
        TraceCtx {
            id: self.next_trace.fetch_add(1, Ordering::Relaxed) + 1,
            kind,
        }
    }

    /// Begin a section: returns the start instant, or `None` when
    /// disabled — the no-allocation, no-clock fast path. Pass the result
    /// to [`SpanCollector::record`].
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.is_enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Finish a section begun with [`SpanCollector::start`]: a `None`
    /// start (disabled at begin time) records nothing.
    #[inline]
    pub fn record(&self, ctx: TraceCtx, name: &'static str, started: Option<Instant>) {
        self.record_with(ctx, name, started, [None, None]);
    }

    /// Finish a section, attaching up to two numeric arguments.
    pub fn record_with(
        &self,
        ctx: TraceCtx,
        name: &'static str,
        started: Option<Instant>,
        args: SpanArgs,
    ) {
        let Some(started) = started else { return };
        if !self.is_enabled() {
            return;
        }
        let dur_us = crate::duration_us(started.elapsed());
        let start_us = crate::duration_us(started.saturating_duration_since(self.epoch));
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let record = SpanRecord {
            seq,
            trace_id: ctx.id,
            kind: ctx.kind,
            name,
            start_us,
            dur_us,
            tid: thread_id(),
            args,
        };
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(record);
    }

    /// The retained spans, oldest first.
    pub fn recent(&self) -> Vec<SpanRecord> {
        let mut spans: Vec<SpanRecord> = self
            .slots
            .iter()
            .filter_map(|s| *s.lock().unwrap_or_else(PoisonError::into_inner))
            .collect();
        spans.sort_by_key(|s| s.seq);
        spans
    }

    /// Drop every retained span (the head — and with it `seq` — keeps
    /// counting).
    pub fn clear(&self) {
        for slot in &self.slots {
            *slot.lock().unwrap_or_else(PoisonError::into_inner) = None;
        }
    }
}

/// Spans the process-wide collector retains.
const SPANS_CAPACITY: usize = 2048;

/// The process-wide span collector, retaining the last 2048 spans. The
/// WAL, replica, shard, and serving layers all record here, so one Chrome
/// trace export sees every lane of the process.
pub fn spans() -> &'static SpanCollector {
    static SPANS: OnceLock<SpanCollector> = OnceLock::new();
    SPANS.get_or_init(|| SpanCollector::new(SPANS_CAPACITY))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_with_ctx_and_sort_by_seq() {
        let c = SpanCollector::new(8);
        let ctx = c.ctx(TraceKind::Commit);
        assert!(ctx.id >= 1);
        let t = c.start();
        assert!(t.is_some());
        c.record_with(ctx, "wal_append", t, [Some(("records", 3)), None]);
        c.record(ctx, "engine_apply", c.start());
        let spans = c.recent();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "wal_append");
        assert_eq!(spans[0].trace_id, ctx.id);
        assert_eq!(spans[0].args[0], Some(("records", 3)));
        assert!(spans[0].seq < spans[1].seq);
        assert_eq!(c.pushed(), 2);
    }

    #[test]
    fn disabled_collector_skips_clock_and_storage() {
        let c = SpanCollector::disabled();
        assert!(!c.is_enabled());
        assert!(c.start().is_none(), "no clock read when disabled");
        // A stale Some(start) from before a disable still records nothing.
        c.record(c.ctx(TraceKind::Query), "q", Some(Instant::now()));
        assert!(c.recent().is_empty());
        assert_eq!(c.pushed(), 0);
    }

    #[test]
    fn zero_capacity_is_disabled_even_when_enabled_flag_is_set() {
        let c = SpanCollector::new(0);
        c.set_enabled(true);
        assert!(!c.is_enabled());
        assert!(c.start().is_none());
    }

    #[test]
    fn ring_overwrites_oldest() {
        let c = SpanCollector::new(2);
        let ctx = c.ctx(TraceKind::Replica);
        for _ in 0..3 {
            c.record(ctx, "tail", c.start());
        }
        let spans = c.recent();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].seq, spans[1].seq), (1, 2));
    }

    #[test]
    fn ctx_ids_are_unique_and_nonzero() {
        let c = SpanCollector::new(1);
        let a = c.ctx(TraceKind::Commit);
        let b = c.ctx(TraceKind::Query);
        assert_ne!(a.id, b.id);
        assert_ne!(a.id, 0);
        assert_eq!(TraceCtx::detached(TraceKind::Commit).id, 0);
    }

    #[test]
    fn thread_ids_are_stable_per_thread() {
        let mine = thread_id();
        assert_eq!(mine, thread_id());
        let other = std::thread::spawn(thread_id).join().unwrap();
        assert_ne!(mine, other);
    }
}
