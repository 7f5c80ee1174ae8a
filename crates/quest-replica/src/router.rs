//! [`ReplicaSet`]: a consistency-aware query router over one primary and
//! its replicas.
//!
//! Reads scatter across replicas under a pluggable [`RoutingPolicy`]
//! (round-robin or least-loaded); every query carries a [`Consistency`]
//! tag. `Eventual` takes any replica at whatever LSN it has reached;
//! `AtLeast(lsn)` — read-your-writes, with the LSN taken from a
//! [`CommitReceipt`](crate::CommitReceipt) — only ever routes to a server
//! at or past that LSN: a current replica if one exists, otherwise the
//! router first tries to catch a replica up (the log is shared, so catching
//! up is a pull, not a wait) and finally falls back to the primary, which
//! is current by definition. A replica behind the bound is **never**
//! consulted (`tests/replica.rs` pins this).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use quest_core::SearchOutcome;
use quest_fault::{Clock, Quarantine, RetryPolicy, SystemClock};
use quest_serve::ServeStats;

use crate::error::ReplicaError;
use crate::primary::Primary;
use crate::replica::{Replica, SyncReport};

/// How reads spread over the replicas that satisfy a query's consistency
/// bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingPolicy {
    /// Rotate through eligible replicas in order.
    #[default]
    RoundRobin,
    /// Pick the eligible replica with the fewest in-flight searches
    /// (ties: most caught up, then lowest index).
    LeastLoaded,
}

/// Per-query consistency requirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Consistency {
    /// Any replica, at whatever LSN it has reached.
    #[default]
    Eventual,
    /// Read-your-writes: only servers at or past this LSN may answer
    /// (typically `receipt.last_lsn` from the commit being read back).
    AtLeast(u64),
}

/// A routed search result, annotated with who served it and at what LSN.
#[derive(Debug)]
pub struct Routed {
    /// The search outcome. Replicas at the same LSN answer bit-identically
    /// (and identically to a feedback-free cold engine at that LSN); the
    /// primary sees the same **data**, but user feedback recorded on it is
    /// a primary-local ranking signal, not replicated — after feedback
    /// training, a primary-served answer may rank differently than a
    /// replica-served one.
    pub outcome: SearchOutcome,
    /// The serving node: a replica's name, or `"primary"`.
    pub served_by: String,
    /// The server's applied LSN when it was selected — always `>=` the
    /// query's [`Consistency::AtLeast`] bound.
    pub lsn: u64,
}

/// One replica's row in a [`Topology`] report.
#[derive(Debug)]
pub struct ReplicaStatus {
    /// Replica name.
    pub name: String,
    /// Applied LSN.
    pub lsn: u64,
    /// Records behind the primary.
    pub lag: u64,
    /// In-flight searches.
    pub load: usize,
    /// Whether the replica can still converge (see
    /// [`Replica::is_healthy`]); the router never selects an unhealthy
    /// one.
    pub healthy: bool,
    /// Full serving counters ([`ServeStats::watermark`] mirrors `lsn`).
    pub stats: ServeStats,
}

/// Point-in-time view of the whole topology.
#[derive(Debug)]
pub struct Topology {
    /// The primary's published LSN.
    pub primary_lsn: u64,
    /// One row per replica, in registration order.
    pub replicas: Vec<ReplicaStatus>,
}

impl Topology {
    /// Grade this topology against an SLO: the worst lag among healthy
    /// replicas is the `lag` observation, and every broken replica is a
    /// hard [`Critical`](quest_obs::HealthStatus::Critical) regardless of
    /// bounds. Strictly observational — routing never consults the grade
    /// (`tests/replica.rs` serves identically with or without one).
    pub fn health(&self, spec: &quest_obs::SloSpec) -> quest_obs::HealthReport {
        let lag = self
            .replicas
            .iter()
            .filter(|r| r.healthy)
            .map(|r| r.lag)
            .max();
        let mut report = spec.evaluate(lag);
        for broken in self.replicas.iter().filter(|r| !r.healthy) {
            report.push(
                quest_obs::HealthStatus::Critical,
                format!("replica {} is broken; re-bootstrap it", broken.name),
            );
        }
        report
    }
}

impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "primary @ lsn {}", self.primary_lsn)?;
        for r in &self.replicas {
            writeln!(
                f,
                "{:>12} @ lsn {} (lag {}, {} in flight, fwd hit {:.0}%{})",
                r.name,
                r.lsn,
                r.lag,
                r.load,
                100.0 * r.stats.forward_cache.hit_rate(),
                if r.healthy { "" } else { ", BROKEN" }
            )?;
        }
        Ok(())
    }
}

/// One registered replica plus its quarantine (`None` while serving, or
/// merely lagging: lag is not quarantine). The `Arc<Replica>` is swapped
/// wholesale when a quarantine probe re-bootstraps it; handles from before
/// the swap keep working (they just point at the retired instance).
#[derive(Debug)]
struct ReplicaSlot {
    replica: RwLock<Arc<Replica>>,
    quarantine: Mutex<Option<Quarantine>>,
}

/// The router: one primary, N replicas, a default policy.
#[derive(Debug)]
pub struct ReplicaSet {
    primary: Arc<Primary>,
    slots: Vec<ReplicaSlot>,
    policy: RoutingPolicy,
    rr: AtomicUsize,
    /// Queries served by the primary because no registered replica could
    /// satisfy the bound (global-registry counter; not bumped when the set
    /// simply has no replicas).
    fallback: quest_obs::Counter,
    /// Backoff policy for quarantine probes.
    retry: RetryPolicy,
    /// Time source the quarantine machinery reads (tests inject a
    /// [`quest_fault::ManualClock`]).
    clock: Arc<dyn Clock>,
}

impl ReplicaSet {
    /// A router over `primary` with no replicas yet (all reads go to the
    /// primary until [`ReplicaSet::add_replica`] /
    /// [`ReplicaSet::spawn_replica`]).
    pub fn new(primary: Arc<Primary>, policy: RoutingPolicy) -> ReplicaSet {
        ReplicaSet {
            primary,
            slots: Vec::new(),
            policy,
            rr: AtomicUsize::new(0),
            fallback: quest_obs::global().counter(crate::names::ROUTER_FALLBACK),
            retry: RetryPolicy::default(),
            clock: Arc::new(SystemClock::new()),
        }
    }

    /// Override the quarantine backoff policy and clock (tests drive a
    /// [`quest_fault::ManualClock`] so probes need no wall-clock time).
    pub fn set_recovery(&mut self, retry: RetryPolicy, clock: Arc<dyn Clock>) {
        self.retry = retry;
        self.clock = clock;
    }

    /// Register an existing replica.
    pub fn add_replica(&mut self, replica: Arc<Replica>) {
        self.slots.push(ReplicaSlot {
            replica: RwLock::new(replica),
            quarantine: Mutex::new(None),
        });
    }

    /// Bootstrap a new replica from the primary's published snapshot,
    /// register it, and return it (e.g. to drive its sync loop).
    pub fn spawn_replica(&mut self, name: &str) -> Result<Arc<Replica>, ReplicaError> {
        let replica = Arc::new(Replica::from_primary(name, &self.primary)?);
        self.add_replica(Arc::clone(&replica));
        Ok(replica)
    }

    /// Remove the slot serving the replica named `name` and return that
    /// replica; `None` if no slot has that name. Dropping the slot drops
    /// its quarantine, which releases the slot's
    /// `quest_fault_quarantined{component="replica"}` charge, so this is
    /// how an escalated slot leaves the set. Once no slot serves that name,
    /// its `quest_replica_lag_lsns{replica="<name>"}` series leaves the
    /// global registry too. Register a replacement with
    /// [`ReplicaSet::spawn_replica`].
    pub fn retire(&mut self, name: &str) -> Option<Arc<Replica>> {
        let at = self.replicas().iter().position(|r| r.name() == name)?;
        let slot = self.slots.remove(at);
        if self.replicas().iter().all(|r| r.name() != name) {
            quest_obs::global().remove(crate::names::LAG, &[("replica", name)]);
        }
        Some(
            slot.replica
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    /// The write point.
    pub fn primary(&self) -> &Arc<Primary> {
        &self.primary
    }

    /// The currently registered replicas, in registration order. A snapshot:
    /// a quarantine heal swaps a slot's replica for a freshly bootstrapped
    /// instance, so handles can retire — re-call for the live set.
    pub fn replicas(&self) -> Vec<Arc<Replica>> {
        self.slots
            .iter()
            .map(|s| Arc::clone(&s.replica.read().unwrap_or_else(PoisonError::into_inner)))
            .collect()
    }

    /// One supervision tick: move broken replicas into quarantine and run
    /// any due re-bootstrap probes. A successful probe builds a fresh
    /// replica from the newest published snapshot, catches it up to the
    /// primary, and swaps it into the slot; a failed probe backs off, and
    /// after the retry budget is spent the slot escalates to permanent.
    /// An escalated slot is replaced by hand: [`ReplicaSet::retire`] it,
    /// then [`ReplicaSet::spawn_replica`] a successor. Returns how many
    /// replicas healed.
    ///
    /// Runs opportunistically on every [`ReplicaSet::query`] that sees an
    /// unhealthy replica; idle topologies can call it from a timer tick.
    pub fn supervise(&self) -> usize {
        let now = self.clock.now();
        let mut healed = 0;
        for slot in &self.slots {
            let replica = Arc::clone(&slot.replica.read().unwrap_or_else(PoisonError::into_inner));
            let mut state = slot
                .quarantine
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            // The router already skips unhealthy replicas; entering
            // quarantine is what schedules the heal probes.
            if state.is_none() && !replica.is_healthy() {
                *state = Some(Quarantine::enter("replica", now));
            }
            let Some(quarantine) = state.as_mut().filter(|q| q.is_due(now)) else {
                continue;
            };
            match self.try_rebootstrap(replica.name()) {
                Ok(fresh) => {
                    *slot.replica.write().unwrap_or_else(PoisonError::into_inner) = fresh;
                    if let Some(lifted) = state.take() {
                        lifted.lift(1);
                    }
                    healed += 1;
                }
                Err(_) => quarantine.probe_failed(&self.retry, now),
            }
        }
        healed
    }

    /// Build a replacement replica from the newest published snapshot and
    /// catch it up to the primary's current LSN.
    fn try_rebootstrap(&self, name: &str) -> Result<Arc<Replica>, ReplicaError> {
        let fresh = Replica::from_primary(name, &self.primary)?;
        fresh.sync_to(self.primary.last_lsn())?;
        Ok(Arc::new(fresh))
    }

    /// Route one search under `consistency` (see the module docs for the
    /// full decision order).
    pub fn query(&self, raw_query: &str, consistency: Consistency) -> Result<Routed, ReplicaError> {
        let mut replicas = self.replicas();
        // Opportunistic supervision: a broken replica in the set means
        // quarantine probes may be due; run a tick before routing so a
        // heal-able topology heals under its own query traffic.
        if replicas.iter().any(|r| !r.is_healthy()) && self.supervise() > 0 {
            replicas = self.replicas();
        }
        let min_lsn = match consistency {
            Consistency::Eventual => 0,
            Consistency::AtLeast(lsn) => lsn,
        };
        // A bound past the primary's own LSN names an unacknowledged
        // future: no server can satisfy it, and "waiting" would be waiting
        // on a commit that may never come. Fail loudly.
        if min_lsn > self.primary.last_lsn() {
            return Err(ReplicaError::Lagging {
                required: min_lsn,
                reached: self.primary.last_lsn(),
            });
        }
        let eligible: Vec<usize> = (0..replicas.len())
            .filter(|&i| replicas[i].is_healthy() && replicas[i].applied_lsn() >= min_lsn)
            .collect();
        if let Some(i) = self.pick(&replicas, &eligible) {
            return self.serve_from(&replicas[i], raw_query);
        }
        // No replica is current. Catch one up — the log is shared, so this
        // is a bounded pull, not an open-ended wait — and fall back to the
        // primary only if even that fails.
        let healthy: Vec<usize> = (0..replicas.len())
            .filter(|&i| replicas[i].is_healthy())
            .collect();
        if let Some(i) = self.pick(&replicas, &healthy) {
            if replicas[i].sync_to(min_lsn).is_ok() {
                return self.serve_from(&replicas[i], raw_query);
            }
        }
        // Routing to the primary with replicas registered is a fallback
        // worth counting; with none it is simply the only server.
        if !replicas.is_empty() {
            self.fallback.inc();
        }
        // Stamp the LSN before searching (same rule as serve_from): the
        // primary only ever advances, so this is a lower bound on what the
        // search actually saw — reading it after could overstate it.
        let lsn = self.primary.last_lsn();
        let outcome = self.primary.search(raw_query)?;
        Ok(Routed {
            outcome,
            served_by: "primary".into(),
            lsn,
        })
    }

    /// Serve from `replica`, stamping name and LSN-at-selection.
    fn serve_from(&self, replica: &Replica, raw_query: &str) -> Result<Routed, ReplicaError> {
        // Read the LSN before searching: it only ever grows, so the stamp
        // is a lower bound on what the search actually saw.
        let lsn = replica.applied_lsn();
        let outcome = replica.search(raw_query)?;
        Ok(Routed {
            outcome,
            served_by: replica.name().to_string(),
            lsn,
        })
    }

    /// Pick one of `candidates` (indexes into `replicas`) under the policy.
    fn pick(&self, replicas: &[Arc<Replica>], candidates: &[usize]) -> Option<usize> {
        match self.policy {
            RoutingPolicy::RoundRobin => {
                let n = candidates.len();
                (n > 0).then(|| candidates[self.rr.fetch_add(1, Ordering::Relaxed) % n])
            }
            RoutingPolicy::LeastLoaded => candidates.iter().copied().min_by_key(|&i| {
                let r = &replicas[i];
                (r.load(), u64::MAX - r.applied_lsn(), i)
            }),
        }
    }

    /// Run one [`Replica::sync`] round on every **healthy** replica (a poor
    /// operator's replication daemon; real deployments run per-replica
    /// loops). Broken replicas are skipped — they cannot converge by
    /// syncing; [`ReplicaSet::supervise`] owns their recovery.
    pub fn sync_all(&self) -> Result<Vec<SyncReport>, ReplicaError> {
        self.replicas()
            .into_iter()
            .filter(|r| r.is_healthy())
            .map(|r| r.sync())
            .collect()
    }

    /// Point-in-time lag and serving counters for the whole topology.
    pub fn topology(&self) -> Topology {
        let primary_lsn = self.primary.last_lsn();
        Topology {
            primary_lsn,
            replicas: self
                .replicas()
                .iter()
                .map(|r| ReplicaStatus {
                    name: r.name().to_string(),
                    lsn: r.applied_lsn(),
                    lag: r.lag(primary_lsn),
                    load: r.load(),
                    healthy: r.is_healthy(),
                    stats: r.stats(),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{movie_batch, sample_db, temp_dir};
    use quest_core::QuestConfig;

    fn set_with(n: usize, policy: RoutingPolicy, name: &str) -> ReplicaSet {
        let dir = temp_dir(name);
        let primary = Arc::new(Primary::open(&dir, sample_db(), QuestConfig::default()).unwrap());
        let mut set = ReplicaSet::new(primary, policy);
        for i in 0..n {
            set.spawn_replica(&format!("r{i}")).unwrap();
        }
        set
    }

    #[test]
    fn round_robin_rotates_over_eligible_replicas() {
        let set = set_with(3, RoutingPolicy::RoundRobin, "router-rr");
        let mut served = Vec::new();
        for _ in 0..6 {
            served.push(set.query("wind", Consistency::Eventual).unwrap().served_by);
        }
        assert_eq!(served, ["r0", "r1", "r2", "r0", "r1", "r2"]);
    }

    #[test]
    fn no_replicas_means_primary_serves() {
        let set = set_with(0, RoutingPolicy::RoundRobin, "router-empty");
        let routed = set.query("wind", Consistency::Eventual).unwrap();
        assert_eq!(routed.served_by, "primary");
    }

    #[test]
    fn read_your_writes_waits_out_lag_or_uses_primary() {
        let set = set_with(2, RoutingPolicy::RoundRobin, "router-ryw");
        let receipt = set.primary().commit(&movie_batch(1)).unwrap();
        // Both replicas are stale; the bound forces a catch-up before the
        // answer comes back, and the stamp proves who served at what LSN.
        let routed = set
            .query("premiere", Consistency::AtLeast(receipt.last_lsn))
            .unwrap();
        assert!(routed.lsn >= receipt.last_lsn, "{routed:?}");
        assert_ne!(routed.served_by, "primary", "shared log ⇒ catch-up wins");

        // A bound past the primary's own LSN is unsatisfiable.
        assert!(matches!(
            set.query("wind", Consistency::AtLeast(999)),
            Err(ReplicaError::Lagging { .. })
        ));

        // Eventual consistency still accepts a stale replica.
        set.primary().commit(&movie_batch(2)).unwrap();
        let routed = set.query("wind", Consistency::Eventual).unwrap();
        assert_ne!(routed.served_by, "primary");
    }

    #[test]
    fn least_loaded_prefers_idle_then_most_caught_up() {
        let set = set_with(2, RoutingPolicy::LeastLoaded, "router-ll");
        set.primary().commit(&movie_batch(1)).unwrap();
        // Only r1 catches up; equal load (0), so the most caught-up wins.
        set.replicas()[1].sync().unwrap();
        let routed = set.query("wind", Consistency::Eventual).unwrap();
        assert_eq!(routed.served_by, "r1");
        assert_eq!(routed.lsn, 2);
    }

    #[test]
    fn replication_metrics_reach_the_global_registry() {
        // Unique replica names: the lag gauge's label is its identity in
        // the process-wide registry, and sibling tests use r0/r1.
        let dir = temp_dir("router-obs");
        let primary = Arc::new(Primary::open(&dir, sample_db(), QuestConfig::default()).unwrap());
        let mut set = ReplicaSet::new(primary, RoutingPolicy::RoundRobin);
        set.spawn_replica("obs-fresh").unwrap();
        set.spawn_replica("obs-stale").unwrap();
        set.primary().commit(&movie_batch(1)).unwrap();
        set.replicas()[0].sync().unwrap();
        let topo = set.topology(); // refreshes every lag gauge
        assert_eq!((topo.replicas[0].lag, topo.replicas[1].lag), (0, 2));

        let snap = quest_obs::global().snapshot();
        let lag_of = |name: &str| {
            snap.get_all(crate::names::LAG)
                .into_iter()
                .find(|m| m.labels.iter().any(|(_, v)| v == name))
                .map(|m| m.value.clone())
        };
        use quest_obs::MetricValue;
        assert_eq!(lag_of("obs-fresh"), Some(MetricValue::Gauge(0)));
        assert_eq!(lag_of("obs-stale"), Some(MetricValue::Gauge(2)));
        assert!(
            snap.histogram(crate::names::APPLY).map_or(0, |h| h.count) >= 1,
            "the sync's apply batch must land in the latency histogram"
        );
        // The fallback counter exists and counts primary-served queries
        // only while replicas are registered (asserted as a delta: the
        // registry is shared across tests).
        let before = snap.counter(crate::names::ROUTER_FALLBACK).unwrap_or(0);
        for r in set.replicas() {
            r.sync().unwrap();
        }
        let _ = set.query("wind", Consistency::Eventual).unwrap();
        let unchanged = quest_obs::global()
            .snapshot()
            .counter(crate::names::ROUTER_FALLBACK)
            .unwrap_or(0);
        assert!(unchanged >= before, "counter is monotonic");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_retired_replica_takes_its_lag_series_with_it() {
        let dir = temp_dir("router-retire");
        let primary = Arc::new(Primary::open(&dir, sample_db(), QuestConfig::default()).unwrap());
        let mut set = ReplicaSet::new(primary, RoutingPolicy::RoundRobin);
        set.spawn_replica("gone").unwrap();
        let mut records = movie_batch(1);
        records.push(movie_batch(2).remove(0));
        set.primary().commit(&records).unwrap();
        let lag_of_gone = || {
            quest_obs::global()
                .snapshot()
                .get_all(crate::names::LAG)
                .into_iter()
                .find(|m| m.labels.iter().any(|(_, v)| v == "gone"))
                .map(|m| m.value.clone())
        };
        assert_eq!(set.topology().replicas[0].lag, 3);
        assert_eq!(lag_of_gone(), Some(quest_obs::MetricValue::Gauge(3)));
        set.retire("gone").unwrap();
        assert!(set.topology().replicas.is_empty());
        assert_eq!(lag_of_gone(), None, "the retired name keeps no series");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn topology_health_grades_lag_and_brokenness() {
        use quest_obs::{HealthStatus, SloSpec};

        let set = set_with(2, RoutingPolicy::RoundRobin, "router-health");
        let spec = SloSpec {
            max_lag: Some(1),
            ..SloSpec::default()
        };
        // No commits: lag 0, within bound.
        assert_eq!(
            set.topology().health(&spec).status,
            HealthStatus::Healthy,
            "in-sync topology is healthy"
        );
        // Two records behind, bound 1, critical factor 2.0: 2 >= 1 × 2.
        set.primary().commit(&movie_batch(1)).unwrap();
        let report = set.topology().health(&spec);
        assert_eq!(report.status, HealthStatus::Critical, "{report}");
        assert!(report.reasons[0].contains("lag"), "{report}");
        // Caught up: healthy again. An unbounded spec never violates.
        set.sync_all().unwrap();
        assert_eq!(set.topology().health(&spec).status, HealthStatus::Healthy);
        assert_eq!(
            set.topology().health(&SloSpec::default()).status,
            HealthStatus::Healthy
        );
    }

    #[test]
    fn topology_reports_lag_per_replica() {
        let set = set_with(2, RoutingPolicy::RoundRobin, "router-topo");
        set.primary().commit(&movie_batch(1)).unwrap();
        set.replicas()[0].sync().unwrap();
        let topo = set.topology();
        assert_eq!(topo.primary_lsn, 2);
        assert_eq!(topo.replicas[0].lag, 0);
        assert_eq!(topo.replicas[1].lag, 2);
        let text = topo.to_string();
        assert!(text.contains("primary @ lsn 2"));
        assert!(text.contains("lag 2"));
    }
}
