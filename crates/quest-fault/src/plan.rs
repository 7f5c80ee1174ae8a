//! Fault plans and the process-global failpoint registry.
//!
//! A [`FaultPlan`] is a schedule: *the Nth time site S is reached, inject
//! fault kind K*. Plans are installed process-wide with [`install`]; code at
//! an injection seam calls [`fire`] with its site name and honours whatever
//! comes back. When no plan is armed, [`fire`] is a single relaxed atomic
//! load — the seams cost nothing in production.

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once, OnceLock, PoisonError};
use std::time::Duration;

use crate::splitmix64;

/// Canonical injection-site names, one per seam in the service stack.
pub mod sites {
    /// `WalWriter::append_batch` — before the framed batch hits the file.
    pub const WAL_APPEND: &str = "wal.append";
    /// `WalWriter` fsync — policy-driven, explicit, and heal-time syncs.
    pub const WAL_FSYNC: &str = "wal.fsync";
    /// `write_snapshot` — before the tmp file is created.
    pub const WAL_SNAPSHOT: &str = "wal.snapshot";
    /// `LogReader::poll` — the replica tail path.
    pub const WAL_READ: &str = "wal.read";
    /// `Replica::sync` — after records are consumed, before they are applied.
    pub const REPLICA_APPLY: &str = "replica.apply";
    /// `Replica` bootstrap from a published snapshot.
    pub const REPLICA_BOOTSTRAP: &str = "replica.bootstrap";
    /// `ShardedPrimary::commit` — the per-shard commit fan-out.
    pub const SHARD_COMMIT: &str = "shard.commit";
    /// `ShardedPrimary::commit` — the batch's frame append to the
    /// coordinator log (the commit point); its fsync is `wal.fsync`.
    pub const SHARD_COORDINATOR: &str = "shard.coordinator";
    /// The scatter-gather keyword probe (slow-IO only; never alters results).
    pub const SHARD_PROBE: &str = "shard.probe";

    /// Every site, for enumeration in docs and experiments.
    pub const ALL: &[&str] = &[
        WAL_APPEND,
        WAL_FSYNC,
        WAL_SNAPSHOT,
        WAL_READ,
        REPLICA_APPLY,
        REPLICA_BOOTSTRAP,
        SHARD_COMMIT,
        SHARD_COORDINATOR,
        SHARD_PROBE,
    ];
}

/// What happens when an armed failpoint fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The post-write durability barrier fails.
    FsyncError,
    /// Only a prefix of the framed batch reaches the file before the error.
    TornWrite,
    /// The append fails before any byte is written.
    AppendError,
    /// A consumer took the records but failed to apply them.
    ApplyError,
    /// The operation succeeds after an artificial stall.
    SlowIo,
}

impl FaultKind {
    /// Stable textual tag used by the plan syntax.
    pub fn tag(&self) -> &'static str {
        match self {
            FaultKind::FsyncError => "fsync_error",
            FaultKind::TornWrite => "torn_write",
            FaultKind::AppendError => "append_error",
            FaultKind::ApplyError => "apply_error",
            FaultKind::SlowIo => "slow_io",
        }
    }

    fn parse(s: &str) -> Option<FaultKind> {
        Some(match s {
            "fsync_error" => FaultKind::FsyncError,
            "torn_write" => FaultKind::TornWrite,
            "append_error" => FaultKind::AppendError,
            "apply_error" => FaultKind::ApplyError,
            "slow_io" => FaultKind::SlowIo,
            _ => return None,
        })
    }
}

/// Whether a retry can be expected to succeed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transience {
    /// The fault clears on its own; retry with backoff.
    #[default]
    Transient,
    /// The fault persists; retrying is futile.
    Permanent,
}

/// One scheduled fault: the `hit`-th time `site` is reached, inject `kind`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Injection {
    /// Site name from [`sites`].
    pub site: String,
    /// 1-based occurrence count that triggers the fault.
    pub hit: u64,
    /// What to inject.
    pub kind: FaultKind,
    /// Transient (retryable) or permanent.
    pub transience: Transience,
}

impl fmt::Display for Injection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}={}", self.site, self.hit, self.kind.tag())?;
        if self.transience == Transience::Permanent {
            write!(f, "!")?;
        }
        Ok(())
    }
}

/// A deterministic schedule of injections.
///
/// The textual form is a comma-separated list of `site@hit=kind` entries,
/// with a trailing `!` marking a permanent fault:
/// `wal.fsync@2=fsync_error,replica.apply@1=apply_error!`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scheduled injections, in no particular order.
    pub injections: Vec<Injection>,
}

impl FaultPlan {
    /// A plan with no injections; installing it disarms every failpoint.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Generate a seeded plan of `faults` transient injections.
    ///
    /// The generator draws sites and kinds from a fixed menu of heal-able
    /// seams and assigns strictly increasing hit numbers per site, so the
    /// same seed always yields the same schedule and no two injections
    /// collide on the same (site, hit) pair. Per-site hit counts stay small
    /// enough that a default [`crate::RetryPolicy`] outlasts them.
    pub fn generate(seed: u64, faults: usize) -> FaultPlan {
        const MENU: &[(&str, &[FaultKind])] = &[
            (
                sites::WAL_APPEND,
                &[FaultKind::TornWrite, FaultKind::AppendError],
            ),
            (sites::WAL_FSYNC, &[FaultKind::FsyncError]),
            (sites::WAL_SNAPSHOT, &[FaultKind::AppendError]),
            (sites::REPLICA_APPLY, &[FaultKind::ApplyError]),
            (sites::REPLICA_BOOTSTRAP, &[FaultKind::AppendError]),
            (
                sites::SHARD_COMMIT,
                &[FaultKind::AppendError, FaultKind::FsyncError],
            ),
        ];
        let mut state = seed ^ 0xC4A5_5EED_F417_0000;
        let mut next_hit: HashMap<&str, u64> = HashMap::new();
        let mut injections = Vec::with_capacity(faults);
        for _ in 0..faults {
            let (site, kinds) = MENU[(splitmix64(&mut state) % MENU.len() as u64) as usize];
            let hit = next_hit.entry(site).or_insert(0);
            *hit += 1 + splitmix64(&mut state) % 2;
            let kind = kinds[(splitmix64(&mut state) % kinds.len() as u64) as usize];
            injections.push(Injection {
                site: site.to_string(),
                hit: *hit,
                kind,
                transience: Transience::Transient,
            });
        }
        FaultPlan { injections }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, inj) in self.injections.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{inj}")?;
        }
        Ok(())
    }
}

impl FromStr for FaultPlan {
    type Err = String;

    fn from_str(s: &str) -> Result<FaultPlan, String> {
        let mut injections = Vec::new();
        for entry in s.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (site_hit, kind_str) = entry
                .split_once('=')
                .ok_or_else(|| format!("missing `=` in fault entry `{entry}`"))?;
            let (site, hit_str) = site_hit
                .split_once('@')
                .ok_or_else(|| format!("missing `@` in fault entry `{entry}`"))?;
            if !sites::ALL.contains(&site) {
                return Err(format!("unknown fault site `{site}`"));
            }
            let hit: u64 = hit_str
                .parse()
                .map_err(|_| format!("bad hit count `{hit_str}` in `{entry}`"))?;
            if hit == 0 {
                return Err(format!("hit counts are 1-based; got 0 in `{entry}`"));
            }
            let (kind_str, transience) = match kind_str.strip_suffix('!') {
                Some(k) => (k, Transience::Permanent),
                None => (kind_str, Transience::Transient),
            };
            let kind = FaultKind::parse(kind_str)
                .ok_or_else(|| format!("unknown fault kind `{kind_str}` in `{entry}`"))?;
            injections.push(Injection {
                site: site.to_string(),
                hit,
                kind,
                transience,
            });
        }
        Ok(FaultPlan { injections })
    }
}

/// A fault handed back to a seam by [`fire`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// The site that fired.
    pub site: String,
    /// What to inject.
    pub kind: FaultKind,
    /// Transient (retryable) or permanent.
    pub transience: Transience,
}

impl Fault {
    /// Materialise the fault as an `io::Error`.
    ///
    /// Transient faults use `ErrorKind::Interrupted` and permanent ones
    /// `ErrorKind::Other`, matching the `is_transient()` classification on
    /// the WAL/replica/shard error types.
    pub fn io_error(&self) -> std::io::Error {
        let kind = match self.transience {
            Transience::Transient => std::io::ErrorKind::Interrupted,
            Transience::Permanent => std::io::ErrorKind::Other,
        };
        std::io::Error::new(
            kind,
            format!("injected {} fault at {}", self.kind.tag(), self.site),
        )
    }

    /// For [`FaultKind::SlowIo`] faults, stall the caller briefly; a no-op
    /// for every other kind so seams can call it unconditionally.
    pub fn stall(&self) {
        if self.kind == FaultKind::SlowIo {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

#[derive(Debug, Default)]
struct PlanState {
    /// Scheduled injections paired with a consumed flag.
    injections: Vec<(Injection, bool)>,
    /// Per-site hit counters since the plan was installed.
    hits: HashMap<String, u64>,
    /// Injections consumed since process start (survives re-installs).
    consumed_total: u64,
}

static ARMED: AtomicBool = AtomicBool::new(false);

fn state() -> &'static Mutex<PlanState> {
    static STATE: OnceLock<Mutex<PlanState>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(PlanState::default()))
}

/// Install `plan` process-wide, resetting all hit counters.
pub fn install(plan: FaultPlan) {
    let mut s = state().lock().unwrap_or_else(PoisonError::into_inner);
    let armed = !plan.injections.is_empty();
    s.injections = plan.injections.into_iter().map(|i| (i, false)).collect();
    s.hits.clear();
    ARMED.store(armed, Ordering::Release);
}

/// Disarm every failpoint (equivalent to installing an empty plan).
pub fn clear() {
    install(FaultPlan::none());
}

/// Whether any plan is currently armed.
pub fn installed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Injections in the current plan that have not fired yet.
pub fn pending() -> usize {
    let s = state().lock().unwrap_or_else(PoisonError::into_inner);
    s.injections.iter().filter(|(_, used)| !used).count()
}

/// Injections consumed since process start (monotonic across re-installs).
pub fn consumed() -> u64 {
    let s = state().lock().unwrap_or_else(PoisonError::into_inner);
    s.consumed_total
}

/// Record that execution reached `site`; returns the fault to inject, if any.
///
/// When no plan is armed this is a single relaxed atomic load.
#[inline]
pub fn fire(site: &str) -> Option<Fault> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    fire_armed(site)
}

#[cold]
fn fire_armed(site: &str) -> Option<Fault> {
    let mut s = state().lock().unwrap_or_else(PoisonError::into_inner);
    let hit = {
        let c = s.hits.entry(site.to_string()).or_insert(0);
        *c += 1;
        *c
    };
    let mut fault = None;
    for (inj, used) in &mut s.injections {
        if !*used && inj.site == site && inj.hit == hit {
            *used = true;
            fault = Some(Fault {
                site: inj.site.clone(),
                kind: inj.kind,
                transience: inj.transience,
            });
            break;
        }
    }
    if fault.is_some() {
        s.consumed_total += 1;
    }
    drop(s);
    if let Some(f) = &fault {
        crate::count_injected(&f.site);
    }
    fault
}

/// Install a plan from the `QUEST_FAULT_PLAN` environment variable, once per
/// process. Called from cold constructor paths (e.g. `WalWriter::open`);
/// malformed plans are reported on stderr and ignored.
pub fn init_from_env() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let Ok(raw) = std::env::var("QUEST_FAULT_PLAN") else {
            return;
        };
        if raw.trim().is_empty() {
            return;
        }
        match raw.parse::<FaultPlan>() {
            Ok(plan) => install(plan),
            Err(e) => eprintln!("quest-fault: ignoring malformed QUEST_FAULT_PLAN: {e}"),
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// The registry is process-global; serialise tests that install plans.
    static LOCK: StdMutex<()> = StdMutex::new(());

    #[test]
    fn parse_roundtrip() {
        let _g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let text = "wal.fsync@2=fsync_error,replica.apply@1=apply_error!";
        let plan: FaultPlan = text.parse().expect("parse");
        assert_eq!(plan.injections.len(), 2);
        assert_eq!(plan.injections[0].site, sites::WAL_FSYNC);
        assert_eq!(plan.injections[0].hit, 2);
        assert_eq!(plan.injections[0].transience, Transience::Transient);
        assert_eq!(plan.injections[1].transience, Transience::Permanent);
        assert_eq!(plan.to_string(), text);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("nope@1=fsync_error".parse::<FaultPlan>().is_err());
        assert!("wal.fsync@0=fsync_error".parse::<FaultPlan>().is_err());
        assert!("wal.fsync@1=explode".parse::<FaultPlan>().is_err());
        assert!("wal.fsync=fsync_error".parse::<FaultPlan>().is_err());
    }

    #[test]
    fn fire_consumes_scheduled_hit_only() {
        let _g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        install("wal.append@2=torn_write".parse().unwrap());
        assert!(fire(sites::WAL_APPEND).is_none()); // hit 1
        let fault = fire(sites::WAL_APPEND).expect("hit 2 fires");
        assert_eq!(fault.kind, FaultKind::TornWrite);
        assert_eq!(fault.io_error().kind(), std::io::ErrorKind::Interrupted);
        assert!(fire(sites::WAL_APPEND).is_none()); // consumed
        assert_eq!(pending(), 0);
        clear();
        assert!(!installed());
    }

    #[test]
    fn generate_is_deterministic_and_bounded() {
        let a = FaultPlan::generate(42, 6);
        let b = FaultPlan::generate(42, 6);
        assert_eq!(a, b);
        assert_ne!(a, FaultPlan::generate(43, 6));
        assert_eq!(a.injections.len(), 6);
        // Round-trips through the textual form.
        assert_eq!(a.to_string().parse::<FaultPlan>().unwrap(), a);
        // No duplicate (site, hit) pairs, and all transient.
        let mut seen = std::collections::HashSet::new();
        for inj in &a.injections {
            assert!(seen.insert((inj.site.clone(), inj.hit)));
            assert_eq!(inj.transience, Transience::Transient);
        }
    }
}
