//! Deterministic retry/backoff policies and injectable clocks.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::splitmix64;

/// A source of time that recovery loops sleep against.
///
/// Production code uses [`SystemClock`]; tests use [`ManualClock`] so backoff
/// never touches wall-clock time.
pub trait Clock: fmt::Debug + Send + Sync {
    /// Monotonic time elapsed since the clock was created.
    fn now(&self) -> Duration;
    /// Block (or pretend to) for `d`.
    fn sleep(&self, d: Duration);
}

/// Wall-clock [`Clock`] backed by `std::time::Instant`.
#[derive(Debug)]
pub struct SystemClock {
    start: std::time::Instant,
}

impl SystemClock {
    /// A clock starting now.
    pub fn new() -> SystemClock {
        SystemClock {
            start: std::time::Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> SystemClock {
        SystemClock::new()
    }
}

impl Clock for SystemClock {
    fn now(&self) -> Duration {
        self.start.elapsed()
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// A virtual [`Clock`] that only moves when told to (or slept against).
///
/// `sleep` advances the clock instead of blocking, so retry loops driven by a
/// `ManualClock` complete instantly while still observing a consistent
/// timeline (quarantine probes see `now()` past their deadline).
#[derive(Debug, Default)]
pub struct ManualClock {
    micros: AtomicU64,
}

impl ManualClock {
    /// A clock at time zero.
    pub fn new() -> ManualClock {
        ManualClock::default()
    }

    /// Advance the clock by `d` without sleeping.
    pub fn advance(&self, d: Duration) {
        self.micros
            .fetch_add(d.as_micros() as u64, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Duration {
        Duration::from_micros(self.micros.load(Ordering::Relaxed))
    }

    fn sleep(&self, d: Duration) {
        self.advance(d);
    }
}

/// Bounded exponential backoff with deterministic, seeded jitter.
///
/// Attempt `a` (0-based) waits `min(cap, base * 2^a)` scaled by a jitter
/// factor in `[0.75, 1.25]` drawn from `splitmix64(jitter_seed, a)`, then
/// clamped to `cap` again. The whole schedule is a pure function of the
/// policy, so two runs with the same seed back off identically. Every site
/// spends the budget — the first try plus `retries` retries — through
/// [`RetryPolicy::backoff`] (in place) or a [`Quarantine`] (supervisor ticks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum retries after the first try (0 disables retries).
    pub retries: u32,
    /// Delay before the first retry.
    pub base: Duration,
    /// Upper bound on any single delay.
    pub cap: Duration,
    /// Seed for the jitter stream; 0 disables jitter.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            retries: 4,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(50),
            jitter_seed: 0x51EE_D0FF,
        }
    }
}

impl RetryPolicy {
    /// The delay before retry attempt `attempt` (0-based). Always ≤ `cap`.
    pub fn delay(&self, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32.checked_shl(attempt.min(20)).unwrap_or(u32::MAX));
        let exp = exp.min(self.cap);
        if self.jitter_seed == 0 {
            return exp;
        }
        let mut state = self
            .jitter_seed
            .wrapping_add((attempt as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        let draw = splitmix64(&mut state) % 501; // 0..=500
        let jittered = (exp.as_nanos() as u64).saturating_mul(750 + draw) / 1000;
        Duration::from_nanos(jittered).min(self.cap)
    }

    /// The full backoff schedule, one delay per allowed retry.
    pub fn schedule(&self) -> Vec<Duration> {
        (0..self.retries).map(|a| self.delay(a)).collect()
    }

    /// The scheduling step of a [`Quarantine`]: a probe failed at `now`
    /// after `attempts` earlier failed probes. While the budget lasts this
    /// counts one retry, bumps `attempts` and returns when the next probe
    /// is due; `None` means the budget is spent and the caller escalates.
    pub(crate) fn next_probe(&self, attempts: &mut u32, now: Duration) -> Option<Duration> {
        if *attempts >= self.retries {
            return None;
        }
        crate::count_retry();
        let due = now + self.delay(*attempts);
        *attempts += 1;
        Some(due)
    }

    /// The sleeping step of an in-place retry loop: try number `attempt`
    /// (0-based) failed and `transient` is the error's own verdict. `true`
    /// once the retry is counted and its backoff slept out on `clock`;
    /// `false` when the caller must give up and return the error.
    pub fn backoff(&self, clock: &dyn Clock, transient: bool, attempt: &mut u32) -> bool {
        if !transient {
            return false;
        }
        // Scheduled from time zero, the next probe's due time is its delay.
        let delay = self.next_probe(attempt, Duration::ZERO);
        if let Some(delay) = delay {
            clock.sleep(delay);
        }
        delay.is_some()
    }
}

/// One out-of-service component's quarantine: when its supervisor probes
/// it next, until a probe heals it or the budget is spent. The owner keeps
/// the component and runs the probes. Entering charges the component's
/// [`quarantined`](crate::quarantined) gauge and dropping releases it, so
/// a lifted, an escalated-then-dropped and a replaced quarantine all
/// release it the same way.
#[derive(Debug)]
pub struct Quarantine {
    component: String,
    /// The charged gauge, resolved on entry so `drop` needs no lookup.
    gauge: quest_obs::Gauge,
    /// Failed probes rescheduled so far.
    attempts: u32,
    /// When the next probe is due; `None` once escalated.
    next_probe: Option<Duration>,
}

impl Quarantine {
    /// Quarantine `component` (`"replica"`, `"shard"`) at `now`, with its
    /// first probe due at once.
    pub fn enter(component: &str, now: Duration) -> Quarantine {
        let gauge = crate::quarantined(component);
        gauge.add(1);
        Quarantine {
            component: component.to_string(),
            gauge,
            attempts: 0,
            next_probe: Some(now),
        }
    }

    /// Whether a probe is due at `now`; never, once escalated.
    pub fn is_due(&self, now: Duration) -> bool {
        self.next_probe.is_some_and(|due| now >= due)
    }

    /// A due probe failed at `now`: schedule the next one under `retry`'s
    /// backoff, or escalate once the first probe and all
    /// [`RetryPolicy::retries`] retries have failed. An escalated component
    /// is never probed again and stays charged until it is dropped.
    pub fn probe_failed(&mut self, retry: &RetryPolicy, now: Duration) {
        self.next_probe = retry.next_probe(&mut self.attempts, now);
        if self.next_probe.is_none() {
            crate::count_escalation(&self.component);
        }
    }

    /// A probe healed the component: count `heals` heals and lift the
    /// quarantine.
    pub fn lift(self, heals: usize) {
        for _ in 0..heals {
            crate::count_heal(&self.component);
        }
    }
}

impl Drop for Quarantine {
    fn drop(&mut self) {
        self.gauge.sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_sleep_advances() {
        let clock = ManualClock::new();
        assert_eq!(clock.now(), Duration::ZERO);
        clock.sleep(Duration::from_millis(5));
        clock.advance(Duration::from_millis(7));
        assert_eq!(clock.now(), Duration::from_millis(12));
    }

    #[test]
    fn backoff_grows_and_caps() {
        let policy = RetryPolicy {
            retries: 8,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(20),
            jitter_seed: 0, // pure exponential
        };
        let schedule = policy.schedule();
        assert_eq!(schedule.len(), 8);
        assert_eq!(schedule[0], Duration::from_millis(1));
        assert_eq!(schedule[1], Duration::from_millis(2));
        assert_eq!(schedule[5], Duration::from_millis(20)); // capped at 32 → 20
        assert!(schedule.iter().all(|d| *d <= policy.cap));
    }

    #[test]
    fn both_retry_steps_spend_the_first_try_plus_retries() {
        let policy = RetryPolicy {
            retries: 2,
            ..RetryPolicy::default()
        };
        let (clock, now) = (ManualClock::new(), Duration::from_secs(9));
        let (mut probes, mut tries) = (0u32, 0u32);
        for a in 0..2 {
            let due = policy.next_probe(&mut probes, now);
            assert_eq!(due, Some(now + policy.delay(a)));
            assert!(policy.backoff(&clock, true, &mut tries));
        }
        // The third failure — first try plus two retries — spends the
        // budget; a permanent error is never retried, budget or not.
        assert_eq!(policy.next_probe(&mut probes, now), None);
        assert!(!policy.backoff(&clock, true, &mut tries));
        assert!(!policy.backoff(&clock, false, &mut 0));
        assert_eq!((probes, tries), (2, 2));
        assert_eq!(clock.now(), policy.delay(0) + policy.delay(1));
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.schedule(), policy.schedule());
        let other = RetryPolicy {
            jitter_seed: policy.jitter_seed + 1,
            ..policy.clone()
        };
        assert_ne!(policy.schedule(), other.schedule());
    }
}
