//! Property tests for the retry/backoff schedule: deterministic per seed,
//! monotone in the exponential regime, and always bounded by the cap. The
//! quarantine machine probes on that schedule and escalates on its budget.
//! Also the fault-plan syntax (`QUEST_FAULT_PLAN`): hostile text is refused
//! with an error, never a panic, and every accepted plan round-trips
//! through its `Display` form.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use proptest::prelude::*;
use quest_fault::{
    names, quarantined, sites, Clock, FaultPlan, ManualClock, Quarantine, RetryPolicy,
};

/// Fault kinds the plan syntax knows, plus one it must refuse.
const KINDS: &[&str] = &[
    "fsync_error",
    "torn_write",
    "append_error",
    "apply_error",
    "slow_io",
    "explode",
];

/// One `site@hit=kind[!]` entry, mostly well-formed: the index past the
/// last site names an unknown site, and a hit count may carry a `+` sign.
fn plan_entry() -> impl Strategy<Value = String> {
    (
        0..sites::ALL.len() + 1,
        "[+]?[1-9][0-9]{0,2}",
        0..KINDS.len(),
        "!?",
    )
        .prop_map(|(site, hit, kind, bang)| {
            let site = sites::ALL.get(site).copied().unwrap_or("nope");
            format!("{site}@{hit}={}{bang}", KINDS[kind])
        })
}

/// Arbitrary bytes, the plan syntax's alphabet, or lists of entries.
fn plan_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..128),
        "[a-z_.@=!, 0-9+]{0,48}".prop_map(String::into_bytes),
        proptest::collection::vec(plan_entry(), 1..4).prop_map(|e| e.join(", ").into_bytes()),
    ]
}

fn policy(retries: u32, base_ms: u64, cap_ms: u64, seed: u64) -> RetryPolicy {
    RetryPolicy {
        retries,
        base: Duration::from_millis(base_ms),
        cap: Duration::from_millis(cap_ms),
        jitter_seed: seed,
    }
}

/// Numbers each quarantine case's component label: the metrics registry is
/// process-global, so a shared label would see other cases' counts.
static CASE: AtomicU64 = AtomicU64::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn quarantine_probes_on_schedule_and_escalates_on_budget(
        retries in 0u32..8,
        base_ms in 1u64..50,
        cap_ms in 1u64..500,
        seed in any::<u64>(),
        start_us in 0u64..1_000_000,
        outcomes in proptest::collection::vec(any::<bool>(), 0..12),
    ) {
        let p = policy(retries, base_ms, cap_ms, seed);
        let component = format!("quarantine-{}", CASE.fetch_add(1, Ordering::Relaxed));
        let labels = [("component", component.as_str())];
        let count = |name| quest_obs::global().counter_with(name, &labels).value();
        let clock = ManualClock::new();
        clock.advance(Duration::from_micros(start_us));
        let mut quarantine = Quarantine::enter(&component, clock.now());
        prop_assert_eq!(quarantined(&component).value(), 1);
        // Due on entry; each failed probe schedules the next at its own time
        // plus the policy's delay for that retry.
        let (mut due, mut failures) = (clock.now(), 0u32);
        for heals in outcomes {
            let early = due.checked_sub(Duration::from_nanos(1));
            prop_assert!(!early.is_some_and(|early| quarantine.is_due(early)));
            // The first microsecond tick at or past `due`.
            clock.advance(due.saturating_sub(clock.now()) + Duration::from_nanos(999));
            let now = clock.now();
            prop_assert!(quarantine.is_due(due) && quarantine.is_due(now));
            if heals {
                quarantine.lift(1);
                prop_assert_eq!(count(names::HEALS), 1);
                prop_assert_eq!(quarantined(&component).value(), 0);
                return Ok(());
            }
            quarantine.probe_failed(&p, now);
            failures += 1;
            let spent = failures == 1 + retries;
            prop_assert_eq!(count(names::ESCALATIONS), u64::from(spent));
            if spent {
                prop_assert!(!quarantine.is_due(Duration::MAX));
                break;
            }
            due = now + p.delay(failures - 1);
        }
        prop_assert_eq!(quarantined(&component).value(), 1);
        drop(quarantine);
        prop_assert_eq!((count(names::HEALS), quarantined(&component).value()), (0, 0));
    }

    #[test]
    fn schedule_is_deterministic_per_seed(
        retries in 0u32..10,
        base_ms in 1u64..50,
        cap_ms in 1u64..500,
        seed in any::<u64>(),
    ) {
        let p = policy(retries, base_ms, cap_ms, seed);
        prop_assert_eq!(p.schedule(), p.clone().schedule());
        prop_assert_eq!(p.schedule().len(), retries as usize);
        // A rebuilt policy with identical fields backs off identically.
        let q = policy(retries, base_ms, cap_ms, seed);
        prop_assert_eq!(p.schedule(), q.schedule());
    }

    #[test]
    fn every_delay_respects_the_cap(
        retries in 1u32..12,
        base_ms in 1u64..100,
        cap_ms in 1u64..200,
        seed in any::<u64>(),
    ) {
        let p = policy(retries, base_ms, cap_ms, seed);
        for (attempt, delay) in p.schedule().into_iter().enumerate() {
            prop_assert!(
                delay <= p.cap,
                "attempt {} delay {:?} exceeds cap {:?}",
                attempt,
                delay,
                p.cap
            );
        }
    }

    #[test]
    fn unjittered_schedule_is_pure_exponential(
        retries in 1u32..10,
        base_ms in 1u64..20,
        cap_ms in 1u64..1000,
    ) {
        let p = policy(retries, base_ms, cap_ms, 0);
        for (attempt, delay) in p.schedule().into_iter().enumerate() {
            let expect = Duration::from_millis(base_ms << attempt.min(20)).min(p.cap);
            prop_assert_eq!(delay, expect);
        }
    }

    #[test]
    fn different_seeds_eventually_diverge(seed in 1u64..u64::MAX) {
        let a = policy(6, 10, 10_000, seed);
        let b = policy(6, 10, 10_000, seed ^ 0xDEAD_BEEF);
        // With a huge cap and six attempts, identical schedules from
        // different seeds would mean the jitter stream ignores the seed.
        prop_assert_ne!(a.schedule(), b.schedule());
    }

    #[test]
    fn fault_plan_parse_never_panics_and_round_trips(bytes in plan_bytes()) {
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(plan) = text.parse::<FaultPlan>() {
            prop_assert_eq!(plan.to_string().parse::<FaultPlan>(), Ok(plan));
        }
    }
}
