//! Deterministic failpoint injection and self-healing retry machinery.
//!
//! `quest-fault` is the chaos backbone of the QUEST service stack. It has two
//! halves:
//!
//! * **Failpoints** ([`plan`]): a process-global registry of named injection
//!   sites threaded through the WAL, replica, and shard layers. A
//!   [`FaultPlan`] — either parsed from `QUEST_FAULT_PLAN` or generated from a
//!   seed — schedules which site fails on which hit and how (fsync error,
//!   torn write, append error, apply error, slow IO). With no plan installed
//!   the hot path is a single relaxed atomic load, mirroring how `quest-obs`
//!   stays free when disabled.
//! * **Self-healing** ([`retry`]): a [`RetryPolicy`] with bounded,
//!   deterministic exponential backoff (seeded jitter), an injectable
//!   [`Clock`] so recovery loops never touch wall-clock time in tests, and
//!   [`Quarantine`], the one probe-after-backoff state machine that both
//!   the replica and the shard supervisors run.
//!
//! Every injection, retry, heal, and escalation is counted in the global
//! `quest-obs` registry under the `quest_fault_*` names so chaos runs are
//! observable end to end.
//!
//! ```
//! use quest_fault::{FaultPlan, RetryPolicy};
//!
//! let plan: FaultPlan = "wal.fsync@1=fsync_error".parse().unwrap();
//! quest_fault::install(plan);
//! assert!(quest_fault::fire(quest_fault::sites::WAL_FSYNC).is_some());
//! assert!(quest_fault::fire(quest_fault::sites::WAL_FSYNC).is_none());
//! quest_fault::clear();
//!
//! let policy = RetryPolicy::default();
//! assert_eq!(policy.schedule(), policy.schedule()); // deterministic per seed
//! ```

pub mod plan;
pub mod retry;

pub use plan::{
    clear, consumed, fire, init_from_env, install, installed, pending, sites, Fault, FaultKind,
    FaultPlan, Injection, Transience,
};
pub use retry::{Clock, ManualClock, Quarantine, RetryPolicy, SystemClock};

/// Metric names exported to the global `quest-obs` registry.
pub mod names {
    /// Counter: faults injected by the registry (labelled per site).
    pub const INJECTED: &str = "quest_fault_injected_total";
    /// Counter: retry attempts made by self-healing loops.
    pub const RETRIES: &str = "quest_fault_retries_total";
    /// Counter: successful heals (labelled per component).
    pub const HEALS: &str = "quest_fault_heals_total";
    /// Counter: recoveries escalated to permanent failure.
    pub const ESCALATIONS: &str = "quest_fault_escalations_total";
    /// Gauge: components currently quarantined (labelled per component).
    pub const QUARANTINED: &str = "quest_fault_quarantined";
}

fn describe_all() {
    let reg = quest_obs::global();
    reg.describe(names::INJECTED, "Faults injected by the failpoint registry");
    reg.describe(names::RETRIES, "Retry attempts made by self-healing loops");
    reg.describe(names::HEALS, "Successful self-heals by component");
    reg.describe(
        names::ESCALATIONS,
        "Recoveries escalated to permanent failure",
    );
    reg.describe(names::QUARANTINED, "Components currently quarantined");
}

/// Count one injected fault at `site`.
pub(crate) fn count_injected(site: &str) {
    describe_all();
    let reg = quest_obs::global();
    reg.counter(names::INJECTED).inc();
    reg.counter_with(names::INJECTED, &[("site", site)]).inc();
}

/// Count one retry attempt made by a self-healing loop.
pub(crate) fn count_retry() {
    describe_all();
    quest_obs::global().counter(names::RETRIES).inc();
}

/// Count one successful heal of `component` (`"wal"`, `"replica"`, `"shard"`).
pub fn count_heal(component: &str) {
    describe_all();
    let reg = quest_obs::global();
    reg.counter(names::HEALS).inc();
    reg.counter_with(names::HEALS, &[("component", component)])
        .inc();
}

/// Count one escalation of `component` to permanent failure.
pub(crate) fn count_escalation(component: &str) {
    describe_all();
    let reg = quest_obs::global();
    reg.counter(names::ESCALATIONS).inc();
    reg.counter_with(names::ESCALATIONS, &[("component", component)])
        .inc();
}

/// Handle on the per-component quarantine gauge.
pub fn quarantined(component: &str) -> quest_obs::Gauge {
    describe_all();
    quest_obs::global().gauge_with(names::QUARANTINED, &[("component", component)])
}

/// SplitMix64 step shared by the plan generator and backoff jitter: a tiny,
/// seedable, allocation-free stream that keeps this crate zero-dependency.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
