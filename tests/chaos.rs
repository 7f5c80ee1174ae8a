//! Seeded chaos harness: deterministic fault schedules against replicated
//! and sharded topologies, with self-healing required to converge.
//!
//! The contract under test: for every seeded [`FaultPlan`], after the
//! retry/re-bootstrap/unfence machinery converges, the topology serves
//! **byte-identical** answers (SQL text, score bits, ranking order) to a
//! never-faulted twin that ran the same workload — and ends Healthy without
//! a process restart. Every injected fault is visible in the `quest_fault_*`
//! counters, and the health report passes through a non-Healthy grade while
//! the topology is broken.
//!
//! The failpoint registry is process-global, so every test that installs a
//! plan serializes on [`FAULT_LOCK`]. `QUEST_CHAOS_SCHEDULES` overrides the
//! default schedule count (CI smoke runs fewer; soak runs run more).

use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use quest::fault::{self, FaultPlan, ManualClock, RetryPolicy};
use quest::prelude::*;
use quest::shard::ShardConfig;
use quest_obs::HealthStatus;

/// Serializes plan-installing tests within this binary.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn schedules() -> u64 {
    std::env::var("QUEST_CHAOS_SCHEDULES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(100)
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("quest-chaos")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn dataset() -> Database {
    quest::data::imdb::generate(&quest::data::imdb::ImdbScale {
        movies: 40,
        seed: 7,
    })
    .expect("imdb generates")
}

/// Three deterministic mutation rounds: inserts with fresh keys, an update,
/// and a delete, so healing has torn batches, re-applies, and pending
/// slices to get exactly right.
fn chaos_batches() -> Vec<Vec<ChangeRecord>> {
    (0..3i64)
        .map(|round| {
            let base = 910_000 + round * 10;
            let mut batch = vec![
                ChangeRecord::Insert {
                    table: "person".into(),
                    row: vec![
                        (base + 1).into(),
                        format!("Chaos Person {round}").into(),
                        (1950 + round).into(),
                    ],
                },
                ChangeRecord::Insert {
                    table: "movie".into(),
                    row: vec![
                        (base + 2).into(),
                        format!("Chaos Horizons {round}").into(),
                        (1980 + round).into(),
                        (7.5 + round as f64 * 0.25).into(),
                        (base + 1).into(),
                    ],
                },
            ];
            if round == 2 {
                // Rewrite round 0's title and drop round 1's movie.
                batch.push(ChangeRecord::Update {
                    table: "movie".into(),
                    key: vec![910_002.into()],
                    row: vec![
                        910_002.into(),
                        "Chaos Horizons Rewritten".into(),
                        1980.into(),
                        7.5.into(),
                        910_001.into(),
                    ],
                });
                batch.push(ChangeRecord::Delete {
                    table: "movie".into(),
                    key: vec![910_012.into()],
                });
            }
            batch
        })
        .collect()
}

fn probe_queries() -> Vec<String> {
    let mut queries: Vec<String> = quest::data::imdb::workload()
        .iter()
        .take(2)
        .map(|wq| wq.raw.clone())
        .collect();
    queries.push("chaos horizons".to_string());
    queries.push("chaos person".to_string());
    queries
}

/// Bit-exact fingerprints: per query, each explanation's SQL text and score
/// bits in ranking order.
type Fingerprints = Vec<(String, Vec<(String, u64)>)>;

fn fingerprints<E>(
    search: impl Fn(&str) -> Result<SearchOutcome, E>,
    catalog: &Catalog,
) -> Fingerprints
where
    E: std::fmt::Debug,
{
    probe_queries()
        .into_iter()
        .map(|raw| {
            let prints = match search(&raw) {
                Ok(out) => out
                    .explanations
                    .iter()
                    .map(|e| (e.sql(catalog), e.score.to_bits()))
                    .collect(),
                Err(_) => Vec::new(),
            };
            (raw, prints)
        })
        .collect()
}

/// Snapshot of the global fault counters (bare, label-free series).
fn fault_counters() -> (u64, u64, u64, u64) {
    let snap = quest_obs::global().snapshot();
    (
        snap.counter(fault::names::INJECTED).unwrap_or(0),
        snap.counter(fault::names::RETRIES).unwrap_or(0),
        snap.counter(fault::names::HEALS).unwrap_or(0),
        fault::consumed(),
    )
}

/// One replicated schedule: primary + two replicas under `plan`, with a
/// manual clock so no wall time passes in backoff. Returns the healed
/// fingerprints and the final target LSN.
fn run_replicated(tag: &str, plan: Option<FaultPlan>) -> (Fingerprints, u64) {
    let dir = temp_dir(tag);
    let initial = dataset();
    let clock = Arc::new(ManualClock::new());
    let retry = RetryPolicy {
        retries: 8,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(8),
        jitter_seed: 1,
    };
    let primary = Arc::new(
        Primary::open_with(
            &dir,
            initial.clone(),
            QuestConfig::default(),
            quest::replica::PrimaryOptions {
                retry: retry.clone(),
                clock: clock.clone(),
                ..Default::default()
            },
        )
        .expect("primary opens"),
    );
    let mut set = ReplicaSet::new(Arc::clone(&primary), RoutingPolicy::RoundRobin);
    set.set_recovery(retry, clock.clone());
    set.spawn_replica("c1").expect("c1");
    set.spawn_replica("c2").expect("c2");

    let spec = quest_obs::SloSpec {
        max_lag: Some(64),
        ..Default::default()
    };
    let faulted = plan.is_some();
    if let Some(plan) = plan {
        fault::install(plan);
    }

    let mut saw_unhealthy = false;
    for (round, batch) in chaos_batches().iter().enumerate() {
        primary
            .commit(batch)
            .expect("commit heals under the retry budget");
        if round == 1 {
            primary
                .publish_snapshot()
                .expect("snapshot publish heals under the retry budget");
        }
        let _ = set.sync_all();
        if set.replicas().iter().any(|r| !r.is_healthy()) {
            saw_unhealthy = true;
            assert_ne!(
                set.topology().health(&spec).status,
                HealthStatus::Healthy,
                "a broken replica must grade non-Healthy"
            );
        }
    }

    // Convergence: supervision ticks heal broken replicas (re-bootstrap
    // behind backoff), sync drains the log. Faults are finite, so this
    // terminates; the bound is generous.
    let target = primary.last_lsn();
    let mut iters = 0;
    loop {
        clock.advance(Duration::from_millis(60));
        set.supervise();
        let synced = set.sync_all().is_ok();
        let replicas = set.replicas();
        if synced
            && replicas
                .iter()
                .all(|r| r.is_healthy() && r.applied_lsn() == target)
        {
            break;
        }
        if !replicas.iter().all(|r| r.is_healthy()) {
            saw_unhealthy = true;
        }
        iters += 1;
        assert!(iters < 256, "replicated schedule {tag} failed to converge");
    }
    assert_eq!(
        set.topology().health(&spec).status,
        HealthStatus::Healthy,
        "healed topology must grade Healthy"
    );
    if faulted && saw_unhealthy {
        // Replica breakage must have healed through the supervised path.
        assert!(
            quest_obs::global()
                .snapshot()
                .counter(fault::names::HEALS)
                .unwrap_or(0)
                > 0,
            "heals counter must record the recovery"
        );
    }

    let mut prints: Vec<Fingerprints> = set
        .replicas()
        .iter()
        .map(|r| fingerprints(|raw| r.search(raw), initial.catalog()))
        .collect();
    let first = prints.remove(0);
    for other in prints {
        assert_eq!(first, other, "replicas diverged in schedule {tag}");
    }
    fault::clear();
    std::fs::remove_dir_all(&dir).ok();
    (first, target)
}

/// One sharded schedule: a 2-shard set under `plan`, with a deliberately
/// small commit retry budget so schedules that stack faults on one site
/// actually fence the set and exercise recovery. A fenced set is healed by
/// supervision, or — with `reopen_mid_fence` — dropped while fenced and
/// reopened from its directory, as a process that dies mid-fence would be.
/// A batch whose commit outcome was unknown is committed again once the
/// healed set shows it did not land, as a client that saw the error would.
/// Returns the healed service, its LSNs, and how many commits fenced the
/// set: `[outcome unknown, shard down]`.
fn run_sharded(
    tag: &str,
    plan: Option<FaultPlan>,
    reopen_mid_fence: bool,
) -> (Fingerprints, Vec<u64>, [usize; 2]) {
    let dir = temp_dir(tag);
    let db = dataset();
    let catalog = db.catalog().clone();
    let clock = Arc::new(ManualClock::new());
    let shards = ShardConfig {
        shard_count: 2,
        parallel: false,
    };
    let retry = RetryPolicy {
        retries: 2,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(4),
        jitter_seed: 1,
    };
    let mut sp = ShardedPrimary::open(&dir, db, &shards, QuestConfig::default())
        .expect("sharded primary opens");
    sp.set_recovery(retry.clone(), clock.clone());

    let spec = quest_obs::SloSpec {
        max_lag: Some(64),
        ..Default::default()
    };
    if let Some(plan) = plan {
        fault::install(plan);
    }

    let mut fences = [0usize; 2];
    for batch in &chaos_batches() {
        let mut attempts = 0;
        loop {
            let lsns_before = sp.topology().lsns;
            match sp.commit(batch) {
                Ok(_) => break,
                Err(e @ (ShardError::ShardDown { .. } | ShardError::CommitUnknown { .. })) => {
                    fences[usize::from(matches!(e, ShardError::ShardDown { .. }))] += 1;
                    assert_ne!(
                        sp.topology().health(&spec).status,
                        HealthStatus::Healthy,
                        "a fenced shard must grade non-Healthy"
                    );
                    if reopen_mid_fence {
                        drop(sp);
                        sp = ShardedPrimary::reopen(
                            &dir,
                            catalog.clone(),
                            &shards,
                            QuestConfig::default(),
                        )
                        .expect("a directory left mid-fence reopens");
                        sp.set_recovery(retry.clone(), clock.clone());
                    }
                    let mut iters = 0;
                    while !sp.is_healthy() {
                        clock.advance(Duration::from_millis(40));
                        sp.supervise();
                        iters += 1;
                        assert!(iters < 256, "sharded schedule {tag} failed to unfence");
                    }
                    // A batch past its commit point is in the healed set. One
                    // whose commit point failed is there only if its frame
                    // reached the file; otherwise send it again.
                    let landed = sp.topology().lsns != lsns_before;
                    if let ShardError::ShardDown { .. } = e {
                        assert!(landed, "a committed batch was lost in {tag}");
                    }
                    if landed {
                        break;
                    }
                }
                Err(other) => panic!("unexpected commit error in {tag}: {other}"),
            }
            attempts += 1;
            assert!(
                attempts < 16,
                "sharded schedule {tag} never committed a batch"
            );
        }
    }
    assert!(sp.is_healthy(), "sharded set must end healthy in {tag}");
    assert_eq!(sp.topology().health(&spec).status, HealthStatus::Healthy);
    if fences != [0, 0] && !reopen_mid_fence {
        assert!(
            quest_obs::global()
                .snapshot()
                .counter(fault::names::HEALS)
                .unwrap_or(0)
                > 0,
            "unfencing must land in the heals counter"
        );
    }

    let prints = fingerprints(|raw| sp.search(raw), &catalog);
    let lsns = sp.topology().lsns;
    fault::clear();

    // The healed logs are the only durable witness of what the set serves:
    // a cold reopen of the directory must answer, and number, identically.
    drop(sp);
    let reopened = ShardedPrimary::reopen(&dir, catalog.clone(), &shards, QuestConfig::default())
        .expect("healed directory reopens");
    assert_eq!(
        fingerprints(|raw| reopened.search(raw), &catalog),
        prints,
        "reopened set of {tag} answers differently from the live one"
    );
    assert_eq!(reopened.topology().lsns, lsns, "reopen LSN drift in {tag}");
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
    (prints, lsns, fences)
}

/// The never-faulted twins, computed once and reused by every schedule.
fn replicated_twin() -> &'static (Fingerprints, u64) {
    static TWIN: OnceLock<(Fingerprints, u64)> = OnceLock::new();
    TWIN.get_or_init(|| run_replicated("twin-replicated", None))
}

fn sharded_twin() -> &'static (Fingerprints, Vec<u64>) {
    static TWIN: OnceLock<(Fingerprints, Vec<u64>)> = OnceLock::new();
    TWIN.get_or_init(|| {
        let (prints, lsns, _) = run_sharded("twin-sharded", None, false);
        (prints, lsns)
    })
}

#[test]
fn seeded_schedules_heal_to_twin_identical_service() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    let twin_replicated = replicated_twin().clone();
    let twin_sharded = sharded_twin().clone();
    assert!(
        twin_replicated
            .0
            .iter()
            .any(|(_, prints)| !prints.is_empty()),
        "twin must actually answer queries"
    );

    let (injected_start, retries_start, heals_start, _) = fault_counters();
    let mut fenced_seeds = Vec::new();
    for seed in 0..schedules() {
        let plan = FaultPlan::generate(seed, 5);
        let (injected_before, _, _, consumed_before) = fault_counters();
        if seed % 2 == 0 {
            let (prints, target) = run_replicated(&format!("r{seed}"), Some(plan));
            assert_eq!(
                prints, twin_replicated.0,
                "replicated schedule {seed} diverged from the twin"
            );
            assert_eq!(target, twin_replicated.1, "LSN drift in schedule {seed}");
        } else {
            // Sharded schedules are the odd seeds. One that fences is run
            // twice: healed by supervision, then — the same faults at the
            // same points — dropped mid-fence and reopened instead.
            let (prints, lsns, fenced) =
                run_sharded(&format!("s{seed}"), Some(plan.clone()), false);
            assert_eq!(
                prints, twin_sharded.0,
                "sharded schedule {seed} diverged from the twin"
            );
            assert_eq!(lsns, twin_sharded.1, "shard LSN drift in schedule {seed}");
            if fenced != [0, 0] {
                fenced_seeds.push(seed);
                assert_reopen_mid_fence_matches(&format!("s{seed}"), plan, &twin_sharded);
            }
        }
        let (injected_after, _, _, consumed_after) = fault_counters();
        assert_eq!(
            injected_after - injected_before,
            consumed_after - consumed_before,
            "every consumed injection of schedule {seed} must land in the counter"
        );
    }

    // The sweep must have real coverage: faults actually fired, and the
    // supervised heal paths actually ran — otherwise a plan whose sites
    // never trigger would pass vacuously. The counters are process-wide,
    // so count only what this sweep added, not other tests' faults.
    let (injected_end, retries_end, heals_end, _) = fault_counters();
    let injected = injected_end - injected_start;
    let heals = heals_end - heals_start;
    assert!(injected > 0, "no schedule injected a single fault");
    assert!(heals > 0, "no schedule exercised a heal path");
    // CI greps this line: only a run whose every schedule converged to the
    // twin reaches it.
    println!(
        "chaos OK: {} schedules, {injected} faults injected, {} retries, {heals} heals, \
         sharded schedules that fenced (supervised and reopened): {fenced_seeds:?}",
        schedules(),
        retries_end - retries_start,
    );
}

/// Rerun a sharded schedule that fenced under supervision with the same
/// faults at the same points, dropping the set mid-fence and reopening it
/// instead: it must fence again and heal to the twin all the same.
fn assert_reopen_mid_fence_matches(tag: &str, plan: FaultPlan, twin: &(Fingerprints, Vec<u64>)) {
    let (prints, lsns, fenced) = run_sharded(&format!("{tag}-reopen"), Some(plan), true);
    assert_ne!(fenced, [0, 0], "schedule {tag} must fence again when rerun");
    assert_eq!(
        prints, twin.0,
        "reopened schedule {tag} diverged from the twin"
    );
    assert_eq!(lsns, twin.1, "reopen LSN drift in schedule {tag}");
}

#[test]
fn a_fenced_sharded_schedule_heals_by_supervision_and_by_reopen() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    let twin = sharded_twin().clone();
    // Seeded plans rarely fence a sharded set, so this one does for sure:
    // a coordinator fsync fails for good (the commit's outcome is unknown,
    // and the batch is resent once the healed set shows it did not land),
    // and later a shard append fails for good (the batch is committed).
    let plan: FaultPlan = "wal.fsync@2=fsync_error!,shard.commit@2=append_error!"
        .parse()
        .expect("plan parses");
    let (prints, lsns, fenced) = run_sharded("fixed-fence", Some(plan.clone()), false);
    assert_eq!(
        fenced,
        [1, 1],
        "the fixed plan must fence the set both ways"
    );
    assert_eq!(
        prints, twin.0,
        "supervised fixed schedule diverged from the twin"
    );
    assert_eq!(lsns, twin.1, "supervised fixed schedule LSN drift");
    assert_reopen_mid_fence_matches("fixed-fence", plan, &twin);
    fault::clear();
}

#[test]
fn zero_fault_plan_is_inert() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    let twin = replicated_twin().clone();
    let (injected_before, retries_before, heals_before, consumed_before) = fault_counters();
    fault::install(FaultPlan::none());
    // An empty plan disarms the registry outright: the hot path stays a
    // single relaxed load, exactly as if no plan had ever been installed.
    assert!(!fault::installed());
    assert_eq!(fault::pending(), 0);
    let (prints, target) = run_replicated("zero-plan", None);
    let (injected_after, retries_after, heals_after, consumed_after) = fault_counters();
    assert_eq!(prints, twin.0, "an empty plan must not perturb results");
    assert_eq!(target, twin.1);
    assert_eq!(injected_after, injected_before);
    assert_eq!(retries_after, retries_before);
    assert_eq!(heals_after, heals_before);
    assert_eq!(consumed_after, consumed_before);
    fault::clear();
    assert!(!fault::installed());
}

#[test]
fn fault_metrics_render_in_prometheus_exposition() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    // Touch every series so a fresh process still renders all of them
    // (each helper registers its own `# HELP` description).
    fault::install("wal.fsync@1=fsync_error".parse().expect("plan parses"));
    assert!(fault::fire(fault::sites::WAL_FSYNC).is_some());
    fault::count_retry();
    fault::count_heal("chaos");
    fault::count_escalation("chaos");
    fault::quarantined("chaos").add(1);
    fault::quarantined("chaos").sub(1);
    fault::clear();

    let text = quest::obs::to_prometheus_text(&quest_obs::global().snapshot());
    // ServeStats::Display is registry-driven: merging the global snapshot
    // into a stats snapshot must surface the same fault series next to the
    // serving counters, with no hand-kept field list to forget them.
    let mut stats = ServeStats::default();
    stats.metrics.merge(&quest_obs::global().snapshot());
    let rendered = stats.to_string();
    for name in [
        fault::names::INJECTED,
        fault::names::RETRIES,
        fault::names::HEALS,
        fault::names::ESCALATIONS,
        fault::names::QUARANTINED,
    ] {
        assert!(
            text.contains(&format!("# HELP {name}")),
            "{name} missing a HELP line in the exposition"
        );
        assert!(text.contains(name), "{name} missing from the exposition");
        assert!(
            rendered.contains(name),
            "{name} missing from the ServeStats rendering"
        );
    }
}
