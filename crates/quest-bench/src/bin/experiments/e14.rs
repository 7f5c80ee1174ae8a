//! E14 — chaos: seeded deterministic fault schedules against replicated and
//! sharded topologies. Each schedule installs a generated `FaultPlan`, runs
//! a fixed mutation workload, drives the self-healing machinery (commit
//! retries, replica re-bootstrap, shard unfencing) to convergence under a
//! manual clock, and checks the healed service answers byte-identically to
//! a never-faulted twin. `QUEST_E14_SCHEDULES` overrides the schedule count
//! (CI smoke runs one batch and archives this output as the chaos summary).

use std::sync::Arc;
use std::time::Duration;

use quest_bench::Table;
use quest_core::QuestConfig;
use quest_data::imdb;
use quest_fault::{self as fault, FaultPlan, ManualClock, RetryPolicy};
use quest_replica::{Primary, PrimaryOptions, ReplicaSet, RoutingPolicy};
use quest_shard::{ShardConfig, ShardError, ShardedPrimary};
use quest_wal::ChangeRecord;

pub fn run() {
    println!(
        "\n## E14 — chaos: seeded fault schedules with self-healing convergence (IMDB-shaped)\n"
    );
    let schedules: u64 = std::env::var("QUEST_E14_SCHEDULES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24);

    let dataset = || {
        imdb::generate(&imdb::ImdbScale {
            movies: 40,
            seed: 7,
        })
        .expect("imdb generates")
    };
    let batches: Vec<Vec<ChangeRecord>> = (0..3i64)
        .map(|round| {
            let base = 930_000 + round * 10;
            vec![
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
                        format!("Chaos Feature {round}").into(),
                        (1980 + round).into(),
                        7.0.into(),
                        (base + 1).into(),
                    ],
                },
            ]
        })
        .collect();
    let probes = ["chaos feature", "chaos person", "casablanca"];
    let e14_dir = |name: &str| {
        let dir = std::env::temp_dir().join(format!("quest-e14-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    };
    let retry = RetryPolicy {
        retries: 8,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(8),
        jitter_seed: 1,
    };

    // Fingerprints: per probe, each explanation's SQL + score bits in order.
    let prints = |search: &dyn Fn(&str) -> Option<quest_core::SearchOutcome>,
                  catalog: &relstore::Catalog| {
        probes
            .iter()
            .map(|raw| match search(raw) {
                Some(out) => out
                    .explanations
                    .iter()
                    .map(|e| (e.sql(catalog), e.score.to_bits()))
                    .collect(),
                None => Vec::new(),
            })
            .collect::<Vec<Vec<(String, u64)>>>()
    };

    // One replicated schedule under `plan` (None = the twin).
    let replicated = |tag: &str, plan: Option<FaultPlan>| {
        let dir = e14_dir(tag);
        let initial = dataset();
        let clock = Arc::new(ManualClock::new());
        let primary = Arc::new(
            Primary::open_with(
                &dir,
                initial.clone(),
                QuestConfig::default(),
                PrimaryOptions {
                    retry: retry.clone(),
                    clock: clock.clone(),
                    ..Default::default()
                },
            )
            .expect("primary opens"),
        );
        let mut set = ReplicaSet::new(Arc::clone(&primary), RoutingPolicy::RoundRobin);
        set.set_recovery(retry.clone(), clock.clone());
        set.spawn_replica("e14a").expect("replica");
        set.spawn_replica("e14b").expect("replica");
        if let Some(plan) = plan {
            fault::install(plan);
        }
        for batch in &batches {
            primary.commit(batch).expect("commit heals under retry");
            let _ = set.sync_all();
        }
        let target = primary.last_lsn();
        let mut ticks = 0u32;
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
            ticks += 1;
            assert!(ticks < 256, "replicated schedule {tag} failed to converge");
        }
        let replica = &set.replicas()[0];
        let fp = prints(&|raw| replica.search(raw).ok(), initial.catalog());
        fault::clear();
        std::fs::remove_dir_all(&dir).ok();
        (fp, ticks)
    };

    // One sharded schedule under `plan` (None = the twin); a small retry
    // budget so stacked faults actually fence and exercise supervision.
    let sharded = |tag: &str, plan: Option<FaultPlan>| {
        let dir = e14_dir(tag);
        let db = dataset();
        let catalog = db.catalog().clone();
        let clock = Arc::new(ManualClock::new());
        let mut sp = ShardedPrimary::open(
            &dir,
            db,
            &ShardConfig {
                shard_count: 2,
                parallel: false,
            },
            QuestConfig::default(),
        )
        .expect("sharded primary opens");
        sp.set_recovery(
            RetryPolicy {
                retries: 2,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(4),
                jitter_seed: 1,
            },
            clock.clone(),
        );
        if let Some(plan) = plan {
            fault::install(plan);
        }
        let mut ticks = 0u32;
        for batch in &batches {
            loop {
                let lsns_before = sp.topology().lsns;
                match sp.commit(batch) {
                    Ok(_) => break,
                    Err(e @ (ShardError::ShardDown { .. } | ShardError::CommitUnknown { .. })) => {
                        while !sp.is_healthy() {
                            clock.advance(Duration::from_millis(40));
                            sp.supervise();
                            ticks += 1;
                            assert!(ticks < 256, "sharded schedule {tag} failed to unfence");
                        }
                        // A batch past its commit point (`ShardDown`) is in
                        // the healed set. One whose commit point failed is
                        // there only if its frame reached the file; otherwise
                        // send it again.
                        let landed = sp.topology().lsns != lsns_before;
                        if landed || matches!(e, ShardError::ShardDown { .. }) {
                            break;
                        }
                    }
                    Err(other) => panic!("unexpected commit error in {tag}: {other}"),
                }
            }
        }
        assert!(sp.is_healthy(), "sharded set must end healthy in {tag}");
        let fp = prints(&|raw| sp.search(raw).ok(), &catalog);
        fault::clear();
        std::fs::remove_dir_all(&dir).ok();
        (fp, ticks)
    };

    let counters = || {
        let snap = quest_obs::global().snapshot();
        (
            snap.counter(fault::names::INJECTED).unwrap_or(0),
            snap.counter(fault::names::RETRIES).unwrap_or(0),
            snap.counter(fault::names::HEALS).unwrap_or(0),
        )
    };

    fault::clear();
    let twin_replicated = replicated("twin-r", None);
    let twin_sharded = sharded("twin-s", None);
    let (inj0, retry0, heal0) = counters();
    let mut identical = true;
    let mut max_ticks = 0u32;
    let per_topology = schedules.div_ceil(2);
    for seed in 0..schedules {
        let plan = FaultPlan::generate(seed, 5);
        if seed % 2 == 0 {
            let (fp, ticks) = replicated(&format!("r{seed}"), Some(plan));
            identical &= fp == twin_replicated.0;
            max_ticks = max_ticks.max(ticks);
        } else {
            let (fp, ticks) = sharded(&format!("s{seed}"), Some(plan));
            identical &= fp == twin_sharded.0;
            max_ticks = max_ticks.max(ticks);
        }
    }
    let (inj1, retry1, heal1) = counters();

    let mut t = Table::new(&[
        "topology",
        "schedules",
        "faults",
        "retries",
        "heals",
        "max heal ticks",
        "identity",
    ]);
    t.row(vec![
        "replicated + sharded".into(),
        schedules.to_string(),
        (inj1 - inj0).to_string(),
        (retry1 - retry0).to_string(),
        (heal1 - heal0).to_string(),
        max_ticks.to_string(),
        if identical {
            "ok".into()
        } else {
            "DIVERGED".into()
        },
    ]);
    print!("{}", t.render());
    println!(
        "\n(each schedule is a seeded FaultPlan over WAL, replica, and shard seams; identity = \
SQL + score-bit equality of the healed topology against a never-faulted twin; ~{per_topology} \
schedules per topology; heal ticks are manual-clock supervision rounds, so no wall time is \
spent in backoff.)"
    );
    assert!(
        identical,
        "E14 identity gate: a healed schedule diverged from its twin"
    );
    println!(
        "chaos OK: {schedules} schedules, {} faults injected, {} retries, {} heals, all \
converged healthy and twin-identical",
        inj1 - inj0,
        retry1 - retry0,
        heal1 - heal0
    );
}
