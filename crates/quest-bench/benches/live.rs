//! Criterion bench — the live-data path: mutation batches applied through
//! the serving layer (checked mutations + incremental index maintenance +
//! engine re-sync + data-epoch bump), and warm query latency right after a
//! mutation retires the caches.

use std::cell::Cell;

use criterion::{criterion_group, criterion_main, Criterion};
use quest_bench::{engine_for, Dataset};
use quest_serve::CachedEngine;
use quest_wal::ChangeRecord;

/// Mutation batches need fresh primary keys each iteration; a bumping
/// counter keeps them unique across criterion's warmup and sampling.
fn next_ids(counter: &Cell<i64>) -> (i64, i64) {
    let base = counter.get();
    counter.set(base + 2);
    (base, base + 1)
}

fn bench_mutation_apply(c: &mut Criterion) {
    let mut g = c.benchmark_group("live_update_imdb");
    g.sample_size(10);

    let cached = CachedEngine::new(engine_for(Dataset::Imdb));
    let counter = Cell::new(600_000i64);
    g.bench_function("apply_insert_pair_batch", |b| {
        b.iter(|| {
            let (person_id, movie_id) = next_ids(&counter);
            let batch = vec![
                ChangeRecord::Insert {
                    table: "person".into(),
                    row: vec![person_id.into(), "Bench Director".into(), 1970.into()],
                },
                ChangeRecord::Insert {
                    table: "movie".into(),
                    row: vec![
                        movie_id.into(),
                        "Bench Premiere".into(),
                        2024.into(),
                        7.0.into(),
                        person_id.into(),
                    ],
                },
            ];
            cached.apply(std::hint::black_box(&batch)).expect("applies");
        })
    });

    // Queries right after a mutation: every iteration pays a cold
    // forward/backward recompute for the probed keywords.
    let queries: Vec<String> = Dataset::Imdb
        .workload()
        .iter()
        .take(4)
        .map(|wq| wq.raw.clone())
        .collect();
    g.bench_function("requery_after_mutation", |b| {
        b.iter(|| {
            let (person_id, movie_id) = next_ids(&counter);
            let batch = vec![
                ChangeRecord::Insert {
                    table: "person".into(),
                    row: vec![person_id.into(), "Churn Director".into(), 1970.into()],
                },
                ChangeRecord::Insert {
                    table: "movie".into(),
                    row: vec![
                        movie_id.into(),
                        "Churn Feature".into(),
                        2024.into(),
                        6.5.into(),
                        person_id.into(),
                    ],
                },
            ];
            cached.apply(&batch).expect("applies");
            for q in &queries {
                let _ = cached.search(std::hint::black_box(q));
            }
        })
    });

    // Baseline for the same queries with no churn (warm caches).
    for q in &queries {
        let _ = cached.search(q);
    }
    g.bench_function("requery_static_warm", |b| {
        b.iter(|| {
            for q in &queries {
                let _ = cached.search(std::hint::black_box(q));
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench_mutation_apply);
criterion_main!(benches);
