//! Criterion bench — serving throughput: the serial engine vs the
//! `quest-serve` pool at growing worker counts, on the IMDB workload stream
//! (cache warm, the steady state of a long-running service).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use quest_bench::{engine_for, shuffled_stream, Dataset};
use quest_core::SearchScratch;
use quest_serve::{CachedEngine, QueryService};

fn bench_serial_vs_workers(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve_throughput_imdb");
    g.sample_size(10);
    // The workload repeated 8x in a shuffled order, so each worker gets
    // enough jobs and repeats are spread out.
    let queries = shuffled_stream(&Dataset::Imdb.workload(), 8, 42);

    let engine = engine_for(Dataset::Imdb);
    g.bench_function("serial_uncached", |b| {
        b.iter(|| {
            for q in &queries {
                let _ = engine.search(std::hint::black_box(q));
            }
        })
    });

    for workers in [1usize, 2, 4] {
        let service = QueryService::new(CachedEngine::new(engine.clone()), workers);
        // Warm the caches once so the measurement is the steady state.
        for t in service.submit_batch(&queries) {
            let _ = t.wait();
        }
        g.bench_with_input(
            BenchmarkId::new("workers_warm", workers),
            &workers,
            |b, _| {
                b.iter(|| {
                    for t in service.submit_batch(std::hint::black_box(&queries)) {
                        let _ = t.wait();
                    }
                })
            },
        );
        service.shutdown();
    }
    g.finish();
}

/// The repo benchmark's pooled shape (`serve_hot`'s `read_qps`): two
/// workers, windows of 8 warm queries submitted together and then awaited.
/// Beside it, one caller thread runs the same windows through
/// `CachedEngine::search_with`: the floor the pool must beat to pay.
fn bench_window8_warm(c: &mut Criterion) {
    let mut g = c.benchmark_group("window8_warm");
    g.sample_size(50);
    let queries = shuffled_stream(&Dataset::Imdb.workload(), 8, 42);
    let windows: Vec<&[String]> = queries.chunks(8).collect();
    let shared = Arc::new(CachedEngine::new(engine_for(Dataset::Imdb)));
    let mut scratch = SearchScratch::new();
    for q in &queries {
        let _ = shared.search_with(q, &mut scratch);
    }

    g.bench_function("caller_thread", |b| {
        b.iter(|| {
            for window in &windows {
                for q in *window {
                    let _ = shared.search_with(std::hint::black_box(q), &mut scratch);
                }
            }
        })
    });
    let service = QueryService::over(Arc::clone(&shared), 2);
    g.bench_function("pool_2_workers", |b| {
        b.iter(|| {
            for window in &windows {
                for t in service.submit_batch(std::hint::black_box(*window)) {
                    let _ = t.wait();
                }
            }
        })
    });
    service.shutdown();
    g.finish();
}

criterion_group!(benches, bench_serial_vs_workers, bench_window8_warm);
criterion_main!(benches);
