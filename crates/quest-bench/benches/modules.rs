//! Criterion bench — experiment E6: per-module cost of the Figure 1
//! pipeline pieces (list Viterbi, the hot-path `ListDecoder` per lattice
//! shape, EM epoch, emission computation, the first-sight metadata row) —
//! plus `commit_refresh`, the storage-layer cost of one commit batch
//! (unsharded and on a 4-shard store), `shard_open`, a sharded primary's
//! cold open and reopen, and `sharded_commit_warm`, a sharded primary's
//! whole commit after reads have filled its caches.

use criterion::{
    criterion_group, criterion_main, BatchSize, BenchmarkGroup, BenchmarkId, Criterion,
};
use quest_core::forward::ForwardModule;
use quest_core::matcher::name_similarity;
use quest_core::semantics::SemanticRules;
use quest_core::QuestConfig;
use quest_core::{DbTerm, FullAccessWrapper, KeywordQuery, SearchScratch, SourceWrapper};
use quest_data::imdb::{self, ImdbScale};
use quest_hmm::{baum_welch_step, list_viterbi, Hmm, ListDecoder};
use quest_replica::{Primary, PrimaryOptions};
use quest_serve::ApplyReport;
use quest_shard::{ShardConfig, ShardedPrimary, ShardedStore};
use quest_wal::ChangeRecord;
use relstore::{Row, Value};

fn wrapper() -> FullAccessWrapper {
    FullAccessWrapper::new(
        imdb::generate(&ImdbScale {
            movies: 1_000,
            seed: 42,
        })
        .expect("generate"),
    )
}

fn bench_list_viterbi(c: &mut Criterion) {
    let w = wrapper();
    let fwd = ForwardModule::new(&w, &SemanticRules::default()).expect("forward");
    let q = KeywordQuery::parse("leigh wind drama").expect("parse");
    let em = fwd.emissions(&w, &q);
    let mut g = c.benchmark_group("list_viterbi");
    for k in [1usize, 5, 20] {
        g.bench_with_input(BenchmarkId::new("k", k), &k, |b, &k| {
            b.iter(|| {
                fwd.top_k_apriori(std::hint::black_box(&em), k)
                    .expect("decodes")
            })
        });
    }
    g.finish();
}

/// `ListDecoder::decode` beside `list_viterbi` at `k = 5` on the IMDB
/// vocabulary, one case per lattice shape a tail stream produces: keywords ×
/// floor rows. A keyword that matches nothing gets the uniform
/// `EMISSION_FLOOR` row (every state live); one that matches leaves a few
/// states live. Plus the synthetic sparse lattice on a 1,024-state model
/// that the prune's engagement rule must leave to the plain pass.
fn bench_list_decoder(c: &mut Criterion) {
    type Decode = fn(&mut ListDecoder, &Hmm, &[Vec<f64>], usize) -> DecodeResult;
    type DecodeResult = Result<Vec<quest_hmm::DecodedPath>, quest_hmm::HmmError>;
    // `decode` picks its pass by the engagement rule; `decode_pruned`
    // forces the prune, which is how the rule's constant is re-measured.
    let passes: [(&str, Decode); 2] = [
        ("decode", ListDecoder::decode),
        ("decode_pruned", ListDecoder::decode_pruned),
    ];
    let w = wrapper();
    let fwd = ForwardModule::new(&w, &SemanticRules::default()).expect("forward");
    let hmm = fwd.apriori_hmm();
    let mut g = c.benchmark_group("list_decoder");
    let mut decoder = ListDecoder::new();
    // Floor rows first, as a mutated leading keyword gives; the order only
    // moves which step is dense, not how many dense × dense steps there are.
    let words = ["qzxvk", "wjqxz", "zzkqj", "leigh", "wind", "drama"];
    for keywords in 1..=3usize {
        for floor in 0..=keywords {
            let text = words[3 - floor..3 - floor + keywords].join(" ");
            let em = fwd.emissions(&w, &KeywordQuery::parse(&text).expect("parse"));
            let dense = em.iter().filter(|row| row.iter().all(|&e| e > 0.0));
            assert_eq!(dense.count(), floor, "{text:?}: floor rows");
            let shape = format!("{keywords}kw_{floor}floor");
            for (name, pass) in passes {
                g.bench_with_input(BenchmarkId::new(name, &shape), &em, |b, em| {
                    b.iter(|| {
                        pass(&mut decoder, hmm, std::hint::black_box(em), 5).expect("decodes")
                    })
                });
            }
            g.bench_with_input(BenchmarkId::new("list_viterbi", &shape), &em, |b, em| {
                b.iter(|| list_viterbi(hmm, std::hint::black_box(em), 5).expect("decodes"))
            });
        }
    }
    // Three rows of 5 live states each among 1,024.
    let big = Hmm::uniform(1024).expect("model");
    let sparse: Vec<Vec<f64>> = (0..3)
        .map(|t| {
            let mut row = vec![0.0; 1024];
            (0..5).for_each(|i| row[(t * 331 + i * 197) % 1024] = 0.1 * (i + 1) as f64);
            row
        })
        .collect();
    for (name, pass) in passes {
        g.bench_with_input(BenchmarkId::new(name, "1024st_sparse"), &sparse, |b, em| {
            b.iter(|| pass(&mut decoder, &big, std::hint::black_box(em), 5).expect("decodes"))
        });
    }
    g.finish();
}

fn bench_emissions(c: &mut Criterion) {
    let w = wrapper();
    let fwd = ForwardModule::new(&w, &SemanticRules::default()).expect("forward");
    let q = KeywordQuery::parse("leigh wind drama").expect("parse");
    c.bench_function("emissions_3kw", |b| {
        b.iter(|| fwd.emissions(std::hint::black_box(&w), std::hint::black_box(&q)))
    });
}

/// A keyword the engine has never seen: "director" with a typo and a
/// counter spelled in letters, so every iteration misses the metadata memo.
fn fresh_keyword(n: &mut u64) -> KeywordQuery {
    *n += 1;
    let suffix: String = (0..4)
        .map(|i| (b'a' + (*n / 26u64.pow(i) % 26) as u8) as char)
        .collect();
    KeywordQuery::parse(&format!("directr{suffix}")).expect("parse")
}

/// First sight of a keyword: the hot path's emission row (compiled matcher
/// plus index probes) against the reference `name_similarity` loop over the
/// same metadata states.
fn bench_metadata_row_first_sight(c: &mut Criterion) {
    let w = wrapper();
    let fwd = ForwardModule::new(&w, &SemanticRules::default()).expect("forward");
    let mut g = c.benchmark_group("metadata_row_first_sight");
    let mut scratch = SearchScratch::new();
    let mut n = 0;
    g.bench_function("compiled", |b| {
        b.iter(|| {
            let q = fresh_keyword(&mut n);
            fwd.emissions_into(std::hint::black_box(&w), &q, &mut scratch);
            scratch.emissions()[0][0]
        })
    });
    let vocab = fwd.vocabulary();
    g.bench_function("name_similarity_loop", |b| {
        b.iter(|| {
            let q = fresh_keyword(&mut n);
            let kw = &q.keywords[0].normalized;
            (0..vocab.len())
                .filter(|&s| !matches!(vocab.term(s), DbTerm::Domain(_)))
                .map(|s| name_similarity(kw, vocab.name(s), w.ontology()))
                .sum::<f64>()
        })
    });
    g.finish();
}

fn bench_em_epoch(c: &mut Criterion) {
    // Synthetic 64-state HMM, 20 sequences of length 4.
    let n = 64usize;
    let hmm0 = Hmm::uniform(n).expect("model");
    let batch: Vec<Vec<Vec<f64>>> = (0..20)
        .map(|s| {
            (0..4)
                .map(|t| {
                    (0..n)
                        .map(|i| if (i + s + t) % 7 == 0 { 0.9 } else { 0.05 })
                        .collect()
                })
                .collect()
        })
        .collect();
    c.bench_function("baum_welch_epoch_64st", |b| {
        b.iter(|| {
            let mut m = hmm0.clone();
            baum_welch_step(&mut m, std::hint::black_box(&batch)).expect("em step")
        })
    });
}

fn bench_raw_list_viterbi(c: &mut Criterion) {
    // Pure HMM cost without the engine: 128 states, 5 observations.
    let n = 128usize;
    let hmm = Hmm::uniform(n).expect("model");
    let em: Vec<Vec<f64>> = (0..5)
        .map(|t| {
            (0..n)
                .map(|i| 1.0 / (1.0 + ((i * 7 + t * 13) % 97) as f64))
                .collect()
        })
        .collect();
    c.bench_function("raw_list_viterbi_128st_k10", |b| {
        b.iter(|| list_viterbi(&hmm, std::hint::black_box(&em), 10).expect("decodes"))
    });
}

/// One batch of the repo benchmark's commit shape — insert a person, insert
/// a movie they direct, delete the movie of the round before — under
/// `with_stats_deferred` (index upkeep plus the batch-end statistics
/// refresh) at two table sizes, and the same batch through
/// `ShardedStore::apply_changes` on a 4-shard store (index upkeep, live
/// reference counts, one statistics derivation per dirty foreign key).
/// Every round uses fresh keys, so nothing is cloned or reset inside the
/// timed section and the movie count stays put.
fn bench_commit_refresh(c: &mut Criterion) {
    let person = |id: i64| Row::new(vec![id.into(), "Round Person".into(), 1950.into()]);
    let movie = |id: i64| {
        Row::new(vec![
            id.into(),
            "zq".into(),
            1999.into(),
            Value::Null,
            id.into(),
        ])
    };
    let mut g = c.benchmark_group("commit_refresh");
    for movies in [5_000usize, 25_000] {
        let mut db = imdb::generate(&ImdbScale { movies, seed: 42 }).expect("generate");
        let mut id = 9_000_000i64;
        db.insert("person", person(id)).expect("person");
        db.insert("movie", movie(id)).expect("movie");
        g.bench_with_input(BenchmarkId::new("movies", movies), &movies, |b, _| {
            b.iter(|| {
                id += 1;
                db.with_stats_deferred(|db| {
                    db.insert("person", person(id)).expect("person");
                    db.insert("movie", movie(id)).expect("movie");
                    db.delete("movie", &[(id - 1).into()]).expect("delete");
                })
            })
        });
        let mut store = ShardedStore::from_database(&db, &ShardConfig::new(4)).expect("shard");
        g.bench_with_input(BenchmarkId::new("sharded", movies), &movies, |b, _| {
            b.iter(|| {
                id += 1;
                let batch = [
                    ChangeRecord::Insert {
                        table: "person".into(),
                        row: person(id).into_values(),
                    },
                    ChangeRecord::Insert {
                        table: "movie".into(),
                        row: movie(id).into_values(),
                    },
                    ChangeRecord::Delete {
                        table: "movie".into(),
                        key: vec![(id - 1).into()],
                    },
                ];
                let mut report = ApplyReport::default();
                store.apply_changes(&batch, &mut report);
                assert!(report.all_applied(), "{:?}", report.rejected);
            })
        });
    }
    g.finish();
}

/// `ShardedPrimary::open` (partition, one log + LSN-0 snapshot per shard,
/// gateway engine) and `::reopen` (per-shard recovery, store reassembly,
/// gateway engine) at 4 shards. The database is generated once and cloned
/// per iteration outside the timed section; every open gets a fresh
/// directory, and reopen reads the last one opened.
fn bench_shard_open(c: &mut Criterion) {
    let shards = ShardConfig::new(4);
    let root = std::env::temp_dir().join(format!("quest-bench-shard-open-{}", std::process::id()));
    let mut g = c.benchmark_group("shard_open");
    g.sample_size(5);
    for movies in [5_000usize, 25_000] {
        let db = imdb::generate(&ImdbScale { movies, seed: 42 }).expect("generate");
        let mut opened = 0usize;
        let dir = |n: usize| root.join(format!("{movies}-{n}"));
        g.bench_with_input(BenchmarkId::new("open", movies), &movies, |b, _| {
            b.iter_batched(
                || {
                    opened += 1;
                    (dir(opened), db.clone())
                },
                |(dir, db)| {
                    ShardedPrimary::open(&dir, db, &shards, QuestConfig::default()).expect("open")
                },
                BatchSize::PerIteration,
            )
        });
        let (last, catalog) = (dir(opened), db.catalog().clone());
        g.bench_with_input(BenchmarkId::new("reopen", movies), &movies, |b, _| {
            b.iter_batched(
                || catalog.clone(),
                |catalog| {
                    ShardedPrimary::reopen(&last, catalog, &shards, QuestConfig::default())
                        .expect("reopen")
                },
                BatchSize::PerIteration,
            )
        });
    }
    g.finish();
    std::fs::remove_dir_all(&root).ok();
}

/// `ShardedPrimary::commit` + `sync` at 4 shards over 105k rows (15k
/// movies), each preceded — outside the timed section — by 200 distinct
/// reads that fill the gateway's caches for the current data epoch. The
/// commit retires every one of those entries, so whatever the caches cost
/// a commit shows here; a cold-cache commit cannot see it. Each batch
/// inserts a person and a movie with fresh keys and deletes the previous
/// round's movie.
fn bench_sharded_commit_warm(c: &mut Criterion) {
    let db = imdb::generate(&ImdbScale {
        movies: 15_000,
        seed: 42,
    })
    .expect("generate");
    let movie = db.catalog().table_id("movie").expect("movie table");
    let reads: Vec<String> = db
        .table_data(movie)
        .iter()
        .take(200)
        .map(|(_, row)| row.values()[1].to_string())
        .collect();
    let dir =
        std::env::temp_dir().join(format!("quest-bench-sharded-commit-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let set = std::cell::RefCell::new(
        ShardedPrimary::open(&dir, db, &ShardConfig::new(4), QuestConfig::default()).expect("open"),
    );
    let mut id = 9_000_000i64;
    let mut g = c.benchmark_group("sharded_commit_warm");
    g.sample_size(20);
    g.bench_function("commit_sync", |b| {
        b.iter_batched(
            || {
                for q in &reads {
                    let _ = set.borrow().search(q);
                }
                id += 1;
                vec![
                    ChangeRecord::Insert {
                        table: "person".into(),
                        row: vec![id.into(), "Warm Person".into(), 1950.into()],
                    },
                    ChangeRecord::Insert {
                        table: "movie".into(),
                        row: vec![id.into(), "zq".into(), 1999.into(), Value::Null, id.into()],
                    },
                    ChangeRecord::Delete {
                        table: "movie".into(),
                        key: vec![(id - 1).into()],
                    },
                ]
            },
            |batch| {
                let mut set = set.borrow_mut();
                set.commit(&batch).expect("commit");
                set.sync().expect("sync");
            },
            BatchSize::PerIteration,
        )
    });
    g.finish();
    drop(set);
    std::fs::remove_dir_all(&dir).ok();
}

/// Crash recovery at 105k rows (15k movies): `Primary::reopen` (snapshot
/// restore, log-suffix replay, one `finalize`, `validate`, engine) after 0
/// and after 40 commits shaped like the repo benchmark's commit stream —
/// a person and a movie inserted per commit, and every second commit
/// deleting the movie inserted two commits earlier — and `reopen_covered`:
/// the same 40 commits past a snapshot that covers 10⁴ earlier records,
/// over 7k rows (1k movies), which is what a reopen pays for history it
/// does not replay. Plus the setup phase alone: `Database::finalize` on
/// its job runner against the serial `Database::finalize_reference`, on
/// clones of one database. Dropping what a routine returns is not timed.
fn bench_recover(c: &mut Criterion) {
    let db = imdb::generate(&ImdbScale {
        movies: 15_000,
        seed: 42,
    })
    .expect("generate");
    let root = std::env::temp_dir().join(format!("quest-bench-recover-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let mut g = c.benchmark_group("recover");
    g.sample_size(10);
    let commit_rounds = |primary: &Primary, rounds: i64| {
        for round in 0..rounds {
            let id = 9_000_000 + round;
            let mut batch = vec![
                ChangeRecord::Insert {
                    table: "person".into(),
                    row: vec![id.into(), "Recover Person".into(), 1950.into()],
                },
                ChangeRecord::Insert {
                    table: "movie".into(),
                    row: vec![id.into(), "zq".into(), 1999.into(), Value::Null, id.into()],
                },
            ];
            if round >= 2 && round % 2 == 1 {
                batch.push(ChangeRecord::Delete {
                    table: "movie".into(),
                    key: vec![(id - 2).into()],
                });
            }
            primary.commit(&batch).expect("commit");
        }
    };
    let reopen = |g: &mut BenchmarkGroup<'_>, id: BenchmarkId, dir: &std::path::Path| {
        g.bench_with_input(id, dir, |b, dir| {
            b.iter_batched(
                || (),
                |()| Primary::reopen(dir, QuestConfig::default(), PrimaryOptions::default()),
                BatchSize::PerIteration,
            )
        });
    };
    for commits in [0i64, 40] {
        let dir = root.join(format!("after-{commits}"));
        let primary =
            Primary::open(&dir, db.clone(), QuestConfig::default()).expect("open primary");
        commit_rounds(&primary, commits);
        drop(primary);
        reopen(&mut g, BenchmarkId::new("reopen_after", commits), &dir);
    }
    let covered = 10_000i64;
    let dir = root.join(format!("covered-{covered}"));
    let small = imdb::generate(&ImdbScale {
        movies: 1_000,
        seed: 42,
    })
    .expect("generate");
    let primary = Primary::open(&dir, small, QuestConfig::default()).expect("open primary");
    for first in (0..covered).step_by(100) {
        let batch: Vec<ChangeRecord> = (first..first + 100)
            .map(|id| ChangeRecord::Insert {
                table: "person".into(),
                row: vec![
                    (8_000_000 + id).into(),
                    "Covered Person".into(),
                    1950.into(),
                ],
            })
            .collect();
        primary.commit(&batch).expect("commit");
    }
    assert_eq!(
        primary.publish_snapshot().expect("snapshot"),
        covered as u64
    );
    commit_rounds(&primary, 40);
    drop(primary);
    reopen(&mut g, BenchmarkId::new("reopen_covered", covered), &dir);
    // Each routine hands its database back so that dropping it is untimed.
    g.bench_function("finalize", |b| {
        b.iter_batched(
            || db.clone(),
            |mut db| {
                db.finalize();
                db
            },
            BatchSize::PerIteration,
        )
    });
    g.bench_function("finalize_reference", |b| {
        b.iter_batched(
            || db.clone(),
            |mut db| {
                db.finalize_reference();
                db
            },
            BatchSize::PerIteration,
        )
    });
    g.finish();
    std::fs::remove_dir_all(&root).ok();
}

criterion_group!(
    benches,
    bench_list_viterbi,
    bench_list_decoder,
    bench_emissions,
    bench_metadata_row_first_sight,
    bench_em_epoch,
    bench_raw_list_viterbi,
    bench_commit_refresh,
    bench_shard_open,
    bench_sharded_commit_warm,
    bench_recover
);
criterion_main!(benches);
