//! Determinism under concurrency and mutation: the serving layer must be
//! semantically invisible. N workers over a shuffled workload — cold caches
//! or warm, before or after live-data mutation batches — produce
//! explanation sets and scores bit-identical to serial execution on a plain
//! engine over the same data.

use std::collections::HashMap;

use quest::prelude::*;
use quest::serve::CachedEngine;
use quest::wal::ChangeRecord;

fn imdb_engine() -> Quest<FullAccessWrapper> {
    let db = quest::data::imdb::generate(&quest::data::imdb::ImdbScale {
        movies: 300,
        seed: 42,
    })
    .expect("imdb generates");
    Quest::new(FullAccessWrapper::new(db), QuestConfig::default()).expect("engine builds")
}

/// The workload's raw queries repeated `reps` times, deterministically
/// shuffled so repeats interleave across workers.
fn shuffled_stream(reps: usize) -> Vec<String> {
    quest_bench::shuffled_stream(&quest::data::imdb::workload(), reps, 0xDEAD_BEEF_CAFE_F00D)
}

/// Everything that identifies an outcome, bit-exact: per-explanation SQL
/// statement text, exact score bits, configuration terms, and the combined
/// configuration list.
type Fingerprint = Vec<(String, u64, String)>;

fn fingerprint(engine: &Quest<FullAccessWrapper>, out: &SearchOutcome) -> Fingerprint {
    let catalog = engine.wrapper().catalog();
    out.explanations
        .iter()
        .map(|e| {
            (
                e.sql(catalog),
                e.score.to_bits(),
                format!("{:?}", e.configuration.terms),
            )
        })
        .collect()
}

/// Serial reference: every distinct query through the *plain* engine.
fn serial_reference(
    engine: &Quest<FullAccessWrapper>,
    stream: &[String],
) -> HashMap<String, Fingerprint> {
    let mut expected = HashMap::new();
    for raw in stream {
        if !expected.contains_key(raw) {
            let out = engine.search(raw).expect("serial search succeeds");
            expected.insert(raw.clone(), fingerprint(engine, &out));
        }
    }
    expected
}

#[test]
fn concurrent_results_identical_to_serial_cold_and_warm() {
    let engine = imdb_engine();
    let stream = shuffled_stream(4);
    let expected = serial_reference(&engine, &stream);

    let check = |service: &QueryService<FullAccessWrapper>, batch: &[String], phase: &str| {
        let tickets = service.submit_batch(batch);
        for (raw, ticket) in batch.iter().zip(tickets) {
            let out = ticket.wait().expect("served search succeeds");
            assert_eq!(&out.query.raw, raw, "ticket order matches submissions");
            let got = fingerprint(&service.engine().engine(), &out);
            assert_eq!(
                &got, &expected[raw],
                "{phase}-cache result diverged from serial for {raw:?}"
            );
        }
    };

    // Three passes: every query is missed, then assembled once from its
    // forward entry, then answered from the stored outcome.
    let service = QueryService::new(CachedEngine::new(engine.clone()), 4);
    for phase in ["cold", "warm", "answered"] {
        check(&service, &stream, phase);
    }
    let stats = service.shutdown();
    assert_eq!(stats.queries as usize, 3 * stream.len());
    assert_eq!(stats.errors, 0);
    assert!(
        stats.forward_cache.hits > 0 && stats.backward_cache.hits > 0 && stats.answered_hits > 0,
        "the stream must actually exercise the caches: {stats}"
    );

    // Cold start, each query in a run of 8 back to back: the workers and
    // the waiting caller take the same key at once, so they race to fill
    // its slot and then to store its answer over it.
    let mut distinct: Vec<&String> = expected.keys().collect();
    distinct.sort();
    let runs: Vec<String> = distinct
        .into_iter()
        .flat_map(|raw| std::iter::repeat_n(raw.clone(), 8))
        .collect();
    let service = QueryService::new(CachedEngine::new(engine), 4);
    for phase in ["racing cold", "racing warm"] {
        check(&service, &runs, phase);
    }
    let stats = service.shutdown();
    assert_eq!(stats.errors, 0);
    assert!(stats.answered_hits > 0, "{stats}");
}

#[test]
fn warm_cache_serves_entirely_from_lookups() {
    let engine = imdb_engine();
    let distinct: Vec<String> = quest::data::imdb::workload()
        .iter()
        .map(|wq| wq.raw.clone())
        .collect();
    let cached = CachedEngine::new(engine);
    for raw in &distinct {
        let _ = cached.search(raw).expect("cold fill");
    }
    let misses_after_fill = cached.stats().forward_cache.misses;
    for raw in &distinct {
        let _ = cached.search(raw).expect("warm serve");
    }
    let stats = cached.stats();
    assert_eq!(
        stats.forward_cache.misses, misses_after_fill,
        "no forward recomputation on the warm pass"
    );
    assert!(stats.forward_cache.hits >= distinct.len() as u64);
}

#[test]
fn feedback_mid_stream_keeps_serving_consistent() {
    // After feedback lands, served results must again equal a serial engine
    // with identical feedback — the caches must not leak the old model.
    let engine = imdb_engine();
    let reference = engine.clone();
    let service = QueryService::new(CachedEngine::new(engine), 4);
    let stream = shuffled_stream(2);

    // Warm everything, then train both engines identically.
    for t in service.submit_batch(&stream) {
        let _ = t.wait();
    }
    let query = KeywordQuery::parse(&stream[0]).expect("parse");
    let best = service
        .engine()
        .search_query(&query)
        .expect("search")
        .explanations[0]
        .clone();
    for _ in 0..5 {
        service
            .engine()
            .feedback(&query, &best, true)
            .expect("feedback");
        reference.feedback(&query, &best, true).expect("feedback");
    }

    let expected = serial_reference(&reference, &stream);
    for (raw, ticket) in stream.iter().zip(service.submit_batch(&stream)) {
        let out = ticket.wait().expect("served search succeeds");
        let got = fingerprint(&service.engine().engine(), &out);
        assert_eq!(
            &got, &expected[raw],
            "post-feedback result diverged from serial for {raw:?}"
        );
    }
}

/// Mutation batches for the live-data tests: retitle one movie, add a new
/// person and movie, delete a rating-less orphan. Addressed by primary
/// keys that exist in the `movies: 300, seed: 42` IMDB generation.
fn mutation_batches(db: &Database) -> Vec<Vec<ChangeRecord>> {
    let movie = db.catalog().table_id("movie").expect("movie table");
    // Take two live movies to mutate, read their current rows.
    let victims: Vec<(Vec<Value>, Vec<Value>)> = db
        .table_data(movie)
        .iter()
        .take(2)
        .map(|(_, row)| {
            let key = vec![row.get(0).clone()];
            (key, row.values().to_vec())
        })
        .collect();
    let mut retitled = victims[0].1.clone();
    retitled[1] = "A Completely New Title".into();
    vec![
        vec![
            ChangeRecord::Insert {
                table: "person".into(),
                row: vec![900_001.into(), "Zelda Zeitgeist".into(), 1901.into()],
            },
            ChangeRecord::Update {
                table: "movie".into(),
                key: victims[0].0.clone(),
                row: retitled,
            },
        ],
        vec![ChangeRecord::Insert {
            table: "movie".into(),
            row: {
                let mut row = victims[1].1.clone();
                row[0] = 900_002.into();
                row[1] = "Zeitgeist Rising".into();
                row
            },
        }],
        vec![ChangeRecord::Delete {
            table: "movie".into(),
            key: vec![900_002.into()],
        }],
    ]
}

#[test]
fn served_results_after_mutations_match_a_cold_engine() {
    // After every mutation batch applied through the service's shared
    // engine, served results must be bit-identical to a *cold* engine
    // built from scratch over the identically mutated database.
    let engine = imdb_engine();
    let mut shadow_db = engine.wrapper().database().clone();
    let service = QueryService::new(CachedEngine::new(engine), 4);
    let stream = shuffled_stream(2);

    // Warm all caches so stale entries would be caught if epochs failed.
    for t in service.submit_batch(&stream) {
        let _ = t.wait();
    }
    let batches = mutation_batches(&shadow_db);
    for (i, batch) in batches.iter().enumerate() {
        let report = service.engine().apply(batch).expect("batch applies");
        assert_eq!(report.applied, batch.len());
        assert!(report.all_applied());
        assert_eq!(service.engine().data_epoch(), i as u64 + 1);
        for change in batch {
            change.apply(&mut shadow_db).expect("shadow applies");
        }
        let cold = Quest::new(
            FullAccessWrapper::new(shadow_db.clone()),
            QuestConfig::default(),
        )
        .expect("cold engine builds");
        let expected = serial_reference(&cold, &stream);
        for (raw, ticket) in stream.iter().zip(service.submit_batch(&stream)) {
            let out = ticket.wait().expect("served search succeeds");
            let got = fingerprint(&service.engine().engine(), &out);
            assert_eq!(
                &got, &expected[raw],
                "batch {i}: served result diverged from cold engine for {raw:?}"
            );
        }
    }
    // The mutated-keyword queries see the new data end to end.
    let out = service.submit("zeitgeist").wait().expect("search");
    assert!(!out.explanations.is_empty());
    let stats = service.shutdown();
    assert_eq!(stats.data_epoch, batches.len() as u64);
    assert_eq!(stats.errors, 0);
}

#[test]
fn schema_affecting_mutations_rebuild_join_templates() {
    // The backward module memoizes join-path templates per engine. A
    // WAL-applied mutation batch resyncs the engine (schema-graph weights
    // shift with the data), so the template memo must come back empty —
    // and everything served afterwards must still be bit-identical to a
    // cold engine over the mutated database, proving no stale template
    // leaked into the SQL.
    let engine = imdb_engine();
    let mut shadow_db = engine.wrapper().database().clone();
    let cached = CachedEngine::new(engine);
    let stream = shuffled_stream(2);

    for raw in &stream {
        let _ = cached.search(raw).expect("warm fill");
    }
    let warm = cached.stats().backward_cache;
    assert!(
        warm.entries > 0 && warm.misses > 0,
        "the warm stream must populate the template memo: {warm:?}"
    );

    let batch = mutation_batches(&shadow_db).remove(0);
    let report = cached.apply(&batch).expect("batch applies");
    assert!(report.all_applied());
    let cold_stats = cached.stats().backward_cache;
    assert_eq!(
        (cold_stats.hits, cold_stats.misses, cold_stats.entries),
        (0, 0, 0),
        "applying a batch must rebuild the backward module cold: {cold_stats:?}"
    );

    for change in &batch {
        change.apply(&mut shadow_db).expect("shadow applies");
    }
    let cold = Quest::new(FullAccessWrapper::new(shadow_db), QuestConfig::default())
        .expect("cold engine builds");
    let expected = serial_reference(&cold, &stream);
    for raw in &stream {
        let out = cached.search(raw).expect("post-apply search");
        let got = fingerprint(&cached.engine(), &out);
        assert_eq!(
            &got, &expected[raw],
            "post-apply result diverged from cold engine for {raw:?}"
        );
    }
    let refilled = cached.stats().backward_cache;
    assert!(
        refilled.misses > 0 && refilled.entries > 0,
        "post-apply searches must recompute templates: {refilled:?}"
    );
}

#[test]
fn mutations_and_queries_interleave_safely_across_workers() {
    // Queries race a mutation batch from another thread; every ticket must
    // resolve against either the old or the new data (never a torn mix),
    // and afterwards the service must agree with a cold engine.
    let engine = imdb_engine();
    let mut shadow_db = engine.wrapper().database().clone();
    let shared = std::sync::Arc::new(CachedEngine::new(engine));
    let service = QueryService::over(std::sync::Arc::clone(&shared), 4);
    let stream = shuffled_stream(2);
    let tickets = service.submit_batch(&stream);

    let batch = mutation_batches(&shadow_db).remove(0);
    let mutator = {
        let shared = std::sync::Arc::clone(&shared);
        let batch = batch.clone();
        std::thread::spawn(move || shared.apply(&batch).expect("apply succeeds").applied)
    };
    for ticket in tickets {
        let out = ticket.wait().expect("ticket resolves");
        assert!(!out.query.raw.is_empty());
    }
    assert_eq!(mutator.join().expect("mutator thread"), batch.len());

    for change in &batch {
        change.apply(&mut shadow_db).expect("shadow applies");
    }
    let cold = Quest::new(FullAccessWrapper::new(shadow_db), QuestConfig::default())
        .expect("cold engine builds");
    let expected = serial_reference(&cold, &stream);
    for (raw, ticket) in stream.iter().zip(service.submit_batch(&stream)) {
        let out = ticket.wait().expect("served search succeeds");
        let got = fingerprint(&service.engine().engine(), &out);
        assert_eq!(&got, &expected[raw], "post-race divergence for {raw:?}");
    }
}

#[test]
fn span_tracing_leaves_results_byte_identical() {
    // The serial reference runs on a plain engine with no service layer and
    // no explicit scrapes — the traced service below must reproduce its
    // answers bit for bit even though every query records spans.
    let engine = imdb_engine();
    let stream = shuffled_stream(2);
    let expected = serial_reference(&engine, &stream);

    let service = QueryService::new(CachedEngine::new(engine), 4);
    for (raw, ticket) in stream.iter().zip(service.submit_batch(&stream)) {
        let out = ticket.wait().expect("instrumented search succeeds");
        let got = fingerprint(&service.engine().engine(), &out);
        assert_eq!(
            &got, &expected[raw],
            "span tracing changed a result for {raw:?}"
        );
    }
    service.shutdown();

    // And spans really recorded: the shared collector holds query spans
    // from the stream just served.
    let collector = quest::obs::spans();
    assert!(collector.is_enabled(), "default span capacity is nonzero");
    assert!(
        collector
            .recent()
            .iter()
            .any(|s| s.kind == quest::obs::TraceKind::Query && s.name == "query"),
        "no query spans recorded while serving"
    );
}

#[test]
fn worker_counts_do_not_change_results() {
    let stream = shuffled_stream(2);
    let mut baseline: Option<HashMap<String, Fingerprint>> = None;
    for workers in [1usize, 2, 4, 8] {
        let service = QueryService::new(CachedEngine::new(imdb_engine()), workers);
        let mut results: HashMap<String, Fingerprint> = HashMap::new();
        for (raw, ticket) in stream.iter().zip(service.submit_batch(&stream)) {
            let out = ticket.wait().expect("search succeeds");
            results.insert(raw.clone(), fingerprint(&service.engine().engine(), &out));
        }
        match &baseline {
            None => baseline = Some(results),
            Some(b) => assert_eq!(b, &results, "{workers} workers diverged"),
        }
    }
}

#[test]
fn many_submitters_share_one_worker_and_serve_each_other() {
    // Three submitters, one worker: a caller blocked in `wait` runs the
    // oldest queued query, often another submitter's, so most of the stream
    // is served by callers. Every answer must still equal serial execution,
    // and a helper must count and dequeue exactly as a worker does.
    let engine = imdb_engine();
    let stream = shuffled_stream(2);
    let expected = serial_reference(&engine, &stream);
    let service = QueryService::new(CachedEngine::new(engine), 1);

    let submitted: usize = std::thread::scope(|s| {
        let submitters: Vec<_> = (0..3)
            .map(|t| {
                let (service, stream, expected) = (&service, &stream, &expected);
                s.spawn(move || {
                    // Each submitter walks the stream from its own offset,
                    // so concurrent windows carry different queries.
                    let mine: Vec<&String> = stream
                        .iter()
                        .cycle()
                        .skip(t * stream.len() / 3)
                        .take(stream.len())
                        .collect();
                    for window in mine.chunks(8) {
                        let tickets = service.submit_batch(window);
                        for (raw, ticket) in window.iter().zip(tickets) {
                            let out = ticket.wait().expect("served search succeeds");
                            assert_eq!(&&out.query.raw, raw, "ticket order matches submissions");
                            let got = fingerprint(&service.engine().engine(), &out);
                            assert_eq!(
                                &got, &expected[*raw],
                                "submitter {t}: result diverged from serial for {raw:?}"
                            );
                        }
                    }
                    mine.len()
                })
            })
            .collect();
        submitters
            .into_iter()
            .map(|h| h.join().expect("submitter thread"))
            .sum()
    });

    let depth = service
        .stats()
        .metrics
        .gauge(quest::serve::names::QUEUE_DEPTH);
    assert_eq!(depth, Some(0), "every queued job was dequeued exactly once");
    let stats = service.shutdown();
    assert_eq!(stats.queries as usize, submitted);
    assert_eq!(stats.errors, 0);
}
