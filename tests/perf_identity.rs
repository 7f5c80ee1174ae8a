//! The hot path's non-negotiable contract: the optimized pipeline
//! (interned O(1) index probes, prepared keywords, compiled and memoized
//! metadata matching, scratch-reused sort-free pruned decoding, per-query
//! Steiner memo, per-engine join-path templates, scratch-buffer assembly) is
//! **bit-identical** to the retained reference implementation — same SQL,
//! same score bits, same ranking — across datasets, random seeds, feedback
//! epochs, live-mutation interleavings, first-sight keyword streams that
//! overflow the metadata memo (full access and annotated Deep Web), and the
//! cached/pooled serving layer, at the whole-search level and stage by
//! stage (emission rows and both decodes on every query of every stream —
//! a-priori model and learned feedback model — then forward, backward,
//! assemble twins). Every optimization in this repo rides behind this
//! suite, including the template-memo invalidation on engine resync.

use quest::prelude::*;
use quest_data::{imdb, mondial, FeedbackOracle};

/// Bitwise comparison of two search outcomes: explanations (score bits,
/// statements, configurations, rank order), combined configurations, and
/// the partial per-mode lists.
fn assert_outcomes_identical(a: &SearchOutcome, b: &SearchOutcome, context: &str) {
    assert_eq!(
        a.explanations.len(),
        b.explanations.len(),
        "explanation count ({context})"
    );
    for (i, (x, y)) in a.explanations.iter().zip(&b.explanations).enumerate() {
        assert_eq!(
            x.score.to_bits(),
            y.score.to_bits(),
            "explanation {i} score bits ({context}): {} vs {}",
            x.score,
            y.score
        );
        assert_eq!(x.statement, y.statement, "explanation {i} SQL ({context})");
        assert_eq!(
            x.configuration.terms, y.configuration.terms,
            "explanation {i} configuration ({context})"
        );
        assert_eq!(
            x.interpretation.key(),
            y.interpretation.key(),
            "explanation {i} interpretation ({context})"
        );
    }
    let pairs = [
        (&a.configurations, &b.configurations, "combined"),
        (&a.apriori_configs, &b.apriori_configs, "apriori"),
        (&a.feedback_configs, &b.feedback_configs, "feedback"),
    ];
    for (xs, ys, which) in pairs {
        assert_eq!(xs.len(), ys.len(), "{which} list length ({context})");
        for (x, y) in xs.iter().zip(ys.iter()) {
            assert_eq!(x.terms, y.terms, "{which} terms ({context})");
            assert_eq!(
                x.score.to_bits(),
                y.score.to_bits(),
                "{which} score bits ({context})"
            );
        }
    }
    assert_eq!(
        a.effective_o_cf.to_bits(),
        b.effective_o_cf.to_bits(),
        "effective O_Cf ({context})"
    );
}

/// The emission matrix the last forward pass left in `scratch` against the
/// reference rows of the same query, bit for bit.
fn assert_rows_identical<W: SourceWrapper>(
    engine: &Quest<W>,
    query: &KeywordQuery,
    scratch: &SearchScratch,
    context: &str,
) {
    let rows = engine
        .forward()
        .emissions_reference(engine.wrapper(), query);
    assert_eq!(scratch.emissions().len(), rows.len(), "{context}");
    for (t, (fast_row, row)) in scratch.emissions().iter().zip(&rows).enumerate() {
        let bits = |r: &[f64]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(fast_row),
            bits(row),
            "emission row {t} ({context}): {fast_row:?} vs {row:?}"
        );
    }
}

/// One forward pass on the hot path, checked twin by twin: the emission
/// matrix against the reference rows, and the scratch `ListDecoder`'s
/// configurations in both operating modes against the reference decoder
/// (`list_viterbi`) on that same matrix — terms and score bits. Cheap enough
/// (no backward stage, no reference search) to run on every query of a
/// stream.
fn assert_forward_identical<W: SourceWrapper>(
    engine: &Quest<W>,
    query: &KeywordQuery,
    scratch: &mut SearchScratch,
    context: &str,
) {
    let fast = engine.forward_pass_with(query, scratch);
    assert_rows_identical(engine, query, scratch, context);
    let (forward, k) = (engine.forward(), engine.config().k);
    let reference = [
        forward.top_k_apriori(scratch.emissions(), k),
        forward.top_k_feedback(scratch.emissions(), k),
    ]
    .map(|configs| configs.expect("reference decodes"));
    let Ok(fast) = fast else {
        assert!(reference.iter().all(Vec::is_empty), "{context}: {fast:?}");
        return;
    };
    for (got, want, mode) in [
        (&fast.apriori, &reference[0], "apriori"),
        (&fast.feedback, &reference[1], "feedback"),
    ] {
        assert_eq!(got.len(), want.len(), "{mode} decode length ({context})");
        for (x, y) in got.iter().zip(want) {
            assert_eq!(x.terms, y.terms, "{mode} decode terms ({context})");
            assert_eq!(
                x.score.to_bits(),
                y.score.to_bits(),
                "{mode} decode score bits ({context})"
            );
        }
    }
}

/// Run every workload query through the optimized scratch path and the
/// reference path on the same engine and demand bitwise equality of the
/// emission matrix and of the outcome.
fn assert_engine_paths_identical<W: SourceWrapper>(
    engine: &Quest<W>,
    queries: &[String],
    scratch: &mut SearchScratch,
    context: &str,
) {
    for raw in queries {
        let query = match KeywordQuery::parse(raw) {
            Ok(q) => q,
            Err(_) => continue,
        };
        assert_forward_identical(engine, &query, scratch, &format!("{context}: {raw}"));
        let fast = engine.search_query_with(&query, scratch);
        let reference = engine.search_query_reference(&query);
        match (fast, reference) {
            (Ok(a), Ok(b)) => assert_outcomes_identical(&a, &b, &format!("{context}: {raw}")),
            (Err(a), Err(b)) => assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "error mismatch ({context}: {raw})"
            ),
            (a, b) => panic!("one path failed ({context}: {raw}): {a:?} vs {b:?}"),
        }
    }
}

fn imdb_engine(movies: usize, seed: u64) -> Quest<FullAccessWrapper> {
    let db = imdb::generate(&imdb::ImdbScale { movies, seed }).expect("imdb generates");
    Quest::new(FullAccessWrapper::new(db), QuestConfig::default()).expect("engine builds")
}

fn raw_queries(wl: &[quest_data::workload::WorkloadQuery]) -> Vec<String> {
    wl.iter().map(|wq| wq.raw.clone()).collect()
}

#[test]
fn optimized_path_is_bit_identical_across_datasets_and_seeds() {
    for seed in [7u64, 42, 20260731] {
        let engine = imdb_engine(300, seed);
        let mut scratch = SearchScratch::new();
        let queries = raw_queries(&imdb::workload());
        // Two passes with one scratch: the second exercises warm buffer and
        // memo reuse, which must change nothing.
        for pass in 0..2 {
            assert_engine_paths_identical(
                &engine,
                &queries,
                &mut scratch,
                &format!("imdb seed {seed} pass {pass}"),
            );
        }
    }
    let db = mondial::generate(&mondial::MondialScale::default()).expect("mondial generates");
    let engine = Quest::new(FullAccessWrapper::new(db), QuestConfig::default()).expect("builds");
    let mut scratch = SearchScratch::new();
    assert_engine_paths_identical(
        &engine,
        &raw_queries(&mondial::workload()),
        &mut scratch,
        "mondial",
    );
}

/// `n` queries of one to three keywords, each a corpus or schema word with
/// two characters replaced by random letters: almost none occurs in the data
/// or has been seen by the engine's metadata memo, so every keyword takes the
/// first-sight path through the compiled matcher.
fn first_sight_stream(words: &[String], n: usize, mut seed: u64) -> Vec<String> {
    let mut next = |bound: usize| {
        // splitmix64
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % bound as u64) as usize
    };
    (0..n)
        .map(|i| {
            let keywords: Vec<String> = (0..1 + i % 3)
                .map(|_| {
                    let mut chars: Vec<char> = words[next(words.len())].chars().collect();
                    for _ in 0..2 {
                        let at = next(chars.len());
                        chars[at] = (b'a' + next(26) as u8) as char;
                    }
                    chars.into_iter().collect()
                })
                .collect();
            keywords.join(" ")
        })
        .collect()
}

/// Lowercased single words of the given corpus lists, plus the catalog's
/// table and attribute names (so mutations land near metadata states too).
fn stream_words(catalog: &Catalog, corpus: &[&[&str]]) -> Vec<String> {
    let mut words: Vec<String> = corpus
        .iter()
        .flat_map(|list| list.iter())
        .flat_map(|entry| entry.split_whitespace())
        .map(str::to_lowercase)
        .collect();
    words.extend(catalog.tables().iter().map(|t| t.name.clone()));
    words.extend(catalog.attributes().iter().map(|a| a.name.clone()));
    words.retain(|w| w.chars().count() >= 2);
    words
}

/// Distinct normalized keywords of a stream, to show it outgrows the
/// engine's metadata memo (`META_MEMO_CAP` = 1024 keywords).
fn distinct_keywords(queries: &[String]) -> usize {
    queries
        .iter()
        .filter_map(|raw| KeywordQuery::parse(raw).ok())
        .flat_map(|q| q.keywords.into_iter().map(|k| k.normalized))
        .collect::<std::collections::HashSet<_>>()
        .len()
}

#[test]
fn first_sight_keywords_are_bit_identical_on_imdb() {
    use quest_data::corpus::{FIRST_NAMES, GENRES, LAST_NAMES, TITLE_WORDS};
    let engine = imdb_engine(300, 42);
    let words = stream_words(
        engine.wrapper().catalog(),
        &[LAST_NAMES, FIRST_NAMES, TITLE_WORDS, GENRES],
    );
    let queries = first_sight_stream(&words, 2_000, 7);
    assert!(distinct_keywords(&queries) > 2 * 1024);
    let mut scratch = SearchScratch::new();
    assert_engine_paths_identical(&engine, &queries, &mut scratch, "imdb first sight");
    // The stream overflowed the metadata memo at least twice, so its head
    // was dropped by a clear: replaying it compares rows recomputed after
    // clear-and-refill, then served from the refilled memo.
    for pass in 0..2 {
        assert_engine_paths_identical(
            &engine,
            &queries[..200],
            &mut scratch,
            &format!("imdb first sight, refill pass {pass}"),
        );
    }
    // The same slice once more with a feedback model in place: the second
    // decode of every query now runs over learned, sharply peaked
    // transitions instead of returning nothing.
    let mut oracle = FeedbackOracle::new(0.2, 21);
    for wq in &imdb::workload() {
        let (cfg, positive) = oracle.feedback_for(engine.wrapper().catalog(), wq);
        engine
            .feedback_configuration(&cfg, positive)
            .expect("feedback records");
    }
    assert!(engine.feedback_epoch() > 0);
    assert_engine_paths_identical(
        &engine,
        &queries[..200],
        &mut scratch,
        "imdb first sight, feedback model",
    );
}

#[test]
fn first_sight_keywords_are_bit_identical_on_annotated_deep_web() {
    use quest_data::corpus::{CITIES, COUNTRIES, LANGUAGES, MOUNTAINS, RELIGIONS, RIVERS};
    let db = mondial::generate(&mondial::MondialScale::default()).expect("mondial generates");
    // Annotations a source owner would publish, aliases included: metadata
    // states of annotated attributes are scored on name *and* aliases.
    let catalog = db.catalog();
    let attr = |t: &str, a: &str| catalog.attr_id(t, a).expect("attribute exists");
    let mut ann = AnnotationSet::new();
    ann.set_pattern(attr("country", "code"), r"[A-Z]{1,3}")
        .expect("pattern compiles");
    ann.set_pattern(attr("city", "population"), r"\d+")
        .expect("pattern compiles");
    ann.add_examples(attr("language", "name"), ["English", "Italian", "Arabic"]);
    ann.add_aliases(attr("country", "name"), ["nation", "countryName", "state"]);
    ann.add_aliases(attr("country", "population"), ["inhabitants", "head_count"]);
    ann.add_aliases(attr("city", "name"), ["town", "municipality", ""]);
    ann.add_aliases(attr("river", "length"), ["river_length", "km"]);
    ann.add_aliases(attr("mountain", "height"), ["elevation", "peak height"]);
    ann.add_aliases(
        attr("organization", "abbreviation"),
        ["acronym", "shortName"],
    );
    let words = stream_words(
        catalog,
        &[COUNTRIES, CITIES, RIVERS, MOUNTAINS, LANGUAGES, RELIGIONS],
    );
    let mut queries = first_sight_stream(&words, 2_000, 11);
    // The aliases themselves, exact and one edit away.
    queries.extend(
        [
            "nation inhabitants",
            "elevation",
            "acronm town",
            "peak height",
            "head count",
        ]
        .map(String::from),
    );
    let engine = Quest::new(DeepWebWrapper::new(db, ann, 50), QuestConfig::default())
        .expect("engine builds");
    let mut scratch = SearchScratch::new();
    let sweep = |queries: &[String], scratch: &mut SearchScratch, context: &str| {
        for (i, raw) in queries.iter().enumerate() {
            // Emission rows and both decodes on every query. The reference
            // *search* over this 119-state vocabulary costs ~20 ms in a
            // debug build, so whole outcomes are compared on every eighth
            // query and on the alias queries.
            if i % 8 == 0 || i >= 2_000 {
                let one = std::slice::from_ref(raw);
                assert_engine_paths_identical(&engine, one, scratch, context);
            } else if let Ok(query) = KeywordQuery::parse(raw) {
                // (A word can mutate into a stopword and empty the query.)
                assert_forward_identical(&engine, &query, scratch, &format!("{context}: {raw}"));
            }
        }
    };
    sweep(&queries, &mut scratch, "mondial deep web");
    // A 200-query slice again with a feedback model in place, taught from
    // the engine's own answers: best configuration validated, last rejected.
    for raw in queries.iter().take(24) {
        let Ok(query) = KeywordQuery::parse(raw) else {
            continue;
        };
        let Ok(pass) = engine.forward_pass_with(&query, &mut scratch) else {
            continue;
        };
        let (best, last) = (&pass.configurations[0], pass.configurations.last());
        engine
            .feedback_configuration(best, true)
            .expect("feedback records");
        engine
            .feedback_configuration(last.expect("non-empty"), false)
            .expect("feedback records");
    }
    assert!(engine.feedback_epoch() > 0);
    sweep(
        &queries[..200],
        &mut scratch,
        "mondial deep web, feedback model",
    );
}

#[test]
fn identity_holds_across_feedback_epochs() {
    let engine = imdb_engine(300, 42);
    let wl = imdb::workload();
    let queries = raw_queries(&wl);
    let mut scratch = SearchScratch::new();
    let mut oracle = FeedbackOracle::new(0.2, 21);
    // Interleave feedback batches (cheap supervised updates + one EM
    // refinement) with full identity sweeps; the scratch and the engine's
    // metadata memo survive every epoch bump.
    for round in 0..3 {
        for wq in wl.iter().take(4 + round) {
            let (cfg, positive) = oracle.feedback_for(engine.wrapper().catalog(), wq);
            engine
                .feedback_configuration(&cfg, positive)
                .expect("feedback records");
        }
        if round == 1 {
            engine.refine_feedback_model(3).expect("EM refines");
        }
        assert!(engine.feedback_epoch() > 0);
        assert_engine_paths_identical(
            &engine,
            &queries,
            &mut scratch,
            &format!("feedback round {round}"),
        );
    }
}

#[test]
fn identity_holds_across_mutation_interleavings() {
    let mut engine = imdb_engine(250, 42);
    let queries = raw_queries(&imdb::workload());
    let mut scratch = SearchScratch::new();
    // Deterministic mutation rounds: insert a person+movie, retitle an
    // existing movie, then delete the previous round's movie. After every
    // round the optimized and reference paths must still agree bitwise —
    // this drags the interned incremental index maintenance, the stats
    // refresh, and the engine re-sync through the identity check.
    for round in 0..3i64 {
        let person_id = 900_000 + 2 * round;
        let movie_id = person_id + 1;
        engine
            .mutate_source(|w| -> Result<(), relstore::StoreError> {
                let db = w.database_mut();
                db.insert(
                    "person",
                    Row::new(vec![
                        person_id.into(),
                        format!("Identity Director {round}").into(),
                        1970.into(),
                    ]),
                )?;
                db.insert(
                    "movie",
                    Row::new(vec![
                        movie_id.into(),
                        format!("Identity Release {round} wind").into(),
                        2024.into(),
                        7.5.into(),
                        person_id.into(),
                    ]),
                )?;
                if round > 0 {
                    db.delete("movie", &[Value::Int(movie_id - 2)])?;
                }
                Ok(())
            })
            .expect("mutation closure runs")
            .expect("mutations apply");
        engine
            .wrapper()
            .database()
            .validate()
            .expect("instance stays consistent");
        assert_engine_paths_identical(
            &engine,
            &queries,
            &mut scratch,
            &format!("mutation round {round}"),
        );
    }
}

#[test]
fn backward_stages_are_bit_identical_and_templates_invalidate() {
    let mut engine = imdb_engine(250, 42);
    let queries = raw_queries(&imdb::workload());
    let mut scratch = SearchScratch::new();

    // Drive the stages by hand — forward, per-configuration backward,
    // assembly — on both the scratch path and the reference twins, and
    // demand bitwise equality at each seam. Two passes, so the second runs
    // against a warm per-engine join-template memo.
    for pass in 0..2 {
        for raw in &queries {
            let query = match KeywordQuery::parse(raw) {
                Ok(q) => q,
                Err(_) => continue,
            };
            let context = format!("stage pass {pass}: {raw}");
            scratch.reset_query_state();
            let fast_forward = engine.forward_pass_with(&query, &mut scratch);
            let ref_forward = engine.forward_pass_reference(&query);
            let (fa, fb) = match (fast_forward, ref_forward) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(a), Err(b)) => {
                    assert_eq!(
                        format!("{a:?}"),
                        format!("{b:?}"),
                        "forward error ({context})"
                    );
                    continue;
                }
                (a, b) => panic!("one forward path failed ({context}): {a:?} vs {b:?}"),
            };
            let fast_interps: Vec<_> = fa
                .configurations
                .iter()
                .map(|cfg| {
                    engine
                        .backward_pass_with(cfg, &mut scratch)
                        .expect("backward (scratch)")
                })
                .collect();
            let ref_interps: Vec<_> = fb
                .configurations
                .iter()
                .map(|cfg| engine.backward_pass(cfg).expect("backward (reference)"))
                .collect();
            assert_eq!(
                fast_interps.len(),
                ref_interps.len(),
                "interpretation list count ({context})"
            );
            for (ci, (xs, ys)) in fast_interps.iter().zip(&ref_interps).enumerate() {
                assert_eq!(xs.len(), ys.len(), "config {ci} interps ({context})");
                for (ii, (x, y)) in xs.iter().zip(ys).enumerate() {
                    assert_eq!(x.key(), y.key(), "config {ci} interp {ii} ({context})");
                    assert_eq!(
                        x.score.to_bits(),
                        y.score.to_bits(),
                        "config {ci} interp {ii} score bits ({context})"
                    );
                }
            }
            let fast_out = engine
                .assemble_with(
                    &query,
                    fa,
                    fast_interps,
                    std::time::Duration::ZERO,
                    &mut scratch,
                )
                .expect("assemble (scratch)");
            let ref_out = engine
                .assemble_reference(&query, fb, ref_interps, std::time::Duration::ZERO)
                .expect("assemble (reference)");
            assert_outcomes_identical(&fast_out, &ref_out, &context);
        }
    }
    let warm = engine.backward().template_stats();
    assert!(warm.entries > 0, "templates memoized: {warm:?}");
    assert!(warm.misses > 0, "first pass misses: {warm:?}");
    assert!(warm.hits > 0, "second pass hits the memo: {warm:?}");

    // A source mutation resyncs the engine and rebuilds the backward
    // module, so the template memo must start cold — stale join paths
    // replayed against a changed schema graph would be silently wrong.
    engine
        .mutate_source(|w| -> Result<(), relstore::StoreError> {
            let db = w.database_mut();
            db.insert(
                "person",
                Row::new(vec![
                    910_000.into(),
                    "Template Reset Director".into(),
                    1980.into(),
                ]),
            )?;
            Ok(())
        })
        .expect("mutation closure runs")
        .expect("mutation applies");
    let cold = engine.backward().template_stats();
    assert_eq!(
        (cold.hits, cold.misses, cold.entries),
        (0, 0, 0),
        "resync must rebuild the template memo: {cold:?}"
    );
    assert_engine_paths_identical(&engine, &queries, &mut scratch, "post-mutation templates");
    let refilled = engine.backward().template_stats();
    assert!(
        refilled.misses > 0 && refilled.entries > 0,
        "post-mutation searches repopulate the memo: {refilled:?}"
    );
}

#[test]
fn served_results_match_the_reference_path() {
    let engine = imdb_engine(250, 42);
    let reference = engine.clone();
    let service = QueryService::new(CachedEngine::new(engine), 3);
    let queries = raw_queries(&imdb::workload());
    // Cold pass fills the caches, warm pass replays them; both must equal
    // the reference pipeline bit for bit, through pool scheduling and all.
    for pass in ["cold", "warm"] {
        let tickets = service.submit_batch(&queries);
        for (raw, ticket) in queries.iter().zip(tickets) {
            let served = ticket.wait().expect("query serves");
            let query = KeywordQuery::parse(raw).expect("parses");
            let expect = reference
                .search_query_reference(&query)
                .expect("reference searches");
            assert_outcomes_identical(&served, &expect, &format!("served {pass}: {raw}"));
        }
    }
    let stats = service.shutdown();
    assert_eq!(stats.errors, 0);
    assert!(
        stats.forward_cache.hits >= queries.len() as u64,
        "warm pass must hit the forward cache: {stats}"
    );
}
