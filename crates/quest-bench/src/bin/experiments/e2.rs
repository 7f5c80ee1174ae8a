//! E2 — the same queries through each module separately vs combined
//! (demo message 2).

use quest_bench::{evaluate, Dataset, Table};
use quest_core::backward::{BackwardModule, SchemaGraphWeights};
use quest_core::eval::{aggregate, statements_equivalent};
use quest_core::forward::ForwardModule;
use quest_core::query_builder::build_query;
use quest_core::semantics::SemanticRules;
use quest_core::{
    Configuration, FullAccessWrapper, KeywordQuery, Quest, QuestConfig, SourceWrapper,
};
use quest_data::workload::WorkloadQuery;
use quest_data::FeedbackOracle;

pub fn run() {
    println!("\n## E2 — per-module partial results vs DST combination\n");
    let mut t = Table::new(&["dataset", "mode", "hit@1", "hit@3", "MRR"]);
    for ds in Dataset::ALL {
        let db = ds.generate_default();
        let w = FullAccessWrapper::new(db);
        let wl = ds.workload();
        let catalog_owned = w.catalog().clone();
        let catalog = &catalog_owned;

        let forward = ForwardModule::new(&w, &SemanticRules::default()).expect("forward");
        let backward = BackwardModule::new(&w, &SchemaGraphWeights::default());

        // Train a feedback copy with two passes of perfect oracle feedback.
        let trained = forward.clone();
        let mut oracle = FeedbackOracle::perfect(11);
        for _ in 0..2 {
            for wq in &wl {
                let (cfg, _) = oracle.feedback_for(catalog, wq);
                trained.record_feedback(&cfg, true).expect("feedback");
            }
        }

        let k = 5usize;
        // Rank explanations per mode and evaluate against gold.
        type ModeFn<'a> = Box<dyn Fn(&WorkloadQuery) -> Vec<bool> + 'a>;
        let modes: Vec<(&str, ModeFn<'_>)> = vec![
            (
                "a-priori only",
                Box::new(|wq: &WorkloadQuery| {
                    let q = wq.parse();
                    let em = forward.emissions(&w, &q);
                    let configs = forward.top_k_apriori(&em, k).unwrap_or_default();
                    mask_for_configs(catalog, &backward, &q, &configs, wq, k)
                }),
            ),
            (
                "feedback only",
                Box::new(|wq: &WorkloadQuery| {
                    let q = wq.parse();
                    let em = trained.emissions(&w, &q);
                    let configs = trained.top_k_feedback(&em, k).unwrap_or_default();
                    mask_for_configs(catalog, &backward, &q, &configs, wq, k)
                }),
            ),
            (
                "backward only",
                Box::new(|wq: &WorkloadQuery| {
                    // Candidates from the a-priori list, ranked purely by
                    // interpretation (join path) score.
                    let q = wq.parse();
                    let em = forward.emissions(&w, &q);
                    let configs = forward.top_k_apriori(&em, k).unwrap_or_default();
                    let gold = wq.gold.to_statement(catalog).expect("gold");
                    let mut scored: Vec<(f64, bool)> = Vec::new();
                    for cfg in &configs {
                        for interp in backward
                            .interpretations(catalog, cfg, k)
                            .unwrap_or_default()
                        {
                            if let Ok(stmt) = build_query(
                                catalog,
                                backward.schema_graph(),
                                &q,
                                cfg,
                                &interp,
                                None,
                            ) {
                                scored.push((interp.score, statements_equivalent(&stmt, &gold)));
                            }
                        }
                    }
                    scored
                        .sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
                    scored.into_iter().take(k).map(|(_, hit)| hit).collect()
                }),
            ),
        ];

        for (name, f) in &modes {
            let masks: Vec<Vec<bool>> = wl.iter().map(f.as_ref()).collect();
            let m = aggregate(&masks);
            t.row(vec![
                ds.name().into(),
                (*name).into(),
                format!("{:.2}", m.hit_at_1),
                format!("{:.2}", m.hit_at_3),
                format!("{:.3}", m.mrr),
            ]);
        }

        // Combined: the full engine, trained identically.
        let engine = Quest::new(w.clone(), QuestConfig::default()).expect("engine builds");
        let mut oracle = FeedbackOracle::perfect(11);
        for _ in 0..2 {
            for wq in &wl {
                let (cfg, _) = oracle.feedback_for(engine.wrapper().catalog(), wq);
                engine.feedback_configuration(&cfg, true).expect("feedback");
            }
        }
        let m = evaluate(&engine, &wl);
        t.row(vec![
            ds.name().into(),
            "combined (QUEST)".into(),
            format!("{:.2}", m.hit_at_1),
            format!("{:.2}", m.hit_at_3),
            format!("{:.3}", m.mrr),
        ]);
    }
    print!("{}", t.render());
}

/// Rank a configuration list (scores as given), expand each to its best
/// interpretation, and compare the statements to gold.
pub fn mask_for_configs(
    catalog: &relstore::Catalog,
    backward: &BackwardModule,
    q: &KeywordQuery,
    configs: &[Configuration],
    wq: &WorkloadQuery,
    k: usize,
) -> Vec<bool> {
    let gold = wq.gold.to_statement(catalog).expect("gold resolves");
    configs
        .iter()
        .take(k)
        .map(|cfg| {
            backward
                .interpretations(catalog, cfg, 1)
                .ok()
                .and_then(|is| is.into_iter().next())
                .and_then(|interp| {
                    build_query(catalog, backward.schema_graph(), q, cfg, &interp, None).ok()
                })
                .map(|stmt| statements_equivalent(&stmt, &gold))
                .unwrap_or(false)
        })
        .collect()
}
