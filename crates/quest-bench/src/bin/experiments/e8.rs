//! E8 — mutual-information edge weights vs uniform weights.
//!
//! Two measurements:
//! * on the standard datasets, the fraction of top-3 interpretations whose
//!   SQL returns tuples (both weightings do well — the generated joins are
//!   dense);
//! * on the *sparse-directors* IMDB variant, where the direct person↔movie
//!   FK is empty in the instance while the `cast_info` path is populated:
//!   MI weighting routes around the dead join, uniform weighting walks
//!   straight into it ("we want to consider only join-paths actually
//!   existing in the database instance", paper §1).

use quest_bench::{Dataset, Table};
use quest_core::backward::{BackwardModule, SchemaGraphWeights};
use quest_core::query_builder::build_query;
use quest_core::{FullAccessWrapper, SourceWrapper};
use quest_data::imdb;
use quest_data::workload::WorkloadQuery;

pub fn run() {
    println!("\n## E8a — non-empty interpretations, standard datasets (top-3)\n");
    let mi_weights = SchemaGraphWeights {
        mi_penalty: 4.0,
        ..Default::default()
    };
    let mut t = Table::new(&["dataset", "weighting", "non-empty", "of total"]);
    for ds in Dataset::ALL {
        let db = ds.generate_default();
        let w = FullAccessWrapper::new(db);
        for (label, backward) in [
            ("MI", BackwardModule::new(&w, &mi_weights)),
            ("uniform", BackwardModule::new_uniform(&w)),
        ] {
            let (non_empty, total) = non_empty_stats(&w, &backward, &ds.workload(), 3, false);
            t.row(vec![
                ds.name().into(),
                label.into(),
                format!("{:.1}%", 100.0 * non_empty as f64 / total.max(1) as f64),
                format!("{non_empty}/{total}"),
            ]);
        }
    }
    print!("{}", t.render());

    println!("\n## E8b — top-1 interpretation non-empty, sparse-directors IMDB\n");
    let mut t = Table::new(&["weighting", "top-1 non-empty", "of queries"]);
    let db = imdb::generate_sparse_directors(&imdb::ImdbScale {
        movies: 1_000,
        seed: 42,
    })
    .expect("generate sparse");
    let w = FullAccessWrapper::new(db);
    // Only the person↔movie joining queries discriminate the two paths.
    let joining: Vec<WorkloadQuery> = imdb::workload()
        .into_iter()
        .filter(|wq| {
            wq.gold.tables.contains(&"person".to_string())
                && wq.gold.tables.contains(&"movie".to_string())
        })
        .collect();
    for (label, backward) in [
        ("MI", BackwardModule::new(&w, &mi_weights)),
        ("uniform", BackwardModule::new_uniform(&w)),
    ] {
        let (non_empty, total) = non_empty_stats(&w, &backward, &joining, 1, true);
        t.row(vec![
            label.into(),
            format!("{:.1}%", 100.0 * non_empty as f64 / total.max(1) as f64),
            format!("{non_empty}/{total}"),
        ]);
    }
    print!("{}", t.render());
}

/// Count non-empty interpretations among each gold configuration's top-k.
/// With `value_terms_only`, predicates from the gold config are kept but the
/// configuration used for routing is the gold one (pure backward test).
fn non_empty_stats(
    w: &FullAccessWrapper,
    backward: &BackwardModule,
    workload: &[WorkloadQuery],
    k: usize,
    top1_only: bool,
) -> (usize, usize) {
    let catalog = w.catalog();
    let mut non_empty = 0usize;
    let mut total = 0usize;
    for wq in workload {
        let q = wq.parse();
        let Ok(cfg) = wq.gold.to_configuration(catalog) else {
            continue;
        };
        let interps = backward
            .interpretations(catalog, &cfg, k)
            .unwrap_or_default();
        let take = if top1_only { 1 } else { k };
        for interp in interps.into_iter().take(take) {
            let Ok(stmt) = build_query(catalog, backward.schema_graph(), &q, &cfg, &interp, None)
            else {
                continue;
            };
            total += 1;
            if w.has_results(&stmt).unwrap_or(false) {
                non_empty += 1;
            }
        }
    }
    (non_empty, total)
}
