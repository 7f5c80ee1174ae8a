//! E4 — DST sensitivity: uncertainty sweep and the feedback learning curve
//! (demo message 4 + abstract claim).

use quest_bench::{evaluate, Table};
use quest_core::backward::{BackwardModule, SchemaGraphWeights};
use quest_core::eval::aggregate;
use quest_core::forward::ForwardModule;
use quest_core::semantics::SemanticRules;
use quest_core::{FullAccessWrapper, Quest, QuestConfig, SourceWrapper};
use quest_data::{imdb, FeedbackOracle};

use crate::e2::mask_for_configs;

pub fn run() {
    println!("\n## E4a — forward/backward uncertainty sweep (IMDB-shaped, MRR)\n");
    let mut t = Table::new(&["O_C \\ O_I", "0.1", "0.3", "0.5", "0.7", "0.9"]);
    let db = imdb::generate(&imdb::ImdbScale {
        movies: 1_000,
        seed: 42,
    })
    .expect("generate");
    let w = FullAccessWrapper::new(db);
    let wl = imdb::workload();
    for o_c in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let mut cells = vec![format!("{o_c:.1}")];
        for o_i in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let cfg = QuestConfig {
                o_c,
                o_i,
                ..Default::default()
            };
            let engine = Quest::new(w.clone(), cfg).expect("build");
            let m = evaluate(&engine, &wl);
            cells.push(format!("{:.3}", m.mrr));
        }
        t.row(cells);
    }
    print!("{}", t.render());

    println!("\n## E4b — accuracy vs amount of (noisy) feedback\n");
    let mut t = Table::new(&["feedbacks", "O_Cf eff", "feedback-only MRR", "combined MRR"]);
    let forward0 = ForwardModule::new(&w, &SemanticRules::default()).expect("forward");
    let backward = BackwardModule::new(&w, &SchemaGraphWeights::default());
    let catalog_owned = w.catalog().clone();
    let catalog = &catalog_owned;
    let engine = Quest::new(w.clone(), QuestConfig::default()).expect("build");
    let fwd = forward0;
    let mut oracle_a = FeedbackOracle::new(0.2, 21);
    let mut oracle_b = FeedbackOracle::new(0.2, 21);
    let steps = [0usize, 12, 24, 60, 120];
    let mut given = 0usize;
    for target in steps {
        while given < target {
            let wq = &wl[given % wl.len()];
            let (cfg_a, _) = oracle_a.feedback_for(catalog, wq);
            fwd.record_feedback(&cfg_a, true).expect("feedback");
            let (cfg_b, _) = oracle_b.feedback_for(catalog, wq);
            engine
                .feedback_configuration(&cfg_b, true)
                .expect("feedback");
            given += 1;
        }
        // Feedback-only ranking quality.
        let masks: Vec<Vec<bool>> = wl
            .iter()
            .map(|wq| {
                let q = wq.parse();
                let em = fwd.emissions(&w, &q);
                let configs = fwd.top_k_feedback(&em, 5).unwrap_or_default();
                mask_for_configs(catalog, &backward, &q, &configs, wq, 5)
            })
            .collect();
        let fb_only = aggregate(&masks);
        let combined = evaluate(&engine, &wl);
        t.row(vec![
            target.to_string(),
            format!("{:.3}", engine.effective_o_cf()),
            format!("{:.3}", fb_only.mrr),
            format!("{:.3}", combined.mrr),
        ]);
    }
    print!("{}", t.render());
}
