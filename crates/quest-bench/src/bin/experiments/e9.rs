//! E9 — a-priori heuristic rules ablation: knock each semantic relationship
//! down to the unrelated floor and measure the damage (DESIGN.md's "design
//! choices" ablation; paper §3: the rules "foster the transition between
//! database terms belonging to the same table and belonging to tables
//! connected through foreign keys").

use quest_bench::{evaluate, Dataset, Table};
use quest_core::semantics::SemanticRules;
use quest_core::{FullAccessWrapper, Quest, QuestConfig};

pub fn run() {
    println!("\n## E9 — a-priori semantic-rule ablation (MRR per dataset)\n");
    let base = SemanticRules::default();
    let floor = base.unrelated;
    let variants: Vec<(&str, SemanticRules)> = vec![
        ("full rules", base.clone()),
        (
            "no aggregation",
            SemanticRules {
                aggregation: floor,
                ..base.clone()
            },
        ),
        (
            "no inclusion (FK)",
            SemanticRules {
                inclusion: floor,
                ..base.clone()
            },
        ),
        (
            "no same-table",
            SemanticRules {
                same_table: floor,
                ..base.clone()
            },
        ),
        (
            "no generalization",
            SemanticRules {
                generalization: floor,
                ..base.clone()
            },
        ),
        (
            "flat (all = floor)",
            SemanticRules {
                aggregation: floor,
                inclusion: floor,
                same_table: floor,
                generalization: floor,
                identity: floor,
                ..base.clone()
            },
        ),
    ];
    let mut t = Table::new(&["rules", "imdb", "mondial", "dblp"]);
    for (label, rules) in &variants {
        let mut cells = vec![label.to_string()];
        for ds in Dataset::ALL {
            let db = ds.generate_default();
            let cfg = QuestConfig {
                rules: rules.clone(),
                ..Default::default()
            };
            let engine = Quest::new(FullAccessWrapper::new(db), cfg).expect("build");
            let m = evaluate(&engine, &ds.workload());
            cells.push(format!("{:.3}", m.mrr));
        }
        t.row(cells);
    }
    print!("{}", t.render());
}
