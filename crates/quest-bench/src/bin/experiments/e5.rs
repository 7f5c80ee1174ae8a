//! E5 — full access vs Deep-Web wrapper on all three datasets.

use quest_bench::{engine_for, evaluate, Dataset, Table};
use quest_core::eval::{aggregate, statements_equivalent};
use quest_core::{AnnotationSet, DeepWebWrapper, Quest, QuestConfig, SourceWrapper};

pub fn run() {
    println!("\n## E5 — full access vs hidden source (Deep-Web wrapper)\n");
    let mut t = Table::new(&["dataset", "access", "hit@1", "hit@3", "hit@k", "MRR"]);
    for ds in Dataset::ALL {
        let wl = ds.workload();
        // Full access.
        let full = engine_for(ds);
        let m = evaluate(&full, &wl);
        t.row(vec![
            ds.name().into(),
            "full".into(),
            format!("{:.2}", m.hit_at_1),
            format!("{:.2}", m.hit_at_3),
            format!("{:.2}", m.hit_at_k),
            format!("{:.3}", m.mrr),
        ]);
        // Hidden.
        let db = ds.generate_default();
        let ann = annotations_for(ds, db.catalog());
        let deep =
            Quest::new(DeepWebWrapper::new(db, ann, 50), QuestConfig::default()).expect("build");
        let catalog = deep.wrapper().catalog();
        let masks: Vec<Vec<bool>> = wl
            .iter()
            .map(|wq| {
                let gold = wq.gold.to_statement(catalog).expect("gold");
                deep.search(&wq.raw)
                    .map(|o| {
                        o.explanations
                            .iter()
                            .map(|e| statements_equivalent(&e.statement, &gold))
                            .collect()
                    })
                    .unwrap_or_default()
            })
            .collect();
        let m = aggregate(&masks);
        t.row(vec![
            ds.name().into(),
            "deep web".into(),
            format!("{:.2}", m.hit_at_1),
            format!("{:.2}", m.hit_at_3),
            format!("{:.2}", m.hit_at_k),
            format!("{:.3}", m.mrr),
        ]);
    }
    print!("{}", t.render());
}

/// Plausible owner-published annotations per dataset.
fn annotations_for(ds: Dataset, c: &relstore::Catalog) -> AnnotationSet {
    let mut ann = AnnotationSet::new();
    let mut pat = |t: &str, a: &str, p: &str| {
        let attr = c.attr_id(t, a).expect("attr exists");
        ann.set_pattern(attr, p).expect("pattern compiles");
    };
    match ds {
        Dataset::Imdb => {
            pat("movie", "year", r"(18|19|20)\d{2}");
            pat("person", "birth_year", r"(18|19|20)\d{2}");
            pat("person", "name", r"[A-Za-z' ]+");
            pat("movie", "title", r"[A-Za-z0-9' ]+");
            pat("company", "name", r"[A-Z][a-z]+ Pictures");
            let genre = c.attr_id("genre", "name").expect("attr");
            ann.add_examples(genre, ["Drama", "Comedy", "Thriller", "Noir", "Western"]);
        }
        Dataset::Mondial => {
            // A geographic form endpoint typically exposes its vocabularies
            // as dropdown lists: publish them as example values.
            let mut ex = |t: &str, a: &str, values: &[&str]| {
                let attr = c.attr_id(t, a).expect("attr exists");
                ann.add_examples(attr, values.iter().copied());
            };
            ex("country", "name", quest_data::corpus::COUNTRIES);
            ex("city", "name", quest_data::corpus::CITIES);
            ex("river", "name", quest_data::corpus::RIVERS);
            ex("mountain", "name", quest_data::corpus::MOUNTAINS);
            ex("language", "name", quest_data::corpus::LANGUAGES);
            ex("religion", "name", quest_data::corpus::RELIGIONS);
            let org = c.attr_id("organization", "abbreviation").expect("attr");
            ann.add_examples(
                org,
                quest_data::corpus::ORGANIZATIONS
                    .iter()
                    .map(|(_, abbr)| *abbr),
            );
        }
        Dataset::Dblp => {
            pat("author", "name", r"[A-Za-z' ]+");
            pat("publication", "title", r"[A-Za-z0-9 ]+");
            pat("publication", "year", r"(19|20)\d{2}");
            let venue = c.attr_id("venue", "name").expect("attr");
            ann.add_examples(venue, quest_data::corpus::VENUES.iter().copied());
            let aff = c.attr_id("author", "affiliation").expect("attr");
            ann.add_examples(
                aff,
                quest_data::corpus::UNIVERSITIES
                    .iter()
                    .map(|u| format!("University of {u}")),
            );
            let kind = c.attr_id("venue", "kind").expect("attr");
            ann.add_examples(kind, ["journal", "conference"]);
        }
    }
    ann
}
