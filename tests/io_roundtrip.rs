//! Cross-crate I/O round trips: SQL rendered from explanations parses back
//! to an equivalent statement; the schema summary orients on the right
//! tables.

use quest::prelude::*;
use quest::store::sql::parse_sql;
use quest_core::backward::{summarize, SummaryWeights};
use quest_core::eval::statements_equivalent;
use quest_data::imdb::{self, ImdbScale};

#[test]
fn rendered_sql_parses_back_equivalently() {
    let db = imdb::generate(&ImdbScale {
        movies: 100,
        seed: 42,
    })
    .expect("generate");
    let engine = Quest::new(FullAccessWrapper::new(db), QuestConfig::default()).expect("build");
    let catalog = engine.wrapper().catalog();
    for q in [
        "casablanca",
        "fleming wind",
        "leigh wind",
        "selznick wind",
        "movie year",
    ] {
        let out = engine.search(q).expect("search");
        for e in &out.explanations {
            let text = e.sql(catalog);
            let reparsed = parse_sql(catalog, &text)
                .unwrap_or_else(|err| panic!("`{text}` fails to reparse: {err}"));
            assert!(
                statements_equivalent(&e.statement, &reparsed),
                "round trip changed semantics of {text}"
            );
            // And the reparsed statement executes to the same row count.
            let r1 = engine
                .wrapper()
                .execute(&e.statement)
                .expect("original runs");
            let r2 = engine.wrapper().execute(&reparsed).expect("reparsed runs");
            assert_eq!(r1.len(), r2.len());
        }
    }
}

#[test]
fn summary_identifies_hub_of_star_schema() {
    let db = imdb::generate(&ImdbScale {
        movies: 200,
        seed: 42,
    })
    .expect("generate");
    let w = FullAccessWrapper::new(db);
    let s = summarize(&w, 3, &SummaryWeights::default());
    let top = w.catalog().table(s.ranking[0].table).name.clone();
    assert_eq!(top, "movie", "the star hub must rank first");
    assert!(!s.summary_edges.is_empty());
}

#[test]
fn parser_rejects_what_engine_never_emits() {
    let db = imdb::generate(&ImdbScale {
        movies: 10,
        seed: 1,
    })
    .expect("generate");
    let c = db.catalog();
    // Aggregates and subqueries are out of fragment — clean errors.
    assert!(parse_sql(c, "SELECT COUNT(*) FROM movie").is_err());
    assert!(parse_sql(c, "SELECT * FROM (SELECT * FROM movie)").is_err());
    assert!(parse_sql(c, "DELETE FROM movie").is_err());
}
