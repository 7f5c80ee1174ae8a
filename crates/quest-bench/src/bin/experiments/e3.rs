//! E3 — schema-level Steiner trees vs instance-level baselines at growing
//! instance size (demo message 3).

use quest_bench::{fmt_dur, time, Table};
use quest_core::backward::{BackwardModule, SchemaGraphWeights};
use quest_core::baseline::{banks_search, discover_statements, InstanceGraph};
use quest_core::{FullAccessWrapper, KeywordQuery, SourceWrapper};
use quest_data::imdb;

pub fn run() {
    println!("\n## E3 — schema-level Steiner vs instance-level baselines (IMDB-shaped)\n");
    let mut t = Table::new(&[
        "movies",
        "schema nodes",
        "schema edges",
        "QUEST top-5 ST",
        "instance nodes",
        "instance edges",
        "IG build",
        "BANKS top-5",
        "DISCOVER CNs",
        "DISCOVER time",
    ]);
    for movies in [200usize, 1_000, 5_000, 20_000] {
        let db = imdb::generate(&imdb::ImdbScale { movies, seed: 42 }).expect("generate");
        let w = FullAccessWrapper::new(db);
        let backward = BackwardModule::new(&w, &SchemaGraphWeights::default());
        let catalog = w.catalog();

        // QUEST: top-5 Steiner trees for the actor-join query's terminals.
        let attrs = [
            catalog.attr_id("person", "name").expect("attr"),
            catalog.attr_id("movie", "title").expect("attr"),
        ];
        let (_, st_t) = time(|| {
            backward
                .interpretations_for_attrs(&attrs, 5)
                .expect("steiner")
        });

        // Instance graph + BANKS.
        let (ig, ig_t) = time(|| InstanceGraph::build(w.database()));
        let q = KeywordQuery::parse("leigh wind").expect("parse");
        let (banks, banks_t) = time(|| banks_search(w.database(), &ig, &q, 5).expect("banks"));
        let _ = banks;

        // DISCOVER candidate networks.
        let (cns, cn_t) = time(|| discover_statements(w.database(), &q, 4, Some(10)));

        t.row(vec![
            movies.to_string(),
            backward.schema_graph().node_count().to_string(),
            backward.schema_graph().edge_count().to_string(),
            fmt_dur(st_t),
            ig.node_count().to_string(),
            ig.edge_count().to_string(),
            fmt_dur(ig_t),
            fmt_dur(banks_t),
            cns.len().to_string(),
            fmt_dur(cn_t),
        ]);
    }
    print!("{}", t.render());
    println!("\nschema graph is instance-size independent; the tuple graph and BANKS grow with the data.");
}
