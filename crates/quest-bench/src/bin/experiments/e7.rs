//! E7 — list Viterbi k sweep: accuracy and latency vs k.

use quest_bench::{evaluate, fmt_dur, mean_query_latency, Table};
use quest_core::{FullAccessWrapper, Quest, QuestConfig};
use quest_data::imdb;

pub fn run() {
    println!("\n## E7 — top-k sweep (IMDB-shaped)\n");
    let mut t = Table::new(&["k", "avg query", "hit@1", "hit@k", "MRR"]);
    let db = imdb::generate(&imdb::ImdbScale {
        movies: 1_000,
        seed: 42,
    })
    .expect("generate");
    let w = FullAccessWrapper::new(db);
    let wl = imdb::workload();
    for k in [1usize, 3, 5, 10, 20] {
        let cfg = QuestConfig {
            k,
            ..Default::default()
        };
        let engine = Quest::new(w.clone(), cfg).expect("build");
        let lat = mean_query_latency(&engine, &wl);
        let m = evaluate(&engine, &wl);
        t.row(vec![
            k.to_string(),
            fmt_dur(lat),
            format!("{:.2}", m.hit_at_1),
            format!("{:.2}", m.hit_at_k),
            format!("{:.3}", m.mrr),
        ]);
    }
    print!("{}", t.render());
}
