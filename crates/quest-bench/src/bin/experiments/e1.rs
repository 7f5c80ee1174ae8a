//! E1 — end-to-end effectiveness and latency on the IMDB-shaped database at
//! growing scale (demo message 1).

use std::time::Duration;

use quest_bench::{evaluate, fmt_dur, time, Table};
use quest_core::{FullAccessWrapper, Quest, QuestConfig};
use quest_data::imdb;

pub fn run() {
    println!("\n## E1 — schema-based keyword→SQL at scale (IMDB-shaped)\n");
    let mut t = Table::new(&[
        "movies",
        "total rows",
        "setup",
        "avg query",
        "emissions",
        "forward",
        "backward",
        "combine",
        "hit@1",
        "hit@3",
        "MRR",
    ]);
    for movies in [500usize, 5_000, 25_000] {
        let (db, gen_t) =
            time(|| imdb::generate(&imdb::ImdbScale { movies, seed: 42 }).expect("generate"));
        let rows = db.total_rows();
        let (engine, setup_t) =
            time(|| Quest::new(FullAccessWrapper::new(db), QuestConfig::default()).expect("build"));
        let wl = imdb::workload();
        let mut stage = [Duration::ZERO; 4];
        let mut total = Duration::ZERO;
        let mut n = 0u32;
        for wq in &wl {
            if let Ok(out) = engine.search(&wq.raw) {
                let s = &out.timings;
                stage[0] += s.emissions;
                stage[1] += s.forward_apriori + s.forward_feedback;
                stage[2] += s.backward;
                stage[3] += s.combine_configs + s.combine_explanations;
                total += s.total();
                n += 1;
            }
        }
        let m = evaluate(&engine, &wl);
        let per = |d: Duration| fmt_dur(d / n.max(1));
        t.row(vec![
            movies.to_string(),
            rows.to_string(),
            fmt_dur(gen_t + setup_t),
            per(total),
            per(stage[0]),
            per(stage[1]),
            per(stage[2]),
            per(stage[3]),
            format!("{:.2}", m.hit_at_1),
            format!("{:.2}", m.hit_at_3),
            format!("{:.3}", m.mrr),
        ]);
    }
    print!("{}", t.render());
}
