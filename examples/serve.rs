//! Serving demo: one shared, cache-backed engine answering a concurrent
//! keyword-query stream, with live cache statistics and a Prometheus
//! exposition of the full metrics registry at the end.
//!
//! Run with: `cargo run --release -p quest --example serve [workers]`

use std::time::Instant;

use quest::prelude::*;
use quest::serve::CachedEngine;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workers: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(4);

    // An IMDB-shaped database and its curated workload, as a query stream
    // with popular repeats (every query asked five times, shuffled).
    let db = quest::data::imdb::generate(&quest::data::imdb::ImdbScale {
        movies: 2_000,
        seed: 42,
    })?;
    let workload = quest::data::imdb::workload();
    let stream = quest_bench::shuffled_stream(&workload, 5, 42);

    // Serial reference: the plain engine, one query at a time.
    let engine = Quest::new(FullAccessWrapper::new(db), QuestConfig::default())?;
    let t0 = Instant::now();
    for raw in &stream {
        let _ = engine.search(raw);
    }
    let serial = t0.elapsed();
    println!(
        "serial engine:   {} queries in {:.2?} ({:.0} q/s)",
        stream.len(),
        serial,
        stream.len() as f64 / serial.as_secs_f64()
    );

    // The service: same engine behind the thread pool and stage caches.
    let service = QueryService::new(CachedEngine::new(engine), workers);

    let t0 = Instant::now();
    let tickets = service.submit_batch(&stream);
    let mut answered = 0usize;
    for ticket in tickets {
        if ticket.wait().is_ok() {
            answered += 1;
        }
    }
    let served = t0.elapsed();
    println!(
        "{workers}-worker serve: {answered} answered in {:.2?} ({:.0} q/s, {:.2}x)",
        served,
        answered as f64 / served.as_secs_f64(),
        serial.as_secs_f64() / served.as_secs_f64()
    );

    // Feedback still works on the shared engine: validate the top answer of
    // the first workload query, then watch the epoch invalidate the caches.
    let query = KeywordQuery::parse(&workload[0].raw)?;
    let before = service.engine().search_query(&query)?;
    let epoch_before = service.engine().engine().feedback_epoch();
    if let Some(best) = before.explanations.first() {
        for _ in 0..3 {
            service.engine().feedback(&query, best, true)?;
        }
    }
    let after = service.engine().search_query(&query)?;
    println!(
        "\nfeedback: epoch {} -> {}, feedback configs now {}",
        epoch_before,
        service.engine().engine().feedback_epoch(),
        after.feedback_configs.len()
    );

    let stats = service.shutdown();
    println!("\n{stats}");

    // Prometheus exposition: the engine's registry snapshot (riding in the
    // stats) merged with the process-wide registry (WAL/replica/shard
    // layers — empty here, but the scrape endpoint of a real deployment
    // serves the union). Round-trip it through the exposition parser and
    // refuse to exit quietly if the core counters did not move.
    let mut merged = stats.metrics.clone();
    merged.merge(&quest::obs::global().snapshot());
    let text = quest::obs::to_prometheus_text(&merged);
    println!(
        "--- prometheus exposition ({} bytes) ---\n{text}",
        text.len()
    );
    let samples = quest::obs::parse_prometheus_text(&text).map_err(std::io::Error::other)?;
    for name in [
        quest::serve::names::QUERIES,
        "quest_serve_latency_ns_count",
        "quest_serve_stage_forward_ns_count",
    ] {
        let sample = samples
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| std::io::Error::other(format!("{name} missing from exposition")))?;
        if sample.value <= 0.0 {
            return Err(format!("{name} should be non-zero after serving").into());
        }
    }
    println!(
        "obs OK: {} samples parsed, {} queries counted",
        samples.len(),
        stats.queries
    );

    // Chrome trace export of the span ring, loadable in chrome://tracing
    // or Perfetto. Opt-in via env so the demo stays file-free by default;
    // a trace with no `query` span means the read path stopped recording,
    // so the demo refuses to exit quietly.
    if let Ok(path) = std::env::var("QUEST_OBS_CHROME_TRACE") {
        let spans = quest::obs::spans().recent();
        let queries = spans.iter().filter(|s| s.name == "query").count();
        if queries == 0 {
            return Err("chrome trace holds no query span".into());
        }
        std::fs::write(&path, quest::obs::to_chrome_trace_json(&spans).as_bytes())?;
        println!(
            "chrome trace: {} spans ({queries} query roots) -> {path}",
            spans.len()
        );
    }
    Ok(())
}
