//! Shared harness code for the QUEST experiments (E1–E5, E7–E9) and
//! the criterion microbenches. Each experiment table is printed by the
//! `experiments` binary, which builds on these helpers.

use std::time::{Duration, Instant};

use quest_core::eval::{aggregate, statements_equivalent, WorkloadMetrics};
use quest_core::{FullAccessWrapper, Quest, QuestConfig, SourceWrapper};
use quest_data::workload::WorkloadQuery;
use quest_data::{dblp, imdb, mondial};

/// The three demo datasets by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// IMDB-shaped: star schema, many rows.
    Imdb,
    /// Mondial-shaped: complex schema, few rows.
    Mondial,
    /// DBLP-shaped: m:n heavy, many rows.
    Dblp,
}

impl Dataset {
    /// All datasets.
    pub const ALL: [Dataset; 3] = [Dataset::Imdb, Dataset::Mondial, Dataset::Dblp];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::Imdb => "imdb",
            Dataset::Mondial => "mondial",
            Dataset::Dblp => "dblp",
        }
    }

    /// Generate the dataset at its default evaluation size.
    pub fn generate_default(&self) -> relstore::Database {
        match self {
            Dataset::Imdb => imdb::generate(&imdb::ImdbScale {
                movies: 1_000,
                seed: 42,
            })
            .expect("imdb generates"),
            Dataset::Mondial => {
                mondial::generate(&mondial::MondialScale::default()).expect("mondial generates")
            }
            Dataset::Dblp => dblp::generate(&dblp::DblpScale {
                publications: 1_000,
                authors_per_paper: 3,
                seed: 42,
            })
            .expect("dblp generates"),
        }
    }

    /// The dataset's curated workload.
    pub fn workload(&self) -> Vec<WorkloadQuery> {
        match self {
            Dataset::Imdb => imdb::workload(),
            Dataset::Mondial => mondial::workload(),
            Dataset::Dblp => dblp::workload(),
        }
    }
}

/// Build a default engine over a dataset.
pub fn engine_for(ds: Dataset) -> Quest<FullAccessWrapper> {
    Quest::new(
        FullAccessWrapper::new(ds.generate_default()),
        QuestConfig::default(),
    )
    .expect("engine builds")
}

/// Evaluate an engine on a workload: per-query relevance masks over the
/// engine's ranked explanations against gold SQL, aggregated.
pub fn evaluate(engine: &Quest<FullAccessWrapper>, workload: &[WorkloadQuery]) -> WorkloadMetrics {
    let catalog = engine.wrapper().catalog();
    let masks: Vec<Vec<bool>> = workload
        .iter()
        .map(|wq| {
            let gold = wq.gold.to_statement(catalog).expect("gold resolves");
            match engine.search(&wq.raw) {
                Ok(out) => out
                    .explanations
                    .iter()
                    .map(|e| statements_equivalent(&e.statement, &gold))
                    .collect(),
                Err(_) => Vec::new(),
            }
        })
        .collect();
    aggregate(&masks)
}

/// Time a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed())
}

/// A workload's raw queries repeated `reps` times in a deterministic
/// xorshift-Fisher-Yates-shuffled order — the shape of an analytical query
/// stream with popular repeats, shared by the serving benches, the `serve`
/// example, and the concurrency determinism suite.
pub fn shuffled_stream(workload: &[WorkloadQuery], reps: usize, seed: u64) -> Vec<String> {
    let mut stream: Vec<String> = workload
        .iter()
        .flat_map(|wq| std::iter::repeat_n(wq.raw.clone(), reps))
        .collect();
    // Xorshift must not start at 0; remap only that value so distinct
    // nonzero seeds keep producing distinct permutations.
    let mut x = if seed == 0 {
        0x9E37_79B9_7F4A_7C15
    } else {
        seed
    };
    for i in (1..stream.len()).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        stream.swap(i, (x % (i as u64 + 1)) as usize);
    }
    stream
}

/// Mean wall time of running a workload through an engine, per query.
pub fn mean_query_latency(
    engine: &Quest<FullAccessWrapper>,
    workload: &[WorkloadQuery],
) -> Duration {
    let t0 = Instant::now();
    let mut n = 0u32;
    for wq in workload {
        if engine.search(&wq.raw).is_ok() {
            n += 1;
        }
    }
    if n == 0 {
        Duration::ZERO
    } else {
        t0.elapsed() / n
    }
}

/// Markdown table writer: fixed-width columns, pipe-separated.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a header row.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render as a markdown table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            let body = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join(" | ");
            format!("| {body} |")
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        let sep = widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("-|-");
        out.push_str(&format!("|-{sep}-|\n"));
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Linear-interpolated percentile of a sample set, in microseconds.
/// `p` in [0, 100]. Returns 0 for an empty set.
pub fn percentile_us(samples: &[Duration], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut us: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    us.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = (p / 100.0) * (us.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        us[lo]
    } else {
        us[lo] + (us[hi] - us[lo]) * (rank - lo as f64)
    }
}

/// Minimal JSON object writer for the benchmark artifact — keys are plain
/// identifiers and values are numbers, strings without escapes, or nested
/// objects, so hand-assembly is safe and keeps the repo free of a
/// serializer dependency.
#[derive(Debug, Default)]
pub struct JsonObject {
    fields: Vec<(String, String)>,
}

impl JsonObject {
    /// Empty object.
    pub fn new() -> JsonObject {
        JsonObject::default()
    }

    /// Add a numeric field (rendered with enough precision for µs values).
    pub fn num(mut self, key: &str, value: f64) -> JsonObject {
        let rendered = if value.fract() == 0.0 && value.abs() < 1e15 {
            format!("{value:.0}")
        } else {
            format!("{value:.3}")
        };
        self.fields.push((key.to_string(), rendered));
        self
    }

    /// Add a string field (must not contain quotes or backslashes).
    pub fn str(mut self, key: &str, value: &str) -> JsonObject {
        debug_assert!(!value.contains('"') && !value.contains('\\'));
        self.fields.push((key.to_string(), format!("\"{value}\"")));
        self
    }

    /// Add a nested object.
    pub fn obj(mut self, key: &str, value: JsonObject) -> JsonObject {
        self.fields.push((key.to_string(), value.render()));
        self
    }

    /// Render as a JSON object string.
    pub fn render(&self) -> String {
        let body = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect::<Vec<_>>()
            .join(",");
        format!("{{{body}}}")
    }

    /// Render pretty-printed (two-space indent), for a diffable committed
    /// artifact.
    pub fn render_pretty(&self) -> String {
        // Re-indent the compact rendering: cheap and adequate for the flat
        // numeric payloads this writer produces.
        let compact = self.render();
        let mut out = String::with_capacity(compact.len() * 2);
        let mut depth = 0usize;
        let mut in_string = false;
        for ch in compact.chars() {
            match ch {
                '"' => {
                    in_string = !in_string;
                    out.push(ch);
                }
                '{' if !in_string => {
                    depth += 1;
                    out.push(ch);
                    out.push('\n');
                    out.push_str(&"  ".repeat(depth));
                }
                '}' if !in_string => {
                    depth = depth.saturating_sub(1);
                    out.push('\n');
                    out.push_str(&"  ".repeat(depth));
                    out.push(ch);
                }
                ',' if !in_string => {
                    out.push(ch);
                    out.push('\n');
                    out.push_str(&"  ".repeat(depth));
                }
                ':' if !in_string => {
                    out.push(ch);
                    out.push(' ');
                }
                _ => out.push(ch),
            }
        }
        out.push('\n');
        out
    }
}

/// Format a duration in adaptive units.
pub fn fmt_dur(d: Duration) -> String {
    if d.as_secs() >= 1 {
        format!("{:.2}s", d.as_secs_f64())
    } else if d.as_millis() >= 1 {
        format!("{:.2}ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{:.1}µs", d.as_secs_f64() * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(vec!["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("| a | long-header |"));
        assert!(s.contains("|---|"));
        assert!(s.lines().count() == 3);
    }

    #[test]
    fn datasets_build_and_evaluate() {
        let e = engine_for(Dataset::Mondial);
        let m = evaluate(&e, &Dataset::Mondial.workload());
        assert!(m.queries > 0);
        assert!(m.mrr > 0.0);
    }

    #[test]
    fn shuffled_stream_is_a_deterministic_permutation() {
        let wl = Dataset::Imdb.workload();
        let a = shuffled_stream(&wl, 3, 42);
        assert_eq!(a, shuffled_stream(&wl, 3, 42), "same seed, same order");
        assert_ne!(a, shuffled_stream(&wl, 3, 7), "different seed reorders");
        assert_eq!(a.len(), wl.len() * 3);
        // Same multiset as the unshuffled repetition.
        let mut got = a;
        got.sort();
        let mut expect: Vec<String> = wl
            .iter()
            .flat_map(|wq| std::iter::repeat_n(wq.raw.clone(), 3))
            .collect();
        expect.sort();
        assert_eq!(got, expect);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_dur(Duration::from_secs(2)), "2.00s");
        assert_eq!(fmt_dur(Duration::from_millis(5)), "5.00ms");
        assert!(fmt_dur(Duration::from_micros(7)).ends_with("µs"));
    }
}
