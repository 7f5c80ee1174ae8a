//! Exporters: Prometheus text exposition and a JSON snapshot — plus a
//! strict exposition parser the smoke tests scrape with.
//!
//! Both formats are pure functions of a [`MetricsSnapshot`], so an export
//! never blocks recording. Histograms render Prometheus-style as cumulative
//! `_bucket{le="..."}` series plus `_sum` / `_count`, with the exact-bound
//! `p50`/`p95`/`p99` readouts additionally exposed as
//! `<name>_p50` (etc.) gauges — scrapers that cannot do histogram math
//! still see the tails.

use std::fmt::Write as _;

use crate::histogram::HistogramSnapshot;
use crate::metrics::{MetricSnapshot, MetricValue, MetricsSnapshot};
use crate::span::SpanRecord;

/// Escape a label value per the exposition format: backslash, double
/// quote, and newline (the three characters that would break the
/// line/quote framing).
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escape `# HELP` text: backslash and newline (quotes are legal there).
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn label_block(m: &MetricSnapshot, extra: Option<(&str, String)>) -> String {
    let mut pairs: Vec<String> = m
        .labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{}\"", escape_label_value(&v)));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

/// Render a snapshot in the Prometheus text exposition format (version
/// 0.0.4): `# HELP`/`# TYPE` lines, one sample per line, deterministic
/// order, label values escaped per the format (`\\`, `\"`, `\n`).
pub fn to_prometheus_text(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut last_typed: Option<(&str, &str)> = None;
    for m in &snapshot.metrics {
        let kind = match m.value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        };
        // One HELP + TYPE pair per metric family, not per label set.
        if last_typed != Some((m.name.as_str(), kind)) {
            let help = snapshot
                .help
                .get(&m.name)
                .map(|h| escape_help(h))
                .unwrap_or_else(|| format!("QUEST metric {}.", m.name));
            let _ = writeln!(out, "# HELP {} {}", m.name, help);
            let _ = writeln!(out, "# TYPE {} {}", m.name, kind);
            last_typed = Some((m.name.as_str(), kind));
        }
        match &m.value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "{}{} {}", m.name, label_block(m, None), v);
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "{}{} {}", m.name, label_block(m, None), v);
            }
            MetricValue::Histogram(h) => {
                let mut cumulative = 0u64;
                for (le, n) in h.nonzero_buckets() {
                    cumulative += n;
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        m.name,
                        label_block(m, Some(("le", le.to_string()))),
                        cumulative
                    );
                }
                let _ = writeln!(
                    out,
                    "{}_bucket{} {}",
                    m.name,
                    label_block(m, Some(("le", "+Inf".into()))),
                    h.count
                );
                let _ = writeln!(out, "{}_sum{} {}", m.name, label_block(m, None), h.sum);
                let _ = writeln!(out, "{}_count{} {}", m.name, label_block(m, None), h.count);
                for (p, label) in [(50.0, "p50"), (95.0, "p95"), (99.0, "p99")] {
                    let _ = writeln!(
                        out,
                        "{}_{label}{} {}",
                        m.name,
                        label_block(m, None),
                        h.percentile(p)
                    );
                }
            }
        }
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn histogram_json(h: &HistogramSnapshot) -> String {
    let buckets: Vec<String> = h
        .nonzero_buckets()
        .iter()
        .map(|(le, n)| format!("[{le},{n}]"))
        .collect();
    format!(
        "{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[{}]}}",
        h.count,
        h.sum,
        h.max,
        h.percentile(50.0),
        h.percentile(95.0),
        h.percentile(99.0),
        buckets.join(",")
    )
}

/// Render a snapshot as one JSON object: metric full name → value, with
/// histograms expanded to `{count, sum, max, p50, p95, p99, buckets}`.
pub fn to_json(snapshot: &MetricsSnapshot) -> String {
    let mut entries: Vec<String> = Vec::with_capacity(snapshot.metrics.len());
    for m in &snapshot.metrics {
        let value = match &m.value {
            MetricValue::Counter(v) => v.to_string(),
            MetricValue::Gauge(v) => v.to_string(),
            MetricValue::Histogram(h) => histogram_json(h),
        };
        entries.push(format!("\"{}\":{}", json_escape(&m.full_name()), value));
    }
    format!("{{{}}}", entries.join(","))
}

/// One parsed sample line of an exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSample {
    /// Sample name (including any `_bucket`/`_sum`/`_count` suffix).
    pub name: String,
    /// Raw label block, `{}`-stripped (empty when unlabeled). Values keep
    /// their escapes; [`ParsedSample::label_pairs`] decodes them.
    pub labels: String,
    /// The numeric value.
    pub value: f64,
}

impl ParsedSample {
    /// Decode the raw label block into `(key, value)` pairs, unescaping
    /// `\\` / `\"` / `\n` in values — the inverse of what
    /// [`to_prometheus_text`] emits, so a scrape round-trips adversarial
    /// label values losslessly.
    pub fn label_pairs(&self) -> Result<Vec<(String, String)>, String> {
        let chars: Vec<char> = self.labels.chars().collect();
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < chars.len() {
            let mut key = String::new();
            while i < chars.len() && chars[i] != '=' {
                key.push(chars[i]);
                i += 1;
            }
            if i >= chars.len() || key.is_empty() {
                return Err(format!("bad label key in {:?}", self.labels));
            }
            i += 1; // '='
            if chars.get(i) != Some(&'"') {
                return Err(format!("unquoted label value in {:?}", self.labels));
            }
            i += 1;
            let mut value = String::new();
            loop {
                match chars.get(i) {
                    None => return Err(format!("unterminated label value in {:?}", self.labels)),
                    Some('\\') => {
                        i += 1;
                        match chars.get(i) {
                            Some('\\') => value.push('\\'),
                            Some('"') => value.push('"'),
                            Some('n') => value.push('\n'),
                            _ => return Err(format!("bad escape in {:?}", self.labels)),
                        }
                        i += 1;
                    }
                    Some('"') => {
                        i += 1;
                        break;
                    }
                    Some(&c) => {
                        value.push(c);
                        i += 1;
                    }
                }
            }
            pairs.push((key, value));
            match chars.get(i) {
                Some(',') => i += 1,
                None => break,
                Some(_) => return Err(format!("expected comma in {:?}", self.labels)),
            }
        }
        Ok(pairs)
    }
}

/// Strictly parse a Prometheus text exposition: every non-comment line must
/// be `name[{labels}] value`, names must be valid metric identifiers, and
/// every sample's family must have been declared by a preceding `# TYPE`
/// line. This is the scrape-side half of the CI smoke test.
pub fn parse_prometheus_text(text: &str) -> Result<Vec<ParsedSample>, String> {
    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    }
    let mut families: Vec<String> = Vec::new();
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let (name, kind) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
            if !valid_name(name) || !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(format!("line {}: bad TYPE line {line:?}", lineno + 1));
            }
            families.push(name.to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().unwrap_or("");
            if !valid_name(name) {
                return Err(format!("line {}: bad HELP line {line:?}", lineno + 1));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // comment
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value in {line:?}", lineno + 1))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {}: unparsable value in {line:?}", lineno + 1))?;
        let (name, labels) = match series.split_once('{') {
            None => (series.to_string(), String::new()),
            Some((name, rest)) => {
                let labels = rest.strip_suffix('}').ok_or_else(|| {
                    format!("line {}: unterminated labels in {line:?}", lineno + 1)
                })?;
                (name.to_string(), labels.to_string())
            }
        };
        if !valid_name(&name) {
            return Err(format!("line {}: bad metric name {name:?}", lineno + 1));
        }
        let declared = families.iter().any(|f| {
            name == *f
                || (name.strip_prefix(f.as_str()).is_some_and(|suffix| {
                    matches!(
                        suffix,
                        "_bucket" | "_sum" | "_count" | "_p50" | "_p95" | "_p99"
                    )
                }))
        });
        if !declared {
            return Err(format!(
                "line {}: sample {name:?} has no preceding TYPE declaration",
                lineno + 1
            ));
        }
        samples.push(ParsedSample {
            name,
            labels,
            value,
        });
    }
    Ok(samples)
}

/// Render spans as one Chrome trace-event JSON document, loadable in
/// `chrome://tracing` or Perfetto.
///
/// Spans keep their real timeline (microsecond offsets from the
/// collector's epoch) on the `pid` lane of their [`crate::span::TraceKind`]
/// family, each carrying its `trace_id` so one commit's WAL append, fsync,
/// engine apply, and cache epoch bump — or one query's forward, backward,
/// and assemble stages under its `query` root — line up as a tree.
pub fn to_chrome_trace_json(spans: &[SpanRecord]) -> String {
    let mut events = String::new();
    // Process-name metadata rows, one per lane.
    for kind in [
        crate::span::TraceKind::Commit,
        crate::span::TraceKind::Query,
        crate::span::TraceKind::Replica,
    ] {
        if !events.is_empty() {
            events.push(',');
        }
        let _ = write!(
            events,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            kind.pid(),
            kind.lane()
        );
    }
    // One complete (`ph: "X"`) event per span; its args are the trace id
    // plus the span's numeric arguments.
    for s in spans {
        let _ = write!(
            events,
            ",{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":{},\"tid\":{},\"args\":{{\"trace_id\":{}",
            json_escape(s.name),
            s.kind.lane(),
            s.start_us,
            s.dur_us,
            s.kind.pid(),
            s.tid,
            s.trace_id
        );
        for (k, v) in s.args.iter().flatten() {
            let _ = write!(events, ",\"{}\":{v}", json_escape(k));
        }
        events.push_str("}}");
    }
    format!("{{\"traceEvents\":[{events}],\"displayTimeUnit\":\"ms\"}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn sample_registry() -> MetricsRegistry {
        let r = MetricsRegistry::new();
        r.counter("quest_test_queries_total").add(12);
        r.gauge_with("quest_test_lag", &[("replica", "a")]).set(3);
        r.gauge_with("quest_test_lag", &[("replica", "b")]).set(-1);
        let h = r.histogram("quest_test_latency_ns");
        for v in [100, 900, 5_000, 5_000, 120_000] {
            h.record(v);
        }
        r
    }

    #[test]
    fn prometheus_roundtrips_through_the_strict_parser() {
        let text = to_prometheus_text(&sample_registry().snapshot());
        let samples = parse_prometheus_text(&text).expect("exposition parses");
        let get = |name: &str| {
            samples
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .value
        };
        assert_eq!(get("quest_test_queries_total"), 12.0);
        assert_eq!(get("quest_test_latency_ns_count"), 5.0);
        assert_eq!(get("quest_test_latency_ns_sum"), 131_000.0);
        let lag: Vec<&ParsedSample> = samples
            .iter()
            .filter(|s| s.name == "quest_test_lag")
            .collect();
        assert_eq!(lag.len(), 2);
        assert!(lag
            .iter()
            .any(|s| s.labels.contains("replica=\"b\"") && s.value == -1.0));
        // Cumulative bucket counts end at the +Inf bucket == count.
        let inf = samples
            .iter()
            .find(|s| s.name == "quest_test_latency_ns_bucket" && s.labels.contains("+Inf"))
            .expect("+Inf bucket");
        assert_eq!(inf.value, 5.0);
    }

    #[test]
    fn parser_rejects_undeclared_and_malformed_lines() {
        assert!(parse_prometheus_text("orphan_metric 1").is_err());
        assert!(parse_prometheus_text("# TYPE x counter\nx one").is_err());
        assert!(parse_prometheus_text("# TYPE x counter\nx{a=\"b\" 1").is_err());
        assert!(parse_prometheus_text("# TYPE x wibble\nx 1").is_err());
        assert!(parse_prometheus_text("# TYPE x counter\nx 1\n\n# comment\n").is_ok());
    }

    #[test]
    fn help_lines_render_and_parse() {
        let r = sample_registry();
        r.describe("quest_test_queries_total", "Total queries served.");
        let text = to_prometheus_text(&r.snapshot());
        assert!(text.contains("# HELP quest_test_queries_total Total queries served.\n"));
        // Families without explicit help still get a HELP line.
        assert!(text.contains("# HELP quest_test_lag QUEST metric quest_test_lag.\n"));
        assert!(parse_prometheus_text(&text).is_ok());
        assert!(parse_prometheus_text("# HELP 9bad x\n").is_err());
    }

    #[test]
    fn adversarial_label_values_escape_and_round_trip() {
        let r = MetricsRegistry::new();
        let hostile = "a\"b\\c\nd,e}f g";
        r.gauge_with("quest_test_host", &[("path", hostile)]).set(4);
        let text = to_prometheus_text(&r.snapshot());
        assert_eq!(text.lines().count(), 3, "newline in value must be escaped");
        let samples = parse_prometheus_text(&text).expect("escaped exposition parses");
        let sample = samples
            .iter()
            .find(|s| s.name == "quest_test_host")
            .unwrap();
        let pairs = sample.label_pairs().expect("label block decodes");
        assert_eq!(pairs, vec![("path".to_string(), hostile.to_string())]);
        assert_eq!(sample.value, 4.0);
    }

    #[test]
    fn label_pairs_rejects_malformed_blocks() {
        let sample = |labels: &str| ParsedSample {
            name: "x".into(),
            labels: labels.into(),
            value: 0.0,
        };
        assert_eq!(sample("").label_pairs(), Ok(vec![]));
        assert!(sample("a=\"b\",c=\"d\"").label_pairs().is_ok());
        assert!(sample("a=b").label_pairs().is_err());
        assert!(sample("a=\"b").label_pairs().is_err());
        assert!(sample("a=\"b\\x\"").label_pairs().is_err());
        assert!(sample("a=\"b\"c=\"d\"").label_pairs().is_err());
    }

    #[test]
    fn chrome_trace_renders_spans_and_traces() {
        use crate::span::{SpanCollector, TraceKind};
        let c = SpanCollector::new(8);
        let commit = c.ctx(TraceKind::Commit);
        c.record_with(
            commit,
            "wal_append",
            c.start(),
            [Some(("records", 2)), None],
        );
        let query = c.ctx(TraceKind::Query);
        c.record_with(
            query,
            "query \"quoted\"",
            c.start(),
            [Some(("ok", 1)), None],
        );
        let json = to_chrome_trace_json(&c.recent());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("\"displayTimeUnit\":\"ms\"}"));
        assert!(json.contains("\"name\":\"wal_append\""));
        assert!(json.contains(&format!("\"trace_id\":{},\"records\":2", commit.id)));
        assert!(json.contains("\"name\":\"query \\\"quoted\\\"\""));
        assert!(json.contains(&format!("\"trace_id\":{},\"ok\":1", query.id)));
        assert!(json.contains("\"name\":\"process_name\""));
        // Structurally valid: every brace/bracket balances outside strings.
        let (mut depth, mut in_str, mut esc) = (0i64, false, false);
        for ch in json.chars() {
            match (in_str, esc, ch) {
                (true, true, _) => esc = false,
                (true, false, '\\') => esc = true,
                (true, false, '"') => in_str = false,
                (true, false, _) => {}
                (false, _, '"') => in_str = true,
                (false, _, '{' | '[') => depth += 1,
                (false, _, '}' | ']') => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }

    #[test]
    fn json_snapshot_has_expected_shape() {
        let json = to_json(&sample_registry().snapshot());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"quest_test_queries_total\":12"));
        assert!(json.contains("\"quest_test_lag{replica=\\\"a\\\"}\":3"));
        assert!(json.contains("\"count\":5"));
        assert!(json.contains("\"buckets\":[["));
    }
}
