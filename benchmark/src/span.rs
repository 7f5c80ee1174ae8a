//! The benchmark's own spans: one per call into a layer, recorded from
//! outside the product, kept in memory, and written as Chrome-trace JSON
//! when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// Index of a span within its [`Tracer`].
pub type SpanId = usize;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call`, e.g. `quest-core.forward`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Spans of one request share this.
    pub request: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store for one run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; it is closed by [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Close a span and return its duration in nanoseconds.
    pub fn end(&mut self, id: SpanId) -> u64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.duration_ns()
    }

    /// Time one call under a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, request);
        let result = f();
        self.end(id);
        result
    }

    /// Record a span whose duration the product measured itself (a stage
    /// timing it exports), placed at `start_ns` under `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        start_ns: u64,
        duration_ns: u64,
    ) -> SpanId {
        let request = self.spans[parent].request;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + duration_ns,
            parent: Some(parent),
            request,
        });
        self.spans.len() - 1
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Self time per span: its duration minus the part of its interval that
    /// its direct children cover (overlapping children are not counted
    /// twice).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent];
                let (start, end) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
                if start < end {
                    children[parent].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut intervals)| {
                intervals.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start_ns;
                for (start, end) in intervals {
                    if end > reach {
                        covered += end - start.max(reach);
                        reach = end;
                    }
                }
                span.duration_ns() - covered
            })
            .collect()
    }

    /// Total self time per span name, in microseconds.
    pub fn self_time_by_name_us(&self) -> BTreeMap<&'static str, f64> {
        let mut by_name = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            *by_name.entry(span.name).or_insert(0.0) += self_ns as f64 / 1e3;
        }
        by_name
    }

    /// Chrome-trace (`chrome://tracing`, Perfetto) rendering: one complete
    /// event per span; `tid` is the request, so a request's spans nest on
    /// one row. Requests are grouped by the name of their first span, and
    /// each group is thinned to every n-th request so that it contributes at
    /// most about `max_spans_per_group` spans: a kept request keeps all its
    /// spans, so parents never dangle.
    pub fn to_chrome_trace(&self, max_spans_per_group: usize) -> Json {
        // request -> (group, ordinal of the request within its group)
        let mut requests: BTreeMap<u64, (&'static str, usize)> = BTreeMap::new();
        // group -> (requests, spans)
        let mut groups: BTreeMap<&'static str, (usize, usize)> = BTreeMap::new();
        for span in &self.spans {
            let (group, _) = *requests.entry(span.request).or_insert_with(|| {
                let seen = groups.entry(span.name).or_default();
                seen.0 += 1;
                (span.name, seen.0 - 1)
            });
            groups.entry(group).or_default().1 += 1;
        }
        let kept = |span: &Span| {
            let (group, ordinal) = requests[&span.request];
            let stride = groups[group].1.div_ceil(max_spans_per_group.max(1));
            ordinal % stride.max(1) == 0
        };
        let self_times = self.self_times_ns();
        let events = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, span)| kept(span))
            .map(|(id, span)| {
                Json::obj([
                    ("name", Json::str(span.name)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(span.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(span.duration_ns() as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(span.request as f64)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(id as f64)),
                            (
                                "parent",
                                span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("self_us", Json::Num(self_times[id] as f64 / 1e3)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::Arr(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    fn tracer(spans: Vec<Span>) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // Root 0..100 with children 10..30 and 50..90; grandchild 55..60.
        let t = tracer(vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(50, 90, Some(0)),
            span(55, 60, Some(2)),
        ]);
        assert_eq!(t.self_times_ns(), [40, 20, 35, 5]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Children 10..60 and 40..80 cover 10..80 = 70 of the parent's 100.
        let t = tracer(vec![
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(40, 80, Some(0)),
            span(20, 30, Some(0)),
        ]);
        assert_eq!(t.self_times_ns()[0], 30);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        let t = tracer(vec![span(10, 50, None), span(0, 20, Some(0))]);
        assert_eq!(t.self_times_ns()[0], 30);
    }

    #[test]
    fn begin_end_nest_and_share_the_request() {
        let mut t = Tracer::new();
        let root = t.begin("root", None, 7);
        let got = t.time("child", Some(root), 7, || 42);
        assert_eq!(got, 42);
        t.end(root);
        let rec = t.record("stage", root, t.spans()[root].start_ns, 5);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[rec].request, 7);
        assert!(spans[root].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[root].end_ns);
        assert_eq!(t.durations_us("child").len(), 1);
        let trace = t.to_chrome_trace(100);
        assert_eq!(Json::parse(&trace.pretty()).unwrap(), trace);
    }

    #[test]
    fn export_thins_whole_requests() {
        let mut t = Tracer::new();
        for request in 0..100 {
            let root = t.begin("root", None, request);
            t.time("child", Some(root), request, || ());
            t.end(root);
        }
        let one = t.begin("rare", None, 1000);
        t.end(one);
        // 200 spans in the `root` group, at most ~50 wanted: every 4th
        // request survives, with both its spans; the rare group is whole.
        let Json::Arr(events) = t.to_chrome_trace(50) else {
            panic!("not an array");
        };
        let names: Vec<&str> = events
            .iter()
            .map(|e| e.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names.iter().filter(|n| **n == "root").count(), 25);
        assert_eq!(names.iter().filter(|n| **n == "child").count(), 25);
        assert_eq!(names.iter().filter(|n| **n == "rare").count(), 1);
    }
}
