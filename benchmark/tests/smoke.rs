//! The whole benchmark on a miniature database: every workload, untraced
//! and traced, must complete with no failed operation or check and report
//! exactly the metrics `BENCHMARK.json` lists.

use quest_benchmark::json::Json;
use quest_benchmark::lab;
use quest_benchmark::workloads::{self, RunArgs, Scale, WORKLOADS};

const ARGS: RunArgs = RunArgs {
    seed: 3,
    seconds: 0.4,
    scale: Scale::SMOKE,
};

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn listed(manifest: &Json, key: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(items)) = manifest.get(key) else {
        panic!("BENCHMARK.json has no `{key}` list");
    };
    items
        .iter()
        .map(|m| {
            let field = |f| m.get(f).and_then(Json::as_str).map(String::from);
            (
                field("name").expect("name"),
                field("unit").unwrap_or_default(),
            )
        })
        .collect()
}

#[test]
fn manifest_names_the_four_workloads() {
    let names: Vec<String> = listed(&manifest(), "workloads")
        .into_iter()
        .map(|w| w.0)
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn untraced_smoke_reports_every_end_to_end_metric_without_failures() {
    let want = listed(&manifest(), "end_to_end");
    for workload in WORKLOADS {
        let report = workloads::run(workload, &ARGS).expect(workload).report;
        assert_eq!(
            report.tally.failed, 0,
            "{workload}: {:?}",
            report.tally.examples
        );
        assert!(report.tally.attempted > 0);
        let got: Vec<(String, String)> = report
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(got, want, "{workload}");
        for m in &report.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{workload} {} = {}",
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn traced_smoke_reports_every_per_layer_metric_without_failures() {
    let mut want = listed(&manifest(), "per_layer");
    want.sort();
    for workload in WORKLOADS {
        let report = lab::traced_run(workload, &ARGS).expect(workload);
        // Includes the staged-equals-one-call check on every sampled read.
        assert_eq!(
            report.tally.failed, 0,
            "{workload}: {:?}",
            report.tally.examples
        );
        let mut got: Vec<(String, String)> = report
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        got.sort();
        assert_eq!(got, want, "{workload}");
        for m in &report.metrics {
            assert!(m.value.is_finite(), "{workload} {} = {}", m.name, m.value);
        }
    }
}
