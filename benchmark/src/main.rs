//! Command line of the repo benchmark.
//!
//! ```text
//! quest-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one run of one workload in this process; the last line of standard
//!     output is the result object `BENCHMARK.json` describes
//! quest-benchmark run [--seed N] [--seconds S] [--workload NAME] [--traced]
//!     every workload (or one), each in a child process; writes out/results.json
//! quest-benchmark smoke
//!     a miniature of both the untraced and the traced run, a few seconds
//! quest-benchmark calibrate [--runs N] [--seconds S] [--workload NAME]
//!     N runs per workload on N seeds; writes out/calibration.json
//! ```

use std::process::{Command, ExitCode, Stdio};

use quest_benchmark::harness::{out_dir, Metric, Report};
use quest_benchmark::json::Json;
use quest_benchmark::stats::{iqr_share, median};
use quest_benchmark::workloads::{RunArgs, Scale, WORKLOADS};
use quest_benchmark::{lab, workloads};

/// Seconds of timed work per run unless `--seconds` says otherwise; the
/// value `BENCHMARK.json` fixes for the driver.
const DEFAULT_SECONDS: f64 = 12.0;

/// Flags of every subcommand, parsed leniently: each takes the ones it
/// knows.
#[derive(Debug, Clone)]
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    runs: usize,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        runs: 10,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let number = |v: &str| v.parse::<f64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => flags.workload = Some(value()?.to_string()),
            "--seed" => {
                let v = value()?;
                flags.seed = v.parse().map_err(|e| format!("--seed {v}: {e}"))?;
            }
            "--seconds" => flags.seconds = number(value()?)?,
            "--runs" => flags.runs = number(value()?)? as usize,
            "--trace" => flags.trace = number(value()?)? != 0.0,
            "--traced" => flags.trace = true,
            "--scale" => flags.smoke = value()? == "smoke",
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(flags.seconds > 0.0 && flags.seconds <= 600.0) {
        return Err(format!("--seconds {} out of range", flags.seconds));
    }
    Ok(flags)
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
        )
    }))
}

/// The result object of one run: exactly the four keys the driver reads.
fn result_json(report: &Report) -> Json {
    Json::obj([
        ("correct", Json::Bool(report.tally.failed == 0)),
        ("attempted", Json::Num(report.tally.attempted as f64)),
        ("failed", Json::Num(report.tally.failed as f64)),
        ("metrics", metrics_json(&report.metrics)),
    ])
}

/// One workload, in this process. Prints every metric by name and unit, the
/// operation counts, and last the result line.
fn run_one(flags: &Flags) -> Result<(), String> {
    let workload = flags.workload.as_deref().ok_or("--workload is required")?;
    let args = RunArgs {
        seed: flags.seed,
        seconds: flags.seconds,
        scale: if flags.smoke {
            Scale::SMOKE
        } else {
            Scale::FULL
        },
    };
    let report = if flags.trace {
        lab::traced_run(workload, &args)?
    } else {
        workloads::run(workload, &args)?.report
    };
    let mode = if flags.trace { "traced" } else { "untraced" };
    println!(
        "# {workload} ({mode}, seed {}, {} s)",
        args.seed, args.seconds
    );
    for m in &report.metrics {
        println!("{:<44} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let t = &report.tally;
    println!(
        "attempted {} / succeeded {} / failed {}",
        t.attempted,
        t.attempted - t.failed,
        t.failed
    );
    for example in &t.examples {
        println!("FAILED: {example}");
    }
    let result = result_json(&report);
    let file = out_dir()
        .map_err(|e| e.to_string())?
        .join(format!("{workload}.{mode}.json"));
    let saved = Json::obj([("result", result.clone()), ("notes", report.notes)]);
    std::fs::write(&file, saved.pretty()).map_err(|e| format!("{}: {e}", file.display()))?;
    println!("{result}");
    Ok(())
}

/// Run one workload in a child process, so its peak memory and the
/// product's process-wide metric registry are its own. Echoes the child's
/// output and returns its result object.
fn run_child(workload: &str, flags: &Flags, seed: u64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &flags.seconds.to_string()])
        .args(["--trace", if flags.trace { "1" } else { "0" }]);
    if flags.smoke {
        cmd.args(["--scale", "smoke"]);
    }
    let output = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (body, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{body}");
    if !output.status.success() {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    Json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))
}

fn selected(flags: &Flags) -> Vec<&str> {
    match &flags.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    }
}

fn failed_of(result: &Json) -> f64 {
    result.get("failed").and_then(Json::as_f64).unwrap_or(1.0)
}

/// Every selected workload once; `out/results.json` holds the result
/// objects. Fails if any operation or check failed.
fn run_all(flags: &Flags) -> Result<(), String> {
    let mut results = Vec::new();
    let mut failed = 0.0;
    for workload in selected(flags) {
        let result = run_child(workload, flags, flags.seed)?;
        failed += failed_of(&result);
        results.push((workload, result));
        println!();
    }
    let file = out_dir().map_err(|e| e.to_string())?.join(if flags.trace {
        "results.traced.json"
    } else {
        "results.json"
    });
    let doc = Json::obj([
        ("seed", Json::Num(flags.seed as f64)),
        ("seconds", Json::Num(flags.seconds)),
        ("traced", Json::Bool(flags.trace)),
        ("workloads", Json::obj(results)),
        ("claim", Json::Null),
    ]);
    std::fs::write(&file, doc.pretty()).map_err(|e| format!("{}: {e}", file.display()))?;
    println!("wrote {}", file.display());
    if failed > 0.0 {
        return Err(format!("{failed} operations or checks failed"));
    }
    Ok(())
}

/// Both runs of every workload on the miniature scale.
fn smoke(flags: &Flags) -> Result<(), String> {
    let mut flags = flags.clone();
    flags.smoke = true;
    flags.seconds = 0.5;
    for trace in [false, true] {
        flags.trace = trace;
        run_all(&flags)?;
    }
    Ok(())
}

/// `--runs` runs of every selected workload, each on another seed: per
/// metric the minimum, median, maximum and the quartile spread as a share
/// of the median, which must stay under a third of the metric's bound.
fn calibrate(flags: &Flags) -> Result<(), String> {
    let mut doc = Vec::new();
    for workload in selected(flags) {
        let mut series: Vec<(String, Vec<f64>)> = Vec::new();
        for run in 0..flags.runs {
            let result = run_child(workload, flags, flags.seed + run as u64)?;
            if failed_of(&result) > 0.0 {
                return Err(format!("{workload}: a calibration run had failures"));
            }
            let metrics = result.get("metrics").ok_or("result without metrics")?;
            for (name, m) in metrics.members() {
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or("metric without value")?;
                match series.iter_mut().find(|(n, _)| n == name) {
                    Some((_, values)) => values.push(value),
                    None => series.push((name.clone(), vec![value])),
                }
            }
        }
        println!("# {workload}: {} runs", flags.runs);
        println!(
            "{:<44} {:>14} {:>14} {:>14} {:>8}",
            "metric", "min", "median", "max", "iqr/med"
        );
        let mut rows = Vec::new();
        for (name, values) in &series {
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let (med, spread) = (median(values), iqr_share(values));
            println!("{name:<44} {min:>14.4} {med:>14.4} {max:>14.4} {spread:>8.4}");
            rows.push((
                name.clone(),
                Json::obj([
                    ("min", Json::Num(min)),
                    ("median", Json::Num(med)),
                    ("max", Json::Num(max)),
                    ("iqr_share", Json::Num(spread)),
                    (
                        "values",
                        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
                    ),
                ]),
            ));
        }
        doc.push((workload, Json::obj(rows)));
        println!();
    }
    let file = out_dir().map_err(|e| e.to_string())?.join(if flags.trace {
        "calibration.traced.json"
    } else {
        "calibration.json"
    });
    let doc = Json::obj([
        ("runs", Json::Num(flags.runs as f64)),
        ("first_seed", Json::Num(flags.seed as f64)),
        ("seconds", Json::Num(flags.seconds)),
        ("workloads", Json::obj(doc)),
    ]);
    std::fs::write(&file, doc.pretty()).map_err(|e| format!("{}: {e}", file.display()))?;
    println!("wrote {}", file.display());
    Ok(())
}

fn main() -> ExitCode {
    // The product reads tuning knobs from QUEST_* variables; the benchmark
    // measures its defaults, whatever the caller's shell exports.
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("QUEST_") {
            std::env::remove_var(name);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "smoke" | "calibrate")) => (c, &args[1..]),
        _ => ("one", &args[..]),
    };
    let outcome = parse_flags(rest).and_then(|flags| match command {
        "run" => run_all(&flags),
        "smoke" => smoke(&flags),
        "calibrate" => calibrate(&flags),
        _ => run_one(&flags),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("quest-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
