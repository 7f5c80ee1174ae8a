//! Prints every experiment table (markdown, to stdout).
//!
//! Usage: `cargo run --release -p quest-bench --bin experiments
//! [e1|e2|e3|e4|e5|e7|e8|e9|all]`, or
//! `experiments bench-json [path]` for the committed perf artifact. An
//! unknown selector prints the valid ones to stderr and exits with status 2.
//!
//! (E6 — per-module microbenches — lives in the criterion benches:
//! `cargo bench -p quest-bench`.)

mod bench_json;
mod e1;
mod e2;
mod e3;
mod e4;
mod e5;
mod e7;
mod e8;
mod e9;

/// One experiment: selector name, optional alias, entry point.
type Experiment = (&'static str, Option<&'static str>, fn());

/// Every experiment `all` runs, in order.
const EXPERIMENTS: &[Experiment] = &[
    ("e1", None, e1::run),
    ("e2", None, e2::run),
    ("e3", None, e3::run),
    ("e4", None, e4::run),
    ("e5", None, e5::run),
    ("e7", None, e7::run),
    ("e8", None, e8::run),
    ("e9", None, e9::run),
];

fn main() {
    let mut args = std::env::args().skip(1);
    let which = args.next().unwrap_or_else(|| "all".to_string());
    if which == "bench-json" || which == "--bench-json" {
        // The perf-trajectory artifact is a dedicated mode, not part of
        // "all": it writes a file (BENCH_pipeline.json by default) instead
        // of printing a table.
        let path = args
            .next()
            .unwrap_or_else(|| "BENCH_pipeline.json".to_string());
        bench_json::run(&path);
    } else if which == "all" {
        for (_, _, run) in EXPERIMENTS {
            run();
        }
    } else if let Some((_, _, run)) = resolve(&which) {
        run();
    } else {
        eprintln!("unknown experiment `{which}`; valid selectors:");
        for (name, alias, _) in EXPERIMENTS {
            match alias {
                Some(alias) => eprintln!("  {name} (alias {alias})"),
                None => eprintln!("  {name}"),
            }
        }
        eprintln!("  all\n  bench-json [path]");
        std::process::exit(2);
    }
}

/// The table entry a selector names, by name or alias.
fn resolve(selector: &str) -> Option<&'static Experiment> {
    EXPERIMENTS
        .iter()
        .find(|(name, alias, _)| *name == selector || *alias == Some(selector))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_aliases_are_unique() {
        let mut selectors: Vec<&str> = EXPERIMENTS
            .iter()
            .flat_map(|(name, alias, _)| std::iter::once(*name).chain(*alias))
            .collect();
        let total = selectors.len();
        selectors.sort_unstable();
        selectors.dedup();
        assert_eq!(selectors.len(), total, "a selector names two experiments");
    }

    #[test]
    fn every_entry_resolves_to_itself() {
        for (name, alias, _) in EXPERIMENTS {
            assert_eq!(resolve(name).map(|e| e.0), Some(*name));
            if let Some(alias) = alias {
                assert_eq!(resolve(alias).map(|e| e.0), Some(*name));
            }
        }
    }

    #[test]
    fn retired_selectors_do_not_resolve() {
        for retired in [
            "e6", "e10", "e11", "e12", "e13", "e14", "chaos", "sharding", "all", "",
        ] {
            assert!(resolve(retired).is_none(), "`{retired}` must not resolve");
        }
    }
}
