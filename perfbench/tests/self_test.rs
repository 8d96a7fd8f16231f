//! Tiny-scale self-test: every workload runs once, untraced and traced.
//! Checks that every metric `BENCHMARK.json` names is reported with its
//! unit, that no operation failed, and that on the random join orders
//! RPT's work robustness factor stays below Baseline's.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use perfbench::setup::{setup, Setup, Workload};
use perfbench::stats::max_over_min;
use perfbench::{run, Options, Seeds};
use rpt_core::Mode;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Scale of the self-test relative to the full benchmark.
const TINY: f64 = 0.05;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn spec_metrics(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let start = spec
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section} in BENCHMARK.json"));
    let body = &spec[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| -> String {
        let tag = format!("\"{key}\": \"");
        let at = entry
            .find(&tag)
            .unwrap_or_else(|| panic!("{key} in {entry}"))
            + tag.len();
        entry[at..]
            .split('"')
            .next()
            .expect("closing quote")
            .to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn options(workload: Workload, trace: bool, out_dir: &Path) -> Options {
    Options {
        workload,
        seed: 3,
        seconds: 1.0,
        trace,
        scale: TINY,
        out_dir: out_dir.to_path_buf(),
    }
}

#[test]
fn every_workload_reports_every_metric_without_failures() {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-self-test");
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let expected = spec_metrics(section);
        assert!(!expected.is_empty(), "{section} lists metrics");
        for workload in Workload::ALL {
            let outcome = run(&options(workload, trace, &out_dir))
                .unwrap_or_else(|e| panic!("{} failed: {e}", workload.name()));
            assert_eq!(
                outcome.failed,
                0,
                "{}: {:?}",
                workload.name(),
                outcome.lines
            );
            assert!(outcome.attempted > 0);
            let got: Vec<(String, String)> = outcome
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(got, expected, "{} {section}", workload.name());
            assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
            let json = outcome.json();
            assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
            assert!(json.contains("\"failed\": 0, \"metrics\": {"));
            assert_eq!(outcome.trace_file.is_some(), trace);
        }
    }
}

/// Largest per-query work robustness factor when the join orders of the
/// RPT units run under `mode` (one execution each: work is deterministic).
fn work_rf_max(setup: &Setup, mode: Mode) -> f64 {
    let mut works: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for unit in &setup.units {
        if unit.mode != Mode::RobustPredicateTransfer {
            continue;
        }
        let q = &setup.queries[unit.query];
        let mut opts = unit.opts.clone();
        opts.mode = mode;
        let r = setup.dbs[q.db].db.query(&q.sql, &opts).expect("query runs");
        works.entry(unit.query).or_default().push(r.work() as f64);
    }
    works
        .values()
        .filter_map(|w| max_over_min(w))
        .fold(1.0, f64::max)
}

#[test]
fn rpt_is_more_robust_than_baseline_on_the_same_orders() {
    let s = setup(Workload::RandomOrders, Seeds::from_seed(3), TINY).expect("setup");
    let rpt = work_rf_max(&s, Mode::RobustPredicateTransfer);
    let baseline = work_rf_max(&s, Mode::Baseline);
    assert!(rpt < baseline, "RPT work RF {rpt} vs Baseline {baseline}");
}
