//! Quick-mode self-test of the benchmark: every workload declared in
//! `BENCHMARK.json`, untraced and traced, at a tiny run length. Each run
//! must pass every oracle and print every declared metric with its
//! unit. Run it optimized; the `sched` setup trains two models:
//!
//! ```text
//! cargo test --release --offline --manifest-path rkdbench/Cargo.toml
//! ```

use rkd_testkit::json::Json;
use std::path::Path;
use std::process::Command;

fn manifest() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(j: &'a Json, key: &str) -> &'a [Json] {
    match j.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("{key}: expected an array, got {other:?}"),
    }
}

fn text<'a>(j: &'a Json, key: &str) -> &'a str {
    match j.get(key) {
        Some(Json::Str(s)) => s,
        other => panic!("{key}: expected a string, got {other:?}"),
    }
}

fn number(j: &Json) -> f64 {
    match j {
        Json::Int(v) => *v as f64,
        Json::UInt(v) => *v as f64,
        Json::Float(v) => *v,
        other => panic!("expected a number, got {other:?}"),
    }
}

/// Runs one workload and returns its result object.
fn run(workload: &str, trace: u8) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_rkdbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.3"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("the last line is one JSON object")
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_oracles() {
    let m = manifest();
    for w in list(&m, "workloads") {
        let name = text(w, "name");
        for (trace, set) in [(0u8, "end_to_end"), (1, "per_layer")] {
            let res = run(name, trace);
            assert_eq!(res.get("correct"), Some(&Json::Bool(true)), "{name}");
            assert_eq!(number(res.field("failed").unwrap()), 0.0, "{name}");
            assert!(number(res.field("attempted").unwrap()) >= 1.0, "{name}");
            let metrics = res.field("metrics").unwrap();
            let declared = list(&m, set);
            let Json::Obj(printed) = metrics else {
                panic!("metrics is not an object")
            };
            assert_eq!(printed.len(), declared.len(), "{name} --trace {trace}");
            for d in declared {
                let metric = text(d, "name");
                let got = metrics
                    .get(metric)
                    .unwrap_or_else(|| panic!("{name} --trace {trace}: {metric} missing"));
                assert_eq!(text(got, "unit"), text(d, "unit"), "{name}: {metric}");
                let v = number(got.field("value").unwrap());
                assert!(v.is_finite(), "{name}: {metric} = {v}");
                if trace == 0 {
                    assert!(v > 0.0, "{name}: end-to-end {metric} reads 0");
                }
            }
        }
        let spans = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{name}.tsv"));
        assert!(spans.exists(), "{name}: traced run wrote no spans");
    }
}
