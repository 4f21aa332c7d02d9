//! Self-test of the benchmark: a tiny run of every workload must report
//! every metric `BENCHMARK.json` declares, finite and in its declared
//! unit, and a corrupted result must fail the run.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

use serde::Content;

const WORKLOADS: [&str; 4] = ["paper-rmat", "grid-deep", "service-mix", "stream-rw"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
        .to_path_buf()
}

fn field<'a>(c: &'a Content, name: &str) -> &'a Content {
    match c {
        Content::Map(m) => m
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing field {name}")),
        _ => panic!("not an object where {name} was expected"),
    }
}

fn str_of(c: &Content) -> &str {
    match c {
        Content::Str(s) => s,
        _ => panic!("not a string"),
    }
}

fn num(c: &Content) -> Option<f64> {
    match c {
        Content::F64(v) => Some(*v),
        Content::U64(v) => Some(*v as f64),
        Content::I64(v) => Some(*v as f64),
        _ => None,
    }
}

/// `(name, unit)` of each metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec: Content = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    match field(&spec, list) {
        Content::Seq(items) => items
            .iter()
            .map(|m| {
                (
                    str_of(field(m, "name")).to_string(),
                    str_of(field(m, "unit")).to_string(),
                )
            })
            .collect(),
        _ => panic!("{list} is not a list"),
    }
}

/// Run one tiny workload; returns (exit code, parsed last stdout line).
fn run(workload: &str, trace: u8, extra: &[&str]) -> (i32, Content) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--tiny",
        ])
        .args(["--trace", &trace.to_string()])
        .args(extra)
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("some output");
    let result = serde_json::from_str(last).unwrap_or_else(|e| panic!("{workload}: {e}: {last}"));
    (out.status.code().unwrap_or(-1), result)
}

#[test]
fn every_workload_reports_every_declared_metric() {
    for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
        let want = declared(list);
        for w in WORKLOADS {
            let (code, result) = run(w, trace, &[]);
            assert_eq!(code, 0, "{w} --trace {trace} failed");
            assert!(matches!(field(&result, "correct"), Content::Bool(true)));
            let metrics = match field(&result, "metrics") {
                Content::Map(m) => m,
                _ => panic!("metrics is not an object"),
            };
            assert_eq!(
                metrics.len(),
                want.len(),
                "{w} --trace {trace}: metric count"
            );
            for (name, unit) in &want {
                let m = field(field(&result, "metrics"), name);
                let v = num(field(m, "value")).unwrap_or(f64::NAN);
                assert!(v.is_finite(), "{w}: {name} = {v}");
                assert_eq!(str_of(field(m, "unit")), unit, "{w}: unit of {name}");
            }
        }
    }
}

#[test]
fn a_corrupted_result_fails_the_run() {
    for w in WORKLOADS {
        let (code, result) = run(w, 0, &["--inject-fault"]);
        assert_ne!(code, 0, "{w}: corrupted run exited 0");
        assert!(
            matches!(field(&result, "correct"), Content::Bool(false)),
            "{w}"
        );
        assert!(num(field(&result, "failed")).unwrap_or(0.0) >= 1.0, "{w}");
    }
}
