//! The benchmark's own tests, at smoke length.
//!
//! They need the `mbqao-serve` binary next to the `perfbench` binary;
//! `python3 perfbench/run.py ...` builds both into the same target
//! directory. Run them with the same `CARGO_TARGET_DIR` and `--release`:
//!
//! ```text
//! CARGO_TARGET_DIR=.bench_build cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::PathBuf;
use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = ["variational", "clifford128", "cold_start", "serve_jobs"];

fn perfbench(args: &[&str]) -> Output {
    let exe = PathBuf::from(env!("CARGO_BIN_EXE_perfbench"));
    let serve = exe.with_file_name("mbqao-serve");
    assert!(
        serve.is_file(),
        "{} is missing: build it first (python3 perfbench/run.py --help builds both binaries)",
        serve.display()
    );
    let out_dir = exe.with_file_name("perfbench-test-results");
    Command::new(&exe)
        .args(args)
        .arg("--serve-exe")
        .arg(&serve)
        .arg("--out-dir")
        .arg(&out_dir)
        .output()
        .expect("running perfbench")
}

/// `(name, value text, unit)` of every metric in the result line.
fn metrics(line: &str) -> Vec<(String, String, String)> {
    let mut found = Vec::new();
    let mut rest = line;
    while let Some(i) = rest.find("\": {\"value\": ") {
        let name_start = rest[..i].rfind('"').expect("metric name quote") + 1;
        let name = rest[name_start..i].to_string();
        let after = &rest[i + "\": {\"value\": ".len()..];
        let comma = after.find(',').expect("value ends with a comma");
        let value = after[..comma].to_string();
        let unit_start = after.find("\"unit\": \"").expect("unit") + "\"unit\": \"".len();
        let unit_end = unit_start + after[unit_start..].find('"').expect("unit end");
        found.push((name, value, after[unit_start..unit_end].to_string()));
        rest = &after[unit_end..];
    }
    found
}

fn smoke(workload: &str, seed: &str, trace: &str) -> Vec<(String, String, String)> {
    let out = perfbench(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "1",
        "--trace",
        trace,
        "--smoke",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_string();
    assert!(
        out.status.success() && last.starts_with("{\"correct\": true, "),
        "{workload} (trace {trace}) failed:\n{last}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    metrics(&last)
}

#[test]
fn every_workload_passes_its_checks_and_prints_every_metric() {
    let benchmark =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    for workload in WORKLOADS {
        assert!(benchmark.contains(&format!("\"name\": \"{workload}\"")));
        for trace in ["0", "1"] {
            let found = smoke(workload, "5", trace);
            assert!(!found.is_empty(), "{workload}: no metrics");
            for (name, value, _) in &found {
                assert!(
                    benchmark.contains(&format!("\"name\": \"{name}\"")),
                    "{name} is not declared in BENCHMARK.json"
                );
                assert!(value.parse::<f64>().is_ok(), "{workload}: {name} = {value}");
            }
        }
    }
}

#[test]
fn work_counters_repeat_exactly_across_processes() {
    for workload in WORKLOADS {
        let counters = |found: Vec<(String, String, String)>| -> Vec<(String, String)> {
            found
                .into_iter()
                .filter(|(_, _, unit)| unit == "count" || unit == "bytes")
                .map(|(name, value, _)| (name, value))
                .collect()
        };
        let a = counters(smoke(workload, "9", "1"));
        let b = counters(smoke(workload, "9", "1"));
        assert!(a.len() >= 10, "{workload}: too few counters: {a:?}");
        assert_eq!(a, b, "{workload}: counters differ between two processes");
    }
}

#[test]
fn unknown_flags_are_rejected_with_usage() {
    let out = perfbench(&["--workload", "variational", "--seed", "1", "--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result may be printed");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: perfbench"));
    let out = perfbench(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(2));
}
