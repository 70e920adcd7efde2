//! Self-test of the benchmark: tiny-size runs of every workload must emit exactly
//! the metrics `BENCHMARK.json` names, under well-formed names, pass every output
//! check on a held-out seed, and report a deliberately failed check.
//!
//! `cargo test --release --manifest-path benchmark/Cargo.toml`

use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "paper-repro",
    "grid-campaign",
    "grid-resume",
    "observed-tuning",
];

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The `"name"` values of one array of `BENCHMARK.json` (`end_to_end`,
/// `per_layer` or `workloads`): the file's own shape, read without a JSON crate.
fn names_in(json: &str, array: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{array}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {array} array"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("the array is closed")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("the name is closed")].to_string())
        .collect()
}

fn benchmark_json() -> String {
    std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json")).expect("BENCHMARK.json")
}

/// The parsed result line of one run.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
    stdout: String,
}

fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let start = line.find(&format!("\"{key}\": ")).expect("key present") + key.len() + 4;
    let rest = &line[start..];
    &rest[..rest.find([',', '}']).expect("value ends")]
}

fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> Outcome {
    let scratch: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "selftest-{workload}-{seed}-{trace}-{}",
        extra.join("-")
    ));
    let output = Command::new(env!("CARGO_BIN_EXE_wd-benchmark"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.2", "--trace", if trace { "1" } else { "0" }])
        .args(["--size", "tiny", "--scratch"])
        .arg(&scratch)
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    assert!(
        output.status.success(),
        "{workload} exited with {}",
        output.status
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let line = stdout.lines().last().expect("a result line").to_string();
    let mut metrics = Vec::new();
    let mut rest = &line[line.find("\"metrics\": {").expect("metrics") + 12..];
    while let Some(open) = rest.find(": {\"value\": ") {
        let name = rest[..open].trim_end_matches('"');
        let name = &name[name.rfind('"').expect("name is quoted") + 1..];
        rest = &rest[open + 12..];
        let value = rest[..rest.find(',').expect("unit follows")]
            .parse()
            .expect("a number");
        metrics.push((name.to_string(), value));
    }
    Outcome {
        correct: field(&line, "correct") == "true",
        attempted: field(&line, "attempted").parse().expect("a count"),
        failed: field(&line, "failed").parse().expect("a count"),
        metrics,
        stdout,
    }
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn benchmark_json_names_are_well_formed_and_documented() {
    let json = benchmark_json();
    let metadata =
        std::fs::read_to_string(manifest_dir().join("metrics.json")).expect("metrics.json");
    for array in ["workloads", "end_to_end", "per_layer"] {
        let names = names_in(&json, array);
        assert!(!names.is_empty(), "{array} is empty");
        for name in names {
            assert!(well_formed(&name), "malformed name {name:?}");
            assert!(
                metadata.contains(&format!("\"{name}\": {{")),
                "metrics.json does not describe {name}"
            );
        }
    }
    assert_eq!(names_in(&json, "workloads"), WORKLOADS);
}

#[test]
fn tiny_runs_emit_every_named_metric_and_pass_their_checks() {
    let json = benchmark_json();
    for trace in [false, true] {
        let mut expected = names_in(&json, if trace { "per_layer" } else { "end_to_end" });
        expected.sort();
        for workload in WORKLOADS {
            let outcome = run(workload, 1, trace, &[]);
            assert!(outcome.correct && outcome.failed == 0, "{}", outcome.stdout);
            assert!(outcome.attempted > 0);
            let mut names: Vec<String> = outcome.metrics.iter().map(|(n, _)| n.clone()).collect();
            names.sort();
            assert_eq!(names, expected, "{workload} trace {trace}");
            assert!(names.iter().all(|name| well_formed(name)));
            if !trace {
                assert!(
                    outcome.metrics.iter().all(|(_, value)| *value > 0.0),
                    "{workload}: an end-to-end metric read 0\n{}",
                    outcome.stdout
                );
            }
        }
    }
}

#[test]
fn a_held_out_seed_passes_every_check() {
    for workload in WORKLOADS {
        let outcome = run(workload, 0x5eed_b0a7, false, &[]);
        assert!(outcome.correct && outcome.failed == 0, "{}", outcome.stdout);
    }
}

#[test]
fn a_failed_check_shows_up_in_the_failure_ratio() {
    for (workload, check) in [
        ("paper-repro", "study.em_optimal_on_grid"),
        ("grid-campaign", "grid.warm"),
        ("observed-tuning", "tune.export_replay"),
        ("grid-resume", "trace.accounting"),
    ] {
        let trace = check.starts_with("trace.");
        let outcome = run(workload, 3, trace, &["--sabotage", check]);
        assert!(
            !outcome.correct,
            "{workload}: sabotaged {check} still correct"
        );
        assert!(outcome.failed >= 1 && outcome.failed <= outcome.attempted);
        assert!(outcome.stdout.contains(&format!("# FAILED: {check}")));
        assert!(!outcome.stdout.contains("# failure_ratio = 0 "));
    }
}
