//! Self-test of the benchmark at smoke size: every metric named in
//! `BENCHMARK.json` is printed with a unit, the committed reference
//! passes, and a wrong reference or an impossible thread count fails.

use std::path::Path;
use std::process::{Command, Output};

const WORKLOADS: [&str; 2] = ["repro-tenth", "watch-volatile"];

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary runs")
}

fn smoke(workload: &str, trace: &str, extra: &[&str]) -> Output {
    let mut args = vec![
        "--workload",
        workload,
        "--seconds",
        "0",
        "--trace",
        trace,
        "--size",
        "smoke",
    ];
    args.extend_from_slice(extra);
    perfbench(&args)
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or("")
        .to_string()
}

/// Metric names listed under `section` (`end_to_end` or `per_layer`) in
/// the repository's `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits next to the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section is a list");
    body[..end]
        .split("\"name\":")
        .skip(1)
        .map(|s| {
            s.trim_start()
                .trim_start_matches('"')
                .split('"')
                .next()
                .expect("quoted name")
                .to_string()
        })
        .collect()
}

fn assert_prints_all(line: &str, names: &[String]) {
    assert!(line.starts_with("{\"correct\": true,"), "{line}");
    for name in names {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&key)
            .unwrap_or_else(|| panic!("{name} missing: {line}"));
        let rest = &line[at + key.len()..];
        let (value, rest) = rest
            .split_once(", \"unit\": \"")
            .expect("unit follows value");
        assert!(value.parse::<f64>().is_ok(), "{name} value {value:?}");
        let unit = rest.split('"').next().unwrap_or("");
        assert!(!unit.is_empty(), "{name} has no unit");
    }
}

#[test]
fn every_named_metric_is_printed_with_a_unit() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.iter().any(|n| n == "setup_s"));
    assert!(per_layer.len() > 40);
    for workload in WORKLOADS {
        let out = smoke(workload, "0", &[]);
        assert!(out.status.success(), "{workload}: {out:?}");
        assert_prints_all(&last_line(&out), &end_to_end);
    }
    let out = smoke("repro-tenth", "1", &[]);
    assert!(out.status.success(), "traced: {out:?}");
    assert_prints_all(&last_line(&out), &per_layer);
}

#[test]
fn a_wrong_reference_is_reported_as_a_failure() {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("wrong-reference.txt");
    std::fs::write(
        &path,
        "repro-tenth smoke 2018/0 fingerprint=0x0000000000000001\n\
         watch-volatile smoke 2018/0 state=0x0000000000000001\n",
    )
    .expect("temp dir is writable");
    let reference = path.to_str().expect("utf-8 path");
    for workload in ["repro-tenth", "watch-volatile"] {
        let out = smoke(workload, "0", &["--reference", reference]);
        assert_eq!(out.status.code(), Some(1), "{workload}: {out:?}");
        let line = last_line(&out);
        assert!(line.starts_with("{\"correct\": false,"), "{line}");
        assert!(!line.contains("\"failed\": 0,"), "{line}");
    }
}

#[test]
fn threads_above_available_parallelism_are_rejected() {
    let out = perfbench(&["--workload", "watch-volatile", "--threads", "100000"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
