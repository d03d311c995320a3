//! Tiny-size smoke runs of the benchmark binary: every workload runs
//! correctly, and its result line carries exactly the metrics
//! `BENCHMARK.json` names, in its order.

use ipcp::core::obs::{parse_json, Json};
use std::process::Command;

fn benchmark_names(key: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc = parse_json(&text).expect("valid JSON");
    doc.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Runs one workload and returns its parsed result line.
fn run(workload: &str, trace: &str, extra: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--trace", trace])
        .args(extra)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = parse_json(stdout.lines().last().expect("a result line")).expect("JSON result line");
    assert!(
        matches!(doc.get("correct"), Some(Json::Bool(true))),
        "{stdout}"
    );
    assert_eq!(
        doc.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{stdout}"
    );
    assert!(doc.get("attempted").and_then(Json::as_f64).unwrap() >= 11.0);
    doc
}

fn metric(doc: &Json, name: &str) -> f64 {
    doc.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no metric {name}"))
}

fn names(doc: &Json) -> Vec<String> {
    match doc.get("metrics") {
        Some(Json::Object(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
        _ => panic!("no metrics object"),
    }
}

#[test]
fn scale_cold_smoke_and_layers_partition_the_op() {
    let small = ["--procs", "200", "--seconds", "1"];
    let plain = run("scale-cold", "0", &small);
    assert_eq!(names(&plain), benchmark_names("end_to_end"));
    assert!(metric(&plain, "op_tail_ms") >= metric(&plain, "op_p50_ms"));
    let traced = run("scale-cold", "1", &small);
    assert_eq!(names(&traced), benchmark_names("per_layer"));
    // The named layers plus the unattributed remainder cover the op.
    let unspanned = metric(&traced, "trace.unspanned_ms").abs();
    assert!(
        unspanned < 0.05 * metric(&traced, "trace.op_mean_ms"),
        "{unspanned}"
    );
    assert!(metric(&traced, "session.misses") > 0.0);
    assert!(metric(&traced, "lang.compile_ms") > 0.0);
}

#[test]
fn serve_edit_smoke_evicts_and_measures_the_daemon() {
    let small = ["--procs", "200", "--seconds", "2"];
    let plain = run("serve-edit", "0", &small);
    assert_eq!(names(&plain), benchmark_names("end_to_end"));
    let traced = run("serve-edit", "1", &small);
    assert!(metric(&traced, "serve.evictions") > 0.0);
    assert!(metric(&traced, "serve.daemon_analyze_ms") > 0.0);
    assert!(metric(&traced, "provenance.analyze_ms") > 0.0);
    assert!(metric(&traced, "serve.request_kib") > 0.0);
}
