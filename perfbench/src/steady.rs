//! The steadiness check: each workload runs several times, each run in
//! its own child process with its own seed, and each end-to-end metric's
//! spread between runs is held to its bound in `BENCHMARK.json`.

use crate::run::{Opts, END_TO_END};
use crate::stats;
use ipcp::core::obs::{parse_json, Json};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// The end-to-end bounds of `BENCHMARK.json` in the working directory.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json in the working directory: {e}"))?;
    let doc = parse_json(&text)?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no `end_to_end` list")?;
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, bound) {
                (Some(n), Some(b)) => Ok((n.to_string(), b)),
                _ => Err("an `end_to_end` entry lacks `name` or `bound`".to_string()),
            }
        })
        .collect()
}

/// One child run's result line.
struct RunResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

fn run_child(workload: &str, seed: u64, opts: &Opts) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no executable path: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--procs", &opts.procs.to_string()])
        .args(["--jobs", &opts.jobs.to_string()])
        .args(["--trace", "0"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    // Echo each run's report; the summary below replaces its JSON line.
    for line in stdout.lines().filter(|l| !l.starts_with('{')) {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}",
            output.status
        ));
    }
    let last = stdout.lines().last().ok_or("no result line")?;
    let doc = parse_json(last)?;
    let number = |key: &str| {
        doc.get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("no `{key}`"))
    };
    let mut metrics = BTreeMap::new();
    if let Some(Json::Object(fields)) = doc.get("metrics") {
        for (name, m) in fields {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("metric without value")?;
            metrics.insert(name.clone(), value);
        }
    }
    Ok(RunResult {
        correct: matches!(doc.get("correct"), Some(Json::Bool(true))),
        attempted: number("attempted")?,
        failed: number("failed")?,
        metrics,
    })
}

/// Runs every workload `runs` times and reports each end-to-end
/// metric's median and quartiles. Returns whether every run was correct,
/// the failed share was the same in every run of a workload, and every
/// spread but `setup_s`'s stayed within its bound.
pub fn check(workloads: &[&str], runs: usize, opts: &Opts) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut steady = true;
    let mut summary = String::new();
    for &workload in workloads {
        let mut results = Vec::with_capacity(runs);
        for i in 0..runs as u64 {
            results.push(run_child(workload, opts.seed + i, opts)?);
        }
        let shares: Vec<f64> = results.iter().map(|r| r.failed / r.attempted).collect();
        let attempted: Vec<String> = results
            .iter()
            .map(|r| format!("{}/{}", r.failed, r.attempted))
            .collect();
        summary.push_str(&format!(
            "\n{workload}: {runs} runs, seeds {}..={}, failed/attempted {}\n",
            opts.seed,
            opts.seed + runs as u64 - 1,
            attempted.join(" ")
        ));
        if results.iter().any(|r| !r.correct) {
            summary.push_str("  INCORRECT output in some run\n");
            steady = false;
        }
        if shares.iter().any(|&s| s != shares[0]) {
            summary.push_str("  the failed share differs between runs\n");
            steady = false;
        }
        summary.push_str(&format!(
            "  {:<14} {:>12} {:>12} {:>12} {:>8} {:>7}\n",
            "metric", "median", "q1", "q3", "spread", "bound"
        ));
        for &(name, unit) in END_TO_END {
            let values: Vec<f64> = results
                .iter()
                .filter_map(|r| r.metrics.get(name).copied())
                .collect();
            if values.len() != results.len() {
                return Err(format!("{workload}: a run lacks `{name}`"));
            }
            let median = stats::median(&values);
            let bound = bounds
                .get(name)
                .copied()
                .ok_or(format!("no bound for `{name}`"))?;
            let (q1, q3, spread) = if values.len() >= 2 {
                let (q1, q3) = stats::quartiles(&values);
                (q1, q3, stats::spread(&values))
            } else {
                (median, median, 0.0)
            };
            let within = name == "setup_s" || spread <= bound;
            steady &= within;
            summary.push_str(&format!(
                "  {name:<14} {median:>12.4} {q1:>12.4} {q3:>12.4} {:>7.2}% {:>6.1}% {unit}{}\n",
                spread * 100.0,
                bound * 100.0,
                if within { "" } else { "  OVER BOUND" }
            ));
        }
    }
    println!("{summary}");
    println!(
        "{}",
        if steady {
            "steady: every spread within its bound"
        } else {
            "NOT STEADY"
        }
    );
    Ok(steady)
}
