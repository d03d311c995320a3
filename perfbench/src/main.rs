//! `perfbench`: the end-to-end and per-layer benchmark of the ipcp
//! analyzer, its paper-table sweep and its `serve` daemon.
//!
//! ```text
//! perfbench --workload <suite-tables|scale-cold|serve-edit> --seed N --seconds S --trace 0|1
//! perfbench [--workload all|<name>] --runs R --seed N --seconds S   # steadiness check
//! perfbench serve --socket <path> ...                              # `ipcp serve` itself
//! ```
//!
//! A single run prints a human-readable report and, as its last line,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! `--runs` runs each workload that many times, each in its own child
//! process with seeds N, N+1, ..., and fails when the spread of an
//! end-to-end metric exceeds its bound in `BENCHMARK.json`. See
//! `README.md` next to this crate.

mod layers;
mod procfs;
mod run;
mod scale_cold;
mod serve_edit;
mod stats;
mod steady;
mod suite_tables;

use run::{Measured, Opts};
use std::process::ExitCode;

/// The workloads, in the order of `BENCHMARK.json`.
pub const WORKLOADS: &[&str] = &["suite-tables", "scale-cold", "serve-edit"];

/// Runs one workload in this process.
pub fn run_workload(name: &str, opts: &Opts) -> Result<Measured, String> {
    match name {
        "suite-tables" => suite_tables::run(opts),
        "scale-cold" => scale_cold::run(opts),
        "serve-edit" => serve_edit::run(opts),
        other => Err(format!(
            "unknown workload `{other}` (one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

struct Args {
    workload: String,
    runs: usize,
    opts: Opts,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: "all".into(),
        runs: 1,
        opts: Opts {
            seed: 1,
            seconds: 30.0,
            trace: false,
            procs: 10_000,
            jobs: 1,
        },
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = || format!("bad value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--runs" => parsed.runs = value.parse().map_err(|_| bad())?,
            "--seed" => parsed.opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => parsed.opts.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                parsed.opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--procs" => parsed.opts.procs = value.parse().map_err(|_| bad())?,
            "--jobs" => parsed.opts.jobs = value.parse().map_err(|_| bad())?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let o = &parsed.opts;
    if o.seconds.is_nan() || o.seconds <= 0.0 || o.procs < 16 || o.jobs == 0 || parsed.runs == 0 {
        return Err("need --seconds > 0, --procs >= 16, --jobs >= 1 and --runs >= 1".into());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `perfbench serve ...` is `ipcp serve ...`: the daemon the
    // serve-edit workload starts, built from the same library code.
    if args.first().map(String::as_str) == Some("serve") {
        let served = ipcp::cli::parse_args(&args)
            .map_err(|e| e.to_string())
            .and_then(|cli| ipcp::cli::execute(&cli, ""));
        return match served {
            Ok(_) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let parsed = match parse_args(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if parsed.workload == "all" || parsed.runs > 1 {
        let workloads: Vec<&str> = if parsed.workload == "all" {
            WORKLOADS.to_vec()
        } else {
            vec![parsed.workload.as_str()]
        };
        return match steady::check(&workloads, parsed.runs, &parsed.opts) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let measured = match run_workload(&parsed.workload, &parsed.opts) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", parsed.workload);
            return ExitCode::FAILURE;
        }
    };
    print!("{}", measured.render(&parsed.workload, &parsed.opts));
    match measured.result_line(&parsed.opts) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", parsed.workload);
            ExitCode::FAILURE
        }
    }
}
