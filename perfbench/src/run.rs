//! What every workload shares: options, the closed loop that times ops,
//! repeated set-up, and the end-to-end metrics and result line.

use crate::layers::{layer_sum, Ledger, PER_LAYER};
use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Whether odd ops record per-layer spans.
    pub trace: bool,
    /// Procedures per generated scale program (`scale-cold`, `serve-edit`).
    pub procs: usize,
    /// `AnalysisConfig::jobs` of every analysis, in process or in the daemon.
    pub jobs: usize,
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// SplitMix64: the benchmark's seeded choices, apart from the program's
/// own generators.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Why an op failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// The output did not pass its correctness check.
    Incorrect(String),
    /// The daemon answered with an error (including `overloaded`) or
    /// the connection broke.
    Error(String),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Incorrect(m) => write!(f, "incorrect output: {m}"),
            Failure::Error(m) => write!(f, "error: {m}"),
        }
    }
}

/// Op walls and failure counts of one timed window.
#[derive(Debug, Default)]
pub struct Samples {
    /// Walls of successful untraced ops, in ms.
    pub untraced: Vec<f64>,
    /// Walls of successful traced ops, in ms.
    pub traced: Vec<f64>,
    /// Ops started (every op runs to its end).
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// Ops whose output failed its check.
    pub incorrect: u64,
}

impl Samples {
    /// Records one finished op.
    pub fn record(&mut self, traced: bool, result: Result<Duration, Failure>) {
        self.attempted += 1;
        match result {
            Ok(wall) => {
                let ms = wall.as_secs_f64() * 1e3;
                if traced {
                    self.traced.push(ms);
                } else {
                    self.untraced.push(ms);
                }
            }
            Err(failure) => {
                self.failed += 1;
                if matches!(failure, Failure::Incorrect(_)) {
                    self.incorrect += 1;
                }
                // The first few failures explain the rest.
                if self.failed <= 3 {
                    eprintln!("op {} failed: {failure}", self.attempted - 1);
                }
            }
        }
    }

    /// Folds another client's samples into these.
    pub fn merge(&mut self, other: Samples) {
        self.untraced.extend(other.untraced);
        self.traced.extend(other.traced);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.incorrect += other.incorrect;
    }
}

/// Whether op `k` of a run records spans: every other op of a traced
/// run, so traced and untraced ops share the run's conditions.
pub fn traces_op(opts: &Opts, k: u64) -> bool {
    opts.trace && k % 2 == 1
}

/// Runs `setup` [`SETUP_REPS`] times, dropping each result before the
/// next set-up starts, and returns the last result with the median
/// set-up time in seconds.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), stats::median(&times)))
}

/// Runs `op` in a closed loop on this thread until `opts.seconds` have
/// passed, and returns the samples, the window's wall time in seconds
/// and this process's CPU time over the window in ms.
pub fn closed_loop(
    opts: &Opts,
    ledger: &mut Ledger,
    mut op: impl FnMut(u64, Option<&mut Ledger>) -> Result<Duration, Failure>,
) -> Result<(Samples, f64, f64), String> {
    let pid = std::process::id();
    let cpu_before = crate::procfs::cpu_ms(pid)?;
    let start = Instant::now();
    let mut samples = Samples::default();
    let mut k = 0u64;
    while start.elapsed().as_secs_f64() < opts.seconds {
        let traced = traces_op(opts, k);
        let result = op(k, traced.then_some(&mut *ledger));
        if traced {
            ledger.finish_op();
        }
        samples.record(traced, result);
        k += 1;
    }
    let window = start.elapsed().as_secs_f64();
    let cpu = crate::procfs::cpu_ms(pid)? - cpu_before;
    Ok((samples, window, cpu))
}

/// Everything one run of a workload measured.
#[derive(Debug)]
pub struct Measured {
    /// Median set-up time, in seconds.
    pub setup_s: f64,
    /// The timed window's op walls and failures.
    pub samples: Samples,
    /// Wall time of the timed window, in seconds.
    pub window_s: f64,
    /// CPU time of the analysing process over the window, in ms.
    pub cpu_ms: f64,
    /// Peak RSS of the analysing process, in KiB.
    pub peak_rss_kib: u64,
    /// Per-layer values per traced op (see [`Ledger::per_op`]).
    pub layers: BTreeMap<&'static str, f64>,
    /// Whether the layers partition a traced op's wall time (true for
    /// the in-process workloads).
    pub partitioned: bool,
}

/// The end-to-end metrics, in the order of `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mib", "MiB"),
];

impl Measured {
    /// The end-to-end metric values, or why the run cannot give them.
    pub fn end_to_end(&self) -> Result<Vec<(&'static str, f64)>, String> {
        let s = &self.samples;
        if s.untraced.is_empty() {
            return Err("no op succeeded".into());
        }
        let (tail, _) = stats::tail(&s.untraced).ok_or_else(|| {
            format!(
                "{} successful ops are too few for a tail percentile (need {}); run longer",
                s.untraced.len(),
                stats::TAIL_BEYOND + 1
            )
        })?;
        let attempted = s.attempted as f64;
        Ok(vec![
            ("setup_s", self.setup_s),
            ("op_p50_ms", stats::median(&s.untraced)),
            ("op_tail_ms", tail),
            ("ops_per_s", attempted / self.window_s),
            ("cpu_ms_per_op", self.cpu_ms / attempted),
            ("peak_rss_mib", self.peak_rss_kib as f64 / 1024.0),
        ])
    }

    /// The per-layer metric values, including the tracing overhead.
    pub fn per_layer(&self) -> Result<Vec<(&'static str, f64)>, String> {
        let s = &self.samples;
        if s.untraced.is_empty() || s.traced.is_empty() {
            return Err("a traced run needs a successful traced and untraced op".into());
        }
        let mut values = self.layers.clone();
        let untraced = stats::median(&s.untraced);
        let traced = stats::median(&s.traced);
        let mean = s.traced.iter().sum::<f64>() / s.traced.len() as f64;
        values.insert("trace.untraced_op_p50_ms", untraced);
        values.insert("trace.op_p50_ms", traced);
        values.insert("trace.overhead_pct", (traced / untraced - 1.0) * 100.0);
        values.insert("trace.op_mean_ms", mean);
        if self.partitioned {
            values.insert("trace.unspanned_ms", mean - layer_sum(&self.layers));
        }
        Ok(PER_LAYER
            .iter()
            .map(|&(name, _)| (name, values[name]))
            .collect())
    }

    /// The human-readable report of the run.
    pub fn render(&self, workload: &str, opts: &Opts) -> String {
        let s = &self.samples;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "workload {workload}: seed {} procs {} jobs {} window {:.1} s",
            opts.seed, opts.procs, opts.jobs, self.window_s
        );
        let _ = writeln!(out, "  ops attempted {}  failed {}", s.attempted, s.failed);
        let samples = s.untraced.len();
        match self.end_to_end() {
            Ok(metrics) => {
                for ((name, value), (_, unit)) in metrics.iter().zip(END_TO_END) {
                    let _ = write!(out, "  {name:<14} {value:>12.3} {unit}");
                    if *name == "op_p50_ms" {
                        let _ = write!(out, "  ({samples} samples)");
                    }
                    if *name == "op_tail_ms" {
                        let (_, pct) = stats::tail(&s.untraced).expect("tail exists");
                        let _ = write!(out, "  (p{pct:.1}, {} samples beyond)", stats::TAIL_BEYOND);
                    }
                    out.push('\n');
                }
            }
            Err(e) => {
                let _ = writeln!(out, "  no end-to-end metrics: {e}");
            }
        }
        if opts.trace {
            if let Ok(layers) = self.per_layer() {
                let _ = writeln!(
                    out,
                    "  per-layer ledger (mean per traced op, {} traced ops):",
                    s.traced.len()
                );
                for ((name, value), (_, unit)) in layers.iter().zip(PER_LAYER) {
                    let _ = writeln!(out, "    {name:<28} {value:>14.3} {unit}");
                }
                if self.partitioned {
                    let sum = layer_sum(&self.layers);
                    let mean = s.traced.iter().sum::<f64>() / s.traced.len() as f64;
                    let _ = writeln!(
                        out,
                        "  layers + unattributed = {sum:.3} ms of a {mean:.3} ms traced op ({:.2} %)",
                        100.0 * sum / mean
                    );
                }
            }
        }
        out
    }

    /// The result line: one JSON object with the end-to-end metrics, or
    /// with the per-layer metrics for a traced run.
    pub fn result_line(&self, opts: &Opts) -> Result<String, String> {
        let (metrics, units) = if opts.trace {
            (self.per_layer()?, PER_LAYER)
        } else {
            (self.end_to_end()?, END_TO_END)
        };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.samples.incorrect == 0,
            self.samples.attempted,
            self.samples.failed
        );
        for (i, ((name, value), (_, unit))) in metrics.iter().zip(units).enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}
