//! The per-layer ledger: spans the benchmark records around its calls
//! into each layer's public functions, plus the counters the program
//! already exposes (`SessionStats`, `PhaseStats`, the jump-function
//! arena high-water mark and the daemon's `metrics` op).

use ipcp::core::{AnalysisOutcome, SessionPhase, SessionStats};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Every per-layer metric a traced run reports, with its unit, in the
/// order of `BENCHMARK.json`. A layer a workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Front end and rendering.
    ("lang.compile_ms", "ms"),
    ("ir.lower_ms", "ms"),
    ("ir.instrs", "count"),
    ("session.open_ms", "ms"),
    ("report.render_ms", "ms"),
    ("session.drop_ms", "ms"),
    // Cold-analysis phases.
    ("session.fingerprint_ms", "ms"),
    ("session.callgraph_ms", "ms"),
    ("session.modref_ms", "ms"),
    ("session.ssa_ms", "ms"),
    ("session.retjf_ms", "ms"),
    ("session.symvals_ms", "ms"),
    ("session.unattributed_ms", "ms"),
    // Configuration-sensitive phases.
    ("session.forward_jf_ms", "ms"),
    ("session.solve_ms", "ms"),
    ("session.subst_ms", "ms"),
    ("session.dce_ms", "ms"),
    ("session.pipeline_ms", "ms"),
    ("session.hits", "count"),
    ("session.misses", "count"),
    ("session.hit_ratio", "ratio"),
    ("column.poly_ms", "ms"),
    ("column.pass_ms", "ms"),
    ("column.intra_ms", "ms"),
    ("column.literal_ms", "ms"),
    ("column.poly_norjf_ms", "ms"),
    ("column.pass_norjf_ms", "ms"),
    ("column.poly_nomod_ms", "ms"),
    ("column.poly_mod_ms", "ms"),
    ("column.complete_ms", "ms"),
    ("column.intraproc_ms", "ms"),
    ("column.cond_ms", "ms"),
    ("column.poly_fuel_ms", "ms"),
    // Provenance (the `explain` pipeline).
    ("provenance.analyze_ms", "ms"),
    ("provenance.explain_ms", "ms"),
    // Daemon.
    ("serve.edit_ms", "ms"),
    ("serve.explain_ms", "ms"),
    ("serve.warm_ms", "ms"),
    ("serve.daemon_analyze_ms", "ms"),
    ("serve.daemon_explain_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.request_kib", "KiB"),
    ("serve.response_kib", "KiB"),
    // Memory and work counts.
    ("serve.evictions", "count"),
    ("serve.tenants_resident", "count"),
    ("jump.arena_high_water", "count"),
    ("analysis.solver_iterations", "count"),
    ("analysis.forward_jfs", "count"),
    ("analysis.return_jfs", "count"),
    ("analysis.dce_rounds", "count"),
    // The traced run itself.
    ("trace.untraced_op_p50_ms", "ms"),
    ("trace.op_p50_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.op_mean_ms", "ms"),
    ("trace.unspanned_ms", "ms"),
];

/// The session phases and the per-layer metric each one's wall time
/// lands in. `diskcache` is absent: no workload attaches a disk cache.
pub const PHASES: &[(SessionPhase, &str)] = &[
    (SessionPhase::Fingerprint, "session.fingerprint_ms"),
    (SessionPhase::CallGraph, "session.callgraph_ms"),
    (SessionPhase::ModRef, "session.modref_ms"),
    (SessionPhase::Ssa, "session.ssa_ms"),
    (SessionPhase::ReturnJf, "session.retjf_ms"),
    (SessionPhase::SymVals, "session.symvals_ms"),
    (SessionPhase::ForwardJf, "session.forward_jf_ms"),
    (SessionPhase::Solve, "session.solve_ms"),
    (SessionPhase::Subst, "session.subst_ms"),
    (SessionPhase::Dce, "session.dce_ms"),
    (SessionPhase::Pipeline, "session.pipeline_ms"),
];

/// Sums of per-layer values over the traced ops of one run.
#[derive(Debug, Default)]
pub struct Ledger {
    sums: BTreeMap<&'static str, f64>,
    ops: u64,
}

impl Ledger {
    /// Adds `value` to the metric `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        *self.sums.entry(name).or_insert(0.0) += value;
    }

    /// Adds a duration to the millisecond metric `name`.
    pub fn add_time(&mut self, name: &'static str, elapsed: Duration) {
        self.add(name, elapsed.as_secs_f64() * 1e3);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add_time(name, start.elapsed());
        out
    }

    /// Folds another ledger's sums and op count into this one.
    pub fn absorb(&mut self, other: Ledger) {
        for (name, sum) in other.sums {
            *self.sums.entry(name).or_insert(0.0) += sum;
        }
        self.ops += other.ops;
    }

    /// Counts one finished traced op.
    pub fn finish_op(&mut self) {
        self.ops += 1;
    }

    /// Records a session's phase walls and memo traffic, plus the part
    /// of `analyze_wall` — the summed wall of the `analyze` calls that
    /// produced `stats` — that no phase covers.
    pub fn session(&mut self, stats: &SessionStats, analyze_wall: Duration) {
        let mut phases = 0u128;
        for &(phase, name) in PHASES {
            let c = stats.counter(phase);
            phases += c.wall_nanos;
            self.add(name, c.wall_nanos as f64 / 1e6);
        }
        let unattributed = analyze_wall.as_nanos() as f64 - phases as f64;
        self.add("session.unattributed_ms", unattributed / 1e6);
        self.add("session.hits", stats.total_hits() as f64);
        self.add("session.misses", stats.total_misses() as f64);
    }

    /// Records the work counts of one analysis outcome.
    pub fn outcome(&mut self, outcome: &AnalysisOutcome) {
        let s = &outcome.stats;
        self.add("analysis.solver_iterations", s.solver_iterations as f64);
        self.add("analysis.forward_jfs", s.forward_jfs as f64);
        self.add("analysis.return_jfs", s.return_jfs as f64);
        self.add("analysis.dce_rounds", s.dce_rounds as f64);
    }

    /// Per-op means of every metric, with `hit_ratio` derived from them
    /// and the arena high-water mark of this process; every name of
    /// [`PER_LAYER`] is present.
    pub fn per_op(&self) -> BTreeMap<&'static str, f64> {
        let ops = self.ops.max(1) as f64;
        let mut out: BTreeMap<&'static str, f64> =
            PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect();
        for (&name, &sum) in &self.sums {
            out.insert(name, sum / ops);
        }
        let traffic = out["session.hits"] + out["session.misses"];
        if traffic > 0.0 {
            out.insert("session.hit_ratio", out["session.hits"] / traffic);
        }
        out.insert(
            "jump.arena_high_water",
            ipcp::core::arena_high_water() as f64,
        );
        out
    }
}

/// The per-op values of the layers that partition an in-process op's
/// wall time, summed: everything the op does that some span covers.
pub fn layer_sum(per_op: &BTreeMap<&'static str, f64>) -> f64 {
    LAYER_PARTITION.iter().map(|name| per_op[name]).sum()
}

/// The span and phase metrics that together cover an in-process op:
/// front end, session open, the phases plus their unattributed
/// remainder, rendering and teardown.
const LAYER_PARTITION: &[&str] = &[
    "lang.compile_ms",
    "ir.lower_ms",
    "session.open_ms",
    "session.fingerprint_ms",
    "session.callgraph_ms",
    "session.modref_ms",
    "session.ssa_ms",
    "session.retjf_ms",
    "session.symvals_ms",
    "session.forward_jf_ms",
    "session.solve_ms",
    "session.subst_ms",
    "session.dce_ms",
    "session.pipeline_ms",
    "session.unattributed_ms",
    "report.render_ms",
    "session.drop_ms",
];
