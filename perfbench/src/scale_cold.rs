//! `scale-cold`: one op is what `ipcp analyze` does for a generated
//! scale program — compile, open a session, analyze at poly level and
//! render — with all of the op's state dropped inside the op.

use crate::layers::Ledger;
use crate::run::{closed_loop, repeated_setup, Failure, Measured, Opts};
use ipcp::core::{AnalysisConfig, AnalysisSession};
use ipcp::suite::{generate_scale, ScaleSpec};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The scale program of a run: `opts.procs` procedures from `opts.seed`.
pub fn scale_source(opts: &Opts) -> String {
    generate_scale(&ScaleSpec::with_procs(opts.procs, opts.seed)).source
}

/// A fan-out hub's call of a leaf: the literal the leaf's `p` receives.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The leaf procedure.
    pub leaf: String,
    /// Byte range of the literal argument in the source.
    pub literal: std::ops::Range<usize>,
    /// The literal's value.
    pub value: i64,
}

/// The constants the generated source implies, read from the source
/// text alone: each leaf's `p` is the literal at its one call site, and
/// every global a leaf or reader prints holds the value `sinit` assigns.
#[derive(Debug, Clone, Default)]
pub struct Expected {
    /// `(procedure, slot, value)` triples the report must contain.
    pub constants: Vec<(String, String, i64)>,
    /// Every hub call site, in source order.
    pub calls: Vec<CallSite>,
}

/// Reads [`Expected`] from a `generate_scale` source.
pub fn expected(source: &str) -> Result<Expected, String> {
    let mut inits: HashMap<&str, i64> = HashMap::new();
    let mut prints: Vec<(&str, Vec<&str>)> = Vec::new();
    let mut calls = Vec::new();
    let mut current: Option<&str> = None;
    let mut offset = 0;
    for line in source.split_inclusive('\n') {
        let start = offset;
        offset += line.len();
        let line = line.trim_end();
        if line == "main" {
            current = None;
            continue;
        }
        if let Some(head) = line.strip_prefix("proc ") {
            current = head.split('(').next();
            continue;
        }
        let Some(proc) = current else { continue };
        let body = line.trim_start();
        if proc == "sinit" {
            if let Some((global, value)) = body.split_once(" = ") {
                inits.insert(global, parse_int(value)?);
            }
        } else if let Some(args) = body.strip_prefix("print(") {
            let globals = args
                .trim_end_matches(')')
                .split(" + ")
                .filter(|term| term.starts_with("gs"))
                .collect();
            prints.push((proc, globals));
        } else if let Some(call) = body.strip_prefix("call fl") {
            let (leaf, arg) = call
                .split_once('(')
                .ok_or_else(|| format!("malformed call `{body}`"))?;
            let arg = arg.trim_end_matches(')');
            let at = start + line.len() - 1 - arg.len();
            calls.push(CallSite {
                leaf: format!("fl{leaf}"),
                literal: at..at + arg.len(),
                value: parse_int(arg)?,
            });
        }
    }
    let mut constants = Vec::new();
    for call in &calls {
        constants.push((call.leaf.clone(), "p".to_string(), call.value));
    }
    for (proc, globals) in prints {
        if !(proc.starts_with("fl") || proc.starts_with("rdr")) {
            continue;
        }
        for g in globals {
            let value = *inits
                .get(g)
                .ok_or_else(|| format!("`{g}` has no initializer"))?;
            constants.push((proc.to_string(), g.to_string(), value));
        }
    }
    let mut leaves: Vec<&str> = calls.iter().map(|c| c.leaf.as_str()).collect();
    leaves.sort_unstable();
    if leaves.windows(2).any(|w| w[0] == w[1]) {
        return Err("a leaf has more than one call site".into());
    }
    Ok(Expected { constants, calls })
}

fn parse_int(text: &str) -> Result<i64, String> {
    text.trim()
        .parse()
        .map_err(|_| format!("`{text}` is not an integer literal"))
}

/// The `CONSTANTS(p) = { a = 1, b = 2 }` lines of an `analyze` report,
/// by procedure.
pub fn reported(report: &str) -> HashMap<&str, HashMap<&str, &str>> {
    report
        .lines()
        .filter_map(|line| {
            let rest = line.strip_prefix("CONSTANTS(")?;
            let (proc, set) = rest.split_once(") = { ")?;
            let set = set.strip_suffix(" }")?;
            let slots = set
                .split(", ")
                .filter_map(|kv| kv.split_once(" = "))
                .collect();
            Some((proc, slots))
        })
        .collect()
}

/// Checks that the report holds every expected constant.
pub fn check_report(report: &str, expected: &Expected) -> Result<(), String> {
    let reported = reported(report);
    for (proc, slot, value) in &expected.constants {
        let got = reported
            .get(proc.as_str())
            .and_then(|set| set.get(slot.as_str()));
        if got.and_then(|v| v.parse::<i64>().ok()) != Some(*value) {
            return Err(format!("{proc}.{slot}: expected {value}, reported {got:?}"));
        }
    }
    Ok(())
}

/// What `ipcp analyze` does for `source`, dropping all state but the
/// rendered report before it returns. With a ledger, every layer call
/// is spanned; the front end then runs as its two public halves.
pub fn analyze_op(
    source: &str,
    config: &AnalysisConfig,
    ledger: Option<&mut Ledger>,
) -> Result<String, String> {
    let Some(l) = ledger else {
        let program = ipcp::ir::compile_to_ir(source).map_err(|e| e.render(source))?;
        let session = AnalysisSession::new(&program);
        let outcome = session.analyze(config);
        let report = ipcp::core::report::analyze_to_string(&outcome);
        drop((outcome, session, program));
        return Ok(report);
    };
    let checked = l.span("lang.compile_ms", || ipcp::lang::compile(source));
    let checked = checked.map_err(|e| e.render(source))?;
    // `compile_to_ir` drops the checked program inside itself.
    let program = l.span("ir.lower_ms", || {
        let program = ipcp::ir::lower::lower(&checked);
        drop(checked);
        program
    });
    let session = l.span("session.open_ms", || AnalysisSession::new(&program));
    let start = Instant::now();
    let outcome = session.analyze(config);
    let analyze_wall = start.elapsed();
    let report = l.span("report.render_ms", || {
        ipcp::core::report::analyze_to_string(&outcome)
    });
    l.add(
        "ir.instrs",
        crate::suite_tables::instr_count(&program) as f64,
    );
    l.session(&session.stats(), analyze_wall);
    l.outcome(&outcome);
    l.span("session.drop_ms", || drop((outcome, session, program)));
    Ok(report)
}

/// The poly-level configuration of `ipcp analyze` at `jobs` workers.
pub fn poly(jobs: usize) -> AnalysisConfig {
    AnalysisConfig {
        jobs,
        ..AnalysisConfig::default()
    }
}

fn op(
    source: &str,
    expected: &Expected,
    config: &AnalysisConfig,
    ledger: Option<&mut Ledger>,
) -> Result<Duration, Failure> {
    let start = Instant::now();
    let report = analyze_op(source, config, ledger).map_err(Failure::Error)?;
    let wall = start.elapsed();
    check_report(&report, expected).map_err(Failure::Incorrect)?;
    Ok(wall)
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<Measured, String> {
    let config = poly(opts.jobs);
    let ((source, expected), setup_s) = repeated_setup(|| {
        let source = scale_source(opts);
        let expected = expected(&source)?;
        op(&source, &expected, &config, None).map_err(|f| format!("warm-up op: {f}"))?;
        Ok((source, expected))
    })?;
    let mut ledger = Ledger::default();
    let (samples, window_s, cpu_ms) =
        closed_loop(opts, &mut ledger, |_, l| op(&source, &expected, &config, l))?;
    Ok(Measured {
        setup_s,
        samples,
        window_s,
        cpu_ms,
        peak_rss_kib: crate::procfs::peak_rss_kib(std::process::id())?,
        layers: ledger.per_op(),
        partitioned: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> String {
        generate_scale(&ScaleSpec::with_procs(300, 5)).source
    }

    #[test]
    fn expected_constants_come_from_the_source() {
        let source = small();
        let exp = expected(&source).unwrap();
        assert!(!exp.calls.is_empty());
        for call in &exp.calls {
            assert_eq!(
                source[call.literal.clone()].parse::<i64>().unwrap(),
                call.value
            );
        }
        assert!(exp.constants.iter().any(|(p, _, _)| p.starts_with("rdr")));
    }

    #[test]
    fn accepts_the_analyzer_and_rejects_a_wrong_leaf_constant() {
        let source = small();
        let exp = expected(&source).unwrap();
        let report = analyze_op(&source, &poly(1), None).unwrap();
        check_report(&report, &exp).expect("analyzer output passes");
        let call = &exp.calls[0];
        let good = format!("CONSTANTS({}) = {{ p = {}", call.leaf, call.value);
        let bad = format!("CONSTANTS({}) = {{ p = {}", call.leaf, call.value + 1);
        assert!(report.contains(&good));
        let corrupted = report.replace(&good, &bad);
        let err = check_report(&corrupted, &exp).unwrap_err();
        assert!(err.contains(&format!("{}.p", call.leaf)), "{err}");
    }
}
