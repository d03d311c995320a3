//! `suite-tables`: one op regenerates every cell of the paper's Tables 2
//! and 3 for the twelve suite programs, plus `--level cond` and a poly
//! analysis under finite, ample fuel, each program in a fresh session
//! built from its source.

use crate::layers::Ledger;
use crate::run::{closed_loop, repeated_setup, splitmix, Failure, Measured, Opts};
use ipcp::analysis::Slot;
use ipcp::core::{AnalysisConfig, AnalysisSession, JumpFunctionKind};
use ipcp::suite::{all_specs, generate, paper_row, PaperRow};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Fuel of the metered column: finite, so the run takes the metered
/// reference pipeline, and far more than any suite program consumes.
const AMPLE_FUEL: u64 = 1 << 40;

/// |measured − paper| tolerance of a cell, as in `tests/suite_shapes.rs`.
pub const TIGHT: usize = 2;

/// The one documented loose cell of `tests/suite_shapes.rs`: `ocean`
/// without MOD information.
const OCEAN_NO_MOD: usize = 20;

/// One analysed configuration of the op.
pub struct Column {
    /// The configuration's `column.<name>_ms` metric.
    pub metric: &'static str,
    /// The analysis configuration.
    pub config: AnalysisConfig,
    /// The paper's cell for this column, if the paper has one.
    pub paper: Option<fn(&PaperRow) -> usize>,
}

/// Column indices the correctness checks name.
const POLY: usize = 0;
const PASS: usize = 1;
const INTRA: usize = 2;
const LITERAL: usize = 3;
const POLY_NORJF: usize = 4;
const POLY_NOMOD: usize = 6;
const COMPLETE: usize = 8;
const INTRAPROC: usize = 9;
const COND: usize = 10;
const POLY_FUEL: usize = 11;

/// The ten paper columns (Table 2, then Table 3), `cond`, and the
/// ample-fuel poly run, at `jobs` workers.
pub fn columns(jobs: usize) -> Vec<Column> {
    let base = AnalysisConfig {
        jobs,
        ..AnalysisConfig::default()
    };
    let kind = |jump_function| AnalysisConfig {
        jump_function,
        ..base
    };
    let col = |metric, config, paper| Column {
        metric,
        config,
        paper,
    };
    vec![
        col("column.poly_ms", base, Some(|p: &PaperRow| p.poly)),
        col(
            "column.pass_ms",
            kind(JumpFunctionKind::PassThrough),
            Some(|p: &PaperRow| p.pass_through),
        ),
        col(
            "column.intra_ms",
            kind(JumpFunctionKind::IntraproceduralConstant),
            Some(|p: &PaperRow| p.intraprocedural),
        ),
        col(
            "column.literal_ms",
            kind(JumpFunctionKind::Literal),
            Some(|p: &PaperRow| p.literal),
        ),
        col(
            "column.poly_norjf_ms",
            AnalysisConfig {
                return_jump_functions: false,
                ..base
            },
            Some(|p: &PaperRow| p.poly_no_rjf),
        ),
        col(
            "column.pass_norjf_ms",
            AnalysisConfig {
                return_jump_functions: false,
                ..kind(JumpFunctionKind::PassThrough)
            },
            Some(|p: &PaperRow| p.pass_through_no_rjf),
        ),
        col(
            "column.poly_nomod_ms",
            AnalysisConfig {
                mod_info: false,
                ..base
            },
            Some(|p: &PaperRow| p.poly_no_mod),
        ),
        // Table 3's "with MOD" column is Table 2's poly cell again; the
        // session answers it from its memo.
        col("column.poly_mod_ms", base, Some(|p: &PaperRow| p.poly)),
        col(
            "column.complete_ms",
            AnalysisConfig {
                complete_propagation: true,
                ..base
            },
            Some(|p: &PaperRow| p.complete),
        ),
        col(
            "column.intraproc_ms",
            AnalysisConfig {
                jobs,
                ..AnalysisConfig::intraprocedural_baseline()
            },
            Some(|p: &PaperRow| p.intraprocedural_only),
        ),
        col(
            "column.cond_ms",
            AnalysisConfig {
                jobs,
                ..AnalysisConfig::conditional()
            },
            None,
        ),
        col(
            "column.poly_fuel_ms",
            AnalysisConfig {
                fuel: Some(AMPLE_FUEL),
                ..base
            },
            None,
        ),
    ]
}

/// What one program's analyses produced, kept past the op for checking.
#[derive(Debug, Clone)]
pub struct Cells {
    /// Suite program name.
    pub name: String,
    /// Substitution total per column.
    pub totals: Vec<usize>,
    /// `CONSTANTS` per procedure under poly, cond and ample fuel.
    pub poly: Vec<BTreeMap<Slot, i64>>,
    pub cond: Vec<BTreeMap<Slot, i64>>,
    pub fuel: Vec<BTreeMap<Slot, i64>>,
    /// Whether the ample-fuel run ran out of fuel.
    pub fuel_exhausted: bool,
}

/// Analyses one program under every column in a fresh session.
fn analyse(
    name: &str,
    source: &str,
    columns: &[Column],
    ledger: &mut Option<&mut Ledger>,
) -> Result<Cells, String> {
    let program = match ledger {
        Some(l) => {
            let checked = l.span("lang.compile_ms", || ipcp::lang::compile(source));
            let checked = checked.map_err(|e| e.render(source))?;
            l.span("ir.lower_ms", || ipcp::ir::lower::lower(&checked))
        }
        None => ipcp::ir::compile_to_ir(source).map_err(|e| e.render(source))?,
    };
    let session = match ledger {
        Some(l) => l.span("session.open_ms", || AnalysisSession::new(&program)),
        None => AnalysisSession::new(&program),
    };
    let mut outcomes = Vec::with_capacity(columns.len());
    let mut analyze_wall = Duration::ZERO;
    for col in columns {
        let start = Instant::now();
        let outcome = session.analyze(&col.config);
        if let Some(l) = ledger {
            let wall = start.elapsed();
            analyze_wall += wall;
            l.add_time(col.metric, wall);
            l.outcome(&outcome);
        }
        outcomes.push(outcome);
    }
    let mut take = |i: usize| std::mem::take(&mut outcomes[i].constants);
    let (poly, cond, fuel) = (take(POLY), take(COND), take(POLY_FUEL));
    let cells = Cells {
        name: name.to_string(),
        totals: outcomes.iter().map(|o| o.substitutions.total).collect(),
        poly,
        cond,
        fuel,
        fuel_exhausted: outcomes[POLY_FUEL].robustness.exhausted,
    };
    match ledger {
        Some(l) => {
            l.add("ir.instrs", instr_count(&program) as f64);
            l.session(&session.stats(), analyze_wall);
            l.span("session.drop_ms", || drop((session, outcomes, program)));
        }
        None => drop((session, outcomes, program)),
    }
    Ok(cells)
}

/// IR instructions (terminators included) of a program.
pub fn instr_count(program: &ipcp::ir::Program) -> usize {
    program
        .procs
        .iter()
        .map(|p| p.blocks.iter().map(|b| b.instrs.len() + 1).sum::<usize>())
        .sum()
}

/// Checks one program's cells against the paper and the required
/// properties. `paper` gives the published cells of each column.
pub fn check(cells: &Cells, columns: &[Column], paper: &PaperRow) -> Result<(), String> {
    let name = &cells.name;
    let t = &cells.totals;
    for (col, &measured) in columns.iter().zip(t) {
        let Some(cell) = col.paper else { continue };
        let published = cell(paper);
        let tolerance = if name == "ocean" && col.metric == "column.poly_nomod_ms" {
            OCEAN_NO_MOD
        } else {
            TIGHT
        };
        if measured.abs_diff(published) > tolerance {
            return Err(format!(
                "{name}: {} = {measured}, paper {published} (tolerance {tolerance})",
                col.metric
            ));
        }
    }
    let ordered = [
        ("literal <= intra", t[LITERAL] <= t[INTRA]),
        ("intra <= pass", t[INTRA] <= t[PASS]),
        ("pass <= poly", t[PASS] <= t[POLY]),
        ("no-RJF <= poly", t[POLY_NORJF] <= t[POLY]),
        ("no-MOD <= poly", t[POLY_NOMOD] <= t[POLY]),
        ("intraprocedural <= poly", t[INTRAPROC] <= t[POLY]),
        ("poly <= complete", t[POLY] <= t[COMPLETE]),
    ];
    for (rule, holds) in ordered {
        if !holds {
            return Err(format!("{name}: precision order `{rule}` broken: {t:?}"));
        }
    }
    for (p, cond) in cells.cond.iter().enumerate() {
        if cond.is_empty() {
            continue;
        }
        let poly = cells.poly.get(p).map(|m| m.iter()).into_iter().flatten();
        for (slot, value) in poly {
            if cond.get(slot) != Some(value) {
                return Err(format!(
                    "{name}: procedure #{p} keeps constants under cond but not poly's {slot:?} = {value}"
                ));
            }
        }
    }
    if cells.fuel_exhausted {
        return Err(format!("{name}: the ample-fuel run ran out of fuel"));
    }
    if t[POLY_FUEL] != t[POLY] || cells.fuel != cells.poly {
        return Err(format!(
            "{name}: ample-fuel run ({} substitutions) differs from unmetered poly ({})",
            t[POLY_FUEL], t[POLY]
        ));
    }
    Ok(())
}

/// The suite programs' names and sources. The suite is the paper's and
/// fixed; the seed only sets the order an op analyses the programs in.
fn suite_sources(seed: u64) -> Vec<(String, String)> {
    let mut sources: Vec<(String, String)> = all_specs()
        .iter()
        .map(|spec| {
            let g = generate(spec);
            (g.name, g.source)
        })
        .collect();
    for i in (1..sources.len()).rev() {
        let j = (splitmix(seed ^ splitmix(i as u64)) % (i as u64 + 1)) as usize;
        sources.swap(i, j);
    }
    sources
}

/// One op: every program's cells, checked.
fn op(
    sources: &[(String, String)],
    columns: &[Column],
    mut ledger: Option<&mut Ledger>,
) -> Result<Duration, Failure> {
    let start = Instant::now();
    let mut all = Vec::with_capacity(sources.len());
    for (name, source) in sources {
        all.push(analyse(name, source, columns, &mut ledger).map_err(Failure::Error)?);
    }
    let wall = start.elapsed();
    for cells in &all {
        let paper = paper_row(&cells.name)
            .ok_or_else(|| Failure::Incorrect(format!("no paper row for {}", cells.name)))?;
        check(cells, columns, paper).map_err(Failure::Incorrect)?;
    }
    Ok(wall)
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<Measured, String> {
    let columns = columns(opts.jobs);
    let (sources, setup_s) = repeated_setup(|| {
        let sources = suite_sources(opts.seed);
        op(&sources, &columns, None).map_err(|f| format!("warm-up op: {f}"))?;
        Ok(sources)
    })?;
    let mut ledger = Ledger::default();
    let (samples, window_s, cpu_ms) =
        closed_loop(opts, &mut ledger, |_, l| op(&sources, &columns, l))?;
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

    fn cells_of(name: &str) -> Cells {
        let spec = ipcp::suite::spec(name).expect("suite program");
        let g = generate(&spec);
        analyse(name, &g.source, &columns(1), &mut None).expect("analyses")
    }

    #[test]
    fn accepts_the_analyzer_and_rejects_a_cell_outside_tolerance() {
        let cols = columns(1);
        let paper = paper_row("ocean").unwrap();
        let mut cells = cells_of("ocean");
        check(&cells, &cols, paper).expect("measured cells pass");
        cells.totals[PASS] = paper.pass_through + TIGHT + 1;
        assert!(check(&cells, &cols, paper)
            .unwrap_err()
            .contains("column.pass_ms"));
    }

    #[test]
    fn smoke_one_traced_op_checks_every_program() {
        let mut ledger = Ledger::default();
        op(&suite_sources(1), &columns(1), Some(&mut ledger)).expect("a correct op");
        ledger.finish_op();
        let per_op = ledger.per_op();
        for col in columns(1) {
            assert!(per_op[col.metric] > 0.0, "{}", col.metric);
        }
        assert!(per_op["session.pipeline_ms"] > 0.0);
        assert!(per_op["session.hit_ratio"] > 0.0);
    }

    #[test]
    fn rejects_a_broken_order_and_a_cond_loss() {
        let cols = columns(1);
        let paper = paper_row("ocean").unwrap();
        let good = cells_of("ocean");
        let mut fuel = good.clone();
        fuel.fuel_exhausted = true;
        assert!(check(&fuel, &cols, paper).is_err());
        let mut cond = good.clone();
        let p = cond
            .cond
            .iter()
            .position(|m| !m.is_empty())
            .expect("a cond constant");
        let slot = *cond.poly[p].keys().next().expect("poly constant too");
        *cond.cond[p].get_mut(&slot).unwrap() += 1;
        assert!(check(&cond, &cols, paper).unwrap_err().contains("cond"));
    }
}
