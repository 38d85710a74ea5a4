//! The whole-sweep plan behind `experiments all`.
//!
//! Instead of running each figure's private parallel loop back to back —
//! a barrier between every figure, and shared cells (the Figure 2C
//! Linux baselines reappear in three ablations and the baselines figure)
//! re-executed each time — `all` declares every figure's cells on **one**
//! plan and drains the deduplicated set through a single
//! [`Engine::execute`](crate::jobgraph::Engine::execute) call: one
//! work-stealing pool across the whole sweep, no inter-figure barriers,
//! every shared run executed once.
//!
//! Folding is pure and ordered, so the emitted figures are byte-identical
//! to running each figure command on its own.

use busbw_metrics::{FigureSummary, Table};

use std::ops::Range;

use crate::ablate::{
    fold_fitness, fold_quantum, fold_smt, fold_stages, fold_window, plan_fitness, plan_quantum,
    plan_smt, plan_stages, plan_window, QuantumCells, SmtCells, StageCells, WindowCells,
};
use crate::baselines::{fold_baselines, plan_baselines, BaselineCells};
use crate::dynamic::{fold_dynamic, plan_dynamic, DynamicCells};
use crate::fig1::{fold_fig1a, fold_fig1b, plan_fig1, Fig1Cells};
use crate::fig2::{fold_fig2, plan_fig2, Fig2Cells, Fig2Set};
use crate::jobgraph::{CellStats, Executed, Plan};
use crate::robustness::{fold_robustness, plan_robustness, RobustnessCells};
use crate::runner::{PolicyKind, RunnerConfig};

/// Trial count of the `robustness` figure in the full sweep.
pub const SUITE_ROBUSTNESS_TRIALS: u64 = 10;
/// Jobs per robustness trial in the full sweep.
pub const SUITE_ROBUSTNESS_JOBS: usize = 5;

/// Cell handles (plus per-figure declare/dedup accounting) for every
/// figure of the full sweep.
#[derive(Debug)]
pub struct SuiteCells {
    fig1: Fig1Cells,
    /// Shared by both Figure 1 panels — they fold one cell set.
    fig1_stats: CellStats,
    fig2: Vec<(Fig2Cells, CellStats)>,
    window: (WindowCells, CellStats),
    quantum: (QuantumCells, CellStats),
    fitness: (Fig2Cells, CellStats),
    smt: (SmtCells, CellStats),
    dynamic: (DynamicCells, CellStats),
    baselines: (BaselineCells, CellStats),
    robustness: (RobustnessCells, CellStats),
    stages: (StageCells, CellStats),
    /// Unique-cell ranges, one per emitted figure in emission order
    /// (both Figure 1 panels share the first range). A cell deduped
    /// against an earlier figure belongs to the range of the figure that
    /// first declared it.
    ranges: Vec<Range<usize>>,
}

/// One folded figure of the sweep, with the declare/dedup numbers that
/// go into its manifest.
#[derive(Debug)]
pub struct SuiteFigure {
    /// The folded figure, ready to emit.
    pub fig: FigureSummary,
    /// Cells this figure declared on the shared plan. Hits against cells
    /// another figure already declared count as `deduped`; the two
    /// Figure 1 panels share one cell set and report the same numbers.
    pub cells: CellStats,
    /// The unique cells this figure first declared, as a
    /// [`CellId`](crate::jobgraph::CellId) index range — feed it to
    /// [`Executed::merged_stage_timings`](crate::jobgraph::Executed::merged_stage_timings)
    /// for the figure's per-stage wall-time histograms.
    pub range: Range<usize>,
}

/// Where, in [`fold_suite`]'s emission order, the three Figure 2 panels
/// sit: the sweep's summary covers them and is written right after them.
const SUMMARY_PANELS: Range<usize> = 2..5;

/// One artifact that `experiments all` writes.
#[derive(Debug)]
pub enum SuiteArtifact<'a> {
    /// A folded figure of the sweep.
    Figure(&'a SuiteFigure),
    /// The [`summary_table`] over the sweep's Figure 2 panels.
    Summary(Table),
}

/// Everything `experiments all` writes, in order, from [`fold_suite`]'s
/// figures: the Figure 1 and Figure 2 panels, the summary over the
/// Figure 2 panels, then the rest of the sweep.
pub fn suite_artifacts(figs: &[SuiteFigure]) -> Vec<SuiteArtifact<'_>> {
    let summary = summary_table(figs[SUMMARY_PANELS].iter().map(|sf| &sf.fig));
    let (head, tail) = figs.split_at(SUMMARY_PANELS.end);
    head.iter()
        .map(SuiteArtifact::Figure)
        .chain([SuiteArtifact::Summary(summary)])
        .chain(tail.iter().map(SuiteArtifact::Figure))
        .collect()
}

/// The §5 headline table that `experiments summary` and `all` write as
/// `summary.txt`/`.csv`: per figure and policy, the largest, mean and
/// smallest improvement.
pub fn summary_table<'a>(figs: impl IntoIterator<Item = &'a FigureSummary>) -> Table {
    let mut t = Table::new(&["Set", "Policy", "Max impr %", "Avg impr %", "Min impr %"]);
    for fig in figs {
        for s in fig.series() {
            t.row(vec![
                fig.id.clone(),
                s.clone(),
                format!("{:.1}", fig.series_max(&s).unwrap_or(f64::NAN)),
                format!("{:.1}", fig.series_mean(&s).unwrap_or(f64::NAN)),
                format!("{:.1}", fig.series_min(&s).unwrap_or(f64::NAN)),
            ]);
        }
    }
    t
}

/// Declare every figure of the full sweep on one shared plan, in the
/// order `experiments all` emits them.
pub fn plan_suite(plan: &mut Plan, rc: &RunnerConfig) -> SuiteCells {
    let mut ranges = Vec::new();

    let mark = plan.checkpoint();
    let fig1 = plan_fig1(plan, rc);
    let fig1_stats = plan.since(mark);
    // Both Figure 1 panels fold the same cell set: one range, twice.
    ranges.push(plan.range_since(mark));
    ranges.push(plan.range_since(mark));

    let fig2 = [Fig2Set::A, Fig2Set::B, Fig2Set::C]
        .into_iter()
        .map(|set| {
            let mark = plan.checkpoint();
            let cells = plan_fig2(plan, set, &[PolicyKind::Latest, PolicyKind::Window], rc);
            ranges.push(plan.range_since(mark));
            (cells, plan.since(mark))
        })
        .collect();

    let mark = plan.checkpoint();
    let window = plan_window(plan, rc);
    let window = (window, plan.since(mark));
    ranges.push(plan.range_since(mark));

    let mark = plan.checkpoint();
    let quantum = plan_quantum(plan, rc);
    let quantum = (quantum, plan.since(mark));
    ranges.push(plan.range_since(mark));

    let mark = plan.checkpoint();
    let fitness = plan_fitness(plan, rc);
    let fitness = (fitness, plan.since(mark));
    ranges.push(plan.range_since(mark));

    let mark = plan.checkpoint();
    let smt = plan_smt(plan, rc);
    let smt = (smt, plan.since(mark));
    ranges.push(plan.range_since(mark));

    let mark = plan.checkpoint();
    let dynamic = plan_dynamic(plan, rc);
    let dynamic = (dynamic, plan.since(mark));
    ranges.push(plan.range_since(mark));

    let mark = plan.checkpoint();
    let baselines = plan_baselines(plan, rc);
    let baselines = (baselines, plan.since(mark));
    ranges.push(plan.range_since(mark));

    let mark = plan.checkpoint();
    let robustness = plan_robustness(plan, SUITE_ROBUSTNESS_TRIALS, SUITE_ROBUSTNESS_JOBS, rc);
    let robustness = (robustness, plan.since(mark));
    ranges.push(plan.range_since(mark));

    let mark = plan.checkpoint();
    let stages = plan_stages(plan, rc);
    let stages = (stages, plan.since(mark));
    ranges.push(plan.range_since(mark));

    SuiteCells {
        fig1,
        fig1_stats,
        fig2,
        window,
        quantum,
        fitness,
        smt,
        dynamic,
        baselines,
        robustness,
        stages,
        ranges,
    }
}

/// Fold every figure of the sweep from the executed cell set, in
/// emission order: `fig1a`, `fig1b`, `fig2a..c`, the ablations,
/// `dynamic`, `baselines`, `robustness`, `ablate-stages`.
pub fn fold_suite(cells: &SuiteCells, executed: &Executed) -> Vec<SuiteFigure> {
    let mut figs: Vec<(FigureSummary, CellStats)> = Vec::new();
    figs.push((fold_fig1a(&cells.fig1, executed), cells.fig1_stats));
    figs.push((fold_fig1b(&cells.fig1, executed), cells.fig1_stats));
    for (c, stats) in &cells.fig2 {
        figs.push((fold_fig2(c, executed), *stats));
    }
    figs.push((fold_window(&cells.window.0, executed), cells.window.1));
    figs.push((fold_quantum(&cells.quantum.0, executed), cells.quantum.1));
    figs.push((fold_fitness(&cells.fitness.0, executed), cells.fitness.1));
    figs.push((fold_smt(&cells.smt.0, executed), cells.smt.1));
    figs.push((fold_dynamic(&cells.dynamic.0, executed), cells.dynamic.1));
    figs.push((
        fold_baselines(&cells.baselines.0, executed),
        cells.baselines.1,
    ));
    figs.push((
        fold_robustness(&cells.robustness.0, executed),
        cells.robustness.1,
    ));
    figs.push((fold_stages(&cells.stages.0, executed), cells.stages.1));
    debug_assert_eq!(figs.len(), cells.ranges.len());
    figs.into_iter()
        .zip(cells.ranges.iter().cloned())
        .map(|((fig, cells), range)| SuiteFigure { fig, cells, range })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobgraph::Engine;
    use crate::runner::effective_workers;

    #[test]
    fn suite_plan_dedups_across_figures() {
        let rc = RunnerConfig::quick();
        let mut plan = Plan::new();
        let cells = plan_suite(&mut plan, &rc);
        assert!(
            (plan.declared() as usize) > plan.len(),
            "cross-figure sharing must dedup cells: declared {} unique {}",
            plan.declared(),
            plan.len()
        );
        // The ablations re-declare Figure 2C cells, so at least the
        // fitness ablation must report dedup.
        assert!(cells.fitness.1.deduped() > 0, "{:?}", cells.fitness.1);
        assert!(cells.baselines.1.deduped() > 0, "{:?}", cells.baselines.1);
    }

    #[test]
    fn suite_figures_match_standalone_runs() {
        // The single-plan sweep must fold byte-identical figures to the
        // per-figure entry points (spot-check two that share cells).
        let rc = RunnerConfig {
            scale: 0.02,
            ..RunnerConfig::default()
        };
        let mut plan = Plan::new();
        let cells = plan_suite(&mut plan, &rc);
        let executed = Engine::ephemeral().execute(&plan, effective_workers(&rc));
        let figs = fold_suite(&cells, &executed);
        let ids: Vec<&str> = figs.iter().map(|f| f.fig.id.as_str()).collect();
        assert_eq!(
            ids,
            [
                "fig1a",
                "fig1b",
                "fig2a",
                "fig2b",
                "fig2c",
                "ablate-window",
                "ablate-quantum",
                "ablate-fitness",
                "ablate-smt",
                "dynamic",
                "baselines",
                "robustness",
                "ablate-stages"
            ]
        );
        // Each figure's unique-cell range is attributable: the ranges
        // tile the plan without overlap.
        let mut covered = 0;
        for f in &figs {
            assert!(f.range.start <= f.range.end);
            covered = covered.max(f.range.end);
        }
        assert_eq!(covered, plan.len(), "ranges must cover the whole plan");
        // `all` writes the summary over exactly the Figure 2 panels,
        // right after them.
        let layout: Vec<String> = suite_artifacts(&figs)
            .iter()
            .take(7)
            .map(|a| match a {
                SuiteArtifact::Figure(sf) => sf.fig.id.clone(),
                SuiteArtifact::Summary(t) => format!("summary:{}", t.to_csv()),
            })
            .collect();
        let summary = summary_table(figs[2..5].iter().map(|sf| &sf.fig));
        assert_eq!(
            layout,
            [
                "fig1a".to_string(),
                "fig1b".to_string(),
                "fig2a".to_string(),
                "fig2b".to_string(),
                "fig2c".to_string(),
                format!("summary:{}", summary.to_csv()),
                "ablate-window".to_string(),
            ]
        );
        let standalone = crate::fig2::fig2(Fig2Set::C, &rc);
        assert_eq!(format!("{standalone:?}"), format!("{:?}", figs[4].fig));
        let standalone = crate::baselines::baselines(&rc);
        assert_eq!(format!("{standalone:?}"), format!("{:?}", figs[10].fig));
    }
}
