//! Figure 1: the motivation experiments of §3.
//!
//! Four configurations per application (each application instance uses two
//! processors; there is never processor sharing in these runs):
//!
//! * **1 Appl** — the instance alone (black bars);
//! * **2 Apps** — two instances (dark gray);
//! * **1 Appl + 2 BBMA** — one instance + two saturating microbenchmarks
//!   (light gray);
//! * **1 Appl + 2 nBBMA** — one instance + two bus-idle microbenchmarks
//!   (white/striped).
//!
//! Figure 1A reports cumulative bus transaction rates; Figure 1B the
//! slowdown relative to the solo run (arithmetic mean over instances).
//! Both panels *declare the same 44 cells*, so on a shared plan (the
//! `all` command) the runs execute once and the panels fold different
//! quantities from the same results.

use busbw_metrics::{ExperimentRow, FigureSummary};
use busbw_workloads::mix::{
    fig1_solo, fig1_two_instances, fig1_with_bbma, fig1_with_nbbma, WorkloadSpec,
};
use busbw_workloads::paper::PaperApp;

use crate::jobgraph::{CellId, Executed, Plan, RunRequest, Workload};
use crate::runner::{PolicyKind, RunResult, RunnerConfig};

/// The four per-application configurations, in legend order.
fn fig1_configs(app: PaperApp) -> [WorkloadSpec; 4] {
    [
        fig1_solo(app),
        fig1_two_instances(app),
        fig1_with_bbma(app),
        fig1_with_nbbma(app),
    ]
}

/// Cell handles for both Figure 1 panels: apps in `PaperApp::ALL` order,
/// four configurations each, every run under the Linux baseline.
#[derive(Debug)]
pub struct Fig1Cells {
    cells: Vec<CellId>,
}

/// Declare the 44 Figure-1 cells (shared by both panels).
pub fn plan_fig1(plan: &mut Plan, rc: &RunnerConfig) -> Fig1Cells {
    let cells = PaperApp::ALL
        .iter()
        .flat_map(|&app| fig1_configs(app))
        .map(Workload::new)
        .map(|w| plan.cell(RunRequest::spec(&w, PolicyKind::Linux, rc)))
        .collect();
    Fig1Cells { cells }
}

/// The per-job results in declaration order (for trace merging/metrics).
pub fn fig1_results(cells: &Fig1Cells, executed: &Executed) -> Vec<RunResult> {
    cells
        .cells
        .iter()
        .map(|&id| executed.get(id).clone())
        .collect()
}

/// Fold Figure 1A (cumulative bus transaction rates).
pub fn fold_fig1a(cells: &Fig1Cells, executed: &Executed) -> FigureSummary {
    let rows = PaperApp::ALL
        .iter()
        .zip(cells.cells.chunks_exact(4))
        .map(|(&app, ids)| {
            let r: Vec<&RunResult> = ids.iter().map(|&id| executed.get(id)).collect();
            ExperimentRow {
                app: app.name().to_string(),
                values: vec![
                    ("1 Appl".into(), r[0].measured_apps_rate),
                    ("2 Apps".into(), r[1].measured_apps_rate),
                    ("1 Appl + 2 BBMA".into(), r[2].workload_rate),
                    ("1 Appl + 2 nBBMA".into(), r[3].workload_rate),
                ],
            }
        })
        .collect();
    FigureSummary {
        id: "fig1a".into(),
        title: "Cumulative bus transactions rate (tx/µs)".into(),
        rows,
    }
}

/// Fold Figure 1B (slowdowns of the three multiprogrammed configurations
/// relative to solo execution).
pub fn fold_fig1b(cells: &Fig1Cells, executed: &Executed) -> FigureSummary {
    let rows = PaperApp::ALL
        .iter()
        .zip(cells.cells.chunks_exact(4))
        .map(|(&app, ids)| {
            let r: Vec<&RunResult> = ids.iter().map(|&id| executed.get(id)).collect();
            let solo = r[0].mean_turnaround_us;
            ExperimentRow {
                app: app.name().to_string(),
                values: vec![
                    ("2 Apps".into(), r[1].mean_turnaround_us / solo),
                    ("1 Appl + 2 BBMA".into(), r[2].mean_turnaround_us / solo),
                    ("1 Appl + 2 nBBMA".into(), r[3].mean_turnaround_us / solo),
                ],
            }
        })
        .collect();
    FigureSummary {
        id: "fig1b".into(),
        title: "Slowdown vs. solo execution".into(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_spec, solo_turnaround_us};

    /// One reduced-size end-to-end check of the Figure 1 shapes. The full
    /// figure is exercised by the `experiments` binary and the benches.
    #[test]
    fn fig1_shapes_hold_for_representative_apps() {
        let rc = RunnerConfig::quick();
        // Light app: BBMA hurts a little, nBBMA not at all.
        let solo_l = solo_turnaround_us(PaperApp::Volrend, &rc);
        let l_bbma = run_spec(&fig1_with_bbma(PaperApp::Volrend), PolicyKind::Linux, &rc);
        let l_nbbma = run_spec(&fig1_with_nbbma(PaperApp::Volrend), PolicyKind::Linux, &rc);
        let s_bbma = l_bbma.mean_turnaround_us / solo_l;
        let s_nbbma = l_nbbma.mean_turnaround_us / solo_l;
        assert!(
            (1.0..1.6).contains(&s_bbma),
            "Volrend+BBMA slowdown {s_bbma}"
        );
        assert!(
            (0.97..1.1).contains(&s_nbbma),
            "Volrend+nBBMA slowdown {s_nbbma}"
        );

        // Heavy app: BBMA causes a 2–3× slowdown (the paper's headline).
        let solo_h = solo_turnaround_us(PaperApp::Cg, &rc);
        let h_bbma = run_spec(&fig1_with_bbma(PaperApp::Cg), PolicyKind::Linux, &rc);
        let s_h = h_bbma.mean_turnaround_us / solo_h;
        assert!((1.8..3.2).contains(&s_h), "CG+BBMA slowdown {s_h}");
    }

    #[test]
    fn both_panels_share_one_cell_set_on_a_common_plan() {
        let rc = RunnerConfig::quick();
        let mut plan = Plan::new();
        let a = plan_fig1(&mut plan, &rc);
        let unique_after_a = plan.len();
        let b = plan_fig1(&mut plan, &rc);
        assert_eq!(plan.len(), unique_after_a, "1B adds no new cells");
        assert_eq!(a.cells, b.cells);
        assert_eq!(unique_after_a, PaperApp::ALL.len() * 4);
    }
}
