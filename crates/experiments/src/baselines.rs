//! Baseline comparison: does the paper's win survive a stronger baseline?
//!
//! The paper compares only against the Linux 2.4 scheduler. This
//! experiment reruns set C against the 2.6-class O(1) baseline (per-cpu
//! runqueues, load balancing) and against the §6 model-driven comparator,
//! all normalized to the 2.4-like baseline's turnaround.

use busbw_metrics::{improvement_pct, ExperimentRow, FigureSummary};
use busbw_workloads::paper::PaperApp;

use crate::fig2::Fig2Set;
use crate::jobgraph::{CellId, Executed, Plan, RunRequest, Workload};
use crate::runner::{PolicyKind, RunnerConfig};

const BASELINE_APPS: [PaperApp; 4] = [PaperApp::Volrend, PaperApp::Bt, PaperApp::Mg, PaperApp::Cg];
const BASELINE_POLICIES: [PolicyKind; 4] = [
    PolicyKind::LinuxO1,
    PolicyKind::Latest,
    PolicyKind::Window,
    PolicyKind::ModelDriven,
];

/// Cell handles for the baselines figure: per app, the 2.4-like baseline
/// then each comparison policy (the Linux/Latest/Window cells dedup
/// against the `fig2c` panel on a shared plan).
#[derive(Debug)]
pub struct BaselineCells {
    cells: Vec<CellId>,
}

/// Declare the baselines figure's set-C cells.
pub fn plan_baselines(plan: &mut Plan, rc: &RunnerConfig) -> BaselineCells {
    let mut cells = Vec::new();
    for app in BASELINE_APPS {
        let workload = Workload::new(Fig2Set::C.spec(app));
        cells.push(plan.cell(RunRequest::spec(&workload, PolicyKind::Linux, rc)));
        for p in BASELINE_POLICIES {
            cells.push(plan.cell(RunRequest::spec(&workload, p, rc)));
        }
    }
    BaselineCells { cells }
}

/// Fold the baselines figure.
pub fn fold_baselines(cells: &BaselineCells, executed: &Executed) -> FigureSummary {
    let per_app = 1 + BASELINE_POLICIES.len();
    let rows = BASELINE_APPS
        .iter()
        .zip(cells.cells.chunks_exact(per_app))
        .map(|(&app, ids)| {
            let linux24 = executed.get(ids[0]).mean_turnaround_us;
            ExperimentRow {
                app: app.name().to_string(),
                values: BASELINE_POLICIES
                    .iter()
                    .enumerate()
                    .map(|(i, p)| {
                        (
                            p.series_label(),
                            improvement_pct(linux24, executed.get(ids[i + 1]).mean_turnaround_us),
                        )
                    })
                    .collect(),
            }
        })
        .collect();
    FigureSummary {
        id: "baselines".into(),
        title: "Set C improvement % over the 2.4-like baseline".into(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobgraph::run_figure;
    use crate::runner::run_spec;

    #[test]
    fn baseline_comparison_produces_all_series() {
        let rc = RunnerConfig::quick();
        let fig = run_figure(&rc, |p| plan_baselines(p, &rc), fold_baselines);
        assert_eq!(fig.rows.len(), 4);
        assert_eq!(
            fig.series(),
            vec!["LinuxO1", "Latest", "Window", "ModelDriven"]
        );
        for row in &fig.rows {
            for (_, v) in &row.values {
                assert!(v.is_finite(), "{}: {v}", row.app);
            }
        }
    }

    #[test]
    fn policies_also_beat_the_o1_baseline_on_heavy_apps() {
        // The paper's win must not be an artifact of the 2.4 baseline:
        // compare Window directly against O(1) for CG.
        let rc = RunnerConfig::quick();
        let spec = Fig2Set::C.spec(PaperApp::Cg);
        let o1 = run_spec(&spec, PolicyKind::LinuxO1, &rc);
        let window = run_spec(&spec, PolicyKind::Window, &rc);
        assert!(
            window.mean_turnaround_us < o1.mean_turnaround_us * 1.02,
            "Window {} vs O(1) {}",
            window.mean_turnaround_us,
            o1.mean_turnaround_us
        );
    }
}
