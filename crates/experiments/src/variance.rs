//! Seed-sensitivity of the headline numbers.
//!
//! Two stochastic ingredients exist in the reproduction: the Raytrace
//! burst process and the baseline's selection noise (standing in for
//! kernel timer/balancer nondeterminism — see DESIGN.md §6). The paper
//! reports single measurements; this experiment reruns Figure 2B (the set
//! with the strongest stochastic effects) across seeds and reports
//! mean / min / max improvement per application — the error bars the
//! paper did not have.
//!
//! The per-seed runs are declared as job-graph cells (2 × seeds × 11
//! apps), so the sweep parallelizes across `--workers` like the figures
//! instead of looping serially.

use busbw_metrics::{improvement_pct, mean, ExperimentRow, FigureSummary};
use busbw_workloads::paper::PaperApp;

use crate::fig2::Fig2Set;
use crate::jobgraph::{CellId, Executed, Plan, RunRequest, Workload};
use crate::runner::{PolicyKind, RunnerConfig};

/// Cell handles for the variance figure: per app, `seeds` pairs of
/// `(linux, policy)` cells at seed `rc.seed + k`.
#[derive(Debug)]
pub struct VarianceCells {
    policy: PolicyKind,
    seeds: u64,
    per_app: Vec<Vec<(CellId, CellId)>>,
}

/// Declare the multi-seed Figure 2B cells for one policy.
pub fn plan_variance(
    plan: &mut Plan,
    policy: PolicyKind,
    seeds: u64,
    rc: &RunnerConfig,
) -> VarianceCells {
    assert!(seeds >= 1, "need at least one seed");
    let per_app = PaperApp::ALL
        .iter()
        .map(|&app| {
            let workload = Workload::new(Fig2Set::B.spec(app));
            (0..seeds)
                .map(|k| {
                    let rck = RunnerConfig {
                        seed: rc.seed + k,
                        ..*rc
                    };
                    (
                        plan.cell(RunRequest::spec(&workload, PolicyKind::Linux, &rck)),
                        plan.cell(RunRequest::spec(&workload, policy, &rck)),
                    )
                })
                .collect()
        })
        .collect();
    VarianceCells {
        policy,
        seeds,
        per_app,
    }
}

/// Fold the variance figure: mean/min/max improvement per application.
pub fn fold_variance(cells: &VarianceCells, executed: &Executed) -> FigureSummary {
    let rows = PaperApp::ALL
        .iter()
        .zip(&cells.per_app)
        .map(|(&app, pairs)| {
            let imps: Vec<f64> = pairs
                .iter()
                .map(|&(linux, run)| {
                    improvement_pct(
                        executed.get(linux).mean_turnaround_us,
                        executed.get(run).mean_turnaround_us,
                    )
                })
                .collect();
            let lo = imps.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = imps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            ExperimentRow {
                app: app.name().to_string(),
                values: vec![
                    // `imps` has `seeds >= 1` entries, asserted at plan time.
                    ("mean".into(), mean(&imps).expect("at least one seed")),
                    ("min".into(), lo),
                    ("max".into(), hi),
                ],
            }
        })
        .collect();
    FigureSummary {
        id: "variance".into(),
        title: format!(
            "Fig. 2B improvement % for {} across {} seeds (mean/min/max)",
            cells.policy.label(),
            cells.seeds
        ),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobgraph::run_figure;

    #[test]
    fn variance_rows_are_ordered_and_finite() {
        let rc = RunnerConfig::quick();
        let fig = run_figure(
            &rc,
            |p| plan_variance(p, PolicyKind::Window, 2, &rc),
            fold_variance,
        );
        assert_eq!(fig.rows.len(), 11);
        for row in &fig.rows {
            let (mean, lo, hi) = (
                row.get("mean").unwrap(),
                row.get("min").unwrap(),
                row.get("max").unwrap(),
            );
            assert!(lo <= mean && mean <= hi, "{}: {lo} {mean} {hi}", row.app);
            assert!(mean.is_finite());
        }
    }

    #[test]
    fn different_seeds_actually_vary_the_stochastic_apps() {
        let rc = RunnerConfig::quick();
        let fig = run_figure(
            &rc,
            |p| plan_variance(p, PolicyKind::Latest, 3, &rc),
            fold_variance,
        );
        let rt = fig
            .rows
            .iter()
            .find(|r| r.app == "Raytrace")
            .expect("raytrace row");
        assert!(
            rt.get("max").unwrap() - rt.get("min").unwrap() > 1e-9,
            "bursty app should vary across seeds"
        );
    }
}
