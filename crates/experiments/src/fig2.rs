//! Figure 2: the evaluation of §5.
//!
//! Multiprogramming degree 2 (8 threads on 4 processors). For every
//! application and every workload set, the workload runs under the Linux
//! baseline and under each new policy; the figure reports the percentage
//! improvement of the *mean turnaround time of the two application
//! instances* relative to Linux.

use busbw_metrics::{improvement_pct, ExperimentRow, FigureSummary};
use busbw_workloads::mix::{fig2_set_a, fig2_set_b, fig2_set_c, WorkloadSpec};
use busbw_workloads::paper::PaperApp;

use crate::jobgraph::{run_figure, CellId, Executed, Plan, RunRequest, Workload};
use crate::runner::{PolicyKind, RunResult, RunnerConfig};

/// The three workload families of §5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig2Set {
    /// 2 × app + 4 × BBMA (saturated background).
    A,
    /// 2 × app + 4 × nBBMA (idle-bus background).
    B,
    /// 2 × app + 2 × BBMA + 2 × nBBMA (mixed background).
    C,
}

impl Fig2Set {
    /// The workload for one application.
    pub fn spec(self, app: PaperApp) -> WorkloadSpec {
        match self {
            Fig2Set::A => fig2_set_a(app),
            Fig2Set::B => fig2_set_b(app),
            Fig2Set::C => fig2_set_c(app),
        }
    }

    /// Figure id ("fig2a"…).
    pub fn id(self) -> &'static str {
        match self {
            Fig2Set::A => "fig2a",
            Fig2Set::B => "fig2b",
            Fig2Set::C => "fig2c",
        }
    }

    /// Paper subtitle.
    pub fn title(self) -> &'static str {
        match self {
            Fig2Set::A => "2 Apps (2 Threads each) + 4 BBMA — Avg. turnaround improvement (%)",
            Fig2Set::B => "2 Apps (2 Threads each) + 4 nBBMA — Avg. turnaround improvement (%)",
            Fig2Set::C => {
                "2 Apps (2 Threads each) + 2 BBMA + 2 nBBMA — Avg. turnaround improvement (%)"
            }
        }
    }
}

/// Cell handles for one Figure 2 panel: apps in `PaperApp::ALL` order,
/// Linux first then each policy. Linux/Latest/Window cells dedup against
/// any other figure that declares the same set on a shared plan (the
/// fitness and SMT ablations, the baselines figure).
#[derive(Debug)]
pub struct Fig2Cells {
    set: Fig2Set,
    policies: Vec<PolicyKind>,
    cells: Vec<CellId>,
}

/// Declare one Figure 2 panel's cells for an arbitrary policy list.
pub fn plan_fig2(
    plan: &mut Plan,
    set: Fig2Set,
    policies: &[PolicyKind],
    rc: &RunnerConfig,
) -> Fig2Cells {
    let mut cells = Vec::with_capacity(PaperApp::ALL.len() * (1 + policies.len()));
    for &app in PaperApp::ALL.iter() {
        let workload = Workload::new(set.spec(app));
        cells.push(plan.cell(RunRequest::spec(&workload, PolicyKind::Linux, rc)));
        for &p in policies {
            cells.push(plan.cell(RunRequest::spec(&workload, p, rc)));
        }
    }
    Fig2Cells {
        set,
        policies: policies.to_vec(),
        cells,
    }
}

/// Fold one Figure 2 panel: improvement % of each policy over Linux.
pub fn fold_fig2(cells: &Fig2Cells, executed: &Executed) -> FigureSummary {
    let per_app = 1 + cells.policies.len();
    let rows = PaperApp::ALL
        .iter()
        .zip(cells.cells.chunks_exact(per_app))
        .map(|(&app, ids)| {
            let linux = executed.get(ids[0]);
            ExperimentRow {
                app: app.name().to_string(),
                values: cells
                    .policies
                    .iter()
                    .enumerate()
                    .map(|(i, p)| {
                        (
                            p.series_label(),
                            improvement_pct(
                                linux.mean_turnaround_us,
                                executed.get(ids[i + 1]).mean_turnaround_us,
                            ),
                        )
                    })
                    .collect(),
            }
        })
        .collect();
    FigureSummary {
        id: cells.set.id().into(),
        title: cells.set.title().into(),
        rows,
    }
}

/// The panel's per-job results in declaration order (for trace merging
/// and metrics).
pub fn fig2_results(cells: &Fig2Cells, executed: &Executed) -> Vec<RunResult> {
    cells
        .cells
        .iter()
        .map(|&id| executed.get(id).clone())
        .collect()
}

/// Regenerate one Figure 2 panel: improvement % of `policies` (default:
/// Latest and Window) over the Linux baseline, per application.
pub fn fig2(set: Fig2Set, rc: &RunnerConfig) -> FigureSummary {
    fig2_with_policies(set, &[PolicyKind::Latest, PolicyKind::Window], rc)
}

/// Figure 2 panel with an arbitrary policy list (used by ablations).
pub fn fig2_with_policies(
    set: Fig2Set,
    policies: &[PolicyKind],
    rc: &RunnerConfig,
) -> FigureSummary {
    fig2_with_policies_traced(set, policies, rc).0
}

/// Like [`fig2_with_policies`], but also hands back the per-job
/// [`RunResult`]s (job order: apps in `PaperApp::ALL` order, Linux first
/// then each policy) so the caller can merge traces and fold metrics.
pub fn fig2_with_policies_traced(
    set: Fig2Set,
    policies: &[PolicyKind],
    rc: &RunnerConfig,
) -> (FigureSummary, Vec<RunResult>) {
    run_figure(
        rc,
        |plan| plan_fig2(plan, set, policies, rc),
        |cells, executed| (fold_fig2(cells, executed), fig2_results(cells, executed)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_spec;

    /// Reduced-size shape check for one heavy application on set A — the
    /// configuration with the paper's largest wins. Full panels are
    /// produced by the binary and benches.
    #[test]
    fn heavy_app_set_a_improves_substantially() {
        let rc = RunnerConfig::quick();
        let spec = Fig2Set::A.spec(PaperApp::Mg);
        let linux = run_spec(&spec, PolicyKind::Linux, &rc);
        let latest = run_spec(&spec, PolicyKind::Latest, &rc);
        let window = run_spec(&spec, PolicyKind::Window, &rc);
        let imp_l = improvement_pct(linux.mean_turnaround_us, latest.mean_turnaround_us);
        let imp_w = improvement_pct(linux.mean_turnaround_us, window.mean_turnaround_us);
        assert!(imp_l > 10.0, "Latest improvement on MG set A: {imp_l}%");
        assert!(imp_w > 10.0, "Window improvement on MG set A: {imp_w}%");
    }

    #[test]
    fn set_enum_roundtrips() {
        assert_eq!(Fig2Set::A.id(), "fig2a");
        assert_eq!(Fig2Set::B.id(), "fig2b");
        assert_eq!(Fig2Set::C.id(), "fig2c");
        for s in [Fig2Set::A, Fig2Set::B, Fig2Set::C] {
            assert_eq!(s.spec(PaperApp::Cg).total_threads(), 8);
            assert!(!s.title().is_empty());
        }
    }

    #[test]
    fn overlapping_policy_lists_share_baseline_and_policy_cells() {
        let rc = RunnerConfig::quick();
        let mut plan = Plan::new();
        plan_fig2(
            &mut plan,
            Fig2Set::C,
            &[PolicyKind::Latest, PolicyKind::Window],
            &rc,
        );
        let after_panel = plan.len();
        // The fitness ablation extends the same panel's policy list: only
        // the three gang policies add new cells.
        plan_fig2(
            &mut plan,
            Fig2Set::C,
            &[
                PolicyKind::Latest,
                PolicyKind::Window,
                PolicyKind::RoundRobinGang,
                PolicyKind::RandomGang(rc.seed),
                PolicyKind::GreedyPack,
            ],
            &rc,
        );
        assert_eq!(plan.len(), after_panel + 3 * PaperApp::ALL.len());
    }
}
