//! Robustness over random job populations.
//!
//! §1 claims the scheduler "is effective with applications of varying
//! bandwidth requirements, from very low to close to the limit of
//! saturation". This experiment stress-tests that claim beyond the
//! hand-picked §5 mixes: draw many random workloads (random rates,
//! widths, burstiness — see [`busbw_workloads::synth`]), run each under
//! every scheduler, and report the distribution of improvements over
//! Linux.
//!
//! The trials are declared as job-graph cells — `trials × (1 + policies)`
//! of them — so the whole experiment parallelizes across `--workers`
//! instead of looping serially. The synthetic specs carry their work
//! volume pre-scaled (the generator bakes `scale` into `work_us`), so the
//! cells resolve with `scale = 1` and the ×200 trial hard cap folded into
//! `hard_cap_factor`.

use busbw_metrics::{improvement_pct, ExperimentRow, FigureSummary};
use busbw_workloads::mix::WorkloadSpec;
use busbw_workloads::synth::{generate, SynthConfig};

use crate::jobgraph::{run_figure, CellId, Executed, Plan, RunRequest, Workload};
use crate::runner::{PolicyKind, RunnerConfig};

const ROBUSTNESS_POLICIES: [PolicyKind; 3] = [
    PolicyKind::Latest,
    PolicyKind::Window,
    PolicyKind::ModelDriven,
];

/// Build a measured workload from a random population.
fn random_spec(trial: u64, jobs: usize, rc: &RunnerConfig) -> WorkloadSpec {
    let cfg = SynthConfig {
        jobs,
        work_us: busbw_workloads::paper::DEFAULT_SOLO_WORK_US * rc.scale,
        ..SynthConfig::default()
    };
    let apps = generate(&cfg, rc.seed.wrapping_add(trial * 1009));
    let measured = (0..apps.len()).collect();
    WorkloadSpec {
        name: format!("random#{trial}"),
        apps,
        measured,
    }
}

/// Cell handles for the robustness figure: per trial, the Linux baseline
/// then each policy.
#[derive(Debug)]
pub struct RobustnessCells {
    trials: u64,
    jobs: usize,
    cells: Vec<CellId>,
}

/// Declare the robustness trials. Each trial's spec is generated here
/// (deterministic per seed), and every run gets the robustness hard cap
/// (×200 of the scaled solo work — random mixes can be adversarial).
pub fn plan_robustness(
    plan: &mut Plan,
    trials: u64,
    jobs: usize,
    rc: &RunnerConfig,
) -> RobustnessCells {
    assert!(trials >= 1);
    // The synth specs are already scaled, so the cell runs at scale 1 with
    // the trial budget folded into the cap factor (scale × 200 of the
    // unscaled solo work = 200 × the scaled work volume).
    let cell_rc = RunnerConfig {
        scale: 1.0,
        hard_cap_factor: rc.scale * 200.0,
        ..*rc
    };
    let mut cells = Vec::new();
    for trial in 0..trials {
        let workload = Workload::new(random_spec(trial, jobs, rc));
        cells.push(plan.cell(RunRequest::spec(&workload, PolicyKind::Linux, &cell_rc)));
        for p in ROBUSTNESS_POLICIES {
            cells.push(plan.cell(RunRequest::spec(&workload, p, &cell_rc)));
        }
    }
    RobustnessCells {
        trials,
        jobs,
        cells,
    }
}

/// Mean turnaround of one cell, asserting the trial finished (a capped
/// random workload is a generator bug, not a data point).
fn trial_turnaround(executed: &Executed, id: CellId) -> f64 {
    let r = executed.get(id);
    assert!(
        r.completion.is_finished(),
        "random workload hit the hard cap"
    );
    r.mean_turnaround_us
}

/// Fold the robustness figure: per-trial improvements plus the win-rate
/// aggregate row.
pub fn fold_robustness(cells: &RobustnessCells, executed: &Executed) -> FigureSummary {
    let per_trial = 1 + ROBUSTNESS_POLICIES.len();
    let mut rows = Vec::new();
    let mut wins: Vec<u32> = vec![0; ROBUSTNESS_POLICIES.len()];
    for (trial, ids) in cells.cells.chunks_exact(per_trial).enumerate() {
        let linux = trial_turnaround(executed, ids[0]);
        let mut values = Vec::with_capacity(ROBUSTNESS_POLICIES.len());
        for (i, &p) in ROBUSTNESS_POLICIES.iter().enumerate() {
            let imp = improvement_pct(linux, trial_turnaround(executed, ids[i + 1]));
            if imp > 0.0 {
                wins[i] += 1;
            }
            values.push((p.series_label(), imp));
        }
        rows.push(ExperimentRow {
            app: format!("trial {trial}"),
            values,
        });
    }
    rows.push(ExperimentRow {
        app: "WIN RATE %".into(),
        values: ROBUSTNESS_POLICIES
            .iter()
            .enumerate()
            .map(|(i, p)| {
                (
                    p.series_label(),
                    100.0 * wins[i] as f64 / cells.trials as f64,
                )
            })
            .collect(),
    });
    FigureSummary {
        id: "robustness".into(),
        title: format!(
            "{} random {}-job workloads — improvement % over Linux",
            cells.trials, cells.jobs
        ),
        rows,
    }
}

/// The robustness figure: per trial, improvement % of each policy over
/// Linux; plus an aggregate row.
pub fn robustness(trials: u64, jobs: usize, rc: &RunnerConfig) -> FigureSummary {
    run_figure(
        rc,
        |plan| plan_robustness(plan, trials, jobs, rc),
        fold_robustness,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_workloads_complete_under_all_policies() {
        let rc = RunnerConfig::quick();
        let fig = robustness(2, 4, &rc);
        // 2 trials + the win-rate row.
        assert_eq!(fig.rows.len(), 3);
        for row in &fig.rows {
            for (_, v) in &row.values {
                assert!(v.is_finite());
            }
        }
    }

    #[test]
    fn policies_win_most_random_workloads() {
        let rc = RunnerConfig::quick();
        let fig = robustness(5, 5, &rc);
        let win_rate = fig
            .rows
            .last()
            .unwrap()
            .get("Window")
            .expect("win-rate row");
        assert!(
            win_rate >= 60.0,
            "Window should beat Linux on most random workloads: {win_rate}%"
        );
    }
}
