//! Ablations of the design choices the paper motivates but does not plot.
//!
//! * **Window length** (§4): the 5-sample window "limits the average
//!   distance between the observed transactions pattern and the moving
//!   window average to 5 % for applications with irregular bus bandwidth
//!   requirements". [`ablate_window`] reproduces both halves of the
//!   tradeoff: the analytic distance criterion on a bursty trace, and the
//!   end-to-end improvement on the Raytrace set-B workload where Latest
//!   Quantum misbehaves (−19 % in the paper).
//! * **Quantum length** (§5): the paper moved from 100 ms to 200 ms
//!   because of user/kernel scheduling conflicts. The simulator has no
//!   such conflict, so [`ablate_quantum`] reports the pure policy-side
//!   sensitivity.
//! * **Fitness rule** (§4): [`ablate_fitness`] compares the fitness-driven
//!   fill against round-robin, random, and greedy-max-bandwidth gang
//!   fills on set C.
//!
//! All sweeps declare job-graph cells instead of looping over `run_spec`
//! serially: the per-sweep-point Linux baselines collapse to one cell
//! each, and on a shared plan they dedup against the Figure 2 panels.

use busbw_metrics::{improvement_pct, ExperimentRow, FigureSummary, MovingWindow};
use busbw_sim::{DemandModel, XEON_4WAY_HT};
use busbw_workloads::burst::TwoStateBurst;
use busbw_workloads::paper::PaperApp;

use crate::fig2::{fold_fig2, plan_fig2, Fig2Cells, Fig2Set};
use crate::jobgraph::{run_figure, CellId, Executed, Plan, RunRequest, Workload};
use crate::policy::{EstimatorKind, PlacerKind, SelectorKind, StackSpec};
use crate::runner::{PolicyKind, RunnerConfig};

/// Window lengths swept by [`ablate_window`].
pub const WINDOW_SWEEP: [usize; 5] = [1, 3, 5, 9, 15];

const WINDOW_APPS: [PaperApp; 2] = [PaperApp::Raytrace, PaperApp::Cg];

/// Cell handles for the window-length ablation: per app, the (single)
/// Linux baseline plus one `WindowN` cell per swept width.
#[derive(Debug)]
pub struct WindowCells {
    /// `(linux, [windowed; WINDOW_SWEEP])` per app in `WINDOW_APPS` order.
    per_app: Vec<(CellId, Vec<CellId>)>,
    /// The §4 analytic distances, % per swept width (no runs needed).
    distances: Vec<f64>,
}

/// Declare the window-length ablation. The analytic half (the §4 distance
/// criterion on a Raytrace-like burst trace) is computed here — it needs
/// no simulator runs.
pub fn plan_window(plan: &mut Plan, rc: &RunnerConfig) -> WindowCells {
    let mut burst = TwoStateBurst::raytrace(10.65, 0.82, rc.seed);
    let trace: Vec<f64> = (0..600)
        .map(|i| burst.demand_at(0.0, i * 100_000).rate)
        .collect();
    let distances = WINDOW_SWEEP
        .iter()
        // The burst trace is 600 samples, never empty.
        .map(|&w| MovingWindow::mean_relative_distance(w, &trace).expect("non-empty trace") * 100.0)
        .collect();
    let per_app = WINDOW_APPS
        .iter()
        .map(|&app| {
            let workload = Workload::new(Fig2Set::B.spec(app));
            let linux = plan.cell(RunRequest::spec(&workload, PolicyKind::Linux, rc));
            let windowed = WINDOW_SWEEP
                .iter()
                .map(|&w| plan.cell(RunRequest::spec(&workload, PolicyKind::WindowN(w), rc)))
                .collect();
            (linux, windowed)
        })
        .collect();
    WindowCells { per_app, distances }
}

/// Fold the window-length ablation.
pub fn fold_window(cells: &WindowCells, executed: &Executed) -> FigureSummary {
    let rows = WINDOW_SWEEP
        .iter()
        .enumerate()
        .map(|(wi, &w)| {
            let mut values = vec![("distance %".into(), cells.distances[wi])];
            for (&app, (linux, windowed)) in WINDOW_APPS.iter().zip(&cells.per_app) {
                values.push((
                    format!("{} impr %", app.name()).into(),
                    improvement_pct(
                        executed.get(*linux).mean_turnaround_us,
                        executed.get(windowed[wi]).mean_turnaround_us,
                    ),
                ));
            }
            ExperimentRow {
                app: format!("W={w}"),
                values,
            }
        })
        .collect();
    FigureSummary {
        id: "ablate-window".into(),
        title: "Window length: §4 distance criterion and set-B improvement".into(),
        rows,
    }
}

/// Window-length ablation.
///
/// Rows: one per window length. Columns: the §4 distance criterion on a
/// Raytrace-like burst trace (%), and the end-to-end improvement over
/// Linux on the Raytrace and CG set-B workloads.
pub fn ablate_window(rc: &RunnerConfig) -> FigureSummary {
    run_figure(rc, |plan| plan_window(plan, rc), fold_window)
}

/// Quantum lengths swept by [`ablate_quantum`] (µs).
pub const QUANTUM_SWEEP: [u64; 4] = [50_000, 100_000, 200_000, 400_000];

const QUANTUM_APPS: [PaperApp; 3] = [PaperApp::Volrend, PaperApp::Sp, PaperApp::Cg];

/// Cell handles for the quantum-length ablation.
#[derive(Debug)]
pub struct QuantumCells {
    /// `(linux, [quantum; QUANTUM_SWEEP])` per app in `QUANTUM_APPS` order.
    per_app: Vec<(CellId, Vec<CellId>)>,
}

/// Declare the quantum-length ablation's cells on set C.
pub fn plan_quantum(plan: &mut Plan, rc: &RunnerConfig) -> QuantumCells {
    let per_app = QUANTUM_APPS
        .iter()
        .map(|&app| {
            let workload = Workload::new(Fig2Set::C.spec(app));
            let linux = plan.cell(RunRequest::spec(&workload, PolicyKind::Linux, rc));
            let swept = QUANTUM_SWEEP
                .iter()
                .map(|&q| {
                    plan.cell(RunRequest::spec(
                        &workload,
                        PolicyKind::LatestWithQuantum(q),
                        rc,
                    ))
                })
                .collect();
            (linux, swept)
        })
        .collect();
    QuantumCells { per_app }
}

/// Fold the quantum-length ablation.
pub fn fold_quantum(cells: &QuantumCells, executed: &Executed) -> FigureSummary {
    let rows = QUANTUM_SWEEP
        .iter()
        .enumerate()
        .map(|(qi, &q)| {
            let values = QUANTUM_APPS
                .iter()
                .zip(&cells.per_app)
                .map(|(&app, (linux, swept))| {
                    (
                        format!("{} impr %", app.name()).into(),
                        improvement_pct(
                            executed.get(*linux).mean_turnaround_us,
                            executed.get(swept[qi]).mean_turnaround_us,
                        ),
                    )
                })
                .collect();
            ExperimentRow {
                app: format!("{}ms", q / 1000),
                values,
            }
        })
        .collect();
    FigureSummary {
        id: "ablate-quantum".into(),
        title: "Latest Quantum: scheduling quantum sweep on set C".into(),
        rows,
    }
}

/// Quantum-length ablation for the Latest Quantum policy on set C.
pub fn ablate_quantum(rc: &RunnerConfig) -> FigureSummary {
    run_figure(rc, |plan| plan_quantum(plan, rc), fold_quantum)
}

/// The fitness ablation's policy list (set C).
fn fitness_policies(rc: &RunnerConfig) -> [PolicyKind; 5] {
    [
        PolicyKind::Latest,
        PolicyKind::Window,
        PolicyKind::RoundRobinGang,
        PolicyKind::RandomGang(rc.seed),
        PolicyKind::GreedyPack,
    ]
}

/// Declare the fitness-rule ablation (a full set-C panel; its Linux,
/// Latest and Window cells dedup against the `fig2c` panel on a shared
/// plan).
pub fn plan_fitness(plan: &mut Plan, rc: &RunnerConfig) -> Fig2Cells {
    plan_fig2(plan, Fig2Set::C, &fitness_policies(rc), rc)
}

/// Fold the fitness-rule ablation.
pub fn fold_fitness(cells: &Fig2Cells, executed: &Executed) -> FigureSummary {
    let mut fig = fold_fig2(cells, executed);
    fig.id = "ablate-fitness".into();
    fig.title = "Set C improvement %: fitness vs oblivious gang fills".into();
    fig
}

/// Fitness-rule ablation on set C: the paper's policies vs gang
/// scheduling with round-robin, random, and greedy-max-bandwidth fills.
pub fn ablate_fitness(rc: &RunnerConfig) -> FigureSummary {
    run_figure(rc, |plan| plan_fitness(plan, rc), fold_fitness)
}

const SMT_APPS: [PaperApp; 3] = [PaperApp::Volrend, PaperApp::Mg, PaperApp::Cg];
const SMT_POLICIES: [PolicyKind; 2] = [PolicyKind::Latest, PolicyKind::Window];

/// Cell handles for the Hyperthreading ablation: per app, `(linux,
/// latest, window)` for the 4-way machine then the 4-way+HT machine.
#[derive(Debug)]
pub struct SmtCells {
    per_app: Vec<Vec<CellId>>,
}

/// Declare the SMT ablation's cells (the 4-way cells dedup against the
/// `fig2c` panel on a shared plan; the HT cells are unique).
pub fn plan_smt(plan: &mut Plan, rc: &RunnerConfig) -> SmtCells {
    let ht_rc = RunnerConfig {
        machine: XEON_4WAY_HT,
        ..*rc
    };
    let per_app = SMT_APPS
        .iter()
        .map(|&app| {
            let workload = Workload::new(Fig2Set::C.spec(app));
            let mut ids = Vec::with_capacity(2 * (1 + SMT_POLICIES.len()));
            for cfg in [rc, &ht_rc] {
                ids.push(plan.cell(RunRequest::spec(&workload, PolicyKind::Linux, cfg)));
                for p in SMT_POLICIES {
                    ids.push(plan.cell(RunRequest::spec(&workload, p, cfg)));
                }
            }
            ids
        })
        .collect();
    SmtCells { per_app }
}

/// Fold the SMT ablation.
pub fn fold_smt(cells: &SmtCells, executed: &Executed) -> FigureSummary {
    let group = 1 + SMT_POLICIES.len();
    let rows = SMT_APPS
        .iter()
        .zip(&cells.per_app)
        .map(|(&app, ids)| {
            let mut values = Vec::with_capacity(2 * SMT_POLICIES.len());
            for (gi, label) in [(0, "4-way"), (1, "4-way+HT")] {
                let linux = executed.get(ids[gi * group]).mean_turnaround_us;
                for (pi, p) in SMT_POLICIES.iter().enumerate() {
                    values.push((
                        format!("{} {}", p.label(), label).into(),
                        improvement_pct(
                            linux,
                            executed.get(ids[gi * group + 1 + pi]).mean_turnaround_us,
                        ),
                    ));
                }
            }
            ExperimentRow {
                app: app.name().to_string(),
                values,
            }
        })
        .collect();
    FigureSummary {
        id: "ablate-smt".into(),
        title: "Set C improvement % with and without Hyperthreading".into(),
        rows,
    }
}

/// Hyperthreading extension (§6 future work; the paper disabled HT
/// because perfctr could not virtualize counters across siblings).
///
/// Reruns set C on the same machine with SMT enabled (8 logical cpus on
/// 4 cores, 1.25× aggregate core speedup) and reports the policies'
/// improvement over Linux on both configurations. With HT, all 8 threads
/// of the workload fit simultaneously, so the baseline stops paying the
/// gang-splitting cost — but the bus is pressured by more concurrent
/// streams, which is exactly the regime the bandwidth-aware policies
/// target.
pub fn ablate_smt(rc: &RunnerConfig) -> FigureSummary {
    run_figure(rc, |plan| plan_smt(plan, rc), fold_smt)
}

/// Estimators crossed by [`ablate_stages`].
pub const STAGE_ESTIMATORS: [EstimatorKind; 2] = [
    EstimatorKind::Latest,
    EstimatorKind::Window(busbw_core::pipeline::PAPER_WINDOW_SAMPLES),
];

/// Placers crossed by [`ablate_stages`].
pub const STAGE_PLACERS: [PlacerKind; 2] = [PlacerKind::Packed, PlacerKind::Scatter];

/// Selectors crossed by [`ablate_stages`] (the random fill is seeded from
/// the run config so the figure stays deterministic per seed).
pub fn stage_selectors(rc: &RunnerConfig) -> [SelectorKind; 3] {
    [
        SelectorKind::Fitness,
        SelectorKind::Random(rc.seed),
        SelectorKind::Greedy,
    ]
}

const STAGE_APP: PaperApp = PaperApp::Mg;

/// Cell handles for the stage cross-product ablation: the Linux baseline
/// plus one composed [`StackSpec`] cell per estimator × selector × placer
/// combination.
#[derive(Debug)]
pub struct StageCells {
    linux: CellId,
    combos: Vec<(StackSpec, CellId)>,
}

/// Declare the stage cross-product on the set-C MG workload. Every cell
/// is a [`PolicyKind::Stack`], so this sweep exercises exactly the same
/// composition path as the `--policy` CLI grammar.
pub fn plan_stages(plan: &mut Plan, rc: &RunnerConfig) -> StageCells {
    let workload = Workload::new(Fig2Set::C.spec(STAGE_APP));
    let linux = plan.cell(RunRequest::spec(&workload, PolicyKind::Linux, rc));
    let mut combos = Vec::new();
    for est in STAGE_ESTIMATORS {
        for sel in stage_selectors(rc) {
            for placer in STAGE_PLACERS {
                let stack = StackSpec {
                    estimator: est,
                    selector: sel,
                    placer,
                    ..StackSpec::default()
                };
                let id = plan.cell(RunRequest::spec(&workload, PolicyKind::Stack(stack), rc));
                combos.push((stack, id));
            }
        }
    }
    StageCells { linux, combos }
}

/// Fold the stage cross-product: one row per composed stack, reporting
/// its improvement over the Linux baseline.
pub fn fold_stages(cells: &StageCells, executed: &Executed) -> FigureSummary {
    let linux = executed.get(cells.linux).mean_turnaround_us;
    let rows = cells
        .combos
        .iter()
        .map(|&(stack, id)| ExperimentRow {
            app: stack.label(),
            values: vec![(
                format!("{} impr %", STAGE_APP.name()).into(),
                improvement_pct(linux, executed.get(id).mean_turnaround_us),
            )],
        })
        .collect();
    FigureSummary {
        id: "ablate-stages".into(),
        title: "Set C (MG): estimator x selector x placer cross-product".into(),
        rows,
    }
}

/// Stage cross-product ablation: every estimator × selector × placer
/// combination of the policy pipeline, composed through [`StackSpec`]
/// exactly as the `--policy` CLI flag composes them, against the Linux
/// baseline on the set-C MG workload.
pub fn ablate_stages(rc: &RunnerConfig) -> FigureSummary {
    run_figure(rc, |plan| plan_stages(plan, rc), fold_stages)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_distance_criterion_grows_with_width() {
        // Pure analytic part (fast): the §4 tradeoff direction.
        let mut burst = TwoStateBurst::raytrace(10.65, 0.82, 3);
        let trace: Vec<f64> = (0..600)
            .map(|i| burst.demand_at(0.0, i * 100_000).rate)
            .collect();
        let d1 = MovingWindow::mean_relative_distance(1, &trace).unwrap();
        let d5 = MovingWindow::mean_relative_distance(5, &trace).unwrap();
        let d15 = MovingWindow::mean_relative_distance(15, &trace).unwrap();
        assert!(d1 <= d5 && d5 <= d15, "{d1} {d5} {d15}");
        // The paper's 5-sample choice keeps the distance moderate (the
        // text cites ~5 %; our synthetic bursts are of the same order).
        assert!(d5 < 0.60, "5-sample distance {d5}");
    }

    #[test]
    fn sweeps_declare_one_baseline_cell_per_app() {
        // The old serial loops re-ran Linux per sweep point; the job
        // graph collapses those to one cell per (spec, config).
        let rc = RunnerConfig::quick();
        let mut plan = Plan::new();
        plan_window(&mut plan, &rc);
        assert_eq!(
            plan.len(),
            WINDOW_APPS.len() * (1 + WINDOW_SWEEP.len()),
            "window sweep: one Linux cell per app"
        );
        let before = plan.len();
        plan_quantum(&mut plan, &rc);
        assert_eq!(
            plan.len() - before,
            QUANTUM_APPS.len() * (1 + QUANTUM_SWEEP.len()),
            "quantum sweep: one Linux cell per app"
        );
    }

    #[test]
    fn stage_cross_product_declares_every_combo_once() {
        let rc = RunnerConfig::quick();
        let mut plan = Plan::new();
        let cells = plan_stages(&mut plan, &rc);
        // One Linux baseline + the full estimator × selector × placer
        // cross-product, each a distinct cell with a distinct label.
        assert_eq!(
            plan.len(),
            1 + STAGE_ESTIMATORS.len() * stage_selectors(&rc).len() * STAGE_PLACERS.len()
        );
        let labels: std::collections::BTreeSet<String> =
            cells.combos.iter().map(|(s, _)| s.label()).collect();
        assert_eq!(labels.len(), cells.combos.len(), "labels must be distinct");
    }
}
