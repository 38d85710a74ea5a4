//! The reproduction gate: every shape claim of EXPERIMENTS.md as a
//! machine-checkable assertion.
//!
//! `experiments validate` runs a reduced-scale pass over the whole figure
//! suite and prints PASS/FAIL per claim — the command a CI pipeline runs
//! to ensure a change to the simulator, the calibration, or the policies
//! has not silently broken the reproduction.
//!
//! The suite declares all of its runs as job-graph cells up front — the
//! Figure 2 panels, the solo/fig1 probes, the fitness and strawman
//! cells — so they execute on the work-stealing pool with cross-claim
//! dedup (e.g. the Window cells of the fitness claim are the same cells
//! as the Figure 2 panels') instead of the old one-`run_spec`-at-a-time
//! serial loop.

use busbw_metrics::{improvement_pct, FigureSummary};
use busbw_workloads::mix;
use busbw_workloads::paper::PaperApp;

use crate::fig2::{fold_fig2, plan_fig2, Fig2Cells, Fig2Set};
use crate::jobgraph::{CellId, Executed, Plan, RunRequest, Workload};
use crate::runner::{PolicyKind, RunnerConfig};

/// One validated claim.
#[derive(Debug, Clone)]
pub struct Claim {
    /// Which paper artifact the claim belongs to.
    pub(crate) figure: &'static str,
    /// The claim, in words.
    pub(crate) claim: &'static str,
    /// Whether it held.
    pub(crate) pass: bool,
    /// Measured evidence.
    pub(crate) detail: String,
}

fn claim(figure: &'static str, text: &'static str, pass: bool, detail: String) -> Claim {
    Claim {
        figure,
        claim: text,
        pass,
        detail,
    }
}

/// Spread (max − min) of a series.
fn spread(fig: &FigureSummary, series: &str) -> f64 {
    fig.series_max(series).unwrap_or(0.0) - fig.series_min(series).unwrap_or(0.0)
}

/// The fitness-vs-round-robin aggregate cells.
const FITNESS_CELLS: [(Fig2Set, PaperApp); 3] = [
    (Fig2Set::B, PaperApp::Raytrace),
    (Fig2Set::B, PaperApp::Cg),
    (Fig2Set::C, PaperApp::Mg),
];

/// Cell handles for the whole validation suite.
#[derive(Debug)]
pub struct ValidateCells {
    /// Solo run per app, `PaperApp::ALL` order (Fig. 1A rates).
    solos: Vec<CellId>,
    /// CG + 2×BBMA (saturation claim).
    cg_bbma: CellId,
    /// MG two-instance / +BBMA / +nBBMA (Fig. 1B slowdowns; the solo
    /// denominator is `solos[MG]`).
    mg_solo: CellId,
    mg_two: CellId,
    mg_bbma: CellId,
    mg_nbbma: CellId,
    /// The three Figure 2 panels with the default policies.
    panels: Vec<(Fig2Set, Fig2Cells)>,
    /// `(round_robin, window)` per [`FITNESS_CELLS`] entry.
    fitness: Vec<(CellId, CellId)>,
    /// `(linux, greedy)` for the strawman claim on set C / MG.
    strawman: (CellId, CellId),
}

/// Declare every run the validation suite needs.
pub fn plan_validate(plan: &mut Plan, rc: &RunnerConfig) -> ValidateCells {
    let solos = PaperApp::ALL
        .iter()
        .map(|&app| Workload::new(mix::fig1_solo(app)))
        .map(|w| plan.cell(RunRequest::spec(&w, PolicyKind::Linux, rc)))
        .collect::<Vec<_>>();
    let cg_bbma = plan.cell(RunRequest::spec(
        &Workload::new(mix::fig1_with_bbma(PaperApp::Cg)),
        PolicyKind::Linux,
        rc,
    ));
    let mg = PaperApp::ALL
        .iter()
        .position(|&a| a == PaperApp::Mg)
        .expect("MG is in the suite");
    let mg_solo = solos[mg];
    let mg_two = plan.cell(RunRequest::spec(
        &Workload::new(mix::fig1_two_instances(PaperApp::Mg)),
        PolicyKind::Linux,
        rc,
    ));
    let mg_bbma = plan.cell(RunRequest::spec(
        &Workload::new(mix::fig1_with_bbma(PaperApp::Mg)),
        PolicyKind::Linux,
        rc,
    ));
    let mg_nbbma = plan.cell(RunRequest::spec(
        &Workload::new(mix::fig1_with_nbbma(PaperApp::Mg)),
        PolicyKind::Linux,
        rc,
    ));
    let panels = [Fig2Set::A, Fig2Set::B, Fig2Set::C]
        .into_iter()
        .map(|s| {
            (
                s,
                plan_fig2(plan, s, &[PolicyKind::Latest, PolicyKind::Window], rc),
            )
        })
        .collect();
    let fitness = FITNESS_CELLS
        .iter()
        .map(|&(set, app)| {
            let workload = Workload::new(set.spec(app));
            (
                plan.cell(RunRequest::spec(&workload, PolicyKind::RoundRobinGang, rc)),
                plan.cell(RunRequest::spec(&workload, PolicyKind::Window, rc)),
            )
        })
        .collect();
    let strawman = Workload::new(Fig2Set::C.spec(PaperApp::Mg));
    let strawman = (
        plan.cell(RunRequest::spec(&strawman, PolicyKind::Linux, rc)),
        plan.cell(RunRequest::spec(&strawman, PolicyKind::GreedyPack, rc)),
    );
    ValidateCells {
        solos,
        cg_bbma,
        mg_solo,
        mg_two,
        mg_bbma,
        mg_nbbma,
        panels,
        fitness,
        strawman,
    }
}

/// Fold the executed cells into the claim list.
pub fn fold_validate(cells: &ValidateCells, executed: &Executed) -> Vec<Claim> {
    let mut out = Vec::new();

    // ---- Figure 1A claims ----
    let rates: Vec<(PaperApp, f64)> = PaperApp::ALL
        .iter()
        .zip(&cells.solos)
        .map(|(&app, &id)| (app, executed.get(id).measured_apps_rate))
        .collect();
    let non_bursty_sorted = rates
        .iter()
        .filter(|(a, _)| *a != PaperApp::Raytrace)
        .map(|&(_, r)| r)
        .collect::<Vec<_>>()
        .windows(2)
        .all(|w| w[0] < w[1]);
    out.push(claim(
        "fig1a",
        "solo rates increase along the paper's ordering",
        non_bursty_sorted,
        format!("{rates:?}"),
    ));
    let bbma_rate = executed.get(cells.cg_bbma).workload_rate;
    out.push(claim(
        "fig1a",
        "BBMA mixes drive the workload near saturation (>25 tx/µs)",
        bbma_rate > 25.0,
        format!("{bbma_rate:.1} tx/µs"),
    ));

    // ---- Figure 1B claims ----
    let solo = executed.get(cells.mg_solo).mean_turnaround_us;
    let two = executed.get(cells.mg_two).mean_turnaround_us / solo;
    let with_bbma = executed.get(cells.mg_bbma).mean_turnaround_us / solo;
    let with_nbbma = executed.get(cells.mg_nbbma).mean_turnaround_us / solo;
    out.push(claim(
        "fig1b",
        "two heavy instances lose ~41-61 %",
        (1.2..1.9).contains(&two),
        format!("MG 2-instance slowdown {two:.2}x"),
    ));
    out.push(claim(
        "fig1b",
        "BBMA pressure slows a heavy app 2-3x",
        (1.7..3.2).contains(&with_bbma),
        format!("MG+2BBMA slowdown {with_bbma:.2}x"),
    ));
    out.push(claim(
        "fig1b",
        "nBBMA background is free",
        (0.95..1.1).contains(&with_nbbma),
        format!("MG+2nBBMA slowdown {with_nbbma:.2}x"),
    ));

    // ---- Figure 2 claims ----
    let figs: Vec<(Fig2Set, FigureSummary)> = cells
        .panels
        .iter()
        .map(|(s, c)| (*s, fold_fig2(c, executed)))
        .collect();
    for (set, fig) in &figs {
        for series in ["Latest", "Window"] {
            let mean = fig.series_mean(series).unwrap_or(f64::NAN);
            out.push(claim(
                set.id(),
                "policies improve mean turnaround over Linux",
                mean > 0.0,
                format!("{series} mean {mean:+.1} %"),
            ));
        }
    }
    let set_a = &figs[0].1;
    out.push(claim(
        "fig2a",
        "saturated-background set shows substantial peak wins (>=20 %)",
        set_a.series_max("Latest").unwrap_or(0.0) >= 20.0,
        format!(
            "Latest max {:+.1} %",
            set_a.series_max("Latest").unwrap_or(0.0)
        ),
    ));
    let set_b = &figs[1].1;
    // "More stable" means not-wider spread: at tiny scales the two
    // policies can make identical decisions and tie exactly, which is
    // stability, not a regression.
    out.push(claim(
        "fig2b",
        "Quanta Window is at least as stable as Latest Quantum on set B",
        spread(set_b, "Window") <= spread(set_b, "Latest") + 0.5,
        format!(
            "spread: Window {:.1} vs Latest {:.1}",
            spread(set_b, "Window"),
            spread(set_b, "Latest")
        ),
    ));

    // ---- Ablation claim: fitness beats oblivious fills in aggregate ----
    let mut log_ratio = 0.0;
    for &(rr, win) in &cells.fitness {
        log_ratio +=
            (executed.get(rr).mean_turnaround_us / executed.get(win).mean_turnaround_us).ln();
    }
    let geo = (log_ratio / cells.fitness.len() as f64).exp();
    out.push(claim(
        "ablate-fitness",
        "Equation-1 fitness beats round-robin gang in aggregate",
        geo > 1.0,
        format!("geo-mean speedup {geo:.3}x"),
    ));

    // ---- Greedy strawman claim ----
    let (linux_id, greedy_id) = cells.strawman;
    let linux = executed.get(linux_id).mean_turnaround_us;
    let greedy = executed.get(greedy_id).mean_turnaround_us;
    out.push(claim(
        "ablate-fitness",
        "greedy bandwidth-packing is harmful",
        greedy > linux,
        format!("greedy {:+.1} % vs Linux", improvement_pct(linux, greedy)),
    ));

    out
}

/// Render claims as a report; returns `(text, all_passed)`.
pub fn render(claims: &[Claim]) -> (String, bool) {
    let mut text = String::new();
    let mut all = true;
    for c in claims {
        all &= c.pass;
        text.push_str(&format!(
            "[{}] {:14} {} — {}\n",
            if c.pass { "PASS" } else { "FAIL" },
            c.figure,
            c.claim,
            c.detail
        ));
    }
    text.push_str(&format!(
        "\n{}/{} claims hold\n",
        claims.iter().filter(|c| c.pass).count(),
        claims.len()
    ));
    (text, all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobgraph::run_figure;

    #[test]
    fn validation_suite_passes_at_reduced_scale() {
        let rc = RunnerConfig::quick();
        let claims = run_figure(&rc, |p| plan_validate(p, &rc), fold_validate);
        let (report, all) = render(&claims);
        assert!(all, "reproduction claims failed:\n{report}");
        assert!(claims.len() >= 12);
    }

    #[test]
    fn validation_plan_dedups_cross_claim_cells() {
        // The fitness claim's Window cells and the strawman's Linux cell
        // are already declared by the Figure 2 panels.
        let rc = RunnerConfig::quick();
        let mut plan = Plan::new();
        plan_validate(&mut plan, &rc);
        assert!(
            (plan.declared() as usize) > plan.len(),
            "expected cross-claim dedup: declared {} unique {}",
            plan.declared(),
            plan.len()
        );
    }
}
