//! Open-system experiment: jobs arriving over time.
//!
//! Every workload in the paper starts all jobs at t = 0. Real
//! multiprogrammed servers are open systems — jobs connect to the CPU
//! manager while others are mid-flight. This experiment checks that the
//! policies' circular-list mechanics (new jobs appended, head-of-list
//! guarantee, estimator warm-up from zero) behave under staggered
//! arrivals:
//!
//! * at t = 0 the background starts (2 × BBMA + 2 × nBBMA);
//! * the two measured application instances arrive at `stagger_us` and
//!   `2 × stagger_us`;
//! * the run ends when both instances finish; we report their mean
//!   turnaround (arrival-relative) per scheduler.

use busbw_metrics::{improvement_pct, ExperimentRow, FigureSummary};
use busbw_sim::{Machine, Scheduler, StopCondition};
use busbw_workloads::micro::{bbma, nbbma};
use busbw_workloads::paper::{paper_app, PaperApp};

use crate::jobgraph::{CellId, Executed, Plan, RunRequest};
use crate::runner::{PolicyKind, RunCompletion, RunResult, RunnerConfig};

/// Run the staggered-arrival scenario for `app` under `policy` and return
/// a [`RunResult`] (the job-graph cell behind the `dynamic` figure).
///
/// `turnarounds_us` holds the two instances' arrival-relative turnarounds
/// and `mean_turnaround_us` their mean; the bus/tick statistics cover the
/// final phase of the run (arrival of the second instance onward). No
/// tracer is wired — the open-system phases drive the machine directly.
pub(crate) fn staggered_run(
    app: PaperApp,
    policy: PolicyKind,
    stagger_us: u64,
    rc: &RunnerConfig,
) -> RunResult {
    let mut machine = Machine::new(rc.machine);
    machine.set_hard_cap_us(
        (busbw_workloads::paper::DEFAULT_SOLO_WORK_US * rc.scale * rc.hard_cap_factor) as u64,
    );
    // Background from t = 0.
    machine.add_app(bbma().descriptor(rc.seed));
    machine.add_app(bbma().descriptor(rc.seed + 1));
    machine.add_app(nbbma().descriptor(rc.seed + 2));
    machine.add_app(nbbma().descriptor(rc.seed + 3));

    let mut sched: Box<dyn Scheduler> = policy.build();

    // Phase 1: background only, until the first arrival.
    machine.run(&mut *sched, StopCondition::At(stagger_us));
    let first = machine.add_app(paper_app(app).scaled(rc.scale).descriptor(rc.seed + 10));

    // Phase 2: until the second arrival.
    machine.run(&mut *sched, StopCondition::At(2 * stagger_us));
    let second = machine.add_app(paper_app(app).scaled(rc.scale).descriptor(rc.seed + 11));

    // Phase 3: until both instances complete.
    let out = machine.run(
        &mut *sched,
        StopCondition::AppsFinished(vec![first, second]),
    );
    assert!(
        out.condition_met,
        "staggered workload for {} under {} hit the hard cap",
        app.name(),
        policy.label()
    );
    let t1 = machine.turnaround_us(first).expect("first finished") as f64;
    let t2 = machine.turnaround_us(second).expect("second finished") as f64;
    let (memo_hits, memo_misses) = machine.bus_memo_stats().unwrap_or((0, 0));
    let mut level_utilization = [0.0; busbw_sim::MAX_BUS_LEVELS];
    let mut level_saturated = [0.0; busbw_sim::MAX_BUS_LEVELS];
    for (k, l) in out.stats.levels[..out.stats.n_levels].iter().enumerate() {
        level_utilization[k] = l.mean_utilization(out.stats.elapsed_us);
        level_saturated[k] = l.saturated_fraction(out.stats.elapsed_us);
    }
    RunResult {
        mean_turnaround_us: (t1 + t2) / 2.0,
        turnarounds_us: vec![t1, t2],
        workload_rate: out.stats.mean_bus_rate(),
        measured_apps_rate: 0.0,
        saturated_fraction: out.stats.saturated_fraction(),
        ticks: out.stats.ticks,
        sim_elapsed_us: out.stats.elapsed_us,
        completion: RunCompletion::Finished,
        events: Vec::new(),
        tick_dt_hist: out.stats.tick_dt_hist,
        memo_hits,
        memo_misses,
        stage_timings: sched.stage_timings().cloned(),
        open: None,
        oracle: None,
        n_levels: out.stats.n_levels,
        level_utilization,
        level_saturated,
    }
}

/// The applications and comparison policies of the dynamic figure.
const DYN_APPS: [PaperApp; 4] = [PaperApp::Volrend, PaperApp::Bt, PaperApp::Mg, PaperApp::Cg];
const DYN_POLICIES: [PolicyKind; 2] = [PolicyKind::Latest, PolicyKind::Window];

/// Cell handles for the dynamic figure: per app, the Linux baseline then
/// each comparison policy.
#[derive(Debug)]
pub struct DynamicCells {
    cells: Vec<CellId>,
}

/// Declare the dynamic figure's staggered-arrival cells.
pub fn plan_dynamic(plan: &mut Plan, rc: &RunnerConfig) -> DynamicCells {
    let stagger = (500_000.0 * rc.scale).max(100_000.0) as u64;
    let mut cells = Vec::new();
    for app in DYN_APPS {
        cells.push(plan.cell(RunRequest::staggered(app, stagger, PolicyKind::Linux, rc)));
        for p in DYN_POLICIES {
            cells.push(plan.cell(RunRequest::staggered(app, stagger, p, rc)));
        }
    }
    DynamicCells { cells }
}

/// Fold the dynamic figure: improvement over Linux per application.
pub fn fold_dynamic(cells: &DynamicCells, executed: &Executed) -> FigureSummary {
    let per_app = 1 + DYN_POLICIES.len();
    let rows = DYN_APPS
        .iter()
        .zip(cells.cells.chunks_exact(per_app))
        .map(|(&app, ids)| {
            let linux = executed.get(ids[0]).mean_turnaround_us;
            ExperimentRow {
                app: app.name().to_string(),
                values: DYN_POLICIES
                    .iter()
                    .enumerate()
                    .map(|(i, p)| {
                        (
                            p.series_label(),
                            improvement_pct(linux, executed.get(ids[i + 1]).mean_turnaround_us),
                        )
                    })
                    .collect(),
            }
        })
        .collect();
    FigureSummary {
        id: "dynamic".into(),
        title: "Staggered arrivals into a live background — improvement % over Linux".into(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staggered_jobs_finish_and_policies_handle_arrivals() {
        let rc = RunnerConfig::quick();
        for p in [PolicyKind::Linux, PolicyKind::Window] {
            let t = staggered_run(PaperApp::Volrend, p, 100_000, &rc).mean_turnaround_us;
            // 600 ms of scaled work in a multiprogrammed open system:
            // bounded well below the hard cap, above solo time.
            assert!((550_000.0..5_000_000.0).contains(&t), "{}: {t}", p.label());
        }
    }

    #[test]
    fn late_arrivals_are_not_starved_by_established_jobs() {
        // The second instance arrives into a system whose estimator
        // already knows everyone else; the head-of-list rule must still
        // cycle it in. Turnaround within 4x of the first instance's.
        let rc = RunnerConfig::quick();
        let mean = staggered_run(PaperApp::Cg, PolicyKind::Latest, 100_000, &rc).mean_turnaround_us;
        assert!(mean < 4_000_000.0, "mean turnaround {mean}");
    }

    #[test]
    fn staggered_run_reports_both_instances() {
        let rc = RunnerConfig::quick();
        let r = staggered_run(PaperApp::Volrend, PolicyKind::Window, 100_000, &rc);
        assert_eq!(r.turnarounds_us.len(), 2);
        assert!(r.completion.is_finished());
        let mean = (r.turnarounds_us[0] + r.turnarounds_us[1]) / 2.0;
        assert_eq!(mean.to_bits(), r.mean_turnaround_us.to_bits());
    }
}
