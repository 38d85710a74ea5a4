//! `experiments regret`: ranking every policy against the offline
//! optimum.
//!
//! The `busbw_core::oracle` branch-and-bound search finds the best gang
//! schedule a clairvoyant scheduler could have produced on a small
//! instance — the simulator itself is the cost evaluator, so "optimal"
//! accounts for bus contention, cache warmth, and completion-time
//! rescheduling exactly as the heuristics experience them. This figure
//! scores the seven preset policies plus a seeded sample of the
//! [`StackSpec`] space by **regret**: how many percent worse each
//! policy's mean turnaround is than the best cost observed on the same
//! cell (the oracle or, where the node budget truncates the search, the
//! best of all compared schedules — regret is never negative by
//! construction).
//!
//! The oracle run itself goes through the job graph as
//! [`RunShape::Oracle`](crate::jobgraph::RunShape): the search records
//! its winning decision sequence, replays it on a fresh machine, and
//! folds the replay through the ordinary `finalize_run` path, so an
//! oracle cell produces the same [`RunResult`] shape (and run-cache
//! entry) as any heuristic cell.

use std::borrow::Cow;

use busbw_core::pipeline::PAPER_QUANTUM_US;
use busbw_core::{offline_optimal, FixedPlanScheduler, OracleReport, OracleSearchConfig};
use busbw_metrics::{ExperimentRow, FigureSummary};
use busbw_sim::{AppId, Machine};
use busbw_workloads::mix::WorkloadSpec;
use busbw_workloads::paper::DEFAULT_SOLO_WORK_US;
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::audit::mix_from_names;
use crate::jobgraph::{CellId, Executed, Plan, RunRequest, Workload};
use crate::policy::{AdmissionKind, EstimatorKind, PlacerKind, SelectorKind, StackSpec};
use crate::runner::{finalize_run, prepare_run, OracleStats, PolicyKind, RunResult, RunnerConfig};

/// The seven preset policies ranked by the figure (the audit preset
/// suite's list).
pub(crate) const REGRET_PRESETS: [PolicyKind; 7] = [
    PolicyKind::Latest,
    PolicyKind::Window,
    PolicyKind::Linux,
    PolicyKind::LinuxO1,
    PolicyKind::RoundRobinGang,
    PolicyKind::RandomGang(7),
    PolicyKind::GreedyPack,
];

/// Number of sampled [`StackSpec`]s ranked alongside the presets.
pub(crate) const REGRET_SAMPLED_STACKS: usize = 20;

/// Node budget per oracle cell. Regret instances are three gangs on four
/// cpus; the seeds give a finite incumbent before the tree is entered,
/// so a truncated search still reports a cost no preset beats. Trees
/// grow with scale: at 0.03 both mixes finish well inside the budget,
/// while from about 0.07 up CG+SP+MG spends all of it and reports
/// `complete = false`.
const REGRET_NODE_BUDGET: u64 = 2_000;

/// The small §5-flavored instances the oracle can afford: two three-gang
/// all-measured mixes (a set-A-style heavy pair + light app, and a
/// set-C-style heavy/moderate/light spread).
pub fn regret_mixes() -> Vec<WorkloadSpec> {
    vec![
        mix_from_names(&["CG", "SP", "MG"]).expect("known paper apps"),
        mix_from_names(&["CG", "LU CB", "Volrend"]).expect("known paper apps"),
    ]
}

/// A deterministic sample of the `StackSpec` space: `n` distinct stacks
/// drawn from `seed`, deduplicated by label. Quanta are restricted to
/// round values ≥ 100 ms so cells stay cheap and comparable to the
/// presets.
pub(crate) fn sampled_stacks(seed: u64, n: usize) -> Vec<StackSpec> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x005E_ED0F_5EED);
    let mut out: Vec<StackSpec> = Vec::with_capacity(n);
    let mut labels = std::collections::BTreeSet::new();
    while out.len() < n {
        let s = StackSpec {
            estimator: match rng.gen_range(0..5u32) {
                0 => EstimatorKind::Latest,
                1 => EstimatorKind::Window(rng.gen_range(1..8usize)),
                2 => EstimatorKind::Ewma(rng.gen_range(1..8usize)),
                3 => EstimatorKind::Raw,
                _ => EstimatorKind::Null,
            },
            admission: [
                AdmissionKind::Head,
                AdmissionKind::StrictHead,
                AdmissionKind::Fcfs,
                AdmissionKind::Widest,
                AdmissionKind::Open,
            ][rng.gen_range(0..5usize)],
            selector: match rng.gen_range(0..5u32) {
                0 => SelectorKind::Fitness,
                1 => SelectorKind::Random(rng.gen_range(0..1000u64)),
                2 => SelectorKind::Greedy,
                3 => SelectorKind::Lookahead,
                _ => SelectorKind::None,
            },
            placer: [
                PlacerKind::Packed,
                PlacerKind::Scatter,
                PlacerKind::Smt,
                PlacerKind::PackLocal,
                PlacerKind::SpreadSockets,
                PlacerKind::Migrate,
            ][rng.gen_range(0..6usize)],
            quantum_us: [100_000, 200_000, 400_000][rng.gen_range(0..3usize)],
        };
        if labels.insert(s.label()) {
            out.push(s);
        }
    }
    out
}

/// An oracle run's result, with [`RunResult::oracle`] set, plus the
/// search report — what the audit differential inspects
/// ([`OracleReport::root_lower_bound_us`] must never exceed
/// [`OracleReport::best_cost_us`]).
#[derive(Debug)]
pub struct OracleOutcome {
    /// The replayed optimal schedule, folded like any other run.
    pub(crate) result: RunResult,
    /// Search accounting: bounds, prunes, completeness.
    pub report: OracleReport,
}

/// The search's configuration for `rc`: the paper's quantum, and a
/// horizon equal to the runner's hard cap, so oracle costs are censored
/// on exactly the same boundary as heuristic runs.
fn search_config(rc: &RunnerConfig) -> OracleSearchConfig {
    OracleSearchConfig {
        quantum_us: PAPER_QUANTUM_US,
        horizon_us: (DEFAULT_SOLO_WORK_US * rc.scale * rc.hard_cap_factor) as u64,
        node_budget: REGRET_NODE_BUDGET,
        lb_slack_us: 1.0,
    }
}

/// The instance every candidate of the search runs on a clone of, built
/// untraced exactly as a preset's run of `spec` is, and its measured apps.
fn search_template(spec: &WorkloadSpec, rc: &RunnerConfig) -> (Machine, Vec<AppId>) {
    let rc_off = RunnerConfig {
        trace: crate::runner::TraceMode::Off,
        ..*rc
    };
    let template = prepare_run(spec, PolicyKind::OfflineOptimal, &rc_off);
    let measured = template.measured_ids().to_vec();
    (template.into_machine(), measured)
}

/// Search for the offline-optimal schedule of `spec` and return both the
/// replayed [`RunResult`] and the search report.
///
/// Seeds are the seven `REGRET_PRESETS`, each run once on a clone of
/// the template, which makes the oracle's reported cost structurally ≤
/// every preset on the same cell.
pub fn oracle_outcome(spec: &WorkloadSpec, rc: &RunnerConfig) -> OracleOutcome {
    let cfg = search_config(rc);
    let (template, measured) = search_template(spec, rc);
    let seeds = REGRET_PRESETS.iter().map(PolicyKind::build).collect();

    // Instances built by `build_machine` seed each gang's demand model
    // independently (seed + instance index), so even same-name instances
    // are not bit-identical — no symmetry classes are declared here.
    let report = offline_optimal(
        &template,
        &measured,
        &cfg,
        seeds,
        &[],
        &crate::pool::CurrentPool,
    );

    // Replay the winning plan on a fresh machine honoring the caller's
    // trace wiring, and fold it through the ordinary result path.
    let mut p = prepare_run(spec, PolicyKind::OfflineOptimal, rc);
    let stop = p.stop_condition();
    let mut sched = FixedPlanScheduler::new(report.best_plan.clone());
    let out = p.machine.run(&mut sched, stop);
    let result = RunResult {
        oracle: Some(OracleStats::from(&report)),
        ..finalize_run(p, out)
    };
    OracleOutcome { result, report }
}

/// [`RunShape::Oracle`](crate::jobgraph::RunShape)'s executor: the
/// replayed optimal schedule as a plain [`RunResult`].
pub(crate) fn oracle_run(spec: &WorkloadSpec, rc: &RunnerConfig) -> RunResult {
    oracle_outcome(spec, rc).result
}

/// One ranked competitor of the regret figure.
#[derive(Debug, Clone)]
enum Competitor {
    Oracle,
    Preset(PolicyKind),
    Sampled(StackSpec),
}

impl Competitor {
    fn label(&self) -> String {
        match self {
            Competitor::Oracle => "Oracle".into(),
            Competitor::Preset(p) => p.label(),
            Competitor::Sampled(s) => s.label(),
        }
    }
}

/// Cell handles for the regret figure: for each mix, the oracle cell
/// followed by one cell per competitor.
#[derive(Debug)]
pub struct RegretCells {
    mixes: Vec<String>,
    competitors: Vec<String>,
    /// `cells[mix][competitor]`, competitor order = `competitors`.
    cells: Vec<Vec<CellId>>,
}

fn competitors(rc: &RunnerConfig) -> Vec<Competitor> {
    let mut out = vec![Competitor::Oracle];
    out.extend(REGRET_PRESETS.iter().map(|&p| Competitor::Preset(p)));
    out.extend(
        sampled_stacks(rc.seed, REGRET_SAMPLED_STACKS)
            .into_iter()
            .map(Competitor::Sampled),
    );
    out
}

/// Declare the regret figure's cells: every competitor (oracle, presets,
/// sampled stacks) over every small mix.
pub fn plan_regret(plan: &mut Plan, rc: &RunnerConfig) -> RegretCells {
    let comps = competitors(rc);
    let mixes = regret_mixes();
    let cells = mixes
        .iter()
        .map(|mix| {
            let workload = Workload::new(mix.clone());
            comps
                .iter()
                .map(|c| {
                    plan.cell(match c {
                        Competitor::Oracle => RunRequest::oracle(&workload, rc),
                        Competitor::Preset(p) => RunRequest::spec(&workload, *p, rc),
                        Competitor::Sampled(s) => {
                            RunRequest::spec(&workload, PolicyKind::Stack(*s), rc)
                        }
                    })
                })
                .collect()
        })
        .collect();
    RegretCells {
        mixes: mixes.into_iter().map(|m| m.name).collect(),
        competitors: comps.iter().map(Competitor::label).collect(),
        cells,
    }
}

/// Fold the regret figure: per-mix regret % of each competitor against
/// the best cost observed on that mix (oracle included), plus the mean
/// over mixes, rows ranked by mean regret ascending (label-tie-broken).
pub fn fold_regret(cells: &RegretCells, executed: &Executed) -> FigureSummary {
    // Best per mix = min over every competitor *including* the oracle, so
    // regret is ≥ 0 even if a truncated search leaves the oracle above a
    // heuristic (the audit invariant separately requires it does not).
    let best: Vec<f64> = cells
        .cells
        .iter()
        .map(|row| {
            row.iter()
                .map(|&id| executed.get(id).mean_turnaround_us)
                .fold(f64::INFINITY, f64::min)
        })
        .collect();

    let mut rows: Vec<ExperimentRow> = cells
        .competitors
        .iter()
        .enumerate()
        .map(|(ci, label)| {
            let mut values: Vec<(Cow<'static, str>, f64)> =
                Vec::with_capacity(cells.mixes.len() + 1);
            let mut sum = 0.0;
            for (mi, mix) in cells.mixes.iter().enumerate() {
                let cost = executed.get(cells.cells[mi][ci]).mean_turnaround_us;
                let regret = if best[mi] > 0.0 {
                    100.0 * (cost - best[mi]) / best[mi]
                } else {
                    0.0
                };
                values.push((format!("regret%({mix})").into(), regret));
                sum += regret;
            }
            values.push(("mean_regret%".into(), sum / cells.mixes.len() as f64));
            ExperimentRow {
                app: label.clone(),
                values,
            }
        })
        .collect();
    rows.sort_by(|a, b| {
        let ka = a.values.last().expect("mean column").1;
        let kb = b.values.last().expect("mean column").1;
        ka.partial_cmp(&kb)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.app.cmp(&b.app))
    });
    FigureSummary {
        id: "regret".into(),
        title: format!(
            "regret vs offline optimal (%) — {} presets + {} sampled stacks, {} mixes",
            REGRET_PRESETS.len(),
            REGRET_SAMPLED_STACKS,
            cells.mixes.len()
        ),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobgraph::run_figure;
    use crate::runner::run_spec;
    use busbw_core::{oracle_simulate as simulate, record_run, SimNode};

    fn rc() -> RunnerConfig {
        RunnerConfig {
            scale: 0.05,
            ..RunnerConfig::default()
        }
    }

    #[test]
    fn sampled_stacks_are_distinct_and_deterministic() {
        let a = sampled_stacks(42, REGRET_SAMPLED_STACKS);
        let b = sampled_stacks(42, REGRET_SAMPLED_STACKS);
        assert_eq!(a, b);
        let labels: std::collections::BTreeSet<String> = a.iter().map(StackSpec::label).collect();
        assert_eq!(labels.len(), REGRET_SAMPLED_STACKS, "labels collide");
        assert_ne!(a, sampled_stacks(43, REGRET_SAMPLED_STACKS));
    }

    #[test]
    fn oracle_outcome_is_admissible_and_beats_every_preset() {
        let mix = mix_from_names(&["CG", "Volrend"]).unwrap();
        let rc = rc();
        let o = oracle_outcome(&mix, &rc);
        assert!(
            o.report.root_lower_bound_us <= o.report.best_cost_us,
            "LB {} above cost {}",
            o.report.root_lower_bound_us,
            o.report.best_cost_us
        );
        for p in REGRET_PRESETS {
            let h = run_spec(&mix, p, &rc);
            assert!(
                o.result.mean_turnaround_us <= h.mean_turnaround_us + 1e-6,
                "oracle {} worse than {} at {}",
                o.result.mean_turnaround_us,
                p.label(),
                h.mean_turnaround_us
            );
        }
    }

    #[test]
    fn oracle_replay_reproduces_the_search_cost() {
        let mix = mix_from_names(&["CG", "Volrend"]).unwrap();
        let rc = rc();
        let o = oracle_outcome(&mix, &rc);
        let total: f64 = o.result.turnarounds_us.iter().sum();
        assert_eq!(
            total as u64, o.report.best_cost_us,
            "replayed plan cost diverged from the search's evaluation"
        );
    }

    /// `(nodes, leaves, bound_prunes, complete, best_cost_us,
    /// root_lower_bound_us, best_plan.len())` of one search.
    fn report_fields(r: &OracleReport) -> (u64, u64, u64, bool, u64, u64, usize) {
        (
            r.nodes,
            r.leaves,
            r.bound_prunes,
            r.complete,
            r.best_cost_us,
            r.root_lower_bound_us,
            r.best_plan.len(),
        )
    }

    /// The search's whole accounting, pinned at the ledger's oracle-probe
    /// scale (0.03, both searches complete) and at 0.07, where CG+SP+MG
    /// spends the whole node budget and reports `complete = false`; and
    /// how many of its bound prunes were decided before simulating.
    #[test]
    fn oracle_reports_are_pinned() {
        let at = |scale: f64| RunnerConfig {
            scale,
            workers: 1,
            ..RunnerConfig::default()
        };
        let mixes = regret_mixes();
        let reports: Vec<_> = [(&mixes[0], 0.03), (&mixes[1], 0.03), (&mixes[0], 0.07)]
            .into_iter()
            .map(|(mix, scale)| oracle_outcome(mix, &at(scale)).report)
            .collect();
        let got: Vec<_> = reports.iter().map(report_fields).collect();
        assert_eq!(
            got,
            vec![
                (144, 17, 75, true, 1_050_074, 539_997, 5),
                (24, 10, 7, true, 786_688, 539_997, 4),
                (2000, 29, 1468, false, 2_499_597, 1_259_997, 8),
            ]
        );
        let presim: Vec<u64> = reports.iter().map(|r| r.presim_prunes).collect();
        assert_eq!(presim, vec![61, 7, 1400]);
    }

    /// A seed is recorded and scored in one run: on both mixes at the
    /// pinned scales, each preset's recorded run ends where `simulate` of
    /// its decision log on the same template does, cost included.
    #[test]
    fn recorded_seed_runs_score_like_their_replays() {
        for scale in [0.03, 0.07] {
            let rc = RunnerConfig {
                scale,
                workers: 1,
                ..RunnerConfig::default()
            };
            let cfg = search_config(&rc);
            for mix in regret_mixes() {
                let (template, measured) = search_template(&mix, &rc);
                for p in REGRET_PRESETS {
                    let (recorded, plan) =
                        record_run(template.clone(), &measured, &mut *p.build(), &cfg);
                    assert!(
                        matches!(recorded, SimNode::Leaf { .. } | SimNode::Censored { .. }),
                        "{} on {} at {scale}: {recorded:?}",
                        p.label(),
                        mix.name
                    );
                    let replayed = simulate(template.clone(), &measured, &plan, &cfg);
                    assert_eq!(
                        recorded,
                        replayed,
                        "{} on {} at {scale}",
                        p.label(),
                        mix.name
                    );
                }
            }
        }
    }

    /// Where the search's candidate simulations run never shows in its
    /// report: on the pinned cases, the search inside a pool of 2 or 8
    /// workers reports exactly what the serial search does.
    #[test]
    fn oracle_reports_match_serial_inside_the_pool() {
        let mixes = regret_mixes();
        let cases = [(&mixes[0], 0.03), (&mixes[1], 0.03), (&mixes[0], 0.07)];
        let search = |&(mix, scale): &(&WorkloadSpec, f64)| {
            let rc = RunnerConfig {
                scale,
                workers: 1,
                ..RunnerConfig::default()
            };
            oracle_outcome(mix, &rc).report
        };
        // The serial searches run on a thread of their own, alongside the
        // pooled ones, to keep this test's wall time down.
        let (serial, pooled) = std::thread::scope(|s| {
            let serial = s.spawn(|| cases.iter().map(search).collect::<Vec<_>>());
            let pooled = [2, 8].map(|workers| (workers, crate::pool::map(&cases, workers, search)));
            (serial.join().expect("the serial searches ran"), pooled)
        });
        for (workers, (reports, stats)) in pooled {
            assert!(stats.subtasks > 0, "the searches fanned nothing out");
            assert_eq!(reports, serial, "workers = {workers}");
        }
    }

    #[test]
    fn regret_figure_ranks_all_competitors_nonnegatively() {
        let rc = rc();
        let fig = run_figure(&rc, |p| plan_regret(p, &rc), fold_regret);
        assert_eq!(fig.id, "regret");
        // Oracle + 7 presets + 20 sampled stacks.
        assert_eq!(
            fig.rows.len(),
            1 + REGRET_PRESETS.len() + REGRET_SAMPLED_STACKS
        );
        let mixes = regret_mixes().len();
        let mut prev = f64::NEG_INFINITY;
        for row in &fig.rows {
            assert_eq!(row.values.len(), mixes + 1, "{row:?}");
            for (label, v) in &row.values {
                assert!(v.is_finite() && *v >= 0.0, "{}: {label} = {v}", row.app);
            }
            let mean = row.values.last().unwrap().1;
            assert!(mean >= prev, "rows not ranked ascending");
            prev = mean;
        }
        // Someone achieves the per-mix best, so the top row has 0 regret
        // somewhere; with the oracle seeded by every preset it is the
        // oracle itself.
        assert_eq!(fig.rows[0].app, "Oracle");
        assert_eq!(fig.rows[0].values.last().unwrap().1, 0.0);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(3))]
            /// The oracle never loses to a preset on a random small cell.
            #[test]
            fn oracle_is_at_most_every_preset(names_i in 0usize..3, seed in 0u64..50) {
                let pair = [["CG", "SP"], ["MG", "Volrend"], ["CG", "LU CB"]][names_i];
                let mix = mix_from_names(&pair).unwrap();
                let rc = RunnerConfig { scale: 0.04, seed, ..RunnerConfig::default() };
                let o = oracle_outcome(&mix, &rc);
                prop_assert!(o.report.root_lower_bound_us <= o.report.best_cost_us);
                for p in REGRET_PRESETS {
                    let h = run_spec(&mix, p, &rc);
                    prop_assert!(
                        o.result.mean_turnaround_us <= h.mean_turnaround_us + 1e-6,
                        "oracle {} vs {} {}", o.result.mean_turnaround_us, p.label(), h.mean_turnaround_us
                    );
                }
            }
        }
    }
}
