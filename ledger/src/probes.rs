//! Fixed-input probes of single layers, run after the traced passes.
//!
//! A workload pass reaches the engine, the oracle and managerd only
//! through `Engine::execute`, which the benchmark cannot look inside.
//! These probes call each of those layers directly, on inputs made from
//! the run's seed that do not depend on the workload, so a change to one
//! layer shows up in its own metrics on every traced run:
//!
//! * `sim.*`, `bus.*`, `stage.*`, `codec.*`: the four `bench tick-rate`
//!   cells plus one quad-socket topology cell, run plain and with the
//!   phase profiler on, then round-tripped through the run codec;
//! * `oracle.*`: the branch-and-bound search on both regret mixes;
//! * `managerd.*`: one open-system serve at four times the base rate;
//! * `figure.*`: each figure of the `all` sweep planned and executed
//!   alone, which attributes sweep wall time to figures.

use std::time::Instant;

use busbw_experiments::ablate::{plan_fitness, plan_quantum, plan_smt, plan_stages, plan_window};
use busbw_experiments::cache::{decode_result, encode_result};
use busbw_experiments::jobgraph::{Engine, Plan};
use busbw_experiments::open::{OpenSpec, OpenStack, DEFAULT_QUEUE_CAPACITY};
use busbw_experiments::suite::{SUITE_ROBUSTNESS_JOBS, SUITE_ROBUSTNESS_TRIALS};
use busbw_experiments::{
    open_run, oracle_outcome, parse_arrivals, regret_mixes, run_spec, run_spec_profiled, Fig2Set,
    PolicyKind, RunResult, RunnerConfig, StackSpec, TopoShape, TraceMode,
};
use busbw_sim::{Phase, PhaseSet, StageTimings, STAGE_NAMES};
use busbw_workloads::mix::{fig1_solo, fig1_with_bbma, fig2_set_a, fig2_set_b, fig2_set_c};
use busbw_workloads::paper::PaperApp;

use crate::spans::Recorder;
use crate::{median, Metric, OPEN_BASE_RATE, OPEN_DURATION_US, WORKERS};

/// Repetitions of the sim and codec probes; their times are medians.
const PROBE_REPS: usize = 5;
/// Work-volume scale of the sim probe (the `bench tick-rate` slice).
const SIM_SCALE: f64 = 0.1;
/// The engine phases the sim probe reports. `Phase::Trace` is timed
/// only while a recording sink is attached, and the machine never records
/// `Phase::Codec`; the codec probe times the run codec instead.
const SIM_PHASES: [Phase; 7] = [
    Phase::Schedule,
    Phase::Barrier,
    Phase::Replay,
    Phase::Placement,
    Phase::Demand,
    Phase::Solve,
    Phase::Commit,
];
/// Scale of the oracle probe: small enough that both searches finish
/// well inside the node budget.
const ORACLE_SCALE: f64 = 0.03;
/// Scale of the managerd probe.
const MANAGERD_SCALE: f64 = 0.1;
/// Scale of the figure probe: the `sweep-*` workloads' scale.
const FIGURE_SCALE: f64 = 0.1;

/// The figures of `experiments all`, each planned on its own. Both
/// Figure 1 panels fold one cell set, so they are one entry.
const FIGURES: [&str; 12] = [
    "fig1",
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
    "ablate-stages",
];

/// Run every probe, recording one span per layer call under trace id
/// `trace`, and append their metrics to `out`. A probe whose output fails
/// its check appends to `errors`.
pub fn run(
    rec: &mut Recorder,
    trace: u64,
    seed: u64,
    size: f64,
    out: &mut Vec<Metric>,
    errors: &mut Vec<String>,
) {
    let results = sim(rec, trace, seed, size, out, errors);
    codec(rec, trace, &results, out, errors);
    oracle(rec, trace, seed, size, out, errors);
    managerd(rec, trace, seed, size, out);
    figures(rec, trace, seed, size, out);
}

fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

fn sim_cells(
    seed: u64,
    size: f64,
) -> Vec<(busbw_workloads::mix::WorkloadSpec, PolicyKind, RunnerConfig)> {
    // A null-sink tracer attached, as in `bench tick-rate`, so the cost
    // of the emission checks is part of the measured engine.
    let rc = RunnerConfig {
        scale: SIM_SCALE * size,
        seed,
        workers: 1,
        trace: TraceMode::Null,
        ..RunnerConfig::default()
    };
    let quad = RunnerConfig {
        machine: TopoShape::Quad.machine(&rc),
        ..rc
    };
    let pack_local = StackSpec::parse("placer=pack_local").expect("pack_local is a known placer");
    vec![
        (fig1_solo(PaperApp::Cg), PolicyKind::Linux, rc),
        (fig1_with_bbma(PaperApp::Cg), PolicyKind::Linux, rc),
        (fig2_set_a(PaperApp::Mg), PolicyKind::Window, rc),
        (fig2_set_b(PaperApp::Raytrace), PolicyKind::Latest, rc),
        (
            fig2_set_c(PaperApp::Cg),
            PolicyKind::Stack(pack_local),
            quad,
        ),
    ]
}

/// The simulated outputs a profiled run must reproduce.
fn sim_outputs(r: &RunResult) -> (u64, u64, u64) {
    (r.ticks, r.sim_elapsed_us, r.mean_turnaround_us.to_bits())
}

fn sim(
    rec: &mut Recorder,
    trace: u64,
    seed: u64,
    size: f64,
    out: &mut Vec<Metric>,
    errors: &mut Vec<String>,
) -> Vec<RunResult> {
    let cells = sim_cells(seed, size);
    let mut plain_s = Vec::new();
    let mut profiled_s = Vec::new();
    let mut phase_ns: Vec<Vec<f64>> = vec![Vec::new(); SIM_PHASES.len()];
    let mut stage_ns: Vec<Vec<f64>> = vec![Vec::new(); STAGE_NAMES.len()];
    let mut phases = PhaseSet::new();
    let mut stages = StageTimings::default();
    let mut results = Vec::new();
    for rep in 0..PROBE_REPS {
        // Alternate which run goes first so neither always pays for the
        // other's cache misses.
        for profiled in [rep % 2 == 1, rep % 2 == 0] {
            if profiled {
                let (_, (s, runs)) = rec.span(trace, "sim.profiled", |_| {
                    timed(|| {
                        cells
                            .iter()
                            .map(|(spec, p, rc)| run_spec_profiled(spec, *p, rc))
                            .collect::<Vec<_>>()
                    })
                });
                profiled_s.push(s);
                phases = PhaseSet::new();
                for (_, set) in &runs {
                    phases.merge(set);
                }
                // Rep 0 runs plain first, so `results` is always filled here.
                for (i, ((r, _), plain)) in runs.iter().zip(&results).enumerate() {
                    if sim_outputs(r) != sim_outputs(plain) {
                        errors.push(format!(
                            "sim probe: profiled cell {i} differs from the plain run"
                        ));
                    }
                }
                for (k, &p) in SIM_PHASES.iter().enumerate() {
                    phase_ns[k].push(phases.stat(p).total_ns as f64);
                }
            } else {
                let (_, (s, runs)) = rec.span(trace, "sim.run", |_| {
                    timed(|| {
                        cells
                            .iter()
                            .map(|(spec, p, rc)| run_spec(spec, *p, rc))
                            .collect::<Vec<_>>()
                    })
                });
                plain_s.push(s);
                stages = StageTimings::default();
                for t in runs.iter().filter_map(|r| r.stage_timings.as_ref()) {
                    stages.merge(t);
                }
                for (k, (_, st)) in stages.named().enumerate() {
                    stage_ns[k].push(st.total_ns as f64);
                }
                results = runs;
            }
        }
    }

    let n = PROBE_REPS;
    let plain = median(&plain_s);
    let ticks: u64 = results.iter().map(|r| r.ticks).sum();
    let sim_s = results.iter().map(|r| r.sim_elapsed_us).sum::<u64>() as f64 / 1e6;
    out.push(Metric::count("sim.ticks", ticks as f64));
    out.push(Metric::new("sim.sim_s", sim_s, "s", 1));
    out.push(Metric::new(
        "sim.ticks_per_s",
        ticks as f64 / plain,
        "1/s",
        n,
    ));
    out.push(Metric::new("sim.sim_s_per_host_s", sim_s / plain, "s/s", n));
    for (k, &p) in SIM_PHASES.iter().enumerate() {
        let name = p.name();
        out.push(Metric::count(
            &format!("sim.phase.{name}.calls"),
            phases.stat(p).calls as f64,
        ));
        out.push(Metric::new(
            &format!("sim.phase.{name}.ns"),
            median(&phase_ns[k]),
            "ns",
            n,
        ));
    }
    out.push(Metric::new(
        "sim.profile_overhead_frac",
        median(&profiled_s) / plain - 1.0,
        "frac",
        n,
    ));

    let hits: u64 = results.iter().map(|r| r.memo_hits).sum();
    let misses: u64 = results.iter().map(|r| r.memo_misses).sum();
    out.push(Metric::count("bus.memo_hits", hits as f64));
    out.push(Metric::count("bus.memo_misses", misses as f64));
    out.push(Metric::new(
        "bus.memo_hit_frac",
        ratio(hits as f64, (hits + misses) as f64),
        "frac",
        1,
    ));

    for (k, (name, st)) in stages.named().enumerate() {
        out.push(Metric::count(
            &format!("stage.{name}.calls"),
            st.calls as f64,
        ));
        out.push(Metric::new(
            &format!("stage.{name}.ns"),
            median(&stage_ns[k]),
            "ns",
            n,
        ));
    }
    results
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn codec(
    rec: &mut Recorder,
    trace: u64,
    results: &[RunResult],
    out: &mut Vec<Metric>,
    errors: &mut Vec<String>,
) {
    let cells = results.len() as f64;
    let mut encode_ns = Vec::new();
    let mut decode_ns = Vec::new();
    let mut bytes = 0;
    for _ in 0..PROBE_REPS {
        let (_, (enc_s, encoded)) = rec.span(trace, "codec.encode", |_| {
            timed(|| results.iter().map(encode_result).collect::<Vec<_>>())
        });
        let (_, (dec_s, decoded)) = rec.span(trace, "codec.decode", |_| {
            timed(|| encoded.iter().map(|b| decode_result(b)).collect::<Vec<_>>())
        });
        encode_ns.push(enc_s * 1e9 / cells);
        decode_ns.push(dec_s * 1e9 / cells);
        bytes = encoded.iter().map(Vec::len).sum::<usize>();
        for (i, (b, d)) in encoded.iter().zip(&decoded).enumerate() {
            match d {
                Ok(r) if encode_result(r) == *b => {}
                _ => errors.push(format!("codec probe: cell {i} does not round-trip")),
            }
        }
    }
    out.push(Metric::new(
        "codec.encode_ns",
        median(&encode_ns),
        "ns",
        PROBE_REPS,
    ));
    out.push(Metric::new(
        "codec.decode_ns",
        median(&decode_ns),
        "ns",
        PROBE_REPS,
    ));
    out.push(Metric::new("codec.bytes", bytes as f64 / cells, "bytes", 1));
}

fn oracle(
    rec: &mut Recorder,
    trace: u64,
    seed: u64,
    size: f64,
    out: &mut Vec<Metric>,
    errors: &mut Vec<String>,
) {
    let rc = RunnerConfig {
        scale: ORACLE_SCALE * size,
        seed,
        workers: 1,
        ..RunnerConfig::default()
    };
    let mixes = regret_mixes();
    let (mut secs, mut nodes, mut leaves, mut bound, mut complete, mut gap) =
        (0.0, 0, 0, 0, 0, 0.0);
    for mix in &mixes {
        let (_, (s, o)) = rec.span(trace, "oracle", |_| timed(|| oracle_outcome(mix, &rc)));
        let r = &o.report;
        if r.root_lower_bound_us > r.best_cost_us {
            errors.push(format!(
                "oracle probe: root bound {} exceeds best cost {} on {}",
                r.root_lower_bound_us, r.best_cost_us, mix.name
            ));
        }
        secs += s;
        nodes += r.nodes;
        leaves += r.leaves;
        bound += r.bound_prunes;
        complete += u64::from(r.complete);
        gap += ratio(
            r.best_cost_us.saturating_sub(r.root_lower_bound_us) as f64,
            r.best_cost_us as f64,
        );
    }
    // The regret mixes declare no symmetry classes, so symmetry prunes are
    // always 0 and not reported.
    let n = mixes.len();
    out.push(Metric::new("oracle.search_s", secs, "s", n));
    out.push(Metric::count("oracle.nodes", nodes as f64));
    out.push(Metric::count("oracle.leaves", leaves as f64));
    out.push(Metric::count("oracle.bound_prunes", bound as f64));
    out.push(Metric::count("oracle.complete", complete as f64));
    out.push(Metric::new(
        "oracle.nodes_per_s",
        nodes as f64 / secs,
        "1/s",
        n,
    ));
    out.push(Metric::new(
        "oracle.prune_frac",
        ratio(bound as f64, nodes as f64),
        "frac",
        n,
    ));
    out.push(Metric::new(
        "oracle.root_gap_frac",
        gap / n as f64,
        "frac",
        n,
    ));
}

fn managerd(rec: &mut Recorder, trace: u64, seed: u64, size: f64, out: &mut Vec<Metric>) {
    let rc = RunnerConfig {
        scale: MANAGERD_SCALE * size,
        seed,
        workers: 1,
        ..RunnerConfig::default()
    };
    let spec = OpenSpec {
        arrivals: parse_arrivals(&format!("poisson:{}", 4.0 * OPEN_BASE_RATE))
            .expect("a positive poisson rate parses"),
        duration_us: OPEN_DURATION_US,
        stack: OpenStack::Window,
        queue_capacity: DEFAULT_QUEUE_CAPACITY,
    };
    let (_, (secs, r)) = rec.span(trace, "managerd.serve", |_| timed(|| open_run(&spec, &rc)));
    let open = r.open.expect("an open run carries open stats");
    out.push(Metric::new("managerd.serve_s", secs, "s", 1));
    out.push(Metric::count("managerd.arrived", open.arrived as f64));
    out.push(Metric::count("managerd.shed", open.shed as f64));
    out.push(Metric::count("managerd.served", open.served as f64));
    out.push(Metric::new(
        "managerd.arrivals_per_s",
        open.arrived as f64 / secs,
        "1/s",
        1,
    ));
    out.push(Metric::new(
        "managerd.shed_frac",
        open.shed_rate(),
        "frac",
        1,
    ));
}

fn declare_figure(id: &str, plan: &mut Plan, rc: &RunnerConfig) {
    let fig2 = |plan: &mut Plan, set| {
        busbw_experiments::fig2::plan_fig2(
            plan,
            set,
            &[PolicyKind::Latest, PolicyKind::Window],
            rc,
        );
    };
    match id {
        "fig1" => drop(busbw_experiments::fig1::plan_fig1(plan, rc)),
        "fig2a" => fig2(plan, Fig2Set::A),
        "fig2b" => fig2(plan, Fig2Set::B),
        "fig2c" => fig2(plan, Fig2Set::C),
        "ablate-window" => drop(plan_window(plan, rc)),
        "ablate-quantum" => drop(plan_quantum(plan, rc)),
        "ablate-fitness" => drop(plan_fitness(plan, rc)),
        "ablate-smt" => drop(plan_smt(plan, rc)),
        "dynamic" => drop(busbw_experiments::dynamic::plan_dynamic(plan, rc)),
        "baselines" => drop(busbw_experiments::baselines::plan_baselines(plan, rc)),
        "robustness" => drop(busbw_experiments::robustness::plan_robustness(
            plan,
            SUITE_ROBUSTNESS_TRIALS,
            SUITE_ROBUSTNESS_JOBS,
            rc,
        )),
        "ablate-stages" => drop(plan_stages(plan, rc)),
        other => unreachable!("unknown figure {other}"),
    }
}

fn figures(rec: &mut Recorder, trace: u64, seed: u64, size: f64, out: &mut Vec<Metric>) {
    let rc = RunnerConfig {
        scale: FIGURE_SCALE * size,
        seed,
        workers: WORKERS,
        ..RunnerConfig::default()
    };
    for id in FIGURES {
        let mut plan = Plan::new();
        declare_figure(id, &mut plan, &rc);
        let (_, (secs, _)) = rec.span(trace, id, |_| {
            timed(|| Engine::ephemeral().execute(&plan, WORKERS))
        });
        out.push(Metric::new(&format!("figure.{id}.exec_s"), secs, "s", 1));
    }
}
