//! The figure-regeneration binary.
//!
//! ```text
//! experiments <command> [--scale X] [--seed N] [--out DIR] [--trace-out PATH]
//!                       [--cache-dir DIR] [--no-cache] [--policy SPEC]
//!
//! commands:
//!   fig1a | fig1b | fig2a | fig2b | fig2c   one figure
//!   trace <figure>                           one figure + validated trace
//!   summary                                  §5 max/avg table (needs fig2 runs)
//!   ablate-window | ablate-quantum | ablate-fitness | ablate-smt
//!   ablate --stages                          estimator x selector x placer sweep
//!   bench tick-rate [--guard PCT]            throughput + pipeline-overhead guard
//!   bench profile                             phase-attributed tick-engine breakdown
//!   audit [--fuzz N]                         invariant catalog + differential fuzzer
//!   open [--arrivals SPEC] [--duration S]    open-system managerd tail-latency figure
//!   topo                                      socket-aware placers on 1/2/4-socket shapes
//!   regret                                    presets + sampled stacks vs the offline optimum
//!   all                                      everything above
//! ```
//!
//! `--policy` composes the fig2/summary scheduler from pipeline stages,
//! e.g. `--policy estimator=window:5,selector=fitness,placer=packed`; see
//! [`StackSpec`] for the grammar. `--guard PCT` makes `bench tick-rate`
//! assert that driving the selection logic through the composed pipeline
//! costs less than PCT % versus calling it directly.
//!
//! Output goes to stdout and, per figure, to `<out>/<id>.txt`,
//! `<out>/<id>.csv` and a machine-readable `<out>/<id>.manifest.json`
//! (default `results/`). With `--trace-out PATH` (or the `trace`
//! subcommand) the figure's runs also write a structured JSONL trace,
//! merged deterministically across the parallel runner's workers; the
//! figure numbers are identical to a traceless run.
//!
//! Every command routes its simulator runs through the sweep-wide job
//! graph: cells are deduplicated by content-addressed run key, served
//! from the run cache when possible, and executed on a work-stealing
//! pool. `--cache-dir DIR` persists results across invocations (keyed by
//! the canonical run encoding, so any parameter change misses);
//! `--no-cache` disables caching entirely. Figure outputs are
//! byte-identical for any `--workers` value and any cache state.
//!
//! `audit` runs the [`busbw_audit`] invariant catalog: estimator
//! self-checks, every preset policy over one mix per §5 set, and `--fuzz
//! N` random policy-stack × workload-mix cells, each checked serially
//! and differentially against the multi-worker and cache-warm engine.
//! Any violation is delta-debugged down to a minimal reproducer written
//! to `<out>/repro.json`, and the process exits non-zero. `audit`
//! defaults to `--scale 0.1` (pass `--scale` to override).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use busbw_experiments::ablate::{
    fold_fitness, fold_quantum, fold_smt, fold_stages, fold_window, plan_fitness, plan_quantum,
    plan_smt, plan_stages, plan_window,
};
use busbw_experiments::baselines::{fold_baselines, plan_baselines};
use busbw_experiments::dynamic::{fold_dynamic, plan_dynamic};
use busbw_experiments::fig1::{fig1_results, fold_fig1a, fold_fig1b, plan_fig1};
use busbw_experiments::fig2::{fig2_results, fold_fig2, plan_fig2};
use busbw_experiments::regret::{fold_regret, plan_regret};
use busbw_experiments::robustness::{fold_robustness, plan_robustness};
use busbw_experiments::topo::{fold_topo, plan_topo};
use busbw_experiments::validate::{fold_validate, plan_validate};
use busbw_experiments::variance::{fold_variance, plan_variance};
use busbw_experiments::{
    collect_metrics, effective_workers, fold_suite, merge_traces, plan_suite, render_validation,
    run_audit, AuditConfig, CellStats, Engine, ExecStats, Executed, Fig2Set, Plan, PolicyKind,
    RunCache, RunResult, RunnerConfig, StackSpec, SuiteFigure, TraceMode,
};
use busbw_metrics::{FigureSummary, MetricsRegistry, Table};
use busbw_sim::{StageTimings, STAGE_BUCKET_BOUNDS_NS};
use busbw_trace::{fnv1a64, git_describe, json, ArtifactSum, Manifest, TraceInfo};

fn usage() -> ! {
    eprintln!(
        "usage: experiments <fig1a|fig1b|fig2a|fig2b|fig2c|trace <figure>|summary|ablate-window|ablate-quantum|ablate-fitness|ablate-smt|ablate-stages|ablate --stages|dynamic|open|baselines|robustness|topo|regret|validate|variance|bench tick-rate|bench profile|bench sweep|audit|all> [--scale X] [--seed N] [--workers N] [--out DIR] [--trace-out PATH] [--cache-dir DIR] [--no-cache] [--policy SPEC] [--guard PCT] [--fuzz N] [--arrivals SPEC] [--duration S]\n\n  --policy composes a scheduler from pipeline stages for the fig2 panels\n  and summary, e.g. --policy estimator=window:5,selector=fitness,placer=packed\n  (stages: estimator=latest|window[:n]|ewma[:n]|raw|null,\n   admission=head|strict|fcfs|widest|open,\n   selector=fitness|random[:seed]|greedy|lookahead|none,\n   placer=packed|scatter|smt|pack_local|spread_sockets|migrate, quantum=<ms>)\n  --guard PCT (bench tick-rate) asserts the policy-pipeline indirection\n  costs < PCT % versus driving the same selector directly\n  --fuzz N (audit) sets the number of random differential cells; audit\n  defaults to --scale 0.1 and writes <out>/repro.json on failure\n  --arrivals SPEC (open) picks the arrival process:\n  poisson:<rate|small> | pareto:<rate|small>[:alpha] |\n  diurnal:<rate|small>[:period_s] | trace:diurnal (rates in clients/s)\n  --duration S (open) sets the unscaled horizon in seconds (or `short`)"
    );
    std::process::exit(2);
}

/// Most `--workers` accepted: far past any core count, and short of a
/// thread count that would exhaust the process.
const MAX_WORKERS: usize = 256;

/// Most `--fuzz` cells accepted: a campaign that already runs for hours.
const MAX_FUZZ_CELLS: usize = 10_000;

/// The value after `flag`, checked by `parse`. A missing value prints the
/// usage and a rejected one prints why; both exit 2.
fn flag_value<T>(flag: &str, v: Option<String>, parse: impl Fn(&str) -> Result<T, String>) -> T {
    let v = v.unwrap_or_else(|| usage());
    parse(&v).unwrap_or_else(|e| {
        eprintln!("{flag}: {e}");
        std::process::exit(2);
    })
}

/// Parse an integer in `0..=max`.
fn count(v: &str, max: usize, what: &str) -> Result<usize, String> {
    match v.parse::<usize>() {
        Ok(n) if n <= max => Ok(n),
        _ => Err(format!("bad {what} `{v}` (an integer from 0 to {max})")),
    }
}

struct Args {
    command: String,
    rc: RunnerConfig,
    out: PathBuf,
    trace_out: Option<PathBuf>,
    cache_dir: Option<PathBuf>,
    no_cache: bool,
    policy: Option<StackSpec>,
    guard_pct: Option<f64>,
    fuzz: usize,
    scale_set: bool,
    arrivals: busbw_managerd::ArrivalProcess,
    duration_us: u64,
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let mut command = args.next().unwrap_or_else(|| usage());
    if command == "bench" || command == "trace" {
        // `bench <what>` / `trace <figure>` — two-word commands.
        let sub = args.next().unwrap_or_else(|| usage());
        command = format!("{command} {sub}");
    } else if command == "ablate" {
        // `ablate --stages` and friends alias the one-word spellings.
        command = match args.next().as_deref() {
            Some("--stages") => "ablate-stages".into(),
            Some("--window") => "ablate-window".into(),
            Some("--quantum") => "ablate-quantum".into(),
            Some("--fitness") => "ablate-fitness".into(),
            Some("--smt") => "ablate-smt".into(),
            _ => usage(),
        };
    }
    let mut rc = RunnerConfig::default();
    let mut out = PathBuf::from("results");
    let mut trace_out = None;
    let mut cache_dir = None;
    let mut no_cache = false;
    let mut policy = None;
    let mut guard_pct = None;
    let mut fuzz = 25;
    let mut scale_set = false;
    let mut arrivals = busbw_managerd::ArrivalProcess::Poisson {
        rate_per_s: busbw_experiments::open::SMALL_RATE_PER_S,
    };
    let mut duration_us = busbw_experiments::open::SHORT_DURATION_US;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                rc.scale = flag_value("--scale", args.next(), busbw_experiments::parse_scale);
                scale_set = true;
            }
            "--seed" => {
                rc.seed = flag_value("--seed", args.next(), |v| {
                    v.parse()
                        .map_err(|_| format!("bad seed `{v}` (an integer from 0 to 2^64 - 1)"))
                });
            }
            "--workers" => {
                rc.workers = flag_value("--workers", args.next(), |v| {
                    count(v, MAX_WORKERS, "worker count (0 = one per core)")
                });
            }
            "--out" => {
                out = PathBuf::from(args.next().unwrap_or_else(|| usage()));
            }
            "--trace-out" => {
                trace_out = Some(PathBuf::from(args.next().unwrap_or_else(|| usage())));
            }
            "--cache-dir" => {
                cache_dir = Some(PathBuf::from(args.next().unwrap_or_else(|| usage())));
            }
            "--no-cache" => no_cache = true,
            "--policy" => {
                policy = Some(flag_value("--policy", args.next(), StackSpec::parse));
            }
            "--guard" => {
                guard_pct = Some(flag_value("--guard", args.next(), |v| {
                    match v.parse::<f64>() {
                        Ok(p) if p > 0.0 && p.is_finite() => Ok(p),
                        _ => Err(format!("bad guard `{v}` (a finite percentage > 0)")),
                    }
                }));
            }
            "--fuzz" => {
                fuzz = flag_value("--fuzz", args.next(), |v| {
                    count(v, MAX_FUZZ_CELLS, "fuzz cell count")
                });
            }
            "--arrivals" => {
                arrivals = flag_value("--arrivals", args.next(), busbw_experiments::parse_arrivals);
            }
            "--duration" => {
                duration_us =
                    flag_value("--duration", args.next(), busbw_experiments::parse_duration);
            }
            _ => usage(),
        }
    }
    Args {
        command,
        rc,
        out,
        trace_out,
        cache_dir,
        no_cache,
        policy,
        guard_pct,
        fuzz,
        scale_set,
        arrivals,
        duration_us,
    }
}

/// `bench tick-rate`: run a representative slice of the figure workloads
/// (a coarsenable solo run, a saturated mix, and two time-shared Fig. 2
/// sets) and report the simulator's tick throughput. Writes
/// `BENCH_tick.json` both to the output directory and the working
/// directory so tooling can find it without knowing `--out`.
///
/// The runs execute with a null-sink tracer attached, so the reported
/// throughput *includes* the cost of every emission site — the number the
/// ≤2 % tracing-overhead budget is checked against.
///
/// With `--guard PCT` it also measures the policy-pipeline indirection:
/// the same workload is run under the Linux preset stack and under a
/// [`SoloSelector`](busbw_core::SoloSelector) driving the identical
/// selector directly (same decisions, no estimate/admit/place framing or
/// per-stage timing), interleaved min-of-N, and the run asserts the
/// overhead stays under PCT %.
fn pipeline_overhead_pct(rc: &RunnerConfig) -> (f64, f64, f64) {
    use busbw_core::{linux_like, LinuxConfig, LinuxEpochSelector, SoloSelector};
    use busbw_sim::{AppDescriptor, ConstantDemand, Machine, StopCondition, ThreadSpec};

    // A fixed simulated horizon of endless-work gangs: both schedulers
    // make identical decisions every quantum, the run is long enough
    // (tens of milliseconds of wall time) for sub-percent timing
    // resolution, and the measurement is independent of `--scale`.
    let build = || {
        let mut m = Machine::new(rc.machine);
        for i in 0..4 {
            let threads = (0..2)
                .map(|_| ThreadSpec::new(f64::INFINITY, Box::new(ConstantDemand::new(5.0, 0.6))))
                .collect();
            m.add_app(AppDescriptor::new(format!("a{i}"), threads));
        }
        m
    };
    // On-CPU nanoseconds of the calling thread (Linux schedstat), which
    // excludes preemption and steal time — the dominant noise when
    // benchmarking inside shared containers/CI runners.
    let thread_cpu_ns = || -> Option<u64> {
        let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
        s.split_whitespace().next()?.parse().ok()
    };
    let run = |stack: bool| {
        let mut machine = build();
        let stop = StopCondition::At(15_000_000);
        let cpu0 = thread_cpu_ns();
        let t = std::time::Instant::now();
        if stack {
            machine.run(&mut linux_like(), stop);
        } else {
            let mut solo =
                SoloSelector::new(LinuxEpochSelector::new(), LinuxConfig::default().quantum_us);
            machine.run(&mut solo, stop);
        }
        let wall = t.elapsed().as_secs_f64();
        match (cpu0, thread_cpu_ns()) {
            (Some(a), Some(b)) if b > a => (b - a) as f64 / 1e9,
            _ => wall,
        }
    };
    // One discarded warmup pair, then back-to-back (stack, direct) pairs
    // in alternating order so neither side systematically runs first.
    // Each pair shares its ambient load, so its overhead ratio is nearly
    // noise-free; the median across pairs discards the few pairs a
    // scheduling burst lands inside. Minima are reported for reference.
    run(true);
    run(false);
    let (mut best_stack, mut best_solo) = (f64::INFINITY, f64::INFINITY);
    let mut overheads: Vec<f64> = (0..15)
        .map(|i| {
            let (stack, solo) = if i % 2 == 0 {
                let s = run(true);
                (s, run(false))
            } else {
                let d = run(false);
                (run(true), d)
            };
            best_stack = best_stack.min(stack);
            best_solo = best_solo.min(solo);
            100.0 * (stack - solo) / solo
        })
        .collect();
    overheads.sort_by(f64::total_cmp);
    (best_stack, best_solo, overheads[overheads.len() / 2])
}

/// Extract one numeric field from the flat JSON objects bench writes
/// (no nesting, no string values containing the key pattern).
fn bench_field(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let rest = json[json.find(&pat)? + pat.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The committed `BENCH_tick.json` baseline: `git show HEAD:BENCH_tick.json`
/// when available (so a dirty working copy — including the file this very
/// run is about to overwrite — cannot masquerade as the baseline). Inside a
/// git checkout whose HEAD has no `BENCH_tick.json` — a fresh branch or a
/// shallow CI clone — the gate is skipped with a logged reason rather than
/// silently trusting whatever file a previous run left behind; the
/// working-copy fallback applies only outside a git checkout entirely.
fn committed_baseline() -> Option<(String, &'static str)> {
    match std::process::Command::new("git")
        .args(["show", "HEAD:BENCH_tick.json"])
        .output()
    {
        Ok(o) if o.status.success() => {
            if let Ok(s) = String::from_utf8(o.stdout) {
                return Some((s, "git HEAD"));
            }
            None
        }
        Ok(_) => {
            let in_checkout = std::process::Command::new("git")
                .args(["rev-parse", "--is-inside-work-tree"])
                .output()
                .is_ok_and(|o| o.status.success());
            if in_checkout {
                println!(
                    "\n   no BENCH_tick.json in git HEAD (fresh branch?); regression gate skipped"
                );
                return None;
            }
            std::fs::read_to_string("BENCH_tick.json")
                .ok()
                .map(|s| (s, "working copy"))
        }
        Err(_) => std::fs::read_to_string("BENCH_tick.json")
            .ok()
            .map(|s| (s, "working copy")),
    }
}

/// Measurement repetitions for `bench tick-rate`. The best wall time is
/// reported: the runs are deterministic, so every rep does identical work
/// and the minimum is the least-noise estimate of what the engine costs
/// (medians still carry scheduler preemption on busy hosts). Every rep is
/// recorded in the history sidecar.
const TICK_RATE_REPS: usize = 5;

fn bench_tick_rate(rc: &RunnerConfig, out: &Path, guard_pct: Option<f64>) {
    use busbw_experiments::{pool, run_spec};
    use busbw_workloads::mix::{fig1_solo, fig1_with_bbma, fig2_set_a, fig2_set_b, WorkloadSpec};
    use busbw_workloads::paper::PaperApp;

    let rc = RunnerConfig {
        trace: TraceMode::Null,
        ..*rc
    };
    let jobs: Vec<(WorkloadSpec, PolicyKind)> = vec![
        (fig1_solo(PaperApp::Cg), PolicyKind::Linux),
        (fig1_with_bbma(PaperApp::Cg), PolicyKind::Linux),
        (fig2_set_a(PaperApp::Mg), PolicyKind::Window),
        (fig2_set_b(PaperApp::Raytrace), PolicyKind::Latest),
    ];
    let workers = effective_workers(&rc);

    // Best-of-reps strips host-load waves from the absolute number.
    let mut serial_walls = Vec::with_capacity(TICK_RATE_REPS);
    let mut ticks = 0u64;
    let mut sim_us = 0u64;
    for rep in 0..TICK_RATE_REPS {
        let t0 = std::time::Instant::now();
        let (results, _) = pool::map(&jobs, workers, |(s, p)| run_spec(s, *p, &rc));
        serial_walls.push(t0.elapsed().as_secs_f64());
        let rep_ticks: u64 = results.iter().map(|r| r.ticks).sum();
        let rep_sim_us: u64 = results.iter().map(|r| r.sim_elapsed_us).sum();
        if rep == 0 {
            (ticks, sim_us) = (rep_ticks, rep_sim_us);
        } else {
            assert_eq!(
                (rep_ticks, rep_sim_us),
                (ticks, sim_us),
                "deterministic runs must repeat identically"
            );
        }
    }
    let wall = serial_walls.iter().copied().fold(f64::INFINITY, f64::min);
    let tps = ticks as f64 / wall;
    println!("== bench tick-rate (null-sink tracer attached)\n");
    println!(
        "   runs: {}, workers: {workers}, reps: {TICK_RATE_REPS} (best)",
        jobs.len()
    );
    println!(
        "   wall: {wall:.3} s, ticks: {ticks}, simulated: {:.2} s",
        sim_us as f64 / 1e6
    );
    println!("   ticks/sec: {tps:.0}");
    println!(
        "   simulated µs per wall second: {:.0}",
        sim_us as f64 / wall
    );

    // History first — every invocation appends one line (all reps), even
    // when an assertion below fails the run, so regressions leave a trail
    // instead of a gap.
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let fmt_walls = |w: &[f64]| {
        w.iter()
            .map(|v| format!("{v:.6}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let hist = format!(
        "{{\"unix_time\": {ts}, \"scale\": {}, \"seed\": {}, \"workers\": {workers}, \"ticks\": {ticks}, \"wall_s\": {wall:.6}, \"ticks_per_sec\": {tps:.1}, \"serial_walls_s\": [{}]}}\n",
        rc.scale,
        rc.seed,
        fmt_walls(&serial_walls)
    );
    create_out_dir(out);
    for path in [
        out.join("BENCH_tick_history.jsonl"),
        "BENCH_tick_history.jsonl".into(),
    ] {
        use std::io::Write as _;
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
        {
            let _ = f.write_all(hist.as_bytes());
        }
    }

    // Regression gate against the *committed* baseline (git HEAD, not the
    // working copy this run overwrites). A tick-count difference means the
    // simulation itself changed (the bench artifacts are deterministic);
    // with `--guard` that, or a >10 % throughput drop, fails the run.
    let mut baseline_json = String::new();
    if let Some((base, source)) = committed_baseline() {
        let comparable = bench_field(&base, "scale") == Some(rc.scale)
            && bench_field(&base, "seed") == Some(rc.seed as f64)
            && bench_field(&base, "runs") == Some(jobs.len() as f64);
        match (
            comparable,
            bench_field(&base, "ticks_per_sec"),
            bench_field(&base, "ticks"),
            bench_field(&base, "sim_elapsed_us"),
        ) {
            (true, Some(base_tps), Some(base_ticks), Some(base_sim_us)) => {
                let ratio = tps / base_tps;
                println!(
                    "\n   baseline ({source}): {base_tps:.0} ticks/sec ({}× {})",
                    format_args!("{ratio:.2}"),
                    if ratio >= 1.0 { "faster" } else { "slower" },
                );
                baseline_json = format!(
                    ",\n  \"baseline_ticks_per_sec\": {base_tps:.1},\n  \"speedup_vs_baseline\": {ratio:.3}"
                );
                let artifacts_match =
                    base_ticks == ticks as f64 && base_sim_us == sim_us as f64;
                if !artifacts_match {
                    println!(
                        "   baseline artifact mismatch: ticks {base_ticks} → {ticks}, sim_us {base_sim_us} → {sim_us}"
                    );
                }
                if guard_pct.is_some() {
                    if !artifacts_match {
                        guard_failed(format!(
                            "bench artifacts diverged from the committed baseline \
                             (ticks {base_ticks} vs {ticks}, sim_us {base_sim_us} vs {sim_us})"
                        ));
                    }
                    // The throughput gate is a collapse tripwire, not a
                    // precision check: the baseline was measured on one
                    // particular host, and the guard may run on a slower
                    // one, so only a ≥2× drop — an algorithmic regression
                    // on comparable hardware — fails. Per-host trend
                    // precision lives in BENCH_tick_history.jsonl.
                    if ratio < 0.5 {
                        guard_failed(format!(
                            "tick throughput collapsed vs the committed baseline: \
                             {tps:.0} vs {base_tps:.0} ticks/sec"
                        ));
                    }
                }
            }
            _ => println!("\n   baseline BENCH_tick.json not comparable (different scale/seed/runs); gate skipped"),
        }
    }

    let mut guard_json = String::new();
    if let Some(pct) = guard_pct {
        let (stack_s, solo_s, overhead) = pipeline_overhead_pct(&rc);
        println!("\n   pipeline guard: stack {stack_s:.4} s vs direct selector {solo_s:.4} s");
        println!("   pipeline indirection: {overhead:+.2} % (budget < {pct} %)");
        guard_json = format!(
            ",\n  \"pipeline_stack_wall_s\": {stack_s:.6},\n  \"pipeline_direct_wall_s\": {solo_s:.6},\n  \"pipeline_overhead_pct\": {overhead:.3},\n  \"pipeline_guard_pct\": {pct}"
        );
        if overhead >= pct {
            guard_failed(format!(
                "policy-pipeline indirection {overhead:.2} % exceeds the {pct} % guard"
            ));
        }
    }
    let json = format!(
        "{{\n  \"bench\": \"tick-rate\",\n  \"scale\": {},\n  \"seed\": {},\n  \"workers\": {},\n  \"runs\": {},\n  \"reps\": {},\n  \"wall_s\": {:.6},\n  \"ticks\": {},\n  \"sim_elapsed_us\": {},\n  \"ticks_per_sec\": {:.1},\n  \"sim_us_per_wall_s\": {:.1}{}{}\n}}\n",
        rc.scale,
        rc.seed,
        workers,
        jobs.len(),
        TICK_RATE_REPS,
        wall,
        ticks,
        sim_us,
        tps,
        sim_us as f64 / wall,
        baseline_json,
        guard_json
    );
    write_out(out.join("BENCH_tick.json"), &json);
    write_out("BENCH_tick.json", &json);
}

/// A `bench tick-rate --guard` check failed: say which and exit 1.
fn guard_failed(why: String) -> ! {
    eprintln!("error: {why}");
    std::process::exit(1);
}

/// One pass of `bench sweep` as a JSON object body.
fn sweep_pass_json(wall_s: f64, stats: &ExecStats) -> String {
    format!(
        "{{\"wall_s\": {:.6}, \"cache_hits\": {}, \"cache_misses\": {}, \"cache_hit_rate\": {:.4}, \"executed\": {}, \"steals\": {}}}",
        wall_s,
        stats.cache_hits,
        stats.cache_misses,
        stats.hit_rate(),
        stats.executed,
        stats.steals
    )
}

/// `bench sweep`: execute the full `all` plan twice on one engine — a
/// `bench profile`: run the `bench tick-rate` workload slice with the
/// engine's phase profiler enabled and print where the nanoseconds go.
/// Per phase (schedule, barrier, replay, placement, demand, solve,
/// commit, trace, codec) the breakdown reports calls, total time, and
/// mean ns/call; the same numbers are folded into the metrics registry
/// (`prof.<phase>.{calls,total_ns,ns}`) and written to
/// `BENCH_profile.json` in the output directory and the working
/// directory. Profiling is observational: the runs are byte-identical to
/// unprofiled ones (pinned by a proptest), so the attribution can be
/// trusted to describe exactly the production tick path plus the clock
/// reads themselves.
fn bench_profile(rc: &RunnerConfig, out: &Path) {
    use busbw_experiments::cache::{decode_result, encode_result};
    use busbw_experiments::run_spec_profiled;
    use busbw_sim::{Phase, PhaseSet, PHASE_BUCKET_BOUNDS_NS};
    use busbw_workloads::mix::{fig1_solo, fig1_with_bbma, fig2_set_a, fig2_set_b, WorkloadSpec};
    use busbw_workloads::paper::PaperApp;

    let rc = RunnerConfig {
        trace: TraceMode::Null,
        ..*rc
    };
    let jobs: Vec<(WorkloadSpec, PolicyKind)> = vec![
        (fig1_solo(PaperApp::Cg), PolicyKind::Linux),
        (fig1_with_bbma(PaperApp::Cg), PolicyKind::Linux),
        (fig2_set_a(PaperApp::Mg), PolicyKind::Window),
        (fig2_set_b(PaperApp::Raytrace), PolicyKind::Latest),
    ];
    let t0 = std::time::Instant::now();
    let mut merged = PhaseSet::new();
    let mut ticks = 0u64;
    for (s, p) in &jobs {
        let (r, profile) = run_spec_profiled(s, *p, &rc);
        ticks += r.ticks;
        merged.merge(&profile);
        // Attribute the run codec too: one encode/decode round trip per
        // run, timed with the same clock as the engine phases.
        let c0 = std::time::Instant::now();
        let bytes = encode_result(&r);
        let back = decode_result(&bytes).expect("self-decode");
        merged.record_ns(Phase::Codec, c0.elapsed().as_nanos() as u64);
        assert_eq!(encode_result(&back), bytes, "codec round trip drifted");
    }
    let wall = t0.elapsed().as_secs_f64();

    let attributed: u64 = merged.grand_total_ns();
    println!("== bench profile (phase-attributed tick engine)\n");
    println!("   runs: {}, ticks: {ticks}, wall: {wall:.3} s", jobs.len());
    println!(
        "   attributed: {:.3} s of {wall:.3} s ({:.0} % — remainder is loop glue and timer cost)\n",
        attributed as f64 / 1e9,
        100.0 * attributed as f64 / 1e9 / wall.max(1e-12)
    );
    println!(
        "   {:<10} {:>10} {:>12} {:>10} {:>7}",
        "phase", "calls", "total_ms", "ns/call", "share"
    );
    for (name, st) in merged.named() {
        println!(
            "   {:<10} {:>10} {:>12.3} {:>10.0} {:>6.1}%",
            name,
            st.calls,
            st.total_ns as f64 / 1e6,
            st.mean_ns(),
            100.0 * st.total_ns as f64 / attributed.max(1) as f64
        );
    }

    // The same numbers, queryable: counters + histograms in the metrics
    // registry, mirroring the scheduler-stage convention.
    let mut reg = MetricsRegistry::new();
    let bounds: Vec<f64> = PHASE_BUCKET_BOUNDS_NS.iter().map(|&b| b as f64).collect();
    for (name, st) in merged.named() {
        reg.inc_counter(&format!("prof.{name}.calls"), st.calls);
        reg.inc_counter(&format!("prof.{name}.total_ns"), st.total_ns);
        let h = reg.histogram(&format!("prof.{name}.ns"), &bounds);
        for (i, &n) in st.buckets.iter().enumerate() {
            if n > 0 {
                let v = PHASE_BUCKET_BOUNDS_NS
                    .get(i)
                    .copied()
                    .unwrap_or(2 * PHASE_BUCKET_BOUNDS_NS[PHASE_BUCKET_BOUNDS_NS.len() - 1]);
                h.record_n(v as f64, n);
            }
        }
    }

    let mut phases_json = String::new();
    for (name, st) in merged.named() {
        if !phases_json.is_empty() {
            phases_json.push_str(",\n");
        }
        phases_json.push_str(&format!(
            "    \"{name}\": {{\"calls\": {}, \"total_ns\": {}, \"mean_ns\": {:.1}}}",
            st.calls,
            st.total_ns,
            st.mean_ns()
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"profile\",\n  \"scale\": {},\n  \"seed\": {},\n  \"runs\": {},\n  \"ticks\": {},\n  \"wall_s\": {:.6},\n  \"attributed_ns\": {},\n  \"phases\": {{\n{}\n  }}\n}}\n",
        rc.scale,
        rc.seed,
        jobs.len(),
        ticks,
        wall,
        attributed,
        phases_json
    );
    create_out_dir(out);
    write_out(out.join("BENCH_profile.json"), &json);
    write_out("BENCH_profile.json", &json);
}

/// cold pass (relative to the engine's cache state at startup: empty
/// unless `--cache-dir` points at a warm directory) and a warm pass
/// served from the run cache — and report wall time, dedup and cache
/// counters, and whether the two passes folded byte-identical figures.
/// Writes `BENCH_sweep.json` to the output directory and the working
/// directory.
fn bench_sweep(rc: &RunnerConfig, out: &Path, engine: &mut Engine) {
    let workers = effective_workers(rc);
    let mut plan = Plan::new();
    let cells = plan_suite(&mut plan, rc);
    let digest = |figs: &[SuiteFigure]| -> u64 {
        let mut buf = String::new();
        for sf in figs {
            buf.push_str(&Table::from_figure(&sf.fig).to_csv());
        }
        fnv1a64(buf.as_bytes())
    };

    let t0 = std::time::Instant::now();
    let executed = engine.execute(&plan, workers);
    let cold_wall = t0.elapsed().as_secs_f64();
    let cold = *engine.stats();
    let cold_digest = digest(&fold_suite(&cells, &executed));

    let t1 = std::time::Instant::now();
    let executed = engine.execute(&plan, workers);
    let warm_wall = t1.elapsed().as_secs_f64();
    let warm = engine.stats().since(&cold);
    let warm_digest = digest(&fold_suite(&cells, &executed));

    let identical = cold_digest == warm_digest;
    println!("== bench sweep (full `all` plan, cold + warm)\n");
    println!(
        "   cells: {} declared, {} unique, {} deduped; workers: {workers}",
        plan.declared(),
        plan.len(),
        plan.declared() - plan.len() as u64
    );
    println!(
        "   cold: {cold_wall:.3} s ({} executed, {} cache hits, {} steals)",
        cold.executed, cold.cache_hits, cold.steals
    );
    println!(
        "   warm: {warm_wall:.3} s ({} executed, {} cache hits, hit rate {:.0} %)",
        warm.executed,
        warm.cache_hits,
        100.0 * warm.hit_rate()
    );
    println!("   figures: fnv1a64 {cold_digest:016x}, cold == warm: {identical}");
    assert!(identical, "warm pass must fold byte-identical figures");
    let json = format!(
        "{{\n  \"bench\": \"sweep\",\n  \"scale\": {},\n  \"seed\": {},\n  \"workers\": {},\n  \"cells_declared\": {},\n  \"cells_unique\": {},\n  \"cells_deduped\": {},\n  \"cold\": {},\n  \"warm\": {},\n  \"outputs_identical\": {},\n  \"figures_fnv1a64\": \"{:016x}\"\n}}\n",
        rc.scale,
        rc.seed,
        workers,
        plan.declared(),
        plan.len(),
        plan.declared() - plan.len() as u64,
        sweep_pass_json(cold_wall, &cold),
        sweep_pass_json(warm_wall, &warm),
        identical,
        cold_digest
    );
    create_out_dir(out);
    write_out(out.join("BENCH_sweep.json"), &json);
    write_out("BENCH_sweep.json", &json);
}

/// Context for the manifest written next to each figure's artifacts.
struct EmitCtx {
    /// The command as typed (e.g. `fig2a`, `trace fig2a`).
    command: String,
    rc: RunnerConfig,
    started: std::time::Instant,
    trace: Option<TraceInfo>,
    metrics_json: Option<String>,
}

impl EmitCtx {
    fn new(command: &str, rc: &RunnerConfig) -> Self {
        Self {
            command: command.to_string(),
            rc: *rc,
            started: std::time::Instant::now(),
            trace: None,
            metrics_json: None,
        }
    }
}

/// Record the figure's cell accounting and the engine's cumulative
/// cache/dedup/steal counters into `reg` (the numbers that land in the
/// figure's manifest).
fn record_exec(reg: &mut MetricsRegistry, figure: CellStats, engine: &Engine) {
    reg.inc_counter("figure.cells.declared", figure.declared);
    reg.inc_counter("figure.cells.unique", figure.unique);
    reg.inc_counter("figure.cells.deduped", figure.deduped());
    engine.stats().record(reg);
}

/// Record the per-stage wall-time histograms of a figure's policy-stack
/// runs into `reg`: per stage a call counter, a total-time counter, and a
/// duration histogram over the canonical nanosecond buckets. Monolithic
/// schedulers report no timings; a figure with none contributes nothing.
fn record_stage_timings(reg: &mut MetricsRegistry, timings: &StageTimings) {
    if !timings.any_calls() {
        return;
    }
    let bounds: Vec<f64> = STAGE_BUCKET_BOUNDS_NS.iter().map(|&b| b as f64).collect();
    for (name, t) in timings.named() {
        reg.inc_counter(&format!("stage.{name}.calls"), t.calls);
        reg.inc_counter(&format!("stage.{name}.total_ns"), t.total_ns);
        let h = reg.histogram(&format!("stage.{name}.ns"), &bounds);
        for (i, &n) in t.buckets.iter().enumerate() {
            if n > 0 {
                // Re-record each bucket at a value inside it: the bound
                // itself for the bounded buckets, past the last bound for
                // the overflow bucket.
                let v = STAGE_BUCKET_BOUNDS_NS
                    .get(i)
                    .copied()
                    .unwrap_or(2 * STAGE_BUCKET_BOUNDS_NS[STAGE_BUCKET_BOUNDS_NS.len() - 1]);
                h.record_n(v as f64, n);
            }
        }
    }
}

/// The exec-stats metrics snapshot of one figure as manifest JSON, plus
/// what its `cells` (a [`Plan::range_since`] slice of `executed`) report:
/// per-stage wall-time histograms, the summed `managerd.*` counters of
/// open serves and the `oracle.*` search metrics of oracle cells.
fn exec_metrics_json(
    figure: CellStats,
    engine: &Engine,
    executed: &Executed,
    cells: std::ops::Range<usize>,
) -> String {
    let mut reg = MetricsRegistry::new();
    record_exec(&mut reg, figure, engine);
    record_stage_timings(&mut reg, &executed.merged_stage_timings(cells.clone()));
    executed.record_cell_stats(cells, &mut reg);
    reg.to_json()
}

/// The one exit for output I/O failures: name the path and the error on
/// stderr and exit with status 1. The figure was already printed.
fn output_failed(path: &Path, e: &std::io::Error) -> ! {
    eprintln!("error: cannot write output {}: {e}", path.display());
    std::process::exit(1);
}

/// The one exit for outputs that fail their read-back check: name the
/// path and the reason on stderr and exit with status 1.
fn output_invalid(path: &Path, why: &str) -> ! {
    eprintln!("error: invalid output {}: {why}", path.display());
    std::process::exit(1);
}

/// Check a run manifest read back from disk: it must parse as JSON and
/// carry figure id `id`.
fn check_manifest(text: &str, id: &str) -> Result<(), String> {
    let v = json::parse(text).map_err(|e| format!("manifest is not valid JSON: {e}"))?;
    match v.get("id").and_then(|x| x.as_str()) {
        Some(got) if got == id => Ok(()),
        got => Err(format!("manifest id is {got:?}, expected {id:?}")),
    }
}

/// Create the output directory `dir`, or exit through [`output_failed`].
fn create_out_dir(dir: &Path) {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| output_failed(dir, &e));
}

/// Write one output file, or exit through [`output_failed`].
fn write_out(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) {
    let path = path.as_ref();
    std::fs::write(path, contents).unwrap_or_else(|e| output_failed(path, &e));
}

fn emit(fig: &FigureSummary, out: &Path, ctx: &EmitCtx) {
    let table = Table::from_figure(fig);
    println!("== {} — {}\n", fig.id, fig.title);
    println!("{}", table.render());
    for s in fig.series() {
        let (mean, max, min) = (
            fig.series_mean(&s).unwrap_or(f64::NAN),
            fig.series_max(&s).unwrap_or(f64::NAN),
            fig.series_min(&s).unwrap_or(f64::NAN),
        );
        println!("   {s}: mean {mean:.1}, max {max:.1}, min {min:.1}");
    }
    println!();
    create_out_dir(out);
    let txt = out.join(format!("{}.txt", fig.id));
    let csv = out.join(format!("{}.csv", fig.id));
    write_out(&txt, table.render());
    write_out(&csv, table.to_csv());

    let artifacts = [&txt, &csv]
        .into_iter()
        .map(|p| ArtifactSum::of_file(p).unwrap_or_else(|e| output_failed(p, &e)))
        .collect();
    let manifest = Manifest {
        id: fig.id.clone(),
        command: format!("experiments {}", ctx.command),
        seed: ctx.rc.seed,
        scale: ctx.rc.scale,
        workers: ctx.rc.workers,
        policies: fig.series(),
        git_describe: git_describe(),
        wall_ms: ctx.started.elapsed().as_millis() as u64,
        artifacts,
        trace: ctx.trace.clone(),
        metrics_json: ctx.metrics_json.clone(),
    };
    write_out(
        out.join(format!("{}.manifest.json", fig.id)),
        manifest.to_json(),
    );
}

/// Plan one figure, execute it on the shared engine, fold, and emit with
/// exec stats in the manifest.
fn emit_figure<C>(
    engine: &mut Engine,
    ctx: &mut EmitCtx,
    out: &Path,
    rc: &RunnerConfig,
    declare: impl FnOnce(&mut Plan) -> C,
    fold: impl FnOnce(&C, &Executed) -> FigureSummary,
) {
    let mut plan = Plan::new();
    let mark = plan.checkpoint();
    let cells = declare(&mut plan);
    let stats = plan.since(mark);
    let executed = engine.execute(&plan, effective_workers(rc));
    let fig = fold(&cells, &executed);
    ctx.metrics_json = Some(exec_metrics_json(
        stats,
        engine,
        &executed,
        plan.range_since(mark),
    ));
    emit(&fig, out, ctx);
}

fn summary_table(figs: &[FigureSummary], out: &Path) {
    let mut t = Table::new(&["Set", "Policy", "Max impr %", "Avg impr %", "Min impr %"]);
    for fig in figs {
        for s in fig.series() {
            t.row(vec![
                fig.id.clone(),
                s.clone(),
                format!("{:.1}", fig.series_max(&s).unwrap_or(f64::NAN)),
                format!("{:.1}", fig.series_mean(&s).unwrap_or(f64::NAN)),
                format!("{:.1}", fig.series_min(&s).unwrap_or(f64::NAN)),
            ]);
        }
    }
    println!("== summary — §5 headline numbers\n");
    println!("{}", t.render());
    create_out_dir(out);
    write_out(out.join("summary.txt"), t.render());
    write_out(out.join("summary.csv"), t.to_csv());
}

/// Run one of the five figures with per-run trace collection, through the
/// shared engine (so traced runs hit the same cache as everything else —
/// collected traces are cached under their own run key, never mixed with
/// traceless results).
fn traced_figure(
    exp: &str,
    rc: &RunnerConfig,
    policies: &[PolicyKind],
    engine: &mut Engine,
) -> Option<(FigureSummary, Vec<RunResult>, CellStats)> {
    let rc = RunnerConfig {
        trace: TraceMode::Collect,
        ..*rc
    };
    let default_policies = policies;
    let mut plan = Plan::new();
    let mark = plan.checkpoint();
    enum Cells {
        One(busbw_experiments::fig1::Fig1Cells, bool),
        Two(busbw_experiments::fig2::Fig2Cells),
    }
    let cells = match exp {
        "fig1a" => Cells::One(plan_fig1(&mut plan, &rc), true),
        "fig1b" => Cells::One(plan_fig1(&mut plan, &rc), false),
        "fig2a" => Cells::Two(plan_fig2(&mut plan, Fig2Set::A, default_policies, &rc)),
        "fig2b" => Cells::Two(plan_fig2(&mut plan, Fig2Set::B, default_policies, &rc)),
        "fig2c" => Cells::Two(plan_fig2(&mut plan, Fig2Set::C, default_policies, &rc)),
        _ => return None,
    };
    let stats = plan.since(mark);
    let executed = engine.execute(&plan, effective_workers(&rc));
    Some(match cells {
        Cells::One(c, panel_a) => {
            let fig = if panel_a {
                fold_fig1a(&c, &executed)
            } else {
                fold_fig1b(&c, &executed)
            };
            (fig, fig1_results(&c, &executed), stats)
        }
        Cells::Two(c) => (fold_fig2(&c, &executed), fig2_results(&c, &executed), stats),
    })
}

/// Serialize a merged trace as JSONL: one event object per line, each
/// tagged with the index of the job (runner input order) that emitted it.
fn render_jsonl(merged: &[(usize, busbw_trace::TraceEvent)]) -> String {
    let mut buf = String::with_capacity(merged.len() * 96);
    for (ji, ev) in merged {
        let obj = ev.to_json();
        buf.push('{');
        use std::fmt::Write as _;
        let _ = write!(buf, "\"job\":{ji},");
        buf.push_str(&obj[1..]); // the event object minus its opening brace
        buf.push('\n');
    }
    buf
}

/// The traced-figure flow shared by `--trace-out` and `trace <exp>`:
/// run with collection on, merge worker traces by tick order, write the
/// JSONL stream, fold the metrics snapshot, and emit figure + manifest.
/// Returns the merged events for validation.
fn run_traced(
    exp: &str,
    command: &str,
    rc: &RunnerConfig,
    policies: &[PolicyKind],
    out: &Path,
    trace_out: Option<&PathBuf>,
    engine: &mut Engine,
) -> Vec<(usize, busbw_trace::TraceEvent)> {
    let mut ctx = EmitCtx::new(command, rc);
    let Some((fig, results, stats)) = traced_figure(exp, rc, policies, engine) else {
        eprintln!("`{exp}` does not support tracing (figures only: fig1a|fig1b|fig2a|fig2b|fig2c)");
        std::process::exit(2);
    };
    let merged = merge_traces(&results);
    create_out_dir(out);
    let path = trace_out
        .cloned()
        .unwrap_or_else(|| out.join(format!("{exp}-trace.jsonl")));
    write_out(&path, render_jsonl(&merged));
    ctx.trace = Some(TraceInfo {
        path: path.display().to_string(),
        events: merged.len() as u64,
    });
    let mut reg = collect_metrics(&fig, &results, &merged);
    record_exec(&mut reg, stats, engine);
    let mut timings = StageTimings::default();
    for r in &results {
        if let Some(t) = &r.stage_timings {
            timings.merge(t);
        }
    }
    record_stage_timings(&mut reg, &timings);
    ctx.metrics_json = Some(reg.to_json());
    emit(&fig, out, &ctx);
    println!("   trace: {} events -> {}", merged.len(), path.display());
    merged
}

fn main() {
    let args = parse_args();
    let rc = args.rc;
    let out = &args.out;
    let mut cache = RunCache::new(args.cache_dir.clone(), !args.no_cache);
    if let (Err(e), Some(dir)) = (cache.check_disk(), &args.cache_dir) {
        eprintln!(
            "warning: --cache-dir {}: {e}; caching in memory only",
            dir.display()
        );
    }
    let mut engine = Engine::new(cache);
    let mut ctx = EmitCtx::new(&args.command, &rc);
    let figure_ids = ["fig1a", "fig1b", "fig2a", "fig2b", "fig2c"];
    // `--policy` swaps the fig2/summary panels' policy list for one
    // scheduler composed from pipeline stages.
    let default_policies: Vec<PolicyKind> = match args.policy {
        Some(spec) => vec![PolicyKind::Stack(spec)],
        None => vec![PolicyKind::Latest, PolicyKind::Window],
    };

    // `--trace-out` turns any figure command into its traced flow; the
    // figure numbers are identical either way (tracing only observes).
    if let Some(path) = &args.trace_out {
        if figure_ids.contains(&args.command.as_str()) {
            run_traced(
                &args.command,
                &args.command,
                &rc,
                &default_policies,
                out,
                Some(path),
                &mut engine,
            );
            return;
        }
        if !args.command.starts_with("trace ") {
            eprintln!("--trace-out only applies to figure commands or `trace <figure>`");
            std::process::exit(2);
        }
    }

    if let Some(exp) = args.command.strip_prefix("trace ") {
        let merged = run_traced(
            exp,
            &args.command,
            &rc,
            &default_policies,
            out,
            args.trace_out.as_ref(),
            &mut engine,
        );
        // Validation: the manifest must parse and the trace be non-empty.
        let manifest_path = out.join(format!("{exp}.manifest.json"));
        std::fs::read_to_string(&manifest_path)
            .map_err(|e| e.to_string())
            .and_then(|text| check_manifest(&text, exp))
            .unwrap_or_else(|why| output_invalid(&manifest_path, &why));
        if merged.is_empty() {
            output_invalid(out, "the merged trace is empty");
        }
        let mut by_kind: BTreeMap<&str, u64> = BTreeMap::new();
        for (_, ev) in &merged {
            *by_kind.entry(ev.kind()).or_insert(0) += 1;
        }
        println!("   manifest: {} (valid)", manifest_path.display());
        for (kind, n) in &by_kind {
            println!("   {kind:>16}: {n}");
        }
        return;
    }

    match args.command.as_str() {
        "fig1a" => emit_figure(
            &mut engine,
            &mut ctx,
            out,
            &rc,
            |p| plan_fig1(p, &rc),
            fold_fig1a,
        ),
        "fig1b" => emit_figure(
            &mut engine,
            &mut ctx,
            out,
            &rc,
            |p| plan_fig1(p, &rc),
            fold_fig1b,
        ),
        "fig2a" | "fig2b" | "fig2c" => {
            let set = match args.command.as_str() {
                "fig2a" => Fig2Set::A,
                "fig2b" => Fig2Set::B,
                _ => Fig2Set::C,
            };
            emit_figure(
                &mut engine,
                &mut ctx,
                out,
                &rc,
                |p| plan_fig2(p, set, &default_policies, &rc),
                fold_fig2,
            );
        }
        "summary" => {
            // One plan for all three panels: shared cells execute once.
            let mut plan = Plan::new();
            let panels: Vec<_> = [Fig2Set::A, Fig2Set::B, Fig2Set::C]
                .into_iter()
                .map(|s| plan_fig2(&mut plan, s, &default_policies, &rc))
                .collect();
            let executed = engine.execute(&plan, effective_workers(&rc));
            let figs: Vec<FigureSummary> = panels.iter().map(|c| fold_fig2(c, &executed)).collect();
            summary_table(&figs, out);
        }
        "ablate-window" => emit_figure(
            &mut engine,
            &mut ctx,
            out,
            &rc,
            |p| plan_window(p, &rc),
            fold_window,
        ),
        "ablate-quantum" => emit_figure(
            &mut engine,
            &mut ctx,
            out,
            &rc,
            |p| plan_quantum(p, &rc),
            fold_quantum,
        ),
        "ablate-fitness" => emit_figure(
            &mut engine,
            &mut ctx,
            out,
            &rc,
            |p| plan_fitness(p, &rc),
            fold_fitness,
        ),
        "ablate-smt" => emit_figure(
            &mut engine,
            &mut ctx,
            out,
            &rc,
            |p| plan_smt(p, &rc),
            fold_smt,
        ),
        "ablate-stages" => emit_figure(
            &mut engine,
            &mut ctx,
            out,
            &rc,
            |p| plan_stages(p, &rc),
            fold_stages,
        ),
        "dynamic" => emit_figure(
            &mut engine,
            &mut ctx,
            out,
            &rc,
            |p| plan_dynamic(p, &rc),
            fold_dynamic,
        ),
        "open" => emit_figure(
            &mut engine,
            &mut ctx,
            out,
            &rc,
            |p| {
                busbw_experiments::plan_open(
                    p,
                    &rc,
                    args.arrivals,
                    args.duration_us,
                    busbw_experiments::open::DEFAULT_QUEUE_CAPACITY,
                )
            },
            busbw_experiments::fold_open,
        ),
        "baselines" => emit_figure(
            &mut engine,
            &mut ctx,
            out,
            &rc,
            |p| plan_baselines(p, &rc),
            fold_baselines,
        ),
        "validate" => {
            let mut plan = Plan::new();
            let cells = plan_validate(&mut plan, &rc);
            let executed = engine.execute(&plan, effective_workers(&rc));
            let claims = fold_validate(&cells, &executed);
            let (report, all) = render_validation(&claims);
            println!("== validate — reproduction gate\n");
            print!("{report}");
            create_out_dir(out);
            write_out(out.join("validate.txt"), &report);
            if !all {
                std::process::exit(1);
            }
        }
        "bench tick-rate" => bench_tick_rate(&rc, out, args.guard_pct),
        "bench profile" => bench_profile(&rc, out),
        "bench sweep" => bench_sweep(&rc, out, &mut engine),
        "audit" => {
            // Audited cells are many and tiny; default to a light scale
            // unless the user pinned one explicitly. The differential leg
            // compares serial against multi-worker execution, so keep at
            // least a few workers even on small machines.
            let workers = if rc.workers != 0 {
                rc.workers
            } else {
                effective_workers(&rc).max(4)
            };
            let cfg = AuditConfig {
                fuzz: args.fuzz,
                seed: rc.seed,
                scale: if args.scale_set { rc.scale } else { 0.1 },
                workers,
                out: out.clone(),
            };
            std::process::exit(run_audit(&cfg));
        }
        "robustness" => emit_figure(
            &mut engine,
            &mut ctx,
            out,
            &rc,
            |p| plan_robustness(p, 10, 5, &rc),
            fold_robustness,
        ),
        "topo" => {
            for shape in busbw_experiments::TOPO_SHAPES {
                emit_figure(
                    &mut engine,
                    &mut ctx,
                    out,
                    &rc,
                    |p| plan_topo(p, shape, &rc),
                    fold_topo,
                );
            }
        }
        "regret" => {
            emit_figure(
                &mut engine,
                &mut ctx,
                out,
                &rc,
                |p| plan_regret(p, &rc),
                fold_regret,
            );
        }
        "variance" => {
            for p in [PolicyKind::Latest, PolicyKind::Window] {
                emit_figure(
                    &mut engine,
                    &mut ctx,
                    out,
                    &rc,
                    |plan| plan_variance(plan, p, 5, &rc),
                    |c, e| {
                        let mut fig = fold_variance(c, e);
                        fig.id = format!("variance-{}", p.label().to_lowercase());
                        fig
                    },
                );
            }
        }
        "all" => {
            // The whole sweep is ONE plan: every figure's cells
            // deduplicated together and drained by a single
            // work-stealing pool, no inter-figure barriers.
            let mut plan = Plan::new();
            let cells = plan_suite(&mut plan, &rc);
            let executed = engine.execute(&plan, effective_workers(&rc));
            let figs = fold_suite(&cells, &executed);
            let emit_suite_figure = |sf: &SuiteFigure, ctx: &mut EmitCtx| {
                // Per-cell metrics cover the cells this figure first
                // declared (deduped cells are attributed to the figure
                // that declared them first).
                ctx.metrics_json = Some(exec_metrics_json(
                    sf.cells,
                    &engine,
                    &executed,
                    sf.range.clone(),
                ));
                emit(&sf.fig, out, ctx);
            };
            for sf in &figs[..5] {
                emit_suite_figure(sf, &mut ctx);
            }
            let panels: Vec<FigureSummary> = figs[2..5].iter().map(|sf| sf.fig.clone()).collect();
            summary_table(&panels, out);
            for sf in &figs[5..] {
                emit_suite_figure(sf, &mut ctx);
            }
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::check_manifest;

    #[test]
    fn manifest_check_rejects_bad_json_and_wrong_ids() {
        assert_eq!(check_manifest(r#"{"id": "fig2a"}"#, "fig2a"), Ok(()));
        let err = check_manifest(r#"{"id": "fig2a""#, "fig2a").unwrap_err();
        assert!(err.contains("not valid JSON"), "{err}");
        let err = check_manifest(r#"{"id": "fig1a"}"#, "fig2a").unwrap_err();
        assert!(err.contains("expected \"fig2a\""), "{err}");
        assert!(check_manifest(r#"{"seed": 42}"#, "fig2a").is_err());
        assert!(check_manifest("", "fig2a").is_err());
    }
}
