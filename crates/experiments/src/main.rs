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
//!   audit [--fuzz N]                         invariant catalog + differential fuzzer
//!   open [--arrivals SPEC] [--duration S]    open-system managerd tail-latency figure
//!   topo                                      socket-aware placers on 1/2/4-socket shapes
//!   regret                                    presets + sampled stacks vs the offline optimum
//!   all                                      everything above
//! ```
//!
//! `--policy` composes the fig2/summary scheduler from pipeline stages,
//! e.g. `--policy estimator=window:5,selector=fitness,placer=packed`; see
//! [`StackSpec`] for the grammar.
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
    run_audit, AuditConfig, CellStats, Engine, Executed, Fig2Set, Plan, PolicyKind, RunCache,
    RunResult, RunnerConfig, StackSpec, SuiteFigure, TraceMode,
};
use busbw_metrics::{FigureSummary, MetricsRegistry, Table};
use busbw_sim::{StageTimings, STAGE_BUCKET_BOUNDS_NS};
use busbw_trace::{git_describe, json, ArtifactSum, Manifest, TraceInfo};

fn usage() -> ! {
    eprintln!(
        "usage: experiments <fig1a|fig1b|fig2a|fig2b|fig2c|trace <figure>|summary|ablate-window|ablate-quantum|ablate-fitness|ablate-smt|ablate-stages|ablate --stages|dynamic|open|baselines|robustness|topo|regret|validate|variance|audit|all> [--scale X] [--seed N] [--workers N] [--out DIR] [--trace-out PATH] [--cache-dir DIR] [--no-cache] [--policy SPEC] [--fuzz N] [--arrivals SPEC] [--duration S]\n\n  --policy composes a scheduler from pipeline stages for the fig2 panels\n  and summary, e.g. --policy estimator=window:5,selector=fitness,placer=packed\n  (stages: estimator=latest|window[:n]|ewma[:n]|raw|null,\n   admission=head|strict|fcfs|widest|open,\n   selector=fitness|random[:seed]|greedy|lookahead|none,\n   placer=packed|scatter|smt|pack_local|spread_sockets|migrate, quantum=<ms>)\n  --fuzz N (audit) sets the number of random differential cells; audit\n  defaults to --scale 0.1 and writes <out>/repro.json on failure\n  --arrivals SPEC (open) picks the arrival process:\n  poisson:<rate|small> | pareto:<rate|small>[:alpha] |\n  diurnal:<rate|small>[:period_s] | trace:diurnal (rates in clients/s)\n  --duration S (open) sets the unscaled horizon in seconds (or `short`)"
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
    fuzz: usize,
    scale_set: bool,
    arrivals: busbw_managerd::ArrivalProcess,
    duration_us: u64,
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let mut command = args.next().unwrap_or_else(|| usage());
    if command == "trace" {
        // `trace <figure>` — a two-word command.
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
        fuzz,
        scale_set,
        arrivals,
        duration_us,
    }
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
