//! `ledger`: the whole-system benchmark of the busbw reproduction.
//!
//! Each workload is something a user of the repository waits for: a
//! figure sweep, planned, executed on the job graph's work-stealing pool,
//! folded into figures and rendered as tables and CSV. One run of the
//! benchmark is one process. It sets the workload up, then runs timed
//! passes back to back for a fixed wall-time budget on [`WORKERS`] pool
//! threads. The loop is closed: a pass starts only when the previous one
//! has finished, and the `open` workload's arrivals exist only in
//! simulated time.
//!
//! Every pass folds figures whose CSVs hash to an FNV-1a digest. For the
//! pinned seeds (42, and 7, which was held out while the benchmark was
//! written) the digest must equal the pinned value; for any other seed
//! every pass must agree with the first set-up pass. On `sweep-warm` each
//! timed pass must also be served wholly from the disk cache that set-up
//! filled, and the cached fold must equal set-up's uncached execution.
//!
//! Untraced runs report the end-to-end metrics. A traced run alternates
//! untraced and traced passes, records one [`spans::Span`] per layer call
//! from outside (plan, execute, fold, render, teardown), and adds the
//! fixed-input layer [`probes`]; it reports the per-layer metrics.

pub mod probes;
pub mod spans;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use busbw_experiments::jobgraph::{Engine, ExecStats, Executed, Plan};
use busbw_experiments::open::DEFAULT_QUEUE_CAPACITY;
use busbw_experiments::{
    fold_open, fold_regret, fold_suite, fold_topo, parse_arrivals, plan_open, plan_regret,
    plan_suite, plan_topo, OpenCells, RegretCells, RunCache, RunnerConfig, SuiteCells, TopoCells,
    TOPO_SHAPES,
};
use busbw_metrics::{FigureSummary, Table};
use busbw_trace::fnv1a64;

use spans::{self_times_ns, Recorder};

/// Pool threads for every pass: the 2-core machine the numbers were
/// taken on. Fixed, so a run means the same work on any host.
pub const WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Timed passes per run even when the time budget is spent sooner (a
/// traced run counts both kinds, and runs them in pairs).
pub const MIN_PASSES: usize = 3;
/// Base arrival rate of the `open` workload, clients per second.
pub const OPEN_BASE_RATE: f64 = 20.0;
/// Unscaled serve horizon of the `open` workload: 12000 s.
pub const OPEN_DURATION_US: u64 = 12_000_000_000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `experiments all` from an empty memory-only cache.
    SweepCold,
    /// `experiments all` served wholly from a filled disk cache.
    SweepWarm,
    /// The regret figure: presets and sampled stacks against the oracle.
    Regret,
    /// The three topology panels on 1-, 2- and 4-socket machines.
    Topo,
    /// The open-system managerd figure, 3 stacks x 4 offered loads.
    Open,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 5] = [
        Workload::SweepCold,
        Workload::SweepWarm,
        Workload::Regret,
        Workload::Topo,
        Workload::Open,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepCold => "sweep-cold",
            Workload::SweepWarm => "sweep-warm",
            Workload::Regret => "regret",
            Workload::Topo => "topo",
            Workload::Open => "open",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Work-volume scale of one pass, chosen so a pass takes about a
    /// second on 2 cores. Regret's 0.07 is the smallest scale at which
    /// the CG+SP+MG search spends its whole node budget, which makes that
    /// cell the critical path whatever the seed.
    pub fn scale(self) -> f64 {
        match self {
            Workload::SweepCold | Workload::SweepWarm => 0.1,
            Workload::Regret => 0.07,
            Workload::Topo => 1.5,
            Workload::Open => 0.4,
        }
    }
}

/// Figure digests at the default size: `(workload, seed, digest)`. The
/// two sweeps fold the same figures. The topology mixes draw no seeded
/// demand, so `topo` folds the same figures at every seed.
const PINNED: [(Workload, u64, u64); 10] = [
    (Workload::SweepCold, 42, 0xb06e_81da_7893_b018),
    (Workload::SweepCold, 7, 0x192f_f691_98b7_e2c8),
    (Workload::SweepWarm, 42, 0xb06e_81da_7893_b018),
    (Workload::SweepWarm, 7, 0x192f_f691_98b7_e2c8),
    (Workload::Regret, 42, 0xa671_b779_57e6_bd57),
    (Workload::Regret, 7, 0x59ea_ccdf_0851_582d),
    (Workload::Topo, 42, 0xebb8_f4f0_1d9f_526f),
    (Workload::Topo, 7, 0xebb8_f4f0_1d9f_526f),
    (Workload::Open, 42, 0x46d1_f34e_864e_9cc8),
    (Workload::Open, 7, 0x0950_2bd2_d943_bb56),
];

/// The pinned figure digest of `workload` at `seed`, if there is one.
pub fn pinned_digest(workload: Workload, seed: u64) -> Option<u64> {
    PINNED
        .iter()
        .find(|&&(w, s, _)| w == workload && s == seed)
        .map(|&(_, _, d)| d)
}

/// Which end-to-end metric each group of per-layer metrics should move,
/// and on which workloads, by metric-name prefix.
pub const LAYER_MOVES: [(&str, &str, &[&str]); 14] = [
    ("plan.", "wall_p50_s", &["sweep-warm"]),
    ("pool.", "wall_p50_s", &["regret", "sweep-cold"]),
    ("cache.", "wall_p50_s", &["sweep-warm"]),
    ("codec.", "wall_p50_s", &["sweep-warm"]),
    ("fold.", "wall_p50_s", &["sweep-warm"]),
    ("render.", "wall_p50_s", &["sweep-warm"]),
    ("teardown.", "wall_p50_s", &["sweep-warm"]),
    ("sim.", "wall_p50_s", &["sweep-cold", "topo", "regret"]),
    ("bus.", "wall_p50_s", &["sweep-cold", "topo"]),
    ("stage.", "wall_p50_s", &["sweep-cold"]),
    ("oracle.", "wall_p50_s", &["regret"]),
    ("managerd.", "wall_p50_s", &["open"]),
    ("figure.", "wall_p50_s", &["sweep-cold"]),
    // What tracing adds to a pass, and how much of it no span explains.
    (
        "trace.",
        "wall_p50_s",
        &["sweep-cold", "sweep-warm", "regret", "topo", "open"],
    ),
];

/// The `(end-to-end metric, workloads)` a per-layer metric should move.
pub fn layer_moves(metric: &str) -> Option<(&'static str, &'static [&'static str])> {
    LAYER_MOVES
        .iter()
        .find(|(prefix, _, _)| metric.starts_with(prefix))
        .map(|&(_, e2e, workloads)| (e2e, workloads))
}

/// One run of the benchmark.
#[derive(Debug, Clone)]
pub struct Config {
    /// What to run.
    pub workload: Workload,
    /// Seed of every simulated input.
    pub seed: u64,
    /// Wall-time budget of the timed passes.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// ones.
    pub trace: bool,
    /// Multiplier on every work-volume scale: 1.0 is the benchmark, the
    /// tests shrink it. Digests are pinned at 1.0 only.
    pub size: f64,
    /// The digest every pass must fold to; `None` means the passes must
    /// agree with the first set-up pass.
    pub expect: Option<u64>,
}

impl Config {
    /// The benchmark configuration of `workload` at `seed`.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            workload,
            seed,
            seconds,
            trace,
            size: 1.0,
            expect: pinned_digest(workload, seed),
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// `BENCHMARK.json` name.
    pub name: String,
    /// The value, as measured.
    pub value: f64,
    /// `BENCHMARK.json` unit.
    pub unit: &'static str,
    /// How many samples the value summarises (1 for a count).
    pub samples: usize,
}

impl Metric {
    /// A metric over `samples` samples.
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit,
            samples,
        }
    }

    /// A count.
    pub fn count(name: &str, value: f64) -> Self {
        Self::new(name, value, "count", 1)
    }
}

/// What one run measured and whether its outputs were right.
#[derive(Debug)]
pub struct Report {
    /// Every check passed.
    pub correct: bool,
    /// Cells resolved, over every set-up and timed pass.
    pub attempted: u64,
    /// Cells in a pass whose digest was wrong, plus cells a warm pass did
    /// not serve from the cache.
    pub failed: u64,
    /// End-to-end metrics, or per-layer ones for a traced run.
    pub metrics: Vec<Metric>,
    /// One line per failed check.
    pub errors: Vec<String>,
    /// The figure digest every pass was checked against.
    pub digest: u64,
    /// Spans of a traced run (empty otherwise).
    pub spans: Recorder,
}

impl Report {
    /// The result line: one JSON object.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{}\": {{\"value\": ", m.name));
            busbw_trace::json::push_f64(&mut s, m.value);
            s.push_str(&format!(", \"unit\": \"{}\"}}", m.unit));
        }
        s.push_str("}}");
        s
    }
}

/// Median of `v` (the mean of the middle two for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// User plus system CPU time of this process, all threads included, from
/// `/proc/self/stat` (clock ticks of 10 ms).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name start at field 3.
    let fields: Vec<&str> = stat[stat.rfind(')').expect("stat has a command name") + 1..]
        .split_whitespace()
        .collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("utime/stime are integers");
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set size of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM is reported in kB");
    kb / 1024.0
}

/// A directory under the package root, removed again when dropped: the
/// benchmark reads and writes nothing outside its checkout.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!(
            ".scratch-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create the warm-cache directory");
        Self(dir)
    }

    /// Empty the directory.
    fn reset(&self) {
        let _ = std::fs::remove_dir_all(&self.0);
        std::fs::create_dir_all(&self.0).expect("re-create the warm-cache directory");
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The declared cells of one pass, per workload.
enum Cells {
    Suite(Box<SuiteCells>),
    Regret(RegretCells),
    Topo(Vec<TopoCells>),
    Open(OpenCells),
}

fn declare(workload: Workload, plan: &mut Plan, rc: &RunnerConfig) -> Cells {
    match workload {
        Workload::SweepCold | Workload::SweepWarm => Cells::Suite(Box::new(plan_suite(plan, rc))),
        Workload::Regret => Cells::Regret(plan_regret(plan, rc)),
        Workload::Topo => Cells::Topo(
            TOPO_SHAPES
                .iter()
                .map(|&s| plan_topo(plan, s, rc))
                .collect(),
        ),
        Workload::Open => Cells::Open(plan_open(
            plan,
            rc,
            parse_arrivals(&format!("poisson:{OPEN_BASE_RATE}"))
                .expect("a positive poisson rate parses"),
            OPEN_DURATION_US,
            DEFAULT_QUEUE_CAPACITY,
        )),
    }
}

fn fold(cells: &Cells, executed: &Executed) -> Vec<FigureSummary> {
    match cells {
        Cells::Suite(c) => fold_suite(c, executed).into_iter().map(|f| f.fig).collect(),
        Cells::Regret(c) => vec![fold_regret(c, executed)],
        Cells::Topo(cs) => cs.iter().map(|c| fold_topo(c, executed)).collect(),
        Cells::Open(c) => vec![fold_open(c, executed)],
    }
}

/// Render every figure as the `experiments` binary does (aligned text
/// and CSV); returns the FNV-1a digest of the CSVs and the bytes rendered.
fn render(figs: &[FigureSummary]) -> (u64, usize) {
    let mut csv = String::new();
    let mut bytes = 0;
    for fig in figs {
        let table = Table::from_figure(fig);
        let text = table.render();
        let c = table.to_csv();
        bytes += text.len() + c.len();
        csv.push_str(&c);
    }
    (fnv1a64(csv.as_bytes()), bytes)
}

/// Everything one pass needs.
struct Ctx {
    workload: Workload,
    rc: RunnerConfig,
    /// The disk cache of `sweep-warm`.
    cache: Option<Scratch>,
}

/// What one pass produced.
struct PassOut {
    wall_s: f64,
    digest: u64,
    declared: u64,
    unique: u64,
    stats: ExecStats,
    render_bytes: usize,
    /// Process CPU time during the pass, measured on traced passes only.
    cpu_s: f64,
    /// The pass's root span, on traced passes.
    root: Option<usize>,
}

/// Plan, execute on a fresh engine, fold and render the workload once.
fn pass(ctx: &Ctx, rec: &mut Recorder, trace: u64) -> PassOut {
    let cpu0 = rec.enabled().then(cpu_seconds);
    let t = Instant::now();
    let (root, (digest, declared, unique, stats, render_bytes)) = rec.span(trace, "pass", |rec| {
        let mut plan = Plan::new();
        let (_, cells) = rec.span(trace, "plan", |_| declare(ctx.workload, &mut plan, &ctx.rc));
        let (_, (executed, stats)) = rec.span(trace, "execute", |_| {
            let mut engine = match &ctx.cache {
                Some(dir) => Engine::new(RunCache::new(Some(dir.0.clone()), true)),
                None => Engine::ephemeral(),
            };
            let executed = engine.execute(&plan, WORKERS);
            (executed, *engine.stats())
        });
        let (_, figs) = rec.span(trace, "fold", |_| fold(&cells, &executed));
        let (_, (digest, render_bytes)) = rec.span(trace, "render", |_| render(&figs));
        let (declared, unique) = (plan.declared(), plan.len() as u64);
        // Freeing the plan, results and figures is part of the pass.
        rec.span(trace, "teardown", |_| drop((plan, cells, executed, figs)));
        (digest, declared, unique, stats, render_bytes)
    });
    let wall_s = t.elapsed().as_secs_f64();
    PassOut {
        wall_s,
        digest,
        declared,
        unique,
        stats,
        render_bytes,
        cpu_s: cpu0.map_or(0.0, |c| cpu_seconds() - c),
        root,
    }
}

/// Correctness bookkeeping across the passes of one run.
struct Check {
    reference: Option<u64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Check {
    /// Check one pass: its digest against the reference (the first
    /// pass's, when none is pinned) and, when `must_hit`, that the cache
    /// served every cell.
    fn pass(&mut self, what: &str, out: &PassOut, must_hit: bool) {
        self.attempted += out.unique;
        let expected = *self.reference.get_or_insert(out.digest);
        if out.digest != expected {
            self.failed += out.unique;
            self.errors.push(format!(
                "{what}: figure digest {:016x}, expected {expected:016x}",
                out.digest
            ));
        } else if must_hit && (out.stats.cache_hits < out.unique || out.stats.executed > 0) {
            self.failed += out.unique - out.stats.cache_hits.min(out.unique);
            self.errors.push(format!(
                "{what}: {} of {} cells served by the cache, {} executed, {} corrupt",
                out.stats.cache_hits, out.unique, out.stats.executed, out.stats.cache_corrupt
            ));
        }
    }
}

/// Run the benchmark once.
pub fn run(cfg: &Config) -> Report {
    let workload = cfg.workload;
    let ctx = Ctx {
        workload,
        rc: RunnerConfig {
            scale: workload.scale() * cfg.size,
            seed: cfg.seed,
            workers: WORKERS,
            ..RunnerConfig::default()
        },
        cache: (workload == Workload::SweepWarm).then(Scratch::new),
    };
    let mut check = Check {
        reference: cfg.expect,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };

    // Set-up: one untimed pass, which warms the process and gives the
    // reference digest; on `sweep-warm` it also fills the disk cache
    // (execute, encode, atomic write) from empty.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    for i in 0..SETUP_REPS {
        let t = Instant::now();
        if let Some(dir) = &ctx.cache {
            dir.reset();
        }
        let out = pass(&ctx, &mut Recorder::disabled(), 0);
        setup_s.push(t.elapsed().as_secs_f64());
        check.pass(&format!("set-up {i}"), &out, false);
    }

    let must_hit = workload == Workload::SweepWarm;
    let mut rec = if cfg.trace {
        Recorder::new()
    } else {
        Recorder::disabled()
    };
    let mut untraced: Vec<PassOut> = Vec::new();
    let mut traced: Vec<PassOut> = Vec::new();
    let t0 = Instant::now();
    let cpu0 = cpu_seconds();
    for k in 0u64.. {
        let last =
            untraced.last().map_or(0.0, |p| p.wall_s) + traced.last().map_or(0.0, |p| p.wall_s);
        let passes = untraced.len() + traced.len();
        if passes >= MIN_PASSES && t0.elapsed().as_secs_f64() + last > cfg.seconds {
            break;
        }
        // A traced run alternates untraced and traced passes, swapping
        // their order each round so neither always runs first.
        let order: &[bool] = match (cfg.trace, k % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &traced_pass in order {
            if traced_pass {
                let out = pass(&ctx, &mut rec, k + 1);
                check.pass(&format!("traced pass {k}"), &out, must_hit);
                traced.push(out);
            } else {
                let out = pass(&ctx, &mut Recorder::disabled(), 0);
                check.pass(&format!("pass {k}"), &out, must_hit);
                untraced.push(out);
            }
        }
    }
    let cpu_s = cpu_seconds() - cpu0;

    let walls: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
    let n = walls.len();
    let unique = untraced[0].unique as f64;
    let mut metrics = Vec::new();
    if cfg.trace {
        layer_metrics(&rec, &walls, &traced, &mut metrics);
        probes::run(
            &mut rec,
            traced.len() as u64 + 1,
            cfg.seed,
            cfg.size,
            &mut metrics,
            &mut check.errors,
        );
    } else {
        metrics.push(Metric::new("setup_s", median(&setup_s), "s", SETUP_REPS));
        metrics.push(Metric::new("wall_p50_s", median(&walls), "s", n));
        metrics.push(Metric::new("cpu_per_pass_s", cpu_s / n as f64, "s", n));
        metrics.push(Metric::new(
            "cells_per_s",
            unique / median(&walls),
            "1/s",
            n,
        ));
        metrics.push(Metric::new("rss_peak_mb", peak_rss_mb(), "MB", 1));
    }
    Report {
        correct: check.errors.is_empty(),
        attempted: check.attempted,
        failed: check.failed,
        metrics,
        errors: check.errors,
        digest: check.reference.expect("set-up ran at least one pass"),
        spans: rec,
    }
}

/// Per-layer metrics of the traced passes: medians of span self times,
/// the job graph's counters, and the cost of tracing itself.
fn layer_metrics(
    rec: &Recorder,
    untraced_walls: &[f64],
    traced: &[PassOut],
    out: &mut Vec<Metric>,
) {
    let spans = rec.spans();
    let self_ns = self_times_ns(spans);
    let roots: Vec<usize> = traced
        .iter()
        .map(|p| p.root.expect("a traced pass records its root span"))
        .collect();
    let n = traced.len();
    let self_s = |name: &str| -> f64 {
        let v: Vec<f64> = roots
            .iter()
            .map(|&r| {
                let i = (r + 1..spans.len())
                    .find(|&i| spans[i].parent == Some(r) && spans[i].name == name)
                    .expect("every traced pass records each layer span");
                self_ns[i] as f64 / 1e9
            })
            .collect();
        median(&v)
    };

    out.push(Metric::new("plan.declare_s", self_s("plan"), "s", n));
    out.push(Metric::count(
        "plan.cells_declared",
        traced[0].declared as f64,
    ));
    out.push(Metric::count("plan.cells_unique", traced[0].unique as f64));
    out.push(Metric::new(
        "plan.dedup_frac",
        1.0 - traced[0].unique as f64 / traced[0].declared as f64,
        "frac",
        1,
    ));

    // CPU over whole passes: reading it around `execute` alone would put
    // the reads inside the pass's own time. On the workloads that use the
    // pool, `execute` is over 99 % of a pass.
    let cpu: f64 = traced.iter().map(|p| p.cpu_s).sum();
    let wall: f64 = traced.iter().map(|p| p.wall_s).sum();
    out.push(Metric::new("pool.execute_s", self_s("execute"), "s", n));
    out.push(Metric::count(
        "pool.executed",
        traced[0].stats.executed as f64,
    ));
    out.push(Metric::new(
        "pool.steals",
        median(
            &traced
                .iter()
                .map(|p| p.stats.steals as f64)
                .collect::<Vec<_>>(),
        ),
        "count",
        n,
    ));
    out.push(Metric::new(
        "pool.busy_frac",
        cpu / (WORKERS as f64 * wall),
        "frac",
        n,
    ));

    let stats = &traced[0].stats;
    out.push(Metric::count("cache.hits", stats.cache_hits as f64));
    out.push(Metric::count("cache.misses", stats.cache_misses as f64));
    out.push(Metric::count("cache.corrupt", stats.cache_corrupt as f64));
    out.push(Metric::new("cache.hit_frac", stats.hit_rate(), "frac", 1));

    out.push(Metric::new("fold.s", self_s("fold"), "s", n));
    out.push(Metric::new("render.s", self_s("render"), "s", n));
    out.push(Metric::new(
        "render.bytes",
        traced[0].render_bytes as f64,
        "bytes",
        1,
    ));
    out.push(Metric::new("teardown.s", self_s("teardown"), "s", n));

    let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
    out.push(Metric::new(
        "trace.overhead_frac",
        median(&traced_walls) / median(untraced_walls) - 1.0,
        "frac",
        n,
    ));
    let unattributed: Vec<f64> = roots
        .iter()
        .map(|&r| self_ns[r] as f64 / spans[r].duration_ns() as f64)
        .collect();
    out.push(Metric::new(
        "trace.unattributed_frac",
        median(&unattributed),
        "frac",
        n,
    ));
}
