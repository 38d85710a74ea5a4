//! `experiments audit`: the differential fuzzer and invariant auditor.
//!
//! Three layers, each feeding the next:
//!
//! 1. **Self-checks + preset suite** — the estimator-range harness runs
//!    on synthetic streams, then every preset policy runs audited over
//!    the paper's figure mixes with the full invariant catalog attached
//!    (`busbw-audit`, observing the live run through
//!    `Machine::run_audited`).
//! 2. **Differential fuzzer** — random [`StackSpec`] policy stacks ×
//!    random paper-workload mixes, each cell executed five ways: a
//!    serial audited run, the legacy per-tick inner loop, a sibling group
//!    of the cell's stack and three related stacks ([`crate::sibling`]),
//!    an N-worker run through the job-graph engine, and a cache-warm
//!    re-execution of the same plan. All must agree byte-for-byte (codec
//!    bytes and the CSV row), the warm pass must be all cache hits, and
//!    the audited run must be invariant-clean.
//! 3. **Shrinker** — any violation sends the cell through greedy
//!    delta-debugging: drop workload instances and reset stack stages
//!    toward the paper default while the failure reproduces, then emit
//!    `repro.json` with a ready-to-paste `#[test]`.

use std::fmt::Write as _;
use std::path::Path;

use busbw_audit::{Auditor, Violation};
use busbw_workloads::{
    mix::{fig2_set_a, fig2_set_b, fig2_set_c},
    paper::{paper_app, PaperApp},
    WorkloadSpec,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::cache::encode_result;
use crate::jobgraph::{Engine, Plan, RunRequest};
use crate::policy::{AdmissionKind, EstimatorKind, PlacerKind, SelectorKind, StackSpec};
use crate::runner::{run_spec, run_spec_hooked, PolicyKind, RunResult, RunnerConfig, TraceMode};
use crate::sibling::run_group_with;

/// One fuzz cell: a policy stack over a workload mix with a seed.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzCell {
    /// The four-stage policy stack under test.
    pub stack: StackSpec,
    /// Paper application names composing the mix (every instance
    /// measured).
    pub mix: Vec<&'static str>,
    /// Demand-model / comparator seed.
    pub seed: u64,
    /// Work-volume scale.
    pub scale: f64,
    /// Socket count for the machine topology (1 = the flat default bus;
    /// >1 runs the hierarchical bus with per-level Λ solves).
    pub sockets: usize,
}

/// Build a workload mix from paper application names; `None` if any name
/// is unknown. Every instance is measured, so the run stops when the
/// whole mix finishes.
pub fn mix_from_names(names: &[&str]) -> Option<WorkloadSpec> {
    let apps: Option<Vec<_>> = names
        .iter()
        .map(|n| PaperApp::from_name(n).map(paper_app))
        .collect();
    let apps = apps?;
    if apps.is_empty() {
        return None;
    }
    Some(WorkloadSpec {
        name: names.join("+"),
        measured: (0..apps.len()).collect(),
        apps,
    })
}

/// The `--policy` grammar string for a stack — [`StackSpec::parse`]'s
/// inverse, used by `repro.json` so a reproducer is copy-pasteable.
pub fn spec_string(s: &StackSpec) -> String {
    let est = match s.estimator {
        EstimatorKind::Latest => "latest".into(),
        EstimatorKind::Window(n) => format!("window:{n}"),
        EstimatorKind::Ewma(n) => format!("ewma:{n}"),
        EstimatorKind::Raw => "raw".into(),
        EstimatorKind::Null => "null".into(),
    };
    let adm = match s.admission {
        AdmissionKind::Head => "head",
        AdmissionKind::StrictHead => "strict",
        AdmissionKind::Fcfs => "fcfs",
        AdmissionKind::Widest => "widest",
        AdmissionKind::Open => "open",
    };
    let sel = match s.selector {
        SelectorKind::Fitness => "fitness".into(),
        SelectorKind::Random(seed) => format!("random:{seed}"),
        SelectorKind::Greedy => "greedy".into(),
        SelectorKind::Lookahead => "lookahead".into(),
        SelectorKind::None => "none".into(),
    };
    let plc = match s.placer {
        PlacerKind::Packed => "packed",
        PlacerKind::Scatter => "scatter",
        PlacerKind::Smt => "smt",
        PlacerKind::PackLocal => "pack_local",
        PlacerKind::SpreadSockets => "spread_sockets",
        PlacerKind::Migrate => "migrate",
    };
    format!(
        "estimator={est},admission={adm},selector={sel},placer={plc},quantum={}",
        s.quantum_us / 1000
    )
}

/// Deterministic CSV row for one run — the artifact the differential
/// passes byte-compare (mirrors the figure CSVs' `{:?}` float format).
pub fn csv_line(r: &RunResult) -> String {
    let mut line = format!(
        "{:?},{:?},{:?},{}",
        r.mean_turnaround_us, r.workload_rate, r.saturated_fraction, r.ticks
    );
    for t in &r.turnarounds_us {
        let _ = write!(line, ",{t:?}");
    }
    line
}

fn runner_config(cell: &FuzzCell, trace: TraceMode) -> RunnerConfig {
    let mut rc = RunnerConfig {
        scale: cell.scale,
        seed: cell.seed,
        trace,
        ..RunnerConfig::default()
    };
    if cell.sockets > 1 {
        rc.machine.topology = busbw_sim::TopologyConfig::multi(cell.sockets);
    }
    rc
}

/// Run one cell serially under the full invariant catalog and return
/// every violation (live hooks + post-run trace validation).
pub fn check_cell(cell: &FuzzCell) -> Vec<Violation> {
    let Some(mix) = mix_from_names(&cell.mix) else {
        return vec![Violation {
            invariant: "cache-consistency",
            at_us: 0,
            detail: format!("unknown app name in mix {:?}", cell.mix),
        }];
    };
    let rc = runner_config(cell, TraceMode::Collect);
    let mut auditor = Auditor::with_builtins();
    let result = run_spec_hooked(&mix, PolicyKind::Stack(cell.stack), &rc, Some(&mut auditor));
    auditor.check_events(&result.events);
    auditor.take_violations()
}

/// The byte-identity view of a result: the cache codec's encoding with
/// stage timings stripped. Stage timings are wall-clock observations
/// (nanosecond totals and latency buckets) that the codec intentionally
/// replays on cache hits — they legitimately differ between a fresh run
/// and the run that produced a cached entry, and they never feed figure
/// data, so the differential checker excludes them from identity.
pub(crate) fn canonical_bytes(result: &RunResult) -> Vec<u8> {
    let mut stripped = result.clone();
    stripped.stage_timings = None;
    encode_result(&stripped)
}

/// The siblings a fuzz cell's stack runs with in the grouped arm: the
/// stack itself first, then the same stack with the next placer (often
/// sharing a long prefix), with the quantum doubled (splitting at the
/// first decision), and one random stack drawn from the cell's seed.
fn sibling_stacks(cell: &FuzzCell) -> Vec<StackSpec> {
    const PLACERS: [PlacerKind; 6] = [
        PlacerKind::Packed,
        PlacerKind::Scatter,
        PlacerKind::Smt,
        PlacerKind::PackLocal,
        PlacerKind::SpreadSockets,
        PlacerKind::Migrate,
    ];
    let at = PLACERS
        .iter()
        .position(|&p| p == cell.stack.placer)
        .unwrap_or(0);
    let mut rng = StdRng::seed_from_u64(cell.seed ^ 0x5151_B11E);
    vec![
        cell.stack,
        StackSpec {
            placer: PLACERS[(at + 1) % PLACERS.len()],
            ..cell.stack
        },
        StackSpec {
            quantum_us: 2 * cell.stack.quantum_us,
            ..cell.stack
        },
        random_stack(&mut rng),
    ]
}

/// The grouped arm of the differential: the cell's [`sibling_stacks`]
/// run as one sibling group, each member's codec bytes compared against
/// its own serial run (`baseline` for the cell's stack). `keep_sharing`
/// seeds the driver fault the arm exists to catch.
fn check_grouped_arm(
    auditor: &mut Auditor,
    cell: &FuzzCell,
    mix: &WorkloadSpec,
    rc: &RunnerConfig,
    baseline: &[u8],
    keep_sharing: bool,
) {
    let policies: Vec<PolicyKind> = sibling_stacks(cell)
        .into_iter()
        .map(PolicyKind::Stack)
        .collect();
    let group = run_group_with(mix, &policies, rc, keep_sharing);
    for (i, (&policy, member)) in policies.iter().zip(&group.results).enumerate() {
        let serial = if i == 0 {
            baseline.to_vec()
        } else {
            canonical_bytes(&run_spec(mix, policy, rc))
        };
        auditor.check_byte_identity_as(
            "exec-path-equivalence",
            &format!(
                "cell {:?}: serial vs sibling-group member {i} ({})",
                cell.mix,
                policy.label()
            ),
            &serial,
            &canonical_bytes(member),
        );
    }
}

/// The full differential check for one cell: audited serial run, then
/// the same cell re-executed with the legacy per-tick inner loop, as a
/// member of a sibling group, through the engine with `workers` threads,
/// and as a warm re-execution of the same plan — asserting invariant
/// cleanliness, byte-identical codec output, identical CSV rows, and
/// all-hit warm passes.
pub fn check_cell_differential(cell: &FuzzCell, workers: usize) -> Vec<Violation> {
    let mut violations = check_cell(cell);
    let Some(mix) = mix_from_names(&cell.mix) else {
        return violations;
    };
    // The engine passes run untraced (trace wiring is part of the run
    // key); re-run the serial baseline the same way so bytes compare.
    let rc = runner_config(cell, TraceMode::Off);
    let baseline = run_spec_hooked(&mix, PolicyKind::Stack(cell.stack), &rc, None);
    let baseline_bytes = canonical_bytes(&baseline);
    let baseline_csv = csv_line(&baseline);

    let mut auditor = Auditor::with_builtins();

    // Execution-path differential: the event-driven baseline above vs the
    // legacy quantized per-tick loop. `exec` is deliberately absent from
    // the run-cache key, so this equivalence is what makes every cached
    // result valid for both modes.
    let rc_per_tick = RunnerConfig {
        exec: busbw_sim::ExecMode::PerTick,
        ..rc
    };
    let per_tick = run_spec_hooked(&mix, PolicyKind::Stack(cell.stack), &rc_per_tick, None);
    auditor.check_byte_identity_as(
        "exec-path-equivalence",
        &format!("cell {:?}: event-driven vs per-tick", cell.mix),
        &baseline_bytes,
        &canonical_bytes(&per_tick),
    );
    auditor.check_byte_identity_as(
        "exec-path-equivalence",
        &format!("cell {:?}: event-driven vs per-tick CSV row", cell.mix),
        baseline_csv.as_bytes(),
        csv_line(&per_tick).as_bytes(),
    );

    check_grouped_arm(&mut auditor, cell, &mix, &rc, &baseline_bytes, false);

    let mut plan = Plan::new();
    let id = plan.cell(RunRequest::spec(mix, PolicyKind::Stack(cell.stack), &rc));
    let mut engine = Engine::ephemeral();
    let cold = engine.execute(&plan, workers);
    auditor.check_byte_identity(
        &format!("cell {:?}: serial vs {workers}-worker engine", cell.mix),
        &baseline_bytes,
        &canonical_bytes(cold.get(id)),
    );
    auditor.check_byte_identity(
        &format!("cell {:?}: serial vs {workers}-worker CSV row", cell.mix),
        baseline_csv.as_bytes(),
        csv_line(cold.get(id)).as_bytes(),
    );

    let hits_before = engine.stats().cache_hits;
    let warm = engine.execute(&plan, workers);
    if engine.stats().cache_hits != hits_before + plan.len() as u64 {
        violations.push(Violation {
            invariant: "cache-consistency",
            at_us: 0,
            detail: format!(
                "warm pass over {:?} was not all cache hits ({} of {})",
                cell.mix,
                engine.stats().cache_hits - hits_before,
                plan.len()
            ),
        });
    }
    auditor.check_byte_identity(
        &format!("cell {:?}: cold vs cache-warm engine", cell.mix),
        &baseline_bytes,
        &canonical_bytes(warm.get(id)),
    );
    violations.extend(auditor.take_violations());
    violations
}

/// Draw a random policy stack (mirrors the jobgraph property strategy,
/// with quanta restricted to fast round values so cells stay cheap).
fn random_stack(rng: &mut StdRng) -> StackSpec {
    let estimator = match rng.gen_range(0..5u32) {
        0 => EstimatorKind::Latest,
        1 => EstimatorKind::Window(rng.gen_range(1..8usize)),
        2 => EstimatorKind::Ewma(rng.gen_range(1..8usize)),
        3 => EstimatorKind::Raw,
        _ => EstimatorKind::Null,
    };
    let admission = match rng.gen_range(0..5u32) {
        0 => AdmissionKind::Head,
        1 => AdmissionKind::StrictHead,
        2 => AdmissionKind::Fcfs,
        3 => AdmissionKind::Widest,
        _ => AdmissionKind::Open,
    };
    let selector = match rng.gen_range(0..5u32) {
        0 => SelectorKind::Fitness,
        1 => SelectorKind::Random(rng.gen_range(0..1000u64)),
        2 => SelectorKind::Greedy,
        3 => SelectorKind::Lookahead,
        _ => SelectorKind::None,
    };
    let placer = match rng.gen_range(0..6u32) {
        0 => PlacerKind::Packed,
        1 => PlacerKind::Scatter,
        2 => PlacerKind::Smt,
        3 => PlacerKind::PackLocal,
        4 => PlacerKind::SpreadSockets,
        _ => PlacerKind::Migrate,
    };
    StackSpec {
        estimator,
        admission,
        selector,
        placer,
        quantum_us: [20_000, 50_000, 100_000, 200_000, 400_000][rng.gen_range(0..5usize)],
    }
}

/// Draw a random workload mix: 2–4 paper applications, every instance
/// measured.
fn random_mix(rng: &mut StdRng) -> Vec<&'static str> {
    let n = rng.gen_range(2..5usize);
    (0..n)
        .map(|_| PaperApp::ALL[rng.gen_range(0..PaperApp::ALL.len())].name())
        .collect()
}

/// Draw the `i`-th fuzz cell of a seeded campaign.
pub fn fuzz_cell(campaign_seed: u64, i: u64, scale: f64) -> FuzzCell {
    let mut rng = StdRng::seed_from_u64(campaign_seed.wrapping_mul(0x9E3779B97F4A7C15) ^ i);
    FuzzCell {
        stack: random_stack(&mut rng),
        mix: random_mix(&mut rng),
        seed: rng.gen_range(0..1_000_000u64),
        scale,
        // Half the cells stay on the flat default bus, half exercise the
        // hierarchical topology path (2- or 4-socket).
        sockets: [1, 1, 2, 4][rng.gen_range(0..4usize)],
    }
}

/// Greedy delta-debugging: minimize `cell` while `check` keeps failing.
///
/// Tries dropping workload instances one at a time, then resetting each
/// stack stage (and the quantum) to the paper default, repeating to a
/// fixed point. Returns the smallest failing cell and its violations.
pub fn shrink(
    cell: &FuzzCell,
    check: &mut dyn FnMut(&FuzzCell) -> Vec<Violation>,
) -> (FuzzCell, Vec<Violation>) {
    let mut best = cell.clone();
    let mut best_violations = check(&best);
    assert!(
        !best_violations.is_empty(),
        "shrink() requires a failing cell"
    );
    loop {
        let mut improved = false;
        // Workload minimization: drop one instance at a time.
        while best.mix.len() > 1 {
            let mut dropped_one = false;
            for i in 0..best.mix.len() {
                let mut cand = best.clone();
                cand.mix.remove(i);
                let v = check(&cand);
                if !v.is_empty() {
                    best = cand;
                    best_violations = v;
                    improved = true;
                    dropped_one = true;
                    break;
                }
            }
            if !dropped_one {
                break;
            }
        }
        // Config minimization: reset stages toward the paper default.
        let default = StackSpec::default();
        let resets: [&dyn Fn(&mut StackSpec); 5] = [
            &|s| s.estimator = default.estimator,
            &|s| s.admission = default.admission,
            &|s| s.selector = default.selector,
            &|s| s.placer = default.placer,
            &|s| s.quantum_us = default.quantum_us,
        ];
        for reset in resets {
            let mut cand = best.clone();
            reset(&mut cand.stack);
            if cand.stack == best.stack {
                continue;
            }
            let v = check(&cand);
            if !v.is_empty() {
                best = cand;
                best_violations = v;
                improved = true;
            }
        }
        // Topology minimization: collapse to the flat single-socket bus.
        if best.sockets != 1 {
            let mut cand = best.clone();
            cand.sockets = 1;
            let v = check(&cand);
            if !v.is_empty() {
                best = cand;
                best_violations = v;
                improved = true;
            }
        }
        if !improved {
            return (best, best_violations);
        }
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The ready-to-paste regression test for a shrunk failing cell.
pub fn repro_test_snippet(cell: &FuzzCell) -> String {
    format!(
        r#"#[test]
fn audit_repro() {{
    use busbw_experiments::audit::{{check_cell_differential, FuzzCell}};
    use busbw_experiments::policy::StackSpec;
    let cell = FuzzCell {{
        stack: StackSpec::parse("{stack}").unwrap(),
        mix: vec![{mix}],
        seed: {seed},
        scale: {scale:?},
        sockets: {sockets},
    }};
    let violations = check_cell_differential(&cell, 4);
    assert!(violations.is_empty(), "{{violations:?}}");
}}
"#,
        stack = spec_string(&cell.stack),
        mix = cell
            .mix
            .iter()
            .map(|m| format!("\"{m}\""))
            .collect::<Vec<_>>()
            .join(", "),
        seed = cell.seed,
        scale = cell.scale,
        sockets = cell.sockets,
    )
}

/// Serialize a shrunk failing cell and its violations as `repro.json`.
pub fn repro_json(cell: &FuzzCell, violations: &[Violation]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"policy\": \"{}\",",
        json_escape(&spec_string(&cell.stack))
    );
    let _ = writeln!(
        out,
        "  \"mix\": [{}],",
        cell.mix
            .iter()
            .map(|m| format!("\"{}\"", json_escape(m)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(out, "  \"seed\": {},", cell.seed);
    let _ = writeln!(out, "  \"scale\": {:?},", cell.scale);
    let _ = writeln!(out, "  \"sockets\": {},", cell.sockets);
    let _ = writeln!(out, "  \"violations\": [");
    for (i, v) in violations.iter().enumerate() {
        let comma = if i + 1 < violations.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"invariant\": \"{}\", \"at_us\": {}, \"detail\": \"{}\"}}{comma}",
            json_escape(v.invariant),
            v.at_us,
            json_escape(&v.detail)
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(
        out,
        "  \"test\": \"{}\"",
        json_escape(&repro_test_snippet(cell))
    );
    out.push_str("}\n");
    out
}

/// Shrink a failing cell and write `repro.json` under `dir`. Returns the
/// shrunk cell.
pub fn shrink_and_write_repro(
    dir: &Path,
    cell: &FuzzCell,
    check: &mut dyn FnMut(&FuzzCell) -> Vec<Violation>,
) -> std::io::Result<FuzzCell> {
    let (shrunk, violations) = shrink(cell, check);
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("repro.json"), repro_json(&shrunk, &violations))?;
    Ok(shrunk)
}

/// What `experiments audit` runs.
pub struct AuditConfig {
    /// Number of fuzz cells (0 = presets and self-checks only).
    pub fuzz: usize,
    /// Campaign seed.
    pub seed: u64,
    /// Work-volume scale for every audited run.
    pub scale: f64,
    /// Workers for the engine passes.
    pub workers: usize,
    /// Where `repro.json` goes on failure.
    pub out: std::path::PathBuf,
}

/// The preset suite: every named policy over one figure mix per §5 set,
/// audited serially. Returns `(label, violations)` per cell.
pub fn preset_suite(scale: f64, seed: u64) -> Vec<(String, Vec<Violation>)> {
    let policies: [PolicyKind; 7] = [
        PolicyKind::Latest,
        PolicyKind::Window,
        PolicyKind::Linux,
        PolicyKind::LinuxO1,
        PolicyKind::RoundRobinGang,
        PolicyKind::RandomGang(7),
        PolicyKind::GreedyPack,
    ];
    let mixes = [
        fig2_set_a(PaperApp::Cg),
        fig2_set_b(PaperApp::LuCb),
        fig2_set_c(PaperApp::Sp),
    ];
    let mut out = Vec::new();
    for policy in policies {
        for mix in &mixes {
            let rc = RunnerConfig {
                scale,
                seed,
                trace: TraceMode::Collect,
                ..RunnerConfig::default()
            };
            let mut auditor = Auditor::with_builtins();
            let result = run_spec_hooked(mix, policy, &rc, Some(&mut auditor));
            auditor.check_events(&result.events);
            out.push((
                format!("{} / {}", policy.label(), mix.name),
                auditor.take_violations(),
            ));
        }
    }
    out
}

/// Oracle-admissibility differential: draw the `i`-th tiny cell of a
/// seeded campaign (first two mix names, scale capped at 0.05 so the
/// branch-and-bound search stays small), solve it with the
/// offline-optimal oracle, and check both halves of the
/// `oracle-admissibility` invariant — the optimal mean turnaround is at
/// most every preset's on the same cell, and the search's root lower
/// bound never exceeds the cost it achieves.
pub fn check_oracle_admissibility(campaign_seed: u64, i: u64, scale: f64) -> Vec<Violation> {
    let cell = fuzz_cell(campaign_seed, i, scale.min(0.05));
    let names: Vec<&'static str> = cell.mix.iter().copied().take(2).collect();
    let spec = mix_from_names(&names).expect("fuzz mixes use paper names");
    let rc = RunnerConfig {
        scale: cell.scale,
        seed: cell.seed,
        trace: TraceMode::Off,
        ..RunnerConfig::default()
    };
    let oracle = crate::regret::oracle_outcome(&spec, &rc);
    let mut out = Vec::new();
    if oracle.report.root_lower_bound_us > oracle.report.best_cost_us {
        out.push(Violation {
            invariant: "oracle-admissibility",
            at_us: 0,
            detail: format!(
                "root lower bound {} µs exceeds achieved cost {} µs on {}",
                oracle.report.root_lower_bound_us, oracle.report.best_cost_us, spec.name
            ),
        });
    }
    for policy in crate::regret::REGRET_PRESETS {
        let heuristic = run_spec(&spec, policy, &rc);
        if oracle.result.mean_turnaround_us > heuristic.mean_turnaround_us + 1e-6 {
            out.push(Violation {
                invariant: "oracle-admissibility",
                at_us: 0,
                detail: format!(
                    "oracle mean turnaround {:.3} µs exceeds {} ({:.3} µs) on {}",
                    oracle.result.mean_turnaround_us,
                    policy.label(),
                    heuristic.mean_turnaround_us,
                    spec.name
                ),
            });
        }
    }
    out
}

/// Run the full audit; returns the process exit code (0 = clean).
pub fn run_audit(cfg: &AuditConfig) -> i32 {
    let mut dirty = 0usize;

    let catalog = Auditor::with_builtins();
    println!("invariant catalog ({} checks):", catalog.catalog().len());
    for (name, paper_ref) in catalog.catalog() {
        println!("  {name:<22} {paper_ref}");
    }

    let mut selfcheck = Auditor::with_builtins();
    selfcheck.self_check(cfg.seed);
    let v = selfcheck.take_violations();
    println!(
        "\nself-check (seed {}): {}",
        cfg.seed,
        if v.is_empty() {
            "clean".into()
        } else {
            format!("{} violations", v.len())
        }
    );
    for violation in &v {
        println!("  {violation}");
    }
    dirty += v.len();

    println!("\npreset suite (scale {}):", cfg.scale);
    for (label, violations) in preset_suite(cfg.scale, cfg.seed) {
        if violations.is_empty() {
            println!("  ok   {label}");
        } else {
            println!("  FAIL {label} ({} violations)", violations.len());
            for violation in &violations {
                println!("       {violation}");
            }
            dirty += violations.len();
        }
    }

    if cfg.fuzz > 0 {
        let oracle_cells = cfg.fuzz.min(3) as u64;
        println!("\noracle-admissibility differential: {oracle_cells} tiny cells");
        for i in 0..oracle_cells {
            let mix: Vec<_> = fuzz_cell(cfg.seed, i, cfg.scale)
                .mix
                .into_iter()
                .take(2)
                .collect();
            let violations = check_oracle_admissibility(cfg.seed, i, cfg.scale);
            if violations.is_empty() {
                println!("  ok   oracle cell {i}: {}", mix.join("+"));
            } else {
                dirty += violations.len();
                println!(
                    "  FAIL oracle cell {i}: {} ({} violations)",
                    mix.join("+"),
                    violations.len()
                );
                for violation in &violations {
                    println!("       {violation}");
                }
            }
        }

        println!(
            "\ndifferential fuzz: {} cells (campaign seed {}, {} workers)",
            cfg.fuzz, cfg.seed, cfg.workers
        );
        for i in 0..cfg.fuzz as u64 {
            let cell = fuzz_cell(cfg.seed, i, cfg.scale);
            let violations = check_cell_differential(&cell, cfg.workers);
            if violations.is_empty() {
                println!(
                    "  ok   cell {i:>3}: {} over {}",
                    spec_string(&cell.stack),
                    cell.mix.join("+")
                );
                continue;
            }
            dirty += violations.len();
            println!(
                "  FAIL cell {i:>3}: {} over {} ({} violations) — shrinking",
                spec_string(&cell.stack),
                cell.mix.join("+"),
                violations.len()
            );
            for violation in &violations {
                println!("       {violation}");
            }
            let mut check = |c: &FuzzCell| check_cell_differential(c, cfg.workers);
            match shrink_and_write_repro(&cfg.out, &cell, &mut check) {
                Ok(shrunk) => println!(
                    "       shrunk to {} over {} — wrote {}",
                    spec_string(&shrunk.stack),
                    shrunk.mix.join("+"),
                    cfg.out.join("repro.json").display()
                ),
                Err(e) => println!("       failed to write repro: {e}"),
            }
        }
    }

    if dirty == 0 {
        println!("\naudit clean: every invariant held");
        0
    } else {
        println!("\naudit FAILED: {dirty} violations");
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use busbw_audit::invariants::count_by_invariant;
    use busbw_core::pipeline::{
        PAPER_QUANTUM_US, {Placer, PolicyStack, StageCtx},
    };
    use busbw_sim::{Assignment, AuditHook, CpuId, Scheduler, XEON_4WAY};
    use busbw_workloads::build_machine;

    #[test]
    fn mix_roundtrip_and_rejection() {
        let mix = mix_from_names(&["CG", "LU CB"]).expect("known names");
        assert_eq!(mix.apps.len(), 2);
        assert_eq!(mix.measured, vec![0, 1]);
        assert!(mix_from_names(&["not-an-app"]).is_none());
        assert!(mix_from_names(&[]).is_none());
    }

    #[test]
    fn spec_string_roundtrips_through_parse() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            let stack = random_stack(&mut rng);
            let reparsed = StackSpec::parse(&spec_string(&stack)).expect("valid grammar");
            assert_eq!(reparsed, stack, "grammar {}", spec_string(&stack));
        }
    }

    #[test]
    fn oracle_differential_is_clean_on_a_tiny_cell() {
        assert_eq!(check_oracle_admissibility(42, 0, 0.04), Vec::new());
    }

    #[test]
    fn fuzz_cells_are_deterministic_per_seed() {
        assert_eq!(fuzz_cell(42, 3, 0.1), fuzz_cell(42, 3, 0.1));
        assert_ne!(fuzz_cell(42, 3, 0.1), fuzz_cell(42, 4, 0.1));
    }

    #[test]
    fn random_cell_is_clean_under_full_differential_check() {
        let cell = fuzz_cell(42, 0, 0.05);
        let violations = check_cell_differential(&cell, 4);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn sibling_driver_that_keeps_sharing_past_a_split_is_caught() {
        let cell = fuzz_cell(42, 0, 0.05);
        let mix = mix_from_names(&cell.mix).unwrap();
        let rc = runner_config(&cell, TraceMode::Off);
        let baseline = canonical_bytes(&run_spec(&mix, PolicyKind::Stack(cell.stack), &rc));
        let mut honest = Auditor::with_builtins();
        check_grouped_arm(&mut honest, &cell, &mix, &rc, &baseline, false);
        assert_eq!(honest.take_violations(), Vec::new());
        let mut faulty = Auditor::with_builtins();
        check_grouped_arm(&mut faulty, &cell, &mix, &rc, &baseline, true);
        let counts = count_by_invariant(faulty.violations());
        assert!(
            counts.contains_key("exec-path-equivalence"),
            "a driver sharing past the split must be caught, got {counts:?}"
        );
    }

    #[test]
    fn multi_socket_cell_is_clean_under_full_differential_check() {
        // Pin a hierarchical-topology cell with a socket-aware placer so
        // the five-way differential always covers the per-level Λ path.
        let cell = FuzzCell {
            stack: StackSpec::parse("placer=pack_local").unwrap(),
            mix: vec!["CG", "SP"],
            seed: 7,
            scale: 0.05,
            sockets: 2,
        };
        let violations = check_cell_differential(&cell, 4);
        assert!(violations.is_empty(), "{violations:?}");
    }

    /// The seeded fault: a placer that books every admitted thread onto
    /// cpu 0.
    struct DoubleBookPlacer;

    impl Placer for DoubleBookPlacer {
        fn label(&self) -> &'static str {
            "DoubleBook"
        }

        fn place(
            &mut self,
            ctx: &StageCtx<'_, '_>,
            admitted: &[busbw_sim::AppId],
        ) -> Vec<Assignment> {
            let mut out = Vec::new();
            for &app in admitted {
                if let Some(info) = ctx.view.app(app) {
                    for &t in info.threads {
                        out.push(Assignment {
                            thread: t,
                            cpu: CpuId(0),
                        });
                    }
                }
            }
            out
        }
    }

    #[test]
    fn double_booking_placer_fires_the_auditor_end_to_end() {
        use busbw_core::pipeline::{FitnessSelector, HeadOfList, NullEstimator};
        let mix = mix_from_names(&["CG", "LU CB"]).unwrap().scaled(0.05);
        let built = build_machine(&mix, XEON_4WAY, 1);
        let mut stack = PolicyStack::new(
            "double-book",
            PAPER_QUANTUM_US,
            Box::new(NullEstimator),
            Box::new(HeadOfList),
            Box::new(FitnessSelector),
            Box::new(DoubleBookPlacer),
        );
        stack.set_introspect(true);
        let decision = stack.schedule(&built.machine.view());
        let mut auditor = Auditor::with_builtins();
        auditor.on_decision(&built.machine.view(), &decision, stack.stage_snapshot());
        let counts = count_by_invariant(auditor.violations());
        assert!(
            counts.contains_key("no-double-allocation"),
            "expected the double-booking fault to fire, got {counts:?}"
        );
    }

    #[test]
    fn shrinker_minimizes_to_the_failing_core_and_writes_repro() {
        // Synthetic failure oracle: the bug reproduces whenever CG is in
        // the mix AND the selector is Greedy. Everything else is noise
        // the shrinker must strip.
        let mut check = |c: &FuzzCell| -> Vec<Violation> {
            let fails = c.mix.contains(&"CG") && matches!(c.stack.selector, SelectorKind::Greedy);
            if fails {
                vec![Violation {
                    invariant: "bus-capacity",
                    at_us: 7,
                    detail: "synthetic".into(),
                }]
            } else {
                Vec::new()
            }
        };
        let noisy = FuzzCell {
            stack: StackSpec {
                estimator: EstimatorKind::Ewma(3),
                admission: AdmissionKind::Widest,
                selector: SelectorKind::Greedy,
                placer: PlacerKind::Smt,
                quantum_us: 50_000,
            },
            mix: vec!["SP", "CG", "Raytrace", "LU CB"],
            seed: 99,
            scale: 0.1,
            sockets: 4,
        };
        let dir = std::env::temp_dir().join(format!("busbw-audit-repro-{}", std::process::id()));
        let shrunk = shrink_and_write_repro(&dir, &noisy, &mut check).expect("write repro");
        assert_eq!(shrunk.mix, vec!["CG"], "mix fully minimized");
        assert!(matches!(shrunk.stack.selector, SelectorKind::Greedy));
        assert_eq!(shrunk.sockets, 1, "topology collapsed to the flat bus");
        // Every other stage reset to the paper default.
        let default = StackSpec::default();
        assert_eq!(shrunk.stack.estimator, default.estimator);
        assert_eq!(shrunk.stack.admission, default.admission);
        assert_eq!(shrunk.stack.placer, default.placer);
        assert_eq!(shrunk.stack.quantum_us, default.quantum_us);
        let json = std::fs::read_to_string(dir.join("repro.json")).expect("repro.json exists");
        assert!(json.contains("\"invariant\": \"bus-capacity\""), "{json}");
        assert!(json.contains("#[test]"), "{json}");
        assert!(json.contains("selector=greedy"), "{json}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repro_snippet_policy_string_reparses() {
        let cell = fuzz_cell(7, 0, 0.1);
        let snippet = repro_test_snippet(&cell);
        assert!(snippet.contains("StackSpec::parse"));
        assert!(StackSpec::parse(&spec_string(&cell.stack)).is_ok());
    }
}
