//! The byte-identity contract, checked in the test suite: every figure
//! artifact `experiments` writes is rendered here through the same
//! library calls (`Table::from_figure`, then `render` for the `.txt` and
//! `to_csv` for the `.csv`) and digested with FNV-1a. The digests are
//! compared with a committed table keyed by artifact name, so a failure
//! names each file that moved. A deliberate change to figure bits re-pins
//! the table from the complete new table the failure prints.
//!
//! Covered, at seed 42:
//! - the `all` sweep at scale 0.1 (its 13 figures and `summary`);
//! - `open --arrivals poisson:small --duration short` at scale 1;
//! - `regret` at scale 0.02;
//! - `topo` (its three panels) at scale 0.1.

use busbw_experiments::open::{DEFAULT_QUEUE_CAPACITY, SHORT_DURATION_US};
use busbw_experiments::{
    fold_open, fold_regret, fold_suite, fold_topo, parse_arrivals, plan_open, plan_regret,
    plan_suite, plan_topo, suite_artifacts, Engine, Plan, RunnerConfig, SuiteArtifact, TOPO_SHAPES,
};
use busbw_metrics::{FigureSummary, Table};
use busbw_trace::fnv1a64;

/// Pool threads; figure bytes do not depend on the count.
const WORKERS: usize = 2;

fn rc(scale: f64) -> RunnerConfig {
    RunnerConfig {
        scale,
        ..RunnerConfig::default()
    }
}

/// The `.txt` and `.csv` artifacts of `table`, named after `id`.
fn push_table(out: &mut Vec<(String, u64)>, id: &str, table: &Table) {
    out.push((format!("{id}.txt"), fnv1a64(table.render().as_bytes())));
    out.push((format!("{id}.csv"), fnv1a64(table.to_csv().as_bytes())));
}

fn push_figure(out: &mut Vec<(String, u64)>, prefix: &str, fig: &FigureSummary) {
    push_table(
        out,
        &format!("{prefix}/{}", fig.id),
        &Table::from_figure(fig),
    );
}

/// Every artifact's digest, in emission order.
fn digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();

    // `experiments all --scale 0.1`, in the binary's emission order.
    let rc_all = rc(0.1);
    let mut plan = Plan::new();
    let cells = plan_suite(&mut plan, &rc_all);
    let executed = Engine::ephemeral().execute(&plan, WORKERS);
    let figs = fold_suite(&cells, &executed);
    for artifact in suite_artifacts(&figs) {
        match artifact {
            SuiteArtifact::Figure(sf) => push_figure(&mut out, "all", &sf.fig),
            SuiteArtifact::Summary(t) => push_table(&mut out, "all/summary", &t),
        }
    }

    // `experiments open --arrivals poisson:small --duration short`.
    let rc_open = rc(1.0);
    let mut plan = Plan::new();
    let arrivals = parse_arrivals("poisson:small").expect("a bundled preset");
    let cells = plan_open(
        &mut plan,
        &rc_open,
        arrivals,
        SHORT_DURATION_US,
        DEFAULT_QUEUE_CAPACITY,
    );
    let executed = Engine::ephemeral().execute(&plan, WORKERS);
    push_figure(&mut out, "open", &fold_open(&cells, &executed));

    // `experiments regret --scale 0.02`.
    let rc_regret = rc(0.02);
    let mut plan = Plan::new();
    let cells = plan_regret(&mut plan, &rc_regret);
    let executed = Engine::ephemeral().execute(&plan, WORKERS);
    push_figure(&mut out, "regret", &fold_regret(&cells, &executed));

    // `experiments topo --scale 0.1`: one plan per panel, as emitted.
    let rc_topo = rc(0.1);
    for shape in TOPO_SHAPES {
        let mut plan = Plan::new();
        let cells = plan_topo(&mut plan, shape, &rc_topo);
        let executed = Engine::ephemeral().execute(&plan, WORKERS);
        push_figure(&mut out, "topo", &fold_topo(&cells, &executed));
    }
    out
}

/// FNV-1a digest of every artifact, keyed `<command>/<file>`.
const PINNED: &[(&str, u64)] = &[
    ("all/fig1a.txt", 0x721ddfac5853a30a),
    ("all/fig1a.csv", 0x08ac06103cc116f9),
    ("all/fig1b.txt", 0xbddba1f6c0f62710),
    ("all/fig1b.csv", 0x8afdd51b794b1467),
    ("all/fig2a.txt", 0xdab56342050fae67),
    ("all/fig2a.csv", 0x0f1b59b48fc84823),
    ("all/fig2b.txt", 0xb8f9c4540fe5d2fd),
    ("all/fig2b.csv", 0x7e3571a5d0a6d215),
    ("all/fig2c.txt", 0x04f7e689acd7acfe),
    ("all/fig2c.csv", 0x183b5577039384e0),
    ("all/summary.txt", 0x2eed9133482ae878),
    ("all/summary.csv", 0x851ffde895a4c4bf),
    ("all/ablate-window.txt", 0xd2d7dbfc561cb44e),
    ("all/ablate-window.csv", 0x792ca64140ecc306),
    ("all/ablate-quantum.txt", 0x033ab9976fb2b414),
    ("all/ablate-quantum.csv", 0x42e4b7bb5d62a39b),
    ("all/ablate-fitness.txt", 0x7bef7412bcec886f),
    ("all/ablate-fitness.csv", 0x8e2580e14d8b90b3),
    ("all/ablate-smt.txt", 0x38d53edfa1d3ffac),
    ("all/ablate-smt.csv", 0xa844fe6e5de1840f),
    ("all/dynamic.txt", 0x5593ac383edaf7f3),
    ("all/dynamic.csv", 0xa5c693363fc16536),
    ("all/baselines.txt", 0x9ad1776847da9b94),
    ("all/baselines.csv", 0xe2743e1bac645425),
    ("all/robustness.txt", 0xcdc1e86e94654b16),
    ("all/robustness.csv", 0xaafe722a4e1cd993),
    ("all/ablate-stages.txt", 0xf258727148ff472f),
    ("all/ablate-stages.csv", 0x5ad0ca6e7b9c0d27),
    ("open/open.txt", 0x97cfe11815d42371),
    ("open/open.csv", 0x0d7177e957489f1c),
    ("regret/regret.txt", 0xa3a04c1afe9771da),
    ("regret/regret.csv", 0x7378cb3f35e8bb32),
    ("topo/topo1.txt", 0xe69359d1ffe32aed),
    ("topo/topo1.csv", 0xfee36375ee34a613),
    ("topo/topo2.txt", 0xc9df296cc1c9ebd6),
    ("topo/topo2.csv", 0xe7e36f8fa1a75e62),
    ("topo/topo4.txt", 0x3cecf271939d512c),
    ("topo/topo4.csv", 0x3783dcbed3dfeaaa),
];

#[test]
fn every_figure_artifact_matches_its_pinned_digest() {
    let got = digests();
    let moved: Vec<String> = got
        .iter()
        .filter(|(name, d)| !PINNED.contains(&(name.as_str(), *d)))
        .map(|(name, _)| name.clone())
        .collect();
    let missing: Vec<&str> = PINNED
        .iter()
        .filter(|(name, _)| !got.iter().any(|(n, _)| n == name))
        .map(|(name, _)| *name)
        .collect();
    if moved.is_empty() && missing.is_empty() {
        return;
    }
    let mut table = String::from("const PINNED: &[(&str, u64)] = &[\n");
    for (name, d) in &got {
        table.push_str(&format!("    (\"{name}\", {d:#018x}),\n"));
    }
    table.push_str("];\n");
    panic!(
        "figure artifacts moved: {moved:?}; pinned but not produced: {missing:?}\n\
         new table:\n{table}"
    );
}
