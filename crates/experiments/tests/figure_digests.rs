//! The byte-identity contract, checked in the test suite: every figure
//! artifact `experiments` writes is rendered here through the same
//! library calls (`Table::from_figure`, then `render` for the `.txt` and
//! `to_csv` for the `.csv`) and digested with FNV-1a. The digests are
//! compared with a committed table keyed by artifact name, so a failure
//! names each file that moved. A deliberate change to figure bits re-pins
//! the table from the complete new table the failure prints.
//!
//! Covered, at seed 42:
//! - the `all` sweep at scale 0.02 (its 13 figures and `summary`);
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

    // `experiments all --scale 0.02`, in the binary's emission order.
    let rc_all = rc(0.02);
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
    ("all/fig1a.txt", 0x3d935b6c8046e632),
    ("all/fig1a.csv", 0xa18ad51b183c84a7),
    ("all/fig1b.txt", 0x17aa092aae27ddcf),
    ("all/fig1b.csv", 0x68ce0a3ed08cc17a),
    ("all/fig2a.txt", 0xd23f7a421bd8faf2),
    ("all/fig2a.csv", 0xbffdd34309f6c400),
    ("all/fig2b.txt", 0xe7fa11e54a631f82),
    ("all/fig2b.csv", 0xd58f531b7bfc542e),
    ("all/fig2c.txt", 0x459a3c114c2295f6),
    ("all/fig2c.csv", 0x51c20d915f680fec),
    ("all/summary.txt", 0x6a395d2b0246b9b4),
    ("all/summary.csv", 0x64ae7abf1a025edd),
    ("all/ablate-window.txt", 0x955aa5ab1ad3ff6c),
    ("all/ablate-window.csv", 0x74aa5891940f4184),
    ("all/ablate-quantum.txt", 0x29db9b7a96a30d61),
    ("all/ablate-quantum.csv", 0x7c6242e510681614),
    ("all/ablate-fitness.txt", 0xabf2ca99475a776e),
    ("all/ablate-fitness.csv", 0x35e2065077769d8c),
    ("all/ablate-smt.txt", 0x4591adbfb4c2d32f),
    ("all/ablate-smt.csv", 0x1094db8be70a89b4),
    ("all/dynamic.txt", 0xf7cd5e6279e9d725),
    ("all/dynamic.csv", 0xf8bb05bc2785566e),
    ("all/baselines.txt", 0x55f1a83bf6c0f813),
    ("all/baselines.csv", 0x8ec87b3eeb990234),
    ("all/robustness.txt", 0x8df570414ea8f3a6),
    ("all/robustness.csv", 0x7c3de6ed62e41cb9),
    ("all/ablate-stages.txt", 0x635dd7796b7bf8ab),
    ("all/ablate-stages.csv", 0x75e61f4810a42aa3),
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
