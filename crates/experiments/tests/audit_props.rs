//! Property test behind `experiments audit`'s preset suite: every
//! built-in invariant holds for every preset policy across randomized
//! paper-workload mixes at 1/10 scale. The negative direction (each
//! invariant fires on a seeded fault) lives in the audit crate's unit
//! tests and `src/audit.rs`.

use busbw_audit::Auditor;
use busbw_experiments::audit::{check_cell_differential, FuzzCell};
use busbw_experiments::mix_from_names;
use busbw_experiments::policy::{
    AdmissionKind, EstimatorKind, PlacerKind, SelectorKind, StackSpec,
};
use busbw_experiments::runner::{run_spec_hooked, PolicyKind, RunnerConfig, TraceMode};
use busbw_workloads::paper::PaperApp;
use proptest::prelude::*;

const PRESETS: [PolicyKind; 7] = [
    PolicyKind::Latest,
    PolicyKind::Window,
    PolicyKind::Linux,
    PolicyKind::LinuxO1,
    PolicyKind::RoundRobinGang,
    PolicyKind::RandomGang(7),
    PolicyKind::GreedyPack,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn presets_are_invariant_clean_on_random_mixes(
        policy_idx in 0..PRESETS.len(),
        app_idxs in proptest::collection::vec(0..PaperApp::ALL.len(), 2..4),
        seed in 0u64..10_000,
    ) {
        let names: Vec<&str> = app_idxs.iter().map(|&i| PaperApp::ALL[i].name()).collect();
        let mix = mix_from_names(&names).expect("paper names are known");
        let rc = RunnerConfig {
            scale: 0.1,
            seed,
            trace: TraceMode::Collect,
            ..RunnerConfig::default()
        };
        let mut auditor = Auditor::with_builtins();
        let result = run_spec_hooked(&mix, PRESETS[policy_idx], &rc, Some(&mut auditor));
        auditor.check_events(&result.events);
        let violations = auditor.take_violations();
        prop_assert!(
            violations.is_empty(),
            "{} over {names:?} (seed {seed}): {:?}",
            PRESETS[policy_idx].label(),
            violations
        );
    }
}

fn arb_stack() -> impl Strategy<Value = StackSpec> {
    (
        (0usize..5, 1usize..8),
        0usize..5,
        (0usize..5, 0u64..1000),
        0usize..6,
        0usize..5,
    )
        .prop_map(|((e, n), a, (s, seed), p, q)| StackSpec {
            estimator: match e {
                0 => EstimatorKind::Latest,
                1 => EstimatorKind::Window(n),
                2 => EstimatorKind::Ewma(n),
                3 => EstimatorKind::Raw,
                _ => EstimatorKind::Null,
            },
            admission: [
                AdmissionKind::Head,
                AdmissionKind::StrictHead,
                AdmissionKind::Fcfs,
                AdmissionKind::Widest,
                AdmissionKind::Open,
            ][a],
            selector: match s {
                0 => SelectorKind::Fitness,
                1 => SelectorKind::Random(seed),
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
            ][p],
            quantum_us: [20_000, 50_000, 100_000, 200_000, 400_000][q],
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    /// Random composed stacks over random §5 workload mixes produce
    /// byte-identical run-codec output across every execution path:
    /// event-driven vs legacy per-tick, serial vs sibling group vs N-worker
    /// engine, cold vs cache-warm — the full
    /// differential behind `experiments audit --fuzz`.
    #[test]
    fn exec_paths_byte_agree_on_random_stacks_and_mixes(
        stack in arb_stack(),
        app_idxs in proptest::collection::vec(0..PaperApp::ALL.len(), 2..4),
        seed in 0u64..10_000,
        sockets_idx in 0usize..3,
    ) {
        let mix: Vec<&str> = app_idxs.iter().map(|&i| PaperApp::ALL[i].name()).collect();
        let sockets = [1, 2, 4][sockets_idx];
        let cell = FuzzCell { stack, mix, seed, scale: 0.05, sockets };
        let violations = check_cell_differential(&cell, 2);
        prop_assert!(violations.is_empty(), "{cell:?}: {violations:?}");
    }
}
