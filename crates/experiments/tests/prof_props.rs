//! Byte-identity of the phase profiler: a profiling-enabled run must be
//! indistinguishable, under the run codec, from the same run with the
//! profiler off. The `PhaseTimer` only reads wall clocks, so nothing it
//! does may leak into simulation state — this is the property that lets
//! the ledger's sim probe attribute nanoseconds to the *production* tick
//! path rather than to an instrumented variant of it.
//!
//! Mechanical timer semantics (nesting, re-entrancy, toggling, disabled
//! cost) are unit-tested in `busbw-sim::prof`.

use busbw_experiments::cache::encode_result;
use busbw_experiments::mix_from_names;
use busbw_experiments::policy::{
    AdmissionKind, EstimatorKind, PlacerKind, SelectorKind, StackSpec,
};
use busbw_experiments::runner::{run_spec, run_spec_profiled, PolicyKind, RunnerConfig, TraceMode};
use busbw_workloads::paper::PaperApp;
use proptest::prelude::*;

fn arb_stack() -> impl Strategy<Value = StackSpec> {
    (
        (0usize..5, 1usize..8),
        0usize..5,
        (0usize..5, 0u64..1000),
        0usize..3,
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
            placer: [PlacerKind::Packed, PlacerKind::Scatter, PlacerKind::Smt][p],
            quantum_us: [20_000, 50_000, 100_000, 200_000, 400_000][q],
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn profiled_runs_are_codec_identical_to_unprofiled(
        stack in arb_stack(),
        app_idxs in proptest::collection::vec(0..PaperApp::ALL.len(), 2..4),
        seed in 0u64..10_000,
    ) {
        let names: Vec<&str> = app_idxs.iter().map(|&i| PaperApp::ALL[i].name()).collect();
        let mix = mix_from_names(&names).expect("paper names are known");
        let rc = RunnerConfig {
            scale: 0.05,
            seed,
            trace: TraceMode::Null,
            ..RunnerConfig::default()
        };
        let policy = PolicyKind::Stack(stack);

        let mut plain = run_spec(&mix, policy, &rc);
        let (mut profiled, phases) = run_spec_profiled(&mix, policy, &rc);
        // Stage timings are wall-clock observations (explicitly excluded
        // from figure data and from the audit differential's canonical
        // bytes); everything else must match bit-for-bit.
        plain.stage_timings = None;
        profiled.stage_timings = None;

        // The profiler must have actually been on (the property is vacuous
        // against a timer that never fired) …
        prop_assert!(
            !phases.is_empty(),
            "profiled run recorded no phases over {names:?} (seed {seed})"
        );
        // … and invisible to everything the codec can see.
        prop_assert_eq!(
            encode_result(&plain),
            encode_result(&profiled),
            "profiling changed the run-codec bytes: {:?} over {:?} (seed {})",
            policy.label(),
            &names,
            seed
        );
    }
}
