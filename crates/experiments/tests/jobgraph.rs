//! Integration tests for the sweep-wide job graph: run-key soundness
//! (any tunable change changes the key), cache-served bit-identity
//! (including collected traces), and byte-identical figure artifacts
//! across worker counts and cache states.

use std::path::PathBuf;

use busbw_experiments::cache::encode_result;
use busbw_experiments::fig2::{fold_fig2, plan_fig2, Fig2Set};
use busbw_experiments::{
    Engine, Plan, PolicyKind, RunCache, RunRequest, RunnerConfig, TraceMode, Workload,
};
use busbw_metrics::Table;
use busbw_sim::{XEON_4WAY, XEON_4WAY_HT};
use busbw_workloads::mix::fig2_set_b;
use busbw_workloads::paper::PaperApp;
use proptest::prelude::*;

/// A scratch cache directory unique to this test process + label.
fn scratch_dir(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!("busbw-jobgraph-{}-{label}", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Two run requests get the same key exactly when every tunable —
    /// workload, policy, seed, scale, hard cap, machine — agrees. Keys
    /// never collide across differing configurations, and never differ
    /// for identical ones.
    #[test]
    fn run_key_is_sound_and_complete(
        seed_a in 0u64..64, seed_b in 0u64..64,
        scale_a in 1u32..8, scale_b in 1u32..8,
        app_a in 0usize..11, app_b in 0usize..11,
        pol_a in 0usize..4, pol_b in 0usize..4,
        cap_a in 1u32..4, cap_b in 1u32..4,
        ht_a in 0u8..2, ht_b in 0u8..2,
    ) {
        let policies = [
            PolicyKind::Linux,
            PolicyKind::Latest,
            PolicyKind::Window,
            PolicyKind::ModelDriven,
        ];
        let mk = |seed, scale: u32, app: usize, pol: usize, cap: u32, ht: u8| {
            let rc = RunnerConfig {
                seed,
                scale: scale as f64 * 0.01,
                hard_cap_factor: cap as f64 * 100.0,
                machine: if ht == 1 { XEON_4WAY_HT } else { XEON_4WAY },
                ..RunnerConfig::default()
            };
            RunRequest::spec(&Workload::new(fig2_set_b(PaperApp::ALL[app])), policies[pol], &rc)
        };
        let a = mk(seed_a, scale_a, app_a, pol_a, cap_a, ht_a);
        let b = mk(seed_b, scale_b, app_b, pol_b, cap_b, ht_b);
        let same = seed_a == seed_b
            && scale_a == scale_b
            && app_a == app_b
            && pol_a == pol_b
            && cap_a == cap_b
            && ht_a == ht_b;
        prop_assert_eq!(a.key() == b.key(), same);
        prop_assert_eq!(a.key().hash64() == b.key().hash64(), same);
    }
}

/// A cache-served result — memory tier or a disk round-trip through a
/// fresh engine — is bit-identical to the fresh run, including the
/// collected trace events (the run key separates trace modes, so a
/// traced run can never be served a traceless result).
#[test]
fn cache_served_result_is_bit_identical_including_trace() {
    let dir = scratch_dir("bitident");
    std::fs::remove_dir_all(&dir).ok();
    let rc = RunnerConfig {
        scale: 0.02,
        trace: TraceMode::Collect,
        ..RunnerConfig::default()
    };
    let req = RunRequest::spec(
        &Workload::new(fig2_set_b(PaperApp::Cg)),
        PolicyKind::Window,
        &rc,
    );

    let mut plan = Plan::new();
    let id = plan.cell(req);

    let mut cold = Engine::new(RunCache::new(Some(dir.clone()), true));
    let fresh = cold.execute(&plan, 1);
    assert_eq!(cold.stats().executed, 1);
    let fresh_bytes = encode_result(fresh.get(id));
    assert!(
        !fresh.get(id).events.is_empty(),
        "collected trace must be part of the cached payload"
    );

    // Memory tier: same engine, same plan.
    let mem = cold.execute(&plan, 1);
    assert_eq!(cold.stats().cache_hits, 1);
    assert_eq!(encode_result(mem.get(id)), fresh_bytes);

    // Disk tier: a fresh engine over the same directory executes nothing.
    let mut warm = Engine::new(RunCache::new(Some(dir.clone()), true));
    let served = warm.execute(&plan, 1);
    assert_eq!(warm.stats().executed, 0, "disk cache must serve the run");
    assert_eq!(warm.stats().cache_hits, 1);
    assert_eq!(encode_result(served.get(id)), fresh_bytes);

    std::fs::remove_dir_all(&dir).ok();
}

/// One Figure 2 panel folded to CSV through a given engine and worker
/// count.
fn fig2b_csv(workers: usize, engine: &mut Engine, rc: &RunnerConfig) -> String {
    let mut plan = Plan::new();
    let cells = plan_fig2(
        &mut plan,
        Fig2Set::B,
        &[PolicyKind::Latest, PolicyKind::Window],
        rc,
    );
    let executed = engine.execute(&plan, workers);
    Table::from_figure(&fold_fig2(&cells, &executed)).to_csv()
}

/// The acceptance gate of the job-graph change: the figure artifact is
/// byte-identical whether runs execute serially, on the work-stealing
/// pool, against a cold disk cache, or entirely from a warm one.
#[test]
fn figure_csv_identical_across_workers_and_cache_states() {
    let dir = scratch_dir("csv");
    std::fs::remove_dir_all(&dir).ok();
    let rc = RunnerConfig {
        scale: 0.02,
        ..RunnerConfig::default()
    };

    let serial = fig2b_csv(1, &mut Engine::new(RunCache::new(None, true)), &rc);
    let stolen = fig2b_csv(4, &mut Engine::new(RunCache::new(None, true)), &rc);
    let uncached = fig2b_csv(4, &mut Engine::new(RunCache::new(None, false)), &rc);
    let cold = fig2b_csv(
        4,
        &mut Engine::new(RunCache::new(Some(dir.clone()), true)),
        &rc,
    );
    let mut warm_engine = Engine::new(RunCache::new(Some(dir.clone()), true));
    let warm = fig2b_csv(2, &mut warm_engine, &rc);

    assert_eq!(serial, stolen, "work stealing must not change the figure");
    assert_eq!(
        serial, uncached,
        "disabling the cache must not change the figure"
    );
    assert_eq!(serial, cold, "a cold disk cache must not change the figure");
    assert_eq!(serial, warm, "a warm disk cache must not change the figure");
    assert!(
        warm_engine.stats().cache_hits > 0 && warm_engine.stats().executed == 0,
        "warm pass must be fully cache-served: {:?}",
        warm_engine.stats()
    );

    std::fs::remove_dir_all(&dir).ok();
}
