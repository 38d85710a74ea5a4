//! Differential test of sibling-group execution: every heuristic cell of
//! the topology, sweep and regret plans, executed through the engine
//! (where cells that differ only in policy share a machine until their
//! decisions split) and one by one through `RunRequest::execute`, must
//! encode to the same bytes. So must every cell of the open figure,
//! whose cells that differ only in stack share one managerd serve until
//! their selections split.

use busbw_experiments::cache::encode_result;
use busbw_experiments::open::DEFAULT_QUEUE_CAPACITY;
use busbw_experiments::{
    parse_arrivals, plan_open, plan_regret, plan_suite, plan_topo, Engine, Plan, RunResult,
    RunShape, RunnerConfig, TOPO_SHAPES,
};

/// Codec bytes without the stage timings, which are wall-clock readings.
fn canonical(r: &RunResult) -> Vec<u8> {
    let mut r = r.clone();
    r.stage_timings = None;
    encode_result(&r)
}

#[test]
fn grouped_engine_matches_cell_by_cell_execution() {
    let rc = RunnerConfig {
        scale: 0.02,
        ..RunnerConfig::default()
    };
    let mut declared = Plan::new();
    for shape in TOPO_SHAPES {
        plan_topo(&mut declared, shape, &rc);
    }
    plan_suite(&mut declared, &rc);
    plan_regret(&mut declared, &rc);
    // The oracle's search is out of the grouping's scope: leave it out.
    let mut plan = Plan::new();
    let ids: Vec<_> = declared
        .requests()
        .iter()
        .filter(|r| !matches!(r.shape(), RunShape::Oracle(_)))
        .map(|r| (plan.cell(r.clone()), r))
        .collect();

    let mut engine = Engine::ephemeral();
    let grouped = engine.execute(&plan, 2);
    let stats = *engine.stats();
    assert_eq!(stats.executed, plan.len() as u64);
    assert!(stats.forks > 0, "no sibling group ever split: {stats:?}");
    assert!(
        stats.groups < stats.executed,
        "no cells were grouped: {stats:?}"
    );
    assert!(stats.shared_ticks > 0, "{stats:?}");

    for (id, req) in ids {
        assert_eq!(
            canonical(grouped.get(id)),
            canonical(&req.execute()),
            "grouped execution diverged from the lone run of {req:?}"
        );
    }
}

#[test]
fn topo_plan_simulates_its_shared_prefixes_once() {
    // The topology panels' placers often decide alike (on one socket
    // `pack_local` and `spread_sockets` place exactly like `packed`), so
    // a large share of their cell ticks is simulated on a sibling's
    // behalf.
    let rc = RunnerConfig {
        scale: 0.1,
        ..RunnerConfig::default()
    };
    let mut declared = Plan::new();
    for shape in TOPO_SHAPES {
        plan_topo(&mut declared, shape, &rc);
    }
    let mut plan = Plan::new();
    let ids: Vec<_> = declared
        .requests()
        .iter()
        .map(|r| plan.cell(r.clone()))
        .collect();
    let mut engine = Engine::ephemeral();
    let executed = engine.execute(&plan, 1);
    let ticks: u64 = ids.iter().map(|&id| executed.get(id).ticks).sum();
    let shared = engine.stats().shared_ticks;
    assert!(
        shared as f64 >= 0.4 * ticks as f64,
        "only {shared} of {ticks} cell ticks shared"
    );
}

#[test]
fn forked_branches_give_the_same_bytes_at_every_worker_count() {
    // Forked branches run as stealable pool tasks; which worker runs a
    // branch, and when, must not show in any member's result.
    let rc = RunnerConfig {
        scale: 0.05,
        ..RunnerConfig::default()
    };
    let mut declared = Plan::new();
    for shape in TOPO_SHAPES {
        plan_topo(&mut declared, shape, &rc);
    }
    let mut plan = Plan::new();
    let ids: Vec<_> = declared
        .requests()
        .iter()
        .map(|r| plan.cell(r.clone()))
        .collect();
    let run = |workers: usize| {
        let mut engine = Engine::ephemeral();
        let executed = engine.execute(&plan, workers);
        let bytes: Vec<Vec<u8>> = ids.iter().map(|&id| canonical(executed.get(id))).collect();
        (bytes, *engine.stats())
    };
    let (serial, stats) = run(1);
    assert!(stats.forks > 0, "no sibling group split: {stats:?}");
    assert_eq!(stats.subtasks, stats.forks, "every fork is one subtask");
    assert_eq!(stats.steals, 0, "one worker has no one to steal from");
    for workers in [2, 8] {
        let (bytes, stats) = run(workers);
        assert_eq!(bytes, serial, "workers = {workers}");
        assert_eq!(stats.subtasks, stats.forks, "{stats:?}");
    }
}

#[test]
fn grouped_open_cells_match_their_lone_serves() {
    for arrivals in ["poisson:20", "pareto:20", "diurnal:20"] {
        for seed in [42, 7] {
            let rc = RunnerConfig {
                seed,
                scale: 0.05,
                ..RunnerConfig::default()
            };
            let mut declared = Plan::new();
            plan_open(
                &mut declared,
                &rc,
                parse_arrivals(arrivals).expect("a valid spec"),
                2_000_000_000,
                DEFAULT_QUEUE_CAPACITY,
            );
            let mut plan = Plan::new();
            let ids: Vec<_> = declared
                .requests()
                .iter()
                .map(|r| (plan.cell(r.clone()), r))
                .collect();
            let mut engine = Engine::ephemeral();
            let grouped = engine.execute(&plan, 2);
            let stats = *engine.stats();
            let what = format!("{arrivals} seed {seed}: {stats:?}");
            assert_eq!(stats.executed, plan.len() as u64, "{what}");
            assert!(stats.groups < stats.executed, "no cells grouped: {what}");
            assert!(stats.forks > 0, "no class was served again: {what}");
            assert_eq!(stats.serves, stats.groups + stats.forks, "{what}");
            assert!(stats.serves < stats.executed, "{what}");
            for (id, req) in ids {
                assert_eq!(
                    canonical(grouped.get(id)),
                    canonical(&req.execute()),
                    "{arrivals} seed {seed}: grouped serve diverged from the lone run of {req:?}"
                );
            }
        }
    }
}
