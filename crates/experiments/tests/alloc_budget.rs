//! A warm pass allocates per pass, not per cell: planning the whole
//! sweep, serving every cell from a filled pack, folding the figures and
//! rendering them as text and CSV stays under a pinned number of heap
//! allocations per served cell. This test binary installs an allocator
//! that counts requests, so the budget is measured, not assumed.
//!
//! Run with `--nocapture` to see the count of each layer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use busbw_experiments::{fold_suite, plan_suite, Engine, Plan, RunCache, RunnerConfig};
use busbw_metrics::Table;

/// The system allocator, counting the requests it serves (a `realloc`
/// counts as one).
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by `f`, with its result.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = f();
    (ALLOCS.load(Ordering::Relaxed) - before, r)
}

/// Allocations per served cell of one warm pass, at most. Pinned from the
/// measured 9.0 (plan 3.4, execute 2.0, fold 1.3, render 2.3 per cell over
/// the suite's 279 cells; 16.3 before the pack was read into one image)
/// with a margin of one allocation per cell.
const BUDGET_PER_CELL: f64 = 10.0;

#[test]
fn a_warm_pass_stays_inside_its_allocation_budget() {
    let dir = std::env::temp_dir().join(format!("busbw-alloc-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let rc = RunnerConfig {
        scale: 0.02,
        workers: 1,
        ..RunnerConfig::default()
    };
    // Fill the pack.
    let mut plan = Plan::new();
    plan_suite(&mut plan, &rc);
    Engine::new(RunCache::new(Some(dir.clone()), true)).execute(&plan, 1);

    // One warm pass, layer by layer, as the benchmark's `sweep-warm`
    // runs it.
    let mut plan = Plan::new();
    let (plan_n, cells) = counted(|| plan_suite(&mut plan, &rc));
    let (exec_n, (executed, stats)) = counted(|| {
        let mut engine = Engine::new(RunCache::new(Some(dir.clone()), true));
        let executed = engine.execute(&plan, 1);
        (executed, *engine.stats())
    });
    let (fold_n, figs) = counted(|| fold_suite(&cells, &executed));
    let (render_n, bytes) = counted(|| {
        figs.iter()
            .map(|f| {
                let t = Table::from_figure(&f.fig);
                t.render().len() + t.to_csv().len()
            })
            .sum::<usize>()
    });
    let _ = std::fs::remove_dir_all(&dir);

    let served = stats.cache_hits;
    assert_eq!(served, plan.len() as u64, "every cell is served warm");
    assert_eq!(stats.executed, 0);
    assert!(bytes > 0);
    let total = plan_n + exec_n + fold_n + render_n;
    let per_cell = total as f64 / served as f64;
    println!(
        "{served} cells: plan {plan_n}, execute {exec_n}, fold {fold_n}, render {render_n}; \
         {total} in all, {per_cell:.2} per cell"
    );
    assert!(
        per_cell <= BUDGET_PER_CELL,
        "{per_cell:.2} allocations per served cell, budget {BUDGET_PER_CELL}"
    );
}
