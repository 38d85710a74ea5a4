//! Experiment harness: regenerates every figure of the paper.
//!
//! | id | paper artifact |
//! |----|----------------|
//! | `fig1a` | Fig. 1A — cumulative bus transaction rates, 4 configurations × 11 apps |
//! | `fig1b` | Fig. 1B — slowdowns under multiprogrammed bus pressure |
//! | `fig2a` | Fig. 2A — turnaround improvement %, set A (2×app + 4×BBMA) |
//! | `fig2b` | Fig. 2B — set B (2×app + 4×nBBMA) |
//! | `fig2c` | Fig. 2C — set C (2×app + 2×BBMA + 2×nBBMA) |
//! | `summary` | §5 — per-set max/average improvements |
//! | `ablate-window` | §4 — window-length tradeoff behind the 5-sample choice |
//! | `ablate-quantum` | §5 — quantum-length sensitivity (100 vs 200 ms and beyond) |
//! | `ablate-fitness` | design ablation — fitness vs round-robin/random/greedy gangs |
//! | `ablate-smt` | §6 future work — the same policies with Hyperthreading enabled |
//! | `ablate-stages` | pipeline ablation — estimator × selector × placer cross-product |
//! | `dynamic` | open-system extension — staggered job arrivals |
//! | `open` | open-system managerd serve — turnaround tails (p50/p99/p999), shed rate, manager overhead vs offered load |
//! | `robustness` | random job populations — win-rate of each policy over Linux |
//! | `topo` | DESIGN §16 — socket-aware placers on 1/2/4-socket shapes, per-level bus utilisation |
//! | `regret` | DESIGN §17 — presets + sampled stacks ranked by regret vs the offline-optimal oracle |
//! | `baselines` | Linux 2.4-like vs O(1)-like vs the policies vs model-driven |
//! | `validate` | the reproduction gate: every EXPERIMENTS.md claim, PASS/FAIL |
//! | `variance` | seed-sensitivity of Fig. 2B (the error bars the paper lacks) |
//!
//! Each figure is a `plan_*` function that declares its runs as cells of a
//! shared [`Plan`] and a `fold_*` function that folds the [`Executed`]
//! cells into a [`busbw_metrics::FigureSummary`]; the `experiments` binary
//! renders those as aligned text + CSV.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablate;
pub mod audit;
pub mod baselines;
pub mod cache;
pub mod dynamic;
pub mod fig1;
pub mod fig2;
pub mod jobgraph;
pub mod open;
pub mod policy;
pub mod pool;
pub mod regret;
pub mod robustness;
pub mod runner;
pub(crate) mod sibling;
pub mod suite;
pub mod topo;
pub mod validate;
pub mod variance;

pub use audit::{mix_from_names, run_audit, AuditConfig};
pub use cache::{RunCache, RunKey};
pub use fig2::Fig2Set;
pub use jobgraph::{CellStats, Engine, ExecStats, Executed, Plan, RunRequest, RunShape, Workload};
pub use open::{fold_open, open_run, parse_arrivals, parse_duration, plan_open, OpenCells};
pub use policy::{SelectorKind, StackSpec};
pub use regret::{fold_regret, oracle_outcome, plan_regret, regret_mixes, RegretCells};
pub use runner::{
    collect_metrics, effective_workers, merge_traces, parse_scale, run_spec, run_spec_profiled,
    solo_turnaround_us, PolicyKind, RunCompletion, RunResult, RunnerConfig, TraceMode,
    UnfinishedApp,
};
pub use suite::{
    fold_suite, plan_suite, suite_artifacts, summary_table, SuiteArtifact, SuiteCells, SuiteFigure,
};
pub use topo::{fold_topo, plan_topo, TopoCells, TopoShape, TOPO_SHAPES};
pub use validate::render as render_validation;
