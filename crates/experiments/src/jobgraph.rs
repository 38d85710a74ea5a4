//! The sweep-wide job graph: declare cells, execute once, fold figures.
//!
//! Every figure module declares the simulator runs it needs as
//! [`RunRequest`] *cells* on a shared [`Plan`]. Declaring is free and
//! deduplicating: two figures that need the same fully-resolved run (same
//! workload, policy, machine, seed, scale, hard cap, trace wiring) get
//! the same [`CellId`] and the run executes **once**. [`Engine::execute`]
//! then drains the deduplicated cell set through the content-addressed
//! [`RunCache`](crate::cache::RunCache) and the work-stealing pool
//! ([`crate::pool::map`]), and each figure folds its rows from the
//! [`Executed`] results by [`CellId`].
//!
//! Results are indexed, not streamed, so fold order — and therefore every
//! figure artifact — is byte-identical to the old per-figure serial
//! loops for any worker count and any cache state.
//!
//! Cache-missing closed-system cells that differ only in policy execute
//! as one sibling group on one pool task ([`crate::sibling`]): they share
//! the machine while their decisions agree, and the branches where they
//! split become stealable subtasks of that task. Open cells that differ
//! only in their estimator stack group the same way
//! ([`crate::open::open_group`]): they share one managerd serve while
//! their stacks select alike, and each class that leaves is served again
//! as a subtask. Oracle cells fan their candidate simulations out too.
//! Results are still stored per cell, so the cache, dedup and folds
//! never see the grouping.

use std::collections::HashMap;
use std::sync::Arc;

use busbw_sim::MachineConfig;
use busbw_trace::wire::{Enc, Wire};
use busbw_workloads::mix::WorkloadSpec;
use busbw_workloads::paper::PaperApp;

use crate::cache::{
    encode_machine, encode_policy, encode_trace_mode, encode_workload, key_hash, KeyHash, RunCache,
    RunKey, RUN_SCHEMA_VERSION,
};
use crate::runner::{
    run_spec, OpenStats, OracleStats, PolicyKind, RunResult, RunnerConfig, TraceMode,
};
use crate::sibling::run_group;

/// Handle to one declared cell of a [`Plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellId(usize);

/// A workload declared once: the spec plus its canonical key encoding,
/// made when a planner builds the mix. Every cell that runs the mix holds
/// the same handle (`Arc::clone`), and its key and sibling key splice the
/// cached bytes instead of encoding the spec again.
#[derive(Debug)]
pub struct Workload {
    spec: WorkloadSpec,
    encoded: Vec<u8>,
}

impl Workload {
    /// Encode `spec` once and wrap it for sharing between cells.
    pub fn new(spec: WorkloadSpec) -> Arc<Self> {
        // Room for the name and the measured list, and for each app's
        // name and fixed fields, in one allocation.
        let mut e = Enc::with_capacity(64 + 128 * spec.apps.len());
        encode_workload(&mut e, &spec);
        Arc::new(Self {
            spec,
            encoded: e.into_bytes(),
        })
    }
}

/// The shape of one simulator run.
#[derive(Debug, Clone)]
pub enum RunShape {
    /// A closed-system run: everything arrives at t = 0
    /// ([`run_spec`] semantics).
    Spec(Arc<Workload>),
    /// The open-system staggered-arrival run of the `dynamic` figure:
    /// microbenchmark background at t = 0, two instances of `app` at
    /// `stagger_us` and `2 × stagger_us`
    /// ([`crate::dynamic::staggered_run`] semantics).
    Staggered {
        /// The measured paper application.
        app: PaperApp,
        /// Arrival offset of the first instance, µs.
        stagger_us: u64,
    },
    /// A fully open managerd serve: live arrivals through the real
    /// `core::manager` stack ([`crate::open::open_run`] semantics).
    Open(crate::open::OpenSpec),
    /// An offline-optimal oracle run: branch-and-bound search for the
    /// best gang schedule of a closed workload, seeded by the preset
    /// heuristics ([`crate::regret::oracle_run`] semantics).
    Oracle(Arc<Workload>),
}

/// Bytes a key holds besides its shape payload, at most: the schema
/// word, the shape tag, the largest policy (a composed stack) and the
/// setting (machine, scale, seed, trace wiring, hard cap).
const KEY_FRAME_BYTES: usize = 256;

/// One fully-resolved run: shape + policy + every [`RunnerConfig`] field
/// that can change the numbers. `workers` is deliberately absent — it
/// only affects wall-clock time, never results.
#[derive(Debug, Clone)]
pub struct RunRequest {
    shape: RunShape,
    policy: PolicyKind,
    machine: MachineConfig,
    scale: f64,
    seed: u64,
    trace: TraceMode,
    hard_cap_factor: f64,
}

impl RunRequest {
    /// A closed-system cell: `workload` under `policy` with `rc`'s
    /// machine, scale, seed, trace wiring, and hard cap.
    pub fn spec(workload: &Arc<Workload>, policy: PolicyKind, rc: &RunnerConfig) -> Self {
        Self::with_shape(RunShape::Spec(Arc::clone(workload)), policy, rc)
    }

    /// A staggered-arrival cell (the `dynamic` figure).
    pub fn staggered(
        app: PaperApp,
        stagger_us: u64,
        policy: PolicyKind,
        rc: &RunnerConfig,
    ) -> Self {
        Self::with_shape(RunShape::Staggered { app, stagger_us }, policy, rc)
    }

    /// An open managerd-serve cell (the `open` figure). The estimator
    /// stack lives inside [`crate::open::OpenSpec`], so the simulator
    /// policy slot is pinned to the Linux baseline — it never runs and
    /// exists only to keep the request shape uniform.
    pub fn open(spec: crate::open::OpenSpec, rc: &RunnerConfig) -> Self {
        Self::with_shape(RunShape::Open(spec), PolicyKind::Linux, rc)
    }

    /// An offline-optimal oracle cell (the `regret` figure). The search
    /// owns policy selection end to end, so the policy slot is pinned to
    /// [`PolicyKind::OfflineOptimal`] — the request stays uniform and the
    /// key still separates oracle cells from every heuristic on the same
    /// workload.
    pub fn oracle(workload: &Arc<Workload>, rc: &RunnerConfig) -> Self {
        Self::with_shape(
            RunShape::Oracle(Arc::clone(workload)),
            PolicyKind::OfflineOptimal,
            rc,
        )
    }

    /// A cell of `shape` under `policy` with `rc`'s setting.
    fn with_shape(shape: RunShape, policy: PolicyKind, rc: &RunnerConfig) -> Self {
        Self {
            shape,
            policy,
            machine: rc.machine,
            scale: rc.scale,
            seed: rc.seed,
            trace: rc.trace,
            hard_cap_factor: rc.hard_cap_factor,
        }
    }

    /// The content-addressed identity of this run: the canonical encoding
    /// of every field above, salted with [`RUN_SCHEMA_VERSION`].
    pub fn key(&self) -> RunKey {
        let e = &mut self.key_buffer();
        self.encode_in(e);
        RunKey::from_bytes(e.bytes())
    }

    /// Write [`RunRequest::key`]'s bytes over the scratch buffer `e`.
    fn encode_in(&self, e: &mut Enc) {
        let policy = Some(&self.policy);
        match &self.shape {
            RunShape::Spec(w) => self.encode_key(e, 0, policy, |e| e.raw(&w.encoded)),
            RunShape::Staggered { app, stagger_us } => self.encode_key(e, 1, policy, |e| {
                e.str(app.name());
                stagger_us.put(e);
            }),
            RunShape::Open(spec) => self.encode_key(e, 2, policy, |e| spec.encode(e)),
            RunShape::Oracle(w) => self.encode_key(e, 3, policy, |e| e.raw(&w.encoded)),
        }
    }

    /// The identity this cell shares with its group partners: for a
    /// closed-system cell every field but the policy, for an open cell
    /// every field but the stack. Only untraced closed-system and open
    /// cells group; every other cell runs alone (`None`).
    fn sibling_key(&self) -> Option<RunKey> {
        if self.trace != TraceMode::Off {
            return None;
        }
        let e = &mut self.key_buffer();
        match &self.shape {
            RunShape::Spec(w) => self.encode_key(e, 0, None, |e| e.raw(&w.encoded)),
            RunShape::Open(spec) => {
                let any_stack = crate::open::OpenSpec {
                    stack: crate::open::OpenStack::ALL[0],
                    ..*spec
                };
                self.encode_key(e, 2, None, |e| any_stack.encode(e));
            }
            RunShape::Staggered { .. } | RunShape::Oracle(_) => return None,
        }
        Some(RunKey::from_bytes(e.bytes()))
    }

    /// A buffer for one of this cell's keys: its workload's bytes plus
    /// [`KEY_FRAME_BYTES`]. A plan reuses one buffer for every key instead.
    fn key_buffer(&self) -> Enc {
        let payload = match &self.shape {
            RunShape::Spec(w) | RunShape::Oracle(w) => w.encoded.len(),
            RunShape::Staggered { .. } | RunShape::Open(_) => 0,
        };
        Enc::with_capacity(payload + KEY_FRAME_BYTES)
    }

    /// The one key layout behind [`RunRequest::key`] and
    /// [`RunRequest::sibling_key`]: the schema word, the shape tag, the
    /// shape's payload (what `payload` writes), the policy (a sibling key
    /// has none), then the machine, scale, seed, trace wiring and hard
    /// cap, written over the scratch buffer `e`.
    fn encode_key(
        &self,
        e: &mut Enc,
        tag: u8,
        policy: Option<&PolicyKind>,
        payload: impl FnOnce(&mut Enc),
    ) {
        e.clear();
        RUN_SCHEMA_VERSION.put(e);
        e.u8(tag);
        payload(e);
        if let Some(p) = policy {
            encode_policy(e, p);
        }
        encode_machine(e, &self.machine);
        self.scale.put(e);
        self.seed.put(e);
        encode_trace_mode(e, self.trace);
        self.hard_cap_factor.put(e);
    }

    /// The shape of this run.
    pub fn shape(&self) -> &RunShape {
        &self.shape
    }

    /// The [`RunnerConfig`] this cell resolves to (single-run, so
    /// `workers` is irrelevant and pinned to 1).
    fn runner_config(&self) -> RunnerConfig {
        RunnerConfig {
            machine: self.machine,
            scale: self.scale,
            seed: self.seed,
            workers: 1,
            trace: self.trace,
            hard_cap_factor: self.hard_cap_factor,
        }
    }

    /// Execute the run. Deterministic: same request, bit-identical
    /// [`RunResult`].
    pub fn execute(&self) -> RunResult {
        let rc = self.runner_config();
        match &self.shape {
            RunShape::Spec(w) => run_spec(&w.spec, self.policy, &rc),
            RunShape::Staggered { app, stagger_us } => {
                crate::dynamic::staggered_run(*app, self.policy, *stagger_us, &rc)
            }
            RunShape::Open(spec) => crate::open::open_run(spec, &rc),
            RunShape::Oracle(w) => crate::regret::oracle_run(&w.spec, &rc),
        }
    }
}

/// Position marker into a [`Plan`], for per-figure declare/dedup deltas.
#[derive(Debug, Clone, Copy)]
pub struct PlanMark {
    declared: u64,
    unique: usize,
}

/// Per-figure slice of a plan's declare/dedup accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellStats {
    /// Cells the figure declared (including duplicates).
    pub declared: u64,
    /// Cells that were new to the plan.
    pub unique: u64,
}

impl CellStats {
    /// Declared cells that were already in the plan.
    pub fn deduped(&self) -> u64 {
        self.declared - self.unique
    }
}

/// An ordered, deduplicated set of run cells.
#[derive(Debug, Default)]
pub struct Plan {
    requests: Vec<RunRequest>,
    keys: Vec<RunKey>,
    /// Per key hash, the last unique cell declared with it.
    index: HashMap<u64, usize, KeyHash>,
    /// Per unique cell, the cell declared before it with the same key
    /// hash: a 64-bit collision chains, and keys compare by their bytes.
    same_hash: Vec<Option<usize>>,
    declared: u64,
    /// Where each declared cell's key is encoded before it is copied into
    /// a [`RunKey`] of its own size.
    scratch: Enc,
}

impl Plan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare one cell. If an identical cell (by [`RunRequest::key`])
    /// was already declared — by this figure or any other sharing the
    /// plan — the existing [`CellId`] is returned and nothing is added.
    pub fn cell(&mut self, req: RunRequest) -> CellId {
        self.declared += 1;
        req.encode_in(&mut self.scratch);
        let bytes = self.scratch.bytes();
        let hash = key_hash(bytes);
        let mut at = self.index.get(&hash).copied();
        while let Some(i) = at {
            if self.keys[i].encoded() == bytes {
                return CellId(i);
            }
            at = self.same_hash[i];
        }
        // Only a new cell's key is copied out of the scratch buffer.
        let i = self.requests.len();
        self.same_hash.push(self.index.insert(hash, i));
        self.keys.push(RunKey::hashed(hash, bytes));
        self.requests.push(req);
        CellId(i)
    }

    /// Number of unique cells.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True when no cell has been declared.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// The unique cells, in [`CellId`] order.
    pub fn requests(&self) -> &[RunRequest] {
        &self.requests
    }

    /// Total `cell()` calls, duplicates included.
    pub fn declared(&self) -> u64 {
        self.declared
    }

    /// Current position, for [`Plan::since`].
    pub fn checkpoint(&self) -> PlanMark {
        PlanMark {
            declared: self.declared,
            unique: self.requests.len(),
        }
    }

    /// Declare/dedup deltas since `mark` — the per-figure numbers
    /// recorded in each figure's manifest.
    pub fn since(&self, mark: PlanMark) -> CellStats {
        CellStats {
            declared: self.declared - mark.declared,
            unique: (self.requests.len() - mark.unique) as u64,
        }
    }

    /// The unique cells declared since `mark`, as a [`CellId`] index
    /// range. Cells deduped against an earlier figure are attributed to
    /// the figure that first declared them, not to this range.
    pub fn range_since(&self, mark: PlanMark) -> std::ops::Range<usize> {
        mark.unique..self.requests.len()
    }
}

/// Executed results of a plan, indexed by [`CellId`].
#[derive(Debug)]
pub struct Executed {
    results: Vec<Arc<RunResult>>,
}

impl Executed {
    /// The result of one cell.
    pub fn get(&self, id: CellId) -> &RunResult {
        &self.results[id.0]
    }

    /// Shared handle to one cell's result.
    pub fn get_arc(&self, id: CellId) -> Arc<RunResult> {
        Arc::clone(&self.results[id.0])
    }

    /// Merge the per-stage wall-time histograms of every cell in `range`
    /// (a [`Plan::range_since`] slice). Cells whose scheduler is not a
    /// policy stack contribute nothing; an all-monolith range merges to
    /// a timing set with zero calls.
    pub fn merged_stage_timings(&self, range: std::ops::Range<usize>) -> busbw_sim::StageTimings {
        let mut merged = busbw_sim::StageTimings::default();
        for r in &self.results[range] {
            if let Some(t) = &r.stage_timings {
                merged.merge(t);
            }
        }
        merged
    }

    /// Add what the cells in `range` report to `reg`: the counters
    /// `sim.ticks`, `bus.memo_hits` and `bus.memo_misses` summed over all
    /// of them, the managerd metrics of the open cells and the search
    /// metrics of the oracle cells (see [`OpenStats::record_all`] and
    /// [`OracleStats::record_all`]). `sim.ticks` counts cell ticks: a
    /// tick a sibling simulated on a member's behalf counts for both, so
    /// the ticks actually simulated are `sim.ticks` minus the engine's
    /// `sim.shared_ticks` for the same cells.
    pub fn record_cell_stats(
        &self,
        range: std::ops::Range<usize>,
        reg: &mut busbw_metrics::MetricsRegistry,
    ) {
        let cells = &self.results[range];
        for r in cells {
            reg.inc_counter("sim.ticks", r.ticks);
            reg.inc_counter("bus.memo_hits", r.memo_hits);
            reg.inc_counter("bus.memo_misses", r.memo_misses);
        }
        OpenStats::record_all(cells.iter().filter_map(|r| r.open.as_ref()), reg);
        OracleStats::record_all(cells.iter().filter_map(|r| r.oracle), reg);
    }
}

/// Cumulative accounting of everything an [`Engine`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Cells declared on executed plans, duplicates included.
    pub declared: u64,
    /// Unique cells after plan-level dedup.
    pub unique: u64,
    /// Cells served by the run cache (memory or disk tier).
    pub cache_hits: u64,
    /// Cells the cache could not serve.
    pub cache_misses: u64,
    /// Damaged disk entries rejected by the cache decoder (each one also
    /// counts as a miss).
    pub cache_corrupt: u64,
    /// Cells actually executed by the pool.
    pub executed: u64,
    /// Pool tasks the executed cells ran as: one per sibling group,
    /// singletons included.
    pub groups: u64,
    /// Machine clones made where sibling-group members split.
    pub forks: u64,
    /// Cell ticks a sibling simulated on a member's behalf (each tick a
    /// machine simulates for `k` members counts `k − 1`).
    pub shared_ticks: u64,
    /// Managerd serve loops run for open cells: one per open group, plus
    /// one per class served again (each also counts in `forks`).
    pub serves: u64,
    /// Tasks fanned out from inside a running pool task: oracle child
    /// resumes and forked sibling branches.
    pub subtasks: u64,
    /// Subtasks executed by a worker other than the one that queued them.
    pub steals: u64,
}

impl ExecStats {
    /// Declared cells eliminated by plan-level dedup.
    pub fn deduped(&self) -> u64 {
        self.declared - self.unique
    }

    /// Cache hit rate over unique cells, in `[0, 1]` (0 when nothing ran).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Record these stats into a metrics registry under the engine's
    /// counter namespace (`cells.*`, `cache.*`, `pool.*`,
    /// `sim.shared_ticks`, and `managerd.serves` once a serve has run).
    pub fn record(&self, reg: &mut busbw_metrics::MetricsRegistry) {
        reg.inc_counter("cells.declared", self.declared);
        reg.inc_counter("cells.deduped", self.deduped());
        reg.inc_counter("cache.hits", self.cache_hits);
        reg.inc_counter("cache.misses", self.cache_misses);
        reg.inc_counter("cache.corrupt", self.cache_corrupt);
        reg.inc_counter("pool.executed", self.executed);
        reg.inc_counter("pool.groups", self.groups);
        reg.inc_counter("pool.forks", self.forks);
        reg.inc_counter("pool.subtasks", self.subtasks);
        reg.inc_counter("pool.steals", self.steals);
        reg.inc_counter("sim.shared_ticks", self.shared_ticks);
        if self.serves > 0 {
            reg.inc_counter("managerd.serves", self.serves);
        }
        reg.set_gauge("cache.hit_rate", self.hit_rate());
    }
}

/// The execution engine: a [`RunCache`] plus the work-stealing pool.
///
/// One engine lives for a whole `experiments` invocation, so its
/// in-memory cache deduplicates across successive [`Engine::execute`]
/// calls too (e.g. a figure re-planned by `trace <fig>` after `all`).
#[derive(Debug)]
pub struct Engine {
    cache: RunCache,
    stats: ExecStats,
}

impl Engine {
    /// An engine over the given cache.
    pub fn new(cache: RunCache) -> Self {
        Self {
            cache,
            stats: ExecStats::default(),
        }
    }

    /// An engine with a fresh memory-only cache — what the legacy
    /// per-figure entry points use.
    pub fn ephemeral() -> Self {
        Self::new(RunCache::new(None, true))
    }

    /// Execute every cell of `plan` not already served by the cache, on
    /// up to `workers` threads with work stealing, and return the results
    /// indexed by [`CellId`].
    ///
    /// Missing cells that differ only in policy (closed-system) or stack
    /// (open) form one group and one pool task; every other cell is a
    /// group of its own and runs exactly as [`RunRequest::execute`].
    /// Groups are dispatched in the plan order of their first member;
    /// work a group fans out (forked branches, classes served again,
    /// oracle candidates) runs on the same pool. The fresh results reach
    /// the disk tier in one [`RunCache::flush`].
    pub fn execute(&mut self, plan: &Plan, workers: usize) -> Executed {
        let mut slots: Vec<Option<Arc<RunResult>>> = vec![None; plan.requests.len()];
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut group_of: HashMap<RunKey, usize, KeyHash> = HashMap::default();
        for (i, key) in plan.keys.iter().enumerate() {
            if let Some((r, _tier)) = self.cache.get(key) {
                self.stats.cache_hits += 1;
                slots[i] = Some(r);
                continue;
            }
            self.stats.cache_misses += 1;
            match plan.requests[i].sibling_key() {
                Some(k) => match group_of.get(&k) {
                    Some(&g) => groups[g].push(i),
                    None => {
                        group_of.insert(k, groups.len());
                        groups.push(vec![i]);
                    }
                },
                None => groups.push(vec![i]),
            }
        }
        let (fresh, pool) = crate::pool::map(&groups, workers, |cells| execute_group(plan, cells));
        self.stats.groups += pool.executed;
        self.stats.subtasks += pool.subtasks;
        self.stats.steals += pool.steals;
        for (cells, run) in groups.iter().zip(fresh) {
            self.stats.executed += cells.len() as u64;
            self.stats.forks += run.forks;
            self.stats.shared_ticks += run.shared_ticks;
            self.stats.serves += run.serves;
            for (&i, r) in cells.iter().zip(run.results) {
                let arc = Arc::new(r);
                self.cache.put(plan.keys[i].clone(), Arc::clone(&arc));
                slots[i] = Some(arc);
            }
        }
        self.cache.flush();
        self.stats.declared += plan.declared;
        self.stats.unique += plan.requests.len() as u64;
        self.stats.cache_corrupt = self.cache.corrupt_count();
        Executed {
            results: slots
                .into_iter()
                .map(|s| s.expect("every cell resolved"))
                .collect(),
        }
    }

    /// Everything this engine has done so far.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }
}

/// Execute one pool task: a larger closed-system group through
/// [`run_group`], any open group through [`crate::open::open_group`],
/// and every other singleton through [`RunRequest::execute`].
fn execute_group(plan: &Plan, cells: &[usize]) -> crate::sibling::GroupRun {
    let first = &plan.requests[cells[0]];
    match &first.shape {
        RunShape::Spec(w) if cells.len() > 1 => {
            let policies: Vec<PolicyKind> =
                cells.iter().map(|&i| plan.requests[i].policy).collect();
            run_group(&w.spec, &policies, &first.runner_config())
        }
        RunShape::Open(spec) => {
            let stacks: Vec<_> = cells
                .iter()
                .map(|&i| match &plan.requests[i].shape {
                    RunShape::Open(s) => s.stack,
                    _ => unreachable!("open cells group only with open cells"),
                })
                .collect();
            crate::open::open_group(spec, &stacks, &first.runner_config())
        }
        _ => crate::sibling::GroupRun {
            results: vec![first.execute()],
            forks: 0,
            shared_ticks: 0,
            serves: 0,
        },
    }
}

/// Plan, execute, and fold one figure on a throwaway engine — the shared
/// implementation of the legacy per-figure entry points.
pub fn run_figure<C, R>(
    rc: &RunnerConfig,
    declare: impl FnOnce(&mut Plan) -> C,
    fold: impl FnOnce(&C, &Executed) -> R,
) -> R {
    let mut plan = Plan::new();
    let cells = declare(&mut plan);
    let executed = Engine::ephemeral().execute(&plan, crate::runner::effective_workers(rc));
    fold(&cells, &executed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use busbw_workloads::mix::fig2_set_b;

    fn quick() -> RunnerConfig {
        RunnerConfig {
            scale: 0.05,
            ..RunnerConfig::default()
        }
    }

    #[test]
    fn identical_cells_dedup_to_one_id() {
        let rc = quick();
        let mut plan = Plan::new();
        let a = plan.cell(RunRequest::spec(
            &Workload::new(fig2_set_b(PaperApp::Cg)),
            PolicyKind::Linux,
            &rc,
        ));
        let b = plan.cell(RunRequest::spec(
            &Workload::new(fig2_set_b(PaperApp::Cg)),
            PolicyKind::Linux,
            &rc,
        ));
        let c = plan.cell(RunRequest::spec(
            &Workload::new(fig2_set_b(PaperApp::Cg)),
            PolicyKind::Window,
            &rc,
        ));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.declared(), 3);
    }

    #[test]
    fn engine_counts_hits_on_replayed_plans() {
        let rc = quick();
        let mut plan = Plan::new();
        let id = plan.cell(RunRequest::spec(
            &Workload::new(fig2_set_b(PaperApp::Volrend)),
            PolicyKind::Linux,
            &rc,
        ));
        let mut engine = Engine::ephemeral();
        let first = engine.execute(&plan, 1);
        assert_eq!(engine.stats().cache_misses, 1);
        assert_eq!(engine.stats().cache_hits, 0);
        let second = engine.execute(&plan, 1);
        assert_eq!(engine.stats().cache_hits, 1);
        assert_eq!(engine.stats().executed, 1, "second pass served from cache");
        // Cache-served result is the same allocation, hence bit-identical.
        assert!(Arc::ptr_eq(&first.get_arc(id), &second.get_arc(id)));
    }

    #[test]
    fn per_figure_marks_slice_the_accounting() {
        let rc = quick();
        let mut plan = Plan::new();
        let m0 = plan.checkpoint();
        plan.cell(RunRequest::spec(
            &Workload::new(fig2_set_b(PaperApp::Cg)),
            PolicyKind::Linux,
            &rc,
        ));
        let fig1 = plan.since(m0);
        assert_eq!(
            fig1,
            CellStats {
                declared: 1,
                unique: 1
            }
        );
        let m1 = plan.checkpoint();
        // A second "figure" re-declares the same cell plus one new one.
        plan.cell(RunRequest::spec(
            &Workload::new(fig2_set_b(PaperApp::Cg)),
            PolicyKind::Linux,
            &rc,
        ));
        plan.cell(RunRequest::spec(
            &Workload::new(fig2_set_b(PaperApp::Cg)),
            PolicyKind::Latest,
            &rc,
        ));
        let fig2 = plan.since(m1);
        assert_eq!(
            fig2,
            CellStats {
                declared: 2,
                unique: 1
            }
        );
        assert_eq!(fig2.deduped(), 1);
    }

    #[test]
    fn run_key_separates_every_tunable() {
        let rc = quick();
        let base = RunRequest::spec(
            &Workload::new(fig2_set_b(PaperApp::Cg)),
            PolicyKind::Linux,
            &rc,
        );
        let k = base.key();
        let variants = [
            RunRequest::spec(
                &Workload::new(fig2_set_b(PaperApp::Mg)),
                PolicyKind::Linux,
                &rc,
            ),
            RunRequest::spec(
                &Workload::new(fig2_set_b(PaperApp::Cg)),
                PolicyKind::Latest,
                &rc,
            ),
            RunRequest::spec(
                &Workload::new(fig2_set_b(PaperApp::Cg)),
                PolicyKind::Linux,
                &RunnerConfig { seed: 43, ..rc },
            ),
            RunRequest::spec(
                &Workload::new(fig2_set_b(PaperApp::Cg)),
                PolicyKind::Linux,
                &RunnerConfig { scale: 0.06, ..rc },
            ),
            RunRequest::spec(
                &Workload::new(fig2_set_b(PaperApp::Cg)),
                PolicyKind::Linux,
                &RunnerConfig {
                    hard_cap_factor: 50.0,
                    ..rc
                },
            ),
            RunRequest::spec(
                &Workload::new(fig2_set_b(PaperApp::Cg)),
                PolicyKind::Linux,
                &RunnerConfig {
                    trace: TraceMode::Collect,
                    ..rc
                },
            ),
            RunRequest::spec(
                &Workload::new(fig2_set_b(PaperApp::Cg)),
                PolicyKind::Linux,
                &RunnerConfig {
                    machine: busbw_sim::MachineConfig {
                        topology: busbw_sim::TopologyConfig::multi(2),
                        ..rc.machine
                    },
                    ..rc
                },
            ),
            RunRequest::staggered(PaperApp::Cg, 100_000, PolicyKind::Linux, &rc),
            RunRequest::oracle(&Workload::new(fig2_set_b(PaperApp::Cg)), &rc),
            RunRequest::open(
                crate::open::OpenSpec {
                    arrivals: busbw_managerd::ArrivalProcess::Poisson { rate_per_s: 30.0 },
                    duration_us: 10_000_000,
                    stack: crate::open::OpenStack::Latest,
                    queue_capacity: 8,
                },
                &rc,
            ),
        ];
        for v in &variants {
            assert_ne!(v.key(), k, "{v:?} must not collide with the base key");
        }
        // But workers never enters the key: same request, same key.
        assert_eq!(base.key(), k);
    }

    /// [`KEY_FRAME_BYTES`] covers everything a key holds besides its
    /// shape payload, so each key is built in one allocation.
    #[test]
    fn key_frame_bytes_bound_each_key_beyond_its_workload() {
        let mut plan = Plan::new();
        crate::plan_suite(&mut plan, &quick());
        crate::plan_regret(&mut plan, &quick());
        let frame = plan
            .requests()
            .iter()
            .filter_map(|req| match req.shape() {
                RunShape::Spec(w) | RunShape::Oracle(w) => {
                    Some(req.key().encoded().len() - w.encoded.len())
                }
                _ => None,
            })
            .max();
        assert!(frame.is_some_and(|f| f <= KEY_FRAME_BYTES), "{frame:?}");
    }

    /// The run keys of the shapes the benchmark ledger declares, pinned:
    /// per shape, the declared and unique cell counts and an FNV-1a digest
    /// over every unique cell's key and sibling key in plan order. Packs
    /// on disk are indexed by these bytes, so a change here must come
    /// with a [`RUN_SCHEMA_VERSION`] bump and a re-pin from the table the
    /// failure prints.
    #[test]
    fn ledger_shapes_declare_pinned_run_keys() {
        let rc = |scale| RunnerConfig {
            scale,
            ..RunnerConfig::default()
        };
        let mut shapes: Vec<(&str, Plan)> = Vec::new();
        let mut plan = Plan::new();
        crate::plan_suite(&mut plan, &rc(0.1));
        shapes.push(("suite", plan));
        let mut plan = Plan::new();
        crate::plan_open(
            &mut plan,
            &rc(0.4),
            crate::parse_arrivals("poisson:20").expect("a poisson rate parses"),
            12_000_000_000,
            crate::open::DEFAULT_QUEUE_CAPACITY,
        );
        shapes.push(("open", plan));
        let mut plan = Plan::new();
        crate::plan_regret(&mut plan, &rc(0.07));
        shapes.push(("regret", plan));
        let mut plan = Plan::new();
        for shape in crate::TOPO_SHAPES {
            crate::plan_topo(&mut plan, shape, &rc(1.5));
        }
        shapes.push(("topo", plan));

        let got: Vec<(&str, u64, usize, u64)> = shapes
            .iter()
            .map(|(name, plan)| {
                let mut bytes = Vec::new();
                for (req, key) in plan.requests().iter().zip(&plan.keys) {
                    assert_eq!(&req.key(), key, "a request's key is stable");
                    // A cell that groups with none writes an empty sibling key.
                    let sibling = req.sibling_key();
                    for k in [key.encoded(), sibling.as_ref().map_or(&[], RunKey::encoded)] {
                        bytes.extend((k.len() as u64).to_le_bytes());
                        bytes.extend_from_slice(k);
                    }
                }
                (
                    *name,
                    plan.declared(),
                    plan.len(),
                    busbw_trace::fnv1a64(&bytes),
                )
            })
            .collect();
        const PINNED: &[(&str, u64, usize, u64)] = &[
            ("suite", 339, 279, 0xe2e92b2dfe251dba),
            ("open", 12, 12, 0x6b84686313dc4bbd),
            ("regret", 56, 56, 0x41d0537fcab8f80a),
            ("topo", 48, 48, 0x5ac10f2bc00ab8d5),
        ];
        assert!(
            got == PINNED,
            "run keys moved; new table:\n{}",
            got.iter()
                .map(|(n, d, u, h)| format!("    (\"{n}\", {d}, {u}, {h:#018x}),\n"))
                .collect::<String>()
        );
    }

    mod props {
        use super::*;
        use crate::policy::{AdmissionKind, EstimatorKind, PlacerKind, SelectorKind, StackSpec};
        use proptest::prelude::*;

        fn arb_stack() -> impl Strategy<Value = StackSpec> {
            (
                (0usize..5, 1usize..16),
                0usize..5,
                (0usize..5, 0u64..(1 << 48)),
                0usize..6,
                1u64..1_000_000,
            )
                .prop_map(|((e, n), a, (s, seed), p, quantum_us)| StackSpec {
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
                    quantum_us,
                })
        }

        proptest! {
            /// Substituting any stage (or the quantum) of a composed
            /// stack changes the run key; identical stacks collide.
            #[test]
            fn stage_substitution_changes_the_run_key(a in arb_stack(), b in arb_stack()) {
                let rc = quick();
                let key = |s: StackSpec| {
                    RunRequest::spec(&Workload::new(fig2_set_b(PaperApp::Cg)), PolicyKind::Stack(s), &rc).key()
                };
                if a == b {
                    prop_assert_eq!(key(a), key(b));
                } else {
                    prop_assert_ne!(key(a), key(b));
                }
            }
        }
    }
}
