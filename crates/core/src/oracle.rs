//! Ablation comparators and the offline-optimal oracle.
//!
//! The first half of this module holds gang schedulers with the same
//! admission machinery as the paper policies but *different selection
//! rules*. They isolate how much of the paper's win comes from the
//! fitness heuristic itself versus from gang scheduling or mere
//! rotation. Each is a [`PolicyStack`] preset over the
//! [`crate::pipeline`] stages, sharing the [`RawRateEstimator`]
//! measurement path the monolithic comparators used to carry inline.
//!
//! * [`round_robin_gang`] — gang scheduling + rotation only: admit jobs in
//!   list order while they fit. (What you get if you delete Equation (1).)
//! * [`random_gang`] — gang scheduling with uniformly random fill after
//!   the head job (seeded, deterministic).
//! * [`greedy_pack`] — admits the *highest-bandwidth* fitting job first: a
//!   plausible-but-wrong heuristic that maximizes measured bus utilization
//!   and therefore saturates; shows why "fill the bus" must mean
//!   "approach, don't exceed".
//!
//! The second half is [`offline_optimal`]: a branch-and-bound search over
//! gang *sequences* that treats the simulator itself — the bus at any
//! socket count, cache warmth, SMT, everything — as the exact cost
//! evaluator. It answers the question the heuristics cannot: what is the
//! best turnaround any clairvoyant schedule could have achieved on this
//! instance? Every preset stack can then be scored by *regret* against
//! that ceiling (see `experiments regret`). Every interior node of the
//! search tree keeps its run paused at the scheduling point it has not
//! answered yet; a child clones that machine, applies one decision and
//! runs to the next scheduling point, so each node costs one quantum of
//! simulation rather than a replay of its whole prefix. Every candidate
//! simulation is a pure function of its own machine, so the search hands
//! them to a [`FanOut`] as tasks — the experiments' work-stealing pool,
//! or the calling thread in the unit tests — and applies its bookkeeping
//! to the outcomes in the serial order, which keeps the [`OracleReport`]
//! independent of where the simulations ran. The search
//! prunes with an admissible no-contention lower bound — before
//! simulating a child, where its parent's state already proves the
//! child's bound meets the incumbent — and skips permutations of
//! caller-declared symmetric gangs. Heuristic schedulers seed the
//! incumbent, each run once on a clone of the instance with its
//! decisions recorded ([`record_run`]), which makes the reported optimum
//! structurally ≤ every seeded heuristic; [`FixedPlanScheduler`] replays
//! such logs, and the winning plan, as ordinary runs.

use std::collections::HashMap;
use std::sync::{mpsc, Arc};

use busbw_sim::{
    AppId, Assignment, CpuId, Decision, Machine, MachineView, ProgressCeiling, RunCursor,
    Scheduler, SimTime, StepEvent, StopCondition, ThreadId,
};

use crate::pipeline::{
    Fcfs, GreedySelector, NullSelector, PackedPlacer, PolicyStack, RandomSelector,
    RawRateEstimator, StrictHead, PAPER_QUANTUM_US,
};

/// Gang scheduling + rotation, first-fit in list order, with the paper's
/// 200 ms quantum.
pub fn round_robin_gang() -> PolicyStack {
    round_robin_gang_with_quantum(PAPER_QUANTUM_US)
}

/// [`round_robin_gang`] with a custom quantum.
pub(crate) fn round_robin_gang_with_quantum(quantum_us: u64) -> PolicyStack {
    PolicyStack::new(
        "RoundRobinGang",
        quantum_us,
        Box::new(RawRateEstimator::new()),
        Box::new(Fcfs),
        Box::new(NullSelector),
        Box::new(PackedPlacer),
    )
}

/// Gang scheduling with seeded random fill after the guaranteed head job,
/// with the paper's 200 ms quantum.
pub fn random_gang(seed: u64) -> PolicyStack {
    PolicyStack::new(
        "RandomGang",
        PAPER_QUANTUM_US,
        Box::new(RawRateEstimator::new()),
        Box::new(StrictHead),
        Box::new(RandomSelector::new(seed)),
        Box::new(PackedPlacer),
    )
}

/// Gang scheduling that greedily admits the highest-bandwidth fitting job
/// — the "maximize utilization" strawman — with the paper's 200 ms
/// quantum.
pub fn greedy_pack() -> PolicyStack {
    PolicyStack::new(
        "GreedyPack",
        PAPER_QUANTUM_US,
        Box::new(RawRateEstimator::new()),
        Box::new(StrictHead),
        Box::new(GreedySelector),
        Box::new(PackedPlacer),
    )
}

// ---------------------------------------------------------------------------
// Offline-optimal search
// ---------------------------------------------------------------------------

/// Idle quantum [`FixedPlanScheduler`] returns once its plan is used
/// up: far beyond any search horizon, so the machine's idle fast
/// path mega-ticks straight to the hard cap without overflow.
pub(crate) const ORACLE_IDLE_SENTINEL_US: u64 = 1 << 40;

/// Tuning knobs for [`offline_optimal`] and its exhaustive cross-check.
#[derive(Debug, Clone, Copy)]
pub struct OracleSearchConfig {
    /// Reschedule interval each appended decision runs for, µs. The
    /// machine also reschedules on gang completion, so one decision may
    /// end early — the search therefore considers completion-time
    /// boundaries for free.
    pub quantum_us: u64,
    /// Hard cap on simulated time per candidate schedule, µs. Costs are
    /// censored at the horizon exactly like the experiment harness
    /// censors heuristic runs at the cap, so oracle and heuristic costs
    /// share one objective.
    pub horizon_us: u64,
    /// Maximum number of candidate simulations before the search gives
    /// up and reports `complete = false` with the best incumbent so far.
    pub node_budget: u64,
    /// Slack subtracted from the no-contention lower bound, µs, to keep
    /// it admissible against float rounding in progress accounting.
    pub lb_slack_us: f64,
}

impl OracleSearchConfig {
    /// A config with the given quantum and horizon, a 2000-node budget,
    /// and 1 µs of lower-bound slack.
    #[cfg(test)]
    pub(crate) fn new(quantum_us: u64, horizon_us: u64) -> Self {
        Self {
            quantum_us,
            horizon_us,
            node_budget: 2000,
            lb_slack_us: 1.0,
        }
    }
}

/// Frozen per-thread state at a branch point of the search tree.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadSlot {
    /// The thread.
    pub(crate) id: ThreadId,
    /// Whether it still wants cpu time.
    pub(crate) runnable: bool,
    /// Affinity hint from the prefix schedule.
    pub(crate) last_cpu: Option<CpuId>,
    /// Virtual µs of work left (`INFINITY` for run-forever threads).
    pub(crate) remaining_us: f64,
    /// Whether the thread has ever run under the prefix schedule.
    pub(crate) started: bool,
}

/// Frozen per-gang state at a branch point of the search tree.
#[derive(Debug, Clone, PartialEq)]
pub struct GangState {
    /// The application.
    pub(crate) app: AppId,
    /// Arrival time, µs.
    pub(crate) arrived_at: SimTime,
    /// Completion time under the prefix schedule, if finished.
    pub(crate) finished_at: Option<SimTime>,
    /// The gang's threads.
    pub(crate) threads: Vec<ThreadSlot>,
}

impl GangState {
    /// Number of threads that still want cpu time.
    pub(crate) fn runnable_width(&self) -> usize {
        self.threads.iter().filter(|t| t.runnable).count()
    }

    /// Whether no thread of the gang has ever run — the window in which
    /// bit-identical gangs are interchangeable (symmetry pruning).
    pub(crate) fn is_unstarted(&self) -> bool {
        self.threads.iter().all(|t| !t.started)
    }

    /// Wall time needed to finish the slowest thread at the best possible
    /// progress rate (1 virtual µs per wall µs).
    pub(crate) fn max_remaining_us(&self) -> f64 {
        self.threads
            .iter()
            .map(|t| t.remaining_us)
            .fold(0.0, f64::max)
    }
}

/// Machine state at a scheduling point the plan does not answer — the
/// branch point from which the search extends the schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchState {
    /// Simulated time of the scheduling point, µs.
    pub(crate) now: SimTime,
    /// Number of processors.
    pub(crate) num_cpus: usize,
    /// Every application's frozen state, in id order.
    pub(crate) gangs: Vec<GangState>,
}

impl BranchState {
    /// Capture the branch state from a scheduler's view.
    pub(crate) fn capture(view: &MachineView<'_>) -> Self {
        let gangs = view
            .apps()
            .map(|app| {
                let threads = app
                    .threads
                    .iter()
                    .map(|&tid| {
                        let t = view.thread(tid).expect("gang thread exists");
                        ThreadSlot {
                            id: tid,
                            runnable: t.is_runnable(),
                            last_cpu: t.last_cpu,
                            remaining_us: (t.work_us - t.progress_us).max(0.0),
                            started: t.progress_us > 0.0 || t.last_cpu.is_some(),
                        }
                    })
                    .collect();
                GangState {
                    app: app.id,
                    arrived_at: app.arrived_at,
                    finished_at: app.finished_at,
                    threads,
                }
            })
            .collect();
        Self {
            now: view.now,
            num_cpus: view.num_cpus,
            gangs,
        }
    }
}

/// Replays a fixed list of [`Decision`]s verbatim, then idles.
///
/// The machine is deterministic, so replaying a recorded decision log
/// from t = 0 reproduces the exact trajectory it was recorded on. This
/// is how the search's winning plan becomes an ordinary run
/// (`PolicyKind::OfflineOptimal` in the experiments crate). Once the
/// plan is used up it returns an idle decision of
/// `ORACLE_IDLE_SENTINEL_US`, letting the machine fast-forward to its
/// hard cap.
pub struct FixedPlanScheduler {
    plan: Vec<Decision>,
    next: usize,
}

impl FixedPlanScheduler {
    /// A scheduler that will replay `plan` in order.
    pub fn new(plan: Vec<Decision>) -> Self {
        Self { plan, next: 0 }
    }
}

impl Scheduler for FixedPlanScheduler {
    fn schedule(&mut self, _view: &MachineView<'_>) -> Decision {
        if let Some(d) = self.plan.get(self.next) {
            self.next += 1;
            d.clone()
        } else {
            Decision::idle(ORACLE_IDLE_SENTINEL_US)
        }
    }

    fn name(&self) -> &str {
        "Oracle"
    }
}

/// Wraps any scheduler and records every decision it makes, so a
/// heuristic's full run can later be replayed bit-identically through
/// [`FixedPlanScheduler`] — the mechanism behind seeding the oracle's
/// incumbent with the preset stacks.
pub(crate) struct RecordingScheduler<'a> {
    inner: &'a mut dyn Scheduler,
    log: Vec<Decision>,
}

impl<'a> RecordingScheduler<'a> {
    /// Record `inner`'s decisions.
    pub(crate) fn new(inner: &'a mut dyn Scheduler) -> Self {
        Self {
            inner,
            log: Vec::new(),
        }
    }

    /// The recorded decision log, in schedule order.
    pub(crate) fn into_log(self) -> Vec<Decision> {
        self.log
    }
}

impl Scheduler for RecordingScheduler<'_> {
    fn schedule(&mut self, view: &MachineView<'_>) -> Decision {
        let d = self.inner.schedule(view);
        self.log.push(d.clone());
        d
    }

    fn on_sample(&mut self, view: &MachineView<'_>) {
        self.inner.on_sample(view);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Outcome of simulating one candidate plan.
#[derive(Debug, Clone, PartialEq)]
pub enum SimNode {
    /// Every measured app finished: exact total turnaround, µs.
    Leaf {
        /// Σ turnaround over the measured apps, µs.
        cost_us: u64,
    },
    /// The horizon fired while the plan still covered the timeline; the
    /// schedule cannot be extended, and the cost is censored at the
    /// horizon exactly as the harness censors heuristics at the cap.
    Censored {
        /// Σ censored turnaround over the measured apps, µs.
        cost_us: u64,
    },
    /// The plan ran out before the horizon: an interior search node.
    Branch {
        /// Machine state at the unanswered scheduling point, for
        /// generating child decisions.
        state: BranchState,
        /// Admissible lower bound on any completion of this prefix, µs.
        lower_bound_us: u64,
    },
}

/// Total (possibly censored) turnaround over `measured`, µs, saturating.
fn censored_cost_us(machine: &Machine, measured: &[AppId], stopped_at: SimTime) -> u64 {
    let view = machine.view();
    measured
        .iter()
        .map(|&id| {
            let a = view.app(id).expect("measured app exists");
            match a.finished_at {
                Some(f) => f.saturating_sub(a.arrived_at),
                None => stopped_at.saturating_sub(a.arrived_at),
            }
        })
        .fold(0u64, u64::saturating_add)
}

/// One measured gang's term of the lower bound when its remaining work
/// can start no sooner than `from`: its turnaround if it has finished;
/// else, since progress accrues at most 1 virtual µs per wall µs per
/// thread, it cannot finish before `from + max-thread-remaining`, less
/// `slack_us` — clamped to the horizon because costs are censored there.
fn gang_bound_us(g: &GangState, from: SimTime, slack_us: f64, horizon_us: u64) -> u64 {
    match g.finished_at {
        Some(f) => f.saturating_sub(g.arrived_at),
        None => {
            let rem = (g.max_remaining_us() - slack_us).max(0.0);
            let est = if rem.is_finite() {
                from.saturating_add(rem as u64)
            } else {
                u64::MAX
            };
            est.min(horizon_us).saturating_sub(g.arrived_at)
        }
    }
}

/// Admissible lower bound on the censored total turnaround of any
/// schedule extending this branch: the sum of every measured gang's
/// [`gang_bound_us`] from `now`. `lb_slack_us` absorbs float rounding in
/// the progress accounting.
fn lower_bound_us(state: &BranchState, measured: &[AppId], cfg: &OracleSearchConfig) -> u64 {
    measured
        .iter()
        .filter_map(|&id| state.gangs.iter().find(|g| g.app == id))
        .map(|g| gang_bound_us(g, state.now, cfg.lb_slack_us, cfg.horizon_us))
        .fold(0, u64::saturating_add)
}

/// Rounding margin of [`presim_bound_us`], µs, on top of `lb_slack_us`:
/// it covers float error in the progress a quantum's ticks add up.
const ROUNDING_MARGIN_US: f64 = 1.0;

/// An admissible lower bound on the `lower_bound_us` of the child that
/// answers `state` with `d`, known without simulating it; `ceiling` bounds
/// the progress of `d`'s threads (`Machine::progress_ceiling` of the
/// parent's paused run). `None` unless the child provably stops at its
/// next scheduling point as a `Branch`: some measured gang is unfinished
/// there, because it has no thread in `d` or cannot finish within the
/// quantum at its ceiling, so the child is no `Leaf`; and its quantum
/// ends before the horizon, so it is not `Censored`.
///
/// That scheduling point comes Δ or more after `now`: at the quantum's
/// end, or sooner only when a placed gang finishes, which its slowest
/// thread cannot do before its ceiling covers its remaining work. A gang
/// left out of `d` keeps its remaining work, so its term starts Δ later
/// than at the parent; a placed gang's term rises by Δ less its slowest
/// thread's ceiling over Δ, less the rounding margin; a finished gang's
/// term is fixed.
fn presim_bound_us(
    state: &BranchState,
    d: &Decision,
    ceiling: &ProgressCeiling,
    measured: &[AppId],
    cfg: &OracleSearchConfig,
) -> Option<u64> {
    let quantum = d.next_resched_in_us;
    if state.now.saturating_add(quantum) >= cfg.horizon_us {
        return None;
    }
    let placed = |g: &GangState| {
        g.threads
            .iter()
            .any(|t| d.assignments.iter().any(|a| a.thread == t.id))
    };
    // The earliest a placed gang can finish, or INFINITY past the
    // quantum; the margin covers float error in the progress it adds up.
    let earliest_finish_us = |g: &GangState| {
        g.threads
            .iter()
            .map(|t| {
                let work = t.remaining_us - ROUNDING_MARGIN_US;
                ceiling.time_to_us(t.id, work, quantum as f64)
            })
            .fold(0.0, f64::max)
    };
    let gangs = || {
        measured
            .iter()
            .filter_map(|&id| state.gangs.iter().find(|g| g.app == id))
    };
    if !gangs()
        .any(|g| g.finished_at.is_none() && (!placed(g) || earliest_finish_us(g) > quantum as f64))
    {
        return None;
    }
    let soonest_finish = state
        .gangs
        .iter()
        .filter(|g| placed(g))
        .map(earliest_finish_us)
        .fold(f64::INFINITY, f64::min);
    let delta = soonest_finish
        .min(quantum as f64 - ROUNDING_MARGIN_US)
        .max(0.0);
    let bound = gangs()
        .map(|g| {
            if placed(g) {
                let slowest = g
                    .threads
                    .iter()
                    .max_by(|a, b| a.remaining_us.total_cmp(&b.remaining_us))
                    .expect("a placed gang has threads");
                let rise = delta - ceiling.progress_us(slowest.id, delta);
                let from = state.now.saturating_add(rise as u64);
                let slack = cfg.lb_slack_us + ROUNDING_MARGIN_US;
                gang_bound_us(g, from, slack, cfg.horizon_us)
            } else {
                let from = state.now.saturating_add(delta as u64);
                gang_bound_us(g, from, cfg.lb_slack_us, cfg.horizon_us)
            }
        })
        .fold(0, u64::saturating_add);
    Some(bound)
}

/// A candidate run paused at a scheduling point it has not answered: an
/// interior node of the search tree. A clone is a deep copy that
/// continues bit-identically to the original under equal decisions, so
/// cloning forks the run.
#[derive(Clone)]
struct PausedRun {
    machine: Machine,
    cur: RunCursor,
}

/// Step a run, answering its scheduling points with `plan` in order,
/// until it ends or reaches a scheduling point the plan does not cover,
/// and classify where it stopped. A `Branch` comes with its paused run.
fn advance(
    mut machine: Machine,
    mut cur: RunCursor,
    plan: &[Decision],
    measured: &[AppId],
    cfg: &OracleSearchConfig,
) -> (SimNode, Option<PausedRun>) {
    let mut plan = plan.iter();
    loop {
        match machine.run_step(&mut cur, None) {
            StepEvent::Sample => {}
            StepEvent::Schedule => match plan.next() {
                Some(d) => machine.run_decide(&mut cur, d),
                None => {
                    let state = BranchState::capture(&machine.view());
                    let lower_bound_us = lower_bound_us(&state, measured, cfg);
                    let node = SimNode::Branch {
                        state,
                        lower_bound_us,
                    };
                    return (node, Some(PausedRun { machine, cur }));
                }
            },
            StepEvent::Done(out) => {
                let cost_us = censored_cost_us(&machine, measured, out.stopped_at);
                let node = if out.condition_met {
                    SimNode::Leaf { cost_us }
                } else {
                    SimNode::Censored { cost_us }
                };
                return (node, None);
            }
        }
    }
}

/// Begin a candidate run on `machine` — hard cap at the horizon, stopping
/// once every measured app has finished — and advance it through `plan`.
fn start(
    mut machine: Machine,
    measured: &[AppId],
    plan: &[Decision],
    cfg: &OracleSearchConfig,
) -> (SimNode, Option<PausedRun>) {
    machine.set_hard_cap_us(cfg.horizon_us);
    let cur = machine.run_begin(StopCondition::AppsFinished(measured.to_vec()));
    advance(machine, cur, plan, measured, cfg)
}

/// Extend a paused run by one decision: answer a fork's pending
/// scheduling point with `d` and advance to the next one (or the end).
/// This simulates one quantum; replaying the prefix from t = 0 would
/// reach the same state, because the fork has seen the same
/// `run_decide` sequence on a deep copy of the same machine.
fn resume(
    fork: PausedRun,
    d: &Decision,
    measured: &[AppId],
    cfg: &OracleSearchConfig,
) -> (SimNode, Option<PausedRun>) {
    let PausedRun {
        mut machine,
        mut cur,
    } = fork;
    machine.run_decide(&mut cur, d);
    advance(machine, cur, &[], measured, cfg)
}

/// One candidate simulation the search hands to a [`FanOut`].
pub type Task = Box<dyn FnOnce() + Send>;

/// Where the search runs its candidate simulations. Each one is a pure
/// function of its own machine (a clone of the template or a fork of a
/// paused run) and its decisions, so an implementation may run the tasks
/// on other threads and in any order; the search applies its bookkeeping
/// to the outcomes in its own fixed order.
pub trait FanOut {
    /// Call `body` with a handle for queuing tasks and waiting on them,
    /// and return once `body` has returned and every queued task has
    /// finished.
    fn scope(&self, body: &mut dyn FnMut(&mut dyn Tasks));
}

/// The handle a [`FanOut`] scope lends its body.
pub trait Tasks {
    /// Queue `task`; it runs before the scope ends, on any thread.
    fn spawn(&mut self, task: Task);
    /// Make progress: run one queued task of this scope on the calling
    /// thread, or wait until one running elsewhere finishes. Returns
    /// `false`, at once, when none is queued or running.
    fn help(&mut self) -> bool;
}

/// Where a candidate simulation stopped, with its paused run at a branch,
/// and a seed's recorded decisions (empty for every other run).
type Outcome = (SimNode, Option<PausedRun>, Vec<Decision>);

/// Candidate simulations queued on a [`Tasks`] scope, collected by
/// ticket in whatever order the search needs them.
struct InFlight<'t> {
    tasks: &'t mut dyn Tasks,
    tx: mpsc::Sender<(u64, Outcome)>,
    rx: mpsc::Receiver<(u64, Outcome)>,
    arrived: HashMap<u64, Outcome>,
    next_ticket: u64,
}

impl<'t> InFlight<'t> {
    fn new(tasks: &'t mut dyn Tasks) -> Self {
        let (tx, rx) = mpsc::channel();
        Self {
            tasks,
            tx,
            rx,
            arrived: HashMap::new(),
            next_ticket: 0,
        }
    }

    /// Queue `job`; [`InFlight::take`] collects its outcome under the
    /// returned ticket.
    fn spawn(&mut self, job: impl FnOnce() -> Outcome + Send + 'static) -> u64 {
        let (ticket, tx) = (self.next_ticket, self.tx.clone());
        self.next_ticket += 1;
        self.tasks.spawn(Box::new(move || {
            let _ = tx.send((ticket, job()));
        }));
        ticket
    }

    /// The outcome under `ticket`, helping with queued work until it
    /// arrives. A branch outcome arriving meanwhile whose lower bound is
    /// at least `prune_at` loses its paused run, which keeps early
    /// expansions small: the incumbent only falls, so that child is
    /// bound-pruned when its turn comes.
    fn take(&mut self, ticket: u64, prune_at: u64) -> Outcome {
        loop {
            if let Some(outcome) = self.arrived.remove(&ticket) {
                return outcome;
            }
            let (t, mut outcome) = match self.rx.try_recv() {
                Ok(sent) => sent,
                Err(_) if self.tasks.help() => continue,
                // Nothing is queued or running, so every outcome has been
                // sent.
                Err(_) => self.rx.try_recv().expect("a queued task sent its outcome"),
            };
            if let (SimNode::Branch { lower_bound_us, .. }, run, _) = &mut outcome {
                if *lower_bound_us >= prune_at {
                    *run = None;
                }
            }
            self.arrived.insert(t, outcome);
        }
    }
}

/// Run `sched` on `machine` from t = 0 as a seed — hard cap at the
/// horizon, stopping once every measured app has finished — recording
/// every decision it makes. Returns where the run ended, a `Leaf` or
/// `Censored`, and the decision log: `simulate` of that log on an equal
/// machine ends the same way, since the machine is deterministic.
pub fn record_run(
    mut machine: Machine,
    measured: &[AppId],
    sched: &mut dyn Scheduler,
    cfg: &OracleSearchConfig,
) -> (SimNode, Vec<Decision>) {
    machine.set_hard_cap_us(cfg.horizon_us);
    let mut rec = RecordingScheduler::new(sched);
    let out = machine.run(&mut rec, StopCondition::AppsFinished(measured.to_vec()));
    let cost_us = censored_cost_us(&machine, measured, out.stopped_at);
    let node = if out.condition_met {
        SimNode::Leaf { cost_us }
    } else {
        SimNode::Censored { cost_us }
    };
    (node, rec.into_log())
}

/// Evaluate one candidate plan on a fresh machine: run it from t = 0,
/// answering scheduling points with `plan`, and classify the outcome —
/// a `Branch` at the first scheduling point the plan does not answer.
/// Sets the machine's hard cap to the horizon.
pub fn simulate(
    machine: Machine,
    measured: &[AppId],
    plan: &[Decision],
    cfg: &OracleSearchConfig,
) -> SimNode {
    start(machine, measured, plan, cfg).0
}

/// Whether a chosen gang subset respects the declared symmetry classes:
/// within each class, the *unstarted* members chosen must form a prefix
/// of the class order. Bit-identical gangs are interchangeable until one
/// of them runs (after which cache warmth and progress differentiate
/// them), so exploring only the prefix-ordered subsets visits one
/// representative per permutation class without losing any distinct
/// schedule.
fn sym_ok(chosen: &[&GangState], live: &[&GangState], classes: &[Vec<AppId>]) -> bool {
    for class in classes {
        let mut seen_gap = false;
        for &id in class {
            let Some(g) = live.iter().find(|g| g.app == id) else {
                continue;
            };
            if !g.is_unstarted() {
                continue;
            }
            let in_chosen = chosen.iter().any(|c| c.app == id);
            if in_chosen && seen_gap {
                return false;
            }
            if !in_chosen {
                seen_gap = true;
            }
        }
    }
    true
}

/// Canonical placement for a chosen gang subset: gangs in app-id order,
/// runnable threads only, each thread on its `last_cpu` when free, else
/// the lowest free cpu.
fn place(chosen: &[&GangState], num_cpus: usize, quantum_us: u64) -> Decision {
    let mut free = vec![true; num_cpus];
    let mut assignments = Vec::new();
    for g in chosen {
        for t in &g.threads {
            if !t.runnable {
                continue;
            }
            let cpu = match t.last_cpu {
                Some(c) if c.0 < num_cpus && free[c.0] => c,
                _ => CpuId(free.iter().position(|&f| f).expect("width was checked")),
            };
            free[cpu.0] = false;
            assignments.push(Assignment { thread: t.id, cpu });
        }
    }
    Decision {
        assignments,
        next_resched_in_us: quantum_us,
        sample_period_us: None,
    }
}

/// All child decisions from a branch state: every non-empty subset of
/// live gangs whose runnable width fits the machine, in ascending-bitmask
/// order (deterministic), minus subsets eliminated by symmetry. Idling is
/// never generated — nothing in the model rewards an empty quantum.
fn branch_decisions(
    state: &BranchState,
    cfg: &OracleSearchConfig,
    sym_classes: &[Vec<AppId>],
    sym_prunes: &mut u64,
) -> Vec<Decision> {
    let live: Vec<&GangState> = state
        .gangs
        .iter()
        .filter(|g| g.finished_at.is_none() && g.runnable_width() > 0)
        .collect();
    let n = live.len();
    assert!(
        n <= 16,
        "oracle branching supports at most 16 live gangs, got {n}"
    );
    let mut out = Vec::new();
    for mask in 1u32..(1u32 << n) {
        let chosen: Vec<&GangState> = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| live[i])
            .collect();
        let width: usize = chosen.iter().map(|g| g.runnable_width()).sum();
        if width > state.num_cpus {
            continue;
        }
        if !sym_ok(&chosen, &live, sym_classes) {
            *sym_prunes += 1;
            continue;
        }
        out.push(place(&chosen, state.num_cpus, cfg.quantum_us));
    }
    out
}

/// What an offline-optimal search found.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleReport {
    /// Best (censored) total turnaround found, µs. `u64::MAX` only if the
    /// search saw no leaf at all (node budget of 0).
    pub best_cost_us: u64,
    /// The decision sequence achieving `best_cost_us`.
    pub best_plan: Vec<Decision>,
    /// Search nodes counted against the budget: seeds and tree nodes,
    /// children pruned before they were simulated included.
    pub nodes: u64,
    /// Simulations that terminated (leaf or censored).
    pub leaves: u64,
    /// Interior nodes discarded because their lower bound met the
    /// incumbent.
    pub bound_prunes: u64,
    /// Of `bound_prunes`, the children whose pre-simulation bound already
    /// met the incumbent when their parent was expanded, so they were
    /// never simulated.
    pub presim_prunes: u64,
    /// Subsets skipped by symmetry-class prefix filtering.
    pub(crate) sym_prunes: u64,
    /// Admissible lower bound at the root (≤ `best_cost_us` always).
    pub root_lower_bound_us: u64,
    /// Whether the tree was exhausted (false = node budget hit; the
    /// incumbent is then an upper bound on the optimum, not the optimum).
    pub complete: bool,
    /// Index of the seed plan that holds the incumbent, if no searched
    /// schedule beat every seed.
    pub(crate) best_from_seed: Option<usize>,
}

/// An interior node waiting on the DFS stack: its decision prefix, the
/// branch state its children are generated from, and its paused run.
struct Interior {
    plan: Vec<Decision>,
    state: BranchState,
    run: PausedRun,
}

/// An expanded node: its children, and the tickets of those the budget
/// admitted, a prefix of `kids`. A child whose pre-simulation bound met
/// the incumbent has no ticket: it was never queued.
struct Expansion {
    plan: Vec<Decision>,
    kids: Vec<Decision>,
    tickets: Vec<Option<u64>>,
}

/// A node on the DFS stack: waiting for its pop, or already expanded.
enum Stacked {
    Waiting(Box<Interior>),
    /// Expanded while on top of the stack, with the symmetry prunes its
    /// child generation counted; the report takes them on at the pop.
    Early {
        exp: Expansion,
        sym_prunes: u64,
    },
}

/// What the search shares across its steps.
struct Search<'a> {
    template: &'a Machine,
    measured: Arc<[AppId]>,
    cfg: OracleSearchConfig,
    sym_classes: &'a [Vec<AppId>],
    prune: bool,
}

impl Search<'_> {
    /// Queue the root: a run on a clone of the template to its first
    /// scheduling point.
    fn queue_root(&self, runs: &mut InFlight<'_>) -> u64 {
        let (machine, measured, cfg) =
            (self.template.clone(), Arc::clone(&self.measured), self.cfg);
        runs.spawn(move || {
            let (node, run) = start(machine, &measured, &[], &cfg);
            (node, run, Vec::new())
        })
    }

    /// Queue a recorded run of `seed` on a clone of the template.
    fn queue_seed(&self, runs: &mut InFlight<'_>, mut seed: Box<dyn Scheduler>) -> u64 {
        let (machine, measured, cfg) =
            (self.template.clone(), Arc::clone(&self.measured), self.cfg);
        runs.spawn(move || {
            let (node, log) = record_run(machine, &measured, &mut *seed, &cfg);
            (node, None, log)
        })
    }

    /// Expand `node` as popped when `nodes` candidates have been counted:
    /// generate its children and queue a resume of each one the budget
    /// admits, on its own fork of the node's run — unless its
    /// pre-simulation bound already meets `incumbent`. The incumbent only
    /// falls, and that bound is at most the child's own, so such a child
    /// would be bound-pruned at its turn.
    fn expand(
        &self,
        runs: &mut InFlight<'_>,
        node: Interior,
        nodes: u64,
        incumbent: u64,
        sym_prunes: &mut u64,
    ) -> Expansion {
        let kids = branch_decisions(&node.state, &self.cfg, self.sym_classes, sym_prunes);
        let room = self.cfg.node_budget.saturating_sub(nodes);
        let tickets = kids
            .iter()
            .take(usize::try_from(room).unwrap_or(usize::MAX))
            .map(|d| {
                let pruned = self.prune && {
                    let ceiling = node.run.machine.progress_ceiling(d);
                    presim_bound_us(&node.state, d, &ceiling, &self.measured, &self.cfg)
                        .is_some_and(|lb| lb >= incumbent)
                };
                if pruned {
                    return None;
                }
                let (fork, d) = (node.run.clone(), d.clone());
                let (measured, cfg) = (Arc::clone(&self.measured), self.cfg);
                Some(runs.spawn(move || {
                    let (node, run) = resume(fork, &d, &measured, &cfg);
                    (node, run, Vec::new())
                }))
            })
            .collect();
        Expansion {
            plan: node.plan,
            kids,
            tickets,
        }
    }

    /// The search proper, with every candidate simulation queued on
    /// `runs`. Outcomes are consumed in the order a serial search would
    /// produce them, so the report does not depend on where or when the
    /// simulations ran.
    fn run(
        &self,
        runs: &mut InFlight<'_>,
        seeds: Vec<Box<dyn Scheduler>>,
        report: &mut OracleReport,
    ) {
        let budget = self.cfg.node_budget;

        // Seed the incumbent with whole runs of the heuristic schedulers,
        // each recorded and scored in one run on the same kind of machine
        // as every candidate, which makes "oracle ≤ every seeded
        // heuristic" structural rather than numerical. Every seed the
        // budget admits, and the root after them, is queued at once.
        let n_seeds = seeds.len();
        let admitted = n_seeds.min(usize::try_from(budget).unwrap_or(usize::MAX));
        let seed_tickets: Vec<u64> = seeds
            .into_iter()
            .take(admitted)
            .map(|seed| self.queue_seed(runs, seed))
            .collect();
        let root_ticket =
            (admitted == n_seeds && (n_seeds as u64) < budget).then(|| self.queue_root(runs));
        for (i, &ticket) in seed_tickets.iter().enumerate() {
            report.nodes += 1;
            report.leaves += 1;
            match runs.take(ticket, u64::MAX) {
                (SimNode::Leaf { cost_us } | SimNode::Censored { cost_us }, _, log) => {
                    if cost_us < report.best_cost_us {
                        report.best_cost_us = cost_us;
                        report.best_plan = log;
                        report.best_from_seed = Some(i);
                    }
                }
                (SimNode::Branch { .. }, ..) => unreachable!("a recorded run ends"),
            }
        }

        let mut stack: Vec<Stacked> = Vec::new();
        let Some(root_ticket) = root_ticket else {
            report.complete = false;
            return;
        };
        report.nodes += 1;
        match runs.take(root_ticket, u64::MAX) {
            (SimNode::Leaf { cost_us } | SimNode::Censored { cost_us }, ..) => {
                report.leaves += 1;
                report.root_lower_bound_us = cost_us;
                if cost_us < report.best_cost_us {
                    report.best_cost_us = cost_us;
                    report.best_plan = Vec::new();
                    report.best_from_seed = None;
                }
            }
            (
                SimNode::Branch {
                    state,
                    lower_bound_us,
                },
                run,
                _,
            ) => {
                report.root_lower_bound_us = lower_bound_us;
                stack.push(Stacked::Waiting(Box::new(Interior {
                    plan: Vec::new(),
                    state,
                    run: run.expect("a branch is paused"),
                })));
            }
        }

        let mut next: Option<Expansion> = None;
        'dfs: loop {
            let exp = match next.take() {
                Some(exp) => exp,
                None => match stack.pop() {
                    Some(Stacked::Waiting(node)) => self.expand(
                        runs,
                        *node,
                        report.nodes,
                        report.best_cost_us,
                        &mut report.sym_prunes,
                    ),
                    Some(Stacked::Early {
                        mut exp,
                        sym_prunes,
                    }) => {
                        report.sym_prunes += sym_prunes;
                        let room = budget.saturating_sub(report.nodes);
                        exp.tickets
                            .truncate(usize::try_from(room).unwrap_or(usize::MAX));
                        exp
                    }
                    None => break,
                },
            };
            // The node on top of the stack is popped once this node's
            // subtree is done — right after this node when no child
            // survives the bound. Expand it now, so its children run
            // alongside. The budget left at its pop can only be smaller,
            // so the pop keeps the tickets it still admits; the outcomes
            // of the others are never taken.
            match stack.pop() {
                Some(Stacked::Waiting(node)) => {
                    let mut sym_prunes = 0;
                    let exp = self.expand(
                        runs,
                        *node,
                        report.nodes,
                        report.best_cost_us,
                        &mut sym_prunes,
                    );
                    stack.push(Stacked::Early { exp, sym_prunes });
                }
                Some(early) => stack.push(early),
                None => {}
            }
            // When the budget admits every child, the first one pushed
            // below is the next node popped, at `nodes_after`: expand it
            // as soon as it is known, so its children run alongside this
            // node's remaining ones.
            let whole = exp.tickets.len() == exp.kids.len();
            let nodes_after = report.nodes + exp.kids.len() as u64;
            let mut pending = Vec::new();
            for (j, d) in exp.kids.into_iter().enumerate() {
                if report.nodes >= budget {
                    report.complete = false;
                    break 'dfs;
                }
                report.nodes += 1;
                let prune_at = if self.prune {
                    report.best_cost_us
                } else {
                    u64::MAX
                };
                let Some(ticket) = exp.tickets[j] else {
                    report.bound_prunes += 1;
                    report.presim_prunes += 1;
                    continue;
                };
                let (sim, run, _) = runs.take(ticket, prune_at);
                let mut child_plan = exp.plan.clone();
                child_plan.push(d);
                match sim {
                    SimNode::Leaf { cost_us } | SimNode::Censored { cost_us } => {
                        report.leaves += 1;
                        if cost_us < report.best_cost_us {
                            report.best_cost_us = cost_us;
                            report.best_plan = child_plan;
                            report.best_from_seed = None;
                        }
                    }
                    SimNode::Branch {
                        state,
                        lower_bound_us,
                    } => {
                        if self.prune && lower_bound_us >= report.best_cost_us {
                            report.bound_prunes += 1;
                            continue;
                        }
                        let child = Interior {
                            plan: child_plan,
                            state,
                            run: run.expect("a branch is paused"),
                        };
                        if whole && next.is_none() {
                            next = Some(self.expand(
                                runs,
                                child,
                                nodes_after,
                                report.best_cost_us,
                                &mut report.sym_prunes,
                            ));
                        } else {
                            pending.push(child);
                        }
                    }
                }
            }
            // Reverse so the lowest-bitmask child is explored first — the
            // same DFS order as brute force, which keeps tie-breaking (and
            // hence the reported plan) identical between the two searches.
            for node in pending.into_iter().rev() {
                stack.push(Stacked::Waiting(Box::new(node)));
            }
        }
    }
}

fn search(
    template: &Machine,
    measured: &[AppId],
    cfg: &OracleSearchConfig,
    seeds: Vec<Box<dyn Scheduler>>,
    sym_classes: &[Vec<AppId>],
    prune: bool,
    fan: &dyn FanOut,
) -> OracleReport {
    let mut report = OracleReport {
        best_cost_us: u64::MAX,
        best_plan: Vec::new(),
        nodes: 0,
        leaves: 0,
        bound_prunes: 0,
        presim_prunes: 0,
        sym_prunes: 0,
        root_lower_bound_us: 0,
        complete: true,
        best_from_seed: None,
    };
    let search = Search {
        template,
        measured: measured.into(),
        cfg: *cfg,
        sym_classes,
        prune,
    };
    let mut seeds = Some(seeds);
    fan.scope(&mut |tasks| {
        let seeds = seeds.take().expect("a scope runs its body once");
        search.run(&mut InFlight::new(tasks), seeds, &mut report);
    });
    report
}

/// Branch-and-bound search for the offline-optimal gang schedule.
///
/// `template` is the instance at t = 0, never driven itself: every
/// candidate runs on a clone of it; `measured` lists the apps whose total
/// turnaround is the objective; `seeds` are heuristic schedulers, each
/// run once on a clone of the template and its recorded decision log
/// (see [`record_run`]) taken as an incumbent before the search starts;
/// `sym_classes` lists groups of gangs the caller asserts are
/// bit-identical at t = 0 — the search then explores only one
/// representative of each permutation while the gangs are unstarted.
///
/// `fan` resumes the children of each expanded node; the report is
/// identical for every [`FanOut`].
///
/// With infinite-work *measured* gangs every path is censored at the
/// horizon and the tree is deep; provide seeds so bound pruning can bite,
/// or rely on `node_budget` as the backstop.
pub fn offline_optimal(
    template: &Machine,
    measured: &[AppId],
    cfg: &OracleSearchConfig,
    seeds: Vec<Box<dyn Scheduler>>,
    sym_classes: &[Vec<AppId>],
    fan: &dyn FanOut,
) -> OracleReport {
    search(template, measured, cfg, seeds, sym_classes, true, fan)
}

/// Exhaustive enumeration over the same tree as [`offline_optimal`] with
/// no seeds, no symmetry filtering, and no bound pruning — the ground
/// truth the branch-and-bound search is cross-checked against. Respects
/// `node_budget` purely as a runaway backstop.
#[cfg(test)]
pub(crate) fn brute_force_optimal(
    template: &Machine,
    measured: &[AppId],
    cfg: &OracleSearchConfig,
    fan: &dyn FanOut,
) -> OracleReport {
    search(template, measured, cfg, Vec::new(), &[], false, fan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use busbw_sim::{
        AppDescriptor, AppId, CacheConfig, ConstantDemand, Decision, Machine, MachineConfig,
        Scheduler, StopCondition, ThreadSpec, TopologyConfig, XEON_4WAY, XEON_4WAY_HT,
    };
    use std::collections::VecDeque;

    /// Runs every task on the calling thread, in queue order.
    #[derive(Debug, Clone, Copy, Default)]
    struct Serial;

    impl FanOut for Serial {
        fn scope(&self, body: &mut dyn FnMut(&mut dyn Tasks)) {
            let mut queue = SerialTasks::default();
            body(&mut queue);
            while queue.help() {}
        }
    }

    #[derive(Default)]
    struct SerialTasks(VecDeque<Task>);

    impl Tasks for SerialTasks {
        fn spawn(&mut self, task: Task) {
            self.0.push_back(task);
        }

        fn help(&mut self) -> bool {
            self.0.pop_front().map(|task| task()).is_some()
        }
    }

    fn add(m: &mut Machine, name: &str, n: usize, rate: f64) -> AppId {
        let threads = (0..n)
            .map(|_| ThreadSpec::new(f64::INFINITY, Box::new(ConstantDemand::new(rate, 0.8))))
            .collect();
        m.add_app(AppDescriptor::new(name, threads))
    }

    fn apps_of(m: &Machine, d: &Decision) -> Vec<AppId> {
        let mut v: Vec<AppId> = d
            .assignments
            .iter()
            .map(|a| m.view().thread(a.thread).unwrap().app)
            .collect();
        v.sort();
        v.dedup();
        v
    }

    #[test]
    fn round_robin_rotates_through_all_jobs() {
        let mut m = Machine::new(XEON_4WAY);
        let ids: Vec<AppId> = (0..3)
            .map(|i| add(&mut m, &format!("a{i}"), 2, 1.0))
            .collect();
        let mut s = round_robin_gang();
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..3 {
            let d = s.schedule(&m.view());
            seen.extend(apps_of(&m, &d));
            let _ = m.run(
                &mut busbw_sim::testkit::Replay::new(d),
                StopCondition::At(m.now() + 200_000),
            );
        }
        assert_eq!(seen.len(), ids.len(), "not all jobs ran: {seen:?}");
    }

    #[test]
    fn random_gang_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut m = Machine::new(XEON_4WAY);
            for i in 0..4 {
                add(&mut m, &format!("a{i}"), 2, 1.0);
            }
            let mut s = random_gang(seed);
            let mut picks = Vec::new();
            for _ in 0..6 {
                let d = s.schedule(&m.view());
                picks.push(apps_of(&m, &d));
                let _ = m.run(
                    &mut busbw_sim::testkit::Replay::new(d),
                    StopCondition::At(m.now() + 200_000),
                );
            }
            picks
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn greedy_pack_prefers_heavy_jobs() {
        let mut m = Machine::new(XEON_4WAY);
        let heavy = add(&mut m, "heavy", 2, 12.0);
        let _light = add(&mut m, "light", 2, 0.1);
        let heavy2 = add(&mut m, "heavy2", 2, 12.0);
        let mut s = greedy_pack();
        // Let it measure everyone once via rotation.
        for _ in 0..4 {
            let d = s.schedule(&m.view());
            let _ = m.run(
                &mut busbw_sim::testkit::Replay::new(d),
                StopCondition::At(m.now() + 200_000),
            );
        }
        // Force a state where head is heavy; greedy should co-schedule the
        // other heavy job despite saturation.
        let mut saw_heavy_pair = false;
        for _ in 0..6 {
            let d = s.schedule(&m.view());
            let apps = apps_of(&m, &d);
            if apps.contains(&heavy) && apps.contains(&heavy2) {
                saw_heavy_pair = true;
            }
            let _ = m.run(
                &mut busbw_sim::testkit::Replay::new(d),
                StopCondition::At(m.now() + 200_000),
            );
        }
        assert!(saw_heavy_pair, "greedy never packed the two heavy jobs");
    }

    #[test]
    fn comparator_presets_report_names_and_stages() {
        assert_eq!(round_robin_gang().name(), "RoundRobinGang");
        assert_eq!(
            round_robin_gang().stage_labels(),
            ["RawRate", "fcfs", "none", "packed"]
        );
        assert_eq!(random_gang(1).name(), "RandomGang");
        assert_eq!(
            random_gang(1).stage_labels(),
            ["RawRate", "strict-head", "random", "packed"]
        );
        assert_eq!(greedy_pack().name(), "GreedyPack");
        assert_eq!(
            greedy_pack().stage_labels(),
            ["RawRate", "strict-head", "greedy", "packed"]
        );
    }

    // -- offline-optimal search ------------------------------------------

    fn add_finite(m: &mut Machine, name: &str, n: usize, rate: f64, work_us: f64) -> AppId {
        let threads = (0..n)
            .map(|_| ThreadSpec::new(work_us, Box::new(ConstantDemand::new(rate, 0.8))))
            .collect();
        m.add_app(AppDescriptor::new(name, threads))
    }

    /// Three finite 2-thread gangs on the 4-way machine: small enough to
    /// enumerate exhaustively, big enough that schedules differ.
    fn small_instance() -> (Machine, Vec<AppId>) {
        small_instance_on(XEON_4WAY)
    }

    /// The 4-way machine split into two sockets: a bus with per-socket
    /// levels and an interconnect.
    const TWO_SOCKETS: MachineConfig = MachineConfig {
        topology: TopologyConfig::multi(2),
        ..XEON_4WAY
    };

    fn small_instance_on(mc: MachineConfig) -> (Machine, Vec<AppId>) {
        let mut m = Machine::new(mc);
        let a = add_finite(&mut m, "a", 2, 6.0, 120_000.0);
        let b = add_finite(&mut m, "b", 2, 6.0, 120_000.0);
        let c = add_finite(&mut m, "c", 2, 1.0, 120_000.0);
        (m, vec![a, b, c])
    }

    fn small_cfg() -> OracleSearchConfig {
        let mut cfg = OracleSearchConfig::new(100_000, 2_000_000);
        cfg.node_budget = 50_000;
        cfg
    }

    #[test]
    fn oracle_matches_brute_force_on_small_instances() {
        let cfg = small_cfg();
        let (m, measured) = small_instance();
        let bf = brute_force_optimal(&m, &measured, &cfg, &Serial);
        let bb = offline_optimal(&m, &measured, &cfg, Vec::new(), &[], &Serial);
        assert!(bf.complete && bb.complete);
        assert_eq!(bb.best_cost_us, bf.best_cost_us);
        // Same DFS order + strict incumbent updates ⇒ same winning plan.
        assert_eq!(bb.best_plan.len(), bf.best_plan.len());
        for (x, y) in bb.best_plan.iter().zip(&bf.best_plan) {
            let xa: Vec<_> = x.assignments.iter().map(|a| (a.thread, a.cpu)).collect();
            let ya: Vec<_> = y.assignments.iter().map(|a| (a.thread, a.cpu)).collect();
            assert_eq!(xa, ya);
        }
        assert!(bb.nodes <= bf.nodes, "pruning should not add work");
    }

    #[test]
    fn root_lower_bound_is_admissible() {
        let cfg = small_cfg();
        let (m, measured) = small_instance();
        let r = offline_optimal(&m, &measured, &cfg, Vec::new(), &[], &Serial);
        assert!(r.complete);
        assert!(
            r.root_lower_bound_us <= r.best_cost_us,
            "root LB {} exceeds achieved optimum {}",
            r.root_lower_bound_us,
            r.best_cost_us
        );
        // Three gangs of 120 ms work each can't beat 3 × 120 ms total.
        assert!(r.best_cost_us >= 360_000);
    }

    #[test]
    fn symmetry_pruning_preserves_the_optimum() {
        // Two literally identical gangs (same width, rate, work) plus one
        // distinct gang: permuting the twins yields the same cost.
        let build = || {
            let mut m = Machine::new(XEON_4WAY);
            let a = add_finite(&mut m, "twin0", 2, 6.0, 120_000.0);
            let b = add_finite(&mut m, "twin1", 2, 6.0, 120_000.0);
            let c = add_finite(&mut m, "other", 2, 1.0, 150_000.0);
            (m, vec![a, b, c])
        };
        let cfg = small_cfg();
        let (m, measured) = build();
        let bf = brute_force_optimal(&m, &measured, &cfg, &Serial);
        let sym = vec![vec![measured[0], measured[1]]];
        let bb = offline_optimal(&m, &measured, &cfg, Vec::new(), &sym, &Serial);
        assert!(bf.complete && bb.complete);
        assert_eq!(bb.best_cost_us, bf.best_cost_us);
        assert!(bb.sym_prunes > 0, "twins never triggered symmetry pruning");
        assert!(bb.nodes < bf.nodes);
    }

    #[test]
    fn heuristic_seed_bounds_the_incumbent() {
        let cfg = small_cfg();
        let (mut m, measured) = small_instance();
        m.set_hard_cap_us(cfg.horizon_us);
        let mut heuristic = round_robin_gang_with_quantum(cfg.quantum_us);
        let mut rec = RecordingScheduler::new(&mut heuristic);
        let out = m.run(&mut rec, StopCondition::AppsFinished(measured.clone()));
        assert!(out.condition_met);
        let seed = rec.into_log();
        let view = m.view();
        let seed_cost: u64 = measured
            .iter()
            .map(|&a| {
                let app = view.app(a).unwrap();
                app.finished_at.unwrap() - app.arrived_at
            })
            .sum();

        let seeds: Vec<Box<dyn Scheduler>> =
            vec![Box::new(round_robin_gang_with_quantum(cfg.quantum_us))];
        let r = offline_optimal(&small_instance().0, &measured, &cfg, seeds, &[], &Serial);
        if r.best_from_seed.is_some() {
            assert_eq!(r.best_plan, seed, "the seed's plan is its recorded log");
        }
        assert!(
            r.best_cost_us <= seed_cost,
            "oracle {} worse than its own seed {}",
            r.best_cost_us,
            seed_cost
        );
    }

    #[test]
    fn replayed_plan_reproduces_the_recorded_cost() {
        let cfg = small_cfg();
        let (mut m, measured) = small_instance();
        m.set_hard_cap_us(cfg.horizon_us);
        let mut heuristic = round_robin_gang_with_quantum(cfg.quantum_us);
        let mut rec = RecordingScheduler::new(&mut heuristic);
        let live = m.run(&mut rec, StopCondition::AppsFinished(measured.clone()));
        assert!(live.condition_met);
        let plan = rec.into_log();

        match simulate(small_instance().0, &measured, &plan, &cfg) {
            SimNode::Leaf { cost_us } => {
                let view = m.view();
                let live_cost: u64 = measured
                    .iter()
                    .map(|&a| {
                        let app = view.app(a).unwrap();
                        app.finished_at.unwrap() - app.arrived_at
                    })
                    .sum();
                assert_eq!(cost_us, live_cost, "replay diverged from live run");
            }
            other => panic!("replay of a completed run must be a Leaf, got {other:?}"),
        }
    }

    #[test]
    fn infinite_background_gang_does_not_hang_the_search() {
        // A run-forever gang shares the machine; only the finite gang is
        // measured, so leaves still exist and the search terminates.
        let build = || {
            let mut m = Machine::new(XEON_4WAY);
            let fg = add_finite(&mut m, "fg", 2, 1.0, 120_000.0);
            let _bg = add(&mut m, "bg", 2, 6.0);
            (m, vec![fg])
        };
        let mut cfg = OracleSearchConfig::new(100_000, 1_000_000);
        cfg.node_budget = 3_000;
        let (m, measured) = build();
        let r = offline_optimal(&m, &measured, &cfg, Vec::new(), &[], &Serial);
        assert!(r.leaves > 0);
        assert!(r.best_cost_us >= 120_000 && r.best_cost_us < u64::MAX);
        assert!(r.root_lower_bound_us <= r.best_cost_us);
    }

    #[test]
    fn node_budget_reports_incomplete() {
        let cfg = OracleSearchConfig {
            node_budget: 5,
            ..small_cfg()
        };
        let (m, measured) = small_instance();
        let r = offline_optimal(&m, &measured, &cfg, Vec::new(), &[], &Serial);
        assert!(!r.complete);
        assert!(r.nodes <= 5);
    }

    /// Walk one root-to-leaf path of the search tree through the resume
    /// path, choosing each decision with `pick(depth, children)`. At every
    /// node on the way, each child resumed from the one paused run must
    /// equal `simulate` of its whole prefix on a fresh machine: same cost,
    /// same bound, same branch state field for field. Returns the path
    /// length.
    fn assert_resume_matches_replay(
        template: &Machine,
        measured: &[AppId],
        cfg: &OracleSearchConfig,
        mut pick: impl FnMut(usize, Vec<Decision>) -> Decision,
    ) -> usize {
        let (mut node, mut run) = start(template.clone(), measured, &[], cfg);
        let mut plan = Vec::new();
        assert_eq!(node, simulate(template.clone(), measured, &plan, cfg));
        while let SimNode::Branch { state, .. } = &node {
            let paused = run.expect("a branch is paused");
            let kids = branch_decisions(state, cfg, &[], &mut 0);
            for d in &kids {
                let prefix: Vec<Decision> = plan.iter().chain([d]).cloned().collect();
                assert_eq!(
                    resume(paused.clone(), d, measured, cfg).0,
                    simulate(template.clone(), measured, &prefix, cfg),
                    "resume diverged from replay after {} decisions",
                    prefix.len()
                );
            }
            let d = pick(plan.len(), kids);
            (node, run) = resume(paused, &d, measured, cfg);
            plan.push(d);
        }
        assert!(run.is_none(), "a finished run is not paused");
        plan.len()
    }

    #[test]
    fn resume_matches_replay_along_the_best_plan() {
        let cfg = small_cfg();
        for mc in [XEON_4WAY, TWO_SOCKETS] {
            let (m, measured) = small_instance_on(mc);
            let best = offline_optimal(&m, &measured, &cfg, Vec::new(), &[], &Serial);
            assert!(best.complete);
            let len =
                assert_resume_matches_replay(&m, &measured, &cfg, |i, _| best.best_plan[i].clone());
            assert_eq!(len, best.best_plan.len());
        }
    }

    /// Walk the search tree depth first, lowest-bitmask child first, and
    /// simulate every child with `resume`, pruning nothing, until `limit`
    /// children have run. Wherever the pre-simulation bound applies, the
    /// child must be a `Branch` whose own lower bound is at least that
    /// bound. Returns how many children the bound applied to.
    fn assert_presim_bound_is_admissible(
        template: &Machine,
        measured: &[AppId],
        cfg: &OracleSearchConfig,
        limit: usize,
    ) -> usize {
        walk_presim_bound(template, measured, cfg, limit, |_| {})
    }

    /// [`assert_presim_bound_is_admissible`] with every child's progress
    /// ceiling passed through `tweak` before the bound reads it.
    fn walk_presim_bound(
        template: &Machine,
        measured: &[AppId],
        cfg: &OracleSearchConfig,
        limit: usize,
        tweak: impl Fn(&mut ProgressCeiling),
    ) -> usize {
        let mut stack = Vec::new();
        if let (SimNode::Branch { state, .. }, run) = start(template.clone(), measured, &[], cfg) {
            stack.push((state, run.expect("a branch is paused")));
        }
        let (mut simulated, mut applied) = (0, 0);
        while let Some((state, paused)) = stack.pop() {
            let mut branches = Vec::new();
            for d in branch_decisions(&state, cfg, &[], &mut 0) {
                if simulated == limit {
                    return applied;
                }
                simulated += 1;
                let mut ceiling = paused.machine.progress_ceiling(&d);
                tweak(&mut ceiling);
                let (child, run) = resume(paused.clone(), &d, measured, cfg);
                if let Some(bound) = presim_bound_us(&state, &d, &ceiling, measured, cfg) {
                    applied += 1;
                    match &child {
                        SimNode::Branch { lower_bound_us, .. } => assert!(
                            bound <= *lower_bound_us,
                            "pre-simulation bound {bound} above the child's {lower_bound_us} \
                             at t = {}",
                            state.now
                        ),
                        other => {
                            panic!("the bound applied to a child that is no branch: {other:?}")
                        }
                    }
                }
                if let SimNode::Branch { state, .. } = child {
                    branches.push((state, run.expect("a branch is paused")));
                }
            }
            stack.extend(branches.into_iter().rev());
        }
        applied
    }

    #[test]
    fn presim_bound_is_admissible_on_small_instances() {
        // The second horizon cuts the schedules short, so quanta that
        // would cross it are in the tree. On the SMT machine all three
        // gangs fit at once, so children that place every gang are
        // branches only when some gang cannot finish within the quantum.
        for horizon_us in [2_000_000, 250_000] {
            let cfg = OracleSearchConfig {
                horizon_us,
                ..small_cfg()
            };
            for mc in [XEON_4WAY, TWO_SOCKETS, XEON_4WAY_HT] {
                let (m, measured) = small_instance_on(mc);
                let applied = assert_presim_bound_is_admissible(&m, &measured, &cfg, 5_000);
                assert!(applied > 0, "the bound never applied");
            }
        }
    }

    /// A gang with one thread per `(rate, µ, work)`.
    fn add_mixed(
        m: &mut Machine,
        name: &str,
        threads: &[(f64, f64, f64)],
        barrier_us: Option<f64>,
    ) -> AppId {
        let threads = threads
            .iter()
            .map(|&(rate, mu, work)| ThreadSpec::new(work, Box::new(ConstantDemand::new(rate, mu))))
            .collect();
        let desc = AppDescriptor::new(name, threads);
        m.add_app(match barrier_us {
            Some(b) => desc.with_barrier_interval(b),
            None => desc,
        })
    }

    /// Two saturating gangs run while a third waits. In `a`, one thread
    /// finishes 20 ms in; the other threads then have the bus nearly to
    /// themselves.
    fn early_finisher() -> (Machine, Vec<AppId>) {
        let mut m = Machine::new(XEON_4WAY);
        let a = add_mixed(
            &mut m,
            "a",
            &[(14.0, 0.9, 20_000.0), (14.0, 0.9, 400_000.0)],
            None,
        );
        let b = add_mixed(&mut m, "b", &[(14.0, 0.9, 400_000.0); 2], None);
        let c = add_finite(&mut m, "c", 2, 1.0, 400_000.0);
        (m, vec![a, b, c])
    }

    /// Two gangs saturate the bus while a third waits. Gang `a`'s
    /// bus-insensitive thread, with most of the traffic, has run alone
    /// up to the 5 ms barrier it shares with a memory-bound sibling: it
    /// spins, issuing nothing, for the first tick of any quantum that
    /// places its gang. Cold caches add no traffic here, so the bus floor
    /// is tight from the first tick.
    fn early_spinner() -> (Machine, Vec<AppId>) {
        let mut m = Machine::new(MachineConfig {
            cache: CacheConfig {
                cold_demand_boost: 0.0,
                ..XEON_4WAY.cache
            },
            ..XEON_4WAY
        });
        let spin = [(25.0, 0.0, 400_000.0), (1.0, 1.0, 400_000.0)];
        let a = add_mixed(&mut m, "a", &spin, Some(5_000.0));
        let b = add_mixed(&mut m, "b", &[(2.0, 1.0, 400_000.0); 2], None);
        let c = add_finite(&mut m, "c", 2, 1.0, 400_000.0);
        let alone = Decision {
            assignments: vec![Assignment {
                thread: ThreadId(0),
                cpu: CpuId(0),
            }],
            next_resched_in_us: 10_000,
            sample_period_us: None,
        };
        m.run(
            &mut busbw_sim::testkit::Replay::new(alone),
            StopCondition::At(10_000),
        );
        (m, vec![a, b, c])
    }

    #[test]
    fn presim_bound_is_admissible_when_threads_finish_or_spin_early() {
        for (m, measured) in [early_finisher(), early_spinner()] {
            let applied = assert_presim_bound_is_admissible(&m, &measured, &small_cfg(), 200);
            assert!(applied > 0, "the bound never applied");
        }
    }

    #[test]
    #[should_panic(expected = "pre-simulation bound")]
    fn a_ceiling_without_its_finish_guard_trips_the_walker() {
        let (m, measured) = early_finisher();
        walk_presim_bound(&m, &measured, &small_cfg(), 200, |c| {
            c.finish_us = f64::INFINITY;
        });
    }

    #[test]
    #[should_panic(expected = "pre-simulation bound")]
    fn a_ceiling_without_its_spin_guard_trips_the_walker() {
        let (m, measured) = early_spinner();
        walk_presim_bound(&m, &measured, &small_cfg(), 200, |c| {
            c.spin_us = f64::INFINITY;
        });
    }

    /// The regret figure's mixes as the experiments harness builds them at
    /// `scale`: paper apps, all measured, seed 42, horizon at the hard cap.
    fn regret_instance(names: &[&str], scale: f64) -> (Machine, Vec<AppId>, OracleSearchConfig) {
        use busbw_workloads::{build_machine, paper_app, PaperApp, WorkloadSpec};
        let spec = WorkloadSpec {
            name: names.join("+"),
            apps: names
                .iter()
                .map(|n| paper_app(PaperApp::from_name(n).expect("a paper app")))
                .collect(),
            measured: (0..names.len()).collect(),
        }
        .scaled(scale);
        let built = build_machine(&spec, XEON_4WAY, 42);
        let horizon_us = (busbw_workloads::DEFAULT_SOLO_WORK_US * scale * 100.0) as u64;
        let cfg = OracleSearchConfig::new(crate::pipeline::PAPER_QUANTUM_US, horizon_us);
        (built.machine, built.measured_ids, cfg)
    }

    #[test]
    fn presim_bound_is_admissible_on_the_regret_instances() {
        // LU CB's demand oscillates over virtual time and Raytrace's
        // bursts over wall time, so their windows end at demand changes.
        for (names, scale) in [
            (&["CG", "SP", "MG"][..], 0.03),
            (&["CG", "LU CB", "Volrend"][..], 0.03),
            (&["CG", "SP", "MG"][..], 0.07),
            (&["Raytrace", "LU CB", "SP"][..], 0.05),
        ] {
            let (m, measured, cfg) = regret_instance(names, scale);
            let applied = assert_presim_bound_is_admissible(&m, &measured, &cfg, 300);
            assert!(applied > 0, "the bound never applied on {names:?}");
        }
    }

    mod presim_props {
        use super::*;
        use busbw_workloads::phases::CyclicPhases;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(3))]

            /// Random mixes of 2–3 finite gangs, demand-free ones (which
            /// run at full speed) included, on one socket, two, or with
            /// SMT, under horizons that may cut the schedules short. A
            /// gang may couple its threads with a
            /// barrier, give its second thread another µ, and oscillate
            /// its demand over virtual time.
            #[test]
            fn presim_bound_is_admissible_on_random_mixes(
                gangs in proptest::collection::vec(
                    (
                        (1usize..=2, any::<bool>(), 0.0f64..12.0, 30_000.0f64..300_000.0),
                        (0u64..3, 5_000.0f64..150_000.0, 0.05f64..1.0, 20_000.0f64..300_000.0),
                    ),
                    2..=3,
                ),
                horizon_us in 150_000u64..1_500_000,
                machine in 0usize..3,
            ) {
                let mut m = Machine::new([XEON_4WAY, TWO_SOCKETS, XEON_4WAY_HT][machine]);
                let measured: Vec<AppId> = gangs
                    .iter()
                    .enumerate()
                    .map(|(i, &((n, free, rate, work), (shape, barrier, mu, period)))| {
                        let rate = if free { 0.0 } else { rate };
                        let threads = (0..n)
                            .map(|k| {
                                let mu = if k == 1 && shape == 1 { mu } else { 0.8 };
                                let model: Box<dyn busbw_sim::DemandModel> = if shape == 2 {
                                    Box::new(CyclicPhases::oscillating(rate, mu, 0.5, period))
                                } else {
                                    Box::new(ConstantDemand::new(rate, mu))
                                };
                                ThreadSpec::new(work, model).with_cache_sensitivity(0.3)
                            })
                            .collect();
                        let desc = AppDescriptor::new(format!("g{i}"), threads);
                        m.add_app(if shape > 0 { desc.with_barrier_interval(barrier) } else { desc })
                    })
                    .collect();
                let cfg = OracleSearchConfig { horizon_us, ..small_cfg() };
                assert_presim_bound_is_admissible(&m, &measured, &cfg, 2_000);
            }
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(6))]

            /// Random subset prefixes: at each branch point the next
            /// decision is a child chosen by the drawn index.
            #[test]
            fn resume_matches_replay_on_random_prefixes(
                picks in proptest::collection::vec(any::<u32>(), 32),
                two_sockets in any::<bool>(),
            ) {
                let cfg = small_cfg();
                let (m, measured) =
                    small_instance_on(if two_sockets { TWO_SOCKETS } else { XEON_4WAY });
                assert_resume_matches_replay(&m, &measured, &cfg, |i, mut kids| {
                    let k = picks[i % picks.len()] as usize % kids.len();
                    kids.swap_remove(k)
                });
            }
        }
    }
}
