//! The simulated SMP: cpus, bus, caches, threads, and the tick loop.
//!
//! A [`Machine`] hosts applications (gangs of threads) and drives time
//! forward in fixed ticks. A [`Scheduler`] — the pluggable policy layer —
//! is consulted:
//!
//! * at time 0 and whenever its requested quantum expires,
//! * immediately (at the next tick boundary) when an application finishes,
//!   so freed processors are not left idle for the rest of a quantum,
//! * at its requested sampling period ([`Scheduler::on_sample`]), which the
//!   paper's CPU manager uses to poll performance counters twice per
//!   quantum.
//!
//! The scheduler sees the machine only through [`MachineView`]: thread and
//! application states plus the `busbw-perfmon` counter registry — the same
//! information a user-level CPU manager has on real hardware. It returns a
//! [`Decision`]: a complete placement of threads onto cpus for the next
//! interval.
//!
//! Timers fire at tick granularity (default 100 µs), three orders of
//! magnitude below the paper's quanta.
//!
//! Each tick the placed threads' demands go to the machine's one
//! [`Bus`], built over the configured topology: a single level on the
//! paper's one-socket machine, one per socket plus the interconnect
//! otherwise.

use busbw_perfmon::{EventKind, Registry};
use busbw_trace::{EventBus, TraceEvent};

use crate::bus::{Bus, BusOutcome, BusRequest, LevelOutcome, MAX_BUS_LEVELS};
use crate::cache::CacheState;
use crate::config::MachineConfig;
use crate::ids::{AppId, CpuId, SimTime, ThreadId};
use crate::prof::{Phase, PhaseSet, PhaseTimer};
use crate::stage::StageSnapshot;
use crate::stats::RunStats;
use crate::thread::{SimThread, ThreadSpec, ThreadState};

mod ceiling;
pub use ceiling::ProgressCeiling;

/// An application to place on the machine: a named gang of threads.
pub struct AppDescriptor {
    /// Human-readable name (used in reports).
    pub name: String,
    /// The gang's threads.
    pub threads: Vec<ThreadSpec>,
    /// Barrier interval in virtual µs: threads synchronize this often, so
    /// no thread's progress may exceed the slowest unfinished sibling's
    /// progress by more than this. A thread that starts a tick at the
    /// limit spin-waits for that tick: it burns its processor with no
    /// progress and no bus request, what an OpenMP barrier does when a
    /// sibling is descheduled. A thread that would cross the limit within
    /// a tick is clamped at it by `tick_commit`, which scales its progress
    /// and issued traffic down, while the tick's Λ was solved with its
    /// full demand. So a leader whose slowest sibling is placed advances
    /// at the sibling's pace without ever spinning, and each tick charges
    /// the bus its full demand, more than it issues. `None` disables
    /// coupling (independent threads, e.g. microbenchmarks).
    pub(crate) barrier_interval_us: Option<f64>,
}

impl AppDescriptor {
    /// Build a descriptor with uncoupled threads.
    pub fn new(name: impl Into<String>, threads: Vec<ThreadSpec>) -> Self {
        Self {
            name: name.into(),
            threads,
            barrier_interval_us: None,
        }
    }

    /// Couple the gang with barriers every `interval_us` of virtual time.
    ///
    /// # Panics
    /// Panics if `interval_us` is not positive.
    pub fn with_barrier_interval(mut self, interval_us: f64) -> Self {
        assert!(interval_us > 0.0, "barrier interval must be positive");
        self.barrier_interval_us = Some(interval_us);
        self
    }
}

#[derive(Clone)]
pub(crate) struct AppRecord {
    pub(crate) name: String,
    pub(crate) threads: Vec<ThreadId>,
    pub(crate) arrived_at: SimTime,
    pub(crate) finished_at: Option<SimTime>,
    pub(crate) barrier_interval_us: Option<f64>,
}

/// One thread-to-cpu placement in a [`Decision`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// The thread to run.
    pub thread: ThreadId,
    /// The cpu to run it on.
    pub cpu: CpuId,
}

/// A scheduler's answer: the complete placement for the next interval.
///
/// Threads not mentioned in `assignments` are preempted (set to `Ready`).
/// Equal decisions (assignment order included) applied to equal machines
/// leave equal machines — what lets sibling runs share a prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Placements; at most one thread per cpu, one cpu per thread.
    pub assignments: Vec<Assignment>,
    /// Microseconds until the next [`Scheduler::schedule`] call (the
    /// scheduling quantum). Must be positive.
    pub next_resched_in_us: u64,
    /// If set, [`Scheduler::on_sample`] is invoked at this period until the
    /// next reschedule. The paper samples twice per quantum.
    pub sample_period_us: Option<u64>,
}

impl Decision {
    /// An idle decision: run nothing, re-ask after `quantum_us`.
    pub fn idle(quantum_us: u64) -> Self {
        Self {
            assignments: Vec::new(),
            next_resched_in_us: quantum_us,
            sample_period_us: None,
        }
    }
}

/// Read-only information about one thread, as exposed to schedulers.
#[derive(Debug, Clone, Copy)]
pub struct ThreadInfo {
    /// Thread id.
    pub id: ThreadId,
    /// Owning application.
    pub app: AppId,
    /// Current scheduling state.
    pub state: ThreadState,
    /// Last cpu the thread ran on (affinity hint), if any.
    pub last_cpu: Option<CpuId>,
    /// Completed useful work, virtual µs.
    pub progress_us: f64,
    /// Total work, virtual µs (`INFINITY` for run-forever threads).
    pub work_us: f64,
}

impl ThreadInfo {
    /// Whether the thread still wants cpu time.
    pub fn is_runnable(&self) -> bool {
        self.state.is_runnable()
    }
}

/// Read-only information about one application.
#[derive(Debug, Clone)]
pub struct AppInfo<'a> {
    /// Application id.
    pub id: AppId,
    /// Name given at creation.
    pub name: &'a str,
    /// The gang's threads.
    pub threads: &'a [ThreadId],
    /// Wall time the app was added.
    pub arrived_at: SimTime,
    /// Wall time the app finished, if it has.
    pub finished_at: Option<SimTime>,
}

impl AppInfo<'_> {
    /// Number of threads in the gang.
    pub fn width(&self) -> usize {
        self.threads.len()
    }
}

/// The scheduler's window into the machine.
pub struct MachineView<'a> {
    /// Current simulated time, µs.
    pub now: SimTime,
    /// Number of processors.
    pub num_cpus: usize,
    /// Nominal sustained bus capacity, tx/µs — the paper's policies need
    /// this to compute available bandwidth per unallocated processor.
    pub bus_capacity: f64,
    /// The performance-counter registry (what a perfctr client reads).
    pub registry: &'a Registry,
    /// Hardware threads per physical core (1 = no SMT). Placement stages
    /// need this to prefer spreading gangs across idle cores.
    pub(crate) smt_threads_per_core: usize,
    /// Number of sockets in the bus topology (1 = one shared bus).
    pub sockets: usize,
    /// Logical cpus per socket (contiguous blocks, cpu 0 on socket 0).
    pub(crate) cpus_per_socket: usize,
    /// Per-level bus state from the most recent arbitration — sockets
    /// first, the cross-socket interconnect last. Empty on a one-socket
    /// machine; socket-aware placement stages read it to find saturated
    /// local buses.
    pub bus_levels: &'a [LevelOutcome],
    /// Time-integral of bus dilation (µs·Λ) — the simulated IOQ-occupancy
    /// PMU reading; see [`Machine`] internals.
    pub dilation_integral: f64,
    threads: &'a [SimThread],
    apps: &'a [AppRecord],
    cache: &'a CacheState,
}

impl<'a> MachineView<'a> {
    /// Iterate all threads (id order).
    pub fn threads(&self) -> impl Iterator<Item = ThreadInfo> + '_ {
        self.threads.iter().map(thread_info)
    }

    /// Look up one thread.
    pub fn thread(&self, id: ThreadId) -> Option<ThreadInfo> {
        self.threads.get(id.0 as usize).map(thread_info)
    }

    /// Iterate all applications (deterministic id order).
    pub fn apps(&self) -> impl Iterator<Item = AppInfo<'_>> + '_ {
        self.apps
            .iter()
            .enumerate()
            .map(|(i, r)| app_info(AppId(i as u64), r))
    }

    /// Look up one application.
    pub fn app(&self, id: AppId) -> Option<AppInfo<'_>> {
        self.apps.get(id.0 as usize).map(|r| app_info(id, r))
    }

    /// The cpu where `thread` has the warmest cache state, if any.
    pub fn warmest_cpu(&self, thread: ThreadId) -> Option<(CpuId, f64)> {
        self.cache.warmest_cpu(thread)
    }

    /// The physical core a cpu (hardware thread) belongs to.
    pub fn core_of(&self, cpu: CpuId) -> usize {
        cpu.0 / self.smt_threads_per_core.max(1)
    }

    /// The socket a cpu belongs to.
    pub fn socket_of(&self, cpu: CpuId) -> usize {
        (cpu.0 / self.cpus_per_socket.max(1)).min(self.sockets.max(1) - 1)
    }

    /// The socket where `thread`'s memory lives (first-touch), if it has
    /// ever been placed.
    pub fn home_socket(&self, thread: ThreadId) -> Option<usize> {
        self.threads
            .get(thread.0 as usize)
            .and_then(|t| t.home_socket)
    }

    /// All applications that still have runnable work, in id order.
    pub fn live_apps(&self) -> Vec<AppId> {
        self.apps
            .iter()
            .enumerate()
            .filter(|(_, r)| r.finished_at.is_none())
            .map(|(i, _)| AppId(i as u64))
            .collect()
    }
}

fn thread_info(t: &SimThread) -> ThreadInfo {
    ThreadInfo {
        id: t.id,
        app: t.app,
        state: t.state,
        last_cpu: t.last_cpu,
        progress_us: t.progress_us,
        work_us: t.work_us,
    }
}

fn app_info(id: AppId, r: &AppRecord) -> AppInfo<'_> {
    AppInfo {
        id,
        name: &r.name,
        threads: &r.threads,
        arrived_at: r.arrived_at,
        finished_at: r.finished_at,
    }
}

/// A scheduling policy driving a [`Machine`]. `Send`, like the machine,
/// so a paused run and its schedulers can move to another thread.
pub trait Scheduler: Send {
    /// Produce the placement for the next interval.
    fn schedule(&mut self, view: &MachineView<'_>) -> Decision;

    /// Called at the sampling period requested by the last [`Decision`].
    fn on_sample(&mut self, view: &MachineView<'_>) {
        let _ = view;
    }

    /// Called once at the start of every [`Machine::run`] with the
    /// machine's trace bus, so schedulers that emit structured events
    /// share the machine's sink. The default ignores it.
    fn attach_tracer(&mut self, tracer: &EventBus) {
        let _ = tracer;
    }

    /// Display name for reports.
    fn name(&self) -> &str {
        "scheduler"
    }

    /// Per-stage wall-time accounting, for schedulers built as a policy
    /// pipeline. Monolithic schedulers return `None` (the default).
    fn stage_timings(&self) -> Option<&crate::stage::StageTimings> {
        None
    }

    /// Ask the scheduler to (stop) recording a [`StageSnapshot`] per
    /// reschedule. [`Machine::run_audited`] switches this on exactly when
    /// an audit hook is attached; schedulers without stage structure
    /// ignore it (the default).
    fn set_introspect(&mut self, on: bool) {
        let _ = on;
    }

    /// The stage snapshot of the most recent [`Scheduler::schedule`] call,
    /// if the scheduler is pipelined and introspection is on. Monolithic
    /// schedulers return `None` (the default).
    fn stage_snapshot(&self) -> Option<&StageSnapshot> {
        None
    }
}

/// Observer attached to [`Machine::run_audited`]'s hook points.
///
/// The hooks are purely observational — the machine never reads anything
/// back — and both fire on the hot path, so implementations should do
/// cheap bookkeeping and defer reporting to after the run. When no hook
/// is attached the cost is a single `Option` branch per decision/tick.
pub trait AuditHook {
    /// A scheduling decision was produced and is about to be applied.
    /// `snapshot` is the scheduler's stage introspection, when available
    /// (pipelined schedulers under [`Scheduler::set_introspect`]).
    fn on_decision(
        &mut self,
        view: &MachineView<'_>,
        decision: &Decision,
        snapshot: Option<&StageSnapshot>,
    );

    /// A tick advanced the machine: `issued_tx` bus transactions were
    /// issued over `dt_us` starting at `now`, against a bus whose nominal
    /// sustained capacity is `capacity_tx_per_us`.
    fn on_tick(&mut self, now: SimTime, dt_us: u64, issued_tx: f64, capacity_tx_per_us: f64);

    /// Per-level topology pressure for the tick (sockets first, the
    /// cross-socket interconnect last). Fires only on machines with more
    /// than one socket — the default ignores it, so hooks written against
    /// the one-socket machine need no changes.
    fn on_levels(&mut self, now: SimTime, dt_us: u64, levels: &[LevelOutcome]) {
        let _ = (now, dt_us, levels);
    }
}

/// When a [`Machine::run`] should stop.
#[derive(Debug, Clone)]
pub enum StopCondition {
    /// Stop at the given absolute simulated time.
    At(SimTime),
    /// Stop when all the listed applications have finished.
    AppsFinished(Vec<AppId>),
    /// Stop when every application with finite work has finished.
    AllFiniteAppsFinished,
}

/// Why a run stopped, plus accounting.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Time at which the run stopped.
    pub stopped_at: SimTime,
    /// Whether the stop condition was met (vs. hitting the hard cap).
    pub condition_met: bool,
    /// Accounting for the run.
    pub stats: RunStats,
}

/// Aggregated per-application accounting, assembled from the counters.
#[derive(Debug, Clone)]
pub struct AppReport {
    /// Its display name.
    pub name: String,
    /// Arrival time, µs.
    pub arrived_at_us: SimTime,
    /// Σ cpu time consumed across threads, µs.
    pub(crate) cpu_time_us: f64,
    /// Σ useful progress across threads, virtual µs.
    pub(crate) progress_us: f64,
    /// Σ bus transactions issued.
    pub(crate) transactions: f64,
    /// Σ cache-cold placements.
    pub(crate) cold_starts: f64,
    /// Σ quanta in which threads were placed.
    pub(crate) quanta_run: f64,
}

/// One placed thread in the placement plan: the parts of its bus request
/// that change only when the placement does.
#[derive(Debug, Clone, Copy)]
struct PlanEntry {
    /// Executing cpu index.
    cpu: usize,
    /// Thread index.
    thread: usize,
    /// SMT speed factor of the thread's core under this placement.
    smt: f64,
    /// Executing socket.
    socket: usize,
    /// Interconnect traffic fraction: depends only on the home socket,
    /// fixed at first placement, and the executing socket.
    remote: f64,
}

/// Per-tick buffers, reused across ticks so the hot path makes no
/// allocations. The placement plan (`placement`, `plan`, `busy_per_core`)
/// persists until the placement changes; the other vectors are rewritten
/// every tick. `f64::INFINITY` in `barrier_cap` means "no cap". Taken out
/// of the machine for the duration of a tick to keep borrows simple.
#[derive(Debug, Clone)]
struct TickScratch {
    /// Occupant per cpu.
    placement: Vec<Option<ThreadId>>,
    /// The placed threads, one entry per occupied cpu (cpu order).
    plan: Vec<PlanEntry>,
    /// Barrier progress cap per thread index (`INFINITY` = uncapped).
    barrier_cap: Vec<f64>,
    /// Cache×SMT speed factor per thread index (valid for placed threads).
    cache_speed: Vec<f64>,
    /// Busy hardware threads per physical core.
    busy_per_core: Vec<usize>,
    /// Bus requests, parallel to `plan`.
    reqs: Vec<BusRequest>,
    /// Parallel to `reqs`: is the requester spin-waiting at its barrier?
    req_spin: Vec<bool>,
    /// Were all placed, non-spinning threads at full cache warmth this
    /// tick? Feeds the coarsening gate in the commit phase.
    all_warm: bool,
    /// Arbitration result (shares reused tick to tick).
    outcome: BusOutcome,
}

impl Default for TickScratch {
    fn default() -> Self {
        Self {
            placement: Vec::new(),
            plan: Vec::new(),
            barrier_cap: Vec::new(),
            cache_speed: Vec::new(),
            busy_per_core: Vec::new(),
            reqs: Vec::new(),
            req_spin: Vec::new(),
            all_warm: true,
            outcome: BusOutcome::default(),
        }
    }
}

/// Execution mode of the inner loop.
///
/// Both modes produce bit-identical results — the audit fuzzer checks the
/// full run codec byte-for-byte — they differ only in how much work each
/// simulated tick costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Event-driven (the default): the request build reuses the placement
    /// plan until the placement changes and each thread's cached demand
    /// until its progress or the wall clock reaches the edge the model's
    /// [`crate::demand::DemandModel::constant_for`] promised.
    #[default]
    EventDriven,
    /// The differential reference: rebuild the plan and re-query every
    /// demand every tick.
    PerTick,
}

/// Loop state of a stepped run (see [`Machine::run_begin`]).
///
/// Opaque to drivers: park it between [`Machine::run_step`] calls. It is
/// `Clone` so a driver can fork a run — machine and cursor together — at
/// any scheduling point and continue each copy on its own.
#[derive(Debug, Clone)]
pub struct RunCursor {
    stop: StopCondition,
    stats: RunStats,
    started_at: SimTime,
    cap_at: SimTime,
    next_resched: SimTime,
    sample_period: Option<u64>,
    next_sample: Option<SimTime>,
    resched_requested: bool,
    /// A [`StepEvent::Schedule`] was returned and its decision has not
    /// been handed to [`Machine::run_decide`] yet.
    deciding: bool,
}

impl RunCursor {
    /// Tick-loop iterations the run has executed so far.
    pub fn ticks(&self) -> u64 {
        self.stats.ticks
    }
}

/// Why [`Machine::run_step`] returned control.
//
// `Done` carries the whole `RunOutcome` (whose `RunStats` embeds the
// fixed per-level arrays) by value: exactly one `StepEvent` is live per
// stepped run, and boxing would put an allocation on every completion.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum StepEvent {
    /// The sampling timer fired: call [`Scheduler::on_sample`] with
    /// [`Machine::view`] on every scheduler the driver runs, then step
    /// again.
    Sample,
    /// A scheduling point: obtain a [`Decision`] from
    /// [`Scheduler::schedule`] on [`Machine::view`] and hand it to
    /// [`Machine::run_decide`] before stepping again.
    Schedule,
    /// The run finished; the cursor is spent.
    Done(RunOutcome),
}

/// The simulated SMP.
///
/// Thread and application IDs are handed out sequentially from 0, so both
/// live in dense `Vec`s indexed by id — every hot-path lookup is O(1).
///
/// A clone is a deep copy of the whole simulated state — demand models,
/// bus memo and scratch included — so clone and original continue
/// bit-identically under equal decisions. The trace bus is the one shared
/// part: both copies emit into the same sink.
#[derive(Clone)]
pub struct Machine {
    cfg: MachineConfig,
    bus: Bus,
    cache: CacheState,
    threads: Vec<SimThread>,
    apps: Vec<AppRecord>,
    registry: Registry,
    now: SimTime,
    hard_cap_us: SimTime,
    /// Time-integral of the bus dilation factor Λ (µs·Λ). The simulated
    /// analogue of the Pentium-4 IOQ-occupancy PMU events: lets a
    /// user-level manager estimate how much the bus dilated memory
    /// phases over an interval (Λ̄ = Δintegral / Δt).
    dilation_integral: f64,
    /// Reusable per-tick buffers, boxed so moving them in and out of a
    /// tick is a pointer swap rather than a structural copy. `None` only
    /// while a tick is in flight.
    scratch: Option<Box<TickScratch>>,
    /// Indices into `apps` of applications with a barrier interval — the
    /// only ones the per-tick barrier-cap pass must visit.
    barrier_apps: Vec<usize>,
    /// Inner-loop execution mode (event-driven by default).
    exec: ExecMode,
    /// The placement changed since the plan in the scratch was built.
    replan: bool,
    /// Ticks built with no plan rebuild and no demand query (diagnostics
    /// only — not part of [`RunStats`], so both execution modes stay
    /// codec-identical).
    cached_ticks: u64,
    /// Structured-trace emission handle (disabled by default; a disabled
    /// bus costs one branch per emission site).
    tracer: EventBus,
    /// Last `(rate, mu)` the tracer saw per thread — phase-edge
    /// detection state, maintained only while tracing is enabled.
    traced_demand: Vec<(f64, f64)>,
    /// Last dilation Λ emitted as a `BusSolve` event.
    traced_dilation: f64,
    /// Last per-level saturation state emitted as `LevelSaturated`
    /// events — edge detection, maintained only while tracing.
    traced_level_sat: [bool; MAX_BUS_LEVELS],
    /// Phase-attribution profiler (disabled by default; one branch per
    /// phase boundary when off). Observational only — never part of the
    /// run codec, so profiled runs stay byte-identical.
    prof: PhaseTimer,
}

impl Machine {
    /// A machine with the given configuration, its [`Bus`] built over
    /// the configured topology.
    pub fn new(cfg: MachineConfig) -> Self {
        assert!(cfg.num_cpus > 0, "need at least one cpu");
        assert!(cfg.tick_us > 0, "tick must be positive");
        assert!(cfg.topology.sockets >= 1, "need at least one socket");
        Self {
            cache: CacheState::new(cfg.num_cpus, cfg.cache),
            bus: Bus::new(cfg.bus, cfg.topology),
            cfg,
            threads: Vec::new(),
            apps: Vec::new(),
            registry: Registry::new(),
            now: 0,
            hard_cap_us: 1_000_000_000, // 1000 simulated seconds
            dilation_integral: 0.0,
            scratch: Some(Box::default()),
            barrier_apps: Vec::new(),
            exec: ExecMode::default(),
            replan: true,
            cached_ticks: 0,
            tracer: EventBus::off(),
            traced_demand: Vec::new(),
            traced_dilation: 0.0,
            traced_level_sat: [false; MAX_BUS_LEVELS],
            prof: PhaseTimer::new(),
        }
    }

    /// Switch phase-attribution profiling on or off (see `crate::prof`).
    /// Purely observational: toggling it cannot change any simulated
    /// quantity (a proptest in the experiments crate pins byte identity).
    pub fn set_profiling(&mut self, on: bool) {
        self.prof.set_enabled(on);
    }

    /// Take the recorded phase profile, leaving an empty one (the enable
    /// flag is preserved).
    pub fn take_phase_profile(&mut self) -> PhaseSet {
        self.prof.take()
    }

    /// Attach a structured-trace bus. Placements, phase edges,
    /// coarsening jumps, bus Λ solves, and app completions are emitted
    /// into it; pass [`EventBus::off`] to detach.
    pub fn set_tracer(&mut self, tracer: EventBus) {
        self.tracer = tracer;
        self.traced_demand.clear();
        self.traced_dilation = 0.0;
        self.traced_level_sat = [false; MAX_BUS_LEVELS];
        // Phase-edge detection restarts from NaN sentinels: every thread
        // must re-query its demand so the re-observed values emit.
        for t in &mut self.threads {
            t.expire_demand();
        }
    }

    /// Select the inner-loop execution mode (see [`ExecMode`]). Takes
    /// effect from the next tick; both modes produce bit-identical runs.
    pub fn set_exec_mode(&mut self, exec: ExecMode) {
        self.exec = exec;
    }

    /// Ticks built with no plan rebuild and no demand query so far (0 in
    /// [`ExecMode::PerTick`]). Diagnostics only; not part of the run
    /// statistics.
    #[cfg(test)]
    pub(crate) fn cached_ticks(&self) -> u64 {
        self.cached_ticks
    }

    /// The attached trace bus (disabled unless [`Machine::set_tracer`]
    /// was called).
    pub fn tracer(&self) -> &EventBus {
        &self.tracer
    }

    /// Λ-solve memoization counters `(hits, misses)` of the bus, summed
    /// over its levels.
    pub fn bus_memo_stats(&self) -> (u64, u64) {
        self.bus.memo_stats()
    }

    /// Change the safety cap on any single `run` call (simulated µs of
    /// absolute time beyond which the run aborts with
    /// `condition_met = false`).
    pub fn set_hard_cap_us(&mut self, cap: SimTime) {
        self.hard_cap_us = cap;
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Add an application; its threads become runnable immediately.
    pub fn add_app(&mut self, desc: AppDescriptor) -> AppId {
        assert!(!desc.threads.is_empty(), "an app needs at least one thread");
        let app_id = AppId(self.apps.len() as u64);
        let mut tids = Vec::with_capacity(desc.threads.len());
        for spec in desc.threads {
            let tid = ThreadId(self.threads.len() as u64);
            self.registry.register(tid.key());
            self.threads.push(SimThread::new(tid, app_id, spec));
            tids.push(tid);
        }
        if desc.barrier_interval_us.is_some() {
            self.barrier_apps.push(self.apps.len());
        }
        self.apps.push(AppRecord {
            name: desc.name,
            threads: tids,
            arrived_at: self.now,
            finished_at: None,
            barrier_interval_us: desc.barrier_interval_us,
        });
        app_id
    }

    /// The scheduler-facing view of the current state.
    pub fn view(&self) -> MachineView<'_> {
        MachineView {
            now: self.now,
            num_cpus: self.cfg.num_cpus,
            bus_capacity: self.bus.nominal_capacity(),
            registry: &self.registry,
            smt_threads_per_core: self.cfg.smt_threads_per_core,
            sockets: self.cfg.topology.sockets.max(1),
            cpus_per_socket: self.cfg.cpus_per_socket(),
            bus_levels: self.bus.levels(),
            dilation_integral: self.dilation_integral,
            threads: &self.threads,
            apps: &self.apps,
            cache: &self.cache,
        }
    }

    /// Turnaround time of a finished app (finish − arrival), if finished.
    pub fn turnaround_us(&self, app: AppId) -> Option<SimTime> {
        let r = self.apps.get(app.0 as usize)?;
        r.finished_at.map(|f| f - r.arrived_at)
    }

    /// Total bus transactions issued by an app so far.
    pub fn app_transactions(&self, app: AppId) -> f64 {
        let Some(r) = self.apps.get(app.0 as usize) else {
            return 0.0;
        };
        r.threads
            .iter()
            .map(|t| self.registry.total(t.key(), EventKind::BusTransactions))
            .sum()
    }

    /// The perfmon registry (read access for reports/tests).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// A per-application accounting report (see `AppReport`).
    pub fn app_report(&self, app: AppId) -> Option<AppReport> {
        let rec = self.apps.get(app.0 as usize)?;
        let mut r = AppReport {
            name: rec.name.clone(),
            arrived_at_us: rec.arrived_at,
            cpu_time_us: 0.0,
            progress_us: 0.0,
            transactions: 0.0,
            cold_starts: 0.0,
            quanta_run: 0.0,
        };
        for t in &rec.threads {
            let k = t.key();
            r.cpu_time_us += self.registry.total(k, EventKind::CyclesOnCpu);
            r.progress_us += self.registry.total(k, EventKind::VirtualProgress);
            r.transactions += self.registry.total(k, EventKind::BusTransactions);
            r.cold_starts += self.registry.total(k, EventKind::ColdStarts);
            r.quanta_run += self.registry.total(k, EventKind::QuantaRun);
        }
        Some(r)
    }

    /// Drive the machine under `sched` until `stop` (or the hard cap).
    pub fn run(&mut self, sched: &mut dyn Scheduler, stop: StopCondition) -> RunOutcome {
        self.run_audited(sched, stop, None)
    }

    /// [`Machine::run`] with an optional [`AuditHook`] observing every
    /// scheduling decision (before it is applied, so a violating decision
    /// is recorded even if `apply` rejects it) and every tick's issued bus
    /// traffic. With `hook = None` this *is* `run`: the only overhead is
    /// one `Option` branch per decision and per tick.
    ///
    /// Implemented on top of the stepped API ([`Machine::run_begin`] /
    /// [`Machine::run_step`] / [`Machine::run_decide`]), so the one-policy
    /// path and the sibling-group driver in the experiments crate run the
    /// *same* loop.
    pub fn run_audited(
        &mut self,
        sched: &mut dyn Scheduler,
        stop: StopCondition,
        mut hook: Option<&mut (dyn AuditHook + '_)>,
    ) -> RunOutcome {
        sched.attach_tracer(&self.tracer);
        sched.set_introspect(hook.is_some());
        let mut cur = self.run_begin(stop);
        loop {
            match self.run_step(&mut cur, hook.as_deref_mut()) {
                StepEvent::Sample => sched.on_sample(&self.view()),
                StepEvent::Schedule => {
                    let tok = self.prof.begin();
                    let decision = sched.schedule(&self.view());
                    if let Some(h) = hook.as_deref_mut() {
                        h.on_decision(&self.view(), &decision, sched.stage_snapshot());
                    }
                    self.run_decide(&mut cur, &decision);
                    self.prof.end(Phase::Schedule, tok);
                }
                StepEvent::Done(out) => return out,
            }
        }
    }

    /// Start a stepped run: the cursor carries all loop state between
    /// [`Machine::run_step`] calls. The driver owns the scheduler side —
    /// [`Scheduler::attach_tracer`] and [`Scheduler::set_introspect`] are
    /// its to call, as [`Machine::run_audited`] does.
    pub fn run_begin(&self, stop: StopCondition) -> RunCursor {
        let started_at = self.now;
        RunCursor {
            stop,
            stats: RunStats::default(),
            started_at,
            cap_at: started_at.saturating_add(self.hard_cap_us),
            next_resched: self.now, // schedule immediately
            sample_period: None,
            next_sample: None,
            resched_requested: false,
            deciding: false,
        }
    }

    /// Advance the run until it finishes or reaches a timer the scheduler
    /// must answer: a sample ([`StepEvent::Sample`]) or a scheduling
    /// point ([`StepEvent::Schedule`]). Sampling fires before
    /// rescheduling, so a sample landing on the quantum boundary (the
    /// paper's second sample per quantum) is visible to the decision it
    /// precedes.
    ///
    /// # Panics
    /// Panics if the previous [`StepEvent::Schedule`] was not answered
    /// with [`Machine::run_decide`].
    pub fn run_step(
        &mut self,
        cur: &mut RunCursor,
        mut hook: Option<&mut (dyn AuditHook + '_)>,
    ) -> StepEvent {
        assert!(
            !cur.deciding,
            "run_step called before the pending decision was applied"
        );
        loop {
            if self.stop_met(&cur.stop) {
                return StepEvent::Done(self.finish_run(cur, true));
            }
            if self.now >= cur.cap_at {
                return StepEvent::Done(self.finish_run(cur, false));
            }
            if let (Some(ns), Some(p)) = (cur.next_sample, cur.sample_period) {
                if self.now >= ns {
                    cur.stats.sample_calls += 1;
                    cur.next_sample = Some(self.now + p.max(self.cfg.tick_us));
                    return StepEvent::Sample;
                }
            }
            if self.now >= cur.next_resched || cur.resched_requested {
                cur.deciding = true;
                return StepEvent::Schedule;
            }

            // The window until the next timer (reschedule, sample, timed
            // stop, hard cap). A tick never crosses it; within it the
            // machine is free to coarsen — advance multiple nominal ticks
            // in one jump — when the tick's inputs are provably static.
            let mut dt_limit = cur.next_resched.saturating_sub(self.now).max(1);
            if let Some(ns) = cur.next_sample {
                dt_limit = dt_limit.min(ns.saturating_sub(self.now).max(1));
            }
            if let StopCondition::At(t) = cur.stop {
                dt_limit = dt_limit.min(t.saturating_sub(self.now).max(1));
            }
            dt_limit = dt_limit.min(cur.cap_at.saturating_sub(self.now).max(1));

            // The scratch is moved out for the duration of the tick so the
            // borrow checker sees the buffers and `self` as disjoint; the
            // box makes the move a pointer swap.
            let mut s = self.scratch.take().expect("tick scratch in flight");
            self.tick_prepare(&mut cur.stats, &mut s);
            let app_finished =
                self.tick_commit(dt_limit, &mut cur.stats, &mut s, hook.as_deref_mut());
            self.scratch = Some(s);
            if app_finished {
                cur.resched_requested = true;
            }
        }
    }

    /// Apply the decision a [`StepEvent::Schedule`] asked for and arm the
    /// next reschedule and sampling timers from it.
    ///
    /// # Panics
    /// Panics if no scheduling point is pending, if the decision requests
    /// a zero quantum, or if it is invalid (see [`Decision`]).
    pub fn run_decide(&mut self, cur: &mut RunCursor, decision: &Decision) {
        assert!(
            cur.deciding,
            "run_decide called with no scheduling point pending"
        );
        assert!(
            decision.next_resched_in_us > 0,
            "scheduler must request a positive quantum"
        );
        self.apply(decision, &mut cur.stats);
        cur.stats.schedule_calls += 1;
        cur.next_resched = self.now + decision.next_resched_in_us;
        cur.sample_period = decision.sample_period_us;
        cur.next_sample = cur
            .sample_period
            .map(|p| self.now + p.max(self.cfg.tick_us));
        cur.resched_requested = false;
        cur.deciding = false;
    }

    fn finish_run(&mut self, cur: &mut RunCursor, condition_met: bool) -> RunOutcome {
        cur.stats.elapsed_us = self.now - cur.started_at;
        RunOutcome {
            stopped_at: self.now,
            condition_met,
            stats: std::mem::take(&mut cur.stats),
        }
    }

    fn stop_met(&self, stop: &StopCondition) -> bool {
        match stop {
            StopCondition::At(t) => self.now >= *t,
            StopCondition::AppsFinished(ids) => ids.iter().all(|id| {
                self.apps
                    .get(id.0 as usize)
                    .is_some_and(|r| r.finished_at.is_some())
            }),
            StopCondition::AllFiniteAppsFinished => self.apps.iter().all(|r| {
                r.finished_at.is_some()
                    || r.threads
                        .iter()
                        .all(|t| self.threads[t.0 as usize].work_us.is_infinite())
            }),
        }
    }

    /// Validate and apply a scheduling decision.
    fn apply(&mut self, d: &Decision, stats: &mut RunStats) {
        // Placement changes (even re-placements of the same set: the
        // preempt/place cycle below re-runs cold-start accounting).
        self.replan = true;
        let mut cpu_used = vec![false; self.cfg.num_cpus];
        let mut seen = std::collections::BTreeSet::new();
        for a in &d.assignments {
            assert!(
                a.cpu.0 < self.cfg.num_cpus,
                "assignment to nonexistent {}",
                a.cpu
            );
            assert!(!cpu_used[a.cpu.0], "two threads assigned to {}", a.cpu);
            cpu_used[a.cpu.0] = true;
            assert!(seen.insert(a.thread), "thread {} assigned twice", a.thread);
            let t = self
                .threads
                .get(a.thread.0 as usize)
                .unwrap_or_else(|| panic!("assignment of unknown thread {}", a.thread));
            assert!(
                t.state.is_runnable(),
                "assignment of finished thread {}",
                a.thread
            );
        }

        // Preempt everyone, then place the assigned set.
        for t in self.threads.iter_mut() {
            if let ThreadState::Running(_) = t.state {
                t.state = ThreadState::Ready;
            }
        }
        for a in &d.assignments {
            let warmth = self.cache.warmth(a.cpu, a.thread);
            let socket = self.cfg.socket_of(a.cpu.0);
            let t = self
                .threads
                .get_mut(a.thread.0 as usize)
                .expect("validated above");
            let app = t.app;
            t.state = ThreadState::Running(a.cpu);
            if t.home_socket.is_none() {
                // First-touch: the thread's memory lives where it first ran.
                t.home_socket = Some(socket);
            }
            stats.placements += 1;
            if warmth < 0.5 {
                stats.cold_placements += 1;
                self.registry
                    .add(a.thread.key(), EventKind::ColdStarts, 1.0);
            }
            if t.last_cpu != Some(a.cpu) {
                t.last_cpu = Some(a.cpu);
            }
            self.registry.add(a.thread.key(), EventKind::QuantaRun, 1.0);
            if self.tracer.emits() {
                self.tracer.emit(TraceEvent::Placement {
                    at_us: self.now,
                    cpu: a.cpu.0,
                    thread: a.thread.0,
                    app: app.0,
                    cold: warmth < 0.5,
                });
            }
        }
    }

    /// First half of a tick: build the bus-request vector and arbitrate it
    /// into `s.outcome`.
    ///
    /// The build is one loop over the placement plan, which is rebuilt
    /// only when the placement changed. Each placed thread's demand comes
    /// from its cache and is re-queried only when its progress or the wall
    /// clock has reached the cache's edge ([`SimThread::demand_holds`]).
    /// Warmth-dependent boosts and speeds move every tick and are always
    /// recomputed. [`ExecMode::PerTick`] rebuilds the plan and re-queries
    /// every demand every tick.
    fn tick_prepare(&mut self, stats: &mut RunStats, s: &mut TickScratch) {
        stats.ticks += 1;
        let n_threads = self.threads.len();
        let trace_on = self.tracer.emits();
        if trace_on && self.traced_demand.len() < n_threads {
            // NaN sentinels make the first observed demand of every
            // thread register as a phase edge.
            self.traced_demand.resize(n_threads, (f64::NAN, f64::NAN));
        }

        // Barrier caps: a thread may not run ahead of its slowest
        // unfinished sibling by more than the app's barrier interval.
        // Threads at their cap spin-wait: they hold the cpu but demand no
        // bus bandwidth and make no progress.
        let tok = self.prof.begin();
        if self.barrier_apps.is_empty() {
            // No app has barriers: the caps are all-INFINITY and only the
            // vector's length can go stale.
            if s.barrier_cap.len() != n_threads {
                s.barrier_cap.clear();
                s.barrier_cap.resize(n_threads, f64::INFINITY);
            }
        } else {
            s.barrier_cap.clear();
            s.barrier_cap.resize(n_threads, f64::INFINITY);
            for &ai in &self.barrier_apps {
                let rec = &self.apps[ai];
                let interval = rec
                    .barrier_interval_us
                    .expect("barrier_apps holds only apps with an interval");
                let min_progress = rec
                    .threads
                    .iter()
                    .map(|t| &self.threads[t.0 as usize])
                    .filter(|t| t.state != ThreadState::Finished)
                    .map(|t| t.progress_us)
                    .fold(f64::INFINITY, f64::min);
                if min_progress.is_finite() {
                    for t in &rec.threads {
                        s.barrier_cap[t.0 as usize] = min_progress + interval;
                    }
                }
            }
        }

        self.prof.end(Phase::Barrier, tok);

        let build_tok = self.prof.begin();
        let per_tick = self.exec == ExecMode::PerTick;
        let mut cached = true;
        if self.replan || per_tick {
            let tok = self.prof.begin();
            self.rebuild_plan(s);
            self.prof.end(Phase::Placement, tok);
            cached = false;
        }
        s.reqs.clear();
        s.req_spin.clear();
        let mut all_warm = true;
        for e in &s.plan {
            let t = &mut self.threads[e.thread];
            if t.progress_us >= s.barrier_cap[e.thread] {
                // Spin-wait on a cached flag: no bus traffic, no progress,
                // no interconnect share, and no demand query.
                s.reqs.push(BusRequest {
                    thread: t.id,
                    rate: 0.0,
                    mu: 0.0,
                    socket: e.socket,
                    remote: 0.0,
                });
                s.req_spin.push(true);
                s.cache_speed[e.thread] = 0.0;
                continue;
            }
            if per_tick || !t.demand_holds(self.now) {
                let tok = self.prof.begin();
                let d = t.query_demand(self.now);
                self.prof.end(Phase::Demand, tok);
                cached = false;
                if trace_on && self.traced_demand[e.thread] != (d.rate, d.mu) {
                    self.traced_demand[e.thread] = (d.rate, d.mu);
                    self.tracer.emit(TraceEvent::PhaseEdge {
                        at_us: self.now,
                        thread: t.id.0,
                        rate: d.rate,
                        mu: d.mu,
                    });
                }
            }
            // One fused warmth lookup feeds the boost, the speed factor,
            // and the staticness check.
            let (w, boost, spd) = self.cache.factors(CpuId(e.cpu), t.id, t.cache_sensitivity);
            if w != 1.0 {
                // Warmth below its fixed point still moves every tick, so
                // demand boosts and cache speeds are not static.
                all_warm = false;
            }
            s.reqs.push(BusRequest {
                thread: t.id,
                rate: t.demand.rate * boost,
                mu: t.demand.mu,
                socket: e.socket,
                remote: e.remote,
            });
            s.req_spin.push(false);
            s.cache_speed[e.thread] = spd * e.smt;
        }
        s.all_warm = all_warm;
        if cached {
            self.cached_ticks += 1;
        }
        self.prof.end(Phase::Replay, build_tok);

        let tok = self.prof.begin();
        self.bus.arbitrate_into(&s.reqs, &mut s.outcome);
        self.prof.end(Phase::Solve, tok);
    }

    /// Rebuild the placement plan, with the per-cpu occupancy the cache
    /// model advances over, from the threads' states.
    fn rebuild_plan(&mut self, s: &mut TickScratch) {
        self.replan = false;
        s.placement.clear();
        s.placement.resize(self.cfg.num_cpus, None);
        for t in &self.threads {
            if let ThreadState::Running(c) = t.state {
                s.placement[c.0] = Some(t.id);
            }
        }

        // SMT: count busy hardware threads per physical core; siblings
        // sharing a core split its (slightly super-unit) throughput.
        let cores = self.cfg.num_cpus / self.cfg.smt_threads_per_core.max(1);
        s.busy_per_core.clear();
        s.busy_per_core.resize(cores.max(1), 0);
        for (cpu, occ) in s.placement.iter().enumerate() {
            if occ.is_some() {
                s.busy_per_core[self.cfg.core_of(cpu)] += 1;
            }
        }

        s.plan.clear();
        for (cpu, occ) in s.placement.iter().enumerate() {
            let Some(tid) = occ else { continue };
            let socket = self.cfg.socket_of(cpu);
            // Placed threads cross the interconnect by the topology's
            // remote share (0.0 on single-socket machines).
            let home = self.threads[tid.0 as usize].home_socket.unwrap_or(socket);
            s.plan.push(PlanEntry {
                cpu,
                thread: tid.0 as usize,
                smt: self
                    .cfg
                    .smt_speed_factor(s.busy_per_core[self.cfg.core_of(cpu)]),
                socket,
                remote: self.cfg.topology.remote_share(home, socket),
            });
        }
        s.cache_speed.clear();
        s.cache_speed.resize(self.threads.len(), 0.0);
    }

    /// Second half of a tick: choose the (possibly coarsened) step width,
    /// integrate progress, caches, and bus accounting over it, and detect
    /// completions. Requires `s.outcome` to hold finished arbitration for
    /// `s.reqs`. Returns true if any application finished.
    fn tick_commit(
        &mut self,
        dt_limit: u64,
        stats: &mut RunStats,
        s: &mut TickScratch,
        hook: Option<&mut (dyn AuditHook + '_)>,
    ) -> bool {
        let commit_tok = self.prof.begin();
        let trace_on = self.tracer.emits();
        let tick_started_at = self.now;
        let bus_capacity = self.bus.nominal_capacity();
        let all_warm = s.all_warm;
        if trace_on && !s.reqs.is_empty() && s.outcome.total.dilation != self.traced_dilation {
            // Emitted on Λ change only: memoized re-solves that reuse the
            // previous dilation stay silent, keeping trace volume
            // proportional to decisions rather than ticks.
            let tt = self.prof.begin();
            self.traced_dilation = s.outcome.total.dilation;
            self.tracer.emit(TraceEvent::BusSolve {
                at_us: self.now,
                lambda: s.outcome.total.dilation,
                utilization: s.outcome.total.utilization,
                saturated: s.outcome.total.saturated,
                requesters: s.reqs.len(),
            });
            self.prof.end(Phase::Trace, tt);
        }
        let outcome = &s.outcome;

        // Event-driven tick coarsening. Baseline: one nominal tick,
        // clipped by the timer window.
        let tick_us = self.cfg.tick_us;
        let mut dt = tick_us.min(dt_limit);
        if s.reqs.is_empty() {
            // Nothing is placed: nothing progresses, no bus traffic,
            // caches idle — jump straight to the next timer.
            dt = dt_limit;
        } else if all_warm && dt_limit > 2 * tick_us {
            // Find the widest window over which this tick's inputs are
            // provably static: demands constant (model horizons), no
            // thread completing, crossing its barrier cap, or leaving its
            // spin, caches at their fixed point. Then jump (k−1)·tick —
            // the one-tick margin keeps every bound *strictly* unreached,
            // and stepping in whole ticks keeps the tick grid phase (and
            // therefore the fine-grained path's sampling instants) intact.
            let mut window = dt_limit as f64;
            let mut vmax = 0.0f64; // fastest non-spinning placed thread
            for (i, share) in outcome.shares.iter().enumerate() {
                if !s.req_spin[i] {
                    let sp = share.speed * s.cache_speed[share.thread.0 as usize];
                    if sp > vmax {
                        vmax = sp;
                    }
                }
            }
            for (i, share) in outcome.shares.iter().enumerate() {
                let ti = share.thread.0 as usize;
                let t = &self.threads[ti];
                if s.req_spin[i] {
                    // The spinner must stay spinning across the jump: its
                    // cap rises at most at the fastest sibling's speed.
                    if vmax > 0.0 {
                        let slack = (t.progress_us - s.barrier_cap[ti]).max(0.0);
                        window = window.min(slack / vmax);
                    }
                } else {
                    let (virt_h, wall_h) = t.model.constant_for(t.progress_us, self.now);
                    let speed = share.speed * s.cache_speed[ti];
                    if speed > 0.0 {
                        window = window.min(t.remaining_us() / speed);
                        let cap = s.barrier_cap[ti];
                        if cap.is_finite() {
                            window = window.min((cap - t.progress_us).max(0.0) / speed);
                        }
                        window = window.min(virt_h / speed);
                    }
                    window = window.min(wall_h);
                }
            }
            let k = (window / tick_us as f64).floor() as u64;
            if k >= 3 {
                dt = ((k - 1) * tick_us).min(dt_limit);
            }
        }
        stats.tick_dt_hist.record(dt.div_ceil(tick_us));
        if trace_on && dt > tick_us {
            self.tracer.emit(TraceEvent::CoarseJump {
                at_us: self.now,
                dt_us: dt,
                ticks_covered: dt.div_ceil(tick_us),
            });
        }
        let dt_f = dt as f64;

        // Progress threads and count events.
        let mut any_thread_finished = false;
        let mut issued_this_tick = 0.0f64;
        for share in &outcome.shares {
            let ti = share.thread.0 as usize;
            let cs = s.cache_speed[ti];
            let mut speed = share.speed * cs;
            let mut issue = share.issue_rate * cs;
            let t = &mut self.threads[ti];
            // Clamp progress at the barrier cap: if this tick would cross
            // it, the overshoot is converted to spinning (no further
            // progress or traffic within the tick; exact at 100 µs scale).
            let cap = s.barrier_cap[ti];
            if cap.is_finite() {
                let ahead = (cap - t.progress_us).max(0.0);
                if speed * dt_f > ahead {
                    let frac = ahead / (speed * dt_f).max(1e-12);
                    speed *= frac;
                    issue *= frac;
                }
            }
            let remaining = t.remaining_us();
            // Portion of the tick actually used (threads that finish
            // mid-tick stop consuming cpu and bus).
            let used = if speed * dt_f >= remaining {
                (remaining / speed.max(1e-12)).min(dt_f)
            } else {
                dt_f
            };
            t.progress_us = (t.progress_us + speed * used).min(t.work_us);
            let key = share.thread.key();
            issued_this_tick += issue * used;
            // One slot lookup feeds all three event counters.
            let counters = self
                .registry
                .counters_mut(key)
                .unwrap_or_else(|| panic!("thread {key:?} not registered with perfmon"));
            counters.add(EventKind::BusTransactions, issue * used);
            counters.add(EventKind::CyclesOnCpu, used);
            counters.add(EventKind::VirtualProgress, speed * used);
            if t.progress_us >= t.work_us {
                t.state = ThreadState::Finished;
                t.finished_at = Some(self.now + used.ceil() as u64);
                any_thread_finished = true;
            }
        }

        // Cache dynamics.
        self.cache.advance(&s.placement, dt_f);

        // Bus accounting (actual issued traffic: cache/SMT factors,
        // barrier clamps, and mid-tick completions all reduce what the
        // arbiter granted — the machine-level total must match the
        // per-thread counters exactly).
        stats.bus.total_transactions += issued_this_tick;
        let total = &outcome.total;
        stats.bus.total_demanded += total.demand * dt_f;
        stats.bus.utilization_integral += total.utilization * dt_f;
        if total.saturated {
            stats.bus.saturated_us += dt_f;
        }
        if total.dilation > stats.bus.peak_dilation {
            stats.bus.peak_dilation = total.dilation;
        }
        self.dilation_integral += total.dilation.max(1.0) * dt_f;

        // Per-level topology accounting. A one-socket bus reports no
        // levels, so the paper machine's stats (and run codec) carry
        // none. The snapshot is copied out of the bus first; levels
        // beyond the array cap fold into the last slot.
        let mut level_buf = [LevelOutcome::default(); MAX_BUS_LEVELS];
        let mut n_levels = 0usize;
        for (k, l) in self.bus.levels().iter().enumerate() {
            let slot = k.min(MAX_BUS_LEVELS - 1);
            let b = &mut level_buf[slot];
            b.demand += l.demand;
            b.issued += l.issued;
            b.effective_capacity += l.effective_capacity;
            b.utilization = b.utilization.max(l.utilization);
            b.dilation = b.dilation.max(l.dilation);
            b.saturated |= l.saturated;
            n_levels = slot + 1;
        }
        if n_levels > 0 {
            stats.n_levels = n_levels;
            for (k, l) in level_buf[..n_levels].iter().enumerate() {
                let st = &mut stats.levels[k];
                st.total_issued += l.issued * dt_f;
                st.total_demanded += l.demand * dt_f;
                st.utilization_integral += l.utilization * dt_f;
                if l.saturated {
                    st.saturated_us += dt_f;
                }
                if l.dilation > st.peak_dilation {
                    st.peak_dilation = l.dilation;
                }
                if trace_on && l.saturated != self.traced_level_sat[k] {
                    // Edge-triggered, like `BusSolve`: one event per
                    // entry into saturation keeps trace volume bounded.
                    self.traced_level_sat[k] = l.saturated;
                    if l.saturated {
                        self.tracer.emit(TraceEvent::LevelSaturated {
                            at_us: tick_started_at,
                            level: k as u64,
                            utilization: l.utilization,
                            dilation: l.dilation,
                        });
                    }
                }
            }
        }

        if let Some(h) = hook {
            let tt = self.prof.begin();
            h.on_tick(tick_started_at, dt, issued_this_tick, bus_capacity);
            if n_levels > 0 {
                h.on_levels(tick_started_at, dt, &level_buf[..n_levels]);
            }
            self.prof.end(Phase::Trace, tt);
        }

        self.now += dt;

        // App completion.
        let mut any_app_finished = false;
        if any_thread_finished {
            // A finished thread leaves its cpu: the plan is stale.
            self.replan = true;
            for (i, rec) in self.apps.iter_mut().enumerate() {
                if rec.finished_at.is_none()
                    && rec
                        .threads
                        .iter()
                        .all(|t| self.threads[t.0 as usize].state == ThreadState::Finished)
                {
                    let finish = rec
                        .threads
                        .iter()
                        .filter_map(|t| self.threads[t.0 as usize].finished_at)
                        .max()
                        .unwrap_or(self.now);
                    rec.finished_at = Some(finish);
                    any_app_finished = true;
                    if trace_on {
                        self.tracer.emit(TraceEvent::AppFinished {
                            at_us: finish,
                            app: i as u64,
                            turnaround_us: finish - rec.arrived_at,
                        });
                    }
                }
            }
        }
        self.prof.end(Phase::Commit, commit_tok);
        any_app_finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::XEON_4WAY;
    use crate::demand::ConstantDemand;

    /// Run every runnable thread on the lowest free cpu, forever.
    #[derive(Clone)]
    struct GreedyScheduler {
        quantum: u64,
    }

    impl Scheduler for GreedyScheduler {
        fn schedule(&mut self, view: &MachineView<'_>) -> Decision {
            let mut assignments = Vec::new();
            let mut cpu = 0;
            for t in view.threads() {
                if t.is_runnable() && cpu < view.num_cpus {
                    assignments.push(Assignment {
                        thread: t.id,
                        cpu: CpuId(cpu),
                    });
                    cpu += 1;
                }
            }
            Decision {
                assignments,
                next_resched_in_us: self.quantum,
                sample_period_us: None,
            }
        }
        fn name(&self) -> &str {
            "greedy"
        }
    }

    fn light_thread(work_us: f64) -> ThreadSpec {
        ThreadSpec::new(work_us, Box::new(ConstantDemand::new(0.1, 0.05)))
    }

    #[test]
    fn single_light_app_finishes_in_about_its_work_time() {
        let mut m = Machine::new(XEON_4WAY);
        let app = m.add_app(AppDescriptor::new("solo", vec![light_thread(100_000.0)]));
        let mut s = GreedyScheduler { quantum: 200_000 };
        let out = m.run(&mut s, StopCondition::AppsFinished(vec![app]));
        assert!(out.condition_met);
        let t = m.turnaround_us(app).unwrap();
        // Light demand, alone: negligible dilation.
        assert!((100_000..=103_000).contains(&t), "turnaround {t}");
    }

    #[test]
    fn unassigned_threads_make_no_progress() {
        let mut m = Machine::new(XEON_4WAY);
        let app = m.add_app(AppDescriptor::new("idle", vec![light_thread(1000.0)]));
        struct NullSched;
        impl Scheduler for NullSched {
            fn schedule(&mut self, _v: &MachineView<'_>) -> Decision {
                Decision::idle(100_000)
            }
        }
        let out = m.run(&mut NullSched, StopCondition::At(500_000));
        assert!(out.condition_met);
        assert!(m.turnaround_us(app).is_none());
        let v = m.view();
        let ti = v.thread(ThreadId(0)).unwrap();
        assert_eq!(ti.progress_us, 0.0);
    }

    #[test]
    fn two_streamers_on_shared_bus_slow_down() {
        let mut m = Machine::new(XEON_4WAY);
        let mk = || {
            AppDescriptor::new(
                "stream",
                vec![ThreadSpec::new(
                    500_000.0,
                    Box::new(ConstantDemand::new(23.6, 0.98)),
                )],
            )
        };
        let a = m.add_app(mk());
        let b = m.add_app(mk());
        let mut s = GreedyScheduler { quantum: 200_000 };
        let out = m.run(&mut s, StopCondition::AppsFinished(vec![a, b]));
        assert!(out.condition_met);
        let ta = m.turnaround_us(a).unwrap() as f64;
        // Two 23.6 tx/µs streamers on a ~28.6 effective bus: each gets
        // about half, so ~1.65× dilation expected.
        assert!(ta > 700_000.0, "turnaround {ta}");
        assert!(out.stats.saturated_fraction() > 0.9);
    }

    #[test]
    fn counters_track_issued_traffic() {
        let mut m = Machine::new(XEON_4WAY);
        let app = m.add_app(AppDescriptor::new(
            "counted",
            vec![ThreadSpec::new(
                100_000.0,
                Box::new(ConstantDemand::new(5.0, 0.5)),
            )],
        ));
        let mut s = GreedyScheduler { quantum: 200_000 };
        m.run(&mut s, StopCondition::AppsFinished(vec![app]));
        let tx = m.app_transactions(app);
        // 5 tx/µs × ~100k µs ≈ 500k transactions, plus cache-cold refill
        // traffic early in the run (≈ 0.6 boost decaying over the 20 ms
        // warm-up constant ≈ +60k).
        assert!((450_000.0..620_000.0).contains(&tx), "tx {tx}");
    }

    #[test]
    fn app_finish_triggers_immediate_reschedule() {
        let mut m = Machine::new(XEON_4WAY);
        let short = m.add_app(AppDescriptor::new("short", vec![light_thread(10_000.0)]));
        let long = m.add_app(AppDescriptor::new("long", vec![light_thread(300_000.0)]));
        let mut s = GreedyScheduler { quantum: 1_000_000 }; // huge quantum
        let out = m.run(&mut s, StopCondition::AppsFinished(vec![short, long]));
        assert!(out.condition_met);
        // Despite the 1 s quantum, the machine rescheduled when `short`
        // finished, so more than one schedule call happened.
        assert!(out.stats.schedule_calls >= 2);
        let t = m.turnaround_us(long).unwrap();
        assert!(t < 320_000, "long turnaround {t}");
    }

    #[test]
    fn hard_cap_stops_unfinishable_runs() {
        let mut m = Machine::new(XEON_4WAY);
        let forever = m.add_app(AppDescriptor::new(
            "forever",
            vec![ThreadSpec::new(
                f64::INFINITY,
                Box::new(ConstantDemand::new(1.0, 0.5)),
            )],
        ));
        m.set_hard_cap_us(1_000_000);
        let mut s = GreedyScheduler { quantum: 100_000 };
        let out = m.run(&mut s, StopCondition::AppsFinished(vec![forever]));
        assert!(!out.condition_met);
        assert_eq!(out.stopped_at, 1_000_000);
    }

    #[test]
    fn all_finite_apps_stop_condition_ignores_infinite_apps() {
        let mut m = Machine::new(XEON_4WAY);
        let _inf = m.add_app(AppDescriptor::new(
            "micro",
            vec![ThreadSpec::new(
                f64::INFINITY,
                Box::new(ConstantDemand::new(0.1, 0.1)),
            )],
        ));
        let fin = m.add_app(AppDescriptor::new("fin", vec![light_thread(50_000.0)]));
        let mut s = GreedyScheduler { quantum: 100_000 };
        let out = m.run(&mut s, StopCondition::AllFiniteAppsFinished);
        assert!(out.condition_met);
        assert!(m.turnaround_us(fin).is_some());
    }

    #[test]
    fn sampling_callbacks_fire_at_requested_period() {
        struct SamplingSched {
            samples: u64,
        }
        impl Scheduler for SamplingSched {
            fn schedule(&mut self, _v: &MachineView<'_>) -> Decision {
                Decision {
                    assignments: vec![],
                    next_resched_in_us: 200_000,
                    sample_period_us: Some(100_000),
                }
            }
            fn on_sample(&mut self, _v: &MachineView<'_>) {
                self.samples += 1;
            }
        }
        let mut m = Machine::new(XEON_4WAY);
        let mut s = SamplingSched { samples: 0 };
        let out = m.run(&mut s, StopCondition::At(1_000_000));
        assert!(out.condition_met);
        // 2 samples per 200 ms quantum over 1 s ≈ 10 (boundary effects ±1).
        assert!((8..=11).contains(&s.samples), "samples {}", s.samples);
        assert_eq!(out.stats.sample_calls, s.samples);
    }

    #[test]
    #[should_panic(expected = "two threads assigned")]
    fn double_cpu_assignment_panics() {
        let mut m = Machine::new(XEON_4WAY);
        m.add_app(AppDescriptor::new(
            "a",
            vec![light_thread(1000.0), light_thread(1000.0)],
        ));
        struct BadSched;
        impl Scheduler for BadSched {
            fn schedule(&mut self, _v: &MachineView<'_>) -> Decision {
                Decision {
                    assignments: vec![
                        Assignment {
                            thread: ThreadId(0),
                            cpu: CpuId(0),
                        },
                        Assignment {
                            thread: ThreadId(1),
                            cpu: CpuId(0),
                        },
                    ],
                    next_resched_in_us: 1000,
                    sample_period_us: None,
                }
            }
        }
        m.run(&mut BadSched, StopCondition::At(1000));
    }

    #[test]
    fn cold_placements_are_counted() {
        let mut m = Machine::new(XEON_4WAY);
        m.add_app(AppDescriptor::new(
            "a",
            vec![light_thread(400_000.0), light_thread(400_000.0)],
        ));
        // Swap the two threads between cpu0 and cpu1 every 5 ms: each stint
        // is too short to warm up (τ_build = 20 ms) and each thread evicts
        // the other's state, so every placement stays cold.
        struct Swapper {
            flip: bool,
        }
        impl Scheduler for Swapper {
            fn schedule(&mut self, view: &MachineView<'_>) -> Decision {
                self.flip = !self.flip;
                let ts: Vec<_> = view.threads().filter(|t| t.is_runnable()).collect();
                let assignments = ts
                    .iter()
                    .enumerate()
                    .map(|(i, t)| Assignment {
                        thread: t.id,
                        cpu: CpuId((i + self.flip as usize) % 2),
                    })
                    .collect();
                Decision {
                    assignments,
                    next_resched_in_us: 5_000,
                    sample_period_us: None,
                }
            }
        }
        let out = m.run(&mut Swapper { flip: false }, StopCondition::At(100_000));
        assert!(out.condition_met);
        assert!(
            out.stats.cold_placement_fraction() > 0.8,
            "cold fraction {}",
            out.stats.cold_placement_fraction()
        );
        let cold = m.registry().total(ThreadId(0).key(), EventKind::ColdStarts);
        assert!(cold >= 10.0, "cold starts {cold}");
    }

    #[test]
    fn tick_coarsening_reduces_tick_count_for_static_runs() {
        // A solo constant-demand thread warms its cache in ~276 ms (the
        // point where warmth snaps to exactly 1.0); from then on every
        // tick's inputs are static and the loop jumps in near-quantum
        // strides. 1 s of work at 100 µs ticks would be 10 000 fine
        // ticks; coarsening must cut that well below half.
        let mut m = Machine::new(XEON_4WAY);
        let app = m.add_app(AppDescriptor::new("solo", vec![light_thread(1_000_000.0)]));
        let mut s = GreedyScheduler { quantum: 200_000 };
        let out = m.run(&mut s, StopCondition::AppsFinished(vec![app]));
        assert!(out.condition_met);
        let t = m.turnaround_us(app).unwrap();
        assert!((1_000_000..=1_030_000).contains(&t), "turnaround {t}");
        assert!(
            out.stats.ticks < 5_000,
            "expected coarsened run, got {} ticks",
            out.stats.ticks
        );
    }

    #[test]
    fn trace_events_cover_placements_coarsening_and_completion() {
        let mut m = Machine::new(XEON_4WAY);
        let (bus, handle) = busbw_trace::EventBus::memory();
        m.set_tracer(bus);
        let app = m.add_app(AppDescriptor::new("solo", vec![light_thread(300_000.0)]));
        let mut s = GreedyScheduler { quantum: 100_000 };
        let out = m.run(&mut s, StopCondition::AppsFinished(vec![app]));
        assert!(out.condition_met);
        let events = handle.events();
        let count = |kind: &str| events.iter().filter(|e| e.kind() == kind).count();
        // Every placement recorded in stats has a matching event.
        assert_eq!(count("placement") as u64, out.stats.placements);
        // The first demand observation registers as a phase edge.
        assert_eq!(count("phase_edge"), 1);
        // A constant-demand solo run coarsens after cache warm-up.
        assert!(count("coarse_jump") > 0, "no coarse jumps traced");
        // Exactly one app finished.
        assert_eq!(count("app_finished"), 1);
        let fin = events
            .iter()
            .find(|e| e.kind() == "app_finished")
            .expect("app_finished present");
        if let busbw_trace::TraceEvent::AppFinished { turnaround_us, .. } = fin {
            assert_eq!(*turnaround_us, m.turnaround_us(app).unwrap());
        }
        // Histogram totals match iteration count.
        assert_eq!(out.stats.tick_dt_hist.total(), out.stats.ticks);
        // Events arrive in nondecreasing simulated-time order.
        assert!(events.windows(2).all(|w| w[0].at_us() <= w[1].at_us()));
    }

    #[test]
    fn placement_events_record_every_decision_at_its_time() {
        // Alternates two single-thread apps on cpu0 each 100 ms quantum.
        struct Alternator {
            flip: bool,
        }
        impl Scheduler for Alternator {
            fn schedule(&mut self, _v: &MachineView<'_>) -> Decision {
                self.flip = !self.flip;
                Decision {
                    assignments: vec![Assignment {
                        thread: ThreadId(u64::from(self.flip)),
                        cpu: CpuId(0),
                    }],
                    next_resched_in_us: 100_000,
                    sample_period_us: None,
                }
            }
        }
        let mut m = Machine::new(XEON_4WAY);
        for name in ["first", "second"] {
            m.add_app(AppDescriptor::new(
                name,
                vec![ThreadSpec::new(
                    f64::INFINITY,
                    Box::new(ConstantDemand::new(0.5, 0.1)),
                )],
            ));
        }
        let (bus, handle) = busbw_trace::EventBus::memory();
        m.set_tracer(bus);
        m.run(
            &mut Alternator { flip: false },
            StopCondition::At(1_000_000),
        );
        // One placement per decision, stamped with the decision's time:
        // grouping the stream by `at_us` recovers the decision sequence
        // (the timeline example's Gantt chart relies on this).
        let placed: Vec<(u64, usize, u64)> = handle
            .events()
            .into_iter()
            .filter_map(|e| match e {
                busbw_trace::TraceEvent::Placement {
                    at_us, cpu, app, ..
                } => Some((at_us, cpu, app)),
                _ => None,
            })
            .collect();
        let expected: Vec<(u64, usize, u64)> =
            (0..10).map(|q| (q * 100_000, 0, 1 - q % 2)).collect();
        assert_eq!(placed, expected);
    }

    #[test]
    fn detached_tracer_emits_nothing_and_changes_nothing() {
        let run = |traced: bool| {
            let mut m = Machine::new(XEON_4WAY);
            if traced {
                m.set_tracer(busbw_trace::EventBus::new(Box::new(busbw_trace::NullSink)));
            }
            let app = m.add_app(AppDescriptor::new("solo", vec![light_thread(200_000.0)]));
            let mut s = GreedyScheduler { quantum: 100_000 };
            m.run(&mut s, StopCondition::AppsFinished(vec![app]));
            m.turnaround_us(app).unwrap()
        };
        // Tracing must not perturb the simulation.
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn coarsened_run_matches_fine_grained_turnaround() {
        // Same scenario with coarsening implicitly disabled by a bursty
        // wall-clock horizon would diverge; instead compare against the
        // nominal analytic expectation: solo light demand ⇒ speed ≈ 1.0
        // after warm-up, so progress accounting across coarse jumps must
        // agree with fine ticks to within the cold-start transient.
        let mut m = Machine::new(XEON_4WAY);
        let app = m.add_app(AppDescriptor::new("solo", vec![light_thread(500_000.0)]));
        // 1 ms quanta: dt_limit ≤ 10 ticks, so jumps are small but the
        // grid phase must still line up with quantum boundaries exactly.
        let mut s = GreedyScheduler { quantum: 1_000 };
        let out = m.run(&mut s, StopCondition::AppsFinished(vec![app]));
        assert!(out.condition_met);
        let t = m.turnaround_us(app).unwrap();
        assert!((500_000..=515_000).contains(&t), "turnaround {t}");
    }

    /// Virtual-time two-phase square wave with honest horizons.
    #[derive(Clone)]
    struct TwoPhase;
    impl crate::demand::DemandModel for TwoPhase {
        fn demand_at(&mut self, vt_us: f64, _wall_us: u64) -> crate::demand::Demand {
            if vt_us.rem_euclid(40_000.0) < 25_000.0 {
                crate::demand::Demand::new(20.0, 0.9)
            } else {
                crate::demand::Demand::new(1.0, 0.1)
            }
        }
        fn mean_rate(&self) -> f64 {
            (20.0 * 25_000.0 + 1.0 * 15_000.0) / 40_000.0
        }
        fn constant_for(&self, vt_us: f64, _wall_us: u64) -> (f64, f64) {
            let pos = vt_us.rem_euclid(40_000.0);
            let h = if pos < 25_000.0 {
                25_000.0 - pos
            } else {
                40_000.0 - pos
            };
            (h, f64::INFINITY)
        }
    }

    /// Wall-clock square wave with exact integer switch edges.
    #[derive(Clone)]
    struct WallSquare;
    impl crate::demand::DemandModel for WallSquare {
        fn demand_at(&mut self, _vt_us: f64, wall_us: u64) -> crate::demand::Demand {
            if (wall_us / 30_000).is_multiple_of(2) {
                crate::demand::Demand::new(15.0, 0.8)
            } else {
                crate::demand::Demand::new(2.0, 0.2)
            }
        }
        fn mean_rate(&self) -> f64 {
            8.5
        }
        fn constant_for(&self, _vt_us: f64, wall_us: u64) -> (f64, f64) {
            (f64::INFINITY, (30_000 - wall_us % 30_000) as f64)
        }
    }

    /// A mix exercising every demand-cache edge: virtual-time phase edges,
    /// wall-clock switches, a barrier gang that spins, saturated and
    /// unsaturated bus regimes, cache warm-up and coarsened jumps.
    fn mixed_machine() -> Machine {
        mixed_machine_with(XEON_4WAY)
    }

    fn mixed_machine_with(cfg: crate::config::MachineConfig) -> Machine {
        let mut m = Machine::new(cfg);
        m.add_app(AppDescriptor::new(
            "phase",
            vec![ThreadSpec::new(900_000.0, Box::new(TwoPhase))],
        ));
        m.add_app(AppDescriptor::new(
            "wall",
            vec![ThreadSpec::new(900_000.0, Box::new(WallSquare))],
        ));
        let mut gang = AppDescriptor::new(
            "gang",
            vec![
                ThreadSpec::new(700_000.0, Box::new(ConstantDemand::new(6.0, 0.9))),
                ThreadSpec::new(700_000.0, Box::new(ConstantDemand::new(6.0, 0.1))),
            ],
        );
        gang.barrier_interval_us = Some(5_000.0);
        m.add_app(gang);
        m
    }

    #[test]
    fn event_driven_and_per_tick_runs_are_bit_identical() {
        let run = |exec: ExecMode| {
            let mut m = mixed_machine();
            m.set_exec_mode(exec);
            let mut s = GreedyScheduler { quantum: 30_000 };
            let out = m.run(&mut s, StopCondition::At(1_500_000));
            let progress: Vec<u64> = m
                .view()
                .threads()
                .map(|t| t.progress_us.to_bits())
                .collect();
            // Debug formatting of f64 round-trips the exact value, so a
            // string compare of the stats is a bit compare.
            (format!("{out:?}"), progress, m.bus_memo_stats())
        };
        let ed = run(ExecMode::EventDriven);
        let pt = run(ExecMode::PerTick);
        assert_eq!(ed.0, pt.0, "run stats diverged between exec modes");
        assert_eq!(ed.1, pt.1, "thread progress diverged between exec modes");
        assert_eq!(ed.2, pt.2, "bus memo behaviour diverged between exec modes");
    }

    /// Two sockets of four cpus each over the paper's bus parameters.
    fn two_socket_cfg() -> crate::config::MachineConfig {
        crate::config::MachineConfig {
            num_cpus: 8,
            topology: crate::config::TopologyConfig::multi(2),
            ..XEON_4WAY
        }
    }

    #[test]
    fn single_socket_machine_reports_no_levels() {
        let m = Machine::new(XEON_4WAY);
        let v = m.view();
        assert_eq!(v.sockets, 1);
        assert_eq!(v.cpus_per_socket, 4);
        assert_eq!(v.socket_of(CpuId(3)), 0);
        assert!(v.bus_levels.is_empty());
    }

    #[test]
    fn multi_socket_machine_populates_level_stats() {
        let mut m = Machine::new(two_socket_cfg());
        for _ in 0..4 {
            m.add_app(AppDescriptor::new(
                "stream",
                vec![ThreadSpec::new(
                    300_000.0,
                    Box::new(ConstantDemand::new(12.0, 0.9)),
                )],
            ));
        }
        {
            let v = m.view();
            assert_eq!(v.sockets, 2);
            assert_eq!(v.cpus_per_socket, 4);
            assert_eq!(v.socket_of(CpuId(5)), 1);
        }
        let mut s = GreedyScheduler { quantum: 100_000 };
        let out = m.run(&mut s, StopCondition::AllFiniteAppsFinished);
        assert!(out.condition_met);
        // Sockets 0 and 1 plus the interconnect.
        assert_eq!(out.stats.n_levels, 3);
        // Greedy packs all four streamers onto socket 0: 48 tx/µs of
        // demand against a ~26 tx/µs local bus saturates it, while
        // socket 1's bus sees nothing. The interconnect carries the
        // coherence share (25%) of everything, staying clear.
        assert!(out.stats.levels[0].saturated_us > 0.0);
        assert_eq!(out.stats.levels[1].total_demanded, 0.0);
        assert!(out.stats.levels[2].total_demanded > 0.0);
        assert_eq!(out.stats.levels[2].saturated_us, 0.0);
        assert!(out.stats.levels[0].peak_dilation > 1.0);
        let elapsed = out.stats.elapsed_us;
        assert!(out.stats.levels[0].mean_utilization(elapsed) > 0.5);
        // The post-run view exposes the last arbitration's levels.
        assert_eq!(m.view().bus_levels.len(), 3);
    }

    #[test]
    fn migration_off_home_socket_charges_full_interconnect_traffic() {
        // One streamer homed on socket 0 (first touch at cpu 0), then
        // migrated to socket 1 halfway: all its traffic must cross the
        // interconnect after the move, not just the coherence share.
        struct MigrateAt {
            at: SimTime,
        }
        impl Scheduler for MigrateAt {
            fn schedule(&mut self, view: &MachineView<'_>) -> Decision {
                let cpu = if view.now >= self.at {
                    CpuId(4)
                } else {
                    CpuId(0)
                };
                let assignments = view
                    .threads()
                    .filter(|t| t.is_runnable())
                    .map(|t| Assignment { thread: t.id, cpu })
                    .collect();
                Decision {
                    assignments,
                    next_resched_in_us: 50_000,
                    sample_period_us: None,
                }
            }
        }
        let mut m = Machine::new(two_socket_cfg());
        m.add_app(AppDescriptor::new(
            "roam",
            vec![ThreadSpec::new(
                f64::INFINITY,
                Box::new(ConstantDemand::new(10.0, 0.9)),
            )],
        ));
        let out = m.run(&mut MigrateAt { at: 200_000 }, StopCondition::At(400_000));
        assert!(out.condition_met);
        assert_eq!(m.view().home_socket(ThreadId(0)), Some(0));
        let local = out.stats.levels[0].total_demanded + out.stats.levels[1].total_demanded;
        let inter = out.stats.levels[2].total_demanded;
        // Half the run at the 25% coherence share, half at 100% remote:
        // the interconnect carries ≈ 62.5% of the local demand — far
        // above the never-migrated 25%.
        assert!(inter > 0.5 * local, "interconnect {inter} vs local {local}");
        assert!(out.stats.levels[1].total_demanded > 0.0);
    }

    #[test]
    fn zero_demand_gang_stays_homeless_and_off_the_interconnect() {
        // A zero-demand gang placed on a remote socket, next to a thread
        // that is never placed at all: the never-placed thread keeps
        // `home_socket = None` (first touch never happens), the homeless
        // fallback charges the current socket (remote share 0), and no
        // bus level sees any traffic.
        struct PinFirst;
        impl Scheduler for PinFirst {
            fn schedule(&mut self, _view: &MachineView<'_>) -> Decision {
                Decision {
                    assignments: vec![Assignment {
                        thread: ThreadId(0),
                        cpu: CpuId(4),
                    }],
                    next_resched_in_us: 50_000,
                    sample_period_us: None,
                }
            }
        }
        let mut m = Machine::new(two_socket_cfg());
        m.add_app(AppDescriptor::new(
            "idle",
            vec![ThreadSpec::new(
                f64::INFINITY,
                Box::new(ConstantDemand::new(0.0, 0.9)),
            )],
        ));
        m.add_app(AppDescriptor::new(
            "benched",
            vec![ThreadSpec::new(
                f64::INFINITY,
                Box::new(ConstantDemand::new(0.0, 0.9)),
            )],
        ));
        let out = m.run(&mut PinFirst, StopCondition::At(400_000));
        assert!(out.condition_met);
        assert_eq!(m.view().home_socket(ThreadId(0)), Some(1));
        assert_eq!(m.view().home_socket(ThreadId(1)), None);
        for (k, level) in out.stats.levels.iter().enumerate() {
            assert_eq!(level.total_demanded, 0.0, "level {k} saw traffic");
            assert_eq!(level.total_issued, 0.0, "level {k} issued traffic");
        }
    }

    #[test]
    fn multi_socket_exec_modes_are_bit_identical() {
        let run = |exec: ExecMode| {
            let mut m = mixed_machine_with(two_socket_cfg());
            m.set_exec_mode(exec);
            let mut s = GreedyScheduler { quantum: 30_000 };
            let out = m.run(&mut s, StopCondition::At(1_500_000));
            let progress: Vec<u64> = m
                .view()
                .threads()
                .map(|t| t.progress_us.to_bits())
                .collect();
            (format!("{out:?}"), progress, m.bus_memo_stats())
        };
        let ed = run(ExecMode::EventDriven);
        let pt = run(ExecMode::PerTick);
        assert_eq!(ed.0, pt.0, "run stats diverged between exec modes");
        assert_eq!(ed.1, pt.1, "thread progress diverged between exec modes");
        assert_eq!(ed.2, pt.2, "bus memo behaviour diverged between exec modes");
    }

    /// Drive a stepped run to completion, cloning machine and cursor at
    /// the `fork_at`-th scheduling point (before its decision applies).
    fn drive(
        m: &mut Machine,
        cur: &mut RunCursor,
        s: &mut dyn Scheduler,
        fork_at: Option<u64>,
    ) -> (RunOutcome, Option<(Machine, RunCursor)>) {
        let (mut decisions, mut fork) = (0, None);
        loop {
            match m.run_step(cur, None) {
                StepEvent::Sample => s.on_sample(&m.view()),
                StepEvent::Schedule => {
                    decisions += 1;
                    if Some(decisions) == fork_at {
                        fork = Some((m.clone(), cur.clone()));
                    }
                    let d = s.schedule(&m.view());
                    m.run_decide(cur, &d);
                }
                StepEvent::Done(out) => return (out, fork),
            }
        }
    }

    #[test]
    fn forked_machine_continues_bit_identically() {
        // A fork taken mid-run (placement plan, demand caches, bus memo,
        // warm caches,
        // barrier state and all) must finish exactly as the original does,
        // on one socket and on the hierarchical bus.
        for cfg in [XEON_4WAY, two_socket_cfg()] {
            let fingerprint = |m: &Machine, out: &RunOutcome| {
                let progress: Vec<u64> = m
                    .view()
                    .threads()
                    .map(|t| t.progress_us.to_bits())
                    .collect();
                (format!("{out:?}"), progress, m.bus_memo_stats())
            };
            let stop = StopCondition::At(1_500_000);
            let mut m = mixed_machine_with(cfg);
            let mut cur = m.run_begin(stop.clone());
            let mut s = GreedyScheduler { quantum: 30_000 };
            let (out, fork) = drive(&mut m, &mut cur, &mut s, Some(7));
            let (mut fm, mut fcur) = fork.expect("the run reaches seven decisions");
            // The fork sits at the scheduling point: answer it first.
            let mut fs = s.clone();
            let d = fs.schedule(&fm.view());
            fm.run_decide(&mut fcur, &d);
            let (fout, _) = drive(&mut fm, &mut fcur, &mut fs, None);
            assert_eq!(fingerprint(&m, &out), fingerprint(&fm, &fout));
            // And both equal the one-call run.
            let mut plain = mixed_machine_with(cfg);
            let pout = plain.run(&mut GreedyScheduler { quantum: 30_000 }, stop);
            assert_eq!(fingerprint(&m, &out), fingerprint(&plain, &pout));
        }
    }

    #[test]
    #[should_panic(expected = "before the pending decision was applied")]
    fn stepping_past_an_unanswered_scheduling_point_panics() {
        let mut m = mixed_machine();
        let mut cur = m.run_begin(StopCondition::At(100_000));
        assert!(matches!(m.run_step(&mut cur, None), StepEvent::Schedule));
        m.run_step(&mut cur, None);
    }

    #[test]
    fn replay_fast_path_actually_engages() {
        // The fast path is the request build served from the placement
        // plan and the demand caches alone. 2-tick quanta: each reschedule
        // rebuilds the plan, so at most half the ticks can be served;
        // anything near that means the caches held across steady regions.
        let mut m = mixed_machine();
        let mut s = GreedyScheduler { quantum: 200 };
        let out = m.run(&mut s, StopCondition::At(400_000));
        assert!(
            m.cached_ticks() * 5 >= out.stats.ticks * 2,
            "cache served {} of {} ticks",
            m.cached_ticks(),
            out.stats.ticks
        );
        // And never in the per-tick mode.
        let mut m2 = mixed_machine();
        m2.set_exec_mode(ExecMode::PerTick);
        m2.run(
            &mut GreedyScheduler { quantum: 200 },
            StopCondition::At(400_000),
        );
        assert_eq!(m2.cached_ticks(), 0);
    }

    #[test]
    fn exec_modes_emit_identical_trace_streams() {
        // Phase edges are emitted when a demand query observes a new
        // value, so the event-driven build, which queries only at cache
        // edges, must emit exactly the per-tick stream. Attaching the
        // tracer mid-run restarts edge detection: every cached demand has
        // to be re-observed.
        let stream = |exec: ExecMode, attach_at: SimTime| {
            let mut m = mixed_machine();
            m.set_exec_mode(exec);
            let mut s = GreedyScheduler { quantum: 30_000 };
            if attach_at > 0 {
                m.run(&mut s, StopCondition::At(attach_at));
            }
            let (bus, handle) = busbw_trace::EventBus::memory();
            m.set_tracer(bus);
            m.run(&mut s, StopCondition::At(1_500_000));
            handle
                .events()
                .iter()
                .map(|e| e.to_json())
                .collect::<Vec<_>>()
        };
        for attach_at in [0, 412_345] {
            let ed = stream(ExecMode::EventDriven, attach_at);
            let pt = stream(ExecMode::PerTick, attach_at);
            assert!(
                ed.iter().any(|e| e.contains("phase_edge")),
                "no phase edges traced (attached at {attach_at})"
            );
            assert_eq!(ed, pt, "trace streams diverged (attached at {attach_at})");
        }
    }
}
