//! Shared experiment mechanics: build a workload, pick a policy, run it,
//! and collect the turnarounds of the measured application instances.
//!
//! Independent (workload, policy) points are embarrassingly parallel:
//! every run builds its own machine and its own seeded RNGs, so
//! [`crate::pool::map`] fans them out over OS threads with results
//! bit-identical to a serial sweep.

use std::borrow::Cow;

use busbw_core::estimator::{LatestQuantumEstimator, QuantaWindowEstimator};
use busbw_core::model::ModelDrivenScheduler;
use busbw_core::{
    bus_aware, bus_aware_with_config, greedy_pack, linux_like, linux_o1, random_gang,
    round_robin_gang, OracleReport, PolicyConfig,
};
use busbw_managerd::turnaround_bounds;
use busbw_metrics::Histogram;
use busbw_sim::{MachineConfig, Scheduler, StageTimings, StopCondition, TickDtHist, XEON_4WAY};
use busbw_trace::wire::{Dec, Enc, Wire};
use busbw_trace::{wire_struct, EventBus, MemoryHandle, NullSink, TraceEvent};
use busbw_workloads::mix::{build_machine, fig1_solo, WorkloadSpec};
use busbw_workloads::paper::PaperApp;

/// Which scheduler drives a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyKind {
    /// The Linux 2.4-like baseline (100 ms time sharing with affinity).
    Linux,
    /// The paper's 'Latest Quantum' policy.
    Latest,
    /// The paper's 'Quanta Window' policy (5-sample window).
    Window,
    /// Quanta Window with a custom window length (ablation).
    WindowN(usize),
    /// Latest Quantum with a custom quantum length in µs (ablation).
    LatestWithQuantum(u64),
    /// Gang + rotation, no fitness (ablation).
    RoundRobinGang,
    /// Gang + random fill (ablation; seeded).
    RandomGang(u64),
    /// Gang + "maximize measured bandwidth" fill (ablation strawman).
    GreedyPack,
    /// The Linux 2.6 O(1)-class baseline (per-cpu runqueues,
    /// active/expired arrays, load balancing).
    LinuxO1,
    /// The §6 future-work comparator: model-driven quantum optimization.
    ModelDriven,
    /// An arbitrary four-stage stack composed from the CLI
    /// (`--policy estimator=…,selector=…,placer=…`) or the stage ablation.
    Stack(crate::policy::StackSpec),
    /// The offline-optimal oracle (`busbw_core::oracle::offline_optimal`).
    /// Not a live scheduler: `build()` yields an empty-plan replayer that
    /// idles — real oracle runs go through `crate::regret::oracle_run`,
    /// which searches for the optimal plan first and replays it. The
    /// variant exists so oracle cells share the run-cache/job-graph
    /// plumbing of every other policy.
    OfflineOptimal,
}

impl PolicyKind {
    /// Display label used in figure series.
    pub fn label(&self) -> String {
        self.series_label().into_owned()
    }

    /// [`PolicyKind::label`] as a figure series label: a kind without
    /// parameters has a fixed name, which folds without allocating.
    pub(crate) fn series_label(&self) -> Cow<'static, str> {
        match self {
            PolicyKind::Linux => "Linux".into(),
            PolicyKind::Latest => "Latest".into(),
            PolicyKind::Window => "Window".into(),
            PolicyKind::WindowN(n) => format!("Window{n}").into(),
            PolicyKind::LatestWithQuantum(q) => format!("Latest@{}ms", q / 1000).into(),
            PolicyKind::RoundRobinGang => "RRGang".into(),
            PolicyKind::RandomGang(_) => "RandGang".into(),
            PolicyKind::GreedyPack => "Greedy".into(),
            PolicyKind::LinuxO1 => "LinuxO1".into(),
            PolicyKind::ModelDriven => "ModelDriven".into(),
            PolicyKind::Stack(spec) => spec.label().into(),
            PolicyKind::OfflineOptimal => "Oracle".into(),
        }
    }

    /// Instantiate the scheduler (a [`busbw_core::PolicyStack`] preset for
    /// every kind but the model-driven comparator).
    pub fn build(&self) -> Box<dyn Scheduler> {
        match *self {
            PolicyKind::Linux => Box::new(linux_like()),
            PolicyKind::Latest => Box::new(bus_aware(Box::new(LatestQuantumEstimator::new()))),
            PolicyKind::Window => Box::new(bus_aware(Box::new(QuantaWindowEstimator::new()))),
            PolicyKind::WindowN(n) => {
                Box::new(bus_aware(Box::new(QuantaWindowEstimator::with_window(n))))
            }
            PolicyKind::LatestWithQuantum(q) => Box::new(bus_aware_with_config(
                Box::new(LatestQuantumEstimator::new()),
                PolicyConfig {
                    quantum_us: q,
                    ..PolicyConfig::default()
                },
            )),
            PolicyKind::RoundRobinGang => Box::new(round_robin_gang()),
            PolicyKind::RandomGang(seed) => Box::new(random_gang(seed)),
            PolicyKind::GreedyPack => Box::new(greedy_pack()),
            PolicyKind::LinuxO1 => Box::new(linux_o1()),
            PolicyKind::ModelDriven => Box::new(ModelDrivenScheduler::new()),
            PolicyKind::Stack(spec) => Box::new(spec.build()),
            PolicyKind::OfflineOptimal => Box::new(busbw_core::FixedPlanScheduler::new(Vec::new())),
        }
    }
}

/// How a run's structured-trace bus is wired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// No tracer attached at all (the zero-cost default).
    #[default]
    Off,
    /// A [`NullSink`] tracer attached: exercises bus wiring (attach,
    /// flush) but the sink discards, so hot emission sites skip event
    /// construction entirely (see [`busbw_trace::EventBus::emits`]). The
    /// ledger benchmark's probes run with this attached-but-silent
    /// configuration.
    Null,
    /// An in-memory sink per run; events come back in
    /// [`RunResult::events`] for merging and serialization.
    Collect,
}

/// Experiment-wide knobs.
#[derive(Debug, Clone, Copy)]
pub struct RunnerConfig {
    /// The simulated machine (defaults to the paper's 4-way Xeon).
    pub machine: MachineConfig,
    /// Work-volume scale: 1.0 = the default 6 simulated seconds of solo
    /// work per application; smaller runs faster with the same shape.
    pub scale: f64,
    /// Seed for bursty demand models and randomized comparators.
    pub seed: u64,
    /// Worker threads for figure-level fan-out; 0 = one per available
    /// hardware thread. Results are bit-identical for any value — the
    /// setting only affects wall-clock time.
    pub workers: usize,
    /// Structured-trace wiring for every run (see [`TraceMode`]).
    pub trace: TraceMode,
    /// Hard-cap multiple of the scaled solo work volume after which a run
    /// is abandoned and reported as unfinished. 100 is far beyond any
    /// plausible schedule; tests shrink it to exercise the censored path.
    pub hard_cap_factor: f64,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        Self {
            machine: XEON_4WAY,
            scale: 1.0,
            seed: 42,
            workers: 0,
            trace: TraceMode::Off,
            hard_cap_factor: 100.0,
        }
    }
}

impl RunnerConfig {
    /// A configuration scaled for fast test runs.
    #[cfg(test)]
    pub(crate) fn quick() -> Self {
        Self {
            scale: 0.1,
            ..Self::default()
        }
    }
}

/// Smallest `--scale` accepted. Below it some figures' runs round to no
/// work at all: a solo baseline takes zero time, or a random mix hits its
/// hard cap.
pub(crate) const MIN_SCALE: f64 = 1e-3;

/// Largest `--scale` accepted: a full sweep at this multiple already runs
/// for days, and far beyond it the scaled horizons overflow their µs
/// counters.
pub(crate) const MAX_SCALE: f64 = 1e3;

/// Parse a `--scale` value: a work-volume multiple in
/// `MIN_SCALE`..=`MAX_SCALE`. Zero, negative, NaN and infinite scales
/// fall outside, so they are rejected here too.
pub fn parse_scale(s: &str) -> Result<f64, String> {
    match s.parse::<f64>() {
        Ok(v) if (MIN_SCALE..=MAX_SCALE).contains(&v) => Ok(v),
        _ => Err(format!(
            "bad scale `{s}` (a number from {MIN_SCALE} to {MAX_SCALE})"
        )),
    }
}

/// Effective worker count for `rc` (resolving 0 = auto).
pub fn effective_workers(rc: &RunnerConfig) -> usize {
    if rc.workers != 0 {
        rc.workers
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

wire_struct! {
    /// A measured application that had not finished when its run hit the
    /// hard cap.
    #[derive(Debug, Clone, PartialEq)]
    pub struct UnfinishedApp {
        /// Application name from the workload spec.
        pub name: String,
        /// Fraction of the app's finite work completed at the cap, in
        /// `[0, 1]` (0 when the app has no finite-work threads).
        pub progress_frac: f64,
    }
}

/// How a run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum RunCompletion {
    /// Every measured application instance finished.
    Finished,
    /// The hard cap fired first. Turnarounds of the listed apps are
    /// censored at the cap (reported as `stop_time − arrival`), which
    /// used to panic the whole parallel sweep instead.
    HardCap {
        /// The measured instances still running at the cap, spec order.
        unfinished: Vec<UnfinishedApp>,
    },
}

impl RunCompletion {
    /// True when every measured instance finished.
    pub(crate) fn is_finished(&self) -> bool {
        matches!(self, RunCompletion::Finished)
    }
}

/// Laid out as an `Option<Vec<UnfinishedApp>>`: `None` when finished.
impl Wire for RunCompletion {
    const MIN_BYTES: usize = 1;

    fn put(&self, e: &mut Enc) {
        e.opt(match self {
            RunCompletion::Finished => None,
            RunCompletion::HardCap { unfinished } => Some(unfinished),
        });
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, String> {
        Ok(match Option::get(d)? {
            None => RunCompletion::Finished,
            Some(unfinished) => RunCompletion::HardCap { unfinished },
        })
    }
}

wire_struct! {
    /// The result of one workload run. Its fields, in declaration order,
    /// are the run cache's payload layout ([`crate::cache::encode_result`]).
    #[derive(Debug, Clone)]
    pub struct RunResult {
        /// Turnaround (µs) of each measured application instance, spec order.
        /// Censored at the stop time for apps listed in an unfinished
        /// [`RunCompletion::HardCap`]. Empty for an open serve, whose
        /// turnarounds are in [`OpenStats::turnarounds`].
        pub turnarounds_us: Vec<f64>,
        /// Mean turnaround over the measured instances — the quantity whose
        /// improvement Fig. 2 reports.
        pub mean_turnaround_us: f64,
        /// Cumulative bus transaction rate over the run, tx/µs (whole
        /// workload) — Fig. 1A's quantity for the microbenchmark mixes.
        pub workload_rate: f64,
        /// Sum over measured apps of their individual transaction rates —
        /// Fig. 1A's quantity for the application-only configurations.
        pub measured_apps_rate: f64,
        /// Fraction of wall time the bus was saturated.
        pub saturated_fraction: f64,
        /// Tick-loop iterations the run executed (with event-driven tick
        /// coarsening this is typically far below `sim_elapsed_us / tick_us`).
        pub ticks: u64,
        /// Simulated wall time of the run, µs.
        pub sim_elapsed_us: u64,
        /// Whether the run finished or was censored at the hard cap.
        pub completion: RunCompletion,
        /// Structured trace of the run (empty unless
        /// [`RunnerConfig::trace`] is [`TraceMode::Collect`]).
        pub events: Vec<TraceEvent>,
        /// Histogram of nominal ticks covered per tick-loop iteration.
        pub tick_dt_hist: TickDtHist,
        /// Λ-solve memo hits of the bus, summed over its levels.
        pub memo_hits: u64,
        /// Λ-solve memo misses of the bus, summed over its levels.
        pub memo_misses: u64,
        /// Per-stage wall-time accounting when the policy is a pipeline stack
        /// (`None` for schedulers that expose no stage breakdown). Wall-clock
        /// derived: a cache hit replays the producing run's readings, and the
        /// manifest checksum excludes them.
        pub stage_timings: Option<StageTimings>,
        /// Open-system accounting when the run was an open managerd serve
        /// (`None` for the closed-batch workloads).
        pub open: Option<OpenStats>,
        /// Search accounting when the run replayed the offline-optimal
        /// oracle's plan (`None` for every other run).
        pub oracle: Option<OracleStats>,
        /// Number of bus levels the machine reported (0 = flat single bus;
        /// hierarchical topologies report one per socket plus the
        /// interconnect).
        pub n_levels: usize,
        /// Per-level mean utilization over the run (first `n_levels` slots).
        pub level_utilization: [f64; busbw_sim::MAX_BUS_LEVELS],
        /// Per-level fraction of wall time spent saturated (first `n_levels`
        /// slots).
        pub level_saturated: [f64; busbw_sim::MAX_BUS_LEVELS],
    }
}

wire_struct! {
    /// Accounting of one open-system managerd run (see `busbw_managerd`):
    /// how many clients arrived, were shed by overload admission control, or
    /// were served to completion, plus the manager's modeled overhead — the
    /// numbers behind the shed-rate and 4.5 %-bound columns of
    /// `experiments open`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct OpenStats {
        /// Clients the arrival process offered.
        pub arrived: u64,
        /// Clients rejected because the accept queue was full.
        pub shed: u64,
        /// Clients served to completion (departed before the horizon).
        pub served: u64,
        /// Virtual duration of the serve, µs.
        pub(crate) duration_us: u64,
        /// Modeled manager work (pump/sample/quantum bookkeeping), virtual µs.
        pub(crate) overhead_us: u64,
        /// Quantum boundaries the manager served.
        pub(crate) quanta: u64,
        /// The most clients live at once (the accept queue's peak depth).
        pub(crate) queue_peak: u64,
        /// Mean slowdown (turnaround ÷ solo service time) over served clients
        /// (0 when none were served).
        pub(crate) mean_slowdown: f64,
        /// Turnaround of every served client, µs: the histogram the figure's
        /// tail quantiles are read from.
        pub(crate) turnarounds: Turnarounds,
    }
}

/// An open serve's turnaround histogram
/// ([`busbw_managerd::OpenOutcome::turnarounds`]), always over
/// [`busbw_managerd::turnaround_bounds`]. On the wire it is its parts
/// without the bounds: the bucket counts (as [`Enc::seq`] writes them, so
/// they read back as a `Vec<u64>`), then the count and the sum, min and
/// max. Decoding rebuilds it through
/// [`Histogram::from_parts`], so parts that no serve records are an error.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Turnarounds(pub Histogram);

impl Wire for Turnarounds {
    const MIN_BYTES: usize = 5 * 8;

    fn put(&self, e: &mut Enc) {
        let h = &self.0;
        e.seq(h.counts());
        h.count().put(e);
        h.sum().put(e);
        h.min().put(e);
        h.max().put(e);
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, String> {
        let counts = Vec::get(d)?;
        let (count, sum) = (u64::get(d)?, f64::get(d)?);
        let (min, max) = (f64::get(d)?, f64::get(d)?);
        Histogram::from_parts(turnaround_bounds(), counts, count, sum, min, max).map(Self)
    }
}

impl OpenStats {
    /// Record a figure's serves in `reg`. The counters `managerd.arrived`,
    /// `.shed`, `.served`, `.overhead_us` (modeled manager work),
    /// `.served_us` (virtual time served) and `.quanta` sum over the
    /// serves; `managerd.queue_peak` is the deepest any serve's accept
    /// queue got. The gauge `managerd.overhead_us_per_quantum` is the
    /// summed overhead over the summed quanta: as a share of the quantum
    /// length it compares with the paper's ≈4.5 % bound. Records nothing
    /// when there are no serves.
    pub(crate) fn record_all<'a>(
        serves: impl IntoIterator<Item = &'a OpenStats>,
        reg: &mut busbw_metrics::MetricsRegistry,
    ) {
        let mut queue_peak = None;
        for s in serves {
            reg.inc_counter("managerd.arrived", s.arrived);
            reg.inc_counter("managerd.shed", s.shed);
            reg.inc_counter("managerd.served", s.served);
            reg.inc_counter("managerd.overhead_us", s.overhead_us);
            reg.inc_counter("managerd.served_us", s.duration_us);
            reg.inc_counter("managerd.quanta", s.quanta);
            queue_peak = queue_peak.max(Some(s.queue_peak));
        }
        let Some(queue_peak) = queue_peak else {
            return;
        };
        reg.inc_counter("managerd.queue_peak", queue_peak);
        let quanta = reg.counter("managerd.quanta");
        if quanta > 0 {
            let overhead_us = reg.counter("managerd.overhead_us");
            reg.set_gauge(
                "managerd.overhead_us_per_quantum",
                overhead_us as f64 / quanta as f64,
            );
        }
    }

    /// Manager overhead as a percentage of the serve duration — the
    /// number the paper bounds at ≈4.5 % (§4).
    pub(crate) fn overhead_pct(&self) -> f64 {
        if self.duration_us == 0 {
            0.0
        } else {
            100.0 * self.overhead_us as f64 / self.duration_us as f64
        }
    }

    /// Fraction of arrivals shed, ∈ [0, 1].
    pub fn shed_rate(&self) -> f64 {
        if self.arrived == 0 {
            0.0
        } else {
            self.shed as f64 / self.arrived as f64
        }
    }
}

wire_struct! {
    /// Search accounting of one offline-optimal oracle run (see
    /// [`crate::regret`]): the numbers behind the `oracle.*` counters of
    /// `regret.manifest.json`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct OracleStats {
        /// Search nodes counted against the node budget.
        pub(crate) nodes: u64,
        /// Nodes that ended, as a leaf or censored at the horizon.
        pub(crate) leaves: u64,
        /// Interior nodes pruned because their lower bound met the incumbent.
        pub(crate) bound_prunes: u64,
        /// Of `bound_prunes`, those pruned before they were simulated.
        pub(crate) presim_prunes: u64,
        /// Whether the search exhausted its tree within the node budget.
        pub(crate) complete: bool,
        /// Best total turnaround found, µs.
        pub(crate) best_cost_us: u64,
        /// Admissible lower bound at the root, µs.
        pub(crate) root_lower_bound_us: u64,
    }
}

impl From<&OracleReport> for OracleStats {
    fn from(r: &OracleReport) -> Self {
        Self {
            nodes: r.nodes,
            leaves: r.leaves,
            bound_prunes: r.bound_prunes,
            presim_prunes: r.presim_prunes,
            complete: r.complete,
            best_cost_us: r.best_cost_us,
            root_lower_bound_us: r.root_lower_bound_us,
        }
    }
}

impl OracleStats {
    /// Record a figure's searches in `reg`. The counters `oracle.nodes`,
    /// `.leaves`, `.bound_prunes` and `.presim_prunes` sum over the
    /// searches, and `oracle.incomplete` counts those the node budget cut
    /// short. The gauge `oracle.root_gap_frac` is the mean over searches
    /// of the share of the best cost the root bound leaves open. Records
    /// nothing when there are no searches.
    pub(crate) fn record_all(
        searches: impl IntoIterator<Item = OracleStats>,
        reg: &mut busbw_metrics::MetricsRegistry,
    ) {
        let (mut n, mut gap) = (0u64, 0.0);
        for s in searches {
            reg.inc_counter("oracle.nodes", s.nodes);
            reg.inc_counter("oracle.leaves", s.leaves);
            reg.inc_counter("oracle.bound_prunes", s.bound_prunes);
            reg.inc_counter("oracle.presim_prunes", s.presim_prunes);
            reg.inc_counter("oracle.incomplete", u64::from(!s.complete));
            if s.best_cost_us > 0 {
                gap += s.best_cost_us.saturating_sub(s.root_lower_bound_us) as f64
                    / s.best_cost_us as f64;
            }
            n += 1;
        }
        if n > 0 {
            reg.set_gauge("oracle.root_gap_frac", gap / n as f64);
        }
    }
}

/// Run `spec` under `policy` and measure the marked instances.
///
/// The run stops when all measured instances finish (background
/// microbenchmarks run forever) or when the hard cap
/// ([`RunnerConfig::hard_cap_factor`] × the scaled solo work volume)
/// fires. A capped run no longer panics: unfinished apps are reported in
/// [`RunResult::completion`] with censored turnarounds, and a
/// [`TraceEvent::RunUnfinished`] is emitted per unfinished app when a
/// tracer is attached.
pub fn run_spec(spec: &WorkloadSpec, policy: PolicyKind, rc: &RunnerConfig) -> RunResult {
    run_spec_hooked(spec, policy, rc, None)
}

/// [`run_spec`] with an optional [`busbw_sim::AuditHook`] observing the
/// run (see `Machine::run_audited`). The audited path is what
/// `experiments audit` drives; `hook = None` is the plain `run_spec` and
/// produces bit-identical results to it.
pub fn run_spec_hooked(
    spec: &WorkloadSpec,
    policy: PolicyKind,
    rc: &RunnerConfig,
    hook: Option<&mut dyn busbw_sim::AuditHook>,
) -> RunResult {
    let mut p = prepare_run(spec, policy, rc);
    let stop = p.stop_condition();
    let PreparedRun {
        ref mut machine,
        ref mut sched,
        ..
    } = p;
    let out = machine.run_audited(&mut **sched, stop, hook);
    finalize_run(p, out)
}

/// [`run_spec`] with the machine's phase profiler switched on: returns
/// the run result plus the per-phase wall-time profile (see
/// `busbw_sim::prof`). Profiling is observational only — the returned
/// result is byte-identical under the run codec to what [`run_spec`]
/// produces, which a proptest pins.
pub fn run_spec_profiled(
    spec: &WorkloadSpec,
    policy: PolicyKind,
    rc: &RunnerConfig,
) -> (RunResult, busbw_sim::PhaseSet) {
    let mut p = prepare_run(spec, policy, rc);
    p.machine.set_profiling(true);
    let stop = p.stop_condition();
    let PreparedRun {
        ref mut machine,
        ref mut sched,
        ..
    } = p;
    let out = machine.run_audited(&mut **sched, stop, None);
    let profile = p.machine.take_phase_profile();
    (finalize_run(p, out), profile)
}

/// A run built and wired (machine, workload, tracer, scheduler) but not
/// yet driven: the unit the sibling-group driver ([`crate::sibling`])
/// forks through the machine's stepped API
/// ([`busbw_sim::Machine::run_begin`]). Single runs go through
/// [`run_spec`], which drives the same preparation to completion in one
/// call.
pub(crate) struct PreparedRun {
    pub(crate) machine: busbw_sim::Machine,
    pub(crate) sched: Box<dyn Scheduler>,
    pub(crate) measured_ids: Vec<busbw_sim::AppId>,
    pub(crate) handle: Option<MemoryHandle>,
}

impl PreparedRun {
    /// The stop condition of this run (all measured instances finished).
    pub(crate) fn stop_condition(&self) -> StopCondition {
        StopCondition::AppsFinished(self.measured_ids.clone())
    }

    /// The measured application ids, spec order — the oracle's objective
    /// set (see [`crate::regret`]).
    pub(crate) fn measured_ids(&self) -> &[busbw_sim::AppId] {
        &self.measured_ids
    }

    /// Consume the prepared run, yielding just its undriven machine — the
    /// template the oracle search clones for every candidate schedule
    /// (see [`crate::regret`]).
    pub(crate) fn into_machine(self) -> busbw_sim::Machine {
        self.machine
    }
}

/// Build the machine, workload, tracer, and scheduler for one run
/// without driving it. [`finalize_run`] folds the finished machine into
/// a [`RunResult`]; `prepare → drive → finalize` is bit-identical to
/// [`run_spec`] however the drive is interleaved with other runs.
pub(crate) fn prepare_run(
    spec: &WorkloadSpec,
    policy: PolicyKind,
    rc: &RunnerConfig,
) -> PreparedRun {
    let scaled = spec.clone().scaled(rc.scale);
    let built = build_machine(&scaled, rc.machine, rc.seed);
    let mut machine = built.machine;
    machine.set_hard_cap_us(
        (busbw_workloads::paper::DEFAULT_SOLO_WORK_US * rc.scale * rc.hard_cap_factor) as u64,
    );
    let mut handle = None;
    match rc.trace {
        TraceMode::Off => {}
        TraceMode::Null => machine.set_tracer(EventBus::new(Box::new(NullSink))),
        TraceMode::Collect => {
            let (bus, h) = EventBus::memory();
            machine.set_tracer(bus);
            handle = Some(h);
        }
    }
    let sched = policy.build();
    PreparedRun {
        machine,
        sched,
        measured_ids: built.measured_ids,
        handle,
    }
}

/// Fold a driven run into its [`RunResult`] (censoring, rates, memo and
/// tick accounting). Shared verbatim by single runs and sibling groups.
pub(crate) fn finalize_run(p: PreparedRun, out: busbw_sim::RunOutcome) -> RunResult {
    let PreparedRun {
        machine,
        sched,
        measured_ids,
        handle,
    } = p;
    let stage_timings = sched.stage_timings().cloned();

    let mut unfinished = Vec::new();
    let mut turnarounds = Vec::with_capacity(measured_ids.len());
    let mut measured_apps_rate = 0.0;
    for &id in &measured_ids {
        let t_us = match machine.turnaround_us(id) {
            Some(t) => t as f64,
            None => {
                // Censored at the cap: the app arrived but never finished.
                let report = machine.app_report(id).expect("measured app exists");
                let (mut done, mut total) = (0.0, 0.0);
                for th in machine.view().threads() {
                    if th.app == id && th.work_us.is_finite() {
                        done += th.progress_us.min(th.work_us);
                        total += th.work_us;
                    }
                }
                let progress_frac = if total > 0.0 {
                    (done / total).min(1.0)
                } else {
                    0.0
                };
                if machine.tracer().emits() {
                    machine.tracer().emit(TraceEvent::RunUnfinished {
                        at_us: out.stopped_at,
                        app: id.0,
                        name: report.name.clone(),
                        progress_frac,
                    });
                }
                unfinished.push(UnfinishedApp {
                    name: report.name,
                    progress_frac,
                });
                (out.stopped_at - report.arrived_at_us) as f64
            }
        };
        turnarounds.push(t_us);
        if t_us > 0.0 {
            measured_apps_rate += machine.app_transactions(id) / t_us;
        }
    }
    let completion = if unfinished.is_empty() {
        RunCompletion::Finished
    } else {
        RunCompletion::HardCap { unfinished }
    };
    let (memo_hits, memo_misses) = machine.bus_memo_stats();
    let mut level_utilization = [0.0; busbw_sim::MAX_BUS_LEVELS];
    let mut level_saturated = [0.0; busbw_sim::MAX_BUS_LEVELS];
    for (k, l) in out.stats.levels[..out.stats.n_levels].iter().enumerate() {
        level_utilization[k] = l.mean_utilization(out.stats.elapsed_us);
        level_saturated[k] = l.saturated_fraction(out.stats.elapsed_us);
    }
    RunResult {
        mean_turnaround_us: busbw_metrics::mean(&turnarounds).unwrap_or(0.0),
        turnarounds_us: turnarounds,
        workload_rate: out.stats.mean_bus_rate(),
        measured_apps_rate,
        saturated_fraction: out.stats.saturated_fraction(),
        ticks: out.stats.ticks,
        sim_elapsed_us: out.stats.elapsed_us,
        completion,
        events: handle.map(|h| h.take()).unwrap_or_default(),
        tick_dt_hist: out.stats.tick_dt_hist,
        memo_hits,
        memo_misses,
        stage_timings,
        open: None,
        oracle: None,
        n_levels: out.stats.n_levels,
        level_utilization,
        level_saturated,
    }
}

/// Merge per-run traces into one deterministic stream: events tagged with
/// their job index, stably sorted by `(simulated time, job index)`.
///
/// [`crate::pool::map`] returns results in input order regardless of
/// worker count, and the sort is stable over each run's emission order,
/// so the merged stream is byte-identical for any `--workers` value.
pub fn merge_traces(results: &[RunResult]) -> Vec<(usize, TraceEvent)> {
    let mut merged: Vec<(usize, TraceEvent)> = results
        .iter()
        .enumerate()
        .flat_map(|(ji, r)| r.events.iter().cloned().map(move |ev| (ji, ev)))
        .collect();
    merged.sort_by_key(|(ji, ev)| (ev.at_us(), *ji));
    merged
}

/// Fold a figure's runs and merged trace into a metrics snapshot.
///
/// Counters: run/tick/event totals and Λ-memo hits/misses. Gauges: memo
/// hit rate, unfinished-run count, and one per-figure-cell gauge
/// (`fig.<row>.<series>` — Fig. 1B slowdowns / Fig. 2 improvements, i.e.
/// the per-app slowdown gauges). Histograms: tick-loop coverage folded
/// from every run's [`TickDtHist`]. Timelines: bus utilization ρ from the
/// merged `bus_solve` events.
pub fn collect_metrics(
    fig: &busbw_metrics::FigureSummary,
    results: &[RunResult],
    merged: &[(usize, TraceEvent)],
) -> busbw_metrics::MetricsRegistry {
    let mut reg = busbw_metrics::MetricsRegistry::new();
    reg.inc_counter("runs.total", results.len() as u64);
    let unfinished: u64 = results
        .iter()
        .filter(|r| !r.completion.is_finished())
        .count() as u64;
    reg.inc_counter("runs.unfinished", unfinished);
    reg.set_gauge("runs.unfinished", unfinished as f64);
    reg.inc_counter("trace.events", merged.len() as u64);

    let (mut hits, mut misses) = (0u64, 0u64);
    // le-bounds 1, 2, 4, …, 64 plus the overflow bucket: one histogram
    // bucket per TickDtHist bucket (samples are recorded at bucket floors).
    let bounds: Vec<f64> = (0..7).map(|i| TickDtHist::bucket_lo(i) as f64).collect();
    {
        let h = reg.histogram("tick.dt_ticks", &bounds);
        for r in results {
            for (i, &n) in r.tick_dt_hist.buckets.iter().enumerate() {
                h.record_n(TickDtHist::bucket_lo(i) as f64, n);
            }
        }
    }
    for r in results {
        reg.inc_counter("sim.ticks", r.ticks);
        hits += r.memo_hits;
        misses += r.memo_misses;
    }
    reg.inc_counter("bus.memo_hits", hits);
    reg.inc_counter("bus.memo_misses", misses);
    if hits + misses > 0 {
        reg.set_gauge("bus.memo_hit_rate", hits as f64 / (hits + misses) as f64);
    }

    for (ji, ev) in merged {
        if let TraceEvent::BusSolve {
            at_us, utilization, ..
        } = ev
        {
            reg.timeline(&format!("bus.rho.job{ji}"))
                .push(*at_us, *utilization);
        }
    }

    for row in &fig.rows {
        for (series, v) in &row.values {
            reg.set_gauge(&format!("fig.{}.{}", row.app, series), *v);
        }
    }
    reg
}

/// Solo turnaround of one paper application (2 threads, machine otherwise
/// idle) — the Fig. 1B denominator.
pub fn solo_turnaround_us(app: PaperApp, rc: &RunnerConfig) -> f64 {
    run_spec(&fig1_solo(app), PolicyKind::Linux, rc).mean_turnaround_us
}

#[cfg(test)]
mod tests {
    use super::*;
    use busbw_workloads::mix::{fig1_two_instances, fig2_set_b};

    fn rc() -> RunnerConfig {
        RunnerConfig::quick()
    }

    #[test]
    fn parse_scale_accepts_finite_positive_values_only() {
        assert_eq!(parse_scale("0.1"), Ok(0.1));
        assert_eq!(parse_scale("1.5"), Ok(1.5));
        assert_eq!(parse_scale("2"), Ok(2.0));
        assert_eq!(parse_scale("0.001"), Ok(MIN_SCALE));
        assert_eq!(parse_scale("1000"), Ok(MAX_SCALE));
        for bad in [
            "0", "-0", "-1", "nan", "NaN", "inf", "-inf", "", "x", "1e-300", "0.0009", "1000.5",
            "1e300",
        ] {
            assert!(parse_scale(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn solo_run_finishes_in_scaled_work_time() {
        let t = solo_turnaround_us(PaperApp::Radiosity, &rc());
        // 600 ms scaled work ± cache warmup effects.
        assert!((590_000.0..680_000.0).contains(&t), "solo {t}");
    }

    #[test]
    fn heavy_pair_slows_down_under_linux() {
        let solo = solo_turnaround_us(PaperApp::Cg, &rc());
        let double = run_spec(&fig1_two_instances(PaperApp::Cg), PolicyKind::Linux, &rc());
        let slowdown = double.mean_turnaround_us / solo;
        assert!(
            slowdown > 1.3,
            "two CG instances should contend: slowdown {slowdown}"
        );
        assert!(double.saturated_fraction > 0.5);
    }

    #[test]
    fn policies_beat_linux_on_set_b_for_heavy_apps() {
        let spec = fig2_set_b(PaperApp::Cg);
        let linux = run_spec(&spec, PolicyKind::Linux, &rc());
        let window = run_spec(&spec, PolicyKind::Window, &rc());
        assert!(
            window.mean_turnaround_us < linux.mean_turnaround_us,
            "Window {} vs Linux {}",
            window.mean_turnaround_us,
            linux.mean_turnaround_us
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = fig2_set_b(PaperApp::Raytrace);
        let a = run_spec(&spec, PolicyKind::Window, &rc());
        let b = run_spec(&spec, PolicyKind::Window, &rc());
        assert_eq!(a.turnarounds_us, b.turnarounds_us);
        assert_eq!(a.workload_rate, b.workload_rate);
    }

    #[test]
    fn parallel_runner_is_bit_identical_to_serial() {
        use busbw_metrics::{ExperimentRow, FigureSummary, Table};
        use busbw_workloads::mix::fig1_two_instances;

        let rc = RunnerConfig {
            scale: 0.05,
            ..RunnerConfig::default()
        };
        let jobs = vec![
            (fig2_set_b(PaperApp::Cg), PolicyKind::Window),
            (fig1_two_instances(PaperApp::LuCb), PolicyKind::Linux),
            (fig1_two_instances(PaperApp::Volrend), PolicyKind::Latest),
        ];
        let (serial, _) = crate::pool::map(&jobs, 1, |(s, p)| run_spec(s, *p, &rc));
        let (parallel, _) = crate::pool::map(&jobs, 4, |(s, p)| run_spec(s, *p, &rc));

        // Every float agrees to the bit.
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(
                a.mean_turnaround_us.to_bits(),
                b.mean_turnaround_us.to_bits()
            );
            assert_eq!(a.workload_rate.to_bits(), b.workload_rate.to_bits());
            assert_eq!(
                a.measured_apps_rate.to_bits(),
                b.measured_apps_rate.to_bits()
            );
            assert_eq!(a.turnarounds_us.len(), b.turnarounds_us.len());
            for (x, y) in a.turnarounds_us.iter().zip(&b.turnarounds_us) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            assert_eq!(a.ticks, b.ticks);
            assert_eq!(a.sim_elapsed_us, b.sim_elapsed_us);
        }

        // And the rendered CSV (what the binary writes) is byte-identical.
        let to_csv = |rs: &[RunResult]| {
            let rows = rs
                .iter()
                .enumerate()
                .map(|(i, r)| ExperimentRow {
                    app: format!("job{i}"),
                    values: vec![
                        ("turnaround".into(), r.mean_turnaround_us),
                        ("rate".into(), r.workload_rate),
                    ],
                })
                .collect();
            let fig = FigureSummary {
                id: "par-check".into(),
                title: String::new(),
                rows,
            };
            Table::from_figure(&fig).to_csv()
        };
        assert_eq!(to_csv(&serial), to_csv(&parallel));
    }

    #[test]
    fn all_policy_kinds_build() {
        for p in [
            PolicyKind::Linux,
            PolicyKind::Latest,
            PolicyKind::Window,
            PolicyKind::WindowN(3),
            PolicyKind::LatestWithQuantum(100_000),
            PolicyKind::RoundRobinGang,
            PolicyKind::RandomGang(1),
            PolicyKind::GreedyPack,
            PolicyKind::LinuxO1,
            PolicyKind::ModelDriven,
            PolicyKind::Stack(crate::policy::StackSpec::default()),
            PolicyKind::OfflineOptimal,
        ] {
            let s = p.build();
            assert!(!s.name().is_empty());
            assert!(!p.label().is_empty());
        }
    }

    #[test]
    fn pipeline_runs_report_stage_timings() {
        let r = run_spec(&fig2_set_b(PaperApp::Volrend), PolicyKind::Latest, &rc());
        let t = r.stage_timings.expect("preset stacks expose timings");
        assert!(t.any_calls());
        assert!(t.stages.iter().all(|s| s.calls > 0), "{t:?}");
        // The model-driven comparator is not a stack and reports none.
        let r = run_spec(
            &fig2_set_b(PaperApp::Volrend),
            PolicyKind::ModelDriven,
            &rc(),
        );
        assert!(r.stage_timings.is_none());
    }
}
