//! The composable policy pipeline: **estimate → admit → select → place**.
//!
//! Every scheduler in this crate is a composition of four stages, even
//! though the paper presents them as whole algorithms:
//!
//! 1. [`Estimator`] — settle the finished interval's counter measurements
//!    into per-job `BBW/thread` estimates (absorbing
//!    [`crate::estimator::BandwidthEstimator`] for the paper's policies);
//! 2. [`Admission`] — the unconditional admissions: the paper's
//!    head-of-list starvation-freedom rule, FCFS fill, or nothing;
//! 3. [`Selector`] — fill the remaining processors: the Eq. (1)/(2)
//!    fitness maximization, random/greedy comparators, a model-driven
//!    lookahead, or a pinned non-gang schedule (the Linux baselines);
//! 4. [`Placer`] — map admitted gangs onto cpus (packed affinity,
//!    scatter, SMT-aware, plus the socket-aware `pack_local`,
//!    `spread_sockets`, and `migrate` placers for multi-socket
//!    topologies).
//!
//! [`PolicyStack`] composes one of each into a [`Scheduler`]. The named
//! presets (`bus_aware`, `linux_like`, `linux_o1`, `round_robin_gang`,
//! `random_gang`, `greedy_pack`) reproduce the pre-pipeline monolithic
//! schedulers *bit for bit* — the golden-decision tests in
//! `busbw-experiments` pin their decision streams.
//!
//! Each stage emits a [`TraceEvent::StageDecision`] when tracing is on
//! (deterministic payloads only), and the stack accumulates per-stage
//! wall-time into a [`StageTimings`] that the experiments layer folds
//! into run manifests.

pub(crate) mod admission;
pub(crate) mod estimators;
pub(crate) mod placers;
pub(crate) mod selectors;

pub use admission::{Fcfs, HeadOfList, Open, StrictHead, WidestFirst};
pub use estimators::{NullEstimator, RawRateEstimator, ReconstructingEstimator};
pub(crate) use placers::place_packed;
pub use placers::{
    MigrateOnSaturationPlacer, PackLocalPlacer, PackedPlacer, ScatterPlacer, SmtAwarePlacer,
    SpreadSocketsPlacer,
};
pub use selectors::{
    FitnessSelector, GreedySelector, LookaheadSelector, NullSelector, RandomSelector,
};

use std::collections::BTreeSet;
use std::time::Instant;

use busbw_sim::{AppId, Assignment, Decision, MachineView, Scheduler, StageSnapshot, StageTimings};
use busbw_trace::{EventBus, PipelineStage, TraceEvent};

use crate::selection::Candidate;

/// The paper's scheduling quantum: 200 ms — twice the Linux quantum,
/// chosen after 100 ms caused conflicting user/kernel decisions (§5).
pub const PAPER_QUANTUM_US: u64 = 200_000;

/// Counter samples per quantum (the paper: 2).
pub(crate) const PAPER_SAMPLES_PER_QUANTUM: u32 = 2;

/// The Quanta Window policy's window length: 5 samples (§4).
pub const PAPER_WINDOW_SAMPLES: usize = 5;

/// Read-only context handed to every stage call: the machine view for the
/// decision point and the structured-trace bus (off when not tracing).
pub struct StageCtx<'a, 'v> {
    /// The scheduler's window into the machine.
    pub view: &'a MachineView<'v>,
    /// Structured-trace bus (stages may emit their own events, e.g. the
    /// fitness selector's `GangSelected`).
    pub(crate) tracer: &'a EventBus,
}

/// Stage 1: turn counter measurements into `BBW/thread` estimates.
///
/// The estimator owns the measurement bookkeeping a policy needs between
/// quanta: counter snapshots, dilation integrals, and the set of jobs that
/// ran (so [`Estimator::settle`] knows whom to charge).
pub trait Estimator: Send {
    /// Short display name (doubles as the preset stack's name for the
    /// paper policies: "Latest" / "Window").
    fn label(&self) -> &'static str;

    /// Settle the interval that just ended: read counters for the jobs
    /// admitted at the previous [`Estimator::commit`] and update estimates.
    fn settle(&mut self, ctx: &StageCtx<'_, '_>);

    /// Current `BBW/thread` estimate; `0.0` for never-measured jobs.
    fn estimate(&self, app: AppId) -> f64;

    /// A new quantum starts with `admitted` running: snapshot counters and
    /// remember the set for the next [`Estimator::settle`].
    fn commit(&mut self, ctx: &StageCtx<'_, '_>, admitted: &[AppId]);

    /// Mid-quantum counter sample (only called when
    /// [`Estimator::sample_period_us`] returns `Some`).
    fn on_sample(&mut self, ctx: &StageCtx<'_, '_>) {
        let _ = ctx;
    }

    /// Sampling period to request from the machine, if this estimator
    /// consumes mid-quantum samples.
    fn sample_period_us(&self, quantum_us: u64) -> Option<u64> {
        let _ = quantum_us;
        None
    }

    /// Drop all state for a finished job.
    fn forget(&mut self, app: AppId) {
        let _ = app;
    }
}

/// Stage 2: unconditional admissions, before any scoring.
pub trait Admission: Send {
    /// Short display name.
    fn label(&self) -> &'static str;

    /// Indices into `cands` to admit unconditionally, in admission order.
    /// `free` is the machine's processor count; implementations must keep
    /// the summed widths within it.
    fn admit(
        &mut self,
        ctx: &StageCtx<'_, '_>,
        cands: &[Candidate<AppId>],
        free: usize,
    ) -> Vec<usize>;
}

/// What a [`Selector`] produced.
pub enum Selection {
    /// Additional candidate indices to admit (gang semantics; the placer
    /// maps them onto cpus).
    Gangs(Vec<usize>),
    /// A complete thread→cpu placement, bypassing the placer — how
    /// non-gang selectors (the Linux baselines) fit the pipeline.
    Pinned(Vec<Assignment>),
}

/// Stage 3: fill the processors left after admission.
pub trait Selector: Send {
    /// Short display name.
    fn label(&self) -> &'static str;

    /// Choose what else runs. `admitted` holds the admission stage's
    /// candidate indices; `free` the processors remaining after them.
    fn select(
        &mut self,
        ctx: &StageCtx<'_, '_>,
        cands: &[Candidate<AppId>],
        admitted: &[usize],
        free: usize,
    ) -> Selection;
}

/// Stage 4: map admitted gangs onto cpus.
pub trait Placer: Send {
    /// Short display name.
    fn label(&self) -> &'static str;

    /// Produce assignments for every runnable thread of `admitted` (in
    /// admission order), at most one thread per cpu.
    fn place(&mut self, ctx: &StageCtx<'_, '_>, admitted: &[AppId]) -> Vec<Assignment>;
}

/// A scheduler composed from one stage of each kind.
///
/// The stack owns the circular applications list (refresh + ran-to-end
/// rotation — identical across every gang policy in the paper) and drives
/// the four stages per reschedule; stages own their policy-specific state.
pub struct PolicyStack {
    name: String,
    quantum_us: u64,
    estimator: Box<dyn Estimator>,
    admission: Box<dyn Admission>,
    selector: Box<dyn Selector>,
    placer: Box<dyn Placer>,
    /// The applications list (head = next guaranteed job).
    order: Vec<AppId>,
    /// Jobs scheduled in the current quantum.
    running: Vec<AppId>,
    /// Jobs ever committed (to detect deaths and forget estimator state).
    known: BTreeSet<AppId>,
    tracer: EventBus,
    timings: StageTimings,
    /// When true, [`Scheduler::stage_snapshot`] captures what each stage
    /// decided on every reschedule (auditor introspection). Off by default
    /// so the normal path allocates nothing extra.
    introspect: bool,
    snapshot: Option<StageSnapshot>,
}

impl PolicyStack {
    /// Compose a stack. `name` is the display name reports use.
    ///
    /// # Panics
    /// Panics if `quantum_us` is zero.
    pub fn new(
        name: impl Into<String>,
        quantum_us: u64,
        estimator: Box<dyn Estimator>,
        admission: Box<dyn Admission>,
        selector: Box<dyn Selector>,
        placer: Box<dyn Placer>,
    ) -> Self {
        assert!(quantum_us > 0, "quantum must be positive");
        Self {
            name: name.into(),
            quantum_us,
            estimator,
            admission,
            selector,
            placer,
            order: Vec::new(),
            running: Vec::new(),
            known: BTreeSet::new(),
            tracer: EventBus::off(),
            timings: StageTimings::default(),
            introspect: false,
            snapshot: None,
        }
    }

    /// Attach a structured-trace bus explicitly. Usually unnecessary:
    /// running under a traced [`busbw_sim::Machine`] attaches its bus
    /// automatically via [`Scheduler::attach_tracer`].
    #[cfg(test)]
    pub(crate) fn set_tracer(&mut self, tracer: EventBus) {
        self.tracer = tracer;
    }

    /// The scheduling quantum, µs.
    pub fn quantum_us(&self) -> u64 {
        self.quantum_us
    }

    /// Current `BBW/thread` estimate for a job (for tests and reports).
    pub fn estimate(&self, app: AppId) -> f64 {
        self.estimator.estimate(app)
    }

    /// The composed stage labels, in pipeline order.
    #[cfg(test)]
    pub(crate) fn stage_labels(&self) -> [&'static str; 4] {
        [
            self.estimator.label(),
            self.admission.label(),
            self.selector.label(),
            self.placer.label(),
        ]
    }

    /// Keep `order` in sync with the machine's live applications: drop
    /// finished jobs, append newly arrived ones (ascending id — the order
    /// `MachineView::live_apps` reports), and forget estimator state for
    /// jobs that died.
    fn refresh_job_list(&mut self, view: &MachineView<'_>) {
        let live = view.live_apps();
        let mut present: BTreeSet<AppId> = live.iter().copied().collect();
        self.order.retain(|a| present.contains(a));
        for a in &self.order {
            present.remove(a);
        }
        // Newly connected jobs go to the end of the circular list.
        self.order.extend(present);
        let live_set: BTreeSet<AppId> = live.into_iter().collect();
        let dead: Vec<AppId> = self
            .known
            .iter()
            .filter(|a| !live_set.contains(a))
            .copied()
            .collect();
        for a in dead {
            self.known.remove(&a);
            self.estimator.forget(a);
        }
    }

    fn emit_stage(&self, at_us: u64, stage: PipelineStage, items: usize) {
        if self.tracer.emits() {
            self.tracer.emit(TraceEvent::StageDecision {
                at_us,
                stage,
                items,
            });
        }
    }
}

impl Scheduler for PolicyStack {
    fn schedule(&mut self, view: &MachineView<'_>) -> Decision {
        let tracer = self.tracer.clone();
        let ctx = StageCtx {
            view,
            tracer: &tracer,
        };

        // Stage 1 — estimate: settle the finished interval, maintain the
        // circular list (refresh + rotate jobs that ran to the end), and
        // enumerate candidates with their current estimates.
        let t_est = Instant::now();
        self.estimator.settle(&ctx);
        self.refresh_job_list(view);
        let ran: Vec<AppId> = self
            .order
            .iter()
            .copied()
            .filter(|a| self.running.contains(a))
            .collect();
        self.order.retain(|a| !ran.contains(a));
        self.order.extend(ran);
        let cands: Vec<Candidate<AppId>> = self
            .order
            .iter()
            .filter_map(|&app| {
                view.app(app).map(|info| Candidate {
                    key: app,
                    width: info.width(),
                    bbw_per_thread: self.estimator.estimate(app),
                })
            })
            .collect();
        let mut est_ns = t_est.elapsed().as_nanos() as u64;
        self.emit_stage(view.now, PipelineStage::Estimate, cands.len());

        // Stage 2 — admit.
        let t_admit = Instant::now();
        let head = self.admission.admit(&ctx, &cands, view.num_cpus);
        let used: usize = head.iter().map(|&i| cands[i].width).sum();
        debug_assert!(used <= view.num_cpus, "admission overcommitted");
        let free = view.num_cpus.saturating_sub(used);
        if tracer.emits() {
            for &i in &head {
                tracer.emit(TraceEvent::HeadAdmission {
                    at_us: view.now,
                    app: cands[i].key.0,
                    width: cands[i].width,
                });
            }
        }
        self.timings.stages[1].record_ns(t_admit.elapsed().as_nanos() as u64);
        self.emit_stage(view.now, PipelineStage::Admit, head.len());

        // Stage 3 — select.
        let t_select = Instant::now();
        let selection = self.selector.select(&ctx, &cands, &head, free);
        let selected_items = match &selection {
            Selection::Gangs(extra) => extra.len(),
            Selection::Pinned(assignments) => assignments.len(),
        };
        self.timings.stages[2].record_ns(t_select.elapsed().as_nanos() as u64);
        self.emit_stage(view.now, PipelineStage::Select, selected_items);

        // Stage 4 — place.
        let t_place = Instant::now();
        let (pinned, selected_extra) = if self.introspect {
            match &selection {
                Selection::Gangs(extra) => (false, extra.iter().map(|&i| cands[i].key).collect()),
                Selection::Pinned(_) => (true, Vec::new()),
            }
        } else {
            (false, Vec::new())
        };
        let (admitted, assignments) = match selection {
            Selection::Gangs(extra) => {
                let admitted: Vec<AppId> = head
                    .iter()
                    .chain(extra.iter())
                    .map(|&i| cands[i].key)
                    .collect();
                let assignments = self.placer.place(&ctx, &admitted);
                (admitted, assignments)
            }
            Selection::Pinned(assignments) => {
                // Derive the admitted set for the estimator's bookkeeping
                // (first-seen order).
                let mut admitted = Vec::new();
                for a in &assignments {
                    if let Some(t) = view.thread(a.thread) {
                        if !admitted.contains(&t.app) {
                            admitted.push(t.app);
                        }
                    }
                }
                (admitted, assignments)
            }
        };
        self.timings.stages[3].record_ns(t_place.elapsed().as_nanos() as u64);
        self.emit_stage(view.now, PipelineStage::Place, assignments.len());

        // Commit the new quantum into the estimator's bookkeeping (counted
        // as estimate-stage time: it is the measurement half-step).
        let t_commit = Instant::now();
        self.estimator.commit(&ctx, &admitted);
        self.known.extend(admitted.iter().copied());
        if self.introspect {
            self.snapshot = Some(StageSnapshot {
                candidates: cands.iter().map(|c| c.key).collect(),
                admitted_head: head.iter().map(|&i| cands[i].key).collect(),
                selected_extra,
                pinned,
                committed: admitted.clone(),
            });
        }
        self.running = admitted;
        est_ns += t_commit.elapsed().as_nanos() as u64;
        self.timings.stages[0].record_ns(est_ns);

        Decision {
            assignments,
            next_resched_in_us: self.quantum_us,
            sample_period_us: self.estimator.sample_period_us(self.quantum_us),
        }
    }

    fn on_sample(&mut self, view: &MachineView<'_>) {
        let tracer = self.tracer.clone();
        let ctx = StageCtx {
            view,
            tracer: &tracer,
        };
        let t = Instant::now();
        self.estimator.on_sample(&ctx);
        self.timings.stages[0].record_ns(t.elapsed().as_nanos() as u64);
    }

    fn attach_tracer(&mut self, tracer: &EventBus) {
        self.tracer = tracer.clone();
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn stage_timings(&self) -> Option<&StageTimings> {
        Some(&self.timings)
    }

    fn set_introspect(&mut self, on: bool) {
        self.introspect = on;
        if !on {
            self.snapshot = None;
        }
    }

    fn stage_snapshot(&self) -> Option<&StageSnapshot> {
        self.snapshot.as_ref()
    }
}

/// A [`Selector`] driven directly as a [`Scheduler`], with no surrounding
/// pipeline — no estimator, admission, placer, trace emission, or timing.
///
/// Two uses: unit tests that need the selector's own accessors (e.g. the
/// Linux baseline's epoch counter), and the `pipeline_guard` example that
/// measures what the pipeline indirection costs relative to calling the
/// selection logic directly. Only meaningful for selectors that return
/// [`Selection::Pinned`]; gang selections have no placer here and yield an
/// idle decision.
pub struct SoloSelector<S: Selector> {
    selector: S,
    quantum_us: u64,
    tracer: EventBus,
}

impl<S: Selector> SoloSelector<S> {
    /// Wrap `selector`, rescheduling every `quantum_us`.
    pub fn new(selector: S, quantum_us: u64) -> Self {
        assert!(quantum_us > 0, "quantum must be positive");
        Self {
            selector,
            quantum_us,
            tracer: EventBus::off(),
        }
    }

    /// The wrapped selector.
    #[cfg(test)]
    pub(crate) fn selector(&self) -> &S {
        &self.selector
    }
}

impl<S: Selector> Scheduler for SoloSelector<S> {
    fn schedule(&mut self, view: &MachineView<'_>) -> Decision {
        let ctx = StageCtx {
            view,
            tracer: &self.tracer,
        };
        match self.selector.select(&ctx, &[], &[], view.num_cpus) {
            Selection::Pinned(assignments) => Decision {
                assignments,
                next_resched_in_us: self.quantum_us,
                sample_period_us: None,
            },
            Selection::Gangs(_) => Decision::idle(self.quantum_us),
        }
    }

    fn name(&self) -> &str {
        self.selector.label()
    }
}

#[cfg(test)]
mod tests {
    use super::admission::{Fcfs, HeadOfList, Open};
    use super::estimators::NullEstimator;
    use super::placers::PackedPlacer;
    use super::selectors::{FitnessSelector, NullSelector};
    use super::*;
    use busbw_sim::{AppDescriptor, ConstantDemand, Machine, ThreadSpec, XEON_4WAY};

    fn machine_with_apps(widths: &[usize]) -> Machine {
        let mut m = Machine::new(XEON_4WAY);
        for (i, &w) in widths.iter().enumerate() {
            let threads = (0..w)
                .map(|_| ThreadSpec::new(f64::INFINITY, Box::new(ConstantDemand::new(1.0, 0.2))))
                .collect();
            m.add_app(AppDescriptor::new(format!("a{i}"), threads));
        }
        m
    }

    fn stack() -> PolicyStack {
        PolicyStack::new(
            "test",
            PAPER_QUANTUM_US,
            Box::new(NullEstimator),
            Box::new(HeadOfList),
            Box::new(FitnessSelector),
            Box::new(PackedPlacer),
        )
    }

    #[test]
    fn stack_reports_name_quantum_and_stage_labels() {
        let s = stack();
        assert_eq!(s.name(), "test");
        assert_eq!(s.quantum_us(), PAPER_QUANTUM_US);
        assert_eq!(s.stage_labels(), ["Null", "head", "fitness", "packed"]);
    }

    #[test]
    fn stack_schedules_gangs_and_records_stage_timings() {
        let m = machine_with_apps(&[2, 2]);
        let mut s = stack();
        let d = s.schedule(&m.view());
        assert_eq!(d.assignments.len(), 4, "both 2-wide gangs fit 4 cpus");
        assert_eq!(d.next_resched_in_us, PAPER_QUANTUM_US);
        assert_eq!(d.sample_period_us, None, "null estimator never samples");
        let t = s.stage_timings().expect("stacks expose timings");
        assert!(t.stages.iter().all(|st| st.calls == 1));
    }

    #[test]
    fn stage_decision_events_are_emitted_per_stage() {
        let m = machine_with_apps(&[2]);
        let mut s = stack();
        let (bus, handle) = EventBus::memory();
        s.set_tracer(bus);
        let _ = s.schedule(&m.view());
        let stages: Vec<String> = handle
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::StageDecision { stage, .. } => Some(stage.as_str().to_string()),
                _ => None,
            })
            .collect();
        assert_eq!(stages, vec!["estimate", "admit", "select", "place"]);
    }

    #[test]
    fn fcfs_null_stack_rotates_jobs() {
        // Three 2-wide gangs, 4 cpus: FCFS admits two per quantum and the
        // rotation must cycle all three through over successive quanta.
        let mut m = machine_with_apps(&[2, 2, 2]);
        let mut s = PolicyStack::new(
            "rr",
            PAPER_QUANTUM_US,
            Box::new(NullEstimator),
            Box::new(Fcfs),
            Box::new(NullSelector),
            Box::new(PackedPlacer),
        );
        let mut seen = BTreeSet::new();
        for _ in 0..3 {
            let d = s.schedule(&m.view());
            for a in &d.assignments {
                seen.insert(m.view().thread(a.thread).unwrap().app);
            }
            let _ = m.run(
                &mut busbw_sim::testkit::Replay::new(d),
                busbw_sim::StopCondition::At(m.now() + PAPER_QUANTUM_US),
            );
        }
        assert_eq!(seen.len(), 3, "rotation starved a gang: {seen:?}");
    }

    #[test]
    fn open_admission_with_null_selector_idles() {
        let m = machine_with_apps(&[2]);
        let mut s = PolicyStack::new(
            "idle",
            PAPER_QUANTUM_US,
            Box::new(NullEstimator),
            Box::new(Open),
            Box::new(NullSelector),
            Box::new(PackedPlacer),
        );
        let d = s.schedule(&m.view());
        assert!(d.assignments.is_empty());
        assert_eq!(d.next_resched_in_us, PAPER_QUANTUM_US);
    }
}
