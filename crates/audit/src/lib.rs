//! Runtime invariant auditor for the busbw simulator.
//!
//! The paper's whole argument rests on the simulator and schedulers
//! honoring a handful of structural properties — gang co-scheduling
//! (§3: "all threads of an application execute together"), processor
//! exclusivity, the sustained bus-bandwidth ceiling (§2: 29.5
//! transactions/µs measured with STREAM), and estimates that stay inside
//! the measurements that produced them (§4, Equations 1–2). This crate
//! turns each property into an executable `Invariant` and composes them
//! into an [`Auditor`] that plugs into the live simulation through
//! [`busbw_sim::AuditHook`] (see `Machine::run_audited`).
//!
//! The catalog ([`Auditor::with_builtins`]):
//!
//! | name | checked where | property |
//! |------|---------------|----------|
//! | `no-double-allocation` | every decision | one thread per cpu, one cpu per thread |
//! | `cpu-bounds` | every decision | cpu ids in range, allocations ≤ machine cpus |
//! | `gang-integrity` | every decision | committed gangs run whole (paper §3) |
//! | `stage-coherence` | every decision | place output ⊆ select output ⊆ admit output ⊆ candidates |
//! | `bus-capacity` | every tick | issued traffic ≤ sustained capacity × dt (paper §2) |
//! | `monotonic-trace` | post-run events | trace clock monotone, stage cycles balanced |
//! | `estimator-range` | self-check | estimate within min/max of its own samples (paper §4) |
//! | `manager-arena-coherence` | self-check | seqlock arena publishes are torn-write-free on the real `core::manager` path (paper §4) |
//! | `manager-lifecycle` | post-run events | open-serve departures match admitted arrivals, turnarounds consistent |
//! | `cache-consistency` | differential runs | equal run keys ⇒ byte-equal results |
//! | `exec-path-equivalence` | differential runs | per-tick, event-driven, and sibling-group executions byte-agree |
//! | `topology-capacity` | every tick (per level) | no bus level issues past its effective capacity (DESIGN §16) |
//! | `oracle-admissibility` | differential runs | offline optimal ≤ every heuristic on the same cell, bound ≤ achieved cost (DESIGN §17) |
//!
//! The decision hook fires *before* the machine applies the decision, so
//! a violating schedule is recorded as a structured [`Violation`] even
//! when `Machine::apply` would also reject it with a panic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod invariants;

pub(crate) use invariants::builtin_invariants;

use busbw_sim::{AuditHook, Decision, LevelOutcome, MachineView, SimTime, StageSnapshot};
use busbw_trace::TraceEvent;

/// One observed invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Name of the invariant that fired (stable, kebab-case).
    pub invariant: &'static str,
    /// Simulated time of the offending observation, µs (0 when the check
    /// is not tied to a simulated instant, e.g. self-checks).
    pub at_us: u64,
    /// Human-readable description of what was wrong.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] t={}µs: {}",
            self.invariant, self.at_us, self.detail
        )
    }
}

/// One executable structural property of the simulation.
///
/// Implementations are stateful (e.g. the bus-capacity check carries no
/// state, but a windowed check could); each hook appends any violations
/// it finds to `out`. All hooks default to no-ops so an invariant only
/// implements the observation points it cares about.
pub(crate) trait Invariant: Send {
    /// Stable kebab-case name (the [`Violation::invariant`] tag).
    fn name(&self) -> &'static str;

    /// Where the property comes from in the paper (or the codebase).
    fn paper_ref(&self) -> &'static str;

    /// Check one scheduling decision, before the machine applies it.
    fn check_decision(
        &mut self,
        view: &MachineView<'_>,
        decision: &Decision,
        snapshot: Option<&StageSnapshot>,
        out: &mut Vec<Violation>,
    ) {
        let _ = (view, decision, snapshot, out);
    }

    /// Check one simulator tick's bus accounting.
    fn check_tick(
        &mut self,
        now: SimTime,
        dt_us: u64,
        issued_tx: f64,
        capacity_tx_per_us: f64,
        out: &mut Vec<Violation>,
    ) {
        let _ = (now, dt_us, issued_tx, capacity_tx_per_us, out);
    }

    /// Check one tick's per-level bus accounting (hierarchical
    /// topologies only; a one-socket bus reports no levels).
    fn check_levels(
        &mut self,
        now: SimTime,
        dt_us: u64,
        levels: &[LevelOutcome],
        out: &mut Vec<Violation>,
    ) {
        let _ = (now, dt_us, levels, out);
    }

    /// Check a completed run's collected trace stream.
    fn check_events(&mut self, events: &[TraceEvent], out: &mut Vec<Violation>) {
        let _ = (events, out);
    }

    /// Self-contained check needing no live run (e.g. driving the
    /// estimators with synthetic sample streams).
    fn self_check(&mut self, seed: u64, out: &mut Vec<Violation>) {
        let _ = (seed, out);
    }
}

/// A set of `Invariant`s observing one run (or one differential batch),
/// accumulating every violation found.
///
/// Plug it into a live run via [`busbw_sim::AuditHook`]:
/// `machine.run_audited(&mut sched, stop, Some(&mut auditor))`.
pub struct Auditor {
    invariants: Vec<Box<dyn Invariant>>,
    violations: Vec<Violation>,
}

impl Auditor {
    /// An auditor over a custom invariant set.
    pub(crate) fn new(invariants: Vec<Box<dyn Invariant>>) -> Self {
        Self {
            invariants,
            violations: Vec::new(),
        }
    }

    /// An auditor over the full built-in catalog (see module docs).
    pub fn with_builtins() -> Self {
        Self::new(builtin_invariants())
    }

    /// `(name, paper_ref)` for every installed invariant.
    pub fn catalog(&self) -> Vec<(&'static str, &'static str)> {
        self.invariants
            .iter()
            .map(|i| (i.name(), i.paper_ref()))
            .collect()
    }

    /// Run every invariant's post-run trace-stream check.
    pub fn check_events(&mut self, events: &[TraceEvent]) {
        for inv in &mut self.invariants {
            inv.check_events(events, &mut self.violations);
        }
    }

    /// Run every invariant's self-contained check.
    pub fn self_check(&mut self, seed: u64) {
        for inv in &mut self.invariants {
            inv.self_check(seed, &mut self.violations);
        }
    }

    /// Differential check: two executions that shared a run key must have
    /// produced byte-identical artifacts. `what` labels the artifact
    /// (e.g. `"fig2a csv, serial vs 4 workers"`). Fires as
    /// `cache-consistency`; use [`Auditor::check_byte_identity_as`] to
    /// attribute a divergence to another differential invariant.
    pub fn check_byte_identity(&mut self, what: &str, baseline: &[u8], other: &[u8]) {
        self.check_byte_identity_as("cache-consistency", what, baseline, other);
    }

    /// [`Auditor::check_byte_identity`] attributed to a named differential
    /// invariant (e.g. `exec-path-equivalence` for per-tick vs
    /// event-driven vs sibling-group executions of one run key).
    pub fn check_byte_identity_as(
        &mut self,
        invariant: &'static str,
        what: &str,
        baseline: &[u8],
        other: &[u8],
    ) {
        if baseline == other {
            return;
        }
        let diverge = baseline
            .iter()
            .zip(other.iter())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| baseline.len().min(other.len()));
        self.violations.push(Violation {
            invariant,
            at_us: 0,
            detail: format!(
                "{what}: byte divergence at offset {diverge} (lengths {} vs {})",
                baseline.len(),
                other.len()
            ),
        });
    }

    /// Everything observed so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Whether nothing fired.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Drain the accumulated violations, leaving the auditor reusable.
    pub fn take_violations(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }
}

impl AuditHook for Auditor {
    fn on_decision(
        &mut self,
        view: &MachineView<'_>,
        decision: &Decision,
        snapshot: Option<&StageSnapshot>,
    ) {
        for inv in &mut self.invariants {
            inv.check_decision(view, decision, snapshot, &mut self.violations);
        }
    }

    fn on_tick(&mut self, now: SimTime, dt_us: u64, issued_tx: f64, capacity_tx_per_us: f64) {
        for inv in &mut self.invariants {
            inv.check_tick(
                now,
                dt_us,
                issued_tx,
                capacity_tx_per_us,
                &mut self.violations,
            );
        }
    }

    fn on_levels(&mut self, now: SimTime, dt_us: u64, levels: &[LevelOutcome]) {
        for inv in &mut self.invariants {
            inv.check_levels(now, dt_us, levels, &mut self.violations);
        }
    }
}
