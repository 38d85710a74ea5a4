//! Phase-attributed self-profiling for the tick engine.
//!
//! The tick loop is a handful of phases — scheduler decisions, barrier
//! caps, the request build (with its nested plan rebuilds and demand-model
//! queries), the Λ solve, and the commit/integration step — and a tick
//! budget in the hundred-nanosecond range. Attributing wall time to those
//! phases is what turns "the engine is slow" into "62 % of the tick is
//! demand re-evaluation". A [`PhaseTimer`] owned by the machine records
//! calls and total ns per [`Phase`]; `run_spec_profiled` in the
//! experiments crate hands the result back with the run, and the ledger
//! benchmark reports it as its `sim.phase.*` metrics.
//!
//! Design constraints, in priority order:
//!
//! 1. **Byte-identity neutral.** The timer observes wall clocks only; it
//!    never reads or writes simulation state, and nothing it records
//!    enters the run codec. A profiled run is byte-identical to an
//!    unprofiled one (pinned by a proptest in the experiments crate).
//! 2. **Free when disabled.** [`PhaseTimer::begin`] compiles to a single
//!    well-predicted branch returning `None`; [`PhaseTimer::end`] to the
//!    matching branch on the token. No clock is read, nothing allocates.
//! 3. **Nestable and re-entrant.** Tokens are plain values: begin/end
//!    pairs may nest (an inner phase inside an outer one — durations are
//!    *inclusive* per phase) and interleave freely. Dropping a token
//!    without `end` simply records nothing.
//!
//! Timing granularity: `Instant::now()` costs ~20–40 ns on current
//! hardware, comparable to the cheapest phases it measures. Per-phase
//! *shares* remain faithful (every phase pays the same constant), but
//! absolute ns/call for sub-100 ns phases read high. The ledger's
//! `sim.profile_overhead_frac` measures that cost against an unprofiled
//! pass.

use std::time::Instant;

/// One engine phase, in tick-loop order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Scheduler consultation: `Scheduler::schedule` plus applying the
    /// returned decision (placement validation, preempt/place cycle).
    Schedule = 0,
    /// Barrier-cap rebuild at the top of every tick.
    Barrier = 1,
    /// The request build, once per tick: spin checks, cache-warmth
    /// multipliers and the request vector, inclusive of the nested
    /// [`Phase::Placement`] and [`Phase::Demand`] spans. (The name is kept
    /// from the replay fast path this build replaced, since the benchmark
    /// reports phases by name.)
    Replay = 2,
    /// Placement-plan rebuild: occupancy scan, SMT busy counts, and each
    /// placed thread's SMT factor, socket and remote share. Runs only when
    /// the placement changed (every tick under `ExecMode::PerTick`).
    Placement = 3,
    /// One demand-model re-query (`demand_at` plus `constant_for`), nested
    /// in the build: runs only for a thread whose cached demand reached
    /// its edge (every placed, non-spinning thread per tick under
    /// `ExecMode::PerTick`).
    Demand = 4,
    /// Bus arbitration: the memo probe and, on a miss, the saturated-Λ
    /// Newton solve (inline or out-of-line via a solver lane).
    Solve = 5,
    /// Tick commit: coarsening-window scan, progress integration, cache
    /// advance, bus accounting, and completion detection.
    Commit = 6,
    /// Trace/audit emission: structured-trace events and audit-hook
    /// callbacks (only timed while a tracer or hook is attached).
    Trace = 7,
}

impl Phase {
    /// Number of phases (array size for [`PhaseSet`]).
    pub(crate) const COUNT: usize = 8;

    /// Stable snake_case name (metric keys, JSON fields).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Schedule => "schedule",
            Phase::Barrier => "barrier",
            Phase::Replay => "replay",
            Phase::Placement => "placement",
            Phase::Demand => "demand",
            Phase::Solve => "solve",
            Phase::Commit => "commit",
            Phase::Trace => "trace",
        }
    }
}

/// Call count and total ns for one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Number of recorded begin/end pairs.
    pub calls: u64,
    /// Σ duration, ns (inclusive of nested phases).
    pub total_ns: u64,
}

impl PhaseStat {
    /// Record one duration. Zero-duration phases are legal.
    pub(crate) fn record_ns(&mut self, ns: u64) {
        self.calls += 1;
        self.total_ns += ns;
    }

    /// Fold another stat into this one.
    pub(crate) fn merge(&mut self, other: &PhaseStat) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
    }
}

/// Per-phase stats for a whole run (or several, after merging).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseSet {
    stats: [PhaseStat; Phase::COUNT],
}

impl PhaseSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one duration against `phase`.
    pub(crate) fn record_ns(&mut self, phase: Phase, ns: u64) {
        self.stats[phase as usize].record_ns(ns);
    }

    /// The stats of one phase.
    pub fn stat(&self, phase: Phase) -> &PhaseStat {
        &self.stats[phase as usize]
    }

    /// Fold another set into this one (cross-run aggregation).
    pub fn merge(&mut self, other: &PhaseSet) {
        for (a, b) in self.stats.iter_mut().zip(other.stats.iter()) {
            a.merge(b);
        }
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.stats.iter().all(|s| s.calls == 0)
    }
}

/// Opaque begin token: `Some(start)` while profiling, `None` when off.
pub(crate) type PhaseToken = Option<Instant>;

/// The engine's phase profiler: an enable flag plus a [`PhaseSet`].
///
/// See the module docs for the begin/end token protocol and the disabled
/// cost model.
#[derive(Debug, Clone, Default)]
pub(crate) struct PhaseTimer {
    enabled: bool,
    set: PhaseSet,
}

impl PhaseTimer {
    /// A disabled timer with empty stats.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Switch profiling on or off. Already-recorded stats are kept.
    pub(crate) fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Start timing a phase. One branch when disabled.
    #[inline]
    pub(crate) fn begin(&self) -> PhaseToken {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Finish timing: record the elapsed ns against `phase`. Tokens from
    /// a disabled `begin` record nothing, so toggling mid-run is safe.
    #[inline]
    pub(crate) fn end(&mut self, phase: Phase, token: PhaseToken) {
        if let Some(t0) = token {
            let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.set.record_ns(phase, ns);
        }
    }

    /// Take the recorded stats, leaving an empty set (enable flag kept).
    pub(crate) fn take(&mut self) -> PhaseSet {
        std::mem::take(&mut self.set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_timer_records_nothing() {
        let mut t = PhaseTimer::new();
        let tok = t.begin();
        assert!(tok.is_none());
        t.end(Phase::Solve, tok);
        assert!(t.set.is_empty());
    }

    #[test]
    fn enabled_timer_counts_calls_and_time() {
        let mut t = PhaseTimer::new();
        t.set_enabled(true);
        for _ in 0..5 {
            let tok = t.begin();
            t.end(Phase::Demand, tok);
        }
        let s = t.set.stat(Phase::Demand);
        assert_eq!(s.calls, 5);
        assert!(t.set.stat(Phase::Solve).calls == 0);
    }

    #[test]
    fn nested_phases_record_inclusively() {
        let mut t = PhaseTimer::new();
        t.set_enabled(true);
        let outer = t.begin();
        let inner = t.begin();
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(Phase::Solve, inner);
        t.end(Phase::Commit, outer);
        let solve = *t.set.stat(Phase::Solve);
        let commit = *t.set.stat(Phase::Commit);
        assert_eq!(solve.calls, 1);
        assert_eq!(commit.calls, 1);
        // The outer span contains the inner one.
        assert!(commit.total_ns >= solve.total_ns);
        assert!(solve.total_ns >= 2_000_000);
    }

    #[test]
    fn interleaved_reentrant_tokens_are_independent() {
        let mut t = PhaseTimer::new();
        t.set_enabled(true);
        // Two overlapping begin tokens for the *same* phase, ended out of
        // order — each records exactly once.
        let a = t.begin();
        let b = t.begin();
        t.end(Phase::Replay, a);
        t.end(Phase::Replay, b);
        assert_eq!(t.set.stat(Phase::Replay).calls, 2);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = PhaseSet::new();
        let mut b = PhaseSet::new();
        a.record_ns(Phase::Demand, 100);
        b.record_ns(Phase::Demand, 50);
        b.record_ns(Phase::Solve, 7);
        a.merge(&b);
        assert_eq!(a.stat(Phase::Demand).calls, 2);
        assert_eq!(a.stat(Phase::Demand).total_ns, 150);
        assert_eq!(a.stat(Phase::Solve).calls, 1);
        assert_eq!(a.stat(Phase::Solve).total_ns, 7);
        assert_eq!(a.stat(Phase::Commit).calls, 0);
    }

    #[test]
    fn toggling_mid_run_is_safe() {
        let mut t = PhaseTimer::new();
        t.set_enabled(true);
        let tok = t.begin();
        t.set_enabled(false);
        // Token predates the toggle: still records (it carries its own
        // clock), matching the documented token-value semantics.
        t.end(Phase::Barrier, tok);
        assert_eq!(t.set.stat(Phase::Barrier).calls, 1);
        // New tokens after the toggle are inert.
        let tok = t.begin();
        t.end(Phase::Barrier, tok);
        assert_eq!(t.set.stat(Phase::Barrier).calls, 1);
    }

    #[test]
    fn take_resets_stats_but_keeps_enablement() {
        let mut t = PhaseTimer::new();
        t.set_enabled(true);
        let tok = t.begin();
        t.end(Phase::Schedule, tok);
        let set = t.take();
        assert_eq!(set.stat(Phase::Schedule).calls, 1);
        assert!(t.set.is_empty());
        assert!(t.enabled);
    }
}
