//! Simulated threads: specification and runtime state.

use crate::demand::{Demand, DemandModel};
use crate::ids::{AppId, CpuId, SimTime, ThreadId};

/// How a thread is created: its work volume and demand behaviour.
pub struct ThreadSpec {
    /// Total useful work in virtual µs. `f64::INFINITY` makes a
    /// run-forever thread (the microbenchmarks in the paper's workloads run
    /// until the measured applications finish).
    pub work_us: f64,
    /// The demand model (solo bus rate + memory-boundness over time).
    pub model: Box<dyn DemandModel>,
    /// Cache sensitivity in `[0, 1]`: how much speed the thread loses when
    /// running fully cold (see `crate::cache`). LU CB-class codes are
    /// high; streaming microbenchmarks are 0.
    pub cache_sensitivity: f64,
}

impl ThreadSpec {
    /// A thread with the given work and model, zero cache sensitivity.
    pub fn new(work_us: f64, model: Box<dyn DemandModel>) -> Self {
        Self {
            work_us,
            model,
            cache_sensitivity: 0.0,
        }
    }

    /// Set the cache sensitivity.
    pub fn with_cache_sensitivity(mut self, s: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&s),
            "cache sensitivity must be in [0,1]"
        );
        self.cache_sensitivity = s;
        self
    }
}

/// Scheduling state of a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Runnable but not placed on a cpu.
    Ready,
    /// Executing on the given cpu.
    Running(CpuId),
    /// All work complete.
    Finished,
}

impl ThreadState {
    /// Whether the thread can be placed on a cpu.
    pub(crate) fn is_runnable(self) -> bool {
        matches!(self, ThreadState::Ready | ThreadState::Running(_))
    }
}

/// Runtime state of one simulated thread (internal to the machine).
#[derive(Clone)]
pub(crate) struct SimThread {
    pub(crate) id: ThreadId,
    pub(crate) app: AppId,
    pub(crate) work_us: f64,
    pub(crate) model: Box<dyn DemandModel>,
    pub(crate) cache_sensitivity: f64,
    /// Completed useful work, virtual µs.
    pub(crate) progress_us: f64,
    pub(crate) state: ThreadState,
    /// Last cpu the thread ran on (affinity hint).
    pub(crate) last_cpu: Option<CpuId>,
    /// The socket this thread's memory lives on: fixed at first
    /// placement (first-touch allocation). Traffic from other sockets
    /// crosses the interconnect in full; even at home a configured
    /// fraction does (see [`crate::config::TopologyConfig`]).
    pub(crate) home_socket: Option<usize>,
    /// Wall time at which the thread finished, if it has.
    pub(crate) finished_at: Option<SimTime>,
    /// The model's last answer, cached until progress reaches
    /// `demand_virt_edge` or the wall clock reaches `demand_wall_edge`
    /// (see [`SimThread::demand_holds`]).
    pub(crate) demand: Demand,
    pub(crate) demand_virt_edge: f64,
    pub(crate) demand_wall_edge: f64,
}

impl SimThread {
    pub(crate) fn new(id: ThreadId, app: AppId, spec: ThreadSpec) -> Self {
        assert!(spec.work_us > 0.0, "thread work must be positive");
        Self {
            id,
            app,
            work_us: spec.work_us,
            model: spec.model,
            cache_sensitivity: spec.cache_sensitivity,
            progress_us: 0.0,
            state: ThreadState::Ready,
            last_cpu: None,
            home_socket: None,
            finished_at: None,
            demand: Demand::ZERO,
            demand_virt_edge: f64::NEG_INFINITY,
            demand_wall_edge: f64::NEG_INFINITY,
        }
    }

    /// Remaining useful work, virtual µs.
    pub(crate) fn remaining_us(&self) -> f64 {
        (self.work_us - self.progress_us).max(0.0)
    }

    /// Whether the cached demand still answers for the current progress
    /// and wall clock `now`: both are strictly below their edges, so the
    /// model's `constant_for` promised no change since it was queried.
    #[inline]
    pub(crate) fn demand_holds(&self, now: SimTime) -> bool {
        self.progress_us < self.demand_virt_edge && (now as f64) < self.demand_wall_edge
    }

    /// Query the model at the current progress and `now` and cache the
    /// answer with the guarded edges of its constant region.
    pub(crate) fn query_demand(&mut self, now: SimTime) -> Demand {
        let d = self.model.demand_at(self.progress_us, now);
        let (virt_h, wall_h) = self.model.constant_for(self.progress_us, now);
        self.demand = d;
        self.demand_virt_edge = guard_edge(self.progress_us + virt_h);
        self.demand_wall_edge = guard_edge(now as f64 + wall_h);
        d
    }

    /// Drop the cached demand: the next request build re-queries the
    /// model.
    pub(crate) fn expire_demand(&mut self) {
        self.demand_virt_edge = f64::NEG_INFINITY;
    }
}

/// Pull a change edge strictly below itself by a relative + absolute
/// margin. The margins dwarf the few-ulp rounding of `now + horizon`, so
/// a cached demand is never used *past* its true change point — at worst
/// the model is re-queried one tick early, which is always byte-safe.
/// Integer-valued edges (the burst process's switch instant) lose
/// nothing: for integers `now < edge − ε ⇔ now < edge` whenever ε < 1.
#[inline]
fn guard_edge(edge: f64) -> f64 {
    if edge.is_finite() {
        edge - (1e-9 + 1e-12 * edge.abs())
    } else {
        edge
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::ConstantDemand;

    #[test]
    fn state_helpers() {
        assert!(ThreadState::Ready.is_runnable());
        assert!(ThreadState::Running(CpuId(1)).is_runnable());
        assert!(!ThreadState::Finished.is_runnable());
    }

    #[test]
    fn spec_builder_validates_sensitivity() {
        let s = ThreadSpec::new(10.0, Box::new(ConstantDemand::new(1.0, 0.5)))
            .with_cache_sensitivity(0.3);
        assert_eq!(s.cache_sensitivity, 0.3);
    }

    #[test]
    #[should_panic(expected = "cache sensitivity")]
    fn out_of_range_sensitivity_panics() {
        let _ = ThreadSpec::new(10.0, Box::new(ConstantDemand::new(1.0, 0.5)))
            .with_cache_sensitivity(1.5);
    }

    #[test]
    fn remaining_work_never_negative() {
        let mut t = SimThread::new(
            ThreadId(0),
            AppId(0),
            ThreadSpec::new(5.0, Box::new(ConstantDemand::new(0.0, 0.0))),
        );
        t.progress_us = 7.0;
        assert_eq!(t.remaining_us(), 0.0);
    }
}
