//! Small helpers for driving a [`Machine`](crate::Machine) in tests and
//! experiments.

use crate::machine::{Decision, MachineView, Scheduler};

/// A scheduler that applies one pre-built [`Decision`] and then idles.
///
/// Lets a test (or a step-by-step experiment driver) compute a decision
/// with the policy under test, inspect it, and then advance the machine by
/// exactly one quantum with it:
///
/// ```
/// use busbw_sim::testkit::Replay;
/// use busbw_sim::{
///     AppDescriptor, Assignment, ConstantDemand, CpuId, Decision, Machine, StopCondition,
///     ThreadId, ThreadSpec, XEON_4WAY,
/// };
///
/// let mut machine = Machine::new(XEON_4WAY);
/// let demand = Box::new(ConstantDemand::new(1.0, 0.5));
/// let threads = vec![ThreadSpec::new(f64::INFINITY, demand)];
/// machine.add_app(AppDescriptor::new("app", threads));
/// // The decision under test: the app's one thread on cpu 0 for 200 ms.
/// let d = Decision {
///     assignments: vec![Assignment { thread: ThreadId(0), cpu: CpuId(0) }],
///     next_resched_in_us: 200_000,
///     sample_period_us: None,
/// };
/// let stop = StopCondition::At(machine.now() + 200_000);
/// assert!(machine.run(&mut Replay::new(d), stop).condition_met);
/// let ran = machine.view().thread(ThreadId(0)).unwrap().progress_us;
/// assert!(ran > 0.0, "the replayed decision ran the thread");
/// ```
pub struct Replay {
    decision: Option<Decision>,
    idle_quantum_us: u64,
}

impl Replay {
    /// Replay `decision` once; idle afterwards.
    pub fn new(decision: Decision) -> Self {
        let idle_quantum_us = decision.next_resched_in_us;
        Self {
            decision: Some(decision),
            idle_quantum_us,
        }
    }
}

impl Scheduler for Replay {
    fn schedule(&mut self, _view: &MachineView<'_>) -> Decision {
        self.decision
            .take()
            .unwrap_or(Decision::idle(self.idle_quantum_us))
    }

    fn name(&self) -> &str {
        "replay"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::XEON_4WAY;
    use crate::demand::ConstantDemand;
    use crate::ids::CpuId;
    use crate::machine::{AppDescriptor, Assignment, Machine, StopCondition};
    use crate::thread::ThreadSpec;

    #[test]
    fn replay_applies_once_then_idles() {
        let mut m = Machine::new(XEON_4WAY);
        let _a = m.add_app(AppDescriptor::new(
            "a",
            vec![ThreadSpec::new(
                f64::INFINITY,
                Box::new(ConstantDemand::new(1.0, 0.5)),
            )],
        ));
        let d = Decision {
            assignments: vec![Assignment {
                thread: crate::ids::ThreadId(0),
                cpu: CpuId(0),
            }],
            next_resched_in_us: 100_000,
            sample_period_us: None,
        };
        // One quantum runs the thread; the idle decision then preempts it.
        let out = m.run(&mut Replay::new(d), StopCondition::At(250_000));
        assert!(out.condition_met);
        let progress = m
            .view()
            .thread(crate::ids::ThreadId(0))
            .unwrap()
            .progress_us;
        assert!(
            (90_000.0..130_000.0).contains(&progress),
            "ran ~one quantum, got {progress}"
        );
    }
}
