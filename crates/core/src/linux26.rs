//! A second baseline: the Linux 2.6 O(1)-class scheduler, expressed as a
//! pinned-placement [`crate::pipeline::Selector`] plus presets.
//!
//! The paper compares against 2.4; by the time of publication the O(1)
//! scheduler (per-cpu runqueues, active/expired priority arrays, periodic
//! load balancing) was replacing it. Reproducing it answers a natural
//! reviewer question — *does the win survive a stronger baseline?* — and
//! exercises a genuinely different scheduling structure:
//!
//! * **per-cpu runqueues**: each cpu schedules independently from its own
//!   queue; threads have a home cpu and no global goodness scan exists;
//! * **active/expired arrays**: a thread that exhausts its timeslice moves
//!   to the expired array of its cpu; when the active array drains, the
//!   arrays swap (per-cpu epochs — unlike 2.4's global epoch);
//! * **load balancing**: periodically, an underloaded cpu pulls runnable
//!   threads from the busiest cpu's queue (migration — with the cache
//!   consequences the simulator models).
//!
//! Like its 2.4 sibling this baseline is bandwidth-oblivious and splits
//! gangs freely. Timeslices are 100 ms static (the O(1) scheduler's
//! `DEF_TIMESLICE` neighborhood for default-nice cpu hogs).

use std::collections::BTreeMap;

use busbw_sim::{AppId, Assignment, CpuId, SimTime, ThreadId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::pipeline::{
    NullEstimator, Open, PackedPlacer, PolicyStack, Selection, Selector, StageCtx,
};
use crate::selection::Candidate;

/// Static timeslice, µs.
const TIMESLICE_US: i64 = 100_000;
/// Scheduler invocation period, µs (per-cpu preemption granularity — the
/// tick at which expired slices are acted on).
const PERIOD_US: u64 = 20_000;
/// Load-balance period, µs.
const BALANCE_PERIOD_US: u64 = 200_000;
/// Imbalance threshold: pull only if the busiest queue has at least this
/// many more runnable threads than ours.
const IMBALANCE_THRESHOLD: usize = 2;
/// Seed for arrival placement of new threads (round-robin with a seeded
/// tiebreak, standing in for fork-time balancing noise).
const SEED: u64 = 0x51ED;

struct PerCpu {
    /// Active array: (remaining slice µs, thread), FIFO per priority —
    /// one priority level here since every thread is a default-nice hog.
    active: Vec<(i64, ThreadId)>,
    expired: Vec<ThreadId>,
    current: Option<ThreadId>,
}

impl PerCpu {
    fn new() -> Self {
        Self {
            active: Vec::new(),
            expired: Vec::new(),
            current: None,
        }
    }

    fn runnable_count(&self) -> usize {
        self.active.len() + self.expired.len() + usize::from(self.current.is_some())
    }
}

/// The O(1) per-cpu runqueue machinery as a pipeline stage: charges
/// slices, swaps active/expired arrays, load-balances, and returns a
/// [`Selection::Pinned`] schedule (each cpu's current thread).
pub(crate) struct LinuxO1Selector {
    cpus: Vec<PerCpu>,
    /// Remaining slice of the thread currently on each cpu.
    current_slice: BTreeMap<ThreadId, i64>,
    known: std::collections::BTreeSet<ThreadId>,
    last_at_us: SimTime,
    next_balance_us: SimTime,
    rng: StdRng,
    /// Migrations performed by the load balancer (diagnostics).
    migrations: u64,
}

impl LinuxO1Selector {
    /// A selector with no threads seen yet.
    pub(crate) fn new() -> Self {
        Self {
            rng: StdRng::seed_from_u64(SEED),
            cpus: Vec::new(),
            current_slice: BTreeMap::new(),
            known: Default::default(),
            last_at_us: 0,
            next_balance_us: 0,
            migrations: 0,
        }
    }

    /// Load-balancer migrations so far.
    #[cfg(test)]
    pub(crate) fn migrations(&self) -> u64 {
        self.migrations
    }

    fn ensure_cpus(&mut self, n: usize) {
        while self.cpus.len() < n {
            self.cpus.push(PerCpu::new());
        }
    }

    /// Enqueue a newly seen thread on the least-loaded cpu (seeded
    /// tiebreak).
    fn enqueue_new(&mut self, t: ThreadId) {
        let min = self
            .cpus
            .iter()
            .map(|c| c.runnable_count())
            .min()
            .unwrap_or(0);
        let candidates: Vec<usize> = self
            .cpus
            .iter()
            .enumerate()
            .filter(|(_, c)| c.runnable_count() == min)
            .map(|(i, _)| i)
            .collect();
        let pick = candidates[self.rng.gen_range(0..candidates.len())];
        self.cpus[pick].active.push((TIMESLICE_US, t));
    }

    fn balance(&mut self) {
        let loads: Vec<usize> = self.cpus.iter().map(|c| c.runnable_count()).collect();
        let (busiest, &max) = loads
            .iter()
            .enumerate()
            .max_by_key(|&(_, l)| *l)
            .expect("cpus exist");
        let (idlest, &min) = loads
            .iter()
            .enumerate()
            .min_by_key(|&(_, l)| *l)
            .expect("cpus exist");
        if max >= min + IMBALANCE_THRESHOLD {
            // Pull one queued (not current) thread; prefer expired ones
            // (they are furthest from running anyway — cheapest to move).
            let src = &mut self.cpus[busiest];
            let moved = if let Some(t) = src.expired.pop() {
                Some((TIMESLICE_US, t))
            } else {
                src.active.pop()
            };
            if let Some(e) = moved {
                self.cpus[idlest].active.push(e);
                self.migrations += 1;
            }
        }
    }
}

impl Default for LinuxO1Selector {
    fn default() -> Self {
        Self::new()
    }
}

impl Selector for LinuxO1Selector {
    fn label(&self) -> &'static str {
        "linux-o1"
    }

    fn select(
        &mut self,
        ctx: &StageCtx<'_, '_>,
        _cands: &[Candidate<AppId>],
        _admitted: &[usize],
        _free: usize,
    ) -> Selection {
        let view = ctx.view;
        self.ensure_cpus(view.num_cpus);
        let dt = (view.now - self.last_at_us) as i64;
        self.last_at_us = view.now;

        // Charge running threads.
        for c in &mut self.cpus {
            if let Some(t) = c.current {
                if let Some(s) = self.current_slice.get_mut(&t) {
                    *s -= dt;
                }
            }
        }

        // Remove finished threads everywhere.
        let runnable: std::collections::BTreeSet<ThreadId> = view
            .threads()
            .filter(|t| t.is_runnable())
            .map(|t| t.id)
            .collect();
        for c in &mut self.cpus {
            c.active.retain(|(_, t)| runnable.contains(t));
            c.expired.retain(|t| runnable.contains(t));
            if let Some(t) = c.current {
                if !runnable.contains(&t) {
                    c.current = None;
                    self.current_slice.remove(&t);
                }
            }
        }
        self.known.retain(|t| runnable.contains(t));

        // Enqueue newly arrived threads.
        let new: Vec<ThreadId> = runnable
            .iter()
            .copied()
            .filter(|t| !self.known.contains(t))
            .collect();
        for t in new {
            self.known.insert(t);
            self.enqueue_new(t);
        }

        // Per-cpu scheduling: expire the current thread when its slice is
        // gone, pick the next from the active array, swap arrays when
        // drained.
        for c in self.cpus.iter_mut() {
            if let Some(t) = c.current {
                let slice = self.current_slice.get(&t).copied().unwrap_or(0);
                if slice <= 0 {
                    c.expired.push(t);
                    c.current = None;
                    self.current_slice.remove(&t);
                }
            }
            if c.current.is_none() {
                if c.active.is_empty() && !c.expired.is_empty() {
                    // Array swap: the per-cpu epoch.
                    c.active = c.expired.drain(..).map(|t| (TIMESLICE_US, t)).collect();
                }
                if let Some((slice, t)) = c.active.pop() {
                    c.current = Some(t);
                    self.current_slice.insert(t, slice);
                }
            }
        }

        // Periodic load balancing.
        if view.now >= self.next_balance_us {
            self.balance();
            self.next_balance_us = view.now + BALANCE_PERIOD_US;
        }

        let assignments = self
            .cpus
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                c.current.map(|t| Assignment {
                    thread: t,
                    cpu: CpuId(i),
                })
            })
            .collect();
        Selection::Pinned(assignments)
    }
}

/// The Linux-2.6 O(1) baseline as a policy stack: no estimation, open
/// admission, per-cpu runqueue pinned selection every 20 ms.
pub fn linux_o1() -> PolicyStack {
    PolicyStack::new(
        "LinuxO1",
        PERIOD_US,
        Box::new(NullEstimator),
        Box::new(Open),
        Box::new(LinuxO1Selector::new()),
        Box::new(PackedPlacer),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::SoloSelector;
    use busbw_sim::{
        AppDescriptor, ConstantDemand, Machine, Scheduler, StopCondition, ThreadSpec, XEON_4WAY,
    };

    fn add(m: &mut Machine, name: &str, n: usize, work: f64) -> AppId {
        let threads = (0..n)
            .map(|_| ThreadSpec::new(work, Box::new(ConstantDemand::new(0.5, 0.1))))
            .collect();
        m.add_app(AppDescriptor::new(name, threads))
    }

    #[test]
    fn four_threads_run_continuously() {
        let mut m = Machine::new(XEON_4WAY);
        let a = add(&mut m, "a", 4, 300_000.0);
        let mut s = linux_o1();
        let out = m.run(&mut s, StopCondition::AppsFinished(vec![a]));
        assert!(out.condition_met);
        assert!(m.turnaround_us(a).unwrap() < 340_000);
    }

    #[test]
    fn eight_threads_share_fairly_via_array_swaps() {
        let mut m = Machine::new(XEON_4WAY);
        for i in 0..4 {
            add(&mut m, &format!("a{i}"), 2, f64::INFINITY);
        }
        let mut s = linux_o1();
        let horizon = 4_000_000;
        m.run(&mut s, StopCondition::At(horizon));
        let v = m.view();
        for t in v.threads() {
            let share = t.progress_us / horizon as f64;
            assert!(
                (0.30..0.70).contains(&share),
                "thread {} share {share}",
                t.id
            );
        }
    }

    #[test]
    fn load_balancer_fixes_skewed_queues() {
        // 5 threads: initial placement leaves some cpu with 2+ while
        // another may go idle once work finishes; the balancer must act.
        let mut m = Machine::new(XEON_4WAY);
        add(&mut m, "wide", 5, f64::INFINITY);
        let mut s = linux_o1();
        m.run(&mut s, StopCondition::At(3_000_000));
        // 5 threads on 4 cpus: everyone must have run.
        let v = m.view();
        for t in v.threads() {
            assert!(t.progress_us > 0.0, "thread {} starved", t.id);
        }
    }

    #[test]
    fn balancer_migrations_are_counted() {
        let mut m = Machine::new(XEON_4WAY);
        add(&mut m, "many", 8, f64::INFINITY);
        // Drive the bare selector so the migration counter stays
        // observable.
        let mut s = SoloSelector::new(LinuxO1Selector::new(), PERIOD_US);
        m.run(&mut s, StopCondition::At(2_000_000));
        // With random initial placement of 8 threads, some imbalance is
        // essentially certain; the balancer runs 10 times over 2 s.
        // (Tolerate 0 for the unlucky perfectly-balanced seed.)
        assert!(
            s.selector().migrations() < 50,
            "balancer thrashing: {}",
            s.selector().migrations()
        );
    }

    #[test]
    fn finished_threads_leave_their_queues() {
        let mut m = Machine::new(XEON_4WAY);
        let short = add(&mut m, "short", 4, 50_000.0);
        let long = add(&mut m, "long", 4, 400_000.0);
        let mut s = linux_o1();
        let out = m.run(&mut s, StopCondition::AppsFinished(vec![short, long]));
        assert!(out.condition_met);
        assert!(m.turnaround_us(long).unwrap() < 900_000);
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut m = Machine::new(XEON_4WAY);
            let a = add(&mut m, "a", 2, 400_000.0);
            add(&mut m, "bg", 4, f64::INFINITY);
            let mut s = linux_o1();
            m.run(&mut s, StopCondition::AppsFinished(vec![a]));
            m.turnaround_us(a).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn preset_reports_o1_name_and_stage_labels() {
        let s = linux_o1();
        assert_eq!(s.name(), "LinuxO1");
        assert_eq!(s.stage_labels(), ["Null", "open", "linux-o1", "packed"]);
    }
}
