//! The baseline: a Linux 2.4-class time-sharing scheduler, expressed as a
//! pinned-placement [`crate::pipeline::Selector`] plus presets.
//!
//! The paper compares against "the standard Linux scheduler" of kernel
//! 2.4.20. What matters for the comparison is reproduced here:
//!
//! * **per-thread time slices with epochs** — every runnable thread gets a
//!   slice (`counter`); when all runnable threads have exhausted theirs,
//!   a new epoch refills them;
//! * **dynamic priority** — the remaining slice *is* the priority
//!   (`goodness`), so threads that ran less recently win;
//! * **cache-affinity bias** — a thread whose previous cpu is available
//!   gets a goodness bonus on it, biasing the scheduler to keep threads
//!   where their cache state lives;
//! * **bandwidth obliviousness** — nothing in the selection looks at bus
//!   traffic (the preset stack uses the null estimator), so an application
//!   thread is happily co-scheduled with three BBMA streamers, which is
//!   precisely the pathology of §5;
//! * threads are scheduled **independently** (no gangs) — the selector
//!   returns a pinned thread→cpu schedule, bypassing admission and
//!   placement.
//!
//! The model is a global-queue approximation of the per-cpu O(n) 2.4
//! scheduler, invoked every `quantum_us` (the paper states the Linux
//! quantum is half the CPU manager's 200 ms quantum).

use std::collections::BTreeMap;

use busbw_sim::{AppId, Assignment, CpuId, SimTime, ThreadId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::pipeline::{
    NullEstimator, Open, PackedPlacer, PolicyStack, Selection, Selector, StageCtx,
};
use crate::selection::Candidate;

/// Baseline configuration.
#[derive(Debug, Clone, Copy)]
pub struct LinuxConfig {
    /// Scheduling quantum (epoch slice), µs. The paper: 100 ms.
    pub quantum_us: u64,
    /// Goodness bonus (in slice-µs) for staying on the previous cpu.
    /// Linux 2.4's `PROC_CHANGE_PENALTY` plays the same role.
    pub(crate) affinity_bonus_us: i64,
    /// Stagger threads' *initial* slices deterministically so slice
    /// expiries desynchronize across threads. On a real multiprogrammed
    /// system threads never join the runqueue at the same instant (runtime
    /// start-up, page faults, connection handshakes); the simulator's
    /// exact t=0 alignment is an artifact that would otherwise make the
    /// baseline accidentally gang-schedule sibling threads forever.
    pub(crate) stagger_start: bool,
    /// Amplitude (µs of goodness) of per-decision selection noise, and the
    /// reason it exists: a real kernel's selection order is perturbed by
    /// unsynchronized per-cpu timer interrupts, page faults, and
    /// load-balancer churn, so the set of threads co-running varies from
    /// quantum to quantum. A noiseless global model instead locks into one
    /// fixed co-run pattern — often an accidentally optimal one. The noise
    /// is seeded and deterministic per run. Set 0 to disable.
    pub(crate) selection_jitter_us: i64,
    /// Seed for the selection noise.
    pub(crate) jitter_seed: u64,
}

impl Default for LinuxConfig {
    fn default() -> Self {
        Self {
            quantum_us: 100_000,
            affinity_bonus_us: 15_000,
            stagger_start: true,
            selection_jitter_us: 40_000,
            jitter_seed: 0x1234_5678,
        }
    }
}

/// The Linux-2.4 epoch/goodness selection as a pipeline stage: scores
/// every (free cpu, runnable thread) pair by remaining slice + affinity
/// bonus + seeded jitter and returns a [`Selection::Pinned`] schedule.
pub struct LinuxEpochSelector {
    cfg: LinuxConfig,
    /// Remaining slice per thread (µs). May go slightly negative when a
    /// thread runs past its slice inside one scheduler interval.
    slices: BTreeMap<ThreadId, i64>,
    /// Threads that ran in the last interval (to charge their slices).
    last_running: Vec<ThreadId>,
    last_at_us: SimTime,
    /// Epochs completed (visible for tests/diagnostics).
    epochs: u64,
    rng: StdRng,
}

impl LinuxEpochSelector {
    /// Selector with the paper's parameters.
    pub fn new() -> Self {
        Self::with_config(LinuxConfig::default())
    }

    /// Selector with custom parameters.
    ///
    /// # Panics
    /// Panics if the quantum is zero.
    pub(crate) fn with_config(cfg: LinuxConfig) -> Self {
        assert!(cfg.quantum_us > 0, "quantum must be positive");
        Self {
            cfg,
            slices: BTreeMap::new(),
            last_running: Vec::new(),
            last_at_us: 0,
            epochs: 0,
            rng: StdRng::seed_from_u64(cfg.jitter_seed),
        }
    }

    /// Number of epochs (global slice refills) so far.
    #[cfg(test)]
    pub(crate) fn epochs(&self) -> u64 {
        self.epochs
    }
}

impl Default for LinuxEpochSelector {
    fn default() -> Self {
        Self::new()
    }
}

impl Selector for LinuxEpochSelector {
    fn label(&self) -> &'static str {
        "linux-epoch"
    }

    fn select(
        &mut self,
        ctx: &StageCtx<'_, '_>,
        _cands: &[Candidate<AppId>],
        _admitted: &[usize],
        _free: usize,
    ) -> Selection {
        let view = ctx.view;
        // Charge the threads that ran since the last invocation.
        let ran_for = (view.now - self.last_at_us) as i64;
        for t in &self.last_running {
            if let Some(s) = self.slices.get_mut(t) {
                *s -= ran_for;
            }
        }
        self.last_at_us = view.now;

        // Runnable thread set (drop finished threads' slices).
        let runnable: Vec<ThreadId> = view
            .threads()
            .filter(|t| t.is_runnable())
            .map(|t| t.id)
            .collect();
        self.slices.retain(|t, _| runnable.contains(t));
        for &t in &runnable {
            let initial = if self.cfg.stagger_start {
                // Deterministic per-thread fraction in [0.25, 1.0) of a
                // full quantum (see `LinuxConfig::stagger_start`).
                let h = t.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                let frac = 0.25 + 0.75 * (h as f64 / (1u64 << 24) as f64);
                (self.cfg.quantum_us as f64 * frac) as i64
            } else {
                self.cfg.quantum_us as i64
            };
            self.slices.entry(t).or_insert(initial);
        }

        // Epoch: when every runnable thread has exhausted its slice,
        // refill. (2.4 also gives sleepers half their leftover; all our
        // threads are cpu-bound, so plain refill is equivalent.)
        if !runnable.is_empty() && self.slices.values().all(|&s| s <= 0) {
            for s in self.slices.values_mut() {
                *s = self.cfg.quantum_us as i64;
            }
            self.epochs += 1;
        }

        // Selection: per cpu, pick the thread with the best goodness =
        // remaining slice + affinity bonus (if this cpu was its last).
        // Greedy over cpus in index order; deterministic tie-break by
        // thread id. Threads with exhausted slices still run if cpus are
        // left over (work conserving, as in 2.4 within an epoch).
        let mut free_cpus: Vec<CpuId> = (0..view.num_cpus).map(CpuId).collect();
        let mut available: Vec<ThreadId> = runnable.clone();
        let mut assignments = Vec::new();
        while !free_cpus.is_empty() && !available.is_empty() {
            // Pick globally best (cpu, thread) pair first so affinity
            // matches are honored before generic placements.
            let mut best: Option<(i64, usize, usize)> = None; // (goodness, cpu_idx, thr_idx)
            for (ci, &cpu) in free_cpus.iter().enumerate() {
                for (ti, &tid) in available.iter().enumerate() {
                    let info = view.thread(tid).expect("runnable thread exists");
                    let mut g = self.slices[&tid];
                    if info.last_cpu == Some(cpu) {
                        g += self.cfg.affinity_bonus_us;
                    }
                    if self.cfg.selection_jitter_us > 0 {
                        g += self.rng.gen_range(0..=self.cfg.selection_jitter_us);
                    }
                    let better = match best {
                        None => true,
                        Some((bg, _, _)) => g > bg,
                    };
                    if better {
                        best = Some((g, ci, ti));
                    }
                }
            }
            let (_, ci, ti) = best.expect("loop guards non-empty");
            let cpu = free_cpus.remove(ci);
            let tid = available.remove(ti);
            assignments.push(Assignment { thread: tid, cpu });
        }

        self.last_running = assignments.iter().map(|a| a.thread).collect();
        Selection::Pinned(assignments)
    }
}

/// The Linux-2.4-like baseline as a policy stack, with the paper's
/// parameters: no estimation, open admission, epoch/goodness pinned
/// selection every 100 ms.
pub fn linux_like() -> PolicyStack {
    linux_like_with_config(LinuxConfig::default())
}

/// [`linux_like`] with custom parameters.
pub(crate) fn linux_like_with_config(cfg: LinuxConfig) -> PolicyStack {
    PolicyStack::new(
        "Linux",
        cfg.quantum_us,
        Box::new(NullEstimator),
        Box::new(Open),
        Box::new(LinuxEpochSelector::with_config(cfg)),
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
    use std::collections::BTreeMap as Map;

    fn add(m: &mut Machine, name: &str, n: usize, rate: f64, mu: f64, work: f64) -> AppId {
        let threads = (0..n)
            .map(|_| ThreadSpec::new(work, Box::new(ConstantDemand::new(rate, mu))))
            .collect();
        m.add_app(AppDescriptor::new(name, threads))
    }

    #[test]
    fn four_threads_four_cpus_all_run_continuously() {
        let mut m = Machine::new(XEON_4WAY);
        let a = add(&mut m, "a", 4, 0.5, 0.1, 300_000.0);
        let mut s = linux_like();
        let out = m.run(&mut s, StopCondition::AppsFinished(vec![a]));
        assert!(out.condition_met);
        let t = m.turnaround_us(a).unwrap();
        assert!(t < 330_000, "no time-sharing needed, got {t}");
    }

    #[test]
    fn eight_threads_time_share_fairly() {
        let mut m = Machine::new(XEON_4WAY);
        // 8 identical cpu-bound threads on 4 cpus → everyone should get
        // ~half the cpu over a long horizon.
        for i in 0..4 {
            add(&mut m, &format!("a{i}"), 2, 0.2, 0.05, f64::INFINITY);
        }
        // Drive the bare selector so the epoch counter stays observable.
        let mut s = SoloSelector::new(LinuxEpochSelector::new(), LinuxConfig::default().quantum_us);
        let horizon = 4_000_000;
        m.run(&mut s, StopCondition::At(horizon));
        let v = m.view();
        for t in v.threads() {
            let share = t.progress_us / horizon as f64;
            assert!(
                (0.40..0.60).contains(&share),
                "thread {} got cpu share {share}",
                t.id
            );
        }
        assert!(
            s.selector().epochs() > 5,
            "epochs {}",
            s.selector().epochs()
        );
    }

    #[test]
    fn affinity_keeps_threads_on_their_cpus_when_uncontended() {
        let mut m = Machine::new(XEON_4WAY);
        add(&mut m, "a", 4, 0.5, 0.1, f64::INFINITY);
        // Isolate the affinity mechanism: no selection noise.
        let mut s = linux_like_with_config(LinuxConfig {
            selection_jitter_us: 0,
            ..LinuxConfig::default()
        });
        let d1 = s.schedule(&m.view());
        let first: Map<_, _> = d1.assignments.iter().map(|a| (a.thread, a.cpu)).collect();
        let _ = m.run(
            &mut busbw_sim::testkit::Replay::new(d1),
            StopCondition::At(m.now() + 100_000),
        );
        for _ in 0..5 {
            let d = s.schedule(&m.view());
            for a in &d.assignments {
                assert_eq!(first[&a.thread], a.cpu, "uncontended thread migrated");
            }
            let _ = m.run(
                &mut busbw_sim::testkit::Replay::new(d),
                StopCondition::At(m.now() + 100_000),
            );
        }
    }

    #[test]
    fn scheduler_is_bandwidth_oblivious() {
        // A heavy streamer and a light thread are scheduled purely by
        // slice, never by bandwidth: with 2 threads and 4 cpus both always
        // run, regardless of bus pressure.
        let mut m = Machine::new(XEON_4WAY);
        add(&mut m, "heavy", 1, 23.6, 0.98, f64::INFINITY);
        add(&mut m, "light", 1, 0.01, 0.01, f64::INFINITY);
        let mut s = linux_like();
        let d = s.schedule(&m.view());
        assert_eq!(d.assignments.len(), 2);
    }

    #[test]
    fn no_gang_semantics_partial_apps_run() {
        let mut m = Machine::new(XEON_4WAY);
        // Two 3-thread apps: 6 threads on 4 cpus. The top-4-by-slice pick
        // necessarily splits a gang (3 + 1) — something the paper's gang
        // policies never do.
        for i in 0..2 {
            add(&mut m, &format!("a{i}"), 3, 1.0, 0.2, f64::INFINITY);
        }
        let mut s = linux_like();
        let mut saw_partial = false;
        for _ in 0..10 {
            let d = s.schedule(&m.view());
            let mut per_app: Map<AppId, usize> = Map::new();
            for a in &d.assignments {
                let info = m.view().thread(a.thread).unwrap();
                *per_app.entry(info.app).or_default() += 1;
            }
            if per_app.values().any(|&n| n > 0 && n < 3) {
                saw_partial = true;
            }
            let _ = m.run(
                &mut busbw_sim::testkit::Replay::new(d),
                StopCondition::At(m.now() + 100_000),
            );
        }
        assert!(saw_partial, "expected at least one split gang");
    }

    #[test]
    fn finished_threads_leave_the_queue() {
        let mut m = Machine::new(XEON_4WAY);
        let short = add(&mut m, "short", 4, 0.5, 0.1, 50_000.0);
        let long = add(&mut m, "long", 4, 0.5, 0.1, 400_000.0);
        let mut s = linux_like();
        let out = m.run(&mut s, StopCondition::AppsFinished(vec![short, long]));
        assert!(out.condition_met);
        // Once `short` exits, `long` owns the machine: total runtime well
        // under full 2× time sharing.
        let t = m.turnaround_us(long).unwrap();
        assert!(t < 600_000, "long turnaround {t}");
    }

    #[test]
    fn preset_reports_linux_name_and_stage_labels() {
        let s = linux_like();
        assert_eq!(s.name(), "Linux");
        assert_eq!(s.stage_labels(), ["Null", "open", "linux-epoch", "packed"]);
    }
}
