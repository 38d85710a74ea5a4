//! How far each thread of a decision can progress over the coming
//! quantum, bounded from a paused machine without advancing it.
//!
//! A placed thread's speed in a tick is its bus speed × its cache speed
//! × its SMT factor, each at most 1. A [`ProgressCeiling`] bounds the
//! first two from the machine's state at the scheduling point:
//!
//! * **Cache ramp.** The thread keeps its cpu for the whole quantum and
//!   nothing else runs there, so its warmth only rises, along
//!   `w(t) = 1 − (1 − w₀)·e^(−t/τ)`, and its cache speed stays at or
//!   below `1 − a·e^(−t/τ)` with `a = sensitivity × (1 − w₀)`. The
//!   machine reads the warmth at the start of each tick, which is lower
//!   still; the warmth snap and the 0.05 speed floor are folded in
//!   below.
//! * **Bus floor.** Under the bus's dilation floor (`Bus::dilation_floor`)
//!   of the placed set's current, unboosted demand, `λ_min`, the thread
//!   runs at most `1/((1 − µ) + µ·λ_min)`. That holds only while the
//!   request set keeps at least that demand: in the *window* before any
//!   placed thread can finish, start spinning at a barrier, or change
//!   its demand. A tick that starts inside the window is dilated by at
//!   least `λ_min` for its whole length; after the window only `Λ ≥ 1`
//!   is known.

use crate::bus::{dilated_speed, BusRequest};
use crate::cache::WARMTH_SNAP;
use crate::ids::ThreadId;
use crate::thread::ThreadState;

use super::{Decision, Machine};

/// Margin of the window guards, µs of progress: it keeps each guard's
/// strict inequality against float error in the progress a window's
/// ticks add up.
const GUARD_MARGIN_US: f64 = 1.0;

/// The cache speed never falls below this (see `CacheState`), so at most
/// this much of a thread's speed is cold.
const MAX_COLD_SHARE: f64 = 0.95;

/// One placed thread's terms of a [`ProgressCeiling`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct ThreadCeiling {
    thread: ThreadId,
    /// Cold share `a = sensitivity × (1 − warmth)` on its assigned cpu:
    /// its cache speed starts at `1 − a` and ramps towards 1.
    cold: f64,
    /// Its bus speed bound inside the window, `1/((1 − µ) + µ·λ_min)`.
    bus_speed: f64,
}

/// Upper bounds on how far each thread of a [`Decision`] can progress,
/// from the scheduling point the decision answers (see the module docs).
///
/// The window is the minimum of three guards, each a length of wall
/// time from the scheduling point. A ceiling whose window is longer
/// than its guards allow is not a bound.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressCeiling {
    /// Every placed, unfinished thread, in decision order.
    threads: Vec<ThreadCeiling>,
    /// The cache warm-up time constant τ, µs.
    warmup_tau_us: f64,
    /// No placed thread can finish before this: progress accrues at most
    /// 1 virtual µs per wall µs, so not before its remaining work.
    pub finish_us: f64,
    /// No placed thread can start spinning at a barrier before this, nor
    /// before the window's other guards end.
    pub spin_us: f64,
    /// Every placed thread's demand stays constant until this, by its
    /// model's `constant_for`.
    pub(crate) demand_us: f64,
}

impl ProgressCeiling {
    /// The window in which the bus floor holds, µs.
    pub(crate) fn window_us(&self) -> f64 {
        self.finish_us
            .min(self.spin_us)
            .min(self.demand_us)
            .max(0.0)
    }

    /// An upper bound on the virtual µs `thread` completes in the first
    /// `t_us` of the quantum: 0 for a thread the decision does not place.
    pub fn progress_us(&self, thread: ThreadId, t_us: f64) -> f64 {
        let Some(c) = self.threads.iter().find(|c| c.thread == thread) else {
            return 0.0;
        };
        let t = t_us.max(0.0);
        // ∫₀ᵗ of the cache speed bound. The snap lifts a warmth within
        // `WARMTH_SNAP` of 1 to exactly 1, at most that much speed; the
        // floor is covered by capping the cold share.
        let (tau, a) = (self.warmup_tau_us, c.cold.min(MAX_COLD_SHARE));
        let ramp = |t: f64| (1.0 + WARMTH_SNAP) * t + a * tau * (-t / tau).exp_m1();
        let w = t.min(self.window_us());
        (c.bus_speed * ramp(w) + ramp(t) - ramp(w)).min(t)
    }

    /// A lower bound on the wall µs `thread` needs to complete
    /// `progress_us` virtual µs, searched up to `limit_us`: `INFINITY`
    /// when it cannot get there within `limit_us`.
    pub fn time_to_us(&self, thread: ThreadId, progress_us: f64, limit_us: f64) -> f64 {
        if progress_us <= 0.0 {
            return 0.0;
        }
        if self.progress_us(thread, limit_us) < progress_us {
            return f64::INFINITY;
        }
        // `progress_us` is continuous and non-decreasing in time; `lo`
        // always falls short of the target.
        let (mut lo, mut hi) = (0.0, limit_us);
        for _ in 0..48 {
            let mid = 0.5 * (lo + hi);
            if self.progress_us(thread, mid) < progress_us {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// A placed thread as the guards see it.
struct Placed {
    thread: ThreadId,
    mu: f64,
    smt: f64,
    cold: f64,
}

impl Machine {
    /// The [`ProgressCeiling`] of answering the pending scheduling point
    /// with `d`, read from the current state. Nothing is advanced: each
    /// placed thread's demand is read from a copy of its model.
    pub fn progress_ceiling(&self, d: &Decision) -> ProgressCeiling {
        let cfg = &self.cfg;
        let cores = (cfg.num_cpus / cfg.smt_threads_per_core.max(1)).max(1);
        let mut busy_per_core = vec![0usize; cores];
        for a in &d.assignments {
            busy_per_core[cfg.core_of(a.cpu.0).min(cores - 1)] += 1;
        }
        let (mut finish_us, mut demand_us) = (f64::INFINITY, f64::INFINITY);
        let mut placed = Vec::with_capacity(d.assignments.len());
        let mut reqs = Vec::with_capacity(d.assignments.len());
        for a in &d.assignments {
            let t = &self.threads[a.thread.0 as usize];
            if t.state == ThreadState::Finished {
                continue;
            }
            let mut model = t.model.clone();
            let demand = model.demand_at(t.progress_us, self.now);
            let (virt_h, wall_h) = model.constant_for(t.progress_us, self.now);
            demand_us = demand_us.min(virt_h).min(wall_h);
            finish_us = finish_us.min(t.remaining_us());
            let socket = cfg.socket_of(a.cpu.0);
            let home = t.home_socket.unwrap_or(socket);
            reqs.push(BusRequest {
                thread: t.id,
                rate: demand.rate,
                mu: demand.mu,
                socket,
                remote: cfg.topology.remote_share(home, socket),
            });
            placed.push(Placed {
                thread: t.id,
                mu: demand.mu,
                smt: cfg.smt_speed_factor(busy_per_core[cfg.core_of(a.cpu.0).min(cores - 1)]),
                cold: t.cache_sensitivity.clamp(0.0, 1.0) * (1.0 - self.cache.warmth(a.cpu, t.id)),
            });
        }
        let lambda_min = self.bus.dilation_floor(&reqs);
        ProgressCeiling {
            threads: placed
                .iter()
                .map(|p| ThreadCeiling {
                    thread: p.thread,
                    cold: p.cold,
                    bus_speed: dilated_speed(p.mu, lambda_min),
                })
                .collect(),
            warmup_tau_us: cfg.cache.warmup_tau_us,
            finish_us: finish_us - GUARD_MARGIN_US,
            spin_us: self.spin_free_us(&placed),
            demand_us: demand_us - GUARD_MARGIN_US,
        }
    }

    /// How long no thread of `placed` can start spinning at a barrier,
    /// within the window's other guards.
    ///
    /// A thread spins at the start of a tick when its progress is a
    /// barrier interval ahead of its gang's slowest unfinished thread.
    /// Progress accrues at most 1 µs per µs and the slowest thread never
    /// loses ground, so a thread `gap` ahead cannot spin before
    /// `interval − gap`.
    ///
    /// A gang whose unfinished threads are all placed, with equal µ and
    /// SMT factors, does better: its threads share one bus speed (a bus
    /// with a floor above 1 solves one Λ for all) and one core speed, and
    /// differ only in cache speed, `1 − c ≤ a·e^(−t/τ)`, so two
    /// of them drift apart by less than `a·τ·e^(tick/τ)` over all the
    /// ticks of the window (coarse ticks need full warmth, where nothing
    /// drifts). No thread is then clamped at its barrier cap within a
    /// tick while `gap + drift + tick < interval`, and none spins.
    fn spin_free_us(&self, placed: &[Placed]) -> f64 {
        let tau = self.cfg.cache.warmup_tau_us;
        let tick = self.cfg.tick_us as f64;
        let mut spin_us = f64::INFINITY;
        for &ai in &self.barrier_apps {
            let rec = &self.apps[ai];
            let interval = rec
                .barrier_interval_us
                .expect("barrier_apps holds only apps with an interval");
            let unfinished: Vec<_> = rec
                .threads
                .iter()
                .map(|t| &self.threads[t.0 as usize])
                .filter(|t| t.state != ThreadState::Finished)
                .map(|t| (t, placed.iter().find(|p| p.thread == t.id)))
                .collect();
            if unfinished.iter().all(|(_, p)| p.is_none()) {
                continue;
            }
            let slowest = unfinished
                .iter()
                .map(|(t, _)| t.progress_us)
                .fold(f64::INFINITY, f64::min);
            if let [(_, Some(first)), ..] = unfinished[..] {
                let lockstep = unfinished
                    .iter()
                    .all(|(_, p)| p.is_some_and(|p| p.mu == first.mu && p.smt == first.smt));
                if lockstep {
                    let fastest = unfinished
                        .iter()
                        .map(|(t, _)| t.progress_us)
                        .fold(f64::NEG_INFINITY, f64::max);
                    let cold = unfinished
                        .iter()
                        .filter_map(|(_, p)| p.map(|p| p.cold))
                        .fold(0.0, f64::max);
                    let drift = cold * tau * (tick / tau).exp();
                    if (fastest - slowest) + drift + tick + GUARD_MARGIN_US < interval {
                        continue;
                    }
                }
            }
            for (t, p) in &unfinished {
                if p.is_some() {
                    let gap = t.progress_us - slowest;
                    spin_us = spin_us.min(interval - gap - GUARD_MARGIN_US);
                }
            }
        }
        spin_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MachineConfig, XEON_4WAY, XEON_4WAY_HT};
    use crate::demand::ConstantDemand;
    use crate::ids::CpuId;
    use crate::machine::{AppDescriptor, Assignment, StopCondition};
    use crate::testkit::Replay;
    use crate::thread::ThreadSpec;

    /// Two gangs of two memory-bound threads, cold, one cache sensitive.
    fn two_gangs(mc: MachineConfig) -> Machine {
        let mut m = Machine::new(mc);
        for (rate, sens) in [(12.0, 0.6), (10.0, 0.0)] {
            let threads = (0..2)
                .map(|_| {
                    ThreadSpec::new(1e6, Box::new(ConstantDemand::new(rate, 0.8)))
                        .with_cache_sensitivity(sens)
                })
                .collect();
            m.add_app(AppDescriptor::new("g", threads));
        }
        m
    }

    #[test]
    fn a_quantum_stays_under_its_ceiling() {
        for mc in [XEON_4WAY, XEON_4WAY_HT] {
            let mut m = two_gangs(mc);
            let d = Decision {
                assignments: (0..4)
                    .map(|i| Assignment {
                        thread: ThreadId(i),
                        cpu: CpuId(i as usize),
                    })
                    .collect(),
                next_resched_in_us: 200_000,
                sample_period_us: None,
            };
            let ceiling = m.progress_ceiling(&d);
            assert!(ceiling.window_us() > 200_000.0, "{ceiling:?}");
            assert!(ceiling.threads.iter().all(|c| c.bus_speed < 0.8));
            m.run(&mut Replay::new(d), StopCondition::At(200_000));
            for t in m.view().threads() {
                let bound = ceiling.progress_us(t.id, 200_000.0);
                assert!(
                    t.progress_us <= bound,
                    "{}: {} above {bound}",
                    t.id,
                    t.progress_us
                );
                // Without SMT, which it leaves out, the bound is close:
                // it misses only the traffic of cold caches.
                if mc.smt_threads_per_core == 1 {
                    let slack = bound - t.progress_us;
                    assert!(slack < 0.05 * bound, "{}: {bound}", t.id);
                }
            }
        }
    }

    #[test]
    fn guards_end_the_window_at_a_finish_or_a_spin() {
        let mut m = Machine::new(XEON_4WAY);
        let coupled = (0..2)
            .map(|_| ThreadSpec::new(50_000.0, Box::new(ConstantDemand::new(12.0, 0.8))))
            .collect();
        m.add_app(AppDescriptor::new("coupled", coupled).with_barrier_interval(30_000.0));
        let both = Decision {
            assignments: (0..2)
                .map(|i| Assignment {
                    thread: ThreadId(i),
                    cpu: CpuId(i as usize),
                })
                .collect(),
            next_resched_in_us: 200_000,
            sample_period_us: None,
        };
        let one = Decision {
            assignments: both.assignments[..1].to_vec(),
            ..both.clone()
        };
        // Placed together, equal threads drift apart by cache warmth only.
        let c = m.progress_ceiling(&both);
        assert_eq!(c.spin_us, f64::INFINITY);
        assert_eq!(c.finish_us, 50_000.0 - GUARD_MARGIN_US);
        assert_eq!(c.demand_us, f64::INFINITY);
        // Alone, the thread reaches its barrier 30 ms in.
        assert_eq!(m.progress_ceiling(&one).spin_us, 30_000.0 - GUARD_MARGIN_US);
    }
}
