//! Per-processor cache warmth and affinity effects.
//!
//! The paper's platform has a 256 KB L2 per processor. Two affinity effects
//! matter for the reproduction:
//!
//! 1. A thread placed on a cpu whose cache it does not occupy runs slower
//!    while it rebuilds its working set **and** generates extra bus traffic
//!    doing so. This is why LU CB (99.53 % L2 hit rate) and Water-nsqr are
//!    "very sensitive to thread migrations among processors" (§3), and why
//!    their slowdowns under the BBMA workload exceed what their tiny bus
//!    demand would predict.
//! 2. Threads time-sharing a cpu evict each other, so affinity alone does
//!    not help once multiprogramming forces interleavings.
//!
//! The model: each cpu keeps a *warmth* in `[0, 1]` per thread that has
//! recently run there. Warmth rises exponentially toward 1 with time
//! constant [`CacheConfig::warmup_tau_us`] while the thread runs, and
//! decays with [`CacheConfig::decay_tau_us`] while a *different* thread
//! runs on that cpu (an idle cpu preserves its contents). A thread running
//! with warmth `w` on its cpu:
//!
//! * issues `(1 + cold_demand_boost·(1−w))`× its base demand (refill
//!   traffic), and
//! * runs at `(1 − sensitivity·(1−w))`× speed, where `sensitivity` is a
//!   per-thread parameter (how much of its performance lives in the cache).

use crate::ids::{CpuId, ThreadId};

/// Warmth this close to 1 snaps to exactly 1.0 (reached after ~14τ of
/// continuous residency). Without the snap, warmth approaches 1 only in
/// the limit and every tick keeps producing a new f64, which defeats the
/// bus's unchanged-demand-set memo and the machine's tick coarsening; the
/// induced model error is below 1e-6 relative, far under the 0.1-unit
/// precision of the reported tables.
pub(crate) const WARMTH_SNAP: f64 = 1e-6;

/// Cache model parameters.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Time constant (µs) for building cache state while running.
    /// ~20 ms: a 256 KB working set streams in well under a quantum, but a
    /// thread bounced every tick never warms up.
    pub warmup_tau_us: f64,
    /// Time constant (µs) for losing cache state while another thread runs
    /// on the same cpu.
    pub decay_tau_us: f64,
    /// Extra demand multiplier at warmth 0 (refill traffic): demand is
    /// `base × (1 + cold_demand_boost × (1 − warmth))`.
    pub cold_demand_boost: f64,
    /// Warmth below which an entry is dropped from tracking.
    pub min_tracked_warmth: f64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            warmup_tau_us: 20_000.0,
            decay_tau_us: 10_000.0,
            cold_demand_boost: 0.6,
            min_tracked_warmth: 0.01,
        }
    }
}

/// Warmth state of every cpu's cache.
///
/// Thread IDs are dense (sequential from 0), so warmth lives in flat
/// per-cpu `Vec<f64>`s indexed by thread id — `0.0` means "no tracked
/// state", exactly the old untracked case. Lookups on the per-tick hot
/// path are O(1) with no tree walks or per-tick allocation. Each cpu also
/// lists the threads whose warmth on it is nonzero, so a tick decays only
/// the entries that can change rather than every thread slot.
#[derive(Debug, Clone)]
pub(crate) struct CacheState {
    cfg: CacheConfig,
    /// Per cpu: warmth per thread index; `0.0` = no tracked state.
    per_cpu: Vec<Vec<f64>>,
    /// Per cpu: the thread indices whose warmth there is nonzero, in no
    /// particular order.
    live: Vec<Vec<usize>>,
    // Memoized exponentials: ticks are usually a uniform length, so the
    // two `exp` calls per advance collapse to a compare.
    last_dt_us: f64,
    build: f64,
    decay: f64,
}

impl CacheState {
    /// Cold caches for `num_cpus` processors.
    pub(crate) fn new(num_cpus: usize, cfg: CacheConfig) -> Self {
        Self {
            cfg,
            per_cpu: vec![Vec::new(); num_cpus],
            live: vec![Vec::new(); num_cpus],
            last_dt_us: f64::NAN,
            build: 0.0,
            decay: 1.0,
        }
    }

    /// Warmth of `thread` on `cpu` (0 if it has never run there or its
    /// state fully decayed).
    pub(crate) fn warmth(&self, cpu: CpuId, thread: ThreadId) -> f64 {
        self.per_cpu[cpu.0]
            .get(thread.0 as usize)
            .copied()
            .unwrap_or(0.0)
    }

    /// Warmth plus both derived multipliers in one table lookup:
    /// `(warmth, demand_multiplier, speed_multiplier)`. The per-tick hot
    /// path needs all three; sharing the lookup (and the exact multiplier
    /// expressions, factored out below) keeps the results bit-identical
    /// to three separate calls at a third of the indexing cost.
    #[inline]
    pub(crate) fn factors(
        &self,
        cpu: CpuId,
        thread: ThreadId,
        sensitivity: f64,
    ) -> (f64, f64, f64) {
        let w = self.warmth(cpu, thread);
        (
            w,
            self.demand_multiplier_for(w),
            Self::speed_multiplier_for(w, sensitivity),
        )
    }

    #[inline]
    fn demand_multiplier_for(&self, warmth: f64) -> f64 {
        1.0 + self.cfg.cold_demand_boost * (1.0 - warmth)
    }

    #[inline]
    fn speed_multiplier_for(warmth: f64, sensitivity: f64) -> f64 {
        let cold = 1.0 - warmth;
        (1.0 - sensitivity.clamp(0.0, 1.0) * cold).max(0.05)
    }

    /// Advance the cache model by `dt_us` given the current placement
    /// (`running[cpu] = Some(thread)` for occupied cpus).
    pub(crate) fn advance(&mut self, running: &[Option<ThreadId>], dt_us: f64) {
        assert_eq!(
            running.len(),
            self.per_cpu.len(),
            "placement width mismatch"
        );
        if dt_us != self.last_dt_us {
            self.last_dt_us = dt_us;
            self.build = 1.0 - (-dt_us / self.cfg.warmup_tau_us).exp();
            self.decay = (-dt_us / self.cfg.decay_tau_us).exp();
        }
        let (build, decay) = (self.build, self.decay);
        let min = self.cfg.min_tracked_warmth;
        for (cpu_idx, occ) in running.iter().enumerate() {
            // Idle cpu: contents persist (no one is evicting).
            let Some(t) = occ else { continue };
            let slots = &mut self.per_cpu[cpu_idx];
            let live = &mut self.live[cpu_idx];
            let ti = t.0 as usize;
            if slots.len() <= ti {
                slots.resize(ti + 1, 0.0);
            }
            // Everyone else's footprint decays; entries under the tracking
            // floor are dropped (set to the untracked value 0.0) and leave
            // the live list. The occupant is never garbage-collected: its
            // per-tick warmth gain can be below the floor.
            let mut k = 0;
            while k < live.len() {
                let i = live[k];
                if i != ti {
                    let w = &mut slots[i];
                    *w *= decay;
                    if *w < min {
                        *w = 0.0;
                    }
                    if *w == 0.0 {
                        live.swap_remove(k);
                        continue;
                    }
                }
                k += 1;
            }
            // The occupant warms up, snapping to exactly 1.0 once within
            // WARMTH_SNAP so steady state is a fixed point (see const doc).
            let w = &mut slots[ti];
            let was = *w;
            *w += (1.0 - *w) * build;
            if *w > 1.0 - WARMTH_SNAP {
                *w = 1.0;
            }
            if was == 0.0 && *w != 0.0 {
                live.push(ti);
            }
        }
    }

    /// The cpu on which `thread` currently has the warmest state, if any —
    /// what an affinity-aware placement consults.
    pub(crate) fn warmest_cpu(&self, thread: ThreadId) -> Option<(CpuId, f64)> {
        self.per_cpu
            .iter()
            .enumerate()
            .filter_map(|(i, slots)| {
                let w = *slots.get(thread.0 as usize)?;
                (w > 0.0).then_some((CpuId(i), w))
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_cpu() -> CacheState {
        CacheState::new(2, CacheConfig::default())
    }

    #[test]
    fn warmth_builds_while_running() {
        let mut c = two_cpu();
        let t = ThreadId(1);
        assert_eq!(c.warmth(CpuId(0), t), 0.0);
        c.advance(&[Some(t), None], 20_000.0); // one time constant
        let w = c.warmth(CpuId(0), t);
        assert!((0.55..0.75).contains(&w), "after 1τ warmth {w}");
        c.advance(&[Some(t), None], 200_000.0);
        assert!(c.warmth(CpuId(0), t) > 0.99);
    }

    #[test]
    fn warmth_decays_under_eviction_but_not_on_idle_cpu() {
        let mut c = two_cpu();
        let (a, b) = (ThreadId(1), ThreadId(2));
        c.advance(&[Some(a), None], 200_000.0);
        let warm = c.warmth(CpuId(0), a);
        // Idle: preserved.
        c.advance(&[None, None], 100_000.0);
        assert_eq!(c.warmth(CpuId(0), a), warm);
        // Evicted by b.
        c.advance(&[Some(b), None], 10_000.0); // one decay τ
        let after = c.warmth(CpuId(0), a);
        assert!(after < warm * 0.45, "decayed {warm} -> {after}");
    }

    #[test]
    fn cold_thread_demands_more_and_runs_slower() {
        let mut c = two_cpu();
        let t = ThreadId(1);
        assert!((c.factors(CpuId(0), t, 0.0).1 - 1.6).abs() < 1e-12);
        assert!((c.factors(CpuId(0), t, 0.5).2 - 0.5).abs() < 1e-12);
        c.advance(&[Some(t), None], 1_000_000.0);
        assert!(c.factors(CpuId(0), t, 0.0).1 < 1.001);
        assert!(c.factors(CpuId(0), t, 0.5).2 > 0.999);
    }

    #[test]
    fn speed_multiplier_is_floored() {
        let c = two_cpu();
        // Even a fully cold, fully sensitive thread keeps making progress.
        assert!(c.factors(CpuId(0), ThreadId(9), 1.0).2 >= 0.05);
    }

    #[test]
    fn warmest_cpu_tracks_migrations() {
        let mut c = two_cpu();
        let t = ThreadId(1);
        assert!(c.warmest_cpu(t).is_none());
        c.advance(&[Some(t), None], 50_000.0);
        assert_eq!(c.warmest_cpu(t).unwrap().0, CpuId(0));
        // Migrate and run longer on cpu1; cpu0 state decays only if evicted.
        c.advance(&[Some(ThreadId(2)), Some(t)], 120_000.0);
        assert_eq!(c.warmest_cpu(t).unwrap().0, CpuId(1));
    }

    #[test]
    fn tiny_warmth_entries_are_garbage_collected() {
        let mut c = two_cpu();
        let (a, b) = (ThreadId(1), ThreadId(2));
        c.advance(&[Some(a), None], 5_000.0);
        // Long eviction drives a's entry under the tracking floor.
        c.advance(&[Some(b), None], 1_000_000.0);
        assert_eq!(c.warmth(CpuId(0), a), 0.0);
    }

    #[test]
    fn long_residency_snaps_warmth_to_exactly_one() {
        let mut c = two_cpu();
        let t = ThreadId(0);
        // 500 ms of 100 µs ticks ≈ 25 warm-up time constants.
        for _ in 0..5000 {
            c.advance(&[Some(t), None], 100.0);
        }
        assert_eq!(c.warmth(CpuId(0), t), 1.0);
        assert_eq!(c.factors(CpuId(0), t, 0.0).1, 1.0);
        // A fixed point: further running changes nothing.
        c.advance(&[Some(t), None], 100.0);
        assert_eq!(c.warmth(CpuId(0), t), 1.0);
    }

    #[test]
    #[should_panic(expected = "placement width")]
    fn wrong_placement_width_panics() {
        two_cpu().advance(&[None], 1.0);
    }

    /// The decay before the live lists, kept as the oracle: every tick
    /// walks every thread slot of every occupied cpu.
    fn advance_dense(
        per_cpu: &mut [Vec<f64>],
        cfg: &CacheConfig,
        running: &[Option<ThreadId>],
        dt_us: f64,
    ) {
        let build = 1.0 - (-dt_us / cfg.warmup_tau_us).exp();
        let decay = (-dt_us / cfg.decay_tau_us).exp();
        for (cpu_idx, occ) in running.iter().enumerate() {
            let Some(t) = occ else { continue };
            let slots = &mut per_cpu[cpu_idx];
            let ti = t.0 as usize;
            if slots.len() <= ti {
                slots.resize(ti + 1, 0.0);
            }
            for (i, w) in slots.iter_mut().enumerate() {
                if *w == 0.0 || i == ti {
                    continue;
                }
                *w *= decay;
                if *w < cfg.min_tracked_warmth {
                    *w = 0.0;
                }
            }
            let w = &mut slots[ti];
            *w += (1.0 - *w) * build;
            if *w > 1.0 - WARMTH_SNAP {
                *w = 1.0;
            }
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        const CPUS: usize = 3;
        const THREADS: u64 = 6;

        /// One step: a placement (a thread or idle per cpu, so threads
        /// migrate and share cpus across steps) with a tick length.
        fn step() -> impl Strategy<Value = (Vec<Option<ThreadId>>, f64)> {
            // Mostly ticks; repeated lengths exercise the memoized
            // exponentials, long ones drive entries under the floor.
            let dts = [100.0, 100.0, 2_000.0, 0.0, 60_000.0, 1e6];
            (
                prop::collection::vec(0..=THREADS, CPUS),
                (0usize..dts.len(), 1.0..300_000.0, any::<bool>()),
            )
                .prop_map(move |(cpus, (d, random_dt, fixed))| {
                    let placement: Vec<Option<ThreadId>> = cpus
                        .into_iter()
                        .map(|t| (t < THREADS).then_some(ThreadId(t)))
                        .collect();
                    (placement, if fixed { dts[d] } else { random_dt })
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(500))]

            /// Decaying only the live entries leaves every warmth
            /// bit-equal to the dense walk's, after every step.
            #[test]
            fn live_lists_match_the_dense_walk(steps in prop::collection::vec(step(), 1..80)) {
                let cfg = CacheConfig::default();
                let mut c = CacheState::new(CPUS, cfg);
                let mut dense = vec![Vec::new(); CPUS];
                for s in &steps {
                    let (running, dt) = s;
                    c.advance(running, *dt);
                    advance_dense(&mut dense, &cfg, running, *dt);
                    for (cpu, slots) in dense.iter().enumerate() {
                        for t in 0..THREADS {
                            let want = slots.get(t as usize).copied().unwrap_or(0.0);
                            let got = c.warmth(CpuId(cpu), ThreadId(t));
                            prop_assert_eq!(got.to_bits(), want.to_bits(), "cpu {} thread {} after {:?}", cpu, t, s);
                        }
                    }
                }
            }
        }
    }
}
