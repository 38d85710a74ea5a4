//! Bursty demand: the Raytrace model.
//!
//! Section 5 of the paper: *"A detailed analysis of Raytrace revealed a
//! highly irregular bus transactions pattern. The sensitivity of 'Latest
//! Quantum' to sudden changes of bandwidth consumption has probably led to
//! this problematic behavior."* The Quanta Window policy exists precisely
//! to smooth such bursts.
//!
//! [`TwoStateBurst`] is a two-state semi-Markov process over **wall time**:
//! the thread alternates between a high-demand and a low-demand state with
//! exponentially distributed sojourn times (seeded, deterministic). Sojourn
//! means are chosen at quantum scale so the burst a policy measures in one
//! quantum is frequently stale by the next — the failure mode that hurts
//! Latest Quantum in Figure 2B.

use busbw_sim::{Demand, DemandModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Two-state bursty demand over wall time.
#[derive(Debug, Clone)]
pub struct TwoStateBurst {
    base_rate: f64,
    mu: f64,
    high_scale: f64,
    low_scale: f64,
    mean_high_us: f64,
    mean_low_us: f64,
    rng: StdRng,
    in_high: bool,
    next_switch_us: u64,
}

impl TwoStateBurst {
    /// Build a burst model.
    ///
    /// * `base_rate`, `mu` — as for a constant model.
    /// * `high_scale`/`low_scale` — rate multipliers in the two states.
    /// * `mean_high_us`/`mean_low_us` — mean sojourn times.
    /// * `seed` — RNG seed; identical seeds give identical processes.
    ///
    /// # Panics
    /// Panics if scales are negative or sojourn means are not positive.
    pub(crate) fn new(
        base_rate: f64,
        mu: f64,
        high_scale: f64,
        low_scale: f64,
        mean_high_us: f64,
        mean_low_us: f64,
        seed: u64,
    ) -> Self {
        assert!(
            high_scale >= 0.0 && low_scale >= 0.0,
            "scales must be non-negative"
        );
        assert!(
            mean_high_us > 0.0 && mean_low_us > 0.0,
            "sojourn means must be positive"
        );
        let mut s = Self {
            base_rate,
            mu,
            high_scale,
            low_scale,
            mean_high_us,
            mean_low_us,
            rng: StdRng::seed_from_u64(seed),
            in_high: true,
            next_switch_us: 0,
        };
        s.next_switch_us = s.draw_sojourn(0);
        s
    }

    /// A Raytrace-flavoured burst process: ±55 % swings with quantum-scale
    /// sojourns, normalized so the long-run mean rate equals `base_rate`.
    pub fn raytrace(base_rate: f64, mu: f64, seed: u64) -> Self {
        // Mean = (w_h·1.55 + w_l·0.45)·base with w_h = mean_h/(mean_h+mean_l).
        // mean_h = 250 ms, mean_l = 300 ms → w_h = 0.4545,
        // 0.4545·1.55 + 0.5455·0.45 = 0.950 → rescale by 1/0.950.
        let (hs, ls) = (1.55, 0.45);
        let (mh, ml) = (250_000.0, 300_000.0);
        let wh = mh / (mh + ml);
        let mean_scale = wh * hs + (1.0 - wh) * ls;
        Self::new(base_rate / mean_scale, mu, hs, ls, mh, ml, seed)
    }

    fn draw_sojourn(&mut self, from_us: u64) -> u64 {
        let mean = if self.in_high {
            self.mean_high_us
        } else {
            self.mean_low_us
        };
        // Exponential via inverse CDF; clamp u away from 0.
        let u: f64 = self.rng.gen_range(1e-12..1.0);
        let d = -mean * u.ln();
        from_us + d.max(1.0) as u64
    }

    /// Long-run fraction of time in the high state.
    pub(crate) fn high_fraction(&self) -> f64 {
        self.mean_high_us / (self.mean_high_us + self.mean_low_us)
    }
}

impl DemandModel for TwoStateBurst {
    fn demand_at(&mut self, _vt_us: f64, wall_us: u64) -> Demand {
        while wall_us >= self.next_switch_us {
            self.in_high = !self.in_high;
            self.next_switch_us = self.draw_sojourn(self.next_switch_us);
        }
        let scale = if self.in_high {
            self.high_scale
        } else {
            self.low_scale
        };
        // The high state is proportionally more memory-bound (more traffic
        // per unit of work ⇒ more stall time), capped at 1.
        let mu = (self.mu * scale).clamp(0.0, 1.0);
        Demand::new(self.base_rate * scale, mu)
    }

    fn mean_rate(&self) -> f64 {
        let wh = self.high_fraction();
        self.base_rate * (wh * self.high_scale + (1.0 - wh) * self.low_scale)
    }

    fn constant_for(&self, _vt_us: f64, wall_us: u64) -> (f64, f64) {
        // This model is driven purely by wall time, so per the trait
        // contract the *virtual* horizon is infinite and only the wall
        // horizon is bounded: constant until the next state switch. If
        // the caller's clock is already past `next_switch_us` (demand_at
        // not yet called for this instant), the horizon collapses to 0 —
        // "don't coarsen" — which is always safe.
        (
            f64::INFINITY,
            self.next_switch_us.saturating_sub(wall_us) as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_same_seed_same_trace() {
        let mut a = TwoStateBurst::raytrace(10.0, 0.8, 42);
        let mut b = TwoStateBurst::raytrace(10.0, 0.8, 42);
        for t in (0..5_000_000).step_by(10_000) {
            assert_eq!(a.demand_at(0.0, t), b.demand_at(0.0, t));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = TwoStateBurst::raytrace(10.0, 0.8, 1);
        let mut b = TwoStateBurst::raytrace(10.0, 0.8, 2);
        let mut diff = 0;
        for t in (0..5_000_000).step_by(10_000) {
            if a.demand_at(0.0, t) != b.demand_at(0.0, t) {
                diff += 1;
            }
        }
        assert!(diff > 10, "only {diff} differing samples");
    }

    #[test]
    fn long_run_mean_rate_is_close_to_nominal() {
        let mut m = TwoStateBurst::raytrace(10.0, 0.8, 7);
        let step = 1_000u64;
        let horizon = 400_000_000u64; // 400 s: many sojourns
        let mut acc = 0.0;
        let mut n = 0u64;
        let mut t = 0;
        while t < horizon {
            acc += m.demand_at(0.0, t).rate;
            n += 1;
            t += step;
        }
        let mean = acc / n as f64;
        assert!(
            (mean - 10.0).abs() < 0.8,
            "long-run mean {mean}, expected ~10"
        );
    }

    #[test]
    fn rates_actually_switch_between_two_levels() {
        let mut m = TwoStateBurst::raytrace(10.0, 0.8, 3);
        let mut seen = std::collections::BTreeSet::new();
        for t in (0..20_000_000).step_by(50_000) {
            seen.insert((m.demand_at(0.0, t).rate * 1000.0) as i64);
        }
        assert_eq!(seen.len(), 2, "expected exactly two rate levels: {seen:?}");
    }

    #[test]
    fn mu_follows_burst_state_and_is_clamped() {
        let mut m = TwoStateBurst::new(10.0, 0.9, 1.5, 0.3, 1000.0, 1000.0, 5);
        let mut mus = std::collections::BTreeSet::new();
        for t in (0..2_000_000).step_by(500) {
            let d = m.demand_at(0.0, t);
            assert!((0.0..=1.0).contains(&d.mu));
            mus.insert((d.mu * 1e6) as i64);
        }
        assert_eq!(mus.len(), 2);
    }

    #[test]
    fn wall_clock_can_jump_far_ahead() {
        // A descheduled thread asks about demand long after its last query;
        // the model must catch up through many switches without issue.
        let mut m = TwoStateBurst::raytrace(10.0, 0.8, 11);
        let _ = m.demand_at(0.0, 0);
        let d = m.demand_at(0.0, 3_600_000_000); // one hour later
        assert!(d.rate > 0.0);
    }

    #[test]
    #[should_panic(expected = "sojourn means")]
    fn zero_sojourn_rejected() {
        TwoStateBurst::new(1.0, 0.5, 1.0, 1.0, 0.0, 1.0, 0);
    }

    #[test]
    fn next_change_is_the_exact_switch_instant() {
        let mut m = TwoStateBurst::raytrace(10.0, 0.8, 42);
        let d0 = m.demand_at(0.0, 0);
        let (virt_h, wall_h) = m.constant_for(0.0, 100);
        assert_eq!(virt_h, f64::INFINITY);
        // The switch instant is an integer, and `now + horizon` recovers
        // it exactly.
        let switch = 100 + wall_h as u64;
        assert_eq!(100.0 + wall_h, switch as f64);
        // Demand is unchanged strictly before the switch and changed at it.
        assert_eq!(m.demand_at(0.0, switch - 1), d0);
        assert_ne!(m.demand_at(0.0, switch), d0);
    }
}
