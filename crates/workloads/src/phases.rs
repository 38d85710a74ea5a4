//! Cyclic phase profiles.
//!
//! Iterative solvers alternate compute-heavy and communication/memory-heavy
//! phases. The paper calls LU's bus requirements "irregular"; a cyclic
//! profile tied to *virtual* time (progress) reproduces that: the phase a
//! thread is in depends on how far it has gotten, not on the wall clock, so
//! a descheduled thread resumes mid-phase exactly where it stopped.

use busbw_sim::{Demand, DemandModel};

/// One phase of a cyclic profile.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Phase {
    /// Phase length in virtual µs.
    pub(crate) len_us: f64,
    /// Multiplier applied to the base rate during this phase.
    pub(crate) rate_scale: f64,
    /// Memory-boundness during this phase.
    pub(crate) mu: f64,
}

/// A demand model cycling through phases over virtual time.
#[derive(Debug, Clone)]
pub struct CyclicPhases {
    base_rate: f64,
    phases: Vec<Phase>,
    cycle_len: f64,
}

impl CyclicPhases {
    /// Build a cyclic profile. `base_rate` is in tx/µs; each phase scales
    /// it by its own factor.
    ///
    /// # Panics
    /// Panics on an empty phase list or non-positive phase lengths.
    pub(crate) fn new(base_rate: f64, phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "need at least one phase");
        for p in &phases {
            assert!(p.len_us > 0.0, "phase lengths must be positive");
            assert!(p.rate_scale >= 0.0, "rate scales must be non-negative");
            assert!((0.0..=1.0).contains(&p.mu), "phase mu must be in [0,1]");
        }
        let cycle_len = phases.iter().map(|p| p.len_us).sum();
        Self {
            base_rate,
            phases,
            cycle_len,
        }
    }

    /// A symmetric two-phase profile oscillating `amplitude` above/below
    /// the base rate, with `period_us` per full cycle. The high phase is
    /// more memory bound than the low phase by the same proportion.
    pub fn oscillating(base_rate: f64, mu: f64, amplitude: f64, period_us: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&amplitude),
            "amplitude must be in [0,1)"
        );
        let half = period_us / 2.0;
        Self::new(
            base_rate,
            vec![
                Phase {
                    len_us: half,
                    rate_scale: 1.0 + amplitude,
                    mu: (mu * (1.0 + amplitude)).min(1.0),
                },
                Phase {
                    len_us: half,
                    rate_scale: 1.0 - amplitude,
                    mu: (mu * (1.0 - amplitude)).max(0.0),
                },
            ],
        )
    }

    fn phase_at(&self, vt_us: f64) -> &Phase {
        let mut pos = vt_us.rem_euclid(self.cycle_len);
        for p in &self.phases {
            if pos < p.len_us {
                return p;
            }
            pos -= p.len_us;
        }
        // Floating-point edge: land on the last phase.
        self.phases.last().expect("non-empty")
    }
}

impl DemandModel for CyclicPhases {
    fn demand_at(&mut self, vt_us: f64, _wall_us: u64) -> Demand {
        let p = self.phase_at(vt_us);
        Demand::new(self.base_rate * p.rate_scale, p.mu)
    }

    fn mean_rate(&self) -> f64 {
        let weighted: f64 = self.phases.iter().map(|p| p.rate_scale * p.len_us).sum();
        self.base_rate * weighted / self.cycle_len
    }

    fn constant_for(&self, vt_us: f64, _wall_us: u64) -> (f64, f64) {
        // This model is driven purely by virtual time, so per the trait
        // contract the wall horizon is infinite: demand is constant until
        // the current phase's virtual-time edge, no matter how much wall
        // time passes (a descheduled thread stays frozen mid-phase).
        let mut pos = vt_us.rem_euclid(self.cycle_len);
        for p in &self.phases {
            if pos < p.len_us {
                return (p.len_us - pos, f64::INFINITY);
            }
            pos -= p.len_us;
        }
        (0.0, f64::INFINITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_cycle_over_virtual_time() {
        let mut m = CyclicPhases::new(
            10.0,
            vec![
                Phase {
                    len_us: 100.0,
                    rate_scale: 2.0,
                    mu: 0.9,
                },
                Phase {
                    len_us: 300.0,
                    rate_scale: 0.5,
                    mu: 0.3,
                },
            ],
        );
        assert_eq!(m.demand_at(0.0, 0).rate, 20.0);
        assert_eq!(m.demand_at(99.9, 0).rate, 20.0);
        assert_eq!(m.demand_at(100.0, 0).rate, 5.0);
        assert_eq!(m.demand_at(399.9, 0).rate, 5.0);
        // Wraps.
        assert_eq!(m.demand_at(400.0, 0).rate, 20.0);
        assert_eq!(m.demand_at(450.0, 12345).rate, 20.0);
    }

    #[test]
    fn mean_rate_is_length_weighted() {
        let m = CyclicPhases::new(
            10.0,
            vec![
                Phase {
                    len_us: 100.0,
                    rate_scale: 2.0,
                    mu: 0.9,
                },
                Phase {
                    len_us: 300.0,
                    rate_scale: 0.5,
                    mu: 0.3,
                },
            ],
        );
        // (2.0·100 + 0.5·300)/400 = 0.875 → 8.75 tx/µs
        assert!((m.mean_rate() - 8.75).abs() < 1e-12);
    }

    #[test]
    fn oscillating_profile_preserves_mean() {
        let m = CyclicPhases::oscillating(8.0, 0.5, 0.4, 100_000.0);
        assert!((m.mean_rate() - 8.0).abs() < 1e-9);
        let mut m2 = m.clone();
        let hi = m2.demand_at(0.0, 0);
        let lo = m2.demand_at(60_000.0, 0);
        assert!(hi.rate > lo.rate);
        assert!(hi.mu > lo.mu);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_phase_list_rejected() {
        CyclicPhases::new(1.0, vec![]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_length_phase_rejected() {
        CyclicPhases::new(
            1.0,
            vec![Phase {
                len_us: 0.0,
                rate_scale: 1.0,
                mu: 0.5,
            }],
        );
    }
}
