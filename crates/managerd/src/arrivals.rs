//! Seeded arrival processes for the open-system manager server.
//!
//! Three inter-arrival families cover the qualitative regimes an open
//! scheduler faces: memoryless load ([`ArrivalProcess::Poisson`]), bursty
//! heavy-tailed load ([`ArrivalProcess::Pareto`]), and slowly modulated
//! trace-driven load ([`ArrivalProcess::Diurnal`]). All three are driven
//! by the workspace's seeded `StdRng` (SplitMix64 with a 53-bit unit
//! draw), so a fixed seed produces one arrival schedule, byte-for-byte, on
//! any machine; the serve pins in the crate root hold the stream fixed.

use rand::rngs::StdRng;
use rand::Rng;

/// The relative-rate profile [`ArrivalProcess::Diurnal`] cycles through:
/// one synthetic "day" of load, sampled at eight phases (night trough to
/// evening peak). Mean is 1.0 so the configured rate is the daily mean.
pub(crate) const DIURNAL_PROFILE: [f64; 8] = [0.30, 0.45, 0.85, 1.45, 1.90, 1.45, 1.00, 0.60];

/// Smallest admissible Pareto shape parameter. Below this the
/// distribution's mean diverges, so the sampler has always clamped to
/// it — and every edge that derives identity from the process (labels,
/// encoded run keys) must clamp the same way, or two processes that
/// sample identically would carry different keys.
pub(crate) const MIN_PARETO_ALPHA: f64 = 1.0 + 1e-6;

/// An open-system inter-arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at `rate_per_s` clients per second
    /// (exponential inter-arrival gaps).
    Poisson {
        /// Mean arrival rate, clients per second.
        rate_per_s: f64,
    },
    /// Heavy-tailed gaps: Pareto with shape `alpha` (> 1) and the given
    /// mean rate. Small `alpha` (≈1.5) gives pronounced bursts separated
    /// by long lulls at the same average load.
    Pareto {
        /// Mean arrival rate, clients per second.
        rate_per_s: f64,
        /// Pareto shape parameter; must be > 1 for the mean to exist.
        alpha: f64,
    },
    /// Trace-driven diurnal load: Poisson gaps whose rate is modulated by
    /// `DIURNAL_PROFILE`, one full cycle over `period_us`. `rate_per_s`
    /// is the cycle-mean rate.
    Diurnal {
        /// Mean arrival rate over one full cycle, clients per second.
        rate_per_s: f64,
        /// Length of one profile cycle, µs.
        period_us: u64,
    },
}

impl ArrivalProcess {
    /// Heavy-tailed arrivals with the shape already validated: `alpha`
    /// is clamped to `MIN_PARETO_ALPHA` at construction, so the stored
    /// parameter is exactly the one the sampler will use.
    pub fn pareto(rate_per_s: f64, alpha: f64) -> Self {
        ArrivalProcess::Pareto {
            rate_per_s,
            alpha: alpha.max(MIN_PARETO_ALPHA),
        }
    }

    /// The same process with every parameter in canonical form
    /// (currently: Pareto `alpha` clamped to `MIN_PARETO_ALPHA`, the
    /// value the sampler actually uses). Anything that names or encodes
    /// a process must go through this, so that processes with identical
    /// arrival streams carry identical labels and run keys.
    pub fn normalized(self) -> Self {
        match self {
            ArrivalProcess::Pareto { rate_per_s, alpha } => ArrivalProcess::Pareto {
                rate_per_s,
                alpha: alpha.max(MIN_PARETO_ALPHA),
            },
            other => other,
        }
    }

    /// Short stable label (figure column headers, cache diagnostics).
    #[cfg(test)]
    pub(crate) fn label(&self) -> String {
        match self.normalized() {
            ArrivalProcess::Poisson { rate_per_s } => format!("poisson:{rate_per_s}"),
            ArrivalProcess::Pareto { rate_per_s, alpha } => {
                format!("pareto:{rate_per_s}:{alpha}")
            }
            ArrivalProcess::Diurnal { rate_per_s, .. } => format!("diurnal:{rate_per_s}"),
        }
    }

    /// Mean offered arrival rate, clients per second.
    pub fn rate_per_s(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_per_s }
            | ArrivalProcess::Pareto { rate_per_s, .. }
            | ArrivalProcess::Diurnal { rate_per_s, .. } => rate_per_s,
        }
    }

    /// The same process at a different mean rate (offered-load sweeps).
    pub fn with_rate(self, rate_per_s: f64) -> Self {
        match self {
            ArrivalProcess::Poisson { .. } => ArrivalProcess::Poisson { rate_per_s },
            ArrivalProcess::Pareto { alpha, .. } => ArrivalProcess::Pareto { rate_per_s, alpha },
            ArrivalProcess::Diurnal { period_us, .. } => ArrivalProcess::Diurnal {
                rate_per_s,
                period_us,
            },
        }
    }

    /// Draw the gap (µs, ≥ 1) from `now_us` to the next arrival.
    pub(crate) fn next_gap_us(&self, now_us: u64, rng: &mut StdRng) -> u64 {
        let gap = match *self {
            ArrivalProcess::Poisson { rate_per_s } => exp_gap_us(1e6 / rate_per_s.max(1e-9), rng),
            ArrivalProcess::Pareto { rate_per_s, alpha } => {
                let alpha = alpha.max(MIN_PARETO_ALPHA);
                let mean_us = 1e6 / rate_per_s.max(1e-9);
                // Scale x_m so the Pareto mean x_m·α/(α−1) equals mean_us.
                let xm = mean_us * (alpha - 1.0) / alpha;
                xm / (1.0 - rng.gen_range(0.0..1.0)).powf(1.0 / alpha)
            }
            ArrivalProcess::Diurnal {
                rate_per_s,
                period_us,
            } => {
                let phase_len = (period_us / DIURNAL_PROFILE.len() as u64).max(1);
                let phase = (now_us % period_us.max(1)) / phase_len;
                let mult = DIURNAL_PROFILE[(phase as usize).min(DIURNAL_PROFILE.len() - 1)];
                exp_gap_us(1e6 / (rate_per_s * mult).max(1e-9), rng)
            }
        };
        // Never stall the clock: a sub-µs gap rounds up to 1 µs.
        (gap as u64).max(1)
    }
}

/// Exponential gap with the given mean, µs.
fn exp_gap_us(mean_us: f64, rng: &mut StdRng) -> f64 {
    -mean_us * (1.0 - rng.gen_range(0.0..1.0)).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn pareto_label_and_stream_agree_for_subcritical_alpha() {
        // A shape below the admissible floor samples exactly like the
        // floor — so it must also label (and therefore key) like it.
        let raw = ArrivalProcess::Pareto {
            rate_per_s: 20.0,
            alpha: 0.5,
        };
        let canon = ArrivalProcess::pareto(20.0, 0.5);
        assert_eq!(
            canon,
            ArrivalProcess::Pareto {
                rate_per_s: 20.0,
                alpha: MIN_PARETO_ALPHA,
            }
        );
        assert_eq!(raw.label(), canon.label());
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let ga: Vec<u64> = (0..64).map(|i| raw.next_gap_us(i * 1000, &mut a)).collect();
        let gb: Vec<u64> = (0..64)
            .map(|i| canon.next_gap_us(i * 1000, &mut b))
            .collect();
        assert_eq!(ga, gb);
        // Above the floor the shape passes through untouched.
        let hot = ArrivalProcess::pareto(20.0, 1.5);
        assert_eq!(
            hot,
            ArrivalProcess::Pareto {
                rate_per_s: 20.0,
                alpha: 1.5,
            }
        );
        assert_eq!(hot.normalized(), hot);
        assert_eq!(hot.label(), "pareto:20:1.5");
    }

    #[test]
    fn rng_stream_is_stable_and_seed_sensitive() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let mut c = StdRng::seed_from_u64(43);
        let sa: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let sc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
        for _ in 0..1000 {
            let u: f64 = a.gen_range(0.0..1.0);
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn poisson_gaps_have_roughly_the_configured_mean() {
        let p = ArrivalProcess::Poisson { rate_per_s: 100.0 }; // mean gap 10 ms
        let mut rng = StdRng::seed_from_u64(7);
        let n = 4000;
        let total: u64 = (0..n).map(|_| p.next_gap_us(0, &mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!((8_000.0..12_000.0).contains(&mean), "mean gap {mean} µs");
    }

    #[test]
    fn pareto_gaps_are_heavier_tailed_than_poisson_at_equal_mean() {
        let rate = 50.0;
        let mut rng = StdRng::seed_from_u64(11);
        let pareto = ArrivalProcess::Pareto {
            rate_per_s: rate,
            alpha: 1.5,
        };
        let poisson = ArrivalProcess::Poisson { rate_per_s: rate };
        let n = 20_000;
        let max_pareto = (0..n)
            .map(|_| pareto.next_gap_us(0, &mut rng))
            .max()
            .unwrap();
        let max_poisson = (0..n)
            .map(|_| poisson.next_gap_us(0, &mut rng))
            .max()
            .unwrap();
        assert!(
            max_pareto > 2 * max_poisson,
            "pareto max {max_pareto} vs poisson max {max_poisson}"
        );
    }

    #[test]
    fn diurnal_rate_tracks_the_profile() {
        let d = ArrivalProcess::Diurnal {
            rate_per_s: 100.0,
            period_us: 8_000_000,
        };
        let mut rng = StdRng::seed_from_u64(3);
        // Trough phase (index 0) vs peak phase (index 4): mean gaps must
        // differ by roughly the profile ratio.
        let mean_at = |at: u64, rng: &mut StdRng| -> f64 {
            let n = 3000;
            (0..n).map(|_| d.next_gap_us(at, rng)).sum::<u64>() as f64 / n as f64
        };
        let trough = mean_at(100, &mut rng);
        let peak = mean_at(4_100_000, &mut rng);
        assert!(
            trough > 3.0 * peak,
            "trough mean {trough} µs vs peak mean {peak} µs"
        );
    }

    #[test]
    fn gaps_never_stall_the_clock() {
        // An absurd rate still yields strictly positive gaps.
        let p = ArrivalProcess::Poisson { rate_per_s: 1e12 };
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            assert!(p.next_gap_us(0, &mut rng) >= 1);
        }
    }

    #[test]
    fn with_rate_preserves_the_family() {
        let p = ArrivalProcess::Pareto {
            rate_per_s: 10.0,
            alpha: 1.5,
        };
        match p.with_rate(40.0) {
            ArrivalProcess::Pareto { rate_per_s, alpha } => {
                assert_eq!(rate_per_s, 40.0);
                assert_eq!(alpha, 1.5);
            }
            other => panic!("family changed: {other:?}"),
        }
        assert_eq!(p.rate_per_s(), 10.0);
    }
}
