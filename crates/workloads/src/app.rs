//! Application specifications.
//!
//! An [`AppSpec`] is the workload-level description of one application
//! *instance*: how many threads, how much work, and how the threads behave
//! on the bus. It compiles down to a [`busbw_sim::AppDescriptor`] — a gang
//! of [`busbw_sim::ThreadSpec`]s with concrete demand models.

use std::borrow::Cow;

use busbw_sim::{AppDescriptor, ConstantDemand, DemandModel, ThreadSpec};

use crate::burst::TwoStateBurst;
use crate::phases::CyclicPhases;

/// How an application's bus demand evolves over time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Behavior {
    /// Constant rate and memory-boundness for the whole run.
    Constant,
    /// Two-phase oscillation around the base rate over virtual time:
    /// `amplitude` (fraction of base) and `period_us` (virtual µs).
    Oscillating {
        /// Swing around the base rate, in `[0, 1)`.
        amplitude: f64,
        /// Full cycle length in virtual µs.
        period_us: f64,
    },
    /// Seeded two-state bursts over wall time (the Raytrace pattern).
    Bursty,
}

/// One application instance's specification.
#[derive(Debug, Clone)]
pub struct AppSpec {
    /// Display name (e.g. `"CG"`, `"BBMA"`). The paper's applications and
    /// microbenchmarks name themselves with static strings, so building
    /// their specs allocates no name.
    pub name: Cow<'static, str>,
    /// Gang width (the paper runs every application with 2 threads and
    /// every microbenchmark with 1).
    pub nthreads: usize,
    /// Useful work per thread in virtual µs (`INFINITY` = run forever).
    pub work_us_per_thread: f64,
    /// Solo bus-transaction rate per thread, tx/µs.
    pub rate_per_thread: f64,
    /// Memory-boundness in `[0, 1]`.
    pub mu: f64,
    /// Cache sensitivity in `[0, 1]` (speed lost when running cold).
    pub cache_sensitivity: f64,
    /// Rate shape over time.
    pub behavior: Behavior,
    /// Barrier interval in virtual µs (`None` = uncoupled threads).
    /// The paper's applications are OpenMP/Splash-2 codes whose threads
    /// synchronize frequently; microbenchmarks are independent.
    pub barrier_interval_us: Option<f64>,
}

impl AppSpec {
    /// A constant-rate application.
    pub fn constant(
        name: impl Into<Cow<'static, str>>,
        nthreads: usize,
        work_us_per_thread: f64,
        rate_per_thread: f64,
        mu: f64,
    ) -> Self {
        Self {
            name: name.into(),
            nthreads,
            work_us_per_thread,
            rate_per_thread,
            mu,
            cache_sensitivity: 0.1,
            behavior: Behavior::Constant,
            barrier_interval_us: None,
        }
    }

    /// Couple the gang with barriers every `interval_us` of virtual time.
    pub fn with_barrier_interval(mut self, interval_us: f64) -> Self {
        assert!(interval_us > 0.0, "barrier interval must be positive");
        self.barrier_interval_us = Some(interval_us);
        self
    }

    /// Override the cache sensitivity.
    pub fn with_cache_sensitivity(mut self, s: f64) -> Self {
        self.cache_sensitivity = s;
        self
    }

    /// Override the behaviour.
    pub fn with_behavior(mut self, b: Behavior) -> Self {
        self.behavior = b;
        self
    }

    /// Scale the work volume (shrink for fast tests, grow for long runs).
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        self.work_us_per_thread *= factor;
        self
    }

    /// Cumulative solo rate across the gang, tx/µs — the quantity the
    /// paper's Figure 1A reports per application.
    pub fn cumulative_rate(&self) -> f64 {
        self.rate_per_thread * self.nthreads as f64
    }

    /// Instantiate the demand model for thread `idx` of this app.
    /// `seed` decorrelates bursty instances; constant/oscillating models
    /// ignore it.
    fn model_for_thread(&self, idx: usize, seed: u64) -> Box<dyn DemandModel> {
        match self.behavior {
            Behavior::Constant => Box::new(ConstantDemand::new(self.rate_per_thread, self.mu)),
            Behavior::Oscillating {
                amplitude,
                period_us,
            } => Box::new(CyclicPhases::oscillating(
                self.rate_per_thread,
                self.mu,
                amplitude,
                period_us,
            )),
            Behavior::Bursty => Box::new(TwoStateBurst::raytrace(
                self.rate_per_thread,
                self.mu,
                // Mix in the thread index so gang members burst
                // independently (as real Raytrace worker threads do),
                // while staying deterministic per (seed, idx).
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(idx as u64),
            )),
        }
    }

    /// Compile to a simulator [`AppDescriptor`].
    ///
    /// # Panics
    /// Panics if the spec is degenerate (no threads, non-positive work).
    pub fn descriptor(&self, seed: u64) -> AppDescriptor {
        assert!(self.nthreads > 0, "app {} has no threads", self.name);
        assert!(
            self.work_us_per_thread > 0.0,
            "app {} has non-positive work",
            self.name
        );
        let threads = (0..self.nthreads)
            .map(|i| {
                ThreadSpec::new(self.work_us_per_thread, self.model_for_thread(i, seed))
                    .with_cache_sensitivity(self.cache_sensitivity)
            })
            .collect();
        let desc = AppDescriptor::new(self.name.clone(), threads);
        match self.barrier_interval_us {
            Some(b) => desc.with_barrier_interval(b),
            None => desc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cumulative_rate_multiplies_threads() {
        let a = AppSpec::constant("x", 2, 1e6, 5.0, 0.5);
        assert_eq!(a.cumulative_rate(), 10.0);
    }

    #[test]
    fn descriptor_carries_gang_width_and_sensitivity() {
        let a = AppSpec::constant("x", 3, 1e6, 5.0, 0.5).with_cache_sensitivity(0.4);
        let d = a.descriptor(0);
        assert_eq!(d.threads.len(), 3);
        assert_eq!(d.name, "x");
        for t in &d.threads {
            assert_eq!(t.cache_sensitivity, 0.4);
            assert_eq!(t.work_us, 1e6);
        }
    }

    #[test]
    fn scaled_changes_work_only() {
        let a = AppSpec::constant("x", 2, 1e6, 5.0, 0.5).scaled(0.25);
        assert_eq!(a.work_us_per_thread, 250_000.0);
        assert_eq!(a.rate_per_thread, 5.0);
    }

    #[test]
    fn bursty_threads_are_decorrelated_within_a_gang() {
        let a = AppSpec::constant("rt", 2, 1e6, 10.0, 0.8).with_behavior(Behavior::Bursty);
        let mut d = a.descriptor(1);
        let mut t0 = d.threads.remove(0);
        let mut t1 = d.threads.remove(0);
        let mut diff = 0;
        for w in (0..30_000_000u64).step_by(100_000) {
            if t0.model.demand_at(0.0, w) != t1.model.demand_at(0.0, w) {
                diff += 1;
            }
        }
        assert!(diff > 5, "gang members burst in lockstep ({diff} diffs)");
    }

    #[test]
    fn oscillating_behavior_produces_cyclic_model() {
        let a = AppSpec::constant("lu", 1, 1e6, 4.0, 0.3).with_behavior(Behavior::Oscillating {
            amplitude: 0.5,
            period_us: 1000.0,
        });
        let mut d = a.descriptor(0);
        let m = &mut d.threads[0].model;
        let hi = m.demand_at(0.0, 0).rate;
        let lo = m.demand_at(600.0, 0).rate;
        assert!(hi > 5.9 && lo < 2.1, "hi {hi} lo {lo}");
    }

    #[test]
    #[should_panic(expected = "no threads")]
    fn zero_thread_app_rejected() {
        AppSpec::constant("x", 0, 1e6, 1.0, 0.1).descriptor(0);
    }
}
