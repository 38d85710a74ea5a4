//! Simulated performance-monitoring counters.
//!
//! The ICPP 2003 paper reads hardware performance-monitoring counters (via
//! Mikael Pettersson's `perfctr` Linux driver) to observe, per thread, the
//! number of **bus transactions** issued since the last read. The scheduling
//! policies never see anything else from the hardware: just monotone event
//! counts keyed by thread, sampled at scheduler-controlled instants.
//!
//! This crate reproduces exactly that contract on top of the simulator:
//!
//! * [`EventKind`] — the event set a Pentium-4-era PMU exposes that the paper
//!   uses (bus transactions) plus a few neighbours useful for extensions.
//! * [`Counter`] — one monotone event counter.
//! * [`CounterSet`] — all counters of one thread (what `perfctr` calls a
//!   per-thread *virtual counter* file).
//! * [`Registry`] — all counter sets on the machine, keyed by an opaque
//!   thread id. The simulator increments counters; schedulers sample them.
//! * [`Sampler`] — periodic rate estimation: turns counter deltas into
//!   transactions/µs rates, the quantity both paper policies consume. The
//!   paper samples **twice per scheduling quantum**; the sampler is
//!   parameterized accordingly.
//!
//! Counts are kept in `f64` because the fluid simulator produces fractional
//! transactions per tick.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counter;
pub mod registry;
pub mod sampler;

pub use counter::{Counter, CounterSet, EventKind};
pub use registry::{Registry, ThreadKey};
pub use sampler::{RateSample, Sampler, SamplerConfig};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_rate_estimation() {
        let mut reg = Registry::new();
        let t = ThreadKey(7);
        reg.register(t);
        // Simulate 1000 µs of a thread issuing 5 tx/µs.
        reg.add(t, EventKind::BusTransactions, 5000.0);
        let mut sampler = Sampler::new(SamplerConfig {
            period_us: 1000,
            window: 1,
        });
        let s = sampler.sample(&reg, t, 1000);
        assert!((s.rate_tx_per_us - 5.0).abs() < 1e-9);
    }
}
