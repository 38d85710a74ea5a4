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
//! * `Counter` — one monotone event counter.
//! * [`CounterSet`] — all counters of one thread (what `perfctr` calls a
//!   per-thread *virtual counter* file).
//! * [`Registry`] — all counter sets on the machine, keyed by an opaque
//!   thread id. The simulator increments counters; schedulers sample them.
//!
//! Turning counter deltas into transactions/µs rates — the paper samples
//! twice per scheduling quantum — is the policies' job: see the estimators
//! in `busbw_core::pipeline::estimators`.
//!
//! Counts are kept in `f64` because the fluid simulator produces fractional
//! transactions per tick.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod counter;
pub(crate) mod registry;

pub use counter::{CounterSet, EventKind};
pub use registry::{Registry, ThreadKey};
