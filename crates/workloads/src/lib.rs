//! Application models for the ICPP 2003 reproduction.
//!
//! The paper evaluates with eleven OpenMP codes from Splash-2 and the NAS
//! parallel benchmarks, each hand-optimized for cache locality, plus two
//! microbenchmarks:
//!
//! * **BBMA** — a column-wise array walker with ~0 % L2 hit rate that
//!   issues back-to-back memory accesses (23.6 bus transactions/µs per
//!   instance): the bus saturator.
//! * **nBBMA** — a row-wise walker over half the L2 with ~100 % hit rate
//!   (0.0037 tx/µs): a cpu hog that leaves the bus idle.
//!
//! The scheduling policies never see application *code* — only per-thread
//! bus-transaction rates from the performance counters. So each application
//! is modeled by what the counters would show: its solo transaction rate,
//! its memory-boundness, its cache sensitivity, and the *shape* of its rate
//! over time (constant, phased, or bursty). [`paper`] holds the calibrated
//! table for all eleven applications; [`mix`] builds the exact workload
//! compositions of the paper's Figures 1 and 2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod burst;
pub mod micro;
pub mod mix;
pub mod paper;
pub mod phases;
pub mod synth;

pub use mix::{build_machine, WorkloadSpec};
pub use paper::{paper_app, PaperApp, DEFAULT_SOLO_WORK_US};
