//! # busbw — bus-bandwidth-aware scheduling for SMPs
//!
//! A from-scratch Rust reproduction of
//!
//! > C. D. Antonopoulos, D. S. Nikolopoulos, T. S. Papatheodorou.
//! > *Scheduling Algorithms with Bus Bandwidth Considerations for SMPs.*
//! > ICPP 2003.
//!
//! The umbrella crate re-exports the workspace layers:
//!
//! * [`sim`] — a deterministic fluid simulator of the paper's platform: a
//!   4-way SMP with a shared front-side bus (29.5 bus transactions/µs
//!   sustained), per-cpu caches with warmth/affinity dynamics, and
//!   barrier-coupled thread gangs.
//! * [`perfmon`] — simulated performance-monitoring counters: per-thread
//!   monotone event counts with the read/accumulate surface of the
//!   paper's `perfctr` counters. The policies' estimators sample them
//!   twice per quantum (`core::pipeline`).
//! * [`workloads`] — models of the paper's eleven NAS/Splash-2
//!   applications and the BBMA/nBBMA microbenchmarks.
//! * [`core`] — the contribution: the **Latest Quantum** and **Quanta
//!   Window** policies, the gang selection algorithm (Equation 1), the
//!   Linux 2.4-like baseline, ablation comparators, and the user-level
//!   CPU manager (shared arenas, block/unblock signal gates) runnable
//!   with real OS threads.
//! * [`metrics`] — moving windows, slowdown/improvement summaries, table
//!   rendering.
//!
//! ## Quickstart
//!
//! ```
//! use busbw::sim::{StopCondition, XEON_4WAY};
//! use busbw::workloads::{mix, paper::PaperApp};
//! use busbw::core::quanta_window;
//!
//! // Two CG instances + two saturating and two idle microbenchmarks,
//! // on the paper's 4-way Xeon, under the Quanta Window policy.
//! let spec = mix::fig2_set_c(PaperApp::Cg).scaled(0.05);
//! let built = mix::build_machine(&spec, XEON_4WAY, 42);
//! let mut machine = built.machine;
//! let mut policy = quanta_window();
//! let out = machine.run(
//!     &mut policy,
//!     StopCondition::AppsFinished(built.measured_ids.clone()),
//! );
//! assert!(out.condition_met);
//! for id in &built.measured_ids {
//!     println!("turnaround: {} µs", machine.turnaround_us(*id).unwrap());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use busbw_core as core;
pub use busbw_metrics as metrics;
pub use busbw_perfmon as perfmon;
pub use busbw_sim as sim;
pub use busbw_workloads as workloads;
