//! Bus-bandwidth-aware scheduling for SMPs — the primary contribution of
//! the ICPP 2003 paper, plus its baseline and supporting machinery.
//!
//! Two policies (§4):
//!
//! * **Latest Quantum** ([`LatestQuantumEstimator`]) — drives scheduling
//!   with each job's bus-transaction rate per thread measured over the
//!   most recent quantum it ran.
//! * **Quanta Window** ([`QuantaWindowEstimator`]) — the same, but over a
//!   moving window of the last 5 counter samples, trading responsiveness
//!   for robustness to bursts.
//!
//! Every scheduler here is a [`pipeline::PolicyStack`]: a composition of
//! four stages — *estimate* (measure each job's bandwidth), *admit*
//! (unconditional admissions, e.g. the paper's head-of-list rule), *select*
//! (fill the remaining processors, e.g. by [`fitness`]), and *place* (map
//! gangs onto cpus). The paper policies compose
//! [`pipeline::ReconstructingEstimator`] + [`pipeline::HeadOfList`] +
//! [`pipeline::FitnessSelector`] + [`pipeline::PackedPlacer`] via
//! [`bus_aware`]: an application is given processors only if all of its
//! threads fit; the job at the head of a circular list is always admitted
//! (no starvation); remaining processors are filled by repeatedly picking
//! the job with the highest [`fitness`] — the proximity between the job's
//! bandwidth/thread and the still-available bus bandwidth per unallocated
//! processor.
//!
//! The baseline is [`linux_like`], a time-sharing scheduler with dynamic
//! time slices, epochs, and cache-affinity bias modeled on the Linux 2.4
//! scheduler the paper compares against ([`linux26::linux_o1`] models the
//! newer O(1) scheduler). [`oracle`] has further comparators (random gang,
//! round-robin gang, greedy) for ablations — all presets over the same
//! stages, so any estimator/admission/selector/placer combination can
//! also be composed directly — plus [`oracle::offline_optimal`], a
//! branch-and-bound search for the clairvoyant-optimal gang schedule on
//! small instances, against which every preset can be scored by regret.
//!
//! [`manager`] reproduces the paper's **user-level CPU manager** as real
//! concurrent code: connection protocol, shared arena, block/unblock
//! signals with the inversion-tolerant counting rule — usable with real OS
//! threads, and unit-tested including signal reordering.
//!
//! [`fitness`]: fitness::fitness

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod estimator;
pub(crate) mod fitness;
pub(crate) mod linux;
pub(crate) mod linux26;
pub mod manager;
pub mod model;
pub mod oracle;
pub mod pipeline;
pub(crate) mod reconstruct;
pub(crate) mod sched;
pub(crate) mod selection;

pub(crate) use estimator::{LatestQuantumEstimator, QuantaWindowEstimator};
pub use fitness::fitness;
pub use linux::{linux_like, LinuxConfig, LinuxEpochSelector};
pub use linux26::linux_o1;
pub use oracle::{
    greedy_pack, offline_optimal, random_gang, record_run, round_robin_gang,
    simulate as oracle_simulate, FixedPlanScheduler, OracleReport, OracleSearchConfig, SimNode,
};
pub use pipeline::{PolicyStack, SoloSelector};
pub use sched::{bus_aware, bus_aware_with_config, PolicyConfig};
pub use selection::{select_gangs, Candidate};

/// Convenience: the 'Latest Quantum' policy as a ready-to-run scheduler.
pub fn latest_quantum() -> PolicyStack {
    bus_aware(Box::new(LatestQuantumEstimator::new()))
}

/// Convenience: the 'Quanta Window' policy (5-sample window) as a
/// ready-to-run scheduler.
pub fn quanta_window() -> PolicyStack {
    bus_aware(Box::new(QuantaWindowEstimator::new()))
}
