//! Discrete-time SMP simulator substrate for the ICPP 2003 reproduction.
//!
//! The paper ran on a dedicated 4-processor Hyperthreaded Xeon SMP
//! (1.4 GHz, 256 KB L2 per cpu, 400 MHz front-side bus; 3.2 GB/s theoretical
//! and 1797 MB/s ≈ **29.5 bus transactions/µs** sustained as measured with
//! STREAM; 64 bytes per transaction). This crate substitutes that machine
//! with a deterministic fluid simulator:
//!
//! * `bus` — the shared front-side bus. Demand beyond sustained capacity
//!   dilates every thread's memory phases by a common factor λ (solved so
//!   issued traffic exactly equals effective capacity), and contention
//!   below saturation costs a mild queueing penalty. Per-master arbitration
//!   overhead shrinks effective capacity as more processors contend,
//!   matching the paper's observation that "contention and arbitration
//!   contribute to bandwidth consumption" even below the raw limit.
//! * `cache` — per-cpu cache warmth: threads build state while running
//!   and lose it to eviction; cold threads run slower and fetch more,
//!   reproducing the paper's affinity effects (LU CB's and Water-nsqr's
//!   migration sensitivity).
//! * `thread`, `demand` — the thread execution model: work measured in
//!   *virtual microseconds*; a [`demand::DemandModel`] maps virtual time to
//!   (solo bus demand, memory-boundness).
//! * `machine` — the SMP itself: tick loop, scheduler callbacks, quantum
//!   and sampling timers, precise completion times, and
//!   [`machine::ProgressCeiling`], a bound on how far a decision's threads
//!   can get in the coming quantum.
//! * `stats` — per-run accounting (saturation residency, peak pressure).
//!
//! Schedulers (the paper's contribution, crate `busbw-core`) plug in through
//! the [`machine::Scheduler`] trait and observe the machine only through
//! [`machine::MachineView`] — which exposes exactly what a user-level CPU
//! manager could see on the real machine: thread states, processor counts,
//! and the performance-monitoring counters of crate `busbw-perfmon`.
//!
//! Everything is deterministic: the simulator itself uses no randomness, and
//! iteration orders are fixed, so every experiment is bit-for-bit
//! reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod bus;
pub(crate) mod cache;
pub(crate) mod config;
pub(crate) mod demand;
pub(crate) mod ids;
pub(crate) mod machine;
pub(crate) mod prof;
pub(crate) mod stage;
pub(crate) mod stats;
pub mod testkit;
pub(crate) mod thread;

pub use bus::{BusModel, BusRequest, FsbBus, HierarchicalBus, LevelOutcome, MAX_BUS_LEVELS};
pub use cache::CacheConfig;
pub use config::{
    BusConfig, MachineConfig, TopologyConfig, PAPER_BUS_TX_PER_US, XEON_4WAY, XEON_4WAY_HT,
};
pub use demand::{ConstantDemand, Demand, DemandModel};
pub use ids::{AppId, CpuId, SimTime, ThreadId};
pub use machine::{
    AppDescriptor, Assignment, AuditHook, Decision, ExecMode, Machine, MachineView,
    ProgressCeiling, RunCursor, RunOutcome, Scheduler, StepEvent, StopCondition,
};
pub use prof::{Phase, PhaseSet};
pub use stage::{StageSnapshot, StageTiming, StageTimings, STAGE_BUCKET_BOUNDS_NS, STAGE_NAMES};
pub use stats::TickDtHist;
pub use thread::{ThreadSpec, ThreadState};
