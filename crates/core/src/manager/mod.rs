//! The user-level CPU manager (§4), as real concurrent code.
//!
//! The paper implements its policies *without kernel changes*: a server
//! process (the CPU manager) to which applications connect over a UNIX
//! socket. For each connection the manager creates a **shared arena** — a
//! shared memory page through which the application publishes its bus
//! transaction rate (updated twice per scheduling quantum) — and controls
//! execution by sending **block/unblock signals**; a thread blocks only if
//! the number of block signals received exceeds the number of unblock
//! signals, which tolerates signal reordering ("inversion") when quanta
//! are short. A run-time library intercepts thread creation/destruction
//! and forwards signals to sibling threads.
//!
//! This module reproduces each artifact:
//!
//! * `protocol` — connect/disconnect/thread lifecycle messages (the
//!   UNIX-socket substitute is a `std::sync::mpsc` channel, each connect
//!   answered on a one-slot reply channel), each handled by one
//!   [`CpuManager`] method that in-process hosts may also call directly;
//! * `seqlock` — the shared arena as a lock-free seqlock page (single
//!   writer, readers that never block it), matching the raw-page
//!   semantics of the original;
//! * `signals` — the block/unblock counting gate with condvar parking
//!   for real OS threads, tolerant to signal inversion by construction,
//!   that wakes the condvar only when a thread is parked;
//! * `client` — the run-time library side: connect, register threads,
//!   count transactions, publish arena samples, obey the gate;
//! * `server` — the manager proper: circular job list, per-quantum
//!   sampling of every arena, the shared `crate::selection` algorithm,
//!   and signal fan-out.
//!
//! Everything here runs with *real* threads (see
//! `examples/cpu_manager_demo.rs`); the deterministic simulator experiments
//! use the [`crate::bus_aware`] stacks, which share the estimator and
//! selection logic with this manager.

pub(crate) mod client;
pub(crate) mod protocol;
pub(crate) mod seqlock;
pub(crate) mod server;
pub(crate) mod signals;

pub use client::{AppRuntime, ThreadHandle};
pub use protocol::ClientId;
pub use seqlock::{ArenaSnapshot, SeqlockArena};
pub use server::{CpuManager, ManagerConfig, ManagerHandle};
pub use signals::{Signal, SignalGate};
