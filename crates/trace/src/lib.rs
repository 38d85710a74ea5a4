//! Structured observability for the busbw stack: a zero-dependency event
//! bus, pluggable sinks, and machine-readable run manifests.
//!
//! The paper's policies live or die on quantum-scale measurements — per
//! thread bus-transaction rates, the dilation factor Λ, which gang the
//! selection loop admitted and why. End-of-run CSV tables cannot answer
//! "which quantum's selection flipped"; per-decision traces can. This
//! crate provides the plumbing:
//!
//! * [`TraceEvent`] — one enum covering the simulator tick loop
//!   (placements, phase edges, coarsening jumps, bus Λ solves), the
//!   scheduler (gang selections with fitness scores, head-of-list
//!   admissions, demand reconstruction), and the CPU manager
//!   (connect/disconnect, gate transitions, signal-reorder injections).
//!   Every event renders to a single JSONL line.
//! * [`EventBus`] — a cloneable handle instrumented code emits into. A
//!   disabled bus ([`EventBus::off`]) is a single branch on the hot path;
//!   an enabled bus feeds a bounded ring of recent events (post-mortem
//!   context) plus one pluggable [`TraceSink`].
//! * Sinks — [`NullSink`] (overhead measurement), [`MemorySink`]
//!   (in-process inspection for tests), [`JsonlSink`] (streaming file
//!   writer).
//! * [`Manifest`] — the run manifest written next to each `results/`
//!   artifact: seed, scale, policies, git-describe, wall time, per-figure
//!   checksums ([`fnv1a64`]) and an optional metrics snapshot.
//! * [`json`] — a minimal JSON renderer/parser so manifests and traces
//!   can be validated without external crates.
//! * [`wire`] — the bit-exact binary codec the run cache stores results
//!   (and their events) in.
//!
//! Everything here is deterministic: events carry simulated time only, so
//! a run traced with 1 worker and with 4 workers produces byte-identical
//! per-run event streams.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bus;
mod event;
pub mod json;
mod manifest;
mod sink;
pub mod validate;
pub mod wire;

pub use bus::{EventBus, RECENT_CAPACITY};
pub use event::{PipelineStage, TraceEvent};
pub use manifest::{fnv1a64, git_describe, ArtifactSum, Manifest, TraceInfo};
pub use sink::{JsonlSink, MemoryHandle, MemorySink, NullSink, TraceSink};
pub use validate::{validate_stream, StreamViolation};
