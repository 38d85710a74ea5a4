//! The event bus: a cloneable handle instrumented code emits into.

use std::sync::{Arc, Mutex};

use crate::event::TraceEvent;
use crate::sink::{MemoryHandle, MemorySink, TraceSink};

/// A handle for emitting [`TraceEvent`]s.
///
/// Cloning is cheap (an `Arc` bump) and every clone feeds the same sink,
/// so one bus can be shared by the machine, the scheduler, and the CPU
/// manager of a single run. The disabled bus ([`EventBus::off`], also
/// `Default`) costs one branch per emission site — callers are expected
/// to guard event *construction* with [`EventBus::emits`] (which is also
/// false for an enabled bus whose sink discards, e.g.
/// [`crate::NullSink`]):
///
/// ```
/// # use busbw_trace::{EventBus, TraceEvent};
/// # let tracer = EventBus::off();
/// if tracer.emits() {
///     tracer.emit(TraceEvent::CoarseJump { at_us: 0, dt_us: 500, ticks_covered: 5 });
/// }
/// ```
#[derive(Clone, Default)]
pub struct EventBus {
    inner: Option<Arc<Inner>>,
}

struct Inner {
    sink: Mutex<Box<dyn TraceSink>>,
    /// Sink's [`TraceSink::records`] sampled at construction: false for a
    /// sink that provably discards everything, so hot paths can skip
    /// emission without taking the sink lock.
    emits: bool,
}

impl EventBus {
    /// A disabled bus: `enabled()` is false, `emit` is a no-op.
    pub fn off() -> Self {
        Self { inner: None }
    }

    /// An enabled bus feeding `sink`.
    pub fn new(sink: Box<dyn TraceSink>) -> Self {
        let emits = sink.records();
        Self {
            inner: Some(Arc::new(Inner {
                sink: Mutex::new(sink),
                emits,
            })),
        }
    }

    /// An enabled bus collecting into memory; returns the read handle.
    pub fn memory() -> (Self, MemoryHandle) {
        let (sink, handle) = MemorySink::new();
        (Self::new(Box::new(sink)), handle)
    }

    /// Whether emissions reach a sink. Emission sites use this to skip
    /// event construction entirely when tracing is off.
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether emitted events are observable anywhere: enabled *and* the
    /// sink records (`TraceSink::records`). Hot emission sites should
    /// gate on this rather than `EventBus::enabled` — a bus over a
    /// [`crate::NullSink`] is enabled but emits nothing, so per-event
    /// construction and locking can both be skipped.
    #[inline]
    pub fn emits(&self) -> bool {
        matches!(&self.inner, Some(inner) if inner.emits)
    }

    /// Record one event (no-op when disabled or the sink discards — see
    /// [`EventBus::emits`]).
    pub fn emit(&self, ev: TraceEvent) {
        if let Some(inner) = &self.inner {
            if inner.emits {
                inner.sink.lock().expect("trace bus poisoned").record(&ev);
            }
        }
    }
}

impl std::fmt::Debug for EventBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventBus")
            .field("enabled", &self.enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64) -> TraceEvent {
        TraceEvent::CoarseJump {
            at_us: t,
            dt_us: 1,
            ticks_covered: 1,
        }
    }

    #[test]
    fn disabled_bus_is_inert() {
        let bus = EventBus::off();
        assert!(!bus.enabled());
        assert!(!bus.emits());
        bus.emit(ev(1));
    }

    #[test]
    fn null_sink_bus_is_enabled_but_does_not_emit() {
        let bus = EventBus::new(Box::new(crate::NullSink));
        assert!(bus.enabled(), "attached bus must report enabled");
        assert!(!bus.emits(), "discarding sink must not force emission");
        bus.emit(ev(1));
    }

    #[test]
    fn recording_sink_bus_emits() {
        let (bus, handle) = EventBus::memory();
        assert!(bus.enabled() && bus.emits());
        bus.emit(ev(3));
        assert_eq!(handle.events().len(), 1);
    }

    #[test]
    fn clones_share_one_sink() {
        let (bus, handle) = EventBus::memory();
        let clone = bus.clone();
        bus.emit(ev(1));
        clone.emit(ev(2));
        assert_eq!(handle.events().len(), 2);
    }
}
