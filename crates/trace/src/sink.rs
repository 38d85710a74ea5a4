//! Pluggable trace sinks: null and in-memory.

use std::sync::{Arc, Mutex};

use crate::event::TraceEvent;

/// Where emitted events go. Implementations receive events one at a
/// time, already serialized order; they must not reorder.
pub trait TraceSink: Send {
    /// Record one event.
    fn record(&mut self, ev: &TraceEvent);

    /// Whether recorded events are observable anywhere (default true).
    /// A sink that provably discards everything returns false, letting
    /// the owning bus skip event construction and dispatch entirely on
    /// hot paths ([`crate::EventBus::emits`]).
    fn records(&self) -> bool {
        true
    }
}

/// Discards every event. Exists to exercise the full bus plumbing
/// (construction, attachment, flush) without I/O; hot emission sites may
/// skip it entirely via `TraceSink::records`, so it measures the
/// *attached-but-silent* configuration, not per-event dispatch.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _ev: &TraceEvent) {}

    fn records(&self) -> bool {
        false
    }
}

/// Shared read handle for a `MemorySink`'s collected events.
#[derive(Debug, Clone, Default)]
pub struct MemoryHandle {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl MemoryHandle {
    /// Snapshot of everything recorded so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("trace memory poisoned").clone()
    }

    /// Drain the recorded events, leaving the sink empty.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().expect("trace memory poisoned"))
    }
}

/// Collects events in memory; tests read them back through the paired
/// [`MemoryHandle`].
#[derive(Debug, Default)]
pub(crate) struct MemorySink {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl MemorySink {
    /// A fresh sink plus its read handle.
    pub(crate) fn new() -> (Self, MemoryHandle) {
        let events = Arc::new(Mutex::new(Vec::new()));
        (
            Self {
                events: events.clone(),
            },
            MemoryHandle { events },
        )
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, ev: &TraceEvent) {
        self.events
            .lock()
            .expect("trace memory poisoned")
            .push(ev.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64) -> TraceEvent {
        TraceEvent::CoarseJump {
            at_us: t,
            dt_us: 100,
            ticks_covered: 1,
        }
    }

    #[test]
    fn memory_sink_preserves_order_and_supports_take() {
        let (mut sink, handle) = MemorySink::new();
        for t in [1, 2, 3] {
            sink.record(&ev(t));
        }
        assert_eq!(handle.events().len(), 3);
        let got = handle.take();
        assert_eq!(got, vec![ev(1), ev(2), ev(3)]);
        assert!(handle.events().is_empty());
    }
}
