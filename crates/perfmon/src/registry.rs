//! The machine-wide counter registry.
//!
//! The simulator owns a [`Registry`] and accumulates events into it every
//! tick; schedulers and the CPU manager read from it at sampling points.
//! Threads are identified by an opaque [`ThreadKey`] so this crate does not
//! depend on the simulator's thread type.

use crate::counter::{CounterSet, EventKind};

/// Opaque thread identifier. The simulator guarantees uniqueness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadKey(pub u64);

/// All per-thread counter sets on the machine.
///
/// Counter sets live in a dense slot vector indexed by the key's integer
/// value: the simulator hands out small sequential thread ids, so lookups
/// on the per-tick accounting path are a bounds check and an add rather
/// than a tree walk. Iteration is in ascending key order (slot order),
/// which keeps the scheduling policies and every experiment in the
/// reproduction bit-for-bit repeatable across runs.
#[derive(Debug, Default, Clone)]
pub struct Registry {
    slots: Vec<Option<CounterSet>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a thread, creating zeroed counters for it. Registering an
    /// existing thread is a no-op (its counts are preserved), mirroring how
    /// opening an already-open perfctr file does not reset it.
    pub fn register(&mut self, t: ThreadKey) {
        let i = t.0 as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        if self.slots[i].is_none() {
            self.slots[i] = Some(CounterSet::default());
        }
    }

    fn slot(&self, t: ThreadKey) -> Option<&CounterSet> {
        self.slots.get(t.0 as usize).and_then(Option::as_ref)
    }

    /// Accumulate `amount` events of `kind` for thread `t`.
    ///
    /// # Panics
    /// Panics if `t` is not registered — producers must register threads
    /// before counting against them; silently dropping events would corrupt
    /// rate estimates.
    pub fn add(&mut self, t: ThreadKey, kind: EventKind, amount: f64) {
        self.slots
            .get_mut(t.0 as usize)
            .and_then(Option::as_mut)
            .unwrap_or_else(|| panic!("thread {t:?} not registered with perfmon"))
            .add(kind, amount);
    }

    /// Mutable access to one thread's counters (the simulator's per-tick
    /// accounting).
    pub fn counters_mut(&mut self, t: ThreadKey) -> Option<&mut CounterSet> {
        self.slots.get_mut(t.0 as usize).and_then(Option::as_mut)
    }

    /// Total of `kind` for thread `t`, or 0 if unregistered.
    pub fn total(&self, t: ThreadKey, kind: EventKind) -> f64 {
        self.slot(t).map_or(0.0, |s| s.get(kind).total())
    }

    /// Sum of `kind` over every registered thread (machine-wide rate
    /// numerator, e.g. for utilization reports).
    pub fn machine_total(&self, kind: EventKind) -> f64 {
        self.slots
            .iter()
            .flatten()
            .map(|s| s.get(kind).total())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_is_idempotent_and_preserves_counts() {
        let mut r = Registry::new();
        let t = ThreadKey(1);
        r.register(t);
        r.add(t, EventKind::BusTransactions, 42.0);
        r.register(t);
        assert_eq!(r.total(t, EventKind::BusTransactions), 42.0);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn counting_against_unregistered_thread_panics() {
        let mut r = Registry::new();
        r.add(ThreadKey(9), EventKind::BusTransactions, 1.0);
    }
}
