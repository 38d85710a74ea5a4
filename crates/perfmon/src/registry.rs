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
    live: usize,
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
            self.live += 1;
        }
    }

    /// Remove a thread's counters (thread exit). Returns the final set so
    /// accounting can archive totals.
    pub fn unregister(&mut self, t: ThreadKey) -> Option<CounterSet> {
        let taken = self.slots.get_mut(t.0 as usize).and_then(Option::take);
        if taken.is_some() {
            self.live -= 1;
        }
        taken
    }

    /// Whether `t` has registered counters.
    pub fn contains(&self, t: ThreadKey) -> bool {
        self.slot(t).is_some()
    }

    /// Number of registered threads.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no thread is registered.
    pub fn is_empty(&self) -> bool {
        self.live == 0
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

    /// Shared access to one thread's counters.
    pub fn counters(&self, t: ThreadKey) -> Option<&CounterSet> {
        self.slot(t)
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

    /// Sum of `kind` across a group of threads — how the CPU manager
    /// accumulates per-application bandwidth from per-thread counters.
    pub fn group_total(&self, threads: &[ThreadKey], kind: EventKind) -> f64 {
        threads.iter().map(|&t| self.total(t, kind)).sum()
    }

    /// Deterministic iteration over all `(thread, counters)` pairs, in
    /// ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (ThreadKey, &CounterSet)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| (ThreadKey(i as u64), s)))
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

    /// Machine-wide totals for every event kind, as `(snake_case_name,
    /// total)` pairs in [`EventKind::ALL`] order — the shape the metrics
    /// registry's gauges and the run manifest consume.
    pub fn export_totals(&self) -> Vec<(String, f64)> {
        EventKind::ALL
            .iter()
            .map(|&k| (k.to_string(), self.machine_total(k)))
            .collect()
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

    #[test]
    fn group_total_sums_only_named_threads() {
        let mut r = Registry::new();
        for i in 0..4 {
            r.register(ThreadKey(i));
            r.add(
                ThreadKey(i),
                EventKind::BusTransactions,
                10.0 * (i + 1) as f64,
            );
        }
        let g = r.group_total(&[ThreadKey(0), ThreadKey(2)], EventKind::BusTransactions);
        assert_eq!(g, 10.0 + 30.0);
        assert_eq!(r.machine_total(EventKind::BusTransactions), 100.0);
    }

    #[test]
    fn unregister_returns_final_counts() {
        let mut r = Registry::new();
        let t = ThreadKey(3);
        r.register(t);
        r.add(t, EventKind::ColdStarts, 2.0);
        let set = r.unregister(t).expect("was registered");
        assert_eq!(set.get(EventKind::ColdStarts).total(), 2.0);
        assert!(!r.contains(t));
        assert!(r.unregister(t).is_none());
    }

    #[test]
    fn export_totals_covers_every_kind_in_fixed_order() {
        let mut r = Registry::new();
        r.register(ThreadKey(0));
        r.add(ThreadKey(0), EventKind::BusTransactions, 12.5);
        r.add(ThreadKey(0), EventKind::ColdStarts, 2.0);
        let totals = r.export_totals();
        assert_eq!(totals.len(), EventKind::ALL.len());
        assert_eq!(totals[0], ("bus_transactions".to_string(), 12.5));
        assert_eq!(totals[3], ("cold_starts".to_string(), 2.0));
        assert_eq!(totals[1].1, 0.0);
    }

    #[test]
    fn iteration_is_deterministic_and_sorted() {
        let mut r = Registry::new();
        for id in [5u64, 1, 9, 3] {
            r.register(ThreadKey(id));
        }
        let order: Vec<u64> = r.iter().map(|(k, _)| k.0).collect();
        assert_eq!(order, vec![1, 3, 5, 9]);
    }
}
