//! Event counters.
//!
//! A [`Counter`] mimics one hardware event counter: a monotone accumulator
//! that readers sample (`total`) and difference between sampling points.
//! A [`CounterSet`] groups the counters of a single thread, the same
//! granularity at which the `perfctr` driver virtualizes the PMU.

/// The hardware events the simulated PMU can count.
///
/// The paper's policies use only [`EventKind::BusTransactions`] (the Pentium 4
/// `IOQ_allocation` / bus-transactions-any event). The others are provided
/// because the simulator produces them for free and extensions (cache-aware
/// ablations, symbiosis metrics) consume them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EventKind {
    /// Transactions issued on the front-side bus (64 bytes each on the
    /// paper's Xeon platform).
    BusTransactions,
    /// Elapsed cycles while the thread was scheduled on a cpu.
    /// (The simulator counts wall-microseconds-on-cpu; at a fixed clock the
    /// two are proportional.)
    CyclesOnCpu,
    /// Virtual progress: microseconds of *useful* work completed. Not
    /// observable on real hardware — exposed for validation and tests only.
    VirtualProgress,
    /// Number of times the thread was placed on a cpu whose cache it did not
    /// already occupy (cold start / migration).
    ColdStarts,
    /// Number of scheduling quanta in which the thread ran at all.
    QuantaRun,
}

impl EventKind {
    /// Every defined event kind, in a fixed order (used for dense storage).
    pub(crate) const ALL: [EventKind; 5] = [
        EventKind::BusTransactions,
        EventKind::CyclesOnCpu,
        EventKind::VirtualProgress,
        EventKind::ColdStarts,
        EventKind::QuantaRun,
    ];

    /// Dense index of this event within [`EventKind::ALL`].
    #[inline]
    pub(crate) fn index(self) -> usize {
        match self {
            EventKind::BusTransactions => 0,
            EventKind::CyclesOnCpu => 1,
            EventKind::VirtualProgress => 2,
            EventKind::ColdStarts => 3,
            EventKind::QuantaRun => 4,
        }
    }
}

/// One monotone event counter.
///
/// `total` only grows (the simulator adds non-negative amounts); readers
/// keep their own previous reading and take differences, exactly how
/// user-space samples a `perfctr` virtual counter.
#[derive(Debug, Clone, Default)]
pub(crate) struct Counter {
    total: f64,
}

impl Counter {
    /// Accumulate `amount` events. Negative amounts are a logic error in the
    /// producer and are rejected (counters are monotone).
    ///
    /// # Panics
    /// Panics if `amount` is negative or NaN.
    pub(crate) fn add(&mut self, amount: f64) {
        assert!(
            amount >= 0.0 && amount.is_finite(),
            "counter increments must be finite and non-negative, got {amount}"
        );
        self.total += amount;
    }

    /// Total events since creation (never decreases).
    #[inline]
    pub(crate) fn total(&self) -> f64 {
        self.total
    }
}

/// All counters belonging to one thread.
#[derive(Debug, Clone, Default)]
pub struct CounterSet {
    counters: [Counter; EventKind::ALL.len()],
}

impl CounterSet {
    /// Shared access to a specific counter.
    #[inline]
    pub(crate) fn get(&self, kind: EventKind) -> &Counter {
        &self.counters[kind.index()]
    }

    /// Mutable access to a specific counter.
    #[inline]
    pub(crate) fn get_mut(&mut self, kind: EventKind) -> &mut Counter {
        &mut self.counters[kind.index()]
    }

    /// Accumulate events of `kind`.
    #[inline]
    pub fn add(&mut self, kind: EventKind, amount: f64) {
        self.get_mut(kind).add(amount);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_increment_rejected() {
        Counter::default().add(-1.0);
    }

    #[test]
    fn counter_set_addresses_each_event_independently() {
        let mut s = CounterSet::default();
        s.add(EventKind::BusTransactions, 100.0);
        s.add(EventKind::CyclesOnCpu, 7.0);
        assert_eq!(s.get(EventKind::BusTransactions).total(), 100.0);
        assert_eq!(s.get(EventKind::CyclesOnCpu).total(), 7.0);
        assert_eq!(s.get(EventKind::VirtualProgress).total(), 0.0);
    }

    #[test]
    fn event_index_is_dense_and_consistent() {
        for (i, k) in EventKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }
}
