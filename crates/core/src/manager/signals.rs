//! Block/unblock signaling with the paper's inversion-tolerant rule.
//!
//! §4: *"In order to avoid side-effects from possible inversion in the
//! order block / unblock signals are sent and received, a thread blocks
//! only if the number of received block signals exceeds the corresponding
//! number of unblock signals. Such an inversion is quite probable,
//! especially if the time interval between consecutive blocks and unblocks
//! is narrow."*
//!
//! [`SignalGate`] is the per-thread embodiment: two monotone counters and
//! a condvar. `should_block()` is exactly `blocks > unblocks`; a thread
//! parked in [`SignalGate::wait_while_blocked`] wakes as soon as the
//! predicate turns false — including the inversion case where the unblock
//! arrives *before* the block (the thread then never parks at all).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// A scheduling signal from the manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signal {
    /// Stop running at the next checkpoint.
    Block,
    /// Resume (or cancel a pending block).
    Unblock,
}

/// The per-thread block/unblock counting gate.
#[derive(Debug, Default)]
pub struct SignalGate {
    blocks: AtomicU64,
    unblocks: AtomicU64,
    lock: Mutex<()>,
    cv: Condvar,
}

impl SignalGate {
    /// A gate with no signals delivered (thread runs).
    pub fn new() -> Self {
        Self::default()
    }

    /// Take the gate's lock. The lock guards no data of its own (the
    /// counters are atomics), so a poisoned lock is simply taken over.
    fn lock(&self) -> MutexGuard<'_, ()> {
        self.lock.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Deliver a signal (manager side, or a sibling thread forwarding).
    pub fn deliver(&self, s: Signal) {
        // The counter update must happen under the lock so a waiter cannot
        // observe the stale predicate between its check and its park.
        let guard = self.lock();
        match s {
            Signal::Block => self.blocks.fetch_add(1, Ordering::SeqCst),
            Signal::Unblock => self.unblocks.fetch_add(1, Ordering::SeqCst),
        };
        drop(guard);
        self.cv.notify_all();
    }

    /// The paper's rule: block only if strictly more blocks than unblocks
    /// have been received.
    pub fn should_block(&self) -> bool {
        self.blocks.load(Ordering::SeqCst) > self.unblocks.load(Ordering::SeqCst)
    }

    /// Signal counts `(blocks, unblocks)` received so far (diagnostics).
    pub fn counts(&self) -> (u64, u64) {
        (
            self.blocks.load(Ordering::SeqCst),
            self.unblocks.load(Ordering::SeqCst),
        )
    }

    /// Park the calling thread until `should_block()` is false.
    /// Returns immediately if the thread is not blocked.
    pub fn wait_while_blocked(&self) {
        let _guard = self
            .cv
            .wait_while(self.lock(), |_| self.should_block())
            .unwrap_or_else(PoisonError::into_inner);
    }

    /// Like [`Self::wait_while_blocked`] but gives up after `timeout`.
    /// Returns `true` if the thread is clear to run, `false` on timeout.
    pub fn wait_while_blocked_timeout(&self, timeout: Duration) -> bool {
        let (_guard, _) = self
            .cv
            .wait_timeout_while(self.lock(), timeout, |_| self.should_block())
            .unwrap_or_else(PoisonError::into_inner);
        !self.should_block()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn fresh_gate_is_open() {
        let g = SignalGate::new();
        assert!(!g.should_block());
        g.wait_while_blocked(); // must not hang
    }

    #[test]
    fn block_then_unblock_reopens() {
        let g = SignalGate::new();
        g.deliver(Signal::Block);
        assert!(g.should_block());
        g.deliver(Signal::Unblock);
        assert!(!g.should_block());
    }

    #[test]
    fn inverted_delivery_never_blocks() {
        // The paper's scenario: the unblock for quantum N+1 overtakes the
        // block for quantum N. Counting makes the net effect zero.
        let g = SignalGate::new();
        g.deliver(Signal::Unblock);
        assert!(!g.should_block());
        g.deliver(Signal::Block);
        assert!(!g.should_block(), "inversion must cancel out");
        assert_eq!(g.counts(), (1, 1));
    }

    #[test]
    fn repeated_blocks_need_matching_unblocks() {
        let g = SignalGate::new();
        g.deliver(Signal::Block);
        g.deliver(Signal::Block);
        g.deliver(Signal::Unblock);
        assert!(g.should_block(), "2 blocks vs 1 unblock stays blocked");
        g.deliver(Signal::Unblock);
        assert!(!g.should_block());
    }

    #[test]
    fn parked_thread_wakes_on_unblock() {
        let g = Arc::new(SignalGate::new());
        g.deliver(Signal::Block);
        let woke = Arc::new(AtomicBool::new(false));
        let (g2, woke2) = (g.clone(), woke.clone());
        let t = std::thread::spawn(move || {
            g2.wait_while_blocked();
            woke2.store(true, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(50));
        assert!(!woke.load(Ordering::SeqCst), "thread ran while blocked");
        g.deliver(Signal::Unblock);
        t.join().unwrap();
        assert!(woke.load(Ordering::SeqCst));
    }

    #[test]
    fn timeout_wait_reports_still_blocked() {
        let g = SignalGate::new();
        g.deliver(Signal::Block);
        assert!(!g.wait_while_blocked_timeout(Duration::from_millis(20)));
        g.deliver(Signal::Unblock);
        assert!(g.wait_while_blocked_timeout(Duration::from_millis(20)));
    }

    #[test]
    fn concurrent_signal_storm_balances_exactly() {
        // Many block/unblock pairs delivered from racing threads leave the
        // gate open (equal counts), regardless of interleaving.
        let g = Arc::new(SignalGate::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let g = g.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    g.deliver(Signal::Block);
                    g.deliver(Signal::Unblock);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(g.counts(), (2000, 2000));
        assert!(!g.should_block());
    }
}
