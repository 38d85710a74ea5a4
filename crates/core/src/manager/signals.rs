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
//!
//! The gate's mutex guards a count of parked threads, and
//! [`SignalGate::deliver`] wakes the condvar only when that count is
//! non-zero. A futex `notify_all` is a system call even with nobody
//! waiting, and a virtual-time serve (`busbw-managerd`) delivers hundreds
//! of thousands of signals to gates no thread ever parks on. No wakeup is
//! lost: a waiter raises the count and re-checks the predicate under the
//! same lock a delivery updates the counters under, and the condvar
//! releases that lock only once the waiter is queued on it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

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
    /// Threads parked on `cv` (or about to park: raised under the lock
    /// before the condvar releases it).
    parked: Mutex<u32>,
    cv: Condvar,
}

impl SignalGate {
    /// A gate with no signals delivered (thread runs).
    pub fn new() -> Self {
        Self::default()
    }

    /// Take the gate's lock. The parked count it guards changes by one
    /// step at a time, and a count left too high by a panicking waiter
    /// costs only a spurious wake, so a poisoned lock is simply taken over.
    fn lock(&self) -> MutexGuard<'_, u32> {
        self.parked.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Deliver a signal (manager side, or a sibling thread forwarding).
    pub fn deliver(&self, s: Signal) {
        // The counter update must happen under the lock so a waiter cannot
        // observe the stale predicate between its check and its park.
        let parked = self.lock();
        match s {
            Signal::Block => self.blocks.fetch_add(1, Ordering::SeqCst),
            Signal::Unblock => self.unblocks.fetch_add(1, Ordering::SeqCst),
        };
        let wake = *parked > 0;
        drop(parked);
        if wake {
            self.cv.notify_all();
        }
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
    pub(crate) fn wait_while_blocked(&self) {
        let mut parked = self.lock();
        *parked += 1;
        let mut parked = self
            .cv
            .wait_while(parked, |_| self.should_block())
            .unwrap_or_else(PoisonError::into_inner);
        *parked -= 1;
    }

    /// Like [`Self::wait_while_blocked`] but gives up after `timeout`.
    /// Returns `true` if the thread is clear to run, `false` on timeout.
    #[cfg(test)]
    pub(crate) fn wait_while_blocked_timeout(&self, timeout: std::time::Duration) -> bool {
        let mut parked = self.lock();
        *parked += 1;
        let (mut parked, _) = self
            .cv
            .wait_timeout_while(parked, timeout, |_| self.should_block())
            .unwrap_or_else(PoisonError::into_inner);
        *parked -= 1;
        !self.should_block()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

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

    /// Spin until `n` threads are parked on `g` (queued on its condvar:
    /// the count is raised under the lock the condvar then releases).
    fn await_parked(g: &SignalGate, n: u32) {
        while *g.lock() < n {
            std::thread::yield_now();
        }
    }

    /// Park one thread on `g`; the receiver yields once it has woken.
    fn spawn_parker(g: &Arc<SignalGate>) -> (std::thread::JoinHandle<()>, mpsc::Receiver<()>) {
        let (tx, rx) = mpsc::channel();
        let g = g.clone();
        let t = std::thread::spawn(move || {
            g.wait_while_blocked();
            tx.send(()).expect("test waits for the wake");
        });
        (t, rx)
    }

    const WAKE_DEADLINE: Duration = Duration::from_secs(10);

    #[test]
    fn parker_after_many_unwatched_deliveries_still_wakes() {
        // Deliveries with nobody parked skip the condvar entirely; the
        // first thread to park afterwards must still be woken.
        let g = Arc::new(SignalGate::new());
        for _ in 0..10_000 {
            g.deliver(Signal::Block);
            g.deliver(Signal::Unblock);
        }
        g.deliver(Signal::Block);
        let (t, woke) = spawn_parker(&g);
        await_parked(&g, 1);
        g.deliver(Signal::Unblock);
        woke.recv_timeout(WAKE_DEADLINE)
            .expect("parked thread lost its wakeup");
        t.join().unwrap();
        assert_eq!(*g.lock(), 0);
    }

    #[test]
    fn timed_out_wait_leaves_the_gate_able_to_wake_a_later_parker() {
        let g = Arc::new(SignalGate::new());
        g.deliver(Signal::Block);
        assert!(!g.wait_while_blocked_timeout(Duration::from_millis(5)));
        assert_eq!(*g.lock(), 0, "a timed-out waiter must unregister");
        let (t, woke) = spawn_parker(&g);
        await_parked(&g, 1);
        g.deliver(Signal::Unblock);
        woke.recv_timeout(WAKE_DEADLINE)
            .expect("later parker lost its wakeup");
        t.join().unwrap();
    }

    #[test]
    fn every_parked_thread_wakes_after_a_concurrent_signal_storm() {
        // Four threads park on one blocked gate while four others race
        // Block/Unblock pairs at it. Each storm thread sends its Block
        // before its Unblock, so the gate stays blocked throughout; the
        // final Unblock must wake all four parkers.
        let g = Arc::new(SignalGate::new());
        g.deliver(Signal::Block);
        let parkers: Vec<_> = (0..4).map(|_| spawn_parker(&g)).collect();
        await_parked(&g, 4);
        let start = Arc::new(std::sync::Barrier::new(4));
        let storm: Vec<_> = (0..4)
            .map(|_| {
                let (g, start) = (g.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    for _ in 0..500 {
                        g.deliver(Signal::Block);
                        g.deliver(Signal::Unblock);
                    }
                })
            })
            .collect();
        for t in storm {
            t.join().unwrap();
        }
        assert!(g.should_block());
        g.deliver(Signal::Unblock);
        for (t, woke) in parkers {
            woke.recv_timeout(WAKE_DEADLINE)
                .expect("a parker lost its wakeup");
            t.join().unwrap();
        }
        assert_eq!(g.counts(), (2001, 2001));
        assert_eq!(*g.lock(), 0);
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
