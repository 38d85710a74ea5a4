//! The shared arena: the manager's primary communication medium with each
//! application (§4), as a lock-free page.
//!
//! The paper's shared arena is a raw memory page written by the
//! application and read by the manager with no lock at all — on a real
//! system a mutex in that page would let a blocked application thread
//! wedge the manager. [`SeqlockArena`] reproduces that property safely:
//!
//! * the **writer** (one application-side publisher) increments a
//!   sequence counter to an odd value, stores the fields, then increments
//!   it again to even — all with `Release` stores;
//! * **readers** (the manager, any diagnostics) read the sequence with
//!   `Acquire`, copy the fields, re-read the sequence, and retry if it
//!   changed or was odd mid-copy.
//!
//! Readers never block the writer and vice versa; a torn snapshot is
//! impossible because the sequence check brackets the field reads. The
//! implementation is `forbid(unsafe_code)`-clean: fields live in
//! `AtomicU64`s (f64s as bit patterns), so even the racing accesses are
//! data-race-free by construction — the seqlock protocol provides
//! *consistency* across fields on top of per-field atomicity.
//!
//! This is the only arena: the manager hands one to every connecting
//! application, the run-time library publishes into it twice per quantum,
//! and every read yields a whole [`ArenaSnapshot`]. A fresh arena reads
//! as the all-zero snapshot.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

/// A decoded view of the arena contents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArenaSnapshot {
    /// Publication sequence number (increments per update).
    pub seq: u64,
    /// Number of live threads the application has registered.
    pub threads: u32,
    /// Cumulative bus transactions counted by the application.
    pub total_transactions: f64,
    /// Whole-application transaction rate over the last update interval,
    /// tx/µs.
    pub rate_tx_per_us: f64,
    /// Timestamp of the last update, µs (application clock).
    pub updated_at_us: u64,
}

impl ArenaSnapshot {
    /// Per-thread rate: the application's rate equipartitioned among its
    /// threads, which is exactly the `BBW/thread` the policies consume.
    pub fn rate_per_thread(&self) -> f64 {
        if self.threads == 0 {
            0.0
        } else {
            self.rate_tx_per_us / self.threads as f64
        }
    }
}

#[derive(Debug, Default)]
struct Fields {
    seq: AtomicU64,
    snap_seq: AtomicU64,
    threads: AtomicU64,
    total_tx_bits: AtomicU64,
    rate_bits: AtomicU64,
    updated_at: AtomicU64,
}

/// The lock-free arena. Cloning shares the underlying page.
#[derive(Debug, Clone, Default)]
pub struct SeqlockArena {
    f: Arc<Fields>,
}

impl SeqlockArena {
    /// A fresh (zeroed) arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish a snapshot (single-writer: the application's sampler).
    pub fn publish(&self, s: ArenaSnapshot) {
        let f = &self.f;
        // Enter the write-side critical section: odd sequence. The
        // release fence keeps the odd marker ordered *before* the field
        // stores (a plain Release store would only order what precedes
        // it — the field stores could be hoisted above the marker).
        let seq = f.seq.load(Ordering::Relaxed);
        f.seq.store(seq.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        // Field stores may be reordered among themselves — each is atomic,
        // and readers discard anything observed under an odd/changed seq.
        f.snap_seq.store(s.seq, Ordering::Relaxed);
        f.threads.store(s.threads as u64, Ordering::Relaxed);
        f.total_tx_bits
            .store(s.total_transactions.to_bits(), Ordering::Relaxed);
        f.rate_bits
            .store(s.rate_tx_per_us.to_bits(), Ordering::Relaxed);
        f.updated_at.store(s.updated_at_us, Ordering::Relaxed);
        // Leave: even sequence; Release publishes all field stores.
        f.seq.store(seq.wrapping_add(2), Ordering::Release);
    }

    /// Fault injection for the runtime auditor (`busbw-audit`): store a
    /// new rate **without** the odd/even sequence bracket — the torn
    /// write the seqlock protocol exists to prevent. Readers observe the
    /// mutated field under an unchanged even sequence, which the audit
    /// arena-coherence check flags. Never call this outside seeded-fault
    /// tests.
    #[doc(hidden)]
    pub fn publish_torn_rate(&self, rate_tx_per_us: f64) {
        self.f
            .rate_bits
            .store(rate_tx_per_us.to_bits(), Ordering::Release);
    }

    /// Read a consistent snapshot (any number of concurrent readers).
    /// Lock-free: retries while a write is in flight.
    pub fn read(&self) -> ArenaSnapshot {
        let f = &self.f;
        loop {
            let s1 = f.seq.load(Ordering::Acquire);
            if s1 % 2 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let snap = ArenaSnapshot {
                seq: f.snap_seq.load(Ordering::Relaxed),
                threads: f.threads.load(Ordering::Relaxed) as u32,
                total_transactions: f64::from_bits(f.total_tx_bits.load(Ordering::Relaxed)),
                rate_tx_per_us: f64::from_bits(f.rate_bits.load(Ordering::Relaxed)),
                updated_at_us: f.updated_at.load(Ordering::Relaxed),
            };
            // The acquire fence keeps the field loads ordered *before*
            // the validating re-read of the sequence.
            fence(Ordering::Acquire);
            let s2 = f.seq.load(Ordering::Relaxed);
            if s1 == s2 {
                return snap;
            }
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(i: u64) -> ArenaSnapshot {
        ArenaSnapshot {
            seq: i,
            threads: 2,
            total_transactions: i as f64 * 10.0,
            rate_tx_per_us: i as f64,
            updated_at_us: i * 100,
        }
    }

    #[test]
    fn roundtrip() {
        let a = SeqlockArena::new();
        a.publish(snap(7));
        assert_eq!(a.read(), snap(7));
    }

    #[test]
    fn fresh_arena_reads_zeroed() {
        let s = SeqlockArena::new().read();
        assert_eq!(
            s,
            ArenaSnapshot {
                seq: 0,
                threads: 0,
                total_transactions: 0.0,
                rate_tx_per_us: 0.0,
                updated_at_us: 0,
            }
        );
        assert_eq!(s.rate_per_thread(), 0.0);
    }

    #[test]
    fn clones_share_the_page() {
        let a = SeqlockArena::new();
        let b = a.clone();
        a.publish(snap(3));
        assert_eq!(b.read(), snap(3));
    }

    #[test]
    fn concurrent_reads_are_never_torn() {
        // The writer publishes internally-consistent snapshots where
        // every field is derived from `seq`; any torn read breaks the
        // relation. Hammer it from several reader threads.
        let a = SeqlockArena::new();
        a.publish(snap(1));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let total_reads = Arc::new(AtomicU64::new(0));
        let mut readers = Vec::new();
        for _ in 0..3 {
            let a = a.clone();
            let stop = stop.clone();
            let total_reads = total_reads.clone();
            readers.push(std::thread::spawn(move || {
                let mut last = 0;
                while !stop.load(Ordering::Relaxed) {
                    let s = a.read();
                    assert_eq!(s.total_transactions, s.seq as f64 * 10.0, "torn");
                    assert_eq!(s.rate_tx_per_us, s.seq as f64, "torn");
                    assert_eq!(s.updated_at_us, s.seq * 100, "torn");
                    assert!(s.seq >= last, "went backwards");
                    last = s.seq;
                    total_reads.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        // Keep publishing until the readers collectively performed a
        // healthy number of concurrent reads (bounded backstop).
        let mut i = 2u64;
        while total_reads.load(Ordering::Relaxed) < 30_000 && i < 50_000_000 {
            a.publish(snap(i));
            i += 1;
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().expect("reader");
        }
        assert!(total_reads.load(Ordering::Relaxed) >= 30_000);
    }

    #[test]
    fn rate_per_thread_equipartitions() {
        let s = ArenaSnapshot {
            seq: 1,
            threads: 2,
            total_transactions: 0.0,
            rate_tx_per_us: 23.3,
            updated_at_us: 0,
        };
        assert!((s.rate_per_thread() - 11.65).abs() < 1e-12);
        let z = ArenaSnapshot { threads: 0, ..s };
        assert_eq!(z.rate_per_thread(), 0.0);
    }
}
