//! The shared arena: the manager's primary communication medium with each
//! application (§4).
//!
//! On the paper's system this is a shared memory page. Here it is a
//! fixed-layout 4 KiB buffer behind a mutex, shared by `Arc` — same
//! information flow, same page discipline (a writer can only publish what
//! fits the layout), safely usable from real threads.
//!
//! Layout (little endian):
//!
//! | offset | field                 | type |
//! |-------:|-----------------------|------|
//! | 0      | magic `0xB05A_RE4A`-ish | u32 |
//! | 4      | layout version        | u32  |
//! | 8      | sequence number       | u64  |
//! | 16     | thread count          | u32  |
//! | 20     | (pad)                 | u32  |
//! | 24     | cumulative bus transactions | f64 |
//! | 32     | rate over last update interval (tx/µs, whole app) | f64 |
//! | 40     | timestamp of last update (µs)  | u64 |

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Size of the arena page in bytes (one page, as in the paper).
pub const ARENA_PAGE_SIZE: usize = 4096;

const MAGIC: u32 = 0xB05A_0A4E;
const VERSION: u32 = 1;

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

/// The shared arena page.
#[derive(Debug, Clone)]
pub struct SharedArena {
    page: Arc<Mutex<[u8; ARENA_PAGE_SIZE]>>,
}

impl SharedArena {
    /// A freshly mapped (zeroed, then initialized) arena.
    pub fn new() -> Self {
        let arena = Self {
            page: Arc::new(Mutex::new([0u8; ARENA_PAGE_SIZE])),
        };
        arena.publish(ArenaSnapshot {
            seq: 0,
            threads: 0,
            total_transactions: 0.0,
            rate_tx_per_us: 0.0,
            updated_at_us: 0,
        });
        arena
    }

    /// Lock the page. Only [`Self::publish`] writes it, with fixed-range
    /// copies that cannot panic, so a poisoned lock never guards a
    /// half-written page and is simply taken over.
    fn lock(&self) -> MutexGuard<'_, [u8; ARENA_PAGE_SIZE]> {
        self.page.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Write a snapshot into the page (application side).
    pub fn publish(&self, s: ArenaSnapshot) {
        let mut page = self.lock();
        page[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        page[4..8].copy_from_slice(&VERSION.to_le_bytes());
        page[8..16].copy_from_slice(&s.seq.to_le_bytes());
        page[16..20].copy_from_slice(&s.threads.to_le_bytes());
        page[20..24].copy_from_slice(&0u32.to_le_bytes()); // pad
        page[24..32].copy_from_slice(&s.total_transactions.to_le_bytes());
        page[32..40].copy_from_slice(&s.rate_tx_per_us.to_le_bytes());
        page[40..48].copy_from_slice(&s.updated_at_us.to_le_bytes());
    }

    /// Read the page (manager side).
    ///
    /// Returns `None` if the page does not carry a valid arena layout —
    /// the manager treats a corrupt page as "no data" rather than
    /// crashing on a misbehaving client.
    pub fn read(&self) -> Option<ArenaSnapshot> {
        let page = self.lock();
        let u32_at = |at: usize| u32::from_le_bytes(page[at..at + 4].try_into().expect("4 bytes"));
        let u64_at = |at: usize| u64::from_le_bytes(page[at..at + 8].try_into().expect("8 bytes"));
        if u32_at(0) != MAGIC || u32_at(4) != VERSION {
            return None;
        }
        Some(ArenaSnapshot {
            seq: u64_at(8),
            threads: u32_at(16),
            total_transactions: f64::from_bits(u64_at(24)),
            rate_tx_per_us: f64::from_bits(u64_at(32)),
            updated_at_us: u64_at(40),
        })
    }

    /// Number of `SharedArena` handles alive (diagnostics).
    pub fn handles(&self) -> usize {
        Arc::strong_count(&self.page)
    }
}

impl Default for SharedArena {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_every_field() {
        let a = SharedArena::new();
        let snap = ArenaSnapshot {
            seq: 42,
            threads: 3,
            total_transactions: 123456.75,
            rate_tx_per_us: 11.65,
            updated_at_us: 999_999,
        };
        a.publish(snap);
        assert_eq!(a.read().unwrap(), snap);
    }

    #[test]
    fn page_layout_is_pinned_byte_for_byte() {
        let a = SharedArena::new();
        a.publish(ArenaSnapshot {
            seq: 0x0102_0304_0506_0708,
            threads: 3,
            total_transactions: 1.5,
            rate_tx_per_us: -2.0,
            updated_at_us: 0x1122_3344_5566_7788,
        });
        #[rustfmt::skip]
        let expected: [u8; 48] = [
            0x4E, 0x0A, 0x5A, 0xB0, // magic
            0x01, 0x00, 0x00, 0x00, // layout version
            0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // seq
            0x03, 0x00, 0x00, 0x00, // threads
            0x00, 0x00, 0x00, 0x00, // pad
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF8, 0x3F, // 1.5
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xC0, // -2.0
            0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, // updated_at
        ];
        let page = a.lock();
        assert_eq!(page[..48], expected);
        assert!(page[48..].iter().all(|&b| b == 0), "tail stays zeroed");
    }

    #[test]
    fn fresh_arena_reads_as_zeroed_snapshot() {
        let a = SharedArena::new();
        let s = a.read().unwrap();
        assert_eq!(s.seq, 0);
        assert_eq!(s.threads, 0);
        assert_eq!(s.rate_per_thread(), 0.0);
    }

    #[test]
    fn corrupt_page_reads_none() {
        let a = SharedArena::new();
        {
            let mut page = a.lock();
            page[0] = 0xFF; // clobber magic
        }
        assert!(a.read().is_none());
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

    #[test]
    fn clones_share_the_same_page() {
        let a = SharedArena::new();
        let b = a.clone();
        a.publish(ArenaSnapshot {
            seq: 7,
            threads: 1,
            total_transactions: 1.0,
            rate_tx_per_us: 2.0,
            updated_at_us: 3,
        });
        assert_eq!(b.read().unwrap().seq, 7);
        assert!(a.handles() >= 2);
    }

    #[test]
    fn concurrent_writers_and_readers_do_not_tear() {
        // Writers always publish self-consistent snapshots where
        // rate == seq as f64; a torn read would break that equality.
        let a = SharedArena::new();
        let w = a.clone();
        let writer = std::thread::spawn(move || {
            for i in 1..=2000u64 {
                w.publish(ArenaSnapshot {
                    seq: i,
                    threads: 2,
                    total_transactions: i as f64,
                    rate_tx_per_us: i as f64,
                    updated_at_us: i,
                });
            }
        });
        let mut last_seq = 0;
        for _ in 0..2000 {
            let s = a.read().unwrap();
            assert_eq!(s.rate_tx_per_us, s.seq as f64, "torn read");
            assert!(s.seq >= last_seq, "sequence went backwards");
            last_seq = s.seq;
        }
        writer.join().unwrap();
    }
}
