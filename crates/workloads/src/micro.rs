//! The paper's two microbenchmarks.
//!
//! **BBMA** (§3): walks a 2×L2-sized array column-wise so every write
//! misses — ~0 % hit rate, back-to-back bus transactions, measured at
//! **23.6 tx/µs** per instance. One thread, runs until stopped.
//!
//! **nBBMA** (§3): walks a ½×L2-sized array row-wise — ~100 % hit rate,
//! **0.0037 tx/µs**, negligible bus load. One thread, runs until stopped.
//!
//! Both are modeled as constant-rate, cache-insensitive (BBMA has no reuse
//! to lose; nBBMA's footprint rebuilds in microseconds), single-threaded,
//! infinite-work applications. A *native* executable equivalent (really
//! walking arrays) lives in `examples/native_microbench.rs` at the
//! workspace root.

use crate::app::AppSpec;

/// BBMA's measured bus-transaction rate (paper §3), tx/µs.
pub(crate) const BBMA_RATE_TX_PER_US: f64 = 23.6;

/// nBBMA's measured bus-transaction rate (paper §3), tx/µs.
pub(crate) const NBBMA_RATE_TX_PER_US: f64 = 0.0037;

/// The bus-saturating microbenchmark (one instance = one thread).
pub fn bbma() -> AppSpec {
    AppSpec::constant("BBMA", 1, f64::INFINITY, BBMA_RATE_TX_PER_US, 0.98)
        .with_cache_sensitivity(0.0)
}

/// The cache-resident, bus-idle microbenchmark (one instance = one thread).
pub fn nbbma() -> AppSpec {
    AppSpec::constant("nBBMA", 1, f64::INFINITY, NBBMA_RATE_TX_PER_US, 0.01)
        .with_cache_sensitivity(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bbma_matches_paper_rate() {
        let b = bbma();
        assert_eq!(b.rate_per_thread, 23.6);
        assert_eq!(b.nthreads, 1);
        assert!(b.work_us_per_thread.is_infinite());
        assert!(b.mu > 0.9, "BBMA is almost fully memory bound");
    }

    #[test]
    fn nbbma_is_negligible_on_the_bus() {
        let n = nbbma();
        assert!(n.rate_per_thread < 0.01);
        assert!(n.mu < 0.05);
        // Two BBMA instances nearly saturate the paper's bus on their
        // own; two nBBMA instances do not register.
        assert!(2.0 * bbma().rate_per_thread > busbw_sim::PAPER_BUS_TX_PER_US * 1.5);
        assert!(2.0 * n.rate_per_thread < 0.01);
    }
}
