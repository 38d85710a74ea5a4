//! Run-level accounting produced by the machine.

use crate::bus::MAX_BUS_LEVELS;
use crate::ids::SimTime;

/// Time-weighted statistics about bus pressure over a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct BusPressureStats {
    /// Integral of issued transactions (tx), i.e. total bus traffic.
    pub total_transactions: f64,
    /// Integral of demanded transactions (tx) — what threads would have
    /// issued uncontended.
    pub(crate) total_demanded: f64,
    /// Wall µs during which demand exceeded effective capacity.
    pub(crate) saturated_us: f64,
    /// Peak instantaneous dilation factor Λ observed.
    pub(crate) peak_dilation: f64,
    /// Time-integral of utilization (divide by elapsed for the mean).
    pub(crate) utilization_integral: f64,
}

/// Time-weighted pressure of one topology level (a socket's local bus or
/// the cross-socket interconnect). All-zero for levels that do not exist
/// on the configured machine.
#[derive(Debug, Clone, Copy, Default)]
pub struct LevelPressureStats {
    /// Integral of traffic issued through this level (tx).
    pub(crate) total_issued: f64,
    /// Integral of demand charged to this level (tx).
    pub(crate) total_demanded: f64,
    /// Wall µs during which this level's demand exceeded its capacity.
    pub(crate) saturated_us: f64,
    /// Time-integral of this level's utilization.
    pub(crate) utilization_integral: f64,
    /// Peak instantaneous dilation this level imposed.
    pub(crate) peak_dilation: f64,
}

impl LevelPressureStats {
    /// Mean utilization of this level over `elapsed_us` of wall time.
    pub fn mean_utilization(&self, elapsed_us: SimTime) -> f64 {
        if elapsed_us == 0 {
            0.0
        } else {
            self.utilization_integral / elapsed_us as f64
        }
    }

    /// Fraction of `elapsed_us` this level spent saturated.
    pub fn saturated_fraction(&self, elapsed_us: SimTime) -> f64 {
        if elapsed_us == 0 {
            0.0
        } else {
            self.saturated_us / elapsed_us as f64
        }
    }
}

busbw_trace::wire_struct! {
    /// Histogram of per-iteration time advances, in nominal ticks — the
    /// observability layer's tick-time histogram. With event-driven tick
    /// coarsening an iteration can cover many nominal ticks; the bucket
    /// spread shows how much of a run executed coarsened.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct TickDtHist {
        /// Log₂-spaced bucket counts: iterations covering 1, 2–3, 4–7, …,
        /// 64–127, and ≥128 nominal ticks.
        pub buckets: [u64; 8],
    }
}

impl TickDtHist {
    /// Record one iteration that covered `ticks_covered` nominal ticks.
    #[inline]
    pub fn record(&mut self, ticks_covered: u64) {
        let idx = 63 - ticks_covered.max(1).leading_zeros() as usize;
        self.buckets[idx.min(self.buckets.len() - 1)] += 1;
    }

    /// Total iterations recorded.
    #[cfg(test)]
    pub(crate) fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Accumulate another histogram into this one.
    #[cfg(test)]
    pub(crate) fn merge(&mut self, other: &TickDtHist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Inclusive lower bound (in nominal ticks) of bucket `i`.
    pub fn bucket_lo(i: usize) -> u64 {
        1u64 << i
    }
}

/// Statistics for one simulation run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Wall µs simulated.
    pub elapsed_us: SimTime,
    /// Tick-loop iterations executed. With event-driven tick coarsening a
    /// single iteration can advance many nominal tick lengths, so this can
    /// be far below `elapsed_us / tick_us`.
    pub ticks: u64,
    /// Number of scheduler invocations.
    pub(crate) schedule_calls: u64,
    /// Number of sampling callbacks delivered.
    pub sample_calls: u64,
    /// Number of thread-to-cpu placements that were cold (warmth < 0.5).
    pub(crate) cold_placements: u64,
    /// Number of placements total.
    pub(crate) placements: u64,
    /// Bus pressure accounting (whole-machine aggregate).
    pub bus: BusPressureStats,
    /// Topology levels with live per-level accounting: 0 for
    /// single-level bus models, sockets + 1 for a hierarchical bus
    /// (capped at [`MAX_BUS_LEVELS`]).
    pub n_levels: usize,
    /// Per-level pressure, sockets first and the interconnect last;
    /// levels past [`MAX_BUS_LEVELS`] fold into the final slot.
    pub levels: [LevelPressureStats; MAX_BUS_LEVELS],
    /// Distribution of per-iteration advances (tick-time histogram).
    pub tick_dt_hist: TickDtHist,
}

impl RunStats {
    /// Mean achieved bus transaction rate over the run, tx/µs.
    pub fn mean_bus_rate(&self) -> f64 {
        if self.elapsed_us == 0 {
            0.0
        } else {
            self.bus.total_transactions / self.elapsed_us as f64
        }
    }

    /// Fraction of wall time the bus spent saturated.
    pub fn saturated_fraction(&self) -> f64 {
        if self.elapsed_us == 0 {
            0.0
        } else {
            self.bus.saturated_us / self.elapsed_us as f64
        }
    }

    /// Mean bus utilization over the run.
    #[cfg(test)]
    pub(crate) fn mean_utilization(&self) -> f64 {
        if self.elapsed_us == 0 {
            0.0
        } else {
            self.bus.utilization_integral / self.elapsed_us as f64
        }
    }

    /// Fraction of placements that were cache-cold.
    #[cfg(test)]
    pub(crate) fn cold_placement_fraction(&self) -> f64 {
        if self.placements == 0 {
            0.0
        } else {
            self.cold_placements as f64 / self.placements as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_elapsed_is_safe() {
        let s = RunStats::default();
        assert_eq!(s.mean_bus_rate(), 0.0);
        assert_eq!(s.saturated_fraction(), 0.0);
        assert_eq!(s.mean_utilization(), 0.0);
        assert_eq!(s.cold_placement_fraction(), 0.0);
    }

    #[test]
    fn tick_dt_hist_buckets_by_log2_and_merges() {
        let mut h = TickDtHist::default();
        h.record(1); // bucket 0
        h.record(3); // bucket 1
        h.record(4); // bucket 2
        h.record(200); // clamped to the last bucket
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[7], 1);
        assert_eq!(h.total(), 4);
        let mut m = TickDtHist::default();
        m.merge(&h);
        m.merge(&h);
        assert_eq!(m.total(), 8);
        assert_eq!(TickDtHist::bucket_lo(3), 8);
    }

    #[test]
    fn level_pressure_derived_rates() {
        let lv = LevelPressureStats {
            total_issued: 100.0,
            total_demanded: 150.0,
            saturated_us: 500.0,
            utilization_integral: 750.0,
            peak_dilation: 2.0,
        };
        assert_eq!(lv.mean_utilization(0), 0.0);
        assert_eq!(lv.saturated_fraction(0), 0.0);
        assert!((lv.mean_utilization(1000) - 0.75).abs() < 1e-12);
        assert!((lv.saturated_fraction(1000) - 0.5).abs() < 1e-12);
        let s = RunStats::default();
        assert_eq!(s.n_levels, 0);
        assert_eq!(s.levels.len(), MAX_BUS_LEVELS);
    }

    #[test]
    fn derived_rates() {
        let s = RunStats {
            elapsed_us: 1000,
            bus: BusPressureStats {
                total_transactions: 2950.0,
                saturated_us: 250.0,
                utilization_integral: 800.0,
                ..Default::default()
            },
            cold_placements: 1,
            placements: 4,
            ..Default::default()
        };
        assert!((s.mean_bus_rate() - 2.95).abs() < 1e-12);
        assert!((s.saturated_fraction() - 0.25).abs() < 1e-12);
        assert!((s.mean_utilization() - 0.8).abs() < 1e-12);
        assert!((s.cold_placement_fraction() - 0.25).abs() < 1e-12);
    }
}
