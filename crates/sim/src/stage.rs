//! Per-stage wall-time accounting for pipelined schedulers.
//!
//! A composable scheduler (see `busbw-core::pipeline`) runs four stages per
//! reschedule — estimate, admit, select, place. These types let it record
//! how long each stage took without pulling the metrics registry into the
//! simulator: the scheduler accumulates [`StageTimings`] locally and the
//! experiments layer folds them into the registry / run manifests after the
//! run. Wall-clock readings are inherently non-deterministic, so they never
//! feed back into scheduling decisions or simulated state.

use crate::ids::AppId;

/// Canonical stage names, in pipeline order.
pub const STAGE_NAMES: [&str; 4] = ["estimate", "admit", "select", "place"];

/// What a pipelined scheduler decided at each stage of its most recent
/// reschedule — observational introspection for auditors.
///
/// Populated only when a [`crate::machine::Scheduler`] has been switched
/// into introspection mode (see [`crate::machine::Scheduler::set_introspect`]);
/// the normal scheduling path never allocates it, so golden-decision
/// behavior is untouched. Invariant checkers use it to verify stage
/// coherence (selector output ⊆ admission output ⊆ candidates) and gang
/// integrity without re-deriving the pipeline's internal state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageSnapshot {
    /// Every candidate the estimate stage enumerated, in list order.
    pub candidates: Vec<AppId>,
    /// Jobs the admission stage granted unconditionally (the head set).
    pub admitted_head: Vec<AppId>,
    /// Jobs the selector added beyond the head set (empty for pinned
    /// selections).
    pub selected_extra: Vec<AppId>,
    /// Whether the selector returned a pinned thread→cpu schedule (the
    /// Linux baselines) instead of gangs.
    pub pinned: bool,
    /// The committed set for the quantum, in head-then-extra order (for
    /// pinned selections: first-seen order of the assigned threads' apps).
    pub committed: Vec<AppId>,
}

/// Histogram bucket upper bounds in nanoseconds (log-spaced); one overflow
/// bucket is appended, giving [`StageTiming::buckets`] its 8 slots.
pub const STAGE_BUCKET_BOUNDS_NS: [u64; 7] =
    [250, 1_000, 4_000, 16_000, 64_000, 256_000, 1_024_000];

busbw_trace::wire_struct! {
    /// Wall-time accounting for one pipeline stage.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct StageTiming {
        /// Number of times the stage ran.
        pub calls: u64,
        /// Total wall time across all calls, nanoseconds.
        pub total_ns: u64,
        /// Call counts bucketed by duration: `buckets[i]` counts calls taking
        /// ≤ [`STAGE_BUCKET_BOUNDS_NS`]`[i]` ns; the last slot is overflow.
        pub buckets: [u64; 8],
    }
}

impl StageTiming {
    /// Record one call that took `ns` nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.calls += 1;
        self.total_ns += ns;
        let i = STAGE_BUCKET_BOUNDS_NS.partition_point(|&b| b < ns);
        self.buckets[i] += 1;
    }

    /// Fold another timing into this one.
    pub(crate) fn merge(&mut self, other: &StageTiming) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }
}

busbw_trace::wire_struct! {
    /// Wall-time accounting for all four stages of one run, indexed in
    /// [`STAGE_NAMES`] order.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct StageTimings {
        /// Per-stage timings, in [`STAGE_NAMES`] order.
        pub stages: [StageTiming; 4],
    }
}

impl StageTimings {
    /// Fold another run's timings into this one.
    pub fn merge(&mut self, other: &StageTimings) {
        for (a, b) in self.stages.iter_mut().zip(other.stages.iter()) {
            a.merge(b);
        }
    }

    /// Iterate `(stage name, timing)` pairs in pipeline order.
    pub fn named(&self) -> impl Iterator<Item = (&'static str, &StageTiming)> {
        STAGE_NAMES.iter().copied().zip(self.stages.iter())
    }

    /// Whether any stage recorded at least one call.
    pub fn any_calls(&self) -> bool {
        self.stages.iter().any(|s| s.calls > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_buckets_by_bound() {
        let mut t = StageTiming::default();
        t.record_ns(100); // ≤ 250 → bucket 0
        t.record_ns(250); // ≤ 250 → bucket 0
        t.record_ns(251); // ≤ 1000 → bucket 1
        t.record_ns(2_000_000); // overflow → bucket 7
        assert_eq!(t.calls, 4);
        assert_eq!(t.total_ns, 100 + 250 + 251 + 2_000_000);
        assert_eq!(t.buckets[0], 2);
        assert_eq!(t.buckets[1], 1);
        assert_eq!(t.buckets[7], 1);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = StageTimings::default();
        let mut b = StageTimings::default();
        a.stages[2].record_ns(500);
        b.stages[2].record_ns(700);
        b.stages[0].record_ns(10);
        a.merge(&b);
        assert_eq!(a.stages[2].calls, 2);
        assert_eq!(a.stages[2].total_ns, 1200);
        assert_eq!(a.stages[0].calls, 1);
        assert!(a.any_calls());
        let names: Vec<_> = a.named().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["estimate", "admit", "select", "place"]);
    }
}
