//! The demand model: what a thread asks of the bus.
//!
//! A thread's interaction with the memory subsystem is summarized by two
//! numbers that may vary over its execution:
//!
//! * **`rate`** — the bus-transaction rate (tx/µs) the thread sustains when
//!   running alone at full speed ("solo rate"). This is what Figure 1A of
//!   the paper reports per application (halved per thread).
//! * **`mu`** — memory-boundness: the fraction of the thread's solo
//!   execution time spent waiting on bus transactions. When the bus
//!   dilates memory service by a factor λ, the thread's speed becomes
//!   `1 / ((1 − mu) + mu·λ)`; a pure streaming kernel (`mu = 1`) slows
//!   down by exactly λ, a cache-resident kernel (`mu ≈ 0`) barely notices.
//!
//! Demands are a function of the thread's *virtual* time (progress through
//! its work), so program phases stay attached to the work they belong to
//! regardless of how the scheduler stretches wall-clock execution. Models
//! also receive the wall clock for burst processes that are tied to real
//! time (e.g. the Raytrace-like irregular bursts in `busbw-workloads`).

/// Instantaneous demand of a thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Demand {
    /// Solo bus-transaction rate, tx/µs. Must be ≥ 0 and finite.
    pub rate: f64,
    /// Memory-boundness in `[0, 1]`.
    pub mu: f64,
}

impl Demand {
    /// A demand with the given rate and memory-boundness.
    ///
    /// # Panics
    /// Panics if `rate` is negative/non-finite or `mu` outside `[0, 1]`.
    pub fn new(rate: f64, mu: f64) -> Self {
        assert!(
            rate >= 0.0 && rate.is_finite(),
            "demand rate must be finite and >= 0, got {rate}"
        );
        assert!((0.0..=1.0).contains(&mu), "mu must be in [0,1], got {mu}");
        Self { rate, mu }
    }

    /// Zero demand (idle / pure compute with no bus traffic).
    pub(crate) const ZERO: Demand = Demand { rate: 0.0, mu: 0.0 };
}

/// A thread's demand as a function of its progress.
///
/// Implementations live mostly in `busbw-workloads`; the simulator ships
/// only [`ConstantDemand`] so it can be tested standalone.
///
/// `&mut self` lets stateful models (cyclic phase iterators, seeded burst
/// processes) advance their own state. Models must be deterministic given
/// their construction parameters — the whole reproduction depends on
/// repeatable runs. Determinism includes **query-frequency invariance**:
/// `demand_at` must depend only on the query point `(vt_us, wall_us)`,
/// never on how often or at which intermediate instants it was queried —
/// stateful models must catch up lazily (as the burst process does by
/// replaying state switches up to `wall_us`). The event-driven execution
/// mode relies on this: it caches each answer and skips the queries
/// inside its constant region, so a model whose answers drifted with query
/// cadence would diverge between the per-tick and event-driven paths.
///
/// Models are `Clone` (through `DemandModelClone`, implemented for every
/// `Clone` model), so a whole machine can be forked mid-run.
pub trait DemandModel: Send + DemandModelClone {
    /// Demand at virtual time `vt_us` (µs of completed useful work), with
    /// the current wall clock `wall_us` available for time-driven burst
    /// processes.
    fn demand_at(&mut self, vt_us: f64, wall_us: u64) -> Demand;

    /// The long-run mean rate of this model, used by tests and reports for
    /// cross-checking (not by any scheduling policy).
    fn mean_rate(&self) -> f64;

    /// How far the demand returned at `(vt_us, wall_us)` stays constant,
    /// as `(virtual_horizon_us, wall_horizon_us)`: the demand is
    /// guaranteed unchanged for virtual times in
    /// `[vt_us, vt_us + virtual_horizon_us)` and wall clocks in
    /// `[wall_us, wall_us + wall_horizon_us)`.
    ///
    /// This is the machine's one lookahead. It bounds how long a thread's
    /// cached demand is reused without a new `demand_at` query, and it
    /// powers tick coarsening: when every placed thread's demand is
    /// provably constant across a window, the simulator advances it in one
    /// jump. The coarsening scan calls it at the current point without a
    /// fresh `demand_at` whenever the cached answer still holds, so by
    /// query-frequency invariance its answer there must equal the one a
    /// fresh query would leave. The default `(0.0, 0.0)` means "unknown,
    /// never coarsen, re-query every tick" and is always safe;
    /// `f64::INFINITY` means "constant forever" in that dimension.
    ///
    /// **Contract (both horizons, always).** The two dimensions are
    /// independent and *both* must be honest: a model driven purely by
    /// virtual time (phase and trace profiles) reports its real virtual
    /// horizon and `f64::INFINITY` for the wall horizon, a model driven
    /// purely by wall time (burst processes) reports `f64::INFINITY` for
    /// the virtual horizon and its real wall horizon. Returning `0.0` in a
    /// dimension the model does not track is *wrong* — it would merely
    /// disable coarsening — but returning a horizon longer than the model
    /// can guarantee is a correctness bug: the simulator integrates
    /// straight through the window without re-querying.
    fn constant_for(&self, _vt_us: f64, _wall_us: u64) -> (f64, f64) {
        (0.0, 0.0)
    }
}

/// Boxed cloning for [`DemandModel`] trait objects; blanket-implemented
/// for every model that is `Clone`.
pub trait DemandModelClone {
    /// A boxed deep copy of this model, state included.
    fn box_clone(&self) -> Box<dyn DemandModel>;
}

impl<T: DemandModel + Clone + 'static> DemandModelClone for T {
    fn box_clone(&self) -> Box<dyn DemandModel> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn DemandModel> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

/// The simplest model: fixed demand forever.
#[derive(Debug, Clone, Copy)]
pub struct ConstantDemand(pub Demand);

impl ConstantDemand {
    /// Constant demand with the given rate and memory-boundness.
    pub fn new(rate: f64, mu: f64) -> Self {
        Self(Demand::new(rate, mu))
    }
}

impl DemandModel for ConstantDemand {
    fn demand_at(&mut self, _vt_us: f64, _wall_us: u64) -> Demand {
        self.0
    }

    fn mean_rate(&self) -> f64 {
        self.0.rate
    }

    fn constant_for(&self, _vt_us: f64, _wall_us: u64) -> (f64, f64) {
        (f64::INFINITY, f64::INFINITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_model_is_constant() {
        let mut m = ConstantDemand::new(5.0, 0.5);
        assert_eq!(m.demand_at(0.0, 0), m.demand_at(1e9, 77));
        assert_eq!(m.mean_rate(), 5.0);
        assert_eq!(m.constant_for(123.0, 456), (f64::INFINITY, f64::INFINITY));
    }

    #[test]
    #[should_panic(expected = "mu must be in")]
    fn mu_out_of_range_rejected() {
        Demand::new(1.0, 1.5);
    }

    #[test]
    #[should_panic(expected = "rate must be finite")]
    fn negative_rate_rejected() {
        Demand::new(-1.0, 0.5);
    }
}
