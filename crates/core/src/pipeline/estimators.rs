//! Estimator stages: the measurement bookkeeping each policy family used
//! to carry inline, factored out of the monolithic schedulers.

use std::collections::BTreeMap;

use busbw_perfmon::EventKind;
use busbw_sim::{AppId, MachineView, SimTime};
use busbw_trace::TraceEvent;

use super::{Estimator, StageCtx, PAPER_SAMPLES_PER_QUANTUM};
use crate::estimator::BandwidthEstimator;
use crate::reconstruct::DemandTracker;

/// Total transactions issued so far by `app`'s threads.
pub(crate) fn app_tx(view: &MachineView<'_>, app: AppId) -> f64 {
    view.app(app)
        .map(|a| {
            a.threads
                .iter()
                .map(|t| view.registry.total(t.key(), EventKind::BusTransactions))
                .sum()
        })
        .unwrap_or(0.0)
}

/// The paper policies' measurement path (§4): counter deltas are
/// equipartitioned over a job's threads, passed through demand
/// reconstruction (consumption × mean dilation — under saturation a raw
/// measurement is only a lower bound on the requirement), and fed to a
/// [`BandwidthEstimator`] — whole-quantum rates at quantum boundaries and
/// finer-grained rates at the twice-per-quantum counter samples.
pub struct ReconstructingEstimator {
    inner: Box<dyn BandwidthEstimator>,
    samples_per_quantum: u32,
    /// Jobs committed for the current quantum.
    running: Vec<AppId>,
    /// Per-app cumulative transaction totals at the last quantum boundary.
    quantum_snapshot: BTreeMap<AppId, f64>,
    /// Per-app cumulative transaction totals at the last counter sample.
    sample_snapshot: BTreeMap<AppId, f64>,
    last_boundary_us: SimTime,
    last_sample_us: SimTime,
    /// IOQ-dilation integral at the last quantum boundary / sample.
    dilation_at_boundary: f64,
    dilation_at_sample: f64,
    demand: DemandTracker,
}

impl ReconstructingEstimator {
    /// Wrap `inner` with the paper's two samples per quantum.
    pub fn new(inner: Box<dyn BandwidthEstimator>) -> Self {
        Self::with_samples(inner, PAPER_SAMPLES_PER_QUANTUM)
    }

    /// Wrap `inner` with a custom sampling rate.
    ///
    /// # Panics
    /// Panics if `samples_per_quantum` is zero.
    pub(crate) fn with_samples(
        inner: Box<dyn BandwidthEstimator>,
        samples_per_quantum: u32,
    ) -> Self {
        assert!(
            samples_per_quantum >= 1,
            "need at least one sample per quantum"
        );
        Self {
            inner,
            samples_per_quantum,
            running: Vec::new(),
            quantum_snapshot: BTreeMap::new(),
            sample_snapshot: BTreeMap::new(),
            last_boundary_us: 0,
            last_sample_us: 0,
            dilation_at_boundary: 0.0,
            dilation_at_sample: 0.0,
            demand: DemandTracker::new(),
        }
    }
}

impl Estimator for ReconstructingEstimator {
    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn settle(&mut self, ctx: &StageCtx<'_, '_>) {
        let view = ctx.view;
        let dt = view.now.saturating_sub(self.last_boundary_us);
        if dt == 0 {
            return;
        }
        let lambda = (view.dilation_integral - self.dilation_at_boundary) / dt as f64;
        for &app in &self.running {
            let Some(info) = view.app(app) else { continue };
            let total = app_tx(view, app);
            let before = self.quantum_snapshot.get(&app).copied().unwrap_or(0.0);
            let width = info.threads.len().max(1);
            let per_thread = (total - before).max(0.0) / dt as f64 / width as f64;
            let rec = self.demand.observe_detailed(app, per_thread, lambda);
            if ctx.tracer.emits() {
                ctx.tracer.emit(TraceEvent::Reconstruct {
                    at_us: view.now,
                    app: app.0,
                    measured_per_thread: rec.measured_per_thread,
                    dilation: rec.dilation,
                    demand_per_thread: rec.demand_per_thread,
                });
            }
            self.inner.record_quantum(app, rec.demand_per_thread);
        }
    }

    fn estimate(&self, app: AppId) -> f64 {
        self.inner.estimate(app)
    }

    fn commit(&mut self, ctx: &StageCtx<'_, '_>, admitted: &[AppId]) {
        let view = ctx.view;
        for &app in admitted {
            let t = app_tx(view, app);
            self.quantum_snapshot.insert(app, t);
            self.sample_snapshot.insert(app, t);
        }
        self.running = admitted.to_vec();
        self.last_boundary_us = view.now;
        self.last_sample_us = view.now;
        self.dilation_at_boundary = view.dilation_integral;
        self.dilation_at_sample = view.dilation_integral;
    }

    fn on_sample(&mut self, ctx: &StageCtx<'_, '_>) {
        let view = ctx.view;
        let dt = view.now.saturating_sub(self.last_sample_us);
        if dt == 0 {
            return;
        }
        let lambda = (view.dilation_integral - self.dilation_at_sample) / dt as f64;
        for &app in &self.running {
            let Some(info) = view.app(app) else { continue };
            let total = app_tx(view, app);
            let before = self.sample_snapshot.get(&app).copied().unwrap_or(0.0);
            let width = info.threads.len().max(1);
            let per_thread = (total - before).max(0.0) / dt as f64 / width as f64;
            let demand = self.demand.observe(app, per_thread, lambda);
            self.inner.record_sample(app, demand);
            self.sample_snapshot.insert(app, total);
        }
        self.dilation_at_sample = view.dilation_integral;
        self.last_sample_us = view.now;
    }

    fn sample_period_us(&self, quantum_us: u64) -> Option<u64> {
        Some(quantum_us / self.samples_per_quantum as u64)
    }

    fn forget(&mut self, app: AppId) {
        self.quantum_snapshot.remove(&app);
        self.sample_snapshot.remove(&app);
        self.inner.forget(app);
        self.demand.forget(app);
    }
}

/// The comparator gang schedulers' simpler measurement: whole-quantum
/// counter deltas per thread, scaled by the mean dilation (clamped to
/// ≥ 1), with no mid-quantum sampling and no demand reconstruction.
#[derive(Default)]
pub struct RawRateEstimator {
    running: Vec<AppId>,
    snapshot: BTreeMap<AppId, f64>,
    last_boundary_us: SimTime,
    dilation_at_boundary: f64,
    /// Last measured per-thread rate.
    rates: BTreeMap<AppId, f64>,
}

impl RawRateEstimator {
    /// A fresh estimator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Estimator for RawRateEstimator {
    fn label(&self) -> &'static str {
        "RawRate"
    }

    fn settle(&mut self, ctx: &StageCtx<'_, '_>) {
        let view = ctx.view;
        let dt = view.now.saturating_sub(self.last_boundary_us);
        if dt == 0 {
            return;
        }
        let lambda = ((view.dilation_integral - self.dilation_at_boundary) / dt as f64).max(1.0);
        for &app in &self.running {
            let Some(info) = view.app(app) else { continue };
            let total = app_tx(view, app);
            let before = self.snapshot.get(&app).copied().unwrap_or(0.0);
            let rate = (total - before).max(0.0) / dt as f64 / info.width().max(1) as f64 * lambda;
            self.rates.insert(app, rate);
        }
    }

    fn estimate(&self, app: AppId) -> f64 {
        self.rates.get(&app).copied().unwrap_or(0.0)
    }

    fn commit(&mut self, ctx: &StageCtx<'_, '_>, admitted: &[AppId]) {
        let view = ctx.view;
        for &app in admitted {
            self.snapshot.insert(app, app_tx(view, app));
        }
        self.running = admitted.to_vec();
        self.last_boundary_us = view.now;
        self.dilation_at_boundary = view.dilation_integral;
    }

    fn forget(&mut self, app: AppId) {
        self.rates.remove(&app);
        self.snapshot.remove(&app);
    }
}

/// No estimation at all — for stacks whose selector ignores bandwidth
/// entirely (the Linux baselines).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullEstimator;

impl Estimator for NullEstimator {
    fn label(&self) -> &'static str {
        "Null"
    }

    fn settle(&mut self, _ctx: &StageCtx<'_, '_>) {}

    fn estimate(&self, _app: AppId) -> f64 {
        0.0
    }

    fn commit(&mut self, _ctx: &StageCtx<'_, '_>, _admitted: &[AppId]) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::LatestQuantumEstimator;
    use busbw_sim::{AppDescriptor, ConstantDemand, Machine, ThreadSpec, XEON_4WAY};
    use busbw_trace::EventBus;

    #[test]
    fn reconstructing_estimator_rejects_zero_samples() {
        let r = std::panic::catch_unwind(|| {
            ReconstructingEstimator::with_samples(Box::new(LatestQuantumEstimator::new()), 0)
        });
        assert!(r.is_err());
    }

    #[test]
    fn sample_periods_follow_the_configured_rate() {
        let e = ReconstructingEstimator::new(Box::new(LatestQuantumEstimator::new()));
        assert_eq!(e.sample_period_us(200_000), Some(100_000));
        let e3 = ReconstructingEstimator::with_samples(Box::new(LatestQuantumEstimator::new()), 4);
        assert_eq!(e3.sample_period_us(200_000), Some(50_000));
        assert_eq!(RawRateEstimator::new().sample_period_us(200_000), None);
        assert_eq!(NullEstimator.sample_period_us(200_000), None);
    }

    #[test]
    fn null_estimator_is_inert() {
        let m = Machine::new(XEON_4WAY);
        let bus = EventBus::off();
        let view = m.view();
        let ctx = StageCtx {
            view: &view,
            tracer: &bus,
        };
        let mut e = NullEstimator;
        e.settle(&ctx);
        e.commit(&ctx, &[]);
        assert_eq!(e.estimate(AppId(3)), 0.0);
        assert_eq!(e.label(), "Null");
    }

    #[test]
    fn raw_rate_measures_committed_jobs_only() {
        let mut m = Machine::new(XEON_4WAY);
        let threads = (0..2)
            .map(|_| ThreadSpec::new(f64::INFINITY, Box::new(ConstantDemand::new(4.0, 0.5))))
            .collect();
        let a = m.add_app(AppDescriptor::new("a", threads));
        let mut e = RawRateEstimator::new();
        let bus = EventBus::off();
        {
            let view = m.view();
            let ctx = StageCtx {
                view: &view,
                tracer: &bus,
            };
            e.commit(&ctx, &[a]);
        }
        // Run the app for a quantum, then settle.
        let assignments: Vec<busbw_sim::Assignment> = {
            let view = m.view();
            let info = view.app(a).unwrap();
            info.threads
                .iter()
                .enumerate()
                .map(|(i, &t)| busbw_sim::Assignment {
                    thread: t,
                    cpu: busbw_sim::CpuId(i),
                })
                .collect()
        };
        let d = busbw_sim::Decision {
            assignments,
            next_resched_in_us: 200_000,
            sample_period_us: None,
        };
        let _ = m.run(
            &mut busbw_sim::testkit::Replay::new(d),
            busbw_sim::StopCondition::At(200_000),
        );
        let view = m.view();
        let ctx = StageCtx {
            view: &view,
            tracer: &bus,
        };
        e.settle(&ctx);
        let est = e.estimate(a);
        assert!((2.0..6.5).contains(&est), "raw rate estimate {est}");
        e.forget(a);
        assert_eq!(e.estimate(a), 0.0);
    }
}
