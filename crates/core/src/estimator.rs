//! Bandwidth estimators: what `BBW/thread` means under each policy.
//!
//! The CPU manager samples every connected application's bus-transaction
//! counters **twice per scheduling quantum** and equipartitions the
//! application's traffic among its threads. The two policies differ only
//! in how those measurements become the `BBW/thread` fed to the fitness
//! function:
//!
//! * **Latest Quantum** — the rate measured over the most recent quantum
//!   in which the job ran (the two samples of that quantum combined).
//! * **Quanta Window** — the mean of the last `W` samples (the paper uses
//!   `W = 5`, chosen so the distance between the observed transaction
//!   pattern and the moving average stays within ~5 % for irregular
//!   applications; wider windows would need exponentially decayed weights
//!   to stay responsive, §4).

use std::collections::{BTreeMap, VecDeque};

use busbw_sim::AppId;

/// Clamp a measured rate into the estimators' valid domain, or reject it.
///
/// Negative rates clamp to zero (a counter delta can only under-read).
/// Non-finite rates are dropped entirely: `rate.max(0.0)` passes `+∞`
/// through and silently maps `NaN` to `0.0` (`f64::max` ignores NaN), and
/// either would poison `Fitness = 1000/(1+|ABBW/proc − BBW/thread|)` and
/// the `total_cmp`-ordered selectors downstream, so a poisoned sample must
/// never enter the bookkeeping at all — the previous estimate stands.
fn sanitize_rate(rate: f64) -> Option<f64> {
    if rate.is_finite() {
        Some(rate.max(0.0))
    } else {
        None
    }
}

/// Turns per-sample and per-quantum bandwidth measurements into the
/// `BBW/thread` estimate used by the fitness function.
pub trait BandwidthEstimator: Send {
    /// Record one mid-quantum counter sample: `rate` is tx/µs per thread
    /// over the sample interval.
    fn record_sample(&mut self, app: AppId, rate: f64);

    /// Record a whole quantum's measurement: `rate` is tx/µs per thread
    /// over the quantum the app just ran.
    fn record_quantum(&mut self, app: AppId, rate: f64);

    /// Current `BBW/thread` estimate; `0.0` for never-measured jobs (a
    /// fresh job is optimistically assumed bandwidth-free until observed).
    fn estimate(&self, app: AppId) -> f64;

    /// Drop all state for a finished job.
    fn forget(&mut self, app: AppId);

    /// Short display name ("Latest" / "Window" in the paper's figures).
    fn label(&self) -> &'static str;
}

/// The 'Latest Quantum' policy's estimator (Equation 1).
#[derive(Debug, Default, Clone)]
pub struct LatestQuantumEstimator {
    latest: BTreeMap<AppId, f64>,
}

impl LatestQuantumEstimator {
    /// A fresh estimator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl BandwidthEstimator for LatestQuantumEstimator {
    fn record_sample(&mut self, _app: AppId, _rate: f64) {
        // Latest Quantum consumes only whole-quantum measurements.
    }

    fn record_quantum(&mut self, app: AppId, rate: f64) {
        let Some(rate) = sanitize_rate(rate) else {
            return;
        };
        self.latest.insert(app, rate);
    }

    fn estimate(&self, app: AppId) -> f64 {
        self.latest.get(&app).copied().unwrap_or(0.0)
    }

    fn forget(&mut self, app: AppId) {
        self.latest.remove(&app);
    }

    fn label(&self) -> &'static str {
        "Latest"
    }
}

/// The 'Quanta Window' policy's estimator (Equation 2): a moving average
/// over the last `window` counter samples.
#[derive(Debug, Clone)]
pub struct QuantaWindowEstimator {
    window: usize,
    samples: BTreeMap<AppId, VecDeque<f64>>,
}

impl QuantaWindowEstimator {
    /// The paper's window length: 5 samples (2.5 quanta at 2 samples per
    /// quantum). Sourced from the pipeline's paper constants so every
    /// preset and default agrees on one definition.
    pub(crate) const PAPER_WINDOW: usize = crate::pipeline::PAPER_WINDOW_SAMPLES;

    /// An estimator with the paper's 5-sample window.
    pub fn new() -> Self {
        Self::with_window(Self::PAPER_WINDOW)
    }

    /// An estimator with a custom window (for the window-length ablation).
    ///
    /// # Panics
    /// Panics if `window` is zero.
    pub fn with_window(window: usize) -> Self {
        assert!(window >= 1, "window must be at least 1 sample");
        Self {
            window,
            samples: BTreeMap::new(),
        }
    }
}

impl Default for QuantaWindowEstimator {
    fn default() -> Self {
        Self::new()
    }
}

impl BandwidthEstimator for QuantaWindowEstimator {
    fn record_sample(&mut self, app: AppId, rate: f64) {
        let Some(rate) = sanitize_rate(rate) else {
            return;
        };
        let q = self.samples.entry(app).or_default();
        q.push_back(rate);
        while q.len() > self.window {
            q.pop_front();
        }
    }

    fn record_quantum(&mut self, _app: AppId, _rate: f64) {
        // The window is built from the finer-grained samples.
    }

    fn estimate(&self, app: AppId) -> f64 {
        match self.samples.get(&app) {
            Some(q) if !q.is_empty() => q.iter().sum::<f64>() / q.len() as f64,
            _ => 0.0,
        }
    }

    fn forget(&mut self, app: AppId) {
        self.samples.remove(&app);
    }

    fn label(&self) -> &'static str {
        "Window"
    }
}

/// Exponentially-weighted moving average estimator — the technique §4
/// says a wider window "would require" to stay responsive: each new
/// sample contributes a fixed fraction `alpha`, so old samples decay
/// geometrically instead of falling off a cliff at the window edge.
///
/// `alpha = 2/(W+1)` makes the EWMA's effective memory comparable to a
/// `W`-sample rectangular window; the paper's `W = 5` corresponds to
/// `alpha ≈ 0.33`.
#[derive(Debug, Clone)]
pub struct EwmaEstimator {
    alpha: f64,
    est: BTreeMap<AppId, f64>,
}

impl EwmaEstimator {
    /// An EWMA with smoothing factor `alpha` in `(0, 1]`.
    ///
    /// # Panics
    /// Panics if `alpha` is outside `(0, 1]`.
    pub(crate) fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "alpha must be in (0, 1], got {alpha}"
        );
        Self {
            alpha,
            est: BTreeMap::new(),
        }
    }

    /// An EWMA whose effective memory matches a `window`-sample
    /// rectangular window (`alpha = 2/(W+1)`).
    pub fn matching_window(window: usize) -> Self {
        assert!(window >= 1, "window must be at least 1");
        Self::new(2.0 / (window as f64 + 1.0))
    }
}

impl BandwidthEstimator for EwmaEstimator {
    fn record_sample(&mut self, app: AppId, rate: f64) {
        let Some(rate) = sanitize_rate(rate) else {
            return;
        };
        let e = self.est.entry(app).or_insert(rate);
        *e += self.alpha * (rate - *e);
    }

    fn record_quantum(&mut self, _app: AppId, _rate: f64) {
        // Fed by the finer-grained samples, like the Window estimator.
    }

    fn estimate(&self, app: AppId) -> f64 {
        self.est.get(&app).copied().unwrap_or(0.0)
    }

    fn forget(&mut self, app: AppId) {
        self.est.remove(&app);
    }

    fn label(&self) -> &'static str {
        "EWMA"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: AppId = AppId(1);
    const B: AppId = AppId(2);

    #[test]
    fn latest_tracks_only_the_most_recent_quantum() {
        let mut e = LatestQuantumEstimator::new();
        assert_eq!(e.estimate(A), 0.0);
        e.record_quantum(A, 10.0);
        e.record_quantum(A, 2.0);
        assert_eq!(e.estimate(A), 2.0);
        // Samples are ignored by design.
        e.record_sample(A, 99.0);
        assert_eq!(e.estimate(A), 2.0);
    }

    #[test]
    fn latest_keeps_estimate_while_app_is_blocked() {
        // A job that does not run keeps its last measurement — the paper
        // only updates statistics "for all running jobs".
        let mut e = LatestQuantumEstimator::new();
        e.record_quantum(A, 7.5);
        e.record_quantum(B, 1.0); // other job runs; A untouched
        assert_eq!(e.estimate(A), 7.5);
    }

    #[test]
    fn window_averages_last_w_samples() {
        let mut e = QuantaWindowEstimator::with_window(3);
        for r in [1.0, 2.0, 3.0, 4.0, 5.0] {
            e.record_sample(A, r);
        }
        // Last 3: (3+4+5)/3 = 4.
        assert_eq!(e.estimate(A), 4.0);
    }

    #[test]
    fn window_smooths_bursts_latest_does_not() {
        let mut w = QuantaWindowEstimator::new();
        let mut l = LatestQuantumEstimator::new();
        // Steady 10, then one burst sample of 30.
        for _ in 0..4 {
            w.record_sample(A, 10.0);
        }
        w.record_sample(A, 30.0);
        l.record_quantum(A, 30.0);
        assert_eq!(l.estimate(A), 30.0);
        assert_eq!(w.estimate(A), 14.0); // (10·4 + 30)/5
    }

    #[test]
    fn forget_clears_per_app_state_only() {
        let mut e = QuantaWindowEstimator::new();
        e.record_sample(A, 5.0);
        e.record_sample(B, 7.0);
        e.forget(A);
        assert_eq!(e.estimate(A), 0.0);
        assert_eq!(e.estimate(B), 7.0);
    }

    #[test]
    fn negative_rates_are_clamped() {
        let mut e = QuantaWindowEstimator::new();
        e.record_sample(A, -3.0);
        assert_eq!(e.estimate(A), 0.0);
        let mut l = LatestQuantumEstimator::new();
        l.record_quantum(A, -3.0);
        assert_eq!(l.estimate(A), 0.0);
    }

    #[test]
    fn non_finite_rates_are_rejected_not_recorded() {
        // `+∞` survives `rate.max(0.0)` and NaN is silently swallowed by
        // NaN-ignoring `f64::max`; both must be dropped at the boundary so
        // the previous (finite) estimate stands.
        for poison in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let mut l = LatestQuantumEstimator::new();
            l.record_quantum(A, 5.0);
            l.record_quantum(A, poison);
            assert_eq!(l.estimate(A), 5.0, "Latest poisoned by {poison}");

            let mut w = QuantaWindowEstimator::with_window(3);
            w.record_sample(A, 5.0);
            w.record_sample(A, poison);
            assert_eq!(w.estimate(A), 5.0, "Window poisoned by {poison}");

            let mut e = EwmaEstimator::new(0.5);
            e.record_sample(A, 5.0);
            e.record_sample(A, poison);
            assert_eq!(e.estimate(A), 5.0, "EWMA poisoned by {poison}");
        }
    }

    #[test]
    fn non_finite_first_sample_leaves_app_unmeasured() {
        let mut l = LatestQuantumEstimator::new();
        l.record_quantum(A, f64::INFINITY);
        assert_eq!(l.estimate(A), 0.0);
        let mut w = QuantaWindowEstimator::new();
        w.record_sample(A, f64::NAN);
        assert_eq!(w.estimate(A), 0.0);
        let mut e = EwmaEstimator::new(0.3);
        e.record_sample(A, f64::INFINITY);
        assert_eq!(e.estimate(A), 0.0);
    }

    #[test]
    fn labels_match_figure_legends() {
        assert_eq!(LatestQuantumEstimator::new().label(), "Latest");
        assert_eq!(QuantaWindowEstimator::new().label(), "Window");
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_rejected() {
        QuantaWindowEstimator::with_window(0);
    }

    #[test]
    fn ewma_first_sample_initializes_exactly() {
        let mut e = EwmaEstimator::new(0.3);
        e.record_sample(A, 10.0);
        assert_eq!(e.estimate(A), 10.0);
    }

    #[test]
    fn ewma_converges_geometrically() {
        let mut e = EwmaEstimator::new(0.5);
        e.record_sample(A, 0.0);
        for _ in 0..10 {
            e.record_sample(A, 8.0);
        }
        let est = e.estimate(A);
        assert!((est - 8.0).abs() < 0.02, "est {est}");
    }

    #[test]
    fn ewma_smooths_bursts_like_a_window() {
        let mut ewma = EwmaEstimator::matching_window(5);
        let mut win = QuantaWindowEstimator::new();
        for _ in 0..4 {
            ewma.record_sample(A, 10.0);
            win.record_sample(A, 10.0);
        }
        ewma.record_sample(A, 30.0);
        win.record_sample(A, 30.0);
        // Both damp the burst; the EWMA's response is within ~2 tx/µs of
        // the rectangular window's.
        assert!((ewma.estimate(A) - win.estimate(A)).abs() < 3.0);
        assert!(ewma.estimate(A) < 20.0);
    }

    #[test]
    fn ewma_alpha_one_degenerates_to_latest_sample() {
        let mut e = EwmaEstimator::new(1.0);
        e.record_sample(A, 4.0);
        e.record_sample(A, 9.0);
        assert_eq!(e.estimate(A), 9.0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_bad_alpha() {
        EwmaEstimator::new(0.0);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The windowed estimate is always within the min/max of the
            /// recorded samples (a true average).
            /// The EWMA estimate always lies within the range of samples
            /// seen so far.
            #[test]
            fn ewma_estimate_within_sample_range(
                samples in proptest::collection::vec(0.0f64..50.0, 1..30),
                alpha in 0.05f64..1.0,
            ) {
                let mut e = EwmaEstimator::new(alpha);
                for &s in &samples {
                    e.record_sample(A, s);
                }
                let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let est = e.estimate(A);
                prop_assert!(est >= lo - 1e-9 && est <= hi + 1e-9);
            }

            #[test]
            fn window_estimate_within_sample_range(
                samples in proptest::collection::vec(0.0f64..50.0, 1..20),
                window in 1usize..8,
            ) {
                let mut e = QuantaWindowEstimator::with_window(window);
                for &s in &samples {
                    e.record_sample(A, s);
                }
                let tail: Vec<f64> = samples.iter().rev().take(window).copied().collect();
                let lo = tail.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = tail.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let est = e.estimate(A);
                prop_assert!(est >= lo - 1e-9 && est <= hi + 1e-9);
            }
        }
    }
}
