//! Moving-window averaging.
//!
//! §4 of the paper justifies the 5-sample window: it "has the property of
//! limiting the average distance between the observed transactions pattern
//! and the moving window average to 5 % for applications with irregular
//! bus bandwidth requirements". [`MovingWindow::mean_relative_distance`]
//! computes exactly that criterion so the window-length ablation
//! (`experiments -- ablate-window`) can reproduce the design choice.

/// A fixed-capacity moving window over `f64` samples.
///
/// ```
/// use busbw_metrics::MovingWindow;
/// let mut w = MovingWindow::new(3);
/// for v in [1.0, 2.0, 3.0, 4.0] { w.push(v); }
/// assert_eq!(w.mean(), Some(3.0)); // holds the last 3: [2, 3, 4]
/// ```
#[derive(Debug, Clone)]
pub struct MovingWindow {
    cap: usize,
    buf: Vec<f64>,
    /// Next write position (ring buffer).
    head: usize,
    len: usize,
}

impl MovingWindow {
    /// A window holding the last `cap` samples.
    ///
    /// # Panics
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "window capacity must be at least 1");
        Self {
            cap,
            buf: vec![0.0; cap],
            head: 0,
            len: 0,
        }
    }

    /// Push a sample, evicting the oldest when full.
    pub fn push(&mut self, v: f64) {
        self.buf[self.head] = v;
        self.head = (self.head + 1) % self.cap;
        self.len = (self.len + 1).min(self.cap);
    }

    /// Mean of the held samples (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        if self.len == 0 {
            None
        } else {
            Some(self.iter().sum::<f64>() / self.len as f64)
        }
    }

    /// Iterate held samples, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.len).map(move |i| {
            let idx = (self.head + self.cap - self.len + i) % self.cap;
            self.buf[idx]
        })
    }

    /// The paper's window-quality criterion: feed `trace` through a window
    /// of `cap` samples and return the mean of
    /// `|sample − windowed_mean| / mean(trace)` — the average relative
    /// distance between the observed pattern and the moving average.
    ///
    /// `None` for an empty trace (there is no pattern to compare against);
    /// this path used to assert, which meant a workload that produced no
    /// samples crashed the whole ablation instead of being reported.
    pub fn mean_relative_distance(cap: usize, trace: &[f64]) -> Option<f64> {
        if trace.is_empty() {
            return None;
        }
        let overall = trace.iter().sum::<f64>() / trace.len() as f64;
        if overall == 0.0 {
            return Some(0.0);
        }
        let mut acc = 0.0;
        for (n, &s) in trace.iter().enumerate() {
            // What a window of `cap` holds once `s` is pushed, oldest
            // first: its mean sums in the order `MovingWindow::mean` does.
            let held = &trace[(n + 1).saturating_sub(cap)..=n];
            let m = held.iter().sum::<f64>() / held.len() as f64;
            acc += (s - m).abs() / overall;
        }
        Some(acc / trace.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_then_evicts_oldest() {
        let mut w = MovingWindow::new(3);
        for v in [1.0, 2.0, 3.0, 4.0] {
            w.push(v);
        }
        let held: Vec<f64> = w.iter().collect();
        assert_eq!(held, vec![2.0, 3.0, 4.0]);
        assert_eq!(w.mean(), Some(3.0));
    }

    #[test]
    fn partial_window_means_partial_samples() {
        let mut w = MovingWindow::new(5);
        w.push(10.0);
        assert_eq!(w.mean(), Some(10.0));
        w.push(20.0);
        assert_eq!(w.mean(), Some(15.0));
    }

    #[test]
    fn empty_mean_is_none() {
        assert_eq!(MovingWindow::new(4).mean(), None);
    }

    #[test]
    fn constant_trace_has_zero_distance() {
        let trace = vec![7.0; 100];
        assert_eq!(MovingWindow::mean_relative_distance(5, &trace), Some(0.0));
    }

    #[test]
    fn window_one_tracks_the_trace_exactly() {
        // A window of 1 *is* the trace: distance 0 by definition.
        let trace: Vec<f64> = (0..50).map(|i| (i % 7) as f64).collect();
        assert!(MovingWindow::mean_relative_distance(1, &trace).unwrap() < 1e-12);
    }

    #[test]
    fn wider_windows_lag_bursty_traces_more() {
        // A square wave: wider windows smooth more, so the distance to the
        // instantaneous trace grows with width.
        let trace: Vec<f64> = (0..200)
            .map(|i| if (i / 10) % 2 == 0 { 15.0 } else { 5.0 })
            .collect();
        let d1 = MovingWindow::mean_relative_distance(1, &trace).unwrap();
        let d5 = MovingWindow::mean_relative_distance(5, &trace).unwrap();
        let d15 = MovingWindow::mean_relative_distance(15, &trace).unwrap();
        assert!(d1 < d5 && d5 < d15, "{d1} {d5} {d15}");
    }

    #[test]
    fn empty_trace_distance_is_none() {
        assert_eq!(MovingWindow::mean_relative_distance(5, &[]), None);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        MovingWindow::new(0);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The windowed mean is always inside [min, max] of held
            /// samples, and it never holds more than its capacity.
            #[test]
            fn mean_bounded(cap in 1usize..10, samples in proptest::collection::vec(-100.0f64..100.0, 1..40)) {
                let mut w = MovingWindow::new(cap);
                for &s in &samples {
                    w.push(s);
                    let held: Vec<f64> = w.iter().collect();
                    prop_assert!(held.len() <= cap);
                    let lo = held.iter().copied().fold(f64::INFINITY, f64::min);
                    let hi = held.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    let m = w.mean().unwrap();
                    prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
                }
            }

            /// The distance reads each window straight from the trace, bit
            /// for bit what feeding a `MovingWindow` gives.
            #[test]
            fn distance_matches_a_fed_window(cap in 1usize..20, trace in proptest::collection::vec(0.0f64..100.0, 1..80)) {
                let overall = trace.iter().sum::<f64>() / trace.len() as f64;
                let mut w = MovingWindow::new(cap);
                let mut acc = 0.0;
                for &s in &trace {
                    w.push(s);
                    acc += (s - w.mean().unwrap()).abs() / overall;
                }
                let fed = acc / trace.len() as f64;
                let got = MovingWindow::mean_relative_distance(cap, &trace).unwrap();
                prop_assert_eq!(got.to_bits(), fed.to_bits());
            }
        }
    }
}
