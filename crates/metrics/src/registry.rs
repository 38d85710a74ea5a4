//! A small run-metrics registry: counters, gauges, histograms, and
//! timelines, snapshotted as JSON into the run manifest.
//!
//! The experiment harness records what a run *did* — ticks simulated, bus
//! Λ-solve memo hits, per-app slowdowns, the bus-utilization ρ timeline —
//! and [`MetricsRegistry::to_json`] renders one machine-readable object
//! that is embedded next to each `results/` artifact. Everything is plain
//! in-process state: no atomics, no global registry, no dependencies.

use std::collections::BTreeMap;

/// Format an `f64` as JSON (non-finite values become `null`).
fn push_f64(out: &mut String, v: f64) {
    use std::fmt::Write as _;
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// A histogram with caller-chosen upper bucket bounds plus an implicit
/// overflow bucket, tracking count/sum/min/max alongside.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// `bounds.len() + 1` buckets; the last catches everything above.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// A histogram whose bucket `i` counts samples `≤ bounds[i]` (bounds
    /// must be strictly increasing); one overflow bucket is added.
    ///
    /// # Panics
    /// Panics if `bounds` is not strictly increasing.
    pub fn new(bounds: Vec<f64>) -> Self {
        let n = bounds.len() + 1;
        Self::from_parts(bounds, vec![0; n], 0, 0.0, f64::INFINITY, f64::NEG_INFINITY)
            .unwrap_or_else(|why| panic!("{why}"))
    }

    /// Rebuild a histogram over `bounds` from the parts another one
    /// reported through [`counts`](Self::counts), [`count`](Self::count),
    /// [`sum`](Self::sum), [`min`](Self::min) and [`max`](Self::max); it
    /// answers every query bit for bit as that one did. Parts that no
    /// recording over `bounds` produces are an error, never a panic: bounds
    /// that do not strictly increase, other than `bounds.len() + 1`
    /// counts, counts that do not sum to `count`, an empty histogram with
    /// a sum or an observed range, or a non-empty one whose `min ≤ max`
    /// fails.
    pub fn from_parts(
        bounds: Vec<f64>,
        counts: Vec<u64>,
        count: u64,
        sum: f64,
        min: f64,
        max: f64,
    ) -> Result<Self, String> {
        if !bounds.windows(2).all(|w| w[0] < w[1]) {
            return Err("histogram bounds must be strictly increasing".into());
        }
        if counts.len() != bounds.len() + 1 {
            return Err(format!(
                "{} bucket counts for {} bounds",
                counts.len(),
                bounds.len()
            ));
        }
        let total = counts.iter().try_fold(0u64, |t, &n| t.checked_add(n));
        if total != Some(count) {
            return Err(format!("bucket counts do not sum to the count {count}"));
        }
        let range_ok = if count == 0 {
            sum == 0.0 && min == f64::INFINITY && max == f64::NEG_INFINITY
        } else {
            min <= max
        };
        if !range_ok {
            return Err(format!(
                "sum {sum} and range [{min}, {max}] do not fit {count} samples"
            ));
        }
        Ok(Self {
            bounds,
            counts,
            count,
            sum,
            min,
            max,
        })
    }

    /// Record one sample.
    pub fn record(&mut self, v: f64) {
        self.record_n(v, 1);
    }

    /// Record `n` identical samples at once — how pre-bucketed data (e.g.
    /// the simulator's per-run tick-coarsening histogram) folds in without
    /// `n` individual calls.
    pub fn record_n(&mut self, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        let i = self.bounds.partition_point(|&b| b < v);
        self.counts[i] += n;
        self.count += n;
        self.sum += v * n as f64;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Samples per bucket: `bounds.len() + 1` counts, the overflow
    /// bucket last.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Smallest sample recorded (`+∞` before the first sample).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample recorded (`−∞` before the first sample).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Arithmetic mean (`None` before the first sample).
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }

    /// Deterministic fixed-bucket quantile estimate: the value below
    /// which a fraction `q` of the recorded samples fall, linearly
    /// interpolated inside the bucket that crosses the target rank and
    /// clamped to the observed `[min, max]` (so the overflow bucket and
    /// the open lower end never extrapolate past real samples).
    ///
    /// `q` is clamped to `[0, 1]`; `q == 0` reports the observed
    /// minimum and `q == 1` the observed maximum. Returns `None` before
    /// the first sample. Depends only on recorded counts, never on
    /// insertion order — identical streams give identical answers.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        if q == 0.0 {
            return Some(self.min);
        }
        if q == 1.0 {
            return Some(self.max);
        }
        let target = q * self.count as f64;
        let mut cum = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let prev = cum;
            cum += n;
            if cum as f64 >= target {
                let upper = self
                    .bounds
                    .get(i)
                    .copied()
                    .unwrap_or(self.max)
                    .min(self.max);
                let lower = if i == 0 {
                    self.min
                } else {
                    self.bounds[i - 1].max(self.min)
                }
                .min(upper);
                let frac = (target - prev as f64) / n as f64;
                return Some((lower + (upper - lower) * frac).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Per-bucket `(upper_bound, count)` pairs; the overflow bucket
    /// reports `f64::INFINITY` as its bound.
    pub(crate) fn buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.bounds
            .iter()
            .copied()
            .chain(std::iter::once(f64::INFINITY))
            .zip(self.counts.iter().copied())
    }

    fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        out.push_str("{\"count\":");
        let _ = write!(out, "{}", self.count);
        out.push_str(",\"sum\":");
        push_f64(out, self.sum);
        out.push_str(",\"min\":");
        push_f64(out, if self.count == 0 { f64::NAN } else { self.min });
        out.push_str(",\"max\":");
        push_f64(out, if self.count == 0 { f64::NAN } else { self.max });
        out.push_str(",\"buckets\":[");
        for (i, (le, n)) in self.buckets().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"le\":");
            push_f64(out, le); // overflow bound serializes as null
            let _ = write!(out, ",\"n\":{n}}}");
        }
        out.push_str("]}");
    }
}

/// A `(time_us, value)` series, e.g. the bus-utilization ρ timeline
/// rebuilt from `bus_solve` trace events.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    points: Vec<(u64, f64)>,
}

impl Timeline {
    /// Append a point. Out-of-order times are accepted (merged worker
    /// traces are sorted upstream) but not re-sorted here.
    pub fn push(&mut self, t_us: u64, value: f64) {
        self.points.push((t_us, value));
    }

    fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        out.push('[');
        for (i, &(t, v)) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{t},");
            push_f64(out, v);
            out.push(']');
        }
        out.push(']');
    }
}

/// The registry: named counters, gauges, histograms, and timelines.
///
/// ```
/// use busbw_metrics::MetricsRegistry;
/// let mut m = MetricsRegistry::new();
/// m.inc_counter("bus.memo_hits", 42);
/// m.set_gauge("app.cg.slowdown", 2.63);
/// m.histogram("tick.dt_ticks", &[1.0, 8.0, 64.0]).record(3.0);
/// m.timeline("bus.rho").push(1000, 0.97);
/// assert!(m.to_json().contains("\"bus.memo_hits\":42"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    timelines: BTreeMap<String, Timeline>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `by` to a named monotone counter (created at 0).
    pub fn inc_counter(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Current value of a counter (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set a named gauge to `value` (last write wins).
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Current value of a gauge.
    #[cfg(test)]
    pub(crate) fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, created with `bounds` on first access
    /// (subsequent calls ignore `bounds`).
    pub fn histogram(&mut self, name: &str, bounds: &[f64]) -> &mut Histogram {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds.to_vec()))
    }

    /// The named timeline, created empty on first access.
    pub fn timeline(&mut self, name: &str) -> &mut Timeline {
        self.timelines.entry(name.to_string()).or_default()
    }

    /// Render the whole registry as one JSON object (the `metrics` field
    /// of the run manifest). Keys are sorted (BTreeMap), so the output is
    /// deterministic.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{v}", json_quote(k));
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:", json_quote(k));
            push_f64(&mut out, *v);
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:", json_quote(k));
            h.write_json(&mut out);
        }
        out.push_str("},\"timelines\":{");
        for (i, (k, t)) in self.timelines.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:", json_quote(k));
            t.write_json(&mut out);
        }
        out.push_str("}}");
        out
    }
}

/// Quote a string as a JSON string literal (metric names are plain ASCII
/// identifiers, but escape control characters, quotes and backslashes
/// anyway).
fn json_quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.counter("x"), 0);
        m.inc_counter("x", 2);
        m.inc_counter("x", 3);
        assert_eq!(m.counter("x"), 5);
    }

    #[test]
    fn gauges_keep_the_last_write() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.gauge("g"), None);
        m.set_gauge("g", 1.0);
        m.set_gauge("g", 2.5);
        assert_eq!(m.gauge("g"), Some(2.5));
    }

    #[test]
    fn histogram_buckets_by_upper_bound_with_overflow() {
        let mut h = Histogram::new(vec![1.0, 10.0]);
        for v in [0.5, 1.0, 5.0, 10.0, 11.0] {
            h.record(v);
        }
        let buckets: Vec<(f64, u64)> = h.buckets().collect();
        // ≤1: {0.5, 1.0}; ≤10: {5.0, 10.0}; overflow: {11.0}.
        assert_eq!(buckets[0].1, 2);
        assert_eq!(buckets[1].1, 2);
        assert_eq!(buckets[2].1, 1);
        assert_eq!(h.count(), 5);
        assert!((h.mean().unwrap() - 5.5).abs() < 1e-9);
    }

    #[test]
    fn record_n_matches_n_individual_records() {
        let mut a = Histogram::new(vec![1.0, 10.0]);
        let mut b = Histogram::new(vec![1.0, 10.0]);
        for _ in 0..5 {
            a.record(3.0);
        }
        b.record_n(3.0, 5);
        b.record_n(99.0, 0); // no-op
        assert_eq!(a.count(), b.count());
        assert_eq!(a.sum(), b.sum());
        assert_eq!(
            a.buckets().collect::<Vec<_>>(),
            b.buckets().collect::<Vec<_>>()
        );
    }

    #[test]
    fn interpolated_quantiles_never_leave_the_observed_range() {
        // Regression: the tail bucket's upper bound is far above the
        // largest sample, so interpolating inside it used to report a
        // p99 past the observed maximum. The clamp pins every quantile
        // to [min, max].
        let mut h = Histogram::new(vec![100.0, 1_000.0, 100_000.0]);
        for v in [120.0, 450.0, 800.0, 1_050.0, 1_100.0] {
            h.record(v);
        }
        let p99 = h.quantile(0.99).unwrap();
        assert!(p99 <= 1_100.0, "p99 {p99} exceeds the observed max");
        assert!(p99 >= 120.0);
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let v = h.quantile(q).unwrap();
            assert!((120.0..=1_100.0).contains(&v), "q{q} = {v} out of range");
        }
        assert_eq!(h.quantile(1.0), Some(1_100.0));
        assert_eq!(h.quantile(0.0), Some(120.0));
    }

    #[test]
    fn empty_histogram_mean_is_none() {
        let h = Histogram::new(vec![1.0]);
        assert_eq!(h.mean(), None);
        assert_eq!(h.count(), 0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotone_bounds_rejected() {
        Histogram::new(vec![2.0, 1.0]);
    }

    #[test]
    fn quantile_of_empty_histogram_is_none() {
        let h = Histogram::new(vec![1.0, 10.0]);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.quantile(0.0), None);
        assert_eq!(h.quantile(1.0), None);
    }

    #[test]
    fn quantile_of_single_sample_is_that_sample() {
        let mut h = Histogram::new(vec![1.0, 10.0, 100.0]);
        h.record(7.0);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(7.0), "q={q}");
        }
    }

    #[test]
    fn quantile_endpoints_report_observed_min_and_max() {
        let mut h = Histogram::new(vec![10.0, 100.0]);
        h.record(3.0);
        h.record(42.0);
        h.record(999.0); // overflow bucket
        assert_eq!(h.quantile(0.0), Some(3.0));
        assert_eq!(h.quantile(1.0), Some(999.0));
        // Out-of-range q clamps to the endpoints.
        assert_eq!(h.quantile(-0.5), Some(3.0));
        assert_eq!(h.quantile(2.0), Some(999.0));
    }

    #[test]
    fn quantile_interpolates_and_is_monotone() {
        let mut h = Histogram::new(vec![10.0, 20.0, 30.0, 40.0]);
        // 100 samples spread uniformly: 25 per bounded bucket.
        for i in 0..100u64 {
            h.record(0.4 * i as f64 + 0.2);
        }
        // Median lands mid-stream; fixed-bucket interpolation is only
        // bucket-accurate, so allow one bucket of slack.
        let p50 = h.quantile(0.5).unwrap();
        assert!((10.0..=30.0).contains(&p50), "p50 = {p50}");
        // Quantiles never decrease in q and never escape [min, max].
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=20 {
            let v = h.quantile(i as f64 / 20.0).unwrap();
            assert!(v >= prev, "quantile not monotone at q={}", i as f64 / 20.0);
            assert!((0.2..=39.8 + 1e-9).contains(&v));
            prev = v;
        }
    }

    #[test]
    fn quantile_at_bucket_boundary_interpolates_exactly() {
        // Two equally-filled buckets: the target rank of the median falls
        // exactly on the shared bucket edge, so interpolation must land
        // on the boundary itself (frac = 1.0 of the first bucket), and
        // any q beyond it must move into the second bucket starting from
        // that same edge — no double-counting, no discontinuity.
        let mut h = Histogram::new(vec![10.0, 20.0]);
        h.record_n(5.0, 10); // bucket 0: (min .. 10]
        h.record_n(15.0, 10); // bucket 1: (10 .. 20]
        assert_eq!(h.quantile(0.5), Some(10.0), "median on the bucket edge");
        // Mid-bucket ranks interpolate linearly from the clamped ends:
        // q = 0.25 → rank 5 of 10 in [min = 5, 10] → 7.5,
        // q = 0.75 → rank 5 of 10 in [10, max = 15] → 12.5.
        assert_eq!(h.quantile(0.25), Some(7.5));
        assert_eq!(h.quantile(0.75), Some(12.5));
        // Just past the edge: continuous from the boundary, not from 0.
        let just_past = h.quantile(0.5 + 1e-9).unwrap();
        assert!(
            (10.0..10.1).contains(&just_past),
            "q ε past the median must leave the edge continuously: {just_past}"
        );
    }

    #[test]
    fn quantile_of_overflow_heavy_stream_stays_within_samples() {
        let mut h = Histogram::new(vec![1.0]);
        h.record_n(1e6, 1000); // everything in the overflow bucket
        assert_eq!(h.quantile(0.999), Some(1e6));
        assert_eq!(h.quantile(0.5), Some(1e6));
    }

    #[test]
    fn from_parts_rejects_parts_no_recording_produces() {
        let mut h = Histogram::new(vec![1.0, 10.0]);
        h.record(0.5);
        h.record(5.0);
        let parts = |h: &Histogram| (h.counts().to_vec(), h.count(), h.sum(), h.min(), h.max());
        let (counts, count, sum, min, max) = parts(&h);
        let rebuild = |bounds: Vec<f64>, counts: Vec<u64>, count, sum, min, max| {
            Histogram::from_parts(bounds, counts, count, sum, min, max)
        };
        let b = || vec![1.0, 10.0];
        assert_eq!(rebuild(b(), counts.clone(), count, sum, min, max), Ok(h));
        for (what, bad) in [
            (
                "bounds not increasing",
                rebuild(vec![10.0, 1.0], counts.clone(), count, sum, min, max),
            ),
            (
                "one bucket short",
                rebuild(b(), counts[..2].to_vec(), count, sum, min, max),
            ),
            (
                "counts off the count",
                rebuild(b(), counts.clone(), count + 1, sum, min, max),
            ),
            (
                "counts overflow",
                rebuild(b(), vec![u64::MAX, 1, 0], 0, sum, min, max),
            ),
            (
                "inverted range",
                rebuild(b(), counts.clone(), count, sum, max, min),
            ),
            ("NaN min", rebuild(b(), counts, count, sum, f64::NAN, max)),
            (
                "empty with a range",
                rebuild(b(), vec![0; 3], 0, 0.0, 1.0, 1.0),
            ),
            (
                "empty with a sum",
                rebuild(b(), vec![0; 3], 0, 2.0, f64::INFINITY, f64::NEG_INFINITY),
            ),
        ] {
            assert!(bad.is_err(), "{what} must be rejected");
        }
    }

    proptest::proptest! {
        /// A histogram rebuilt from its parts answers every quantile and
        /// the mean bit for bit as the recorded one, and keeps recording
        /// alike.
        #[test]
        fn rebuilt_from_parts_answers_bit_for_bit(
            samples in proptest::collection::vec(1.0f64..2e8, 0..200),
            more in 1.0f64..2e8,
        ) {
            let bounds = vec![1e3, 1e4, 1e5, 1e6, 1e7];
            let mut h = Histogram::new(bounds.clone());
            for &v in &samples {
                h.record(v);
            }
            let mut back = Histogram::from_parts(
                bounds,
                h.counts().to_vec(),
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
            )
            .expect("a recorded histogram's parts rebuild");
            for i in 0..=1000 {
                let q = i as f64 / 1000.0;
                proptest::prop_assert_eq!(
                    back.quantile(q).map(f64::to_bits),
                    h.quantile(q).map(f64::to_bits)
                );
            }
            proptest::prop_assert_eq!(back.mean().map(f64::to_bits), h.mean().map(f64::to_bits));
            h.record(more);
            back.record(more);
            proptest::prop_assert_eq!(back, h);
        }
    }

    #[test]
    fn snapshot_is_valid_json_with_all_sections() {
        let mut m = MetricsRegistry::new();
        m.inc_counter("ticks", 7);
        m.set_gauge("rho", 0.93);
        m.set_gauge("weird", f64::NAN); // must serialize as null
        m.histogram("h", &[1.0, 2.0]).record(1.5);
        m.timeline("tl").push(5, 0.5);
        let js = m.to_json();
        let v = busbw_trace::json::parse(&js).expect("snapshot must parse");
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("ticks"))
                .and_then(|x| x.as_f64()),
            Some(7.0)
        );
        assert!(v.get("gauges").and_then(|g| g.get("weird")).is_some());
        let h = v.get("histograms").and_then(|h| h.get("h")).unwrap();
        assert_eq!(h.get("count").and_then(|x| x.as_f64()), Some(1.0));
        let tl = v.get("timelines").and_then(|t| t.get("tl")).unwrap();
        assert_eq!(tl.as_array().map(|a| a.len()), Some(1));
    }

    #[test]
    fn empty_registry_snapshot_parses() {
        let js = MetricsRegistry::new().to_json();
        assert!(busbw_trace::json::parse(&js).is_ok());
        assert_eq!(
            js,
            r#"{"counters":{},"gauges":{},"histograms":{},"timelines":{}}"#
        );
    }
}
