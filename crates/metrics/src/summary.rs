//! Experiment aggregation, matching the paper's reporting conventions.
//!
//! * **Slowdown** (Fig. 1B): multiprogrammed turnaround ÷ solo turnaround,
//!   averaged arithmetically over the instances of an application.
//! * **Improvement %** (Fig. 2): the percentage reduction of the mean
//!   turnaround time under a policy relative to the Linux baseline:
//!   `(T_linux − T_policy) / T_linux × 100` — positive is better, and a
//!   3× baseline slowdown fully recovered shows as ≈ 68 %, matching the
//!   paper's headline numbers.

use std::borrow::Cow;

/// Arithmetic mean; `None` for an empty slice.
///
/// An empty measurement set used to panic here, which turned recoverable
/// experiment conditions (a run stopped at its hard cap before any app
/// finished, a figure with every row filtered out) into crashes deep in
/// aggregation. Callers now decide how to report "no data".
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Slowdown of a multiprogrammed run relative to solo execution.
pub fn slowdown(multi_us: f64, solo_us: f64) -> f64 {
    assert!(solo_us > 0.0, "solo time must be positive");
    multi_us / solo_us
}

/// The paper's Figure-2 metric: % improvement of average turnaround time
/// under `policy_us` versus `baseline_us`.
pub fn improvement_pct(baseline_us: f64, policy_us: f64) -> f64 {
    assert!(baseline_us > 0.0, "baseline time must be positive");
    (baseline_us - policy_us) / baseline_us * 100.0
}

/// One application's row in a figure: the value per configuration/policy.
#[derive(Debug, Clone)]
pub struct ExperimentRow {
    /// Application name (x-axis label).
    pub app: String,
    /// (series label, value) pairs, e.g. `("Latest", 41.0)`. A label
    /// fixed at compile time is borrowed, not copied.
    pub values: Vec<(Cow<'static, str>, f64)>,
}

impl ExperimentRow {
    /// Value for a series label, if present.
    pub fn get(&self, series: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(s, _)| s == series)
            .map(|&(_, v)| v)
    }
}

/// A whole figure: rows per application plus derived aggregates.
#[derive(Debug, Clone)]
pub struct FigureSummary {
    /// Figure identifier (e.g. `"fig2a"`).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Rows in x-axis order.
    pub rows: Vec<ExperimentRow>,
}

impl FigureSummary {
    /// Series labels present in the first row (assumed uniform).
    pub fn series(&self) -> Vec<String> {
        self.rows
            .first()
            .map(|r| r.values.iter().map(|(s, _)| s.to_string()).collect())
            .unwrap_or_default()
    }

    /// Mean of a series across rows (the paper's "in average" numbers).
    pub fn series_mean(&self, series: &str) -> Option<f64> {
        let vals: Vec<f64> = self.rows.iter().filter_map(|r| r.get(series)).collect();
        mean(&vals)
    }

    /// Max of a series across rows (the paper's "up to" numbers).
    pub fn series_max(&self, series: &str) -> Option<f64> {
        self.rows
            .iter()
            .filter_map(|r| r.get(series))
            .max_by(|a, b| a.total_cmp(b))
    }

    /// Min of a series across rows.
    pub fn series_min(&self, series: &str) -> Option<f64> {
        self.rows
            .iter()
            .filter_map(|r| r.get(series))
            .min_by(|a, b| a.total_cmp(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_matches_paper_arithmetic() {
        // Baseline 3× slower fully recovered: (3−1)/3 ≈ 66.7 %.
        let x = improvement_pct(3.0, 1.0);
        assert!((x - 66.6667).abs() < 0.001);
        // Policy worse than baseline → negative.
        assert!(improvement_pct(1.0, 1.19) < -18.9);
        // No change → 0.
        assert_eq!(improvement_pct(5.0, 5.0), 0.0);
    }

    #[test]
    fn slowdown_is_ratio() {
        assert_eq!(slowdown(300.0, 100.0), 3.0);
        assert_eq!(slowdown(100.0, 100.0), 1.0);
    }

    #[test]
    fn figure_aggregates() {
        let fig = FigureSummary {
            id: "t".into(),
            title: "t".into(),
            rows: vec![
                ExperimentRow {
                    app: "A".into(),
                    values: vec![("Latest".into(), 10.0), ("Window".into(), 20.0)],
                },
                ExperimentRow {
                    app: "B".into(),
                    values: vec![("Latest".into(), 30.0), ("Window".into(), -4.0)],
                },
            ],
        };
        assert_eq!(
            fig.series(),
            vec!["Latest".to_string(), "Window".to_string()]
        );
        assert_eq!(fig.series_mean("Latest"), Some(20.0));
        assert_eq!(fig.series_max("Latest"), Some(30.0));
        assert_eq!(fig.series_min("Window"), Some(-4.0));
        assert_eq!(fig.series_mean("nope"), None);
        assert_eq!(fig.rows[0].get("Window"), Some(20.0));
    }

    #[test]
    fn empty_mean_is_none_not_a_panic() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[4.0]), Some(4.0));
        assert_eq!(mean(&[1.0, 3.0]), Some(2.0));
    }

    #[test]
    fn figure_with_no_rows_aggregates_to_none() {
        let fig = FigureSummary {
            id: "empty".into(),
            title: "empty".into(),
            rows: Vec::new(),
        };
        assert!(fig.series().is_empty());
        assert_eq!(fig.series_mean("Latest"), None);
        assert_eq!(fig.series_max("Latest"), None);
        assert_eq!(fig.series_min("Latest"), None);
    }

    #[test]
    #[should_panic(expected = "baseline")]
    fn zero_baseline_panics() {
        improvement_pct(0.0, 1.0);
    }
}
