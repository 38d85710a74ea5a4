//! Statistics and reporting for the reproduction.
//!
//! Small, dependency-light building blocks used by the experiment harness
//! and benches:
//!
//! * [`MovingWindow`] — moving-window averages (the analytical companion
//!   to the Quanta Window policy, incl. the paper's window-distance
//!   criterion);
//! * [`slowdown`], [`improvement_pct`], [`FigureSummary`] — slowdown,
//!   turnaround, improvement-% aggregation exactly as the paper reports
//!   them (arithmetic mean over instances, improvement relative to the
//!   Linux baseline);
//! * [`Table`] — fixed-width text and CSV rendering for figure tables;
//! * [`MetricsRegistry`] — the run-metrics registry (counters, gauges,
//!   histograms, ρ timelines) whose JSON snapshot is embedded in run
//!   manifests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod registry;
pub(crate) mod summary;
pub(crate) mod table;
pub(crate) mod window;

pub use registry::{Histogram, MetricsRegistry};
pub use summary::{improvement_pct, mean, slowdown, ExperimentRow, FigureSummary};
pub use table::Table;
pub use window::MovingWindow;
