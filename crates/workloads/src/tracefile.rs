//! Replaying recorded demand traces.
//!
//! Everything else in this crate *models* application behaviour; this
//! module lets a user bring a **measured profile** instead: a sequence of
//! `(duration, rate, mu)` segments — e.g. exported from hardware counters
//! of a real run at the CPU manager's sampling period — replayed over the
//! thread's virtual time (repeating from the start when exhausted, like
//! an iterative application re-entering its phase loop).
//!
//! A tiny CSV form is supported for files produced by spreadsheet or
//! script: one `duration_us,rate,mu` triple per line, `#` comments.

use busbw_sim::{Demand, DemandModel};

/// One trace segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSegment {
    /// Segment length in virtual µs.
    pub duration_us: f64,
    /// Solo bus demand during the segment, tx/µs.
    pub rate: f64,
    /// Memory-boundness during the segment.
    pub mu: f64,
}

/// A demand model that replays a recorded trace cyclically.
///
/// ```
/// use busbw_workloads::tracefile::TraceDemand;
/// use busbw_sim::DemandModel;
/// let mut t = TraceDemand::parse_csv("1000, 2.0, 0.2\n500, 8.0, 0.8").unwrap();
/// assert_eq!(t.demand_at(0.0, 0).rate, 2.0);
/// assert_eq!(t.demand_at(1200.0, 0).rate, 8.0);
/// assert!((t.mean_rate() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct TraceDemand {
    segments: Vec<TraceSegment>,
    total_us: f64,
}

impl TraceDemand {
    /// Build from segments.
    ///
    /// # Panics
    /// Panics on an empty trace or invalid segment values.
    pub fn new(segments: Vec<TraceSegment>) -> Self {
        assert!(!segments.is_empty(), "trace must have at least one segment");
        for s in &segments {
            assert!(s.duration_us > 0.0, "segment durations must be positive");
            assert!(s.rate >= 0.0 && s.rate.is_finite(), "bad rate {}", s.rate);
            assert!((0.0..=1.0).contains(&s.mu), "mu out of range: {}", s.mu);
        }
        let total_us = segments.iter().map(|s| s.duration_us).sum();
        Self { segments, total_us }
    }

    /// Parse the CSV form: `duration_us,rate,mu` per line; blank lines and
    /// `#` comments ignored. Every value [`TraceDemand::new`] would reject
    /// is an `Err` naming the line: a non-finite or non-positive duration,
    /// a negative or non-finite rate, a µ outside `[0, 1]`.
    pub fn parse_csv(text: &str) -> Result<Self, String> {
        let mut segments = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parts: Vec<&str> = line.split(',').map(str::trim).collect();
            if parts.len() != 3 {
                return Err(format!(
                    "line {}: expected 3 fields, got {}",
                    lineno + 1,
                    parts.len()
                ));
            }
            let parse = |s: &str, what: &str| -> Result<f64, String> {
                s.parse()
                    .map_err(|e| format!("line {}: bad {what} '{s}': {e}", lineno + 1))
            };
            let (duration_us, rate, mu) = (
                parse(parts[0], "duration")?,
                parse(parts[1], "rate")?,
                parse(parts[2], "mu")?,
            );
            let invalid = if !(duration_us.is_finite() && duration_us > 0.0) {
                Some(("duration", duration_us, "must be finite and positive"))
            } else if !(rate.is_finite() && rate >= 0.0) {
                Some(("rate", rate, "must be finite and non-negative"))
            } else if !(0.0..=1.0).contains(&mu) {
                Some(("mu", mu, "must lie in [0, 1]"))
            } else {
                None
            };
            if let Some((what, v, why)) = invalid {
                return Err(format!("line {}: {what} {v} {why}", lineno + 1));
            }
            segments.push(TraceSegment {
                duration_us,
                rate,
                mu,
            });
        }
        if segments.is_empty() {
            return Err("trace file contains no segments".into());
        }
        Ok(Self::new(segments))
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True when the trace has no segments (cannot occur post-construction).
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// One full replay's length, virtual µs.
    pub fn cycle_us(&self) -> f64 {
        self.total_us
    }

    fn segment_at(&self, vt_us: f64) -> &TraceSegment {
        let mut pos = vt_us.rem_euclid(self.total_us);
        for s in &self.segments {
            if pos < s.duration_us {
                return s;
            }
            pos -= s.duration_us;
        }
        self.segments.last().expect("non-empty")
    }
}

impl DemandModel for TraceDemand {
    fn demand_at(&mut self, vt_us: f64, _wall_us: u64) -> Demand {
        let s = self.segment_at(vt_us);
        Demand::new(s.rate, s.mu)
    }

    fn mean_rate(&self) -> f64 {
        self.segments
            .iter()
            .map(|s| s.rate * s.duration_us)
            .sum::<f64>()
            / self.total_us
    }

    fn constant_for(&self, vt_us: f64, _wall_us: u64) -> (f64, f64) {
        // Replayed over virtual time only, so per the trait contract the
        // wall horizon is infinite: constant until the current segment's
        // virtual-time edge.
        let mut pos = vt_us.rem_euclid(self.total_us);
        for s in &self.segments {
            if pos < s.duration_us {
                return (s.duration_us - pos, f64::INFINITY);
            }
            pos -= s.duration_us;
        }
        (0.0, f64::INFINITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(d: f64, r: f64, m: f64) -> TraceSegment {
        TraceSegment {
            duration_us: d,
            rate: r,
            mu: m,
        }
    }

    #[test]
    fn replays_segments_in_order_and_cycles() {
        let mut t = TraceDemand::new(vec![seg(100.0, 2.0, 0.2), seg(50.0, 8.0, 0.8)]);
        assert_eq!(t.demand_at(0.0, 0).rate, 2.0);
        assert_eq!(t.demand_at(99.0, 0).rate, 2.0);
        assert_eq!(t.demand_at(100.0, 0).rate, 8.0);
        assert_eq!(t.demand_at(149.0, 0).rate, 8.0);
        // Cycles.
        assert_eq!(t.demand_at(150.0, 0).rate, 2.0);
        assert_eq!(t.cycle_us(), 150.0);
    }

    #[test]
    fn mean_rate_is_duration_weighted() {
        let t = TraceDemand::new(vec![seg(100.0, 2.0, 0.2), seg(50.0, 8.0, 0.8)]);
        // (2·100 + 8·50)/150 = 4.0
        assert!((t.mean_rate() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn csv_parses_with_comments_and_blanks() {
        let text = "\n# measured on xeon\n100, 2.0, 0.2\n\n50,8.0,0.8\n";
        let t = TraceDemand::parse_csv(text).expect("parse");
        assert_eq!(t.len(), 2);
        assert!((t.mean_rate() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn csv_rejects_malformed_lines() {
        assert!(TraceDemand::parse_csv("1,2")
            .unwrap_err()
            .contains("3 fields"));
        assert!(TraceDemand::parse_csv("a,b,c")
            .unwrap_err()
            .contains("bad duration"));
        assert!(TraceDemand::parse_csv("# only comments\n")
            .unwrap_err()
            .contains("no segments"));
    }

    #[test]
    fn csv_rejects_bad_durations_with_the_line_number() {
        for bad in ["0,1,0.5", "-5,1,0.5", "nan,1,0.5", "inf,1,0.5"] {
            let err = TraceDemand::parse_csv(&format!("# header\n{bad}")).unwrap_err();
            assert!(err.starts_with("line 2: duration"), "{bad}: {err}");
        }
    }

    #[test]
    fn csv_rejects_bad_rates_with_the_line_number() {
        for bad in ["100,-2,0.5", "100,nan,0.5", "100,inf,0.5"] {
            let err = TraceDemand::parse_csv(&format!("10,1,0.1\n{bad}")).unwrap_err();
            assert!(err.starts_with("line 2: rate"), "{bad}: {err}");
        }
    }

    #[test]
    fn csv_rejects_bad_mu_with_the_line_number() {
        for bad in ["100,2,1.5", "100,2,-0.1", "100,2,nan"] {
            let err = TraceDemand::parse_csv(&format!("10,1,0.1\n\n{bad}")).unwrap_err();
            assert!(err.starts_with("line 3: mu"), "{bad}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "mu out of range")]
    fn invalid_mu_rejected() {
        TraceDemand::new(vec![seg(1.0, 1.0, 2.0)]);
    }

    #[test]
    fn runs_inside_the_simulator() {
        use busbw_sim::{AppDescriptor, Machine, StopCondition, ThreadSpec, XEON_4WAY};
        let model = TraceDemand::new(vec![seg(50_000.0, 1.0, 0.1), seg(50_000.0, 9.0, 0.8)]);
        let mut m = Machine::new(XEON_4WAY);
        let app = m.add_app(AppDescriptor::new(
            "traced",
            vec![ThreadSpec::new(300_000.0, Box::new(model))],
        ));
        struct Pin;
        impl busbw_sim::Scheduler for Pin {
            fn schedule(&mut self, v: &busbw_sim::MachineView<'_>) -> busbw_sim::Decision {
                busbw_sim::Decision {
                    assignments: v
                        .threads()
                        .filter(|t| t.is_runnable())
                        .map(|t| busbw_sim::Assignment {
                            thread: t.id,
                            cpu: busbw_sim::CpuId(0),
                        })
                        .collect(),
                    next_resched_in_us: 100_000,
                    sample_period_us: None,
                }
            }
        }
        let out = m.run(&mut Pin, StopCondition::AppsFinished(vec![app]));
        assert!(out.condition_met);
        let report = m.app_report(app).unwrap();
        // Mean rate 5 tx/µs × ~300 ms (plus cold-start boost early on).
        assert!(
            (1_400_000.0..2_100_000.0).contains(&report.transactions),
            "tx {}",
            report.transactions
        );
    }
}
