//! The `open` figure family: tail latency of the live manager server.
//!
//! Everything else in the harness replays *closed* workloads through the
//! simulator. This figure drives the real `core::manager` daemon stack
//! through `busbw-managerd`'s open-system event loop: seeded
//! Poisson/Pareto/diurnal client arrivals connect live, are scheduled by
//! the §4 quantum loop, and depart on completion. Per offered-load
//! multiple and per estimator stack it reports:
//!
//! * turnaround tail quantiles — p50 / p99 / p999, via
//!   [`busbw_metrics::Histogram::quantile`];
//! * the shed rate of the bounded accept queue (overload admission
//!   control);
//! * mean slowdown (turnaround ÷ solo service time);
//! * the manager's modeled bookkeeping overhead, to compare with the
//!   paper's measured ≈4.5 % bound.
//!
//! Three stacks are compared: the bandwidth-oblivious baseline
//! ([`ZeroEstimator`], Linux-like rotation), the paper's Latest-Quantum
//! policy, and its Quanta-Window policy. All stacks serve the **same**
//! seeded arrival schedule, so tails are directly comparable.
//!
//! Open cells flow through the shared job graph like every other run:
//! content-addressed by `OpenSpec::encode` in the cell key, deduped,
//! cached, and byte-identically replayable for any worker count. Cells
//! that differ only in their stack run as one group serve
//! (`open_group`) for as long as their stacks select alike.

use std::sync::{mpsc, Arc};

use busbw_core::estimator::{BandwidthEstimator, LatestQuantumEstimator, QuantaWindowEstimator};
use busbw_managerd::{serve, serve_group, ArrivalProcess, OpenConfig, OpenOutcome, ZeroEstimator};
use busbw_metrics::{ExperimentRow, FigureSummary};
use busbw_sim::TickDtHist;

use crate::jobgraph::{CellId, Executed, Plan, RunRequest};
use crate::pool::{fan_out, Spawner};
use crate::runner::{OpenStats, RunCompletion, RunResult, RunnerConfig, TraceMode, Turnarounds};
use crate::sibling::GroupRun;
use busbw_trace::wire::{Enc, Wire};

/// The estimator stack an open serve schedules with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenStack {
    /// Bandwidth-oblivious baseline: every job reads as bandwidth-free.
    Oblivious,
    /// The paper's Latest-Quantum estimator.
    Latest,
    /// The paper's Quanta-Window estimator (window 5).
    Window,
}

impl OpenStack {
    /// All stacks of the figure, baseline first.
    pub(crate) const ALL: [OpenStack; 3] =
        [OpenStack::Oblivious, OpenStack::Latest, OpenStack::Window];

    /// Column label.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            OpenStack::Oblivious => "Oblivious",
            OpenStack::Latest => "Latest",
            OpenStack::Window => "Window",
        }
    }

    /// Build the estimator this stack schedules with.
    pub(crate) fn build(&self) -> Box<dyn BandwidthEstimator> {
        match self {
            OpenStack::Oblivious => Box::new(ZeroEstimator),
            OpenStack::Latest => Box::new(LatestQuantumEstimator::new()),
            OpenStack::Window => Box::new(QuantaWindowEstimator::new()),
        }
    }

    fn tag(&self) -> u8 {
        match self {
            OpenStack::Oblivious => 0,
            OpenStack::Latest => 1,
            OpenStack::Window => 2,
        }
    }
}

/// One open managerd-serve cell: everything that shapes the serve other
/// than what [`RunnerConfig`] already carries (seed, scale).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenSpec {
    /// The arrival process at its configured mean rate.
    pub arrivals: ArrivalProcess,
    /// Unscaled serve horizon, µs ([`RunnerConfig::scale`] applies).
    pub duration_us: u64,
    /// The estimator stack.
    pub stack: OpenStack,
    /// Bounded accept queue: maximum simultaneously live clients.
    pub queue_capacity: usize,
}

impl OpenSpec {
    /// Canonical encoding for the run-cache cell key. Every field that
    /// can change the serve must land here (the schema-version salt and
    /// seed/scale/trace fields are appended by the caller).
    pub(crate) fn encode(&self, e: &mut Enc) {
        // Normalize first: processes that draw identical arrival streams
        // (e.g. Pareto shapes below the admissible floor) must encode to
        // the same key, or equal behavior would fragment the run cache.
        match self.arrivals.normalized() {
            ArrivalProcess::Poisson { rate_per_s } => {
                e.u8(0);
                rate_per_s.put(e);
            }
            ArrivalProcess::Pareto { rate_per_s, alpha } => {
                e.u8(1);
                rate_per_s.put(e);
                alpha.put(e);
            }
            ArrivalProcess::Diurnal {
                rate_per_s,
                period_us,
            } => {
                e.u8(2);
                rate_per_s.put(e);
                period_us.put(e);
            }
        }
        self.duration_us.put(e);
        e.u8(self.stack.tag());
        self.queue_capacity.put(e);
    }
}

/// Execute one open cell: serve the arrival process through the managerd
/// event loop and adapt the [`OpenOutcome`] into the harness's
/// [`RunResult`] so it caches, dedups, and folds like any other cell.
/// Deterministic in (spec, seed, scale).
pub fn open_run(spec: &OpenSpec, rc: &RunnerConfig) -> RunResult {
    open_result(serve(&serve_config(spec, rc), spec.stack.build()))
}

/// The managerd configuration `spec` serves under `rc` (every field but
/// the stack).
fn serve_config(spec: &OpenSpec, rc: &RunnerConfig) -> OpenConfig {
    OpenConfig {
        arrivals: spec.arrivals,
        duration_us: ((spec.duration_us as f64 * rc.scale) as u64).max(1),
        seed: rc.seed,
        queue_capacity: spec.queue_capacity,
        collect_events: rc.trace == TraceMode::Collect,
        ..OpenConfig::default()
    }
}

/// The [`RunResult`] of an open cell whose serve ended in `out`. Its
/// turnarounds stay in their histogram, so the result's size does not
/// depend on how many clients were served.
fn open_result(out: OpenOutcome) -> RunResult {
    let open = OpenStats {
        arrived: out.arrived,
        shed: out.shed,
        served: out.served,
        duration_us: out.duration_us,
        overhead_us: out.overhead_us,
        quanta: out.quanta,
        queue_peak: out.queue_peak,
        mean_slowdown: out.mean_slowdown(),
        turnarounds: Turnarounds(out.turnarounds),
    };
    RunResult {
        mean_turnaround_us: open.turnarounds.0.mean().unwrap_or(0.0),
        turnarounds_us: Vec::new(),
        workload_rate: 0.0,
        measured_apps_rate: 0.0,
        saturated_fraction: 0.0,
        ticks: 0,
        sim_elapsed_us: out.duration_us,
        completion: RunCompletion::Finished,
        events: out.events,
        tick_dt_hist: TickDtHist::default(),
        memo_hits: 0,
        memo_misses: 0,
        stage_timings: None,
        open: Some(open),
        oracle: None,
        n_levels: 0,
        level_utilization: [0.0; busbw_sim::MAX_BUS_LEVELS],
        level_saturated: [0.0; busbw_sim::MAX_BUS_LEVELS],
    }
}

/// Serve `spec` once for every stack in `stacks` as one group: each
/// result equals what [`open_run`] returns for `spec` with that stack,
/// bit for bit. `stacks[0]` drives one managerd serve while the others
/// select alike ([`serve_group`]); each class of stacks that leaves is
/// served again from t = 0 as a group of its own, queued as a stealable
/// subtask the moment it leaves. A class served again counts as a fork.
///
/// # Panics
/// Panics if `stacks` is empty.
pub(crate) fn open_group(spec: &OpenSpec, stacks: &[OpenStack], rc: &RunnerConfig) -> GroupRun {
    let ctx = Arc::new(GroupCtx {
        cfg: serve_config(spec, rc),
        stacks: stacks.to_vec(),
    });
    let (tx, rx) = mpsc::channel();
    fan_out(|s| serve_class(s, &ctx, &tx, (0..stacks.len()).collect()));
    drop(tx);
    let mut results: Vec<Option<RunResult>> = stacks.iter().map(|_| None).collect();
    let mut serves = 0;
    for stayed in rx {
        serves += 1;
        for (index, r) in stayed {
            results[index] = Some(r);
        }
    }
    GroupRun {
        results: results
            .into_iter()
            .map(|r| r.expect("every member stays in some serve"))
            .collect(),
        // Every serve but the first is a class served again.
        forks: serves - 1,
        shared_ticks: 0,
        serves,
    }
}

/// What every serve of one open group shares.
struct GroupCtx {
    cfg: OpenConfig,
    stacks: Vec<OpenStack>,
}

/// Serve `members` (indices into the group's stacks) as one group serve
/// and send the results of the members that stayed, by member index.
/// Every class that leaves is queued on `s` to be served again.
fn serve_class(
    s: &Spawner,
    ctx: &Arc<GroupCtx>,
    tx: &mpsc::Sender<Vec<(usize, RunResult)>>,
    members: Vec<usize>,
) {
    let estimators = members.iter().map(|&m| ctx.stacks[m].build()).collect();
    let group = serve_group(&ctx.cfg, estimators, |left| {
        let class = left.iter().map(|&i| members[i]).collect();
        let (ctx, tx) = (Arc::clone(ctx), tx.clone());
        s.spawn(move |s| serve_class(s, &ctx, &tx, class));
    });
    let result = open_result(group.outcome);
    let stayed = group
        .stayed
        .iter()
        .map(|&i| (members[i], result.clone()))
        .collect();
    let _ = tx.send(stayed);
}

/// Offered-load multipliers swept per stack.
pub(crate) const LOAD_MULTIPLIERS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];

/// Cell handles for the open figure: per stack, one cell per load
/// multiplier, in `OpenStack::ALL` × `LOAD_MULTIPLIERS` order.
#[derive(Debug)]
pub struct OpenCells {
    cells: Vec<(OpenStack, f64, CellId)>,
}

/// Declare the open figure's cells: each stack serves the same arrival
/// schedule at each offered-load multiple of `base`.
pub fn plan_open(
    plan: &mut Plan,
    rc: &RunnerConfig,
    base: ArrivalProcess,
    duration_us: u64,
    queue_capacity: usize,
) -> OpenCells {
    let mut cells = Vec::new();
    for stack in OpenStack::ALL {
        for mult in LOAD_MULTIPLIERS {
            let spec = OpenSpec {
                arrivals: base.with_rate(base.rate_per_s() * mult),
                duration_us,
                stack,
                queue_capacity,
            };
            cells.push((stack, mult, plan.cell(RunRequest::open(spec, rc))));
        }
    }
    OpenCells { cells }
}

/// Fold the open figure: one row per (stack × offered load) with tail
/// quantiles, shed rate, mean slowdown, and manager overhead.
pub fn fold_open(cells: &OpenCells, executed: &Executed) -> FigureSummary {
    let rows = cells
        .cells
        .iter()
        .map(|&(stack, mult, id)| {
            let open = executed
                .get(id)
                .open
                .as_ref()
                .expect("open cell carries open stats");
            let q_ms = |q: f64| open.turnarounds.0.quantile(q).unwrap_or(0.0) / 1000.0;
            ExperimentRow {
                app: format!("{} @{mult}x", stack.label()),
                values: vec![
                    ("p50_ms".into(), q_ms(0.50)),
                    ("p99_ms".into(), q_ms(0.99)),
                    ("p999_ms".into(), q_ms(0.999)),
                    ("shed_%".into(), 100.0 * open.shed_rate()),
                    ("slowdown".into(), open.mean_slowdown),
                    ("mgr_ovh_%".into(), open.overhead_pct()),
                ],
            }
        })
        .collect();
    FigureSummary {
        id: "open".into(),
        title: "Open-system manager serve — turnaround tails, shed rate, overhead vs offered load"
            .into(),
        rows,
    }
}

/// Default bounded-accept-queue depth of the open figure.
pub const DEFAULT_QUEUE_CAPACITY: usize = 8;

/// Mean arrival rate (clients/s) of the `poisson:small` / `pareto:small`
/// presets — light enough that the CI smoke run finishes in seconds.
pub const SMALL_RATE_PER_S: f64 = 20.0;

/// Unscaled horizon of the `--duration short` preset, µs (10 s; the
/// run's effective horizon is this × `--scale`).
pub const SHORT_DURATION_US: u64 = 10_000_000;

/// Parse an `--arrivals` spec: `poisson:<rate|small>`,
/// `pareto:<rate|small>[:alpha]`, `diurnal:<rate|small>[:period_s]`, or
/// `trace:diurnal` (alias for the default diurnal trace). A period is
/// taken in whole µs, rounded to the nearest, and bounded like a
/// `--duration`.
pub fn parse_arrivals(s: &str) -> Result<ArrivalProcess, String> {
    const DEFAULT_ALPHA: f64 = 1.5;
    const DEFAULT_PERIOD_US: u64 = 8_000_000;
    let mut parts = s.split(':');
    let family = parts.next().unwrap_or("");
    let rate = |p: Option<&str>| -> Result<f64, String> {
        match p {
            None | Some("small") => Ok(SMALL_RATE_PER_S),
            Some(v) => match v.parse::<f64>() {
                Ok(r) if r > 0.0 && r.is_finite() => Ok(r),
                _ => Err(format!("bad arrival rate `{v}` (clients/s, > 0)")),
            },
        }
    };
    let spec = match family {
        "poisson" => ArrivalProcess::Poisson {
            rate_per_s: rate(parts.next())?,
        },
        "pareto" => {
            let rate_per_s = rate(parts.next())?;
            let alpha = match parts.next() {
                None => DEFAULT_ALPHA,
                Some(v) => match v.parse::<f64>() {
                    Ok(a) if a > 1.0 && a.is_finite() => a,
                    _ => return Err(format!("bad pareto alpha `{v}` (must be > 1)")),
                },
            };
            ArrivalProcess::Pareto { rate_per_s, alpha }
        }
        "diurnal" => ArrivalProcess::Diurnal {
            rate_per_s: rate(parts.next())?,
            period_us: match parts.next() {
                None => DEFAULT_PERIOD_US,
                Some(v) => match v.parse::<f64>() {
                    Ok(p) if p <= MAX_DURATION_S && whole_us(p) > 0 => whole_us(p),
                    _ => {
                        return Err(format!(
                            "bad diurnal period `{v}` (seconds, at least 1 µs and at most \
                             {MAX_DURATION_S})"
                        ))
                    }
                },
            },
        },
        "trace" => match parts.next() {
            Some("diurnal") => ArrivalProcess::Diurnal {
                rate_per_s: SMALL_RATE_PER_S,
                period_us: DEFAULT_PERIOD_US,
            },
            other => {
                return Err(format!(
                    "unknown trace `{}` (only `trace:diurnal` is bundled)",
                    other.unwrap_or("")
                ))
            }
        },
        other => {
            return Err(format!(
                "unknown arrival family `{other}` (poisson|pareto|diurnal|trace:diurnal)"
            ))
        }
    };
    if let Some(extra) = parts.next() {
        return Err(format!("trailing arrival component `{extra}`"));
    }
    Ok(spec)
}

/// `s` seconds as whole µs, rounded to the nearest: a count of µs written
/// as seconds (`0.000003`) reads back as that count, where truncating the
/// product (2.9999999999999996) would lose one.
fn whole_us(s: f64) -> u64 {
    (s * 1e6).round() as u64
}

/// Longest `--duration` accepted, s (11.6 simulated days; the open
/// workload of the benchmark serves 12 000 s). Far beyond it the scaled
/// horizon overflows its µs counter.
pub(crate) const MAX_DURATION_S: f64 = 1e6;

/// Parse a `--duration` spec: seconds in [1 µs, `MAX_DURATION_S`], or the
/// `short` preset. Returns the unscaled horizon in whole µs, rounded to
/// the nearest.
pub fn parse_duration(s: &str) -> Result<u64, String> {
    if s == "short" {
        return Ok(SHORT_DURATION_US);
    }
    match s.parse::<f64>() {
        Ok(v) if v <= MAX_DURATION_S && whole_us(v) > 0 => Ok(whole_us(v)),
        _ => Err(format!(
            "bad duration `{s}` (seconds, at least 1 µs and at most {MAX_DURATION_S}, or `short`)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobgraph::run_figure;
    use crate::jobgraph::Engine;
    use proptest::prelude::*;

    fn quick_rc() -> RunnerConfig {
        RunnerConfig {
            scale: 0.1,
            ..RunnerConfig::default()
        }
    }

    fn quick_base() -> ArrivalProcess {
        ArrivalProcess::Poisson { rate_per_s: 30.0 }
    }

    #[test]
    fn open_run_reports_consistent_stats() {
        let rc = quick_rc();
        let spec = OpenSpec {
            arrivals: quick_base(),
            duration_us: 20_000_000,
            stack: OpenStack::Latest,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
        };
        let r = open_run(&spec, &rc);
        let open = r.open.expect("open stats present");
        assert!(open.arrived > 0);
        assert_eq!(open.served, open.turnarounds.0.count());
        assert!(r.turnarounds_us.is_empty());
        assert!(open.served + open.shed <= open.arrived);
        assert!(
            open.overhead_pct() < 4.5,
            "overhead {}",
            open.overhead_pct()
        );
        assert!(r.completion.is_finished());
        // Scale entered the horizon: 20 s × 0.1 = 2 s.
        assert_eq!(r.sim_elapsed_us, 2_000_000);
    }

    #[test]
    fn an_open_payload_does_not_grow_with_the_clients_served() {
        let rc = quick_rc();
        let [light, heavy] = [(5.0, 10_000_000), (120.0, 80_000_000)].map(|(rate, duration_us)| {
            let spec = OpenSpec {
                arrivals: ArrivalProcess::Poisson { rate_per_s: rate },
                duration_us,
                stack: OpenStack::Latest,
                queue_capacity: DEFAULT_QUEUE_CAPACITY,
            };
            let r = open_run(&spec, &rc);
            let served = r.open.as_ref().expect("open stats present").served;
            (served, crate::cache::encode_result(&r).len())
        });
        assert!(
            heavy.0 > 10 * light.0.max(1),
            "served {} vs {}",
            heavy.0,
            light.0
        );
        assert_eq!(light.1, heavy.1, "payload bytes");
    }

    #[test]
    fn open_cells_cache_and_dedup_like_any_other_cell() {
        let rc = quick_rc();
        let spec = OpenSpec {
            arrivals: quick_base(),
            duration_us: 10_000_000,
            stack: OpenStack::Window,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
        };
        let mut plan = Plan::new();
        let a = plan.cell(RunRequest::open(spec, &rc));
        let b = plan.cell(RunRequest::open(spec, &rc));
        assert_eq!(a, b, "identical open cells dedup");
        let c = plan.cell(RunRequest::open(
            OpenSpec {
                stack: OpenStack::Latest,
                ..spec
            },
            &rc,
        ));
        assert_ne!(a, c, "stack is part of the cell identity");
        let mut engine = Engine::ephemeral();
        let first = engine.execute(&plan, 1);
        let again = engine.execute(&plan, 1);
        assert!(std::sync::Arc::ptr_eq(&first.get_arc(a), &again.get_arc(a)));
    }

    #[test]
    fn subcritical_pareto_alpha_keys_like_the_floor_it_samples_as() {
        // The sampler clamps Pareto shapes to MIN_PARETO_ALPHA, so a raw
        // subcritical alpha and the clamped constructor draw identical
        // arrival streams. Their cell keys — and results — must agree,
        // while a genuinely different shape must key differently.
        let rc = quick_rc();
        let spec_of = |arrivals| OpenSpec {
            arrivals,
            duration_us: 10_000_000,
            stack: OpenStack::Latest,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
        };
        let raw = spec_of(ArrivalProcess::Pareto {
            rate_per_s: 30.0,
            alpha: 0.5,
        });
        let canon = spec_of(ArrivalProcess::pareto(30.0, 0.5));
        let mut plan = Plan::new();
        let a = plan.cell(RunRequest::open(raw, &rc));
        let b = plan.cell(RunRequest::open(canon, &rc));
        assert_eq!(a, b, "raw subcritical alpha keys like the clamped floor");
        let c = plan.cell(RunRequest::open(
            spec_of(ArrivalProcess::pareto(30.0, 1.5)),
            &rc,
        ));
        assert_ne!(a, c, "a supercritical shape is a different cell");
        assert_eq!(
            crate::cache::encode_result(&open_run(&raw, &rc)),
            crate::cache::encode_result(&open_run(&canon, &rc))
        );
    }

    #[test]
    fn every_open_tunable_lands_in_the_cell_key() {
        let rc = quick_rc();
        let base = OpenSpec {
            arrivals: quick_base(),
            duration_us: 10_000_000,
            stack: OpenStack::Latest,
            queue_capacity: 8,
        };
        let k = RunRequest::open(base, &rc).key();
        let variants = [
            OpenSpec {
                arrivals: ArrivalProcess::Poisson { rate_per_s: 31.0 },
                ..base
            },
            OpenSpec {
                arrivals: ArrivalProcess::Pareto {
                    rate_per_s: 30.0,
                    alpha: 1.5,
                },
                ..base
            },
            OpenSpec {
                arrivals: ArrivalProcess::Diurnal {
                    rate_per_s: 30.0,
                    period_us: 8_000_000,
                },
                ..base
            },
            OpenSpec {
                duration_us: 10_000_001,
                ..base
            },
            OpenSpec {
                stack: OpenStack::Oblivious,
                ..base
            },
            OpenSpec {
                queue_capacity: 9,
                ..base
            },
        ];
        for v in variants {
            assert_ne!(RunRequest::open(v, &rc).key(), k, "{v:?} collides");
        }
        assert_ne!(
            RunRequest::open(base, &RunnerConfig { seed: 43, ..rc }).key(),
            k,
            "seed must separate open cells"
        );
        assert_eq!(RunRequest::open(base, &rc).key(), k);
    }

    #[test]
    fn fold_reports_tails_shed_and_overhead_per_stack_and_load() {
        let rc = quick_rc();
        let fig = run_figure(
            &rc,
            |p| plan_open(p, &rc, quick_base(), 20_000_000, DEFAULT_QUEUE_CAPACITY),
            fold_open,
        );
        assert_eq!(
            fig.rows.len(),
            OpenStack::ALL.len() * LOAD_MULTIPLIERS.len()
        );
        for row in &fig.rows {
            let p50 = row.get("p50_ms").unwrap();
            let p99 = row.get("p99_ms").unwrap();
            let p999 = row.get("p999_ms").unwrap();
            assert!(p50 <= p99 && p99 <= p999, "{}: tails not monotone", row.app);
            let shed = row.get("shed_%").unwrap();
            assert!((0.0..=100.0).contains(&shed));
            let ovh = row.get("mgr_ovh_%").unwrap();
            assert!((0.0..4.5).contains(&ovh), "{}: overhead {ovh}", row.app);
        }
        // Overload must shed somewhere at 4× offered load.
        let worst = fig
            .rows
            .iter()
            .filter(|r| r.app.ends_with("@4x"))
            .map(|r| r.get("shed_%").unwrap())
            .fold(0.0f64, f64::max);
        assert!(worst > 0.0, "4x offered load must shed");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// The open serve is a real multi-client event loop, but its
        /// determinism contract is the same as every simulator cell:
        /// for any seed, Poisson/Pareto/trace arrivals must produce
        /// byte-identical results (codec bytes, stage timings stripped)
        /// whether the plan runs on 1, 2, or 8 engine workers, and a
        /// cache-warm replay must reproduce the cold bytes.
        #[test]
        fn open_cells_are_byte_identical_across_workers_and_warm_replay(
            seed in 0u64..512,
        ) {
            let rc = RunnerConfig {
                seed,
                scale: 0.05,
                ..RunnerConfig::default()
            };
            let families = [
                ("poisson", ArrivalProcess::Poisson { rate_per_s: 40.0 }),
                (
                    "pareto",
                    ArrivalProcess::Pareto {
                        rate_per_s: 40.0,
                        alpha: 1.5,
                    },
                ),
                ("trace:diurnal", parse_arrivals("trace:diurnal").unwrap()),
            ];
            let mut plan = Plan::new();
            let ids: Vec<_> = families
                .iter()
                .map(|&(_, arrivals)| {
                    plan.cell(RunRequest::open(
                        OpenSpec {
                            arrivals,
                            duration_us: 10_000_000,
                            stack: OpenStack::Latest,
                            queue_capacity: DEFAULT_QUEUE_CAPACITY,
                        },
                        &rc,
                    ))
                })
                .collect();

            let mut cold_engine = Engine::ephemeral();
            let cold = cold_engine.execute(&plan, 1);
            let baseline: Vec<Vec<u8>> = ids
                .iter()
                .map(|&id| crate::audit::canonical_bytes(cold.get(id)))
                .collect();

            let mut auditor = busbw_audit::Auditor::with_builtins();
            for workers in [2usize, 8] {
                let other = Engine::ephemeral().execute(&plan, workers);
                for (i, &(name, _)) in families.iter().enumerate() {
                    auditor.check_byte_identity_as(
                        "cache-consistency",
                        &format!("open {name} seed {seed}: 1 vs {workers} workers"),
                        &baseline[i],
                        &crate::audit::canonical_bytes(other.get(ids[i])),
                    );
                }
            }
            let warm = cold_engine.execute(&plan, 1);
            for (i, &(name, _)) in families.iter().enumerate() {
                auditor.check_byte_identity_as(
                    "cache-consistency",
                    &format!("open {name} seed {seed}: cold vs cache-warm replay"),
                    &baseline[i],
                    &crate::audit::canonical_bytes(warm.get(ids[i])),
                );
            }
            prop_assert!(auditor.is_clean(), "{:?}", auditor.violations());
        }
    }

    #[test]
    fn arrival_and_duration_specs_parse() {
        assert_eq!(
            parse_arrivals("poisson:small").unwrap(),
            ArrivalProcess::Poisson {
                rate_per_s: SMALL_RATE_PER_S
            }
        );
        assert_eq!(
            parse_arrivals("poisson:35").unwrap(),
            ArrivalProcess::Poisson { rate_per_s: 35.0 }
        );
        assert_eq!(
            parse_arrivals("pareto:30:1.8").unwrap(),
            ArrivalProcess::Pareto {
                rate_per_s: 30.0,
                alpha: 1.8
            }
        );
        assert_eq!(
            parse_arrivals("trace:diurnal").unwrap(),
            ArrivalProcess::Diurnal {
                rate_per_s: SMALL_RATE_PER_S,
                period_us: 8_000_000
            }
        );
        assert_eq!(
            parse_arrivals("diurnal:40:2").unwrap(),
            ArrivalProcess::Diurnal {
                rate_per_s: 40.0,
                period_us: 2_000_000
            }
        );
        for bad in [
            "poisson:-1",
            "pareto:30:0.5",
            "uniform:10",
            "trace:web",
            "poisson:30:extra",
        ] {
            assert!(parse_arrivals(bad).is_err(), "`{bad}` must not parse");
        }
        assert_eq!(parse_duration("short").unwrap(), SHORT_DURATION_US);
        assert_eq!(parse_duration("2.5").unwrap(), 2_500_000);
        assert_eq!(parse_duration("1e6").unwrap(), 1_000_000_000_000);
        for bad in [
            "0",
            "fast",
            "-1",
            "NaN",
            "inf",
            "1e300",
            "",
            "1e-7",
            "0.0000004",
        ] {
            assert!(parse_duration(bad).is_err(), "`{bad}` must not parse");
        }
        for bad in [
            "diurnal:20:1e-7",
            "diurnal:20:0",
            "diurnal:20:1e7",
            "diurnal:20:inf",
        ] {
            assert!(parse_arrivals(bad).is_err(), "`{bad}` must not parse");
        }
        // Whole µs, rounded: 0.000003 s is 2.9999999999999996 µs in `f64`.
        assert_eq!(parse_duration("0.000003"), Ok(3));
        assert_eq!(
            parse_arrivals("diurnal:20:0.000003"),
            Ok(ArrivalProcess::Diurnal {
                rate_per_s: 20.0,
                period_us: 3
            })
        );
    }

    /// `a` as the spec that names every parameter, its period in seconds.
    fn arrivals_spec(a: &ArrivalProcess) -> String {
        match *a {
            ArrivalProcess::Poisson { rate_per_s } => format!("poisson:{rate_per_s}"),
            ArrivalProcess::Pareto { rate_per_s, alpha } => format!("pareto:{rate_per_s}:{alpha}"),
            ArrivalProcess::Diurnal {
                rate_per_s,
                period_us,
            } => format!("diurnal:{rate_per_s}:{}", period_us as f64 / 1e6),
        }
    }

    /// Tokens of the two grammars, and near misses of them.
    const TOKENS: &[&str] = &[
        "poisson",
        "pareto",
        "diurnal",
        "trace",
        "small",
        "short",
        "uniform",
        "",
        "20",
        "0",
        "-1",
        "1.5",
        "1",
        "2.5",
        "0.3",
        "1e-7",
        "1e-6",
        "0.0000005",
        "0.000003",
        "1e6",
        "1000000.5",
        "1e300",
        "inf",
        "NaN",
        "-0",
        ".5",
        "3.",
        "x",
    ];

    /// A spec of one to four tokens picked by `choices`, joined by `:`.
    fn spec(choices: &[u8]) -> String {
        let n = 1 + choices.first().map_or(0, |&c| c as usize % 4);
        choices
            .iter()
            .skip(1)
            .take(n)
            .map(|&c| TOKENS[c as usize % TOKENS.len()])
            .collect::<Vec<_>>()
            .join(":")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Any `--arrivals` input is an error, or a process that its
        /// canonical spec parses back to.
        #[test]
        fn arrival_specs_fail_or_round_trip(
            bytes in prop::collection::vec(any::<u8>(), 0..24),
            choices in prop::collection::vec(any::<u8>(), 1..6),
        ) {
            for text in [String::from_utf8_lossy(&bytes).into_owned(), spec(&choices)] {
                if let Ok(a) = parse_arrivals(&text) {
                    let canonical = arrivals_spec(&a);
                    prop_assert_eq!(parse_arrivals(&canonical), Ok(a), "{:?} → {:?}", text, canonical);
                }
            }
        }

        /// Any `--duration` input is an error, or a horizon of at least
        /// 1 µs that its canonical spec (seconds) parses back to.
        #[test]
        fn duration_specs_fail_or_round_trip(
            bytes in prop::collection::vec(any::<u8>(), 0..24),
            choices in prop::collection::vec(any::<u8>(), 1..3),
        ) {
            let token = TOKENS[choices[0] as usize % TOKENS.len()];
            let shaped = match choices.get(1) {
                Some(&c) => format!("{token}{}", TOKENS[c as usize % TOKENS.len()]),
                None => token.to_string(),
            };
            for text in [String::from_utf8_lossy(&bytes).into_owned(), shaped] {
                if let Ok(us) = parse_duration(&text) {
                    prop_assert!(us > 0, "{:?} parsed to 0 µs", text);
                    let canonical = format!("{}", us as f64 / 1e6);
                    prop_assert_eq!(parse_duration(&canonical), Ok(us), "{:?} → {:?}", text, canonical);
                }
            }
        }
    }
}
