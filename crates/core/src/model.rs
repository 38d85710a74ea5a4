//! Model-driven scheduling — the paper's §6 future work, implemented.
//!
//! §6: *"we will derive analytic or empirical models of the effect of
//! sharing resources such as the bus … re-formulate the multiprocessor
//! scheduling problem as a multi-parametric optimization problem and
//! derive practical model-driven scheduling algorithms."*
//!
//! [`ModelDrivenScheduler`] does exactly that at quantum granularity:
//!
//! 1. **Measure** like the paper's policies (reconstructed per-thread
//!    bandwidth requirements, see `crate::reconstruct`).
//! 2. **Model**: for any candidate gang set, predict each thread's speed
//!    under the shared-bus dilation model
//!    `s_i = 1 / ((1 − µ̂_i) + µ̂_i·λ)` with λ solving
//!    `Σ d_i·s_i = C` at saturation. Memory-boundness µ̂ is not
//!    observable from counters, so an empirical curve maps demand to µ̂
//!    (fit to the paper's application population; see `mu_hat`).
//! 3. **Optimize**: enumerate feasible admission sets (exact up to
//!    `ModelDrivenScheduler::EXACT_ENUMERATION_LIMIT` jobs, greedy
//!    marginal-gain beyond) and pick the set maximizing predicted useful
//!    progress, weighted by a starvation-ageing factor so no job waits
//!    forever (replacing the head-of-list guarantee of the §4 policies).
//!
//! This is a *comparator*, not a reproduction artifact: it quantifies how
//! much headroom the paper's O(jobs²) heuristic leaves on the table.

use std::collections::BTreeMap;

use busbw_perfmon::EventKind;
use busbw_sim::{AppId, Decision, MachineView, Scheduler, SimTime};

use crate::reconstruct::DemandTracker;

/// Empirical demand → memory-boundness curve for the paper's application
/// population: light codes (< 1 tx/µs/thread) are nearly compute bound,
/// the saturating quartet (≈ 10–12 tx/µs/thread) is ~0.8 memory bound,
/// and a streaming microbenchmark (23.6) is ~1. Piecewise-linear, clamped.
pub(crate) fn mu_hat(demand_per_thread: f64) -> f64 {
    (0.05 + 0.075 * demand_per_thread).clamp(0.02, 0.98)
}

/// Predict the aggregate progress of one candidate set.
///
/// `jobs` are `(width, demand_per_thread, weight)`; returns the sum over
/// threads of `speed × weight` under the dilation model with capacity
/// `cap`.
pub(crate) fn predict_set_value(jobs: &[(usize, f64, f64)], cap: f64) -> f64 {
    let total_demand: f64 = jobs.iter().map(|&(w, d, _)| w as f64 * d).sum();
    // Solve Σ w·d/((1−µ)+µλ) = cap for λ ≥ 1 (bisection; monotone).
    let issued = |lambda: f64| -> f64 {
        jobs.iter()
            .map(|&(w, d, _)| {
                let mu = mu_hat(d);
                w as f64 * d / ((1.0 - mu) + mu * lambda)
            })
            .sum()
    };
    let lambda = if total_demand <= cap {
        1.0
    } else {
        let (mut lo, mut hi) = (1.0, 2.0);
        while issued(hi) > cap {
            hi *= 2.0;
            if hi > 1e9 {
                break;
            }
        }
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if issued(mid) > cap {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    };
    jobs.iter()
        .map(|&(w, d, weight)| {
            let mu = mu_hat(d);
            let speed = 1.0 / ((1.0 - mu) + mu * lambda);
            w as f64 * speed * weight
        })
        .sum()
}

/// The model-driven comparator scheduler.
pub struct ModelDrivenScheduler {
    quantum_us: u64,
    /// Starvation ageing: each quantum a job waits multiplies its weight
    /// by `(1 + aging)`.
    aging: f64,
    demand: DemandTracker,
    waited: BTreeMap<AppId, u32>,
    running: Vec<AppId>,
    snapshot: BTreeMap<AppId, f64>,
    last_boundary_us: SimTime,
    dilation_at_boundary: f64,
}

impl ModelDrivenScheduler {
    /// Beyond this many live jobs the optimizer switches from exact subset
    /// enumeration to greedy marginal gain.
    pub(crate) const EXACT_ENUMERATION_LIMIT: usize = 14;

    /// A model-driven scheduler with the paper's 200 ms quantum and a
    /// moderate ageing factor.
    pub fn new() -> Self {
        Self::with_params(200_000, 0.5)
    }

    /// Custom quantum and ageing factor.
    pub(crate) fn with_params(quantum_us: u64, aging: f64) -> Self {
        assert!(quantum_us > 0, "quantum must be positive");
        assert!(aging >= 0.0, "aging must be non-negative");
        Self {
            quantum_us,
            aging,
            demand: DemandTracker::new(),
            waited: BTreeMap::new(),
            running: Vec::new(),
            snapshot: BTreeMap::new(),
            last_boundary_us: 0,
            dilation_at_boundary: 0.0,
        }
    }

    fn app_tx(view: &MachineView<'_>, app: AppId) -> f64 {
        view.app(app)
            .map(|a| {
                a.threads
                    .iter()
                    .map(|t| view.registry.total(t.key(), EventKind::BusTransactions))
                    .sum()
            })
            .unwrap_or(0.0)
    }

    /// Pick the best feasible set among `jobs` = (app, width, demand,
    /// weight) given `cpus` processors and bus capacity `cap`.
    fn optimize(jobs: &[(AppId, usize, f64, f64)], cpus: usize, cap: f64) -> Vec<AppId> {
        if jobs.is_empty() {
            return Vec::new();
        }
        if jobs.len() <= Self::EXACT_ENUMERATION_LIMIT {
            // Exact enumeration over subsets that fit.
            let n = jobs.len();
            let mut best: (f64, Vec<AppId>) = (-1.0, Vec::new());
            for mask in 1u32..(1 << n) {
                let mut width = 0usize;
                for (i, j) in jobs.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        width += j.1;
                    }
                }
                if width > cpus {
                    continue;
                }
                let set: Vec<(usize, f64, f64)> = jobs
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, &(_, w, d, wt))| (w, d, wt))
                    .collect();
                let v = predict_set_value(&set, cap);
                if v > best.0 {
                    best = (
                        v,
                        jobs.iter()
                            .enumerate()
                            .filter(|(i, _)| mask & (1 << i) != 0)
                            .map(|(_, &(a, ..))| a)
                            .collect(),
                    );
                }
            }
            best.1
        } else {
            // Greedy marginal gain.
            let mut chosen: Vec<usize> = Vec::new();
            let mut free = cpus;
            loop {
                let mut best: Option<(f64, usize)> = None;
                for (i, &(_, w, _, _)) in jobs.iter().enumerate() {
                    if chosen.contains(&i) || w > free || w == 0 {
                        continue;
                    }
                    let mut set: Vec<(usize, f64, f64)> = chosen
                        .iter()
                        .map(|&j| (jobs[j].1, jobs[j].2, jobs[j].3))
                        .collect();
                    set.push((jobs[i].1, jobs[i].2, jobs[i].3));
                    let v = predict_set_value(&set, cap);
                    if best.is_none_or(|(bv, _)| v > bv) {
                        best = Some((v, i));
                    }
                }
                match best {
                    Some((_, i)) => {
                        free -= jobs[i].1;
                        chosen.push(i);
                    }
                    None => break,
                }
            }
            chosen.into_iter().map(|i| jobs[i].0).collect()
        }
    }
}

impl Default for ModelDrivenScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for ModelDrivenScheduler {
    fn schedule(&mut self, view: &MachineView<'_>) -> Decision {
        // Measure the ending quantum (same reconstruction as the paper's
        // policies).
        let dt = view.now.saturating_sub(self.last_boundary_us);
        if dt > 0 {
            let lambda =
                ((view.dilation_integral - self.dilation_at_boundary) / dt as f64).max(1.0);
            for &app in &self.running {
                let Some(info) = view.app(app) else { continue };
                let total = Self::app_tx(view, app);
                let before = self.snapshot.get(&app).copied().unwrap_or(0.0);
                let per_thread = (total - before).max(0.0) / dt as f64 / info.width().max(1) as f64;
                self.demand.observe(app, per_thread, lambda);
            }
        }

        // Live-job bookkeeping and ageing.
        let live = view.live_apps();
        self.waited.retain(|a, _| live.contains(a));
        for &a in &live {
            self.waited.entry(a).or_insert(0);
        }

        let jobs: Vec<(AppId, usize, f64, f64)> = live
            .iter()
            .filter_map(|&a| {
                view.app(a).map(|info| {
                    let weight = (1.0 + self.aging).powi(self.waited[&a] as i32);
                    (a, info.width(), self.demand.estimate(a), weight)
                })
            })
            .collect();

        let selected = Self::optimize(&jobs, view.num_cpus, view.bus_capacity);

        for &a in &live {
            if selected.contains(&a) {
                self.waited.insert(a, 0);
            } else {
                *self.waited.entry(a).or_insert(0) += 1;
            }
        }
        for &app in &selected {
            self.snapshot.insert(app, Self::app_tx(view, app));
        }
        self.running = selected.clone();
        self.last_boundary_us = view.now;
        self.dilation_at_boundary = view.dilation_integral;

        Decision {
            assignments: crate::pipeline::place_packed(view, &selected),
            next_resched_in_us: self.quantum_us,
            sample_period_us: None,
        }
    }

    fn name(&self) -> &str {
        "ModelDriven"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use busbw_sim::{AppDescriptor, ConstantDemand, Machine, StopCondition, ThreadSpec, XEON_4WAY};

    #[test]
    fn mu_hat_is_monotone_and_clamped() {
        assert!(mu_hat(0.0) >= 0.02);
        assert!(mu_hat(0.2) < mu_hat(5.0));
        assert!(mu_hat(5.0) < mu_hat(12.0));
        assert_eq!(mu_hat(100.0), 0.98);
    }

    #[test]
    fn predict_prefers_unsaturated_sets() {
        // Two heavy jobs together saturate; heavy + idle does not. The
        // model must value heavy+idle higher per... actually aggregate
        // progress: {heavy(2×11), idle(2×0.1)} vs {heavy, heavy}.
        let heavy_idle = predict_set_value(&[(2, 11.0, 1.0), (2, 0.1, 1.0)], 29.5);
        let heavy_heavy = predict_set_value(&[(2, 11.0, 1.0), (2, 11.0, 1.0)], 29.5);
        assert!(heavy_idle > heavy_heavy, "{heavy_idle} vs {heavy_heavy}");
    }

    #[test]
    fn predict_empty_set_is_zero() {
        assert_eq!(predict_set_value(&[], 29.5), 0.0);
    }

    #[test]
    fn optimizer_fills_processors_when_free() {
        let jobs = vec![
            (AppId(0), 2, 1.0, 1.0),
            (AppId(1), 2, 1.0, 1.0),
            (AppId(2), 2, 1.0, 1.0),
        ];
        let sel = ModelDrivenScheduler::optimize(&jobs, 4, 29.5);
        let width: usize = sel
            .iter()
            .map(|a| jobs.iter().find(|j| j.0 == *a).unwrap().1)
            .sum();
        assert_eq!(width, 4, "selected {sel:?}");
    }

    #[test]
    fn aging_prevents_starvation() {
        let mut m = Machine::new(XEON_4WAY);
        // Four 2-wide jobs: only two fit per quantum; everyone must run
        // within a handful of quanta thanks to ageing.
        let ids: Vec<AppId> = (0..4)
            .map(|i| {
                let threads = (0..2)
                    .map(|_| {
                        ThreadSpec::new(f64::INFINITY, Box::new(ConstantDemand::new(8.0, 0.7)))
                    })
                    .collect();
                m.add_app(AppDescriptor::new(format!("j{i}"), threads))
            })
            .collect();
        let mut s = ModelDrivenScheduler::new();
        let mut ran: std::collections::BTreeSet<AppId> = Default::default();
        for _ in 0..8 {
            let d = s.schedule(&m.view());
            for a in &d.assignments {
                ran.insert(m.view().thread(a.thread).unwrap().app);
            }
            let _ = m.run(
                &mut busbw_sim::testkit::Replay::new(d),
                StopCondition::At(m.now() + 200_000),
            );
        }
        for id in ids {
            assert!(ran.contains(&id), "{id} starved");
        }
    }

    #[test]
    fn greedy_path_used_above_enumeration_limit() {
        let jobs: Vec<(AppId, usize, f64, f64)> = (0..20)
            .map(|i| (AppId(i), 1, (i as f64) % 13.0, 1.0))
            .collect();
        let sel = ModelDrivenScheduler::optimize(&jobs, 4, 29.5);
        assert_eq!(sel.len(), 4);
        // Deterministic.
        assert_eq!(sel, ModelDrivenScheduler::optimize(&jobs, 4, 29.5));
    }

    #[test]
    fn end_to_end_beats_or_matches_greedy_packing() {
        // Sanity: on a heavy+light mix the model-driven scheduler should
        // finish apps at least as fast as deliberately saturating packing.
        use crate::oracle::greedy_pack;
        let build = || {
            let mut m = Machine::new(XEON_4WAY);
            let mut measured = Vec::new();
            for i in 0..2 {
                let threads = (0..2)
                    .map(|_| ThreadSpec::new(400_000.0, Box::new(ConstantDemand::new(11.0, 0.85))))
                    .collect();
                measured.push(m.add_app(AppDescriptor::new(format!("h{i}"), threads)));
            }
            for i in 0..2 {
                let threads = vec![ThreadSpec::new(
                    f64::INFINITY,
                    Box::new(ConstantDemand::new(23.6, 0.98)),
                )];
                m.add_app(AppDescriptor::new(format!("b{i}"), threads));
            }
            (m, measured)
        };
        let (mut m1, meas1) = build();
        let mut md = ModelDrivenScheduler::new();
        let o1 = m1.run(&mut md, StopCondition::AppsFinished(meas1.clone()));
        assert!(o1.condition_met);
        let t_md: u64 = meas1.iter().map(|&a| m1.turnaround_us(a).unwrap()).sum();

        let (mut m2, meas2) = build();
        let mut gp = greedy_pack();
        let o2 = m2.run(&mut gp, StopCondition::AppsFinished(meas2.clone()));
        assert!(o2.condition_met);
        let t_gp: u64 = meas2.iter().map(|&a| m2.turnaround_us(a).unwrap()).sum();

        assert!(
            t_md <= t_gp + t_gp / 10,
            "model-driven {t_md} vs greedy-pack {t_gp}"
        );
    }
}
