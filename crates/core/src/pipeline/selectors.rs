//! Selector stages: how the processors left after admission are filled.
//!
//! The Linux baselines' selectors (pinned thread→cpu schedules) live next
//! to their configs in [`crate::linux`] and [`crate::linux26`]; this
//! module holds the gang selectors.

use busbw_sim::AppId;
use busbw_trace::TraceEvent;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{Selection, Selector, StageCtx};
use crate::model::predict_set_value;
use crate::selection::{fitness_fill, Candidate};

/// The paper's Eq. (1)/(2) fill (§4): repeatedly admit the fitting job
/// whose `BBW/thread` is closest to the available bus bandwidth per
/// unallocated processor, recomputing `ABBW/proc` after every admission.
/// Emits a `GangSelected` trace event per admission.
#[derive(Debug, Default, Clone, Copy)]
pub struct FitnessSelector;

impl Selector for FitnessSelector {
    fn label(&self) -> &'static str {
        "fitness"
    }

    fn select(
        &mut self,
        ctx: &StageCtx<'_, '_>,
        cands: &[Candidate<AppId>],
        admitted: &[usize],
        free: usize,
    ) -> Selection {
        let mut free = free;
        let mut allocated_bbw = 0.0f64;
        for &i in admitted {
            allocated_bbw += cands[i].bbw_per_thread * cands[i].width as f64;
        }
        let mut all = admitted.to_vec();
        let mut report = Vec::new();
        fitness_fill(
            cands,
            ctx.view.bus_capacity,
            &mut free,
            &mut allocated_bbw,
            &mut all,
            &mut report,
        );
        if ctx.tracer.emits() {
            for adm in &report {
                ctx.tracer.emit(TraceEvent::GangSelected {
                    at_us: ctx.view.now,
                    app: adm.key.0,
                    width: adm.width,
                    fitness: adm.fitness.unwrap_or(0.0),
                    available_per_proc: adm.available_per_proc.unwrap_or(0.0),
                });
            }
        }
        Selection::Gangs(all.split_off(admitted.len()))
    }
}

/// Uniformly random fill over the fitting jobs (seeded, deterministic) —
/// the comparator that isolates what the fitness heuristic adds beyond
/// gang scheduling itself.
pub struct RandomSelector {
    rng: StdRng,
}

impl RandomSelector {
    /// Seeded random selector.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Selector for RandomSelector {
    fn label(&self) -> &'static str {
        "random"
    }

    fn select(
        &mut self,
        _ctx: &StageCtx<'_, '_>,
        cands: &[Candidate<AppId>],
        admitted: &[usize],
        free: usize,
    ) -> Selection {
        let mut free = free;
        let mut all = admitted.to_vec();
        let mut extra = Vec::new();
        loop {
            let fitting: Vec<usize> = (0..cands.len())
                .filter(|i| !all.contains(i) && cands[*i].width <= free)
                .collect();
            if fitting.is_empty() {
                break;
            }
            let pick = fitting[self.rng.gen_range(0..fitting.len())];
            all.push(pick);
            extra.push(pick);
            free -= cands[pick].width;
        }
        Selection::Gangs(extra)
    }
}

/// Greedily admit the highest-measured-bandwidth fitting job — the
/// "maximize utilization" strawman that saturates the bus. Ties keep the
/// candidate furthest from the list head (`max_by` keeps the last
/// maximum), matching the monolithic comparator it replaced.
#[derive(Debug, Default, Clone, Copy)]
pub struct GreedySelector;

impl Selector for GreedySelector {
    fn label(&self) -> &'static str {
        "greedy"
    }

    fn select(
        &mut self,
        _ctx: &StageCtx<'_, '_>,
        cands: &[Candidate<AppId>],
        admitted: &[usize],
        free: usize,
    ) -> Selection {
        let mut free = free;
        let mut all = admitted.to_vec();
        let mut extra = Vec::new();
        loop {
            let best = (0..cands.len())
                .filter(|i| !all.contains(i) && cands[*i].width <= free)
                .max_by(|&a, &b| cands[a].bbw_per_thread.total_cmp(&cands[b].bbw_per_thread));
            match best {
                Some(i) => {
                    all.push(i);
                    extra.push(i);
                    free -= cands[i].width;
                }
                None => break,
            }
        }
        Selection::Gangs(extra)
    }
}

/// Model-driven lookahead: admit the job with the best predicted marginal
/// aggregate progress under the dilation model
/// (`crate::model::predict_set_value`), stopping when every remaining
/// addition would slow the set down. Unlike [`FitnessSelector`] this can
/// leave processors idle on purpose.
#[derive(Debug, Default, Clone, Copy)]
pub struct LookaheadSelector;

impl Selector for LookaheadSelector {
    fn label(&self) -> &'static str {
        "lookahead"
    }

    fn select(
        &mut self,
        ctx: &StageCtx<'_, '_>,
        cands: &[Candidate<AppId>],
        admitted: &[usize],
        free: usize,
    ) -> Selection {
        let cap = ctx.view.bus_capacity;
        let jobs_of = |set: &[usize]| -> Vec<(usize, f64, f64)> {
            set.iter()
                .map(|&i| (cands[i].width, cands[i].bbw_per_thread, 1.0))
                .collect()
        };
        let mut free = free;
        let mut all = admitted.to_vec();
        let mut extra = Vec::new();
        loop {
            let base = predict_set_value(&jobs_of(&all), cap);
            let mut best: Option<(f64, usize)> = None;
            for (i, c) in cands.iter().enumerate() {
                if all.contains(&i) || c.width == 0 || c.width > free {
                    continue;
                }
                let mut trial = all.clone();
                trial.push(i);
                let gain = predict_set_value(&jobs_of(&trial), cap) - base;
                if best.is_none_or(|(bg, _)| gain > bg) {
                    best = Some((gain, i));
                }
            }
            match best {
                Some((gain, i)) if gain > 0.0 => {
                    all.push(i);
                    extra.push(i);
                    free -= cands[i].width;
                }
                _ => break,
            }
        }
        Selection::Gangs(extra)
    }
}

/// Select nothing beyond what admission granted.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSelector;

impl Selector for NullSelector {
    fn label(&self) -> &'static str {
        "none"
    }

    fn select(
        &mut self,
        _ctx: &StageCtx<'_, '_>,
        _cands: &[Candidate<AppId>],
        _admitted: &[usize],
        _free: usize,
    ) -> Selection {
        Selection::Gangs(Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use busbw_sim::{Machine, XEON_4WAY};
    use busbw_trace::EventBus;

    fn cands(specs: &[(usize, f64)]) -> Vec<Candidate<AppId>> {
        specs
            .iter()
            .enumerate()
            .map(|(i, &(w, b))| Candidate {
                key: AppId(i as u64),
                width: w,
                bbw_per_thread: b,
            })
            .collect()
    }

    fn gangs(
        s: &mut dyn Selector,
        specs: &[(usize, f64)],
        admitted: &[usize],
        free: usize,
    ) -> Vec<usize> {
        let m = Machine::new(XEON_4WAY);
        let view = m.view();
        let bus = EventBus::off();
        let ctx = StageCtx {
            view: &view,
            tracer: &bus,
        };
        match s.select(&ctx, &cands(specs), admitted, free) {
            Selection::Gangs(v) => v,
            Selection::Pinned(_) => panic!("gang selector returned pinned"),
        }
    }

    #[test]
    fn fitness_selector_pairs_heavy_head_with_lightest_partner() {
        // Head (idx 0, 11 tx/µs/thread) already admitted; ABBW/proc ≈ 3.75
        // → the idle job beats the 10.0 job.
        let extra = gangs(
            &mut FitnessSelector,
            &[(2, 11.0), (2, 10.0), (2, 0.0)],
            &[0],
            2,
        );
        assert_eq!(extra, vec![2]);
    }

    #[test]
    fn greedy_selector_prefers_heaviest_and_keeps_last_on_ties() {
        let extra = gangs(&mut GreedySelector, &[(2, 3.0), (1, 8.0), (1, 8.0)], &[], 4);
        // Tie between idx 1 and 2 at 8.0: max_by keeps the last (2).
        assert_eq!(extra[0], 2);
        assert_eq!(extra.len(), 3, "everything fits eventually");
    }

    #[test]
    fn random_selector_is_deterministic_per_seed() {
        let specs = [(1, 1.0), (1, 1.0), (1, 1.0), (1, 1.0)];
        let a = gangs(&mut RandomSelector::new(9), &specs, &[], 3);
        let b = gangs(&mut RandomSelector::new(9), &specs, &[], 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn lookahead_declines_additions_that_slow_the_set() {
        // One saturating job admitted (2×14 = 28 of 29.5 tx/µs); adding
        // the second saturating job dilates everyone. The idle job still
        // helps.
        let extra = gangs(
            &mut LookaheadSelector,
            &[(2, 14.0), (2, 14.0), (2, 0.01)],
            &[0],
            2,
        );
        assert_eq!(extra, vec![2], "lookahead must skip the saturating pair");
    }

    #[test]
    fn null_selector_selects_nothing() {
        assert!(gangs(&mut NullSelector, &[(1, 1.0)], &[], 4).is_empty());
    }
}
