//! The §4 job-selection algorithm, independent of any execution substrate.
//!
//! Both the simulator-driven [`crate::bus_aware`] stacks and the
//! real-thread [`crate::manager::CpuManager`] select jobs the same way;
//! this module is that shared core, so the algorithm is tested once and
//! reused everywhere.

use crate::fitness::{available_bbw_per_proc, fitness};

/// One schedulable job as seen by the selection algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate<K> {
    /// Caller's job key.
    pub key: K,
    /// Gang width: processors needed (all or nothing).
    pub width: usize,
    /// Current `BBW/thread` estimate, tx/µs.
    pub bbw_per_thread: f64,
}

/// Select jobs for one quantum.
///
/// `candidates` must be in applications-list order (head first — the job
/// with the starvation-freedom guarantee). Returns the admitted keys in
/// admission order. Exactly the paper's loop:
///
/// 1. admit the head (first candidate that fits at all);
/// 2. while processors remain, recompute `ABBW/proc` and admit the fitting
///    candidate with the highest fitness; stop when nothing fits.
///
/// ```
/// use busbw_core::{select_gangs, Candidate};
/// // A saturating head job is paired with the idle job, not the other
/// // saturating one (4 cpus, 29.5 tx/µs bus).
/// let jobs = [
///     Candidate { key: "cg-1", width: 2, bbw_per_thread: 11.65 },
///     Candidate { key: "cg-2", width: 2, bbw_per_thread: 11.65 },
///     Candidate { key: "idle", width: 2, bbw_per_thread: 0.002 },
/// ];
/// assert_eq!(select_gangs(&jobs, 4, 29.5), vec!["cg-1", "idle"]);
/// ```
pub fn select_gangs<K: Copy + PartialEq>(
    candidates: &[Candidate<K>],
    num_cpus: usize,
    bus_total: f64,
) -> Vec<K> {
    let mut selected = Vec::new();
    SelectBuffers::default().select_into(candidates, num_cpus, bus_total, &mut selected);
    selected
}

/// The working storage of one selection. A caller that selects every
/// quantum keeps one and selects through [`SelectBuffers::select_into`],
/// which then allocates nothing once the buffers have grown to the
/// candidate count.
#[derive(Debug, Clone)]
pub struct SelectBuffers<K> {
    /// Indices into the candidates, in admission order.
    admitted: Vec<usize>,
    /// The admissions of the last selection, in admission order, each
    /// with the decision inputs a per-decision trace needs to explain
    /// *why* a quantum's selection flipped.
    report: Vec<Admission<K>>,
}

impl<K> Default for SelectBuffers<K> {
    fn default() -> Self {
        Self {
            admitted: Vec::new(),
            report: Vec::new(),
        }
    }
}

impl<K: Copy + PartialEq> SelectBuffers<K> {
    /// [`select_gangs`], writing the admitted keys over `selected`.
    /// The admissions, with the fitness score and `ABBW/proc` that
    /// justified each one, stay in the buffers until the next selection.
    pub fn select_into(
        &mut self,
        candidates: &[Candidate<K>],
        num_cpus: usize,
        bus_total: f64,
        selected: &mut Vec<K>,
    ) {
        let mut free = num_cpus;
        let mut allocated_bbw = 0.0f64;
        self.admitted.clear();
        self.report.clear();

        // Head-of-list guarantee: first job that can ever fit.
        if let Some(i) = head_position(candidates, free) {
            free -= candidates[i].width;
            allocated_bbw += candidates[i].bbw_per_thread * candidates[i].width as f64;
            self.admitted.push(i);
            self.report.push(Admission {
                key: candidates[i].key,
                width: candidates[i].width,
                bbw_per_thread: candidates[i].bbw_per_thread,
                available_per_proc: None,
                fitness: None,
            });
        }

        fitness_fill(
            candidates,
            bus_total,
            &mut free,
            &mut allocated_bbw,
            &mut self.admitted,
            &mut self.report,
        );

        selected.clear();
        selected.extend(self.report.iter().map(|a| a.key));
    }
}

/// One admission of a selection ([`SelectBuffers`]), carrying the
/// decision inputs that produced it (trace/observability data).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Admission<K> {
    /// The admitted job's key.
    pub(crate) key: K,
    /// Its gang width.
    pub(crate) width: usize,
    /// Its `BBW/thread` estimate at decision time, tx/µs.
    pub(crate) bbw_per_thread: f64,
    /// `ABBW/proc` when the admission was decided, tx/µs. `None` for the
    /// head-of-list admission, which bypasses the fitness loop.
    pub(crate) available_per_proc: Option<f64>,
    /// The winning fitness score. `None` for the head admission.
    pub(crate) fitness: Option<f64>,
}

/// The head-of-list admission rule: index of the first candidate that can
/// fit at all (the job carrying the starvation-freedom guarantee).
pub(crate) fn head_position<K>(candidates: &[Candidate<K>], free: usize) -> Option<usize> {
    candidates
        .iter()
        .position(|c| c.width <= free && c.width > 0)
}

/// The paper's fitness loop: while processors remain, recompute
/// `ABBW/proc` over the unallocated processors and admit the fitting
/// candidate with the highest fitness; stop when nothing fits. Appends
/// admitted indices to `admitted` and scored [`Admission`]s to `report`,
/// updating `free` and `allocated_bbw` in place so callers can seed the
/// loop with prior admissions.
pub(crate) fn fitness_fill<K: Copy + PartialEq>(
    candidates: &[Candidate<K>],
    bus_total: f64,
    free: &mut usize,
    allocated_bbw: &mut f64,
    admitted: &mut Vec<usize>,
    report: &mut Vec<Admission<K>>,
) {
    while *free > 0 {
        let abbw = available_bbw_per_proc(bus_total, *allocated_bbw, *free);
        let mut best: Option<(f64, usize)> = None;
        for (i, c) in candidates.iter().enumerate() {
            if admitted.contains(&i) || c.width == 0 || c.width > *free {
                continue;
            }
            let f = fitness(abbw, c.bbw_per_thread);
            // Strict > keeps the candidate closest to the head on ties,
            // matching a single in-order traversal of the circular list.
            if best.is_none_or(|(bf, _)| f > bf) {
                best = Some((f, i));
            }
        }
        match best {
            Some((f, i)) => {
                *free -= candidates[i].width;
                *allocated_bbw += candidates[i].bbw_per_thread * candidates[i].width as f64;
                admitted.push(i);
                report.push(Admission {
                    key: candidates[i].key,
                    width: candidates[i].width,
                    bbw_per_thread: candidates[i].bbw_per_thread,
                    available_per_proc: Some(abbw),
                    fitness: Some(f),
                });
            }
            None => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(key: u32, width: usize, bbw: f64) -> Candidate<u32> {
        Candidate {
            key,
            width,
            bbw_per_thread: bbw,
        }
    }

    #[test]
    fn head_is_always_admitted_first() {
        // Head is the worst fit bandwidth-wise but still goes first.
        let picked = select_gangs(
            &[cand(0, 2, 50.0), cand(1, 2, 7.0), cand(2, 2, 7.0)],
            4,
            29.5,
        );
        assert_eq!(picked[0], 0);
        assert_eq!(picked.len(), 2);
    }

    #[test]
    fn pairs_heavy_head_with_lightest_partner() {
        // Head consumes most of the bus; ABBW/proc ≈ (29.5−22)/2 ≈ 3.75;
        // the 0.0 job (|3.75|) beats the 10.0 job (|6.25|).
        let picked = select_gangs(
            &[cand(0, 2, 11.0), cand(1, 2, 10.0), cand(2, 2, 0.0)],
            4,
            29.5,
        );
        assert_eq!(picked, vec![0, 2]);
    }

    #[test]
    fn pairs_light_head_with_heaviest_partner() {
        // Reverse scenario from the paper: low-bandwidth head leaves
        // ABBW/proc ≈ 14.7/proc; the high-bandwidth job is fittest.
        let picked = select_gangs(
            &[cand(0, 2, 0.1), cand(1, 2, 1.0), cand(2, 2, 12.0)],
            4,
            29.5,
        );
        assert_eq!(picked, vec![0, 2]);
    }

    #[test]
    fn negative_abbw_selects_lowest_bandwidth() {
        // Head alone overcommits the bus: ABBW/proc < 0, so the lightest
        // candidate wins the remaining processors (paper §4).
        let picked = select_gangs(
            &[cand(0, 2, 20.0), cand(1, 2, 5.0), cand(2, 2, 0.2)],
            4,
            29.5,
        );
        assert_eq!(picked, vec![0, 2]);
    }

    #[test]
    fn gang_that_does_not_fit_is_skipped() {
        let picked = select_gangs(
            &[cand(0, 2, 1.0), cand(1, 3, 1.0), cand(2, 2, 1.0)],
            4,
            29.5,
        );
        assert_eq!(picked, vec![0, 2], "3-wide job cannot fit next to 2-wide");
    }

    #[test]
    fn oversized_head_does_not_deadlock_the_list() {
        let picked = select_gangs(&[cand(0, 8, 1.0), cand(1, 4, 1.0)], 4, 29.5);
        assert_eq!(picked, vec![1]);
    }

    #[test]
    fn empty_and_zero_width_inputs() {
        assert!(select_gangs::<u32>(&[], 4, 29.5).is_empty());
        assert!(select_gangs(&[cand(0, 0, 1.0)], 4, 29.5).is_empty());
    }

    #[test]
    fn report_matches_plain_selection_and_scores_non_head_admissions() {
        let cands = [cand(0, 2, 11.0), cand(1, 2, 10.0), cand(2, 2, 0.0)];
        let mut buffers = SelectBuffers::default();
        let mut keys = Vec::new();
        buffers.select_into(&cands, 4, 29.5, &mut keys);
        assert_eq!(keys, select_gangs(&cands, 4, 29.5));
        let report = &buffers.report;
        // Head admission has no fitness; fitness-loop admissions do.
        assert_eq!(report[0].fitness, None);
        assert_eq!(report[0].available_per_proc, None);
        let second = &report[1];
        assert!(second.fitness.is_some() && second.available_per_proc.is_some());
        // The recorded ABBW/proc is the value the fitness used:
        // (29.5 − 22.0) / 2 = 3.75.
        assert!((second.available_per_proc.unwrap() - 3.75).abs() < 1e-9);
    }

    #[test]
    fn fills_all_processors_when_enough_jobs_fit() {
        let picked = select_gangs(
            &[
                cand(0, 1, 1.0),
                cand(1, 1, 1.0),
                cand(2, 1, 1.0),
                cand(3, 1, 1.0),
                cand(4, 1, 1.0),
            ],
            4,
            29.5,
        );
        assert_eq!(picked.len(), 4);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_cands() -> impl Strategy<Value = Vec<Candidate<u32>>> {
            prop::collection::vec((1usize..5, 0.0f64..30.0), 0..10).prop_map(|v| {
                v.into_iter()
                    .enumerate()
                    .map(|(i, (w, b))| Candidate {
                        key: i as u32,
                        width: w,
                        bbw_per_thread: b,
                    })
                    .collect()
            })
        }

        proptest! {
            /// Admitted widths never exceed the processor count, no job is
            /// admitted twice, and admission is maximal (nothing that fits
            /// is left out while processors are free).
            #[test]
            fn admission_invariants(cands in arb_cands(), cpus in 1usize..8) {
                let picked = select_gangs(&cands, cpus, 29.5);
                let width_of = |k: u32| cands.iter().find(|c| c.key == k).unwrap().width;
                let used: usize = picked.iter().map(|&k| width_of(k)).sum();
                prop_assert!(used <= cpus);
                let mut uniq = picked.clone();
                uniq.dedup();
                uniq.sort();
                uniq.dedup();
                prop_assert_eq!(uniq.len(), picked.len());
                // Maximality.
                let free = cpus - used;
                for c in &cands {
                    if !picked.contains(&c.key) && c.width > 0 {
                        prop_assert!(c.width > free, "job {} fits but was not admitted", c.key);
                    }
                }
            }

            /// The head-of-list job (first that can fit) is always admitted.
            #[test]
            fn head_guarantee(cands in arb_cands(), cpus in 1usize..8) {
                let picked = select_gangs(&cands, cpus, 29.5);
                if let Some(head) = cands.iter().find(|c| c.width > 0 && c.width <= cpus) {
                    prop_assert_eq!(picked.first().copied(), Some(head.key));
                }
            }
        }
    }
}
