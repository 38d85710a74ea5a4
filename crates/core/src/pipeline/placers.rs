//! Placer stages: mapping admitted gangs onto processors.

use busbw_sim::{AppId, Assignment, CpuId, MachineView};

use super::{Placer, StageCtx};

/// Affinity-preserving placement of whole gangs: each thread takes its
/// previous cpu if free, then its warmest cache, then the lowest free
/// cpu. This is the placement every paper policy and comparator used
/// before the pipeline split (it "packs" threads toward low cpu indices).
pub(crate) fn place_packed(view: &MachineView<'_>, admitted: &[AppId]) -> Vec<Assignment> {
    let mut free: Vec<bool> = vec![true; view.num_cpus];
    let mut assignments = Vec::new();
    let mut pending = Vec::new();

    // Pass 1: honor last-cpu affinity.
    for &app in admitted {
        let Some(info) = view.app(app) else { continue };
        for &tid in info.threads {
            let Some(t) = view.thread(tid) else { continue };
            if !t.is_runnable() {
                continue;
            }
            match t.last_cpu {
                Some(c) if free[c.0] => {
                    free[c.0] = false;
                    assignments.push(Assignment {
                        thread: tid,
                        cpu: c,
                    });
                }
                _ => pending.push(tid),
            }
        }
    }
    // Pass 2: warmest cache, then lowest free cpu.
    for tid in pending {
        let warm = view.warmest_cpu(tid).map(|(c, _)| c).filter(|c| free[c.0]);
        let cpu = warm.or_else(|| free.iter().position(|&f| f).map(CpuId));
        if let Some(c) = cpu {
            free[c.0] = false;
            assignments.push(Assignment {
                thread: tid,
                cpu: c,
            });
        }
    }
    assignments
}

/// Collect the runnable threads of `admitted`, split into those whose
/// last cpu is free (affinity hits, assigned immediately) and the rest.
fn affinity_pass(
    view: &MachineView<'_>,
    admitted: &[AppId],
    free: &mut [bool],
    assignments: &mut Vec<Assignment>,
) -> Vec<busbw_sim::ThreadId> {
    let mut pending = Vec::new();
    for &app in admitted {
        let Some(info) = view.app(app) else { continue };
        for &tid in info.threads {
            let Some(t) = view.thread(tid) else { continue };
            if !t.is_runnable() {
                continue;
            }
            match t.last_cpu {
                Some(c) if free[c.0] => {
                    free[c.0] = false;
                    assignments.push(Assignment {
                        thread: tid,
                        cpu: c,
                    });
                }
                _ => pending.push(tid),
            }
        }
    }
    pending
}

/// `place_packed` as a stage — the default placer of every preset.
#[derive(Debug, Default, Clone, Copy)]
pub struct PackedPlacer;

impl Placer for PackedPlacer {
    fn label(&self) -> &'static str {
        "packed"
    }

    fn place(&mut self, ctx: &StageCtx<'_, '_>, admitted: &[AppId]) -> Vec<Assignment> {
        place_packed(ctx.view, admitted)
    }
}

/// Spread threads across physical cores: after the affinity pass, each
/// remaining thread goes to a free cpu on the core with the fewest busy
/// hardware threads (lowest cpu index breaks ties). On a non-SMT machine
/// every core has one cpu and this degenerates to lowest-free-cpu
/// placement without the warmest-cache step.
#[derive(Debug, Default, Clone, Copy)]
pub struct ScatterPlacer;

impl Placer for ScatterPlacer {
    fn label(&self) -> &'static str {
        "scatter"
    }

    fn place(&mut self, ctx: &StageCtx<'_, '_>, admitted: &[AppId]) -> Vec<Assignment> {
        let view = ctx.view;
        let mut free: Vec<bool> = vec![true; view.num_cpus];
        let mut assignments = Vec::new();
        let pending = affinity_pass(view, admitted, &mut free, &mut assignments);
        for tid in pending {
            let busy_on_core = |cpu: usize| -> usize {
                (0..view.num_cpus)
                    .filter(|&o| view.core_of(CpuId(o)) == view.core_of(CpuId(cpu)) && !free[o])
                    .count()
            };
            let cpu = (0..view.num_cpus)
                .filter(|&c| free[c])
                .min_by_key(|&c| (busy_on_core(c), c));
            if let Some(c) = cpu {
                free[c] = false;
                assignments.push(Assignment {
                    thread: tid,
                    cpu: CpuId(c),
                });
            }
        }
        assignments
    }
}

/// SMT-aware placement: after the affinity pass, prefer a free cpu on a
/// fully idle core (no busy siblings), then the warmest cache, then the
/// lowest free cpu — avoiding sibling contention before it starts.
#[derive(Debug, Default, Clone, Copy)]
pub struct SmtAwarePlacer;

impl Placer for SmtAwarePlacer {
    fn label(&self) -> &'static str {
        "smt"
    }

    fn place(&mut self, ctx: &StageCtx<'_, '_>, admitted: &[AppId]) -> Vec<Assignment> {
        let view = ctx.view;
        let mut free: Vec<bool> = vec![true; view.num_cpus];
        let mut assignments = Vec::new();
        let pending = affinity_pass(view, admitted, &mut free, &mut assignments);
        for tid in pending {
            let core_idle = |cpu: usize| -> bool {
                (0..view.num_cpus)
                    .filter(|&o| view.core_of(CpuId(o)) == view.core_of(CpuId(cpu)))
                    .all(|o| free[o])
            };
            let idle_core_cpu = (0..view.num_cpus).find(|&c| free[c] && core_idle(c));
            let cpu = idle_core_cpu
                .or_else(|| view.warmest_cpu(tid).map(|(c, _)| c.0).filter(|&c| free[c]))
                .or_else(|| free.iter().position(|&f| f));
            if let Some(c) = cpu {
                free[c] = false;
                assignments.push(Assignment {
                    thread: tid,
                    cpu: CpuId(c),
                });
            }
        }
        assignments
    }
}

/// Socket-aware gang packing: keep each gang's threads together on one
/// socket so their sharing stays on the local bus. The target is the
/// gang's home socket (first-touch) when it can hold the whole gang,
/// else the socket with the most free cpus (lowest index breaks ties);
/// overflow spills to the lowest free cpu anywhere. On a single-socket
/// machine every cpu is socket 0 and this is lowest-free-cpu placement.
#[derive(Debug, Default, Clone, Copy)]
pub struct PackLocalPlacer;

impl Placer for PackLocalPlacer {
    fn label(&self) -> &'static str {
        "pack_local"
    }

    fn place(&mut self, ctx: &StageCtx<'_, '_>, admitted: &[AppId]) -> Vec<Assignment> {
        let view = ctx.view;
        let mut free: Vec<bool> = vec![true; view.num_cpus];
        let mut assignments = Vec::new();
        for &app in admitted {
            let Some(info) = view.app(app) else { continue };
            let tids: Vec<_> = info
                .threads
                .iter()
                .copied()
                .filter(|&t| view.thread(t).is_some_and(|t| t.is_runnable()))
                .collect();
            if tids.is_empty() {
                continue;
            }
            let free_in = |s: usize| {
                (0..view.num_cpus)
                    .filter(|&c| free[c] && view.socket_of(CpuId(c)) == s)
                    .count()
            };
            let home = tids.iter().find_map(|&t| view.home_socket(t));
            let target = home
                .filter(|&s| free_in(s) >= tids.len())
                .or_else(|| (0..view.sockets).max_by_key(|&s| (free_in(s), std::cmp::Reverse(s))))
                .unwrap_or(0);
            for &tid in &tids {
                let cpu = (0..view.num_cpus)
                    .find(|&c| free[c] && view.socket_of(CpuId(c)) == target)
                    .or_else(|| free.iter().position(|&f| f));
                if let Some(c) = cpu {
                    free[c] = false;
                    assignments.push(Assignment {
                        thread: tid,
                        cpu: CpuId(c),
                    });
                }
            }
        }
        assignments
    }
}

/// Socket-aware load spreading: after the affinity pass, each remaining
/// thread goes to the lowest free cpu on the socket with the most free
/// cpus (lowest socket breaks ties) — balancing bus masters across local
/// buses the way [`ScatterPlacer`] balances siblings across cores.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpreadSocketsPlacer;

impl Placer for SpreadSocketsPlacer {
    fn label(&self) -> &'static str {
        "spread_sockets"
    }

    fn place(&mut self, ctx: &StageCtx<'_, '_>, admitted: &[AppId]) -> Vec<Assignment> {
        let view = ctx.view;
        let mut free: Vec<bool> = vec![true; view.num_cpus];
        let mut assignments = Vec::new();
        let pending = affinity_pass(view, admitted, &mut free, &mut assignments);
        for tid in pending {
            let free_in = |s: usize| {
                (0..view.num_cpus)
                    .filter(|&c| free[c] && view.socket_of(CpuId(c)) == s)
                    .count()
            };
            let target = (0..view.sockets).max_by_key(|&s| (free_in(s), std::cmp::Reverse(s)));
            let cpu = target.and_then(|s| {
                (0..view.num_cpus).find(|&c| free[c] && view.socket_of(CpuId(c)) == s)
            });
            if let Some(c) = cpu {
                free[c] = false;
                assignments.push(Assignment {
                    thread: tid,
                    cpu: CpuId(c),
                });
            }
        }
        assignments
    }
}

/// Saturation-reactive placement: threads stay on their last cpu while
/// its socket's local bus keeps up, and migrate to the least-utilized
/// socket with a free cpu once it saturates. Reads the per-level bus
/// state of the previous arbitration ([`MachineView::bus_levels`] — the
/// simulated analogue of per-socket uncore counters); on a single-level
/// bus the levels are empty, no socket ever reads as saturated, and this
/// degenerates to affinity-then-lowest-free placement.
#[derive(Debug, Default, Clone, Copy)]
pub struct MigrateOnSaturationPlacer;

impl Placer for MigrateOnSaturationPlacer {
    fn label(&self) -> &'static str {
        "migrate"
    }

    fn place(&mut self, ctx: &StageCtx<'_, '_>, admitted: &[AppId]) -> Vec<Assignment> {
        let view = ctx.view;
        let saturated = |s: usize| view.bus_levels.get(s).is_some_and(|l| l.saturated);
        let utilization = |s: usize| view.bus_levels.get(s).map_or(0.0, |l| l.utilization);
        let mut free: Vec<bool> = vec![true; view.num_cpus];
        let mut assignments = Vec::new();
        let mut pending = Vec::new();
        for &app in admitted {
            let Some(info) = view.app(app) else { continue };
            for &tid in info.threads {
                let Some(t) = view.thread(tid) else { continue };
                if !t.is_runnable() {
                    continue;
                }
                // Stay put while the local bus keeps up.
                match t.last_cpu {
                    Some(c) if free[c.0] && !saturated(view.socket_of(c)) => {
                        free[c.0] = false;
                        assignments.push(Assignment {
                            thread: tid,
                            cpu: c,
                        });
                    }
                    _ => pending.push(tid),
                }
            }
        }
        for tid in pending {
            let target = (0..view.sockets)
                .filter(|&s| (0..view.num_cpus).any(|c| free[c] && view.socket_of(CpuId(c)) == s))
                .min_by(|&a, &b| utilization(a).total_cmp(&utilization(b)).then(a.cmp(&b)));
            let cpu = target.and_then(|s| {
                (0..view.num_cpus).find(|&c| free[c] && view.socket_of(CpuId(c)) == s)
            });
            if let Some(c) = cpu {
                free[c] = false;
                assignments.push(Assignment {
                    thread: tid,
                    cpu: CpuId(c),
                });
            }
        }
        assignments
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use busbw_sim::{AppDescriptor, ConstantDemand, Machine, ThreadSpec, XEON_4WAY, XEON_4WAY_HT};
    use busbw_trace::EventBus;

    fn machine(cfg: busbw_sim::MachineConfig, widths: &[usize]) -> (Machine, Vec<AppId>) {
        let mut m = Machine::new(cfg);
        let ids = widths
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let threads = (0..w)
                    .map(|_| {
                        ThreadSpec::new(f64::INFINITY, Box::new(ConstantDemand::new(1.0, 0.2)))
                    })
                    .collect();
                m.add_app(AppDescriptor::new(format!("a{i}"), threads))
            })
            .collect();
        (m, ids)
    }

    fn place(p: &mut dyn Placer, m: &Machine, admitted: &[AppId]) -> Vec<Assignment> {
        let view = m.view();
        let bus = EventBus::off();
        let ctx = StageCtx {
            view: &view,
            tracer: &bus,
        };
        p.place(&ctx, admitted)
    }

    #[test]
    fn packed_fills_lowest_cpus_first() {
        let (m, ids) = machine(XEON_4WAY, &[2]);
        let a = place(&mut PackedPlacer, &m, &ids);
        let mut cpus: Vec<usize> = a.iter().map(|x| x.cpu.0).collect();
        cpus.sort();
        assert_eq!(cpus, vec![0, 1]);
    }

    #[test]
    fn smt_aware_spreads_a_pair_across_idle_cores() {
        // 8 hardware threads, 4 cores (siblings 0-1, 2-3, ...): a 2-thread
        // gang must land on two different cores, not cpu 0 and 1.
        let (m, ids) = machine(XEON_4WAY_HT, &[2]);
        let a = place(&mut SmtAwarePlacer, &m, &ids);
        assert_eq!(a.len(), 2);
        let v = m.view();
        assert_ne!(
            v.core_of(a[0].cpu),
            v.core_of(a[1].cpu),
            "siblings shared a core: {a:?}"
        );
    }

    #[test]
    fn scatter_balances_threads_over_cores() {
        let (m, ids) = machine(XEON_4WAY_HT, &[4]);
        let a = place(&mut ScatterPlacer, &m, &ids);
        assert_eq!(a.len(), 4);
        let v = m.view();
        let mut cores: Vec<usize> = a.iter().map(|x| v.core_of(x.cpu)).collect();
        cores.sort();
        cores.dedup();
        assert_eq!(cores.len(), 4, "4 threads should land on 4 cores: {a:?}");
    }

    #[test]
    fn placers_never_double_book_a_cpu() {
        let (m, ids) = machine(XEON_4WAY, &[2, 2]);
        for p in [
            &mut PackedPlacer as &mut dyn Placer,
            &mut ScatterPlacer,
            &mut SmtAwarePlacer,
            &mut PackLocalPlacer,
            &mut SpreadSocketsPlacer,
            &mut MigrateOnSaturationPlacer,
        ] {
            let a = place(p, &m, &ids);
            let mut cpus: Vec<usize> = a.iter().map(|x| x.cpu.0).collect();
            cpus.sort();
            cpus.dedup();
            assert_eq!(cpus.len(), a.len(), "double-booked cpu");
        }
    }

    /// Two sockets of four cpus each.
    fn two_socket_cfg() -> busbw_sim::MachineConfig {
        busbw_sim::MachineConfig {
            num_cpus: 8,
            topology: busbw_sim::TopologyConfig::multi(2),
            ..XEON_4WAY
        }
    }

    #[test]
    fn pack_local_keeps_a_gang_on_one_socket() {
        let (m, ids) = machine(two_socket_cfg(), &[4, 3]);
        let a = place(&mut PackLocalPlacer, &m, &ids);
        assert_eq!(a.len(), 7);
        let v = m.view();
        let sockets = |app: usize| -> Vec<usize> {
            let threads = v.app(ids[app]).unwrap().threads.to_vec();
            a.iter()
                .filter(|x| threads.contains(&x.thread))
                .map(|x| v.socket_of(x.cpu))
                .collect()
        };
        // The 4-wide gang fills socket 0; the 3-wide gang must go to
        // socket 1 whole rather than straddle.
        assert!(sockets(0).iter().all(|&s| s == 0), "{a:?}");
        assert!(sockets(1).iter().all(|&s| s == 1), "{a:?}");
    }

    #[test]
    fn spread_sockets_balances_threads_across_sockets() {
        let (m, ids) = machine(two_socket_cfg(), &[4]);
        let a = place(&mut SpreadSocketsPlacer, &m, &ids);
        assert_eq!(a.len(), 4);
        let v = m.view();
        let on0 = a.iter().filter(|x| v.socket_of(x.cpu) == 0).count();
        assert_eq!(on0, 2, "expected a 2/2 split: {a:?}");
    }

    #[test]
    fn migrate_placer_stays_put_until_the_local_bus_saturates() {
        // Four streamers packed on socket 0 saturate its local bus
        // (4 × 12 tx/µs vs ~26 effective). After a quantum the levels
        // show it; the migrate placer must then move threads off while
        // a fresh idle machine would have kept them in place.
        let mk = || {
            let mut m = Machine::new(two_socket_cfg());
            let ids: Vec<AppId> = (0..4)
                .map(|i| {
                    m.add_app(AppDescriptor::new(
                        format!("s{i}"),
                        vec![ThreadSpec::new(
                            f64::INFINITY,
                            Box::new(ConstantDemand::new(12.0, 0.9)),
                        )],
                    ))
                })
                .collect();
            (m, ids)
        };
        let (mut m, ids) = mk();
        let packed = Assignment {
            thread: m.view().app(ids[0]).unwrap().threads[0],
            cpu: CpuId(0),
        };
        let all_packed: Vec<Assignment> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| Assignment {
                thread: m.view().app(id).unwrap().threads[0],
                cpu: CpuId(i),
            })
            .collect();
        let _ = packed;
        let d = busbw_sim::Decision {
            assignments: all_packed,
            next_resched_in_us: 100_000,
            sample_period_us: None,
        };
        let _ = m.run(
            &mut busbw_sim::testkit::Replay::new(d),
            busbw_sim::StopCondition::At(100_000),
        );
        let v = m.view();
        assert!(v.bus_levels[0].saturated, "socket 0 should be saturated");
        assert!(!v.bus_levels[1].saturated);
        let bus = EventBus::off();
        let ctx = StageCtx {
            view: &v,
            tracer: &bus,
        };
        let a = MigrateOnSaturationPlacer.place(&ctx, &ids);
        assert_eq!(a.len(), 4);
        let moved = a.iter().filter(|x| v.socket_of(x.cpu) == 1).count();
        assert!(
            moved > 0,
            "no thread migrated off the saturated socket: {a:?}"
        );

        // Unsaturated machine: everyone keeps their last cpu.
        let (m2, ids2) = machine(two_socket_cfg(), &[2]);
        let ctx2view = m2.view();
        let ctx2 = StageCtx {
            view: &ctx2view,
            tracer: &bus,
        };
        let a2 = MigrateOnSaturationPlacer.place(&ctx2, &ids2);
        assert_eq!(a2.len(), 2);
        assert!(a2.iter().all(|x| ctx2view.socket_of(x.cpu) == 0));
    }
}
