//! Workload compositions: the exact mixes of the paper's experiments.
//!
//! * Figure 1 (motivation, §3 — no processor sharing):
//!   * solo: one app instance (2 threads) alone;
//!   * `2 Apps`: two instances (4 threads);
//!   * `1 Appl + 2 BBMA`: one instance + two BBMA threads;
//!   * `1 Appl + 2 nBBMA`: one instance + two nBBMA threads.
//! * Figure 2 (evaluation, §5 — multiprogramming degree 2, 8 threads on
//!   4 cpus):
//!   * set A: 2 × app + 4 × BBMA;
//!   * set B: 2 × app + 4 × nBBMA;
//!   * set C: 2 × app + 2 × BBMA + 2 × nBBMA.
//!
//! A [`WorkloadSpec`] lists the application instances and marks which are
//! *measured* (the paper reports the mean turnaround of the application
//! instances; the microbenchmarks run forever as background load).

use busbw_sim::{AppId, Machine, MachineConfig};

use crate::app::AppSpec;
use crate::micro::{bbma, nbbma};
use crate::paper::{paper_app, PaperApp};

/// A composed workload: app specs plus which of them are measured.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Name for reports (e.g. `"2xCG + 4xBBMA"`).
    pub name: String,
    /// The application instances, in arrival order.
    pub apps: Vec<AppSpec>,
    /// Indices into `apps` of the instances whose turnaround is measured.
    pub measured: Vec<usize>,
}

impl WorkloadSpec {
    /// Scale every instance's work volume (for fast tests).
    pub fn scaled(mut self, factor: f64) -> Self {
        self.apps = self
            .apps
            .into_iter()
            .map(|a| {
                if a.work_us_per_thread.is_finite() {
                    a.scaled(factor)
                } else {
                    a
                }
            })
            .collect();
        self
    }

    /// Total number of threads across all instances.
    pub fn total_threads(&self) -> usize {
        self.apps.iter().map(|a| a.nthreads).sum()
    }
}

/// A [`WorkloadSpec`] instantiated on a [`Machine`].
pub struct BuiltWorkload {
    /// The machine, ready to run.
    pub machine: Machine,
    /// Ids of the measured instances.
    pub measured_ids: Vec<AppId>,
}

/// Instantiate a workload on a fresh machine. `seed` feeds the bursty
/// demand models (instance `i` gets `seed + i` so identical specs differ).
pub fn build_machine(spec: &WorkloadSpec, cfg: MachineConfig, seed: u64) -> BuiltWorkload {
    let mut machine = Machine::new(cfg);
    let mut app_ids = Vec::with_capacity(spec.apps.len());
    for (i, a) in spec.apps.iter().enumerate() {
        app_ids.push(machine.add_app(a.descriptor(seed.wrapping_add(i as u64))));
    }
    let measured_ids = spec.measured.iter().map(|&i| app_ids[i]).collect();
    BuiltWorkload {
        machine,
        measured_ids,
    }
}

/// §3 experiment 1: one instance alone.
pub fn fig1_solo(app: PaperApp) -> WorkloadSpec {
    WorkloadSpec {
        name: format!("1x{}", app.name()),
        apps: vec![paper_app(app)],
        measured: vec![0],
    }
}

/// §3 experiment 2: two identical instances, 2 threads each.
pub fn fig1_two_instances(app: PaperApp) -> WorkloadSpec {
    WorkloadSpec {
        name: format!("2x{}", app.name()),
        apps: vec![paper_app(app), paper_app(app)],
        measured: vec![0, 1],
    }
}

/// §3 experiment 3: one instance + two BBMA.
pub fn fig1_with_bbma(app: PaperApp) -> WorkloadSpec {
    WorkloadSpec {
        name: format!("1x{} + 2xBBMA", app.name()),
        apps: vec![paper_app(app), bbma(), bbma()],
        measured: vec![0],
    }
}

/// §3 experiment 4: one instance + two nBBMA.
pub fn fig1_with_nbbma(app: PaperApp) -> WorkloadSpec {
    WorkloadSpec {
        name: format!("1x{} + 2xnBBMA", app.name()),
        apps: vec![paper_app(app), nbbma(), nbbma()],
        measured: vec![0],
    }
}

/// §5 set A: 2 × app + 4 × BBMA (8 threads, saturated background).
pub fn fig2_set_a(app: PaperApp) -> WorkloadSpec {
    WorkloadSpec {
        name: format!("2x{} + 4xBBMA", app.name()),
        apps: vec![
            paper_app(app),
            paper_app(app),
            bbma(),
            bbma(),
            bbma(),
            bbma(),
        ],
        measured: vec![0, 1],
    }
}

/// §5 set B: 2 × app + 4 × nBBMA (8 threads, idle-bus background).
pub fn fig2_set_b(app: PaperApp) -> WorkloadSpec {
    WorkloadSpec {
        name: format!("2x{} + 4xnBBMA", app.name()),
        apps: vec![
            paper_app(app),
            paper_app(app),
            nbbma(),
            nbbma(),
            nbbma(),
            nbbma(),
        ],
        measured: vec![0, 1],
    }
}

/// §5 set C: 2 × app + 2 × BBMA + 2 × nBBMA (mixed background).
pub fn fig2_set_c(app: PaperApp) -> WorkloadSpec {
    WorkloadSpec {
        name: format!("2x{} + 2xBBMA + 2xnBBMA", app.name()),
        apps: vec![
            paper_app(app),
            paper_app(app),
            bbma(),
            bbma(),
            nbbma(),
            nbbma(),
        ],
        measured: vec![0, 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use busbw_sim::XEON_4WAY;

    #[test]
    fn fig2_sets_have_multiprogramming_degree_two() {
        // 8 threads on the 4-cpu machine, per §5.
        for mk in [fig2_set_a, fig2_set_b, fig2_set_c] {
            let w = mk(PaperApp::Cg);
            assert_eq!(w.total_threads(), 8, "{}", w.name);
            assert_eq!(w.measured, vec![0, 1]);
        }
    }

    #[test]
    fn fig1_sets_fit_without_processor_sharing() {
        for mk in [
            fig1_solo as fn(PaperApp) -> WorkloadSpec,
            fig1_two_instances,
            fig1_with_bbma,
            fig1_with_nbbma,
        ] {
            let w = mk(PaperApp::Sp);
            assert!(w.total_threads() <= 4, "{}", w.name);
        }
    }

    #[test]
    fn build_machine_registers_all_apps_and_marks_measured() {
        let w = fig2_set_c(PaperApp::Mg);
        let b = build_machine(&w, XEON_4WAY, 1);
        assert_eq!(b.measured_ids.len(), 2);
        let v = b.machine.view();
        assert_eq!(v.apps().count(), 6);
        assert_eq!(v.threads().count(), 8);
    }

    #[test]
    fn scaling_preserves_infinite_microbenchmarks() {
        let w = fig2_set_a(PaperApp::Cg).scaled(0.1);
        assert_eq!(w.apps[0].work_us_per_thread, 600_000.0);
        assert!(w.apps[2].work_us_per_thread.is_infinite());
    }

    #[test]
    fn identical_instances_get_different_burst_seeds() {
        let w = fig1_two_instances(PaperApp::Raytrace);
        let mut b = build_machine(&w, XEON_4WAY, 9);
        // Extract demand traces via the machine's counters is heavy; just
        // check the descriptors differ by probing fresh descriptors.
        let mut d0 = w.apps[0].descriptor(9);
        let mut d1 = w.apps[1].descriptor(10);
        let mut diff = 0;
        for t in (0..20_000_000u64).step_by(100_000) {
            if d0.threads[0].model.demand_at(0.0, t) != d1.threads[0].model.demand_at(0.0, t) {
                diff += 1;
            }
        }
        assert!(diff > 5, "instances burst in lockstep");
        let _ = &mut b;
    }
}
