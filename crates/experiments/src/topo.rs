//! Topology figure family: socket-aware placement on multi-socket shapes.
//!
//! The paper's machine is a single shared front-side bus; DESIGN §16
//! generalises it to a two-level hierarchy (per-socket local buses + a
//! cross-socket interconnect). This figure family answers the question
//! the paper could not ask: *once the bus is hierarchical, how much does
//! socket-aware placement matter?*
//!
//! One panel per machine shape — `topo1` (the paper's flat 4-way),
//! `topo2` (2 sockets × 4 cpus) and `topo4` (4 sockets × 2 cpus). Each
//! panel runs the §5 set-C mix (2 × app + 2 × BBMA + 2 × nBBMA) for a
//! representative application subset under the default stack with the
//! topology-oblivious `packed` placer as baseline, and reports the mean
//! turnaround improvement of each socket-aware placer (`pack_local`,
//! `spread_sockets`, `migrate`) over that baseline. Multi-socket panels
//! append the per-level mean bus utilisation (%) of the `pack_local`
//! run — one column per socket bus plus the interconnect — folded from
//! [`RunResult::level_utilization`].

use std::borrow::Cow;

use busbw_metrics::{improvement_pct, ExperimentRow, FigureSummary};
use busbw_sim::{MachineConfig, TopologyConfig};
use busbw_workloads::mix::fig2_set_c;
use busbw_workloads::paper::PaperApp;

use crate::jobgraph::{run_figure, CellId, Executed, Plan, RunRequest, Workload};
use crate::policy::StackSpec;
use crate::runner::{PolicyKind, RunnerConfig};

/// The machine shapes of the topology panels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoShape {
    /// The paper's flat 4-way SMP (1 socket, degenerate topology).
    Flat,
    /// 2 sockets × 4 cpus sharing one interconnect.
    Dual,
    /// 4 sockets × 2 cpus sharing one interconnect.
    Quad,
}

/// All shapes, panel order.
pub const TOPO_SHAPES: [TopoShape; 3] = [TopoShape::Flat, TopoShape::Dual, TopoShape::Quad];

/// The applications of each panel: one light, one moderate, two
/// bus-bound (the same subset the dynamic figure uses).
pub const TOPO_APPS: [PaperApp; 4] = [PaperApp::Volrend, PaperApp::Bt, PaperApp::Mg, PaperApp::Cg];

/// The socket-aware placers under comparison (spec-grammar names).
pub const TOPO_PLACERS: [&str; 3] = ["pack_local", "spread_sockets", "migrate"];

impl TopoShape {
    /// Socket count of the shape.
    pub fn sockets(self) -> usize {
        match self {
            TopoShape::Flat => 1,
            TopoShape::Dual => 2,
            TopoShape::Quad => 4,
        }
    }

    /// Figure id ("topo1", "topo2", "topo4").
    pub fn id(self) -> &'static str {
        match self {
            TopoShape::Flat => "topo1",
            TopoShape::Dual => "topo2",
            TopoShape::Quad => "topo4",
        }
    }

    /// Panel title.
    pub fn title(self) -> &'static str {
        match self {
            TopoShape::Flat => {
                "1 socket x 4 cpus (flat bus) — placer improvement (%) over packed, set C"
            }
            TopoShape::Dual => {
                "2 sockets x 4 cpus — placer improvement (%) over packed + pack_local level util (%), set C"
            }
            TopoShape::Quad => {
                "4 sockets x 2 cpus — placer improvement (%) over packed + pack_local level util (%), set C"
            }
        }
    }

    /// The shape's machine: `rc`'s machine untouched for [`Flat`]
    /// (keeping the default panel byte-identical to the paper's), 8 cpus
    /// striped over the sockets otherwise.
    ///
    /// [`Flat`]: TopoShape::Flat
    pub fn machine(self, rc: &RunnerConfig) -> MachineConfig {
        match self {
            TopoShape::Flat => rc.machine,
            _ => MachineConfig {
                num_cpus: 8,
                topology: TopologyConfig::multi(self.sockets()),
                ..rc.machine
            },
        }
    }
}

/// Column label of bus level `k`: the interconnect is always the last
/// level the hierarchical bus reports, every earlier one a socket bus.
fn level_label(k: usize, n_levels: usize) -> String {
    if k + 1 == n_levels {
        "util(ic)".into()
    } else {
        format!("util(s{k})")
    }
}

/// The default stack with `placer` swapped in.
fn stack(placer: &str) -> PolicyKind {
    PolicyKind::Stack(StackSpec::parse(&format!("placer={placer}")).expect("known placer"))
}

/// Cell handles for one topology panel: apps in [`TOPO_APPS`] order,
/// the `packed` baseline first then each [`TOPO_PLACERS`] entry.
#[derive(Debug)]
pub struct TopoCells {
    shape: TopoShape,
    cells: Vec<CellId>,
}

/// Declare one topology panel's cells.
pub fn plan_topo(plan: &mut Plan, shape: TopoShape, rc: &RunnerConfig) -> TopoCells {
    let rc_shape = RunnerConfig {
        machine: shape.machine(rc),
        ..*rc
    };
    let mut cells = Vec::with_capacity(TOPO_APPS.len() * (1 + TOPO_PLACERS.len()));
    for app in TOPO_APPS {
        let workload = Workload::new(fig2_set_c(app));
        cells.push(plan.cell(RunRequest::spec(&workload, stack("packed"), &rc_shape)));
        for placer in TOPO_PLACERS {
            cells.push(plan.cell(RunRequest::spec(&workload, stack(placer), &rc_shape)));
        }
    }
    TopoCells { shape, cells }
}

/// Fold one topology panel: improvement % of each socket-aware placer
/// over the `packed` baseline, plus (multi-socket shapes only) the
/// per-level mean utilisation of the `pack_local` run in percent.
pub fn fold_topo(cells: &TopoCells, executed: &Executed) -> FigureSummary {
    let per_app = 1 + TOPO_PLACERS.len();
    let rows = TOPO_APPS
        .iter()
        .zip(cells.cells.chunks_exact(per_app))
        .map(|(&app, ids)| {
            let packed = executed.get(ids[0]);
            let mut values: Vec<(Cow<'static, str>, f64)> = TOPO_PLACERS
                .iter()
                .enumerate()
                .map(|(i, placer)| {
                    (
                        placer.to_string().into(),
                        improvement_pct(
                            packed.mean_turnaround_us,
                            executed.get(ids[i + 1]).mean_turnaround_us,
                        ),
                    )
                })
                .collect();
            // TOPO_PLACERS[0] is pack_local: its run supplies the
            // utilisation columns. Flat shapes report no levels.
            let local = executed.get(ids[1]);
            for k in 0..local.n_levels {
                values.push((
                    level_label(k, local.n_levels).into(),
                    100.0 * local.level_utilization[k],
                ));
            }
            ExperimentRow {
                app: app.name().to_string(),
                values,
            }
        })
        .collect();
    FigureSummary {
        id: cells.shape.id().into(),
        title: cells.shape.title().into(),
        rows,
    }
}

/// Regenerate one topology panel.
pub fn topo_panel(shape: TopoShape, rc: &RunnerConfig) -> FigureSummary {
    run_figure(rc, |plan| plan_topo(plan, shape, rc), fold_topo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_enum_roundtrips() {
        let rc = RunnerConfig::default();
        assert_eq!(TOPO_SHAPES.map(TopoShape::id), ["topo1", "topo2", "topo4"]);
        assert_eq!(TOPO_SHAPES.map(TopoShape::sockets), [1, 2, 4]);
        // Flat leaves the paper's machine untouched — the degenerate
        // panel runs byte-identical cells to a plain fig2 set-C run.
        let flat = TopoShape::Flat.machine(&rc);
        assert_eq!(flat.num_cpus, rc.machine.num_cpus);
        assert_eq!(flat.topology, rc.machine.topology);
        for shape in [TopoShape::Dual, TopoShape::Quad] {
            let m = shape.machine(&rc);
            assert_eq!(m.num_cpus, 8);
            assert_eq!(m.topology.sockets, shape.sockets());
            assert!(!shape.title().is_empty());
        }
    }

    #[test]
    fn level_labels_tag_interconnect_last() {
        assert_eq!(level_label(0, 3), "util(s0)");
        assert_eq!(level_label(1, 3), "util(s1)");
        assert_eq!(level_label(2, 3), "util(ic)");
    }

    #[test]
    fn dual_socket_panel_reports_per_level_utilization() {
        let rc = RunnerConfig::quick();
        let fig = topo_panel(TopoShape::Dual, &rc);
        assert_eq!(fig.id, "topo2");
        assert_eq!(fig.rows.len(), TOPO_APPS.len());
        for row in &fig.rows {
            // 3 placers + 2 socket buses + interconnect.
            assert_eq!(row.values.len(), TOPO_PLACERS.len() + 3, "{row:?}");
            let labels: Vec<&str> = row.values.iter().map(|(l, _)| &**l).collect();
            assert!(labels.contains(&"util(s0)"), "{labels:?}");
            assert!(labels.contains(&"util(ic)"), "{labels:?}");
            for (label, v) in &row.values {
                assert!(v.is_finite(), "{label}: {v}");
                if label.starts_with("util(") {
                    assert!((0.0..=100.0).contains(v), "{label}: {v}");
                }
            }
        }
    }

    #[test]
    fn flat_panel_has_no_level_columns() {
        let rc = RunnerConfig::quick();
        let fig = topo_panel(TopoShape::Flat, &rc);
        assert_eq!(fig.id, "topo1");
        for row in &fig.rows {
            assert_eq!(row.values.len(), TOPO_PLACERS.len(), "{row:?}");
        }
    }
}
