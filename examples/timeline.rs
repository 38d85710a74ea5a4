//! Visualize schedules: a text Gantt chart of the same workload under the
//! Linux baseline and the Quanta Window policy.
//!
//! ```text
//! cargo run --release --example timeline [app]
//! ```
//!
//! The contrast to look for (default MG, set C): under Linux the app's
//! threads scatter and interleave with the BBMA streamers; under the
//! bandwidth-aware policy the gangs are intact and the two app instances
//! are kept apart from the saturating background whenever the fitness
//! rule can arrange it.
//!
//! The chart is drawn from the machine's structured trace: every applied
//! decision emits one `Placement` event per placed thread, all stamped
//! with the decision's time.

use busbw::core::{linux_like, quanta_window};
use busbw::sim::{Scheduler, StopCondition, XEON_4WAY};
use busbw::workloads::{mix, paper::PaperApp};
use busbw_trace::{EventBus, TraceEvent};

/// Simulated time per chart column, µs.
const BUCKET_US: u64 = 100_000;

fn show<S: Scheduler>(label: &str, mut sched: S, app: PaperApp) {
    let spec = mix::fig2_set_c(app).scaled(0.05);
    let built = mix::build_machine(&spec, XEON_4WAY, 42);
    let mut machine = built.machine;
    let (bus, events) = EventBus::memory();
    machine.set_tracer(bus);
    let out = machine.run(
        &mut sched,
        StopCondition::AppsFinished(built.measured_ids.clone()),
    );
    assert!(out.condition_met);

    // Regroup the placements into decisions: (time, [(cpu, app)]).
    let mut decisions: Vec<(u64, Vec<(usize, u64)>)> = Vec::new();
    for ev in events.events() {
        if let TraceEvent::Placement {
            at_us, cpu, app, ..
        } = ev
        {
            match decisions.last_mut() {
                Some((t, placed)) if *t == at_us => placed.push((cpu, app)),
                _ => decisions.push((at_us, vec![(cpu, app)])),
            }
        }
    }

    // One row per cpu, one column per bucket; a cell is the letter of the
    // app the latest decision placed on that cpu ('·' when idle).
    let view = machine.view();
    let letter = |app: u64| (b'A' + app as u8) as char;
    let end = decisions.last().map_or(0, |d| d.0) + BUCKET_US;
    let buckets = (end / BUCKET_US).min(400);
    println!("=== {label} ===");
    for cpu in 0..view.num_cpus {
        let row: String = (0..buckets)
            .map(|b| {
                let next = decisions.partition_point(|d| d.0 <= b * BUCKET_US);
                next.checked_sub(1)
                    .and_then(|i| decisions[i].1.iter().find(|p| p.0 == cpu))
                    .map_or('·', |p| letter(p.1))
            })
            .collect();
        println!("cpu{cpu} |{row}");
    }
    println!(
        "      +{} ({} ms/col)",
        "-".repeat(buckets as usize),
        BUCKET_US / 1000
    );
    for a in view.apps() {
        println!("  {} = {} ({})", letter(a.id.0), a.name, a.id);
    }
    println!();
    for &id in &built.measured_ids {
        let ran = decisions
            .iter()
            .filter(|d| d.1.iter().any(|p| p.1 == id.0))
            .count();
        println!(
            "  {} turnaround: {:.2} s (ran in {:.0}% of quanta)",
            view.app(id).unwrap().name,
            machine.turnaround_us(id).unwrap() as f64 / 1e6,
            ran as f64 / decisions.len() as f64 * 100.0
        );
    }
    println!();
}

fn main() {
    let app = std::env::args()
        .nth(1)
        .and_then(|s| PaperApp::from_name(&s))
        .unwrap_or(PaperApp::Mg);
    println!(
        "workload: 2x{} + 2xBBMA + 2xnBBMA (set C, 1/20 scale)\n",
        app.name()
    );
    show("Linux 2.4-like baseline", linux_like(), app);
    show("Quanta Window policy", quanta_window(), app);
}
