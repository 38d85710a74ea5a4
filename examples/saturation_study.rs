//! The §3 motivation study: how bus saturation alone — no processor
//! sharing — slows applications down.
//!
//! ```text
//! cargo run --release --example saturation_study [app]
//! ```
//!
//! For the chosen application (default CG), reproduces the four
//! configurations of Figure 1 and prints rates and slowdowns, plus a
//! demand sweep that locates the saturation knee of the simulated bus.

use busbw::core::linux_like;
use busbw::sim::{Bus, BusConfig, BusRequest, StopCondition, ThreadId, TopologyConfig, XEON_4WAY};
use busbw::workloads::{mix, paper::PaperApp};

fn run(spec: &busbw::workloads::WorkloadSpec) -> (f64, f64) {
    let built = mix::build_machine(&spec.clone().scaled(0.25), XEON_4WAY, 7);
    let mut machine = built.machine;
    let mut sched = linux_like();
    let out = machine.run(
        &mut sched,
        StopCondition::AppsFinished(built.measured_ids.clone()),
    );
    assert!(out.condition_met);
    let mean_us: f64 = built
        .measured_ids
        .iter()
        .map(|&id| machine.turnaround_us(id).unwrap() as f64)
        .sum::<f64>()
        / built.measured_ids.len() as f64;
    (mean_us, out.stats.mean_bus_rate())
}

fn main() {
    let app = std::env::args()
        .nth(1)
        .and_then(|s| PaperApp::from_name(&s))
        .unwrap_or(PaperApp::Cg);
    println!("=== §3 configurations for {} ===\n", app.name());

    let (solo_us, solo_rate) = run(&mix::fig1_solo(app));
    println!(
        "1 Appl           : {:6.2} s, workload rate {:5.1} tx/µs",
        solo_us / 1e6,
        solo_rate
    );
    for (label, spec) in [
        ("2 Apps           ", mix::fig1_two_instances(app)),
        ("1 Appl + 2 BBMA  ", mix::fig1_with_bbma(app)),
        ("1 Appl + 2 nBBMA ", mix::fig1_with_nbbma(app)),
    ] {
        let (us, rate) = run(&spec);
        println!(
            "{label}: {:6.2} s, workload rate {:5.1} tx/µs, slowdown {:.2}x",
            us / 1e6,
            rate,
            us / solo_us
        );
    }

    // Where does the simulated front-side bus saturate? Sweep aggregate
    // demand from four identical streamers through the knee.
    println!("\n=== saturation knee (4 identical streamers, µ = 0.9) ===\n");
    let mut bus = Bus::new(BusConfig::default(), TopologyConfig::default());
    println!("demand (tx/µs)  issued (tx/µs)  per-thread speed");
    for total in [8.0, 16.0, 24.0, 26.0, 28.0, 30.0, 34.0, 40.0, 60.0, 80.0] {
        let reqs: Vec<BusRequest> = (0..4)
            .map(|i| BusRequest {
                thread: ThreadId(i),
                rate: total / 4.0,
                mu: 0.9,
                socket: 0,
                remote: 0.0,
            })
            .collect();
        let out = bus.arbitrate(&reqs);
        println!(
            "{total:>14.1}  {:>14.1}  {:>16.2}",
            out.total.issued, out.shares[0].speed
        );
    }
}
