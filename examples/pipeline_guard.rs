//! The policy-pipeline indirection guard: what driving the selection
//! logic through the composed estimate → admit → select → place pipeline
//! costs, relative to calling the same selector directly.
//!
//! ```text
//! cargo run --release --example pipeline_guard
//! ```
//!
//! The same workload runs under the Linux preset stack and under a
//! [`SoloSelector`] driving the identical selector directly (same
//! decisions, no estimate/admit/place framing or per-stage timing). Each
//! timed pair steps the two runs in lockstep, one scheduling quantum of
//! each in turn, so both sides see the same host conditions. The example
//! prints the median overhead over the pairs with the interquartile
//! range of the pairs, and exits 1 when the median reaches
//! [`BUDGET_PCT`].

use std::time::{Duration, Instant};

use busbw::core::{linux_like, LinuxConfig, LinuxEpochSelector, SoloSelector};
use busbw::sim::{
    AppDescriptor, ConstantDemand, Machine, RunCursor, Scheduler, StepEvent, StopCondition,
    ThreadSpec, XEON_4WAY,
};

/// The indirection budget, in percent of the direct selector's time.
const BUDGET_PCT: f64 = 2.0;

/// Discarded pairs before the timed ones: they bring caches, branch
/// predictors and the cpu clock to their steady state.
const WARMUP_PAIRS: usize = 4;

/// Timed pairs; the median over this many resolves the budget.
const PAIRS: usize = 41;

/// One side of a pair: a run paused between scheduling quanta, and the
/// wall time spent advancing it.
struct Side {
    machine: Machine,
    cur: RunCursor,
    sched: Box<dyn Scheduler>,
    spent: Duration,
}

impl Side {
    /// A fixed simulated horizon of endless-work gangs: both schedulers
    /// make identical decisions every quantum, and the run is long enough
    /// (tens of milliseconds of wall time) for sub-percent resolution.
    fn new(mut sched: Box<dyn Scheduler>) -> Self {
        let mut machine = Machine::new(XEON_4WAY);
        for i in 0..4 {
            let threads = (0..2)
                .map(|_| ThreadSpec::new(f64::INFINITY, Box::new(ConstantDemand::new(5.0, 0.6))))
                .collect();
            machine.add_app(AppDescriptor::new(format!("a{i}"), threads));
        }
        sched.attach_tracer(machine.tracer());
        sched.set_introspect(false);
        let cur = machine.run_begin(StopCondition::At(15_000_000));
        Self {
            machine,
            cur,
            sched,
            spent: Duration::ZERO,
        }
    }

    /// Advance through the next scheduling point; false once the run is
    /// over.
    fn step(&mut self) -> bool {
        let t = Instant::now();
        let more = loop {
            match self.machine.run_step(&mut self.cur, None) {
                StepEvent::Sample => self.sched.on_sample(&self.machine.view()),
                StepEvent::Schedule => {
                    let d = self.sched.schedule(&self.machine.view());
                    self.machine.run_decide(&mut self.cur, &d);
                    break true;
                }
                StepEvent::Done(_) => break false,
            }
        };
        self.spent += t.elapsed();
        more
    }
}

/// One pair: `(stack s, direct s)`, stepped in lockstep, the side that
/// steps first alternating with `stack_first`.
fn pair(stack_first: bool) -> (f64, f64) {
    let mut stack = Side::new(Box::new(linux_like()));
    let solo = SoloSelector::new(LinuxEpochSelector::new(), LinuxConfig::default().quantum_us);
    let mut solo = Side::new(Box::new(solo));
    let (first, second) = if stack_first {
        (&mut stack, &mut solo)
    } else {
        (&mut solo, &mut stack)
    };
    loop {
        let more = first.step();
        if second.step() != more {
            unreachable!("both sides make the same decisions");
        }
        if !more {
            break;
        }
    }
    (stack.spent.as_secs_f64(), solo.spent.as_secs_f64())
}

/// The guard's timings: minima for reference, and the median and
/// interquartile range of the per-pair overheads, in percent.
struct Overhead {
    best_stack_s: f64,
    best_solo_s: f64,
    median_pct: f64,
    iqr_pct: f64,
}

/// Time the Linux preset stack against a [`SoloSelector`] driving the
/// same selector. The median across pairs discards the few pairs a
/// scheduling burst lands inside.
fn pipeline_overhead() -> Overhead {
    for i in 0..WARMUP_PAIRS {
        pair(i % 2 == 0);
    }
    let (mut best_stack, mut best_solo) = (f64::INFINITY, f64::INFINITY);
    let mut overheads: Vec<f64> = (0..PAIRS)
        .map(|i| {
            let (stack, solo) = pair(i % 2 == 0);
            best_stack = best_stack.min(stack);
            best_solo = best_solo.min(solo);
            100.0 * (stack - solo) / solo
        })
        .collect();
    overheads.sort_by(f64::total_cmp);
    let quantile = |q: f64| overheads[((overheads.len() - 1) as f64 * q).round() as usize];
    Overhead {
        best_stack_s: best_stack,
        best_solo_s: best_solo,
        median_pct: quantile(0.5),
        iqr_pct: quantile(0.75) - quantile(0.25),
    }
}

fn main() {
    let o = pipeline_overhead();
    println!(
        "pipeline guard: stack {:.4} s vs direct selector {:.4} s",
        o.best_stack_s, o.best_solo_s
    );
    let overhead = o.median_pct;
    println!(
        "pipeline indirection: {overhead:+.2} % (budget < {BUDGET_PCT} %), \
         IQR of {PAIRS} pairs {:.2} %",
        o.iqr_pct
    );
    if overhead >= BUDGET_PCT {
        eprintln!(
            "error: policy-pipeline indirection {overhead:.2} % exceeds the {BUDGET_PCT} % budget"
        );
        std::process::exit(1);
    }
}
