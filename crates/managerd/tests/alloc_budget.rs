//! A serve pays heap allocations per admitted client, not per event: once
//! its buffers have grown, a quantum boundary and a sampling point
//! allocate nothing, and admitting, serving and retiring a client stays
//! under a pinned number of allocations. This test binary installs an
//! allocator that counts requests, so the budget is measured, not
//! assumed.
//!
//! Measured at the loaded shape below (poisson:80, four times the `open`
//! figure's base rate, into the default accept queue of 8, 100 s), per
//! admitted client, whole serve included, before and after the serve
//! stopped copying names and handles, reading gates on every interval and
//! selecting into fresh vectors:
//!
//! | serve                         | before | after |
//! |-------------------------------|-------:|------:|
//! | Oblivious                     |   9.82 |  1.07 |
//! | Latest Quantum                |   9.88 |  1.07 |
//! | Quanta Window                 |  10.44 |  1.63 |
//! | group of the three, and split |  10.56 |  1.36 |
//!
//! Before, every connect allocated a `format!` name, the arena, the
//! manager's gate list, the runtime's and the serve's handle lists and two
//! `Arc`s per thread, and the manager's write-only demand map churned.
//! After, a client costs its arena and, under Window, its sample queue:
//! the gate lists and thread handles of departed clients are reused. A
//! steady quantum with its two sampling points went from 2 allocations to
//! 0; in the Oblivious serve loop at 8 live clients, 300 more quanta cost
//! 1 186 more allocations before (6 350 → 7 536) and none after
//! (743 → 743).
//!
//! Run with `--nocapture` to see the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use busbw_core::estimator::{BandwidthEstimator, LatestQuantumEstimator, QuantaWindowEstimator};
use busbw_core::manager::{AppRuntime, CpuManager, ManagerConfig};
use busbw_managerd::{serve, serve_group, ArrivalProcess, OpenConfig, OpenOutcome, ZeroEstimator};

/// The system allocator, counting the requests it serves (a `realloc`
/// counts as one).
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by `f`, with its result. The count is process-wide,
/// so this binary has one test: the harness would otherwise run others,
/// and report finished ones, on threads of their own while one counts.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = f();
    (ALLOCS.load(Ordering::Relaxed) - before, r)
}

/// Allocations per admitted client of a whole serve, at most: the
/// table's worst, 1.63, with room for a few more per-client allocations
/// that a change would have to argue for.
const BUDGET_PER_CLIENT: f64 = 5.0;

/// A named way to build a serve's estimator.
type Stack = (&'static str, fn() -> Box<dyn BandwidthEstimator>);

/// The three stacks of the `open` figure, baseline first.
const STACKS: [Stack; 3] = [
    ("Oblivious", || Box::new(ZeroEstimator)),
    ("Latest", || Box::new(LatestQuantumEstimator::new())),
    ("Window", || Box::new(QuantaWindowEstimator::new())),
];

/// The loaded shape: the `open` figure's highest offered load.
fn loaded() -> OpenConfig {
    OpenConfig {
        arrivals: ArrivalProcess::Poisson { rate_per_s: 80.0 },
        duration_us: 100_000_000,
        seed: 42,
        ..OpenConfig::default()
    }
}

fn admitted(o: &OpenOutcome) -> u64 {
    o.arrived - o.shed
}

#[test]
fn a_serve_stays_inside_its_allocation_budget() {
    a_steady_quantum_and_its_sampling_points_allocate_nothing();
    the_serve_loop_allocates_nothing_per_quantum_or_sampling_point();
    a_loaded_serve_stays_inside_its_per_client_budget();
}

/// The manager and its in-process clients alone, as the serve drives them.
fn a_steady_quantum_and_its_sampling_points_allocate_nothing() {
    for (name, stack) in STACKS {
        let (mut mgr, _handle) = CpuManager::new(ManagerConfig::default(), stack());
        let period = mgr.config().quantum_us / mgr.config().samples_per_quantum as u64;
        // Ten threads on four processors, so quanta block and resume
        // gangs, at rates far enough apart to steer the selection.
        let mut apps: Vec<(AppRuntime, u64)> = [(2, 40), (1, 1), (2, 25), (1, 3), (2, 9), (2, 0)]
            .into_iter()
            .map(|(width, rate)| {
                let mut rt = AppRuntime::in_process(mgr.connect(String::new()));
                for _ in 0..width {
                    let t = rt.register_thread().expect("in-process");
                    mgr.thread_created(rt.id(), t.gate());
                }
                (rt, rate)
            })
            .collect();
        let mut now = 0;
        let mut quantum = |mgr: &mut CpuManager| {
            for _ in 0..mgr.config().samples_per_quantum {
                now += period;
                for (rt, rate) in &mut apps {
                    if !rt.threads()[0].is_blocked() {
                        for t in rt.threads() {
                            t.count_transactions(*rate * period);
                        }
                    }
                    rt.publish_sample(now);
                }
                mgr.sample();
            }
            mgr.quantum();
        };
        // Let every buffer and estimator window grow to its size.
        for _ in 0..20 {
            quantum(&mut mgr);
        }
        let (n, ()) = counted(|| {
            for _ in 0..100 {
                quantum(&mut mgr);
            }
        });
        println!("{name}: {n} allocations in 100 quanta and 200 sampling points");
        assert_eq!(n, 0, "{name}: a steady quantum allocates");
    }
}

/// The whole serve loop, shadows included.
fn the_serve_loop_allocates_nothing_per_quantum_or_sampling_point() {
    // Sixteen processors run every live client of an accept queue of 8
    // (gangs of at most 2) at every quantum, so the clients, their
    // admissions and their departures do not depend on the quantum: a
    // serve with four times the quanta and sampling points must make the
    // same allocations. The Window stack is left out: its per-client
    // sample queue grows while it fills, and more sampling points fill
    // more clients' queues.
    let cfg = |quantum_us| OpenConfig {
        manager: ManagerConfig {
            num_cpus: 16,
            quantum_us,
            ..ManagerConfig::default()
        },
        duration_us: 20_000_000,
        ..loaded()
    };
    type Serve = (&'static str, fn(&OpenConfig) -> OpenOutcome);
    let serves: [Serve; 3] = [
        ("Oblivious", |c| serve(c, Box::new(ZeroEstimator))),
        ("Latest", |c| {
            serve(c, Box::new(LatestQuantumEstimator::new()))
        }),
        ("Latest with a Latest shadow", |c| {
            let ests: Vec<Box<dyn BandwidthEstimator>> = vec![
                Box::new(LatestQuantumEstimator::new()),
                Box::new(LatestQuantumEstimator::new()),
            ];
            serve_group(c, ests, |_| panic!("equal estimators never split")).outcome
        }),
    ];
    for (name, run) in serves {
        let (coarse_n, coarse) = counted(|| run(&cfg(200_000)));
        let (fine_n, fine) = counted(|| run(&cfg(50_000)));
        println!(
            "{name}: {coarse_n} allocations over {} quanta, {fine_n} over {}",
            coarse.quanta, fine.quanta
        );
        assert_eq!(
            (coarse.arrived, coarse.shed, coarse.served),
            (fine.arrived, fine.shed, fine.served),
            "{name}: the quantum moved the clients"
        );
        assert!(fine.quanta >= 4 * coarse.quanta);
        assert_eq!(
            coarse_n,
            fine_n,
            "{name}: {} more quanta made {} more allocations",
            fine.quanta - coarse.quanta,
            fine_n as i64 - coarse_n as i64
        );
    }
}

/// Every stack, and the figure's group serve, per admitted client.
fn a_loaded_serve_stays_inside_its_per_client_budget() {
    let cfg = loaded();
    let check = |name: &str, n: u64, clients: u64| {
        let per_client = n as f64 / clients as f64;
        println!("{name}: {n} allocations, {clients} admitted, {per_client:.2} per client");
        assert!(clients > 1_000, "{name}: a loaded serve admits thousands");
        assert!(
            per_client <= BUDGET_PER_CLIENT,
            "{name}: {per_client:.2} allocations per admitted client, budget {BUDGET_PER_CLIENT}"
        );
    };
    for (name, stack) in STACKS {
        let (n, o) = counted(|| serve(&cfg, stack()));
        check(name, n, admitted(&o));
    }
    // The figure's own shape: the three stacks as one group, and the
    // class that splits off served again as a group of its own.
    let (n, clients) = counted(|| {
        let mut left = Vec::new();
        let first = serve_group(&cfg, STACKS.map(|(_, s)| s()).into(), |l| left.push(l));
        let mut clients = admitted(&first.outcome);
        for class in left {
            let ests = class.iter().map(|&m| STACKS[m].1()).collect();
            clients += admitted(&serve_group(&cfg, ests, |_| {}).outcome);
        }
        clients
    });
    check("group of the three, and split", n, clients);
}
