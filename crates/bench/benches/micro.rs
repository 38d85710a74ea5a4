//! Microbenchmarks of the hot kernels: per-tick bus arbitration (the Λ
//! memo hit and the full solve), gang selection, cache dynamics,
//! estimators, and whole-machine tick throughput. These bound the
//! simulator's own overhead and the per-quantum cost of the scheduling
//! policies (the user-level manager's decision path).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use busbw_core::estimator::{BandwidthEstimator, QuantaWindowEstimator};
use busbw_core::model::predict_set_value;
use busbw_core::{fitness, linux_like, select_gangs, Candidate, DemandTracker};
use busbw_metrics::MovingWindow;
use busbw_sim::{
    AppDescriptor, BusConfig, BusModel, BusRequest, CacheConfig, CacheState, ConstantDemand, CpuId,
    FsbBus, Machine, StopCondition, ThreadId, ThreadSpec, XEON_4WAY,
};

fn reqs(n: usize) -> Vec<BusRequest> {
    (0..n)
        .map(|i| BusRequest {
            thread: ThreadId(i as u64),
            rate: 3.0 + (i as f64) * 2.5,
            mu: 0.1 + 0.8 * (i as f64 / n as f64),
            socket: 0,
            remote: 0.0,
        })
        .collect()
}

fn bench_bus(c: &mut Criterion) {
    let mut g = c.benchmark_group("bus_arbitration");
    let mut fsb = FsbBus::new(BusConfig::default());
    for n in [2usize, 4, 8, 16] {
        let r = reqs(n);
        // The steady-state fast path: the demand set is unchanged from the
        // previous tick, so the memoized Λ is reused and only the shares
        // are rebuilt.
        g.bench_with_input(BenchmarkId::new("fsb_memo_hit", n), &r, |b, r| {
            fsb.arbitrate(r); // prime the memo
            b.iter(|| black_box(fsb.arbitrate(r)))
        });
        // The full solve: two alternating demand sets defeat the memo, so
        // every call re-solves Λ (warm-started from the previous root).
        let r2: Vec<BusRequest> = r
            .iter()
            .map(|q| BusRequest {
                thread: q.thread,
                rate: q.rate * 1.07,
                mu: q.mu,
                socket: 0,
                remote: 0.0,
            })
            .collect();
        g.bench_with_input(BenchmarkId::new("fsb_full_solve", n), &r, |b, r| {
            b.iter(|| {
                black_box(fsb.arbitrate(r));
                black_box(fsb.arbitrate(&r2))
            })
        });
    }
    g.finish();
}

fn bench_selection(c: &mut Criterion) {
    let mut g = c.benchmark_group("policy_selection");
    for n in [4usize, 8, 32, 128] {
        let cands: Vec<Candidate<u32>> = (0..n)
            .map(|i| Candidate {
                key: i as u32,
                width: 1 + (i % 3),
                bbw_per_thread: (i as f64 * 1.7) % 24.0,
            })
            .collect();
        g.bench_with_input(BenchmarkId::new("select_gangs", n), &cands, |b, cands| {
            b.iter(|| black_box(select_gangs(cands, 4, 29.5)))
        });
    }
    g.bench_function("fitness_eq1", |b| {
        b.iter(|| black_box(fitness(black_box(7.4), black_box(11.65))))
    });
    g.bench_function("demand_reconstruction", |b| {
        let mut t = DemandTracker::new();
        b.iter(|| black_box(t.observe(busbw_sim::AppId(1), black_box(4.87), black_box(2.63))))
    });
    g.bench_function("model_predict_4_jobs", |b| {
        let jobs = [(2usize, 11.65, 1.0), (1, 23.6, 1.0), (1, 23.6, 1.0)];
        b.iter(|| black_box(predict_set_value(black_box(&jobs), 29.5)))
    });
    g.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache_model");
    let mut cache = CacheState::new(4, CacheConfig::default());
    let placement = [
        Some(ThreadId(0)),
        Some(ThreadId(1)),
        Some(ThreadId(2)),
        Some(ThreadId(3)),
    ];
    // Warm some state in first.
    cache.advance(&placement, 50_000.0);
    g.bench_function("advance_4cpu_tick", |b| {
        b.iter(|| cache.advance(black_box(&placement), black_box(100.0)))
    });
    g.bench_function("warmth_lookup", |b| {
        b.iter(|| black_box(cache.warmth(CpuId(0), ThreadId(0))))
    });
    g.finish();
}

fn bench_estimators(c: &mut Criterion) {
    let mut g = c.benchmark_group("estimators");
    g.bench_function("quanta_window_record_estimate", |b| {
        let mut e = QuantaWindowEstimator::new();
        let app = busbw_sim::AppId(1);
        b.iter(|| {
            e.record_sample(app, black_box(11.65));
            black_box(e.estimate(app))
        })
    });
    g.bench_function("moving_window_push_mean", |b| {
        let mut w = MovingWindow::new(5);
        b.iter(|| {
            w.push(black_box(3.3));
            black_box(w.mean())
        })
    });
    g.finish();
}

fn bench_prof(c: &mut Criterion) {
    use busbw_sim::{solve_lambda, Phase, PhaseTimer};

    let mut g = c.benchmark_group("prof");
    // The cost the engine pays per phase when profiling is off: this must
    // stay at one predicted branch (single-digit ns for the whole
    // begin/end pair), because every production tick pays it eight times.
    g.bench_function("phase_timer_disabled_pair", |b| {
        let mut t = PhaseTimer::new();
        b.iter(|| {
            let tok = t.begin();
            t.end(black_box(Phase::Solve), tok);
        })
    });
    // The enabled cost: two clock reads plus a histogram bucket — the
    // constant every attributed phase carries, reported so profile tables
    // can be read with the skew in mind.
    g.bench_function("phase_timer_enabled_pair", |b| {
        let mut t = PhaseTimer::new();
        t.set_enabled(true);
        b.iter(|| {
            let tok = t.begin();
            t.end(black_box(Phase::Solve), tok);
        })
    });
    // The Newton Λ kernel alone (no bus wrapper, no memo): the floor under
    // every saturated tick the request memo cannot absorb. Cold start
    // (warm = NaN is never accepted) at the lane counts the tick engine
    // actually sees.
    for n in [2usize, 4, 8, 16] {
        let r = reqs(n);
        let cap: f64 = r.iter().map(|q| q.rate).sum::<f64>() * 0.6;
        g.bench_with_input(BenchmarkId::new("solve_lambda_cold", n), &r, |b, r| {
            b.iter(|| black_box(solve_lambda(black_box(r), black_box(cap), f64::NAN)))
        });
        // Warm-started from its own root: the one-eval acceptance path.
        let root = solve_lambda(&r, cap, f64::NAN);
        g.bench_with_input(BenchmarkId::new("solve_lambda_warm", n), &r, |b, r| {
            b.iter(|| black_box(solve_lambda(black_box(r), black_box(cap), black_box(root))))
        });
    }
    g.finish();
}

fn bench_machine(c: &mut Criterion) {
    let mut g = c.benchmark_group("machine");
    g.sample_size(20);
    // A second of simulated time, 8 threads, Linux baseline: measures raw
    // simulation throughput (ticks/sec).
    g.bench_function("one_simulated_second_8_threads", |b| {
        b.iter(|| {
            let mut m = Machine::new(XEON_4WAY);
            for i in 0..4 {
                let threads = (0..2)
                    .map(|_| {
                        ThreadSpec::new(f64::INFINITY, Box::new(ConstantDemand::new(5.0, 0.6)))
                    })
                    .collect();
                m.add_app(AppDescriptor::new(format!("a{i}"), threads));
            }
            let mut s = linux_like();
            black_box(m.run(&mut s, StopCondition::At(1_000_000)))
        })
    });
    g.finish();
}

fn bench_manager(c: &mut Criterion) {
    use busbw_core::estimator::QuantaWindowEstimator as QW;
    use busbw_core::manager::{AppRuntime, CpuManager, ManagerConfig};

    // The manager's whole per-quantum decision path (pump + settle +
    // rotate + select + signal) with the paper's workload size (6 jobs):
    // this is the overhead the paper bounds at ≤ 4.5 % of a 200 ms
    // quantum — i.e. the decision must cost far less than 9 ms.
    let mut g = c.benchmark_group("cpu_manager");
    let (mut mgr, handle) = CpuManager::new(ManagerConfig::default(), Box::new(QW::new()));
    let mut apps = Vec::new();
    for i in 0..6 {
        let pending =
            AppRuntime::request_connect(&handle, format!("job{i}")).expect("manager alive");
        mgr.pump();
        let mut app = pending.complete().expect("manager alive");
        let w = if i < 2 { 2 } else { 1 };
        for _ in 0..w {
            let th = app.register_thread().expect("manager alive");
            th.count_transactions(1000);
        }
        mgr.pump();
        app.publish_sample(100_000 * (i as u64 + 1));
        apps.push(app);
    }
    g.bench_function("quantum_decision_6_jobs", |b| {
        b.iter(|| black_box(mgr.quantum().len()))
    });
    g.bench_function("sample_6_jobs", |b| {
        b.iter(|| {
            mgr.sample();
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_bus,
    bench_selection,
    bench_cache,
    bench_estimators,
    bench_prof,
    bench_machine,
    bench_manager
);
criterion_main!(benches);
