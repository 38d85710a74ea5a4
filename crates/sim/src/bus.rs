//! The shared front-side bus.
//!
//! All results in the paper flow from one physical fact: the bus serves at
//! most ~29.5 transactions/µs, and threads that collectively demand more
//! stall each other. This module turns a set of per-thread demands into
//! per-thread *speeds* and *issue rates* for one simulation tick.
//!
//! The model works in terms of a **uniform memory dilation factor Λ**:
//! every thread's memory phases take Λ× longer than solo. Given demands
//! `d_i` and memory-boundness `µ_i`, a thread's speed is
//!
//! ```text
//! s_i = 1 / ((1 − µ_i) + µ_i·Λ)          (Amdahl-style dilation)
//! issue_i = d_i · s_i                     (traffic tracks progress)
//! ```
//!
//! * Below saturation Λ = 1 + κ·ρ^p — a mild convex queueing penalty in the
//!   bus-utilization ρ (the paper's Fig. 1B shows moderate applications
//!   losing a few percent when sharing an unsaturated bus).
//! * At saturation Λ is the root of `Σ d_i / ((1−µ_i) + µ_i·Λ) = C_eff`,
//!   so aggregate issued traffic exactly equals effective capacity: the
//!   bus is conserved, and bandwidth is shared in proportion to demand —
//!   the behaviour of a round-robin arbiter among continuously-stalled
//!   masters, and the regime in which the paper measures 2–3× slowdowns
//!   for memory-intensive applications running against BBMA.
//! * `C_eff` shrinks slightly per active master (arbitration overhead),
//!   see [`crate::BusConfig::effective_capacity`].
//!
//! A [`Bus`] solves Λ once per level of its topology: the paper's machine
//! has one level, a multi-socket machine one per socket plus the
//! interconnect.

use crate::config::{BusConfig, TopologyConfig};
use crate::ids::ThreadId;

/// One thread's demand presented to the bus for a tick.
///
/// `PartialEq` compares the raw fields bitwise-style (`f64` equality);
/// each level of a [`Bus`] uses it to detect an unchanged demand set and
/// skip the Λ solve entirely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusRequest {
    /// The requesting thread.
    pub thread: ThreadId,
    /// Effective solo demand for this tick, tx/µs (cache-cold boosts
    /// already applied by the machine).
    pub rate: f64,
    /// Memory-boundness in `[0, 1]`.
    pub mu: f64,
    /// The socket the thread is executing on this tick; its rate is
    /// charged to this socket's local bus.
    pub socket: usize,
    /// Fraction of this thread's traffic that also crosses the
    /// cross-socket interconnect (see
    /// `crate::config::TopologyConfig::remote_share`). 0 on a
    /// single-socket machine.
    pub remote: f64,
}

/// The bus's answer for one thread.
#[derive(Debug, Clone, Copy)]
pub struct BusShare {
    /// The thread.
    pub(crate) thread: ThreadId,
    /// Speed factor in `(0, 1]` relative to solo execution.
    pub speed: f64,
    /// Transactions/µs actually issued (`rate × speed`).
    pub(crate) issue_rate: f64,
}

/// The bus's answer for a whole tick.
#[derive(Debug, Clone, Default)]
pub struct BusOutcome {
    /// Per-thread shares, in the order of the requests.
    pub shares: Vec<BusShare>,
    /// The whole bus: Σ demand and Σ issued over every request, the sum
    /// of the local buses' effective capacities, and the bottleneck
    /// level's dilation, utilization and saturation.
    pub total: LevelOutcome,
}

/// The state of one topology level (a socket's local bus, or the
/// cross-socket interconnect) after an arbitration.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LevelOutcome {
    /// Σ demand charged to this level, tx/µs (interconnect demand is
    /// already scaled by each request's remote fraction).
    pub demand: f64,
    /// Σ traffic actually issued through this level, tx/µs.
    pub issued: f64,
    /// Effective capacity of this level for this request set, tx/µs.
    pub effective_capacity: f64,
    /// The dilation Λ this level imposes on the requests crossing it.
    pub dilation: f64,
    /// Utilization ρ = min(demand / effective_capacity, 1).
    pub utilization: f64,
    /// Whether demand charged to this level exceeded its capacity.
    pub saturated: bool,
}

impl LevelOutcome {
    /// A level with no requests.
    fn idle(capacity: f64) -> Self {
        Self {
            effective_capacity: capacity,
            dilation: 1.0,
            ..Self::default()
        }
    }
}

/// The largest number of topology levels tracked per-level in fixed-size
/// accounting (`crate::stats::RunStats` arrays): 4 sockets + the
/// interconnect. Wider topologies still simulate correctly; levels past
/// this many fold into the last accounting slot.
pub const MAX_BUS_LEVELS: usize = 5;

/// Amdahl-style dilation speed at dilation Λ.
#[inline]
pub(crate) fn dilated_speed(mu: f64, lambda: f64) -> f64 {
    1.0 / ((1.0 - mu) + mu * lambda)
}

/// Ceiling on the saturation dilation: returned when the request set is
/// physically inconsistent (λ-insensitive demand above capacity) or the
/// Newton step diverges past any meaningful dilation.
const LAMBDA_MAX: f64 = 1e9;

/// Solve `Σ d_i/((1−µ_i)+µ_i·λ) = cap` for the saturation dilation λ ≥ 1.
///
/// The left side `f(λ)` is strictly decreasing and convex in λ for any
/// thread with µ > 0, so Newton's method started left of the root
/// converges monotonically (tangents of a convex function never overshoot
/// the root from the left) and quadratically — typically 3–6 iterations,
/// fewer when `warm` (the previous tick's λ) is still left of the root.
///
/// Edge cases, each pinned by a unit test below:
/// * **Empty or all-zero-rate request sets** never exceed capacity, so
///   `f(1) ≤ 0` and the cold start λ = 1 is returned unchanged.
/// * **All-µ = 0 demand above capacity** is λ-insensitive (`f' = 0`
///   everywhere): no dilation can shed it, so [`LAMBDA_MAX`] is returned
///   and conservation is best-effort.
/// * **Exactly saturated** demand (`Σ dᵢ = cap` at λ = 1) has its root at
///   the left boundary: the first iteration sees `f(1) = 0` and returns
///   λ = 1 without stepping.
/// * **A single fully memory-bound thread** (µ = 1, rate = k·cap)
///   degenerates to `d/λ = cap` with the exact root λ = k; Newton reaches
///   it in one step from any warm start left of the root.
///
/// Bit-determinism: the result depends only on `(reqs, cap, warm)` — the
/// request iteration order and every arithmetic operation are fixed.
pub(crate) fn solve_lambda(reqs: &[BusRequest], cap: f64, warm: f64) -> f64 {
    let n = reqs.len();
    if n <= SOLVE_INLINE_LANES {
        // Hot sizes (one request per cpu) are unpacked once into dense
        // stack lanes with the `1 − µ` term hoisted out of the Newton
        // evaluations. Bit-identical to the general path: the same
        // subtraction, performed once instead of once per evaluation.
        let mut rate = [0.0f64; SOLVE_INLINE_LANES];
        let mut mu = [0.0f64; SOLVE_INLINE_LANES];
        let mut one_minus_mu = [0.0f64; SOLVE_INLINE_LANES];
        for (i, r) in reqs.iter().enumerate() {
            rate[i] = r.rate;
            mu[i] = r.mu;
            one_minus_mu[i] = 1.0 - r.mu;
        }
        newton(
            |lambda| lanes_f_and_slope(&rate[..n], &mu[..n], &one_minus_mu[..n], cap, lambda),
            warm,
        )
    } else {
        newton(
            |lambda| {
                let mut f = -cap;
                let mut fp = 0.0;
                for r in reqs {
                    let denom = (1.0 - r.mu) + r.mu * lambda;
                    let term = r.rate / denom;
                    f += term;
                    fp -= term * r.mu / denom;
                }
                (f, fp)
            },
            warm,
        )
    }
}

/// Request sets up to this size solve over stack-allocated SoA lanes; one
/// request per cpu means real machines sit far below it.
const SOLVE_INLINE_LANES: usize = 16;

/// The Newton iteration of [`solve_lambda`]: `eval` returns `(f, f')` at a
/// trial λ.
///
/// The accepted-warm-start evaluation is reused for the first iteration —
/// the values are the ones the first loop pass would recompute at the same
/// λ, so the iterate sequence (and thus the result) is unchanged while the
/// hot path saves one full evaluation per warm-started solve.
fn newton(mut eval: impl FnMut(f64) -> (f64, f64), warm: f64) -> f64 {
    let mut lambda = 1.0;
    let mut cached = None;
    if warm > 1.0 && warm.is_finite() {
        let e = eval(warm);
        if e.0 > 0.0 {
            lambda = warm;
            cached = Some(e);
        }
    }
    for _ in 0..64 {
        let (f, fp) = match cached.take() {
            Some(e) => e,
            None => eval(lambda),
        };
        if f <= 0.0 {
            // At (or an ulp past) the root.
            break;
        }
        if fp >= 0.0 {
            // Demand is λ-insensitive (all µ = 0) yet above capacity.
            return LAMBDA_MAX;
        }
        let next = lambda - f / fp;
        if next > LAMBDA_MAX {
            return LAMBDA_MAX;
        }
        // Converged to machine precision (also catches a NaN step,
        // which compares as not-greater).
        if next.partial_cmp(&lambda) != Some(std::cmp::Ordering::Greater) {
            break;
        }
        lambda = next;
    }
    lambda
}

/// Evaluate f(λ) = Σ dᵢ/(aᵢ + bᵢλ) − cap and its derivative over one SoA
/// lane whose `1 − µ` terms are precomputed. Same iteration order and op
/// sequence as the general path inside [`solve_lambda`] (the hoisted
/// subtraction yields the identical value), so the two are bit-identical.
/// Dense `f64` lanes with no per-element branches keep the loop open to
/// autovectorization.
#[inline]
fn lanes_f_and_slope(
    rate: &[f64],
    mu: &[f64],
    one_minus_mu: &[f64],
    cap: f64,
    lambda: f64,
) -> (f64, f64) {
    let mut f = -cap;
    let mut fp = 0.0;
    for ((d, m), a) in rate.iter().zip(mu.iter()).zip(one_minus_mu.iter()) {
        let denom = a + m * lambda;
        let term = d / denom;
        f += term;
        fp -= term * m / denom;
    }
    (f, fp)
}

/// Memoized queueing power: `powf` costs as much as a whole Newton
/// evaluation and every saturated solve computes it at utilization
/// exactly 1.0 (ρ is clamped), so one (input, output) pair answers nearly
/// every call on the hot path. The exponent is fixed per level, so the
/// pair keys on utilization alone; the reused value is the exact `powf`
/// result, keeping the solve bit-identical.
#[derive(Debug, Clone, Copy)]
struct Pow {
    u: f64,
    v: f64,
}

impl Pow {
    fn get(&mut self, u: f64, exponent: f64) -> f64 {
        if u != self.u {
            self.u = u;
            self.v = u.powf(exponent);
        }
        self.v
    }
}

/// Solve one level for `reqs`, warm-starting the saturated root at
/// `warm` (≤ 1 means a cold start). `issued` is left at 0.
///
/// Below saturation the queueing term provides the (small, convex)
/// contention penalty; at deep saturation the root dominates, and taking
/// the max keeps aggregate issued traffic exactly at capacity instead of
/// wasting it.
///
/// Always inlined, as is `Level::arbitrate`: left to the optimizer, a
/// one-socket miss of 4 requests takes ~10 ns (~5 %) longer (release
/// build, 2-vCPU x86-64 host).
#[inline(always)]
fn solve(cfg: &BusConfig, reqs: &[BusRequest], warm: f64, pow: &mut Pow) -> LevelOutcome {
    // One fused pass counts active masters and sums demand.
    let mut n_masters = 0usize;
    let mut demand = 0.0f64;
    for r in reqs {
        if r.rate > cfg.active_master_threshold {
            n_masters += 1;
        }
        demand += r.rate;
    }
    let cap = cfg.effective_capacity(n_masters);
    let utilization = (demand / cap).min(1.0);
    let saturated = demand > cap;
    let lambda_sat = if saturated {
        solve_lambda(reqs, cap, warm)
    } else {
        1.0
    };
    let queueing = cfg.queueing_coeff * pow.get(utilization, cfg.queueing_exponent);
    LevelOutcome {
        demand,
        issued: 0.0,
        effective_capacity: cap,
        dilation: lambda_sat.max(1.0 + queueing),
        utilization,
        saturated,
    }
}

/// One level's solver. Between ticks it keeps the previous request set
/// and its solution: an identical request sequence (the common case once
/// caches are warm and demands are phase-constant) reuses the solution
/// outright, and a changed set warm-starts the root solve from the
/// previous Λ.
#[derive(Debug, Clone)]
struct Level {
    cfg: BusConfig,
    /// The request sequence `last` solved; empty until the first solve.
    reqs: Vec<BusRequest>,
    /// The last solve. Its Λ warm-starts the next one (0 before the
    /// first: a cold start).
    last: LevelOutcome,
    hits: u64,
    misses: u64,
    pow: Pow,
}

impl Level {
    fn new(cfg: BusConfig) -> Self {
        Self {
            cfg,
            reqs: Vec::new(),
            last: LevelOutcome::default(),
            hits: 0,
            misses: 0,
            pow: Pow {
                u: f64::NAN,
                v: f64::NAN,
            },
        }
    }

    /// This level's outcome for `reqs` (`issued` left at 0). An empty
    /// set leaves the memo alone.
    #[inline(always)]
    fn arbitrate(&mut self, reqs: &[BusRequest]) -> LevelOutcome {
        if reqs.is_empty() {
            return LevelOutcome::idle(self.cfg.capacity_tx_per_us);
        }
        if self.reqs == reqs {
            self.hits += 1;
        } else {
            self.misses += 1;
            self.reqs.clear();
            self.reqs.extend_from_slice(reqs);
            self.last = solve(&self.cfg, reqs, self.last.dilation, &mut self.pow);
        }
        self.last
    }
}

/// The bus of a machine: one local bus per socket (each parameterized by
/// the same [`BusConfig`]) and, with more than one socket, a shared
/// cross-socket interconnect.
///
/// A request charges every level it crosses: its full rate on the local
/// bus of the socket it executes on, and `remote × rate` on the
/// interconnect. Λ is solved **per level** — same arbitration derate,
/// saturated `solve_lambda` root with a per-level warm-start memo,
/// sub-saturation queueing penalty; the interconnect zeroes the
/// per-master derate, as a point-to-point link does not re-arbitrate per
/// master — and a thread's grant is the min across the levels it
/// touches: its effective dilation is
/// `max(Λ_local(socket), Λ_interconnect if remote > 0)`.
///
/// At one socket the requests go straight to the single local bus: no
/// interconnect level exists, and `Bus::levels` is empty.
///
/// Deterministic: the same sequence of calls since construction yields
/// the same outcomes. (A warm-started solve may differ by an ulp for the
/// same request set under a different call history; history replays
/// identically.) A clone carries the memo, so a forked machine continues
/// bit-identically.
#[derive(Debug, Clone)]
pub struct Bus {
    /// One solver per level: sockets `0..N`, then the interconnect when
    /// N > 1.
    solvers: Vec<Level>,
    /// Per-socket request scratch; empty at one socket.
    local: Vec<Vec<BusRequest>>,
    /// Interconnect request scratch (rates pre-scaled by `remote`).
    inter: Vec<BusRequest>,
    /// Per-level outcomes of the last arbitration, in `solvers` order;
    /// empty at one socket.
    levels: Vec<LevelOutcome>,
}

impl Bus {
    /// A bus over `topo` whose per-socket local buses use `cfg` (the
    /// interconnect inherits the queueing shape but uses the topology's
    /// capacity and no per-master derate).
    pub fn new(cfg: BusConfig, topo: TopologyConfig) -> Self {
        let sockets = topo.sockets.max(1);
        let mut bus = Self {
            solvers: vec![Level::new(cfg); sockets],
            local: Vec::new(),
            inter: Vec::new(),
            levels: Vec::new(),
        };
        if sockets > 1 {
            bus.solvers.push(Level::new(BusConfig {
                capacity_tx_per_us: topo.interconnect_tx_per_us,
                arbitration_per_master: 0.0,
                ..cfg
            }));
            bus.local = vec![Vec::new(); sockets];
            bus.levels = vec![LevelOutcome::default(); sockets + 1];
        }
        bus
    }

    /// Resolve one tick's demands into a fresh outcome.
    pub fn arbitrate(&mut self, reqs: &[BusRequest]) -> BusOutcome {
        let mut out = BusOutcome::default();
        self.arbitrate_into(reqs, &mut out);
        out
    }

    /// Resolve one tick's demands into `out`, reusing its allocations.
    pub(crate) fn arbitrate_into(&mut self, reqs: &[BusRequest], out: &mut BusOutcome) {
        out.shares.clear();
        if self.levels.is_empty() {
            let level = self.solvers[0].arbitrate(reqs);
            let issued = push_shares(reqs, &mut out.shares, |_| level.dilation);
            out.total = LevelOutcome { issued, ..level };
            return;
        }
        let sockets = self.local.len();
        for l in &mut self.local {
            l.clear();
        }
        self.inter.clear();
        for r in reqs {
            self.local[r.socket.min(sockets - 1)].push(*r);
            if r.remote > 0.0 {
                self.inter.push(BusRequest {
                    rate: r.rate * r.remote,
                    ..*r
                });
            }
        }
        // Solve each level independently (sockets in index order, then
        // the interconnect): a fixed order keeps every level's memo
        // coherent.
        for (k, solver) in self.solvers.iter_mut().enumerate() {
            let reqs = self.local.get(k).unwrap_or(&self.inter);
            self.levels[k] = solver.arbitrate(reqs);
        }
        // Each thread is dilated by the worst level it touches, and its
        // issued traffic is attributed to every level it crosses.
        let lambda_inter = self.levels[sockets].dilation;
        let levels = &self.levels;
        let issued = push_shares(reqs, &mut out.shares, |r| {
            let lambda = levels[r.socket.min(sockets - 1)].dilation;
            if r.remote > 0.0 && lambda_inter > lambda {
                lambda_inter
            } else {
                lambda
            }
        });
        let mut demand = 0.0;
        for (r, s) in reqs.iter().zip(&out.shares) {
            demand += r.rate;
            self.levels[r.socket.min(sockets - 1)].issued += s.issue_rate;
            if r.remote > 0.0 {
                self.levels[sockets].issued += s.issue_rate * r.remote;
            }
        }
        // Whole-bus summary: capacity is the sum of the local-bus
        // ceilings (the interconnect constrains a subset, it adds no
        // issue capacity); dilation/utilization/saturation report the
        // bottleneck level.
        let mut total = LevelOutcome {
            demand,
            issued,
            ..LevelOutcome::idle(0.0)
        };
        for (k, lvl) in self.levels.iter().enumerate() {
            if k < sockets {
                total.effective_capacity += lvl.effective_capacity;
            }
            total.dilation = total.dilation.max(lvl.dilation);
            total.utilization = total.utilization.max(lvl.utilization);
            total.saturated |= lvl.saturated;
        }
        out.total = total;
    }

    /// Nominal (single-master) sustained capacity of the local buses
    /// together, tx/µs.
    pub(crate) fn nominal_capacity(&self) -> f64 {
        self.solvers[0].cfg.capacity_tx_per_us * self.local.len().max(1) as f64
    }

    /// Memoization counters `(hits, misses)` summed over the levels.
    pub(crate) fn memo_stats(&self) -> (u64, u64) {
        self.solvers
            .iter()
            .fold((0, 0), |(h, m), l| (h + l.hits, m + l.misses))
    }

    /// Per-level outcomes of the most recent arbitration: sockets 0..,
    /// then the interconnect. Empty at one socket.
    pub(crate) fn levels(&self) -> &[LevelOutcome] {
        &self.levels
    }

    /// A floor on the dilation Λ the bus imposes on `reqs`, and on any
    /// request set that differs from it only by higher rates (the
    /// machine's cache-cold boosts), whatever the memo holds.
    ///
    /// At one socket it is Λ of `reqs` itself, solved from a cold start:
    /// raising any rate can only add active masters, which shrinks the
    /// effective capacity, and raises the total demand, hence the
    /// queueing term, and every term of the saturation equation, whose
    /// root therefore moves right. With more sockets it is 1, which
    /// always holds: contention never makes a thread faster than solo.
    pub(crate) fn dilation_floor(&self, reqs: &[BusRequest]) -> f64 {
        if !self.levels.is_empty() {
            return 1.0;
        }
        let level = &self.solvers[0];
        let mut pow = level.pow;
        solve(&level.cfg, reqs, 1.0, &mut pow).dilation
    }
}

/// Push one share per request at the dilation `lambda_of` gives it;
/// returns Σ issued, summed in request order.
fn push_shares(
    reqs: &[BusRequest],
    shares: &mut Vec<BusShare>,
    lambda_of: impl Fn(&BusRequest) -> f64,
) -> f64 {
    let mut issued = 0.0;
    for r in reqs {
        let speed = dilated_speed(r.mu, lambda_of(r));
        let issue_rate = r.rate * speed;
        issued += issue_rate;
        shares.push(BusShare {
            thread: r.thread,
            speed,
            issue_rate,
        });
    }
    issued
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PAPER_BUS_TX_PER_US;

    fn req(id: u64, rate: f64, mu: f64) -> BusRequest {
        BusRequest {
            thread: ThreadId(id),
            rate,
            mu,
            socket: 0,
            remote: 0.0,
        }
    }

    fn one_socket() -> Bus {
        Bus::new(BusConfig::default(), TopologyConfig::default())
    }

    #[test]
    fn empty_request_set_is_trivial() {
        let out = one_socket().arbitrate(&[]);
        assert_eq!(out.total.issued, 0.0);
        assert!(!out.total.saturated);
        assert!(out.shares.is_empty());
    }

    #[test]
    fn dilation_floor_is_below_every_boosted_arbitration() {
        // Light, moderate and saturating sets, each arbitrated as given
        // and with every rate boosted up to the cache-cold 1.6×, on a
        // bus whose memo and warm start hold an unrelated earlier solve.
        let sets: [&[(f64, f64)]; 3] = [
            &[(1.0, 0.2), (0.4, 0.1)],
            &[(9.0, 0.5), (6.0, 0.4), (0.3, 0.0)],
            &[(11.6, 0.85), (11.6, 0.85), (9.75, 0.7), (10.25, 0.78)],
        ];
        for set in sets {
            let reqs: Vec<_> = (0..).zip(set).map(|(i, &(r, mu))| req(i, r, mu)).collect();
            let mut bus = one_socket();
            bus.arbitrate(&[req(9, 40.0, 1.0)]);
            let floor = bus.dilation_floor(&reqs);
            assert!(floor >= 1.0);
            for boost in [1.0, 1.01, 1.3, 1.6] {
                let boosted: Vec<_> = reqs
                    .iter()
                    .map(|r| req(r.thread.0, r.rate * boost, r.mu))
                    .collect();
                let lambda = bus.arbitrate(&boosted).total.dilation;
                assert!(
                    floor <= lambda * (1.0 + 1e-12),
                    "{set:?} ×{boost}: floor {floor} above Λ {lambda}"
                );
            }
        }
        // More than one socket keeps the floor every bus guarantees.
        let h = Bus::new(BusConfig::default(), TopologyConfig::multi(2));
        assert_eq!(h.dilation_floor(&[req(0, 40.0, 1.0)]), 1.0);
    }

    #[test]
    fn single_light_thread_runs_at_nearly_full_speed() {
        let out = one_socket().arbitrate(&[req(0, 1.0, 0.2)]);
        assert!(!out.total.saturated);
        assert!(out.shares[0].speed > 0.999, "speed {}", out.shares[0].speed);
        assert!((out.shares[0].issue_rate - 1.0).abs() < 1e-2);
    }

    #[test]
    fn saturation_conserves_capacity_exactly_for_memory_bound_threads() {
        // Four pure streamers demanding 2× capacity.
        let mut bus = one_socket();
        let reqs: Vec<_> = (0..4).map(|i| req(i, 15.0, 1.0)).collect();
        let out = bus.arbitrate(&reqs);
        assert!(out.total.saturated);
        let cap = out.total.effective_capacity;
        assert!(
            (out.total.issued - cap).abs() < 1e-6 * cap,
            "issued {} vs cap {cap}",
            out.total.issued
        );
    }

    #[test]
    fn proportional_sharing_under_saturation() {
        // Equal µ ⇒ issue rates proportional to demands.
        let mut bus = one_socket();
        let out = bus.arbitrate(&[req(0, 20.0, 1.0), req(1, 10.0, 1.0)]);
        assert!(out.total.saturated);
        let r0 = out.shares[0].issue_rate;
        let r1 = out.shares[1].issue_rate;
        assert!((r0 / r1 - 2.0).abs() < 1e-9, "ratio {}", r0 / r1);
    }

    #[test]
    fn low_mu_thread_is_nearly_immune_to_saturation() {
        // An nBBMA-like thread next to two heavy streamers.
        let mut bus = one_socket();
        let out = bus.arbitrate(&[req(0, 23.6, 1.0), req(1, 23.6, 1.0), req(2, 0.004, 0.01)]);
        assert!(out.total.saturated);
        assert!(out.shares[2].speed > 0.97, "speed {}", out.shares[2].speed);
        // While the streamers are heavily dilated.
        assert!(out.shares[0].speed < 0.7);
    }

    #[test]
    fn cg_with_two_bbma_slows_two_to_three_fold() {
        // The paper's headline motivation: a memory-intensive app
        // (CG: ~11.7 tx/µs/thread, µ high) against two BBMA streamers
        // suffers a 2–3× slowdown.
        let mut bus = one_socket();
        let out = bus.arbitrate(&[
            req(0, 11.65, 0.85),
            req(1, 11.65, 0.85),
            req(2, 23.6, 0.98),
            req(3, 23.6, 0.98),
        ]);
        let slowdown = 1.0 / out.shares[0].speed;
        assert!(
            (1.9..3.2).contains(&slowdown),
            "CG slowdown under BBMA pressure was {slowdown}"
        );
    }

    #[test]
    fn two_instances_of_heavy_app_lose_forty_to_seventy_percent() {
        // Fig 1B dark-gray shape: 2 instances × 2 threads of SP/MG/CG-class
        // applications degrade 41–61 %.
        let mut bus = one_socket();
        for (rate, mu) in [(8.5, 0.75), (9.75, 0.8), (11.65, 0.85)] {
            let reqs: Vec<_> = (0..4).map(|i| req(i, rate, mu)).collect();
            let out = bus.arbitrate(&reqs);
            let slowdown = 1.0 / out.shares[0].speed;
            assert!(
                (1.25..1.95).contains(&slowdown),
                "rate {rate}: slowdown {slowdown}"
            );
        }
    }

    #[test]
    fn subsaturation_queueing_penalty_is_small_and_convex() {
        let mut bus = one_socket();
        // Utilization ~40 %: negligible penalty.
        let low = bus.arbitrate(&[req(0, 6.0, 0.8), req(1, 6.0, 0.8)]);
        assert!(!low.total.saturated);
        assert!(low.shares[0].speed > 0.97);
        // Utilization ~90 %: a few percent.
        let high = bus.arbitrate(&[req(0, 13.0, 0.8), req(1, 13.0, 0.8)]);
        assert!(high.shares[0].speed < low.shares[0].speed);
        assert!(high.shares[0].speed > 0.75);
    }

    #[test]
    fn dilation_reduces_to_one_when_idle() {
        let out = one_socket().arbitrate(&[req(0, 0.0, 0.0)]);
        assert!((out.total.dilation - 1.0).abs() < 1e-9);
        assert_eq!(out.shares[0].speed, 1.0);
    }

    #[test]
    fn lambda_solver_handles_mu_zero_threads() {
        // µ=0 threads contribute constant traffic; solver must not hang.
        let mut bus = one_socket();
        let out = bus.arbitrate(&[req(0, 40.0, 1.0), req(1, 2.0, 0.0)]);
        assert!(out.total.saturated);
        assert!(out.total.issued <= out.total.effective_capacity + 2.0 + 1e-6);
    }

    #[test]
    fn saturation_without_overheads_shares_in_proportion() {
        // No arbitration derate and no queueing: two fully memory-bound
        // threads at 25 tx/µs on the 29.5 tx/µs bus dilate by ΣD/C, so
        // each runs at exactly C/ΣD.
        let cfg = BusConfig {
            arbitration_per_master: 0.0,
            queueing_coeff: 0.0,
            ..BusConfig::default()
        };
        let out = Bus::new(cfg, TopologyConfig::default())
            .arbitrate(&[req(0, 25.0, 1.0), req(1, 25.0, 1.0)]);
        assert!(out.total.saturated);
        for s in &out.shares {
            assert!((s.speed - PAPER_BUS_TX_PER_US / 50.0).abs() < 1e-9);
        }
    }

    #[test]
    fn unchanged_demand_set_reuses_memo_bit_identically() {
        let mut bus = one_socket();
        let reqs: Vec<_> = (0..4).map(|i| req(i, 15.0, 0.9)).collect();
        let a = bus.arbitrate(&reqs);
        assert_eq!(bus.memo_stats(), (0, 1));
        let b = bus.arbitrate(&reqs);
        assert_eq!(bus.memo_stats(), (1, 1));
        assert_eq!(a.total.dilation.to_bits(), b.total.dilation.to_bits());
        assert_eq!(a.total.issued.to_bits(), b.total.issued.to_bits());
        for (x, y) in a.shares.iter().zip(&b.shares) {
            assert_eq!(x.speed.to_bits(), y.speed.to_bits());
            assert_eq!(x.issue_rate.to_bits(), y.issue_rate.to_bits());
        }
        // Any change to the demand set falls back to the full solve.
        let mut reqs2 = reqs.clone();
        reqs2[0].rate += 1.0;
        bus.arbitrate(&reqs2);
        assert_eq!(bus.memo_stats(), (1, 2));
    }

    #[test]
    fn warm_started_solve_matches_cold_solve() {
        let reqs: Vec<_> = (0..4).map(|i| req(i, 15.0, 0.9)).collect();
        let mut warm = one_socket();
        // Seed the memo with a different saturated set so the next solve
        // warm-starts from its λ.
        warm.arbitrate(&[req(9, 40.0, 1.0), req(10, 40.0, 1.0)]);
        let w = warm.arbitrate(&reqs);
        let c = one_socket().arbitrate(&reqs);
        assert!(
            (w.total.dilation - c.total.dilation).abs() <= 1e-12 * c.total.dilation,
            "warm {} vs cold {}",
            w.total.dilation,
            c.total.dilation
        );
    }

    /// Dilation, speed and issue-rate bits of the saturation-knee sweep
    /// (`examples/saturation_study.rs`: four identical µ = 0.9 streamers),
    /// one row per aggregate demand.
    fn knee_sweep(bus: &mut Bus) -> Vec<[u64; 3]> {
        let mut rows = Vec::new();
        for total in [8.0, 16.0, 24.0, 26.0, 28.0, 30.0, 34.0, 40.0, 60.0, 80.0] {
            let reqs: Vec<_> = (0..4).map(|i| req(i, total / 4.0, 0.9)).collect();
            // A warm re-solve from the previous demand's Λ, a memo hit,
            // then an empty tick that must leave the memo alone.
            let solved = bus.arbitrate(&reqs);
            let hit = bus.arbitrate(&reqs);
            let idle = bus.arbitrate(&[]);
            assert!(idle.shares.is_empty() && idle.total.dilation == 1.0);
            let bits = |o: &BusOutcome| {
                let s = o.shares[0];
                assert!(o
                    .shares
                    .iter()
                    .all(|x| x.speed.to_bits() == s.speed.to_bits()));
                [
                    o.total.dilation.to_bits(),
                    s.speed.to_bits(),
                    s.issue_rate.to_bits(),
                ]
            };
            assert_eq!(bits(&solved), bits(&hit));
            rows.push(bits(&solved));
        }
        rows
    }

    #[test]
    fn saturation_knee_sweep_is_pinned() {
        const KNEE: [[u64; 3]; 10] = [
            [0x3ff025f0df64c6ef, 0x3fefbc455ff8937b, 0x3fffbc455ff8937b],
            [0x3ff12f86fb26377a, 0x3fedffcf74fb16e9, 0x400dffcf74fb16e9],
            [0x3ff400678fa0fb3a, 0x3fea1edc9a9525bd, 0x4013972573efdc4e],
            [0x3ff51670b4af7d0b, 0x3fe8e13eb20832e5, 0x40143702f0a6a95a],
            [0x3ff599999999999a, 0x3fe855a8653b605e, 0x40154af35893f452],
            [0x3ff599999999999a, 0x3fe855a8653b605e, 0x4016d04ddee7aa58],
            [0x3ff599999999999a, 0x3fe855a8653b605e, 0x4019db02eb8f1664],
            [0x3ff8b6349bb1ddd3, 0x3fe579db22d0e561, 0x401ad851eb851eb9],
            [0x4002fa6e91372d7b, 0x3fdca27983c131d6, 0x401ad851eb851eb9],
            [0x400999c2d4956c0d, 0x3fd579db22d0e560, 0x401ad851eb851eb8],
        ];
        let mut bus = one_socket();
        assert_eq!(knee_sweep(&mut bus), KNEE);
        assert_eq!(bus.memo_stats(), (10, 10));
    }

    #[test]
    fn two_sockets_with_only_local_traffic_on_socket_0_match_one_socket() {
        // Every request on socket 0 with no remote share: socket 0's
        // level sees exactly the one-socket request sequence, so shares
        // and Λ agree bit for bit across a history exercising a saturated
        // solve, a memo hit, an unsaturated set, an empty tick and a
        // warm-started re-solve.
        let mut one = one_socket();
        let mut two = Bus::new(BusConfig::default(), TopologyConfig::multi(2));
        let sat: Vec<_> = (0..4).map(|i| req(i, 15.0, 0.9)).collect();
        let light = [req(0, 1.0, 0.2)];
        let sat2: Vec<_> = (0..4).map(|i| req(i, 16.0, 0.95)).collect();
        for set in [&sat[..], &sat[..], &light[..], &[][..], &sat2[..]] {
            let a = one.arbitrate(set);
            let b = two.arbitrate(set);
            assert_eq!(a.total.dilation.to_bits(), b.total.dilation.to_bits());
            assert_eq!(a.total.issued.to_bits(), b.total.issued.to_bits());
            assert_eq!(a.shares.len(), b.shares.len());
            for (x, y) in a.shares.iter().zip(&b.shares) {
                assert_eq!(x.thread, y.thread);
                assert_eq!(x.speed.to_bits(), y.speed.to_bits());
                assert_eq!(x.issue_rate.to_bits(), y.issue_rate.to_bits());
            }
        }
        assert_eq!(one.memo_stats(), two.memo_stats());
    }

    // --- solve_lambda edge cases ------------------------------------

    #[test]
    fn solve_lambda_empty_and_zero_rate_requests_stay_at_unity() {
        assert_eq!(solve_lambda(&[], PAPER_BUS_TX_PER_US, 0.0), 1.0);
        assert_eq!(
            solve_lambda(&[req(0, 0.0, 0.7)], PAPER_BUS_TX_PER_US, 0.0),
            1.0
        );
        // A stale warm start must not leak through: f(warm) ≤ 0 rejects it.
        assert_eq!(
            solve_lambda(&[req(0, 0.0, 0.7)], PAPER_BUS_TX_PER_US, 5.0),
            1.0
        );
    }

    #[test]
    fn solve_lambda_all_zero_mu_above_capacity_returns_lambda_max() {
        // λ-insensitive demand above capacity: no root exists, the solver
        // must give up at the ceiling instead of looping or dividing by a
        // zero slope.
        let reqs = [req(0, 20.0, 0.0), req(1, 15.0, 0.0)];
        assert_eq!(solve_lambda(&reqs, PAPER_BUS_TX_PER_US, 0.0), 1e9);
        // Same with a (useless) warm start.
        assert_eq!(solve_lambda(&reqs, PAPER_BUS_TX_PER_US, 3.0), 1e9);
        // Below capacity the same requests are trivially unsaturated.
        assert_eq!(solve_lambda(&reqs, 40.0, 0.0), 1.0);
    }

    #[test]
    fn solve_lambda_exactly_saturated_root_is_at_the_left_boundary() {
        // Σ dᵢ at λ = 1 equals capacity exactly: f(1) = 0, so the solver
        // must return 1.0 without stepping (stepping would overshoot and
        // under-issue).
        let cap = PAPER_BUS_TX_PER_US;
        assert_eq!(solve_lambda(&[req(0, cap, 0.5)], cap, 0.0), 1.0);
        let half = cap / 2.0;
        assert_eq!(
            solve_lambda(&[req(0, half, 1.0), req(1, half, 0.3)], cap, 0.0),
            1.0
        );
    }

    #[test]
    fn solve_lambda_single_thread_degenerate_root() {
        // One fully memory-bound thread: d/λ = cap has the exact root
        // λ = d/cap. Newton on f(λ) = d/λ − cap from the left converges to
        // it; the residual at the returned λ must be ≤ 0 (never
        // over-issues).
        let cap = PAPER_BUS_TX_PER_US;
        for k in [1.5, 2.0, 7.0, 250.0] {
            let reqs = [req(0, k * cap, 1.0)];
            let lambda = solve_lambda(&reqs, cap, 0.0);
            assert!(
                (lambda - k).abs() < 1e-9 * k,
                "k={k}: λ={lambda}, expected ≈{k}"
            );
            let issued = reqs[0].rate * dilated_speed(1.0, lambda);
            assert!(
                issued <= cap * (1.0 + 1e-12),
                "over-issue: {issued} > {cap}"
            );
        }
    }

    // --- more than one socket ---------------------------------------

    fn hreq(id: u64, rate: f64, mu: f64, socket: usize, remote: f64) -> BusRequest {
        BusRequest {
            thread: ThreadId(id),
            rate,
            mu,
            socket,
            remote,
        }
    }

    #[test]
    fn hierarchical_isolates_sockets_without_remote_traffic() {
        // Streamers saturate socket 0's local bus; a light thread on
        // socket 1 with no remote traffic is untouched by them.
        let mut bus = Bus::new(BusConfig::default(), TopologyConfig::multi(2));
        let out = bus.arbitrate(&[
            hreq(0, 23.6, 0.98, 0, 0.0),
            hreq(1, 23.6, 0.98, 0, 0.0),
            hreq(2, 1.0, 0.2, 1, 0.0),
        ]);
        let lv = bus.levels();
        assert_eq!(lv.len(), 3);
        assert!(lv[0].saturated, "socket 0 must saturate: {lv:?}");
        assert!(!lv[1].saturated);
        assert!(!lv[2].saturated);
        assert_eq!(lv[2].demand, 0.0);
        assert!(out.shares[0].speed < 0.7, "streamer dilated");
        assert!(out.shares[2].speed > 0.99, "remote socket isolated");
        // Aggregate capacity spans both local buses.
        assert!(out.total.effective_capacity > PAPER_BUS_TX_PER_US);
    }

    #[test]
    fn hierarchical_interconnect_constrains_remote_traffic() {
        // Both sockets are below local capacity, but every thread sends
        // all of its traffic across the interconnect (migrated off-home):
        // the interconnect is the bottleneck and dilates everyone.
        let topo = TopologyConfig::multi(2);
        let mut bus = Bus::new(BusConfig::default(), topo);
        let all_remote: Vec<_> = (0..4)
            .map(|i| hreq(i, 13.0, 0.9, (i as usize) % 2, 1.0))
            .collect();
        let out = bus.arbitrate(&all_remote);
        let lv = bus.levels();
        assert!(!lv[0].saturated && !lv[1].saturated, "{lv:?}");
        assert!(lv[2].saturated, "interconnect must saturate: {lv:?}");
        assert!(out.total.saturated);
        assert!(out.total.dilation > 1.05);
        for s in &out.shares {
            assert!(s.speed < 0.95, "remote thread dilated: {}", s.speed);
        }
        // The same demands kept home (remote fraction 0.25) clear the
        // interconnect and run faster.
        let mut home_bus = Bus::new(BusConfig::default(), topo);
        let home: Vec<_> = (0..4)
            .map(|i| hreq(i, 13.0, 0.9, (i as usize) % 2, topo.remote_fraction))
            .collect();
        let home_out = home_bus.arbitrate(&home);
        assert!(!home_bus.levels()[2].saturated);
        for (h, r) in home_out.shares.iter().zip(&out.shares) {
            assert!(h.speed > r.speed, "home {} vs remote {}", h.speed, r.speed);
        }
    }

    #[test]
    fn hierarchical_levels_conserve_capacity() {
        // Per-level issued traffic never exceeds that level's effective
        // capacity, even with mixed home/remote saturating demand.
        let mut bus = Bus::new(BusConfig::default(), TopologyConfig::multi(2));
        let reqs: Vec<_> = (0..8)
            .map(|i| {
                let sock = (i as usize) / 4;
                let remote = if i % 3 == 0 { 1.0 } else { 0.25 };
                hreq(i, 14.0, 0.9, sock, remote)
            })
            .collect();
        let out = bus.arbitrate(&reqs);
        for (k, lv) in bus.levels().iter().enumerate() {
            assert!(
                lv.issued <= lv.effective_capacity * (1.0 + 1e-6),
                "level {k}: issued {} vs cap {}",
                lv.issued,
                lv.effective_capacity
            );
        }
        assert!(out.total.issued <= out.total.effective_capacity * (1.0 + 1e-6));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_reqs() -> impl Strategy<Value = Vec<BusRequest>> {
            prop::collection::vec((0.0f64..40.0, 0.01f64..1.0), 1..12).prop_map(|v| {
                v.into_iter()
                    .enumerate()
                    .map(|(i, (rate, mu))| BusRequest {
                        thread: ThreadId(i as u64),
                        rate,
                        mu,
                        socket: 0,
                        remote: 0.0,
                    })
                    .collect()
            })
        }

        proptest! {
            /// The bus never creates bandwidth: total issued ≤ effective
            /// capacity (within solver tolerance) whenever saturated, and
            /// ≤ total demand always.
            #[test]
            fn conservation(reqs in arb_reqs()) {
                let out = one_socket().arbitrate(&reqs);
                prop_assert!(out.total.issued <= out.total.demand + 1e-9);
                if out.total.saturated {
                    prop_assert!(out.total.issued <= out.total.effective_capacity * (1.0 + 1e-6));
                }
            }

            /// Speeds are in (0, 1] and issue rates are rate×speed.
            #[test]
            fn speeds_bounded(reqs in arb_reqs()) {
                let out = one_socket().arbitrate(&reqs);
                for (r, s) in reqs.iter().zip(&out.shares) {
                    prop_assert!(s.speed > 0.0 && s.speed <= 1.0 + 1e-12);
                    prop_assert!((s.issue_rate - r.rate * s.speed).abs() < 1e-9);
                }
            }

            /// More memory-bound threads are hurt at least as much by the
            /// same dilation.
            #[test]
            fn monotone_in_mu(rate in 1.0f64..30.0, mu_lo in 0.0f64..0.5, extra in 0.0f64..0.5) {
                let mut bus = one_socket();
                let mu_hi = (mu_lo + extra).min(1.0);
                let heavy = [
                    BusRequest { thread: ThreadId(0), rate, mu: mu_lo, socket: 0, remote: 0.0 },
                    BusRequest { thread: ThreadId(1), rate, mu: mu_hi, socket: 0, remote: 0.0 },
                    BusRequest { thread: ThreadId(2), rate: 25.0, mu: 1.0, socket: 0, remote: 0.0 },
                    BusRequest { thread: ThreadId(3), rate: 25.0, mu: 1.0, socket: 0, remote: 0.0 },
                ];
                let out = bus.arbitrate(&heavy);
                prop_assert!(out.shares[0].speed >= out.shares[1].speed - 1e-12);
            }

            /// Below saturation the only slowdown is the queueing term:
            /// every speed is 1/(1 + µκρ^p) ≥ 1 − κρ^p.
            #[test]
            fn unsaturated_slowdown_is_bounded_by_queueing(reqs in arb_reqs()) {
                let cfg = BusConfig::default();
                let out = Bus::new(cfg, TopologyConfig::default()).arbitrate(&reqs);
                if !out.total.saturated && out.total.utilization <= 0.9 {
                    let floor = 1.0
                        - cfg.queueing_coeff * out.total.utilization.powf(cfg.queueing_exponent)
                        - 1e-9;
                    for s in &out.shares {
                        prop_assert!(s.speed >= floor, "speed {} below {floor}", s.speed);
                    }
                }
            }
        }
    }
}
