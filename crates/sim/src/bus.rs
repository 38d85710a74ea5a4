//! The shared front-side bus.
//!
//! All results in the paper flow from one physical fact: the bus serves at
//! most ~29.5 transactions/µs, and threads that collectively demand more
//! stall each other. This module turns a set of per-thread demands into
//! per-thread *speeds* and *issue rates* for one simulation tick.
//!
//! The default model, [`FsbBus`], works in terms of a **uniform memory
//! dilation factor Λ**: every thread's memory phases take Λ× longer than
//! solo. Given demands `d_i` and memory-boundness `µ_i`, a thread's speed is
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
//! [`HierarchicalBus`] stacks one such solve per level of a multi-socket
//! topology.

use crate::config::{BusConfig, TopologyConfig};
use crate::ids::ThreadId;

/// One thread's demand presented to the bus for a tick.
///
/// `PartialEq` compares the raw fields bitwise-style (`f64` equality);
/// [`FsbBus`] uses it to detect an unchanged demand set and skip the Λ
/// solve entirely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusRequest {
    /// The requesting thread.
    pub thread: ThreadId,
    /// Effective solo demand for this tick, tx/µs (cache-cold boosts
    /// already applied by the machine).
    pub rate: f64,
    /// Memory-boundness in `[0, 1]`.
    pub mu: f64,
    /// The socket the thread is executing on this tick. [`FsbBus`]
    /// ignores it; a [`HierarchicalBus`] charges this socket's local bus.
    pub socket: usize,
    /// Fraction of this thread's traffic that also crosses the
    /// cross-socket interconnect (see
    /// [`crate::config::TopologyConfig::remote_share`]). 0 on a
    /// single-socket machine.
    pub remote: f64,
}

/// The bus's answer for one thread.
#[derive(Debug, Clone, Copy)]
pub struct BusShare {
    /// The thread.
    pub thread: ThreadId,
    /// Speed factor in `(0, 1]` relative to solo execution.
    pub speed: f64,
    /// Transactions/µs actually issued (`rate × speed`).
    pub issue_rate: f64,
}

/// The bus's answer for a whole tick.
#[derive(Debug, Clone)]
pub struct BusOutcome {
    /// Per-thread shares, in the order of the requests.
    pub shares: Vec<BusShare>,
    /// Σ demands, tx/µs.
    pub total_demand: f64,
    /// Σ issued, tx/µs.
    pub total_issued: f64,
    /// Effective capacity after arbitration derating, tx/µs.
    pub effective_capacity: f64,
    /// The uniform memory-dilation factor Λ applied (1 = uncontended).
    pub dilation: f64,
    /// Utilization ρ = min(total_demand / effective_capacity, 1).
    pub utilization: f64,
    /// Whether demand exceeded effective capacity.
    pub saturated: bool,
}

impl BusOutcome {
    /// An outcome with no requests (idle bus).
    pub fn empty(capacity: f64) -> Self {
        Self {
            shares: Vec::new(),
            total_demand: 0.0,
            total_issued: 0.0,
            effective_capacity: capacity,
            dilation: 1.0,
            utilization: 0.0,
            saturated: false,
        }
    }

    /// Reset to the idle state in place, keeping the `shares` allocation.
    fn reset(&mut self, capacity: f64) {
        self.shares.clear();
        self.total_demand = 0.0;
        self.total_issued = 0.0;
        self.effective_capacity = capacity;
        self.dilation = 1.0;
        self.utilization = 0.0;
        self.saturated = false;
    }
}

/// The state of one topology level (a socket's local bus, or the
/// cross-socket interconnect) after an arbitration. Exposed by
/// [`BusModel::levels`] so the machine can account per-level pressure
/// without downcasting the boxed model.
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

/// The largest number of topology levels tracked per-level in fixed-size
/// accounting ([`crate::stats::RunStats`] arrays): 4 sockets + the
/// interconnect. Wider topologies still simulate correctly; levels past
/// this many fold into the last accounting slot.
pub const MAX_BUS_LEVELS: usize = 5;

/// A bus arbitration model.
///
/// `&mut self` lets models keep scratch buffers and memoized solver state
/// between ticks. Models must stay deterministic: the same sequence of
/// calls since construction must yield the same outcomes, which the
/// machine's run-to-run reproducibility depends on. (Warm-started solvers
/// may give ulp-level different answers for the same request set under a
/// different call history; that is fine, history replays identically.)
///
/// Models are `Clone` (through [`BusModelClone`], implemented for every
/// `Clone` model) so a whole machine, memo state included, can be forked.
pub trait BusModel: Send + BusModelClone {
    /// Resolve one tick's demands into `out`, reusing its allocations.
    /// Implementations must fully overwrite `out` (including clearing
    /// `shares`).
    fn arbitrate_into(&mut self, reqs: &[BusRequest], out: &mut BusOutcome);

    /// Resolve one tick's demands into a fresh outcome (convenience).
    fn arbitrate(&mut self, reqs: &[BusRequest]) -> BusOutcome {
        let mut out = BusOutcome::empty(self.nominal_capacity());
        self.arbitrate_into(reqs, &mut out);
        out
    }

    /// Nominal (single-master) sustained capacity, tx/µs.
    fn nominal_capacity(&self) -> f64;

    /// Memoization counters `(hits, misses)` for models that cache their
    /// Λ solve, `None` for models without a memo. Lets run manifests
    /// report the memo hit rate without downcasting through
    /// `Box<dyn BusModel>`.
    fn memo_stats(&self) -> Option<(u64, u64)> {
        None
    }

    /// Per-level outcomes of the most recent arbitration, in a fixed
    /// order (sockets 0.., then the interconnect last). Single-level
    /// models return the empty slice, which the machine reads as "no
    /// per-level accounting".
    fn levels(&self) -> &[LevelOutcome] {
        &[]
    }

    /// A floor on the dilation Λ this model imposes on `reqs`, and on any
    /// request set that differs from it only by higher rates (the
    /// machine's cache-cold boosts), whatever the model's memo holds. The
    /// default, 1, is what every model guarantees: contention never makes
    /// a thread faster than solo.
    fn dilation_floor(&self, reqs: &[BusRequest]) -> f64 {
        let _ = reqs;
        1.0
    }
}

/// Boxed cloning for [`BusModel`] trait objects; blanket-implemented for
/// every model that is `Clone`.
pub trait BusModelClone {
    /// A boxed deep copy of this model, memo and scratch included.
    fn box_clone(&self) -> Box<dyn BusModel>;
}

impl<T: BusModel + Clone + 'static> BusModelClone for T {
    fn box_clone(&self) -> Box<dyn BusModel> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn BusModel> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

/// Amdahl-style dilation speed at dilation Λ.
#[inline]
pub(crate) fn dilated_speed(mu: f64, lambda: f64) -> f64 {
    1.0 / ((1.0 - mu) + mu * lambda)
}

/// Ceiling on the saturation dilation: returned when the request set is
/// physically inconsistent (λ-insensitive demand above capacity) or the
/// Newton step diverges past any meaningful dilation.
const LAMBDA_MAX: f64 = 1e9;

/// One pending saturated-Λ root solve of an [`FsbBus`] miss: everything
/// [`solve_lambda`] needs besides the request slice itself.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SolveJob {
    /// Effective bus capacity for this request set, tx/µs.
    cap: f64,
    /// Warm-start λ — the owning model's previous solution (≤ 1 or
    /// non-finite values fall back to the cold start at λ = 1).
    warm: f64,
}

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
pub fn solve_lambda(reqs: &[BusRequest], cap: f64, warm: f64) -> f64 {
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

/// Memoized result of one [`FsbBus`] arbitration: everything that is
/// expensive to recompute, keyed by the exact request sequence.
#[derive(Debug, Clone, Default)]
struct FsbMemo {
    valid: bool,
    reqs: Vec<BusRequest>,
    cap: f64,
    total_demand: f64,
    utilization: f64,
    saturated: bool,
    lambda: f64,
}

/// The default front-side-bus model described in the module docs.
///
/// Between ticks the bus keeps the previous request set and its solved Λ:
/// an identical request sequence (the common case once caches are warm and
/// demands are phase-constant) reuses the previous solution outright, and
/// a changed set warm-starts the root solve from the previous Λ.
#[derive(Debug, Clone)]
pub struct FsbBus {
    cfg: BusConfig,
    memo: FsbMemo,
    memo_hits: u64,
    memo_misses: u64,
    // Memoized queueing power: `powf` costs as much as a whole Newton
    // evaluation and every saturated miss computes it at utilization
    // exactly 1.0 (ρ is clamped), so one (input, output) pair answers
    // nearly every call on the hot path.
    pow_u: f64,
    pow_v: f64,
}

impl FsbBus {
    /// A bus with the given configuration.
    pub fn new(cfg: BusConfig) -> Self {
        Self {
            cfg,
            memo: FsbMemo::default(),
            memo_hits: 0,
            memo_misses: 0,
            pow_u: f64::NAN,
            pow_v: f64::NAN,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &BusConfig {
        &self.cfg
    }

    /// Arbitrations answered from the unchanged-demand-set memo.
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits
    }

    /// Arbitrations that ran the full solve.
    pub fn memo_misses(&self) -> u64 {
        self.memo_misses
    }

    /// Arbitration up to the Λ solve: answers memo hits, unsaturated and
    /// idle sets in place, and returns the root problem of a saturated
    /// miss (finished by [`FsbBus::complete`]).
    fn prepare(&mut self, reqs: &[BusRequest], out: &mut BusOutcome) -> Option<SolveJob> {
        if reqs.is_empty() {
            out.reset(self.cfg.capacity_tx_per_us);
            return None;
        }
        if self.memo.valid && self.memo.reqs == reqs {
            self.memo_hits += 1;
            self.fill_outcome(reqs, out);
            return None;
        }
        // Full solve; remember everything for the next tick. One fused
        // pass counts active masters and sums demand (the sum's addition
        // order is the request order either way).
        self.memo_misses += 1;
        let mut n_masters = 0usize;
        let mut total_demand = 0.0f64;
        for r in reqs {
            if r.rate > self.cfg.active_master_threshold {
                n_masters += 1;
            }
            total_demand += r.rate;
        }
        let cap = self.cfg.effective_capacity(n_masters);
        let utilization = (total_demand / cap).min(1.0);
        let saturated = total_demand > cap;
        // The warm start is the *previous* solution; read it before the
        // memo is repurposed for the new request set.
        let warm = self.memo.lambda;
        self.memo.reqs.clear();
        self.memo.reqs.extend_from_slice(reqs);
        self.memo.cap = cap;
        self.memo.total_demand = total_demand;
        self.memo.utilization = utilization;
        self.memo.saturated = saturated;
        self.memo.valid = false;
        if saturated {
            return Some(SolveJob { cap, warm });
        }
        self.complete(reqs, 1.0, out);
        None
    }

    /// Finish a miss: fold `lambda_sat` with the queueing term into the
    /// memo (marking it valid) and fill the outcome.
    fn complete(&mut self, reqs: &[BusRequest], lambda_sat: f64, out: &mut BusOutcome) {
        // Below saturation the queueing term provides the (small,
        // convex) contention penalty; at deep saturation λ_sat
        // dominates and taking the max keeps aggregate issued traffic
        // exactly at capacity instead of wasting it.
        let u = self.memo.utilization;
        if u != self.pow_u {
            // Miss: compute and remember. The exponent is fixed per bus,
            // so the pair keys on utilization alone; the reused value is
            // the exact `powf` result, keeping the fold bit-identical.
            self.pow_u = u;
            self.pow_v = u.powf(self.cfg.queueing_exponent);
        }
        let queueing = self.cfg.queueing_coeff * self.pow_v;
        self.memo.lambda = lambda_sat.max(1.0 + queueing);
        self.memo.valid = true;
        self.fill_outcome(reqs, out);
    }

    /// Rebuild `out` (shares and aggregates) from the memoized solution.
    fn fill_outcome(&self, reqs: &[BusRequest], out: &mut BusOutcome) {
        let lambda = self.memo.lambda;
        out.shares.clear();
        let mut total_issued = 0.0;
        for r in reqs {
            let speed = dilated_speed(r.mu, lambda);
            let issue_rate = r.rate * speed;
            total_issued += issue_rate;
            out.shares.push(BusShare {
                thread: r.thread,
                speed,
                issue_rate,
            });
        }
        out.total_demand = self.memo.total_demand;
        out.total_issued = total_issued;
        out.effective_capacity = self.memo.cap;
        out.dilation = lambda;
        out.utilization = self.memo.utilization;
        out.saturated = self.memo.saturated;
    }
}

impl BusModel for FsbBus {
    fn arbitrate_into(&mut self, reqs: &[BusRequest], out: &mut BusOutcome) {
        if let Some(job) = self.prepare(reqs, out) {
            let lambda_sat = solve_lambda(reqs, job.cap, job.warm);
            self.complete(reqs, lambda_sat, out);
        }
    }

    fn nominal_capacity(&self) -> f64 {
        self.cfg.capacity_tx_per_us
    }

    fn memo_stats(&self) -> Option<(u64, u64)> {
        Some((self.memo_hits, self.memo_misses))
    }

    /// Λ of `reqs` itself, solved from a cold start. Raising any rate can
    /// only add active masters, which shrinks the effective capacity, and
    /// raises the total demand, hence the queueing term, and every term of
    /// the saturation equation, whose root therefore moves right.
    fn dilation_floor(&self, reqs: &[BusRequest]) -> f64 {
        let threshold = self.cfg.active_master_threshold;
        let n_masters = reqs.iter().filter(|r| r.rate > threshold).count();
        let cap = self.cfg.effective_capacity(n_masters);
        let total_demand: f64 = reqs.iter().map(|r| r.rate).sum();
        let utilization = (total_demand / cap).min(1.0);
        let queueing = self.cfg.queueing_coeff * utilization.powf(self.cfg.queueing_exponent);
        let lambda_sat = if total_demand > cap {
            solve_lambda(reqs, cap, 1.0)
        } else {
            1.0
        };
        lambda_sat.max(1.0 + queueing)
    }
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

/// A multi-socket bus topology: N sockets, each with its own local bus
/// (parameterized by the same [`BusConfig`] as [`FsbBus`]), joined by a
/// shared cross-socket interconnect.
///
/// A request charges every level it crosses: its full rate on the local
/// bus of the socket it executes on, and `remote × rate` on the
/// interconnect. Λ is solved **per level** — each level is literally an
/// [`FsbBus`] (same arbitration derate, saturated [`solve_lambda`] root
/// with a per-level warm-start memo, sub-saturation queueing penalty; the
/// interconnect level zeroes the per-master derate, a point-to-point link
/// does not re-arbitrate per master) — and a thread's grant is the min
/// across the levels it touches: its effective dilation is
/// `max(Λ_local(socket), Λ_interconnect if remote > 0)`.
///
/// **Degenerate case**: at one socket every request is local (the machine
/// derives `remote = 0`), level 0 receives exactly the request sequence a
/// bare [`FsbBus`] would, and the final per-thread speeds re-run the same
/// `dilated_speed` fold — so the outcome is bit-identical to [`FsbBus`],
/// memo behaviour included. A differential test below pins this; the
/// machine still instantiates the bare [`FsbBus`] for single-socket
/// configs, so the equivalence is a proven invariant rather than a
/// load-bearing path.
#[derive(Debug, Clone)]
pub struct HierarchicalBus {
    cfg: BusConfig,
    topo: TopologyConfig,
    /// One solver per level: sockets `0..N`, then the interconnect.
    level_bus: Vec<FsbBus>,
    /// Per-socket request scratch, rebuilt each arbitration.
    local: Vec<Vec<BusRequest>>,
    /// Interconnect request scratch (rates pre-scaled by `remote`).
    inter: Vec<BusRequest>,
    /// Per-level outcome scratch.
    level_out: Vec<BusOutcome>,
    /// Per-level summaries of the last arbitration (sockets, then
    /// interconnect), exposed through [`BusModel::levels`].
    levels: Vec<LevelOutcome>,
}

impl HierarchicalBus {
    /// A hierarchical bus over `topo` whose per-socket local buses use
    /// `cfg` (the interconnect inherits the queueing shape but uses the
    /// topology's capacity and no per-master derate).
    pub fn new(cfg: BusConfig, topo: TopologyConfig) -> Self {
        let sockets = topo.sockets.max(1);
        let inter_cfg = BusConfig {
            capacity_tx_per_us: topo.interconnect_tx_per_us,
            arbitration_per_master: 0.0,
            ..cfg
        };
        let mut level_bus: Vec<FsbBus> = (0..sockets).map(|_| FsbBus::new(cfg)).collect();
        level_bus.push(FsbBus::new(inter_cfg));
        let n_levels = sockets + 1;
        Self {
            cfg,
            topo,
            level_bus,
            local: vec![Vec::new(); sockets],
            inter: Vec::new(),
            level_out: (0..n_levels)
                .map(|_| BusOutcome::empty(cfg.capacity_tx_per_us))
                .collect(),
            levels: vec![LevelOutcome::default(); n_levels],
        }
    }

    /// The topology in use.
    pub fn topology(&self) -> &TopologyConfig {
        &self.topo
    }

    /// Number of levels: sockets + 1 (interconnect last).
    pub fn n_levels(&self) -> usize {
        self.level_bus.len()
    }
}

impl BusModel for HierarchicalBus {
    fn arbitrate_into(&mut self, reqs: &[BusRequest], out: &mut BusOutcome) {
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
        // the interconnect) — fixed iteration order keeps the model
        // deterministic and each level's FsbBus memo coherent.
        for k in 0..sockets {
            let (bus, slot) = (&mut self.level_bus[k], &mut self.level_out[k]);
            bus.arbitrate_into(&self.local[k], slot);
            self.levels[k] = LevelOutcome {
                demand: slot.total_demand,
                issued: 0.0, // re-folded below at the final per-thread speeds
                effective_capacity: slot.effective_capacity,
                dilation: slot.dilation,
                utilization: slot.utilization,
                saturated: slot.saturated,
            };
        }
        {
            let (bus, slot) = (&mut self.level_bus[sockets], &mut self.level_out[sockets]);
            bus.arbitrate_into(&self.inter, slot);
            self.levels[sockets] = LevelOutcome {
                demand: slot.total_demand,
                issued: 0.0,
                effective_capacity: slot.effective_capacity,
                dilation: slot.dilation,
                utilization: slot.utilization,
                saturated: slot.saturated,
            };
        }
        let lambda_inter = self.levels[sockets].dilation;
        // Final fold, in request order: each thread is dilated by the
        // worst level it touches, and issued traffic is re-attributed to
        // every level it crosses at that final speed.
        out.shares.clear();
        let mut total_demand = 0.0;
        let mut total_issued = 0.0;
        for r in reqs {
            let socket = r.socket.min(sockets - 1);
            let mut lambda = self.levels[socket].dilation;
            if r.remote > 0.0 && lambda_inter > lambda {
                lambda = lambda_inter;
            }
            let speed = dilated_speed(r.mu, lambda);
            let issue_rate = r.rate * speed;
            total_demand += r.rate;
            total_issued += issue_rate;
            self.levels[socket].issued += issue_rate;
            if r.remote > 0.0 {
                self.levels[sockets].issued += issue_rate * r.remote;
            }
            out.shares.push(BusShare {
                thread: r.thread,
                speed,
                issue_rate,
            });
        }
        // Whole-machine summary: capacity is the sum of the local-bus
        // ceilings (the interconnect constrains a subset, it adds no
        // issue capacity); dilation/utilization/saturation report the
        // bottleneck level.
        let mut cap = 0.0;
        let mut dilation = 1.0f64;
        let mut utilization = 0.0f64;
        let mut saturated = false;
        for (k, lvl) in self.levels.iter().enumerate() {
            if k < sockets {
                cap += lvl.effective_capacity;
            }
            dilation = dilation.max(lvl.dilation);
            utilization = utilization.max(lvl.utilization);
            saturated |= lvl.saturated;
        }
        out.total_demand = total_demand;
        out.total_issued = total_issued;
        out.effective_capacity = cap;
        out.dilation = dilation;
        out.utilization = utilization;
        out.saturated = saturated;
    }

    fn nominal_capacity(&self) -> f64 {
        self.cfg.capacity_tx_per_us * self.local.len() as f64
    }

    fn memo_stats(&self) -> Option<(u64, u64)> {
        let mut hits = 0;
        let mut misses = 0;
        for b in &self.level_bus {
            hits += b.memo_hits();
            misses += b.memo_misses();
        }
        Some((hits, misses))
    }

    fn levels(&self) -> &[LevelOutcome] {
        &self.levels
    }
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

    fn default_fsb() -> FsbBus {
        FsbBus::new(BusConfig::default())
    }

    #[test]
    fn empty_request_set_is_trivial() {
        let out = default_fsb().arbitrate(&[]);
        assert_eq!(out.total_issued, 0.0);
        assert!(!out.saturated);
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
            let mut bus = default_fsb();
            bus.arbitrate(&[req(9, 40.0, 1.0)]);
            let floor = bus.dilation_floor(&reqs);
            assert!(floor >= 1.0);
            for boost in [1.0, 1.01, 1.3, 1.6] {
                let boosted: Vec<_> = reqs
                    .iter()
                    .map(|r| req(r.thread.0, r.rate * boost, r.mu))
                    .collect();
                let lambda = bus.arbitrate(&boosted).dilation;
                assert!(
                    floor <= lambda * (1.0 + 1e-12),
                    "{set:?} ×{boost}: floor {floor} above Λ {lambda}"
                );
            }
        }
        // A model that proves nothing keeps the default floor.
        let h = HierarchicalBus::new(BusConfig::default(), TopologyConfig::multi(2));
        assert_eq!(h.dilation_floor(&[req(0, 40.0, 1.0)]), 1.0);
    }

    #[test]
    fn single_light_thread_runs_at_nearly_full_speed() {
        let out = default_fsb().arbitrate(&[req(0, 1.0, 0.2)]);
        assert!(!out.saturated);
        assert!(out.shares[0].speed > 0.999, "speed {}", out.shares[0].speed);
        assert!((out.shares[0].issue_rate - 1.0).abs() < 1e-2);
    }

    #[test]
    fn saturation_conserves_capacity_exactly_for_memory_bound_threads() {
        // Four pure streamers demanding 2× capacity.
        let mut bus = default_fsb();
        let reqs: Vec<_> = (0..4).map(|i| req(i, 15.0, 1.0)).collect();
        let out = bus.arbitrate(&reqs);
        assert!(out.saturated);
        let cap = out.effective_capacity;
        assert!(
            (out.total_issued - cap).abs() < 1e-6 * cap,
            "issued {} vs cap {cap}",
            out.total_issued
        );
    }

    #[test]
    fn proportional_sharing_under_saturation() {
        // Equal µ ⇒ issue rates proportional to demands.
        let mut bus = default_fsb();
        let out = bus.arbitrate(&[req(0, 20.0, 1.0), req(1, 10.0, 1.0)]);
        assert!(out.saturated);
        let r0 = out.shares[0].issue_rate;
        let r1 = out.shares[1].issue_rate;
        assert!((r0 / r1 - 2.0).abs() < 1e-9, "ratio {}", r0 / r1);
    }

    #[test]
    fn low_mu_thread_is_nearly_immune_to_saturation() {
        // An nBBMA-like thread next to two heavy streamers.
        let mut bus = default_fsb();
        let out = bus.arbitrate(&[req(0, 23.6, 1.0), req(1, 23.6, 1.0), req(2, 0.004, 0.01)]);
        assert!(out.saturated);
        assert!(out.shares[2].speed > 0.97, "speed {}", out.shares[2].speed);
        // While the streamers are heavily dilated.
        assert!(out.shares[0].speed < 0.7);
    }

    #[test]
    fn cg_with_two_bbma_slows_two_to_three_fold() {
        // The paper's headline motivation: a memory-intensive app
        // (CG: ~11.7 tx/µs/thread, µ high) against two BBMA streamers
        // suffers a 2–3× slowdown.
        let mut bus = default_fsb();
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
        let mut bus = default_fsb();
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
        let mut bus = default_fsb();
        // Utilization ~40 %: negligible penalty.
        let low = bus.arbitrate(&[req(0, 6.0, 0.8), req(1, 6.0, 0.8)]);
        assert!(!low.saturated);
        assert!(low.shares[0].speed > 0.97);
        // Utilization ~90 %: a few percent.
        let high = bus.arbitrate(&[req(0, 13.0, 0.8), req(1, 13.0, 0.8)]);
        assert!(high.shares[0].speed < low.shares[0].speed);
        assert!(high.shares[0].speed > 0.75);
    }

    #[test]
    fn dilation_reduces_to_one_when_idle() {
        let out = default_fsb().arbitrate(&[req(0, 0.0, 0.0)]);
        assert!((out.dilation - 1.0).abs() < 1e-9);
        assert_eq!(out.shares[0].speed, 1.0);
    }

    #[test]
    fn lambda_solver_handles_mu_zero_threads() {
        // µ=0 threads contribute constant traffic; solver must not hang.
        let mut bus = default_fsb();
        let out = bus.arbitrate(&[req(0, 40.0, 1.0), req(1, 2.0, 0.0)]);
        assert!(out.saturated);
        assert!(out.total_issued <= out.effective_capacity + 2.0 + 1e-6);
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
        let out = FsbBus::new(cfg).arbitrate(&[req(0, 25.0, 1.0), req(1, 25.0, 1.0)]);
        assert!(out.saturated);
        for s in &out.shares {
            assert!((s.speed - PAPER_BUS_TX_PER_US / 50.0).abs() < 1e-9);
        }
    }

    #[test]
    fn unchanged_demand_set_reuses_memo_bit_identically() {
        let mut bus = default_fsb();
        let reqs: Vec<_> = (0..4).map(|i| req(i, 15.0, 0.9)).collect();
        let a = bus.arbitrate(&reqs);
        assert_eq!((bus.memo_misses(), bus.memo_hits()), (1, 0));
        let b = bus.arbitrate(&reqs);
        assert_eq!((bus.memo_misses(), bus.memo_hits()), (1, 1));
        assert_eq!(a.dilation.to_bits(), b.dilation.to_bits());
        assert_eq!(a.total_issued.to_bits(), b.total_issued.to_bits());
        for (x, y) in a.shares.iter().zip(&b.shares) {
            assert_eq!(x.speed.to_bits(), y.speed.to_bits());
            assert_eq!(x.issue_rate.to_bits(), y.issue_rate.to_bits());
        }
        // Any change to the demand set falls back to the full solve.
        let mut reqs2 = reqs.clone();
        reqs2[0].rate += 1.0;
        bus.arbitrate(&reqs2);
        assert_eq!((bus.memo_misses(), bus.memo_hits()), (2, 1));
    }

    #[test]
    fn warm_started_solve_matches_cold_solve() {
        let reqs: Vec<_> = (0..4).map(|i| req(i, 15.0, 0.9)).collect();
        let mut warm = default_fsb();
        // Seed the memo with a different saturated set so the next solve
        // warm-starts from its λ.
        warm.arbitrate(&[req(9, 40.0, 1.0), req(10, 40.0, 1.0)]);
        let w = warm.arbitrate(&reqs);
        let c = default_fsb().arbitrate(&reqs);
        assert!(
            (w.dilation - c.dilation).abs() <= 1e-12 * c.dilation,
            "warm {} vs cold {}",
            w.dilation,
            c.dilation
        );
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

    // --- HierarchicalBus --------------------------------------------

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
    fn hierarchical_single_socket_is_bit_identical_to_fsb() {
        // The degenerate 1-socket topology must reproduce FsbBus
        // byte-for-byte across a history exercising every path: a
        // saturated solve, a memo hit, an unsaturated set, an empty
        // tick, and a warm-started re-solve.
        let mut fsb = default_fsb();
        let mut hier = HierarchicalBus::new(BusConfig::default(), SINGLE_SOCKET_TOPO);
        let sat: Vec<_> = (0..4).map(|i| req(i, 15.0, 0.9)).collect();
        let light = [req(0, 1.0, 0.2)];
        let sat2: Vec<_> = (0..4).map(|i| req(i, 16.0, 0.95)).collect();
        for set in [&sat[..], &sat[..], &light[..], &[][..], &sat2[..]] {
            let a = fsb.arbitrate(set);
            let b = hier.arbitrate(set);
            assert_eq!(a.dilation.to_bits(), b.dilation.to_bits());
            assert_eq!(a.total_demand.to_bits(), b.total_demand.to_bits());
            assert_eq!(a.total_issued.to_bits(), b.total_issued.to_bits());
            assert_eq!(
                a.effective_capacity.to_bits(),
                b.effective_capacity.to_bits()
            );
            assert_eq!(a.utilization.to_bits(), b.utilization.to_bits());
            assert_eq!(a.saturated, b.saturated);
            assert_eq!(a.shares.len(), b.shares.len());
            for (x, y) in a.shares.iter().zip(&b.shares) {
                assert_eq!(x.thread, y.thread);
                assert_eq!(x.speed.to_bits(), y.speed.to_bits());
                assert_eq!(x.issue_rate.to_bits(), y.issue_rate.to_bits());
            }
        }
        assert_eq!(fsb.memo_stats(), hier.memo_stats());
        // 2 levels reported (socket 0 + idle interconnect).
        assert_eq!(hier.levels().len(), 2);
    }

    const SINGLE_SOCKET_TOPO: TopologyConfig = crate::config::SINGLE_SOCKET;

    #[test]
    fn hierarchical_isolates_sockets_without_remote_traffic() {
        // Streamers saturate socket 0's local bus; a light thread on
        // socket 1 with no remote traffic is untouched by them.
        let mut bus = HierarchicalBus::new(BusConfig::default(), TopologyConfig::multi(2));
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
        assert!(out.effective_capacity > PAPER_BUS_TX_PER_US);
    }

    #[test]
    fn hierarchical_interconnect_constrains_remote_traffic() {
        // Both sockets are below local capacity, but every thread sends
        // all of its traffic across the interconnect (migrated off-home):
        // the interconnect is the bottleneck and dilates everyone.
        let topo = TopologyConfig::multi(2);
        let mut bus = HierarchicalBus::new(BusConfig::default(), topo);
        let all_remote: Vec<_> = (0..4)
            .map(|i| hreq(i, 13.0, 0.9, (i as usize) % 2, 1.0))
            .collect();
        let out = bus.arbitrate(&all_remote);
        let lv = bus.levels();
        assert!(!lv[0].saturated && !lv[1].saturated, "{lv:?}");
        assert!(lv[2].saturated, "interconnect must saturate: {lv:?}");
        assert!(out.saturated);
        assert!(out.dilation > 1.05);
        for s in &out.shares {
            assert!(s.speed < 0.95, "remote thread dilated: {}", s.speed);
        }
        // The same demands kept home (remote fraction 0.25) clear the
        // interconnect and run faster.
        let mut home_bus = HierarchicalBus::new(BusConfig::default(), topo);
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
        let mut bus = HierarchicalBus::new(BusConfig::default(), TopologyConfig::multi(2));
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
        assert!(out.total_issued <= out.effective_capacity * (1.0 + 1e-6));
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
                let out = FsbBus::new(BusConfig::default()).arbitrate(&reqs);
                prop_assert!(out.total_issued <= out.total_demand + 1e-9);
                if out.saturated {
                    prop_assert!(out.total_issued <= out.effective_capacity * (1.0 + 1e-6));
                }
            }

            /// Speeds are in (0, 1] and issue rates are rate×speed.
            #[test]
            fn speeds_bounded(reqs in arb_reqs()) {
                let out = FsbBus::new(BusConfig::default()).arbitrate(&reqs);
                for (r, s) in reqs.iter().zip(&out.shares) {
                    prop_assert!(s.speed > 0.0 && s.speed <= 1.0 + 1e-12);
                    prop_assert!((s.issue_rate - r.rate * s.speed).abs() < 1e-9);
                }
            }

            /// More memory-bound threads are hurt at least as much by the
            /// same dilation.
            #[test]
            fn monotone_in_mu(rate in 1.0f64..30.0, mu_lo in 0.0f64..0.5, extra in 0.0f64..0.5) {
                let mut bus = FsbBus::new(BusConfig::default());
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
                let out = FsbBus::new(cfg).arbitrate(&reqs);
                if !out.saturated && out.utilization <= 0.9 {
                    let floor = 1.0
                        - cfg.queueing_coeff * out.utilization.powf(cfg.queueing_exponent)
                        - 1e-9;
                    for s in &out.shares {
                        prop_assert!(s.speed >= floor, "speed {} below {floor}", s.speed);
                    }
                }
            }
        }
    }
}
