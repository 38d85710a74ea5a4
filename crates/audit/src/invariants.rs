//! The built-in invariant catalog.
//!
//! Each type here is one executable property; see the crate docs for the
//! table mapping names to paper sections. All of them are pure observers:
//! none mutates the machine, the scheduler, or the trace stream.

use std::collections::{BTreeMap, BTreeSet};

use busbw_core::estimator::{
    BandwidthEstimator, EwmaEstimator, LatestQuantumEstimator, QuantaWindowEstimator,
};
use busbw_core::manager::{AppRuntime, ArenaSnapshot, CpuManager, ManagerConfig, SeqlockArena};
use busbw_sim::{AppId, Decision, LevelOutcome, MachineView, SimTime, StageSnapshot};
use busbw_trace::{validate_stream, TraceEvent};
use rand::{Rng, SeedableRng};

use crate::{Invariant, Violation};

/// Relative slack on the bus-capacity bound: the Λ solve works in `f64`
/// and the tick loop accumulates shares, so allow rounding noise but
/// nothing more.
const CAPACITY_REL_TOL: f64 = 1e-6;

/// The full built-in catalog, in the order the crate docs list it.
pub(crate) fn builtin_invariants() -> Vec<Box<dyn Invariant>> {
    vec![
        Box::new(NoDoubleAllocation),
        Box::new(CpuBounds),
        Box::new(GangIntegrity),
        Box::new(StageCoherence),
        Box::new(BusCapacity),
        Box::new(MonotonicTrace),
        Box::new(EstimatorRange),
        Box::new(ManagerArenaCoherence),
        Box::new(ManagerLifecycle),
        Box::new(CacheConsistency),
        Box::new(ExecPathEquivalence),
        Box::new(TopologyCapacity),
        Box::new(OracleAdmissibility),
    ]
}

/// No processor double-allocation: a decision names each cpu at most once
/// and each thread at most once.
pub(crate) struct NoDoubleAllocation;

impl Invariant for NoDoubleAllocation {
    fn name(&self) -> &'static str {
        "no-double-allocation"
    }

    fn paper_ref(&self) -> &'static str {
        "machine model (§2): one hardware context runs one thread per quantum"
    }

    fn check_decision(
        &mut self,
        view: &MachineView<'_>,
        decision: &Decision,
        _snapshot: Option<&StageSnapshot>,
        out: &mut Vec<Violation>,
    ) {
        let mut cpus = BTreeSet::new();
        let mut threads = BTreeSet::new();
        for a in &decision.assignments {
            if !cpus.insert(a.cpu.0) {
                out.push(Violation {
                    invariant: self.name(),
                    at_us: view.now,
                    detail: format!("cpu {} assigned twice", a.cpu.0),
                });
            }
            if !threads.insert(a.thread.0) {
                out.push(Violation {
                    invariant: self.name(),
                    at_us: view.now,
                    detail: format!("thread {} assigned twice", a.thread.0),
                });
            }
        }
    }
}

/// Allocated CPUs stay within the machine: every cpu id is in range and
/// the total allocation cannot exceed the processor count.
pub(crate) struct CpuBounds;

impl Invariant for CpuBounds {
    fn name(&self) -> &'static str {
        "cpu-bounds"
    }

    fn paper_ref(&self) -> &'static str {
        "machine model (§2): the testbed has a fixed processor count"
    }

    fn check_decision(
        &mut self,
        view: &MachineView<'_>,
        decision: &Decision,
        _snapshot: Option<&StageSnapshot>,
        out: &mut Vec<Violation>,
    ) {
        for a in &decision.assignments {
            if a.cpu.0 >= view.num_cpus {
                out.push(Violation {
                    invariant: self.name(),
                    at_us: view.now,
                    detail: format!(
                        "cpu {} out of range (machine has {})",
                        a.cpu.0, view.num_cpus
                    ),
                });
            }
        }
        if decision.assignments.len() > view.num_cpus {
            out.push(Violation {
                invariant: self.name(),
                at_us: view.now,
                detail: format!(
                    "{} allocations exceed {} processors",
                    decision.assignments.len(),
                    view.num_cpus
                ),
            });
        }
    }
}

/// Gang integrity: every application the pipeline committed as a gang has
/// *all* of its runnable threads placed — admitted apps run whole, never
/// partially (the paper's co-scheduling premise).
///
/// Needs a [`StageSnapshot`] (introspection mode) and only applies to
/// gang selections; pinned schedules (the Linux baselines) deliberately
/// timeshare threads independently.
pub(crate) struct GangIntegrity;

impl Invariant for GangIntegrity {
    fn name(&self) -> &'static str {
        "gang-integrity"
    }

    fn paper_ref(&self) -> &'static str {
        "§3: gang scheduling — all threads of a scheduled application execute together"
    }

    fn check_decision(
        &mut self,
        view: &MachineView<'_>,
        decision: &Decision,
        snapshot: Option<&StageSnapshot>,
        out: &mut Vec<Violation>,
    ) {
        let Some(snap) = snapshot else { return };
        if snap.pinned {
            return;
        }
        let placed: BTreeSet<u64> = decision.assignments.iter().map(|a| a.thread.0).collect();
        for &app in &snap.committed {
            let Some(info) = view.app(app) else { continue };
            for &t in info.threads {
                let runnable = view.thread(t).is_some_and(|ti| ti.is_runnable());
                if runnable && !placed.contains(&t.0) {
                    out.push(Violation {
                        invariant: self.name(),
                        at_us: view.now,
                        detail: format!(
                            "app {} committed as a gang but runnable thread {} is not placed",
                            app.0, t.0
                        ),
                    });
                }
            }
        }
    }
}

/// Stage-pipeline coherence: the committed set is exactly
/// `admitted_head ∪ selected_extra` (in that order, duplicate-free), every
/// committed app was a candidate, the placed threads belong to committed
/// apps, and the committed widths fit the machine.
pub(crate) struct StageCoherence;

impl Invariant for StageCoherence {
    fn name(&self) -> &'static str {
        "stage-coherence"
    }

    fn paper_ref(&self) -> &'static str {
        "pipeline contract (DESIGN §11): selector output ⊆ admission output ⊆ candidates"
    }

    fn check_decision(
        &mut self,
        view: &MachineView<'_>,
        decision: &Decision,
        snapshot: Option<&StageSnapshot>,
        out: &mut Vec<Violation>,
    ) {
        let Some(snap) = snapshot else { return };
        let mut fail = |detail: String| {
            out.push(Violation {
                invariant: "stage-coherence",
                at_us: view.now,
                detail,
            });
        };
        let committed: BTreeSet<AppId> = snap.committed.iter().copied().collect();
        if committed.len() != snap.committed.len() {
            fail(format!(
                "committed set has duplicates: {:?}",
                snap.committed
            ));
        }
        let candidates: BTreeSet<AppId> = snap.candidates.iter().copied().collect();
        for app in &committed {
            if !candidates.contains(app) {
                fail(format!("app {} committed but was never a candidate", app.0));
            }
        }
        if !snap.pinned {
            let expected: Vec<AppId> = snap
                .admitted_head
                .iter()
                .chain(snap.selected_extra.iter())
                .copied()
                .collect();
            if snap.committed != expected {
                fail(format!(
                    "committed {:?} is not admitted head {:?} ++ selected extra {:?}",
                    snap.committed, snap.admitted_head, snap.selected_extra
                ));
            }
            let width: usize = committed
                .iter()
                .filter_map(|&a| view.app(a).map(|i| i.width()))
                .sum();
            if width > view.num_cpus {
                fail(format!(
                    "committed gang widths total {width} > {} processors",
                    view.num_cpus
                ));
            }
        }
        // Placed threads must belong to committed apps, gang or pinned.
        for a in &decision.assignments {
            let Some(t) = view.thread(a.thread) else {
                continue;
            };
            if !committed.contains(&t.app) {
                fail(format!(
                    "thread {} of uncommitted app {} was placed",
                    a.thread.0, t.app.0
                ));
            }
        }
    }
}

/// Bus-capacity conservation: traffic issued in a tick never exceeds the
/// sustained capacity × tick length (beyond `f64` rounding slack). The
/// Λ-dilation solve exists precisely to enforce this, so a violation
/// means the solve or the share accounting regressed.
pub(crate) struct BusCapacity;

impl Invariant for BusCapacity {
    fn name(&self) -> &'static str {
        "bus-capacity"
    }

    fn paper_ref(&self) -> &'static str {
        "§2: sustained bus bandwidth is 29.5 transactions/µs (STREAM-measured ceiling)"
    }

    fn check_tick(
        &mut self,
        now: SimTime,
        dt_us: u64,
        issued_tx: f64,
        capacity_tx_per_us: f64,
        out: &mut Vec<Violation>,
    ) {
        // Every bus has a finite ceiling; a NaN or infinite one would
        // make the budget comparison below vacuously pass.
        if !capacity_tx_per_us.is_finite() {
            out.push(Violation {
                invariant: self.name(),
                at_us: now,
                detail: format!("non-finite bus capacity {capacity_tx_per_us} tx/µs"),
            });
            return;
        }
        let budget = capacity_tx_per_us * dt_us as f64;
        if issued_tx > budget * (1.0 + CAPACITY_REL_TOL) + CAPACITY_REL_TOL {
            out.push(Violation {
                invariant: self.name(),
                at_us: now,
                detail: format!(
                    "issued {issued_tx:.3} tx in {dt_us}µs exceeds capacity budget {budget:.3} tx"
                ),
            });
        }
    }
}

/// Monotonic trace timestamps and balanced stage cycles, delegated to
/// [`busbw_trace::validate_stream`] (which documents why retrospective
/// `app_finished` timestamps are exempt).
pub(crate) struct MonotonicTrace;

impl Invariant for MonotonicTrace {
    fn name(&self) -> &'static str {
        "monotonic-trace"
    }

    fn paper_ref(&self) -> &'static str {
        "trace contract (DESIGN §9): deterministic, replayable event streams"
    }

    fn check_events(&mut self, events: &[TraceEvent], out: &mut Vec<Violation>) {
        for v in validate_stream(events) {
            out.push(Violation {
                invariant: self.name(),
                at_us: events.get(v.index).map_or(0, TraceEvent::at_us),
                detail: format!("event {}: {}", v.index, v.detail),
            });
        }
    }
}

/// Estimator range soundness: fed any sample stream, an estimator's
/// estimate stays within the min/max of the (sanitized) samples it
/// actually recorded — Equations 1 and 2 are selections/averages of
/// measurements, so they can never extrapolate beyond them.
pub(crate) struct EstimatorRange;

/// Drive `est` with `samples` (via both `record_sample` and
/// `record_quantum`, so quantum-fed and sample-fed estimators both see
/// the stream) and check the final estimate lies within the min/max of
/// the sanitized samples — the trailing `window` of them when
/// `window_hint` is set, the whole stream otherwise. Returns the
/// violation if the estimate escapes the range.
///
/// Public so seeded-fault tests can aim it at a deliberately broken
/// estimator.
pub(crate) fn check_estimator_range(
    est: &mut dyn BandwidthEstimator,
    samples: &[f64],
    window_hint: Option<usize>,
) -> Option<Violation> {
    let app = AppId(0);
    for &s in samples {
        est.record_sample(app, s);
        est.record_quantum(app, s);
    }
    // Mirror the production boundary: non-finite rates are dropped,
    // negatives clamp to zero (crate busbw-core, `sanitize_rate`).
    let clean: Vec<f64> = samples
        .iter()
        .filter(|s| s.is_finite())
        .map(|s| s.max(0.0))
        .collect();
    let got = est.estimate(app);
    if clean.is_empty() {
        return (got != 0.0).then(|| Violation {
            invariant: "estimator-range",
            at_us: 0,
            detail: format!(
                "{}: estimate {got} from zero recorded samples (expected 0.0)",
                est.label()
            ),
        });
    }
    let tail = window_hint.map_or(&clean[..], |w| &clean[clean.len().saturating_sub(w)..]);
    let (lo, hi) = tail
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &s| {
            (lo.min(s), hi.max(s))
        });
    let slack = 1e-9 * hi.max(1.0);
    (got < lo - slack || got > hi + slack).then(|| Violation {
        invariant: "estimator-range",
        at_us: 0,
        detail: format!(
            "{}: estimate {got} outside recorded sample range [{lo}, {hi}]",
            est.label()
        ),
    })
}

impl Invariant for EstimatorRange {
    fn name(&self) -> &'static str {
        "estimator-range"
    }

    fn paper_ref(&self) -> &'static str {
        "§4, Eq. 1–2: BBW estimates are selections/averages of counter measurements"
    }

    fn self_check(&mut self, seed: u64, out: &mut Vec<Violation>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for round in 0..16 {
            let len = rng.gen_range(1..40usize);
            let samples: Vec<f64> = (0..len)
                .map(|_| {
                    if rng.gen_bool(0.1) {
                        // Poison injections: must be rejected at the
                        // recording boundary, not leak into estimates.
                        [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -3.0][rng.gen_range(0..4usize)]
                    } else {
                        rng.gen_range(0.0..40.0)
                    }
                })
                .collect();
            let window = rng.gen_range(1..8usize);
            let cases: [(Box<dyn BandwidthEstimator>, Option<usize>); 4] = [
                (Box::new(LatestQuantumEstimator::new()), Some(1)),
                (Box::new(QuantaWindowEstimator::new()), Some(5)),
                (
                    Box::new(QuantaWindowEstimator::with_window(window)),
                    Some(window),
                ),
                (Box::new(EwmaEstimator::matching_window(window)), None),
            ];
            for (mut est, hint) in cases {
                if let Some(mut v) = check_estimator_range(est.as_mut(), &samples, hint) {
                    v.detail = format!("self-check round {round}: {}", v.detail);
                    out.push(v);
                }
            }
        }
    }
}

/// Check a sequence of arena reads for seqlock coherence: the publish
/// sequence must never rewind, two reads under the same sequence must be
/// field-identical (a changed field without a publish means a torn write
/// bypassed the seqlock bracket), and published rates must be finite and
/// non-negative.
///
/// Public so seeded-fault tests can aim it at reads taken around
/// `SeqlockArena::publish_torn_rate`.
pub(crate) fn check_arena_coherence(reads: &[ArenaSnapshot]) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut fail = |at_us: u64, detail: String| {
        out.push(Violation {
            invariant: "manager-arena-coherence",
            at_us,
            detail,
        });
    };
    for s in reads {
        if !s.rate_tx_per_us.is_finite() || s.rate_tx_per_us < 0.0 {
            fail(
                s.updated_at_us,
                format!("published rate {} is not a valid tx/µs", s.rate_tx_per_us),
            );
        }
    }
    for w in reads.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        if b.seq < a.seq {
            fail(
                b.updated_at_us,
                format!("publish sequence rewound: {} after {}", b.seq, a.seq),
            );
        }
        if a.seq == b.seq && a != b {
            fail(
                b.updated_at_us,
                format!(
                    "fields changed under unchanged publish seq {}: torn write bypassed the \
                     seqlock (rate {} -> {}, total {} -> {})",
                    a.seq,
                    a.rate_tx_per_us,
                    b.rate_tx_per_us,
                    a.total_transactions,
                    b.total_transactions
                ),
            );
        }
    }
    out
}

/// Shared-arena coherence of the CPU manager's publish path (the daemon
/// side the simulator-facing invariants never touch). The self-check
/// drives the *real* `core::manager` stack — `AppRuntime::publish_sample`
/// through a live [`CpuManager`] — plus a raw seqlock publish/read
/// interleave, and runs [`check_arena_coherence`] over every snapshot
/// observed.
pub(crate) struct ManagerArenaCoherence;

impl Invariant for ManagerArenaCoherence {
    fn name(&self) -> &'static str {
        "manager-arena-coherence"
    }

    fn paper_ref(&self) -> &'static str {
        "§4: the shared arena is read without locks — the seqlock bracket makes torn rates impossible"
    }

    fn self_check(&mut self, seed: u64, out: &mut Vec<Violation>) {
        // Leg 1: raw seqlock publish/read interleave.
        let arena = SeqlockArena::new();
        let mut reads = vec![arena.read()];
        let base = (seed % 7 + 1) as f64;
        for i in 1..=16u64 {
            arena.publish(ArenaSnapshot {
                seq: i,
                threads: 2,
                total_transactions: i as f64 * base * 1000.0,
                rate_tx_per_us: base,
                updated_at_us: i * 50_000,
            });
            reads.push(arena.read());
            reads.push(arena.read()); // repeated read under one seq
        }
        out.extend(check_arena_coherence(&reads));

        // Leg 2: the real client publish path through a live manager.
        let (mut mgr, handle) = CpuManager::new(
            ManagerConfig::default(),
            Box::new(LatestQuantumEstimator::new()),
        );
        let pending =
            AppRuntime::request_connect(&handle, "audit-self-check").expect("manager alive");
        mgr.pump();
        let mut rt = pending.complete().expect("manager acked connect");
        let t = rt.register_thread().expect("manager alive");
        mgr.pump();
        let mut reads = Vec::new();
        for k in 1..=10u64 {
            t.count_transactions(1_000 * (seed % 5 + 1) * k);
            reads.push(rt.publish_sample(k * 100_000));
            reads.push(rt.publish_sample(k * 100_000)); // zero-dt republish
        }
        mgr.sample();
        mgr.quantum();
        out.extend(check_arena_coherence(&reads));
        rt.disconnect();
        mgr.pump();
    }
}

/// Open-system client lifecycle: in a `ClientArrived` / `ClientShed` /
/// `ClientDeparted` stream (the managerd serve trace), every departure
/// names a previously admitted client, no client arrives or departs
/// twice, and the reported turnaround equals departure minus arrival
/// time. Streams without client events pass vacuously.
pub(crate) struct ManagerLifecycle;

impl Invariant for ManagerLifecycle {
    fn name(&self) -> &'static str {
        "manager-lifecycle"
    }

    fn paper_ref(&self) -> &'static str {
        "open-system serve (DESIGN §14): each departure matches exactly one admitted arrival"
    }

    fn check_events(&mut self, events: &[TraceEvent], out: &mut Vec<Violation>) {
        let mut fail = |at_us: u64, detail: String| {
            out.push(Violation {
                invariant: "manager-lifecycle",
                at_us,
                detail,
            });
        };
        let mut arrived: BTreeMap<u64, u64> = BTreeMap::new();
        let mut departed: BTreeSet<u64> = BTreeSet::new();
        for ev in events {
            match *ev {
                TraceEvent::ClientArrived {
                    at_us,
                    client,
                    width,
                } => {
                    if width == 0 {
                        fail(at_us, format!("client {client} admitted with zero threads"));
                    }
                    if arrived.insert(client, at_us).is_some() {
                        fail(at_us, format!("client {client} arrived twice"));
                    }
                }
                TraceEvent::ClientDeparted {
                    at_us,
                    client,
                    turnaround_us,
                } => match arrived.get(&client) {
                    None => fail(
                        at_us,
                        format!("client {client} departed without ever arriving"),
                    ),
                    Some(&arr) => {
                        if !departed.insert(client) {
                            fail(at_us, format!("client {client} departed twice"));
                        } else if at_us.checked_sub(arr) != Some(turnaround_us) {
                            fail(
                                at_us,
                                format!(
                                    "client {client}: turnaround {turnaround_us}µs but arrived \
                                     at {arr}µs and departed at {at_us}µs"
                                ),
                            );
                        }
                    }
                },
                _ => {}
            }
        }
    }
}

/// Run-key / byte-equality consistency. This invariant has no live hook:
/// the differential fuzzer drives it through
/// [`crate::Auditor::check_byte_identity`], comparing artifacts from
/// executions that shared a run key (serial vs parallel vs cache-warm).
/// Installed in the catalog so audits report it alongside the others.
pub(crate) struct CacheConsistency;

impl Invariant for CacheConsistency {
    fn name(&self) -> &'static str {
        "cache-consistency"
    }

    fn paper_ref(&self) -> &'static str {
        "determinism contract (DESIGN §10): one run key ⇒ one byte-exact result"
    }
}

/// Execution-path equivalence: the machine's event-driven inner loop
/// (replay fast path), the legacy per-tick loop, and a sibling group that
/// shares one machine among several policies until they disagree must
/// produce byte-identical run-codec output for the same run key. Like
/// [`CacheConsistency`] this invariant has no live hook — the
/// differential fuzzer drives it through
/// [`crate::Auditor::check_byte_identity_as`], comparing a per-tick
/// re-execution and every sibling-group member against its serial
/// baseline. Installed in the catalog so audits report it alongside the
/// others.
pub(crate) struct ExecPathEquivalence;

impl Invariant for ExecPathEquivalence {
    fn name(&self) -> &'static str {
        "exec-path-equivalence"
    }

    fn paper_ref(&self) -> &'static str {
        "event-driven engine (DESIGN §13): every execution mode ⇒ one byte-exact result"
    }
}

/// Per-level capacity conservation on hierarchical bus topologies: in
/// every tick, no bus level (socket-local bus or cross-socket
/// interconnect) issues more traffic than its own derated effective
/// capacity, and never more than was demanded of it. Flat single-bus
/// machines report no levels, so the check passes vacuously there (the
/// flat ceiling is [`BusCapacity`]'s job).
pub(crate) struct TopologyCapacity;

impl Invariant for TopologyCapacity {
    fn name(&self) -> &'static str {
        "topology-capacity"
    }

    fn paper_ref(&self) -> &'static str {
        "topology model (DESIGN §16): every bus level enforces its own Λ ceiling"
    }

    fn check_levels(
        &mut self,
        now: SimTime,
        _dt_us: u64,
        levels: &[LevelOutcome],
        out: &mut Vec<Violation>,
    ) {
        for (k, l) in levels.iter().enumerate() {
            if l.effective_capacity.is_finite()
                && l.issued > l.effective_capacity * (1.0 + CAPACITY_REL_TOL) + CAPACITY_REL_TOL
            {
                out.push(Violation {
                    invariant: self.name(),
                    at_us: now,
                    detail: format!(
                        "level {k}: issued {:.3} tx/µs exceeds effective capacity {:.3} tx/µs",
                        l.issued, l.effective_capacity
                    ),
                });
            }
            if l.issued > l.demand * (1.0 + CAPACITY_REL_TOL) + CAPACITY_REL_TOL {
                out.push(Violation {
                    invariant: self.name(),
                    at_us: now,
                    detail: format!(
                        "level {k}: issued {:.3} tx/µs exceeds the {:.3} tx/µs demanded of it",
                        l.issued, l.demand
                    ),
                });
            }
        }
    }
}

/// Offline-optimal admissibility: the branch-and-bound oracle
/// (`busbw_core::oracle::offline_optimal`) must never report a cost
/// worse than any heuristic stack evaluated on the same cell, and its
/// root lower bound must never exceed the cost it achieves. Like
/// [`CacheConsistency`] this invariant has no live hook — the
/// experiments audit command drives it differentially, replaying tiny
/// cells through the oracle and every preset and comparing turnarounds.
/// Installed in the catalog so audits report it alongside the others.
pub(crate) struct OracleAdmissibility;

impl Invariant for OracleAdmissibility {
    fn name(&self) -> &'static str {
        "oracle-admissibility"
    }

    fn paper_ref(&self) -> &'static str {
        "offline-optimal oracle (DESIGN §17): optimal ≤ every heuristic, bound ≤ achieved cost"
    }
}

/// Per-decision repetition guard used by negative tests: counts how many
/// decisions each invariant flagged, keyed by invariant name.
pub fn count_by_invariant(violations: &[Violation]) -> BTreeMap<&'static str, usize> {
    let mut m = BTreeMap::new();
    for v in violations {
        *m.entry(v.invariant).or_insert(0) += 1;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Auditor;
    use busbw_sim::{
        AppDescriptor, Assignment, AuditHook, ConstantDemand, CpuId, Machine, ThreadId, ThreadSpec,
        XEON_4WAY,
    };
    use busbw_trace::PipelineStage;

    /// A 4-cpu machine with two 2-thread gangs (apps 0 and 1; threads
    /// 0,1 and 2,3).
    fn two_gang_machine() -> Machine {
        let mut m = Machine::new(XEON_4WAY);
        for name in ["a", "b"] {
            m.add_app(AppDescriptor::new(
                name,
                (0..2)
                    .map(|_| ThreadSpec::new(50_000.0, Box::new(ConstantDemand::new(1.0, 0.2))))
                    .collect(),
            ));
        }
        m
    }

    fn assign(thread: u64, cpu: usize) -> Assignment {
        Assignment {
            thread: ThreadId(thread),
            cpu: CpuId(cpu),
        }
    }

    fn decision(assignments: Vec<Assignment>) -> Decision {
        Decision {
            assignments,
            next_resched_in_us: 200_000,
            sample_period_us: None,
        }
    }

    /// A snapshot for both gangs committed via head admission.
    fn both_committed() -> StageSnapshot {
        StageSnapshot {
            candidates: vec![AppId(0), AppId(1)],
            admitted_head: vec![AppId(0), AppId(1)],
            selected_extra: vec![],
            pinned: false,
            committed: vec![AppId(0), AppId(1)],
        }
    }

    #[test]
    fn clean_decision_passes_every_builtin() {
        let m = two_gang_machine();
        let mut aud = Auditor::with_builtins();
        let d = decision(vec![assign(0, 0), assign(1, 1), assign(2, 2), assign(3, 3)]);
        aud.on_decision(&m.view(), &d, Some(&both_committed()));
        aud.on_tick(0, 100, 1000.0, XEON_4WAY.bus.capacity_tx_per_us);
        assert!(aud.is_clean(), "{:?}", aud.violations());
    }

    #[test]
    fn double_booked_cpu_fires_no_double_allocation() {
        let m = two_gang_machine();
        let mut aud = Auditor::with_builtins();
        // Threads 0 and 1 both pinned to cpu 0: the seeded double-booking
        // placer fault.
        let d = decision(vec![assign(0, 0), assign(1, 0)]);
        aud.on_decision(&m.view(), &d, None);
        let counts = count_by_invariant(aud.violations());
        assert_eq!(counts.get("no-double-allocation"), Some(&1));
    }

    #[test]
    fn repeated_thread_fires_no_double_allocation() {
        let m = two_gang_machine();
        let mut aud = Auditor::with_builtins();
        let d = decision(vec![assign(0, 0), assign(0, 1)]);
        aud.on_decision(&m.view(), &d, None);
        assert!(count_by_invariant(aud.violations()).contains_key("no-double-allocation"));
    }

    #[test]
    fn out_of_range_cpu_fires_cpu_bounds() {
        let m = two_gang_machine();
        let mut aud = Auditor::with_builtins();
        let d = decision(vec![assign(0, 7)]);
        aud.on_decision(&m.view(), &d, None);
        assert!(count_by_invariant(aud.violations()).contains_key("cpu-bounds"));
    }

    #[test]
    fn half_placed_gang_fires_gang_integrity() {
        let m = two_gang_machine();
        let mut aud = Auditor::with_builtins();
        // App 1 committed but only thread 2 placed; thread 3 is runnable
        // and left off-cpu.
        let d = decision(vec![assign(0, 0), assign(1, 1), assign(2, 2)]);
        aud.on_decision(&m.view(), &d, Some(&both_committed()));
        let counts = count_by_invariant(aud.violations());
        assert_eq!(counts.get("gang-integrity"), Some(&1));
    }

    #[test]
    fn committed_set_mismatch_fires_stage_coherence() {
        let m = two_gang_machine();
        let mut aud = Auditor::with_builtins();
        let snap = StageSnapshot {
            candidates: vec![AppId(0)],
            admitted_head: vec![AppId(0)],
            selected_extra: vec![],
            pinned: false,
            // App 1 committed without ever being admitted or a candidate.
            committed: vec![AppId(0), AppId(1)],
        };
        let d = decision(vec![assign(0, 0), assign(1, 1), assign(2, 2), assign(3, 3)]);
        aud.on_decision(&m.view(), &d, Some(&snap));
        let counts = count_by_invariant(aud.violations());
        assert!(counts.get("stage-coherence").is_some_and(|&n| n >= 2)); // not-a-candidate + head++extra mismatch
    }

    #[test]
    fn uncommitted_placement_fires_stage_coherence() {
        let m = two_gang_machine();
        let mut aud = Auditor::with_builtins();
        let snap = StageSnapshot {
            candidates: vec![AppId(0), AppId(1)],
            admitted_head: vec![AppId(0)],
            selected_extra: vec![],
            pinned: false,
            committed: vec![AppId(0)],
        };
        // Thread 2 belongs to app 1, which was not committed.
        let d = decision(vec![assign(0, 0), assign(1, 1), assign(2, 2)]);
        aud.on_decision(&m.view(), &d, Some(&snap));
        assert!(count_by_invariant(aud.violations()).contains_key("stage-coherence"));
    }

    #[test]
    fn oversubscribed_bus_fires_bus_capacity() {
        let mut aud = Auditor::with_builtins();
        let cap = XEON_4WAY.bus.capacity_tx_per_us;
        aud.on_tick(500, 100, cap * 100.0 * 1.01, cap);
        let counts = count_by_invariant(aud.violations());
        assert_eq!(counts.get("bus-capacity"), Some(&1));
        // Exactly at budget (within tolerance) is fine.
        let mut clean = Auditor::with_builtins();
        clean.on_tick(500, 100, cap * 100.0, cap);
        assert!(clean.is_clean());
    }

    #[test]
    fn non_finite_capacity_fires_bus_capacity() {
        // The seeded broken-bus fault: a capacity no budget can be
        // computed from, reported even on an idle tick.
        for cap in [f64::INFINITY, f64::NAN] {
            let mut aud = Auditor::with_builtins();
            aud.on_tick(0, 100, 0.0, cap);
            let counts = count_by_invariant(aud.violations());
            assert_eq!(counts.get("bus-capacity"), Some(&1), "capacity {cap}");
        }
    }

    #[test]
    fn rewinding_trace_fires_monotonic_trace() {
        let mut aud = Auditor::with_builtins();
        let ev = vec![
            TraceEvent::StageDecision {
                at_us: 500,
                stage: PipelineStage::Estimate,
                items: 0,
            },
            TraceEvent::StageDecision {
                at_us: 400, // clock rewound
                stage: PipelineStage::Admit,
                items: 0,
            },
            TraceEvent::StageDecision {
                at_us: 500,
                stage: PipelineStage::Select,
                items: 0,
            },
            TraceEvent::StageDecision {
                at_us: 500,
                stage: PipelineStage::Place,
                items: 0,
            },
        ];
        aud.check_events(&ev);
        let counts = count_by_invariant(aud.violations());
        assert_eq!(counts.get("monotonic-trace"), Some(&1));
    }

    #[test]
    fn dangling_stage_cycle_fires_monotonic_trace() {
        let mut aud = Auditor::with_builtins();
        let ev = vec![TraceEvent::StageDecision {
            at_us: 0,
            stage: PipelineStage::Estimate,
            items: 0,
        }];
        aud.check_events(&ev);
        assert!(count_by_invariant(aud.violations()).contains_key("monotonic-trace"));
    }

    /// The seeded estimator fault: reports double the latest sample, so
    /// any nonzero stream escapes the recorded range.
    struct DoublingEstimator {
        latest: f64,
    }

    impl BandwidthEstimator for DoublingEstimator {
        fn record_sample(&mut self, _app: AppId, rate: f64) {
            if rate.is_finite() {
                self.latest = rate.max(0.0);
            }
        }

        fn record_quantum(&mut self, _app: AppId, _rate: f64) {}

        fn estimate(&self, _app: AppId) -> f64 {
            self.latest * 2.0
        }

        fn forget(&mut self, _app: AppId) {}

        fn label(&self) -> &'static str {
            "Doubling"
        }
    }

    #[test]
    fn broken_estimator_fires_estimator_range() {
        let mut est = DoublingEstimator { latest: 0.0 };
        let v = check_estimator_range(&mut est, &[4.0, 8.0], None)
            .expect("doubling estimator must escape the sample range");
        assert_eq!(v.invariant, "estimator-range");
        assert!(v.detail.contains("Doubling"), "{}", v.detail);
    }

    #[test]
    fn real_estimators_survive_the_self_check() {
        let mut aud = Auditor::with_builtins();
        for seed in [0, 42, 1234] {
            aud.self_check(seed);
        }
        assert!(aud.is_clean(), "{:?}", aud.violations());
    }

    #[test]
    fn byte_divergence_fires_cache_consistency() {
        let mut aud = Auditor::with_builtins();
        aud.check_byte_identity("unit test artifact", b"same-prefix-A", b"same-prefix-B");
        let v = &aud.violations()[0];
        assert_eq!(v.invariant, "cache-consistency");
        assert!(v.detail.contains("offset 12"), "{}", v.detail);
        let mut clean = Auditor::with_builtins();
        clean.check_byte_identity("identical", b"x", b"x");
        assert!(clean.is_clean());
    }

    #[test]
    fn catalog_names_are_unique_and_complete() {
        let aud = Auditor::with_builtins();
        let names: Vec<_> = aud.catalog().iter().map(|(n, _)| *n).collect();
        let unique: BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        for n in [
            "no-double-allocation",
            "cpu-bounds",
            "gang-integrity",
            "stage-coherence",
            "bus-capacity",
            "monotonic-trace",
            "estimator-range",
            "manager-arena-coherence",
            "manager-lifecycle",
            "cache-consistency",
            "exec-path-equivalence",
            "topology-capacity",
            "oracle-admissibility",
        ] {
            assert!(names.contains(&n), "missing invariant {n}");
        }
        assert_eq!(names.len(), 13);
    }

    #[test]
    fn oversubscribed_level_fires_topology_capacity() {
        let mut aud = Auditor::with_builtins();
        let levels = [
            LevelOutcome {
                demand: 40.0,
                issued: 30.0, // over the 28.0 ceiling
                effective_capacity: 28.0,
                dilation: 40.0 / 28.0,
                utilization: 1.0,
                saturated: true,
            },
            LevelOutcome {
                demand: 5.0,
                issued: 6.0, // issued more than was demanded
                effective_capacity: 44.25,
                dilation: 1.0,
                utilization: 0.14,
                saturated: false,
            },
        ];
        aud.on_levels(700, 100, &levels);
        let counts = count_by_invariant(aud.violations());
        assert_eq!(counts.get("topology-capacity"), Some(&2));
        assert!(aud.violations()[0].detail.contains("level 0"));
    }

    #[test]
    fn conserving_levels_pass_topology_capacity() {
        let mut aud = Auditor::with_builtins();
        let levels = [LevelOutcome {
            demand: 40.0,
            issued: 28.0,
            effective_capacity: 28.0,
            dilation: 40.0 / 28.0,
            utilization: 1.0,
            saturated: true,
        }];
        aud.on_levels(700, 100, &levels);
        // Empty level slices (one-socket buses) are vacuously clean too.
        aud.on_levels(800, 100, &[]);
        assert!(aud.is_clean(), "{:?}", aud.violations());
    }

    #[test]
    fn live_multi_socket_run_passes_topology_capacity() {
        // Drive a real 2-socket machine hot enough to saturate a local
        // bus; the per-level accounting must still conserve capacity.
        use busbw_sim::TopologyConfig;
        let mut m = Machine::new(busbw_sim::MachineConfig {
            num_cpus: 8,
            topology: TopologyConfig::multi(2),
            ..XEON_4WAY
        });
        m.add_app(AppDescriptor::new(
            "hot",
            (0..4)
                .map(|_| ThreadSpec::new(400_000.0, Box::new(ConstantDemand::new(12.0, 0.9))))
                .collect(),
        ));
        let mut sched = busbw_sim::testkit::Replay::new(Decision {
            assignments: (0..4).map(|t| assign(t, t as usize)).collect(),
            next_resched_in_us: 1_000_000,
            sample_period_us: None,
        });
        let mut aud = Auditor::with_builtins();
        let out = m.run_audited(
            &mut sched,
            busbw_sim::StopCondition::At(100_000),
            Some(&mut aud),
        );
        assert!(
            out.stats.n_levels > 0,
            "hierarchical bus must report levels"
        );
        assert!(aud.is_clean(), "{:?}", aud.violations());
    }

    #[test]
    fn torn_rate_write_fires_manager_arena_coherence() {
        // The seeded seqlock fault: mutate the published rate without the
        // odd/even bracket. Successive reads observe different fields
        // under one unchanged sequence — exactly what the coherence check
        // exists to catch.
        let arena = SeqlockArena::new();
        arena.publish(ArenaSnapshot {
            seq: 1,
            threads: 2,
            total_transactions: 1_000.0,
            rate_tx_per_us: 4.0,
            updated_at_us: 100_000,
        });
        let before = arena.read();
        arena.publish_torn_rate(99.0);
        let after = arena.read();
        assert_eq!(before.seq, after.seq, "torn write must not bump the seq");
        let violations = check_arena_coherence(&[before, after]);
        let counts = count_by_invariant(&violations);
        assert_eq!(counts.get("manager-arena-coherence"), Some(&1));
        assert!(
            violations[0].detail.contains("torn write"),
            "{}",
            violations[0].detail
        );
        // A bracketed publish of the same change is coherent.
        let clean_arena = SeqlockArena::new();
        clean_arena.publish(before);
        let a = clean_arena.read();
        clean_arena.publish(ArenaSnapshot {
            seq: 2,
            rate_tx_per_us: 99.0,
            ..before
        });
        let b = clean_arena.read();
        assert!(check_arena_coherence(&[a, b]).is_empty());
    }

    #[test]
    fn manager_publish_path_self_check_is_clean() {
        let mut inv = ManagerArenaCoherence;
        let mut out = Vec::new();
        for seed in [0, 3, 42] {
            inv.self_check(seed, &mut out);
        }
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn ghost_and_double_departures_fire_manager_lifecycle() {
        let mut aud = Auditor::with_builtins();
        let ev = vec![
            TraceEvent::ClientArrived {
                at_us: 100,
                client: 0,
                width: 2,
            },
            // Ghost: client 7 never arrived.
            TraceEvent::ClientDeparted {
                at_us: 200,
                client: 7,
                turnaround_us: 100,
            },
            TraceEvent::ClientDeparted {
                at_us: 300,
                client: 0,
                turnaround_us: 200,
            },
            // Double departure of client 0.
            TraceEvent::ClientDeparted {
                at_us: 400,
                client: 0,
                turnaround_us: 300,
            },
        ];
        aud.check_events(&ev);
        let counts = count_by_invariant(aud.violations());
        assert_eq!(counts.get("manager-lifecycle"), Some(&2));
    }

    #[test]
    fn turnaround_mismatch_fires_manager_lifecycle() {
        let mut aud = Auditor::with_builtins();
        let ev = vec![
            TraceEvent::ClientArrived {
                at_us: 100,
                client: 3,
                width: 1,
            },
            TraceEvent::ClientDeparted {
                at_us: 500,
                client: 3,
                turnaround_us: 999, // should be 400
            },
        ];
        aud.check_events(&ev);
        assert!(count_by_invariant(aud.violations()).contains_key("manager-lifecycle"));
    }

    #[test]
    fn real_open_serve_stream_passes_the_lifecycle_check() {
        // Drive the actual managerd event loop and audit its trace: the
        // positive leg of the seeded-fault pair above.
        let cfg = busbw_managerd::OpenConfig {
            arrivals: busbw_managerd::ArrivalProcess::Poisson { rate_per_s: 60.0 },
            duration_us: 1_500_000,
            seed: 11,
            queue_capacity: 4,
            collect_events: true,
            ..busbw_managerd::OpenConfig::default()
        };
        let out = busbw_managerd::serve(&cfg, Box::new(LatestQuantumEstimator::new()));
        assert!(out.served > 0, "serve produced no departures to audit");
        let mut aud = Auditor::with_builtins();
        aud.check_events(&out.events);
        assert!(aud.is_clean(), "{:?}", aud.violations());
    }
}
