//! Sibling execution: cells that differ only in policy share one machine
//! until their schedulers disagree.
//!
//! Figures compare policies on the same workload, machine and seed, and
//! those policies often make identical decisions for long stretches (a
//! socket-aware placer on a one-socket machine places exactly like
//! `packed`). [`run_group`] drives such a *sibling group* on one
//! [`Machine`]: at every scheduling point it asks each member's scheduler
//! for a [`Decision`] on the same view, and while all decisions are equal
//! it applies one of them once. Where members split, it clones the machine
//! and its [`RunCursor`] once per extra distinct decision, and each branch
//! continues alone with the members that chose it: the first on the
//! forking worker, every other one as a stealable subtask of the group's
//! [`fan_out`]. A branch owns its machine and its members' schedulers and
//! reports back through a channel, so branches may finish in any order.
//!
//! The result of every member is bit-identical to running it alone
//! ([`crate::jobgraph::RunRequest::execute`]): machine state is a function
//! of the decision and timer history only, a decision carries its own
//! timers, every scheduler sees the same immutable view at the same
//! instants it would alone (samples fan out to every member), and a clone
//! copies the whole simulated state, bus memo and demand models included.

use std::sync::{mpsc, Arc};

use busbw_sim::{AppId, Decision, Machine, RunCursor, Scheduler, StepEvent, StopCondition};
use busbw_workloads::mix::WorkloadSpec;

use crate::pool::{fan_out, Spawner};
use crate::runner::{finalize_run, prepare_run, PolicyKind, PreparedRun, RunResult, RunnerConfig};

/// The outcome of one sibling group (or of one open group,
/// [`crate::open::open_group`]).
#[derive(Debug)]
pub struct GroupRun {
    /// One result per member, in the order the policies were given.
    pub results: Vec<RunResult>,
    /// Machine clones made where members split; in an open group, the
    /// classes served again.
    pub forks: u64,
    /// Member ticks another member's simulation covered: every tick a
    /// branch of `k` members simulates counts `k − 1` here, so the ticks
    /// actually simulated are `Σ results[i].ticks − shared_ticks`.
    pub shared_ticks: u64,
    /// Managerd serve loops run (0 for closed-system groups).
    pub serves: u64,
}

/// One scheduler of a group, with its position in the caller's list.
struct Member {
    index: usize,
    sched: Box<dyn Scheduler>,
}

/// A machine advancing on behalf of the members that have agreed so far.
struct Branch {
    machine: Machine,
    cur: RunCursor,
    members: Vec<Member>,
}

/// Run `spec` under every policy in `policies` as one sibling group.
/// Each result equals what [`crate::runner::run_spec`] returns for that
/// policy alone, bit for bit.
///
/// # Panics
/// Panics if `policies` is empty or `rc` collects a trace: trace sinks
/// are per run, and a shared prefix would emit its events once.
pub fn run_group(spec: &WorkloadSpec, policies: &[PolicyKind], rc: &RunnerConfig) -> GroupRun {
    run_group_with(spec, policies, rc, false)
}

/// [`run_group`] with a seeded fault for the audit's negative test: with
/// `keep_sharing` the driver applies the first member's decision to every
/// member even after they disagree, which the grouped audit arm must
/// catch.
pub(crate) fn run_group_with(
    spec: &WorkloadSpec,
    policies: &[PolicyKind],
    rc: &RunnerConfig,
    keep_sharing: bool,
) -> GroupRun {
    assert!(!policies.is_empty(), "a sibling group needs a member");
    assert!(
        rc.trace == crate::runner::TraceMode::Off,
        "sibling groups run untraced"
    );
    let PreparedRun {
        machine,
        sched,
        measured_ids,
        ..
    } = prepare_run(spec, policies[0], rc);
    let mut members: Vec<Member> = std::iter::once(sched)
        .chain(policies[1..].iter().map(PolicyKind::build))
        .enumerate()
        .map(|(index, sched)| Member { index, sched })
        .collect();
    for m in &mut members {
        m.sched.attach_tracer(machine.tracer());
        m.sched.set_introspect(false);
    }
    let cur = machine.run_begin(StopCondition::AppsFinished(measured_ids.clone()));

    let ctx = Arc::new(Ctx {
        measured_ids,
        keep_sharing,
    });
    let (tx, rx) = mpsc::channel();
    let first = Branch {
        machine,
        cur,
        members,
    };
    fan_out(|s| run_branch(s, &ctx, &tx, first));
    drop(tx);

    let mut results: Vec<Option<RunResult>> = policies.iter().map(|_| None).collect();
    let (mut forks, mut shared_ticks) = (0u64, 0u64);
    for out in rx {
        forks += out.forks;
        shared_ticks += out.shared_ticks;
        for (index, r) in out.results {
            results[index] = Some(r);
        }
    }
    GroupRun {
        results: results
            .into_iter()
            .map(|r| r.expect("every member finishes on some branch"))
            .collect(),
        forks,
        shared_ticks,
        serves: 0,
    }
}

/// What every branch of one group shares.
struct Ctx {
    measured_ids: Vec<AppId>,
    keep_sharing: bool,
}

/// What one branch reports when its run ends: its members' results by
/// member index, and its share of the group's counters.
struct BranchOut {
    results: Vec<(usize, RunResult)>,
    forks: u64,
    shared_ticks: u64,
}

/// Drive `b` to the end of its run. Where its members split, every class
/// but the first continues on its own copy of the machine, queued on `s`
/// as a stealable task; the first class stays on `b`.
fn run_branch(s: &Spawner, ctx: &Arc<Ctx>, tx: &mpsc::Sender<BranchOut>, mut b: Branch) {
    let (mut forks, mut shared_ticks) = (0u64, 0u64);
    loop {
        let before = b.cur.ticks();
        let sharers = b.members.len() as u64 - 1;
        match b.machine.run_step(&mut b.cur, None) {
            StepEvent::Sample => {
                shared_ticks += (b.cur.ticks() - before) * sharers;
                let view = b.machine.view();
                for m in &mut b.members {
                    m.sched.on_sample(&view);
                }
            }
            StepEvent::Schedule => {
                shared_ticks += (b.cur.ticks() - before) * sharers;
                let mut classes = split_by_decision(&mut b, ctx.keep_sharing);
                for (decision, members) in classes.drain(1..) {
                    let mut machine = b.machine.clone();
                    let mut cur = b.cur.clone();
                    machine.run_decide(&mut cur, &decision);
                    let fork = Branch {
                        machine,
                        cur,
                        members,
                    };
                    let (ctx, tx) = (Arc::clone(ctx), tx.clone());
                    s.spawn(move |s| run_branch(s, &ctx, &tx, fork));
                    forks += 1;
                }
                let (decision, members) = classes.pop().expect("one class per branch");
                b.members = members;
                b.machine.run_decide(&mut b.cur, &decision);
            }
            StepEvent::Done(out) => {
                shared_ticks += (out.stats.ticks - before) * sharers;
                let mut members = std::mem::take(&mut b.members);
                let last = members.pop().expect("a branch has members");
                let mut results = Vec::with_capacity(members.len() + 1);
                for m in members {
                    let prep = PreparedRun {
                        machine: b.machine.clone(),
                        sched: m.sched,
                        measured_ids: ctx.measured_ids.clone(),
                        handle: None,
                    };
                    results.push((m.index, finalize_run(prep, out.clone())));
                }
                let prep = PreparedRun {
                    machine: b.machine,
                    sched: last.sched,
                    measured_ids: ctx.measured_ids.clone(),
                    handle: None,
                };
                results.push((last.index, finalize_run(prep, out)));
                let _ = tx.send(BranchOut {
                    results,
                    forks,
                    shared_ticks,
                });
                return;
            }
        }
    }
}

/// Ask every member of `b` for its decision on the branch's current view
/// and group the members by equal decisions, in member order. With
/// `keep_sharing` (the seeded fault) everyone joins the first class.
fn split_by_decision(b: &mut Branch, keep_sharing: bool) -> Vec<(Decision, Vec<Member>)> {
    let view = b.machine.view();
    let mut classes: Vec<(Decision, Vec<Member>)> = Vec::new();
    for mut m in b.members.drain(..) {
        let d = m.sched.schedule(&view);
        match classes.iter_mut().find(|(c, _)| keep_sharing || *c == d) {
            Some((_, ms)) => ms.push(m),
            None => classes.push((d, vec![m])),
        }
    }
    classes
}
