//! The work-stealing pool: one set of worker threads for the cells of a
//! batch and for the work inside them.
//!
//! [`map`] runs a batch of top-level tasks (an engine's cells) on up to
//! `workers` OS threads; the calling thread is worker 0. A running task
//! may call [`fan_out`] to queue subtasks on the same pool — the oracle's
//! candidate simulations, a sibling group's forked branches — and wait
//! for them. Queued subtasks are stealable:
//!
//! - An idle worker claims the next cell; once every cell has been
//!   claimed it takes the oldest queued subtask. A fork therefore stays
//!   on the worker that made it while there is other work to start, and
//!   moves only to balance the tail. (Stealing branches in the middle of
//!   a sweep costs more CPU than it saves.)
//! - A worker waiting on a fan-out helps: first with that fan-out's own
//!   subtasks, then with any other queued subtask. It never starts a new
//!   cell, so a critical-path task is never parked behind one.
//!
//! Every thread executes one task at a time, so no more than `workers`
//! tasks ever execute concurrently; a waiting parent is suspended, not
//! executing.
//!
//! Subtasks are `'static` closures that own their inputs (a paused run is
//! `Send`, so a fork moves into its task) and hand results back through
//! channels. Outside a pool, [`fan_out`] runs on a private one-worker
//! pool: the calling thread drains its own subtasks. So `workers = 1` and
//! "no pool" are the parallel code path without thieves, not a second
//! implementation.
//!
//! Results of [`map`] come back in input order and every task is a pure
//! function of its inputs, so the output is **bit-identical** to a serial
//! map for any worker count; parallelism and stealing only change the
//! order work is *done*.

use std::any::Any;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use busbw_core::oracle::{FanOut, Task, Tasks};

/// What the pool did while draining one batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Top-level tasks executed (= input length).
    pub executed: u64,
    /// Tasks fanned out from inside a running task.
    pub subtasks: u64,
    /// Subtasks executed by a worker other than the one that queued them.
    /// Top-level tasks are dealt from one shared cursor, so they never
    /// count; always 0 on one worker.
    pub steals: u64,
}

/// A queued subtask: its fan-out, the worker that queued it, the work.
struct Queued {
    fan: u64,
    by: usize,
    task: Task,
}

/// One open [`fan_out`]: subtasks queued or running, and the first panic.
#[derive(Default)]
struct Fan {
    pending: usize,
    panic: Option<Box<dyn Any + Send>>,
}

/// Everything the workers share, behind one lock.
#[derive(Default)]
struct State {
    queue: VecDeque<Queued>,
    fans: HashMap<u64, Fan>,
    next_fan: u64,
    next_cell: usize,
    cells_done: usize,
    cell_panic: Option<Box<dyn Any + Send>>,
    stats: PoolStats,
}

#[derive(Default)]
struct Shared {
    state: Mutex<State>,
    /// Signalled when a subtask is queued or finishes, or the last cell
    /// finishes.
    wake: Condvar,
}

impl Shared {
    /// Task code never runs under this lock (tasks run between `lock`
    /// calls, inside `catch_unwind`), so it is poisoned only by a bug in
    /// the pool itself.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("pool state lock: no task runs under it")
    }

    fn wait<'a>(&self, st: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.wake
            .wait(st)
            .expect("pool state lock: no task runs under it")
    }

    /// Run a dequeued subtask on worker `w` outside the lock and settle
    /// its fan-out. A subtask of a fan-out that already panicked is
    /// dropped unrun.
    fn run_subtask<'a>(
        &'a self,
        st: MutexGuard<'a, State>,
        q: Queued,
        w: usize,
    ) -> MutexGuard<'a, State> {
        let doomed = st.fans[&q.fan].panic.is_some();
        drop(st);
        let outcome = if doomed {
            Ok(())
        } else {
            catch_unwind(AssertUnwindSafe(q.task))
        };
        let mut st = self.lock();
        if !doomed && q.by != w {
            st.stats.steals += 1;
        }
        let fan = st
            .fans
            .get_mut(&q.fan)
            .expect("a queued subtask's fan-out is open");
        if let Err(payload) = outcome {
            fan.panic.get_or_insert(payload);
        }
        fan.pending -= 1;
        self.wake.notify_all();
        st
    }
}

thread_local! {
    /// The pool this thread works for, and its worker index.
    static WORKER: RefCell<Option<(Arc<Shared>, usize)>> = const { RefCell::new(None) };
}

fn current() -> Option<(Arc<Shared>, usize)> {
    WORKER.with(|c| c.borrow().clone())
}

/// Marks this thread as worker `w` of a pool until dropped, then restores
/// whatever it was before.
struct Enter(Option<(Arc<Shared>, usize)>);

fn enter(shared: &Arc<Shared>, w: usize) -> Enter {
    Enter(WORKER.with(|c| c.replace(Some((Arc::clone(shared), w)))))
}

impl Drop for Enter {
    fn drop(&mut self) {
        WORKER.with(|c| *c.borrow_mut() = self.0.take());
    }
}

/// Map `f` over `items` on a pool of up to `workers` threads, returning
/// results in input order plus the pool's stats. Each item is one
/// top-level task; tasks may [`fan_out`] onto the same pool.
///
/// A `map` started from inside a running task gets one worker — the
/// calling thread — because the enclosing pool's workers are already
/// accounted for. A panicking task fails the batch: the remaining items
/// are claimed without running, and the first payload is re-raised once
/// every worker has stopped.
pub fn map<T, R, F>(items: &[T], workers: usize, f: F) -> (Vec<R>, PoolStats)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    // An empty batch runs on the caller alone: no task can fan out, so a
    // spare worker would only be spawned and joined. A non-empty batch
    // keeps every worker even when it has fewer cells than workers, since
    // the spares steal the subtasks those cells fan out.
    let workers = if current().is_some() || n == 0 {
        1
    } else {
        workers.max(1)
    };
    let shared = Arc::new(Shared::default());
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let work = |w: usize| {
        let _worker = enter(&shared, w);
        let mut st = shared.lock();
        loop {
            if st.next_cell < n {
                let i = st.next_cell;
                st.next_cell += 1;
                let doomed = st.cell_panic.is_some();
                drop(st);
                let outcome = if doomed {
                    Ok(())
                } else {
                    catch_unwind(AssertUnwindSafe(|| {
                        let r = f(&items[i]);
                        *slots[i].lock().expect("a slot lock guards one store") = Some(r);
                    }))
                };
                st = shared.lock();
                if let Err(payload) = outcome {
                    st.cell_panic.get_or_insert(payload);
                }
                st.cells_done += 1;
                if st.cells_done == n {
                    shared.wake.notify_all();
                }
            } else if let Some(q) = st.queue.pop_front() {
                st = shared.run_subtask(st, q, w);
            } else if st.cells_done == n {
                break;
            } else {
                st = shared.wait(st);
            }
        }
    };
    std::thread::scope(|s| {
        for w in 1..workers {
            let work = &work;
            s.spawn(move || work(w));
        }
        work(0);
    });

    let mut st = shared.lock();
    if let Some(payload) = st.cell_panic.take() {
        drop(st);
        resume_unwind(payload);
    }
    let stats = PoolStats {
        executed: n as u64,
        ..st.stats
    };
    drop(st);
    let results = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("a slot lock guards one store")
                .expect("every task ran")
        })
        .collect();
    (results, stats)
}

/// Queues the subtasks of one [`fan_out`].
pub struct Spawner {
    shared: Arc<Shared>,
    fan: u64,
}

impl Spawner {
    /// Queue `task` as a stealable subtask of this fan-out. It receives
    /// the fan-out's spawner, so it can queue further subtasks that the
    /// same [`fan_out`] waits for.
    pub fn spawn(&self, task: impl FnOnce(&Spawner) + Send + 'static) {
        let me = Spawner {
            shared: Arc::clone(&self.shared),
            fan: self.fan,
        };
        let by = worker_index(&self.shared);
        let mut st = self.shared.lock();
        st.fans
            .get_mut(&self.fan)
            .expect("spawned into an open fan-out")
            .pending += 1;
        st.stats.subtasks += 1;
        st.queue.push_back(Queued {
            fan: self.fan,
            by,
            task: Box::new(move || task(&me)),
        });
        drop(st);
        self.shared.wake.notify_all();
    }

    /// Make progress on this fan-out: run one of its queued subtasks on
    /// the calling thread (or, when none is queued, another fan-out's),
    /// or wait until a subtask finishes. Returns `false`, at once, when
    /// none of this fan-out's subtasks is queued or running. Never starts
    /// a cell.
    pub fn help(&self) -> bool {
        let w = worker_index(&self.shared);
        let mut st = self.shared.lock();
        if st.fans[&self.fan].pending == 0 {
            return false;
        }
        let own = st.queue.iter().position(|q| q.fan == self.fan);
        match own.or_else(|| (!st.queue.is_empty()).then_some(0)) {
            Some(i) => {
                let q = st.queue.remove(i).expect("position is in range");
                drop(self.shared.run_subtask(st, q, w));
            }
            None => drop(self.shared.wait(st)),
        }
        true
    }
}

/// This thread's worker index in `shared`, or `usize::MAX` if it works
/// for another pool.
fn worker_index(shared: &Arc<Shared>) -> usize {
    current()
        .filter(|(s, _)| Arc::ptr_eq(s, shared))
        .map_or(usize::MAX, |(_, w)| w)
}

/// Run `root`, which may queue subtasks through the [`Spawner`], then help
/// with those subtasks until every one has finished, and return `root`'s
/// value. On a pool worker the subtasks go to that pool, where idle
/// workers steal them; elsewhere the calling thread runs them all itself.
///
/// If `root` or any subtask panics, the not-yet-started subtasks are
/// dropped, the running ones are waited for, and the first payload is
/// re-raised.
pub fn fan_out<R>(root: impl FnOnce(&Spawner) -> R) -> R {
    let (shared, w) = current().unwrap_or_else(|| (Arc::new(Shared::default()), 0));
    let _worker = enter(&shared, w);
    let fan = {
        let mut st = shared.lock();
        let id = st.next_fan;
        st.next_fan += 1;
        st.fans.insert(id, Fan::default());
        id
    };
    let spawner = Spawner {
        shared: Arc::clone(&shared),
        fan,
    };
    let value = match catch_unwind(AssertUnwindSafe(|| root(&spawner))) {
        Ok(v) => Some(v),
        Err(payload) => {
            let mut st = shared.lock();
            let f = st.fans.get_mut(&fan).expect("own fan-out is open");
            f.panic.get_or_insert(payload);
            None
        }
    };
    while spawner.help() {}
    let done = shared
        .lock()
        .fans
        .remove(&fan)
        .expect("own fan-out is open");
    match (done.panic, value) {
        (Some(payload), _) => resume_unwind(payload),
        (None, Some(v)) => v,
        (None, None) => unreachable!("a failed root records its panic"),
    }
}

/// The pool this thread is working for, as the oracle's [`FanOut`]: its
/// candidate simulations become subtasks of the current task. Outside a
/// pool they run serially on the caller.
#[derive(Debug, Clone, Copy, Default)]
pub struct CurrentPool;

impl FanOut for CurrentPool {
    fn scope(&self, body: &mut dyn FnMut(&mut dyn Tasks)) {
        fan_out(|mut s| body(&mut s));
    }
}

impl Tasks for &Spawner {
    fn spawn(&mut self, task: Task) {
        Spawner::spawn(self, move |_| task());
    }

    fn help(&mut self) -> bool {
        Spawner::help(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn spin(i: u64, rounds: u64) -> u64 {
        let mut acc = i;
        for _ in 0..rounds {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        acc
    }

    /// Counts tasks inside their bodies and keeps the high-water mark.
    #[derive(Default)]
    struct HighWater {
        now: AtomicUsize,
        max: AtomicUsize,
    }

    impl HighWater {
        fn during<R>(&self, f: impl FnOnce() -> R) -> R {
            let n = self.now.fetch_add(1, Ordering::SeqCst) + 1;
            self.max.fetch_max(n, Ordering::SeqCst);
            let r = f();
            self.now.fetch_sub(1, Ordering::SeqCst);
            r
        }
    }

    fn payload_text(payload: &(dyn Any + Send)) -> String {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("panic payload is a string")
    }

    #[test]
    fn preserves_input_order_for_uneven_work() {
        let items: Vec<u64> = (0..64).collect();
        let (out, stats) = map(&items, 8, |&i| (i, spin(i, (i % 9) * 1500)));
        let ids: Vec<u64> = out.iter().map(|(i, _)| *i).collect();
        assert_eq!(ids, items);
        assert_eq!(stats.executed, 64);
    }

    #[test]
    fn nested_map_preserves_input_order_for_uneven_work() {
        // Uneven outer tasks, each fanning out uneven subtasks: results
        // come back in input order at every worker count, and neither the
        // cells nor the subtasks ever exceed `workers` at once.
        let items: Vec<u64> = (0..40).collect();
        let expected: Vec<(u64, Vec<u64>)> = items
            .iter()
            .map(|&i| (i, (0..i % 5).map(|k| spin(i * 10 + k, k * 400)).collect()))
            .collect();
        for workers in [1, 2, 8] {
            let (outer, inner) = (
                Arc::new(HighWater::default()),
                Arc::new(HighWater::default()),
            );
            let (out, stats) = map(&items, workers, |&i| {
                outer.during(|| {
                    std::hint::black_box(spin(i, (i % 7) * 1000));
                    let (tx, rx) = std::sync::mpsc::channel();
                    fan_out(|s| {
                        for k in 0..i % 5 {
                            let (tx, inner) = (tx.clone(), Arc::clone(&inner));
                            s.spawn(move |_| {
                                let v = inner.during(|| spin(i * 10 + k, k * 400));
                                tx.send((k, v)).expect("receiver alive");
                            });
                        }
                    });
                    drop(tx);
                    let mut subs: Vec<(u64, u64)> = rx.into_iter().collect();
                    subs.sort_unstable();
                    (i, subs.into_iter().map(|(_, v)| v).collect::<Vec<u64>>())
                })
            });
            assert_eq!(out, expected, "workers = {workers}");
            assert_eq!(stats.executed, 40);
            assert_eq!(stats.subtasks, items.iter().map(|i| i % 5).sum::<u64>());
            assert!(outer.max.load(Ordering::SeqCst) <= workers);
            assert!(inner.max.load(Ordering::SeqCst) <= workers);
            if workers == 1 {
                assert_eq!(stats.steals, 0);
            }
        }
    }

    #[test]
    fn serial_degenerate_case_has_no_steals() {
        let items = vec![1, 2, 3];
        let (out, stats) = map(&items, 1, |&x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
        assert_eq!(
            stats,
            PoolStats {
                executed: 3,
                subtasks: 0,
                steals: 0
            }
        );
    }

    #[test]
    fn empty_batch_is_fine() {
        let items: Vec<u32> = vec![];
        let (out, stats) = map(&items, 4, |&x| x);
        assert!(out.is_empty());
        assert_eq!(stats.executed, 0);
    }

    #[test]
    fn uneven_final_chunk_still_drains_completely() {
        let items: Vec<u32> = (0..7).collect();
        let (out, _) = map(&items, 3, |&x| x + 100);
        assert_eq!(out, (100..107).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_job_fails_the_batch_cleanly_and_reraises() {
        // One bad cell out of 64: the call must terminate (no worker left
        // waiting on a cell nobody finishes) and re-raise the original
        // payload after all workers joined.
        let items: Vec<u64> = (0..64).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            map(&items, 4, |&i| {
                if i == 13 {
                    panic!("bad cell 13");
                }
                i * 2
            })
        }));
        let payload = result.expect_err("the panic must propagate to the caller");
        let msg = payload_text(&*payload);
        assert!(msg.contains("bad cell 13"), "payload was {msg:?}");
    }

    #[test]
    fn panicking_job_in_serial_mode_propagates_too() {
        let items = vec![1u32, 2, 3];
        let result = catch_unwind(AssertUnwindSafe(|| {
            map(&items, 1, |&x| {
                if x == 2 {
                    panic!("serial bad cell");
                }
                x
            })
        }));
        assert!(result.is_err());
    }

    #[test]
    fn panicking_subtask_reraises_its_payload_through_both_levels() {
        for workers in [1, 2, 8] {
            let items: Vec<u64> = (0..16).collect();
            let result = catch_unwind(AssertUnwindSafe(|| {
                map(&items, workers, |&i| {
                    fan_out(|s| {
                        for k in 0..4u64 {
                            s.spawn(move |_| {
                                if i == 5 && k == 2 {
                                    panic!("bad subtask 5.2");
                                }
                                spin(k, 2000);
                            });
                        }
                    });
                    i
                })
            }));
            let payload = result.expect_err("the panic must reach the caller");
            assert_eq!(payload_text(&*payload), "bad subtask 5.2");
        }
    }

    #[test]
    fn fan_out_outside_a_pool_runs_every_subtask_on_the_caller() {
        let here = std::thread::current().id();
        let (tx, rx) = std::sync::mpsc::channel();
        let root = fan_out(|s| {
            for k in 0..3 {
                let tx = tx.clone();
                s.spawn(move |s| {
                    // Subtasks may queue subtasks of the same fan-out.
                    let tx2 = tx.clone();
                    s.spawn(move |_| tx2.send((k + 10, std::thread::current().id())).unwrap());
                    tx.send((k, std::thread::current().id())).unwrap();
                });
            }
            "root"
        });
        drop(tx);
        let mut ran: Vec<(i32, std::thread::ThreadId)> = rx.into_iter().collect();
        ran.sort_by_key(|&(k, _)| k);
        assert_eq!(root, "root");
        assert_eq!(
            ran.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
            [0, 1, 2, 10, 11, 12]
        );
        assert!(ran.iter().all(|&(_, t)| t == here));
    }

    #[test]
    fn stealing_happens_when_one_chunk_is_heavy() {
        // One cell fans out heavy subtasks while the others finish fast:
        // idle workers steal from it. Steals are timing-dependent (on one
        // core the owner may drain everything first), so only the
        // accounting is asserted.
        let items: Vec<u64> = (0..32).collect();
        let (out, stats) = map(&items, 4, |&i| {
            if i == 0 {
                fan_out(|s| {
                    for k in 0..8 {
                        s.spawn(move |_| {
                            spin(k, 200_000);
                        });
                    }
                });
            }
            spin(i, 10)
        });
        assert_eq!(out.len(), 32);
        assert_eq!(stats.executed, 32);
        assert_eq!(stats.subtasks, 8);
        assert!(stats.steals <= 8);
    }
}
