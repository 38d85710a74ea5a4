//! The application-side run-time library (§4).
//!
//! The paper: *"A run-time library which accompanies the CPU manager
//! offers all the necessary functionality for the cooperation between the
//! CPU manager and applications. The modifications required to the source
//! code of applications are limited to the addition of calls for
//! connection and disconnection and to the interception of thread creation
//! and destruction."*
//!
//! [`AppRuntime`] is that library: `connect` performs the handshake,
//! [`AppRuntime::register_thread`] intercepts thread creation and hands
//! the worker a [`ThreadHandle`], through which the worker
//!
//! * counts its own bus transactions ([`ThreadHandle::count_transactions`]
//!   — the software stand-in for the hardware counter), and
//! * periodically reaches a **checkpoint** ([`ThreadHandle::checkpoint`])
//!   where a pending block signal takes effect (the user-level analogue of
//!   signal delivery interrupting execution).
//!
//! [`AppRuntime::publish_sample`] aggregates all thread counters and
//! writes the application's transaction rate to the shared arena — the
//! paper does this twice per scheduling quantum.
//!
//! A runtime reaches the manager one of two ways. A threaded client
//! connects over the channel ([`AppRuntime::connect`]) and every
//! lifecycle call sends a message. A client hosted in the manager's own
//! loop is built from the manager's [`ConnectAck`]
//! ([`AppRuntime::in_process`]) and sends nothing: its host calls the
//! manager's handler for each step instead (`CpuManager::thread_created`
//! after [`AppRuntime::register_thread`], and so on). Such a host can
//! hand a runtime whose client has disconnected to the next client
//! ([`AppRuntime::readmit_in_process`]), which then reuses its storage.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, Sender};
use std::sync::Arc;

use super::protocol::{ClientId, ConnectAck, ToManager};
use super::seqlock::{ArenaSnapshot, SeqlockArena};
use super::server::ManagerHandle;
use super::signals::SignalGate;

/// Errors the run-time library reports to the application.
///
/// The paper's manager is a separate server process; it can die (or be
/// restarted by the operator) while applications are mid-flight. The
/// run-time library surfaces that as a recoverable error instead of
/// panicking inside application code, so an application can fall back to
/// native scheduling — exactly what happens on the real platform when the
/// CPU manager is not running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ManagerError {
    /// The manager hung up: its channel end is gone, so the handshake or
    /// notification could not be delivered (or its acknowledgement never
    /// arrived).
    Disconnected,
}

impl std::fmt::Display for ManagerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManagerError::Disconnected => {
                write!(f, "the CPU manager is gone (channel disconnected)")
            }
        }
    }
}

impl std::error::Error for ManagerError {}

/// Per-thread state handed to a worker thread.
#[derive(Debug, Clone)]
pub struct ThreadHandle {
    gate: Arc<SignalGate>,
    transactions: Arc<AtomicU64>,
}

impl ThreadHandle {
    /// Count `n` bus transactions performed by this thread since the last
    /// call (software performance counter).
    pub fn count_transactions(&self, n: u64) {
        self.transactions.fetch_add(n, Ordering::Relaxed);
    }

    /// A scheduling checkpoint: parks the thread while its job is blocked.
    pub fn checkpoint(&self) {
        self.gate.wait_while_blocked();
    }

    /// Whether the thread would park at a checkpoint right now.
    pub fn is_blocked(&self) -> bool {
        self.gate.should_block()
    }

    /// The thread's gate (for the manager or forwarding siblings).
    pub fn gate(&self) -> Arc<SignalGate> {
        self.gate.clone()
    }

    /// This handle reset to a fresh one's state (an open gate, no
    /// transactions counted), if nothing else holds its gate or its
    /// counter any more.
    fn reclaim(mut self) -> Option<Self> {
        *Arc::get_mut(&mut self.gate)? = SignalGate::new();
        *Arc::get_mut(&mut self.transactions)? = AtomicU64::new(0);
        Some(self)
    }
}

/// A connection awaiting the manager's acknowledgement.
pub struct PendingConnect {
    rx: Receiver<ConnectAck>,
    to_manager: Sender<ToManager>,
}

impl PendingConnect {
    /// Phase 2: receive the acknowledgement (the manager must have pumped
    /// since [`AppRuntime::request_connect`]).
    ///
    /// Returns [`ManagerError::Disconnected`] when the manager died before
    /// acknowledging.
    pub fn complete(self) -> Result<AppRuntime, ManagerError> {
        let ack = self.rx.recv().map_err(|_| ManagerError::Disconnected)?;
        Ok(AppRuntime::from_ack(ack, Some(self.to_manager)))
    }
}

/// The per-application runtime.
pub struct AppRuntime {
    id: ClientId,
    arena: SeqlockArena,
    /// Where lifecycle messages go; `None` for an in-process runtime,
    /// whose host calls the manager's handlers itself.
    to_manager: Option<Sender<ToManager>>,
    threads: Vec<ThreadHandle>,
    /// Reset handles of an earlier client of this runtime, handed out
    /// again by [`AppRuntime::register_thread`].
    spare: Vec<ThreadHandle>,
    update_period_us: u64,
    seq: u64,
    last_total: f64,
    last_publish_us: u64,
    last_rate: f64,
}

impl AppRuntime {
    /// Connect to the manager (the paper's `connection` call). Blocks
    /// until the manager acknowledges with the shared arena — so the
    /// manager must be pumping on another thread (as in
    /// `examples/cpu_manager_demo.rs`). Single-threaded callers should use
    /// [`AppRuntime::request_connect`] and pump between the two phases, or
    /// call the manager's handlers and use [`AppRuntime::in_process`].
    ///
    /// Returns `ManagerError::Disconnected` when the manager is gone.
    pub fn connect(handle: &ManagerHandle, name: impl Into<String>) -> Result<Self, ManagerError> {
        Self::request_connect(handle, name)?.complete()
    }

    /// Phase 1 of a connection: send the handshake without waiting.
    ///
    /// Returns `ManagerError::Disconnected` when the manager is gone.
    pub fn request_connect(
        handle: &ManagerHandle,
        name: impl Into<String>,
    ) -> Result<PendingConnect, ManagerError> {
        let (tx, rx) = sync_channel(1);
        handle
            .sender()
            .send(ToManager::Connect {
                name: name.into(),
                reply: tx,
            })
            .map_err(|_| ManagerError::Disconnected)?;
        Ok(PendingConnect {
            rx,
            to_manager: handle.sender(),
        })
    }

    /// A runtime for a client hosted in the manager's own loop, built from
    /// the acknowledgement of a direct `CpuManager::connect` call. It
    /// sends no messages: the host reports each thread creation, thread
    /// exit and the disconnect to the manager's handler itself.
    pub fn in_process(ack: ConnectAck) -> Self {
        Self::from_ack(ack, None)
    }

    fn from_ack(ack: ConnectAck, to_manager: Option<Sender<ToManager>>) -> Self {
        AppRuntime {
            id: ack.app,
            arena: ack.arena,
            to_manager,
            threads: Vec::new(),
            spare: Vec::new(),
            update_period_us: ack.update_period_us,
            seq: 0,
            last_total: 0.0,
            last_publish_us: 0,
            last_rate: 0.0,
        }
    }

    /// Make this runtime, whose client has disconnected, the in-process
    /// runtime of the client `ack` admits, as [`AppRuntime::in_process`]
    /// would build it, but keeping its storage: every thread handle that
    /// nothing else holds any more (the manager let go of its gate at the
    /// disconnect) is reset and handed out again by
    /// [`AppRuntime::register_thread`] instead of a new one.
    pub fn readmit_in_process(&mut self, ack: ConnectAck) {
        let mut threads = std::mem::take(&mut self.threads);
        let mut spare = std::mem::take(&mut self.spare);
        spare.extend(threads.drain(..).filter_map(ThreadHandle::reclaim));
        *self = Self {
            threads,
            spare,
            ..Self::from_ack(ack, None)
        };
    }

    /// This application's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// How often (µs) the manager expects arena updates.
    pub fn update_period_us(&self) -> u64 {
        self.update_period_us
    }

    /// Intercept a thread creation: registers a gate with the manager and
    /// returns the worker's handle.
    ///
    /// Returns `ManagerError::Disconnected` when the manager is gone; the
    /// thread is then *not* tracked, so the application keeps running under
    /// native scheduling. An in-process runtime never fails here.
    pub fn register_thread(&mut self) -> Result<ThreadHandle, ManagerError> {
        let h = self.spare.pop().unwrap_or_else(|| ThreadHandle {
            gate: Arc::new(SignalGate::new()),
            transactions: Arc::new(AtomicU64::new(0)),
        });
        if let Some(tx) = &self.to_manager {
            tx.send(ToManager::ThreadCreated {
                app: self.id,
                gate: h.gate.clone(),
            })
            .map_err(|_| ManagerError::Disconnected)?;
        }
        self.threads.push(h.clone());
        Ok(h)
    }

    /// The handles of the application's live threads, oldest first.
    pub fn threads(&self) -> &[ThreadHandle] {
        &self.threads
    }

    /// Intercept a thread destruction.
    pub fn thread_exited(&mut self) {
        self.threads.pop();
        if let Some(tx) = &self.to_manager {
            let _ = tx.send(ToManager::ThreadExited { app: self.id });
        }
    }

    /// The paper's signal forwarding: the manager signals one thread; that
    /// thread forwards the signal to every sibling. Calling this with the
    /// received signal reproduces the fan-out.
    #[cfg(test)]
    pub(crate) fn forward(&self, sig: super::signals::Signal, skip_first: bool) {
        for (i, t) in self.threads.iter().enumerate() {
            if skip_first && i == 0 {
                continue;
            }
            t.gate.deliver(sig);
        }
    }

    /// Poll all thread counters, accumulate, and publish the application's
    /// transaction rate to the shared arena (the twice-per-quantum update).
    /// `now_us` is the application's clock.
    pub fn publish_sample(&mut self, now_us: u64) -> ArenaSnapshot {
        let total: f64 = self
            .threads
            .iter()
            .map(|t| t.transactions.load(Ordering::Relaxed) as f64)
            .sum();
        let dt = now_us.saturating_sub(self.last_publish_us);
        let rate = if dt == 0 {
            // Two publishes in the same microsecond (trivial under a
            // virtual clock): no interval to rate over, so carry the
            // previous rate instead of publishing a spurious 0 that would
            // drag the estimator's window down.
            self.last_rate
        } else {
            (total - self.last_total).max(0.0) / dt as f64
        };
        self.seq += 1;
        let snap = ArenaSnapshot {
            seq: self.seq,
            threads: self.threads.len() as u32,
            total_transactions: total,
            rate_tx_per_us: rate,
            updated_at_us: now_us,
        };
        self.arena.publish(snap);
        self.last_total = total;
        self.last_publish_us = now_us;
        self.last_rate = rate;
        snap
    }

    /// Disconnect from the manager (the paper's `disconnection` call).
    pub fn disconnect(self) {
        if let Some(tx) = &self.to_manager {
            let _ = tx.send(ToManager::Disconnect { app: self.id });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::LatestQuantumEstimator;
    use crate::manager::server::{CpuManager, ManagerConfig};
    use crate::manager::signals::Signal;

    fn pair() -> (CpuManager, ManagerHandle) {
        CpuManager::new(
            ManagerConfig::default(),
            Box::new(LatestQuantumEstimator::new()),
        )
    }

    /// Single-threaded connect: request, pump the manager, complete.
    fn connect(m: &mut CpuManager, h: &ManagerHandle, name: &str) -> AppRuntime {
        let p = AppRuntime::request_connect(h, name).expect("manager alive");
        m.pump();
        p.complete().expect("manager alive")
    }

    fn register(app: &mut AppRuntime) -> ThreadHandle {
        app.register_thread().expect("manager alive")
    }

    #[test]
    fn connect_and_register_threads() {
        let (mut m, h) = pair();
        let mut app = connect(&mut m, &h, "demo");
        assert_eq!(app.update_period_us(), 100_000);
        let _t1 = register(&mut app);
        let _t2 = register(&mut app);
        m.pump();
        assert_eq!(m.job_names(), vec!["demo".to_string()]);
    }

    #[test]
    fn connect_against_dead_manager_reports_disconnected() {
        let (m, h) = pair();
        drop(m);
        // Phase-1 send still succeeds (the channel buffers), but the ack
        // can never arrive.
        match AppRuntime::request_connect(&h, "orphan") {
            Ok(p) => assert_eq!(
                p.complete().map(|_| ()).unwrap_err(),
                ManagerError::Disconnected
            ),
            Err(e) => assert_eq!(e, ManagerError::Disconnected),
        }
    }

    #[test]
    fn register_thread_after_manager_death_reports_disconnected() {
        let (mut m, h) = pair();
        let mut app = connect(&mut m, &h, "demo");
        let _t = register(&mut app);
        drop(m);
        drop(h);
        let err = app.register_thread().unwrap_err();
        assert_eq!(err, ManagerError::Disconnected);
        // Already-registered threads keep working (native-scheduling
        // fallback: counters count, checkpoints don't park).
        let t = app.threads[0].clone();
        t.count_transactions(5);
        assert!(!t.is_blocked());
        t.checkpoint();
        // Disconnect on a dead channel must not panic either.
        app.disconnect();
    }

    #[test]
    fn manager_error_displays_and_is_std_error() {
        let e = ManagerError::Disconnected;
        assert!(e.to_string().contains("manager is gone"));
        let _dyn_err: &dyn std::error::Error = &e;
    }

    #[test]
    fn publish_sample_computes_rate_from_counter_deltas() {
        let (mut m, h) = pair();
        let mut app = connect(&mut m, &h, "demo");
        let t1 = register(&mut app);
        let t2 = register(&mut app);
        m.pump();
        t1.count_transactions(600_000);
        t2.count_transactions(600_000);
        let s = app.publish_sample(100_000);
        // 1.2 M tx over 100 ms = 12 tx/µs for the app, 6 per thread.
        assert!((s.rate_tx_per_us - 12.0).abs() < 1e-9);
        assert!((s.rate_per_thread() - 6.0).abs() < 1e-9);
        // Second interval with no traffic → rate 0.
        let s2 = app.publish_sample(200_000);
        assert_eq!(s2.rate_tx_per_us, 0.0);
        assert_eq!(s2.seq, 2);
    }

    #[test]
    fn zero_dt_publish_carries_previous_rate() {
        let (mut m, h) = pair();
        let mut app = connect(&mut m, &h, "demo");
        let t = register(&mut app);
        m.pump();
        t.count_transactions(600_000);
        let s1 = app.publish_sample(100_000);
        assert!((s1.rate_tx_per_us - 6.0).abs() < 1e-9);
        // A second publish at the same microsecond has no interval to
        // rate over: it must repeat the previous rate, not report 0
        // (which would poison the estimator's window).
        t.count_transactions(50);
        let s2 = app.publish_sample(100_000);
        assert_eq!(s2.rate_tx_per_us, s1.rate_tx_per_us);
        assert_eq!(s2.seq, 2);
        // The next real interval rates normally again.
        t.count_transactions(50);
        let s3 = app.publish_sample(100_010);
        assert!((s3.rate_tx_per_us - 5.0).abs() < 1e-9);
        // The very first publish at t=0 also has dt == 0; with no prior
        // rate it reports 0 and stays finite.
        let mut fresh = connect(&mut m, &h, "fresh");
        let tf = register(&mut fresh);
        m.pump();
        tf.count_transactions(1_000);
        let s0 = fresh.publish_sample(0);
        assert_eq!(s0.rate_tx_per_us, 0.0);
        assert!(s0.rate_tx_per_us.is_finite());
    }

    #[test]
    fn forward_reaches_siblings() {
        let (mut m, h) = pair();
        let mut app = connect(&mut m, &h, "demo");
        let t1 = register(&mut app);
        let t2 = register(&mut app);
        let t3 = register(&mut app);
        // Manager signals thread 1; it forwards to siblings only.
        t1.gate().deliver(Signal::Block);
        app.forward(Signal::Block, true);
        assert!(t1.is_blocked() && t2.is_blocked() && t3.is_blocked());
        t1.gate().deliver(Signal::Unblock);
        app.forward(Signal::Unblock, true);
        assert!(!t1.is_blocked() && !t2.is_blocked() && !t3.is_blocked());
    }

    #[test]
    fn end_to_end_real_threads_obey_the_manager() {
        use std::sync::atomic::AtomicBool;
        use std::time::Duration;

        let (mut m, h) = pair();
        // Two 2-thread apps + one more so someone must be blocked.
        let mut apps: Vec<AppRuntime> = (0..3)
            .map(|i| connect(&mut m, &h, &format!("app{i}")))
            .collect();
        let stop = Arc::new(AtomicBool::new(false));
        let mut workers = Vec::new();
        let progress: Vec<Arc<AtomicU64>> = (0..3).map(|_| Arc::new(AtomicU64::new(0))).collect();
        for (i, app) in apps.iter_mut().enumerate() {
            for _ in 0..2 {
                let th = register(app);
                let stop = stop.clone();
                let prog = progress[i].clone();
                workers.push(std::thread::spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        th.count_transactions(10);
                        prog.fetch_add(1, Ordering::SeqCst);
                        th.checkpoint();
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }));
            }
        }
        m.pump();
        let sel = m.quantum();
        assert_eq!(sel.len(), 2);
        let blocked_idx = (0..3)
            .find(|i| !sel.contains(&apps[*i].id()))
            .expect("one app blocked");
        // Give workers time to hit their checkpoints.
        std::thread::sleep(Duration::from_millis(80));
        let before = progress[blocked_idx].load(Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(80));
        let after = progress[blocked_idx].load(Ordering::SeqCst);
        assert!(
            after - before <= 2,
            "blocked app kept running: {before} -> {after}"
        );
        // Running apps kept making progress.
        let run_idx = (0..3).find(|i| sel.contains(&apps[*i].id())).unwrap();
        let r_before = progress[run_idx].load(Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(80));
        let r_after = progress[run_idx].load(Ordering::SeqCst);
        assert!(r_after > r_before, "running app made no progress");

        stop.store(true, Ordering::SeqCst);
        // Unblock everyone so workers can observe stop.
        for app in &apps {
            let _ = app;
        }
        for app in &apps {
            if !sel.contains(&app.id()) {
                app.forward(Signal::Unblock, false);
            }
        }
        for w in workers {
            w.join().unwrap();
        }
    }
}
