//! The CPU manager server.
//!
//! Owns the circular applications list, polls every running application's
//! arena at each sampling point (twice per quantum), runs the shared
//! selection algorithm at quantum boundaries, and steers applications with
//! block/unblock signals.
//!
//! Per event the manager does only bookkeeping: arena reads go straight
//! into the estimator, the circular list is rotated in place, and the
//! candidate list, the selection's working storage and the running set
//! reuse their buffers, so neither [`CpuManager::sample`] nor
//! [`CpuManager::quantum`] allocates once the buffers have grown to the
//! job count. A retired job's gate list is kept for the next connect.
//!
//! Each protocol message has one handler: [`CpuManager::connect`],
//! [`CpuManager::thread_created`], [`CpuManager::thread_exited`] and
//! [`CpuManager::disconnect`]. Threaded clients reach them over the
//! channel, which [`CpuManager::pump`] drains and decodes; a host that
//! runs its clients in the manager's own loop (`busbw-managerd`'s serve)
//! calls them directly and skips the channel round trip.
//!
//! The manager is written to be driven two ways:
//!
//! * **explicitly** — tests and deterministic harnesses call
//!   [`CpuManager::pump`] (or the handlers), [`CpuManager::sample`] and
//!   [`CpuManager::quantum`] with their own clock;
//! * **in real time** — [`CpuManager::run_realtime`] loops with the
//!   configured quantum against the OS clock (see
//!   `examples/cpu_manager_demo.rs`).

use busbw_trace::{EventBus, TraceEvent};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::estimator::BandwidthEstimator;
use crate::selection::{Candidate, SelectBuffers};

use super::protocol::{ClientId, ConnectAck, ToManager};
use super::seqlock::SeqlockArena;
use super::signals::{Signal, SignalGate};

/// Manager configuration.
#[derive(Debug, Clone, Copy)]
pub struct ManagerConfig {
    /// Processors the manager allocates.
    pub num_cpus: usize,
    /// Total bus bandwidth (tx/µs) used in `ABBW/proc`.
    pub bus_total_tx_per_us: f64,
    /// Scheduling quantum, µs (paper: 200 ms).
    pub quantum_us: u64,
    /// Arena samples per quantum (paper: 2).
    pub samples_per_quantum: u32,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        Self {
            num_cpus: 4,
            bus_total_tx_per_us: busbw_sim::PAPER_BUS_TX_PER_US,
            quantum_us: 200_000,
            samples_per_quantum: 2,
        }
    }
}

/// What applications use to reach the manager.
#[derive(Clone)]
pub struct ManagerHandle {
    tx: Sender<ToManager>,
}

impl ManagerHandle {
    /// The raw message channel (used by the client run-time library).
    pub(crate) fn sender(&self) -> Sender<ToManager> {
        self.tx.clone()
    }
}

struct Job {
    id: ClientId,
    name: String,
    arena: SeqlockArena,
    gates: Vec<Arc<SignalGate>>,
    blocked: bool,
}

/// The user-level CPU manager.
pub struct CpuManager {
    cfg: ManagerConfig,
    rx: Receiver<ToManager>,
    estimator: Box<dyn BandwidthEstimator>,
    /// Circular applications list (head = next guaranteed job).
    jobs: Vec<Job>,
    running: Vec<ClientId>,
    /// Selection input, rebuilt in place every quantum.
    candidates: Vec<Candidate<ClientId>>,
    /// The selection's working storage, reused every quantum.
    select: SelectBuffers<ClientId>,
    /// Emptied gate lists of retired jobs, handed to the next connects.
    spare_gates: Vec<Vec<Arc<SignalGate>>>,
    next_id: u64,
    /// Structured event sink: detached, except where a unit test attaches
    /// one with `set_tracer`.
    tracer: EventBus,
}

impl CpuManager {
    /// Create a manager; returns it plus the handle applications connect
    /// through.
    pub fn new(
        cfg: ManagerConfig,
        estimator: Box<dyn BandwidthEstimator>,
    ) -> (Self, ManagerHandle) {
        assert!(cfg.num_cpus > 0 && cfg.quantum_us > 0 && cfg.samples_per_quantum > 0);
        let (tx, rx) = channel();
        (
            Self {
                cfg,
                rx,
                estimator,
                jobs: Vec::new(),
                running: Vec::new(),
                candidates: Vec::new(),
                select: SelectBuffers::default(),
                spare_gates: Vec::new(),
                next_id: 0,
                tracer: EventBus::off(),
            },
            ManagerHandle { tx },
        )
    }

    /// Attach a structured-event tracer. The manager emits
    /// connect/disconnect, gate-transition, and signal-reordering events
    /// ([`TraceEvent::MgrConnect`] and friends).
    #[cfg(test)]
    pub(crate) fn set_tracer(&mut self, tracer: EventBus) {
        self.tracer = tracer;
    }

    /// The configuration in force.
    pub fn config(&self) -> ManagerConfig {
        self.cfg
    }

    /// Names of currently connected jobs, in list order (diagnostics).
    pub fn job_names(&self) -> Vec<String> {
        self.jobs.iter().map(|j| j.name.clone()).collect()
    }

    /// Ids of jobs unblocked in the current quantum.
    pub fn running(&self) -> &[ClientId] {
        &self.running
    }

    /// The selection input of the last quantum: every job then connected,
    /// in list order, with its width and the estimate it was selected on.
    pub fn candidates(&self) -> &[Candidate<ClientId>] {
        &self.candidates
    }

    /// Drain pending protocol messages and hand each to its handler
    /// ([`CpuManager::connect`] and friends). The handlers are the whole
    /// of the protocol's logic; `pump` only decodes.
    pub fn pump(&mut self) {
        while let Ok(msg) = self.rx.try_recv() {
            match msg {
                ToManager::Connect { name, reply } => {
                    // One slot, so the send never waits; a client that
                    // gave up waiting has dropped its end.
                    let _ = reply.send(self.connect(name));
                }
                ToManager::ThreadCreated { app, gate } => self.thread_created(app, gate),
                ToManager::ThreadExited { app } => self.thread_exited(app),
                ToManager::Disconnect { app } => self.disconnect(app),
            }
        }
    }

    /// Admit an application (`ToManager::Connect`): assign its id and
    /// shared arena. The returned acknowledgement is what a channel client
    /// receives on its reply slot.
    pub fn connect(&mut self, name: String) -> ConnectAck {
        let id = ClientId(self.next_id);
        self.next_id += 1;
        let arena = SeqlockArena::new();
        // New jobs join the end of the circular list, blocked until the
        // next quantum admits them: the manager owns all scheduling from
        // the moment of connection.
        self.jobs.push(Job {
            id,
            name,
            arena: arena.clone(),
            gates: self.spare_gates.pop().unwrap_or_default(),
            blocked: false,
        });
        if self.tracer.emits() {
            self.tracer.emit(TraceEvent::MgrConnect {
                client: id.0,
                threads: 0,
            });
        }
        ConnectAck {
            app: id,
            arena,
            update_period_us: self.cfg.quantum_us / self.cfg.samples_per_quantum as u64,
        }
    }

    /// Track a new thread of `app` (`ToManager::ThreadCreated`) by its
    /// gate. Unknown applications are ignored.
    pub fn thread_created(&mut self, app: ClientId, gate: Arc<SignalGate>) {
        if let Some(j) = self.jobs.iter_mut().find(|j| j.id == app) {
            if j.blocked {
                // A thread born into a blocked job must not run.
                gate.deliver(Signal::Block);
            }
            j.gates.push(gate);
        }
    }

    /// Drop the newest thread of `app` ([`ToManager::ThreadExited`]).
    pub(crate) fn thread_exited(&mut self, app: ClientId) {
        if let Some(j) = self.jobs.iter_mut().find(|j| j.id == app) {
            j.gates.pop();
        }
    }

    /// Retire `app` (`ToManager::Disconnect`): unpark its threads if it
    /// was blocked and forget its measurements. Unknown applications are
    /// ignored.
    pub fn disconnect(&mut self, app: ClientId) {
        let Some(pos) = self.jobs.iter().position(|j| j.id == app) else {
            return;
        };
        let mut j = self.jobs.remove(pos);
        // Leave no thread parked forever.
        if j.blocked {
            for g in &j.gates {
                g.deliver(Signal::Unblock);
            }
        }
        j.gates.clear();
        self.spare_gates.push(j.gates);
        self.estimator.forget(busbw_sim::AppId(app.0));
        self.running.retain(|&r| r != app);
        if self.tracer.emits() {
            self.tracer
                .emit(TraceEvent::MgrDisconnect { client: app.0 });
        }
    }

    /// Fault injection: deliver an *inverted* (Unblock before Block) signal
    /// pair to every gate of `app` — the reordering §4 explicitly
    /// tolerates ("a thread blocks only if the number of received block
    /// signals exceeds the corresponding number of unblock signals"). The
    /// net gate state is unchanged by construction; each delivery is
    /// recorded as a [`TraceEvent::MgrSignalReorder`]. Returns the number
    /// of gates signalled.
    #[cfg(test)]
    pub(crate) fn inject_signal_inversion(&mut self, app: ClientId) -> usize {
        let mut signalled = 0;
        if let Some(j) = self.jobs.iter().find(|j| j.id == app) {
            for (ti, g) in j.gates.iter().enumerate() {
                g.deliver(Signal::Unblock);
                g.deliver(Signal::Block);
                signalled += 1;
                if self.tracer.emits() {
                    self.tracer.emit(TraceEvent::MgrSignalReorder {
                        client: app.0,
                        thread: ti as u64,
                    });
                }
            }
        }
        signalled
    }

    /// A sampling point: poll the arena of every *running* job and feed
    /// the estimator (the paper polls twice per quantum; blocked jobs are
    /// not measured because they are not executing).
    pub fn sample(&mut self) {
        self.observe_running(false);
    }

    /// Feed the latest arena rate of every running job to the estimator:
    /// as a mid-quantum sample, or (`settle`) as the job's latest-quantum
    /// measurement.
    fn observe_running(&mut self, settle: bool) {
        for j in &self.jobs {
            if !self.running.contains(&j.id) {
                continue;
            }
            let app = busbw_sim::AppId(j.id.0);
            // No IOQ-occupancy reading reaches the manager, so the bus
            // dilation Λ̄ is taken as 1 (uncontended) and the demand is the
            // consumed rate itself (`crate::reconstruct`: consumption × Λ̄).
            let demand = j.arena.read().rate_per_thread().max(0.0);
            if settle {
                self.estimator.record_quantum(app, demand);
            } else {
                self.estimator.record_sample(app, demand);
            }
        }
    }

    /// A quantum boundary: settle measurements, rotate the list, select the
    /// next gang set, and send block/unblock signals. Returns the ids
    /// selected to run.
    pub fn quantum(&mut self) -> &[ClientId] {
        self.pump();

        // Settle: the latest arena rate of each job that ran becomes its
        // latest-quantum measurement.
        self.observe_running(true);

        // Rotate jobs that ran to the end of the circular list, keeping
        // the order within both groups (a stable sort on "ran").
        self.jobs.sort_by_key(|j| self.running.contains(&j.id));

        // Select.
        self.candidates.clear();
        self.candidates.extend(self.jobs.iter().map(|j| Candidate {
            key: j.id,
            width: j.gates.len(),
            bbw_per_thread: self.estimator.estimate(busbw_sim::AppId(j.id.0)),
        }));
        self.select.select_into(
            &self.candidates,
            self.cfg.num_cpus,
            self.cfg.bus_total_tx_per_us,
            &mut self.running,
        );

        // Signal transitions. The manager signals every gate directly;
        // the client library's `forward` covers the paper's
        // one-thread-forwards-to-siblings variant.
        let trace_on = self.tracer.emits();
        for j in &mut self.jobs {
            let should_run = self.running.contains(&j.id);
            match (j.blocked, should_run) {
                // Transition running → blocked: one Block per gate.
                (false, false) => {
                    for (ti, g) in j.gates.iter().enumerate() {
                        g.deliver(Signal::Block);
                        if trace_on {
                            let (blocks, unblocks) = g.counts();
                            self.tracer.emit(TraceEvent::MgrGate {
                                client: j.id.0,
                                thread: ti as u64,
                                resumed: false,
                                blocks,
                                unblocks,
                            });
                        }
                    }
                    j.blocked = true;
                }
                // Transition blocked → running: one Unblock per gate.
                (true, true) => {
                    for (ti, g) in j.gates.iter().enumerate() {
                        g.deliver(Signal::Unblock);
                        if trace_on {
                            let (blocks, unblocks) = g.counts();
                            self.tracer.emit(TraceEvent::MgrGate {
                                client: j.id.0,
                                thread: ti as u64,
                                resumed: true,
                                blocks,
                                unblocks,
                            });
                        }
                    }
                    j.blocked = false;
                }
                // No transition: no signal — the counting gate relies on
                // blocks and unblocks arriving strictly in matched pairs.
                (false, true) | (true, false) => {}
            }
        }

        &self.running
    }

    /// Drive the manager against the OS clock until `stop` is set.
    /// Sampling happens `samples_per_quantum` times per quantum; the last
    /// sample coincides with the quantum boundary, as in the paper.
    pub fn run_realtime(mut self, stop: Arc<AtomicBool>) {
        let sample_period =
            Duration::from_micros(self.cfg.quantum_us / self.cfg.samples_per_quantum as u64);
        let mut next_quantum = Instant::now();
        while !stop.load(Ordering::SeqCst) {
            self.pump();
            self.quantum();
            next_quantum += Duration::from_micros(self.cfg.quantum_us);
            for _ in 0..self.cfg.samples_per_quantum {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                std::thread::sleep(
                    sample_period.min(next_quantum.saturating_duration_since(Instant::now())),
                );
                self.pump();
                self.sample();
            }
        }
        // Shutdown: release everyone.
        for j in &mut self.jobs {
            if j.blocked {
                for g in &j.gates {
                    g.deliver(Signal::Unblock);
                }
                j.blocked = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::LatestQuantumEstimator;
    use crate::manager::client::{AppRuntime, ThreadHandle};
    use crate::manager::seqlock::ArenaSnapshot;
    use std::collections::BTreeMap;

    fn connect(m: &mut CpuManager, h: &ManagerHandle, name: &str) -> ConnectAck {
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        h.sender()
            .send(ToManager::Connect {
                name: name.into(),
                reply: tx,
            })
            .unwrap();
        // Single-threaded tests: the manager must pump to answer.
        m.pump();
        rx.recv_timeout(Duration::from_secs(1)).expect("ack")
    }

    fn add_threads(h: &ManagerHandle, app: ClientId, n: usize) -> Vec<Arc<SignalGate>> {
        (0..n)
            .map(|_| {
                let g = Arc::new(SignalGate::new());
                h.sender()
                    .send(ToManager::ThreadCreated {
                        app,
                        gate: g.clone(),
                    })
                    .unwrap();
                g
            })
            .collect()
    }

    fn mgr() -> (CpuManager, ManagerHandle) {
        CpuManager::new(
            ManagerConfig::default(),
            Box::new(LatestQuantumEstimator::new()),
        )
    }

    fn publish(arena: &SeqlockArena, seq: u64, threads: u32, rate: f64) {
        arena.publish(ArenaSnapshot {
            seq,
            threads,
            total_transactions: 0.0,
            rate_tx_per_us: rate,
            updated_at_us: seq * 100_000,
        });
    }

    #[test]
    fn connect_assigns_ids_and_update_period() {
        let (mut m, h) = mgr();
        let a = connect(&mut m, &h, "one");
        let b = connect(&mut m, &h, "two");
        assert_ne!(a.app, b.app);
        // 200 ms quantum, 2 samples → 100 ms period.
        assert_eq!(a.update_period_us, 100_000);
        m.pump();
        assert_eq!(m.job_names(), vec!["one".to_string(), "two".to_string()]);
    }

    #[test]
    fn quantum_runs_everything_that_fits() {
        let (mut m, h) = mgr();
        let a = connect(&mut m, &h, "a");
        let b = connect(&mut m, &h, "b");
        add_threads(&h, a.app, 2);
        add_threads(&h, b.app, 2);
        m.pump();
        let sel = m.quantum();
        assert_eq!(sel.len(), 2, "4 threads fit 4 cpus");
    }

    #[test]
    fn gang_exclusion_blocks_the_odd_job_out() {
        let (mut m, h) = mgr();
        let ids: Vec<ClientId> = (0..3)
            .map(|i| {
                let ack = connect(&mut m, &h, &format!("j{i}"));
                add_threads(&h, ack.app, 2);
                ack.app
            })
            .collect();
        m.pump();
        let sel = m.quantum();
        assert_eq!(sel.len(), 2, "only two 2-wide gangs fit");
        let left_out: Vec<ClientId> = ids.iter().copied().filter(|i| !sel.contains(i)).collect();
        assert_eq!(left_out.len(), 1);
    }

    #[test]
    fn rotation_gives_every_job_a_turn() {
        let (mut m, h) = mgr();
        let mut gates = BTreeMap::new();
        for i in 0..3 {
            let ack = connect(&mut m, &h, &format!("j{i}"));
            gates.insert(ack.app, add_threads(&h, ack.app, 2));
        }
        m.pump();
        let mut ran: std::collections::BTreeSet<ClientId> = Default::default();
        for _ in 0..3 {
            ran.extend(m.quantum());
        }
        assert_eq!(ran.len(), 3, "head-of-list rule must cycle all jobs");
    }

    #[test]
    fn signals_follow_selection_transitions() {
        let (mut m, h) = mgr();
        let a = connect(&mut m, &h, "a");
        let b = connect(&mut m, &h, "b");
        let c = connect(&mut m, &h, "c");
        let ga = add_threads(&h, a.app, 2);
        let gb = add_threads(&h, b.app, 2);
        let gc = add_threads(&h, c.app, 2);
        m.pump();
        let sel = m.quantum();
        // The job left out must be blocked; selected jobs runnable.
        for (id, gates) in [(a.app, &ga), (b.app, &gb), (c.app, &gc)] {
            let blocked = !sel.contains(&id);
            for g in gates {
                assert_eq!(g.should_block(), blocked, "{id} gate state wrong");
            }
        }
        // Run several quanta: gates always exactly track selection.
        for _ in 0..5 {
            let sel = m.quantum();
            for (id, gates) in [(a.app, &ga), (b.app, &gb), (c.app, &gc)] {
                let blocked = !sel.contains(&id);
                for g in gates {
                    assert_eq!(g.should_block(), blocked);
                }
            }
        }
    }

    #[test]
    fn bandwidth_estimates_steer_selection() {
        let (mut m, h) = mgr();
        // Three 2-wide jobs: two heavy, one idle. After measurements land,
        // a heavy head should be paired with the idle job.
        let heavy1 = connect(&mut m, &h, "heavy1");
        let heavy2 = connect(&mut m, &h, "heavy2");
        let idle = connect(&mut m, &h, "idle");
        add_threads(&h, heavy1.app, 2);
        add_threads(&h, heavy2.app, 2);
        add_threads(&h, idle.app, 2);
        m.pump();
        // Feed arenas continuously; run a few quanta so every job gets
        // measured while running.
        let mut heavy_pair = 0;
        for q in 1..=9u64 {
            publish(&heavy1.arena, q, 2, 22.0);
            publish(&heavy2.arena, q, 2, 22.0);
            publish(&idle.arena, q, 2, 0.01);
            m.sample();
            let sel = m.quantum();
            if q > 3 && sel.contains(&heavy1.app) && sel.contains(&heavy2.app) {
                heavy_pair += 1;
            }
        }
        assert_eq!(heavy_pair, 0, "heavy jobs were co-scheduled after warmup");
    }

    #[test]
    fn disconnect_releases_blocked_threads() {
        let (mut m, h) = mgr();
        let ids: Vec<_> = (0..3)
            .map(|i| {
                let ack = connect(&mut m, &h, &format!("j{i}"));
                (ack.app, add_threads(&h, ack.app, 2))
            })
            .collect();
        m.pump();
        let sel = m.quantum();
        let (blocked_id, blocked_gates) = ids
            .iter()
            .find(|(id, _)| !sel.contains(id))
            .expect("one job blocked");
        assert!(blocked_gates[0].should_block());
        h.sender()
            .send(ToManager::Disconnect { app: *blocked_id })
            .unwrap();
        m.pump();
        assert!(
            !blocked_gates[0].should_block(),
            "disconnect must unblock parked threads"
        );
        assert_eq!(m.job_names().len(), 2);
    }

    #[test]
    fn tracer_records_connects_gates_and_disconnects() {
        let (mut m, h) = mgr();
        let (tracer, events) = EventBus::memory();
        m.set_tracer(tracer);
        let ids: Vec<ClientId> = (0..3)
            .map(|i| {
                let ack = connect(&mut m, &h, &format!("j{i}"));
                add_threads(&h, ack.app, 2);
                ack.app
            })
            .collect();
        m.pump();
        let sel = m.quantum();
        // 3 connects; the one left-out job got one Block per gate.
        let evs = events.events();
        let connects = evs
            .iter()
            .filter(|e| matches!(e, TraceEvent::MgrConnect { .. }))
            .count();
        assert_eq!(connects, 3);
        let gates: Vec<_> = evs
            .iter()
            .filter_map(|e| match e {
                TraceEvent::MgrGate {
                    client,
                    resumed,
                    blocks,
                    unblocks,
                    ..
                } => Some((*client, *resumed, *blocks, *unblocks)),
                _ => None,
            })
            .collect();
        assert_eq!(gates.len(), 2, "two gates of the blocked job signalled");
        let blocked = ids.iter().find(|i| !sel.contains(i)).unwrap();
        for (client, resumed, blocks, unblocks) in gates {
            assert_eq!(client, blocked.0);
            assert!(!resumed);
            assert_eq!((blocks, unblocks), (1, 0));
        }
        // Disconnect shows up too.
        h.sender()
            .send(ToManager::Disconnect { app: ids[0] })
            .unwrap();
        m.pump();
        assert!(events
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::MgrDisconnect { client } if *client == ids[0].0)));
    }

    #[test]
    fn injected_signal_inversion_is_harmless_and_traced() {
        let (mut m, h) = mgr();
        let (tracer, events) = EventBus::memory();
        m.set_tracer(tracer);
        let ack = connect(&mut m, &h, "app");
        let gates = add_threads(&h, ack.app, 2);
        m.pump();
        let sel = m.quantum();
        assert_eq!(sel, vec![ack.app]);
        assert!(!gates[0].should_block());
        // Unblock-before-Block on every gate: the counting rule makes the
        // pair cancel, so the running job keeps running.
        assert_eq!(m.inject_signal_inversion(ack.app), 2);
        for g in &gates {
            assert!(!g.should_block(), "inversion must not block a runner");
            assert_eq!(g.counts(), (1, 1));
        }
        let reorders = events
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::MgrSignalReorder { client, .. } if *client == ack.app.0))
            .count();
        assert_eq!(reorders, 2);
        // Unknown client: no gates, no events.
        assert_eq!(m.inject_signal_inversion(ClientId(999)), 0);
    }

    #[test]
    fn thread_born_into_blocked_job_starts_blocked() {
        let (mut m, h) = mgr();
        for i in 0..3 {
            let ack = connect(&mut m, &h, &format!("j{i}"));
            add_threads(&h, ack.app, 2);
        }
        m.pump();
        let sel = m.quantum().to_vec();
        // Find the blocked job and give it a new thread.
        let blocked = m
            .jobs
            .iter()
            .find(|j| !sel.contains(&j.id))
            .map(|j| j.id)
            .unwrap();
        let late = add_threads(&h, blocked, 1).pop().unwrap();
        m.pump();
        assert!(late.should_block(), "late thread must inherit the block");
    }

    /// One step of the transport differential script.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// Connect a client with this many threads.
        Connect(usize),
        /// Count and publish every live client's transactions, then sample.
        Sample,
        Quantum,
        /// The newest thread of the first live client with two or more
        /// threads exits.
        Exit,
        /// Disconnect the first live client whose gang is running
        /// (`true`) or blocked (`false`).
        Disconnect(bool),
    }

    /// A manager and its clients, reached over the channel (`pump`) or
    /// through direct handler calls.
    struct Transport {
        m: CpuManager,
        h: ManagerHandle,
        direct: bool,
        events: busbw_trace::MemoryHandle,
        /// Live clients with their per-thread transaction rate.
        apps: Vec<(AppRuntime, Vec<ThreadHandle>, u64)>,
        /// Every gate ever registered, in creation order.
        gates: Vec<Arc<SignalGate>>,
        now_us: u64,
    }

    impl Transport {
        fn new(direct: bool) -> Self {
            let (mut m, h) = mgr();
            let (tracer, events) = EventBus::memory();
            m.set_tracer(tracer);
            Self {
                m,
                h,
                direct,
                events,
                apps: Vec::new(),
                gates: Vec::new(),
                now_us: 0,
            }
        }

        fn step(&mut self, step: Step) {
            match step {
                Step::Connect(width) => {
                    let name = format!("w{width}");
                    let mut rt = if self.direct {
                        AppRuntime::in_process(self.m.connect(name))
                    } else {
                        let pending = AppRuntime::request_connect(&self.h, name).unwrap();
                        self.m.pump();
                        pending.complete().unwrap()
                    };
                    let threads: Vec<ThreadHandle> = (0..width)
                        .map(|_| {
                            let t = rt.register_thread().unwrap();
                            if self.direct {
                                self.m.thread_created(rt.id(), t.gate());
                            }
                            self.gates.push(t.gate());
                            t
                        })
                        .collect();
                    self.m.pump();
                    // Heavy and light clients alternate, so the estimates
                    // steer selection away from plain rotation.
                    let rate = [40, 1, 25, 3][self.apps.len() % 4];
                    self.apps.push((rt, threads, rate));
                }
                Step::Sample => {
                    self.now_us += 100_000;
                    for (rt, threads, rate) in &mut self.apps {
                        if !threads[0].is_blocked() {
                            for t in threads.iter() {
                                t.count_transactions(*rate * 100_000);
                            }
                        }
                        rt.publish_sample(self.now_us);
                    }
                    self.m.sample();
                }
                Step::Quantum => {
                    self.m.quantum();
                }
                Step::Exit => {
                    let (rt, threads, _) = self
                        .apps
                        .iter_mut()
                        .find(|(_, t, _)| t.len() >= 2)
                        .expect("a client with two or more threads");
                    rt.thread_exited();
                    threads.pop();
                    if self.direct {
                        self.m.thread_exited(rt.id());
                    }
                    self.m.pump();
                }
                Step::Disconnect(running) => {
                    let pos = self
                        .apps
                        .iter()
                        .position(|(_, t, _)| t[0].is_blocked() != running)
                        .expect("a client in the wanted state");
                    let (rt, _, _) = self.apps.remove(pos);
                    if self.direct {
                        self.m.disconnect(rt.id());
                    } else {
                        rt.disconnect();
                    }
                    self.m.pump();
                }
            }
        }

        fn gate_counts(&self) -> Vec<(u64, u64)> {
            self.gates.iter().map(|g| g.counts()).collect()
        }

        fn mgr_events(&self) -> Vec<TraceEvent> {
            self.events
                .events()
                .into_iter()
                .filter(|e| {
                    matches!(
                        e,
                        TraceEvent::MgrConnect { .. }
                            | TraceEvent::MgrDisconnect { .. }
                            | TraceEvent::MgrGate { .. }
                            | TraceEvent::MgrSignalReorder { .. }
                    )
                })
                .collect()
        }
    }

    #[test]
    fn channel_and_direct_handlers_drive_identical_managers() {
        use Step::*;
        let script = [
            Connect(1),
            Connect(2),
            Connect(3),
            Connect(4),
            Quantum,
            Sample,
            Sample,
            Quantum,
            Sample,
            Connect(2),
            Sample,
            Quantum,
            Exit,
            Sample,
            Sample,
            Quantum,
            Disconnect(false),
            Sample,
            Quantum,
            Disconnect(true),
            Connect(1),
            Connect(3),
            Sample,
            Sample,
            Quantum,
            Sample,
            Sample,
            Quantum,
            Disconnect(false),
            Disconnect(true),
            Sample,
            Quantum,
            Sample,
            Quantum,
        ];
        let mut channel = Transport::new(false);
        let mut direct = Transport::new(true);
        for (i, &step) in script.iter().enumerate() {
            channel.step(step);
            direct.step(step);
            let at = format!("step {i} ({step:?})");
            assert_eq!(channel.m.job_names(), direct.m.job_names(), "{at}");
            assert_eq!(channel.m.running(), direct.m.running(), "{at}");
            assert_eq!(channel.gate_counts(), direct.gate_counts(), "{at}");
            assert_eq!(channel.mgr_events(), direct.mgr_events(), "{at}");
        }
        // The script must have blocked and resumed gangs, or the equality
        // above proves little.
        let evs = direct.mgr_events();
        for resumed in [false, true] {
            assert!(
                evs.iter()
                    .any(|e| matches!(e, TraceEvent::MgrGate { resumed: r, .. } if *r == resumed)),
                "no gate event with resumed = {resumed}"
            );
        }
        assert!(evs
            .iter()
            .any(|e| matches!(e, TraceEvent::MgrDisconnect { .. })));
    }
}
