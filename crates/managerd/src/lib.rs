//! `busbw-managerd`: an **open-system** CPU manager server.
//!
//! The paper's §4 artifact is a user-level CPU manager daemon that
//! applications connect to, publish bandwidth samples to, and take
//! block/unblock signals from. The simulator reproduces its *policies*
//! over closed batches; this crate serves the manager stack itself
//! (`busbw_core::manager` — arena/seqlock samples, protocol handlers,
//! signal gates) against an **open arrival process**: clients connect
//! live, are scheduled by the real [`CpuManager`] quantum loop, and
//! depart on completion, so tail latency (p99/p999 turnaround) and
//! overload behavior become measurable.
//!
//! Design:
//!
//! * **Virtual time.** One single-threaded event loop owns a virtual
//!   µs clock and drives [`CpuManager::sample`]/[`CpuManager::quantum`]
//!   explicitly, exactly like the deterministic test harnesses do.
//!   Clients live in the loop, so their connects, thread registrations
//!   and disconnects call the manager's protocol handlers
//!   ([`CpuManager::connect`] and friends) directly instead of sending a
//!   channel message and pumping. Client worker threads are *modeled*:
//!   progress advances between events for every client whose signal
//!   gate is open ([`busbw_core::manager::ThreadHandle::is_blocked`]),
//!   so the real gate/signal/arena code paths are exercised without
//!   parking any OS thread. A fixed seed therefore yields one byte-exact
//!   serve.
//! * **Open arrivals.** [`ArrivalProcess`] draws seeded Poisson,
//!   Pareto (heavy-tailed), or diurnal trace-driven inter-arrival gaps.
//! * **Overload admission control.** At most
//!   [`OpenConfig::queue_capacity`] clients may be live; beyond that an
//!   arrival is **shed** (counted, traced, never connected) — the open
//!   analogue of a bounded accept queue.
//! * **Overhead accounting.** Every manager operation is billed a fixed
//!   virtual cost (see `overhead`); the sum is reported against the
//!   paper's measured ≈4.5 % manager-overhead bound.
//! * **Group serves.** [`serve_group`] serves one configuration for
//!   several estimators at once. Member 0's estimator drives the
//!   manager; the others are *shadows* that receive the same feed and,
//!   after every quantum, select on the same candidates with their own
//!   estimates. A shadow stays while its selection equals the
//!   manager's, so its outcome is the one its solo [`serve`] would
//!   reach; one that selects differently leaves, to be served again.
//!   [`serve`] is the one-member group.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod arrivals;

pub use arrivals::ArrivalProcess;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use busbw_core::estimator::BandwidthEstimator;
use busbw_core::manager::{AppRuntime, ClientId, CpuManager, ManagerConfig};
use busbw_core::{Candidate, SelectBuffers};
use busbw_metrics::Histogram;
use busbw_sim::AppId;
use busbw_trace::TraceEvent;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A bandwidth-oblivious estimator: every job reads as bandwidth-free, so
/// the manager's gang selection degenerates to plain width-first rotation
/// — the "Linux-like" baseline stack of the open-system figures. Contrast
/// with [`busbw_core::estimator::LatestQuantumEstimator`] and
/// [`busbw_core::estimator::QuantaWindowEstimator`].
#[derive(Debug, Default, Clone, Copy)]
pub struct ZeroEstimator;

impl BandwidthEstimator for ZeroEstimator {
    fn record_sample(&mut self, _app: AppId, _rate: f64) {}
    fn record_quantum(&mut self, _app: AppId, _rate: f64) {}
    fn estimate(&self, _app: AppId) -> f64 {
        0.0
    }
    fn forget(&mut self, _app: AppId) {}
    fn label(&self) -> &'static str {
        "Oblivious"
    }
}

/// Modeled virtual-µs costs of manager operations. The real daemon's
/// overhead was measured at ≈4.5 % of machine time (paper §4); these
/// constants bill the virtual clock for the same bookkeeping so the
/// reported overhead is deterministic and comparable across runs.
pub(crate) mod overhead {
    /// Handshake: accept-queue check + connect message + ack.
    pub(crate) const CONNECT_US: u64 = 3;
    /// One thread registration message.
    pub(crate) const THREAD_US: u64 = 1;
    /// Rejecting an arrival at the accept queue.
    pub(crate) const SHED_US: u64 = 1;
    /// Disconnect message + list removal.
    pub(crate) const DISCONNECT_US: u64 = 2;
    /// Fixed cost of one sampling point…
    pub(crate) const SAMPLE_BASE_US: u64 = 1;
    /// …plus one arena read per running job.
    pub(crate) const SAMPLE_PER_JOB_US: u64 = 1;
    /// Fixed cost of one quantum boundary (settle + rotate + select)…
    pub(crate) const QUANTUM_BASE_US: u64 = 5;
    /// …plus per-candidate selection and signaling work.
    pub(crate) const QUANTUM_PER_JOB_US: u64 = 1;
}

/// How per-client work is drawn (seeded, uniform).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceModel {
    /// Minimum solo service time, µs.
    pub(crate) min_service_us: u64,
    /// Maximum solo service time, µs.
    pub(crate) max_service_us: u64,
    /// Maximum gang width (threads); widths are drawn in `1..=max_width`
    /// and clamped to the machine so every client *can* be scheduled.
    pub(crate) max_width: usize,
    /// Minimum per-thread bus transaction rate while running, tx/µs.
    pub(crate) min_rate: f64,
    /// Maximum per-thread bus transaction rate while running, tx/µs.
    pub(crate) max_rate: f64,
}

impl Default for ServiceModel {
    fn default() -> Self {
        Self {
            min_service_us: 50_000,
            max_service_us: 400_000,
            max_width: 2,
            min_rate: 1.0,
            max_rate: 8.0,
        }
    }
}

/// Configuration of one open serve.
#[derive(Debug, Clone)]
pub struct OpenConfig {
    /// The arrival process.
    pub arrivals: ArrivalProcess,
    /// Virtual horizon of the serve, µs.
    pub duration_us: u64,
    /// Seed for arrivals and client parameters.
    pub seed: u64,
    /// Bounded accept queue: maximum simultaneously live clients; beyond
    /// this, arrivals are shed.
    pub queue_capacity: usize,
    /// The manager configuration (quantum, samples per quantum, cpus).
    pub manager: ManagerConfig,
    /// Per-client work model.
    pub service: ServiceModel,
    /// Collect `ClientArrived`/`ClientShed`/`ClientDeparted` events.
    pub collect_events: bool,
}

impl Default for OpenConfig {
    fn default() -> Self {
        Self {
            arrivals: ArrivalProcess::Poisson { rate_per_s: 20.0 },
            duration_us: 5_000_000,
            seed: 42,
            queue_capacity: 8,
            manager: ManagerConfig::default(),
            service: ServiceModel::default(),
            collect_events: false,
        }
    }
}

/// Upper bucket bounds (µs) of the turnaround histogram behind the
/// `open` figure's tail quantiles: log-spaced from 1 ms to ~100 s. The
/// quantile interpolation of [`busbw_metrics::Histogram::quantile`]
/// operates inside these buckets; ~9 % bucket width keeps p999 readable.
pub fn turnaround_bounds() -> Vec<f64> {
    let mut b = Vec::new();
    let mut v = 1_000.0f64;
    while v < 100_000_000.0 {
        b.push(v);
        v *= 1.09;
    }
    b
}

/// What one open serve produced. Its size does not grow with the clients
/// served: each departure is recorded into the turnaround histogram and
/// the slowdown sum as it happens.
#[derive(Debug, Clone)]
pub struct OpenOutcome {
    /// Turnaround (departure − arrival, µs) of every served client,
    /// recorded in departure order over [`turnaround_bounds`].
    pub turnarounds: Histogram,
    /// Sum of the served clients' slowdowns (turnaround ÷ solo service
    /// time), added in departure order.
    pub(crate) slowdown_sum: f64,
    /// Clients the arrival process offered before the horizon.
    pub arrived: u64,
    /// Arrivals rejected by the bounded accept queue.
    pub shed: u64,
    /// Clients served to completion.
    pub served: u64,
    /// Clients still live (admitted, unfinished) at the horizon.
    pub(crate) live_at_end: u64,
    /// Modeled manager bookkeeping, virtual µs (see `overhead`).
    pub overhead_us: u64,
    /// Quantum boundaries the manager served.
    pub quanta: u64,
    /// The most clients ever live at once: the deepest the bounded
    /// accept queue got (at most [`OpenConfig::queue_capacity`]).
    pub queue_peak: u64,
    /// Virtual duration actually served, µs.
    pub duration_us: u64,
    /// Client lifecycle events, time-ordered (empty unless
    /// [`OpenConfig::collect_events`]).
    pub events: Vec<TraceEvent>,
}

impl OpenOutcome {
    /// Modeled manager overhead as a percentage of the serve duration —
    /// compare against the paper's ≈4.5 % bound.
    #[cfg(test)]
    pub(crate) fn overhead_pct(&self) -> f64 {
        if self.duration_us == 0 {
            0.0
        } else {
            100.0 * self.overhead_us as f64 / self.duration_us as f64
        }
    }

    /// Fraction of arrivals shed, ∈ [0, 1].
    #[cfg(test)]
    pub(crate) fn shed_rate(&self) -> f64 {
        if self.arrived == 0 {
            0.0
        } else {
            self.shed as f64 / self.arrived as f64
        }
    }

    /// Mean slowdown over served clients (0 when none were served).
    pub fn mean_slowdown(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.slowdown_sum / self.served as f64
        }
    }
}

/// One live (admitted, unfinished) client.
struct LiveClient {
    rt: AppRuntime,
    arrived_at_us: u64,
    service_us: u64,
    done_us: u64,
    /// Per-thread bus transaction rate while running, tx/µs.
    rate: f64,
    /// Transactions each thread performed since the last sampling point,
    /// summed per quiet interval of `dt` µs as `(rate * dt) as u64` — the same
    /// terms counting every interval straight into the threads' counters
    /// would add.
    pending_tx: u64,
}

impl LiveClient {
    fn remaining_us(&self) -> u64 {
        self.service_us - self.done_us
    }

    /// Whether the client's gang may progress right now (all gates get
    /// identical signals, so the first gate speaks for the gang).
    fn runnable(&self) -> bool {
        !self.rt.threads()[0].is_blocked()
    }

    /// A sampling point: hand the pending transactions to the thread
    /// counters (none to a gang that stayed blocked), then publish the
    /// application's rate to its arena.
    fn publish_sample(&mut self, now: u64) {
        if self.pending_tx > 0 {
            for t in self.rt.threads() {
                t.count_transactions(self.pending_tx);
            }
        }
        self.pending_tx = 0;
        self.rt.publish_sample(now);
    }
}

/// Refill `runnable` with the positions in `live` of the clients that
/// may progress, and return the earliest completion among them, or
/// `u64::MAX`.
fn runnable_clients(live: &[LiveClient], runnable: &mut Vec<usize>, now: u64) -> u64 {
    runnable.clear();
    let mut earliest = u64::MAX;
    for (i, c) in live.iter().enumerate() {
        if c.runnable() {
            runnable.push(i);
            earliest = earliest.min(now + c.remaining_us());
        }
    }
    earliest
}

/// The estimators of a group serve's shadow members, each with its
/// member index. The [`Tee`] inside the manager feeds them; the serve
/// loop reads their estimates after each quantum, and clears `any` when
/// the last one leaves, so the tee stops taking the lock.
struct Shadows {
    any: AtomicBool,
    list: Mutex<Vec<(usize, Box<dyn BandwidthEstimator>)>>,
}

impl Shadows {
    fn lock(&self) -> MutexGuard<'_, Vec<(usize, Box<dyn BandwidthEstimator>)>> {
        self.list
            .lock()
            .expect("only the serve locks the shadows, and a panic ends the serve")
    }

    /// Hand every shadow still in the group to `f`, in member order.
    fn each(&self, mut f: impl FnMut(&mut dyn BandwidthEstimator)) {
        if self.any.load(Ordering::Relaxed) {
            for (_, s) in self.lock().iter_mut() {
                f(s.as_mut());
            }
        }
    }
}

/// The estimator a group serve's manager drives: member 0's, with every
/// measurement and forget the manager makes also handed to each shadow,
/// in the same order. Estimates are member 0's alone.
struct Tee {
    primary: Box<dyn BandwidthEstimator>,
    shadows: Arc<Shadows>,
}

impl BandwidthEstimator for Tee {
    fn record_sample(&mut self, app: AppId, rate: f64) {
        self.primary.record_sample(app, rate);
        self.shadows.each(|s| s.record_sample(app, rate));
    }
    fn record_quantum(&mut self, app: AppId, rate: f64) {
        self.primary.record_quantum(app, rate);
        self.shadows.each(|s| s.record_quantum(app, rate));
    }
    fn estimate(&self, app: AppId) -> f64 {
        self.primary.estimate(app)
    }
    fn forget(&mut self, app: AppId) {
        self.primary.forget(app);
        self.shadows.each(|s| s.forget(app));
    }
    fn label(&self) -> &'static str {
        self.primary.label()
    }
}

/// The shadow side of a group serve.
struct Group {
    shadows: Arc<Shadows>,
    /// The quantum's candidates re-estimated by one shadow.
    scratch: Vec<Candidate<ClientId>>,
    /// The selection's working storage and one shadow's selection.
    select: SelectBuffers<ClientId>,
    selected: Vec<ClientId>,
    /// Seeded fault for the negative test: keep every shadow, whatever
    /// it selects.
    keep_shadows: bool,
}

impl Group {
    /// Right after a quantum: run every shadow's selection on the
    /// quantum's candidates with the shadow's own estimates. Shadows that
    /// select other than the manager did leave the group, and each set of
    /// them that selected alike goes to `on_split` as one class, in
    /// member order.
    fn split(&mut self, mgr: &CpuManager, on_split: &mut impl FnMut(Vec<usize>)) {
        let mut shadows = self.shadows.lock();
        if shadows.is_empty() {
            return;
        }
        let cfg = mgr.config();
        let mut classes: Vec<(Vec<ClientId>, Vec<usize>)> = Vec::new();
        shadows.retain(|(member, est)| {
            self.scratch.clear();
            self.scratch
                .extend(mgr.candidates().iter().map(|c| Candidate {
                    bbw_per_thread: est.estimate(AppId(c.key.0)),
                    ..*c
                }));
            self.select.select_into(
                &self.scratch,
                cfg.num_cpus,
                cfg.bus_total_tx_per_us,
                &mut self.selected,
            );
            let sel = &self.selected;
            if self.keep_shadows || sel == mgr.running() {
                return true;
            }
            match classes.iter_mut().find(|(s, _)| s == sel) {
                Some((_, members)) => members.push(*member),
                None => classes.push((sel.clone(), vec![*member])),
            }
            false
        });
        self.shadows
            .any
            .store(!shadows.is_empty(), Ordering::Relaxed);
        drop(shadows);
        for (_, members) in classes {
            on_split(members);
        }
    }
}

/// What a group serve produced.
#[derive(Debug, Clone)]
pub struct GroupOutcome {
    /// The outcome of every member in `stayed`: each would have reached
    /// it serving alone.
    pub outcome: OpenOutcome,
    /// The members whose selection equalled member 0's at every quantum,
    /// member 0 first, as indices into the estimators given.
    pub stayed: Vec<usize>,
}

/// Serve one open arrival process to the horizon. Deterministic in
/// `cfg.seed`: the loop is single-threaded and every source of
/// variation (arrival gaps, client widths/service/rates) is drawn from
/// the seeded generator.
pub fn serve(cfg: &OpenConfig, estimator: Box<dyn BandwidthEstimator>) -> OpenOutcome {
    serve_group(cfg, vec![estimator], |_| {}).outcome
}

/// Serve `cfg` once for every estimator in `estimators` (see the crate
/// docs). Member 0 drives the manager. After each quantum every other
/// member selects on the same candidates with its own estimates; members
/// that select otherwise leave the group, and each class of them that
/// left at one quantum with one selection is handed to `on_split` as
/// indices into `estimators`. A class that left has no outcome here:
/// serving it again from t = 0, for instance as a group of its own,
/// gives each of its members its solo outcome.
///
/// # Panics
/// Panics if `estimators` is empty.
pub fn serve_group(
    cfg: &OpenConfig,
    estimators: Vec<Box<dyn BandwidthEstimator>>,
    on_split: impl FnMut(Vec<usize>),
) -> GroupOutcome {
    serve_group_with(cfg, estimators, on_split, false)
}

/// [`serve_group`] with the seeded fault of the negative test: with
/// `keep_shadows` no shadow ever leaves.
fn serve_group_with(
    cfg: &OpenConfig,
    estimators: Vec<Box<dyn BandwidthEstimator>>,
    mut on_split: impl FnMut(Vec<usize>),
    keep_shadows: bool,
) -> GroupOutcome {
    assert!(cfg.queue_capacity > 0, "queue capacity must be positive");
    assert!(
        cfg.service.min_service_us >= 1 && cfg.service.min_service_us <= cfg.service.max_service_us
    );
    let mut estimators = estimators.into_iter();
    let primary = estimators.next().expect("a group serve needs a member");
    let shadows: Vec<_> = (1..).zip(estimators).collect();
    // A lone member drives the manager itself, with no tee to feed.
    let (estimator, mut group): (Box<dyn BandwidthEstimator>, _) = if shadows.is_empty() {
        (primary, None)
    } else {
        let shadows = Arc::new(Shadows {
            any: AtomicBool::new(true),
            list: Mutex::new(shadows),
        });
        let tee = Tee {
            primary,
            shadows: Arc::clone(&shadows),
        };
        let group = Group {
            shadows,
            scratch: Vec::new(),
            select: SelectBuffers::default(),
            selected: Vec::new(),
            keep_shadows,
        };
        (Box::new(tee), Some(group))
    };
    // Clients live in this loop, so the serve calls the manager's
    // handlers directly; nothing is ever sent on the channel.
    let (mut mgr, _handle) = CpuManager::new(cfg.manager, estimator);
    let mcfg = mgr.config();
    let update_period_us = (mcfg.quantum_us / mcfg.samples_per_quantum as u64).max(1);

    // Independent streams so the arrival schedule does not shift when
    // the client-parameter model changes.
    let mut arr_rng = StdRng::seed_from_u64(cfg.seed);
    let mut cli_rng = StdRng::seed_from_u64(cfg.seed ^ 0xC0FF_EE00_DEAD_BEEF);

    let mut now: u64 = 0;
    let mut next_arrival = cfg.arrivals.next_gap_us(0, &mut arr_rng);
    let mut next_sample = update_period_us;
    let mut next_quantum = mcfg.quantum_us;
    let horizon = cfg.duration_us;

    let mut live: Vec<LiveClient> = Vec::new();
    // Runtimes of departed clients: each admission takes one and its
    // storage back (`AppRuntime::readmit_in_process`) before making new.
    let mut retired: Vec<AppRuntime> = Vec::new();
    let mut out = OpenOutcome {
        turnarounds: Histogram::new(turnaround_bounds()),
        slowdown_sum: 0.0,
        arrived: 0,
        shed: 0,
        served: 0,
        live_at_end: 0,
        overhead_us: 0,
        quanta: 0,
        queue_peak: 0,
        duration_us: horizon,
        events: Vec::new(),
    };

    // The earliest completion moves only when the runnable set changes: a
    // departure, an admission or a quantum. Between those, every runnable
    // client advances by exactly the elapsed time, so `now + remaining`
    // stays put.
    let mut next_completion = u64::MAX;
    let mut runnable_changed = true;
    // Positions in `live` of the clients that may progress. Gates move
    // only at the events that set `runnable_changed` (a quantum's signals,
    // a departing client's own unblock, a new client's open gates), so
    // the gates are read there and nowhere else.
    let mut runnable: Vec<usize> = Vec::new();

    while now < horizon {
        if runnable_changed {
            next_completion = runnable_clients(&live, &mut runnable, now);
            runnable_changed = false;
        }
        // The next instant anything can happen: an arrival, a sampling
        // point, a quantum boundary, the earliest completion of a
        // currently runnable client, or the horizon itself.
        let next = next_arrival
            .min(next_sample)
            .min(next_quantum)
            .min(next_completion)
            .min(horizon);

        // Advance every runnable client through the quiet interval,
        // counting the bus transactions its threads perform. The interval
        // ends at the earliest completion at the latest, so none of them
        // runs past its remaining work.
        let dt = next - now;
        if dt > 0 {
            for &i in &runnable {
                let c = &mut live[i];
                debug_assert!(dt <= c.remaining_us());
                c.done_us += dt;
                c.pending_tx += (c.rate * dt as f64) as u64;
            }
        }
        now = next;
        if now >= horizon {
            break;
        }

        // Same-instant ordering is fixed: departures free capacity
        // before the arrival is considered, sampling reads arenas
        // before the quantum settles them. Only the earliest completion
        // can finish a client.
        let mut i = 0;
        while now == next_completion && i < live.len() {
            if live[i].done_us < live[i].service_us {
                i += 1;
                continue;
            }
            let c = live.remove(i);
            runnable_changed = true;
            let turnaround = now - c.arrived_at_us;
            let client = c.rt.id().0;
            mgr.disconnect(c.rt.id());
            retired.push(c.rt);
            out.overhead_us += overhead::DISCONNECT_US;
            out.served += 1;
            // A client advances at most one µs of service per µs of
            // virtual time, so no client departs faster than solo.
            debug_assert!(
                turnaround >= c.service_us,
                "client {client} departed in {turnaround} µs, under its {} µs solo service",
                c.service_us
            );
            out.turnarounds.record(turnaround as f64);
            out.slowdown_sum += turnaround as f64 / c.service_us as f64;
            if cfg.collect_events {
                out.events.push(TraceEvent::ClientDeparted {
                    at_us: now,
                    client,
                    turnaround_us: turnaround,
                });
            }
        }

        if now == next_arrival {
            out.arrived += 1;
            // Client parameters are always drawn, admitted or not, so
            // the parameter stream stays aligned with the arrival stream
            // whatever the shed pattern.
            let width = (cli_rng.gen_range(1..=cfg.service.max_width.max(1) as u64) as usize)
                .min(mcfg.num_cpus);
            let service_us =
                cli_rng.gen_range(cfg.service.min_service_us..=cfg.service.max_service_us);
            let rate = cli_rng.gen_range(cfg.service.min_rate..=cfg.service.max_rate);
            if live.len() >= cfg.queue_capacity {
                out.shed += 1;
                out.overhead_us += overhead::SHED_US;
                if cfg.collect_events {
                    out.events.push(TraceEvent::ClientShed {
                        at_us: now,
                        arrival: out.arrived - 1,
                        live: live.len(),
                    });
                }
            } else {
                // A served client's name is never read: connect it unnamed.
                let ack = mgr.connect(String::new());
                let mut rt = match retired.pop() {
                    Some(mut rt) => {
                        rt.readmit_in_process(ack);
                        rt
                    }
                    None => AppRuntime::in_process(ack),
                };
                for _ in 0..width {
                    let t = rt
                        .register_thread()
                        .expect("an in-process runtime sends nothing");
                    mgr.thread_created(rt.id(), t.gate());
                }
                out.overhead_us += overhead::CONNECT_US + overhead::THREAD_US * width as u64;
                if cfg.collect_events {
                    out.events.push(TraceEvent::ClientArrived {
                        at_us: now,
                        client: rt.id().0,
                        width,
                    });
                }
                live.push(LiveClient {
                    rt,
                    arrived_at_us: now,
                    service_us,
                    done_us: 0,
                    rate,
                    pending_tx: 0,
                });
                out.queue_peak = out.queue_peak.max(live.len() as u64);
                runnable_changed = true;
            }
            // A heavy-tailed gap can saturate to `u64::MAX`: an arrival
            // that never comes, not a clock that wraps.
            next_arrival = now.saturating_add(cfg.arrivals.next_gap_us(now, &mut arr_rng));
        }

        if now == next_sample {
            for c in live.iter_mut() {
                c.publish_sample(now);
            }
            mgr.sample();
            out.overhead_us +=
                overhead::SAMPLE_BASE_US + overhead::SAMPLE_PER_JOB_US * live.len() as u64;
            next_sample += update_period_us;
        }

        if now == next_quantum {
            mgr.quantum();
            if let Some(g) = &mut group {
                g.split(&mgr, &mut on_split);
            }
            runnable_changed = true;
            out.quanta += 1;
            out.overhead_us +=
                overhead::QUANTUM_BASE_US + overhead::QUANTUM_PER_JOB_US * live.len() as u64;
            next_quantum += mcfg.quantum_us;
        }
    }

    out.live_at_end = live.len() as u64;
    // Unpark whatever is still live so nothing leaks a parked state.
    for c in live {
        mgr.disconnect(c.rt.id());
    }
    let mut stayed = vec![0];
    if let Some(g) = &group {
        stayed.extend(g.shadows.lock().iter().map(|&(m, _)| m));
    }
    GroupOutcome {
        outcome: out,
        stayed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use busbw_core::estimator::{LatestQuantumEstimator, QuantaWindowEstimator};

    fn quick_cfg() -> OpenConfig {
        OpenConfig {
            arrivals: ArrivalProcess::Poisson { rate_per_s: 40.0 },
            duration_us: 2_000_000,
            seed: 42,
            queue_capacity: 6,
            collect_events: true,
            ..OpenConfig::default()
        }
    }

    /// A serve as bytes: [`figure_parts`], then the collected events'
    /// JSON.
    fn digest(o: &OpenOutcome) -> Vec<u8> {
        let mut b = figure_parts(o);
        let mut ev = String::new();
        for e in &o.events {
            e.write_json(&mut ev);
            ev.push('\n');
        }
        b.extend_from_slice(ev.as_bytes());
        b
    }

    #[test]
    fn serve_is_byte_deterministic_for_a_fixed_seed() {
        let cfg = quick_cfg();
        let a = serve(&cfg, Box::new(LatestQuantumEstimator::new()));
        let b = serve(&cfg, Box::new(LatestQuantumEstimator::new()));
        assert!(a.arrived > 10, "expected a busy serve, got {}", a.arrived);
        assert_eq!(digest(&a), digest(&b));
        // A different seed produces a different serve.
        let c = serve(
            &OpenConfig {
                seed: 43,
                ..quick_cfg()
            },
            Box::new(LatestQuantumEstimator::new()),
        );
        assert_ne!(digest(&a), digest(&c));
    }

    #[test]
    fn accounting_balances_arrived_against_shed_served_live() {
        for seed in [1, 7, 99] {
            let o = serve(
                &OpenConfig {
                    seed,
                    ..quick_cfg()
                },
                Box::new(QuantaWindowEstimator::new()),
            );
            assert_eq!(
                o.arrived,
                o.shed + o.served + o.live_at_end,
                "seed {seed}: {} arrived, {} shed, {} served, {} live",
                o.arrived,
                o.shed,
                o.served,
                o.live_at_end
            );
            assert_eq!(o.served, o.turnarounds.count());
            // 200 ms quanta over a 2 s horizon: the boundary at the
            // horizon is not served.
            assert_eq!(o.quanta, 9);
            assert!(
                (1..=6).contains(&o.queue_peak),
                "queue peak {}",
                o.queue_peak
            );
            // Each client's turnaround ≥ its own solo service time is
            // asserted in the serve loop itself (a debug assertion, so
            // checked in every debug-build test of the serve); here the
            // shortest turnaround is at least the shortest service time.
            let t = &o.turnarounds;
            assert!(t.min() >= quick_cfg().service.min_service_us as f64 && t.max().is_finite());
            assert!(
                o.mean_slowdown() >= 1.0 - 1e-9,
                "mean slowdown below 1: {}",
                o.mean_slowdown()
            );
        }
    }

    #[test]
    fn overload_sheds_and_light_load_does_not() {
        let heavy = serve(
            &OpenConfig {
                arrivals: ArrivalProcess::Poisson { rate_per_s: 400.0 },
                queue_capacity: 4,
                ..quick_cfg()
            },
            Box::new(LatestQuantumEstimator::new()),
        );
        assert!(heavy.shed > 0, "400/s into capacity 4 must shed");
        assert!(heavy.shed_rate() > 0.3, "shed rate {}", heavy.shed_rate());
        let light = serve(
            &OpenConfig {
                arrivals: ArrivalProcess::Poisson { rate_per_s: 2.0 },
                ..quick_cfg()
            },
            Box::new(LatestQuantumEstimator::new()),
        );
        assert_eq!(light.shed, 0, "2/s into capacity 6 must not shed");
        assert!(light.served > 0);
    }

    #[test]
    fn modeled_overhead_stays_under_the_paper_bound() {
        let o = serve(&quick_cfg(), Box::new(LatestQuantumEstimator::new()));
        assert!(o.overhead_us > 0);
        assert!(
            o.overhead_pct() < 4.5,
            "modeled overhead {:.3} % exceeds the paper's 4.5 % bound",
            o.overhead_pct()
        );
    }

    #[test]
    fn events_are_time_ordered_and_consistent_with_counters() {
        let o = serve(&quick_cfg(), Box::new(LatestQuantumEstimator::new()));
        let mut last = 0;
        let (mut arrived, mut shed, mut departed) = (0u64, 0u64, 0u64);
        for e in &o.events {
            assert!(e.at_us() >= last, "event stream rewound");
            last = e.at_us();
            match e {
                TraceEvent::ClientArrived { .. } => arrived += 1,
                TraceEvent::ClientShed { .. } => shed += 1,
                TraceEvent::ClientDeparted { .. } => departed += 1,
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert_eq!(arrived + shed, o.arrived);
        assert_eq!(shed, o.shed);
        assert_eq!(departed, o.served);
    }

    /// FNV-1a 64 of `bytes`.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// One of each arrival family, overloaded enough to shed.
    const PINNED_ARRIVALS: [ArrivalProcess; 3] = [
        ArrivalProcess::Poisson { rate_per_s: 40.0 },
        ArrivalProcess::Pareto {
            rate_per_s: 40.0,
            alpha: 1.5,
        },
        ArrivalProcess::Diurnal {
            rate_per_s: 40.0,
            period_us: 1_000_000,
        },
    ];

    /// The pinned serves: every stack × arrival family × seed, with
    /// events collected.
    fn pinned_serves() -> Vec<OpenOutcome> {
        let mut out = Vec::new();
        for seed in [42, 7] {
            for arrivals in PINNED_ARRIVALS {
                for stack in STACKS {
                    let cfg = OpenConfig {
                        arrivals,
                        seed,
                        ..quick_cfg()
                    };
                    out.push(serve(&cfg, stack()));
                }
            }
        }
        out
    }

    #[test]
    fn serve_outcomes_are_pinned_byte_for_byte() {
        // Any change to the event loop or the manager stack that moves a
        // turnaround bit, a counter or an event breaks this pin.
        let got: Vec<u64> = pinned_serves().iter().map(|o| fnv1a(&digest(o))).collect();
        // Latest and Window agree: each client's rate is constant, so a
        // window of equal samples averages to the latest one.
        let pinned: [u64; 18] = [
            0x4136_7f1c_5949_4682,
            0xb977_5e8a_2b73_1f0f,
            0xb977_5e8a_2b73_1f0f,
            0x2e78_d6cc_ef43_c946,
            0x7cb6_d5bc_2ed0_f6da,
            0x7cb6_d5bc_2ed0_f6da,
            0x9413_8c1a_2cb4_4fbd,
            0xfbfc_4c30_dcdc_b7fd,
            0xfbfc_4c30_dcdc_b7fd,
            0xca05_6ce5_405e_cf3d,
            0x8d0b_25e6_edef_7a09,
            0x8d0b_25e6_edef_7a09,
            0xbabd_b900_409b_ca21,
            0x8aff_c582_b6c1_0c54,
            0x8aff_c582_b6c1_0c54,
            0x3b10_aac6_e0bb_bad8,
            0x16c3_feef_b987_9581,
            0x16c3_feef_b987_9581,
        ];
        assert_eq!(got, pinned, "got {got:#018x?}");
    }

    /// What the `open` figure reads of a serve, as bytes: the turnaround
    /// histogram's parts (bucket counts, count, and the sum, min and max
    /// bits), the slowdown sum's bits and the counters.
    fn figure_parts(o: &OpenOutcome) -> Vec<u8> {
        let h = &o.turnarounds;
        let mut b = Vec::new();
        for &n in h.counts() {
            b.extend_from_slice(&n.to_le_bytes());
        }
        for v in [
            h.count(),
            h.sum().to_bits(),
            h.min().to_bits(),
            h.max().to_bits(),
            o.slowdown_sum.to_bits(),
            o.arrived,
            o.shed,
            o.served,
            o.live_at_end,
            o.overhead_us,
            o.quanta,
            o.queue_peak,
            o.duration_us,
        ] {
            b.extend_from_slice(&v.to_le_bytes());
        }
        b
    }

    #[test]
    fn serve_histograms_and_slowdown_sums_are_pinned() {
        let got: Vec<u64> = pinned_serves()
            .iter()
            .map(|o| fnv1a(&figure_parts(o)))
            .collect();
        let pinned: [u64; 18] = [
            0x70ed_89e4_488f_14d3,
            0xcd8f_768b_00ee_1e21,
            0xcd8f_768b_00ee_1e21,
            0x677e_bd91_1a96_d1b4,
            0x546e_140c_bd1d_21ec,
            0x546e_140c_bd1d_21ec,
            0x8da8_5601_85b8_de8c,
            0xce26_3439_e95a_4f37,
            0xce26_3439_e95a_4f37,
            0xf1d6_d794_348f_d8df,
            0x358e_af10_63d5_73eb,
            0x358e_af10_63d5_73eb,
            0x364d_794d_ad81_59b3,
            0xf103_1536_636b_4ccd,
            0xf103_1536_636b_4ccd,
            0xb288_6c1e_e75e_767b,
            0xfdb1_fdc4_4412_c07c,
            0xfdb1_fdc4_4412_c07c,
        ];
        assert_eq!(got, pinned, "got {got:#018x?}");
    }

    #[test]
    fn departure_turnarounds_are_pinned_client_by_client() {
        // Every served client's turnaround, in departure order, as the
        // collected trace reports it.
        let got: Vec<u64> = pinned_serves()
            .iter()
            .map(|o| {
                let departed: Vec<u8> = o
                    .events
                    .iter()
                    .filter_map(|e| match e {
                        TraceEvent::ClientDeparted { turnaround_us, .. } => Some(*turnaround_us),
                        _ => None,
                    })
                    .flat_map(u64::to_le_bytes)
                    .collect();
                assert_eq!(departed.len() as u64, 8 * o.served);
                fnv1a(&departed)
            })
            .collect();
        let pinned: [u64; 18] = [
            0x6e09_edad_32ac_176e,
            0x513a_a9db_c31b_7d16,
            0x513a_a9db_c31b_7d16,
            0x661c_0596_f559_cea4,
            0x4c05_d9ff_13c2_d32d,
            0x4c05_d9ff_13c2_d32d,
            0x151f_92c2_03f8_da58,
            0x4545_2fd3_1ee9_bab2,
            0x4545_2fd3_1ee9_bab2,
            0x5f5f_ae9f_2903_7a24,
            0xa131_4fd4_ce95_3c3f,
            0xa131_4fd4_ce95_3c3f,
            0x69cc_fb50_6525_3ad4,
            0xdb8a_2aa7_86e4_a57a,
            0xdb8a_2aa7_86e4_a57a,
            0x0e7f_13f7_efe0_0ad2,
            0x4dc1_6fc0_366e_02ec,
            0x4dc1_6fc0_366e_02ec,
        ];
        assert_eq!(got, pinned, "got {got:#018x?}");
    }

    /// Latest Quantum, with every rate it is fed appended to `feed`.
    struct RecordingEstimator {
        inner: LatestQuantumEstimator,
        feed: std::sync::Arc<std::sync::Mutex<Vec<u8>>>,
    }

    impl RecordingEstimator {
        fn log(&self, tag: u8, app: AppId, rate: f64) {
            let mut feed = self.feed.lock().expect("test-only lock");
            feed.push(tag);
            feed.extend_from_slice(&app.0.to_le_bytes());
            feed.extend_from_slice(&rate.to_bits().to_le_bytes());
        }
    }

    impl BandwidthEstimator for RecordingEstimator {
        fn record_sample(&mut self, app: AppId, rate: f64) {
            self.log(b's', app, rate);
            self.inner.record_sample(app, rate);
        }
        fn record_quantum(&mut self, app: AppId, rate: f64) {
            self.log(b'q', app, rate);
            self.inner.record_quantum(app, rate);
        }
        fn estimate(&self, app: AppId) -> f64 {
            self.inner.estimate(app)
        }
        fn forget(&mut self, app: AppId) {
            self.log(b'f', app, 0.0);
            self.inner.forget(app);
        }
        fn label(&self) -> &'static str {
            self.inner.label()
        }
    }

    #[test]
    fn estimator_feed_is_pinned_bit_for_bit() {
        // The outcome pin above cannot see a rate that moves without
        // changing a decision. This one hashes every rate the manager
        // feeds its estimator, so it pins the transaction counts the
        // serve loop hands the arenas.
        let mut got = Vec::new();
        for seed in [42, 7] {
            for arrivals in PINNED_ARRIVALS {
                let feed = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
                let est = RecordingEstimator {
                    inner: LatestQuantumEstimator::new(),
                    feed: feed.clone(),
                };
                let cfg = OpenConfig {
                    arrivals,
                    seed,
                    duration_us: 10_000_000,
                    ..quick_cfg()
                };
                serve(&cfg, Box::new(est));
                let feed = feed.lock().expect("test-only lock");
                assert!(feed.len() >= 100 * 17, "a busy serve feeds 100+ rates");
                got.push(fnv1a(&feed));
            }
        }
        let pinned: [u64; 6] = [
            0x1248_18d5_0fa5_68a0,
            0xeeac_4052_4309_853c,
            0x95cb_7b42_bdfa_8927,
            0x4aac_4178_46c3_50e1,
            0x4903_1116_bf86_98d3,
            0x2881_6fc9_4b7d_3e0f,
        ];
        assert_eq!(got, pinned, "got {got:#018x?}");
    }

    /// The three stacks of the `open` figure, baseline first.
    const STACKS: [fn() -> Box<dyn BandwidthEstimator>; 3] = [
        || Box::new(ZeroEstimator),
        || Box::new(LatestQuantumEstimator::new()),
        || Box::new(QuantaWindowEstimator::new()),
    ];

    /// Serve `members` (indices into [`STACKS`]) as one group, and every
    /// class that leaves it again from t = 0 as a group of its own.
    /// Returns each member's outcome digest by member index, and the
    /// number of serve loops run.
    fn serve_classes(
        cfg: &OpenConfig,
        members: &[usize],
        keep_shadows: bool,
    ) -> (Vec<Vec<u8>>, u64) {
        let mut digests = vec![Vec::new(); STACKS.len()];
        let mut serves = 0;
        let mut pending = vec![members.to_vec()];
        while let Some(class) = pending.pop() {
            let ests = class.iter().map(|&m| STACKS[m]()).collect();
            let mut left = Vec::new();
            let g = serve_group_with(cfg, ests, |l| left.push(l), keep_shadows);
            serves += 1;
            for &i in &g.stayed {
                digests[class[i]] = digest(&g.outcome);
            }
            pending.extend(
                left.into_iter()
                    .map(|l| l.iter().map(|&i| class[i]).collect()),
            );
        }
        (digests, serves)
    }

    /// The six orders of the three stacks.
    const ORDERS: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];

    #[test]
    fn every_group_member_ends_with_its_solo_outcome() {
        for seed in [42, 7] {
            for arrivals in PINNED_ARRIVALS {
                let cfg = OpenConfig {
                    arrivals,
                    seed,
                    ..quick_cfg()
                };
                let solo: Vec<Vec<u8>> = STACKS.iter().map(|s| digest(&serve(&cfg, s()))).collect();
                for order in ORDERS {
                    let what = format!("seed {seed}, {arrivals:?}, member order {order:?}");
                    let (got, serves) = serve_classes(&cfg, &order, false);
                    assert_eq!(got, solo, "{what}");
                    // Latest and Window select alike on constant-rate
                    // clients, so the three stacks never need three
                    // serves.
                    assert_eq!(serves, 2, "{what}");
                }
            }
        }
    }

    #[test]
    fn a_group_that_keeps_a_disagreeing_shadow_is_caught() {
        let cfg = quick_cfg();
        let solo: Vec<Vec<u8>> = STACKS.iter().map(|s| digest(&serve(&cfg, s()))).collect();
        for order in ORDERS {
            let (got, serves) = serve_classes(&cfg, &order, true);
            assert_eq!(serves, 1, "a group that keeps its shadows serves once");
            assert_ne!(
                got, solo,
                "member order {order:?}: a shadow kept past its split must not end with its solo outcome"
            );
        }
    }

    #[test]
    fn heavy_tailed_arrivals_serve_deterministically_too() {
        let cfg = OpenConfig {
            arrivals: ArrivalProcess::Pareto {
                rate_per_s: 30.0,
                alpha: 1.5,
            },
            ..quick_cfg()
        };
        let a = serve(&cfg, Box::new(QuantaWindowEstimator::new()));
        let b = serve(&cfg, Box::new(QuantaWindowEstimator::new()));
        assert_eq!(digest(&a), digest(&b));
        assert!(a.arrived > 0);
    }
}
