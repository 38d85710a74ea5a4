//! The event taxonomy: one table declares every event, and the enum, its
//! `kind`/`at_us`, its JSONL line and its run-cache codec all follow from
//! it.

use std::fmt::Write as _;

use crate::json::{escape_into, push_f64};
use crate::wire::{Dec, Enc, Wire};

/// One stage of a composable scheduling pipeline (see
/// `busbw-core::pipeline`): the four-step decomposition every reschedule
/// walks through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineStage {
    /// Bandwidth estimation: settle the finished interval's measurements.
    Estimate,
    /// Admission: the unconditional head-of-list (or FCFS/priority) step.
    Admit,
    /// Selection: fill the remaining processors (fitness, random, …).
    Select,
    /// Placement: map admitted gangs onto cpus.
    Place,
}

impl PipelineStage {
    /// All stages, in pipeline order.
    pub(crate) const ALL: [PipelineStage; 4] = [
        PipelineStage::Estimate,
        PipelineStage::Admit,
        PipelineStage::Select,
        PipelineStage::Place,
    ];

    /// Stable lowercase name (matches `busbw_sim::STAGE_NAMES`).
    pub fn as_str(self) -> &'static str {
        match self {
            PipelineStage::Estimate => "estimate",
            PipelineStage::Admit => "admit",
            PipelineStage::Select => "select",
            PipelineStage::Place => "place",
        }
    }

    /// Index in pipeline order (0..4).
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`PipelineStage::index`].
    pub(crate) fn from_index(i: usize) -> Option<PipelineStage> {
        PipelineStage::ALL.get(i).copied()
    }
}

/// One byte: the stage's `PipelineStage::index`.
impl Wire for PipelineStage {
    const MIN_BYTES: usize = 1;

    fn put(&self, e: &mut Enc) {
        e.u8(self.index() as u8);
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, String> {
        let i = d.u8()?;
        Self::from_index(i.into()).ok_or_else(|| format!("bad pipeline stage index {i}"))
    }
}

/// How an event field's value appears in its JSON line.
trait JsonField {
    fn push_json(&self, out: &mut String);
}

macro_rules! display_json {
    ($($t:ty),*) => {$(
        impl JsonField for $t {
            fn push_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

display_json!(u64, usize, bool);

impl JsonField for f64 {
    fn push_json(&self, out: &mut String) {
        push_f64(out, *self);
    }
}

impl JsonField for String {
    fn push_json(&self, out: &mut String) {
        out.push('"');
        escape_into(out, self);
        out.push('"');
    }
}

impl JsonField for PipelineStage {
    fn push_json(&self, out: &mut String) {
        let _ = write!(out, "\"{}\"", self.as_str());
    }
}

/// Declares [`TraceEvent`] from one row per variant:
///
/// ```text
/// Variant = <binary tag>, "<ev kind>"[, at_us] { field: Type => "<json key>", … }
/// ```
///
/// A row naming `at_us` gets a leading `at_us: u64` field, written first
/// in the binary layout and as the JSON `t`; a row without it writes
/// `"t":0`. The remaining fields follow in row order in both layouts.
macro_rules! trace_events {
    (@at) => { 0 };
    (@at $at:ident) => { $at };
    (@at_bytes) => { 0 };
    (@at_bytes $at:ident) => { 8 };
    (
        $(#[$meta:meta])*
        pub enum TraceEvent {$(
            $(#[$vmeta:meta])*
            $name:ident = $tag:literal, $kind:literal $(, $at:ident)? {
                $($(#[$fmeta:meta])* $field:ident: $ty:ty => $key:literal),* $(,)?
            }
        ),* $(,)?}
    ) => {
        $(#[$meta])*
        pub enum TraceEvent {$(
            $(#[$vmeta])*
            $name {
                $(
                    /// Time of the event, µs: simulated, or the open
                    /// server's virtual time.
                    $at: u64,
                )?
                $($(#[$fmeta])* $field: $ty,)*
            },
        )*}

        impl TraceEvent {
            /// Short machine-readable kind tag (the JSON `ev` field).
            pub fn kind(&self) -> &'static str {
                match self {
                    $(TraceEvent::$name { .. } => $kind,)*
                }
            }

            /// Simulated time of the event, µs. Wall-time (CPU manager)
            /// events report 0 so they sort before simulated activity.
            pub fn at_us(&self) -> u64 {
                match *self {
                    $(TraceEvent::$name { $($at,)? .. } => trace_events!(@at $($at)?),)*
                }
            }

            /// Append this event as one JSON object (no trailing newline).
            pub fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{{\"ev\":\"{}\",\"t\":{}", self.kind(), self.at_us());
                match self {
                    $(TraceEvent::$name { $($field,)* .. } => {
                        $(
                            out.push_str(concat!(",\"", $key, "\":"));
                            $field.push_json(out);
                        )*
                    })*
                }
                out.push('}');
            }
        }

        /// The binary tag byte, then the row's fields in order.
        impl Wire for TraceEvent {
            const MIN_BYTES: usize = {
                let mut min = usize::MAX;
                $(
                    let n = 1 + trace_events!(@at_bytes $($at)?)
                        $(+ <$ty as Wire>::MIN_BYTES)*;
                    if n < min {
                        min = n;
                    }
                )*
                min
            };

            fn put(&self, e: &mut Enc) {
                match self {
                    $(TraceEvent::$name { $($at,)? $($field),* } => {
                        e.u8($tag);
                        $($at.put(e);)?
                        $($field.put(e);)*
                    })*
                }
            }

            fn get(d: &mut Dec<'_>) -> Result<Self, String> {
                Ok(match d.u8()? {
                    $($tag => TraceEvent::$name {
                        $($at: Wire::get(d)?,)?
                        $($field: Wire::get(d)?,)*
                    },)*
                    t => return Err(format!("unknown event tag {t}")),
                })
            }
        }
    };
}

trace_events! {
    /// One structured trace event.
    ///
    /// Variants cover the three instrumented layers (simulator, scheduler,
    /// CPU manager) plus the experiment runner. Events that happen in
    /// simulated time carry `at_us`; CPU-manager events happen in wall time
    /// (the manager is a real-time component) and sort at time 0.
    ///
    /// Hot-path variants are deliberately `String`-free so constructing one
    /// never allocates. Binary tags are part of the run-cache layout: a new
    /// variant takes the next free tag, and changing a row's tag, fields or
    /// their order bumps the run cache's schema version.
    #[derive(Debug, Clone, PartialEq)]
    pub enum TraceEvent {
        /// Simulator: a thread was placed on a cpu when a scheduling decision
        /// was applied. `cold` mirrors the cache-warmth test used for the
        /// cold-start counter (warmth < 0.5).
        Placement = 0, "placement", at_us {
            /// Target cpu index.
            cpu: usize => "cpu",
            /// Placed thread id.
            thread: u64 => "thread",
            /// Owning application id.
            app: u64 => "app",
            /// Whether the placement was cache-cold.
            cold: bool => "cold",
        },
        /// Simulator: a placed thread's solo demand changed — it crossed a
        /// phase edge in its demand model.
        PhaseEdge = 1, "phase_edge", at_us {
            /// The thread whose demand changed.
            thread: u64 => "thread",
            /// New solo bus demand, tx/µs.
            rate: f64 => "rate",
            /// New memory-boundness µ ∈ [0, 1].
            mu: f64 => "mu",
        },
        /// Simulator: the tick loop coarsened — one iteration advanced
        /// several nominal ticks because every input was provably static.
        /// `at_us` is the start of the jump.
        CoarseJump = 2, "coarse_jump", at_us {
            /// Length of the jump, µs.
            dt_us: u64 => "dt_us",
            /// Nominal ticks covered by the single iteration.
            ticks_covered: u64 => "ticks_covered",
        },
        /// Simulator: the bus arbitration produced a new dilation factor Λ
        /// (emitted on change, not every tick — memoized solves that reuse
        /// the previous Λ are silent).
        BusSolve = 3, "bus_solve", at_us {
            /// Dilation factor Λ (1.0 = unsaturated).
            lambda: f64 => "lambda",
            /// Bus utilization ρ ∈ [0, 1].
            utilization: f64 => "rho",
            /// Whether demand exceeded effective capacity.
            saturated: bool => "saturated",
            /// Number of requesting threads.
            requesters: usize => "requesters",
        },
        /// Simulator: an application's last thread finished.
        AppFinished = 4, "app_finished", at_us {
            /// The finished application.
            app: u64 => "app",
            /// Turnaround (finish − arrival), µs.
            turnaround_us: u64 => "turnaround_us",
        },
        /// Scheduler: the head of the circular applications list was admitted
        /// unconditionally (the paper's starvation-freedom rule).
        HeadAdmission = 5, "head_admission", at_us {
            /// Admitted application.
            app: u64 => "app",
            /// Gang width (threads admitted).
            width: usize => "width",
        },
        /// Scheduler: the fitness loop admitted a gang.
        GangSelected = 6, "gang_selected", at_us {
            /// Admitted application.
            app: u64 => "app",
            /// Gang width (threads admitted).
            width: usize => "width",
            /// Fitness score that won the admission.
            fitness: f64 => "fitness",
            /// Available bus bandwidth per unallocated processor at the time
            /// of the decision, tx/µs.
            available_per_proc: f64 => "available_per_proc",
        },
        /// Scheduler: bandwidth demand reconstructed for an application from
        /// measured consumption and mean dilation (demand ≈ consumption × Λ̄).
        Reconstruct = 7, "reconstruct", at_us {
            /// The application observed.
            app: u64 => "app",
            /// Measured per-thread consumption, tx/µs.
            measured_per_thread: f64 => "measured",
            /// Mean dilation Λ̄ over the observation interval.
            dilation: f64 => "dilation",
            /// Reconstructed per-thread demand, tx/µs.
            demand_per_thread: f64 => "demand",
        },
        /// Runner: a measured application had not finished when the run hit
        /// its deadline (hard cap) at `at_us`. Replaces the former panic.
        RunUnfinished = 8, "run_unfinished", at_us {
            /// The unfinished application.
            app: u64 => "app",
            /// Application name.
            name: String => "name",
            /// Fraction of its total work completed, ∈ [0, 1].
            progress_frac: f64 => "progress_frac",
        },
        /// CPU manager: a client connected.
        MgrConnect = 9, "mgr_connect" {
            /// Client id.
            client: u64 => "client",
            /// Thread gates already registered when the connection was
            /// processed (threads register after the handshake, so usually 0).
            threads: usize => "threads",
        },
        /// CPU manager: a client disconnected.
        MgrDisconnect = 10, "mgr_disconnect" {
            /// Client id.
            client: u64 => "client",
        },
        /// CPU manager: a signal gate transitioned (block or unblock
        /// delivered), with the counter pair after the transition.
        MgrGate = 11, "mgr_gate" {
            /// Owning client id.
            client: u64 => "client",
            /// Gated thread id.
            thread: u64 => "thread",
            /// True if the thread should now run (unblocks ≥ blocks).
            resumed: bool => "resumed",
            /// Block signals delivered so far.
            blocks: u64 => "blocks",
            /// Unblock signals delivered so far.
            unblocks: u64 => "unblocks",
        },
        /// CPU manager: a signal pair was injected in reversed order
        /// (unblock before block) to exercise inversion tolerance.
        MgrSignalReorder = 12, "mgr_signal_reorder" {
            /// Owning client id.
            client: u64 => "client",
            /// Gated thread id.
            thread: u64 => "thread",
        },
        /// Manager (open system): a client arrived and was admitted by the
        /// managerd accept queue. Unlike the wall-time `Mgr*` events these
        /// happen in the open server's deterministic virtual time.
        ClientArrived = 14, "client_arrived", at_us {
            /// Admitted client id.
            client: u64 => "client",
            /// Gang width (threads the client will register).
            width: usize => "width",
        },
        /// Manager (open system): a client arrived while the accept queue was
        /// full and was shed by the overload admission control.
        ClientShed = 15, "client_shed", at_us {
            /// Sequential arrival index of the shed client (shed clients
            /// never get a manager id).
            arrival: u64 => "arrival",
            /// Live clients when the shed decision was made.
            live: usize => "live",
        },
        /// Manager (open system): a client completed its work and
        /// disconnected.
        ClientDeparted = 16, "client_departed", at_us {
            /// Departing client id.
            client: u64 => "client",
            /// Turnaround (departure − arrival), µs.
            turnaround_us: u64 => "turnaround_us",
        },
        /// Simulator: one level of a hierarchical bus topology (a socket's
        /// local bus or the cross-socket interconnect) entered saturation.
        /// Emitted on the transition only, like [`TraceEvent::BusSolve`].
        LevelSaturated = 17, "level_saturated", at_us {
            /// Level index: sockets first, the interconnect last.
            level: u64 => "level",
            /// The level's utilization at the transition.
            utilization: f64 => "rho",
            /// The dilation the level imposes on its requesters.
            dilation: f64 => "lambda",
        },
        /// Scheduler: one pipeline stage completed during a reschedule. The
        /// payload is deliberately deterministic (no wall-clock readings) so
        /// merged traces stay invariant under worker counts; stage wall times
        /// live in the metrics registry instead.
        StageDecision = 13, "stage_decision", at_us {
            /// Which stage completed.
            stage: PipelineStage => "stage",
            /// Items the stage produced (candidates estimated, gangs
            /// admitted/selected, threads placed).
            items: usize => "items",
        },
    }
}

impl TraceEvent {
    /// Render this event as one JSON object string.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        self.write_json(&mut s);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn all_variants() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Placement {
                at_us: 100,
                cpu: 2,
                thread: 7,
                app: 3,
                cold: true,
            },
            TraceEvent::PhaseEdge {
                at_us: 200,
                thread: 1,
                rate: 23.6,
                mu: 0.98,
            },
            TraceEvent::CoarseJump {
                at_us: 300,
                dt_us: 1900,
                ticks_covered: 19,
            },
            TraceEvent::BusSolve {
                at_us: 400,
                lambda: 1.65,
                utilization: 1.0,
                saturated: true,
                requesters: 4,
            },
            TraceEvent::AppFinished {
                at_us: 500,
                app: 0,
                turnaround_us: 500,
            },
            TraceEvent::HeadAdmission {
                at_us: 600,
                app: 2,
                width: 4,
            },
            TraceEvent::GangSelected {
                at_us: 700,
                app: 5,
                width: 2,
                fitness: 0.75,
                available_per_proc: 3.5,
            },
            TraceEvent::Reconstruct {
                at_us: 800,
                app: 1,
                measured_per_thread: 4.2,
                dilation: 1.3,
                demand_per_thread: 5.46,
            },
            TraceEvent::RunUnfinished {
                at_us: 900,
                app: 9,
                name: "CG \"quoted\"".into(),
                progress_frac: 0.42,
            },
            TraceEvent::MgrConnect {
                client: 11,
                threads: 4,
            },
            TraceEvent::MgrDisconnect { client: 11 },
            TraceEvent::MgrGate {
                client: 11,
                thread: 3,
                resumed: false,
                blocks: 2,
                unblocks: 1,
            },
            TraceEvent::MgrSignalReorder {
                client: 11,
                thread: 3,
            },
            TraceEvent::ClientArrived {
                at_us: 950,
                client: 12,
                width: 2,
            },
            TraceEvent::ClientShed {
                at_us: 960,
                arrival: 13,
                live: 8,
            },
            TraceEvent::ClientDeparted {
                at_us: 970,
                client: 12,
                turnaround_us: 20,
            },
            TraceEvent::LevelSaturated {
                at_us: 980,
                level: 2,
                utilization: 1.0,
                dilation: 1.4,
            },
            TraceEvent::StageDecision {
                at_us: 1000,
                stage: PipelineStage::Select,
                items: 3,
            },
        ]
    }

    #[test]
    fn every_variant_renders_parseable_json_with_kind_and_time() {
        for ev in all_variants() {
            let line = ev.to_json();
            let v = parse(&line).unwrap_or_else(|e| panic!("bad json {line}: {e}"));
            let Value::Object(fields) = v else {
                panic!("not an object: {line}");
            };
            let kind = fields.iter().find(|(k, _)| k == "ev").expect("ev field");
            assert_eq!(kind.1, Value::String(ev.kind().into()));
            let t = fields.iter().find(|(k, _)| k == "t").expect("t field");
            assert_eq!(t.1, Value::Number(ev.at_us() as f64));
        }
    }

    #[test]
    fn string_fields_are_escaped() {
        let ev = TraceEvent::RunUnfinished {
            at_us: 1,
            app: 0,
            name: "a\"b\\c\nd".into(),
            progress_frac: 0.5,
        };
        let line = ev.to_json();
        assert!(line.contains("a\\\"b\\\\c\\nd"), "{line}");
        parse(&line).expect("escaped json parses");
    }

    #[test]
    fn manager_events_sort_at_time_zero() {
        assert_eq!(TraceEvent::MgrDisconnect { client: 1 }.at_us(), 0);
    }
}
