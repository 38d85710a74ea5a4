//! The connection protocol between applications and the CPU manager.
//!
//! The paper uses a UNIX socket for the initial handshake; here the
//! transport is a `std::sync::mpsc` channel. The message set mirrors the
//! paper's run-time library: connect/disconnect plus thread creation and
//! destruction interception. A connect carries its own one-slot reply
//! channel (`sync_channel(1)`) for the single [`ConnectAck`].
//!
//! Each message kind maps to one handler on
//! [`super::server::CpuManager`], which `pump` calls after decoding. The
//! channel serves threaded clients; a host whose clients live in the
//! manager's own loop calls the handlers directly and sends nothing.

use std::sync::mpsc::SyncSender;
use std::sync::Arc;

use super::seqlock::SeqlockArena;
use super::signals::SignalGate;

/// Identifies a connected application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(pub u64);

impl std::fmt::Display for ClientId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "client{}", self.0)
    }
}

/// Messages from applications (via the run-time library) to the manager.
pub(crate) enum ToManager {
    /// Initial handshake. The manager answers on `reply` with the shared
    /// arena and sampling contract.
    Connect {
        /// Application display name.
        name: String,
        /// Where to deliver the [`ConnectAck`] (one slot: the manager's
        /// send never waits).
        reply: SyncSender<ConnectAck>,
    },
    /// The run-time library intercepted a thread creation.
    ThreadCreated {
        /// The owning application.
        app: ClientId,
        /// Gate the manager (or a forwarding sibling) will signal.
        gate: Arc<SignalGate>,
    },
    /// The run-time library intercepted a thread exit.
    ThreadExited {
        /// The owning application.
        app: ClientId,
    },
    /// The application is terminating.
    Disconnect {
        /// The departing application.
        app: ClientId,
    },
}

/// The manager's answer to [`ToManager::Connect`].
pub struct ConnectAck {
    /// The id assigned to this application.
    pub(crate) app: ClientId,
    /// The shared arena for publishing transaction-rate samples.
    pub(crate) arena: SeqlockArena,
    /// How often (µs) the manager expects the arena to be refreshed —
    /// the paper: twice per scheduling quantum.
    pub(crate) update_period_us: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, sync_channel};

    #[test]
    fn handshake_shapes_compose() {
        // A miniature manager loop answering one Connect.
        let (tx, rx) = channel::<ToManager>();
        let server = std::thread::spawn(move || {
            if let Ok(ToManager::Connect { name, reply }) = rx.recv() {
                assert_eq!(name, "CG");
                reply
                    .send(ConnectAck {
                        app: ClientId(1),
                        arena: SeqlockArena::new(),
                        update_period_us: 100_000,
                    })
                    .unwrap();
            }
        });
        let (rtx, rrx) = sync_channel(1);
        tx.send(ToManager::Connect {
            name: "CG".into(),
            reply: rtx,
        })
        .unwrap();
        let ack = rrx.recv().unwrap();
        assert_eq!(ack.app, ClientId(1));
        assert_eq!(ack.update_period_us, 100_000);
        assert_eq!(ack.arena.read().seq, 0);
        server.join().unwrap();
    }
}
