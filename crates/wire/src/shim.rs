//! The in-process duplex shim: a client-side `Read + Write` transport
//! wired straight into a [`Gateway`], with seeded byte-stream faults
//! injected in both directions.
//!
//! Chaos over real sockets is not reproducible — kernel buffering, thread
//! scheduling, and timeouts all leak nondeterminism into which bytes get
//! mangled. The shim removes the nondeterminism without removing the
//! adversary: every write is a *chunk*, each chunk's fate comes from
//! [`faults::stream::stream_action`] — a pure function of `(seed, link,
//! chunk counter)` — and the server connection state machine processes
//! the surviving bytes synchronously. The same seed therefore injects the
//! identical fault pattern on every run and across processes, which is
//! what lets the wire chaos soak pin a decision digest bit-identical to
//! the in-process path.
//!
//! Chunk counters are per-(client, direction) and survive reconnects, so
//! a client that redials after a mid-frame disconnect continues the same
//! fault schedule rather than rewinding it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::rc::Rc;

use faults::stream::{stream_action, StreamAction, StreamFaultConfig};
use snapshot::SnapError;

use crate::gateway::{Conn, Gateway};

/// Transport-level fault accounting, aggregated across every connection
/// the shim ever dialed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Chunks offered to the fault channel (both directions).
    pub chunks: u64,
    /// Chunks delivered with a flipped bit.
    pub corrupted: u64,
    /// Chunks silently lost.
    pub dropped: u64,
    /// Chunks delivered twice.
    pub duplicated: u64,
    /// Chunks held for the next delivery.
    pub delayed: u64,
    /// Chunks delivered in two pieces.
    pub split: u64,
    /// Mid-chunk connection resets.
    pub disconnects: u64,
    /// Connections the gateway closed (Bye, reject, or framing error).
    pub server_closes: u64,
}

struct Shared {
    gateway: Gateway,
    faults: StreamFaultConfig,
    /// Chunk counters keyed by link id (`client * 2 + direction`).
    counters: BTreeMap<u64, u64>,
    /// Bumped by [`ShimNet::kill_and_recover`]; connections from older
    /// generations observe a reset on their next operation.
    generation: u64,
    stats: TransportStats,
}

/// The shim "network": one gateway, many dialable connections, one fault
/// schedule. Single-threaded by design (`Rc`), which is exactly the point
/// — determinism comes from keeping the whole exchange synchronous.
#[derive(Clone)]
pub struct ShimNet {
    shared: Rc<RefCell<Shared>>,
}

impl std::fmt::Debug for ShimNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShimNet").finish_non_exhaustive()
    }
}

impl ShimNet {
    /// A shim network over `gateway` with `faults` armed on every link.
    pub fn new(gateway: Gateway, faults: StreamFaultConfig) -> Self {
        ShimNet {
            shared: Rc::new(RefCell::new(Shared {
                gateway,
                faults,
                counters: BTreeMap::new(),
                generation: 0,
                stats: TransportStats::default(),
            })),
        }
    }

    /// Opens a connection for `client`. The id keys the fault schedule;
    /// reconnects by the same client continue the same schedule.
    pub fn dial(&self, client: u64) -> ShimConn {
        let generation = self.shared.borrow().generation;
        ShimConn {
            shared: Rc::clone(&self.shared),
            client,
            generation,
            conn: Conn::new(),
            rx: Vec::new(),
            delayed_tx: Vec::new(),
            delayed_rx: Vec::new(),
            broken: false,
        }
    }

    /// Kills the gateway mid-soak and restores it from its own snapshot,
    /// resetting every open connection (their next operation fails with
    /// `ConnectionReset`, forcing the resilient client's reconnect path).
    pub fn kill_and_recover(&self) -> Result<(), SnapError> {
        let mut s = self.shared.borrow_mut();
        let bytes = s.gateway.save_state();
        let restored = Gateway::load_state(&bytes)?;
        s.gateway = restored;
        s.generation += 1;
        Ok(())
    }

    /// Runs `f` against the gateway (soak bookkeeping, final reports).
    pub fn with_gateway<R>(&self, f: impl FnOnce(&mut Gateway) -> R) -> R {
        f(&mut self.shared.borrow_mut().gateway)
    }

    /// Transport fault accounting so far.
    pub fn transport_stats(&self) -> TransportStats {
        self.shared.borrow().stats
    }
}

/// One client connection through the shim. `Write` carries bytes toward
/// the gateway (through the client→server fault channel); responses
/// accumulate through the server→client fault channel and come back out
/// of `Read`. An empty receive buffer reads as `WouldBlock`, matching a
/// drained nonblocking socket, so the resilient client treats "no
/// response" identically over the shim and over TCP.
pub struct ShimConn {
    shared: Rc<RefCell<Shared>>,
    client: u64,
    generation: u64,
    conn: Conn,
    rx: Vec<u8>,
    delayed_tx: Vec<u8>,
    delayed_rx: Vec<u8>,
    broken: bool,
}

impl std::fmt::Debug for ShimConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShimConn")
            .field("client", &self.client)
            .field("broken", &self.broken)
            .finish_non_exhaustive()
    }
}

fn reset() -> io::Error {
    io::Error::new(io::ErrorKind::ConnectionReset, "shim connection reset")
}

impl ShimConn {
    fn check_alive(&mut self) -> io::Result<()> {
        if self.broken {
            return Err(reset());
        }
        if self.shared.borrow().generation != self.generation {
            self.broken = true;
            return Err(reset());
        }
        Ok(())
    }

    /// Applies the link's next fault action to `chunk`, returning the
    /// pieces to deliver and whether the connection dies after them.
    fn mangle(shared: &mut Shared, link: u64, chunk: &[u8]) -> (Vec<Vec<u8>>, bool) {
        let counter = shared.counters.entry(link).or_insert(0);
        let n = *counter;
        *counter += 1;
        shared.stats.chunks += 1;
        let at =
            |frac: f64| ((frac * chunk.len() as f64) as usize).min(chunk.len().saturating_sub(1));
        match stream_action(&shared.faults, link, n) {
            StreamAction::Deliver => (vec![chunk.to_vec()], false),
            StreamAction::Disconnect { frac } => {
                shared.stats.disconnects += 1;
                (vec![chunk[..at(frac)].to_vec()], true)
            }
            StreamAction::Corrupt { frac, bit } => {
                shared.stats.corrupted += 1;
                let mut c = chunk.to_vec();
                if !c.is_empty() {
                    let i = at(frac);
                    c[i] ^= 1 << bit;
                }
                (vec![c], false)
            }
            StreamAction::Drop => {
                shared.stats.dropped += 1;
                (Vec::new(), false)
            }
            StreamAction::Duplicate => {
                shared.stats.duplicated += 1;
                (vec![chunk.to_vec(), chunk.to_vec()], false)
            }
            StreamAction::Delay => {
                shared.stats.delayed += 1;
                (Vec::new(), false) // caller parks the chunk
            }
            StreamAction::Split { frac } => {
                shared.stats.split += 1;
                let i = at(frac);
                (vec![chunk[..i].to_vec(), chunk[i..].to_vec()], false)
            }
        }
    }
}

impl Write for ShimConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.check_alive()?;
        let mut shared = self.shared.borrow_mut();
        let link_c2s = self.client * 2;
        // A delayed chunk rides in front of this one, preserving order.
        let mut chunk = std::mem::take(&mut self.delayed_tx);
        chunk.extend_from_slice(buf);
        let action = stream_action(&shared.faults, link_c2s, {
            // Peek the counter without committing; `mangle` advances it.
            *shared.counters.get(&link_c2s).unwrap_or(&0)
        });
        if matches!(action, StreamAction::Delay) {
            // Park the whole chunk; still advances the counter and stats.
            let _ = Self::mangle(&mut shared, link_c2s, &[]);
            drop(shared);
            self.delayed_tx = chunk;
            return Ok(buf.len());
        }
        let (pieces, die_tx) = Self::mangle(&mut shared, link_c2s, &chunk);
        // Server consumes the surviving pieces synchronously; its
        // responses run the server→client fault gauntlet into `rx`.
        let mut responses = Vec::new();
        let mut closed = false;
        for piece in pieces {
            let step = self.conn.feed(&piece, &mut shared.gateway);
            responses.extend_from_slice(&step.out);
            if step.close {
                closed = true;
                break;
            }
        }
        if closed {
            shared.stats.server_closes += 1;
        }
        let mut die_rx = false;
        // A previously delayed response rides in front of this one.
        let mut resp = std::mem::take(&mut self.delayed_rx);
        resp.extend_from_slice(&responses);
        if !resp.is_empty() {
            let link_s2c = self.client * 2 + 1;
            let action = stream_action(&shared.faults, link_s2c, {
                *shared.counters.get(&link_s2c).unwrap_or(&0)
            });
            if matches!(action, StreamAction::Delay) {
                let _ = Self::mangle(&mut shared, link_s2c, &[]);
                self.delayed_rx = resp;
            } else {
                let (pieces, die) = Self::mangle(&mut shared, link_s2c, &resp);
                die_rx = die;
                for p in pieces {
                    self.rx.extend_from_slice(&p);
                }
            }
        }
        drop(shared);
        if die_tx || die_rx || closed {
            self.broken = true;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Read for ShimConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.rx.is_empty() {
            // Surface pending bytes even on a broken connection (they
            // arrived before the reset), then report the reset.
            self.check_alive()?;
            return Err(io::Error::new(io::ErrorKind::WouldBlock, "shim rx empty"));
        }
        let n = buf.len().min(self.rx.len());
        buf[..n].copy_from_slice(&self.rx[..n]);
        self.rx.drain(..n);
        Ok(n)
    }
}
