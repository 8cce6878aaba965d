//! The resilient client: reliable request/response over an unreliable
//! byte stream.
//!
//! [`Client`] is generic over any `Read + Write` transport plus a dialer
//! that can mint a fresh one — an in-process [`crate::shim::ShimConn`]
//! for deterministic chaos runs, a `TcpStream` for real loopback. Every
//! operation is a bounded retry loop:
//!
//! 1. Ensure a connection exists (dial + `Hello`/`HelloAck` handshake,
//!    presenting the resume token from the previous connection; backoff
//!    between attempts comes from seeded [`supervise::Backoff`] draws and
//!    a per-connection [`supervise::CircuitBreaker`] forces a full redial
//!    after repeated failures).
//! 2. Send the request, then drain response frames until the matching
//!    reply appears. `WouldBlock`/`TimedOut` means "no answer yet" —
//!    resend; any other I/O error or a framing error drops the
//!    connection and goes back to 1.
//!
//! Safety across retries comes from the protocol, not the transport:
//! submits carry a per-tenant sequence number the gateway dedupes,
//! fetches and ticks are idempotent by construction, and the
//! `HelloAck.last_seq` resync means a retransmit whose original ack died
//! on the wire is recognized as already applied instead of re-queued.

use std::io::{self, Read, Write};

use serve::{Decision, TelemetryBatch};
use supervise::{edge, Backoff, CircuitBreaker};

use crate::frame::{
    encode_frame, Frame, FrameReader, Notice, ResumeToken, ServerInfo, WireOutcome,
};

/// Client-side resilience accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientReport {
    /// Successful dials (the first connect counts too).
    pub connects: u64,
    /// Reconnects after a lost connection.
    pub reconnects: u64,
    /// Dial attempts that failed.
    pub dial_failures: u64,
    /// Requests retransmitted.
    pub retries: u64,
    /// Responses that failed frame decoding.
    pub frame_errors: u64,
    /// Hard I/O errors (reset, refused, EOF).
    pub io_errors: u64,
    /// `Reject` frames received.
    pub rejects: u64,
    /// Retransmits the server acked as duplicates.
    pub duplicate_acks: u64,
    /// Submits recognized as applied via `HelloAck.last_seq` resync.
    pub resync_acks: u64,
    /// Circuit-breaker trips (each forces a redial).
    pub breaker_trips: u64,
    /// Total backoff delay drawn, in milliseconds (slept only when the
    /// transport is a real socket; recorded either way).
    pub backoff_ms: u64,
}

impl ClientReport {
    /// Field-wise sum, for rolling a fleet's clients into one report.
    pub fn merge(&mut self, other: &ClientReport) {
        self.connects += other.connects;
        self.reconnects += other.reconnects;
        self.dial_failures += other.dial_failures;
        self.retries += other.retries;
        self.frame_errors += other.frame_errors;
        self.io_errors += other.io_errors;
        self.rejects += other.rejects;
        self.duplicate_acks += other.duplicate_acks;
        self.resync_acks += other.resync_acks;
        self.breaker_trips += other.breaker_trips;
        self.backoff_ms += other.backoff_ms;
    }
}

/// A retry budget ran out. The operation that failed, the attempts made,
/// and the last error seen — the caller decides whether that is an SLO
/// violation (the chaos soak treats it as one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exhausted {
    /// What was being attempted.
    pub op: &'static str,
    /// Attempts made.
    pub attempts: u32,
    /// Human-readable last failure.
    pub last: String,
}

impl std::fmt::Display for Exhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} exhausted {} attempts (last: {})", self.op, self.attempts, self.last)
    }
}

impl std::error::Error for Exhausted {}

/// Tuning for the retry loops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientConfig {
    /// Attempts per operation before giving up.
    pub max_attempts: u32,
    /// Seeded backoff schedule between reconnect attempts.
    pub backoff: Backoff,
    /// Seed for backoff draws (folded with the tenant id).
    pub seed: u64,
    /// Consecutive failures before the per-connection breaker opens and
    /// forces a redial.
    pub breaker_threshold: u32,
    /// Whether backoff delays actually sleep (real sockets) or are only
    /// recorded (the deterministic shim).
    pub sleep: bool,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            max_attempts: 64,
            backoff: Backoff { base_ms: 1, cap_ms: 50 },
            seed: 0,
            breaker_threshold: 4,
            sleep: false,
        }
    }
}

/// A resilient wire client for one tenant.
pub struct Client<T: Read + Write> {
    dial: Box<dyn FnMut() -> io::Result<T>>,
    conn: Option<(T, FrameReader)>,
    tenant: u64,
    tier: u8,
    cfg: ClientConfig,
    token: Option<ResumeToken>,
    /// Sequence number of the next fresh submit.
    next_seq: u64,
    /// Highest sequence number the server has confirmed applied.
    acked_seq: u64,
    breaker: CircuitBreaker<&'static str>,
    /// Resilience counters.
    pub report: ClientReport,
}

impl<T: Read + Write> std::fmt::Debug for Client<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("tenant", &self.tenant)
            .field("connected", &self.conn.is_some())
            .finish_non_exhaustive()
    }
}

const BREAKER_KEY: &str = "conn";

/// Why one round of an exchange failed.
enum WireFail {
    /// The transport had no (more) bytes: the response may be lost or
    /// still in flight. The connection stays; the resend is idempotent.
    NoResponse,
    /// The server refused the request (and will close the connection).
    Rejected { code: u8, detail: String },
    /// The connection is dead or its stream is poisoned.
    Dead(String),
}

impl WireFail {
    fn describe(&self) -> String {
        match self {
            WireFail::NoResponse => "no response".into(),
            WireFail::Rejected { code, detail } => format!("rejected ({code}): {detail}"),
            WireFail::Dead(e) => e.clone(),
        }
    }
}

impl<T: Read + Write> Client<T> {
    /// A client for `tenant` submitting at `tier`, dialing transports
    /// from `dial`.
    pub fn new(
        tenant: u64,
        tier: u8,
        cfg: ClientConfig,
        dial: impl FnMut() -> io::Result<T> + 'static,
    ) -> Self {
        Client {
            dial: Box::new(dial),
            conn: None,
            tenant,
            tier,
            cfg,
            token: None,
            next_seq: 1,
            acked_seq: 0,
            breaker: CircuitBreaker::new(cfg.breaker_threshold),
            report: ClientReport::default(),
        }
    }

    /// The tenant this client speaks for.
    pub fn tenant(&self) -> u64 {
        self.tenant
    }

    /// Re-targets the client at a new dialer — a restarted server on a
    /// different address — keeping the resume token, sequence state, and
    /// accumulated report so the session continues rather than restarts.
    pub fn rebind(self, cfg: ClientConfig, dial: impl FnMut() -> io::Result<T> + 'static) -> Self {
        Client {
            dial: Box::new(dial),
            conn: None,
            cfg,
            breaker: CircuitBreaker::new(cfg.breaker_threshold),
            ..self
        }
    }

    fn backoff(&mut self, attempt: u32) {
        let ms = self.cfg.backoff.delay_ms(self.cfg.seed, self.tenant, attempt);
        self.report.backoff_ms += ms;
        if self.cfg.sleep && ms > 0 {
            edge::sleep_ms(ms);
        }
    }

    fn drop_conn(&mut self) {
        self.conn = None;
        if self.breaker.record_failure(&BREAKER_KEY) {
            self.report.breaker_trips += 1;
        }
    }

    /// Dials and handshakes until connected. The breaker being open
    /// means the previous connection lineage is distrusted: the old
    /// transport is dropped and a fresh dial must succeed to close it.
    fn ensure_conn(&mut self, attempt: u32) -> Result<(), WireFail> {
        if self.conn.is_some() && !self.breaker.is_open(&BREAKER_KEY) {
            return Ok(());
        }
        self.conn = None;
        self.backoff(attempt);
        let mut t = match (self.dial)() {
            Ok(t) => t,
            Err(e) => {
                self.report.dial_failures += 1;
                return Err(WireFail::Dead(format!("dial: {e}")));
            }
        };
        let hello = Frame::Hello { tenant: self.tenant, tier: self.tier, resume: self.token };
        if let Err(e) = t.write_all(&encode_frame(&hello)) {
            self.report.io_errors += 1;
            return Err(WireFail::Dead(format!("hello write: {e}")));
        }
        let mut reader = FrameReader::new();
        match Self::await_response(&mut t, &mut reader, &mut self.report, |f| {
            matches!(f, Frame::HelloAck { .. })
        }) {
            Ok(Frame::HelloAck { last_seq, token, .. }) => {
                self.token = Some(token);
                if last_seq > self.acked_seq {
                    self.acked_seq = last_seq;
                }
                self.breaker.record_success(&BREAKER_KEY);
                self.report.connects += 1;
                if self.report.connects > 1 {
                    self.report.reconnects += 1;
                }
                self.conn = Some((t, reader));
                Ok(())
            }
            Ok(_) => unreachable!("await_response only returns wanted frames"),
            Err(WireFail::Rejected { code, detail }) => {
                // A token the server no longer honors must not wedge the
                // client forever; retry fresh.
                if code == crate::frame::reject::BAD_TOKEN {
                    self.token = None;
                }
                Err(WireFail::Rejected { code, detail })
            }
            Err(e) => Err(e),
        }
    }

    /// Reads frames until `want` matches one, the server rejects, "no
    /// more bytes" (soft timeout), or a hard error. Frames that match
    /// nothing — stale acks from a past exchange, notices — are skipped.
    fn await_response(
        t: &mut T,
        reader: &mut FrameReader,
        report: &mut ClientReport,
        want: impl Fn(&Frame) -> bool,
    ) -> Result<Frame, WireFail> {
        let mut chunk = [0u8; 4096];
        loop {
            loop {
                match reader.next_frame() {
                    Ok(Some(f)) if want(&f) => return Ok(f),
                    Ok(Some(Frame::Reject { code, detail })) => {
                        report.rejects += 1;
                        return Err(WireFail::Rejected { code, detail });
                    }
                    Ok(Some(_)) => continue,
                    Ok(None) => break,
                    Err(e) => {
                        report.frame_errors += 1;
                        return Err(WireFail::Dead(format!("frame: {e}")));
                    }
                }
            }
            match t.read(&mut chunk) {
                Ok(0) => {
                    report.io_errors += 1;
                    return Err(WireFail::Dead("connection closed".into()));
                }
                Ok(n) => reader.push(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Err(WireFail::NoResponse);
                }
                Err(e) => {
                    report.io_errors += 1;
                    return Err(WireFail::Dead(format!("read: {e}")));
                }
            }
        }
    }

    /// One request/response exchange over the current connection.
    fn exchange(&mut self, req: &Frame, want: impl Fn(&Frame) -> bool) -> Result<Frame, WireFail> {
        let Some((t, reader)) = self.conn.as_mut() else {
            return Err(WireFail::Dead("not connected".into()));
        };
        if let Err(e) = t.write_all(&encode_frame(req)) {
            self.report.io_errors += 1;
            return Err(WireFail::Dead(format!("write: {e}")));
        }
        Self::await_response(t, reader, &mut self.report, want)
    }

    /// The bounded retry loop every public operation runs through.
    fn reliable(
        &mut self,
        op: &'static str,
        mut round: impl FnMut(&mut Self) -> Result<Frame, WireFail>,
    ) -> Result<Frame, Exhausted> {
        let mut last = String::from("never attempted");
        for attempt in 0..self.cfg.max_attempts {
            if attempt > 0 {
                self.report.retries += 1;
            }
            match self.ensure_conn(attempt).and_then(|()| round(self)) {
                Ok(f) => return Ok(f),
                Err(e) => {
                    match e {
                        // The ack may be in flight or lost; the resend is
                        // idempotent, so keep the connection but let the
                        // breaker count the silence.
                        WireFail::NoResponse => {
                            if self.breaker.record_failure(&BREAKER_KEY) {
                                self.report.breaker_trips += 1;
                            }
                        }
                        WireFail::Rejected { .. } | WireFail::Dead(_) => self.drop_conn(),
                    }
                    last = e.describe();
                }
            }
        }
        Err(Exhausted { op, attempts: self.cfg.max_attempts, last })
    }

    /// Reliably submits one telemetry batch. Returns the server's
    /// disposition — which may be a shed signal (backpressure) or
    /// `Duplicate` when a retransmit raced a lost ack.
    pub fn submit(&mut self, records: TelemetryBatch) -> Result<WireOutcome, Exhausted> {
        let seq = self.next_seq;
        let req = Frame::Submit { seq, batch: records };
        let result = self.reliable("submit", |c| {
            // The handshake may have revealed the in-flight submit was
            // already applied (ack died with the old connection).
            if c.acked_seq >= seq {
                c.report.resync_acks += 1;
                return Ok(Frame::SubmitAck { seq, outcome: WireOutcome::Duplicate });
            }
            c.exchange(&req, |f| matches!(f, Frame::SubmitAck { seq: s, .. } if *s == seq))
        })?;
        let Frame::SubmitAck { outcome, .. } = result else { unreachable!() };
        if outcome == WireOutcome::Duplicate {
            self.report.duplicate_acks += 1;
        }
        self.acked_seq = seq;
        self.next_seq = seq + 1;
        Ok(outcome)
    }

    /// Reliably fetches decisions and notices with epoch ≥ `since_epoch`.
    pub fn fetch(
        &mut self,
        since_epoch: u64,
    ) -> Result<(u64, Vec<Decision>, Vec<Notice>), Exhausted> {
        let req = Frame::Fetch { tenant: self.tenant, since_epoch };
        let result =
            self.reliable("fetch", |c| c.exchange(&req, |f| matches!(f, Frame::Decisions { .. })))?;
        let Frame::Decisions { epoch, decisions, notices } = result else { unreachable!() };
        Ok((epoch, decisions, notices))
    }

    /// Reliably ticks the server past `expect_epoch` (idempotent: if the
    /// server already stepped, the ack confirms without re-stepping).
    pub fn tick(&mut self, expect_epoch: u64) -> Result<u64, Exhausted> {
        let req = Frame::Tick { expect_epoch };
        let result =
            self.reliable("tick", |c| c.exchange(&req, |f| matches!(f, Frame::TickAck { .. })))?;
        let Frame::TickAck { epoch } = result else { unreachable!() };
        Ok(epoch)
    }

    /// Reliably queries server identity and SLO counters.
    pub fn query(&mut self) -> Result<ServerInfo, Exhausted> {
        let result =
            self.reliable("query", |c| c.exchange(&Frame::Query, |f| matches!(f, Frame::Info(_))))?;
        let Frame::Info(info) = result else { unreachable!() };
        Ok(info)
    }

    /// Sends an orderly close; best-effort.
    pub fn bye(&mut self) {
        if let Some((t, _)) = self.conn.as_mut() {
            let _ = t.write_all(&encode_frame(&Frame::Bye));
        }
        self.conn = None;
    }
}
