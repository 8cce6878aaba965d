//! The gateway: a transport-agnostic front-end that turns wire frames
//! into [`PolicyServer`] calls.
//!
//! The gateway owns everything the wire layer adds on top of the policy
//! server, and nothing the policy server already owns:
//!
//! * **Idempotent submits.** Every submit carries a per-tenant sequence
//!   number; the gateway tracks the highest applied one and absorbs
//!   retransmits with a `Duplicate` ack instead of re-queueing them. This
//!   is what makes client retry loops safe: however many times a lossy
//!   transport forces a resend, the policy server sees each batch exactly
//!   once — which is the heart of the digest-equality argument in
//!   DESIGN.md §15.
//! * **Idempotent reads.** Decisions and notices live in bounded
//!   per-tenant mailboxes pruned by the fetch watermark, so a retried
//!   fetch after a lost response returns the same answer.
//! * **Resume tokens.** Hello acks carry an FNV-authenticated token
//!   minted from a secret seed; the seed travels in the state snapshot,
//!   so tokens remain valid across a kill/recover and a reconnecting
//!   tenant resumes the same session the snapshot restored.
//!
//! A [`Conn`] wraps one connection's byte stream around the gateway:
//! incremental frame reassembly, a read budget, Hello-binding (a
//! connection speaks for exactly one tenant), and typed `Reject` frames
//! instead of silent drops on every protocol violation.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use exec::WorkerPool;
use serve::{Decision, PolicyServer, ServerConfig};
use snapshot::{envelope, fnv1a64, ContainerReader, ContainerWriter, SnapError};

use crate::frame::{
    encode_frame, limits, reject, Frame, FrameError, FrameReader, Notice, NoticeKind, ResumeToken,
    ServerInfo, WireOutcome,
};

/// Decisions retained per tenant mailbox before the oldest are dropped
/// (and counted — never silently).
pub const MAILBOX_CAP: usize = 256;
/// Notices retained per tenant mailbox.
pub const NOTICE_CAP: usize = 128;

/// Wire-layer counters, disjoint from the policy server's own stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Frames decoded and handled.
    pub frames_in: u64,
    /// Frames produced.
    pub frames_out: u64,
    /// Hello handshakes served.
    pub hellos: u64,
    /// Fresh submits applied to the policy server.
    pub submits: u64,
    /// Retransmits absorbed by the sequence-number dedupe.
    pub duplicates: u64,
    /// Fetches served.
    pub fetches: u64,
    /// Epoch ticks applied.
    pub ticks: u64,
    /// Ticks absorbed because the server was already past them.
    pub stale_ticks: u64,
    /// Reject frames sent.
    pub rejects: u64,
    /// Resume tokens that failed authentication.
    pub bad_tokens: u64,
    /// Mailbox decisions dropped to [`MAILBOX_CAP`].
    pub mail_dropped: u64,
    /// Notices dropped to [`NOTICE_CAP`].
    pub notices_dropped: u64,
}

/// The policy server plus the wire layer's session bookkeeping.
#[derive(Debug)]
pub struct Gateway {
    server: PolicyServer,
    /// Highest applied submit sequence number per tenant (0 = none).
    last_seq: BTreeMap<u64, u64>,
    /// Undelivered decisions per tenant, pruned by fetch watermark.
    mailbox: BTreeMap<u64, VecDeque<Decision>>,
    /// Undelivered notices per tenant.
    notices: BTreeMap<u64, VecDeque<Notice>>,
    /// Live/evicted sets after the last epoch, diffed to mint notices.
    seen_live: BTreeSet<u64>,
    seen_evicted: BTreeSet<u64>,
    /// Secret behind resume-token auth tags.
    token_seed: u64,
    /// Wire counters.
    pub stats: GatewayStats,
}

impl Gateway {
    /// A gateway over a fresh policy server. `pool` is passed through to
    /// [`PolicyServer::new`], which does not use it.
    pub fn new(cfg: ServerConfig, pool: Arc<WorkerPool>, token_seed: u64) -> Self {
        Gateway {
            server: PolicyServer::new(cfg, pool),
            last_seq: BTreeMap::new(),
            mailbox: BTreeMap::new(),
            notices: BTreeMap::new(),
            seen_live: BTreeSet::new(),
            seen_evicted: BTreeSet::new(),
            token_seed,
            stats: GatewayStats::default(),
        }
    }

    /// The wrapped policy server.
    pub fn server(&self) -> &PolicyServer {
        &self.server
    }

    /// The resume token this gateway mints for `tenant`.
    pub fn token_for(&self, tenant: u64) -> ResumeToken {
        let auth = fnv1a64(&[&self.token_seed.to_le_bytes(), &tenant.to_le_bytes()]);
        ResumeToken { tenant, auth }
    }

    fn token_valid(&self, token: &ResumeToken) -> bool {
        *token == self.token_for(token.tenant)
    }

    /// Identity and SLO counters for `Query`.
    pub fn info(&self) -> ServerInfo {
        let s = self.server.stats();
        let log = self.server.decision_log();
        ServerInfo {
            epoch: self.server.epoch(),
            digest: log.digest(),
            digest_count: log.count(),
            live: self.server.live_tenants() as u64,
            evicted: self.server.evicted_tenants() as u64,
            admitted: s.admitted,
            lost_tenants: s.lost_tenants,
            cap_epochs_missed: s.cap_epochs_missed,
            shed_total: self.server.shed_stats().total(),
            mail_dropped: self.stats.mail_dropped,
        }
    }

    /// Handles one decoded frame, producing the response frames. `bound`
    /// is the tenant the connection authenticated as via Hello, if any;
    /// data-plane frames for other tenants are rejected.
    pub fn handle(&mut self, frame: Frame, bound: &mut Option<u64>) -> Vec<Frame> {
        self.stats.frames_in += 1;
        let out = match frame {
            Frame::Hello { tenant, tier: _, resume } => {
                if let Some(token) = resume {
                    if !self.token_valid(&token) || token.tenant != tenant {
                        self.stats.bad_tokens += 1;
                        self.stats.rejects += 1;
                        return vec![Frame::Reject {
                            code: reject::BAD_TOKEN,
                            detail: format!("resume token for tenant {tenant} failed auth"),
                        }];
                    }
                } else if self.last_seq.contains_key(&tenant) {
                    // A tenant the gateway has history for must prove
                    // identity; a bare Hello cannot hijack the session.
                    self.stats.rejects += 1;
                    return vec![Frame::Reject {
                        code: reject::BAD_TOKEN,
                        detail: format!("tenant {tenant} has a session; resume token required"),
                    }];
                }
                self.stats.hellos += 1;
                *bound = Some(tenant);
                let last_seq = self.last_seq.get(&tenant).copied().unwrap_or(0);
                let resumed = last_seq != 0;
                vec![Frame::HelloAck {
                    epoch: self.server.epoch(),
                    last_seq,
                    resumed,
                    token: self.token_for(tenant),
                }]
            }
            Frame::Submit { seq, batch } => {
                let Some(tenant) = *bound else {
                    self.stats.rejects += 1;
                    return vec![Frame::Reject {
                        code: reject::NOT_BOUND,
                        detail: "submit before hello".into(),
                    }];
                };
                if batch.tenant != tenant {
                    self.stats.rejects += 1;
                    return vec![Frame::Reject {
                        code: reject::WRONG_TENANT,
                        detail: format!(
                            "connection bound to tenant {tenant}, batch names {}",
                            batch.tenant
                        ),
                    }];
                }
                let applied = self.last_seq.entry(tenant).or_insert(0);
                if seq <= *applied {
                    self.stats.duplicates += 1;
                    vec![Frame::SubmitAck { seq, outcome: WireOutcome::Duplicate }]
                } else {
                    *applied = seq;
                    self.stats.submits += 1;
                    let outcome: WireOutcome = self.server.submit(batch).into();
                    vec![Frame::SubmitAck { seq, outcome }]
                }
            }
            Frame::Fetch { tenant, since_epoch } => {
                let Some(b) = *bound else {
                    self.stats.rejects += 1;
                    return vec![Frame::Reject {
                        code: reject::NOT_BOUND,
                        detail: "fetch before hello".into(),
                    }];
                };
                if tenant != b {
                    self.stats.rejects += 1;
                    return vec![Frame::Reject {
                        code: reject::WRONG_TENANT,
                        detail: format!("connection bound to tenant {b}, fetch names {tenant}"),
                    }];
                }
                self.stats.fetches += 1;
                let decisions = match self.mailbox.get_mut(&tenant) {
                    Some(q) => {
                        while q.front().is_some_and(|d| d.epoch < since_epoch) {
                            q.pop_front();
                        }
                        q.iter().copied().take(limits::MAX_DECISIONS).collect()
                    }
                    None => Vec::new(),
                };
                let notices = match self.notices.get_mut(&tenant) {
                    Some(q) => {
                        while q.front().is_some_and(|n| n.epoch < since_epoch) {
                            q.pop_front();
                        }
                        q.iter().copied().take(limits::MAX_NOTICES).collect()
                    }
                    None => Vec::new(),
                };
                vec![Frame::Decisions { epoch: self.server.epoch(), decisions, notices }]
            }
            Frame::Tick { expect_epoch } => {
                if self.server.epoch() == expect_epoch {
                    self.run_epoch();
                    self.stats.ticks += 1;
                } else {
                    self.stats.stale_ticks += 1;
                }
                vec![Frame::TickAck { epoch: self.server.epoch() }]
            }
            Frame::Query => vec![Frame::Info(self.info())],
            Frame::Bye => Vec::new(),
            // Server-to-client frames arriving at the server are protocol
            // violations from a confused or hostile peer.
            Frame::HelloAck { .. }
            | Frame::SubmitAck { .. }
            | Frame::Decisions { .. }
            | Frame::TickAck { .. }
            | Frame::Info(_)
            | Frame::Reject { .. } => {
                self.stats.rejects += 1;
                vec![Frame::Reject {
                    code: reject::MALFORMED,
                    detail: "response frame sent to server".into(),
                }]
            }
        };
        self.stats.frames_out += out.len() as u64;
        out
    }

    /// Runs one policy-server epoch and distributes the decisions and the
    /// admission/eviction churn into per-tenant mailboxes.
    pub fn run_epoch(&mut self) -> usize {
        let decisions = self.server.run_epoch();
        let n = decisions.len();
        let epoch = decisions.first().map(|d| d.epoch).unwrap_or_else(|| self.server.epoch());
        for d in decisions {
            let q = self.mailbox.entry(d.tenant).or_default();
            q.push_back(d);
            if q.len() > MAILBOX_CAP {
                q.pop_front();
                self.stats.mail_dropped += 1;
            }
        }
        let live: BTreeSet<u64> = self.server.live_ids().into_iter().collect();
        let evicted: BTreeSet<u64> = self.server.evicted_ids().into_iter().collect();
        let push = |gw_notices: &mut BTreeMap<u64, VecDeque<Notice>>,
                    dropped: &mut u64,
                    t: u64,
                    kind: NoticeKind| {
            let q = gw_notices.entry(t).or_default();
            q.push_back(Notice { epoch, kind });
            if q.len() > NOTICE_CAP {
                q.pop_front();
                *dropped += 1;
            }
        };
        for &t in &live {
            if self.seen_evicted.contains(&t) {
                push(&mut self.notices, &mut self.stats.notices_dropped, t, NoticeKind::Restored);
            } else if !self.seen_live.contains(&t) {
                push(&mut self.notices, &mut self.stats.notices_dropped, t, NoticeKind::Admitted);
            }
        }
        for &t in &evicted {
            if !self.seen_evicted.contains(&t) {
                push(&mut self.notices, &mut self.stats.notices_dropped, t, NoticeKind::Evicted);
            }
        }
        self.seen_live = live;
        self.seen_evicted = evicted;
        n
    }

    /// Serializes the gateway — policy server, dedupe map, mailboxes,
    /// churn sets, and token seed — into one CRC-checked container.
    /// Restoring with [`Gateway::load_state`] continues the decision
    /// stream bit-exactly and keeps every outstanding resume token valid.
    pub fn save_state(&mut self) -> Vec<u8> {
        let server_bytes = self.server.save_state();
        let mut cw = ContainerWriter::new();
        cw.section("wire-server", |w| w.put_bytes(&server_bytes));
        let last_seq = &self.last_seq;
        let token_seed = self.token_seed;
        cw.section("wire-sessions", |w| {
            w.put_u64(token_seed);
            w.put_usize(last_seq.len());
            for (&t, &s) in last_seq {
                w.put_u64(t);
                w.put_u64(s);
            }
        });
        let mailbox = &self.mailbox;
        cw.section("wire-mailbox", |w| {
            w.put_usize(mailbox.len());
            for (&t, q) in mailbox {
                w.put_u64(t);
                w.put_usize(q.len());
                for d in q {
                    w.put_u64(d.epoch);
                    w.put_u64(d.tenant);
                    w.put_u32(d.freq_mhz);
                    w.put_u8(d.rung.tag());
                    w.put_f64(d.predicted);
                }
            }
        });
        let notices = &self.notices;
        cw.section("wire-notices", |w| {
            w.put_usize(notices.len());
            for (&t, q) in notices {
                w.put_u64(t);
                w.put_usize(q.len());
                for n in q {
                    w.put_u64(n.epoch);
                    w.put_u8(match n.kind {
                        NoticeKind::Admitted => 0,
                        NoticeKind::Evicted => 1,
                        NoticeKind::Restored => 2,
                    });
                }
            }
        });
        let (seen_live, seen_evicted) = (&self.seen_live, &self.seen_evicted);
        cw.section("wire-churn", |w| {
            w.put_usize(seen_live.len());
            for &t in seen_live {
                w.put_u64(t);
            }
            w.put_usize(seen_evicted.len());
            for &t in seen_evicted {
                w.put_u64(t);
            }
        });
        cw.finish()
    }

    /// Rebuilds a gateway from [`Gateway::save_state`] bytes.
    pub fn load_state(bytes: &[u8]) -> Result<Self, SnapError> {
        use serve::Rung;
        let cr = ContainerReader::parse(bytes)?;
        let mut r = cr.section("wire-server")?;
        let server = PolicyServer::load_state(r.take_bytes()?)?;
        r.finish()?;

        let mut r = cr.section("wire-sessions")?;
        let token_seed = r.take_u64()?;
        let n = r.take_usize()?;
        let mut last_seq = BTreeMap::new();
        for _ in 0..n {
            let t = r.take_u64()?;
            last_seq.insert(t, r.take_u64()?);
        }
        r.finish()?;

        let mut r = cr.section("wire-mailbox")?;
        let n = r.take_usize()?;
        let mut mailbox: BTreeMap<u64, VecDeque<Decision>> = BTreeMap::new();
        for _ in 0..n {
            let t = r.take_u64()?;
            let m = r.take_usize()?;
            let mut q = VecDeque::with_capacity(m.min(MAILBOX_CAP));
            for _ in 0..m {
                let epoch = r.take_u64()?;
                let tenant = r.take_u64()?;
                let freq_mhz = r.take_u32()?;
                let rung = match r.take_u8()? {
                    0 => Rung::Normal,
                    1 => Rung::Hold,
                    2 => Rung::Stall,
                    3 => Rung::Safe,
                    v => return Err(SnapError::Invalid(format!("bad rung tag {v}"))),
                };
                let predicted = r.take_f64()?;
                q.push_back(Decision { epoch, tenant, freq_mhz, rung, predicted });
            }
            mailbox.insert(t, q);
        }
        r.finish()?;

        let mut r = cr.section("wire-notices")?;
        let n = r.take_usize()?;
        let mut notices: BTreeMap<u64, VecDeque<Notice>> = BTreeMap::new();
        for _ in 0..n {
            let t = r.take_u64()?;
            let m = r.take_usize()?;
            let mut q = VecDeque::with_capacity(m.min(NOTICE_CAP));
            for _ in 0..m {
                let epoch = r.take_u64()?;
                let kind = match r.take_u8()? {
                    0 => NoticeKind::Admitted,
                    1 => NoticeKind::Evicted,
                    2 => NoticeKind::Restored,
                    v => return Err(SnapError::Invalid(format!("bad notice tag {v}"))),
                };
                q.push_back(Notice { epoch, kind });
            }
            notices.insert(t, q);
        }
        r.finish()?;

        let mut r = cr.section("wire-churn")?;
        let n = r.take_usize()?;
        let mut seen_live = BTreeSet::new();
        for _ in 0..n {
            seen_live.insert(r.take_u64()?);
        }
        let n = r.take_usize()?;
        let mut seen_evicted = BTreeSet::new();
        for _ in 0..n {
            seen_evicted.insert(r.take_u64()?);
        }
        r.finish()?;

        Ok(Gateway {
            server,
            last_seq,
            mailbox,
            notices,
            seen_live,
            seen_evicted,
            token_seed,
            stats: GatewayStats::default(),
        })
    }
}

/// What one [`Conn::feed`] produced: response bytes and whether the
/// connection must now close.
#[derive(Debug, Default)]
pub struct ConnStep {
    /// Encoded response frames to write back.
    pub out: Vec<u8>,
    /// The connection is done (Bye, protocol violation, or framing
    /// error); the caller should flush `out` and drop the transport.
    pub close: bool,
}

/// Per-connection server state: incremental frame reassembly, the
/// Hello-bound tenant, and the read budget.
#[derive(Debug)]
pub struct Conn {
    reader: FrameReader,
    bound: Option<u64>,
    budget: usize,
}

impl Default for Conn {
    fn default() -> Self {
        Conn::new()
    }
}

impl Conn {
    /// A fresh connection with the default read budget (one max-size
    /// frame plus envelope overhead).
    pub fn new() -> Self {
        Conn {
            reader: FrameReader::new(),
            bound: None,
            budget: limits::MAX_PAYLOAD + envelope::HEADER_LEN + envelope::CRC_LEN,
        }
    }

    /// The tenant this connection authenticated as, if any.
    pub fn bound(&self) -> Option<u64> {
        self.bound
    }

    /// Feeds received bytes through the gateway, producing response
    /// bytes. Framing errors and budget overruns produce a typed
    /// `Reject` (a shed response, not a silent drop) and close.
    pub fn feed(&mut self, bytes: &[u8], gw: &mut Gateway) -> ConnStep {
        let mut step = ConnStep::default();
        self.reader.push(bytes);
        if self.reader.buffered() > self.budget {
            gw.stats.rejects += 1;
            step.out.extend_from_slice(&encode_frame(&Frame::Reject {
                code: reject::BUDGET,
                detail: format!("read budget {} exhausted without a complete frame", self.budget),
            }));
            step.close = true;
            return step;
        }
        loop {
            match self.reader.next_frame() {
                Ok(Some(Frame::Bye)) => {
                    step.close = true;
                    return step;
                }
                Ok(Some(frame)) => {
                    for f in gw.handle(frame, &mut self.bound) {
                        let close = matches!(f, Frame::Reject { .. });
                        step.out.extend_from_slice(&encode_frame(&f));
                        if close {
                            step.close = true;
                            return step;
                        }
                    }
                }
                Ok(None) => return step,
                Err(e) => {
                    gw.stats.rejects += 1;
                    step.out.extend_from_slice(&encode_frame(&Frame::Reject {
                        code: reject::MALFORMED,
                        detail: truncate_detail(&e),
                    }));
                    step.close = true;
                    return step;
                }
            }
        }
    }
}

/// Reject detail text, bounded so a hostile frame cannot reflect
/// arbitrary volume back through the error path.
fn truncate_detail(e: &FrameError) -> String {
    let mut s = e.to_string();
    s.truncate(limits::MAX_DETAIL);
    s
}
