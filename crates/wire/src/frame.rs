//! The PCWR frame codec: the policy server's request/response surface
//! inside the shared [`snapshot::envelope`] (`PCWR` magic, version,
//! length, CRC-32).
//!
//! The payload is `type:u8 | fields…`, fields LEB128 unless noted. The
//! CRC covers the whole payload including the type byte, so a single
//! flipped bit anywhere past the fixed header is caught by the checksum
//! rather than by whatever the misdecoded field happens to mean. Every
//! parse failure is a typed [`FrameError`] naming the byte offset and
//! field. Declared lengths and element counts are checked against hard
//! [`limits`] *before* any count-sized allocation, so a CRC-valid
//! adversarial payload cannot make the decoder balloon.

use serve::{Decision, Rung, SubmitOutcome, TelemetryBatch, TenantRecord};
use snapshot::codec::Encoder;
use snapshot::envelope::{self, Fields};

/// Everything that can go wrong decoding a frame: the shared envelope
/// error, under the name the wire layer has always exported.
pub use snapshot::envelope::EnvelopeError as FrameError;

/// Magic bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"PCWR";
/// Current payload-layout version.
pub const VERSION: u16 = 1;
/// Payload-layout versions this parser understands.
pub const SUPPORTED_VERSIONS: [u16; 1] = [1];

/// Hard limits applied before any count-sized allocation. A frame that
/// declares more than these is rejected with [`FrameError::Field`] while
/// the decoder has still allocated nothing.
pub mod limits {
    /// Maximum payload bytes per frame (also the per-connection read
    /// budget unit: a peer that streams more than one frame's worth of
    /// bytes without completing a frame is cut off).
    pub const MAX_PAYLOAD: usize = 1 << 20;
    /// Maximum telemetry records in one submit.
    pub const MAX_RECORDS: usize = 4096;
    /// Maximum decisions in one fetch response.
    pub const MAX_DECISIONS: usize = 4096;
    /// Maximum notices in one fetch response.
    pub const MAX_NOTICES: usize = 1024;
    /// Maximum bytes of reject detail text.
    pub const MAX_DETAIL: usize = 1024;
}

/// An opaque credential a reconnecting tenant presents to prove it is the
/// session it claims to be. Issued in every [`Frame::HelloAck`]; the
/// `auth` field is an FNV-1a tag over the server's secret seed and the
/// tenant id, so a token minted by one gateway lineage (including its
/// snapshot-restored descendants, which carry the seed forward) validates
/// against all of it and nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeToken {
    /// Tenant the token speaks for.
    pub tenant: u64,
    /// Server-minted authenticity tag.
    pub auth: u64,
}

/// Reject codes carried by [`Frame::Reject`].
pub mod reject {
    /// Peer sent bytes that failed frame decoding.
    pub const MALFORMED: u8 = 1;
    /// Data-plane request on a connection that never said Hello.
    pub const NOT_BOUND: u8 = 2;
    /// Request for a tenant other than the one the connection is bound to.
    pub const WRONG_TENANT: u8 = 3;
    /// Resume token failed authentication.
    pub const BAD_TOKEN: u8 = 4;
    /// Server at its connection cap — shed, not silently dropped.
    pub const BUSY: u8 = 5;
    /// Per-connection read budget exhausted without a complete frame.
    pub const BUDGET: u8 = 6;
}

/// What happened to a submitted batch, as reported on the wire. Mirrors
/// [`serve::SubmitOutcome`] plus the wire-only `Duplicate` (the gateway
/// absorbed a retransmit without re-queueing it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireOutcome {
    /// Queued for the next epoch.
    Accepted,
    /// Server full, nothing lower-priority to evict: batch dropped and
    /// counted (backpressure signal, not a silent drop).
    ShedIncoming,
    /// Queued by shedding a lower-priority victim.
    ShedQueued {
        /// Tier the victim batch sat in.
        tier: u8,
        /// Tenant whose batch was shed.
        tenant: u64,
    },
    /// Retransmit of an already-applied sequence number; absorbed.
    Duplicate,
}

impl From<SubmitOutcome> for WireOutcome {
    fn from(o: SubmitOutcome) -> Self {
        match o {
            SubmitOutcome::Accepted => WireOutcome::Accepted,
            SubmitOutcome::ShedIncoming => WireOutcome::ShedIncoming,
            SubmitOutcome::ShedQueued { tier, tenant } => WireOutcome::ShedQueued { tier, tenant },
        }
    }
}

/// Kinds of admission/eviction notices pushed to a tenant's mailbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoticeKind {
    /// Tenant admitted for the first time.
    Admitted,
    /// Tenant evicted into a container the server holds.
    Evicted,
    /// Evicted tenant restored bit-exactly from its container.
    Restored,
}

/// One admission/eviction notice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Notice {
    /// Epoch the transition happened in.
    pub epoch: u64,
    /// What happened.
    pub kind: NoticeKind,
}

/// Server identity and SLO counters returned by [`Frame::Query`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerInfo {
    /// Epochs the server has run.
    pub epoch: u64,
    /// Decision-log FNV digest (the cross-transport equality witness).
    pub digest: u64,
    /// Decisions behind the digest.
    pub digest_count: u64,
    /// Live tenants.
    pub live: u64,
    /// Evicted (stored) tenants.
    pub evicted: u64,
    /// Tenants ever admitted.
    pub admitted: u64,
    /// Tenants lost (SLO: must be zero).
    pub lost_tenants: u64,
    /// Epochs whose decisions missed the power cap (SLO: must be zero).
    pub cap_epochs_missed: u64,
    /// Batches shed by the ingest queues.
    pub shed_total: u64,
    /// Mailbox decisions dropped to the per-tenant cap (never silent).
    pub mail_dropped: u64,
}

/// One frame of the wire protocol — the full serve request/response
/// surface: session open/resume, telemetry submit, decision fetch,
/// admission/eviction notices, shed/backpressure signals, epoch control,
/// and introspection.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: open a session for `tenant`, optionally resuming
    /// with a previously issued token.
    Hello {
        /// Tenant the connection will speak for.
        tenant: u64,
        /// Priority tier the tenant submits at.
        tier: u8,
        /// Resume credential from a previous connection, if any.
        resume: Option<ResumeToken>,
    },
    /// Server → client: session open. `last_seq` is the highest submit
    /// sequence number the server has applied for this tenant — the
    /// client resynchronizes against it so a retransmit after a lost ack
    /// is recognized instead of re-queued.
    HelloAck {
        /// Server epoch at bind time.
        epoch: u64,
        /// Highest applied submit sequence number (0 = none).
        last_seq: u64,
        /// Whether the server already knew this tenant.
        resumed: bool,
        /// Fresh resume credential for the next reconnect.
        token: ResumeToken,
    },
    /// Client → server: one telemetry batch, tagged with a monotonically
    /// increasing per-tenant sequence number for idempotent retry.
    Submit {
        /// Per-tenant sequence number (first submit is 1).
        seq: u64,
        /// The telemetry.
        batch: TelemetryBatch,
    },
    /// Server → client: disposition of the submit with `seq`.
    SubmitAck {
        /// Echo of the submit's sequence number.
        seq: u64,
        /// What happened to the batch.
        outcome: WireOutcome,
    },
    /// Client → server: fetch decisions and notices with epoch ≥
    /// `since_epoch`. Idempotent: mailbox entries below the watermark are
    /// pruned, entries at or above it are returned and retained, so a
    /// retried fetch after a lost response sees the same answer.
    Fetch {
        /// Tenant whose mailbox to read.
        tenant: u64,
        /// Prune-and-return watermark.
        since_epoch: u64,
    },
    /// Server → client: mailbox contents. `epoch` is the server's current
    /// epoch, so an empty decision list with `epoch > since_epoch` means
    /// "genuinely none", not "not yet".
    Decisions {
        /// Server epoch when the fetch was served.
        epoch: u64,
        /// Decisions with epoch ≥ the fetch watermark.
        decisions: Vec<Decision>,
        /// Admission/eviction notices with epoch ≥ the fetch watermark.
        notices: Vec<Notice>,
    },
    /// Client → server: run one epoch if the server is currently at
    /// `expect_epoch` (idempotent tick: a retransmit after the step
    /// already happened acks without stepping again).
    Tick {
        /// Epoch the server must be at for the tick to fire.
        expect_epoch: u64,
    },
    /// Server → client: epoch after the (possibly absorbed) tick.
    TickAck {
        /// Current server epoch.
        epoch: u64,
    },
    /// Client → server: request a [`ServerInfo`].
    Query,
    /// Server → client: identity and SLO counters.
    Info(ServerInfo),
    /// Server → client: the request was refused. Sent before closing on
    /// protocol violations — a shed response, never a silent drop.
    Reject {
        /// One of the [`reject`] codes.
        code: u8,
        /// Human-readable detail.
        detail: String,
    },
    /// Client → server: orderly close.
    Bye,
}

mod tag {
    pub const HELLO: u8 = 0;
    pub const HELLO_ACK: u8 = 1;
    pub const SUBMIT: u8 = 2;
    pub const SUBMIT_ACK: u8 = 3;
    pub const FETCH: u8 = 4;
    pub const DECISIONS: u8 = 5;
    pub const TICK: u8 = 6;
    pub const TICK_ACK: u8 = 7;
    pub const QUERY: u8 = 8;
    pub const INFO: u8 = 9;
    pub const REJECT: u8 = 10;
    pub const BYE: u8 = 11;
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_token(w: &mut Encoder, t: &ResumeToken) {
    w.put_u64(t.tenant);
    w.put_u64(t.auth);
}

fn put_record(w: &mut Encoder, r: &TenantRecord) {
    w.put_u64(r.epoch);
    w.put_u32(r.pc);
    w.put_u32(r.next_pc);
    w.put_f64(r.committed);
    w.put_f64(r.async_frac);
    w.put_u32(r.f_obs_mhz);
}

fn put_decision(w: &mut Encoder, d: &Decision) {
    w.put_u64(d.epoch);
    w.put_u64(d.tenant);
    w.put_u32(d.freq_mhz);
    w.put_u8(d.rung.tag());
    w.put_f64(d.predicted);
}

/// Serializes `frame` into one complete envelope.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut w = Encoder::new();
    match frame {
        Frame::Hello { tenant, tier, resume } => {
            w.put_u8(tag::HELLO);
            w.put_u64(*tenant);
            w.put_u8(*tier);
            w.put_bool(resume.is_some());
            if let Some(t) = resume {
                put_token(&mut w, t);
            }
        }
        Frame::HelloAck { epoch, last_seq, resumed, token } => {
            w.put_u8(tag::HELLO_ACK);
            w.put_u64(*epoch);
            w.put_u64(*last_seq);
            w.put_bool(*resumed);
            put_token(&mut w, token);
        }
        Frame::Submit { seq, batch } => {
            w.put_u8(tag::SUBMIT);
            w.put_u64(*seq);
            w.put_u64(batch.tenant);
            w.put_u8(batch.tier);
            w.put_usize(batch.records.len());
            for r in &batch.records {
                put_record(&mut w, r);
            }
        }
        Frame::SubmitAck { seq, outcome } => {
            w.put_u8(tag::SUBMIT_ACK);
            w.put_u64(*seq);
            match outcome {
                WireOutcome::Accepted => w.put_u8(0),
                WireOutcome::ShedIncoming => w.put_u8(1),
                WireOutcome::ShedQueued { tier, tenant } => {
                    w.put_u8(2);
                    w.put_u8(*tier);
                    w.put_u64(*tenant);
                }
                WireOutcome::Duplicate => w.put_u8(3),
            }
        }
        Frame::Fetch { tenant, since_epoch } => {
            w.put_u8(tag::FETCH);
            w.put_u64(*tenant);
            w.put_u64(*since_epoch);
        }
        Frame::Decisions { epoch, decisions, notices } => {
            w.put_u8(tag::DECISIONS);
            w.put_u64(*epoch);
            w.put_usize(decisions.len());
            for d in decisions {
                put_decision(&mut w, d);
            }
            w.put_usize(notices.len());
            for n in notices {
                w.put_u64(n.epoch);
                w.put_u8(match n.kind {
                    NoticeKind::Admitted => 0,
                    NoticeKind::Evicted => 1,
                    NoticeKind::Restored => 2,
                });
            }
        }
        Frame::Tick { expect_epoch } => {
            w.put_u8(tag::TICK);
            w.put_u64(*expect_epoch);
        }
        Frame::TickAck { epoch } => {
            w.put_u8(tag::TICK_ACK);
            w.put_u64(*epoch);
        }
        Frame::Query => w.put_u8(tag::QUERY),
        Frame::Info(i) => {
            w.put_u8(tag::INFO);
            w.put_u64(i.epoch);
            w.put_u64(i.digest);
            w.put_u64(i.digest_count);
            w.put_u64(i.live);
            w.put_u64(i.evicted);
            w.put_u64(i.admitted);
            w.put_u64(i.lost_tenants);
            w.put_u64(i.cap_epochs_missed);
            w.put_u64(i.shed_total);
            w.put_u64(i.mail_dropped);
        }
        Frame::Reject { code, detail } => {
            w.put_u8(tag::REJECT);
            w.put_u8(*code);
            w.put_str(detail);
        }
        Frame::Bye => w.put_u8(tag::BYE),
    }
    let payload = w.into_bytes();
    debug_assert!(payload.len() <= limits::MAX_PAYLOAD);
    envelope::seal(MAGIC, VERSION, &payload)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

fn token(c: &mut Fields<'_>) -> Result<ResumeToken, FrameError> {
    Ok(ResumeToken { tenant: c.u64("token.tenant")?, auth: c.u64("token.auth")? })
}

fn decode_payload(payload: &[u8]) -> Result<Frame, FrameError> {
    let mut c = Fields::new(payload);
    let t = c.u8("frame type")?;
    let frame = match t {
        tag::HELLO => {
            let tenant = c.u64("hello.tenant")?;
            let tier = c.u8("hello.tier")?;
            let resume = if c.bool("hello.has_resume")? { Some(token(&mut c)?) } else { None };
            Frame::Hello { tenant, tier, resume }
        }
        tag::HELLO_ACK => Frame::HelloAck {
            epoch: c.u64("hello_ack.epoch")?,
            last_seq: c.u64("hello_ack.last_seq")?,
            resumed: c.bool("hello_ack.resumed")?,
            token: token(&mut c)?,
        },
        tag::SUBMIT => {
            let seq = c.u64("submit.seq")?;
            let tenant = c.u64("submit.tenant")?;
            let tier = c.u8("submit.tier")?;
            let n = c.count("submit.record count", limits::MAX_RECORDS)?;
            let mut records = Vec::with_capacity(n);
            for _ in 0..n {
                records.push(TenantRecord {
                    epoch: c.u64("record.epoch")?,
                    pc: c.u32("record.pc")?,
                    next_pc: c.u32("record.next_pc")?,
                    committed: c.f64("record.committed")?,
                    async_frac: c.f64("record.async_frac")?,
                    f_obs_mhz: c.u32("record.f_obs_mhz")?,
                });
            }
            Frame::Submit { seq, batch: TelemetryBatch { tenant, tier, records } }
        }
        tag::SUBMIT_ACK => {
            let seq = c.u64("submit_ack.seq")?;
            let offset = c.offset();
            let outcome = match c.u8("submit_ack.outcome")? {
                0 => WireOutcome::Accepted,
                1 => WireOutcome::ShedIncoming,
                2 => WireOutcome::ShedQueued {
                    tier: c.u8("submit_ack.shed_tier")?,
                    tenant: c.u64("submit_ack.shed_tenant")?,
                },
                3 => WireOutcome::Duplicate,
                v => {
                    let why = format!("unknown outcome tag {v}");
                    return Err(FrameError::field("submit_ack.outcome", offset, why));
                }
            };
            Frame::SubmitAck { seq, outcome }
        }
        tag::FETCH => Frame::Fetch {
            tenant: c.u64("fetch.tenant")?,
            since_epoch: c.u64("fetch.since_epoch")?,
        },
        tag::DECISIONS => {
            let epoch = c.u64("decisions.epoch")?;
            let n = c.count("decisions.count", limits::MAX_DECISIONS)?;
            let mut decisions = Vec::with_capacity(n);
            for _ in 0..n {
                let epoch = c.u64("decision.epoch")?;
                let tenant = c.u64("decision.tenant")?;
                let freq_mhz = c.u32("decision.freq_mhz")?;
                let rung = c.tag("decision.rung", Rung::from_tag)?;
                let predicted = c.f64("decision.predicted")?;
                decisions.push(Decision { epoch, tenant, freq_mhz, rung, predicted });
            }
            let n = c.count("notices.count", limits::MAX_NOTICES)?;
            let mut notices = Vec::with_capacity(n);
            for _ in 0..n {
                let epoch = c.u64("notice.epoch")?;
                let kind = c.tag("notice.kind", |t| {
                    [NoticeKind::Admitted, NoticeKind::Evicted, NoticeKind::Restored]
                        .get(usize::from(t))
                        .copied()
                })?;
                notices.push(Notice { epoch, kind });
            }
            Frame::Decisions { epoch, decisions, notices }
        }
        tag::TICK => Frame::Tick { expect_epoch: c.u64("tick.expect_epoch")? },
        tag::TICK_ACK => Frame::TickAck { epoch: c.u64("tick_ack.epoch")? },
        tag::QUERY => Frame::Query,
        tag::INFO => Frame::Info(ServerInfo {
            epoch: c.u64("info.epoch")?,
            digest: c.u64("info.digest")?,
            digest_count: c.u64("info.digest_count")?,
            live: c.u64("info.live")?,
            evicted: c.u64("info.evicted")?,
            admitted: c.u64("info.admitted")?,
            lost_tenants: c.u64("info.lost_tenants")?,
            cap_epochs_missed: c.u64("info.cap_epochs_missed")?,
            shed_total: c.u64("info.shed_total")?,
            mail_dropped: c.u64("info.mail_dropped")?,
        }),
        tag::REJECT => Frame::Reject {
            code: c.u8("reject.code")?,
            detail: c.str("reject.detail", limits::MAX_DETAIL)?.to_string(),
        },
        tag::BYE => Frame::Bye,
        v => return Err(FrameError::field("frame type", 0, format!("unknown frame tag {v}"))),
    };
    c.finish()?;
    Ok(frame)
}

/// Decodes exactly one frame from `buf`, rejecting trailing bytes after
/// the envelope. The streaming path is [`FrameReader`].
pub fn decode_frame(buf: &[u8]) -> Result<Frame, FrameError> {
    decode_payload(envelope::open(buf, MAGIC, &SUPPORTED_VERSIONS, limits::MAX_PAYLOAD)?)
}

// ---------------------------------------------------------------------------
// Streaming reader
// ---------------------------------------------------------------------------

/// Incremental frame decoder over an arbitrary byte stream: push chunks
/// in as they arrive, pull complete frames out. Enforces the read budget
/// ([`limits::MAX_PAYLOAD`] plus envelope overhead) so a slowloris peer
/// cannot grow the buffer without ever completing a frame; any envelope
/// or payload error is surfaced once and the reader is then poisoned
/// (byte-stream desync after a framing error is unrecoverable — the
/// connection is the retry unit).
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    poisoned: bool,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Appends a received chunk.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pulls the next complete frame, `Ok(None)` if more bytes are
    /// needed, or the error that poisoned the stream.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        if self.poisoned {
            return Err(FrameError::Truncated { offset: 0, field: "poisoned stream" });
        }
        match self.try_next() {
            Ok(v) => Ok(v),
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    fn try_next(&mut self) -> Result<Option<Frame>, FrameError> {
        // A garbage header is rejected as soon as it is identifiable —
        // don't wait for a frame that will never make sense.
        let total =
            envelope::frame_len(&self.buf, MAGIC, &SUPPORTED_VERSIONS, limits::MAX_PAYLOAD)?;
        match total {
            Some(total) if self.buf.len() >= total => {
                let frame = decode_frame(&self.buf[..total])?;
                self.buf.drain(..total);
                Ok(Some(frame))
            }
            _ => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello { tenant: 7, tier: 1, resume: None },
            Frame::Hello {
                tenant: 7,
                tier: 1,
                resume: Some(ResumeToken { tenant: 7, auth: 0xDEAD_BEEF }),
            },
            Frame::HelloAck {
                epoch: 41,
                last_seq: 12,
                resumed: true,
                token: ResumeToken { tenant: 7, auth: 1 },
            },
            Frame::Submit {
                seq: 13,
                batch: TelemetryBatch {
                    tenant: 7,
                    tier: 1,
                    records: vec![TenantRecord {
                        epoch: 41,
                        pc: 0x40,
                        next_pc: 0x50,
                        committed: 1234.5,
                        async_frac: 0.25,
                        f_obs_mhz: 1700,
                    }],
                },
            },
            Frame::SubmitAck { seq: 13, outcome: WireOutcome::ShedQueued { tier: 2, tenant: 9 } },
            Frame::Fetch { tenant: 7, since_epoch: 41 },
            Frame::Decisions {
                epoch: 42,
                decisions: vec![Decision {
                    epoch: 41,
                    tenant: 7,
                    freq_mhz: 1500,
                    rung: Rung::Hold,
                    predicted: 999.25,
                }],
                notices: vec![Notice { epoch: 40, kind: NoticeKind::Evicted }],
            },
            Frame::Tick { expect_epoch: 41 },
            Frame::TickAck { epoch: 42 },
            Frame::Query,
            Frame::Info(ServerInfo {
                epoch: 42,
                digest: 0xABCD,
                digest_count: 294,
                ..Default::default()
            }),
            Frame::Reject { code: reject::MALFORMED, detail: "bad field".into() },
            Frame::Bye,
        ]
    }

    #[test]
    fn every_frame_roundtrips() {
        for f in sample_frames() {
            let bytes = encode_frame(&f);
            assert_eq!(decode_frame(&bytes).unwrap(), f, "{f:?}");
        }
    }

    #[test]
    fn float_fields_roundtrip_bit_exactly() {
        for v in [0.0, -0.0, f64::MIN_POSITIVE, 1.0 / 3.0, f64::NAN, f64::INFINITY] {
            let f = Frame::Decisions {
                epoch: 1,
                decisions: vec![Decision {
                    epoch: 0,
                    tenant: 0,
                    freq_mhz: 1,
                    rung: Rung::Normal,
                    predicted: v,
                }],
                notices: vec![],
            };
            let Frame::Decisions { decisions, .. } = decode_frame(&encode_frame(&f)).unwrap()
            else {
                panic!("wrong frame")
            };
            assert_eq!(decisions[0].predicted.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn reader_reassembles_split_and_batched_frames() {
        let frames = sample_frames();
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&encode_frame(f));
        }
        // Push in pathological 3-byte chunks.
        let mut r = FrameReader::new();
        let mut got = Vec::new();
        for chunk in stream.chunks(3) {
            r.push(chunk);
            while let Some(f) = r.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn reader_poisons_on_error_and_stays_poisoned() {
        let mut r = FrameReader::new();
        r.push(b"XXXX more garbage");
        assert!(r.next_frame().is_err());
        assert!(r.next_frame().is_err(), "poisoned reader must not resync");
    }

    #[test]
    fn oversized_declared_length_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut r = FrameReader::new();
        r.push(&buf);
        let err = r.next_frame().unwrap_err();
        assert!(matches!(err, FrameError::Field { field: "payload length", .. }), "{err}");
    }
}
