//! One non-degenerate frame of every PCWR type, shared by the wire
//! corpus and the root malformed-corpus harness.

use serve::{Decision, Rung, TelemetryBatch, TenantRecord};
use wire::frame::{Frame, Notice, NoticeKind, ResumeToken, ServerInfo, WireOutcome};

/// One of every frame type (two `Hello`s, with and without a resume
/// token), in tag order, so the exhaustive corpora cover every decode
/// path in the grammar.
pub fn sample_frames() -> Vec<Frame> {
    let token = ResumeToken { tenant: 5, auth: 0xFEED_F00D_CAFE_D00D };
    let record = TenantRecord {
        epoch: 17,
        pc: 0x40,
        next_pc: 0x44,
        committed: 2_517.25,
        async_frac: 0.375,
        f_obs_mhz: 1_450,
    };
    let decision =
        Decision { epoch: 17, tenant: 5, freq_mhz: 1_137, rung: Rung::Stall, predicted: -0.125 };
    vec![
        Frame::Hello { tenant: 5, tier: 1, resume: Some(token) },
        Frame::Hello { tenant: 6, tier: 0, resume: None },
        Frame::HelloAck { epoch: 17, last_seq: 3, resumed: true, token },
        Frame::Submit {
            seq: 4,
            batch: TelemetryBatch { tenant: 5, tier: 1, records: vec![record] },
        },
        Frame::SubmitAck { seq: 4, outcome: WireOutcome::ShedQueued { tier: 2, tenant: 9 } },
        Frame::Fetch { tenant: 5, since_epoch: 16 },
        Frame::Decisions {
            epoch: 18,
            decisions: vec![decision],
            notices: vec![Notice { epoch: 17, kind: NoticeKind::Evicted }],
        },
        Frame::Tick { expect_epoch: 17 },
        Frame::TickAck { epoch: 18 },
        Frame::Query,
        Frame::Info(ServerInfo {
            epoch: 18,
            digest: 0xABCD,
            digest_count: 99,
            live: 36,
            evicted: 12,
            admitted: 48,
            lost_tenants: 0,
            cap_epochs_missed: 0,
            shed_total: 7,
            mail_dropped: 0,
        }),
        Frame::Reject { code: 4, detail: "resume token for tenant 5 failed auth".into() },
        Frame::Bye,
    ]
}
