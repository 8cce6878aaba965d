//! Malformed-frame corpus: every way a wire frame can be corrupted must
//! surface as a *typed* [`wire::FrameError`] naming the offending
//! offset/field — never a panic, never a silently misdecoded frame, and
//! never an allocation sized by attacker-controlled bytes.
//!
//! This corpus holds the PCWR-specific attacks: the payload-length cap,
//! the stream reader, and CRC-valid adversarial payloads — the case the
//! checksum cannot catch, where only field validation stands between the
//! peer and the decoder. Envelope attacks (truncation, flips, magic,
//! version, length) run for every framed format in the root
//! `tests/malformed_corpus.rs`.

mod common;

use common::sample_frames;
use snapshot::codec::Encoder;
use snapshot::envelope::{seal, HEADER_LEN};
use snapshot::fnv1a64;
use wire::frame::{
    decode_frame, encode_frame, limits, Frame, FrameError, FrameReader, MAGIC, VERSION,
};

/// FNV-1a over `encode_frame` of every [`sample_frames`] frame, computed
/// on the codec as it stood before the PCWR and PCKT envelopes were folded
/// into `snapshot::envelope`. Any change to the wire layout — a field
/// reordered, a varint widened, the envelope touched — moves it.
const PINNED_SAMPLE_DIGEST: u64 = 0xCD4F_8DED_9DD4_D7C8;

/// Wraps an arbitrary payload in a structurally valid envelope (correct
/// magic, current version, matching declared length and CRC), so parse
/// failures land in the payload decoder rather than the envelope checks.
fn envelope(payload: &[u8]) -> Vec<u8> {
    seal(MAGIC, VERSION, payload)
}

#[test]
fn roundtrip_is_identity_for_every_frame_type() {
    for frame in sample_frames() {
        let decoded = decode_frame(&encode_frame(&frame)).expect("valid frame must decode");
        assert_eq!(decoded, frame);
    }
}

#[test]
fn pcwr_bytes_are_frozen() {
    let encoded: Vec<Vec<u8>> = sample_frames().iter().map(encode_frame).collect();
    // Every frame type is present (the type byte opens the payload).
    let mut tags: Vec<u8> = encoded.iter().map(|b| b[HEADER_LEN]).collect();
    tags.dedup();
    assert_eq!(tags, (0..12).collect::<Vec<u8>>());
    let parts: Vec<&[u8]> = encoded.iter().map(Vec::as_slice).collect();
    let digest = fnv1a64(&parts);
    assert_eq!(digest, PINNED_SAMPLE_DIGEST, "PCWR byte format changed: digest {digest:#018x}");
}

#[test]
fn oversized_declared_length_is_rejected_before_any_allocation() {
    // A 14-byte buffer claiming a 700 MB payload: the limit check fires
    // on the declared value alone, before the reader would ever wait for
    // (or allocate room for) that many bytes.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&VERSION.to_le_bytes());
    bytes.extend_from_slice(&(700_000_000u32).to_le_bytes());
    bytes.extend_from_slice(&[0u8; 4]);
    match decode_frame(&bytes) {
        Err(e @ FrameError::Field { field: "payload length", .. }) => {
            assert!(e.to_string().contains("limit"), "{e}");
        }
        other => panic!("expected Field error on payload length, got {other:?}"),
    }
}

#[test]
fn unknown_frame_tag_behind_a_valid_crc_is_a_field_error() {
    let mut payload = Encoder::new();
    payload.put_u8(0xEE);
    match decode_frame(&envelope(&payload.into_bytes())) {
        Err(e @ FrameError::Field { field: "frame type", .. }) => {
            assert!(e.to_string().contains("238"), "{e}");
        }
        other => panic!("expected Field error on frame type, got {other:?}"),
    }
}

#[test]
fn out_of_range_record_count_is_a_field_error_before_allocation() {
    // A valid CRC over an absurd record count: the limit check must fire
    // before any allocation sized by the attacker-controlled count.
    let mut payload = Encoder::new();
    payload.put_u8(2); // Submit
    payload.put_u64(1); // seq
    payload.put_u64(5); // tenant
    payload.put_u8(0); // tier
    payload.put_usize(usize::MAX >> 8); // record count
    match decode_frame(&envelope(&payload.into_bytes())) {
        Err(e @ FrameError::Field { field: "submit.record count", .. }) => {
            assert!(e.to_string().contains("limit"), "{e}");
        }
        other => panic!("expected Field error on record count, got {other:?}"),
    }
}

#[test]
fn out_of_range_decision_and_notice_counts_are_field_errors() {
    let mut payload = Encoder::new();
    payload.put_u8(5); // Decisions
    payload.put_u64(9); // epoch
    payload.put_usize(limits::MAX_DECISIONS + 1);
    match decode_frame(&envelope(&payload.into_bytes())) {
        Err(FrameError::Field { field: "decisions.count", .. }) => {}
        other => panic!("expected Field error on decision count, got {other:?}"),
    }

    let mut payload = Encoder::new();
    payload.put_u8(5); // Decisions
    payload.put_u64(9); // epoch
    payload.put_usize(0); // decisions
    payload.put_usize(limits::MAX_NOTICES + 1);
    match decode_frame(&envelope(&payload.into_bytes())) {
        Err(FrameError::Field { field: "notices.count", .. }) => {}
        other => panic!("expected Field error on notice count, got {other:?}"),
    }
}

#[test]
fn out_of_range_enum_tags_behind_valid_crcs_are_field_errors() {
    // Rung tag 9 inside a decision.
    let mut payload = Encoder::new();
    payload.put_u8(5); // Decisions
    payload.put_u64(9); // epoch
    payload.put_usize(1); // one decision
    payload.put_u64(9);
    payload.put_u64(5);
    payload.put_u32(1_300);
    payload.put_u8(9); // bogus rung
    match decode_frame(&envelope(&payload.into_bytes())) {
        Err(e @ FrameError::Field { field: "decision.rung", .. }) => {
            assert!(e.to_string().contains('9'), "{e}");
        }
        other => panic!("expected Field error on rung tag, got {other:?}"),
    }

    // Outcome tag 7 inside a submit ack.
    let mut payload = Encoder::new();
    payload.put_u8(3); // SubmitAck
    payload.put_u64(1); // seq
    payload.put_u8(7); // bogus outcome
    match decode_frame(&envelope(&payload.into_bytes())) {
        Err(FrameError::Field { field: "submit_ack.outcome", .. }) => {}
        other => panic!("expected Field error on outcome tag, got {other:?}"),
    }

    // Notice kind 5.
    let mut payload = Encoder::new();
    payload.put_u8(5); // Decisions
    payload.put_u64(9);
    payload.put_usize(0);
    payload.put_usize(1);
    payload.put_u64(9);
    payload.put_u8(5); // bogus notice kind
    match decode_frame(&envelope(&payload.into_bytes())) {
        Err(FrameError::Field { field: "notice.kind", .. }) => {}
        other => panic!("expected Field error on notice kind, got {other:?}"),
    }

    // A non-boolean where Hello expects has_resume.
    let mut payload = Encoder::new();
    payload.put_u8(0); // Hello
    payload.put_u64(5);
    payload.put_u8(0);
    payload.put_u8(9); // bogus boolean
    match decode_frame(&envelope(&payload.into_bytes())) {
        Err(FrameError::Field { field: "hello.has_resume", .. }) => {}
        other => panic!("expected Field error on boolean, got {other:?}"),
    }
}

#[test]
fn oversized_reject_detail_behind_a_valid_crc_is_a_field_error() {
    let mut payload = Encoder::new();
    payload.put_u8(10); // Reject
    payload.put_u8(1); // code
    payload.put_str(&"x".repeat(limits::MAX_DETAIL + 1));
    match decode_frame(&envelope(&payload.into_bytes())) {
        Err(FrameError::Field { field: "reject.detail", .. }) => {}
        other => panic!("expected Field error on detail length, got {other:?}"),
    }
}

#[test]
fn non_utf8_reject_detail_is_a_field_error() {
    let mut payload = Encoder::new();
    payload.put_u8(10); // Reject
    payload.put_u8(1); // code
    payload.put_bytes(&[b'o', b'k', 0xFF, 0xFE]);
    match decode_frame(&envelope(&payload.into_bytes())) {
        Err(FrameError::Field { field: "reject.detail", reason, .. }) => {
            assert!(reason.contains("UTF-8"), "{reason}");
        }
        other => panic!("expected Field error on reject.detail, got {other:?}"),
    }
}

#[test]
fn overlong_seq_varint_is_a_field_error() {
    // An 11-byte varint where Submit expects its sequence number: present
    // in full behind a valid CRC, so it is a bad field, not a truncation.
    let mut payload = Encoder::new();
    payload.put_u8(2); // Submit
    payload.put_raw(&[0x80; 10]);
    payload.put_u8(0);
    match decode_frame(&envelope(&payload.into_bytes())) {
        Err(FrameError::Field { field: "submit.seq", .. }) => {}
        other => panic!("expected Field error on submit.seq, got {other:?}"),
    }
}

#[test]
fn payload_trailing_bytes_behind_a_valid_crc_are_typed() {
    // A perfectly valid Query payload with one stray byte after it —
    // the CRC is valid (it covers the stray byte too), so only the
    // exhaustiveness check can catch it.
    let mut payload = Encoder::new();
    payload.put_u8(8); // Query
    payload.put_u8(0xAB);
    match decode_frame(&envelope(&payload.into_bytes())) {
        Err(FrameError::TrailingBytes { remaining: 1, .. }) => {}
        other => panic!("expected TrailingBytes, got {other:?}"),
    }
}

#[test]
fn every_error_display_names_a_location_or_field() {
    let cases: Vec<FrameError> = vec![
        decode_frame(&[]).unwrap_err(),
        decode_frame(b"XXXXXXXXXXXX").unwrap_err(),
        {
            let mut b = encode_frame(&Frame::Query);
            let last = b.len() - 1;
            b[last] ^= 1;
            decode_frame(&b).unwrap_err()
        },
        decode_frame(&envelope(&[0xEE])).unwrap_err(),
    ];
    for e in cases {
        let s = e.to_string();
        assert!(
            s.contains("byte") || s.contains("magic") || s.contains("CRC") || s.contains("field"),
            "error display does not localize the failure: {s}"
        );
    }
}

#[test]
fn stream_reader_rejects_garbage_early_and_stays_poisoned() {
    let mut reader = FrameReader::new();
    reader.push(b"GETX / HTTP/1.1\r\n");
    assert!(
        matches!(reader.next_frame(), Err(FrameError::BadMagic { .. })),
        "an HTTP-speaking peer must be rejected from the first four bytes"
    );
    // Even feeding a perfectly valid frame afterward: the stream lost
    // sync permanently, so the reader must not resynchronize by luck.
    reader.push(&encode_frame(&Frame::Query));
    assert!(reader.next_frame().is_err(), "poisoned reader must stay poisoned");
}

#[test]
fn stream_reader_reassembles_byte_by_byte() {
    let frames = sample_frames();
    let mut stream = Vec::new();
    for f in &frames {
        stream.extend_from_slice(&encode_frame(f));
    }
    let mut reader = FrameReader::new();
    let mut decoded = Vec::new();
    for b in stream {
        reader.push(&[b]);
        while let Some(f) = reader.next_frame().expect("valid stream") {
            decoded.push(f);
        }
    }
    assert_eq!(decoded, frames, "one-byte-at-a-time reassembly changed the stream");
    assert_eq!(reader.buffered(), 0);
}
