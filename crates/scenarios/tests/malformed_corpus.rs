//! Malformed-trace payload corpus: every CRC-valid but malformed payload
//! must surface as a *typed* [`scenarios::trace::TraceError`] naming the
//! offending offset/field — never a panic, never a silently wrong app.
//!
//! The corpus covers out-of-range counts and field values behind a
//! *valid* CRC (the adversarial case the checksum cannot catch), kernels
//! that fail semantic validation, and the text form's line-addressed
//! errors. Envelope attacks (truncation, flips, magic, version, length)
//! run for every framed format in the root `tests/malformed_corpus.rs`.

use scenarios::trace::{self, TraceError, MAGIC, VERSION};
use snapshot::envelope::{self, EnvelopeError};
use snapshot::Encoder;

/// Wraps an arbitrary payload in a structurally valid envelope (correct
/// magic, current version, matching declared length and CRC), so parse
/// failures land in the payload decoder rather than the envelope checks.
fn sealed(payload: Encoder) -> Vec<u8> {
    envelope::seal(MAGIC, VERSION, &payload.into_bytes())
}

/// An app named `evil` with one kernel `k0`, encoded up to (not
/// including) its pattern count.
fn kernel_prefix() -> Encoder {
    let mut payload = Encoder::new();
    payload.put_str("evil");
    payload.put_usize(1); // kernels
    payload.put_str("k0");
    payload.put_u32(1); // workgroups
    payload.put_u8(1); // wg_wavefronts
    payload.put_u64(7); // seed
    payload
}

#[test]
fn out_of_range_kernel_count_is_a_field_error() {
    // A valid CRC over an absurd kernel count: the limit check must fire
    // before any allocation sized by the attacker-controlled count.
    let mut payload = Encoder::new();
    payload.put_str("evil");
    payload.put_usize(usize::MAX >> 8);
    match trace::parse(&sealed(payload)) {
        Err(e @ TraceError::Envelope(EnvelopeError::Field { .. })) => {
            assert!(e.to_string().contains("app.kernels"), "{e}");
        }
        other => panic!("expected Field error on kernel count, got {other:?}"),
    }
}

#[test]
fn out_of_range_op_tag_is_a_field_error() {
    // One kernel whose single op carries tag 0xEE — structurally well
    // formed, semantically meaningless.
    let mut payload = kernel_prefix();
    payload.put_usize(0); // patterns
    payload.put_usize(0); // loops
    payload.put_usize(1); // code
    payload.put_u8(0xEE); // bogus op tag
    match trace::parse(&sealed(payload)) {
        Err(e @ TraceError::Envelope(EnvelopeError::Field { .. })) => {
            assert!(e.to_string().contains("op"), "{e}")
        }
        other => panic!("expected Field error on op tag, got {other:?}"),
    }
}

#[test]
fn semantically_invalid_kernel_is_typed() {
    // Structurally perfect payload whose kernel fails `Kernel::validate`
    // (no EndKernel terminator): the parser must surface Invalid, not
    // hand back an app the simulator would reject.
    let mut payload = kernel_prefix();
    payload.put_usize(0); // patterns
    payload.put_usize(0); // loops
    payload.put_usize(1); // code: a lone Salu, no terminator
    payload.put_u8(1);
    match trace::parse(&sealed(payload)) {
        Err(TraceError::Invalid { kernel, .. }) => assert_eq!(kernel, "k0"),
        other => panic!("expected Invalid, got {other:?}"),
    }
}

#[test]
fn loop_trips_wider_than_u16_is_a_field_error() {
    // 70 000 trips is a well-formed varint that does not fit the u16
    // field: the codec's range rejection must surface as a field error,
    // not as truncation.
    let mut payload = kernel_prefix();
    payload.put_usize(0); // patterns
    payload.put_usize(1); // loops
    payload.put_u64(70_000); // trips
    payload.put_u16(0); // jitter
    match trace::parse(&sealed(payload)) {
        Err(TraceError::Envelope(EnvelopeError::Field { field: "loop.trips", reason, .. })) => {
            assert!(reason.contains("u16"), "{reason}");
        }
        other => panic!("expected Field error on loop.trips, got {other:?}"),
    }
}

#[test]
fn overlong_varint_count_is_a_field_error() {
    // An 11-byte varint kernel count: CRC-valid, never a valid LEB128 u64.
    let mut payload = Encoder::new();
    payload.put_str("evil");
    payload.put_raw(&[0x80; 10]);
    payload.put_u8(0);
    match trace::parse(&sealed(payload)) {
        Err(TraceError::Envelope(EnvelopeError::Field { field: "app.kernels", .. })) => {}
        other => panic!("expected Field error on app.kernels, got {other:?}"),
    }
}

#[test]
fn text_errors_name_the_line() {
    let cases = [
        ("", "missing header"),
        ("pckt-text v9\napp x", "future text version"),
        ("pckt-text v1\nbogus directive", "unknown directive"),
        ("pckt-text v1\napp x\nkernel k workgroups=0 wavefronts=1 seed=1", "zero workgroups"),
        ("pckt-text v1\napp x\nkernel k workgroups=1 wavefronts=1 seed=1\nop valu 500", "width"),
    ];
    for (text, why) in cases {
        match trace::parse_text(text) {
            Err(TraceError::Text { line, reason }) => {
                assert!(line <= text.lines().count().max(1), "{why}: line {line} out of range");
                assert!(!reason.is_empty(), "{why}: empty reason");
            }
            Err(TraceError::Invalid { .. }) if why == "zero workgroups" => {}
            other => panic!("{why}: expected a typed text error, got {other:?}"),
        }
    }
}
