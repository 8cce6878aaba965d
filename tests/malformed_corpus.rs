//! One malformed-input harness for every framed format the repository
//! reads: kernel traces (PCKT), wire frames (PCWR) and simulator
//! snapshots (PCSN).
//!
//! Each format is attacked at its framing: every prefix truncation, every
//! single-byte flip (for PCSN, every header and section-table byte plus a
//! stride through the section payloads), bad magic, a future version, the
//! declared length one too large and one too small, and an appended byte.
//! Every attacked input must be rejected with the format's typed error —
//! never a panic, never `Ok` — and the rejection must name the defect the
//! attack planted. Payload-grammar attacks (CRC-valid but malformed
//! fields) stay with each codec's own corpus.

use std::ops::Range;

use gpu_sim::prelude::*;
use scenarios::trace::{self, TraceError};
use snapshot::envelope::{EnvelopeError, CRC_LEN, HEADER_LEN};
use snapshot::{SnapError, FORMAT_VERSION};
use wire::frame::{decode_frame, encode_frame};
use workloads::registry::Scale;

#[path = "../crates/wire/tests/common/mod.rs"]
mod pcwr;

/// The defect a rejection reports, across the three error types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Truncated,
    BadMagic,
    Version,
    Length,
    Crc,
    /// A field (or section) decoded but was rejected.
    Field,
}

fn envelope_class(e: EnvelopeError) -> Class {
    match e {
        EnvelopeError::Truncated { .. } => Class::Truncated,
        EnvelopeError::BadMagic { .. } => Class::BadMagic,
        EnvelopeError::UnsupportedVersion { .. } => Class::Version,
        EnvelopeError::LengthMismatch { .. } => Class::Length,
        EnvelopeError::Crc { .. } => Class::Crc,
        EnvelopeError::Field { .. } | EnvelopeError::TrailingBytes { .. } => Class::Field,
    }
}

#[derive(Debug, Clone, Copy)]
enum Format {
    Pckt,
    Pcwr,
    Pcsn,
}

const FORMATS: [Format; 3] = [Format::Pckt, Format::Pcwr, Format::Pcsn];

/// `(name_len u16, name, payload_len u64, crc u32)` entries follow the
/// 10-byte PCSN header; returns each entry's payload-length field and the
/// end of the table.
fn pcsn_table(bytes: &[u8]) -> (Vec<Range<usize>>, usize) {
    let n = u32::from_le_bytes(bytes[6..10].try_into().unwrap()) as usize;
    let mut at = 10;
    let mut lens = Vec::with_capacity(n);
    for _ in 0..n {
        let name_len = u16::from_le_bytes(bytes[at..at + 2].try_into().unwrap()) as usize;
        let len_at = at + 2 + name_len;
        lens.push(len_at..len_at + 8);
        at = len_at + 8 + 4;
    }
    (lens, at)
}

impl Format {
    fn samples(self) -> Vec<Vec<u8>> {
        match self {
            Format::Pckt => ["dgemm", "BwdSoft"]
                .iter()
                .map(|name| trace::record(&workloads::by_name(name, Scale::Quick).unwrap()))
                .collect(),
            Format::Pcwr => pcwr::sample_frames().iter().map(encode_frame).collect(),
            Format::Pcsn => {
                let app = workloads::by_name("dgemm", Scale::Quick).unwrap();
                let mut gpu = Gpu::new(GpuConfig::tiny(), app);
                gpu.run_epoch(Femtos::from_micros(1));
                vec![gpu.save_snapshot()]
            }
        }
    }

    /// Decodes `bytes`, classifying the rejection.
    fn decode(self, bytes: &[u8]) -> Result<(), Class> {
        match self {
            Format::Pckt => trace::parse(bytes).map(drop).map_err(|e| match e {
                TraceError::Envelope(e) => envelope_class(e),
                TraceError::Invalid { .. } | TraceError::Text { .. } => Class::Field,
            }),
            Format::Pcwr => decode_frame(bytes).map(drop).map_err(envelope_class),
            Format::Pcsn => Gpu::load_snapshot(bytes).map(drop).map_err(|e| match e {
                SnapError::BadMagic => Class::BadMagic,
                SnapError::Version { .. } => Class::Version,
                SnapError::Truncated => Class::Truncated,
                SnapError::Corrupt { .. } => Class::Crc,
                SnapError::MissingSection { .. } | SnapError::Invalid(_) => Class::Field,
            }),
        }
    }

    /// The envelope error itself, for the two formats built on
    /// `snapshot::envelope` (PCSN reports `SnapError`).
    fn envelope_error(self, bytes: &[u8]) -> Option<EnvelopeError> {
        match self {
            Format::Pckt => match trace::parse(bytes) {
                Err(TraceError::Envelope(e)) => Some(e),
                _ => None,
            },
            Format::Pcwr => decode_frame(bytes).err(),
            Format::Pcsn => None,
        }
    }

    /// The declared-length field the ±1 attack edits (PCSN: the first
    /// section's payload length).
    fn length_field(self, bytes: &[u8]) -> Range<usize> {
        match self {
            Format::Pckt | Format::Pcwr => 6..10,
            Format::Pcsn => pcsn_table(bytes).0[0].clone(),
        }
    }

    /// End of the bytes every flip is tried on; past it, payload flips
    /// are strided (PCSN payloads are ~100 KB and all CRC-covered).
    fn framing_end(self, bytes: &[u8]) -> usize {
        match self {
            Format::Pckt | Format::Pcwr => bytes.len(),
            Format::Pcsn => pcsn_table(bytes).1,
        }
    }

    /// What a flip of byte `i` must be reported as.
    fn flip_classes(self, bytes: &[u8], i: usize) -> &'static [Class] {
        match (self, i) {
            (_, 0..=3) => &[Class::BadMagic],
            (_, 4..=5) => &[Class::Version],
            // PCWR rejects an over-cap length as a field error.
            (Format::Pckt | Format::Pcwr, 6..=9) => &[Class::Length, Class::Field],
            (Format::Pckt | Format::Pcwr, _) => &[Class::Crc],
            // Section count and table: misframed sections truncate, fail
            // their CRC, go missing, or leave trailing bytes.
            (Format::Pcsn, _) if i < self.framing_end(bytes) => {
                &[Class::Truncated, Class::Crc, Class::Field]
            }
            (Format::Pcsn, _) => &[Class::Crc],
        }
    }

    /// What a prefix of `len` bytes must be reported as.
    fn prefix_class(self, len: usize) -> Class {
        match self {
            Format::Pckt | Format::Pcwr if len >= HEADER_LEN => Class::Length,
            _ => Class::Truncated,
        }
    }

    fn future_version(self) -> u16 {
        match self {
            Format::Pckt => trace::VERSION + 1,
            Format::Pcwr => wire::frame::VERSION + 1,
            Format::Pcsn => FORMAT_VERSION + 1,
        }
    }

    /// What one byte appended after a valid encoding must be reported as.
    fn appended_class(self) -> Class {
        match self {
            Format::Pckt | Format::Pcwr => Class::Length,
            Format::Pcsn => Class::Field,
        }
    }
}

fn expect(format: Format, bytes: &[u8], allowed: &[Class], what: &str) {
    match format.decode(bytes) {
        Ok(()) => panic!("{format:?}: {what} decoded"),
        Err(c) => assert!(allowed.contains(&c), "{format:?}: {what} gave {c:?}, want {allowed:?}"),
    }
}

#[test]
fn samples_decode() {
    for f in FORMATS {
        for s in f.samples() {
            assert_eq!(f.decode(&s), Ok(()), "{f:?}: valid sample rejected");
        }
    }
}

#[test]
fn every_prefix_truncation_is_rejected() {
    for f in FORMATS {
        for s in f.samples() {
            for len in 0..s.len() {
                expect(f, &s[..len], &[f.prefix_class(len)], &format!("{len}-byte prefix"));
                if matches!(f, Format::Pcsn) || len >= HEADER_LEN {
                    continue;
                }
                match f.envelope_error(&s[..len]) {
                    Some(EnvelopeError::Truncated { offset, .. }) => {
                        assert!(
                            offset <= len,
                            "{f:?}: offset {offset} past the {len} bytes present"
                        )
                    }
                    other => panic!("{f:?}: {len}-byte header gave {other:?}"),
                }
            }
        }
    }
}

#[test]
fn every_single_byte_flip_is_rejected() {
    for f in FORMATS {
        for s in f.samples() {
            let end = f.framing_end(&s);
            let stride = ((s.len() - end) / 512).max(1);
            let offsets = (0..end).chain((end..s.len()).step_by(stride)).chain([s.len() - 1]);
            for i in offsets {
                let mut bad = s.clone();
                bad[i] ^= 0xFF;
                expect(f, &bad, f.flip_classes(&s, i), &format!("flip at byte {i}"));
            }
        }
    }
}

#[test]
fn bad_magic_is_rejected() {
    for f in FORMATS {
        let mut bad = f.samples().swap_remove(0);
        bad[0] = b'X';
        expect(f, &bad, &[Class::BadMagic], "bad magic");
        let found = match f {
            Format::Pckt => *b"XCKT",
            Format::Pcwr => *b"XCWR",
            Format::Pcsn => continue,
        };
        assert_eq!(f.envelope_error(&bad), Some(EnvelopeError::BadMagic { found }), "{f:?}");
    }
}

#[test]
fn crc_flip_reports_both_checksums() {
    for f in [Format::Pckt, Format::Pcwr] {
        let s = f.samples().swap_remove(0);
        let trailer = s.len() - CRC_LEN;
        let true_crc = u32::from_le_bytes(s[trailer..].try_into().unwrap());
        // One flip in the stored checksum, one in the payload.
        for i in [s.len() - 1, (HEADER_LEN + trailer) / 2] {
            let mut bad = s.clone();
            bad[i] ^= 0xFF;
            match f.envelope_error(&bad) {
                Some(EnvelopeError::Crc { stored, computed }) => {
                    assert_ne!(stored, computed, "{f:?}: flip at byte {i}");
                    let want = u32::from_le_bytes(bad[trailer..].try_into().unwrap());
                    assert_eq!(stored, want, "{f:?}: stored checksum is the trailer");
                    if i >= trailer {
                        assert_eq!(computed, true_crc, "{f:?}: payload untouched");
                    }
                }
                other => panic!("{f:?}: flip at byte {i} gave {other:?}"),
            }
        }
    }
}

#[test]
fn future_version_is_rejected() {
    for f in FORMATS {
        let mut bad = f.samples().swap_remove(0);
        bad[4..6].copy_from_slice(&f.future_version().to_le_bytes());
        expect(f, &bad, &[Class::Version], "future version");
    }
}

#[test]
fn declared_length_off_by_one_is_rejected() {
    for f in FORMATS {
        let s = f.samples().swap_remove(0);
        let field = f.length_field(&s);
        let mut le = [0u8; 8];
        le[..field.len()].copy_from_slice(&s[field.clone()]);
        let declared = u64::from_le_bytes(le);
        for wrong in [declared + 1, declared - 1] {
            let mut bad = s.clone();
            bad[field.clone()].copy_from_slice(&wrong.to_le_bytes()[..field.len()]);
            // PCSN bounds the table before checksumming: one byte too many
            // is truncation, one too few misframes the section's CRC.
            let allowed: &[Class] = match f {
                Format::Pckt | Format::Pcwr => &[Class::Length],
                Format::Pcsn => &[Class::Truncated, Class::Crc],
            };
            expect(f, &bad, allowed, &format!("declared length {wrong} (true {declared})"));
        }
    }
}

#[test]
fn appended_byte_is_rejected() {
    for f in FORMATS {
        let mut bad = f.samples().swap_remove(0);
        bad.push(0);
        expect(f, &bad, &[f.appended_class()], "appended byte");
    }
}
