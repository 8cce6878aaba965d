//! The framed envelope shared by the kernel-trace (`PCKT`) and wire
//! (`PCWR`) formats, and the field cursor their payload decoders read
//! through.
//!
//! Byte layout (header integers little-endian, fixed width):
//!
//! ```text
//! frame := magic:4 | version:u16 | payload_len:u32 | payload | crc32(payload):u32
//! ```
//!
//! [`open`] validates, in order: magic, version, declared length against
//! the format's cap and against the bytes present, then the CRC — each
//! defect its own [`EnvelopeError`] variant, before any payload byte is
//! interpreted. [`Fields`] then decodes the payload with every read
//! attributed to a named field, so a CRC-valid but malformed payload is
//! reported as *which* field broke and at what payload offset.
//!
//! The snapshot container (`PCSN`, [`crate::container`]) is deliberately
//! not built on this envelope: it carries a named section table with one
//! CRC per section, so a restore can name the damaged section.

use crate::codec::Decoder;
use crate::crc32::crc32;
use crate::error::SnapError;
use std::fmt;

/// Header bytes before the payload: magic + version + payload length.
pub const HEADER_LEN: usize = 10;
/// Trailing CRC-32 bytes.
pub const CRC_LEN: usize = 4;

/// Everything that can go wrong opening an envelope or decoding its
/// payload. Every variant names the location of the failure, so a bad
/// input is diagnosable from the error alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvelopeError {
    /// The buffer ended before the named field could be read.
    Truncated {
        /// Byte offset at which the read was attempted (frame-relative
        /// for header fields, payload-relative past the header).
        offset: usize,
        /// The field being read.
        field: &'static str,
    },
    /// The first four bytes are not the format's magic.
    BadMagic {
        /// What was found instead.
        found: [u8; 4],
    },
    /// The header declares a version this parser does not understand.
    UnsupportedVersion {
        /// The declared version.
        found: u16,
        /// The versions this parser accepts.
        supported: &'static [u16],
    },
    /// The header's payload length disagrees with the bytes present.
    LengthMismatch {
        /// Payload length declared in the header.
        declared: usize,
        /// Payload bytes actually present.
        actual: usize,
    },
    /// The payload failed its CRC-32 check.
    Crc {
        /// Checksum stored in the trailer.
        stored: u32,
        /// Checksum computed over the payload.
        computed: u32,
    },
    /// A field decoded but its value is out of range.
    Field {
        /// The field that failed.
        field: &'static str,
        /// Byte offset of the field (within the payload, or within the
        /// frame for the header's payload length).
        offset: usize,
        /// Why the value was rejected.
        reason: String,
    },
    /// Bytes remained in the payload after the last field.
    TrailingBytes {
        /// Payload offset of the first unconsumed byte.
        offset: usize,
        /// How many bytes were left over.
        remaining: usize,
    },
}

impl fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvelopeError::Truncated { offset, field } => {
                write!(f, "truncated at byte {offset} while reading {field}")
            }
            EnvelopeError::BadMagic { found } => {
                write!(f, "bad magic {found:02x?} ({:?})", String::from_utf8_lossy(found))
            }
            EnvelopeError::UnsupportedVersion { found, supported } => {
                write!(f, "version {found} not supported (this parser reads {supported:?})")
            }
            EnvelopeError::LengthMismatch { declared, actual } => {
                write!(f, "header declares {declared}-byte payload but {actual} bytes follow")
            }
            EnvelopeError::Crc { stored, computed } => {
                write!(f, "payload CRC mismatch: stored {stored:08x}, computed {computed:08x}")
            }
            EnvelopeError::Field { field, offset, reason } => {
                write!(f, "bad field {field} at byte {offset}: {reason}")
            }
            EnvelopeError::TrailingBytes { offset, remaining } => {
                write!(
                    f,
                    "{remaining} trailing byte(s) after the last field (payload byte {offset})"
                )
            }
        }
    }
}

impl std::error::Error for EnvelopeError {}

impl EnvelopeError {
    /// Shorthand for a [`EnvelopeError::Field`] rejection.
    pub fn field(field: &'static str, offset: usize, reason: impl Into<String>) -> Self {
        EnvelopeError::Field { field, offset, reason: reason.into() }
    }
}

/// Wraps `payload` in a complete envelope.
pub fn seal(magic: [u8; 4], version: u16, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + CRC_LEN);
    out.extend_from_slice(&magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out
}

/// Validates as much of the fixed header as `bytes` holds and returns the
/// declared payload length; a short buffer is [`EnvelopeError::Truncated`]
/// naming the first missing header field.
fn header(
    bytes: &[u8],
    magic: [u8; 4],
    supported: &'static [u16],
    max_payload: usize,
) -> Result<usize, EnvelopeError> {
    let take = |at: usize, n: usize, field: &'static str| {
        bytes.get(at..at + n).ok_or(EnvelopeError::Truncated { offset: at, field })
    };
    let found: [u8; 4] = take(0, 4, "magic")?.try_into().expect("4-byte slice");
    if found != magic {
        return Err(EnvelopeError::BadMagic { found });
    }
    let version = u16::from_le_bytes(take(4, 2, "version")?.try_into().expect("2-byte slice"));
    if !supported.contains(&version) {
        return Err(EnvelopeError::UnsupportedVersion { found: version, supported });
    }
    let declared = u32::from_le_bytes(take(6, 4, "payload length")?.try_into().expect("4 bytes"));
    let declared = declared as usize;
    if declared > max_payload {
        let why = format!("declares {declared} bytes, limit {max_payload}");
        return Err(EnvelopeError::field("payload length", 6, why));
    }
    Ok(declared)
}

/// The total length of the frame `bytes` starts with, once its header is
/// complete: `Ok(None)` while the header is still short. A header that is
/// already wrong (magic, version, length cap) is rejected as soon as the
/// offending field has arrived, so a stream reader need not wait for bytes
/// that can never make sense.
///
/// # Errors
///
/// The header errors of [`open`].
pub fn frame_len(
    bytes: &[u8],
    magic: [u8; 4],
    supported: &'static [u16],
    max_payload: usize,
) -> Result<Option<usize>, EnvelopeError> {
    match header(bytes, magic, supported, max_payload) {
        Ok(declared) => Ok(Some(HEADER_LEN + declared + CRC_LEN)),
        Err(EnvelopeError::Truncated { .. }) => Ok(None),
        Err(e) => Err(e),
    }
}

/// Verifies that `bytes` is exactly one envelope — magic, a version in
/// `supported`, a declared length no larger than `max_payload` that
/// matches the bytes present, and the payload CRC — and returns the
/// payload.
///
/// # Errors
///
/// The first defect found, as an [`EnvelopeError`].
pub fn open<'a>(
    bytes: &'a [u8],
    magic: [u8; 4],
    supported: &'static [u16],
    max_payload: usize,
) -> Result<&'a [u8], EnvelopeError> {
    let declared = header(bytes, magic, supported, max_payload)?;
    let actual = bytes.len().saturating_sub(HEADER_LEN + CRC_LEN);
    if bytes.len() < HEADER_LEN + CRC_LEN || declared != actual {
        return Err(EnvelopeError::LengthMismatch { declared, actual });
    }
    let (payload, trailer) = bytes[HEADER_LEN..].split_at(declared);
    let stored = u32::from_le_bytes(trailer.try_into().expect("4-byte trailer"));
    let computed = crc32(payload);
    if stored != computed {
        return Err(EnvelopeError::Crc { stored, computed });
    }
    Ok(payload)
}

/// A field-attributed cursor over a payload: every read names its field,
/// so a decode failure reports which field broke and at what payload
/// offset. A short payload is [`EnvelopeError::Truncated`]; a value the
/// codec rejects (overlong varint, integer wider than the field,
/// non-UTF-8 string, non-boolean byte) is [`EnvelopeError::Field`].
#[derive(Debug)]
pub struct Fields<'a> {
    dec: Decoder<'a>,
    len: usize,
}

impl<'a> Fields<'a> {
    /// A cursor at the start of `payload`.
    pub fn new(payload: &'a [u8]) -> Self {
        Fields { dec: Decoder::new(payload), len: payload.len() }
    }

    /// Payload offset of the next read.
    pub fn offset(&self) -> usize {
        self.len - self.dec.remaining()
    }

    fn read<T>(
        &mut self,
        field: &'static str,
        take: impl FnOnce(&mut Decoder<'a>) -> Result<T, SnapError>,
    ) -> Result<T, EnvelopeError> {
        let offset = self.offset();
        take(&mut self.dec).map_err(|e| match e {
            SnapError::Truncated => EnvelopeError::Truncated { offset, field },
            SnapError::Invalid(reason) => EnvelopeError::field(field, offset, reason),
            other => EnvelopeError::field(field, offset, other.to_string()),
        })
    }

    /// One raw byte.
    pub fn u8(&mut self, field: &'static str) -> Result<u8, EnvelopeError> {
        self.read(field, Decoder::take_u8)
    }

    /// A varint that must fit `u16`.
    pub fn u16(&mut self, field: &'static str) -> Result<u16, EnvelopeError> {
        self.read(field, Decoder::take_u16)
    }

    /// A varint that must fit `u32`.
    pub fn u32(&mut self, field: &'static str) -> Result<u32, EnvelopeError> {
        self.read(field, Decoder::take_u32)
    }

    /// A varint.
    pub fn u64(&mut self, field: &'static str) -> Result<u64, EnvelopeError> {
        self.read(field, Decoder::take_u64)
    }

    /// An `f64` bit pattern.
    pub fn f64(&mut self, field: &'static str) -> Result<f64, EnvelopeError> {
        self.read(field, Decoder::take_f64)
    }

    /// A `0`/`1` byte.
    pub fn bool(&mut self, field: &'static str) -> Result<bool, EnvelopeError> {
        self.read(field, Decoder::take_bool)
    }

    /// A length-prefixed UTF-8 string of at most `max` bytes.
    pub fn str(&mut self, field: &'static str, max: usize) -> Result<&'a str, EnvelopeError> {
        let offset = self.offset();
        let s = self.read(field, Decoder::take_str)?;
        if s.len() > max {
            let why = format!("length {} exceeds the limit {max}", s.len());
            return Err(EnvelopeError::field(field, offset, why));
        }
        Ok(s)
    }

    /// An element count, checked against `max` before the caller
    /// allocates anything count-sized.
    pub fn count(&mut self, field: &'static str, max: usize) -> Result<usize, EnvelopeError> {
        let offset = self.offset();
        let n = self.read(field, Decoder::take_usize)?;
        if n > max {
            return Err(EnvelopeError::field(
                field,
                offset,
                format!("count {n} exceeds the limit {max}"),
            ));
        }
        Ok(n)
    }

    /// A one-byte enum tag mapped through `from`; a tag it does not know
    /// is a [`EnvelopeError::Field`] error.
    pub fn tag<T>(
        &mut self,
        field: &'static str,
        from: impl FnOnce(u8) -> Option<T>,
    ) -> Result<T, EnvelopeError> {
        let offset = self.offset();
        let t = self.u8(field)?;
        from(t).ok_or_else(|| EnvelopeError::field(field, offset, format!("unknown tag {t}")))
    }

    /// Fails unless every payload byte was consumed.
    pub fn finish(self) -> Result<(), EnvelopeError> {
        match self.dec.remaining() {
            0 => Ok(()),
            remaining => {
                Err(EnvelopeError::TrailingBytes { offset: self.len - remaining, remaining })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Encoder;

    const MAGIC: [u8; 4] = *b"TEST";
    const VERSIONS: [u16; 1] = [3];

    fn open_test(bytes: &[u8]) -> Result<&[u8], EnvelopeError> {
        open(bytes, MAGIC, &VERSIONS, 64)
    }

    #[test]
    fn seal_then_open_returns_the_payload() {
        let sealed = seal(MAGIC, 3, b"hello");
        assert_eq!(sealed.len(), HEADER_LEN + 5 + CRC_LEN);
        assert_eq!(open_test(&sealed), Ok(&b"hello"[..]));
        assert_eq!(frame_len(&sealed, MAGIC, &VERSIONS, 64), Ok(Some(sealed.len())));
    }

    #[test]
    fn short_header_names_the_missing_field() {
        let sealed = seal(MAGIC, 3, b"");
        for (len, want) in [(0, "magic"), (5, "version"), (9, "payload length")] {
            match open_test(&sealed[..len]) {
                Err(EnvelopeError::Truncated { field, offset }) => {
                    assert_eq!(field, want);
                    assert!(offset <= len, "offset {offset} past the {len} bytes present");
                }
                other => panic!("{len} bytes: {other:?}"),
            }
            assert_eq!(frame_len(&sealed[..len], MAGIC, &VERSIONS, 64), Ok(None));
        }
    }

    #[test]
    fn header_defects_are_distinct() {
        let mut wrong_magic = seal(MAGIC, 3, b"x");
        wrong_magic[0] = b'X';
        assert_eq!(open_test(&wrong_magic), Err(EnvelopeError::BadMagic { found: *b"XEST" }));
        let future = open_test(&seal(MAGIC, 4, b"x")).unwrap_err();
        assert!(matches!(future, EnvelopeError::UnsupportedVersion { found: 4, .. }));
        assert!(future.to_string().contains("[3]"), "names the supported versions: {future}");
        let big = seal(MAGIC, 3, &[0; 65]);
        assert!(matches!(
            frame_len(&big[..HEADER_LEN], MAGIC, &VERSIONS, 64),
            Err(EnvelopeError::Field { field: "payload length", .. })
        ));
        let mut flipped = seal(MAGIC, 3, b"xyz");
        flipped[HEADER_LEN] ^= 1;
        let stored = crc32(b"xyz");
        let computed = crc32(b"yyz");
        assert_ne!(stored, computed);
        assert_eq!(open_test(&flipped), Err(EnvelopeError::Crc { stored, computed }));
        let sealed = seal(MAGIC, 3, b"xyz");
        assert!(matches!(
            open_test(&sealed[..sealed.len() - 1]),
            Err(EnvelopeError::LengthMismatch { declared: 3, actual: 2 })
        ));
    }

    #[test]
    fn codec_rejections_are_field_errors_not_truncation() {
        let mut w = Encoder::new();
        w.put_u64(70_000);
        w.put_raw(&[0xFF; 11]);
        let bytes = w.into_bytes();
        let mut c = Fields::new(&bytes);
        let e = c.u16("wide").unwrap_err();
        assert!(matches!(e, EnvelopeError::Field { field: "wide", offset: 0, .. }), "{e}");
        let e = c.u64("overlong").unwrap_err();
        assert!(matches!(e, EnvelopeError::Field { field: "overlong", .. }), "{e}");
        let mut c = Fields::new(&[0x80]);
        assert!(matches!(c.u64("cut"), Err(EnvelopeError::Truncated { field: "cut", .. })));
    }

    #[test]
    fn counts_tags_and_finish() {
        let mut w = Encoder::new();
        w.put_usize(9);
        w.put_u8(7);
        w.put_u8(0);
        let bytes = w.into_bytes();
        let mut c = Fields::new(&bytes);
        assert!(matches!(c.count("n", 8), Err(EnvelopeError::Field { field: "n", .. })));
        let e = c.tag("t", |t| (t < 4).then_some(t)).unwrap_err();
        assert!(e.to_string().contains("unknown tag 7"), "{e}");
        assert_eq!(c.finish(), Err(EnvelopeError::TrailingBytes { offset: 2, remaining: 1 }));
    }
}
