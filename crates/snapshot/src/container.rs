//! The container format: magic, format version, named sections, per-section
//! CRC-32.
//!
//! Byte layout (all multi-byte header integers little-endian, fixed width —
//! the header must be parseable before trusting anything):
//!
//! ```text
//! +--------+---------+------------+----------------------------------+---------+
//! | "PCSN" | version | n_sections | table: (name_len u16, name,      | payload |
//! | 4 B    | u16     | u32        |         payload_len u64, crc u32)| bytes   |
//! +--------+---------+------------+----------------------------------+---------+
//! ```
//!
//! Payloads are concatenated after the table in table order. A reader
//! validates, in order: magic, version, header/table bounds, then each
//! section's CRC — so truncated input, foreign files, future formats and
//! bit flips each produce their own [`SnapError`] before any payload is
//! interpreted by a [`Snapshot`](crate::Snapshot) decoder.

use crate::codec::{Decoder, Encoder};
use crate::crc32::crc32;
use crate::error::SnapError;

/// First bytes of every snapshot file.
pub const MAGIC: [u8; 4] = *b"PCSN";

/// Newest container format version this build reads and writes.
///
/// Bump on any layout change; readers reject anything newer than what they
/// understand rather than misinterpreting it.
pub const FORMAT_VERSION: u16 = 1;

/// Builds a snapshot container section by section.
#[derive(Debug, Default)]
pub struct ContainerWriter {
    sections: Vec<(String, Vec<u8>)>,
}

impl ContainerWriter {
    /// An empty container.
    pub fn new() -> Self {
        ContainerWriter { sections: Vec::new() }
    }

    /// Adds a named section whose payload is produced by `fill`.
    pub fn section(&mut self, name: &str, fill: impl FnOnce(&mut Encoder)) {
        let mut enc = Encoder::new();
        fill(&mut enc);
        self.sections.push((name.to_owned(), enc.into_bytes()));
    }

    /// Serializes the container.
    pub fn finish(self) -> Vec<u8> {
        let table_len: usize = self.sections.iter().map(|(name, _)| 2 + name.len() + 8 + 4).sum();
        let payload_len: usize = self.sections.iter().map(|(_, p)| p.len()).sum();
        let mut out = Vec::with_capacity(4 + 2 + 4 + table_len + payload_len);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (name, payload) in &self.sections {
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&crc32(payload).to_le_bytes());
        }
        for (_, payload) in &self.sections {
            out.extend_from_slice(payload);
        }
        out
    }
}

/// A parsed, checksum-verified container borrowed from its byte string.
#[derive(Debug)]
pub struct ContainerReader<'a> {
    sections: Vec<(&'a str, &'a [u8])>,
}

/// Fixed-width header cursor (separate from the varint [`Decoder`]).
struct Header<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Header<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.buf.len() - self.pos < n {
            return Err(SnapError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn take_u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn take_u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn take_u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
}

impl<'a> ContainerReader<'a> {
    /// Parses and fully verifies a container: magic, version, structural
    /// bounds and every section's CRC.
    ///
    /// # Errors
    ///
    /// [`SnapError::BadMagic`], [`SnapError::Version`],
    /// [`SnapError::Truncated`] or [`SnapError::Corrupt`] depending on the
    /// first defect found.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, SnapError> {
        let mut h = Header { buf: bytes, pos: 0 };
        if h.take(4)? != MAGIC {
            return Err(SnapError::BadMagic);
        }
        let version = h.take_u16()?;
        if version == 0 || version > FORMAT_VERSION {
            return Err(SnapError::Version { found: version, supported: FORMAT_VERSION });
        }
        let n = h.take_u32()? as usize;
        let mut table = Vec::with_capacity(n.min(bytes.len()));
        for _ in 0..n {
            let name_len = h.take_u16()? as usize;
            let name = std::str::from_utf8(h.take(name_len)?)
                .map_err(|_| SnapError::invalid("section name is not UTF-8"))?;
            let payload_len = h.take_u64()?;
            let payload_len = usize::try_from(payload_len)
                .map_err(|_| SnapError::invalid("section length exceeds usize"))?;
            let crc = h.take_u32()?;
            table.push((name, payload_len, crc));
        }
        // Bounds before checksums: a short input is reported as truncated
        // without first checksumming the sections that did arrive.
        let total = table.iter().try_fold(0usize, |sum, &(_, len, _)| sum.checked_add(len));
        if total.is_none_or(|total| total > bytes.len() - h.pos) {
            return Err(SnapError::Truncated);
        }
        let mut sections = Vec::with_capacity(table.len());
        for (name, len, crc) in table {
            let payload = h.take(len)?;
            if crc32(payload) != crc {
                return Err(SnapError::Corrupt { section: name.to_owned() });
            }
            sections.push((name, payload));
        }
        if h.pos != bytes.len() {
            return Err(SnapError::invalid("trailing bytes after last section"));
        }
        Ok(ContainerReader { sections })
    }

    /// A varint decoder over the named section's verified payload.
    ///
    /// # Errors
    ///
    /// [`SnapError::MissingSection`] if the container has no such section.
    pub fn section(&self, name: &str) -> Result<Decoder<'a>, SnapError> {
        self.sections
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, payload)| Decoder::new(payload))
            .ok_or_else(|| SnapError::MissingSection { section: name.to_owned() })
    }

    /// Section names in container order.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|(n, _)| *n)
    }

    /// Total payload bytes across all sections.
    pub fn payload_len(&self) -> usize {
        self.sections.iter().map(|(_, p)| p.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = ContainerWriter::new();
        w.section("alpha", |e| e.put_u64(12345));
        w.section("beta", |e| {
            e.put_str("hello");
            e.put_bool(true);
        });
        w.finish()
    }

    #[test]
    fn round_trip() {
        let bytes = sample();
        let r = ContainerReader::parse(&bytes).unwrap();
        assert_eq!(r.section_names().collect::<Vec<_>>(), ["alpha", "beta"]);
        let mut d = r.section("alpha").unwrap();
        assert_eq!(d.take_u64().unwrap(), 12345);
        d.finish().unwrap();
        let mut d = r.section("beta").unwrap();
        assert_eq!(d.take_str().unwrap(), "hello");
        assert!(d.take_bool().unwrap());
    }

    #[test]
    fn missing_section() {
        let bytes = sample();
        let r = ContainerReader::parse(&bytes).unwrap();
        assert_eq!(
            r.section("gamma").unwrap_err(),
            SnapError::MissingSection { section: "gamma".into() }
        );
    }

    #[test]
    fn bad_magic() {
        let mut bytes = sample();
        bytes[0] = b'X';
        assert_eq!(ContainerReader::parse(&bytes).unwrap_err(), SnapError::BadMagic);
        assert_eq!(ContainerReader::parse(b"hi").unwrap_err(), SnapError::Truncated);
    }

    #[test]
    fn future_version_rejected() {
        let mut bytes = sample();
        bytes[4] = 0xFF;
        bytes[5] = 0x7F;
        assert!(matches!(ContainerReader::parse(&bytes), Err(SnapError::Version { .. })));
    }

    #[test]
    fn every_truncation_rejected() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            assert!(ContainerReader::parse(&bytes[..cut]).is_err(), "truncation at {cut} accepted");
        }
    }

    #[test]
    fn every_payload_bit_flip_detected() {
        let bytes = sample();
        let payload_start = bytes.len() - ContainerReader::parse(&bytes).unwrap().payload_len();
        for i in payload_start..bytes.len() {
            let mut evil = bytes.clone();
            evil[i] ^= 0x40;
            assert!(
                matches!(ContainerReader::parse(&evil), Err(SnapError::Corrupt { .. })),
                "flip at {i} undetected"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = sample();
        bytes.push(0);
        assert!(matches!(ContainerReader::parse(&bytes), Err(SnapError::Invalid(_))));
    }
}
