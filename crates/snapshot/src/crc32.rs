//! CRC-32 (IEEE 802.3 polynomial), slicing-by-8.
//!
//! The container records one checksum per section so that a single flipped
//! bit anywhere in a snapshot is detected before any payload is decoded.
//! The reflected polynomial `0xEDB88320` matches zlib/PNG, making section
//! checksums easy to verify with external tooling.
//!
//! Eight lookup tables fold eight input bytes per step: `TABLES[k][b]` is
//! the CRC contribution of byte `b` followed by `k` zero bytes, so the
//! eight lookups of one step are independent and XOR together. The tail
//! (fewer than eight bytes) runs bytewise on `TABLES[0]`.

/// Slicing-by-8 tables for the reflected IEEE polynomial, built at
/// compile time.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 of `bytes` (IEEE, reflected, init/xorout `0xFFFFFFFF`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise reference: one table lookup per byte.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        for v in [&b"123456789"[..], b"", b"a"] {
            assert_eq!(crc32_bytewise(v), crc32(v));
        }
    }

    #[test]
    fn slicing_by_8_matches_bytewise_at_every_length_and_offset() {
        // A seeded xorshift buffer: every tail length and every alignment
        // of the 8-byte steps against the buffer start.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..8 + 67)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=67 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn sensitive_to_single_bit() {
        let a = crc32(b"snapshot payload");
        let mut flipped = b"snapshot payload".to_vec();
        flipped[5] ^= 0x01;
        assert_ne!(a, crc32(&flipped));
    }
}
