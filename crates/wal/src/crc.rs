//! CRC-32 (IEEE 802.3 polynomial, the zlib/`cksum -o 3` variant): the
//! per-record and per-checkpoint integrity check. Slice-by-8: eight
//! lookup tables built at compile time fold eight input bytes per step
//! instead of one, with the same checksums as the bytewise loop; every
//! page-in verifies a whole checkpoint.

/// Reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[k][b]` is the CRC register after byte `b` followed by `k` zero
/// bytes: `TABLES[0]` is the bytewise table, and one slice-by-8 step folds
/// the byte `k` places before the end of its eight-byte chunk through
/// `TABLES[k]`.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut k = 0usize;
    while k < 8 {
        let mut i = 0usize;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 * (k + 1) {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            // lint:allow(panic-freedom) const-time table fill; k < 8 and i < 256 by the loop bounds
            tables[k][i] = crc;
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Entry `byte & 0xFF` of table `table` (0 past the eighth table, which no
/// caller asks for).
fn entry(table: usize, byte: u64) -> u32 {
    TABLES
        .get(table)
        .and_then(|t| t.get((byte & 0xFF) as usize))
        .copied()
        .unwrap_or(0)
}

/// CRC-32 of `data` (IEEE, reflected, init/final XOR `0xFFFF_FFFF`).
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        // `chunks_exact` yields eight bytes, so the conversion succeeds.
        let word = u64::from_le_bytes(chunk.try_into().unwrap_or_default()) ^ u64::from(crc);
        crc = entry(7, word)
            ^ entry(6, word >> 8)
            ^ entry(5, word >> 16)
            ^ entry(4, word >> 24)
            ^ entry(3, word >> 32)
            ^ entry(2, word >> 40)
            ^ entry(1, word >> 48)
            ^ entry(0, word >> 56);
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ entry(0, u64::from(crc ^ u32::from(byte)));
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let base = crc32(b"hello world");
        let mut flipped = *b"hello world";
        flipped[3] ^= 0x01;
        assert_ne!(base, crc32(&flipped));
    }

    /// The textbook bit-at-a-time CRC-32, sharing no table with `crc32`.
    fn bitwise_reference(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn slice_by_8_matches_the_bitwise_reference() {
        // A seeded xorshift stream: every length 0..=64 covers each
        // chunk/remainder split, the large buffers cover long chunk runs
        // and unaligned starts.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut bytes = vec![0u8; 300_007];
        for byte in &mut bytes {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *byte = (state >> 24) as u8;
        }
        for len in 0..=64 {
            assert_eq!(
                crc32(&bytes[..len]),
                bitwise_reference(&bytes[..len]),
                "len {len}"
            );
        }
        for (start, len) in [(0, 131_072), (3, 131_079), (1, 300_000), (5, 4_099)] {
            let slice = &bytes[start..start + len];
            assert_eq!(crc32(slice), bitwise_reference(slice), "{start}+{len}");
        }
    }
}
