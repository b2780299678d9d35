//! CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the checksum
//! guarding every snapshot section. Tables built at compile time so the
//! crate stays dependency-free.
//!
//! Slicing-by-16: `TABLES[k][b]` is the CRC contribution of byte `b`
//! followed by `k` zero bytes, so one step folds 16 input bytes with 16
//! independent lookups instead of a 16-long dependency chain. The value
//! is the plain byte-at-a-time CRC's, bit for bit.

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
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

static TABLES: [[u32; 256]; 16] = build_tables();

/// CRC-32 of `data`, matching the common `crc32` found in zlib/PNG.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let (blocks, tail) = data.as_chunks::<16>();
    for b in blocks {
        // Byte `j` has `15 - j` block bytes after it, so it takes table
        // `15 - j`; the running CRC folds into the first four.
        let head = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][head as u8 as usize]
            ^ t[14][(head >> 8) as u8 as usize]
            ^ t[13][(head >> 16) as u8 as usize]
            ^ t[12][(head >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in tail {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop the sliced version must reproduce.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// Deterministic non-repeating filler (splitmix64 bytes).
    fn filler(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn sliced_equals_bytewise_at_every_length() {
        let data = filler(300);
        for len in 0..=300 {
            assert_eq!(crc32(&data[..len]), bytewise(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn sliced_equals_bytewise_at_every_start_offset() {
        let data = filler(16 * 40 + 7);
        for start in 0..16 {
            let tail = &data[start..];
            assert_eq!(crc32(tail), bytewise(tail), "start {start}");
        }
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let data = b"the quick brown fox jumps over the lazy dog".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at byte {byte} bit {bit}");
            }
        }
    }

    proptest! {
        #[test]
        fn sliced_equals_bytewise_on_random_buffers(
            data in prop::collection::vec(any::<u8>(), 0..2048),
        ) {
            prop_assert_eq!(crc32(&data), bytewise(&data));
        }
    }
}
