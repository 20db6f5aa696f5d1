//! CRC-32 (IEEE 802.3 polynomial), table-driven, eight bytes at a time.
//!
//! Shared by the persistence codec (whole-file checksum, so the
//! corruption-matrix property "any flipped byte makes `load` fail" holds)
//! and the write-ahead log (per-frame checksum, so recovery can find the
//! first torn frame). Hand-rolled to keep the crate dependency-free; the
//! tables are built at compile time.
//!
//! *Slicing-by-8*: `TABLES[0]` is the classic bytewise table, and
//! `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so
//! eight table lookups XORed together advance the register over a whole
//! 8-byte word instead of one byte per lookup. The checksum is the same
//! value the bytewise loop computes — frames and archives already on disk
//! verify unchanged.

const POLY: u32 = 0xEDB8_8320;

const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
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

/// The CRC-32 of `data`.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(word);
        let w = u64::from_le_bytes(bytes) ^ u64::from(crc);
        let b = |shift: u32| ((w >> shift) & 0xFF) as usize;
        crc = t7[b(0)]
            ^ t6[b(8)]
            ^ t5[b(16)]
            ^ t4[b(24)]
            ^ t3[b(32)]
            ^ t2[b(40)]
            ^ t1[b(48)]
            ^ t0[b(56)];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t0[((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-lookup-per-byte loop, kept as the reference the sliced
    /// routine must agree with.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
        }
        !crc
    }

    /// Deterministic pseudo-random bytes (64-bit LCG, high byte).
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // The classic check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn every_single_byte_flip_changes_the_checksum() {
        let data: Vec<u8> = (0..200u16).map(|i| (i % 251) as u8).collect();
        let clean = crc32(&data);
        let mut mutated = data.clone();
        for i in 0..mutated.len() {
            for bit in 0..8 {
                mutated[i] ^= 1 << bit;
                assert_ne!(crc32(&mutated), clean, "flip at byte {i} bit {bit}");
                mutated[i] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn slicing_by_8_equals_the_bytewise_loop() {
        // Every length across the word boundary and its remainders.
        let data = noise(64, 1);
        for len in 0..=64 {
            assert_eq!(crc32(&data[..len]), bytewise(&data[..len]), "length {len}");
        }
        // Longer random buffers starting at every offset within a word.
        for seed in 0..4 {
            let buf = noise(700, seed);
            for start in 0..8 {
                for len in [0, 1, 7, 8, 9, 255, 256, 511, 692] {
                    let slice = &buf[start..start + len];
                    assert_eq!(
                        crc32(slice),
                        bytewise(slice),
                        "seed {seed}, offset {start}, length {len}"
                    );
                }
            }
        }
    }
}
