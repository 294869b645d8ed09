//! Vendored, dependency-free CRC-32 (IEEE 802.3, the zlib/gzip
//! polynomial `0xEDB88320`), used to checksum NADB v2 blocks, mining
//! checkpoints and NARS rule-set snapshots.
//!
//! Like the workspace's vendored `rand`/`proptest` stubs, this exists
//! because the build environment has no registry access. The
//! implementation is slicing-by-8 (Kounavis & Berry, "A Systematic
//! Approach to Building High Performance Software-based CRC
//! Generators", ISCC 2005): eight compile-time 256-entry tables fold
//! eight input bytes per step with eight independent lookups, and the
//! tail shorter than eight bytes walks table 0 a byte at a time. The
//! result is the same checksum as the classic byte-at-a-time walk —
//! the tests compare the two on every length, offset and streamed
//! split — verified against the published check value
//! `crc32("123456789") == 0xCBF43926`.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// The slicing-by-8 tables, built at compile time. `TABLES[0]` is the
/// classic byte table; `TABLES[k][n]` is the CRC of byte `n` followed by
/// `k` zero bytes, so one step can fold bytes at eight distances at once.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut n = 0usize;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][n] = c;
        n += 1;
    }
    let mut t = 1usize;
    while t < 8 {
        let mut n = 0usize;
        while n < 256 {
            let prev = tables[t - 1][n];
            tables[t][n] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            n += 1;
        }
        t += 1;
    }
    tables
}

/// A streaming CRC-32 hasher.
///
/// ```
/// use negassoc_txdb::crc32::{crc32, Hasher};
///
/// let mut h = Hasher::new();
/// h.update(b"1234");
/// h.update(b"56789");
/// assert_eq!(h.finalize(), 0xCBF4_3926);
/// assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
/// ```
#[derive(Clone, Debug)]
pub struct Hasher {
    state: u32,
}

impl Hasher {
    /// A fresh hasher.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feed `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut c = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// The checksum of everything fed so far.
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Hasher {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Hasher::new();
    h.update(bytes);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic byte-at-a-time table walk: the reference slicing-by-8
    /// must agree with bit for bit.
    fn bytewise(state: u32, bytes: &[u8]) -> u32 {
        let mut c = state;
        for &b in bytes {
            c = TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c
    }

    fn bytewise_crc(bytes: &[u8]) -> u32 {
        bytewise(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
    }

    /// Bytes with no short period, so a misplaced table index shows.
    fn pattern(len: usize) -> Vec<u8> {
        let mut x: u32 = 0x9E37_79B9;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 11) as u8
            })
            .collect()
    }

    #[test]
    fn table_zero_is_the_bitwise_division() {
        for n in 0..256u32 {
            let mut c = n;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            assert_eq!(TABLES[0][n as usize], c, "byte {n}");
        }
    }

    #[test]
    fn every_short_length_at_every_offset_matches_bytewise() {
        let data = pattern(64 + 8);
        for offset in 0..8 {
            for len in 0..=64 {
                let slice = &data[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    bytewise_crc(slice),
                    "offset {offset} len {len}"
                );
            }
        }
    }

    #[test]
    fn streamed_splits_across_every_word_boundary_match_bytewise() {
        let data = pattern(40);
        let want = bytewise_crc(&data);
        for a in 0..=data.len() {
            for b in a..=data.len() {
                let mut h = Hasher::new();
                h.update(&data[..a]);
                h.update(&data[a..b]);
                h.update(&data[b..]);
                assert_eq!(h.finalize(), want, "split at {a}/{b}");
            }
        }
    }

    /// CRC-32 of the 1 MiB pattern below, computed by the byte-at-a-time
    /// implementation this module used before slicing-by-8.
    const PINNED_1MIB: u32 = 0xB194_0503;

    #[test]
    fn one_mebibyte_checksum_is_pinned() {
        let data: Vec<u8> = (0..1usize << 20)
            .map(|i| (i.wrapping_mul(31) ^ (i >> 7)) as u8)
            .collect();
        assert_eq!(crc32(&data), PINNED_1MIB);
        assert_eq!(bytewise_crc(&data), PINNED_1MIB);
    }

    #[test]
    fn published_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0u16..1024).map(|i| (i % 251) as u8).collect();
        let mut h = Hasher::default();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), crc32(&data));
    }

    #[test]
    fn single_bit_flip_changes_the_sum() {
        let mut data = vec![0u8; 64];
        let base = crc32(&data);
        for byte in 0..64 {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), base, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }
}
