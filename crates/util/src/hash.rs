//! The hash functions exposed by the NetCL device library (Table I) and used
//! by the Tofino hash engines.
//!
//! These are bit-exact implementations of the algorithms a TNA `Hash` extern
//! can be configured with: CRC-16 (ARC polynomial, as `HashAlgorithm_t.CRC16`),
//! CRC-32 (IEEE 802.3, as `HashAlgorithm_t.CRC32`), and a 16-bit XOR fold
//! (`HashAlgorithm_t.XOR16`). The compiler maps `ncl::crc16`, `ncl::crc32<N>`
//! and `ncl::xor16` calls onto these, and the bmv2 interpreter evaluates
//! generated `Hash.apply` nodes with the same code, so host-side sketches and
//! in-switch sketches agree exactly.
//!
//! [`splitmix64`] is the one pseudo-random step of the toolchain: the P4
//! `random` extern on both engines and the IR interpreter, the simulator's
//! per-node chaos streams and the workload generator all draw from it, and
//! [`mix64`], its output function, is the simulator's bit mixer.
//!
//! [`IntMap`] is the map for small integer keys the program makes up
//! itself: the reliable-delivery tables and the fat-tree partitioner's
//! flow-pair counts.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The 256-entry table of a reflected CRC: entry `b` is the register after
/// shifting byte `b` through eight bit-steps of `poly` (reflected), so one
/// lookup stands for the eight steps.
const fn reflected_table(poly: u32) -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut step = 0;
        while step < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ poly } else { crc >> 1 };
            step += 1;
        }
        table[b] = crc;
        b += 1;
    }
    table
}

/// CRC-16/ARC's table; every entry fits in 16 bits.
static CRC16_TABLE: [u32; 256] = reflected_table(0xA001);
/// CRC-32/IEEE's table.
static CRC32_TABLE: [u32; 256] = reflected_table(0xEDB8_8320);

/// CRC-16/ARC: polynomial 0x8005 (reflected 0xA001), init 0, no final xor.
pub fn crc16(data: &[u8]) -> u16 {
    let mut crc: u16 = 0;
    for &b in data {
        crc = (crc >> 8) ^ CRC16_TABLE[((crc ^ b as u16) & 0xFF) as usize] as u16;
    }
    crc
}

/// CRC-32/IEEE (zlib): polynomial 0x04C11DB7 (reflected 0xEDB88320).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in data {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// XOR-fold of the input into 16 bits, processing little-endian 16-bit lanes.
///
/// Odd trailing bytes contribute as the low half of a lane.
pub fn xor16(data: &[u8]) -> u16 {
    let mut acc: u16 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        acc ^= u16::from_le_bytes([c[0], c[1]]);
    }
    if let [last] = chunks.remainder() {
        acc ^= *last as u16;
    }
    acc
}

/// Truncates/folds a hash to `bits` output bits (1..=32), as the TNA `Hash`
/// extern does when its output type is narrower than the algorithm width.
pub fn fold_to_bits(value: u32, bits: u32) -> u32 {
    assert!((1..=32).contains(&bits), "hash output width out of range");
    if bits == 32 {
        value
    } else {
        value & ((1u32 << bits) - 1)
    }
}

/// The SplitMix64 output function: a bijective 64-bit mixer.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One SplitMix64 step: advances `state` by the golden-ratio increment
/// and returns the mixed new state — deterministic and
/// platform-independent.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    mix64(*state)
}

/// Multiplicative hashing for maps keyed by small integers this program
/// makes up itself — sequence numbers, chunk ids, slots, dense node
/// indices. Consecutive keys land in distinct buckets; there is no defence
/// against crafted keys, so never key one by a value read off the wire.
#[derive(Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b as u64));
    }
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A `HashMap` over [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-step form the tables stand for: eight shifts of the
    /// reflected polynomial per byte.
    fn bitwise(data: &[u8], init: u32, poly: u32) -> u32 {
        let mut crc = init;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ poly } else { crc >> 1 };
            }
        }
        crc
    }

    fn crc16_oracle(data: &[u8]) -> u16 {
        bitwise(data, 0, 0xA001) as u16
    }

    fn crc32_oracle(data: &[u8]) -> u32 {
        !bitwise(data, 0xFFFF_FFFF, 0xEDB8_8320)
    }

    #[test]
    fn tables_match_the_bit_steps_on_every_byte() {
        for b in 0..=255u8 {
            assert_eq!(crc16(&[b]), crc16_oracle(&[b]), "crc16 of {b:#04x}");
            assert_eq!(crc32(&[b]), crc32_oracle(&[b]), "crc32 of {b:#04x}");
        }
    }

    #[test]
    fn tables_match_the_bit_steps_on_seeded_keys() {
        // xorshift64*, seeded: 10 000 keys of 1 to 8 bytes.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for _ in 0..10_000 {
            let len = 1 + (next() % 8) as usize;
            let key = next().to_le_bytes();
            let key = &key[..len];
            assert_eq!(crc16(key), crc16_oracle(key), "crc16 of {key:02x?}");
            assert_eq!(crc32(key), crc32_oracle(key), "crc32 of {key:02x?}");
        }
    }

    // Check-values from the CRC catalogue (input "123456789").
    const CHECK_INPUT: &[u8] = b"123456789";

    #[test]
    fn crc16_arc_check_value() {
        assert_eq!(crc16(CHECK_INPUT), 0xBB3D);
    }

    #[test]
    fn crc32_ieee_check_value() {
        assert_eq!(crc32(CHECK_INPUT), 0xCBF4_3926);
    }

    #[test]
    fn crc_empty_input() {
        assert_eq!(crc16(&[]), 0);
        assert_eq!(crc32(&[]), 0);
        assert_eq!(xor16(&[]), 0);
    }

    #[test]
    fn xor16_folds_pairs() {
        // 0x0201 ^ 0x0403 = 0x0602
        assert_eq!(xor16(&[0x01, 0x02, 0x03, 0x04]), 0x0602);
        // odd tail contributes low byte
        assert_eq!(xor16(&[0x01, 0x02, 0xFF]), 0x0201 ^ 0x00FF);
    }

    #[test]
    fn fold_masks_low_bits() {
        assert_eq!(fold_to_bits(0xDEAD_BEEF, 16), 0xBEEF);
        assert_eq!(fold_to_bits(0xDEAD_BEEF, 32), 0xDEAD_BEEF);
        assert_eq!(fold_to_bits(0xFF, 4), 0xF);
        assert_eq!(fold_to_bits(0xFF, 1), 1);
    }

    #[test]
    #[should_panic(expected = "hash output width")]
    fn fold_rejects_zero_bits() {
        fold_to_bits(1, 0);
    }

    #[test]
    fn different_keys_rarely_collide_in_16_bits() {
        // Smoke-test distribution: 1000 sequential keys, expect near-unique
        // CRC16 images (collisions allowed but bounded).
        let mut seen = std::collections::HashSet::new();
        for k in 0u32..1000 {
            seen.insert(crc16(&k.to_le_bytes()));
        }
        assert!(seen.len() > 980, "too many CRC16 collisions: {}", 1000 - seen.len());
    }

    /// The published SplitMix64 stream from state 0.
    #[test]
    fn splitmix64_matches_the_reference_stream() {
        let mut state = 0;
        let draws = [splitmix64(&mut state), splitmix64(&mut state), splitmix64(&mut state)];
        assert_eq!(draws, [0xE220_A839_7B1D_CDAF, 0x6E78_9E6A_A1B9_65F4, 0x06C4_5D18_8009_454F]);
        assert_eq!(state, 3u64.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
}
