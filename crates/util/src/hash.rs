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

/// CRC-16/ARC: polynomial 0x8005 (reflected 0xA001), init 0, no final xor.
pub fn crc16(data: &[u8]) -> u16 {
    let mut crc: u16 = 0;
    for &b in data {
        crc ^= b as u16;
        for _ in 0..8 {
            if crc & 1 != 0 {
                crc = (crc >> 1) ^ 0xA001;
            } else {
                crc >>= 1;
            }
        }
    }
    crc
}

/// CRC-32/IEEE (zlib): polynomial 0x04C11DB7 (reflected 0xEDB88320).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            if crc & 1 != 0 {
                crc = (crc >> 1) ^ 0xEDB8_8320;
            } else {
                crc >>= 1;
            }
        }
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

/// Hashes a `u32` key the way NetCL device code does: over its LE bytes.
pub fn crc16_u32(key: u32) -> u16 {
    crc16(&key.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn u32_helpers_match_byte_forms() {
        let k = 0x1234_5678u32;
        assert_eq!(crc16_u32(k), crc16(&k.to_le_bytes()));
    }

    #[test]
    fn different_keys_rarely_collide_in_16_bits() {
        // Smoke-test distribution: 1000 sequential keys, expect near-unique
        // CRC16 images (collisions allowed but bounded).
        let mut seen = std::collections::HashSet::new();
        for k in 0u32..1000 {
            seen.insert(crc16_u32(k));
        }
        assert!(seen.len() > 980, "too many CRC16 collisions: {}", 1000 - seen.len());
    }
}
