//! CRC-32 (IEEE 802.3 polynomial), table-driven.
//!
//! Guards every WAL entry so that torn writes and bit rot are detected on
//! replay (DESIGN.md invariant 6).

/// Lazily-built 256-entry lookup table for the reflected polynomial
/// 0xEDB88320.
fn table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
            *entry = crc;
        }
        table
    })
}

/// Compute the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let table = table();
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        let idx = ((crc ^ u32::from(b)) & 0xFF) as usize;
        // `idx` < 256 = the table's length, so the optimizer drops both the
        // bounds check and the `unwrap_or`: the loop stays branch-free.
        crc = (crc >> 8) ^ table.get(idx).copied().unwrap_or(0);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    proptest! {
        #[test]
        fn single_bit_flip_changes_crc(data in proptest::collection::vec(any::<u8>(), 1..256), bit in 0usize..2048) {
            let mut flipped = data.clone();
            let bit = bit % (data.len() * 8);
            flipped[bit / 8] ^= 1 << (bit % 8);
            prop_assert_ne!(crc32(&data), crc32(&flipped));
        }

        #[test]
        fn deterministic(data: Vec<u8>) {
            prop_assert_eq!(crc32(&data), crc32(&data));
        }
    }
}
