//! Grid fingerprints shared by [`crate::campaign::Campaign`] and
//! [`crate::transfer::TransferGrid`]. Both runners spread their work
//! units over [`bea_tensor::threads::fan_out`], which commits each result
//! into the slot of its index, so scheduling cannot influence any output.

/// FNV-1a 64-bit hash: grid fingerprints and file-name disambiguation.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
