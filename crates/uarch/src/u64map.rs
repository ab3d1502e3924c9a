//! A hash map for the simulator's hot `u64`-keyed tables (static PCs,
//! 8-byte store granules).
//!
//! The keys come from the simulated program, not from an adversary, so the
//! DoS resistance SipHash buys is wasted on them. [`MulHasher`] is one
//! multiply per key: Fibonacci hashing, with the well-mixed high product
//! bits rotated down to where the table takes its bucket index (PCs are
//! multiples of four, so the raw product's low bits would be constant).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `u64`-keyed [`HashMap`] hashed with [`MulHasher`].
pub type U64Map<V> = HashMap<u64, V, BuildHasherDefault<MulHasher>>;

/// Multiplicative hasher for integer keys.
#[derive(Debug, Default, Clone, Copy)]
pub struct MulHasher(u64);

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn aligned_keys_spread_over_low_bits() {
        // Word-aligned PCs must still reach every bucket of a small table.
        let build = BuildHasherDefault::<MulHasher>::default();
        let mut seen = [false; 64];
        for i in 0..256u64 {
            seen[(build.hash_one(0x1000 + 4 * i) & 63) as usize] = true;
        }
        assert!(seen.iter().filter(|&&b| b).count() > 48);
    }

    #[test]
    fn behaves_as_a_map() {
        let mut m: U64Map<u32> = U64Map::default();
        for i in 0..1000u64 {
            m.insert(i << 3, i as u32);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(500 << 3)), Some(&500));
        assert_eq!(m.get(&1), None);
    }
}
