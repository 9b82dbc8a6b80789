//! A `HashMap` for keys that are integers this program mints itself.
//!
//! `std`'s default SipHash-1-3 exists to resist keys crafted to collide.
//! Container ids are a pool's own counter and never come from the wire,
//! so that protection buys nothing there and its cost sits on every warm
//! hit. [`IdMap`] hashes one integer with one multiplication. Maps keyed
//! by anything a client can choose (function names, tenants, idempotency
//! keys) must keep the default hasher.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative (Fibonacci) hasher for a single integer key.
///
/// Multiplying by an odd constant permutes the integers modulo every
/// power of two, so consecutive ids land in distinct buckets (the table
/// indexes by the low bits) while the golden-ratio constant scatters the
/// high bits the table uses as its per-slot tag.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

/// 2^64 / φ, rounded to odd.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Not the integer path the alias is for; kept correct for any key.
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(GOLDEN);
    }
}

/// A `HashMap` keyed by a program-minted integer id (see the module docs).
///
/// # Examples
///
/// ```
/// use faascache_util::idmap::IdMap;
/// let mut m: IdMap<u64, &str> = IdMap::default();
/// m.insert(7, "seven");
/// assert_eq!(m.get(&7), Some(&"seven"));
/// ```
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn consecutive_ids_fill_distinct_low_bit_buckets() {
        let build = BuildHasherDefault::<IdHasher>::default();
        for bits in [4u32, 10, 16] {
            let mask = (1u64 << bits) - 1;
            let mut seen = vec![false; 1 << bits];
            for id in 0..(1u64 << bits) {
                let bucket = (build.hash_one(id) & mask) as usize;
                assert!(!seen[bucket], "ids collide in the low {bits} bits");
                seen[bucket] = true;
            }
        }
    }

    #[test]
    fn behaves_as_a_map() {
        let mut m: IdMap<u64, u64> = IdMap::default();
        for id in 0..10_000u64 {
            m.insert(id, id * 2);
        }
        assert_eq!(m.len(), 10_000);
        for id in (0..10_000u64).step_by(7) {
            assert_eq!(m.remove(&id), Some(id * 2));
        }
        assert_eq!(m.get(&7), None);
        assert_eq!(m.get(&8), Some(&16));
    }
}
