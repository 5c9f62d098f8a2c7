//! The storage path's one hasher.
//!
//! Every key the storage layers hash is generated by the system itself —
//! segment-tree node keys, page keys, node ids — so no outsider picks keys
//! to collide them, and the per-process random keying of SipHash buys
//! nothing here while costing two SipHash passes per lookup. [`FastHasher`]
//! folds each input word in with a multiply and a rotate, then mixes the
//! state with a 64-bit finalizer so that every output bit depends on every
//! input bit: shard masks and hash-table buckets alike can use any bits.
//!
//! It is unkeyed and deterministic: the same key hashes to the same value
//! in every process, which keeps ring placement reproducible.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Odd multiplier of the word fold (the golden-ratio constant).
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiply-rotate word hasher with a 64-bit finalizer. See the module docs
/// for why it is unkeyed.
#[derive(Debug, Clone, Copy)]
pub struct FastHasher {
    state: u64,
}

impl Default for FastHasher {
    /// Starts from a fixed non-zero state (digits of pi), so a zero word
    /// does not hash to zero.
    fn default() -> Self {
        FastHasher {
            state: 0x243F_6A88_85A3_08D3,
        }
    }
}

impl FastHasher {
    fn fold(&mut self, word: u64) {
        self.state = (self.state.rotate_left(26) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in words.by_ref() {
            self.fold(u64::from_le_bytes(word.try_into().unwrap_or_default()));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            // The tail's length rides in the top byte, so "a" and "a\0" differ.
            self.fold(u64::from_le_bytes(last) ^ ((tail.len() as u64) << 56));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.fold(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.fold(n as u64);
    }

    /// The murmur3 64-bit finalizer over the folded state.
    fn finish(&self) -> u64 {
        let mut h = self.state;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }
}

/// Builds [`FastHasher`]s for the collections below.
pub type BuildFastHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` hashed by [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildFastHasher>;

/// A `HashSet` hashed by [`FastHasher`].
pub type FastSet<K> = HashSet<K, BuildFastHasher>;

/// Hash one value with [`FastHasher`].
pub fn fast_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FastHasher::default();
    value.hash(&mut h);
    h.finish()
}

/// The shard of `shards` (a power of two) a hash falls in. It reads the
/// hash's middle bits: a shard's own hash table indexes its buckets by the
/// low bits and tags them with the top ones, and keys that share a shard
/// must not share those too.
pub fn shard_index(hash: u64, shards: usize) -> usize {
    debug_assert!(shards.is_power_of_two());
    (hash >> 32) as usize & (shards - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_is_deterministic_and_length_aware() {
        assert_eq!(fast_hash(b"key".as_slice()), fast_hash(b"key".as_slice()));
        assert_eq!(fast_hash(&(1u64, 2u64)), fast_hash(&(1u64, 2u64)));
        assert_ne!(fast_hash(&(1u64, 2u64)), fast_hash(&(2u64, 1u64)));
        // Trailing NULs change the key, so they change the hash.
        let mut a = FastHasher::default();
        a.write(b"a");
        let mut b = FastHasher::default();
        b.write(b"a\0");
        assert_ne!(a.finish(), b.finish());
        assert_ne!(fast_hash(&0u64), 0, "the finalizer moves zero");
    }

    #[test]
    fn sequential_words_spread_over_shards_and_buckets() {
        // Consecutive integers, the worst case for a plain multiplicative
        // hash's low bits: every shard and every low-bit bucket gets its
        // share.
        let n = 64 * 1024u64;
        let mut shards = [0u32; 64];
        let mut buckets = [0u32; 256];
        for i in 0..n {
            let h = fast_hash(&i);
            shards[shard_index(h, 64)] += 1;
            buckets[(h & 255) as usize] += 1;
        }
        let mean = (n / 64) as u32;
        assert!(
            shards.iter().all(|&c| c > mean / 2 && c < mean * 2),
            "{shards:?}"
        );
        let mean = (n / 256) as u32;
        assert!(
            buckets.iter().all(|&c| c > mean / 2 && c < mean * 2),
            "{buckets:?}"
        );
    }

    #[test]
    fn fast_collections_work_like_std_ones() {
        let mut map: FastMap<Vec<u8>, u32> = FastMap::default();
        map.insert(b"a".to_vec(), 1);
        map.insert(b"b".to_vec(), 2);
        assert_eq!(map.get(b"a".as_slice()), Some(&1));
        let set: FastSet<u64> = (0..100).collect();
        assert!(set.contains(&42) && !set.contains(&100));
    }
}
