//! Hashing for map keys whose bytes are already uniform: keccak message
//! ids, Poseidon nullifiers and pre-mixed `u64` keys.
//!
//! Std's default SipHash re-mixes every byte of such a key and costs more
//! than the lookup it serves. [`PrefixState`] takes the key's first 8
//! bytes (or the `u64` itself), ignores length prefixes, and mixes in a
//! per-process random seed once, so where a key lands differs from one
//! process to the next. Nothing may therefore depend on the iteration
//! order of a map built on it.
//!
//! [`ProbeIndex`] is the one index built on it that holds no keys of its
//! own: positions in a table its caller keeps, found by a 32-bit hash of
//! the entry and a comparison against the table.
//!
//! ```
//! use std::collections::HashMap;
//! use waku_hash::PrefixState;
//!
//! let mut seen: HashMap<[u8; 32], u32, PrefixState> = HashMap::default();
//! seen.insert([7; 32], 1);
//! assert_eq!(seen.get(&[7; 32]), Some(&1));
//! ```

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// The odd multiplier of the final mix: 2⁶⁴ / φ.
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// The `BuildHasher` of maps keyed by uniform bytes; every instance in a
/// process carries the same seed.
#[derive(Clone, Copy, Debug)]
pub struct PrefixState {
    seed: u64,
}

impl Default for PrefixState {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        PrefixState {
            seed: *SEED.get_or_init(|| RandomState::new().hash_one(0u64)),
        }
    }
}

impl BuildHasher for PrefixState {
    type Hasher = PrefixHasher;

    fn build_hasher(&self) -> PrefixHasher {
        PrefixHasher {
            seed: self.seed,
            key: 0,
        }
    }
}

/// The hasher [`PrefixState`] builds. A key's bytes arrive in one
/// `write`, whose first 8 bytes (zero-padded when shorter) become the
/// key; a later write replaces them.
#[derive(Clone, Copy, Debug)]
pub struct PrefixHasher {
    seed: u64,
    key: u64,
}

impl Hasher for PrefixHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut prefix = [0u8; 8];
        let n = bytes.len().min(8);
        prefix[..n].copy_from_slice(&bytes[..n]);
        self.key = u64::from_le_bytes(prefix);
    }

    #[inline]
    fn write_u32(&mut self, key: u32) {
        self.key = u64::from(key);
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        self.key = key;
    }

    /// Length prefixes carry nothing a uniform key does not.
    #[inline]
    fn write_usize(&mut self, _len: usize) {}

    /// The seeded key, folded through one 64 × 64 → 128-bit product so
    /// the seed moves every bit of the result.
    #[inline]
    fn finish(&self) -> u64 {
        let product = u128::from(self.key ^ self.seed) * u128::from(MIX);
        product as u64 ^ (product >> 64) as u64
    }
}

/// Positions of the entries of a table the caller keeps, keyed by a
/// uniform 32-bit hash of each entry. An entry whose hash is taken by a
/// different one moves on to the next free key, so a lookup compares
/// entries until it finds its own or a free key: 8 B of index an entry,
/// none of them a copy of the entry. Entries are never removed one by
/// one; [`ProbeIndex::clear`] drops them all.
#[derive(Clone, Debug, Default)]
pub struct ProbeIndex {
    map: HashMap<u32, u32, PrefixState>,
}

impl ProbeIndex {
    /// The position of the entry `is_entry` accepts, searched from key
    /// `hash` on; or the free key it belongs at.
    #[inline]
    pub fn find(&self, hash: u32, is_entry: impl Fn(u32) -> bool) -> Result<u32, u32> {
        let mut key = hash;
        loop {
            match self.map.get(&key) {
                Some(&at) if is_entry(at) => return Ok(at),
                Some(_) => key = key.wrapping_add(1),
                None => return Err(key),
            }
        }
    }

    /// Records position `at` under the free `key` a [`ProbeIndex::find`]
    /// returned.
    #[inline]
    pub fn insert(&mut self, key: u32, at: u32) {
        self.map.insert(key, at);
    }

    /// Positions indexed.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Forgets every position and keeps the table's room.
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_hash_by_their_first_eight_bytes() {
        let state = PrefixState::default();
        let mut a = [3u8; 32];
        let mut b = [3u8; 32];
        a[31] = 1;
        b[31] = 2;
        assert_eq!(state.hash_one(a), state.hash_one(b));
        b[0] = 4;
        assert_ne!(state.hash_one(a), state.hash_one(b));
        let prefix = u64::from_le_bytes([3; 8]);
        assert_eq!(state.hash_one(a), state.hash_one(prefix));
    }

    #[test]
    fn maps_keep_prefix_colliding_keys_apart() {
        let mut map: HashMap<[u8; 32], u32, PrefixState> = HashMap::default();
        for tail in 0..100u8 {
            let mut key = [9u8; 32];
            key[31] = tail;
            map.insert(key, u32::from(tail));
        }
        assert_eq!(map.len(), 100);
        let mut key = [9u8; 32];
        key[31] = 42;
        assert_eq!(map.get(&key), Some(&42));
    }

    #[test]
    fn probe_index_moves_a_taken_hash_to_the_next_free_key() {
        let table = ["a", "b", "c"];
        let mut index = ProbeIndex::default();
        for (at, entry) in table.iter().enumerate() {
            // Every entry hashes to 7.
            let key = index
                .find(7, |i| table[i as usize] == *entry)
                .expect_err("not yet indexed");
            assert_eq!(key, 7 + at as u32);
            index.insert(key, at as u32);
        }
        assert_eq!(index.len(), 3);
        for (at, entry) in table.iter().enumerate() {
            assert_eq!(
                index.find(7, |i| table[i as usize] == *entry),
                Ok(at as u32)
            );
        }
        assert_eq!(index.find(7, |_| false), Err(10));
        index.clear();
        assert!(index.is_empty());
    }
}
