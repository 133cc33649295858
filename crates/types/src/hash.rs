//! Deterministic fast hashing for the simulator's hot maps.
//!
//! `std::HashMap`'s default `RandomState` (SipHash-1-3) is built to resist
//! hash-flooding from untrusted input. Simulator keys — `(Pid, BlockAddr)`
//! pairs, page numbers, physical block indices — are trusted and tiny, so
//! the hot protocol maps (ACC `forwards`, the page table, the AX-RMAP)
//! pay SipHash's per-lookup cost for nothing,
//! *and* lose cross-process determinism to the random seed.
//!
//! [`FxHasher`] is the classic multiply-xor-rotate word hash used by
//! compilers for exactly this workload: one rotate, one xor and one
//! multiply per 8-byte word, with a **fixed** seed. Two properties matter
//! here:
//!
//! * **Speed** — small-key hashing drops to a handful of ALU operations,
//!   which is visible in refs/sec because every TLB miss walks the page
//!   table and every tile fill probes the AX-RMAP.
//! * **Determinism** — the same key hashes identically in every process,
//!   so map-internal ordering cannot vary between runs. (Simulation
//!   results must not depend on map iteration order regardless — see the
//!   audit note on each swapped map — but a fixed seed removes the
//!   randomness by construction.)
//!
//! # Examples
//!
//! ```
//! use fusion_types::hash::FxHashMap;
//!
//! let mut m: FxHashMap<(u32, u64), u64> = FxHashMap::default();
//! m.insert((1, 0x40), 7);
//! assert_eq!(m.get(&(1, 0x40)), Some(&7));
//! ```

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the Fx aliases and their sorted snapshots are defined here"
)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier: a 64-bit constant with a good bit mix (the golden-ratio
/// derived constant used by the Firefox/rustc Fx hash family).
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Word-at-a-time multiply-xor-rotate hasher with a fixed (zero) seed.
///
/// Not cryptographic and not flood-resistant — only for trusted keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    /// Folds one 64-bit word into the state.
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    #[expect(
        clippy::unwrap_used,
        reason = "chunks_exact(8) yields exact-size slices"
    )]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in chunks.by_ref() {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "folds the low half here, then the high half"
    )]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`]: no state, no random seed.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Drop-in `HashMap` with the deterministic [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Drop-in `HashSet` with the deterministic [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Snapshots a map's entries in ascending key order.
///
/// The sanctioned way to walk an [`FxHashMap`] when the consumer is
/// order-sensitive (rendering, digesting, replay): hash-map iteration
/// order is an implementation detail even with a fixed seed, so any
/// ordered output must pass through an explicit sort. Clippy rejects
/// direct iteration outside this module (see `clippy.toml`).
pub fn sorted_entries<K: Ord + Clone, V: Clone, S>(map: &HashMap<K, V, S>) -> Vec<(K, V)> {
    let mut v: Vec<(K, V)> = map
        .iter()
        .map(|(k, val)| (k.clone(), val.clone()))
        .collect();
    v.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    v
}

/// Snapshots a set's elements in ascending order.
///
/// Companion to [`sorted_entries`] for [`FxHashSet`]; see that helper
/// for when an explicit sort is required.
pub fn sorted_keys<T: Ord + Clone, S>(set: &HashSet<T, S>) -> Vec<T> {
    let mut v: Vec<T> = set.iter().cloned().collect();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn fx_hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn fixed_seed_pins_hash_values() {
        // These constants pin the algorithm: any change to the mixing
        // function, the multiplier or the seed shows up here. Because the
        // hasher has no per-process state, the same values hold in every
        // process — which is the determinism property the hot maps rely on.
        assert_eq!(fx_hash_of(&0u64), 0);
        assert_eq!(fx_hash_of(&1u64), K);
        assert_eq!(fx_hash_of(&0x40u64), 0x40u64.wrapping_mul(K));
        let two_words = {
            let mut h = FxHasher::default();
            h.write_u64(7);
            h.write_u64(9);
            h.finish()
        };
        let expect = (7u64.wrapping_mul(K).rotate_left(5) ^ 9).wrapping_mul(K);
        assert_eq!(two_words, expect);
    }

    #[test]
    fn independent_builders_agree() {
        // RandomState would fail this: two builders hash the same key
        // differently. FxBuildHasher must not.
        for key in [(0u32, 0u64), (1, 0x1234), (7, u64::MAX)] {
            assert_eq!(
                FxBuildHasher::default().hash_one(key),
                FxBuildHasher::default().hash_one(key),
            );
        }
    }

    #[test]
    fn byte_stream_matches_word_stream_padding() {
        // `write` pads the tail chunk with zeros; 8-byte-aligned input
        // must agree with the word fast path.
        let mut a = FxHasher::default();
        a.write(&42u64.to_le_bytes());
        let mut b = FxHasher::default();
        b.write_u64(42);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn nearby_keys_spread() {
        // Sequential block indices (the common key pattern) must not
        // collapse onto a few buckets.
        let mut seen = FxHashSet::default();
        for i in 0u64..1024 {
            seen.insert(fx_hash_of(&i) >> 56);
        }
        assert!(seen.len() > 100, "only {} distinct top bytes", seen.len());
    }

    #[test]
    fn map_and_set_behave_like_std() {
        let mut m: FxHashMap<(u32, u64), &str> = FxHashMap::default();
        m.insert((1, 2), "a");
        m.insert((1, 3), "b");
        m.insert((1, 2), "c");
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&(1, 2)), Some(&"c"));
        assert_eq!(m.remove(&(1, 3)), Some("b"));
        assert!(!m.contains_key(&(1, 3)));

        let mut s: FxHashSet<u64> = FxHashSet::default();
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.contains(&5));
    }

    #[test]
    fn sorted_snapshots_are_key_ordered() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        for (k, v) in [(9u64, "i"), (1, "a"), (4, "d")] {
            m.insert(k, v);
        }
        assert_eq!(sorted_entries(&m), vec![(1, "a"), (4, "d"), (9, "i")]);

        let mut s: FxHashSet<u32> = FxHashSet::default();
        for k in [7u32, 2, 5, 2] {
            s.insert(k);
        }
        assert_eq!(sorted_keys(&s), vec![2, 5, 7]);
    }
}
