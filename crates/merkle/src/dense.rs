//! The full ("dense") identity-commitment tree, stored as populated prefixes.
//!
//! This is what the paper's §III-C prescribes for ordinary peers — each peer
//! "needs to build the tree locally and listen to the contract's events" —
//! and what §IV measures: a depth-20 tree occupies ≈67 MB (2²¹−1 nodes of
//! 32 bytes). The storage-optimized alternative from reference \[18\] lives in
//! [`crate::frontier`].
//!
//! Logically every one of the `2^(d+1) − 1` nodes exists and is addressable,
//! which is why the type keeps its name. Physically each level holds only the
//! nodes up to the highest leaf ever written; everything to the right of that
//! is an all-zero subtree whose hash is [`zero_hashes`]`[level]`, so it is
//! read from the table instead of from memory. The membership contract hands
//! out `index = members.len()` and never reuses a slot (removal zeroes a leaf
//! *inside* the prefix), so a group of `n` members costs ≈ `64·n` bytes at
//! any depth and an empty depth-32 tree costs nothing. Writing a far index
//! out of order still works; it grows the prefix up to that index and costs
//! at most what materializing the whole tree would.

use waku_arith::fields::Fr;
use waku_arith::traits::Field;
use waku_poseidon::poseidon2;

use crate::path::MerklePath;
use crate::zeros::zero_hashes;

/// A fixed-depth Merkle tree over `2^d` leaves, every node readable, only
/// the populated prefix of each level held in memory.
///
/// Leaves default to `Fr::zero()`; internal defaults are the cascaded
/// zero-subtree hashes, so an empty tree has a well-defined root.
///
/// # Examples
///
/// ```
/// use waku_merkle::dense::DenseTree;
/// use waku_arith::{fields::Fr, traits::PrimeField};
///
/// let mut tree = DenseTree::new(4);
/// tree.set(0, Fr::from_u64(11));
/// let path = tree.proof(0);
/// assert!(path.verify(Fr::from_u64(11), tree.root()));
/// ```
#[derive(Clone, Debug)]
pub struct DenseTree {
    depth: usize,
    /// `levels[0]` = leaves, …, `levels[d]` = root. `levels[l]` holds the
    /// first `⌈n / 2^l⌉` nodes, `n` = one past the highest leaf ever
    /// written; every node past the end is `zeros[l]`.
    levels: Vec<Vec<Fr>>,
    /// `zero_hashes(depth)`: the hash of an all-zero subtree, per level.
    zeros: &'static [Fr],
}

impl DenseTree {
    /// An empty tree of the given depth. Allocates no node storage.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is 0 or exceeds 32.
    pub fn new(depth: usize) -> Self {
        assert!((1..=32).contains(&depth), "depth must be 1..=32");
        DenseTree {
            depth,
            levels: vec![Vec::new(); depth + 1],
            zeros: zero_hashes(depth),
        }
    }

    /// Tree depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Leaf capacity (`2^depth`).
    pub fn capacity(&self) -> u64 {
        1u64 << self.depth
    }

    /// Node `idx` of `level`, stored or implied.
    fn node(&self, level: usize, idx: usize) -> Fr {
        match self.levels[level].get(idx) {
            Some(&node) => node,
            None => self.zeros[level],
        }
    }

    /// Current root.
    pub fn root(&self) -> Fr {
        self.node(self.depth, 0)
    }

    /// Reads a leaf.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity`.
    pub fn leaf(&self, index: u64) -> Fr {
        assert!(index < self.capacity(), "leaf index out of range");
        self.node(0, index as usize)
    }

    /// Writes a leaf and updates the path to the root (depth hashes).
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity`.
    pub fn set(&mut self, index: u64, leaf: Fr) {
        assert!(index < self.capacity(), "leaf index out of range");
        self.set_batch(index, &[leaf]);
    }

    /// Resets a leaf to zero (the paper's member *deletion* — slashing
    /// removes the spammer's commitment, §III-A). The slot stays inside the
    /// stored prefix: removal never gives memory back.
    pub fn remove(&mut self, index: u64) {
        self.set(index, Fr::zero());
    }

    /// Writes a contiguous batch of leaves starting at `start`, hashing each
    /// affected internal node once (the batch-insertion optimization of
    /// §IV-A).
    ///
    /// # Panics
    ///
    /// Panics if the batch exceeds capacity.
    pub fn set_batch(&mut self, start: u64, leaves: &[Fr]) {
        assert!(
            start + leaves.len() as u64 <= self.capacity(),
            "batch exceeds capacity"
        );
        if leaves.is_empty() {
            return;
        }
        let (mut lo, mut hi) = (start as usize, start as usize + leaves.len() - 1);
        self.grow_to(hi + 1);
        self.levels[0][lo..=hi].copy_from_slice(leaves);
        for level in 0..self.depth {
            lo /= 2;
            hi /= 2;
            for parent in lo..=hi {
                let left = self.node(level, parent * 2);
                let right = self.node(level, parent * 2 + 1);
                self.levels[level + 1][parent] = poseidon2(left, right);
            }
        }
    }

    /// Extends every level's stored prefix to cover the first `leaves`
    /// leaves, filling with that level's zero hash.
    fn grow_to(&mut self, leaves: usize) {
        if leaves <= self.levels[0].len() {
            return;
        }
        for (nodes, (level, &zero)) in self.levels.iter_mut().zip(self.zeros.iter().enumerate()) {
            let len = (leaves as u64).div_ceil(1u64 << level);
            nodes.resize(len as usize, zero);
        }
    }

    /// Authentication path for a leaf.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity`.
    pub fn proof(&self, index: u64) -> MerklePath {
        assert!(index < self.capacity(), "leaf index out of range");
        let mut siblings = Vec::with_capacity(self.depth);
        let mut idx = index as usize;
        for level in 0..self.depth {
            siblings.push(self.node(level, idx ^ 1));
            idx /= 2;
        }
        MerklePath { index, siblings }
    }

    /// Bytes of node storage the *whole* tree stands for (32 B per node) —
    /// the quantity §IV reports as 67 MB for depth 20. Analytic; what this
    /// instance actually holds is [`Self::resident_bytes`].
    pub fn storage_bytes(&self) -> u64 {
        let nodes: u64 = (0..=self.depth).map(|l| 1u64 << (self.depth - l)).sum();
        nodes * 32
    }

    /// Bytes of node storage actually held: 32 B per node of each level's
    /// populated prefix, ≈ 64 B per leaf slot ever handed out.
    pub fn resident_bytes(&self) -> u64 {
        self.levels.iter().map(|l| l.len() as u64 * 32).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use waku_arith::traits::PrimeField;

    #[test]
    fn empty_root_is_cascaded_zeros() {
        let tree = DenseTree::new(3);
        let z0 = Fr::zero();
        let z1 = poseidon2(z0, z0);
        let z2 = poseidon2(z1, z1);
        let z3 = poseidon2(z2, z2);
        assert_eq!(tree.root(), z3);
    }

    #[test]
    fn set_then_proof_verifies() {
        let mut tree = DenseTree::new(5);
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..10u64 {
            tree.set(i, Fr::random(&mut rng));
        }
        for i in 0..10u64 {
            let p = tree.proof(i);
            assert!(p.verify(tree.leaf(i), tree.root()), "leaf {i}");
            assert_eq!(p.depth(), 5);
        }
    }

    #[test]
    fn wrong_leaf_fails_verification() {
        let mut tree = DenseTree::new(4);
        tree.set(3, Fr::from_u64(42));
        let p = tree.proof(3);
        assert!(!p.verify(Fr::from_u64(43), tree.root()));
    }

    #[test]
    fn remove_restores_zero_subtree() {
        let mut tree = DenseTree::new(4);
        let empty_root = tree.root();
        tree.set(7, Fr::from_u64(1));
        assert_ne!(tree.root(), empty_root);
        tree.remove(7);
        assert_eq!(tree.root(), empty_root);
    }

    #[test]
    fn batch_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(2);
        let leaves: Vec<Fr> = (0..13).map(|_| Fr::random(&mut rng)).collect();
        let mut a = DenseTree::new(6);
        let mut b = DenseTree::new(6);
        a.set_batch(5, &leaves);
        for (i, leaf) in leaves.iter().enumerate() {
            b.set(5 + i as u64, *leaf);
        }
        assert_eq!(a.root(), b.root());
    }

    #[test]
    fn storage_matches_paper_at_depth_20() {
        // The paper reports 67 MB for a depth-20 tree; 2^21−1 nodes × 32 B
        // ≈ 67.1 MB. Computed without allocating the tree.
        let nodes: u64 = (0..=20u32).map(|l| 1u64 << (20 - l)).sum();
        let bytes = nodes * 32;
        assert_eq!(bytes, 67_108_832);
    }

    #[test]
    fn order_sensitivity() {
        let mut a = DenseTree::new(3);
        let mut b = DenseTree::new(3);
        a.set(0, Fr::from_u64(1));
        a.set(1, Fr::from_u64(2));
        b.set(0, Fr::from_u64(2));
        b.set(1, Fr::from_u64(1));
        assert_ne!(a.root(), b.root());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_set_panics() {
        DenseTree::new(3).set(8, Fr::zero());
    }
}
