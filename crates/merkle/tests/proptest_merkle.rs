//! Property-based tests for the Merkle tree implementations: the three
//! storage strategies must agree on roots under arbitrary operation
//! sequences, and proofs must verify exactly for the leaf they were
//! issued for.
//!
//! `DenseTree` is the reference the frontier and the partial view are
//! checked against, so it is itself checked against [`NaiveTree`]: all
//! `2^d` leaves in a plain `Vec`, every node recomputed bottom-up per
//! query, no stored prefix and no zero-hash table to share a bug with.

use proptest::prelude::*;
use waku_arith::fields::Fr;
use waku_arith::traits::{Field, PrimeField};
use waku_merkle::zeros::zero_hashes;
use waku_merkle::{DenseTree, FrontierTree, PartialViewTree, TreeUpdate};
use waku_poseidon::poseidon2;

const DEPTH: usize = 6;

fn arb_fr() -> impl Strategy<Value = Fr> {
    any::<u64>().prop_map(Fr::from_u64)
}

/// The model: every leaf materialized, nothing cached.
struct NaiveTree {
    leaves: Vec<Fr>,
}

impl NaiveTree {
    fn new(depth: usize) -> Self {
        NaiveTree {
            leaves: vec![Fr::zero(); 1 << depth],
        }
    }

    /// Every level of the tree, leaves first, rebuilt from the leaves.
    fn levels(&self) -> Vec<Vec<Fr>> {
        let mut levels = vec![self.leaves.clone()];
        while levels[levels.len() - 1].len() > 1 {
            let below = &levels[levels.len() - 1];
            let above = below.chunks(2).map(|p| poseidon2(p[0], p[1])).collect();
            levels.push(above);
        }
        levels
    }
}

/// Root, every leaf and every authentication path of `tree` — populated or
/// not — equal the model's.
fn assert_matches_model(
    tree: &DenseTree,
    model: &NaiveTree,
) -> Result<(), proptest::TestCaseError> {
    let levels = model.levels();
    let depth = tree.depth();
    prop_assert_eq!(tree.root(), levels[depth][0]);
    for i in 0..model.leaves.len() {
        prop_assert_eq!((i, tree.leaf(i as u64)), (i, model.leaves[i]));
        let proof = tree.proof(i as u64);
        let expected: Vec<Fr> = (0..depth).map(|l| levels[l][(i >> l) ^ 1]).collect();
        prop_assert_eq!(proof.index, i as u64);
        prop_assert_eq!((i, &proof.siblings), (i, &expected));
    }
    Ok(())
}

#[test]
fn depth_32_tree_constructs_and_holds_nothing() {
    let tree = DenseTree::new(32);
    assert_eq!(tree.capacity(), 1 << 32);
    assert_eq!(tree.resident_bytes(), 0);
    assert_eq!(tree.storage_bytes(), ((1u64 << 33) - 1) * 32);
    assert_eq!(tree.root(), zero_hashes(32)[32]);
}

#[test]
fn last_leaf_of_an_empty_depth_32_tree_has_the_zero_ladder_as_its_path() {
    let tree = DenseTree::new(32);
    let last = (1u64 << 32) - 1;
    let proof = tree.proof(last);
    assert_eq!(proof.index, last);
    assert_eq!(proof.siblings, zero_hashes(32)[..32]);
    assert!(proof.verify(Fr::zero(), tree.root()));
    assert!(tree.leaf(last).is_zero());
}

#[test]
fn resident_bytes_follow_the_prefix_and_never_shrink_on_remove() {
    let mut tree = DenseTree::new(20);
    for i in 0..1_000u64 {
        tree.set(i, Fr::from_u64(i + 1));
    }
    let held = tree.resident_bytes();
    assert!(held <= 1_000 * 64 + 32 * 21, "{held} B for 1000 members");
    for i in (0..1_000u64).rev() {
        tree.remove(i);
        assert_eq!(tree.resident_bytes(), held, "remove({i}) gave memory back");
    }
    assert_eq!(tree.root(), DenseTree::new(20).root());
    // One far write costs exactly what materializing everything costs.
    tree.set((1 << 20) - 1, Fr::one());
    assert_eq!(tree.resident_bytes(), tree.storage_bytes());
    assert_eq!(tree.storage_bytes(), 67_108_832);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn frontier_equals_dense_for_any_append_sequence(
        leaves in proptest::collection::vec(arb_fr(), 1..32)
    ) {
        let mut dense = DenseTree::new(DEPTH);
        let mut frontier = FrontierTree::new(DEPTH);
        for (i, leaf) in leaves.iter().enumerate() {
            dense.set(i as u64, *leaf);
            frontier.append(*leaf).unwrap();
            prop_assert_eq!(frontier.root(), dense.root());
        }
    }

    #[test]
    fn proofs_verify_only_for_their_leaf(
        leaves in proptest::collection::vec(arb_fr(), 2..32),
        probe in any::<proptest::sample::Index>()
    ) {
        let mut dense = DenseTree::new(DEPTH);
        for (i, leaf) in leaves.iter().enumerate() {
            dense.set(i as u64, *leaf);
        }
        let idx = probe.index(leaves.len()) as u64;
        let proof = dense.proof(idx);
        prop_assert!(proof.verify(leaves[idx as usize], dense.root()));
        // a different leaf value must not verify
        let wrong = leaves[idx as usize] + Fr::one();
        prop_assert!(!proof.verify(wrong, dense.root()));
    }

    #[test]
    fn partial_view_tracks_dense_under_any_update_sequence(
        updates in proptest::collection::vec((any::<u8>(), arb_fr()), 1..40)
    ) {
        let own_index = 7u64;
        let own_leaf = Fr::from_u64(0xCAFE);
        let mut dense = DenseTree::new(DEPTH);
        dense.set(own_index, own_leaf);
        let mut view = PartialViewTree::new(own_index, own_leaf, dense.proof(own_index));
        for (raw_index, leaf) in updates {
            let index = (raw_index as u64) % dense.capacity();
            if index == own_index {
                continue;
            }
            dense.set(index, leaf);
            view.apply_update(&TreeUpdate {
                index,
                new_leaf: leaf,
                path: dense.proof(index),
            }).unwrap();
            prop_assert_eq!(view.root(), dense.root());
            prop_assert!(view.own_path().verify(own_leaf, dense.root()));
        }
    }

    #[test]
    fn set_batch_equals_sequential_sets(
        leaves in proptest::collection::vec(arb_fr(), 1..24),
        start in 0u64..40
    ) {
        let start = start.min((1 << DEPTH) - 24);
        let mut batched = DenseTree::new(DEPTH);
        let mut sequential = DenseTree::new(DEPTH);
        batched.set_batch(start, &leaves);
        for (i, leaf) in leaves.iter().enumerate() {
            sequential.set(start + i as u64, *leaf);
        }
        prop_assert_eq!(batched.root(), sequential.root());
    }

    #[test]
    fn removal_is_equivalent_to_never_inserting(
        keep in proptest::collection::vec(arb_fr(), 1..8),
        transient in arb_fr(),
        spot in any::<proptest::sample::Index>()
    ) {
        // insert `keep` leaves + one transient leaf, remove the transient:
        // root equals the tree that never saw it.
        let transient_index = (8 + spot.index(16)) as u64;
        let mut with_transient = DenseTree::new(DEPTH);
        let mut without = DenseTree::new(DEPTH);
        for (i, leaf) in keep.iter().enumerate() {
            with_transient.set(i as u64, *leaf);
            without.set(i as u64, *leaf);
        }
        with_transient.set(transient_index, transient);
        with_transient.remove(transient_index);
        prop_assert_eq!(with_transient.root(), without.root());
    }

    #[test]
    fn dense_tree_equals_the_naive_model_under_any_interleaving(
        depth in 1usize..=8,
        ops in proptest::collection::vec(
            (0u8..8, any::<u16>(), proptest::collection::vec(arb_fr(), 0..12)),
            1..14,
        )
    ) {
        let capacity = 1u64 << depth;
        let mut tree = DenseTree::new(depth);
        let mut model = NaiveTree::new(depth);
        let mut removed: Vec<u64> = Vec::new();
        assert_matches_model(&tree, &model)?;
        for (kind, raw, leaves) in ops {
            let index = raw as u64 % capacity;
            let leaf = leaves.first().copied().unwrap_or(Fr::from_u64(raw as u64 + 1));
            match kind {
                // a set anywhere, including far past the stored prefix
                0 | 1 => {
                    tree.set(index, leaf);
                    model.leaves[index as usize] = leaf;
                }
                // the last leaf
                2 => {
                    tree.set(capacity - 1, leaf);
                    model.leaves[capacity as usize - 1] = leaf;
                }
                3 | 4 => {
                    tree.remove(index);
                    model.leaves[index as usize] = Fr::zero();
                    removed.push(index);
                }
                // re-set a leaf that was removed earlier
                5 => {
                    if let Some(&again) = removed.get(raw as usize % removed.len().max(1)) {
                        tree.set(again, leaf);
                        model.leaves[again as usize] = leaf;
                    }
                }
                // a batch (possibly empty), clipped to fit
                _ => {
                    let len = leaves.len().min((capacity - index) as usize);
                    tree.set_batch(index, &leaves[..len]);
                    model.leaves[index as usize..index as usize + len]
                        .copy_from_slice(&leaves[..len]);
                }
            }
            assert_matches_model(&tree, &model)?;
        }
    }
}
