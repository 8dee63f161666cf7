//! # waku-poseidon
//!
//! The Poseidon algebraic hash over BN254 `Fr` — the hash `H` of the RLN
//! construction (paper §II-B): identity commitments `pk = H(sk)`, the
//! epoch-bound coefficient `H(sk, epoch)`, the internal nullifier
//! `H(H(sk, epoch))`, and every node of the identity-commitment Merkle tree.
//!
//! Poseidon is used because it is *circuit-friendly*: each permutation costs
//! a few hundred R1CS constraints, so membership proofs over a depth-20 tree
//! stay in the tens-of-thousands-of-constraints range that proves in well
//! under a second (§IV reports ≈0.5 s on a phone).
//!
//! Parameters (round constants, MDS) are derived at first use from the
//! Grain LFSR procedure of the Poseidon reference implementation — see
//! [`grain`] and [`params`]. We match the construction and security table,
//! not circomlib's exact constants (ARCHITECTURE.md, "Layer 1", the
//! `poseidon` entry).
//!
//! ## Example
//!
//! ```
//! use waku_poseidon::{poseidon1, poseidon2};
//! use waku_arith::{fields::Fr, traits::PrimeField};
//!
//! let sk = Fr::from_u64(1234);
//! let pk = poseidon1(sk);             // identity commitment
//! let a1 = poseidon2(sk, Fr::from_u64(42)); // epoch-bound coefficient
//! assert_ne!(pk, a1);
//! ```

pub mod grain;
pub mod params;
pub mod permutation;

use waku_arith::fields::Fr;
use waku_arith::traits::Field;

pub use params::{params_for, PoseidonParams};
pub use permutation::permute;

/// Fixed-arity Poseidon hash of 1..=4 inputs (width `t = n + 1`, the
/// zero-initialized capacity slot is output).
///
/// # Panics
///
/// Panics if `inputs` is empty or longer than 4.
pub fn poseidon(inputs: &[Fr]) -> Fr {
    assert!(
        (1..=4).contains(&inputs.len()),
        "poseidon arity must be 1..=4, got {}",
        inputs.len()
    );
    let t = inputs.len() + 1;
    let mut state = vec![Fr::zero(); t];
    state[1..].copy_from_slice(inputs);
    permute(params_for(t), &mut state);
    state[0]
}

/// `H(a)` — single-input Poseidon (width 2).
pub fn poseidon1(a: Fr) -> Fr {
    poseidon(&[a])
}

/// `H(a, b)` — two-input Poseidon (width 3); the Merkle-node hash.
pub fn poseidon2(a: Fr, b: Fr) -> Fr {
    poseidon(&[a, b])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use waku_arith::traits::PrimeField;

    #[test]
    fn arity_discrimination() {
        let a = Fr::from_u64(7);
        assert_ne!(poseidon(&[a]), poseidon(&[a, Fr::zero()]));
    }

    #[test]
    fn poseidon2_not_commutative() {
        let a = Fr::from_u64(1);
        let b = Fr::from_u64(2);
        assert_ne!(poseidon2(a, b), poseidon2(b, a));
    }

    #[test]
    fn deterministic_across_calls() {
        let a = Fr::from_u64(99);
        assert_eq!(poseidon1(a), poseidon1(a));
    }

    #[test]
    fn no_trivial_collisions() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let x = Fr::random(&mut rng);
            let h = poseidon1(x);
            assert!(seen.insert(h.to_le_bytes()), "collision in 200 samples");
        }
    }

    #[test]
    #[should_panic(expected = "poseidon arity")]
    fn empty_input_panics() {
        poseidon(&[]);
    }

    #[test]
    #[should_panic(expected = "poseidon arity")]
    fn oversized_input_panics() {
        poseidon(&[Fr::zero(); 5]);
    }

    #[test]
    fn four_arity_works() {
        let h = poseidon(&[
            Fr::from_u64(1),
            Fr::from_u64(2),
            Fr::from_u64(3),
            Fr::from_u64(4),
        ]);
        assert!(!h.is_zero());
    }
}
