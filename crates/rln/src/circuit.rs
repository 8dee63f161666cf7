//! The RLN circuit (paper §II-B): proves, in zero knowledge, that
//!
//! 1. the prover's `sk` commits (via `pk = H(sk)`) to a leaf of the
//!    identity-commitment tree with public root `τ` — *membership*,
//! 2. the published share `(x, y)` satisfies `y = sk + H(sk, ∅)·x` —
//!    *share validity*,
//! 3. the published internal nullifier is `φ = H(H(sk, ∅))` —
//!    *nullifier correctness*.
//!
//! Public inputs, in order: `[x, ∅, τ, y, φ]`. Private inputs: `sk`, the
//! leaf index bits, and the authentication path (`auth`).

use waku_arith::fields::Fr;
use waku_arith::traits::Field;
use waku_merkle::MerklePath;
use waku_poseidon::params_for;
use waku_snark::gadgets::{alloc_bit, cond_swap, mul, quintic, Wire};
use waku_snark::r1cs::ConstraintSystem;

/// Public inputs to the RLN relation, in circuit order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RlnPublicInputs {
    /// Message hash `x = H(m)`.
    pub x: Fr,
    /// External nullifier `∅` (the epoch).
    pub external_nullifier: Fr,
    /// Identity-commitment tree root `τ`.
    pub root: Fr,
    /// Share y-coordinate.
    pub y: Fr,
    /// Internal nullifier `φ`.
    pub nullifier: Fr,
}

impl RlnPublicInputs {
    /// The ordering handed to the Groth16 verifier.
    pub fn to_vec(&self) -> Vec<Fr> {
        vec![
            self.x,
            self.external_nullifier,
            self.root,
            self.y,
            self.nullifier,
        ]
    }
}

/// Private witness of the RLN relation.
#[derive(Clone, Debug)]
pub struct RlnWitness {
    /// The identity secret key.
    pub sk: Fr,
    /// Authentication path of `pk = H(sk)` in the tree.
    pub path: MerklePath,
}

/// In-circuit Poseidon: mirrors `waku_poseidon::poseidon` over wires.
///
/// Full-round S-box outputs are fresh variables, so the MDS mixing keeps
/// combinations short; partial-round combinations are simplified after each
/// mix to stop term growth.
fn poseidon_gadget(cs: &mut ConstraintSystem, inputs: &[Wire]) -> Wire {
    assert!(
        (1..=4).contains(&inputs.len()),
        "poseidon gadget arity must be 1..=4"
    );
    let t = inputs.len() + 1;
    let params = params_for(t);
    let mut state: Vec<Wire> = Vec::with_capacity(t);
    state.push(Wire::constant(Fr::zero()));
    state.extend_from_slice(inputs);

    let half_f = (params.r_f / 2) as usize;
    let mut constants = params.round_constants.iter();
    let ark = |state: &mut Vec<Wire>, constants: &mut std::slice::Iter<Fr>| {
        for s in state.iter_mut() {
            *s = s.add_const(*constants.next().expect("enough round constants"));
        }
    };
    let mix = |state: &Vec<Wire>| -> Vec<Wire> {
        params
            .mds
            .iter()
            .map(|row| {
                let mut acc = Wire::constant(Fr::zero());
                for (j, m) in row.iter().enumerate() {
                    acc = acc.add(&state[j].scale(*m));
                }
                Wire {
                    lc: acc.lc.simplify(),
                    value: acc.value,
                }
            })
            .collect()
    };

    for _ in 0..half_f {
        ark(&mut state, &mut constants);
        for s in state.iter_mut() {
            *s = quintic(cs, s);
        }
        state = mix(&state);
    }
    for _ in 0..params.r_p {
        ark(&mut state, &mut constants);
        state[0] = quintic(cs, &state[0]);
        state = mix(&state);
    }
    for _ in 0..half_f {
        ark(&mut state, &mut constants);
        for s in state.iter_mut() {
            *s = quintic(cs, s);
        }
        state = mix(&state);
    }
    state.into_iter().next().expect("nonempty state")
}

/// Builds the complete (finalized) RLN constraint system for the given
/// witness and public inputs.
///
/// The returned system carries a full satisfying assignment when the inputs
/// are consistent; `waku_snark::groth16::prove` re-checks satisfaction, so
/// inconsistent inputs surface as [`waku_snark::SnarkError::Unsatisfied`].
pub fn build(witness: &RlnWitness, public: &RlnPublicInputs) -> ConstraintSystem {
    let mut cs = ConstraintSystem::new();

    // Public inputs, fixed order.
    let x_var = cs.alloc_input(public.x);
    let ext_var = cs.alloc_input(public.external_nullifier);
    let root_var = cs.alloc_input(public.root);
    let y_var = cs.alloc_input(public.y);
    let nul_var = cs.alloc_input(public.nullifier);
    let x = Wire::from_var(&cs, x_var);
    let external = Wire::from_var(&cs, ext_var);
    let root = Wire::from_var(&cs, root_var);
    let y = Wire::from_var(&cs, y_var);
    let nullifier = Wire::from_var(&cs, nul_var);

    // Private: sk.
    let sk_var = cs.alloc_witness(witness.sk);
    let sk = Wire::from_var(&cs, sk_var);

    // (2) share validity: y = sk + H(sk, ∅)·x.
    let a1 = poseidon_gadget(&mut cs, &[sk.clone(), external]);
    let a1_x = mul(&mut cs, &a1, &x);
    let y_computed = sk.add(&a1_x);
    waku_snark::gadgets::enforce_equal(&mut cs, &y_computed, &y);

    // (3) nullifier correctness: φ = H(a1).
    let phi = poseidon_gadget(&mut cs, &[a1]);
    waku_snark::gadgets::enforce_equal(&mut cs, &phi, &nullifier);

    // (1) membership: fold pk = H(sk) up the tree along the path.
    let pk = poseidon_gadget(&mut cs, &[sk]);
    let mut node = pk;
    for (level, sibling_value) in witness.path.siblings.iter().enumerate() {
        let bit = alloc_bit(&mut cs, (witness.path.index >> level) & 1 == 1);
        let sibling_var = cs.alloc_witness(*sibling_value);
        let sibling = Wire::from_var(&cs, sibling_var);
        // bit = 1 ⇒ our node is the right child.
        let (left, right) = cond_swap(&mut cs, &bit, &node, &sibling);
        node = poseidon_gadget(&mut cs, &[left, right]);
    }
    waku_snark::gadgets::enforce_equal(&mut cs, &node, &root);

    cs.finalize();
    cs
}

/// Builds a shape-compatible circuit for key generation: same constraint
/// structure for any tree of the given depth.
pub fn build_for_setup(depth: usize) -> ConstraintSystem {
    use waku_arith::traits::PrimeField;
    let witness = RlnWitness {
        sk: Fr::from_u64(1),
        path: MerklePath {
            index: 0,
            siblings: vec![Fr::zero(); depth],
        },
    };
    let public = RlnPublicInputs {
        x: Fr::zero(),
        external_nullifier: Fr::zero(),
        root: Fr::zero(),
        y: Fr::zero(),
        nullifier: Fr::zero(),
    };
    build(&witness, &public)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nullifier::{derive, external_nullifier};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use waku_arith::traits::PrimeField;
    use waku_merkle::DenseTree;
    use waku_poseidon::{poseidon1, poseidon2};

    fn consistent_instance(seed: u64, depth: usize) -> (RlnWitness, RlnPublicInputs) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sk = Fr::random(&mut rng);
        let pk = poseidon1(sk);
        let mut tree = DenseTree::new(depth);
        tree.set(3, pk);
        tree.set(0, Fr::from_u64(111));
        tree.set(5, Fr::from_u64(222));
        let path = tree.proof(3);
        let x = Fr::random(&mut rng);
        let ext = external_nullifier(42);
        let (_, phi, y) = derive(sk, ext, x);
        (
            RlnWitness { sk, path },
            RlnPublicInputs {
                x,
                external_nullifier: ext,
                root: tree.root(),
                y,
                nullifier: phi,
            },
        )
    }

    #[test]
    fn poseidon_gadget_matches_native() {
        let mut cs = ConstraintSystem::new();
        let a = Wire::constant(Fr::from_u64(7));
        let b = Wire::constant(Fr::from_u64(8));
        let h2 = poseidon_gadget(&mut cs, &[a.clone(), b]);
        assert_eq!(h2.value, poseidon2(Fr::from_u64(7), Fr::from_u64(8)));
        let h1 = poseidon_gadget(&mut cs, &[a]);
        assert_eq!(h1.value, poseidon1(Fr::from_u64(7)));
        cs.finalize();
        assert!(cs.check_satisfied().is_ok());
    }

    #[test]
    fn consistent_witness_satisfies() {
        let (w, p) = consistent_instance(1, 6);
        let cs = build(&w, &p);
        assert!(cs.check_satisfied().is_ok());
        assert_eq!(cs.public_inputs(), p.to_vec().as_slice());
    }

    #[test]
    fn wrong_y_unsatisfied() {
        let (w, mut p) = consistent_instance(2, 6);
        p.y += Fr::from_u64(1);
        assert!(build(&w, &p).check_satisfied().is_err());
    }

    #[test]
    fn wrong_nullifier_unsatisfied() {
        let (w, mut p) = consistent_instance(3, 6);
        p.nullifier += Fr::from_u64(1);
        assert!(build(&w, &p).check_satisfied().is_err());
    }

    #[test]
    fn wrong_root_unsatisfied() {
        let (w, mut p) = consistent_instance(4, 6);
        p.root += Fr::from_u64(1);
        assert!(build(&w, &p).check_satisfied().is_err());
    }

    #[test]
    fn non_member_unsatisfied() {
        let (mut w, p) = consistent_instance(5, 6);
        // a different secret key — its commitment is not in the tree
        w.sk += Fr::from_u64(1);
        assert!(build(&w, &p).check_satisfied().is_err());
    }

    #[test]
    fn setup_shape_matches_instance_shape() {
        let (w, p) = consistent_instance(6, 6);
        let real = build(&w, &p);
        let shape = build_for_setup(6);
        assert_eq!(real.num_constraints(), shape.num_constraints());
        assert_eq!(real.num_instance(), shape.num_instance());
        assert_eq!(real.num_witness(), shape.num_witness());
    }

    #[test]
    fn constraint_count_is_reasonable() {
        // Sanity bound: a depth-20 circuit should stay in the few-thousand
        // constraint range that §IV's sub-second proving implies.
        let cs = build_for_setup(20);
        assert!(
            cs.num_constraints() < 20_000,
            "got {}",
            cs.num_constraints()
        );
    }
}
