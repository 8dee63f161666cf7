//! Property-based soundness tests for batched Groth16 verification:
//! randomized over batch sizes (1..=64, so mostly not powers of two) and
//! corruption masks of up to 16 offenders, the batch verdict must equal
//! the AND of per-proof verdicts, and bisection must isolate exactly the
//! corrupted indices within its stated work bound.
//!
//! Proof generation dominates the cost, so a pool of proofs over a fixed
//! toy circuit is generated once and batches are drawn from it by index;
//! corruption happens on cheap *copies* of pooled entries.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use waku_arith::fields::Fr;
use waku_arith::traits::{Field, PrimeField};
use waku_curve::fp2::Fp2;
use waku_curve::g2::G2Affine;
use waku_snark::groth16::{prove, setup, Isolation, PreparedVerifyingKey, Proof};
use waku_snark::r1cs::ConstraintSystem;

const POOL: usize = 64;

struct Fixture {
    pvk: PreparedVerifyingKey,
    proofs: Vec<Proof>,
    inputs: Vec<Vec<Fr>>,
}

/// `x³ + x + 5 = out` (the classic toy relation) with per-proof `x`, so
/// every pooled proof has distinct public inputs.
fn fixture() -> &'static Fixture {
    static CELL: OnceLock<Fixture> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xBA7C4);
        let build = |x_val: u64| {
            let x = Fr::from_u64(x_val);
            let out_val = x * x * x + x + Fr::from_u64(5);
            let mut cs = ConstraintSystem::new();
            let out = cs.alloc_input(out_val);
            let xv = cs.alloc_witness(x);
            let x2 = cs.alloc_witness(x * x);
            let x3 = cs.alloc_witness(x * x * x);
            cs.enforce(xv, xv, x2);
            cs.enforce(x2, xv, x3);
            use waku_snark::r1cs::{LinearCombination, Variable};
            let lhs = LinearCombination::from_var(x3)
                + LinearCombination::from_var(xv)
                + LinearCombination::from_const(Fr::from_u64(5));
            cs.enforce(lhs, Variable::ONE, out);
            cs.finalize();
            cs
        };
        let template = build(1);
        let pk = setup(&template, &mut rng);
        let pvk = PreparedVerifyingKey::from(pk.vk.clone());
        let mut proofs = Vec::with_capacity(POOL);
        let mut inputs = Vec::with_capacity(POOL);
        for i in 0..POOL {
            let cs = build(i as u64 + 2);
            proofs.push(prove(&pk, &cs, &mut rng).expect("satisfiable"));
            inputs.push(cs.public_inputs().to_vec());
        }
        Fixture {
            pvk,
            proofs,
            inputs,
        }
    })
}

/// A point of order 10069 on the twist `E'(Fp2)` — on the curve, outside
/// G2 (`tests/g2_membership.rs` builds such points; this one is
/// `small_order_point` under seed `0xB6`).
fn outside_g2() -> G2Affine {
    let fq = |limbs| <waku_arith::fields::Fq as PrimeField>::from_canonical_limbs(limbs).unwrap();
    let point = G2Affine::new(
        Fp2::new(
            fq([
                13590725040213467191,
                6283568380812228167,
                145692140446045118,
                3337912875565222167,
            ]),
            fq([
                11798538502509234329,
                3448317677031073931,
                689630046141537501,
                2840307719904347079,
            ]),
        ),
        Fp2::new(
            fq([
                16545335188813552920,
                15690126836246111847,
                2802389743456077299,
                52498634399026784,
            ]),
            fq([
                1860129464567861715,
                10913624789502560779,
                16592662709395257842,
                1734235979322003476,
            ]),
        ),
    )
    .expect("on the twist");
    assert!(!point.is_in_subgroup() && point.mul_limbs(&[10069]).is_identity());
    point
}

/// Builds a batch of `size` entries from the pool, then corrupts the
/// entries selected by `corrupt`, by position modulo 3:
///
/// * a tampered public input (lying about the statement);
/// * a proof swapped in from a different statement (replaying someone
///   else's proof);
/// * a *swap* with the next slot, which invalidates both — and whose two
///   errors are inverse to each other in GT, so they cancel under equal
///   weights: only distinct RLC scalars keep the pair visible, at the root
///   and in every sub-range that holds both.
///
/// `forge_b` moves one member's `B` off the order-`r` subgroup.
fn batch_with(
    size: usize,
    corrupt: &[usize],
    forge_b: Option<usize>,
) -> (Vec<Proof>, Vec<Vec<Fr>>, Vec<usize>) {
    let f = fixture();
    let mut proofs: Vec<Proof> = f.proofs[..size].to_vec();
    let mut inputs: Vec<Vec<Fr>> = f.inputs[..size].to_vec();
    let mut bad = vec![false; size];
    for &i in corrupt.iter().filter(|i| **i < size) {
        // One corruption per slot: a second swap could restore a proof.
        if bad[i] {
            continue;
        }
        match i % 3 {
            0 => inputs[i][0] += Fr::one(),
            1 => proofs[i] = f.proofs[(i + 1) % POOL],
            _ if i + 1 < size && !bad[i + 1] => {
                proofs.swap(i, i + 1);
                bad[i + 1] = true;
            }
            _ => inputs[i][0] += Fr::one(),
        }
        bad[i] = true;
    }
    if let Some(i) = forge_b.filter(|i| *i < size) {
        let b = proofs[i].b.to_projective().add_mixed(&outside_g2());
        proofs[i].b = b.to_affine();
        bad[i] = true;
    }
    let bad = (0..size).filter(|&i| bad[i]).collect();
    (proofs, inputs, bad)
}

/// `⌈log₂ n⌉`.
fn depth(n: usize) -> usize {
    n.next_power_of_two().trailing_zeros() as usize
}

proptest! {
    // Each case runs a few multi-Miller loops (~ms each); keep the case
    // count modest — coverage comes from the randomized sizes/masks.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn all_valid_batches_accept(size in 1usize..=POOL) {
        let (proofs, inputs, _) = batch_with(size, &[], None);
        prop_assert!(fixture().pvk.verify_batch(&proofs, &inputs).unwrap());
        // A batch that verifies costs its one check and nothing after it.
        prop_assert_eq!(
            fixture().pvk.isolate(&proofs, &inputs).unwrap(),
            Isolation::default()
        );
    }

    #[test]
    fn corrupted_batches_reject_and_isolate(
        size in 2usize..=POOL,
        mask in proptest::collection::vec(0usize..POOL, 1..17),
        forge_b in 0usize..2 * POOL,
    ) {
        // Half the cases carry a forged B somewhere in the batch.
        let (proofs, inputs, bad) = batch_with(size, &mask, Some(forge_b));
        prop_assume!(!bad.is_empty());
        prop_assert!(
            !fixture().pvk.verify_batch(&proofs, &inputs).unwrap(),
            "a batch with {bad:?} corrupted must fail"
        );
        // Bisection isolates exactly the corrupted indices, within the
        // stated bound: ⌈log₂n⌉ + 1 checks per offender (the forged B
        // costs one — the repeat of the full check without it) and no
        // proof's lines computed twice.
        let Isolation { invalid, work } = fixture().pvk.isolate(&proofs, &inputs).unwrap();
        prop_assert!(
            work.checks <= bad.len() * (depth(size) + 1),
            "{work:?} for {bad:?} of {size}"
        );
        prop_assert!(work.dynamic_pairs <= size, "{work:?} for {bad:?} of {size}");
        prop_assert_eq!(invalid, bad);
    }

    #[test]
    fn batch_verdict_equals_per_proof_verdicts(
        size in 1usize..=16,
        mask in proptest::collection::vec(0usize..16, 0..3),
        forge_b in 0usize..32,
    ) {
        let f = fixture();
        let (proofs, inputs, _) = batch_with(size, &mask, Some(forge_b));
        let individually: Vec<bool> = proofs
            .iter()
            .zip(&inputs)
            .map(|(p, x)| f.pvk.verify(p, x).unwrap())
            .collect();
        let all_valid = individually.iter().all(|v| *v);
        prop_assert_eq!(f.pvk.verify_batch(&proofs, &inputs).unwrap(), all_valid);
        let flagged = f.pvk.verify_batch_isolating(&proofs, &inputs).unwrap();
        let expect: Vec<usize> = individually
            .iter()
            .enumerate()
            .filter(|(_, ok)| !**ok)
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(flagged, expect);
    }
}
