//! `proof.b ∈ G2` is certified by the Miller loop itself.
//!
//! The twist `E'(Fp2)` has order `r·(2p − r)`, so a point can satisfy the
//! curve equation and still lie outside the order-`r` subgroup the pairing
//! is defined on. `waku_curve::pairing` ("G2 membership") compares the
//! loop's final accumulator with `−ψ³(Q)` and returns zero on a mismatch.
//! These tests hold that comparison against the slow `[r]Q = O` test on
//! points built to be outside the subgroup, and follow a forged `B`
//! through every Groth16 verification entry point.

use rand::rngs::StdRng;
use rand::SeedableRng;
use waku_suite::arith::biguint::BigUint;
use waku_suite::arith::fields::{Fq, Fr};
use waku_suite::arith::traits::{Field, PrimeField};
use waku_suite::curve::pairing::{final_exponentiation, miller_loop, miller_loop_traced};
use waku_suite::curve::{Fp2, G1Affine, G1Projective, G2Affine, G2Projective};
use waku_suite::pool::with_threads;
use waku_suite::snark::{
    prove, setup, ConstraintSystem, Isolation, IsolationWork, LinearCombination,
    PreparedVerifyingKey, Proof, ProvingKey, Variable,
};

/// Square root in Fq (`p ≡ 3 mod 4`), `None` for a non-residue.
fn fq_sqrt(v: Fq) -> Option<Fq> {
    let p = BigUint::from_limbs(&<Fq as PrimeField>::MODULUS);
    let root = v.pow(p.add(&BigUint::one()).shr(2).limbs());
    (root.square() == v).then_some(root)
}

/// Square root in Fp2 = Fq[u]/(u² + 1) by the complex method: with
/// `s² = norm(a)`, one of `(a₀ ± s)/2` is the square of the real part.
fn fp2_sqrt(a: Fp2) -> Option<Fp2> {
    let half = Fq::from_u64(2).inverse().unwrap();
    let s = fq_sqrt(a.norm())?;
    [a.c0 + s, a.c0 - s]
        .into_iter()
        .filter_map(|twice| fq_sqrt(twice * half))
        .filter_map(|re| Some(Fp2::new(re, a.c1 * half * re.inverse()?)))
        .find(|root| root.square() == a)
}

/// A uniformly random affine point of `E'(Fp2)`: in G2 with probability
/// `1/(2p − r)`, i.e. never.
fn random_twist_point(rng: &mut StdRng) -> G2Affine {
    let g = G2Affine::generator();
    let b = g.y.square() - g.x.square() * g.x;
    loop {
        let x = Fp2::random(rng);
        if let Some(y) = fp2_sqrt(x.square() * x + b) {
            return G2Affine::new(x, y).expect("built from the curve equation");
        }
    }
}

/// The twist cofactor `2p − r = 10069 · 5864401 · …`.
fn cofactor() -> BigUint {
    let p = BigUint::from_limbs(&<Fq as PrimeField>::MODULUS);
    let r = BigUint::from_limbs(&<Fr as PrimeField>::MODULUS);
    p.add(&p).sub(&r)
}

/// A point of exact order 10069, the smallest prime factor of the cofactor.
fn small_order_point(rng: &mut StdRng) -> G2Affine {
    let r = BigUint::from_limbs(&<Fr as PrimeField>::MODULUS);
    let (rest, rem) = cofactor().div_rem(&BigUint::from(10069u64));
    assert!(rem.is_zero(), "10069 divides the twist cofactor");
    loop {
        let s = random_twist_point(rng).mul_limbs(r.mul(&rest).limbs());
        if !s.is_identity() {
            assert!(s.mul_limbs(&[10069]).is_identity());
            return s.to_affine();
        }
    }
}

/// What the loop says about `q`, through the public pairing interface.
fn loop_accepts(q: &G2Affine) -> bool {
    let f = miller_loop(&[(G1Affine::generator(), *q)]);
    assert_eq!(f.is_zero(), final_exponentiation(&f).is_none());
    !f.is_zero()
}

#[test]
fn loop_test_agrees_with_the_order_r_test() {
    let mut rng = StdRng::seed_from_u64(0xB2);
    let small = small_order_point(&mut rng);
    let mut points = vec![small];
    for _ in 0..64 {
        let q = random_twist_point(&mut rng);
        // Cofactor clearing lands in G2; adding the small-order point to
        // that leaves it again.
        let cleared = q.mul_limbs(cofactor().limbs());
        points.extend([
            q,
            cleared.to_affine(),
            cleared.add_mixed(&small).to_affine(),
        ]);
    }
    points.push(G2Projective::generator().add_mixed(&small).to_affine());
    let mut inside = 0;
    for q in &points {
        assert!(q.is_on_curve());
        assert_eq!(loop_accepts(q), q.is_in_subgroup(), "{q:?}");
        inside += usize::from(q.is_in_subgroup());
    }
    assert_eq!((inside, points.len() - inside), (64, 130));
}

#[test]
fn one_point_outside_g2_zeroes_the_whole_product() {
    let mut rng = StdRng::seed_from_u64(0xB3);
    let outside = random_twist_point(&mut rng);
    let mut pairs: Vec<(G1Affine, G2Affine)> = (0..7)
        .map(|_| {
            (
                G1Projective::generator()
                    .mul(Fr::random(&mut rng))
                    .to_affine(),
                G2Projective::generator()
                    .mul(Fr::random(&mut rng))
                    .to_affine(),
            )
        })
        .collect();
    // Wherever the bad pair sits, its chunk's zero survives the product.
    for position in [0, 3, 6] {
        let honest = std::mem::replace(&mut pairs[position].1, outside);
        for threads in [1, 2, 3, 7] {
            let f = with_threads(threads, || miller_loop(&pairs));
            assert!(f.is_zero(), "position {position}, pool {threads}");
            // …and the loop can say which pair it was.
            let trace = miller_loop_traced(&pairs, &[], false, threads);
            assert_eq!(trace.outside_g2, [position], "fan-out {threads}");
        }
        pairs[position].1 = honest;
    }
    assert!(!miller_loop(&pairs).is_zero());
}

/// `x³ + x + 5 = out`.
fn cubic_cs(x: u64) -> (ConstraintSystem, Vec<Fr>) {
    let out_val = x * x * x + x + 5;
    let mut cs = ConstraintSystem::new();
    let out = cs.alloc_input(Fr::from_u64(out_val));
    let xv = cs.alloc_witness(Fr::from_u64(x));
    let x2 = cs.alloc_witness(Fr::from_u64(x * x));
    let x3 = cs.alloc_witness(Fr::from_u64(x * x * x));
    cs.enforce(xv, xv, x2);
    cs.enforce(x2, xv, x3);
    let lhs = LinearCombination::from_var(x3)
        .add_term(xv, Fr::one())
        .add_term(Variable::ONE, Fr::from_u64(5));
    cs.enforce(lhs, Variable::ONE, out);
    cs.finalize();
    (cs, vec![Fr::from_u64(out_val)])
}

fn eight_proofs(rng: &mut StdRng) -> (ProvingKey, Vec<Proof>, Vec<Vec<Fr>>) {
    some_proofs(8, rng)
}

fn some_proofs(n: u64, rng: &mut StdRng) -> (ProvingKey, Vec<Proof>, Vec<Vec<Fr>>) {
    let (cs, _) = cubic_cs(3);
    let pk = setup(&cs, rng);
    let (proofs, inputs) = (0..n)
        .map(|i| {
            let (cs, input) = cubic_cs(3 + i);
            (prove(&pk, &cs, rng).unwrap(), input)
        })
        .unzip();
    (pk, proofs, inputs)
}

#[test]
fn forged_b_is_rejected_on_every_verify_entry_point() {
    let mut rng = StdRng::seed_from_u64(0xB4);
    let (pk, good, inputs) = eight_proofs(&mut rng);
    let pvk = PreparedVerifyingKey::from(pk.vk.clone());
    assert!(pvk.verify_batch(&good, &inputs).unwrap());

    let small = small_order_point(&mut rng);
    let forgeries = [
        // An honest B moved off the subgroup by a cofactor-order point.
        good[5].b.to_projective().add_mixed(&small).to_affine(),
        small,
        random_twist_point(&mut rng),
    ];
    for (b, slot) in forgeries.into_iter().zip([5usize, 0, 7]) {
        assert!(b.is_on_curve() && !b.is_in_subgroup());
        let mut proofs = good.clone();
        proofs[slot].b = b;
        // The bytes decode (on-curve is all `from_bytes` checks)…
        assert_eq!(
            Proof::from_bytes(&proofs[slot].to_bytes()),
            Some(proofs[slot])
        );
        for threads in [1, 2] {
            with_threads(threads, || {
                // …and every entry point refuses the proof, blaming it alone.
                assert!(!pvk.verify(&proofs[slot], &inputs[slot]).unwrap());
                assert!(!PreparedVerifyingKey::from(pk.vk.clone())
                    .verify(&proofs[slot], &inputs[slot])
                    .unwrap());
                assert!(!pvk.verify_batch(&proofs, &inputs).unwrap());
                assert_eq!(
                    pvk.verify_batch_isolating(&proofs, &inputs).unwrap(),
                    vec![slot]
                );
            });
        }
    }
}

#[test]
fn forged_b_among_64_is_blamed_alone_and_buys_no_bisection() {
    let mut rng = StdRng::seed_from_u64(0xB7);
    let (pk, mut proofs, mut inputs) = some_proofs(64, &mut rng);
    let pvk = PreparedVerifyingKey::from(pk.vk.clone());
    let small = small_order_point(&mut rng);
    let forge = |b: G2Affine| b.to_projective().add_mixed(&small).to_affine();
    // Slot 41, and the first and last lane of an eight-lane vector, the
    // first lane of the next one and the last proof of the batch.
    for slot in [41, 0, 7, 8, 63] {
        let mut forged = proofs.clone();
        forged[slot].b = forge(forged[slot].b);
        for threads in [1, 2, 4] {
            with_threads(threads, || {
                // The root loop's own comparison names the slot; the repeat
                // of the full check without it (63 pairs, lines recorded
                // in case it fails) passes, and that is all the forgery
                // costs.
                assert_eq!(
                    pvk.isolate(&forged, &inputs).unwrap(),
                    Isolation {
                        invalid: vec![slot],
                        work: IsolationWork {
                            checks: 1,
                            dynamic_pairs: 63,
                            replayed_pairs: 0,
                        },
                    },
                    "slot {slot}, pool = {threads}"
                );
            });
        }
    }
    proofs[41].b = forge(proofs[41].b);
    // Beside an ordinary invalid proof the forgery still costs its one
    // repeat; the bisection for the other runs on replayed lines only.
    inputs[5][0] += Fr::one();
    let Isolation { invalid, work } = pvk.isolate(&proofs, &inputs).unwrap();
    assert_eq!(invalid, [5, 41]);
    assert_eq!(work.dynamic_pairs, 63);
    assert!(work.checks <= 1 + 7, "{work:?}");
}

#[test]
fn key_with_beta_outside_g2_rejects_everything() {
    let mut rng = StdRng::seed_from_u64(0xB5);
    let (pk, good, inputs) = eight_proofs(&mut rng);
    let mut vk = pk.vk.clone();
    vk.beta_g2 = random_twist_point(&mut rng);
    let pvk = PreparedVerifyingKey::from(vk);
    assert!(!pvk.verify(&good[0], &inputs[0]).unwrap());
    assert!(!pvk.verify_batch(&good, &inputs).unwrap());
}
