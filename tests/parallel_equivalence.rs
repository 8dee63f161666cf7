//! Parallel-vs-serial equivalence of the proving and verifying pipelines.
//!
//! Everything scheduled on the `waku-pool` work-stealing pool — Pippenger
//! MSM windows, FFT butterfly stages, the prover's concurrent tasks, the
//! verifier's Miller-loop chunks — must produce *bit-identical* results at
//! any pool size. These properties pin
//! that down by running the same computation under `with_threads(1)`
//! (pure serial, what `WAKU_POOL_THREADS=1` gives) and a multi-worker
//! pool, plus oracle checks against the naive implementations.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use waku_suite::arith::fft::{Radix2Domain, PAR_FFT_MIN};
use waku_suite::arith::fields::Fr;
use waku_suite::arith::traits::{Field, PrimeField};
use waku_suite::curve::msm::{msm, naive_msm, WindowTable};
use waku_suite::curve::pairing::{miller_loop_mixed, G2Prepared};
use waku_suite::curve::{G1Affine, G1Projective, G2Affine, G2Projective};
use waku_suite::pool::with_threads;
use waku_suite::snark::gadgets::{quintic, Wire};
use waku_suite::snark::{prove, setup, ConstraintSystem, PreparedVerifyingKey, Proof};

fn random_points(seed: u64, n: usize) -> (Vec<G1Affine>, Vec<Fr>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = G1Projective::generator();
    let bases: Vec<G1Affine> = (0..n)
        .map(|_| g.mul(Fr::random(&mut rng)).to_affine())
        .collect();
    let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
    (bases, scalars)
}

/// `x⁵ = out` with `out` public: small but goes through every prover stage
/// (quotient FFTs, all MSMs).
fn quintic_cs(x: u64) -> ConstraintSystem {
    let mut cs = ConstraintSystem::new();
    let out_val = Fr::from_u64(x).pow(&[5]);
    let out = cs.alloc_input(out_val);
    let x_var = cs.alloc_witness(Fr::from_u64(x));
    let xw = Wire::from_var(&cs, x_var);
    let x5 = quintic(&mut cs, &xw);
    let out_wire = Wire::from_var(&cs, out);
    waku_suite::snark::gadgets::enforce_equal(&mut cs, &x5, &out_wire);
    cs.finalize();
    cs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn pool_msm_matches_naive_oracle(seed in 0u64..1_000_000, n in 33usize..220) {
        let (bases, scalars) = random_points(seed, n);
        let expected = naive_msm(&bases, &scalars);
        let serial = with_threads(1, || msm(&bases, &scalars));
        let pooled = with_threads(4, || msm(&bases, &scalars));
        prop_assert_eq!(serial, expected);
        prop_assert_eq!(pooled, expected);
    }

    #[test]
    fn parallel_fft_matches_serial(seed in 0u64..1_000_000) {
        let n = PAR_FFT_MIN; // smallest size that takes the parallel path
        let mut rng = StdRng::seed_from_u64(seed);
        let domain = Radix2Domain::<Fr>::new(n).unwrap();
        let coeffs: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        let serial_evals = with_threads(1, || domain.fft(&coeffs));
        let pooled_evals = with_threads(3, || domain.fft(&coeffs));
        prop_assert_eq!(&serial_evals, &pooled_evals);
        let serial_back = with_threads(1, || domain.coset_ifft(&serial_evals));
        let pooled_back = with_threads(5, || domain.coset_ifft(&serial_evals));
        prop_assert_eq!(serial_back, pooled_back);
    }

    #[test]
    fn window_table_batch_matches_per_scalar_mul(seed in 0u64..1_000_000, n in 1usize..80) {
        let mut rng = StdRng::seed_from_u64(seed);
        let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        let (serial, pooled) = (
            with_threads(1, || {
                let table = WindowTable::new(G1Projective::generator(), 6);
                table.mul_batch(&scalars)
            }),
            with_threads(4, || {
                let table = WindowTable::new(G1Projective::generator(), 6);
                table.mul_batch(&scalars)
            }),
        );
        prop_assert_eq!(&serial[..], &pooled[..]);
        for (s, p) in scalars.iter().zip(&serial) {
            prop_assert_eq!(*p, G1Projective::generator().mul(*s));
        }
    }
}

#[test]
fn seeded_prove_is_deterministic_at_any_pool_size() {
    let cs = quintic_cs(3);
    let mut rng = StdRng::seed_from_u64(7);
    let pk = setup(&cs, &mut rng);

    let proof_at = |threads: usize| -> Proof {
        with_threads(threads, || {
            let mut rng = StdRng::seed_from_u64(42);
            prove(&pk, &cs, &mut rng).unwrap()
        })
    };

    // Identical seeded RNG streams ⇒ identical proofs, per pool size…
    assert_eq!(proof_at(1), proof_at(1));
    assert_eq!(proof_at(4), proof_at(4));
    // …and the pool size itself must not leak into the proof.
    let serial = proof_at(1);
    let pooled = proof_at(4);
    assert_eq!(serial, pooled, "pool size changed the proof bytes");
    assert_eq!(serial.to_bytes(), pooled.to_bytes());
    let pvk = PreparedVerifyingKey::from(pk.vk.clone());
    assert!(pvk.verify(&serial, &[Fr::from_u64(243)]).unwrap());
}

#[test]
fn seeded_rln_prove_message_is_deterministic() {
    use waku_suite::rln::{Identity, RlnProver};

    let depth = 4;
    let mut rng = StdRng::seed_from_u64(1);
    let (prover, verifier) = RlnProver::keygen(depth, &mut rng);
    let identity = Identity::random(&mut rng);
    let zeros = waku_suite::merkle::zeros::zero_hashes(depth);
    let path = waku_suite::merkle::MerklePath {
        index: 0,
        siblings: zeros[..depth].to_vec(),
    };

    let moved = waku_suite::merkle::MerklePath {
        index: 0,
        siblings: {
            let mut siblings = path.siblings.clone();
            siblings[1] = Fr::from_u64(5);
            siblings
        },
    };

    // One publisher's sequence on the shared key: a new epoch on the same
    // path (small delta), a moved sibling (bigger delta), the same
    // statement twice (empty delta). The first run starts on a cold key,
    // the later ones on whatever the run before left behind — the carried
    // sums must not leak into the proofs at any pool size.
    let sequence_at = |threads: usize| {
        with_threads(threads, || {
            let mut rng = StdRng::seed_from_u64(9);
            [(&path, 77), (&path, 78), (&moved, 79), (&moved, 79)].map(|(path, epoch)| {
                prover
                    .prove_message(&identity, path, b"equivalence", epoch, &mut rng)
                    .unwrap()
            })
        })
    };
    let serial = sequence_at(1);
    for threads in [2, 4, 1] {
        let pooled = sequence_at(threads);
        for (a, b) in serial.iter().zip(&pooled) {
            assert_eq!(a.proof, b.proof, "pool size {threads} changed a proof");
        }
    }
    assert!(serial.iter().all(|b| verifier.verify_bundle(b)));
}

#[test]
fn miller_loop_is_the_same_element_at_any_pool_size() {
    let mut rng = StdRng::seed_from_u64(16);
    let g1 = |rng: &mut StdRng| G1Projective::generator().mul(Fr::random(rng)).to_affine();
    let g2 = |rng: &mut StdRng| G2Projective::generator().mul(Fr::random(rng)).to_affine();
    let mut pairs: Vec<(G1Affine, G2Affine)> =
        (0..65).map(|_| (g1(&mut rng), g2(&mut rng))).collect();
    // Identity pairs are dropped before chunking, wherever they sit.
    pairs[1].0 = G1Affine::identity();
    pairs[4].1 = G2Affine::identity();
    pairs[40].0 = G1Affine::identity();
    let lines = [g2(&mut rng), g2(&mut rng)].map(|q| G2Prepared::new(&q));
    let replays = [(g1(&mut rng), &lines[0]), (g1(&mut rng), &lines[1])];

    for dynamic in [0usize, 1, 2, 3, 5, 64, 65] {
        for prepared in [0usize, 2] {
            let at = |threads: usize| {
                with_threads(threads, || {
                    miller_loop_mixed(&pairs[..dynamic], &replays[..prepared])
                })
            };
            // One thread runs the single lock-step loop; every other pool
            // size multiplies chunk loops into the same element.
            let serial = at(1);
            for threads in [2, 3, 4, 7] {
                assert_eq!(
                    at(threads),
                    serial,
                    "{dynamic} dynamic + {prepared} prepared pairs, pool {threads}"
                );
            }
        }
    }
}

#[test]
fn verify_verdicts_do_not_depend_on_pool_size() {
    let mut rng = StdRng::seed_from_u64(17);
    let pk = setup(&quintic_cs(3), &mut rng);
    let pvk = PreparedVerifyingKey::from(pk.vk.clone());
    let (mut proofs, mut inputs): (Vec<Proof>, Vec<Vec<Fr>>) = (2..11u64)
        .map(|x| {
            let proof = prove(&pk, &quintic_cs(x), &mut rng).unwrap();
            (proof, vec![Fr::from_u64(x).pow(&[5])])
        })
        .unzip();
    assert!(pvk.verify_batch(&proofs, &inputs).unwrap());
    // Two offenders: a wrong public input and swapped G1 elements.
    inputs[2][0] += Fr::one();
    (proofs[7].a, proofs[7].c) = (proofs[7].c, proofs[7].a);

    let verdicts_at = |threads: usize| {
        with_threads(threads, || {
            let singles: Vec<bool> = proofs
                .iter()
                .zip(&inputs)
                .map(|(p, x)| pvk.verify(p, x).unwrap())
                .collect();
            (
                singles,
                pvk.verify_batch(&proofs, &inputs).unwrap(),
                pvk.verify_batch(&proofs[3..7], &inputs[3..7]).unwrap(),
                pvk.verify_batch_isolating(&proofs, &inputs).unwrap(),
            )
        })
    };
    let serial = verdicts_at(1);
    let honest = |i: usize| i != 2 && i != 7;
    assert_eq!(serial.0, (0..9).map(honest).collect::<Vec<_>>());
    assert_eq!((serial.1, serial.2), (false, true));
    assert_eq!(serial.3, vec![2, 7]);
    for threads in [2, 3, 4, 7] {
        assert_eq!(verdicts_at(threads), serial, "pool {threads}");
    }
}
