//! Criterion benches for the crypto substrates: Poseidon, byte hashes,
//! field ops, MSM, pairing — the cost drivers behind E1/E2.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use waku_arith::fft::Radix2Domain;
use waku_arith::fields::Fr;
use waku_arith::traits::Field;
use waku_curve::msm::msm;
use waku_curve::pairing::{
    final_exponentiation, miller_loop_mixed, multi_pairing, pairing, G2Prepared,
};
use waku_curve::{G1Affine, G1Projective, G2Affine, G2Projective};
use waku_hash::{keccak256, sha256};
use waku_poseidon::{poseidon1, poseidon2};

fn bench_poseidon(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let a = Fr::random(&mut rng);
    let b = Fr::random(&mut rng);
    c.bench_function("poseidon/width2", |bench| {
        bench.iter(|| poseidon1(std::hint::black_box(a)))
    });
    c.bench_function("poseidon/width3", |bench| {
        bench.iter(|| poseidon2(std::hint::black_box(a), std::hint::black_box(b)))
    });
}

fn bench_byte_hashes(c: &mut Criterion) {
    let data = vec![0xABu8; 1024];
    c.bench_function("sha256/1KiB", |b| {
        b.iter(|| sha256(std::hint::black_box(&data)))
    });
    c.bench_function("keccak256/1KiB", |b| {
        b.iter(|| keccak256(std::hint::black_box(&data)))
    });
}

fn bench_field(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let a = Fr::random(&mut rng);
    let b = Fr::random(&mut rng);
    c.bench_function("fr/mul", |bench| {
        bench.iter(|| std::hint::black_box(a) * std::hint::black_box(b))
    });
    c.bench_function("fr/inverse", |bench| {
        bench.iter(|| std::hint::black_box(a).inverse())
    });
}

fn bench_fft(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    for log in [10u32, 13] {
        let n = 1usize << log;
        let domain = Radix2Domain::<Fr>::new(n).unwrap();
        let coeffs: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        c.bench_with_input(BenchmarkId::new("fft", n), &coeffs, |b, coeffs| {
            b.iter(|| domain.fft(coeffs))
        });
    }
}

fn bench_msm(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let g = G1Projective::generator();
    for n in [256usize, 4096] {
        let bases: Vec<G1Affine> = (0..n)
            .map(|_| g.mul(Fr::random(&mut rng)).to_affine())
            .collect();
        let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        c.bench_with_input(
            BenchmarkId::new("msm_g1", n),
            &(bases, scalars),
            |b, (bases, scalars)| b.iter(|| msm(bases, scalars)),
        );
    }
}

fn bench_pairing(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let p = G1Projective::generator()
        .mul(Fr::random(&mut rng))
        .to_affine();
    let q = G2Projective::generator()
        .mul(Fr::random(&mut rng))
        .to_affine();
    c.bench_function("pairing/single", |b| {
        b.iter(|| pairing(std::hint::black_box(&p), std::hint::black_box(&q)))
    });
    let pairs: Vec<(G1Affine, G2Affine)> = vec![(p, q); 3];
    c.bench_function("pairing/triple_shared_final_exp", |b| {
        b.iter(|| multi_pairing(std::hint::black_box(&pairs)))
    });

    // The two kernels under Groth16 verification, in the verifier's own
    // shapes: n − 2 dynamic pairs plus the prepared γ/δ lines (3 = one
    // proof, 66 = a 64-proof RLC batch), and one final exponentiation.
    let dynamic: Vec<(G1Affine, G2Affine)> = (0..64)
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
    let prepared = G2Prepared::new(&q);
    let fixed = [(p, &prepared), (p, &prepared)];
    for n in [3usize, 66] {
        c.bench_with_input(
            BenchmarkId::new("pairing/miller_loop", n),
            &dynamic[..n - 2],
            |b, dynamic| b.iter(|| miller_loop_mixed(std::hint::black_box(dynamic), &fixed)),
        );
    }
    let ml = miller_loop_mixed(&dynamic[..1], &fixed);
    c.bench_function("pairing/final_exp", |b| {
        b.iter(|| final_exponentiation(std::hint::black_box(&ml)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_poseidon, bench_byte_hashes, bench_field, bench_fft, bench_msm, bench_pairing
}
criterion_main!(benches);
