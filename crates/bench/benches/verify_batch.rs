//! Batched Groth16 verification and the proving-key cold-start cache.
//!
//! Four kinds of records land in the baseline:
//!
//! * `verify_batch/single` — one bundle through the batch entry point
//!   (criterion-timed), anchoring the comparison against `rln_verify/*`;
//! * `verify_batch/{16,64}/ns_per_proof` — self-timed RLC batches,
//!   recorded **per proof** so the speedup over `verify_batch/single`
//!   reads directly off the table (the ISSUE's ≥5× target at N=64);
//! * `verify_batch/64_1bad/ns_per_proof` — the same 64 bundles with one
//!   junk proof among them, through the isolating check (full batch +
//!   bisection): what a single poisoned message costs a relayer
//!   (ROADMAP direction D);
//! * `keycache/warm_load/10` — decode-and-rebuild time for a cached
//!   proving key, the cold-start path `RlnProver::keygen_or_load` takes
//!   on a warm cache.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use waku_bench::sparse_single_member_path;
use waku_rln::{Identity, RlnMessageBundle, RlnProver, RlnVerifier};

const DEPTH: usize = 10;

fn fixture(n: usize) -> (RlnVerifier, Vec<RlnMessageBundle>) {
    let mut rng = StdRng::seed_from_u64(DEPTH as u64);
    let (prover, verifier) = RlnProver::keygen(DEPTH, &mut rng);
    let identity = Identity::random(&mut rng);
    let path = sparse_single_member_path(DEPTH);
    // Distinct epochs → distinct public inputs per bundle: the RLC fold
    // sees the general case, not a degenerate repeated statement.
    let bundles: Vec<RlnMessageBundle> = (0..n)
        .map(|i| {
            prover
                .prove_message(
                    &identity,
                    &path,
                    b"bench message",
                    1000 + i as u64,
                    &mut rng,
                )
                .unwrap()
        })
        .collect();
    (verifier, bundles)
}

fn bench_verify_batch(c: &mut Criterion) {
    let (verifier, bundles) = fixture(64);
    let refs: Vec<&RlnMessageBundle> = bundles.iter().collect();

    c.bench_function("verify_batch/single", |b| {
        b.iter(|| assert!(verifier.verify_batch(std::hint::black_box(&refs[..1]))))
    });

    // Self-timed (best of 5) so the record is per proof: criterion's
    // whole-batch numbers would need post-hoc division to compare across
    // sizes.
    const ROUNDS: usize = 5;
    let best_of = |check: &dyn Fn()| {
        (0..ROUNDS)
            .map(|_| {
                let started = Instant::now();
                check();
                started.elapsed().as_nanos()
            })
            .min()
            .expect("ROUNDS > 0")
    };

    for n in [16usize, 64] {
        let batch = &refs[..n];
        let best = best_of(&|| assert!(verifier.verify_batch(std::hint::black_box(batch))));
        criterion::baseline::record_value(
            format!("verify_batch/{n}/ns_per_proof"),
            best / n as u128,
            ROUNDS,
        );
        println!(
            "verify_batch/{n}: {:.2} ms per batch, {:.3} ms per proof",
            best as f64 / 1e6,
            best as f64 / 1e6 / n as f64
        );
    }

    // One flipped payload bit: the bundle's signal hash no longer matches
    // its proof, the batch fails and bisection has to find index 41.
    let mut poisoned = bundles.clone();
    poisoned[41].payload[0] ^= 1;
    let refs: Vec<&RlnMessageBundle> = poisoned.iter().collect();
    let best = best_of(&|| assert_eq!(verifier.isolate_invalid(std::hint::black_box(&refs)), [41]));
    criterion::baseline::record_value("verify_batch/64_1bad/ns_per_proof", best / 64, ROUNDS);
    println!(
        "verify_batch/64_1bad: {:.2} ms to isolate 1 of 64",
        best as f64 / 1e6
    );
}

fn bench_keycache_load(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(77);
    let (prover, _) = RlnProver::keygen(DEPTH, &mut rng);
    let template = waku_rln::circuit::build_for_setup(DEPTH);
    let dir = std::env::temp_dir().join(format!("waku-bench-keycache-{}", std::process::id()));
    let path = dir.join(format!("rln-depth{DEPTH}.keys"));
    waku_rln::keycache::save_keys(&path, DEPTH, prover.proving_key(), &template).unwrap();

    c.bench_function("keycache/warm_load/10", |b| {
        b.iter(|| {
            let (_, verifier) =
                RlnProver::keygen_or_load(DEPTH, std::hint::black_box(&path), &mut rng);
            assert_eq!(verifier.depth(), DEPTH);
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_verify_batch, bench_keycache_load
}
criterion_main!(benches);
