//! E1/E2 criterion benches: RLN proof generation and (constant-time)
//! verification. Paper reference points (§IV, iPhone 8): generation
//! ≈0.5 s at group size 2³², verification ≈30 ms.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use waku_arith::traits::PrimeField;
use waku_bench::sparse_single_member_path;
use waku_merkle::MerklePath;
use waku_rln::{Identity, RlnProver};

fn prover_fixture(depth: usize) -> (RlnProver, waku_rln::RlnVerifier, Identity, MerklePath) {
    let mut rng = StdRng::seed_from_u64(depth as u64);
    let (prover, verifier) = RlnProver::keygen(depth, &mut rng);
    let identity = Identity::random(&mut rng);
    // single-member tree: our leaf at index 0, zero siblings
    let path = sparse_single_member_path(depth);
    (prover, verifier, identity, path)
}

/// Steady-state publishing: one identity on an unchanged path, a new
/// epoch per message — the prover re-multiplies only the share/nullifier
/// half of the assignment (the warm-up loop has rolled the key forward
/// before the first timed sample). Proving the *same* message in a loop
/// would time the empty delta, i.e. quotient + `H` only.
fn bench_prove(c: &mut Criterion) {
    let mut group = c.benchmark_group("rln_prove");
    group.sample_size(10);
    for depth in [10usize, 20] {
        let (prover, _, identity, path) = prover_fixture(depth);
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, _| {
            let mut rng = StdRng::seed_from_u64(99);
            let mut epoch = 1234;
            b.iter(|| {
                epoch += 1;
                prover
                    .prove_message(&identity, &path, b"bench message", epoch, &mut rng)
                    .unwrap()
            })
        });
    }
    group.finish();
}

/// First-proof cost: two identities alternate on one key, so every wire
/// downstream of `sk` — the whole assignment bar the path bits — moves
/// between consecutive proofs and all four query MSMs run at full length.
fn bench_prove_cold(c: &mut Criterion) {
    let mut group = c.benchmark_group("rln_prove_cold");
    group.sample_size(10);
    for depth in [10usize, 20] {
        let (prover, _, identity, path) = prover_fixture(depth);
        let other = Identity::random(&mut StdRng::seed_from_u64(98));
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, _| {
            let mut rng = StdRng::seed_from_u64(99);
            let mut epoch = 1234;
            b.iter(|| {
                epoch += 1;
                let who = if epoch % 2 == 0 { &identity } else { &other };
                prover
                    .prove_message(who, &path, b"bench message", epoch, &mut rng)
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_verify(c: &mut Criterion) {
    let mut group = c.benchmark_group("rln_verify");
    group.sample_size(20);
    for depth in [10usize, 20] {
        let (prover, verifier, identity, path) = prover_fixture(depth);
        let mut rng = StdRng::seed_from_u64(7);
        let bundle = prover
            .prove_message(&identity, &path, b"bench message", 1234, &mut rng)
            .unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, _| {
            b.iter(|| {
                assert!(verifier.verify_bundle(std::hint::black_box(&bundle)));
            })
        });
    }
    group.finish();
}

fn bench_share_derivation(c: &mut Criterion) {
    // The non-SNARK part of publishing: share + nullifier derivation.
    let mut rng = StdRng::seed_from_u64(8);
    let identity = Identity::random(&mut rng);
    let x = waku_rln::message_hash(b"payload");
    c.bench_function("rln_derive_share", |b| {
        b.iter(|| {
            waku_rln::derive(
                identity.secret(),
                waku_rln::external_nullifier(std::hint::black_box(42)),
                x,
            )
        })
    });
    let _ = waku_arith::Fr::from_u64(0);
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_prove, bench_prove_cold, bench_verify, bench_share_derivation
}
criterion_main!(benches);
