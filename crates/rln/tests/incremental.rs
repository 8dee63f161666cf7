//! Incremental proving must be invisible in the output: whatever a key
//! proved before, a proof is the same group elements a cold copy of the
//! key produces from the same RNG stream — and the same bytes the
//! full-MSM prover of PR 14 produced.

use std::sync::{Barrier, OnceLock};

use rand::rngs::StdRng;
use rand::SeedableRng;
use waku_arith::fields::Fr;
use waku_arith::traits::PrimeField;
use waku_merkle::{DenseTree, MerklePath};
use waku_rln::circuit::{build, RlnPublicInputs, RlnWitness};
use waku_rln::{
    derive, external_nullifier, message_hash, Identity, RlnMessageBundle, RlnProver, RlnVerifier,
};
use waku_snark::groth16::{prove, Proof};
use waku_snark::{ConstraintSystem, SnarkError};

const DEPTH: usize = 6;
const INDEX: u64 = 9;

/// The ceremony every test uses. Tests run concurrently and each looks at
/// what *its* key carried from *its* previous proof, so each test replays
/// the ceremony into a prover of its own …
fn fresh_prover() -> RlnProver {
    RlnProver::keygen(DEPTH, &mut StdRng::seed_from_u64(0x1DC5)).0
}

/// … and this shared pair only lends its verifier and, through `clone`,
/// cold copies of the proving key.
fn keys() -> &'static (RlnProver, RlnVerifier) {
    static CELL: OnceLock<(RlnProver, RlnVerifier)> = OnceLock::new();
    CELL.get_or_init(|| RlnProver::keygen(DEPTH, &mut StdRng::seed_from_u64(0x1DC5)))
}

fn member(seed: u64) -> (Identity, DenseTree) {
    let id = Identity::random(&mut StdRng::seed_from_u64(seed));
    let mut tree = DenseTree::new(DEPTH);
    tree.set(2, Fr::from_u64(1001));
    tree.set(INDEX, id.commitment());
    tree.set(17, Fr::from_u64(1002));
    (id, tree)
}

/// The statement `prove_message` proves, as a freshly built circuit.
fn statement(id: &Identity, path: &MerklePath, payload: &[u8], epoch: u64) -> ConstraintSystem {
    let x = message_hash(payload);
    let ext = external_nullifier(epoch);
    let (_, nullifier, y) = derive(id.secret(), ext, x);
    let public = RlnPublicInputs {
        x,
        external_nullifier: ext,
        root: path.compute_root(id.commitment()),
        y,
        nullifier,
    };
    let witness = RlnWitness {
        sk: id.secret(),
        path: path.clone(),
    };
    build(&witness, &public)
}

/// The proof a key that has never proved anything makes of the statement.
fn cold_proof(id: &Identity, path: &MerklePath, payload: &[u8], epoch: u64, seed: u64) -> Proof {
    let cold = keys().0.proving_key().clone();
    assert_eq!(cold.last_changed_vars(), None, "a cloned key starts cold");
    let cs = statement(id, path, payload, epoch);
    prove(&cold, &cs, &mut StdRng::seed_from_u64(seed)).unwrap()
}

fn warm_bundle(
    prover: &RlnProver,
    id: &Identity,
    path: &MerklePath,
    payload: &[u8],
    epoch: u64,
    seed: u64,
) -> RlnMessageBundle {
    prover
        .prove_message(id, path, payload, epoch, &mut StdRng::seed_from_u64(seed))
        .unwrap()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// `Proof::to_bytes()` of the fixed statement below, captured at the
/// parent commit (PR 14, full MSMs on every proof).
const GOLDEN: &str = "cc17fae0ef6e464144482942c3b2eda0dc9d96ba73c2998555a7531b045fcc19a9f4fc179848dd5dc5632d9ac04334865e011c61b6ed2f18ee3bd73222319523edbf51d2008f1433d2979235f8d7e0f15e51e5066287bd228b13956099cf6e251af44ccaf7dabfc8f46f34c1d9f2929edffee2f461142cf3fb111b32b58b2d2842d080dae4c4a20dd6b4af963469a30010972f1ac1991e270435a392e4b10f007c184c660df7323675737ffe6a18bcac34853de5ffac6c3e4780452ce47eda128912eaeafbc9faa4ce1808933b4661a1127927d657a032df55ab5a73aa95952c5d559fc4696c34f57c4a408436116cc76de6e2dcd0e104a25492b288f092f112";

#[test]
fn proof_bytes_equal_the_full_msm_provers() {
    let prover = fresh_prover();
    let (id, tree) = member(1);
    let path = tree.proof(INDEX);
    // Cold, then again after the key has rolled its sums through two
    // other statements: same seed, same bytes.
    let cold = warm_bundle(&prover, &id, &path, b"golden", 4242, 77);
    assert_eq!(hex(&cold.proof.to_bytes()), GOLDEN);
    warm_bundle(&prover, &id, &path, b"something else", 4243, 1);
    warm_bundle(&prover, &member(2).0, &path, b"someone else", 4243, 2);
    let warm = warm_bundle(&prover, &id, &path, b"golden", 4242, 77);
    assert_eq!(hex(&warm.proof.to_bytes()), GOLDEN);
}

#[test]
fn warm_proofs_equal_cold_proofs_along_a_publishers_life() {
    let prover = fresh_prover();
    let verifier = &keys().1;
    let (id, mut tree) = member(3);
    let total = prover.proving_key().a_query.len();
    let step = |label: &str,
                id: &Identity,
                path: &MerklePath,
                payload: &[u8],
                epoch: u64,
                seed: u64|
     -> usize {
        let bundle = warm_bundle(&prover, id, path, payload, epoch, seed);
        assert_eq!(
            bundle.proof,
            cold_proof(id, path, payload, epoch, seed),
            "{label}: warm proof differs from the cold proof of the same statement and seed"
        );
        assert!(verifier.verify_bundle(&bundle), "{label}");
        prover.proving_key().last_changed_vars().unwrap()
    };

    let path = tree.proof(INDEX);
    let first = step("first proof", &id, &path, b"m0", 100, 10);
    assert!(
        first > total / 2,
        "a cold key multiplies (almost) everything"
    );

    let same_path = step("same path, new epoch", &id, &path, b"m1", 101, 11);
    assert!(
        same_path < total / 4,
        "membership half must drop out: {same_path} of {total} moved"
    );

    // Sibling changes climb the tree: the higher the changed sibling, the
    // fewer Merkle levels re-derive.
    tree.set(INDEX ^ 1, Fr::from_u64(5)); // level 0
    let level0 = step("level-0 sibling", &id, &tree.proof(INDEX), b"m2", 102, 12);
    tree.set(INDEX ^ 0b100, Fr::from_u64(6)); // level 2
    let mid = step("mid sibling", &id, &tree.proof(INDEX), b"m3", 103, 13);
    tree.set(INDEX ^ (1 << (DEPTH - 1)), Fr::from_u64(7)); // top level
    let top = step("top sibling", &id, &tree.proof(INDEX), b"m4", 104, 14);
    assert!(same_path < top && top < mid && mid < level0 && level0 < first);

    let path = tree.proof(INDEX);
    let (other, _) = member(4);
    let stranger = step("different identity", &other, &path, b"m5", 105, 15);
    assert!(stranger > level0, "a new sk re-derives every hash");

    step("back to the first identity", &id, &path, b"m6", 106, 16);
    let repeat = step("identical input again", &id, &path, b"m6", 106, 16);
    assert_eq!(repeat, 0, "empty delta");
}

#[test]
fn failed_attempt_leaves_the_carry_over_intact() {
    let prover = fresh_prover();
    let pk = prover.proving_key();
    let (id, mut tree) = member(5);
    let stale = tree.proof(INDEX);
    warm_bundle(&prover, &id, &stale, b"good", 1, 20);
    let carried = pk.last_changed_vars();

    // §III-C: the tree moved on, the publisher claims the new root over
    // its stale path. The satisfaction check refuses…
    tree.set(INDEX ^ 1, Fr::from_u64(8));
    let mut bad = statement(&id, &stale, b"stale", 2);
    bad.set_instance_value(3, tree.root());
    assert!(matches!(
        prove(pk, &bad, &mut StdRng::seed_from_u64(21)),
        Err(SnarkError::Unsatisfied(_))
    ));
    // …as do a circuit of another shape and an unfinalized one…
    let other_depth = waku_rln::circuit::build_for_setup(DEPTH - 1);
    assert!(matches!(
        prove(pk, &other_depth, &mut StdRng::seed_from_u64(22)),
        Err(SnarkError::KeyMismatch)
    ));
    let unfinalized = ConstraintSystem::new();
    assert!(matches!(
        prove(pk, &unfinalized, &mut StdRng::seed_from_u64(23)),
        Err(SnarkError::NotFinalized)
    ));
    // …and none of them left a trace.
    assert_eq!(pk.last_changed_vars(), carried);

    let fresh = tree.proof(INDEX);
    let after = warm_bundle(&prover, &id, &fresh, b"good again", 2, 24);
    assert_eq!(after.proof, cold_proof(&id, &fresh, b"good again", 2, 24));
    assert!(keys().1.verify_bundle(&after));
}

#[test]
fn threads_sharing_one_prover_all_verify() {
    const THREADS: usize = 4;
    const ROUNDS: u64 = 3;
    let prover = fresh_prover();
    let members = [member(6), member(7)];
    let paths: Vec<MerklePath> = members.iter().map(|(_, t)| t.proof(INDEX)).collect();
    // Every round starts together, so loads and stores of the carry-over
    // interleave across two identities.
    let barrier = Barrier::new(THREADS);
    let bundles: Vec<(usize, u64, RlnMessageBundle)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (prover, members, paths, barrier) = (&prover, &members, &paths, &barrier);
                s.spawn(move || {
                    let who = t % 2;
                    (0..ROUNDS)
                        .map(|round| {
                            barrier.wait();
                            let epoch = 1000 + round * THREADS as u64 + t as u64;
                            let seed = epoch;
                            let payload = format!("thread {t} round {round}");
                            let bundle = warm_bundle(
                                prover,
                                &members[who].0,
                                &paths[who],
                                payload.as_bytes(),
                                epoch,
                                seed,
                            );
                            (who, seed, bundle)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("prover thread panicked"))
            .collect()
    });
    assert_eq!(bundles.len(), THREADS * ROUNDS as usize);
    for (who, seed, bundle) in &bundles {
        assert!(keys().1.verify_bundle(bundle));
        let cold = cold_proof(
            &members[*who].0,
            &paths[*who],
            &bundle.payload,
            bundle.epoch,
            *seed,
        );
        assert_eq!(bundle.proof, cold, "interleaving leaked into a proof");
    }
}

#[test]
fn carry_over_is_never_persisted_copied_or_printed() {
    use waku_rln::keycache::{decode_keys, encode_keys};
    let prover = fresh_prover();
    let pk = prover.proving_key();
    let template = waku_rln::circuit::build_for_setup(DEPTH);
    let before = encode_keys(DEPTH, pk, &template);
    let (id, tree) = member(8);
    warm_bundle(&prover, &id, &tree.proof(INDEX), b"secret-bearing", 1, 30);
    assert!(pk.last_changed_vars().is_some(), "the key is warm now");

    let after = encode_keys(DEPTH, pk, &template);
    assert!(before == after, "key file changed after a proof");
    let (reloaded, _) = decode_keys(&after, DEPTH).unwrap();
    assert_eq!(reloaded.last_changed_vars(), None);
    assert_eq!(pk.clone().last_changed_vars(), None);

    // Debug prints sizes, never a field element of the carried witness.
    let printed = format!("{pk:?}");
    assert!(printed.len() < 400, "{printed}");
    assert!(printed.contains("carried_vars: Some("), "{printed}");
}
