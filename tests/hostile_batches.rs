//! A batch-64 relayer under a junk-proof flood decides every message the
//! way one-at-a-time validation does.
//!
//! Batched verification is an optimisation an attacker can aim at: a junk
//! "proof" costs nothing to mint, fails the flush's one pairing check and
//! forces the relayer to find it. Whatever that search does — fixed RLC
//! scalars, recorded lines, bisection in GT, the checks of one tree level
//! side by side — the *decisions* must be the sequential
//! [`MessageValidator`]'s for the same arrival order, at every poison
//! rate, and the search must stay inside its stated work bound. This is
//! the seed of ROADMAP E12 (defender cost under an invalid-proof flood).

mod common;

use rand::rngs::StdRng;
use rand::SeedableRng;
use waku_suite::rln::{Identity, RlnMessageBundle, RlnProver, RlnVerifier};
use waku_suite::rln_relay::{EpochManager, GroupManager, MessageValidator, Outcome};

use common::{open_service, temp_dir};

/// 64 publishers and the service's own membership need 65 leaves.
const DEPTH: usize = 7;
const T: u64 = common::SERVICE_EPOCH_SECS;
const BATCH: usize = 64;
const NOW: u64 = 1_000;

/// One epoch of traffic in arrival order: 62 first signals, one stale
/// replay (rejected before the queue), one exact duplicate and one
/// double-signal — 64 proof-worthy bundles, one full batch.
fn arrivals(
    prover: &RlnProver,
    group: &GroupManager,
    publishers: &[Identity],
) -> Vec<RlnMessageBundle> {
    let mut rng = StdRng::seed_from_u64(0xE12);
    let epoch = NOW / T;
    let mut signal = |member: usize, payload: &str, epoch: u64| {
        prover
            .prove_message(
                &publishers[member],
                &group.path_of(1 + member as u64),
                payload.as_bytes(),
                epoch,
                &mut rng,
            )
            .unwrap()
    };
    let mut bundles: Vec<RlnMessageBundle> = (0..BATCH - 2)
        .map(|member| signal(member, &format!("message {member}"), epoch))
        .collect();
    bundles.insert(20, signal(62, "stale", epoch - 5));
    bundles.insert(30, bundles[10].clone());
    bundles.insert(50, signal(3, "a second signal this epoch", epoch));
    bundles
}

#[test]
fn batched_relayer_decides_like_the_sequential_validator_at_every_poison_rate() {
    let mut rng = StdRng::seed_from_u64(0xE120);
    let publishers: Vec<Identity> = (0..BATCH).map(|_| Identity::random(&mut rng)).collect();

    // The first open runs the key ceremony; every later one loads it.
    let keys_dir = temp_dir("hostile-keys");
    let _ = std::fs::remove_dir_all(&keys_dir);
    let first = open_service(&keys_dir, DEPTH, BATCH, &publishers);
    let (prover, verifier): (RlnProver, RlnVerifier) =
        RlnProver::keygen_or_load(DEPTH, &keys_dir.join("keys.bin"), &mut rng);
    let mut group = GroupManager::new(DEPTH);
    group.sync(first.chain());
    drop(first);
    let honest = arrivals(&prover, &group, &publishers);
    let proof_worthy = honest.len() - 1;
    assert_eq!(proof_worthy, BATCH);

    for junk in [0, 1, 4, 32] {
        // Junk at evenly spread arrival positions: an honest bundle with
        // one payload bit flipped, so its proof no longer binds x = H(m).
        let mut traffic = honest.clone();
        for j in 0..junk {
            let stride = traffic.len() / junk;
            traffic[j * stride + stride / 2].payload[0] ^= 1;
        }

        let mut sequential = MessageValidator::new(verifier.clone(), EpochManager::new(T), 1);
        let expected: Vec<Outcome> = traffic
            .iter()
            .map(|b| sequential.validate(b, &group, NOW))
            .collect();
        let invalid = expected
            .iter()
            .filter(|o| **o == Outcome::InvalidProof)
            .count();
        assert!(invalid >= junk.min(1) && invalid <= junk, "{junk} junk");

        let dir = temp_dir(&format!("hostile-rate-{junk}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::copy(keys_dir.join("keys.bin"), dir.join("keys.bin")).unwrap();
        let mut service = open_service(&dir, DEPTH, BATCH, &publishers);
        let mut decisions = Vec::new();
        for bundle in &traffic {
            decisions.extend(service.ingest(bundle.clone(), NOW).unwrap());
        }
        assert_eq!(service.status().queued, 0, "the 64th arrival flushed");
        assert_eq!(decisions.len(), traffic.len());

        // Decisions complete out of arrival order (the stale replay never
        // queues); identical bundles are decided first-come-first-served
        // on both paths, so first-fit matching is sound.
        let mut used = vec![false; traffic.len()];
        for d in &decisions {
            let at = (0..traffic.len())
                .find(|&i| !used[i] && traffic[i] == d.bundle)
                .expect("every decision is about an arrival");
            used[at] = true;
            assert_eq!(d.outcome, expected[at], "arrival {at}, {junk} junk");
        }

        // What the flood bought: nothing without junk, and never more
        // than ⌈log₂64⌉ + 1 pairing checks per junk proof.
        let snap = service.node().registry().snapshot();
        assert_eq!(
            snap.scalar("rln_batch_invalid_proofs_total"),
            invalid as u64
        );
        let checks = snap.histogram("rln_batch_isolation_checks").unwrap();
        assert_eq!(checks.count, 1, "one flush");
        assert!(checks.sum <= (invalid * 7) as u64, "{} checks", checks.sum);
        assert_eq!(checks.sum == 0, invalid == 0);

        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&keys_dir);
}
