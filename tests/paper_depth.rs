//! The paper's depth through the real service.
//!
//! §IV evaluates group size 2³², and every "depth 32" figure in the README
//! is quoted for it — yet until the identity tree stopped materializing
//! its zero subtrees, nothing could *open* a node there (the first
//! allocation was 137 GB). This drives a depth-32 [`RelayerService`] end
//! to end: publish → verify → relay on a second service, a double-signal
//! caught and slashed on chain, and a restart that keeps every guarantee.
//! One trusted-setup ceremony (the first open) serves the whole file.

mod common;

use rand::rngs::StdRng;
use rand::SeedableRng;
use waku_suite::arith::traits::Field;
use waku_suite::node::ServiceError;
use waku_suite::rln::{Identity, RlnMessageBundle, RlnProver};
use waku_suite::rln_relay::{GroupManager, NodeError, Outcome};

use common::{open_service, temp_dir};

const DEPTH: usize = 32;
const T: u64 = common::SERVICE_EPOCH_SECS;
const NOW: u64 = 1_000;

#[test]
fn depth_32_service_publishes_relays_slashes_and_restarts() {
    let mut rng = StdRng::seed_from_u64(0xD32);
    let members: Vec<Identity> = (0..3).map(|_| Identity::random(&mut rng)).collect();
    let dir = temp_dir("depth32-first");
    let second_dir = temp_dir("depth32-second");
    for d in [&dir, &second_dir] {
        let _ = std::fs::remove_dir_all(d);
    }

    // ---- open cold: the ceremony, then a tree that costs its members ----
    let mut service = open_service(&dir, DEPTH, 1, &members);
    assert!(service.recovery().cold_keygen);
    let group = service.node().group();
    assert_eq!(group.member_count(), 4);
    assert_eq!(group.tree().depth(), DEPTH);
    assert!(group.tree().resident_bytes() <= 4 * 64 + 32 * 33);

    // What an external member needs to publish: the ceremony's keys and a
    // synced view of the group.
    let (prover, verifier) = RlnProver::keygen_or_load(DEPTH, &dir.join("keys.bin"), &mut rng);
    let mut view = GroupManager::new(DEPTH);
    view.sync(service.chain());
    assert_eq!(view.root(), group.root());
    let signal = |member: usize, payload: &[u8], seed: u64| -> RlnMessageBundle {
        prover
            .prove_message(
                &members[member],
                &view.path_of(1 + member as u64),
                payload,
                NOW / T,
                &mut StdRng::seed_from_u64(seed),
            )
            .unwrap()
    };

    // ---- publish → verifies → relays on a second service ----------------
    let own = service.publish(b"hello from 2^32", NOW, &mut rng).unwrap();
    assert_eq!(own.root, view.root());
    assert!(verifier.verify_bundle(&own));
    std::fs::create_dir_all(&second_dir).unwrap();
    std::fs::copy(dir.join("keys.bin"), second_dir.join("keys.bin")).unwrap();
    let mut second = open_service(&second_dir, DEPTH, 1, &members);
    assert!(!second.recovery().cold_keygen, "shared ceremony");
    let decisions = second.ingest(own, NOW).unwrap();
    assert_eq!(decisions.len(), 1);
    assert_eq!(decisions[0].outcome, Outcome::Relay);
    drop(second);

    // ---- a registered spammer double-signals: caught, removed on chain --
    let spammer = 2;
    let decisions = service
        .ingest(signal(spammer, b"spam alpha", 1), NOW)
        .unwrap();
    assert_eq!(decisions[0].outcome, Outcome::Relay);
    let decisions = service
        .ingest(signal(spammer, b"spam beta", 2), NOW)
        .unwrap();
    match &decisions[0].outcome {
        Outcome::Spam(evidence) => {
            assert_eq!(
                evidence.recovered_commitment(),
                members[spammer].commitment()
            )
        }
        other => panic!("expected spam, got {other:?}"),
    }
    // An honest member's bundle from before the restart, not yet delivered.
    let in_flight = signal(0, b"proved before the restart", 3);
    // commit → mine → reveal → mine
    service.step(NOW + 1).unwrap();
    service.step(NOW + 2).unwrap();
    let slot = 1 + spammer as u64;
    assert_eq!(service.chain().contract().member_at(slot), None);
    assert_eq!(service.node().group().member_count(), 3);
    assert!(service.node().group().tree().leaf(slot).is_zero());
    service.shutdown(NOW + 2).unwrap();

    // ---- drop and reopen the data dir ----------------------------------
    let mut reborn = open_service(&dir, DEPTH, 1, &members);
    let recovery = reborn.recovery();
    assert!(!recovery.cold_keygen, "keys: cache");
    assert!(recovery.snapshot_restored);
    assert_eq!(recovery.publish_guard, Some(NOW / T));
    let err = reborn.publish(b"again", NOW, &mut rng).unwrap_err();
    assert!(matches!(
        err,
        ServiceError::Node(NodeError::RateLimitedLocally)
    ));
    // The replayed chain has the spammer back (the simulated environment
    // is rebuilt on open), so the pre-restart root is current again and
    // the in-flight bundle validates against it…
    let decisions = reborn.ingest(in_flight, NOW).unwrap();
    assert_eq!(decisions[0].outcome, Outcome::Relay);
    // …while the restored nullifier window still remembers the spammer's
    // epoch: a third signal is spam, not a first message.
    let decisions = reborn
        .ingest(signal(spammer, b"spam gamma", 4), NOW)
        .unwrap();
    assert!(matches!(decisions[0].outcome, Outcome::Spam(_)));

    drop(reborn);
    for d in [&dir, &second_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}
