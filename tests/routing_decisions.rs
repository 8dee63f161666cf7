//! F3 (paper Figure 3): every branch of the §III-F routing decision tree,
//! exercised through the public node API with real proofs.

mod common;

use rand::rngs::StdRng;
use rand::SeedableRng;

use waku_suite::arith::traits::Field;
use waku_suite::chain::{Address, TxKind, ETHER};
use waku_suite::rln_relay::Outcome;

use common::decide;

const DEPTH: usize = 8;
const EPOCH_SECS: u64 = 10;

#[test]
fn branch_relay() {
    let (mut chain, mut nodes) = common::nodes(2, DEPTH, EPOCH_SECS, 1);
    let [alice, bob]: &mut [_; 2] = nodes.as_mut_slice().try_into().unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    let bundle = alice.publish(b"valid", 1000, &mut rng).unwrap();
    assert_eq!(decide(bob, &bundle, 1000, &mut chain), Outcome::Relay);
    assert_eq!(bob.validation_metrics().relayed, 1);
}

#[test]
fn branch_epoch_gap_drop() {
    // "If the epoch value attached to the message has more than Thr gap
    //  with the routing peer's current epoch, the message is dropped."
    let (mut chain, mut nodes) = common::nodes(2, DEPTH, EPOCH_SECS, 3);
    let [alice, bob]: &mut [_; 2] = nodes.as_mut_slice().try_into().unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    let bundle = alice.publish(b"ancient", 1000, &mut rng).unwrap();
    // Receiver's clock is 10 epochs later.
    let outcome = decide(bob, &bundle, 2000, &mut chain);
    assert!(matches!(outcome, Outcome::EpochOutOfRange(gap) if gap == 100));
    assert_eq!(bob.validation_metrics().epoch_dropped, 1);
}

#[test]
fn branch_invalid_proof_drop() {
    // "In case of invalid proof, the message is dropped."
    let (mut chain, mut nodes) = common::nodes(2, DEPTH, EPOCH_SECS, 5);
    let [alice, bob]: &mut [_; 2] = nodes.as_mut_slice().try_into().unwrap();
    let mut rng = StdRng::seed_from_u64(6);
    let mut bundle = alice.publish(b"will tamper", 1000, &mut rng).unwrap();
    bundle.y += waku_suite::arith::Fr::one(); // share no longer matches proof
    assert_eq!(
        decide(bob, &bundle, 1000, &mut chain),
        Outcome::InvalidProof
    );
    assert_eq!(bob.validation_metrics().proof_rejected, 1);
}

#[test]
fn branch_duplicate_discard() {
    // "If (x,y) = (x',y'), then the message is a duplicate and should be
    //  discarded."
    let (mut chain, mut nodes) = common::nodes(2, DEPTH, EPOCH_SECS, 7);
    let [alice, bob]: &mut [_; 2] = nodes.as_mut_slice().try_into().unwrap();
    let mut rng = StdRng::seed_from_u64(8);
    let bundle = alice.publish(b"same twice", 1000, &mut rng).unwrap();
    assert_eq!(decide(bob, &bundle, 1000, &mut chain), Outcome::Relay);
    assert_eq!(decide(bob, &bundle, 1001, &mut chain), Outcome::Duplicate);
    assert_eq!(bob.validation_metrics().duplicates, 1);
}

#[test]
fn branch_slash_on_distinct_shares() {
    // "If the identity share of the older message is different …
    //  then slashing takes place."
    let (mut chain, mut nodes) = common::nodes(2, DEPTH, EPOCH_SECS, 9);
    let [alice, bob]: &mut [_; 2] = nodes.as_mut_slice().try_into().unwrap();
    let mut rng = StdRng::seed_from_u64(10);
    let b1 = alice.publish_unchecked(b"one", 1000, &mut rng).unwrap();
    let b2 = alice.publish_unchecked(b"two", 1005, &mut rng).unwrap();
    assert_eq!(b1.epoch, b2.epoch, "same epoch (T = 10 s)");
    assert_eq!(decide(bob, &b1, 1000, &mut chain), Outcome::Relay);
    match decide(bob, &b2, 1005, &mut chain) {
        Outcome::Spam(ev) => {
            assert_eq!(ev.recovered_secret, alice.identity().secret());
        }
        other => panic!("expected Spam, got {other:?}"),
    }
    assert_eq!(bob.validation_metrics().spam_detected, 1);
}

#[test]
fn branch_unknown_root_drop() {
    // A proof bound to a root this network never had (e.g. forged
    // membership or a fork) is dropped before proof verification.
    let (mut chain, mut nodes) = common::nodes(2, DEPTH, EPOCH_SECS, 11);
    let [alice, bob]: &mut [_; 2] = nodes.as_mut_slice().try_into().unwrap();
    let mut rng = StdRng::seed_from_u64(12);
    let mut bundle = alice.publish(b"wrong root", 1000, &mut rng).unwrap();
    bundle.root += waku_suite::arith::Fr::one();
    assert_eq!(decide(bob, &bundle, 1000, &mut chain), Outcome::UnknownRoot);
    assert_eq!(bob.validation_metrics().root_dropped, 1);
}

#[test]
fn stale_root_window_tolerates_one_registration() {
    // §III-C: peers must stay synced; the recent-root window keeps
    // in-flight messages valid across a single membership update.
    let (mut chain, mut nodes) = common::nodes(2, DEPTH, EPOCH_SECS, 13);
    let [alice, bob]: &mut [_; 2] = nodes.as_mut_slice().try_into().unwrap();
    let mut rng = StdRng::seed_from_u64(14);
    let bundle = alice.publish(b"pre-churn", 1000, &mut rng).unwrap();

    // Another registration lands before bob processes the message.
    let late_addr = Address::from_seed(b"late-joiner");
    chain.fund(late_addr, 10 * ETHER);
    chain.submit(
        late_addr,
        TxKind::Register {
            commitment: waku_suite::arith::Fr::from_u64_local(12345),
        },
        100,
    );
    chain.mine_block();
    bob.sync(&mut chain);

    assert_eq!(decide(bob, &bundle, 1000, &mut chain), Outcome::Relay);
}

// Local helper: keep PrimeField usage explicit in the test.
trait FromU64Local {
    fn from_u64_local(v: u64) -> Self;
}
impl FromU64Local for waku_suite::arith::Fr {
    fn from_u64_local(v: u64) -> Self {
        use waku_suite::arith::traits::PrimeField;
        Self::from_u64(v)
    }
}
