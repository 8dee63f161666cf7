//! Economic invariants of the slashing flow (paper §I item 4, §III-F):
//! deposits are conserved, rewards go to the first valid slasher, and
//! concurrent detection by multiple routers resolves to exactly one
//! payout.

mod common;

use rand::rngs::StdRng;
use rand::SeedableRng;

use waku_suite::chain::ETHER;
use waku_suite::rln_relay::Outcome;

use common::decide;

const DEPTH: usize = 8;
const EPOCH_SECS: u64 = 10;

#[test]
fn escrow_is_conserved_through_slashing() {
    let (mut chain, mut nodes) = common::nodes(3, DEPTH, EPOCH_SECS, 1);
    let mut rng = StdRng::seed_from_u64(2);
    let total_deposits = 3 * ETHER;
    assert_eq!(chain.contract().escrow(), total_deposits);

    let b1 = nodes[0].publish_unchecked(b"a", 100, &mut rng).unwrap();
    let b2 = nodes[0].publish_unchecked(b"b", 100, &mut rng).unwrap();
    decide(&mut nodes[1], &b1, 100, &mut chain);
    decide(&mut nodes[1], &b2, 100, &mut chain);
    chain.mine_block();
    nodes[1].sync(&mut chain);
    chain.mine_block();
    nodes[1].sync(&mut chain);

    // One deposit left escrow, exactly into the slasher's reward.
    assert_eq!(chain.contract().escrow(), total_deposits - ETHER);
    assert_eq!(nodes[1].metrics().rewards_wei, ETHER);
}

#[test]
// Routers are cross-indexed mutably, so index loops are the only option.
#[allow(clippy::needless_range_loop)]
fn concurrent_detectors_yield_exactly_one_payout() {
    // Both routers see the double-signal and both run commit-reveal; only
    // the first reveal finds the membership — the contract pays once.
    let (mut chain, mut nodes) = common::nodes(4, DEPTH, EPOCH_SECS, 3);
    let mut rng = StdRng::seed_from_u64(4);
    let b1 = nodes[0].publish_unchecked(b"x", 100, &mut rng).unwrap();
    let b2 = nodes[0].publish_unchecked(b"y", 100, &mut rng).unwrap();
    for router in 1..=2usize {
        assert_eq!(
            decide(&mut nodes[router], &b1, 100, &mut chain),
            Outcome::Relay,
            "each router keeps its own nullifier map"
        );
        assert!(matches!(
            decide(&mut nodes[router], &b2, 100, &mut chain),
            Outcome::Spam(_)
        ));
    }
    chain.mine_block(); // both commits land
    nodes[1].sync(&mut chain);
    nodes[2].sync(&mut chain);
    chain.mine_block(); // both reveals attempt; one wins
    nodes[1].sync(&mut chain);
    nodes[2].sync(&mut chain);

    let total_rewards = nodes[1].metrics().rewards_wei + nodes[2].metrics().rewards_wei;
    assert_eq!(total_rewards, ETHER, "exactly one payout for one spammer");
    // The spammer is removed exactly once.
    for node in nodes.iter_mut() {
        node.sync(&mut chain);
    }
    assert!(!nodes[0].is_registered());
}

#[test]
// Publisher/router pairs are cross-indexed mutably; index loops required.
#[allow(clippy::needless_range_loop)]
fn honest_members_never_lose_their_stake() {
    let (mut chain, mut nodes) = common::nodes(3, DEPTH, EPOCH_SECS, 5);
    let mut rng = StdRng::seed_from_u64(6);
    // Heavy honest traffic: one message per epoch for 5 epochs each.
    for k in 0..5u64 {
        let now = 100 + k * 10;
        for i in 0..3usize {
            let bundle = nodes[i]
                .publish(format!("peer{i} epoch{k}").as_bytes(), now, &mut rng)
                .unwrap();
            for j in 0..3usize {
                if i != j {
                    let outcome = decide(&mut nodes[j], &bundle, now, &mut chain);
                    assert!(
                        matches!(outcome, Outcome::Relay | Outcome::Duplicate),
                        "honest traffic must never be flagged: {outcome:?}"
                    );
                }
            }
        }
    }
    chain.mine_blocks(2);
    for node in nodes.iter_mut() {
        node.sync(&mut chain);
        assert!(node.is_registered(), "no honest member was slashed");
    }
    assert_eq!(chain.contract().escrow(), 3 * ETHER, "all stakes intact");
}
