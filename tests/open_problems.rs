//! The paper's §V **open problems**, demonstrated as executable scenarios:
//!
//! 1. *Exceeding the messaging rate via multiple registrations* — an
//!    attacker pays for k registrations and legitimately gets k messages
//!    per epoch; no router can detect it, but the cost scales linearly.
//! 2. *Escaping punishment by early withdrawal* — a spammer withdraws its
//!    stake before the slashing transaction lands, burning only the
//!    registration fee.

mod common;

use rand::rngs::StdRng;
use rand::SeedableRng;

use waku_suite::chain::{ContractError, TxKind, ETHER};
use waku_suite::rln_relay::Outcome;

use common::decide;

const DEPTH: usize = 8;
const EPOCH_SECS: u64 = 10;

#[test]
fn open_problem_1_multiple_registrations_buy_aggregate_rate() {
    // "An attacker pays for multiple e.g., k registrations, and uses its
    //  aggregate quota for messaging i.e., k messages per epoch."
    let mut rng = StdRng::seed_from_u64(1);
    // The attacker runs k = 3 node identities; the last node routes.
    let k = 3;
    let (mut chain, mut sybils) = common::nodes(k + 1, DEPTH, EPOCH_SECS, 11);
    let mut router = sybils.pop().unwrap();
    let escrow_before = chain.contract().escrow();
    assert_eq!(escrow_before, (k as u128 + 1) * ETHER, "k deposits staked");

    // k messages in ONE epoch, one per identity — every single one passes
    // validation: the violation is invisible per-identity.
    let now = 1000u64;
    for (i, sybil) in sybils.iter_mut().enumerate() {
        let bundle = sybil
            .publish(format!("sybil burst {i}").as_bytes(), now, &mut rng)
            .unwrap();
        assert_eq!(
            decide(&mut router, &bundle, now, &mut chain),
            Outcome::Relay,
            "identity {i}: within its own rate, undetectable"
        );
    }
    assert_eq!(router.validation_metrics().spam_detected, 0);

    // …but the economics hold: the quota costs k deposits, exactly the
    // "increasing the entry barrier" mitigation the paper describes.
    assert_eq!(chain.contract().escrow(), escrow_before);
    // And the moment any single identity exceeds ITS rate, it is caught:
    let greedy = &mut sybils[0];
    let extra = greedy
        .publish_unchecked(b"one too many", now, &mut rng)
        .unwrap();
    assert!(matches!(
        decide(&mut router, &extra, now, &mut chain),
        Outcome::Spam(_)
    ));
}

#[test]
fn open_problem_2_early_withdrawal_escapes_the_slash() {
    // "A spammer can escape from getting slashed by withdrawing its fund
    //  from the contract before its spam activity gets caught."
    let mut rng = StdRng::seed_from_u64(2);
    let (mut chain, mut nodes) = common::nodes(2, DEPTH, EPOCH_SECS, 12);
    let [spammer, router]: &mut [_; 2] = nodes.as_mut_slice().try_into().unwrap();
    let spammer_addr = spammer.address();
    let spammer_index = spammer.group().own_index().unwrap();
    let balance_before_spam = chain.balance(spammer_addr);

    // Spam two messages, then IMMEDIATELY submit the withdrawal with a
    // much higher gas price than the router's slashing transactions.
    let now = 1000u64;
    let b1 = spammer.publish_unchecked(b"hit", now, &mut rng).unwrap();
    let b2 = spammer
        .publish_unchecked(b"and run", now, &mut rng)
        .unwrap();
    chain.submit(
        spammer_addr,
        TxKind::Withdraw {
            index: spammer_index,
        },
        1_000, // outbids the router's 100 gwei commit
    );

    // The router detects and starts commit-reveal — but the commit shares
    // a block with (and is ordered after) the withdrawal.
    assert_eq!(decide(router, &b1, now, &mut chain), Outcome::Relay);
    assert!(matches!(
        decide(router, &b2, now, &mut chain),
        Outcome::Spam(_)
    ));
    chain.mine_block(); // withdrawal executes first (gas price order)
    router.sync(&mut chain); // reveal goes out
    chain.mine_block();
    router.sync(&mut chain);

    // The slash reveal reverted: the membership was already gone.
    assert_eq!(router.metrics().rewards_wei, 0, "no reward to collect");
    assert_eq!(
        chain.contract().escrow(),
        ETHER,
        "only the router's own stake remains"
    );
    // The spammer got its deposit back (minus gas) — the escape the paper
    // flags as an open problem. Its only loss is the registration gas.
    let balance_after = chain.balance(spammer_addr);
    assert!(
        balance_after > balance_before_spam,
        "deposit refunded: {balance_after} vs {balance_before_spam}"
    );
    // The spammer is out of the group either way.
    spammer.sync(&mut chain);
    assert!(!spammer.is_registered());
}

#[test]
fn double_registration_of_same_commitment_is_rejected() {
    // Supporting invariant for the Sybil economics: an attacker cannot
    // stretch one deposit across two slots.
    let (mut chain, nodes) = common::nodes(1, DEPTH, EPOCH_SECS, 13);
    let node = &nodes[0];
    let tx = chain.submit(
        node.address(),
        TxKind::Register {
            commitment: node.commitment(),
        },
        100,
    );
    chain.mine_block();
    let receipt = chain.receipt(tx).unwrap();
    assert!(!receipt.success);
    assert_eq!(receipt.error, Some(ContractError::AlreadyRegistered));
}
