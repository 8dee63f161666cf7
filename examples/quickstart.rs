//! Quickstart: the full WAKU-RLN-RELAY lifecycle in one file — the
//! executable version of the paper's Figures 1–3.
//!
//! 1. a (simulated) trusted setup produces circuit keys,
//! 2. three peers deposit 1 ETH each and register on the membership
//!    contract (Figure 2),
//! 3. everyone syncs the identity tree from contract events,
//! 4. Alice publishes; Bob validates and relays (Figure 3, happy path),
//! 5. Carol spams — two messages in one epoch — Bob's nullifier map
//!    recovers her key, slashes her on-chain with commit-reveal, and
//!    collects her deposit (Figure 3, slashing path).
//!
//! Run with: `cargo run --release --example quickstart`

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use waku_chain::{Address, Chain, ChainConfig, ETHER};
use waku_rln::RlnProver;
use waku_rln_relay::node::{NodeConfig, WakuRlnRelayNode};
use waku_rln_relay::Outcome;

fn main() {
    let mut rng = StdRng::seed_from_u64(2022);
    // A modest tree for a fast demo; production would use depth 20+.
    let depth = 10;

    println!("== 1. trusted setup (simulated MPC ceremony) ==");
    let (prover, verifier) = RlnProver::keygen(depth, &mut rng);
    let prover = Arc::new(prover);
    println!(
        "   proving key: {:.2} MB, proof size: 256 B",
        prover.proving_key().size_in_bytes() as f64 / 1e6
    );

    println!("== 2. registration (paper Figure 2) ==");
    let mut chain = Chain::new(ChainConfig {
        tree_depth: depth,
        ..ChainConfig::default()
    });
    let config = NodeConfig::builder()
        .tree_depth(depth)
        .epoch_length(std::time::Duration::from_secs(10))
        .build()
        .expect("valid node config");
    let mut nodes: Vec<WakuRlnRelayNode> = ["alice", "bob", "carol"]
        .iter()
        .map(|name| {
            let addr = Address::from_seed(name.as_bytes());
            chain.fund(addr, 10 * ETHER);
            let mut node = WakuRlnRelayNode::new(
                config,
                addr,
                Arc::clone(&prover),
                verifier.clone(),
                &mut rng,
            );
            node.register(&mut chain);
            println!("   {name} submitted registration (1 ETH deposit)");
            node
        })
        .collect();

    chain.mine_block();
    println!(
        "   block {} mined; contract now has {} members",
        chain.height(),
        chain.contract().len()
    );

    println!("== 3. tree sync from contract events (paper §III-C) ==");
    for node in nodes.iter_mut() {
        node.sync(&mut chain);
    }
    println!(
        "   all peers agree on root: {}…",
        &format!("{}", nodes[0].group().root())[..24]
    );

    println!("== 4. publish + route (paper Figure 3) ==");
    let now = 1_644_810_116u64; // the paper's own example timestamp
    let bundle = {
        let alice = &mut nodes[0];
        alice
            .publish(b"hello from alice", now, &mut rng)
            .expect("registered and within rate")
    };
    println!(
        "   alice published in epoch {} ({} byte bundle incl. proof)",
        bundle.epoch,
        bundle.size_in_bytes()
    );
    // A node ingests pass-through by default: each bundle is decided on
    // arrival, so one decision comes back.
    let outcome = &nodes[1].ingest(bundle, now, &mut chain)[0].outcome;
    println!("   bob validates: {outcome:?} — relays it onward");
    assert_eq!(*outcome, Outcome::Relay);

    println!("== 5. carol spams: two messages, one epoch ==");
    let spam1 = nodes[2]
        .publish_unchecked(b"buy cheap ETH", now, &mut rng)
        .unwrap();
    let spam2 = nodes[2]
        .publish_unchecked(b"last chance!!", now, &mut rng)
        .unwrap();
    let carol_commitment = nodes[2].commitment();

    let bob = &mut nodes[1];
    assert_eq!(
        bob.ingest(spam1, now, &mut chain)[0].outcome,
        Outcome::Relay
    );
    match &bob.ingest(spam2, now, &mut chain)[0].outcome {
        Outcome::Spam(evidence) => {
            println!(
                "   bob detected double-signaling; recovered key commits to carol: {}",
                evidence.recovered_commitment() == carol_commitment
            );
        }
        other => panic!("expected spam detection, got {other:?}"),
    }

    println!("== 6. commit-reveal slashing (paper §III-F) ==");
    chain.mine_block(); // commit lands
    nodes[1].sync(&mut chain); // reveal submitted
    chain.mine_block(); // reveal lands
    for node in nodes.iter_mut() {
        node.sync(&mut chain);
    }
    println!(
        "   carol removed from group: {} | bob's reward: {} ETH",
        !nodes[2].is_registered(),
        nodes[1].metrics().rewards_wei as f64 / 1e18
    );
    assert!(!nodes[2].is_registered());
    assert_eq!(nodes[1].metrics().rewards_wei, ETHER);

    println!();
    println!("done: spam detected, spammer financially punished, detector rewarded —");
    println!("no identity information revealed for honest peers at any step.");
}
