//! A private chat application over WAKU-RLN-RELAY: Waku messages with
//! content topics, history via 13/WAKU2-STORE, and spam protection at one
//! message per second (the paper's chat-app example for the epoch length,
//! §I).
//!
//! Run with: `cargo run --release --example private_chat`

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use waku_chain::{Address, Chain, ChainConfig, ETHER};
use waku_relay::{HistoryQuery, MessageStore, WakuMessage};
use waku_rln::RlnProver;
use waku_rln_relay::node::{NodeConfig, WakuRlnRelayNode};
use waku_rln_relay::Outcome;

const CHAT_TOPIC: &str = "/toy-chat/2/lounge/proto";

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let depth = 10;
    let (prover, verifier) = RlnProver::keygen(depth, &mut rng);
    let prover = Arc::new(prover);
    let mut chain = Chain::new(ChainConfig {
        tree_depth: depth,
        ..ChainConfig::default()
    });

    // Epoch length 1 s: "a messaging rate of 1 per second might be
    // acceptable for a chat application" (paper §I).
    let config = NodeConfig::builder()
        .tree_depth(depth)
        .epoch_length(std::time::Duration::from_secs(1))
        .build()
        .expect("valid node config");

    let names = ["alice", "bob"];
    let mut nodes: Vec<WakuRlnRelayNode> = names
        .iter()
        .map(|name| {
            let addr = Address::from_seed(name.as_bytes());
            chain.fund(addr, 5 * ETHER);
            let mut n = WakuRlnRelayNode::new(
                config,
                addr,
                Arc::clone(&prover),
                verifier.clone(),
                &mut rng,
            );
            n.register(&mut chain);
            n
        })
        .collect();
    chain.mine_block();
    for n in nodes.iter_mut() {
        n.sync(&mut chain);
    }

    // A store node (13/WAKU2-STORE) persists everything it relays.
    let mut store = MessageStore::new(10_000);

    let chat_lines = [
        (0usize, 1_644_810_116u64, "hey bob!"),
        (1, 1_644_810_117, "hi alice, RLN live?"),
        (0, 1_644_810_118, "yep — one message per second each"),
        (1, 1_644_810_119, "and spammers lose their stake?"),
        (0, 1_644_810_120, "cryptographically guaranteed."),
    ];

    println!("== chat session ==");
    for (who, at, text) in chat_lines {
        let waku_message = WakuMessage::new(text.as_bytes().to_vec(), CHAT_TOPIC, at);
        let bundle = nodes[who]
            .publish(&waku_message.to_bytes(), at, &mut rng)
            .expect("one message per second is within the rate");
        // the other peer routes + validates it
        let other = 1 - who;
        let decision = nodes[other].ingest(bundle, at, &mut chain).remove(0);
        assert_eq!(decision.outcome, Outcome::Relay);
        // the store node archives what was relayed
        store.insert(WakuMessage::from_bytes(&decision.bundle.payload).unwrap());
        println!("   [{}] {}: {}", at, names[who], text);
    }

    // Trying to send twice within one epoch is refused *locally* before any
    // key material leaks.
    let burst = WakuMessage::new(b"double send!".to_vec(), CHAT_TOPIC, 1_644_810_120);
    let refused = nodes[0].publish(&burst.to_bytes(), 1_644_810_120, &mut rng);
    println!();
    println!("alice tries a second message in the same second: {refused:?}");
    assert!(refused.is_err());

    // A peer that was offline queries history from the store node.
    println!();
    println!("== offline peer queries 13/WAKU2-STORE ==");
    let response = store.query(&HistoryQuery {
        content_topics: vec![CHAT_TOPIC.to_string()],
        start_time: Some(1_644_810_117),
        end_time: Some(1_644_810_119),
        ..Default::default()
    });
    for m in &response.messages {
        println!(
            "   [{}] {}",
            m.timestamp,
            String::from_utf8_lossy(&m.payload)
        );
    }
    assert_eq!(response.messages.len(), 3);
    println!();
    println!("done: {} archived messages, zero spam.", store.len());
}
