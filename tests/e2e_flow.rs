//! F1 (paper Figure 1): the full system, end to end, with **real
//! cryptography on the wire** — RLN bundles (Groth16 proofs included)
//! serialized into gossip messages, validated by every routing peer,
//! spam detected mid-network, and the spammer slashed on-chain.

mod common;

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::sync::Arc;

use waku_suite::chain::ETHER;
use waku_suite::gossip::{Network, NetworkConfig, TrafficClass};
use waku_suite::metrics::Registry;
use waku_suite::rln::RlnMessageBundle;
use waku_suite::rln_relay::node::WakuRlnRelayNode;
use waku_suite::rln_relay::{EpochManager, MessageValidator, Outcome};
use waku_suite::sim::{DetectionLog, RlnAcceptor};

use common::decide;

const DEPTH: usize = 8;
const EPOCH_SECS: u64 = 10;

/// A warmed-up gossip network of `nodes.len()` peers, peer `p` routing
/// with the production §III-F validator — real Groth16 verification of
/// the wire bytes — over node `p`'s view of the group. Returns each
/// validator's registry and the shared detection log.
fn build_gossip(
    nodes: &[WakuRlnRelayNode],
    seed: u64,
) -> (Network, Vec<Registry>, Arc<DetectionLog>) {
    let mut net = Network::new(
        NetworkConfig::builder()
            .peers(nodes.len())
            .degree(3)
            .seed(seed)
            .build()
            .expect("valid net config"),
    );
    let detections = DetectionLog::new(nodes.len());
    let registries = nodes
        .iter()
        .enumerate()
        .map(|(p, node)| {
            let validator =
                MessageValidator::new(common::keys(DEPTH).1, EpochManager::new(EPOCH_SECS), 1);
            let registry = validator.registry().clone();
            net.set_validator(
                p,
                Box::new(RlnAcceptor::new(
                    validator,
                    Arc::new(node.group().clone()),
                    p,
                    Arc::clone(&detections),
                )),
            );
            registry
        })
        .collect();
    net.run_until(4_000);
    (net, registries, detections)
}

#[test]
fn honest_bundle_propagates_through_gossip_with_real_proofs() {
    let (_chain, nodes) = common::nodes(5, DEPTH, EPOCH_SECS, 1);
    let mut rng = StdRng::seed_from_u64(2);
    let (mut net, _, _) = build_gossip(&nodes, 3);

    // Node 0 publishes at wall time aligned with sim time 5000 ms.
    let mut publisher = nodes.into_iter().next().unwrap();
    let bundle = publisher
        .publish(b"hello with a real proof", 5, &mut rng)
        .unwrap();
    net.publish_at(5_000, 0, bundle.to_bytes(), TrafficClass::Honest);
    net.run_until(30_000);

    let stats = net.metrics_snapshot();
    assert_eq!(
        stats.scalar("gossip_honest_delivered_total"),
        4,
        "all four other peers validated the Groth16 proof and relayed"
    );
    assert_eq!(stats.scalar("gossip_rejected_total"), 0);
}

#[test]
fn tampered_bundle_is_rejected_at_first_hop() {
    let (_chain, nodes) = common::nodes(5, DEPTH, EPOCH_SECS, 4);
    let mut rng = StdRng::seed_from_u64(5);
    let (mut net, _, _) = build_gossip(&nodes, 6);

    let mut publisher = nodes.into_iter().next().unwrap();
    let bundle = publisher.publish(b"will be tampered", 5, &mut rng).unwrap();
    let mut tampered = bundle.clone();
    tampered.payload = b"swapped payload!".to_vec(); // proof no longer binds

    net.publish_at(5_000, 0, tampered.to_bytes(), TrafficClass::Invalid);
    net.run_until(30_000);

    let stats = net.metrics_snapshot();
    assert_eq!(
        stats.scalar("gossip_invalid_delivered_total"),
        0,
        "never accepted anywhere"
    );
    assert!(
        stats.scalar("gossip_rejected_total") >= 1,
        "rejected at the first hop(s)"
    );
    let validations = stats.scalar("gossip_validations_total");
    assert!(
        validations <= 4,
        "the paper: effect limited to direct connections, got {validations}"
    );
}

/// E6 once with actual Groth16, through gossip: three honest publishers
/// over three epochs and one registered member who signals twice in one,
/// every hop parsing and verifying the 492-byte wire bundle.
#[test]
fn double_signal_is_contained_and_attributed_across_a_real_proof_network() {
    const PEERS: usize = 12;
    const SPAMMER: usize = PEERS - 1;
    let (_chain, mut nodes) = common::nodes(PEERS, DEPTH, EPOCH_SECS, 9);
    let mut rng = StdRng::seed_from_u64(10);
    let (mut net, registries, detections) = build_gossip(&nodes, 11);

    // One honest message per publisher per epoch, mid-epoch, 200 ms apart.
    let mut honest_sent = 0;
    for epoch in 0..3u64 {
        for (k, node) in nodes[..3].iter_mut().enumerate() {
            let at_ms = (epoch * EPOCH_SECS + 5) * 1000 + k as u64 * 200;
            let payload = format!("honest {k} in epoch {epoch}");
            let bundle = node
                .publish(payload.as_bytes(), at_ms / 1000, &mut rng)
                .unwrap();
            net.publish_at(at_ms, k, bundle.to_bytes(), TrafficClass::Honest);
            honest_sent += 1;
        }
    }
    // Two different payloads inside epoch 1, far enough apart that the
    // first has reached everyone before the second leaves.
    const SECOND_AT_MS: u64 = 17_000;
    for (payload, at_ms) in [(&b"spam alpha"[..], 13_000), (b"spam beta", SECOND_AT_MS)] {
        let bundle = nodes[SPAMMER]
            .publish_unchecked(payload, at_ms / 1000, &mut rng)
            .unwrap();
        net.publish_at(at_ms, SPAMMER, bundle.to_bytes(), TrafficClass::Spam);
    }
    net.run_until(40_000);

    let others = PEERS as u64 - 1;
    let stats = net.metrics_snapshot();
    assert_eq!(
        stats.scalar("gossip_honest_delivered_total"),
        honest_sent * others
    );
    assert_eq!(
        stats.scalar("gossip_spam_delivered_total"),
        others,
        "the first signal is within the rate"
    );
    assert_eq!(
        net.deliveries_published_since(SECOND_AT_MS).1,
        0,
        "the second signal is accepted by no router"
    );

    let spammer_key = BTreeSet::from([nodes[SPAMMER].identity().secret_bytes()]);
    let mut caught_by = 0;
    for (p, registry) in registries.iter().enumerate().filter(|(p, _)| *p != SPAMMER) {
        let counters = registry.snapshot();
        let detected = counters.scalar("rln_validation_spam_detected_total");
        let log = detections.recovered_by(p);
        // A router examines each message it did not publish once: the
        // honest ones and the first signal relay, and whatever else it
        // saw is the second signal — which it must have attributed.
        let relayed = honest_sent + 1 - if p < 3 { 3 } else { 0 };
        assert_eq!(
            counters.scalar("rln_validation_relayed_total"),
            relayed,
            "router {p}"
        );
        assert_eq!(
            counters.scalar("rln_validation_total"),
            relayed + detected,
            "router {p}"
        );
        assert_eq!(detected, log.len() as u64, "router {p}");
        if detected > 0 {
            assert_eq!(log, spammer_key, "router {p} recovered someone else's key");
            caught_by += 1;
        }
    }
    assert!(caught_by > 0, "the spammer's neighbours saw both shares");
    assert_eq!(detections.merged(), spammer_key);
}

#[test]
fn network_detects_and_slashes_spammer_with_real_proofs() {
    let (mut chain, mut nodes) = common::nodes(4, DEPTH, EPOCH_SECS, 7);
    let mut rng = StdRng::seed_from_u64(8);

    // Spammer = node 3; router = node 1. Two real proofs, same epoch.
    let spam1 = nodes[3]
        .publish_unchecked(b"spam alpha", 100, &mut rng)
        .unwrap();
    let spam2 = nodes[3]
        .publish_unchecked(b"spam beta", 100, &mut rng)
        .unwrap();
    let spammer_commitment = nodes[3].commitment();

    // Wire round-trip (serialize → parse) like the real network does.
    let spam1 = RlnMessageBundle::from_bytes(&spam1.to_bytes()).unwrap();
    let spam2 = RlnMessageBundle::from_bytes(&spam2.to_bytes()).unwrap();

    assert_eq!(
        decide(&mut nodes[1], &spam1, 100, &mut chain),
        Outcome::Relay
    );
    match decide(&mut nodes[1], &spam2, 100, &mut chain) {
        Outcome::Spam(ev) => assert_eq!(ev.recovered_commitment(), spammer_commitment),
        other => panic!("expected spam, got {other:?}"),
    }

    // commit → mine → reveal → mine → reward
    chain.mine_block();
    nodes[1].sync(&mut chain);
    chain.mine_block();
    for node in nodes.iter_mut() {
        node.sync(&mut chain);
    }
    assert!(!nodes[3].is_registered(), "spammer removed everywhere");
    assert_eq!(nodes[1].metrics().rewards_wei, ETHER, "router rewarded");

    // And honest traffic still flows among the remaining members.
    let bundle = nodes[0].publish(b"life goes on", 200, &mut rng).unwrap();
    assert_eq!(
        decide(&mut nodes[2], &bundle, 200, &mut chain),
        Outcome::Relay
    );
}
