//! High-rate epoch tuning: the paper notes (§I) that 1 msg/s "might be too
//! low for communication among Ethereum network validators". This example
//! runs the same honest workload under several epoch lengths and shows the
//! throughput/anti-spam trade-off, plus the Thr the §III-F formula
//! prescribes for each.
//!
//! Run with: `cargo run --release --example validator_network [PEERS]`
//!
//! The peer count defaults to 40; override with the positional arg to
//! watch the trade-off at network scale (above 1 000 peers the publisher
//! set is capped at 200 to keep the workload linear).

use waku_gossip::NetworkConfig;
use waku_rln_relay::EpochManager;
use waku_sim::{run_scenario, Defense, ScenarioConfig};

fn main() {
    let peers = std::env::args()
        .nth(1)
        .and_then(|v| v.parse::<usize>().ok())
        .map_or(40, |n| n.max(4));
    let honest_publishers = if peers > 1_000 { Some(200) } else { None };
    // Keep the mesh degree valid for tiny networks (degree must be < peers).
    let degree = 8.min(peers - 1);
    println!("validator-network tuning: {peers} peers, honest publish attempt every 500 ms\n");

    // Empirical NetworkDelay ≈ p95 latency (measured below), drift ±100 ms.
    println!("| epoch T | Thr (formula, delay 0.5s, async 0.2s) | honest sent (rate-limited) | delivery ratio | spam delivery |");
    println!("|---|---|---|---|---|");

    for epoch_secs in [1u64, 5, 30] {
        let em = EpochManager::new(epoch_secs);
        let thr = em.max_epoch_gap(0.5, 0.2);
        let report = run_scenario(&ScenarioConfig {
            peers,
            spammers: 2,
            duration_ms: 40_000,
            honest_interval_ms: 500, // validators want ~2 msg/s
            spam_interval_ms: 250,
            honest_publishers,
            defense: Defense::RlnRelay { epoch_secs, thr },
            net: NetworkConfig::builder()
                .degree(degree)
                .clock_drift_ms(100)
                .build()
                .expect("valid net config"),
            seed: 4242,
            ..ScenarioConfig::default()
        })
        .report;
        println!(
            "| {epoch_secs} s | {thr} | {} | {:.3} | {:.3} |",
            report.honest_sent, report.honest_delivery_ratio, report.spam_delivery_ratio
        );
    }

    println!();
    println!("reading the table: long epochs throttle honest high-rate users (fewer");
    println!("'honest sent' — the local rate limit kicks in), while short epochs admit");
    println!("more spam per unit time but match validator messaging needs. The epoch");
    println!("length is an application choice, exactly as the paper frames it (§I).");
}
