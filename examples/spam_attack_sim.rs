//! Network-scale spam attack: 60 peers (default), 3 spammers flooding at
//! 10× the honest rate, compared across all four defenses (the
//! quantitative form of the paper's §I/§IV claims).
//!
//! Run with: `cargo run --release --example spam_attack_sim [PEERS]`
//!
//! Scale it up with the positional arg (e.g. 10000 — the sharded engine
//! kicks in automatically above ~512 peers). Above
//! 1 000 peers the honest publisher set is capped at 200 so the workload
//! grows with the network instead of quadratically.

use waku_gossip::NetworkConfig;
use waku_sim::{run_scenario, Defense, ScenarioConfig, ScenarioReport};

fn main() {
    let peers = std::env::args()
        .nth(1)
        .and_then(|v| v.parse::<usize>().ok())
        .map_or(60, |n| n.max(5));
    let honest_publishers = if peers > 1_000 { Some(200) } else { None };
    // Keep the mesh degree valid for tiny networks (degree must be < peers).
    let degree = 8.min(peers - 1);
    println!("spam attack: {peers} peers, 3 spammers @ 2 msg/s, honest @ 0.2 msg/s, 45 s\n");
    println!("{}", ScenarioReport::table_header());

    for defense in [
        Defense::None,
        Defense::ScoringOnly,
        Defense::Pow {
            min_pow: 2.0,
            honest_hashrate: 50.0,
            spammer_hashrate: 50_000.0,
        },
        Defense::RlnRelay {
            epoch_secs: 1,
            thr: 1,
        },
    ] {
        let report = run_scenario(&ScenarioConfig {
            peers,
            spammers: 3,
            duration_ms: 45_000,
            honest_interval_ms: 5_000,
            spam_interval_ms: 500,
            honest_publishers,
            defense,
            net: NetworkConfig::builder()
                .degree(degree)
                .build()
                .expect("valid net config"),
            seed: 99,
            ..ScenarioConfig::default()
        })
        .report;
        println!("{}", report.table_row());
    }

    println!();
    println!("reading the table:");
    println!("- 'spam delivery' is the fraction of spam that reached each peer;");
    println!("  under RLN it collapses because the 2nd message per epoch is dropped");
    println!("  at the first honest hop AND the spammer's key is recovered.");
    println!("- 'send delay' shows PoW's cost shifted onto honest phones.");
    println!("- 'attack cost' is the stake an attacker must burn to sustain the rate.");
}
