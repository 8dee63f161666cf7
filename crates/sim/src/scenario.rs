//! Head-to-head spam-defense scenarios (experiment E6/E10): the same
//! network, workload, and attacker under four defenses — none, peer
//! scoring only, Whisper PoW, and WAKU-RLN-RELAY.
//!
//! ## Crypto mode
//!
//! Every RLN router in a scenario runs the production
//! `waku_rln_relay::MessageValidator` (behind [`crate::acceptor::RlnAcceptor`])
//! — its gap check, root window, nullifier store and Shamir recovery, over
//! real Poseidon shares — with one step substituted: proofs are *tagged*
//! instead of Groth16-verified per message, so a 10 000-peer sweep stays
//! laptop-fast. Honest and spam traffic both carry *valid* proofs, so the
//! routing decisions are the full pipeline's; proof costs are measured
//! separately by E1/E2, and `tests/e2e_flow.rs` runs E6 once through the
//! same acceptor with actual proofs on the wire. The `rln_*` series of a
//! run's snapshot are the `waku-rln-relay` catalogue, one registry per
//! validator, merged in ascending peer order. ARCHITECTURE.md ("Layer 5 —
//! evaluation", the `sim` entry) records the same substitution.

use std::collections::BTreeSet;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use waku_chain::DEPOSIT;
use waku_gossip::{
    Message, MessageAcceptor, Network, NetworkConfig, PeerId, SimTime, TrafficClass, Validation,
};
use waku_metrics::{Registry, Snapshot};
use waku_rln::{derive, external_nullifier, message_hash, Identity};
use waku_rln_relay::{EpochManager, GroupManager, MessageValidator};

use crate::acceptor::{DetectionLog, RlnAcceptor, TaggedBundle, TaggedProof};
use crate::baselines::pow::expected_iterations;
use crate::baselines::SybilCostModel;
use crate::report::{percentile, ScenarioReport};

/// Which defense the scenario runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Defense {
    /// No admission control at all.
    None,
    /// GossipSub v1.1 peer scoring only.
    ScoringOnly,
    /// Whisper-style PoW: `min_pow` with per-class hash rates (hashes/ms).
    Pow {
        /// Network PoW minimum.
        min_pow: f64,
        /// Honest (phone-class) hash rate, hashes per ms.
        honest_hashrate: f64,
        /// Attacker (GPU-class) hash rate, hashes per ms.
        spammer_hashrate: f64,
    },
    /// WAKU-RLN-RELAY with epoch length `T` (seconds) and gap `Thr`.
    RlnRelay {
        /// Epoch length in seconds.
        epoch_secs: u64,
        /// Maximum epoch gap.
        thr: u64,
    },
}

impl Defense {
    /// Stable label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            Defense::None => "none",
            Defense::ScoringOnly => "peer-scoring",
            Defense::Pow { .. } => "pow (whisper)",
            Defense::RlnRelay { .. } => "waku-rln-relay",
        }
    }
}

/// Scenario parameters.
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// Total peers (the first `spammers` of them are attackers).
    pub peers: usize,
    /// Number of attacker peers.
    pub spammers: usize,
    /// Simulated duration (ms) after a 3 s mesh-warmup.
    pub duration_ms: u64,
    /// Mean gap between honest publishes per peer (ms).
    pub honest_interval_ms: u64,
    /// Mean gap between spam publishes per spammer (ms).
    pub spam_interval_ms: u64,
    /// The defense under test.
    pub defense: Defense,
    /// Transport parameters. Its `peers` and `seed` are ignored:
    /// [`run_scenario`] overwrites them with the scenario's own
    /// [`ScenarioConfig::peers`] and [`ScenarioConfig::seed`].
    pub net: NetworkConfig,
    /// Determinism seed.
    pub seed: u64,
    /// How many honest peers publish (`None` = all of them). Network-scale
    /// sweeps (10⁴+ peers) bound the publisher set so the event count
    /// scales with `publishers × peers` instead of `peers²`; every peer
    /// still routes, validates, and keeps defense state.
    pub honest_publishers: Option<usize>,
    /// Rotate *which* honest peers publish every this many ms (requires
    /// `honest_publishers = Some(n)`): in period `k` the active set is
    /// the `n` honest peers starting at offset `k·n` (mod honest count).
    /// Publisher churn is what makes long-horizon steady-state runs (E7)
    /// exercise the nullifier window with ever-new identities instead of
    /// a fixed cast. `None` keeps the publisher set fixed for the run.
    pub publisher_churn_ms: Option<u64>,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            peers: 50,
            spammers: 3,
            duration_ms: 30_000,
            honest_interval_ms: 5_000,
            spam_interval_ms: 500,
            defense: Defense::None,
            net: NetworkConfig::default(),
            seed: 1,
            honest_publishers: None,
            publisher_churn_ms: None,
        }
    }
}

/// Payload size of every published message, in bytes.
const PAYLOAD_BYTES: usize = 128;
const WARMUP_MS: u64 = 3_000;
/// Depth of the (empty) membership tree the simulated routers share.
const GROUP_DEPTH: usize = 20;

/// Execution-engine cost counters for one scenario run. Deliberately
/// separate from [`ScenarioReport`]: the scheduler counters depend on
/// the shard count, while reports are bit-identical at every shard
/// count — folding them together would break the equivalence tests'
/// whole-report `==`.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Peer shards the engine resolved to (1 = the serial reference).
    pub shards: usize,
    /// Scheduler rounds executed, one barrier each (the cost the
    /// lookahead minimizes; at one shard, one per `run_until` with work).
    pub barriers: u64,
}

/// Everything one scenario run produced.
#[derive(Clone, Debug)]
pub struct ScenarioRun {
    /// The protocol results, bit-identical at every shard count.
    pub report: ScenarioReport,
    /// The shard-count-dependent engine costs.
    pub engine: EngineStats,
    /// The full metrics snapshot: the RLN validators' registries (the
    /// `rln_*` series), the gossip engine's per-peer recorders (events,
    /// deliveries, verdicts, bytes, fault-plane counters, dwell
    /// histogram) and the network-level scheduler and partition series,
    /// merged order-insensitively. The report's delivery, validation,
    /// byte and event counts are read from it.
    /// Metrics that depend on the shard count carry the `engine_` name
    /// prefix; everything else is bit-identical at every shard count
    /// (the equivalence tests assert exactly that).
    pub metrics: Snapshot,
}

/// Runs one scenario: the one way every experiment, example and test
/// drives the simulator.
pub fn run_scenario(config: &ScenarioConfig) -> ScenarioRun {
    run_with_detections(config).0
}

/// [`run_scenario`]'s report and engine counters, nothing else: the
/// projection the `waku-perf` benchmark harness imports. New code reads
/// [`ScenarioRun`] instead.
pub fn run_scenario_instrumented(config: &ScenarioConfig) -> (ScenarioReport, EngineStats) {
    let run = run_scenario(config);
    (run.report, run.engine)
}

/// [`run_scenario`] plus the merged set of secrets the validators
/// recovered — what the unit tests compare byte for byte against the
/// spammers' real keys.
fn run_with_detections(config: &ScenarioConfig) -> (ScenarioRun, BTreeSet<[u8; 32]>) {
    assert!(
        config.spammers < config.peers,
        "need at least one honest peer"
    );
    let (mut rng, identities) = scenario_identities(config);
    let mut net = Network::new(
        config
            .net
            .to_builder()
            .peers(config.peers)
            .seed(config.seed)
            .build()
            .expect("valid scenario net config"),
    );

    let detections = DetectionLog::new(config.peers);
    let registries = install_validators(config, &mut net, &detections);

    let wl = schedule_workload(config, &mut net, &identities, &mut rng);
    net.run_until(wl.end + 10_000); // drain the network

    let mut metrics = Snapshot::default();
    for registry in &registries {
        metrics.merge(&registry.snapshot());
    }
    // The catalogue's node-lifecycle half belongs to a node, not to a
    // validator on its own: all zeros here, and `node_published_total 0`
    // beside `gossip_publishes_total` would only mislead.
    metrics.retain(|desc| !desc.name.starts_with("node_"));
    metrics.merge(&net.metrics_snapshot());
    let engine = EngineStats {
        shards: net.shards(),
        barriers: net.barriers(),
    };
    let recovered = detections.merged();
    let report = assemble_report(config, wl, &net, &metrics, recovered.len());
    let run = ScenarioRun {
        report,
        engine,
        metrics,
    };
    (run, recovered)
}

/// The seeded workload RNG and per-peer RLN identities — drawn before any
/// other scenario randomness.
fn scenario_identities(config: &ScenarioConfig) -> (StdRng, Vec<Identity>) {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5CEA_11A5);
    // Every peer gets an RLN identity; spammers get one each (they paid one
    // deposit each — the Sybil economics live in `attack_cost_wei`).
    let identities: Vec<Identity> = (0..config.peers)
        .map(|_| Identity::random(&mut rng))
        .collect();
    (rng, identities)
}

/// Installs the defense's validator on every peer and returns the RLN
/// validators' registries, in peer order (empty for the other defenses).
fn install_validators(
    config: &ScenarioConfig,
    net: &mut Network,
    detections: &Arc<DetectionLog>,
) -> Vec<Registry> {
    match config.defense {
        Defense::None | Defense::ScoringOnly => {
            // No admission criterion: spam is indistinguishable.
            Vec::new()
        }
        Defense::Pow { .. } => {
            for p in 0..config.peers {
                net.set_validator(p, Box::new(PowAcceptor));
            }
            Vec::new()
        }
        Defense::RlnRelay { epoch_secs, thr } => {
            // One membership view for the whole run: the workload has no
            // registrations in flight, so every peer holds the same tree.
            let group = Arc::new(GroupManager::new(GROUP_DEPTH));
            (0..config.peers)
                .map(|p| {
                    let validator =
                        MessageValidator::new(TaggedProof, EpochManager::new(epoch_secs), thr);
                    let registry = validator.registry().clone();
                    net.set_validator(
                        p,
                        Box::new(RlnAcceptor::new(
                            validator,
                            Arc::clone(&group),
                            p,
                            Arc::clone(detections),
                        )),
                    );
                    registry
                })
                .collect()
        }
    }
}

/// The Whisper-PoW router: `data[0]` carries the achieved-work flag (did
/// the sender grind enough hashes for `min_pow`?), so a message is
/// accepted iff it is 1.
struct PowAcceptor;

impl MessageAcceptor for PowAcceptor {
    fn validate(&mut self, _: PeerId, message: &Message, _: SimTime) -> Validation {
        if message.data.first() == Some(&1) {
            Validation::Accept
        } else {
            Validation::Reject
        }
    }
}

/// Workload-derived scalars of one scenario run: publish counts and the
/// PoW mining delays. Pure functions of `(config, seed)`.
struct Workload {
    honest_sent: u64,
    spam_sent: u64,
    post_honest_sent: u64,
    post_spam_sent: u64,
    send_delays: Vec<u64>,
    post_from: u64,
    end: u64,
}

/// Schedules the full publish workload into `net` and returns the
/// workload scalars.
fn schedule_workload(
    config: &ScenarioConfig,
    net: &mut Network,
    identities: &[Identity],
    rng: &mut StdRng,
) -> Workload {
    let mut honest_sent = 0u64;
    let mut spam_sent = 0u64;
    let mut send_delays: Vec<u64> = Vec::new();
    let end = WARMUP_MS + config.duration_ms;

    // Post-disruption window: everything published at/after the last
    // scheduled fault ends (final heal / final rejoin) measures
    // re-convergence. With no fault plan this is 0 — the post counters
    // then mirror the whole-run counters.
    let post_from = config.net.faults.last_disruption_ms().min(end);
    let mut post_honest_sent = 0u64;
    let mut post_spam_sent = 0u64;

    // Honest publishers are the first `honest_publishers` peers after the
    // spammers (`None` = every honest peer publishes). Under publisher
    // churn the *set* of that size rotates through all honest peers, so
    // no peer is excluded up front.
    let honest_cutoff = match (config.honest_publishers, config.publisher_churn_ms) {
        (Some(k), None) => config.spammers + k,
        _ => config.peers,
    };
    let honest_count = config.peers - config.spammers;
    let churn = config.publisher_churn_ms.map(|period| {
        let n = config
            .honest_publishers
            .expect("publisher_churn_ms requires honest_publishers = Some(n)")
            .min(honest_count);
        (period.max(1), n)
    });
    // Is honest peer `h` in the active set during churn period `k`?
    let active_in = |h: usize, k: u64| -> bool {
        match churn {
            None => true,
            Some((_, n)) => {
                let start = (k as usize * n) % honest_count;
                (h + honest_count - start) % honest_count < n
            }
        }
    };

    for (peer, identity) in identities.iter().enumerate() {
        let is_spammer = peer < config.spammers;
        if !is_spammer && peer >= honest_cutoff {
            continue;
        }
        let interval = if is_spammer {
            config.spam_interval_ms
        } else {
            config.honest_interval_ms
        };
        let mut t = WARMUP_MS + rng.gen_range(0..interval.max(1));
        let mut seq = 0u64;
        // Honest peers respect the one-message-per-epoch limit locally
        // (the node layer's RateLimitedLocally guard); spammers don't.
        let mut last_epoch: Option<u64> = None;
        while t < end {
            // Publisher churn: an honest peer outside the current active
            // set stays silent until its next active period (spammers
            // are sustained — they ignore churn by design).
            if !is_spammer {
                if let Some((period, _)) = churn {
                    let h = peer - config.spammers;
                    let k = (t - WARMUP_MS) / period;
                    if !active_in(h, k) {
                        let mut next = k + 1;
                        while WARMUP_MS + next * period < end && !active_in(h, next) {
                            next += 1;
                        }
                        t = WARMUP_MS + next * period + rng.gen_range(0..interval.max(1));
                        continue;
                    }
                }
            }
            let mut filler = vec![0u8; PAYLOAD_BYTES];
            rng.fill(&mut filler[..]);
            filler[..8].copy_from_slice(&(peer as u64).to_le_bytes());
            filler[8..16].copy_from_slice(&seq.to_le_bytes());
            let class = if is_spammer {
                TrafficClass::Spam
            } else {
                TrafficClass::Honest
            };
            let (data, publish_at) = match config.defense {
                Defense::None | Defense::ScoringOnly => (filler, t),
                Defense::Pow {
                    min_pow,
                    honest_hashrate,
                    spammer_hashrate,
                } => {
                    // Mining wall time = expected hashes / device rate;
                    // it delays the publish (the §I resource-cost burden).
                    let hashrate = if is_spammer {
                        spammer_hashrate
                    } else {
                        honest_hashrate
                    };
                    let iterations = expected_iterations(min_pow, PAYLOAD_BYTES + 28, 50);
                    let delay = (iterations / hashrate).round() as u64;
                    if !is_spammer {
                        send_delays.push(delay);
                    }
                    let mut data = vec![1u8]; // mined marker
                    data.extend_from_slice(&filler);
                    (data, t + delay)
                }
                Defense::RlnRelay { epoch_secs, .. } => {
                    // The publisher stamps the epoch from its own drifted
                    // clock (§III-D), including any fault-plane skew step
                    // in effect at publish time.
                    let skew = config.net.faults.skew_at(peer, t);
                    let local_publish_ms = (t as i64 + net.drift_ms(peer) + skew).max(0) as u64;
                    let epoch = (local_publish_ms / 1000) / epoch_secs;
                    if !is_spammer && last_epoch == Some(epoch) {
                        // honest local rate limit: wait for the next epoch
                        t += rng.gen_range(interval / 2..=interval + interval / 2).max(1);
                        continue;
                    }
                    last_epoch = Some(epoch);
                    let x = message_hash(&filler); // x = H(m)
                    let (_, phi, y) = derive(identity.secret(), external_nullifier(epoch), x);
                    (TaggedBundle::encode(true, epoch, y, phi, &filler), t)
                }
            };
            if is_spammer {
                spam_sent += 1;
                post_spam_sent += (publish_at >= post_from) as u64;
            } else {
                honest_sent += 1;
                post_honest_sent += (publish_at >= post_from) as u64;
            }
            net.publish_at(publish_at, peer, data, class);
            t += rng.gen_range(interval / 2..=interval + interval / 2).max(1);
            seq += 1;
        }
    }

    Workload {
        honest_sent,
        spam_sent,
        post_honest_sent,
        post_spam_sent,
        send_delays,
        post_from,
        end,
    }
}

/// Builds the [`ScenarioReport`] from the workload scalars, what the
/// drained network measured, and the run's merged metrics snapshot.
fn assemble_report(
    config: &ScenarioConfig,
    wl: Workload,
    net: &Network,
    metrics: &Snapshot,
    spammers_detected: usize,
) -> ScenarioReport {
    let honest_delivered = metrics.scalar("gossip_honest_delivered_total");
    let spam_delivered = metrics.scalar("gossip_spam_delivered_total");
    let (post_honest_delivered, post_spam_delivered) = net.deliveries_published_since(wl.post_from);
    let receivers = (config.peers - 1) as f64;
    let mut honest_latencies = net.honest_delivery_latencies();
    let mut send_delays = wl.send_delays;
    ScenarioReport {
        defense: config.defense.label().to_string(),
        honest_sent: wl.honest_sent,
        spam_sent: wl.spam_sent,
        honest_delivered,
        spam_delivered,
        honest_delivery_ratio: if wl.honest_sent == 0 {
            0.0
        } else {
            honest_delivered as f64 / (wl.honest_sent as f64 * receivers)
        },
        spam_delivery_ratio: if wl.spam_sent == 0 {
            0.0
        } else {
            spam_delivered as f64 / (wl.spam_sent as f64 * receivers)
        },
        validations: metrics.scalar("gossip_validations_total"),
        bytes_sent: metrics.scalar("gossip_bytes_sent_total"),
        events_processed: metrics.scalar("gossip_events_total"),
        spammers_detected,
        honest_latency_p50_ms: percentile(&mut honest_latencies, 50.0),
        honest_latency_p95_ms: percentile(&mut honest_latencies, 95.0),
        honest_send_delay_p50_ms: percentile(&mut send_delays, 50.0),
        attack_cost_wei: attack_cost(config),
        post_window_from_ms: wl.post_from,
        post_honest_sent: wl.post_honest_sent,
        post_spam_sent: wl.post_spam_sent,
        post_honest_delivered,
        post_spam_delivered,
        post_honest_delivery_ratio: if wl.post_honest_sent == 0 {
            0.0
        } else {
            post_honest_delivered as f64 / (wl.post_honest_sent as f64 * receivers)
        },
    }
}

/// Economic cost for the attacker to run this scenario's spam rate.
fn attack_cost(config: &ScenarioConfig) -> u128 {
    match config.defense {
        Defense::RlnRelay { epoch_secs, .. } => {
            // Sustaining `spam_interval_ms` requires one identity per
            // message-per-epoch (§V open problem: k registrations give k
            // messages per epoch).
            let msgs_per_epoch = (epoch_secs * 1000).div_ceil(config.spam_interval_ms.max(1));
            SybilCostModel::rln(DEPOSIT).cost_for_rate(msgs_per_epoch * config.spammers as u64)
        }
        _ => SybilCostModel::scoring_only().cost_for_rate(u64::MAX - 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(defense: Defense) -> ScenarioReport {
        run_scenario(&base_config(defense)).report
    }

    fn base_config(defense: Defense) -> ScenarioConfig {
        ScenarioConfig {
            peers: 30,
            spammers: 2,
            duration_ms: 20_000,
            honest_interval_ms: 4_000,
            spam_interval_ms: 400,
            defense,
            seed: 7,
            ..ScenarioConfig::default()
        }
    }

    #[test]
    fn no_defense_spam_floods() {
        let r = report(Defense::None);
        assert!(r.spam_delivery_ratio > 0.8, "spam flows freely: {r:?}");
        assert!(r.honest_delivery_ratio > 0.8);
    }

    #[test]
    fn rln_contains_spam() {
        let r = report(Defense::RlnRelay {
            epoch_secs: 1,
            thr: 1,
        });
        // One message per epoch still flows; the flood does not. §IV-C: at
        // ~2.5 spam msgs/s against a 1 s epoch, containment caps delivery
        // near 1/2.5 = 0.4 (the exact value shifts with the seeded jitter).
        assert!(
            r.spam_delivery_ratio < 0.45,
            "rate-violating spam must be contained: {r:?}"
        );
        assert!(r.honest_delivery_ratio > 0.8, "honest unaffected: {r:?}");
        assert_eq!(r.spammers_detected, 2, "both spammers' keys recovered");
        assert!(r.attack_cost_wei > 0);
    }

    #[test]
    fn rln_recovers_the_actual_spammer_keys() {
        // Rebuild the identities the scenario derives (same seed path) and
        // confirm the recovered secrets are the spammers' real keys.
        let config = base_config(Defense::RlnRelay {
            epoch_secs: 1,
            thr: 1,
        });
        let (_, identities) = scenario_identities(&config);
        let (run, recovered) = run_with_detections(&config);
        assert_eq!(run.report.spammers_detected, 2);
        let spammer_keys: BTreeSet<[u8; 32]> = identities[..config.spammers]
            .iter()
            .map(Identity::secret_bytes)
            .collect();
        assert_eq!(recovered, spammer_keys);
    }

    #[test]
    fn scoring_only_lets_spam_through() {
        let r = report(Defense::ScoringOnly);
        assert!(
            r.spam_delivery_ratio > 0.8,
            "scoring alone cannot tell spam apart"
        );
        assert_eq!(r.attack_cost_wei, 0, "and Sybil identities are free");
    }

    #[test]
    fn pow_slows_honest_devices_but_admits_spam() {
        let r = report(Defense::Pow {
            min_pow: 2.0,
            honest_hashrate: 50.0,      // phone: 50 kH/s
            spammer_hashrate: 50_000.0, // GPU rig
        });
        assert!(
            r.spam_delivery_ratio > 0.8,
            "funded spammer mines right through"
        );
        assert!(
            r.honest_send_delay_p50_ms > 100,
            "honest phones pay seconds of mining: {r:?}"
        );
    }

    #[test]
    fn deterministic_reports() {
        let a = report(Defense::RlnRelay {
            epoch_secs: 1,
            thr: 1,
        });
        let b = report(Defense::RlnRelay {
            epoch_secs: 1,
            thr: 1,
        });
        assert_eq!(a.spam_delivered, b.spam_delivered);
        assert_eq!(a.honest_delivered, b.honest_delivered);
        assert_eq!(a.spammers_detected, b.spammers_detected);
    }
}
