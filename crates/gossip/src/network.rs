//! The discrete-event network simulator running a GossipSub mesh on every
//! peer (paper references \[2\]; WAKU-RELAY is "a thin layer over libp2p
//! GossipSub", §I).
//!
//! Fidelity targets for the evaluation:
//!
//! * per-link latency (configurable base + jitter) → `NetworkDelay` of the
//!   §III-F epoch-gap formula,
//! * per-peer clock drift → `ClockAsynchrony` of the same formula,
//! * mesh flooding + IHAVE/IWANT gossip → realistic propagation shape,
//! * pluggable per-peer validators → RLN / PoW / scoring-only defenses
//!   slot in without touching routing code,
//! * bandwidth/delivery accounting per traffic class → §IV's containment
//!   claims become measurable.
//!
//! This module is the facade; the event-processing core lives in
//! [`crate::engine`] and the event-sharded scheduler in
//! [`crate::scheduler`]. A seeded run produces bit-identical results at
//! any shard count (one shard is the serial reference) and any
//! `WAKU_POOL_THREADS` — determinism is a tested invariant, not luck.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::engine::{PeerSlot, QueuedEvent, SimEvent, HEARTBEAT_MS};
use crate::faults::FaultPlan;
use crate::instrument::{engine_catalogue, network_catalogue};
use crate::message::{Message, MessageId, PeerId, SimTime, TrafficClass, Validation};
use crate::scheduler::Scheduler;

pub use crate::engine::DeliveryRecord;

/// A network-configuration invariant rejected at
/// [`NetworkConfigBuilder::build`] time.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// The builder field that was rejected.
    pub field: &'static str,
    /// Why it was rejected.
    pub reason: &'static str,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid network config: `{}` {}",
            self.field, self.reason
        )
    }
}

impl std::error::Error for ConfigError {}

/// Network construction parameters.
///
/// `#[non_exhaustive]`: construct via [`NetworkConfig::default`] or
/// [`NetworkConfig::builder`]; derive a variant of an existing config
/// with [`NetworkConfig::to_builder`] (struct-literal functional update
/// is not available across crates). The builder validates its
/// invariants once at build time.
#[non_exhaustive]
#[derive(Clone, Debug)]
pub struct NetworkConfig {
    /// Number of peers.
    pub peers: usize,
    /// Connections per peer (the gossip mesh is a subset of these).
    pub degree: usize,
    /// Minimum one-way link latency (ms). Also the scheduler's time
    /// quantum (clamped to ≥ 1 ms).
    pub latency_min_ms: u64,
    /// Maximum one-way link latency (ms).
    pub latency_max_ms: u64,
    /// Clock drift is sampled uniformly from ±this (ms).
    pub clock_drift_ms: u64,
    /// Determinism seed.
    pub seed: u64,
    /// Peer shards of the event scheduler, clamped to `1..=peers` (never
    /// affects results, only wall-clock speed). `Some(1)` is the serial
    /// reference; `None` runs 1 shard below 512 peers and
    /// `(peers / 512).clamp(2, 64)` above.
    pub shards: Option<usize>,
    /// The deterministic fault plan (see [`crate::faults`]). Empty by
    /// default: without faults the simulation is byte-identical to a
    /// network built before the fault plane existed.
    pub faults: FaultPlan,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            peers: 50,
            degree: 8,
            latency_min_ms: 20,
            latency_max_ms: 120,
            clock_drift_ms: 100,
            seed: 0,
            shards: None,
            faults: FaultPlan::default(),
        }
    }
}

impl NetworkConfig {
    /// Starts building a config from the defaults.
    pub fn builder() -> NetworkConfigBuilder {
        NetworkConfigBuilder::from_config(NetworkConfig::default())
    }

    /// Starts a builder pre-loaded with this config — the cross-crate
    /// replacement for struct-literal functional update.
    pub fn to_builder(&self) -> NetworkConfigBuilder {
        NetworkConfigBuilder::from_config(self.clone())
    }
}

/// Builder for [`NetworkConfig`] — see [`NetworkConfig::builder`].
#[derive(Clone, Debug)]
pub struct NetworkConfigBuilder {
    config: NetworkConfig,
}

impl NetworkConfigBuilder {
    fn from_config(config: NetworkConfig) -> Self {
        NetworkConfigBuilder { config }
    }

    /// Sets the number of peers (≥ 2).
    pub fn peers(mut self, peers: usize) -> Self {
        self.config.peers = peers;
        self
    }

    /// Sets the connections per peer (≥ 1, < peers).
    pub fn degree(mut self, degree: usize) -> Self {
        self.config.degree = degree;
        self
    }

    /// Sets the one-way link latency range `[min, max]` in milliseconds
    /// (`min ≤ max`; the scheduler clamps its quantum to ≥ 1 ms
    /// internally, so `min = 0` is allowed).
    pub fn latency_ms(mut self, min: u64, max: u64) -> Self {
        self.config.latency_min_ms = min;
        self.config.latency_max_ms = max;
        self
    }

    /// Sets the clock-drift half-width in milliseconds.
    pub fn clock_drift_ms(mut self, drift: u64) -> Self {
        self.config.clock_drift_ms = drift;
        self
    }

    /// Sets the determinism seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the scheduler's shard count (see [`NetworkConfig::shards`]).
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = Some(shards);
        self
    }

    /// Installs a deterministic fault plan.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.config.faults = faults;
        self
    }

    /// Validates the invariants and produces the config.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] when `peers` is below 2, `degree` is zero or not
    /// below `peers`, or the latency range is inverted (`min > max`).
    pub fn build(self) -> Result<NetworkConfig, ConfigError> {
        if self.config.peers < 2 {
            return Err(ConfigError {
                field: "peers",
                reason: "must be at least 2",
            });
        }
        if self.config.degree == 0 {
            return Err(ConfigError {
                field: "degree",
                reason: "must be at least 1",
            });
        }
        if self.config.degree >= self.config.peers {
            return Err(ConfigError {
                field: "degree",
                reason: "must be below peers",
            });
        }
        if self.config.latency_min_ms > self.config.latency_max_ms {
            return Err(ConfigError {
                field: "latency_min_ms",
                reason: "must not exceed latency_max_ms",
            });
        }
        Ok(self.config)
    }
}

/// Per-peer admission logic with a view of the peer's clock.
///
/// Implementors are `Send` because the scheduler migrates peers
/// across pool workers between quantum rounds; shared defense state
/// (e.g. a detection log) must be `Send + Sync` and order-insensitive
/// (set unions, counters). Install one with [`Network::set_validator`].
pub trait MessageAcceptor: Send {
    /// Judges an incoming message. `local_ms` already includes the
    /// peer's clock drift, so epoch checks observe asynchrony exactly
    /// as §III-F describes.
    fn validate(&mut self, from: PeerId, message: &Message, local_ms: SimTime) -> Validation;

    /// Observes the peer's (drifted) clock once per heartbeat, with no
    /// message attached. This is how epoch-windowed validator state
    /// learns about epoch rollovers during idle stretches: an RLN
    /// validator slides its nullifier window here, so resident state is
    /// released on schedule even when the topic carries no traffic.
    /// The default does nothing (stateless validators).
    fn on_heartbeat(&mut self, _local_ms: SimTime) {}

    /// The peer rejoined cold after a scheduled crash (fault plane). The
    /// gossip layer has already rebuilt its in-memory state; this hook is
    /// where a validator models *its* crash semantics. Durable defense
    /// state — the RLN nullifier store persists like any on-disk
    /// database — should be round-tripped through its snapshot/restore
    /// path; purely in-memory validator state should be dropped. The
    /// default does nothing (stateless validators).
    fn on_restart(&mut self, _local_ms: SimTime) {}
}

/// A boxed, installable [`MessageAcceptor`] (see [`Network::set_validator`]).
pub type Validator = Box<dyn MessageAcceptor>;

/// The simulated network.
pub struct Network {
    pub(crate) config: NetworkConfig,
    pub(crate) slots: Vec<PeerSlot>,
    scheduler: Scheduler,
    now: SimTime,
}

impl Network {
    /// Builds the network: peers, random `degree`-regular-ish topology,
    /// staggered heartbeats.
    ///
    /// # Panics
    ///
    /// Panics if `peers < 2` or `degree >= peers`.
    pub fn new(config: NetworkConfig) -> Self {
        assert!(config.peers >= 2, "need at least two peers");
        assert!(config.degree < config.peers, "degree must be < peers");
        // Construction RNG: drift, topology, and heartbeat stagger are
        // drawn once here, identically at every shard count; runtime draws
        // come from the per-peer streams instead.
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut slots: Vec<PeerSlot> = (0..config.peers)
            .map(|p| {
                let drift =
                    rng.gen_range(-(config.clock_drift_ms as i64)..=config.clock_drift_ms as i64);
                PeerSlot::new(config.seed, p, drift)
            })
            .collect();

        // Random connected topology: ring (guarantees connectivity) plus
        // random extra edges up to the target degree.
        let n = config.peers;
        let mut adjacency: Vec<HashSet<PeerId>> = vec![HashSet::new(); n];
        for (i, adj) in adjacency.iter_mut().enumerate() {
            let j = (i + 1) % n;
            adj.insert(j);
        }
        for i in 0..n {
            let j = (i + 1) % n;
            adjacency[j].insert(i);
        }
        for i in 0..n {
            let mut guard = 0;
            while adjacency[i].len() < config.degree && guard < 100 {
                let j = rng.gen_range(0..n);
                if j != i && adjacency[j].len() < config.degree + 2 {
                    adjacency[i].insert(j);
                    adjacency[j].insert(i);
                }
                guard += 1;
            }
        }
        for (slot, adj) in slots.iter_mut().zip(adjacency) {
            slot.neighbors = adj.into_iter().collect();
            slot.neighbors.sort_unstable();
        }

        let mut scheduler = Scheduler::new(&config, slots.len());

        // Stagger heartbeats so the whole network doesn't thunder at once.
        for (p, slot) in slots.iter_mut().enumerate() {
            let offset = rng.gen_range(0..HEARTBEAT_MS);
            let key = slot.next_key(p, offset);
            scheduler.enqueue(QueuedEvent {
                key,
                target: p,
                event: SimEvent::Heartbeat,
            });
        }

        // Fault timeline (fault plane): crash windows are compiled into
        // each slot's downtime list (a pure time predicate checked at
        // dispatch — no RNG draws), and the restart / clock-skew events
        // are minted from the target peer's own key stream, exactly like
        // the heartbeat stagger above, so the timeline is
        // shard-count-invariant by the same argument.
        config.faults.validate(config.peers);
        for crash in &config.faults.crashes {
            let slot = &mut slots[crash.peer];
            slot.downtime.push((crash.crash_ms, crash.restart_ms));
            if crash.restart_ms < SimTime::MAX {
                let key = slot.next_key(crash.peer, crash.restart_ms);
                scheduler.enqueue(QueuedEvent {
                    key,
                    target: crash.peer,
                    event: SimEvent::Restart,
                });
            }
        }
        for skew in &config.faults.skews {
            let key = slots[skew.peer].next_key(skew.peer, skew.at_ms);
            scheduler.enqueue(QueuedEvent {
                key,
                target: skew.peer,
                event: SimEvent::ClockSkew {
                    delta_ms: skew.delta_ms,
                },
            });
        }

        Network {
            config,
            slots,
            scheduler,
            now: 0,
        }
    }

    /// Current network time (ms).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The peer's local (drifted) clock.
    pub fn local_time(&self, peer: PeerId) -> SimTime {
        self.slots[peer].local_time(self.now)
    }

    /// A peer's clock drift in ms.
    pub fn drift_ms(&self, peer: PeerId) -> i64 {
        self.slots[peer].drift_ms
    }

    /// Neighbor list of a peer.
    pub fn neighbors(&self, peer: PeerId) -> &[PeerId] {
        &self.slots[peer].neighbors
    }

    /// Number of peer shards the scheduler runs (1 = the serial reference).
    pub fn shards(&self) -> usize {
        self.scheduler.shards()
    }

    /// Barrier rounds the scheduler has executed so far (at one shard,
    /// one per `run_until` that found work) — the cost metric the
    /// lookahead minimizes. Deliberately *not* part of any
    /// scenario report: it depends on the shard count, results do not.
    pub fn barriers(&self) -> u64 {
        self.scheduler.barriers()
    }

    /// Installs a peer's message validator: any [`MessageAcceptor`].
    pub fn set_validator(&mut self, peer: PeerId, validator: Validator) {
        self.slots[peer].validator = Some(validator);
    }

    /// Schedules a publish on the network's one pubsub topic at an
    /// absolute network time.
    pub fn publish_at(&mut self, at: SimTime, peer: PeerId, data: Vec<u8>, class: TrafficClass) {
        let at = at.max(self.now);
        let key = self.slots[peer].next_key(peer, at);
        self.scheduler.enqueue(QueuedEvent {
            key,
            target: peer,
            event: SimEvent::Publish { data, class },
        });
    }

    /// Runs the event loop until (at least) the given network time.
    pub fn run_until(&mut self, t: SimTime) {
        self.scheduler.run_until(&mut self.slots, &self.config, t);
        self.now = self.now.max(t);
    }

    /// First-delivery records for a message, in receiving-peer order.
    pub fn deliveries(&self, id: MessageId) -> Vec<DeliveryRecord> {
        self.slots
            .iter()
            .flat_map(|s| s.deliveries.iter())
            .filter(|(mid, _)| *mid == id)
            .map(|(_, rec)| *rec)
            .collect()
    }

    /// First-delivery latencies (ms) of honest messages, for Thr
    /// estimation (§III-F: `NetworkDelay`). Deterministic order: peers
    /// ascending, each peer's deliveries in arrival order.
    pub fn honest_delivery_latencies(&self) -> Vec<u64> {
        self.slots
            .iter()
            .flat_map(|s| s.deliveries.iter())
            .filter(|(_, d)| d.class == TrafficClass::Honest)
            .map(|(_, d)| d.at - d.published_at)
            .collect()
    }

    /// First deliveries of messages *published at or after* `from`, split
    /// `(honest, spam)` — the re-convergence measurement fault scenarios
    /// take after the last partition heal / peer rejoin.
    pub fn deliveries_published_since(&self, from: SimTime) -> (u64, u64) {
        let mut honest = 0;
        let mut spam = 0;
        for (_, d) in self.slots.iter().flat_map(|s| s.deliveries.iter()) {
            if d.published_at >= from {
                match d.class {
                    TrafficClass::Honest => honest += 1,
                    TrafficClass::Spam => spam += 1,
                    TrafficClass::Invalid => {}
                }
            }
        }
        (honest, spam)
    }

    /// Score neighbor `of` currently assigns to `subject`.
    pub fn score(&self, of: PeerId, subject: PeerId) -> f64 {
        self.slots[of].score_of(subject)
    }

    /// One merged metrics snapshot for the whole network: the per-peer
    /// engine recorders (events, deliveries, verdicts, bytes, dwell
    /// histogram — deterministic, bit-identical at any shard count)
    /// folded together, plus what no single peer counts: healed
    /// partitions and the scheduler's `engine_`-prefixed cost series
    /// (which *do* depend on the shard count — filter that prefix before
    /// comparing snapshots across shard counts). `gossip_events_total`
    /// is the simulated-throughput metric: deterministic for a seeded
    /// run, divide by wall time for events/sec.
    pub fn metrics_snapshot(&self) -> waku_metrics::Snapshot {
        let engine_layout = &engine_catalogue().0;
        let mut peers = waku_metrics::LocalRecorder::new(std::sync::Arc::clone(engine_layout));
        for slot in &self.slots {
            peers.merge_from(&slot.recorder);
        }

        let (net_layout, ids) = network_catalogue();
        let mut net = waku_metrics::LocalRecorder::new(std::sync::Arc::clone(net_layout));
        net.set(ids.shards, self.shards() as u64);
        net.add(ids.barriers, self.barriers());
        // Snapshot-time fill from the plan + the (shard-count-invariant)
        // clock: which scheduled partitions have healed by now.
        net.add(
            ids.partition_heals,
            self.config.faults.partitions_healed(self.now),
        );

        let mut snapshot = peers.snapshot();
        snapshot.merge(&net.snapshot());
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::D_HI;
    use crate::scoring::GRAYLIST_THRESHOLD;

    /// Gives every message the same verdict.
    struct Always(Validation);

    impl MessageAcceptor for Always {
        fn validate(&mut self, _: PeerId, _: &Message, _: SimTime) -> Validation {
            self.0
        }
    }

    /// Rejects every 5th message it sees and accepts the rest.
    #[derive(Default)]
    struct EveryFifthRejected(u64);

    impl MessageAcceptor for EveryFifthRejected {
        fn validate(&mut self, _: PeerId, _: &Message, _: SimTime) -> Validation {
            self.0 += 1;
            if self.0.is_multiple_of(5) {
                Validation::Reject
            } else {
                Validation::Accept
            }
        }
    }

    /// Network-wide value of a per-peer counter.
    fn total(net: &Network, name: &str) -> u64 {
        net.metrics_snapshot().scalar(name)
    }

    /// One peer's value of a per-peer counter.
    fn of_peer(net: &Network, peer: PeerId, name: &str) -> u64 {
        net.slots[peer].recorder.snapshot().scalar(name)
    }

    fn small_net(seed: u64) -> Network {
        small_net_with(seed, None)
    }

    fn small_net_with(seed: u64, shards: Option<usize>) -> Network {
        Network::new(NetworkConfig {
            peers: 30,
            degree: 6,
            seed,
            shards,
            ..NetworkConfig::default()
        })
    }

    #[test]
    fn build_rejects_what_new_would_panic_on() {
        let field = |builder: NetworkConfigBuilder| builder.build().unwrap_err().field;
        assert_eq!(field(NetworkConfig::builder().peers(1).degree(1)), "peers");
        assert_eq!(field(NetworkConfig::builder().peers(8).degree(8)), "degree");
        assert_eq!(field(NetworkConfig::builder().peers(8).degree(9)), "degree");
        Network::new(NetworkConfig::builder().peers(2).degree(1).build().unwrap());
    }

    #[test]
    fn message_reaches_everyone() {
        let mut net = small_net(1);
        net.run_until(3_000); // let meshes form
        net.publish_at(3_000, 0, b"hello".to_vec(), TrafficClass::Honest);
        net.run_until(20_000);
        // 29 receivers (origin counts its own copy as publisher, not a
        // delivery).
        assert_eq!(
            total(&net, "gossip_honest_delivered_total"),
            29,
            "full propagation"
        );
    }

    #[test]
    fn no_duplicate_deliveries() {
        let mut net = small_net(2);
        net.run_until(3_000);
        net.publish_at(3_000, 5, b"x".to_vec(), TrafficClass::Honest);
        net.run_until(20_000);
        for p in 0..30 {
            assert!(
                of_peer(&net, p, "gossip_honest_delivered_total") <= 1,
                "peer {p}"
            );
        }
    }

    #[test]
    fn rejected_messages_do_not_propagate() {
        let mut net = small_net(3);
        // every peer rejects everything
        for p in 0..30 {
            net.set_validator(p, Box::new(Always(Validation::Reject)));
        }
        net.run_until(3_000);
        net.publish_at(3_000, 0, b"bad".to_vec(), TrafficClass::Invalid);
        net.run_until(20_000);
        let snap = net.metrics_snapshot();
        assert_eq!(snap.scalar("gossip_invalid_delivered_total"), 0);
        // Only the publisher's direct mesh saw it (≤ d_hi validations),
        // §IV: "limited to their direct connections".
        let validations = snap.scalar("gossip_validations_total");
        assert!(validations <= 12, "got {validations}");
        assert!(snap.scalar("gossip_rejected_total") >= 1);
    }

    #[test]
    fn repeated_invalid_senders_get_graylisted() {
        let mut net = small_net(4);
        for p in 1..30 {
            net.set_validator(p, Box::new(Always(Validation::Reject)));
        }
        net.run_until(3_000);
        // peer 0 floods garbage
        for i in 0..50u64 {
            net.publish_at(
                3_000 + i * 200,
                0,
                format!("junk{i}").into_bytes(),
                TrafficClass::Invalid,
            );
        }
        // Measure right at flood end, before decay forgives (§IV: scoring
        // "easily addresses" invalid-proof floods).
        net.run_until(13_000);
        let neighbors: Vec<PeerId> = net.neighbors(0).to_vec();
        let graylisted = neighbors
            .iter()
            .filter(|n| net.score(**n, 0) < GRAYLIST_THRESHOLD)
            .count();
        assert!(
            graylisted >= 1,
            "at least the mesh members graylist the flooder"
        );
        // Graylisting means later floods are dropped *before* validation:
        // far fewer proof checks than messages sent.
        let snap = net.metrics_snapshot();
        let validations = snap.scalar("gossip_validations_total");
        assert!(
            validations < 150,
            "graylisting caps validation work: {validations}"
        );
        // And nothing propagated.
        assert_eq!(snap.scalar("gossip_invalid_delivered_total"), 0);
    }

    #[test]
    fn meshes_form_and_stay_bounded() {
        let mut net = small_net(5);
        net.run_until(10_000);
        for p in 0..30 {
            let mesh_size = net.slots[p].mesh.len();
            assert!(
                mesh_size >= 1 && mesh_size <= D_HI + net.config.degree,
                "peer {p} mesh size {mesh_size}"
            );
        }
    }

    #[test]
    fn latencies_are_recorded() {
        let mut net = small_net(6);
        net.run_until(3_000);
        net.publish_at(3_000, 0, b"timed".to_vec(), TrafficClass::Honest);
        net.run_until(20_000);
        let lats = net.honest_delivery_latencies();
        assert_eq!(lats.len(), 29);
        assert!(lats.iter().all(|&l| l >= net.config.latency_min_ms));
    }

    #[test]
    fn honest_latencies_leave_spam_deliveries_out() {
        let mut net = small_net(6);
        net.run_until(3_000);
        net.publish_at(3_000, 0, b"honest".to_vec(), TrafficClass::Honest);
        net.publish_at(3_100, 1, b"spam".to_vec(), TrafficClass::Spam);
        net.run_until(20_000);
        let snap = net.metrics_snapshot();
        assert!(snap.scalar("gossip_spam_delivered_total") > 0);
        assert_eq!(
            net.honest_delivery_latencies().len() as u64,
            snap.scalar("gossip_honest_delivered_total")
        );
    }

    #[test]
    fn clock_drift_is_bounded_and_deterministic() {
        let a = small_net(7);
        let b = small_net(7);
        for p in 0..30 {
            assert_eq!(a.drift_ms(p), b.drift_ms(p), "determinism");
            assert!(a.drift_ms(p).abs() <= a.config.clock_drift_ms as i64);
        }
    }

    #[test]
    fn deterministic_end_to_end() {
        let run = |seed| {
            let mut net = small_net(seed);
            net.run_until(3_000);
            net.publish_at(3_000, 0, b"d".to_vec(), TrafficClass::Honest);
            net.run_until(20_000);
            let snap = net.metrics_snapshot();
            (
                snap.scalar("gossip_honest_delivered_total"),
                snap.scalar("gossip_bytes_sent_total"),
                snap.scalar("gossip_validations_total"),
            )
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn ignore_verdict_stops_propagation_without_penalty() {
        let mut net = small_net(8);
        for p in 1..30 {
            net.set_validator(p, Box::new(Always(Validation::Ignore)));
        }
        net.run_until(3_000);
        net.publish_at(3_000, 0, b"dup".to_vec(), TrafficClass::Spam);
        net.run_until(20_000);
        let snap = net.metrics_snapshot();
        assert_eq!(snap.scalar("gossip_spam_delivered_total"), 0);
        assert!(snap.scalar("gossip_ignored_total") >= 1);
        // no scoring penalty for ignored messages
        let neighbors: Vec<PeerId> = net.neighbors(0).to_vec();
        for n in neighbors {
            assert!(net.score(n, 0) >= 0.0);
        }
    }

    /// The metrics snapshot is a faithful view: the dwell histogram
    /// observed events and the deterministic (non-`engine_`) metrics are
    /// identical across shard counts.
    #[test]
    fn metrics_snapshot_is_consistent_and_scheduler_independent() {
        let run = |shards: usize| {
            let mut net = small_net_with(11, Some(shards));
            net.run_until(3_000);
            net.publish_at(3_000, 0, b"m".to_vec(), TrafficClass::Honest);
            net.run_until(20_000);
            let snap = net.metrics_snapshot();
            assert!(snap.histogram("gossip_event_dwell_ms").unwrap().count > 0);
            assert_eq!(snap.scalar("engine_shards") as usize, net.shards());
            (snap, net.shards())
        };
        let (mut serial, serial_shards) = run(1);
        let (mut sharded, sharded_shards) = run(5);
        assert_eq!((serial_shards, sharded_shards), (1, 5));
        // Drop the strategy-dependent gauges; the rest must match exactly.
        serial.retain(|d| !d.name.starts_with("engine_"));
        sharded.retain(|d| !d.name.starts_with("engine_"));
        assert_eq!(serial, sharded);
    }

    /// Link drops thin delivery but the seeded outcome is identical
    /// across shard counts, and every drop is counted.
    #[test]
    fn link_faults_are_deterministic_across_schedulers() {
        let run = |shards: usize| {
            let mut net = Network::new(NetworkConfig {
                peers: 30,
                degree: 6,
                seed: 21,
                shards: Some(shards),
                faults: crate::faults::FaultPlan {
                    seed: 77,
                    link: crate::faults::LinkFaults {
                        drop_permille: 150,
                        duplicate_permille: 30,
                        reorder_permille: 50,
                        extra_jitter_ms: 40,
                        reorder_delay_ms: 200,
                    },
                    ..Default::default()
                },
                ..NetworkConfig::default()
            });
            net.run_until(3_000);
            for i in 0..8u64 {
                net.publish_at(
                    3_000 + i * 500,
                    (i as usize) % 30,
                    format!("f{i}").into_bytes(),
                    TrafficClass::Honest,
                );
            }
            net.run_until(25_000);
            let snap = net.metrics_snapshot();
            (
                snap.scalar("gossip_honest_delivered_total"),
                snap.scalar("gossip_bytes_sent_total"),
                snap.scalar("gossip_events_total"),
                snap.scalar("engine_msgs_dropped_fault"),
            )
        };
        let serial = run(1);
        assert!(serial.3 > 0, "faults actually fired: {serial:?}");
        for shards in [2, 7, 30] {
            assert_eq!(serial, run(shards), "{shards}");
        }
    }

    /// A crashed peer stops receiving, rejoins cold at its restart time,
    /// and catches up: messages published after the restart reach it.
    #[test]
    fn crashed_peer_rejoins_and_receives_again() {
        let crash = crate::faults::CrashSpec {
            peer: 7,
            crash_ms: 4_000,
            restart_ms: 9_000,
        };
        let mut net = Network::new(NetworkConfig {
            peers: 30,
            degree: 6,
            seed: 13,
            faults: crate::faults::FaultPlan {
                crashes: vec![crash],
                ..Default::default()
            },
            ..NetworkConfig::default()
        });
        net.run_until(3_000);
        // Published while peer 7 is down: lost to it (mcache windows at
        // the default heartbeat have expired by the 9 s restart).
        net.publish_at(5_000, 0, b"during".to_vec(), TrafficClass::Honest);
        // Published after the restart: must reach all 29 receivers again.
        net.publish_at(15_000, 0, b"after".to_vec(), TrafficClass::Honest);
        net.run_until(40_000);
        let snap = net.metrics_snapshot();
        assert_eq!(snap.scalar("peer_restarts"), 1);
        let (honest, _) = net.deliveries_published_since(15_000);
        assert_eq!(honest, 29, "post-restart publish reaches everyone");
        let down_window = of_peer(&net, 7, "gossip_honest_delivered_total");
        assert!(
            down_window >= 1,
            "peer 7 is back in the mesh and receiving: {down_window}"
        );
    }

    /// While partitioned, no traffic crosses the cut; after healing,
    /// publishes reach both sides again, and the heal is counted.
    #[test]
    fn partition_blocks_cross_traffic_until_heal() {
        let mut net = Network::new(NetworkConfig {
            peers: 30,
            degree: 6,
            seed: 17,
            faults: crate::faults::FaultPlan {
                partitions: vec![crate::faults::PartitionSpec {
                    start_ms: 3_000,
                    end_ms: 12_000,
                    cut: 15,
                }],
                ..Default::default()
            },
            ..NetworkConfig::default()
        });
        net.run_until(3_000);
        net.publish_at(5_000, 0, b"cut off".to_vec(), TrafficClass::Honest);
        net.run_until(11_000);
        let reached_far_side = (15..30)
            .map(|p| of_peer(&net, p, "gossip_honest_delivered_total"))
            .sum::<u64>();
        assert_eq!(reached_far_side, 0, "nothing crosses a live partition");
        // After the heal, a fresh publish reaches everyone (the partitioned
        // message itself has left every mcache window by then).
        net.publish_at(20_000, 0, b"healed".to_vec(), TrafficClass::Honest);
        net.run_until(40_000);
        let (honest, _) = net.deliveries_published_since(20_000);
        assert_eq!(honest, 29, "full propagation after healing");
        assert_eq!(net.metrics_snapshot().scalar("partition_heals"), 1);
    }

    /// Clock-skew steps land at their scheduled times and move the
    /// peer's drifted clock by exactly the configured deltas.
    #[test]
    fn clock_skew_steps_apply_on_schedule() {
        let mut net = Network::new(NetworkConfig {
            peers: 30,
            degree: 6,
            seed: 19,
            clock_drift_ms: 0,
            faults: crate::faults::FaultPlan {
                skews: vec![
                    crate::faults::SkewSpec {
                        peer: 3,
                        at_ms: 5_000,
                        delta_ms: 2_500,
                    },
                    crate::faults::SkewSpec {
                        peer: 3,
                        at_ms: 10_000,
                        delta_ms: -4_000,
                    },
                ],
                ..Default::default()
            },
            ..NetworkConfig::default()
        });
        assert_eq!(net.drift_ms(3), 0);
        net.run_until(6_000);
        assert_eq!(net.drift_ms(3), 2_500, "first step applied");
        net.run_until(11_000);
        assert_eq!(net.drift_ms(3), -1_500, "backwards step accumulated");
    }

    /// The tentpole invariant, at transport level: every shard count
    /// produces the stats, scores, and latencies of the one-shard (serial)
    /// reference, bit for bit.
    #[test]
    fn sharded_scheduler_matches_serial_bit_for_bit() {
        let digest = |shards: usize| {
            let mut net = small_net_with(9, Some(shards));
            for p in 1..30 {
                // A stateful validator: validator-internal state must also
                // replay identically.
                net.set_validator(p, Box::<EveryFifthRejected>::default());
            }
            net.run_until(3_000);
            for i in 0..10u64 {
                net.publish_at(
                    3_000 + i * 700,
                    (i as usize) % 30,
                    format!("m{i}").into_bytes(),
                    TrafficClass::Honest,
                );
            }
            net.run_until(25_000);
            let snap = net.metrics_snapshot();
            let mut lats = net.honest_delivery_latencies();
            lats.sort_unstable();
            (
                snap.scalar("gossip_honest_delivered_total"),
                snap.scalar("gossip_bytes_sent_total"),
                snap.scalar("gossip_bytes_received_total"),
                snap.scalar("gossip_validations_total"),
                snap.scalar("gossip_events_total"),
                lats,
            )
        };
        let serial = digest(1);
        for shards in [2, 3, 7, 30] {
            assert_eq!(serial, digest(shards), "shards={shards}");
        }
    }
}
