//! Event-processing core the scheduler's shards dispatch into (see
//! [`crate::scheduler`]):
//! one `PeerSlot` per peer bundles the GossipSub protocol state with a
//! **private RNG stream** and a **private event-sequence counter**.
//!
//! Determinism contract (what makes every shard count bit-identical to
//! the one-shard serial reference):
//!
//! * a peer's state is mutated *only* while dispatching events targeted at
//!   that peer — handlers never touch another peer's slot;
//! * every random draw a handler makes comes from the target peer's own
//!   RNG, seeded from `(network seed, peer id)` — no draw order is shared
//!   across peers;
//! * every event carries a globally unique, totally ordered `EventKey`
//!   `(fire time, origin peer, per-origin sequence)`. Shards may
//!   interleave *different* peers' events however they like, but must
//!   deliver each peer's events in ascending key order — which every
//!   per-shard queue does at any shard count, because pop order over
//!   unique keys is insertion-order independent.

use std::collections::BTreeSet;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use waku_metrics::LocalRecorder;

use crate::cache::{MessageCache, SeenSet};
use crate::faults::fault_word;
use crate::instrument::engine_catalogue;
use crate::message::{Message, MessageId, PeerId, Rpc, SimTime, TrafficClass, Validation};
use crate::network::{NetworkConfig, Validator};
use crate::scoring::{ScoreTable, GRAYLIST_THRESHOLD, PRUNE_THRESHOLD};

// GossipSub mesh parameters: the libp2p defaults.

/// Target mesh degree.
const D: usize = 6;
/// Mesh low watermark.
const D_LO: usize = 4;
/// Mesh high watermark.
pub(crate) const D_HI: usize = 12;
/// Gossip fan-out (IHAVE targets per heartbeat).
const D_LAZY: usize = 6;
/// Heartbeat interval (ms).
pub(crate) const HEARTBEAT_MS: u64 = 1_000;
/// Number of heartbeat windows a message stays gossip-able.
const MCACHE_GOSSIP: usize = 3;
/// Number of heartbeat windows a message stays retrievable.
const MCACHE_LEN: usize = 5;
/// Heartbeat rotations a seen-id survives. Seen-ids must outlive every
/// path a message can still travel: mcache retention + the gossip window
/// it can be IHAVE'd from, plus slack for in-flight IWANT round-trips and
/// clock stagger.
const SEEN_WINDOW: u32 = (MCACHE_LEN + MCACHE_GOSSIP + 2) as u32;

/// Globally unique, totally ordered event identity. The derived `Ord`
/// compares `(at, origin, seq)` lexicographically; `(origin, seq)` pairs
/// are never reused, so keys are unique and any heap pops them in the same
/// order regardless of how they were inserted.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct EventKey {
    /// Network time the event fires (ms).
    pub at: SimTime,
    /// Peer whose dispatch created the event.
    pub origin: PeerId,
    /// Origin-local scheduling sequence number.
    pub seq: u64,
}

/// The simulator's event alphabet.
#[derive(Clone, Debug)]
pub(crate) enum SimEvent {
    Rpc {
        from: PeerId,
        rpc: Rpc,
    },
    Heartbeat,
    Publish {
        data: Vec<u8>,
        class: TrafficClass,
    },
    /// The peer rejoins after a scheduled crash (fault plane): in-memory
    /// gossip state is rebuilt cold, validator state is round-tripped
    /// through its snapshot path, and the heartbeat chain is re-armed.
    Restart,
    /// The peer's clock drift steps by `delta_ms` (fault plane). Applies
    /// even while the peer is down — a dead process's clock keeps
    /// drifting.
    ClockSkew {
        delta_ms: i64,
    },
}

/// An event routed to `target`'s shard and dispatched at `key.at`.
#[derive(Clone, Debug)]
pub(crate) struct QueuedEvent {
    pub key: EventKey,
    pub target: PeerId,
    pub event: SimEvent,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.target == other.target
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.key, self.target).cmp(&(other.key, other.target))
    }
}

/// First-delivery record for latency analysis.
#[derive(Clone, Copy, Debug)]
pub struct DeliveryRecord {
    /// The receiving peer.
    pub peer: PeerId,
    /// Network time of the delivery.
    pub at: SimTime,
    /// Network time the message was published.
    pub published_at: SimTime,
    /// Traffic class of the delivered message (lets fault scenarios
    /// measure per-class delivery inside a time window, e.g. re-convergence
    /// after a partition heals).
    pub class: TrafficClass,
}

/// SplitMix64 finalizer — decorrelates the per-peer RNG streams derived
/// from one network seed (and, via [`crate::faults::fault_word`], the
/// event-keyed fault streams).
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed for peer `p`'s private stream under network seed `seed`.
pub(crate) fn peer_stream_seed(seed: u64, peer: PeerId) -> u64 {
    mix64(seed ^ mix64(peer as u64 + 1))
}

/// One peer: protocol state + private RNG + private event counter.
/// `Send` end to end (the validator bound included) so shards can migrate
/// across pool workers between rounds. Every peer relays the network's
/// one pubsub topic from construction, so the mesh and the mcache are
/// that topic's.
pub(crate) struct PeerSlot {
    pub neighbors: Vec<PeerId>,
    pub mesh: BTreeSet<PeerId>,
    /// Generational duplicate-suppression set (rotated each heartbeat).
    pub seen: SeenSet,
    /// The mcache window ring (rotated each heartbeat).
    pub cache: MessageCache,
    pub scores: ScoreTable,
    pub validator: Option<Validator>,
    pub drift_ms: i64,
    pub next_seq: u64,
    /// Scheduled downtime windows `[crash, restart)` from the fault plan
    /// (set at network construction; empty without faults). While down,
    /// every event addressed to this peer except `ClockSkew` is dropped.
    pub(crate) downtime: Vec<(SimTime, SimTime)>,
    /// First deliveries observed by this peer (merged across peers in
    /// peer-id order for network-wide latency stats).
    pub deliveries: Vec<(MessageId, DeliveryRecord)>,
    pub(crate) rng: StdRng,
    pub(crate) event_seq: u64,
    /// This peer's metrics recorder (engine catalogue: event counts,
    /// deliveries, verdicts, bytes and dwell times) — the peer's only
    /// tally. Records only deterministic sim-domain values, so merged
    /// snapshots stay bit-identical across shard counts.
    pub(crate) recorder: LocalRecorder,
    /// Reusable buffer for forward-target lists — the accept path runs
    /// allocation-free in steady state.
    targets_scratch: Vec<PeerId>,
}

impl PeerSlot {
    pub(crate) fn new(seed: u64, peer: PeerId, drift_ms: i64) -> Self {
        PeerSlot {
            neighbors: Vec::new(),
            mesh: BTreeSet::new(),
            seen: SeenSet::new(SEEN_WINDOW),
            cache: MessageCache::default(),
            scores: ScoreTable::default(),
            validator: None,
            drift_ms,
            next_seq: 0,
            downtime: Vec::new(),
            deliveries: Vec::new(),
            rng: StdRng::seed_from_u64(peer_stream_seed(seed, peer)),
            event_seq: 0,
            recorder: LocalRecorder::new(Arc::clone(&engine_catalogue().0)),
            targets_scratch: Vec::new(),
        }
    }

    pub(crate) fn score_of(&self, peer: PeerId) -> f64 {
        self.scores.get(peer).map(|s| s.score()).unwrap_or(0.0)
    }

    pub(crate) fn local_time(&self, now: SimTime) -> SimTime {
        (now as i64 + self.drift_ms).max(0) as SimTime
    }

    /// Is this peer inside a scheduled crash window at time `at`? The
    /// restart instant itself is *up* (`at < restart`), so the `Restart`
    /// event dispatches rather than being swallowed by its own downtime.
    pub(crate) fn is_down(&self, at: SimTime) -> bool {
        self.downtime
            .iter()
            .any(|&(crash, restart)| at >= crash && at < restart)
    }

    /// Mints the next event key for an event this peer schedules. Called
    /// both from dispatch handlers and from the network facade (external
    /// injections like `publish_at` and the initial heartbeats), so the
    /// key stream is identical no matter which scheduler runs the peer.
    pub(crate) fn next_key(&mut self, me: PeerId, at: SimTime) -> EventKey {
        let seq = self.event_seq;
        self.event_seq += 1;
        EventKey {
            at,
            origin: me,
            seq,
        }
    }

    fn schedule(
        &mut self,
        me: PeerId,
        now: SimTime,
        delay: SimTime,
        target: PeerId,
        event: SimEvent,
        out: &mut Vec<QueuedEvent>,
    ) {
        self.recorder.observe(engine_catalogue().1.dwell, delay);
        let key = self.next_key(me, now + delay);
        out.push(QueuedEvent { key, target, event });
    }

    /// Samples a one-way link latency from this peer's stream. Clamped to
    /// ≥ 1 ms so cross-peer events always land at least one quantum ahead
    /// (the scheduler's lookahead correctness hinges on this floor).
    fn link_latency(&mut self, config: &NetworkConfig) -> SimTime {
        self.rng
            .gen_range(config.latency_min_ms..=config.latency_max_ms)
            .max(1)
    }

    fn send_rpc(
        &mut self,
        me: PeerId,
        now: SimTime,
        to: PeerId,
        rpc: Rpc,
        config: &NetworkConfig,
        out: &mut Vec<QueuedEvent>,
    ) {
        let size = rpc.size() as u64;
        self.recorder.add(engine_catalogue().1.bytes_sent, size);
        let latency = self.link_latency(config);
        let plan = &config.faults;
        if !plan.affects_links() {
            self.recorder.observe(engine_catalogue().1.dwell, latency);
            out.push(QueuedEvent {
                key: self.next_key(me, now + latency),
                target: to,
                event: SimEvent::Rpc { from: me, rpc },
            });
            return;
        }
        // Event-keyed fault stream: the decision for this transmission is
        // a pure function of (fault seed, link, the sequence of the key
        // this send mints) — never of scheduler order.
        let word = fault_word(plan.seed, me, to, self.event_seq);
        if plan.severed(me, to, now) || plan.link.drops(word) {
            // A dropped transmission still consumes its sequence slot, so
            // the next send on this link draws a fresh fault word instead
            // of replaying the drop forever.
            self.event_seq += 1;
            self.recorder.inc(engine_catalogue().1.dropped_fault);
            return;
        }
        // Faults only ever ADD delay: `latency` already carries the
        // scheduler's quantum floor, so the Chandy–Misra lookahead bound
        // holds under any fault plan.
        let delay = latency + plan.link.extra_delay(word);
        if plan.link.duplicates(word) {
            let dup_delay = delay + plan.link.duplicate_lag(word);
            self.recorder.add(engine_catalogue().1.bytes_sent, size);
            self.recorder.observe(engine_catalogue().1.dwell, dup_delay);
            out.push(QueuedEvent {
                key: self.next_key(me, now + dup_delay),
                target: to,
                event: SimEvent::Rpc {
                    from: me,
                    rpc: rpc.clone(),
                },
            });
        }
        self.recorder.observe(engine_catalogue().1.dwell, delay);
        out.push(QueuedEvent {
            key: self.next_key(me, now + delay),
            target: to,
            event: SimEvent::Rpc { from: me, rpc },
        });
    }

    /// Dispatches one event targeted at this peer, appending any newly
    /// scheduled events (for any peer) to `out`.
    pub(crate) fn dispatch(
        &mut self,
        me: PeerId,
        now: SimTime,
        event: SimEvent,
        config: &NetworkConfig,
        out: &mut Vec<QueuedEvent>,
    ) {
        let ids = &engine_catalogue().1;
        self.recorder.inc(ids.events);
        // Crash windows (fault plane): a down peer loses every event
        // addressed to it — RPCs vanish in flight, its own heartbeat chain
        // dies, scheduled publishes are never sent. Clock-skew steps are
        // exempt (the clock drifts regardless of the process), and the
        // `Restart` instant itself is not "down" (see `is_down`). The
        // events counter above still ticks: it counts every pop, under
        // faults too. The drop predicate is pure simulation time, so it is
        // scheduler-invariant.
        if !matches!(event, SimEvent::ClockSkew { .. }) && self.is_down(now) {
            if matches!(event, SimEvent::Rpc { .. }) {
                self.recorder.inc(ids.dropped_fault);
            }
            return;
        }
        match event {
            SimEvent::Publish { data, class } => {
                self.recorder.inc(ids.publishes);
                self.handle_local_publish(me, now, data, class, config, out)
            }
            SimEvent::Heartbeat => {
                self.recorder.inc(ids.heartbeats);
                self.handle_heartbeat(me, now, config, out)
            }
            SimEvent::Rpc { from, rpc } => {
                self.recorder.inc(ids.rpcs);
                self.handle_rpc(me, now, from, rpc, config, out)
            }
            SimEvent::Restart => {
                self.recorder.inc(ids.restarts);
                self.handle_restart(me, now, out)
            }
            SimEvent::ClockSkew { delta_ms } => self.drift_ms += delta_ms,
        }
    }

    /// Cold rejoin after a scheduled crash. Everything a real node keeps
    /// in memory is rebuilt from scratch: the seen-set (so re-deliveries
    /// are accepted again and the peer can catch up), the mcache, the
    /// mesh views, and the peer scores. The validator survives through
    /// its *snapshot path* — `MessageAcceptor::on_restart` round-trips
    /// durable defense state (the RLN nullifier store persists like any
    /// on-disk database) while in-memory caches are lost. Mesh and
    /// message re-sync is emergent: the next heartbeats re-graft, and the
    /// existing IHAVE → IWANT machinery back-fills messages still inside
    /// neighbors' gossip windows.
    fn handle_restart(&mut self, me: PeerId, now: SimTime, out: &mut Vec<QueuedEvent>) {
        self.seen = SeenSet::new(SEEN_WINDOW);
        self.cache = MessageCache::default();
        self.mesh.clear();
        self.scores = ScoreTable::default();
        let local = self.local_time(now);
        if let Some(v) = self.validator.as_mut() {
            v.on_restart(local);
        }
        // Re-arm the heartbeat chain that died during the downtime.
        self.schedule(me, now, 1, me, SimEvent::Heartbeat, out);
    }

    fn handle_local_publish(
        &mut self,
        me: PeerId,
        now: SimTime,
        data: Vec<u8>,
        class: TrafficClass,
        config: &NetworkConfig,
        out: &mut Vec<QueuedEvent>,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut message = Message::new(data, me, seq, class);
        message.published_at = now;
        let message = Arc::new(message);
        self.seen.insert(&message.id);
        self.cache.insert(Arc::clone(&message));
        let mut targets = std::mem::take(&mut self.targets_scratch);
        self.mesh_targets(me, None, &mut targets);
        for &t in &targets {
            self.send_rpc(me, now, t, Rpc::Publish(Arc::clone(&message)), config, out);
        }
        self.targets_scratch = targets;
    }

    /// Mesh peers for forwarding (fallback: random neighbors when the
    /// mesh hasn't formed yet). Fills the caller-provided buffer (the
    /// reusable [`Self::targets_scratch`]) instead of allocating.
    fn mesh_targets(&mut self, me: PeerId, exclude: Option<PeerId>, targets: &mut Vec<PeerId>) {
        targets.clear();
        targets.extend(self.mesh.iter().copied());
        if targets.is_empty() {
            targets.extend_from_slice(&self.neighbors);
            targets.shuffle(&mut self.rng);
            targets.truncate(D);
        }
        targets.retain(|t| Some(*t) != exclude && *t != me);
    }

    fn handle_rpc(
        &mut self,
        me: PeerId,
        now: SimTime,
        from: PeerId,
        rpc: Rpc,
        config: &NetworkConfig,
        out: &mut Vec<QueuedEvent>,
    ) {
        self.recorder
            .add(engine_catalogue().1.bytes_received, rpc.size() as u64);
        // Fast path: duplicate publishes (the dominant event class at
        // scale — every message arrives ~mesh-degree times) are absorbed
        // before the score lookup. Behavior is identical: a duplicate is
        // dropped with no state change whether or not the sender is
        // graylisted.
        if let Rpc::Publish(message) = &rpc {
            if self.seen.contains(&message.id) {
                return;
            }
        }
        // Graylisted peers are ignored outright (scoring defense).
        let score = self.score_of(from);
        if score < GRAYLIST_THRESHOLD {
            return;
        }
        match rpc {
            Rpc::Publish(message) => self.handle_publish(me, now, from, message, config, out),
            Rpc::IHave(ids) => {
                let wanted: Vec<MessageId> = ids
                    .iter()
                    .filter(|id| !self.seen.contains(id))
                    .copied()
                    .collect();
                if !wanted.is_empty() {
                    self.send_rpc(me, now, from, Rpc::IWant(wanted), config, out);
                }
            }
            Rpc::IWant(ids) => {
                let messages: Vec<Arc<Message>> = ids
                    .iter()
                    .filter_map(|id| self.cache.find(id).cloned())
                    .collect();
                for m in messages {
                    self.send_rpc(me, now, from, Rpc::Publish(m), config, out);
                }
            }
            Rpc::Graft => {
                if score >= PRUNE_THRESHOLD {
                    self.mesh.insert(from);
                } else {
                    self.send_rpc(me, now, from, Rpc::Prune, config, out);
                }
            }
            Rpc::Prune => {
                self.mesh.remove(&from);
            }
        }
    }

    fn handle_publish(
        &mut self,
        me: PeerId,
        now: SimTime,
        from: PeerId,
        message: Arc<Message>,
        config: &NetworkConfig,
        out: &mut Vec<QueuedEvent>,
    ) {
        // Duplicates never get here: `handle_rpc` absorbs them against
        // the seen-cache before the score lookup.
        // Validate (the RLN pipeline plugs in here, §III-F).
        let ids = &engine_catalogue().1;
        let local = self.local_time(now);
        let verdict = match self.validator.as_mut() {
            Some(v) => {
                self.recorder.inc(ids.validations);
                v.validate(from, &message, local)
            }
            None => Validation::Accept,
        };
        match verdict {
            Validation::Accept => {
                self.seen.insert(&message.id);
                self.cache.insert(Arc::clone(&message));
                self.recorder.inc(match message.class {
                    TrafficClass::Honest => ids.honest_delivered,
                    TrafficClass::Spam => ids.spam_delivered,
                    TrafficClass::Invalid => ids.invalid_delivered,
                });
                self.scores.entry_or_default(from).on_first_delivery();
                self.deliveries.push((
                    message.id,
                    DeliveryRecord {
                        peer: me,
                        at: now,
                        published_at: message.published_at,
                        class: message.class,
                    },
                ));
                let mut targets = std::mem::take(&mut self.targets_scratch);
                self.mesh_targets(me, Some(from), &mut targets);
                for &t in &targets {
                    if t != message.origin {
                        self.send_rpc(me, now, t, Rpc::Publish(message.clone()), config, out);
                    }
                }
                self.targets_scratch = targets;
            }
            Validation::Reject => {
                // Not marked seen: the spam signature (nullifier clash) must
                // keep triggering detection, and scoring punishes repeats.
                self.recorder.inc(ids.rejected);
                self.scores.entry_or_default(from).on_invalid_message();
            }
            Validation::Ignore => {
                self.seen.insert(&message.id);
                self.recorder.inc(ids.ignored);
            }
        }
    }

    fn handle_heartbeat(
        &mut self,
        me: PeerId,
        now: SimTime,
        config: &NetworkConfig,
        out: &mut Vec<QueuedEvent>,
    ) {
        // 0. let the validator observe the local clock: epoch-windowed
        // defense state (the RLN nullifier window) advances on rollover
        // even when no message arrives. Runs inside this peer's own
        // dispatch, so determinism across shard counts is preserved.
        let local = self.local_time(now);
        if let Some(v) = self.validator.as_mut() {
            v.on_heartbeat(local);
        }

        // 1. prune negative-score mesh members
        let to_prune: Vec<PeerId> = self
            .mesh
            .iter()
            .copied()
            .filter(|&m| self.score_of(m) < PRUNE_THRESHOLD)
            .collect();
        for m in to_prune {
            self.mesh.remove(&m);
            self.send_rpc(me, now, m, Rpc::Prune, config, out);
        }

        // 2. degree maintenance
        let degree = self.mesh.len();
        if degree < D_LO {
            let mut candidates: Vec<PeerId> = self
                .neighbors
                .iter()
                .copied()
                .filter(|n| !self.mesh.contains(n) && self.score_of(*n) >= PRUNE_THRESHOLD)
                .collect();
            candidates.shuffle(&mut self.rng);
            for c in candidates.into_iter().take(D - degree) {
                self.mesh.insert(c);
                self.send_rpc(me, now, c, Rpc::Graft, config, out);
            }
        } else if degree > D_HI {
            let mut members: Vec<PeerId> = self.mesh.iter().copied().collect();
            members.shuffle(&mut self.rng);
            for m in members.into_iter().take(degree - D) {
                self.mesh.remove(&m);
                self.send_rpc(me, now, m, Rpc::Prune, config, out);
            }
        }

        // 3. IHAVE gossip to non-mesh neighbors: one id list per
        // heartbeat, refcount-shared across sends.
        if let Some(gossip_ids) = self.cache.gossip_ids(MCACHE_GOSSIP) {
            let mut lazy: Vec<PeerId> = self
                .neighbors
                .iter()
                .copied()
                .filter(|n| !self.mesh.contains(n))
                .collect();
            lazy.shuffle(&mut self.rng);
            for l in lazy.into_iter().take(D_LAZY) {
                let rpc = Rpc::IHave(Arc::clone(&gossip_ids));
                self.send_rpc(me, now, l, rpc, config, out);
            }
        }

        // 4. mesh-time accrual + decay
        for &m in &self.mesh {
            self.scores
                .entry_or_default(m)
                .on_mesh_time(HEARTBEAT_MS as f64 / 1000.0);
        }
        for s in self.scores.values_mut() {
            s.decay();
        }

        // 5. rotate the mcache windows and the seen-set generation
        self.cache.rotate(MCACHE_LEN);
        self.seen.rotate();

        self.schedule(me, now, HEARTBEAT_MS, me, SimEvent::Heartbeat, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_keys_order_by_time_then_origin_then_seq() {
        let k = |at, origin, seq| EventKey { at, origin, seq };
        assert!(k(1, 9, 9) < k(2, 0, 0));
        assert!(k(5, 1, 9) < k(5, 2, 0));
        assert!(k(5, 1, 3) < k(5, 1, 4));
    }

    #[test]
    fn peer_streams_are_distinct_and_stable() {
        let a = peer_stream_seed(42, 0);
        let b = peer_stream_seed(42, 1);
        assert_ne!(a, b);
        assert_eq!(a, peer_stream_seed(42, 0));
        assert_ne!(a, peer_stream_seed(43, 0));
    }

    #[test]
    fn key_stream_is_per_peer_monotone() {
        let mut slot = PeerSlot::new(1, 3, 0);
        let k1 = slot.next_key(3, 100);
        let k2 = slot.next_key(3, 100);
        assert!(k1 < k2);
        assert_eq!(k1.origin, 3);
    }
}
