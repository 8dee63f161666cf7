//! The event scheduler: an event-sharded, pool-parallel engine with
//! per-shard lookahead. At one shard it is the serial reference.
//!
//! ## One shard is the serial engine
//!
//! With one shard there is no other shard to hear from, so the horizon is
//! `t + 1`: one round drains every event with `at ≤ t` from a single
//! `EventQueue` in `(at, origin, seq)` order, on the calling thread. That
//! is the reference the equivalence tests compare every other shard count
//! against (`NetworkConfig::shards = Some(1)`); partitioning, horizons
//! and outbox draining only run at N > 1 shards.
//!
//! ## Why every shard count agrees bit-for-bit
//!
//! Peers never share mutable state (see [`crate::engine`]), so a run is
//! fully determined by the per-peer sequence of dispatched events, and
//! event keys `(at, origin, seq)` are unique and totally ordered. Each
//! shard pops its own queue in key order, so every peer's events are
//! dispatched in ascending key order at any shard count — the only order
//! that can influence state — and the final network state is identical.
//!
//! ## The lookahead invariant (Chandy–Misra null-message bound)
//!
//! Every *cross-peer* event is an RPC along a topology edge whose link
//! latency is sampled ≥ `w = max(1, latency_min_ms)`. If `T_j` is shard
//! `j`'s earliest pending event time at a barrier, then no event shard
//! `j` will *ever* process fires before `T_j`, so nothing from shard `j`
//! reaches another shard before `T_j + w`, and nothing shard `i` sends
//! comes back to it before `T_i + 2w`. Shard `i` therefore dispatches
//! every queued event strictly below
//!
//! ```text
//! horizon_i = min( min_{j≠i} T_j + w,   // other shards' events
//!                  T_i + 2w,            // echoes of i's own events
//!                  t + 1 )              // the end of run_until(t)
//! ```
//!
//! in one round without a barrier: a busy shard whose neighbours are
//! quiet advances up to two quanta at once. Cross-shard events buffered in
//! per-shard outboxes are drained at the barrier in fixed shard order;
//! pop order over unique keys is insertion-order independent, so the
//! drain order cannot leak into results.
//!
//! Progress is guaranteed: the shard holding the globally earliest event
//! always has `horizon > T_min` (`w ≥ 1`), so every round dispatches at
//! least one event.

use std::cmp::Reverse;
use std::collections::{hash_map, BinaryHeap, HashMap};

use waku_hash::PrefixState;

use crate::engine::{EventKey, PeerSlot, QueuedEvent, SimEvent};
use crate::message::SimTime;
use crate::network::NetworkConfig;

/// One pending event: everything but the fire time (its bucket's) and
/// the payload (in the slab).
#[derive(Copy, Clone)]
struct Entry {
    origin: u32,
    target: u32,
    seq: u64,
    idx: u32,
}

/// A priority queue of simulator events: a calendar of millisecond
/// buckets with a free-listed payload slab.
///
/// Pop order is identical to a min-heap of whole `QueuedEvent`s: bucket
/// times leave a heap in ascending order, and a bucket's entries are
/// sorted by `(origin, seq)` before draining, which completes the unique
/// `(at, origin, seq)` key order. The heap holds one node per pending
/// millisecond, not one per event, so a push into an existing bucket is a
/// hash probe and a `Vec::push`. Drained bucket buffers go to a spare
/// list and are reused, so the steady-state hot path does not allocate.
///
/// Every engine delay is ≥ 1 ms, so nothing is pushed into the
/// millisecond being drained (asserted in debug builds).
#[derive(Default)]
pub(crate) struct EventQueue {
    /// One bucket per pending millisecond, the active one excluded.
    buckets: HashMap<SimTime, Vec<Entry>, PrefixState>,
    /// The keys of `buckets`, earliest on top.
    times: BinaryHeap<Reverse<SimTime>>,
    /// The bucket being drained, sorted descending by `(origin, seq)`.
    active: Vec<Entry>,
    active_at: SimTime,
    /// Empty bucket buffers kept for reuse.
    spare: Vec<Vec<Entry>>,
    slab: Vec<Option<SimEvent>>,
    free: Vec<u32>,
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        EventQueue::default()
    }

    pub(crate) fn push(&mut self, ev: QueuedEvent) {
        let at = ev.key.at;
        debug_assert!(
            self.active.is_empty() || at > self.active_at,
            "event at {at} pushed into or behind the draining millisecond {}",
            self.active_at
        );
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slab[idx as usize] = Some(ev.event);
                idx
            }
            None => {
                let idx = u32::try_from(self.slab.len()).expect("< 2^32 queued events");
                self.slab.push(Some(ev.event));
                idx
            }
        };
        let entry = Entry {
            origin: u32::try_from(ev.key.origin).expect("peer ids fit u32"),
            target: u32::try_from(ev.target).expect("peer ids fit u32"),
            seq: ev.key.seq,
            idx,
        };
        match self.buckets.entry(at) {
            hash_map::Entry::Occupied(bucket) => bucket.into_mut().push(entry),
            hash_map::Entry::Vacant(slot) => {
                let mut bucket = self.spare.pop().unwrap_or_default();
                bucket.push(entry);
                slot.insert(bucket);
                self.times.push(Reverse(at));
            }
        }
    }

    /// Fire time of the earliest queued event.
    pub(crate) fn peek_at(&self) -> Option<SimTime> {
        if self.active.is_empty() {
            self.times.peek().map(|&Reverse(at)| at)
        } else {
            Some(self.active_at)
        }
    }

    pub(crate) fn pop(&mut self) -> Option<QueuedEvent> {
        if self.active.is_empty() {
            let Reverse(at) = self.times.pop()?;
            let mut bucket = self.buckets.remove(&at).expect("one bucket per time");
            // Unique (origin, seq) per bucket: descending sort, pop from
            // the back → ascending key order.
            bucket.sort_unstable_by_key(|e| Reverse((e.origin, e.seq)));
            let drained = std::mem::replace(&mut self.active, bucket);
            self.spare.push(drained);
            self.active_at = at;
        }
        let e = self.active.pop().expect("active non-empty");
        let event = self.slab[e.idx as usize].take().expect("slab occupied");
        self.free.push(e.idx);
        Some(QueuedEvent {
            key: EventKey {
                at: self.active_at,
                origin: e.origin as usize,
                seq: e.seq,
            },
            target: e.target as usize,
            event,
        })
    }
}

/// Sentinel for "no pending event". Kept far from `SimTime::MAX` so
/// adding latencies to it never wraps into plausible times.
const FAR: SimTime = SimTime::MAX / 4;

/// The shard count a network of `peers` runs with: `requested` clamped to
/// `1..=peers`, or — unset — 1 below 512 peers and ~512 peers per shard
/// above, capped so tiny pools aren't drowned in barrier overhead.
fn shard_count(requested: Option<usize>, peers: usize) -> usize {
    let shards = match requested {
        Some(shards) => shards,
        None if peers < 512 => 1,
        None => (peers / 512).clamp(2, 64),
    };
    shards.clamp(1, peers.max(1))
}

/// One shard's work for one round: drain the shard-local queue up to the
/// shard's horizon, keeping self/intra-shard events local and buffering
/// cross-shard events in the outbox.
struct ShardRound<'a> {
    queue: &'a mut EventQueue,
    slots: &'a mut [PeerSlot],
    /// First peer id owned by this shard.
    base: usize,
    /// Exclusive upper bound on event times this round may dispatch.
    horizon: SimTime,
    outbox: Vec<QueuedEvent>,
}

impl ShardRound<'_> {
    fn run(&mut self, config: &NetworkConfig) {
        // Locals, not `self.` loads, inside the per-event loop.
        let (queue, slots, outbox) = (&mut *self.queue, &mut *self.slots, &mut self.outbox);
        let (base, horizon) = (self.base, self.horizon);
        let owned = base..base + slots.len();
        let mut out = Vec::new();
        while let Some(at) = queue.peek_at() {
            if at >= horizon {
                break;
            }
            let ev = queue.pop().expect("peeked");
            slots[ev.target - base].dispatch(ev.target, ev.key.at, ev.event, config, &mut out);
            for e in out.drain(..) {
                if owned.contains(&e.target) {
                    queue.push(e);
                } else {
                    outbox.push(e);
                }
            }
        }
    }
}

/// Event-sharded engine: peers are partitioned into contiguous shards,
/// each with its own event queue; every round runs as one fork-join on
/// `waku-pool` (on the calling thread when one shard has work), bounded
/// per shard by the lookahead horizon (see module docs for the
/// correctness argument).
pub(crate) struct Scheduler {
    queues: Vec<EventQueue>,
    /// Peers per shard (the last shard may be smaller).
    chunk: usize,
    /// The link-latency floor `w = max(1, latency_min_ms)`.
    floor: SimTime,
    /// Rounds executed (the barriers-per-run metric).
    barriers: u64,
    /// Scratch: earliest pending event per shard.
    heads: Vec<SimTime>,
    /// Scratch: per-shard dispatch horizon for the current round.
    horizons: Vec<SimTime>,
}

impl Scheduler {
    /// Runs `shard_count(config.shards, peers)` shards.
    pub(crate) fn new(config: &NetworkConfig, peers: usize) -> Self {
        let shards = shard_count(config.shards, peers);
        let chunk = peers.div_ceil(shards).max(1);
        let num_queues = peers.div_ceil(chunk).max(1);
        Scheduler {
            queues: (0..num_queues).map(|_| EventQueue::new()).collect(),
            chunk,
            floor: config.latency_min_ms.max(1),
            barriers: 0,
            heads: vec![FAR; num_queues],
            horizons: vec![0; num_queues],
        }
    }

    /// Computes each shard's dispatch horizon from `self.heads` (module
    /// docs). Events at exactly `t` must still run, so horizons cap at
    /// `t + 1`; a lone shard hears from nobody and runs to the cap.
    fn compute_horizons(&mut self, t: SimTime) {
        let w = self.floor;
        let cap = t.saturating_add(1);
        for (i, &own) in self.heads.iter().enumerate() {
            let others = self.heads.iter().enumerate().filter(|&(j, _)| j != i);
            self.horizons[i] = match others.map(|(_, &head)| head).min() {
                Some(other) => (other + w).min(own + 2 * w).min(cap),
                None => cap,
            };
        }
    }

    /// Adds an externally injected event (initial heartbeats, `publish_at`).
    pub(crate) fn enqueue(&mut self, ev: QueuedEvent) {
        self.queues[ev.target / self.chunk].push(ev);
    }

    /// Dispatches every event with `at ≤ t`.
    pub(crate) fn run_until(&mut self, slots: &mut [PeerSlot], config: &NetworkConfig, t: SimTime) {
        let chunk = self.chunk;
        loop {
            for (head, queue) in self.heads.iter_mut().zip(&self.queues) {
                *head = queue.peek_at().unwrap_or(FAR).min(FAR);
            }
            let Some(&start) = self.heads.iter().min() else {
                break;
            };
            if start > t {
                break;
            }
            self.compute_horizons(t);
            // Only shards with dispatchable work join the round; the rest
            // have nothing below their horizon and produce no output.
            let mut rounds: Vec<ShardRound> = self
                .queues
                .iter_mut()
                .zip(slots.chunks_mut(chunk))
                .enumerate()
                .filter(|(i, _)| self.heads[*i] < self.horizons[*i])
                .map(|(i, (queue, slots))| ShardRound {
                    queue,
                    slots,
                    base: i * chunk,
                    horizon: self.horizons[i],
                    outbox: Vec::new(),
                })
                .collect();
            if let [round] = rounds.as_mut_slice() {
                // One shard with work — always so at one shard: no
                // fork-join to pay for. Still a round, so still a barrier.
                round.run(config);
            } else {
                waku_pool::par_for_each_mut(&mut rounds, |_, round| round.run(config));
            }
            self.barriers += 1;
            let outboxes: Vec<Vec<QueuedEvent>> = rounds.into_iter().map(|r| r.outbox).collect();
            // Round barrier: drain outboxes in fixed shard order.
            for ev in outboxes.into_iter().flatten() {
                self.queues[ev.target / chunk].push(ev);
            }
        }
    }

    /// Shard count (1 = the serial reference) — for diagnostics.
    pub(crate) fn shards(&self) -> usize {
        self.queues.len()
    }

    /// Rounds executed so far, one barrier each.
    pub(crate) fn barriers(&self) -> u64 {
        self.barriers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PeerSlot;
    use crate::message::TrafficClass;

    fn qe(at: SimTime, origin: usize, seq: u64, target: usize) -> QueuedEvent {
        QueuedEvent {
            key: EventKey { at, origin, seq },
            target,
            event: SimEvent::Heartbeat,
        }
    }

    /// The calendar pops in exactly the total key order a min-heap would,
    /// for any interleaving of near and far times.
    #[test]
    fn event_queue_pops_in_key_order() {
        let mut q = EventQueue::new();
        // A scrambled mix: same-time bursts, far-future events, pushes
        // interleaved with pops.
        let mut times: Vec<SimTime> = vec![5, 3, 3, 3, 9_000, 5, 40_000, 7, 3, 9_000, 2_100];
        for (i, &at) in times.iter().enumerate() {
            q.push(qe(at, i % 4, i as u64, i));
        }
        let mut popped: Vec<(SimTime, usize, u64)> = Vec::new();
        // Interleave: drain two, push two more, drain the rest.
        for _ in 0..2 {
            let ev = q.pop().expect("non-empty");
            popped.push((ev.key.at, ev.key.origin, ev.key.seq));
        }
        for (i, &at) in [(100, 4u64), (9_000, 99u64)].iter().enumerate() {
            q.push(qe(at.0, 9, at.1, i));
            times.push(at.0);
        }
        while let Some(ev) = q.pop() {
            popped.push((ev.key.at, ev.key.origin, ev.key.seq));
        }
        let mut expected = popped.clone();
        expected.sort_unstable();
        // Ascending and complete (the first two popped were the global
        // minima, so the full sequence is sorted end to end).
        assert_eq!(popped, expected);
        assert_eq!(popped.len(), times.len());
        assert!(q.pop().is_none());
    }

    /// A late `publish_at`: events pushed behind the earliest pending
    /// time, after a pop has drained an earlier millisecond, still pop
    /// in time order.
    #[test]
    fn event_queue_accepts_events_behind_the_cursor() {
        let mut q = EventQueue::new();
        q.push(qe(10, 0, 0, 0));
        q.push(qe(5_000, 0, 1, 0));
        assert_eq!(q.pop().unwrap().key.at, 10);
        assert_eq!(q.peek_at(), Some(5_000));
        q.push(qe(100, 1, 0, 1));
        q.push(qe(60, 2, 0, 2));
        let order: Vec<SimTime> = std::iter::from_fn(|| q.pop()).map(|e| e.key.at).collect();
        assert_eq!(order, vec![60, 100, 5_000]);
    }

    /// Same-time events pop by (origin, seq) — the engine's total order.
    #[test]
    fn event_queue_orders_within_a_millisecond() {
        let mut q = EventQueue::new();
        q.push(qe(7, 2, 0, 0));
        q.push(qe(7, 0, 5, 0));
        q.push(qe(7, 0, 2, 0));
        q.push(qe(7, 1, 9, 0));
        let order: Vec<(usize, u64)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.key.origin, e.key.seq))
            .collect();
        assert_eq!(order, vec![(0, 2), (0, 5), (1, 9), (2, 0)]);
    }

    #[test]
    fn kind_resolution() {
        assert_eq!(shard_count(Some(1), 10_000), 1);
        assert_eq!(shard_count(Some(8), 100), 8);
        // A requested count never exceeds the peer count, nor drops to 0.
        assert_eq!(shard_count(Some(64), 10), 10);
        assert_eq!(shard_count(Some(0), 10), 1);
        assert_eq!(shard_count(None, 100), 1);
        assert!(shard_count(None, 10_000) >= 2);
    }

    fn ring_slots(peers: usize) -> Vec<PeerSlot> {
        (0..peers)
            .map(|p| {
                let mut slot = PeerSlot::new(1, p, 0);
                slot.neighbors = vec![(p + peers - 1) % peers, (p + 1) % peers];
                slot
            })
            .collect()
    }

    fn with_shards(shards: usize, latency_min_ms: u64) -> NetworkConfig {
        NetworkConfig {
            shards: Some(shards),
            latency_min_ms,
            ..NetworkConfig::default()
        }
    }

    /// One shard is the serial engine: nothing to hear from elsewhere, so
    /// the horizon is `t + 1` for any head `≤ t`, and one `run_until(t)`
    /// is one round that leaves nothing with `at ≤ t` queued — including
    /// events the round itself scheduled (a heartbeat re-armed at `t`).
    /// With `event_queue_pops_in_key_order` this pins the serial semantics.
    #[test]
    fn one_shard_is_the_serial_engine() {
        let peers = 6;
        let mut slots = ring_slots(peers);
        let config = with_shards(1, 20);
        let mut s = Scheduler::new(&config, slots.len());
        assert_eq!(s.shards(), 1);
        for head in [0, 17, 999, 1_000] {
            s.heads = vec![head];
            s.compute_horizons(1_000);
            assert_eq!(s.horizons, vec![1_001], "head {head}");
        }
        // Heartbeats at 0, 300, …, 1 500; the one at 0 re-arms at 1 000.
        for p in 0..peers {
            s.enqueue(qe(p as SimTime * 300, p, 0, p));
        }
        s.run_until(&mut slots, &config, 1_000);
        assert_eq!(s.barriers(), 1, "one round");
        // Heartbeats only: the grafts they send to ring neighbours are
        // RPC events, counted apart.
        let heartbeats: u64 = slots
            .iter()
            .map(|slot| slot.recorder.snapshot().scalar("gossip_heartbeats_total"))
            .sum();
        assert_eq!(
            heartbeats, 5,
            "four staggered heartbeats + the re-armed one"
        );
        assert!(s.queues[0].peek_at().is_none_or(|at| at > 1_000));
    }

    #[test]
    fn sharded_partition_covers_all_peers() {
        for (peers, shards) in [(10, 3), (100, 7), (4, 4), (512, 2)] {
            let s = Scheduler::new(&with_shards(shards, 20), peers);
            // Every peer maps to a valid queue.
            for p in 0..peers {
                assert!(
                    p / s.chunk < s.queues.len(),
                    "peers={peers} shards={shards}"
                );
            }
        }
    }

    /// Shard 0 busy at 100, shards 1 and 2 quiet until 1 000, `w` = 20:
    /// shard 0 runs to its own echo `T_0 + 2w`, past one floor, and the
    /// quiet shards to what shard 0 could send them, `T_0 + w`.
    #[test]
    fn horizons_extend_past_the_latency_floor_when_quiet() {
        let mut s = Scheduler::new(&with_shards(3, 20), 9);
        s.heads = vec![100, 1_000, 1_000];
        s.compute_horizons(5_000);
        assert_eq!(s.horizons, vec![140, 120, 120]);
        // Two busy shards bound each other by one floor; the cap holds.
        s.heads = vec![100, 105, 1_000];
        s.compute_horizons(5_000);
        assert_eq!(s.horizons, vec![125, 120, 120]);
        s.compute_horizons(110);
        assert_eq!(s.horizons, vec![111, 111, 111]);
    }

    /// A 9-peer line (the ring broken between 0 and 8) on 3 shards of 3:
    /// shards 0 and 2 share no edge, so the one-floor bound is looser
    /// than the shortest cross-shard path. Every peer publishes every
    /// 50 ms for a second; each ends with the counters and first
    /// deliveries it has on one shard.
    #[test]
    fn a_line_on_three_shards_dispatches_what_one_shard_does() {
        let run = |shards: usize| {
            let mut slots = ring_slots(9);
            slots[0].neighbors = vec![1];
            slots[8].neighbors = vec![7];
            let config = with_shards(shards, 20);
            let mut s = Scheduler::new(&config, slots.len());
            assert_eq!(s.shards(), shards);
            let mut inject = |slots: &mut [PeerSlot], p: usize, at: SimTime, event| {
                let key = slots[p].next_key(p, at);
                s.enqueue(QueuedEvent {
                    key,
                    target: p,
                    event,
                });
            };
            for p in 0..9 {
                inject(&mut slots, p, p as SimTime * 37, SimEvent::Heartbeat);
                for k in 0..20 {
                    let at = 1_500 + k * 50 + p as SimTime * 7;
                    let data = vec![p as u8, k as u8];
                    let class = TrafficClass::Honest;
                    inject(&mut slots, p, at, SimEvent::Publish { data, class });
                }
            }
            s.run_until(&mut slots, &config, 5_000);
            slots
                .iter()
                .map(|slot| {
                    let deliveries: Vec<_> = slot
                        .deliveries
                        .iter()
                        .map(|(id, d)| (*id, d.at, d.published_at))
                        .collect();
                    (slot.recorder.snapshot(), deliveries)
                })
                .collect::<Vec<_>>()
        };
        let serial = run(1);
        let delivered: usize = serial.iter().map(|(_, deliveries)| deliveries.len()).sum();
        assert_eq!(
            delivered,
            180 * 8,
            "every message reaches the 8 other peers"
        );
        assert_eq!(run(3), serial);
    }
}
