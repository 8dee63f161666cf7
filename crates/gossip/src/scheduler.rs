//! The event scheduler: an event-sharded, pool-parallel engine with
//! adaptive per-shard lookahead. At one shard it is the serial reference.
//!
//! ## One shard is the serial engine
//!
//! With one shard there is no other shard to hear from (`cyc = FAR`), so
//! the horizon is `t + 1`: one round drains every event with `at ≤ t`
//! from a single `EventQueue` in `(at, origin, seq)` order, on the
//! calling thread. That is the reference the equivalence tests compare
//! every other shard count against (`NetworkConfig::shards = Some(1)`);
//! partitioning, horizons and outbox draining only run at N > 1 shards.
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
//! latency is sampled ≥ `w = max(1, latency_min_ms)`. Lift the peer
//! topology to the shard level: `w(j,i) = w` when any peer in shard `j`
//! neighbors a peer in shard `i`, else ∞, and let `dist(j,i)` be the
//! all-pairs shortest path over that graph (Floyd–Warshall, computed once
//! at construction). If `T_j` is shard `j`'s earliest pending event time
//! at a barrier, then no event shard `j` will *ever* process (now or in
//! any future round) fires before `T_j`, so nothing can arrive at shard
//! `i` before
//!
//! ```text
//! horizon_i = min( min_{j≠i} T_j + dist(j,i),   // other shards' events
//!                  T_i + cyc(i) )               // echoes of i's own events
//! ```
//!
//! where `cyc(i) = min_{j≠i} dist(i,j) + w(j,i)` is the shortest
//! round-trip through another shard. Shard `i` may therefore dispatch
//! every queued event strictly below `horizon_i` in one round without a
//! barrier — quiet neighborhoods let busy shards advance many quanta at
//! once, and distant shards contribute multi-hop slack. A fixed quantum
//! `horizon_i = min_j T_j + w` is the degenerate case of this bound
//! (every `dist ≥ w`, `cyc ≥ 2w`), so these horizons never barrier more
//! often than one would. Cross-shard events buffered in per-shard
//! outboxes are drained at the barrier in fixed shard order; heap pop
//! order over unique keys is insertion-order independent, so the drain
//! order cannot leak into results.
//!
//! Progress is guaranteed: the shard holding the globally earliest event
//! always has `horizon > T_min` (all weights ≥ 1), so every round
//! dispatches at least one event.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::engine::{EventKey, PeerSlot, QueuedEvent, SimEvent};
use crate::message::SimTime;
use crate::network::NetworkConfig;

/// Heap node of an [`EventQueue`]: the 32-byte ordering prefix of a
/// [`QueuedEvent`] plus a slab index for the (much larger) payload.
/// Binary-heap sifts move only these nodes; the `SimEvent` payload is
/// written once on push and read once on pop. Keys are globally unique,
/// so `idx` (derived order) never actually breaks a tie.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct HeapNode {
    key: EventKey,
    target: u32,
    idx: u32,
}

/// One wheel-bucket entry: everything but the fire time (implicit — all
/// entries of a bucket share it) and the payload (in the slab).
#[derive(Copy, Clone)]
struct WheelEntry {
    origin: u32,
    target: u32,
    seq: u64,
    idx: u32,
}

/// Wheel span in 1 ms buckets (power of two). Covers the default
/// heartbeat re-arm (+1000 ms) and every link latency; anything farther
/// out (pre-scheduled publishes, exotic configs) overflows into a
/// conventional heap and is promoted as the window advances — the wheel
/// size is a performance knob, never a correctness bound.
const WHEEL: usize = 2048;

/// A priority queue of simulator events: a millisecond-granular time
/// wheel with a compact-node overflow heap and a free-listed payload
/// slab.
///
/// Pop order is identical to a min-heap of whole `QueuedEvent`s — events
/// ascend by `at` (wheel buckets are visited in time order), and a
/// bucket's entries are sorted by `(origin, seq)` before draining, which
/// completes the unique `(at, origin, seq)` key order. The wheel kills
/// the `O(log n)` sift traffic that dominates 10⁴-peer runs: a push is a
/// `Vec::push` into the bucket, a pop is a `Vec::pop` off the sorted
/// active bucket, and bucket buffers are recycled in place, so the
/// steady-state hot path neither compares nor allocates.
///
/// Invariant: every wheel entry's time lies in `[cursor, cursor + WHEEL)`
/// — bucket index `at % WHEEL` is unambiguous. `cursor` only advances to
/// the next actual event time; overflow events are promoted whenever they
/// enter the window, and a (rare) externally injected event behind the
/// cursor triggers a full window rebuild rather than silent aliasing.
#[derive(Default)]
pub(crate) struct EventQueue {
    /// `WHEEL` buckets of same-time entries.
    wheel: Vec<Vec<WheelEntry>>,
    /// Non-empty-bucket bitmap (`WHEEL / 64` words) for cursor scans.
    bitmap: Vec<u64>,
    /// Window start; all bucket entries fire in `[cursor, cursor+WHEEL)`.
    cursor: SimTime,
    /// Entries currently in wheel buckets (excluding the active bucket).
    wheel_len: usize,
    /// The bucket being drained, sorted descending by `(origin, seq)`.
    active: Vec<WheelEntry>,
    active_at: SimTime,
    active_bucket: usize,
    /// Events outside the wheel window, promoted as the cursor advances.
    overflow: BinaryHeap<Reverse<HeapNode>>,
    slab: Vec<Option<SimEvent>>,
    free: Vec<u32>,
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        EventQueue {
            wheel: (0..WHEEL).map(|_| Vec::new()).collect(),
            bitmap: vec![0; WHEEL / 64],
            ..EventQueue::default()
        }
    }

    #[inline]
    fn bucket_insert(&mut self, at: SimTime, entry: WheelEntry) {
        let b = (at as usize) & (WHEEL - 1);
        if self.wheel[b].is_empty() {
            self.bitmap[b / 64] |= 1u64 << (b % 64);
        }
        self.wheel[b].push(entry);
        self.wheel_len += 1;
    }

    pub(crate) fn push(&mut self, ev: QueuedEvent) {
        let at = ev.key.at;
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
        let entry = WheelEntry {
            origin: u32::try_from(ev.key.origin).expect("peer ids fit u32"),
            target: u32::try_from(ev.target).expect("peer ids fit u32"),
            seq: ev.key.seq,
            idx,
        };
        if self.wheel_len == 0 && self.active.is_empty() {
            // Empty wheel: restart the window at the earliest pending
            // time (never ahead of the overflow minimum — the cursor must
            // stay a lower bound on every queued event).
            let floor = self
                .overflow
                .peek()
                .map(|Reverse(n)| n.key.at)
                .unwrap_or(at)
                .min(at);
            self.cursor = floor;
        }
        if at >= self.cursor && at - self.cursor < WHEEL as SimTime {
            self.bucket_insert(at, entry);
        } else if at >= self.cursor {
            self.overflow.push(Reverse(HeapNode {
                key: ev.key,
                target: entry.target,
                idx,
            }));
        } else {
            // An externally injected event behind the window start (e.g.
            // `publish_at(now)` after the cursor skipped ahead through an
            // idle gap). Rare: rebuild the window at the new floor.
            self.rebuild_window(at);
            self.bucket_insert(at, entry);
        }
    }

    /// Moves every wheel entry into the overflow heap and restarts the
    /// window at `floor`. Only externally injected out-of-window events
    /// take this path.
    fn rebuild_window(&mut self, floor: SimTime) {
        debug_assert!(self.active.is_empty(), "no injection mid-dispatch");
        for b in 0..WHEEL {
            if self.wheel[b].is_empty() {
                continue;
            }
            let start = (self.cursor as usize) & (WHEEL - 1);
            let at = self.cursor + (((b + WHEEL - start) & (WHEEL - 1)) as SimTime);
            let entries = std::mem::take(&mut self.wheel[b]);
            self.wheel_len -= entries.len();
            for e in entries {
                self.overflow.push(Reverse(HeapNode {
                    key: EventKey {
                        at,
                        origin: e.origin as usize,
                        seq: e.seq,
                    },
                    target: e.target,
                    idx: e.idx,
                }));
            }
        }
        self.bitmap.iter_mut().for_each(|w| *w = 0);
        self.cursor = floor;
    }

    /// First non-empty bucket time at or after the cursor (None if the
    /// wheel is empty). Scans the bitmap word-wise, wrapping once.
    fn scan_next(&self) -> Option<SimTime> {
        if self.wheel_len == 0 {
            return None;
        }
        let start = (self.cursor as usize) & (WHEEL - 1);
        let words = self.bitmap.len();
        let mut word_idx = start / 64;
        // Mask off bits before the cursor in its word.
        let mut word = self.bitmap[word_idx] & (!0u64 << (start % 64));
        for step in 0..=words {
            if word != 0 {
                let b = word_idx * 64 + word.trailing_zeros() as usize;
                let offset = ((b + WHEEL - start) & (WHEEL - 1)) as SimTime;
                return Some(self.cursor + offset);
            }
            if step == words {
                break;
            }
            word_idx = (word_idx + 1) % words;
            word = self.bitmap[word_idx];
            if word_idx == start / 64 {
                // Wrapped to the start word: only bits before the cursor
                // remain to check (times near the window's far end).
                word &= !(!0u64 << (start % 64));
            }
        }
        None
    }

    /// Promotes overflow events that now fit the window.
    fn promote(&mut self) {
        while let Some(Reverse(node)) = self.overflow.peek() {
            if node.key.at - self.cursor >= WHEEL as SimTime {
                break;
            }
            let Reverse(node) = self.overflow.pop().expect("peeked");
            self.bucket_insert(
                node.key.at,
                WheelEntry {
                    origin: u32::try_from(node.key.origin).expect("peer ids fit u32"),
                    target: node.target,
                    seq: node.key.seq,
                    idx: node.idx,
                },
            );
        }
    }

    /// Fire time of the earliest queued event. Advances the window cursor
    /// (and promotes overflow events) as a side effect — cheap when the
    /// active bucket is non-empty, a bitmap scan otherwise.
    pub(crate) fn peek_at(&mut self) -> Option<SimTime> {
        if !self.active.is_empty() {
            return Some(self.active_at);
        }
        let wheel_next = self.scan_next();
        let over_next = self.overflow.peek().map(|Reverse(n)| n.key.at);
        let next = match (wheel_next, over_next) {
            (None, None) => return None,
            (Some(w), None) => w,
            (None, Some(o)) => o,
            (Some(w), Some(o)) => w.min(o),
        };
        // Jump is always forward (every pending event is ≥ cursor), and
        // every wheel entry stays inside the new window: entries are
        // ≥ next and < old cursor + WHEEL ≤ next + WHEEL.
        self.cursor = next;
        if over_next.is_some_and(|o| o - next < WHEEL as SimTime) {
            self.promote();
        }
        Some(next)
    }

    pub(crate) fn pop(&mut self) -> Option<QueuedEvent> {
        let at = self.peek_at()?;
        if self.active.is_empty() {
            let b = (at as usize) & (WHEEL - 1);
            self.active = std::mem::take(&mut self.wheel[b]);
            self.bitmap[b / 64] &= !(1u64 << (b % 64));
            self.wheel_len -= self.active.len();
            self.active_at = at;
            self.active_bucket = b;
            // Unique (origin, seq) per bucket: descending sort, pop from
            // the back → ascending key order.
            self.active
                .sort_unstable_by_key(|e| Reverse((e.origin, e.seq)));
        }
        let e = self.active.pop().expect("active non-empty");
        if self.active.is_empty() {
            // Recycle the drained buffer (keeps its capacity) into its
            // bucket slot — steady-state pops never allocate.
            self.wheel[self.active_bucket] = std::mem::take(&mut self.active);
        }
        let event = self.slab[e.idx as usize].take().expect("slab occupied");
        self.free.push(e.idx);
        Some(QueuedEvent {
            key: EventKey {
                at,
                origin: e.origin as usize,
                seq: e.seq,
            },
            target: e.target as usize,
            event,
        })
    }
}

/// Sentinel for "no pending event" / "no path between shards". Kept far
/// from `SimTime::MAX` so saturating adds of latencies never wrap into
/// plausible times.
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

/// One shard's work for one round: drain the shard-local heap up to the
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

/// Builds the shard-level shortest-path latency matrix (row-major
/// `dist[j * shards + i]` = minimum delay for an event leaving shard `j`
/// to arrive in shard `i`) plus the per-shard minimum round-trip
/// `cyc[i] = min_{j≠i} dist(i,j) + w(j,i)`.
///
/// Edge weight `w = max(1, latency_min_ms)` is the engine-wide floor the
/// link-latency sampler clamps to; shards without any connecting peer
/// edge get ∞ (multi-hop paths are filled in by Floyd–Warshall).
fn shard_latency_matrix(
    slots: &[PeerSlot],
    chunk: usize,
    shards: usize,
    min_link: SimTime,
) -> (Vec<SimTime>, Vec<SimTime>) {
    let mut dist = vec![FAR; shards * shards];
    let mut direct = vec![FAR; shards * shards];
    for s in 0..shards {
        dist[s * shards + s] = 0;
    }
    for (p, slot) in slots.iter().enumerate() {
        let sp = p / chunk;
        for &q in &slot.neighbors {
            let sq = q / chunk;
            if sp != sq {
                dist[sp * shards + sq] = min_link;
                direct[sp * shards + sq] = min_link;
            }
        }
    }
    for k in 0..shards {
        for j in 0..shards {
            let djk = dist[j * shards + k];
            if djk >= FAR {
                continue;
            }
            for i in 0..shards {
                let via = djk.saturating_add(dist[k * shards + i]);
                if via < dist[j * shards + i] {
                    dist[j * shards + i] = via;
                }
            }
        }
    }
    let cyc = (0..shards)
        .map(|i| {
            (0..shards)
                .filter(|&j| j != i)
                .map(|j| dist[i * shards + j].saturating_add(direct[j * shards + i]))
                .min()
                .unwrap_or(FAR)
                .min(FAR)
        })
        .collect();
    (dist, cyc)
}

/// Event-sharded engine: peers are partitioned into contiguous shards,
/// each with its own event queue; every round runs as one fork-join on
/// `waku-pool` (on the calling thread when one shard has work), bounded
/// per shard by the adaptive lookahead horizon (see module docs for the
/// correctness argument).
pub(crate) struct Scheduler {
    queues: Vec<EventQueue>,
    /// Peers per shard (the last shard may be smaller).
    chunk: usize,
    /// Shard-pair shortest-path delays (row-major `[from * shards + to]`).
    dist: Vec<SimTime>,
    /// Minimum round-trip delay through another shard, per shard.
    cyc: Vec<SimTime>,
    /// Rounds executed (the barriers-per-run metric).
    barriers: u64,
    /// Scratch: earliest pending event per shard.
    heads: Vec<SimTime>,
    /// Scratch: per-shard dispatch horizon for the current round.
    horizons: Vec<SimTime>,
}

impl Scheduler {
    /// Runs `shard_count(config.shards, slots.len())` shards. `slots`
    /// must already have their neighbor lists assigned — the adaptive
    /// horizons are derived from the cross-shard topology.
    pub(crate) fn new(config: &NetworkConfig, slots: &[PeerSlot]) -> Self {
        let peers = slots.len();
        let shards = shard_count(config.shards, peers);
        let chunk = peers.div_ceil(shards).max(1);
        let num_queues = peers.div_ceil(chunk).max(1);
        let quantum = config.latency_min_ms.max(1);
        let (dist, cyc) = shard_latency_matrix(slots, chunk, num_queues, quantum);
        Scheduler {
            queues: (0..num_queues).map(|_| EventQueue::new()).collect(),
            chunk,
            dist,
            cyc,
            barriers: 0,
            heads: vec![FAR; num_queues],
            horizons: vec![0; num_queues],
        }
    }

    /// Computes each shard's dispatch horizon from `self.heads`: the
    /// per-shard-pair Chandy–Misra bound from the cross-shard link-latency
    /// matrix. Events at exactly `t` must still run, so horizons cap at
    /// `t + 1`.
    fn compute_horizons(&mut self, t: SimTime) {
        let s = self.queues.len();
        let cap = t.saturating_add(1);
        for i in 0..s {
            let mut h = self.heads[i].saturating_add(self.cyc[i]);
            for (j, &head) in self.heads.iter().enumerate() {
                if j != i {
                    h = h.min(head.saturating_add(self.dist[j * s + i]));
                }
            }
            self.horizons[i] = h.min(cap);
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
            for (head, queue) in self.heads.iter_mut().zip(self.queues.iter_mut()) {
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

    fn qe(at: SimTime, origin: usize, seq: u64, target: usize) -> QueuedEvent {
        QueuedEvent {
            key: EventKey { at, origin, seq },
            target,
            event: SimEvent::Heartbeat,
        }
    }

    /// The wheel pops in exactly the total key order a min-heap would,
    /// for any interleaving of near (wheel) and far (overflow) times.
    #[test]
    fn event_queue_pops_in_key_order() {
        let mut q = EventQueue::new();
        // A scrambled mix: same-time bursts, far-future overflow events,
        // pushes interleaved with pops.
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

    /// Events injected behind an advanced cursor (late `publish_at`)
    /// trigger the window rebuild and still pop in order.
    #[test]
    fn event_queue_accepts_events_behind_the_cursor() {
        let mut q = EventQueue::new();
        q.push(qe(10, 0, 0, 0));
        q.push(qe(5_000, 0, 1, 0)); // beyond the wheel span → overflow
        assert_eq!(q.pop().unwrap().key.at, 10);
        // Cursor has advanced to 5 000 via peek; inject at 100.
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
        let mut s = Scheduler::new(&config, &slots);
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
            let slots = ring_slots(peers);
            let s = Scheduler::new(&with_shards(shards, 20), &slots);
            // Every peer maps to a valid queue.
            for p in 0..peers {
                assert!(
                    p / s.chunk < s.queues.len(),
                    "peers={peers} shards={shards}"
                );
            }
        }
    }

    #[test]
    fn latency_matrix_uses_multi_hop_paths() {
        // 9 peers in a ring, 3 shards of 3: shard 0 and 2 touch (ring
        // wrap), every pair is adjacent → dist = w; a line topology
        // instead isolates shards 0 and 2 by one hop through shard 1.
        let peers = 9;
        let mut slots = ring_slots(peers);
        // Break the ring into a line: 0 and 8 are no longer neighbors.
        slots[0].neighbors = vec![1];
        slots[8].neighbors = vec![7];
        let s = Scheduler::new(&with_shards(3, 20), &slots);
        let n = s.queues.len();
        assert_eq!(n, 3);
        assert_eq!(s.dist[1], 20, "adjacent shards: one hop"); // 0 → 1
        assert_eq!(s.dist[2], 40, "line ends: two hops"); // 0 → 2
        assert!(s.cyc[0] >= 40, "round trips cost at least two hops");
    }

    #[test]
    fn horizons_extend_past_the_latency_floor_when_quiet() {
        let peers = 9;
        let slots = ring_slots(peers);
        let mut s = Scheduler::new(&with_shards(3, 20), &slots);
        // Shard 0 busy at t=100; shards 1 and 2 idle until t=1000.
        s.heads = vec![100, 1_000, 1_000];
        s.compute_horizons(5_000);
        // One latency floor past the start would be 120; shard 0 runs to
        // min(1000+20, 1000+20, 100+cyc) — bounded by its own echo.
        assert!(
            s.horizons[0] > 120,
            "horizon {} should exceed one latency floor",
            s.horizons[0]
        );
        assert!(
            s.horizons[0] <= 100 + s.cyc[0],
            "bounded by the self round-trip"
        );
        // The idle shards may not advance past what shard 0 could send.
        assert_eq!(s.horizons[1], 100 + s.dist[1]);
    }
}
