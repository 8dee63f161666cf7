//! Compact, generational message caches for the gossip hot path.
//!
//! At 10⁴ peers the engine's profile is dominated by duplicate
//! suppression: every peer receives every message `~d` times, and each
//! copy used to pay a SipHash over a 32-byte [`MessageId`] plus a probe
//! into an ever-growing `HashSet`, while every heartbeat re-scanned the
//! whole mcache to collect gossip ids. This module replaces both with
//! cache-line-friendly, allocation-free-in-steady-state structures:
//!
//! * [`SeenSet`] — an open-addressed **generational** table: a cache-
//!   line-aligned id array probed by a 64-bit fingerprint of the
//!   (keccak-derived, uniformly distributed) message id, paired with a
//!   dense `u32` generation array. The set rotates once per heartbeat;
//!   entries expire lazily after a configurable window of generations
//!   and their slots are reclaimed in place — steady-state inserts never
//!   allocate, and the table never grows past the live window's
//!   footprint.
//! * [`MessageCache`] — the mcache as one ring of heartbeat windows,
//!   each with a contiguous id side-array, so heartbeat gossip is a
//!   memcpy instead of a scan-and-filter over every cached message, and
//!   the assembled id list is shared as one `Arc<[MessageId]>` across
//!   all `d_lazy` IHAVE sends.
//!
//! Both structures are strictly per-peer (the engine's share-nothing
//! rule), and every operation is a pure function of the peer's event
//! history, so runs stay bit-identical at any shard count.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::message::{Message, MessageId};

/// 64-bit fingerprint of a message id: the leading 8 bytes. Ids are
/// keccak256 outputs, so the prefix is already uniform — no extra mixing
/// is needed for distribution, only for slot indexing (see [`slot_of`]).
#[inline]
fn fingerprint(id: &MessageId) -> u64 {
    u64::from_le_bytes(id.0[..8].try_into().expect("8-byte prefix"))
}

/// Fibonacci-hash the fingerprint into a table of `1 << log2_cap` slots.
#[inline]
fn slot_of(fp: u64, shift: u32) -> usize {
    (fp.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
}

const EMPTY_GEN: u32 = 0;
/// Initial table capacity (power of two).
const MIN_CAP: usize = 64;

/// Generational duplicate-suppression set (the per-peer `seen` cache).
///
/// Semantics: an id [`SeenSet::insert`]ed at generation `g` answers
/// [`SeenSet::contains`] with `true` until `window` calls to
/// [`SeenSet::rotate`] have passed (i.e. while `current_gen - g <
/// window`), then expires. The engine rotates once per heartbeat with a
/// window comfortably larger than the mcache lifetime, so no message can
/// outlive its own gossipability and sneak back in as "new".
///
/// Layout: two parallel open-addressed arrays — a 32-byte-aligned id
/// array (each id sits inside one cache line, so a successful probe
/// touches exactly one line of bulk data) and a dense `u32` generation
/// array (4 KB at steady-state capacity — effectively free). At 10⁴
/// peers every IHAVE scan probes ~90 ids against a cold table; one line
/// per probe instead of slot-plus-arena halves the memory traffic of
/// the engine's single hottest loop. Expiry is lazy: rotation just bumps
/// the generation counter, and stale slots are reclaimed by probe-path
/// reuse or the occasional rebuild.
pub struct SeenSet {
    /// Slot → id (meaningful only where `gens[slot]` is live).
    ids: Vec<MessageId>,
    /// Slot → insertion generation (0 = never used).
    gens: Vec<u32>,
    /// `64 - log2(capacity)` — the Fibonacci-hash shift.
    shift: u32,
    /// Occupied slots (live + expired-but-unreclaimed).
    occupied: usize,
    /// Current generation (starts at 1; 0 marks empty slots).
    gen: u32,
    /// Generations an entry stays visible.
    window: u32,
}

impl SeenSet {
    /// Creates a set whose entries survive `window` rotations (≥ 1).
    pub fn new(window: u32) -> Self {
        SeenSet {
            ids: vec![MessageId([0; 32]); MIN_CAP],
            gens: vec![EMPTY_GEN; MIN_CAP],
            shift: 64 - MIN_CAP.trailing_zeros(),
            occupied: 0,
            gen: 1,
            window: window.max(1),
        }
    }

    #[inline]
    fn is_live(&self, slot_gen: u32) -> bool {
        slot_gen != EMPTY_GEN && self.gen.wrapping_sub(slot_gen) < self.window
    }

    /// Is `id` currently remembered?
    #[inline]
    pub fn contains(&self, id: &MessageId) -> bool {
        let mask = self.gens.len() - 1;
        let mut i = slot_of(fingerprint(id), self.shift);
        loop {
            let idx = i & mask;
            let slot_gen = self.gens[idx];
            if slot_gen == EMPTY_GEN {
                return false;
            }
            // Full-id comparison — colliding fingerprints are never
            // conflated; the first-8-byte mismatch rejects fast.
            if self.ids[idx] == *id && self.is_live(slot_gen) {
                return true;
            }
            i += 1;
        }
    }

    /// Inserts `id` at the current generation. Returns `true` if it was
    /// not already live. (Expired duplicates re-insert as fresh entries.)
    pub fn insert(&mut self, id: &MessageId) -> bool {
        if (self.occupied + 1) * 4 > self.gens.len() * 3 {
            self.rebuild();
        }
        let mask = self.gens.len() - 1;
        let mut i = slot_of(fingerprint(id), self.shift);
        // First expired slot on the probe path — reusable without
        // breaking any live entry's probe chain (chains only terminate at
        // truly empty slots).
        let mut reuse: Option<usize> = None;
        let target = loop {
            let idx = i & mask;
            let slot_gen = self.gens[idx];
            if slot_gen == EMPTY_GEN {
                break reuse.unwrap_or(idx);
            }
            if self.is_live(slot_gen) {
                if self.ids[idx] == *id {
                    return false;
                }
            } else if reuse.is_none() {
                reuse = Some(idx);
            }
            i += 1;
        };
        if self.gens[target] == EMPTY_GEN {
            self.occupied += 1;
        }
        self.ids[target] = *id;
        self.gens[target] = self.gen;
        true
    }

    /// Advances one generation: entries inserted `window` rotations ago
    /// expire (lazily — no per-entry work, no allocation).
    pub fn rotate(&mut self) {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == EMPTY_GEN {
            // u32 wrap (≈ 4 billion heartbeats): restart cleanly rather
            // than let generation 0 alias the empty marker.
            self.gens.iter_mut().for_each(|g| *g = EMPTY_GEN);
            self.occupied = 0;
            self.gen = 1;
        }
    }

    /// Number of live entries (O(capacity) — diagnostics and tests).
    pub fn len(&self) -> usize {
        self.gens.iter().filter(|&&g| self.is_live(g)).count()
    }

    /// True when no entry is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current table capacity in slots (diagnostics and tests).
    pub fn capacity(&self) -> usize {
        self.gens.len()
    }

    /// Rehashes live entries into a table sized for ≤ 50% load, dropping
    /// expired slots.
    fn rebuild(&mut self) {
        let live: Vec<(MessageId, u32)> = self
            .gens
            .iter()
            .zip(&self.ids)
            .filter(|(&g, _)| self.is_live(g))
            .map(|(&g, id)| (*id, g))
            .collect();
        let cap = (live.len() * 2 + 1).next_power_of_two().max(MIN_CAP);
        self.ids = vec![MessageId([0; 32]); cap];
        self.gens = vec![EMPTY_GEN; cap];
        self.shift = 64 - cap.trailing_zeros();
        self.occupied = live.len();
        let mask = cap - 1;
        for (id, g) in live {
            let mut i = slot_of(fingerprint(&id), self.shift);
            while self.gens[i & mask] != EMPTY_GEN {
                i += 1;
            }
            self.ids[i & mask] = id;
            self.gens[i & mask] = g;
        }
    }
}

/// One heartbeat window of the mcache: the messages that arrived in that
/// window plus a contiguous side-array of their ids (the gossip hot path
/// only needs ids, and a dense copy beats striding through `Message`
/// structs).
#[derive(Default)]
struct CacheWindow {
    msgs: Vec<Arc<Message>>,
    ids: Vec<MessageId>,
}

impl CacheWindow {
    fn clear(&mut self) {
        self.msgs.clear();
        self.ids.clear();
    }
}

/// The per-peer mcache: one ring of heartbeat windows. `windows[0]` is
/// the **open** window (messages accepted since the last heartbeat);
/// `windows[1..]` are completed windows, newest first — the gossip /
/// retrieval range.
#[derive(Default)]
pub struct MessageCache {
    windows: VecDeque<CacheWindow>,
}

impl MessageCache {
    /// Caches a message in the open window.
    pub fn insert(&mut self, message: Arc<Message>) {
        if self.windows.is_empty() {
            self.windows.push_front(CacheWindow::default());
        }
        let window = &mut self.windows[0];
        window.ids.push(message.id);
        window.msgs.push(message);
    }

    /// Looks a message up by id across every window (IWANT service). Ids
    /// are content-derived and unique, so scan order does not matter;
    /// windows are newest-first, matching the old mcache.
    pub fn find(&self, id: &MessageId) -> Option<&Arc<Message>> {
        self.windows
            .iter()
            .flat_map(|w| w.msgs.iter())
            .find(|m| m.id == *id)
    }

    /// Ids to gossip: every message in the most recent `gossip_windows`
    /// **completed** windows (the open window is not gossiped — it
    /// rotates first, exactly like the original mcache). Returns `None`
    /// when there is nothing to advertise; the `Arc` is shared across all
    /// IHAVE sends of one heartbeat.
    pub fn gossip_ids(&self, gossip_windows: usize) -> Option<Arc<[MessageId]>> {
        let gossiped = || self.windows.iter().skip(1).take(gossip_windows);
        let total: usize = gossiped().map(|w| w.ids.len()).sum();
        if total == 0 {
            return None;
        }
        let mut out = Vec::with_capacity(total);
        for w in gossiped() {
            out.extend_from_slice(&w.ids);
        }
        Some(out.into())
    }

    /// Heartbeat rotation: the open window is sealed and a new one
    /// opened; at most `keep` completed windows are retained. The oldest
    /// window's buffers are recycled into the new open window, so
    /// steady-state rotation does not allocate.
    pub fn rotate(&mut self, keep: usize) {
        let fresh = if self.windows.len() > keep {
            let mut recycled = self.windows.pop_back().expect("non-empty");
            recycled.clear();
            // Drop any further excess (keep shrank mid-run).
            self.windows.truncate(keep);
            recycled
        } else {
            CacheWindow::default()
        };
        self.windows.push_front(fresh);
    }

    /// Total cached messages across windows (diagnostics).
    pub fn len(&self) -> usize {
        self.windows.iter().map(|w| w.msgs.len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::TrafficClass;

    fn id(byte: u8) -> MessageId {
        MessageId([byte; 32])
    }

    /// Two ids with identical 64-bit fingerprints but different tails.
    fn colliding_pair() -> (MessageId, MessageId) {
        let mut a = [7u8; 32];
        let mut b = [7u8; 32];
        a[31] = 1;
        b[31] = 2;
        (MessageId(a), MessageId(b))
    }

    #[test]
    fn insert_then_contains() {
        let mut s = SeenSet::new(4);
        assert!(!s.contains(&id(1)));
        assert!(s.insert(&id(1)));
        assert!(s.contains(&id(1)));
        assert!(!s.insert(&id(1)), "second insert reports duplicate");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn entries_expire_after_window_rotations() {
        let mut s = SeenSet::new(3);
        s.insert(&id(9));
        for _ in 0..2 {
            s.rotate();
            assert!(s.contains(&id(9)), "still inside the window");
        }
        s.rotate();
        assert!(!s.contains(&id(9)), "expired after `window` rotations");
        // Expired ids re-insert as fresh.
        assert!(s.insert(&id(9)));
        assert!(s.contains(&id(9)));
    }

    #[test]
    fn colliding_fingerprints_stay_distinct() {
        let (a, b) = colliding_pair();
        assert_eq!(
            super::fingerprint(&a),
            super::fingerprint(&b),
            "test ids must actually collide"
        );
        let mut s = SeenSet::new(4);
        assert!(s.insert(&a));
        assert!(!s.contains(&b), "collision must not alias");
        assert!(s.insert(&b));
        assert!(s.contains(&a) && s.contains(&b));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn growth_preserves_membership() {
        let mut s = SeenSet::new(2);
        let ids: Vec<MessageId> = (0..500u16)
            .map(|i| {
                let mut bytes = [0u8; 32];
                bytes[..2].copy_from_slice(&i.to_le_bytes());
                bytes[31] = 0xAB;
                MessageId(bytes)
            })
            .collect();
        for i in &ids {
            assert!(s.insert(i));
        }
        assert!(s.capacity() >= 512, "table grew");
        for i in &ids {
            assert!(s.contains(i));
        }
        assert_eq!(s.len(), ids.len());
    }

    #[test]
    fn expired_slots_are_reused_without_breaking_chains() {
        let mut s = SeenSet::new(1); // every rotation expires everything
        for round in 0..50u8 {
            for k in 0..40u8 {
                s.insert(&{
                    let mut b = [0u8; 32];
                    b[0] = round;
                    b[1] = k;
                    MessageId(b)
                });
            }
            s.rotate();
        }
        // With window 1 and ≤ 40 live entries, the table must not have
        // ballooned: rebuilds reclaim expired slots.
        assert!(s.capacity() <= 256, "capacity {} runaway", s.capacity());
    }

    fn msg(tag: u8) -> Arc<Message> {
        Arc::new(Message::new(vec![tag], 0, tag as u64, TrafficClass::Honest))
    }

    #[test]
    fn open_window_is_not_gossiped_until_rotated() {
        let mut c = MessageCache::default();
        let m = msg(1);
        let mid = m.id;
        c.insert(m);
        assert!(c.gossip_ids(3).is_none(), "open window not advertised");
        c.rotate(5);
        let ids = c.gossip_ids(3).expect("advertised after rotation");
        assert_eq!(&*ids, &[mid]);
        assert!(c.find(&mid).is_some(), "still retrievable");
    }

    #[test]
    fn gossip_range_and_retention_match_mcache_semantics() {
        let mut c = MessageCache::default();
        let mut ids = Vec::new();
        // One message per window, 8 windows.
        for tag in 0..8u8 {
            let m = msg(tag);
            ids.push(m.id);
            c.insert(m);
            c.rotate(5);
        }
        // Gossip = 3 newest completed windows: tags 7, 6, 5 (newest first).
        let gossip = c.gossip_ids(3).expect("gossip ids");
        assert_eq!(&*gossip, &[ids[7], ids[6], ids[5]]);
        // Retention = 5 completed windows: tags 3..=7 retrievable, 0..=2 gone.
        for (tag, id) in ids.iter().enumerate() {
            assert_eq!(c.find(id).is_some(), tag >= 3, "tag {tag}");
        }
    }
}
