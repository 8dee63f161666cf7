//! The per-peer message caches of the gossip hot path.
//!
//! * [`SeenSet`] — duplicate suppression: a `HashMap` from message id to
//!   the generation it was inserted at, under `waku_hash::PrefixState`
//!   (ids are keccak outputs, so their first 8 bytes already hash well).
//!   The set rotates once per heartbeat; an entry reads as absent once it
//!   is a window of generations old, and expired entries are swept out
//!   before the map would grow, so the table stays the size of the live
//!   window.
//! * [`MessageCache`] — the mcache as one ring of heartbeat windows,
//!   each with a contiguous id side-array, so heartbeat gossip is a
//!   memcpy instead of a scan-and-filter over every cached message, and
//!   the assembled id list is shared as one `Arc<[MessageId]>` across
//!   all `d_lazy` IHAVE sends.
//!
//! Both structures are strictly per-peer (the engine's share-nothing
//! rule), and every answer is a pure function of the peer's event
//! history, so runs stay bit-identical at any shard count.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use waku_hash::PrefixState;

use crate::message::{Message, MessageId};

/// Rotations between two sweeps that run whatever the map's load: every
/// entry is gone within this many rotations of expiring, so its age never
/// reaches 2¹⁶ and the `u16` generation arithmetic never reads it as live
/// again (for windows up to this value).
const SWEEP_EVERY: u16 = 1 << 15;

/// Generational duplicate-suppression set (the per-peer `seen` cache).
///
/// Semantics: an id [`SeenSet::insert`]ed at generation `g` answers
/// [`SeenSet::contains`] with `true` until `window` calls to
/// [`SeenSet::rotate`] have passed (i.e. while `current_gen - g <
/// window`), then expires. The engine rotates once per heartbeat with a
/// window comfortably larger than the mcache lifetime, so no message can
/// outlive its own gossipability and sneak back in as "new".
pub struct SeenSet {
    /// Id → the generation it was last inserted at.
    map: HashMap<MessageId, u16, PrefixState>,
    /// Current generation.
    gen: u16,
    /// Generations an entry stays visible.
    window: u16,
}

impl SeenSet {
    /// Creates a set whose entries survive `window` rotations (clamped to
    /// 1..=2¹⁵).
    pub fn new(window: u32) -> Self {
        SeenSet {
            map: HashMap::default(),
            gen: 0,
            window: window.clamp(1, u32::from(SWEEP_EVERY)) as u16,
        }
    }

    #[inline]
    fn is_live(&self, inserted: u16) -> bool {
        self.gen.wrapping_sub(inserted) < self.window
    }

    /// Is `id` currently remembered?
    #[inline]
    pub fn contains(&self, id: &MessageId) -> bool {
        self.map.get(id).is_some_and(|&g| self.is_live(g))
    }

    /// Inserts `id` at the current generation. Returns `true` if it was
    /// not already live. (Expired duplicates re-insert as fresh entries.)
    pub fn insert(&mut self, id: &MessageId) -> bool {
        if self.contains(id) {
            return false;
        }
        if self.map.len() == self.map.capacity() {
            self.sweep();
        }
        self.map.insert(*id, self.gen);
        true
    }

    /// Advances one generation: entries inserted `window` rotations ago
    /// expire (lazily — no per-entry work but the sweep every
    /// 2¹⁵ rotations).
    pub fn rotate(&mut self) {
        self.gen = self.gen.wrapping_add(1);
        if self.gen.is_multiple_of(SWEEP_EVERY) {
            self.sweep();
        }
    }

    /// Number of live entries (O(capacity) — diagnostics and tests).
    pub fn len(&self) -> usize {
        self.map.values().filter(|&&g| self.is_live(g)).count()
    }

    /// True when no entry is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries the table holds before it next sweeps (diagnostics and
    /// tests).
    pub fn capacity(&self) -> usize {
        self.map.capacity()
    }

    /// Drops every expired entry; runs when the map is full, before it
    /// would grow, and every `SWEEP_EVERY` rotations. A sweep that
    /// expires nothing leaves the map as it is. One that leaves at most ¾
    /// of the map's room live rebuilds it at the same room from the live
    /// entries: `retain` would leave its erased slots as tombstones, and
    /// std's map rehashes in place only while at most 7/16 of its buckets
    /// are live, so the next insert would double a table that has room.
    fn sweep(&mut self) {
        let live = self.len();
        if live == self.map.len() {
            return;
        }
        let is_live = |g: u16| self.gen.wrapping_sub(g) < self.window;
        let room = self.map.capacity();
        if 4 * live <= 3 * room {
            let mut map = HashMap::with_capacity_and_hasher(room, *self.map.hasher());
            map.extend(self.map.iter().filter(|(_, &g)| is_live(g)));
            self.map = map;
        } else {
            self.map.retain(|_, &mut g| is_live(g));
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

    /// Two ids with the same first 8 bytes but different tails.
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
    fn colliding_prefixes_stay_distinct() {
        use std::hash::BuildHasher;
        let (a, b) = colliding_pair();
        let state = PrefixState::default();
        assert_eq!(
            state.hash_one(a),
            state.hash_one(b),
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
        assert!(s.capacity() >= ids.len(), "table grew");
        for i in &ids {
            assert!(s.contains(i));
        }
        assert_eq!(s.len(), ids.len());
    }

    #[test]
    fn expired_entries_are_swept_before_the_table_grows() {
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
        // With window 1 at most 40 entries are live, a full table sweeps
        // before it grows, and std's map grows only while over half its
        // room is live: the table never outgrows room for 2 × 40.
        let bound = HashMap::<MessageId, u16>::with_capacity(2 * 40).capacity();
        assert!(s.capacity() <= bound, "capacity {} runaway", s.capacity());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn churn_under_a_thousand_live_ids_keeps_the_table_at_its_size() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(47);
        let mut s = SeenSet::new(10);
        let mut peak = 0;
        for _ in 0..200 {
            for _ in 0..100 {
                assert!(s.insert(&MessageId(rng.gen())));
                peak = peak.max(s.capacity());
            }
            s.rotate();
        }
        // At most 10 × 100 ids are live. Swept with `retain`, the table's
        // tombstones doubled it to room for 3 584 entries.
        let bound = HashMap::<MessageId, u16>::with_capacity(1000).capacity();
        assert!(peak <= bound, "peak capacity {peak} above {bound}");
        // The last rotation expired the oldest hundred.
        assert_eq!(s.len(), 900);
    }

    #[test]
    fn an_expired_entry_never_reads_live_again_across_the_wrap() {
        let mut s = SeenSet::new(3);
        s.insert(&id(5));
        // 2¹⁶ rotations bring the u16 generation back to the insert's.
        for step in 1..=1u32 << 16 {
            s.rotate();
            assert_eq!(s.contains(&id(5)), step < 3, "step {step}");
        }
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
