//! Property-based coverage for the compact gossip caches: the
//! generational [`SeenSet`] must behave exactly like a windowed
//! `HashSet` oracle under arbitrary insert/query/rotate sequences —
//! including adversarial fingerprint collisions — and [`MessageCache`]
//! must mirror the original mcache's retention/gossip semantics.

use std::collections::HashMap;

use proptest::prelude::*;
use waku_gossip::cache::{MessageCache, SeenSet};
use waku_gossip::{Message, MessageId, TrafficClass};

/// Ids drawn from a small space to force re-inserts and near-collisions;
/// `collide` forces the 8-byte fingerprint prefix to a shared value so
/// distinct ids exercise the full-id verification path.
fn arb_id() -> impl Strategy<Value = MessageId> {
    (any::<u8>(), any::<bool>()).prop_map(|(tag, collide)| {
        let mut bytes = [0u8; 32];
        if collide {
            // Shared fingerprint prefix, distinct tail.
            bytes[..8].copy_from_slice(&0xDEAD_BEEF_u64.to_le_bytes());
            bytes[31] = tag;
        } else {
            bytes[..8].copy_from_slice(&(tag as u64 + 1).wrapping_mul(0x9E37).to_le_bytes());
            bytes[8] = tag;
        }
        MessageId(bytes)
    })
}

#[derive(Clone, Debug)]
enum Op {
    Insert(MessageId),
    Query(MessageId),
    Rotate,
}

fn arb_op() -> impl Strategy<Value = Op> {
    // 4:4:1 insert/query/rotate mix (the vendored stub has no
    // `prop_oneof!`; a mapped integer range plays the same role).
    (0u8..9, arb_id()).prop_map(|(kind, id)| match kind {
        0..=3 => Op::Insert(id),
        4..=7 => Op::Query(id),
        _ => Op::Rotate,
    })
}

/// The reference model: id → generation of (re-)insertion, expired after
/// `window` rotations exactly like the real structure.
struct Oracle {
    inserted: HashMap<MessageId, u32>,
    gen: u32,
    window: u32,
}

impl Oracle {
    fn new(window: u32) -> Self {
        Oracle {
            inserted: HashMap::new(),
            gen: 0,
            window,
        }
    }

    fn contains(&self, id: &MessageId) -> bool {
        self.inserted
            .get(id)
            .is_some_and(|&g| self.gen - g < self.window)
    }

    fn insert(&mut self, id: MessageId) -> bool {
        let fresh = !self.contains(&id);
        if fresh {
            self.inserted.insert(id, self.gen);
        }
        fresh
    }

    fn rotate(&mut self) {
        self.gen += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Every insert/query/rotate interleaving agrees with the oracle,
    // across window sizes, including colliding fingerprints.
    #[test]
    fn seen_set_equals_windowed_hashset_oracle(
        window in 1u32..6,
        ops in proptest::collection::vec(arb_op(), 1..200)
    ) {
        let mut set = SeenSet::new(window);
        let mut oracle = Oracle::new(window);
        for op in ops {
            match op {
                Op::Insert(id) => {
                    prop_assert_eq!(set.insert(&id), oracle.insert(id));
                }
                Op::Query(id) => {
                    prop_assert_eq!(set.contains(&id), oracle.contains(&id));
                }
                Op::Rotate => {
                    set.rotate();
                    oracle.rotate();
                }
            }
            prop_assert_eq!(set.len(), oracle.inserted.iter()
                .filter(|(_, &g)| oracle.gen - g < oracle.window)
                .count());
        }
    }

    // Entries are visible for exactly `window` rotations.
    #[test]
    fn window_eviction_is_exact(
        window in 1u32..8,
        ids in proptest::collection::vec(arb_id(), 1..20)
    ) {
        let mut set = SeenSet::new(window);
        for id in &ids {
            set.insert(id);
        }
        for step in 1..=window {
            set.rotate();
            let expect = step < window;
            for id in &ids {
                prop_assert_eq!(set.contains(id), expect);
            }
        }
    }

    // The mcache semantics: the open window is never gossiped, the
    // `gossip` most recent completed windows are, and only `keep`
    // completed windows stay retrievable.
    #[test]
    fn message_cache_gossip_and_retention(
        keep in 1usize..6,
        gossip in 1usize..4,
        per_window in proptest::collection::vec(0u8..8, 1..10)
    ) {
        let mut cache = MessageCache::default();
        // windows_log[w] = ids inserted during window w (oldest first).
        let mut windows_log: Vec<Vec<MessageId>> = Vec::new();
        let mut uniq = 0u64;
        for &count in &per_window {
            let mut ids = Vec::new();
            for _ in 0..count {
                uniq += 1;
                let m = Message::new(uniq.to_le_bytes().to_vec(), 0, uniq, TrafficClass::Honest);
                ids.push(m.id);
                cache.insert(std::sync::Arc::new(m));
            }
            windows_log.push(ids);
            cache.rotate(keep);
        }
        // Expected gossip: newest `gossip` completed windows, newest
        // first — capped by retention (only `keep` windows exist), just
        // like the original mcache's truncate-then-gossip.
        let expected: Vec<MessageId> = windows_log
            .iter()
            .rev()
            .take(gossip.min(keep))
            .flat_map(|w| w.iter().copied())
            .collect();
        match cache.gossip_ids(gossip) {
            Some(got) => prop_assert_eq!(got.to_vec(), expected),
            None => prop_assert!(expected.is_empty()),
        }
        // Expected retention: newest `keep` completed windows.
        for (age, ids) in windows_log.iter().rev().enumerate() {
            let retained = age < keep;
            for id in ids {
                prop_assert_eq!(cache.find(id).is_some(), retained);
            }
        }
    }
}
