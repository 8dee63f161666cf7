//! 13/WAKU2-STORE: resourceful peers persist message history and answer
//! paginated queries from peers that were offline (paper §I).
//!
//! [`MessageStore`] is the bounded in-memory backend; it implements
//! [`StorageBackend`] like every other store, so relayers swap it for
//! the durable [`crate::SegmentLog`] without touching query code. The
//! pagination/cursor contract lives on the trait (see
//! [`crate::storage`]), not on any concrete store.

use std::collections::VecDeque;

use crate::message::WakuMessage;
use crate::storage::{StorageBackend, StorageError};

/// Query direction.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum Direction {
    /// Oldest first.
    #[default]
    Forward,
    /// Newest first.
    Backward,
}

/// A history query (a subset of the RFC's `HistoryQuery`).
#[derive(Clone, Debug, Default)]
pub struct HistoryQuery {
    /// Match only these content topics (empty = all).
    pub content_topics: Vec<String>,
    /// Inclusive lower timestamp bound.
    pub start_time: Option<u64>,
    /// Inclusive upper timestamp bound.
    pub end_time: Option<u64>,
    /// Resume from this cursor (index into the matching sequence).
    pub cursor: Option<u64>,
    /// Maximum messages per page (0 = default of 20).
    pub page_size: u64,
    /// Pagination direction.
    pub direction: Direction,
}

/// A page of history.
#[derive(Clone, Debug)]
pub struct HistoryResponse {
    /// The messages in this page.
    pub messages: Vec<WakuMessage>,
    /// Cursor to pass in the next query, or `None` when exhausted.
    pub next_cursor: Option<u64>,
}

/// A bounded in-memory message store.
#[derive(Clone, Debug)]
pub struct MessageStore {
    capacity: usize,
    messages: VecDeque<WakuMessage>,
}

impl MessageStore {
    /// Creates a store bounded to `capacity` messages (oldest evicted).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "store capacity must be positive");
        MessageStore {
            capacity,
            messages: VecDeque::new(),
        }
    }

    /// Number of stored messages.
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }

    /// Persists a message (evicting the oldest at capacity).
    pub fn insert(&mut self, message: WakuMessage) {
        if self.messages.len() == self.capacity {
            self.messages.pop_front();
        }
        self.messages.push_back(message);
    }

    /// Answers a paginated history query (the [`StorageBackend::query`]
    /// provided method, kept as an inherent method so callers need not
    /// import the trait).
    pub fn query(&self, q: &HistoryQuery) -> HistoryResponse {
        StorageBackend::query(self, q)
    }
}

impl StorageBackend for MessageStore {
    fn append(&mut self, message: WakuMessage) -> Result<(), StorageError> {
        self.insert(message);
        Ok(())
    }

    fn len(&self) -> usize {
        self.messages.len()
    }

    fn scan_range(
        &self,
        start: Option<u64>,
        end: Option<u64>,
        visit: &mut dyn FnMut(&WakuMessage),
    ) {
        for m in &self.messages {
            if start.is_none_or(|s| m.timestamp >= s) && end.is_none_or(|e| m.timestamp <= e) {
                visit(m);
            }
        }
    }

    /// No-op: the ring is memory-only; durability is the
    /// [`crate::SegmentLog`]'s job.
    fn flush(&mut self) -> Result<(), StorageError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with(n: u64) -> MessageStore {
        let mut s = MessageStore::new(1000);
        for i in 0..n {
            let topic = if i % 2 == 0 { "/a" } else { "/b" };
            s.insert(WakuMessage::new(vec![i as u8], topic, 100 + i));
        }
        s
    }

    #[test]
    fn insert_and_query_all() {
        let s = store_with(5);
        let r = s.query(&HistoryQuery::default());
        assert_eq!(r.messages.len(), 5);
        assert!(r.next_cursor.is_none());
    }

    #[test]
    fn content_topic_filter() {
        let s = store_with(10);
        let r = s.query(&HistoryQuery {
            content_topics: vec!["/a".into()],
            ..Default::default()
        });
        assert_eq!(r.messages.len(), 5);
        assert!(r.messages.iter().all(|m| m.content_topic == "/a"));
    }

    #[test]
    fn time_range_filter() {
        let s = store_with(10);
        let r = s.query(&HistoryQuery {
            start_time: Some(103),
            end_time: Some(106),
            ..Default::default()
        });
        assert_eq!(r.messages.len(), 4);
    }

    #[test]
    fn pagination_walks_everything() {
        let s = store_with(50);
        let mut collected = Vec::new();
        let mut cursor = None;
        loop {
            let r = s.query(&HistoryQuery {
                cursor,
                page_size: 7,
                ..Default::default()
            });
            collected.extend(r.messages);
            match r.next_cursor {
                Some(c) => cursor = Some(c),
                None => break,
            }
        }
        assert_eq!(collected.len(), 50);
        // sorted by timestamp
        assert!(collected
            .windows(2)
            .all(|w| w[0].timestamp <= w[1].timestamp));
    }

    #[test]
    fn backward_direction() {
        let s = store_with(5);
        let r = s.query(&HistoryQuery {
            direction: Direction::Backward,
            ..Default::default()
        });
        assert_eq!(r.messages[0].timestamp, 104);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut s = MessageStore::new(3);
        for i in 0..5u64 {
            s.insert(WakuMessage::new(vec![], "/t", i));
        }
        assert_eq!(s.len(), 3);
        let r = s.query(&HistoryQuery::default());
        assert_eq!(r.messages[0].timestamp, 2, "oldest two evicted");
    }
}
