//! The pluggable persistence layer behind 13/WAKU2-STORE.
//!
//! [`StorageBackend`] is the contract every history store satisfies:
//! append-only ingestion, timestamp-range scans, truncation, and a
//! durability flush. The store/filter layers (and the `waku-node`
//! service) program against this trait, so the same relayer runs on the
//! bounded in-memory ring ([`crate::MessageStore`]) or on the
//! crash-recoverable append-only segment log ([`crate::SegmentLog`])
//! without code changes.
//!
//! ## Pagination contract
//!
//! [`StorageBackend::query`] answers [`HistoryQuery`]s with the same
//! cursor semantics on every backend (the cursor belongs to the *trait*,
//! not to any concrete store):
//!
//! * the matching sequence is every stored message passing the query's
//!   content-topic and timestamp filters, sorted by timestamp (stable —
//!   insertion order breaks ties), reversed for
//!   [`Direction::Backward`];
//! * `cursor` is an index into that matching sequence: `None` (or 0)
//!   starts at the beginning, the `next_cursor` of a response resumes
//!   exactly where the previous page ended;
//! * a cursor at or past the end of the sequence yields an empty page
//!   with `next_cursor = None` — it is never an error;
//! * `page_size == 0` means the default page of 20.
//!
//! Cursors are positions, not message identities: a backend that evicts
//! messages between two queries may shift the sequence under a held
//! cursor. Callers that need exactly-once pagination should drain pages
//! promptly (the RFC accepts the same caveat).

use crate::message::WakuMessage;
use crate::store::{Direction, HistoryQuery, HistoryResponse};

/// Errors surfaced by storage backends.
///
/// `#[non_exhaustive]`: new failure classes (e.g. quota exhaustion) may
/// be added without a breaking release; match with a wildcard arm.
#[non_exhaustive]
#[derive(Debug)]
pub enum StorageError {
    /// An underlying I/O operation failed.
    Io(std::io::Error),
    /// A message was refused because its encoded record would exceed
    /// the backend's per-record size limit; nothing was written.
    RecordTooLarge {
        /// The encoded message's size.
        bytes: usize,
    },
    /// A configuration invariant was violated at build time
    /// (zero capacity, zero segment size, …).
    InvalidConfig(&'static str),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage I/O failed: {e}"),
            StorageError::RecordTooLarge { bytes } => {
                write!(f, "a {bytes}-byte message exceeds the record size limit")
            }
            StorageError::InvalidConfig(what) => write!(f, "invalid storage config: {what}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// A message-history store the relay/store/filter layers can run on.
///
/// Implementations persist messages in **insertion order** and answer
/// timestamp-range scans over them. Durability is backend-defined: the
/// in-memory ring's [`flush`](StorageBackend::flush) is a no-op, the
/// segment log's makes everything appended so far crash-survivable.
///
/// Query answering ([`StorageBackend::query`]) is a provided method with
/// backend-independent semantics — see the [module docs](self) for the
/// cursor contract.
pub trait StorageBackend {
    /// Appends one message. Bounded backends evict their oldest message
    /// once at capacity (so `append` on a full store still succeeds).
    fn append(&mut self, message: WakuMessage) -> Result<(), StorageError>;

    /// Number of live (queryable) messages.
    fn len(&self) -> usize;

    /// True when no live messages are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visits every live message whose timestamp lies in
    /// `[start, end]` (either bound optional), in insertion order.
    fn scan_range(&self, start: Option<u64>, end: Option<u64>, visit: &mut dyn FnMut(&WakuMessage));

    /// Makes all appended messages durable (no-op for pure in-memory
    /// backends).
    fn flush(&mut self) -> Result<(), StorageError>;

    /// Answers a paginated history query with the trait-level cursor
    /// semantics (see the [module docs](self)).
    fn query(&self, q: &HistoryQuery) -> HistoryResponse {
        let page_size = if q.page_size == 0 { 20 } else { q.page_size } as usize;
        let mut matching: Vec<WakuMessage> = Vec::new();
        self.scan_range(q.start_time, q.end_time, &mut |m| {
            if q.content_topics.is_empty() || q.content_topics.contains(&m.content_topic) {
                matching.push(m.clone());
            }
        });
        matching.sort_by_key(|m| m.timestamp);
        if q.direction == Direction::Backward {
            matching.reverse();
        }
        let start = q.cursor.unwrap_or(0) as usize;
        let page: Vec<WakuMessage> = matching
            .iter()
            .skip(start)
            .take(page_size)
            .cloned()
            .collect();
        let consumed = start.min(matching.len()) + page.len();
        let next_cursor = if consumed < matching.len() {
            Some(consumed as u64)
        } else {
            None
        };
        HistoryResponse {
            messages: page,
            next_cursor,
        }
    }
}
