//! # waku-relay
//!
//! The Waku protocol family on top of the gossip transport (paper §I).
//! 11/WAKU2-RELAY itself is `waku-gossip`'s one pubsub topic; this crate
//! holds the rest:
//!
//! * [`store`] — 13/WAKU2-STORE: history persistence + paginated queries
//!   for peers that were offline,
//! * [`storage`] — the pluggable persistence contract
//!   ([`StorageBackend`]) every history store implements, and the
//!   backend-agnostic pagination/cursor semantics,
//! * [`segment`] — the durable backend: an append-only, CRC-checked
//!   segment log with torn-tail crash recovery,
//! * [`filter`] — 12/WAKU2-FILTER: content-topic push filtering for
//!   bandwidth-restricted peers,
//! * [`message`] — the Waku message format shared by all of them.
//!
//! The spam-protected variant (the paper's contribution) composes these in
//! `waku-rln-relay`; the long-running service shape lives in `waku-node`.

pub mod filter;
pub mod message;
pub mod segment;
pub mod storage;
pub mod store;

pub use filter::{FilterService, LightPeerId};
pub use message::WakuMessage;
pub use segment::{SegmentConfig, SegmentConfigBuilder, SegmentLog};
pub use storage::{StorageBackend, StorageError};
pub use store::{Direction, HistoryQuery, HistoryResponse, MessageStore};
