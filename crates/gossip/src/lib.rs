//! # waku-gossip
//!
//! A deterministic discrete-event simulation of a GossipSub network — the
//! transport substrate of WAKU-RELAY (paper §I: "a thin layer over the
//! libp2p GossipSub routing protocol").
//!
//! * [`network`] — the simulator facade: latency, clock drift, topology,
//!   the GossipSub mesh/heartbeat/IHAVE-IWANT machinery, and per-class
//!   delivery accounting.
//! * [`engine`] — per-peer event-processing core: each peer owns its
//!   protocol state, a private RNG stream, and a private event-sequence
//!   counter, so no mutable state is shared across peers.
//! * [`scheduler`] — the one event scheduler: an event-sharded engine
//!   over per-shard calendar queues that runs each round as a fork-join
//!   on `waku-pool`, bounded by per-shard Chandy–Misra horizons on the
//!   link-latency floor, exchanging cross-shard RPCs through outboxes
//!   drained at round barriers. At one shard it is the serial reference
//!   (`NetworkConfig::shards`).
//! * [`cache`] — the per-peer message caches: the generational
//!   duplicate-suppression set and the mcache window ring behind the
//!   10⁴-peer hot path.
//! * [`faults`] — the deterministic fault-injection plane: seeded link
//!   drop/duplicate/jitter/reorder, scheduled partitions with healing,
//!   peer crash/restart timelines, and clock-skew steps, all drawn from
//!   event-keyed streams so faulty runs stay bit-identical across shard
//!   counts.
//! * [`scoring`] — the peer-scoring defense (gossipsub v1.1, reference \[2\])
//!   that the paper both compares against and composes with.
//! * [`message`] — message/RPC types and the `Validator` verdicts that the
//!   RLN validation pipeline plugs into (§III-F).
//!
//! Every peer relays one pubsub topic, the one an RLN group guards
//! (§III-F), so meshes, caches and RPCs carry no topic key.
//!
//! Every run is seeded and reproducible — **bit-identical across shard
//! counts and pool sizes**; experiment binaries in `waku-bench` and the
//! equivalence tests rely on that.

pub mod cache;
pub mod engine;
pub mod faults;
mod instrument;
pub mod message;
pub mod network;
pub mod scheduler;
pub mod scoring;

pub use faults::{CrashSpec, FaultPlan, LinkFaults, PartitionSpec, SkewSpec};
pub use message::{Message, MessageId, PeerId, Rpc, SimTime, TrafficClass, Validation};
pub use network::{
    ConfigError, DeliveryRecord, MessageAcceptor, Network, NetworkConfig, NetworkConfigBuilder,
    Validator,
};
pub use scoring::PeerScore;
