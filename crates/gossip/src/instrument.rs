//! The gossip engine's metric catalogue (see `waku-metrics`).
//!
//! Two layouts, two recording scopes:
//!
//! * the **per-peer** catalogue ([`engine_catalogue`]) is recorded by each
//!   [`crate::engine::PeerSlot`]'s own `LocalRecorder` during dispatch —
//!   deterministic values only (event counts, deliveries, verdicts,
//!   bytes, sim-time dwell), so merged snapshots are bit-identical at any
//!   shard count. It is the engine's only tally: no per-peer struct
//!   counts the same facts beside it;
//! * the **network-level** catalogue ([`network_catalogue`]) holds what
//!   no single peer counts, filled at snapshot time from the scheduler
//!   and the fault plan. The scheduler series carry the `engine_` prefix
//!   because they depend on the shard count (shards, and barriers: one
//!   per round) — equivalence tests filter that prefix before comparing
//!   snapshots.
//!
//! Recording costs on the hot path: two counter increments per dispatched
//! event (the event total and its kind), one byte counter per send and
//! per receive, one increment per
//! validation verdict, and one `leading_zeros` bucket index per scheduled
//! event — noise against the ~µs dispatch budget (`gossip.ns_per_event`
//! in `BENCHMARK.json`).

use std::sync::{Arc, OnceLock};

use waku_metrics::{CounterId, GaugeFold, GaugeId, HistogramId, Layout, LayoutBuilder};

/// Typed ids into the per-peer engine catalogue.
pub(crate) struct EngineIds {
    /// Every dispatched event.
    pub events: CounterId,
    /// Local-publish events.
    pub publishes: CounterId,
    /// Heartbeat events.
    pub heartbeats: CounterId,
    /// RPC delivery events.
    pub rpcs: CounterId,
    /// Scheduled delay of each peer-originated event (sim-time ms): the
    /// time an event sits in the queue between being minted and firing.
    pub dwell: HistogramId,
    /// Messages dropped by the fault plane: link drops, partition cuts,
    /// and RPCs addressed to a crashed peer. Carries the `engine_` prefix
    /// the ISSUE names it by, but unlike the scheduler gauges it IS
    /// deterministic (event-keyed fault streams) — the fault-plane
    /// equivalence tests assert its cross-scheduler equality explicitly.
    pub dropped_fault: CounterId,
    /// Restart events dispatched (peer rejoined after a scheduled crash).
    pub restarts: CounterId,
    /// Bytes sent, all RPCs (duplicated fault transmissions count).
    pub bytes_sent: CounterId,
    /// Bytes received, all RPCs.
    pub bytes_received: CounterId,
    /// Validator invocations (cost proxy — each one is a proof check
    /// under RLN).
    pub validations: CounterId,
    /// First deliveries of honest messages.
    pub honest_delivered: CounterId,
    /// First deliveries of spam messages.
    pub spam_delivered: CounterId,
    /// First deliveries of invalid-proof messages.
    pub invalid_delivered: CounterId,
    /// Messages rejected at validation.
    pub rejected: CounterId,
    /// Messages ignored at validation (duplicates, epoch gaps).
    pub ignored: CounterId,
}

/// The per-peer catalogue, built once per process.
pub(crate) fn engine_catalogue() -> &'static (Arc<Layout>, EngineIds) {
    static CELL: OnceLock<(Arc<Layout>, EngineIds)> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut b = LayoutBuilder::new();
        let ids = EngineIds {
            events: b.counter("gossip_events_total", "Events dispatched by the engine."),
            publishes: b.counter("gossip_publishes_total", "Local publish events dispatched."),
            heartbeats: b.counter("gossip_heartbeats_total", "Heartbeat events dispatched."),
            rpcs: b.counter("gossip_rpcs_total", "RPC delivery events dispatched."),
            dwell: b.histogram(
                "gossip_event_dwell_ms",
                "Sim-time delay between an event being scheduled and firing (ms).",
            ),
            dropped_fault: b.counter(
                "engine_msgs_dropped_fault",
                "Messages dropped by the fault plane (link drops, partition cuts, crashed receivers).",
            ),
            restarts: b.counter(
                "peer_restarts",
                "Peers restarted after a scheduled crash (fault plane).",
            ),
            bytes_sent: b.counter("gossip_bytes_sent_total", "Bytes sent, all RPCs."),
            bytes_received: b.counter("gossip_bytes_received_total", "Bytes received, all RPCs."),
            validations: b.counter("gossip_validations_total", "Validator invocations."),
            honest_delivered: b.counter(
                "gossip_honest_delivered_total",
                "First deliveries of honest messages.",
            ),
            spam_delivered: b.counter(
                "gossip_spam_delivered_total",
                "First deliveries of spam (rate-violating) messages.",
            ),
            invalid_delivered: b.counter(
                "gossip_invalid_delivered_total",
                "First deliveries of invalid-proof messages.",
            ),
            rejected: b.counter("gossip_rejected_total", "Messages rejected at validation."),
            ignored: b.counter(
                "gossip_ignored_total",
                "Messages ignored (duplicates etc.).",
            ),
        };
        (b.build(), ids)
    })
}

/// Typed ids into the network-level catalogue (snapshot-time fill).
pub(crate) struct NetworkIds {
    /// Peer shards the scheduler resolved to (`engine_` prefix: a
    /// setting, not a result).
    pub shards: GaugeId,
    /// Barrier rounds (`engine_` prefix: depends on the shard count).
    pub barriers: CounterId,
    /// Scheduled partitions that have healed by snapshot time.
    pub partition_heals: CounterId,
}

/// The network-level catalogue, built once per process.
pub(crate) fn network_catalogue() -> &'static (Arc<Layout>, NetworkIds) {
    static CELL: OnceLock<(Arc<Layout>, NetworkIds)> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut b = LayoutBuilder::new();
        let ids = NetworkIds {
            shards: b.gauge(
                "engine_shards",
                "Peer shards the scheduler resolved to (1 = the serial reference).",
                GaugeFold::Sum,
            ),
            barriers: b.counter(
                "engine_barriers_total",
                "Scheduler rounds executed, one barrier each (one shard: one per run_until with work).",
            ),
            partition_heals: b.counter(
                "partition_heals",
                "Scheduled network partitions healed so far (fault plane).",
            ),
        };
        (b.build(), ids)
    })
}
