//! # waku-metrics
//!
//! The observability core of the suite: one metric catalogue behind every
//! instrumentation layer — the gossip engine's per-peer counters, the
//! `rln-relay` validation pipeline, and the scenario harness — instead of
//! four hand-rolled merge mechanisms.
//!
//! The crate is built around three ideas:
//!
//! 1. **Pre-registered descriptors.** A [`LayoutBuilder`] declares every
//!    metric up front and yields typed ids ([`CounterId`], [`GaugeId`],
//!    [`HistogramId`]); the frozen [`Layout`] is shared by every recorder,
//!    so the hot path is an array index — no name hashing, no locks.
//! 2. **Two recording backends, one snapshot.** A [`Registry`] holds
//!    atomic cells for concurrent recording through cloneable
//!    [`Counter`]/[`Gauge`]/[`Histogram`] handles; a [`LocalRecorder`] is
//!    the plain (non-atomic) variant for single-owner fork-join shards
//!    (one per gossip peer). Both produce the same [`Snapshot`].
//! 3. **Order-insensitive merge.** [`Snapshot::merge`] folds metrics with
//!    commutative, associative operations only (sum for counters and
//!    histogram buckets, sum-or-max for gauges per [`GaugeFold`]), so the
//!    merged result cannot depend on shard interleaving — the property
//!    that keeps seeded simulation runs bit-identical across shard counts.
//!
//! Histograms use a fixed power-of-two bucket grid (see
//! [`bucket_index`]): bucket `i` covers values `(2^(i-1), 2^i]`, which
//! makes bucket assignment a `leading_zeros` instruction and merge an
//! element-wise add that preserves exact counts and sums.
//!
//! ## Example
//!
//! ```
//! use waku_metrics::{GaugeFold, LayoutBuilder, Registry};
//!
//! let mut b = LayoutBuilder::new();
//! let served = b.counter("requests_total", "Requests served.");
//! let inflight = b.gauge("inflight_requests", "Requests in flight.", GaugeFold::Sum);
//! let latency = b.histogram("request_latency_ms", "Request latency (ms).");
//! let registry = Registry::new(b.build());
//!
//! registry.counter(served).inc();
//! registry.gauge(inflight).set(3);
//! registry.histogram(latency).observe(42);
//!
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.scalar("requests_total"), 1);
//! let text = snapshot.render_prometheus();
//! assert!(text.contains("# TYPE requests_total counter"));
//! assert!(text.contains("request_latency_ms_count 1"));
//! ```
//!
//! Fork-join shards merge order-insensitively:
//!
//! ```
//! use waku_metrics::{LayoutBuilder, LocalRecorder};
//!
//! let mut b = LayoutBuilder::new();
//! let events = b.counter("events_total", "Events dispatched.");
//! let mut shards = vec![LocalRecorder::new(b.build()); 4];
//! for shard in &mut shards {
//!     shard.add(events, 10);
//! }
//! let mut merged = shards[0].clone();
//! for shard in &shards[1..] {
//!     merged.merge_from(shard);
//! }
//! assert_eq!(merged.snapshot().scalar("events_total"), 40);
//! ```

#![warn(missing_docs)]

mod desc;
mod layout;
mod recorder;
mod registry;
mod snapshot;

pub use desc::{bucket_bound, bucket_index, Desc, GaugeFold, MetricKind, BUCKET_COUNT};
pub use layout::{CounterId, GaugeId, HistogramId, Layout, LayoutBuilder};
pub use recorder::LocalRecorder;
pub use registry::{Counter, Gauge, Histogram, Registry};
pub use snapshot::{HistogramValue, MetricValue, Snapshot, Value};
