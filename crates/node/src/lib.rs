//! `waku-node` — the WAKU-RLN-RELAY relayer as a long-running service.
//!
//! The lower crates implement the paper's machinery (RLN proofs,
//! windowed nullifier logs, slashing, relay storage); this crate is the
//! *operational* layer that ties them into something you run: a
//! supervised event loop with durable state, an injected clock, and a
//! Prometheus exposition endpoint.
//!
//! * [`ServiceConfig`] — builder-validated configuration (where state
//!   lives, checkpoint cadence, the node's own
//!   [`NodeConfig`](waku_rln_relay::NodeConfig)).
//! * [`RelayerService`] — the service itself: `open` recovers every
//!   piece of durable state (key cache, message segments, nullifier
//!   snapshot, publish guard), `ingest`/`publish`/`step` run it,
//!   `shutdown` flushes it.
//! * [`MetricsServer`] — a polled, dependency-free HTTP/1.1 listener
//!   serving [`RelayerService::metrics_text`].
//! * [`ServiceError`] — the single top-level error: every layer's
//!   `#[non_exhaustive]` error converts in via `From` and is reachable
//!   through `source()`.
//! * [`cli::Cli`] — the command-line parser `waku-node` and the
//!   `waku-bench` experiment binaries share: each parses its arguments
//!   against its usage line.
//!
//! The `waku-node` binary in this crate wires these to a wall clock and
//! SIGTERM; the `exp_soak` scenario drives the same service with a
//! simulated clock for hours of soak in seconds of wall time.
//!
//! ```no_run
//! use waku_node::{RelayerService, ServiceConfig};
//!
//! let config = ServiceConfig::builder("/var/lib/waku-node").build()?;
//! let mut service = RelayerService::open(config)?;
//! service.step(1_700_000_000)?; // heartbeat at an injected Unix time
//! # Ok::<(), waku_node::ServiceError>(())
//! ```

#![warn(missing_docs)]

pub mod cli;
pub mod config;
pub mod error;
pub mod http;
pub mod service;

pub use config::{ServiceConfig, ServiceConfigBuilder};
pub use error::ServiceError;
pub use http::MetricsServer;
pub use service::{RecoveryReport, RelayerService, ServiceStatus, ShutdownReport};
