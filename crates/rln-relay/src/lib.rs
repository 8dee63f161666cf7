//! # waku-rln-relay
//!
//! The paper's contribution (§III): a spam-protected gossip relay where
//! every registered peer may publish **one message per epoch**, violations
//! cryptographically reveal the violator's identity key, and any routing
//! peer can slash the violator's on-chain deposit for a reward.
//!
//! Composition (bottom-up):
//!
//! * [`epoch`] — epoch arithmetic and the `Thr` gap formula (§III-D, -F),
//! * [`group`] — the off-chain identity tree synced from contract events
//!   (§III-C, Figure 2),
//! * [`validation`] — the four-step routing pipeline (§III-F, Figure 3),
//! * [`batch`] — micro-batched proof verification in front of step 3
//!   (one RLC pairing check per flush instead of one per message),
//! * [`errors`] — shared `#[non_exhaustive]` error shapes (config
//!   validation, snapshot restore) with `source()` chains for the
//!   service layer,
//! * [`slasher`] — commit-reveal slashing against the membership contract,
//! * [`node`] — [`node::WakuRlnRelayNode`], tying it all together,
//! * [`metrics`] — the node's metric catalogue: snapshot views
//!   ([`ValidationMetrics`], [`NodeMetrics`]) over one `waku-metrics`
//!   registry shared by the validator and the node lifecycle.
//!
//! ## Example
//!
//! ```no_run
//! use rand::SeedableRng;
//! use std::sync::Arc;
//! use waku_chain::{Address, Chain, ChainConfig, ETHER};
//! use waku_rln::RlnProver;
//! use waku_rln_relay::node::{NodeConfig, WakuRlnRelayNode};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let (prover, verifier) = RlnProver::keygen(20, &mut rng);
//! let prover = Arc::new(prover);
//! let mut chain = Chain::new(ChainConfig::default());
//!
//! let addr = Address::from_seed(b"alice");
//! chain.fund(addr, 10 * ETHER);
//! let mut alice = WakuRlnRelayNode::new(
//!     NodeConfig::default(), addr, Arc::clone(&prover), verifier, &mut rng);
//! alice.register(&mut chain);
//! chain.mine_block();
//! alice.sync(&mut chain);
//! let bundle = alice.publish(b"hello", 1_644_810_116, &mut rng).unwrap();
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod epoch;
pub mod errors;
pub mod group;
pub mod metrics;
pub mod node;
pub mod slasher;
pub mod validation;

pub use batch::{BatchConfig, BatchConfigBuilder, BatchDecision, BatchingValidator};
pub use epoch::EpochManager;
pub use errors::{ConfigError, SnapshotMismatch};
pub use group::GroupManager;
pub use metrics::{NodeMetrics, ValidationMetrics};
pub use node::{NodeConfig, NodeConfigBuilder, NodeError, WakuRlnRelayNode};
pub use slasher::Slasher;
pub use validation::{Claims, MessageValidator, Outcome};
