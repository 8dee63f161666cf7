//! # waku-suite
//!
//! Umbrella crate for the WAKU-RLN-RELAY reproduction
//! (Taheri-Boshrooyeh et al., ICDCS 2022). Re-exports every workspace crate
//! under one roof so examples, integration tests, and downstream users can
//! depend on a single crate.
//!
//! See the individual crates for details:
//!
//! * [`rln_relay`] — the paper's contribution: the spam-protected relay node.
//! * [`rln`] — the Rate-Limiting Nullifier construction (§II).
//! * [`snark`], [`curve`], [`arith`] — the Groth16 stack (§II-B).
//! * [`poseidon`], [`merkle`], [`shamir`], [`hash`] — crypto substrates.
//! * [`chain`] — simulated Ethereum with the membership contract (§III-B).
//! * [`gossip`], [`relay`] — GossipSub-style transport and the Waku
//!   relay/store/filter protocols (§I).
//! * [`baselines`] — Proof-of-Work and peer-scoring comparison targets.
//! * [`node`] — the long-running relayer service (`waku-node`): durable
//!   state, injected clock, Prometheus endpoint (see ARCHITECTURE.md,
//!   "Running as a service").
//! * [`sim`] — scenario harness driving the evaluation (§IV).
//! * [`metrics`] — the unified observability registry every layer above
//!   records into (see ARCHITECTURE.md, "Metrics flow").
//! * [`wire`] — the one wire/persistence layer under every codec and
//!   on-disk file (see ARCHITECTURE.md, "Wire & persistence formats").
//!
//! ## Quickstart
//!
//! ```no_run
//! use rand::SeedableRng;
//! use std::sync::Arc;
//! use waku_suite::chain::{Address, Chain, ChainConfig, ETHER};
//! use waku_suite::rln::RlnProver;
//! use waku_suite::rln_relay::node::{NodeConfig, WakuRlnRelayNode};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let (prover, verifier) = RlnProver::keygen(20, &mut rng);
//! let mut chain = Chain::new(ChainConfig::default());
//! let addr = Address::from_seed(b"me");
//! chain.fund(addr, 10 * ETHER);
//! let mut node = WakuRlnRelayNode::new(
//!     NodeConfig::default(), addr, Arc::new(prover), verifier, &mut rng);
//! node.register(&mut chain);
//! chain.mine_block();
//! node.sync(&mut chain);
//! let bundle = node.publish(b"hello", 1_644_810_116, &mut rng).unwrap();
//! assert_eq!(bundle.epoch, 1_644_810_116);
//! ```
//!
//! See `examples/quickstart.rs` for the full registration → publish →
//! route → slash walkthrough of the paper's Figures 1–3.

pub use waku_arith as arith;
pub use waku_chain as chain;
pub use waku_curve as curve;
pub use waku_gossip as gossip;
pub use waku_hash as hash;
pub use waku_merkle as merkle;
pub use waku_metrics as metrics;
pub use waku_node as node;
pub use waku_pool as pool;
pub use waku_poseidon as poseidon;
pub use waku_relay as relay;
pub use waku_rln as rln;
pub use waku_rln_relay as rln_relay;
pub use waku_shamir as shamir;
pub use waku_sim as sim;
pub use waku_sim::baselines;
pub use waku_snark as snark;
pub use waku_wire as wire;
