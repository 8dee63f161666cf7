//! The two state-of-the-art p2p spam defenses the paper compares against
//! (§I):
//!
//! * [`pow`] — Whisper-style Proof-of-Work (EIP-627): per-message hash
//!   grinding. Economically rate-limits *CPU*, so fast machines spam
//!   cheaply while phones can't message at all.
//! * [`scoring_only`] — GossipSub v1.1 peer scoring alone: behavioral
//!   statistics that a Sybil attacker resets for free by rotating
//!   identities, plus the censorship concern of score-based exclusion.
//!
//! [`crate::scenario`] plugs both into the same network scenarios as
//! WAKU-RLN-RELAY so the containment comparison (experiment E6/E10) is
//! apples-to-apples.

pub mod pow;
pub mod scoring_only;

pub use pow::{expected_iterations, mine, validate, Envelope, MiningOutcome};
pub use scoring_only::SybilCostModel;
