//! # waku-rln
//!
//! The Rate-Limiting Nullifier construction (paper §II): Semaphore-style
//! zero-knowledge group membership extended with Shamir secret sharing so
//! that *double-signaling inside one epoch reveals the signaler's identity
//! key*.
//!
//! Components:
//!
//! * [`identity`] — identity keys `sk` and commitments `pk = H(sk)`,
//! * [`nullifier`] — external/internal nullifiers and share derivation,
//! * [`circuit`] — the R1CS relation (membership + share validity +
//!   nullifier correctness),
//! * [`prover`] — Groth16 proof generation/verification and the message
//!   bundle `(m, (x,y), φ, epoch, τ, π)`,
//! * [`keycache`] — versioned on-disk proving-key blobs so node restarts
//!   skip the trusted-setup simulation,
//! * [`snapshot_io`] — the same checksummed-blob discipline for
//!   [`NullifierStore`] snapshots (crash-surviving rate-limit state),
//! * [`slashing`] — the per-epoch nullifier map, duplicate/spam
//!   classification, and `sk` recovery.
//!
//! ## Example
//!
//! ```no_run
//! use rand::SeedableRng;
//! use waku_rln::{Identity, RlnProver};
//! use waku_merkle::DenseTree;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let (prover, verifier) = RlnProver::keygen(20, &mut rng);
//! let id = Identity::random(&mut rng);
//! let mut tree = DenseTree::new(20);
//! tree.set(0, id.commitment());
//! let bundle = prover
//!     .prove_message(&id, &tree.proof(0), b"hello", 42, &mut rng)
//!     .unwrap();
//! assert!(verifier.verify_bundle(&bundle));
//! ```

#![warn(missing_docs)]

pub mod circuit;
pub mod identity;
pub mod keycache;
pub mod nullifier;
pub mod prover;
pub mod slashing;
pub mod snapshot_io;

pub use circuit::{RlnPublicInputs, RlnWitness};
pub use identity::Identity;
pub use nullifier::{
    derive, epoch_coefficient, external_nullifier, internal_nullifier, message_hash,
    NullifierSnapshot, NullifierStore,
};
pub use prover::{RlnMessageBundle, RlnProver, RlnVerifier};
pub use slashing::{RateCheck, SpamEvidence};
