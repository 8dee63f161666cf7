//! # waku-hash
//!
//! Byte-oriented hash functions for the WAKU-RLN-RELAY reproduction,
//! implemented from scratch and validated against published test vectors:
//!
//! * [`sha256()`] — FIPS 180-4 SHA-256. Maps message payloads into the RLN
//!   share x-coordinate (`x = H(m)`, paper §II-B). On x86_64 CPUs with the
//!   SHA extensions (detected at run time) the block compression runs on
//!   them, elsewhere on portable code; the digests are identical.
//! * [`keccak`] — Ethereum-style Keccak-256. Backs addresses, transaction
//!   hashes, and commit-reveal commitments on the simulated chain, plus the
//!   Whisper PoW baseline (EIP-627).
//! * [`PrefixState`] — the `BuildHasher` of every map keyed by bytes that
//!   are already uniform (message ids, nullifiers, pre-mixed keys), and
//!   [`ProbeIndex`], positions in a caller's table keyed by such a hash.
//!
//! Field-friendly hashing (Poseidon) lives in `waku-poseidon`; this crate is
//! for byte-level hashing only.

pub mod keccak;
pub mod prefix;
pub mod sha256;

pub use keccak::{keccak256, Keccak256};
pub use prefix::{PrefixState, ProbeIndex};
pub use sha256::{sha256, Sha256};
