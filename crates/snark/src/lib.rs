//! # waku-snark
//!
//! A from-scratch Groth16 zkSNARK stack over BN254 for the WAKU-RLN-RELAY
//! reproduction (proof system of the paper's §II-B):
//!
//! * [`r1cs`] — rank-1 constraint systems with assignments,
//! * [`qap`] — the R1CS → QAP reduction (Lagrange evaluation at τ for the
//!   setup; coset-FFT quotient computation for the prover),
//! * [`groth16`] — setup / prove / verify,
//! * [`gadgets`] — circuit building blocks (multiplication, booleans,
//!   conditional swaps, the x⁵ S-box).
//!
//! The RLN circuit itself (Poseidon preimage + Merkle membership + Shamir
//! share correctness + nullifier) is assembled in `waku-rln`.
//!
//! ## Example: prove you know a factorization
//!
//! ```
//! use waku_snark::r1cs::ConstraintSystem;
//! use waku_snark::groth16::{setup, prove, PreparedVerifyingKey};
//! use waku_arith::{fields::Fr, traits::PrimeField};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut cs = ConstraintSystem::new();
//! let product = cs.alloc_input(Fr::from_u64(391));
//! let p = cs.alloc_witness(Fr::from_u64(17));
//! let q = cs.alloc_witness(Fr::from_u64(23));
//! cs.enforce(p, q, product);
//! cs.finalize();
//!
//! let pk = setup(&cs, &mut rng);
//! let proof = prove(&pk, &cs, &mut rng)?;
//! let pvk = PreparedVerifyingKey::from(pk.vk.clone());
//! assert!(pvk.verify(&proof, &[Fr::from_u64(391)])?);
//! # Ok::<(), waku_snark::SnarkError>(())
//! ```

pub mod gadgets;
pub mod groth16;
pub mod qap;
pub mod r1cs;
pub mod serialize;
pub mod solver;

pub use groth16::{
    prove, setup, Isolation, IsolationWork, PreparedVerifyingKey, Proof, ProvingKey, VerifyingKey,
};
pub use r1cs::{ConstraintSystem, LinearCombination, Variable};
pub use solver::WitnessSolver;

/// Errors produced by the proof system.
///
/// `#[non_exhaustive]`: downstream error unification (e.g.
/// `waku_rln_relay::NodeError::Proving` chaining this via
/// `std::error::Error::source`) must keep compiling when new failure
/// classes appear — match with a wildcard arm.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnarkError {
    /// The constraint system was not finalized before setup/proving.
    NotFinalized,
    /// Constraint at the given index is violated by the assignment.
    Unsatisfied(usize),
    /// Proving key does not match the constraint system shape.
    KeyMismatch,
    /// Public input count does not match the verifying key.
    InputLengthMismatch,
}

impl std::fmt::Display for SnarkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnarkError::NotFinalized => write!(f, "constraint system not finalized"),
            SnarkError::Unsatisfied(i) => write!(f, "constraint {i} unsatisfied"),
            SnarkError::KeyMismatch => write!(f, "proving key does not match circuit"),
            SnarkError::InputLengthMismatch => write!(f, "public input count mismatch"),
        }
    }
}

impl std::error::Error for SnarkError {}
