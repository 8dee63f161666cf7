//! # waku-curve
//!
//! BN254 elliptic-curve substrate: the G1/G2 groups, the Fp2→Fp6→Fp12
//! extension tower, Pippenger multi-scalar multiplication, and the optimal
//! ate pairing. Together with [`waku_arith`] this is everything
//! `waku-snark`'s Groth16 implementation needs — all built from scratch for
//! the WAKU-RLN-RELAY reproduction (the paper's proof system, §II-B).
//!
//! ## Example
//!
//! ```
//! use waku_curve::{g1::G1Projective, g2::G2Projective, pairing::pairing};
//! use waku_arith::{fields::Fr, traits::Field};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let a = Fr::random(&mut rng);
//! // Bilinearity: e(aG, H) = e(G, aH).
//! let lhs = pairing(&G1Projective::generator().mul(a).to_affine(),
//!                   &G2Projective::generator().to_affine());
//! let rhs = pairing(&G1Projective::generator().to_affine(),
//!                   &G2Projective::generator().mul(a).to_affine());
//! assert_eq!(lhs, rhs);
//! ```

pub mod endo;
pub mod fp12;
pub mod fp2;
pub mod fp6;
pub mod g1;
pub mod g2;
pub mod msm;
pub mod pairing;
pub mod point;

pub use endo::psi;
pub use fp12::Fp12;
pub use fp2::Fp2;
pub use fp6::Fp6;
pub use g1::{G1Affine, G1Projective};
pub use g2::{G2Affine, G2Projective};
pub use msm::{msm, naive_msm, WindowTable};
pub use pairing::{final_exponentiation, miller_loop, multi_pairing, pairing, G2Prepared};
