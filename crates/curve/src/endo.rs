//! The GLS endomorphism `ψ` on G2.
//!
//! BN curves carry an efficiently computable endomorphism on the twist:
//! `ψ = twist ∘ π_p ∘ untwist` (untwist to `E(Fp12)`, apply the `p`-power
//! Frobenius, map back). In twist coordinates it is just a conjugation and
//! two fixed Fp2 multiplications,
//!
//! ```text
//! ψ(x, y) = (c_x · x̄,  c_y · ȳ),   c_x = ξ^((p−1)/3),  c_y = ξ^((p−1)/2),
//! ```
//!
//! and on the order-`r` subgroup it acts as multiplication by the scalar
//! `λ = 6x² = t − 1 ≡ p (mod r)`. `ψ` implements the two Frobenius
//! correction steps of the optimal ate Miller loop (see
//! [`mod@crate::pairing`]), so its constants are cross-checked by the
//! pairing tests as well as the eigenvalue test here. (The GLS scalar
//! split built on `λ` measured 15 % slower inside the Groth16 prover —
//! Pippenger is bucket-addition bound — and was removed.)

use std::sync::OnceLock;

use waku_arith::biguint::BigUint;
use waku_arith::fields::Fq;
use waku_arith::traits::{Field, PrimeField};

use crate::fp2::Fp2;
use crate::g2::G2Affine;

/// The ψ coordinate constants `(c_x, c_y) = (ξ^((p−1)/3), ξ^((p−1)/2))`,
/// derived once from the tower's non-residue rather than transcribed.
fn psi_coeffs() -> &'static (Fp2, Fp2) {
    static CELL: OnceLock<(Fp2, Fp2)> = OnceLock::new();
    CELL.get_or_init(|| {
        let p = BigUint::from_limbs(&<Fq as PrimeField>::MODULUS);
        let p_minus_1 = p.sub(&BigUint::one());
        let (e_x, rem3) = p_minus_1.div_rem(&BigUint::from(3u64));
        let (e_y, rem2) = p_minus_1.div_rem(&BigUint::from(2u64));
        assert!(rem3.is_zero() && rem2.is_zero(), "p ≡ 1 (mod 6) on BN254");
        let xi = Fp2::xi();
        (xi.pow(e_x.limbs()), xi.pow(e_y.limbs()))
    })
}

/// Applies the endomorphism `ψ(x, y) = (c_x·x̄, c_y·ȳ)`.
pub fn psi(p: &G2Affine) -> G2Affine {
    if p.is_identity() {
        return G2Affine::identity();
    }
    let (cx, cy) = psi_coeffs();
    G2Affine::new_unchecked(*cx * p.x.conjugate(), *cy * p.y.conjugate())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::g2::G2Projective;
    use crate::pairing::BN_X;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use waku_arith::fields::Fr;

    #[test]
    fn psi_lands_on_curve_and_acts_as_lambda() {
        let x = Fr::from_u64(BN_X);
        let lambda = Fr::from_u64(6) * x * x;
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..4 {
            let p = G2Projective::generator()
                .mul(Fr::random(&mut rng))
                .to_affine();
            let image = psi(&p);
            assert!(image.is_on_curve(), "ψ must map the twist to itself");
            assert_eq!(
                image.to_projective(),
                p.mul(lambda),
                "ψ acts as [λ] on the order-r subgroup"
            );
        }
    }
}
