//! The curve endomorphisms: GLS's `ψ` on G2 and GLV's `φ` on G1.
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
//! pairing tests as well as the eigenvalue test here.
//!
//! G1 (`y² = x³ + 3`, `p ≡ 1 mod 3`) has the cube-root endomorphism
//!
//! ```text
//! φ(x, y) = (β·x, y),   β = N(c_x) = ξ^((p²−1)/3),   φ = [λ_φ],   λ_φ = 36x⁴ − 1 (mod r),
//! ```
//!
//! one Fq product per point: `β` is a primitive cube root of unity in Fq
//! and `λ_φ` the root of `λ² + λ + 1 ≡ 0 (mod r)` that matches it. A
//! scalar drawn as `a + λ_φ·b` with 64-bit halves ([`GlvScalar`]) then
//! multiplies a point on half the doublings: `a·P + b·φ(P)` share one
//! 65-step chain ([`glv_mul_batch`]). That pays in a lone ladder, which is
//! bound by its doublings, and not inside Pippenger, which is bound by its
//! bucket additions: there the split only doubles the terms (the GLS
//! split on G2 measured 15 % slower inside the Groth16 prover and was
//! removed). The batch verifier's `Σ rᵢ·Cᵢ` is the exception: its
//! scalars come out of the transcript already split, so its MSM runs
//! `2n` terms at 65 bits for free, where it ran `n` terms at 256.

use std::sync::OnceLock;

use waku_arith::biguint::BigUint;
use waku_arith::fields::{Fq, Fr};
use waku_arith::traits::{Field, PrimeField};

use crate::fp2::Fp2;
use crate::g1::{G1Affine, G1Projective};
use crate::g2::G2Affine;
use crate::pairing::BN_X;

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

/// `β = N(c_x) = ξ^((p²−1)/3)`, φ's cube root of unity in Fq, derived
/// from ψ's constant: `c_x^p = c̄_x`, so its norm `c_x^(p+1)` lies in Fq.
fn beta() -> Fq {
    static CELL: OnceLock<Fq> = OnceLock::new();
    *CELL.get_or_init(|| psi_coeffs().0.norm())
}

/// φ's eigenvalue `λ_φ = 36x⁴ − 1 (mod r)`: `φ(P) = λ_φ·P` on G1.
fn phi_lambda() -> Fr {
    let x2 = Fr::from_u64(BN_X).square();
    Fr::from_u64(36) * x2.square() - Fr::one()
}

/// Applies G1's endomorphism `φ(x, y) = (β·x, y)`.
pub fn phi(p: &G1Affine) -> G1Affine {
    if p.is_identity() {
        return G1Affine::identity();
    }
    G1Affine::new_unchecked(beta() * p.x, p.y)
}

/// A G1 scalar in GLV form, `a + λ_φ·b (mod r)` with 64-bit halves.
///
/// The map `(a, b) ↦ a + λ_φ·b` is injective on `[0, 2⁶⁴)²`: the lattice
/// of its kernel, `{(a, b) : a + λ_φ·b ≡ 0 (mod r)}`, has no nonzero
/// vector shorter than 2¹²⁶ (`tests::glv_lattice_has_no_short_vector`),
/// and the difference of two distinct pairs would be one of norm below
/// 2⁶⁵. So only `(0, 0)` stands for zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GlvScalar {
    /// The half that multiplies `P`.
    pub a: u64,
    /// The half that multiplies `φ(P)`.
    pub b: u64,
}

impl GlvScalar {
    /// The scalar `a + λ_φ·b` it stands for.
    pub fn to_fr(self) -> Fr {
        Fr::from_u64(self.a) + phi_lambda() * Fr::from_u64(self.b)
    }
}

/// The most width-4 NAF digits a 64-bit half takes: one more than its bits.
const WNAF_DIGITS: usize = 65;

/// `k` as width-4 NAF digits, least significant first: each nonzero digit
/// is odd, in `±{1, 3, 5, 7}`, and followed by at least three zeros.
fn wnaf4(k: u64) -> [i8; WNAF_DIGITS] {
    let mut digits = [0i8; WNAF_DIGITS];
    let mut k = k as u128;
    for digit in digits.iter_mut() {
        if k & 1 == 1 {
            let low = (k & 15) as i8;
            *digit = if low > 8 { low - 16 } else { low };
            k = k.wrapping_sub(*digit as i128 as u128);
        }
        k >>= 1;
    }
    debug_assert_eq!(k, 0, "a 64-bit value has at most 65 NAF digits");
    digits
}

/// `scalars[i]·points[i]` for every `i`, each as `aᵢ·Pᵢ + bᵢ·φ(Pᵢ)` over
/// one 65-step doubling chain with width-4 NAF digits on both halves.
///
/// The odd multiples `3P, 5P, 7P` of every point are made affine together,
/// one inversion for the batch; the φ-table is one product per entry. The
/// chains run as pool tasks, one per point.
///
/// # Panics
///
/// Panics if `points.len() != scalars.len()`.
pub fn glv_mul_batch(points: &[G1Affine], scalars: &[GlvScalar]) -> Vec<G1Projective> {
    assert_eq!(points.len(), scalars.len(), "one scalar per point");
    let mut odd = Vec::with_capacity(3 * points.len());
    for p in points {
        let p2 = p.to_projective().double();
        let p3 = p2.add_mixed(p);
        let p5 = p3.add(&p2);
        odd.extend([p3, p5, p5.add(&p2)]);
    }
    let odd = G1Projective::batch_to_affine(&odd);
    let at: Vec<usize> = (0..points.len()).collect();
    waku_pool::par_map(&at, |&i| {
        let table = [points[i], odd[3 * i], odd[3 * i + 1], odd[3 * i + 2]];
        let phi_table = table.map(|p| phi(&p));
        let halves = [
            (wnaf4(scalars[i].a), &table),
            (wnaf4(scalars[i].b), &phi_table),
        ];
        let mut acc = G1Projective::identity();
        for bit in (0..WNAF_DIGITS).rev() {
            acc = acc.double();
            for (digits, table) in &halves {
                let d = digits[bit];
                if d != 0 {
                    let entry = table[(d.unsigned_abs() / 2) as usize];
                    acc = acc.add_mixed(&if d < 0 { entry.neg() } else { entry });
                }
            }
        }
        acc
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::g2::G2Projective;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

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

    #[test]
    fn beta_is_a_primitive_cube_root_of_unity() {
        let b = beta();
        assert_ne!(b, Fq::one());
        assert_eq!(b.square() * b, Fq::one());
    }

    #[test]
    fn phi_lambda_is_a_primitive_cube_root_of_unity_mod_r() {
        let l = phi_lambda();
        assert_ne!(l, Fr::one());
        assert_eq!(l.square() + l + Fr::one(), Fr::zero());
    }

    #[test]
    fn phi_lands_on_curve_and_acts_as_lambda() {
        let mut rng = StdRng::seed_from_u64(22);
        let other_root = -Fr::one() - phi_lambda();
        for _ in 0..4 {
            let p = G1Projective::generator()
                .mul(Fr::random(&mut rng))
                .to_affine();
            let image = phi(&p);
            assert!(image.is_on_curve(), "φ must map G1 to itself");
            assert_eq!(
                image.to_projective(),
                p.mul(phi_lambda()),
                "φ acts as [λ_φ]"
            );
            assert_ne!(image.to_projective(), p.mul(other_root), "β picks one root");
        }
        assert!(phi(&G1Affine::identity()).is_identity());
    }

    #[test]
    fn wnaf_digits_reassemble_the_half() {
        let mut rng = StdRng::seed_from_u64(23);
        let edges = [
            0,
            1,
            7,
            8,
            15,
            16,
            u64::MAX,
            u64::MAX - 7,
            1 << 63,
            (1 << 63) - 1,
        ];
        let randoms: Vec<u64> = (0..64).map(|_| rng.next_u64()).collect();
        for &k in edges.iter().chain(&randoms) {
            let digits = wnaf4(k);
            let value: i128 = digits.iter().rev().fold(0, |acc, &d| 2 * acc + d as i128);
            assert_eq!(value, k as i128, "{k:#x}");
            for (i, &d) in digits.iter().enumerate() {
                if d != 0 {
                    assert!(d % 2 != 0 && d.abs() <= 7, "{k:#x}: digit {d}");
                    assert!(digits[i + 1..].iter().take(3).all(|&z| z == 0), "{k:#x}");
                }
            }
        }
    }

    #[test]
    fn glv_mul_batch_matches_the_scalar_it_stands_for() {
        let mut rng = StdRng::seed_from_u64(24);
        let g = G1Projective::generator();
        let mut points: Vec<G1Affine> = (0..12)
            .map(|_| g.mul(Fr::random(&mut rng)).to_affine())
            .collect();
        points[3] = G1Affine::identity();
        points[5] = points[4];
        points[6] = points[4].neg();
        let mut scalars = vec![
            GlvScalar { a: 0, b: 0 },
            GlvScalar { a: 1, b: 0 },
            GlvScalar { a: 0, b: 1 },
            GlvScalar {
                a: u64::MAX,
                b: u64::MAX,
            },
            GlvScalar { a: u64::MAX, b: 0 },
            GlvScalar { a: 0, b: u64::MAX },
            GlvScalar { a: 1 << 63, b: 15 },
        ];
        while scalars.len() < points.len() {
            scalars.push(GlvScalar {
                a: rng.next_u64(),
                b: rng.next_u64(),
            });
        }
        for threads in [1, 2] {
            let got = waku_pool::with_threads(threads, || glv_mul_batch(&points, &scalars));
            for ((p, k), got) in points.iter().zip(&scalars).zip(got) {
                assert_eq!(got, p.mul(k.to_fr()), "{k:?}, {threads} threads");
            }
        }
        assert!(glv_mul_batch(&[], &[]).is_empty());
    }

    /// A signed integer over `BigUint`: `(negative, magnitude)`.
    #[derive(Clone)]
    struct Int(bool, BigUint);

    impl Int {
        fn of(v: BigUint) -> Self {
            Int(false, v)
        }
        fn neg(&self) -> Self {
            Int(!self.0, self.1.clone())
        }
        fn add(&self, o: &Int) -> Int {
            if self.0 == o.0 {
                Int(self.0, self.1.add(&o.1))
            } else if self.1 >= o.1 {
                Int(self.0, self.1.sub(&o.1))
            } else {
                Int(o.0, o.1.sub(&self.1))
            }
        }
        fn mul(&self, o: &Int) -> Int {
            Int(self.0 != o.0, self.1.mul(&o.1))
        }
        /// `self / d` rounded to the nearest integer, for `d > 0`.
        fn div_round(&self, d: &BigUint) -> Int {
            Int(self.0, self.1.shl(1).add(d).div_rem(&d.shl(1)).0)
        }
        fn to_fr(&self) -> Fr {
            let modulus = BigUint::from_limbs(&<Fr as PrimeField>::MODULUS);
            let limbs = self.1.rem(&modulus).to_fixed_limbs(4);
            let v = Fr::from_canonical_limbs(limbs.try_into().unwrap()).unwrap();
            if self.0 {
                -v
            } else {
                v
            }
        }
    }

    fn dot(u: &[Int; 2], v: &[Int; 2]) -> Int {
        u[0].mul(&v[0]).add(&u[1].mul(&v[1]))
    }

    /// The squared length of `u`.
    fn norm(u: &[Int; 2]) -> BigUint {
        dot(u, u).1
    }

    #[test]
    fn glv_lattice_has_no_short_vector() {
        // Lagrange–Gauss reduction of the kernel lattice of
        // `(a, b) ↦ a + λ·b mod r`, from its basis `(r, 0), (−λ, 1)`, for
        // both cube roots λ. The reduced basis's first vector is a
        // shortest nonzero one; at > 2⁶⁵ no two distinct pairs of
        // `[0, 2⁶⁴)²` (a difference of norm < 2⁶⁴·√2) share a scalar.
        let r = BigUint::from_limbs(&<Fr as PrimeField>::MODULUS);
        for lambda in [phi_lambda(), -Fr::one() - phi_lambda()] {
            let lambda_int = Int::of(BigUint::from_limbs(&lambda.to_canonical_limbs()));
            let mut u = [Int::of(r.clone()), Int::of(BigUint::zero())];
            let mut v = [lambda_int.neg(), Int::of(BigUint::one())];
            if norm(&u) > norm(&v) {
                std::mem::swap(&mut u, &mut v);
            }
            loop {
                let mu = dot(&u, &v).div_round(&norm(&u)).neg();
                v = [v[0].add(&mu.mul(&u[0])), v[1].add(&mu.mul(&u[1]))];
                if norm(&v) >= norm(&u) {
                    break;
                }
                std::mem::swap(&mut u, &mut v);
            }
            for w in [&u, &v] {
                assert_eq!(
                    w[0].to_fr() + lambda * w[1].to_fr(),
                    Fr::zero(),
                    "in the lattice"
                );
            }
            let det = u[0].mul(&v[1]).add(&u[1].mul(&v[0]).neg());
            assert_eq!(det.1, r, "a basis of the whole lattice");
            assert!(norm(&u) > BigUint::one().shl(130), "shortest vector ≤ 2⁶⁵");
            assert!(
                norm(&u) > BigUint::one().shl(252),
                "> 2¹²⁶, as `GlvScalar` says"
            );
        }
    }
}
