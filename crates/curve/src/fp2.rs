//! Quadratic extension `Fp2 = Fq[u]/(u² + 1)`.
//!
//! BN254's base field has `q ≡ 3 (mod 4)`, so `−1` is a non-residue and the
//! tower starts with `u² = −1`. The sextic twist uses the non-residue
//! `ξ = 9 + u` (exposed as [`Fp2::mul_by_nonresidue`]).
//!
//! The tower is written once, over any [`Ring`] `F` in Fq's place:
//! [`Fp2`], [`Fp6`](crate::fp6::Fp6) and [`Fp12`](crate::fp12::Fp12) are
//! its instances over Fq, and `Fp2Over<FqLanes<B>>` (likewise Fp6, Fp12)
//! holds `B::WIDTH` elements on lane body `B`, one per lane, for the
//! Miller loop's and the MSM's lane code. Every routine is
//! `#[inline(always)]` (see [`waku_arith::fp::LaneTask`]), and the
//! products and squares run through [`Ring::call`]: the lanes inline them,
//! scalar code calls one copy of each. What only scalar code needs —
//! inversion, Frobenius, the cyclotomic operations, the constants and the
//! [`Field`] impls — sits on the Fq instance alone.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use waku_arith::fields::Fq;
use waku_arith::fp::{LaneBody, LaneField, Ring};
use waku_arith::traits::{Field, PrimeField};

use crate::point::{FqLanes, LaneCoord};

/// An element `c0 + c1·u` of Fp2, its coefficients in `F`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default)]
pub struct Fp2Over<F> {
    /// Constant coefficient.
    pub c0: F,
    /// Coefficient of `u`.
    pub c1: F,
}

/// Fp2 over Fq.
pub type Fp2 = Fp2Over<Fq>;

impl<F> Fp2Over<F> {
    /// Builds an element from its two coefficients.
    pub const fn new(c0: F, c1: F) -> Self {
        Fp2Over { c0, c1 }
    }
}

impl<F: Ring> Fp2Over<F> {
    /// Complex conjugation `c0 − c1·u`; equals the `p`-power Frobenius.
    #[inline(always)]
    pub fn conjugate(&self) -> Self {
        Fp2Over::new(self.c0, -self.c1)
    }

    /// Multiplies by the cubic/sextic tower non-residue `ξ = 9 + u`:
    /// `(9·c0 − c1) + (9·c1 + c0)·u`.
    #[inline(always)]
    pub fn mul_by_nonresidue(&self) -> Self {
        let t = self.double().double().double() + *self; // 9·self
        Fp2Over::new(t.c0 - self.c1, t.c1 + self.c0)
    }

    /// Norm `c0² + c1²` (an element of `F`).
    #[inline(always)]
    pub fn norm(&self) -> F {
        self.c0.square() + self.c1.square()
    }

    /// `self⁻¹ = self̄ · N(self)⁻¹`, given `N(self)⁻¹`.
    #[inline(always)]
    pub fn inverse_from_norm(&self, norm_inv: F) -> Self {
        self.conjugate().scale(norm_inv)
    }

    /// Multiplies both coefficients by a scalar of `F`.
    #[inline(always)]
    pub fn scale(&self, s: F) -> Self {
        Fp2Over::new(self.c0 * s, self.c1 * s)
    }
}

impl Fp2 {
    /// Embeds an Fq element.
    pub fn from_base(c0: Fq) -> Self {
        Fp2::new(c0, Fq::zero())
    }

    /// The twist non-residue `ξ = 9 + u`.
    pub fn xi() -> Self {
        Fp2::new(Fq::from_u64(9), Fq::one())
    }

    /// Frobenius endomorphism `x ↦ x^(p^power)`.
    pub fn frobenius_map(&self, power: usize) -> Self {
        if power.is_multiple_of(2) {
            *self
        } else {
            self.conjugate()
        }
    }
}

impl<F: Ring> Add for Fp2Over<F> {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Fp2Over::new(self.c0 + rhs.c0, self.c1 + rhs.c1)
    }
}

impl<F: Ring> Sub for Fp2Over<F> {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Fp2Over::new(self.c0 - rhs.c0, self.c1 - rhs.c1)
    }
}

impl<F: Ring> Mul for Fp2Over<F> {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        // Karatsuba: (a0 + a1 u)(b0 + b1 u) with u² = −1.
        F::call(
            #[inline(always)]
            || {
                let v0 = self.c0 * rhs.c0;
                let v1 = self.c1 * rhs.c1;
                let s = (self.c0 + self.c1) * (rhs.c0 + rhs.c1);
                Fp2Over::new(v0 - v1, s - v0 - v1)
            },
        )
    }
}

impl<F: Ring> Neg for Fp2Over<F> {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Fp2Over::new(-self.c0, -self.c1)
    }
}

impl<F: Ring> Ring for Fp2Over<F> {
    #[inline(always)]
    fn square(self) -> Self {
        // (a0 + a1 u)² = (a0 − a1)(a0 + a1) + 2·a0·a1·u
        F::call(
            #[inline(always)]
            || {
                let c = self.c0 * self.c1;
                Fp2Over::new((self.c0 - self.c1) * (self.c0 + self.c1), c.double())
            },
        )
    }
}

impl<F: Ring> AddAssign for Fp2Over<F> {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl<F: Ring> SubAssign for Fp2Over<F> {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl<F: Ring> MulAssign for Fp2Over<F> {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl fmt::Debug for Fp2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fp2({} + {}·u)", self.c0, self.c1)
    }
}

impl fmt::Display for Fp2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} + {}·u", self.c0, self.c1)
    }
}

impl LaneField for Fp2 {
    type Lanes<B: LaneBody> = Fp2Over<FqLanes<B>>;

    #[inline(always)]
    fn gather<B: LaneBody>(body: B, v: B::Array<&Fp2>) -> Self::Lanes<B> {
        let v = v.as_ref();
        Fp2Over::new(
            Fq::gather(body, B::array(|i| &v[i].c0)),
            Fq::gather(body, B::array(|i| &v[i].c1)),
        )
    }

    #[inline(always)]
    fn scatter<B: LaneBody>(v: Self::Lanes<B>) -> B::Array<Fp2> {
        let (c0, c1) = (Fq::scatter(v.c0), Fq::scatter(v.c1));
        B::array(|i| Fp2::new(c0.as_ref()[i], c1.as_ref()[i]))
    }
}

impl LaneCoord for Fp2 {
    #[inline(always)]
    fn norm<B: LaneBody>(v: Self::Lanes<B>) -> FqLanes<B> {
        v.norm()
    }

    #[inline(always)]
    fn inverse_from_norm<B: LaneBody>(v: Self::Lanes<B>, norm_inv: FqLanes<B>) -> Self::Lanes<B> {
        v.inverse_from_norm(norm_inv)
    }
}

impl Field for Fp2 {
    fn zero() -> Self {
        Fp2::new(Fq::zero(), Fq::zero())
    }

    fn one() -> Self {
        Fp2::new(Fq::one(), Fq::zero())
    }

    fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero()
    }

    fn square(&self) -> Self {
        Ring::square(*self)
    }

    fn inverse(&self) -> Option<Self> {
        // 1/(a0 + a1 u) = (a0 − a1 u)/(a0² + a1²)
        Some(self.inverse_from_norm(self.norm().inverse()?))
    }

    fn random<R: rand::Rng + ?Sized>(rng: &mut R) -> Self {
        Fp2::new(Fq::random(rng), Fq::random(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn u_squared_is_minus_one() {
        let u = Fp2::new(Fq::zero(), Fq::one());
        assert_eq!(u.square(), -Fp2::one());
    }

    #[test]
    fn mul_matches_square() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let a = Fp2::random(&mut rng);
            assert_eq!(a * a, a.square());
        }
    }

    #[test]
    fn inverse_roundtrip() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let a = Fp2::random(&mut rng);
            if a.is_zero() {
                continue;
            }
            assert_eq!(a * a.inverse().unwrap(), Fp2::one());
        }
        assert!(Fp2::zero().inverse().is_none());
    }

    #[test]
    fn distributivity() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Fp2::random(&mut rng);
        let b = Fp2::random(&mut rng);
        let c = Fp2::random(&mut rng);
        assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn mul_by_nonresidue_matches_mul_by_xi() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..10 {
            let a = Fp2::random(&mut rng);
            assert_eq!(a.mul_by_nonresidue(), a * Fp2::xi());
        }
    }

    #[test]
    fn frobenius_is_pth_power() {
        use waku_arith::traits::PrimeField;
        let mut rng = StdRng::seed_from_u64(5);
        let a = Fp2::random(&mut rng);
        let frob = a.frobenius_map(1);
        let pth = a.pow(&<Fq as PrimeField>::MODULUS);
        assert_eq!(frob, pth);
        assert_eq!(a.frobenius_map(2), a);
    }

    #[test]
    fn conjugate_norm() {
        let mut rng = StdRng::seed_from_u64(6);
        let a = Fp2::random(&mut rng);
        let n = a * a.conjugate();
        assert_eq!(n.c0, a.norm());
        assert!(n.c1.is_zero());
    }
}
