//! Quadratic extension `Fp2 = Fq[u]/(u² + 1)`.
//!
//! BN254's base field has `q ≡ 3 (mod 4)`, so `−1` is a non-residue and the
//! tower starts with `u² = −1`. The sextic twist uses the non-residue
//! `ξ = 9 + u` (exposed as [`Fp2::mul_by_nonresidue`]).

use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use waku_arith::fields::Fq;
use waku_arith::fp::{LaneBody, LaneField};
use waku_arith::traits::Field;

use crate::point::{FqLanes, LaneCoord};

/// An element `c0 + c1·u` of Fp2.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default)]
pub struct Fp2 {
    /// Constant coefficient.
    pub c0: Fq,
    /// Coefficient of `u`.
    pub c1: Fq,
}

impl Fp2 {
    /// Builds an element from its two Fq coefficients.
    pub const fn new(c0: Fq, c1: Fq) -> Self {
        Fp2 { c0, c1 }
    }

    /// Embeds an Fq element.
    pub fn from_base(c0: Fq) -> Self {
        Fp2 { c0, c1: Fq::zero() }
    }

    /// The twist non-residue `ξ = 9 + u`.
    pub fn xi() -> Self {
        use waku_arith::traits::PrimeField;
        Fp2 {
            c0: Fq::from_u64(9),
            c1: Fq::one(),
        }
    }

    /// Complex conjugation `c0 − c1·u`; equals the `p`-power Frobenius.
    pub fn conjugate(&self) -> Self {
        Fp2 {
            c0: self.c0,
            c1: -self.c1,
        }
    }

    /// Frobenius endomorphism `x ↦ x^(p^power)`.
    pub fn frobenius_map(&self, power: usize) -> Self {
        if power.is_multiple_of(2) {
            *self
        } else {
            self.conjugate()
        }
    }

    /// Multiplies by the cubic/sextic tower non-residue `ξ = 9 + u`:
    /// `(9·c0 − c1) + (9·c1 + c0)·u`.
    pub fn mul_by_nonresidue(&self) -> Self {
        let t = self.double().double().double() + *self; // 9·self
        Fp2 {
            c0: t.c0 - self.c1,
            c1: t.c1 + self.c0,
        }
    }

    /// Norm `c0² + c1²` (an Fq element).
    pub fn norm(&self) -> Fq {
        self.c0.square() + self.c1.square()
    }

    /// Multiplies both coefficients by an Fq scalar.
    pub fn scale(&self, s: Fq) -> Self {
        Fp2 {
            c0: self.c0 * s,
            c1: self.c1 * s,
        }
    }
}

impl Add for Fp2 {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Fp2 {
            c0: self.c0 + rhs.c0,
            c1: self.c1 + rhs.c1,
        }
    }
}

impl Sub for Fp2 {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Fp2 {
            c0: self.c0 - rhs.c0,
            c1: self.c1 - rhs.c1,
        }
    }
}

impl Mul for Fp2 {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        // Karatsuba: (a0 + a1 u)(b0 + b1 u) with u² = −1.
        let v0 = self.c0 * rhs.c0;
        let v1 = self.c1 * rhs.c1;
        let s = (self.c0 + self.c1) * (rhs.c0 + rhs.c1);
        Fp2 {
            c0: v0 - v1,
            c1: s - v0 - v1,
        }
    }
}

impl Neg for Fp2 {
    type Output = Self;
    fn neg(self) -> Self {
        Fp2 {
            c0: -self.c0,
            c1: -self.c1,
        }
    }
}

impl AddAssign for Fp2 {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl SubAssign for Fp2 {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl MulAssign for Fp2 {
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

/// `B::WIDTH` Fp2 elements on lane body `B`: their `c0`s and their `c1`s
/// as two Fq lane vectors.
#[derive(Clone, Copy)]
pub struct Fp2Lanes<B: LaneBody> {
    pub(crate) c0: FqLanes<B>,
    pub(crate) c1: FqLanes<B>,
}

impl<B: LaneBody> Fp2Lanes<B> {
    /// Lane-wise square, as [`Fp2`]'s.
    #[inline(always)]
    pub(crate) fn square(self) -> Self {
        Fp2::square_lanes(self)
    }

    /// `2·self`.
    #[inline(always)]
    pub(crate) fn double(self) -> Self {
        self + self
    }

    /// Both coefficients times `s`, as [`Fp2::scale`].
    #[inline(always)]
    pub(crate) fn scale(self, s: FqLanes<B>) -> Self {
        Fp2Lanes {
            c0: self.c0 * s,
            c1: self.c1 * s,
        }
    }

    /// As [`Fp2::mul_by_nonresidue`].
    #[inline(always)]
    pub(crate) fn mul_by_nonresidue(self) -> Self {
        let t = self.double().double().double() + self;
        Fp2Lanes {
            c0: t.c0 - self.c1,
            c1: t.c1 + self.c0,
        }
    }
}

impl<B: LaneBody> Add for Fp2Lanes<B> {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Fp2Lanes {
            c0: self.c0 + rhs.c0,
            c1: self.c1 + rhs.c1,
        }
    }
}

impl<B: LaneBody> Sub for Fp2Lanes<B> {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Fp2Lanes {
            c0: self.c0 - rhs.c0,
            c1: self.c1 - rhs.c1,
        }
    }
}

impl<B: LaneBody> Neg for Fp2Lanes<B> {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Fp2Lanes {
            c0: -self.c0,
            c1: -self.c1,
        }
    }
}

impl<B: LaneBody> Mul for Fp2Lanes<B> {
    type Output = Self;
    /// Karatsuba, as [`Fp2`]'s product.
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        let v0 = self.c0 * rhs.c0;
        let v1 = self.c1 * rhs.c1;
        let s = (self.c0 + self.c1) * (rhs.c0 + rhs.c1);
        Fp2Lanes {
            c0: v0 - v1,
            c1: s - v0 - v1,
        }
    }
}

impl LaneField for Fp2 {
    type Lanes<B: LaneBody> = Fp2Lanes<B>;

    #[inline(always)]
    fn gather<B: LaneBody>(body: B, v: B::Array<&Fp2>) -> Fp2Lanes<B> {
        let v = v.as_ref();
        Fp2Lanes {
            c0: FqLanes::gather(body, B::array(|i| &v[i].c0)),
            c1: FqLanes::gather(body, B::array(|i| &v[i].c1)),
        }
    }

    #[inline(always)]
    fn scatter<B: LaneBody>(v: Fp2Lanes<B>) -> B::Array<Fp2> {
        let (c0, c1) = (v.c0.scatter(), v.c1.scatter());
        B::array(|i| Fp2::new(c0.as_ref()[i], c1.as_ref()[i]))
    }

    /// As [`Fp2`]'s square: `(c0 − c1)(c0 + c1) + 2·c0·c1·u`.
    #[inline(always)]
    fn square_lanes<B: LaneBody>(v: Fp2Lanes<B>) -> Fp2Lanes<B> {
        let c = v.c0 * v.c1;
        Fp2Lanes {
            c0: (v.c0 - v.c1) * (v.c0 + v.c1),
            c1: c + c,
        }
    }
}

impl LaneCoord for Fp2 {
    #[inline(always)]
    fn norm<B: LaneBody>(v: Fp2Lanes<B>) -> FqLanes<B> {
        v.c0.square() + v.c1.square()
    }

    /// `v̄ · N(v)⁻¹`, as [`Fp2`]'s `inverse` computes it.
    #[inline(always)]
    fn inverse_from_norm<B: LaneBody>(v: Fp2Lanes<B>, norm_inv: FqLanes<B>) -> Fp2Lanes<B> {
        Fp2Lanes {
            c0: v.c0 * norm_inv,
            c1: -(v.c1 * norm_inv),
        }
    }
}

impl Field for Fp2 {
    fn zero() -> Self {
        Fp2 {
            c0: Fq::zero(),
            c1: Fq::zero(),
        }
    }

    fn one() -> Self {
        Fp2 {
            c0: Fq::one(),
            c1: Fq::zero(),
        }
    }

    fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero()
    }

    fn square(&self) -> Self {
        // (a0 + a1 u)² = (a0−a1)(a0+a1) + 2·a0·a1·u
        let a = self.c0 - self.c1;
        let b = self.c0 + self.c1;
        let c = self.c0 * self.c1;
        Fp2 {
            c0: a * b,
            c1: c.double(),
        }
    }

    fn inverse(&self) -> Option<Self> {
        // 1/(a0 + a1 u) = (a0 − a1 u)/(a0² + a1²)
        let norm_inv = self.norm().inverse()?;
        Some(Fp2 {
            c0: self.c0 * norm_inv,
            c1: -(self.c1 * norm_inv),
        })
    }

    fn random<R: rand::Rng + ?Sized>(rng: &mut R) -> Self {
        Fp2 {
            c0: Fq::random(rng),
            c1: Fq::random(rng),
        }
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
