//! Cubic extension `Fp6 = Fp2[v]/(v³ − ξ)` with `ξ = 9 + u`.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::sync::OnceLock;

use waku_arith::biguint::BigUint;
use waku_arith::fields::Fq;
use waku_arith::fp::{LaneBody, LaneField};
use waku_arith::traits::{Field, PrimeField};

use crate::fp2::{Fp2, Fp2Lanes};
use crate::point::FqLanes;

/// An element `c0 + c1·v + c2·v²` of Fp6.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default)]
pub struct Fp6 {
    /// Constant coefficient.
    pub c0: Fp2,
    /// Coefficient of `v`.
    pub c1: Fp2,
    /// Coefficient of `v²`.
    pub c2: Fp2,
}

/// Frobenius constants `γ1ᵢ = ξ^((pⁱ−1)/3)` and `γ2ᵢ = γ1ᵢ²` for i = 0..=3,
/// derived at first use from the modulus (no magic tables).
fn frobenius_coeffs() -> &'static [(Fp2, Fp2); 4] {
    static CELL: OnceLock<[(Fp2, Fp2); 4]> = OnceLock::new();
    CELL.get_or_init(|| {
        let p = BigUint::from_limbs(&<Fq as PrimeField>::MODULUS);
        let three = BigUint::from(3u64);
        let mut out = [(Fp2::one(), Fp2::one()); 4];
        for (i, slot) in out.iter_mut().enumerate() {
            let p_i = p.pow(i as u32);
            let (e1, r) = p_i.sub(&BigUint::one()).div_rem(&three);
            assert!(r.is_zero(), "p^i - 1 must be divisible by 3");
            let g1 = Fp2::xi().pow(e1.limbs());
            *slot = (g1, g1.square());
        }
        out
    })
}

impl Fp6 {
    /// Builds an element from its Fp2 coefficients.
    pub const fn new(c0: Fp2, c1: Fp2, c2: Fp2) -> Self {
        Fp6 { c0, c1, c2 }
    }

    /// Embeds an Fp2 element.
    pub fn from_fp2(c0: Fp2) -> Self {
        Fp6 {
            c0,
            c1: Fp2::zero(),
            c2: Fp2::zero(),
        }
    }

    /// Multiplication by `v`: `(c0 + c1·v + c2·v²)·v = c2·ξ + c0·v + c1·v²`.
    pub fn mul_by_v(&self) -> Self {
        Fp6 {
            c0: self.c2.mul_by_nonresidue(),
            c1: self.c0,
            c2: self.c1,
        }
    }

    /// Frobenius endomorphism `x ↦ x^(p^power)` for `power ≤ 3`.
    ///
    /// # Panics
    ///
    /// Panics if `power > 3`.
    pub fn frobenius_map(&self, power: usize) -> Self {
        assert!(power <= 3, "frobenius power out of precomputed range");
        let (g1, g2) = frobenius_coeffs()[power];
        Fp6 {
            c0: self.c0.frobenius_map(power),
            c1: self.c1.frobenius_map(power) * g1,
            c2: self.c2.frobenius_map(power) * g2,
        }
    }

    /// Multiplies every coefficient by an Fp2 scalar.
    pub fn scale(&self, s: Fp2) -> Self {
        Fp6 {
            c0: self.c0 * s,
            c1: self.c1 * s,
            c2: self.c2 * s,
        }
    }

    /// Multiplies every coefficient by an Fq scalar (6 Fq products).
    pub fn scale_base(&self, s: Fq) -> Self {
        Fp6 {
            c0: self.c0.scale(s),
            c1: self.c1.scale(s),
            c2: self.c2.scale(s),
        }
    }

    /// Product with the sparse element `a + b·v` (no `v²` term): five Fp2
    /// products instead of the six of a full multiplication —
    /// `(c0·a + ξ·c2·b) + (c0·b + c1·a)·v + (c1·b + c2·a)·v²`, the middle
    /// coefficient by Karatsuba.
    pub fn mul_by_01(&self, a: Fp2, b: Fp2) -> Self {
        let v0 = self.c0 * a;
        let v1 = self.c1 * b;
        Fp6 {
            c0: v0 + (self.c2 * b).mul_by_nonresidue(),
            c1: (self.c0 + self.c1) * (a + b) - v0 - v1,
            c2: v1 + self.c2 * a,
        }
    }
}

impl Add for Fp6 {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Fp6 {
            c0: self.c0 + rhs.c0,
            c1: self.c1 + rhs.c1,
            c2: self.c2 + rhs.c2,
        }
    }
}

impl Sub for Fp6 {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Fp6 {
            c0: self.c0 - rhs.c0,
            c1: self.c1 - rhs.c1,
            c2: self.c2 - rhs.c2,
        }
    }
}

impl Mul for Fp6 {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        // Toom-like interpolation (standard Fp6 Karatsuba).
        let v0 = self.c0 * rhs.c0;
        let v1 = self.c1 * rhs.c1;
        let v2 = self.c2 * rhs.c2;
        let c0 = ((self.c1 + self.c2) * (rhs.c1 + rhs.c2) - v1 - v2).mul_by_nonresidue() + v0;
        let c1 = (self.c0 + self.c1) * (rhs.c0 + rhs.c1) - v0 - v1 + v2.mul_by_nonresidue();
        let c2 = (self.c0 + self.c2) * (rhs.c0 + rhs.c2) - v0 - v2 + v1;
        Fp6 { c0, c1, c2 }
    }
}

impl Neg for Fp6 {
    type Output = Self;
    fn neg(self) -> Self {
        Fp6 {
            c0: -self.c0,
            c1: -self.c1,
            c2: -self.c2,
        }
    }
}

impl AddAssign for Fp6 {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl SubAssign for Fp6 {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl MulAssign for Fp6 {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

/// `B::WIDTH` Fp6 elements on lane body `B`, coefficient by coefficient,
/// with [`Fp6`]'s formulas: the Miller loop's per-lane accumulators are
/// built from them.
#[derive(Clone, Copy)]
pub(crate) struct Fp6Lanes<B: LaneBody> {
    pub(crate) c0: Fp2Lanes<B>,
    pub(crate) c1: Fp2Lanes<B>,
    pub(crate) c2: Fp2Lanes<B>,
}

impl<B: LaneBody> Fp6Lanes<B> {
    /// Loads the elements behind `v`, lane `i` from `v[i]`.
    #[inline(always)]
    pub(crate) fn gather(body: B, v: B::Array<&Fp6>) -> Self {
        let v = v.as_ref();
        Fp6Lanes {
            c0: Fp2::gather(body, B::array(|i| &v[i].c0)),
            c1: Fp2::gather(body, B::array(|i| &v[i].c1)),
            c2: Fp2::gather(body, B::array(|i| &v[i].c2)),
        }
    }

    /// The elements, lane `i` at index `i`.
    #[inline(always)]
    pub(crate) fn scatter(self) -> B::Array<Fp6> {
        let (c0, c1, c2) = (
            Fp2::scatter(self.c0),
            Fp2::scatter(self.c1),
            Fp2::scatter(self.c2),
        );
        B::array(|i| Fp6::new(c0.as_ref()[i], c1.as_ref()[i], c2.as_ref()[i]))
    }

    /// `2·self`.
    #[inline(always)]
    pub(crate) fn double(self) -> Self {
        self + self
    }

    /// As [`Fp6::mul_by_v`].
    #[inline(always)]
    pub(crate) fn mul_by_v(self) -> Self {
        Fp6Lanes {
            c0: self.c2.mul_by_nonresidue(),
            c1: self.c0,
            c2: self.c1,
        }
    }

    /// As [`Fp6::scale_base`].
    #[inline(always)]
    pub(crate) fn scale_base(self, s: FqLanes<B>) -> Self {
        Fp6Lanes {
            c0: self.c0.scale(s),
            c1: self.c1.scale(s),
            c2: self.c2.scale(s),
        }
    }

    /// As [`Fp6::mul_by_01`].
    #[inline(always)]
    pub(crate) fn mul_by_01(self, a: Fp2Lanes<B>, b: Fp2Lanes<B>) -> Self {
        let [v0, v1, c2b, s, c2a] = products(
            [self.c0, self.c1, self.c2, self.c0 + self.c1, self.c2],
            [a, b, b, a + b, a],
        );
        Fp6Lanes {
            c0: v0 + c2b.mul_by_nonresidue(),
            c1: s - v0 - v1,
            c2: v1 + c2a,
        }
    }
}

/// `a[k]·b[k]` for every `k`, in a loop LLVM keeps rolled: unrolled, the
/// tower's lane products made functions LLVM took minutes to compile.
#[inline(always)]
fn products<B: LaneBody, const N: usize>(
    a: [Fp2Lanes<B>; N],
    b: [Fp2Lanes<B>; N],
) -> [Fp2Lanes<B>; N] {
    let mut out = a;
    for k in 0..N {
        out[k] = a[k] * b[k];
    }
    out
}

impl<B: LaneBody> Add for Fp6Lanes<B> {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Fp6Lanes {
            c0: self.c0 + rhs.c0,
            c1: self.c1 + rhs.c1,
            c2: self.c2 + rhs.c2,
        }
    }
}

impl<B: LaneBody> Sub for Fp6Lanes<B> {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Fp6Lanes {
            c0: self.c0 - rhs.c0,
            c1: self.c1 - rhs.c1,
            c2: self.c2 - rhs.c2,
        }
    }
}

impl<B: LaneBody> Mul for Fp6Lanes<B> {
    type Output = Self;
    /// As [`Fp6`]'s product.
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        let (a, b) = (self, rhs);
        let [v0, v1, v2, s12, s01, s02] = products(
            [a.c0, a.c1, a.c2, a.c1 + a.c2, a.c0 + a.c1, a.c0 + a.c2],
            [b.c0, b.c1, b.c2, b.c1 + b.c2, b.c0 + b.c1, b.c0 + b.c2],
        );
        let c0 = (s12 - v1 - v2).mul_by_nonresidue() + v0;
        let c1 = s01 - v0 - v1 + v2.mul_by_nonresidue();
        let c2 = s02 - v0 - v2 + v1;
        Fp6Lanes { c0, c1, c2 }
    }
}

impl fmt::Debug for Fp6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fp6({:?}, {:?}, {:?})", self.c0, self.c1, self.c2)
    }
}

impl fmt::Display for Fp6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}) + ({})·v + ({})·v²", self.c0, self.c1, self.c2)
    }
}

impl Field for Fp6 {
    fn zero() -> Self {
        Fp6 {
            c0: Fp2::zero(),
            c1: Fp2::zero(),
            c2: Fp2::zero(),
        }
    }

    fn one() -> Self {
        Fp6 {
            c0: Fp2::one(),
            c1: Fp2::zero(),
            c2: Fp2::zero(),
        }
    }

    fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero() && self.c2.is_zero()
    }

    fn square(&self) -> Self {
        // CH-SQR2 squaring.
        let s0 = self.c0.square();
        let ab = self.c0 * self.c1;
        let s1 = ab.double();
        let s2 = (self.c0 - self.c1 + self.c2).square();
        let bc = self.c1 * self.c2;
        let s3 = bc.double();
        let s4 = self.c2.square();
        Fp6 {
            c0: s0 + s3.mul_by_nonresidue(),
            c1: s1 + s4.mul_by_nonresidue(),
            c2: s1 + s2 + s3 - s0 - s4,
        }
    }

    fn inverse(&self) -> Option<Self> {
        // Standard cubic-extension inversion via the adjugate.
        let a = self.c0.square() - (self.c1 * self.c2).mul_by_nonresidue();
        let b = self.c2.square().mul_by_nonresidue() - self.c0 * self.c1;
        let c = self.c1.square() - self.c0 * self.c2;
        let t = (self.c2 * b + self.c1 * c).mul_by_nonresidue() + self.c0 * a;
        let t_inv = t.inverse()?;
        Some(Fp6 {
            c0: a * t_inv,
            c1: b * t_inv,
            c2: c * t_inv,
        })
    }

    fn random<R: rand::Rng + ?Sized>(rng: &mut R) -> Self {
        Fp6 {
            c0: Fp2::random(rng),
            c1: Fp2::random(rng),
            c2: Fp2::random(rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn v_cubed_is_xi() {
        let v = Fp6::new(Fp2::zero(), Fp2::one(), Fp2::zero());
        let v3 = v * v * v;
        assert_eq!(v3, Fp6::from_fp2(Fp2::xi()));
    }

    #[test]
    fn mul_by_v_matches_mul() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Fp6::random(&mut rng);
        let v = Fp6::new(Fp2::zero(), Fp2::one(), Fp2::zero());
        assert_eq!(a.mul_by_v(), a * v);
    }

    #[test]
    fn sparse_and_scalar_products_match_mul() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..10 {
            let x = Fp6::random(&mut rng);
            let (a, b) = (Fp2::random(&mut rng), Fp2::random(&mut rng));
            assert_eq!(x.mul_by_01(a, b), x * Fp6::new(a, b, Fp2::zero()));
            let s = Fq::random(&mut rng);
            assert_eq!(x.scale_base(s), x * Fp6::from_fp2(Fp2::from_base(s)));
        }
    }

    #[test]
    fn square_matches_mul() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10 {
            let a = Fp6::random(&mut rng);
            assert_eq!(a.square(), a * a);
        }
    }

    #[test]
    fn inverse_roundtrip() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let a = Fp6::random(&mut rng);
            if a.is_zero() {
                continue;
            }
            assert_eq!(a * a.inverse().unwrap(), Fp6::one());
        }
        assert!(Fp6::zero().inverse().is_none());
    }

    #[test]
    fn associativity() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Fp6::random(&mut rng);
        let b = Fp6::random(&mut rng);
        let c = Fp6::random(&mut rng);
        assert_eq!((a * b) * c, a * (b * c));
    }

    #[test]
    fn frobenius_is_pth_power() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = Fp6::random(&mut rng);
        assert_eq!(
            a.frobenius_map(1),
            a.pow(&<Fq as PrimeField>::MODULUS),
            "frobenius(1) must equal x^p"
        );
        assert_eq!(a.frobenius_map(0), a);
        assert_eq!(a.frobenius_map(1).frobenius_map(1), a.frobenius_map(2));
        assert_eq!(a.frobenius_map(2).frobenius_map(1), a.frobenius_map(3));
    }
}
