//! Cubic extension `Fp6 = Fp2[v]/(v³ − ξ)` with `ξ = 9 + u`, over any
//! [`Ring`] in Fq's place (see [`crate::fp2`]).

use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::sync::OnceLock;

use waku_arith::biguint::BigUint;
use waku_arith::fields::Fq;
use waku_arith::fp::{LaneBody, LaneField, Ring};
use waku_arith::traits::{Field, PrimeField};

use crate::fp2::{Fp2, Fp2Over};
use crate::point::FqLanes;

/// An element `c0 + c1·v + c2·v²` of Fp6, its coefficients in Fp2 over `F`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default)]
pub struct Fp6Over<F> {
    /// Constant coefficient.
    pub c0: Fp2Over<F>,
    /// Coefficient of `v`.
    pub c1: Fp2Over<F>,
    /// Coefficient of `v²`.
    pub c2: Fp2Over<F>,
}

/// Fp6 over Fq.
pub type Fp6 = Fp6Over<Fq>;

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

impl<F> Fp6Over<F> {
    /// Builds an element from its Fp2 coefficients.
    pub const fn new(c0: Fp2Over<F>, c1: Fp2Over<F>, c2: Fp2Over<F>) -> Self {
        Fp6Over { c0, c1, c2 }
    }
}

impl<F: Ring> Fp6Over<F> {
    /// Multiplication by `v`: `(c0 + c1·v + c2·v²)·v = c2·ξ + c0·v + c1·v²`.
    #[inline(always)]
    pub fn mul_by_v(&self) -> Self {
        Fp6Over::new(self.c2.mul_by_nonresidue(), self.c0, self.c1)
    }

    /// Multiplies every coefficient by an Fp2 scalar.
    #[inline(always)]
    pub fn scale(&self, s: Fp2Over<F>) -> Self {
        Fp6Over::new(self.c0 * s, self.c1 * s, self.c2 * s)
    }

    /// Multiplies every coefficient by a scalar of `F` (6 `F` products).
    #[inline(always)]
    pub fn scale_base(&self, s: F) -> Self {
        Fp6Over::new(self.c0.scale(s), self.c1.scale(s), self.c2.scale(s))
    }

    /// Product with the sparse element `a + b·v` (no `v²` term): five Fp2
    /// products instead of the six of a full multiplication —
    /// `(c0·a + ξ·c2·b) + (c0·b + c1·a)·v + (c1·b + c2·a)·v²`, the middle
    /// coefficient by Karatsuba.
    #[inline(always)]
    pub fn mul_by_01(&self, a: Fp2Over<F>, b: Fp2Over<F>) -> Self {
        F::call(
            #[inline(always)]
            || {
                let [v0, v1, c2b, s, c2a] = products(
                    [self.c0, self.c1, self.c2, self.c0 + self.c1, self.c2],
                    [a, b, b, a + b, a],
                );
                Fp6Over::new(v0 + c2b.mul_by_nonresidue(), s - v0 - v1, v1 + c2a)
            },
        )
    }
}

/// `a[k]·b[k]` for every `k`, in a loop LLVM keeps rolled: unrolled, the
/// tower's lane products made functions LLVM took minutes to compile.
#[inline(always)]
fn products<F: Ring, const N: usize>(a: [Fp2Over<F>; N], b: [Fp2Over<F>; N]) -> [Fp2Over<F>; N] {
    let mut out = a;
    for k in 0..N {
        out[k] = a[k] * b[k];
    }
    out
}

impl Fp6 {
    /// Embeds an Fp2 element.
    pub fn from_fp2(c0: Fp2) -> Self {
        Fp6::new(c0, Fp2::zero(), Fp2::zero())
    }

    /// Frobenius endomorphism `x ↦ x^(p^power)` for `power ≤ 3`.
    ///
    /// # Panics
    ///
    /// Panics if `power > 3`.
    pub fn frobenius_map(&self, power: usize) -> Self {
        assert!(power <= 3, "frobenius power out of precomputed range");
        let (g1, g2) = frobenius_coeffs()[power];
        Fp6::new(
            self.c0.frobenius_map(power),
            self.c1.frobenius_map(power) * g1,
            self.c2.frobenius_map(power) * g2,
        )
    }
}

impl<F: Ring> Add for Fp6Over<F> {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Fp6Over::new(self.c0 + rhs.c0, self.c1 + rhs.c1, self.c2 + rhs.c2)
    }
}

impl<F: Ring> Sub for Fp6Over<F> {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Fp6Over::new(self.c0 - rhs.c0, self.c1 - rhs.c1, self.c2 - rhs.c2)
    }
}

impl<F: Ring> Mul for Fp6Over<F> {
    type Output = Self;
    /// Toom-like interpolation (standard Fp6 Karatsuba).
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        let (a, b) = (self, rhs);
        F::call(
            #[inline(always)]
            || {
                let [v0, v1, v2, s12, s01, s02] = products(
                    [a.c0, a.c1, a.c2, a.c1 + a.c2, a.c0 + a.c1, a.c0 + a.c2],
                    [b.c0, b.c1, b.c2, b.c1 + b.c2, b.c0 + b.c1, b.c0 + b.c2],
                );
                let c0 = (s12 - v1 - v2).mul_by_nonresidue() + v0;
                let c1 = s01 - v0 - v1 + v2.mul_by_nonresidue();
                let c2 = s02 - v0 - v2 + v1;
                Fp6Over::new(c0, c1, c2)
            },
        )
    }
}

impl<F: Ring> Neg for Fp6Over<F> {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Fp6Over::new(-self.c0, -self.c1, -self.c2)
    }
}

impl<F: Ring> Ring for Fp6Over<F> {
    /// CH-SQR2 squaring.
    #[inline(always)]
    fn square(self) -> Self {
        F::call(
            #[inline(always)]
            || {
                let s0 = self.c0.square();
                let s1 = (self.c0 * self.c1).double();
                let s2 = (self.c0 - self.c1 + self.c2).square();
                let s3 = (self.c1 * self.c2).double();
                let s4 = self.c2.square();
                Fp6Over::new(
                    s0 + s3.mul_by_nonresidue(),
                    s1 + s4.mul_by_nonresidue(),
                    s1 + s2 + s3 - s0 - s4,
                )
            },
        )
    }
}

impl<F: Ring> AddAssign for Fp6Over<F> {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl<F: Ring> SubAssign for Fp6Over<F> {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl<F: Ring> MulAssign for Fp6Over<F> {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
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

impl LaneField for Fp6 {
    type Lanes<B: LaneBody> = Fp6Over<FqLanes<B>>;

    #[inline(always)]
    fn gather<B: LaneBody>(body: B, v: B::Array<&Fp6>) -> Self::Lanes<B> {
        let v = v.as_ref();
        Fp6Over::new(
            Fp2::gather(body, B::array(|i| &v[i].c0)),
            Fp2::gather(body, B::array(|i| &v[i].c1)),
            Fp2::gather(body, B::array(|i| &v[i].c2)),
        )
    }

    #[inline(always)]
    fn scatter<B: LaneBody>(v: Self::Lanes<B>) -> B::Array<Fp6> {
        let (c0, c1, c2) = (Fp2::scatter(v.c0), Fp2::scatter(v.c1), Fp2::scatter(v.c2));
        B::array(|i| Fp6::new(c0.as_ref()[i], c1.as_ref()[i], c2.as_ref()[i]))
    }
}

impl Field for Fp6 {
    fn zero() -> Self {
        Fp6::from_fp2(Fp2::zero())
    }

    fn one() -> Self {
        Fp6::from_fp2(Fp2::one())
    }

    fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero() && self.c2.is_zero()
    }

    fn square(&self) -> Self {
        Ring::square(*self)
    }

    fn inverse(&self) -> Option<Self> {
        // Standard cubic-extension inversion via the adjugate.
        let a = self.c0.square() - (self.c1 * self.c2).mul_by_nonresidue();
        let b = self.c2.square().mul_by_nonresidue() - self.c0 * self.c1;
        let c = self.c1.square() - self.c0 * self.c2;
        let t = (self.c2 * b + self.c1 * c).mul_by_nonresidue() + self.c0 * a;
        let t_inv = t.inverse()?;
        Some(Fp6::new(a * t_inv, b * t_inv, c * t_inv))
    }

    fn random<R: rand::Rng + ?Sized>(rng: &mut R) -> Self {
        Fp6::new(Fp2::random(rng), Fp2::random(rng), Fp2::random(rng))
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
