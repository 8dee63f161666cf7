//! Quadratic extension `Fp12 = Fp6[w]/(w² − v)` — the pairing target
//! field — over any [`Ring`] in Fq's place (see [`crate::fp2`]).

use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::sync::OnceLock;

use waku_arith::biguint::BigUint;
use waku_arith::fields::Fq;
use waku_arith::fp::{LaneBody, LaneField, Ring};
use waku_arith::traits::{Field, PrimeField};

use crate::fp2::{Fp2, Fp2Over};
use crate::fp6::{Fp6, Fp6Over};
use crate::point::FqLanes;

/// An element `c0 + c1·w` of Fp12, its coefficients in Fp6 over `F`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default)]
pub struct Fp12Over<F> {
    /// Constant coefficient.
    pub c0: Fp6Over<F>,
    /// Coefficient of `w`.
    pub c1: Fp6Over<F>,
}

/// Fp12 over Fq.
pub type Fp12 = Fp12Over<Fq>;

/// Frobenius constants `γᵢ = ξ^((pⁱ−1)/6)` for i = 0..=3, derived at first
/// use.
fn frobenius_coeffs() -> &'static [Fp2; 4] {
    static CELL: OnceLock<[Fp2; 4]> = OnceLock::new();
    CELL.get_or_init(|| {
        let p = BigUint::from_limbs(&<Fq as PrimeField>::MODULUS);
        let six = BigUint::from(6u64);
        let mut out = [Fp2::one(); 4];
        for (i, slot) in out.iter_mut().enumerate() {
            let p_i = p.pow(i as u32);
            let (e, r) = p_i.sub(&BigUint::one()).div_rem(&six);
            assert!(r.is_zero(), "p^i - 1 must be divisible by 6");
            *slot = Fp2::xi().pow(e.limbs());
        }
        out
    })
}

/// The non-adjacent form of `exp` (little-endian limbs): digits in
/// `{−1, 0, 1}`, least significant first, with `Σ dᵢ·2ⁱ = exp` and no two
/// adjacent digits nonzero. One digit more than `exp` has bits.
fn naf(exp: &[u64]) -> Vec<i8> {
    let bit = |i: usize| exp.get(i / 64).map_or(0, |limb| (limb >> (i % 64)) & 1);
    let mut carry = 0;
    (0..=64 * exp.len())
        .map(|i| match bit(i) + carry {
            // An odd remainder ≡ 3 (mod 4) takes −1 and carries into the
            // next bit, ≡ 1 takes +1; either way the next digit is 0.
            1 if bit(i + 1) == 1 => {
                carry = 1;
                -1
            }
            1 => {
                carry = 0;
                1
            }
            v => {
                carry = v / 2;
                0
            }
        })
        .collect()
}

impl<F> Fp12Over<F> {
    /// Builds an element from its Fp6 coefficients.
    pub const fn new(c0: Fp6Over<F>, c1: Fp6Over<F>) -> Self {
        Fp12Over { c0, c1 }
    }
}

impl<F: Ring> Fp12Over<F> {
    /// Product with the sparse element `c + (a + b·v)·w`, `c` in `F` — the
    /// shape of a Miller-loop line evaluated at a G1 point. Karatsuba over
    /// `w` with one `F` scaling and two 5-product sparse Fp6
    /// multiplications: 36 `F` products against 54 for the dense `*`.
    #[inline(always)]
    pub fn mul_by_line(&self, c: F, a: Fp2Over<F>, b: Fp2Over<F>) -> Self {
        F::call(
            #[inline(always)]
            || {
                let v0 = self.c0.scale_base(c);
                let v1 = self.c1.mul_by_01(a, b);
                let s = (self.c0 + self.c1).mul_by_01(Fp2Over::new(a.c0 + c, a.c1), b);
                Fp12Over::new(v0 + v1.mul_by_v(), s - v0 - v1)
            },
        )
    }
}

impl Fp12 {
    /// Embeds an Fp6 element.
    pub fn from_fp6(c0: Fp6) -> Self {
        Fp12::new(c0, Fp6::zero())
    }

    /// Embeds an Fq element.
    pub fn from_base(c: Fq) -> Self {
        Fp12::from_fp6(Fp6::from_fp2(Fp2::from_base(c)))
    }

    /// Conjugation `c0 − c1·w`; equals the `p⁶`-power Frobenius, and for
    /// elements in the cyclotomic subgroup equals inversion.
    pub fn conjugate(&self) -> Self {
        Fp12::new(self.c0, -self.c1)
    }

    /// Frobenius endomorphism `x ↦ x^(p^power)` for `power ≤ 3`.
    ///
    /// # Panics
    ///
    /// Panics if `power > 3`.
    pub fn frobenius_map(&self, power: usize) -> Self {
        assert!(power <= 3, "frobenius power out of precomputed range");
        let g = frobenius_coeffs()[power];
        Fp12::new(
            self.c0.frobenius_map(power),
            self.c1.frobenius_map(power).scale(g),
        )
    }

    /// Granger–Scott squaring for elements of the cyclotomic subgroup
    /// `G_Φ₆(p²) = { g : g^(p⁴−p²+1) = 1 }` — everything that has been
    /// through the easy part `^(p⁶−1)(p²+1)` of the final exponentiation,
    /// hence every pairing value. Three Fp4 squarings (6 Fp2 products)
    /// instead of the 12 Fp2 products of [`Field::square`], and exact: for
    /// `g` in the subgroup the result equals `g.square()` bit for bit.
    ///
    /// **Not valid outside the subgroup**: for a general `Fp12` element it
    /// returns some other value, so it must never be called on a raw
    /// Miller-loop output before the easy part.
    pub fn cyclotomic_square(&self) -> Self {
        // (a + b·y)² over Fp4 = Fp2[y]/(y² − ξ): (a² + ξ·b², 2ab).
        fn fp4_square(a: Fp2, b: Fp2) -> (Fp2, Fp2) {
            let ab = a * b;
            let t0 = (a + b) * (a + b.mul_by_nonresidue()) - ab - ab.mul_by_nonresidue();
            (t0, ab.double())
        }
        // 3t − 2z and 3t + 2z.
        fn three_t_minus_2z(t: Fp2, z: Fp2) -> Fp2 {
            (t - z).double() + t
        }
        fn three_t_plus_2z(t: Fp2, z: Fp2) -> Fp2 {
            (t + z).double() + t
        }
        // With w⁶ = ξ, the pairs (w⁰,w³), (w¹,w⁴), (w²,w⁵) are the three
        // Fp4 coordinates of g over the basis {1, w, w²}.
        let (z0, z4, z3) = (self.c0.c0, self.c0.c1, self.c0.c2);
        let (z2, z1, z5) = (self.c1.c0, self.c1.c1, self.c1.c2);
        let (t0, t1) = fp4_square(z0, z1);
        let (t2, t3) = fp4_square(z2, z3);
        let (t4, t5) = fp4_square(z4, z5);
        Fp12::new(
            Fp6::new(
                three_t_minus_2z(t0, z0),
                three_t_minus_2z(t2, z4),
                three_t_minus_2z(t4, z3),
            ),
            Fp6::new(
                three_t_plus_2z(t5.mul_by_nonresidue(), z2),
                three_t_plus_2z(t1, z1),
                three_t_plus_2z(t3, z5),
            ),
        )
    }

    /// `self^exp` for `self` in the cyclotomic subgroup (see
    /// [`Fp12::cyclotomic_square`] for the precondition), `exp` as
    /// little-endian limbs: a square-and-multiply ladder over the signed
    /// (NAF) digits of `exp` on the cheaper squaring, same result as
    /// [`Field::pow`]. In the subgroup the inverse is the conjugate, so a
    /// −1 digit costs one product like a +1 digit, and a NAF has about a
    /// third of its digits nonzero against half the bits of a random
    /// binary exponent (BN's `x`: 24 against 28).
    pub fn cyclotomic_pow(&self, exp: &[u64]) -> Self {
        let inverse = self.conjugate();
        let mut digits = naf(exp).into_iter().rev().skip_while(|&d| d == 0);
        // The top nonzero digit of a NAF is +1.
        if digits.next().is_none() {
            return Fp12::one();
        }
        let mut res = *self;
        for digit in digits {
            res = res.cyclotomic_square();
            match digit {
                1 => res *= *self,
                -1 => res *= inverse,
                _ => {}
            }
        }
        res
    }
}

impl<F: Ring> Add for Fp12Over<F> {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Fp12Over::new(self.c0 + rhs.c0, self.c1 + rhs.c1)
    }
}

impl<F: Ring> Sub for Fp12Over<F> {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Fp12Over::new(self.c0 - rhs.c0, self.c1 - rhs.c1)
    }
}

impl<F: Ring> Mul for Fp12Over<F> {
    type Output = Self;
    /// Karatsuba with `w² = v`.
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        F::call(
            #[inline(always)]
            || {
                let v0 = self.c0 * rhs.c0;
                let v1 = self.c1 * rhs.c1;
                let s = (self.c0 + self.c1) * (rhs.c0 + rhs.c1);
                Fp12Over::new(v0 + v1.mul_by_v(), s - v0 - v1)
            },
        )
    }
}

impl<F: Ring> Neg for Fp12Over<F> {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Fp12Over::new(-self.c0, -self.c1)
    }
}

impl<F: Ring> Ring for Fp12Over<F> {
    /// Complex squaring: `(c0 + c1 w)² = (c0² + c1²·v) + 2c0c1·w`.
    #[inline(always)]
    fn square(self) -> Self {
        F::call(
            #[inline(always)]
            || {
                let ab = self.c0 * self.c1;
                let a = self.c0 + self.c1;
                let b = self.c0 + self.c1.mul_by_v();
                Fp12Over::new(a * b - ab - ab.mul_by_v(), ab.double())
            },
        )
    }
}

impl<F: Ring> AddAssign for Fp12Over<F> {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl<F: Ring> SubAssign for Fp12Over<F> {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl<F: Ring> MulAssign for Fp12Over<F> {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl fmt::Debug for Fp12 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fp12({:?} + ({:?})·w)", self.c0, self.c1)
    }
}

impl fmt::Display for Fp12 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}) + ({})·w", self.c0, self.c1)
    }
}

impl LaneField for Fp12 {
    type Lanes<B: LaneBody> = Fp12Over<FqLanes<B>>;

    #[inline(always)]
    fn gather<B: LaneBody>(body: B, v: B::Array<&Fp12>) -> Self::Lanes<B> {
        let v = v.as_ref();
        Fp12Over::new(
            Fp6::gather(body, B::array(|i| &v[i].c0)),
            Fp6::gather(body, B::array(|i| &v[i].c1)),
        )
    }

    #[inline(always)]
    fn scatter<B: LaneBody>(v: Self::Lanes<B>) -> B::Array<Fp12> {
        let (c0, c1) = (Fp6::scatter(v.c0), Fp6::scatter(v.c1));
        B::array(|i| Fp12::new(c0.as_ref()[i], c1.as_ref()[i]))
    }
}

impl Field for Fp12 {
    fn zero() -> Self {
        Fp12::from_fp6(Fp6::zero())
    }

    fn one() -> Self {
        Fp12::from_fp6(Fp6::one())
    }

    fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero()
    }

    fn square(&self) -> Self {
        Ring::square(*self)
    }

    fn inverse(&self) -> Option<Self> {
        // 1/(c0 + c1 w) = (c0 − c1 w)/(c0² − c1²·v)
        let t = self.c0.square() - self.c1.square().mul_by_v();
        let t_inv = t.inverse()?;
        Some(Fp12::new(self.c0 * t_inv, -(self.c1 * t_inv)))
    }

    fn random<R: rand::Rng + ?Sized>(rng: &mut R) -> Self {
        Fp12::new(Fp6::random(rng), Fp6::random(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use waku_arith::fp::{with_lanes, LaneField, LaneTask, Portable};

    #[test]
    fn w_squared_is_v() {
        let w = Fp12::new(Fp6::zero(), Fp6::one());
        let v = Fp12::from_fp6(Fp6::new(Fp2::zero(), Fp2::one(), Fp2::zero()));
        assert_eq!(w.square(), v);
        assert_eq!(w * w, v);
    }

    #[test]
    fn square_matches_mul() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            let a = Fp12::random(&mut rng);
            assert_eq!(a.square(), a * a);
        }
    }

    /// `f^((p⁶−1)(p²+1))`: a random element of the cyclotomic subgroup.
    fn random_cyclotomic(rng: &mut StdRng) -> Fp12 {
        let f = Fp12::random(rng);
        let f1 = f.conjugate() * f.inverse().unwrap();
        f1.frobenius_map(2) * f1
    }

    #[test]
    fn cyclotomic_square_matches_square_in_the_subgroup() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..32 {
            let g = random_cyclotomic(&mut rng);
            assert_eq!(g.cyclotomic_square(), g.square());
            // In the subgroup, conjugation is inversion.
            assert_eq!(g * g.conjugate(), Fp12::one());
        }
        assert_eq!(Fp12::one().cyclotomic_square(), Fp12::one());
    }

    #[test]
    fn cyclotomic_square_is_wrong_outside_the_subgroup() {
        // The precondition is real: on a general element (e.g. a raw
        // Miller-loop output, before the easy part) the shortcut gives a
        // different value, so the final exponentiation may only use it
        // after the easy part.
        let mut rng = StdRng::seed_from_u64(7);
        let f = Fp12::random(&mut rng);
        assert_ne!(f.cyclotomic_square(), f.square());
        let two = Fp12::from_base(Fq::from_u64(2));
        assert_ne!(two.cyclotomic_square(), two.square());
    }

    #[test]
    fn cyclotomic_pow_matches_pow() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = random_cyclotomic(&mut rng);
        let exps: [&[u64]; 12] = [
            &[],
            &[0],
            &[1],
            &[3],
            &[0, 0, 1],
            &[crate::pairing::BN_X],
            &[u64::MAX],
            &[0x5555_5555_5555_5555],
            &[u64::MAX, u64::MAX, 0x7F],
            &[0x0123_4567_89AB_CDEF, 0xFEDC_BA98_7654_3210, 0x7F],
            &[0xAAAA_AAAA_AAAA_AAAA, 0, u64::MAX],
            // A 135-bit exponent: a partial top limb above two full ones.
            &[0x9E37_79B9_7F4A_7C15, 0xF39C_C060_5CED_C834, 0x4B],
        ];
        for exp in exps {
            assert_eq!(g.cyclotomic_pow(exp), g.pow(exp), "exp = {exp:?}");
        }
        // Zero is outside the subgroup but keeps the ladder's value: its
        // conjugate is zero too, so every product stays zero.
        assert_eq!(Fp12::zero().cyclotomic_pow(&[u64::MAX]), Fp12::zero());
    }

    #[test]
    fn naf_reconstructs_its_exponent_without_adjacent_digits() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut exps: Vec<Vec<u64>> = vec![
            vec![],
            vec![0],
            vec![1],
            vec![u64::MAX],
            vec![0x5555_5555_5555_5555],
            vec![u64::MAX, u64::MAX, 0x7F],
            vec![crate::pairing::BN_X],
        ];
        exps.extend((1..=4).map(|len| (0..len).map(|_| rng.next_u64()).collect()));
        for exp in &exps {
            let digits = naf(exp);
            assert_eq!(digits.len(), 64 * exp.len() + 1);
            let (mut plus, mut minus) = (BigUint::zero(), BigUint::zero());
            for (i, &d) in digits.iter().enumerate() {
                let term = BigUint::one().shl(i);
                match d {
                    1 => plus = plus.add(&term),
                    -1 => minus = minus.add(&term),
                    0 => {}
                    _ => panic!("digit {d} out of range"),
                }
            }
            assert_eq!(plus.sub(&minus), BigUint::from_limbs(exp), "exp = {exp:?}");
            assert!(
                digits.windows(2).all(|w| w[0] == 0 || w[1] == 0),
                "adjacent nonzero digits for {exp:?}"
            );
        }
        let weight = |digits: Vec<i8>| digits.iter().filter(|&&d| d != 0).count();
        assert_eq!(crate::pairing::BN_X.count_ones(), 28);
        assert_eq!(weight(naf(&[crate::pairing::BN_X])), 24);
    }

    #[test]
    fn mul_by_line_matches_dense_product() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10 {
            let f = Fp12::random(&mut rng);
            let c = Fq::random(&mut rng);
            let (a, b) = (Fp2::random(&mut rng), Fp2::random(&mut rng));
            let dense = Fp12::new(
                Fp6::from_fp2(Fp2::from_base(c)),
                Fp6::new(a, b, Fp2::zero()),
            );
            assert_eq!(f.mul_by_line(c, a, b), f * dense);
        }
    }

    /// Asserts that lane `i` of `v` holds `want(at + i)`, for every lane.
    #[track_caller]
    #[inline(always)]
    fn same<T: LaneField, B: LaneBody>(v: T::Lanes<B>, at: usize, want: impl Fn(usize) -> T) {
        for (i, x) in T::scatter(v).as_ref().iter().enumerate() {
            assert_eq!(*x, want(at + i), "lane {i} of {at}..");
        }
    }

    /// The generic tower's lane instance against its scalar one, lane by
    /// lane, `B::WIDTH` of eight random operand sets at a time, one group
    /// of routines per `OP`: 0 Fp2's and a gather and a scatter, 1 Fp6's
    /// products, 2 its square and scalings, 3 Fp12's square, 4 its
    /// `mul_by_line`, 5 its product. Each group compiles in a function of
    /// its own on each body: together in one function they take LLVM
    /// minutes.
    #[derive(Clone, Copy)]
    struct Tower<const OP: u8>(u64);

    impl<const OP: u8> LaneTask for Tower<OP> {
        type Output = ();

        #[inline(always)]
        fn run<B: LaneBody>(self, body: B) {
            let mut rng = StdRng::seed_from_u64(self.0);
            let f: Vec<Fp12> = (0..8).map(|_| Fp12::random(&mut rng)).collect();
            let g: Vec<Fp12> = (0..8).map(|_| Fp12::random(&mut rng)).collect();
            let c: Vec<Fq> = (0..8).map(|_| Fq::random(&mut rng)).collect();
            let a: Vec<Fp2> = (0..8).map(|_| Fp2::random(&mut rng)).collect();
            let b: Vec<Fp2> = (0..8).map(|_| Fp2::random(&mut rng)).collect();
            for at in (0..8).step_by(B::WIDTH) {
                let fl = Fp12::gather(body, B::array(|i| &f[at + i]));
                let gl = Fp12::gather(body, B::array(|i| &g[at + i]));
                let (x, y) = (fl.c0, gl.c1);
                let al = Fp2::gather(body, B::array(|i| &a[at + i]));
                let bl = Fp2::gather(body, B::array(|i| &b[at + i]));
                let cl = Fq::gather(body, B::array(|i| &c[at + i]));
                match OP {
                    0 => {
                        same(fl, at, |i| f[i]);
                        same(al * bl, at, |i| a[i] * b[i]);
                        same(al.square(), at, |i| a[i].square());
                        same(al.mul_by_nonresidue(), at, |i| a[i].mul_by_nonresidue());
                        same(al.scale(cl), at, |i| a[i].scale(c[i]));
                        same(al.norm(), at, |i| a[i].norm());
                        same(al.inverse_from_norm(cl), at, |i| {
                            a[i].inverse_from_norm(c[i])
                        });
                    }
                    1 => {
                        same(x * y, at, |i| f[i].c0 * g[i].c1);
                        same(x.mul_by_01(al, bl), at, |i| f[i].c0.mul_by_01(a[i], b[i]));
                        same(x.mul_by_v(), at, |i| f[i].c0.mul_by_v());
                    }
                    2 => {
                        same(x.square(), at, |i| f[i].c0.square());
                        same(x.scale(al), at, |i| f[i].c0.scale(a[i]));
                        same(x.scale_base(cl), at, |i| f[i].c0.scale_base(c[i]));
                    }
                    3 => same(fl.square(), at, |i| f[i].square()),
                    4 => same(fl.mul_by_line(cl, al, bl), at, |i| {
                        f[i].mul_by_line(c[i], a[i], b[i])
                    }),
                    _ => same(fl * gl, at, |i| f[i] * g[i]),
                }
            }
        }
    }

    #[test]
    fn lane_tower_matches_scalar_operations() {
        // Both bodies: the portable one, and the one this CPU runs (IFMA
        // where it has it).
        fn on_both<T: LaneTask + Copy>(task: T) {
            Portable.run(task);
            with_lanes(task);
        }
        for seed in 0..4 {
            on_both(Tower::<0>(seed));
            on_both(Tower::<1>(seed));
            on_both(Tower::<2>(seed));
            on_both(Tower::<3>(seed));
            on_both(Tower::<4>(seed));
            on_both(Tower::<5>(seed));
        }
    }

    #[test]
    fn inverse_roundtrip() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..5 {
            let a = Fp12::random(&mut rng);
            if a.is_zero() {
                continue;
            }
            assert_eq!(a * a.inverse().unwrap(), Fp12::one());
        }
    }

    #[test]
    fn associativity_distributivity() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Fp12::random(&mut rng);
        let b = Fp12::random(&mut rng);
        let c = Fp12::random(&mut rng);
        assert_eq!((a * b) * c, a * (b * c));
        assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn frobenius_is_pth_power() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Fp12::random(&mut rng);
        assert_eq!(a.frobenius_map(1), a.pow(&<Fq as PrimeField>::MODULUS));
        assert_eq!(a.frobenius_map(1).frobenius_map(1), a.frobenius_map(2));
        assert_eq!(a.frobenius_map(2).frobenius_map(1), a.frobenius_map(3));
    }

    #[test]
    fn conjugate_is_p6_frobenius() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = Fp12::random(&mut rng);
        let f3 = a.frobenius_map(3);
        // p⁶ = (p³)²; conjugation flips the sign of c1.
        assert_eq!(f3.frobenius_map(3), a.conjugate());
    }
}
