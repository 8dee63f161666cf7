//! Short-Weierstrass group arithmetic (`y² = x³ + b`, `a = 0`), generic over
//! the base field so G1 (over Fq) and G2 (over Fp2) share one implementation.
//!
//! Affine points are the serialization/storage form; Jacobian projective
//! coordinates are used for arithmetic.

use std::fmt;
use std::hash::Hash;
use std::marker::PhantomData;

use waku_arith::fields::{Fq, FqParams, Fr};
use waku_arith::fp::{FpLanes, LaneBody, LaneField};
use waku_arith::traits::{Field, PrimeField};

/// `B::WIDTH` Fq elements on lane body `B`.
pub type FqLanes<B> = FpLanes<FqParams, B>;

/// A coordinate field whose elements the batch-affine MSM adds and
/// inverts a lane vector at a time: Fq as one Fq lane vector, Fp2 as
/// two. Every implementation's methods are `#[inline(always)]` (see
/// [`waku_arith::fp::LaneTask`]).
pub trait LaneCoord: LaneField {
    /// The Fq element whose inverse gives `v`'s: `v` itself in Fq, the
    /// norm `v·v̄` in Fp2. Zero only where `v` is.
    fn norm<B: LaneBody>(v: Self::Lanes<B>) -> FqLanes<B>;
    /// `v⁻¹`, given the inverse of [`Self::norm`]'s lanes.
    fn inverse_from_norm<B: LaneBody>(v: Self::Lanes<B>, norm_inv: FqLanes<B>) -> Self::Lanes<B>;
}

impl LaneCoord for Fq {
    #[inline(always)]
    fn norm<B: LaneBody>(v: FqLanes<B>) -> FqLanes<B> {
        v
    }

    #[inline(always)]
    fn inverse_from_norm<B: LaneBody>(_: FqLanes<B>, norm_inv: FqLanes<B>) -> FqLanes<B> {
        norm_inv
    }
}

/// Static description of one curve (coefficient `b` and a generator of the
/// prime-order subgroup).
pub trait CurveParams:
    Copy + Clone + Eq + PartialEq + Hash + fmt::Debug + Default + Send + Sync + 'static
{
    /// Field the coordinates live in.
    type Base: LaneCoord;
    /// Short name used in `Debug` output.
    const NAME: &'static str;
    /// The constant `b` of `y² = x³ + b`.
    fn b() -> Self::Base;
    /// Affine coordinates of the subgroup generator.
    fn generator() -> (Self::Base, Self::Base);
}

/// A point in affine coordinates (or the point at infinity).
pub struct Affine<C: CurveParams> {
    /// x-coordinate (undefined when `infinity`).
    pub x: C::Base,
    /// y-coordinate (undefined when `infinity`).
    pub y: C::Base,
    /// Marker for the point at infinity.
    pub infinity: bool,
    _marker: PhantomData<C>,
}

/// A point in Jacobian projective coordinates (`x = X/Z²`, `y = Y/Z³`).
pub struct Projective<C: CurveParams> {
    x: C::Base,
    y: C::Base,
    z: C::Base,
    _marker: PhantomData<C>,
}

impl<C: CurveParams> Copy for Affine<C> {}
impl<C: CurveParams> Clone for Affine<C> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<C: CurveParams> Copy for Projective<C> {}
impl<C: CurveParams> Clone for Projective<C> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<C: CurveParams> PartialEq for Affine<C> {
    fn eq(&self, other: &Self) -> bool {
        if self.infinity || other.infinity {
            return self.infinity == other.infinity;
        }
        self.x == other.x && self.y == other.y
    }
}
impl<C: CurveParams> Eq for Affine<C> {}

impl<C: CurveParams> fmt::Debug for Affine<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.infinity {
            write!(f, "{}(infinity)", C::NAME)
        } else {
            write!(f, "{}({}, {})", C::NAME, self.x, self.y)
        }
    }
}

impl<C: CurveParams> Affine<C> {
    /// The point at infinity.
    pub fn identity() -> Self {
        Affine {
            x: C::Base::zero(),
            y: C::Base::one(),
            infinity: true,
            _marker: PhantomData,
        }
    }

    /// Builds a point from coordinates, verifying the curve equation.
    pub fn new(x: C::Base, y: C::Base) -> Option<Self> {
        let p = Affine {
            x,
            y,
            infinity: false,
            _marker: PhantomData,
        };
        if p.is_on_curve() {
            Some(p)
        } else {
            None
        }
    }

    /// Builds a point without checking the curve equation.
    ///
    /// The caller must guarantee `(x, y)` satisfies `y² = x³ + b`.
    pub fn new_unchecked(x: C::Base, y: C::Base) -> Self {
        Affine {
            x,
            y,
            infinity: false,
            _marker: PhantomData,
        }
    }

    /// The configured subgroup generator.
    pub fn generator() -> Self {
        let (x, y) = C::generator();
        Affine {
            x,
            y,
            infinity: false,
            _marker: PhantomData,
        }
    }

    /// True for the point at infinity.
    pub fn is_identity(&self) -> bool {
        self.infinity
    }

    /// Checks `y² = x³ + b` (vacuously true at infinity).
    pub fn is_on_curve(&self) -> bool {
        if self.infinity {
            return true;
        }
        self.y.square() == self.x.square() * self.x + C::b()
    }

    /// Checks that the point lies in the prime-order-`r` subgroup.
    pub fn is_in_subgroup(&self) -> bool {
        self.mul_limbs(&<Fr as PrimeField>::MODULUS).is_identity()
    }

    /// Converts to Jacobian coordinates.
    pub fn to_projective(&self) -> Projective<C> {
        if self.infinity {
            Projective::identity()
        } else {
            Projective {
                x: self.x,
                y: self.y,
                z: C::Base::one(),
                _marker: PhantomData,
            }
        }
    }

    /// Double-and-add scalar multiplication with a little-endian limb
    /// exponent; the base is affine, so every addition is a mixed one.
    pub fn mul_limbs(&self, exp: &[u64]) -> Projective<C> {
        double_and_add(exp, |acc| acc.add_mixed(self))
    }

    /// Scalar multiplication by a field element of the scalar field.
    pub fn mul(&self, scalar: Fr) -> Projective<C> {
        self.mul_limbs(&scalar.to_canonical_limbs())
    }

    /// Negation (reflection over the x-axis).
    pub fn neg(&self) -> Self {
        Affine {
            x: self.x,
            y: -self.y,
            infinity: self.infinity,
            _marker: PhantomData,
        }
    }
}

/// The double-and-add ladder over a little-endian limb exponent;
/// `add_base` adds the point being multiplied.
fn double_and_add<C: CurveParams>(
    exp: &[u64],
    add_base: impl Fn(&Projective<C>) -> Projective<C>,
) -> Projective<C> {
    let mut acc = Projective::identity();
    for &limb in exp.iter().rev() {
        for bit in (0..64).rev() {
            acc = acc.double();
            if (limb >> bit) & 1 == 1 {
                acc = add_base(&acc);
            }
        }
    }
    acc
}

impl<C: CurveParams> Projective<C> {
    /// The point at infinity (Z = 0).
    pub fn identity() -> Self {
        Projective {
            x: C::Base::one(),
            y: C::Base::one(),
            z: C::Base::zero(),
            _marker: PhantomData,
        }
    }

    /// The configured subgroup generator.
    pub fn generator() -> Self {
        Affine::<C>::generator().to_projective()
    }

    /// True for the point at infinity.
    pub fn is_identity(&self) -> bool {
        self.z.is_zero()
    }

    /// Point doubling (`a = 0` Jacobian formulas).
    pub fn double(&self) -> Self {
        if self.is_identity() {
            return *self;
        }
        let a = self.x.square();
        let b = self.y.square();
        let c = b.square();
        let d = ((self.x + b).square() - a - c).double();
        let e = a.double() + a;
        let f = e.square();
        let x3 = f - d.double();
        let y3 = e * (d - x3) - c.double().double().double();
        let z3 = (self.y * self.z).double();
        Projective {
            x: x3,
            y: y3,
            z: z3,
            _marker: PhantomData,
        }
    }

    /// General Jacobian addition.
    pub fn add(&self, other: &Self) -> Self {
        if self.is_identity() {
            return *other;
        }
        if other.is_identity() {
            return *self;
        }
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        let u1 = self.x * z2z2;
        let u2 = other.x * z1z1;
        let s1 = self.y * other.z * z2z2;
        let s2 = other.y * self.z * z1z1;
        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return Self::identity();
        }
        let h = u2 - u1;
        let i = h.double().square();
        let j = h * i;
        let r = (s2 - s1).double();
        let v = u1 * i;
        let x3 = r.square() - j - v.double();
        let y3 = r * (v - x3) - (s1 * j).double();
        let z3 = ((self.z + other.z).square() - z1z1 - z2z2) * h;
        Projective {
            x: x3,
            y: y3,
            z: z3,
            _marker: PhantomData,
        }
    }

    /// Mixed addition with an affine point (Z2 = 1), the hot path in MSM.
    pub fn add_mixed(&self, other: &Affine<C>) -> Self {
        if other.infinity {
            return *self;
        }
        if self.is_identity() {
            return other.to_projective();
        }
        let z1z1 = self.z.square();
        let u2 = other.x * z1z1;
        let s2 = other.y * self.z * z1z1;
        if self.x == u2 {
            if self.y == s2 {
                return self.double();
            }
            return Self::identity();
        }
        let h = u2 - self.x;
        let hh = h.square();
        let i = hh.double().double();
        let j = h * i;
        let r = (s2 - self.y).double();
        let v = self.x * i;
        let x3 = r.square() - j - v.double();
        let y3 = r * (v - x3) - (self.y * j).double();
        let z3 = (self.z + h).square() - z1z1 - hh;
        Projective {
            x: x3,
            y: y3,
            z: z3,
            _marker: PhantomData,
        }
    }

    /// Negation.
    pub fn neg(&self) -> Self {
        Projective {
            x: self.x,
            y: -self.y,
            z: self.z,
            _marker: PhantomData,
        }
    }

    /// Double-and-add scalar multiplication with a little-endian limb
    /// exponent.
    pub fn mul_limbs(&self, exp: &[u64]) -> Self {
        double_and_add(exp, |acc| acc.add(self))
    }

    /// Scalar multiplication by an `Fr` element.
    pub fn mul(&self, scalar: Fr) -> Self {
        self.mul_limbs(&scalar.to_canonical_limbs())
    }

    /// Converts back to affine coordinates (one field inversion).
    pub fn to_affine(&self) -> Affine<C> {
        if self.is_identity() {
            return Affine::identity();
        }
        let z_inv = self.z.inverse().expect("nonzero z");
        let z_inv2 = z_inv.square();
        Affine {
            x: self.x * z_inv2,
            y: self.y * z_inv2 * z_inv,
            infinity: false,
            _marker: PhantomData,
        }
    }

    /// Batch conversion to affine with a single inversion (Montgomery trick).
    pub fn batch_to_affine(points: &[Self]) -> Vec<Affine<C>> {
        let mut prods = Vec::with_capacity(points.len());
        let mut acc = C::Base::one();
        for p in points {
            prods.push(acc);
            if !p.is_identity() {
                acc *= p.z;
            }
        }
        let mut inv = acc.inverse().expect("product of nonzero z values");
        let mut out = vec![Affine::identity(); points.len()];
        for (i, p) in points.iter().enumerate().rev() {
            if p.is_identity() {
                continue;
            }
            let z_inv = prods[i] * inv;
            inv *= p.z;
            let z_inv2 = z_inv.square();
            out[i] = Affine {
                x: p.x * z_inv2,
                y: p.y * z_inv2 * z_inv,
                infinity: false,
                _marker: PhantomData,
            };
        }
        out
    }
}

impl<C: CurveParams> PartialEq for Projective<C> {
    fn eq(&self, other: &Self) -> bool {
        if self.is_identity() || other.is_identity() {
            return self.is_identity() == other.is_identity();
        }
        // (X1/Z1², Y1/Z1³) == (X2/Z2², Y2/Z2³) without inversions.
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        self.x * z2z2 == other.x * z1z1 && self.y * z2z2 * other.z == other.y * z1z1 * self.z
    }
}
impl<C: CurveParams> Eq for Projective<C> {}

impl<C: CurveParams> fmt::Debug for Projective<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let a = self.to_affine();
        write!(f, "{:?}", a)
    }
}

impl<C: CurveParams> std::ops::Add for Projective<C> {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Projective::add(&self, &rhs)
    }
}

impl<C: CurveParams> std::ops::Sub for Projective<C> {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Projective::add(&self, &rhs.neg())
    }
}

impl<C: CurveParams> std::ops::Neg for Projective<C> {
    type Output = Self;
    fn neg(self) -> Self {
        Projective::neg(&self)
    }
}

impl<C: CurveParams> std::iter::Sum for Projective<C> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::identity(), |a, b| a.add(&b))
    }
}
