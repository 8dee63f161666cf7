//! Field abstractions shared by the base/scalar prime fields and the
//! extension towers built on top of them in `waku-curve`.

use std::fmt::{Debug, Display};
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::biguint::BigUint;

/// A finite field element.
///
/// Implemented by the BN254 prime fields in this crate and by the extension
/// fields (Fp2/Fp6/Fp12) in `waku-curve`. All operations are total; division
/// is exposed as [`Field::inverse`] returning `None` for zero.
pub trait Field:
    Copy
    + Clone
    + Eq
    + PartialEq
    + Debug
    + Display
    + Default
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
{
    /// The additive identity.
    fn zero() -> Self;

    /// The multiplicative identity.
    fn one() -> Self;

    /// True iff `self` is the additive identity.
    fn is_zero(&self) -> bool;

    /// `self * self`.
    fn square(&self) -> Self;

    /// `self + self`.
    fn double(&self) -> Self {
        *self + *self
    }

    /// Multiplicative inverse, or `None` for zero.
    fn inverse(&self) -> Option<Self>;

    /// `self^exp` with `exp` given as little-endian 64-bit limbs, by
    /// square-and-multiply from the highest *set* bit of `exp`: leading
    /// zero bits and zero limbs cost nothing.
    fn pow(&self, exp: &[u64]) -> Self {
        let mut bits = exp
            .iter()
            .rev()
            .flat_map(|&limb| (0..64).rev().map(move |bit| (limb >> bit) & 1 == 1))
            .skip_while(|&bit| !bit);
        if bits.next().is_none() {
            return Self::one();
        }
        let mut res = *self;
        for bit in bits {
            res = res.square();
            if bit {
                res *= *self;
            }
        }
        res
    }

    /// Samples a uniformly random element.
    fn random<R: rand::Rng + ?Sized>(rng: &mut R) -> Self;
}

/// A prime field of 256-bit order (four 64-bit limbs).
pub trait PrimeField: Field + std::hash::Hash + Ord {
    /// The field modulus, little-endian limbs.
    const MODULUS: [u64; 4];

    /// Largest `k` such that `2^k` divides `modulus - 1`.
    const TWO_ADICITY: u32;

    /// Number of bits in the modulus.
    const NUM_BITS: u32;

    /// Converts a small integer.
    fn from_u64(v: u64) -> Self;

    /// Canonical (non-Montgomery) little-endian limbs in `[0, p)`.
    fn to_canonical_limbs(&self) -> [u64; 4];

    /// Builds an element from canonical limbs; `None` if `limbs >= p`.
    fn from_canonical_limbs(limbs: [u64; 4]) -> Option<Self>;

    /// Interprets up to 64 little-endian bytes as an integer and reduces
    /// it modulo `p`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len() > 64`.
    fn from_le_bytes_mod_order(bytes: &[u8]) -> Self;

    /// Canonical little-endian byte encoding (32 bytes).
    fn to_le_bytes(&self) -> [u8; 32];

    /// Parses 32 canonical little-endian bytes; `None` if `>= p`.
    fn from_le_bytes(bytes: &[u8; 32]) -> Option<Self>;

    /// The modulus as a [`BigUint`].
    fn modulus_biguint() -> BigUint {
        BigUint::from_limbs(&Self::MODULUS)
    }

    /// A multiplicative generator of the field (small, fixed per field).
    fn multiplicative_generator() -> Self;

    /// A primitive `2^TWO_ADICITY`-th root of unity
    /// (`g^((p-1)/2^TWO_ADICITY)`), derived rather than hardcoded.
    fn two_adic_root_of_unity() -> Self {
        let p_minus_1 = Self::modulus_biguint().sub(&BigUint::one());
        let exp = p_minus_1.shr(Self::TWO_ADICITY as usize);
        Self::multiplicative_generator().pow(exp.limbs())
    }
}
