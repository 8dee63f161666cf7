//! Minimal arbitrary-precision unsigned integers.
//!
//! This module exists so that every derived constant in the crypto stack
//! (Montgomery `R`/`R²`, Frobenius exponents, the final-exponentiation
//! exponent `(p⁴−p²+1)/r`, FFT roots of unity) can be *computed* from the
//! curve moduli rather than pasted in as opaque magic numbers. It is not a
//! general-purpose bignum: only the operations the constant-derivation paths
//! need are provided, and none of them are performance critical.
//!
//! Limbs are little-endian `u64`s with no redundant leading zeros
//! (canonical form), except transiently inside operations.

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer (little-endian `u64` limbs).
///
/// # Examples
///
/// ```
/// use waku_arith::biguint::BigUint;
/// let a = BigUint::from_decimal("340282366920938463463374607431768211456").unwrap();
/// let b = BigUint::from(2u64).pow(128);
/// assert_eq!(a, b);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl BigUint {
    /// The value zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value one.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Builds a value from little-endian limbs (trailing zeros are trimmed).
    pub fn from_limbs(limbs: &[u64]) -> Self {
        let mut v = BigUint {
            limbs: limbs.to_vec(),
        };
        v.normalize();
        v
    }

    /// Returns the little-endian limbs (no trailing zeros).
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Returns the limbs zero-padded / truncated to exactly `n` limbs.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `n` limbs.
    pub fn to_fixed_limbs(&self, n: usize) -> Vec<u64> {
        assert!(self.limbs.len() <= n, "value does not fit in {n} limbs");
        let mut out = self.limbs.clone();
        out.resize(n, 0);
        out
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Number of significant bits (0 for zero).
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Returns bit `i` (little-endian indexing).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &Self) -> Self {
        let n = self.limbs.len().max(other.limbs.len());
        let mut out = Vec::with_capacity(n + 1);
        let mut carry = 0u64;
        for i in 0..n {
            let a = self.limbs.get(i).copied().unwrap_or(0);
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        out.push(carry);
        let mut v = BigUint { limbs: out };
        v.normalize();
        v
    }

    /// `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`.
    pub fn sub(&self, other: &Self) -> Self {
        assert!(self >= other, "biguint subtraction underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i];
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = a.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        let mut v = BigUint { limbs: out };
        v.normalize();
        v
    }

    /// `self * other` (schoolbook; fine for constant derivation).
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let t = out[k] as u128 + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        let mut v = BigUint { limbs: out };
        v.normalize();
        v
    }

    /// `self << n`.
    pub fn shl(&self, n: usize) -> Self {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = n / 64;
        let bit_shift = n % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            out.push(carry);
        }
        let mut v = BigUint { limbs: out };
        v.normalize();
        v
    }

    /// `self >> n`.
    pub fn shr(&self, n: usize) -> Self {
        let limb_shift = n / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = n % 64;
        let mut out = Vec::with_capacity(self.limbs.len() - limb_shift);
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs[limb_shift..]);
        } else {
            for i in limb_shift..self.limbs.len() {
                let lo = self.limbs[i] >> bit_shift;
                let hi = self
                    .limbs
                    .get(i + 1)
                    .map(|&l| l << (64 - bit_shift))
                    .unwrap_or(0);
                out.push(lo | hi);
            }
        }
        let mut v = BigUint { limbs: out };
        v.normalize();
        v
    }

    /// Returns `(quotient, remainder)` of `self / divisor`.
    ///
    /// Binary long division: slow but simple, used only for deriving
    /// constants at startup.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &Self) -> (Self, Self) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (BigUint::zero(), self.clone());
        }
        let shift = self.bits() - divisor.bits();
        let mut remainder = self.clone();
        let mut quotient = BigUint::zero();
        let mut shifted = divisor.shl(shift);
        for i in (0..=shift).rev() {
            if remainder >= shifted {
                remainder = remainder.sub(&shifted);
                let limb = i / 64;
                if quotient.limbs.len() <= limb {
                    quotient.limbs.resize(limb + 1, 0);
                }
                quotient.limbs[limb] |= 1u64 << (i % 64);
            }
            shifted = shifted.shr(1);
        }
        quotient.normalize();
        remainder.normalize();
        (quotient, remainder)
    }

    /// `self mod m`.
    pub fn rem(&self, m: &Self) -> Self {
        self.div_rem(m).1
    }

    /// `self ^ e` (e a small exponent).
    pub fn pow(&self, e: u32) -> Self {
        let mut acc = BigUint::one();
        for _ in 0..e {
            acc = acc.mul(self);
        }
        acc
    }

    /// Parses a decimal string.
    ///
    /// # Errors
    ///
    /// Returns `None` when the string is empty or contains a non-digit.
    pub fn from_decimal(s: &str) -> Option<Self> {
        if s.is_empty() {
            return None;
        }
        let ten = BigUint::from(10u64);
        let mut acc = BigUint::zero();
        for ch in s.chars() {
            let d = ch.to_digit(10)?;
            acc = acc.mul(&ten).add(&BigUint::from(d as u64));
        }
        Some(acc)
    }

    /// Formats as a decimal string.
    fn to_decimal(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let ten = BigUint::from(10u64);
        let mut digits = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.div_rem(&ten);
            digits.push(
                std::char::from_digit(r.limbs.first().copied().unwrap_or(0) as u32, 10).unwrap(),
            );
            cur = q;
        }
        digits.iter().rev().collect()
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        if v == 0 {
            BigUint::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint({})", self.to_decimal())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_decimal())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one() {
        assert!(BigUint::zero().is_zero());
        assert!(!BigUint::one().is_zero());
        assert_eq!(BigUint::zero().bits(), 0);
        assert_eq!(BigUint::one().bits(), 1);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = BigUint::from_limbs(&[u64::MAX, u64::MAX, 17]);
        let b = BigUint::from_limbs(&[1, 2, 3]);
        let s = a.add(&b);
        assert_eq!(s.sub(&b), a);
        assert_eq!(s.sub(&a), b);
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = BigUint::from_limbs(&[u64::MAX]);
        let s = a.add(&BigUint::one());
        assert_eq!(s.limbs(), &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = BigUint::one().sub(&BigUint::from(2u64));
    }

    #[test]
    fn mul_matches_shift_for_powers_of_two() {
        let a = BigUint::from_decimal("123456789123456789123456789").unwrap();
        assert_eq!(a.mul(&BigUint::from(2u64).pow(64)), a.shl(64));
        assert_eq!(a.mul(&BigUint::from(2u64).pow(1)), a.shl(1));
    }

    #[test]
    fn div_rem_basic() {
        let a = BigUint::from_decimal("1000000000000000000000000000000000007").unwrap();
        let b = BigUint::from_decimal("97").unwrap();
        let (q, r) = a.div_rem(&b);
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r < b);
    }

    #[test]
    fn div_rem_exact() {
        let b = BigUint::from_decimal("340282366920938463463374607431768211457").unwrap();
        let a = b.mul(&b);
        let (q, r) = a.div_rem(&b);
        assert_eq!(q, b);
        assert!(r.is_zero());
    }

    #[test]
    fn decimal_roundtrip() {
        let s = "21888242871839275222246405745257275088696311157297823662689037894645226208583";
        let v = BigUint::from_decimal(s).unwrap();
        assert_eq!(v.to_decimal(), s);
    }

    #[test]
    fn shr_shl_inverse() {
        let a = BigUint::from_decimal("98765432109876543210987654321").unwrap();
        assert_eq!(a.shl(77).shr(77), a);
    }

    #[test]
    fn bit_access() {
        let a = BigUint::from(0b1011u64);
        assert!(a.bit(0) && a.bit(1) && !a.bit(2) && a.bit(3) && !a.bit(4));
        assert!(!a.bit(1000));
    }

    #[test]
    fn ordering() {
        let a = BigUint::from_decimal("340282366920938463463374607431768211456").unwrap();
        let b = BigUint::from(u64::MAX);
        assert!(a > b);
        assert!(b < a);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }
}
