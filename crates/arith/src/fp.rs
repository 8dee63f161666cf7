//! Generic 256-bit prime-field arithmetic in Montgomery form.
//!
//! The implementation is CIOS (coarsely integrated operand scanning)
//! Montgomery multiplication over four 64-bit limbs. All derived constants
//! (`-p⁻¹ mod 2⁶⁴`, `R = 2²⁵⁶ mod p`, `R² mod p`, `p − 2`) are computed by
//! `const fn`s from the modulus, so instantiating a field only requires the
//! modulus limbs, a small multiplicative generator, and the 2-adicity.
//!
//! Requirement: the modulus must be odd and below `2²⁵⁴` (both BN254 fields
//! are), which keeps all intermediate sums inside 256 bits.
//!
//! The product and the square each have two bodies. On an x86_64 CPU with
//! BMI2 and ADX (Intel since Broadwell, AMD since Zen; checked per call
//! with `is_x86_feature_detected!`, which reads std's cached feature word)
//! they run an inline-assembly kernel: the same four CIOS rounds on
//! `mulx`, which multiplies without touching the flags, and on `adcx` /
//! `adox`, which carry through CF and OF alone, so the low and the high
//! halves of each row accumulate on two independent carry chains. The
//! kernel keeps `a` in registers, reads one limb of `b` per round, and
//! takes the modulus limbs and `-p⁻¹ mod 2⁶⁴` as immediates; the square
//! is the same rounds with each limb taken from a register. Every other
//! CPU runs the portable `u128` bodies, which are also the kernel's test
//! oracle. Both give the same limbs.
//!
//! The `< 2²⁵⁴` bound is what makes the kernel correct as well as the
//! portable body. It puts both top limbs below `2⁶²`, so each round's
//! high word stays below `2⁶²` and the round's two carries and its high
//! word add into the top limb without a carry out: neither body needs a
//! fifth accumulator limb. Each round's result stays below `2p`, so one
//! conditional subtraction at the end makes it canonical.
//!
//! Beside the scalar element sits a lane vector, [`FpLanes`], for code
//! that has many independent operations to do at once (the MSM's bucket
//! additions). It has two bodies behind one [`LaneBody`] trait, and the
//! body sets the width. On an x86_64 CPU with AVX-512 IFMA a vector is
//! eight lanes of five 52-bit limbs, one limb per 512-bit register, and
//! a product is 25 `vpmadd52luq` / `vpmadd52huq` pairs for `a·b` and 25
//! more, plus five multipliers, for the reduction: a Montgomery product
//! with `R = 2²⁶⁰` whose double-width product is scaled by 16 first, so
//! every lane returns exactly the limbs `mont_mul` returns (see `Ifma`).
//! Every other CPU runs [`Portable`]: one lane holding a scalar element,
//! with the scalar operations, so generic lane code compiles to plain
//! scalar code there; eight of its vectors are also the IFMA body's test
//! oracle.
//! [`with_lanes`] picks the body once per call, and the caller's generic
//! code compiles inside the one function that enables the CPU features.
//! Converting between four 64-bit and five 52-bit limbs costs about as
//! much as a product, so lane code gathers its operands once, keeps them
//! in lanes through all its products, and scatters the results once.

use std::cmp::Ordering;
use std::fmt;
use std::hash::Hash;
use std::marker::PhantomData;

use crate::biguint::BigUint;
use crate::traits::{Field, PrimeField};

/// Static parameters describing one prime field.
pub trait FpParams:
    Copy + Clone + Eq + PartialEq + Hash + fmt::Debug + Default + Send + Sync + 'static
{
    /// Modulus, little-endian limbs. Must be odd and `< 2^254`.
    const MODULUS: [u64; 4];
    /// Small multiplicative generator (e.g. 3 for BN254 Fq, 5 for Fr).
    const GENERATOR: u64;
    /// Largest `k` with `2^k | (modulus - 1)`.
    const TWO_ADICITY: u32;
    /// Bit length of the modulus.
    const NUM_BITS: u32;
}

/// An element of the prime field described by `P`, in Montgomery form.
pub struct Fp<P: FpParams>(pub(crate) [u64; 4], PhantomData<P>);

// Manual impls: derives would needlessly bound on `P` via `PhantomData`.
impl<P: FpParams> Copy for Fp<P> {}
impl<P: FpParams> Clone for Fp<P> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<P: FpParams> PartialEq for Fp<P> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl<P: FpParams> Eq for Fp<P> {}
impl<P: FpParams> Hash for Fp<P> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}
impl<P: FpParams> Default for Fp<P> {
    fn default() -> Self {
        Self::ZERO
    }
}

// ---------------------------------------------------------------------------
// const helpers (run at compile time per instantiation)
// ---------------------------------------------------------------------------

/// `-p[0]^{-1} mod 2^64` for odd `p[0]`.
const fn mont_inv(p0: u64) -> u64 {
    // x_{k+1} = x_k² · p0 gives p0^(2^k − 1); at k = 63 that is p0⁻¹ mod 2⁶⁴.
    let mut inv = 1u64;
    let mut i = 0;
    while i < 63 {
        inv = inv.wrapping_mul(inv);
        inv = inv.wrapping_mul(p0);
        i += 1;
    }
    inv.wrapping_neg()
}

const fn geq(a: &[u64; 4], b: &[u64; 4]) -> bool {
    let mut i = 3usize;
    loop {
        if a[i] > b[i] {
            return true;
        }
        if a[i] < b[i] {
            return false;
        }
        if i == 0 {
            return true; // equal
        }
        i -= 1;
    }
}

const fn sub_limbs(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
    let mut out = [0u64; 4];
    let mut borrow = 0u64;
    let mut i = 0;
    while i < 4 {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        out[i] = d2;
        borrow = (b1 as u64) + (b2 as u64);
        i += 1;
    }
    out
}

/// `2a mod p`, assuming `a < p < 2^255`.
const fn double_mod(a: &[u64; 4], p: &[u64; 4]) -> [u64; 4] {
    let mut out = [0u64; 4];
    let mut carry = 0u64;
    let mut i = 0;
    while i < 4 {
        out[i] = (a[i] << 1) | carry;
        carry = a[i] >> 63;
        i += 1;
    }
    // p < 2^255 and a < p ⇒ 2a < 2^256: no carry out of the top limb.
    if geq(&out, p) {
        out = sub_limbs(&out, p);
    }
    out
}

/// `2^bits mod p`.
const fn pow2_mod(bits: u32, p: &[u64; 4]) -> [u64; 4] {
    let mut v = [1u64, 0, 0, 0];
    let mut i = 0;
    while i < bits {
        v = double_mod(&v, p);
        i += 1;
    }
    v
}

#[cfg(test)]
const fn p_minus_2(p: &[u64; 4]) -> [u64; 4] {
    sub_limbs(p, &[2, 0, 0, 0])
}

// ---------------------------------------------------------------------------
// limb primitives
// ---------------------------------------------------------------------------

#[inline(always)]
fn mac(a: u64, b: u64, c: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + (b as u128) * (c as u128) + carry as u128;
    (t as u64, (t >> 64) as u64)
}

#[inline(always)]
fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + b as u128 + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// `a − b − borrow` with the borrow as a mask: `borrow` in and out is 0
/// or `u64::MAX`. A mask the caller can AND with is the point: a 0/1
/// borrow lets the compiler see a boolean and turn the select it feeds
/// back into a branch.
#[inline(always)]
fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let t = (a as u128).wrapping_sub(b as u128 + (borrow >> 63) as u128);
    (t as u64, (t >> 64) as u64)
}

#[inline(always)]
fn shr1(t: &[u64; 4]) -> [u64; 4] {
    [
        (t[0] >> 1) | (t[1] << 63),
        (t[1] >> 1) | (t[2] << 63),
        (t[2] >> 1) | (t[3] << 63),
        t[3] >> 1,
    ]
}

impl<P: FpParams> Fp<P> {
    /// `-p^{-1} mod 2^64`.
    pub const INV: u64 = mont_inv(P::MODULUS[0]);
    /// `R = 2^256 mod p` (canonical limbs; also the Montgomery form of 1).
    pub const R: [u64; 4] = pow2_mod(256, &P::MODULUS);
    /// `R² = 2^512 mod p`, used to enter Montgomery form.
    pub const R2: [u64; 4] = pow2_mod(512, &P::MODULUS);
    #[cfg(test)]
    const P_MINUS_2: [u64; 4] = p_minus_2(&P::MODULUS);

    /// The zero element.
    pub const ZERO: Self = Fp([0; 4], PhantomData);
    /// The one element.
    pub const ONE: Self = Fp(Self::R, PhantomData);

    /// `a·b·R⁻¹ mod p`: the BMI2/ADX kernel where the CPU has it, the
    /// portable CIOS body everywhere else. Both give the same limbs.
    ///
    /// Both bodies are inlined, the portable one on a cold path. An
    /// out-of-line fallback, even one never called, is an opaque call in
    /// every loop around a product: it kept the `x` of an `x *= y` chain
    /// in memory, where each product stalled on reloading it.
    #[inline(always)]
    fn mont_mul(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
        #[cfg(target_arch = "x86_64")]
        {
            if has_bmi2_adx() {
                // SAFETY: BMI2 and ADX were just detected on this CPU.
                return unsafe { Self::mont_mul_adx(a, b) };
            }
            std::hint::cold_path();
        }
        Self::mont_mul_portable(a, b)
    }

    /// `a²·R⁻¹ mod p`, dispatched like [`Self::mont_mul`].
    #[inline(always)]
    fn mont_sqr(a: &[u64; 4]) -> [u64; 4] {
        #[cfg(target_arch = "x86_64")]
        {
            if has_bmi2_adx() {
                // SAFETY: BMI2 and ADX were just detected on this CPU.
                return unsafe { Self::mont_sqr_adx(a) };
            }
            std::hint::cold_path();
        }
        Self::mont_sqr_portable(a)
    }

    /// CIOS Montgomery multiplication: returns `a·b·R⁻¹ mod p`.
    ///
    /// Uses the "no-carry" CIOS variant (the gnark optimization): because
    /// the modulus is `< 2²⁵⁴` (a documented requirement of this module,
    /// so its top limb is `< 2⁶³ − 1`), the two per-iteration carries can
    /// be summed into the top limb without overflowing, eliminating the
    /// fifth accumulator limb of the reference formulation. The final
    /// conditional subtraction stays a branch, unlike `add` / `sub`'s
    /// (see the note above their impls): it is rarely taken.
    #[allow(clippy::needless_range_loop)]
    #[inline(always)]
    fn mont_mul_portable(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
        let p = P::MODULUS;
        let mut t = [0u64; 4];
        for i in 0..4 {
            let bi = b[i];
            // t[0] pass fixes the reduction multiplier m for this round.
            let (t0, mut mul_carry) = mac(t[0], a[0], bi, 0);
            let m = t0.wrapping_mul(Self::INV);
            let (_, mut red_carry) = mac(t0, m, p[0], 0);
            // Fused multiply + reduce for the remaining limbs.
            for j in 1..4 {
                let (lo, hi) = mac(t[j], a[j], bi, mul_carry);
                mul_carry = hi;
                let (lo2, hi2) = mac(lo, m, p[j], red_carry);
                red_carry = hi2;
                t[j - 1] = lo2;
            }
            // No overflow: both carries are < 2⁶³ for p < 2²⁵⁴.
            t[3] = red_carry + mul_carry;
        }
        if geq(&t, &p) {
            t = sub_limbs(&t, &p);
        }
        debug_assert!(!geq(&t, &p) || t == [0; 4] && p == [0; 4]);
        t
    }

    /// Dedicated Montgomery squaring: the off-diagonal products of `a²`
    /// are computed once and doubled (10 limb products instead of 16),
    /// followed by an 8-limb Montgomery reduction.
    #[inline(always)]
    fn mont_sqr_portable(a: &[u64; 4]) -> [u64; 4] {
        let p = P::MODULUS;
        // Off-diagonal triangle a[i]·a[j], i < j.
        let mut r = [0u64; 8];
        let mut carry = 0u64;
        for i in 0..3 {
            for j in (i + 1)..4 {
                let (lo, hi) = mac(r[i + j], a[i], a[j], carry);
                r[i + j] = lo;
                carry = hi;
            }
            r[i + 4] = carry;
            carry = 0;
        }
        // Double the triangle.
        r[7] = r[6] >> 63;
        for k in (2..7).rev() {
            r[k] = (r[k] << 1) | (r[k - 1] >> 63);
        }
        r[1] <<= 1;
        // Add the diagonal a[i]².
        let mut carry = 0u64;
        for i in 0..4 {
            let (lo, hi) = mac(r[2 * i], a[i], a[i], carry);
            r[2 * i] = lo;
            let (lo2, hi2) = adc(r[2 * i + 1], 0, hi);
            r[2 * i + 1] = lo2;
            carry = hi2;
        }
        // Montgomery-reduce the 8-limb square.
        let mut carry2 = 0u64;
        for i in 0..4 {
            let m = r[i].wrapping_mul(Self::INV);
            let (_, mut c) = mac(r[i], m, p[0], 0);
            for j in 1..4 {
                let (lo, hi) = mac(r[i + j], m, p[j], c);
                r[i + j] = lo;
                c = hi;
            }
            let (lo, hi) = adc(r[i + 4], c, carry2);
            r[i + 4] = lo;
            carry2 = hi;
        }
        let mut t = [r[4], r[5], r[6], r[7]];
        if geq(&t, &p) {
            t = sub_limbs(&t, &p);
        }
        debug_assert!(!geq(&t, &p) || t == [0; 4] && p == [0; 4]);
        t
    }

    /// `self / 2`: an odd representative first becomes even by adding `p`
    /// (no carry out: both are below `2²⁵⁴`).
    #[inline]
    fn halve(&self) -> Self {
        let mut t = self.0;
        if t[0] & 1 == 1 {
            let mut carry = 0u64;
            for (limb, &m) in t.iter_mut().zip(P::MODULUS.iter()) {
                (*limb, carry) = adc(*limb, m, carry);
            }
        }
        Fp(shr1(&t), PhantomData)
    }

    /// Reduces a canonical 256-bit value modulo `p` (at most a few
    /// conditional subtractions since `p > 2^253`).
    fn reduce_canonical(mut limbs: [u64; 4]) -> [u64; 4] {
        while geq(&limbs, &P::MODULUS) {
            limbs = sub_limbs(&limbs, &P::MODULUS);
        }
        limbs
    }
}

// ---------------------------------------------------------------------------
// BMI2/ADX kernel
// ---------------------------------------------------------------------------

/// Whether this CPU runs `mulx` (BMI2) and `adcx` / `adox` (ADX). Both
/// reads hit std's cached feature word.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn has_bmi2_adx() -> bool {
    std::is_x86_feature_detected!("bmi2") && std::is_x86_feature_detected!("adx")
}

/// The multiply half of one CIOS round: `(c, t) = t + a · rdx`, where `rdx`
/// holds the round's limb of `b`. `adox` carries the low halves, `adcx`
/// the high halves, so the two chains run side by side.
#[cfg(target_arch = "x86_64")]
macro_rules! cios_mul_round {
    () => {
        concat!(
            "xor eax, eax\n",
            "mulx {c}, rax, {a0}\n",
            "adox {t0}, rax\n",
            "adcx {t1}, {c}\n",
            "mulx {c}, rax, {a1}\n",
            "adox {t1}, rax\n",
            "adcx {t2}, {c}\n",
            "mulx {c}, rax, {a2}\n",
            "adox {t2}, rax\n",
            "adcx {t3}, {c}\n",
            "mulx {c}, rax, {a3}\n",
            "adox {t3}, rax\n",
            "mov eax, 0\n",
            "adcx {c}, rax\n",
            "adox {c}, rax\n",
        )
    };
}

/// The first round's multiply half, onto `t = 0`: `(c, t) = a · rdx`.
#[cfg(target_arch = "x86_64")]
macro_rules! cios_mul_first {
    () => {
        concat!(
            "xor eax, eax\n",
            "mulx {t1}, {t0}, {a0}\n",
            "mulx {t2}, rax, {a1}\n",
            "adox {t1}, rax\n",
            "mulx {t3}, rax, {a2}\n",
            "adox {t2}, rax\n",
            "mulx {c}, rax, {a3}\n",
            "adox {t3}, rax\n",
            "mov eax, 0\n",
            "adox {c}, rax\n",
        )
    };
}

/// The reduce half of one CIOS round: `m = t0 · INV`, then
/// `t = (t + m·p) / 2⁶⁴ + c·2¹⁹²`. `adcx` carries the high halves of
/// `m·p` and `adox` the low ones; the two carries and `c` land in the top
/// limb without overflow because `p < 2²⁵⁴` (the no-carry argument of the
/// portable body). The modulus limbs and `INV` are immediates.
#[cfg(target_arch = "x86_64")]
macro_rules! cios_reduce {
    () => {
        concat!(
            "mov rdx, {inv}\n",
            "imul rdx, {t0}\n",
            "xor eax, eax\n",
            "mov rax, {p0}\n",
            "mulx {h}, rax, rax\n",
            "adcx rax, {t0}\n",
            "mov {t0}, {h}\n",
            "mov rax, {p1}\n",
            "adcx {t0}, {t1}\n",
            "mulx {t1}, rax, rax\n",
            "adox {t0}, rax\n",
            "mov rax, {p2}\n",
            "adcx {t1}, {t2}\n",
            "mulx {t2}, rax, rax\n",
            "adox {t1}, rax\n",
            "mov rax, {p3}\n",
            "adcx {t2}, {t3}\n",
            "mulx {t3}, rax, rax\n",
            "adox {t2}, rax\n",
            "mov eax, 0\n",
            "adcx {t3}, rax\n",
            "adox {t3}, {c}\n",
        )
    };
}

#[cfg(target_arch = "x86_64")]
impl<P: FpParams> Fp<P> {
    /// [`Self::mont_mul_portable`] on `mulx` / `adcx` / `adox`: the same
    /// CIOS rounds, the same limbs out. `a` stays in registers for all
    /// four rounds and `b` is read one limb per round, so a chain
    /// `x = x · y` never stores `x` to memory between products.
    ///
    /// # Safety
    ///
    /// The CPU must have BMI2 and ADX.
    #[inline(always)]
    unsafe fn mont_mul_adx(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
        let (t0, t1, t2, t3): (u64, u64, u64, u64);
        // SAFETY: the caller checked BMI2 and ADX; the block reads the
        // four limbs behind `b` and touches no other memory or stack.
        unsafe {
            std::arch::asm!(
                "mov rdx, qword ptr [{b}]",
                cios_mul_first!(),
                cios_reduce!(),
                "mov rdx, qword ptr [{b} + 8]",
                cios_mul_round!(),
                cios_reduce!(),
                "mov rdx, qword ptr [{b} + 16]",
                cios_mul_round!(),
                cios_reduce!(),
                "mov rdx, qword ptr [{b} + 24]",
                cios_mul_round!(),
                cios_reduce!(),
                a0 = in(reg) a[0],
                a1 = in(reg) a[1],
                a2 = in(reg) a[2],
                a3 = in(reg) a[3],
                b = in(reg) b.as_ptr(),
                t0 = out(reg) t0,
                t1 = out(reg) t1,
                t2 = out(reg) t2,
                t3 = out(reg) t3,
                c = out(reg) _,
                h = out(reg) _,
                out("rax") _,
                out("rdx") _,
                inv = const Self::INV,
                p0 = const P::MODULUS[0],
                p1 = const P::MODULUS[1],
                p2 = const P::MODULUS[2],
                p3 = const P::MODULUS[3],
                options(pure, readonly, nostack),
            );
        }
        Self::subtract_p_once([t0, t1, t2, t3])
    }

    /// `a · a` on the kernel of [`Self::mont_mul_adx`], each round's
    /// limb taken from a register instead of memory.
    ///
    /// # Safety
    ///
    /// The CPU must have BMI2 and ADX.
    #[inline(always)]
    unsafe fn mont_sqr_adx(a: &[u64; 4]) -> [u64; 4] {
        let (t0, t1, t2, t3): (u64, u64, u64, u64);
        // SAFETY: the caller checked BMI2 and ADX; the block touches no
        // memory or stack.
        unsafe {
            std::arch::asm!(
                "mov rdx, {a0}",
                cios_mul_first!(),
                cios_reduce!(),
                "mov rdx, {a1}",
                cios_mul_round!(),
                cios_reduce!(),
                "mov rdx, {a2}",
                cios_mul_round!(),
                cios_reduce!(),
                "mov rdx, {a3}",
                cios_mul_round!(),
                cios_reduce!(),
                a0 = in(reg) a[0],
                a1 = in(reg) a[1],
                a2 = in(reg) a[2],
                a3 = in(reg) a[3],
                t0 = out(reg) t0,
                t1 = out(reg) t1,
                t2 = out(reg) t2,
                t3 = out(reg) t3,
                c = out(reg) _,
                h = out(reg) _,
                out("rax") _,
                out("rdx") _,
                inv = const Self::INV,
                p0 = const P::MODULUS[0],
                p1 = const P::MODULUS[1],
                p2 = const P::MODULUS[2],
                p3 = const P::MODULUS[3],
                options(pure, nomem, nostack),
            );
        }
        Self::subtract_p_once([t0, t1, t2, t3])
    }

    /// The kernels' final step, as in the portable bodies: a CIOS result
    /// is below `2p`, so one conditional subtraction makes it canonical.
    #[inline(always)]
    fn subtract_p_once(t: [u64; 4]) -> [u64; 4] {
        if geq(&t, &P::MODULUS) {
            sub_limbs(&t, &P::MODULUS)
        } else {
            t
        }
    }
}

// ---------------------------------------------------------------------------
// lane vectors
// ---------------------------------------------------------------------------

/// How [`Self::WIDTH`] field elements are held and operated on side by
/// side. Two bodies: [`Portable`], one lane on every CPU, a scalar
/// element and the scalar operations; and `Ifma`, eight lanes of AVX-512
/// IFMA on x86_64, which [`with_lanes`] picks when the CPU has it. Both
/// give the same limbs in every lane, the limbs the scalar operations
/// give.
///
/// A body value stands for the CPU support its operations need: the IFMA
/// body cannot be built outside this module, and [`with_lanes`] builds it
/// only after detecting IFMA.
pub trait LaneBody: Copy + Send + Sync {
    /// Lanes per vector: 1 on [`Portable`], 8 on IFMA.
    const WIDTH: usize;
    /// One `T` per lane, lane `i` at index `i`: `[T; WIDTH]`.
    type Array<T: Copy>: Copy + AsRef<[T]> + AsMut<[T]>;
    /// `WIDTH` elements of `Fp<P>` in this body's layout.
    type Vec<P: FpParams>: Copy;
    /// The array of `f(0), …, f(WIDTH − 1)`.
    fn array<T: Copy>(f: impl FnMut(usize) -> T) -> Self::Array<T>;
    /// Loads the elements behind `v`.
    fn gather<P: FpParams>(self, v: Self::Array<&Fp<P>>) -> Self::Vec<P>;
    /// The elements, lane `i` at index `i`.
    fn scatter<P: FpParams>(self, v: Self::Vec<P>) -> Self::Array<Fp<P>>;
    /// Lane-wise `a + b`.
    fn add<P: FpParams>(self, a: Self::Vec<P>, b: Self::Vec<P>) -> Self::Vec<P>;
    /// Lane-wise `a − b`.
    fn sub<P: FpParams>(self, a: Self::Vec<P>, b: Self::Vec<P>) -> Self::Vec<P>;
    /// Lane-wise `a · b`.
    fn mul<P: FpParams>(self, a: Self::Vec<P>, b: Self::Vec<P>) -> Self::Vec<P>;
    /// Lane-wise `a²`.
    fn sqr<P: FpParams>(self, a: Self::Vec<P>) -> Self::Vec<P>;
    /// Runs `task` on this body, inside the function compiled with the
    /// CPU features the body needs: how code that already holds a body
    /// (a pool task split off a lane task, say) keeps running on it.
    fn run<T: LaneTask>(self, task: T) -> T::Output;
}

/// Work that runs on lane vectors, generic over the body, for
/// [`with_lanes`] to run on the body this CPU supports.
///
/// Mark `run` `#[inline(always)]`, and every function it passes lane
/// vectors to: the IFMA instantiation then compiles inside the one
/// function that enables the CPU features, where each lane operation
/// inlines. A lane operation left out of line is a call per product.
pub trait LaneTask {
    /// What the work returns.
    type Output;
    /// Does the work on `body`.
    fn run<B: LaneBody>(self, body: B) -> Self::Output;
}

/// Runs `task` on the IFMA body when this CPU has AVX-512 IFMA (checked
/// through std's feature cache, once per call), else on [`Portable`].
pub fn with_lanes<T: LaneTask>(task: T) -> T::Output {
    #[cfg(target_arch = "x86_64")]
    if has_ifma() {
        // AVX-512F and IFMA were just detected on this CPU.
        return Ifma(()).run(task);
    }
    Portable.run(task)
}

/// `B::WIDTH` elements of `Fp<P>` on lane body `B`, with the field's
/// operators applied lane by lane.
pub struct FpLanes<P: FpParams, B: LaneBody> {
    v: B::Vec<P>,
    body: B,
}

impl<P: FpParams, B: LaneBody> Copy for FpLanes<P, B> {}
impl<P: FpParams, B: LaneBody> Clone for FpLanes<P, B> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<P: FpParams, B: LaneBody> FpLanes<P, B> {
    /// Loads the elements behind `v`, lane `i` from `v[i]`.
    #[inline(always)]
    pub fn gather(body: B, v: B::Array<&Fp<P>>) -> Self {
        FpLanes {
            v: body.gather(v),
            body,
        }
    }

    /// Loads `v`, lane `i` from `v[i]`: [`Self::scatter`] undone.
    #[inline(always)]
    pub fn load(body: B, v: &B::Array<Fp<P>>) -> Self {
        let v = v.as_ref();
        Self::gather(body, B::array(|i| &v[i]))
    }

    /// `x` in every lane.
    #[inline(always)]
    pub fn splat(body: B, x: &Fp<P>) -> Self {
        Self::gather(body, B::array(|_| x))
    }

    /// The elements, lane `i` at index `i`.
    #[inline(always)]
    pub fn scatter(self) -> B::Array<Fp<P>> {
        self.body.scatter(self.v)
    }
}

impl<P: FpParams, B: LaneBody> Ring for FpLanes<P, B> {
    #[inline(always)]
    fn square(self) -> Self {
        FpLanes {
            v: self.body.sqr(self.v),
            body: self.body,
        }
    }
}

impl<P: FpParams, B: LaneBody> std::ops::Add for FpLanes<P, B> {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        FpLanes {
            v: self.body.add(self.v, rhs.v),
            body: self.body,
        }
    }
}

impl<P: FpParams, B: LaneBody> std::ops::Sub for FpLanes<P, B> {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        FpLanes {
            v: self.body.sub(self.v, rhs.v),
            body: self.body,
        }
    }
}

impl<P: FpParams, B: LaneBody> std::ops::Mul for FpLanes<P, B> {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        FpLanes {
            v: self.body.mul(self.v, rhs.v),
            body: self.body,
        }
    }
}

impl<P: FpParams, B: LaneBody> std::ops::Neg for FpLanes<P, B> {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        FpLanes::splat(self.body, &Fp::ZERO) - self
    }
}

/// A ring's operations on values: the operators and [`Self::square`] /
/// [`Self::double`]. Scalar elements have them and so do lane vectors,
/// so a formula written over `Ring` runs on either: `waku-curve` writes
/// its Fp2 / Fp6 / Fp12 tower once, over Fq and over Fq's lane vectors.
/// Every implementation's methods are `#[inline(always)]` (see
/// [`LaneTask`]).
pub trait Ring:
    Copy
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Neg<Output = Self>
{
    /// `self · self`.
    fn square(self) -> Self;

    /// `self + self`.
    #[inline(always)]
    fn double(self) -> Self {
        self + self
    }

    /// `f()`: how code built over this ring runs its larger routines (the
    /// tower's products and squares), each an `#[inline(always)]` closure.
    /// Lane vectors inline them, as every lane operation must be (see
    /// [`LaneTask`]); a scalar element calls each as a function of its
    /// own, so that scalar code holds one copy of a routine however many
    /// places use it.
    #[inline(always)]
    fn call<R>(f: impl Fn() -> R) -> R {
        f()
    }
}

impl<P: FpParams> Ring for Fp<P> {
    #[inline(always)]
    fn square(self) -> Self {
        Field::square(&self)
    }

    #[inline(never)]
    fn call<R>(f: impl Fn() -> R) -> R {
        f()
    }
}

/// A field whose elements generic lane code holds a vector at a time:
/// every `Fp<P>` as one [`FpLanes`] (the FFT's butterflies, the MSM's
/// Fq coordinates), and `waku-curve`'s tower as its Fq coefficients'
/// vectors. Every implementation's methods are `#[inline(always)]` (see
/// [`LaneTask`]).
pub trait LaneField: Field {
    /// `B::WIDTH` elements on lane body `B`.
    type Lanes<B: LaneBody>: Ring;
    /// Loads the elements behind `v`, lane `i` from `v[i]`.
    fn gather<B: LaneBody>(body: B, v: B::Array<&Self>) -> Self::Lanes<B>;
    /// The elements, lane `i` at index `i`.
    fn scatter<B: LaneBody>(v: Self::Lanes<B>) -> B::Array<Self>;

    /// Loads `v[..B::WIDTH]`, lane `i` from `v[i]`.
    #[inline(always)]
    fn load_slice<B: LaneBody>(body: B, v: &[Self]) -> Self::Lanes<B> {
        Self::gather(body, B::array(|i| &v[i]))
    }

    /// Stores the lanes to `out[..B::WIDTH]`, lane `i` to `out[i]`.
    #[inline(always)]
    fn store_slice<B: LaneBody>(v: Self::Lanes<B>, out: &mut [Self]) {
        for (o, x) in out.iter_mut().zip(Self::scatter(v).as_ref()) {
            *o = *x;
        }
    }
}

impl<P: FpParams> LaneField for Fp<P> {
    type Lanes<B: LaneBody> = FpLanes<P, B>;

    #[inline(always)]
    fn gather<B: LaneBody>(body: B, v: B::Array<&Self>) -> FpLanes<P, B> {
        FpLanes::gather(body, v)
    }

    #[inline(always)]
    fn scatter<B: LaneBody>(v: FpLanes<P, B>) -> B::Array<Self> {
        v.scatter()
    }
}

/// The portable lane body: one lane, a scalar element, and the scalar
/// `Fp` operations, so generic lane code compiles to plain scalar code.
/// It is the body on every CPU without IFMA, and eight of its vectors
/// are the IFMA body's test oracle.
#[derive(Clone, Copy, Debug)]
pub struct Portable;

impl LaneBody for Portable {
    const WIDTH: usize = 1;
    type Array<T: Copy> = [T; 1];
    type Vec<P: FpParams> = Fp<P>;

    #[inline(always)]
    fn array<T: Copy>(mut f: impl FnMut(usize) -> T) -> [T; 1] {
        [f(0)]
    }

    #[inline(always)]
    fn gather<P: FpParams>(self, [v]: [&Fp<P>; 1]) -> Fp<P> {
        *v
    }

    #[inline(always)]
    fn scatter<P: FpParams>(self, v: Fp<P>) -> [Fp<P>; 1] {
        [v]
    }

    #[inline(always)]
    fn add<P: FpParams>(self, a: Fp<P>, b: Fp<P>) -> Fp<P> {
        a + b
    }

    #[inline(always)]
    fn sub<P: FpParams>(self, a: Fp<P>, b: Fp<P>) -> Fp<P> {
        a - b
    }

    #[inline(always)]
    fn mul<P: FpParams>(self, a: Fp<P>, b: Fp<P>) -> Fp<P> {
        a * b
    }

    #[inline(always)]
    fn sqr<P: FpParams>(self, a: Fp<P>) -> Fp<P> {
        a.square()
    }

    /// Out of line, as the IFMA body's `run_on_ifma` is: a task inlined
    /// into a caller that also holds a pool-split path (the FFT's stage
    /// loop) compiled to scalar loops ≈ 15 % slower than the same loops
    /// in a function of their own.
    #[inline(never)]
    fn run<T: LaneTask>(self, task: T) -> T::Output {
        task.run(self)
    }
}

/// The low 52 bits: one IFMA limb.
const MASK52: u64 = (1 << 52) - 1;

/// A 256-bit value as five 52-bit limbs, little-endian: the IFMA body's
/// layout of one lane.
const fn to_limbs52(l: &[u64; 4]) -> [u64; 5] {
    [
        l[0] & MASK52,
        (l[0] >> 52 | l[1] << 12) & MASK52,
        (l[1] >> 40 | l[2] << 24) & MASK52,
        (l[2] >> 28 | l[3] << 36) & MASK52,
        l[3] >> 16,
    ]
}

impl<P: FpParams> Fp<P> {
    /// The modulus in five 52-bit limbs.
    const MODULUS52: [u64; 5] = to_limbs52(&P::MODULUS);
    /// `-p⁻¹ mod 2⁵²`.
    const INV52: u64 = Self::INV & MASK52;
}

/// Whether this CPU runs AVX-512F and the IFMA products
/// (`vpmadd52luq` / `vpmadd52huq`).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn has_ifma() -> bool {
    std::is_x86_feature_detected!("avx512f") && std::is_x86_feature_detected!("avx512ifma")
}

/// The one function compiled with AVX-512F and IFMA: `task`'s IFMA
/// instantiation inlines into it, and the intrinsics with it.
///
/// # Safety
///
/// The CPU must have AVX-512F and IFMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512ifma")]
unsafe fn run_on_ifma<T: LaneTask>(task: T) -> T::Output {
    task.run(Ifma(()))
}

/// The AVX-512 IFMA lane body: five 52-bit limbs per element, limb `k`
/// of lane `i` in 64-bit slot `i` of register `k`.
///
/// Its product is Montgomery's with `R = 2²⁶⁰`, five rounds of 52 bits,
/// with the double-width product scaled by 16 before the reduction:
/// `16·a·b·2⁻²⁶⁰ = a·b·2⁻²⁵⁶`, the value the scalar `mont_mul` returns.
/// The reduction multiplier of the `2²⁶⁰` form is 16 times the scalar
/// one, so the value before the final subtraction is the scalar kernel's
/// too: below `(16p² + 2²⁶⁰·p)/2²⁶⁰ < 2p`, because `16p < 2²⁵⁸`. One
/// conditional subtraction makes it canonical, and each lane holds
/// exactly the limbs `mont_mul` returns. Every limb is below `2⁵²` on the
/// way in and out; the 64-bit accumulators in between stay below `2⁶¹`.
///
/// Built only by [`with_lanes`] after detection, and by this module's
/// tests after the same check.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug)]
pub struct Ifma(());

#[cfg(target_arch = "x86_64")]
impl LaneBody for Ifma {
    const WIDTH: usize = 8;
    type Array<T: Copy> = [T; 8];
    type Vec<P: FpParams> = [std::arch::x86_64::__m512i; 5];

    #[inline(always)]
    fn array<T: Copy>(f: impl FnMut(usize) -> T) -> [T; 8] {
        std::array::from_fn(f)
    }

    #[inline(always)]
    fn gather<P: FpParams>(self, v: [&Fp<P>; 8]) -> Self::Vec<P> {
        // SAFETY: an `Ifma` exists only where AVX-512F and IFMA do.
        unsafe { ifma::gather(v) }
    }

    #[inline(always)]
    fn scatter<P: FpParams>(self, v: Self::Vec<P>) -> [Fp<P>; 8] {
        // SAFETY: an `Ifma` exists only where AVX-512F and IFMA do.
        unsafe { ifma::scatter(v) }
    }

    #[inline(always)]
    fn add<P: FpParams>(self, a: Self::Vec<P>, b: Self::Vec<P>) -> Self::Vec<P> {
        // SAFETY: an `Ifma` exists only where AVX-512F and IFMA do.
        unsafe { ifma::add::<P>(a, b) }
    }

    #[inline(always)]
    fn sub<P: FpParams>(self, a: Self::Vec<P>, b: Self::Vec<P>) -> Self::Vec<P> {
        // SAFETY: an `Ifma` exists only where AVX-512F and IFMA do.
        unsafe { ifma::sub::<P>(a, b) }
    }

    #[inline(always)]
    fn mul<P: FpParams>(self, a: Self::Vec<P>, b: Self::Vec<P>) -> Self::Vec<P> {
        // SAFETY: an `Ifma` exists only where AVX-512F and IFMA do.
        unsafe { ifma::mul::<P>(a, b) }
    }

    #[inline(always)]
    fn sqr<P: FpParams>(self, a: Self::Vec<P>) -> Self::Vec<P> {
        // SAFETY: an `Ifma` exists only where AVX-512F and IFMA do.
        unsafe { ifma::sqr::<P>(a) }
    }

    #[inline(always)]
    fn run<T: LaneTask>(self, task: T) -> T::Output {
        // SAFETY: an `Ifma` exists only where AVX-512F and IFMA do.
        unsafe { run_on_ifma(task) }
    }
}

/// The IFMA body's operations, on five registers of eight 64-bit slots.
///
/// # Safety
///
/// Every function here must run on a CPU with AVX-512F and IFMA. They
/// are `#[inline(always)]` without `#[target_feature]`, so they compile
/// to these instructions only where they inline into
/// [`run_on_ifma`]; anywhere else each intrinsic is a call.
#[cfg(target_arch = "x86_64")]
mod ifma {
    use super::{Fp, FpParams, MASK52};
    use std::arch::x86_64::*;
    use std::marker::PhantomData;

    type V = __m512i;

    #[inline(always)]
    unsafe fn splat(x: u64) -> V {
        // SAFETY (this and every block below): the caller guarantees
        // AVX-512F and IFMA (see the module's Safety section).
        unsafe { _mm512_set1_epi64(x as i64) }
    }

    /// The carries of unreduced limbs moved up, so every limb but the top
    /// one is below `2⁵²`. Limbs may be negative (two's complement): the
    /// arithmetic shift borrows them.
    #[inline(always)]
    unsafe fn normalize(mut t: [V; 5]) -> [V; 5] {
        unsafe {
            let mask = splat(MASK52);
            for k in 0..4 {
                t[k + 1] = _mm512_add_epi64(t[k + 1], _mm512_srai_epi64::<52>(t[k]));
                t[k] = _mm512_and_si512(t[k], mask);
            }
        }
        t
    }

    /// Canonical `t` for normalized `t < 2p`: `t − p` where that does not
    /// borrow, else `t`.
    #[inline(always)]
    unsafe fn subtract_p_once<P: FpParams>(t: [V; 5]) -> [V; 5] {
        unsafe {
            let p = Fp::<P>::MODULUS52;
            let d = normalize(std::array::from_fn(|k| _mm512_sub_epi64(t[k], splat(p[k]))));
            let borrowed = _mm512_cmplt_epi64_mask(d[4], _mm512_setzero_si512());
            std::array::from_fn(|k| _mm512_mask_blend_epi64(borrowed, d[k], t[k]))
        }
    }

    /// Scales the ten unnormalized limbs `z` of `a·b` by 16, the factor
    /// that turns the `2²⁶⁰` reduction into `mont_mul`'s `2²⁵⁶`, and
    /// Montgomery-reduces them: five rounds, each adding `m·p` with `m`
    /// chosen to clear the low limb and carrying that limb into the next,
    /// then the top five limbs normalized and made canonical.
    #[inline(always)]
    unsafe fn redc16<P: FpParams>(z: [V; 10]) -> [V; 5] {
        unsafe {
            // Loops, not `array::map`: a `map` closure LLVM leaves out of
            // line compiles without these CPU features, and each
            // intrinsic in it becomes a call (seen in the Miller loop's
            // lane tasks, where this product then ran half as fast).
            let mut z = z;
            for x in &mut z {
                *x = _mm512_slli_epi64::<4>(*x);
            }
            let zero = _mm512_setzero_si512();
            let inv = splat(Fp::<P>::INV52);
            let mut p = [zero; 5];
            for (p, l) in p.iter_mut().zip(Fp::<P>::MODULUS52) {
                *p = splat(l);
            }
            for i in 0..5 {
                let m = _mm512_madd52lo_epu64(zero, z[i], inv);
                for j in 0..5 {
                    z[i + j] = _mm512_madd52lo_epu64(z[i + j], m, p[j]);
                    z[i + j + 1] = _mm512_madd52hi_epu64(z[i + j + 1], m, p[j]);
                }
                z[i + 1] = _mm512_add_epi64(z[i + 1], _mm512_srli_epi64::<52>(z[i]));
            }
            subtract_p_once::<P>(normalize([z[5], z[6], z[7], z[8], z[9]]))
        }
    }

    /// Loads eight elements and transposes them to one register per limb.
    #[inline(always)]
    pub(super) unsafe fn gather<P: FpParams>(v: [&Fp<P>; 8]) -> [V; 5] {
        unsafe {
            let load = |i: usize| _mm256_loadu_si256(v[i].0.as_ptr().cast());
            let pair =
                |i: usize| _mm512_inserti64x4::<1>(_mm512_castsi256_si512(load(i)), load(i + 1));
            // Four registers of two elements each, `[e0 | e1]`, …
            let (z01, z23, z45, z67) = (pair(0), pair(2), pair(4), pair(6));
            // … to limbs 0 and 1 of four elements, and limbs 2 and 3, …
            let even = _mm512_setr_epi64(0, 4, 8, 12, 1, 5, 9, 13);
            let odd = _mm512_setr_epi64(2, 6, 10, 14, 3, 7, 11, 15);
            let lo03 = _mm512_permutex2var_epi64(z01, even, z23);
            let hi03 = _mm512_permutex2var_epi64(z01, odd, z23);
            let lo47 = _mm512_permutex2var_epi64(z45, even, z67);
            let hi47 = _mm512_permutex2var_epi64(z45, odd, z67);
            // … to one register per 64-bit limb, eight elements each, …
            let l0 = _mm512_shuffle_i64x2::<0x44>(lo03, lo47);
            let l1 = _mm512_shuffle_i64x2::<0xEE>(lo03, lo47);
            let l2 = _mm512_shuffle_i64x2::<0x44>(hi03, hi47);
            let l3 = _mm512_shuffle_i64x2::<0xEE>(hi03, hi47);
            // … to five 52-bit limbs, as `to_limbs52`.
            let mask = splat(MASK52);
            let join = |lo, hi| _mm512_and_si512(_mm512_or_si512(lo, hi), mask);
            [
                _mm512_and_si512(l0, mask),
                join(_mm512_srli_epi64::<52>(l0), _mm512_slli_epi64::<12>(l1)),
                join(_mm512_srli_epi64::<40>(l1), _mm512_slli_epi64::<24>(l2)),
                join(_mm512_srli_epi64::<28>(l2), _mm512_slli_epi64::<36>(l3)),
                _mm512_srli_epi64::<16>(l3),
            ]
        }
    }

    /// [`gather`] undone, step by step in reverse order.
    #[inline(always)]
    pub(super) unsafe fn scatter<P: FpParams>(t: [V; 5]) -> [Fp<P>; 8] {
        unsafe {
            let or = |a, b| _mm512_or_si512(a, b);
            let l0 = or(t[0], _mm512_slli_epi64::<52>(t[1]));
            let l1 = or(_mm512_srli_epi64::<12>(t[1]), _mm512_slli_epi64::<40>(t[2]));
            let l2 = or(_mm512_srli_epi64::<24>(t[2]), _mm512_slli_epi64::<28>(t[3]));
            let l3 = or(_mm512_srli_epi64::<36>(t[3]), _mm512_slli_epi64::<16>(t[4]));
            let lo03 = _mm512_shuffle_i64x2::<0x44>(l0, l1);
            let lo47 = _mm512_shuffle_i64x2::<0xEE>(l0, l1);
            let hi03 = _mm512_shuffle_i64x2::<0x44>(l2, l3);
            let hi47 = _mm512_shuffle_i64x2::<0xEE>(l2, l3);
            let even = _mm512_setr_epi64(0, 4, 8, 12, 1, 5, 9, 13);
            let odd = _mm512_setr_epi64(2, 6, 10, 14, 3, 7, 11, 15);
            let mut out = [[0u64; 4]; 8];
            // Two elements per store: 64 of the array's 256 bytes.
            let dst = out.as_mut_ptr().cast::<V>();
            _mm512_storeu_si512(dst, _mm512_permutex2var_epi64(lo03, even, hi03));
            _mm512_storeu_si512(dst.add(1), _mm512_permutex2var_epi64(lo03, odd, hi03));
            _mm512_storeu_si512(dst.add(2), _mm512_permutex2var_epi64(lo47, even, hi47));
            _mm512_storeu_si512(dst.add(3), _mm512_permutex2var_epi64(lo47, odd, hi47));
            out.map(|limbs| Fp(limbs, PhantomData))
        }
    }

    #[inline(always)]
    pub(super) unsafe fn add<P: FpParams>(a: [V; 5], b: [V; 5]) -> [V; 5] {
        unsafe {
            let sum = std::array::from_fn(|k| _mm512_add_epi64(a[k], b[k]));
            subtract_p_once::<P>(normalize(sum))
        }
    }

    #[inline(always)]
    pub(super) unsafe fn sub<P: FpParams>(a: [V; 5], b: [V; 5]) -> [V; 5] {
        unsafe {
            let d = normalize(std::array::from_fn(|k| _mm512_sub_epi64(a[k], b[k])));
            // A negative difference gets p back.
            let negative = _mm512_srai_epi64::<63>(d[4]);
            let p = Fp::<P>::MODULUS52;
            normalize(std::array::from_fn(|k| {
                _mm512_add_epi64(d[k], _mm512_and_si512(splat(p[k]), negative))
            }))
        }
    }

    #[inline(always)]
    pub(super) unsafe fn mul<P: FpParams>(a: [V; 5], b: [V; 5]) -> [V; 5] {
        unsafe {
            let mut z = [_mm512_setzero_si512(); 10];
            for i in 0..5 {
                for j in 0..5 {
                    z[i + j] = _mm512_madd52lo_epu64(z[i + j], a[j], b[i]);
                    z[i + j + 1] = _mm512_madd52hi_epu64(z[i + j + 1], a[j], b[i]);
                }
            }
            redc16::<P>(z)
        }
    }

    #[inline(always)]
    pub(super) unsafe fn sqr<P: FpParams>(a: [V; 5]) -> [V; 5] {
        unsafe {
            let mut z = [_mm512_setzero_si512(); 10];
            // The products above the diagonal once, doubled, …
            for i in 0..5 {
                for j in (i + 1)..5 {
                    z[i + j] = _mm512_madd52lo_epu64(z[i + j], a[i], a[j]);
                    z[i + j + 1] = _mm512_madd52hi_epu64(z[i + j + 1], a[i], a[j]);
                }
            }
            // A loop, not `array::map` (see `redc16`).
            for x in &mut z {
                *x = _mm512_add_epi64(*x, *x);
            }
            // … then the squares on the diagonal.
            for i in 0..5 {
                z[2 * i] = _mm512_madd52lo_epu64(z[2 * i], a[i], a[i]);
                z[2 * i + 1] = _mm512_madd52hi_epu64(z[2 * i + 1], a[i], a[i]);
            }
            redc16::<P>(z)
        }
    }
}

// ---------------------------------------------------------------------------
// operators
// ---------------------------------------------------------------------------

// Add and sub reduce without a branch. On random operands "did the sum
// reach p" / "did the difference borrow" is a coin flip, and the tower
// above is add-heavy (an Fp12 product runs 280 Fq additions and
// subtractions beside its 54 Fq products, a final exponentiation ≈ 72 500
// beside ≈ 18 800), so a branch here is mispredicted all over the
// pairing. Both always run the second limb chain, and the borrow mask
// `sbb` returns decides what it contributes. `mont_mul` / `mont_sqr` keep
// their final compare-and-subtract: it is rarely taken and predicts well,
// and the same mask there measured slower (4 096 independent products on
// fresh inputs 80 → 91 µs, a final exponentiation 458 → 480 µs; 2-vCPU
// VM). The add/sub masks took a 64-pair Miller loop on one thread from
// ≈ 16.4 to ≈ 13.7 ms and an Fp12 product on fresh inputs from ≈ 3.3 to
// ≈ 2.6 µs; timed on repeated inputs the branchy version reads faster,
// because repetition trains the predictor.

impl<P: FpParams> std::ops::Add for Fp<P> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        let mut sum = [0u64; 4];
        let mut carry = 0u64;
        for (s, (&x, &y)) in sum.iter_mut().zip(self.0.iter().zip(rhs.0.iter())) {
            (*s, carry) = adc(x, y, carry);
        }
        // p < 2^255 and both operands < p, so no carry out.
        debug_assert_eq!(carry, 0);
        // sum − p borrows exactly when sum < p: keep sum then.
        let mut out = [0u64; 4];
        let mut borrow = 0u64;
        for (o, (&s, &m)) in out.iter_mut().zip(sum.iter().zip(P::MODULUS.iter())) {
            (*o, borrow) = sbb(s, m, borrow);
        }
        for (o, &s) in out.iter_mut().zip(sum.iter()) {
            *o = (s & borrow) | (*o & !borrow);
        }
        Fp(out, PhantomData)
    }
}

impl<P: FpParams> std::ops::Sub for Fp<P> {
    type Output = Self;
    // The `&` masks p, it does not stand in for an operator.
    #[allow(clippy::suspicious_arithmetic_impl)]
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        let mut out = [0u64; 4];
        let mut borrow = 0u64;
        for (o, (&x, &y)) in out.iter_mut().zip(self.0.iter().zip(rhs.0.iter())) {
            (*o, borrow) = sbb(x, y, borrow);
        }
        // Add p back when the difference borrowed, 0 otherwise.
        let mut carry = 0u64;
        for (o, &m) in out.iter_mut().zip(P::MODULUS.iter()) {
            (*o, carry) = adc(*o, m & borrow, carry);
        }
        Fp(out, PhantomData)
    }
}

impl<P: FpParams> std::ops::Mul for Fp<P> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Fp(Self::mont_mul(&self.0, &rhs.0), PhantomData)
    }
}

impl<P: FpParams> std::ops::Neg for Fp<P> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        if self.is_zero() {
            self
        } else {
            Fp(sub_limbs(&P::MODULUS, &self.0), PhantomData)
        }
    }
}

impl<P: FpParams> std::ops::AddAssign for Fp<P> {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl<P: FpParams> std::ops::SubAssign for Fp<P> {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl<P: FpParams> std::ops::MulAssign for Fp<P> {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<P: FpParams> std::iter::Sum for Fp<P> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

impl<P: FpParams> std::iter::Product for Fp<P> {
    fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ONE, |a, b| a * b)
    }
}

impl<P: FpParams> fmt::Debug for Fp<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fp({})", BigUint::from_limbs(&self.to_canonical_limbs()))
    }
}

impl<P: FpParams> fmt::Display for Fp<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", BigUint::from_limbs(&self.to_canonical_limbs()))
    }
}

impl<P: FpParams> PartialOrd for Fp<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Ordering compares *canonical* integer values, so nullifier-map keys and
/// similar structures sort in the natural numeric order.
impl<P: FpParams> Ord for Fp<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        let a = self.to_canonical_limbs();
        let b = other.to_canonical_limbs();
        for i in (0..4).rev() {
            match a[i].cmp(&b[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl<P: FpParams> Field for Fp<P> {
    fn zero() -> Self {
        Self::ZERO
    }

    fn one() -> Self {
        Self::ONE
    }

    fn is_zero(&self) -> bool {
        self.0 == [0; 4]
    }

    fn square(&self) -> Self {
        Fp(Self::mont_sqr(&self.0), PhantomData)
    }

    /// Binary extended Euclid on the Montgomery limbs — about twice as
    /// fast as the Fermat ladder `a^(p−2)` it replaced (kept as the test
    /// oracle), and the same canonical result. On random Fq inputs (2-vCPU
    /// VM) it takes ≈ 6.3 µs against ≈ 12 µs. Timing one repeated input
    /// reads ≈ 2.6 µs instead: its branches are data-dependent, and a
    /// repeated input trains the branch predictor.
    ///
    /// With `a = ā·R` the stored limbs, the loop keeps `x1 ≡ u·R²/a` and
    /// `x2 ≡ v·R²/a (mod p)` while it reduces `(u, v)` from `(a, p)` to
    /// their gcd 1, so the survivor is `R²/a = ā⁻¹·R`: the inverse,
    /// already in Montgomery form.
    fn inverse(&self) -> Option<Self> {
        if self.is_zero() {
            return None;
        }
        const ONE: [u64; 4] = [1, 0, 0, 0];
        let (mut u, mut v) = (self.0, P::MODULUS);
        let (mut x1, mut x2) = (Fp::<P>(Self::R2, PhantomData), Self::ZERO);
        // gcd(a, p) = 1, so u and v never meet above 1 and one of them
        // reaches 1; every round strips at least one bit from u or v.
        while u != ONE && v != ONE {
            while u[0] & 1 == 0 {
                u = shr1(&u);
                x1 = x1.halve();
            }
            while v[0] & 1 == 0 {
                v = shr1(&v);
                x2 = x2.halve();
            }
            if geq(&u, &v) {
                u = sub_limbs(&u, &v);
                x1 -= x2;
            } else {
                v = sub_limbs(&v, &u);
                x2 -= x1;
            }
        }
        Some(if u == ONE { x1 } else { x2 })
    }

    fn random<R: rand::Rng + ?Sized>(rng: &mut R) -> Self {
        let limbs = [rng.gen(), rng.gen(), rng.gen(), rng.gen()];
        // Raw random limbs interpreted as Montgomery form are still uniform
        // after reduction bias; for our simulation purposes the ~2⁻² bias of
        // rejection-free reduction is irrelevant, but rejection sampling is
        // cheap enough to do properly.
        let mut limbs = limbs;
        loop {
            if !geq(&limbs, &P::MODULUS) {
                return Fp(limbs, PhantomData);
            }
            limbs = [rng.gen(), rng.gen(), rng.gen(), rng.gen()];
        }
    }
}

impl<P: FpParams> PrimeField for Fp<P> {
    const MODULUS: [u64; 4] = P::MODULUS;
    const TWO_ADICITY: u32 = P::TWO_ADICITY;
    const NUM_BITS: u32 = P::NUM_BITS;

    fn from_u64(v: u64) -> Self {
        Fp(Self::mont_mul(&[v, 0, 0, 0], &Self::R2), PhantomData)
    }

    fn to_canonical_limbs(&self) -> [u64; 4] {
        // Montgomery reduction by multiplying with 1 (non-Montgomery).
        Self::mont_mul(&self.0, &[1, 0, 0, 0])
    }

    fn from_canonical_limbs(limbs: [u64; 4]) -> Option<Self> {
        if geq(&limbs, &P::MODULUS) {
            return None;
        }
        Some(Fp(Self::mont_mul(&limbs, &Self::R2), PhantomData))
    }

    fn from_le_bytes_mod_order(bytes: &[u8]) -> Self {
        assert!(bytes.len() <= 64, "input longer than 64 bytes");
        let to_mont = |half: &[u8]| {
            let mut buf = [0u8; 32];
            buf[..half.len()].copy_from_slice(half);
            let mut limbs = [0u64; 4];
            for (limb, chunk) in limbs.iter_mut().zip(buf.as_chunks::<8>().0) {
                *limb = u64::from_le_bytes(*chunk);
            }
            Fp::<P>(
                Self::mont_mul(&Self::reduce_canonical(limbs), &Self::R2),
                PhantomData,
            )
        };
        let (lo, hi) = bytes.split_at(bytes.len().min(32));
        if hi.is_empty() {
            return to_mont(lo);
        }
        // value = lo + hi·2²⁵⁶, and 2²⁵⁶ mod p = R, whose Montgomery form
        // R·R mod p is the constant R².
        to_mont(lo) + to_mont(hi) * Fp::<P>(Self::R2, PhantomData)
    }

    fn to_le_bytes(&self) -> [u8; 32] {
        let limbs = self.to_canonical_limbs();
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[i * 8..(i + 1) * 8].copy_from_slice(&limbs[i].to_le_bytes());
        }
        out
    }

    fn from_le_bytes(bytes: &[u8; 32]) -> Option<Self> {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            limbs[i] = u64::from_le_bytes(bytes[i * 8..(i + 1) * 8].try_into().unwrap());
        }
        Self::from_canonical_limbs(limbs)
    }

    fn multiplicative_generator() -> Self {
        Self::from_u64(P::GENERATOR)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::{Fq, Fr};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn constants_against_biguint() {
        // R and R² recomputed independently with the bignum path.
        let p = Fq::modulus_biguint();
        let r = BigUint::from(2u64).pow(0).shl(256).rem(&p);
        assert_eq!(BigUint::from_limbs(&Fq::R), r);
        let r2 = BigUint::one().shl(512).rem(&p);
        assert_eq!(BigUint::from_limbs(&Fq::R2), r2);
    }

    #[test]
    fn dedicated_squaring_matches_mul() {
        // `square` uses the doubled-triangle + 8-limb-reduce path; it must
        // agree with `mont_mul(a, a)` on both fields, including edge
        // values near the modulus.
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..500 {
            let a = Fq::random(&mut rng);
            assert_eq!(a.square(), a * a);
            let b = Fr::random(&mut rng);
            assert_eq!(b.square(), b * b);
        }
        for special in [Fq::ZERO, Fq::ONE, -Fq::ONE, Fq::ONE + Fq::ONE] {
            assert_eq!(special.square(), special * special);
        }
    }

    #[test]
    fn mont_inv_property() {
        let inv = Fq::INV;
        let p0 = <Fq as PrimeField>::MODULUS[0];
        assert_eq!(p0.wrapping_mul(inv.wrapping_neg()), 1);
    }

    #[test]
    fn one_times_one() {
        assert_eq!(Fq::ONE * Fq::ONE, Fq::ONE);
        assert_eq!(Fr::ONE * Fr::ONE, Fr::ONE);
    }

    #[test]
    fn add_sub_mul_small_values() {
        let a = Fr::from_u64(1234567);
        let b = Fr::from_u64(7654321);
        assert_eq!((a + b).to_canonical_limbs()[0], 1234567 + 7654321);
        assert_eq!((b - a).to_canonical_limbs()[0], 7654321 - 1234567);
        assert_eq!((a * b).to_canonical_limbs()[0], 1234567u64 * 7654321u64);
    }

    #[test]
    fn mul_matches_biguint_reference() {
        fn check<P: FpParams>(rng: &mut StdRng) {
            let p = BigUint::from_limbs(&P::MODULUS);
            for _ in 0..50 {
                let a = Fp::<P>::random(rng);
                let b = Fp::<P>::random(rng);
                let ab = a * b;
                let big = BigUint::from_limbs(&a.to_canonical_limbs())
                    .mul(&BigUint::from_limbs(&b.to_canonical_limbs()))
                    .rem(&p);
                assert_eq!(BigUint::from_limbs(&ab.to_canonical_limbs()), big);
            }
        }
        let mut rng = StdRng::seed_from_u64(42);
        check::<crate::fields::FrParams>(&mut rng);
        check::<crate::fields::FqParams>(&mut rng);
    }

    /// The BMI2/ADX kernels against the portable bodies they stand in
    /// for. On a CPU without BMI2 or ADX there is no kernel to check.
    #[cfg(target_arch = "x86_64")]
    mod adx_kernel {
        use super::*;
        use crate::fields::{FqParams, FrParams};
        use proptest::prelude::*;

        fn skipped() -> bool {
            let skip = !has_bmi2_adx();
            if skip {
                eprintln!("note: this CPU lacks BMI2 or ADX, the field kernel is not tested");
            }
            skip
        }

        /// Asserts both kernels give the portable bodies' limbs on `a`, `b`.
        fn same<P: FpParams>(a: &[u64; 4], b: &[u64; 4]) {
            // SAFETY: callers return early unless BMI2 and ADX are present.
            let (mul, sqr) = unsafe { (Fp::<P>::mont_mul_adx(a, b), Fp::<P>::mont_sqr_adx(a)) };
            assert_eq!(mul, Fp::<P>::mont_mul_portable(a, b), "{a:x?} · {b:x?}");
            assert_eq!(sqr, Fp::<P>::mont_sqr_portable(a), "{a:x?}²");
        }

        /// Random limbs below `p`: the top limb cut to 62 bits, then at
        /// most one subtraction.
        fn canonical<P: FpParams>(mut limbs: [u64; 4]) -> [u64; 4] {
            limbs[3] >>= 2;
            Fp::<P>::reduce_canonical(limbs)
        }

        proptest! {
            #[test]
            fn kernels_match_portable_bodies(
                a in proptest::array::uniform4(any::<u64>()),
                b in proptest::array::uniform4(any::<u64>()),
            ) {
                if skipped() {
                    return Ok(());
                }
                same::<FqParams>(&canonical::<FqParams>(a), &canonical::<FqParams>(b));
                same::<FrParams>(&canonical::<FrParams>(a), &canonical::<FrParams>(b));
            }
        }

        #[test]
        fn kernels_match_portable_bodies_at_the_edges() {
            fn edges<P: FpParams>(rng: &mut StdRng) {
                let p = BigUint::from_limbs(&P::MODULUS);
                let limbs = |v: &BigUint| -> [u64; 4] { v.to_fixed_limbs(4).try_into().unwrap() };
                let n = BigUint::from;
                let named = [
                    [0; 4],
                    [1, 0, 0, 0],
                    Fp::<P>::R,
                    limbs(&p.sub(&n(1))),
                    limbs(&p.sub(&n(2))),
                ];
                for a in &named {
                    for b in &named {
                        same::<P>(a, b);
                    }
                }
                // Results next to p, where the final compare runs past
                // the top limb: `a = c·R/b` makes the product exactly
                // `c`, so a small `c` meets the subtraction as `p + c`
                // and a `c` just below p meets it as itself.
                let near_p = [
                    n(0),
                    n(1),
                    n(2),
                    BigUint::one().shl(64),
                    BigUint::one().shl(128),
                    p.sub(&n(1)),
                    p.sub(&n(2)),
                    p.sub(&BigUint::one().shl(64)),
                    p.sub(&BigUint::one().shl(128)),
                ];
                for c in &near_p {
                    for _ in 0..16 {
                        let b = Fp::<P>::random(rng);
                        let b_inv = b.inverse().expect("nonzero").0;
                        let a = Fp::<P>::mont_mul_portable(&limbs(c), &b_inv);
                        same::<P>(&a, &b.0);
                    }
                }
                // A CIOS result is `a·b·R⁻¹ mod p` or that plus `p`; it
                // is the latter, the final subtraction's case, exactly
                // when `c·R < a·b` for the reduced `c`.
                let wide = |a: &[u64; 4], b: &[u64; 4]| {
                    let c = BigUint::from_limbs(&Fp::<P>::mont_mul_portable(a, b));
                    c.shl(256) < BigUint::from_limbs(a).mul(&BigUint::from_limbs(b))
                };
                let (mut products, mut squares) = (0, 0);
                while products < 64 || squares < 64 {
                    let a = Fp::<P>::random(rng).0;
                    let b = Fp::<P>::random(rng).0;
                    if wide(&a, &b) {
                        same::<P>(&a, &b);
                        products += 1;
                    }
                    if wide(&a, &a) {
                        same::<P>(&a, &a);
                        squares += 1;
                    }
                }
            }
            if skipped() {
                return;
            }
            let mut rng = StdRng::seed_from_u64(17);
            edges::<FqParams>(&mut rng);
            edges::<FrParams>(&mut rng);
        }
    }

    /// Both lane bodies against scalar operations, lane by lane. The
    /// portable body runs on every CPU; the IFMA one where the CPU has it.
    mod lanes {
        use super::*;
        use crate::fields::{FqParams, FrParams};
        use proptest::prelude::*;

        /// Asserts that `body` gives the scalar results in every lane,
        /// `B::WIDTH` of the eight pairs at a time: the product, the
        /// square, the sum and the difference, and the elements back
        /// through a gather and a scatter.
        fn same_on<B: LaneBody, P: FpParams>(body: B, a: &[Fp<P>; 8], b: &[Fp<P>; 8]) {
            for at in (0..8).step_by(B::WIDTH) {
                let (a, b) = (&a[at..at + B::WIDTH], &b[at..at + B::WIDTH]);
                let (x, y) = (
                    FpLanes::gather(body, B::array(|i| &a[i])),
                    FpLanes::gather(body, B::array(|i| &b[i])),
                );
                let each = |f: &dyn Fn(Fp<P>, Fp<P>) -> Fp<P>| -> Vec<Fp<P>> {
                    a.iter().zip(b).map(|(a, b)| f(*a, *b)).collect()
                };
                let got = |v: FpLanes<P, B>| v.scatter().as_ref().to_vec();
                assert_eq!(got(x), a, "gather then scatter");
                assert_eq!(got(x * y), each(&|a, b| a * b), "{a:?} · {b:?}");
                assert_eq!(got(x.square()), each(&|a, _| a.square()), "{a:?}²");
                assert_eq!(got(x + y), each(&|a, b| a + b), "{a:?} + {b:?}");
                assert_eq!(got(x - y), each(&|a, b| a - b), "{a:?} − {b:?}");
            }
        }

        /// [`same_on`] on the portable body, and on the IFMA body where
        /// this CPU has it.
        fn same<P: FpParams>(a: &[Fp<P>; 8], b: &[Fp<P>; 8]) {
            same_on(Portable, a, b);
            #[cfg(target_arch = "x86_64")]
            if has_ifma() {
                same_on(Ifma(()), a, b);
            }
        }

        /// Runs [`same`] over `pairs`, eight at a time, the last eight
        /// filled up with the first pair.
        fn same_pairwise<P: FpParams>(pairs: &[([u64; 4], [u64; 4])]) {
            for chunk in pairs.chunks(8) {
                let at = |i: usize| chunk.get(i).unwrap_or(&pairs[0]);
                let a = std::array::from_fn(|i| Fp::<P>(at(i).0, PhantomData));
                let b = std::array::from_fn(|i| Fp::<P>(at(i).1, PhantomData));
                same::<P>(&a, &b);
            }
        }

        fn note_if_no_ifma() {
            #[cfg(target_arch = "x86_64")]
            let absent = !has_ifma();
            #[cfg(not(target_arch = "x86_64"))]
            let absent = true;
            if absent {
                eprintln!(
                    "note: this CPU lacks AVX-512 IFMA, only the portable lane body is tested"
                );
            }
        }

        /// Random limbs below `p`: the top limb cut to 62 bits, then at
        /// most one subtraction.
        fn canonical<P: FpParams>(mut limbs: [u64; 4]) -> [u64; 4] {
            limbs[3] >>= 2;
            Fp::<P>::reduce_canonical(limbs)
        }

        proptest! {
            #[test]
            fn lane_bodies_match_scalar_operations(
                a in proptest::array::uniform8(proptest::array::uniform4(any::<u64>())),
                b in proptest::array::uniform8(proptest::array::uniform4(any::<u64>())),
            ) {
                note_if_no_ifma();
                fn check<P: FpParams>(a: &[[u64; 4]; 8], b: &[[u64; 4]; 8]) {
                    let lift = |v: &[[u64; 4]; 8]| v.map(|l| Fp::<P>(canonical::<P>(l), PhantomData));
                    same::<P>(&lift(a), &lift(b));
                }
                check::<FqParams>(&a, &b);
                check::<FrParams>(&a, &b);
            }
        }

        #[test]
        fn lane_bodies_match_scalar_operations_at_the_edges() {
            fn edges<P: FpParams>(rng: &mut StdRng) {
                let p = BigUint::from_limbs(&P::MODULUS);
                let limbs = |v: &BigUint| -> [u64; 4] { v.to_fixed_limbs(4).try_into().unwrap() };
                let n = BigUint::from;
                let named = [
                    [0; 4],
                    [1, 0, 0, 0],
                    Fp::<P>::R,
                    limbs(&p.sub(&n(1))),
                    limbs(&p.sub(&n(2))),
                ];
                let pairs: Vec<_> = named
                    .iter()
                    .flat_map(|a| named.iter().map(move |b| (*a, *b)))
                    .collect();
                same_pairwise::<P>(&pairs);
                // Products next to p: `a = c·R/b` makes the product
                // exactly `c`.
                let near_p = [
                    n(0),
                    n(1),
                    n(2),
                    BigUint::one().shl(52),
                    BigUint::one().shl(104),
                    BigUint::one().shl(208),
                    p.sub(&n(1)),
                    p.sub(&n(2)),
                    p.sub(&BigUint::one().shl(52)),
                    p.sub(&BigUint::one().shl(208)),
                ];
                let mut pairs = Vec::new();
                for c in &near_p {
                    for _ in 0..8 {
                        let b = Fp::<P>::random(rng);
                        let b_inv = b.inverse().expect("nonzero").0;
                        pairs.push((Fp::<P>::mont_mul_portable(&limbs(c), &b_inv), b.0));
                    }
                }
                same_pairwise::<P>(&pairs);
                // The value before the final subtraction is `c + p`, not
                // `c`, exactly when `c·R < a·b` (for the lanes as for the
                // scalar kernel: the reduction multiplier of `2²⁶⁰` is 16
                // times the scalar one).
                let wide = |a: &[u64; 4], b: &[u64; 4]| {
                    let c = BigUint::from_limbs(&Fp::<P>::mont_mul_portable(a, b));
                    c.shl(256) < BigUint::from_limbs(a).mul(&BigUint::from_limbs(b))
                };
                let (mut products, mut squares) = (Vec::new(), Vec::new());
                while products.len() < 64 || squares.len() < 64 {
                    let a = Fp::<P>::random(rng).0;
                    let b = Fp::<P>::random(rng).0;
                    if wide(&a, &b) {
                        products.push((a, b));
                    }
                    if wide(&a, &a) {
                        squares.push((a, a));
                    }
                }
                same_pairwise::<P>(&products);
                same_pairwise::<P>(&squares);
            }
            note_if_no_ifma();
            let mut rng = StdRng::seed_from_u64(23);
            edges::<FqParams>(&mut rng);
            edges::<FrParams>(&mut rng);
        }

        #[test]
        fn with_lanes_runs_a_task_on_the_detected_body() {
            struct Square<'a>(&'a [Fq; 8]);
            impl LaneTask for Square<'_> {
                type Output = Vec<Fq>;
                #[inline(always)]
                fn run<B: LaneBody>(self, body: B) -> Vec<Fq> {
                    let lanes = self.0.chunks(B::WIDTH).flat_map(|a| {
                        let x = FpLanes::gather(body, B::array(|i| &a[i]));
                        x.square().scatter().as_ref().to_vec()
                    });
                    lanes.collect()
                }
            }
            let mut rng = StdRng::seed_from_u64(29);
            let a: [Fq; 8] = std::array::from_fn(|_| Fq::random(&mut rng));
            assert_eq!(with_lanes(Square(&a)), a.map(|x| x.square()));
            assert_eq!(Square(&a).run(Portable), a.map(|x| x.square()));
        }
    }

    #[test]
    fn inverse_roundtrip() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let a = Fq::random(&mut rng);
            if a.is_zero() {
                continue;
            }
            assert_eq!(a * a.inverse().unwrap(), Fq::ONE);
        }
        assert!(Fq::ZERO.inverse().is_none());
    }

    #[test]
    fn add_sub_at_the_reduction_boundaries_match_biguint() {
        // The masks in `add` / `sub` choose between two limb chains; a
        // wrong mask shows only where the choice flips, which random
        // operands almost never hit. The edges are on the stored
        // (Montgomery) limbs, where the reduction acts, and add / sub are
        // the same maps on them as on canonical values.
        fn edges<P: FpParams>(rng: &mut StdRng) {
            let p = BigUint::from_limbs(&P::MODULUS);
            let raw = |v: &BigUint| Fp::<P>(v.to_fixed_limbs(4).try_into().unwrap(), PhantomData);
            let big = |f: Fp<P>| BigUint::from_limbs(&f.0);
            let n = |v: u64| BigUint::from(v);
            let check = |got: Fp<P>, want: BigUint, what: &str| {
                assert_eq!(big(got), want.rem(&p), "{what}");
            };
            let p_minus_1 = p.sub(&n(1));
            let mut lows = vec![n(2), n(3), p.sub(&n(3)), p.sub(&n(2))];
            lows.extend((0..16).map(|_| big(Fp::<P>::random(rng)).rem(&p.sub(&n(3))).add(&n(2))));
            for target in [p_minus_1.clone(), p.clone(), p.add(&n(1))] {
                for x in &lows {
                    let (a, b) = (raw(x), raw(&target.sub(x)));
                    check(a + b, target.clone(), "a + b at p − 1, p, p + 1");
                    check(b + a, target.clone(), "b + a");
                    check(a + b - b, x.clone(), "(a + b) − b");
                }
            }
            check(Fp::<P>::ZERO - raw(&p_minus_1), n(1), "0 − (p − 1)");
            for x in &lows {
                let a = raw(x);
                check(a - a, n(0), "a − a");
                check(a - raw(&x.add(&n(1))), p_minus_1.clone(), "a − (a + 1)");
            }
            let half_down = p_minus_1.shr(1);
            let half_up = p.add(&n(1)).shr(1);
            check(raw(&half_down).double(), p_minus_1.clone(), "2·(p − 1)/2");
            check(raw(&half_up).double(), n(1), "2·(p + 1)/2");
            assert_eq!(-Fp::<P>::ZERO, Fp::<P>::ZERO, "−0");
            check(-raw(&p_minus_1), n(1), "−(p − 1)");
        }
        let mut rng = StdRng::seed_from_u64(13);
        edges::<crate::fields::FqParams>(&mut rng);
        edges::<crate::fields::FrParams>(&mut rng);
    }

    #[test]
    fn negation() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = Fr::random(&mut rng);
        assert!((a + (-a)).is_zero());
        assert_eq!(-Fr::ZERO, Fr::ZERO);
    }

    #[test]
    fn inverse_matches_fermat_ladder() {
        // Oracle: a^(p−2), the algorithm `inverse` used to be.
        fn check<P: FpParams>(a: Fp<P>) {
            let fermat = a.pow(&Fp::<P>::P_MINUS_2);
            assert_eq!(a.inverse(), Some(fermat), "a = {a}");
            assert_eq!(a * fermat, Fp::<P>::ONE);
            assert_eq!(a.halve().double(), a);
        }
        fn sweep<P: FpParams>(rng: &mut StdRng) {
            // Small values, values next to p, powers of two (long runs of
            // halvings), raw Montgomery limbs 1 and p−1, then random.
            for k in 1..=16u64 {
                check(Fp::<P>::from_u64(k));
                check(-Fp::<P>::from_u64(k));
                check(Fp::<P>::from_u64(2).pow(&[16 * k - 1]));
            }
            check(Fp::<P>([1, 0, 0, 0], PhantomData));
            check(Fp::<P>(sub_limbs(&P::MODULUS, &[1, 0, 0, 0]), PhantomData));
            for _ in 0..2000 {
                check(Fp::<P>::random(rng));
            }
        }
        let mut rng = StdRng::seed_from_u64(12);
        sweep::<crate::fields::FqParams>(&mut rng);
        sweep::<crate::fields::FrParams>(&mut rng);
    }

    #[test]
    fn pow_small() {
        let a = Fr::from_u64(3);
        assert_eq!(a.pow(&[5]), Fr::from_u64(243));
        assert_eq!(a.pow(&[0]), Fr::ONE);
    }

    #[test]
    fn pow_matches_full_width_ladder() {
        // The ladder that squares through every bit of every limb,
        // leading zeros included — what `pow` did before it learned to
        // start at the top set bit.
        fn full_width(base: Fr, exp: &[u64]) -> Fr {
            let mut res = Fr::ONE;
            for &limb in exp.iter().rev() {
                for bit in (0..64).rev() {
                    res = res.square();
                    if (limb >> bit) & 1 == 1 {
                        res *= base;
                    }
                }
            }
            res
        }
        let mut rng = StdRng::seed_from_u64(10);
        let mut exps: Vec<Vec<u64>> = vec![
            vec![],
            vec![0],
            vec![1],
            vec![0, 0, 1],
            vec![0, 0],
            vec![u64::MAX],
            vec![1 << 63, 0, 0],
        ];
        for len in 1..=5 {
            exps.push((0..len).map(|_| rng.next_u64()).collect());
            // Random low limbs under a short top limb and a zero limb.
            let mut e: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
            e.push(rng.next_u64() >> 57);
            e.push(0);
            exps.push(e);
        }
        for base in [Fr::ZERO, Fr::ONE, Fr::random(&mut rng)] {
            for exp in &exps {
                assert_eq!(base.pow(exp), full_width(base, exp), "exp = {exp:?}");
            }
        }
    }

    #[test]
    fn byte_roundtrip() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let a = Fr::random(&mut rng);
            let bytes = a.to_le_bytes();
            assert_eq!(Fr::from_le_bytes(&bytes).unwrap(), a);
        }
    }

    #[test]
    fn from_le_bytes_rejects_modulus() {
        let p = Fr::modulus_biguint();
        let limbs = p.to_fixed_limbs(4);
        let mut bytes = [0u8; 32];
        for i in 0..4 {
            bytes[i * 8..(i + 1) * 8].copy_from_slice(&limbs[i].to_le_bytes());
        }
        assert!(Fr::from_le_bytes(&bytes).is_none());
    }

    #[test]
    fn from_le_bytes_mod_order_against_biguint() {
        // The 32-byte path `message_hash` takes skips the high half; check
        // it, and the shorter and wider inputs beside it, against the
        // bignum reduction. Most random 32-byte values are ≥ p (p < 2²⁵⁴).
        fn sweep<P: FpParams>(rng: &mut StdRng) {
            let p = BigUint::from_limbs(&P::MODULUS);
            let le_bytes = |v: &BigUint| -> Vec<u8> {
                v.to_fixed_limbs(4)
                    .iter()
                    .flat_map(|l| l.to_le_bytes())
                    .collect()
            };
            let mut inputs: Vec<Vec<u8>> = vec![
                vec![0xFF; 32],
                le_bytes(&p),
                le_bytes(&p.add(&BigUint::one())),
                le_bytes(&p.sub(&BigUint::one())),
                vec![],
            ];
            for len in (0..=64).chain([32; 200]) {
                let mut bytes = vec![0u8; len];
                rng.fill_bytes(&mut bytes);
                inputs.push(bytes);
            }
            for bytes in inputs {
                let limbs: Vec<u64> = bytes
                    .chunks(8)
                    .map(|c| {
                        let mut l = [0u8; 8];
                        l[..c.len()].copy_from_slice(c);
                        u64::from_le_bytes(l)
                    })
                    .collect();
                let want = BigUint::from_limbs(&limbs).rem(&p);
                let got = Fp::<P>::from_le_bytes_mod_order(&bytes);
                assert_eq!(
                    BigUint::from_limbs(&got.to_canonical_limbs()),
                    want,
                    "{bytes:02x?}"
                );
            }
        }
        let mut rng = StdRng::seed_from_u64(7);
        sweep::<crate::fields::FrParams>(&mut rng);
        sweep::<crate::fields::FqParams>(&mut rng);
    }

    #[test]
    fn from_le_bytes_mod_order_wide() {
        // 64 bytes of 0xFF = 2^512 - 1 mod p, cross-checked with BigUint.
        let bytes = [0xFFu8; 64];
        let expect = BigUint::one()
            .shl(512)
            .sub(&BigUint::one())
            .rem(&Fr::modulus_biguint());
        let got = Fr::from_le_bytes_mod_order(&bytes);
        assert_eq!(BigUint::from_limbs(&got.to_canonical_limbs()), expect);
    }

    #[test]
    fn two_adic_root_has_exact_order() {
        let omega = Fr::two_adic_root_of_unity();
        let half = omega.pow(&[1u64 << (Fr::TWO_ADICITY - 1)]);
        assert_ne!(half, Fr::ONE);
        assert_eq!(half.square(), Fr::ONE);
        assert_eq!(half, -Fr::ONE);
    }

    #[test]
    fn ordering_is_canonical() {
        assert!(Fr::from_u64(2) < Fr::from_u64(3));
        assert!(Fr::from_u64(100) > Fr::from_u64(3));
        // -1 = p-1 is the largest element.
        assert!(-Fr::ONE > Fr::from_u64(u64::MAX));
    }
}
