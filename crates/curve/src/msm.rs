//! Multi-scalar multiplication (Pippenger's bucket algorithm).
//!
//! The Groth16 prover and trusted setup are dominated by MSMs over a few
//! thousand bases; this implementation combines two optimizations to keep
//! proving in the paper's "interactive" regime (§IV reports ≈0.5 s proof
//! generation):
//!
//! * **Batch-affine buckets** — bucket accumulation uses plain affine
//!   addition (`λ = Δy/Δx`: 2M + 1S per add) with the divisions amortized
//!   by Montgomery batch inversion (≈3M each), instead of the ≈11M
//!   projective `add_mixed` formulas. Pairs are reduced tree-style so every
//!   round shares one inversion across *all* buckets of a window.
//! * **Work-stealing windows** — the independent Pippenger windows are
//!   scheduled on the [`waku_pool`] work-stealing pool, so concurrency is
//!   capped at the pool size instead of spawning one OS thread per window
//!   (previously ~37 raw threads for a 7-bit-window MSM).

use waku_arith::fields::Fr;
use waku_arith::traits::{Field, PrimeField};

use crate::point::{Affine, BatchInvert, CurveParams, Projective};

/// Picks the Pippenger window size (in bits) for `n` terms.
///
/// Tuned for the signed-digit batch-affine cost model: a bucket add costs
/// ~6 base-field muls and a bucket in the running sum ~27, with `2^(c−1)`
/// buckets per window, so the optimum `c` minimizes
/// `⌈256/c⌉·(6n + 27·2^(c−1))`; the break-evens below are where
/// consecutive `c` values cross.
///
/// Re-timed on the BMI2/ADX field kernel at the prover's four sizes: G1,
/// random scalars, one pool thread, 21 interleaved runs per `c`, median
/// (interquartile range) in ms on a 2-vCPU Xeon VM:
///
/// | n | role | `c − 1` | `c` | `c + 1` |
/// |---|---|---|---|---|
/// | 455 | delta MSM | 10.81 (0.48) | **10.35** (0.42) | 11.11 (0.57) |
/// | 3 200 | depth-10 query | 46.72 (2.16) | **43.03** (1.65) | 43.56 (1.87) |
/// | 5 603 | depth-20 query | 71.41 (2.73) | **68.86** (2.73) | 69.53 (3.05) |
/// | 8 191 | `H` | 102.52 (1.54) | **96.76** (1.72) | 94.68 (1.27) |
///
/// Bold is the `c` this table picks. Only at `H` does a neighbour win,
/// by 2.1 ms, and two repeat runs there (25 rounds each) put `c = 9` and
/// `c = 10` within each other's spread, so no break-even moved.
fn window_size(n: usize) -> usize {
    match n {
        0..=1 => 1,
        2..=31 => 3,
        32..=255 => 5,
        256..=1479 => 7,
        1480..=4729 => 8,
        4730..=8399 => 9,
        8400..=24099 => 10,
        24100..=43899 => 11,
        43900..=78999 => 12,
        _ => 13,
    }
}

/// Extracts the `c`-bit window starting at bit `start` of a 256-bit scalar.
fn window_digit(limbs: &[u64; 4], start: usize, c: usize) -> usize {
    let limb = start / 64;
    let bit = start % 64;
    if limb >= 4 {
        return 0;
    }
    let mut v = limbs[limb] >> bit;
    if bit + c > 64 && limb + 1 < 4 {
        v |= limbs[limb + 1] << (64 - bit);
    }
    (v as usize) & ((1 << c) - 1)
}

/// Recodes a scalar into signed `c`-bit window digits in
/// `(−2^(c−1), 2^(c−1)]`, so each window needs only `2^(c−1)` buckets
/// (a negative digit adds the negated point, which is free in affine).
///
/// The scalar field is < 2²⁵⁴ while the windows cover ≥ 256 bits, so the
/// final carry is always absorbed by the top window.
fn recode_signed(limbs: &[u64; 4], c: usize, out: &mut [i16]) {
    let half = 1i64 << (c - 1);
    let full = 1i64 << c;
    let mut carry = 0i64;
    for (w, slot) in out.iter_mut().enumerate() {
        let raw = window_digit(limbs, w * c, c) as i64 + carry;
        if raw > half {
            *slot = (raw - full) as i16;
            carry = 1;
        } else {
            *slot = raw as i16;
            carry = 0;
        }
    }
    debug_assert_eq!(carry, 0, "scalar exceeds the window coverage");
}

/// How a pair of bucket points combines; classification is a pure function
/// of the two (immutable) inputs so the two passes of
/// [`batch_add_round`] agree without storing per-pair state.
enum PairKind {
    /// Distinct x-coordinates: `λ = (y₂−y₁)/(x₂−x₁)`.
    Add,
    /// Same point with `y ≠ 0`: `λ = 3x²/2y`.
    Double,
    /// Either input is ∞, or the points cancel: no inversion needed.
    Trivial,
}

fn classify<C: CurveParams>(p: &Affine<C>, q: &Affine<C>) -> PairKind {
    if p.infinity || q.infinity {
        PairKind::Trivial
    } else if p.x != q.x {
        PairKind::Add
    } else if p.y == q.y && !p.y.is_zero() {
        PairKind::Double
    } else {
        // x₁ = x₂ with y₁ = −y₂ (or a 2-torsion double): sum is ∞.
        PairKind::Trivial
    }
}

/// One tree-reduction round over all buckets of a window: adds the pairs
/// `(points[s+2k], points[s+2k+1])` of every bucket with a single batch
/// inversion and compacts the results to the bucket starts.
///
/// Within a bucket, pair `k`'s result lands at offset `k` and its sources
/// sit at offsets `2k` and `2k+1`, so processing pairs in ascending order
/// never overwrites a yet-unread source.
fn batch_add_round<C: CurveParams>(
    points: &mut [Affine<C>],
    starts: &[u32],
    lens: &mut [u32],
    denoms: &mut Vec<C::Base>,
) {
    // Pass 1: collect the λ denominators (1 as placeholder for trivial
    // pairs, which keeps pair order aligned with the inverted vector).
    denoms.clear();
    for (&s, &len) in starts.iter().zip(lens.iter()) {
        let s = s as usize;
        for k in 0..(len as usize) / 2 {
            let p = &points[s + 2 * k];
            let q = &points[s + 2 * k + 1];
            denoms.push(match classify(p, q) {
                PairKind::Add => q.x - p.x,
                PairKind::Double => p.y.double(),
                PairKind::Trivial => C::Base::one(),
            });
        }
    }
    C::Base::batch_invert(denoms);

    // Pass 2: apply the affine addition formulas and compact.
    let mut pair_idx = 0usize;
    for (&s, len) in starts.iter().zip(lens.iter_mut()) {
        let s = s as usize;
        let l = *len as usize;
        for k in 0..l / 2 {
            let p = points[s + 2 * k];
            let q = points[s + 2 * k + 1];
            let inv = denoms[pair_idx];
            pair_idx += 1;
            points[s + k] = match classify(&p, &q) {
                PairKind::Add => {
                    let lambda = (q.y - p.y) * inv;
                    let x3 = lambda.square() - p.x - q.x;
                    let y3 = lambda * (p.x - x3) - p.y;
                    Affine::new_unchecked(x3, y3)
                }
                PairKind::Double => {
                    let xx = p.x.square();
                    let lambda = (xx.double() + xx) * inv;
                    let x3 = lambda.square() - p.x.double();
                    let y3 = lambda * (p.x - x3) - p.y;
                    Affine::new_unchecked(x3, y3)
                }
                PairKind::Trivial => {
                    if p.infinity {
                        q
                    } else if q.infinity {
                        p
                    } else {
                        Affine::identity()
                    }
                }
            };
        }
        // Odd leftover survives into the next round, after the results.
        if l % 2 == 1 {
            points[s + l / 2] = points[s + l - 1];
        }
        *len = (l / 2 + l % 2) as u32;
    }
}

/// Computes the bucket-accumulated sum `Σ d·bucket_d` of one window via
/// batch-affine reduction followed by the running-sum trick. `parts` is a
/// logical concatenation of `(bases, signed digits)` runs — digits are
/// flattened per point (`digits[i·num_windows + w]`) — so callers can sum
/// several base/scalar lists in one MSM without copying them together.
fn window_sum<C: CurveParams>(
    parts: &[(&[Affine<C>], Vec<i16>)],
    w: usize,
    num_windows: usize,
    c: usize,
) -> Projective<C> {
    let num_buckets = 1usize << (c - 1);

    // Counting-sort the window's points into contiguous bucket ranges.
    let mut counts = vec![0u32; num_buckets];
    for (bases, digits) in parts {
        for (base, d) in bases.iter().zip(digits.iter().skip(w).step_by(num_windows)) {
            if *d != 0 && !base.infinity {
                counts[(d.unsigned_abs() - 1) as usize] += 1;
            }
        }
    }
    let mut starts = vec![0u32; num_buckets];
    let mut total = 0u32;
    for (st, count) in starts.iter_mut().zip(counts.iter()) {
        *st = total;
        total += count;
    }
    // Scatter, skipping the dead identity-fill of the buffer: the bucket
    // ranges partition [0, total) and each cursor slot advances once per
    // point, so every entry is written exactly once before it is read.
    let mut points: Vec<std::mem::MaybeUninit<Affine<C>>> = Vec::with_capacity(total as usize);
    // SAFETY: MaybeUninit needs no initialization; all `total` slots are
    // initialized by the scatter below before use.
    unsafe { points.set_len(total as usize) };
    let mut cursor = starts.clone();
    for (bases, digits) in parts {
        for (base, d) in bases.iter().zip(digits.iter().skip(w).step_by(num_windows)) {
            if *d != 0 && !base.infinity {
                let b = (d.unsigned_abs() - 1) as usize;
                points[cursor[b] as usize].write(if *d < 0 { base.neg() } else { *base });
                cursor[b] += 1;
            }
        }
    }
    // SAFETY: Σ counts = total, so the scatter initialized every slot;
    // MaybeUninit<T> has T's layout, making the buffer reinterpretation
    // sound (and Affine is Copy, so no drops are at stake).
    let mut points: Vec<Affine<C>> = {
        let mut buf = std::mem::ManuallyDrop::new(points);
        unsafe {
            Vec::from_raw_parts(
                buf.as_mut_ptr() as *mut Affine<C>,
                buf.len(),
                buf.capacity(),
            )
        }
    };

    // Tree-reduce every bucket to a single point.
    let mut lens = counts;
    let mut denoms: Vec<C::Base> = Vec::new();
    while lens.iter().any(|&l| l > 1) {
        batch_add_round(&mut points, &starts, &mut lens, &mut denoms);
    }

    // Running-sum trick: Σ d·bucket_d with only 2·(#buckets) additions.
    let mut running = Projective::<C>::identity();
    let mut acc = Projective::<C>::identity();
    for b in (0..num_buckets).rev() {
        if lens[b] == 1 {
            running = running.add_mixed(&points[starts[b] as usize]);
        }
        acc = acc.add(&running);
    }
    acc
}

/// Computes `Σ scalarᵢ · baseᵢ`.
///
/// # Panics
///
/// Panics if `bases.len() != scalars.len()`.
pub fn msm<C: CurveParams>(bases: &[Affine<C>], scalars: &[Fr]) -> Projective<C> {
    msm_chunked(&[(bases, scalars)])
}

/// Computes `Σ Σ scalarᵢⱼ · baseᵢⱼ` over a logical concatenation of
/// base/scalar lists, as one Pippenger instance.
///
/// One larger MSM beats several small ones (the bucket phase is paid per
/// window per point, so fewer, wider windows win). [`msm`] is the one-part
/// case.
///
/// # Panics
///
/// Panics if any part's base and scalar lengths differ.
pub fn msm_chunked<C: CurveParams>(parts: &[(&[Affine<C>], &[Fr])]) -> Projective<C> {
    for (bases, scalars) in parts {
        assert_eq!(bases.len(), scalars.len(), "mismatched msm input lengths");
    }
    let n: usize = parts.iter().map(|(b, _)| b.len()).sum();
    if n == 0 {
        return Projective::identity();
    }
    if n < 32 {
        return interleaved_ladder(parts);
    }
    let with_limbs: Vec<LimbedPart<C>> = parts
        .iter()
        .map(|(bases, scalars)| {
            let limbs: Vec<[u64; 4]> = scalars.iter().map(|s| s.to_canonical_limbs()).collect();
            (*bases, limbs)
        })
        .collect();
    msm_limbs(&with_limbs, 256)
}

/// A base slice paired with its scalars in canonical limb form — the
/// pre-chewed input [`msm_limbs`] consumes.
pub(crate) type LimbedPart<'a, C> = (&'a [Affine<C>], Vec<[u64; 4]>);

/// Pippenger over pre-limbed scalars whose values fit in `bits - 1` bits
/// (the extra bit absorbs the signed-recoding carry). `msm_chunked` calls
/// this with 256.
pub(crate) fn msm_limbs<C: CurveParams>(parts: &[LimbedPart<'_, C>], bits: usize) -> Projective<C> {
    let n: usize = parts.iter().map(|(b, _)| b.len()).sum();
    if n == 0 {
        return Projective::identity();
    }
    let c = window_size(n);
    let num_windows = bits.div_ceil(c);
    // Signed digits are recoded once (they carry between windows, so the
    // per-window tasks index a precomputed table instead).
    let with_digits: Vec<(&[Affine<C>], Vec<i16>)> = parts
        .iter()
        .map(|(bases, limbs)| {
            let mut digits = vec![0i16; limbs.len() * num_windows];
            for (l, out) in limbs.iter().zip(digits.chunks_mut(num_windows)) {
                recode_signed(l, c, out);
            }
            (*bases, digits)
        })
        .collect();

    // Each window is independent: a pool task per window, executed by at
    // most `pool size` threads via work stealing.
    let windows: Vec<usize> = (0..num_windows).collect();
    let window_sums =
        waku_pool::par_map(&windows, |&w| window_sum(&with_digits, w, num_windows, c));

    // Combine windows from the most significant down.
    let mut total = Projective::identity();
    for sum in window_sums.iter().rev() {
        for _ in 0..c {
            total = total.double();
        }
        total = total.add(sum);
    }
    total
}

/// `Σ scalarᵢ · baseᵢ` for a handful of terms, below Pippenger's
/// break-even: one double-and-add ladder whose doubling chain all terms
/// share, a mixed addition per set scalar bit.
fn interleaved_ladder<C: CurveParams>(parts: &[(&[Affine<C>], &[Fr])]) -> Projective<C> {
    let terms: Vec<(&Affine<C>, [u64; 4])> = parts
        .iter()
        .flat_map(|(bases, scalars)| bases.iter().zip(scalars.iter()))
        .map(|(base, scalar)| (base, scalar.to_canonical_limbs()))
        .collect();
    let mut acc = Projective::identity();
    for bit in (0..256).rev() {
        acc = acc.double();
        for (base, limbs) in &terms {
            if (limbs[bit / 64] >> (bit % 64)) & 1 == 1 {
                acc = acc.add_mixed(base);
            }
        }
    }
    acc
}

/// Reference sum of separate double-and-add multiplications: the test
/// oracle for [`msm`].
pub fn naive_msm<C: CurveParams>(bases: &[Affine<C>], scalars: &[Fr]) -> Projective<C> {
    assert_eq!(bases.len(), scalars.len(), "mismatched msm input lengths");
    let mut acc = Projective::identity();
    for (b, s) in bases.iter().zip(scalars.iter()) {
        acc = acc.add(&b.mul(*s));
    }
    acc
}

/// Precomputed fixed-base multiplication table.
///
/// The Groth16 trusted setup multiplies one generator by tens of thousands
/// of scalars; with a `w`-bit window table each multiplication is just
/// `⌈256/w⌉` mixed additions.
#[derive(Clone, Debug)]
pub struct WindowTable<C: CurveParams> {
    window_bits: usize,
    /// `table[w][d-1] = (d << (w·bits)) · base` for digit d ≥ 1.
    table: Vec<Vec<Affine<C>>>,
}

impl<C: CurveParams> WindowTable<C> {
    /// Builds the table for `base` with `window_bits`-wide digits; the rows
    /// are filled as parallel pool tasks.
    ///
    /// # Panics
    ///
    /// Panics if `window_bits` is 0 or greater than 16.
    pub fn new(base: Projective<C>, window_bits: usize) -> Self {
        assert!(
            (1..=16).contains(&window_bits),
            "window must be 1..=16 bits"
        );
        let windows = 256_usize.div_ceil(window_bits);
        let entries = (1usize << window_bits) - 1;
        // The row bases (base << w·bits) form a serial doubling chain…
        let mut window_bases = Vec::with_capacity(windows);
        let mut window_base = base;
        for _ in 0..windows {
            window_bases.push(window_base);
            for _ in 0..window_bits {
                window_base = window_base.double();
            }
        }
        // …but the rows themselves are independent.
        let table = waku_pool::par_map(&window_bases, |&wb| {
            let mut row = Vec::with_capacity(entries);
            let mut acc = wb;
            for _ in 0..entries {
                row.push(acc);
                acc = acc.add(&wb);
            }
            Projective::batch_to_affine(&row)
        });
        WindowTable { window_bits, table }
    }

    /// `scalar · base` via table lookups.
    pub fn mul(&self, scalar: Fr) -> Projective<C> {
        let limbs = scalar.to_canonical_limbs();
        let mut acc = Projective::identity();
        for (w, row) in self.table.iter().enumerate() {
            let digit = window_digit(&limbs, w * self.window_bits, self.window_bits);
            if digit != 0 {
                acc = acc.add_mixed(&row[digit - 1]);
            }
        }
        acc
    }

    /// Multiplies a batch of scalars, chunked across the pool (previously
    /// a hardcoded 8-way split with one raw thread per chunk).
    pub fn mul_batch(&self, scalars: &[Fr]) -> Vec<Projective<C>> {
        let mut out = vec![Projective::<C>::identity(); scalars.len()];
        let chunk = waku_pool::chunk_size_for(scalars.len(), 32);
        waku_pool::par_zip_chunks(scalars, &mut out, chunk, |_, s_chunk, o_chunk| {
            for (s, o) in s_chunk.iter().zip(o_chunk.iter_mut()) {
                *o = self.mul(*s);
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::g1::{G1Affine, G1Projective};
    use crate::g2::G2Affine;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use waku_arith::traits::Field;

    fn random_g1(rng: &mut StdRng, n: usize) -> (Vec<G1Affine>, Vec<Fr>) {
        let g = G1Projective::generator();
        let bases: Vec<G1Affine> = (0..n).map(|_| g.mul(Fr::random(rng)).to_affine()).collect();
        let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(rng)).collect();
        (bases, scalars)
    }

    #[test]
    fn pippenger_matches_naive_small() {
        let mut rng = StdRng::seed_from_u64(1);
        let (bases, scalars) = random_g1(&mut rng, 10);
        assert_eq!(msm(&bases, &scalars), naive_msm(&bases, &scalars));
    }

    #[test]
    fn interleaved_ladder_matches_naive() {
        // Below 32 terms `msm` is the shared-doubling ladder; the oracle
        // multiplies every term on its own.
        let mut rng = StdRng::seed_from_u64(12);
        for n in [1usize, 2, 6, 31] {
            let (mut bases, mut scalars) = random_g1(&mut rng, n);
            assert_eq!(msm(&bases, &scalars), naive_msm(&bases, &scalars));
            scalars[0] = Fr::zero();
            bases[n / 2] = G1Affine::identity();
            assert_eq!(msm(&bases, &scalars), naive_msm(&bases, &scalars));
        }
        // Repeated and opposite bases meet the accumulator in `add_mixed`'s
        // doubling and cancellation branches.
        let p = G1Affine::generator();
        let one = Fr::one();
        assert_eq!(msm(&[p, p], &[one, one]), p.to_projective().double());
        assert!(msm(&[p, p.neg()], &[one, one]).is_identity());
        let (bases, scalars) = random_g1(&mut rng, 3);
        let bases = [bases[0], bases[1], bases[0], bases[1].neg(), bases[2]];
        let scalars = [scalars[0], scalars[1], scalars[0], scalars[1], -scalars[2]];
        assert_eq!(msm(&bases, &scalars), naive_msm(&bases, &scalars));
        assert!(msm(&bases, &[Fr::zero(); 5]).is_identity());
    }

    #[test]
    fn pippenger_matches_naive_large() {
        let mut rng = StdRng::seed_from_u64(2);
        let (bases, scalars) = random_g1(&mut rng, 300);
        assert_eq!(msm(&bases, &scalars), naive_msm(&bases, &scalars));
    }

    #[test]
    fn msm_with_zero_scalars() {
        let mut rng = StdRng::seed_from_u64(3);
        let (bases, mut scalars) = random_g1(&mut rng, 64);
        for s in scalars.iter_mut().step_by(2) {
            *s = Fr::zero();
        }
        assert_eq!(msm(&bases, &scalars), naive_msm(&bases, &scalars));
    }

    #[test]
    fn msm_with_identity_bases_and_duplicates() {
        // Exercises the batch-affine special cases: ∞ inputs, equal points
        // (doubling), and P + (−P) cancellation inside one bucket.
        let mut rng = StdRng::seed_from_u64(9);
        let (mut bases, mut scalars) = random_g1(&mut rng, 96);
        bases[0] = G1Affine::identity();
        bases[1] = bases[2]; // forced doubling when digits collide
        scalars[1] = scalars[2];
        bases[3] = bases[4].neg();
        scalars[3] = scalars[4]; // same bucket, opposite points
        assert_eq!(msm(&bases, &scalars), naive_msm(&bases, &scalars));
    }

    #[test]
    fn msm_matches_at_any_pool_size() {
        let mut rng = StdRng::seed_from_u64(10);
        let (bases, scalars) = random_g1(&mut rng, 200);
        let serial = waku_pool::with_threads(1, || msm(&bases, &scalars));
        let parallel = waku_pool::with_threads(4, || msm(&bases, &scalars));
        assert_eq!(serial, parallel);
        assert_eq!(serial, naive_msm(&bases, &scalars));
    }

    #[test]
    fn msm_empty() {
        assert!(msm::<crate::g1::G1Params>(&[], &[]).is_identity());
        assert!(msm_chunked::<crate::g1::G1Params>(&[]).is_identity());
    }

    #[test]
    fn msm_chunked_matches_concatenation() {
        let mut rng = StdRng::seed_from_u64(11);
        let (b1, s1) = random_g1(&mut rng, 150);
        let (b2, s2) = random_g1(&mut rng, 70);
        let (b3, s3) = random_g1(&mut rng, 5);
        let fused = msm_chunked(&[(&b1[..], &s1[..]), (&b2[..], &s2[..]), (&b3[..], &s3[..])]);
        let concat_bases: Vec<G1Affine> = [&b1[..], &b2[..], &b3[..]].concat();
        let concat_scalars: Vec<Fr> = [&s1[..], &s2[..], &s3[..]].concat();
        assert_eq!(fused, msm(&concat_bases, &concat_scalars));
        // Small total goes through the interleaved ladder.
        let small = msm_chunked(&[(&b3[..], &s3[..]), (&b3[..2], &s3[..2])]);
        assert_eq!(
            small,
            naive_msm(&b3, &s3).add(&naive_msm(&b3[..2], &s3[..2]))
        );
    }

    #[test]
    fn msm_g2() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = crate::g2::G2Projective::generator();
        let bases: Vec<G2Affine> = (0..40)
            .map(|_| g.mul(Fr::random(&mut rng)).to_affine())
            .collect();
        let scalars: Vec<Fr> = (0..40).map(|_| Fr::random(&mut rng)).collect();
        assert_eq!(msm(&bases, &scalars), naive_msm(&bases, &scalars));
    }

    #[test]
    fn window_table_matches_direct_mul() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = G1Projective::generator();
        let table = WindowTable::new(g, 6);
        for _ in 0..10 {
            let s = Fr::random(&mut rng);
            assert_eq!(table.mul(s), g.mul(s));
        }
        assert!(table.mul(Fr::zero()).is_identity());
        assert_eq!(table.mul(Fr::one()), g);
    }

    #[test]
    fn window_table_batch() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = G1Projective::generator();
        let table = WindowTable::new(g, 8);
        let scalars: Vec<Fr> = (0..50).map(|_| Fr::random(&mut rng)).collect();
        let batch = table.mul_batch(&scalars);
        for (s, p) in scalars.iter().zip(&batch) {
            assert_eq!(*p, g.mul(*s));
        }
    }

    #[test]
    fn window_digit_reassembles_scalar() {
        let mut rng = StdRng::seed_from_u64(5);
        let s = Fr::random(&mut rng);
        let limbs = s.to_canonical_limbs();
        let c = 7;
        // Σ digit·2^(w·c) must reconstruct the scalar (checked limb-wise
        // via big integers).
        use waku_arith::biguint::BigUint;
        let mut acc = BigUint::zero();
        for w in (0..256_usize.div_ceil(c)).rev() {
            acc = acc.shl(c);
            acc = acc.add(&BigUint::from(window_digit(&limbs, w * c, c) as u64));
        }
        assert_eq!(acc, BigUint::from_limbs(&limbs));
    }
}
