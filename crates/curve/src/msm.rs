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
//! * **Eight additions at a time** — each round runs its pairs on
//!   `waku_arith`'s lane vectors, one pair per lane: a batch's
//!   coordinates are gathered into lanes once, the denominators, the
//!   batch inversion's product chains, λ, λ², x₃ and y₃ are computed
//!   there, and the results are scattered back. On a CPU with AVX-512
//!   IFMA a vector is eight lanes, which makes the bucket additions about
//!   twice as fast; elsewhere it is one lane, a scalar element, and the
//!   same round is plain scalar code. A pair that is not a plain
//!   addition (∞, a doubling, a cancellation) keeps its lane busy with a
//!   harmless denominator and takes the scalar formulas. G2 runs Fp2 as
//!   two Fq lane vectors. Every result is the same group element, bucket
//!   by bucket, as the scalar formulas give.
//! * **Work-stealing windows** — the independent Pippenger windows are
//!   scheduled on the [`waku_pool`] work-stealing pool, so concurrency is
//!   capped at the pool size instead of spawning one OS thread per window
//!   (previously ~37 raw threads for a 7-bit-window MSM).

use waku_arith::batch_inv::batch_inverse_in_place;
use waku_arith::fields::{Fq, Fr};
use waku_arith::fp::{with_lanes, LaneBody, LaneField, LaneTask, Ring};
use waku_arith::traits::{Field, PrimeField};

use crate::point::{Affine, CurveParams, FqLanes, LaneCoord, Projective};

/// Picks the Pippenger window size (in bits) for `n` terms.
///
/// Tuned for the signed-digit batch-affine cost model: with `2^(c−1)`
/// buckets per window, the optimum `c` minimizes
/// `⌈256/c⌉·(A·n + S·2^(c−1))`, where `A` is a bucket addition and `S` a
/// bucket's share of the running sum (one mixed and one full projective
/// addition); the break-evens below are where consecutive `c` values
/// cross. A bucket addition is ~6 base-field products and a running-sum
/// bucket ~27, but on the IFMA lanes the six run eight pairs at a time,
/// so `A` fell by about half while `S` did not move, which pushes the
/// break-evens up.
///
/// Re-timed on the IFMA lanes: random scalars, one pool thread, 25–60
/// interleaved runs per `c`, median (interquartile range) in ms on a
/// 2-vCPU Sapphire Rapids VM (this host's timings drift by up to ±30 %
/// between runs, so only the columns of one row compare):
///
/// | n | group | role | `c = 5` | `c = 6` | `c = 7` | `c = 8` | `c = 9` | `c = 10` |
/// |---|---|---|---|---|---|---|---|---|
/// | 32 | G1 | | **1.97** (0.31) | 1.94 (0.35) | | | | |
/// | 64 | G1 | | **3.24** (0.27) | 3.29 (0.15) | | | | |
/// | 128 × 65 bits | G1 | RLC `C` sum | **1.15** (0.05) | 1.12 (0.05) | 1.33 (0.08) | | | |
/// | 128 | G1 | | **3.13** (0.14) | 3.05 (0.17) | | | | |
/// | 200 | G1 | | **4.05** (0.79) | 3.82 (1.13) | | | | |
/// | 300 | G1 | | | **6.08** (0.26) | 6.59 (0.23) | | | |
/// | 455 | G1 | delta MSMs | | **6.91** (0.35) | 7.05 (0.36) | | | |
/// | 455 | G2 | delta MSM | | **11.89** (3.64) | 14.07 (4.27) | | | |
/// | 700 | G1 | | | **8.49** (0.40) | 8.69 (0.38) | | | |
/// | 1 000 | G1 | | | 10.78 (2.44) | **10.28** (1.84) | | | |
/// | 3 200 | G1 | depth-10 query | | | 17.29 (4.45) | **18.22** (4.64) | 20.38 (5.87) | |
/// | 5 603 | G1 | depth-20 query | | | | 22.92 (6.67) | **24.29** (8.11) | 27.86 (6.36) |
/// | 8 191 | G1 | `H` | | | | 31.98 (4.82) | **32.71** (4.13) | 33.12 (4.36) |
///
/// Rows are 256-bit scalars unless they say otherwise. Bold is the `c`
/// this table picks. At 300 terms `c = 6` beat `c = 7` by more than the
/// spread (0.51 ms, IQR 0.26), and for G2 at 455, whose running sum costs
/// three times G1's, it won 39 of 40 runs; so 256–799 terms take 6-bit
/// windows (was 7). Every other neighbour stayed within the other's
/// spread, so no other break-even moved: below 256 terms `c = 5` stays.
/// That includes the batch verifier's `C` sum, 128 GLV halves of 64 bits
/// ([`msm_limbs`] at width 65, 101 interleaved runs): `c = 6` won 77 of
/// them, by 0.03 ms, inside both spreads (`c = 4` took 1.48 ms).
fn window_size(n: usize) -> usize {
    match n {
        0..=1 => 1,
        2..=31 => 3,
        32..=255 => 5,
        256..=799 => 6,
        800..=1479 => 7,
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
#[derive(Clone, Copy)]
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

/// `B::WIDTH` coordinates of `C` on lane body `B`.
type BaseLanes<C, B> = <<C as CurveParams>::Base as LaneField>::Lanes<B>;

/// One batch of up to `B::WIDTH` pairs, lane `i` from pair `i`: the
/// pairs' kinds and both points' x-coordinates.
///
/// A lane whose pair is not an `Add` loads `p.x = 0` and `q.x = δ`, so
/// `q.x − p.x` is still the denominator to invert: `δ = 2y` for a
/// doubling, and `δ = 1` where nothing is inverted (a trivial pair, or a
/// lane past the round's last pair). Such a lane's λ, x₃ and y₃ are
/// ignored; its result comes from the scalar formulas.
struct Batch<C: CurveParams, B: LaneBody> {
    kinds: B::Array<PairKind>,
    px: BaseLanes<C, B>,
    qx: BaseLanes<C, B>,
}

impl<C: CurveParams, B: LaneBody> Batch<C, B> {
    /// Loads the pairs `(points[src], points[src + 1])` of `pairs`.
    #[inline(always)]
    fn load(body: B, points: &[Affine<C>], pairs: &[(u32, u32)]) -> Self {
        let kinds = B::array(|i| match pairs.get(i) {
            Some(&(src, _)) => classify(&points[src as usize], &points[src as usize + 1]),
            None => PairKind::Trivial,
        });
        let delta = B::array(|i| match kinds.as_ref()[i] {
            PairKind::Double => points[pairs[i].0 as usize].y.double(),
            _ => C::Base::one(),
        });
        let zero = C::Base::zero();
        let delta = delta.as_ref();
        Batch {
            kinds,
            px: gather_coord(body, points, pairs, &kinds, 0, |a| &a.x, |_| &zero),
            qx: gather_coord(body, points, pairs, &kinds, 1, |a| &a.x, |i| &delta[i]),
        }
    }

    /// The denominators `q.x − p.x`, none zero.
    #[inline(always)]
    fn denominators(&self) -> BaseLanes<C, B> {
        self.qx - self.px
    }
}

/// Gathers `coord` of each `Add` pair's first point (`second = 0`) or
/// second (`1`), and `fill(i)` in every other lane `i`.
#[inline(always)]
fn gather_coord<'a, C: CurveParams, B: LaneBody>(
    body: B,
    points: &'a [Affine<C>],
    pairs: &[(u32, u32)],
    kinds: &B::Array<PairKind>,
    second: usize,
    coord: impl Fn(&'a Affine<C>) -> &'a C::Base,
    fill: impl Fn(usize) -> &'a C::Base,
) -> BaseLanes<C, B> {
    let kinds = kinds.as_ref();
    C::Base::gather(
        body,
        B::array(|i| match kinds[i] {
            PairKind::Add => coord(&points[pairs[i].0 as usize + second]),
            _ => fill(i),
        }),
    )
}

/// `2p` for `p` with `y ≠ 0`, given `(2y)⁻¹`.
fn double_with<C: CurveParams>(p: &Affine<C>, inv: C::Base) -> Affine<C> {
    let xx = p.x.square();
    let lambda = (xx.double() + xx) * inv;
    let x3 = lambda.square() - p.x.double();
    let y3 = lambda * (p.x - x3) - p.y;
    Affine::new_unchecked(x3, y3)
}

/// `p + q` for a pair that needs no inversion: one is ∞, or they cancel.
fn trivial_sum<C: CurveParams>(p: &Affine<C>, q: &Affine<C>) -> Affine<C> {
    if p.infinity {
        *q
    } else if q.infinity {
        *p
    } else {
        Affine::identity()
    }
}

/// The tree reduction of one window's buckets, run on lane body `B`.
struct ReduceBuckets<'a, C: CurveParams> {
    points: &'a mut [Affine<C>],
    starts: &'a [u32],
    lens: &'a mut [u32],
}

impl<C: CurveParams> LaneTask for ReduceBuckets<'_, C> {
    type Output = ();

    /// Adds pairs round by round until every bucket holds one point.
    #[inline(always)]
    fn run<B: LaneBody>(self, body: B) {
        let (mut pairs, mut suffix) = (Vec::new(), Vec::new());
        loop {
            // Each pair's first source and its destination, bucket by
            // bucket.
            pairs.clear();
            for (&s, &len) in self.starts.iter().zip(self.lens.iter()) {
                pairs.extend((0..len / 2).map(|k| (s + 2 * k, s + k)));
            }
            if pairs.is_empty() {
                return;
            }
            batch_add_round(body, self.points, &pairs, &mut suffix);
            // Odd leftovers survive into the next round, after the results.
            for (&s, len) in self.starts.iter().zip(self.lens.iter_mut()) {
                let (s, l) = (s as usize, *len as usize);
                if l % 2 == 1 {
                    self.points[s + l / 2] = self.points[s + l - 1];
                }
                *len = (l / 2 + l % 2) as u32;
            }
        }
    }
}

/// A batch's entry in [`batch_add_round`]'s suffix: the product of the
/// later batches' norms (after pass 2, this batch's norm inverses), and
/// this batch's norms.
type Suffix<B> = (<B as LaneBody>::Array<Fq>, <B as LaneBody>::Array<Fq>);

/// One tree-reduction round over all buckets of a window: adds each pair
/// `(src, dst)` of `pairs`, `points[dst] = points[src] + points[src + 1]`,
/// with a single batch inversion.
///
/// The pairs run `B::WIDTH` at a time, one per lane. The first pass,
/// last batch first, keeps each batch's denominators (their norms, for
/// Fp2) and the product of the later batches': `B::WIDTH` interleaved
/// prefix-product chains of Montgomery's trick, one on the portable body.
/// The chain totals are inverted together, the second pass, first batch
/// first, peels each batch's inverses off the chains, and the third
/// finishes the additions on the lanes.
///
/// Within a bucket, pair `k`'s result lands at offset `k` and its sources
/// sit at offsets `2k` and `2k+1`, so the third pass, which reads each
/// batch before it writes it, never overwrites a yet-unread source.
#[inline(always)]
fn batch_add_round<C: CurveParams, B: LaneBody>(
    body: B,
    points: &mut [Affine<C>],
    pairs: &[(u32, u32)],
    suffix: &mut Vec<Suffix<B>>,
) {
    // Pass 1, last batch first: each batch's norms, and the product of
    // the later batches'. `suffix` holds them as scalar elements: a
    // vector of the IFMA body's 64-byte-aligned registers cost ≈ 1–2 MB
    // more peak memory per thread (the allocator kept the over-aligned
    // blocks), and the transposes cost no measurable time.
    suffix.clear();
    let mut acc = FqLanes::splat(body, &Fq::one());
    for batch in pairs.chunks(B::WIDTH).rev() {
        let norm = C::Base::norm(Batch::<C, B>::load(body, points, batch).denominators());
        suffix.push((acc.scatter(), norm.scatter()));
        acc = acc * norm;
    }
    let mut totals = acc.scatter();
    batch_inverse_in_place(totals.as_mut());
    let mut acc_inv = FqLanes::load(body, &totals);

    // Pass 2, first batch first: `acc_inv` is the inverse of this and
    // every later batch's product, so `acc_inv · later` inverts this
    // batch's norms; they replace `later`. A loop of its own keeps the
    // chain of products off the additions' critical path.
    for (later, norm) in suffix.iter_mut().rev() {
        let norm_inv = acc_inv * FqLanes::load(body, later);
        acc_inv = acc_inv * FqLanes::load(body, norm);
        *later = norm_inv.scatter();
    }

    // Pass 3, first batch first: the additions.
    let zero = C::Base::zero();
    for (batch, (norm_inv, _)) in pairs.chunks(B::WIDTH).zip(suffix.iter().rev()) {
        let lanes = Batch::<C, B>::load(body, points, batch);
        let kinds = &lanes.kinds;
        let y = |second| gather_coord(body, points, batch, kinds, second, |a| &a.y, |_| &zero);
        let (py, qy) = (y(0), y(1));
        let norm_inv = FqLanes::load(body, norm_inv);
        let d_inv = C::Base::inverse_from_norm(lanes.denominators(), norm_inv);
        let lambda = (qy - py) * d_inv;
        let x3 = lambda.square() - lanes.px - lanes.qx;
        let y3 = lambda * (lanes.px - x3) - py;
        let (x3, y3) = (C::Base::scatter(x3), C::Base::scatter(y3));
        let mut doubling_invs = None;
        for (i, &(src, dst)) in batch.iter().enumerate() {
            let src = src as usize;
            points[dst as usize] = match kinds.as_ref()[i] {
                PairKind::Add => Affine::new_unchecked(x3.as_ref()[i], y3.as_ref()[i]),
                PairKind::Double => {
                    let invs = doubling_invs.get_or_insert_with(|| C::Base::scatter(d_inv));
                    double_with(&points[src], invs.as_ref()[i])
                }
                PairKind::Trivial => trivial_sum(&points[src], &points[src + 1]),
            };
        }
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
    with_lanes(ReduceBuckets {
        points: &mut points,
        starts: &starts,
        lens: &mut lens,
    });

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
/// case; both are [`msm_limbs`] at the full 256-bit width.
///
/// # Panics
///
/// Panics if any part's base and scalar lengths differ.
pub fn msm_chunked<C: CurveParams>(parts: &[(&[Affine<C>], &[Fr])]) -> Projective<C> {
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
pub type LimbedPart<'a, C> = (&'a [Affine<C>], Vec<[u64; 4]>);

/// `Σ Σ scalarᵢⱼ · baseᵢⱼ` over pre-limbed scalars whose values fit in
/// `bits − 1` bits (the extra bit absorbs the signed-recoding carry): the
/// one entry that takes the scalars' width. Below 32 terms it runs the
/// shared-doubling ladder, `bits` doublings long, and Pippenger with
/// `⌈bits/c⌉` windows from there on. [`msm_chunked`] calls it with 256.
///
/// # Panics
///
/// Panics if any part's base and scalar lengths differ.
pub fn msm_limbs<C: CurveParams>(parts: &[LimbedPart<'_, C>], bits: usize) -> Projective<C> {
    for (bases, limbs) in parts {
        assert_eq!(bases.len(), limbs.len(), "mismatched msm input lengths");
    }
    match parts.iter().map(|(b, _)| b.len()).sum::<usize>() {
        0 => Projective::identity(),
        1..=31 => interleaved_ladder(parts, bits),
        _ => pippenger(parts, bits),
    }
}

/// Pippenger over pre-limbed scalars of `bits − 1` bits, at least one
/// term.
fn pippenger<C: CurveParams>(parts: &[LimbedPart<'_, C>], bits: usize) -> Projective<C> {
    let n: usize = parts.iter().map(|(b, _)| b.len()).sum();
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
/// break-even: one double-and-add ladder whose `bits`-step doubling chain
/// all terms share, a mixed addition per set scalar bit.
fn interleaved_ladder<C: CurveParams>(parts: &[LimbedPart<'_, C>], bits: usize) -> Projective<C> {
    let mut acc = Projective::identity();
    for bit in (0..bits.min(256)).rev() {
        acc = acc.double();
        for (bases, limbs) in parts {
            for (base, limbs) in bases.iter().zip(limbs) {
                if (limbs[bit / 64] >> (bit % 64)) & 1 == 1 {
                    acc = acc.add_mixed(base);
                }
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
    use rand::{RngCore, SeedableRng};
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

    /// `n` random points of `C`'s subgroup and `n` random scalars.
    fn random_terms<C: CurveParams>(rng: &mut StdRng, n: usize) -> (Vec<Affine<C>>, Vec<Fr>) {
        let table = WindowTable::new(Projective::<C>::generator(), 8);
        let multiples: Vec<Fr> = (0..n).map(|_| Fr::random(rng)).collect();
        let bases = Projective::batch_to_affine(&table.mul_batch(&multiples));
        (bases, (0..n).map(|_| Fr::random(rng)).collect())
    }

    /// Pippenger (also below the ladder's cut-off, called directly)
    /// against the naive sum, at pool sizes 1 and 2.
    fn pippenger_matches_naive_at<C: CurveParams>(rng: &mut StdRng, sizes: &[usize]) {
        for &n in sizes {
            let (bases, scalars) = random_terms::<C>(rng, n);
            let naive = naive_msm(&bases, &scalars);
            let limbs: Vec<[u64; 4]> = scalars.iter().map(|s| s.to_canonical_limbs()).collect();
            for threads in [1, 2] {
                let (fast, pippenger) = waku_pool::with_threads(threads, || {
                    (
                        msm(&bases, &scalars),
                        pippenger(&[(&bases[..], limbs.clone())], 256),
                    )
                });
                assert_eq!(fast, naive, "{} n = {n}, {threads} threads", C::NAME);
                assert_eq!(pippenger, naive, "{} n = {n}, {threads} threads", C::NAME);
            }
        }
    }

    #[test]
    fn pippenger_matches_naive_across_lane_tails_g1() {
        // 7, 8 and 9 pairs fill less than, exactly and more than one batch
        // of eight lanes in the first round; 455 and 8 191 are the
        // prover's delta and `H` sizes.
        let mut rng = StdRng::seed_from_u64(13);
        pippenger_matches_naive_at::<crate::g1::G1Params>(&mut rng, &[7, 8, 9, 33, 455, 8191]);
    }

    #[test]
    fn pippenger_matches_naive_across_lane_tails_g2() {
        let mut rng = StdRng::seed_from_u64(14);
        pippenger_matches_naive_at::<crate::g2::G2Params>(&mut rng, &[7, 8, 9, 33, 455, 8191]);
    }

    /// Buckets whose first batch of eight pairs mixes every kind: an add,
    /// a doubling, a cancellation, ∞ first, ∞ second, ∞ twice, then adds;
    /// a second bucket ends the round with a partial batch.
    fn exceptional_buckets<C: CurveParams>(
        rng: &mut StdRng,
    ) -> (Vec<Affine<C>>, Vec<u32>, Vec<u32>) {
        let (r, _) = random_terms::<C>(rng, 24);
        let inf = Affine::<C>::identity();
        let mut first = vec![
            r[0],
            r[1], // add
            r[2],
            r[2], // doubling
            r[3],
            r[3].neg(), // cancellation
            inf,
            r[4], // ∞ first
            r[5],
            inf, // ∞ second
            inf,
            inf, // ∞ twice
            r[6],
            r[7], // add
            r[8],
            r[8], // doubling
        ];
        first.extend_from_slice(&r[9..20]);
        let second = [r[20], r[21], r[21], r[22].neg(), r[22]];
        let starts = vec![0, first.len() as u32];
        let lens = vec![first.len() as u32, second.len() as u32];
        first.extend_from_slice(&second);
        (first, starts, lens)
    }

    /// Reduces `buckets` on `body` and checks each bucket against the
    /// projective sum of its points.
    fn reduce_on<C: CurveParams, B: LaneBody>(body: B, rng: &mut StdRng) {
        let (mut points, starts, mut lens) = exceptional_buckets::<C>(rng);
        let want: Vec<Projective<C>> = starts
            .iter()
            .zip(&lens)
            .map(|(&s, &l)| {
                let bucket = &points[s as usize..(s + l) as usize];
                bucket
                    .iter()
                    .fold(Projective::identity(), |acc, p| acc.add_mixed(p))
            })
            .collect();
        ReduceBuckets {
            points: &mut points,
            starts: &starts,
            lens: &mut lens,
        }
        .run(body);
        for ((&s, &l), want) in starts.iter().zip(&lens).zip(want) {
            assert_eq!(l, 1);
            assert_eq!(points[s as usize].to_projective(), want, "{}", C::NAME);
        }
    }

    #[test]
    fn exceptional_pairs_in_one_batch_take_the_scalar_formulas() {
        let mut rng = StdRng::seed_from_u64(15);
        // Both bodies: the portable one directly, and the one this CPU
        // runs (IFMA where it has it).
        struct Detected<C>(u64, std::marker::PhantomData<C>);
        impl<C: CurveParams> LaneTask for Detected<C> {
            type Output = ();
            #[inline(always)]
            fn run<B: LaneBody>(self, body: B) {
                reduce_on::<C, B>(body, &mut StdRng::seed_from_u64(self.0));
            }
        }
        for seed in 0..4 {
            reduce_on::<crate::g1::G1Params, _>(waku_arith::fp::Portable, &mut rng);
            reduce_on::<crate::g2::G2Params, _>(waku_arith::fp::Portable, &mut rng);
            with_lanes(Detected::<crate::g1::G1Params>(seed, Default::default()));
            with_lanes(Detected::<crate::g2::G2Params>(seed, Default::default()));
        }
    }

    #[test]
    fn one_bucket_of_doublings_and_cancellations() {
        // Equal scalars put every base in the same bucket of every
        // window, so the first round's first batch is bases 0..16 in
        // order: repeated bases double, opposite ones cancel.
        fn check<C: CurveParams>(rng: &mut StdRng) {
            let (r, s) = random_terms::<C>(rng, 40);
            let mut bases = vec![r[0], r[0], r[1], r[1].neg(), r[2], r[3], r[4], r[4]];
            bases.extend_from_slice(&r[5..]);
            let scalars = vec![s[0]; bases.len()];
            for threads in [1, 2] {
                let got = waku_pool::with_threads(threads, || msm(&bases, &scalars));
                assert_eq!(got, naive_msm(&bases, &scalars), "{}", C::NAME);
            }
        }
        let mut rng = StdRng::seed_from_u64(16);
        check::<crate::g1::G1Params>(&mut rng);
        check::<crate::g2::G2Params>(&mut rng);
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
        fn check<C: CurveParams>(rng: &mut StdRng) {
            let (b1, s1) = random_terms::<C>(rng, 150);
            let (b2, s2) = random_terms::<C>(rng, 70);
            let (b3, s3) = random_terms::<C>(rng, 5);
            let concat_bases: Vec<Affine<C>> = [&b1[..], &b2[..], &b3[..]].concat();
            let concat_scalars: Vec<Fr> = [&s1[..], &s2[..], &s3[..]].concat();
            for threads in [1, 2] {
                waku_pool::with_threads(threads, || {
                    let fused =
                        msm_chunked(&[(&b1[..], &s1[..]), (&b2[..], &s2[..]), (&b3[..], &s3[..])]);
                    assert_eq!(fused, msm(&concat_bases, &concat_scalars));
                    // Small total goes through the interleaved ladder.
                    let small = msm_chunked(&[(&b3[..], &s3[..]), (&b3[..2], &s3[..2])]);
                    assert_eq!(
                        small,
                        naive_msm(&b3, &s3).add(&naive_msm(&b3[..2], &s3[..2]))
                    );
                });
            }
        }
        let mut rng = StdRng::seed_from_u64(11);
        check::<crate::g1::G1Params>(&mut rng);
        check::<crate::g2::G2Params>(&mut rng);
    }

    #[test]
    fn short_scalars_take_their_width_on_both_sides_of_the_cutover() {
        // 64-bit scalars at width 65, the batch verifier's GLV halves: the
        // ladder below 32 terms runs 65 doublings, Pippenger above it
        // ⌈65/c⌉ windows. Edge halves: 0, 1 and 2⁶⁴ − 1 (whose top
        // window carries into the 65th bit).
        let mut rng = StdRng::seed_from_u64(17);
        for n in [1usize, 30, 31, 32, 33, 128] {
            let (bases, _) = random_g1(&mut rng, n);
            let mut halves: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
            halves[0] = u64::MAX;
            if n > 2 {
                halves[1] = 0;
                halves[2] = 1;
            }
            let scalars: Vec<Fr> = halves.iter().map(|&h| Fr::from_u64(h)).collect();
            let limbs: Vec<[u64; 4]> = halves.iter().map(|&h| [h, 0, 0, 0]).collect();
            let naive = naive_msm(&bases, &scalars);
            for threads in [1, 2] {
                let got = waku_pool::with_threads(threads, || {
                    msm_limbs(&[(&bases[..], limbs.clone())], 65)
                });
                assert_eq!(got, naive, "n = {n}, {threads} threads");
            }
        }
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
