//! Radix-2 evaluation domains for polynomial arithmetic over [`PrimeField`]s
//! with sufficient 2-adicity (BN254 `Fr` supports sizes up to 2²⁸).
//!
//! Used by the QAP reduction in `waku-snark`: the Groth16 prover evaluates
//! the constraint polynomials over a smooth multiplicative subgroup and the
//! quotient over a coset of it.
//!
//! Three optimizations serve the prover's hot path:
//!
//! * **Cached twiddle tables** — the powers of ω (and ω⁻¹) are computed
//!   once per domain and shared by every (i)FFT over it, halving the
//!   multiplication count of the butterfly loops (the prover runs seven
//!   transforms over the same domain per proof).
//! * **Lane vectors** — every butterfly stage whose half-block is at least
//!   the lane width runs its butterflies a [`crate::fp::FpLanes`] vector
//!   at a time: eight on AVX-512 IFMA, one (plain scalar code) on every
//!   other CPU, picked once per transform by [`crate::fp::with_lanes`].
//!   The `1/n` and coset scaling passes run on the lanes too, as
//!   independent power chains with no table. The stages below the lane
//!   width stay scalar, and each of their blocks' first butterfly, whose
//!   twiddle is `ω⁰ = 1`, skips its product; the first stage is all such
//!   butterflies. An 8 192-point transform takes about 0.4× the time of
//!   the scalar one on the IFMA lanes.
//! * **Stage-parallel butterflies** — above [`PAR_FFT_MIN`] points, each
//!   butterfly layer is split across the [`waku_pool`] work-stealing pool
//!   (whole blocks while they are plentiful, intra-block halves once the
//!   blocks outgrow the thread count); each task runs on the body its
//!   transform picked.
//!
//! Modular arithmetic is exact, so every body, schedule and pool size
//! produces bit-identical results.

use std::sync::OnceLock;

use crate::fp::{with_lanes, LaneBody, LaneField, LaneTask};
use crate::traits::PrimeField;

/// Transforms below this size run fully serially: below ~2¹² points the
/// butterfly work does not amortize task scheduling.
///
/// Re-timed on the IFMA lanes: one `fft` of random coefficients, the
/// stages split at every size for the two-thread column, median
/// (interquartile range) in µs over 40–400 runs on a 2-vCPU Sapphire
/// Rapids VM (timings drift by up to ±30 % between runs, so only the
/// columns of one row compare):
///
/// | n | 1 thread | 2 threads |
/// |---|---|---|
/// | 256 | **26.6** (1.3) | 76.3 (9.6) |
/// | 512 | **55.4** (2.3) | 105.9 (11.3) |
/// | 1 024 | **117.7** (3.1) | 173.0 (16.8) |
/// | 2 048 | **256.1** (3.5) | 263.6 (37.0) |
/// | 4 096 | 568.4 (20.9) | **430.3** (26.6) |
/// | 8 192 | 1 094.5 (159.3) | **812.8** (135.9) |
/// | 16 384 | 2 478.9 (141.1) | **1 429.7** (76.7) |
///
/// Bold is the schedule this constant picks: the split breaks even at
/// 2 048 points and wins from 4 096, so the threshold stays at 2¹².
pub const PAR_FFT_MIN: usize = 1 << 12;

/// A multiplicative subgroup `{1, ω, ω², …}` of size `2^log_size` plus the
/// precomputed constants needed for (i)FFT and coset (i)FFT.
///
/// # Examples
///
/// ```
/// use waku_arith::{fft::Radix2Domain, fields::Fr, traits::PrimeField};
/// let domain = Radix2Domain::<Fr>::new(5).unwrap(); // size ≥ 5 → 8
/// assert_eq!(domain.size(), 8);
/// let mut poly = vec![Fr::from_u64(3), Fr::from_u64(1)]; // 3 + x
/// let evals = domain.fft(&poly);
/// let back = domain.ifft(&evals);
/// assert_eq!(&back[..2], &poly[..]);
/// ```
#[derive(Clone, Debug)]
pub struct Radix2Domain<F: PrimeField> {
    size: usize,
    omega: F,
    omega_inv: F,
    size_inv: F,
    coset_gen: F,
    coset_gen_inv: F,
    /// Lazily-built `ω^j` table (`j < n/2`), shared by all forward FFTs.
    twiddles: OnceLock<Vec<F>>,
    /// Lazily-built `ω⁻ʲ` table for inverse FFTs.
    inv_twiddles: OnceLock<Vec<F>>,
}

impl<F: PrimeField> PartialEq for Radix2Domain<F> {
    fn eq(&self, other: &Self) -> bool {
        // The twiddle caches are derived data; two domains are equal iff
        // their defining constants are.
        self.size == other.size && self.omega == other.omega && self.coset_gen == other.coset_gen
    }
}

impl<F: PrimeField> Eq for Radix2Domain<F> {}

impl<F: PrimeField + LaneField> Radix2Domain<F> {
    /// Builds the smallest power-of-two domain with at least `min_size`
    /// elements. Returns `None` when the field's 2-adicity is insufficient.
    pub fn new(min_size: usize) -> Option<Self> {
        let size = min_size.max(1).next_power_of_two();
        let log_size = size.trailing_zeros();
        if log_size > F::TWO_ADICITY {
            return None;
        }
        let mut omega = F::two_adic_root_of_unity();
        for _ in log_size..F::TWO_ADICITY {
            omega = omega.square();
        }
        let omega_inv = omega.inverse().expect("root of unity is nonzero");
        let size_inv = F::from_u64(size as u64)
            .inverse()
            .expect("domain size nonzero in field");
        let coset_gen = F::multiplicative_generator();
        let coset_gen_inv = coset_gen.inverse().expect("generator nonzero");
        Some(Radix2Domain {
            size,
            omega,
            omega_inv,
            size_inv,
            coset_gen,
            coset_gen_inv,
            twiddles: OnceLock::new(),
            inv_twiddles: OnceLock::new(),
        })
    }

    /// Number of evaluation points.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The domain generator ω.
    pub fn group_gen(&self) -> F {
        self.omega
    }

    /// Fills `out[i] = base^i` serially.
    ///
    /// Deliberately NOT pool-parallel: this runs inside the `OnceLock`
    /// twiddle initializers, and a pool task spawned from inside an
    /// in-progress `get_or_init` lets a helping worker steal another FFT
    /// task that re-enters the same `OnceLock` on the same thread —
    /// reentrant initialization, which deadlocks. The fill is a one-time
    /// `n/2`-multiplication chain per domain, amortized over every
    /// subsequent transform.
    fn fill_powers(base: F, out: &mut [F]) {
        let mut factor = F::one();
        for x in out.iter_mut() {
            *x = factor;
            factor *= base;
        }
    }

    fn forward_twiddles(&self) -> &[F] {
        self.twiddles.get_or_init(|| {
            let mut t = vec![F::one(); self.size / 2];
            Self::fill_powers(self.omega, &mut t);
            t
        })
    }

    fn inverse_twiddles(&self) -> &[F] {
        self.inv_twiddles.get_or_init(|| {
            let mut t = vec![F::one(); self.size / 2];
            Self::fill_powers(self.omega_inv, &mut t);
            t
        })
    }

    /// Forces both twiddle tables to exist. Call before handing the same
    /// domain to concurrent pool tasks so their first transforms don't
    /// serialize on (or worse, nest inside) the one-time initialization.
    pub fn prepare_twiddles(&self) {
        self.forward_twiddles();
        self.inverse_twiddles();
    }

    /// One butterfly layer over `values`, blocks of `2m`, on `body`, split
    /// across the pool: whole blocks while they are plentiful, intra-block
    /// halves once the blocks outgrow the thread count.
    fn butterfly_stage_parallel<B: LaneBody>(
        body: B,
        values: &mut [F],
        m: usize,
        twiddles: &[F],
        stride: usize,
    ) {
        let n = values.len();
        let blocks = n / (2 * m);
        let threads = waku_pool::current_num_threads();
        if blocks >= threads * 2 {
            // Plenty of blocks: hand each task a run of whole blocks.
            let blocks_per_task = blocks.div_ceil(threads * 4).max(1);
            waku_pool::par_for_each_chunk_mut(values, blocks_per_task * 2 * m, |_, values| {
                body.run(Stage {
                    values,
                    m,
                    twiddles,
                    stride,
                });
            });
        } else {
            // Few large blocks: split the lo/hi halves of each block.
            let sub = m.div_ceil(threads * 4).max(1024);
            waku_pool::scope(|s| {
                for block in values.chunks_mut(2 * m) {
                    let (lo, hi) = block.split_at_mut(m);
                    for (i, (lo, hi)) in lo.chunks_mut(sub).zip(hi.chunks_mut(sub)).enumerate() {
                        s.spawn(move || {
                            body.run(Halves {
                                lo,
                                hi,
                                j0: i * sub,
                                twiddles,
                                stride,
                            });
                        });
                    }
                }
            });
        }
    }

    /// In-place iterative Cooley–Tukey over the given twiddle table, on
    /// `body`.
    fn fft_in_place<B: LaneBody>(body: B, values: &mut [F], twiddles: &[F]) {
        let n = values.len();
        if n <= 1 {
            return;
        }
        let log_n = n.trailing_zeros();
        // bit-reversal permutation
        for i in 0..n {
            let j = i.reverse_bits() >> (usize::BITS - log_n);
            if i < j {
                values.swap(i, j);
            }
        }
        let parallel = n >= PAR_FFT_MIN && waku_pool::current_num_threads() > 1;
        let mut m = 1usize;
        for _ in 0..log_n {
            let stride = n / (2 * m);
            if parallel {
                Self::butterfly_stage_parallel(body, values, m, twiddles, stride);
            } else {
                body.run(Stage {
                    values,
                    m,
                    twiddles,
                    stride,
                });
            }
            m <<= 1;
        }
    }

    /// Multiplies `values[i]` by `factor · step^i` (by `factor` alone
    /// when `step` is `None`), on `body`, chunk-parallel.
    fn scale<B: LaneBody>(body: B, values: &mut [F], factor: F, step: Option<F>) {
        let chunk = waku_pool::chunk_size_for(values.len(), 1024);
        waku_pool::par_for_each_chunk_mut(values, chunk, |offset, values| {
            let factor = match step {
                Some(step) => factor * step.pow(&[offset as u64]),
                None => factor,
            };
            body.run(Scale {
                values,
                factor,
                step,
            });
        });
    }

    /// Runs `kind` on `values` (already `self.size()` long) on `body`.
    fn transform<B: LaneBody>(&self, body: B, kind: Transform, values: &mut [F]) {
        match kind {
            Transform::Fft => Self::fft_in_place(body, values, self.forward_twiddles()),
            Transform::Ifft => {
                Self::fft_in_place(body, values, self.inverse_twiddles());
                Self::scale(body, values, self.size_inv, None);
            }
            Transform::CosetFft => {
                Self::scale(body, values, F::one(), Some(self.coset_gen));
                Self::fft_in_place(body, values, self.forward_twiddles());
            }
            // `1/n` and `g⁻ⁱ` in one pass: the same products, and every
            // value is exact, so the result is the two passes'.
            Transform::CosetIfft => {
                Self::fft_in_place(body, values, self.inverse_twiddles());
                Self::scale(body, values, self.size_inv, Some(self.coset_gen_inv));
            }
            // `ifft` then `coset_fft`, their `1/n` and `gⁱ` passes in one.
            Transform::EvalsToCoset => {
                Self::fft_in_place(body, values, self.inverse_twiddles());
                Self::scale(body, values, self.size_inv, Some(self.coset_gen));
                Self::fft_in_place(body, values, self.forward_twiddles());
            }
        }
    }

    /// `kind` over `input` zero-padded to the domain, on the lane body this
    /// CPU supports.
    fn transformed(&self, kind: Transform, input: &[F]) -> Vec<F> {
        let mut values = input.to_vec();
        values.resize(self.size, F::zero());
        with_lanes(OnDomain {
            domain: self,
            kind,
            values: &mut values,
        });
        values
    }

    /// Evaluates the polynomial with the given coefficients over the domain.
    /// Input shorter than the domain is zero-padded; longer input panics.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() > self.size()`.
    pub fn fft(&self, coeffs: &[F]) -> Vec<F> {
        assert!(coeffs.len() <= self.size, "polynomial larger than domain");
        self.transformed(Transform::Fft, coeffs)
    }

    /// Interpolates evaluations back to coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `evals.len() != self.size()`.
    pub fn ifft(&self, evals: &[F]) -> Vec<F> {
        assert_eq!(evals.len(), self.size, "evaluation count must match domain");
        self.transformed(Transform::Ifft, evals)
    }

    /// Evaluates over the coset `g·H` (g the field's multiplicative
    /// generator), which avoids the zeros of the vanishing polynomial.
    pub fn coset_fft(&self, coeffs: &[F]) -> Vec<F> {
        assert!(coeffs.len() <= self.size, "polynomial larger than domain");
        self.transformed(Transform::CosetFft, coeffs)
    }

    /// Inverse of [`Radix2Domain::coset_fft`].
    ///
    /// # Panics
    ///
    /// Panics if `evals.len() != self.size()`.
    pub fn coset_ifft(&self, evals: &[F]) -> Vec<F> {
        assert_eq!(evals.len(), self.size, "evaluation count must match domain");
        self.transformed(Transform::CosetIfft, evals)
    }

    /// Moves a polynomial's evaluations over the domain to its evaluations
    /// over the coset `g·H`, in place: `coset_fft(ifft(values))`, with one
    /// scaling pass where those two make two.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.size()`.
    pub fn evals_to_coset(&self, values: &mut [F]) {
        assert_eq!(
            values.len(),
            self.size,
            "evaluation count must match domain"
        );
        with_lanes(OnDomain {
            domain: self,
            kind: Transform::EvalsToCoset,
            values,
        });
    }

    /// The vanishing polynomial `Z(X) = X^n − 1` evaluated anywhere on the
    /// coset `g·H` (constant there: `g^n − 1`).
    pub fn z_on_coset(&self) -> F {
        self.coset_gen.pow(&[self.size as u64]) - F::one()
    }

    /// Evaluates `Z(X) = X^n − 1` at an arbitrary point.
    pub fn z_at(&self, x: F) -> F {
        x.pow(&[self.size as u64]) - F::one()
    }
}

/// The five transforms a domain runs.
#[derive(Clone, Copy, Debug)]
enum Transform {
    Fft,
    Ifft,
    CosetFft,
    CosetIfft,
    EvalsToCoset,
}

/// One transform over `values`, on lane body `B`.
struct OnDomain<'a, F: PrimeField> {
    domain: &'a Radix2Domain<F>,
    kind: Transform,
    values: &'a mut [F],
}

impl<F: PrimeField + LaneField> LaneTask for OnDomain<'_, F> {
    type Output = ();

    fn run<B: LaneBody>(self, body: B) {
        self.domain.transform(body, self.kind, self.values);
    }
}

/// The butterflies `(lo[k], hi[k]) ← (u + t·v, u − t·v)` with twiddle
/// `t = twiddles[(j0 + k) · stride]`, a lane vector at a time. A tail
/// shorter than the lane width runs scalar; on the one-lane portable body
/// there is none, and the loop is the scalar one.
#[inline(always)]
fn butterflies<F: LaneField, B: LaneBody>(
    body: B,
    lo: &mut [F],
    hi: &mut [F],
    twiddles: &[F],
    j0: usize,
    stride: usize,
) {
    let mut twiddles = twiddles[j0 * stride..].iter().step_by(stride);
    let mut lo = lo.chunks_exact_mut(B::WIDTH);
    let mut hi = hi.chunks_exact_mut(B::WIDTH);
    for (l, h) in lo.by_ref().zip(hi.by_ref()) {
        let t = F::gather(
            body,
            B::array(|_| twiddles.next().expect("one per butterfly")),
        );
        let u = F::load_slice(body, l);
        let v = F::load_slice(body, h) * t;
        F::store_slice(u + v, l);
        F::store_slice(u - v, h);
    }
    for ((l, h), t) in lo
        .into_remainder()
        .iter_mut()
        .zip(hi.into_remainder())
        .zip(twiddles)
    {
        let v = *t * *h;
        let u = *l;
        *l = u + v;
        *h = u - v;
    }
}

/// One butterfly layer over whole blocks of `2m`, on lane body `B`.
struct Stage<'a, F> {
    values: &'a mut [F],
    m: usize,
    twiddles: &'a [F],
    stride: usize,
}

impl<F: LaneField> LaneTask for Stage<'_, F> {
    type Output = ();

    /// Half-blocks narrower than a lane vector (and the first layer, whose
    /// half-blocks are one element) run scalar. Each block's butterfly
    /// `j = 0` there has twiddle `ω⁰ = 1` and skips its product: exact,
    /// as a Montgomery product by one is. The first layer is all such
    /// butterflies.
    #[inline(always)]
    fn run<B: LaneBody>(self, body: B) {
        let Stage {
            values,
            m,
            twiddles,
            stride,
        } = self;
        for block in values.chunks_mut(2 * m) {
            let (lo, hi) = block.split_at_mut(m);
            if m < B::WIDTH.max(2) {
                let (u, v) = (lo[0], hi[0]);
                lo[0] = u + v;
                hi[0] = u - v;
                for j in 1..m {
                    let v = twiddles[j * stride] * hi[j];
                    let u = lo[j];
                    lo[j] = u + v;
                    hi[j] = u - v;
                }
            } else {
                butterflies(body, lo, hi, twiddles, 0, stride);
            }
        }
    }
}

/// Butterflies `j0..j0 + lo.len()` of one block (the parallel stage's
/// intra-block split), on lane body `B`.
struct Halves<'a, F> {
    lo: &'a mut [F],
    hi: &'a mut [F],
    j0: usize,
    twiddles: &'a [F],
    stride: usize,
}

impl<F: LaneField> LaneTask for Halves<'_, F> {
    type Output = ();

    #[inline(always)]
    fn run<B: LaneBody>(self, body: B) {
        butterflies(body, self.lo, self.hi, self.twiddles, self.j0, self.stride);
    }
}

/// `values[i] *= factor · step^i` (`step` absent: `factor` alone), on
/// lane body `B`. Lane `i` keeps its own power chain, starting at
/// `factor · step^i` and advancing by `step^WIDTH`, so no power table is
/// read.
struct Scale<'a, F> {
    values: &'a mut [F],
    factor: F,
    step: Option<F>,
}

impl<F: LaneField> LaneTask for Scale<'_, F> {
    type Output = ();

    #[inline(always)]
    fn run<B: LaneBody>(self, body: B) {
        let full = self.values.len() / B::WIDTH * B::WIDTH;
        let (values, tail) = self.values.split_at_mut(full);
        let mut factor = self.factor;
        match self.step {
            None => {
                let k = F::gather(body, B::array(|_| &factor));
                for x in values.chunks_exact_mut(B::WIDTH) {
                    F::store_slice(F::load_slice(body, x) * k, x);
                }
            }
            Some(step) => {
                let mut power = F::one();
                let starts = B::array(|_| {
                    let start = factor * power;
                    power *= step;
                    start
                });
                let advance = F::gather(body, B::array(|_| &power));
                let mut factors = F::gather(body, B::array(|i| &starts.as_ref()[i]));
                for x in values.chunks_exact_mut(B::WIDTH) {
                    F::store_slice(F::load_slice(body, x) * factors, x);
                    factors = factors * advance;
                }
                factor = F::scatter(factors).as_ref()[0];
            }
        }
        for x in tail {
            *x *= factor;
            if let Some(step) = self.step {
                factor *= step;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::Fr;
    use crate::fp::Portable;
    use crate::traits::Field;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn eval_poly(coeffs: &[Fr], x: Fr) -> Fr {
        let mut acc = Fr::zero();
        for &c in coeffs.iter().rev() {
            acc = acc * x + c;
        }
        acc
    }

    #[test]
    fn fft_matches_naive_evaluation() {
        let mut rng = StdRng::seed_from_u64(1);
        let domain = Radix2Domain::<Fr>::new(8).unwrap();
        let coeffs: Vec<Fr> = (0..8).map(|_| Fr::random(&mut rng)).collect();
        let evals = domain.fft(&coeffs);
        let mut x = Fr::one();
        for e in &evals {
            assert_eq!(*e, eval_poly(&coeffs, x));
            x *= domain.group_gen();
        }
    }

    /// The transforms at sizes whose upper stages run on lane vectors,
    /// against naive evaluation at every point (a spread of 64 points at
    /// 8 192), plus their round trips.
    #[test]
    fn transforms_match_naive_evaluation_at_lane_sizes() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = Fr::multiplicative_generator();
        for n in [16usize, 64, 1024, 8192] {
            let domain = Radix2Domain::<Fr>::new(n).unwrap();
            let w = domain.group_gen();
            let points: Vec<usize> = (0..n).step_by((n / 64).max(1)).chain([1, n - 1]).collect();
            let coeffs: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
            let values: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
            let (evals, coset_evals) = (domain.fft(&coeffs), domain.coset_fft(&coeffs));
            let (interp, coset_interp) = (domain.ifft(&values), domain.coset_ifft(&values));
            for &i in &points {
                let x = w.pow(&[i as u64]);
                assert_eq!(evals[i], eval_poly(&coeffs, x), "fft, n = {n}, i = {i}");
                assert_eq!(
                    coset_evals[i],
                    eval_poly(&coeffs, g * x),
                    "coset_fft, n = {n}"
                );
                assert_eq!(eval_poly(&interp, x), values[i], "ifft, n = {n}, i = {i}");
                assert_eq!(
                    eval_poly(&coset_interp, g * x),
                    values[i],
                    "coset_ifft, n = {n}"
                );
            }
            assert_eq!(domain.ifft(&evals), coeffs, "n = {n}");
            assert_eq!(domain.coset_ifft(&coset_evals), coeffs, "n = {n}");
            // `ifft(evals)` is `coeffs`, so this is `coset_fft(ifft(evals))`.
            let mut moved = evals;
            domain.evals_to_coset(&mut moved);
            assert_eq!(moved, coset_evals, "evals_to_coset, n = {n}");
        }
    }

    /// The body this CPU runs (eight IFMA lanes where it has them) and the
    /// one-lane portable body give the same values, serial and split on a
    /// pool of two.
    #[test]
    fn detected_body_matches_the_portable_body() {
        let mut rng = StdRng::seed_from_u64(12);
        for n in [16usize, 64, 1024, 8192] {
            let domain = Radix2Domain::<Fr>::new(n).unwrap();
            let input: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
            for kind in [
                Transform::Fft,
                Transform::Ifft,
                Transform::CosetFft,
                Transform::CosetIfft,
                Transform::EvalsToCoset,
            ] {
                let portable = |threads| {
                    waku_pool::with_threads(threads, || {
                        let mut v = input.clone();
                        domain.transform(Portable, kind, &mut v);
                        v
                    })
                };
                let reference = portable(1);
                if let Transform::EvalsToCoset = kind {
                    assert_eq!(reference, domain.coset_fft(&domain.ifft(&input)), "n = {n}");
                }
                for threads in [1, 2] {
                    let detected =
                        waku_pool::with_threads(threads, || domain.transformed(kind, &input));
                    assert_eq!(detected, reference, "{kind:?}, n = {n}, {threads} threads");
                    assert_eq!(portable(threads), reference, "{kind:?}, n = {n}");
                }
            }
        }
    }

    /// Butterflies from the middle of a block (`j0 > 0`) over a length
    /// that leaves a tail after the last full lane vector, as the
    /// parallel stage's intra-block split can hand out.
    #[test]
    fn butterfly_runs_with_a_tail_match_the_scalar_formula() {
        let mut rng = StdRng::seed_from_u64(13);
        let twiddles: Vec<Fr> = (0..256).map(|_| Fr::random(&mut rng)).collect();
        for (len, j0, stride) in [(13usize, 3usize, 2usize), (8, 0, 1), (21, 40, 4), (5, 1, 1)] {
            let lo: Vec<Fr> = (0..len).map(|_| Fr::random(&mut rng)).collect();
            let hi: Vec<Fr> = (0..len).map(|_| Fr::random(&mut rng)).collect();
            let (mut l, mut h) = (lo.clone(), hi.clone());
            with_lanes(Halves {
                lo: &mut l,
                hi: &mut h,
                j0,
                twiddles: &twiddles,
                stride,
            });
            for k in 0..len {
                let t = twiddles[(j0 + k) * stride] * hi[k];
                assert_eq!((l[k], h[k]), (lo[k] + t, lo[k] - t), "len {len}, k = {k}");
            }
        }
    }

    #[test]
    fn fft_ifft_roundtrip() {
        let mut rng = StdRng::seed_from_u64(2);
        for log in 1..=10 {
            let n = 1usize << log;
            let domain = Radix2Domain::<Fr>::new(n).unwrap();
            let coeffs: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
            assert_eq!(domain.ifft(&domain.fft(&coeffs)), coeffs);
        }
    }

    #[test]
    fn parallel_fft_is_bit_identical_to_serial() {
        // Large enough to cross PAR_FFT_MIN and exercise both the
        // whole-block and the intra-block splitting paths.
        let mut rng = StdRng::seed_from_u64(7);
        let n = PAR_FFT_MIN * 2;
        let domain = Radix2Domain::<Fr>::new(n).unwrap();
        let coeffs: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        let serial = waku_pool::with_threads(1, || domain.fft(&coeffs));
        for threads in [2, 4, 7] {
            let parallel = waku_pool::with_threads(threads, || domain.fft(&coeffs));
            assert_eq!(serial, parallel, "threads = {threads}");
        }
        let serial_coset = waku_pool::with_threads(1, || domain.coset_ifft(&serial));
        let parallel_coset = waku_pool::with_threads(4, || domain.coset_ifft(&serial));
        assert_eq!(serial_coset, parallel_coset);
    }

    #[test]
    fn coset_fft_roundtrip() {
        let mut rng = StdRng::seed_from_u64(3);
        let domain = Radix2Domain::<Fr>::new(64).unwrap();
        let coeffs: Vec<Fr> = (0..64).map(|_| Fr::random(&mut rng)).collect();
        assert_eq!(domain.coset_ifft(&domain.coset_fft(&coeffs)), coeffs);
    }

    #[test]
    fn coset_fft_matches_naive() {
        let mut rng = StdRng::seed_from_u64(4);
        let domain = Radix2Domain::<Fr>::new(4).unwrap();
        let coeffs: Vec<Fr> = (0..4).map(|_| Fr::random(&mut rng)).collect();
        let evals = domain.coset_fft(&coeffs);
        let g = Fr::multiplicative_generator();
        let mut x = g;
        for e in &evals {
            assert_eq!(*e, eval_poly(&coeffs, x));
            x *= domain.group_gen();
        }
    }

    #[test]
    fn vanishing_poly_is_zero_on_domain_constant_on_coset() {
        let domain = Radix2Domain::<Fr>::new(16).unwrap();
        let mut x = Fr::one();
        for _ in 0..16 {
            assert!(domain.z_at(x).is_zero());
            x *= domain.group_gen();
        }
        let g = Fr::multiplicative_generator();
        assert_eq!(domain.z_at(g), domain.z_on_coset());
        assert_eq!(
            domain.z_at(g * domain.group_gen()),
            domain.z_on_coset(),
            "Z is constant on the whole coset"
        );
        assert!(!domain.z_on_coset().is_zero());
    }

    #[test]
    fn padding_with_zeros() {
        let domain = Radix2Domain::<Fr>::new(8).unwrap();
        let short = vec![Fr::from_u64(5)];
        let evals = domain.fft(&short);
        for e in evals {
            assert_eq!(e, Fr::from_u64(5)); // constant polynomial
        }
    }

    #[test]
    fn domain_size_rounds_up() {
        let mut rng = StdRng::seed_from_u64(5);
        let n: usize = rng.gen_range(3..100);
        let domain = Radix2Domain::<Fr>::new(n).unwrap();
        assert!(domain.size() >= n);
        assert!(domain.size().is_power_of_two());
    }

    #[test]
    fn domain_equality_ignores_twiddle_cache() {
        let a = Radix2Domain::<Fr>::new(32).unwrap();
        let b = Radix2Domain::<Fr>::new(32).unwrap();
        let _ = a.fft(&[Fr::from_u64(1)]); // populate a's cache only
        assert_eq!(a, b);
        assert_ne!(a, Radix2Domain::<Fr>::new(64).unwrap());
    }

    #[test]
    fn too_large_domain_fails() {
        assert!(Radix2Domain::<Fr>::new(1usize << 29).is_none());
        assert!(
            Radix2Domain::<crate::fields::Fq>::new(4).is_none(),
            "Fq has 2-adicity 1"
        );
    }
}
