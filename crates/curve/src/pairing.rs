//! The optimal ate pairing on BN254.
//!
//! The Miller loop runs in *twist coordinates*: the accumulator `T` and the
//! line slopes stay in Fp2, because the untwist `(x', y') ↦ (x'·w², y'·w³)`
//! maps the affine group law on `E'(Fp2)` to the one on `E(Fp12)`
//! coefficient-for-coefficient (`λ = λ'·w`, so `x₃` stays in the `w²` slot
//! and `y₃` in the `w³` slot). A line evaluated at an embedded G1 point
//! `(px, py)` is then the sparse element
//!
//! ```text
//! l = py − (λ'·px)·w + (λ'·x' − y')·w³,
//! ```
//!
//! which never gets expanded: the accumulator is multiplied by it in that
//! sparse form ([`Fp12::mul_by_line`], 36 Fq products against 54 for a
//! dense `Fp12` product). The two Frobenius correction steps
//! of the optimal ate formula become the GLS endomorphism `ψ` in twist
//! coordinates (see [`crate::endo`]): `Q₁ = ψ(Q)`, `Q₂ = −ψ²(Q)`.
//!
//! Four levers sit on top:
//!
//! * [`G2Prepared`] — for a *fixed* G2 point the sequence of line
//!   coefficients `(λ', λ'·x' − y')` depends only on the point, so a
//!   verifier precomputes them once and each pairing replays 102 stored
//!   coefficients with no G2 arithmetic and no inversions at all.
//! * [`miller_loop_mixed`] — runs any number of dynamic and prepared pairs
//!   under one shared `f`-squaring chain, and amortizes the dynamic pairs'
//!   slope denominators with one Fp2 batch inversion per step. This is the
//!   engine under batch Groth16 verification.
//! * **Projective steps for small chunks.** One batch inversion per step
//!   costs as much for one pair as for 32, so a chunk with a handful of
//!   dynamic pairs (a single proof's `(−A, B)`) steps its accumulators in
//!   homogeneous coordinates instead (Costello–Lange–Naehrig, `a = 0`,
//!   D-twist) and pays no inversion per step. Each such line is the affine
//!   line times an Fp2 scale — `−2YZ` for a tangent, `λ = X − qx·Z` for a
//!   chord, `Z` for a vertical, 1 for the neutral factor — so the chunk's
//!   `f` is the affine (lane) chunk's times `S`, the product of the scales under
//!   the same squaring chain (`S ← S²` wherever `f ← f²`, then `S ← S·s`
//!   per line). The chunk tracks `S` and returns `f·S⁻¹`: one inversion,
//!   and **the same `Fp12` element** the lane chunk returns, off the
//!   subgroup too, since the exceptional cases follow the group law the
//!   way the affine steps do. The tangent's `w³` coefficient uses the curve
//!   equation, so the chunk takes this path only when every dynamic `Q` is
//!   on the twist — which every `waku-snark` entry point has checked before
//!   the loop — and runs affine steps otherwise, as it does when it
//!   records lines.
//! * **Lanes.** Every other chunk runs on `waku_arith::fp::FpLanes`
//!   (`with_lanes`: eight lanes on AVX-512 IFMA, one on the portable
//!   body), `WIDTH` dynamic pairs at a time, one pair per lane: `T`, the
//!   slopes and the line coefficients on Fp2 lanes, and one `Fp12`
//!   accumulator per lane that every vector of the chunk multiplies its
//!   line into and that is squared once per tangent phase. The lanes are
//!   the tower itself over `FqLanes` (`Fp2Over<FqLanes<B>>`, likewise
//!   Fp12; see [`crate::fp2`]): the square and [`Fp12::mul_by_line`] the
//!   scalar steps run are the ones the lanes run. The slope
//!   denominators' norms run on `WIDTH` interleaved prefix-product chains,
//!   whose totals take one scalar inversion per phase (the three passes
//!   of the MSM's batch-affine round). The prepared pairs' recorded lines
//!   ride the same lanes, gathered a vector at a time; a chunk of fewer
//!   than three replays and no dynamic pair keeps one scalar accumulator.
//!   A live lane leaves the plain chord or tangent only on a zero
//!   denominator (`T.x = Q.x`: a doubling or a vertical; the twist has no
//!   2-torsion), which zeroes its chain's total: that pair is *evicted* to
//!   the scalar `add_step` / `double_step`, its lines into a scalar
//!   side accumulator squared on the same chain, and its lane contributes
//!   the factor 1, as padding lanes do. The lane accumulators and the side
//!   one are multiplied together once at the end, so the chunk returns
//!   **the same `Fp12` element** as one scalar accumulator would, and on
//!   the portable body it *is* that loop. Each Fp12 lane operation
//!   (square, line product) is a lane task of its own, `SquareLanes` and
//!   `MulLines`: in one function with the steps, LLVM took minutes to
//!   compile it.
//!
//! # Pooling
//!
//! The loop is multiplicative — every step is `f ← f²·∏ lines` — so the
//! loop over a set of pairs is the product of the loops over any partition
//! of it, as the *same* `Fp12` element. [`miller_loop_mixed`] cuts its
//! pairs — dynamic first, then prepared — into at most
//! [`waku_pool::current_num_threads`] contiguous chunks of near-equal cost
//! (a replayed pair counts three quarters of a dynamic one), runs the
//! lock-step loop per chunk as a pool task and multiplies the partial
//! accumulators. A single verification puts its own pair on one core and
//! the γ/δ replays on the other; a loop that is mostly replays spreads
//! them like dynamic pairs. Each extra chunk pays one more squaring chain
//! and one more inversion per phase — on the IFMA lanes 64 lane squarings
//! of eight accumulators, about the line work of eight pairs — which is
//! why the chunk count follows the pool size and nothing else; a pool of one runs
//! exactly one loop. [`miller_loop_traced`] is the same loop for a caller
//! that needs more than the product: which dynamic G2 points failed the
//! membership test below, the lines of every dynamic pair for later
//! replay, and a cap on the number of chunks when several loops already
//! share the pool.
//!
//! # G2 membership
//!
//! `E'(Fp2)` has order `r·(2p − r)`, so an on-curve point need not lie in
//! G2, and a pairing "evaluated" outside G2 is not bilinear. The loop
//! certifies membership of every dynamic G2 point with the state it
//! already holds. After the two correction steps the accumulator is the
//! true group sum
//!
//! ```text
//! T = [6x+2]Q + ψ(Q) − ψ²(Q)
//! ```
//!
//! (`double_step`/`add_step` follow the group law through the identity and
//! vertical cases, so this holds for *any* `Q ∈ E'(Fp2)`). For `Q` of order
//! `r`, `ψ` acts as `[p]` and `6x+2 + p − p² + p³ ≡ 0 (mod r)` — the
//! relation that makes the optimal ate pairing work — so `T = −ψ³(Q)`.
//! Conversely, let `g(X) = X³ − X² + X + (6x+2)`, so `T = −ψ³(Q)` says
//! `g(ψ)Q = O`. On all of `E'`, `ψ` also satisfies the Frobenius
//! characteristic polynomial `χ(X) = X² − tX + p` (`t = 6x²+1`). The
//! resultant `Res(g, χ)` is an integer combination `u·g + v·χ` with
//! `u, v ∈ Z[X]`, hence `[Res(g, χ)]Q = O`; and `[#E'(Fp2)]Q = O`. For
//! BN254
//!
//! ```text
//! gcd(Res(g, χ), #E'(Fp2)) = r,
//! ```
//!
//! so `[r]Q = O`: the comparison `T == −ψ³(Q)` *is* the membership test,
//! for one `ψ` application (two Fp2 products) per pair and no scalar
//! multiplication (projective `T = (X:Y:Z)`: `Z ≠ 0`, `X = x·Z`,
//! `Y = y·Z`). The same resultant computation returns `r` for the two
//! published BN tests, `ψ(Q) = [6x²]Q` and
//! `[x+1]Q + ψ([x]Q) + ψ²([x]Q) = ψ³([2x]Q)`; the tests compute all three
//! gcds. On a mismatch [`miller_loop_mixed`] returns `Fp12::zero()`, which
//! [`final_exponentiation`] maps to `None` ([`miller_loop_traced`] names
//! the pairs instead). No loop over genuine G2 points
//! produces that value: every factor is a tangent or chord line whose
//! constant coefficient is `py`, and G1 has no point with `py = 0`.
//! Prepared points come from a verifying key, not from the network, and
//! are not tested.
//!
//! The final exponentiation does the easy part `^(p⁶−1)(p²+1)` with
//! Frobenius/conjugation, which lands in the cyclotomic subgroup where
//! inversion is conjugation and squaring is the Granger–Scott
//! [`Fp12::cyclotomic_square`]. The hard part `^(p⁴ − p² + 1)/r` then uses
//! the *exact* BN decomposition of that exponent in base `p`
//! (Devegili–Scott–Dahab),
//!
//! ```text
//! (p⁴−p²+1)/r = p³ + (6x²+1)·p² + (−36x³−18x²−12x+1)·p + (−36x³−30x²−18x−2),
//! ```
//!
//! i.e. three exponentiations by the 63-bit `x`, a few Frobenius maps and
//! the vectorial addition chain `y0·y1²·y2⁶·y3¹²·y4¹⁸·y5³⁰·y6³⁶` — not a
//! multiple of the exponent, so the result is the same field element a
//! plain square-and-multiply over the 762-bit exponent gives (the tests
//! keep that ladder as their oracle). Each `x`-exponentiation is a
//! signed-digit chain ([`Fp12::cyclotomic_pow`]): 62 cyclotomic squarings
//! and a product per nonzero NAF digit of `x` below the top one, 23
//! where the binary ladder takes 27, because an inverse in the subgroup
//! is a conjugation.
//!
//! The BN parameter is `x = 4965661367192848881`; the Miller loop runs over
//! `6x + 2 = 29793968203157093288`.

use waku_arith::batch_inv::batch_inverse_in_place;
use waku_arith::fields::Fq;
use waku_arith::fp::{with_lanes, LaneBody, LaneField, LaneTask, Ring};
use waku_arith::traits::Field;

use crate::endo::psi;
use crate::fp12::Fp12;
use crate::fp2::{Fp2, Fp2Over};
use crate::g1::G1Affine;
use crate::g2::{G2Affine, G2Params};
use crate::point::{CurveParams, FqLanes};

/// The BN curve parameter `x`.
pub const BN_X: u64 = 4965661367192848881;
/// Miller loop count `6x + 2` (65 bits, hence `u128`).
pub const ATE_LOOP_COUNT: u128 = 6 * (BN_X as u128) + 2;
/// Lines one G2 point contributes to a loop: a tangent per bit below the
/// top one, a chord per set bit below it, and the two corrections (102).
const LINES_PER_POINT: usize =
    (127 - ATE_LOOP_COUNT.leading_zeros() + ATE_LOOP_COUNT.count_ones() - 1 + 2) as usize;

/// One step of the loop's schedule: a tangent, or a chord through
/// `addends(Q)[i]`.
#[derive(Copy, Clone)]
enum Phase {
    Tangent,
    Chord(usize),
}

/// The optimal-ate schedule, MSB of `6x+2` (skipped) downward: a tangent
/// per bit, each after `f` is squared, a chord through `Q` per set bit,
/// then the two Frobenius corrections.
fn schedule() -> impl Iterator<Item = Phase> {
    let loop_bits = 128 - ATE_LOOP_COUNT.leading_zeros();
    (0..loop_bits - 1)
        .rev()
        .flat_map(|i| {
            let chord = (ATE_LOOP_COUNT >> i) & 1 == 1;
            std::iter::once(Phase::Tangent).chain(chord.then_some(Phase::Chord(0)))
        })
        .chain([Phase::Chord(1), Phase::Chord(2)])
}

/// The chord addends `[Q, Q₁, Q₂] = [Q, ψ(Q), −ψ²(Q)]` in twist
/// coordinates.
fn addends(q: &G2Affine) -> [G2Affine; 3] {
    let q1 = psi(q);
    let q2 = psi(&q1).neg();
    [*q, q1, q2]
}

/// One recorded (or freshly computed) Miller-loop line, in twist
/// coordinates relative to the pre-step accumulator.
#[derive(Copy, Clone, Debug, PartialEq)]
enum LineCoeff {
    /// Tangent or chord with slope `λ'` through `(x', y')`, stored as
    /// `λ'` and the intercept term `λ'·x' − y'`.
    Line { lambda: Fp2, intercept: Fp2 },
    /// Vertical line `X − x'·w²` (the points cancelled).
    Vertical { x: Fp2 },
    /// A step touching the point at infinity: neutral factor.
    One,
}

/// Denominator of the tangent slope at `t` (placeholder 1 when no
/// inversion will be needed), collected before the batch inversion.
fn double_denom(t: &G2Affine) -> Fp2 {
    if t.is_identity() {
        Fp2::one()
    } else {
        t.y.double()
    }
}

/// Denominator of the chord slope through `t` and `q` (placeholder 1 for
/// the identity/vertical cases). Classification is a pure function of the
/// two inputs, so the collection and application passes agree.
fn add_denom(t: &G2Affine, q: &G2Affine) -> Fp2 {
    if t.is_identity() || q.is_identity() {
        Fp2::one()
    } else if t.x == q.x {
        if t.y == q.y {
            t.y.double()
        } else {
            Fp2::one()
        }
    } else {
        q.x - t.x
    }
}

/// Tangent step `t ← 2t` given the inverted denominator; returns the line.
fn double_step(t: &mut G2Affine, inv: &Fp2) -> LineCoeff {
    if t.is_identity() {
        return LineCoeff::One;
    }
    let xx = t.x.square();
    let lambda = (xx.double() + xx) * *inv;
    let coeff = LineCoeff::Line {
        lambda,
        intercept: lambda * t.x - t.y,
    };
    let x3 = lambda.square() - t.x.double();
    let y3 = lambda * (t.x - x3) - t.y;
    *t = G2Affine::new_unchecked(x3, y3);
    coeff
}

/// Chord step `t ← t + q` given the inverted denominator; returns the
/// line. Handles the degenerate cases (identity inputs, doubling,
/// cancellation) the same way in both the prepare and replay paths.
fn add_step(t: &mut G2Affine, q: &G2Affine, inv: &Fp2) -> LineCoeff {
    if q.is_identity() {
        return LineCoeff::One;
    }
    if t.is_identity() {
        *t = *q;
        return LineCoeff::One;
    }
    if t.x == q.x {
        if t.y == q.y {
            return double_step(t, inv);
        }
        let coeff = LineCoeff::Vertical { x: t.x };
        *t = G2Affine::identity();
        return coeff;
    }
    let lambda = (q.y - t.y) * *inv;
    let coeff = LineCoeff::Line {
        lambda,
        intercept: lambda * t.x - t.y,
    };
    let x3 = lambda.square() - t.x - q.x;
    let y3 = lambda * (t.x - x3) - t.y;
    *t = G2Affine::new_unchecked(x3, y3);
    coeff
}

/// The slope denominator of `phase` at `t`, chord addends `qs`.
fn denom(t: &G2Affine, qs: &[G2Affine; 3], phase: Phase) -> Fp2 {
    match phase {
        Phase::Tangent => double_denom(t),
        Phase::Chord(k) => add_denom(t, &qs[k]),
    }
}

/// The step of `phase` at `t` given its inverted [`denom`].
fn step(t: &mut G2Affine, qs: &[G2Affine; 3], phase: Phase, inv: &Fp2) -> LineCoeff {
    match phase {
        Phase::Tangent => double_step(t, inv),
        Phase::Chord(k) => add_step(t, &qs[k], inv),
    }
}

/// `f` times a recorded line evaluated at the embedded G1 point
/// `(px, py)`, without expanding the line (coefficient placement:
/// `1 → c0.c0`, `w² = v → c0.c1`, `w → c1.c0`, `w³ = v·w → c1.c1`).
fn mul_by_line_at(f: &Fp12, coeff: &LineCoeff, px: Fq, py: Fq) -> Fp12 {
    match coeff {
        LineCoeff::Line { lambda, intercept } => f.mul_by_line(py, -lambda.scale(px), *intercept),
        // px − x'·v lies in Fp6: both halves of f take the same sparse
        // Fp6 factor.
        LineCoeff::Vertical { x } => {
            let (a, b) = (Fp2::from_base(px), -*x);
            Fp12::new(f.c0.mul_by_01(a, b), f.c1.mul_by_01(a, b))
        }
        LineCoeff::One => *f,
    }
}

/// A twist point in homogeneous projective coordinates: `(x, y) = (X/Z,
/// Y/Z)`, and `Z = 0` is the point at infinity.
#[derive(Copy, Clone, Debug)]
struct Homogeneous {
    x: Fp2,
    y: Fp2,
    z: Fp2,
}

/// The line of a [`Homogeneous`] step: the [`LineCoeff`] the affine step
/// returns, times a nonzero scale `s` — the coefficient the affine line
/// has as 1.
#[derive(Copy, Clone, Debug)]
enum ScaledLine {
    /// `s·py + a·px·w + b·w³`, a tangent or chord.
    Line { s: Fp2, a: Fp2, b: Fp2 },
    /// `s·px − x·v`, the vertical line.
    Vertical { s: Fp2, x: Fp2 },
    /// The neutral factor, scale 1.
    One,
}

impl ScaledLine {
    /// The factor between this line and the affine one.
    fn scale(&self) -> Fp2 {
        match self {
            ScaledLine::Line { s, .. } | ScaledLine::Vertical { s, .. } => *s,
            ScaledLine::One => Fp2::one(),
        }
    }
}

impl Homogeneous {
    fn from_affine(q: &G2Affine) -> Self {
        if q.is_identity() {
            Homogeneous::identity()
        } else {
            Homogeneous {
                x: q.x,
                y: q.y,
                z: Fp2::one(),
            }
        }
    }

    fn identity() -> Self {
        Homogeneous {
            x: Fp2::zero(),
            y: Fp2::one(),
            z: Fp2::zero(),
        }
    }

    /// The same point as `q`.
    fn equals(&self, q: &G2Affine) -> bool {
        if q.is_identity() {
            return self.z.is_zero();
        }
        !self.z.is_zero() && self.x == q.x * self.z && self.y == q.y * self.z
    }

    /// Tangent step `T ← 2T` (Costello–Lange–Naehrig, `a = 0`): with
    /// `H = 2YZ` and `E = 3b'Z²` the line is [`double_step`]'s times
    /// `−2YZ`. Its `w³` coefficient `E − Y²` uses `Y²Z = X³ + b'Z³`, so
    /// `T` must lie on the twist.
    fn double_step(&mut self) -> ScaledLine {
        if self.z.is_zero() {
            return ScaledLine::One;
        }
        let Homogeneous { x, y, z } = *self;
        let yy = y.square();
        let zz = z.square();
        let e = (zz.double() + zz) * G2Params::b();
        let f = e.double() + e;
        let h = (y + z).square() - yy - zz;
        let xx = x.square();
        let line = ScaledLine::Line {
            s: -h,
            a: xx.double() + xx,
            b: e - yy,
        };
        // The CLN point formulas times 4, which spares the halvings.
        let ee = e.square();
        self.x = (x * y).double() * (yy - f);
        self.y = (yy + f).square() - (ee.double() + ee).double().double();
        self.z = (yy * h).double().double();
        line
    }

    /// Chord step `T ← T + q`, `q` affine and not at infinity: with
    /// `θ = Y − qy·Z` and `λ = X − qx·Z` the line is [`add_step`]'s times
    /// `λ`. The identity, doubling and cancellation cases follow the group
    /// law as [`add_step`] does, the vertical line scaled by `Z`.
    fn add_step(&mut self, q: &G2Affine) -> ScaledLine {
        if self.z.is_zero() {
            *self = Homogeneous::from_affine(q);
            return ScaledLine::One;
        }
        let theta = self.y - q.y * self.z;
        let lambda = self.x - q.x * self.z;
        if lambda.is_zero() {
            if theta.is_zero() {
                return self.double_step();
            }
            let line = ScaledLine::Vertical {
                s: self.z,
                x: self.x,
            };
            *self = Homogeneous::identity();
            return line;
        }
        let line = ScaledLine::Line {
            s: lambda,
            a: -theta,
            b: theta * q.x - lambda * q.y,
        };
        let ll = lambda.square();
        let lll = lambda * ll;
        let g = self.x * ll;
        let h = lll + self.z * theta.square() - g.double();
        self.y = theta * (g - h) - lll * self.y;
        self.x = lambda * h;
        self.z *= lll;
        line
    }
}

/// `f` times a [`ScaledLine`] evaluated at `(px, py)`:
/// [`Fp12::mul_by_line`]'s Karatsuba with the constant coefficient in Fp2.
fn mul_by_scaled_line_at(f: &Fp12, line: &ScaledLine, px: Fq, py: Fq) -> Fp12 {
    match line {
        ScaledLine::Line { s, a, b } => {
            let (c, a) = (s.scale(py), a.scale(px));
            let v0 = f.c0.scale(c);
            let v1 = f.c1.mul_by_01(a, *b);
            let sum = (f.c0 + f.c1).mul_by_01(a + c, *b);
            Fp12::new(v0 + v1.mul_by_v(), sum - v0 - v1)
        }
        ScaledLine::Vertical { s, x } => {
            let (a, b) = (s.scale(px), -*x);
            Fp12::new(f.c0.mul_by_01(a, b), f.c1.mul_by_01(a, b))
        }
        ScaledLine::One => *f,
    }
}

/// Precomputed Miller-loop line coefficients for a fixed G2 point.
///
/// Replaying the stored `(λ', λ'·x' − y')` pairs costs no G2 arithmetic
/// and no field inversions, so pairings against fixed points (the `γ`/`δ`
/// elements of a Groth16 verifying key) skip the accumulator work
/// entirely. 102 coefficients of two Fp2 elements each ≈ 13.5 KiB per point.
#[derive(Clone, Debug)]
pub struct G2Prepared {
    coeffs: Vec<LineCoeff>,
    infinity: bool,
}

impl G2Prepared {
    /// Runs the ate-loop schedule once for `q`, recording every line.
    pub fn new(q: &G2Affine) -> Self {
        if q.is_identity() {
            return G2Prepared {
                coeffs: Vec::new(),
                infinity: true,
            };
        }
        let mut t = *q;
        let targets = addends(q);
        let coeffs = schedule()
            .map(|phase| {
                let inv = denom(&t, &targets, phase)
                    .inverse()
                    .expect("no 2-torsion on the twist, and a placeholder is 1");
                step(&mut t, &targets, phase, &inv)
            })
            .collect();
        G2Prepared {
            coeffs,
            infinity: false,
        }
    }
}

impl From<&G2Affine> for G2Prepared {
    fn from(q: &G2Affine) -> Self {
        G2Prepared::new(q)
    }
}

/// A prepared pair inside the loop: the embedded G1 coordinates and the
/// recorded lines.
type PreparedPair<'a> = (Fq, Fq, &'a G2Prepared);

/// A dynamic pair's loop state: its position in the caller's slice, the
/// embedded G1 coordinates, the original G2 point, the running accumulator,
/// whether it left the lanes for the scalar steps (module docs, "Lanes")
/// and — when the caller asked for them — the lines computed so far.
struct DynPair {
    index: usize,
    px: Fq,
    py: Fq,
    q: G2Affine,
    t: G2Affine,
    evicted: bool,
    lines: Option<Vec<LineCoeff>>,
}

/// What [`miller_loop_traced`] learned on the way to the product.
#[derive(Clone, Debug)]
pub struct LoopTrace {
    /// The product of the loops over *every* pair — a meaningless value
    /// when `outside_g2` is not empty (module docs, "G2 membership").
    pub product: Fp12,
    /// Positions in `dynamic` whose G2 point is outside the order-`r`
    /// subgroup, ascending.
    pub outside_g2: Vec<usize>,
    /// When recording was asked for: the lines of `dynamic[i].1`, position
    /// for position, ready to be replayed as a prepared pair. Empty
    /// otherwise.
    pub lines: Vec<G2Prepared>,
}

/// Product of Miller loops over `dynamic` (fresh G2 points) and `prepared`
/// (fixed G2 points with recorded lines) pairs, *without* the final
/// exponentiation.
///
/// The pairs are split into at most [`waku_pool::current_num_threads`]
/// contiguous chunks, one pool task each (see the module docs); within a
/// chunk all pairs advance in lock-step under one `f`-squaring chain, a
/// lane vector at a time, so each doubling/addition phase needs a single
/// scalar inversion — the marginal pairing cost of one more pair is
/// roughly its share of a lane vector's line arithmetic (a chunk of a few
/// pairs steps projectively and inverts once, module docs).
/// The value does not depend on the pool size. Pairs with an identity
/// element on either side are skipped (contribute the neutral factor 1).
///
/// Returns `Fp12::zero()` — which no loop over G2 points produces and
/// [`final_exponentiation`] maps to `None` — when a dynamic G2 point lies
/// outside the order-`r` subgroup (module docs, "G2 membership").
pub fn miller_loop_mixed(
    dynamic: &[(G1Affine, G2Affine)],
    prepared: &[(G1Affine, &G2Prepared)],
) -> Fp12 {
    let trace = miller_loop_traced(dynamic, prepared, false, waku_pool::current_num_threads());
    if trace.outside_g2.is_empty() {
        trace.product
    } else {
        Fp12::zero()
    }
}

/// Cost of a dynamic pair relative to [`REPLAY_COST`] when the loop
/// balances its chunks: a replayed pair does the line products only.
/// Measured on the IFMA lanes, one thread, as the time 32 more pairs add
/// to a 32-pair chunk: a dynamic pair 1.15–1.48× a replayed one over
/// three runs (2-vCPU VM, best of 9).
const DYNAMIC_COST: usize = 4;
/// See [`DYNAMIC_COST`].
const REPLAY_COST: usize = 3;

/// A chunk with fewer dynamic pairs than this that records no lines runs
/// [`Homogeneous`] steps instead of the lane chunk's affine ones, on a
/// body `width` lanes wide: the per-phase inversion, and on the lanes the
/// wider accumulator's squaring, cost the same for one pair as for 32,
/// the projective steps' extra products grow with the pairs. Measured
/// projective ÷ lane-chunk time of one chunk beside 2 replays (2-vCPU VM,
/// one thread, best of 9; two runs where they differ):
///
/// | pairs | 1 | 2 | 3 | 4 | 5 | 6 | 8 | 12 | 16 | 20 | 24 | 32 |
/// |---|---|---|---|---|---|---|---|---|---|---|---|---|
/// | IFMA | 0.42 | 0.63 | 0.76–0.86 | 0.78–1.12 | 1.13 | 1.33–1.52 | 1.64–1.80 | 1.93–2.05 | | | | 2.95–3.74 |
/// | portable | 0.50 | 0.58 | 0.63 | 0.69 | 0.74 | 0.75 | 0.85 | 0.86 | 0.93 | 1.00 | 0.98 | 1.04–1.08 |
///
/// A lone pair with no replays, a single verification's: 0.29–0.33× on
/// IFMA, 0.39× portable.
const fn projective_below(width: usize) -> usize {
    if width == 1 {
        20
    } else {
        5
    }
}

/// A chunk of replays alone runs them on the lanes from this many on,
/// with fewer on one scalar accumulator: replay-only scalar ÷ lane time
/// on IFMA (as above) 0.49× for 1, 0.76–0.79× for 2, 1.19–1.54× for 3,
/// 1.50–1.77× for 4.
const LANE_REPLAYS_FROM: usize = 3;

/// [`miller_loop_mixed`] that also says *which* dynamic G2 points failed
/// the membership test, can hand back the lines it computed for each
/// dynamic pair (`record`), and fans out into at most `fan_out` pool
/// tasks (a caller that already runs several loops side by side passes
/// its share of the pool).
///
/// Recording rides on the same lock-step pass: a dynamic pair's lines are
/// pushed as they are multiplied in, so a later loop can replay the pair
/// through `prepared` with no G2 arithmetic and no inversion. A replayed
/// pair has no accumulator, so its membership is *not* tested again —
/// replay only lines whose recording pass reported the point inside G2.
pub fn miller_loop_traced(
    dynamic: &[(G1Affine, G2Affine)],
    prepared: &[(G1Affine, &G2Prepared)],
    record: bool,
    fan_out: usize,
) -> LoopTrace {
    traced_loop(dynamic, prepared, record, fan_out, miller_loop_chunk)
}

/// The loop over one chunk's pairs: its product and the positions of the
/// dynamic pairs whose G2 point failed the membership test.
type ChunkLoop = fn(&mut Chunk) -> (Fp12, Vec<usize>);

/// [`miller_loop_traced`] with each chunk run by `chunk_loop`.
fn traced_loop(
    dynamic: &[(G1Affine, G2Affine)],
    prepared: &[(G1Affine, &G2Prepared)],
    record: bool,
    fan_out: usize,
    chunk_loop: ChunkLoop,
) -> LoopTrace {
    let mut dyns: Vec<DynPair> = dynamic
        .iter()
        .enumerate()
        .filter(|(_, (p, q))| !p.is_identity() && !q.is_identity())
        .map(|(index, (p, q))| DynPair {
            index,
            px: p.x,
            py: p.y,
            q: *q,
            t: *q,
            evicted: false,
            lines: record.then(|| Vec::with_capacity(LINES_PER_POINT)),
        })
        .collect();
    let preps: Vec<PreparedPair> = prepared
        .iter()
        .filter(|(p, prep)| !p.is_identity() && !prep.infinity)
        .map(|(p, prep)| (p.x, p.y, *prep))
        .collect();

    // Cut `dyns ++ preps` into at most `fan_out` contiguous chunks of
    // near-equal cost: a pair belongs to the chunk its cost midpoint falls
    // in, which is monotone in the pair's position.
    let fan_out = fan_out.max(1);
    let total = (DYNAMIC_COST * dyns.len() + REPLAY_COST * preps.len()).max(1);
    let mut sizes = vec![(0usize, 0usize); fan_out];
    let mut before = 0;
    for _ in 0..dyns.len() {
        sizes[(2 * before + DYNAMIC_COST) * fan_out / (2 * total)].0 += 1;
        before += DYNAMIC_COST;
    }
    for _ in 0..preps.len() {
        sizes[(2 * before + REPLAY_COST) * fan_out / (2 * total)].1 += 1;
        before += REPLAY_COST;
    }
    let (mut dyn_rest, mut prep_rest) = (&mut dyns[..], &preps[..]);
    let mut tasks: Vec<Chunk> = Vec::with_capacity(fan_out);
    for (n_dyn, n_prep) in sizes {
        if n_dyn + n_prep == 0 {
            continue;
        }
        let (dyns, rest) = std::mem::take(&mut dyn_rest).split_at_mut(n_dyn);
        let (preps, rest_preps) = prep_rest.split_at(n_prep);
        (dyn_rest, prep_rest) = (rest, rest_preps);
        tasks.push(Chunk { dyns, preps });
    }

    // The calling thread runs the first chunk itself, like `join`.
    let mut partials = vec![(Fp12::one(), Vec::new()); tasks.len()];
    waku_pool::scope(|s| {
        let mut work = tasks.iter_mut().zip(partials.iter_mut());
        let first = work.next();
        for (chunk, slot) in work {
            s.spawn(move || *slot = chunk_loop(chunk));
        }
        if let Some((chunk, slot)) = first {
            *slot = chunk_loop(chunk);
        }
    });
    let mut product = Fp12::one();
    let mut outside_g2 = Vec::new();
    for (part, outside) in partials {
        product *= part;
        outside_g2.extend(outside);
    }

    let lines = if record {
        let mut recorded = dyns.into_iter().peekable();
        dynamic
            .iter()
            .enumerate()
            .map(|(i, (_, q))| match recorded.next_if(|d| d.index == i) {
                Some(d) => G2Prepared {
                    coeffs: d.lines.expect("recording was requested"),
                    infinity: false,
                },
                // The loop skipped this pair (identity on one side).
                None => G2Prepared::new(q),
            })
            .collect()
    } else {
        Vec::new()
    };
    LoopTrace {
        product,
        outside_g2,
        lines,
    }
}

/// One pool task's share of a mixed loop, identity pairs already removed.
struct Chunk<'a> {
    dyns: &'a mut [DynPair],
    preps: &'a [PreparedPair<'a>],
}

/// One lock-step Miller loop under a shared squaring chain. Returns the
/// chunk's product and the positions of the dynamic pairs whose G2 point
/// failed the membership test.
fn miller_loop_chunk(chunk: &mut Chunk) -> (Fp12, Vec<usize>) {
    let Chunk { dyns, preps } = chunk;
    // The projective tangent uses the curve equation, so every Q must be
    // on the twist: every snark entry point has checked that already, the
    // repeat costs ≈ 3 Fp2 operations per pair.
    if (1..projective_below(with_lanes(LaneWidth))).contains(&dyns.len())
        && dyns.iter().all(|d| d.lines.is_none() && d.q.is_on_curve())
    {
        projective_chunk(dyns, preps)
    } else if dyns.is_empty() && preps.len() < LANE_REPLAYS_FROM {
        (replay_chunk(preps), Vec::new())
    } else {
        with_lanes(LaneChunk { dyns, preps })
    }
}

/// `f` times the prepared pairs' lines at schedule position `cursor`.
fn replay(f: Fp12, preps: &[PreparedPair], cursor: usize) -> Fp12 {
    preps.iter().fold(f, |f, (px, py, prep)| {
        mul_by_line_at(&f, &prep.coeffs[cursor], *px, *py)
    })
}

/// A chunk of too few replays to pay for a lane accumulator's squarings:
/// one scalar accumulator.
fn replay_chunk(preps: &[PreparedPair]) -> Fp12 {
    let mut f = Fp12::one();
    for (cursor, phase) in schedule().enumerate() {
        if let Phase::Tangent = phase {
            f = f.square();
        }
        f = replay(f, preps, cursor);
    }
    f
}

/// The width of the lane body [`with_lanes`] picks on this CPU.
struct LaneWidth;

impl LaneTask for LaneWidth {
    type Output = usize;

    #[inline(always)]
    fn run<B: LaneBody>(self, _: B) -> usize {
        B::WIDTH
    }
}

/// A chunk's pairs for [`with_lanes`] to run a [`LaneLoop`] over.
struct LaneChunk<'c, 'a> {
    dyns: &'c mut [DynPair],
    preps: &'c [PreparedPair<'a>],
}

impl LaneTask for LaneChunk<'_, '_> {
    type Output = (Fp12, Vec<usize>);

    #[inline(always)]
    fn run<B: LaneBody>(self, body: B) -> Self::Output {
        let mut chunk = LaneLoop::new(body, self.dyns, self.preps);
        for (cursor, phase) in schedule().enumerate() {
            chunk.step(cursor, phase);
        }
        chunk.finish()
    }
}

/// A vector's entry in [`LaneLoop`]'s chain buffer: the product of the
/// earlier vectors' denominator norms (after the backward pass, this
/// vector's norm inverses), and this vector's norms. Scalar elements, as
/// in [`crate::msm`]'s batch-affine round.
type Chain<B> = (<B as LaneBody>::Array<Fq>, <B as LaneBody>::Array<Fq>);

/// One lane's line at one step, `c + a·w + b·w³` (the factor
/// [`Fp12::mul_by_line`] takes): [`LaneLoop`] keeps a step's lines as
/// these, a vector at a time.
type Line = (Fq, Fp2, Fp2);

/// Appends one vector's lines to `lines`.
#[inline(always)]
fn push_lines<B: LaneBody>(
    lines: &mut Vec<Line>,
    c: FqLanes<B>,
    a: Fp2Over<FqLanes<B>>,
    b: Fp2Over<FqLanes<B>>,
) {
    let (c, a, b) = (c.scatter(), Fp2::scatter(a), Fp2::scatter(b));
    lines.extend((0..B::WIDTH).map(|i| (c.as_ref()[i], a.as_ref()[i], b.as_ref()[i])));
}

/// Squares the lanes' accumulators `f`, one per lane. A lane task of its
/// own, as [`MulLines`] is, so that each runs in a function of its own:
/// an Fp12 lane operation is ≈ 10 000 instructions, and LLVM's time on a
/// function grows faster than its length (the square, the line product
/// and the steps in one function took minutes to compile).
struct SquareLanes<'a>(&'a mut [Fp12]);

impl LaneTask for SquareLanes<'_> {
    type Output = ();

    #[inline(always)]
    fn run<B: LaneBody>(self, body: B) {
        let f = Fp12::gather(body, B::array(|i| &self.0[i]));
        self.0.copy_from_slice(Fp12::scatter(f.square()).as_ref());
    }
}

/// Multiplies every vector of `lines` into the lanes' accumulators.
struct MulLines<'a> {
    acc: &'a mut [Fp12],
    lines: &'a [Line],
}

impl LaneTask for MulLines<'_> {
    type Output = ();

    #[inline(always)]
    fn run<B: LaneBody>(self, body: B) {
        let mut f = Fp12::gather(body, B::array(|i| &self.acc[i]));
        for v in self.lines.chunks(B::WIDTH) {
            f = f.mul_by_line(
                Fq::gather(body, B::array(|i| &v[i].0)),
                Fp2::gather(body, B::array(|i| &v[i].1)),
                Fp2::gather(body, B::array(|i| &v[i].2)),
            );
        }
        self.acc.copy_from_slice(Fp12::scatter(f).as_ref());
    }
}

/// Which lanes of a vector hold a pair that is still on the lanes: not
/// past the chunk's last pair, not evicted.
#[inline(always)]
fn live_lanes<B: LaneBody>(pairs: &[DynPair]) -> B::Array<bool> {
    B::array(|i| pairs.get(i).is_some_and(|d| !d.evicted))
}

/// `coord(i)` in each `live` lane `i`, `fill` in the others.
#[inline(always)]
fn gather_live<'a, B: LaneBody, F: LaneField>(
    body: B,
    live: &B::Array<bool>,
    coord: impl Fn(usize) -> &'a F,
    fill: &'a F,
) -> F::Lanes<B> {
    let live = live.as_ref();
    F::gather(body, B::array(|i| if live[i] { coord(i) } else { fill }))
}

/// The lock-step loop on lane body `B` (module docs, "Lanes"): the
/// dynamic pairs, then the prepared ones, `B::WIDTH` at a time, one pair
/// per lane, every vector's lines multiplied into one accumulator per
/// lane; one scalar inversion per phase. A dead lane — past the last
/// pair, evicted, or a replayed line that is not a plain one — holds
/// `T = (0, 0)`, `P = (0, 1)` and the denominator norm 1, so its slope is
/// 0 and its line the factor 1.
struct LaneLoop<'c, 'a, B: LaneBody> {
    body: B,
    dyns: &'c mut [DynPair],
    preps: &'c [PreparedPair<'a>],
    /// Each dynamic pair's chord addends.
    targets: Vec<[G2Affine; 3]>,
    /// One accumulator per lane, held as scalar elements between the
    /// squarings and the line products (see [`SquareLanes`]).
    acc: B::Array<Fp12>,
    /// The evicted pairs' lines and the replays' vertical ones, squared on
    /// the same chain; it joins at 1 with its first line.
    side: Option<Fp12>,
    /// Positions in `dyns` of the evicted pairs.
    evicted: Vec<usize>,
    // Buffers reused by every phase.
    chains: Vec<Chain<B>>,
    invs: Vec<Fq>,
    lines: Vec<Line>,
}

impl<'c, 'a, B: LaneBody> LaneLoop<'c, 'a, B> {
    #[inline(always)]
    fn new(body: B, dyns: &'c mut [DynPair], preps: &'c [PreparedPair<'a>]) -> Self {
        LaneLoop {
            body,
            targets: dyns.iter().map(|d| addends(&d.q)).collect(),
            chains: Vec::with_capacity(dyns.len().div_ceil(B::WIDTH)),
            dyns,
            preps,
            acc: B::array(|_| Fp12::one()),
            side: None,
            evicted: Vec::new(),
            invs: Vec::new(),
            lines: Vec::new(),
        }
    }

    /// One phase of the schedule, at position `cursor`.
    #[inline(always)]
    fn step(&mut self, cursor: usize, phase: Phase) {
        if let Phase::Tangent = phase {
            self.body.run(SquareLanes(self.acc.as_mut()));
            self.side = self.side.map(|f| f.square());
        }
        self.lines.clear();
        if !self.dyns.is_empty() {
            self.invert_denominators(phase);
            self.dynamic_steps(phase);
        }
        self.replayed_lines(cursor);
        self.body.run(MulLines {
            acc: self.acc.as_mut(),
            lines: &self.lines,
        });
    }

    /// Every dynamic pair's slope denominator inverted, in three passes:
    /// the norms on `B::WIDTH` prefix-product chains, one scalar inversion
    /// of the chain totals and the evicted pairs' norms, and a backward
    /// pass that leaves each vector's norm inverses in `chains`. A zero
    /// norm — `T.x = Q.x` on a chord — zeroes its chain's total; its pair
    /// is evicted and the first pass runs again.
    #[inline(always)]
    fn invert_denominators(&mut self, phase: Phase) {
        let (body, zero, one, zero2) = (self.body, Fq::zero(), Fq::one(), Fp2::zero());
        let totals = loop {
            self.chains.clear();
            let mut chain = FqLanes::splat(body, &one);
            for (pairs, qs) in self
                .dyns
                .chunks(B::WIDTH)
                .zip(self.targets.chunks(B::WIDTH))
            {
                let live = live_lanes::<B>(pairs);
                let d = match phase {
                    Phase::Tangent => {
                        gather_live::<B, Fp2>(body, &live, |i| &pairs[i].t.y, &zero2).double()
                    }
                    Phase::Chord(k) => {
                        gather_live::<B, Fp2>(body, &live, |i| &qs[i][k].x, &zero2)
                            - gather_live::<B, Fp2>(body, &live, |i| &pairs[i].t.x, &zero2)
                    }
                };
                let mut norm = d.norm();
                if live.as_ref().contains(&false) {
                    norm = norm + gather_live::<B, Fq>(body, &live, |_| &zero, &one);
                }
                self.chains.push((chain.scatter(), norm.scatter()));
                chain = chain * norm;
            }
            let totals = chain.scatter();
            if !totals.as_ref().contains(&zero) {
                break totals;
            }
            let norms = self.chains.iter().flat_map(|(_, norms)| norms.as_ref());
            for (e, _) in norms.enumerate().filter(|(_, n)| n.is_zero()) {
                self.dyns[e].evicted = true;
                self.evicted.push(e);
            }
        };
        self.invs.clear();
        self.invs.extend_from_slice(totals.as_ref());
        let (dyns, targets) = (&self.dyns, &self.targets);
        let norms = self
            .evicted
            .iter()
            .map(|&e| denom(&dyns[e].t, &targets[e], phase).norm());
        self.invs.extend(norms);
        batch_inverse_in_place(&mut self.invs);
        // Last vector first: `chain_inv` inverts this and every earlier
        // vector's norms, so `chain_inv · earlier` inverts this vector's;
        // they replace `earlier`.
        let mut chain_inv = Fq::load_slice(body, &self.invs);
        for (earlier, norm) in self.chains.iter_mut().rev() {
            let norm_inv = chain_inv * FqLanes::load(body, earlier);
            chain_inv = chain_inv * FqLanes::load(body, norm);
            *earlier = norm_inv.scatter();
        }
    }

    /// The dynamic pairs' steps: each vector's on the lanes, its line into
    /// `lines`; the evicted pairs' scalar ones, their lines into the side.
    #[inline(always)]
    fn dynamic_steps(&mut self, phase: Phase) {
        let (body, zero, one, zero2) = (self.body, Fq::zero(), Fq::one(), Fp2::zero());
        let vectors = self
            .dyns
            .chunks_mut(B::WIDTH)
            .zip(self.targets.chunks(B::WIDTH));
        for ((pairs, qs), (norm_inv, _)) in vectors.zip(&self.chains) {
            let live = live_lanes::<B>(pairs);
            let norm_inv = FqLanes::load(body, norm_inv);
            let tx = gather_live::<B, Fp2>(body, &live, |i| &pairs[i].t.x, &zero2);
            let ty = gather_live::<B, Fp2>(body, &live, |i| &pairs[i].t.y, &zero2);
            let (lambda, x3) = match phase {
                Phase::Tangent => {
                    let d_inv = ty.double().inverse_from_norm(norm_inv);
                    let xx = tx.square();
                    let lambda = (xx.double() + xx) * d_inv;
                    (lambda, lambda.square() - tx.double())
                }
                Phase::Chord(k) => {
                    let qx = gather_live::<B, Fp2>(body, &live, |i| &qs[i][k].x, &zero2);
                    let qy = gather_live::<B, Fp2>(body, &live, |i| &qs[i][k].y, &zero2);
                    let d_inv = (qx - tx).inverse_from_norm(norm_inv);
                    let lambda = (qy - ty) * d_inv;
                    (lambda, lambda.square() - tx - qx)
                }
            };
            let intercept = lambda * tx - ty;
            let y3 = lambda * (tx - x3) - ty;
            let px = gather_live::<B, Fq>(body, &live, |i| &pairs[i].px, &zero);
            let py = gather_live::<B, Fq>(body, &live, |i| &pairs[i].py, &one);
            push_lines(&mut self.lines, py, -lambda.scale(px), intercept);
            let (x3, y3) = (Fp2::scatter(x3), Fp2::scatter(y3));
            let record = pairs[0].lines.is_some();
            let coeffs = record.then(|| (Fp2::scatter(lambda), Fp2::scatter(intercept)));
            for (i, d) in pairs.iter_mut().enumerate() {
                if !live.as_ref()[i] {
                    continue;
                }
                d.t = G2Affine::new_unchecked(x3.as_ref()[i], y3.as_ref()[i]);
                if let (Some(lines), Some((lambdas, intercepts))) = (&mut d.lines, &coeffs) {
                    lines.push(LineCoeff::Line {
                        lambda: lambdas.as_ref()[i],
                        intercept: intercepts.as_ref()[i],
                    });
                }
            }
        }
        for (j, &e) in self.evicted.iter().enumerate() {
            let (d, qs) = (&mut self.dyns[e], &self.targets[e]);
            let inv = denom(&d.t, qs, phase).inverse_from_norm(self.invs[B::WIDTH + j]);
            let coeff = step(&mut d.t, qs, phase, &inv);
            if let Some(lines) = &mut d.lines {
                lines.push(coeff);
            }
            let f = self.side.unwrap_or(Fp12::one());
            self.side = Some(mul_by_line_at(&f, &coeff, d.px, d.py));
        }
    }

    /// The prepared pairs' lines at `cursor`: plain ones on the lanes,
    /// vertical ones into the side (a `One` is the factor 1).
    #[inline(always)]
    fn replayed_lines(&mut self, cursor: usize) {
        let (body, zero, one, zero2) = (self.body, Fq::zero(), Fq::one(), Fp2::zero());
        for group in self.preps.chunks(B::WIDTH) {
            let plain = B::array(|i| match group.get(i).map(|(_, _, p)| &p.coeffs[cursor]) {
                Some(LineCoeff::Line { lambda, intercept }) => Some((lambda, intercept)),
                _ => None,
            });
            let plain = plain.as_ref();
            let live = B::array(|i| plain[i].is_some());
            let lambda = Fp2::gather(body, B::array(|i| plain[i].map_or(&zero2, |(l, _)| l)));
            let intercept = Fp2::gather(body, B::array(|i| plain[i].map_or(&zero2, |(_, b)| b)));
            let px = gather_live::<B, Fq>(body, &live, |i| &group[i].0, &zero);
            let py = gather_live::<B, Fq>(body, &live, |i| &group[i].1, &one);
            push_lines(&mut self.lines, py, -lambda.scale(px), intercept);
            for (px, py, prep) in group {
                if let coeff @ LineCoeff::Vertical { .. } = &prep.coeffs[cursor] {
                    let f = self.side.unwrap_or(Fp12::one());
                    self.side = Some(mul_by_line_at(&f, coeff, *px, *py));
                }
            }
        }
    }

    /// The chunk's product, and the positions of the dynamic pairs whose
    /// G2 point failed the membership test.
    #[inline(always)]
    fn finish(self) -> (Fp12, Vec<usize>) {
        let mut product = self.side.unwrap_or(Fp12::one());
        for lane in self.acc.as_ref() {
            product *= *lane;
        }
        // G2 membership (module docs): T now holds [6x+2]Q + ψ(Q) − ψ²(Q),
        // which is −ψ³(Q) = ψ(Q₂) exactly when Q has order r.
        let outside_g2 = self
            .dyns
            .iter()
            .zip(&self.targets)
            .filter(|(d, qs)| d.t != psi(&qs[2]))
            .map(|(d, _)| d.index)
            .collect();
        (product, outside_g2)
    }
}

/// [`Homogeneous`] steps, no inversion until the end. Every line is the
/// affine one times its scale, so `f` runs ahead of the affine loop's by
/// the product `S` of the scales under the same squaring chain; one Fp2
/// inversion at the end returns the affine loop's element.
fn projective_chunk(dyns: &[DynPair], preps: &[PreparedPair]) -> (Fp12, Vec<usize>) {
    let targets: Vec<[G2Affine; 3]> = dyns.iter().map(|d| addends(&d.q)).collect();
    let mut ts: Vec<Homogeneous> = dyns
        .iter()
        .map(|d| Homogeneous::from_affine(&d.q))
        .collect();
    let (mut f, mut scale) = (Fp12::one(), Fp2::one());
    for (cursor, phase) in schedule().enumerate() {
        if let Phase::Tangent = phase {
            f = f.square();
            scale = scale.square();
        }
        for ((t, d), qs) in ts.iter_mut().zip(dyns).zip(&targets) {
            let line = match phase {
                Phase::Tangent => t.double_step(),
                Phase::Chord(i) => t.add_step(&qs[i]),
            };
            scale *= line.scale();
            f = mul_by_scaled_line_at(&f, &line, d.px, d.py);
        }
        f = replay(f, preps, cursor);
    }
    // The lane chunk's membership comparison, X = x·Z and Y = y·Z.
    let outside_g2 = dyns
        .iter()
        .zip(&ts)
        .zip(&targets)
        .filter(|((_, t), qs)| !t.equals(&psi(&qs[2])))
        .map(|((d, _), _)| d.index)
        .collect();
    // On the twist no scale is zero: `Y = 0` is 2-torsion, which it lacks.
    let inv = scale
        .inverse()
        .expect("line scales are nonzero on the twist");
    (Fp12::new(f.c0.scale(inv), f.c1.scale(inv)), outside_g2)
}

/// Product of Miller loops `∏ f_{6x+2, Qᵢ}(Pᵢ) · (frobenius line steps)`,
/// *without* the final exponentiation: [`miller_loop_mixed`] with no
/// prepared pairs.
pub fn miller_loop(pairs: &[(G1Affine, G2Affine)]) -> Fp12 {
    miller_loop_mixed(pairs, &[])
}

/// Easy part `f ↦ f^((p⁶−1)(p²+1))`: `conj(f)·f⁻¹`, then `^(p²+1)` by one
/// Frobenius. The image is the cyclotomic subgroup. `None` for zero.
fn easy_part(f: &Fp12) -> Option<Fp12> {
    let f1 = f.conjugate() * f.inverse()?;
    Some(f1.frobenius_map(2) * f1)
}

/// Hard part `f ↦ f^((p⁴−p²+1)/r)` for `f` in the cyclotomic subgroup, by
/// the exact base-`p` decomposition in the module docs. Every inverse is
/// a conjugation and every squaring a cyclotomic one.
fn hard_part(f: &Fp12) -> Fp12 {
    let fx = f.cyclotomic_pow(&[BN_X]);
    let fx2 = fx.cyclotomic_pow(&[BN_X]);
    let fx3 = fx2.cyclotomic_pow(&[BN_X]);
    // Exponent = y0 + 2·y1 + 6·y2 + 12·y3 + 18·y4 + 30·y5 + 36·y6 with
    //   y0 = p + p² + p³   y1 = −1        y2 = x²p²      y3 = −xp
    //   y4 = −(x + x²p)    y5 = −x²       y6 = −(x³ + x³p).
    let y0 = f.frobenius_map(1) * f.frobenius_map(2) * f.frobenius_map(3);
    let y1 = f.conjugate();
    let y2 = fx2.frobenius_map(2);
    let y3 = fx.frobenius_map(1).conjugate();
    let y4 = (fx * fx2.frobenius_map(1)).conjugate();
    let y5 = fx2.conjugate();
    let y6 = (fx3 * fx3.frobenius_map(1)).conjugate();
    // Vectorial addition chain for (1, 2, 6, 12, 18, 30, 36).
    let mut t0 = y6.cyclotomic_square() * y4 * y5;
    let mut t1 = y3 * y5 * t0;
    t0 *= y2;
    t1 = (t1.cyclotomic_square() * t0).cyclotomic_square();
    t0 = t1 * y1;
    t1 *= y0;
    t0.cyclotomic_square() * t1
}

/// Final exponentiation `f ↦ f^((p¹²−1)/r)`.
///
/// Returns `None` if `f` is zero, which is how [`miller_loop_mixed`]
/// reports a G2 point outside the subgroup.
pub fn final_exponentiation(f: &Fp12) -> Option<Fp12> {
    Some(hard_part(&easy_part(f)?))
}

/// The full optimal ate pairing `e: G1 × G2 → μ_r ⊂ Fp12`.
///
/// # Panics
///
/// Panics if `q` is on the twist but outside G2 (the pairing is not
/// defined there; [`miller_loop`] + [`final_exponentiation`] report it as
/// `None` instead).
///
/// # Examples
///
/// ```
/// use waku_curve::{g1::G1Affine, g2::G2Affine, pairing::pairing};
/// use waku_arith::traits::Field;
/// let e = pairing(&G1Affine::generator(), &G2Affine::generator());
/// assert!(!e.is_zero());
/// ```
pub fn pairing(p: &G1Affine, q: &G2Affine) -> Fp12 {
    multi_pairing(&[(*p, *q)])
}

/// Product of pairings `∏ e(Pᵢ, Qᵢ)` sharing a single final exponentiation
/// (the shape Groth16 verification needs).
///
/// # Panics
///
/// Panics if a G2 point is outside the order-`r` subgroup, like
/// [`pairing`].
pub fn multi_pairing(pairs: &[(G1Affine, G2Affine)]) -> Fp12 {
    final_exponentiation(&miller_loop(pairs)).expect("every G2 point has order r")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp6::Fp6;
    use crate::g1::G1Projective;
    use crate::g2::G2Projective;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use waku_arith::biguint::BigUint;
    use waku_arith::fields::Fr;
    use waku_arith::fp::Portable;
    use waku_arith::traits::PrimeField;

    /// The hard-part exponent `(p⁴ − p² + 1) / r` as limbs — the oracle
    /// for [`hard_part`]: a plain [`Field::pow`] over these 762 bits is
    /// what the final exponentiation used to run.
    fn hard_part_exponent() -> Vec<u64> {
        let p = BigUint::from_limbs(&<Fq as PrimeField>::MODULUS);
        let r = BigUint::from_limbs(&<Fr as PrimeField>::MODULUS);
        let num = p.pow(4).sub(&p.pow(2)).add(&BigUint::one());
        let (q, rem) = num.div_rem(&r);
        assert!(rem.is_zero(), "BN identity: r | p⁴ − p² + 1");
        q.limbs().to_vec()
    }

    /// Dense expansion of a recorded line at `(px, py)` — the oracle for
    /// [`mul_by_line_at`].
    fn eval_line(coeff: &LineCoeff, px: Fq, py: Fq) -> Fp12 {
        match coeff {
            LineCoeff::Line { lambda, intercept } => Fp12::new(
                Fp6::from_fp2(Fp2::from_base(py)),
                Fp6::new(-lambda.scale(px), *intercept, Fp2::zero()),
            ),
            LineCoeff::Vertical { x } => {
                Fp12::from_fp6(Fp6::new(Fp2::from_base(px), -*x, Fp2::zero()))
            }
            LineCoeff::One => Fp12::one(),
        }
    }

    /// Reference Miller loop: one pair at a time, its own inversions (via
    /// [`G2Prepared::new`]), every line expanded and multiplied in with
    /// the dense `Fp12` product. Squaring is multiplicative, so the
    /// product of separate loops equals the shared-chain loop exactly.
    fn miller_loop_dense_reference(pairs: &[(G1Affine, G2Affine)]) -> Fp12 {
        let loop_bits = 128 - ATE_LOOP_COUNT.leading_zeros();
        let mut acc = Fp12::one();
        for (p, q) in pairs {
            if p.is_identity() || q.is_identity() {
                continue;
            }
            let prep = G2Prepared::new(q);
            let mut lines = prep.coeffs.iter().map(|c| eval_line(c, p.x, p.y));
            let mut f = Fp12::one();
            for i in (0..loop_bits - 1).rev() {
                f = f.square() * lines.next().unwrap();
                if (ATE_LOOP_COUNT >> i) & 1 == 1 {
                    f *= lines.next().unwrap();
                }
            }
            f *= lines.next().unwrap();
            f *= lines.next().unwrap();
            assert!(lines.next().is_none());
            acc *= f;
        }
        acc
    }

    fn random_pairs(rng: &mut StdRng, n: usize) -> Vec<(G1Affine, G2Affine)> {
        (0..n)
            .map(|_| {
                (
                    G1Projective::generator().mul(Fr::random(rng)).to_affine(),
                    G2Projective::generator().mul(Fr::random(rng)).to_affine(),
                )
            })
            .collect()
    }

    #[test]
    fn hard_part_polynomial_is_the_exact_exponent() {
        // p³ + (6x²+1)p² + (−36x³−18x²−12x+1)p + (−36x³−30x²−18x−2),
        // positive and negative terms gathered separately.
        let n = |v: u64| BigUint::from(v);
        let p = BigUint::from_limbs(&<Fq as PrimeField>::MODULUS);
        let x = n(BN_X);
        let (x2, x3) = (x.mul(&x), x.mul(&x).mul(&x));
        let plus = p
            .pow(3)
            .add(&n(6).mul(&x2).add(&n(1)).mul(&p.pow(2)))
            .add(&p);
        let minus = n(36)
            .mul(&x3)
            .add(&n(18).mul(&x2))
            .add(&n(12).mul(&x))
            .mul(&p)
            .add(&n(36).mul(&x3))
            .add(&n(30).mul(&x2))
            .add(&n(18).mul(&x))
            .add(&n(2));
        assert_eq!(plus.sub(&minus).limbs(), &hard_part_exponent()[..]);
    }

    /// A polynomial coefficient `(negative, magnitude)` reduced mod `m`.
    fn coeff_mod((neg, c): &(bool, BigUint), m: &BigUint) -> BigUint {
        let c = c.rem(m);
        if *neg {
            m.sub(&c).rem(m)
        } else {
            c
        }
    }

    /// `g(at) mod m` for `g` given low-to-high as `(negative, |coeff|)`.
    fn eval_mod(g: &[(bool, BigUint)], at: &BigUint, m: &BigUint) -> BigUint {
        g.iter().rev().fold(BigUint::zero(), |acc, c| {
            acc.mul(at).add(&coeff_mod(c, m)).rem(m)
        })
    }

    /// `gcd(Res(g, χ), n)` for the Frobenius characteristic polynomial
    /// `χ = X² − tX + p`, computed modulo `n` throughout: with `β` a root
    /// of `χ`, Horner over `β² = tβ − p` gives `g(β) = a + bβ`, and the
    /// resultant is its norm `a² + ab·t + b²·p`.
    fn resultant_gcd(g: &[(bool, BigUint)], t: &BigUint, p: &BigUint, n: &BigUint) -> BigUint {
        let (mut a, mut b) = (BigUint::zero(), BigUint::zero());
        for c in g.iter().rev() {
            let c = coeff_mod(c, n);
            // (a + bβ)·β + c = (c − bp) + (a + bt)β
            let bp = b.mul(p).rem(n);
            (a, b) = (c.add(n).sub(&bp).rem(n), a.add(&b.mul(t)).rem(n));
        }
        let norm = a
            .mul(&a)
            .add(&a.mul(&b).mul(t))
            .add(&b.mul(&b).mul(p))
            .rem(n);
        let (mut x, mut y) = (n.clone(), norm);
        while !y.is_zero() {
            (x, y) = (y.clone(), x.rem(&y));
        }
        x
    }

    #[test]
    fn membership_relations_annihilate_exactly_the_r_torsion() {
        // The derivation in the module docs ("G2 membership"), for the
        // relation the loop tests and the two published BN tests.
        let n = |v: u64| BigUint::from(v);
        let p = BigUint::from_limbs(&<Fq as PrimeField>::MODULUS);
        let r = BigUint::from_limbs(&<Fr as PrimeField>::MODULUS);
        let x = n(BN_X);
        let t = n(6).mul(&x).mul(&x).add(&n(1));
        assert_eq!(p.add(&n(1)).sub(&t), r, "#E(Fp) = p + 1 − t = r");
        let twist_order = r.mul(&p.add(&p).sub(&r));
        let pos = |v: BigUint| (false, v);
        let neg = |v: BigUint| (true, v);
        let six_x_2 = n(6).mul(&x).add(&n(2));
        // T = −ψ³(Q):  ψ³ − ψ² + ψ + (6x+2)
        let ate = [pos(six_x_2), pos(n(1)), neg(n(1)), pos(n(1))];
        // ψ(Q) = [6x²]Q:  ψ − 6x²
        let eigen = [neg(n(6).mul(&x).mul(&x)), pos(n(1))];
        // [x+1]Q + ψ([x]Q) + ψ²([x]Q) = ψ³([2x]Q)
        let fuentes = [
            pos(x.add(&n(1))),
            pos(x.clone()),
            pos(x.clone()),
            neg(n(2).mul(&x)),
        ];
        for g in [&ate[..], &eigen[..], &fuentes[..]] {
            // ψ acts as [p] on G2, so the relation must vanish there…
            assert!(eval_mod(g, &p, &r).is_zero());
            // …and only there.
            assert_eq!(resultant_gcd(g, &t, &p, &twist_order), r);
        }
    }

    #[test]
    fn final_exponentiation_matches_generic_ladder() {
        let exp = hard_part_exponent();
        let mut rng = StdRng::seed_from_u64(21);
        let mut inputs: Vec<Fp12> = (0..64).map(|_| Fp12::random(&mut rng)).collect();
        // Real Miller-loop outputs, single and multi-pair.
        let pairs = random_pairs(&mut rng, 4);
        inputs.push(miller_loop(&pairs[..1]));
        inputs.push(miller_loop(&pairs));
        inputs.push(Fp12::one());
        for f in &inputs {
            let oracle = easy_part(f).unwrap().pow(&exp);
            assert_eq!(final_exponentiation(f).unwrap(), oracle);
        }
        assert!(final_exponentiation(&Fp12::zero()).is_none());
    }

    #[test]
    fn sparse_line_product_matches_dense() {
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..8 {
            let f = Fp12::random(&mut rng);
            let (px, py) = (Fq::random(&mut rng), Fq::random(&mut rng));
            let coeffs = [
                LineCoeff::Line {
                    lambda: Fp2::random(&mut rng),
                    intercept: Fp2::random(&mut rng),
                },
                LineCoeff::Vertical {
                    x: Fp2::random(&mut rng),
                },
                LineCoeff::One,
            ];
            for coeff in &coeffs {
                assert_eq!(
                    mul_by_line_at(&f, coeff, px, py),
                    f * eval_line(coeff, px, py),
                    "{coeff:?}"
                );
            }
        }
    }

    #[test]
    fn mixed_miller_loop_matches_dense_reference() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut pairs = random_pairs(&mut rng, 5);
        // Identity on either side contributes the neutral factor.
        pairs.insert(1, (G1Affine::identity(), pairs[0].1));
        pairs.insert(3, (pairs[0].0, G2Affine::identity()));
        let reference = miller_loop_dense_reference(&pairs);
        assert_eq!(miller_loop(&pairs), reference);
        // Any split into dynamic and prepared pairs gives the same value.
        let prepared: Vec<G2Prepared> = pairs.iter().map(|(_, q)| G2Prepared::new(q)).collect();
        for split in 0..=pairs.len() {
            let preps: Vec<(G1Affine, &G2Prepared)> = pairs[split..]
                .iter()
                .zip(&prepared[split..])
                .map(|((p, _), prep)| (*p, prep))
                .collect();
            assert_eq!(
                miller_loop_mixed(&pairs[..split], &preps),
                reference,
                "split = {split}"
            );
        }
        // The Groth16 verifier's shapes: 1 + 2 and 64 + 2.
        for n in [3usize, 66] {
            let pairs = random_pairs(&mut rng, n);
            let (g, d) = (G2Prepared::new(&pairs[0].1), G2Prepared::new(&pairs[1].1));
            assert_eq!(
                miller_loop_mixed(&pairs[2..], &[(pairs[0].0, &g), (pairs[1].0, &d)]),
                miller_loop_dense_reference(&pairs),
                "n = {n}"
            );
        }
    }

    #[test]
    fn traced_loop_records_what_prepare_records_and_replays_it() {
        let mut rng = StdRng::seed_from_u64(24);
        let mut pairs = random_pairs(&mut rng, 7);
        // A pair the loop skips still gets its lines.
        pairs.insert(2, (G1Affine::identity(), pairs[0].1));
        pairs.insert(5, (pairs[0].0, G2Affine::identity()));
        let reference = miller_loop_dense_reference(&pairs);
        for fan_out in [1, 2, 3, 16] {
            let trace = miller_loop_traced(&pairs, &[], true, fan_out);
            assert_eq!(trace.product, reference, "fan_out = {fan_out}");
            assert!(trace.outside_g2.is_empty());
            assert_eq!(trace.lines.len(), pairs.len());
            for ((_, q), lines) in pairs.iter().zip(&trace.lines) {
                let prepared = G2Prepared::new(q);
                assert_eq!(lines.coeffs, prepared.coeffs);
                assert_eq!(lines.infinity, prepared.infinity);
                assert!(q.is_identity() || lines.coeffs.len() == LINES_PER_POINT);
            }
            // Any split into fresh and replayed pairs is the same product,
            // with the replays spread over the tasks like the fresh pairs.
            for split in [0, 3, pairs.len()] {
                let replays: Vec<(G1Affine, &G2Prepared)> = pairs[split..]
                    .iter()
                    .zip(&trace.lines[split..])
                    .map(|((p, _), lines)| (*p, lines))
                    .collect();
                let again = miller_loop_traced(&pairs[..split], &replays, false, fan_out);
                assert_eq!(
                    again.product, reference,
                    "{split} fresh, fan_out = {fan_out}"
                );
                assert!(again.lines.is_empty(), "nothing recorded unless asked");
            }
        }
    }

    #[test]
    fn values_unchanged_from_the_generic_kernels() {
        // Canonical limbs of the first Fq coefficient, captured from the
        // commit that still ran the 762-bit ladder and dense line
        // products: the faster kernels are a different route to the same
        // field elements.
        let first = |f: &Fp12| f.c0.c0.c0.to_canonical_limbs();
        let mut rng = StdRng::seed_from_u64(0x601D);
        let pairs = random_pairs(&mut rng, 3);
        let f = Fp12::random(&mut rng);
        assert_eq!(
            first(&pairing(&G1Affine::generator(), &G2Affine::generator())),
            [
                10361235729949499893,
                2015349964605169190,
                5840273097882097399,
                1353066228463925364
            ]
        );
        let (g, d) = (G2Prepared::new(&pairs[1].1), G2Prepared::new(&pairs[2].1));
        assert_eq!(
            first(&miller_loop_mixed(
                &pairs[..1],
                &[(pairs[1].0, &g), (pairs[2].0, &d)]
            )),
            [
                10650036333378715614,
                14773081699016022071,
                10324488365915068872,
                3086616691562407898
            ]
        );
        assert_eq!(
            first(&final_exponentiation(&f).unwrap()),
            [
                6061945086089115124,
                4493699134196010036,
                5337595547100123669,
                3462652127152468585
            ]
        );
        assert_eq!(
            first(&multi_pairing(&pairs)),
            [
                7459419999897501307,
                4393243761711297091,
                18401989736459874923,
                2885141245663325313
            ]
        );
    }

    #[test]
    fn pairing_is_nondegenerate() {
        let e = pairing(&G1Affine::generator(), &G2Affine::generator());
        assert_ne!(e, Fp12::one(), "e(G1, G2) must be a primitive r-th root");
        assert!(!e.is_zero());
        // It must have order dividing r.
        assert_eq!(e.pow(&<Fr as PrimeField>::MODULUS), Fp12::one());
    }

    #[test]
    fn pairing_with_identity_is_one() {
        assert_eq!(
            pairing(&G1Affine::identity(), &G2Affine::generator()),
            Fp12::one()
        );
        assert_eq!(
            pairing(&G1Affine::generator(), &G2Affine::identity()),
            Fp12::one()
        );
    }

    #[test]
    fn bilinearity() {
        let mut rng = StdRng::seed_from_u64(42);
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        let p = G1Projective::generator().mul(a).to_affine();
        let q = G2Projective::generator().mul(b).to_affine();
        let lhs = pairing(&p, &q);
        let base = pairing(&G1Affine::generator(), &G2Affine::generator());
        let ab = a * b;
        let rhs = base.pow(&ab.to_canonical_limbs());
        assert_eq!(lhs, rhs, "e(aG, bH) = e(G, H)^(ab)");
    }

    #[test]
    fn linearity_in_first_argument() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        let g = G1Projective::generator();
        let q = G2Affine::generator();
        let sum = g.mul(a).add(&g.mul(b)).to_affine();
        let lhs = pairing(&sum, &q);
        let rhs = pairing(&g.mul(a).to_affine(), &q) * pairing(&g.mul(b).to_affine(), &q);
        assert_eq!(lhs, rhs, "e(P1+P2, Q) = e(P1,Q)·e(P2,Q)");
    }

    #[test]
    fn inverse_point_inverts_pairing() {
        let p = G1Affine::generator();
        let q = G2Affine::generator();
        let e = pairing(&p, &q);
        let e_neg = pairing(&p.neg(), &q);
        assert_eq!(e * e_neg, Fp12::one(), "e(-P, Q) = e(P, Q)^(-1)");
    }

    #[test]
    fn multi_pairing_matches_product() {
        let mut rng = StdRng::seed_from_u64(9);
        let p1 = G1Projective::generator()
            .mul(Fr::random(&mut rng))
            .to_affine();
        let p2 = G1Projective::generator()
            .mul(Fr::random(&mut rng))
            .to_affine();
        let q1 = G2Projective::generator()
            .mul(Fr::random(&mut rng))
            .to_affine();
        let q2 = G2Projective::generator()
            .mul(Fr::random(&mut rng))
            .to_affine();
        let combined = multi_pairing(&[(p1, q1), (p2, q2)]);
        let separate = pairing(&p1, &q1) * pairing(&p2, &q2);
        assert_eq!(combined, separate);
    }

    #[test]
    fn untwisted_generator_is_on_e_fp12() {
        // The untwist (x', y') ↦ (x'·w², y'·w³) by coefficient placement.
        let g = G2Affine::generator();
        let x = Fp12::new(Fp6::new(Fp2::zero(), g.x, Fp2::zero()), Fp6::zero());
        let y = Fp12::new(Fp6::zero(), Fp6::new(Fp2::zero(), g.y, Fp2::zero()));
        let b = Fp12::from_base(Fq::from_u64(3));
        assert_eq!(
            y.square(),
            x.square() * x + b,
            "untwist must land on y² = x³ + 3 over Fp12"
        );
    }

    #[test]
    fn groth16_shape_identity() {
        // e(aP, bQ) · e(-abP, Q) = 1 — the cancellation pattern the
        // verifier relies on.
        let mut rng = StdRng::seed_from_u64(11);
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        let g1 = G1Projective::generator();
        let g2 = G2Projective::generator();
        let left = multi_pairing(&[
            (g1.mul(a).to_affine(), g2.mul(b).to_affine()),
            (g1.mul(a * b).neg().to_affine(), G2Affine::generator()),
        ]);
        assert_eq!(left, Fp12::one());
    }

    #[test]
    fn prepared_miller_loop_matches_dynamic() {
        let mut rng = StdRng::seed_from_u64(13);
        let p1 = G1Projective::generator()
            .mul(Fr::random(&mut rng))
            .to_affine();
        let p2 = G1Projective::generator()
            .mul(Fr::random(&mut rng))
            .to_affine();
        let q1 = G2Projective::generator()
            .mul(Fr::random(&mut rng))
            .to_affine();
        let q2 = G2Projective::generator()
            .mul(Fr::random(&mut rng))
            .to_affine();
        let dynamic = miller_loop(&[(p1, q1), (p2, q2)]);
        let q1p = G2Prepared::new(&q1);
        let q2p = G2Prepared::new(&q2);
        let replayed = miller_loop_mixed(&[], &[(p1, &q1p), (p2, &q2p)]);
        assert_eq!(dynamic, replayed, "prepared lines must replay exactly");
        let mixed = miller_loop_mixed(&[(p1, q1)], &[(p2, &q2p)]);
        assert_eq!(dynamic, mixed, "mixed dynamic/prepared must agree");
    }

    #[test]
    fn prepared_identity_and_identity_g1_are_skipped() {
        let prep_inf = G2Prepared::new(&G2Affine::identity());
        let p = G1Affine::generator();
        assert_eq!(miller_loop_mixed(&[], &[(p, &prep_inf)]), Fp12::one());
        let prep = G2Prepared::new(&G2Affine::generator());
        assert_eq!(
            miller_loop_mixed(&[], &[(G1Affine::identity(), &prep)]),
            Fp12::one()
        );
    }

    #[test]
    fn batched_dynamic_pairs_match_separate_loops() {
        // Four dynamic pairs in one lock-step loop (one batch inversion per
        // phase) must equal the product of four separate loops.
        let mut rng = StdRng::seed_from_u64(17);
        let pairs: Vec<(G1Affine, G2Affine)> = (0..4)
            .map(|_| {
                (
                    G1Projective::generator()
                        .mul(Fr::random(&mut rng))
                        .to_affine(),
                    G2Projective::generator()
                        .mul(Fr::random(&mut rng))
                        .to_affine(),
                )
            })
            .collect();
        let batched = miller_loop(&pairs);
        let mut separate = Fp12::one();
        for pair in &pairs {
            separate *= miller_loop(std::slice::from_ref(pair));
        }
        assert_eq!(batched, separate);
    }

    /// Dense expansion of a [`ScaledLine`] at `(px, py)`.
    fn eval_scaled_line(line: &ScaledLine, px: Fq, py: Fq) -> Fp12 {
        match line {
            ScaledLine::Line { s, a, b } => Fp12::new(
                Fp6::from_fp2(s.scale(py)),
                Fp6::new(a.scale(px), *b, Fp2::zero()),
            ),
            ScaledLine::Vertical { s, x } => {
                Fp12::from_fp6(Fp6::new(s.scale(px), -*x, Fp2::zero()))
            }
            ScaledLine::One => Fp12::one(),
        }
    }

    #[test]
    fn projective_steps_are_the_affine_steps_times_their_scale() {
        let mut rng = StdRng::seed_from_u64(25);
        let pairs = random_pairs(&mut rng, 2);
        let (q, generic) = (pairs[0].1, pairs[1].1);
        let (px, py) = (Fq::random(&mut rng), Fq::random(&mut rng));
        let f = Fp12::random(&mut rng);
        // A T reached by a projective step has Z ≠ 1.
        let mut reached = Homogeneous::from_affine(&generic);
        reached.double_step();
        let reached_affine = generic.to_projective().double().to_affine();
        assert!(reached.equals(&reached_affine) && reached.z != Fp2::one());
        // ±Q as (cx : cy : c).
        let c = Fp2::random(&mut rng);
        let rescaled = |p: &G2Affine| Homogeneous {
            x: p.x * c,
            y: p.y * c,
            z: c,
        };
        let cases = [
            ("T = O", Homogeneous::identity(), G2Affine::identity()),
            ("T = Q", rescaled(&q), q),
            ("T = −Q", rescaled(&q.neg()), q.neg()),
            ("generic T", Homogeneous::from_affine(&generic), generic),
            ("Z ≠ 1", reached, reached_affine),
        ];
        for (case, t, t_affine) in cases {
            let (mut tangent, mut tangent_affine) = (t, t_affine);
            let inv = double_denom(&tangent_affine).inverse().unwrap();
            let steps = [
                (
                    "tangent",
                    tangent.double_step(),
                    double_step(&mut tangent_affine, &inv),
                    tangent,
                    tangent_affine,
                ),
                {
                    let (mut chord, mut chord_affine) = (t, t_affine);
                    let inv = add_denom(&chord_affine, &q).inverse().unwrap();
                    let coeff = add_step(&mut chord_affine, &q, &inv);
                    ("chord", chord.add_step(&q), coeff, chord, chord_affine)
                },
            ];
            for (step, line, coeff, next, next_affine) in steps {
                assert!(next.equals(&next_affine), "{step}, {case}");
                let scaled =
                    eval_line(&coeff, px, py) * Fp12::from_fp6(Fp6::from_fp2(line.scale()));
                assert_eq!(eval_scaled_line(&line, px, py), scaled, "{step}, {case}");
                assert!(!line.scale().is_zero(), "{step}, {case}");
                assert_eq!(
                    mul_by_scaled_line_at(&f, &line, px, py),
                    f * scaled,
                    "{step}, {case}"
                );
            }
        }
    }

    /// The lane chunk on the portable body, whatever the chunk's size.
    fn on_portable(chunk: &mut Chunk) -> (Fp12, Vec<usize>) {
        LaneChunk {
            dyns: &mut *chunk.dyns,
            preps: chunk.preps,
        }
        .run(Portable)
    }

    /// The lane chunk on the body this CPU runs (IFMA where it has it).
    fn on_detected(chunk: &mut Chunk) -> (Fp12, Vec<usize>) {
        with_lanes(LaneChunk {
            dyns: &mut *chunk.dyns,
            preps: chunk.preps,
        })
    }

    #[test]
    fn lane_chunk_matches_the_portable_body() {
        let mut rng = StdRng::seed_from_u64(28);
        let fresh = random_pairs(&mut rng, 17);
        let fresh_lines: Vec<G2Prepared> = fresh.iter().map(|(_, q)| G2Prepared::new(q)).collect();
        let fixed = random_pairs(&mut rng, 9);
        let prepared: Vec<G2Prepared> = fixed.iter().map(|(_, q)| G2Prepared::new(q)).collect();
        let outside = random_twist_point(&mut rng);
        for n in 0..=17 {
            // Every third count puts a point outside G2 in the last lane.
            let mut pairs = fresh[..n].to_vec();
            let bad: Vec<usize> = (n % 3 == 0 && n > 0).then(|| n - 1).into_iter().collect();
            for &i in &bad {
                pairs[i].1 = outside;
            }
            for n_prep in [0, 2, 9] {
                let replays: Vec<(G1Affine, &G2Prepared)> = fixed[..n_prep]
                    .iter()
                    .zip(&prepared)
                    .map(|((p, _), l)| (*p, l))
                    .collect();
                let all: Vec<(G1Affine, G2Affine)> =
                    pairs.iter().chain(&fixed[..n_prep]).copied().collect();
                let reference = miller_loop_dense_reference(&all);
                for (record, fan_out) in [(false, 1), (false, 2), (true, 1), (true, 2)] {
                    let at = format!("{n} + {n_prep} pairs, record {record}, fan-out {fan_out}");
                    let want = traced_loop(&pairs, &replays, record, fan_out, on_portable);
                    let got = traced_loop(&pairs, &replays, record, fan_out, on_detected);
                    assert_eq!(want.product, reference, "{at}");
                    assert_eq!(got.product, want.product, "{at}");
                    assert_eq!(want.outside_g2, bad, "{at}");
                    assert_eq!(got.outside_g2, bad, "{at}");
                    assert_eq!(got.lines.len(), want.lines.len(), "{at}");
                    for (i, (got, want)) in got.lines.iter().zip(&want.lines).enumerate() {
                        assert_eq!(got.coeffs, want.coeffs, "{at}, pair {i}");
                        if !bad.contains(&i) {
                            assert_eq!(want.coeffs, fresh_lines[i].coeffs, "{at}, pair {i}");
                        }
                    }
                }
            }
        }
    }

    /// One vector of eight pairs whose chord at the first step meets
    /// `T = Q` (lanes 0 and 7) and `T = −Q` (lane 3): two steps of the
    /// lane chunk, a chord and a tangent, against the scalar steps.
    fn evictions_on<B: LaneBody>(body: B) {
        let mut rng = StdRng::seed_from_u64(29);
        let pairs = random_pairs(&mut rng, 8);
        let others = random_pairs(&mut rng, 8);
        let mut dyns: Vec<DynPair> = pairs
            .iter()
            .enumerate()
            .map(|(index, (p, q))| DynPair {
                index,
                px: p.x,
                py: p.y,
                q: *q,
                t: others[index].1,
                evicted: false,
                lines: Some(Vec::new()),
            })
            .collect();
        let crafted = [(0, false), (3, true), (7, false)];
        for &(i, opposite) in &crafted {
            let q = dyns[i].q;
            dyns[i].t = if opposite { q.neg() } else { q };
        }
        // The scalar steps: T's and every line, expanded.
        let mut want_t: Vec<G2Affine> = dyns.iter().map(|d| d.t).collect();
        let mut want_lines = vec![Vec::new(); 8];
        let mut want = Fp12::one();
        for phase in [Phase::Chord(0), Phase::Tangent] {
            if let Phase::Tangent = phase {
                want = want.square();
            }
            for (i, d) in dyns.iter().enumerate() {
                let t = &mut want_t[i];
                let coeff = match phase {
                    Phase::Tangent => {
                        let inv = double_denom(t).inverse().unwrap_or(Fp2::zero());
                        double_step(t, &inv)
                    }
                    Phase::Chord(k) => {
                        let q = addends(&d.q)[k];
                        add_step(t, &q, &add_denom(t, &q).inverse().unwrap())
                    }
                };
                want *= eval_line(&coeff, d.px, d.py);
                want_lines[i].push(coeff);
            }
        }
        let mut chunk = LaneLoop::new(body, &mut dyns, &[]);
        chunk.step(1, Phase::Chord(0));
        assert_eq!(chunk.evicted, [0, 3, 7]);
        chunk.step(2, Phase::Tangent);
        let (product, _) = chunk.finish();
        assert_eq!(product, want);
        for (i, d) in dyns.iter().enumerate() {
            assert_eq!(d.evicted, crafted.iter().any(|&(c, _)| c == i), "lane {i}");
            assert_eq!(d.t, want_t[i], "lane {i}");
            assert_eq!(d.lines.as_ref().unwrap(), &want_lines[i], "lane {i}");
        }
        assert!(want_t[3].is_identity(), "T = −Q cancels");
        assert!(matches!(want_lines[3][0], LineCoeff::Vertical { .. }));
        assert!(matches!(want_lines[3][1], LineCoeff::One));
    }

    #[test]
    fn exceptional_chords_leave_the_lanes_for_the_scalar_steps() {
        struct Detected;
        impl LaneTask for Detected {
            type Output = ();
            #[inline(always)]
            fn run<B: LaneBody>(self, body: B) {
                evictions_on(body);
            }
        }
        evictions_on(Portable);
        with_lanes(Detected);
    }

    /// Square root in Fp2 for `p ≡ 3 (mod 4)` (Adj–Rodríguez-Henríquez,
    /// Algorithm 9); `None` for a non-square.
    fn fp2_sqrt(a: Fp2) -> Option<Fp2> {
        let p = BigUint::from_limbs(&<Fq as PrimeField>::MODULUS);
        let a1 = a.pow(p.sub(&BigUint::from(3u64)).shr(2).limbs());
        let alpha = a1.square() * a;
        let root = if alpha == -Fp2::one() {
            Fp2::new(Fq::zero(), Fq::one()) * a1 * a
        } else {
            (alpha + Fp2::one()).pow(p.sub(&BigUint::one()).shr(1).limbs()) * a1 * a
        };
        (root.square() == a).then_some(root)
    }

    /// A random point of the twist: outside G2 but for a `1/(2p − r)`
    /// chance.
    fn random_twist_point(rng: &mut StdRng) -> G2Affine {
        loop {
            let x = Fp2::random(rng);
            if let Some(y) = fp2_sqrt(x.square() * x + G2Params::b()) {
                return G2Affine::new(x, y).expect("built from the curve equation");
            }
        }
    }

    /// A twist point of order 10069, the smallest prime factor of the
    /// cofactor `2p − r` (`tests/g2_membership.rs` builds the same).
    fn small_order_point(rng: &mut StdRng) -> G2Affine {
        let p = BigUint::from_limbs(&<Fq as PrimeField>::MODULUS);
        let r = BigUint::from_limbs(&<Fr as PrimeField>::MODULUS);
        let (rest, rem) = p.add(&p).sub(&r).div_rem(&BigUint::from(10069u64));
        assert!(rem.is_zero());
        loop {
            let s = random_twist_point(rng).mul_limbs(r.mul(&rest).limbs());
            if !s.is_identity() {
                assert!(s.mul_limbs(&[10069]).is_identity());
                return s.to_affine();
            }
        }
    }

    #[test]
    fn small_chunks_match_the_dense_reference_inside_and_outside_g2() {
        let mut rng = StdRng::seed_from_u64(26);
        let outside = random_twist_point(&mut rng);
        let small = small_order_point(&mut rng);
        let fixed = random_pairs(&mut rng, 2);
        let (g, d) = (G2Prepared::new(&fixed[0].1), G2Prepared::new(&fixed[1].1));
        let replays = [(fixed[0].0, &g), (fixed[1].0, &d)];
        for n in 1..=8 {
            let honest = random_pairs(&mut rng, n);
            let mut forged = honest.clone();
            forged[n - 1].1 = small;
            forged[0].1 = outside;
            let mut bad = vec![0, n - 1];
            bad.dedup();
            for (pairs, bad) in [(honest, vec![]), (forged, bad)] {
                let slow: Vec<usize> = (0..n).filter(|&i| !pairs[i].1.is_in_subgroup()).collect();
                assert_eq!(slow, bad, "the [r]Q = O test agrees");
                for prepared in [0, 2] {
                    let all: Vec<(G1Affine, G2Affine)> =
                        pairs.iter().chain(&fixed[..prepared]).copied().collect();
                    let reference = miller_loop_dense_reference(&all);
                    for fan_out in [1, 2, 3] {
                        let at =
                            format!("{n} + {prepared} pairs, {bad:?} outside, fan-out {fan_out}");
                        let trace =
                            miller_loop_traced(&pairs, &replays[..prepared], false, fan_out);
                        assert_eq!(trace.product, reference, "{at}");
                        assert_eq!(trace.outside_g2, bad, "{at}");
                        let mixed = waku_pool::with_threads(fan_out, || {
                            miller_loop_mixed(&pairs, &replays[..prepared])
                        });
                        let expected = if bad.is_empty() {
                            reference
                        } else {
                            Fp12::zero()
                        };
                        assert_eq!(mixed, expected, "{at}");
                    }
                }
            }
        }
    }
}
