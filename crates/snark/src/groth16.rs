//! Groth16 (J. Groth, "On the Size of Pairing-Based Non-interactive
//! Arguments", EUROCRYPT 2016 — reference \[11\] of the paper): setup,
//! prover, and verifier over BN254.
//!
//! The paper's §II-B prescribes Groth16 for the RLN membership/share/
//! nullifier circuit; parameter generation in production would run as an
//! MPC ceremony ([12–15]) — here the toxic waste is sampled from the
//! caller's RNG and dropped, which preserves every protocol behaviour the
//! reproduction measures.
//!
//! # Incremental proving
//!
//! The prover's sums `Σ zᵢAᵢ`, `Σ zᵢB¹ᵢ`, `Σ zᵢB²ᵢ` and `Σ_w zᵢLᵢ` are
//! linear in the assignment `z`, and consecutive proofs on one key mostly
//! share it (an RLN publisher's membership half — 88 % of the circuit — is
//! a function of `(sk, auth path)` only). [`prove`] therefore keeps, inside
//! the [`ProvingKey`], the last successfully proved assignment and its four
//! sums, and multiplies only the entries that moved: the MSMs run over
//! `δᵢ = zᵢ − z_prevᵢ` at the positions where `δᵢ ≠ 0` and the results are
//! added to the stored sums. The first proof on a key is the delta against
//! the all-zero assignment, i.e. the full MSMs. The `H` MSM, the quotient
//! polynomial with its per-row satisfaction check, and the fresh `r, s`
//! blinders are computed for every proof, and the group elements — hence
//! the proof bytes for a given RNG stream — do not depend on what was
//! proved before.
//!
//! The carried assignment contains witness values (for RLN: `sk` and the
//! `H(sk)` intermediates), so it is treated as key material: it lives only
//! in process memory, is never serialized ([`crate::serialize::pk_to_bytes`]
//! does not see it), is not copied by `Clone` (a cloned key starts cold)
//! and is not printed by `Debug`. What it makes observable is timing: a
//! proof whose assignment moved little is faster. For RLN that is a
//! function of public information only — whether the sender's
//! authentication path moved since its last proof, which every peer sees
//! on the membership contract — never of the message or the secret.

use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};

use rand::Rng;
use waku_arith::fields::Fr;
use waku_arith::traits::{Field, PrimeField};
use waku_curve::endo::{glv_mul_batch, phi, GlvScalar};
use waku_curve::fp12::Fp12;
use waku_curve::g1::{G1Affine, G1Params, G1Projective};
use waku_curve::g2::{G2Affine, G2Projective};
use waku_curve::msm::{msm, msm_limbs, WindowTable};
use waku_curve::pairing::{
    final_exponentiation, miller_loop_mixed, miller_loop_traced, G2Prepared,
};
use waku_curve::point::Projective;

use crate::qap;
use crate::r1cs::ConstraintSystem;
use crate::SnarkError;

/// Groth16 verifying key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyingKey {
    /// `α·G1`.
    pub alpha_g1: G1Affine,
    /// `β·G2`.
    pub beta_g2: G2Affine,
    /// `γ·G2`.
    pub gamma_g2: G2Affine,
    /// `δ·G2`.
    pub delta_g2: G2Affine,
    /// Per-instance-variable `(β·Aᵢ(τ) + α·Bᵢ(τ) + Cᵢ(τ))/γ · G1`
    /// (index 0 is the constant-one variable).
    pub ic: Vec<G1Affine>,
}

/// Groth16 proving key.
///
/// `Clone` copies the key material only: the clone starts with an empty
/// carry-over (see the module docs on incremental proving).
#[derive(Clone)]
pub struct ProvingKey {
    /// The embedded verifying key.
    pub vk: VerifyingKey,
    /// `β·G1`.
    pub beta_g1: G1Affine,
    /// `δ·G1`.
    pub delta_g1: G1Affine,
    /// `Aᵢ(τ)·G1` per variable (flat index order).
    pub a_query: Vec<G1Affine>,
    /// `Bᵢ(τ)·G1` per variable.
    pub b_g1_query: Vec<G1Affine>,
    /// `Bᵢ(τ)·G2` per variable.
    pub b_g2_query: Vec<G2Affine>,
    /// `τᵏ·Z(τ)/δ · G1` for k = 0..n−1.
    pub h_query: Vec<G1Affine>,
    /// `(β·Aᵢ(τ) + α·Bᵢ(τ) + Cᵢ(τ))/δ · G1` per *witness* variable.
    pub l_query: Vec<G1Affine>,
    /// What [`prove`] carries from one proof on this key to the next.
    pub(crate) memo: ProveMemo,
}

/// The last successfully proved assignment on a key and its four
/// assignment-linear sums. Secret: `z` holds the witness.
struct Rolled {
    z: Vec<Fr>,
    /// `Σ zᵢ·Aᵢ(τ)`.
    a: G1Projective,
    /// `Σ zᵢ·Bᵢ(τ)` in G1.
    b1: G1Projective,
    /// `Σ zᵢ·Bᵢ(τ)` in G2.
    b2: G2Projective,
    /// `Σ_w zᵢ·Lᵢ`.
    l: G1Projective,
    /// Entries of `z` that differed from the assignment proved before it.
    changed: usize,
}

impl Rolled {
    /// Where a key with no proof yet starts: the all-zero assignment, whose
    /// sums are the identity.
    fn cold(num_vars: usize) -> Self {
        Rolled {
            z: vec![Fr::zero(); num_vars],
            a: G1Projective::identity(),
            b1: G1Projective::identity(),
            b2: G2Projective::identity(),
            l: G1Projective::identity(),
            changed: 0,
        }
    }
}

/// Overwrites `*slot` with `blank` by a volatile store: one the optimiser
/// may not drop as dead although the memory is about to be freed.
fn wipe<T: Copy>(slot: &mut T, blank: T) {
    // SAFETY: `slot` is a live exclusive reference, hence valid and aligned
    // for a write of `T`, and `T: Copy` has no destructor the overwrite
    // could skip.
    unsafe { std::ptr::write_volatile(slot, blank) }
}

impl Drop for Rolled {
    /// The assignment and the four sums are witness material (for RLN:
    /// `sk`, the `H(sk)` intermediates, and group elements that are linear
    /// images of them): they are overwritten before their memory goes back
    /// to the allocator. Runs when the last holder lets go — the key being
    /// dropped, or a later proof replacing this state in
    /// [`ProveMemo::store`] — on whichever thread that is.
    fn drop(&mut self) {
        for entry in self.z.iter_mut() {
            wipe(entry, Fr::zero());
        }
        wipe(&mut self.a, G1Projective::identity());
        wipe(&mut self.b1, G1Projective::identity());
        wipe(&mut self.b2, G2Projective::identity());
        wipe(&mut self.l, G1Projective::identity());
        std::sync::atomic::compiler_fence(std::sync::atomic::Ordering::SeqCst);
        #[cfg(test)]
        tests::WIPED.with(|log| {
            let left = self.z.iter().filter(|entry| !entry.is_zero()).count();
            log.borrow_mut().push((self.z.len(), left));
        });
    }
}

/// Interior-mutable slot for a key's [`Rolled`] state. The lock guards the
/// pointer swap only — never an MSM — and a stored value is always a
/// consistent `(z, sums)` pair, so concurrent provers on one key may lose
/// each other's update (a bigger delta next time) but never corrupt it.
#[derive(Default)]
pub(crate) struct ProveMemo(Mutex<Option<Arc<Rolled>>>);

impl Clone for ProveMemo {
    /// A copy of a key starts cold: witness-derived state is not duplicated.
    fn clone(&self) -> Self {
        ProveMemo::default()
    }
}

impl ProveMemo {
    fn load(&self) -> Option<Arc<Rolled>> {
        self.0.lock().expect("prove memo poisoned").clone()
    }

    fn store(&self, rolled: Rolled) {
        let replaced = self
            .0
            .lock()
            .expect("prove memo poisoned")
            .replace(Arc::new(rolled));
        // Let go of the previous state outside the lock: the last holder
        // wipes it.
        drop(replaced);
    }
}

impl std::fmt::Debug for ProvingKey {
    /// Lengths only: the carry-over holds witness values and the queries
    /// are megabytes of points.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProvingKey")
            .field("ic", &self.vk.ic.len())
            .field("a_query", &self.a_query.len())
            .field("b_g1_query", &self.b_g1_query.len())
            .field("b_g2_query", &self.b_g2_query.len())
            .field("h_query", &self.h_query.len())
            .field("l_query", &self.l_query.len())
            .field("carried_vars", &self.memo.load().map(|m| m.z.len()))
            .finish()
    }
}

/// A Groth16 proof: 2 G1 points + 1 G2 point (256 bytes uncompressed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Proof {
    /// The `A` element.
    pub a: G1Affine,
    /// The `B` element.
    pub b: G2Affine,
    /// The `C` element.
    pub c: G1Affine,
}

impl VerifyingKey {
    /// Uncompressed byte size (G1 = 64 B, G2 = 128 B).
    pub fn size_in_bytes(&self) -> usize {
        64 + 128 * 3 + self.ic.len() * 64
    }
}

impl ProvingKey {
    /// Uncompressed byte size — the paper's §IV reports ≈3.89 MB for the
    /// RLN prover key at group size 2³².
    pub fn size_in_bytes(&self) -> usize {
        self.vk.size_in_bytes()
            + 64 * 2
            + self.a_query.len() * 64
            + self.b_g1_query.len() * 64
            + self.b_g2_query.len() * 128
            + self.h_query.len() * 64
            + self.l_query.len() * 64
    }

    /// How many assignment entries the most recent successful [`prove`] on
    /// this key had to re-multiply (they differed from the assignment
    /// proved before it; the first proof counts its non-zero entries).
    /// `None` before the first proof. With several threads proving on one
    /// key this is *a* recent proof's count, not necessarily the caller's.
    pub fn last_changed_vars(&self) -> Option<usize> {
        self.memo.load().map(|m| m.changed)
    }
}

impl Proof {
    /// Every point satisfies its curve equation. That is a full membership
    /// test for `A, C ∈ G1` (cofactor 1); the twist has a large cofactor,
    /// and `B ∈ G2` is certified by the Miller loop itself.
    fn is_on_curve(&self) -> bool {
        self.a.is_on_curve() && self.b.is_on_curve() && self.c.is_on_curve()
    }

    /// Serializes to 256 uncompressed bytes
    /// (`A.x ‖ A.y ‖ B.x.c0 ‖ B.x.c1 ‖ B.y.c0 ‖ B.y.c1 ‖ C.x ‖ C.y`).
    pub fn to_bytes(&self) -> [u8; 256] {
        let (a, b, c) = (&self.a, &self.b, &self.c);
        let coords = [&a.x, &a.y, &b.x.c0, &b.x.c1, &b.y.c0, &b.y.c1, &c.x, &c.y];
        let mut out = [0u8; 256];
        for (chunk, coord) in out.chunks_exact_mut(32).zip(coords) {
            chunk.copy_from_slice(&coord.to_le_bytes());
        }
        out
    }

    /// Parses a proof, checking every point is on its curve.
    ///
    /// Returns `None` for malformed bytes or off-curve points.
    pub fn from_bytes(bytes: &[u8; 256]) -> Option<Self> {
        use crate::serialize::read_field;
        use waku_curve::fp2::Fp2;
        let r = &mut waku_wire::Reader::new(bytes);
        let a = G1Affine::new(read_field(r)?, read_field(r)?)?;
        let b = G2Affine::new(
            Fp2::new(read_field(r)?, read_field(r)?),
            Fp2::new(read_field(r)?, read_field(r)?),
        )?;
        let c = G1Affine::new(read_field(r)?, read_field(r)?)?;
        Some(Proof { a, b, c })
    }
}

/// Runs the trusted setup for the (finalized) constraint system.
///
/// The toxic waste (τ, α, β, γ, δ) is sampled from `rng` and dropped.
///
/// # Panics
///
/// Panics if the constraint system has not been finalized.
pub fn setup<R: Rng + ?Sized>(cs: &ConstraintSystem, rng: &mut R) -> ProvingKey {
    assert!(cs.is_finalized(), "finalize the constraint system first");
    let tau = Fr::random(rng);
    let alpha = Fr::random(rng);
    let beta = Fr::random(rng);
    let gamma = Fr::random(rng);
    let delta = Fr::random(rng);
    let gamma_inv = gamma.inverse().expect("gamma nonzero");
    let delta_inv = delta.inverse().expect("delta nonzero");

    let q = qap::evaluate_at(cs, tau);
    let num_vars = q.a.len();
    let num_instance = cs.num_instance();
    let n = q.domain.size();

    let g1_table = WindowTable::new(G1Projective::generator(), 8);
    let g2_table = WindowTable::new(G2Projective::generator(), 8);

    // Per-variable queries.
    let a_query = Projective::batch_to_affine(&g1_table.mul_batch(&q.a));
    let b_g1_query = Projective::batch_to_affine(&g1_table.mul_batch(&q.b));
    let b_g2_query = Projective::batch_to_affine(&g2_table.mul_batch(&q.b));

    // (β·Aᵢ + α·Bᵢ + Cᵢ) split by γ (instance) and δ (witness).
    let combined: Vec<Fr> = (0..num_vars)
        .map(|i| beta * q.a[i] + alpha * q.b[i] + q.c[i])
        .collect();
    let ic_scalars: Vec<Fr> = combined[..num_instance]
        .iter()
        .map(|x| *x * gamma_inv)
        .collect();
    let l_scalars: Vec<Fr> = combined[num_instance..]
        .iter()
        .map(|x| *x * delta_inv)
        .collect();
    let ic = Projective::batch_to_affine(&g1_table.mul_batch(&ic_scalars));
    let l_query = Projective::batch_to_affine(&g1_table.mul_batch(&l_scalars));

    // τᵏ·Z(τ)/δ queries, k = 0..n−1 (h has n−1 coefficients).
    let mut h_scalars = Vec::with_capacity(n - 1);
    let mut tau_k = Fr::one();
    for _ in 0..n - 1 {
        h_scalars.push(tau_k * q.zt * delta_inv);
        tau_k *= tau;
    }
    let h_query = Projective::batch_to_affine(&g1_table.mul_batch(&h_scalars));

    let vk = VerifyingKey {
        alpha_g1: g1_table.mul(alpha).to_affine(),
        beta_g2: g2_table.mul(beta).to_affine(),
        gamma_g2: g2_table.mul(gamma).to_affine(),
        delta_g2: g2_table.mul(delta).to_affine(),
        ic,
    };
    ProvingKey {
        vk,
        beta_g1: g1_table.mul(beta).to_affine(),
        delta_g1: g1_table.mul(delta).to_affine(),
        a_query,
        b_g1_query,
        b_g2_query,
        h_query,
        l_query,
        memo: ProveMemo::default(),
    }
}

/// Produces a proof for the (finalized, satisfied) constraint system.
///
/// Incremental across calls on one key (module docs): only the assignment
/// entries that differ from the last successful proof on `pk` are
/// multiplied against the queries. The proof is the one a cold key makes
/// from the same `rng` stream.
///
/// # Errors
///
/// Returns [`SnarkError::Unsatisfied`] when a constraint does not hold, so
/// callers cannot accidentally publish proofs of false statements. No
/// error path modifies what the key carries.
pub fn prove<R: Rng + ?Sized>(
    pk: &ProvingKey,
    cs: &ConstraintSystem,
    rng: &mut R,
) -> Result<Proof, SnarkError> {
    if !cs.is_finalized() {
        return Err(SnarkError::NotFinalized);
    }
    if pk.a_query.len() != cs.num_instance() + cs.num_witness() {
        return Err(SnarkError::KeyMismatch);
    }

    let z = cs.full_assignment();
    // Draw the blinding factors before any parallel work so the RNG stream
    // (and therefore the proof) is identical at every pool size.
    let r = Fr::random(rng);
    let s = Fr::random(rng);

    let delta_g1 = pk.delta_g1.to_projective();
    let num_instance = cs.num_instance();

    // The four query sums are linear in z: roll the sums of the last proof
    // on this key forward by the entries that moved. A cold key starts
    // from the all-zero assignment, whose sums are the identity.
    let prev = pk
        .memo
        .load()
        .unwrap_or_else(|| Arc::new(Rolled::cold(z.len())));
    let mut delta = Vec::new();
    let (mut a_bases, mut b1_bases, mut b2_bases) = (Vec::new(), Vec::new(), Vec::new());
    let mut l_bases = Vec::new();
    for (i, (new, old)) in z.iter().zip(&prev.z).enumerate() {
        if new != old {
            delta.push(*new - *old);
            a_bases.push(pk.a_query[i]);
            b1_bases.push(pk.b_g1_query[i]);
            b2_bases.push(pk.b_g2_query[i]);
            if i >= num_instance {
                l_bases.push(pk.l_query[i - num_instance]);
            }
        }
    }
    // Positions ascend, so the witness deltas are the tail.
    let l_delta = &delta[delta.len() - l_bases.len()..];

    // The quotient-polynomial pipeline (its FFTs, the satisfaction check
    // riding on the row evaluations it computes anyway, then the H MSM) is
    // the long chain, so it runs on the calling thread; the four delta
    // MSMs are independent pool tasks beside it. Each MSM further fans its
    // Pippenger windows out on the same pool.
    let ((h_sum, l_step), ((a_step, b2_step), b1_step)) = waku_pool::join(
        || {
            waku_pool::join(
                || qap::quotient_poly_checked(cs).map(|h| msm(&pk.h_query, &h)),
                || msm(&l_bases, l_delta),
            )
        },
        || {
            waku_pool::join(
                || waku_pool::join(|| msm(&a_bases, &delta), || msm(&b2_bases, &delta)),
                || msm(&b1_bases, &delta),
            )
        },
    );
    // An unsatisfied assignment returns here, before the memo is touched.
    let h_sum = h_sum.map_err(SnarkError::Unsatisfied)?;

    let rolled = Rolled {
        a: prev.a.add(&a_step),
        b1: prev.b1.add(&b1_step),
        b2: prev.b2.add(&b2_step),
        l: prev.l.add(&l_step),
        changed: delta.len(),
        z,
    };

    // A = α + Σ zᵢAᵢ(τ) + rδ
    let a = pk
        .vk
        .alpha_g1
        .to_projective()
        .add(&rolled.a)
        .add(&delta_g1.mul(r));
    // B = β + Σ zᵢBᵢ(τ) + sδ   (in both groups)
    let b_g2 = pk
        .vk
        .beta_g2
        .to_projective()
        .add(&rolled.b2)
        .add(&pk.vk.delta_g2.to_projective().mul(s));
    let b_g1 = pk
        .beta_g1
        .to_projective()
        .add(&rolled.b1)
        .add(&delta_g1.mul(s));

    // C = Σ_w zᵢLᵢ + Σ hₖ·(τᵏZ(τ)/δ) + sA + rB − rsδ
    let c = rolled
        .l
        .add(&h_sum)
        .add(&a.mul(s))
        .add(&b_g1.mul(r))
        .add(&delta_g1.mul(r * s).neg());

    pk.memo.store(rolled);
    Ok(Proof {
        a: a.to_affine(),
        b: b_g2.to_affine(),
        c: c.to_affine(),
    })
}

/// Window width of the fixed-base tables behind the `IC` sum and the
/// batch check's `(Σ rᵢ)·α`: 64 rows of 15 affine points per point
/// (≈ 70 KB). A full-width coefficient then costs at most 64 mixed
/// additions and no doublings.
const TABLE_WINDOW_BITS: usize = 4;

/// The width [`msm_limbs`] runs the batch check's `C` sum at: the GLV
/// halves' 64 bits and one for the signed recoding's carry.
const GLV_MSM_BITS: usize = 65;

/// A verifying key with its fixed pairing work precomputed: `e(α, β)`
/// for single checks, the Miller-loop line coefficients of γ, δ and β,
/// and fixed-base tables of the `IC` points and of α.
///
/// Single verification then costs table lookups for the `IC` sum, one
/// dynamic Miller pair plus two prepared-line replays and a final
/// exponentiation; batches of proofs share the replays, the squaring
/// chain, and the final exponentiation through
/// [`PreparedVerifyingKey::verify_batch`], and replay `((Σ rᵢ)·α, β)` in
/// place of a power of `e(α, β)`.
#[derive(Clone, Debug)]
pub struct PreparedVerifyingKey {
    /// The underlying verifying key.
    pub vk: VerifyingKey,
    alpha_beta: Fp12,
    gamma_prepared: G2Prepared,
    delta_prepared: G2Prepared,
    /// β's lines; `None` for a β outside G2, a key that rejects every
    /// proof.
    beta_prepared: Option<G2Prepared>,
    /// One table per `vk.ic` point, shared by clones.
    ic_tables: Arc<[WindowTable<G1Params>]>,
    /// α's table, shared by clones.
    alpha_table: Arc<WindowTable<G1Params>>,
}

impl From<VerifyingKey> for PreparedVerifyingKey {
    fn from(vk: VerifyingKey) -> Self {
        // A key whose β is outside G2 has no e(α, β); zero equals no
        // pairing value, so such a key rejects every proof.
        let alpha_beta =
            final_exponentiation(&miller_loop_mixed(&[(vk.alpha_g1, vk.beta_g2)], &[]))
                .unwrap_or(Fp12::zero());
        let gamma_prepared = G2Prepared::new(&vk.gamma_g2);
        let delta_prepared = G2Prepared::new(&vk.delta_g2);
        let beta_prepared = (alpha_beta != Fp12::zero()).then(|| G2Prepared::new(&vk.beta_g2));
        let table = |p: &G1Affine| WindowTable::new(p.to_projective(), TABLE_WINDOW_BITS);
        let ic_tables = vk.ic.iter().map(table).collect();
        let alpha_table = Arc::new(table(&vk.alpha_g1));
        PreparedVerifyingKey {
            vk,
            alpha_beta,
            gamma_prepared,
            delta_prepared,
            beta_prepared,
            ic_tables,
            alpha_table,
        }
    }
}

/// What an isolating batch check did *beyond* its one full-batch check: the
/// work an attacker's junk proofs buy from a relayer. All zero for a batch
/// that verified.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IsolationWork {
    /// Final exponentiations after the first: sub-range checks, the repeat
    /// of the full check without exactly rejected members, and the exact
    /// single-proof check every suspect faces before it is reported.
    pub checks: usize,
    /// Proof pairs whose `B` lines a Miller loop computed after the
    /// full-batch check — at most one per proof, the lines are recorded.
    pub dynamic_pairs: usize,
    /// Proof pairs replayed from recorded lines.
    pub replayed_pairs: usize,
}

impl std::ops::AddAssign for IsolationWork {
    fn add_assign(&mut self, rhs: Self) {
        self.checks += rhs.checks;
        self.dynamic_pairs += rhs.dynamic_pairs;
        self.replayed_pairs += rhs.replayed_pairs;
    }
}

/// Outcome of [`PreparedVerifyingKey::isolate`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Isolation {
    /// Indices of the invalid members, ascending; empty means the whole
    /// batch verified.
    pub invalid: Vec<usize>,
    /// What finding them cost after the full-batch check.
    pub work: IsolationWork,
}

impl PreparedVerifyingKey {
    /// Verifies a proof against public inputs (excluding the constant 1).
    ///
    /// # Errors
    ///
    /// Returns [`SnarkError::InputLengthMismatch`] when the number of public
    /// inputs does not match the key.
    pub fn verify(&self, proof: &Proof, public_inputs: &[Fr]) -> Result<bool, SnarkError> {
        if public_inputs.len() + 1 != self.vk.ic.len() {
            return Err(SnarkError::InputLengthMismatch);
        }
        let fan_out = waku_pool::current_num_threads();
        Ok(proof.is_on_curve() && self.exact(proof, public_inputs, None, fan_out))
    }

    /// The exact pairing equation of one on-curve proof,
    ///
    /// ```text
    /// e(A,B) = e(α,β)·e(IC,γ)·e(C,δ)
    ///   ⟺  FE(ml(−A,B)·ml(IC,γ)·ml(C,δ)) · e(α,β) = 1,
    /// ```
    ///
    /// with `B`'s lines replayed when an earlier loop recorded them (and so
    /// already certified `B ∈ G2`), computed and membership-tested
    /// otherwise: the Miller loop returns zero for a `B` outside G2.
    fn exact(
        &self,
        proof: &Proof,
        public_inputs: &[Fr],
        b_lines: Option<&G2Prepared>,
        fan_out: usize,
    ) -> bool {
        let ic = self.aggregate_ic(public_inputs);
        let neg_a = proof.a.neg();
        let fixed = [(ic, &self.gamma_prepared), (proof.c, &self.delta_prepared)];
        let trace = match b_lines {
            None => miller_loop_traced(&[(neg_a, proof.b)], &fixed, false, fan_out),
            Some(lines) => {
                miller_loop_traced(&[], &[(neg_a, lines), fixed[0], fixed[1]], false, fan_out)
            }
        };
        trace.outside_g2.is_empty()
            && final_exponentiation(&trace.product)
                .is_some_and(|fe| fe * self.alpha_beta == Fp12::one())
    }

    /// `IC₀ + Σ xⱼ·ICⱼ₊₁` for one instance vector.
    fn aggregate_ic(&self, public_inputs: &[Fr]) -> G1Affine {
        let coeffs: Vec<Fr> = std::iter::once(Fr::one())
            .chain(public_inputs.iter().copied())
            .collect();
        self.ic_sum(&coeffs).to_affine()
    }

    /// `Σ cⱼ·ICⱼ` from the fixed-base tables: `msm(&vk.ic, coeffs)`
    /// without the doubling chain. `coeffs` has one entry per `IC` point.
    fn ic_sum(&self, coeffs: &[Fr]) -> G1Projective {
        debug_assert_eq!(coeffs.len(), self.ic_tables.len());
        self.ic_tables
            .iter()
            .zip(coeffs)
            .fold(G1Projective::identity(), |sum, (table, c)| {
                sum.add(&table.mul(*c))
            })
    }

    /// The structural precondition of every batch entry point.
    fn check_arity(&self, proofs: &[Proof], inputs: &[Vec<Fr>]) -> Result<(), SnarkError> {
        if proofs.len() != inputs.len() || inputs.iter().any(|x| x.len() + 1 != self.vk.ic.len()) {
            return Err(SnarkError::InputLengthMismatch);
        }
        Ok(())
    }

    /// Verifies `proofs[i]` against `inputs[i]` for all `i` at once via a
    /// random linear combination: with transcript-derived scalars
    /// `rᵢ = aᵢ + λ_φ·bᵢ (mod r)` (64-bit halves, [`GlvScalar`]), the N
    /// pairing equations collapse into
    ///
    /// ```text
    /// FE( ∏ᵢ ml(−rᵢA_i, B_i) · ml(Σᵢ rᵢIC_i, γ) · ml(Σᵢ rᵢC_i, δ)
    ///       · ml((Σᵢ rᵢ)·α, β) )  ==  1,
    /// ```
    ///
    /// one mixed Miller loop (the dynamic pairs share every squaring and a
    /// per-step batch inversion, γ, δ and β replay prepared lines) and one
    /// final exponentiation; `ml((Σᵢ rᵢ)·α, β)` stands in for
    /// `e(α,β)^(Σᵢ rᵢ)`. G1's endomorphism `φ = [λ_φ]` halves the scalars'
    /// width: `rᵢ·Aᵢ = aᵢ·Aᵢ + bᵢ·φ(Aᵢ)` on one 65-step chain, and
    /// `Σᵢ rᵢ·Cᵢ` is one MSM over `(Cᵢ, aᵢ)` and `(φ(Cᵢ), bᵢ)` at 65 bits.
    /// The `rᵢ` are drawn by Fiat–Shamir from a hash over the verifying
    /// key, every proof, and every public input, so an adversary cannot
    /// craft proofs whose errors cancel: any invalid member fails the
    /// whole batch except with probability ≈2⁻¹²⁸.
    ///
    /// Returns `Ok(true)` for the empty batch. Use
    /// [`PreparedVerifyingKey::verify_batch_isolating`] to find *which*
    /// members of a failing batch are invalid.
    ///
    /// # Errors
    ///
    /// Returns [`SnarkError::InputLengthMismatch`] when `proofs` and
    /// `inputs` differ in length or any input vector does not match the
    /// key.
    pub fn verify_batch(&self, proofs: &[Proof], inputs: &[Vec<Fr>]) -> Result<bool, SnarkError> {
        self.check_arity(proofs, inputs)?;
        Ok(match proofs {
            [] => true,
            [proof] => self.verify(proof, &inputs[0])?,
            _ => {
                proofs.iter().all(Proof::is_on_curve) && {
                    let all: Vec<usize> = (0..proofs.len()).collect();
                    let root = Rlc::new(self, proofs, inputs, &all).check_all(false);
                    root.outside_g2.is_empty() && root.value == Fp12::one()
                }
            }
        })
    }

    /// Verifies a batch and, when it fails, returns the indices of exactly
    /// the invalid members (sorted ascending; empty means the whole batch
    /// verified): [`PreparedVerifyingKey::isolate`] without the work count.
    /// That is where the algorithm, its cost — one batch check when
    /// all-valid, at most `k·(⌈log₂N⌉ + 1)` further pairing checks for `k`
    /// offenders — and the soundness and exact-blame arguments for
    /// bisecting under one set of scalars are written down.
    ///
    /// # Errors
    ///
    /// Same as [`PreparedVerifyingKey::verify_batch`].
    pub fn verify_batch_isolating(
        &self,
        proofs: &[Proof],
        inputs: &[Vec<Fr>],
    ) -> Result<Vec<usize>, SnarkError> {
        Ok(self.isolate(proofs, inputs)?.invalid)
    }

    /// Verifies a batch and, when it fails, returns the indices of exactly
    /// the invalid members together with what finding them cost.
    ///
    /// A batch that verifies costs the one [`Self::verify_batch`] check and
    /// nothing else. When that check fails, isolation keeps what it
    /// computed — the scalars `rᵢ` and the scaled `−rᵢ·Aᵢ` — and bisects
    /// under them, so every sub-range `S` has a value in GT,
    ///
    /// ```text
    /// T_S = FE( ∏_{i∈S} ml(−rᵢAᵢ,Bᵢ) · ml(Σ_S rᵢICᵢ, γ) · ml(Σ_S rᵢCᵢ, δ)
    ///             · ml((Σ_S rᵢ)·α, β) )   =   ∏_{i∈S} eᵢ^{rᵢ},
    /// ```
    ///
    /// where `eᵢ` is proof `i`'s exact pairing-equation value (`eᵢ = 1` iff
    /// it verifies). The reduced pairing is bilinear as an identity of
    /// field elements, so `T_parent = T_left · T_right` *exactly*:
    ///
    /// * a failing node (`T ≠ 1`) computes its **left half only** and
    ///   derives the right one as `T · conj(T_left)` (inversion in GT is
    ///   conjugation); a half with `T = 1` is not entered;
    /// * the first Miller loop that visits a proof after the failed root
    ///   **records** its `Bᵢ` lines in the same lock-step pass and every
    ///   later visit replays them (no G2 arithmetic, no inversion);
    /// * a check with two or more pool threads to itself runs its halves
    ///   as two loops side by side — the split the pool makes anyway —
    ///   and keeps the left one's product, so the check of that left half
    ///   loops over γ/δ only. The failed root is such a check: the first
    ///   level of the bisection visits no proof pair at all;
    /// * the failing nodes of one tree level are independent and run as
    ///   pool tasks, each with its share of the pool;
    /// * a member is reported only after the exact single-proof equation
    ///   rejected it; the descent stops at a failing *pair*, whose split
    ///   would cost as much as the two exact checks. (Under fixed scalars
    ///   the exact check cannot disagree with the bisection: `T_{i} =
    ///   eᵢ^{rᵢ}` with `0 < rᵢ < r`, and GT has prime order `r`, so
    ///   `T_{i} ≠ 1 ⟹ eᵢ ≠ 1`.)
    ///
    /// **Exact rejections never enter a product.** A point off its curve,
    /// or a `B` the root loop's own membership comparison found outside G2
    /// (a replayed pair has no accumulator to test), is what
    /// [`Self::verify`] rejects deterministically: such members are
    /// reported by index and the full check is repeated — recording —
    /// without them.
    ///
    /// **Soundness of one set of scalars.** The `rᵢ` are Fiat–Shamir over
    /// the *whole* batch, so they are fixed only after every proof in
    /// every sub-range is. Each is `aᵢ + λ_φ·bᵢ` for 128 transcript bits
    /// `(aᵢ, bᵢ)`, and that map is injective on `[0, 2⁶⁴)²`: the kernel
    /// lattice's shortest vector exceeds 2⁶⁵ (`waku_curve`'s
    /// `endo::tests::glv_lattice_has_no_short_vector` Gauss-reduces its
    /// basis), so the `rᵢ` still take 2¹²⁸ distinct values, all nonzero
    /// once `(0, 0)` is remapped. For a fixed range with an invalid
    /// member, `∏ eᵢ^{rᵢ} = 1` is one linear relation on the exponents and
    /// holds for at most a 2⁻¹²⁸ share of the scalars; the tree has fewer
    /// than `2N` ranges, so the chance that *any* range hides an invalid
    /// member is below `2N·2⁻¹²⁸` — and a hidden member is a missed
    /// rejection, never a wrong blame.
    ///
    /// **Cost** for `k` invalid members among `N`: after the root, at most
    /// `k·(⌈log₂N⌉ + 1)` checks — left halves and exact ones, each one
    /// final exponentiation, one γ and one δ replay and one squaring chain
    /// — and at most `N` dynamic pairs in total, everything else replays.
    /// The returned [`IsolationWork`] is that count, and the same at every
    /// pool size except that a wider pool loops over fewer pairs.
    ///
    /// # Errors
    ///
    /// Same as [`PreparedVerifyingKey::verify_batch`].
    pub fn isolate(&self, proofs: &[Proof], inputs: &[Vec<Fr>]) -> Result<Isolation, SnarkError> {
        self.check_arity(proofs, inputs)?;
        if let [proof] = proofs {
            // One proof: the exact check is the batch check.
            let invalid = if self.verify(proof, &inputs[0])? {
                Vec::new()
            } else {
                vec![0]
            };
            return Ok(Isolation {
                invalid,
                work: IsolationWork::default(),
            });
        }
        let (live, mut invalid): (Vec<usize>, Vec<usize>) =
            (0..proofs.len()).partition(|&i| proofs[i].is_on_curve());
        let mut work = IsolationWork::default();
        if !live.is_empty() {
            let mut rlc = Rlc::new(self, proofs, inputs, &live);
            let mut root = rlc.check_all(false);
            if !root.outside_g2.is_empty() {
                invalid.extend(rlc.remove(&root.outside_g2));
                root = rlc.check_all(true);
                work += root.work;
            }
            invalid.extend(rlc.bisect(root, &mut work));
        }
        invalid.sort_unstable();
        Ok(Isolation { invalid, work })
    }

    /// Fiat–Shamir RLC scalars: a running SHA-256 transcript over a domain
    /// tag, the verifying key, and every (proof, inputs) pair, squeezed
    /// into 128 bits per proof, the two 64-bit halves of one
    /// [`GlvScalar`] (`(0, 0)` remapped to `(1, 0)`).
    fn batch_scalars(&self, proofs: &[Proof], inputs: &[Vec<Fr>]) -> Vec<GlvScalar> {
        let mut h = waku_hash::Sha256::new();
        h.update(b"waku-groth16-batch-v2");
        h.update(&self.vk.alpha_g1.x.to_le_bytes());
        h.update(&self.vk.alpha_g1.y.to_le_bytes());
        for g2 in [&self.vk.beta_g2, &self.vk.gamma_g2, &self.vk.delta_g2] {
            h.update(&g2.x.c0.to_le_bytes());
            h.update(&g2.x.c1.to_le_bytes());
            h.update(&g2.y.c0.to_le_bytes());
            h.update(&g2.y.c1.to_le_bytes());
        }
        for ic in &self.vk.ic {
            h.update(&ic.x.to_le_bytes());
            h.update(&ic.y.to_le_bytes());
        }
        for (proof, x) in proofs.iter().zip(inputs.iter()) {
            h.update(&proof.to_bytes());
            for xi in x {
                h.update(&xi.to_le_bytes());
            }
        }
        let seed = h.finalize();
        (0..proofs.len() as u64)
            .map(|i| {
                let mut h = waku_hash::Sha256::new();
                h.update(&seed);
                h.update(&i.to_le_bytes());
                let digest = h.finalize();
                let a = u64::from_le_bytes(digest[0..8].try_into().unwrap());
                let b = u64::from_le_bytes(digest[8..16].try_into().unwrap());
                GlvScalar {
                    a: if (a, b) == (0, 0) { 1 } else { a },
                    b,
                }
            })
            .collect()
    }
}

/// One live proof of a batch under the batch's scalars.
struct Term<'a> {
    /// Position in the caller's batch.
    index: usize,
    proof: &'a Proof,
    inputs: &'a [Fr],
    /// The batch scalar, as an element of Fr and as its GLV halves.
    r: Fr,
    k: GlvScalar,
    /// `−r·A`.
    neg_ra: G1Affine,
    /// `B`'s Miller-loop lines, set by the first loop that visits the
    /// proof after the full-batch check failed.
    lines: OnceLock<G2Prepared>,
}

/// A batch under its one random linear combination: what the full-batch
/// check computes once and every sub-range check of an isolation reuses.
/// Lives for one `verify_batch`/`isolate` call, recorded lines included.
struct Rlc<'a> {
    pvk: &'a PreparedVerifyingKey,
    terms: Vec<Term<'a>>,
}

/// Where a range of terms is split: the left half is the smaller one.
fn midpoint(range: &Range<usize>) -> usize {
    range.start + range.len() / 2
}

/// One RLC check over a range of terms.
struct Checked {
    /// `T_S` (see [`PreparedVerifyingKey::isolate`]); zero for a loop that
    /// met a `B` outside G2.
    value: Fp12,
    /// Term positions whose `B` the loop found outside G2.
    outside_g2: Vec<usize>,
    /// `∏ ml(−rᵢAᵢ,Bᵢ)` over the left half of the range alone, when the
    /// check ran its two halves as two loops: the product the left half's
    /// own check would otherwise loop over the same pairs for.
    left_pairs: Option<Fp12>,
    work: IsolationWork,
}

/// One Miller loop of a check: its product (no final exponentiation yet),
/// the term positions whose `B` it found outside G2, and the proof pairs
/// it visited.
struct Looped {
    product: Fp12,
    outside_g2: Vec<usize>,
    work: IsolationWork,
}

impl<'a> Rlc<'a> {
    /// Draws the scalars over the whole batch and scales `−rᵢ·Aᵢ` for the
    /// `live` members (ascending batch indices, every point on its curve).
    fn new(
        pvk: &'a PreparedVerifyingKey,
        proofs: &'a [Proof],
        inputs: &'a [Vec<Fr>],
        live: &[usize],
    ) -> Self {
        let ks = pvk.batch_scalars(proofs, inputs);
        let (neg_a, live_ks): (Vec<G1Affine>, Vec<GlvScalar>) =
            live.iter().map(|&i| (proofs[i].a.neg(), ks[i])).unzip();
        let scaled = glv_mul_batch(&neg_a, &live_ks);
        let terms = live
            .iter()
            .zip(Projective::batch_to_affine(&scaled))
            .map(|(&index, neg_ra)| Term {
                index,
                proof: &proofs[index],
                inputs: &inputs[index],
                r: ks[index].to_fr(),
                k: ks[index],
                neg_ra,
                lines: OnceLock::new(),
            })
            .collect();
        Rlc { pvk, terms }
    }

    /// The check over every term, on the whole pool.
    fn check_all(&self, record: bool) -> Checked {
        let threads = waku_pool::current_num_threads();
        self.check(0..self.terms.len(), None, record, threads)
    }

    /// `T_S` for the terms in `range` on at most `fan_out` pool tasks: the
    /// G1 aggregation, the Miller loops and one final exponentiation. A key
    /// whose β is outside G2 gets zero, which no range passes.
    ///
    /// With a pool share of two or more the range's halves run as two
    /// loops side by side — the split the pool would make anyway — and
    /// the left one's product is handed back, so that a caller about to
    /// check that half passes it in as `pairs` and loops over γ/δ only.
    /// Terms with recorded lines replay them; with `record` the others
    /// leave theirs behind.
    fn check(
        &self,
        range: Range<usize>,
        pairs: Option<Fp12>,
        record: bool,
        fan_out: usize,
    ) -> Checked {
        let pvk = self.pvk;
        let Some(beta_prepared) = &pvk.beta_prepared else {
            return Checked {
                value: Fp12::zero(),
                outside_g2: Vec::new(),
                left_pairs: None,
                work: IsolationWork {
                    checks: 1,
                    ..IsolationWork::default()
                },
            };
        };
        let terms = &self.terms[range.clone()];
        // Σᵢ rᵢ·ICᵢ folded per *base*: (Σrᵢ)·IC₀ + Σⱼ (Σᵢ rᵢxᵢⱼ)·ICⱼ₊₁ —
        // one table-driven sum over the key's IC points instead of N
        // point adds — and (Σrᵢ)·α from α's table.
        let mut ic_coeffs = vec![Fr::zero(); pvk.vk.ic.len()];
        for term in terms {
            ic_coeffs[0] += term.r;
            for (c, xj) in ic_coeffs[1..].iter_mut().zip(term.inputs) {
                *c += term.r * *xj;
            }
        }
        // Σᵢ rᵢ·Cᵢ = Σᵢ aᵢ·Cᵢ + bᵢ·φ(Cᵢ) runs as a (pooled, when large)
        // MSM at the halves' width alongside the table lookups.
        let (ic_alpha, c_agg) = waku_pool::join(
            || {
                let ic_sum = pvk.ic_sum(&ic_coeffs);
                Projective::batch_to_affine(&[ic_sum, pvk.alpha_table.mul(ic_coeffs[0])])
            },
            || {
                let c: Vec<G1Affine> = terms.iter().map(|t| t.proof.c).collect();
                let phi_c: Vec<G1Affine> = c.iter().map(phi).collect();
                let halves = |half: fn(&GlvScalar) -> u64| -> Vec<[u64; 4]> {
                    terms.iter().map(|t| [half(&t.k), 0, 0, 0]).collect()
                };
                let parts = [(&c[..], halves(|k| k.a)), (&phi_c[..], halves(|k| k.b))];
                msm_limbs(&parts, GLV_MSM_BITS).to_affine()
            },
        );
        let fixed = [
            (ic_alpha[0], &pvk.gamma_prepared),
            (c_agg, &pvk.delta_prepared),
            (ic_alpha[1], beta_prepared),
        ];

        let mut left_pairs = None;
        let loops = match pairs {
            Some(_) => vec![self.pair_loop(range.end..range.end, &fixed, record, 1)],
            None if fan_out > 1 => {
                let mid = midpoint(&range);
                let (left, right) = waku_pool::join(
                    || self.pair_loop(range.start..mid, &[], record, fan_out / 2),
                    || self.pair_loop(mid..range.end, &fixed, record, fan_out - fan_out / 2),
                );
                left_pairs = Some(left.product);
                vec![left, right]
            }
            None => vec![self.pair_loop(range, &fixed, record, 1)],
        };
        let mut product = pairs.unwrap_or(Fp12::one());
        let mut outside_g2 = Vec::new();
        let mut work = IsolationWork {
            checks: 1,
            ..IsolationWork::default()
        };
        for part in loops {
            product *= part.product;
            outside_g2.extend(part.outside_g2);
            work += part.work;
        }
        let value = if outside_g2.is_empty() {
            final_exponentiation(&product).unwrap_or(Fp12::zero())
        } else {
            Fp12::zero()
        };
        Checked {
            value,
            outside_g2,
            left_pairs,
            work,
        }
    }

    /// One mixed Miller loop over the proof pairs of the terms in `cut`
    /// and the `fixed` pairs.
    fn pair_loop(
        &self,
        cut: Range<usize>,
        fixed: &[(G1Affine, &G2Prepared)],
        record: bool,
        fan_out: usize,
    ) -> Looped {
        let (mut fresh, mut fresh_at) = (Vec::new(), Vec::new());
        let mut replayed = Vec::new();
        for at in cut {
            let term = &self.terms[at];
            match term.lines.get() {
                Some(lines) => replayed.push((term.neg_ra, lines)),
                None => {
                    fresh.push((term.neg_ra, term.proof.b));
                    fresh_at.push(at);
                }
            }
        }
        let work = IsolationWork {
            checks: 0,
            dynamic_pairs: fresh.len(),
            replayed_pairs: replayed.len(),
        };
        replayed.extend_from_slice(fixed);
        let trace = miller_loop_traced(&fresh, &replayed, record, fan_out);
        for (&at, lines) in fresh_at.iter().zip(trace.lines) {
            self.terms[at]
                .lines
                .set(lines)
                .expect("ranges looped over side by side are disjoint");
        }
        Looped {
            product: trace.product,
            outside_g2: trace.outside_g2.iter().map(|&i| fresh_at[i]).collect(),
            work,
        }
    }

    /// Drops the terms at `positions` (ascending) and returns their batch
    /// indices.
    fn remove(&mut self, positions: &[usize]) -> Vec<usize> {
        let mut removed = Vec::with_capacity(positions.len());
        let mut at = 0;
        self.terms.retain(|term| {
            let keep = positions.binary_search(&at).is_err();
            at += 1;
            if !keep {
                removed.push(term.index);
            }
            keep
        });
        removed
    }

    /// Bisection in GT below the failed check `root` over all terms (see
    /// [`PreparedVerifyingKey::isolate`]); returns the batch indices of
    /// the members the exact check rejected.
    fn bisect(&self, root: Checked, work: &mut IsolationWork) -> Vec<usize> {
        /// A failing range, its value, and its left half's pair product
        /// if the check that found it failing kept one.
        type Node = (Range<usize>, Fp12, Option<Fp12>);
        let threads = waku_pool::current_num_threads();
        // The failing ranges of one tree level, and the proofs the descent
        // ended at. It ends at a failing *pair* already: splitting it costs
        // one check and then the exact check of whoever is left suspect,
        // which is no less than the exact check of both.
        let mut level: Vec<Node> = Vec::new();
        let mut suspects = Vec::new();
        let mut descend = |(range, value, left_pairs): Node, level: &mut Vec<Node>| {
            if value == Fp12::one() {
            } else if range.len() <= 2 {
                suspects.extend(range);
            } else {
                level.push((range, value, left_pairs));
            }
        };
        descend(
            (0..self.terms.len(), root.value, root.left_pairs),
            &mut level,
        );
        while !level.is_empty() {
            let fan_out = (threads / level.len()).max(1);
            let lefts = waku_pool::par_map(&level, |(range, _, left_pairs): &Node| {
                self.check(range.start..midpoint(range), *left_pairs, true, fan_out)
            });
            let mut next = Vec::new();
            for ((range, value, _), left) in level.into_iter().zip(lefts) {
                debug_assert!(left.outside_g2.is_empty(), "the root loop tested every B");
                *work += left.work;
                let mid = midpoint(&range);
                let right = value * left.value.conjugate();
                descend((range.start..mid, left.value, left.left_pairs), &mut next);
                descend((mid..range.end, right, None), &mut next);
            }
            level = next;
        }

        let fan_out = (threads / suspects.len().max(1)).max(1);
        let verdicts = waku_pool::par_map(&suspects, |&at| {
            let term = &self.terms[at];
            self.pvk
                .exact(term.proof, term.inputs, term.lines.get(), fan_out)
        });
        let mut invalid = Vec::new();
        for (at, verified) in suspects.into_iter().zip(verdicts) {
            let term = &self.terms[at];
            let replayed = term.lines.get().is_some() as usize;
            *work += IsolationWork {
                checks: 1,
                dynamic_pairs: 1 - replayed,
                replayed_pairs: replayed,
            };
            if !verified {
                invalid.push(term.index);
            }
        }
        invalid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    thread_local! {
        /// What [`Rolled`]'s `Drop` left behind on this thread, per dropped
        /// state: `(assignment length, entries still non-zero)`.
        pub(super) static WIPED: std::cell::RefCell<Vec<(usize, usize)>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }

    /// x³ + x + 5 = out (the classic toy circuit), x = 3, out = 35.
    fn cubic_cs(x_val: u64, out_val: u64) -> ConstraintSystem {
        let mut cs = ConstraintSystem::new();
        let out = cs.alloc_input(Fr::from_u64(out_val));
        let x = cs.alloc_witness(Fr::from_u64(x_val));
        let x2 = cs.alloc_witness(Fr::from_u64(x_val * x_val));
        let x3 = cs.alloc_witness(Fr::from_u64(x_val * x_val * x_val));
        cs.enforce(x, x, x2);
        cs.enforce(x2, x, x3);
        // (x3 + x + 5) · 1 = out
        use crate::r1cs::{LinearCombination, Variable};
        let lhs = LinearCombination::from_var(x3)
            .add_term(x, Fr::one())
            .add_term(Variable::ONE, Fr::from_u64(5));
        cs.enforce(lhs, Variable::ONE, out);
        cs.finalize();
        cs
    }

    #[test]
    fn prove_verify_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let cs = cubic_cs(3, 35);
        let pk = setup(&cs, &mut rng);
        let proof = prove(&pk, &cs, &mut rng).unwrap();
        let pvk = PreparedVerifyingKey::from(pk.vk.clone());
        assert!(pvk.verify(&proof, &[Fr::from_u64(35)]).unwrap());
    }

    #[test]
    fn wrong_public_input_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        let cs = cubic_cs(3, 35);
        let pk = setup(&cs, &mut rng);
        let proof = prove(&pk, &cs, &mut rng).unwrap();
        let pvk = PreparedVerifyingKey::from(pk.vk.clone());
        assert!(!pvk.verify(&proof, &[Fr::from_u64(36)]).unwrap());
    }

    #[test]
    fn unsatisfied_witness_rejected_at_prove_time() {
        let mut rng = StdRng::seed_from_u64(3);
        let good = cubic_cs(3, 35);
        let pk = setup(&good, &mut rng);
        let bad = cubic_cs(4, 35); // 4³+4+5 = 73 ≠ 35
        assert!(matches!(
            prove(&pk, &bad, &mut rng),
            Err(SnarkError::Unsatisfied(_))
        ));
    }

    #[test]
    fn tampered_proof_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let cs = cubic_cs(3, 35);
        let pk = setup(&cs, &mut rng);
        let proof = prove(&pk, &cs, &mut rng).unwrap();
        let tampered = Proof {
            a: proof.c, // swap components
            b: proof.b,
            c: proof.a,
        };
        let pvk = PreparedVerifyingKey::from(pk.vk.clone());
        assert!(!pvk.verify(&tampered, &[Fr::from_u64(35)]).unwrap());
    }

    #[test]
    fn proofs_are_randomized() {
        let mut rng = StdRng::seed_from_u64(5);
        let cs = cubic_cs(3, 35);
        let pk = setup(&cs, &mut rng);
        let p1 = prove(&pk, &cs, &mut rng).unwrap();
        let p2 = prove(&pk, &cs, &mut rng).unwrap();
        assert_ne!(p1, p2, "zero-knowledge randomization");
        let pvk = PreparedVerifyingKey::from(pk.vk.clone());
        assert!(pvk.verify(&p1, &[Fr::from_u64(35)]).unwrap());
        assert!(pvk.verify(&p2, &[Fr::from_u64(35)]).unwrap());
    }

    #[test]
    fn warm_key_proves_what_a_cold_key_proves() {
        let mut rng = StdRng::seed_from_u64(14);
        let pk = setup(&cubic_cs(3, 35), &mut rng);
        let proof_of = |pk: &ProvingKey, x: u64, out: u64, seed: u64| {
            prove(pk, &cubic_cs(x, out), &mut StdRng::seed_from_u64(seed))
        };
        assert_eq!(pk.last_changed_vars(), None);
        proof_of(&pk, 3, 35, 1).unwrap();
        assert_eq!(pk.last_changed_vars(), Some(5), "1, out, x, x², x³");
        // A refused attempt leaves the carried state as it was…
        assert!(matches!(
            proof_of(&pk, 4, 35, 2),
            Err(SnarkError::Unsatisfied(_))
        ));
        assert_eq!(pk.last_changed_vars(), Some(5));
        // …so the next proof rolls forward from the last *good* one and
        // still equals what a key with no history produces.
        let warm = proof_of(&pk, 2, 15, 3).unwrap();
        assert_eq!(pk.last_changed_vars(), Some(4), "the constant 1 stayed");
        assert_eq!(warm, proof_of(&pk.clone(), 2, 15, 3).unwrap());
        let pvk = PreparedVerifyingKey::from(pk.vk.clone());
        assert!(pvk.verify(&warm, &[Fr::from_u64(15)]).unwrap());
        // Same statement again: nothing to multiply, fresh blinders.
        let again = proof_of(&pk, 2, 15, 4).unwrap();
        assert_eq!(pk.last_changed_vars(), Some(0));
        assert_ne!(again, warm);
        assert_eq!(again, proof_of(&pk.clone(), 2, 15, 4).unwrap());
    }

    #[test]
    fn carried_state_is_wiped_when_replaced_and_when_the_key_drops() {
        let mut rng = StdRng::seed_from_u64(16);
        let pk = setup(&cubic_cs(3, 35), &mut rng);
        let wiped = || WIPED.with(|log| log.borrow().clone());
        let before = wiped().len();
        prove(&pk, &cubic_cs(3, 35), &mut rng).unwrap();
        let carried = pk.memo.load().unwrap();
        assert!(carried.z.iter().any(|entry| !entry.is_zero()));
        drop(carried);
        // Only the cold start state (all zero, never stored) is gone.
        assert_eq!(wiped()[before..], [(5, 0)]);
        // The next proof replaces the carried state; its last holder — the
        // proof that rolled it forward — lets go when it returns.
        prove(&pk, &cubic_cs(2, 15), &mut rng).unwrap();
        assert_eq!(wiped()[before..], [(5, 0), (5, 0)]);
        // A test-held reference keeps the state alive past the key…
        let carried = pk.memo.load().unwrap();
        drop(pk);
        assert_eq!(wiped().len(), before + 2);
        assert!(carried.z.iter().any(|entry| !entry.is_zero()));
        // …and the last holder wipes all five entries.
        drop(carried);
        assert_eq!(wiped()[before..], [(5, 0), (5, 0), (5, 0)]);
    }

    #[test]
    fn input_length_mismatch_errors() {
        let mut rng = StdRng::seed_from_u64(6);
        let cs = cubic_cs(3, 35);
        let pk = setup(&cs, &mut rng);
        let proof = prove(&pk, &cs, &mut rng).unwrap();
        let pvk = PreparedVerifyingKey::from(pk.vk.clone());
        assert!(matches!(
            pvk.verify(&proof, &[]),
            Err(SnarkError::InputLengthMismatch)
        ));
    }

    #[test]
    fn proof_byte_roundtrip() {
        let mut rng = StdRng::seed_from_u64(7);
        let cs = cubic_cs(3, 35);
        let pk = setup(&cs, &mut rng);
        let proof = prove(&pk, &cs, &mut rng).unwrap();
        let bytes = proof.to_bytes();
        let back = Proof::from_bytes(&bytes).unwrap();
        assert_eq!(back, proof);
        // Corrupt a coordinate: either parse failure or off-curve.
        let mut bad = bytes;
        bad[0] ^= 1;
        assert!(Proof::from_bytes(&bad).is_none());
    }

    #[test]
    fn prepared_key_matches_oneshot() {
        let mut rng = StdRng::seed_from_u64(8);
        let cs = cubic_cs(3, 35);
        let pk = setup(&cs, &mut rng);
        let proof = prove(&pk, &cs, &mut rng).unwrap();
        let pvk = PreparedVerifyingKey::from(pk.vk.clone());
        assert!(pvk.verify(&proof, &[Fr::from_u64(35)]).unwrap());
    }

    #[test]
    fn ic_tables_sum_what_the_msm_sums() {
        // Six IC points, the RLN key's shape, and coefficients at the
        // tables' edges: every digit zero, every digit maximal, the
        // verifier's leading 1, a short (135-bit) leading coefficient and
        // a zero public input between nonzero ones.
        let mut rng = StdRng::seed_from_u64(17);
        let g1 = G1Projective::generator();
        let g2 = G2Projective::generator();
        let vk = VerifyingKey {
            alpha_g1: g1.mul(Fr::random(&mut rng)).to_affine(),
            beta_g2: g2.mul(Fr::random(&mut rng)).to_affine(),
            gamma_g2: g2.mul(Fr::random(&mut rng)).to_affine(),
            delta_g2: g2.mul(Fr::random(&mut rng)).to_affine(),
            ic: (0..6)
                .map(|_| g1.mul(Fr::random(&mut rng)).to_affine())
                .collect(),
        };
        let pvk = PreparedVerifyingKey::from(vk.clone());
        let random = |rng: &mut StdRng| -> Vec<Fr> { (0..6).map(|_| Fr::random(rng)).collect() };
        let sum_135 = Fr::from_canonical_limbs([rng.next_u64(), rng.next_u64(), 0x4B, 0]).unwrap();
        let mut leading_one = random(&mut rng);
        leading_one[0] = Fr::one();
        let mut batch = random(&mut rng);
        batch[0] = sum_135;
        let mut zero_input = leading_one.clone();
        zero_input[3] = Fr::zero();
        let cases = [
            vec![Fr::zero(); 6],
            leading_one,
            vec![-Fr::one(); 6],
            batch,
            zero_input,
            random(&mut rng),
        ];
        for coeffs in &cases {
            assert_eq!(pvk.ic_sum(coeffs), msm(&vk.ic, coeffs), "{coeffs:?}");
        }
        assert_eq!(
            pvk.aggregate_ic(&cases[1][1..]),
            msm(&vk.ic, &cases[1]).to_affine()
        );
    }

    #[test]
    fn proof_with_a_zero_public_input_verifies() {
        // x · x = out with x = 0: the public input is 0, so its IC point
        // contributes nothing and the table lookup finds no digit.
        let mut cs = ConstraintSystem::new();
        let out = cs.alloc_input(Fr::zero());
        let x = cs.alloc_witness(Fr::zero());
        cs.enforce(x, x, out);
        cs.finalize();
        let mut rng = StdRng::seed_from_u64(18);
        let pk = setup(&cs, &mut rng);
        let proof = prove(&pk, &cs, &mut rng).unwrap();
        let pvk = PreparedVerifyingKey::from(pk.vk.clone());
        assert!(pvk.verify(&proof, &[Fr::zero()]).unwrap());
        assert!(!pvk.verify(&proof, &[Fr::one()]).unwrap());
        let (proofs, inputs) = (vec![proof; 3], vec![vec![Fr::zero()]; 3]);
        assert!(pvk.verify_batch(&proofs, &inputs).unwrap());
    }

    #[test]
    fn batch_verify_accepts_valid_and_rejects_corrupted() {
        let mut rng = StdRng::seed_from_u64(10);
        let cs = cubic_cs(3, 35);
        let pk = setup(&cs, &mut rng);
        let pvk = PreparedVerifyingKey::from(pk.vk.clone());
        let proofs: Vec<Proof> = (0..5).map(|_| prove(&pk, &cs, &mut rng).unwrap()).collect();
        let inputs: Vec<Vec<Fr>> = vec![vec![Fr::from_u64(35)]; 5];
        assert!(pvk.verify_batch(&proofs, &inputs).unwrap());
        assert!(pvk.verify_batch(&[], &[]).unwrap(), "empty batch is valid");

        // Corrupt one member: the whole batch must fail, and bisection
        // must name exactly that index.
        let mut tampered = proofs.clone();
        tampered[3] = Proof {
            a: proofs[3].c,
            b: proofs[3].b,
            c: proofs[3].a,
        };
        assert!(!pvk.verify_batch(&tampered, &inputs).unwrap());
        assert_eq!(
            pvk.verify_batch_isolating(&tampered, &inputs).unwrap(),
            vec![3]
        );

        // A corrupted *public input* is caught the same way.
        let mut bad_inputs = inputs.clone();
        bad_inputs[1] = vec![Fr::from_u64(36)];
        assert!(!pvk.verify_batch(&proofs, &bad_inputs).unwrap());
        assert_eq!(
            pvk.verify_batch_isolating(&proofs, &bad_inputs).unwrap(),
            vec![1]
        );
    }

    #[test]
    fn isolation_matches_sequential_verify_on_all_256_patterns() {
        // N = 8: every valid/invalid pattern, so every combination of
        // "left half's value is 1 / is the parent's / is neither" is walked.
        let mut rng = StdRng::seed_from_u64(13);
        let cs = cubic_cs(3, 35);
        let pk = setup(&cs, &mut rng);
        let pvk = PreparedVerifyingKey::from(pk.vk.clone());
        let good: Vec<Proof> = (0..8).map(|_| prove(&pk, &cs, &mut rng).unwrap()).collect();
        // Even slots are corrupted through the public input, odd slots
        // through the proof itself.
        let variant = |i: usize, corrupt: bool| -> (Proof, Vec<Fr>) {
            match (corrupt, i % 2) {
                (false, _) => (good[i], vec![Fr::from_u64(35)]),
                (true, 0) => (good[i], vec![Fr::from_u64(36)]),
                (true, _) => {
                    let swapped = Proof {
                        a: good[i].c,
                        b: good[i].b,
                        c: good[i].a,
                    };
                    (swapped, vec![Fr::from_u64(35)])
                }
            }
        };
        // The sequential verdict of slot i depends only on (i, corrupt).
        let rejected = |i: usize, corrupt: bool| {
            let (proof, input) = variant(i, corrupt);
            !pvk.verify(&proof, &input).unwrap()
        };
        let verdicts: Vec<[bool; 2]> = (0..8)
            .map(|i| [rejected(i, false), rejected(i, true)])
            .collect();
        // One loop per check at pool size 1; at 2 and 4 a lone check runs
        // its halves side by side and the checks of one level share the
        // pool.
        for threads in [1, 2, 4] {
            waku_pool::with_threads(threads, || {
                for mask in 0usize..256 {
                    let corrupt = |i: usize| (mask >> i) & 1 == 1;
                    let (proofs, inputs): (Vec<Proof>, Vec<Vec<Fr>>) =
                        (0..8).map(|i| variant(i, corrupt(i))).unzip();
                    let expected: Vec<usize> = (0..8)
                        .filter(|&i| verdicts[i][corrupt(i) as usize])
                        .collect();
                    assert_eq!(
                        pvk.verify_batch_isolating(&proofs, &inputs).unwrap(),
                        expected,
                        "mask = {mask:#010b}, pool = {threads}"
                    );
                    assert_eq!(
                        pvk.verify_batch(&proofs, &inputs).unwrap(),
                        expected.is_empty()
                    );
                }
            });
        }
    }

    #[test]
    fn isolation_work_stays_within_the_stated_multiple() {
        // ROADMAP D(4), as code: for k invalid proofs among N, at most
        // k·(⌈log₂N⌉ + 1) final exponentiations after the full-batch check
        // and at most N Miller pairs computed from scratch; none for a
        // batch that verifies.
        const N: usize = 64;
        let mut rng = StdRng::seed_from_u64(15);
        let cs = cubic_cs(3, 35);
        let pk = setup(&cs, &mut rng);
        let pvk = PreparedVerifyingKey::from(pk.vk.clone());
        let proofs: Vec<Proof> = (0..N).map(|_| prove(&pk, &cs, &mut rng).unwrap()).collect();
        let good = vec![vec![Fr::from_u64(35)]; N];
        let depth = N.next_power_of_two().trailing_zeros() as usize;
        let bad_sets: [&[usize]; 6] = [
            &[41],
            &[5, 41],
            &[5, 20, 41, 60],
            &[40, 41, 42, 43],
            &[3, 11, 19, 27, 35, 43, 51, 59],
            &[0, 63],
        ];
        let at_pool = |threads: usize| {
            waku_pool::with_threads(threads, || {
                assert_eq!(pvk.isolate(&proofs, &good).unwrap(), Isolation::default());
                bad_sets.map(|bad| {
                    let mut inputs = good.clone();
                    for &i in bad {
                        inputs[i] = vec![Fr::from_u64(36)];
                    }
                    let Isolation { invalid, work } = pvk.isolate(&proofs, &inputs).unwrap();
                    assert_eq!(invalid, bad, "pool = {threads}");
                    assert!(
                        work.checks <= bad.len() * (depth + 1),
                        "{work:?} for {bad:?}, pool = {threads}"
                    );
                    assert!(
                        work.dynamic_pairs <= N,
                        "{work:?} for {bad:?}, pool = {threads}"
                    );
                    work
                })
            })
        };
        let serial = at_pool(1);
        // One offender on a path of six levels, one exact check at its end.
        assert_eq!(serial[0].checks, 7);
        // The tree walked — hence the number of checks — is the same at
        // every pool size; a wider pool only loops over fewer pairs, where
        // a check already held its left half's product.
        for threads in [2, 4] {
            for (pooled, serial) in at_pool(threads).iter().zip(&serial) {
                assert_eq!(pooled.checks, serial.checks, "pool = {threads}");
                assert!(pooled.dynamic_pairs <= serial.dynamic_pairs);
            }
        }
    }

    #[test]
    fn batches_around_the_ladder_pippenger_cutover_blame_exactly_their_offender() {
        // The `C` sum has 2n GLV terms, so 15 and 16 proofs sit on either
        // side of the MSM's 32-term cutover, and isolation's sub-ranges
        // run the short ladder. One offender at the first, middle or last
        // position, through its input or through the proof itself.
        let mut rng = StdRng::seed_from_u64(19);
        let cs = cubic_cs(3, 35);
        let pk = setup(&cs, &mut rng);
        let pvk = PreparedVerifyingKey::from(pk.vk.clone());
        let all: Vec<Proof> = (0..64)
            .map(|_| prove(&pk, &cs, &mut rng).unwrap())
            .collect();
        for n in [2, 15, 16, 17, 31, 32, 33, 64] {
            let proofs = &all[..n];
            let inputs = vec![vec![Fr::from_u64(35)]; n];
            assert!(pvk.verify_batch(proofs, &inputs).unwrap(), "n = {n}");
            for bad in [0, n / 2, n - 1] {
                let (mut proofs, mut inputs) = (proofs.to_vec(), inputs.clone());
                if bad == n / 2 {
                    (proofs[bad].a, proofs[bad].c) = (proofs[bad].c, proofs[bad].a);
                } else {
                    inputs[bad] = vec![Fr::from_u64(36)];
                }
                assert!(
                    !pvk.verify_batch(&proofs, &inputs).unwrap(),
                    "n = {n}, bad = {bad}"
                );
                let isolation = pvk.isolate(&proofs, &inputs).unwrap();
                assert_eq!(isolation.invalid, vec![bad], "n = {n}");
            }
        }
    }

    #[test]
    fn batch_verify_length_mismatches_error() {
        let mut rng = StdRng::seed_from_u64(12);
        let cs = cubic_cs(3, 35);
        let pk = setup(&cs, &mut rng);
        let pvk = PreparedVerifyingKey::from(pk.vk.clone());
        let proof = prove(&pk, &cs, &mut rng).unwrap();
        assert!(matches!(
            pvk.verify_batch(&[proof], &[]),
            Err(SnarkError::InputLengthMismatch)
        ));
        assert!(matches!(
            pvk.verify_batch(&[proof], &[vec![]]),
            Err(SnarkError::InputLengthMismatch)
        ));
    }

    #[test]
    fn key_sizes_are_accounted() {
        let mut rng = StdRng::seed_from_u64(9);
        let cs = cubic_cs(3, 35);
        let pk = setup(&cs, &mut rng);
        assert!(pk.size_in_bytes() > pk.vk.size_in_bytes());
        assert_eq!(pk.vk.ic.len(), 2);
    }
}
