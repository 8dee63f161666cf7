//! The R1CS → QAP reduction used by both the Groth16 setup (evaluating the
//! per-variable polynomials at the toxic point τ) and the prover (computing
//! the quotient polynomial `h = (A·B − C)/Z`).
//!
//! The prover-side [`quotient_poly_checked`] is a proving hot path and runs on the
//! [`waku_pool`] work-stealing pool: the per-constraint ⟨row, z⟩
//! evaluations are chunked across workers, the three evaluations→coset
//! transforms run as concurrent tasks (each using the parallel FFT in
//! `waku-arith`), and the pointwise quotient loop is chunk-parallel. All
//! of it is bit-identical to the serial schedule at any pool size.

use waku_arith::batch_inv::batch_inverse;
use waku_arith::fft::Radix2Domain;
use waku_arith::fields::Fr;
use waku_arith::fp::{with_lanes, LaneBody, LaneField, LaneTask};
use waku_arith::traits::{Field, PrimeField};

use crate::r1cs::ConstraintSystem;

/// Per-variable QAP polynomial evaluations at a fixed point τ:
/// `a[i] = Aᵢ(τ)`, etc.
#[derive(Clone, Debug)]
pub struct QapEvaluations {
    /// `Aᵢ(τ)` per variable (flat index order).
    pub a: Vec<Fr>,
    /// `Bᵢ(τ)` per variable.
    pub b: Vec<Fr>,
    /// `Cᵢ(τ)` per variable.
    pub c: Vec<Fr>,
    /// `Z(τ)`, the vanishing polynomial of the constraint domain.
    pub zt: Fr,
    /// The evaluation domain (needed again by the prover).
    pub domain: Radix2Domain<Fr>,
}

/// Evaluates all QAP polynomials at `tau`.
///
/// The QAP interpolates constraint `j` at the j-th domain point, so
/// `Aᵢ(τ) = Σⱼ coeff(i, j) · Lⱼ(τ)` with `Lⱼ` the Lagrange basis of the
/// domain.
///
/// # Panics
///
/// Panics if the constraint system has not been finalized or if τ happens to
/// land inside the domain (probability ≈ 2⁻²⁴⁶ for random τ).
pub fn evaluate_at(cs: &ConstraintSystem, tau: Fr) -> QapEvaluations {
    assert!(cs.is_finalized(), "finalize the constraint system first");
    let m = cs.num_constraints();
    let domain = Radix2Domain::<Fr>::new(m).expect("domain fits Fr 2-adicity");
    let n = domain.size();
    let num_vars = cs.num_instance() + cs.num_witness();

    // Lagrange basis evaluated at τ:
    //   Lⱼ(τ) = Z(τ) · ωʲ / (n · (τ − ωʲ))
    let zt = domain.z_at(tau);
    assert!(!zt.is_zero(), "τ collides with the evaluation domain");
    let n_inv = Fr::from_u64(n as u64).inverse().expect("n nonzero");
    let mut lag = Vec::with_capacity(n);
    let mut omega_j = Fr::one();
    // Batch the inversions of (τ − ωʲ).
    let mut denoms = Vec::with_capacity(n);
    for _ in 0..n {
        denoms.push(tau - omega_j);
        omega_j *= domain.group_gen();
    }
    let denom_invs = batch_inverse(&denoms);
    omega_j = Fr::one();
    for inv in denom_invs.iter().take(n) {
        lag.push(zt * n_inv * omega_j * *inv);
        omega_j *= domain.group_gen();
    }

    let mut a = vec![Fr::zero(); num_vars];
    let mut b = vec![Fr::zero(); num_vars];
    let mut c = vec![Fr::zero(); num_vars];
    let shape = cs.shape();
    for (ids, out) in [(&shape.a, &mut a), (&shape.b, &mut b), (&shape.c, &mut c)] {
        for (&combo, lj) in ids.iter().zip(&lag) {
            for &(col, id) in shape.combo(combo) {
                out[col as usize] += shape.coeffs[id as usize] * *lj;
            }
        }
    }

    QapEvaluations {
        a,
        b,
        c,
        zt,
        domain,
    }
}

/// [`quotient_poly_checked`] for an assignment the test knows satisfies
/// every constraint.
#[cfg(test)]
fn quotient_poly(cs: &ConstraintSystem) -> Vec<Fr> {
    quotient_poly_checked(cs).unwrap_or_else(|j| panic!("constraint {j} unsatisfied"))
}

/// Computes the coefficients of the quotient `h(X) = (A·B − C)(X) / Z(X)`
/// for the current assignment (degree ≤ n − 2, returned as n − 1 coeffs),
/// verifying constraint satisfaction from the row evaluations it computes
/// anyway (`⟨A_j,z⟩·⟨B_j,z⟩ = ⟨C_j,z⟩` per row). The prover uses this
/// instead of a separate `check_satisfied` pass, which would evaluate
/// every linear combination a second time.
///
/// # Errors
///
/// Returns the index of the first unsatisfied constraint.
///
/// # Panics
///
/// Panics if the constraint system has not been finalized.
pub fn quotient_poly_checked(cs: &ConstraintSystem) -> Result<Vec<Fr>, usize> {
    assert!(cs.is_finalized(), "finalize the constraint system first");
    let m = cs.num_constraints();
    let domain = Radix2Domain::<Fr>::new(m).expect("domain fits Fr 2-adicity");
    let n = domain.size();

    // Row evaluations ⟨A_j, z⟩ etc.: every distinct combination evaluated
    // once against the assignment, then looked up by each row's id.
    let shape = cs.shape();
    let values = cs.combo_values();
    let row_evals = |ids: &[u32]| {
        let mut evals: Vec<Fr> = ids.iter().map(|&id| values[id as usize]).collect();
        evals.resize(n, Fr::zero());
        evals
    };
    let (mut a, mut b, mut c) = (
        row_evals(&shape.a),
        row_evals(&shape.b),
        row_evals(&shape.c),
    );

    // Satisfaction check, fused: constraint j holds iff its row evals do.
    if let Some(j) = (0..m).find(|&j| a[j] * b[j] != c[j]) {
        return Err(j);
    }

    // Move each to the coset in place — the three polynomial pipelines
    // are independent, so they run as concurrent pool tasks (and each FFT
    // additionally splits its butterfly stages across the same pool). The
    // twiddle tables are forced first so the tasks share them instead of
    // racing on the lazy initialization.
    domain.prepare_twiddles();
    waku_pool::join(
        || domain.evals_to_coset(&mut a),
        || {
            waku_pool::join(
                || domain.evals_to_coset(&mut b),
                || domain.evals_to_coset(&mut c),
            )
        },
    );
    // Multiply pointwise, divide by the (constant-on-coset) vanishing
    // polynomial, and interpolate back.
    let z_inv = domain
        .z_on_coset()
        .inverse()
        .expect("Z nonzero away from the domain");
    let mut h_coset = a;
    let chunk = waku_pool::chunk_size_for(n, 1024);
    waku_pool::scope(|s| {
        for ((h, b), c) in h_coset
            .chunks_mut(chunk)
            .zip(b.chunks(chunk))
            .zip(c.chunks(chunk))
        {
            s.spawn(move || with_lanes(Pointwise { h, b, c, z_inv }));
        }
    });
    let mut h = domain.coset_ifft(&h_coset);
    // deg h ≤ n − 2 for a satisfied system.
    let top = h.pop().expect("nonempty");
    debug_assert!(top.is_zero(), "quotient has unexpected degree");
    Ok(h)
}

/// `h ← (h·b − c)·z_inv` element by element, a lane vector at a time.
struct Pointwise<'a> {
    h: &'a mut [Fr],
    b: &'a [Fr],
    c: &'a [Fr],
    z_inv: Fr,
}

impl LaneTask for Pointwise<'_> {
    type Output = ();

    #[inline(always)]
    fn run<B: LaneBody>(self, body: B) {
        let z_inv = Fr::gather(body, B::array(|_| &self.z_inv));
        let mut h = self.h.chunks_exact_mut(B::WIDTH);
        let mut b = self.b.chunks_exact(B::WIDTH);
        let mut c = self.c.chunks_exact(B::WIDTH);
        for ((h, b), c) in h.by_ref().zip(b.by_ref()).zip(c.by_ref()) {
            let (a, b, c) = (
                Fr::load_slice(body, h),
                Fr::load_slice(body, b),
                Fr::load_slice(body, c),
            );
            Fr::store_slice((a * b - c) * z_inv, h);
        }
        let tails = h
            .into_remainder()
            .iter_mut()
            .zip(b.remainder())
            .zip(c.remainder());
        for ((h, b), c) in tails {
            *h = (*h * *b - *c) * self.z_inv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::r1cs::LinearCombination;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_cs() -> ConstraintSystem {
        // x * x = y ; y * x = z with z public (x = 3, z = 27)
        let mut cs = ConstraintSystem::new();
        let z = cs.alloc_input(Fr::from_u64(27));
        let x = cs.alloc_witness(Fr::from_u64(3));
        let y = cs.alloc_witness(Fr::from_u64(9));
        cs.enforce(x, x, y);
        cs.enforce(y, x, z);
        cs.finalize();
        cs
    }

    #[test]
    fn qap_identity_holds_at_random_point() {
        // For a satisfied system: (Σ zᵢAᵢ(τ))·(Σ zᵢBᵢ(τ)) − Σ zᵢCᵢ(τ)
        //                       = h(τ)·Z(τ).
        let cs = sample_cs();
        assert!(cs.check_satisfied().is_ok());
        let mut rng = StdRng::seed_from_u64(1);
        let tau = Fr::random(&mut rng);
        let qap = evaluate_at(&cs, tau);
        let z = cs.full_assignment();
        let a: Fr = z.iter().zip(&qap.a).map(|(z, a)| *z * *a).sum();
        let b: Fr = z.iter().zip(&qap.b).map(|(z, b)| *z * *b).sum();
        let c: Fr = z.iter().zip(&qap.c).map(|(z, c)| *z * *c).sum();
        let h = quotient_poly(&cs);
        let h_tau = waku_shamir_eval(&h, tau);
        assert_eq!(a * b - c, h_tau * qap.zt);
    }

    // local horner to avoid a dev-dependency on waku-shamir
    fn waku_shamir_eval(coeffs: &[Fr], x: Fr) -> Fr {
        let mut acc = Fr::zero();
        for &c in coeffs.iter().rev() {
            acc = acc * x + c;
        }
        acc
    }

    #[test]
    fn wrong_shared_combination_is_reported_at_the_same_row() {
        let mut cs = crate::r1cs::shared_combination_cs();
        assert!(quotient_poly_checked(&cs).is_ok());
        // v moves s, which rows 1 and 2 both read.
        cs.set_witness_value(1, Fr::from_u64(6));
        assert_eq!(cs.check_satisfied(), Err(1));
        assert_eq!(quotient_poly_checked(&cs), Err(1));
    }

    #[test]
    #[should_panic(expected = "finalize")]
    fn unfinalized_system_panics() {
        let mut cs = ConstraintSystem::new();
        let x = cs.alloc_witness(Fr::from_u64(1));
        cs.enforce(x, LinearCombination::zero(), LinearCombination::zero());
        let _ = quotient_poly(&cs);
    }
}
