//! Montgomery's batch-inversion trick: `n` field inversions for the price
//! of one inversion plus `3(n − 1)` multiplications.
//!
//! Used by the Lagrange-basis evaluation in `waku-snark` and — the hot
//! path — the batch-affine bucket accumulation of the Pippenger MSM in
//! `waku-curve`, where it is what makes affine point addition cheaper than
//! the projective formulas.

use crate::traits::Field;

/// Inverts every element of `values` in place; zero entries are left as
/// zero (they do not poison the batch). A slice with no nonzero entry —
/// an empty one included — costs no inversion.
pub fn batch_inverse_in_place<F: Field>(values: &mut [F]) {
    // Forward pass: prods[i] = product of all nonzero values before i.
    let mut prods = Vec::with_capacity(values.len());
    let mut acc = F::one();
    let mut any_nonzero = false;
    for v in values.iter() {
        prods.push(acc);
        if !v.is_zero() {
            acc *= *v;
            any_nonzero = true;
        }
    }
    if !any_nonzero {
        return;
    }
    let mut inv = acc.inverse().expect("product of nonzero elements");
    // Backward pass: peel one factor per element.
    for (v, prefix) in values.iter_mut().zip(prods.iter()).rev() {
        if v.is_zero() {
            continue;
        }
        let v_inv = *prefix * inv;
        inv *= *v;
        *v = v_inv;
    }
}

/// As [`batch_inverse_in_place`], returning a new vector.
pub fn batch_inverse<F: Field>(values: &[F]) -> Vec<F> {
    let mut out = values.to_vec();
    batch_inverse_in_place(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::{Fq, Fr};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matches_individual_inversions() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut vals: Vec<Fr> = (0..50).map(|_| Fr::random(&mut rng)).collect();
        vals[7] = Fr::zero();
        vals[23] = Fr::zero();
        let invs = batch_inverse(&vals);
        for (v, i) in vals.iter().zip(&invs) {
            if v.is_zero() {
                assert!(i.is_zero());
            } else {
                assert_eq!(v.inverse().unwrap(), *i);
            }
        }
    }

    #[test]
    fn handles_empty_and_all_zero() {
        batch_inverse_in_place::<Fr>(&mut []);
        let mut zeros = vec![Fq::zero(); 4];
        batch_inverse_in_place(&mut zeros);
        assert!(zeros.iter().all(|z| z.is_zero()));
    }
}
