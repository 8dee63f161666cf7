//! The Poseidon permutation: `R_F/2` full rounds, `R_P` partial rounds,
//! `R_F/2` full rounds, each round being AddRoundKey → S-box (`x⁵`) →
//! MDS mix.

use waku_arith::fields::Fr;
use waku_arith::traits::Field;

use crate::params::PoseidonParams;

/// `x ↦ x⁵` (the α = 5 S-box; 5 is coprime to r − 1 for BN254).
#[inline]
fn quintic_sbox(x: Fr) -> Fr {
    x.square().square() * x
}

fn mix(params: &PoseidonParams, state: &mut [Fr]) {
    let t = params.t;
    let mut out = vec![Fr::zero(); t];
    for (i, row) in params.mds.iter().enumerate() {
        let mut acc = Fr::zero();
        for (j, m) in row.iter().enumerate() {
            acc += *m * state[j];
        }
        out[i] = acc;
    }
    state.copy_from_slice(&out);
}

/// Applies the permutation in place.
///
/// # Panics
///
/// Panics if `state.len() != params.t`.
pub fn permute(params: &PoseidonParams, state: &mut [Fr]) {
    assert_eq!(state.len(), params.t, "state width mismatch");
    let half_f = (params.r_f / 2) as usize;
    let mut c = params.round_constants.iter();
    let mut ark = |state: &mut [Fr]| {
        for s in state.iter_mut() {
            *s += *c.next().expect("enough round constants");
        }
    };

    for _ in 0..half_f {
        ark(state);
        for s in state.iter_mut() {
            *s = quintic_sbox(*s);
        }
        mix(params, state);
    }
    for _ in 0..params.r_p {
        ark(state);
        state[0] = quintic_sbox(state[0]);
        mix(params, state);
    }
    for _ in 0..half_f {
        ark(state);
        for s in state.iter_mut() {
            *s = quintic_sbox(*s);
        }
        mix(params, state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::params_for;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use waku_arith::traits::PrimeField;

    #[test]
    fn sbox_is_power_five() {
        let x = Fr::from_u64(3);
        assert_eq!(quintic_sbox(x), Fr::from_u64(243));
    }

    #[test]
    fn permutation_deterministic() {
        let p = params_for(3);
        let mut a = [Fr::from_u64(1), Fr::from_u64(2), Fr::from_u64(3)];
        let mut b = a;
        permute(p, &mut a);
        permute(p, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn permutation_changes_state() {
        let p = params_for(3);
        let orig = [Fr::zero(), Fr::zero(), Fr::zero()];
        let mut state = orig;
        permute(p, &mut state);
        assert_ne!(state, orig);
    }

    #[test]
    fn permutation_is_injective_smoke() {
        // A permutation must map distinct states to distinct states.
        let p = params_for(3);
        let mut rng = StdRng::seed_from_u64(1);
        let mut a = [
            Fr::random(&mut rng),
            Fr::random(&mut rng),
            Fr::random(&mut rng),
        ];
        let mut b = a;
        b[0] += Fr::from_u64(1);
        permute(p, &mut a);
        permute(p, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn all_widths_permute() {
        for t in 2..=5usize {
            let p = params_for(t);
            let mut state = vec![Fr::zero(); t];
            permute(p, &mut state);
            assert!(state.iter().any(|s| !s.is_zero()));
        }
    }

    #[test]
    #[should_panic(expected = "state width mismatch")]
    fn wrong_width_panics() {
        let p = params_for(3);
        let mut state = vec![Fr::zero(); 2];
        permute(p, &mut state);
    }
}
