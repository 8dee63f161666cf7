//! Witness (re)computation from a constraint-system template.
//!
//! Building a circuit symbolically (gadget by gadget) costs far more than
//! evaluating it: the RLN prover was spending ~10% of each proof rebuilding
//! identical linear combinations. The [`WitnessSolver`] splits that work:
//! the circuit is built **once** as a template, and per proof only the
//! assignment is recomputed — *free* witnesses (true private inputs) are
//! supplied by the caller, while every gadget-allocated intermediate is
//! *derived* by evaluating the product constraint that defines it.
//!
//! A witness variable `w` is derived by constraint `⟨A,z⟩·⟨B,z⟩ = ⟨C,z⟩`
//! when `C` is exactly `1·w`, `w` has no earlier definition, and `A`/`B`
//! only reference instance variables or witnesses defined before it — the
//! shape every `mul`-style gadget produces. Everything else is free.
//!
//! The plan evaluates each distinct combination once: a combination is
//! evaluated when the first derived witness that multiplies by it is
//! solved, every variable in it is final by then, and every later witness
//! that uses it reads the same value. The RLN circuit's Poseidon S-boxes
//! use each input combination three times.

use waku_arith::fields::Fr;
use waku_arith::traits::Field;

use crate::r1cs::ConstraintSystem;

/// A solve plan extracted from a finalized template system.
#[derive(Clone, Debug)]
pub struct WitnessSolver {
    /// Witness indices the caller must supply, in allocation order.
    free: Vec<usize>,
    /// Combination ids in the order the solve evaluates them; a value's
    /// position here is its slot.
    evals: Vec<u32>,
    /// The derived witnesses in solve order.
    derived: Vec<Step>,
}

/// One derived witness: evaluate `evals[..evals_end]` (those not yet
/// evaluated), then `witness = slot a · slot b`.
#[derive(Clone, Copy, Debug)]
struct Step {
    evals_end: u32,
    a: u32,
    b: u32,
    witness: u32,
}

impl WitnessSolver {
    /// Analyzes the template's constraints and classifies every witness
    /// variable as free or derived.
    pub fn analyze(cs: &ConstraintSystem) -> Self {
        let num_instance = cs.num_instance();
        let mut defined = vec![false; cs.num_witness()];
        let mut free = Vec::new();
        let (mut evals, mut derived) = (Vec::new(), Vec::new());
        // Combination id → its slot in `evals`, once it has one.
        let mut slot = vec![None; cs.num_combinations()];
        let shape = cs.shape();
        // Columns are flat; the witness ones start after the instance.
        let witness_of = |col: u32| (col as usize).checked_sub(num_instance);

        // Any witness referenced before a constraint defines it must be an
        // input; record it (once) as free and consider it defined.
        let mark_used = |row: &[(u32, u32)], defined: &mut Vec<bool>, free: &mut Vec<usize>| {
            for k in row.iter().filter_map(|&(col, _)| witness_of(col)) {
                if !defined[k] {
                    defined[k] = true;
                    free.push(k);
                }
            }
        };

        for j in 0..cs.num_constraints() {
            let ids = (shape.a[j], shape.b[j]);
            let (a, b, c) = (
                shape.combo(ids.0),
                shape.combo(ids.1),
                shape.combo(shape.c[j]),
            );
            // Defining shape: C = 1·w for a yet-undefined witness w.
            let defines = match *c {
                [(col, id)] if shape.coeffs[id as usize] == Fr::one() => {
                    witness_of(col).filter(|&k| !defined[k])
                }
                _ => None,
            };
            mark_used(a, &mut defined, &mut free);
            mark_used(b, &mut defined, &mut free);
            if let Some(k) = defines {
                defined[k] = true;
                let mut slot_of = |id: u32| {
                    *slot[id as usize].get_or_insert_with(|| {
                        evals.push(id);
                        evals.len() as u32 - 1
                    })
                };
                let (a, b) = (slot_of(ids.0), slot_of(ids.1));
                derived.push(Step {
                    evals_end: evals.len() as u32,
                    a,
                    b,
                    witness: k as u32,
                });
            } else {
                mark_used(c, &mut defined, &mut free);
            }
        }
        // A witness never referenced at all is free (the caller may still
        // care about its value even if no constraint does).
        for (k, d) in defined.iter().enumerate() {
            if !d {
                free.push(k);
            }
        }
        // Callers supply free values in allocation order, which is the
        // canonical order of the circuit's true inputs.
        free.sort_unstable();
        WitnessSolver {
            free,
            evals,
            derived,
        }
    }

    /// Witness indices the caller must supply, ascending.
    pub fn free_indices(&self) -> &[usize] {
        &self.free
    }

    /// Number of derived (solver-computed) witnesses.
    pub fn num_derived(&self) -> usize {
        self.derived.len()
    }

    /// Installs `free_values` (matching [`Self::free_indices`] order) and
    /// recomputes every derived witness from its defining constraint,
    /// evaluating each combination the plan reads once.
    ///
    /// # Panics
    ///
    /// Panics if `free_values.len() != self.free_indices().len()` or if
    /// `cs` is not the system the plan was built from (shape mismatch).
    pub fn solve(&self, cs: &mut ConstraintSystem, free_values: &[Fr]) {
        assert_eq!(
            free_values.len(),
            self.free.len(),
            "free witness count mismatch"
        );
        for (&k, &v) in self.free.iter().zip(free_values.iter()) {
            cs.set_witness_value(k, v);
        }
        let mut values = Vec::with_capacity(self.evals.len());
        for step in &self.derived {
            for &id in &self.evals[values.len()..step.evals_end as usize] {
                values.push(cs.eval_combo(id));
            }
            let v = values[step.a as usize] * values[step.b as usize];
            cs.set_witness_value(step.witness as usize, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gadgets::{alloc_bit, cond_swap, mul, quintic, Wire};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use waku_arith::traits::{Field, PrimeField};

    /// out = (x⁵ swapped-with s by bit b) · x, with out public.
    fn gadget_cs(x: u64, s: u64, bit: bool) -> ConstraintSystem {
        let mut cs = ConstraintSystem::new();
        let out = cs.alloc_input(Fr::zero()); // patched below
        let x_var = cs.alloc_witness(Fr::from_u64(x));
        let xw = Wire::from_var(&cs, x_var);
        let x5 = quintic(&mut cs, &xw);
        let b = alloc_bit(&mut cs, bit);
        let s_var = cs.alloc_witness(Fr::from_u64(s));
        let sw = Wire::from_var(&cs, s_var);
        let (l, _r) = cond_swap(&mut cs, &b, &x5, &sw);
        let prod = mul(&mut cs, &l, &xw);
        let out_wire = Wire::from_var(&cs, out);
        crate::gadgets::enforce_equal(&mut cs, &prod, &out_wire);
        cs.finalize();
        cs
    }

    #[test]
    fn classifies_inputs_as_free_and_intermediates_as_derived() {
        let cs = gadget_cs(3, 7, false);
        let solver = WitnessSolver::analyze(&cs);
        // Free: x, bit, s. Derived: x², x⁴, x⁵, swap product, final product.
        assert_eq!(solver.free_indices().len(), 3);
        assert_eq!(
            solver.free_indices().len() + solver.num_derived(),
            cs.num_witness()
        );
    }

    #[test]
    fn solve_through_a_shared_combination_reproduces_the_assignment() {
        let reference = crate::r1cs::shared_combination_cs();
        let solver = WitnessSolver::analyze(&reference);
        assert_eq!(solver.free_indices(), &[0, 1]);
        assert_eq!(solver.num_derived(), 3);
        // x, s (read by rows 1 and 2) and y: one evaluation each.
        assert_eq!(solver.evals.len(), 3);
        let mut template = reference.clone();
        let mut rng = StdRng::seed_from_u64(2);
        for k in 0..template.num_witness() {
            template.set_witness_value(k, Fr::random(&mut rng));
        }
        solver.solve(&mut template, &[Fr::from_u64(3), Fr::from_u64(5)]);
        assert_eq!(template.full_assignment(), reference.full_assignment());
    }

    #[test]
    fn solve_reproduces_gadget_assignment() {
        let mut rng = StdRng::seed_from_u64(1);
        for bit in [false, true] {
            let reference = gadget_cs(5, 11, bit);
            let solver = WitnessSolver::analyze(&reference);
            // Start from a template with scrambled witness values.
            let mut template = reference.clone();
            for k in 0..template.num_witness() {
                template.set_witness_value(k, Fr::random(&mut rng));
            }
            let free: Vec<Fr> = solver
                .free_indices()
                .iter()
                .map(|&k| reference.witness_value(k))
                .collect();
            solver.solve(&mut template, &free);
            assert_eq!(template.full_assignment(), reference.full_assignment());
        }
    }
}
