//! Rank-1 constraint systems: the intermediate representation between the
//! RLN circuit (in `waku-rln`) and the Groth16 prover.
//!
//! A constraint is `⟨A, z⟩ · ⟨B, z⟩ = ⟨C, z⟩` over the assignment vector
//! `z = (1, instance…, witness…)`.
//!
//! [`LinearCombination`] is the gadgets' transient value type: what a
//! wire carries until it is handed to [`ConstraintSystem::enforce`]. The
//! system itself stores no combinations as such. Each row of the three
//! matrices is a `u32` id into one table of distinct combinations, held
//! as compressed sparse rows — a `u32` row-end array and `(u32 flat
//! column, u32 coefficient id)` terms — over one deduplicated coefficient
//! table. The RLN circuit is 23 Poseidon instances of one structure, and
//! each S-box multiplies by its input combination three times, so the
//! distinct combinations number well under half the rows
//! (`docs/FIGURES.md` E3 gives the counts and the bytes held, per
//! depth). Everything downstream —
//! the QAP reduction, the witness solver, the satisfaction check —
//! evaluates each distinct combination once per assignment, and the shape
//! codec in [`crate::serialize`] writes and reads these tables as held.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::Arc;

use waku_arith::fields::Fr;
use waku_arith::traits::Field;

/// A variable handle. `Variable::ONE` is the constant-one instance variable.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Variable {
    /// Instance (public-input) variable. Index 0 is the constant 1.
    Instance(usize),
    /// Witness (private) variable.
    Witness(usize),
}

impl Variable {
    /// The constant-one variable.
    pub const ONE: Variable = Variable::Instance(0);
}

/// A sparse linear combination `Σ coeffᵢ · varᵢ`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LinearCombination(pub Vec<(Variable, Fr)>);

impl LinearCombination {
    /// The empty (zero) combination.
    pub fn zero() -> Self {
        LinearCombination(Vec::new())
    }

    /// A single variable with coefficient one.
    pub fn from_var(v: Variable) -> Self {
        LinearCombination(vec![(v, Fr::one())])
    }

    /// A constant (coefficient on `Variable::ONE`).
    pub fn from_const(c: Fr) -> Self {
        LinearCombination(vec![(Variable::ONE, c)])
    }

    /// Adds `coeff · var` to the combination.
    pub fn add_term(mut self, var: Variable, coeff: Fr) -> Self {
        self.0.push((var, coeff));
        self
    }

    /// Scales every coefficient.
    pub fn scale(mut self, s: Fr) -> Self {
        for (_, c) in self.0.iter_mut() {
            *c *= s;
        }
        self
    }

    /// Merges duplicate variables and drops zero coefficients.
    ///
    /// Long chains of linear operations (e.g. the MDS mixing layers of the
    /// Poseidon gadget) would otherwise grow combinations exponentially;
    /// after simplification the term count is bounded by the number of
    /// distinct variables referenced.
    pub fn simplify(mut self) -> Self {
        let mut acc: HashMap<Variable, Fr> = HashMap::with_capacity(self.0.len());
        for (v, c) in self.0.drain(..) {
            *acc.entry(v).or_insert_with(Fr::zero) += c;
        }
        let mut terms: Vec<(Variable, Fr)> =
            acc.into_iter().filter(|(_, c)| !c.is_zero()).collect();
        // Deterministic order keeps constraint systems reproducible.
        terms.sort_by_key(|(v, _)| match v {
            Variable::Instance(i) => (0usize, *i),
            Variable::Witness(i) => (1usize, *i),
        });
        LinearCombination(terms)
    }

    /// Number of terms.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when there are no terms.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl std::ops::Add for LinearCombination {
    type Output = Self;
    fn add(mut self, rhs: Self) -> Self {
        self.0.extend(rhs.0);
        self
    }
}

impl std::ops::Sub for LinearCombination {
    type Output = Self;
    fn sub(mut self, rhs: Self) -> Self {
        for (v, c) in rhs.0 {
            self.0.push((v, -c));
        }
        self
    }
}

impl From<Variable> for LinearCombination {
    fn from(v: Variable) -> Self {
        LinearCombination::from_var(v)
    }
}

impl From<Fr> for LinearCombination {
    fn from(c: Fr) -> Self {
        LinearCombination::from_const(c)
    }
}

/// Sparse rows in compressed form: row `k`'s terms are
/// `terms[row_end[k − 1]..row_end[k]]` (from 0 for the first row), each a
/// `(flat column, coefficient id)` pair — the column indexes
/// `z = (1, instance…, witness…)`, the id indexes [`Shape::coeffs`]. 8 B a
/// term, against 48 B for a `(Variable, Fr)` in a heap `Vec` per
/// combination. [`Shape::combos`] holds the distinct combinations this
/// way, and the shape codec writes them so.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct SparseMatrix {
    pub(crate) row_end: Vec<u32>,
    pub(crate) terms: Vec<(u32, u32)>,
}

impl SparseMatrix {
    /// The terms of row `k`.
    pub(crate) fn row(&self, k: usize) -> &[(u32, u32)] {
        let start = k.checked_sub(1).map_or(0, |i| self.row_end[i]);
        &self.terms[start as usize..self.row_end[k] as usize]
    }

    /// Number of rows.
    fn len(&self) -> usize {
        self.row_end.len()
    }

    fn push_row(&mut self, terms: impl IntoIterator<Item = (u32, u32)>) {
        self.terms.extend(terms);
        self.row_end
            .push(u32::try_from(self.terms.len()).expect("fewer than 2³² terms"));
    }

    fn heap_bytes(&self) -> usize {
        self.row_end.capacity() * 4 + self.terms.capacity() * 8
    }

    fn shrink_to_fit(&mut self) {
        self.row_end.shrink_to_fit();
        self.terms.shrink_to_fit();
    }
}

/// The three matrices as combination ids, the one table of distinct
/// combinations they index, and the one table of coefficients the
/// combinations' terms index. Constraint `j` is
/// `⟨combos[a[j]], z⟩ · ⟨combos[b[j]], z⟩ = ⟨combos[c[j]], z⟩`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Shape {
    pub(crate) a: Vec<u32>,
    pub(crate) b: Vec<u32>,
    pub(crate) c: Vec<u32>,
    /// Each distinct combination once, numbered in order of first use
    /// (constraint by constraint, A before B before C).
    pub(crate) combos: SparseMatrix,
    pub(crate) coeffs: Vec<Fr>,
}

impl Shape {
    /// The terms of combination `id`.
    pub(crate) fn combo(&self, id: u32) -> &[(u32, u32)] {
        self.combos.row(id as usize)
    }

    /// Appends one constraint's three combinations, each as the id of its
    /// entry in [`Self::combos`] (a new entry the first time it appears).
    /// `index` covers every entry; it is rebuilt from the table when it
    /// holds fewer (a late `alloc_input` shifted the table's columns).
    fn push_constraint(&mut self, index: &mut ComboIndex, rows: [&[(u32, u32)]; 3]) {
        if index.len() < self.combos.len() {
            index.rebuild(&self.combos);
        }
        // `x · x` rows (every squaring) skip B's lookup.
        let a = index.find_or_add(&mut self.combos, rows[0]);
        let b = if rows[1] == rows[0] {
            a
        } else {
            index.find_or_add(&mut self.combos, rows[1])
        };
        let c = index.find_or_add(&mut self.combos, rows[2]);
        self.a.push(a);
        self.b.push(b);
        self.c.push(c);
    }
}

/// The terms of each entry of a combination table → its id, keyed by a
/// hash of the terms. An entry whose hash is taken by a different
/// combination moves on to the next free key, so a lookup compares terms
/// until it finds them or a free key, and no entry holds a copy of its
/// terms: 16 B an entry.
///
/// The hash is a multiply-rotate over the packed terms, seeded from the
/// process's random hash keys and mixed once at the end; the map uses the
/// key as its own hash: SipHash over the terms cost ≈ 2 ms over the
/// depth-20 template's rows. A collision costs a comparison, never a
/// wrong id.
#[derive(Clone, Debug)]
struct ComboIndex {
    map: HashMap<u64, u32, BuildHasherDefault<Prehashed>>,
    seed: u64,
}

impl Default for ComboIndex {
    fn default() -> Self {
        ComboIndex {
            map: HashMap::default(),
            seed: RandomState::new().hash_one(0u64),
        }
    }
}

/// The hasher of a map whose keys are already hashes.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

impl ComboIndex {
    fn len(&self) -> usize {
        self.map.len()
    }

    /// The id of `terms` in `table`, or the free key it belongs at.
    fn find(&self, table: &SparseMatrix, terms: &[(u32, u32)]) -> Result<u32, u64> {
        const MIX: u64 = 0x517c_c1b7_2722_0a95;
        let h = terms.iter().fold(self.seed, |h, &(col, coeff)| {
            (h.rotate_left(5) ^ (u64::from(col) << 32 | u64::from(coeff))).wrapping_mul(MIX)
        });
        let mut key = h ^ h >> 32;
        loop {
            match self.map.get(&key) {
                Some(&id) if table.row(id as usize) == terms => return Ok(id),
                Some(_) => key = key.wrapping_add(1),
                None => return Err(key),
            }
        }
    }

    /// The id of `terms` in `table`, appended to it if absent.
    fn find_or_add(&mut self, table: &mut SparseMatrix, terms: &[(u32, u32)]) -> u32 {
        self.find(table, terms).unwrap_or_else(|key| {
            let id = u32::try_from(table.len()).expect("fewer than 2³² combinations");
            table.push_row(terms.iter().copied());
            self.map.insert(key, id);
            id
        })
    }

    /// Indexes every entry of `table` afresh.
    fn rebuild(&mut self, table: &SparseMatrix) {
        self.map.clear();
        for id in 0..table.len() {
            let key = self
                .find(table, table.row(id))
                .expect_err("table entries are distinct");
            self.map.insert(key, id as u32);
        }
    }
}

/// A rank-1 constraint system carrying both shape and assignment.
///
/// The same type serves circuit construction (with real witness values),
/// setup (shape only — the assignment is ignored), and proving.
#[derive(Clone, Debug, Default)]
pub struct ConstraintSystem {
    instance: Vec<Fr>,
    witness: Vec<Fr>,
    /// Shared so cloning a finalized template (the per-proof rebind path
    /// in `waku-rln`) is O(assignment) instead of a copy of every row.
    shape: Arc<Shape>,
    /// Coefficient value → id in `shape.coeffs`, and a combination's
    /// terms → id in `shape.combos`. Construction-time only: `finalize`
    /// drops them, and a finalized system takes no constraints.
    interner: HashMap<Fr, u32>,
    combo_index: ComboIndex,
    finalized: bool,
}

impl ConstraintSystem {
    /// Creates an empty system (instance = `[1]`).
    pub fn new() -> Self {
        ConstraintSystem {
            instance: vec![Fr::one()],
            ..Default::default()
        }
    }

    /// Allocates a public-input variable with the given value.
    ///
    /// # Panics
    ///
    /// Panics if called after [`ConstraintSystem::finalize`].
    pub fn alloc_input(&mut self, value: Fr) -> Variable {
        assert!(!self.finalized, "cannot allocate after finalize");
        // Columns are flat (instance first), so witness columns that an
        // earlier `enforce` wrote move up by one. Circuits allocate their
        // inputs first; this is the slow path for the ones that do not.
        // The shift keeps distinct combinations distinct; only the index
        // of their terms goes stale.
        let first_witness = self.instance.len() as u32;
        if !self.shape.combos.terms.is_empty() {
            let shape = Arc::make_mut(&mut self.shape);
            for (col, _) in shape
                .combos
                .terms
                .iter_mut()
                .filter(|t| t.0 >= first_witness)
            {
                *col += 1;
            }
            self.combo_index = ComboIndex::default();
        }
        self.instance.push(value);
        Variable::Instance(self.instance.len() - 1)
    }

    /// Allocates a private witness variable with the given value.
    pub fn alloc_witness(&mut self, value: Fr) -> Variable {
        self.witness.push(value);
        Variable::Witness(self.witness.len() - 1)
    }

    /// Adds the constraint `a · b = c`: each combination, terms in the
    /// order given, becomes the id of its entry in the table of distinct
    /// combinations.
    ///
    /// # Panics
    ///
    /// Panics if called after [`ConstraintSystem::finalize`].
    pub fn enforce(
        &mut self,
        a: impl Into<LinearCombination>,
        b: impl Into<LinearCombination>,
        c: impl Into<LinearCombination>,
    ) {
        assert!(!self.finalized, "cannot enforce after finalize");
        let lcs: [LinearCombination; 3] = [a.into(), b.into(), c.into()];
        let num_instance = self.instance.len();
        let shape = Arc::make_mut(&mut self.shape);
        let (coeffs, interner) = (&mut shape.coeffs, &mut self.interner);
        let rows = lcs.map(|lc| {
            lc.0.into_iter()
                .map(|(var, coeff)| {
                    let col = match var {
                        Variable::Instance(i) => i,
                        Variable::Witness(i) => num_instance + i,
                    };
                    let id = *interner.entry(coeff).or_insert_with(|| {
                        coeffs.push(coeff);
                        (coeffs.len() - 1) as u32
                    });
                    (u32::try_from(col).expect("fewer than 2³² variables"), id)
                })
                .collect::<Vec<_>>()
        });
        shape.push_constraint(&mut self.combo_index, rows.each_ref().map(Vec::as_slice));
    }

    /// Number of instance variables (including the constant 1).
    pub fn num_instance(&self) -> usize {
        self.instance.len()
    }

    /// Number of witness variables.
    pub fn num_witness(&self) -> usize {
        self.witness.len()
    }

    /// Number of constraints currently in the system.
    pub fn num_constraints(&self) -> usize {
        self.shape.a.len()
    }

    /// Number of terms over all three matrices, each row counted in full
    /// although rows that share a combination hold its terms once.
    pub fn num_terms(&self) -> usize {
        let shape = &*self.shape;
        [&shape.a, &shape.b, &shape.c]
            .into_iter()
            .flatten()
            .map(|&id| shape.combo(id).len())
            .sum()
    }

    /// Number of distinct combinations the three matrices' rows refer to.
    pub fn num_combinations(&self) -> usize {
        self.shape.combos.len()
    }

    /// Number of distinct coefficient values the terms refer to.
    pub fn num_coefficients(&self) -> usize {
        self.shape.coeffs.len()
    }

    /// Heap bytes this system holds: the assignment, the three matrices
    /// (4 B a combination id per row), the combination table (4 B a row
    /// end, 8 B a term) and the coefficient table (32 B an entry). Clones
    /// of one template share everything but the assignment.
    pub fn resident_bytes(&self) -> usize {
        let shape = &*self.shape;
        (self.instance.capacity() + self.witness.capacity() + shape.coeffs.capacity()) * 32
            + (shape.a.capacity() + shape.b.capacity() + shape.c.capacity()) * 4
            + shape.combos.heap_bytes()
    }

    /// The matrices (for the QAP reduction, the solver and the codec).
    pub(crate) fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Current value of the `k`-th witness variable.
    pub fn witness_value(&self, k: usize) -> Fr {
        self.witness[k]
    }

    /// Overwrites the `k`-th witness value (assignments are orthogonal to
    /// the finalized shape, so this is allowed after `finalize`; used by
    /// the [`crate::solver::WitnessSolver`] to rebind a template system).
    pub fn set_witness_value(&mut self, k: usize, value: Fr) {
        self.witness[k] = value;
    }

    /// Overwrites the `k`-th instance value (`k = 0` is the constant 1 and
    /// cannot be changed).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn set_instance_value(&mut self, k: usize, value: Fr) {
        assert!(k != 0, "instance 0 is the constant one");
        self.instance[k] = value;
    }

    /// Current value of a variable.
    pub fn value(&self, var: Variable) -> Fr {
        match var {
            Variable::Instance(i) => self.instance[i],
            Variable::Witness(i) => self.witness[i],
        }
    }

    /// Evaluates a linear combination against the current assignment.
    #[cfg(test)]
    fn eval_lc(&self, lc: &LinearCombination) -> Fr {
        lc.0.iter()
            .map(|(v, c)| self.value(*v) * *c)
            .fold(Fr::zero(), |a, b| a + b)
    }

    /// `⟨combination id, z⟩`.
    pub(crate) fn eval_combo(&self, id: u32) -> Fr {
        self.eval_row(self.shape.combo(id))
    }

    /// Every distinct combination evaluated once, by id, chunked across
    /// the pool.
    pub(crate) fn combo_values(&self) -> Vec<Fr> {
        let mut values = vec![Fr::zero(); self.num_combinations()];
        let chunk = waku_pool::chunk_size_for(values.len(), 64);
        waku_pool::par_for_each_chunk_mut(&mut values, chunk, |offset, values| {
            for (id, v) in (offset as u32..).zip(values) {
                *v = self.eval_combo(id);
            }
        });
        values
    }

    /// `⟨row, z⟩` for one sparse row of this system's matrices.
    pub(crate) fn eval_row(&self, row: &[(u32, u32)]) -> Fr {
        let num_instance = self.instance.len();
        row.iter().fold(Fr::zero(), |acc, &(col, id)| {
            let col = col as usize;
            let z = match col.checked_sub(num_instance) {
                None => self.instance[col],
                Some(k) => self.witness[k],
            };
            acc + z * self.shape.coeffs[id as usize]
        })
    }

    /// The public inputs (excluding the constant 1).
    pub fn public_inputs(&self) -> &[Fr] {
        &self.instance[1..]
    }

    /// Flat variable index (instance first, then witness).
    #[cfg(test)]
    fn flat_index(&self, var: Variable) -> usize {
        match var {
            Variable::Instance(i) => i,
            Variable::Witness(i) => self.instance.len() + i,
        }
    }

    /// Full assignment vector `z = (1, instance…, witness…)`.
    pub fn full_assignment(&self) -> Vec<Fr> {
        let mut z = self.instance.clone();
        z.extend_from_slice(&self.witness);
        z
    }

    /// Appends the per-instance-variable consistency constraints
    /// (`xᵢ · 0 = 0`) that make the instance QAP polynomials linearly
    /// independent — required for Groth16's knowledge soundness — and
    /// gives the construction-time slack (vector growth, the coefficient
    /// interner) back. Idempotent.
    pub fn finalize(&mut self) {
        if self.finalized {
            return;
        }
        for i in 0..self.instance.len() {
            self.enforce(
                Variable::Instance(i),
                LinearCombination::zero(),
                LinearCombination::zero(),
            );
        }
        let shape = Arc::make_mut(&mut self.shape);
        for ids in [&mut shape.a, &mut shape.b, &mut shape.c] {
            ids.shrink_to_fit();
        }
        shape.combos.shrink_to_fit();
        shape.coeffs.shrink_to_fit();
        self.instance.shrink_to_fit();
        self.witness.shrink_to_fit();
        self.interner = HashMap::new();
        self.combo_index = ComboIndex::default();
        self.finalized = true;
    }

    /// True once [`ConstraintSystem::finalize`] has run.
    pub fn is_finalized(&self) -> bool {
        self.finalized
    }

    /// Rebuilds a finalized system from a deserialized *shape* (see
    /// [`crate::serialize`], which has validated every index in it): the
    /// assignment is zeroed except for the constant-one instance variable,
    /// exactly like a template whose values have not been bound yet.
    pub(crate) fn from_shape(num_instance: usize, num_witness: usize, shape: Shape) -> Self {
        assert!(num_instance >= 1, "instance 0 is the constant one");
        let mut instance = vec![Fr::zero(); num_instance];
        instance[0] = Fr::one();
        ConstraintSystem {
            instance,
            witness: vec![Fr::zero(); num_witness],
            shape: Arc::new(shape),
            interner: HashMap::new(),
            combo_index: ComboIndex::default(),
            finalized: true,
        }
    }

    /// Checks every constraint against the current assignment, each
    /// distinct combination evaluated once.
    ///
    /// # Errors
    ///
    /// Returns the index of the first violated constraint.
    pub fn check_satisfied(&self) -> Result<(), usize> {
        let Shape { a, b, c, .. } = &*self.shape;
        let v = self.combo_values();
        let at = |ids: &[u32], j: usize| v[ids[j] as usize];
        (0..self.num_constraints())
            .find(|&j| at(a, j) * at(b, j) != at(c, j))
            .map_or(Ok(()), Err)
    }
}

/// `y = x·x`, `w₁ = s·x` and `w₂ = y·s` with `s = x + 3v` (x = 3,
/// v = 5): `s` is A of row 1 and B of row 2, and `1·y` is C of row 0 and
/// A of row 2.
#[cfg(test)]
pub(crate) fn shared_combination_cs() -> ConstraintSystem {
    use waku_arith::traits::PrimeField;
    let mut cs = ConstraintSystem::new();
    let x = cs.alloc_witness(Fr::from_u64(3));
    let v = cs.alloc_witness(Fr::from_u64(5));
    let y = cs.alloc_witness(Fr::from_u64(9));
    cs.enforce(x, x, y);
    let s = LinearCombination::from_var(x).add_term(v, Fr::from_u64(3));
    let w1 = cs.alloc_witness(Fr::from_u64(54));
    cs.enforce(s.clone(), x, w1);
    let w2 = cs.alloc_witness(Fr::from_u64(162));
    cs.enforce(y, s, w2);
    cs.finalize();
    cs
}

#[cfg(test)]
mod tests {
    use super::*;
    use waku_arith::traits::PrimeField;

    #[test]
    fn shared_combinations_are_one_table_entry() {
        let cs = shared_combination_cs();
        assert!(cs.check_satisfied().is_ok());
        let shape = cs.shape();
        assert_eq!(shape.a[1], shape.b[2], "s");
        assert_eq!(shape.c[0], shape.a[2], "1·y");
        // x, y, s, w₁, w₂, the finalize row's ONE and the empty one.
        assert_eq!(cs.num_combinations(), 7);
        assert_eq!(cs.num_terms(), 12);
    }

    #[test]
    fn simple_multiplication_satisfied() {
        let mut cs = ConstraintSystem::new();
        let a = cs.alloc_witness(Fr::from_u64(3));
        let b = cs.alloc_witness(Fr::from_u64(4));
        let c = cs.alloc_input(Fr::from_u64(12));
        cs.enforce(a, b, c);
        assert!(cs.check_satisfied().is_ok());
    }

    #[test]
    fn violated_constraint_reported() {
        let mut cs = ConstraintSystem::new();
        let a = cs.alloc_witness(Fr::from_u64(3));
        let b = cs.alloc_witness(Fr::from_u64(4));
        cs.enforce(a, b, LinearCombination::from_const(Fr::from_u64(13)));
        assert_eq!(cs.check_satisfied(), Err(0));
    }

    #[test]
    fn linear_combinations_evaluate() {
        let mut cs = ConstraintSystem::new();
        let a = cs.alloc_witness(Fr::from_u64(5));
        let lc = LinearCombination::from_var(a)
            .scale(Fr::from_u64(2))
            .add_term(Variable::ONE, Fr::from_u64(7));
        assert_eq!(cs.eval_lc(&lc), Fr::from_u64(17));
        let diff = lc.clone() - lc;
        assert!(cs.eval_lc(&diff).is_zero());
    }

    #[test]
    fn simplify_merges_and_drops() {
        let mut cs = ConstraintSystem::new();
        let a = cs.alloc_witness(Fr::from_u64(2));
        let b = cs.alloc_witness(Fr::from_u64(3));
        let lc = LinearCombination::from_var(a)
            .add_term(b, Fr::from_u64(4))
            .add_term(a, Fr::from_u64(2))
            .add_term(b, -Fr::from_u64(4));
        let before = cs.eval_lc(&lc);
        let simplified = lc.simplify();
        assert_eq!(simplified.len(), 1, "b cancels, a merges");
        assert_eq!(cs.eval_lc(&simplified), before);
    }

    #[test]
    fn finalize_is_idempotent_and_adds_input_constraints() {
        let mut cs = ConstraintSystem::new();
        cs.alloc_input(Fr::from_u64(1));
        let before = cs.num_constraints();
        cs.finalize();
        assert_eq!(cs.num_constraints(), before + 2); // ONE + one input
        cs.finalize();
        assert_eq!(cs.num_constraints(), before + 2);
        assert!(cs.check_satisfied().is_ok());
    }

    #[test]
    #[should_panic(expected = "cannot enforce after finalize")]
    fn enforce_after_finalize_panics() {
        let mut cs = ConstraintSystem::new();
        let x = cs.alloc_witness(Fr::from_u64(3));
        cs.finalize();
        cs.enforce(x, x, Fr::from_u64(9));
    }

    #[test]
    fn flat_indices_are_contiguous() {
        let mut cs = ConstraintSystem::new();
        let x = cs.alloc_input(Fr::zero());
        let w = cs.alloc_witness(Fr::zero());
        assert_eq!(cs.flat_index(Variable::ONE), 0);
        assert_eq!(cs.flat_index(x), 1);
        assert_eq!(cs.flat_index(w), 2);
    }

    #[test]
    fn late_input_allocation_keeps_witness_columns_aligned() {
        // enforce first, allocate the input afterwards: the witness
        // columns already written move up with the instance block.
        let mut cs = ConstraintSystem::new();
        let a = cs.alloc_witness(Fr::from_u64(3));
        let b = cs.alloc_witness(Fr::from_u64(4));
        cs.enforce(a, b, LinearCombination::from_const(Fr::from_u64(12)));
        let c = cs.alloc_input(Fr::from_u64(12));
        cs.enforce(a, b, c);
        let shape = cs.shape();
        assert_eq!(shape.a[0], shape.a[1], "one combination, two rows");
        assert_eq!(shape.combo(shape.a[0])[0].0 as usize, cs.flat_index(a));
        cs.finalize();
        assert!(cs.check_satisfied().is_ok());
    }

    #[test]
    fn template_clone_shares_the_matrices() {
        let mut cs = ConstraintSystem::new();
        let x = cs.alloc_witness(Fr::from_u64(3));
        cs.enforce(x, x, LinearCombination::from_const(Fr::from_u64(9)));
        cs.finalize();
        let held = cs.resident_bytes();
        let mut copy = cs.clone();
        // Rebinding the assignment — all a proof does to its copy — must
        // not detach the shape: a deep copy here is 1.3 MB per proof.
        copy.set_witness_value(0, Fr::from_u64(4));
        assert!(Arc::ptr_eq(&cs.shape, &copy.shape));
        assert!(copy.interner.is_empty(), "finalize drops the interner");
        assert_eq!(cs.resident_bytes(), held);
        // Two variables and two coefficients (1 and 9), two combination
        // ids per matrix, and four distinct combinations — x (A and B of
        // the first row), 9, the finalize row's ONE and the empty one —
        // with three terms between them.
        assert_eq!(held, 4 * 32 + 6 * 4 + 4 * 4 + 3 * 8);
    }
}

/// The sparse-row form against the representation it replaced: random
/// gadget circuits are built while the test keeps, per constraint, the
/// three [`LinearCombination`]s the gadget handed to `enforce`, and a
/// solver written over those combinations (the pre-sparse algorithm).
#[cfg(test)]
mod equivalence {
    use super::*;
    use crate::gadgets::{alloc_bit, cond_swap, enforce_equal, mul, quintic, Wire};
    use crate::serialize::{cs_shape_from_bytes, cs_shape_to_bytes};
    use crate::solver::WitnessSolver;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use waku_arith::traits::PrimeField;

    type Source = [LinearCombination; 3];

    /// Builds the circuit `ops` describes and, beside it, what each
    /// constraint was built from.
    fn build(ops: &[(u8, usize, usize, u64)]) -> (ConstraintSystem, Vec<Source>) {
        let mut cs = ConstraintSystem::new();
        let mut source: Vec<Source> = Vec::new();
        let w0 = cs.alloc_witness(Fr::from_u64(2));
        let mut wires = vec![Wire::one(), Wire::from_var(&cs, w0)];
        let witness = |k: usize| LinearCombination::from_var(Variable::Witness(k));
        for &(op, i, j, k) in ops {
            let (a, b) = (
                wires[i % wires.len()].clone(),
                wires[j % wires.len()].clone(),
            );
            let n = cs.num_witness();
            match op {
                0 => {
                    let out = mul(&mut cs, &a, &b);
                    source.push([a.lc, b.lc, out.lc.clone()]);
                    wires.push(out);
                }
                1 => {
                    wires.push(quintic(&mut cs, &a));
                    source.push([a.lc.clone(), a.lc.clone(), witness(n)]);
                    source.push([witness(n), witness(n), witness(n + 1)]);
                    source.push([witness(n + 1), a.lc, witness(n + 2)]);
                }
                2 => {
                    let bit = alloc_bit(&mut cs, k & 1 == 1);
                    source.push([
                        bit.lc.clone(),
                        Wire::one().sub(&bit).lc,
                        LinearCombination::zero(),
                    ]);
                    let (l, r) = cond_swap(&mut cs, &bit, &a, &b);
                    source.push([bit.lc, b.sub(&a).lc, witness(n + 1)]);
                    wires.extend([l, r]);
                }
                3 => {
                    enforce_equal(&mut cs, &a, &b);
                    source.push([
                        a.lc - b.lc,
                        LinearCombination::from_var(Variable::ONE),
                        LinearCombination::zero(),
                    ]);
                }
                // Linear ops only: duplicate variables, zero and negative
                // coefficients reach later rows unsimplified.
                4 => wires.push(a.add(&b).add(&a).scale(Fr::from_u64(k % 3))),
                5 => wires.push(a.sub(&b).add_const(Fr::from_u64(k))),
                // An input allocated after rows exist (the column shift).
                6 => {
                    let var = cs.alloc_input(Fr::from_u64(k));
                    wires.push(Wire::from_var(&cs, var));
                }
                _ => {
                    let var = cs.alloc_witness(Fr::from_u64(k));
                    wires.push(Wire::from_var(&cs, var));
                }
            }
        }
        cs.finalize();
        for i in 0..cs.num_instance() {
            source.push([
                LinearCombination::from_var(Variable::Instance(i)),
                LinearCombination::zero(),
                LinearCombination::zero(),
            ]);
        }
        (cs, source)
    }

    /// `WitnessSolver::analyze` as it read nested combinations:
    /// `(free, derived)`.
    fn analyze_source(source: &[Source], num_witness: usize) -> (Vec<usize>, Vec<(usize, usize)>) {
        let mut defined = vec![false; num_witness];
        let (mut free, mut derived) = (Vec::new(), Vec::new());
        let mark_used = |lc: &LinearCombination, defined: &mut Vec<bool>, free: &mut Vec<usize>| {
            for (v, _) in &lc.0 {
                if let Variable::Witness(k) = v {
                    if !defined[*k] {
                        defined[*k] = true;
                        free.push(*k);
                    }
                }
            }
        };
        for (j, [a, b, c]) in source.iter().enumerate() {
            let defines = match &c.0[..] {
                [(Variable::Witness(k), coeff)] if *coeff == Fr::one() && !defined[*k] => Some(*k),
                _ => None,
            };
            mark_used(a, &mut defined, &mut free);
            mark_used(b, &mut defined, &mut free);
            match defines {
                Some(k) => {
                    defined[k] = true;
                    derived.push((j, k));
                }
                None => mark_used(c, &mut defined, &mut free),
            }
        }
        free.extend((0..num_witness).filter(|&k| !defined[k]));
        free.sort_unstable();
        (free, derived)
    }

    proptest! {
        #[test]
        fn sparse_rows_equal_their_source_combinations(
            ops in proptest::collection::vec(
                (0u8..8, any::<usize>(), any::<usize>(), any::<u64>()),
                1..24,
            ),
            seed in any::<u64>(),
        ) {
            let (mut cs, source) = build(&ops);
            prop_assert_eq!(cs.num_constraints(), source.len());
            prop_assert_eq!(cs.num_terms(), source.iter().flatten().map(|lc| lc.len()).sum::<usize>());

            // Every row is its combination, term for term, and so evaluates
            // to the same value under an assignment the build never saw.
            let mut rng = StdRng::seed_from_u64(seed);
            for k in 1..cs.num_instance() {
                cs.set_instance_value(k, Fr::random(&mut rng));
            }
            for k in 0..cs.num_witness() {
                cs.set_witness_value(k, Fr::random(&mut rng));
            }
            let shape = cs.shape();
            for (j, lcs) in source.iter().enumerate() {
                for (ids, lc) in [&shape.a, &shape.b, &shape.c].into_iter().zip(lcs) {
                    let row = shape.combo(ids[j]);
                    let terms: Vec<(usize, Fr)> =
                        row.iter().map(|&(col, id)| (col as usize, shape.coeffs[id as usize])).collect();
                    let expected: Vec<(usize, Fr)> =
                        lc.0.iter().map(|(v, c)| (cs.flat_index(*v), *c)).collect();
                    prop_assert!(terms == expected, "row {j}: {terms:?} vs {expected:?}");
                    prop_assert!(cs.eval_row(row) == cs.eval_lc(lc), "row {j} evaluates differently");
                }
            }
            let mut distinct = shape.coeffs.clone();
            distinct.sort_unstable_by_key(|c| c.to_le_bytes());
            distinct.dedup();
            // The table holds each value once, and each combination.
            prop_assert_eq!(distinct.len(), shape.coeffs.len());
            let mut combos: Vec<&[(u32, u32)]> =
                (0..cs.num_combinations() as u32).map(|id| shape.combo(id)).collect();
            combos.sort_unstable();
            combos.dedup();
            prop_assert_eq!(combos.len(), cs.num_combinations());

            // Same free/derived classification, same solved assignment.
            let solver = WitnessSolver::analyze(&cs);
            let (free, derived) = analyze_source(&source, cs.num_witness());
            prop_assert_eq!(solver.free_indices(), &free[..]);
            prop_assert_eq!(solver.num_derived(), derived.len());
            let free_values: Vec<Fr> = free.iter().map(|&k| cs.witness_value(k)).collect();
            let mut reference = cs.clone();
            for &(j, k) in &derived {
                let v = reference.eval_lc(&source[j][0]) * reference.eval_lc(&source[j][1]);
                reference.set_witness_value(k, v);
            }
            let mut solved = cs.clone();
            for k in 0..solved.num_witness() {
                solved.set_witness_value(k, Fr::random(&mut rng));
            }
            solver.solve(&mut solved, &free_values);
            prop_assert_eq!(solved.full_assignment(), reference.full_assignment());

            // The shape is its own serialization.
            let bytes = cs_shape_to_bytes(&cs);
            let restored = cs_shape_from_bytes(&bytes).expect("round trip");
            prop_assert_eq!(restored.shape(), cs.shape());
            prop_assert_eq!(cs_shape_to_bytes(&restored), bytes);
        }
    }
}
