//! Flat binary serialization for proving keys and constraint-system
//! shapes — the payload format under `waku-rln`'s on-disk keygen cache.
//!
//! Everything is little-endian and length-prefixed; a shape is the
//! constraint system's sparse-row arrays and coefficient table, written
//! as held ([`cs_shape_to_bytes`]); group points are
//! uncompressed affine coordinates with `(0, 0)` (not on either curve, as
//! `b ≠ 0`) denoting the point at infinity. Deserialization re-checks
//! canonicity of every field element and curve membership of every point,
//! so a corrupted blob yields `None` rather than an invalid key.

use waku_arith::fields::Fr;
use waku_arith::traits::PrimeField;
use waku_curve::fp2::Fp2;
use waku_curve::g1::G1Affine;
use waku_curve::g2::G2Affine;
use waku_wire::{put_len, put_u32, Reader};

use crate::groth16::{ProvingKey, VerifyingKey};
use crate::r1cs::{ComboIndex, ConstraintSystem, Shape};

fn put_g1(out: &mut Vec<u8>, p: &G1Affine) {
    if p.is_identity() {
        out.extend_from_slice(&[0u8; 64]);
    } else {
        out.extend_from_slice(&p.x.to_le_bytes());
        out.extend_from_slice(&p.y.to_le_bytes());
    }
}

fn put_g2(out: &mut Vec<u8>, p: &G2Affine) {
    if p.is_identity() {
        out.extend_from_slice(&[0u8; 128]);
    } else {
        out.extend_from_slice(&p.x.c0.to_le_bytes());
        out.extend_from_slice(&p.x.c1.to_le_bytes());
        out.extend_from_slice(&p.y.c0.to_le_bytes());
        out.extend_from_slice(&p.y.c1.to_le_bytes());
    }
}

/// The next 32 bytes as a canonical field element; `None` on truncation
/// or a value `≥ p`. The snark-side extension of the shared cursor —
/// every field/point decoder in the workspace goes through it.
pub fn read_field<F: PrimeField>(r: &mut Reader) -> Option<F> {
    F::from_le_bytes(&r.array().ok()?)
}

fn read_g1(r: &mut Reader) -> Option<G1Affine> {
    let bytes = r.take(64).ok()?;
    if bytes.iter().all(|b| *b == 0) {
        return Some(G1Affine::identity());
    }
    let mut xy = Reader::new(bytes);
    G1Affine::new(read_field(&mut xy)?, read_field(&mut xy)?)
}

fn read_g2(r: &mut Reader) -> Option<G2Affine> {
    let bytes = r.take(128).ok()?;
    if bytes.iter().all(|b| *b == 0) {
        return Some(G2Affine::identity());
    }
    let mut xy = Reader::new(bytes);
    let x = Fp2::new(read_field(&mut xy)?, read_field(&mut xy)?);
    let y = Fp2::new(read_field(&mut xy)?, read_field(&mut xy)?);
    G2Affine::new(x, y)
}

fn put_g1_vec(out: &mut Vec<u8>, points: &[G1Affine]) {
    put_len(out, points.len());
    for p in points {
        put_g1(out, p);
    }
}

fn read_g1_vec(r: &mut Reader) -> Option<Vec<G1Affine>> {
    (0..r.count(64).ok()?).map(|_| read_g1(r)).collect()
}

/// Serializes a verifying key.
fn vk_to_bytes(vk: &VerifyingKey) -> Vec<u8> {
    let mut out = Vec::with_capacity(vk.size_in_bytes() + 8);
    put_g1(&mut out, &vk.alpha_g1);
    put_g2(&mut out, &vk.beta_g2);
    put_g2(&mut out, &vk.gamma_g2);
    put_g2(&mut out, &vk.delta_g2);
    put_g1_vec(&mut out, &vk.ic);
    out
}

fn read_vk(r: &mut Reader) -> Option<VerifyingKey> {
    Some(VerifyingKey {
        alpha_g1: read_g1(r)?,
        beta_g2: read_g2(r)?,
        gamma_g2: read_g2(r)?,
        delta_g2: read_g2(r)?,
        ic: read_g1_vec(r)?,
    })
}

/// Serializes a proving key (embedded verifying key included) — the key
/// material only: the witness-derived state `prove` carries between proofs
/// is not part of the format, so the bytes are the same before and after
/// any number of proofs and [`pk_from_bytes`] always yields a cold key.
pub fn pk_to_bytes(pk: &ProvingKey) -> Vec<u8> {
    let mut out = Vec::with_capacity(pk.size_in_bytes() + 32);
    out.extend_from_slice(&vk_to_bytes(&pk.vk));
    put_g1(&mut out, &pk.beta_g1);
    put_g1(&mut out, &pk.delta_g1);
    put_g1_vec(&mut out, &pk.a_query);
    put_g1_vec(&mut out, &pk.b_g1_query);
    put_len(&mut out, pk.b_g2_query.len());
    for p in &pk.b_g2_query {
        put_g2(&mut out, p);
    }
    put_g1_vec(&mut out, &pk.h_query);
    put_g1_vec(&mut out, &pk.l_query);
    out
}

/// Deserializes a proving key, validating every point.
///
/// Returns `None` on truncation, trailing bytes, non-canonical field
/// elements, or off-curve points.
pub fn pk_from_bytes(bytes: &[u8]) -> Option<ProvingKey> {
    let mut r = Reader::new(bytes);
    let pk = read_pk(&mut r)?;
    r.finish().ok()?;
    Some(pk)
}

fn read_pk(r: &mut Reader) -> Option<ProvingKey> {
    let vk = read_vk(r)?;
    let beta_g1 = read_g1(r)?;
    let delta_g1 = read_g1(r)?;
    let a_query = read_g1_vec(r)?;
    let b_g1_query = read_g1_vec(r)?;
    let b_g2_query = (0..r.count(128).ok()?)
        .map(|_| read_g2(r))
        .collect::<Option<_>>()?;
    let h_query = read_g1_vec(r)?;
    let l_query = read_g1_vec(r)?;
    Some(ProvingKey {
        vk,
        beta_g1,
        delta_g1,
        a_query,
        b_g1_query,
        b_g2_query,
        h_query,
        l_query,
        memo: Default::default(),
    })
}

/// Writes the matrix whose rows are the combinations `ids` as sparse rows.
fn put_matrix(out: &mut Vec<u8>, shape: &Shape, ids: &[u32]) {
    let mut end = 0u32;
    for &id in ids {
        end = u32::try_from(shape.combo(id).len())
            .ok()
            .and_then(|len| end.checked_add(len))
            .expect("fewer than 2³² terms in a matrix");
        put_u32(out, end);
    }
    for &id in ids {
        for &(col, coeff) in shape.combo(id) {
            put_u32(out, col);
            put_u32(out, coeff);
        }
    }
}

/// One matrix as written: its row ends, checked to be non-decreasing,
/// and its terms' bytes, read row by row as [`Shape::push_constraint`]
/// needs them.
struct RawMatrix<'a> {
    row_end: Vec<u32>,
    terms: &'a [u8],
}

fn read_matrix<'a>(r: &mut Reader<'a>, rows: usize) -> Option<RawMatrix<'a>> {
    let mut row_end = Vec::with_capacity(rows);
    for _ in 0..rows {
        let end = r.u32().ok()?;
        if row_end.last().is_some_and(|prev| end < *prev) {
            return None;
        }
        row_end.push(end);
    }
    // The last row end is the term count.
    let n = r
        .fits(row_end.last().copied().unwrap_or(0).into(), 8)
        .ok()?;
    Some(RawMatrix {
        row_end,
        terms: r.take(n * 8).ok()?,
    })
}

impl RawMatrix<'_> {
    /// Row `j`'s terms into `out`; `None` for a column or coefficient id
    /// out of range.
    fn row(
        &self,
        j: usize,
        num_vars: usize,
        num_coeffs: usize,
        out: &mut Vec<(u32, u32)>,
    ) -> Option<()> {
        let start = j.checked_sub(1).map_or(0, |i| self.row_end[i]) as usize;
        out.clear();
        for term in self.terms[start * 8..self.row_end[j] as usize * 8].chunks_exact(8) {
            let word = |k: usize| u32::from_le_bytes(term[k..k + 4].try_into().expect("4 bytes"));
            let (col, id) = (word(0), word(4));
            if col as usize >= num_vars || id as usize >= num_coeffs {
                return None;
            }
            out.push((col, id));
        }
        Some(())
    }
}

/// Serializes a constraint system's *shape* (variable counts and the
/// three sparse matrices — not the assignment, which provers rebind per
/// proof). Each matrix is written row by row, every row's terms in full,
/// although the system holds each distinct combination once:
///
/// ```text
/// num_instance:u32 ‖ num_witness:u32 ‖ finalized:u8
///   ‖ |table|:u32 ‖ table (32 B each) ‖ rows:u32
///   ‖ for A, B, C: row_end (rows × u32) ‖ terms (col:u32 ‖ id:u32 each)
/// ```
pub fn cs_shape_to_bytes(cs: &ConstraintSystem) -> Vec<u8> {
    let shape = cs.shape();
    let mut out = Vec::with_capacity(
        17 + shape.coeffs.len() * 32 + cs.num_constraints() * 12 + cs.num_terms() * 8,
    );
    put_len(&mut out, cs.num_instance());
    put_len(&mut out, cs.num_witness());
    out.push(cs.is_finalized() as u8);
    put_len(&mut out, shape.coeffs.len());
    for coeff in &shape.coeffs {
        out.extend_from_slice(&coeff.to_le_bytes());
    }
    put_len(&mut out, cs.num_constraints());
    for ids in [&shape.a, &shape.b, &shape.c] {
        put_matrix(&mut out, shape, ids);
    }
    out
}

/// Deserializes a constraint-system shape; the assignment comes back
/// zeroed (constant one aside) for the caller to rebind. The table of
/// distinct combinations is rebuilt from the rows, constraint by
/// constraint, so it numbers them as the system that wrote them did.
///
/// Returns `None` on truncation, trailing bytes, a declared count the
/// remaining bytes cannot back, a non-canonical coefficient, decreasing
/// row ends, or a term whose column or coefficient id is out of range.
pub fn cs_shape_from_bytes(bytes: &[u8]) -> Option<ConstraintSystem> {
    let mut r = Reader::new(bytes);
    let num_instance = r.u32().ok()? as usize;
    let num_witness = r.u32().ok()? as usize;
    if num_instance == 0 {
        return None;
    }
    // `from_shape` allocates an assignment slot per declared variable, so
    // the counts are length prefixes too: a shape may not declare more
    // variables than it has bytes left to mention them in.
    let num_vars = r.fits(num_instance as u64 + num_witness as u64, 1).ok()?;
    let finalized = r.bool().ok()?;
    let coeffs = (0..r.count(32).ok()?)
        .map(|_| read_field::<Fr>(&mut r))
        .collect::<Option<Vec<_>>>()?;
    // Smallest constraint: one row end in each matrix.
    let rows = r.count(12).ok()?;
    let matrices = [
        read_matrix(&mut r, rows)?,
        read_matrix(&mut r, rows)?,
        read_matrix(&mut r, rows)?,
    ];
    r.finish().ok()?;
    let num_coeffs = coeffs.len();
    let mut shape = Shape {
        coeffs,
        ..Shape::default()
    };
    let mut index = ComboIndex::default();
    let mut terms: [Vec<(u32, u32)>; 3] = Default::default();
    for j in 0..rows {
        for (m, out) in matrices.iter().zip(&mut terms) {
            m.row(j, num_vars, num_coeffs, out)?;
        }
        shape.push_constraint(&mut index, terms.each_ref().map(Vec::as_slice));
    }
    Some(ConstraintSystem::from_shape(
        num_instance,
        num_witness,
        shape,
        finalized,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groth16::{prove, setup, PreparedVerifyingKey};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_cs() -> ConstraintSystem {
        let mut cs = ConstraintSystem::new();
        let out = cs.alloc_input(Fr::from_u64(12));
        let a = cs.alloc_witness(Fr::from_u64(3));
        let b = cs.alloc_witness(Fr::from_u64(4));
        cs.enforce(a, b, out);
        cs.finalize();
        cs
    }

    #[test]
    fn pk_roundtrip_and_prove_with_restored_key() {
        let mut rng = StdRng::seed_from_u64(31);
        let cs = toy_cs();
        let pk = setup(&cs, &mut rng);
        let bytes = pk_to_bytes(&pk);
        let restored = pk_from_bytes(&bytes).expect("roundtrip");
        assert_eq!(restored.vk, pk.vk);
        assert_eq!(restored.a_query, pk.a_query);
        assert_eq!(restored.b_g2_query, pk.b_g2_query);
        // A proof from the restored key verifies under the original vk.
        let proof = prove(&restored, &cs, &mut rng).unwrap();
        let pvk = PreparedVerifyingKey::from(pk.vk.clone());
        assert!(pvk.verify(&proof, &[Fr::from_u64(12)]).unwrap());
        // What that proof left in the key is not part of the format.
        assert!(restored.last_changed_vars().is_some());
        assert_eq!(pk_to_bytes(&restored), bytes);
        assert_eq!(pk_from_bytes(&bytes).unwrap().last_changed_vars(), None);
    }

    #[test]
    fn cs_shape_roundtrip_preserves_constraints() {
        let cs = toy_cs();
        let bytes = cs_shape_to_bytes(&cs);
        let restored = cs_shape_from_bytes(&bytes).expect("roundtrip");
        assert_eq!(restored.num_instance(), cs.num_instance());
        assert_eq!(restored.num_witness(), cs.num_witness());
        assert_eq!(restored.is_finalized(), cs.is_finalized());
        assert_eq!(restored.shape(), cs.shape());
        assert_eq!(cs_shape_to_bytes(&restored), bytes);
    }

    #[test]
    fn shape_bytes_with_shared_combinations_are_unchanged() {
        // Every row written in full, as before the system held each
        // distinct combination once: the same 225 bytes.
        const EXPECTED: &str = "010000000500000001020000000100000000000000000000000000000000000000000000000000000000000000030000000000000000000000000000000000000000000000000000000000000004000000010000000300000004000000050000000100000000000000010000000000000002000000010000000300000000000000000000000000000001000000020000000400000004000000010000000000000001000000000000000100000000000000020000000100000001000000020000000300000003000000030000000000000004000000000000000500000000000000";
        let cs = crate::r1cs::shared_combination_cs();
        let bytes = cs_shape_to_bytes(&cs);
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, EXPECTED);
        let restored = cs_shape_from_bytes(&bytes).expect("roundtrip");
        assert_eq!(restored.shape(), cs.shape());
        assert_eq!(cs_shape_to_bytes(&restored), bytes);
    }

    #[test]
    fn corrupted_bytes_rejected() {
        let mut rng = StdRng::seed_from_u64(32);
        let cs = toy_cs();
        let pk = setup(&cs, &mut rng);
        let bytes = pk_to_bytes(&pk);
        // Truncation.
        assert!(pk_from_bytes(&bytes[..bytes.len() - 1]).is_none());
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(pk_from_bytes(&long).is_none());
        // A flipped coordinate byte lands off-curve (or non-canonical).
        let mut flipped = bytes.clone();
        let coord_start = bytes.len() - 64; // inside the last l_query point
        flipped[coord_start] ^= 1;
        assert!(pk_from_bytes(&flipped).is_none());
    }

    /// Every way a hostile shape blob can lie is `None` before anything
    /// is sized from it. The toy shape is 125 bytes:
    ///
    /// ```text
    ///   0 num_instance=2   4 num_witness=2   8 finalized=1
    ///   9 |table|=1       13 table[0]=1     45 rows=3
    ///  49 A: row_end 1,2,3   61 terms (2,0) (0,0) (1,0)
    ///  85 B: row_end 1,1,1   97 terms (3,0)
    /// 105 C: row_end 1,1,1  117 terms (1,0)
    /// ```
    #[test]
    fn hostile_shape_bytes_rejected() {
        let shape = cs_shape_to_bytes(&toy_cs());
        assert_eq!(shape.len(), 125);
        assert!(cs_shape_from_bytes(&shape).is_some());
        let with_u32 = |at: usize, v: u32| {
            let mut bad = shape.clone();
            bad[at..at + 4].copy_from_slice(&v.to_le_bytes());
            cs_shape_from_bytes(&bad)
        };
        assert!(cs_shape_from_bytes(&shape[..shape.len() - 1]).is_none());
        // Column ≥ variable count (there are four variables).
        assert!(with_u32(61, 4).is_none());
        assert!(with_u32(117, u32::MAX).is_none());
        // Coefficient id ≥ table length.
        assert!(with_u32(65, 1).is_none());
        // Row ends that decrease, or that lie past the bytes left.
        assert!(with_u32(53, 0).is_none());
        assert!(with_u32(57, u32::MAX).is_none());
        assert!(with_u32(113, 2).is_none());
        // No constant-one variable.
        assert!(with_u32(0, 0).is_none());
        // Declared counts the bytes cannot back — variables (they size the
        // assignment vectors), table entries, rows — are refused before
        // anything is allocated.
        assert!(with_u32(0, u32::MAX).is_none());
        assert!(with_u32(4, u32::MAX).is_none());
        assert!(with_u32(9, u32::MAX).is_none());
        assert!(with_u32(45, u32::MAX).is_none());
        // A table entry ≥ the field modulus.
        let mut bad = shape.clone();
        bad[13..45].fill(0xFF);
        assert!(cs_shape_from_bytes(&bad).is_none());
    }

    #[test]
    fn infinity_points_roundtrip() {
        let mut out = Vec::new();
        put_g1(&mut out, &G1Affine::identity());
        put_g2(&mut out, &G2Affine::identity());
        let mut r = Reader::new(&out);
        assert!(read_g1(&mut r).unwrap().is_identity());
        assert!(read_g2(&mut r).unwrap().is_identity());
        assert_eq!(r.finish(), Ok(()));
    }
}
