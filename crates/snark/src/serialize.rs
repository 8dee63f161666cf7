//! Flat binary serialization for proving keys and constraint-system
//! shapes — the payload format under `waku-rln`'s on-disk keygen cache.
//!
//! Everything is little-endian and length-prefixed; a shape is the
//! constraint system's coefficient table, combination table and three
//! combination-id arrays, written as held ([`put_cs_shape`]) and read
//! back into those tables without re-interning a row; group points are
//! uncompressed affine coordinates with `(0, 0)` (not on either curve, as
//! `b ≠ 0`) denoting the point at infinity. Deserialization re-checks
//! canonicity of every field element, curve membership of every point and
//! the range of every index, so a corrupted blob yields `None` rather than
//! an invalid key or shape.
//!
//! Each format has a writer onto a caller's buffer (`put_*`) and a reader
//! from a caller's cursor (`read_*`), so a file holding several of them
//! is written into one buffer and read through one cursor; the
//! `*_to_bytes` / `*_from_bytes` pairs are the same codecs over a buffer
//! of their own.

use waku_arith::fields::Fr;
use waku_arith::traits::PrimeField;
use waku_curve::fp2::Fp2;
use waku_curve::g1::G1Affine;
use waku_curve::g2::G2Affine;
use waku_wire::{put_len, put_u32, Reader};

use crate::groth16::{ProvingKey, VerifyingKey};
use crate::r1cs::{ConstraintSystem, Shape, SparseMatrix};

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

fn put_vk(out: &mut Vec<u8>, vk: &VerifyingKey) {
    put_g1(out, &vk.alpha_g1);
    put_g2(out, &vk.beta_g2);
    put_g2(out, &vk.gamma_g2);
    put_g2(out, &vk.delta_g2);
    put_g1_vec(out, &vk.ic);
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
/// any number of proofs and [`read_pk`] always yields a cold key.
pub fn put_pk(out: &mut Vec<u8>, pk: &ProvingKey) {
    put_vk(out, &pk.vk);
    put_g1(out, &pk.beta_g1);
    put_g1(out, &pk.delta_g1);
    put_g1_vec(out, &pk.a_query);
    put_g1_vec(out, &pk.b_g1_query);
    put_len(out, pk.b_g2_query.len());
    for p in &pk.b_g2_query {
        put_g2(out, p);
    }
    put_g1_vec(out, &pk.h_query);
    put_g1_vec(out, &pk.l_query);
}

/// [`put_pk`] into a buffer of its own.
pub fn pk_to_bytes(pk: &ProvingKey) -> Vec<u8> {
    let mut out = Vec::with_capacity(pk.size_in_bytes() + 32);
    put_pk(&mut out, pk);
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

/// Reads a key written by [`put_pk`], validating every point; `None` on
/// truncation, a non-canonical field element or an off-curve point.
pub fn read_pk(r: &mut Reader) -> Option<ProvingKey> {
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

/// Serializes a finalized constraint system's *shape* — its variable
/// counts and the tables `r1cs::Shape` holds, not the assignment, which
/// provers rebind per proof. Each distinct combination is written once,
/// and each row as the id of its combination:
///
/// ```text
/// num_instance:u32 ‖ num_witness:u32
///   ‖ |coeffs|:u32 ‖ coeffs (32 B each)
///   ‖ |combos|:u32 ‖ row_end (u32 each) ‖ |terms|:u32 ‖ terms (col:u32 ‖ coeff id:u32 each)
///   ‖ rows:u32 ‖ A ‖ B ‖ C (rows × combination id:u32 each)
/// ```
///
/// # Panics
///
/// Panics if `cs` is not finalized.
pub fn put_cs_shape(out: &mut Vec<u8>, cs: &ConstraintSystem) {
    assert!(cs.is_finalized(), "only a finalized shape is written");
    let shape = cs.shape();
    put_len(out, cs.num_instance());
    put_len(out, cs.num_witness());
    put_len(out, shape.coeffs.len());
    for coeff in &shape.coeffs {
        out.extend_from_slice(&coeff.to_le_bytes());
    }
    put_len(out, shape.combos.row_end.len());
    for &end in &shape.combos.row_end {
        put_u32(out, end);
    }
    put_len(out, shape.combos.terms.len());
    for &(col, coeff) in &shape.combos.terms {
        put_u32(out, col);
        put_u32(out, coeff);
    }
    put_len(out, cs.num_constraints());
    for &id in [&shape.a, &shape.b, &shape.c].into_iter().flatten() {
        put_u32(out, id);
    }
}

/// [`put_cs_shape`] into a buffer of its own.
pub fn cs_shape_to_bytes(cs: &ConstraintSystem) -> Vec<u8> {
    // The held tables bound their encoding: the counts take less than
    // the assignment the encoding leaves out.
    let mut out = Vec::with_capacity(cs.resident_bytes());
    put_cs_shape(&mut out, cs);
    out
}

/// The little-endian word in `bytes`, 4 long.
fn word(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes.try_into().expect("4 bytes"))
}

/// `n` words, `None` unless each is below `bound`.
fn read_words(r: &mut Reader, n: usize, bound: usize) -> Option<Vec<u32>> {
    r.take(n.checked_mul(4)?)
        .ok()?
        .chunks_exact(4)
        .map(|w| Some(word(w)).filter(|&v| (v as usize) < bound))
        .collect()
}

/// Reads a shape written by [`put_cs_shape`] into a finalized system;
/// the assignment comes back zeroed (constant one aside) for the caller
/// to rebind. The tables are range-checked and kept as read: a table
/// whose entries repeat is still a valid shape.
///
/// Returns `None` on truncation, a declared count the remaining bytes
/// cannot back, no constant-one variable, a non-canonical coefficient,
/// combination row ends that decrease or do not end at the term count,
/// or a column, coefficient id or combination id out of range.
pub fn read_cs_shape(r: &mut Reader) -> Option<ConstraintSystem> {
    let num_instance = r.u32().ok()? as usize;
    let num_witness = r.u32().ok()? as usize;
    if num_instance == 0 {
        return None;
    }
    // `from_shape` allocates an assignment slot per declared variable, so
    // the counts are length prefixes too: a shape may not declare more
    // variables than it has bytes left to mention them in.
    let num_vars = r.fits(num_instance as u64 + num_witness as u64, 1).ok()?;
    let coeffs = (0..r.count(32).ok()?)
        .map(|_| read_field::<Fr>(r))
        .collect::<Option<Vec<_>>>()?;
    // Row ends are checked against the term count once it is read.
    let num_combos = r.count(4).ok()?;
    let row_end = read_words(r, num_combos, usize::MAX)?;
    let num_terms = r.count(8).ok()?;
    if row_end.windows(2).any(|w| w[1] < w[0])
        || row_end.last().map_or(0, |&end| end as usize) != num_terms
    {
        return None;
    }
    let terms = r
        .take(num_terms * 8)
        .ok()?
        .chunks_exact(8)
        .map(|t| {
            let (col, coeff) = (word(&t[..4]), word(&t[4..]));
            ((col as usize) < num_vars && (coeff as usize) < coeffs.len()).then_some((col, coeff))
        })
        .collect::<Option<Vec<_>>>()?;
    // Smallest constraint: one combination id in each matrix.
    let rows = r.count(12).ok()?;
    let shape = Shape {
        a: read_words(r, rows, num_combos)?,
        b: read_words(r, rows, num_combos)?,
        c: read_words(r, rows, num_combos)?,
        combos: SparseMatrix { row_end, terms },
        coeffs,
    };
    Some(ConstraintSystem::from_shape(
        num_instance,
        num_witness,
        shape,
    ))
}

/// [`read_cs_shape`] over exactly `bytes`: trailing bytes are `None` too.
pub fn cs_shape_from_bytes(bytes: &[u8]) -> Option<ConstraintSystem> {
    let mut r = Reader::new(bytes);
    let cs = read_cs_shape(&mut r)?;
    r.finish().ok()?;
    Some(cs)
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

    /// Layout 3 of `y = x·x`, `w₁ = s·x`, `w₂ = y·s` (`s = x + 3v`),
    /// spelled out from the layout: `s` is A of row 1 and B of row 2, and
    /// `1·y` C of row 0 and A of row 2, and each is written once.
    #[test]
    fn shape_bytes_write_each_shared_combination_once() {
        const EXPECTED: &str = concat!(
            // num_instance = 1 (the constant one), num_witness = 5
            "0100000005000000",
            // two coefficients: 1 and 3
            "02000000",
            "0100000000000000000000000000000000000000000000000000000000000000",
            "0300000000000000000000000000000000000000000000000000000000000000",
            // seven combinations — x, 1·y, s (two terms), w₁, w₂, ONE and
            // the empty one — as their row ends
            "07000000",
            "01000000020000000400000005000000060000000700000007000000",
            // their seven terms, (column, coefficient id), where ONE is
            // column 0, x 1, v 2, y 3, w₁ 4 and w₂ 5
            "07000000",
            "0100000000000000",                 // x
            "0300000000000000",                 // 1·y
            "01000000000000000200000001000000", // s = x + 3v
            "0400000000000000",                 // w₁
            "0500000000000000",                 // w₂
            "0000000000000000",                 // ONE
            // four rows (row 3 is finalize's ONE · 0 = 0), then A, B and C
            // as combination ids
            "04000000",
            "00000000020000000100000005000000",
            "00000000000000000200000006000000",
            "01000000030000000400000006000000",
        );
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
    /// is sized from it. The toy shape is 144 bytes:
    ///
    /// ```text
    ///   0 num_instance=2   4 num_witness=2
    ///   8 |coeffs|=1      12 coeffs[0]=1
    ///  44 |combos|=5      48 row_end 1,2,3,4,4
    ///  68 |terms|=4       72 terms (2,0) (3,0) (1,0) (0,0)
    /// 104 rows=3         108 A 0,3,2   120 B 1,4,4   132 C 2,4,4
    /// ```
    #[test]
    fn hostile_shape_bytes_rejected() {
        let shape = cs_shape_to_bytes(&toy_cs());
        assert_eq!(shape.len(), 144);
        assert!(cs_shape_from_bytes(&shape).is_some());
        let with_u32 = |at: usize, v: u32| {
            let mut bad = shape.clone();
            bad[at..at + 4].copy_from_slice(&v.to_le_bytes());
            cs_shape_from_bytes(&bad)
        };
        assert!(cs_shape_from_bytes(&shape[..shape.len() - 1]).is_none());
        // Column ≥ variable count (there are four variables).
        assert!(with_u32(72, 4).is_none());
        assert!(with_u32(96, u32::MAX).is_none());
        // Coefficient id ≥ table length.
        assert!(with_u32(76, 1).is_none());
        // Combination id ≥ table length, in each matrix.
        assert!(with_u32(108, 5).is_none());
        assert!(with_u32(124, 5).is_none());
        assert!(with_u32(140, u32::MAX).is_none());
        // Row ends that decrease, that lie past the term count, or whose
        // last is not the term count.
        assert!(with_u32(52, 0).is_none());
        assert!(with_u32(56, 5).is_none());
        assert!(with_u32(64, 3).is_none());
        assert!(with_u32(64, 5).is_none());
        // No constant-one variable.
        assert!(with_u32(0, 0).is_none());
        // Declared counts the bytes cannot back — variables (they size the
        // assignment vectors), table entries, row ends, terms, rows — are
        // refused before anything is allocated.
        for at in [0, 4, 8, 44, 68, 104] {
            assert!(with_u32(at, u32::MAX).is_none(), "count at {at}");
        }
        // A table entry ≥ the field modulus.
        let mut bad = shape.clone();
        bad[12..44].fill(0xFF);
        assert!(cs_shape_from_bytes(&bad).is_none());
    }

    #[test]
    #[should_panic(expected = "finalized")]
    fn unfinalized_shape_is_not_written() {
        let mut cs = ConstraintSystem::new();
        let x = cs.alloc_witness(Fr::from_u64(3));
        cs.enforce(x, x, Fr::from_u64(9));
        let _ = cs_shape_to_bytes(&cs);
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
