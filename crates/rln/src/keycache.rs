//! On-disk cold-start cache for RLN proving keys.
//!
//! Groth16 setup for a depth-32 membership circuit costs most of a second
//! — dominated by the per-coefficient MSMs of the trusted-setup queries —
//! and every node pays it again on restart even though the keys are
//! deterministic per ceremony. This module serializes the proving key
//! *and* the circuit template (a [`ConstraintSystem`] shape) into one
//! versioned blob so a warm start is a file read plus the cheap
//! [`WitnessSolver`] re-analysis:
//!
//! ```text
//! "WAKURLNK" ‖ version:u32 ‖ depth:u32 ‖ |shape|:u32 ‖ shape
//!            ‖ |pk|:u32 ‖ pk ‖ fnv1a64(all previous bytes)
//! ```
//!
//! `shape` is [`cs_shape_to_bytes`]: the template's 748-entry coefficient
//! table and its three matrices written row by row, every row in full at
//! 8 B a term — 1.4 MB beside a 2.3 MB key at depth 20, 2.1 beside 3.8 MB
//! at depth 32 (`exp_paper_tables` prints both). That is larger than the
//! template held in memory (737 KB at depth 20), which keeps each distinct
//! combination once; decoding rebuilds that table. Version 1 spelled
//! every term out as `tag ‖ index ‖ coefficient` (37 B) and its files
//! were 8.0 and 12.8 MB; one is a cache miss here, regenerated like any
//! other stale blob.
//!
//! The framing (magic, version, trailing FNV-1a checksum) is the shared
//! [`waku_wire::envelope`]; the checksum catches torn writes and bit rot,
//! and integrity against an *adversary* with write access to the key file
//! is explicitly out of scope — such an adversary could substitute a
//! validly checksummed key from their own ceremony anyway. Parsing
//! additionally re-validates every curve point, so a
//! corrupted-but-checksum-colliding blob still cannot yield an off-curve
//! key.
//!
//! Only the ceremony output is written. What the prover carries inside a
//! [`ProvingKey`] between proofs (the last proved assignment — `sk` and
//! its hash intermediates — and its query sums) is not part of
//! [`pk_to_bytes`], so a key file holds no identity material and a loaded
//! key always starts cold.
use std::path::Path;

use waku_snark::groth16::ProvingKey;
use waku_snark::serialize::{cs_shape_from_bytes, cs_shape_to_bytes, pk_from_bytes, pk_to_bytes};
use waku_snark::ConstraintSystem;
#[cfg(doc)]
use waku_snark::WitnessSolver;
use waku_wire::{envelope, put_bytes, put_u32};

/// Blob magic: identifies an RLN key-cache file.
const MAGIC: &[u8; 8] = b"WAKURLNK";

/// Bumped whenever the serialized layout (or the circuit itself, which
/// the shape encodes) changes incompatibly; stale versions are ignored
/// and regenerated rather than migrated.
const VERSION: u32 = 2;

/// Serializes `(pk, template)` into a versioned, checksummed blob.
pub fn encode_keys(depth: usize, pk: &ProvingKey, template: &ConstraintSystem) -> Vec<u8> {
    let shape = cs_shape_to_bytes(template);
    let pk_bytes = pk_to_bytes(pk);
    envelope::seal(MAGIC, VERSION, |out| {
        out.reserve(4 + 4 + shape.len() + 4 + pk_bytes.len() + 8);
        put_u32(out, u32::try_from(depth).expect("depth fits u32"));
        put_bytes(out, &shape);
        put_bytes(out, &pk_bytes);
    })
}

/// Parses a blob produced by [`encode_keys`], enforcing magic, version,
/// the expected tree depth, the checksum, and full point validation.
///
/// Returns `None` for anything malformed — callers fall back to a fresh
/// keygen, so a bad cache is a slow start, never a wrong key.
pub fn decode_keys(bytes: &[u8], expected_depth: usize) -> Option<(ProvingKey, ConstraintSystem)> {
    let mut body = envelope::open(MAGIC, VERSION, bytes).ok()?;
    if body.u32().ok()? as usize != expected_depth {
        return None;
    }
    let shape = body.bytes().ok()?;
    let pk_bytes = body.bytes().ok()?;
    body.finish().ok()?;
    let template = cs_shape_from_bytes(shape)?;
    let pk = pk_from_bytes(pk_bytes)?;
    // The embedded shape must be the circuit the key was generated for.
    let expected_vars = template.num_instance() + template.num_witness();
    if pk.a_query.len() != expected_vars {
        return None;
    }
    Some((pk, template))
}

/// Writes the key blob to `path` through [`waku_wire::fs::atomic_write`]:
/// a crash mid-write leaves either the old cache or none — never a torn
/// one.
pub fn save_keys(
    path: &Path,
    depth: usize,
    pk: &ProvingKey,
    template: &ConstraintSystem,
) -> std::io::Result<()> {
    waku_wire::fs::atomic_write(path, &encode_keys(depth, pk, template))
}

/// Reads and validates a key blob from `path`. Any I/O or format problem
/// yields `None` (the caller regenerates).
pub fn load_keys(path: &Path, expected_depth: usize) -> Option<(ProvingKey, ConstraintSystem)> {
    decode_keys(&waku_wire::fs::read(path).ok()?, expected_depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prover::RlnProver;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn blob_roundtrip_and_rejections() {
        let mut rng = StdRng::seed_from_u64(41);
        let (prover, _) = RlnProver::keygen(3, &mut rng);
        let template = crate::circuit::build_for_setup(3);
        let blob = encode_keys(3, prover.proving_key(), &template);

        let (pk, cs) = decode_keys(&blob, 3).expect("roundtrip");
        assert_eq!(pk.vk, prover.proving_key().vk);
        assert_eq!(pk.a_query, prover.proving_key().a_query);
        assert_eq!(pk.b_g2_query, prover.proving_key().b_g2_query);
        assert_eq!(pk.h_query, prover.proving_key().h_query);
        assert_eq!(pk.l_query, prover.proving_key().l_query);
        assert_eq!(cs_shape_to_bytes(&cs), cs_shape_to_bytes(&template));

        assert!(decode_keys(&blob, 4).is_none(), "depth mismatch");
        assert!(
            decode_keys(&blob[..blob.len() - 1], 3).is_none(),
            "truncated"
        );
        let mut flipped = blob.clone();
        flipped[64] ^= 1;
        assert!(decode_keys(&flipped, 3).is_none(), "checksum catches flips");
        let mut wrong_magic = blob.clone();
        wrong_magic[0] = b'X';
        assert!(decode_keys(&wrong_magic, 3).is_none());
    }

    /// An intact envelope-version-1 file (from before the shape became
    /// sparse rows) is a cache miss: it is regenerated in place, never
    /// parsed as the new layout and never migrated.
    #[test]
    fn version_1_file_is_a_miss_and_gets_overwritten() {
        let path =
            std::env::temp_dir().join(format!("waku-rln-keycache-v1-{}.bin", std::process::id()));
        let mut rng = StdRng::seed_from_u64(42);
        let (prover, _) = RlnProver::keygen(3, &mut rng);
        let current = encode_keys(3, prover.proving_key(), &crate::circuit::build_for_setup(3));
        // The same body under a valid version-1 header and checksum.
        let stale = envelope::seal(MAGIC, 1, |out| {
            out.extend_from_slice(&current[MAGIC.len() + 4..current.len() - 8])
        });
        assert!(decode_keys(&stale, 3).is_none());
        std::fs::write(&path, &stale).unwrap();
        assert!(load_keys(&path, 3).is_none());

        let (regenerated, _) = RlnProver::keygen_or_load(3, &path, &mut rng);
        assert_ne!(regenerated.proving_key().vk, prover.proving_key().vk);
        let (pk, _) = load_keys(&path, 3).expect("overwritten with the current version");
        assert_eq!(pk.vk, regenerated.proving_key().vk);
        let _ = std::fs::remove_file(&path);
    }
}
