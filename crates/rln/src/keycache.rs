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
//! "WAKURLNK" ‖ version:u32 ‖ depth:u32 ‖ shape ‖ pk ‖ fnv1a64(all previous bytes)
//! ```
//!
//! `shape` is [`put_cs_shape`]: the template's tables as the prover holds
//! them — each distinct coefficient and each distinct combination once,
//! and one combination id per row of each matrix. Both parts are written
//! straight into the sealed buffer and read back through the envelope's
//! one cursor, each of them self-delimiting. `docs/FIGURES.md` E3 gives
//! the file's size per depth beside the key's and the template's. A file
//! of an earlier version is a cache miss, regenerated like any other
//! stale blob.
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
//! [`put_pk`], so a key file holds no identity material and a loaded
//! key always starts cold.
use std::path::Path;

use waku_snark::groth16::ProvingKey;
use waku_snark::serialize::{put_cs_shape, put_pk, read_cs_shape, read_pk};
use waku_snark::ConstraintSystem;
#[cfg(doc)]
use waku_snark::WitnessSolver;
use waku_wire::{envelope, put_u32};

/// Blob magic: identifies an RLN key-cache file.
const MAGIC: &[u8; 8] = b"WAKURLNK";

/// Bumped whenever the serialized layout (or the circuit itself, which
/// the shape encodes) changes incompatibly; stale versions are ignored
/// and regenerated rather than migrated.
const VERSION: u32 = 3;

/// Serializes `(pk, template)` into a versioned, checksummed blob.
pub fn encode_keys(depth: usize, pk: &ProvingKey, template: &ConstraintSystem) -> Vec<u8> {
    envelope::seal(MAGIC, VERSION, |out| {
        // The key and the held template bound the body and its checksum
        // (`exp_paper_tables` checks the file against the same sum), so
        // the buffer is allocated once.
        out.reserve(pk.size_in_bytes() + template.resident_bytes() + 64);
        put_u32(out, u32::try_from(depth).expect("depth fits u32"));
        put_cs_shape(out, template);
        put_pk(out, pk);
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
    let template = read_cs_shape(&mut body)?;
    let pk = read_pk(&mut body)?;
    body.finish().ok()?;
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
        assert_eq!(
            waku_snark::serialize::cs_shape_to_bytes(&cs),
            waku_snark::serialize::cs_shape_to_bytes(&template)
        );

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

    /// An intact file of an earlier envelope version — 1 (every term
    /// spelled out) or 2 (every row's terms in full) — is a cache miss: the
    /// version is checked before a byte of the body is parsed, so the
    /// file is regenerated in place once, never read as the current
    /// layout and never migrated.
    #[test]
    fn stale_versions_are_a_miss_and_get_overwritten_once() {
        let mut rng = StdRng::seed_from_u64(42);
        let (prover, _) = RlnProver::keygen(3, &mut rng);
        let current = encode_keys(3, prover.proving_key(), &crate::circuit::build_for_setup(3));
        for version in [1, 2] {
            let path = std::env::temp_dir().join(format!(
                "waku-rln-keycache-v{version}-{}.bin",
                std::process::id()
            ));
            // The same body under a valid header and checksum of that version.
            let stale = envelope::seal(MAGIC, version, |out| {
                out.extend_from_slice(&current[MAGIC.len() + 4..current.len() - 8])
            });
            assert!(decode_keys(&stale, 3).is_none(), "version {version}");
            std::fs::write(&path, &stale).unwrap();
            assert!(load_keys(&path, 3).is_none());

            let (regenerated, _) = RlnProver::keygen_or_load(3, &path, &mut rng);
            assert_ne!(regenerated.proving_key().vk, prover.proving_key().vk);
            let written = std::fs::read(&path).unwrap();
            let (pk, _) = decode_keys(&written, 3).expect("overwritten with the current version");
            assert_eq!(pk.vk, regenerated.proving_key().vk);
            // Once: the next open loads that file and leaves it as it is.
            let (reloaded, _) = RlnProver::keygen_or_load(3, &path, &mut rng);
            assert_eq!(reloaded.proving_key().vk, regenerated.proving_key().vk);
            assert_eq!(std::fs::read(&path).unwrap(), written);
            let _ = std::fs::remove_file(&path);
        }
    }
}
