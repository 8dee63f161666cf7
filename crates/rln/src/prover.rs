//! Proof generation and verification for the RLN relation, plus the
//! message bundle type peers gossip (paper §III-E:
//! `(m, (x,y), φ, epoch, τ, π)`).

use rand::Rng;
use waku_arith::fields::Fr;
use waku_arith::traits::Field;
use waku_merkle::MerklePath;
use waku_snark::groth16::{
    prove, setup, Isolation, IsolationWork, PreparedVerifyingKey, Proof, ProvingKey,
};
use waku_snark::serialize::read_field;
use waku_snark::SnarkError;
use waku_wire::{put_bytes, put_u64, Reader};

use crate::circuit::{build_for_setup, RlnPublicInputs};
use crate::identity::Identity;
use crate::nullifier::{derive, external_nullifier, message_hash};

/// The wire bundle a peer publishes with every message (paper Figure 3):
/// payload `m`, share `(x, y)`, internal nullifier `φ`, epoch, tree root
/// `τ`, and the Groth16 proof `π`.
///
/// `x` is *not* carried: validators must recompute `x = H(m)` themselves,
/// otherwise a spammer could lie about it.
#[derive(Clone, Debug, PartialEq)]
pub struct RlnMessageBundle {
    /// Application payload `m`.
    pub payload: Vec<u8>,
    /// Share y-coordinate (`y = sk + a1·x`).
    pub y: Fr,
    /// Internal nullifier `φ`.
    pub nullifier: Fr,
    /// Publishing epoch.
    pub epoch: u64,
    /// Identity-commitment tree root the proof was made against.
    pub root: Fr,
    /// The zkSNARK proof `π`.
    pub proof: Proof,
}

impl RlnMessageBundle {
    /// The share `(x, y)` revealed by this bundle.
    pub fn share(&self) -> (Fr, Fr) {
        (message_hash(&self.payload), self.y)
    }

    /// The public inputs this bundle claims.
    pub fn public_inputs(&self) -> RlnPublicInputs {
        RlnPublicInputs {
            x: message_hash(&self.payload),
            external_nullifier: external_nullifier(self.epoch),
            root: self.root,
            y: self.y,
            nullifier: self.nullifier,
        }
    }

    /// Wire size in bytes (payload + y + φ + epoch + τ + π).
    pub fn size_in_bytes(&self) -> usize {
        self.payload.len() + 32 + 32 + 8 + 32 + 256
    }

    /// Serializes the bundle for the gossip wire:
    /// `len(payload) ‖ payload ‖ y ‖ φ ‖ epoch ‖ τ ‖ π`.
    pub fn to_bytes(&self) -> Vec<u8> {
        use waku_arith::traits::PrimeField;
        let mut out = Vec::with_capacity(4 + self.size_in_bytes());
        put_bytes(&mut out, &self.payload);
        out.extend_from_slice(&self.y.to_le_bytes());
        out.extend_from_slice(&self.nullifier.to_le_bytes());
        put_u64(&mut out, self.epoch);
        out.extend_from_slice(&self.root.to_le_bytes());
        out.extend_from_slice(&self.proof.to_bytes());
        out
    }

    /// Parses a bundle from wire bytes, validating field canonicity and
    /// that proof points are on-curve. Returns `None` for malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let payload = r.bytes().ok()?.to_vec();
        let y = read_field(&mut r)?;
        let nullifier = read_field(&mut r)?;
        let epoch = r.u64().ok()?;
        let root = read_field(&mut r)?;
        let proof = Proof::from_bytes(&r.array().ok()?)?;
        r.finish().ok()?;
        Some(RlnMessageBundle {
            payload,
            y,
            nullifier,
            epoch,
            root,
            proof,
        })
    }
}

/// RLN prover: holds the Groth16 proving key for a fixed tree depth, plus
/// the circuit *template* — the constraint system is built symbolically
/// once at keygen and only its assignment is recomputed per message (free
/// witnesses `sk`, path bits, and siblings are set directly; every gadget
/// intermediate is derived by the [`waku_snark::WitnessSolver`]).
///
/// Proving is incremental (see [`waku_snark::groth16`]): the key remembers
/// the last assignment it proved, so consecutive messages of one identity
/// on an unchanged path re-multiply only the share/nullifier wires — the
/// membership half, 88 % of the circuit at depth 20, is reused. That
/// carried assignment contains `sk` and its hash intermediates; it never
/// leaves process memory ([`crate::keycache`] does not persist it), and it
/// makes proof latency depend on public information only — whether the
/// sender's authentication path moved since its last proof.
/// [`ProvingKey::last_changed_vars`] reports how much a proof reused.
pub struct RlnProver {
    depth: usize,
    pk: ProvingKey,
    template: waku_snark::ConstraintSystem,
    solver: waku_snark::WitnessSolver,
}

impl std::fmt::Debug for RlnProver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RlnProver(depth = {})", self.depth)
    }
}

impl RlnProver {
    /// Runs the (simulated) trusted setup for trees of the given depth and
    /// returns the prover plus the verifier.
    ///
    /// In production this would be an MPC ceremony (paper §II-B,
    /// \[12–15\]). Every peer must hold keys from the *same* ceremony:
    /// generate once, share the pair.
    ///
    /// Setup cost grows with `depth` (the circuit has one Merkle level
    /// per bit); deep production trees (`depth = 20+`) take seconds,
    /// which is why nodes receive the keys instead of re-deriving them.
    ///
    /// # Example
    ///
    /// ```
    /// use rand::SeedableRng;
    /// use waku_merkle::DenseTree;
    /// use waku_rln::{Identity, RlnProver};
    ///
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    /// // Depth 4 keeps the doc-test fast; real deployments use 20+.
    /// let (prover, verifier) = RlnProver::keygen(4, &mut rng);
    ///
    /// // The pair proves and verifies one message per identity per epoch.
    /// let id = Identity::random(&mut rng);
    /// let mut tree = DenseTree::new(4);
    /// tree.set(0, id.commitment());
    /// let bundle = prover
    ///     .prove_message(&id, &tree.proof(0), b"hi", 42, &mut rng)
    ///     .unwrap();
    /// assert!(verifier.verify_bundle(&bundle));
    /// ```
    pub fn keygen<R: Rng + ?Sized>(depth: usize, rng: &mut R) -> (RlnProver, RlnVerifier) {
        let cs = build_for_setup(depth);
        let pk = setup(&cs, rng);
        let verifier = RlnVerifier {
            depth,
            pvk: PreparedVerifyingKey::from(pk.vk.clone()),
        };
        let solver = waku_snark::WitnessSolver::analyze(&cs);
        debug_assert_eq!(
            solver.free_indices().len(),
            1 + 2 * depth,
            "RLN free witnesses are sk plus (bit, sibling) per level"
        );
        (
            RlnProver {
                depth,
                pk,
                template: cs,
                solver,
            },
            verifier,
        )
    }

    /// Like [`RlnProver::keygen`], but backed by the on-disk key cache at
    /// `cache_path`: a valid cached blob for this `depth` turns the
    /// ~second-long trusted-setup simulation into a file read (paper §IV
    /// measures the 3.89 MB key as the dominant cold-start artifact).
    ///
    /// On a cache miss — missing file, corruption, version or depth
    /// mismatch — keys are generated with `rng` and written back
    /// (best-effort: a read-only cache directory degrades to plain
    /// keygen, never an error).
    pub fn keygen_or_load<R: Rng + ?Sized>(
        depth: usize,
        cache_path: &std::path::Path,
        rng: &mut R,
    ) -> (RlnProver, RlnVerifier) {
        Self::load_cached(depth, cache_path)
            .unwrap_or_else(|| Self::keygen_and_save(depth, cache_path, rng))
    }

    /// The miss half of [`RlnProver::keygen_or_load`]: fresh keys from
    /// `rng`, written to `cache_path` best-effort, without reading it
    /// first.
    pub fn keygen_and_save<R: Rng + ?Sized>(
        depth: usize,
        cache_path: &std::path::Path,
        rng: &mut R,
    ) -> (RlnProver, RlnVerifier) {
        let pair = Self::keygen(depth, rng);
        let _ = crate::keycache::save_keys(cache_path, depth, &pair.0.pk, &pair.0.template);
        pair
    }

    /// The load half of [`RlnProver::keygen_or_load`]: the keys cached at
    /// `cache_path` for this `depth`, or `None` on a miss — missing file,
    /// corruption, version or depth mismatch.
    pub fn load_cached(
        depth: usize,
        cache_path: &std::path::Path,
    ) -> Option<(RlnProver, RlnVerifier)> {
        let (pk, template) = crate::keycache::load_keys(cache_path, depth)?;
        let verifier = RlnVerifier {
            depth,
            pvk: PreparedVerifyingKey::from(pk.vk.clone()),
        };
        let solver = waku_snark::WitnessSolver::analyze(&template);
        debug_assert_eq!(solver.free_indices().len(), 1 + 2 * depth);
        Some((
            RlnProver {
                depth,
                pk,
                template,
                solver,
            },
            verifier,
        ))
    }

    /// Tree depth this prover is bound to.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The underlying proving key (e.g. for size accounting, §IV's 3.89 MB
    /// figure).
    pub fn proving_key(&self) -> &ProvingKey {
        &self.pk
    }

    /// Produces the full message bundle for `payload` at `epoch`, proving
    /// membership via `path` (the peer's current authentication path for
    /// its own commitment).
    ///
    /// # Errors
    ///
    /// Returns [`SnarkError::Unsatisfied`] when the path does not match the
    /// identity (e.g. stale tree view — the §III-C synchronization hazard),
    /// and [`SnarkError::KeyMismatch`] when the path's depth differs from
    /// the depth this prover's key was generated for.
    pub fn prove_message<R: Rng + ?Sized>(
        &self,
        identity: &Identity,
        path: &MerklePath,
        payload: &[u8],
        epoch: u64,
        rng: &mut R,
    ) -> Result<RlnMessageBundle, SnarkError> {
        // The cached template has this key's depth; a path of any other
        // depth has no circuit the key can prove.
        if path.siblings.len() != self.depth {
            return Err(SnarkError::KeyMismatch);
        }
        let x = message_hash(payload);
        let ext = external_nullifier(epoch);
        let (_, phi, y) = derive(identity.secret(), ext, x);
        let root = path.compute_root(identity.commitment());
        // Rebind the cached template: instance values, then the free
        // witnesses in allocation order (sk, then per level bit, sibling).
        let mut cs = self.template.clone();
        for (k, v) in [x, ext, root, y, phi].into_iter().enumerate() {
            cs.set_instance_value(k + 1, v);
        }
        let mut free = Vec::with_capacity(1 + 2 * self.depth);
        free.push(identity.secret());
        for (level, sibling) in path.siblings.iter().enumerate() {
            let bit = (path.index >> level) & 1 == 1;
            free.push(if bit { Fr::one() } else { Fr::zero() });
            free.push(*sibling);
        }
        self.solver.solve(&mut cs, &free);
        let proof = prove(&self.pk, &cs, rng)?;
        Ok(RlnMessageBundle {
            payload: payload.to_vec(),
            y,
            nullifier: phi,
            epoch,
            root,
            proof,
        })
    }
}

/// RLN verifier: checks message bundles against a tree root.
#[derive(Clone)]
pub struct RlnVerifier {
    depth: usize,
    pvk: PreparedVerifyingKey,
}

impl std::fmt::Debug for RlnVerifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RlnVerifier(depth = {})", self.depth)
    }
}

impl RlnVerifier {
    /// Tree depth this verifier is bound to.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Verifies the zero-knowledge proof of a bundle.
    ///
    /// This checks the *cryptographic* validity only; epoch-gap and
    /// rate-limit checks are the routing layer's job (`waku-rln-relay`).
    pub fn verify_bundle(&self, bundle: &RlnMessageBundle) -> bool {
        self.pvk
            .verify(&bundle.proof, &bundle.public_inputs().to_vec())
            .unwrap_or(false)
    }

    /// Verifies a batch of bundles with one randomized-linear-combination
    /// pairing check (one multi-Miller-loop + one final exponentiation for
    /// the whole batch) instead of `n` independent pairings.
    ///
    /// Returns `true` iff *every* bundle's proof is valid — a single bad
    /// proof fails the whole batch; callers that need the culprits call
    /// [`RlnVerifier::isolate`] *instead* (it starts with this same
    /// check). An empty batch is vacuously valid.
    pub fn verify_batch(&self, bundles: &[&RlnMessageBundle]) -> bool {
        let proofs: Vec<_> = bundles.iter().map(|b| b.proof).collect();
        let inputs: Vec<_> = bundles.iter().map(|b| b.public_inputs().to_vec()).collect();
        self.pvk.verify_batch(&proofs, &inputs).unwrap_or(false)
    }

    /// Checks the whole batch and, if it fails, finds the invalid bundles
    /// and reports what finding them cost beyond the one batch check
    /// ([`PreparedVerifyingKey::isolate`]): for `k` bad proofs among `n`,
    /// at most `k·(⌈log₂n⌉ + 1)` further final exponentiations and `n`
    /// Miller pairs computed from scratch — the rest replays recorded
    /// lines. A valid batch reports no work.
    pub fn isolate(&self, bundles: &[&RlnMessageBundle]) -> Isolation {
        let proofs: Vec<_> = bundles.iter().map(|b| b.proof).collect();
        let inputs: Vec<_> = bundles.iter().map(|b| b.public_inputs().to_vec()).collect();
        // Structural errors (wrong input arity) cannot be attributed to
        // one index by bisection; conservatively flag everything.
        self.pvk
            .isolate(&proofs, &inputs)
            .unwrap_or_else(|_| Isolation {
                invalid: (0..bundles.len()).collect(),
                work: IsolationWork::default(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;
    use waku_arith::traits::{Field, PrimeField};
    use waku_merkle::DenseTree;

    const DEPTH: usize = 6;

    /// Key generation is the expensive step; share it across tests.
    fn keys() -> &'static (RlnProver, RlnVerifier) {
        static CELL: OnceLock<(RlnProver, RlnVerifier)> = OnceLock::new();
        CELL.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(0xBEEF);
            RlnProver::keygen(DEPTH, &mut rng)
        })
    }

    fn registered_identity(seed: u64) -> (Identity, DenseTree, u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let id = Identity::random(&mut rng);
        let mut tree = DenseTree::new(DEPTH);
        let index = 9u64;
        tree.set(2, Fr::from_u64(1001)); // other members
        tree.set(index, id.commitment());
        tree.set(17, Fr::from_u64(1002));
        (id, tree, index)
    }

    #[test]
    fn prove_verify_roundtrip() {
        let (prover, verifier) = keys();
        let (id, tree, index) = registered_identity(1);
        let mut rng = StdRng::seed_from_u64(2);
        let bundle = prover
            .prove_message(&id, &tree.proof(index), b"hello rln", 1234, &mut rng)
            .unwrap();
        assert!(verifier.verify_bundle(&bundle));
        assert_eq!(bundle.root, tree.root());
    }

    #[test]
    fn tampered_payload_fails() {
        let (prover, verifier) = keys();
        let (id, tree, index) = registered_identity(3);
        let mut rng = StdRng::seed_from_u64(4);
        let mut bundle = prover
            .prove_message(&id, &tree.proof(index), b"original", 1, &mut rng)
            .unwrap();
        bundle.payload = b"tampered".to_vec();
        assert!(
            !verifier.verify_bundle(&bundle),
            "x = H(m) is bound by the proof"
        );
    }

    #[test]
    fn tampered_epoch_fails() {
        let (prover, verifier) = keys();
        let (id, tree, index) = registered_identity(5);
        let mut rng = StdRng::seed_from_u64(6);
        let mut bundle = prover
            .prove_message(&id, &tree.proof(index), b"msg", 10, &mut rng)
            .unwrap();
        bundle.epoch = 11;
        assert!(!verifier.verify_bundle(&bundle));
    }

    #[test]
    fn wrong_root_fails() {
        let (prover, verifier) = keys();
        let (id, tree, index) = registered_identity(7);
        let mut rng = StdRng::seed_from_u64(8);
        let mut bundle = prover
            .prove_message(&id, &tree.proof(index), b"msg", 10, &mut rng)
            .unwrap();
        bundle.root += Fr::one();
        assert!(!verifier.verify_bundle(&bundle));
    }

    #[test]
    fn unregistered_identity_binds_to_wrong_root() {
        // An attacker with a stolen authentication path but their own key
        // can only produce a proof against a root that the real tree never
        // had — routing peers reject unknown roots (§III-F). The proof
        // itself verifies (it is self-consistent) but is useless.
        let (prover, verifier) = keys();
        let (_, tree, index) = registered_identity(9);
        let mut rng = StdRng::seed_from_u64(10);
        let ghost = Identity::random(&mut rng);
        let bundle = prover
            .prove_message(&ghost, &tree.proof(index), b"spam", 1, &mut rng)
            .unwrap();
        assert!(verifier.verify_bundle(&bundle));
        assert_ne!(
            bundle.root,
            tree.root(),
            "forged membership cannot reproduce the canonical root"
        );
    }

    #[test]
    fn stale_path_cannot_prove() {
        let (prover, _) = keys();
        let (id, mut tree, index) = registered_identity(11);
        let stale_path = tree.proof(index);
        tree.set(2, Fr::from_u64(999_999)); // tree moves on
                                            // The stale path still proves against the OLD root, which is what
                                            // the bundle will carry; that's §III-C's sync hazard. Proving still
                                            // works but binds to the old root:
        let mut rng = StdRng::seed_from_u64(12);
        let bundle = prover
            .prove_message(&id, &stale_path, b"msg", 1, &mut rng)
            .unwrap();
        assert_ne!(bundle.root, tree.root(), "bundle is bound to stale root");
    }

    #[test]
    fn wrong_depth_path_is_a_key_mismatch() {
        let (prover, _) = keys();
        let (id, tree, index) = registered_identity(13);
        let path = tree.proof(index);
        let mut shallow = path.clone();
        shallow.siblings.pop();
        let mut deep = path;
        deep.siblings.push(Fr::from_u64(7));
        let mut rng = StdRng::seed_from_u64(14);
        for wrong in [shallow, deep] {
            assert_eq!(
                prover
                    .prove_message(&id, &wrong, b"msg", 1, &mut rng)
                    .unwrap_err(),
                SnarkError::KeyMismatch,
                "depth {}",
                wrong.siblings.len()
            );
        }
    }

    #[test]
    fn share_recovers_secret_on_double_signal() {
        let (prover, _) = keys();
        let (id, tree, index) = registered_identity(13);
        let mut rng = StdRng::seed_from_u64(14);
        let b1 = prover
            .prove_message(&id, &tree.proof(index), b"first message", 99, &mut rng)
            .unwrap();
        let b2 = prover
            .prove_message(&id, &tree.proof(index), b"second message", 99, &mut rng)
            .unwrap();
        assert_eq!(
            b1.nullifier, b2.nullifier,
            "same epoch ⇒ nullifier collision"
        );
        let sk = waku_shamir::recover_from_two(b1.share(), b2.share()).unwrap();
        assert_eq!(sk, id.secret(), "slashing recovers the identity key");
    }

    #[test]
    fn bundle_wire_roundtrip() {
        let (prover, verifier) = keys();
        let (id, tree, index) = registered_identity(20);
        let mut rng = StdRng::seed_from_u64(21);
        let bundle = prover
            .prove_message(&id, &tree.proof(index), b"wire test", 5, &mut rng)
            .unwrap();
        let bytes = bundle.to_bytes();
        let back = RlnMessageBundle::from_bytes(&bytes).unwrap();
        assert_eq!(back, bundle);
        assert!(verifier.verify_bundle(&back));
        // truncation and corruption are rejected
        assert!(RlnMessageBundle::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        let mut corrupt = bytes.clone();
        let y_offset = 4 + bundle.payload.len() + 31;
        corrupt[y_offset] = 0xFF; // non-canonical field element
        assert!(RlnMessageBundle::from_bytes(&corrupt).is_none());
    }

    #[test]
    fn keygen_or_load_roundtrips_through_cache() {
        let path =
            std::env::temp_dir().join(format!("waku-rln-keycache-test-{}.bin", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut rng = StdRng::seed_from_u64(0xCAFE);
        // Cold start: generates and writes the blob.
        let (cold_prover, cold_verifier) = RlnProver::keygen_or_load(4, &path, &mut rng);
        assert!(
            crate::keycache::load_keys(&path, 4).is_some(),
            "cold start must write a blob load_keys can read"
        );
        // Warm start: must load the same key material from disk.
        let (warm_prover, warm_verifier) = RlnProver::keygen_or_load(4, &path, &mut rng);
        assert_eq!(
            warm_prover.proving_key().vk,
            cold_prover.proving_key().vk,
            "warm start reloads the cached ceremony"
        );
        // A proof from the warm prover verifies under the cold verifier
        // and vice versa.
        let id = Identity::random(&mut rng);
        let mut tree = DenseTree::new(4);
        tree.set(3, id.commitment());
        let bundle = warm_prover
            .prove_message(&id, &tree.proof(3), b"warm", 7, &mut rng)
            .unwrap();
        assert!(cold_verifier.verify_bundle(&bundle));
        assert!(warm_verifier.verify_bundle(&bundle));
        assert!(warm_verifier.verify_batch(&[&bundle]));
        // Wrong-depth request ignores the cache instead of mis-loading.
        let (other, _) = RlnProver::keygen_or_load(3, &path, &mut rng);
        assert_eq!(other.depth(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn batch_verification_matches_per_bundle_verdicts() {
        let (prover, verifier) = keys();
        let (id, tree, index) = registered_identity(30);
        let mut rng = StdRng::seed_from_u64(31);
        let mut bundles: Vec<RlnMessageBundle> = (0..4)
            .map(|i| {
                prover
                    .prove_message(
                        &id,
                        &tree.proof(index),
                        format!("msg {i}").as_bytes(),
                        100 + i,
                        &mut rng,
                    )
                    .unwrap()
            })
            .collect();
        let refs: Vec<&RlnMessageBundle> = bundles.iter().collect();
        assert!(verifier.verify_batch(&refs));
        assert!(verifier.isolate(&refs).invalid.is_empty());
        assert!(verifier.verify_batch(&[]), "empty batch is vacuously valid");

        // Corrupt one bundle: the batch fails and bisection pins it.
        bundles[2].epoch += 1;
        let refs: Vec<&RlnMessageBundle> = bundles.iter().collect();
        assert!(!verifier.verify_batch(&refs));
        assert_eq!(verifier.isolate(&refs).invalid, vec![2]);
        for (i, b) in bundles.iter().enumerate() {
            assert_eq!(verifier.verify_bundle(b), i != 2);
        }
    }

    #[test]
    fn bundle_size_accounting() {
        let (prover, _) = keys();
        let (id, tree, index) = registered_identity(15);
        let mut rng = StdRng::seed_from_u64(16);
        let bundle = prover
            .prove_message(&id, &tree.proof(index), b"12345", 1, &mut rng)
            .unwrap();
        assert_eq!(bundle.size_in_bytes(), 5 + 32 + 32 + 8 + 32 + 256);
    }
}
