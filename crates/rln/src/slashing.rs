//! Local spam detection and identity-key recovery (paper §III-F).
//!
//! Every routing peer keeps a *nullifier map* of the shares it has seen per
//! epoch. A new bundle whose internal nullifier collides with a stored one
//! is either a duplicate (same share — discard) or a spam signal (different
//! share — reconstruct `sk` and slash).

use waku_arith::fields::Fr;
use waku_poseidon::poseidon1;

/// Outcome of checking a (proof-valid) bundle against the nullifier map.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RateCheck {
    /// First signal for this nullifier in this epoch — relay it.
    Fresh,
    /// Identical share seen before — a duplicate to discard silently.
    Duplicate,
    /// Double-signaling detected: the recovered identity secret key.
    Spam(SpamEvidence),
    /// The epoch lies outside the retained window
    /// ([`crate::NullifierStore`] only): nothing was stored. Messages
    /// that old (or that far in the future) are dropped by the upstream
    /// epoch-gap check, so routing code treats this as an ignore.
    OutOfWindow,
}

/// Evidence of a rate violation: the two shares and the recovered key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpamEvidence {
    /// The epoch in which the violation happened.
    pub epoch: u64,
    /// First observed share.
    pub share_a: (Fr, Fr),
    /// Second observed share.
    pub share_b: (Fr, Fr),
    /// The reconstructed identity secret key `sk = A(0)`.
    pub recovered_secret: Fr,
}

impl SpamEvidence {
    /// The commitment of the recovered key — what the contract actually
    /// removes from the membership list.
    pub fn recovered_commitment(&self) -> Fr {
        poseidon1(self.recovered_secret)
    }
}

/// The per-epoch nullifier map (paper §III-F): nullifier → first-seen share.
///
/// This is the *unbounded* reference structure: it remembers every epoch
/// it has ever seen unless [`NullifierMap::prune`] is called, and pruning
/// scans every retained epoch. Production paths use the epoch-windowed
/// [`crate::NullifierStore`] instead, whose expiry clears one epoch's
/// slot in place; the map is compiled for tests only, as the behavioral
/// oracle the store is checked against.
#[cfg(test)]
#[derive(Clone, Debug, Default)]
pub(crate) struct NullifierMap {
    epochs: std::collections::HashMap<u64, std::collections::HashMap<[u8; 32], (Fr, Fr)>>,
}

#[cfg(test)]
impl NullifierMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of epochs currently tracked.
    pub fn tracked_epochs(&self) -> usize {
        self.epochs.len()
    }

    /// Total number of stored shares.
    pub fn len(&self) -> usize {
        self.epochs.values().map(|m| m.len()).sum()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checks a bundle (assumed proof-valid) and records its share.
    pub fn check_and_insert(&mut self, bundle: &crate::RlnMessageBundle) -> RateCheck {
        use waku_arith::traits::PrimeField;
        self.check_shares(bundle.epoch, bundle.nullifier.to_le_bytes(), bundle.share())
    }

    /// [`NullifierMap::check_and_insert`] on raw parts — for oracle tests
    /// that carry the nullifier and share outside a bundle.
    pub fn check_shares(&mut self, epoch: u64, nullifier: [u8; 32], share: (Fr, Fr)) -> RateCheck {
        let epoch_map = self.epochs.entry(epoch).or_default();
        match epoch_map.get(&nullifier) {
            None => {
                epoch_map.insert(nullifier, share);
                RateCheck::Fresh
            }
            Some(&prev) if prev == share => RateCheck::Duplicate,
            Some(&prev) => match waku_shamir::recover_from_two(prev, share) {
                Ok(recovered) => RateCheck::Spam(SpamEvidence {
                    epoch,
                    share_a: prev,
                    share_b: share,
                    recovered_secret: recovered,
                }),
                // Same x, different y cannot both sit behind valid proofs
                // (x = H(m) binds the payload); mirror NullifierStore and
                // classify the malformed replay as a duplicate.
                Err(_) => RateCheck::Duplicate,
            },
        }
    }

    /// Drops all state for epochs older than `current_epoch − max_gap`
    /// (the `Thr` window of §III-F: older messages are rejected upstream,
    /// so their nullifiers need not be remembered).
    pub fn prune(&mut self, current_epoch: u64, max_gap: u64) {
        self.epochs
            .retain(|epoch, _| current_epoch.saturating_sub(*epoch) <= max_gap);
    }

    /// Bytes of state (≈ 96 B per stored share: nullifier + x + y).
    pub fn storage_bytes(&self) -> usize {
        self.len() * 96
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identity::Identity;
    use crate::nullifier::{derive, external_nullifier, message_hash};
    use crate::prover::RlnMessageBundle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use waku_arith::traits::Field;
    use waku_curve::{G1Affine, G2Affine};
    use waku_shamir::recover_from_two;
    use waku_snark::groth16::Proof;

    /// Builds a structurally-complete bundle without a real proof (the
    /// nullifier map never looks at `proof`).
    fn bundle_for(id: &Identity, payload: &[u8], epoch: u64) -> RlnMessageBundle {
        let x = message_hash(payload);
        let ext = external_nullifier(epoch);
        let (_, phi, y) = derive(id.secret(), ext, x);
        RlnMessageBundle {
            payload: payload.to_vec(),
            y,
            nullifier: phi,
            epoch,
            root: Fr::zero(),
            proof: Proof {
                a: G1Affine::generator(),
                b: G2Affine::generator(),
                c: G1Affine::generator(),
            },
        }
    }

    #[test]
    fn fresh_then_duplicate() {
        let mut rng = StdRng::seed_from_u64(1);
        let id = Identity::random(&mut rng);
        let mut map = NullifierMap::new();
        let b = bundle_for(&id, b"hello", 7);
        assert_eq!(map.check_and_insert(&b), RateCheck::Fresh);
        assert_eq!(map.check_and_insert(&b), RateCheck::Duplicate);
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn double_signal_recovers_key() {
        let mut rng = StdRng::seed_from_u64(2);
        let id = Identity::random(&mut rng);
        let mut map = NullifierMap::new();
        assert_eq!(
            map.check_and_insert(&bundle_for(&id, b"first", 7)),
            RateCheck::Fresh
        );
        match map.check_and_insert(&bundle_for(&id, b"second", 7)) {
            RateCheck::Spam(ev) => {
                assert_eq!(ev.recovered_secret, id.secret());
                assert_eq!(ev.recovered_commitment(), id.commitment());
                assert_eq!(ev.epoch, 7);
            }
            other => panic!("expected spam, got {other:?}"),
        }
    }

    #[test]
    fn different_epochs_do_not_collide() {
        let mut rng = StdRng::seed_from_u64(3);
        let id = Identity::random(&mut rng);
        let mut map = NullifierMap::new();
        assert_eq!(
            map.check_and_insert(&bundle_for(&id, b"m1", 7)),
            RateCheck::Fresh
        );
        assert_eq!(
            map.check_and_insert(&bundle_for(&id, b"m2", 8)),
            RateCheck::Fresh,
            "one message per epoch is allowed"
        );
    }

    #[test]
    fn different_peers_do_not_collide() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Identity::random(&mut rng);
        let b = Identity::random(&mut rng);
        let mut map = NullifierMap::new();
        assert_eq!(
            map.check_and_insert(&bundle_for(&a, b"m", 7)),
            RateCheck::Fresh
        );
        assert_eq!(
            map.check_and_insert(&bundle_for(&b, b"m", 7)),
            RateCheck::Fresh
        );
    }

    #[test]
    fn prune_drops_old_epochs() {
        let mut rng = StdRng::seed_from_u64(5);
        let id = Identity::random(&mut rng);
        let mut map = NullifierMap::new();
        map.check_and_insert(&bundle_for(&id, b"old", 5));
        map.check_and_insert(&bundle_for(&id, b"new", 10));
        map.prune(10, 2);
        assert_eq!(map.tracked_epochs(), 1);
        // epoch-5 record is gone; a re-signal there is Fresh again (but
        // would be dropped by the epoch-gap check upstream anyway).
        assert_eq!(
            map.check_and_insert(&bundle_for(&id, b"old2", 5)),
            RateCheck::Fresh
        );
    }

    #[test]
    fn same_epoch_shares_recover_sk_directly() {
        // §III-F: within one epoch both shares lie on A(x) = sk + a1·x, so
        // Lagrange interpolation at 0 yields exactly the identity key.
        let mut rng = StdRng::seed_from_u64(7);
        let id = Identity::random(&mut rng);
        let ext = external_nullifier(42);
        let x1 = message_hash(b"first message");
        let x2 = message_hash(b"second message");
        let (_, _, y1) = derive(id.secret(), ext, x1);
        let (_, _, y2) = derive(id.secret(), ext, x2);
        let recovered = recover_from_two((x1, y1), (x2, y2)).expect("distinct x");
        assert_eq!(recovered, id.secret());
        assert_eq!(poseidon1(recovered), id.commitment());
    }

    #[test]
    fn cross_epoch_shares_do_not_recover_sk() {
        // §III-F privacy property: the line coefficient a1 = H(sk, ext)
        // changes every epoch, so one share per epoch reveals nothing —
        // interpolating shares from different lines lands off the secret.
        let mut rng = StdRng::seed_from_u64(8);
        let id = Identity::random(&mut rng);
        let x1 = message_hash(b"epoch 42 message");
        let x2 = message_hash(b"epoch 43 message");
        let (_, _, y1) = derive(id.secret(), external_nullifier(42), x1);
        let (_, _, y2) = derive(id.secret(), external_nullifier(43), x2);
        let recovered = recover_from_two((x1, y1), (x2, y2)).expect("distinct x");
        assert_ne!(recovered, id.secret());
        assert_ne!(poseidon1(recovered), id.commitment());
    }

    #[test]
    fn cross_peer_shares_do_not_recover_either_sk() {
        // Two honest peers publishing in the same epoch are on different
        // lines entirely; a colluding router learns neither key.
        let mut rng = StdRng::seed_from_u64(9);
        let a = Identity::random(&mut rng);
        let b = Identity::random(&mut rng);
        let ext = external_nullifier(42);
        let x1 = message_hash(b"from a");
        let x2 = message_hash(b"from b");
        let (_, _, y1) = derive(a.secret(), ext, x1);
        let (_, _, y2) = derive(b.secret(), ext, x2);
        let recovered = recover_from_two((x1, y1), (x2, y2)).expect("distinct x");
        assert_ne!(recovered, a.secret());
        assert_ne!(recovered, b.secret());
    }

    #[test]
    fn storage_accounting() {
        let mut rng = StdRng::seed_from_u64(6);
        let id = Identity::random(&mut rng);
        let mut map = NullifierMap::new();
        assert_eq!(map.storage_bytes(), 0);
        map.check_and_insert(&bundle_for(&id, b"m", 1));
        assert_eq!(map.storage_bytes(), 96);
        assert!(!map.is_empty());
    }
}
