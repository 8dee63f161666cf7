//! Nullifier derivations and the epoch-windowed nullifier lifecycle
//! (paper §II-B, §III-F).
//!
//! Derivations:
//!
//! * external nullifier `∅` — the epoch, embedded in the field,
//! * epoch coefficient `a1 = H(sk, ∅)` — the slope of the per-epoch line,
//! * internal nullifier `φ = H(H(sk, ∅)) = H(a1)` — collides exactly when
//!   the same identity signals twice in the same epoch,
//! * share `(x, y) = (H(m), sk + a1·x)`.
//!
//! Lifecycle: a routing peer only needs nullifier state for epochs that
//! can still pass the §III-F epoch-gap check (`|current − epoch| ≤ Thr`),
//! so [`NullifierStore`] keeps exactly that window — a ring of per-epoch
//! slots, each an arrival-ordered share list with a nullifier index,
//! cleared in place as the clock advances past them — and the resident
//! footprint is O(window), independent of how long the node has been
//! running.

use waku_arith::fields::Fr;
use waku_arith::traits::PrimeField;
use waku_hash::{sha256, ProbeIndex};
use waku_poseidon::{poseidon1, poseidon2};
use waku_shamir::recover_from_two;
use waku_snark::serialize::read_field;
use waku_wire::{put_len, put_u64, Reader};

use crate::prover::RlnMessageBundle;
use crate::slashing::{RateCheck, SpamEvidence};

/// Maps an epoch counter into the field as the external nullifier `∅`.
pub fn external_nullifier(epoch: u64) -> Fr {
    Fr::from_u64(epoch)
}

/// The per-epoch line slope `a1 = H(sk, ∅)`.
pub fn epoch_coefficient(sk: Fr, external: Fr) -> Fr {
    poseidon2(sk, external)
}

/// The internal nullifier `φ = H(a1)`.
pub fn internal_nullifier(a1: Fr) -> Fr {
    poseidon1(a1)
}

/// Hashes a message payload into the share x-coordinate `x = H(m)`
/// (SHA-256 reduced into the field).
pub fn message_hash(payload: &[u8]) -> Fr {
    Fr::from_le_bytes_mod_order(&sha256(payload))
}

/// Computes the full per-message secrets `(a1, φ, y)` for a message hash.
pub fn derive(sk: Fr, external: Fr, x: Fr) -> (Fr, Fr, Fr) {
    let a1 = epoch_coefficient(sk, external);
    let phi = internal_nullifier(a1);
    let y = sk + a1 * x;
    (a1, phi, y)
}

/// Upper bound on the epoch window a store will allocate a ring for.
const MAX_WINDOW_EPOCHS: u64 = 1 << 20;

/// One epoch's nullifier state: the `(nullifier, first-seen share)`
/// pairs in arrival order, and a [`ProbeIndex`] over them keyed by the
/// nullifier's first 4 bytes (internal nullifiers are Poseidon outputs,
/// so those are already uniform). Recycling for a new epoch clears both
/// and keeps their buffers.
#[derive(Clone, Debug)]
struct EpochSlot {
    /// The epoch this slot currently holds (`u64::MAX` = vacant).
    epoch: u64,
    /// `(nullifier, first-seen share)` in arrival order.
    entries: Vec<([u8; 32], (Fr, Fr))>,
    /// Nullifier → its position in `entries`.
    index: ProbeIndex,
}

impl EpochSlot {
    fn new() -> Self {
        EpochSlot {
            epoch: u64::MAX,
            entries: Vec::new(),
            index: ProbeIndex::default(),
        }
    }

    /// Re-labels the slot for `epoch`, dropping every resident entry.
    fn recycle(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.entries.clear();
        self.index.clear();
    }

    /// Returns the share already recorded for `nullifier`, or records
    /// `share` and returns `None`.
    fn lookup_or_insert(&mut self, nullifier: [u8; 32], share: (Fr, Fr)) -> Option<(Fr, Fr)> {
        let hash = u32::from_le_bytes(nullifier[..4].try_into().expect("4-byte prefix"));
        let entries = &self.entries;
        match self
            .index
            .find(hash, |at| entries[at as usize].0 == nullifier)
        {
            Ok(at) => Some(self.entries[at as usize].1),
            Err(key) => {
                let at = u32::try_from(self.entries.len()).expect("under 2³² shares an epoch");
                self.index.insert(key, at);
                self.entries.push((nullifier, share));
                None
            }
        }
    }
}

/// Epoch-windowed nullifier store (paper §III-F): the bounded-memory
/// replacement for an ever-growing per-epoch nullifier map.
///
/// The store retains shares only for epochs inside the acceptance window
/// `[current − Thr, current + Thr]` — exactly the epochs that can still
/// pass the upstream epoch-gap check, per the observation that
/// double-signal detection needs no state beyond the accepted gap. The
/// window is a ring of per-epoch slots indexed by `epoch mod ring_len`;
/// advancing the clock past an epoch clears its slot in place, so the
/// resident footprint is O(window × signals-per-epoch) regardless of
/// uptime.
///
/// # Example
///
/// ```
/// use waku_arith::fields::Fr;
/// use waku_arith::traits::PrimeField;
/// use waku_rln::{NullifierStore, RateCheck};
///
/// let mut store = NullifierStore::new(1); // Thr = 1
/// store.advance_to(100);
///
/// let phi = [7u8; 32]; // internal nullifier (Poseidon output in practice)
/// let share_a = (Fr::from_u64(1), Fr::from_u64(10));
/// let share_b = (Fr::from_u64(2), Fr::from_u64(20));
///
/// // First signal in epoch 100 is fresh; the same share again is a
/// // duplicate; a *different* share under the same nullifier is spam
/// // (the two shares interpolate to the signaler's key).
/// assert_eq!(store.check_shares(100, phi, share_a), RateCheck::Fresh);
/// assert_eq!(store.check_shares(100, phi, share_a), RateCheck::Duplicate);
/// assert!(matches!(store.check_shares(100, phi, share_b), RateCheck::Spam(_)));
///
/// // Once the clock moves past the window, epoch 100 is recycled and
/// // its state is gone — messages that old are rejected upstream anyway.
/// store.advance_to(102);
/// assert_eq!(store.check_shares(100, phi, share_a), RateCheck::OutOfWindow);
/// assert_eq!(store.len(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct NullifierStore {
    /// The accepted epoch gap `Thr`.
    max_gap: u64,
    /// Highest current epoch observed via [`NullifierStore::advance_to`].
    hi: u64,
    /// Per-epoch slots, indexed by `epoch % ring.len()`.
    ring: Vec<EpochSlot>,
    /// Lifetime count of expired epochs whose state was recycled.
    epochs_pruned: u64,
}

impl NullifierStore {
    /// Creates a store that retains epochs within `max_gap` (`Thr`) of
    /// the current epoch, i.e. a window of `2·Thr + 1` epochs.
    ///
    /// # Panics
    ///
    /// Panics if the window would exceed 2²⁰ epochs — a gap that large
    /// means the epoch-gap check is effectively disabled and nothing
    /// would ever expire.
    pub fn new(max_gap: u64) -> Self {
        let window = max_gap.saturating_mul(2).saturating_add(1);
        assert!(
            window <= MAX_WINDOW_EPOCHS,
            "window of {window} epochs is unreasonably large (max_gap = {max_gap})"
        );
        NullifierStore {
            max_gap,
            hi: 0,
            ring: (0..window).map(|_| EpochSlot::new()).collect(),
            epochs_pruned: 0,
        }
    }

    /// The configured maximum epoch gap `Thr`.
    pub fn max_gap(&self) -> u64 {
        self.max_gap
    }

    /// Number of epochs the ring can hold (`2·Thr + 1`).
    pub fn window_epochs(&self) -> u64 {
        self.ring.len() as u64
    }

    /// The highest current epoch the store has been advanced to.
    pub fn current_epoch(&self) -> u64 {
        self.hi
    }

    /// Oldest epoch still retained (`current − Thr`, saturating).
    fn oldest_retained_epoch(&self) -> u64 {
        self.hi.saturating_sub(self.max_gap)
    }

    /// Advances the store's clock to `current_epoch`, recycling every
    /// slot that fell out of the window. Cost is O(epochs expired),
    /// capped at O(window) for arbitrarily large jumps; a recycle clears
    /// one slot's own entries. Moving backwards (a stale clock sample) is a no-op — the
    /// window only ever slides forward.
    pub fn advance_to(&mut self, current_epoch: u64) {
        if current_epoch <= self.hi {
            return;
        }
        let old_lo = self.oldest_retained_epoch();
        self.hi = current_epoch;
        let new_lo = self.oldest_retained_epoch();
        let ring_len = self.ring.len() as u64;
        if new_lo.saturating_sub(old_lo) >= ring_len {
            // Jumped past the whole ring: every occupied slot expires.
            for slot in &mut self.ring {
                if !slot.entries.is_empty() && slot.epoch < new_lo {
                    slot.recycle(u64::MAX);
                    self.epochs_pruned += 1;
                }
            }
        } else {
            for e in old_lo..new_lo {
                let slot = &mut self.ring[(e % ring_len) as usize];
                if !slot.entries.is_empty() && slot.epoch < new_lo {
                    slot.recycle(u64::MAX);
                    self.epochs_pruned += 1;
                }
            }
        }
    }

    /// Checks a share against the window and records it if fresh — the
    /// §III-F rate check on raw parts. Epochs outside
    /// `[current − Thr, current + Thr]` return
    /// [`RateCheck::OutOfWindow`] without storing anything. The upstream
    /// epoch-gap check drops those messages before they reach the store,
    /// so seeing the variant here means the caller skipped that check or
    /// the window slid while the message waited (a batch queue).
    pub fn check_shares(&mut self, epoch: u64, nullifier: [u8; 32], share: (Fr, Fr)) -> RateCheck {
        if epoch < self.oldest_retained_epoch() || epoch > self.hi.saturating_add(self.max_gap) {
            return RateCheck::OutOfWindow;
        }
        let ring_len = self.ring.len() as u64;
        let slot = &mut self.ring[(epoch % ring_len) as usize];
        if slot.epoch != epoch {
            // The slot holds an expired epoch (or is vacant): two in-window
            // epochs can never share a slot, so recycling is always safe.
            slot.recycle(epoch);
        }
        match slot.lookup_or_insert(nullifier, share) {
            None => RateCheck::Fresh,
            Some(prev) if prev == share => RateCheck::Duplicate,
            Some(prev) => match recover_from_two(prev, share) {
                Ok(recovered) => RateCheck::Spam(SpamEvidence {
                    epoch,
                    share_a: prev,
                    share_b: share,
                    recovered_secret: recovered,
                }),
                // Same x, different y: impossible behind a valid proof
                // (x = H(m) binds the payload); treat the malformed
                // replay as a duplicate rather than fabricate evidence.
                Err(_) => RateCheck::Duplicate,
            },
        }
    }

    /// [`NullifierStore::check_shares`] on a (proof-valid) bundle.
    pub fn check_bundle(&mut self, bundle: &RlnMessageBundle) -> RateCheck {
        self.check_shares(bundle.epoch, bundle.nullifier.to_le_bytes(), bundle.share())
    }

    /// Resident shares across all retained epochs.
    pub fn len(&self) -> usize {
        self.ring.iter().map(|a| a.entries.len()).sum()
    }

    /// True when no share is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Epochs currently holding at least one share.
    pub fn tracked_epochs(&self) -> usize {
        self.ring.iter().filter(|a| !a.entries.is_empty()).count()
    }

    /// Lifetime count of expired epochs whose slots were recycled with
    /// state still in them (the `epochs_pruned` metric).
    pub fn epochs_pruned(&self) -> u64 {
        self.epochs_pruned
    }

    /// Captures the store's durable state: the window parameters, the
    /// monotone clock, and every live share, grouped by epoch in
    /// ascending order. This is what a node persists across restarts —
    /// rate-limit state must survive a crash (a rebooted router that
    /// forgot this epoch's nullifiers would relay a spammer's second
    /// signal as fresh), while everything else it keeps in memory
    /// (message caches, mesh views) is rebuilt from the network.
    ///
    /// # Example
    ///
    /// ```
    /// use waku_arith::fields::Fr;
    /// use waku_arith::traits::PrimeField;
    /// use waku_rln::{NullifierStore, RateCheck};
    ///
    /// let mut store = NullifierStore::new(1);
    /// store.advance_to(100);
    /// let share = (Fr::from_u64(1), Fr::from_u64(10));
    /// store.check_shares(100, [7u8; 32], share);
    ///
    /// // Crash. The snapshot is all that survives.
    /// let restored = NullifierStore::restore(&store.snapshot());
    /// assert_eq!(restored.current_epoch(), 100);
    /// // The restored store still remembers this epoch's signal:
    /// assert_eq!(
    ///     restored.clone().check_shares(100, [7u8; 32], share),
    ///     RateCheck::Duplicate
    /// );
    /// ```
    pub fn snapshot(&self) -> NullifierSnapshot {
        let mut epochs: Vec<(u64, SnapshotEntries)> = self
            .ring
            .iter()
            .filter(|a| a.epoch != u64::MAX && !a.entries.is_empty())
            .map(|a| (a.epoch, a.entries.clone()))
            .collect();
        epochs.sort_unstable_by_key(|(epoch, _)| *epoch);
        NullifierSnapshot {
            max_gap: self.max_gap,
            hi: self.hi,
            epochs_pruned: self.epochs_pruned,
            epochs,
        }
    }

    /// Rebuilds a store from a [`NullifierStore::snapshot`]. The restored
    /// store is behaviorally identical to the one the snapshot was taken
    /// from: same window, same clock, same verdict for any subsequent
    /// check sequence (asserted by the snapshot round-trip proptests).
    pub fn restore(snapshot: &NullifierSnapshot) -> Self {
        let mut store = NullifierStore::new(snapshot.max_gap);
        store.advance_to(snapshot.hi);
        store.epochs_pruned = snapshot.epochs_pruned;
        let ring_len = store.ring.len() as u64;
        for (epoch, entries) in &snapshot.epochs {
            let slot = &mut store.ring[(epoch % ring_len) as usize];
            slot.recycle(*epoch);
            for (nullifier, share) in entries {
                slot.lookup_or_insert(*nullifier, *share);
            }
        }
        store
    }
}

/// One epoch's captured shares: `(nullifier, (x, y))` pairs.
type SnapshotEntries = Vec<([u8; 32], (Fr, Fr))>;

/// Durable state captured by [`NullifierStore::snapshot`] and replayed by
/// [`NullifierStore::restore`] — the crash-survival contract of the
/// nullifier lifecycle (what a real node would serialize to disk).
#[derive(Clone, Debug, PartialEq)]
pub struct NullifierSnapshot {
    /// The accepted epoch gap `Thr`.
    max_gap: u64,
    /// Highest current epoch observed before the snapshot.
    hi: u64,
    /// Lifetime pruned-epoch count (carried so observability survives the
    /// restart too).
    epochs_pruned: u64,
    /// Live shares per retained epoch, ascending epoch order.
    epochs: Vec<(u64, SnapshotEntries)>,
}

impl NullifierSnapshot {
    /// The clock the snapshotted store had been advanced to.
    pub fn current_epoch(&self) -> u64 {
        self.hi
    }

    /// The window parameter `Thr` the snapshotted store was built with.
    pub fn max_gap(&self) -> u64 {
        self.max_gap
    }

    /// Canonical binary encoding (length-prefixed, little-endian):
    ///
    /// ```text
    /// max_gap:u64 ‖ hi:u64 ‖ epochs_pruned:u64 ‖ n_epochs:u32
    ///   ‖ (epoch:u64 ‖ n_entries:u32 ‖ (nullifier[32] ‖ x[32] ‖ y[32])*)*
    /// ```
    ///
    /// Framing (magic, version, checksum, atomic write) is the caller's
    /// job — see [`crate::snapshot_io`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let entries: usize = self.epochs.iter().map(|(_, e)| e.len()).sum();
        let mut out = Vec::with_capacity(28 + self.epochs.len() * 12 + entries * 96);
        put_u64(&mut out, self.max_gap);
        put_u64(&mut out, self.hi);
        put_u64(&mut out, self.epochs_pruned);
        put_len(&mut out, self.epochs.len());
        for (epoch, entries) in &self.epochs {
            put_u64(&mut out, *epoch);
            put_len(&mut out, entries.len());
            for (nullifier, (x, y)) in entries {
                out.extend_from_slice(nullifier);
                out.extend_from_slice(&x.to_le_bytes());
                out.extend_from_slice(&y.to_le_bytes());
            }
        }
        out
    }

    /// Parses a [`NullifierSnapshot::to_bytes`] encoding. Returns `None`
    /// for any malformation: bad framing, trailing garbage, non-ascending
    /// epochs, out-of-range field elements, or a window the store would
    /// refuse (`max_gap` ≥ 2²⁰ epochs).
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let max_gap = r.u64().ok()?;
        // Saturating, exactly like `NullifierStore::new`: `max_gap` is
        // untrusted here and `2 * max_gap + 1` must not wrap into range.
        let window = max_gap.saturating_mul(2).saturating_add(1);
        if window > MAX_WINDOW_EPOCHS {
            return None;
        }
        let hi = r.u64().ok()?;
        let epochs_pruned = r.u64().ok()?;
        let n_epochs = r.count(12).ok()?;
        let mut epochs: Vec<(u64, SnapshotEntries)> = Vec::with_capacity(n_epochs);
        for _ in 0..n_epochs {
            let epoch = r.u64().ok()?;
            if epochs.last().is_some_and(|(prev, _)| *prev >= epoch) {
                return None;
            }
            // Every retained epoch must lie inside the snapshot's own
            // window — anything else cannot have come from `snapshot()`.
            if epoch > hi || hi - epoch >= window {
                return None;
            }
            let n_entries = r.count(96).ok()?;
            let mut entries: SnapshotEntries = Vec::with_capacity(n_entries);
            for _ in 0..n_entries {
                let nullifier = r.array().ok()?;
                entries.push((nullifier, (read_field(&mut r)?, read_field(&mut r)?)));
            }
            epochs.push((epoch, entries));
        }
        r.finish().ok()?;
        Some(NullifierSnapshot {
            max_gap,
            hi,
            epochs_pruned,
            epochs,
        })
    }

    /// Total shares captured across all retained epochs.
    pub fn resident(&self) -> usize {
        self.epochs.iter().map(|(_, entries)| entries.len()).sum()
    }

    /// Epochs with at least one captured share, ascending.
    pub fn epochs(&self) -> impl Iterator<Item = u64> + '_ {
        self.epochs.iter().map(|(epoch, _)| *epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use waku_arith::traits::Field;

    #[test]
    fn nullifier_collides_within_epoch_only() {
        let mut rng = StdRng::seed_from_u64(1);
        let sk = Fr::random(&mut rng);
        let e1 = external_nullifier(100);
        let e2 = external_nullifier(101);
        let (_, phi_a, _) = derive(sk, e1, message_hash(b"first"));
        let (_, phi_b, _) = derive(sk, e1, message_hash(b"second"));
        let (_, phi_c, _) = derive(sk, e2, message_hash(b"third"));
        assert_eq!(phi_a, phi_b, "same sk + epoch ⇒ same internal nullifier");
        assert_ne!(phi_a, phi_c, "different epoch ⇒ different nullifier");
    }

    #[test]
    fn different_identities_different_nullifiers() {
        let mut rng = StdRng::seed_from_u64(2);
        let e = external_nullifier(5);
        let (_, phi1, _) = derive(Fr::random(&mut rng), e, Fr::from_u64(1));
        let (_, phi2, _) = derive(Fr::random(&mut rng), e, Fr::from_u64(1));
        assert_ne!(phi1, phi2);
    }

    #[test]
    fn share_lies_on_line() {
        let mut rng = StdRng::seed_from_u64(3);
        let sk = Fr::random(&mut rng);
        let e = external_nullifier(77);
        let x = message_hash(b"hello waku");
        let (a1, _, y) = derive(sk, e, x);
        assert_eq!(y, sk + a1 * x);
        // and through the shamir crate's view of the same line:
        assert_eq!(waku_shamir::rln_share(sk, a1, x), (x, y));
    }

    #[test]
    fn message_hash_is_stable_and_sensitive() {
        assert_eq!(message_hash(b"m"), message_hash(b"m"));
        assert_ne!(message_hash(b"m"), message_hash(b"n"));
        assert!(!message_hash(b"").is_zero());
    }

    fn share_for(sk: Fr, epoch: u64, payload: &[u8]) -> ([u8; 32], (Fr, Fr)) {
        let x = message_hash(payload);
        let (_, phi, y) = derive(sk, external_nullifier(epoch), x);
        (phi.to_le_bytes(), (x, y))
    }

    #[test]
    fn store_fresh_duplicate_spam() {
        let mut rng = StdRng::seed_from_u64(11);
        let sk = Fr::random(&mut rng);
        let mut store = NullifierStore::new(1);
        store.advance_to(100);
        let (phi, s1) = share_for(sk, 100, b"first");
        let (_, s2) = share_for(sk, 100, b"second");
        assert_eq!(store.check_shares(100, phi, s1), crate::RateCheck::Fresh);
        assert_eq!(
            store.check_shares(100, phi, s1),
            crate::RateCheck::Duplicate
        );
        match store.check_shares(100, phi, s2) {
            crate::RateCheck::Spam(ev) => {
                assert_eq!(ev.recovered_secret, sk);
                assert_eq!(ev.epoch, 100);
            }
            other => panic!("expected spam, got {other:?}"),
        }
        assert_eq!(store.len(), 1);
        assert_eq!(store.tracked_epochs(), 1);
    }

    #[test]
    fn store_window_accepts_past_and_future_within_gap() {
        let mut rng = StdRng::seed_from_u64(12);
        let sk = Fr::random(&mut rng);
        let mut store = NullifierStore::new(2);
        store.advance_to(50);
        for epoch in [48, 49, 50, 51, 52] {
            let (phi, s) = share_for(sk, epoch, b"m");
            assert_eq!(
                store.check_shares(epoch, phi, s),
                crate::RateCheck::Fresh,
                "epoch {epoch}"
            );
        }
        let (phi, s) = share_for(sk, 47, b"m");
        assert_eq!(
            store.check_shares(47, phi, s),
            crate::RateCheck::OutOfWindow
        );
        let (phi, s) = share_for(sk, 53, b"m");
        assert_eq!(
            store.check_shares(53, phi, s),
            crate::RateCheck::OutOfWindow
        );
        assert_eq!(store.len(), 5);
    }

    #[test]
    fn store_advance_recycles_expired_epochs() {
        let mut rng = StdRng::seed_from_u64(13);
        let sk = Fr::random(&mut rng);
        let mut store = NullifierStore::new(1);
        store.advance_to(10);
        let (phi, s) = share_for(sk, 9, b"old");
        store.check_shares(9, phi, s);
        let (phi10, s10) = share_for(sk, 10, b"now");
        store.check_shares(10, phi10, s10);
        assert_eq!(store.len(), 2);

        // Epoch 9 falls out at current = 11 (window [10, 12]).
        store.advance_to(11);
        assert_eq!(store.len(), 1);
        assert_eq!(store.epochs_pruned(), 1);
        assert_eq!(store.oldest_retained_epoch(), 10);
        // A resignal in the expired epoch is out of window, not fresh.
        let (phi, s) = share_for(sk, 9, b"old2");
        assert_eq!(store.check_shares(9, phi, s), crate::RateCheck::OutOfWindow);
    }

    #[test]
    fn store_memory_is_flat_across_many_epochs() {
        let mut rng = StdRng::seed_from_u64(14);
        let sks: Vec<Fr> = (0..8).map(|_| Fr::random(&mut rng)).collect();
        let mut store = NullifierStore::new(1);
        let mut high_water = 0;
        for epoch in 0..500u64 {
            store.advance_to(epoch);
            for (i, sk) in sks.iter().enumerate() {
                let (phi, s) = share_for(*sk, epoch, format!("e{epoch}p{i}").as_bytes());
                assert_eq!(store.check_shares(epoch, phi, s), crate::RateCheck::Fresh);
            }
            high_water = high_water.max(store.len());
        }
        // Window is 3 epochs × 8 publishers: resident count never exceeds
        // the window bound, and 500 simulated epochs leave ~498 pruned.
        assert!(
            high_water <= 3 * sks.len(),
            "resident high-water {high_water} exceeds window bound"
        );
        assert!(store.epochs_pruned() >= 490, "{}", store.epochs_pruned());
        assert_eq!(store.tracked_epochs(), 2, "epochs 498 (in gap) and 499");
    }

    #[test]
    fn store_large_clock_jump_clears_everything() {
        let mut rng = StdRng::seed_from_u64(15);
        let sk = Fr::random(&mut rng);
        let mut store = NullifierStore::new(3);
        store.advance_to(100);
        for epoch in 97..=103 {
            let (phi, s) = share_for(sk, epoch, b"m");
            store.check_shares(epoch, phi, s);
        }
        assert_eq!(store.len(), 7);
        store.advance_to(10_000); // jump far past the whole ring
        assert_eq!(store.len(), 0);
        assert_eq!(store.epochs_pruned(), 7);
        // The store keeps working at the new position.
        let (phi, s) = share_for(sk, 10_000, b"new era");
        assert_eq!(store.check_shares(10_000, phi, s), crate::RateCheck::Fresh);
    }

    #[test]
    fn store_clock_never_moves_backwards() {
        let mut rng = StdRng::seed_from_u64(16);
        let sk = Fr::random(&mut rng);
        let mut store = NullifierStore::new(1);
        store.advance_to(100);
        let (phi, s) = share_for(sk, 100, b"m");
        store.check_shares(100, phi, s);
        store.advance_to(50); // stale clock sample: no-op
        assert_eq!(store.current_epoch(), 100);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn store_bundle_api_matches_unbounded_map() {
        use crate::identity::Identity;
        use crate::slashing::NullifierMap;
        let mut rng = StdRng::seed_from_u64(17);
        let ids: Vec<Identity> = (0..4).map(|_| Identity::random(&mut rng)).collect();
        let mut store = NullifierStore::new(2);
        let mut map = NullifierMap::new();
        for epoch in 0..30u64 {
            store.advance_to(epoch);
            for (i, id) in ids.iter().enumerate() {
                // Every identity signals twice per epoch: fresh then spam.
                for round in 0..2 {
                    let payload = format!("e{epoch}i{i}r{round}");
                    let (phi, s) = share_for(id.secret(), epoch, payload.as_bytes());
                    assert_eq!(
                        store.check_shares(epoch, phi, s),
                        map.check_shares(epoch, phi, s),
                        "epoch {epoch} id {i} round {round}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "unreasonably large")]
    fn store_rejects_absurd_windows() {
        NullifierStore::new(u64::MAX / 2);
    }

    #[test]
    fn snapshot_restore_round_trips_verdicts() {
        let mut rng = StdRng::seed_from_u64(19);
        let sks: Vec<Fr> = (0..4).map(|_| Fr::random(&mut rng)).collect();
        let mut store = NullifierStore::new(2);
        store.advance_to(40);
        for epoch in 38..=42 {
            for (i, sk) in sks.iter().enumerate() {
                let (phi, s) = share_for(*sk, epoch, format!("e{epoch}p{i}").as_bytes());
                store.check_shares(epoch, phi, s);
            }
        }

        let snap = store.snapshot();
        assert_eq!(snap.current_epoch(), 40);
        assert_eq!(snap.resident(), store.len());
        let mut restored = NullifierStore::restore(&snap);

        assert_eq!(restored.current_epoch(), store.current_epoch());
        assert_eq!(restored.max_gap(), store.max_gap());
        assert_eq!(restored.len(), store.len());
        assert_eq!(restored.tracked_epochs(), store.tracked_epochs());
        assert_eq!(restored.epochs_pruned(), store.epochs_pruned());
        assert_eq!(
            restored.oldest_retained_epoch(),
            store.oldest_retained_epoch()
        );

        // Every subsequent check agrees: duplicates of pre-crash signals,
        // second-share spam with the right recovered secret, fresh signals
        // in new epochs, and window edges.
        for epoch in 38..=43 {
            for (i, sk) in sks.iter().enumerate() {
                for payload in [format!("e{epoch}p{i}"), format!("e{epoch}p{i}x")] {
                    let (phi, s) = share_for(*sk, epoch, payload.as_bytes());
                    let expect = store.check_shares(epoch, phi, s);
                    let got = restored.check_shares(epoch, phi, s);
                    assert_eq!(got, expect, "epoch {epoch} id {i} {payload}");
                }
            }
        }
        let (phi, s) = share_for(sks[0], 37, b"stale");
        assert_eq!(
            restored.check_shares(37, phi, s),
            crate::RateCheck::OutOfWindow
        );
    }

    #[test]
    fn snapshot_of_empty_store_restores_empty() {
        let store = NullifierStore::new(3);
        let snap = store.snapshot();
        assert_eq!(snap.resident(), 0);
        assert_eq!(snap.epochs().count(), 0);
        let restored = NullifierStore::restore(&snap);
        assert!(restored.is_empty());
        assert_eq!(restored.current_epoch(), 0);
        assert_eq!(restored.window_epochs(), store.window_epochs());
    }

    #[test]
    fn snapshot_epochs_are_ascending_and_deterministic() {
        let mut rng = StdRng::seed_from_u64(20);
        let sk = Fr::random(&mut rng);
        let mut store = NullifierStore::new(3);
        store.advance_to(200);
        // Insert out of ascending order on purpose.
        for epoch in [203, 197, 200, 201, 198] {
            let (phi, s) = share_for(sk, epoch, b"m");
            store.check_shares(epoch, phi, s);
        }
        let snap = store.snapshot();
        let epochs: Vec<u64> = snap.epochs().collect();
        assert_eq!(epochs, vec![197, 198, 200, 201, 203]);
        assert_eq!(snap, store.snapshot(), "snapshot is a pure read");
        // Restoring and re-snapshotting reproduces the same snapshot.
        assert_eq!(NullifierStore::restore(&snap).snapshot(), snap);
    }
}
