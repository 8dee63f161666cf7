//! The routing-time validation pipeline of §III-F (Figure 3):
//!
//! 1. **epoch gap** — drop messages more than `Thr` epochs away from the
//!    router's current epoch (stops replay floods from fresh registrants);
//! 2. **root check** — the proof must bind to a recent known tree root;
//! 3. **proof verification** — the Groth16 check (≈30 ms, constant);
//! 4. **rate check** — the nullifier map classifies the message as fresh /
//!    duplicate / spam, recovering the spammer's key in the last case.
//!
//! That order is written down once, in
//! [`MessageValidator::validate_claims`]. The type parameter `V` is the
//! proof step of whoever drives it: [`RlnVerifier`] (the default) for a
//! node, whose [`MessageValidator::validate`] is `validate_claims` with
//! `verify_bundle` and two wall-clock histograms around it; the
//! simulator's tagged step for network-scale runs, which therefore route
//! through this very pipeline rather than a model of it.
//!
//! `validate_claims` takes a message's [`Claims`] and an answer to "is
//! the proof good?" instead of an [`RlnMessageBundle`] because decoding
//! the 492-byte wire form costs 810 ns (637 ns of it the proof's curve
//! checks) — as much again as a whole simulated validation — so a proof
//! step that does not read the proof must not have to parse one.

use std::time::Instant;

use waku_arith::fields::Fr;
use waku_arith::traits::PrimeField;
use waku_metrics::Registry;
use waku_rln::{
    NullifierSnapshot, NullifierStore, RateCheck, RlnMessageBundle, RlnVerifier, SpamEvidence,
};

use crate::epoch::EpochManager;
use crate::group::GroupManager;
use crate::metrics::{ValidationHandles, ValidationMetrics};

/// Outcome of validating one incoming bundle.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// Relay the message.
    Relay,
    /// Drop: epoch too far from ours (`|gap|` included).
    EpochOutOfRange(u64),
    /// Drop: proof bound to an unknown/expired root.
    UnknownRoot,
    /// Drop + penalize sender: invalid zero-knowledge proof.
    InvalidProof,
    /// Drop silently: exact duplicate of an already-relayed share.
    Duplicate,
    /// Drop + slash: double-signaling detected.
    Spam(SpamEvidence),
}

/// What a message says about itself — the public inputs its proof is
/// bound to — as the pipeline reads them. A trait rather than a struct so
/// that the two the rate check alone needs are only computed for messages
/// that get that far (`x = H(m)` is 0.95 µs of SHA-256; a stale-epoch drop
/// costs a tenth of that).
pub trait Claims {
    /// The epoch the message was published in.
    fn epoch(&self) -> u64;
    /// The membership root the proof was made against.
    fn root(&self) -> Fr;
    /// The internal nullifier `φ`, as the store's key.
    fn nullifier(&self) -> [u8; 32];
    /// The Shamir share `(x, y)` the message reveals.
    fn share(&self) -> (Fr, Fr);
}

impl Claims for RlnMessageBundle {
    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn root(&self) -> Fr {
        self.root
    }

    fn nullifier(&self) -> [u8; 32] {
        self.nullifier.to_le_bytes()
    }

    fn share(&self) -> (Fr, Fr) {
        RlnMessageBundle::share(self)
    }
}

/// Stateful validator a routing peer runs for one topic; `V` is its
/// proof step (see the module docs).
///
/// Nullifier state lives in an epoch-windowed [`NullifierStore`]: only
/// the `2·Thr + 1` epochs that can still pass the gap check are
/// retained, so the validator's resident memory is O(window), not
/// O(uptime) — see the "Epochs and memory bounds" section of the README.
pub struct MessageValidator<V = RlnVerifier> {
    verifier: V,
    epochs: EpochManager,
    max_gap: u64,
    nullifiers: NullifierStore,
    registry: Registry,
    m: ValidationHandles,
}

impl<V> std::fmt::Debug for MessageValidator<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MessageValidator(T = {}s, Thr = {})",
            self.epochs.epoch_length(),
            self.max_gap
        )
    }
}

impl MessageValidator {
    /// Runs the §III-F pipeline on a bundle received at local Unix time
    /// `now_secs` (drifted clock — the paper's ClockAsynchrony applies).
    pub fn validate(
        &mut self,
        bundle: &RlnMessageBundle,
        group: &GroupManager,
        now_secs: u64,
    ) -> Outcome {
        let started = Instant::now();
        let mut verify_ns = None;
        let outcome = self.validate_claims(bundle, group, now_secs, |verifier| {
            let verify_started = Instant::now();
            let proof_ok = verifier.verify_bundle(bundle);
            verify_ns = Some(verify_started.elapsed().as_nanos() as u64);
            proof_ok
        });
        if let Some(ns) = verify_ns {
            self.m.proof_verify.observe(ns);
        }
        self.m
            .validation_latency
            .observe(started.elapsed().as_nanos() as u64);
        outcome
    }
}

impl<V> MessageValidator<V> {
    /// Builds a validator recording into a private registry.
    pub fn new(verifier: V, epochs: EpochManager, max_gap: u64) -> Self {
        Self::with_registry(verifier, epochs, max_gap, crate::metrics::registry())
    }

    /// Builds a validator recording into the given registry — the node
    /// shares one registry between its validator and its own lifecycle
    /// counters so a single exposition covers both.
    pub fn with_registry(
        verifier: V,
        epochs: EpochManager,
        max_gap: u64,
        registry: Registry,
    ) -> Self {
        let m = ValidationHandles::bind(&registry);
        MessageValidator {
            verifier,
            epochs,
            max_gap,
            nullifiers: NullifierStore::new(max_gap),
            registry,
            m,
        }
    }

    /// The configured maximum epoch gap `Thr`.
    pub fn max_gap(&self) -> u64 {
        self.max_gap
    }

    /// Validation metrics so far (a snapshot read from the validator's
    /// handles).
    pub fn metrics(&self) -> ValidationMetrics {
        self.m.snapshot()
    }

    /// The registry this validator records into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The §III-F pipeline, in its one order: prechecks, then the proof
    /// step — `proof_ok` is handed the validator's `V` and asked only for
    /// messages that survived the prechecks — then the rate check.
    /// Records counters and gauges and never reads a wall clock, so a
    /// seeded caller's registry is a pure function of its seed.
    pub fn validate_claims(
        &mut self,
        claims: &impl Claims,
        group: &GroupManager,
        now_secs: u64,
        proof_ok: impl FnOnce(&V) -> bool,
    ) -> Outcome {
        if let Some(drop) = self.precheck(claims, group, now_secs) {
            return drop;
        }

        // 3. zero-knowledge proof
        if !proof_ok(&self.verifier) {
            self.m.proof_rejected.inc();
            return Outcome::InvalidProof;
        }

        self.rate_check(claims)
    }

    /// Pipeline steps 0–2 (epoch rollover, gap check, root recency):
    /// everything that precedes proof verification and costs microseconds,
    /// not milliseconds. Returns `Some(drop)` when the message is rejected
    /// before its proof is ever looked at. The batching queue
    /// ([`crate::batch::BatchingValidator`]) runs it at enqueue time so
    /// only proof-worthy bundles occupy queue slots.
    pub(crate) fn precheck(
        &mut self,
        claims: &impl Claims,
        group: &GroupManager,
        now_secs: u64,
    ) -> Option<Outcome> {
        self.m.total.inc();

        // 0. epoch rollover: slide the nullifier window to the local
        // clock, recycling any epoch that fell behind it (O(1) per
        // expired epoch — no scans over resident entries). The router's
        // epoch is *monotone* — the highest any clock sample reached — so
        // a wall clock stepped backwards (NTP) cannot make the gap check
        // disagree with the already-advanced store window: both always
        // judge against the same, highest-observed epoch.
        self.tick(now_secs);
        let current_epoch = self.nullifiers.current_epoch();

        // 1. epoch gap
        let gap = EpochManager::gap(current_epoch, claims.epoch());
        if gap > self.max_gap {
            self.m.epoch_dropped.inc();
            return Some(Outcome::EpochOutOfRange(gap));
        }

        // 2. root recency
        if !group.is_known_root(claims.root()) {
            self.m.root_dropped.inc();
            return Some(Outcome::UnknownRoot);
        }
        None
    }

    /// Pipeline step 4: the rate limit via the windowed nullifier store,
    /// for a message whose proof has already been established as valid.
    pub(crate) fn rate_check(&mut self, claims: &impl Claims) -> Outcome {
        let epoch = claims.epoch();
        let gap = EpochManager::gap(self.nullifiers.current_epoch(), epoch);
        let outcome = match self
            .nullifiers
            .check_shares(epoch, claims.nullifier(), claims.share())
        {
            RateCheck::Fresh => {
                self.m.relayed.inc();
                Outcome::Relay
            }
            RateCheck::Duplicate => {
                self.m.duplicates.inc();
                Outcome::Duplicate
            }
            RateCheck::Spam(evidence) => {
                self.m.spam_detected.inc();
                Outcome::Spam(evidence)
            }
            RateCheck::OutOfWindow => {
                // The gap check (1) and the store window enforce the same
                // `Thr` bound against the same monotone epoch, so a
                // pass-through validator never lands here. A batched one
                // does: `BatchingValidator::tick` slides the window before
                // its deadline flush, so a bundle queued at epoch `e` and
                // rate-checked at `e + Thr + 1` is out of window. So is a
                // store restored from a snapshot taken under a faster
                // clock. Count it on its own counter (skew beyond
                // tolerance looks exactly like this; see
                // `EpochManager::max_tolerated_skew_secs`) and drop the
                // message without relaying or slashing.
                self.m.out_of_window.inc();
                Outcome::EpochOutOfRange(gap)
            }
        };
        self.publish_window_gauges();
        outcome
    }

    /// Points the three window gauges at the store as it now stands.
    fn publish_window_gauges(&self) {
        let resident = self.nullifiers.len() as u64;
        self.m.epochs_pruned.set(self.nullifiers.epochs_pruned());
        self.m.nullifier_entries.set(resident);
        self.m.nullifier_high_water.fold_max(resident);
    }

    /// Observes the local clock without a message: slides the nullifier
    /// window across epoch rollovers so resident state is released even
    /// while the topic is idle. Routing layers call this once per
    /// heartbeat (see `waku_gossip::MessageAcceptor::on_heartbeat`).
    pub fn tick(&mut self, now_secs: u64) {
        let clock_epoch = self.epochs.epoch_at(now_secs);
        if clock_epoch > self.nullifiers.current_epoch() {
            self.nullifiers.advance_to(clock_epoch);
            self.publish_window_gauges();
        }
    }

    /// Replaces the windowed nullifier store with one restored from a
    /// persisted snapshot (service restart). The window gauges are
    /// re-pointed at the restored state so the first exposition after a
    /// restart already reads correctly.
    ///
    /// # Errors
    ///
    /// [`crate::errors::SnapshotMismatch`] when the snapshot was taken
    /// under a different `Thr`: the gap check and the store window must
    /// enforce the same bound, and restoring across a `Thr` change would
    /// let them disagree. The caller keeps its (empty) window.
    pub fn restore_nullifiers(
        &mut self,
        snapshot: &NullifierSnapshot,
    ) -> Result<(), crate::errors::SnapshotMismatch> {
        if snapshot.max_gap() != self.max_gap {
            return Err(crate::errors::SnapshotMismatch::new(
                self.max_gap,
                snapshot.max_gap(),
            ));
        }
        self.nullifiers = NullifierStore::restore(snapshot);
        self.publish_window_gauges();
        Ok(())
    }

    /// Hot-path metric handles (shared with the batching queue so both
    /// paths record into the same series).
    pub(crate) fn handles(&self) -> &ValidationHandles {
        &self.m
    }

    /// The proof step (the batching queue needs its batch entry points).
    pub(crate) fn verifier(&self) -> &V {
        &self.verifier
    }

    /// The windowed nullifier store (resident-footprint introspection).
    pub fn nullifiers(&self) -> &NullifierStore {
        &self.nullifiers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;
    use waku_arith::fields::Fr;
    use waku_arith::traits::{Field, PrimeField};
    use waku_chain::{Address, Chain, ChainConfig, TxKind, ETHER};
    use waku_rln::{Identity, RlnProver};

    const DEPTH: usize = 6;
    const T: u64 = 10; // epoch length seconds

    fn keys() -> &'static (RlnProver, RlnVerifier) {
        static CELL: OnceLock<(RlnProver, RlnVerifier)> = OnceLock::new();
        CELL.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(0xABCD);
            RlnProver::keygen(DEPTH, &mut rng)
        })
    }

    struct Fixture {
        chain: Chain,
        group: GroupManager,
        identity: Identity,
        validator: MessageValidator,
    }

    fn fixture(seed: u64) -> Fixture {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut chain = Chain::new(ChainConfig {
            tree_depth: DEPTH,
            ..ChainConfig::default()
        });
        let user = Address::from_seed(b"user");
        chain.fund(user, 100 * ETHER);
        let identity = Identity::random(&mut rng);
        chain.submit(
            user,
            TxKind::Register {
                commitment: identity.commitment(),
            },
            50,
        );
        chain.mine_block();
        let mut group = GroupManager::new(DEPTH);
        group.set_own_commitment(identity.commitment());
        group.sync(&chain);
        let validator = MessageValidator::new(keys().1.clone(), EpochManager::new(T), 1);
        Fixture {
            chain,
            group,
            identity,
            validator,
        }
    }

    fn prove(f: &Fixture, payload: &[u8], epoch: u64, seed: u64) -> waku_rln::RlnMessageBundle {
        let mut rng = StdRng::seed_from_u64(seed);
        keys()
            .0
            .prove_message(
                &f.identity,
                &f.group.own_path().expect("registered"),
                payload,
                epoch,
                &mut rng,
            )
            .unwrap()
    }

    #[test]
    fn valid_message_relays() {
        let mut f = fixture(1);
        let now = 1000u64;
        let epoch = now / T;
        let bundle = prove(&f, b"hello", epoch, 2);
        assert_eq!(f.validator.validate(&bundle, &f.group, now), Outcome::Relay);
        assert_eq!(f.validator.metrics().relayed, 1);
    }

    #[test]
    fn epoch_gap_drops_old_messages() {
        let mut f = fixture(2);
        let now = 1000u64;
        // message from 5 epochs ago, Thr = 1
        let bundle = prove(&f, b"stale", now / T - 5, 3);
        assert_eq!(
            f.validator.validate(&bundle, &f.group, now),
            Outcome::EpochOutOfRange(5)
        );
    }

    #[test]
    fn epoch_gap_drops_future_messages() {
        let mut f = fixture(3);
        let now = 1000u64;
        let bundle = prove(&f, b"from the future", now / T + 4, 4);
        assert_eq!(
            f.validator.validate(&bundle, &f.group, now),
            Outcome::EpochOutOfRange(4)
        );
    }

    #[test]
    fn within_threshold_gap_accepted() {
        let mut f = fixture(4);
        let now = 1000u64;
        let bundle = prove(&f, b"slightly late", now / T - 1, 5);
        assert_eq!(f.validator.validate(&bundle, &f.group, now), Outcome::Relay);
    }

    #[test]
    fn unknown_root_rejected() {
        let mut f = fixture(5);
        let now = 1000u64;
        let mut bundle = prove(&f, b"msg", now / T, 6);
        bundle.root += Fr::one(); // bound to a root we never had
        assert_eq!(
            f.validator.validate(&bundle, &f.group, now),
            Outcome::UnknownRoot
        );
    }

    #[test]
    fn invalid_proof_rejected() {
        let mut f = fixture(6);
        let now = 1000u64;
        let mut bundle = prove(&f, b"msg", now / T, 7);
        bundle.payload = b"swapped".to_vec(); // x no longer matches proof
        assert_eq!(
            f.validator.validate(&bundle, &f.group, now),
            Outcome::InvalidProof
        );
    }

    #[test]
    fn duplicate_is_silently_dropped() {
        let mut f = fixture(7);
        let now = 1000u64;
        let bundle = prove(&f, b"once", now / T, 8);
        assert_eq!(f.validator.validate(&bundle, &f.group, now), Outcome::Relay);
        assert_eq!(
            f.validator.validate(&bundle, &f.group, now),
            Outcome::Duplicate
        );
    }

    #[test]
    fn double_signal_is_slashed_with_correct_key() {
        let mut f = fixture(8);
        let now = 1000u64;
        let epoch = now / T;
        let b1 = prove(&f, b"first", epoch, 9);
        let b2 = prove(&f, b"second", epoch, 10);
        assert_eq!(f.validator.validate(&b1, &f.group, now), Outcome::Relay);
        match f.validator.validate(&b2, &f.group, now) {
            Outcome::Spam(ev) => {
                assert_eq!(ev.recovered_secret, f.identity.secret());
                assert_eq!(ev.recovered_commitment(), f.identity.commitment());
            }
            other => panic!("expected spam, got {other:?}"),
        }
        assert_eq!(f.validator.metrics().spam_detected, 1);
    }

    #[test]
    fn one_message_per_epoch_across_epochs_is_fine() {
        let mut f = fixture(9);
        for k in 0..3u64 {
            let now = 1000 + k * T;
            let bundle = prove(&f, format!("msg{k}").as_bytes(), now / T, 20 + k);
            assert_eq!(
                f.validator.validate(&bundle, &f.group, now),
                Outcome::Relay,
                "epoch {k}"
            );
        }
    }

    #[test]
    fn nullifier_state_is_windowed_across_epochs() {
        let mut f = fixture(11);
        // One message per epoch for 8 epochs: the store never holds more
        // than the 2·Thr + 1 = 3-epoch window's worth of shares.
        for k in 0..8u64 {
            let now = 1000 + k * T;
            let bundle = prove(&f, format!("epoch{k}").as_bytes(), now / T, 40 + k);
            assert_eq!(f.validator.validate(&bundle, &f.group, now), Outcome::Relay);
            assert!(
                f.validator.metrics().nullifier_entries <= 3,
                "resident entries crept past the window: {:?}",
                f.validator.metrics()
            );
        }
        assert!(
            f.validator.metrics().epochs_pruned >= 6,
            "old epochs must have been recycled: {:?}",
            f.validator.metrics()
        );
        // Re-sending the first epoch's message now trips the gap check —
        // its nullifier state is gone, but so is its admissibility.
        let stale = prove(&f, b"epoch0", 1000 / T, 40);
        assert_eq!(
            f.validator.validate(&stale, &f.group, 1000 + 7 * T),
            Outcome::EpochOutOfRange(7)
        );
    }

    #[test]
    fn backwards_clock_step_keeps_gap_and_window_consistent() {
        let mut f = fixture(13);
        // Observe epoch 100 (now = 1000, T = 10): window pins to [99, 101].
        let b100 = prove(&f, b"at 100", 100, 50);
        assert_eq!(f.validator.validate(&b100, &f.group, 1000), Outcome::Relay);
        // NTP steps the wall clock back three epochs (now = 970). The
        // router's epoch is monotone, so a bundle for epoch 99 is still
        // judged against epoch 100 — in gap AND in window: it relays
        // rather than landing in the OutOfWindow arm.
        let b99 = prove(&f, b"at 99", 99, 51);
        assert_eq!(f.validator.validate(&b99, &f.group, 970), Outcome::Relay);
        assert_eq!(f.validator.metrics().out_of_window, 0);
        // A bundle matching the stale clock's own epoch (97) is out of
        // gap relative to the monotone epoch and drops cleanly.
        let b97 = prove(&f, b"at 97", 97, 52);
        assert_eq!(
            f.validator.validate(&b97, &f.group, 970),
            Outcome::EpochOutOfRange(3)
        );
    }

    /// The node's proof step and a caller-supplied answer (what the
    /// simulator's tagged step is) drive one pipeline: same verdicts, same
    /// counters, same window gauges — and only the former reads a clock.
    #[test]
    fn constant_proof_answer_matches_real_verification() {
        let mut f = fixture(14);
        let mut unknown_root = prove(&f, b"rootless", 101, 63);
        unknown_root.root += Fr::one();
        let mut tampered = prove(&f, b"original", 101, 64);
        tampered.payload = b"swapped".to_vec();
        let fresh = prove(&f, b"fresh", 100, 60);
        // (bundle, local clock, is its proof good?)
        let corpus = [
            (fresh.clone(), 1000, true),
            (fresh, 1000, true),                         // exact duplicate
            (prove(&f, b"second", 100, 61), 1000, true), // double-signal
            (prove(&f, b"stale", 95, 62), 1000, true),   // 5 epochs stale
            (prove(&f, b"early", 104, 62), 1000, true),  // 4 epochs ahead
            (unknown_root, 1000, true),
            (tampered, 1000, false),
            // The backwards-clock sequence: reach epoch 102, step back 3.
            (prove(&f, b"at 102", 102, 65), 1020, true),
            (prove(&f, b"at 101", 101, 66), 990, true),
            (prove(&f, b"at 99", 99, 67), 990, true),
        ];

        let mut tagged = MessageValidator::new((), EpochManager::new(T), 1);
        let mut real_outcomes = Vec::new();
        let mut tagged_outcomes = Vec::new();
        for (bundle, now, proof_good) in &corpus {
            real_outcomes.push(f.validator.validate(bundle, &f.group, *now));
            tagged_outcomes.push(tagged.validate_claims(bundle, &f.group, *now, |()| *proof_good));
        }

        assert_eq!(real_outcomes, tagged_outcomes);
        assert_eq!(real_outcomes[0], Outcome::Relay);
        assert_eq!(real_outcomes[1], Outcome::Duplicate);
        assert!(
            matches!(&real_outcomes[2], Outcome::Spam(ev) if ev.recovered_secret == f.identity.secret())
        );
        assert_eq!(real_outcomes[3], Outcome::EpochOutOfRange(5));
        assert_eq!(real_outcomes[4], Outcome::EpochOutOfRange(4));
        assert_eq!(real_outcomes[5], Outcome::UnknownRoot);
        assert_eq!(real_outcomes[6], Outcome::InvalidProof);
        assert_eq!(real_outcomes[7..9], [Outcome::Relay, Outcome::Relay]);
        assert_eq!(real_outcomes[9], Outcome::EpochOutOfRange(3));

        // Every `rln_validation_*` counter and the window gauges agree.
        assert_eq!(tagged.metrics(), f.validator.metrics());
        assert_eq!(tagged.metrics().total, corpus.len() as u64);
        let real = f.validator.registry().snapshot();
        let constant = tagged.registry().snapshot();
        assert_eq!(
            constant.scalar("rln_nullifier_high_water"),
            real.scalar("rln_nullifier_high_water")
        );
        assert!(real.scalar("rln_nullifier_high_water") >= 2);
        // No wall-clock sample can enter a seeded caller's registry.
        for name in ["rln_validation_latency_ns", "rln_proof_verify_ns"] {
            assert_eq!(constant.histogram(name).unwrap().count, 0, "{name}");
        }
        assert_eq!(
            real.histogram("rln_validation_latency_ns").unwrap().count,
            corpus.len() as u64
        );
        assert_eq!(real.histogram("rln_proof_verify_ns").unwrap().count, 6);
    }

    #[test]
    fn tick_releases_state_without_traffic() {
        let mut f = fixture(12);
        let now = 1000u64;
        let bundle = prove(&f, b"only message", now / T, 13);
        assert_eq!(f.validator.validate(&bundle, &f.group, now), Outcome::Relay);
        assert_eq!(f.validator.metrics().nullifier_entries, 1);
        // The topic goes quiet; epoch rollovers alone must release the
        // resident share once its epoch leaves the window.
        f.validator.tick(now + 5 * T);
        assert_eq!(f.validator.metrics().nullifier_entries, 0);
        assert!(f.validator.metrics().epochs_pruned >= 1);
    }

    #[test]
    fn stale_root_accepted_within_window_then_expires() {
        let mut f = fixture(10);
        let now = 1000u64;
        let bundle = prove(&f, b"pre-update", now / T, 11);
        // One new registration: old root still in window.
        let user = Address::from_seed(b"user");
        f.chain.submit(
            user,
            TxKind::Register {
                commitment: Fr::from_u64(0xAAAA),
            },
            50,
        );
        f.chain.mine_block();
        f.group.sync(&f.chain);
        assert_eq!(f.validator.validate(&bundle, &f.group, now), Outcome::Relay);

        // Many more updates: the proof's root falls out of the window.
        let bundle2 = prove(&f, b"way-pre-update", now / T, 12);
        for i in 0..6u64 {
            f.chain.submit(
                user,
                TxKind::Register {
                    commitment: Fr::from_u64(0xB000 + i),
                },
                50,
            );
            f.chain.mine_block();
        }
        f.group.sync(&f.chain);
        assert_eq!(
            f.validator.validate(&bundle2, &f.group, now),
            Outcome::UnknownRoot
        );
    }
}
