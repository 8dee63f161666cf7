//! The simulator's seat at the production §III-F pipeline: one
//! [`RlnAcceptor`] puts a `waku_rln_relay::MessageValidator` behind the
//! gossip layer's [`MessageAcceptor`] hook. Every verdict a simulated
//! router reaches — epoch gap against its monotone epoch, root window,
//! rate check, Shamir recovery — is the node's own code reaching it, and
//! its counters are the node's `rln_*` catalogue.
//!
//! What varies is the proof step ([`ProofStep`]): [`TaggedProof`] reads a
//! compact payload whose first byte says whether the proof is good, so a
//! 10 000-peer sweep never parses or verifies a Groth16 proof per hop
//! (their cost is measured by E1/E2); [`RlnVerifier`] reads the real wire
//! bundle and verifies it, which is how `tests/e2e_flow.rs` runs E6 once
//! with actual proofs.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, MutexGuard};

use waku_arith::fields::Fr;
use waku_arith::traits::PrimeField;
use waku_gossip::{Message, MessageAcceptor, PeerId, SimTime, Validation};
use waku_rln::{message_hash, RlnMessageBundle, RlnVerifier};
use waku_rln_relay::{Claims, GroupManager, MessageValidator, Outcome};

/// Sharded spam-detection log: one slot of unique recovered secrets per
/// peer (the finest shard granularity), merged deterministically — union
/// in ascending peer order — when the report is built. Each slot's mutex
/// is only ever taken by the peer that owns it, so the scheduler's shards
/// run detection without contention, and a set union is order-insensitive
/// by construction, which keeps reports bit-identical across shard counts.
pub struct DetectionLog {
    per_peer: Vec<Mutex<BTreeSet<[u8; 32]>>>,
}

impl DetectionLog {
    /// An empty log with one slot per peer.
    pub fn new(peers: usize) -> Arc<Self> {
        Arc::new(DetectionLog {
            per_peer: (0..peers).map(|_| Mutex::new(BTreeSet::new())).collect(),
        })
    }

    fn slot(&self, peer: usize) -> MutexGuard<'_, BTreeSet<[u8; 32]>> {
        self.per_peer[peer]
            .lock()
            .expect("a validator panicked while recording a detection")
    }

    fn record(&self, peer: usize, secret: [u8; 32]) {
        self.slot(peer).insert(secret);
    }

    /// The secrets one peer's validator recovered.
    pub fn recovered_by(&self, peer: usize) -> BTreeSet<[u8; 32]> {
        self.slot(peer).clone()
    }

    /// Deterministic merge: union across peer slots in ascending order.
    pub fn merged(&self) -> BTreeSet<[u8; 32]> {
        let mut all = BTreeSet::new();
        for peer in 0..self.per_peer.len() {
            all.extend(self.slot(peer).iter().copied());
        }
        all
    }
}

/// Step 3 of the pipeline as the simulator varies it: how a gossip
/// payload is read, and whether the proof it carries holds.
pub trait ProofStep: Send {
    /// A decoded gossip payload.
    type Bundle: Claims;

    /// Reads a gossip payload; `None` when it is not a bundle at all.
    fn decode(data: &[u8], group: &GroupManager) -> Option<Self::Bundle>;

    /// Whether the bundle's proof is good.
    fn proof_ok(&self, bundle: &Self::Bundle) -> bool;
}

impl ProofStep for RlnVerifier {
    type Bundle = RlnMessageBundle;

    fn decode(data: &[u8], _group: &GroupManager) -> Option<RlnMessageBundle> {
        RlnMessageBundle::from_bytes(data)
    }

    fn proof_ok(&self, bundle: &RlnMessageBundle) -> bool {
        self.verify_bundle(bundle)
    }
}

/// The proof step of network-scale runs: the publisher tags the payload
/// with the verdict a verifier would reach.
pub struct TaggedProof;

/// The compact simulated bundle inside gossip payloads,
/// `valid(1) ‖ epoch(8) ‖ y(32) ‖ nullifier(32) ‖ m…`: real Poseidon
/// share and nullifier, no root and no proof bytes.
pub struct TaggedBundle {
    valid: bool,
    epoch: u64,
    root: Fr,
    y: Fr,
    nullifier: [u8; 32],
    x: Fr,
}

impl TaggedBundle {
    pub(crate) fn encode(valid: bool, epoch: u64, y: Fr, nullifier: Fr, m: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(73 + m.len());
        out.push(valid as u8);
        out.extend_from_slice(&epoch.to_le_bytes());
        out.extend_from_slice(&y.to_le_bytes());
        out.extend_from_slice(&nullifier.to_le_bytes());
        out.extend_from_slice(m);
        out
    }
}

impl Claims for TaggedBundle {
    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn root(&self) -> Fr {
        self.root
    }

    fn nullifier(&self) -> [u8; 32] {
        self.nullifier
    }

    fn share(&self) -> (Fr, Fr) {
        (self.x, self.y)
    }
}

impl ProofStep for TaggedProof {
    type Bundle = TaggedBundle;

    fn decode(data: &[u8], group: &GroupManager) -> Option<TaggedBundle> {
        let mut r = waku_wire::Reader::new(data);
        let valid = r.u8().ok()? == 1;
        let epoch = r.u64().ok()?;
        let y = Fr::from_le_bytes(&r.array().ok()?)?;
        let nullifier = r.array().ok()?;
        // The share x binds the application payload m (the bytes after
        // the metadata), exactly as x = H(m) in the real protocol.
        let x = message_hash(r.take(r.remaining()).ok()?);
        Some(TaggedBundle {
            valid,
            epoch,
            // No root on this wire: every publisher of a seeded run is in
            // sync with the one group, so a bundle claims its current root.
            root: group.root(),
            y,
            nullifier,
            x,
        })
    }

    fn proof_ok(&self, bundle: &TaggedBundle) -> bool {
        bundle.valid
    }
}

/// One routing peer's RLN admission: the production validator over this
/// peer's view of the group, its verdicts translated for gossip.
pub struct RlnAcceptor<V: ProofStep> {
    validator: MessageValidator<V>,
    group: Arc<GroupManager>,
    peer: PeerId,
    detections: Arc<DetectionLog>,
}

impl<V: ProofStep> RlnAcceptor<V> {
    /// Wraps `validator` for `peer`; recovered spammer keys go to that
    /// peer's slot of `detections`.
    pub fn new(
        validator: MessageValidator<V>,
        group: Arc<GroupManager>,
        peer: PeerId,
        detections: Arc<DetectionLog>,
    ) -> Self {
        RlnAcceptor {
            validator,
            group,
            peer,
            detections,
        }
    }
}

impl<V: ProofStep> MessageAcceptor for RlnAcceptor<V> {
    fn validate(&mut self, _from: PeerId, message: &Message, local_ms: SimTime) -> Validation {
        let Some(bundle) = V::decode(&message.data, &self.group) else {
            return Validation::Reject;
        };
        let outcome =
            self.validator
                .validate_claims(&bundle, &self.group, local_ms / 1000, |step| {
                    step.proof_ok(&bundle)
                });
        match outcome {
            Outcome::Relay => Validation::Accept,
            Outcome::EpochOutOfRange(_) | Outcome::Duplicate => Validation::Ignore,
            Outcome::UnknownRoot | Outcome::InvalidProof => Validation::Reject,
            Outcome::Spam(evidence) => {
                self.detections
                    .record(self.peer, evidence.recovered_secret.to_le_bytes());
                Validation::Reject
            }
        }
    }

    fn on_heartbeat(&mut self, local_ms: SimTime) {
        // Epoch rollover observed from the scenario clock: expired
        // epochs are recycled even when the topic carries no traffic.
        self.validator.tick(local_ms / 1000);
    }

    fn on_restart(&mut self, local_ms: SimTime) {
        // A crashed peer rejoins cold: gossip state (seen set, mcache,
        // mesh) was dropped by the engine, but rate-limit state is
        // durable — a router that forgot this epoch's nullifiers would
        // relay a spammer's second signal as fresh. Round-trip the store
        // through its crash-survival snapshot (the path a real node's
        // disk persistence takes), then catch the window up to the local
        // clock so epochs that expired during the outage are recycled.
        let snapshot = self.validator.nullifiers().snapshot();
        self.validator
            .restore_nullifiers(&snapshot)
            .expect("a validator's own snapshot has its Thr");
        self.validator.tick(local_ms / 1000);
    }
}
