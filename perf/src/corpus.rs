//! The relay corpus and its oracle: seeded identities, real Groth16
//! bundles proved through one shared group view, the hostile variants
//! derived from them, and the expected outcome class of every message in
//! a given arrival order.

use std::collections::HashMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use waku_arith::fields::Fr;
use waku_arith::traits::Field;
use waku_rln::{Identity, RlnMessageBundle, RlnProver};
use waku_rln_relay::{GroupManager, Outcome};

/// Epoch length `T` in seconds, all service workloads.
pub const EPOCH_SECS: u64 = 10;
/// Maximum epoch gap `Thr`, all service workloads.
pub const THR: u64 = 1;
/// Injected-clock origin (epoch-aligned, well past epoch 0).
pub const BASE_SECS: u64 = 1_000_000;
/// How far behind the base epoch a stale replay claims to be (> `THR`).
pub const STALE_GAP: u64 = 5;

/// The six verdicts of the §III-F pipeline, without their payloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Fresh and valid: relayed and stored.
    Relay,
    /// Exact copy of an already-relayed share.
    Duplicate,
    /// Second distinct signal in one epoch: key recovered, slashing starts.
    Spam,
    /// The Groth16 check failed.
    InvalidProof,
    /// More than `Thr` epochs from the router's clock.
    EpochOutOfRange,
    /// Proof bound to a root outside the acceptance window.
    UnknownRoot,
}

impl Class {
    /// Every class, in counter order.
    pub const ALL: [Class; 6] = [
        Class::Relay,
        Class::Duplicate,
        Class::Spam,
        Class::InvalidProof,
        Class::EpochOutOfRange,
        Class::UnknownRoot,
    ];

    /// The class of a pipeline outcome.
    pub fn of(outcome: &Outcome) -> Class {
        match outcome {
            Outcome::Relay => Class::Relay,
            Outcome::Duplicate => Class::Duplicate,
            Outcome::Spam(_) => Class::Spam,
            Outcome::InvalidProof => Class::InvalidProof,
            Outcome::EpochOutOfRange(_) => Class::EpochOutOfRange,
            Outcome::UnknownRoot => Class::UnknownRoot,
        }
    }

    /// Stable label for count tables.
    pub fn label(self) -> &'static str {
        match self {
            Class::Relay => "relay",
            Class::Duplicate => "duplicate",
            Class::Spam => "spam",
            Class::InvalidProof => "invalid_proof",
            Class::EpochOutOfRange => "epoch_out_of_range",
            Class::UnknownRoot => "unknown_root",
        }
    }
}

/// An external group member: a seeded identity plus the seed of the chain
/// address that pays its deposit.
pub struct Member {
    /// The RLN identity.
    pub identity: Identity,
    /// Seed of the funding address (`Address::from_seed` of its LE bytes).
    pub address_seed: u64,
}

/// `n` members drawn from `seed`.
pub fn members(seed: u64, n: usize) -> Vec<Member> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6D65_6D62);
    (0..n)
        .map(|i| Member {
            identity: Identity::random(&mut rng),
            address_seed: seed.wrapping_mul(1_000_003).wrapping_add(i as u64),
        })
        .collect()
}

/// What a corpus message is, as far as the oracle cares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A correctly proved signal: `signer`'s `variant`-th distinct payload
    /// of the epoch. An exact duplicate repeats both numbers.
    Signal {
        /// Index into the member list.
        signer: usize,
        /// Which of the signer's payloads this is.
        variant: u32,
    },
    /// An honest bundle with one payload bit flipped.
    Junk,
    /// An honest bundle re-stamped `STALE_GAP` epochs back.
    Stale,
    /// An honest bundle re-bound to a root nobody knows.
    BadRoot,
}

/// One corpus message.
pub struct Message {
    /// The bundle as it goes on the wire.
    pub bundle: RlnMessageBundle,
    /// What the oracle knows about it.
    pub kind: Kind,
}

/// How many messages of each sort a corpus holds.
#[derive(Clone, Copy, Debug)]
pub struct CorpusSpec {
    /// Honest publishers, one signal each.
    pub publishers: usize,
    /// Double-signalling members, two signals each.
    pub spammers: usize,
    /// Invalid-proof junk messages.
    pub junk: usize,
    /// Exact duplicates of honest messages.
    pub duplicates: usize,
    /// Stale-epoch replays.
    pub stale: usize,
    /// Unknown-root messages.
    pub bad_root: usize,
    /// Payload size in bytes.
    pub payload_bytes: usize,
}

/// The relay corpus: `honest` is one epoch of traffic, `hostile` is what
/// an attacker adds to it.
pub struct Corpus {
    /// One valid signal per publisher.
    pub honest: Vec<Message>,
    /// Junk, duplicates, stale replays, unknown roots, spam signals.
    pub hostile: Vec<Message>,
    /// Wall time of every `prove_message` call made, nanoseconds.
    pub prove_ns: Vec<u64>,
}

/// Builds the corpus for `epoch`. `members[i]` sits at tree leaf
/// `first_leaf + i` of `group`, which must already hold every member:
/// all proofs bind the group's current root. The first `spec.publishers`
/// members are the honest publishers, the next `spec.spammers` the
/// double-signallers.
pub fn build(
    spec: &CorpusSpec,
    seed: u64,
    epoch: u64,
    prover: &RlnProver,
    group: &GroupManager,
    members: &[Member],
    first_leaf: u64,
) -> Corpus {
    assert!(members.len() >= spec.publishers + spec.spammers);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x636F_7270);
    let mut prove_ns = Vec::new();
    let mut signal = |signer: usize, variant: u32, rng: &mut StdRng| {
        let mut payload = vec![0u8; spec.payload_bytes];
        rng.fill(&mut payload[..]);
        let path = group.path_of(first_leaf + signer as u64);
        let started = Instant::now();
        let bundle = prover
            .prove_message(&members[signer].identity, &path, &payload, epoch, rng)
            .expect("corpus proofs are satisfiable");
        prove_ns.push(started.elapsed().as_nanos() as u64);
        Message {
            bundle,
            kind: Kind::Signal { signer, variant },
        }
    };

    let honest: Vec<Message> = (0..spec.publishers)
        .map(|p| signal(p, 0, &mut rng))
        .collect();

    let mut hostile = Vec::new();
    for s in 0..spec.spammers {
        for variant in 0..2 {
            hostile.push(signal(spec.publishers + s, variant, &mut rng));
        }
    }
    let victim = |rng: &mut StdRng| &honest[rng.gen_range(0..honest.len())];
    for _ in 0..spec.junk {
        let mut bundle = victim(&mut rng).bundle.clone();
        let bit = rng.gen_range(0..bundle.payload.len() * 8);
        bundle.payload[bit / 8] ^= 1 << (bit % 8);
        hostile.push(Message {
            bundle,
            kind: Kind::Junk,
        });
    }
    for _ in 0..spec.duplicates {
        let original = victim(&mut rng);
        hostile.push(Message {
            bundle: original.bundle.clone(),
            kind: original.kind,
        });
    }
    for _ in 0..spec.stale {
        let mut bundle = victim(&mut rng).bundle.clone();
        bundle.epoch = epoch - STALE_GAP;
        hostile.push(Message {
            bundle,
            kind: Kind::Stale,
        });
    }
    for _ in 0..spec.bad_root {
        let mut bundle = victim(&mut rng).bundle.clone();
        bundle.root = Fr::random(&mut rng);
        hostile.push(Message {
            bundle,
            kind: Kind::BadRoot,
        });
    }
    Corpus {
        honest,
        hostile,
        prove_ns,
    }
}

impl Corpus {
    /// The messages of one pass in arrival order: the honest epoch alone,
    /// or with the hostile set shuffled in. The interleaving is one fixed
    /// permutation for every seed: bisection work depends on where in a
    /// batch the bad proofs fall, and run-to-run figures must differ by
    /// noise, not by how lucky the shuffle was. The seed picks who signs
    /// and what; it does not pick where.
    pub fn arrival(&self, with_hostile: bool) -> Vec<&Message> {
        let mut order: Vec<&Message> = self.honest.iter().collect();
        if with_hostile {
            order.extend(self.hostile.iter());
        }
        order.shuffle(&mut StdRng::seed_from_u64(0x6172_7276));
        order
    }

    /// Wire bytes of every message, for determinism checks.
    #[cfg(test)]
    pub fn to_bytes(&self) -> Vec<u8> {
        self.honest
            .iter()
            .chain(self.hostile.iter())
            .flat_map(|m| m.bundle.to_bytes())
            .collect()
    }
}

/// The oracle: the class each message must be given, by arrival order.
/// A signer's first signal relays, an identical later one is a duplicate,
/// a different later one is spam; the three forged sorts are rejected
/// before they can touch the nullifier log.
pub fn expected(arrival: &[&Message]) -> Vec<Class> {
    let mut seen: HashMap<usize, Vec<u32>> = HashMap::new();
    arrival
        .iter()
        .map(|m| match m.kind {
            Kind::Junk => Class::InvalidProof,
            Kind::Stale => Class::EpochOutOfRange,
            Kind::BadRoot => Class::UnknownRoot,
            Kind::Signal { signer, variant } => {
                let variants = seen.entry(signer).or_default();
                if variants.is_empty() {
                    variants.push(variant);
                    Class::Relay
                } else if variants.contains(&variant) {
                    Class::Duplicate
                } else {
                    variants.push(variant);
                    Class::Spam
                }
            }
        })
        .collect()
}

/// Per-class message counts, in [`Class::ALL`] order.
pub fn class_counts(classes: impl IntoIterator<Item = Class>) -> [u64; 6] {
    let mut counts = [0u64; 6];
    for class in classes {
        counts[Class::ALL.iter().position(|c| *c == class).expect("listed")] += 1;
    }
    counts
}
