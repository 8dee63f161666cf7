//! F2 (paper Figure 2): the registration flow — transaction → mining →
//! event → every peer's off-chain tree update — including batch
//! registrations, withdrawals, and late-joining peers.

use rand::rngs::StdRng;
use rand::SeedableRng;
use waku_suite::arith::traits::{Field, PrimeField};
use waku_suite::arith::Fr;
use waku_suite::chain::{Address, Chain, ChainConfig, ContractEvent, TxKind, ETHER};
use waku_suite::merkle::DenseTree;
use waku_suite::rln_relay::GroupManager;

const DEPTH: usize = 8;

fn chain_and_user() -> (Chain, Address) {
    let mut chain = Chain::new(ChainConfig {
        tree_depth: DEPTH,
        ..ChainConfig::default()
    });
    let user = Address::from_seed(b"reg-sync");
    chain.fund(user, 1_000 * ETHER);
    (chain, user)
}

#[test]
fn many_peers_converge_on_identical_roots() {
    let (mut chain, user) = chain_and_user();
    let mut rng = StdRng::seed_from_u64(1);
    let mut managers: Vec<GroupManager> = (0..10).map(|_| GroupManager::new(DEPTH)).collect();

    // Interleave registrations with syncs at different cadences.
    for round in 0..6u64 {
        for i in 0..3u64 {
            chain.submit(
                user,
                TxKind::Register {
                    commitment: Fr::random(&mut rng),
                },
                100 + i,
            );
        }
        chain.mine_block();
        // Only some managers sync each round (stragglers catch up later).
        for (i, gm) in managers.iter_mut().enumerate() {
            if !(i as u64 + round).is_multiple_of(3) {
                gm.sync(&chain);
            }
        }
    }
    // Final catch-up.
    for gm in managers.iter_mut() {
        gm.sync(&chain);
    }
    let root = managers[0].root();
    assert!(managers.iter().all(|g| g.root() == root));
    assert_eq!(managers[0].member_count(), 18);
}

#[test]
fn batch_registration_emits_ordered_events() {
    let (mut chain, user) = chain_and_user();
    let commitments: Vec<Fr> = (1..=5).map(Fr::from_u64).collect();
    chain.submit(
        user,
        TxKind::RegisterBatch {
            commitments: commitments.clone(),
        },
        100,
    );
    chain.mine_block();
    let events = chain.events_in_range(1, chain.height());
    assert_eq!(events.len(), 5);
    for (i, (_, event)) in events.iter().enumerate() {
        match event {
            ContractEvent::MemberRegistered { index, commitment } => {
                assert_eq!(*index, i as u64);
                assert_eq!(*commitment, commitments[i]);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
    // and a GroupManager replays them into the same tree a direct build
    // produces
    let mut gm = GroupManager::new(DEPTH);
    gm.sync(&chain);
    let mut reference = DenseTree::new(DEPTH);
    for (i, c) in commitments.iter().enumerate() {
        reference.set(i as u64, *c);
    }
    assert_eq!(gm.root(), reference.root());
}

#[test]
fn withdrawal_and_reregistration_keep_views_consistent() {
    let (mut chain, user) = chain_and_user();
    let mut gm = GroupManager::new(DEPTH);
    for i in 1..=3u64 {
        chain.submit(
            user,
            TxKind::Register {
                commitment: Fr::from_u64(i * 100),
            },
            100,
        );
    }
    chain.mine_block();
    gm.sync(&chain);
    assert_eq!(gm.member_count(), 3);

    chain.submit(user, TxKind::Withdraw { index: 1 }, 100);
    chain.mine_block();
    gm.sync(&chain);
    assert_eq!(gm.member_count(), 2);

    // New member takes a fresh slot (the flat list appends).
    chain.submit(
        user,
        TxKind::Register {
            commitment: Fr::from_u64(999),
        },
        100,
    );
    chain.mine_block();
    gm.sync(&chain);
    assert_eq!(gm.member_count(), 3);

    // The reference tree (contract's authoritative flat list) agrees.
    let mut reference = DenseTree::new(DEPTH);
    for (i, c) in chain.contract().commitments().iter().enumerate() {
        reference.set(i as u64, *c);
    }
    assert_eq!(gm.root(), reference.root());
}

#[test]
fn late_joiner_catches_up_from_genesis() {
    let (mut chain, user) = chain_and_user();
    let mut rng = StdRng::seed_from_u64(2);
    let mut early = GroupManager::new(DEPTH);
    for _ in 0..12 {
        chain.submit(
            user,
            TxKind::Register {
                commitment: Fr::random(&mut rng),
            },
            100,
        );
        chain.mine_block();
        early.sync(&chain);
    }
    // A peer that boots now must reach the same root in one sync.
    let mut late = GroupManager::new(DEPTH);
    late.sync(&chain);
    assert_eq!(late.root(), early.root());
    assert_eq!(late.member_count(), 12);
}

#[test]
fn registration_is_invisible_until_mined() {
    let (mut chain, user) = chain_and_user();
    let mut gm = GroupManager::new(DEPTH);
    let before = gm.root();
    chain.submit(
        user,
        TxKind::Register {
            commitment: Fr::from_u64(5),
        },
        100,
    );
    // Still in the mempool: syncing sees nothing (§IV-A latency).
    gm.sync(&chain);
    assert_eq!(gm.root(), before);
    chain.mine_block();
    gm.sync(&chain);
    assert_ne!(gm.root(), before);
}

// ---- batched sync is invisible ---------------------------------------
//
// `GroupManager::sync` batch-inserts every run of registrations that
// cannot leave a root in the acceptance window. Nothing a caller can
// observe may depend on that: the scripts below drive the real manager
// and a one-event-at-a-time replay over the same chain and compare
// everything after every sync.

use std::collections::VecDeque;
use waku_suite::merkle::MerklePath;
use waku_suite::poseidon::poseidon1;
use waku_suite::rln_relay::group::ROOT_WINDOW;

/// Depth of the scripted histories (room for a few hundred members).
const SCRIPT_DEPTH: usize = 10;
/// Identity secret of the member the managers call their own.
const OWN_SECRET: u64 = u64::MAX;

/// One event, one `set`/`remove`, one root pushed — what `sync` did before
/// it batched, kept here as the definition of the right answer.
struct Replay {
    tree: DenseTree,
    last_synced_block: u64,
    own_commitment: Fr,
    own_index: Option<u64>,
    recent_roots: VecDeque<Fr>,
    /// Every root this replay ever produced, in or out of the window.
    every_root: Vec<Fr>,
    members: u64,
}

impl Replay {
    fn new(own_commitment: Fr) -> Self {
        let tree = DenseTree::new(SCRIPT_DEPTH);
        Replay {
            recent_roots: VecDeque::from([tree.root()]),
            every_root: vec![tree.root()],
            tree,
            last_synced_block: 0,
            own_commitment,
            own_index: None,
            members: 0,
        }
    }

    fn sync(&mut self, chain: &Chain) -> usize {
        let mut applied = 0;
        for (_, event) in chain.events_in_range(self.last_synced_block + 1, chain.height()) {
            match event {
                ContractEvent::MemberRegistered { index, commitment } => {
                    self.tree.set(index, commitment);
                    self.members += 1;
                    if commitment == self.own_commitment {
                        self.own_index = Some(index);
                    }
                }
                ContractEvent::MemberRemoved { index, .. } => {
                    self.tree.remove(index);
                    self.members -= 1;
                    if self.own_index == Some(index) {
                        self.own_index = None;
                    }
                }
                _ => continue,
            }
            applied += 1;
            self.recent_roots.push_front(self.tree.root());
            self.recent_roots.truncate(ROOT_WINDOW);
            self.every_root.push(self.tree.root());
        }
        self.last_synced_block = chain.height();
        applied
    }

    fn own_path(&self) -> Option<MerklePath> {
        self.own_index.map(|i| self.tree.proof(i))
    }
}

#[derive(Clone, Copy, Debug)]
enum Step {
    /// Submit this many single registrations.
    Register(usize),
    /// Submit one batch registration of this many members.
    RegisterBatch(usize),
    /// Register the managers' own commitment.
    RegisterOwn,
    /// Withdraw the n-th (mod count) still-active member.
    Withdraw(usize),
    /// Slash the n-th (mod count) still-active member with its secret.
    Slash(usize),
    Mine,
    /// Sync both managers with the chain and compare them.
    Sync,
}

/// Runs a script against a fresh chain, a fresh `GroupManager` and a fresh
/// [`Replay`], asserting the two agree after every `Sync`. Returns the
/// event count of each sync.
fn run_script(script: &[Step]) -> Vec<usize> {
    let mut chain = Chain::new(ChainConfig {
        tree_depth: SCRIPT_DEPTH,
        ..ChainConfig::default()
    });
    let user = Address::from_seed(b"scripted");
    chain.fund(user, 1_000_000 * ETHER);
    let own = poseidon1(Fr::from_u64(OWN_SECRET));
    let mut gm = GroupManager::new(SCRIPT_DEPTH);
    gm.set_own_commitment(own);
    let mut replay = Replay::new(own);

    let mut next_secret = 1u64;
    let mut registered = 0u64;
    // (leaf index, identity secret) of every member still in the group
    let mut active: Vec<(u64, u64)> = Vec::new();
    let mut fresh = |active: &mut Vec<(u64, u64)>, secret: Option<u64>| {
        let secret = secret.unwrap_or_else(|| {
            next_secret += 1;
            next_secret - 1
        });
        active.push((registered, secret));
        registered += 1;
        poseidon1(Fr::from_u64(secret))
    };
    let mut synced = Vec::new();
    for (at, step) in script.iter().enumerate() {
        match *step {
            Step::Register(n) => {
                for _ in 0..n {
                    let commitment = fresh(&mut active, None);
                    chain.submit(user, TxKind::Register { commitment }, 100);
                }
            }
            Step::RegisterBatch(n) => {
                let commitments = (0..n).map(|_| fresh(&mut active, None)).collect();
                chain.submit(user, TxKind::RegisterBatch { commitments }, 100);
            }
            Step::RegisterOwn => {
                let commitment = fresh(&mut active, Some(OWN_SECRET));
                chain.submit(user, TxKind::Register { commitment }, 100);
            }
            Step::Withdraw(_) | Step::Slash(_) if active.is_empty() => {}
            Step::Withdraw(n) => {
                let (index, _) = active.remove(n % active.len());
                chain.submit(user, TxKind::Withdraw { index }, 100);
            }
            Step::Slash(n) => {
                let (_, secret) = active.remove(n % active.len());
                chain.submit(
                    user,
                    TxKind::SlashPlain {
                        secret: Fr::from_u64(secret),
                        beneficiary: user,
                    },
                    100,
                );
            }
            Step::Mine => {
                chain.mine_block();
            }
            Step::Sync => {
                let applied = gm.sync(&chain);
                assert_eq!(applied, replay.sync(&chain), "step {at}: return value");
                assert_eq!(gm.root(), replay.tree.root(), "step {at}: root");
                for root in &replay.every_root {
                    assert_eq!(
                        gm.is_known_root(*root),
                        replay.recent_roots.contains(root),
                        "step {at}: window contents"
                    );
                }
                assert_eq!(gm.own_index(), replay.own_index, "step {at}");
                assert_eq!(gm.own_path(), replay.own_path(), "step {at}");
                assert_eq!(gm.member_count(), replay.members, "step {at}");
                assert_eq!(gm.member_count(), active.len() as u64, "step {at}");
                assert_eq!(gm.last_synced_block(), replay.last_synced_block);
                synced.push(applied);
            }
        }
    }
    synced
}

#[test]
fn batched_sync_equals_one_by_one_replay_on_seeded_histories() {
    use rand::Rng;
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0xB47C4ED + seed);
        let mut script = Vec::new();
        let own_block = rng.gen_range(0..10);
        let mut budget = (1usize << SCRIPT_DEPTH) - 1;
        for block in 0..10 {
            // 0–40 registrations, removals mixed in between them
            let registrations = rng.gen_range(0..=40usize).min(budget);
            budget -= registrations;
            let mut left = registrations;
            let own_at = (block == own_block).then(|| rng.gen_range(0..=left));
            while left > 0 {
                if own_at == Some(left) {
                    script.push(Step::RegisterOwn);
                }
                let run = rng.gen_range(1..=left);
                script.push(if rng.gen_bool(0.3) {
                    Step::RegisterBatch(run)
                } else {
                    Step::Register(run)
                });
                left -= run;
                for _ in 0..rng.gen_range(0..3) {
                    let nth = rng.gen_range(0..1000);
                    script.push(if rng.gen_bool(0.5) {
                        Step::Withdraw(nth)
                    } else {
                        Step::Slash(nth)
                    });
                }
            }
            if own_at == Some(0) {
                script.push(Step::RegisterOwn);
            }
            script.push(Step::Mine);
            if rng.gen_bool(0.4) {
                script.push(Step::Sync);
            }
        }
        script.push(Step::Sync);
        run_script(&script);
    }
}

#[test]
fn batched_sync_boundaries_around_the_root_window() {
    use Step::*;
    // Exactly 4, 5 and 6 events in one sync: empty head, empty head, a
    // head of one.
    for n in [ROOT_WINDOW - 1, ROOT_WINDOW, ROOT_WINDOW + 1] {
        assert_eq!(run_script(&[Register(n), Mine, Sync]), [n]);
        assert_eq!(
            run_script(&[Register(3), Mine, Sync, RegisterBatch(n), Mine, Sync]),
            [3, n]
        );
    }
    // A removal as the last head event (then exactly ROOT_WINDOW more).
    assert_eq!(
        run_script(&[Register(9), Withdraw(2), Register(ROOT_WINDOW), Mine, Sync]),
        [9 + 1 + ROOT_WINDOW]
    );
    // A removal splitting a run of registrations inside the head, and the
    // own commitment registered inside the second half of it.
    assert_eq!(
        run_script(&[
            Register(7),
            Slash(3),
            Register(4),
            RegisterOwn,
            Register(6),
            Mine,
            Register(ROOT_WINDOW + 2),
            Mine,
            Sync
        ]),
        [7 + 1 + 4 + 1 + 6 + ROOT_WINDOW + 2]
    );
    // The own member registered and removed inside one head.
    assert_eq!(
        run_script(&[RegisterOwn, Register(3), Slash(0), Register(8), Mine, Sync]),
        [1 + 3 + 1 + 8]
    );
    // A sync whose tail is all removals.
    let mut script = vec![Register(12), Mine];
    script.extend([Withdraw(0), Slash(0), Withdraw(0), Slash(0), Withdraw(0)]);
    script.extend([Mine, Sync]);
    assert_eq!(run_script(&script), [12 + ROOT_WINDOW]);
    // …and the same with a synced prefix, so the tail is the whole sync.
    let mut script = vec![Register(12), Mine, Sync];
    script.extend([Withdraw(0), Slash(0), Withdraw(0), Slash(0), Withdraw(0)]);
    script.extend([Mine, Sync]);
    assert_eq!(run_script(&script), [12, ROOT_WINDOW]);
}
