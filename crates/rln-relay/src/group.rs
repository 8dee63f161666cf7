//! Off-chain identity-commitment tree maintenance (paper §III-C,
//! Figure 2): every peer replays the membership contract's events to keep
//! a local tree, because the contract itself only stores the flat list.
//!
//! Peers must stay in sync with the latest root: proving against an old
//! root both fails validation at up-to-date routers and (the paper warns)
//! risks narrowing the prover's leaf index. The manager also keeps a short
//! window of *recent* roots so in-flight messages proved just before an
//! update are not dropped network-wide.

use std::collections::VecDeque;

use waku_arith::fields::Fr;
use waku_chain::{Chain, ContractEvent};
use waku_merkle::{DenseTree, MerklePath};

/// How many recent roots remain acceptable (nwaku uses a similar window).
pub const ROOT_WINDOW: usize = 5;

/// A peer's synchronized view of the membership group.
#[derive(Clone, Debug)]
pub struct GroupManager {
    tree: DenseTree,
    last_synced_block: u64,
    /// Our own leaf, once registered.
    own_index: Option<u64>,
    own_commitment: Option<Fr>,
    /// Most recent roots, newest first.
    recent_roots: VecDeque<Fr>,
    members: u64,
}

impl GroupManager {
    /// Creates an unsynced manager for a tree of the given depth.
    pub fn new(depth: usize) -> Self {
        let tree = DenseTree::new(depth);
        let mut recent_roots = VecDeque::with_capacity(ROOT_WINDOW);
        recent_roots.push_front(tree.root());
        GroupManager {
            tree,
            last_synced_block: 0,
            own_index: None,
            own_commitment: None,
            recent_roots,
            members: 0,
        }
    }

    /// Marks which commitment is ours (so sync can discover our index).
    pub fn set_own_commitment(&mut self, commitment: Fr) {
        self.own_commitment = Some(commitment);
    }

    /// Pulls and applies all contract events newer than the last sync.
    /// Returns how many events were applied.
    ///
    /// Every event changes the root, but only the last [`ROOT_WINDOW`] of
    /// them can leave one in the acceptance window — those are applied one
    /// by one. Everything before only has to leave the tree right, so each
    /// run of consecutive registrations there is one batch insertion (§IV-A:
    /// every touched internal node hashed once, not once per member). The
    /// resulting state is the one event-at-a-time application produces.
    pub fn sync(&mut self, chain: &Chain) -> usize {
        let from = self.last_synced_block + 1;
        let to = chain.height();
        if from > to {
            return 0;
        }
        let events: Vec<ContractEvent> = chain
            .events_in_range(from, to)
            .into_iter()
            .map(|(_, event)| event)
            .filter(|event| {
                matches!(
                    event,
                    ContractEvent::MemberRegistered { .. } | ContractEvent::MemberRemoved { .. }
                )
            })
            .collect();
        let (head, tail) = events.split_at(events.len().saturating_sub(ROOT_WINDOW));
        for run in head.chunk_by(|a, b| match (a, b) {
            (
                ContractEvent::MemberRegistered { index: a, .. },
                ContractEvent::MemberRegistered { index: b, .. },
            ) => a + 1 == *b,
            _ => false,
        }) {
            self.apply(run);
        }
        for event in tail {
            self.apply(std::slice::from_ref(event));
            self.push_root();
        }
        self.last_synced_block = to;
        events.len()
    }

    /// Applies one removal, or a run of registrations at consecutive indices.
    fn apply(&mut self, run: &[ContractEvent]) {
        let mut leaves = Vec::with_capacity(run.len());
        for event in run {
            match event {
                ContractEvent::MemberRegistered { index, commitment } => {
                    leaves.push(*commitment);
                    self.members += 1;
                    if Some(*commitment) == self.own_commitment {
                        self.own_index = Some(*index);
                    }
                }
                ContractEvent::MemberRemoved { index, .. } => {
                    self.tree.remove(*index);
                    self.members = self.members.saturating_sub(1);
                    if self.own_index == Some(*index) {
                        self.own_index = None; // we were slashed/withdrawn
                    }
                }
                _ => {}
            }
        }
        if let Some(ContractEvent::MemberRegistered { index, .. }) = run.first() {
            self.tree.set_batch(*index, &leaves);
        }
    }

    fn push_root(&mut self) {
        self.recent_roots.push_front(self.tree.root());
        self.recent_roots.truncate(ROOT_WINDOW);
    }

    /// The current tree root.
    pub fn root(&self) -> Fr {
        self.tree.root()
    }

    /// Whether a root is within the acceptance window.
    pub fn is_known_root(&self, root: Fr) -> bool {
        self.recent_roots.contains(&root)
    }

    /// Our registered leaf index, if sync has seen our registration.
    pub fn own_index(&self) -> Option<u64> {
        self.own_index
    }

    /// Current membership count.
    pub fn member_count(&self) -> u64 {
        self.members
    }

    /// Last block the manager has replayed.
    pub fn last_synced_block(&self) -> u64 {
        self.last_synced_block
    }

    /// Authentication path for our own leaf.
    ///
    /// Returns `None` before our registration has been synced (the §IV-A
    /// "must wait for mining" delay).
    pub fn own_path(&self) -> Option<MerklePath> {
        self.own_index.map(|i| self.tree.proof(i))
    }

    /// Authentication path for an arbitrary leaf (resourceful peers serve
    /// these to light peers — §IV-A hybrid architecture).
    pub fn path_of(&self, index: u64) -> MerklePath {
        self.tree.proof(index)
    }

    /// Read access to the underlying tree.
    pub fn tree(&self) -> &DenseTree {
        &self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waku_arith::traits::PrimeField;
    use waku_chain::{Address, ChainConfig, TxKind, ETHER};

    fn chain() -> (Chain, Address) {
        let mut chain = Chain::new(ChainConfig {
            tree_depth: 6,
            ..ChainConfig::default()
        });
        let user = Address::from_seed(b"user");
        chain.fund(user, 100 * ETHER);
        (chain, user)
    }

    #[test]
    fn sync_tracks_registrations() {
        let (mut chain, user) = chain();
        let mut gm = GroupManager::new(6);
        for i in 0..4u64 {
            chain.submit(
                user,
                TxKind::Register {
                    commitment: Fr::from_u64(100 + i),
                },
                50,
            );
        }
        chain.mine_block();
        assert_eq!(gm.sync(&chain), 4);
        assert_eq!(gm.member_count(), 4);
        // replaying again is a no-op
        assert_eq!(gm.sync(&chain), 0);
    }

    #[test]
    fn tree_matches_contract_list() {
        let (mut chain, user) = chain();
        let mut gm = GroupManager::new(6);
        for i in 0..5u64 {
            chain.submit(
                user,
                TxKind::Register {
                    commitment: Fr::from_u64(200 + i),
                },
                50,
            );
            chain.mine_block();
        }
        gm.sync(&chain);
        // independent reconstruction from the contract's flat list
        let mut reference = DenseTree::new(6);
        for (i, c) in chain.contract().commitments().iter().enumerate() {
            reference.set(i as u64, *c);
        }
        assert_eq!(gm.root(), reference.root());
    }

    #[test]
    fn own_index_discovered_and_cleared() {
        let (mut chain, user) = chain();
        let mut gm = GroupManager::new(6);
        let me = Fr::from_u64(777);
        gm.set_own_commitment(me);
        chain.submit(user, TxKind::Register { commitment: me }, 50);
        chain.mine_block();
        gm.sync(&chain);
        assert_eq!(gm.own_index(), Some(0));
        assert!(gm.own_path().is_some());

        // Slashing removes us.
        chain.submit(user, TxKind::Withdraw { index: 0 }, 50);
        chain.mine_block();
        gm.sync(&chain);
        assert_eq!(gm.own_index(), None);
        assert!(gm.own_path().is_none());
    }

    #[test]
    fn recent_root_window() {
        let (mut chain, user) = chain();
        let mut gm = GroupManager::new(6);
        chain.submit(
            user,
            TxKind::Register {
                commitment: Fr::from_u64(1),
            },
            50,
        );
        chain.mine_block();
        gm.sync(&chain);
        let old_root = gm.root();
        chain.submit(
            user,
            TxKind::Register {
                commitment: Fr::from_u64(2),
            },
            50,
        );
        chain.mine_block();
        gm.sync(&chain);
        assert_ne!(gm.root(), old_root);
        assert!(gm.is_known_root(old_root), "one-update-old root accepted");
        assert!(gm.is_known_root(gm.root()));
        assert!(!gm.is_known_root(Fr::from_u64(12345)));
    }

    #[test]
    fn window_expires_ancient_roots() {
        let (mut chain, user) = chain();
        let mut gm = GroupManager::new(6);
        chain.submit(
            user,
            TxKind::Register {
                commitment: Fr::from_u64(1),
            },
            50,
        );
        chain.mine_block();
        gm.sync(&chain);
        let ancient = gm.root();
        for i in 0..ROOT_WINDOW as u64 + 2 {
            chain.submit(
                user,
                TxKind::Register {
                    commitment: Fr::from_u64(50 + i),
                },
                50,
            );
            chain.mine_block();
        }
        gm.sync(&chain);
        assert!(!gm.is_known_root(ancient));
    }
}
