//! The RLN membership contract (paper §III-B), in two storage designs:
//!
//! * [`ContractKind::FlatList`] — **the paper's design**: the contract
//!   stores a simple *ordered list* of identity commitments; insertion and
//!   deletion touch a single storage slot, and the Merkle tree lives
//!   off-chain with the peers (§III-A, adjustment 1).
//! * [`ContractKind::OnChainTree`] — the original Semaphore design used as
//!   the comparison baseline: the contract maintains the whole incremental
//!   Merkle tree on-chain, so every insertion/deletion pays
//!   O(depth) storage updates and hashes.
//!
//! Slashing supports both the race-prone *plain* path (submit `sk`
//! directly) and the *commit-reveal* scheme the paper recommends (§III-F).

use std::collections::{HashMap, HashSet};

use waku_arith::fields::Fr;
use waku_arith::traits::{Field, PrimeField};
use waku_hash::keccak256;
use waku_merkle::DenseTree;
use waku_poseidon::poseidon1;

use crate::gas::{
    CALLDATA_BYTE, KECCAK_WORD, LOG, LOG_TOPIC, SLOAD, SSTORE_SET, SSTORE_UPDATE, TRANSFER,
};
use crate::types::{Address, Wei};

/// On-chain Poseidon hash cost (gas). Optimized EVM Poseidon implementations
/// land in the ~10k range, which reproduces Semaphore-style insertion costs
/// of a few hundred thousand gas at depth 20.
pub const POSEIDON_GAS: u64 = 10_000;

/// Which storage layout the contract uses.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ContractKind {
    /// Flat ordered list of commitments (the paper's design).
    FlatList,
    /// Full incremental Merkle tree on-chain (Semaphore baseline).
    OnChainTree,
}

/// Errors a contract call can revert with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContractError {
    /// The transferred value does not match the required deposit.
    WrongDeposit,
    /// No active member with that commitment/index.
    UnknownMember,
    /// Caller does not own the membership.
    NotOwner,
    /// The revealed key does not match any commitment.
    InvalidReveal,
    /// Reveal without (or before maturity of) a matching commit.
    CommitNotFound,
    /// Reveal in the same block as the commit.
    CommitTooRecent,
    /// Membership set is full.
    TreeFull,
    /// This commitment is already registered.
    AlreadyRegistered,
}

impl std::fmt::Display for ContractError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ContractError::WrongDeposit => "wrong deposit amount",
            ContractError::UnknownMember => "unknown member",
            ContractError::NotOwner => "caller is not the member owner",
            ContractError::InvalidReveal => "revealed key matches no member",
            ContractError::CommitNotFound => "no matching commitment",
            ContractError::CommitTooRecent => "commit must age one block",
            ContractError::TreeFull => "membership set full",
            ContractError::AlreadyRegistered => "commitment already registered",
        };
        f.write_str(s)
    }
}

impl std::error::Error for ContractError {}

/// Events emitted by the contract — peers sync their off-chain trees from
/// these (paper §III-C, Figure 2).
#[derive(Clone, Debug, PartialEq)]
pub enum ContractEvent {
    /// A commitment was inserted at `index`.
    MemberRegistered {
        /// Leaf index in the (off-chain) tree.
        index: u64,
        /// The identity commitment.
        commitment: Fr,
    },
    /// The member at `index` was removed (slashed or withdrawn).
    MemberRemoved {
        /// Leaf index.
        index: u64,
        /// The removed commitment.
        commitment: Fr,
    },
    /// A slashing commitment was stored (commit-reveal phase 1).
    SlashCommitted {
        /// The commitment hash.
        hash: [u8; 32],
    },
    /// A spammer was slashed; `beneficiary` received `reward`.
    Slashed {
        /// Removed member index.
        index: u64,
        /// Reward recipient.
        beneficiary: Address,
        /// Reward amount (the spammer's deposit).
        reward: Wei,
    },
    /// A member withdrew their stake.
    Withdrawn {
        /// Removed member index.
        index: u64,
        /// Refund amount.
        refund: Wei,
    },
}

#[derive(Clone, Debug)]
struct MemberRecord {
    commitment: Fr,
    owner: Address,
    deposit: Wei,
    active: bool,
}

/// Computes the commit-reveal commitment
/// `keccak256(sk ‖ beneficiary ‖ salt)`.
pub fn slash_commitment_hash(secret: Fr, beneficiary: Address, salt: &[u8; 32]) -> [u8; 32] {
    let mut data = Vec::with_capacity(32 + 20 + 32);
    data.extend_from_slice(&secret.to_le_bytes());
    data.extend_from_slice(&beneficiary.0);
    data.extend_from_slice(salt);
    keccak256(&data)
}

/// The membership contract state.
#[derive(Clone, Debug)]
pub struct MembershipContract {
    kind: ContractKind,
    deposit_required: Wei,
    members: Vec<MemberRecord>,
    index_of: HashMap<[u8; 32], u64>,
    commits: HashMap<[u8; 32], (Address, u64)>,
    escrow: Wei,
    tree_depth: usize,
    /// Only materialized for [`ContractKind::OnChainTree`].
    tree: Option<DenseTree>,
}

impl MembershipContract {
    /// Deploys a contract.
    pub fn new(kind: ContractKind, deposit_required: Wei, tree_depth: usize) -> Self {
        let tree = match kind {
            ContractKind::FlatList => None,
            ContractKind::OnChainTree => Some(DenseTree::new(tree_depth)),
        };
        MembershipContract {
            kind,
            deposit_required,
            members: Vec::new(),
            index_of: HashMap::new(),
            commits: HashMap::new(),
            escrow: 0,
            tree_depth,
            tree,
        }
    }

    /// The storage design in use.
    pub fn kind(&self) -> ContractKind {
        self.kind
    }

    /// Total value held in escrow.
    pub fn escrow(&self) -> Wei {
        self.escrow
    }

    /// Number of registration slots used (including removed members).
    pub fn len(&self) -> u64 {
        self.members.len() as u64
    }

    /// True when nobody ever registered.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The ordered commitment list (zero = removed), exactly what peers
    /// replay to build their off-chain trees.
    pub fn commitments(&self) -> Vec<Fr> {
        self.members
            .iter()
            .map(|m| if m.active { m.commitment } else { Fr::zero() })
            .collect()
    }

    /// Active commitment at an index, if any.
    pub fn member_at(&self, index: u64) -> Option<Fr> {
        self.members
            .get(index as usize)
            .filter(|m| m.active)
            .map(|m| m.commitment)
    }

    /// On-chain root (only for [`ContractKind::OnChainTree`]).
    #[cfg(test)]
    fn on_chain_root(&self) -> Option<Fr> {
        self.tree.as_ref().map(|t| t.root())
    }

    /// O(depth) sloads + sstores + hashes for the on-chain design.
    fn tree_update_gas(&self) -> u64 {
        self.tree_depth as u64 * (SLOAD + SSTORE_UPDATE + POSEIDON_GAS)
    }

    /// Registers a commitment. Returns `(leaf index, gas, events)`.
    ///
    /// # Errors
    ///
    /// [`ContractError::WrongDeposit`], [`ContractError::AlreadyRegistered`],
    /// or [`ContractError::TreeFull`].
    pub fn register(
        &mut self,
        owner: Address,
        commitment: Fr,
        value: Wei,
    ) -> Result<(u64, u64, Vec<ContractEvent>), ContractError> {
        let mut gas = CALLDATA_BYTE * 32;
        if value != self.deposit_required {
            return Err(ContractError::WrongDeposit);
        }
        let key = commitment.to_le_bytes();
        if self.index_of.contains_key(&key) {
            return Err(ContractError::AlreadyRegistered);
        }
        if self.members.len() as u64 >= 1u64 << self.tree_depth {
            return Err(ContractError::TreeFull);
        }
        let index = self.members.len() as u64;
        // one slot for the commitment (the paper's single-item update)
        gas += SSTORE_SET;
        // deposit bookkeeping slot
        gas += SSTORE_UPDATE;
        if let Some(tree) = self.tree.as_mut() {
            tree.set(index, commitment);
        }
        if self.kind == ContractKind::OnChainTree {
            gas += self.tree_update_gas();
        }
        gas += LOG + 2 * LOG_TOPIC;
        self.members.push(MemberRecord {
            commitment,
            owner,
            deposit: value,
            active: true,
        });
        self.index_of.insert(key, index);
        self.escrow += value;
        Ok((
            index,
            gas,
            vec![ContractEvent::MemberRegistered { index, commitment }],
        ))
    }

    /// Batch registration (§IV-A cost optimization): one calldata charge,
    /// amortized bookkeeping.
    ///
    /// # Errors
    ///
    /// Same as [`MembershipContract::register`], for the first commitment
    /// that would fail (a duplicate within the batch is
    /// `AlreadyRegistered`). Every commitment is checked before the first
    /// write, so a failing batch changes nothing.
    pub fn register_batch(
        &mut self,
        owner: Address,
        commitments: &[Fr],
        value: Wei,
    ) -> Result<(Vec<u64>, u64, Vec<ContractEvent>), ContractError> {
        if value != self.deposit_required * commitments.len() as Wei {
            return Err(ContractError::WrongDeposit);
        }
        let mut batch = HashSet::with_capacity(commitments.len());
        for (i, c) in commitments.iter().enumerate() {
            let key = c.to_le_bytes();
            if self.index_of.contains_key(&key) || !batch.insert(key) {
                return Err(ContractError::AlreadyRegistered);
            }
            if (self.members.len() + i) as u64 >= 1u64 << self.tree_depth {
                return Err(ContractError::TreeFull);
            }
        }
        let mut total_gas = 0;
        let mut indices = Vec::with_capacity(commitments.len());
        let mut events = Vec::with_capacity(commitments.len());
        for c in commitments {
            let (i, gas, ev) = self
                .register(owner, *c, self.deposit_required)
                .expect("every commitment checked above");
            indices.push(i);
            total_gas += gas;
            events.extend(ev);
        }
        Ok((indices, total_gas, events))
    }

    fn remove_member(
        &mut self,
        index: u64,
        gas: &mut u64,
    ) -> Result<(MemberRecord, ContractEvent), ContractError> {
        let rec = self
            .members
            .get_mut(index as usize)
            .filter(|m| m.active)
            .ok_or(ContractError::UnknownMember)?;
        rec.active = false;
        let record = rec.clone();
        self.index_of.remove(&record.commitment.to_le_bytes());
        // zeroing the single list slot (the paper's O(1) deletion)
        *gas += SSTORE_UPDATE;
        if let Some(tree) = self.tree.as_mut() {
            tree.remove(index);
        }
        if self.kind == ContractKind::OnChainTree {
            *gas += self.tree_update_gas();
        }
        *gas += LOG + 2 * LOG_TOPIC;
        Ok((
            record.clone(),
            ContractEvent::MemberRemoved {
                index,
                commitment: record.commitment,
            },
        ))
    }

    /// Voluntary exit: refunds the deposit to the owner (the paper's
    /// "escaping punishment by early withdrawal" open problem relies on
    /// exactly this call).
    ///
    /// # Errors
    ///
    /// [`ContractError::UnknownMember`] or [`ContractError::NotOwner`].
    pub fn withdraw(
        &mut self,
        caller: Address,
        index: u64,
    ) -> Result<(Wei, u64, Vec<ContractEvent>), ContractError> {
        let mut gas = SLOAD;
        let rec = self
            .members
            .get(index as usize)
            .filter(|m| m.active)
            .ok_or(ContractError::UnknownMember)?;
        if rec.owner != caller {
            return Err(ContractError::NotOwner);
        }
        let (record, remove_event) = self.remove_member(index, &mut gas)?;
        gas += TRANSFER;
        self.escrow -= record.deposit;
        Ok((
            record.deposit,
            gas,
            vec![
                remove_event,
                ContractEvent::Withdrawn {
                    index,
                    refund: record.deposit,
                },
            ],
        ))
    }

    /// Phase 1 of commit-reveal slashing: store a hash commitment to the
    /// recovered key (paper §III-F, race-condition mitigation).
    pub fn slash_commit(
        &mut self,
        committer: Address,
        hash: [u8; 32],
        block: u64,
    ) -> (u64, Vec<ContractEvent>) {
        let gas = CALLDATA_BYTE * 32 + SSTORE_SET + LOG + LOG_TOPIC;
        self.commits.insert(hash, (committer, block));
        (gas, vec![ContractEvent::SlashCommitted { hash }])
    }

    /// Phase 2: open the commitment and claim the spammer's stake.
    ///
    /// # Errors
    ///
    /// [`ContractError::CommitNotFound`] when no commit matches the opening
    /// or the committer differs; [`ContractError::CommitTooRecent`] when the
    /// reveal lands in the commit's own block (front-running window);
    /// [`ContractError::InvalidReveal`] when `H(sk)` matches no member.
    #[allow(clippy::too_many_arguments)]
    pub fn slash_reveal(
        &mut self,
        caller: Address,
        secret: Fr,
        salt: &[u8; 32],
        beneficiary: Address,
        block: u64,
    ) -> Result<(Wei, u64, Vec<ContractEvent>), ContractError> {
        let gas = CALLDATA_BYTE * 84 + KECCAK_WORD * 3 + SLOAD;
        let hash = slash_commitment_hash(secret, beneficiary, salt);
        let (committer, commit_block) = *self
            .commits
            .get(&hash)
            .ok_or(ContractError::CommitNotFound)?;
        if committer != caller {
            return Err(ContractError::CommitNotFound);
        }
        if block <= commit_block {
            return Err(ContractError::CommitTooRecent);
        }
        // A reveal that reverts keeps its commit, as an EVM revert would.
        let slashed = self.slash_inner(secret, beneficiary, gas)?;
        self.commits.remove(&hash);
        Ok(slashed)
    }

    /// Plain (race-prone) slashing: submit the recovered key directly.
    /// Kept for the §III-F race-condition experiment.
    ///
    /// # Errors
    ///
    /// [`ContractError::InvalidReveal`] when `H(sk)` matches no member.
    pub fn slash_plain(
        &mut self,
        secret: Fr,
        beneficiary: Address,
    ) -> Result<(Wei, u64, Vec<ContractEvent>), ContractError> {
        self.slash_inner(secret, beneficiary, CALLDATA_BYTE * 52)
    }

    fn slash_inner(
        &mut self,
        secret: Fr,
        beneficiary: Address,
        mut gas: u64,
    ) -> Result<(Wei, u64, Vec<ContractEvent>), ContractError> {
        // pk = H(sk) on-chain
        gas += POSEIDON_GAS;
        let commitment = poseidon1(secret);
        gas += SLOAD;
        let index = *self
            .index_of
            .get(&commitment.to_le_bytes())
            .ok_or(ContractError::InvalidReveal)?;
        let (record, remove_event) = self.remove_member(index, &mut gas)?;
        gas += TRANSFER;
        self.escrow -= record.deposit;
        Ok((
            record.deposit,
            gas,
            vec![
                remove_event,
                ContractEvent::Slashed {
                    index,
                    beneficiary,
                    reward: record.deposit,
                },
            ],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ETHER;

    fn contract(kind: ContractKind) -> MembershipContract {
        MembershipContract::new(kind, ETHER, 8)
    }

    #[test]
    fn register_and_lookup() {
        let mut c = contract(ContractKind::FlatList);
        let alice = Address::from_seed(b"alice");
        let (idx, gas, events) = c.register(alice, Fr::from_u64(42), ETHER).unwrap();
        assert_eq!(idx, 0);
        assert!(gas > 20_000, "registration pays at least one SSTORE: {gas}");
        assert_eq!(events.len(), 1);
        assert_eq!(c.member_at(0), Some(Fr::from_u64(42)));
        assert_eq!(c.escrow(), ETHER);
    }

    #[test]
    fn wrong_deposit_rejected() {
        let mut c = contract(ContractKind::FlatList);
        let err = c.register(Address::zero(), Fr::from_u64(1), ETHER / 2);
        assert_eq!(err.unwrap_err(), ContractError::WrongDeposit);
    }

    #[test]
    fn duplicate_commitment_rejected() {
        let mut c = contract(ContractKind::FlatList);
        c.register(Address::zero(), Fr::from_u64(1), ETHER).unwrap();
        assert_eq!(
            c.register(Address::zero(), Fr::from_u64(1), ETHER)
                .unwrap_err(),
            ContractError::AlreadyRegistered
        );
    }

    #[test]
    fn flat_list_gas_is_constant_in_membership_size() {
        let mut c = contract(ContractKind::FlatList);
        let (_, gas_first, _) = c.register(Address::zero(), Fr::from_u64(1), ETHER).unwrap();
        for i in 2..50u64 {
            c.register(Address::zero(), Fr::from_u64(i), ETHER).unwrap();
        }
        let (_, gas_last, _) = c
            .register(Address::zero(), Fr::from_u64(999), ETHER)
            .unwrap();
        assert_eq!(gas_first, gas_last, "O(1) insertion (paper §III-A)");
    }

    #[test]
    fn on_chain_tree_costs_more() {
        let mut flat = contract(ContractKind::FlatList);
        let mut tree = contract(ContractKind::OnChainTree);
        let (_, gas_flat, _) = flat
            .register(Address::zero(), Fr::from_u64(1), ETHER)
            .unwrap();
        let (_, gas_tree, _) = tree
            .register(Address::zero(), Fr::from_u64(1), ETHER)
            .unwrap();
        assert!(
            gas_tree > 5 * gas_flat,
            "Semaphore-style insertion is O(depth): {gas_tree} vs {gas_flat}"
        );
    }

    #[test]
    fn batch_amortizes() {
        let mut c = contract(ContractKind::FlatList);
        let commitments: Vec<Fr> = (1..=10).map(Fr::from_u64).collect();
        let (indices, gas, events) = c
            .register_batch(Address::zero(), &commitments, 10 * ETHER)
            .unwrap();
        assert_eq!(indices, (0..10).collect::<Vec<_>>());
        assert_eq!(events.len(), 10);
        // per-member contract gas identical to singles, but a single tx base
        // is paid once at the chain layer (see chain.rs receipts).
        assert!(gas > 0);
    }

    #[test]
    fn batch_reverts_atomically() {
        let mut c = contract(ContractKind::FlatList);
        c.register(Address::zero(), Fr::from_u64(5), ETHER).unwrap();
        let batch = vec![Fr::from_u64(6), Fr::from_u64(5)]; // second dupes
        let err = c.register_batch(Address::zero(), &batch, 2 * ETHER);
        assert_eq!(err.unwrap_err(), ContractError::AlreadyRegistered);
        assert_eq!(c.len(), 1, "no partial batch applied");
        assert_eq!(c.escrow(), ETHER);
    }

    #[test]
    fn withdraw_refunds_owner_only() {
        let mut c = contract(ContractKind::FlatList);
        let alice = Address::from_seed(b"alice");
        let mallory = Address::from_seed(b"mallory");
        let (idx, _, _) = c.register(alice, Fr::from_u64(7), ETHER).unwrap();
        assert_eq!(
            c.withdraw(mallory, idx).unwrap_err(),
            ContractError::NotOwner
        );
        let (refund, _, events) = c.withdraw(alice, idx).unwrap();
        assert_eq!(refund, ETHER);
        assert_eq!(c.escrow(), 0);
        assert!(matches!(events[1], ContractEvent::Withdrawn { .. }));
        assert_eq!(c.member_at(idx), None);
    }

    #[test]
    fn plain_slash_transfers_stake() {
        let mut c = contract(ContractKind::FlatList);
        let spammer_sk = Fr::from_u64(1234);
        let pk = poseidon1(spammer_sk);
        c.register(Address::from_seed(b"spammer"), pk, ETHER)
            .unwrap();
        let slasher = Address::from_seed(b"slasher");
        let (reward, _, events) = c.slash_plain(spammer_sk, slasher).unwrap();
        assert_eq!(reward, ETHER);
        assert!(matches!(events[1], ContractEvent::Slashed { .. }));
        assert_eq!(c.member_at(0), None, "spammer removed from the group");
    }

    #[test]
    fn slash_unknown_key_fails() {
        let mut c = contract(ContractKind::FlatList);
        assert_eq!(
            c.slash_plain(Fr::from_u64(9), Address::zero()).unwrap_err(),
            ContractError::InvalidReveal
        );
    }

    #[test]
    fn commit_reveal_flow() {
        let mut c = contract(ContractKind::FlatList);
        let sk = Fr::from_u64(77);
        c.register(Address::zero(), poseidon1(sk), ETHER).unwrap();
        let slasher = Address::from_seed(b"slasher");
        let salt = [9u8; 32];
        let hash = slash_commitment_hash(sk, slasher, &salt);
        let (_, _) = c.slash_commit(slasher, hash, 10);
        // same block: too recent
        assert_eq!(
            c.slash_reveal(slasher, sk, &salt, slasher, 10).unwrap_err(),
            ContractError::CommitTooRecent
        );
        // next block: succeeds
        let (reward, _, _) = c.slash_reveal(slasher, sk, &salt, slasher, 11).unwrap();
        assert_eq!(reward, ETHER);
    }

    #[test]
    fn reveal_by_non_committer_fails() {
        let mut c = contract(ContractKind::FlatList);
        let sk = Fr::from_u64(88);
        c.register(Address::zero(), poseidon1(sk), ETHER).unwrap();
        let honest = Address::from_seed(b"honest");
        let thief = Address::from_seed(b"thief");
        let salt = [1u8; 32];
        let hash = slash_commitment_hash(sk, honest, &salt);
        c.slash_commit(honest, hash, 5);
        // The thief copies the opening from the mempool but has no commit.
        assert_eq!(
            c.slash_reveal(thief, sk, &salt, honest, 6).unwrap_err(),
            ContractError::CommitNotFound
        );
        // Changing the beneficiary changes the hash — still no commit.
        assert_eq!(
            c.slash_reveal(thief, sk, &salt, thief, 6).unwrap_err(),
            ContractError::CommitNotFound
        );
    }

    /// A reveal that matches no member reverts and keeps its commit: the
    /// member registers and the same opening then slashes.
    #[test]
    fn failed_reveal_keeps_its_commit() {
        let mut c = contract(ContractKind::FlatList);
        let sk = Fr::from_u64(99);
        let slasher = Address::from_seed(b"slasher");
        let salt = [4u8; 32];
        c.slash_commit(slasher, slash_commitment_hash(sk, slasher, &salt), 3);
        assert_eq!(
            c.slash_reveal(slasher, sk, &salt, slasher, 4).unwrap_err(),
            ContractError::InvalidReveal
        );
        c.register(Address::zero(), poseidon1(sk), ETHER).unwrap();
        let (reward, _, events) = c.slash_reveal(slasher, sk, &salt, slasher, 5).unwrap();
        assert_eq!(reward, ETHER);
        assert!(matches!(events[1], ContractEvent::Slashed { .. }));
    }

    #[test]
    fn batch_checks_duplicates_and_capacity_before_writing() {
        let mut c = MembershipContract::new(ContractKind::OnChainTree, ETHER, 2);
        let root = c.on_chain_root();
        let dup = [Fr::from_u64(1), Fr::from_u64(2), Fr::from_u64(1)];
        assert_eq!(
            c.register_batch(Address::zero(), &dup, 3 * ETHER)
                .unwrap_err(),
            ContractError::AlreadyRegistered
        );
        let five: Vec<Fr> = (1..=5).map(Fr::from_u64).collect();
        assert_eq!(
            c.register_batch(Address::zero(), &five, 5 * ETHER)
                .unwrap_err(),
            ContractError::TreeFull
        );
        assert_eq!((c.len(), c.escrow(), c.on_chain_root()), (0, 0, root));
        let (indices, _, _) = c
            .register_batch(Address::zero(), &five[..4], 4 * ETHER)
            .unwrap();
        assert_eq!(indices, vec![0, 1, 2, 3]);
    }

    #[test]
    fn on_chain_tree_root_tracks_members() {
        let mut c = contract(ContractKind::OnChainTree);
        let empty_root = c.on_chain_root().unwrap();
        c.register(Address::zero(), Fr::from_u64(3), ETHER).unwrap();
        assert_ne!(c.on_chain_root().unwrap(), empty_root);
        assert!(contract(ContractKind::FlatList).on_chain_root().is_none());
    }
}
