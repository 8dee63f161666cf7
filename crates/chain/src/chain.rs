//! A minimal simulated Ethereum: accounts, a gas-price-ordered mempool,
//! a block height that advances on a fixed 12 s cadence, the receipts of
//! every mined transaction, one log of the contract events tagged with
//! their block, and the membership contract deployed at height 0. No
//! block is stored: mining an empty mempool only bumps the height.
//!
//! Fidelity targets (what the paper's protocol actually observes, §III-B,
//! §IV-A):
//!
//! * registrations are invisible until mined → registration latency,
//! * mempool contents are public and miners order by gas price →
//!   the slashing front-running race of §III-F is reproducible,
//! * per-transaction gas with a mainnet-like schedule → cost analysis.

use std::collections::HashMap;

use waku_arith::fields::Fr;
use waku_hash::keccak256;

use crate::gas::TX_BASE;
use crate::membership::{ContractError, ContractEvent, ContractKind, MembershipContract};
use crate::types::{Address, TxHash, Wei, ETHER, GWEI};

/// Seconds between blocks (mainnet ≈ 12–14 s).
const BLOCK_TIME_SECS: u64 = 12;

/// Registration deposit `v`.
pub const DEPOSIT: Wei = ETHER;

/// Chain construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct ChainConfig {
    /// Membership contract storage design.
    pub contract: ContractKind,
    /// Identity tree depth (paper evaluates depth 20).
    pub tree_depth: usize,
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig {
            contract: ContractKind::FlatList,
            tree_depth: 20,
        }
    }
}

/// A transaction request.
#[derive(Clone, Debug)]
pub enum TxKind {
    /// Register one identity commitment (carries the deposit).
    Register {
        /// The identity commitment `pk`.
        commitment: Fr,
    },
    /// Register a batch (carries deposit × batch size).
    RegisterBatch {
        /// The commitments to insert.
        commitments: Vec<Fr>,
    },
    /// Withdraw membership `index`'s stake.
    Withdraw {
        /// The member index.
        index: u64,
    },
    /// Commit-reveal slashing, phase 1.
    SlashCommit {
        /// `keccak256(sk ‖ beneficiary ‖ salt)`.
        hash: [u8; 32],
    },
    /// Commit-reveal slashing, phase 2.
    SlashReveal {
        /// The recovered identity secret key.
        secret: Fr,
        /// Salt used in the commitment.
        salt: [u8; 32],
        /// Reward recipient.
        beneficiary: Address,
    },
    /// Race-prone direct slashing (no commit) — the §III-F anti-pattern.
    SlashPlain {
        /// The recovered identity secret key.
        secret: Fr,
        /// Reward recipient.
        beneficiary: Address,
    },
}

/// A transaction waiting in (or mined from) the mempool.
#[derive(Clone, Debug)]
pub struct PendingTx {
    /// Transaction hash.
    pub hash: TxHash,
    /// Sender.
    pub from: Address,
    /// Payload.
    pub kind: TxKind,
    /// Gas price in gwei (miners order descending).
    pub gas_price_gwei: u64,
    /// Arrival sequence number (tie-break).
    pub seq: u64,
}

/// Execution result of one mined transaction. Its events are in the
/// chain's event log ([`Chain::events_in_range`]).
#[derive(Clone, Debug)]
pub struct Receipt {
    /// Transaction hash.
    pub tx: TxHash,
    /// Block number it landed in.
    pub block: u64,
    /// Whether execution succeeded.
    pub success: bool,
    /// Total gas (tx base + contract execution).
    pub gas_used: u64,
    /// Revert reason on failure.
    pub error: Option<ContractError>,
}

/// The simulated chain.
#[derive(Clone, Debug)]
pub struct Chain {
    config: ChainConfig,
    balances: HashMap<Address, Wei>,
    contract: MembershipContract,
    mempool: Vec<PendingTx>,
    height: u64,
    /// Every mined transaction's receipt, in execution order.
    receipts: Vec<Receipt>,
    /// Every emitted event with its block, in execution order (so sorted
    /// by block).
    events: Vec<(u64, ContractEvent)>,
    next_seq: u64,
}

impl Chain {
    /// Creates a chain at height 0 with the membership contract deployed.
    pub fn new(config: ChainConfig) -> Self {
        let contract = MembershipContract::new(config.contract, DEPOSIT, config.tree_depth);
        Chain {
            config,
            balances: HashMap::new(),
            contract,
            mempool: Vec::new(),
            height: 0,
            receipts: Vec::new(),
            events: Vec::new(),
            next_seq: 0,
        }
    }

    /// The chain configuration.
    pub fn config(&self) -> &ChainConfig {
        &self.config
    }

    /// Funds (or creates) an account.
    pub fn fund(&mut self, addr: Address, amount: Wei) {
        *self.balances.entry(addr).or_insert(0) += amount;
    }

    /// Account balance.
    pub fn balance(&self, addr: Address) -> Wei {
        self.balances.get(&addr).copied().unwrap_or(0)
    }

    /// Read-only access to the membership contract.
    pub fn contract(&self) -> &MembershipContract {
        &self.contract
    }

    /// Current block height.
    pub fn height(&self) -> u64 {
        self.height
    }

    /// Timestamp of the latest block (0 at height 0, then 12 s a block).
    pub fn timestamp(&self) -> u64 {
        self.height * BLOCK_TIME_SECS
    }

    /// The public mempool — anyone (including front-runners) can watch it.
    pub fn mempool(&self) -> &[PendingTx] {
        &self.mempool
    }

    /// Submits a transaction; returns its hash. Nothing executes until
    /// [`Chain::mine_block`].
    pub fn submit(&mut self, from: Address, kind: TxKind, gas_price_gwei: u64) -> TxHash {
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut seed = Vec::new();
        seed.extend_from_slice(&from.0);
        seed.extend_from_slice(&seq.to_le_bytes());
        let hash = TxHash(keccak256(&seed));
        self.mempool.push(PendingTx {
            hash,
            from,
            kind,
            gas_price_gwei,
            seq,
        });
        hash
    }

    /// Mines one block: drains the mempool in gas-price order (descending,
    /// FIFO tie-break) and executes every transaction.
    pub fn mine_block(&mut self) {
        let mut txs = std::mem::take(&mut self.mempool);
        txs.sort_by(|a, b| {
            b.gas_price_gwei
                .cmp(&a.gas_price_gwei)
                .then(a.seq.cmp(&b.seq))
        });
        self.height += 1;
        for tx in txs {
            let receipt = self.execute(tx, self.height);
            self.receipts.push(receipt);
        }
    }

    /// Mines `n` blocks.
    pub fn mine_blocks(&mut self, n: u64) {
        for _ in 0..n {
            self.mine_block();
        }
    }

    fn execute(&mut self, tx: PendingTx, block: u64) -> Receipt {
        let result: Result<(u64, Vec<ContractEvent>), ContractError> = match &tx.kind {
            TxKind::Register { commitment } => {
                let needed = DEPOSIT;
                if self.balance(tx.from) < needed {
                    Err(ContractError::WrongDeposit)
                } else {
                    self.contract
                        .register(tx.from, *commitment, needed)
                        .map(|(_, gas, ev)| {
                            *self.balances.get_mut(&tx.from).expect("funded") -= needed;
                            (gas, ev)
                        })
                }
            }
            TxKind::RegisterBatch { commitments } => {
                let needed = DEPOSIT * commitments.len() as Wei;
                if self.balance(tx.from) < needed {
                    Err(ContractError::WrongDeposit)
                } else {
                    self.contract
                        .register_batch(tx.from, commitments, needed)
                        .map(|(_, gas, ev)| {
                            *self.balances.get_mut(&tx.from).expect("funded") -= needed;
                            (gas, ev)
                        })
                }
            }
            TxKind::Withdraw { index } => {
                self.contract
                    .withdraw(tx.from, *index)
                    .map(|(refund, gas, ev)| {
                        *self.balances.entry(tx.from).or_insert(0) += refund;
                        (gas, ev)
                    })
            }
            TxKind::SlashCommit { hash } => {
                let (gas, ev) = self.contract.slash_commit(tx.from, *hash, block);
                Ok((gas, ev))
            }
            TxKind::SlashReveal {
                secret,
                salt,
                beneficiary,
            } => self
                .contract
                .slash_reveal(tx.from, *secret, salt, *beneficiary, block)
                .map(|(reward, gas, ev)| {
                    *self.balances.entry(*beneficiary).or_insert(0) += reward;
                    (gas, ev)
                }),
            TxKind::SlashPlain {
                secret,
                beneficiary,
            } => self
                .contract
                .slash_plain(*secret, *beneficiary)
                .map(|(reward, gas, ev)| {
                    *self.balances.entry(*beneficiary).or_insert(0) += reward;
                    (gas, ev)
                }),
        };

        let (success, gas_used, error) = match result {
            Ok((gas, ev)) => {
                self.events.extend(ev.into_iter().map(|e| (block, e)));
                (true, TX_BASE + gas, None)
            }
            Err(e) => (false, TX_BASE, Some(e)),
        };
        // Gas fee: deducted if affordable (simulation keeps balances sane).
        let fee = gas_used as Wei * tx.gas_price_gwei as Wei * GWEI;
        let bal = self.balances.entry(tx.from).or_insert(0);
        *bal = bal.saturating_sub(fee);
        Receipt {
            tx: tx.hash,
            block,
            success,
            gas_used,
            error,
        }
    }

    /// Receipt lookup by transaction hash.
    pub fn receipt(&self, hash: TxHash) -> Option<&Receipt> {
        self.receipts.iter().find(|r| r.tx == hash)
    }

    /// All contract events in blocks `from_block..=to_block` (inclusive),
    /// in execution order — what peers replay to sync their trees
    /// (paper §III-C). Empty when `from_block > to_block`.
    pub fn events_in_range(&self, from_block: u64, to_block: u64) -> Vec<(u64, ContractEvent)> {
        let start = self.events.partition_point(|(b, _)| *b < from_block);
        self.events[start..]
            .iter()
            .take_while(|(b, _)| *b <= to_block)
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::slash_commitment_hash;
    use crate::types::ETHER;
    use waku_arith::traits::PrimeField;
    use waku_poseidon::poseidon1;

    fn funded_chain() -> (Chain, Address) {
        let mut chain = Chain::new(ChainConfig {
            tree_depth: 8,
            ..ChainConfig::default()
        });
        let user = Address::from_seed(b"user");
        chain.fund(user, 100 * ETHER);
        (chain, user)
    }

    #[test]
    fn registration_needs_mining() {
        let (mut chain, user) = funded_chain();
        let tx = chain.submit(
            user,
            TxKind::Register {
                commitment: Fr::from_u64(7),
            },
            100,
        );
        assert!(chain.receipt(tx).is_none(), "not visible before mining");
        assert!(chain.contract().is_empty());
        chain.mine_block();
        let receipt = chain.receipt(tx).unwrap();
        assert!(receipt.success);
        assert_eq!(chain.contract().member_at(0), Some(Fr::from_u64(7)));
        // §IV-A: peers wait for mining before they can publish.
        assert_eq!(receipt.block, 1);
    }

    #[test]
    fn registration_gas_matches_paper_ballpark() {
        let (mut chain, user) = funded_chain();
        let tx = chain.submit(
            user,
            TxKind::Register {
                commitment: Fr::from_u64(1),
            },
            100,
        );
        chain.mine_block();
        let gas = chain.receipt(tx).unwrap().gas_used;
        // §IV-A reports ≈40k gas for membership.
        assert!((38_000..50_000).contains(&gas), "gas = {gas}");
    }

    #[test]
    fn batch_registration_amortizes_base_cost() {
        let (mut chain, user) = funded_chain();
        let singles: Vec<TxHash> = (0..10)
            .map(|i| {
                chain.submit(
                    user,
                    TxKind::Register {
                        commitment: Fr::from_u64(100 + i),
                    },
                    100,
                )
            })
            .collect();
        chain.mine_block();
        let single_total: u64 = singles
            .iter()
            .map(|tx| chain.receipt(*tx).unwrap().gas_used)
            .sum();

        let batch = chain.submit(
            user,
            TxKind::RegisterBatch {
                commitments: (0..10).map(|i| Fr::from_u64(200 + i)).collect(),
            },
            100,
        );
        chain.mine_block();
        let batch_total = chain.receipt(batch).unwrap().gas_used;
        assert!(
            batch_total < single_total,
            "batching must amortize: {batch_total} vs {single_total}"
        );
    }

    #[test]
    fn deposit_moves_to_escrow_and_back() {
        let (mut chain, user) = funded_chain();
        chain.submit(
            user,
            TxKind::Register {
                commitment: Fr::from_u64(5),
            },
            0, // zero gas price: balance math is exact
        );
        chain.mine_block();
        assert_eq!(chain.balance(user), 99 * ETHER);
        assert_eq!(chain.contract().escrow(), ETHER);
        chain.submit(user, TxKind::Withdraw { index: 0 }, 0);
        chain.mine_block();
        assert_eq!(chain.balance(user), 100 * ETHER);
        assert_eq!(chain.contract().escrow(), 0);
    }

    #[test]
    fn slashing_rewards_the_beneficiary() {
        let (mut chain, user) = funded_chain();
        let sk = Fr::from_u64(4242);
        chain.submit(
            user,
            TxKind::Register {
                commitment: poseidon1(sk),
            },
            100,
        );
        chain.mine_block();
        let slasher = Address::from_seed(b"slasher");
        chain.fund(slasher, ETHER);
        chain.submit(
            slasher,
            TxKind::SlashPlain {
                secret: sk,
                beneficiary: slasher,
            },
            0,
        );
        chain.mine_block();
        assert_eq!(chain.balance(slasher), 2 * ETHER);
        assert_eq!(chain.contract().member_at(0), None);
    }

    #[test]
    fn front_running_steals_plain_slash() {
        // §III-F race: the honest slasher submits sk in plaintext; the
        // attacker copies it from the mempool with a higher gas price.
        let (mut chain, user) = funded_chain();
        let sk = Fr::from_u64(777);
        chain.submit(
            user,
            TxKind::Register {
                commitment: poseidon1(sk),
            },
            100,
        );
        chain.mine_block();

        let honest = Address::from_seed(b"honest");
        let attacker = Address::from_seed(b"attacker");
        chain.fund(honest, ETHER);
        chain.fund(attacker, ETHER);
        chain.submit(
            honest,
            TxKind::SlashPlain {
                secret: sk,
                beneficiary: honest,
            },
            50,
        );
        // Attacker watches the mempool, copies the secret, outbids.
        let observed = match &chain.mempool()[0].kind {
            TxKind::SlashPlain { secret, .. } => *secret,
            _ => unreachable!(),
        };
        chain.submit(
            attacker,
            TxKind::SlashPlain {
                secret: observed,
                beneficiary: attacker,
            },
            500,
        );
        chain.mine_block();
        assert!(
            chain.balance(attacker) > ETHER + ETHER / 2,
            "attacker wins the race (reward minus gas): {}",
            chain.balance(attacker)
        );
        assert!(
            chain.balance(honest) < ETHER,
            "honest slasher burned gas for nothing"
        );
    }

    #[test]
    fn commit_reveal_defeats_front_running() {
        let (mut chain, user) = funded_chain();
        let sk = Fr::from_u64(888);
        chain.submit(
            user,
            TxKind::Register {
                commitment: poseidon1(sk),
            },
            100,
        );
        chain.mine_block();

        let honest = Address::from_seed(b"honest");
        let attacker = Address::from_seed(b"attacker");
        chain.fund(honest, ETHER);
        chain.fund(attacker, ETHER);
        let salt = [3u8; 32];
        let hash = slash_commitment_hash(sk, honest, &salt);
        chain.submit(honest, TxKind::SlashCommit { hash }, 50);
        chain.mine_block(); // commit matures

        chain.submit(
            honest,
            TxKind::SlashReveal {
                secret: sk,
                salt,
                beneficiary: honest,
            },
            50,
        );
        // Attacker copies the reveal and outbids — but has no mature commit.
        chain.submit(
            attacker,
            TxKind::SlashReveal {
                secret: sk,
                salt,
                beneficiary: attacker,
            },
            500,
        );
        chain.mine_block();
        assert!(chain.balance(honest) > ETHER, "honest slasher rewarded");
        assert!(chain.balance(attacker) < ETHER, "front-runner reverted");
    }

    #[test]
    fn events_enable_tree_sync() {
        let (mut chain, user) = funded_chain();
        for i in 0..3u64 {
            chain.submit(
                user,
                TxKind::Register {
                    commitment: Fr::from_u64(10 + i),
                },
                100,
            );
            chain.mine_block();
        }
        let events = chain.events_in_range(1, chain.height());
        assert_eq!(events.len(), 3);
        assert!(matches!(
            events[0].1,
            ContractEvent::MemberRegistered { index: 0, .. }
        ));
    }

    /// A seeded history of single and batched registrations, commit-reveal
    /// slashes, withdrawals and reverting transactions, with runs of empty
    /// blocks: every range read is the concatenation of its single-block
    /// reads, and every receipt names the block it was mined in.
    #[test]
    fn range_reads_are_concatenated_single_block_reads() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let (mut chain, user) = funded_chain();
        let mut rng = StdRng::seed_from_u64(48);
        let mut next_sk = 1u64;
        let mut commits: Vec<(Fr, [u8; 32])> = Vec::new();
        let mut mined_at: Vec<(TxHash, u64)> = Vec::new();
        for _ in 0..60 {
            let mut txs: Vec<TxHash> = commits
                .drain(..)
                .map(|(secret, salt)| {
                    let reveal = TxKind::SlashReveal {
                        secret,
                        salt,
                        beneficiary: user,
                    };
                    chain.submit(user, reveal, 100)
                })
                .collect();
            for _ in 0..rng.gen_range(0..4u64) {
                let kind = match rng.gen_range(0..5u64) {
                    0 => {
                        next_sk += 1;
                        TxKind::Register {
                            commitment: poseidon1(Fr::from_u64(next_sk - 1)),
                        }
                    }
                    1 => {
                        let n = rng.gen_range(1..4u64);
                        next_sk += n;
                        TxKind::RegisterBatch {
                            commitments: (next_sk - n..next_sk)
                                .map(|sk| poseidon1(Fr::from_u64(sk)))
                                .collect(),
                        }
                    }
                    // Some target sk 0 (never registered) or an already
                    // removed member and revert.
                    2 => {
                        let secret = Fr::from_u64(rng.gen_range(0..next_sk));
                        let salt = [rng.gen_range(0..=255u8); 32];
                        commits.push((secret, salt));
                        TxKind::SlashCommit {
                            hash: slash_commitment_hash(secret, user, &salt),
                        }
                    }
                    3 => TxKind::Withdraw {
                        index: rng.gen_range(0..next_sk),
                    },
                    _ => TxKind::SlashReveal {
                        secret: Fr::from_u64(1),
                        salt: [0; 32],
                        beneficiary: user,
                    },
                };
                txs.push(chain.submit(user, kind, rng.gen_range(1..200u64)));
            }
            chain.mine_block();
            mined_at.extend(txs.into_iter().map(|tx| (tx, chain.height())));
            chain.mine_blocks(rng.gen_range(0..4u64));
        }

        for (tx, block) in &mined_at {
            assert_eq!(chain.receipt(*tx).expect("mined").block, *block);
        }
        assert!(mined_at
            .iter()
            .any(|(tx, _)| !chain.receipt(*tx).unwrap().success));

        let top = chain.height() + 1;
        let singles: Vec<Vec<(u64, ContractEvent)>> =
            (0..=top).map(|h| chain.events_in_range(h, h)).collect();
        // Every successful transaction emits an event; a reverted one none.
        for (h, events) in singles.iter().enumerate() {
            assert!(events.iter().all(|(block, _)| *block == h as u64));
            let succeeded = mined_at
                .iter()
                .any(|(tx, block)| *block == h as u64 && chain.receipt(*tx).unwrap().success);
            assert_eq!(events.is_empty(), !succeeded, "block {h}");
        }
        assert!(singles.iter().any(Vec::is_empty));
        // All five event kinds occur.
        let kinds: std::collections::HashSet<_> = singles
            .iter()
            .flatten()
            .map(|(_, e)| std::mem::discriminant(e))
            .collect();
        assert_eq!(kinds.len(), 5);
        for a in 0..=top {
            for b in 0..=top {
                let expected = if a <= b {
                    singles[a as usize..=b as usize].concat()
                } else {
                    Vec::new()
                };
                assert_eq!(chain.events_in_range(a, b), expected, "{a}..={b}");
            }
        }
    }

    #[test]
    fn failed_tx_still_burns_base_gas() {
        let (mut chain, user) = funded_chain();
        let tx = chain.submit(user, TxKind::Withdraw { index: 99 }, 100);
        chain.mine_block();
        let receipt = chain.receipt(tx).unwrap();
        assert!(!receipt.success);
        assert_eq!(receipt.gas_used, 21_000);
        assert_eq!(receipt.error, Some(ContractError::UnknownMember));
    }

    #[test]
    fn block_timestamps_advance() {
        let (mut chain, _) = funded_chain();
        chain.mine_blocks(5);
        assert_eq!(chain.height(), 5);
        assert_eq!(chain.timestamp(), 5 * BLOCK_TIME_SECS);
    }
}
