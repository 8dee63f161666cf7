//! The slashing client (paper §III-F): turns recovered spammer keys into
//! contract transactions, using commit-reveal by default so the reward
//! cannot be stolen by mempool front-runners.

use waku_arith::fields::Fr;
use waku_arith::traits::PrimeField;
use waku_chain::{slash_commitment_hash, Address, Chain, ContractEvent, TxKind, Wei};
use waku_hash::keccak256;

/// A slashing commitment submitted at `submitted_at`; its reveal goes out
/// once the commit has mined.
#[derive(Clone, Debug)]
struct Commit {
    /// The recovered key to reveal.
    secret: Fr,
    /// Commitment salt.
    salt: [u8; 32],
    /// Height when the commit was submitted.
    submitted_at: u64,
}

/// Tracks one peer's unrevealed slashing commits and collects its rewards.
#[derive(Clone, Debug)]
pub struct Slasher {
    address: Address,
    gas_price_gwei: u64,
    commit_reveal: bool,
    pending: Vec<Commit>,
    reveals_submitted: u64,
    last_reward_scan: u64,
}

impl Slasher {
    /// Creates a slasher for `address`.
    pub fn new(address: Address, gas_price_gwei: u64, commit_reveal: bool) -> Self {
        Slasher {
            address,
            gas_price_gwei,
            commit_reveal,
            pending: Vec::new(),
            reveals_submitted: 0,
            last_reward_scan: 0,
        }
    }

    /// Number of commits not yet revealed.
    #[cfg(test)]
    fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Starts a slashing flow for a recovered key.
    ///
    /// With commit-reveal (§III-F): submits the hash commitment now; the
    /// reveal goes out in [`Slasher::advance`] once the commit has mined.
    /// Without: submits the plaintext key immediately (race-prone).
    pub fn start(&mut self, secret: Fr, chain: &mut Chain) {
        if self.commit_reveal {
            // Deterministic per-(slasher, secret) salt: good enough for the
            // simulation and keeps runs reproducible.
            let mut seed = Vec::with_capacity(52);
            seed.extend_from_slice(&self.address.0);
            seed.extend_from_slice(&secret.to_le_bytes());
            let salt = keccak256(&seed);
            let hash = slash_commitment_hash(secret, self.address, &salt);
            chain.submit(
                self.address,
                TxKind::SlashCommit { hash },
                self.gas_price_gwei,
            );
            self.pending.push(Commit {
                secret,
                salt,
                submitted_at: chain.height(),
            });
        } else {
            chain.submit(
                self.address,
                TxKind::SlashPlain {
                    secret,
                    beneficiary: self.address,
                },
                self.gas_price_gwei,
            );
            self.reveals_submitted += 1;
        }
    }

    /// Submits reveals for matured commits and collects rewards from
    /// `Slashed` events. Returns the wei rewarded to this peer since the
    /// last call. A reveal that loses the race to another slasher reverts
    /// and earns nothing; nothing waits on it.
    pub fn advance(&mut self, chain: &mut Chain) -> Wei {
        let height = chain.height();
        self.pending.retain(|commit| {
            if height <= commit.submitted_at {
                return true;
            }
            chain.submit(
                self.address,
                TxKind::SlashReveal {
                    secret: commit.secret,
                    salt: commit.salt,
                    beneficiary: self.address,
                },
                self.gas_price_gwei,
            );
            self.reveals_submitted += 1;
            false
        });

        let events = chain.events_in_range(self.last_reward_scan + 1, height);
        self.last_reward_scan = height;
        events
            .into_iter()
            .map(|(_, event)| match event {
                ContractEvent::Slashed {
                    beneficiary,
                    reward,
                    ..
                } if beneficiary == self.address => reward,
                _ => 0,
            })
            .sum()
    }

    /// Returns and resets the count of reveals submitted (metrics hook).
    pub fn take_reveal_count(&mut self) -> u64 {
        std::mem::take(&mut self.reveals_submitted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waku_chain::{ChainConfig, ETHER};
    use waku_poseidon::poseidon1;

    fn chain_with_member(sk: u64) -> (Chain, Fr) {
        let mut chain = Chain::new(ChainConfig {
            tree_depth: 6,
            ..ChainConfig::default()
        });
        let owner = Address::from_seed(b"owner");
        chain.fund(owner, 10 * ETHER);
        let secret = Fr::from_u64(sk);
        chain.submit(
            owner,
            TxKind::Register {
                commitment: poseidon1(secret),
            },
            100,
        );
        chain.mine_block();
        (chain, secret)
    }

    #[test]
    fn commit_reveal_collects_reward() {
        let (mut chain, secret) = chain_with_member(42);
        let me = Address::from_seed(b"me");
        chain.fund(me, ETHER);
        let mut slasher = Slasher::new(me, 100, true);
        slasher.start(secret, &mut chain);
        assert_eq!(slasher.pending_count(), 1);
        assert_eq!(slasher.advance(&mut chain), 0, "commit not mined yet");
        chain.mine_block(); // commit lands
        assert_eq!(slasher.advance(&mut chain), 0, "reveal submitted");
        chain.mine_block(); // reveal lands
        let reward = slasher.advance(&mut chain);
        assert_eq!(reward, ETHER);
        assert_eq!(slasher.pending_count(), 0);
        assert_eq!(slasher.take_reveal_count(), 1);
        assert_eq!(slasher.take_reveal_count(), 0);
    }

    #[test]
    fn losing_a_reveal_race_leaves_nothing_pending() {
        let (mut chain, secret) = chain_with_member(44);
        let (a, b) = (Address::from_seed(b"first"), Address::from_seed(b"second"));
        let mut slashers = [Slasher::new(a, 100, true), Slasher::new(b, 100, true)];
        for (slasher, who) in slashers.iter_mut().zip([a, b]) {
            chain.fund(who, ETHER);
            slasher.start(secret, &mut chain);
        }
        chain.mine_block(); // both commits land
        for slasher in &mut slashers {
            assert_eq!(slasher.advance(&mut chain), 0);
        }
        let reveals: Vec<_> = chain.mempool().iter().map(|tx| tx.hash).collect();
        chain.mine_block(); // equal gas price: the first reveal wins
        let [winner, loser] = &mut slashers;
        assert_eq!(winner.advance(&mut chain), ETHER);
        assert_eq!(loser.advance(&mut chain), 0);
        assert!(chain.receipt(reveals[0]).unwrap().success);
        let lost = chain.receipt(reveals[1]).unwrap();
        assert!(!lost.success, "the loser's reveal reverts");
        assert_eq!(winner.pending_count(), 0);
        assert_eq!(loser.pending_count(), 0);
    }

    #[test]
    fn plain_mode_single_round_trip() {
        let (mut chain, secret) = chain_with_member(43);
        let me = Address::from_seed(b"me2");
        chain.fund(me, ETHER);
        let mut slasher = Slasher::new(me, 100, false);
        slasher.start(secret, &mut chain);
        chain.mine_block();
        let reward = slasher.advance(&mut chain);
        assert_eq!(reward, ETHER);
    }

    #[test]
    fn two_flows_independent() {
        let mut chain = Chain::new(ChainConfig {
            tree_depth: 6,
            ..ChainConfig::default()
        });
        let owner = Address::from_seed(b"owner");
        chain.fund(owner, 10 * ETHER);
        let s1 = Fr::from_u64(1);
        let s2 = Fr::from_u64(2);
        for s in [s1, s2] {
            chain.submit(
                owner,
                TxKind::Register {
                    commitment: poseidon1(s),
                },
                100,
            );
        }
        chain.mine_block();
        let me = Address::from_seed(b"me3");
        chain.fund(me, ETHER);
        let mut slasher = Slasher::new(me, 100, true);
        slasher.start(s1, &mut chain);
        slasher.start(s2, &mut chain);
        chain.mine_block();
        slasher.advance(&mut chain);
        chain.mine_block();
        let reward = slasher.advance(&mut chain);
        assert_eq!(reward, 2 * ETHER);
    }
}
