//! # waku-chain
//!
//! A deterministic simulated Ethereum hosting the RLN membership contract
//! (paper §III-B). WAKU-RLN-RELAY interacts with the blockchain through
//! exactly three observable behaviours, all modelled here:
//!
//! 1. **Cost** — per-transaction gas with a mainnet-like schedule, so
//!    §IV-A's "40k gas / >$20 per membership, 20k batched" analysis
//!    reproduces (see [`gas`]).
//! 2. **Latency** — transactions are invisible until mined; a block is
//!    mined every 12 s of chain time (registration delay, §IV-A).
//! 3. **Events** — peers replay `MemberRegistered` / `MemberRemoved` logs
//!    to maintain their off-chain identity trees (§III-C, Figure 2).
//!
//! Both membership-contract designs are implemented for the paper's
//! comparison: the flat ordered list (the paper's contribution, O(1)
//! insert/delete) and the Semaphore-style on-chain tree (O(depth)).
//! Slashing supports plain submission *and* the commit-reveal scheme, so
//! the §III-F front-running race is demonstrable (see `chain.rs` tests).

pub mod chain;
pub mod gas;
pub mod membership;
pub mod types;

pub use chain::{Chain, ChainConfig, PendingTx, Receipt, TxKind, DEPOSIT};
pub use gas::gas_to_usd;
pub use membership::{
    slash_commitment_hash, ContractError, ContractEvent, ContractKind, MembershipContract,
};
pub use types::{Address, TxHash, Wei, ETHER, GWEI};
