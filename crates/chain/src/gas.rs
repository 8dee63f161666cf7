//! Gas costs. The schedule mirrors Ethereum mainnet (EIP-2929-era values)
//! so the paper's cost analysis (§IV-A: registration ≈40k gas ≈ $20;
//! batched ≈20k) reproduces.

use crate::types::{Wei, GWEI};

/// Base cost of any transaction.
pub(crate) const TX_BASE: u64 = 21_000;
/// Writing a storage slot from zero to non-zero.
pub(crate) const SSTORE_SET: u64 = 20_000;
/// Updating a non-zero storage slot (including zeroing).
pub(crate) const SSTORE_UPDATE: u64 = 5_000;
/// Cold storage read.
pub(crate) const SLOAD: u64 = 2_100;
/// Emitting a log entry (plus per-topic cost).
pub(crate) const LOG: u64 = 375;
/// Per log topic.
pub(crate) const LOG_TOPIC: u64 = 375;
/// Per 32-byte word of hashing.
pub(crate) const KECCAK_WORD: u64 = 6;
/// Per byte of transaction calldata.
pub(crate) const CALLDATA_BYTE: u64 = 16;
/// Value transfer to an existing account.
pub(crate) const TRANSFER: u64 = 9_000;

/// Converts a gas amount into USD given a gas price and an ETH price —
/// for reproducing the paper's "more than 20 USD" per registration claim.
pub fn gas_to_usd(gas: u64, gas_price_gwei: u64, eth_usd: f64) -> f64 {
    let wei: Wei = gas as Wei * gas_price_gwei as Wei * GWEI;
    (wei as f64 / 1e18) * eth_usd
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_usd_figure_reproduces() {
        // §IV-A: "40k gas which translates to more than 20 USD (at the time
        // of writing)". Early-2022 conditions: ~150 gwei, ETH ≈ $3,400.
        let usd = gas_to_usd(40_000, 150, 3_400.0);
        assert!(usd > 20.0, "got {usd:.2}");
        assert!(usd < 30.0, "got {usd:.2}");
    }
}
