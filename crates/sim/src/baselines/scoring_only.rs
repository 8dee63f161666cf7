//! The peer-scoring-only defense (libp2p GossipSub v1.1, reference \[2\]) —
//! the baseline the paper criticizes as "prone to censorship and … subject
//! to inexpensive attacks where the spammer can send bulk messages by
//! deploying millions of bots" (§I).
//!
//! Under scoring alone there is no per-message admission criterion: a spam
//! message is structurally indistinguishable from an honest one, so
//! validators must accept it, and only *behavioral* statistics (which a
//! Sybil attacker resets for free by rotating identities) can push back.

/// Cost model for identity creation under each defense — the economic
/// asymmetry at the heart of the paper's argument.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SybilCostModel {
    /// Cost (in wei) to field one spamming identity.
    pub cost_per_identity_wei: u128,
    /// Messages per epoch each identity may emit before consequences.
    pub messages_per_epoch_per_identity: u64,
}

impl SybilCostModel {
    /// Scoring-only networks: identities are free, and a fresh identity
    /// starts with a clean score.
    pub fn scoring_only() -> Self {
        SybilCostModel {
            cost_per_identity_wei: 0,
            messages_per_epoch_per_identity: u64::MAX,
        }
    }

    /// RLN: each identity requires the membership deposit, and violating
    /// the rate forfeits it.
    pub fn rln(deposit: u128) -> Self {
        SybilCostModel {
            cost_per_identity_wei: deposit,
            messages_per_epoch_per_identity: 1,
        }
    }

    /// Wei an attacker must stake to sustain `rate` messages per epoch.
    pub fn cost_for_rate(&self, rate: u64) -> u128 {
        if self.messages_per_epoch_per_identity == u64::MAX {
            return 0;
        }
        let identities = rate.div_ceil(self.messages_per_epoch_per_identity);
        identities as u128 * self.cost_per_identity_wei
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoring_only_spam_is_free() {
        let model = SybilCostModel::scoring_only();
        assert_eq!(model.cost_for_rate(1_000_000), 0);
    }

    #[test]
    fn rln_spam_costs_scale_linearly() {
        let deposit = 1_000_000_000_000_000_000u128; // 1 ether
        let model = SybilCostModel::rln(deposit);
        assert_eq!(model.cost_for_rate(1), deposit);
        assert_eq!(model.cost_for_rate(10), 10 * deposit);
        assert_eq!(model.cost_for_rate(1000), 1000 * deposit);
    }
}
