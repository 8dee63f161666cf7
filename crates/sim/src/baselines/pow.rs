//! The Proof-of-Work spam defense of Whisper (EIP-627, references [4, 5] of
//! the paper) — the baseline whose "high computational cost for messaging"
//! excludes resource-restricted devices (§I).
//!
//! Whisper defines `PoW = 2^(leading zero bits of H(envelope)) / (size ·
//! TTL)`: the sender grinds a nonce until the envelope hash clears the
//! network's minimum.

use waku_hash::keccak256;

/// A Whisper-style envelope.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// Expiry (Unix seconds).
    pub expiry: u64,
    /// Time-to-live in seconds.
    pub ttl: u64,
    /// 4-byte topic.
    pub topic: [u8; 4],
    /// Payload.
    pub data: Vec<u8>,
    /// The mined nonce.
    pub nonce: u64,
}

impl Envelope {
    /// Builds an envelope with nonce 0 (to be mined).
    pub fn new(expiry: u64, ttl: u64, topic: [u8; 4], data: Vec<u8>) -> Self {
        Envelope {
            expiry,
            ttl,
            topic,
            data,
            nonce: 0,
        }
    }

    /// Envelope size in bytes (hash preimage length).
    pub fn size(&self) -> usize {
        8 + 8 + 4 + self.data.len() + 8
    }

    fn hash_with_nonce(&self, nonce: u64) -> [u8; 32] {
        let mut buf = Vec::with_capacity(self.size());
        buf.extend_from_slice(&self.expiry.to_le_bytes());
        buf.extend_from_slice(&self.ttl.to_le_bytes());
        buf.extend_from_slice(&self.topic);
        buf.extend_from_slice(&self.data);
        buf.extend_from_slice(&nonce.to_le_bytes());
        keccak256(&buf)
    }

    /// The EIP-627 work value of the envelope as mined.
    pub fn pow(&self) -> f64 {
        let hash = self.hash_with_nonce(self.nonce);
        let zeros = leading_zero_bits(&hash);
        2f64.powi(zeros as i32) / (self.size() as f64 * self.ttl as f64)
    }
}

fn leading_zero_bits(hash: &[u8; 32]) -> u32 {
    let mut bits = 0;
    for byte in hash {
        if *byte == 0 {
            bits += 8;
        } else {
            bits += byte.leading_zeros();
            break;
        }
    }
    bits
}

/// Result of a mining attempt.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MiningOutcome {
    /// The nonce that met the target.
    pub nonce: u64,
    /// The achieved PoW value.
    pub pow: f64,
    /// Hash evaluations spent (the *work*; wall time = iterations / device
    /// hash rate — this is what shuts out weak devices, §I).
    pub iterations: u64,
}

/// Grinds nonces until `min_pow` is met or the iteration budget runs out.
///
/// Returns `None` when the budget is exhausted — a weak device giving up.
pub fn mine(envelope: &mut Envelope, min_pow: f64, budget: u64) -> Option<MiningOutcome> {
    for i in 0..budget {
        envelope.nonce = i;
        let pow = envelope.pow();
        if pow >= min_pow {
            return Some(MiningOutcome {
                nonce: i,
                pow,
                iterations: i + 1,
            });
        }
    }
    None
}

/// Expected hash evaluations to reach `min_pow` for a given envelope shape
/// (analytic: `2^ceil(log2(min_pow · size · ttl))` candidates per success).
pub fn expected_iterations(min_pow: f64, size: usize, ttl: u64) -> f64 {
    let needed = min_pow * size as f64 * ttl as f64;
    needed.max(1.0)
}

/// Validates an incoming envelope against the network minimum (the
/// routing-side check).
pub fn validate(envelope: &Envelope, min_pow: f64, now: u64) -> bool {
    envelope.pow() >= min_pow && envelope.expiry > now
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(data: &[u8]) -> Envelope {
        Envelope::new(2_000, 50, [1, 2, 3, 4], data.to_vec())
    }

    #[test]
    fn mining_reaches_target() {
        let mut e = env(b"hello");
        let target = 0.2;
        let outcome = mine(&mut e, target, 1_000_000).expect("minable");
        assert!(outcome.pow >= target);
        assert!(validate(&e, target, 100));
    }

    #[test]
    fn unmined_envelope_fails_validation() {
        let e = env(b"lazy");
        assert!(
            !validate(&e, 1000.0, 100),
            "astronomically unlikely unmined"
        );
    }

    #[test]
    fn expired_envelope_rejected() {
        let mut e = env(b"old");
        mine(&mut e, 0.001, 1_000_000).unwrap();
        assert!(!validate(&e, 0.001, 3_000), "past expiry");
    }

    #[test]
    fn budget_exhaustion_returns_none() {
        let mut e = env(b"weak device");
        // Target needing ~2^30 hashes; budget of 10.
        assert!(mine(&mut e, 1e6, 10).is_none());
    }

    #[test]
    fn bigger_messages_need_more_work() {
        // Same zero-bit count yields lower PoW for larger envelopes,
        // so the required iterations scale with size.
        let small = expected_iterations(1.0, 100, 50);
        let large = expected_iterations(1.0, 10_000, 50);
        assert!(large > small * 50.0);
    }

    #[test]
    fn work_scales_exponentially_with_target() {
        let lo = expected_iterations(0.25, 128, 50);
        let hi = expected_iterations(16.0, 128, 50);
        assert!((hi / lo - 64.0).abs() < 1e-9);
    }

    #[test]
    fn pow_is_deterministic_for_fixed_nonce() {
        let mut a = env(b"same");
        let mut b = env(b"same");
        a.nonce = 7;
        b.nonce = 7;
        assert_eq!(a.pow(), b.pow());
    }
}
