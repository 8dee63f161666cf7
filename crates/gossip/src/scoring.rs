//! GossipSub v1.1 peer scoring (Vyzovitis et al., reference \[2\] of the
//! paper) — the mechanism the paper compares against and also recommends
//! as the defense-in-depth against invalid-proof floods (§IV).
//!
//! Implemented counters (per neighbor, on the one topic):
//!
//! * **P1** — time in mesh (positive, capped),
//! * **P2** — first message deliveries (positive, capped),
//! * **P4** — invalid messages (negative, squared).
//!
//! The behavioural penalty (P7) is not modelled: the simulated peers
//! never abuse the protocol, so its term would always be zero.
//!
//! Scores decay multiplicatively every heartbeat. Negative-score peers are
//! pruned from meshes; below the graylist threshold their RPCs are ignored
//! entirely.

// Scoring weights and thresholds: fixed GossipSub v1.1 values.

/// P1 weight per second of mesh membership.
const TIME_IN_MESH_WEIGHT: f64 = 0.01;
/// P1 cap.
const TIME_IN_MESH_CAP: f64 = 300.0;
/// P2 weight per first delivery.
const FIRST_MESSAGE_WEIGHT: f64 = 1.0;
/// P2 cap.
const FIRST_MESSAGE_CAP: f64 = 100.0;
/// P4 weight (negative); applied to the *square* of the count.
const INVALID_MESSAGE_WEIGHT: f64 = -10.0;
/// Multiplicative decay applied every heartbeat to P2/P4.
const DECAY: f64 = 0.9;
/// Counters below this are zeroed after decay.
const DECAY_TO_ZERO: f64 = 0.01;
/// Mesh membership requires score ≥ this.
pub(crate) const PRUNE_THRESHOLD: f64 = 0.0;
/// RPCs from peers below this are dropped entirely.
pub(crate) const GRAYLIST_THRESHOLD: f64 = -100.0;

/// Per-neighbor score state.
#[derive(Clone, Debug, Default)]
pub struct PeerScore {
    /// Seconds this peer has been in our mesh (accumulated).
    pub time_in_mesh_secs: f64,
    /// First-delivery counter (decaying).
    pub first_deliveries: f64,
    /// Invalid-message counter (decaying).
    pub invalid_messages: f64,
}

impl PeerScore {
    /// Computes the current score.
    pub fn score(&self) -> f64 {
        let p1 = self.time_in_mesh_secs.min(TIME_IN_MESH_CAP) * TIME_IN_MESH_WEIGHT;
        let p2 = self.first_deliveries.min(FIRST_MESSAGE_CAP) * FIRST_MESSAGE_WEIGHT;
        let p4 = self.invalid_messages * self.invalid_messages * INVALID_MESSAGE_WEIGHT;
        p1 + p2 + p4
    }

    /// Registers a first delivery (P2).
    pub fn on_first_delivery(&mut self) {
        self.first_deliveries += 1.0;
    }

    /// Registers an invalid message (P4).
    pub fn on_invalid_message(&mut self) {
        self.invalid_messages += 1.0;
    }

    /// Accumulates mesh time (called at heartbeat while in mesh).
    pub fn on_mesh_time(&mut self, seconds: f64) {
        self.time_in_mesh_secs += seconds;
    }

    /// Applies the per-heartbeat decay.
    pub fn decay(&mut self) {
        for counter in [&mut self.first_deliveries, &mut self.invalid_messages] {
            *counter *= DECAY;
            if *counter < DECAY_TO_ZERO {
                *counter = 0.0;
            }
        }
    }
}

/// Per-peer score table keyed by neighbor id: a sorted small-vec map.
///
/// A peer only ever scores its direct neighbors (8–16 entries), so a
/// contiguous sorted array with binary search beats a `HashMap` on the
/// per-RPC graylist check — no SipHash, one or two cache lines — and its
/// iteration order is naturally deterministic.
#[derive(Clone, Debug, Default)]
pub struct ScoreTable {
    entries: Vec<(usize, PeerScore)>,
}

impl ScoreTable {
    /// Read-only lookup.
    pub fn get(&self, peer: usize) -> Option<&PeerScore> {
        self.entries
            .binary_search_by_key(&peer, |(p, _)| *p)
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Mutable lookup, inserting a default entry when absent.
    pub fn entry_or_default(&mut self, peer: usize) -> &mut PeerScore {
        match self.entries.binary_search_by_key(&peer, |(p, _)| *p) {
            Ok(i) => &mut self.entries[i].1,
            Err(i) => {
                self.entries.insert(i, (peer, PeerScore::default()));
                &mut self.entries[i].1
            }
        }
    }

    /// Mutable iteration over every tracked score (ascending peer id).
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut PeerScore> {
        self.entries.iter_mut().map(|(_, s)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_peer_scores_zero() {
        let s = PeerScore::default();
        assert_eq!(s.score(), 0.0);
    }

    #[test]
    fn deliveries_raise_score() {
        let mut s = PeerScore::default();
        s.on_first_delivery();
        s.on_first_delivery();
        assert!(s.score() > 0.0);
    }

    #[test]
    fn invalid_messages_dominate_quadratically() {
        let mut s = PeerScore::default();
        for _ in 0..50 {
            s.on_first_delivery();
        }
        let good = s.score();
        for _ in 0..5 {
            s.on_invalid_message();
        }
        assert!(s.score() < 0.0, "good was {good}, now {}", s.score());
    }

    #[test]
    fn p2_is_capped() {
        let mut s = PeerScore::default();
        for _ in 0..10_000 {
            s.on_first_delivery();
        }
        assert!(
            s.score()
                <= FIRST_MESSAGE_CAP * FIRST_MESSAGE_WEIGHT
                    + TIME_IN_MESH_CAP * TIME_IN_MESH_WEIGHT
        );
    }

    #[test]
    fn decay_forgives_over_time() {
        let mut s = PeerScore::default();
        for _ in 0..3 {
            s.on_invalid_message();
        }
        let before = s.score();
        for _ in 0..100 {
            s.decay();
        }
        assert!(s.score() > before);
        assert_eq!(s.invalid_messages, 0.0, "decays to zero");
    }

    #[test]
    fn mesh_time_accumulates_capped() {
        let mut s = PeerScore::default();
        s.on_mesh_time(1_000_000.0);
        assert_eq!(s.score(), TIME_IN_MESH_CAP * TIME_IN_MESH_WEIGHT);
    }
}
