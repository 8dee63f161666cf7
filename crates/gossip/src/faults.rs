//! The deterministic fault-injection plane: a seeded [`FaultPlan`] woven
//! through the engine so scenarios run over *unreliable* links, mortal
//! peers, and skewed clocks — the conditions the paper's spam-protection
//! guarantees actually have to survive.
//!
//! Four fault families, one determinism contract:
//!
//! * **link faults** ([`LinkFaults`]) — per-transmission drop, duplicate,
//!   extra jitter, and reorder spikes, applied in `PeerSlot::send_rpc`;
//! * **partitions** ([`PartitionSpec`]) — scheduled bisections of the peer
//!   id space that sever every crossing link until they heal;
//! * **crash/restart** ([`CrashSpec`]) — peers go dark (events addressed
//!   to them are dropped), then rejoin cold with all in-memory gossip
//!   state rebuilt and validator state restored from a
//!   `waku_rln::NullifierStore`-style snapshot;
//! * **clock skew** ([`SkewSpec`]) — scheduled steps of a peer's clock
//!   drift, forwards or backwards, while the simulation runs.
//!
//! ## Determinism invariant
//!
//! Every stochastic fault decision is a pure function of
//! `(fault seed, link, event sequence)` — the sequence number of the key
//! the transmission mints — via the same SplitMix64 finalizer that
//! decorrelates the per-peer RNG streams (`fault_word`). Per-peer event
//! sequences evolve identically at every shard count (a peer dispatches
//! its own events in key order, and only its own dispatch mutates its
//! slot), so fault streams are **event-keyed, never scheduler-ordered**:
//! a seeded faulty run is bit-identical at any shard/thread count, one
//! shard (the serial reference) included. A dropped transmission still
//! consumes its sequence slot, so later sends on the same link draw fresh
//! fault words instead of replaying the drop forever.
//!
//! Timed faults (partition windows, crash intervals, skew steps) are
//! keyed on simulation time alone; crash/restart and skew events are
//! minted from the target peer's own key stream at network construction,
//! exactly like the heartbeat stagger.

use crate::engine::mix64;
use crate::message::{PeerId, SimTime};

/// Per-transmission link-fault rates, in permille (so integer math keeps
/// the decision exact and platform-independent). The default is a no-op.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkFaults {
    /// Probability (‰) a transmission is silently dropped.
    pub drop_permille: u16,
    /// Probability (‰) a transmission is delivered twice.
    pub duplicate_permille: u16,
    /// Probability (‰) a transmission takes a reorder spike of
    /// [`LinkFaults::reorder_delay_ms`] extra delay, letting later sends
    /// on the same link overtake it.
    pub reorder_permille: u16,
    /// Extra uniform jitter in `[0, extra_jitter_ms]` added to every
    /// surviving transmission.
    pub extra_jitter_ms: u64,
    /// The delay spike applied to reordered transmissions (ms).
    pub reorder_delay_ms: u64,
}

impl LinkFaults {
    /// True when no link fault can ever fire.
    pub(crate) fn is_noop(&self) -> bool {
        self.drop_permille == 0
            && self.duplicate_permille == 0
            && (self.reorder_permille == 0 || self.reorder_delay_ms == 0)
            && self.extra_jitter_ms == 0
    }

    /// Does the transmission with this fault word get dropped?
    pub(crate) fn drops(&self, word: u64) -> bool {
        self.drop_permille > 0 && word % 1000 < self.drop_permille as u64
    }

    /// Does the transmission with this fault word get duplicated?
    pub(crate) fn duplicates(&self, word: u64) -> bool {
        self.duplicate_permille > 0 && mix64(word ^ 1) % 1000 < self.duplicate_permille as u64
    }

    /// Additive delay (jitter + reorder spike) for a surviving
    /// transmission. Faults only ever *add* to the sampled link latency —
    /// which already respects the scheduler's quantum floor — so the
    /// Chandy–Misra lookahead bound stays valid under any plan.
    pub(crate) fn extra_delay(&self, word: u64) -> SimTime {
        let mut extra = 0;
        if self.extra_jitter_ms > 0 {
            extra += mix64(word ^ 2) % (self.extra_jitter_ms + 1);
        }
        if self.reorder_delay_ms > 0
            && self.reorder_permille > 0
            && mix64(word ^ 3) % 1000 < self.reorder_permille as u64
        {
            extra += self.reorder_delay_ms;
        }
        extra
    }

    /// How far behind its primary copy a duplicate trails (≥ 1 ms so the
    /// two copies are distinct arrivals).
    pub(crate) fn duplicate_lag(&self, word: u64) -> SimTime {
        1 + mix64(word ^ 4) % (self.extra_jitter_ms + self.reorder_delay_ms + 1)
    }
}

/// A scheduled network partition: while `start_ms ≤ now < end_ms`, every
/// link between a peer with id `< cut` and a peer with id `≥ cut` is
/// severed (checked at send time on the sender's clock). The partition
/// heals at `end_ms`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartitionSpec {
    /// Partition onset (network time, ms).
    pub start_ms: SimTime,
    /// Healing time (network time, ms; exclusive).
    pub end_ms: SimTime,
    /// The bisection point of the peer id space.
    pub cut: usize,
}

impl PartitionSpec {
    /// Is the `a → b` link severed by this partition at time `at`?
    pub(crate) fn severs(&self, a: PeerId, b: PeerId, at: SimTime) -> bool {
        at >= self.start_ms && at < self.end_ms && (a < self.cut) != (b < self.cut)
    }
}

/// A scheduled peer crash: the peer is down (all events addressed to it
/// are dropped, so it neither routes nor publishes) for
/// `crash_ms ≤ now < restart_ms`, then rejoins cold — see the engine's
/// restart handler for exactly which state survives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashSpec {
    /// The crashing peer.
    pub peer: PeerId,
    /// Crash time (network time, ms).
    pub crash_ms: SimTime,
    /// Restart time (network time, ms). `SimTime::MAX` = never rejoins.
    pub restart_ms: SimTime,
}

/// A scheduled clock-skew step: at `at_ms` the peer's clock drift changes
/// by `delta_ms` (negative = the clock steps backwards). Skew steps apply
/// even while the peer is crashed — a dead process's clock keeps
/// drifting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SkewSpec {
    /// The affected peer.
    pub peer: PeerId,
    /// When the step happens (network time, ms).
    pub at_ms: SimTime,
    /// Signed drift change (ms).
    pub delta_ms: i64,
}

/// A complete seeded fault plan. The default plan is empty: the network
/// behaves exactly as it did before the fault plane existed (the no-fault
/// fast path is byte-identical).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed of the event-keyed fault streams (independent of the network
    /// seed, so the same topology can be re-run under different fault
    /// draws).
    pub seed: u64,
    /// Per-link stochastic faults.
    pub link: LinkFaults,
    /// Scheduled partitions.
    pub partitions: Vec<PartitionSpec>,
    /// Scheduled crash/restart timelines.
    pub crashes: Vec<CrashSpec>,
    /// Scheduled clock-skew steps.
    pub skews: Vec<SkewSpec>,
}

impl FaultPlan {
    /// True when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.link.is_noop()
            && self.partitions.is_empty()
            && self.crashes.is_empty()
            && self.skews.is_empty()
    }

    /// True when transmissions need the fault path at all (stochastic
    /// link faults or at least one partition).
    pub(crate) fn affects_links(&self) -> bool {
        !self.link.is_noop() || !self.partitions.is_empty()
    }

    /// Is the `a → b` link severed by any partition at time `at`?
    pub fn severed(&self, a: PeerId, b: PeerId, at: SimTime) -> bool {
        self.partitions.iter().any(|p| p.severs(a, b, at))
    }

    /// Partitions whose healing time has passed by `now`.
    pub fn partitions_healed(&self, now: SimTime) -> u64 {
        self.partitions.iter().filter(|p| p.end_ms <= now).count() as u64
    }

    /// Cumulative skew applied to `peer`'s clock by time `at` — what a
    /// workload generator must add to the construction-time drift to
    /// stamp epochs from the clock the peer will actually have.
    pub fn skew_at(&self, peer: PeerId, at: SimTime) -> i64 {
        self.skews
            .iter()
            .filter(|s| s.peer == peer && s.at_ms <= at)
            .map(|s| s.delta_ms)
            .sum()
    }

    /// The time the last scheduled disruption ends: the latest partition
    /// heal or peer restart (0 for plans with neither). Scenario layers
    /// use this as the re-convergence cutoff.
    pub fn last_disruption_ms(&self) -> SimTime {
        let heal = self.partitions.iter().map(|p| p.end_ms).max().unwrap_or(0);
        let rejoin = self
            .crashes
            .iter()
            .map(|c| c.restart_ms)
            .filter(|&r| r < SimTime::MAX)
            .max()
            .unwrap_or(0);
        heal.max(rejoin)
    }

    /// Checks the plan against a network size.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range peer ids, inverted crash windows, or
    /// overlapping crash windows for the same peer.
    pub fn validate(&self, peers: usize) {
        for p in &self.partitions {
            assert!(p.start_ms < p.end_ms, "partition window inverted: {p:?}");
            assert!(
                p.cut > 0 && p.cut < peers,
                "partition cut out of range: {p:?}"
            );
        }
        let mut windows: Vec<(PeerId, SimTime, SimTime)> = Vec::new();
        for c in &self.crashes {
            assert!(c.peer < peers, "crash peer out of range: {c:?}");
            assert!(c.crash_ms < c.restart_ms, "crash window inverted: {c:?}");
            windows.push((c.peer, c.crash_ms, c.restart_ms));
        }
        windows.sort_unstable();
        for w in windows.windows(2) {
            assert!(
                w[0].0 != w[1].0 || w[0].2 <= w[1].1,
                "overlapping crash windows for peer {}: {:?}",
                w[0].0,
                &w[..2]
            );
        }
        for s in &self.skews {
            assert!(s.peer < peers, "skew peer out of range: {s:?}");
        }
    }
}

/// The event-keyed fault word for one transmission: a pure function of
/// the plan seed, the directed link, and the sequence number of the event
/// key the transmission mints. All per-transmission fault decisions
/// (drop, duplicate, jitter, reorder) derive from this one word.
pub(crate) fn fault_word(seed: u64, from: PeerId, to: PeerId, seq: u64) -> u64 {
    let link = ((from as u64) << 32) | (to as u64 & 0xFFFF_FFFF);
    mix64(mix64(seed ^ 0xFA17_F1A5) ^ mix64(link) ^ mix64(seq))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_empty_and_noop() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert!(!plan.affects_links());
        assert!(!plan.severed(0, 1, 500));
        assert_eq!(plan.partitions_healed(u64::MAX), 0);
        assert_eq!(plan.last_disruption_ms(), 0);
    }

    #[test]
    fn fault_words_differ_by_link_and_seq() {
        let w = fault_word(7, 3, 4, 0);
        assert_ne!(w, fault_word(7, 4, 3, 0), "direction matters");
        assert_ne!(w, fault_word(7, 3, 4, 1), "sequence matters");
        assert_ne!(w, fault_word(8, 3, 4, 0), "seed matters");
        assert_eq!(w, fault_word(7, 3, 4, 0), "and the word is pure");
    }

    #[test]
    fn drop_rate_is_roughly_calibrated() {
        let faults = LinkFaults {
            drop_permille: 200,
            ..LinkFaults::default()
        };
        let dropped = (0..10_000)
            .filter(|&seq| faults.drops(fault_word(1, 0, 1, seq)))
            .count();
        assert!(
            (1_700..=2_300).contains(&dropped),
            "20% nominal, got {dropped}/10000"
        );
    }

    #[test]
    fn partition_severs_only_crossing_links_inside_the_window() {
        let p = PartitionSpec {
            start_ms: 1_000,
            end_ms: 2_000,
            cut: 5,
        };
        assert!(p.severs(2, 7, 1_500));
        assert!(p.severs(7, 2, 1_500), "both directions");
        assert!(!p.severs(2, 3, 1_500), "same side");
        assert!(!p.severs(2, 7, 999), "before onset");
        assert!(!p.severs(2, 7, 2_000), "healed (end exclusive)");
    }

    #[test]
    fn skew_accumulates_in_time_order() {
        let plan = FaultPlan {
            skews: vec![
                SkewSpec {
                    peer: 3,
                    at_ms: 1_000,
                    delta_ms: 500,
                },
                SkewSpec {
                    peer: 3,
                    at_ms: 2_000,
                    delta_ms: -1_500,
                },
                SkewSpec {
                    peer: 4,
                    at_ms: 0,
                    delta_ms: 9_999,
                },
            ],
            ..FaultPlan::default()
        };
        assert_eq!(plan.skew_at(3, 999), 0);
        assert_eq!(plan.skew_at(3, 1_000), 500);
        assert_eq!(plan.skew_at(3, 5_000), -1_000);
        assert_eq!(plan.skew_at(5, 5_000), 0);
    }

    #[test]
    fn last_disruption_takes_the_later_of_heal_and_rejoin() {
        let plan = FaultPlan {
            partitions: vec![PartitionSpec {
                start_ms: 1_000,
                end_ms: 4_000,
                cut: 2,
            }],
            crashes: vec![
                CrashSpec {
                    peer: 0,
                    crash_ms: 2_000,
                    restart_ms: 6_000,
                },
                CrashSpec {
                    peer: 1,
                    crash_ms: 0,
                    restart_ms: SimTime::MAX, // never rejoins: not a cutoff
                },
            ],
            ..FaultPlan::default()
        };
        assert_eq!(plan.last_disruption_ms(), 6_000);
    }

    #[test]
    #[should_panic(expected = "overlapping crash windows")]
    fn overlapping_crash_windows_are_rejected() {
        let plan = FaultPlan {
            crashes: vec![
                CrashSpec {
                    peer: 2,
                    crash_ms: 1_000,
                    restart_ms: 3_000,
                },
                CrashSpec {
                    peer: 2,
                    crash_ms: 2_000,
                    restart_ms: 4_000,
                },
            ],
            ..FaultPlan::default()
        };
        plan.validate(10);
    }
}
