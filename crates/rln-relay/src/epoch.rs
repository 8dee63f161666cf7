//! Epoch management (paper §III-D, §III-F).
//!
//! The external nullifier is the *epoch*: `epoch = ⌊UnixTime / T⌋` for an
//! application-chosen epoch length `T`. (The paper's worked example writes
//! `⌈1644810116/30⌉ = 54827003`, which is in fact the floor — 1644810116/30
//! ≈ 54827003.87 — so floor is what we implement.)
//!
//! The maximum accepted gap between a routing peer's epoch and a message's
//! epoch is `Thr = ⌈(NetworkDelay + ClockAsynchrony) / T⌉`.

/// Epoch arithmetic for a fixed epoch length `T` (seconds).
///
/// # Example
///
/// ```
/// use waku_rln_relay::EpochManager;
///
/// // The paper's worked example (§III-D): T = 30 s.
/// let em = EpochManager::new(30);
/// assert_eq!(em.epoch_at(1_644_810_116), 54_827_003);
///
/// // Thr = ⌈(NetworkDelay + ClockAsynchrony) / T⌉ sizes both the
/// // §III-F gap check and the nullifier retention window: with ~5 s
/// // propagation and ~2 s clock skew, one epoch of slack suffices.
/// let thr = em.max_epoch_gap(5.0, 2.0);
/// assert_eq!(thr, 1);
///
/// // A message stamped one epoch behind the router's clock is within
/// // the gap; three epochs behind is dropped.
/// assert!(EpochManager::gap(54_827_003, 54_827_002) <= thr);
/// assert!(EpochManager::gap(54_827_003, 54_827_000) > thr);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct EpochManager {
    epoch_length_secs: u64,
}

impl EpochManager {
    /// Creates a manager with epoch length `T` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `t_secs` is zero.
    pub fn new(t_secs: u64) -> Self {
        assert!(t_secs > 0, "epoch length must be positive");
        EpochManager {
            epoch_length_secs: t_secs,
        }
    }

    /// Epoch length `T` in seconds.
    pub fn epoch_length(&self) -> u64 {
        self.epoch_length_secs
    }

    /// The epoch containing a Unix timestamp (seconds).
    pub fn epoch_at(&self, unix_secs: u64) -> u64 {
        unix_secs / self.epoch_length_secs
    }

    /// `Thr = ⌈(NetworkDelay + ClockAsynchrony) / T⌉` (paper §III-F),
    /// inputs in seconds.
    pub fn max_epoch_gap(&self, network_delay_secs: f64, clock_asynchrony_secs: f64) -> u64 {
        ((network_delay_secs + clock_asynchrony_secs) / self.epoch_length_secs as f64).ceil() as u64
    }

    /// The skew-tolerance bound: the largest combined offset (network
    /// delay + clock skew, in seconds) a publisher can carry and still
    /// have every honest message accepted by a router enforcing `thr`.
    ///
    /// An honest publisher whose local clock runs `x` seconds from the
    /// router's stamps epochs at most `⌈x / T⌉` apart from the router's
    /// current epoch — the inverse of [`EpochManager::max_epoch_gap`].
    /// The gap check accepts iff `⌈x / T⌉ ≤ Thr`, i.e. iff
    /// `x ≤ Thr · T` — the product this method names. The bound is
    /// *inclusive and tight*:
    ///
    /// * `offset == Thr · T` — worst-case stamp lands exactly `Thr`
    ///   epochs away; accepted.
    /// * `offset == Thr · T + ε` — the stamp can land `Thr + 1` epochs
    ///   away near an epoch boundary; those messages bounce with
    ///   [`crate::validation::Outcome::EpochOutOfRange`], counted on
    ///   `rln_validation_epoch_dropped_total` whichever way the clock
    ///   is off (on a pass-through validator `rln_out_of_window_total`
    ///   does not move: the gap check and the store window share one
    ///   monotone epoch).
    /// * `offset ≥ (Thr + 1) · T` — the *minimum* gap `⌊x / T⌋` already
    ///   exceeds `Thr`: every message bounces, not just boundary ones.
    ///
    /// The E9 skew scenarios in `waku-sim` drive this crate's validator
    /// on both sides of this line.
    pub fn max_tolerated_skew_secs(&self, thr: u64) -> u64 {
        thr * self.epoch_length_secs
    }

    /// Absolute distance between two epochs.
    pub fn gap(a: u64, b: u64) -> u64 {
        a.abs_diff(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_worked_example() {
        // §III-D: UnixTime 1644810116 s, T = 30 s → epoch 54827003.
        let em = EpochManager::new(30);
        assert_eq!(em.epoch_at(1_644_810_116), 54_827_003);
    }

    #[test]
    fn epoch_boundaries() {
        let em = EpochManager::new(10);
        assert_eq!(em.epoch_at(0), 0);
        assert_eq!(em.epoch_at(9), 0);
        assert_eq!(em.epoch_at(10), 1);
    }

    #[test]
    fn thr_formula() {
        // §III-F: Thr = ceil((NetworkDelay + ClockAsynchrony)/T)
        let em = EpochManager::new(30);
        assert_eq!(em.max_epoch_gap(5.0, 2.0), 1);
        assert_eq!(em.max_epoch_gap(30.0, 0.0), 1);
        assert_eq!(em.max_epoch_gap(30.0, 0.1), 2);
        let em1 = EpochManager::new(1);
        assert_eq!(em1.max_epoch_gap(0.4, 0.2), 1);
        assert_eq!(em1.max_epoch_gap(2.5, 0.6), 4);
    }

    #[test]
    fn skew_tolerance_is_thr_times_epoch_length() {
        let em = EpochManager::new(10);
        assert_eq!(em.max_tolerated_skew_secs(1), 10);
        assert_eq!(em.max_tolerated_skew_secs(3), 30);
        // Round trip with the Thr formula: an offset AT the bound needs
        // exactly thr epochs of slack, one second past it needs thr + 1.
        for thr in 1..=4u64 {
            let bound = em.max_tolerated_skew_secs(thr);
            assert_eq!(em.max_epoch_gap(bound as f64, 0.0), thr);
            assert_eq!(em.max_epoch_gap(bound as f64 + 1.0, 0.0), thr + 1);
        }
    }

    #[test]
    fn skew_bound_is_tight_at_epoch_boundaries() {
        // T = 10, Thr = 1 → bound = 10 s. A publisher running exactly
        // 10 s fast stamps at most one epoch ahead of the router — always
        // accepted. At 11 s, stamps near a boundary land 2 epochs ahead.
        let em = EpochManager::new(10);
        let thr = 1u64;
        let bound = em.max_tolerated_skew_secs(thr);

        let worst_gap = |offset: u64| {
            (0..em.epoch_length())
                .map(|phase| {
                    let now = 1_000 + phase;
                    EpochManager::gap(em.epoch_at(now + offset), em.epoch_at(now))
                })
                .max()
                .unwrap()
        };
        assert_eq!(worst_gap(bound), thr, "at the bound: worst case = Thr");
        assert!(worst_gap(bound + 1) > thr, "past the bound: some bounce");
        // At (Thr + 1)·T even the BEST case exceeds Thr: total collapse.
        let min_gap = (0..em.epoch_length())
            .map(|phase| {
                let now = 1_000 + phase;
                EpochManager::gap(
                    em.epoch_at(now + bound + em.epoch_length()),
                    em.epoch_at(now),
                )
            })
            .min()
            .unwrap();
        assert!(min_gap > thr);
    }

    #[test]
    fn gap_is_symmetric() {
        assert_eq!(EpochManager::gap(5, 8), 3);
        assert_eq!(EpochManager::gap(8, 5), 3);
        assert_eq!(EpochManager::gap(7, 7), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_length_panics() {
        EpochManager::new(0);
    }
}
