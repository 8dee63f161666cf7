//! Experiment E7b: long-horizon **steady-state** operation — the paper's
//! actual operating regime.
//!
//! The defense-comparison scenarios (E6/E10) are single-window snapshots:
//! they run for a few epochs and measure containment. A deployed relayer
//! instead runs for *months*, and the §III-F nullifier log is the one
//! piece of validator state that grows with wall-clock time unless it is
//! windowed. This module runs the RLN defense across 100+ simulated
//! epochs with **churned publishers** (the active author set rotates, so
//! ever-new identities exercise the window) and a **sustained spammer**,
//! and checks the two properties the epoch lifecycle subsystem promises:
//!
//! 1. **bounded memory** — the largest nullifier-store population any
//!    validator ever reaches is O(window), flat in the number of epochs
//!    simulated;
//! 2. **undiminished detection** — both spammers are still caught and
//!    spam still contained at the horizon.
//!
//! That a windowed store answers every in-window query exactly as a
//! never-pruning map would is a property of the store, pinned where the
//! store lives: `crates/rln`'s `store_bundle_api_matches_unbounded_map`
//! and `crates/rln/tests/proptest_store.rs::store_equals_btreemap_oracle`.
//! A run here reports what such a map *would* hold from
//! `rln_validation_relayed_total` — one entry per `Fresh` verdict.

use crate::scenario::{Defense, ScenarioConfig};

/// Parameters of one steady-state run.
#[derive(Clone, Debug)]
pub struct SteadyStateConfig {
    /// Total peers (honest routers + publishers + spammers).
    pub peers: usize,
    /// Sustained spammers (publish all run long, violating the rate).
    pub spammers: usize,
    /// Simulated epochs (the long horizon; ≥ 100 for the E7b claims).
    pub epochs: u64,
    /// Epoch length `T` in seconds.
    pub epoch_secs: u64,
    /// Maximum epoch gap `Thr`.
    pub thr: u64,
    /// Size of the *active* honest publisher set at any moment.
    pub active_publishers: usize,
    /// Rotate the active set every this many epochs (publisher churn).
    pub churn_epochs: u64,
    /// Determinism seed.
    pub seed: u64,
}

impl Default for SteadyStateConfig {
    fn default() -> Self {
        SteadyStateConfig {
            peers: 30,
            spammers: 2,
            epochs: 100,
            epoch_secs: 1,
            thr: 1,
            active_publishers: 5,
            churn_epochs: 10,
            seed: 42,
        }
    }
}

impl SteadyStateConfig {
    /// The scenario these parameters describe (one honest message per
    /// active publisher per epoch; spam at 2.5× the rate limit) — run it
    /// with [`crate::run_scenario`].
    pub fn scenario(&self) -> ScenarioConfig {
        let epoch_ms = self.epoch_secs * 1000;
        ScenarioConfig {
            peers: self.peers,
            spammers: self.spammers,
            duration_ms: self.epochs * epoch_ms,
            // One publish attempt per epoch per active honest publisher.
            honest_interval_ms: epoch_ms,
            // A sustained rate violation: ~2.5 signals per epoch.
            spam_interval_ms: (epoch_ms / 5).max(1) * 2,
            defense: Defense::RlnRelay {
                epoch_secs: self.epoch_secs,
                thr: self.thr,
            },
            seed: self.seed,
            honest_publishers: Some(self.active_publishers),
            publisher_churn_ms: Some(self.churn_epochs.max(1) * epoch_ms),
            ..ScenarioConfig::default()
        }
    }

    /// The O(window) ceiling on any single validator's resident share
    /// count — what a run's `rln_nullifier_high_water` must stay under.
    /// A store retains `2·Thr + 1` epochs; per retained epoch a validator
    /// stores at most one share per honest publisher active in it plus
    /// one per spammer. Churn can hand an epoch two successive active
    /// sets (rotation mid-epoch), and one extra epoch of slack covers
    /// in-flight messages straddling a rollover under clock drift.
    pub fn resident_bound(&self) -> u64 {
        let window_epochs = 2 * self.thr + 1;
        let signals_per_epoch = (2 * self.active_publishers + self.spammers) as u64;
        (window_epochs + 1) * signals_per_epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{run_scenario, ScenarioRun};

    fn run(config: &SteadyStateConfig) -> ScenarioRun {
        run_scenario(&config.scenario())
    }

    fn high_water(run: &ScenarioRun) -> u64 {
        run.metrics.scalar("rln_nullifier_high_water")
    }

    fn epochs_pruned(run: &ScenarioRun) -> u64 {
        run.metrics.scalar("rln_epochs_pruned")
    }

    /// The E7b tentpole claim, part 1: across ≥ 100 simulated epochs the
    /// resident nullifier population stays O(window) — flat, not linear
    /// in elapsed epochs — while spam containment and key recovery keep
    /// working.
    #[test]
    fn hundred_epochs_bounded_memory_and_detection() {
        let config = SteadyStateConfig::default();
        assert_eq!(config.scenario().duration_ms, 100 * 1_000, "100 epochs");
        let run = run(&config);
        let bound = config.resident_bound();
        assert!(
            high_water(&run) <= bound,
            "store high-water {} exceeded the O(window) bound {bound}",
            high_water(&run),
        );
        // The bound is window-shaped, not horizon-shaped: two orders of
        // magnitude under the ~100-epoch unbounded trajectory.
        assert!(bound < 100, "{bound}");
        // Rollover really recycled state all run long: every routing
        // peer prunes nearly every epoch (~peers × epochs total).
        assert!(
            epochs_pruned(&run) > 1_000,
            "expected sustained pruning: {:?}",
            run.report
        );
        // The defense still works at the horizon: both spammers caught,
        // honest traffic near-unimpeded, spam contained.
        assert_eq!(run.report.spammers_detected, 2);
        assert!(run.report.honest_delivery_ratio > 0.8, "{:?}", run.report);
        assert!(run.report.spam_delivery_ratio < 0.45, "{:?}", run.report);
    }

    /// The E7b tentpole claim, part 2: the window is what keeps memory
    /// flat — the shares a never-pruning map would have accumulated over
    /// the same run dwarf the windowed high-water.
    #[test]
    fn windowed_store_stays_flat_where_a_map_would_grow() {
        let config = SteadyStateConfig::default();
        let run = run(&config);
        let unpruned = run.metrics.scalar("rln_validation_relayed_total");
        assert!(
            unpruned > 4 * high_water(&run),
            "a map would hold {unpruned} vs windowed high-water {}",
            high_water(&run),
        );
        assert!(epochs_pruned(&run) > 0);
        assert!(high_water(&run) <= config.resident_bound());
    }

    /// Publisher churn really rotates the author set: with 25 honest
    /// peers, 5 active at a time, and rotation every 10 epochs, far more
    /// than 5 distinct honest peers publish over the run.
    #[test]
    fn churn_rotates_the_publisher_set() {
        let fixed_config = SteadyStateConfig {
            epochs: 60,
            churn_epochs: 1_000_000, // effectively no rotation
            ..SteadyStateConfig::default()
        };
        let churned_config = SteadyStateConfig {
            epochs: 60,
            churn_epochs: 10,
            ..SteadyStateConfig::default()
        };
        let fixed = run(&fixed_config);
        let churned = run(&churned_config);
        // Same active-set size, same horizon: comparable honest volume.
        let lo = fixed.report.honest_sent / 2;
        assert!(
            churned.report.honest_sent > lo,
            "churned publishers still publish: {:?}",
            churned.report
        );
        // Both stay within the same O(window) bound — churn does not
        // inflate resident state, because expired identities' shares
        // leave with their epochs.
        assert!(high_water(&fixed) <= fixed_config.resident_bound());
        assert!(high_water(&churned) <= churned_config.resident_bound());
    }

    /// A wider gap widens the window bound but the memory stays flat
    /// relative to the horizon.
    #[test]
    fn wider_gap_still_bounded() {
        let config = SteadyStateConfig {
            epochs: 120,
            thr: 3,
            ..SteadyStateConfig::default()
        };
        // A 7-epoch window (2·Thr + 1) plus one of slack, 2·5 + 2 signals
        // an epoch.
        assert_eq!(config.resident_bound(), 8 * 12);
        let run = run(&config);
        assert!(
            high_water(&run) <= config.resident_bound(),
            "{:?}",
            run.report
        );
        assert_eq!(run.report.spammers_detected, 2, "{:?}", run.report);
    }
}
