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

use crate::report::ScenarioReport;
use crate::scenario::{run_scenario_with_metrics, Defense, EngineStats, ScenarioConfig};
use waku_gossip::NetworkConfig;
use waku_metrics::Snapshot;

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

/// Outcome of a steady-state run: the underlying scenario report plus
/// the lifecycle gauges and the bound they are checked against.
#[derive(Clone, Debug)]
pub struct SteadyStateReport {
    /// The defense-comparison report of the underlying run.
    pub scenario: ScenarioReport,
    /// Engine instrumentation (shards, barriers, nullifier gauges).
    pub engine: EngineStats,
    /// Full metrics snapshot of the run (nullifier gauges, gossip
    /// counters, dwell histogram) — render with
    /// [`Snapshot::render_prometheus`] or [`Snapshot::to_json`].
    pub metrics: Snapshot,
    /// Epochs the run simulated.
    pub epochs_simulated: u64,
    /// Epochs a validator's store retains (`2·Thr + 1`).
    pub window_epochs: u64,
    /// The O(window) ceiling on any single validator's resident share
    /// count: one share per publisher (active honest set + spammers) per
    /// retained epoch, plus one epoch of slack for in-flight messages
    /// straddling a rollover.
    pub resident_bound: u64,
}

impl SteadyStateReport {
    /// Does the run satisfy the bounded-memory claim? True iff no
    /// validator's store ever exceeded [`SteadyStateReport::resident_bound`].
    pub fn memory_bounded(&self) -> bool {
        self.engine.nullifier_high_water <= self.resident_bound
    }

    /// One markdown row: epochs, high-water, bound, pruned, detections.
    pub fn table_row(&self) -> String {
        format!(
            "| {} | {} | {} | {} | {} | {} | {:.3} |",
            self.epochs_simulated,
            self.engine.nullifier_high_water,
            self.resident_bound,
            self.engine.epochs_pruned,
            self.scenario.spammers_detected,
            self.scenario.spam_delivered,
            self.scenario.honest_delivery_ratio,
        )
    }

    /// Header matching [`SteadyStateReport::table_row`].
    pub fn table_header() -> String {
        "| epochs | store high-water | O(window) bound | epochs pruned | spammers caught | spam delivered | honest delivery |\n|---|---|---|---|---|---|---|".to_string()
    }
}

/// Translates the steady-state parameters into a [`ScenarioConfig`] (one
/// honest message per active publisher per epoch; spam at 2.5× the rate
/// limit) — public so experiment binaries can tweak it further.
pub fn scenario_config(config: &SteadyStateConfig) -> ScenarioConfig {
    let epoch_ms = config.epoch_secs * 1000;
    ScenarioConfig {
        peers: config.peers,
        spammers: config.spammers,
        duration_ms: config.epochs * epoch_ms,
        // One publish attempt per epoch per active honest publisher.
        honest_interval_ms: epoch_ms,
        // A sustained rate violation: ~2.5 signals per epoch.
        spam_interval_ms: (epoch_ms / 5).max(1) * 2,
        defense: Defense::RlnRelay {
            epoch_secs: config.epoch_secs,
            thr: config.thr,
        },
        seed: config.seed,
        honest_publishers: Some(config.active_publishers),
        publisher_churn_ms: Some(config.churn_epochs.max(1) * epoch_ms),
        net: NetworkConfig::default(),
        ..ScenarioConfig::default()
    }
}

/// Runs one steady-state scenario and derives the lifecycle bound.
pub fn run_steady_state(config: &SteadyStateConfig) -> SteadyStateReport {
    let (scenario, engine, metrics) = run_scenario_with_metrics(&scenario_config(config));
    let window_epochs = 2 * config.thr + 1;
    // Per retained epoch a validator stores at most one share per honest
    // publisher active in it plus one per spammer. Churn can hand an
    // epoch two successive active sets (rotation mid-epoch), and one
    // extra epoch of slack covers in-flight messages straddling a
    // rollover under clock drift.
    let signals_per_epoch = (2 * config.active_publishers + config.spammers) as u64;
    let resident_bound = (window_epochs + 1) * signals_per_epoch;
    SteadyStateReport {
        scenario,
        engine,
        metrics,
        epochs_simulated: config.epochs,
        window_epochs,
        resident_bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The E7b tentpole claim, part 1: across ≥ 100 simulated epochs the
    /// resident nullifier population stays O(window) — flat, not linear
    /// in elapsed epochs — while spam containment and key recovery keep
    /// working.
    #[test]
    fn hundred_epochs_bounded_memory_and_detection() {
        let report = run_steady_state(&SteadyStateConfig::default());
        assert_eq!(report.epochs_simulated, 100);
        assert!(
            report.memory_bounded(),
            "store high-water {} exceeded the O(window) bound {}",
            report.engine.nullifier_high_water,
            report.resident_bound,
        );
        // The bound is window-shaped, not horizon-shaped: two orders of
        // magnitude under the ~100-epoch unbounded trajectory.
        assert!(report.resident_bound < 100, "{report:?}");
        // Rollover really recycled state all run long: every routing
        // peer prunes nearly every epoch (~peers × epochs total).
        assert!(
            report.engine.epochs_pruned > 1_000,
            "expected sustained pruning: {report:?}"
        );
        // The defense still works at the horizon: both spammers caught,
        // honest traffic near-unimpeded, spam contained.
        assert_eq!(report.scenario.spammers_detected, 2);
        assert!(report.scenario.honest_delivery_ratio > 0.8, "{report:?}");
        assert!(report.scenario.spam_delivery_ratio < 0.45, "{report:?}");
    }

    /// The E7b tentpole claim, part 2: the window is what keeps memory
    /// flat — the shares a never-pruning map would have accumulated over
    /// the same run dwarf the windowed high-water.
    #[test]
    fn windowed_store_stays_flat_where_a_map_would_grow() {
        let report = run_steady_state(&SteadyStateConfig::default());
        let unpruned = report.metrics.scalar("rln_validation_relayed_total");
        assert!(
            unpruned > 4 * report.engine.nullifier_high_water,
            "a map would hold {unpruned} vs windowed high-water {}",
            report.engine.nullifier_high_water,
        );
        assert!(report.engine.epochs_pruned > 0);
        assert!(report.memory_bounded(), "{report:?}");
    }

    /// Publisher churn really rotates the author set: with 25 honest
    /// peers, 5 active at a time, and rotation every 10 epochs, far more
    /// than 5 distinct honest peers publish over the run.
    #[test]
    fn churn_rotates_the_publisher_set() {
        let fixed = run_steady_state(&SteadyStateConfig {
            epochs: 60,
            churn_epochs: 1_000_000, // effectively no rotation
            ..SteadyStateConfig::default()
        });
        let churned = run_steady_state(&SteadyStateConfig {
            epochs: 60,
            churn_epochs: 10,
            ..SteadyStateConfig::default()
        });
        // Same active-set size, same horizon: comparable honest volume.
        let lo = fixed.scenario.honest_sent / 2;
        assert!(
            churned.scenario.honest_sent > lo,
            "churned publishers still publish: {churned:?}"
        );
        // Both stay within the same O(window) bound — churn does not
        // inflate resident state, because expired identities' shares
        // leave with their epochs.
        assert!(fixed.memory_bounded(), "{fixed:?}");
        assert!(churned.memory_bounded(), "{churned:?}");
    }

    /// A wider gap widens the window bound but the memory stays flat
    /// relative to the horizon.
    #[test]
    fn wider_gap_still_bounded() {
        let report = run_steady_state(&SteadyStateConfig {
            epochs: 120,
            thr: 3,
            ..SteadyStateConfig::default()
        });
        assert_eq!(report.window_epochs, 7);
        assert!(report.memory_bounded(), "{report:?}");
        assert_eq!(report.scenario.spammers_detected, 2, "{report:?}");
    }
}
