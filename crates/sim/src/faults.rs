//! Experiment E9: **graceful degradation** under deterministic fault
//! injection — the spam-protection guarantees of E6/E10, re-measured on a
//! network with lossy links, partitions, crashing peers, and skewed
//! clocks (`waku_gossip::FaultPlan`).
//!
//! The claim under test is *graceful*, not *unaffected*: as drop rate,
//! partition length, or churn grows, honest delivery may sag and spam
//! containment may loosen, but neither collapses, spammer key recovery
//! keeps working, and once the last disruption ends (final partition
//! heal / final peer rejoin) delivery re-converges to near fault-free.
//! Every gate in this module reads the `waku-metrics` snapshot of the
//! run — the same counters the Prometheus exposition carries — and every
//! run is seeded: a fault scenario is bit-identical at every shard count
//! (asserted in `tests/sim_equivalence.rs`).
//!
//! The skew gate's counter is `rln_validation_epoch_dropped_total`:
//! routers run the production validator, whose epoch is monotone, so
//! skew past `Thr·T` in either direction — a backward step included — is
//! an epoch-gap drop, and `rln_out_of_window_total` stays at zero.

use waku_gossip::{CrashSpec, FaultPlan, NetworkConfig, PeerId};
use waku_metrics::Snapshot;

use crate::report::ScenarioReport;
use crate::scenario::{run_scenario_with_metrics, Defense, EngineStats, ScenarioConfig};

/// The E9 drop-rate degradation curve, in permille per transmission.
pub const DROP_SWEEP_PERMILLE: [u16; 4] = [0, 50, 100, 200];

/// Graceful-containment gate: at any drop rate on the sweep, the spam
/// delivery ratio may exceed the fault-free baseline's by at most this.
pub const SPAM_CONTAINMENT_SLACK: f64 = 0.10;

/// Graceful-delivery gate: even at the top of the sweep (20% drop),
/// honest delivery stays above this floor (mesh redundancy absorbs
/// independent link loss long before it reaches this line).
pub const HONEST_FLOOR_AT_MAX_DROP: f64 = 0.60;

/// Re-convergence gate: honest messages published after the last
/// disruption ends must reach at least this delivery ratio.
pub const POST_DISRUPTION_HONEST_FLOOR: f64 = 0.80;

/// Parameters of one fault scenario: the E6-style RLN workload plus a
/// seeded [`FaultPlan`].
#[derive(Clone, Debug)]
pub struct FaultScenarioConfig {
    /// Total peers (the first `spammers` of them are attackers).
    pub peers: usize,
    /// Sustained spammers.
    pub spammers: usize,
    /// Simulated duration (ms) after the mesh warm-up.
    pub duration_ms: u64,
    /// Mean gap between honest publishes per active publisher (ms).
    pub honest_interval_ms: u64,
    /// Mean gap between spam publishes per spammer (ms).
    pub spam_interval_ms: u64,
    /// Epoch length `T` in seconds.
    pub epoch_secs: u64,
    /// Maximum epoch gap `Thr`.
    pub thr: u64,
    /// Determinism seed (network + workload; the fault plan carries its
    /// own independent seed).
    pub seed: u64,
    /// How many honest peers publish (`None` = all) — the skew scenarios
    /// pin this to `Some(1)` so one peer's clock tells a clean story.
    pub honest_publishers: Option<usize>,
    /// The fault plan under test.
    pub plan: FaultPlan,
}

impl Default for FaultScenarioConfig {
    fn default() -> Self {
        FaultScenarioConfig {
            peers: 30,
            spammers: 2,
            duration_ms: 20_000,
            honest_interval_ms: 4_000,
            spam_interval_ms: 400,
            epoch_secs: 1,
            thr: 1,
            seed: 7,
            honest_publishers: None,
            plan: FaultPlan::default(),
        }
    }
}

/// Outcome of one fault scenario: the scenario report plus the
/// fault-plane counters pulled from the metrics snapshot.
#[derive(Clone, Debug)]
pub struct FaultReport {
    /// The defense-comparison report of the underlying run (including
    /// the post-disruption re-convergence counters).
    pub scenario: ScenarioReport,
    /// Engine instrumentation (shards, barriers, nullifier gauges).
    pub engine: EngineStats,
    /// Full metrics snapshot — render with
    /// [`Snapshot::render_prometheus`] or [`Snapshot::to_json`].
    pub metrics: Snapshot,
    /// Transmissions dropped by the fault plane (link drops, partition
    /// cuts, crashed receivers): `engine_msgs_dropped_fault`.
    pub msgs_dropped_fault: u64,
    /// Peers that rejoined after a scheduled crash: `peer_restarts`.
    pub peer_restarts: u64,
    /// Partitions healed by run end: `partition_heals`.
    pub partition_heals: u64,
    /// Rate checks refused at the nullifier window's edge:
    /// `rln_out_of_window_total`. Zero in every run — the gap check and
    /// the store window judge against the same monotone epoch, so skew
    /// past the tolerance bound, backward steps included, is dropped by
    /// the gap check and counted on `rln_validation_epoch_dropped_total`
    /// (in [`FaultReport::metrics`]). Non-zero would mean the two bounds
    /// came apart.
    pub out_of_window: u64,
}

impl FaultReport {
    /// Graceful containment relative to a fault-free baseline: faults
    /// must not open a spam channel wider than
    /// [`SPAM_CONTAINMENT_SLACK`] beyond what the defense already lets
    /// through.
    pub fn spam_contained_vs(&self, baseline: &FaultReport) -> bool {
        self.scenario.spam_delivery_ratio
            <= baseline.scenario.spam_delivery_ratio + SPAM_CONTAINMENT_SLACK
    }

    /// Re-convergence: honest messages published after the last heal /
    /// rejoin reach at least [`POST_DISRUPTION_HONEST_FLOOR`].
    pub fn reconverged(&self) -> bool {
        self.scenario.post_honest_delivery_ratio >= POST_DISRUPTION_HONEST_FLOOR
    }

    /// One markdown row for degradation tables (pair with a label naming
    /// the fault level, e.g. `"drop 10%"`).
    pub fn table_row(&self, label: &str) -> String {
        format!(
            "| {} | {:.3} | {:.3} | {:.3} | {} | {} | {} | {} | {} |",
            label,
            self.scenario.honest_delivery_ratio,
            self.scenario.spam_delivery_ratio,
            self.scenario.post_honest_delivery_ratio,
            self.scenario.spammers_detected,
            self.msgs_dropped_fault,
            self.peer_restarts,
            self.partition_heals,
            self.out_of_window,
        )
    }

    /// Header matching [`FaultReport::table_row`].
    pub fn table_header() -> String {
        "| fault | honest delivery | spam delivery | post-disruption honest | spammers caught | faulted msgs | restarts | heals | out-of-window |\n|---|---|---|---|---|---|---|---|---|".to_string()
    }
}

/// Translates the fault parameters into a [`ScenarioConfig`] — public so
/// experiment binaries can tweak the workload further.
pub fn scenario_config(config: &FaultScenarioConfig) -> ScenarioConfig {
    ScenarioConfig {
        peers: config.peers,
        spammers: config.spammers,
        duration_ms: config.duration_ms,
        honest_interval_ms: config.honest_interval_ms,
        spam_interval_ms: config.spam_interval_ms,
        defense: Defense::RlnRelay {
            epoch_secs: config.epoch_secs,
            thr: config.thr,
        },
        seed: config.seed,
        honest_publishers: config.honest_publishers,
        net: NetworkConfig::builder()
            .faults(config.plan.clone())
            .build()
            .expect("valid net config"),
        ..ScenarioConfig::default()
    }
}

/// Runs one fault scenario and extracts the fault-plane counters from
/// the metrics snapshot.
pub fn run_fault_scenario(config: &FaultScenarioConfig) -> FaultReport {
    let (scenario, engine, metrics) = run_scenario_with_metrics(&scenario_config(config));
    FaultReport {
        msgs_dropped_fault: metrics.scalar("engine_msgs_dropped_fault"),
        peer_restarts: metrics.scalar("peer_restarts"),
        partition_heals: metrics.scalar("partition_heals"),
        out_of_window: metrics.scalar("rln_out_of_window_total"),
        scenario,
        engine,
        metrics,
    }
}

/// Runs the drop-rate degradation curve: the same seeded scenario under
/// each [`DROP_SWEEP_PERMILLE`] level (the base config's partitions /
/// crashes / skews, if any, ride along unchanged).
pub fn run_drop_sweep(base: &FaultScenarioConfig) -> Vec<(u16, FaultReport)> {
    DROP_SWEEP_PERMILLE
        .iter()
        .map(|&drop_permille| {
            let mut config = base.clone();
            config.plan.link.drop_permille = drop_permille;
            (drop_permille, run_fault_scenario(&config))
        })
        .collect()
}

/// A rolling-churn timeline: `count` peers starting at `first_peer`
/// crash one after another, each down for `down_ms`, staggered
/// `stagger_ms` apart (so at most ⌈down/stagger⌉ are dark at once).
pub fn rolling_churn(
    first_peer: PeerId,
    count: usize,
    first_crash_ms: u64,
    down_ms: u64,
    stagger_ms: u64,
) -> Vec<CrashSpec> {
    (0..count)
        .map(|i| {
            let crash_ms = first_crash_ms + i as u64 * stagger_ms;
            CrashSpec {
                peer: first_peer + i,
                crash_ms,
                restart_ms: crash_ms + down_ms,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use waku_gossip::{PartitionSpec, SkewSpec};

    fn fault_free() -> FaultReport {
        run_fault_scenario(&FaultScenarioConfig::default())
    }

    /// E9 gate 1: the drop-rate degradation curve is graceful. Honest
    /// delivery decays smoothly (mesh redundancy absorbs independent
    /// loss), spam containment never opens past the slack, and key
    /// recovery survives the whole sweep.
    #[test]
    fn drop_sweep_degrades_gracefully() {
        let base = FaultScenarioConfig {
            plan: FaultPlan {
                seed: 0xE9,
                ..FaultPlan::default()
            },
            ..FaultScenarioConfig::default()
        };
        let sweep = run_drop_sweep(&base);
        let baseline = &sweep[0].1;
        assert_eq!(baseline.msgs_dropped_fault, 0, "0‰ really is fault-free");
        assert!(baseline.scenario.honest_delivery_ratio > 0.8);
        for (permille, report) in &sweep {
            assert!(
                report.scenario.honest_delivery_ratio >= HONEST_FLOOR_AT_MAX_DROP,
                "honest delivery collapsed at {permille}‰: {:?}",
                report.scenario
            );
            assert!(
                report.spam_contained_vs(baseline),
                "containment opened at {permille}‰: {} vs baseline {}",
                report.scenario.spam_delivery_ratio,
                baseline.scenario.spam_delivery_ratio,
            );
            assert_eq!(
                report.scenario.spammers_detected, 2,
                "key recovery must survive {permille}‰ drop"
            );
            if *permille > 0 {
                assert!(
                    report.msgs_dropped_fault > 0,
                    "{permille}‰ must actually drop transmissions"
                );
            }
        }
        // The curve is a curve: more drop ⇒ (weakly) more faulted msgs.
        for pair in sweep.windows(2) {
            assert!(pair[1].1.msgs_dropped_fault > pair[0].1.msgs_dropped_fault);
        }
    }

    /// E9 gate 2: a mid-run bisection blocks cross-cut traffic while it
    /// holds, then heals — and post-heal delivery re-converges.
    #[test]
    fn partition_heals_and_reconverges() {
        let report = run_fault_scenario(&FaultScenarioConfig {
            plan: FaultPlan {
                partitions: vec![PartitionSpec {
                    start_ms: 6_000,
                    end_ms: 14_000,
                    cut: 15,
                }],
                ..FaultPlan::default()
            },
            ..FaultScenarioConfig::default()
        });
        assert_eq!(report.partition_heals, 1);
        assert!(
            report.msgs_dropped_fault > 0,
            "the cut must sever real traffic"
        );
        // During the cut, cross-partition first-deliveries are lost.
        assert!(
            report.scenario.honest_delivery_ratio < fault_free().scenario.honest_delivery_ratio,
            "{:?}",
            report.scenario
        );
        // After the heal the network recovers: messages published past
        // end_ms propagate near fault-free.
        assert_eq!(report.scenario.post_window_from_ms, 14_000);
        assert!(report.reconverged(), "{:?}", report.scenario);
        assert_eq!(report.scenario.spammers_detected, 2);
    }

    /// E9 gate 3: rolling churn — routers crash and rejoin cold with
    /// nullifier state restored from snapshot. Containment and key
    /// recovery hold through the churn, and the network re-converges
    /// after the last rejoin.
    #[test]
    fn rolling_churn_restores_state_and_reconverges() {
        let report = run_fault_scenario(&FaultScenarioConfig {
            plan: FaultPlan {
                // Peers 10..14 (honest routers) each down 2 s, staggered.
                crashes: rolling_churn(10, 4, 5_000, 2_000, 2_500),
                ..FaultPlan::default()
            },
            ..FaultScenarioConfig::default()
        });
        assert_eq!(report.peer_restarts, 4, "every crashed peer rejoined");
        assert!(report.msgs_dropped_fault > 0, "downtime drops arrivals");
        // last crash at 12.5 s + 2 s down = rejoin at 14.5 s.
        assert_eq!(report.scenario.post_window_from_ms, 14_500);
        assert!(report.reconverged(), "{:?}", report.scenario);
        // The rate limit survived every restart: containment and key
        // recovery look like the fault-free run's.
        assert!(report.spam_contained_vs(&fault_free()));
        assert_eq!(report.scenario.spammers_detected, 2);
    }

    /// Satellite-1's bound, demonstrated end-to-end: a publisher skewed
    /// forward by exactly `Thr·T` still gets every message accepted; one
    /// skewed past the next epoch boundary gets none through.
    #[test]
    fn skew_at_the_tolerance_bound_is_harmless_beyond_it_collapses() {
        let epoch_ms = 1_000; // epoch_secs = 1
        let thr = 1u64;
        let bound_ms = (thr * epoch_ms) as i64; // Thr·T = 1 s
        let publisher = 2; // the single honest publisher (after 2 spammers)
        let run = |skew_ms: i64| {
            run_fault_scenario(&FaultScenarioConfig {
                honest_publishers: Some(1),
                thr,
                plan: FaultPlan {
                    skews: vec![SkewSpec {
                        peer: publisher,
                        at_ms: 0,
                        delta_ms: skew_ms,
                    }],
                    ..FaultPlan::default()
                },
                ..FaultScenarioConfig::default()
            })
        };
        let at_bound = run(bound_ms);
        assert!(
            at_bound.scenario.honest_delivery_ratio > 0.8,
            "skew ≤ Thr·T must be tolerated: {:?}",
            at_bound.scenario
        );
        // The bound is on delay + skew, and the two *add* only when the
        // clock runs slow (a fast clock's head start is eaten by
        // propagation delay — late IWANT re-fetches can re-enter the
        // gap). So the harsh direction is backwards: at −(Thr + 2)·T
        // even a zero-delay arrival is Thr + 2 epochs stale, and every
        // extra hop only widens the gap — nothing gets through.
        let beyond = run(-(bound_ms + 2 * epoch_ms as i64));
        assert!(
            beyond.scenario.honest_delivery_ratio < 0.05,
            "skew past the bound must bounce everything: {:?}",
            beyond.scenario
        );
        // Spam containment (from unskewed spammers) is untouched.
        assert_eq!(at_bound.scenario.spammers_detected, 2);
        assert_eq!(beyond.scenario.spammers_detected, 2);
    }

    /// Backward skew under the shared pipeline: a publisher and a router
    /// both stepped back three epochs. The router's epoch is monotone —
    /// the highest its clock ever reached — so it goes on judging the
    /// gap against that, exactly as its store's window does: the
    /// publisher's old stamps are epoch-gap drops, and the window edge is
    /// never reached.
    #[test]
    fn backward_skew_is_an_epoch_gap_drop() {
        let report = run_fault_scenario(&FaultScenarioConfig {
            honest_publishers: Some(1),
            plan: FaultPlan {
                skews: vec![
                    SkewSpec {
                        peer: 2, // the publisher: stamps old epochs
                        at_ms: 10_000,
                        delta_ms: -3_000,
                    },
                    SkewSpec {
                        peer: 3, // a router: its clock steps back too
                        at_ms: 10_000,
                        delta_ms: -3_000,
                    },
                ],
                ..FaultPlan::default()
            },
            ..FaultScenarioConfig::default()
        });
        let epoch_dropped =
            |r: &FaultReport| r.metrics.scalar("rln_validation_epoch_dropped_total");
        assert!(
            epoch_dropped(&report) > epoch_dropped(&fault_free()),
            "the stale stamps must bounce off the gap check: {report:?}"
        );
        assert_eq!(report.out_of_window, 0, "gap and window never disagree");
        assert_eq!(report.scenario.spammers_detected, 2);
    }
}
