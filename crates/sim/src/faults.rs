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
//!
//! A fault scenario is a plain [`ScenarioConfig`] with `net.faults` set,
//! run by [`crate::run_scenario`]. The gates here read its
//! [`ScenarioReport`]; the fault-plane counters (`engine_msgs_dropped_fault`,
//! `peer_restarts`, `partition_heals`, `rln_out_of_window_total`) are
//! scalars of the run's metrics snapshot — the same counters the
//! Prometheus exposition carries. Every run is seeded: a fault scenario
//! is bit-identical at every shard count (asserted in
//! `tests/sim_equivalence.rs`).
//!
//! The skew gate's counter is `rln_validation_epoch_dropped_total`:
//! routers run the production validator, whose epoch is monotone, so
//! skew past `Thr·T` in either direction — a backward step included — is
//! an epoch-gap drop, and `rln_out_of_window_total` stays at zero.

use waku_gossip::{CrashSpec, PeerId};

use crate::report::ScenarioReport;
use crate::scenario::ScenarioConfig;

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

/// Graceful containment relative to a fault-free baseline: faults must
/// not open a spam channel wider than [`SPAM_CONTAINMENT_SLACK`] beyond
/// what the defense already lets through.
pub fn spam_contained(report: &ScenarioReport, baseline: &ScenarioReport) -> bool {
    report.spam_delivery_ratio <= baseline.spam_delivery_ratio + SPAM_CONTAINMENT_SLACK
}

/// Re-convergence: honest messages published after the last heal /
/// rejoin reach at least [`POST_DISRUPTION_HONEST_FLOOR`].
pub fn reconverged(report: &ScenarioReport) -> bool {
    report.post_honest_delivery_ratio >= POST_DISRUPTION_HONEST_FLOOR
}

/// The drop-rate degradation curve over `base`: one config per
/// [`DROP_SWEEP_PERMILLE`] level, its link faults drawn from one fixed
/// fault seed. The base config's partitions / crashes / skews, if any,
/// ride along unchanged.
pub fn drop_sweep(base: &ScenarioConfig) -> Vec<(u16, ScenarioConfig)> {
    DROP_SWEEP_PERMILLE
        .iter()
        .map(|&drop_permille| {
            let mut config = base.clone();
            config.net.faults.seed = 0xE9;
            config.net.faults.link.drop_permille = drop_permille;
            (drop_permille, config)
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
    use crate::scenario::{run_scenario, Defense, ScenarioRun};
    use waku_gossip::{FaultPlan, PartitionSpec, SkewSpec};

    /// The E6-style RLN workload every E9 test runs: 30 peers, 2
    /// spammers, `T` = 1 s, `Thr` = 1, under `plan`.
    fn e9(plan: FaultPlan) -> ScenarioConfig {
        let mut config = ScenarioConfig {
            peers: 30,
            spammers: 2,
            duration_ms: 20_000,
            honest_interval_ms: 4_000,
            spam_interval_ms: 400,
            defense: Defense::RlnRelay {
                epoch_secs: 1,
                thr: 1,
            },
            seed: 7,
            ..ScenarioConfig::default()
        };
        config.net.faults = plan;
        config
    }

    fn run(plan: FaultPlan) -> ScenarioRun {
        run_scenario(&e9(plan))
    }

    fn fault_free() -> ScenarioRun {
        run(FaultPlan::default())
    }

    fn dropped(run: &ScenarioRun) -> u64 {
        run.metrics.scalar("engine_msgs_dropped_fault")
    }

    /// E9 gate 1: the drop-rate degradation curve is graceful. Honest
    /// delivery decays smoothly (mesh redundancy absorbs independent
    /// loss), spam containment never opens past the slack, and key
    /// recovery survives the whole sweep.
    #[test]
    fn drop_sweep_degrades_gracefully() {
        let sweep: Vec<(u16, ScenarioRun)> = drop_sweep(&e9(FaultPlan::default()))
            .into_iter()
            .map(|(permille, config)| (permille, run_scenario(&config)))
            .collect();
        let baseline = &sweep[0].1;
        assert_eq!(dropped(baseline), 0, "0‰ really is fault-free");
        assert!(baseline.report.honest_delivery_ratio > 0.8);
        for (permille, run) in &sweep {
            assert!(
                run.report.honest_delivery_ratio >= HONEST_FLOOR_AT_MAX_DROP,
                "honest delivery collapsed at {permille}‰: {:?}",
                run.report
            );
            assert!(
                spam_contained(&run.report, &baseline.report),
                "containment opened at {permille}‰: {} vs baseline {}",
                run.report.spam_delivery_ratio,
                baseline.report.spam_delivery_ratio,
            );
            assert_eq!(
                run.report.spammers_detected, 2,
                "key recovery must survive {permille}‰ drop"
            );
            if *permille > 0 {
                assert!(
                    dropped(run) > 0,
                    "{permille}‰ must actually drop transmissions"
                );
            }
        }
        // The curve is a curve: more drop ⇒ (weakly) more faulted msgs.
        for pair in sweep.windows(2) {
            assert!(dropped(&pair[1].1) > dropped(&pair[0].1));
        }
    }

    /// E9 gate 2: a mid-run bisection blocks cross-cut traffic while it
    /// holds, then heals — and post-heal delivery re-converges.
    #[test]
    fn partition_heals_and_reconverges() {
        let run = run(FaultPlan {
            partitions: vec![PartitionSpec {
                start_ms: 6_000,
                end_ms: 14_000,
                cut: 15,
            }],
            ..FaultPlan::default()
        });
        assert_eq!(run.metrics.scalar("partition_heals"), 1);
        assert!(dropped(&run) > 0, "the cut must sever real traffic");
        // During the cut, cross-partition first-deliveries are lost.
        assert!(
            run.report.honest_delivery_ratio < fault_free().report.honest_delivery_ratio,
            "{:?}",
            run.report
        );
        // After the heal the network recovers: messages published past
        // end_ms propagate near fault-free.
        assert_eq!(run.report.post_window_from_ms, 14_000);
        assert!(reconverged(&run.report), "{:?}", run.report);
        assert_eq!(run.report.spammers_detected, 2);
    }

    /// E9 gate 3: rolling churn — routers crash and rejoin cold with
    /// nullifier state restored from snapshot. Containment and key
    /// recovery hold through the churn, and the network re-converges
    /// after the last rejoin.
    #[test]
    fn rolling_churn_restores_state_and_reconverges() {
        let run = run(FaultPlan {
            // Peers 10..14 (honest routers) each down 2 s, staggered.
            crashes: rolling_churn(10, 4, 5_000, 2_000, 2_500),
            ..FaultPlan::default()
        });
        assert_eq!(
            run.metrics.scalar("peer_restarts"),
            4,
            "every crashed peer rejoined"
        );
        assert!(dropped(&run) > 0, "downtime drops arrivals");
        // last crash at 12.5 s + 2 s down = rejoin at 14.5 s.
        assert_eq!(run.report.post_window_from_ms, 14_500);
        assert!(reconverged(&run.report), "{:?}", run.report);
        // The rate limit survived every restart: containment and key
        // recovery look like the fault-free run's.
        assert!(spam_contained(&run.report, &fault_free().report));
        assert_eq!(run.report.spammers_detected, 2);
    }

    /// Satellite-1's bound, demonstrated end-to-end: a publisher skewed
    /// forward by exactly `Thr·T` still gets every message accepted; one
    /// skewed past the next epoch boundary gets none through.
    #[test]
    fn skew_at_the_tolerance_bound_is_harmless_beyond_it_collapses() {
        let epoch_ms = 1_000; // epoch_secs = 1
        let thr = 1u64; // e9()'s Thr
        let bound_ms = (thr * epoch_ms) as i64; // Thr·T = 1 s
        let publisher = 2; // the single honest publisher (after 2 spammers)
        let run = |skew_ms: i64| {
            let mut config = e9(FaultPlan {
                skews: vec![SkewSpec {
                    peer: publisher,
                    at_ms: 0,
                    delta_ms: skew_ms,
                }],
                ..FaultPlan::default()
            });
            config.honest_publishers = Some(1);
            run_scenario(&config).report
        };
        let at_bound = run(bound_ms);
        assert!(
            at_bound.honest_delivery_ratio > 0.8,
            "skew ≤ Thr·T must be tolerated: {at_bound:?}"
        );
        // The bound is on delay + skew, and the two *add* only when the
        // clock runs slow (a fast clock's head start is eaten by
        // propagation delay — late IWANT re-fetches can re-enter the
        // gap). So the harsh direction is backwards: at −(Thr + 2)·T
        // even a zero-delay arrival is Thr + 2 epochs stale, and every
        // extra hop only widens the gap — nothing gets through.
        let beyond = run(-(bound_ms + 2 * epoch_ms as i64));
        assert!(
            beyond.honest_delivery_ratio < 0.05,
            "skew past the bound must bounce everything: {beyond:?}"
        );
        // Spam containment (from unskewed spammers) is untouched.
        assert_eq!(at_bound.spammers_detected, 2);
        assert_eq!(beyond.spammers_detected, 2);
    }

    /// Backward skew under the shared pipeline: a publisher and a router
    /// both stepped back three epochs. The router's epoch is monotone —
    /// the highest its clock ever reached — so it goes on judging the
    /// gap against that, exactly as its store's window does: the
    /// publisher's old stamps are epoch-gap drops, and the window edge is
    /// never reached.
    #[test]
    fn backward_skew_is_an_epoch_gap_drop() {
        let skewed = |plan: FaultPlan| {
            let mut config = e9(plan);
            config.honest_publishers = Some(1);
            run_scenario(&config)
        };
        let run = skewed(FaultPlan {
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
        });
        let epoch_dropped =
            |r: &ScenarioRun| r.metrics.scalar("rln_validation_epoch_dropped_total");
        assert!(
            epoch_dropped(&run) > epoch_dropped(&fault_free()),
            "the stale stamps must bounce off the gap check: {:?}",
            run.report
        );
        assert_eq!(
            run.metrics.scalar("rln_out_of_window_total"),
            0,
            "gap and window never disagree"
        );
        assert_eq!(run.report.spammers_detected, 2);
    }
}
