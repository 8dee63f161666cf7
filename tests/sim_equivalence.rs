//! Scheduler equivalence for the §IV evaluation harness: a seeded
//! scenario must produce a **bit-identical** `ScenarioReport` no matter
//! how it is executed — any shard count, any pool size
//! (`WAKU_POOL_THREADS ∈ {1, 2, 8}` via `with_threads`). The reference is
//! one shard (`shards: Some(1)`): one event queue drained in key order on
//! the calling thread, i.e. the serial engine; partitioning, horizons and
//! outbox draining only run at more shards, and those are what it checks.
//! This is the sim-layer extension of `tests/parallel_equivalence.rs`
//! (which pins the same property for the proving pipeline).
//!
//! The reports compare with `==` across every field, including f64 ratios
//! and latency percentiles — not "statistically close", identical.

use waku_suite::gossip::{
    CrashSpec, FaultPlan, LinkFaults, NetworkConfig, PartitionSpec, SkewSpec,
};
use waku_suite::metrics::Snapshot;
use waku_suite::pool::with_threads;
use waku_suite::sim::{run_scenario, Defense, ScenarioConfig, ScenarioReport};

/// `shards: None` is the default rule (1 shard below 512 peers).
fn config_at(peers: usize, defense: Defense, shards: Option<usize>) -> ScenarioConfig {
    let mut net = NetworkConfig::builder()
        .degree(8)
        .build()
        .expect("valid net config");
    net.shards = shards;
    ScenarioConfig {
        peers,
        spammers: 3,
        duration_ms: 10_000,
        honest_interval_ms: 2_500,
        spam_interval_ms: 400,
        honest_publishers: Some(60),
        defense,
        net,
        seed: 31,
        ..ScenarioConfig::default()
    }
}

fn config(defense: Defense, shards: Option<usize>) -> ScenarioConfig {
    config_at(200, defense, shards)
}

fn report(defense: Defense, shards: Option<usize>, threads: usize) -> ScenarioReport {
    with_threads(threads, || run_scenario(&config(defense, shards)).report)
}

const RLN: Defense = Defense::RlnRelay {
    epoch_secs: 1,
    thr: 1,
};

/// The acceptance criterion: seeded E6 reports are identical to the
/// one-shard (serial) reference at every tested pool size and shard count.
/// The reference's own counts are pinned too: a change that moved every
/// shard count alike would pass the equality checks alone.
#[test]
fn rln_reports_identical_across_schedulers_shards_and_pool_sizes() {
    let reference = report(RLN, Some(1), 1);
    // Sanity: the reference run actually exercises the defense.
    assert!(reference.spam_sent > 0 && reference.honest_sent > 0);
    assert_eq!(reference.spammers_detected, 3, "all spammer keys recovered");
    assert_eq!(
        (
            reference.events_processed,
            reference.bytes_sent,
            reference.honest_delivered,
            reference.spam_delivered,
            reference.validations,
        ),
        (308_645, 89_318_458, 47_685, 5_255, 54_019),
        "seeded counts of the 200-peer reference"
    );

    for threads in [1usize, 2, 8] {
        // One shard must not care about the pool at all.
        assert_eq!(
            reference,
            report(RLN, Some(1), threads),
            "serial @ {threads} threads"
        );
        for shards in [2usize, 8, 25] {
            assert_eq!(
                reference,
                report(RLN, Some(shards), threads),
                "sharded {shards} shards @ {threads} threads"
            );
        }
    }
}

/// The Chandy–Misra horizons must keep cutting barriers: the removed
/// fixed-quantum mode needed 1077 rounds for this seeded config, the
/// horizons on the one link floor (`T_j + w`, own echo `T_i + 2w`) 1074,
/// as did the removed shard-graph horizons — pinned so a regression in
/// the horizon computation shows up as a count, while the report stays
/// `==` serial.
#[test]
fn adaptive_lookahead_cuts_barriers_without_changing_results() {
    let run = with_threads(2, || run_scenario(&config(RLN, Some(8))));
    let (sharded, engine) = (run.report, run.engine);
    assert_eq!(sharded, report(RLN, Some(1), 1));
    assert_eq!(engine.shards, 8);
    assert!(engine.barriers <= 1074, "{} barriers", engine.barriers);
}

/// The default shard rule (`shards: None`) is also equivalent — the
/// setting the examples and benches actually use. 600 peers so it
/// genuinely resolves to several shards (it stays at one below 512);
/// asserted on the run itself, not assumed.
#[test]
fn auto_scheduler_matches_serial() {
    let run = |shards| {
        let run = with_threads(2, || run_scenario(&config_at(600, RLN, shards)));
        (run.report, run.engine)
    };
    let (auto, engine) = run(None);
    assert!(
        engine.shards > 1,
        "test must exercise the default → sharded path"
    );
    assert_eq!(run(Some(1)).0, auto);
}

/// PoW uses publish-time delays instead of validator state; scoring-only
/// has no validators. Both paths must shard identically too.
#[test]
fn other_defenses_shard_identically() {
    let pow = Defense::Pow {
        min_pow: 2.0,
        honest_hashrate: 50.0,
        spammer_hashrate: 50_000.0,
    };
    for defense in [Defense::None, Defense::ScoringOnly, pow] {
        let serial = report(defense, Some(1), 1);
        let sharded = report(defense, Some(8), 4);
        assert_eq!(serial, sharded, "defense {:?}", serial.defense);
    }
}

/// The metrics snapshot shares the report's bit-identity: after dropping
/// the shard-count-dependent counters (the `engine_` name prefix — shards
/// and barriers genuinely differ between shard counts), the merged
/// snapshot of a seeded run is identical to the one-shard reference at
/// every shard count and pool size. This is the
/// order-insensitive-merge guarantee of the fork-join shard recorders,
/// asserted end-to-end rather than on the recorder alone.
#[test]
fn metrics_snapshots_identical_across_schedulers() {
    let strip_engine = |mut snap: Snapshot| {
        snap.retain(|desc| !desc.name.starts_with("engine_"));
        snap
    };
    let run = |shards, threads| {
        let run = with_threads(threads, || run_scenario(&config(RLN, shards)));
        (run.report, run.engine, run.metrics)
    };

    let (reference_report, _, snap) = run(Some(1), 1);
    let reference = strip_engine(snap);
    // The snapshot is live, and the report's counts are read from it.
    assert!(!reference.is_empty());
    assert_eq!(
        reference.scalar("gossip_honest_delivered_total"),
        reference_report.honest_delivered
    );
    let dwell = reference
        .histogram("gossip_event_dwell_ms")
        .expect("dwell histogram registered");
    assert!(dwell.count > 0, "dwell histogram observed events");
    // The `rln_*` series are the production validators' own registries:
    // every validator call reached one (no payload of a seeded scenario
    // is undecodable), and spam was caught by the counter, not beside it.
    assert_eq!(
        reference.scalar("rln_validation_total"),
        reference_report.validations
    );
    assert!(reference.scalar("rln_validation_spam_detected_total") > 0);

    for threads in [2usize, 8] {
        for shards in [2usize, 25] {
            let (report, _, snap) = run(Some(shards), threads);
            assert_eq!(report, reference_report);
            assert_eq!(
                strip_engine(snap),
                reference,
                "sharded {shards} shards @ {threads} threads"
            );
        }
    }
}

/// The fault plane's determinism invariant, end-to-end: faults are drawn
/// from event-keyed hash streams (not dispatch order), so a seeded run
/// under a non-trivial `FaultPlan` — lossy/duplicating/reordering links,
/// a mid-run partition that heals, one peer that crashes and rejoins
/// cold, one that never comes back, and clock skew in both directions —
/// produces a bit-identical `ScenarioReport` AND metrics snapshot at
/// every tested shard count and pool size, one shard the reference. The
/// fault counters themselves ride in the per-peer engine
/// catalogue (stripped below as `engine_`-prefixed), so they are
/// asserted equal explicitly: the *number of faults injected* must not
/// depend on how the simulation was scheduled either.
#[test]
fn fault_plan_runs_identical_across_schedulers() {
    let faulted = |shards| {
        let mut c = config(RLN, shards);
        c.net.faults = FaultPlan {
            seed: 0xF417,
            link: LinkFaults {
                drop_permille: 50,
                duplicate_permille: 30,
                reorder_permille: 40,
                extra_jitter_ms: 30,
                reorder_delay_ms: 25,
            },
            partitions: vec![PartitionSpec {
                start_ms: 5_000,
                end_ms: 9_000,
                cut: 40,
            }],
            crashes: vec![
                CrashSpec {
                    peer: 70,
                    crash_ms: 4_000,
                    restart_ms: 8_000,
                },
                CrashSpec {
                    peer: 71,
                    crash_ms: 6_000,
                    restart_ms: u64::MAX,
                },
            ],
            skews: vec![
                SkewSpec {
                    peer: 80,
                    at_ms: 3_500,
                    delta_ms: 700,
                },
                SkewSpec {
                    peer: 81,
                    at_ms: 6_000,
                    delta_ms: -1_500,
                },
            ],
        };
        c
    };
    let strip_engine = |mut snap: Snapshot| {
        snap.retain(|desc| !desc.name.starts_with("engine_"));
        snap
    };
    let run = |shards, threads: usize| {
        let run = with_threads(threads, || run_scenario(&faulted(shards)));
        (run.report, run.engine, run.metrics)
    };

    let (reference_report, _, reference_snap) = run(Some(1), 1);
    // Sanity: every fault class actually fired in the reference run.
    let reference_dropped = reference_snap.scalar("engine_msgs_dropped_fault");
    assert!(reference_dropped > 0, "link faults never bit");
    assert_eq!(
        reference_snap.scalar("peer_restarts"),
        1,
        "one crash rejoins, the other never does"
    );
    assert_eq!(reference_snap.scalar("partition_heals"), 1);
    assert_eq!(
        reference_report.post_window_from_ms, 9_000,
        "post window opens at the partition heal (the never-ending crash is ignored)"
    );
    assert!(reference_report.honest_delivered > 0);
    let reference = strip_engine(reference_snap);

    for threads in [1usize, 2, 8] {
        let (serial_report, _, serial_snap) = run(Some(1), threads);
        assert_eq!(
            reference_report, serial_report,
            "serial @ {threads} threads"
        );
        assert_eq!(
            serial_snap.scalar("engine_msgs_dropped_fault"),
            reference_dropped,
            "serial @ {threads} threads"
        );
        assert_eq!(serial_snap.scalar("partition_heals"), 1);
        assert_eq!(reference, strip_engine(serial_snap));
        for shards in [2usize, 8, 25] {
            let (report, _, snap) = run(Some(shards), threads);
            assert_eq!(
                reference_report, report,
                "sharded {shards} shards @ {threads} threads"
            );
            assert_eq!(
                snap.scalar("engine_msgs_dropped_fault"),
                reference_dropped,
                "fault injection count depends on scheduling: {shards} shards @ {threads} threads"
            );
            assert_eq!(
                snap.scalar("partition_heals"),
                1,
                "plan-derived heal count added exactly once: {shards} shards @ {threads} threads"
            );
            assert_eq!(
                strip_engine(snap),
                reference,
                "sharded {shards} shards @ {threads} threads"
            );
        }
    }
}

/// Re-running the same sharded configuration is reproducible (the weaker
/// property, but the one users hit first when a seed "doesn't work").
#[test]
fn sharded_runs_are_self_reproducible() {
    let a = report(RLN, Some(8), 4);
    let b = report(RLN, Some(8), 4);
    assert_eq!(a, b);
}
