//! Negative-path coverage for the multi-process simulation driver: the
//! coordinator must turn every worker failure mode into a clean
//! [`ServiceError`] within its configured deadlines — no hang, no
//! partial report. The two modes pinned here:
//!
//! * a worker that **never connects** (the spawned process isn't a
//!   worker at all) → handshake timeout,
//! * a worker that **dies mid-quantum** (exits without replying to a
//!   `Round` frame, via the `WAKU_DIST_EXIT_AFTER_ROUNDS` fault hook)
//!   → worker-exited / broken-stream error from the round loop.
//!
//! Both paths kill the surviving children before returning, so the test
//! process leaks nothing.

use std::time::{Duration, Instant};

use waku_suite::gossip::{CoordinatorOptions, NetworkConfig, SchedulerKind};
use waku_suite::node::ServiceError;
use waku_suite::sim::distributed::ENV_EXIT_AFTER_ROUNDS;
use waku_suite::sim::{
    run_scenario_distributed_with_options, worker_from_env, Defense, ScenarioConfig, WorkerCommand,
};

/// Worker-mode entry for the re-exec'd crash test (see
/// `tests/sim_equivalence.rs` for the pattern). With the exit-after
/// fault hook armed, the worker process calls `std::process::exit(3)`
/// mid-round from inside the session loop — libtest never even reports.
#[test]
fn distributed_worker_entry() {
    if let Some(result) = worker_from_env() {
        result.expect("distributed worker failed");
    }
}

fn small_config() -> ScenarioConfig {
    ScenarioConfig {
        peers: 40,
        spammers: 2,
        duration_ms: 4_000,
        honest_interval_ms: 2_000,
        spam_interval_ms: 500,
        honest_publishers: Some(20),
        defense: Defense::ScoringOnly,
        net: NetworkConfig::builder()
            .degree(6)
            .scheduler(SchedulerKind::Sharded { shards: 4 })
            .build()
            .expect("valid net config"),
        seed: 7,
        ..ScenarioConfig::default()
    }
}

fn assert_transport(err: &ServiceError) {
    assert!(
        matches!(err, ServiceError::Transport { .. }),
        "expected a structured transport error, got: {err}"
    );
}

/// A worker that never speaks the protocol: the coordinator's handshake
/// deadline expires and the run fails with a structured error well
/// before any report could be assembled.
#[test]
fn never_connecting_worker_times_out_cleanly() {
    let cmd = WorkerCommand {
        program: "/bin/sleep".into(),
        args: vec!["30".into()],
        envs: Vec::new(),
    };
    let options = CoordinatorOptions {
        handshake_timeout: Duration::from_secs(1),
        io_timeout: Duration::from_secs(5),
    };
    let start = Instant::now();
    let err = run_scenario_distributed_with_options(&small_config(), 2, &cmd, options)
        .expect_err("a never-connecting worker must fail the run");
    let elapsed = start.elapsed();
    assert_transport(&err);
    let msg = err.to_string();
    assert!(
        msg.contains("handshake") || msg.contains("timed out"),
        "error should name the handshake stage: {msg}"
    );
    // The deadline, not the sleeping child's 30 s, bounds the failure.
    assert!(
        elapsed < Duration::from_secs(15),
        "coordinator hung for {elapsed:?} on a silent worker"
    );
}

/// A worker that crashes mid-quantum — after consuming a `Round` frame
/// but before replying — must surface as a clean error from the round
/// loop within the I/O deadline, never as a hang or a partial report.
#[test]
fn worker_exit_mid_quantum_fails_cleanly() {
    let mut cmd = WorkerCommand::current_exe(vec![
        "distributed_worker_entry".into(),
        "--exact".into(),
        "--test-threads=1".into(),
        "--quiet".into(),
    ])
    .expect("current test binary");
    cmd.envs
        .push((ENV_EXIT_AFTER_ROUNDS.to_string(), "3".to_string()));
    let options = CoordinatorOptions {
        handshake_timeout: Duration::from_secs(30),
        io_timeout: Duration::from_secs(10),
    };
    let start = Instant::now();
    let err = run_scenario_distributed_with_options(&small_config(), 2, &cmd, options)
        .expect_err("a mid-quantum crash must fail the run");
    let elapsed = start.elapsed();
    assert_transport(&err);
    assert!(
        elapsed < Duration::from_secs(60),
        "coordinator hung for {elapsed:?} on a crashed worker"
    );
}
