//! # waku-sim
//!
//! Scenario harness driving the paper's evaluation (§IV): the same
//! network, workload, and attacker under each spam defense, with
//! deterministic seeds and aggregated reports.
//!
//! Every experiment is one seeded [`ScenarioConfig`] under different
//! settings, and [`run_scenario`] is the one way to run it: it returns a
//! [`ScenarioRun`] — the shard-independent [`ScenarioReport`], the
//! engine's [`EngineStats`] and the full metrics snapshot. The modules
//! below build configs and judge runs; none of them runs a scenario a
//! second way.
//!
//! * [`scenario`] — defense-comparison runs (experiments E6, E10),
//! * [`baselines`] — the two defenses the paper compares against (§I):
//!   Whisper PoW and GossipSub peer scoring alone,
//! * [`acceptor`] — the production §III-F validator behind the gossip
//!   validation hook, with a tagged or a real proof step,
//! * [`epoch_gap`] — `Thr` sensitivity sweeps (experiment E7, ablation A4),
//! * [`steady_state`] — the long-horizon multi-epoch schedule with
//!   publisher churn and its O(window) bound (experiment E7b: the
//!   nullifier-lifecycle memory bound),
//! * [`faults`] — the gates, drop curve and churn timelines of
//!   graceful-degradation runs under the deterministic fault plane: link
//!   loss, partitions, churn, clock skew (experiment E9),
//! * [`soak`] — operational soak of the real `waku-node` service on a
//!   simulated clock: flat memory over hours, kill-and-restart
//!   recovery,
//! * [`report`] — metrics aggregation and markdown tables.

pub mod acceptor;
pub mod baselines;
pub mod epoch_gap;
pub mod faults;
pub mod report;
pub mod scenario;
pub mod soak;
pub mod steady_state;

pub use acceptor::{DetectionLog, ProofStep, RlnAcceptor, TaggedProof};
pub use epoch_gap::{sweep_thr, EpochGapPoint};
pub use faults::{
    drop_sweep, reconverged, rolling_churn, spam_contained, DROP_SWEEP_PERMILLE,
    HONEST_FLOOR_AT_MAX_DROP, POST_DISRUPTION_HONEST_FLOOR, SPAM_CONTAINMENT_SLACK,
};
pub use report::{percentile, ScenarioReport};
pub use scenario::{
    run_scenario, run_scenario_instrumented, Defense, EngineStats, ScenarioConfig, ScenarioRun,
};
pub use soak::{run_soak, SoakConfig, SoakReport, SoakRestart};
pub use steady_state::SteadyStateConfig;
