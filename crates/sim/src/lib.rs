//! # waku-sim
//!
//! Scenario harness driving the paper's evaluation (§IV): the same
//! network, workload, and attacker under each spam defense, with
//! deterministic seeds and aggregated reports.
//!
//! * [`scenario`] — defense-comparison runs (experiments E6, E10),
//! * [`baselines`] — the two defenses the paper compares against (§I):
//!   Whisper PoW and GossipSub peer scoring alone,
//! * [`acceptor`] — the production §III-F validator behind the gossip
//!   validation hook, with a tagged or a real proof step,
//! * [`epoch_gap`] — `Thr` sensitivity sweeps (experiment E7, ablation A4),
//! * [`steady_state`] — long-horizon multi-epoch runs with publisher
//!   churn (experiment E7b: the nullifier-lifecycle memory bound),
//! * [`faults`] — graceful-degradation runs under the deterministic
//!   fault plane: link loss, partitions, churn, clock skew
//!   (experiment E9),
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
    rolling_churn, run_drop_sweep, run_fault_scenario, FaultReport, FaultScenarioConfig,
    DROP_SWEEP_PERMILLE, HONEST_FLOOR_AT_MAX_DROP, POST_DISRUPTION_HONEST_FLOOR,
    SPAM_CONTAINMENT_SLACK,
};
pub use report::{percentile, ScenarioReport};
pub use scenario::{
    run_scenario, run_scenario_instrumented, run_scenario_with_metrics, Defense, EngineStats,
    ScenarioConfig,
};
pub use soak::{run_soak, SoakConfig, SoakReport, SoakRestart, SoakSample};
pub use steady_state::{run_steady_state, SteadyStateConfig, SteadyStateReport};
