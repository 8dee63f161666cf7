//! E9: graceful degradation under the deterministic fault plane — the
//! RLN containment scenario re-run over lossy links, a healing
//! partition, and rolling peer churn, producing the degradation table
//! the README cites.
//!
//! ```text
//! exp_fault_sweep [--peers N] [--duration-ms MS] [--json PATH] [--prom PATH]
//! ```
//!
//! Defaults to `--peers 1000` (the CI smoke run). The matrix is fixed:
//! the drop-rate curve {0, 5, 10, 20}% plus one mid-run partition
//! scenario and one rolling-churn scenario, all seeded — every point is
//! bit-identical across shard counts and re-runs. `--json PATH` writes the
//! per-point records (ratios, fault counters, and each run's full
//! metrics snapshot); `--prom PATH` writes each point's metrics in
//! Prometheus text exposition.
//!
//! Degradation must be *graceful*: the run fails (exit 2) if any point's
//! spam delivery exceeds the fault-free baseline's by more than the
//! containment slack, if honest delivery collapses at the top of the
//! drop curve, or if delivery fails to re-converge after the last heal /
//! rejoin.

use std::process::ExitCode;
use std::time::Instant;

use waku_gossip::{FaultPlan, PartitionSpec};
use waku_sim::faults::{
    rolling_churn, run_fault_scenario, FaultReport, FaultScenarioConfig, DROP_SWEEP_PERMILLE,
    HONEST_FLOOR_AT_MAX_DROP, SPAM_CONTAINMENT_SLACK,
};

/// One matrix point, as printed and as serialized into the JSON report.
struct MatrixPoint {
    label: String,
    /// Does this point's plan end (heal / rejoin) before the run does —
    /// i.e. is the re-convergence gate meaningful?
    gate_reconvergence: bool,
    report: FaultReport,
    wall_secs: f64,
}

impl MatrixPoint {
    fn to_json(&self) -> String {
        let s = &self.report.scenario;
        format!(
            "    {{\"label\": \"{}\", \"wall_secs\": {:.3}, \
             \"honest_delivery\": {:.4}, \"spam_delivery\": {:.4}, \
             \"post_honest_delivery\": {:.4}, \"spammers_detected\": {}, \
             \"msgs_dropped_fault\": {}, \"peer_restarts\": {}, \
             \"partition_heals\": {}, \"out_of_window\": {}, \
             \"metrics\": {}}}",
            self.label,
            self.wall_secs,
            s.honest_delivery_ratio,
            s.spam_delivery_ratio,
            s.post_honest_delivery_ratio,
            s.spammers_detected,
            self.report.msgs_dropped_fault,
            self.report.peer_restarts,
            self.report.partition_heals,
            self.report.out_of_window,
            self.report.metrics.to_json()
        )
    }
}

fn base_config(peers: usize, duration_ms: u64) -> FaultScenarioConfig {
    FaultScenarioConfig {
        peers,
        spammers: 5.min(peers / 10).max(1),
        duration_ms,
        honest_interval_ms: 5_000,
        spam_interval_ms: 500,
        honest_publishers: Some(100.min(peers)),
        seed: 2024,
        ..FaultScenarioConfig::default()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut peers = 1_000usize;
    let mut duration_ms = 15_000u64;
    let mut json_path: Option<String> = None;
    let mut prom_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--peers" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 20 => peers = n,
                _ => {
                    eprintln!("--peers needs a count ≥ 20");
                    return ExitCode::FAILURE;
                }
            },
            "--duration-ms" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(ms) => duration_ms = ms,
                None => {
                    eprintln!("--duration-ms needs a number");
                    return ExitCode::FAILURE;
                }
            },
            "--json" => match it.next() {
                Some(path) => json_path = Some(path.clone()),
                None => {
                    eprintln!("--json needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--prom" => match it.next() {
                Some(path) => prom_path = Some(path.clone()),
                None => {
                    eprintln!("--prom needs a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!(
                    "usage: exp_fault_sweep [--peers N] [--duration-ms MS] \
                     [--json PATH] [--prom PATH]"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    // The matrix: the drop curve, one bisection that heals mid-run, and
    // rolling churn whose last rejoin lands mid-run too (so both leave a
    // post-disruption window to measure re-convergence in).
    let base = base_config(peers, duration_ms);
    let warmup_end = 3_000 + duration_ms; // scenario time of run end
    let mut matrix: Vec<(String, bool, FaultScenarioConfig)> = DROP_SWEEP_PERMILLE
        .iter()
        .map(|&permille| {
            let mut config = base.clone();
            config.plan = FaultPlan {
                seed: 0xE9,
                ..FaultPlan::default()
            };
            config.plan.link.drop_permille = permille;
            (format!("drop {}%", permille / 10), false, config)
        })
        .collect();
    let mut partitioned = base.clone();
    partitioned.plan = FaultPlan {
        partitions: vec![PartitionSpec {
            start_ms: warmup_end / 4,
            end_ms: warmup_end * 3 / 4,
            cut: peers / 2,
        }],
        ..FaultPlan::default()
    };
    matrix.push(("partition (½ run)".to_string(), true, partitioned));
    let mut churned = base.clone();
    // Eight routers outside the publisher set crash back-to-back, each
    // down for an eighth of the run; the last rejoins at ~5/8 of the run.
    let down = (duration_ms / 8).max(1_000);
    churned.plan = FaultPlan {
        crashes: rolling_churn(peers - 9, 8, 3_000 + duration_ms / 8, down, down / 2),
        ..FaultPlan::default()
    };
    matrix.push(("churn (8 restarts)".to_string(), true, churned));

    println!(
        "# E9 fault sweep — {peers} peers, {duration_ms} ms simulated, \
         pool size {}",
        waku_pool::current_num_threads()
    );
    println!();
    println!("{}", FaultReport::table_header());

    let mut failed = false;
    let mut points: Vec<MatrixPoint> = Vec::new();
    for (label, gate_reconvergence, config) in matrix {
        let start = Instant::now();
        let report = run_fault_scenario(&config);
        let point = MatrixPoint {
            label,
            gate_reconvergence,
            report,
            wall_secs: start.elapsed().as_secs_f64(),
        };
        println!("{}", point.report.table_row(&point.label));
        points.push(point);
    }

    let baseline_spam = points[0].report.scenario.spam_delivery_ratio;
    if points[0].report.scenario.honest_delivery_ratio < 0.8 {
        eprintln!(
            "FAIL: fault-free baseline honest delivery {:.3} < 0.8",
            points[0].report.scenario.honest_delivery_ratio
        );
        failed = true;
    }
    for point in &points {
        let s = &point.report.scenario;
        if s.spam_delivery_ratio > baseline_spam + SPAM_CONTAINMENT_SLACK {
            eprintln!(
                "FAIL [{}]: spam delivery {:.3} > baseline {:.3} + slack {SPAM_CONTAINMENT_SLACK}",
                point.label, s.spam_delivery_ratio, baseline_spam
            );
            failed = true;
        }
        if s.honest_delivery_ratio < HONEST_FLOOR_AT_MAX_DROP {
            eprintln!(
                "FAIL [{}]: honest delivery {:.3} < floor {HONEST_FLOOR_AT_MAX_DROP}",
                point.label, s.honest_delivery_ratio
            );
            failed = true;
        }
        if point.gate_reconvergence && !point.report.reconverged() {
            eprintln!(
                "FAIL [{}]: post-disruption honest delivery {:.3} did not re-converge",
                point.label, s.post_honest_delivery_ratio
            );
            failed = true;
        }
        if s.spammers_detected != base.spammers {
            eprintln!(
                "FAIL [{}]: {} of {} spammer keys recovered",
                point.label, s.spammers_detected, base.spammers
            );
            failed = true;
        }
    }

    println!();
    println!("reading the table: each row is one seeded run (bit-identical across");
    println!("schedulers); 'post-disruption honest' counts only messages published");
    println!("after the last heal/rejoin — the re-convergence signal. Degradation");
    println!("must be graceful: containment within {SPAM_CONTAINMENT_SLACK} of the fault-free");
    println!("baseline, key recovery intact, exit 2 otherwise.");

    if let Some(path) = json_path {
        let body: Vec<String> = points.iter().map(MatrixPoint::to_json).collect();
        let json = format!(
            "{{\n  \"peers\": {},\n  \"duration_ms\": {},\n  \"pool_threads\": {},\n  \"points\": [\n{}\n  ]\n}}\n",
            peers,
            duration_ms,
            waku_pool::current_num_threads(),
            body.join(",\n")
        );
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("fault-sweep report written to {path}");
    }

    if let Some(path) = prom_path {
        let mut text = String::new();
        for point in &points {
            text.push_str(&format!("# sweep point: {}\n", point.label));
            text.push_str(&point.report.metrics.render_prometheus());
            text.push('\n');
        }
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("prometheus exposition written to {path}");
    }

    if failed {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}
