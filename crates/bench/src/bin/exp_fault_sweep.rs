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

use waku_bench::{e6_at_scale, json_report, prom_sections, run_cli, write_reports};
use waku_gossip::{FaultPlan, PartitionSpec};
use waku_node::cli::{Cli, Fatal};
use waku_sim::faults::{
    drop_sweep, reconverged, rolling_churn, spam_contained, HONEST_FLOOR_AT_MAX_DROP,
    SPAM_CONTAINMENT_SLACK,
};
use waku_sim::{run_scenario, ScenarioConfig, ScenarioRun};

const USAGE: &str = "exp_fault_sweep [--peers N] [--duration-ms MS] [--json PATH] [--prom PATH]";

/// One matrix point, as printed and as serialized into the JSON report.
struct MatrixPoint {
    label: String,
    /// Does this point's plan end (heal / rejoin) before the run does —
    /// i.e. is the re-convergence gate meaningful?
    gate_reconvergence: bool,
    run: ScenarioRun,
    wall_secs: f64,
}

impl MatrixPoint {
    /// The fault-plane counters: transmissions dropped (link drops,
    /// partition cuts, crashed receivers), peers that rejoined, partitions
    /// healed, and rate checks refused at the nullifier window's edge —
    /// always 0, since the gap check and the store window judge against
    /// the same monotone epoch.
    fn fault_counters(&self) -> [u64; 4] {
        [
            "engine_msgs_dropped_fault",
            "peer_restarts",
            "partition_heals",
            "rln_out_of_window_total",
        ]
        .map(|name| self.run.metrics.scalar(name))
    }

    fn table_row(&self) -> String {
        let s = &self.run.report;
        let [dropped, restarts, heals, out_of_window] = self.fault_counters();
        format!(
            "| {} | {:.3} | {:.3} | {:.3} | {} | {dropped} | {restarts} | {heals} | {out_of_window} |",
            self.label,
            s.honest_delivery_ratio,
            s.spam_delivery_ratio,
            s.post_honest_delivery_ratio,
            s.spammers_detected,
        )
    }

    fn to_json(&self) -> String {
        let s = &self.run.report;
        let [dropped, restarts, heals, out_of_window] = self.fault_counters();
        format!(
            "    {{\"label\": \"{}\", \"wall_secs\": {:.3}, \
             \"honest_delivery\": {:.4}, \"spam_delivery\": {:.4}, \
             \"post_honest_delivery\": {:.4}, \"spammers_detected\": {}, \
             \"msgs_dropped_fault\": {dropped}, \"peer_restarts\": {restarts}, \
             \"partition_heals\": {heals}, \"out_of_window\": {out_of_window}, \
             \"metrics\": {}}}",
            self.label,
            self.wall_secs,
            s.honest_delivery_ratio,
            s.spam_delivery_ratio,
            s.post_honest_delivery_ratio,
            s.spammers_detected,
            self.run.metrics.to_json()
        )
    }
}

fn main() -> ExitCode {
    run_cli(USAGE, sweep)
}

fn sweep(cli: &Cli) -> Result<ExitCode, Fatal> {
    let peers = cli
        .value("--peers", "a count ≥ 20", |&n: &usize| n >= 20)?
        .unwrap_or(1_000);
    let duration_ms = cli
        .value("--duration-ms", "a number", |_: &u64| true)?
        .unwrap_or(15_000);

    // The matrix: the drop curve, one bisection that heals mid-run, and
    // rolling churn whose last rejoin lands mid-run too (so both leave a
    // post-disruption window to measure re-convergence in).
    let base = e6_at_scale(peers, duration_ms);
    let warmup_end = 3_000 + duration_ms; // scenario time of run end
    let with_plan = |plan: FaultPlan| {
        let mut config = base.clone();
        config.net.faults = plan;
        config
    };
    let mut matrix: Vec<(String, bool, ScenarioConfig)> = drop_sweep(&base)
        .into_iter()
        .map(|(permille, config)| (format!("drop {}%", permille / 10), false, config))
        .collect();
    let partitioned = with_plan(FaultPlan {
        partitions: vec![PartitionSpec {
            start_ms: warmup_end / 4,
            end_ms: warmup_end * 3 / 4,
            cut: peers / 2,
        }],
        ..FaultPlan::default()
    });
    matrix.push(("partition (½ run)".to_string(), true, partitioned));
    // Eight routers outside the publisher set crash back-to-back, each
    // down for an eighth of the run; the last rejoins at ~5/8 of the run.
    let down = (duration_ms / 8).max(1_000);
    let churned = with_plan(FaultPlan {
        crashes: rolling_churn(peers - 9, 8, 3_000 + duration_ms / 8, down, down / 2),
        ..FaultPlan::default()
    });
    matrix.push(("churn (8 restarts)".to_string(), true, churned));

    println!(
        "# E9 fault sweep — {peers} peers, {duration_ms} ms simulated, \
         pool size {}",
        waku_pool::current_num_threads()
    );
    println!();
    println!("| fault | honest delivery | spam delivery | post-disruption honest | spammers caught | faulted msgs | restarts | heals | out-of-window |");
    println!("|---|---|---|---|---|---|---|---|---|");

    let mut failed = false;
    let mut points: Vec<MatrixPoint> = Vec::new();
    for (label, gate_reconvergence, config) in matrix {
        let start = Instant::now();
        let run = run_scenario(&config);
        let point = MatrixPoint {
            label,
            gate_reconvergence,
            run,
            wall_secs: start.elapsed().as_secs_f64(),
        };
        println!("{}", point.table_row());
        points.push(point);
    }

    let baseline = &points[0].run.report;
    if baseline.honest_delivery_ratio < 0.8 {
        eprintln!(
            "FAIL: fault-free baseline honest delivery {:.3} < 0.8",
            baseline.honest_delivery_ratio
        );
        failed = true;
    }
    for point in &points {
        let s = &point.run.report;
        if !spam_contained(s, baseline) {
            eprintln!(
                "FAIL [{}]: spam delivery {:.3} > baseline {:.3} + slack {SPAM_CONTAINMENT_SLACK}",
                point.label, s.spam_delivery_ratio, baseline.spam_delivery_ratio
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
        if point.gate_reconvergence && !reconverged(s) {
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

    write_reports(
        cli,
        || {
            let points: Vec<String> = points.iter().map(MatrixPoint::to_json).collect();
            let fields = [
                ("peers", peers.to_string()),
                ("duration_ms", duration_ms.to_string()),
                ("pool_threads", waku_pool::current_num_threads().to_string()),
            ];
            json_report(&fields, "points", &points)
        },
        || {
            prom_sections(
                points
                    .iter()
                    .map(|p| (format!("sweep point: {}", p.label), &p.run.metrics)),
            )
        },
    )?;

    Ok(if failed {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    })
}
