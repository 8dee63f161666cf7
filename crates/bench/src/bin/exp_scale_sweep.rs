//! E6 at network scale: the same RLN spam-containment scenario swept over
//! peer counts, timing the event-sharded simulation engine.
//!
//! ```text
//! exp_scale_sweep [--peers N[,N,...]] [--duration-ms MS] [--json PATH] [--prom PATH]
//! ```
//!
//! Defaults to `--peers 100,1000` (the CI smoke run); pass
//! `--peers 100,1000,10000` for the full sweep (opt-in — a 10 k-peer run
//! dispatches tens of millions of events). `--json PATH` additionally
//! writes the per-point records (events, barriers, ns/event, containment
//! ratios, and the full metrics snapshot of each run) as a JSON report —
//! CI uploads it as an artifact so regressions are diagnosable from the
//! run page. `--prom PATH` writes each point's metrics in Prometheus
//! text exposition, one section per point under a `# sweep point` comment
//! header. The shard count is the default rule (1 below 512 peers, 2 at
//! 1 000); `WAKU_POOL_THREADS` pins the pool (any size gives the same
//! report, only the wall clock moves).
//!
//! Containment quality must not depend on scale: the run fails (exit 2)
//! if any point's spam-delivery ratio exceeds `MAX_SPAM_DELIVERY`, so the
//! CI smoke run doubles as a correctness gate for the paper's §IV claim
//! at sizes the unit tests never reach.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use waku_bench::{e6_at_scale, json_report, prom_sections, run_cli, write_reports};
use waku_node::cli::{Cli, Fatal};
use waku_sim::{run_scenario, ScenarioRun};

const USAGE: &str =
    "exp_scale_sweep [--peers N[,N,...]] [--duration-ms MS] [--json PATH] [--prom PATH]";

/// §IV-C: ~2 spam msgs/s against a 1 s epoch caps delivery near 1/2 plus
/// seeded jitter; anything above this means containment broke at scale.
const MAX_SPAM_DELIVERY: f64 = 0.6;

/// One sweep point, as printed and as serialized into the JSON report:
/// the run, and the wall clock it took.
struct SweepPoint {
    peers: usize,
    run: ScenarioRun,
    wall: Duration,
}

impl SweepPoint {
    fn events_per_sec(&self) -> f64 {
        self.run.report.events_processed.max(1) as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    fn ns_per_event(&self) -> u128 {
        (self.wall.as_nanos() / self.run.report.events_processed.max(1) as u128).max(1)
    }

    fn table_row(&self) -> String {
        let r = &self.run.report;
        format!(
            "| {} | {} | {} | {} | {:.2} | {:.0} | {} | {:.3} | {:.3} | {} |",
            self.peers,
            self.run.engine.shards,
            r.events_processed,
            self.run.engine.barriers,
            self.wall.as_secs_f64(),
            self.events_per_sec(),
            self.ns_per_event(),
            r.honest_delivery_ratio,
            r.spam_delivery_ratio,
            r.spammers_detected
        )
    }

    fn to_json(&self) -> String {
        let r = &self.run.report;
        format!(
            "    {{\"peers\": {}, \"shards\": {}, \"events\": {}, \"barriers\": {}, \
             \"wall_secs\": {:.3}, \"events_per_sec\": {:.0}, \"ns_per_event\": {}, \
             \"honest_delivery\": {:.4}, \"spam_delivery\": {:.4}, \"spammers_detected\": {}, \
             \"metrics\": {}}}",
            self.peers,
            self.run.engine.shards,
            r.events_processed,
            self.run.engine.barriers,
            self.wall.as_secs_f64(),
            self.events_per_sec(),
            self.ns_per_event(),
            r.honest_delivery_ratio,
            r.spam_delivery_ratio,
            r.spammers_detected,
            self.run.metrics.to_json()
        )
    }
}

fn main() -> ExitCode {
    run_cli(USAGE, sweep)
}

fn sweep(cli: &Cli) -> Result<ExitCode, Fatal> {
    let peer_counts: Vec<usize> = match cli.raw("--peers") {
        None => vec![100, 1_000],
        Some(list) => list
            .split(',')
            .map(|v| v.trim().parse::<usize>().ok().filter(|&n| n >= 2))
            .collect::<Option<Vec<usize>>>()
            .filter(|p| !p.is_empty())
            .ok_or_else(|| cli.error("--peers needs a comma-separated list of counts ≥ 2"))?,
    };
    let duration_ms = cli
        .value("--duration-ms", "a number", |_: &u64| true)?
        .unwrap_or(15_000);

    println!(
        "# E6 scale sweep — RLN containment, {duration_ms} ms simulated, \
         pool size {}",
        waku_pool::current_num_threads()
    );
    println!();
    println!("| peers | shards | events | barriers | wall (s) | events/s | ns/event | honest delivery | spam delivery | spammers caught |");
    println!("|---|---|---|---|---|---|---|---|---|---|");

    let mut failed = false;
    let mut points: Vec<SweepPoint> = Vec::new();
    for &peers in &peer_counts {
        let config = e6_at_scale(peers, duration_ms);
        let start = Instant::now();
        let run = run_scenario(&config);
        let point = SweepPoint {
            peers,
            run,
            wall: start.elapsed(),
        };
        println!("{}", point.table_row());
        let (honest, spam) = (
            point.run.report.honest_delivery_ratio,
            point.run.report.spam_delivery_ratio,
        );
        if spam > MAX_SPAM_DELIVERY {
            eprintln!("FAIL: spam delivery {spam:.3} > {MAX_SPAM_DELIVERY} at {peers} peers");
            failed = true;
        }
        if honest < 0.8 {
            eprintln!("FAIL: honest delivery {honest:.3} < 0.8 at {peers} peers");
            failed = true;
        }
        points.push(point);
    }

    println!();
    println!("reading the table: events/s and ns/event are simulated-event");
    println!("throughput (BENCHMARK.json tracks it as gossip.ns_per_event);");
    println!("barriers counts the scheduler's rounds (what the shards'");
    println!("lookahead minimizes; one shard runs one per run_until);");
    println!("containment ratios must hold at every scale — the sweep exits 2");
    println!("if they don't.");

    write_reports(
        cli,
        || {
            let points: Vec<String> = points.iter().map(SweepPoint::to_json).collect();
            let fields = [
                ("duration_ms", duration_ms.to_string()),
                ("pool_threads", waku_pool::current_num_threads().to_string()),
            ];
            json_report(&fields, "points", &points)
        },
        || {
            prom_sections(
                points
                    .iter()
                    .map(|p| (format!("sweep point: {} peers", p.peers), &p.run.metrics)),
            )
        },
    )?;

    Ok(if failed {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    })
}
