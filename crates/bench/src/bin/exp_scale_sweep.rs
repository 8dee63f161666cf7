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
use std::time::Instant;

use waku_bench::{e6_at_scale, json_report, prom_sections, run_cli, Cli, Fatal};
use waku_metrics::Snapshot;
use waku_sim::run_scenario;

const USAGE: &str =
    "exp_scale_sweep [--peers N[,N,...]] [--duration-ms MS] [--json PATH] [--prom PATH]";

/// §IV-C: ~2 spam msgs/s against a 1 s epoch caps delivery near 1/2 plus
/// seeded jitter; anything above this means containment broke at scale.
const MAX_SPAM_DELIVERY: f64 = 0.6;

/// One sweep point, as printed and as serialized into the JSON report.
struct SweepPoint {
    peers: usize,
    shards: usize,
    events: u64,
    barriers: u64,
    wall_secs: f64,
    events_per_sec: f64,
    ns_per_event: u128,
    honest_delivery: f64,
    spam_delivery: f64,
    spammers_detected: usize,
    metrics: Snapshot,
}

impl SweepPoint {
    fn to_json(&self) -> String {
        format!(
            "    {{\"peers\": {}, \"shards\": {}, \"events\": {}, \"barriers\": {}, \
             \"wall_secs\": {:.3}, \"events_per_sec\": {:.0}, \"ns_per_event\": {}, \
             \"honest_delivery\": {:.4}, \"spam_delivery\": {:.4}, \"spammers_detected\": {}, \
             \"metrics\": {}}}",
            self.peers,
            self.shards,
            self.events,
            self.barriers,
            self.wall_secs,
            self.events_per_sec,
            self.ns_per_event,
            self.honest_delivery,
            self.spam_delivery,
            self.spammers_detected,
            self.metrics.to_json()
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
        let wall = start.elapsed();
        let report = run.report;
        let events = report.events_processed.max(1);
        let point = SweepPoint {
            peers,
            shards: run.engine.shards,
            events: report.events_processed,
            barriers: run.engine.barriers,
            wall_secs: wall.as_secs_f64(),
            events_per_sec: events as f64 / wall.as_secs_f64().max(1e-9),
            ns_per_event: (wall.as_nanos() / events as u128).max(1),
            honest_delivery: report.honest_delivery_ratio,
            spam_delivery: report.spam_delivery_ratio,
            spammers_detected: report.spammers_detected,
            metrics: run.metrics,
        };
        println!(
            "| {} | {} | {} | {} | {:.2} | {:.0} | {} | {:.3} | {:.3} | {} |",
            point.peers,
            point.shards,
            point.events,
            point.barriers,
            point.wall_secs,
            point.events_per_sec,
            point.ns_per_event,
            point.honest_delivery,
            point.spam_delivery,
            point.spammers_detected
        );
        if point.spam_delivery > MAX_SPAM_DELIVERY {
            eprintln!(
                "FAIL: spam delivery {:.3} > {MAX_SPAM_DELIVERY} at {peers} peers",
                point.spam_delivery
            );
            failed = true;
        }
        if point.honest_delivery < 0.8 {
            eprintln!(
                "FAIL: honest delivery {:.3} < 0.8 at {peers} peers",
                point.honest_delivery
            );
            failed = true;
        }
        points.push(point);
    }

    println!();
    println!("reading the table: events/s and ns/event are simulated-event");
    println!("throughput (BENCHMARK.json tracks it as gossip.ns_per_event);");
    println!("barriers counts the scheduler's rounds (what the adaptive");
    println!("lookahead minimizes; one shard runs one per run_until);");
    println!("containment ratios must hold at every scale — the sweep exits 2");
    println!("if they don't.");

    cli.write_reports(
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
                    .map(|p| (format!("sweep point: {} peers", p.peers), &p.metrics)),
            )
        },
    )?;

    Ok(if failed {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    })
}
