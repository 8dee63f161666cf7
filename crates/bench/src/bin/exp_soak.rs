//! Operational soak of the real `waku-node` service on a simulated
//! clock: hours of service time in minutes of wall time.
//!
//! Drives [`waku_sim::run_soak`] — honest publishers at one message per
//! epoch, periodic double-signal spam waves, a mid-soak kill-and-restart
//! — and gates on the operational claims:
//!
//! * **flat memory**: late-run high-water marks of every memory-shaped
//!   gauge (resident nullifiers, store window, disk bytes, ingest
//!   queue) are no worse than the warmed-up early-run marks;
//! * **restart survival**: the killed-and-reopened service recovers its
//!   message window, nullifier snapshot, and publish guard;
//! * **undiminished detection**: every spam wave is caught, before and
//!   after the restart.
//!
//! Usage: `exp_soak [--sim-hours N] [--epoch-secs N] [--publishers N]
//! [--no-restart] [--seed N] [--json PATH] [--prom PATH]`
//! (defaults: 1 simulated hour, 20 s epochs, 2 publishers, restart on).
//! Exits 2 when any gate fails.

use std::process::ExitCode;

use waku_bench::{run_cli, write_reports};
use waku_node::cli::{Cli, Fatal};
use waku_sim::{run_soak, SoakConfig, SoakReport};

const USAGE: &str = "exp_soak [--sim-hours N] [--epoch-secs N] [--publishers N] \
                     [--no-restart] [--seed N] [--json PATH] [--prom PATH]";

fn main() -> ExitCode {
    run_cli(USAGE, soak)
}

fn soak(cli: &Cli) -> Result<ExitCode, Fatal> {
    let positive = "a number > 0";
    let mut config = SoakConfig {
        epoch_secs: 20,
        publishers: 2,
        restart_mid_soak: !cli.switch("--no-restart"),
        ..SoakConfig::default()
    };
    if let Some(hours) = cli.value("--sim-hours", positive, |&h: &u64| h > 0)? {
        config.sim_secs = hours * 3600;
    }
    if let Some(t) = cli.value("--epoch-secs", positive, |&t: &u64| t > 0)? {
        config.epoch_secs = t;
    }
    if let Some(p) = cli.value("--publishers", positive, |&p: &usize| p > 0)? {
        config.publishers = p;
    }
    if let Some(seed) = cli.value("--seed", "a number", |_: &u64| true)? {
        config.seed = seed;
    }

    eprintln!(
        "soaking {:.1} simulated hours ({} epochs of {} s, {} publishers, restart: {})…",
        config.sim_secs as f64 / 3600.0,
        config.sim_secs / config.epoch_secs,
        config.epoch_secs,
        config.publishers,
        config.restart_mid_soak,
    );
    let report = run_soak(&config).map_err(|e| {
        let mut message = format!("soak failed to run: {e}");
        let mut cause = std::error::Error::source(&e);
        while let Some(c) = cause {
            message.push_str(&format!("\n  caused by: {c}"));
            cause = c.source();
        }
        Fatal(message)
    })?;

    println!("# soak — the real waku-node service on a simulated clock\n");
    println!("{}", SoakReport::table_header());
    println!("{}", report.table_row());
    println!("\nsamples (t, resident nullifiers, store messages, disk bytes, queued):");
    for (t, s) in &report.samples {
        println!(
            "  t={:>6}  nullifiers={:>3}  messages={:>4}  disk={:>8}  queued={}",
            t, s.resident_nullifiers, s.messages_stored, s.disk_bytes, s.queued
        );
    }

    let flat = report.memory_flat();
    let detection = report.spam_waves == 0 || report.spam_detected >= report.spam_waves;
    let recovered = match &report.restart {
        Some(r) => r.recovery.snapshot_restored && r.recovery.recovered_messages > 0,
        None => !config.restart_mid_soak,
    };
    println!(
        "\nflat memory: {}   detection: {} ({}/{} waves)   restart recovery: {}",
        verdict(flat),
        verdict(detection),
        report.spam_detected,
        report.spam_waves,
        verdict(recovered),
    );
    if let Some(r) = &report.restart {
        println!(
            "restart at t={}: recovered {} messages, snapshot {}, guard {:?}, resident {}→{}",
            r.at_secs,
            r.recovery.recovered_messages,
            if r.recovery.snapshot_restored {
                "restored"
            } else {
                "LOST"
            },
            r.recovery.publish_guard,
            r.resident_before,
            r.resident_after,
        );
    }

    write_reports(
        cli,
        || report.to_json() + "\n",
        || report.exposition.clone(),
    )?;

    if !(flat && detection && recovered) {
        eprintln!("\nFAIL: soak gate violated");
        return Ok(ExitCode::from(2));
    }
    Ok(ExitCode::SUCCESS)
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "ok"
    } else {
        "FAIL"
    }
}
