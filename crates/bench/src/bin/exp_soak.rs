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

use waku_sim::{run_soak, SoakConfig, SoakReport};

fn main() -> ExitCode {
    let mut config = SoakConfig {
        epoch_secs: 20,
        publishers: 2,
        spam_every_epochs: 10,
        store_capacity: 32,
        sample_every_secs: 120,
        ..SoakConfig::default()
    };
    let mut json_path: Option<String> = None;
    let mut prom_path: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Option<&String> {
            let v = it.next();
            if v.is_none() {
                eprintln!("{flag} needs a value");
            }
            v
        };
        match arg.as_str() {
            "--sim-hours" => match value("--sim-hours").and_then(|v| v.parse::<u64>().ok()) {
                Some(h) if h > 0 => config.sim_secs = h * 3600,
                _ => return usage(),
            },
            "--epoch-secs" => match value("--epoch-secs").and_then(|v| v.parse::<u64>().ok()) {
                Some(t) if t > 0 => config.epoch_secs = t,
                _ => return usage(),
            },
            "--publishers" => match value("--publishers").and_then(|v| v.parse::<usize>().ok()) {
                Some(p) if p > 0 => config.publishers = p,
                _ => return usage(),
            },
            "--seed" => match value("--seed").and_then(|v| v.parse::<u64>().ok()) {
                Some(s) => config.seed = s,
                None => return usage(),
            },
            "--no-restart" => config.restart_mid_soak = false,
            "--json" => match value("--json") {
                Some(path) => json_path = Some(path.clone()),
                None => return usage(),
            },
            "--prom" => match value("--prom") {
                Some(path) => prom_path = Some(path.clone()),
                None => return usage(),
            },
            _ => return usage(),
        }
    }

    eprintln!(
        "soaking {:.1} simulated hours ({} epochs of {} s, {} publishers, restart: {})…",
        config.sim_secs as f64 / 3600.0,
        config.sim_secs / config.epoch_secs,
        config.epoch_secs,
        config.publishers,
        config.restart_mid_soak,
    );
    let report = match run_soak(&config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("soak failed to run: {e}");
            let mut cause = std::error::Error::source(&e);
            while let Some(c) = cause {
                eprintln!("  caused by: {c}");
                cause = c.source();
            }
            return ExitCode::FAILURE;
        }
    };

    println!("# soak — the real waku-node service on a simulated clock\n");
    println!("{}", SoakReport::table_header());
    println!("{}", report.table_row());
    println!("\nsamples (t, resident nullifiers, store messages, disk bytes, queued):");
    for s in &report.samples {
        println!(
            "  t={:>6}  nullifiers={:>3}  messages={:>4}  disk={:>8}  queued={}",
            s.t_secs, s.resident_nullifiers, s.store_messages, s.disk_bytes, s.queued
        );
    }

    let flat = report.memory_flat();
    let detection = report.spam_waves == 0 || report.spam_detected >= report.spam_waves;
    let recovered = match &report.restart {
        Some(r) => r.snapshot_restored && r.recovered_messages > 0,
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
            r.recovered_messages,
            if r.snapshot_restored {
                "restored"
            } else {
                "LOST"
            },
            r.publish_guard,
            r.resident_before,
            r.resident_after,
        );
    }

    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, report.to_json() + "\n") {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("soak report written to {path}");
    }
    if let Some(path) = prom_path {
        if let Err(e) = std::fs::write(&path, &report.exposition) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("prometheus exposition written to {path}");
    }

    if !(flat && detection && recovered) {
        eprintln!("\nFAIL: soak gate violated");
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "ok"
    } else {
        "FAIL"
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: exp_soak [--sim-hours N] [--epoch-secs N] [--publishers N] [--no-restart] [--seed N] [--json PATH] [--prom PATH]"
    );
    ExitCode::FAILURE
}
