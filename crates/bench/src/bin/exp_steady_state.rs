//! Experiment E7b: long-horizon steady-state operation of the RLN
//! defense — the nullifier-lifecycle memory bound, measured.
//!
//! Runs the seeded multi-epoch scenario (churned honest publishers, a
//! sustained spammer) at increasing horizons and prints each run's
//! resident high-water mark beside what a never-pruning map would hold
//! by then — one entry per `Fresh` verdict, i.e. the run's
//! `rln_validation_relayed_total`: the store must stay flat while that
//! figure grows linearly.
//!
//! Usage: `exp_steady_state [epochs ...] [--json PATH] [--prom PATH]`
//! (default horizons: 50 100 200). `--json` writes per-horizon records
//! including each run's full metrics snapshot; `--prom` writes the
//! snapshots in Prometheus text exposition, one section per horizon.
//! Exits 2 if the memory bound is violated.

use std::process::ExitCode;

use waku_sim::{run_steady_state, SteadyStateConfig, SteadyStateReport};

fn run_horizon(epochs: u64) -> SteadyStateReport {
    run_steady_state(&SteadyStateConfig {
        epochs,
        ..SteadyStateConfig::default()
    })
}

/// What a never-pruning nullifier map would hold across all validators.
fn unpruned_entries(report: &SteadyStateReport) -> u64 {
    report.metrics.scalar("rln_validation_relayed_total")
}

fn main() -> ExitCode {
    let mut horizons: Vec<u64> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut prom_path: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
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
            other => match other.parse::<u64>() {
                Ok(epochs) if epochs > 0 => horizons.push(epochs),
                _ => {
                    eprintln!("unknown argument {other:?}");
                    eprintln!("usage: exp_steady_state [epochs ...] [--json PATH] [--prom PATH]");
                    return ExitCode::FAILURE;
                }
            },
        }
    }
    if horizons.is_empty() {
        horizons = vec![50, 100, 200];
    }

    println!("# E7b steady-state — windowed NullifierStore, memory bound\n");
    println!(
        "| epochs | windowed high-water | O(window) bound | unpruned map would hold | epochs pruned | spammers caught |"
    );
    println!("|---|---|---|---|---|---|");

    let mut failed = false;
    let mut runs: Vec<(u64, SteadyStateReport)> = Vec::new();
    for &epochs in &horizons {
        let report = run_horizon(epochs);
        failed |= !report.memory_bounded();
        println!(
            "| {} | {} | {} | {} | {} | {} |",
            epochs,
            report.engine.nullifier_high_water,
            report.resident_bound,
            unpruned_entries(&report),
            report.engine.epochs_pruned,
            report.scenario.spammers_detected,
        );
        runs.push((epochs, report));
    }

    println!(
        "\nreading the table: the windowed high-water must sit under the\n\
         O(window) bound at every horizon while the shares a map that\n\
         never prunes would have kept (one per Fresh verdict, summed over\n\
         validators) grow with it."
    );

    if let Some(path) = json_path {
        let body: Vec<String> = runs
            .iter()
            .map(|(epochs, report)| {
                format!(
                    "    {{\"epochs\": {}, \"windowed_high_water\": {}, \
                     \"resident_bound\": {}, \"unpruned_entries\": {}, \
                     \"epochs_pruned\": {}, \"spammers_detected\": {}, \
                     \"metrics\": {}}}",
                    epochs,
                    report.engine.nullifier_high_water,
                    report.resident_bound,
                    unpruned_entries(report),
                    report.engine.epochs_pruned,
                    report.scenario.spammers_detected,
                    report.metrics.to_json()
                )
            })
            .collect();
        let json = format!("{{\n  \"horizons\": [\n{}\n  ]\n}}\n", body.join(",\n"));
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("steady-state report written to {path}");
    }

    if let Some(path) = prom_path {
        let mut text = String::new();
        for (epochs, report) in &runs {
            text.push_str(&format!("# steady-state horizon: {epochs} epochs\n"));
            text.push_str(&report.metrics.render_prometheus());
            text.push('\n');
        }
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("prometheus exposition written to {path}");
    }

    if failed {
        eprintln!("\nFAIL: memory bound violated");
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}
