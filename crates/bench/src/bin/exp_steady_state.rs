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

use waku_bench::{json_report, prom_sections, run_cli, write_reports};
use waku_node::cli::{Cli, Fatal};
use waku_sim::{run_scenario, ScenarioRun, SteadyStateConfig};

const USAGE: &str = "exp_steady_state [epochs ...] [--json PATH] [--prom PATH]";

/// A run's windowed store high-water, what a never-pruning nullifier map
/// would hold across all validators by then, and the epochs pruned.
fn nullifier_figures(run: &ScenarioRun) -> [u64; 3] {
    [
        "rln_nullifier_high_water",
        "rln_validation_relayed_total",
        "rln_epochs_pruned",
    ]
    .map(|name| run.metrics.scalar(name))
}

fn main() -> ExitCode {
    run_cli(USAGE, steady_state)
}

fn steady_state(cli: &Cli) -> Result<ExitCode, Fatal> {
    let mut horizons: Vec<u64> = cli.positional(|&epochs| epochs > 0)?;
    if horizons.is_empty() {
        horizons = vec![50, 100, 200];
    }

    println!("# E7b steady-state — windowed NullifierStore, memory bound\n");
    println!(
        "| epochs | windowed high-water | O(window) bound | unpruned map would hold | epochs pruned | spammers caught |"
    );
    println!("|---|---|---|---|---|---|");

    let mut failed = false;
    let mut runs: Vec<(u64, u64, ScenarioRun)> = Vec::new();
    for &epochs in &horizons {
        let config = SteadyStateConfig {
            epochs,
            ..SteadyStateConfig::default()
        };
        let run = run_scenario(&config.scenario());
        let bound = config.resident_bound();
        let [high_water, unpruned, pruned] = nullifier_figures(&run);
        failed |= high_water > bound;
        println!(
            "| {epochs} | {high_water} | {bound} | {unpruned} | {pruned} | {} |",
            run.report.spammers_detected,
        );
        runs.push((epochs, bound, run));
    }

    println!(
        "\nreading the table: the windowed high-water must sit under the\n\
         O(window) bound at every horizon while the shares a map that\n\
         never prunes would have kept (one per Fresh verdict, summed over\n\
         validators) grow with it."
    );

    write_reports(
        cli,
        || {
            let items: Vec<String> = runs
                .iter()
                .map(|(epochs, bound, run)| {
                    let [high_water, unpruned, pruned] = nullifier_figures(run);
                    format!(
                        "    {{\"epochs\": {epochs}, \"windowed_high_water\": {high_water}, \
                         \"resident_bound\": {bound}, \"unpruned_entries\": {unpruned}, \
                         \"epochs_pruned\": {pruned}, \"spammers_detected\": {}, \
                         \"metrics\": {}}}",
                        run.report.spammers_detected,
                        run.metrics.to_json()
                    )
                })
                .collect();
            json_report(&[], "horizons", &items)
        },
        || {
            prom_sections(runs.iter().map(|(epochs, _, run)| {
                (
                    format!("steady-state horizon: {epochs} epochs"),
                    &run.metrics,
                )
            }))
        },
    )?;

    if failed {
        eprintln!("\nFAIL: memory bound violated");
        return Ok(ExitCode::from(2));
    }
    Ok(ExitCode::SUCCESS)
}
