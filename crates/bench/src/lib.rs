//! # waku-bench
//!
//! Experiment binaries (`cargo run --release -p waku-bench --bin exp_*`)
//! that regenerate every row of the paper's evaluation (§IV). The
//! experiment ↔ binary mapping is in README.md ("Experiments"); the
//! deterministic measured-vs-paper figures are [`figures`], rendered into
//! `docs/FIGURES.md`. Performance itself is measured by `perf/`
//! (`waku-perf`) under the names `BENCHMARK.json` declares, not here.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use waku_gossip::NetworkConfig;
use waku_metrics::Snapshot;
use waku_node::cli::{Cli, Fatal};
use waku_sim::{Defense, ScenarioConfig};

pub mod figures;

/// Runs an experiment binary's `body` over its command line, parsed
/// against `usage` (see [`Cli::parse`]): a [`Fatal`] from either is
/// printed on stderr and exits 1. (Exit code 2 is a breached gate,
/// returned as an `Ok` exit code.)
pub fn run_cli(
    usage: &'static str,
    body: impl FnOnce(&Cli) -> Result<ExitCode, Fatal>,
) -> ExitCode {
    match Cli::from_env(usage).and_then(|cli| body(&cli)) {
        Ok(code) => code,
        Err(Fatal(message)) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

/// Writes the `--json` / `--prom` files every sweep binary's command
/// line may ask for (`[--json PATH] [--prom PATH]`); each body is
/// rendered only when its flag was given.
pub fn write_reports(
    cli: &Cli,
    json: impl FnOnce() -> String,
    prom: impl FnOnce() -> String,
) -> Result<(), Fatal> {
    write_report(cli, "--json", "report", json)?;
    write_report(cli, "--prom", "prometheus exposition", prom)
}

fn write_report(
    cli: &Cli,
    flag: &str,
    what: &str,
    body: impl FnOnce() -> String,
) -> Result<(), Fatal> {
    if let Some(path) = cli.raw(flag) {
        std::fs::write(path, body()).map_err(|e| Fatal(format!("cannot write {path}: {e}")))?;
        eprintln!("{what} written to {path}");
    }
    Ok(())
}

/// The `--json` layout every sweep binary writes: `fields` as top-level
/// members, then the already-rendered `items` as the array `list`, one
/// per line.
pub fn json_report(fields: &[(&str, String)], list: &str, items: &[String]) -> String {
    let fields: String = fields
        .iter()
        .map(|(name, value)| format!("  \"{name}\": {value},\n"))
        .collect();
    format!(
        "{{\n{fields}  \"{list}\": [\n{}\n  ]\n}}\n",
        items.join(",\n")
    )
}

/// The `--prom` layout of a sweep: each run's snapshot in Prometheus
/// text exposition under a `# {header}` comment line, runs separated by
/// a blank line.
pub fn prom_sections<'a>(sections: impl IntoIterator<Item = (String, &'a Snapshot)>) -> String {
    sections
        .into_iter()
        .map(|(header, snapshot)| format!("# {header}\n{}\n", snapshot.render_prometheus()))
        .collect()
}

/// E6 at network scale: RLN containment at `peers` peers (5 spammers at
/// most, 100 honest publishers at most), seeded — the scenario the scale
/// and fault sweeps run. The degree stays below `peers` for tiny sweeps.
pub fn e6_at_scale(peers: usize, duration_ms: u64) -> ScenarioConfig {
    ScenarioConfig {
        peers,
        spammers: 5.min(peers / 10).max(1),
        duration_ms,
        honest_interval_ms: 5_000,
        spam_interval_ms: 500,
        honest_publishers: Some(100.min(peers)),
        defense: Defense::RlnRelay {
            epoch_secs: 1,
            thr: 1,
        },
        net: NetworkConfig::builder()
            .degree(8.min(peers - 1))
            .build()
            .expect("valid net config"),
        seed: 2024,
        ..ScenarioConfig::default()
    }
}

/// Times a closure over `n` runs and returns the mean duration.
pub fn time_mean<F: FnMut()>(n: usize, mut f: F) -> Duration {
    assert!(n > 0);
    let start = Instant::now();
    for _ in 0..n {
        f();
    }
    start.elapsed() / n as u32
}

/// The median of `runs` durations, each measured by one call of `f`.
pub fn median_of<F: FnMut() -> Duration>(runs: usize, mut f: F) -> Duration {
    assert!(runs > 0);
    let mut times: Vec<Duration> = (0..runs).map(|_| f()).collect();
    times.sort_unstable();
    times[runs / 2]
}

/// Formats a duration in adaptive units.
pub fn fmt_duration(d: Duration) -> String {
    if d.as_secs() >= 1 {
        format!("{:.2} s", d.as_secs_f64())
    } else if d.as_millis() >= 1 {
        format!("{:.1} ms", d.as_secs_f64() * 1e3)
    } else if d.as_micros() >= 1 {
        format!("{:.1} µs", d.as_secs_f64() * 1e6)
    } else {
        format!("{} ns", d.as_nanos())
    }
}

/// Formats a byte count in adaptive *decimal* units (matching the paper's
/// "67 MB" convention for the depth-20 tree).
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1_000_000 {
        format!("{:.2} MB", b as f64 / 1e6)
    } else if b >= 1_000 {
        format!("{:.2} KB", b as f64 / 1e3)
    } else {
        format!("{b} B")
    }
}

/// Builds a single-member authentication path for an arbitrary depth
/// without allocating a dense tree (used for the depth-32 prover bench —
/// the paper's 2³² group size).
pub fn sparse_single_member_path(depth: usize) -> waku_merkle::MerklePath {
    let zeros = waku_merkle::zeros::zero_hashes(depth);
    waku_merkle::MerklePath {
        index: 0,
        siblings: zeros[..depth].to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_helpers() {
        assert!(fmt_duration(Duration::from_millis(30)).contains("ms"));
        assert!(fmt_duration(Duration::from_secs(2)).contains("s"));
        assert_eq!(fmt_duration(Duration::from_nanos(140)), "140 ns");
        assert_eq!(fmt_bytes(512), "512 B");
        assert!(fmt_bytes(4_000_000).contains("MB"));
    }

    #[test]
    fn sparse_path_consistent_with_dense() {
        use waku_arith::traits::PrimeField;
        use waku_merkle::DenseTree;
        let mut dense = DenseTree::new(8);
        let leaf = waku_arith::Fr::from_u64(77);
        dense.set(0, leaf);
        let sparse = sparse_single_member_path(8);
        assert_eq!(sparse.compute_root(leaf), dense.root());
    }

    const FAULT_USAGE: &str =
        "exp_fault_sweep [--peers N] [--duration-ms MS] [--json PATH] [--prom PATH]";

    #[test]
    fn json_and_prom_files_keep_the_sweep_layout() {
        let dir = std::env::temp_dir().join(format!("waku-bench-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (json, prom) = (dir.join("r.json"), dir.join("r.prom"));
        let args = [
            "--json".to_string(),
            json.display().to_string(),
            "--prom".to_string(),
            prom.display().to_string(),
        ];
        let cli = Cli::parse(FAULT_USAGE, args).unwrap();
        let empty = Snapshot::default();
        write_reports(
            &cli,
            || {
                json_report(
                    &[
                        ("duration_ms", "15000".into()),
                        ("pool_threads", "2".into()),
                    ],
                    "points",
                    &[
                        "    {\"peers\": 100}".into(),
                        "    {\"peers\": 1000}".into(),
                    ],
                )
            },
            || prom_sections([("sweep point: 100 peers".to_string(), &empty)]),
        )
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(&json).unwrap(),
            "{\n  \"duration_ms\": 15000,\n  \"pool_threads\": 2,\n  \"points\": [\n    \
             {\"peers\": 100},\n    {\"peers\": 1000}\n  ]\n}\n"
        );
        assert_eq!(
            std::fs::read_to_string(&prom).unwrap(),
            format!("# sweep point: 100 peers\n{}\n", empty.render_prometheus())
        );
        // Without the flags nothing is rendered or written.
        let cli = Cli::parse(FAULT_USAGE, []).unwrap();
        write_reports(&cli, || unreachable!(), || unreachable!()).unwrap();
        // An unwritable path is fatal (exit 1), not a panic.
        let cli = Cli::parse(
            FAULT_USAGE,
            ["--json".to_string(), dir.display().to_string()],
        )
        .unwrap();
        assert!(write_reports(&cli, String::new, String::new).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
