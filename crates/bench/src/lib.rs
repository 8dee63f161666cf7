//! # waku-bench
//!
//! Experiment binaries (`cargo run --release -p waku-bench --bin exp_*`)
//! that regenerate every row of the paper's evaluation (§IV). The
//! experiment ↔ binary mapping is in README.md ("Experiments");
//! measured-vs-paper numbers are recorded under README.md "Performance".
//! Performance itself is measured by `perf/` (`waku-perf`) under the
//! names `BENCHMARK.json` declares, not here.

use std::process::ExitCode;
use std::str::FromStr;
use std::time::{Duration, Instant};

use waku_gossip::NetworkConfig;
use waku_metrics::Snapshot;
use waku_sim::{Defense, ScenarioConfig};

/// Why an experiment binary exits 1: a command line it cannot run, or a
/// report it cannot write. (Exit code 2 is a breached gate, returned as an
/// `Ok` exit code.)
#[derive(Debug, PartialEq)]
pub struct Fatal(pub String);

/// Runs an experiment binary's `body` over its command line, parsed
/// against `usage` (see [`Cli::parse`]): a [`Fatal`] from either is
/// printed on stderr and exits 1.
pub fn run_cli(
    usage: &'static str,
    body: impl FnOnce(&Cli) -> Result<ExitCode, Fatal>,
) -> ExitCode {
    match Cli::parse(usage, std::env::args().skip(1)).and_then(|cli| body(&cli)) {
        Ok(code) => code,
        Err(Fatal(message)) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

/// An experiment binary's command line, parsed against its usage line.
///
/// The usage line is the grammar: `[--name X]` is a flag that takes a
/// value, `[--name]` a bare switch, and any other `[word ...]` group
/// admits positional arguments. Every sweep binary takes
/// `[--json PATH] [--prom PATH]`, written by [`Cli::write_reports`].
#[derive(Debug, Default)]
pub struct Cli {
    usage: &'static str,
    values: Vec<(String, String)>,
    switches: Vec<String>,
    positional: Vec<String>,
}

impl Cli {
    /// Parses `args` (without the program name). An argument the usage
    /// line does not name, or a valued flag at the end of the line, is a
    /// usage error.
    pub fn parse(
        usage: &'static str,
        args: impl IntoIterator<Item = String>,
    ) -> Result<Cli, Fatal> {
        let mut cli = Cli {
            usage,
            ..Cli::default()
        };
        let tokens: Vec<&str> = usage.split_whitespace().collect();
        let declared = |token: String| tokens.contains(&token.as_str());
        let takes_positional = tokens
            .iter()
            .any(|token| token.starts_with('[') && !token.starts_with("[--"));
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let flag = arg.starts_with("--");
            if flag && declared(format!("[{arg}]")) {
                cli.switches.push(arg);
            } else if flag && declared(format!("[{arg}")) {
                match args.next() {
                    Some(value) => cli.values.push((arg, value)),
                    None => return Err(cli.error(&format!("{arg} needs a value"))),
                }
            } else if !flag && takes_positional {
                cli.positional.push(arg);
            } else {
                return Err(cli.error(&format!("unknown argument {arg:?}")));
            }
        }
        Ok(cli)
    }

    /// A usage error: `problem`, then the usage line.
    pub fn error(&self, problem: &str) -> Fatal {
        Fatal(format!("{problem}\nusage: {}", self.usage))
    }

    /// The raw value of `flag` (the last one, if repeated).
    pub fn raw(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(name, _)| name == flag)
            .map(|(_, value)| value.as_str())
    }

    /// The value of `flag`, if given, parsed as a `T` that `accept`
    /// takes; anything else is a usage error saying the flag `needs`.
    pub fn value<T: FromStr>(
        &self,
        flag: &str,
        needs: &str,
        accept: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, Fatal> {
        self.raw(flag)
            .map(|raw| self.parse_as(raw, &accept, format!("{flag} needs {needs}, not {raw:?}")))
            .transpose()
    }

    /// Whether the bare switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.switches.iter().any(|s| s == flag)
    }

    /// The positional arguments, each parsed as a `T` that `accept` takes.
    pub fn positional<T: FromStr>(&self, accept: impl Fn(&T) -> bool) -> Result<Vec<T>, Fatal> {
        self.positional
            .iter()
            .map(|raw| self.parse_as(raw, &accept, format!("unknown argument {raw:?}")))
            .collect()
    }

    fn parse_as<T: FromStr>(
        &self,
        raw: &str,
        accept: impl Fn(&T) -> bool,
        problem: String,
    ) -> Result<T, Fatal> {
        raw.parse()
            .ok()
            .filter(accept)
            .ok_or_else(|| self.error(&problem))
    }

    /// Writes the `--json` / `--prom` files the command line asked for;
    /// each body is rendered only when its flag was given.
    pub fn write_reports(
        &self,
        json: impl FnOnce() -> String,
        prom: impl FnOnce() -> String,
    ) -> Result<(), Fatal> {
        self.write("--json", "report", json)?;
        self.write("--prom", "prometheus exposition", prom)
    }

    fn write(&self, flag: &str, what: &str, body: impl FnOnce() -> String) -> Result<(), Fatal> {
        if let Some(path) = self.raw(flag) {
            std::fs::write(path, body()).map_err(|e| Fatal(format!("cannot write {path}: {e}")))?;
            eprintln!("{what} written to {path}");
        }
        Ok(())
    }
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
    const SOAK_USAGE: &str = "exp_soak [--sim-hours N] [--no-restart] [--json PATH] [--prom PATH]";
    const STEADY_USAGE: &str = "exp_steady_state [epochs ...] [--json PATH] [--prom PATH]";

    fn parse(usage: &'static str, args: &[&str]) -> Result<Cli, Fatal> {
        Cli::parse(usage, args.iter().map(|a| a.to_string()))
    }

    fn usage_error(problem: &str, usage: &str) -> Fatal {
        Fatal(format!("{problem}\nusage: {usage}"))
    }

    #[test]
    fn unknown_flag_missing_value_and_bad_number_are_usage_errors() {
        assert_eq!(
            parse(FAULT_USAGE, &["--peer", "30"]).unwrap_err(),
            usage_error("unknown argument \"--peer\"", FAULT_USAGE)
        );
        assert_eq!(
            parse(FAULT_USAGE, &["--peers", "30", "--json"]).unwrap_err(),
            usage_error("--json needs a value", FAULT_USAGE)
        );
        let cli = parse(FAULT_USAGE, &["--peers", "3O"]).unwrap();
        assert_eq!(
            cli.value::<usize>("--peers", "a count ≥ 20", |&n| n >= 20)
                .unwrap_err(),
            usage_error("--peers needs a count ≥ 20, not \"3O\"", FAULT_USAGE)
        );
        // In range is the other half of the same check.
        let cli = parse(FAULT_USAGE, &["--peers", "19"]).unwrap();
        assert!(cli.value::<usize>("--peers", "", |&n| n >= 20).is_err());
        // A bare word is positional only where the usage line says so.
        assert!(parse(FAULT_USAGE, &["50"]).is_err());
        assert_eq!(
            parse(STEADY_USAGE, &["50", "x"])
                .unwrap()
                .positional::<u64>(|&n| n > 0)
                .unwrap_err(),
            usage_error("unknown argument \"x\"", STEADY_USAGE)
        );
    }

    #[test]
    fn values_switches_and_positionals_parse() {
        let cli = parse(FAULT_USAGE, &["--peers", "30", "--peers", "40"]).unwrap();
        assert_eq!(cli.value("--peers", "", |_: &usize| true), Ok(Some(40)));
        assert_eq!(cli.value("--duration-ms", "", |_: &u64| true), Ok(None));
        let cli = parse(SOAK_USAGE, &["--no-restart", "--sim-hours", "2"]).unwrap();
        assert!(cli.switch("--no-restart"));
        assert_eq!(cli.value("--sim-hours", "", |_: &u64| true), Ok(Some(2)));
        // A switch takes no value: the next word is an argument of its own.
        assert!(parse(SOAK_USAGE, &["--no-restart", "2"]).is_err());
        let cli = parse(STEADY_USAGE, &["50", "--json", "x.json", "200"]).unwrap();
        assert_eq!(cli.positional(|&n: &u64| n > 0), Ok(vec![50, 200]));
    }

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
        cli.write_reports(
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
        parse(FAULT_USAGE, &[])
            .unwrap()
            .write_reports(|| unreachable!(), || unreachable!())
            .unwrap();
        // An unwritable path is fatal (exit 1), not a panic.
        let cli = Cli::parse(
            FAULT_USAGE,
            ["--json".to_string(), dir.display().to_string()],
        );
        assert!(cli
            .unwrap()
            .write_reports(String::new, String::new)
            .is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
