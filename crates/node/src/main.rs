//! The `waku-node` binary: a supervised WAKU-RLN-RELAY relayer.
//!
//! Wires [`RelayerService`] to the wall clock and POSIX signals:
//!
//! ```text
//! waku-node --data-dir ./node-data --listen 127.0.0.1:9090
//! ```
//!
//! The event loop heartbeats once per configured interval (window
//! slides, micro-batch deadlines, scheduled checkpoints), optionally
//! publishes its own rate-limited message each epoch, and serves the
//! Prometheus exposition. SIGINT/SIGTERM (or `--duration-secs`) trigger
//! a clean shutdown that flushes the queue and persists every piece of
//! durable state — restarting from the same `--data-dir` recovers it.

use std::process::ExitCode;
use std::str::FromStr;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use rand::rngs::StdRng;
use rand::SeedableRng;
use waku_node::cli::{Cli, Fatal};
use waku_node::{MetricsServer, RelayerService, ServiceConfig, ServiceError};
use waku_rln_relay::NodeConfig;

/// The grammar [`Cli`] parses the command line against.
const USAGE: &str = "waku-node [--data-dir PATH] [--depth N] [--epoch-secs N] \
    [--heartbeat-secs N] [--checkpoint-secs N] [--listen ADDR] [--prom-dump PATH] \
    [--publish-interval-secs N] [--duration-secs N] [--seed N] [-h] [--help]";

/// The maximum accepted epoch gap `Thr`. A nullifier snapshot restores
/// only under the `Thr` it was taken at, so a data directory keeps it.
const MAX_EPOCH_GAP: u64 = 2;

/// What `-h` / `--help` prints.
const HELP: &str = "\
waku-node: run a WAKU-RLN-RELAY relayer as a long-running service

USAGE:
    waku-node [OPTIONS]

OPTIONS:
    --data-dir <PATH>             persistent state root [default: ./waku-node-data]
    --depth <N>                   RLN membership tree depth [default: 10]
    --epoch-secs <N>              rate-limit epoch length [default: 10]
    --heartbeat-secs <N>          heartbeat interval [default: 1]
    --checkpoint-secs <N>         durable checkpoint interval [default: 30]
    --listen <ADDR>               serve /metrics on this address (e.g. 127.0.0.1:9090)
    --prom-dump <PATH>            also write the exposition to a file each heartbeat
    --publish-interval-secs <N>   publish an own message this often (0 = never) [default: 0]
    --duration-secs <N>           exit cleanly after N seconds (0 = until signal) [default: 0]
    --seed <N>                    deterministic identity/proving seed [default: 1]
    -h, --help                    print this help
";

/// Cooperative stop flag, flipped by SIGINT/SIGTERM.
mod stop {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static REQUESTED: AtomicBool = AtomicBool::new(false);

    #[cfg(unix)]
    extern "C" fn handle(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    /// Installs handlers for SIGINT (2) and SIGTERM (15). Raw
    /// `signal(2)` through the C runtime — the store above is
    /// async-signal-safe, and no crate dependency is needed.
    #[cfg(unix)]
    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        unsafe {
            signal(2, handle);
            signal(15, handle);
        }
    }

    #[cfg(not(unix))]
    pub fn install() {}

    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

/// The run a command line asks for.
#[derive(Debug, PartialEq)]
struct Settings {
    data_dir: String,
    depth: usize,
    epoch_secs: u64,
    heartbeat_secs: u64,
    checkpoint_secs: u64,
    listen: Option<String>,
    prom_dump: Option<String>,
    publish_interval_secs: u64,
    duration_secs: u64,
    seed: u64,
}

/// The settings `cli` asks for, with the defaults [`HELP`] lists; `None`
/// when it asks for help.
fn settings(cli: &Cli) -> Result<Option<Settings>, Fatal> {
    if cli.switch("-h") || cli.switch("--help") {
        return Ok(None);
    }
    fn int<T: FromStr>(cli: &Cli, flag: &str, default: T) -> Result<T, Fatal> {
        let value = cli.value(flag, "a non-negative integer", |_: &T| true)?;
        Ok(value.unwrap_or(default))
    }
    let text = |flag: &str| cli.raw(flag).map(str::to_string);
    Ok(Some(Settings {
        data_dir: text("--data-dir").unwrap_or_else(|| "./waku-node-data".to_string()),
        depth: int(cli, "--depth", 10)?,
        epoch_secs: int(cli, "--epoch-secs", 10)?,
        heartbeat_secs: cli
            .value("--heartbeat-secs", "an integer ≥ 1", |&n: &u64| n >= 1)?
            .unwrap_or(1),
        checkpoint_secs: int(cli, "--checkpoint-secs", 30)?,
        listen: text("--listen"),
        prom_dump: text("--prom-dump"),
        publish_interval_secs: int(cli, "--publish-interval-secs", 0)?,
        duration_secs: int(cli, "--duration-secs", 0)?,
        seed: int(cli, "--seed", 1)?,
    }))
}

fn now_secs() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("system clock before the Unix epoch")
        .as_secs()
}

fn report(e: &dyn std::error::Error) {
    eprintln!("waku-node: error: {e}");
    let mut cause = e.source();
    while let Some(c) = cause {
        eprintln!("  caused by: {c}");
        cause = c.source();
    }
}

fn run(cli: Settings) -> Result<(), ServiceError> {
    // The default ingest queue is pass-through, and nothing in this loop
    // ingests: the binary has no network ingest yet.
    let node = NodeConfig::builder()
        .tree_depth(cli.depth)
        .epoch_length(Duration::from_secs(cli.epoch_secs))
        .max_epoch_gap(MAX_EPOCH_GAP)
        .build()?;
    let config = ServiceConfig::builder(&cli.data_dir)
        .node(node)
        .checkpoint(Duration::from_secs(cli.checkpoint_secs))
        .seed(cli.seed)
        .build()?;

    stop::install();
    let mut service = RelayerService::open(config)?;
    let recovery = service.recovery();
    eprintln!(
        "waku-node: open (keys: {}, recovered {} messages, nullifier snapshot: {}, publish guard: {:?})",
        if recovery.cold_keygen { "fresh ceremony" } else { "cache" },
        recovery.recovered_messages,
        if recovery.snapshot_restored { "restored" } else { "none" },
        recovery.publish_guard,
    );

    let server = match &cli.listen {
        Some(addr) => {
            let server = MetricsServer::bind(addr)?;
            eprintln!("waku-node: serving /metrics on {}", server.local_addr()?);
            Some(server)
        }
        None => None,
    };

    let started = now_secs();
    let mut rng = StdRng::seed_from_u64(cli.seed ^ 0x7075_626C);
    let mut next_heartbeat = started;
    let mut last_publish: Option<u64> = None;
    let mut published = 0u64;

    loop {
        let now = now_secs();
        if stop::requested() {
            eprintln!("waku-node: signal received, shutting down");
            break;
        }
        if cli.duration_secs > 0 && now.saturating_sub(started) >= cli.duration_secs {
            eprintln!("waku-node: duration elapsed, shutting down");
            break;
        }

        if now >= next_heartbeat {
            service.step(now)?;
            next_heartbeat = now + cli.heartbeat_secs;

            if cli.publish_interval_secs > 0
                && last_publish.is_none_or(|t| now - t >= cli.publish_interval_secs)
            {
                let payload = format!("waku-node heartbeat message {published}");
                match service.publish(payload.as_bytes(), now, &mut rng) {
                    Ok(_) => {
                        published += 1;
                        last_publish = Some(now);
                    }
                    // Same epoch as the previous publish: just wait for
                    // the next one — that is the rate limit working.
                    Err(ServiceError::Node(waku_rln_relay::NodeError::RateLimitedLocally)) => {}
                    Err(e) => return Err(e),
                }
            }

            if let Some(path) = &cli.prom_dump {
                waku_wire::fs::atomic_write(path.as_ref(), service.metrics_text().as_bytes())?;
            }
        }

        if let Some(server) = &server {
            server.poll(|| service.metrics_text())?;
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    let now = now_secs();
    let status = service.status();
    let summary = service.shutdown(now)?;
    eprintln!(
        "waku-node: clean shutdown (flushed {} queued, {} messages / {} bytes durable, {} resident nullifiers)",
        summary.flushed, summary.messages_stored, summary.disk_bytes, status.resident_nullifiers,
    );
    Ok(())
}

/// Exit codes: 0 for a clean run or help, 2 for a usage error, 1 for
/// an error while running.
fn main() -> ExitCode {
    let settings = match Cli::from_env(USAGE).and_then(|cli| settings(&cli)) {
        Ok(Some(settings)) => settings,
        Ok(None) => {
            print!("{HELP}");
            return ExitCode::SUCCESS;
        }
        Err(Fatal(message)) => {
            eprintln!("waku-node: {message}");
            return ExitCode::from(2);
        }
    };
    match run(settings) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            report(&e);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Result<Option<Settings>, Fatal> {
        Cli::parse(USAGE, args.split_whitespace().map(str::to_string)).and_then(|c| settings(&c))
    }

    fn defaults() -> Settings {
        Settings {
            data_dir: "./waku-node-data".to_string(),
            depth: 10,
            epoch_secs: 10,
            heartbeat_secs: 1,
            checkpoint_secs: 30,
            listen: None,
            prom_dump: None,
            publish_interval_secs: 0,
            duration_secs: 0,
            seed: 1,
        }
    }

    /// The four command lines of CI's kill-and-restart step: a first run
    /// and a restart, at depth 6 and at depth 32.
    #[test]
    fn ci_restart_command_lines_keep_their_settings() {
        assert_eq!(parse("").unwrap(), Some(defaults()));
        for (dir, depth) in [("target/node-ci", 6), ("target/node-ci-32", 32)] {
            let first = format!(
                "--data-dir {dir} --depth {depth} --epoch-secs 5 \
                 --publish-interval-secs 1 --checkpoint-secs 2 \
                 --duration-secs 6 --prom-dump {dir}.prom"
            );
            let restart =
                format!("--data-dir {dir} --depth {depth} --epoch-secs 5 --duration-secs 2");
            let run = |epoch_secs, duration_secs| Settings {
                data_dir: dir.to_string(),
                depth,
                epoch_secs,
                duration_secs,
                ..defaults()
            };
            let first_run = Settings {
                checkpoint_secs: 2,
                prom_dump: Some(format!("{dir}.prom")),
                publish_interval_secs: 1,
                ..run(5, 6)
            };
            assert_eq!(parse(&first).unwrap(), Some(first_run));
            assert_eq!(parse(&restart).unwrap(), Some(run(5, 2)));
        }
    }

    #[test]
    fn help_and_usage_errors() {
        assert_eq!(parse("-h").unwrap(), None);
        assert_eq!(parse("--depth 6 --help").unwrap(), None);
        for bad in [
            "--heartbeat-secs 0",
            "--batch 1",
            "--bogus",
            "--depth 6 --seed",
            "--depth six",
            "stray",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
