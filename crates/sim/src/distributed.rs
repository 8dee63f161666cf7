//! Multi-process scenario driver: the same seeded scenario as
//! [`crate::run_scenario_with_metrics`], executed by one coordinator and
//! N worker processes over the `waku-gossip` transport — bit-identical
//! to the in-process schedulers at any worker count.
//!
//! Each worker replays the *entire* deterministic scenario construction
//! (identities, network topology, drift draws, fault timeline, the full
//! publish workload), which pins every RNG and event-key stream to the
//! in-process values; its scheduler simply drops events outside its
//! owned peer range. The coordinator drives barrier rounds over the
//! sockets and merges per-worker result fragments in fixed worker order
//! (worker ranges are contiguous, so worker order *is* shard order):
//! sums for counters, concatenation for latency samples, set union for
//! detections, the registry's order-insensitive fold for metric
//! snapshots. Workload-derived scalars are computed identically in every
//! worker; the coordinator cross-checks them against worker 0 and fails
//! the run on any mismatch rather than report a partial result.

use std::collections::BTreeSet;
use std::process::{Child, Command, Stdio};

use waku_gossip::{
    plan_heals_snapshot, worker_peer_range, CoordinatorOptions, CrashSpec, DistributedScheduler,
    FaultPlan, GossipConfig, LinkFaults, Network, PartitionSpec, PeerStats, RunParams,
    SchedulerKind, SkewSpec, TransportError, WorkerOptions, WorkerSession,
};
use waku_metrics::{RecorderShards, Snapshot};
use waku_node::ServiceError;
use waku_wire::{put_f64, put_u64, CodecError, Reader};

use crate::report::ScenarioReport;
use crate::scenario::{
    assemble_report, install_validators, schedule_workload, store_catalogue, Defense, DetectionLog,
    EngineStats, Measured, ScenarioConfig, Workload, TOPIC,
};

/// Environment variable carrying the coordinator's `host:port` — its
/// presence is what flips a process into worker mode.
pub const ENV_COORD: &str = "WAKU_DIST_COORD";
/// Environment variable carrying this worker's index.
pub const ENV_WORKER: &str = "WAKU_DIST_WORKER";
/// Environment variable carrying the total worker count.
pub const ENV_WORKERS: &str = "WAKU_DIST_WORKERS";
/// Fault-injection hook: exit (status 3) after this many rounds without
/// replying — the negative-path tests' mid-quantum crash.
pub const ENV_EXIT_AFTER_ROUNDS: &str = "WAKU_DIST_EXIT_AFTER_ROUNDS";

/// How the coordinator launches worker processes. The driver appends the
/// `WAKU_DIST_*` environment; `program`/`args`/`envs` say what to run —
/// typically the current executable re-entering itself (rusty-fork
/// style) plus a flag or test-filter argument that routes the child into
/// [`worker_from_env`].
#[derive(Clone, Debug)]
pub struct WorkerCommand {
    /// Executable to spawn.
    pub program: std::path::PathBuf,
    /// Arguments passed verbatim.
    pub args: Vec<String>,
    /// Extra environment variables (fault hooks, test knobs).
    pub envs: Vec<(String, String)>,
}

impl WorkerCommand {
    /// Re-exec the current executable with the given arguments.
    pub fn current_exe(args: Vec<String>) -> std::io::Result<Self> {
        Ok(WorkerCommand {
            program: std::env::current_exe()?,
            args,
            envs: Vec::new(),
        })
    }
}

fn transport_err(stage: &'static str) -> impl FnOnce(TransportError) -> ServiceError {
    move |e| ServiceError::Transport {
        stage,
        source: Box::new(e),
    }
}

fn protocol_err(stage: &'static str, msg: String) -> ServiceError {
    ServiceError::Transport {
        stage,
        source: Box::new(TransportError::Protocol(msg)),
    }
}

fn codec_err(stage: &'static str) -> impl FnOnce(CodecError) -> ServiceError {
    move |e| ServiceError::Transport {
        stage,
        source: Box::new(e),
    }
}

/// Runs one scenario across `workers` worker processes with default
/// timeouts. Drop-in for [`crate::run_scenario_with_metrics`]: a
/// successful run returns the bit-identical report/metrics triple; any
/// worker failure, protocol violation, or timeout kills the remaining
/// workers and returns a [`ServiceError`] — never a partial report.
pub fn run_scenario_distributed(
    config: &ScenarioConfig,
    workers: usize,
    cmd: &WorkerCommand,
) -> Result<(ScenarioReport, EngineStats, Snapshot), ServiceError> {
    run_scenario_distributed_with_options(config, workers, cmd, CoordinatorOptions::default())
}

/// [`run_scenario_distributed`] with explicit coordinator deadlines (the
/// negative-path tests shrink them to seconds).
pub fn run_scenario_distributed_with_options(
    config: &ScenarioConfig,
    workers: usize,
    cmd: &WorkerCommand,
    options: CoordinatorOptions,
) -> Result<(ScenarioReport, EngineStats, Snapshot), ServiceError> {
    assert!(
        config.spammers < config.peers,
        "need at least one honest peer"
    );
    let net_config = crate::scenario::scenario_net_config(config);
    let shards = net_config.scheduler.resolve(config.peers);
    let workers = workers.clamp(1, shards);
    let until = crate::scenario::WARMUP_MS + config.duration_ms + 10_000;

    let mut coordinator =
        DistributedScheduler::bind(workers, options).map_err(transport_err("coordinator bind"))?;
    let addr = format!("127.0.0.1:{}", coordinator.port());
    for w in 0..workers {
        let child = spawn_worker(cmd, &addr, w, workers)?;
        coordinator.attach_child(child);
    }

    let config_bytes = encode_config(config, shards);
    let params = RunParams {
        peers: config.peers,
        shards,
        until,
    };
    let outcome = coordinator
        .run(params, &config_bytes)
        .map_err(transport_err("coordinator run"))?;

    // Merge metric snapshots (order-insensitive registry fold), then add
    // the plan-derived partition-heal fill exactly once — each worker
    // sent only the shard-local part.
    let mut metrics = Snapshot::default();
    for bytes in &outcome.snapshots {
        metrics.merge(&Snapshot::from_wire(bytes).map_err(codec_err("decode worker snapshot"))?);
    }
    metrics.merge(&plan_heals_snapshot(&net_config.faults, until));

    // Decode and fold the per-worker fragments in fixed worker order.
    let mut fragments = Vec::with_capacity(workers);
    for bytes in &outcome.reports {
        fragments.push(decode_fragment(bytes).map_err(codec_err("decode worker fragment"))?);
    }
    let first = &fragments[0];
    for (w, frag) in fragments.iter().enumerate().skip(1) {
        if frag.workload != first.workload {
            return Err(protocol_err(
                "fragment cross-check",
                format!(
                    "worker {w} derived different workload scalars than worker 0 \
                     (non-deterministic replay)"
                ),
            ));
        }
    }

    let mut totals = PeerStats::default();
    let mut post_honest_delivered = 0u64;
    let mut post_spam_delivered = 0u64;
    let mut latencies = Vec::new();
    let mut detections: BTreeSet<[u8; 32]> = BTreeSet::new();
    for frag in &fragments {
        totals.honest_delivered += frag.totals.honest_delivered;
        totals.spam_delivered += frag.totals.spam_delivered;
        totals.invalid_delivered += frag.totals.invalid_delivered;
        totals.rejected += frag.totals.rejected;
        totals.ignored += frag.totals.ignored;
        totals.bytes_received += frag.totals.bytes_received;
        totals.bytes_sent += frag.totals.bytes_sent;
        totals.validations += frag.totals.validations;
        post_honest_delivered += frag.post_honest_delivered;
        post_spam_delivered += frag.post_spam_delivered;
        latencies.extend_from_slice(&frag.latencies);
        detections.extend(frag.detections.iter().copied());
    }

    let wl = Workload {
        honest_sent: first.workload.honest_sent,
        spam_sent: first.workload.spam_sent,
        post_honest_sent: first.workload.post_honest_sent,
        post_spam_sent: first.workload.post_spam_sent,
        send_delays: first.workload.send_delays.clone(),
        post_from: first.workload.post_from,
        end: until - 10_000,
    };
    let engine = EngineStats {
        shards: metrics.scalar("engine_shards") as usize,
        barriers: outcome.rounds,
        nullifier_entries: metrics.scalar("rln_nullifier_entries"),
        nullifier_high_water: metrics.scalar("rln_nullifier_high_water"),
        epochs_pruned: metrics.scalar("rln_epochs_pruned"),
    };
    let measured = Measured {
        totals,
        post_honest_delivered,
        post_spam_delivered,
        latencies,
        spammers_detected: detections.len(),
        events_processed: outcome.events_processed,
    };
    let report = assemble_report(config, &wl, measured);
    Ok((report, engine, metrics))
}

fn spawn_worker(
    cmd: &WorkerCommand,
    addr: &str,
    worker: usize,
    workers: usize,
) -> Result<Child, ServiceError> {
    Command::new(&cmd.program)
        .args(&cmd.args)
        .envs(cmd.envs.iter().map(|(k, v)| (k.as_str(), v.as_str())))
        .env(ENV_COORD, addr)
        .env(ENV_WORKER, worker.to_string())
        .env(ENV_WORKERS, workers.to_string())
        .stdout(Stdio::null())
        .stdin(Stdio::null())
        .spawn()
        .map_err(ServiceError::Io)
}

/// Worker-mode entry hook: when `WAKU_DIST_COORD` is set in the
/// environment this process is a spawned worker — run the worker
/// protocol and return `Some(result)`; otherwise `None` (the caller is a
/// normal coordinator/CLI process). Bench binaries and the re-exec'd
/// test hosts call this first thing.
pub fn worker_from_env() -> Option<Result<(), ServiceError>> {
    let addr = std::env::var(ENV_COORD).ok()?;
    Some(run_worker(&addr))
}

fn env_usize(key: &str) -> Result<usize, ServiceError> {
    std::env::var(key)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| protocol_err("worker env", format!("missing or invalid {key}")))
}

fn run_worker(addr: &str) -> Result<(), ServiceError> {
    let worker = env_usize(ENV_WORKER)?;
    let workers = env_usize(ENV_WORKERS)?;
    let options = WorkerOptions {
        exit_after_rounds: std::env::var(ENV_EXIT_AFTER_ROUNDS)
            .ok()
            .and_then(|v| v.trim().parse().ok()),
    };
    let (mut session, config_bytes) = WorkerSession::connect(addr, worker, workers, options)
        .map_err(transport_err("worker connect"))?;
    let config = decode_config(&config_bytes).map_err(codec_err("decode scenario config"))?;
    let shards = config.net.scheduler.resolve(config.peers);

    // Full deterministic replay: identities, topology, workload — then
    // hand the worker's owned shards to the coordinator-driven loop.
    let (mut rng, identities) = crate::scenario::scenario_identities(&config);
    let mut net = Network::new_worker(
        crate::scenario::scenario_net_config(&config),
        workers,
        worker,
    );
    net.subscribe_all(TOPIC);
    let detections = DetectionLog::new(config.peers);
    let store_stats = RecorderShards::new(&store_catalogue().0, config.peers);
    install_validators(
        &config,
        &mut net,
        worker_peer_range(config.peers, shards, workers, worker),
        &detections,
        &store_stats,
    );
    let wl = schedule_workload(&config, &mut net, &identities, &mut rng);
    let until = wl.end + 10_000;

    session
        .run(&mut net, until)
        .map_err(transport_err("worker rounds"))?;

    let mut metrics = store_stats.merged();
    metrics.merge(&net.metrics_snapshot_shard());
    let fragment = Fragment::measure(&wl, &net, &detections);
    session
        .send_results(&metrics.to_wire(), &fragment.encode())
        .map_err(transport_err("worker results"))
}

// ---------------------------------------------------------------------
// Scenario-config wire codec (coordinator → worker, opaque to gossip)
// ---------------------------------------------------------------------

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_u64(out, v);
        }
    }
}

fn read_opt_u64(r: &mut Reader) -> Result<Option<u64>, CodecError> {
    Ok(if r.bool()? { Some(r.u64()?) } else { None })
}

fn read_usize(r: &mut Reader) -> Result<usize, CodecError> {
    usize::try_from(r.u64()?).map_err(|_| CodecError::BadValue)
}

/// A `u64`-prefixed run of `u64`s.
fn read_u64s(r: &mut Reader) -> Result<Vec<u64>, CodecError> {
    let n = r.u64()?;
    (0..r.fits(n, 8)?).map(|_| r.u64()).collect()
}

/// Serializes the full scenario + the coordinator-resolved shard count.
/// Every field is written explicitly so a worker can never construct a
/// scenario that drifts from the coordinator's.
fn encode_config(config: &ScenarioConfig, shards: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    put_u64(&mut out, shards as u64);
    put_u64(&mut out, config.peers as u64);
    put_u64(&mut out, config.spammers as u64);
    put_u64(&mut out, config.duration_ms);
    put_u64(&mut out, config.honest_interval_ms);
    put_u64(&mut out, config.spam_interval_ms);
    put_u64(&mut out, config.payload_bytes as u64);
    match config.defense {
        Defense::None => out.push(0),
        Defense::ScoringOnly => out.push(1),
        Defense::Pow {
            min_pow,
            honest_hashrate,
            spammer_hashrate,
        } => {
            out.push(2);
            put_f64(&mut out, min_pow);
            put_f64(&mut out, honest_hashrate);
            put_f64(&mut out, spammer_hashrate);
        }
        Defense::RlnRelay { epoch_secs, thr } => {
            out.push(3);
            put_u64(&mut out, epoch_secs);
            put_u64(&mut out, thr);
        }
    }
    put_u64(&mut out, config.seed);
    out.extend_from_slice(&config.deposit_wei.to_le_bytes());
    put_opt_u64(&mut out, config.honest_publishers.map(|n| n as u64));
    put_opt_u64(&mut out, config.publisher_churn_ms);
    out.push(config.unbounded_nullifiers as u8);

    // Transport config. Scheduler kind is deliberately NOT carried — the
    // resolved shard count above pins the layout in every process, even
    // if `Auto` resolution or env overrides would differ between them.
    let net = &config.net;
    put_u64(&mut out, net.degree as u64);
    put_u64(&mut out, net.latency_min_ms);
    put_u64(&mut out, net.latency_max_ms);
    put_u64(&mut out, net.clock_drift_ms);
    let g = &net.gossip;
    for v in [
        g.d as u64,
        g.d_lo as u64,
        g.d_hi as u64,
        g.d_lazy as u64,
        g.heartbeat_ms,
        g.mcache_gossip as u64,
        g.mcache_len as u64,
    ] {
        put_u64(&mut out, v);
    }
    let s = &net.scoring;
    for v in [
        s.time_in_mesh_weight,
        s.time_in_mesh_cap,
        s.first_message_weight,
        s.first_message_cap,
        s.invalid_message_weight,
        s.behaviour_penalty_weight,
        s.decay,
        s.decay_to_zero,
        s.prune_threshold,
        s.graylist_threshold,
    ] {
        put_f64(&mut out, v);
    }
    let f = &net.faults;
    put_u64(&mut out, f.seed);
    put_u64(&mut out, f.link.drop_permille as u64);
    put_u64(&mut out, f.link.duplicate_permille as u64);
    put_u64(&mut out, f.link.reorder_permille as u64);
    put_u64(&mut out, f.link.extra_jitter_ms);
    put_u64(&mut out, f.link.reorder_delay_ms);
    put_u64(&mut out, f.partitions.len() as u64);
    for p in &f.partitions {
        put_u64(&mut out, p.start_ms);
        put_u64(&mut out, p.end_ms);
        put_u64(&mut out, p.cut as u64);
    }
    put_u64(&mut out, f.crashes.len() as u64);
    for c in &f.crashes {
        put_u64(&mut out, c.peer as u64);
        put_u64(&mut out, c.crash_ms);
        put_u64(&mut out, c.restart_ms);
    }
    put_u64(&mut out, f.skews.len() as u64);
    for k in &f.skews {
        put_u64(&mut out, k.peer as u64);
        put_u64(&mut out, k.at_ms);
        put_u64(&mut out, k.delta_ms as u64);
    }
    out
}

fn decode_config(bytes: &[u8]) -> Result<ScenarioConfig, CodecError> {
    let c = &mut Reader::new(bytes);
    let shards = read_usize(c)?;
    let peers = read_usize(c)?;
    let spammers = read_usize(c)?;
    let duration_ms = c.u64()?;
    let honest_interval_ms = c.u64()?;
    let spam_interval_ms = c.u64()?;
    let payload_bytes = read_usize(c)?;
    let defense = match c.u8()? {
        0 => Defense::None,
        1 => Defense::ScoringOnly,
        2 => Defense::Pow {
            min_pow: c.f64()?,
            honest_hashrate: c.f64()?,
            spammer_hashrate: c.f64()?,
        },
        3 => Defense::RlnRelay {
            epoch_secs: c.u64()?,
            thr: c.u64()?,
        },
        t => return Err(CodecError::BadTag(t)),
    };
    let seed = c.u64()?;
    let deposit_wei = c.u128()?;
    let honest_publishers = read_opt_u64(c)?
        .map(usize::try_from)
        .transpose()
        .map_err(|_| CodecError::BadValue)?;
    let publisher_churn_ms = read_opt_u64(c)?;
    let unbounded_nullifiers = c.bool()?;

    let degree = read_usize(c)?;
    let latency_min_ms = c.u64()?;
    let latency_max_ms = c.u64()?;
    let clock_drift_ms = c.u64()?;
    let gossip = GossipConfig {
        d: read_usize(c)?,
        d_lo: read_usize(c)?,
        d_hi: read_usize(c)?,
        d_lazy: read_usize(c)?,
        heartbeat_ms: c.u64()?,
        mcache_gossip: read_usize(c)?,
        mcache_len: read_usize(c)?,
    };
    let scoring = waku_gossip::ScoreParams {
        time_in_mesh_weight: c.f64()?,
        time_in_mesh_cap: c.f64()?,
        first_message_weight: c.f64()?,
        first_message_cap: c.f64()?,
        invalid_message_weight: c.f64()?,
        behaviour_penalty_weight: c.f64()?,
        decay: c.f64()?,
        decay_to_zero: c.f64()?,
        prune_threshold: c.f64()?,
        graylist_threshold: c.f64()?,
    };
    let fseed = c.u64()?;
    let permille = |c: &mut Reader| u16::try_from(c.u64()?).map_err(|_| CodecError::BadValue);
    let link = LinkFaults {
        drop_permille: permille(c)?,
        duplicate_permille: permille(c)?,
        reorder_permille: permille(c)?,
        extra_jitter_ms: c.u64()?,
        reorder_delay_ms: c.u64()?,
    };
    let mut partitions = Vec::new();
    let n = c.u64()?;
    for _ in 0..c.fits(n, 24)? {
        partitions.push(PartitionSpec {
            start_ms: c.u64()?,
            end_ms: c.u64()?,
            cut: read_usize(c)?,
        });
    }
    let mut crashes = Vec::new();
    let n = c.u64()?;
    for _ in 0..c.fits(n, 24)? {
        crashes.push(CrashSpec {
            peer: read_usize(c)?,
            crash_ms: c.u64()?,
            restart_ms: c.u64()?,
        });
    }
    let mut skews = Vec::new();
    let n = c.u64()?;
    for _ in 0..c.fits(n, 24)? {
        skews.push(SkewSpec {
            peer: read_usize(c)?,
            at_ms: c.u64()?,
            delta_ms: c.u64()? as i64,
        });
    }
    c.finish()?;
    let faults = FaultPlan {
        seed: fseed,
        link,
        partitions,
        crashes,
        skews,
    };
    let net = waku_gossip::NetworkConfig::builder()
        .peers(peers)
        .degree(degree)
        .latency_ms(latency_min_ms, latency_max_ms)
        .clock_drift_ms(clock_drift_ms)
        .gossip(gossip)
        .scoring(scoring)
        .seed(seed)
        .scheduler(SchedulerKind::Sharded { shards })
        .faults(faults)
        .build()
        .map_err(|_| CodecError::BadValue)?;
    Ok(ScenarioConfig {
        peers,
        spammers,
        duration_ms,
        honest_interval_ms,
        spam_interval_ms,
        payload_bytes,
        defense,
        net,
        seed,
        deposit_wei,
        honest_publishers,
        publisher_churn_ms,
        unbounded_nullifiers,
    })
}

// ---------------------------------------------------------------------
// Per-worker result fragment (worker → coordinator, opaque to gossip)
// ---------------------------------------------------------------------

/// The workload scalars every worker derives identically — compared for
/// equality across workers before any report is assembled.
#[derive(PartialEq)]
struct WorkloadScalars {
    honest_sent: u64,
    spam_sent: u64,
    post_honest_sent: u64,
    post_spam_sent: u64,
    send_delays: Vec<u64>,
    post_from: u64,
}

struct Fragment {
    workload: WorkloadScalars,
    totals: PeerStats,
    post_honest_delivered: u64,
    post_spam_delivered: u64,
    latencies: Vec<u64>,
    detections: Vec<[u8; 32]>,
}

impl Fragment {
    /// This worker's share of the run's results.
    fn measure(wl: &Workload, net: &Network, detections: &DetectionLog) -> Fragment {
        let (post_honest_delivered, post_spam_delivered) =
            net.deliveries_published_since(wl.post_from);
        Fragment {
            workload: WorkloadScalars {
                honest_sent: wl.honest_sent,
                spam_sent: wl.spam_sent,
                post_honest_sent: wl.post_honest_sent,
                post_spam_sent: wl.post_spam_sent,
                send_delays: wl.send_delays.clone(),
                post_from: wl.post_from,
            },
            totals: net.total_stats(),
            post_honest_delivered,
            post_spam_delivered,
            latencies: net.delivery_latencies(),
            detections: detections.merged().into_iter().collect(),
        }
    }

    fn encode(&self) -> Vec<u8> {
        let wl = &self.workload;
        let mut out = Vec::with_capacity(64 + wl.send_delays.len() * 8);
        put_u64(&mut out, wl.honest_sent);
        put_u64(&mut out, wl.spam_sent);
        put_u64(&mut out, wl.post_honest_sent);
        put_u64(&mut out, wl.post_spam_sent);
        put_u64(&mut out, wl.post_from);
        put_u64(&mut out, wl.send_delays.len() as u64);
        for &d in &wl.send_delays {
            put_u64(&mut out, d);
        }
        let totals = &self.totals;
        for v in [
            totals.honest_delivered,
            totals.spam_delivered,
            totals.invalid_delivered,
            totals.rejected,
            totals.ignored,
            totals.bytes_received,
            totals.bytes_sent,
            totals.validations,
        ] {
            put_u64(&mut out, v);
        }
        put_u64(&mut out, self.post_honest_delivered);
        put_u64(&mut out, self.post_spam_delivered);
        put_u64(&mut out, self.latencies.len() as u64);
        for &l in &self.latencies {
            put_u64(&mut out, l);
        }
        put_u64(&mut out, self.detections.len() as u64);
        for s in &self.detections {
            out.extend_from_slice(s);
        }
        out
    }
}

fn decode_fragment(bytes: &[u8]) -> Result<Fragment, CodecError> {
    let c = &mut Reader::new(bytes);
    let honest_sent = c.u64()?;
    let spam_sent = c.u64()?;
    let post_honest_sent = c.u64()?;
    let post_spam_sent = c.u64()?;
    let post_from = c.u64()?;
    let send_delays = read_u64s(c)?;
    let totals = PeerStats {
        honest_delivered: c.u64()?,
        spam_delivered: c.u64()?,
        invalid_delivered: c.u64()?,
        rejected: c.u64()?,
        ignored: c.u64()?,
        bytes_received: c.u64()?,
        bytes_sent: c.u64()?,
        validations: c.u64()?,
    };
    let post_honest_delivered = c.u64()?;
    let post_spam_delivered = c.u64()?;
    let latencies = read_u64s(c)?;
    let n = c.u64()?;
    let detections = (0..c.fits(n, 32)?)
        .map(|_| c.array())
        .collect::<Result<_, _>>()?;
    c.finish()?;
    Ok(Fragment {
        workload: WorkloadScalars {
            honest_sent,
            spam_sent,
            post_honest_sent,
            post_spam_sent,
            send_delays,
            post_from,
        },
        totals,
        post_honest_delivered,
        post_spam_delivered,
        latencies,
        detections,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use waku_gossip::{CrashSpec, PartitionSpec, SkewSpec};

    #[test]
    fn config_codec_round_trips() {
        let mut config = ScenarioConfig {
            peers: 120,
            spammers: 3,
            duration_ms: 10_000,
            honest_interval_ms: 2_500,
            spam_interval_ms: 400,
            payload_bytes: 96,
            defense: Defense::RlnRelay {
                epoch_secs: 1,
                thr: 1,
            },
            seed: 31,
            honest_publishers: Some(60),
            publisher_churn_ms: Some(2_000),
            unbounded_nullifiers: false,
            ..ScenarioConfig::default()
        };
        config.net = config
            .net
            .to_builder()
            .degree(8)
            .latency_ms(25, 210)
            .clock_drift_ms(400)
            .faults(FaultPlan {
                seed: 0xF417,
                link: LinkFaults {
                    drop_permille: 50,
                    duplicate_permille: 30,
                    reorder_permille: 40,
                    extra_jitter_ms: 30,
                    reorder_delay_ms: 25,
                },
                partitions: vec![PartitionSpec {
                    start_ms: 5_000,
                    end_ms: 9_000,
                    cut: 40,
                }],
                crashes: vec![CrashSpec {
                    peer: 70,
                    crash_ms: 4_000,
                    restart_ms: 8_000,
                }],
                skews: vec![SkewSpec {
                    peer: 80,
                    at_ms: 3_500,
                    delta_ms: -1_500,
                }],
            })
            .build()
            .unwrap();
        let bytes = encode_config(&config, 6);
        let decoded = decode_config(&bytes).expect("round trip");
        // Re-encoding is the equality oracle (configs carry no PartialEq).
        assert_eq!(encode_config(&decoded, 6), bytes);
        assert_eq!(decoded.net.scheduler.resolve(decoded.peers), 6);
        // Truncations fail cleanly.
        for cut in 0..bytes.len() {
            assert!(decode_config(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Totality (the shared generator behind `tests/decoders_total.rs`):
        // hostile bytes never panic, and whatever still decodes is
        // exactly what the bytes say.
        for m in waku_wire::mutations(&bytes) {
            if let Ok(decoded) = decode_config(&m) {
                let SchedulerKind::Sharded { shards } = decoded.net.scheduler else {
                    panic!("decode_config always pins the shard count");
                };
                assert_eq!(encode_config(&decoded, shards), m);
            }
        }
    }

    #[test]
    fn fragment_codec_round_trips_and_is_total() {
        let fragment = Fragment {
            workload: WorkloadScalars {
                honest_sent: 40,
                spam_sent: 9,
                post_honest_sent: 30,
                post_spam_sent: 7,
                send_delays: vec![3, 1, 4],
                post_from: 5_000,
            },
            totals: PeerStats {
                honest_delivered: 1,
                spam_delivered: 2,
                invalid_delivered: 3,
                rejected: 4,
                ignored: 5,
                bytes_received: 6,
                bytes_sent: 7,
                validations: 8,
            },
            post_honest_delivered: 11,
            post_spam_delivered: 12,
            latencies: vec![20, 45],
            detections: vec![[0xAB; 32], [0xCD; 32]],
        };
        let bytes = fragment.encode();
        let decoded = decode_fragment(&bytes).expect("round trip");
        assert!(decoded.workload == fragment.workload);
        assert_eq!(decoded.encode(), bytes);
        for m in waku_wire::mutations(&bytes) {
            if let Ok(decoded) = decode_fragment(&m) {
                assert_eq!(decoded.encode(), m);
            }
        }
    }
}
