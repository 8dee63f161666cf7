//! The five workloads. Each is a sequence of **identical passes** driven
//! through public functions only: the real `RelayerService` (injected
//! clock, real Groth16, real `SegmentLog` on disk) or
//! `run_scenario_instrumented`.
//!
//! Load model, all workloads: closed loop, one client, zero think time,
//! harness single-threaded — `RelayerService` is a synchronous
//! single-owner object whose only real caller is the node's event loop.
//! The library pool keeps its default size; nothing else spawns threads.

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use waku_gossip::NetworkConfig;
use waku_node::{RelayerService, ServiceError};
use waku_relay::{Direction, HistoryQuery};
use waku_rln::{RlnMessageBundle, RlnVerifier};
use waku_rln_relay::BatchDecision;
use waku_sim::{run_scenario_instrumented, Defense, EngineStats, ScenarioConfig, ScenarioReport};

use crate::corpus::{self, Class, Message, BASE_SECS, EPOCH_SECS};
use crate::fixtures::{
    batch64, load_keys, service_config, submit_registration, RelayFixture, Scratch, RELAY_SPEC,
};
use crate::stats::{median, Pass};
use crate::trace::Tracer;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The resource-restricted publisher at depth 20.
    PublishD20,
    /// Per-hop validation, one pairing check per message.
    RelaySingle,
    /// Relayer capacity with 64-message RLC batches plus history reads.
    RelayBatch64,
    /// The batch path used the way an attacker uses it.
    RelayHostile,
    /// The gossip engine under the seeded E6 scenario at 1000 peers.
    SimE6,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 5] = [
        Workload::PublishD20,
        Workload::RelaySingle,
        Workload::RelayBatch64,
        Workload::RelayHostile,
        Workload::SimE6,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PublishD20 => "publish_d20",
            Workload::RelaySingle => "relay_single",
            Workload::RelayBatch64 => "relay_batch64",
            Workload::RelayHostile => "relay_hostile",
            Workload::SimE6 => "sim_e6_1k",
        }
    }

    /// The workload with this name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::PublishD20 => "depth-20 publish: the prover stack (witness, MSMs, FFTs) does over 90% of the work and the verifier none; the paper's phone-class publisher",
            Workload::RelaySingle => "default pass-through relay: one full pairing check per message, so final exponentiation and the 3-pair Miller loop dominate and the batch code is idle",
            Workload::RelayBatch64 => "64-message RLC batches plus history reads: final exponentiation amortised 64x, so Miller pairs, RLC MSMs, nullifier log and segment appends take their largest share",
            Workload::RelayHostile => "batch path under junk proofs, duplicates, stale replays, unknown roots and double-signals: bisection, Shamir recovery and slashing; a happy-path gain that costs the poisoned path shows here",
            Workload::SimE6 => "seeded E6 scenario at 1000 peers: gossip engine, scheduler, caches and the sim validator with no Groth16 call; the only workload a gossip/sim change should move",
        }
    }

    /// The fixed tail percentile of `latency_tail_ms`: a round percentile
    /// that leaves ten or more pooled samples beyond it in a 15 s run —
    /// except on `publish_d20`, whose ≈ 24 pooled publishes leave 6 beyond
    /// p75 (the counts are printed beside the figure). The simulator has
    /// one sample per pass, so its tail is the slowest pooled pass.
    pub fn tail_pct(self) -> f64 {
        match self {
            Workload::PublishD20 => 75.0,
            Workload::RelaySingle => 95.0,
            Workload::RelayBatch64 => 99.0,
            Workload::RelayHostile => 98.0,
            Workload::SimE6 => 100.0,
        }
    }

    /// What one operation is, for the throughput unit.
    pub fn op_unit(self) -> &'static str {
        match self {
            Workload::PublishD20 => "publishes",
            Workload::SimE6 => "sim events",
            _ => "messages",
        }
    }
}

/// What one pass produced.
pub struct PassOut {
    /// Timing of the pass.
    pub pass: Pass,
    /// Operations checked against the oracle.
    pub attempted: u64,
    /// Operations (or cross-checks) that missed it.
    pub failed: u64,
    /// Human-readable description of the misses.
    pub notes: Vec<String>,
    /// Counts that must repeat exactly on every pass with the same seed.
    pub counts: BTreeMap<String, u64>,
}

/// A prepared workload: call `pass` as often as the budget allows.
pub trait Runner {
    /// Runs one pass. Top-level spans go to `tracer` under operation ids
    /// starting at `op`.
    fn pass(&mut self, tracer: &mut Tracer, op: u64) -> Result<PassOut, ServiceError>;
}

/// Shared fixtures, built on first use. A workload's `setup_s` charges
/// the fixture's build time whoever triggered it: it is what a solo run
/// of the workload would pay.
pub struct Fixtures {
    /// The process's scratch directory.
    pub scratch: Scratch,
    /// The workload seed.
    pub seed: u64,
    relay: Option<Rc<RelayFixture>>,
}

impl Fixtures {
    /// Empty fixtures over a fresh scratch directory.
    pub fn new(seed: u64) -> std::io::Result<Fixtures> {
        Ok(Fixtures {
            scratch: Scratch::create()?,
            seed,
            relay: None,
        })
    }

    /// The relay fixture (depth-10 keys, members, corpus).
    pub fn relay(&mut self) -> Result<Rc<RelayFixture>, ServiceError> {
        if self.relay.is_none() {
            let fixture = RelayFixture::build(self.scratch.dir("relay"), RELAY_SPEC, self.seed)?;
            self.relay = Some(Rc::new(fixture));
        }
        Ok(Rc::clone(self.relay.as_ref().expect("just built")))
    }
}

/// Runs `setup` `repeats` times and returns the last result with the
/// median time: a cheap set-up is too short to be timed once.
fn repeated<T>(
    repeats: usize,
    mut setup: impl FnMut() -> Result<T, ServiceError>,
) -> Result<(T, f64), ServiceError> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..repeats {
        drop(last.take()); // the next set-up reuses its data directory
        let started = Instant::now();
        last = Some(setup()?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

/// Sets a workload up and returns its runner with the set-up time. Cheap
/// set-ups run several times and report the median; the relay corpus
/// (≈ 7 s of proving, already an average over 68 proofs) is built once.
pub fn prepare(
    workload: Workload,
    fixtures: &mut Fixtures,
) -> Result<(Box<dyn Runner>, f64), ServiceError> {
    let seed = fixtures.seed;
    match workload {
        Workload::PublishD20 => {
            let dir = fixtures.scratch.dir("publish");
            let (runner, setup_s) = repeated(7, || PublishRunner::open(dir.clone(), 20, seed))?;
            Ok((Box::new(runner), setup_s))
        }
        Workload::RelaySingle | Workload::RelayBatch64 | Workload::RelayHostile => {
            let fixture = fixtures.relay()?;
            // Whoever built the fixture, a solo run would have paid for it.
            let setup_s = fixture.setup_s;
            Ok((Box::new(RelayRunner::new(fixture, workload)), setup_s))
        }
        Workload::SimE6 => {
            // Set-up is the reference pass the timed passes are compared
            // against (it also warms the allocator).
            let (runner, setup_s) = repeated(5, || Ok(SimRunner::new(seed)))?;
            Ok((Box::new(runner), setup_s))
        }
    }
}

// ---------------------------------------------------------------- publish

/// Epochs per `publish_d20` pass. Three epochs are one checkpoint period
/// (30 s), so every pass holds exactly one checkpoint.
pub const PUBLISH_EPOCHS_PER_PASS: u64 = 3;
/// Members registered at the start of every `publish_d20` pass, so the
/// publisher's path and root move (§III-C).
pub const PUBLISH_NEW_MEMBERS_PER_PASS: usize = 2;

/// `publish_d20`: `step(now)` then `RelayerService::publish`, once per
/// epoch, on a service whose membership keeps growing.
pub struct PublishRunner {
    service: RelayerService,
    verifier: RlnVerifier,
    rng: StdRng,
    epochs_done: u64,
}

impl PublishRunner {
    /// Cold-opens a service at `depth` in `dir` (key ceremony included),
    /// loads the verifier for the oracle, and mines the service's own
    /// registration checkpoint.
    pub fn open(dir: PathBuf, depth: usize, seed: u64) -> Result<Self, ServiceError> {
        let _ = std::fs::remove_dir_all(&dir);
        let mut service = RelayerService::open(service_config(&dir, depth, None, seed))?;
        let (_, verifier) = load_keys(&dir, depth);
        service.step(BASE_SECS)?;
        Ok(PublishRunner {
            service,
            verifier,
            rng: StdRng::seed_from_u64(seed ^ 0x7075_626C),
            epochs_done: 0,
        })
    }
}

impl Runner for PublishRunner {
    fn pass(&mut self, tracer: &mut Tracer, op: u64) -> Result<PassOut, ServiceError> {
        const W: &str = "publish_d20";
        let mut out = PassOut {
            pass: Pass::default(),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
            counts: BTreeMap::new(),
        };
        // Fresh identities for this pass's registrations (untimed).
        let newcomers = corpus::members(self.rng.gen(), PUBLISH_NEW_MEMBERS_PER_PASS);
        for e in 0..PUBLISH_EPOCHS_PER_PASS {
            self.epochs_done += 1;
            let now = BASE_SECS + self.epochs_done * EPOCH_SECS;
            let mut payload = vec![0u8; 128];
            self.rng.fill(&mut payload[..]);

            let started = Instant::now();
            if e == 0 {
                for member in &newcomers {
                    submit_registration(&mut self.service, member);
                }
            }
            self.service.step(now)?;
            let stepped = Instant::now();
            let result = self.service.publish(&payload, now, &mut self.rng);
            let published = Instant::now();

            let this_op = op + e;
            tracer.record(W, "node.step", None, this_op, started, stepped);
            tracer.record(W, "node.publish", None, this_op, stepped, published);
            out.pass.timed_ns += published.duration_since(started).as_nanos() as u64;
            out.pass.ops += 1;
            out.pass
                .lat_ns
                .push(published.duration_since(stepped).as_nanos() as u64);

            // Oracle (untimed): our own bundle is a valid proof for this
            // payload and epoch against the root the group just moved to.
            out.attempted += 1;
            let ok = match &result {
                Ok(bundle) => {
                    bundle.payload == payload
                        && bundle.epoch == now / EPOCH_SECS
                        && bundle.root == self.service.node().group().root()
                        && self.verifier.verify_bundle(bundle)
                }
                Err(_) => false,
            };
            if !ok {
                out.failed += 1;
                out.notes.push(format!(
                    "publish at epoch {} failed the oracle",
                    now / EPOCH_SECS
                ));
            }
        }
        out.counts
            .insert("publishes".into(), PUBLISH_EPOCHS_PER_PASS);
        out.counts.insert(
            "members_registered".into(),
            PUBLISH_NEW_MEMBERS_PER_PASS as u64,
        );
        Ok(out)
    }
}

// ------------------------------------------------------------------ relay

/// The `relay_*` workloads. Each pass wipes `store/`, `nullifiers.snap`
/// and `publish.guard`, keeps `keys.bin`, reopens the service and replays
/// the registrations — all untimed — then times `step`, every `ingest`,
/// two closing `step`s (they flush the queue and mine the slashing commit
/// and reveal), the history walk between them, and `shutdown`.
pub struct RelayRunner {
    fixture: Rc<RelayFixture>,
    /// `RelaySingle` (pass-through, a [`SINGLE_SLICE`]-message slice of the
    /// honest epoch), `RelayBatch64` (batch 64, the honest epoch, one
    /// backward history walk) or `RelayHostile` (batch 64, the honest
    /// epoch with the hostile set shuffled in).
    workload: Workload,
}

impl RelayRunner {
    /// A runner of one of the three relay workloads over the shared
    /// fixture.
    pub fn new(fixture: Rc<RelayFixture>, workload: Workload) -> Self {
        assert!(matches!(
            workload,
            Workload::RelaySingle | Workload::RelayBatch64 | Workload::RelayHostile
        ));
        RelayRunner { fixture, workload }
    }
}

/// Messages per `relay_single` pass: a slice of the honest epoch. Every
/// message costs one independent pairing check, so a short pass measures
/// the same thing as a long one, and short passes let the
/// fastest-fraction estimator step around interference.
pub const SINGLE_SLICE: usize = 16;

/// History page size of the `relay_batch64` backward walk.
pub const QUERY_PAGE: u64 = 20;

impl Runner for RelayRunner {
    fn pass(&mut self, tracer: &mut Tracer, op: u64) -> Result<PassOut, ServiceError> {
        let w = self.workload.name();
        let fx = &*self.fixture;
        let hostile = self.workload == Workload::RelayHostile;
        let mut arrival = fx.corpus.arrival(hostile);
        if self.workload == Workload::RelaySingle {
            arrival.truncate(SINGLE_SLICE);
        }
        let expected = corpus::expected(&arrival);
        let batch = (self.workload != Workload::RelaySingle).then(batch64);

        // Untimed: fresh state, warm keys, registrations, input copies.
        let mut service = fx.fresh_service(batch)?;
        let inputs: Vec<RlnMessageBundle> = arrival.iter().map(|m| m.bundle.clone()).collect();
        let n = inputs.len();
        let mut starts: Vec<Instant> = Vec::with_capacity(n);
        // Every call that can carry decisions, with its return time and
        // the message it ingested (if it was an ingest).
        let mut returns: Vec<(Instant, Option<usize>, Vec<BatchDecision>)> =
            Vec::with_capacity(n + 3);

        let now = BASE_SECS;
        let pass_started = Instant::now();
        let decisions = service.step(now)?;
        let mut last = Instant::now();
        tracer.record(w, "node.step", None, op, pass_started, last);
        returns.push((last, None, decisions));

        for (i, bundle) in inputs.into_iter().enumerate() {
            let started = Instant::now();
            let decisions = service.ingest(bundle, now)?;
            last = Instant::now();
            tracer.record(w, "node.ingest", None, op + 1 + i as u64, started, last);
            starts.push(started);
            returns.push((last, Some(i), decisions));
        }

        // The first closing step flushes what the last batch left queued
        // and mines the slashing commits; the second mines the reveals.
        let mut history: Vec<Vec<u8>> = Vec::new();
        for k in 1..=2 {
            let started = Instant::now();
            let decisions = service.step(now + k * EPOCH_SECS)?;
            last = Instant::now();
            tracer.record(w, "node.step", None, op, started, last);
            returns.push((last, None, decisions));

            // The history reads sit beside the appends: a store change
            // that trades one for the other shows in this workload's
            // throughput. One backward cursor walk over the whole epoch,
            // once every message is decided.
            if k == 1 && self.workload == Workload::RelayBatch64 {
                let mut cursor = None;
                loop {
                    let started = Instant::now();
                    let page = service.query(&HistoryQuery {
                        cursor,
                        page_size: QUERY_PAGE,
                        direction: Direction::Backward,
                        ..HistoryQuery::default()
                    });
                    last = Instant::now();
                    tracer.record(w, "node.query", None, op, started, last);
                    history.extend(page.messages.into_iter().map(|m| m.payload));
                    cursor = page.next_cursor;
                    if cursor.is_none() {
                        break;
                    }
                }
            }
        }
        let mut timed_ns = last.duration_since(pass_started).as_nanos() as u64;

        // Untimed: the service's own view, read before shutdown eats it.
        let counters = service.node().validation_metrics();
        let node_counters = service.node().metrics();
        let spammers_removed = (0..fx.spec.corpus.spammers)
            .filter(|s| {
                let leaf = 1 + (fx.spec.corpus.publishers + s) as u64;
                service.chain().contract().member_at(leaf).is_none()
            })
            .count();

        let started = Instant::now();
        let report = service.shutdown(now + 2 * EPOCH_SECS)?;
        let ended = Instant::now();
        tracer.record(w, "node.shutdown", None, op, started, ended);
        timed_ns += ended.duration_since(started).as_nanos() as u64;

        // Untimed: give every decision back to the message it is about.
        let mut got: Vec<Option<(Class, u64)>> = vec![None; n];
        let mut pending: VecDeque<usize> = VecDeque::new();
        let mut strays = 0u64;
        for (returned, ingested, decisions) in &returns {
            pending.extend(ingested);
            for d in decisions {
                match pending.iter().position(|&i| arrival[i].bundle == d.bundle) {
                    Some(at) => {
                        let i = pending.remove(at).expect("position is in range");
                        let latency = returned.duration_since(starts[i]).as_nanos() as u64;
                        got[i] = Some((Class::of(&d.outcome), latency));
                    }
                    None => strays += 1,
                }
            }
        }

        let mut out = PassOut {
            pass: Pass {
                timed_ns,
                ops: n as u64,
                lat_ns: got.iter().flatten().map(|(_, ns)| *ns).collect(),
            },
            attempted: n as u64,
            failed: 0,
            notes: Vec::new(),
            counts: BTreeMap::new(),
        };
        for (i, (want, have)) in expected.iter().zip(got.iter()).enumerate() {
            if have.map(|(class, _)| class) != Some(*want) {
                out.failed += 1;
                out.notes.push(format!(
                    "message {i} ({:?}): expected {want:?}, got {:?}",
                    arrival[i].kind,
                    have.map(|(class, _)| class)
                ));
            }
        }

        // Cross-checks against the service's own counters and store.
        let want = corpus::class_counts(expected.iter().copied());
        let relayed: Vec<&Message> = arrival
            .iter()
            .zip(expected.iter())
            .filter(|(_, class)| **class == Class::Relay)
            .map(|(m, _)| *m)
            .collect();
        let spammers = if hostile {
            fx.spec.corpus.spammers as u64
        } else {
            0
        };
        let mut check = |name: &str, have: u64, want: u64| {
            if have != want {
                out.failed += 1;
                out.notes
                    .push(format!("{name}: service says {have}, oracle says {want}"));
            }
        };
        check("rln_validation_total", counters.total, n as u64);
        check("rln_validation_relayed_total", counters.relayed, want[0]);
        check(
            "rln_validation_duplicates_total",
            counters.duplicates,
            want[1],
        );
        check(
            "rln_validation_spam_detected_total",
            counters.spam_detected,
            want[2],
        );
        check(
            "rln_validation_spam_detected_total (spammers)",
            counters.spam_detected,
            spammers,
        );
        check(
            "rln_validation_proof_rejected_total",
            counters.proof_rejected,
            want[3],
        );
        check(
            "rln_validation_epoch_dropped_total",
            counters.epoch_dropped,
            want[4],
        );
        check(
            "rln_validation_root_dropped_total",
            counters.root_dropped,
            want[5],
        );
        check(
            "node_published_total (no prover call while relaying)",
            node_counters.published,
            0,
        );
        check(
            "node_slash_reveals_total",
            node_counters.slash_reveals,
            spammers,
        );
        check(
            "slashed members removed on chain",
            spammers_removed as u64,
            spammers,
        );
        check("decisions left for shutdown", report.flushed as u64, 0);
        check("decisions about unknown bundles", strays, 0);
        check("messages stored", report.messages_stored as u64, want[0]);
        if self.workload == Workload::RelayBatch64 {
            let newest_first: Vec<&[u8]> = relayed
                .iter()
                .rev()
                .map(|m| &m.bundle.payload[..])
                .collect();
            let walked: Vec<&[u8]> = history.iter().map(|p| &p[..]).collect();
            check(
                "history walk matches relayed order",
                u64::from(walked == newest_first),
                1,
            );
        }

        for (class, count) in Class::ALL
            .iter()
            .zip(corpus::class_counts(got.iter().flatten().map(|(c, _)| *c)))
        {
            out.counts
                .insert(format!("messages.{}", class.label()), count);
        }
        Ok(out)
    }
}

// -------------------------------------------------------------------- sim

/// The E6 scenario of `exp_scale_sweep` at 1000 peers (5 spammers, 100
/// honest publishers, honest interval 5 s, spam interval 0.5 s,
/// `RlnRelay{epoch 1 s, thr 1}`, degree 8), with a 5 s simulated horizon
/// instead of the sweep's 15 s so a 10 s run holds enough passes for the
/// fastest-fraction estimator; events/s is the same steady-state figure.
pub fn e6_config(seed: u64, defense: Defense) -> ScenarioConfig {
    ScenarioConfig {
        peers: 1000,
        spammers: 5,
        duration_ms: 5_000,
        honest_interval_ms: 5_000,
        spam_interval_ms: 500,
        honest_publishers: Some(100),
        defense,
        net: NetworkConfig::builder()
            .degree(8)
            .build()
            .expect("valid net config"),
        seed,
        ..ScenarioConfig::default()
    }
}

/// Pool size of every simulator run, set through the public
/// `waku_pool::with_threads`. The engine's shards meet at a barrier every
/// few hundred events, so it needs both vCPUs *at the same instant*, and
/// the shared 2-vCPU build VM cannot promise that: measured there, the
/// same pass took 0.51 s with the host quiet and 1.2–2.0 s (56–152 steal
/// ticks per pass) an hour later, while the one-thread pass stayed at
/// 0.9–1.2 s. A figure that moves 3× with the neighbours cannot carry a
/// 15% bound. One thread runs the same shards and barriers in turn (the
/// event and barrier counts are identical); the coarse-grained pool work
/// of the prover and the batch verifier degrades by ≈ 10% in the same
/// conditions and keeps the default pool.
pub const SIM_POOL_THREADS: usize = 1;

/// One instrumented scenario run on [`SIM_POOL_THREADS`] threads.
pub fn run_sim(config: &ScenarioConfig) -> (ScenarioReport, EngineStats) {
    waku_pool::with_threads(SIM_POOL_THREADS, || run_scenario_instrumented(config))
}

/// The RLN defense of the E6 scenario.
pub const E6_RLN: Defense = Defense::RlnRelay {
    epoch_secs: 1,
    thr: 1,
};

/// Containment bound of the oracle. `exp_scale_sweep` gates its 15 s runs
/// at 0.6 (≈ 2 spam msgs/s against a 1 s epoch lets about every other one
/// through); a 5 s run has a third of the messages and so more jitter —
/// 40 seeds gave 0.43–0.58 — and gets a little more room.
pub const MAX_SPAM_DELIVERY: f64 = 0.65;

/// `sim_e6_1k`: one `run_scenario_instrumented` call per pass.
pub struct SimRunner {
    config: ScenarioConfig,
    reference: ScenarioReport,
}

impl SimRunner {
    /// Runs the reference pass every timed pass must equal.
    pub fn new(seed: u64) -> Self {
        let config = e6_config(seed, E6_RLN);
        let (reference, _) = run_sim(&config);
        SimRunner { config, reference }
    }
}

impl Runner for SimRunner {
    fn pass(&mut self, tracer: &mut Tracer, op: u64) -> Result<PassOut, ServiceError> {
        let started = Instant::now();
        let (report, engine) = run_sim(&self.config);
        let ended = Instant::now();
        tracer.record("sim_e6_1k", "sim.run_scenario", None, op, started, ended);
        let ns = ended.duration_since(started).as_nanos() as u64;

        let mut notes = Vec::new();
        if report.honest_delivery_ratio < 0.99 {
            notes.push(format!(
                "honest delivery {:.4} < 0.99",
                report.honest_delivery_ratio
            ));
        }
        if report.spam_delivery_ratio > MAX_SPAM_DELIVERY {
            notes.push(format!(
                "spam delivery {:.4} > {MAX_SPAM_DELIVERY}",
                report.spam_delivery_ratio
            ));
        }
        if report.spammers_detected != self.config.spammers {
            notes.push(format!(
                "{} of {} spammers caught",
                report.spammers_detected, self.config.spammers
            ));
        }
        if report != self.reference {
            notes.push("ScenarioReport differs from the reference pass".into());
        }
        let counts = BTreeMap::from([
            ("gossip.events".to_string(), report.events_processed),
            ("gossip.barriers".to_string(), engine.barriers),
            ("sim.validations".to_string(), report.validations),
        ]);
        Ok(PassOut {
            pass: Pass {
                timed_ns: ns,
                ops: report.events_processed,
                lat_ns: vec![ns],
            },
            attempted: 1,
            failed: u64::from(!notes.is_empty()),
            notes,
            counts,
        })
    }
}

// ------------------------------------------------------------- measuring

/// How long a workload measures.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Passes until this many seconds have gone by.
    Seconds(f64),
    /// A fixed number of passes (`--quick`, tests).
    Passes(usize),
}

/// Everything one measured workload produced.
pub struct Measured {
    /// The workload.
    pub workload: Workload,
    /// Set-up seconds a solo run pays before its first timed operation.
    pub setup_s: f64,
    /// Untraced passes — the only source of end-to-end figures.
    pub passes: Vec<Pass>,
    /// Traced passes (empty unless tracing alternated).
    pub traced_passes: Vec<Pass>,
    /// Operations checked against the oracle.
    pub attempted: u64,
    /// Operations that missed it.
    pub failed: u64,
    /// The first few misses, described.
    pub notes: Vec<String>,
    /// Per-pass counts (identical on every pass, or it is a failure).
    pub counts: BTreeMap<String, u64>,
    /// Peak resident set of the process, MB.
    pub peak_rss_mb: f64,
}

/// Runs passes until the budget is spent. With `trace`, odd passes are
/// recorded by the tracer and kept apart, so the untraced figures and the
/// tracing overhead come from interleaved passes of the same process.
pub fn measure(
    workload: Workload,
    runner: &mut dyn Runner,
    setup_s: f64,
    budget: Budget,
    tracer: &mut Tracer,
    trace: bool,
) -> Result<Measured, ServiceError> {
    let mut m = Measured {
        workload,
        setup_s,
        passes: Vec::new(),
        traced_passes: Vec::new(),
        attempted: 0,
        failed: 0,
        notes: Vec::new(),
        counts: BTreeMap::new(),
        peak_rss_mb: 0.0,
    };
    let min_passes = if trace { 4 } else { 2 };
    let started = Instant::now();
    let mut done = 0usize;
    let mut next_op = 0u64;
    loop {
        let enough = match budget {
            Budget::Seconds(s) => done >= min_passes && started.elapsed().as_secs_f64() >= s,
            Budget::Passes(n) => done >= n.max(min_passes),
        };
        if enough {
            break;
        }
        tracer.enabled = trace && done % 2 == 1;
        let out = runner.pass(tracer, next_op)?;
        next_op += 1_000;
        if tracer.enabled {
            m.traced_passes.push(out.pass);
        } else {
            m.passes.push(out.pass);
        }
        tracer.enabled = false;
        m.attempted += out.attempted;
        m.failed += out.failed;
        m.notes.extend(out.notes);
        if done == 0 {
            m.counts = out.counts;
        } else if out.counts != m.counts {
            m.failed += 1;
            m.notes
                .push(format!("pass {done}: counts differ from pass 0"));
        }
        m.notes.truncate(8);
        done += 1;
    }
    m.peak_rss_mb = peak_rss_mb();
    Ok(m)
}

/// `VmHWM` of this process in MB (0 when `/proc` is unreadable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusSpec;
    use crate::fixtures::RelaySpec;

    /// Two publishers and one double-signaller at depth 4, with one
    /// hostile message of every sort.
    const MINI: RelaySpec = RelaySpec {
        depth: 4,
        corpus: CorpusSpec {
            publishers: 2,
            spammers: 1,
            junk: 1,
            duplicates: 1,
            stale: 1,
            bad_root: 1,
            payload_bytes: 32,
        },
    };

    fn scratch(test: &str) -> Scratch {
        Scratch::at(&format!("{}-{test}", std::process::id())).unwrap()
    }

    #[test]
    fn mini_corpus_covers_all_six_classes_and_the_service_agrees() {
        let scratch = scratch("oracle");
        let fixture = Rc::new(RelayFixture::build(scratch.dir("relay"), MINI, 7).unwrap());
        let arrival = fixture.corpus.arrival(true);
        assert_eq!(arrival.len(), 2 + 2 + 4);
        let classes = corpus::expected(&arrival);
        for class in Class::ALL {
            assert!(
                classes.contains(&class),
                "{class:?} missing from {classes:?}"
            );
        }
        assert_eq!(corpus::class_counts(classes), [3, 1, 1, 1, 1, 1]);

        // The real service gives every message the class the oracle
        // predicted, and its own counters, store and chain agree — in
        // every relay mode.
        for workload in [
            Workload::RelayHostile,
            Workload::RelayBatch64,
            Workload::RelaySingle,
        ] {
            let mut runner = RelayRunner::new(Rc::clone(&fixture), workload);
            let out = runner.pass(&mut Tracer::new(), 0).unwrap();
            assert_eq!(out.failed, 0, "{workload:?}: {:?}", out.notes);
            assert_eq!(out.pass.lat_ns.len() as u64, out.attempted);
            if workload == Workload::RelayHostile {
                assert_eq!(out.counts["messages.spam"], 1);
                assert_eq!(out.counts["messages.relay"], 3);
            } else {
                assert_eq!(out.counts["messages.relay"], 2);
            }
        }
    }

    #[test]
    fn a_wrong_verdict_is_counted_as_failed() {
        // Thr = 1 accepts a replay one epoch back, so an oracle that calls
        // the stale class on it must be contradicted by the service.
        let scratch = scratch("miss");
        let mut fixture = RelayFixture::build(scratch.dir("relay"), MINI, 9).unwrap();
        let stale = fixture
            .corpus
            .hostile
            .iter_mut()
            .find(|m| m.kind == corpus::Kind::Stale)
            .unwrap();
        stale.bundle.epoch = BASE_SECS / EPOCH_SECS - 1;
        let mut runner = RelayRunner::new(Rc::new(fixture), Workload::RelayHostile);
        let out = runner.pass(&mut Tracer::new(), 0).unwrap();
        assert!(
            out.failed >= 1,
            "the re-stamped proof is invalid, not stale"
        );
        assert!(
            out.notes
                .iter()
                .any(|n| n.contains("expected EpochOutOfRange")),
            "{:?}",
            out.notes
        );
    }

    #[test]
    fn same_seed_same_corpus_bytes_and_another_seed_differs() {
        let scratch = scratch("bytes");
        let build = |dir: &str, seed| {
            RelayFixture::build(scratch.dir(dir), MINI, seed)
                .unwrap()
                .corpus
                .to_bytes()
        };
        let first = build("a", 11);
        assert_eq!(first, build("b", 11));
        assert_ne!(first, build("c", 12));
    }

    #[test]
    fn publish_passes_are_identical_and_pass_the_oracle() {
        let scratch = scratch("publish");
        let mut runner = PublishRunner::open(scratch.dir("publish"), 4, 5).unwrap();
        let m = measure(
            Workload::PublishD20,
            &mut runner,
            0.0,
            Budget::Passes(2),
            &mut Tracer::new(),
            false,
        )
        .unwrap();
        assert_eq!(m.failed, 0, "{:?}", m.notes);
        assert_eq!(m.attempted, 2 * PUBLISH_EPOCHS_PER_PASS);
        assert_eq!(m.passes.len(), 2);
        assert_eq!(m.counts["publishes"], PUBLISH_EPOCHS_PER_PASS);
    }

    #[test]
    fn tracing_alternates_and_keeps_traced_passes_apart() {
        let scratch = scratch("traced");
        let fixture = Rc::new(RelayFixture::build(scratch.dir("relay"), MINI, 3).unwrap());
        let mut runner = RelayRunner::new(fixture, Workload::RelaySingle);
        let mut tracer = Tracer::new();
        let m = measure(
            Workload::RelaySingle,
            &mut runner,
            0.0,
            Budget::Passes(4),
            &mut tracer,
            true,
        )
        .unwrap();
        assert_eq!((m.passes.len(), m.traced_passes.len()), (2, 2));
        assert_eq!(m.failed, 0, "{:?}", m.notes);
        // step + 2 ingests + 2 closing steps + shutdown, on two passes.
        assert_eq!(tracer.spans().len(), 2 * 6);
        assert!(tracer
            .spans()
            .iter()
            .all(|s| s.workload == "relay_single" && s.end_ns >= s.start_ns));
    }
}
