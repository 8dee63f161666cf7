//! Soak mode: hours of simulated service time through the **real**
//! `waku-node` service, in seconds of wall time.
//!
//! The other scenario modules drive the in-process validation engine;
//! this one drives [`RelayerService`] itself — the same object the
//! `waku-node` binary wraps around a wall clock — because the claims it
//! checks are *operational*, not algorithmic:
//!
//! 1. **flat memory** — over a long horizon at a constant workload,
//!    every memory-shaped gauge (resident nullifiers, store window,
//!    disk bytes, ingest queue) stays bounded: the late-run high-water
//!    marks do not exceed the warmed-up early-run marks.
//! 2. **restart survival** — killing the service mid-soak (drop after a
//!    checkpoint, no clean shutdown of the loop) and reopening the same
//!    `data_dir` recovers the message window, the nullifier snapshot,
//!    and the publish guard, and the defense keeps detecting spam
//!    afterwards.
//!
//! Everything is driven off the injected clock (`now_secs`), so a
//! `--sim-hours 4` run finishes in however long its proofs take — the
//! simulated horizon and the wall time are fully decoupled.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use waku_chain::{Address, TxKind, ETHER};
use waku_node::{RecoveryReport, RelayerService, ServiceConfig, ServiceError, ServiceStatus};
use waku_relay::SegmentConfig;
use waku_rln::{Identity, RlnProver};
use waku_rln_relay::{GroupManager, NodeConfig, Outcome};

/// Parameters of one soak run.
#[derive(Clone, Debug)]
pub struct SoakConfig {
    /// Simulated horizon in seconds (3600 = one hour of service time).
    pub sim_secs: u64,
    /// Rate-limit epoch length `T` in seconds.
    pub epoch_secs: u64,
    /// Honest external publishers, each publishing once per epoch.
    pub publishers: usize,
    /// Kill the service (drop, no loop shutdown) at the horizon midpoint
    /// and reopen it from the same state directory.
    pub restart_mid_soak: bool,
    /// Determinism seed.
    pub seed: u64,
}

/// Maximum accepted epoch gap `Thr`.
const THR: u64 = 2;
/// RLN membership tree depth (small depths keep proving fast; the
/// workload shape is depth-independent).
const TREE_DEPTH: usize = 6;
/// Launch a double-signalling spammer every this many epochs. Each wave
/// registers a fresh identity — slashing removes the previous one, which
/// also exercises membership churn.
const SPAM_EVERY_EPOCHS: u64 = 10;
/// Durable checkpoint interval in simulated seconds.
const CHECKPOINT_SECS: u64 = 60;
/// Store window capacity (messages retained; older ones evicted and their
/// segments garbage-collected). Small, so steady state (capacity + GC
/// sawtooth) is reached well inside the first quarter of the horizon and
/// the early/late flatness comparison sees warmed gauges.
const STORE_CAPACITY: usize = 32;
/// Gauge sampling interval in simulated seconds.
const SAMPLE_EVERY_SECS: u64 = 120;

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            sim_secs: 3600,
            epoch_secs: 10,
            publishers: 3,
            restart_mid_soak: true,
            seed: 42,
        }
    }
}

/// What the mid-soak kill-and-restart recovered.
#[derive(Clone, Copy, Debug)]
pub struct SoakRestart {
    /// Simulated second the service was killed and reopened at.
    pub at_secs: u64,
    /// What the reopened service found on disk.
    pub recovery: RecoveryReport,
    /// Resident nullifier shares just before the kill…
    pub resident_before: usize,
    /// …and just after recovery (snapshot carries the window across).
    pub resident_after: usize,
}

/// Outcome of a soak run.
#[derive(Clone, Debug)]
pub struct SoakReport {
    /// Simulated seconds driven.
    pub sim_secs: u64,
    /// Epochs driven.
    pub epochs: u64,
    /// Own messages the service published.
    pub published: u64,
    /// Externally-ingested bundles relayed.
    pub relayed: u64,
    /// Double-signals detected as spam.
    pub spam_detected: u64,
    /// Spam waves launched.
    pub spam_waves: u64,
    /// Service status samples over the horizon, each at its simulated
    /// second since the soak started.
    pub samples: Vec<(u64, ServiceStatus)>,
    /// The mid-soak restart, when one was performed.
    pub restart: Option<SoakRestart>,
    /// The O(window) ceiling used for the nullifier flatness check.
    pub nullifier_bound: u64,
    /// Final Prometheus exposition (both catalogues).
    pub exposition: String,
}

impl SoakReport {
    /// Splits the samples into a warmed-up early window (second quarter
    /// of the horizon) and a late window (final quarter) and returns the
    /// per-gauge high-water marks `(early, late)`.
    fn quarter_high_water(&self, f: impl Fn(&ServiceStatus) -> u64) -> (u64, u64) {
        let early = self
            .samples
            .iter()
            .filter(|(t, _)| *t >= self.sim_secs / 4 && *t < self.sim_secs / 2)
            .map(|(_, s)| f(s))
            .max()
            .unwrap_or(0);
        let late = self
            .samples
            .iter()
            .filter(|(t, _)| *t >= 3 * self.sim_secs / 4)
            .map(|(_, s)| f(s))
            .max()
            .unwrap_or(0);
        (early, late)
    }

    /// The flat-memory verdict: every memory-shaped gauge's late
    /// high-water mark is no worse than its warmed-up early mark (disk
    /// gets one segment of rotation slack), resident nullifiers stay
    /// under the O(window) bound, and the queue drained.
    pub fn memory_flat(&self) -> bool {
        let (early_disk, late_disk) = self.quarter_high_water(|s| s.disk_bytes);
        let (early_null, late_null) = self.quarter_high_water(|s| s.resident_nullifiers as u64);
        let (early_msgs, late_msgs) = self.quarter_high_water(|s| s.messages_stored as u64);
        late_disk <= early_disk + 4096
            && late_null <= early_null.max(self.nullifier_bound)
            && late_null <= self.nullifier_bound
            && late_msgs <= early_msgs
            && self.samples.last().is_none_or(|(_, s)| s.queued == 0)
    }

    /// One markdown row: horizon, gauges' early/late high-water marks,
    /// detections, restart recovery.
    pub fn table_row(&self) -> String {
        let (early_disk, late_disk) = self.quarter_high_water(|s| s.disk_bytes);
        let (early_null, late_null) = self.quarter_high_water(|s| s.resident_nullifiers as u64);
        format!(
            "| {:.1} | {} | {}→{} | {}→{} | {} | {}/{} | {} |",
            self.sim_secs as f64 / 3600.0,
            self.epochs,
            early_null,
            late_null,
            early_disk,
            late_disk,
            self.nullifier_bound,
            self.spam_detected,
            self.spam_waves,
            match &self.restart {
                Some(r) if r.recovery.snapshot_restored => "recovered",
                Some(_) => "LOST",
                None => "-",
            },
        )
    }

    /// Header matching [`SoakReport::table_row`].
    pub fn table_header() -> String {
        "| sim hours | epochs | nullifiers early→late | disk early→late | bound | spam caught/waves | restart |\n|---|---|---|---|---|---|---|"
            .to_string()
    }

    /// Minimal JSON record for CI gates.
    pub fn to_json(&self) -> String {
        let (early_disk, late_disk) = self.quarter_high_water(|s| s.disk_bytes);
        let (early_null, late_null) = self.quarter_high_water(|s| s.resident_nullifiers as u64);
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(t, s)| {
                format!(
                    "{{\"t\": {}, \"nullifiers\": {}, \"messages\": {}, \"disk_bytes\": {}, \"queued\": {}}}",
                    t, s.resident_nullifiers, s.messages_stored, s.disk_bytes, s.queued
                )
            })
            .collect();
        let restart = match &self.restart {
            Some(r) => format!(
                "{{\"at_secs\": {}, \"recovered_messages\": {}, \"snapshot_restored\": {}, \"resident_before\": {}, \"resident_after\": {}}}",
                r.at_secs,
                r.recovery.recovered_messages,
                r.recovery.snapshot_restored,
                r.resident_before,
                r.resident_after
            ),
            None => "null".to_string(),
        };
        format!(
            "{{\"sim_secs\": {}, \"epochs\": {}, \"published\": {}, \"relayed\": {}, \"spam_detected\": {}, \"spam_waves\": {}, \"memory_flat\": {}, \"nullifier_bound\": {}, \"nullifiers_early\": {}, \"nullifiers_late\": {}, \"disk_early\": {}, \"disk_late\": {}, \"restart\": {}, \"samples\": [{}]}}",
            self.sim_secs,
            self.epochs,
            self.published,
            self.relayed,
            self.spam_detected,
            self.spam_waves,
            self.memory_flat(),
            self.nullifier_bound,
            early_null,
            late_null,
            early_disk,
            late_disk,
            restart,
            samples.join(", ")
        )
    }
}

/// An external identity with its own group view, registered on the
/// service's chain.
struct SoakPeer {
    identity: Identity,
    group: GroupManager,
}

impl SoakPeer {
    fn new(seed: u64, depth: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let identity = Identity::random(&mut rng);
        let mut group = GroupManager::new(depth);
        group.set_own_commitment(identity.commitment());
        SoakPeer { identity, group }
    }

    /// Funds + submits this peer's registration; mined by the next step.
    fn register(&self, service: &mut RelayerService, seed: u64) {
        let addr = Address::from_seed(&seed.to_le_bytes());
        service.chain_mut().fund(addr, 10 * ETHER);
        service.chain_mut().submit(
            addr,
            TxKind::Register {
                commitment: self.identity.commitment(),
            },
            100,
        );
    }
}

fn service_config(config: &SoakConfig, data_dir: &std::path::Path) -> ServiceConfig {
    ServiceConfig::builder(data_dir)
        .node(
            NodeConfig::builder()
                .tree_depth(TREE_DEPTH)
                .epoch_length(std::time::Duration::from_secs(config.epoch_secs))
                .max_epoch_gap(THR)
                .build()
                .expect("valid soak node config"),
        )
        .segment(
            SegmentConfig::builder()
                .capacity(STORE_CAPACITY)
                // Small segments so rotation + GC cycle many times inside
                // the horizon: the disk gauge must show the sawtooth
                // plateau, not one giant never-collected active segment.
                .records_per_segment((STORE_CAPACITY / 4).max(8))
                .build()
                .expect("valid soak segment config"),
        )
        .checkpoint(std::time::Duration::from_secs(CHECKPOINT_SECS))
        .seed(config.seed)
        .build()
        .expect("valid soak service config")
}

/// Drives one soak run (see the module docs). Proof generation is the
/// only real cost: `publishers × epochs` proofs, plus two per spam wave.
pub fn run_soak(config: &SoakConfig) -> Result<SoakReport, ServiceError> {
    // A process-unique state directory, removed after the run.
    let data_dir =
        std::env::temp_dir().join(format!("waku-soak-{}-{}", std::process::id(), config.seed));
    let _ = std::fs::remove_dir_all(&data_dir);

    let mut service = RelayerService::open(service_config(config, &data_dir))?;

    // The shared circuit keys: same cache file the service just wrote.
    let mut key_rng = StdRng::seed_from_u64(config.seed ^ 0x6B65_7973);
    let (prover, _) =
        RlnProver::keygen_or_load(TREE_DEPTH, &data_dir.join("keys.bin"), &mut key_rng);
    let prover = Arc::new(prover);

    // Register the honest publishers; one service step mines + syncs.
    let mut peers: Vec<SoakPeer> = (0..config.publishers)
        .map(|i| SoakPeer::new(config.seed.wrapping_add(1000 + i as u64), TREE_DEPTH))
        .collect();
    for (i, peer) in peers.iter().enumerate() {
        peer.register(&mut service, config.seed.wrapping_add(1000 + i as u64));
    }

    // A deterministic start offset well past epoch 0.
    let base = 1_000_000_u64 - (1_000_000 % config.epoch_secs);
    service.step(base)?;

    let epochs = config.sim_secs / config.epoch_secs;
    let restart_epoch = if config.restart_mid_soak && epochs >= 2 {
        Some(epochs / 2)
    } else {
        None
    };

    let mut report = SoakReport {
        sim_secs: config.sim_secs,
        epochs,
        published: 0,
        relayed: 0,
        spam_detected: 0,
        spam_waves: 0,
        samples: Vec::new(),
        restart: None,
        // Per retained epoch (2·Thr+1, plus one of rollover slack): one
        // share per honest publisher, one own publish, and up to two
        // spam signals.
        nullifier_bound: (2 * THR + 2) * (config.publishers as u64 + 3),
        exposition: String::new(),
    };

    let mut publish_rng = StdRng::seed_from_u64(config.seed ^ 0x7075_626C);
    let mut spammer: Option<(SoakPeer, u64)> = None; // (peer, armed-at epoch)
    let mut next_sample = 0u64;

    for e in 0..epochs {
        let now = base + e * config.epoch_secs;

        // Mid-soak kill: checkpoint (the service does this on its own
        // schedule anyway — aligning the kill to one keeps the run
        // deterministic), drop without shutting the loop down, reopen.
        if restart_epoch == Some(e) {
            service.checkpoint(now)?;
            let before = service.status().resident_nullifiers;
            drop(service);
            service = RelayerService::open(service_config(config, &data_dir))?;
            report.restart = Some(SoakRestart {
                at_secs: e * config.epoch_secs,
                recovery: service.recovery(),
                resident_before: before,
                resident_after: service.status().resident_nullifiers,
            });
            // The simulated membership environment is rebuilt on open:
            // replay the honest registrations (spam waves register fresh
            // identities per wave, so none carry over).
            spammer = None;
            for (i, peer) in peers.iter_mut().enumerate() {
                *peer = SoakPeer::new(config.seed.wrapping_add(1000 + i as u64), TREE_DEPTH);
                peer.register(&mut service, config.seed.wrapping_add(1000 + i as u64));
            }
            service.step(now)?;
        }

        // Launch a spam wave: register a fresh double-signaller; it
        // fires next epoch (after its registration is mined).
        if e % SPAM_EVERY_EPOCHS == 0 && e > 0 {
            let wave = SoakPeer::new(config.seed.wrapping_add(5000 + e), TREE_DEPTH);
            wave.register(&mut service, config.seed.wrapping_add(5000 + e));
            spammer = Some((wave, e));
            report.spam_waves += 1;
        }

        // Honest traffic: one message per publisher per epoch, proven
        // against the current synced root.
        let epoch = now / config.epoch_secs;
        for (i, peer) in peers.iter_mut().enumerate() {
            peer.group.sync(service.chain());
            let path = peer.group.own_path().expect("registered publisher");
            let payload = format!("soak epoch {epoch} publisher {i}");
            let mut rng = StdRng::seed_from_u64(config.seed ^ (epoch << 8) ^ i as u64);
            let bundle = prover
                .prove_message(&peer.identity, &path, payload.as_bytes(), epoch, &mut rng)
                .expect("honest proof");
            for d in service.ingest(bundle, now)? {
                if d.outcome == Outcome::Relay {
                    report.relayed += 1;
                }
            }
        }

        // The armed spammer double-signals: two distinct payloads, one
        // epoch — the second share must come back `Spam` and trigger the
        // slashing flow (which removes the wave's membership).
        if let Some((wave, armed_at)) = spammer.take() {
            if e > armed_at {
                let mut wave_group = wave.group;
                wave_group.sync(service.chain());
                if let Some(path) = wave_group.own_path() {
                    for (j, text) in ["spam a", "spam b"].iter().enumerate() {
                        let mut rng =
                            StdRng::seed_from_u64(config.seed ^ (epoch << 8) ^ (0xABCD + j as u64));
                        let bundle = prover
                            .prove_message(&wave.identity, &path, text.as_bytes(), epoch, &mut rng)
                            .expect("spam proof");
                        for d in service.ingest(bundle, now)? {
                            if matches!(d.outcome, Outcome::Spam(_)) {
                                report.spam_detected += 1;
                            }
                        }
                    }
                }
            } else {
                spammer = Some((wave, armed_at));
            }
        }

        // Our own publish, once per epoch.
        if service
            .publish(format!("own {epoch}").as_bytes(), now, &mut publish_rng)
            .is_ok()
        {
            report.published += 1;
        }

        service.step(now)?;

        if e * config.epoch_secs >= next_sample {
            report
                .samples
                .push((e * config.epoch_secs, service.status()));
            next_sample = e * config.epoch_secs + SAMPLE_EVERY_SECS;
        }
    }

    report.exposition = service.metrics_text();
    let end = base + epochs * config.epoch_secs;
    service.shutdown(end)?;
    let _ = std::fs::remove_dir_all(&data_dir);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A half-hour soak through the real service: flat memory, sustained
    /// detection, and mid-soak kill-and-restart recovery.
    #[test]
    fn half_hour_soak_is_flat_and_survives_the_kill() {
        let report = run_soak(&SoakConfig {
            sim_secs: 1800,
            epoch_secs: 20, // fewer, longer epochs: same horizon, fewer proofs
            publishers: 2,
            seed: 7,
            ..SoakConfig::default()
        })
        .unwrap();

        assert_eq!(report.epochs, 90);
        // Honest throughput: ~2 per epoch, minus mining-latency epochs.
        assert!(report.relayed > 150, "{report:?}");
        assert!(report.published > 80, "{report:?}");
        // Every wave lands one detected double-signal.
        assert!(report.spam_waves >= 8, "{report:?}");
        assert!(report.spam_detected >= report.spam_waves, "{report:?}");

        let restart = report.restart.expect("mid-soak restart ran");
        assert!(restart.recovery.snapshot_restored, "{restart:?}");
        assert!(restart.recovery.recovered_messages > 0, "{restart:?}");
        assert_eq!(
            restart.resident_before, restart.resident_after,
            "{restart:?}"
        );

        assert!(report.memory_flat(), "{}", report.to_json());
        // The exposition carries both catalogues for scrapers.
        assert!(report.exposition.contains("rln_validation_total"));
        assert!(report.exposition.contains("node_store_disk_bytes"));
    }

    /// The flatness verdict actually discriminates: a report whose late
    /// high-water marks grow fails it.
    #[test]
    fn flatness_verdict_rejects_growth() {
        let flat = |t, n| {
            let mut s = ServiceStatus::default();
            s.resident_nullifiers = n;
            s.messages_stored = 10;
            s.disk_bytes = 1000;
            (t, s)
        };
        let mut report = SoakReport {
            sim_secs: 1000,
            epochs: 100,
            published: 0,
            relayed: 0,
            spam_detected: 0,
            spam_waves: 0,
            samples: (0..10).map(|i| flat(i * 100, 5)).collect(),
            restart: None,
            nullifier_bound: 20,
            exposition: String::new(),
        };
        assert!(report.memory_flat());
        // Linear growth in resident nullifiers breaches the bound.
        report.samples = (0..10).map(|i| flat(i * 100, 4 * i as usize)).collect();
        assert!(!report.memory_flat());
    }
}
