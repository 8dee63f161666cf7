//! What the workloads stand on: the per-process scratch directory, the
//! service configuration shared by every service workload, and the relay
//! fixture (depth-10 keys, registered members, the proved corpus).
//!
//! Nothing here is cached on disk between runs: `setup_s` must mean the
//! same thing on every run.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use waku_chain::{Address, TxKind, ETHER};
use waku_node::{RelayerService, ServiceConfig, ServiceError};
use waku_rln::{RlnProver, RlnVerifier};
use waku_rln_relay::{BatchConfig, GroupManager, NodeConfig};

use crate::corpus::{self, Corpus, CorpusSpec, Member, BASE_SECS, EPOCH_SECS, THR};

/// `perf/target/`: build output, result files, and scratch state.
pub fn target_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("target")
}

/// The process's scratch directory, `perf/target/tmp/<pid>/`, removed on
/// drop (including on an unwinding panic).
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    /// Creates the (empty) scratch directory.
    pub fn create() -> std::io::Result<Scratch> {
        Scratch::at(&std::process::id().to_string())
    }

    /// Creates `perf/target/tmp/<name>/` (tests, which share one process,
    /// take one each).
    pub fn at(name: &str) -> std::io::Result<Scratch> {
        let root = target_dir().join("tmp").join(name);
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root })
    }

    /// A named subdirectory path (not created).
    pub fn dir(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// The service configuration every service workload uses: `T` = 10 s,
/// `Thr` = 1, default segment log, default 30 s checkpoints.
pub fn service_config(
    dir: &Path,
    depth: usize,
    batch: Option<BatchConfig>,
    seed: u64,
) -> ServiceConfig {
    let mut node = NodeConfig::builder()
        .tree_depth(depth)
        .epoch_length(Duration::from_secs(EPOCH_SECS))
        .max_epoch_gap(THR);
    if let Some(batch) = batch {
        node = node.batching(batch);
    }
    ServiceConfig::builder(dir)
        .node(node.build().expect("valid node config"))
        .seed(seed)
        .build()
        .expect("valid service config")
}

/// The batch-64 flush policy of `relay_batch64` and `relay_hostile`.
pub fn batch64() -> BatchConfig {
    BatchConfig::builder()
        .max_batch(64)
        .max_delay_secs(1)
        .build()
        .expect("valid batch config")
}

/// Funds and submits one registration; the next `step` mines and syncs.
pub fn submit_registration(service: &mut RelayerService, member: &Member) {
    let address = Address::from_seed(&member.address_seed.to_le_bytes());
    service.chain_mut().fund(address, 10 * ETHER);
    service.chain_mut().submit(
        address,
        TxKind::Register {
            commitment: member.identity.commitment(),
        },
        100,
    );
}

/// Loads the circuit keys the service at `dir` wrote to its key cache.
pub fn load_keys(dir: &Path, depth: usize) -> (RlnProver, RlnVerifier) {
    let path = dir.join("keys.bin");
    assert!(path.exists(), "the service writes keys.bin on a cold open");
    // A cache hit consumes no randomness.
    RlnProver::keygen_or_load(depth, &path, &mut StdRng::seed_from_u64(0))
}

/// Tree depth and corpus shape of a relay fixture.
#[derive(Clone, Copy, Debug)]
pub struct RelaySpec {
    /// Membership tree depth.
    pub depth: usize,
    /// Corpus shape.
    pub corpus: CorpusSpec,
}

/// The fixture of the three `relay_*` workloads: 64 publishers and 2
/// double-signallers at depth 10. One epoch of 64 honest bundles is the
/// smallest corpus that fills a 64-batch; at ≈ 95 ms per depth-10 proof
/// it costs ≈ 6.5 s, which is what fits the benchmark's time budget.
pub const RELAY_SPEC: RelaySpec = RelaySpec {
    depth: 10,
    corpus: CorpusSpec {
        publishers: 64,
        spammers: 2,
        junk: 4,
        duplicates: 4,
        stale: 6,
        bad_root: 2,
        payload_bytes: 128,
    },
};

/// Keys, members and corpus of the relay workloads, rooted at a data
/// directory that keeps `keys.bin` between passes.
pub struct RelayFixture {
    /// Depth and corpus shape.
    pub spec: RelaySpec,
    /// Service data directory.
    pub dir: PathBuf,
    /// Workload seed (identities, payloads, service identity).
    pub seed: u64,
    /// Every external member, in registration (= leaf) order after the
    /// service's own leaf 0.
    pub members: Vec<Member>,
    /// The proved corpus.
    pub corpus: Corpus,
    /// The ceremony's prover (same keys as the service).
    pub prover: Arc<RlnProver>,
    /// The ceremony's verifier.
    pub verifier: RlnVerifier,
    /// A synced group view holding every member (the corpus's root).
    pub group: GroupManager,
    /// Seconds the whole fixture took to build.
    pub setup_s: f64,
}

impl RelayFixture {
    /// Builds the fixture from nothing: cold service open (key ceremony),
    /// registrations, then the corpus proved through one shared group
    /// view — after every member is registered, so one root covers all.
    pub fn build(dir: PathBuf, spec: RelaySpec, seed: u64) -> Result<Self, ServiceError> {
        let started = Instant::now();
        let _ = std::fs::remove_dir_all(&dir);
        let members = corpus::members(seed, spec.corpus.publishers + spec.corpus.spammers);
        let mut service = RelayerService::open(service_config(&dir, spec.depth, None, seed))?;
        assert!(service.recovery().cold_keygen);
        for member in &members {
            submit_registration(&mut service, member);
        }
        service.step(BASE_SECS)?;
        let mut group = GroupManager::new(spec.depth);
        group.sync(service.chain());
        drop(service);

        let (prover, verifier) = load_keys(&dir, spec.depth);
        let corpus = corpus::build(
            &spec.corpus,
            seed,
            BASE_SECS / EPOCH_SECS,
            &prover,
            &group,
            &members,
            1,
        );
        Ok(RelayFixture {
            spec,
            dir,
            seed,
            members,
            corpus,
            prover: Arc::new(prover),
            verifier,
            group,
            setup_s: started.elapsed().as_secs_f64(),
        })
    }

    /// Removes everything a previous pass persisted except `keys.bin`.
    pub fn wipe_state(&self) {
        let _ = std::fs::remove_dir_all(self.dir.join("store"));
        let _ = std::fs::remove_file(self.dir.join("nullifiers.snap"));
        let _ = std::fs::remove_file(self.dir.join("publish.guard"));
    }

    /// Opens the service on the existing data directory (warm keys).
    pub fn open(&self, batch: Option<BatchConfig>) -> Result<RelayerService, ServiceError> {
        RelayerService::open(service_config(&self.dir, self.spec.depth, batch, self.seed))
    }

    /// Replays every registration on a freshly opened service and mines
    /// them, which also aligns the service clock with the corpus epoch.
    pub fn register_all(&self, service: &mut RelayerService) -> Result<(), ServiceError> {
        for member in &self.members {
            submit_registration(service, member);
        }
        service.step(BASE_SECS)?;
        assert_eq!(
            service.node().group().root(),
            self.group.root(),
            "replayed registrations rebuild the corpus's root"
        );
        Ok(())
    }

    /// A service ready for one pass: state wiped, reopened, every member
    /// registered.
    pub fn fresh_service(
        &self,
        batch: Option<BatchConfig>,
    ) -> Result<RelayerService, ServiceError> {
        self.wipe_state();
        let mut service = self.open(batch)?;
        self.register_all(&mut service)?;
        Ok(service)
    }
}
