//! The integration tests' one fixture: a cached ceremony per depth,
//! registered-and-synced nodes, the single decision a pass-through node
//! makes per bundle, and a service with members registered.
//!
//! Every test binary that says `mod common;` compiles its own copy and
//! uses part of it, hence the `dead_code` allowance.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use waku_suite::chain::{Address, Chain, ChainConfig, TxKind, ETHER};
use waku_suite::node::{RelayerService, ServiceConfig};
use waku_suite::rln::{Identity, RlnMessageBundle, RlnProver, RlnVerifier};
use waku_suite::rln_relay::{BatchConfig, NodeConfig, Outcome, WakuRlnRelayNode};

/// Epoch length `T` of every service [`open_service`] opens.
pub const SERVICE_EPOCH_SECS: u64 = 10;

/// The circuit keys for `depth`: one ceremony per depth per test binary,
/// shared by every test in it.
pub fn keys(depth: usize) -> (Arc<RlnProver>, RlnVerifier) {
    static CEREMONIES: Mutex<BTreeMap<usize, (Arc<RlnProver>, RlnVerifier)>> =
        Mutex::new(BTreeMap::new());
    let mut ceremonies = CEREMONIES.lock().unwrap();
    let (prover, verifier) = ceremonies.entry(depth).or_insert_with(|| {
        let (prover, verifier) = RlnProver::keygen(depth, &mut StdRng::seed_from_u64(depth as u64));
        (Arc::new(prover), verifier)
    });
    (Arc::clone(prover), verifier.clone())
}

/// `n` nodes on a fresh chain, each funded with 10 ETH, registered,
/// mined and synced. Identities are drawn from `seed`; ingest is
/// pass-through (the default [`NodeConfig::batch`]).
pub fn nodes(n: usize, depth: usize, epoch_secs: u64, seed: u64) -> (Chain, Vec<WakuRlnRelayNode>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (prover, verifier) = keys(depth);
    let config = NodeConfig::builder()
        .tree_depth(depth)
        .epoch_length(Duration::from_secs(epoch_secs))
        .build()
        .expect("valid node config");
    let mut chain = Chain::new(ChainConfig {
        tree_depth: depth,
        ..ChainConfig::default()
    });
    let mut nodes: Vec<WakuRlnRelayNode> = (0..n)
        .map(|i| {
            let addr = Address::from_seed(&[i as u8, seed as u8]);
            chain.fund(addr, 10 * ETHER);
            let mut node = WakuRlnRelayNode::new(
                config,
                addr,
                Arc::clone(&prover),
                verifier.clone(),
                &mut rng,
            );
            node.register(&mut chain);
            node
        })
        .collect();
    chain.mine_block();
    for node in nodes.iter_mut() {
        node.sync(&mut chain);
    }
    (chain, nodes)
}

/// Ingests `bundle` into a pass-through `node`, asserts that exactly one
/// decision came back — this bundle's — and returns its outcome.
pub fn decide(
    node: &mut WakuRlnRelayNode,
    bundle: &RlnMessageBundle,
    now: u64,
    chain: &mut Chain,
) -> Outcome {
    match &node.ingest(bundle.clone(), now, chain)[..] {
        [d] if d.bundle == *bundle => d.outcome.clone(),
        other => panic!("expected this bundle's decision alone, got {other:?}"),
    }
}

/// Opens a service in `dir` at `depth` (`T` = [`SERVICE_EPOCH_SECS`],
/// seed 7) whose ingest queue flushes every `batch` bundles (1 =
/// pass-through), then registers `members` at leaves `1..` (the service
/// holds leaf 0) and mines them. Registration replay is deterministic, so
/// every service opened with the same members has the same tree.
pub fn open_service(
    dir: &Path,
    depth: usize,
    batch: usize,
    members: &[Identity],
) -> RelayerService {
    let node = NodeConfig::builder()
        .tree_depth(depth)
        .epoch_length(Duration::from_secs(SERVICE_EPOCH_SECS))
        .batching(BatchConfig::builder().max_batch(batch).build().unwrap())
        .build()
        .unwrap();
    let config = ServiceConfig::builder(dir)
        .node(node)
        .seed(7)
        .build()
        .unwrap();
    let mut service = RelayerService::open(config).unwrap();
    for (i, identity) in members.iter().enumerate() {
        let address = Address::from_seed(&(i as u64).to_le_bytes());
        service.chain_mut().fund(address, 10 * ETHER);
        service.chain_mut().submit(
            address,
            TxKind::Register {
                commitment: identity.commitment(),
            },
            100,
        );
    }
    service.step(0).unwrap(); // mines and syncs
    service
}

/// A scratch directory path for `tag`, unique to this process (not
/// created).
pub fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("waku-test-{tag}-{}", std::process::id()))
}
