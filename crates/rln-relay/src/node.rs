//! The WAKU-RLN-RELAY node (the paper's contribution, §III): composes the
//! RLN prover/verifier, the synced group view, the epoch manager, the
//! validation pipeline, and the slashing client into one peer.

use std::time::Duration;

use rand::Rng;
use waku_arith::fields::Fr;
use waku_chain::{Address, Chain, TxKind};
use waku_metrics::Registry;
use waku_rln::{Identity, RlnMessageBundle, RlnProver, RlnVerifier};

use crate::batch::{BatchConfig, BatchDecision, BatchingValidator};
use crate::epoch::EpochManager;
use crate::errors::{ConfigError, SnapshotMismatch};
use crate::group::GroupManager;
use crate::metrics::{NodeHandles, NodeMetrics};
use crate::slasher::Slasher;
use crate::validation::{MessageValidator, Outcome};

/// Gas price every node transaction bids (gwei).
const GAS_PRICE_GWEI: u64 = 100;

/// Node configuration.
///
/// `#[non_exhaustive]`: construct via [`NodeConfig::default`] or
/// [`NodeConfig::builder`] — the builder validates every invariant once
/// at [`NodeConfigBuilder::build`] instead of panicking later inside a
/// constructor, and new knobs can appear without breaking downstream
/// construction sites.
#[non_exhaustive]
#[derive(Clone, Copy, Debug)]
pub struct NodeConfig {
    /// Identity tree depth (must match the prover/verifier keys).
    pub tree_depth: usize,
    /// Epoch length `T` in seconds.
    pub epoch_length_secs: u64,
    /// Maximum epoch gap `Thr` (see [`EpochManager::max_epoch_gap`]).
    pub max_epoch_gap: u64,
    /// Flush policy of the ingest queue ([`WakuRlnRelayNode::ingest`]).
    /// The default, [`BatchConfig::default`], is pass-through: a one-slot
    /// queue flushes on every push, so each bundle is decided on arrival.
    pub batch: BatchConfig,
}

impl NodeConfig {
    /// Starts building a config from the defaults.
    pub fn builder() -> NodeConfigBuilder {
        let config = NodeConfig::default();
        NodeConfigBuilder {
            epoch_length: Duration::from_secs(config.epoch_length_secs),
            config,
        }
    }
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            tree_depth: 20,
            epoch_length_secs: 1,
            max_epoch_gap: 1,
            batch: BatchConfig::default(),
        }
    }
}

/// Builder for [`NodeConfig`] — see [`NodeConfig::builder`]. It holds the
/// config it builds, plus the epoch length as a [`Duration`] until
/// [`NodeConfigBuilder::build`] checks it is whole seconds.
#[derive(Clone, Debug)]
pub struct NodeConfigBuilder {
    config: NodeConfig,
    epoch_length: Duration,
}

impl NodeConfigBuilder {
    /// Sets the identity tree depth (1..=32; must match the circuit keys).
    pub fn tree_depth(mut self, depth: usize) -> Self {
        self.config.tree_depth = depth;
        self
    }

    /// Sets the epoch length `T`. Epochs are whole seconds on the wire
    /// (the proof binds `⌊now/T⌋`), so sub-second components are
    /// rejected at [`NodeConfigBuilder::build`] rather than silently
    /// truncated.
    pub fn epoch_length(mut self, length: Duration) -> Self {
        self.epoch_length = length;
        self
    }

    /// Sets the maximum epoch gap `Thr` (≥ 1).
    pub fn max_epoch_gap(mut self, gap: u64) -> Self {
        self.config.max_epoch_gap = gap;
        self
    }

    /// Sets the ingest queue's flush policy; a `max_batch` above 1 turns
    /// on micro-batched proof verification.
    pub fn batching(mut self, config: BatchConfig) -> Self {
        self.config.batch = config;
        self
    }

    /// Validates every invariant and produces the config.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the offending field when `tree_depth` is
    /// outside 1..=32, `epoch_length` is zero or not a whole number of
    /// seconds, or `max_epoch_gap` is zero.
    pub fn build(self) -> Result<NodeConfig, ConfigError> {
        let depth = self.config.tree_depth;
        if depth == 0 || depth > 32 {
            return Err(ConfigError::new("tree_depth", "must be between 1 and 32"));
        }
        if self.epoch_length.as_secs() == 0 {
            return Err(ConfigError::new(
                "epoch_length",
                "must be at least 1 second",
            ));
        }
        if self.epoch_length.subsec_nanos() != 0 {
            return Err(ConfigError::new(
                "epoch_length",
                "must be a whole number of seconds",
            ));
        }
        if self.config.max_epoch_gap == 0 {
            return Err(ConfigError::new("max_epoch_gap", "must be at least 1"));
        }
        Ok(NodeConfig {
            epoch_length_secs: self.epoch_length.as_secs(),
            ..self.config
        })
    }
}

/// Errors from node operations.
///
/// `#[non_exhaustive]`: match with a wildcard arm — the long-running
/// service keeps growing failure classes, and each new one chains its
/// cause through [`std::error::Error::source`].
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq)]
pub enum NodeError {
    /// Not registered (or registration not yet mined/synced).
    NotRegistered,
    /// This epoch's single message has already been used
    /// (publishing anyway would leak our key — §II-B).
    RateLimitedLocally,
    /// Proof generation failed.
    Proving(waku_snark::SnarkError),
    /// A persisted nullifier snapshot was refused at restore time.
    Snapshot(SnapshotMismatch),
}

impl std::fmt::Display for NodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeError::NotRegistered => write!(f, "identity not registered in the group"),
            NodeError::RateLimitedLocally => {
                write!(f, "already published in this epoch (rate limit)")
            }
            NodeError::Proving(e) => write!(f, "proof generation failed: {e}"),
            NodeError::Snapshot(e) => write!(f, "nullifier restore refused: {e}"),
        }
    }
}

impl std::error::Error for NodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NodeError::Proving(e) => Some(e),
            NodeError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<waku_snark::SnarkError> for NodeError {
    fn from(e: waku_snark::SnarkError) -> Self {
        NodeError::Proving(e)
    }
}

impl From<SnapshotMismatch> for NodeError {
    fn from(e: SnapshotMismatch) -> Self {
        NodeError::Snapshot(e)
    }
}

/// A full WAKU-RLN-RELAY peer.
pub struct WakuRlnRelayNode {
    identity: Identity,
    address: Address,
    group: GroupManager,
    epochs: EpochManager,
    // The validator sits behind the batching queue and every incoming
    // bundle goes through it. The default `NodeConfig::batch` (batch of
    // 1, no delay) decides each bundle on arrival, so batching is opt-in.
    queue: BatchingValidator,
    slasher: Slasher,
    prover: std::sync::Arc<RlnProver>,
    last_published_epoch: Option<u64>,
    registry: Registry,
    m: NodeHandles,
}

impl std::fmt::Debug for WakuRlnRelayNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "WakuRlnRelayNode(addr = {:?}, registered = {})",
            self.address,
            self.group.own_index().is_some()
        )
    }
}

impl WakuRlnRelayNode {
    /// Creates a node with a fresh identity.
    ///
    /// `prover`/`verifier` come from the shared (simulated MPC) key
    /// ceremony — every peer uses the same circuit keys.
    pub fn new<R: Rng + ?Sized>(
        config: NodeConfig,
        address: Address,
        prover: std::sync::Arc<RlnProver>,
        verifier: RlnVerifier,
        rng: &mut R,
    ) -> Self {
        let identity = Identity::random(rng);
        let mut group = GroupManager::new(config.tree_depth);
        group.set_own_commitment(identity.commitment());
        let epochs = EpochManager::new(config.epoch_length_secs);
        // One registry per node: the validator pipeline and the node
        // lifecycle record into the same catalogue, so a single
        // snapshot/exposition covers the whole peer.
        let registry = crate::metrics::registry();
        let validator = MessageValidator::with_registry(
            verifier,
            epochs,
            config.max_epoch_gap,
            registry.clone(),
        );
        let queue = BatchingValidator::new(validator, config.batch);
        // Always commit-reveal (§III-F): a plain slash can be front-run.
        let slasher = Slasher::new(address, GAS_PRICE_GWEI, true);
        let m = NodeHandles::bind(&registry);
        WakuRlnRelayNode {
            identity,
            address,
            group,
            epochs,
            queue,
            slasher,
            prover,
            last_published_epoch: None,
            registry,
            m,
        }
    }

    /// This node's chain address.
    pub fn address(&self) -> Address {
        self.address
    }

    /// This node's identity commitment.
    pub fn commitment(&self) -> Fr {
        self.identity.commitment()
    }

    /// The node's identity (tests and slashing verification).
    pub fn identity(&self) -> &Identity {
        &self.identity
    }

    /// The group view.
    pub fn group(&self) -> &GroupManager {
        &self.group
    }

    /// Node metrics (a snapshot read from the node's handles).
    pub fn metrics(&self) -> NodeMetrics {
        self.m.snapshot()
    }

    /// Validator metrics (same registry, validation-pipeline view).
    pub fn validation_metrics(&self) -> crate::metrics::ValidationMetrics {
        self.queue.inner().metrics()
    }

    /// The registry behind both metric views — hand it to an exposition
    /// endpoint or merge its snapshot with other nodes'.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Prometheus text exposition of every metric this node records.
    pub fn metrics_text(&self) -> String {
        self.registry.render_prometheus()
    }

    /// The epoch manager.
    pub fn epochs(&self) -> &EpochManager {
        &self.epochs
    }

    /// Submits this node's registration transaction (Figure 2, step 1).
    /// The membership becomes usable only after mining + [`Self::sync`].
    pub fn register(&mut self, chain: &mut Chain) {
        chain.submit(
            self.address,
            TxKind::Register {
                commitment: self.identity.commitment(),
            },
            GAS_PRICE_GWEI,
        );
    }

    /// Replays contract events to update the local tree (Figure 2, step 4;
    /// §III-C). Also advances the slasher's pending commit-reveal flows.
    pub fn sync(&mut self, chain: &mut Chain) {
        self.group.sync(chain);
        self.m.record_reward(self.slasher.advance(chain));
        self.m.slash_reveals.add(self.slasher.take_reveal_count());
    }

    /// True once our registration is mined and synced.
    pub fn is_registered(&self) -> bool {
        self.group.own_index().is_some()
    }

    /// Publishes a message at local Unix time `now_secs` (Figure 3, left):
    /// derives the share/nullifier for the current epoch, generates the
    /// proof, and returns the bundle to hand to the relay layer.
    ///
    /// # Errors
    ///
    /// * [`NodeError::NotRegistered`] — registration not mined/synced.
    /// * [`NodeError::RateLimitedLocally`] — second publish in one epoch is
    ///   refused: it would hand out two shares of our own key.
    /// * [`NodeError::Proving`] — constraint failure (stale tree state).
    pub fn publish<R: Rng + ?Sized>(
        &mut self,
        payload: &[u8],
        now_secs: u64,
        rng: &mut R,
    ) -> Result<RlnMessageBundle, NodeError> {
        let epoch = self.epochs.epoch_at(now_secs);
        // An unregistered node reports `NotRegistered` (from the proving
        // path below) ahead of the guard.
        if self.is_registered() && self.last_published_epoch == Some(epoch) {
            self.m.rate_limited_locally.inc();
            return Err(NodeError::RateLimitedLocally);
        }
        let bundle = self.publish_unchecked(payload, now_secs, rng)?;
        self.last_published_epoch = Some(epoch);
        self.m.published.inc();
        if let Some(changed) = self.prover.proving_key().last_changed_vars() {
            self.m.prove_changed_vars.observe(changed as u64);
        }
        Ok(bundle)
    }

    /// Publishes *without* the local rate-limit guard — what a spammer
    /// does (test/experiment hook), and the proving step
    /// [`WakuRlnRelayNode::publish`] runs once its guard has passed.
    pub fn publish_unchecked<R: Rng + ?Sized>(
        &mut self,
        payload: &[u8],
        now_secs: u64,
        rng: &mut R,
    ) -> Result<RlnMessageBundle, NodeError> {
        let path = self.group.own_path().ok_or(NodeError::NotRegistered)?;
        let epoch = self.epochs.epoch_at(now_secs);
        self.prover
            .prove_message(&self.identity, &path, payload, epoch, rng)
            .map_err(NodeError::Proving)
    }

    /// Handles an incoming bundle at local Unix time `now_secs`
    /// (Figure 3, right): runs the cheap prechecks now, verifies the
    /// proof at the ingest queue's next flush (per [`NodeConfig::batch`];
    /// the pass-through default flushes on arrival), and returns every
    /// decision that completed. A spam verdict starts the commit-reveal
    /// slashing flow.
    pub fn ingest(
        &mut self,
        bundle: RlnMessageBundle,
        now_secs: u64,
        chain: &mut Chain,
    ) -> Vec<BatchDecision> {
        let decisions = self.queue.enqueue(bundle, &self.group, now_secs);
        self.react(&decisions, chain);
        decisions
    }

    /// Service heartbeat: slides the validator's epoch window to the
    /// local clock — so nullifier state for expired epochs is released
    /// even when the node receives no traffic — *and* flushes the ingest
    /// queue if the oldest queued bundle's deadline has passed, reacting
    /// to whatever completed.
    pub fn heartbeat(&mut self, now_secs: u64, chain: &mut Chain) -> Vec<BatchDecision> {
        let decisions = self.queue.tick(now_secs);
        self.react(&decisions, chain);
        decisions
    }

    /// Forces every queued bundle through verification (shutdown: no
    /// message may be left undecided in a queue that is about to drop).
    pub fn flush_ingest(&mut self, chain: &mut Chain) -> Vec<BatchDecision> {
        let decisions = self.queue.flush();
        self.react(&decisions, chain);
        decisions
    }

    /// Bundles waiting in the ingest queue for their batch to flush.
    pub fn queued_ingest(&self) -> usize {
        self.queue.queued()
    }

    fn react(&mut self, decisions: &[BatchDecision], chain: &mut Chain) {
        for d in decisions {
            if let Outcome::Spam(evidence) = &d.outcome {
                self.m.slash_commits.inc();
                self.slasher.start(evidence.recovered_secret, chain);
            }
        }
    }

    /// Shares currently resident in the validator's windowed nullifier
    /// store. Bounded by O(`2·Thr + 1` epochs × group size) regardless
    /// of uptime — the long-horizon memory guarantee of the epoch
    /// lifecycle subsystem.
    pub fn resident_nullifiers(&self) -> usize {
        self.queue.inner().nullifiers().len()
    }

    /// Snapshot of the windowed nullifier store, for the service's
    /// periodic checkpoints (persist with `waku_rln::snapshot_io`).
    pub fn nullifier_snapshot(&self) -> waku_rln::NullifierSnapshot {
        self.queue.inner().nullifiers().snapshot()
    }

    /// Restores the nullifier window from a persisted snapshot — the
    /// crash-recovery half of [`WakuRlnRelayNode::nullifier_snapshot`].
    ///
    /// # Errors
    ///
    /// [`NodeError::Snapshot`] when the snapshot's `Thr` differs from
    /// this node's; the current (empty) window is kept.
    pub fn restore_nullifiers(
        &mut self,
        snapshot: &waku_rln::NullifierSnapshot,
    ) -> Result<(), NodeError> {
        self.queue
            .inner_mut()
            .restore_nullifiers(snapshot)
            .map_err(NodeError::from)
    }

    /// The epoch of this node's last publish, if any — persisted by the
    /// service so a restart inside the same epoch cannot double-signal
    /// (which would hand out two shares of our own key).
    pub fn publish_guard(&self) -> Option<u64> {
        self.last_published_epoch
    }

    /// Restores the publish guard from persisted state. Max-merges with
    /// the current guard so a stale snapshot can never *lower* it.
    pub fn restore_publish_guard(&mut self, epoch: Option<u64>) {
        self.last_published_epoch = self.last_published_epoch.max(epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::{Arc, OnceLock};
    use waku_chain::{ChainConfig, ETHER};

    const DEPTH: usize = 6;

    fn keys() -> &'static (Arc<RlnProver>, RlnVerifier) {
        static CELL: OnceLock<(Arc<RlnProver>, RlnVerifier)> = OnceLock::new();
        CELL.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(0xFEED);
            let (p, v) = RlnProver::keygen(DEPTH, &mut rng);
            (Arc::new(p), v)
        })
    }

    fn config() -> NodeConfig {
        NodeConfig::builder()
            .tree_depth(DEPTH)
            .epoch_length(std::time::Duration::from_secs(10))
            .build()
            .expect("valid test config")
    }

    fn setup(n: usize, seed: u64) -> (Chain, Vec<WakuRlnRelayNode>) {
        let (prover, verifier) = keys();
        setup_with(prover, verifier, n, seed)
    }

    /// `n` registered, synced nodes sharing the given ceremony keys.
    fn setup_with(
        prover: &Arc<RlnProver>,
        verifier: &RlnVerifier,
        n: usize,
        seed: u64,
    ) -> (Chain, Vec<WakuRlnRelayNode>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut chain = Chain::new(ChainConfig {
            tree_depth: DEPTH,
            ..ChainConfig::default()
        });
        let mut nodes: Vec<WakuRlnRelayNode> = (0..n)
            .map(|i| {
                let addr = Address::from_seed(&[i as u8, seed as u8]);
                chain.fund(addr, 100 * ETHER);
                WakuRlnRelayNode::new(
                    config(),
                    addr,
                    Arc::clone(prover),
                    verifier.clone(),
                    &mut rng,
                )
            })
            .collect();
        for node in nodes.iter_mut() {
            node.register(&mut chain);
        }
        chain.mine_block();
        for node in nodes.iter_mut() {
            node.sync(&mut chain);
        }
        (chain, nodes)
    }

    /// Ingests `bundle` into a pass-through node and returns the one
    /// decision that must come back: the bundle's own.
    fn decide(
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

    #[test]
    fn register_publish_validate_roundtrip() {
        let (mut chain, mut nodes) = setup(2, 1);
        let mut rng = StdRng::seed_from_u64(2);
        assert!(nodes[0].is_registered());
        let bundle = nodes[0].publish(b"hello network", 1000, &mut rng).unwrap();
        let outcome = decide(&mut nodes[1], &bundle, 1000, &mut chain);
        assert_eq!(outcome, Outcome::Relay);
    }

    #[test]
    fn cannot_publish_before_sync() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut chain = Chain::new(ChainConfig {
            tree_depth: DEPTH,
            ..ChainConfig::default()
        });
        let (prover, verifier) = keys();
        let addr = Address::from_seed(b"late");
        chain.fund(addr, 100 * ETHER);
        let mut node = WakuRlnRelayNode::new(
            config(),
            addr,
            Arc::clone(prover),
            verifier.clone(),
            &mut rng,
        );
        node.register(&mut chain);
        // tx in mempool, not mined: publishing must fail (§IV-A delay)
        assert_eq!(
            node.publish(b"too early", 0, &mut rng).unwrap_err(),
            NodeError::NotRegistered
        );
        chain.mine_block();
        node.sync(&mut chain);
        assert!(node.publish(b"now ok", 0, &mut rng).is_ok());
    }

    #[test]
    fn local_rate_limit_blocks_second_publish() {
        let (_chain, mut nodes) = setup(1, 4);
        let mut rng = StdRng::seed_from_u64(5);
        nodes[0].publish(b"one", 1000, &mut rng).unwrap();
        assert_eq!(
            nodes[0].publish(b"two", 1005, &mut rng).unwrap_err(),
            NodeError::RateLimitedLocally,
            "same epoch (T = 10s)"
        );
        // next epoch is fine
        assert!(nodes[0].publish(b"three", 1010, &mut rng).is_ok());
        assert_eq!(nodes[0].metrics().rate_limited_locally, 1);
    }

    #[test]
    fn publish_records_how_much_of_the_proof_was_reused() {
        // A prover of its own: the shared one is warmed by whichever test
        // proved last.
        let mut rng = StdRng::seed_from_u64(8);
        let (prover, verifier) = RlnProver::keygen(DEPTH, &mut rng);
        let (_chain, mut nodes) = setup_with(&Arc::new(prover), &verifier, 1, 9);
        let node = &mut nodes[0];

        let changed = |node: &WakuRlnRelayNode| {
            let snap = node.registry().snapshot();
            let h = snap.histogram("rln_prove_changed_vars").unwrap();
            (h.count, h.sum)
        };
        node.publish(b"first", 1000, &mut rng).unwrap();
        let (count, cold) = changed(node);
        assert_eq!(count, 1);
        node.publish(b"refused", 1001, &mut rng).unwrap_err();
        assert_eq!(changed(node), (1, cold), "no proof, no observation");
        node.publish(b"second", 1010, &mut rng).unwrap();
        let (count, sum) = changed(node);
        assert_eq!(count, 2);
        assert!(
            (sum - cold) * 4 < cold,
            "unchanged path: {} of {cold} entries re-multiplied",
            sum - cold
        );
    }

    #[test]
    fn spammer_is_detected_and_slashed_end_to_end() {
        let (mut chain, mut nodes) = setup(3, 6);
        let mut rng = StdRng::seed_from_u64(7);
        let spammer_commitment = nodes[0].commitment();
        let spammer_deposit_holder = chain.contract().escrow();
        assert_eq!(spammer_deposit_holder, 3 * ETHER);

        // Spammer publishes twice in epoch 100.
        let b1 = nodes[0]
            .publish_unchecked(b"spam one", 1000, &mut rng)
            .unwrap();
        let b2 = nodes[0]
            .publish_unchecked(b"spam two", 1000, &mut rng)
            .unwrap();

        // Router (node 1) sees both: first relays, second is spam.
        assert_eq!(decide(&mut nodes[1], &b1, 1000, &mut chain), Outcome::Relay);
        let outcome = decide(&mut nodes[1], &b2, 1000, &mut chain);
        match &outcome {
            Outcome::Spam(ev) => {
                assert_eq!(ev.recovered_commitment(), spammer_commitment);
            }
            other => panic!("expected spam, got {other:?}"),
        }

        // Drive the commit-reveal flow: commit mines, then reveal mines.
        chain.mine_block(); // commit lands
        nodes[1].sync(&mut chain); // submits reveal
        chain.mine_block(); // reveal lands
        nodes[1].sync(&mut chain);

        // The spammer is gone from the group and node 1 got the stake.
        for node in nodes.iter_mut() {
            node.sync(&mut chain);
        }
        assert!(!nodes[0].is_registered(), "spammer removed (paper §II-B)");
        assert_eq!(chain.contract().escrow(), 2 * ETHER);
        assert_eq!(nodes[1].metrics().rewards_wei, ETHER);
        assert!(chain.balance(nodes[1].address()) > 100 * ETHER - ETHER);
    }

    #[test]
    fn slashed_spammer_cannot_publish_again() {
        let (mut chain, mut nodes) = setup(2, 8);
        let mut rng = StdRng::seed_from_u64(9);
        let b1 = nodes[0].publish_unchecked(b"a", 1000, &mut rng).unwrap();
        let b2 = nodes[0].publish_unchecked(b"b", 1000, &mut rng).unwrap();
        decide(&mut nodes[1], &b1, 1000, &mut chain);
        decide(&mut nodes[1], &b2, 1000, &mut chain);
        chain.mine_block();
        nodes[1].sync(&mut chain);
        chain.mine_block();
        nodes[0].sync(&mut chain);
        assert!(!nodes[0].is_registered());
        assert_eq!(
            nodes[0]
                .publish(b"after slash", 2000, &mut rng)
                .unwrap_err(),
            NodeError::NotRegistered,
            "the paper: removed spammers cannot publish further messages"
        );
    }

    #[test]
    fn builder_validates_invariants_at_build_time() {
        let err = |b: NodeConfigBuilder| b.build().unwrap_err().field;
        assert_eq!(err(NodeConfig::builder().tree_depth(0)), "tree_depth");
        assert_eq!(err(NodeConfig::builder().tree_depth(33)), "tree_depth");
        assert_eq!(
            err(NodeConfig::builder().epoch_length(std::time::Duration::from_millis(1500))),
            "epoch_length"
        );
        assert_eq!(
            err(NodeConfig::builder().epoch_length(std::time::Duration::ZERO)),
            "epoch_length"
        );
        assert_eq!(err(NodeConfig::builder().max_epoch_gap(0)), "max_epoch_gap");
        assert_eq!(
            crate::BatchConfig::builder()
                .max_batch(0)
                .build()
                .unwrap_err()
                .field,
            "max_batch"
        );
        // The happy path reproduces the defaults.
        let built = NodeConfig::builder().build().unwrap();
        let defaults = NodeConfig::default();
        assert_eq!(built.epoch_length_secs, defaults.epoch_length_secs);
        assert_eq!(built.tree_depth, defaults.tree_depth);
        assert_eq!(built.batch, defaults.batch);
        assert_eq!(
            (built.batch.max_batch, built.batch.max_delay_secs),
            (1, 1),
            "pass-through"
        );
    }

    #[test]
    fn queued_ingest_batches_and_slashes_like_sequential() {
        let mut rng = StdRng::seed_from_u64(20);
        let mut chain = Chain::new(ChainConfig {
            tree_depth: DEPTH,
            ..ChainConfig::default()
        });
        let (prover, verifier) = keys();
        let batched_config = NodeConfig::builder()
            .tree_depth(DEPTH)
            .epoch_length(std::time::Duration::from_secs(10))
            .batching(
                crate::BatchConfig::builder()
                    .max_batch(8)
                    .max_delay_secs(100)
                    .build()
                    .unwrap(),
            )
            .build()
            .unwrap();
        let mut nodes: Vec<WakuRlnRelayNode> = (0..2)
            .map(|i| {
                let addr = Address::from_seed(&[i as u8, 21]);
                chain.fund(addr, 100 * ETHER);
                let cfg = if i == 1 { batched_config } else { config() };
                WakuRlnRelayNode::new(cfg, addr, Arc::clone(prover), verifier.clone(), &mut rng)
            })
            .collect();
        for node in nodes.iter_mut() {
            node.register(&mut chain);
        }
        chain.mine_block();
        for node in nodes.iter_mut() {
            node.sync(&mut chain);
        }

        // The spammer double-signals; the router queues both bundles.
        let b1 = nodes[0]
            .publish_unchecked(b"qspam 1", 1000, &mut rng)
            .unwrap();
        let b2 = nodes[0]
            .publish_unchecked(b"qspam 2", 1000, &mut rng)
            .unwrap();
        let spammer = nodes.remove(0);
        let router = &mut nodes[0];
        assert!(router.ingest(b1, 1000, &mut chain).is_empty());
        assert!(router.ingest(b2, 1000, &mut chain).is_empty());
        assert_eq!(router.queued_ingest(), 2);

        // Flush (shutdown path): both decide, spam starts the slashing
        // flow exactly like a pass-through node's arrival would.
        let decisions = router.flush_ingest(&mut chain);
        assert_eq!(decisions.len(), 2);
        assert_eq!(decisions[0].outcome, Outcome::Relay);
        assert!(matches!(decisions[1].outcome, Outcome::Spam(_)));
        assert_eq!(router.metrics().slash_commits, 1);
        chain.mine_block();
        router.sync(&mut chain);
        chain.mine_block();
        let mut spammer = spammer;
        spammer.sync(&mut chain);
        assert!(!spammer.is_registered(), "queued path still slashes");
    }

    #[test]
    fn nullifier_snapshot_survives_a_node_restart() {
        let (mut chain, mut nodes) = setup(2, 30);
        let mut rng = StdRng::seed_from_u64(31);
        let b1 = nodes[0]
            .publish_unchecked(b"pre-crash", 1000, &mut rng)
            .unwrap();
        let b2 = nodes[0]
            .publish_unchecked(b"post-crash", 1000, &mut rng)
            .unwrap();
        assert_eq!(decide(&mut nodes[1], &b1, 1000, &mut chain), Outcome::Relay);
        let snap = nodes[1].nullifier_snapshot();

        // "Restart" the router: fresh node, same keys, restored window.
        let (prover, verifier) = keys();
        let mut reborn = WakuRlnRelayNode::new(
            config(),
            nodes[1].address(),
            Arc::clone(prover),
            verifier.clone(),
            &mut rng,
        );
        reborn.sync(&mut chain);
        reborn.restore_nullifiers(&snap).unwrap();
        assert_eq!(reborn.resident_nullifiers(), 1);

        // The second share of the pre-crash epoch is still recognized as
        // spam — the property a forgetful reboot would lose.
        assert!(matches!(
            decide(&mut reborn, &b2, 1000, &mut chain),
            Outcome::Spam(_)
        ));

        // A snapshot from a different window geometry is refused.
        let other = waku_rln::NullifierStore::new(3).snapshot();
        let err = reborn.restore_nullifiers(&other).unwrap_err();
        assert!(matches!(err, NodeError::Snapshot(_)));
        assert!(
            std::error::Error::source(&err).is_some(),
            "cause is chained"
        );
    }

    #[test]
    fn publish_guard_restore_never_lowers() {
        let (_chain, mut nodes) = setup(1, 32);
        let mut rng = StdRng::seed_from_u64(33);
        assert_eq!(nodes[0].publish_guard(), None);
        nodes[0].publish(b"one", 1000, &mut rng).unwrap();
        let guard = nodes[0].publish_guard();
        assert_eq!(guard, Some(100), "T = 10s → epoch 100");
        // A stale persisted guard cannot roll the node back...
        nodes[0].restore_publish_guard(Some(50));
        assert_eq!(nodes[0].publish_guard(), Some(100));
        // ...and a restored guard carries over to a rebooted node.
        let (prover, verifier) = keys();
        let mut reborn = WakuRlnRelayNode::new(
            config(),
            Address::from_seed(b"reborn"),
            Arc::clone(prover),
            verifier.clone(),
            &mut rng,
        );
        reborn.restore_publish_guard(guard);
        assert_eq!(reborn.publish_guard(), guard);
    }

    #[test]
    fn routers_stay_consistent_after_membership_change() {
        let (mut chain, mut nodes) = setup(3, 10);
        let mut rng = StdRng::seed_from_u64(11);
        // Node 2 withdraws, others keep validating fine afterwards.
        let addr = nodes[2].address();
        let own_index = nodes[2].group().own_index().unwrap();
        chain.submit(addr, TxKind::Withdraw { index: own_index }, 100);
        chain.mine_block();
        for node in nodes.iter_mut() {
            node.sync(&mut chain);
        }
        let bundle = nodes[0].publish(b"still works", 5000, &mut rng).unwrap();
        assert_eq!(
            decide(&mut nodes[1], &bundle, 5000, &mut chain),
            Outcome::Relay
        );
    }
}
