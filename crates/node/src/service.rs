//! The supervised relayer service: one [`WakuRlnRelayNode`] plus durable
//! state, driven by an injected clock.
//!
//! Every public method takes `now_secs` instead of sampling a wall
//! clock, for the same reason as the rest of the harness: the soak
//! scenario drives *simulated hours* through the very service binary
//! users run, and a deterministic clock is what makes its assertions
//! (flat memory, restart recovery) reproducible. The `waku-node` binary
//! supplies real time; `exp_soak` supplies fake time; the service cannot
//! tell the difference.
//!
//! ## Persistence layout (`data_dir/`)
//!
//! Every file below is read, written and synced through
//! [`waku_wire::fs`], the one module that touches the filesystem; the
//! owners decide only what to write and when to sync.
//!
//! | path              | contents                                   | discipline |
//! |-------------------|--------------------------------------------|------------|
//! | `keys.bin`        | proving-key cache (`waku_rln::keycache`)   | checksummed envelope, `atomic_write` |
//! | `store/`          | message history ([`SegmentLog`])           | CRC per record, torn-tail `truncate`, `Appender` + `sync_dir` on flush |
//! | `nullifiers.snap` | rate-limit window (`waku_rln::snapshot_io`)| checksummed envelope, `atomic_write` |
//! | `publish.guard`   | own last-published epoch                   | magic + value + complement, `atomic_write` |
//!
//! A crash at any instant leaves every file either at its previous
//! version or its new one. On reopen the service recovers all four and
//! keeps the paper's §III-F guarantees across the restart: the same
//! epoch's second signal is still spam (nullifier snapshot), and the
//! node still refuses to double-publish (publish guard).

use std::sync::{Arc, OnceLock};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use waku_chain::{Address, Chain, ChainConfig, ETHER};
use waku_metrics::{
    Counter, CounterId, Gauge, GaugeFold, GaugeId, Layout, LayoutBuilder, Registry,
};
use waku_relay::{HistoryQuery, HistoryResponse, SegmentLog, StorageBackend, WakuMessage};
use waku_rln::snapshot_io::{load_snapshot, save_snapshot};
use waku_rln::{RlnMessageBundle, RlnProver};
use waku_rln_relay::{BatchDecision, Outcome, WakuRlnRelayNode};
use waku_wire::{put_u64, Reader};

use crate::config::ServiceConfig;
use crate::error::ServiceError;

/// Publish-guard sidecar magic.
const GUARD_MAGIC: &[u8; 8] = b"WAKUGRD1";

/// Content topic the service stores relayed payloads under.
const CONTENT_TOPIC: &str = "/waku-node/1/relayed/proto";

/// Typed ids into the service metric catalogue.
struct ServiceIds {
    heartbeats: CounterId,
    checkpoints: CounterId,
    ingested: CounterId,
    stored: CounterId,
    store_messages: GaugeId,
    store_segments: GaugeId,
    store_disk_bytes: GaugeId,
    queue_depth: GaugeId,
    recovered_messages: GaugeId,
    snapshot_restored: GaugeId,
    pool_threads: GaugeId,
}

fn catalogue() -> &'static (Arc<Layout>, ServiceIds) {
    static CELL: OnceLock<(Arc<Layout>, ServiceIds)> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut b = LayoutBuilder::new();
        let ids = ServiceIds {
            heartbeats: b.counter("node_heartbeats_total", "Service heartbeats executed."),
            checkpoints: b.counter(
                "node_checkpoints_total",
                "Durable checkpoints written (store flush + snapshot + guard).",
            ),
            ingested: b.counter("node_ingested_total", "Bundles handed to the ingest queue."),
            stored: b.counter(
                "node_stored_total",
                "Relayed messages appended to the durable store.",
            ),
            store_messages: b.gauge(
                "node_store_messages",
                "Messages resident in the store's live window.",
                GaugeFold::Sum,
            ),
            store_segments: b.gauge(
                "node_store_segments",
                "Segment files on disk.",
                GaugeFold::Sum,
            ),
            store_disk_bytes: b.gauge(
                "node_store_disk_bytes",
                "Bytes on disk across all segments.",
                GaugeFold::Sum,
            ),
            queue_depth: b.gauge(
                "node_ingest_queue_depth",
                "Bundles awaiting a micro-batch flush.",
                GaugeFold::Sum,
            ),
            recovered_messages: b.gauge(
                "node_recovered_messages",
                "Messages recovered from disk at the last open.",
                GaugeFold::Sum,
            ),
            snapshot_restored: b.gauge(
                "node_snapshot_restored",
                "1 if the nullifier window was restored at the last open.",
                GaugeFold::Sum,
            ),
            pool_threads: b.gauge(
                "waku_pool_threads",
                "Threads proof verification and proving fan out on.",
                GaugeFold::Max,
            ),
        };
        (b.build(), ids)
    })
}

struct ServiceHandles {
    heartbeats: Counter,
    checkpoints: Counter,
    ingested: Counter,
    stored: Counter,
    store_messages: Gauge,
    store_segments: Gauge,
    store_disk_bytes: Gauge,
    queue_depth: Gauge,
    recovered_messages: Gauge,
    snapshot_restored: Gauge,
    pool_threads: Gauge,
}

impl ServiceHandles {
    fn bind(registry: &Registry) -> Self {
        let ids = &catalogue().1;
        ServiceHandles {
            heartbeats: registry.counter(ids.heartbeats),
            checkpoints: registry.counter(ids.checkpoints),
            ingested: registry.counter(ids.ingested),
            stored: registry.counter(ids.stored),
            store_messages: registry.gauge(ids.store_messages),
            store_segments: registry.gauge(ids.store_segments),
            store_disk_bytes: registry.gauge(ids.store_disk_bytes),
            queue_depth: registry.gauge(ids.queue_depth),
            recovered_messages: registry.gauge(ids.recovered_messages),
            snapshot_restored: registry.gauge(ids.snapshot_restored),
            pool_threads: registry.gauge(ids.pool_threads),
        }
    }
}

/// What the service found on disk when it opened.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct RecoveryReport {
    /// Messages recovered into the store's live window.
    pub recovered_messages: usize,
    /// Whether the nullifier window was restored from a snapshot.
    pub snapshot_restored: bool,
    /// The restored publish guard, if any.
    pub publish_guard: Option<u64>,
    /// Whether the proving keys came from a fresh trusted-setup
    /// simulation (`true`) or the on-disk cache (`false`).
    pub cold_keygen: bool,
}

/// A point-in-time view of the running service.
#[derive(Clone, Copy, Debug, Default)]
#[non_exhaustive]
pub struct ServiceStatus {
    /// Messages resident in the store's live window.
    pub messages_stored: usize,
    /// Segment files on disk.
    pub segments: usize,
    /// Bytes on disk across all segments.
    pub disk_bytes: u64,
    /// Bundles awaiting a micro-batch flush.
    pub queued: usize,
    /// Shares resident in the windowed nullifier store.
    pub resident_nullifiers: usize,
    /// The node's publish guard.
    pub publish_guard: Option<u64>,
}

/// What a clean shutdown decided and persisted.
#[derive(Clone, Copy, Debug)]
#[non_exhaustive]
pub struct ShutdownReport {
    /// Queued bundles decided by the final flush.
    pub flushed: usize,
    /// Messages in the store's live window at exit.
    pub messages_stored: usize,
    /// Bytes on disk at exit.
    pub disk_bytes: u64,
}

/// The long-running WAKU-RLN-RELAY service (see the module docs).
pub struct RelayerService {
    config: ServiceConfig,
    chain: Chain,
    node: WakuRlnRelayNode,
    store: SegmentLog,
    registry: Registry,
    h: ServiceHandles,
    recovery: RecoveryReport,
    last_checkpoint_secs: Option<u64>,
}

impl std::fmt::Debug for RelayerService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "RelayerService(data_dir = {:?}, stored = {})",
            self.config.data_dir,
            self.store.len()
        )
    }
}

impl RelayerService {
    /// Opens (or recovers) a service rooted at `config.data_dir`.
    ///
    /// Recovery order: proving keys (cache or fresh ceremony), message
    /// segments (torn tails truncated), nullifier snapshot (discarded on
    /// checksum or window mismatch — failing safe to an empty window),
    /// publish guard.
    pub fn open(config: ServiceConfig) -> Result<Self, ServiceError> {
        // Two independent RNG streams so the node's identity is the same
        // on a warm start (key cache hit consumes no randomness) as on a
        // cold one.
        let mut key_rng = StdRng::seed_from_u64(config.seed ^ 0x6B65_7973);
        let mut id_rng = StdRng::seed_from_u64(config.seed);

        // Cold means the cache did not load, not that it was absent: a
        // corrupt `keys.bin`, or one written at another depth, also runs
        // a fresh ceremony.
        let keys_path = config.data_dir.join("keys.bin");
        let depth = config.node.tree_depth;
        let cached = RlnProver::load_cached(depth, &keys_path);
        let cold_keygen = cached.is_none();
        let (prover, verifier) =
            cached.unwrap_or_else(|| RlnProver::keygen_and_save(depth, &keys_path, &mut key_rng));

        let mut chain = Chain::new(ChainConfig {
            tree_depth: config.node.tree_depth,
            ..ChainConfig::default()
        });
        let address = Address::from_seed(&config.seed.to_le_bytes());
        chain.fund(address, 100 * ETHER);
        let mut node = WakuRlnRelayNode::new(
            config.node,
            address,
            Arc::new(prover),
            verifier,
            &mut id_rng,
        );
        node.register(&mut chain);
        chain.mine_block();
        node.sync(&mut chain);

        let store = SegmentLog::open(config.data_dir.join("store"), config.segment)?;

        let snapshot_restored = match load_snapshot(&config.data_dir.join("nullifiers.snap")) {
            Some(snap) => node.restore_nullifiers(&snap).is_ok(),
            None => false,
        };
        let publish_guard = load_guard(&config.data_dir.join("publish.guard"));
        node.restore_publish_guard(publish_guard);

        let registry = Registry::new(catalogue().0.clone());
        let h = ServiceHandles::bind(&registry);
        let recovery = RecoveryReport {
            recovered_messages: store.recovered_messages(),
            snapshot_restored,
            publish_guard,
            cold_keygen,
        };
        h.recovered_messages.set(recovery.recovered_messages as u64);
        h.snapshot_restored.set(u64::from(snapshot_restored));
        h.pool_threads.set(waku_pool::current_num_threads() as u64);

        Ok(RelayerService {
            config,
            chain,
            node,
            store,
            registry,
            h,
            recovery,
            last_checkpoint_secs: None,
        })
    }

    /// What the open found on disk.
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// Feeds one incoming bundle to the validation pipeline; relayed
    /// decisions are appended to the durable store.
    pub fn ingest(
        &mut self,
        bundle: RlnMessageBundle,
        now_secs: u64,
    ) -> Result<Vec<BatchDecision>, ServiceError> {
        self.h.ingested.inc();
        let decisions = self.node.ingest(bundle, now_secs, &mut self.chain);
        self.absorb(&decisions)?;
        Ok(decisions)
    }

    /// One heartbeat: window slide + queue deadline check, a chain step
    /// (mining pending slashing transactions), and a checkpoint if one
    /// is due.
    pub fn step(&mut self, now_secs: u64) -> Result<Vec<BatchDecision>, ServiceError> {
        let decisions = self.node.heartbeat(now_secs, &mut self.chain);
        self.absorb(&decisions)?;
        self.chain.mine_block();
        self.node.sync(&mut self.chain);
        self.h.heartbeats.inc();
        if self.checkpoint_due(now_secs) {
            self.checkpoint(now_secs)?;
        }
        Ok(decisions)
    }

    /// Publishes our own message. The updated publish guard is persisted
    /// *immediately* (not at the next checkpoint): a crash right after
    /// proving must not let the restarted node emit a second share for
    /// the same epoch.
    pub fn publish<R: Rng + ?Sized>(
        &mut self,
        payload: &[u8],
        now_secs: u64,
        rng: &mut R,
    ) -> Result<RlnMessageBundle, ServiceError> {
        let bundle = self.node.publish(payload, now_secs, rng)?;
        if let Some(epoch) = self.node.publish_guard() {
            save_guard(&self.config.data_dir.join("publish.guard"), epoch)?;
        }
        Ok(bundle)
    }

    /// Writes a durable checkpoint now: store flush, nullifier snapshot,
    /// publish guard.
    pub fn checkpoint(&mut self, now_secs: u64) -> Result<(), ServiceError> {
        self.store.flush()?;
        save_snapshot(
            &self.config.data_dir.join("nullifiers.snap"),
            &self.node.nullifier_snapshot(),
        )?;
        if let Some(epoch) = self.node.publish_guard() {
            save_guard(&self.config.data_dir.join("publish.guard"), epoch)?;
        }
        self.h.checkpoints.inc();
        self.last_checkpoint_secs = Some(now_secs);
        Ok(())
    }

    /// Clean shutdown: decides every queued bundle, persists everything,
    /// and consumes the service.
    pub fn shutdown(mut self, now_secs: u64) -> Result<ShutdownReport, ServiceError> {
        let decisions = self.node.flush_ingest(&mut self.chain);
        self.absorb(&decisions)?;
        self.checkpoint(now_secs)?;
        Ok(ShutdownReport {
            flushed: decisions.len(),
            messages_stored: self.store.len(),
            disk_bytes: self.store.disk_bytes(),
        })
    }

    /// Point-in-time view for status lines and soak sampling.
    pub fn status(&self) -> ServiceStatus {
        ServiceStatus {
            messages_stored: self.store.len(),
            segments: self.store.segment_count(),
            disk_bytes: self.store.disk_bytes(),
            queued: self.node.queued_ingest(),
            resident_nullifiers: self.node.resident_nullifiers(),
            publish_guard: self.node.publish_guard(),
        }
    }

    /// Paginated history query against the durable store (13/WAKU2-STORE
    /// semantics; see `waku_relay::storage` for the cursor contract).
    pub fn query(&self, q: &HistoryQuery) -> HistoryResponse {
        StorageBackend::query(&self.store, q)
    }

    /// Prometheus exposition: the node's catalogue (validation pipeline,
    /// lifecycle) followed by the service's (store, queue, checkpoints).
    /// The store and queue gauges mirror [`RelayerService::status`] and
    /// are set from it here, at render time.
    pub fn metrics_text(&self) -> String {
        let status = self.status();
        self.h.store_messages.set(status.messages_stored as u64);
        self.h.store_segments.set(status.segments as u64);
        self.h.store_disk_bytes.set(status.disk_bytes);
        self.h.queue_depth.set(status.queued as u64);
        let mut text = self.node.metrics_text();
        text.push_str(&self.registry.render_prometheus());
        text
    }

    /// The underlying node (read-only introspection).
    pub fn node(&self) -> &WakuRlnRelayNode {
        &self.node
    }

    /// The simulated membership environment this service syncs against.
    /// Tests and the soak harness register *other* identities here.
    pub fn chain(&self) -> &Chain {
        &self.chain
    }

    /// Mutable access to the membership environment (registrations,
    /// funding). The next [`RelayerService::step`] mines and syncs.
    pub fn chain_mut(&mut self) -> &mut Chain {
        &mut self.chain
    }

    fn absorb(&mut self, decisions: &[BatchDecision]) -> Result<(), ServiceError> {
        for d in decisions {
            if d.outcome == Outcome::Relay {
                // Deterministic timestamp: the bundle's epoch mapped back
                // to seconds — the soak clock and the wall clock agree.
                let timestamp = d.bundle.epoch * self.config.node.epoch_length_secs;
                self.store.append(WakuMessage::new(
                    d.bundle.payload.clone(),
                    CONTENT_TOPIC,
                    timestamp,
                ))?;
                self.h.stored.inc();
            }
        }
        Ok(())
    }

    fn checkpoint_due(&self, now_secs: u64) -> bool {
        now_secs.saturating_sub(self.last_checkpoint_secs.unwrap_or(0))
            >= self.config.checkpoint_secs
    }
}

/// Writes the publish-guard sidecar: magic ‖ epoch ‖ !epoch, through
/// [`waku_wire::fs::atomic_write`]. The complement catches torn/garbled
/// contents.
fn save_guard(path: &std::path::Path, epoch: u64) -> std::io::Result<()> {
    waku_wire::fs::atomic_write(path, &encode_guard(epoch))
}

fn encode_guard(epoch: u64) -> Vec<u8> {
    let mut blob = GUARD_MAGIC.to_vec();
    put_u64(&mut blob, epoch);
    put_u64(&mut blob, !epoch);
    blob
}

/// Reads the publish-guard sidecar; `None` for anything malformed (the
/// node then relies on the epoch itself having passed — failing safe
/// costs at most one skipped publish window).
fn load_guard(path: &std::path::Path) -> Option<u64> {
    decode_guard(&waku_wire::fs::read(path).ok()?)
}

fn decode_guard(bytes: &[u8]) -> Option<u64> {
    let mut r = Reader::new(bytes);
    if r.array::<8>().ok()? != *GUARD_MAGIC {
        return None;
    }
    let epoch = r.u64().ok()?;
    let check = r.u64().ok()?;
    r.finish().ok()?;
    (check == !epoch).then_some(epoch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use waku_chain::TxKind;
    use waku_rln::Identity;
    use waku_rln_relay::{GroupManager, NodeConfig};

    const DEPTH: usize = 6;
    const T: u64 = 10;

    fn test_config(dir: &std::path::Path) -> ServiceConfig {
        ServiceConfig::builder(dir)
            .node(
                NodeConfig::builder()
                    .tree_depth(DEPTH)
                    .epoch_length(Duration::from_secs(T))
                    .build()
                    .unwrap(),
            )
            .checkpoint(Duration::from_secs(5))
            .seed(7)
            .build()
            .unwrap()
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("waku-node-{tag}-{}", std::process::id()))
    }

    /// An external publisher registered on the service's chain.
    struct Peer {
        identity: Identity,
        group: GroupManager,
        prover: RlnProver,
    }

    fn register_peer(service: &mut RelayerService, dir: &std::path::Path, seed: u64) -> Peer {
        let mut rng = StdRng::seed_from_u64(seed);
        let identity = Identity::random(&mut rng);
        let addr = Address::from_seed(&seed.to_le_bytes());
        service.chain_mut().fund(addr, 10 * ETHER);
        service.chain_mut().submit(
            addr,
            TxKind::Register {
                commitment: identity.commitment(),
            },
            100,
        );
        service.step(0).unwrap(); // mines + syncs
        let mut group = GroupManager::new(DEPTH);
        group.set_own_commitment(identity.commitment());
        group.sync(service.chain());
        // Same key cache file → same ceremony keys as the service.
        let (prover, _) = RlnProver::keygen_or_load(DEPTH, &dir.join("keys.bin"), &mut rng);
        Peer {
            identity,
            group,
            prover,
        }
    }

    impl Peer {
        fn prove(&self, payload: &[u8], epoch: u64, seed: u64) -> RlnMessageBundle {
            let mut rng = StdRng::seed_from_u64(seed);
            self.prover
                .prove_message(
                    &self.identity,
                    &self.group.own_path().expect("registered"),
                    payload,
                    epoch,
                    &mut rng,
                )
                .unwrap()
        }
    }

    #[test]
    fn service_survives_a_restart_with_full_state() {
        let dir = temp_dir("restart");
        let _ = std::fs::remove_dir_all(&dir);

        // First life: ingest one message, publish one of our own.
        let mut service = RelayerService::open(test_config(&dir)).unwrap();
        assert!(service.recovery().cold_keygen);
        let peer = register_peer(&mut service, &dir, 42);
        let now = 1000u64;
        let b1 = peer.prove(b"before crash", now / T, 1);
        let b2 = peer.prove(b"double signal", now / T, 2);
        let decisions = service.ingest(b1, now).unwrap();
        assert_eq!(decisions.len(), 1, "pass-through mode decides immediately");
        assert_eq!(decisions[0].outcome, Outcome::Relay);
        let mut rng = StdRng::seed_from_u64(9);
        service.publish(b"own message", now, &mut rng).unwrap();
        let report = service.shutdown(now).unwrap();
        assert_eq!(report.messages_stored, 1);

        // Second life: everything is back.
        let mut reborn = RelayerService::open(test_config(&dir)).unwrap();
        let rec = reborn.recovery();
        assert!(!rec.cold_keygen, "keys came from the cache");
        assert_eq!(rec.recovered_messages, 1);
        assert!(rec.snapshot_restored);
        assert_eq!(rec.publish_guard, Some(now / T));
        // The membership environment is simulated and rebuilt on open;
        // replaying the same deterministic registration restores the
        // same tree (and therefore the same root b2 was proven against).
        let _ = register_peer(&mut reborn, &dir, 42);

        // The pre-crash epoch's second signal is still spam.
        let d = reborn.ingest(b2, now).unwrap();
        assert!(matches!(d[0].outcome, Outcome::Spam(_)));
        // And the restored guard still blocks a same-epoch publish.
        let err = reborn.publish(b"again", now, &mut rng).unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Node(waku_rln_relay::NodeError::RateLimitedLocally)
        ));

        // History survived too.
        let resp = reborn.query(&HistoryQuery {
            page_size: 10,
            ..HistoryQuery::default()
        });
        assert_eq!(resp.messages.len(), 1);
        assert_eq!(resp.messages[0].payload, b"before crash");

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A `keys.bin` that exists but does not load is a cold start: the
    /// report says what ran, not what was on disk.
    #[test]
    fn unloadable_key_cache_reports_a_fresh_ceremony() {
        let dir = temp_dir("badkeys");
        let _ = std::fs::remove_dir_all(&dir);
        let service = RelayerService::open(test_config(&dir)).unwrap();
        service.shutdown(0).unwrap();
        std::fs::write(dir.join("keys.bin"), b"not a key cache").unwrap();

        let reopened = RelayerService::open(test_config(&dir)).unwrap();
        assert!(reopened.recovery().cold_keygen, "garbage keys.bin");
        reopened.shutdown(0).unwrap();
        // The fresh ceremony rewrote the cache, so the next open is warm.
        let warm = RelayerService::open(test_config(&dir)).unwrap();
        assert!(!warm.recovery().cold_keygen);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoints_fire_on_schedule_and_metrics_expose_both_catalogues() {
        let dir = temp_dir("ckpt");
        let _ = std::fs::remove_dir_all(&dir);
        let mut service =
            waku_pool::with_threads(3, || RelayerService::open(test_config(&dir))).unwrap();
        // checkpoint_secs = 5: nothing is due before t = 5, the first
        // checkpoint lands on the first step at or past it, and the next
        // becomes due 5 s after that.
        service.step(1).unwrap();
        service.step(2).unwrap();
        let text = service.metrics_text();
        assert!(text.contains("node_checkpoints_total 0"), "{text}");
        service.step(6).unwrap();
        assert!(service.metrics_text().contains("node_checkpoints_total 1"));
        service.step(11).unwrap();
        assert!(service.metrics_text().contains("node_checkpoints_total 2"));
        // One exposition carries both catalogues.
        let text = service.metrics_text();
        assert!(text.contains("rln_validation_total"));
        assert!(text.contains("node_store_disk_bytes"));
        // What junk proofs cost this relayer, zero so far.
        assert!(
            text.contains("rln_batch_isolation_checks_count 0"),
            "{text}"
        );
        assert!(text.contains("rln_batch_invalid_proofs_total 0"), "{text}");
        // The pool size the service opened under, which per-hop
        // verification latency depends on.
        assert!(text.contains("waku_pool_threads 3"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn guard_sidecar_rejects_corruption() {
        let dir = temp_dir("guard");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("publish.guard");
        save_guard(&path, 123).unwrap();
        assert_eq!(load_guard(&path), Some(123));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(load_guard(&path), None, "complement catches the flip");
        std::fs::write(&path, b"short").unwrap();
        assert_eq!(load_guard(&path), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The sidecar's row of the decoder-totality suite (see
    /// `tests/decoders_total.rs`; same generator): golden bytes from the
    /// parent commit, and under mutation either `None` or an epoch whose
    /// encoding is exactly the mutated bytes.
    #[test]
    fn guard_codec_is_byte_stable_and_total() {
        let sample = encode_guard(123);
        assert_eq!(
            sample,
            b"WAKUGRD1\x7b\0\0\0\0\0\0\0\x84\xff\xff\xff\xff\xff\xff\xff"
        );
        assert_eq!(decode_guard(&sample), Some(123));
        for mutated in waku_wire::mutations(&sample) {
            if let Some(epoch) = decode_guard(&mutated) {
                assert_eq!(encode_guard(epoch), mutated);
            }
        }
    }
}
