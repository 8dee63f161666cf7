//! Bounded micro-batching in front of proof verification.
//!
//! Step 3 of the §III-F pipeline — the Groth16 check — dominates
//! validation cost, and under load a router sees many bundles per epoch.
//! [`BatchingValidator`] queues *proof-worthy* bundles (steps 0–2 run
//! immediately at enqueue, so spam that fails the cheap checks never
//! occupies a slot) and verifies a whole queue with one
//! randomized-linear-combination pairing check:
//! one multi-Miller-loop plus one final exponentiation for the flush,
//! instead of one pairing stack per message.
//!
//! Flushes fire when the queue reaches [`BatchConfig::max_batch`] or when
//! the oldest queued bundle has waited [`BatchConfig::max_delay_secs`]
//! (checked against the caller-supplied clock, so the scheduler stays
//! deterministic — same rule as every other time source in the harness).
//!
//! Rate checks (step 4) run at flush time in FIFO arrival order, so
//! duplicate/spam verdicts — including collisions *inside* one batch —
//! match what the sequential [`MessageValidator::validate`] pipeline
//! would have produced for the same arrival order. The one semantic
//! difference batching introduces is *when* steps run, not their order:
//! epoch-gap and root checks see the enqueue-time clock and root set,
//! and rate checks see the flush-time nullifier window.
//!
//! # What junk proofs cost
//!
//! A junk "proof" costs its sender nothing and fails the flush's one
//! check, so the price of *finding* it is what an attacker buys from a
//! relayer. A failed flush is searched by
//! [`waku_rln::RlnVerifier::isolate`]: the failed check's RLC scalars stay
//! fixed, which gives every sub-range `S` of the batch an exact value
//! `T_S = ∏_{i∈S} eᵢ^{rᵢ}` in GT (`eᵢ = 1` iff proof `i` verifies) with
//! `T_parent = T_left · T_right`. A failing range therefore checks its
//! left half only and divides for the right one, a half with `T = 1` is
//! never entered, each proof's Miller-loop lines are computed at most once
//! after the failed check (recorded, then replayed), and a bundle is
//! rejected only after the exact single-proof check rejected it. For `k`
//! invalid proofs among `n` that is, after the one batch check,
//!
//! ```text
//! ≤ k·(⌈log₂n⌉ + 1)  pairing checks (one final exponentiation, one γ and
//!                     one δ pair, one squaring chain each — about 1.2
//!                     single verifications apiece with their pair loops)
//! ≤ n                 Miller pairs computed from scratch; the rest replay
//! ```
//!
//! — with `n = 64` on two threads about 9 single verifications for one
//! junk proof, 6 per junk proof for four and 5 for eight (it was 22, 19
//! and 15), against 0.11 per honest proof in a clean flush
//! (`exp_verify_batch`, second table). The scalars are
//! Fiat–Shamir over the *whole* batch, so reusing them below the root
//! costs no soundness: a fixed sub-range with an invalid member passes
//! with probability ≤ 2⁻¹²⁸, fewer than `2n` ranges exist, and a range
//! that did pass by that fluke would be a missed rejection, never a wrong
//! blame. The flush records both sides of the bargain:
//! `rln_batch_isolation_checks` (pairing checks after the batch check, 0
//! for a clean flush) and `rln_batch_invalid_proofs_total`.

use std::collections::VecDeque;
use std::time::Instant;

use waku_rln::RlnMessageBundle;

use crate::group::GroupManager;
use crate::validation::{MessageValidator, Outcome};

/// Flush policy for the micro-batching queue.
///
/// `#[non_exhaustive]`, built via [`BatchConfig::builder`] — the
/// `max_batch ≥ 1` invariant is checked once at build time, not deep
/// inside [`BatchingValidator::new`].
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchConfig {
    /// Flush as soon as this many proof-worthy bundles are queued.
    /// Batch-verification gains are already near-asymptotic at 16–64;
    /// larger batches only add isolation cost when spam does appear.
    pub max_batch: usize,
    /// Flush when the oldest queued bundle has waited this many seconds
    /// (`0` = flush on the next event with a later timestamp). Bounds the
    /// latency a quiet topic adds to its last few messages.
    pub max_delay_secs: u64,
}

impl BatchConfig {
    /// Starts building a flush policy from [`BatchConfig::default`].
    pub fn builder() -> BatchConfigBuilder {
        BatchConfigBuilder {
            config: BatchConfig::default(),
        }
    }
}

/// Pass-through: a batch of 1 flushes on every push, so its one-second
/// deadline never fires; raising `max_batch` keeps that deadline.
impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 1,
            max_delay_secs: 1,
        }
    }
}

/// Builder for [`BatchConfig`]; it holds the config it builds.
#[derive(Clone, Debug)]
pub struct BatchConfigBuilder {
    config: BatchConfig,
}

impl BatchConfigBuilder {
    /// Sets the flush-triggering batch size.
    pub fn max_batch(mut self, n: usize) -> Self {
        self.config.max_batch = n;
        self
    }

    /// Sets the maximum seconds the oldest queued bundle may wait.
    pub fn max_delay_secs(mut self, secs: u64) -> Self {
        self.config.max_delay_secs = secs;
        self
    }

    /// Validates the invariants and produces the config.
    ///
    /// # Errors
    ///
    /// [`crate::ConfigError`] when `max_batch` is zero.
    pub fn build(self) -> Result<BatchConfig, crate::errors::ConfigError> {
        if self.config.max_batch == 0 {
            return Err(crate::errors::ConfigError::new(
                "max_batch",
                "must be at least 1",
            ));
        }
        Ok(self.config)
    }
}

/// A completed validation decision, handed back once its batch flushed.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchDecision {
    /// The bundle the decision is about.
    pub bundle: RlnMessageBundle,
    /// The pipeline outcome, identical in meaning to the sequential path.
    pub outcome: Outcome,
}

struct QueuedBundle {
    bundle: RlnMessageBundle,
    enqueued_at_secs: u64,
}

/// A [`MessageValidator`] front end that verifies proofs in micro-batches.
///
/// Decisions are returned from [`BatchingValidator::enqueue`] /
/// [`BatchingValidator::tick`] as they complete: precheck rejections
/// complete immediately, everything else completes with its flush.
///
/// ```no_run
/// use rand::SeedableRng;
/// use waku_rln::RlnProver;
/// use waku_rln_relay::batch::{BatchConfig, BatchingValidator};
/// use waku_rln_relay::{EpochManager, GroupManager, MessageValidator};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let (_, verifier) = RlnProver::keygen(20, &mut rng);
/// let inner = MessageValidator::new(verifier, EpochManager::new(10), 1);
/// let config = BatchConfig::builder().max_batch(16).build().unwrap();
/// let mut validator = BatchingValidator::new(inner, config);
/// let group = GroupManager::new(20);
/// # let bundle: waku_rln::RlnMessageBundle = todo!();
/// for decision in validator.enqueue(bundle, &group, 1_644_810_116) {
///     // forward / drop / slash according to decision.outcome
/// }
/// ```
pub struct BatchingValidator {
    inner: MessageValidator,
    config: BatchConfig,
    queue: VecDeque<QueuedBundle>,
}

impl std::fmt::Debug for BatchingValidator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BatchingValidator(queued = {}, max_batch = {})",
            self.queue.len(),
            self.config.max_batch
        )
    }
}

impl BatchingValidator {
    /// Wraps a validator with the given flush policy.
    ///
    /// # Panics
    ///
    /// Panics if `config.max_batch` is zero.
    pub fn new(inner: MessageValidator, config: BatchConfig) -> Self {
        assert!(config.max_batch > 0, "max_batch must be at least 1");
        BatchingValidator {
            inner,
            config,
            queue: VecDeque::new(),
        }
    }

    /// Feeds one bundle into the pipeline and returns every decision that
    /// completed as a result — the bundle itself if prechecks rejected it,
    /// plus a whole batch if this arrival (or its timestamp) triggered a
    /// flush.
    pub fn enqueue(
        &mut self,
        bundle: RlnMessageBundle,
        group: &GroupManager,
        now_secs: u64,
    ) -> Vec<BatchDecision> {
        // A stale head must flush *before* the new arrival joins, so the
        // deadline keeps first-come-first-batched semantics.
        let mut decisions = if self.deadline_passed(now_secs) {
            self.flush()
        } else {
            Vec::new()
        };
        let started = Instant::now();
        match self.inner.precheck(&bundle, group, now_secs) {
            Some(outcome) => {
                // Precheck drops complete here, so their latency sample is
                // recorded here; queued bundles record theirs at flush.
                self.inner
                    .handles()
                    .validation_latency
                    .observe(started.elapsed().as_nanos() as u64);
                decisions.push(BatchDecision { bundle, outcome });
            }
            None => {
                self.queue.push_back(QueuedBundle {
                    bundle,
                    enqueued_at_secs: now_secs,
                });
                if self.queue.len() >= self.config.max_batch {
                    decisions.extend(self.flush());
                }
            }
        }
        decisions
    }

    /// Clock observation without a message: slides the nullifier window
    /// (like [`MessageValidator::tick`]) and flushes the queue if the
    /// oldest bundle's deadline has passed.
    pub fn tick(&mut self, now_secs: u64) -> Vec<BatchDecision> {
        self.inner.tick(now_secs);
        if self.deadline_passed(now_secs) {
            self.flush()
        } else {
            Vec::new()
        }
    }

    /// Forces the queued bundles through verification regardless of the
    /// flush policy (shutdown, or a caller that wants strict ordering).
    pub fn flush(&mut self) -> Vec<BatchDecision> {
        let n = self.queue.len();
        if n == 0 {
            return Vec::new();
        }
        let batch: Vec<QueuedBundle> = self.queue.drain(..).collect();
        let refs: Vec<&RlnMessageBundle> = batch.iter().map(|q| &q.bundle).collect();

        let started = Instant::now();
        // One call: the isolating check starts with the full-batch check
        // and returns no indices (and no further work) when it passes.
        let isolation = self.inner.verifier().isolate(&refs);
        let batch_ns = started.elapsed().as_nanos() as u64;
        let invalid = isolation.invalid;

        let m = self.inner.handles();
        m.batch_size.observe(n as u64);
        m.batch_isolation_checks
            .observe(isolation.work.checks as u64);
        m.batch_invalid_proofs.add(invalid.len() as u64);
        m.proof_verify_batch.observe(batch_ns);
        // Amortize the batch check into the per-proof series so
        // `rln_proof_verify_ns` stays populated and comparable with the
        // sequential pipeline (same count, batched cost per sample).
        for _ in 0..n {
            m.proof_verify.observe(batch_ns / n as u64);
        }

        let mut bad = invalid.iter().copied().peekable();
        batch
            .into_iter()
            .enumerate()
            .map(|(i, queued)| {
                let outcome = if bad.peek() == Some(&i) {
                    bad.next();
                    self.inner.handles().proof_rejected.inc();
                    Outcome::InvalidProof
                } else {
                    // FIFO rate checks keep intra-batch duplicate/spam
                    // verdicts identical to sequential validation.
                    self.inner.rate_check(&queued.bundle)
                };
                self.inner
                    .handles()
                    .validation_latency
                    .observe(batch_ns / n as u64);
                BatchDecision {
                    bundle: queued.bundle,
                    outcome,
                }
            })
            .collect()
    }

    fn deadline_passed(&self, now_secs: u64) -> bool {
        self.queue.front().is_some_and(|q| {
            now_secs.saturating_sub(q.enqueued_at_secs) >= self.config.max_delay_secs
        })
    }

    /// Number of bundles awaiting a flush.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// The wrapped validator (metrics, nullifier store, registry).
    pub fn inner(&self) -> &MessageValidator {
        &self.inner
    }

    /// Mutable access to the wrapped validator, for the node's nullifier
    /// restore.
    pub(crate) fn inner_mut(&mut self) -> &mut MessageValidator {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::EpochManager;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;
    use waku_arith::fields::Fr;
    use waku_arith::traits::Field;
    use waku_chain::{Address, Chain, ChainConfig, TxKind, ETHER};
    use waku_rln::{Identity, RlnProver, RlnVerifier};

    const DEPTH: usize = 6;
    const T: u64 = 10;

    fn keys() -> &'static (RlnProver, RlnVerifier) {
        static CELL: OnceLock<(RlnProver, RlnVerifier)> = OnceLock::new();
        CELL.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(0xBA7C);
            RlnProver::keygen(DEPTH, &mut rng)
        })
    }

    struct Fixture {
        group: GroupManager,
        identities: Vec<Identity>,
    }

    fn fixture(seed: u64, members: usize) -> Fixture {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut chain = Chain::new(ChainConfig {
            tree_depth: DEPTH,
            ..ChainConfig::default()
        });
        let user = Address::from_seed(b"user");
        chain.fund(user, 1000 * ETHER);
        let identities: Vec<Identity> = (0..members).map(|_| Identity::random(&mut rng)).collect();
        for id in &identities {
            chain.submit(
                user,
                TxKind::Register {
                    commitment: id.commitment(),
                },
                50,
            );
        }
        chain.mine_block();
        let mut group = GroupManager::new(DEPTH);
        group.sync(&chain);
        Fixture { group, identities }
    }

    fn prove(
        f: &Fixture,
        member: usize,
        payload: &[u8],
        epoch: u64,
        seed: u64,
    ) -> RlnMessageBundle {
        let mut rng = StdRng::seed_from_u64(seed);
        keys()
            .0
            .prove_message(
                &f.identities[member],
                &f.group.path_of(member as u64), // registration order = leaf order
                payload,
                epoch,
                &mut rng,
            )
            .unwrap()
    }

    fn validator() -> MessageValidator {
        MessageValidator::new(keys().1.clone(), EpochManager::new(T), 1)
    }

    /// The workload: fresh messages, an intra-batch duplicate, a spam
    /// pair, a corrupted proof, a stale epoch, and an unknown root.
    fn workload(f: &Fixture, now: u64) -> Vec<RlnMessageBundle> {
        let epoch = now / T;
        let mut bundles = vec![
            prove(f, 0, b"fresh a", epoch, 100),
            prove(f, 1, b"fresh b", epoch, 101),
            prove(f, 2, b"spam first", epoch, 102),
            prove(f, 2, b"spam second", epoch, 103), // same member+epoch
            prove(f, 3, b"dup", epoch, 104),
        ];
        bundles.push(bundles[4].clone()); // exact duplicate, same batch
        let mut bad_proof = prove(f, 4, b"tampered", epoch, 105);
        bad_proof.payload = b"swapped!".to_vec();
        bundles.push(bad_proof);
        bundles.push(prove(f, 5, b"stale", epoch - 5, 106));
        let mut bad_root = prove(f, 6, b"rootless", epoch, 107);
        bad_root.root += Fr::one();
        bundles.push(bad_root);
        bundles.push(prove(f, 7, b"fresh c", epoch, 108));
        bundles
    }

    #[test]
    fn batched_outcomes_and_metrics_match_sequential() {
        let f = fixture(60, 8);
        let now = 1000u64;
        let bundles = workload(&f, now);

        let mut seq = validator();
        let sequential: Vec<Outcome> = bundles
            .iter()
            .map(|b| seq.validate(b, &f.group, now))
            .collect();

        // 1 is the node's pass-through default; 4 batches for real.
        for max_batch in [1, 4] {
            let mut batched = BatchingValidator::new(
                validator(),
                BatchConfig {
                    max_batch,
                    max_delay_secs: 1,
                },
            );
            let mut decisions = Vec::new();
            for b in &bundles {
                let done = batched.enqueue(b.clone(), &f.group, now);
                if max_batch == 1 {
                    // Pass-through: each arrival returns its own decision,
                    // so decisions come back in arrival order.
                    assert_eq!(done.len(), 1);
                    assert_eq!(done[0].bundle, *b);
                }
                decisions.extend(done);
            }
            decisions.extend(batched.flush());
            assert_eq!(decisions.len(), bundles.len());

            // Batched decisions complete out of arrival order (precheck
            // drops finish first) but each bundle's verdict must match the
            // sequential pipeline's verdict for the same arrival order.
            // Greedy first-fit matching is sound because identical bundles
            // (the duplicate pair) are decided in FIFO order on both paths.
            let mut used = vec![false; bundles.len()];
            for d in &decisions {
                let idx = (0..bundles.len())
                    .find(|&i| !used[i] && bundles[i] == d.bundle)
                    .expect("every decision maps to a bundle");
                used[idx] = true;
                assert_eq!(
                    d.outcome, sequential[idx],
                    "bundle {idx}, batch {max_batch}"
                );
            }

            // All counter/gauge metrics agree with the sequential pipeline.
            assert_eq!(
                batched.inner().metrics(),
                seq.metrics(),
                "batch {max_batch}"
            );
            // The batched path recorded its own series too: 10 bundles, 2
            // precheck drops, so 8 proof-worthy ones — one flush each at
            // max_batch 1, two full flushes of 4 at max_batch 4.
            //
            // Isolation: a flush of one is its own exact check, so nothing
            // follows it. At 4 the first flush (fresh a, fresh b, spam
            // first, spam second) is clean: no check after its batch check.
            // The second (dup, dup, tampered, fresh c) has one invalid proof
            // at position 2 of 4: the left half's check passes, so the
            // failing pair on the right goes to the exact check, member by
            // member — k·(⌈log₂n⌉ + 1).
            let (flushes, isolation_checks) = if max_batch == 1 { (8, 0) } else { (2, 3) };
            let snap = batched.inner().registry().snapshot();
            let sizes = snap.histogram("rln_batch_size").unwrap();
            assert_eq!((sizes.count, sizes.sum), (flushes, 8));
            let checks = snap.histogram("rln_batch_isolation_checks").unwrap();
            assert_eq!((checks.count, checks.sum), (flushes, isolation_checks));
            assert_eq!(snap.scalar("rln_batch_invalid_proofs_total"), 1);
            assert_eq!(
                snap.histogram("rln_proof_verify_batch_ns").unwrap().count,
                flushes
            );
            assert_eq!(
                snap.histogram("rln_proof_verify_ns").unwrap().count,
                8,
                "amortized per-proof series has one sample per verified proof"
            );
        }
    }

    #[test]
    fn queue_flushes_on_size() {
        let f = fixture(61, 4);
        let now = 1000u64;
        let epoch = now / T;
        let mut v = BatchingValidator::new(
            validator(),
            BatchConfig {
                max_batch: 2,
                max_delay_secs: 100,
            },
        );
        let d1 = v.enqueue(prove(&f, 0, b"one", epoch, 1), &f.group, now);
        assert!(d1.is_empty(), "first bundle waits for a partner");
        assert_eq!(v.queued(), 1);
        let d2 = v.enqueue(prove(&f, 1, b"two", epoch, 2), &f.group, now);
        assert_eq!(d2.len(), 2, "second arrival fills the batch");
        assert!(d2.iter().all(|d| d.outcome == Outcome::Relay));
        assert_eq!(v.queued(), 0);
    }

    #[test]
    fn queue_flushes_on_deadline() {
        let f = fixture(62, 4);
        let now = 1000u64;
        let epoch = now / T;
        let mut v = BatchingValidator::new(
            validator(),
            BatchConfig {
                max_batch: 64,
                max_delay_secs: 2,
            },
        );
        assert!(v
            .enqueue(prove(&f, 0, b"waiting", epoch, 3), &f.group, now)
            .is_empty());
        assert!(v.tick(now + 1).is_empty(), "deadline not reached");
        let flushed = v.tick(now + 2);
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].outcome, Outcome::Relay);
        // A late arrival also trips the deadline of a stale head.
        assert!(v
            .enqueue(prove(&f, 1, b"head", epoch, 4), &f.group, now + 3)
            .is_empty());
        let d = v.enqueue(prove(&f, 2, b"trigger", epoch, 5), &f.group, now + 9);
        assert_eq!(d.len(), 1, "stale head flushes before the new arrival");
        assert_eq!(v.queued(), 1, "trigger bundle is queued for the next batch");
    }

    /// `tick` slides the window before its deadline flush, so a bundle
    /// queued at epoch `e` and flushed at `e + Thr + 1` is rate-checked
    /// out of window: dropped, counted, neither relayed nor slashed.
    #[test]
    fn deadline_flush_after_the_window_slid_is_out_of_window() {
        let f = fixture(64, 1);
        let now = 1000u64; // T = 1 s: epoch 1000
        let mut v = BatchingValidator::new(
            MessageValidator::new(keys().1.clone(), EpochManager::new(1), 1),
            BatchConfig {
                max_batch: 64,
                max_delay_secs: 1,
            },
        );
        assert!(v
            .enqueue(prove(&f, 0, b"queued", now, 6), &f.group, now)
            .is_empty());
        let flushed = v.tick(now + 2);
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].outcome, Outcome::EpochOutOfRange(2));
        let snap = v.inner().registry().snapshot();
        assert_eq!(snap.scalar("rln_out_of_window_total"), 1);
        assert_eq!(snap.scalar("rln_validation_relayed_total"), 0);
    }

    #[test]
    fn invalid_proofs_are_isolated_not_collateral() {
        let f = fixture(63, 6);
        let now = 1000u64;
        let epoch = now / T;
        let mut v = BatchingValidator::new(
            validator(),
            BatchConfig {
                max_batch: 5,
                max_delay_secs: 100,
            },
        );
        let mut decisions = Vec::new();
        for (i, member) in (0..5).enumerate() {
            let mut b = prove(&f, member, format!("m{i}").as_bytes(), epoch, 10 + i as u64);
            if i == 2 {
                b.payload = b"forged".to_vec();
            }
            decisions.extend(v.enqueue(b, &f.group, now));
        }
        assert_eq!(decisions.len(), 5);
        let rejected: Vec<usize> = decisions
            .iter()
            .enumerate()
            .filter(|(_, d)| d.outcome == Outcome::InvalidProof)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(rejected, vec![2], "only the forged bundle is rejected");
        assert_eq!(
            decisions
                .iter()
                .filter(|d| d.outcome == Outcome::Relay)
                .count(),
            4
        );
    }
}
