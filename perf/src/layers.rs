//! Stand-alone per-layer probes: the layer metrics no ladder rung covers.
//! Each times one public call on inputs taken from (or shaped like) the
//! workloads' own.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use waku_arith::batch_inv::batch_inverse;
use waku_arith::fft::Radix2Domain;
use waku_arith::fields::{Fq, Fr};
use waku_arith::traits::Field;
use waku_chain::{Address, Chain, ChainConfig, TxKind, ETHER};
use waku_gossip::cache::SeenSet;
use waku_gossip::MessageId;
use waku_hash::{keccak256, sha256};
use waku_merkle::DenseTree;
use waku_metrics::{LayoutBuilder, Registry};
use waku_poseidon::poseidon2;
use waku_relay::{Direction, HistoryQuery, SegmentConfig, SegmentLog, StorageBackend, WakuMessage};
use waku_rln::snapshot_io::save_snapshot;
use waku_rln::{NullifierStore, RlnMessageBundle, RlnProver};
use waku_rln_relay::{
    BatchingValidator, EpochManager, GroupManager, MessageValidator, Outcome, Slasher,
};
use waku_shamir::{recover_from_two, rln_share};
use waku_sim::Defense;
use waku_snark::PreparedVerifyingKey;

use crate::corpus::{BASE_SECS, EPOCH_SECS, STALE_GAP, THR};
use crate::fixtures::{batch64, RelayFixture, Scratch};
use crate::ladders::{emit_ns, Findings, Metrics};
use crate::stats::{fastest_of, median};
use crate::workloads::{e6_config, run_sim, E6_RLN};

/// Nanoseconds per call of `f`: the fastest of five timed batches, sized
/// from one calibration call so the probe takes about `budget_ms`.
fn probe(budget_ms: f64, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    f();
    let once = started.elapsed().as_nanos().max(1) as f64;
    let iters = ((budget_ms * 1e6 / 5.0 / once) as usize).clamp(1, 1_000_000);
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..iters {
                f();
            }
            started.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    fastest_of(&batches)
}

/// Nanoseconds of one run of `f` on each value `setup` makes: the fastest
/// of `samples` runs, set-up untimed.
fn probe_with<S>(samples: usize, mut setup: impl FnMut() -> S, mut f: impl FnMut(S)) -> f64 {
    let runs: Vec<f64> = (0..samples)
        .map(|_| {
            let state = setup();
            let started = Instant::now();
            f(state);
            started.elapsed().as_nanos() as f64
        })
        .collect();
    fastest_of(&runs)
}

/// Field, FFT, hash, tree and share arithmetic.
pub fn arithmetic(seed: u64, out: &mut Metrics) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6172_6974);

    let (mut x, y) = (Fr::random(&mut rng), Fr::random(&mut rng));
    let chain = probe(20.0, || {
        for _ in 0..1000 {
            x *= y;
        }
    });
    black_box(x);
    emit_ns(out, "arith.fr_mul_ns", chain / 1000.0);
    let (mut x, y) = (Fq::random(&mut rng), Fq::random(&mut rng));
    let chain = probe(20.0, || {
        for _ in 0..1000 {
            x *= y;
        }
    });
    black_box(x);
    emit_ns(out, "arith.fq_mul_ns", chain / 1000.0);

    // The depth-20 circuit's evaluation domain.
    let domain = Radix2Domain::<Fr>::new(8192).expect("2-adic domain");
    let coeffs: Vec<Fr> = (0..8192).map(|_| Fr::random(&mut rng)).collect();
    emit_ns(
        out,
        "arith.fft_8192_ms",
        probe(60.0, || {
            let evals = domain.fft(&coeffs);
            black_box(domain.coset_ifft(&evals));
        }),
    );
    let values: Vec<Fr> = (0..4096).map(|_| Fr::random(&mut rng)).collect();
    emit_ns(
        out,
        "arith.batch_inv_4096_us",
        probe(20.0, || {
            black_box(batch_inverse(&values));
        }),
    );

    let (a, b) = (Fr::random(&mut rng), Fr::random(&mut rng));
    emit_ns(
        out,
        "poseidon.hash2_us",
        probe(20.0, || {
            black_box(poseidon2(black_box(a), b));
        }),
    );
    let mut payload = [0u8; 128];
    rng.fill(&mut payload[..]);
    emit_ns(
        out,
        "hash.sha256_128b_ns",
        probe(10.0, || {
            black_box(sha256(black_box(&payload)));
        }),
    );
    emit_ns(
        out,
        "hash.keccak256_128b_ns",
        probe(10.0, || {
            black_box(keccak256(black_box(&payload)));
        }),
    );

    // The publisher's tree: membership churn costs one root-path rehash.
    let mut tree = DenseTree::new(20);
    let mut leaf = 0u64;
    emit_ns(
        out,
        "merkle.dense_set_d20_us",
        probe(30.0, || {
            leaf = (leaf + 1) % tree.capacity();
            tree.set(leaf, a);
        }),
    );
    emit_ns(
        out,
        "merkle.proof_d20_ns",
        probe(10.0, || {
            black_box(tree.proof(black_box(leaf)));
        }),
    );

    let (sk, a1) = (Fr::random(&mut rng), Fr::random(&mut rng));
    let (s1, s2) = (rln_share(sk, a1, a), rln_share(sk, a1, b));
    emit_ns(
        out,
        "shamir.recover_us",
        probe(10.0, || {
            black_box(recover_from_two(black_box(s1), s2)).expect("distinct points");
        }),
    );
}

/// Pool, metrics registry and the chain simulator.
pub fn plumbing(seed: u64, out: &mut Metrics) {
    out.insert("pool.threads", waku_pool::current_num_threads() as f64);
    emit_ns(
        out,
        "pool.join_overhead_ns",
        probe(20.0, || {
            black_box(waku_pool::join(|| black_box(1u64), || black_box(2u64)));
        }),
    );

    let mut layout = LayoutBuilder::new();
    let counter = layout.counter("perf_probe_total", "Probe counter.");
    let histogram = layout.histogram("perf_probe_ns", "Probe histogram.");
    let registry = Registry::new(layout.build());
    let (counter, histogram) = (registry.counter(counter), registry.histogram(histogram));
    emit_ns(out, "metrics.counter_inc_ns", probe(10.0, || counter.inc()));
    let mut value = 1u64;
    emit_ns(
        out,
        "metrics.histogram_observe_ns",
        probe(10.0, || {
            value = value.wrapping_mul(6364136223846793005).wrapping_add(1);
            histogram.observe(value >> 40);
        }),
    );
    // The node's real catalogue, as `/metrics` renders it.
    let node_registry = waku_rln_relay::metrics::registry();
    emit_ns(
        out,
        "metrics.render_prometheus_us",
        probe(20.0, || {
            black_box(node_registry.render_prometheus());
        }),
    );

    let members = crate::corpus::members(seed, 64);
    let fresh_chain = || {
        Chain::new(ChainConfig {
            tree_depth: 10,
            ..ChainConfig::default()
        })
    };
    let per_block = probe_with(5, fresh_chain, |mut chain| {
        for member in &members {
            let address = Address::from_seed(&member.address_seed.to_le_bytes());
            chain.fund(address, 10 * ETHER);
            chain.submit(
                address,
                TxKind::Register {
                    commitment: member.identity.commitment(),
                },
                100,
            );
        }
        chain.mine_block();
        assert_eq!(chain.contract().len(), 64);
    });
    emit_ns(out, "chain.register_mine_us", per_block / 64.0);

    let slasher_address = Address::from_seed(b"slasher");
    let one_member = || {
        let mut chain = fresh_chain();
        let address = Address::from_seed(b"victim");
        chain.fund(address, 10 * ETHER);
        chain.fund(slasher_address, 10 * ETHER);
        chain.submit(
            address,
            TxKind::Register {
                commitment: members[0].identity.commitment(),
            },
            100,
        );
        chain.mine_block();
        chain
    };
    let flow = probe_with(5, one_member, |mut chain| {
        let mut slasher = Slasher::new(slasher_address, 100, true);
        slasher.start(members[0].identity.secret(), &mut chain);
        chain.mine_block();
        slasher.advance(&mut chain);
        chain.mine_block();
        assert!(slasher.advance(&mut chain) > 0, "the reveal pays out");
    });
    emit_ns(out, "chain.slash_commit_reveal_us", flow);
}

/// The layers around the relay corpus: key ceremony, nullifier log,
/// segment log, validator edge paths, group sync.
pub fn relay_side(fx: &RelayFixture, scratch: &Scratch, seed: u64, out: &mut Metrics) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6B65_7967);
    let started = Instant::now();
    black_box(RlnProver::keygen(20, &mut rng));
    emit_ns(
        out,
        "rln.keygen_d20_ms",
        started.elapsed().as_nanos() as f64,
    );
    emit_ns(
        out,
        "rln.prove_message_d10_ms",
        median(
            &fx.corpus
                .prove_ns
                .iter()
                .map(|&ns| ns as f64)
                .collect::<Vec<_>>(),
        ),
    );

    let now = BASE_SECS;
    let epoch = now / EPOCH_SECS;
    let honest: Vec<&RlnMessageBundle> = fx.corpus.honest.iter().map(|m| &m.bundle).collect();

    // One bad proof in a batch of 64: the price of bisection.
    let pvk = PreparedVerifyingKey::from(fx.prover.proving_key().vk.clone());
    let mut poisoned: Vec<RlnMessageBundle> = honest.iter().map(|b| (*b).clone()).collect();
    poisoned[41].payload[0] ^= 1;
    let proofs: Vec<_> = poisoned.iter().map(|b| b.proof).collect();
    let inputs: Vec<Vec<Fr>> = poisoned
        .iter()
        .map(|b| b.public_inputs().to_vec())
        .collect();
    emit_ns(
        out,
        "snark.isolate_1of64_ms",
        probe_with(
            2,
            || (),
            |()| assert_eq!(pvk.verify_batch_isolating(&proofs, &inputs), Ok(vec![41])),
        ),
    );
    let validator =
        || MessageValidator::new(fx.verifier.clone(), EpochManager::new(EPOCH_SECS), THR);
    emit_ns(
        out,
        "rlnrelay.flush64_1bad_ms",
        probe_with(
            2,
            || {
                (
                    BatchingValidator::new(validator(), batch64()),
                    poisoned.clone(),
                )
            },
            |(mut queue, bundles)| {
                let rejected = bundles
                    .into_iter()
                    .flat_map(|b| queue.enqueue(b, &fx.group, now))
                    .filter(|d| d.outcome == Outcome::InvalidProof)
                    .count();
                assert_eq!(rejected, 1);
            },
        ),
    );
    let mut stale = honest[0].clone();
    stale.epoch = epoch - STALE_GAP;
    let mut edge = validator();
    emit_ns(
        out,
        "rlnrelay.precheck_reject_ns",
        probe(10.0, || {
            black_box(edge.validate(&stale, &fx.group, now));
        }),
    );
    // Replaying the chain's 67 registrations into a fresh depth-10 view.
    let mut service = fx.fresh_service(None).expect("relay fixture reopens");
    let members = service.node().group().member_count() as f64;
    emit_ns(
        out,
        "rlnrelay.group_sync_per_member_us",
        probe_with(
            5,
            || GroupManager::new(fx.spec.depth),
            |mut group| {
                group.sync(service.chain());
            },
        ) / members,
    );
    service.step(now).expect("step");
    drop(service);

    let mut store = NullifierStore::new(THR);
    store.advance_to(epoch);
    for bundle in &honest {
        store.check_bundle(bundle);
    }
    let snapshot_path = scratch.dir("probe-nullifiers.snap");
    emit_ns(
        out,
        "rln.snapshot_save_us",
        probe(30.0, || {
            save_snapshot(&snapshot_path, &store.snapshot()).expect("scratch snapshot");
        }),
    );
    let mut clock = epoch;
    emit_ns(
        out,
        "rln.nullifier_advance_ns",
        probe(5.0, || {
            clock += 1;
            store.advance_to(clock);
        }),
    );

    let log_dir = scratch.dir("probe-log");
    let _ = std::fs::remove_dir_all(&log_dir);
    let mut log = SegmentLog::open(log_dir, SegmentConfig::default()).expect("scratch log");
    let message = |i: u64| {
        WakuMessage::new(
            honest[(i % 64) as usize].payload.clone(),
            "/waku-perf/1/probe/proto",
            i,
        )
    };
    for i in 0..1024 {
        log.append(message(i)).expect("append");
    }
    let mut i = 1024;
    emit_ns(
        out,
        "relay.segment_flush_us",
        probe(30.0, || {
            i += 1;
            log.append(message(i)).expect("append");
            log.flush().expect("flush");
        }),
    );
    let query = HistoryQuery {
        page_size: 20,
        direction: Direction::Backward,
        ..HistoryQuery::default()
    };
    emit_ns(
        out,
        "relay.store_query_page_us",
        probe(30.0, || {
            black_box(StorageBackend::query(&log, &query));
        }),
    );
}

/// The gossip engine: the E6 scenario with and without its validator,
/// and the engine's hottest cache.
pub fn gossip_side(seed: u64, verify_single_ms: f64, out: &mut Metrics, findings: &mut Findings) {
    let timed = |defense: Defense| {
        let config = e6_config(seed, defense);
        // Best of two: the first run of a process also pays its page
        // faults and the pool's thread start.
        (0..2)
            .map(|_| {
                let started = Instant::now();
                let (report, engine) = run_sim(&config);
                (started.elapsed().as_secs_f64(), report, engine)
            })
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .expect("two runs")
    };
    let (rln_s, report, engine) = timed(E6_RLN);
    let (none_s, none_report, _) = timed(Defense::None);
    out.insert(
        "gossip.ns_per_event",
        rln_s * 1e9 / report.events_processed as f64,
    );
    out.insert("gossip.events", report.events_processed as f64);
    out.insert("gossip.barriers", engine.barriers as f64);
    out.insert(
        "gossip.none_events_per_s",
        none_report.events_processed as f64 / none_s,
    );
    out.insert("sim.validator_share", 1.0 - none_s / rln_s);

    // Separation: the sim validator cannot be calling Groth16. Not
    // observable from outside the program directly, so bound it: even if
    // the whole run were validation, each call got a small fraction of
    // one pairing check.
    let per_validation_ms = rln_s * 1e3 / report.validations as f64;
    if per_validation_ms > verify_single_ms / 100.0 {
        findings.gates.push(format!(
            "sim_e6_1k: {per_validation_ms:.4} ms per validation is not far below one Groth16 verify ({verify_single_ms:.2} ms)"
        ));
    }

    let mut rng = StdRng::seed_from_u64(seed ^ 0x7365_656E);
    let ids: Vec<MessageId> = (0..4096).map(|_| MessageId(rng.gen())).collect();
    let mut seen = SeenSet::new(8);
    for id in &ids {
        seen.insert(id);
    }
    let mut at = 0;
    emit_ns(
        out,
        "gossip.seen_set_probe_ns",
        probe(10.0, || {
            at = (at + 1) % ids.len();
            black_box(seen.contains(&ids[at]));
        }),
    );
}
