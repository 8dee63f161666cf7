//! The three ladders: for one operation of `publish_d20`, `relay_single`
//! and `relay_batch64`, every public entry point from the service call
//! down to the curve arithmetic, driven directly with the identical
//! inputs and recorded as spans with a *declared* parent. A rung's self
//! time is its duration minus the rungs that declare it as their parent;
//! the ladder reconciles when the self times add back up to the
//! top-level span (see [`crate::stats::unexplained_pct`]).
//!
//! The rungs' medians are also most of the per-layer metrics: every one is
//! the harness timing a public call on the workload's own inputs.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use waku_arith::fields::Fr;
use waku_arith::traits::Field;
use waku_chain::{Address, Chain, ChainConfig, ETHER};
use waku_curve::msm::{msm, msm_chunked};
use waku_curve::pairing::{final_exponentiation, miller_loop_mixed, G2Prepared};
use waku_curve::{G1Affine, G2Affine};
use waku_node::{RelayerService, ServiceError};
use waku_relay::{SegmentConfig, SegmentLog, StorageBackend, WakuMessage};
use waku_rln::circuit::build_for_setup;
use waku_rln::{
    derive, external_nullifier, message_hash, NullifierStore, RateCheck, RlnMessageBundle,
};
use waku_rln_relay::{
    BatchingValidator, EpochManager, MessageValidator, Outcome, WakuRlnRelayNode,
};
use waku_snark::groth16::{prove, PreparedVerifyingKey};
use waku_snark::qap::quotient_poly_checked;
use waku_snark::WitnessSolver;

use crate::corpus::{BASE_SECS, EPOCH_SECS, THR};
use crate::fixtures::{batch64, load_keys, service_config, RelayFixture, Scratch};
use crate::stats::{median, self_times, unexplained_pct, Rung};
use crate::trace::Tracer;

/// Per-layer metric values collected so far: `name → value` in the unit
/// the name's suffix states.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What the per-layer pass found wrong, kept apart by kind: `wrong` is a
/// program output that differs from the oracle; `gates` is a ladder that
/// does not reconcile or a layer separation that does not hold — a
/// statement about the measurement, which only `trace` fails on.
#[derive(Default)]
pub struct Findings {
    /// Outputs that differ from the oracle.
    pub wrong: Vec<String>,
    /// Reconciliation and separation checks that did not hold.
    pub gates: Vec<String>,
}

/// Stores a nanosecond figure under `name`, scaled to the unit the name's
/// suffix states (`_ns`, `_us`, `_ms`).
pub fn emit_ns(out: &mut Metrics, name: &'static str, ns: f64) {
    let scale = match name.rsplit('_').next() {
        Some("ns") => 1.0,
        Some("us") => 1e3,
        Some("ms") => 1e6,
        other => panic!("metric {name} has no time-unit suffix ({other:?})"),
    };
    out.insert(name, ns / scale);
}

/// Records the rungs of one ladder, operation by operation.
struct Ladder<'t> {
    tracer: &'t mut Tracer,
    name: &'static str,
    /// The rungs of every operation, as measured.
    ops: BTreeMap<u64, Vec<Rung>>,
    /// Durations (ns) of the spans recorded beside the ladder, by name.
    asides: BTreeMap<&'static str, Vec<f64>>,
    /// Span ids of the current operation's rungs.
    ids: BTreeMap<&'static str, u32>,
}

/// A finished ladder: every rung at its median duration over the
/// ladder's operations (a burst of interference hits one rung of one
/// operation; the median steps over it), and the self times and the
/// reconciliation computed from those medians.
struct Reconciled {
    /// Rung → duration, ns.
    dur: BTreeMap<&'static str, f64>,
    /// Rung → self time, ns.
    own: BTreeMap<&'static str, f64>,
    /// Span beside the ladder → duration, ns.
    aside: BTreeMap<&'static str, f64>,
    /// Share of the top-level rung the ladder does not account for.
    unexplained_pct: f64,
}

impl<'t> Ladder<'t> {
    fn new(tracer: &'t mut Tracer, name: &'static str) -> Self {
        tracer.enabled = true;
        Ladder {
            tracer,
            name,
            ops: BTreeMap::new(),
            asides: BTreeMap::new(),
            ids: BTreeMap::new(),
        }
    }

    /// Times `f` as rung `rung` of operation `op`, nested under `parent`.
    fn rung<R>(
        &mut self,
        rung: &'static str,
        parent: Option<&'static str>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        self.timed(rung, parent, false, op, f)
    }

    /// A rung the program runs as a pool task beside its siblings.
    fn pool_task<R>(
        &mut self,
        rung: &'static str,
        parent: &'static str,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        self.timed(rung, Some(parent), true, op, f)
    }

    fn timed<R>(
        &mut self,
        rung: &'static str,
        parent: Option<&'static str>,
        concurrent: bool,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let started = Instant::now();
        let result = f();
        let ended = Instant::now();
        let parent_id = parent.and_then(|p| self.ids.get(p).copied());
        if let Some(id) = self
            .tracer
            .record(self.name, rung, parent_id, op, started, ended)
        {
            self.ids.insert(rung, id);
        }
        self.ops.entry(op).or_default().push(Rung {
            name: rung,
            parent,
            concurrent,
            dur_ns: ended.duration_since(started).as_nanos() as f64,
        });
        result
    }

    /// A span beside the ladder (same recorder, not part of the nesting).
    fn aside<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let result = f();
        let ended = Instant::now();
        self.tracer
            .record(self.name, name, None, op, started, ended);
        self.asides
            .entry(name)
            .or_default()
            .push(ended.duration_since(started).as_nanos() as f64);
        result
    }

    /// Stops recording, reconciles the ladder and prints it.
    fn finish(self) -> Reconciled {
        self.tracer.enabled = false;
        let ops: Vec<&Vec<Rung>> = self.ops.values().collect();
        let rungs: Vec<Rung> = ops[0]
            .iter()
            .enumerate()
            .map(|(i, rung)| {
                assert!(ops.iter().all(|op| op[i].name == rung.name));
                Rung {
                    dur_ns: median(&ops.iter().map(|op| op[i].dur_ns).collect::<Vec<_>>()),
                    ..rung.clone()
                }
            })
            .collect();
        let done = Reconciled {
            dur: rungs.iter().map(|r| (r.name, r.dur_ns)).collect(),
            own: self_times(&rungs),
            aside: self
                .asides
                .iter()
                .map(|(name, ns)| (*name, median(ns)))
                .collect(),
            unexplained_pct: unexplained_pct(&rungs),
        };
        println!(
            "## {} — {} operations, {:.1} % of the top-level span unexplained",
            self.name,
            ops.len(),
            done.unexplained_pct
        );
        for rung in &rungs {
            println!(
                "{:<28} {:>12.4} ms   self {:>12.4} ms   {}{}",
                rung.name,
                rung.dur_ns / 1e6,
                done.own[rung.name] / 1e6,
                rung.parent.map_or("top".to_string(), |p| format!("in {p}")),
                if rung.concurrent { " (pool task)" } else { "" }
            );
        }
        for (name, ns) in &done.aside {
            println!("{name:<28} {:>12.4} ms   beside the ladder", ns / 1e6);
        }
        println!();
        done
    }
}

fn pvk_of(fx_vk: &waku_snark::VerifyingKey) -> (PreparedVerifyingKey, G2Prepared, G2Prepared) {
    (
        PreparedVerifyingKey::from(fx_vk.clone()),
        G2Prepared::new(&fx_vk.gamma_g2),
        G2Prepared::new(&fx_vk.delta_g2),
    )
}

/// `publish_d20`: `RelayerService::publish` ⊃ `WakuRlnRelayNode::publish`
/// ⊃ `RlnProver::prove_message` ⊃ {witness solve, `groth16::prove` ⊃
/// {four MSMs, `quotient_poly_checked`}}.
///
/// The prover runs its three query MSMs and the quotient pipeline (with
/// the fused L+H MSM) as concurrent pool tasks, so those five rungs are
/// declared a concurrent group: `prove` must lie between the group's
/// longest chain and its sum, not equal the sum.
pub fn publish_ladder(
    scratch: &Scratch,
    seed: u64,
    tracer: &mut Tracer,
    out: &mut Metrics,
    findings: &mut Findings,
) -> Result<(), ServiceError> {
    const DEPTH: usize = 20;
    const OPS: u64 = 5;
    let dir = scratch.dir("ladder-publish");
    let _ = std::fs::remove_dir_all(&dir);

    let started = Instant::now();
    let mut service = RelayerService::open(service_config(&dir, DEPTH, None, seed))?;
    emit_ns(
        out,
        "node.open_cold_d20_ms",
        started.elapsed().as_nanos() as f64,
    );
    let started = Instant::now();
    let (prover, verifier) = load_keys(&dir, DEPTH);
    emit_ns(
        out,
        "rln.keycache_load_d20_ms",
        started.elapsed().as_nanos() as f64,
    );
    service.step(BASE_SECS)?;

    // The rungs below the service drive their own node on their own
    // chain: same depth, same keys, same payload and epoch.
    let prover = Arc::new(prover);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6C61_6464);
    let node_config = service_config(&dir, DEPTH, None, seed).node;
    let mut chain = Chain::new(ChainConfig {
        tree_depth: DEPTH,
        ..ChainConfig::default()
    });
    let address = Address::from_seed(b"publish-ladder");
    chain.fund(address, 100 * ETHER);
    let mut node = WakuRlnRelayNode::new(
        node_config,
        address,
        Arc::clone(&prover),
        verifier,
        &mut rng,
    );
    node.register(&mut chain);
    chain.mine_block();
    node.sync(&mut chain);
    let identity = node.identity().clone();
    let path = node.group().own_path().expect("registered and synced");
    let template = build_for_setup(DEPTH);
    let solver = WitnessSolver::analyze(&template);
    let pk = prover.proving_key();

    let mut ladder = Ladder::new(tracer, "ladder.publish_d20");
    for op in 0..OPS {
        let now = BASE_SECS + (op + 1) * EPOCH_SECS;
        let epoch = now / EPOCH_SECS;
        let mut payload = vec![0u8; 128];
        rng.fill(&mut payload[..]);

        ladder.aside("node.step", op, || service.step(now))?;
        ladder.rung("node.publish", None, op, || {
            service.publish(&payload, now, &mut rng)
        })?;
        ladder
            .rung("rlnrelay.node_publish", Some("node.publish"), op, || {
                node.publish(&payload, now, &mut rng)
            })
            .expect("registered node publishes");
        ladder
            .rung(
                "rln.prove_message",
                Some("rlnrelay.node_publish"),
                op,
                || prover.prove_message(&identity, &path, &payload, epoch, &mut rng),
            )
            .expect("satisfiable");

        let cs = ladder.rung("snark.witness_solve", Some("rln.prove_message"), op, || {
            let x = message_hash(&payload);
            let ext = external_nullifier(epoch);
            let (_, phi, y) = derive(identity.secret(), ext, x);
            let root = path.compute_root(identity.commitment());
            let mut cs = template.clone();
            for (k, v) in [x, ext, root, y, phi].into_iter().enumerate() {
                cs.set_instance_value(k + 1, v);
            }
            let mut free = Vec::with_capacity(1 + 2 * DEPTH);
            free.push(identity.secret());
            for (level, sibling) in path.siblings.iter().enumerate() {
                let bit = (path.index >> level) & 1 == 1;
                free.push(if bit { Fr::one() } else { Fr::zero() });
                free.push(*sibling);
            }
            solver.solve(&mut cs, &free);
            cs
        });
        ladder
            .rung("snark.prove", Some("rln.prove_message"), op, || {
                prove(pk, &cs, &mut rng)
            })
            .expect("satisfied");

        let z = cs.full_assignment();
        let witness = &z[cs.num_instance()..];
        let under = "snark.prove";
        black_box(ladder.pool_task("curve.msm_a", under, op, || msm(&pk.a_query, &z)));
        black_box(ladder.pool_task("curve.msm_b_g2", under, op, || msm(&pk.b_g2_query, &z)));
        black_box(ladder.pool_task("curve.msm_b_g1", under, op, || msm(&pk.b_g1_query, &z)));
        let h = ladder
            .pool_task("snark.quotient", under, op, || quotient_poly_checked(&cs))
            .expect("satisfied");
        black_box(ladder.pool_task("curve.msm_lh", under, op, || {
            msm_chunked(&[(&pk.l_query[..], witness), (&pk.h_query[..], &h)])
        }));
    }

    let done = ladder.finish();
    emit_ns(out, "node.publish_self_ms", done.own["node.publish"]);
    emit_ns(
        out,
        "rln.prove_message_d20_ms",
        done.dur["rln.prove_message"],
    );
    emit_ns(
        out,
        "snark.witness_solve_d20_ms",
        done.dur["snark.witness_solve"],
    );
    emit_ns(out, "snark.prove_d20_ms", done.dur["snark.prove"]);
    emit_ns(out, "curve.msm_g1_d20_ms", done.dur["curve.msm_a"]);
    emit_ns(out, "curve.msm_g2_d20_ms", done.dur["curve.msm_b_g2"]);
    emit_ns(out, "curve.msm_b1_d20_ms", done.dur["curve.msm_b_g1"]);
    emit_ns(out, "curve.msm_lh_d20_ms", done.dur["curve.msm_lh"]);
    emit_ns(out, "snark.quotient_d20_ms", done.dur["snark.quotient"]);
    out.insert("ladder.publish_d20.unexplained_pct", done.unexplained_pct);

    // Separation: the publisher workload is the prover stack.
    let timed = done.aside["node.step"] + done.dur["node.publish"];
    let share = done.dur["rln.prove_message"] / timed;
    out.insert("ladder.publish_d20.prove_share_pct", share * 100.0);
    if share < 0.9 {
        findings.gates.push(format!(
            "publish_d20: only {:.1}% of step+publish is under rln.prove_message (want ≥ 90%)",
            share * 100.0
        ));
    }
    Ok(())
}

fn aggregate_ic(vk: &waku_snark::VerifyingKey, inputs: &[Fr]) -> G1Affine {
    let mut ic = vk.ic[0].to_projective();
    for (input, base) in inputs.iter().zip(vk.ic[1..].iter()) {
        ic = ic.add(&base.mul(*input));
    }
    ic.to_affine()
}

const TOPIC: &str = "/waku-perf/1/ladder/proto";

fn ladder_log(scratch: &Scratch, name: &str) -> SegmentLog {
    let dir = scratch.dir(name);
    let _ = std::fs::remove_dir_all(&dir);
    SegmentLog::open(dir, SegmentConfig::default()).expect("scratch segment log")
}

/// `relay_single`: `RelayerService::ingest` ⊃ {`MessageValidator::validate`
/// ⊃ {`RlnVerifier::verify_bundle` ⊃ `PreparedVerifyingKey::verify` ⊃
/// {3-pair Miller loop, final exponentiation}, `NullifierStore::
/// check_bundle`}, `SegmentLog::append`}.
pub fn relay_single_ladder(
    fx: &RelayFixture,
    scratch: &Scratch,
    tracer: &mut Tracer,
    out: &mut Metrics,
    findings: &mut Findings,
) -> Result<(), ServiceError> {
    const OPS: usize = 16;
    let now = BASE_SECS;
    let epoch = now / EPOCH_SECS;
    let vk = &fx.prover.proving_key().vk;
    let (pvk, gamma, delta) = pvk_of(vk);
    let mut service = fx.fresh_service(None)?;
    let mut validator =
        MessageValidator::new(fx.verifier.clone(), EpochManager::new(EPOCH_SECS), THR);
    let mut store = NullifierStore::new(THR);
    store.advance_to(epoch);
    let mut log = ladder_log(scratch, "ladder-single-log");

    let mut ladder = Ladder::new(tracer, "ladder.relay_single");
    let mut wrong = 0;
    for (op, message) in fx.corpus.honest.iter().take(OPS).enumerate() {
        let op = op as u64;
        let bundle = &message.bundle;
        let input = bundle.clone();
        let decisions = ladder.rung("node.ingest", None, op, || service.ingest(input, now))?;
        wrong += usize::from(decisions.len() != 1 || decisions[0].outcome != Outcome::Relay);

        let outcome = ladder.rung("rlnrelay.validate", Some("node.ingest"), op, || {
            validator.validate(bundle, &fx.group, now)
        });
        wrong += usize::from(outcome != Outcome::Relay);
        let ok = ladder.rung("rln.verify_bundle", Some("rlnrelay.validate"), op, || {
            fx.verifier.verify_bundle(bundle)
        });
        let inputs = bundle.public_inputs().to_vec();
        let ok2 = ladder
            .rung("snark.verify", Some("rln.verify_bundle"), op, || {
                pvk.verify(&bundle.proof, &inputs)
            })
            .expect("input arity matches");
        wrong += usize::from(!ok || !ok2);

        let ic = aggregate_ic(vk, &inputs);
        let ml = ladder.rung("curve.miller_loop_3", Some("snark.verify"), op, || {
            miller_loop_mixed(
                &[(bundle.proof.a.neg(), bundle.proof.b)],
                &[(ic, &gamma), (bundle.proof.c, &delta)],
            )
        });
        let fe = ladder.rung("curve.final_exp", Some("snark.verify"), op, || {
            final_exponentiation(&ml)
        });
        wrong += usize::from(fe.is_none());

        let rate = ladder.rung("rln.nullifier_check", Some("rlnrelay.validate"), op, || {
            store.check_bundle(bundle)
        });
        wrong += usize::from(rate != RateCheck::Fresh);
        ladder
            .rung("relay.segment_append", Some("node.ingest"), op, || {
                log.append(WakuMessage::new(
                    bundle.payload.clone(),
                    TOPIC,
                    bundle.epoch * EPOCH_SECS,
                ))
            })
            .expect("append to scratch log");
    }
    if wrong > 0 {
        findings.wrong.push(format!(
            "relay_single ladder: {wrong} rung results were wrong"
        ));
    }
    if service.node().metrics().published != 0 {
        findings
            .wrong
            .push("relay_single ladder: the relaying service called its prover".into());
    }

    let done = ladder.finish();
    emit_ns(out, "node.ingest_self_us", done.own["node.ingest"]);
    emit_ns(
        out,
        "rlnrelay.validate_single_ms",
        done.dur["rlnrelay.validate"],
    );
    emit_ns(out, "rln.verify_bundle_ms", done.dur["rln.verify_bundle"]);
    emit_ns(out, "snark.verify_single_ms", done.dur["snark.verify"]);
    emit_ns(
        out,
        "curve.miller_loop_3_ms",
        done.dur["curve.miller_loop_3"],
    );
    emit_ns(out, "curve.final_exp_ms", done.dur["curve.final_exp"]);
    emit_ns(
        out,
        "rln.nullifier_check_ns",
        done.dur["rln.nullifier_check"],
    );
    emit_ns(
        out,
        "relay.segment_append_us",
        done.dur["relay.segment_append"],
    );
    out.insert("ladder.relay_single.unexplained_pct", done.unexplained_pct);
    Ok(())
}

/// `relay_batch64`: 64 × `RelayerService::ingest` ⊃ {64 ×
/// `BatchingValidator::enqueue` ⊃ {`RlnVerifier::verify_batch` ⊃
/// `PreparedVerifyingKey::verify_batch` ⊃ {66-pair Miller loop, final
/// exponentiation}, 64 × `check_bundle`}, 64 × `SegmentLog::append`}.
/// The service life cycle around the top rung (`open`, `step`,
/// `checkpoint`, `shutdown`) is recorded beside it.
pub fn relay_batch_ladder(
    fx: &RelayFixture,
    scratch: &Scratch,
    tracer: &mut Tracer,
    out: &mut Metrics,
    findings: &mut Findings,
) -> Result<(), ServiceError> {
    const OPS: u64 = 9;
    let now = BASE_SECS;
    let epoch = now / EPOCH_SECS;
    let vk = &fx.prover.proving_key().vk;
    let (pvk, gamma, delta) = pvk_of(vk);
    let bundles: Vec<&RlnMessageBundle> = fx.corpus.honest.iter().map(|m| &m.bundle).collect();
    let n = bundles.len();
    let proofs: Vec<_> = bundles.iter().map(|b| b.proof).collect();
    let inputs: Vec<Vec<Fr>> = bundles.iter().map(|b| b.public_inputs().to_vec()).collect();
    let mut pairs: Vec<(G1Affine, G2Affine)> = proofs.iter().map(|p| (p.a.neg(), p.b)).collect();
    pairs.truncate(64);
    let mut enqueue_ns = Vec::new();

    let mut ladder = Ladder::new(tracer, "ladder.relay_batch64");
    let mut wrong = 0;
    for op in 0..OPS {
        fx.wipe_state();
        let mut service = ladder.aside("node.open_warm", op, || fx.open(Some(batch64())))?;
        fx.register_all(&mut service)?;
        ladder.aside("node.step", op, || service.step(now))?;
        let copies: Vec<RlnMessageBundle> = bundles.iter().map(|b| (*b).clone()).collect();
        let decided = ladder.rung("node.ingest_x64", None, op, || {
            let mut decided = 0;
            for bundle in copies {
                decided += service.ingest(bundle, now)?.len();
            }
            Ok::<_, ServiceError>(decided)
        })?;
        wrong += usize::from(decided != n);
        ladder.aside("node.checkpoint", op, || service.checkpoint(now))?;
        if service.node().metrics().published != 0 {
            findings
                .wrong
                .push("relay_batch64 ladder: the relaying service called its prover".into());
        }
        ladder.aside("node.shutdown", op, || service.shutdown(now))?;

        let mut queue = BatchingValidator::new(
            MessageValidator::new(fx.verifier.clone(), EpochManager::new(EPOCH_SECS), THR),
            batch64(),
        );
        let copies: Vec<RlnMessageBundle> = bundles.iter().map(|b| (*b).clone()).collect();
        let relayed = ladder.rung("rlnrelay.enqueue_x64", Some("node.ingest_x64"), op, || {
            let started = Instant::now();
            let mut relayed = 0;
            for (i, bundle) in copies.into_iter().enumerate() {
                if i == n - 1 {
                    enqueue_ns.push(started.elapsed().as_nanos() as f64 / (n - 1) as f64);
                }
                relayed += queue
                    .enqueue(bundle, &fx.group, now)
                    .iter()
                    .filter(|d| d.outcome == Outcome::Relay)
                    .count();
            }
            relayed
        });
        wrong += usize::from(relayed != n);

        let ok = ladder.rung("rln.verify_batch", Some("rlnrelay.enqueue_x64"), op, || {
            fx.verifier.verify_batch(&bundles)
        });
        let ok2 = ladder
            .rung("snark.verify_batch", Some("rln.verify_batch"), op, || {
                pvk.verify_batch(&proofs, &inputs)
            })
            .expect("input arity matches");
        wrong += usize::from(!ok || !ok2);
        let ml = ladder.rung(
            "curve.miller_loop_66",
            Some("snark.verify_batch"),
            op,
            || miller_loop_mixed(&pairs, &[(vk.ic[0], &gamma), (proofs[0].c, &delta)]),
        );
        black_box(
            ladder.rung("curve.final_exp", Some("snark.verify_batch"), op, || {
                final_exponentiation(&ml)
            }),
        );

        let mut store = NullifierStore::new(THR);
        store.advance_to(epoch);
        let fresh = ladder.rung(
            "rln.nullifier_check_x64",
            Some("rlnrelay.enqueue_x64"),
            op,
            || {
                bundles
                    .iter()
                    .filter(|b| store.check_bundle(b) == RateCheck::Fresh)
                    .count()
            },
        );
        wrong += usize::from(fresh != n);
        let mut log = ladder_log(scratch, "ladder-batch-log");
        ladder
            .rung(
                "relay.segment_append_x64",
                Some("node.ingest_x64"),
                op,
                || {
                    bundles.iter().try_for_each(|b| {
                        log.append(WakuMessage::new(
                            b.payload.clone(),
                            TOPIC,
                            b.epoch * EPOCH_SECS,
                        ))
                    })
                },
            )
            .expect("append to scratch log");
    }
    if wrong > 0 {
        findings.wrong.push(format!(
            "relay_batch64 ladder: {wrong} rung results were wrong"
        ));
    }

    let done = ladder.finish();
    emit_ns(out, "rlnrelay.flush64_ms", done.dur["rlnrelay.enqueue_x64"]);
    emit_ns(out, "rlnrelay.enqueue_ns", median(&enqueue_ns));
    emit_ns(out, "rln.verify_batch64_ms", done.dur["rln.verify_batch"]);
    emit_ns(
        out,
        "snark.verify_batch64_ms",
        done.dur["snark.verify_batch"],
    );
    emit_ns(
        out,
        "curve.miller_loop_66_ms",
        done.dur["curve.miller_loop_66"],
    );
    emit_ns(out, "node.open_warm_ms", done.aside["node.open_warm"]);
    emit_ns(out, "node.step_us", done.aside["node.step"]);
    emit_ns(out, "node.checkpoint_ms", done.aside["node.checkpoint"]);
    emit_ns(out, "node.shutdown_ms", done.aside["node.shutdown"]);
    out.insert("ladder.relay_batch64.unexplained_pct", done.unexplained_pct);
    Ok(())
}
