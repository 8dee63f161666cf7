//! Batched-verification throughput and prover cold-start experiment.
//!
//! Default mode prints three markdown tables:
//!
//! * batched (RLC) verification across batch sizes, with the per-proof
//!   amortized time and the speedup over single-proof verification (the
//!   median of one pass over 64 distinct proofs, the unit both tables
//!   use) — the gain comes from collapsing N pairing stacks into one
//!   multi-Miller-loop + one final exponentiation;
//! * what junk proofs in a 64-flush cost the relayer, in single
//!   verifications, next to the work count `RlnVerifier::isolate` returns;
//! * cold-start cost at depth 32: fresh keygen vs `keygen_or_load` from
//!   a warm on-disk cache (the <100 ms target), the median of
//!   `WARM_LOADS` loads.
//!
//! It takes no arguments (`exp_verify_batch`).

use std::process::ExitCode;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use waku_bench::{fmt_duration, median_of, run_cli, sparse_single_member_path};
use waku_rln::{Identity, RlnMessageBundle, RlnProver};

const TABLE_DEPTH: usize = 10;
const COLD_START_DEPTH: usize = 32;
/// Cache loads the warm row takes the median of: one load swings by a
/// factor of two from run to run.
const WARM_LOADS: usize = 7;
const USAGE: &str = "exp_verify_batch";

fn main() -> ExitCode {
    run_cli(USAGE, |_| {
        batch_table();
        cold_start_table();
        Ok(ExitCode::SUCCESS)
    })
}

fn batch_table() {
    println!("# Batched Groth16 verification (RLC fast path)");
    println!();
    let mut rng = StdRng::seed_from_u64(TABLE_DEPTH as u64);
    let (prover, verifier) = RlnProver::keygen(TABLE_DEPTH, &mut rng);
    let identity = Identity::random(&mut rng);
    let path = sparse_single_member_path(TABLE_DEPTH);
    let bundles: Vec<RlnMessageBundle> = (0..64)
        .map(|i| {
            prover
                .prove_message(&identity, &path, b"experiment message", 500 + i, &mut rng)
                .unwrap()
        })
        .collect();
    let refs: Vec<&RlnMessageBundle> = bundles.iter().collect();

    // The median of one pass over 64 distinct proofs: repeating one proof
    // trains the branch predictor on its digits and reads fast.
    let mut each = bundles.iter();
    let single = median_of(bundles.len(), || {
        let b = each.next().expect("one run a bundle");
        timed(|| assert!(verifier.verify_bundle(b)))
    });
    println!("| batch size | total | per proof | speedup vs single |");
    println!("|---|---|---|---|");
    println!(
        "| 1 (median of 64 distinct) | {} | {} | 1.00× |",
        fmt_duration(single),
        fmt_duration(single)
    );
    for n in [2usize, 4, 8, 16, 32, 64] {
        let batch = &refs[..n];
        let total = best_of(5, || assert!(verifier.verify_batch(batch)));
        let per_proof = total / n as u32;
        println!(
            "| {n} | {} | {} | {:.2}× |",
            fmt_duration(total),
            fmt_duration(per_proof),
            single.as_secs_f64() / per_proof.as_secs_f64()
        );
    }
    println!();
    println!(
        "(single-proof check: 3 Miller loops + 1 final exponentiation; a batch of N \
         costs N+3 Miller loops — amortizing the final exponentiation and the fixed \
         γ/δ/β line replays — plus a half-width scaling per proof and one 2N-term \
         MSM at 65 bits)"
    );
    println!();

    println!("# A poisoned 64-flush (find the junk, keep the rest)");
    println!();
    println!(
        "| junk proofs | total | in single verifies | per junk proof, beyond the clean \
         flush | checks after the batch check | pairs computed / replayed |"
    );
    println!("|---|---|---|---|---|---|");
    let in_singles = |d: std::time::Duration| d.as_secs_f64() / single.as_secs_f64();
    let mut clean = std::time::Duration::ZERO;
    let spread: Vec<usize> = (0..8).map(|i| 3 + 8 * i).collect();
    for junk in [&[][..], &[41], &[5, 20, 41, 60], &spread] {
        let mut poisoned = bundles.clone();
        for &i in junk {
            poisoned[i].payload[0] ^= 1;
        }
        let refs: Vec<&RlnMessageBundle> = poisoned.iter().collect();
        let work = verifier.isolate(&refs).work;
        let total = best_of(5, || assert_eq!(verifier.isolate(&refs).invalid, junk));
        let marginal = match junk.len() {
            0 => {
                clean = total;
                "—".to_string()
            }
            k => format!("{:.1}", in_singles(total.saturating_sub(clean)) / k as f64),
        };
        println!(
            "| {} | {} | {:.1} | {marginal} | {} | {} / {} |",
            junk.len(),
            fmt_duration(total),
            in_singles(total),
            work.checks,
            work.dynamic_pairs,
            work.replayed_pairs
        );
    }
    println!();
    println!(
        "(bound: ⌈log₂64⌉ + 1 = 7 checks per junk proof after the batch check, each one \
         final exponentiation + γ/δ replays + a squaring chain, and at most 64 pairs \
         computed from scratch in total; the failed check's scalars and scaled points \
         are reused, lines are recorded once and replayed, and a failing range checks \
         its left half only — the right half's value is a quotient in GT)"
    );
    println!();
}

fn cold_start_table() {
    println!("# Prover cold start at depth {COLD_START_DEPTH} (keygen vs cache)");
    println!();
    let dir = std::env::temp_dir().join(format!("waku-exp-keycache-{}", std::process::id()));
    let path = dir.join("rln-depth32.keys");
    let _ = std::fs::remove_file(&path);

    let mut rng = StdRng::seed_from_u64(32);
    let t0 = Instant::now();
    let (prover, _) = RlnProver::keygen_or_load(COLD_START_DEPTH, &path, &mut rng);
    let cold = t0.elapsed();
    let blob_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);

    let warm = median_of(WARM_LOADS, || {
        let t1 = Instant::now();
        let (warm_prover, _) = RlnProver::keygen_or_load(COLD_START_DEPTH, &path, &mut rng);
        let load = t1.elapsed();
        assert_eq!(
            warm_prover.proving_key().vk,
            prover.proving_key().vk,
            "warm start must reload the same ceremony"
        );
        load
    });

    println!("| start | time | source |");
    println!("|---|---|---|");
    println!(
        "| cold (keygen + cache write) | {} | trusted-setup simulation |",
        fmt_duration(cold)
    );
    println!(
        "| warm (cache hit, median of {WARM_LOADS}) | {} | {} blob |",
        fmt_duration(warm),
        waku_bench::fmt_bytes(blob_bytes)
    );
    println!();
    println!(
        "(warm start parses + point-validates the key and re-analyzes the witness \
         solver; speedup {:.1}×)",
        cold.as_secs_f64() / warm.as_secs_f64()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn timed(f: impl FnOnce()) -> std::time::Duration {
    let started = Instant::now();
    f();
    started.elapsed()
}

fn best_of(rounds: usize, mut f: impl FnMut()) -> std::time::Duration {
    (0..rounds)
        .map(|_| timed(&mut f))
        .min()
        .expect("rounds > 0")
}
