//! The paper's evaluation tables in one run (≈ 12 s): the deterministic
//! ones of `docs/FIGURES.md` (E3 key sizes, E4 identity-tree storage, E5
//! membership gas, E8 the slashing race, E10 baseline cost asymmetries,
//! E7 the epoch-gap threshold, E6 spam containment and its 1 000-peer
//! counts; rendered by `waku_bench::figures`), then the Merkle-operation
//! overhead §IV-A lists as future work.
//!
//! ```text
//! exp_paper_tables [--check]
//! ```
//!
//! Everything but the Merkle timings is a pure function of the code and a
//! fixed seed. `--check` asserts those cells instead of only printing
//! them, and that `docs/FIGURES.md` is their render (exit 2 on a breach;
//! CI runs it).

use std::process::ExitCode;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use waku_arith::fields::Fr;
use waku_arith::traits::Field;
use waku_bench::figures::{self, Checks, HEADER};
use waku_bench::{fmt_duration, run_cli, time_mean};
use waku_merkle::{DenseTree, FrontierTree, PartialViewTree, TreeUpdate};

const USAGE: &str = "exp_paper_tables [--check]";

/// The committed render the `--check` run compares with.
const FIGURES_MD: &str = include_str!("../../../../docs/FIGURES.md");

/// Merkle-tree operation overhead — the measurement the paper lists as
/// future work ("Evaluating Merkle tree computation overhead", §IV-A).
/// Wall-clock, so printed and never asserted.
fn merkle_ops() {
    println!("# Merkle tree computation overhead (paper future work, §IV-A)");
    println!();
    println!("| depth | dense insert | dense proof | frontier append | partial-view update | full rebuild (1k leaves) |");
    println!("|---|---|---|---|---|---|");

    for depth in [10usize, 16, 20] {
        let mut rng = StdRng::seed_from_u64(depth as u64);

        let mut dense = DenseTree::new(depth);
        for i in 0..256u64 {
            dense.set(i, Fr::random(&mut rng));
        }
        let insert = time_mean(200, || {
            dense.set(128, Fr::random(&mut rng));
        });
        let proof = time_mean(200, || {
            let _ = dense.proof(57);
        });

        let mut frontier = FrontierTree::new(depth);
        let append = time_mean(200, || {
            if frontier.len() >= 1 << 9 {
                frontier = FrontierTree::new(depth);
            }
            frontier.append(Fr::random(&mut rng)).unwrap();
        });

        let mut view = PartialViewTree::new(5, dense.leaf(5), dense.proof(5));
        let update = time_mean(200, || {
            let j = rng.gen_range(6..256u64);
            let leaf = Fr::random(&mut rng);
            dense.set(j, leaf);
            view.apply_update(&TreeUpdate {
                index: j,
                new_leaf: leaf,
                path: dense.proof(j),
            })
            .unwrap();
        });

        let rebuild_start = Instant::now();
        let mut rebuilt = DenseTree::new(depth);
        let leaves: Vec<Fr> = (0..1000.min(rebuilt.capacity()))
            .map(|_| Fr::random(&mut rng))
            .collect();
        rebuilt.set_batch(0, &leaves);
        let rebuild = rebuild_start.elapsed();

        println!(
            "| {depth} | {} | {} | {} | {} | {} |",
            fmt_duration(insert),
            fmt_duration(proof),
            fmt_duration(append),
            fmt_duration(update),
            fmt_duration(rebuild),
        );
    }

    println!();
    println!("shape: inserts/appends are O(depth) Poseidon hashes; proofs are O(depth) reads;");
    println!("batch rebuilds amortize interior hashing across adjacent leaves.");
}

fn main() -> ExitCode {
    run_cli(USAGE, |cli| {
        let check = cli.switch("--check");
        let mut checks = Checks::new();
        let figures = figures::render(&mut checks, check);
        print!("{figures}");
        println!();
        merkle_ops();
        if !check {
            return Ok(ExitCode::SUCCESS);
        }
        checks.push((
            "docs/FIGURES.md is the render above".to_string(),
            FIGURES_MD == format!("{HEADER}{figures}"),
        ));

        println!();
        let mut ok = true;
        for (what, holds) in checks {
            println!("check: {what}: {}", if holds { "ok" } else { "FAILED" });
            ok &= holds;
        }
        Ok(ExitCode::from(if ok { 0 } else { 2 }))
    })
}
