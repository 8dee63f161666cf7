//! E1 + E2: RLN proof generation/verification time across tree depths.
//!
//! Paper (§IV): generation ≈0.5 s for group size 2³² on an iPhone 8;
//! verification constant ≈30 ms; circuit over a Poseidon tree.
//!
//! We reproduce the *shape*: generation grows mildly with depth (the
//! circuit adds one Poseidon round trip per level), verification is
//! constant regardless of depth and group fill.
//!
//! Generation has two columns: the *first* proof on a key multiplies the
//! whole assignment against the key's queries; every later proof on an
//! unchanged authentication path (*steady state*, one new epoch per
//! message) re-multiplies only the share/nullifier wires and rolls the
//! membership half forward (`waku_snark::groth16` module docs).
//!
//! It takes no arguments (`exp_proof_times`).

use std::process::ExitCode;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use waku_bench::{fmt_duration, run_cli, sparse_single_member_path, time_mean};
use waku_rln::{Identity, RlnProver};

const USAGE: &str = "exp_proof_times";

fn main() -> ExitCode {
    run_cli(USAGE, |_| {
        proof_times();
        Ok(ExitCode::SUCCESS)
    })
}

fn proof_times() {
    println!("# E1/E2 — proof generation and verification times");
    println!();
    println!("paper reference: prove ≈0.5 s @ depth 32 (iPhone 8), verify ≈30 ms constant");
    println!();
    println!(
        "| depth | group size | keygen | first prove | steady-state prove (mean of 3) | verify (mean of 5) | constraints |"
    );
    println!("|---|---|---|---|---|---|---|");

    for depth in [10usize, 15, 20, 32] {
        let mut rng = StdRng::seed_from_u64(depth as u64);
        let t0 = Instant::now();
        let (prover, verifier) = RlnProver::keygen(depth, &mut rng);
        let keygen = t0.elapsed();

        let identity = Identity::random(&mut rng);
        let path = sparse_single_member_path(depth);

        let mut epoch = 1234;
        let mut bundle = None;
        let mut prove_next = || {
            epoch += 1;
            bundle = Some(
                prover
                    .prove_message(&identity, &path, b"experiment message", epoch, &mut rng)
                    .unwrap(),
            );
        };
        let first_prove = time_mean(1, &mut prove_next);
        let steady_prove = time_mean(3, &mut prove_next);
        let bundle = bundle.unwrap();
        let verify_time = time_mean(5, || {
            assert!(verifier.verify_bundle(&bundle));
        });
        let constraints = waku_rln::circuit::build_for_setup(depth).num_constraints();
        println!(
            "| {} | 2^{} | {} | {} | {} | {} | {} |",
            depth,
            depth,
            fmt_duration(keygen),
            fmt_duration(first_prove),
            fmt_duration(steady_prove),
            fmt_duration(verify_time),
            constraints,
        );
    }
    println!();
    println!("(verification time should be constant across rows — E2)");
}
