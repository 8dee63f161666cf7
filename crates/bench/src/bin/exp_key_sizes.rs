//! E3: key and artifact sizes.
//!
//! Paper (§IV): 32 B secret/public keys; prover key ≈3.89 MB at group
//! size 2³²; (implicitly) Groth16 proofs are constant 128–256 B. Beside
//! the key a prover holds the circuit template it rebinds per message,
//! and a node keeps both in its key-cache file — rows for each.
//!
//! `--check` asserts the machine-independent cells instead of only
//! printing them (CI runs it).

use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::SeedableRng;
use waku_bench::{check_exit, fmt_bytes, sparse_single_member_path};
use waku_rln::circuit::build_for_setup;
use waku_rln::keycache::encode_keys;
use waku_rln::{Identity, RlnProver};
use waku_snark::ConstraintSystem;

/// §IV's prover-key figure.
const PAPER_KEY_BYTES: f64 = 3.89e6;

/// What `ProvingKey::size_in_bytes` must come to for this circuit: the
/// verifying key (α, β, γ, δ and one `IC` point per instance variable),
/// β and δ in G1, three queries over every variable (two in G1, one in
/// G2), `n − 1` powers for `H` over the padded domain and one `L` point
/// per witness. G1 points are 64 B, G2 points 128 B.
fn analytic_key_bytes(template: &ConstraintSystem) -> usize {
    let (instance, witness) = (template.num_instance(), template.num_witness());
    let domain = template.num_constraints().next_power_of_two();
    let vk = 64 + 3 * 128 + instance * 64;
    vk + 2 * 64 + (instance + witness) * (64 + 64 + 128) + (domain - 1) * 64 + witness * 64
}

fn main() -> ExitCode {
    println!("# E3 — key and artifact sizes");
    println!();
    let mut rng = StdRng::seed_from_u64(3);
    let identity = Identity::random(&mut rng);
    let mut checks = vec![
        (
            "identity secret key is 32 B".to_string(),
            identity.secret_bytes().len() == 32,
        ),
        (
            "identity commitment is 32 B".to_string(),
            identity.commitment_bytes().len() == 32,
        ),
    ];

    println!("| artifact | paper | measured |");
    println!("|---|---|---|");
    println!(
        "| identity secret key | 32 B | {} |",
        fmt_bytes(identity.secret_bytes().len() as u64)
    );
    println!(
        "| identity commitment | 32 B | {} |",
        fmt_bytes(identity.commitment_bytes().len() as u64)
    );

    for depth in [15usize, 20, 32] {
        let (prover, _) = RlnProver::keygen(depth, &mut rng);
        let key_bytes = prover.proving_key().size_in_bytes();
        println!(
            "| prover key (depth {depth}) | ≈3.89 MB (depth 32, [17]) | {} |",
            fmt_bytes(key_bytes as u64)
        );
        println!(
            "| verifying key (depth {depth}) | — | {} |",
            fmt_bytes(prover.proving_key().vk.size_in_bytes() as u64)
        );
        let path = sparse_single_member_path(depth);
        let bundle = prover
            .prove_message(&identity, &path, b"size probe", 1, &mut rng)
            .unwrap();
        let proof_bytes = bundle.proof.to_bytes().len();
        println!(
            "| proof π (depth {depth}) | constant (Groth16) | {} |",
            fmt_bytes(proof_bytes as u64)
        );
        println!(
            "| full message bundle overhead (depth {depth}) | — | {} |",
            fmt_bytes((bundle.size_in_bytes() - bundle.payload.len()) as u64)
        );
        // The shape the prover rebinds per message (its own copy is private).
        let template = build_for_setup(depth);
        let (terms, coeffs) = (template.num_terms(), template.num_coefficients());
        let template_bytes = template.resident_bytes();
        println!(
            "| circuit template (depth {depth}): {} constraints, {terms} terms, {coeffs} distinct coefficients | — | {} |",
            template.num_constraints(),
            fmt_bytes(template_bytes as u64)
        );
        let file_bytes = encode_keys(depth, prover.proving_key(), &template).len();
        println!(
            "| key-cache file `keys.bin` (depth {depth}) | — | {} |",
            fmt_bytes(file_bytes as u64)
        );

        checks.extend([
            (format!("depth {depth}: proof is 256 B"), proof_bytes == 256),
            (
                format!("depth {depth}: prover key is the analytic sum of its queries"),
                key_bytes == analytic_key_bytes(&template),
            ),
            (
                format!("depth {depth}: template ≤ 10 B per term + 32 B per distinct coefficient"),
                template_bytes <= 10 * terms + 32 * coeffs,
            ),
            (
                format!("depth {depth}: keys.bin ≤ key + template + 64 B"),
                file_bytes <= key_bytes + template_bytes + 64,
            ),
        ]);
        if depth == 32 {
            checks.push((
                "depth 32: prover key within 5 % of the paper's 3.89 MB".to_string(),
                (key_bytes as f64 - PAPER_KEY_BYTES).abs() <= 0.05 * PAPER_KEY_BYTES,
            ));
        }
    }

    check_exit(checks)
}
