//! The paper's static evaluation tables in one run (≈ 10 s): E3 key
//! sizes, E4 identity-tree storage, E5 membership gas, E8 the slashing
//! race, E10 baseline cost asymmetries, E7 the epoch-gap threshold, E6
//! spam containment, and the Merkle-operation overhead §IV-A lists as
//! future work.
//!
//! ```text
//! exp_paper_tables [--check]
//! ```
//!
//! Everything but the Merkle timings is a pure function of the code and a
//! fixed seed. `--check` asserts those cells instead of only printing
//! them (exit 2 on a breach; CI runs it).

use std::process::ExitCode;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use waku_arith::fields::Fr;
use waku_arith::traits::{Field, PrimeField};
use waku_bench::{fmt_bytes, fmt_duration, run_cli, sparse_single_member_path, time_mean};
use waku_chain::{
    gas_to_usd, slash_commitment_hash, Address, Chain, ChainConfig, ContractKind, TxKind, DEPOSIT,
    ETHER,
};
use waku_gossip::NetworkConfig;
use waku_merkle::{DenseTree, FrontierTree, PartialViewTree, TreeUpdate};
use waku_poseidon::poseidon1;
use waku_rln::circuit::build_for_setup;
use waku_rln::keycache::encode_keys;
use waku_rln::{Identity, RlnProver};
use waku_sim::baselines::pow::{expected_iterations, mine, Envelope};
use waku_sim::baselines::SybilCostModel;
use waku_sim::{run_scenario, sweep_thr, Defense, ScenarioConfig, ScenarioReport};
use waku_snark::ConstraintSystem;

const USAGE: &str = "exp_paper_tables [--check]";

/// The pinned cells: what must hold, and whether it did.
type Checks = Vec<(String, bool)>;

/// A ratio as the tables print it; seeded cells are pinned in this form.
fn r3(x: f64) -> String {
    format!("{x:.3}")
}

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

/// E3: key and artifact sizes. Paper (§IV): 32 B secret/public keys;
/// prover key ≈3.89 MB at group size 2³²; (implicitly) Groth16 proofs
/// are constant 128–256 B. Beside the key a prover holds the circuit
/// template it rebinds per message, and a node keeps both in its
/// key-cache file — rows for each.
fn key_sizes(checks: &mut Checks) {
    println!("# E3 — key and artifact sizes");
    println!();
    let mut rng = StdRng::seed_from_u64(3);
    let identity = Identity::random(&mut rng);
    checks.extend([
        (
            "identity secret key is 32 B".to_string(),
            identity.secret_bytes().len() == 32,
        ),
        (
            "identity commitment is 32 B".to_string(),
            identity.commitment_bytes().len() == 32,
        ),
    ]);

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
            "| circuit template (depth {depth}): {} constraints, {terms} terms, {} distinct combinations, {coeffs} distinct coefficients | — | {} |",
            template.num_constraints(),
            template.num_combinations(),
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
}

/// Node bytes a `DenseTree` of `depth` holds once leaves `0..members` have
/// been written: `⌈members / 2^l⌉` nodes on level `l`.
fn prefix_tree_bytes(depth: usize, members: u64) -> u64 {
    (0..=depth).map(|l| members.div_ceil(1 << l) * 32).sum()
}

/// E4 + ablation A3: identity-tree storage per peer. Paper (§IV): full
/// depth-20 tree = 67 MB per peer; the optimized proposal of reference
/// \[18\] cuts the view to ~0.128 KB (O(log N)). This implementation's
/// full view stores each level's populated prefix only, so it sits in
/// between: ≈ 64 B per member, at any depth. `far_write` adds the check
/// that allocates the whole 67 MB tree.
fn tree_storage(checks: &mut Checks, far_write: bool) {
    println!("# E4 — per-peer identity-tree storage");
    println!();
    println!("| strategy | depth | paper | measured |");
    println!("|---|---|---|---|");

    // Full tree (what §III-C prescribes for every peer), as the paper
    // prices it: every node of the tree.
    let mut dense = DenseTree::new(20);
    println!(
        "| full tree, every node | 20 | 67 MB | {} |",
        fmt_bytes(dense.storage_bytes())
    );

    // The same tree as this implementation holds it. The first thousand
    // members are really inserted; the larger groups are the same formula.
    for i in 0..1_000u64 {
        dense.set(i, Fr::from_u64(i + 1));
    }
    let held_1k = dense.resident_bytes();
    println!(
        "| full tree (DenseTree), 10³ members | 20 | — | {} |",
        fmt_bytes(held_1k)
    );
    for (label, members) in [("10⁴", 10_000u64), ("10⁶", 1_000_000)] {
        println!(
            "| full tree (DenseTree), {label} members | 20 | — | {} |",
            fmt_bytes(prefix_tree_bytes(20, members))
        );
    }

    // Append-only frontier.
    let mut frontier = FrontierTree::new(20);
    frontier.append(Fr::from_u64(1)).unwrap();
    println!(
        "| frontier (append-only, [18]) | 20 | ~0.128 KB | {} |",
        fmt_bytes(frontier.storage_bytes())
    );

    // Own-path partial view (supports deletions via update notifications).
    let view = PartialViewTree::new(0, dense.leaf(0), dense.proof(0));
    println!(
        "| partial view (own path, [18]/hybrid §IV-A) | 20 | ~0.128 KB | {} |",
        fmt_bytes(view.storage_bytes())
    );

    println!();
    println!("## scaling with depth (every node vs 10⁴ members held vs O(log N))");
    println!();
    println!("| depth | every node | DenseTree, 10⁴ members | frontier | ratio |");
    println!("|---|---|---|---|---|");
    for depth in [10usize, 16, 20, 24, 32] {
        // analytic, and an empty tree allocates nothing at any depth
        let full = DenseTree::new(depth).storage_bytes();
        let held = prefix_tree_bytes(depth, 10_000.min(1 << depth));
        let log = (depth as u64) * 32 + 40;
        println!(
            "| {depth} | {} | {} | {} | {:.0}× |",
            fmt_bytes(full),
            fmt_bytes(held),
            fmt_bytes(log),
            full as f64 / log as f64
        );
    }

    checks.extend([
        (
            "depth-20 full tree is the paper's 67 108 832 B".to_string(),
            dense.storage_bytes() == 67_108_832,
        ),
        (
            "frontier is O(depth)".to_string(),
            frontier.storage_bytes() <= 32 * 20 + 72,
        ),
        (
            "partial view is O(depth)".to_string(),
            view.storage_bytes() <= 32 * 20 + 72,
        ),
        (
            "1000 members cost ≤ 64 B each plus one node per level".to_string(),
            held_1k <= 1_000 * 64 + 32 * 21,
        ),
        (
            "measured prefix equals the formula the larger rows use".to_string(),
            held_1k == prefix_tree_bytes(20, 1_000),
        ),
    ]);
    if far_write {
        // One far write grows every prefix to the whole level.
        let mut far = DenseTree::new(20);
        far.set((1 << 20) - 1, Fr::from_u64(1));
        checks.push((
            "one write to the last leaf costs exactly the full tree".to_string(),
            far.resident_bytes() == far.storage_bytes(),
        ));
    }
}

const GAS_PRICE_GWEI: u64 = 150;
const ETH_USD: f64 = 3_400.0;

/// Gas of the last of `txs`, each mined in its own block on a fresh
/// depth-20 contract of `kind`.
fn gas_of_last(kind: ContractKind, txs: Vec<TxKind>) -> u64 {
    let mut chain = Chain::new(ChainConfig {
        contract: kind,
        tree_depth: 20,
    });
    let user = Address::from_seed(b"gas-user");
    chain.fund(user, 10_000 * ETHER);
    let mut last = None;
    for tx in txs {
        last = Some(chain.submit(user, tx, GAS_PRICE_GWEI));
        chain.mine_block();
    }
    let last = last.expect("at least one transaction");
    chain.receipt(last).expect("mined").gas_used
}

/// E5 + ablation A1. Paper (§IV-A): registration ≈40k gas (>$20 at the
/// time of writing); batch insertion cuts it to ≈20k; the flat-list design
/// makes insertion/deletion O(1) versus the Semaphore on-chain tree's
/// O(depth) (§III-A, adjustment 1).
fn gas_costs(checks: &mut Checks) {
    println!("# E5 — membership contract gas costs");
    println!();
    println!(
        "conditions: {GAS_PRICE_GWEI} gwei, ETH = ${ETH_USD} (early-2022, matching the paper's \">$20\" claim)"
    );
    println!();
    println!("| operation | contract | paper | gas | USD |");
    println!("|---|---|---|---|---|");

    let register = || TxKind::Register {
        commitment: Fr::from_u64(1),
    };
    let batch = |n: u64| TxKind::RegisterBatch {
        commitments: (1..=n).map(Fr::from_u64).collect(),
    };
    let withdraw = || vec![register(), TxKind::Withdraw { index: 0 }];
    use ContractKind::{FlatList, OnChainTree};
    let rows = [
        (
            "register (single)",
            "flat list (paper design)",
            "≈40k gas, >$20",
            gas_of_last(FlatList, vec![register()]),
            47_637,
        ),
        (
            "register (single)",
            "on-chain tree (Semaphore)",
            "O(depth), costlier",
            gas_of_last(OnChainTree, vec![register()]),
            389_637,
        ),
        (
            "register (batch of 10, per member)",
            "flat list",
            "≈20k gas",
            gas_of_last(FlatList, vec![batch(10)]) / 10,
            28_737,
        ),
        (
            "register (batch of 100, per member)",
            "flat list",
            "≈20k gas",
            gas_of_last(FlatList, vec![batch(100)]) / 100,
            26_847,
        ),
        (
            "remove/withdraw",
            "flat list",
            "O(1), not batchable issue avoided",
            gas_of_last(FlatList, withdraw()),
            38_225,
        ),
        (
            "remove/withdraw",
            "on-chain tree",
            "O(depth), unbatchable (random leaves)",
            gas_of_last(OnChainTree, withdraw()),
            380_225,
        ),
    ];
    for (operation, contract, paper, gas, pinned) in rows {
        println!(
            "| {operation} | {contract} | {paper} | {gas} | ${:.2} |",
            gas_to_usd(gas, GAS_PRICE_GWEI, ETH_USD)
        );
        checks.push((
            format!("E5: {operation}, {contract}: {pinned} gas"),
            gas == pinned,
        ));
    }
    let (flat_removal, tree_removal) = (rows[4].3, rows[5].3);
    println!();
    println!(
        "flat-list removal advantage: {:.1}× cheaper ({flat_removal} vs {tree_removal} gas)",
        tree_removal as f64 / flat_removal as f64,
    );
    checks.push((
        "E5: flat-list removal is cheaper than the on-chain tree's".into(),
        flat_removal < tree_removal,
    ));
}

/// Rewards (honest, front-runner) in wei after both try to slash the same
/// recovered key, the front-runner copying the honest router's mempool
/// transaction at 10× the gas price.
fn run_race(commit_reveal: bool) -> (u128, u128) {
    let mut chain = Chain::new(ChainConfig {
        tree_depth: 8,
        ..ChainConfig::default()
    });
    let registrant = Address::from_seed(b"spammer-owner");
    chain.fund(registrant, 10 * ETHER);
    let spammer_sk = Fr::from_u64(0xDEAD);
    chain.submit(
        registrant,
        TxKind::Register {
            commitment: poseidon1(spammer_sk),
        },
        100,
    );
    chain.mine_block();

    let honest = Address::from_seed(b"honest-router");
    let attacker = Address::from_seed(b"front-runner");
    chain.fund(honest, ETHER);
    chain.fund(attacker, ETHER);
    let honest_start = chain.balance(honest);
    let attacker_start = chain.balance(attacker);

    let claim = |beneficiary| {
        if commit_reveal {
            TxKind::SlashReveal {
                secret: spammer_sk,
                salt: [7u8; 32],
                beneficiary,
            }
        } else {
            // Plain mode: the secret itself sits in the mempool.
            TxKind::SlashPlain {
                secret: spammer_sk,
                beneficiary,
            }
        }
    };
    if commit_reveal {
        let hash = slash_commitment_hash(spammer_sk, honest, &[7u8; 32]);
        chain.submit(honest, TxKind::SlashCommit { hash }, 50);
        chain.mine_block(); // commit matures; attacker sees only a hash
    }
    chain.submit(honest, claim(honest), 50);
    // The attacker copies the now-public transaction and outbids 10×.
    chain.submit(attacker, claim(attacker), 500);
    chain.mine_block();

    (
        chain.balance(honest).saturating_sub(honest_start),
        chain.balance(attacker).saturating_sub(attacker_start),
    )
}

/// E8: the slashing race condition and its commit-reveal fix (§III-F).
fn slashing_race(checks: &mut Checks) {
    println!("# E8 — slashing race condition (§III-F)");
    println!();
    println!("scenario: honest router recovers a spammer key; attacker watches the mempool");
    println!("and re-submits with 10× the gas price.");
    println!();
    println!("| scheme | honest reward (ETH) | front-runner reward (ETH) | outcome |");
    println!("|---|---|---|---|");

    let (honest, attacker) = run_race(false);
    let stolen = honest == 0 && attacker > 0;
    println!(
        "| plain submission | {:.3} | {:.3} | {} |",
        honest as f64 / 1e18,
        attacker as f64 / 1e18,
        if stolen {
            "reward stolen (the race the paper warns about)"
        } else {
            "unexpected"
        }
    );
    checks.push((
        "E8: plain submission: the front-runner takes the reward".into(),
        stolen,
    ));

    let (honest, attacker) = run_race(true);
    let protected = honest > 0 && attacker == 0;
    println!(
        "| commit-reveal | {:.3} | {:.3} | {} |",
        honest as f64 / 1e18,
        attacker as f64 / 1e18,
        if protected {
            "honest slasher protected (paper's mitigation)"
        } else {
            "unexpected"
        }
    );
    checks.push((
        "E8: commit-reveal: the honest slasher takes the reward".into(),
        protected,
    ));
}

/// E10: why the baselines fail heterogeneous networks (§I). PoW: weak
/// devices pay seconds per message while GPU spammers pay microseconds.
/// Peer scoring: Sybil identity rotation is free; RLN makes each spam slot
/// cost a slashable deposit.
fn baseline_costs(checks: &mut Checks) {
    println!("# E10 — baseline cost asymmetries");
    println!();
    println!("## PoW (Whisper, EIP-627): time to send ONE 128 B message, min_pow = 2.0");
    println!();
    println!("| device | hash rate | expected hashes | time per message |");
    println!("|---|---|---|---|");
    let size = 128 + 28;
    let ttl = 50u64;
    let needed = expected_iterations(2.0, size, ttl);
    for (label, rate_hps) in [
        ("IoT node", 5_000.0),
        ("phone (the paper's target user)", 50_000.0),
        ("laptop", 2_000_000.0),
        ("GPU spam rig", 50_000_000.0),
    ] {
        println!(
            "| {label} | {rate_hps:.0e} H/s | {needed:.1e} | {} |",
            fmt_duration(Duration::from_secs_f64(needed / rate_hps))
        );
    }
    checks.push((
        "E10: min_pow 2.0 on 156 B for 50 s needs 15 600 expected hashes".into(),
        needed == 15_600.0,
    ));
    println!();
    println!("(RLN replaces this with one constant-cost proof regardless of wealth in CPUs.)");

    // Demonstrate actual mining (not just the analytic expectation).
    let mut envelope = Envelope::new(10_000, ttl, [9, 9, 9, 9], vec![0u8; 128]);
    let outcome = mine(&mut envelope, 0.5, 5_000_000).expect("minable");
    println!();
    println!(
        "measured grind at min_pow 0.5: {} hash evaluations (nonce {})",
        outcome.iterations, outcome.nonce
    );

    println!();
    println!("## Sybil economics: stake required to sustain a spam rate");
    println!();
    println!("| spam rate (msgs/epoch) | peer scoring | RLN (1 ETH deposit) |");
    println!("|---|---|---|");
    let scoring = SybilCostModel::scoring_only();
    let rln = SybilCostModel::rln(DEPOSIT);
    for rate in [1u64, 10, 100, 1000] {
        let (free, staked) = (scoring.cost_for_rate(rate), rln.cost_for_rate(rate));
        println!(
            "| {rate} | {} ETH | {} ETH |",
            free as f64 / 1e18,
            staked as f64 / 1e18
        );
        checks.push((
            format!("E10: {rate} msgs/epoch costs 0 under scoring, {rate} ETH under RLN"),
            free == 0 && staked == rate as u128 * ETHER,
        ));
    }
    println!();
    println!("every RLN slot is additionally *forfeited on first violation* (slashing),");
    println!("while scoring identities are discarded and re-created for free (§I).");
}

/// E7 + ablation A4: `Thr` swept against epoch length, link latency and
/// clock drift; the paper's formula `Thr = ⌈(NetworkDelay +
/// ClockAsynchrony)/T⌉` should sit at the knee of the delivery curve.
fn epoch_gap(checks: &mut Checks) {
    println!("# E7 — epoch-gap threshold (Thr) sensitivity");
    println!();

    let cases = [
        // (label, T secs, clock drift ms, max latency ms)
        (
            "chat app: T=1s, drift ±100ms, latency ≤120ms",
            1u64,
            100u64,
            120u64,
        ),
        ("chat app, sloppy clocks: T=1s, drift ±2s", 1, 2_000, 120),
        (
            "slow links: T=1s, drift ±100ms, latency ≤800ms",
            1,
            100,
            800,
        ),
        ("long epochs: T=30s, drift ±2s", 30, 2_000, 120),
    ];

    for (label, t, drift, latency) in cases {
        println!("## {label}");
        println!();
        println!("| Thr | formula Thr | honest delivery | latency p50 (ms) |");
        println!("|---|---|---|---|");
        let points = sweep_thr(t, drift, latency, &[0, 1, 2, 3, 4], 7);
        for p in &points {
            let marker = if p.thr == p.thr_formula {
                " ◀ formula"
            } else {
                ""
            };
            println!(
                "| {}{} | {} | {} | {} |",
                p.thr,
                marker,
                p.thr_formula,
                r3(p.honest_delivery_ratio),
                p.latency_p50_ms
            );
        }
        println!();

        checks.push((
            format!("E7: {label}: honest delivery never falls as Thr grows"),
            points
                .windows(2)
                .all(|w| w[0].honest_delivery_ratio <= w[1].honest_delivery_ratio),
        ));
        checks.push((
            format!("E7: {label}: Thr = 0 drops honest traffic"),
            points[0].honest_delivery_ratio < 1.0,
        ));
        if points.iter().any(|p| p.thr >= p.thr_formula) {
            checks.push((
                format!("E7: {label}: delivery is 1.000 from the formula's Thr on"),
                points
                    .iter()
                    .filter(|p| p.thr >= p.thr_formula)
                    .all(|p| r3(p.honest_delivery_ratio) == "1.000"),
            ));
        } else {
            // Only the sloppy-clock case: its formula Thr lies outside the
            // sweep, so pin the climb that ends at the sweep's edge.
            checks.push((
                format!("E7: {label}: formula Thr 5; 0.159 at Thr 0 climbs to 1.000 at Thr 4"),
                points[0].thr_formula == 5
                    && r3(points[0].honest_delivery_ratio) == "0.159"
                    && r3(points[4].honest_delivery_ratio) == "1.000",
            ));
        }
    }

    println!("expected shape: delivery saturates at (or before) the formula's Thr; tighter");
    println!("thresholds drop honest in-flight traffic, larger ones only grow the replay window.");
}

/// E6: the same network and attacker under no defense, peer scoring,
/// Whisper PoW and WAKU-RLN-RELAY (the paper's §IV security claims, made
/// quantitative).
fn spam_containment(checks: &mut Checks) {
    const SPAMMERS: usize = 5;
    println!("# E6 — spam containment comparison");
    println!();
    println!(
        "network: 100 peers, degree 8, {SPAMMERS} spammers @ 2 msg/s each, honest @ 1 msg/5 s, 60 s"
    );
    println!();
    println!("{}", ScenarioReport::table_header());

    let defenses = [
        Defense::None,
        Defense::ScoringOnly,
        Defense::Pow {
            min_pow: 2.0,
            honest_hashrate: 50.0,      // phone-class: 50 kH/s
            spammer_hashrate: 50_000.0, // GPU rig: 50 MH/s
        },
        Defense::RlnRelay {
            epoch_secs: 1,
            thr: 1,
        },
    ];

    for defense in defenses {
        let config = ScenarioConfig {
            peers: 100,
            spammers: SPAMMERS,
            duration_ms: 60_000,
            honest_interval_ms: 5_000,
            spam_interval_ms: 500,
            defense,
            net: NetworkConfig::builder()
                .degree(8)
                .build()
                .expect("valid net config"),
            seed: 2022,
            ..ScenarioConfig::default()
        };
        let report = run_scenario(&config).report;
        println!("{}", report.table_row());

        let name = &report.defense;
        let (honest, spam) = (
            r3(report.honest_delivery_ratio),
            r3(report.spam_delivery_ratio),
        );
        match config.defense {
            Defense::RlnRelay { .. } => checks.push((
                format!(
                    "E6: {name}: honest 0.982, spam 0.472, {SPAMMERS} of {SPAMMERS} caught, attack costs 10 ETH"
                ),
                honest == "0.982"
                    && spam == "0.472"
                    && report.spammers_detected == SPAMMERS
                    && report.attack_cost_wei == 10 * ETHER,
            )),
            _ => checks.push((
                format!("E6: {name}: all spam delivered, nobody caught"),
                spam == "1.000" && report.spammers_detected == 0,
            )),
        }
        if matches!(config.defense, Defense::Pow { .. }) {
            checks.push((
                format!("E6: {name}: a phone grinds 312 ms per message"),
                report.honest_send_delay_p50_ms == 312,
            ));
        }
    }

    println!();
    println!("expected shape (paper §I, §IV):");
    println!("- none / peer-scoring: spam delivery ≈ honest delivery (no admission control; Sybil identities free)");
    println!("- pow: spam still delivered (funded attacker out-mines the minimum) but honest send delay grows to seconds");
    println!("- waku-rln-relay: spam contained near the source, every spammer's key recovered, attack requires stake");
}

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
        key_sizes(&mut checks);
        println!();
        tree_storage(&mut checks, check);
        println!();
        for table in [
            gas_costs,
            slashing_race,
            baseline_costs,
            epoch_gap,
            spam_containment,
        ] {
            table(&mut checks);
            println!();
        }
        merkle_ops();
        if !check {
            return Ok(ExitCode::SUCCESS);
        }

        println!();
        let mut ok = true;
        for (what, holds) in checks {
            println!("check: {what}: {}", if holds { "ok" } else { "FAILED" });
            ok &= holds;
        }
        Ok(if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(2)
        })
    })
}
