//! E4 + ablation A3: identity-tree storage per peer.
//!
//! Paper (§IV): full depth-20 tree = 67 MB per peer; the optimized
//! proposal of reference \[18\] cuts the view to ~0.128 KB (O(log N)).
//! This implementation's full view stores each level's populated prefix
//! only, so it sits in between: ≈ 64 B per member, at any depth.
//!
//! `--check` asserts the machine-independent cells instead of only
//! printing them (CI runs it).

use std::process::ExitCode;

use waku_arith::fields::Fr;
use waku_arith::traits::PrimeField;
use waku_bench::{check_exit, fmt_bytes};
use waku_merkle::{DenseTree, FrontierTree, PartialViewTree};

/// Node bytes a `DenseTree` of `depth` holds once leaves `0..members` have
/// been written: `⌈members / 2^l⌉` nodes on level `l`.
fn prefix_tree_bytes(depth: usize, members: u64) -> u64 {
    (0..=depth).map(|l| members.div_ceil(1 << l) * 32).sum()
}

fn main() -> ExitCode {
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

    if !std::env::args().any(|a| a == "--check") {
        return ExitCode::SUCCESS; // the far write below allocates the full 67 MB
    }
    // One far write grows every prefix to the whole level.
    let mut far = DenseTree::new(20);
    far.set((1 << 20) - 1, Fr::from_u64(1));
    let checks = [
        (
            "depth-20 full tree is the paper's 67 108 832 B",
            dense.storage_bytes() == 67_108_832,
        ),
        (
            "frontier is O(depth)",
            frontier.storage_bytes() <= 32 * 20 + 72,
        ),
        (
            "partial view is O(depth)",
            view.storage_bytes() <= 32 * 20 + 72,
        ),
        (
            "1000 members cost ≤ 64 B each plus one node per level",
            held_1k <= 1_000 * 64 + 32 * 21,
        ),
        (
            "measured prefix equals the formula the larger rows use",
            held_1k == prefix_tree_bytes(20, 1_000),
        ),
        (
            "one write to the last leaf costs exactly the full tree",
            far.resident_bytes() == far.storage_bytes(),
        ),
    ];
    check_exit(checks)
}
