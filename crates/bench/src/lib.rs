//! # waku-bench
//!
//! Experiment binaries (`cargo run --release -p waku-bench --bin exp_*`)
//! that regenerate every row of the paper's evaluation (§IV). The
//! experiment ↔ binary mapping is in README.md ("Experiments");
//! measured-vs-paper numbers are recorded under README.md "Performance".
//! Performance itself is measured by `perf/` (`waku-perf`) under the
//! names `BENCHMARK.json` declares, not here.

use std::fmt::Display;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Times a closure over `n` runs and returns the mean duration.
pub fn time_mean<F: FnMut()>(n: usize, mut f: F) -> Duration {
    assert!(n > 0);
    let start = Instant::now();
    for _ in 0..n {
        f();
    }
    start.elapsed() / n as u32
}

/// Formats a duration in adaptive units.
pub fn fmt_duration(d: Duration) -> String {
    if d.as_secs() >= 1 {
        format!("{:.2} s", d.as_secs_f64())
    } else if d.as_millis() >= 1 {
        format!("{:.1} ms", d.as_secs_f64() * 1e3)
    } else if d.as_micros() >= 1 {
        format!("{:.1} µs", d.as_secs_f64() * 1e6)
    } else {
        format!("{} ns", d.as_nanos())
    }
}

/// Formats a byte count in adaptive *decimal* units (matching the paper's
/// "67 MB" convention for the depth-20 tree).
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1_000_000 {
        format!("{:.2} MB", b as f64 / 1e6)
    } else if b >= 1_000 {
        format!("{:.2} KB", b as f64 / 1e3)
    } else {
        format!("{b} B")
    }
}

/// The tail of every `--check` binary: without `--check` on the command
/// line the cells were only printed; with it, one line per pinned cell and
/// exit code 2 if any of them moved.
pub fn check_exit<S: Display>(checks: impl IntoIterator<Item = (S, bool)>) -> ExitCode {
    if !std::env::args().any(|a| a == "--check") {
        return ExitCode::SUCCESS;
    }
    println!();
    let mut ok = true;
    for (what, holds) in checks {
        println!("check: {what}: {}", if holds { "ok" } else { "FAILED" });
        ok &= holds;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

/// Builds a single-member authentication path for an arbitrary depth
/// without allocating a dense tree (used for the depth-32 prover bench —
/// the paper's 2³² group size).
pub fn sparse_single_member_path(depth: usize) -> waku_merkle::MerklePath {
    let zeros = waku_merkle::zeros::zero_hashes(depth);
    waku_merkle::MerklePath {
        index: 0,
        siblings: zeros[..depth].to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_helpers() {
        assert!(fmt_duration(Duration::from_millis(30)).contains("ms"));
        assert!(fmt_duration(Duration::from_secs(2)).contains("s"));
        assert_eq!(fmt_duration(Duration::from_nanos(140)), "140 ns");
        assert_eq!(fmt_bytes(512), "512 B");
        assert!(fmt_bytes(4_000_000).contains("MB"));
    }

    #[test]
    fn sparse_path_consistent_with_dense() {
        use waku_arith::traits::PrimeField;
        use waku_merkle::DenseTree;
        let mut dense = DenseTree::new(8);
        let leaf = waku_arith::Fr::from_u64(77);
        dense.set(0, leaf);
        let sparse = sparse_single_member_path(8);
        assert_eq!(sparse.compute_root(leaf), dense.root());
    }
}
