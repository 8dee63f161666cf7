//! The estimators every figure in the benchmark goes through: nearest-rank
//! percentiles, quartile spread, fastest-fraction pooling of identical
//! passes, and the self-time arithmetic of the declared ladders.

use std::collections::BTreeMap;

/// Share of passes pooled into the reported figures. Interference on the
/// build VM is one-sided (a pass is only ever slowed down) and every pass
/// of a workload has identical inputs, so anything the program itself does
/// slowly is in every pass: the fastest passes are the least-disturbed
/// view of the same work. On 100 s traces cut into 10 s runs, a quarter
/// repeated better than a half and no worse than a tenth (see
/// `perf/README.md`, "Measured noise").
pub const KEEP_FRACTION: f64 = 0.25;

/// Nearest-rank percentile of an ascending-sorted sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Sorts a sample ascending (total order: the harness never produces NaN).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile_sorted(&sorted(values.to_vec()), 50.0)
}

/// The smallest value: the figure for work replayed several times, since
/// every replay does the same work and interference only ever adds time.
pub fn fastest_of(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// How many samples of a sample of `n` lie strictly beyond percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    n - rank.min(n)
}

/// `(q1, median, q3)` by the same method as Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// driver uses for its spread check. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let s = sorted(values.to_vec());
    let n = s.len();
    let at = |i: usize| {
        let pos = i as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        s[j - 1] + delta * (s[j] - s[j - 1])
    };
    (at(1), at(2), at(3))
}

/// Interquartile distance as a share of the median — the driver's spread.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    (q3 - q1) / med
}

/// One pass of a workload: a fixed unit of identical work.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Nanoseconds inside the timed region.
    pub timed_ns: u64,
    /// Operations completed inside it (publishes, messages, sim events).
    pub ops: u64,
    /// One latency sample per caller-visible operation, nanoseconds.
    pub lat_ns: Vec<u64>,
}

impl Pass {
    /// Operations per second of this pass.
    pub fn throughput(&self) -> f64 {
        self.ops as f64 * 1e9 / self.timed_ns as f64
    }
}

/// The fastest `fraction` of passes by throughput (at least one).
pub fn fastest(passes: &[Pass], fraction: f64) -> Vec<&Pass> {
    let mut by_speed: Vec<&Pass> = passes.iter().collect();
    by_speed.sort_by(|a, b| b.throughput().total_cmp(&a.throughput()));
    let keep = ((passes.len() as f64 * fraction).ceil() as usize).clamp(1, passes.len());
    by_speed.truncate(keep);
    by_speed
}

/// Pooled figures over a set of passes.
#[derive(Clone, Debug)]
pub struct Pooled {
    /// Total operations ÷ total timed seconds.
    pub throughput: f64,
    /// Median latency over the pooled samples, ms.
    pub lat_p50_ms: f64,
    /// Tail latency at `tail_pct` over the pooled samples, ms.
    pub lat_tail_ms: f64,
    /// Passes pooled.
    pub passes: usize,
    /// Latency samples pooled.
    pub samples: usize,
    /// Samples strictly beyond the tail percentile.
    pub beyond_tail: usize,
}

/// Pools throughput and latency over `passes`; `tail_pct` is the
/// workload's fixed tail percentile.
pub fn pool(passes: &[&Pass], tail_pct: f64) -> Pooled {
    let ops: u64 = passes.iter().map(|p| p.ops).sum();
    let ns: u64 = passes.iter().map(|p| p.timed_ns).sum();
    let lat = sorted(
        passes
            .iter()
            .flat_map(|p| p.lat_ns.iter().map(|&ns| ns as f64 / 1e6))
            .collect(),
    );
    Pooled {
        throughput: ops as f64 * 1e9 / ns as f64,
        lat_p50_ms: percentile_sorted(&lat, 50.0),
        lat_tail_ms: percentile_sorted(&lat, tail_pct),
        passes: passes.len(),
        samples: lat.len(),
        beyond_tail: samples_beyond(lat.len(), tail_pct),
    }
}

/// One rung of a declared ladder: its measured duration and the rung it
/// nests under (`None` for the top-level span).
#[derive(Clone, Debug)]
pub struct Rung {
    /// Rung name (unique within its ladder).
    pub name: &'static str,
    /// The rung this one is declared to run inside.
    pub parent: Option<&'static str>,
    /// Whether the program runs this rung concurrently with its siblings
    /// (the prover's pool tasks). Replayed one after the other, such a
    /// group takes between its longest member and the sum of its members.
    pub concurrent: bool,
    /// Measured duration, nanoseconds.
    pub dur_ns: f64,
}

/// `(self time, time explained by the rung's concurrent group)` of `r`.
fn account(rungs: &[Rung], r: &Rung) -> (f64, f64) {
    let children = || rungs.iter().filter(|c| c.parent == Some(r.name));
    let serial: f64 = children().filter(|c| !c.concurrent).map(|c| c.dur_ns).sum();
    let overlapped: Vec<f64> = children()
        .filter(|c| c.concurrent)
        .map(|c| c.dur_ns)
        .collect();
    let rest = r.dur_ns - serial;
    let group = if overlapped.is_empty() {
        0.0
    } else {
        let longest = overlapped.iter().copied().fold(0.0, f64::max);
        rest.clamp(longest, overlapped.iter().sum())
    };
    ((rest - group).max(0.0), group)
}

/// Self time per rung: its duration minus the rungs that declare it as
/// their parent, clamped at zero (the rungs are separate replays, so a
/// child can measure longer than its parent). Children that run
/// concurrently are charged as one group: whatever of the parent is left
/// after its serial children, held between the group's longest member and
/// the sum of its members.
pub fn self_times(rungs: &[Rung]) -> BTreeMap<&'static str, f64> {
    rungs
        .iter()
        .map(|r| (r.name, account(rungs, r).0))
        .collect()
}

/// Share of the top-level rung (percent) that the ladder does not account
/// for: `|top − explained| ÷ top`, where every serial rung explains its
/// self time plus its concurrent group. Zero when every child fits inside
/// its parent (and every parent of a concurrent group lies between the
/// group's critical path and its serial sum); grows when replayed
/// children overshoot — either way the layer rows fail to explain the
/// end-to-end row.
pub fn unexplained_pct(rungs: &[Rung]) -> f64 {
    let top = rungs
        .iter()
        .find(|r| r.parent.is_none())
        .expect("a ladder has a top-level rung")
        .dur_ns;
    let explained: f64 = rungs
        .iter()
        .filter(|r| !r.concurrent)
        .map(|r| {
            let (own, group) = account(rungs, r);
            own + group
        })
        .sum();
    (top - explained).abs() / top * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile_sorted(&s, 50.0), 30.0);
        assert_eq!(percentile_sorted(&s, 80.0), 40.0);
        assert_eq!(percentile_sorted(&s, 99.0), 50.0);
        assert_eq!(percentile_sorted(&s, 1.0), 10.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn beyond_counts_samples_past_the_rank() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(50, 80.0), 10);
        assert_eq!(samples_beyond(28, 80.0), 5);
        assert_eq!(samples_beyond(1, 99.0), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, med, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((med - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, _, q3) = quartiles(&[2.0, 1.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }

    fn pass(timed_ns: u64, ops: u64, lat_ns: &[u64]) -> Pass {
        Pass {
            timed_ns,
            ops,
            lat_ns: lat_ns.to_vec(),
        }
    }

    #[test]
    fn fastest_fraction_keeps_the_quick_passes_and_pools_them() {
        let passes = vec![
            pass(2_000, 10, &[9_000_000]), // 5e6 ops/s
            pass(1_000, 10, &[1_000_000]), // 1e7 ops/s  ← fastest
            pass(4_000, 10, &[7_000_000]), // 2.5e6
            pass(1_250, 10, &[3_000_000]), // 8e6        ← second
        ];
        let kept = fastest(&passes, 0.5);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].timed_ns, 1_000);
        assert_eq!(kept[1].timed_ns, 1_250);
        let pooled = pool(&kept, 50.0);
        // 20 ops in 2250 ns.
        assert!((pooled.throughput - 20.0 * 1e9 / 2250.0).abs() < 1e-3);
        assert_eq!(pooled.lat_p50_ms, 1.0);
        assert_eq!(pooled.samples, 2);
        // A fraction that rounds to nothing still keeps one pass.
        assert_eq!(fastest(&passes, 0.01).len(), 1);
        assert_eq!(fastest(&passes, 1.0).len(), 4);
    }

    fn rung(name: &'static str, parent: Option<&'static str>, dur_ns: f64) -> Rung {
        Rung {
            name,
            parent,
            concurrent: false,
            dur_ns,
        }
    }

    #[test]
    fn self_time_subtracts_declared_children_and_clamps() {
        let ladder = vec![
            rung("top", None, 100.0),
            rung("mid", Some("top"), 90.0),
            rung("side", Some("top"), 4.0),
            rung("leaf_a", Some("mid"), 50.0),
            rung("leaf_b", Some("mid"), 30.0),
        ];
        let own = self_times(&ladder);
        assert_eq!(own["top"], 6.0);
        assert_eq!(own["mid"], 10.0);
        assert_eq!(own["leaf_a"], 50.0);
        // Everything nests: the self times telescope to the top span.
        assert_eq!(unexplained_pct(&ladder), 0.0);

        // A replayed child that overshoots its parent is clamped, and the
        // overshoot shows up as unexplained time.
        let overshoot = vec![rung("top", None, 100.0), rung("child", Some("top"), 120.0)];
        assert_eq!(self_times(&overshoot)["top"], 0.0);
        assert!((unexplained_pct(&overshoot) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn a_concurrent_group_explains_between_its_longest_member_and_its_sum() {
        let pool_task = |name, dur_ns| Rung {
            concurrent: true,
            ..rung(name, Some("prove"), dur_ns)
        };
        let ladder = |prove: f64| {
            vec![
                rung("prove", None, prove),
                rung("witness", Some("prove"), 10.0),
                pool_task("msm_a", 40.0),
                pool_task("msm_b", 60.0),
            ]
        };
        // 10 serial + a group worth 60..=100: anything from 70 to 110 is
        // fully explained, with no self time left over.
        for prove in [70.0, 90.0, 110.0] {
            assert_eq!(self_times(&ladder(prove))["prove"], 0.0);
            assert!(unexplained_pct(&ladder(prove)) < 1e-9, "{prove}");
        }
        // Longer than the serial sum: the excess is the rung's own time.
        assert_eq!(self_times(&ladder(130.0))["prove"], 20.0);
        assert!(unexplained_pct(&ladder(130.0)) < 1e-9);
        // Shorter than the group's longest member: cannot be.
        assert!((unexplained_pct(&ladder(50.0)) - 40.0).abs() < 1e-9);
    }
}
