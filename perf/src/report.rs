//! The metric catalogue, the reduction from measured passes to named
//! figures, result files with their machine fingerprint, and `compare`.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::stats::{fastest, pool, quartile_spread, quartiles, Pass, KEEP_FRACTION};
use crate::workloads::{Measured, Workload};

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's figure by which the metric may worsen before
    /// it is a regression.
    pub bound: f64,
}

/// The end-to-end metrics, reported on every workload.
///
/// * `setup_s` — process start of a solo run → first timed operation.
/// * `throughput_per_s` — operations ÷ timed seconds over the pooled
///   passes: publishes (steps and registrations included), messages
///   decided, or simulator events.
/// * `latency_p50_ms`, `latency_tail_ms` — per caller-visible operation:
///   wall time of `RelayerService::publish`; start of a message's
///   `ingest` call → return of the call that carried its decision; wall
///   time of one scenario run. The tail percentile is fixed per workload
///   ([`Workload::tail_pct`]).
/// * `peak_rss_mb` — `VmHWM` of the workload, set-up included.
///
/// The timing bounds are the contract's maximum: the shared build VM's
/// speed drifts by ±10–15% from one 10 s window to the next (measured
/// spreads are in `perf/README.md`), and a bound inside the noise would
/// only produce *unresolved* verdicts.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_tail_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// One per-layer metric: `(name, unit, better)`. The layer is the name's
/// prefix (a crate); what each one should move is in `perf/README.md`.
pub const PER_LAYER: [(&str, &str, Better); 67] = [
    ("arith.fr_mul_ns", "ns", Better::Lower),
    ("arith.fq_mul_ns", "ns", Better::Lower),
    ("arith.fft_8192_ms", "ms", Better::Lower),
    ("arith.batch_inv_4096_us", "us", Better::Lower),
    ("curve.msm_g1_d20_ms", "ms", Better::Lower),
    ("curve.msm_g2_d20_ms", "ms", Better::Lower),
    ("curve.msm_b1_d20_ms", "ms", Better::Lower),
    ("curve.msm_lh_d20_ms", "ms", Better::Lower),
    ("curve.miller_loop_3_ms", "ms", Better::Lower),
    ("curve.final_exp_ms", "ms", Better::Lower),
    ("curve.miller_loop_66_ms", "ms", Better::Lower),
    ("poseidon.hash2_us", "us", Better::Lower),
    ("hash.sha256_128b_ns", "ns", Better::Lower),
    ("hash.keccak256_128b_ns", "ns", Better::Lower),
    ("merkle.dense_set_d20_us", "us", Better::Lower),
    ("merkle.proof_d20_ns", "ns", Better::Lower),
    ("shamir.recover_us", "us", Better::Lower),
    ("snark.witness_solve_d20_ms", "ms", Better::Lower),
    ("snark.quotient_d20_ms", "ms", Better::Lower),
    ("snark.prove_d20_ms", "ms", Better::Lower),
    ("snark.verify_single_ms", "ms", Better::Lower),
    ("snark.verify_batch64_ms", "ms", Better::Lower),
    ("snark.isolate_1of64_ms", "ms", Better::Lower),
    ("pool.join_overhead_ns", "ns", Better::Lower),
    ("pool.threads", "count", Better::Higher),
    ("rln.prove_message_d20_ms", "ms", Better::Lower),
    ("rln.prove_message_d10_ms", "ms", Better::Lower),
    ("rln.keygen_d20_ms", "ms", Better::Lower),
    ("rln.keycache_load_d20_ms", "ms", Better::Lower),
    ("rln.verify_bundle_ms", "ms", Better::Lower),
    ("rln.verify_batch64_ms", "ms", Better::Lower),
    ("rln.nullifier_check_ns", "ns", Better::Lower),
    ("rln.nullifier_advance_ns", "ns", Better::Lower),
    ("rln.snapshot_save_us", "us", Better::Lower),
    ("chain.register_mine_us", "us", Better::Lower),
    ("chain.slash_commit_reveal_us", "us", Better::Lower),
    ("relay.segment_append_us", "us", Better::Lower),
    ("relay.segment_flush_us", "us", Better::Lower),
    ("relay.store_query_page_us", "us", Better::Lower),
    ("rlnrelay.validate_single_ms", "ms", Better::Lower),
    ("rlnrelay.precheck_reject_ns", "ns", Better::Lower),
    ("rlnrelay.enqueue_ns", "ns", Better::Lower),
    ("rlnrelay.flush64_ms", "ms", Better::Lower),
    ("rlnrelay.flush64_1bad_ms", "ms", Better::Lower),
    ("rlnrelay.group_sync_per_member_us", "us", Better::Lower),
    ("node.ingest_self_us", "us", Better::Lower),
    ("node.publish_self_ms", "ms", Better::Lower),
    ("node.step_us", "us", Better::Lower),
    ("node.checkpoint_ms", "ms", Better::Lower),
    ("node.shutdown_ms", "ms", Better::Lower),
    ("node.open_warm_ms", "ms", Better::Lower),
    ("node.open_cold_d20_ms", "ms", Better::Lower),
    ("metrics.counter_inc_ns", "ns", Better::Lower),
    ("metrics.histogram_observe_ns", "ns", Better::Lower),
    ("metrics.render_prometheus_us", "us", Better::Lower),
    ("gossip.ns_per_event", "ns", Better::Lower),
    ("gossip.events", "count", Better::Lower),
    ("gossip.barriers", "count", Better::Lower),
    ("gossip.none_events_per_s", "1/s", Better::Higher),
    ("gossip.seen_set_probe_ns", "ns", Better::Lower),
    ("sim.validator_share", "ratio", Better::Lower),
    ("ladder.publish_d20.unexplained_pct", "%", Better::Lower),
    ("ladder.publish_d20.prove_share_pct", "%", Better::Higher),
    ("ladder.relay_single.unexplained_pct", "%", Better::Lower),
    ("ladder.relay_batch64.unexplained_pct", "%", Better::Lower),
    ("trace.overhead_pct", "%", Better::Lower),
    ("trace.spans", "count", Better::Lower),
];

/// `BENCHMARK.json`, generated from the catalogue so the two cannot
/// drift (a test compares the checked-in file with this).
pub fn manifest() -> Json {
    let strings =
        |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str((*s).into())).collect());
    Json::obj([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--offline",
                "--manifest-path",
                "perf/Cargo.toml",
                "--",
                "bench",
            ]),
        ),
        ("paths", strings(&["perf"])),
        ("run_seconds", Json::Num(crate::DEFAULT_SECONDS)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::Str(w.name().into())),
                            ("why", Json::Str(w.why().into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::Str(m.name.into())),
                            ("unit", Json::Str(m.unit.into())),
                            ("better", Json::Str(m.better.word().into())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|(name, unit, better)| {
                        Json::obj([
                            ("name", Json::Str((*name).into())),
                            ("unit", Json::Str((*unit).into())),
                            ("better", Json::Str(better.word().into())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The figures of one measured workload.
pub struct Summary {
    /// End-to-end metric values, in [`END_TO_END`] order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Sample counts and the untrimmed `*_all` diagnostics.
    pub diagnostics: BTreeMap<String, f64>,
}

fn all_quartiles(prefix: &str, values: &[f64], into: &mut BTreeMap<String, f64>) {
    if values.len() >= 2 {
        let (q1, med, q3) = quartiles(values);
        into.insert(format!("{prefix}_all.q1"), q1);
        into.insert(format!("{prefix}_all.median"), med);
        into.insert(format!("{prefix}_all.q3"), q3);
        into.insert(format!("{prefix}_all.spread"), quartile_spread(values));
    }
}

/// Reduces untraced passes to the end-to-end figures: throughput and
/// latencies pooled over the fastest [`KEEP_FRACTION`] of passes, plus
/// the untrimmed median and quartiles as `*_all` diagnostics.
pub fn summarize(m: &Measured) -> Summary {
    let (workload, passes) = (m.workload, &m.passes[..]);
    let kept = fastest(passes, KEEP_FRACTION);
    let pooled = pool(&kept, workload.tail_pct());
    let metrics = vec![
        ("setup_s", m.setup_s),
        ("throughput_per_s", pooled.throughput),
        ("latency_p50_ms", pooled.lat_p50_ms),
        ("latency_tail_ms", pooled.lat_tail_ms),
        ("peak_rss_mb", m.peak_rss_mb),
    ];
    let mut diagnostics = BTreeMap::from([
        ("passes".to_string(), passes.len() as f64),
        ("kept_passes".to_string(), pooled.passes as f64),
        ("latency_samples".to_string(), pooled.samples as f64),
        ("tail_pct".to_string(), workload.tail_pct()),
        ("samples_beyond_tail".to_string(), pooled.beyond_tail as f64),
    ]);
    let per_pass_throughput: Vec<f64> = passes.iter().map(Pass::throughput).collect();
    all_quartiles("throughput_per_s", &per_pass_throughput, &mut diagnostics);
    let per_pass_p50: Vec<f64> = passes.iter().map(|p| pool(&[p], 50.0).lat_p50_ms).collect();
    all_quartiles("latency_p50_ms", &per_pass_p50, &mut diagnostics);
    Summary {
        metrics,
        diagnostics,
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// `{name: {"value": v, "unit": u}}` for the driver and the result files.
pub fn metrics_json<'a>(metrics: impl IntoIterator<Item = (&'a str, f64)>) -> Json {
    Json::obj(metrics.into_iter().map(|(name, value)| {
        (
            name,
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit_of(name).into())),
            ]),
        )
    }))
}

/// The result-file record of one measured workload.
pub fn workload_json(m: &Measured, summary: &Summary) -> Json {
    Json::obj([
        ("correct", Json::Bool(m.failed == 0)),
        ("attempted", Json::Num(m.attempted as f64)),
        ("failed", Json::Num(m.failed as f64)),
        ("metrics", metrics_json(summary.metrics.iter().copied())),
        (
            "diagnostics",
            Json::obj(
                summary
                    .diagnostics
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v))),
            ),
        ),
        (
            "counts",
            Json::obj(
                m.counts
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v as f64))),
            ),
        ),
        // Every pass made, in order: `[timed_ns, operations]`.
        (
            "passes",
            Json::Arr(
                m.passes
                    .iter()
                    .map(|p| Json::Arr(vec![Json::Num(p.timed_ns as f64), Json::Num(p.ops as f64)]))
                    .collect(),
            ),
        ),
        (
            "notes",
            Json::Arr(m.notes.iter().map(|n| Json::Str(n.clone())).collect()),
        ),
    ])
}

/// What a result file says about where it was measured. `compare`
/// refuses to set two files side by side when `cpus`, the pool size or
/// the seed differ.
pub fn fingerprint(seed: u64, seconds: f64) -> Vec<(&'static str, Json)> {
    let run = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        (
            "harness",
            Json::Str(format!("waku-perf {}", env!("CARGO_PKG_VERSION"))),
        ),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("cpus", Json::Num(cpus as f64)),
        (
            "pool_threads",
            Json::Num(waku_pool::current_num_threads() as f64),
        ),
        ("rustc", Json::Str(run("rustc", &["-V"]))),
        ("commit", Json::Str(run("git", &["rev-parse", "HEAD"]))),
    ]
}

/// Prints one workload's end-to-end figures, names and units first.
pub fn print_summary(m: &Measured, summary: &Summary) {
    let d = &summary.diagnostics;
    println!(
        "## {} — {} passes ({} pooled), {} {} checked, {} failed",
        m.workload.name(),
        d["passes"],
        d["kept_passes"],
        m.attempted,
        m.workload.op_unit(),
        m.failed
    );
    for (name, value) in &summary.metrics {
        let note = match *name {
            "latency_p50_ms" => format!("  (n = {})", d["latency_samples"]),
            "latency_tail_ms" => format!(
                "  (p{}, n = {}, {} beyond)",
                d["tail_pct"], d["latency_samples"], d["samples_beyond_tail"]
            ),
            _ => String::new(),
        };
        println!("{name:<22} {value:>16.4} {}{note}", unit_of(name));
    }
    for prefix in ["throughput_per_s", "latency_p50_ms"] {
        if let Some(med) = d.get(&format!("{prefix}_all.median")) {
            println!(
                "{:<22} {med:>16.4} {}  (q1 {:.4}, q3 {:.4}, spread {:.1}%)",
                format!("{prefix}_all"),
                unit_of(prefix),
                d[&format!("{prefix}_all.q1")],
                d[&format!("{prefix}_all.q3")],
                d[&format!("{prefix}_all.spread")] * 100.0
            );
        }
    }
    for (name, count) in &m.counts {
        println!("count {name:<32} {count}");
    }
    for note in &m.notes {
        println!("MISS  {note}");
    }
}

/// Prints per-layer figures, names and units first.
pub fn print_layers(layers: &BTreeMap<&'static str, f64>) {
    println!("## per-layer");
    for (name, _, _) in &PER_LAYER {
        if let Some(value) = layers.get(name) {
            println!("{name:<38} {value:>16.4} {}", unit_of(name));
        }
    }
}

/// The verdict on one metric between two measurements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Worse than the bound allows.
    Regression,
    /// Better by more than the bound.
    Improved,
    /// Inside the bound, and the runs' own spread is inside it too.
    WithinBound,
    /// Inside the bound, but a run's own quartile spread exceeds it.
    Unresolved,
}

/// Judges `b` against base `a`; `spread` is the larger of the two runs'
/// own `*_all` quartile spreads, when the metric has one.
pub fn verdict(metric: &EndToEnd, a: f64, b: f64, spread: Option<f64>) -> Verdict {
    let worse_by = match metric.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    if worse_by > metric.bound {
        Verdict::Regression
    } else if worse_by < -metric.bound {
        Verdict::Improved
    } else if spread.is_some_and(|s| s > metric.bound) {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    }
}

fn spread_in(record: &Json, metric: &str) -> Option<f64> {
    // The tail has no per-pass series of its own; the median's stands in.
    let series = match metric {
        "throughput_per_s" => "throughput_per_s",
        "latency_p50_ms" | "latency_tail_ms" => "latency_p50_ms",
        _ => return None,
    };
    record
        .get("diagnostics")?
        .get(&format!("{series}_all.spread"))?
        .as_f64()
}

/// How many rows of a comparison moved beyond their bound.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Beyond {
    /// Rows worse than the bound allows.
    pub regressions: usize,
    /// Rows better by more than the bound.
    pub improvements: usize,
}

/// Sets two result documents side by side: one row per end-to-end metric
/// × workload with both values, the ratio **B ÷ A**, the bound and the
/// verdict. Returns how many rows moved beyond their bound.
pub fn compare(a: &Json, b: &Json) -> Result<Beyond, String> {
    for key in ["cpus", "pool_threads", "seed"] {
        let (va, vb) = (a.get(key), b.get(key));
        if va.is_none() || va != vb {
            return Err(format!(
                "refusing to compare: {key} differs ({va:?} vs {vb:?}); measure both on the same machine shape and seed"
            ));
        }
    }
    let empty = BTreeMap::new();
    let of = |doc: &Json| {
        doc.get("workloads")
            .and_then(Json::as_obj)
            .cloned()
            .unwrap_or(empty.clone())
    };
    let (wa, wb) = (of(a), of(b));
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "B÷A", "bound"
    );
    let mut beyond = Beyond::default();
    for workload in Workload::ALL {
        let (Some(ra), Some(rb)) = (wa.get(workload.name()), wb.get(workload.name())) else {
            continue;
        };
        for metric in &END_TO_END {
            let value = |r: &Json| r.get("metrics")?.get(metric.name)?.get("value")?.as_f64();
            let (Some(va), Some(vb)) = (value(ra), value(rb)) else {
                continue;
            };
            let spread = match (spread_in(ra, metric.name), spread_in(rb, metric.name)) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            let v = verdict(metric, va, vb, spread);
            beyond.regressions += usize::from(v == Verdict::Regression);
            beyond.improvements += usize::from(v == Verdict::Improved);
            println!(
                "{:<14} {:<18} {:>14.4} {:>14.4} {:>8.3} {:>5.0}%  {}",
                workload.name(),
                metric.name,
                va,
                vb,
                vb / va,
                metric.bound * 100.0,
                match v {
                    Verdict::Regression => "REGRESSION".to_string(),
                    Verdict::Improved => "improved".to_string(),
                    Verdict::WithinBound => "within bound".to_string(),
                    Verdict::Unresolved => format!(
                        "unresolved (own spread {:.0}% > bound)",
                        spread.unwrap_or(0.0) * 100.0
                    ),
                }
            );
        }
    }
    Ok(beyond)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let thr = &END_TO_END[1]; // throughput, higher is better, 25%
        assert_eq!(verdict(thr, 100.0, 70.0, None), Verdict::Regression);
        assert_eq!(verdict(thr, 100.0, 130.0, None), Verdict::Improved);
        assert_eq!(verdict(thr, 100.0, 95.0, Some(0.05)), Verdict::WithinBound);
        assert_eq!(verdict(thr, 100.0, 95.0, Some(0.3)), Verdict::Unresolved);
        let lat = &END_TO_END[2]; // latency, lower is better, 25%
        assert_eq!(verdict(lat, 10.0, 13.0, None), Verdict::Regression);
        assert_eq!(verdict(lat, 10.0, 7.0, None), Verdict::Improved);
        assert_eq!(verdict(lat, 10.0, 10.5, None), Verdict::WithinBound);
    }

    #[test]
    fn compare_refuses_a_different_machine_shape() {
        let doc = |cpus: f64| {
            Json::obj([
                ("cpus", Json::Num(cpus)),
                ("pool_threads", Json::Num(2.0)),
                ("seed", Json::Num(1.0)),
                ("workloads", Json::obj(Vec::<(String, Json)>::new())),
            ])
        };
        assert!(compare(&doc(2.0), &doc(4.0)).is_err());
        assert_eq!(compare(&doc(2.0), &doc(2.0)), Ok(Beyond::default()));
    }

    /// The catalogue in `perf/README.md` (layer, "moves") covers every
    /// name the harness reports.
    #[test]
    fn readme_names_every_metric_and_workload() {
        let readme =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md")).unwrap();
        let names = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .chain(Workload::ALL.iter().map(|w| w.name()));
        for name in names {
            assert!(
                readme.contains(&format!("`{name}`")),
                "{name} is not in perf/README.md"
            );
        }
    }

    /// `BENCHMARK.json` is the contract later PRs are held to; it must
    /// say exactly what the catalogue says (`waku-perf manifest`).
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let checked_in = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(checked_in, manifest());
        for workload in Workload::ALL {
            assert!(workload.why().len() <= 200 && !workload.why().contains('\n'));
        }
    }
}
