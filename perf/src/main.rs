//! `waku-perf` — the repo's benchmark: end-to-end figures for the
//! publisher, the relayer (single / batched / hostile) and the gossip
//! simulator, each explained by per-layer figures. See `perf/README.md`.
//!
//! ```text
//! waku-perf bench --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--out PATH]
//! waku-perf run       [--seed N] [--seconds S] [--workload NAME] [--quick] [--out PATH]
//! waku-perf trace     [--seed N] [--workload NAME] [--out DIR]
//! waku-perf selfcheck [--seed N] [--seconds S]
//! waku-perf compare A.json B.json
//! waku-perf manifest          (prints BENCHMARK.json from the metric catalogue)
//! ```
//!
//! The harness reads no environment variables of its own and drives the
//! product crates strictly from outside, through public functions.

mod corpus;
mod fixtures;
mod json;
mod ladders;
mod layers;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::Json;
use ladders::{Findings, Metrics};
use report::{summarize, Summary};
use stats::fastest_of;
use trace::Tracer;
use waku_node::ServiceError;
use workloads::{measure, prepare, Budget, Fixtures, Measured, Workload};

/// The run length `BENCHMARK.json` fixes.
pub const DEFAULT_SECONDS: f64 = 15.0;
/// A ladder may leave this much of its top-level span unexplained.
const MAX_UNEXPLAINED_PCT: f64 = 15.0;

struct Args {
    seed: u64,
    seconds: f64,
    workload: Option<Workload>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    files: Vec<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        seed: 1,
        seconds: DEFAULT_SECONDS,
        workload: None,
        trace: false,
        quick: false,
        out: None,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?;
            }
            "--seconds" => {
                parsed.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--workload" => {
                let name = value("a name")?;
                parsed.workload = Some(Workload::from_name(name).ok_or_else(|| {
                    let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?);
            }
            "--trace" => {
                parsed.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                };
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(PathBuf::from(value("a path")?)),
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            file => parsed.files.push(PathBuf::from(file)),
        }
    }
    Ok(parsed)
}

fn selected(args: &Args) -> Vec<Workload> {
    args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w])
}

/// Prepares and measures one workload without tracing.
fn measure_untraced(
    workload: Workload,
    fixtures: &mut Fixtures,
    budget: Budget,
) -> Result<(Measured, Summary), ServiceError> {
    let (mut runner, setup_s) = prepare(workload, fixtures)?;
    let m = measure(
        workload,
        runner.as_mut(),
        setup_s,
        budget,
        &mut Tracer::new(),
        false,
    )?;
    let summary = summarize(&m);
    Ok((m, summary))
}

/// Every per-layer figure except the tracing overhead: the stand-alone
/// probes and the three ladders, with what they found wrong.
fn all_layers(
    fixtures: &mut Fixtures,
    tracer: &mut Tracer,
    out: &mut Metrics,
) -> Result<Findings, ServiceError> {
    let mut findings = Findings::default();
    let seed = fixtures.seed;
    let relay = fixtures.relay()?;
    layers::arithmetic(seed, out);
    layers::plumbing(seed, out);
    layers::relay_side(&relay, &fixtures.scratch, seed, out);
    ladders::publish_ladder(&fixtures.scratch, seed, tracer, out, &mut findings)?;
    ladders::relay_single_ladder(&relay, &fixtures.scratch, tracer, out, &mut findings)?;
    ladders::relay_batch_ladder(&relay, &fixtures.scratch, tracer, out, &mut findings)?;
    layers::gossip_side(seed, out["snark.verify_single_ms"], out, &mut findings);
    for (name, value) in out.iter() {
        if name.ends_with(".unexplained_pct") && *value > MAX_UNEXPLAINED_PCT {
            findings.gates.push(format!(
                "{name} = {value:.1}: the ladder leaves more than {MAX_UNEXPLAINED_PCT}% of its top-level span unexplained"
            ));
        }
    }
    Ok(findings)
}

/// Traced passes of one workload, interleaved with untraced ones; adds
/// the overhead figures to `out`.
fn measure_traced(
    workload: Workload,
    fixtures: &mut Fixtures,
    budget: Budget,
    tracer: &mut Tracer,
    out: &mut Metrics,
) -> Result<Measured, ServiceError> {
    let (mut runner, setup_s) = prepare(workload, fixtures)?;
    let m = measure(workload, runner.as_mut(), setup_s, budget, tracer, true)?;
    let pass_ms = |passes: &[stats::Pass]| {
        fastest_of(
            &passes
                .iter()
                .map(|p| p.timed_ns as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    let (plain, traced) = (pass_ms(&m.passes), pass_ms(&m.traced_passes));
    out.insert("trace.overhead_pct", (traced / plain - 1.0) * 100.0);
    out.insert("trace.spans", tracer.spans().len() as f64);
    Ok(m)
}

fn results_dir() -> PathBuf {
    fixtures::target_dir().join("results")
}

fn write_file(path: &Path, text: String) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The driver's entry point: one workload, one JSON object as the last
/// line of standard output.
fn bench(args: &Args) -> Result<bool, String> {
    let workload = args.workload.ok_or("bench needs --workload")?;
    let mut fixtures = Fixtures::new(args.seed).map_err(|e| e.to_string())?;
    let (m, metrics) = if args.trace {
        fixtures.relay().map_err(|e| e.to_string())?;
        let started = Instant::now();
        let mut tracer = Tracer::new();
        let mut layers = Metrics::new();
        let findings =
            all_layers(&mut fixtures, &mut tracer, &mut layers).map_err(|e| e.to_string())?;
        // The probes and ladders are part of the measuring time.
        let left = (args.seconds - started.elapsed().as_secs_f64()).max(0.0);
        let mut m = measure_traced(
            workload,
            &mut fixtures,
            Budget::Seconds(left),
            &mut tracer,
            &mut layers,
        )
        .map_err(|e| e.to_string())?;
        m.failed += findings.wrong.len() as u64;
        m.notes.extend(findings.wrong);
        // Reconciliation is a statement about the measurement, not about
        // the program's outputs: `trace` gates on it, the driver's run
        // only reports it.
        for gate in &findings.gates {
            eprintln!("NOTE  {gate}");
        }
        report::print_layers(&layers);
        let spans = results_dir().join(format!("trace-{}.json", workload.name()));
        tracer.write(&spans, |_| true).map_err(|e| e.to_string())?;
        let listed: Vec<(&str, f64)> = report::PER_LAYER
            .iter()
            .map(|(name, _, _)| {
                (
                    *name,
                    *layers
                        .get(name)
                        .unwrap_or_else(|| panic!("{name} was not measured")),
                )
            })
            .collect();
        (m, report::metrics_json(listed))
    } else {
        let budget = if args.quick {
            Budget::Passes(2)
        } else {
            Budget::Seconds(args.seconds)
        };
        let (m, summary) =
            measure_untraced(workload, &mut fixtures, budget).map_err(|e| e.to_string())?;
        report::print_summary(&m, &summary);
        if let Some(out) = &args.out {
            write_file(out, report::workload_json(&m, &summary).render() + "\n")?;
        }
        let metrics = report::metrics_json(summary.metrics.iter().copied());
        (m, metrics)
    };
    for note in &m.notes {
        eprintln!("MISS  {note}");
    }
    drop(fixtures);
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(m.failed == 0)),
            ("attempted", Json::Num(m.attempted as f64)),
            ("failed", Json::Num(m.failed as f64)),
            ("metrics", metrics),
        ])
        .render()
    );
    // A printed result is a completed run; the driver reads `correct`.
    Ok(true)
}

/// Measures one workload the way the driver does — `bench` in a process
/// of its own, so its set-up time and peak resident set are a solo run's
/// — and returns the full record the child wrote.
fn bench_in_child(workload: Workload, args: &Args) -> Result<Json, String> {
    let record = results_dir().join(format!(
        "record-{}-{}.json",
        std::process::id(),
        workload.name()
    ));
    let mut child = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    child
        .args(["bench", "--trace", "0", "--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .arg("--out")
        .arg(&record);
    if args.quick {
        child.arg("--quick");
    }
    let output = child
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {} run: {e}", workload.name()))?;
    // Everything but the last line, which is the driver's.
    let stdout = String::from_utf8_lossy(&output.stdout);
    let shown = stdout
        .trim_end()
        .rsplit_once('\n')
        .map_or("", |(shown, _)| shown);
    println!("{shown}\n");
    if !output.status.success() {
        return Err(format!(
            "the {} run failed ({})",
            workload.name(),
            output.status
        ));
    }
    let text =
        std::fs::read_to_string(&record).map_err(|e| format!("{}: {e}", record.display()))?;
    let _ = std::fs::remove_file(&record);
    Json::parse(&text)
}

/// One full set: every selected workload untraced, each in a process of
/// its own, then (optionally) the per-layer figures. Returns the result
/// document and whether everything was correct.
fn run_set(args: &Args, with_layers: bool) -> Result<(Json, bool), String> {
    let mut correct = true;
    let mut records = Vec::new();
    for workload in selected(args) {
        let record = bench_in_child(workload, args)?;
        correct &= record.get("correct") == Some(&Json::Bool(true));
        records.push((workload.name(), record));
    }
    let mut doc = report::fingerprint(args.seed, args.seconds);
    doc.push(("workloads", Json::obj(records)));
    if with_layers {
        let mut fixtures = Fixtures::new(args.seed).map_err(|e| e.to_string())?;
        let mut layers = Metrics::new();
        let findings = all_layers(&mut fixtures, &mut Tracer::new(), &mut layers)
            .map_err(|e| e.to_string())?;
        report::print_layers(&layers);
        // `run` reports the ladders; only `trace` gates on them.
        for gate in &findings.gates {
            println!("NOTE  {gate}");
        }
        for wrong in &findings.wrong {
            println!("MISS  {wrong}");
        }
        correct &= findings.wrong.is_empty();
        doc.push((
            "layers",
            report::metrics_json(layers.iter().map(|(k, v)| (*k, *v))),
        ));
    }
    Ok((Json::obj(doc), correct))
}

fn run(args: &Args) -> Result<bool, String> {
    let (doc, correct) = run_set(args, true)?;
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| results_dir().join(format!("run-seed{}.json", args.seed)));
    write_file(&out, doc.render() + "\n")?;
    println!("\nresult file: {}", out.display());
    Ok(correct)
}

/// The separate traced run: per-layer figures, the three ladders with
/// their reconciliation gate, and three traced passes of every workload.
fn trace(args: &Args) -> Result<bool, String> {
    let mut fixtures = Fixtures::new(args.seed).map_err(|e| e.to_string())?;
    let mut tracer = Tracer::new();
    let mut layers = Metrics::new();
    let findings =
        all_layers(&mut fixtures, &mut tracer, &mut layers).map_err(|e| e.to_string())?;
    let mut failures: Vec<String> = findings.wrong.into_iter().chain(findings.gates).collect();
    report::print_layers(&layers);
    println!();
    for workload in selected(args) {
        let mut own = Metrics::new();
        // Six passes: three traced, three untraced, interleaved.
        let m = measure_traced(
            workload,
            &mut fixtures,
            Budget::Passes(6),
            &mut tracer,
            &mut own,
        )
        .map_err(|e| e.to_string())?;
        println!(
            "{:<14} trace.overhead_pct {:>8.2} %   ({} passes, {} checked, {} failed)",
            workload.name(),
            own["trace.overhead_pct"],
            m.passes.len() + m.traced_passes.len(),
            m.attempted,
            m.failed
        );
        failures.extend(m.notes.iter().map(|n| format!("{}: {n}", workload.name())));
        // One file per workload: its own spans and its ladder's.
        let spans = args
            .out
            .clone()
            .unwrap_or_else(results_dir)
            .join(format!("trace-{}.json", workload.name()));
        tracer
            .write(&spans, |s| s.workload.ends_with(workload.name()))
            .map_err(|e| e.to_string())?;
    }
    println!("\nspans recorded: {}", tracer.spans().len());
    for failure in &failures {
        println!("FAIL  {failure}");
    }
    Ok(failures.is_empty())
}

/// Two full sets of the same code, set side by side against the bounds:
/// a gap beyond a bound in either direction is noise the bound does not
/// cover.
fn selfcheck(args: &Args) -> Result<bool, String> {
    println!("# set A\n");
    let (a, correct_a) = run_set(args, false)?;
    println!("# set B\n");
    let (b, correct_b) = run_set(args, false)?;
    println!("# A against B (same code; every row should be within its bound)\n");
    let beyond = report::compare(&a, &b)?;
    println!(
        "\nrows beyond their bound: {}",
        beyond.regressions + beyond.improvements
    );
    Ok(correct_a && correct_b && beyond.regressions + beyond.improvements == 0)
}

fn compare(args: &Args) -> Result<bool, String> {
    let [a, b] = &args.files[..] else {
        return Err("compare needs exactly two result files".into());
    };
    let load = |path: &PathBuf| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{}: {e}", path.display()))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{}: {e}", path.display())))
    };
    Ok(report::compare(&load(a)?, &load(b)?)?.regressions == 0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("usage: waku-perf bench|run|trace|selfcheck|compare … (see perf/README.md)");
        return ExitCode::from(2);
    };
    let outcome = parse(rest).and_then(|args| match command.as_str() {
        "bench" => bench(&args),
        "run" => run(&args),
        "trace" => trace(&args),
        "selfcheck" => selfcheck(&args),
        "compare" => compare(&args),
        "manifest" => {
            println!("{}", report::manifest().render());
            Ok(true)
        }
        other => Err(format!("unknown command {other}")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("waku-perf: outputs differ from the oracle (see MISS / FAIL lines)");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("waku-perf: {message}");
            ExitCode::from(2)
        }
    }
}
