//! `METRICS.md` is generated from what the code emits and checked here.
//!
//! Three expositions cover every series the system has: a two-peer gossip
//! network's snapshot (the engine's per-peer and network catalogues), the
//! rln-relay registry (validation pipeline and node lifecycle, which every
//! simulated router records into too) and a `waku-node` service's
//! `/metrics` text (that registry plus the service's own catalogue). The
//! test fails when `METRICS.md` differs from the catalogue they render,
//! printing the expected file and writing it to
//! `$CARGO_TARGET_TMPDIR/METRICS.md`.

mod common;

use std::collections::BTreeMap;
use std::path::Path;

use waku_suite::gossip::{Network, NetworkConfig};
use waku_suite::rln_relay::metrics::registry;

/// One series: its Prometheus type, help text and emitting layer.
struct Series {
    kind: String,
    help: String,
    layer: &'static str,
}

/// Adds every `# HELP` / `# TYPE` pair in a Prometheus exposition,
/// keeping the layer of a series already added by an earlier source.
fn collect(text: &str, layer: &'static str, catalogue: &mut BTreeMap<String, Series>) {
    let mut help = BTreeMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, text) = rest.split_once(' ').unwrap_or((rest, ""));
            help.insert(name.to_string(), text.to_string());
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE line names a kind");
            catalogue.entry(name.to_string()).or_insert_with(|| Series {
                kind: kind.to_string(),
                help: help.get(name).cloned().unwrap_or_default(),
                layer,
            });
        }
    }
}

const LAYERS: [&str; 3] = ["gossip", "rln-relay", "node"];

const HEADER: &str = "\
# Metric catalogue

Every series the system emits, generated from the code by
`tests/metric_catalogue.rs`: a two-peer gossip network's snapshot, the
rln-relay registry and a `waku-node` service's `/metrics` text.
`cargo test --test metric_catalogue` fails when this file differs and
prints the expected contents.

* **Layer** is the crate that declares the series. A simulated
  scenario's snapshot merges the `gossip` series with the `rln-relay`
  ones its routers record, without the `node_` lifecycle half.
* **Shard-dependent** marks the `engine_` prefix, which the equivalence
  tests drop before comparing snapshots across shard counts:
  `engine_shards` and `engine_barriers_total` vary with the shard
  count, while the fault-plane drop counter shares the prefix though it
  is deterministic. Every other simulator series is
  bit-identical at any shard count.

| Series | Type | Layer | Shard-dependent | Help |
|---|---|---|---|---|
";

/// The expected `METRICS.md`.
fn render() -> String {
    let mut catalogue = BTreeMap::new();

    let network = Network::new(
        NetworkConfig::builder()
            .peers(2)
            .degree(1)
            .build()
            .expect("valid net config"),
    );
    collect(
        &network.metrics_snapshot().render_prometheus(),
        "gossip",
        &mut catalogue,
    );
    collect(&registry().render_prometheus(), "rln-relay", &mut catalogue);
    let dir = common::temp_dir("metric-catalogue");
    let service = common::open_service(&dir, 6, 1, &[]);
    collect(&service.metrics_text(), "node", &mut catalogue);
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);

    let mut out = String::from(HEADER);
    for layer in LAYERS {
        for (name, s) in catalogue.iter().filter(|(_, s)| s.layer == layer) {
            let shards = if name.starts_with("engine_") {
                "yes"
            } else {
                ""
            };
            out.push_str(&format!(
                "| `{name}` | {} | {} | {shards} | {} |\n",
                s.kind,
                s.layer,
                s.help.replace('|', "\\|")
            ));
        }
    }
    out
}

#[test]
fn metrics_md_lists_every_series_the_system_emits() {
    let expected = render();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("METRICS.md");
    let actual = std::fs::read_to_string(&path).unwrap_or_default();
    if actual != expected {
        let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join("METRICS.md");
        let _ = std::fs::write(&fresh, &expected);
        panic!(
            "METRICS.md does not match the emitted catalogue; the expected \
             file (also written to {}) is:\n{expected}",
            fresh.display()
        );
    }
}
