//! Point-in-time metric values: the one representation both recording
//! backends produce, with a deterministic order-insensitive merge and
//! Prometheus-text / JSON exposition.

use std::fmt::Write as _;
use std::sync::Arc;

use crate::desc::{bucket_bound, Desc, GaugeFold, MetricKind, BUCKET_COUNT};
use crate::layout::Layout;

/// One histogram's state: per-bucket counts (non-cumulative), the total
/// observation count, and the exact (wrapping) sum of observed values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramValue {
    /// Non-cumulative count per bucket ([`BUCKET_COUNT`] entries; bucket
    /// `i` counts values in `(2^(i-1), 2^i]`, the last bucket overflow).
    pub buckets: Vec<u64>,
    /// Total observations (= sum of `buckets`).
    pub count: u64,
    /// Wrapping sum of all observed values.
    pub sum: u64,
}

impl Default for HistogramValue {
    fn default() -> Self {
        HistogramValue {
            buckets: vec![0; BUCKET_COUNT],
            count: 0,
            sum: 0,
        }
    }
}

impl HistogramValue {
    /// Element-wise merge: buckets, count, and sum all add — exact count
    /// and sum preservation under any split of the observation stream.
    pub fn merge(&mut self, other: &HistogramValue) {
        for (d, s) in self.buckets.iter_mut().zip(&other.buckets) {
            *d = d.wrapping_add(*s);
        }
        self.count = self.count.wrapping_add(other.count);
        self.sum = self.sum.wrapping_add(other.sum);
    }
}

/// A metric's value at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// Counter or gauge reading.
    Scalar(u64),
    /// Histogram state.
    Histogram(HistogramValue),
}

/// One metric in a [`Snapshot`]: descriptor plus value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricValue {
    /// The metric's descriptor (name, help, kind, fold).
    pub desc: Desc,
    /// The recorded value.
    pub value: Value,
}

/// A point-in-time view of a metric catalogue, sorted by metric name.
///
/// Snapshots are plain data: comparable with `==` (the
/// scheduler-equivalence tests do exactly that), mergeable with
/// [`Snapshot::merge`], and renderable as Prometheus text or JSON.
/// Because every fold is commutative and associative and entries are
/// kept name-sorted, any merge tree over the same shard snapshots
/// produces an identical `Snapshot` — merge order cannot leak into
/// results.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    entries: Vec<MetricValue>,
}

impl Snapshot {
    /// Builds a snapshot from a layout and slot accessors (shared by the
    /// atomic registry and the local recorder).
    pub(crate) fn build(
        layout: &Arc<Layout>,
        scalar: impl Fn(usize) -> u64,
        histogram: impl Fn(usize) -> HistogramValue,
    ) -> Snapshot {
        let mut entries: Vec<MetricValue> = layout
            .entries()
            .map(|(desc, slot)| MetricValue {
                desc: *desc,
                value: match desc.kind {
                    MetricKind::Counter | MetricKind::Gauge => Value::Scalar(scalar(slot as usize)),
                    MetricKind::Histogram => Value::Histogram(histogram(slot as usize)),
                },
            })
            .collect();
        entries.sort_by_key(|e| e.desc.name);
        Snapshot { entries }
    }

    /// The metrics, sorted by name.
    pub fn metrics(&self) -> &[MetricValue] {
        &self.entries
    }

    /// True when the snapshot carries no metrics.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Scalar value of the named counter or gauge; 0 when the metric is
    /// absent or a histogram (lookups are for reporting, not control
    /// flow, so missing-metric is not an error).
    pub fn scalar(&self, name: &str) -> u64 {
        match self.find(name) {
            Some(MetricValue {
                value: Value::Scalar(v),
                ..
            }) => *v,
            _ => 0,
        }
    }

    /// The named histogram's state, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramValue> {
        match self.find(name) {
            Some(MetricValue {
                value: Value::Histogram(h),
                ..
            }) => Some(h),
            _ => None,
        }
    }

    fn find(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|e| e.desc.name.cmp(name))
            .ok()
            .map(|i| &self.entries[i])
    }

    /// Keeps only the metrics whose descriptor satisfies the predicate —
    /// the equivalence tests use this to drop execution-strategy metrics
    /// (barrier counts) before comparing snapshots across shard counts.
    pub fn retain(&mut self, keep: impl FnMut(&Desc) -> bool) {
        let mut keep = keep;
        self.entries.retain(|e| keep(&e.desc));
    }

    /// Folds another snapshot into this one, by metric name: counters and
    /// histograms add, gauges fold per their [`GaugeFold`]. Metrics only
    /// one side carries are kept as-is, so snapshots from different
    /// catalogues (engine + validator) combine into one exposition.
    ///
    /// Commutative and associative — `a.merge(&b)` equals `b.merge(&a)`
    /// entry for entry, and any merge tree over the same set of shard
    /// snapshots produces the same result.
    ///
    /// Metrics sharing a name must agree on kind and fold
    /// (debug-asserted); catalogues are static, so a clash is a
    /// programming error, not a runtime condition.
    pub fn merge(&mut self, other: &Snapshot) {
        let mut merged = Vec::with_capacity(self.entries.len().max(other.entries.len()));
        let (a, b) = (&self.entries, &other.entries);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].desc.name.cmp(b[j].desc.name) {
                std::cmp::Ordering::Less => {
                    merged.push(a[i].clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(b[j].clone());
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push(fold_pair(&a[i], &b[j]));
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        self.entries = merged;
    }

    /// Renders the snapshot in the Prometheus text exposition format:
    /// `# HELP` / `# TYPE` per metric, cumulative `_bucket{le="…"}`
    /// series plus `_sum` / `_count` for histograms.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for entry in &self.entries {
            let name = entry.desc.name;
            let _ = writeln!(out, "# HELP {name} {}", entry.desc.help);
            let _ = writeln!(out, "# TYPE {name} {}", entry.desc.kind.as_str());
            match &entry.value {
                Value::Scalar(v) => {
                    let _ = writeln!(out, "{name} {v}");
                }
                Value::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (i, count) in h.buckets.iter().enumerate() {
                        cumulative = cumulative.wrapping_add(*count);
                        match bucket_bound(i) {
                            Some(le) => {
                                let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                            }
                            None => {
                                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                            }
                        }
                    }
                    let _ = writeln!(out, "{name}_sum {}", h.sum);
                    let _ = writeln!(out, "{name}_count {}", h.count);
                }
            }
        }
        out
    }

    /// Renders the snapshot as one JSON object: scalars as numbers,
    /// histograms as `{"count", "sum", "buckets": [["le", n], …]}` with
    /// only non-empty buckets listed. Deterministic (name-sorted), for
    /// embedding registry dumps into experiment reports.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, entry) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": ", entry.desc.name);
            match &entry.value {
                Value::Scalar(v) => {
                    let _ = write!(out, "{v}");
                }
                Value::Histogram(h) => {
                    let _ = write!(
                        out,
                        "{{\"count\": {}, \"sum\": {}, \"buckets\": [",
                        h.count, h.sum
                    );
                    let mut first = true;
                    for (b, count) in h.buckets.iter().enumerate() {
                        if *count == 0 {
                            continue;
                        }
                        if !first {
                            out.push_str(", ");
                        }
                        first = false;
                        match bucket_bound(b) {
                            Some(le) => {
                                let _ = write!(out, "[\"{le}\", {count}]");
                            }
                            None => {
                                let _ = write!(out, "[\"+Inf\", {count}]");
                            }
                        }
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push('}');
        out
    }
}

/// Folds two same-name entries (kind/fold agreement debug-asserted).
fn fold_pair(a: &MetricValue, b: &MetricValue) -> MetricValue {
    debug_assert_eq!(a.desc.kind, b.desc.kind, "kind clash on {}", a.desc.name);
    debug_assert_eq!(a.desc.fold, b.desc.fold, "fold clash on {}", a.desc.name);
    let value = match (&a.value, &b.value) {
        (Value::Scalar(x), Value::Scalar(y)) => Value::Scalar(match a.desc {
            Desc {
                kind: MetricKind::Gauge,
                fold: GaugeFold::Max,
                ..
            } => (*x).max(*y),
            _ => x.wrapping_add(*y),
        }),
        (Value::Histogram(x), Value::Histogram(y)) => {
            let mut h = x.clone();
            h.merge(y);
            Value::Histogram(h)
        }
        // Kind clash (debug-asserted above): keep the left entry.
        _ => a.value.clone(),
    };
    MetricValue {
        desc: a.desc,
        value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LayoutBuilder;
    use crate::recorder::LocalRecorder;

    fn sample() -> (LocalRecorder, LocalRecorder) {
        let mut b = LayoutBuilder::new();
        let c = b.counter("events_total", "Events.");
        let g = b.gauge("high_water", "High water.", GaugeFold::Max);
        let h = b.histogram("latency_ms", "Latency.");
        let layout = b.build();
        let mut r1 = LocalRecorder::new(Arc::clone(&layout));
        let mut r2 = LocalRecorder::new(layout);
        r1.add(c, 3);
        r1.fold_max(g, 7);
        r1.observe(h, 100);
        r2.add(c, 4);
        r2.fold_max(g, 5);
        r2.observe(h, 2000);
        (r1, r2)
    }

    #[test]
    fn merge_is_commutative() {
        let (r1, r2) = sample();
        let mut ab = r1.snapshot();
        ab.merge(&r2.snapshot());
        let mut ba = r2.snapshot();
        ba.merge(&r1.snapshot());
        assert_eq!(ab, ba);
        assert_eq!(ab.scalar("events_total"), 7);
        assert_eq!(ab.scalar("high_water"), 7);
        assert_eq!(ab.histogram("latency_ms").unwrap().count, 2);
        assert_eq!(ab.histogram("latency_ms").unwrap().sum, 2100);
    }

    #[test]
    fn merge_unions_disjoint_catalogues() {
        let mut b1 = LayoutBuilder::new();
        let c1 = b1.counter("left_total", "");
        let mut r1 = LocalRecorder::new(b1.build());
        r1.inc(c1);
        let mut b2 = LayoutBuilder::new();
        let c2 = b2.counter("right_total", "");
        let mut r2 = LocalRecorder::new(b2.build());
        r2.add(c2, 9);
        let mut merged = r1.snapshot();
        merged.merge(&r2.snapshot());
        assert_eq!(merged.scalar("left_total"), 1);
        assert_eq!(merged.scalar("right_total"), 9);
    }

    #[test]
    fn prometheus_text_shape() {
        let (r1, _) = sample();
        let text = r1.snapshot().render_prometheus();
        assert!(text.contains("# HELP events_total Events.\n"));
        assert!(text.contains("# TYPE events_total counter\n"));
        assert!(text.contains("events_total 3\n"));
        assert!(text.contains("# TYPE latency_ms histogram\n"));
        assert!(text.contains("latency_ms_bucket{le=\"128\"} 1\n"));
        assert!(text.contains("latency_ms_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("latency_ms_sum 100\n"));
        assert!(text.contains("latency_ms_count 1\n"));
    }

    #[test]
    fn json_shape() {
        let (r1, _) = sample();
        let json = r1.snapshot().to_json();
        assert!(json.contains("\"events_total\": 3"));
        assert!(json.contains("\"latency_ms\": {\"count\": 1, \"sum\": 100"));
        assert!(json.contains("[\"128\", 1]"));
    }
}
