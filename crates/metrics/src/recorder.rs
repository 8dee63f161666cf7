//! The single-owner recording backend: plain (non-atomic) cells for
//! fork-join shards. One [`LocalRecorder`] per peer keeps the hot path to
//! a bare `u64` add; the owner of the peers folds them order-insensitively
//! ([`LocalRecorder::merge_from`]) when the run ends.

use std::sync::Arc;

use crate::desc::bucket_index;
use crate::layout::{CounterId, GaugeId, HistogramId, Layout};
use crate::snapshot::{HistogramValue, Snapshot};

/// Non-atomic recorder over a shared [`Layout`] — the cheapest backend
/// when a single owner records (one peer slot, one worker shard).
///
/// ```
/// use waku_metrics::{LayoutBuilder, LocalRecorder};
/// let mut b = LayoutBuilder::new();
/// let id = b.counter("ops_total", "Operations.");
/// let mut r = LocalRecorder::new(b.build());
/// r.inc(id);
/// assert_eq!(r.snapshot().scalar("ops_total"), 1);
/// ```
#[derive(Clone, Debug)]
pub struct LocalRecorder {
    layout: Arc<Layout>,
    scalars: Vec<u64>,
    histograms: Vec<HistogramValue>,
}

impl LocalRecorder {
    /// A zeroed recorder over the layout.
    pub fn new(layout: Arc<Layout>) -> Self {
        LocalRecorder {
            scalars: vec![0; layout.scalar_slots()],
            histograms: vec![HistogramValue::default(); layout.histogram_slots()],
            layout,
        }
    }

    /// The catalogue this recorder records.
    pub fn layout(&self) -> &Arc<Layout> {
        &self.layout
    }

    /// Adds 1 to a counter.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.scalars[id.0 as usize] += 1;
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.scalars[id.0 as usize] = self.scalars[id.0 as usize].wrapping_add(n);
    }

    /// Stores an absolute gauge reading.
    #[inline]
    pub fn set(&mut self, id: GaugeId, v: u64) {
        self.scalars[id.0 as usize] = v;
    }

    /// Raises a gauge to `v` if larger (high-water tracking).
    #[inline]
    pub fn fold_max(&mut self, id: GaugeId, v: u64) {
        let cell = &mut self.scalars[id.0 as usize];
        *cell = (*cell).max(v);
    }

    /// Records one histogram observation.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: u64) {
        let h = &mut self.histograms[id.0 as usize];
        h.buckets[bucket_index(value)] += 1;
        h.count += 1;
        h.sum = h.sum.wrapping_add(value);
    }

    /// Folds another recorder over the *same* layout into this one
    /// (counters/histograms add; gauges fold per descriptor). Cheaper
    /// than going through [`Snapshot::merge`] when layouts are shared —
    /// the per-peer merge at the end of a 10k-peer run.
    pub fn merge_from(&mut self, other: &LocalRecorder) {
        debug_assert!(
            Arc::ptr_eq(&self.layout, &other.layout),
            "merge_from requires recorders over the same layout"
        );
        for (desc, slot) in self.layout.entries() {
            let slot = slot as usize;
            match desc.kind {
                crate::MetricKind::Counter => {
                    self.scalars[slot] = self.scalars[slot].wrapping_add(other.scalars[slot]);
                }
                crate::MetricKind::Gauge => match desc.fold {
                    crate::GaugeFold::Sum => {
                        self.scalars[slot] = self.scalars[slot].wrapping_add(other.scalars[slot]);
                    }
                    crate::GaugeFold::Max => {
                        self.scalars[slot] = self.scalars[slot].max(other.scalars[slot]);
                    }
                },
                crate::MetricKind::Histogram => {
                    let h = other.histograms[slot].clone();
                    self.histograms[slot].merge(&h);
                }
            }
        }
    }

    /// A point-in-time view of this recorder.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::build(
            &self.layout,
            |slot| self.scalars[slot],
            |slot| self.histograms[slot].clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::desc::GaugeFold;
    use crate::layout::LayoutBuilder;

    #[test]
    fn shard_merge_matches_single_recorder() {
        let mut b = LayoutBuilder::new();
        let c = b.counter("n_total", "");
        let g = b.gauge("hw", "", GaugeFold::Max);
        let h = b.histogram("v_ms", "");
        let layout = b.build();
        let mut shards = vec![LocalRecorder::new(Arc::clone(&layout)); 3];
        let mut oracle = LocalRecorder::new(Arc::clone(&layout));
        for (i, v) in [(0usize, 5u64), (2, 9), (1, 3), (0, 9), (2, 1)] {
            for r in [&mut shards[i], &mut oracle] {
                r.inc(c);
                r.fold_max(g, v);
                r.observe(h, v);
            }
        }
        let mut merged = LocalRecorder::new(layout);
        for shard in &shards {
            merged.merge_from(shard);
        }
        assert_eq!(merged.snapshot(), oracle.snapshot());
    }
}
