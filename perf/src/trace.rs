//! Harness-side spans: recorded in memory around the calls the harness
//! makes into each layer, written out when the run ends. Spans inside the
//! program are a later issue (ROADMAP direction E).

use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span id (index into the recorder).
    pub id: u32,
    /// The span that caused this one. For ladder rungs the nesting is
    /// *declared*: the rungs are replays of one operation, not one call
    /// tree.
    pub parent: Option<u32>,
    /// Layer-qualified name, e.g. `rln.prove_message`.
    pub name: &'static str,
    /// Workload (or ladder) the span belongs to.
    pub workload: &'static str,
    /// Operation the span belongs to; spans of one operation share it.
    pub op: u64,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// The in-memory span recorder. Disabled, `record` is a branch and
/// nothing else — the harness reads its clocks either way, because the
/// latency samples need them.
pub struct Tracer {
    origin: Instant,
    /// Whether `record` keeps spans.
    pub enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that keeps nothing until enabled.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            enabled: false,
            spans: Vec::new(),
        }
    }

    /// Records a span from two clock readings the caller already took.
    pub fn record(
        &mut self,
        workload: &'static str,
        name: &'static str,
        parent: Option<u32>,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            name,
            workload,
            op,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
        });
        Some(id)
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans `keep` selects as one JSON array.
    pub fn write(&self, path: &Path, keep: impl Fn(&Span) -> bool) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self
            .spans
            .iter()
            .filter(|s| keep(s))
            .map(|s| {
                Json::obj([
                    ("id", Json::Num(f64::from(s.id))),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                    ),
                    ("name", Json::Str(s.name.into())),
                    ("workload", Json::Str(s.workload.into())),
                    ("op", Json::Num(s.op as f64)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ])
            })
            .collect();
        std::fs::write(path, Json::Arr(spans).render() + "\n")
    }
}
