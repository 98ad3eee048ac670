//! The benchmark's own span recorder. Spans are opened and closed by the
//! replay driver around each call into a layer, kept in memory, and
//! written out as JSON lines when the run ends. With recording off every
//! call is a no-op, so the same driver measures the tracing overhead.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::stats::{self_time, Interval};

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was called (`"encode"`, `"apply"`, ...).
    pub name: &'static str,
    /// The layer the call belongs to; `None` for the driver's own
    /// grouping spans (seeding, epoch), whose self time is unclaimed.
    pub layer: Option<&'static str>,
    /// Start, in nanoseconds since the recorder was created.
    pub start: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Epoch the span belongs to (0 for the seeding migration).
    pub epoch: u64,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Open(Option<usize>);

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on: false` records nothing.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, layer: Option<&'static str>, epoch: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let index = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            layer,
            start,
            end: start,
            parent: self.stack.last().copied(),
            epoch,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Closes `open` (and anything still open inside it).
    pub fn close(&mut self, open: Open) {
        let Open(Some(index)) = open else {
            return;
        };
        let end = self.now();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end = end;
            if top == index {
                break;
            }
        }
    }

    /// Consumes the recorder, yielding its spans in open order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Writes `spans` as JSON lines, one object per span.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for (id, s) in spans.iter().enumerate() {
        let layer = s.layer.map_or("null".to_string(), |l| format!("\"{l}\""));
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"layer\":{layer},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"epoch\":{}}}",
            s.name, s.start, s.end, s.epoch
        )?;
    }
    Ok(())
}

/// Self time per `layer.name` and per layer, plus the totals the
/// accounting identity needs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Breakdown {
    /// `"layer.name"` → self nanoseconds.
    pub calls: BTreeMap<String, u64>,
    /// `layer` → self nanoseconds.
    pub layers: BTreeMap<&'static str, u64>,
    /// Σ self time of every layer span.
    pub claimed: u64,
    /// Duration of every root span of `name`, in recording order.
    pub roots: BTreeMap<&'static str, Vec<u64>>,
}

impl Breakdown {
    /// Self nanoseconds of `layer.name` (0 when never called).
    pub fn self_nanos(&self, key: &str) -> u64 {
        self.calls.get(key).copied().unwrap_or(0)
    }

    /// Self nanoseconds of a whole layer.
    pub fn layer_nanos(&self, layer: &str) -> u64 {
        self.layers.get(layer).copied().unwrap_or(0)
    }
}

/// Folds spans into per-call and per-layer self times.
pub fn breakdown(spans: &[Span]) -> Breakdown {
    let mut children: Vec<Vec<Interval>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out = Breakdown::default();
    for (i, s) in spans.iter().enumerate() {
        if s.parent.is_none() {
            out.roots.entry(s.name).or_default().push(s.end - s.start);
        }
        let Some(layer) = s.layer else {
            continue;
        };
        let own = self_time((s.start, s.end), &children[i]);
        *out.calls.entry(format!("{layer}.{}", s.name)).or_default() += own;
        *out.layers.entry(layer).or_default() += own;
        out.claimed += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        layer: Option<&'static str>,
        start: u64,
        end: u64,
        parent: Option<usize>,
    ) -> Span {
        Span {
            name,
            layer,
            start,
            end,
            parent,
            epoch: 1,
        }
    }

    #[test]
    fn layer_self_times_plus_residual_equal_the_root() {
        let spans = [
            span("epoch", None, 0, 100, None),
            span("encode", Some("dataplane"), 10, 50, Some(0)),
            span("lanes", Some("telemetry"), 20, 30, Some(1)),
            span("apply", Some("dataplane"), 60, 90, Some(0)),
        ];
        let b = breakdown(&spans);
        assert_eq!(b.self_nanos("dataplane.encode"), 30);
        assert_eq!(b.self_nanos("telemetry.lanes"), 10);
        assert_eq!(b.layer_nanos("dataplane"), 60);
        assert_eq!(b.claimed, 70);
        assert_eq!(b.roots["epoch"], vec![100]);
        // 30 ns of the root are claimed by no layer.
        assert_eq!(crate::stats::residual_pct(100, b.claimed), 30.0);
    }

    #[test]
    fn recorder_nests_and_closes_inner_spans() {
        let mut t = Tracer::new(true);
        let root = t.open("epoch", None, 3);
        let inner = t.open("harvest", Some("transfer"), 3);
        let _leaked = t.open("advance", Some("workloads"), 3);
        t.close(root);
        // Closing an already-closed span is harmless.
        t.close(inner);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.end >= s.start));
        let mut buf = Vec::new();
        write_jsonl(&spans, &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 3);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.open("epoch", None, 1);
        t.close(s);
        assert!(t.into_spans().is_empty());
    }
}
