//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans are kept in memory and written out (as JSON) only when the run
//! ends.  A span's *self time* is its duration minus the part of its
//! interval its child spans cover; spans of one operation share `op`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = u32;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<layer>.<part>`, e.g. `runtime.exec`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Operation the span belongs to (0 = set-up, outside any operation).
    pub op: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name aggregate over a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of durations (ns).
    pub total_ns: u64,
    /// Sum of self times (ns).
    pub self_ns: u64,
}

impl NameTotals {
    /// Mean span duration in milliseconds (`0.0` without spans).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e6
        }
    }
}

/// In-memory span store.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// Empty trace whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished interval.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            op,
        };
        self.spans.push(span);
        (self.spans.len() - 1) as SpanId
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.duration_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// The trace as one JSON document:
    /// `{"unit":"ns","spans":[{"id","name","start","end","parent","op"},…]}`.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(64 + self.spans.len() * 96);
        s.push_str("{\"unit\":\"ns\",\"spans\":[");
        for (id, span) in self.spans.iter().enumerate() {
            if id > 0 {
                s.push(',');
            }
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            // Span names are `&'static str` literals over [A-Za-z0-9_.-],
            // so they need no escaping.
            write!(
                s,
                "\n{{\"id\":{id},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"op\":{}}}",
                span.name, span.start_ns, span.end_ns, span.op
            )
            .expect("writing to a String cannot fail");
        }
        s.push_str("\n]}\n");
        s
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals, each clipped to the parent (siblings may overlap; nested
/// grandchildren count against their own parent only).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent.and_then(|p| spans.get(p as usize)) {
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            if end > start {
                children[span.parent.expect("checked above") as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_with_sibling_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 30, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 40]);
    }

    #[test]
    fn self_time_with_nested_children() {
        // op ⊃ a ⊃ b: b counts against a only, never twice against op.
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 90, Some(0)),
            span("b", 20, 50, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 50, 30]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        let spans = vec![
            span("op", 10, 110, None),
            span("a", 20, 60, Some(0)),
            span("b", 40, 80, Some(0)),   // overlaps a
            span("c", 100, 200, Some(0)), // overhangs the parent's end
            span("d", 0, 5, Some(0)),     // entirely outside
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn totals_group_by_name() {
        let mut t = Tracer::new();
        let t0 = t.origin;
        let at = |ns: u64| t0 + std::time::Duration::from_nanos(ns);
        let op = t.record("op", None, 1, at(0), at(100));
        t.record("part", Some(op), 1, at(0), at(40));
        t.record("part", Some(op), 1, at(40), at(100));
        let totals = t.totals();
        assert_eq!(
            totals["op"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 0
            }
        );
        assert_eq!(totals["part"].count, 2);
        assert_eq!(totals["part"].total_ns, 100);
        assert!((totals["part"].mean_ms() - 50e-6).abs() < 1e-12);
    }

    #[test]
    fn json_lists_every_span_with_its_parent() {
        let mut t = Tracer::new();
        let now = Instant::now();
        let op = t.record("op", None, 7, now, now);
        t.record("runtime.exec", Some(op), 7, now, now);
        let json = t.to_json();
        assert!(json.starts_with("{\"unit\":\"ns\",\"spans\":["));
        assert!(json.contains("\"name\":\"op\""));
        assert!(json.contains("\"parent\":null,\"op\":7"));
        assert!(json.contains("\"name\":\"runtime.exec\""));
        assert!(json.contains("\"parent\":0,\"op\":7"));
        assert_eq!(json.matches("\"id\":").count(), 2);
    }
}
