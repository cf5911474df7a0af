//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a name, start and end (ns since the tracer started),
//! the span that encloses it, and the request it serves. Spans stay in
//! memory and are written out once the run ends. A disabled tracer
//! records nothing, so the timed runs pay one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

impl Span {
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: Option<u64>) -> SpanId {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let end = self.now_ns();
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        self.spans[id].end_ns = end;
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus its children's. Spans
/// close innermost first, so children never overlap or outlast their
/// parent.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration_ns().saturating_sub(kids))
        .collect()
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean duration per call in `unit_ns` units (0 when never called).
    #[must_use]
    pub fn mean(&self, unit_ns: f64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / unit_ns
        }
    }
}

#[must_use]
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += own;
    }
    out
}

/// The spans as JSON lines, one object per span.
#[must_use]
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for (id, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let request = s
            .request
            .map_or_else(|| "null".to_owned(), |r| r.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{request}}}",
            s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: Some(1),
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("decision", 0, 100, None),
            span("plan", 10, 40, Some(0)),
            span("allocate", 50, 60, Some(0)),
            span("inner", 15, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![60, 25, 10, 5]);
    }

    #[test]
    fn tracer_nests_and_totals() {
        let mut t = Tracer::new(true);
        let root = t.enter("decision", Some(7));
        let child = t.enter("plan", Some(7));
        t.exit(child);
        t.exit(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let tot = totals(spans);
        assert_eq!(tot["decision"].calls, 1);
        assert_eq!(
            tot["decision"].self_ns + tot["plan"].total_ns,
            tot["decision"].total_ns
        );
        assert!(to_jsonl(spans).contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("decision", None);
        assert_eq!(id, None);
        t.exit(id);
        assert!(t.spans().is_empty());
    }
}
