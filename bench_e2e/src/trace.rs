//! The traced run's span recorder: spans around the benchmark's calls
//! into each layer's public functions, kept in memory and written out
//! when the run ends.
//!
//! A disabled tracer reads no clock and records nothing, so the timed
//! runs pay one branch per span site.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Handle of an open or recorded span (`NONE` when tracing is off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// The id a disabled tracer hands out.
    pub const NONE: SpanId = SpanId(u32::MAX);
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `net.od`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start: u64,
    /// End, ns since the tracer's epoch (0 while open).
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Request id shared by the spans of one request.
    pub req: u64,
    /// Calls (or items) the span covers.
    pub items: u64,
}

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Tracer {
    /// A recorder that records when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            spans: enabled.then(|| Mutex::new(Vec::new())),
        }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&self, span: Span) -> SpanId {
        match &self.spans {
            None => SpanId::NONE,
            Some(spans) => {
                let mut spans = spans.lock().expect("span buffer poisoned");
                spans.push(span);
                SpanId(u32::try_from(spans.len() - 1).expect("fewer than 2^32 spans"))
            }
        }
    }

    /// Opens a span now; close it with [`close`](Self::close).
    pub fn open(&self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        if !self.enabled() {
            return SpanId::NONE;
        }
        let start = self.ns(Instant::now());
        self.push(Span {
            name,
            start,
            end: 0,
            parent: (parent != SpanId::NONE).then_some(parent.0),
            req,
            items: 0,
        })
    }

    /// Closes an open span now, noting how many calls it covered.
    pub fn close(&self, id: SpanId, items: u64) {
        if let (Some(spans), true) = (&self.spans, id != SpanId::NONE) {
            let end = self.ns(Instant::now());
            let mut spans = spans.lock().expect("span buffer poisoned");
            let span = &mut spans[id.0 as usize];
            span.end = end;
            span.items = items;
        }
    }

    /// Records a span whose interval the caller measured.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        start: Instant,
        end: Instant,
        items: u64,
    ) -> SpanId {
        if !self.enabled() {
            return SpanId::NONE;
        }
        let span = Span {
            name,
            start: self.ns(start),
            end: self.ns(end),
            parent: (parent != SpanId::NONE).then_some(parent.0),
            req,
            items,
        };
        self.push(span)
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.as_ref().map_or_else(Vec::new, |s| {
            s.lock().expect("span buffer poisoned").clone()
        })
    }

    /// ns since the epoch of `at` (for walls measured outside spans).
    #[must_use]
    pub fn at(&self, at: Instant) -> u64 {
        self.ns(at)
    }
}

/// Total length of the union of `[start, end)` intervals.
#[must_use]
pub fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if a < b {
                children[p as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| (s.end - s.start).saturating_sub(union_ns(kids)))
        .collect()
}

/// Per-name totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Summed duration, ns.
    pub ns: u64,
    /// Summed calls covered.
    pub items: u64,
}

impl Totals {
    /// Mean ns per covered call (0 when the layer never ran).
    #[must_use]
    pub fn ns_per_item(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.ns as f64 / self.items as f64
        }
    }
}

/// Totals per span name.
#[must_use]
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.ns += s.end - s.start;
        t.items += s.items;
    }
    out
}

/// Share of `[wall_start, wall_end)` covered by at least one span whose
/// name is in `names`.
#[must_use]
pub fn coverage(spans: &[Span], names: &[&str], wall_start: u64, wall_end: u64) -> f64 {
    let mut intervals: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| names.contains(&s.name))
        .map(|s| (s.start.max(wall_start), s.end.min(wall_end)))
        .filter(|(a, b)| a < b)
        .collect();
    let wall = wall_end.saturating_sub(wall_start);
    if wall == 0 {
        return 0.0;
    }
    union_ns(&mut intervals) as f64 / wall as f64
}

/// Median over requests of the client round trip (spans named `net`)
/// minus the in-process time of the same request (spans named in
/// `inproc` carrying the same request id); 0 without such requests.
#[must_use]
pub fn overhead_ns(spans: &[Span], net: &str, inproc: &[&str]) -> f64 {
    let mut rtt: BTreeMap<u64, u64> = BTreeMap::new();
    let mut local: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.name == net {
            *rtt.entry(s.req).or_default() += s.end - s.start;
        } else if inproc.contains(&s.name) {
            *local.entry(s.req).or_default() += s.end - s.start;
        }
    }
    let diffs: Vec<f64> = rtt
        .iter()
        .map(|(id, &t)| t as f64 - local.get(id).copied().unwrap_or(0) as f64)
        .collect();
    if diffs.is_empty() {
        0.0
    } else {
        crate::stats::median(&diffs)
    }
}

/// Writes the spans as tab-separated rows with their self times.
///
/// # Errors
///
/// I/O failures.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "id\tname\tstart_ns\tend_ns\tparent\treq\titems\tself_ns"
    )?;
    for (id, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{id}\t{}\t{}\t{}\t{parent}\t{}\t{}\t{self_ns}",
            s.name, s.start, s.end, s.req, s.items
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
            items: 1,
        }
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_ns(&mut [(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_ns(&mut []), 0);
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let spans = vec![
            span("period", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 70, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 30, 10]);
        let t = totals(&spans);
        assert_eq!((t["period"].ns, t["a"].items), (100, 1));
        assert!((coverage(&spans, &["a", "b", "c"], 0, 100) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let id = tracer.open("x", SpanId::NONE, 1);
        assert_eq!(id, SpanId::NONE);
        tracer.close(id, 3);
        assert!(tracer.spans().is_empty());
        let on = Tracer::new(true);
        let id = on.open("x", SpanId::NONE, 1);
        on.close(id, 3);
        let spans = on.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].items, 3);
        assert!(spans[0].end >= spans[0].start);
    }
}
