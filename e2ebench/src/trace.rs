//! In-memory span recorder for the traced run.
//!
//! Each span keeps its name, start, end, parent span and request id. Spans
//! are appended to a vector while the run measures and written out once it
//! ends, so recording costs two clock reads and a push per span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in the recorder.
pub type SpanId = usize;

struct Span {
    name: &'static str,
    request: u64,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

/// Records nested spans from one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

/// Per span name: how many spans, their summed duration and their summed
/// self time (duration minus the time covered by child spans).
#[derive(Default, Clone, Copy)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, request: u64) -> SpanId {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: SpanId) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Totals per span name. Spans from one thread nest and never
    /// overlap their siblings, so a parent's self time is its duration
    /// minus the sum of its children's durations.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let t = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(children);
        }
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as tab-separated lines: id, parent (`-` for a root),
    /// request, name, start and end in nanoseconds since the recorder
    /// was created.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\trequest\tname\tstart_ns\tend_ns\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.request, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Mean cost of recording one span (a `begin`/`end` pair) on a fresh
/// recorder, in nanoseconds: the tracing overhead a read pays per span,
/// measured directly rather than as a difference of two noisy latencies.
pub fn span_cost_ns() -> f64 {
    const PAIRS: usize = 100_000;
    let mut t = Tracer::new();
    let start = Instant::now();
    for i in 0..PAIRS {
        let id = t.begin("calibrate", i as u64);
        t.end(id);
    }
    let ns = start.elapsed().as_nanos() as f64;
    std::hint::black_box(&t);
    ns / PAIRS as f64
}
