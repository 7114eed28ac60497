//! In-memory layer spans for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions (the program itself is not instrumented), kept
//! in memory, and written once when the benchmark exits. A layer's self
//! time is its span time minus the part of that interval its child spans
//! cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start the root span of request `request`.
    pub fn begin_request(&mut self, request: u64) {
        self.request = request;
        self.enter("request");
    }

    pub fn enter(&mut self, name: &'static str) {
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request: self.request,
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn exit(&mut self) {
        let idx = self.open.pop().expect("exit matches an enter");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Record a finished span whose bounds the caller measured itself (a
    /// serve round trip timed on a client thread).
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: None,
            request,
        });
    }

    /// Per span name: (total seconds, self seconds, span count).
    pub fn layer_times(&self) -> BTreeMap<&'static str, (f64, f64, u64)> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, (f64, f64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = s.end_ns - s.start_ns;
            let covered = covered_ns(s, children[i].iter().map(|&c| &self.spans[c]));
            let e = out.entry(s.name).or_insert((0.0, 0.0, 0));
            e.0 += total as f64 / 1e9;
            e.1 += (total - covered) as f64 / 1e9;
            e.2 += 1;
        }
        out
    }

    /// JSON lines, one span per line, in recording order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out
    }
}

/// Length of the union of the children's intervals, clipped to `parent`.
fn covered_ns<'a>(parent: &Span, children: impl Iterator<Item = &'a Span>) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    covered
}

/// Run `f` inside a span named `name` when tracing; untraced runs pay one
/// branch and no clock read.
pub fn span<R>(tr: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(t) => {
            t.enter(name);
            let r = f();
            t.exit();
            r
        }
        None => f(),
    }
}
