//! In-memory span recorder for the traced run.
//!
//! A span wraps one call from the benchmark into a layer's public function:
//! name (`<layer>.<call>`), start, end, the enclosing span and the op it
//! belongs to. Spans stay in memory while the run measures and are written
//! out (Chrome trace-event JSON) once it ends. With tracing off, [`span`]
//! costs one thread-local flag read.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Op index, or `None` for set-up and probe work.
    pub op: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: Option<usize>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        on: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
        op: None,
    });
}

/// Turn recording on or off.
pub fn set_enabled(on: bool) {
    TRACER.with(|t| t.borrow_mut().on = on);
}

/// Tag subsequent spans with op `op` (`None` = set-up or probe work).
pub fn set_op(op: Option<usize>) {
    TRACER.with(|t| t.borrow_mut().op = op);
}

/// Run `f` inside a span named `name` (a no-op wrapper when tracing is off).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return None;
        }
        let id = t.spans.len();
        let start_ns = t.epoch.elapsed().as_nanos() as u64;
        let (parent, op) = (t.stack.last().copied(), t.op);
        t.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
        t.stack.push(id);
        Some(id)
    });
    let out = f();
    if let Some(id) = id {
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            t.spans[id].end_ns = t.epoch.elapsed().as_nanos() as u64;
            t.stack.pop();
        });
    }
    out
}

/// Take every recorded span, leaving the recorder empty.
pub fn take() -> Vec<Span> {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().spans))
}

/// Per-name call count and total duration (ns).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (usize, u64)> {
    let mut out: BTreeMap<&'static str, (usize, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
    }
    out
}

/// Self time per layer (ns) over the spans `keep` selects: each span's
/// duration minus the part its direct children cover. Children never overlap
/// each other (calls are sequential), so summing their durations is exact.
pub fn self_time_by_layer(
    spans: &[Span],
    keep: impl Fn(&Span) -> bool,
) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns).filter(|(s, _)| keep(s)) {
        *out.entry(s.layer()).or_default() += s.dur_ns().saturating_sub(c);
    }
    out
}

/// Chrome trace-event JSON (opens in Perfetto or `chrome://tracing`).
pub fn to_chrome_json(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{},\"op\":{}}}}}",
                s.name,
                s.layer(),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.parent.map_or("null".into(), |p| p.to_string()),
                s.op.map_or("null".into(), |o| o.to_string()),
            )
        })
        .collect();
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}
