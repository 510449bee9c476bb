//! Spans recorded by the harness around each call into a layer.
//!
//! The library is not instrumented: a span is opened here, before a public
//! call, and closed after it. Calls the library makes back into the harness
//! (the storage wrapper of the traced serve run) open child spans, so a
//! write's self time is its duration minus the time spent in storage.
//!
//! Every timed call goes through [`Tracer::span`] in both kinds of run; the
//! untraced run differs only in that the span is not kept.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer was made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one operation.
    pub op: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug, Default)]
struct Log {
    recording: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

/// Totals of the spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// `total_ns` minus the part covered by child spans.
    pub self_ns: u64,
}

/// Handle to the in-memory span list; clones share it.
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    log: Arc<Mutex<Log>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            log: Arc::default(),
        }
    }
}

impl Tracer {
    fn log(&self) -> MutexGuard<'_, Log> {
        // A panic inside a traced closure ends the run anyway; the list is
        // valid at every step, so a poisoned lock is still readable.
        self.log.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Keep (or stop keeping) the spans opened from now on.
    pub fn set_recording(&self, on: bool) {
        self.log().recording = on;
    }

    /// Start the next operation: spans opened from now on carry its id.
    pub fn next_op(&self) {
        self.log().op += 1;
    }

    /// Run `f` inside a span called `name`; returns its result and how
    /// long it took in seconds.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let start = Instant::now();
        let index = {
            let mut log = self.log();
            log.recording.then(|| {
                let index = log.spans.len();
                let span = Span {
                    name,
                    start_ns: (start - self.epoch).as_nanos() as u64,
                    end_ns: 0,
                    parent: log.open.last().copied(),
                    op: log.op,
                };
                log.spans.push(span);
                log.open.push(index);
                index
            })
        };
        let result = f();
        let elapsed = start.elapsed();
        if let Some(index) = index {
            let mut log = self.log();
            log.spans[index].end_ns = log.spans[index].start_ns + elapsed.as_nanos() as u64;
            log.open.pop();
        }
        (result, elapsed.as_secs_f64())
    }

    /// The spans kept so far.
    pub fn spans(&self) -> Vec<Span> {
        self.log().spans.clone()
    }
}

/// Per-name totals with self time, and the share of the root spans' time
/// that the self times add up to (1 when spans nest properly).
pub fn summarize(spans: &[Span]) -> (BTreeMap<&'static str, NameTotals>, f64) {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    let (mut root_ns, mut self_sum) = (0u64, 0u64);
    for (i, s) in spans.iter().enumerate() {
        let self_ns = s.duration_ns().saturating_sub(child_ns[i]);
        let t = by_name.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
        self_sum += self_ns;
        if s.parent.is_none() {
            root_ns += s.duration_ns();
        }
    }
    let coverage = if root_ns == 0 {
        1.0
    } else {
        self_sum as f64 / root_ns as f64
    };
    (by_name, coverage)
}

/// The trace file: every span, the per-name totals, and the run's layer
/// metrics (`counts`, already rendered as a JSON object).
pub fn to_json(workload: &str, seed: u64, spans: &[Span], counts: &str) -> String {
    let (by_name, coverage) = summarize(spans);
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"self_time_coverage\": {coverage},\n \"self_time\": {{"
    );
    for (i, (name, t)) in by_name.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n  \"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
            t.count, t.total_ns, t.self_ns
        );
    }
    let _ = write!(out, "\n }},\n \"metrics\": {counts},\n \"spans\": [");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{sep}\n  {{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
            s.name, s.start_ns, s.end_ns, s.op
        );
    }
    out.push_str("\n ]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_give_self_time() {
        let t = Tracer::default();
        t.set_recording(true);
        t.next_op();
        t.span("outer", || {
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner", || ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].op, 1);
        let (by_name, coverage) = summarize(&spans);
        assert_eq!(by_name["inner"].count, 2);
        let outer = by_name["outer"];
        assert_eq!(outer.self_ns, outer.total_ns - by_name["inner"].total_ns);
        assert!((coverage - 1.0).abs() < 1e-9);
    }

    #[test]
    fn nothing_is_kept_while_recording_is_off() {
        let t = Tracer::default();
        let (v, secs) = t.span("x", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }
}
