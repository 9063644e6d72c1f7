//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions (the program itself is not instrumented). Each span keeps
//! its name, start, end, the span that was open when it began (its parent)
//! and a run id shared by the spans of one operation (a job call, a batch
//! window, a replay). Nothing is written until [`Tracer::write_chrome`] runs
//! at the end of the benchmark.

use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    run: u64,
}

/// Records spans when enabled; every call is a no-op branch when disabled, so
/// the untraced run pays nothing but that branch.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switches recording on or off; spans already recorded are kept.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled with spans open");
        self.enabled = enabled;
    }

    pub fn begin(&mut self, name: &'static str, run: u64) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            run,
        });
        self.open.push(id);
        SpanId(id)
    }

    pub fn end(&mut self, span: SpanId) {
        if span.0 == usize::MAX {
            return;
        }
        assert_eq!(self.open.pop(), Some(span.0), "spans must close in order");
        self.spans[span.0].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Per span name: `(count, total ns, self ns)`, where self time is the
    /// span's duration minus the part covered by its direct children.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur as f64;
            e.2 += dur.saturating_sub(child_ns[i]) as f64;
        }
        out
    }

    /// Writes every span as a Chrome trace-event file (`ph: "X"` complete
    /// events, microsecond timestamps) that `chrome://tracing` or Perfetto
    /// opens directly.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        assert!(self.open.is_empty(), "trace written with spans open");
        let events: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or(-1.0, |p| p as f64);
                Value::object([
                    ("name", Value::String(s.name.to_string())),
                    ("cat", Value::String("perfbench".to_string())),
                    ("ph", Value::String("X".to_string())),
                    ("ts", Value::Number(s.start_ns as f64 / 1e3)),
                    ("dur", Value::Number((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Value::Number(1.0)),
                    ("tid", Value::Number(1.0)),
                    (
                        "args",
                        Value::object([
                            ("span", Value::Number(i as f64)),
                            ("parent", Value::Number(parent)),
                            ("run", Value::Number(s.run as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        let doc = Value::object([
            ("traceEvents", Value::Array(events)),
            ("displayTimeUnit", Value::String("ms".to_string())),
        ]);
        let text = serde::json::to_string(&doc)
            .map_err(|e| std::io::Error::other(format!("trace encoding failed: {e:?}")))?;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 1);
        let inner = t.begin("inner", 1);
        t.end(inner);
        t.end(outer);
        let s = t.summary();
        assert_eq!(s["outer"].0, 1);
        assert_eq!(s["inner"].0, 1);
        assert!(s["outer"].2 <= s["outer"].1);
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("x", 0);
        t.end(s);
        assert!(t.summary().is_empty());
    }
}
