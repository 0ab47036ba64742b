//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer
//! started), the span that caused it and the operation it belongs to.
//! Spans stay in memory and are written out as JSON lines when the run
//! ends. A child call is replayed beside its parent's real call (the
//! program itself is not instrumented), so a layer's self time is its
//! span's duration minus the durations of its child spans.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `serve.json.decode`.
    pub name: &'static str,
    /// Operation the span belongs to.
    pub op: u64,
    /// The span that caused it.
    pub parent: Option<usize>,
    /// Start, ns since the tracer started.
    pub start_ns: u64,
    /// End, ns since the tracer started.
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    op: u64,
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 14),
            op: 0,
        }
    }

    /// Spans recorded from now on belong to operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that [`Tracer::close`] ends; returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Ends span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span id.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let id = self.open(name, parent);
        let r = std::hint::black_box(f());
        self.close(id);
        (r, id)
    }

    /// Duration (µs) of span `id`.
    pub fn micros(&self, id: usize) -> f64 {
        self.spans[id].micros()
    }

    /// Durations (µs) of spans named `name` whose parent is named `parent`.
    pub fn durations_under(&self, name: &str, parent: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.parent.is_some_and(|p| self.spans[p].name == parent))
            .map(Span::micros)
            .collect()
    }

    /// Durations (µs) of spans named `name` in operations that also
    /// recorded a span named `marker`.
    pub fn durations_in_ops_with(&self, name: &str, marker: &str) -> Vec<f64> {
        let ops: std::collections::HashSet<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == marker)
            .map(|s| s.op)
            .collect();
        self.spans
            .iter()
            .filter(|s| s.name == name && ops.contains(&s.op))
            .map(Span::micros)
            .collect()
    }

    /// Durations (µs) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }

    /// Self times (µs) of every span named `name`: duration minus the
    /// durations of its children.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut children: HashMap<usize, f64> = HashMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *children.entry(p).or_insert(0.0) += s.micros();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.micros() - children.get(&i).copied().unwrap_or(0.0))
            .collect()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"op\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}
