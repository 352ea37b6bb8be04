//! In-memory span recorder for the traced run.
//!
//! Each span records its name, start, end, parent and a shared epoch or
//! request id. Spans are opened and closed from the benchmark's own code
//! around calls into a layer's public functions; nothing is written until
//! [`Tracer::write_jsonl`] runs at the end. Only the traced run builds a
//! tracer; the end-to-end runs make no spans at all.

use std::io::Write;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `linalg.grad_fx`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Epoch or request id shared by the spans of one unit of work.
    pub id: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

/// The span store.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: 0, parent, id });
        self.stack.push(idx);
        Open(idx)
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        let idx = open.0;
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let s = self.begin(name, id);
        let out = f();
        self.end(s);
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Sum of durations of spans named `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.dur_ns()).sum::<u64>() as f64 * 1e-9
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    /// Sum of durations of spans named `name` with id `id`, seconds.
    pub fn total_id_s(&self, name: &str, id: u64) -> f64 {
        self.named(name).filter(|s| s.id == id).map(|s| s.dur_ns()).sum::<u64>() as f64 * 1e-9
    }

    /// Summed self time of spans named `name`: each span's duration minus
    /// the part of it its direct children cover, seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.dur_ns().saturating_sub(child_ns[i]))
            .sum::<u64>() as f64
            * 1e-9
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"idx\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let outer = t.begin("outer", 0);
        let inner = t.begin("inner", 0);
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.end(inner);
        t.end(outer);
        assert!(t.total_s("outer") >= t.total_s("inner"));
        assert!(t.self_s("outer") < t.total_s("inner"));
        assert_eq!(t.spans[1].parent, Some(0));
    }
}
