//! In-memory span recorder for the traced run.
//!
//! Spans nest run → stage → layer. Each records its name, start, end and
//! parent; all spans of one traced run share the run's identifier. They
//! are kept in memory and written out once, when the run ends.

use std::time::Instant;

struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Records nested spans around the calls the benchmark makes into each
/// layer.
pub struct Tracer {
    run_id: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose spans all carry `run_id`.
    pub fn new(run_id: String) -> Self {
        Tracer {
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Summed duration in seconds of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// A span's duration minus the part of it its children cover.
    fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// Writes every span as one line — id, parent, depth-indented name,
    /// start, duration and self time — to standard error.
    pub fn write_out(&self) {
        eprintln!(
            "trace {}: {} spans (id parent name start_ms dur_ms self_ms)",
            self.run_id,
            self.spans.len()
        );
        for (id, s) in self.spans.iter().enumerate() {
            let mut depth = 0;
            let mut p = s.parent;
            while let Some(i) = p {
                depth += 1;
                p = self.spans[i].parent;
            }
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            eprintln!(
                "  {id:>4} {parent:>4} {:indent$}{:<width$} {:>10.3} {:>10.3} {:>10.3}",
                "",
                s.name,
                s.start_ns as f64 / 1e6,
                (s.end_ns - s.start_ns) as f64 / 1e6,
                self.self_ns(id) as f64 / 1e6,
                indent = depth * 2,
                width = 36usize.saturating_sub(depth * 2),
            );
        }
    }
}
