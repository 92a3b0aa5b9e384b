//! In-memory spans for the traced run: name, start, end and parent.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer (workload → cell → layer call or layer replay), kept in
//! memory, and written out once when the benchmark ends. A disabled
//! tracer records nothing, so timed runs pay one branch per span.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed or open span; times are nanoseconds since the tracer began.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran: `workload`, `cell`, or a `layer.call` name.
    pub name: String,
    /// Free-form detail, such as the app and scheme of a cell.
    pub detail: String,
    /// Start, in nanoseconds since the tracer began.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer began (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Records spans as a stack: a span's parent is the innermost open span.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str, detail: impl FnOnce() -> String) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name: name.to_string(),
            detail: detail(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let idx = self.open.pop().expect("exit matches an enter");
        self.spans[idx].end_ns = now;
    }

    /// How many spans are open.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes open spans until `depth` remain (after a caught panic left
    /// some open).
    pub fn close_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.exit();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &str,
        detail: impl FnOnce() -> String,
        f: impl FnOnce() -> T,
    ) -> T {
        self.enter(name, detail);
        let out = f();
        self.exit();
        out
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name in seconds: each span's duration minus the
    /// part its children cover, summed by name.
    pub fn self_seconds(&self) -> BTreeMap<String, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(child);
            *out.entry(s.name.clone()).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// The spans as JSON lines, one object per span.
    pub fn render_jsonl(&self) -> String {
        use pfsim_analysis::Json;
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let doc = Json::obj(vec![
                ("id", Json::uint(i as u64)),
                ("name", Json::str(&s.name)),
                ("detail", Json::str(&s.detail)),
                ("start_ns", Json::uint(s.start_ns)),
                ("end_ns", Json::uint(s.end_ns)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::uint(p as u64)),
                ),
            ]);
            out.push_str(&doc.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            Span {
                name: "cell".into(),
                detail: String::new(),
                start_ns: 0,
                end_ns: 100,
                parent: None,
            },
            Span {
                name: "core.run".into(),
                detail: String::new(),
                start_ns: 10,
                end_ns: 70,
                parent: Some(0),
            },
        ];
        let own = t.self_seconds();
        assert!((own["cell"] - 40e-9).abs() < 1e-15);
        assert!((own["core.run"] - 60e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("cell", String::new, || ());
        assert!(t.spans().is_empty());
    }
}
