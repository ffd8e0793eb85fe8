//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is `(name, start_ns, end_ns, parent, op_id)`; the layer is the
//! part of the name before the first dot (`core.bfs` → `core`). Spans
//! live in memory until the run ends, then go to
//! `benchmark/out/trace-<workload>.json`. A layer's *self time* is the
//! duration of its spans minus the part their child spans cover.
//!
//! A disabled tracer records nothing and costs one branch per call, so
//! the untraced run and the traced run execute the same harness code.

use std::collections::BTreeMap;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace, if any.
    pub parent: Option<u32>,
    /// Spans of one benchmark operation share this identifier.
    pub op_id: u64,
}

pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Tracer {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer for another thread of the same run (same clock origin).
    pub fn sibling(&self) -> Tracer {
        Tracer::new(self.epoch, self.enabled)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span nested under whichever span is open.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op_id: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op_id,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        r
    }

    /// Record a span whose ends were timed by the caller (requests in
    /// flight on a pipelined connection overlap, so they cannot nest on a
    /// stack). Returns its index for use as a `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        op_id: u64,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            op_id,
        });
        Some(self.spans.len() as u32 - 1)
    }

    /// Append another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time in milliseconds per layer.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(layer).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Write every span as one JSON document.
    pub fn write_json(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"workload\":\"{workload}\",\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.op_id
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_span_minus_children() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch, true);
        let at = |ms| epoch + Duration::from_millis(ms);
        let op = t.record("bench.op", 1, at(0), at(10), None);
        t.record("core.bfs", 1, at(2), at(8), op);
        let by = t.self_ms_by_layer();
        assert!((by["bench"] - 4.0).abs() < 1e-9);
        assert!((by["core"] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn nesting_and_absorb_keep_parent_links() {
        let mut a = Tracer::new(Instant::now(), true);
        a.span("bench.op", 7, |t| t.span("graph.plain.scan", 7, |_| ()));
        let mut b = a.sibling();
        b.span("bench.op", 8, |t| t.span("core.scc", 8, |_| ()));
        a.absorb(b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.spans[1].parent, Some(0));
        assert_eq!(a.spans[3].parent, Some(2));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        assert_eq!(t.span("bench.op", 1, |_| 5), 5);
        assert_eq!(t.len(), 0);
    }
}
