//! In-memory span recorder for the traced run.
//!
//! Spans are taken by the benchmark around its own calls into the
//! program's public functions — nothing inside the program is
//! instrumented. Each span records its name, request id, parent span,
//! start and end; spans stay in memory and are written out once, when
//! the run ends. A span's self time is its duration minus the part its
//! child spans cover (children of one parent never overlap, because the
//! replays that open them are sequential).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name (`simulate.run`, `zx.extract`, …).
    pub name: &'static str,
    /// Step, instance or job the span belongs to.
    pub req: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Nanoseconds since the trace started.
    pub start_ns: u64,
    /// Nanoseconds since the trace started.
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans plus the exact work counters recorded at the same boundaries.
#[derive(Debug)]
pub struct Trace {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    req: u64,
    /// Deterministic counters (sums or maxima over fixed input sets).
    pub counters: BTreeMap<&'static str, f64>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Trace {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
            counters: BTreeMap::new(),
        }
    }

    /// Sets the request id later spans carry.
    pub fn request(&mut self, req: u64) {
        self.req = req;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> T) -> T {
        let idx = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            req: self.req,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.ns(Instant::now());
        out
    }

    /// Records an already-measured interval (used where the measured
    /// events arrive interleaved, as frames from the service do).
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        self.spans.len() - 1
    }

    /// Adds `delta` to a counter.
    pub fn add(&mut self, name: &'static str, delta: f64) {
        *self.counters.entry(name).or_insert(0.0) += delta;
    }

    /// Raises a counter to at least `value`.
    pub fn max(&mut self, name: &'static str, value: f64) {
        let c = self.counters.entry(name).or_insert(value);
        *c = c.max(value);
    }

    /// Self time of every span, in nanoseconds, indexed like the spans.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Self times (µs) of every span named `name`.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| ns as f64 / 1e3)
            .collect()
    }

    /// For every span named `root`, the sum (ms) of the self times of
    /// all spans in its subtree — the blocking path of that step,
    /// instance or job as the trace attributes it.
    pub fn subtree_self_ms(&self, root: &str) -> Vec<f64> {
        let own = self.self_ns();
        let mut total: BTreeMap<usize, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == root {
                total.insert(i, 0);
            }
        }
        for (i, _) in self.spans.iter().enumerate() {
            let mut cur = Some(i);
            while let Some(c) = cur {
                if let Some(t) = total.get_mut(&c) {
                    *t += own[i];
                    break;
                }
                cur = self.spans[c].parent;
            }
        }
        total.values().map(|&ns| ns as f64 / 1e6).collect()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let own = self.self_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(&own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"req\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_subtrees_sum_to_the_root() {
        let mut tr = Trace::new();
        let t = Instant::now();
        let root = tr.record("root", 1, None, t, t + std::time::Duration::from_millis(10));
        tr.record(
            "child",
            1,
            Some(root),
            t + std::time::Duration::from_millis(2),
            t + std::time::Duration::from_millis(6),
        );
        let own = tr.self_us("root");
        assert!((own[0] - 6000.0).abs() < 1.0, "{own:?}");
        let total = tr.subtree_self_ms("root");
        assert!((total[0] - 10.0).abs() < 1e-3, "{total:?}");
    }
}
