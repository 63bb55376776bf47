//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each public
//! library call; nothing inside the library is instrumented.  Each span
//! carries its name, start, end, parent and op id.  Spans of work run
//! outside any op to split a layer further (the triangle index, the
//! 4-clique enumeration, the local decomposition) are marked derived.
//! The recorder keeps everything in memory and writes it out once, at
//! the end of the run.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: Option<usize>,
    pub derived: bool,
    /// Calibration factor of the timed interval around a top-level span;
    /// its descendants use their root's.
    pub factor: f64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// Records spans when enabled; every method is a no-op otherwise, so
/// the untraced run pays one branch per call site.  Storage is reserved
/// up front, so no op pays for the span list growing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, capacity: usize) -> Self {
        let capacity = if enabled { capacity } else { 0 };
        let placeholder = Span {
            name: "",
            start_ns: 0,
            end_ns: 0,
            parent: None,
            op: None,
            derived: false,
            factor: 1.0,
        };
        // Write every slot once, so no op pays a page fault for the span
        // it records.
        let mut spans = vec![placeholder; capacity];
        spans.clear();
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the top-level span of op `op`.
    pub fn open_op(&mut self, name: &'static str, op: usize) -> Option<SpanId> {
        self.open(name, None, Some(op), false)
    }

    /// Opens the top-level span of one set-up round.
    pub fn open_setup(&mut self, name: &'static str) -> Option<SpanId> {
        self.open(name, None, None, false)
    }

    /// Opens a top-level derived span: work outside every op.
    pub fn open_derived(&mut self, name: &'static str) -> Option<SpanId> {
        self.open(name, None, None, true)
    }

    fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: Option<usize>,
        derived: bool,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.map(|p| p.0),
            op,
            derived,
            factor: 1.0,
        });
        Some(SpanId(self.spans.len() - 1))
    }

    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(SpanId(i)) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `work` inside a child span of `parent`.
    pub fn child<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        work: impl FnOnce() -> T,
    ) -> T {
        let (op, derived) = match parent {
            Some(SpanId(p)) => (self.spans[p].op, self.spans[p].derived),
            None => return work(),
        };
        let id = self.open(name, parent, op, derived);
        let out = work();
        self.close(id);
        out
    }

    /// Sets the calibration factor of the interval timed around the
    /// top-level span `id`.
    pub fn set_factor(&mut self, id: Option<SpanId>, factor: f64) {
        if let Some(SpanId(i)) = id {
            self.spans[i].factor = factor;
        }
    }

    /// Index of each span's top-level ancestor.
    fn roots(&self) -> Vec<usize> {
        let mut roots: Vec<usize> = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            let root = s.parent.map_or(i, |p| roots[p]);
            roots.push(root);
        }
        roots
    }

    /// Calibrated self time, in ms, of every span named `name`.
    pub fn call_ms(&self, name: &str) -> Vec<f64> {
        let roots = self.roots();
        let self_ns = self.self_times_ns();
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self_ns[i] as f64 * 1e-6 * self.spans[roots[i]].factor)
            .collect()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part its children
    /// cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                self_ns[p] = self_ns[p].saturating_sub(span.duration_ns());
            }
        }
        self_ns
    }

    /// Checks that the leaf spans of every op are disjoint and sum to
    /// within `tolerance` of the op's wall time.  Returns the op ids
    /// that fail.
    pub fn uncovered_ops(&self, tolerance: f64) -> Vec<usize> {
        let mut leaves: BTreeMap<usize, Vec<&Span>> = BTreeMap::new();
        let mut walls: BTreeMap<usize, u64> = BTreeMap::new();
        let has_child: Vec<bool> = {
            let mut v = vec![false; self.spans.len()];
            for s in &self.spans {
                if let Some(p) = s.parent {
                    v[p] = true;
                }
            }
            v
        };
        for (i, span) in self.spans.iter().enumerate() {
            let Some(op) = span.op.filter(|_| !span.derived) else {
                continue;
            };
            if span.parent.is_none() {
                walls.insert(op, span.duration_ns());
            }
            if !has_child[i] {
                leaves.entry(op).or_default().push(span);
            }
        }
        let mut failing = Vec::new();
        for (op, wall) in walls {
            let mut op_leaves = leaves.remove(&op).unwrap_or_default();
            op_leaves.sort_by_key(|s| s.start_ns);
            let overlap = op_leaves.windows(2).any(|w| w[1].start_ns < w[0].end_ns);
            let covered: u64 = op_leaves.iter().map(|s| s.duration_ns()).sum();
            let gap = wall.abs_diff(covered) as f64;
            if overlap || gap > tolerance * wall as f64 {
                failing.push(op);
            }
        }
        failing
    }

    /// Cost of recording one span on this host, in nanoseconds, measured
    /// by recording `n` spans into a recorder of its own.
    pub fn span_cost_ns(n: usize) -> f64 {
        let mut probe = Tracer::new(true, n);
        let start = Instant::now();
        for i in 0..n {
            let id = probe.open_op("cost", i);
            probe.close(id);
        }
        start.elapsed().as_nanos() as f64 / n as f64
    }

    /// The spans as JSON lines, one object per span, with self times.
    pub fn to_json_lines(&self) -> String {
        let self_ns = self.self_times_ns();
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let op = s.op.map_or("null".to_string(), |o| o.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\
                 \"parent\":{parent},\"op\":{op},\"derived\":{},\"factor\":{}}}",
                s.name, s.start_ns, s.end_ns, self_ns[i], s.derived, s.factor
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let start = Instant::now();
        while (start.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children_and_leaves_cover_the_op() {
        let mut t = Tracer::new(true, 8);
        let op = t.open_op("op", 0);
        t.child("a", op, || spin(2_000_000));
        t.child("b", op, || spin(2_000_000));
        t.close(op);
        let self_ns = t.self_times_ns();
        assert!(self_ns[0] < self_ns[1] / 10, "{self_ns:?}");
        assert!(t.uncovered_ops(0.05).is_empty());
        assert_eq!(t.spans()[1].op, Some(0));
        assert!(t.to_json_lines().lines().count() == 3);
    }

    #[test]
    fn untimed_gaps_inside_an_op_are_reported() {
        let mut t = Tracer::new(true, 8);
        let op = t.open_op("op", 7);
        t.child("a", op, || spin(1_000_000));
        spin(1_000_000);
        t.close(op);
        assert_eq!(t.uncovered_ops(0.05), vec![7]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 8);
        let op = t.open_op("op", 0);
        assert_eq!(t.child("a", op, || 5), 5);
        t.close(op);
        assert!(t.spans().is_empty());
    }
}
