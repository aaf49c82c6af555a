//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Nothing inside the toolchain is instrumented: a span brackets one call
//! from benchmark code into a crate's public function. Spans live in
//! memory until the pass ends; a layer's self time is its span's duration
//! minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process (a shared clock for
/// spans recorded on different threads).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.function`, e.g. `sim.run`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same pass, if any.
    pub parent: Option<usize>,
    /// Which program or kernel the call worked on.
    pub program: u64,
}

/// Handle of an open span (`None` when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// A span recorder for one thread of one pass. When `on` is false every
/// method is a no-op and no clock is read.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    program: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, ..Tracer::default() }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Tag the spans opened from now on with `program`.
    pub fn set_program(&mut self, program: u64) {
        self.program = program;
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            program: self.program,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn close(&mut self, open: Open) {
        self.close_as(open, None);
    }

    /// Close `open`, renaming it when the outcome decides the name
    /// (a run that ended in an error is not charged to `sim.run`).
    pub fn close_as(&mut self, open: Open, rename: Option<&'static str>) {
        let Some(idx) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans close in the order they open");
        let span = &mut self.spans[idx];
        span.end_ns = now_ns();
        if let Some(name) = rename {
            span.name = name;
        }
    }

    /// Open spans (to restore after a caught panic).
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Close every span opened above `depth` (a panic skipped their
    /// closes).
    pub fn unwind_to(&mut self, depth: usize) {
        let now = now_ns();
        while self.stack.len() > depth {
            let idx = self.stack.pop().expect("stack is longer than depth");
            self.spans[idx].end_ns = now;
        }
    }

    /// Time `f` as a leaf span.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.open(name);
        let out = f();
        self.close(open);
        out
    }

    /// Move another thread's spans under the currently open span.
    pub fn adopt(&mut self, spans: Vec<Span>) {
        if !self.on {
            return;
        }
        let base = self.spans.len();
        let parent = self.stack.last().copied();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map_or(parent, |p| Some(p + base));
            s
        }));
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "every span is closed before the pass ends");
        self.spans
    }
}

/// Self time per span name, in seconds.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        let covered = union_within(kids, s.start_ns, s.end_ns);
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`. Children on
/// worker threads overlap each other, so their durations cannot simply
/// be summed.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur_end) = (0u64, lo);
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cur_end), b.min(hi));
        if b > a {
            total += b - a;
            cur_end = b;
        }
    }
    total
}

/// Write spans as JSON lines, one per span, tagged with their pass.
pub fn write_jsonl(path: &std::path::Path, passes: &[(usize, &[Span])]) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (pass, spans) in passes {
        for (i, s) in spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"pass\": {pass}, \"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"program\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.program
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, program: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 40, 45, Some(1)),
        ];
        let st = self_times(&spans);
        assert!((st["pass"] - 40e-9).abs() < 1e-15);
        assert!((st["a"] - 35e-9).abs() < 1e-15);
        assert!((st["b"] - 40e-9).abs() < 1e-15);
        assert!((st["c"] - 5e-9).abs() < 1e-15);
    }

    #[test]
    fn adopted_spans_hang_under_the_open_span() {
        let mut t = Tracer::new(true);
        let root = t.open("pass");
        t.adopt(vec![span("cell", 1, 2, None), span("sim.run", 1, 2, Some(0))]);
        t.close(root);
        let spans = t.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
    }

    #[test]
    fn an_untraced_recorder_keeps_nothing() {
        let mut t = Tracer::new(false);
        let o = t.open("pass");
        t.leaf("x", || ());
        t.close(o);
        assert!(t.into_spans().is_empty());
    }
}
