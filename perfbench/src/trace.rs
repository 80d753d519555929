//! In-memory spans around each layer call the benchmark makes.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer
//! was created), the span that caused it, and the operation it belongs
//! to. Spans stay in memory until the run ends and are written out then.
//! A span's self time is its duration minus the durations of its direct
//! children. Some children are synthetic: durations the library itself
//! reports (the incremental lexer's `relex_micros`, a parse's
//! `total_nanos`) placed under the span of the call that returned them.
//! With tracing off every call here is a no-op.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `lexer.tokenize`.
    pub name: &'static str,
    /// Operation id; `u64::MAX` for set-up.
    pub op: u64,
    /// Index of the causing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The operation id spans get during set-up.
pub const SETUP_OP: u64 = u64::MAX;

/// Span recorder. Cheap when off: every method returns immediately.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer, recording only if `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: SETUP_OP,
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off (spans already recorded stay).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Sets the operation id later spans carry.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one; returns its index.
    pub fn begin(&mut self, name: &'static str) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        if let Some(idx) = self.open.pop() {
            self.spans[idx].end_ns = end;
        }
    }

    /// Records a synthetic child of span `parent`, `dur_ns` long, placed
    /// `offset_ns` after the parent's start and clamped to its end.
    pub fn child(&mut self, parent: usize, name: &'static str, offset_ns: u64, dur_ns: u64) {
        if !self.on || parent >= self.spans.len() {
            return;
        }
        let p = &self.spans[parent];
        let start_ns = p.start_ns.saturating_add(offset_ns).min(p.end_ns);
        let end_ns = start_ns.saturating_add(dur_ns).min(p.end_ns);
        let op = p.op;
        self.spans.push(Span {
            name,
            op,
            parent: Some(parent),
            start_ns,
            end_ns,
        });
    }

    /// Self time of every span: duration minus its children's durations.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Per span name, set-up included: (calls, total duration ns, total
    /// self ns).
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let selfs = self.self_times();
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(selfs) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += own;
        }
        out
    }

    /// Per operation: total self time of its layer spans. A `cli.process`
    /// span is the operation itself (a child process), not a layer in it.
    pub fn layer_self_by_op(&self) -> BTreeMap<u64, u64> {
        let selfs = self.self_times();
        let mut out: BTreeMap<u64, u64> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(selfs) {
            if s.op != SETUP_OP && s.name != "cli.process" {
                *out.entry(s.op).or_default() += own;
            }
        }
        out
    }

    /// The spans as tab-separated lines: op, name, parent, start, end.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("op\tname\tid\tparent\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let op = if s.op == SETUP_OP {
                "setup".to_owned()
            } else {
                s.op.to_string()
            };
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{op}\t{}\t{i}\t{parent}\t{}\t{}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}
