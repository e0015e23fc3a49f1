//! In-memory spans recorded by the benchmark around each call it makes
//! into the program, and the per-layer self-time arithmetic over them.
//!
//! A span's self time is its duration minus the part of its interval
//! that its child spans cover (overlapping children are counted once).

use crate::json::J;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Batch, session or replay item the span belongs to.
    pub request: u64,
}

/// Span recorder. When disabled every call is a plain pass-through.
pub struct Tracer {
    enabled: bool,
    /// Cleared between balanced enter/exit pairs to skip recording.
    recording: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            recording: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Pauses or resumes recording; toggle only with no span opened since
    /// the last toggle still open.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, request: u64) {
        if !(self.enabled && self.recording) {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !(self.enabled && self.recording) {
            return;
        }
        let end = self.now_ns();
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = end;
    }

    /// Runs `f` inside a span.
    pub fn call<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, request);
        let out = f();
        self.exit();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals: span count, summed duration and summed self time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the span.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Self-time summary grouped by span name (sorted by name).
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let own = self_ns(spans);
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.end_ns - s.start_ns;
        e.self_ns += own;
    }
    out
}

/// Share of the wall time of the root spans `is_phase` selects that
/// their child spans cover: how much of the benchmark's time the recorded
/// calls account for.
pub fn coverage(spans: &[Span], is_phase: impl Fn(&Span) -> bool) -> f64 {
    let own = self_ns(spans);
    let (mut wall, mut uncovered) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(own) {
        if s.parent.is_none() && is_phase(s) {
            wall += s.end_ns - s.start_ns;
            uncovered += own;
        }
    }
    if wall == 0 {
        0.0
    } else {
        1.0 - uncovered as f64 / wall as f64
    }
}

pub fn spans_json(spans: &[Span]) -> J {
    J::Arr(
        spans
            .iter()
            .map(|s| {
                J::obj([
                    ("name", J::str(s.name)),
                    ("start_ns", J::Int(s.start_ns)),
                    ("end_ns", J::Int(s.end_ns)),
                    ("parent", s.parent.map_or(J::Null, |p| J::Int(p as u64))),
                    ("request", J::Int(s.request)),
                ])
            })
            .collect(),
    )
}

pub fn summary_json(spans: &[Span]) -> J {
    J::Obj(
        summarize(spans)
            .into_iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    J::obj([
                        ("count", J::Int(t.count)),
                        ("total_ms", J::Num(t.total_ns as f64 / 1e6)),
                        ("self_ms", J::Num(t.self_ns as f64 / 1e6)),
                    ]),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    /// root [0,100] with children a [10,40] and b [30,60] overlapping by
    /// 10, a child c [95,130] running past the root's end (clipped to
    /// [95,100]), and a grandchild g [15,20] inside a.
    fn tree() -> Vec<Span> {
        vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("g", 15, 20, Some(1)),
            span("c", 95, 130, Some(0)),
        ]
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root: children cover [10,60] ∪ [95,100] = 55 → self 45
        // a: g covers 5 of 30 → 25; b, g, c: leaves
        assert_eq!(self_ns(&tree()), vec![45, 25, 30, 5, 35]);
    }

    #[test]
    fn summary_groups_by_name() {
        let mut spans = tree();
        spans.push(span("a", 70, 80, Some(0)));
        let s = summarize(&spans);
        assert_eq!(
            s["a"],
            SelfTime {
                count: 2,
                total_ns: 40,
                self_ns: 35
            }
        );
        // the second a [70,80] adds 10 more covered root time → root self 35
        assert_eq!(s["root"].self_ns, 35);
        assert!((coverage(&spans, |_| true) - 0.65).abs() < 1e-12);
        assert_eq!(coverage(&spans, |s| s.name != "root"), 0.0);
    }

    #[test]
    fn recorder_nests_and_times() {
        let mut t = Tracer::new(true);
        t.enter("phase", 0);
        let x = t.call("call", 7, || 3);
        t.exit();
        assert_eq!(x, 3);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].request, 7);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let mut off = Tracer::new(false);
        off.enter("phase", 0);
        off.exit();
        assert!(off.spans().is_empty());
    }
}
