//! In-memory span recorder for the ledger's traced runs.
//!
//! Each call into a layer is one [`Span`]: its name, its start and end in
//! nanoseconds since the recorder was created, the span that enclosed it,
//! and the trace id shared by every span of one pass or probe. Spans stay
//! in memory until the run is over; [`Recorder::to_jsonl`] renders them.

use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Shared by every span of one pass or probe.
    pub trace: u64,
    /// The layer call this span times (`plan`, `execute`, ...).
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans around closures. A disabled recorder runs each
/// closure and records nothing, so untraced passes share the traced code.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder that keeps every span.
    pub fn new() -> Self {
        Self {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that keeps nothing.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new()
        }
    }

    /// True when spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span, and return the index of the recorded span (`None` when
    /// disabled) with `f`'s result.
    pub fn span<R>(
        &mut self,
        trace: u64,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (Option<usize>, R) {
        if !self.enabled {
            return (None, f(self));
        }
        let i = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            trace,
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(i);
        let r = f(self);
        self.open.pop();
        self.spans[i].end_ns = self.now_ns();
        (Some(i), r)
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let self_ns = self_times_ns(&self.spans);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"trace\":{},\"span\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.trace,
                s.name,
                s.start_ns,
                s.end_ns,
                self_ns[i]
            );
        }
        out
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, each clipped to the span itself. Overlapping
/// children are counted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for c in spans {
        if let Some(p) = c.parent {
            let s = &spans[p];
            let (a, b) = (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns));
            if a < b {
                kids[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(kids)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut run: Option<(u64, u64)> = None;
            for (a, b) in kids {
                run = match run {
                    Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                    Some((ra, rb)) => {
                        covered += rb - ra;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ra, rb)) = run {
                covered += rb - ra;
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            trace: 1,
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn nested_children_subtract_only_from_their_parent() {
        let spans = [
            span("pass", 0, 100, None),
            span("execute", 10, 60, Some(0)),
            span("inner", 20, 50, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), [50, 20, 30]);
    }

    #[test]
    fn adjacent_and_overlapping_children_count_once() {
        let adjacent = [
            span("pass", 0, 100, None),
            span("plan", 0, 30, Some(0)),
            span("execute", 30, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&adjacent), [10, 30, 60]);
        let overlapping = [
            span("pass", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 40, 70, Some(0)),
        ];
        assert_eq!(self_times_ns(&overlapping)[0], 40);
    }

    #[test]
    fn a_fully_covering_child_leaves_no_self_time() {
        let exact = [span("pass", 5, 25, None), span("execute", 5, 25, Some(0))];
        assert_eq!(self_times_ns(&exact), [0, 20]);
        // A child reaching outside its parent is clipped to it.
        let wider = [span("pass", 5, 25, None), span("execute", 0, 40, Some(0))];
        assert_eq!(self_times_ns(&wider), [0, 40]);
    }

    #[test]
    fn spans_of_one_pass_share_its_trace_id() {
        let mut rec = Recorder::new();
        for pass in [7, 8] {
            rec.span(pass, "pass", |rec| {
                rec.span(pass, "plan", |_| ());
                rec.span(pass, "execute", |_| ());
            });
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 6);
        for (i, s) in spans.iter().enumerate() {
            let root = s.parent.unwrap_or(i);
            assert_eq!(spans[root].name, "pass");
            assert_eq!(s.trace, spans[root].trace);
        }
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[4].parent, Some(3));
        assert_eq!(rec.to_jsonl().lines().count(), 6);
    }

    #[test]
    fn a_disabled_recorder_runs_the_closure_and_keeps_nothing() {
        let mut rec = Recorder::disabled();
        let (id, v) = rec.span(1, "pass", |rec| rec.span(1, "plan", |_| 41).1 + 1);
        assert_eq!((id, v), (None, 42));
        assert!(rec.spans().is_empty());
    }
}
