//! In-memory span recording for the traced run.
//!
//! Spans wrap the benchmark's own calls into each layer's public functions.
//! They are kept in memory and written out once, when the run ends.  A
//! disabled tracer records nothing, so untraced runs pay one branch per span.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the tracer's span list.
    pub parent: Option<usize>,
    /// Request identifier, for spans of one serve request.
    pub request: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans on the thread that owns it; other threads build their own
/// `Vec<Span>` and hand it over with [`Tracer::extend`].
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(i) = self.index {
            let end = self.tracer.now_ns();
            self.tracer.spans.borrow_mut()[i].end_ns = end;
            self.tracer.open.borrow_mut().pop();
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The instant span times count from; other threads convert their own
    /// timestamps with it.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        Instant::now()
            .saturating_duration_since(self.origin)
            .as_nanos() as u64
    }

    /// Open a span that closes when the guard drops; it nests under the
    /// innermost span still open on this tracer.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                index: None,
            };
        }
        let start = self.now_ns();
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name: name.to_string(),
            start_ns: start,
            end_ns: start,
            parent,
            request: None,
        });
        let index = spans.len() - 1;
        self.open.borrow_mut().push(index);
        SpanGuard {
            tracer: self,
            index: Some(index),
        }
    }

    /// The innermost open span, as a parent for spans recorded elsewhere.
    pub fn current(&self) -> Option<usize> {
        self.open.borrow().last().copied()
    }

    /// Append spans recorded on another thread.
    pub fn extend(&self, spans: Vec<Span>) {
        if self.enabled {
            self.spans.borrow_mut().extend(spans);
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Total duration of every closed span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .sum()
    }

    /// The spans as JSON lines, each with its self time.
    pub fn to_json_lines(&self) -> String {
        let spans = self.spans.borrow();
        let self_ns = self_times(&spans);
        let mut out = String::new();
        for (i, s) in spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}",
                s.name, s.start_ns, s.end_ns, self_ns[i]
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(r) = s.request {
                let _ = write!(out, ",\"request\":{r}");
            }
            out.push_str("}\n");
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s".into(),
            start_ns: start,
            end_ns: end,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            // Overlaps the previous child: 20..40 adds only 30..40.
            span(20, 40, Some(0)),
            span(50, 60, Some(0)),
            // A grandchild is charged to its own parent, not the root.
            span(12, 18, Some(1)),
            // A child running past its parent counts only inside it.
            span(90, 130, Some(0)),
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 30 - 10 - 10, 14, 20, 10, 6, 40]
        );
    }

    #[test]
    fn disabled_tracer_records_nothing_and_enabled_one_nests() {
        let off = Tracer::new(false);
        {
            let _a = off.span("a");
        }
        assert!(off.spans().is_empty());

        let on = Tracer::new(true);
        {
            let _a = on.span("a");
            let _b = on.span("b");
        }
        {
            let _c = on.span("c");
        }
        let spans = on.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let lines = on.to_json_lines();
        assert_eq!(lines.lines().count(), 3);
        assert!(lines.contains("\"parent\":0"));
    }
}
