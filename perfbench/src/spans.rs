//! In-memory span recorder for traced runs.
//!
//! A span has a name, a start, a duration and the span that was open
//! when it started (its parent). Spans are kept in a `Vec` and written
//! once, with the repetition report, when the run ends. A layer whose
//! calls are too many and too small to record one by one (the fleet's
//! completion sink) is recorded as one *aggregate* span per parent: a
//! call count and a summed duration, so memory stays flat.
//!
//! A span's self time is its duration minus the durations of its
//! children; [`Recorder::self_ns`] sums it per name.

use crate::{int, obj, text};
use serde::Value;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name (`crate.module`, optionally with a suffix).
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Duration in nanoseconds (for an aggregate span: the sum).
    pub dur_ns: u64,
    /// Calls covered: 1 for a plain span, the call count for an
    /// aggregate one.
    pub count: u64,
}

impl Span {
    /// The span as a JSON object.
    pub fn to_json(&self) -> Value {
        obj([
            ("name", text(self.name)),
            ("parent", self.parent.map_or(Value::Null, |p| int(p as u64))),
            ("start_ns", int(self.start_ns)),
            ("dur_ns", int(self.dur_ns)),
            ("count", int(self.count)),
        ])
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder; span times count from now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            dur_ns: 0,
            count: 1,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span (spans must nest).
    pub fn close(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.dur_ns = end.saturating_sub(span.start_ns);
    }

    /// Records an aggregate child of the innermost open span: `count`
    /// calls that took `dur_ns` in total.
    pub fn aggregate(&mut self, name: &'static str, count: u64, dur_ns: u64) {
        let parent = self.open.last().copied();
        let start_ns = parent.map_or(0, |p| self.spans[p].start_ns);
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            dur_ns,
            count,
        });
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Consumes the recorder, yielding its spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    /// Summed duration of every span named `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .sum()
    }

    /// Summed self time (duration minus children's durations) of every
    /// span named `name`, in nanoseconds.
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| s.dur_ns.saturating_sub(c))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = Recorder::new();
        let root = rec.open("root");
        let child = rec.open("child");
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.close(child);
        // The aggregated calls ran inside the root, outside the child.
        std::thread::sleep(std::time::Duration::from_millis(1));
        rec.aggregate("sink", 10, 1_000);
        rec.close(root);
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].count, 10);
        let root_self = rec.self_ns("root");
        assert_eq!(root_self, spans[0].dur_ns - spans[1].dur_ns - 1_000);
        assert_eq!(rec.self_ns("child"), spans[1].dur_ns);
        assert!(rec.total_ns("child") >= 2_000_000);
    }

    #[test]
    #[should_panic(expected = "innermost")]
    fn spans_must_nest() {
        let mut rec = Recorder::new();
        let a = rec.open("a");
        let _b = rec.open("b");
        rec.close(a);
    }
}
