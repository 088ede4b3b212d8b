//! The traced run's span recorder.
//!
//! The benchmark wraps each call into a layer in a span (name, start,
//! end, parent, op). Spans are kept in memory and written out once the
//! run ends, so recording costs one clock read and one push per span.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One finished span; times are microseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, such as `trainer.train`.
    pub name: &'static str,
    /// The root op this span belongs to; every span of one op shares it.
    pub op: u64,
    /// Index of the enclosing span in [`Recorder::spans`], if any.
    pub parent: Option<usize>,
    /// Start, microseconds since the recorder's epoch.
    pub start_us: f64,
    /// End, microseconds since the recorder's epoch.
    pub end_us: f64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// An in-memory span store shared by the benchmark's threads.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// A span that has started: pass it as the parent of nested spans, and
/// close it with [`Recorder::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    index: usize,
    op: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    /// Opens a root span for op number `op`.
    pub fn root(&self, name: &'static str, op: u64) -> Open {
        self.begin(name, op, None)
    }

    /// Opens a child of `parent`.
    pub fn child(&self, parent: Open, name: &'static str) -> Open {
        self.begin(name, parent.op, Some(parent.index))
    }

    fn begin(&self, name: &'static str, op: u64, parent: Option<usize>) -> Open {
        let start_us = self.now_us();
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(Span {
            name,
            op,
            parent,
            start_us,
            end_us: start_us,
        });
        Open {
            index: spans.len() - 1,
            op,
        }
    }

    /// Closes `open` now and returns its duration in milliseconds.
    pub fn end(&self, open: Open) -> f64 {
        let end_us = self.now_us();
        let mut spans = self.spans.lock().expect("span store poisoned");
        let span = &mut spans[open.index];
        span.end_us = end_us;
        span.ms()
    }

    /// Runs `f` inside a child span of `parent` called `name`.
    pub fn time<T>(&self, parent: Open, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.child(parent, name);
        let out = f();
        self.end(open);
        out
    }

    /// Records an already measured interval as a child of `parent`.
    pub fn record(&self, parent: Open, name: &'static str, start: Instant, end: Instant) {
        let to_us = |t: Instant| t.duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.lock().expect("span store poisoned").push(Span {
            name,
            op: parent.op,
            parent: Some(parent.index),
            start_us: to_us(start),
            end_us: to_us(end),
        });
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Durations (ms) of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Per op, the summed duration (ms) of the spans called `name`; ops
    /// are those with a root span called `root`, and an op without such
    /// spans sums to 0.
    pub fn per_op_totals(&self, root: &str, name: &str) -> Vec<f64> {
        let spans = self.spans();
        spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
            .map(|r| {
                spans
                    .iter()
                    .filter(|s| s.op == r.op && s.name == name)
                    .map(Span::ms)
                    .sum()
            })
            .collect()
    }

    /// Every span as one JSON object per line, in recording order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"op\":{},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.op, s.name, s.start_us, s.end_us
            );
        }
        out
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_point_at_parents_and_share_the_op() {
        let rec = Recorder::default();
        let root = rec.root("op", 3);
        let value = rec.time(root, "layer", || 41 + 1);
        rec.end(root);
        assert_eq!(value, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 3);
        assert!(spans[0].end_us >= spans[1].end_us);
        assert_eq!(rec.per_op_totals("op", "layer").len(), 1);
        assert_eq!(rec.per_op_totals("op", "absent"), vec![0.0]);
        assert_eq!(rec.to_jsonl().lines().count(), 2);
    }
}
