//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans nest strictly (enter/exit is a stack). A span's *self time* is its
//! duration minus the time its children cover, so the parts of a span sum
//! to the whole by construction; [`Spans::exit`] asserts the children do
//! not outlast their parent. Work that happens in many small calls inside a
//! library call (a host handler, a switch's packet processing) is added as
//! one *aggregated child* carrying the summed time and the call count.
//!
//! Everything is kept in memory — per-name totals for the metrics and, in a
//! traced run, a `netcl_obs::Trace` that `main` writes out as a Chrome trace
//! at exit. An untraced run keeps the totals only: a trace grows with every
//! repeat, and `peak_rss_mb` must not depend on how many repeats a run fits.

use netcl_obs::{Trace, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// Track for ordinary spans and for aggregated children in the trace file.
const TID_SPANS: u32 = 0;
const TID_AGGREGATED: u32 = 1;

struct Open {
    name: &'static str,
    start_ns: u64,
    children_ns: u64,
}

/// Proof that a span was entered; hand it back to [`Spans::exit`].
#[must_use]
pub struct Token(usize);

/// Summed over every closed span of one name since the last
/// [`Spans::take_totals`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Total {
    pub dur_ns: u64,
    pub self_ns: u64,
    pub calls: u64,
}

impl Total {
    pub fn secs(&self) -> f64 {
        self.dur_ns as f64 / 1e9
    }
}

pub struct Spans {
    t0: Instant,
    open: Vec<Open>,
    totals: BTreeMap<&'static str, Total>,
    /// Whether closed spans also go to `trace`.
    record: bool,
    pub trace: Trace,
}

impl Spans {
    pub fn new(process: &str, record: bool) -> Spans {
        let mut trace = Trace::new();
        trace.name_process(0, process);
        trace.name_thread(0, TID_SPANS, "spans");
        trace.name_thread(0, TID_AGGREGATED, "aggregated children");
        Spans { t0: Instant::now(), open: Vec::new(), totals: BTreeMap::new(), record, trace }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Token {
        let start_ns = self.now_ns();
        self.open.push(Open { name, start_ns, children_ns: 0 });
        Token(self.open.len())
    }

    /// Closes the innermost span and returns its duration in seconds.
    pub fn exit(&mut self, token: Token) -> f64 {
        assert_eq!(token.0, self.open.len(), "spans must close innermost first");
        let end_ns = self.now_ns();
        let span = self.open.pop().expect("token proves a span is open");
        let dur_ns = end_ns - span.start_ns;
        assert!(
            span.children_ns <= dur_ns,
            "children of `{}` cover {} ns of its {} ns",
            span.name,
            span.children_ns,
            dur_ns
        );
        let self_ns = dur_ns - span.children_ns;
        let parent = self.open.last_mut().map(|p| {
            p.children_ns += dur_ns;
            p.name
        });
        let t = self.totals.entry(span.name).or_default();
        t.dur_ns += dur_ns;
        t.self_ns += self_ns;
        t.calls += 1;
        if self.record {
            self.trace.complete(
                span.name,
                "span",
                0,
                TID_SPANS,
                span.start_ns,
                dur_ns,
                vec![
                    ("parent", Value::Str(parent.unwrap_or("").to_string())),
                    ("self_ns", Value::U64(self_ns)),
                ],
            );
        }
        dur_ns as f64 / 1e9
    }

    /// Times `f` as a span with no children of its own.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = self.enter(name);
        let r = f();
        self.exit(t);
        r
    }

    /// Adds `dur_ns` spent over `calls` calls as one child of the innermost
    /// open span — time the benchmark measured inside closures or read from
    /// a layer's own opt-in stopwatch while that span was running.
    pub fn aggregated_child(&mut self, name: &'static str, dur_ns: u64, calls: u64) {
        let parent = self.open.last_mut().expect("an aggregated child needs an open parent");
        parent.children_ns += dur_ns;
        let (start_ns, parent_name) = (parent.start_ns, parent.name);
        let t = self.totals.entry(name).or_default();
        t.dur_ns += dur_ns;
        t.self_ns += dur_ns;
        t.calls += calls;
        if self.record {
            self.trace.complete(
                name,
                "aggregated",
                0,
                TID_AGGREGATED,
                start_ns,
                dur_ns,
                vec![("parent", Value::Str(parent_name.to_string())), ("calls", Value::U64(calls))],
            );
        }
    }

    /// The totals of the spans closed since the last call, leaving none
    /// behind: one call per repeat gives per-repeat figures.
    pub fn take_totals(&mut self) -> BTreeMap<&'static str, Total> {
        std::mem::take(&mut self.totals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut s = Spans::new("test", true);
        let outer = s.enter("outer");
        let inner = s.enter("inner");
        std::thread::sleep(Duration::from_millis(2));
        s.exit(inner);
        s.aggregated_child("agg", 100, 7);
        s.exit(outer);
        let t = s.take_totals();
        let (outer, inner, agg) = (t["outer"], t["inner"], t["agg"]);
        assert!(inner.dur_ns >= 2_000_000);
        assert_eq!(outer.self_ns, outer.dur_ns - inner.dur_ns - 100);
        assert_eq!((agg.dur_ns, agg.calls), (100, 7));
        assert_eq!(inner.self_ns, inner.dur_ns);
        assert!(s.take_totals().is_empty());
        // Three data events plus the process and two thread names.
        assert_eq!(s.trace.len(), 6);

        let mut untraced = Spans::new("test", false);
        untraced.leaf("kept as a total only", || ());
        assert_eq!(untraced.take_totals().len(), 1);
        assert_eq!(untraced.trace.len(), 3);
    }

    #[test]
    #[should_panic(expected = "children of `short`")]
    fn children_may_not_outlast_parent() {
        let mut s = Spans::new("test", false);
        let t = s.enter("short");
        s.aggregated_child("long", u64::MAX / 2, 1);
        s.exit(t);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn spans_close_in_stack_order() {
        let mut s = Spans::new("test", false);
        let a = s.enter("a");
        let _b = s.enter("b");
        s.exit(a);
    }
}
