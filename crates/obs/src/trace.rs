//! Chrome `trace_event` collection, exportable as Perfetto-loadable JSON.
//!
//! The simulator (and any other layer) records *complete* spans (`ph:"X"`),
//! *instant* markers (`ph:"i"`), *counter* samples (`ph:"C"`), and track
//! naming metadata (`ph:"M"`). [`Trace::to_json`] emits the JSON Object
//! Format (`{"traceEvents": [...]}`) that both `chrome://tracing` and
//! [ui.perfetto.dev](https://ui.perfetto.dev) open directly. Timestamps
//! are kept in nanoseconds internally and emitted as fractional
//! microseconds, the unit the format mandates.

use crate::{write_json_string, Value};
use std::fmt::Write as _;

/// One trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (shown on the slice).
    pub name: String,
    /// Category (comma-separated tags; filterable in the UI).
    pub(crate) cat: &'static str,
    /// Phase: `X` complete, `i` instant, `C` counter, `M` metadata.
    pub ph: char,
    /// Start time, nanoseconds.
    pub(crate) ts_ns: u64,
    /// Duration, nanoseconds (complete events only).
    pub(crate) dur_ns: u64,
    /// Process id — we use one pid per subsystem (0 = network).
    pub(crate) pid: u32,
    /// Thread id — we use one tid per node (device/host).
    pub tid: u32,
    /// Extra arguments, shown in the UI's args panel.
    pub args: Vec<(&'static str, Value)>,
}

/// An in-memory trace: metadata records plus the data events, each in
/// record order. The JSON lists the metadata first.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Trace {
    /// Track-naming metadata (`ph:"M"`).
    meta: Vec<TraceEvent>,
    /// Every other event.
    data: Vec<TraceEvent>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Number of recorded events (metadata + data).
    pub fn len(&self) -> usize {
        self.meta.len() + self.data.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty() && self.data.is_empty()
    }

    /// All events: metadata first, then data in record order.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.meta.iter().chain(self.data.iter())
    }

    fn push(&mut self, e: TraceEvent) {
        let list = if e.ph == 'M' { &mut self.meta } else { &mut self.data };
        list.push(e);
    }

    /// Appends every event from `other` — how per-shard traces are merged
    /// into one timeline after a sharded run. Metadata records (track
    /// names) may repeat; the Perfetto UI tolerates duplicates.
    pub fn absorb(&mut self, other: Trace) {
        self.meta.extend(other.meta);
        self.data.extend(other.data);
    }

    /// Records a complete span (`ph:"X"`).
    #[allow(clippy::too_many_arguments)] // mirrors the trace_event field list
    pub fn complete(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        pid: u32,
        tid: u32,
        ts_ns: u64,
        dur_ns: u64,
        args: Vec<(&'static str, Value)>,
    ) {
        self.push(TraceEvent { name: name.into(), cat, ph: 'X', ts_ns, dur_ns, pid, tid, args });
    }

    /// Records an instant marker (`ph:"i"`, thread scope).
    pub fn instant(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        pid: u32,
        tid: u32,
        ts_ns: u64,
        args: Vec<(&'static str, Value)>,
    ) {
        self.push(TraceEvent { name: name.into(), cat, ph: 'i', ts_ns, dur_ns: 0, pid, tid, args });
    }

    /// Records a counter sample (`ph:"C"`): the UI draws one stacked area
    /// chart per counter name from these.
    pub fn counter(&mut self, name: impl Into<String>, pid: u32, ts_ns: u64, value: u64) {
        self.push(TraceEvent {
            name: name.into(),
            cat: "counter",
            ph: 'C',
            ts_ns,
            dur_ns: 0,
            pid,
            tid: 0,
            args: vec![("value", Value::U64(value))],
        });
    }

    /// Names a thread track (`ph:"M"`, `thread_name`).
    pub fn name_thread(&mut self, pid: u32, tid: u32, name: impl Into<String>) {
        self.push(TraceEvent {
            name: "thread_name".into(),
            cat: "__metadata",
            ph: 'M',
            ts_ns: 0,
            dur_ns: 0,
            pid,
            tid,
            args: vec![("name", Value::Str(name.into()))],
        });
    }

    /// Names a process track (`ph:"M"`, `process_name`).
    pub fn name_process(&mut self, pid: u32, name: impl Into<String>) {
        self.push(TraceEvent {
            name: "process_name".into(),
            cat: "__metadata",
            ph: 'M',
            ts_ns: 0,
            dur_ns: 0,
            pid,
            tid: 0,
            args: vec![("name", Value::Str(name.into()))],
        });
    }

    /// Serializes to the Chrome JSON Object Format. The result loads in
    /// Perfetto / `chrome://tracing` as-is.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, e) in self.events().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n{\"name\":");
            write_json_string(&mut out, &e.name);
            out.push_str(",\"cat\":");
            write_json_string(&mut out, e.cat);
            let _ = write!(
                out,
                ",\"ph\":\"{}\",\"ts\":{}.{:03},\"pid\":{},\"tid\":{}",
                e.ph,
                e.ts_ns / 1_000,
                e.ts_ns % 1_000,
                e.pid,
                e.tid
            );
            if e.ph == 'X' {
                let _ = write!(out, ",\"dur\":{}.{:03}", e.dur_ns / 1_000, e.dur_ns % 1_000);
            }
            if e.ph == 'i' {
                out.push_str(",\"s\":\"t\"");
            }
            if !e.args.is_empty() {
                out.push_str(",\"args\":{");
                for (j, (k, v)) in e.args.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    write_json_string(&mut out, k);
                    out.push(':');
                    v.write_json(&mut out);
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_json_shape() {
        let mut t = Trace::new();
        t.name_process(0, "network");
        t.name_thread(0, 1, "device 1");
        t.complete("kernel", "device", 0, 1, 1_500, 700, vec![("recircs", Value::U64(0))]);
        t.instant("deliver", "host", 0, 10_001, 2_200, vec![]);
        t.counter("queue_depth", 0, 2_300, 4);
        let json = t.to_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        // ns → µs conversion keeps sub-µs precision.
        assert!(json.contains("\"ts\":1.500"), "{json}");
        assert!(json.contains("\"dur\":0.700"));
        // Counter and metadata shapes.
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"process_name\""));
        // Every record is a complete object; the list is comma-separated.
        assert_eq!(json.matches("\"ph\":\"").count(), t.len());
    }

    #[test]
    fn empty_trace_still_valid() {
        let json = Trace::new().to_json();
        assert!(json.contains("\"traceEvents\":["));
    }
}
