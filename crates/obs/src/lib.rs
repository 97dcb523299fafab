//! Observability primitives for the NetCL toolchain (DESIGN.md §12).
//!
//! Every layer of the system — the `ncc` pass pipeline, the bmv2 software
//! switch, and the network simulator — reports what it did through the
//! types in this crate: log₂-bucketed [`Histogram`]s, wall-clock
//! [`Stopwatch`] span timers, and structured [`Event`]s, which serialize
//! as JSON Lines ([`Event::to_json`], [`JsonlSink`]) without any external
//! dependency. [`trace::Trace`] additionally collects Chrome
//! `trace_event` records and exports Perfetto-loadable JSON.
//!
//! The design contract is *zero overhead when disabled*: nothing in this
//! crate installs global state or background threads. Instrumented code
//! holds an `Option<...>` (or a plain integer counter) and the disabled
//! path is a branch on `None`.

#![warn(unreachable_pub)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

pub mod hist;
pub mod trace;

pub use hist::Histogram;
pub use trace::Trace;

use std::fmt::Write as _;

/// A wall-clock span timer. Create with [`Stopwatch::start`], read with
/// [`Stopwatch::elapsed_ns`]; feed the result to a [`Histogram`] or an
/// [`Event`] field.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(std::time::Instant);

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Stopwatch {
        Stopwatch(std::time::Instant::now())
    }

    /// Nanoseconds since [`Stopwatch::start`], saturated to `u64`.
    pub fn elapsed_ns(&self) -> u64 {
        let d = self.0.elapsed();
        d.as_secs().saturating_mul(1_000_000_000).saturating_add(d.subsec_nanos() as u64)
    }
}

/// A field value in a structured [`Event`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Serializes the value as a JSON token into `out`.
    pub(crate) fn write_json(&self, out: &mut String) {
        match self {
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Value::F64(_) => out.push_str("null"),
            Value::Str(s) => write_json_string(out, s),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

/// Escapes and quotes `s` as a JSON string into `out`.
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One structured observability event: a name, a timestamp, and a flat set
/// of typed fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event name (dotted convention: `pass.fold`, `sim.deliver`).
    pub name: String,
    /// Timestamp in nanoseconds. Simulator events carry simulated time;
    /// compiler events carry wall time since process start (or zero).
    pub(crate) ts_ns: u64,
    /// Typed fields, serialized in insertion order.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// A new event with no fields.
    pub fn new(name: impl Into<String>, ts_ns: u64) -> Event {
        Event { name: name.into(), ts_ns, fields: Vec::new() }
    }

    /// Adds a field (builder style).
    pub fn field(mut self, key: &'static str, value: impl Into<Value>) -> Event {
        self.fields.push((key, value.into()));
        self
    }

    /// One JSON object, no trailing newline: the JSONL record form.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push_str("{\"event\":");
        write_json_string(&mut out, &self.name);
        let _ = write!(out, ",\"ts_ns\":{}", self.ts_ns);
        for (k, v) in &self.fields {
            out.push(',');
            write_json_string(&mut out, k);
            out.push(':');
            v.write_json(&mut out);
        }
        out.push('}');
        out
    }
}

/// An in-memory JSON Lines sink: collects events as serialized lines,
/// flushable to any `io::Write` (a file, a pipe, a test buffer).
#[derive(Debug, Default)]
pub struct JsonlSink {
    lines: Vec<String>,
}

impl JsonlSink {
    /// An empty sink.
    pub fn new() -> JsonlSink {
        JsonlSink::default()
    }

    /// Appends one event.
    pub fn push(&mut self, event: &Event) {
        self.lines.push(event.to_json());
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether the sink is empty.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// The whole sink as one newline-terminated string.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for l in &self.lines {
            out.push_str(l);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The JSONL record, byte for byte: every value kind, a non-finite
    /// float as `null`, and a string's quote, backslash and control
    /// characters escaped.
    #[test]
    fn to_json_writes_the_exact_record() {
        let e = Event::new("sim.deliver", 12_345)
            .field("dst", 7u64)
            .field("app", "AGG \"quoted\"\n\t\\\u{1}")
            .field("depth", -3i64)
            .field("value", 1.5f64)
            .field("nan", f64::NAN)
            .field("dropped", true);
        assert_eq!(
            e.to_json(),
            r#"{"event":"sim.deliver","ts_ns":12345,"dst":7,"app":"AGG \"quoted\"\n\t\\\u0001","depth":-3,"value":1.5,"nan":null,"dropped":true}"#
        );
    }

    #[test]
    fn jsonl_sink_collects_and_flushes() {
        let mut sink = JsonlSink::new();
        assert!(sink.is_empty());
        sink.push(&Event::new("a", 1));
        sink.push(&Event::new("b", 2).field("count", 3u64).field("ok", false));
        assert_eq!(sink.len(), 2);
        assert_eq!(
            sink.to_jsonl(),
            "{\"event\":\"a\",\"ts_ns\":1}\n{\"event\":\"b\",\"ts_ns\":2,\"count\":3,\"ok\":false}\n"
        );
    }

    #[test]
    fn stopwatch_monotonic() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_ns();
        let b = sw.elapsed_ns();
        assert!(b >= a);
    }
}
