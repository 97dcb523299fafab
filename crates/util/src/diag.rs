//! Source locations, source maps, and diagnostics.
//!
//! The NetCL compiler reports every error with the exact source region it
//! originates from, mirroring how Clang-based frontends attach
//! `SourceLocation`s to AST nodes. A [`Span`] is a half-open byte range into
//! a file registered with a [`SourceMap`]; diagnostics accumulate in a
//! [`DiagnosticSink`] so that analyses can keep going after the first error
//! and report everything at once.

use std::fmt;

/// A half-open byte range `[lo, hi)` within a single source file.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub(crate) lo: u32,
    /// Byte offset one past the last character.
    pub(crate) hi: u32,
    /// Index of the file in the owning [`SourceMap`].
    pub(crate) file: u16,
}

impl Span {
    /// A span covering nothing, used for synthesized nodes.
    pub const DUMMY: Span = Span { lo: 0, hi: 0, file: u16::MAX };

    /// Creates a span within file 0; convenient for single-file compiles.
    pub fn new(lo: u32, hi: u32) -> Self {
        Span { lo, hi, file: 0 }
    }

    /// The smallest span covering both `self` and `other`.
    ///
    /// Dummy spans are absorbed: joining with [`Span::DUMMY`] returns the
    /// non-dummy side.
    pub fn to(self, other: Span) -> Span {
        if self == Span::DUMMY {
            return other;
        }
        if other == Span::DUMMY {
            return self;
        }
        Span { lo: self.lo.min(other.lo), hi: self.hi.max(other.hi), file: self.file }
    }

    /// True when this is the sentinel produced for synthesized nodes.
    pub fn is_dummy(self) -> bool {
        self == Span::DUMMY
    }

    /// Length in bytes.
    pub(crate) fn len(self) -> u32 {
        self.hi.saturating_sub(self.lo)
    }
}

impl fmt::Debug for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_dummy() {
            write!(f, "<dummy>")
        } else {
            write!(f, "{}..{}", self.lo, self.hi)
        }
    }
}

/// A registered source file: name plus full text.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Display name (path or synthetic name like `<agg.ncl>`).
    pub name: String,
    /// Complete file contents.
    pub(crate) text: String,
    /// Byte offsets of the first character of each line.
    line_starts: Vec<u32>,
}

impl SourceFile {
    fn new(name: String, text: String) -> Self {
        let mut line_starts = vec![0u32];
        for (i, b) in text.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i as u32 + 1);
            }
        }
        SourceFile { name, text, line_starts }
    }

    /// 1-based (line, column) of a byte offset.
    pub(crate) fn line_col(&self, offset: u32) -> (u32, u32) {
        let line = match self.line_starts.binary_search(&offset) {
            Ok(l) => l,
            Err(l) => l - 1,
        };
        (line as u32 + 1, offset - self.line_starts[line] + 1)
    }

    /// The text of the 1-based line `line`, without the trailing newline.
    pub(crate) fn line_text(&self, line: u32) -> &str {
        let idx = (line - 1) as usize;
        let start = self.line_starts[idx] as usize;
        let end = self.line_starts.get(idx + 1).map(|&s| s as usize).unwrap_or(self.text.len());
        self.text[start..end].trim_end_matches('\n')
    }
}

/// Registry of source files; resolves [`Span`]s to human-readable locations.
#[derive(Default, Debug, Clone)]
pub struct SourceMap {
    files: Vec<SourceFile>,
}

impl SourceMap {
    /// Creates an empty source map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a file, returning its index for use in `Span::file`.
    pub fn add_file(&mut self, name: impl Into<String>, text: impl Into<String>) -> u16 {
        let id = self.files.len() as u16;
        self.files.push(SourceFile::new(name.into(), text.into()));
        id
    }

    /// The file a span points into, if the span is not a dummy.
    pub fn file(&self, span: Span) -> Option<&SourceFile> {
        self.files.get(span.file as usize)
    }

    /// Formats `span` as `name:line:col`.
    pub(crate) fn describe(&self, span: Span) -> String {
        match self.file(span) {
            Some(f) => {
                let (l, c) = f.line_col(span.lo);
                format!("{}:{}:{}", f.name, l, c)
            }
            None => "<unknown>".to_string(),
        }
    }
}

/// How serious a diagnostic is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Informational note attached to another diagnostic.
    Note,
    /// Suspicious but not fatal.
    Warning,
    /// Compilation cannot produce output.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Note => write!(f, "note"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// A single compiler message with optional machine-readable code.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Error/warning/note.
    pub severity: Severity,
    /// Stable identifier such as `E0301`; tests assert on these.
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
    /// Primary source location.
    pub(crate) span: Span,
    /// Secondary locations with labels (e.g. "previous kernel here").
    pub(crate) notes: Vec<(Span, String)>,
}

impl Diagnostic {
    /// Creates an error diagnostic.
    pub fn error(code: &'static str, message: impl Into<String>, span: Span) -> Self {
        Diagnostic { severity: Severity::Error, code, message: message.into(), span, notes: vec![] }
    }

    /// Creates a warning diagnostic.
    pub(crate) fn warning(code: &'static str, message: impl Into<String>, span: Span) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            code,
            message: message.into(),
            span,
            notes: vec![],
        }
    }

    /// Attaches a secondary labelled location.
    pub fn with_note(mut self, span: Span, label: impl Into<String>) -> Self {
        self.notes.push((span, label.into()));
        self
    }

    /// Renders the diagnostic with a source excerpt, Clang-style.
    pub fn render(&self, map: &SourceMap) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = write!(
            out,
            "{}: {}[{}]: {}",
            map.describe(self.span),
            self.severity,
            self.code,
            self.message
        );
        if let Some(f) = map.file(self.span) {
            let (line, col) = f.line_col(self.span.lo);
            let text = f.line_text(line);
            let _ = write!(out, "\n  {} | {}", line, text);
            // Pad and carets count characters, so a span after or over a
            // multi-byte character still sits under it.
            let start = col as usize - 1;
            let end = (start + self.span.len() as usize).min(text.len());
            let before = text.get(..start).map_or(start, |s| s.chars().count());
            let carets = text.get(start..end).map_or(0, |s| s.chars().count()).max(1);
            let pad = line.to_string().len() + 5 + before;
            let _ = write!(out, "\n{}{}", " ".repeat(pad), "^".repeat(carets));
        }
        for (span, label) in &self.notes {
            let _ = write!(out, "\n  {}: note: {}", map.describe(*span), label);
        }
        out
    }
}

/// Accumulates diagnostics during a compilation phase.
#[derive(Default, Debug, Clone)]
pub struct DiagnosticSink {
    diags: Vec<Diagnostic>,
    errors: usize,
}

impl DiagnosticSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a diagnostic.
    pub fn emit(&mut self, diag: Diagnostic) {
        if diag.severity == Severity::Error {
            self.errors += 1;
        }
        self.diags.push(diag);
    }

    /// Shorthand for [`DiagnosticSink::emit`] with [`Diagnostic::error`].
    pub fn error(&mut self, code: &'static str, message: impl Into<String>, span: Span) {
        self.emit(Diagnostic::error(code, message, span));
    }

    /// Shorthand for [`DiagnosticSink::emit`] with a warning.
    pub fn warning(&mut self, code: &'static str, message: impl Into<String>, span: Span) {
        self.emit(Diagnostic::warning(code, message, span));
    }

    /// True if at least one error was emitted.
    pub fn has_errors(&self) -> bool {
        self.errors > 0
    }

    /// All diagnostics in emission order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// True when a diagnostic with the given code was emitted.
    pub fn has_code(&self, code: &str) -> bool {
        self.diags.iter().any(|d| d.code == code)
    }

    /// Merges another sink's diagnostics into this one.
    pub fn absorb(&mut self, mut other: DiagnosticSink) {
        self.errors += other.errors;
        self.diags.append(&mut other.diags);
    }

    /// Renders every diagnostic, one per paragraph.
    pub fn render_all(&self, map: &SourceMap) -> String {
        self.diags.iter().map(|d| d.render(map)).collect::<Vec<_>>().join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_join_covers_both() {
        let a = Span::new(4, 8);
        let b = Span::new(10, 12);
        assert_eq!(a.to(b), Span::new(4, 12));
        assert_eq!(b.to(a), Span::new(4, 12));
    }

    #[test]
    fn span_join_absorbs_dummy() {
        let a = Span::new(4, 8);
        assert_eq!(a.to(Span::DUMMY), a);
        assert_eq!(Span::DUMMY.to(a), a);
    }

    #[test]
    fn line_col_resolution() {
        let mut map = SourceMap::new();
        map.add_file("x.ncl", "abc\ndef\nghi\n");
        let f = map.file(Span::new(0, 1)).unwrap();
        assert_eq!(f.line_col(0), (1, 1));
        assert_eq!(f.line_col(4), (2, 1));
        assert_eq!(f.line_col(6), (2, 3));
        assert_eq!(f.line_col(8), (3, 1));
        assert_eq!(f.line_text(2), "def");
    }

    #[test]
    fn describe_names_the_file_line_and_column() {
        let mut map = SourceMap::new();
        map.add_file("k.ncl", "_kernel(1) void f() {}\n");
        let span = Span::new(11, 15);
        assert_eq!(map.describe(span), "k.ncl:1:12");
    }

    #[test]
    fn sink_counts_errors_only() {
        let mut sink = DiagnosticSink::new();
        sink.warning("W0001", "meh", Span::new(0, 1));
        assert!(!sink.has_errors());
        sink.error("E0001", "bad", Span::new(0, 1));
        sink.error("E0002", "worse", Span::new(0, 1));
        assert_eq!(sink.errors, 2);
        assert!(sink.has_code("E0002"));
        assert!(!sink.has_code("E0404"));
    }

    #[test]
    fn render_includes_code_and_excerpt() {
        let mut map = SourceMap::new();
        map.add_file("a.ncl", "int x = y;\n");
        let d = Diagnostic::error("E0101", "unknown identifier `y`", Span::new(8, 9));
        let rendered = d.render(&map);
        assert!(rendered.contains("a.ncl:1:9"));
        assert!(rendered.contains("E0101"));
        assert!(rendered.contains("int x = y;"));
    }

    #[test]
    fn render_puts_one_caret_per_character_under_the_span() {
        let mut map = SourceMap::new();
        map.add_file("a.ncl", "é = y + zw;\n");
        // `y` sits after a two-byte character; `zw` is two characters.
        for (lo, hi, under) in [(5, 6, "y"), (9, 11, "zw"), (0, 2, "é")] {
            let rendered = Diagnostic::error("E0101", "x", Span::new(lo, hi)).render(&map);
            let lines: Vec<&str> = rendered.lines().collect();
            let excerpt: Vec<char> = lines[1].chars().collect();
            let caret_row = lines[2];
            let col = caret_row.chars().position(|c| c == '^').unwrap();
            let shown: String = excerpt[col..col + caret_row.matches('^').count()].iter().collect();
            assert_eq!(shown, under, "{rendered}");
        }
    }

    #[test]
    fn sink_absorb_merges() {
        let mut a = DiagnosticSink::new();
        a.error("E1", "x", Span::DUMMY);
        let mut b = DiagnosticSink::new();
        b.error("E2", "y", Span::DUMMY);
        a.absorb(b);
        assert_eq!(a.errors, 2);
        assert_eq!(a.diagnostics().len(), 2);
    }
}
