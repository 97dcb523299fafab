//! The NetCL-C language frontend.
//!
//! NetCL (SC 2024) extends C/C++ with a handful of specifiers and a small
//! device/host library so that in-network computations can be written as
//! kernel functions (paper §V). This crate implements the complete textual
//! frontend for NetCL-C — the C subset plus every extension the paper uses:
//!
//! * `_kernel(c)` — declares a kernel belonging to computation `c`
//! * `_net_` — device functions and device-only global memory
//! * `_managed_` — global memory writable from host code
//! * `_lookup_` — match-action-table backed memory, searched not indexed
//! * `_at(l, ...)` — placement of an entity on specific device IDs
//! * `_spec(n)` — element-count specification for pointer kernel arguments
//! * `ncl::` device/host library calls, `ncl::kv<K,V>` / `ncl::rv<R,V>`
//!   lookup element types, and the `device.id` builtin
//!
//! The pipeline is `preprocess` → `lexer` → `parser` producing the
//! [`ast`]. Semantic analysis lives in the `netcl-sema` crate.
//!
//! DESIGN.md §3 records exactly what the frontend accepts and rejects.

#![warn(unreachable_pub)]

pub mod ast;
mod lexer;
mod parser;
mod preprocess;
mod token;

pub use ast::Program;
pub use preprocess::EXPANSION_LIMIT;

use netcl_util::{DiagnosticSink, Interner, SourceMap};

/// Everything produced by a successful front-end run.
pub struct ParsedUnit {
    /// The parsed translation unit.
    pub program: Program,
    /// Interner holding every identifier in the program.
    pub interner: Interner,
    /// Source map for diagnostics (file 0 is the preprocessed source).
    pub source_map: SourceMap,
}

/// A unit's source after preprocessing, and what preprocessing reported.
pub struct Preprocessed {
    /// The text the lexer reads: comments and directives blanked, macros
    /// expanded, every line where it was.
    pub text: String,
    /// Preprocessing diagnostics (all errors).
    pub diags: DiagnosticSink,
}

impl Preprocessed {
    /// Whether `self` and `other` lex to the same tokens at the same lines
    /// and columns: line by line equal once the whitespace the lexer skips
    /// is trimmed from each line's end, trailing blank lines ignored.
    pub fn places_tokens_as(&self, other: &Preprocessed) -> bool {
        fn lines(text: &str) -> impl Iterator<Item = &str> {
            let text = text.trim_end_matches(is_space);
            text.split('\n').map(|l| l.trim_end_matches(is_space))
        }
        lines(&self.text).eq(lines(&other.text))
    }
}

/// The whitespace the lexer skips.
fn is_space(c: char) -> bool {
    matches!(c, ' ' | '\t' | '\n' | '\r')
}

/// Preprocesses `source`: one pass that strips comments, reads directives
/// and expands macros (DESIGN.md §3).
pub fn preprocess(source: &str) -> Preprocessed {
    let mut diags = DiagnosticSink::new();
    let text = preprocess::preprocess(source, &mut diags);
    Preprocessed { text, diags }
}

/// Lexes and parses an already preprocessed unit; its diagnostics come
/// first in the returned sink.
pub fn parse_preprocessed(name: &str, pre: Preprocessed) -> (ParsedUnit, DiagnosticSink) {
    let Preprocessed { text, mut diags } = pre;
    let mut interner = Interner::new();
    let tokens = lexer::lex(&text, &mut interner, &mut diags);
    let program = parser::parse_tokens(&tokens, &mut interner, &mut diags);
    let mut source_map = SourceMap::new();
    source_map.add_file(name, text);
    (ParsedUnit { program, interner, source_map }, diags)
}

/// Convenience entry point: preprocess, lex, and parse `source`.
///
/// Returns the parsed unit and any diagnostics; `program` is best-effort when
/// errors were reported.
pub fn parse(name: &str, source: &str) -> (ParsedUnit, DiagnosticSink) {
    parse_preprocessed(name, preprocess(source))
}

#[cfg(test)]
mod tests {
    /// A character outside ASCII is one E0015 naming it, on a line with a
    /// macro expansion or without one, and the rendered line shows it as
    /// written.
    #[test]
    fn a_non_ascii_character_is_one_error_naming_it() {
        for (defines, line, rendered) in [
            ("", "  r = a + 3 + é;", "  r = a + 3 + é;"),
            ("#define K 3\n", "  r = a + K + é;", "  r = a + 3 + é;"),
        ] {
            let source = format!("{defines}_kernel(1) void k(int a, int &r) {{\n{line}\n}}\n");
            let (unit, diags) = crate::parse("t.ncl", &source);
            let bad: Vec<_> = diags.diagnostics().iter().filter(|d| d.code == "E0015").collect();
            let [d] = bad.as_slice() else { panic!("{line}: {} E0015 errors", bad.len()) };
            assert_eq!(d.message, "unexpected character `é`");
            let text = d.render(&unit.source_map);
            let shown = text.lines().nth(1).and_then(|l| l.split_once(" | ")).map(|(_, l)| l);
            assert_eq!(shown, Some(rendered), "{text}");
        }
    }

    /// A character literal or escape outside ASCII is the unit's one error,
    /// naming the decoded character: the literal still ends at its closing
    /// quote, so nothing cascades. The caret row covers the character (the
    /// literal, for an escape).
    #[test]
    fn a_non_ascii_character_literal_is_one_error_naming_it() {
        for (line, code, message, carets) in [
            ("  r = a + 'é';", "E0015", "unexpected character `é`", "^"),
            ("  r = a + '\\é';", "E0013", "unknown escape `\\é`", "^^^"),
        ] {
            let source = format!("_kernel(1) void k(int a, int &r) {{\n{line}\n}}\n");
            let (unit, diags) = crate::parse("t.ncl", &source);
            let [d] = diags.diagnostics() else {
                panic!("{line}: {}", diags.render_all(&unit.source_map))
            };
            assert_eq!((d.code, d.message.as_str()), (code, message));
            let text = d.render(&unit.source_map);
            let mut rows = text.lines().skip(1);
            let shown = rows.next().and_then(|l| l.split_once(" | ")).map(|(_, l)| l);
            assert_eq!(shown, Some(line), "{text}");
            assert_eq!(rows.next().map(str::trim), Some(carets), "{text}");
        }
    }
}
