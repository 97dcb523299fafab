//! The preprocessor as it was before it became one pass, kept as the
//! differential oracle: per line, a `String` of the comment-stripped text,
//! then up to 16 whole-line rescans. For every input whose macros neither
//! refer to themselves nor chain deeper than 16, the one-pass preprocessor
//! must write exactly what this writes and report exactly what this
//! reports.
//!
//! `tests/preprocess.rs` here and the root package's `tests/preprocess.rs`
//! (the benchmark fleet) include it; each brings `DiagnosticSink` and
//! `Span` into scope.

use super::{DiagnosticSink, Span};
use std::collections::HashMap;

/// Strips comments, processes `#define`/`#undef`, expands macros.
pub fn preprocess(source: &str, diags: &mut DiagnosticSink) -> String {
    let without_comments = strip_comments(source);
    let mut defines: HashMap<String, String> = HashMap::new();
    let mut out = String::with_capacity(without_comments.len());
    let mut offset = 0u32;
    for line in without_comments.split_inclusive('\n') {
        let trimmed = line.trim_start();
        if let Some(rest) = trimmed.strip_prefix('#') {
            handle_directive(rest.trim_end(), &mut defines, diags, offset, line.len() as u32);
            // Keep the newline so line numbers stay stable.
            out.push_str(&blank_like(line));
        } else {
            out.push_str(&expand_line(line, &defines));
        }
        offset += line.len() as u32;
    }
    out
}

fn handle_directive(
    rest: &str,
    defines: &mut HashMap<String, String>,
    diags: &mut DiagnosticSink,
    offset: u32,
    len: u32,
) {
    let span = Span::new(offset, offset + len);
    let mut parts = rest.splitn(2, char::is_whitespace);
    match parts.next().unwrap_or("") {
        "define" => {
            let body = parts.next().unwrap_or("").trim();
            let mut it = body.splitn(2, char::is_whitespace);
            let raw_name = it.next().unwrap_or("");
            if raw_name.contains('(') {
                diags.error("E0005", "function-like macros are not supported", span);
                return;
            }
            if is_macro_name(raw_name) {
                let replacement = it.next().unwrap_or("").trim().to_string();
                defines.insert(raw_name.to_string(), replacement);
            } else {
                diags.error("E0006", "malformed #define", span);
            }
        }
        "undef" => {
            let name = parts.next().unwrap_or("").trim();
            defines.remove(name);
        }
        "include" | "pragma" | "ifndef" | "ifdef" | "endif" | "if" | "else" => {
            // Accepted and ignored: paper sources occasionally carry include
            // guards; NetCL compilation units are single files here.
        }
        other => {
            diags.error("E0007", format!("unknown preprocessor directive `#{other}`"), span);
        }
    }
}

fn is_macro_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Replaces every byte with a space except newlines, preserving layout.
fn blank_like(s: &str) -> String {
    s.chars().map(|c| if c == '\n' { '\n' } else { ' ' }).collect()
}

/// Removes `//...` and `/*...*/` comments, preserving newlines and column
/// positions (comment bytes become spaces).
fn strip_comments(source: &str) -> String {
    let bytes = source.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
            while i < bytes.len() && bytes[i] != b'\n' {
                out.push(b' ');
                i += 1;
            }
        } else if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
            out.push(b' ');
            out.push(b' ');
            i += 2;
            while i < bytes.len() {
                if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                    out.push(b' ');
                    out.push(b' ');
                    i += 2;
                    break;
                }
                out.push(if bytes[i] == b'\n' { b'\n' } else { b' ' });
                i += 1;
            }
        } else if bytes[i] == b'\'' {
            // Don't treat comment starters inside char literals.
            out.push(bytes[i]);
            i += 1;
            while i < bytes.len() && bytes[i] != b'\'' {
                out.push(bytes[i]);
                i += 1;
            }
            if i < bytes.len() {
                out.push(bytes[i]);
                i += 1;
            }
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).expect("comment stripping preserves UTF-8 for ASCII sources")
}

/// Expands object-like macros in one line, with rescanning (bounded depth).
fn expand_line(line: &str, defines: &HashMap<String, String>) -> String {
    let mut current = line.to_string();
    for _ in 0..16 {
        let (next, changed) = expand_once(&current, defines);
        if !changed {
            break;
        }
        current = next;
    }
    current
}

fn expand_once(line: &str, defines: &HashMap<String, String>) -> (String, bool) {
    let mut out = String::with_capacity(line.len());
    let mut changed = false;
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
            }
            let word = &line[start..i];
            if let Some(rep) = defines.get(word) {
                out.push_str(rep);
                changed = true;
            } else {
                out.push_str(word);
            }
        } else {
            // Everything up to the next identifier, verbatim: identifiers
            // start with an ASCII byte, so the run ends on a character
            // boundary and a multi-byte character passes through whole.
            let start = i;
            while i < bytes.len() && !(bytes[i].is_ascii_alphabetic() || bytes[i] == b'_') {
                i += 1;
            }
            out.push_str(&line[start..i]);
        }
    }
    (out, changed)
}
