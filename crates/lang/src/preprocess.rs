//! A miniature C preprocessor.
//!
//! Every NetCL listing in the paper relies on object-like macros
//! (`CMS_HASHES`, `NUM_SLOTS`, `THRESH`, `GET_REQ`, location names like
//! `LEADER`, ...). We support exactly what those need:
//!
//! * `#define NAME replacement` (object-like; replacement is a token string,
//!   rescanned so macros can reference earlier macros)
//! * `#undef NAME`
//! * `//` and `/* */` comment stripping
//!
//! Function-like macros are intentionally not supported — the paper never
//! uses them, and §II calls out preprocessor-heavy P4 code generation as a
//! source of errors NetCL avoids.
//!
//! Expansion preserves the line structure of the input (comments and
//! directives are blanked, not removed) so diagnostics refer to recognizable
//! locations.

use netcl_util::{DiagnosticSink, Span};
use std::collections::HashMap;

/// Strips comments, processes `#define`/`#undef`, expands macros.
pub(crate) fn preprocess(source: &str, diags: &mut DiagnosticSink) -> String {
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
pub(crate) fn strip_comments(source: &str) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn pp(src: &str) -> String {
        let mut d = DiagnosticSink::new();
        let r = preprocess(src, &mut d);
        assert!(!d.has_errors(), "{:?}", d.diagnostics());
        r
    }

    #[test]
    fn define_expands() {
        let out = pp("#define THRESH 512\nint x = THRESH;\n");
        assert!(out.contains("int x = 512;"));
    }

    #[test]
    fn define_chains() {
        let out = pp("#define A 2\n#define B A\nint x = B;\n");
        assert!(out.contains("int x = 2;"));
    }

    #[test]
    fn undef_removes() {
        let out = pp("#define A 1\n#undef A\nint x = A;\n");
        assert!(out.contains("int x = A;"));
    }

    #[test]
    fn macro_does_not_expand_inside_identifiers() {
        let out = pp("#define K 9\nint KEY = 1; int y = K;\n");
        assert!(out.contains("int KEY = 1"));
        assert!(out.contains("int y = 9;"));
    }

    #[test]
    fn line_numbers_preserved() {
        let out = pp("#define A 1\n\nint x = A;\n");
        assert_eq!(out.lines().count(), 3);
        assert_eq!(out.lines().nth(2).unwrap().trim(), "int x = 1;");
    }

    #[test]
    fn comments_stripped_preserving_columns() {
        let out = strip_comments("int a; // trailing\nint /* mid */ b;\n");
        assert_eq!(out.lines().count(), 2);
        assert!(out.contains("int a;"));
        assert!(!out.contains("trailing"));
        assert!(!out.contains("mid"));
        // `b` stays at its original column.
        assert_eq!(out.lines().nth(1).unwrap().find('b'), "int /* mid */ b;".find('b'));
    }

    #[test]
    fn block_comment_spanning_lines() {
        let out = strip_comments("a /* x\ny */ b\n");
        assert_eq!(out.lines().count(), 2);
        assert!(out.contains('a'));
        assert!(out.contains('b'));
        assert!(!out.contains('x'));
    }

    #[test]
    fn function_like_macro_rejected() {
        let mut d = DiagnosticSink::new();
        preprocess("#define F(x) x\n", &mut d);
        assert!(d.has_code("E0005"));
    }

    #[test]
    fn unknown_directive_rejected() {
        let mut d = DiagnosticSink::new();
        preprocess("#frobnicate\n", &mut d);
        assert!(d.has_code("E0007"));
    }

    #[test]
    fn include_ignored() {
        let out = pp("#include <netcl.h>\nint x;\n");
        assert!(out.contains("int x;"));
        assert!(!out.contains("include"));
    }
}
