//! A miniature C preprocessor, in one pass over the bytes.
//!
//! Every NetCL listing in the paper relies on object-like macros
//! (`CMS_HASHES`, `NUM_SLOTS`, `THRESH`, `GET_REQ`, location names like
//! `LEADER`, ...). We support exactly what those need:
//!
//! * `#define NAME replacement` (object-like; the replacement is rescanned,
//!   so macros can reference other macros)
//! * `#undef NAME`
//! * `//` and `/* */` comment stripping
//!
//! Function-like macros are intentionally not supported — the paper never
//! uses them, and §II calls out preprocessor-heavy P4 code generation as a
//! source of errors NetCL avoids.
//!
//! Expansion preserves the line structure of the input (comments and
//! directives are blanked, not removed) so diagnostics refer to recognizable
//! locations. Comments, directives and expansion all write into one output
//! buffer as the cursor passes: a comment byte becomes a space, a directive
//! line a space per character once it has been read, and an identifier is
//! looked up only while some macro is defined.
//!
//! Expansion follows C11 §6.10.3.4p2: a macro's name inside its own
//! expansion, directly or through other macros, is not replaced again, so
//! `#define X X X X` makes `X` read `X X X`. The bytes replacements write
//! into one unit are bounded by [`EXPANSION_LIMIT`]; a unit that needs more
//! (a chain of macros each naming the next twice doubles at every link) is
//! one E0008 at the name whose expansion crossed the bound, and its later
//! names are left as written.

use netcl_util::{DiagnosticSink, Span};
use std::collections::HashMap;

/// The most bytes macro replacements may write into one unit: 1 MiB, far
/// beyond what a NetCL unit uses and small enough that a runaway expansion
/// stops within milliseconds.
pub const EXPANSION_LIMIT: usize = 1 << 20;

/// Strips comments, processes `#define`/`#undef`, expands macros.
pub(crate) fn preprocess(source: &str, diags: &mut DiagnosticSink) -> String {
    let mut pass = Pass {
        src: source,
        out: String::with_capacity(source.len()),
        state: State::Code,
        line: Line::Lead,
        line_start: 0,
        line_out: 0,
        macros: Macros::default(),
        diags,
    };
    pass.run();
    pass.out
}

/// What the comment stripper is inside of. A `'` opens a quote that runs to
/// the next `'`, across lines, and comment starters inside it are text.
#[derive(Clone, Copy)]
enum State {
    Code,
    Block,
    Quote,
}

/// What the current line has turned out to be: only whitespace so far, a
/// directive (its first other character was `#`), or code.
#[derive(Clone, Copy, PartialEq)]
enum Line {
    Lead,
    /// The output offset of the `#`.
    Directive(usize),
    Code,
}

struct Pass<'a, 'd> {
    src: &'a str,
    out: String,
    state: State,
    line: Line,
    /// Source offset of the current line's first byte.
    line_start: usize,
    /// Output offset of the current line's first byte.
    line_out: usize,
    macros: Macros,
    diags: &'d mut DiagnosticSink,
}

impl Pass<'_, '_> {
    fn run(&mut self) {
        let bytes = self.src.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            match self.state {
                State::Block => {
                    let rest = &bytes[i..];
                    let stop = rest.iter().position(|&c| c == b'\n' || c == b'*');
                    let n = stop.unwrap_or(rest.len());
                    self.blank(n);
                    i += n;
                    match stop.map(|s| rest[s]) {
                        Some(b'\n') => i = self.newline(i),
                        Some(_) if bytes.get(i + 1) == Some(&b'/') => {
                            self.blank(2);
                            self.state = State::Code;
                            i += 2;
                        }
                        Some(_) => {
                            self.blank(1);
                            i += 1;
                        }
                        None => {}
                    }
                }
                State::Quote => {
                    let rest = &bytes[i..];
                    match rest.iter().position(|&c| c == b'\n' || c == b'\'') {
                        Some(s) if rest[s] == b'\n' => {
                            self.kept(i, i + s);
                            i = self.newline(i + s);
                        }
                        Some(s) => {
                            self.kept(i, i + s + 1);
                            self.state = State::Code;
                            i += s + 1;
                        }
                        None => {
                            self.kept(i, bytes.len());
                            i = bytes.len();
                        }
                    }
                }
                State::Code => match bytes[i] {
                    b'\n' => i = self.newline(i),
                    b'/' if bytes.get(i + 1) == Some(&b'/') => {
                        let n = bytes[i..].iter().position(|&c| c == b'\n');
                        let n = n.unwrap_or(bytes.len() - i);
                        self.blank(n);
                        i += n;
                    }
                    b'/' if bytes.get(i + 1) == Some(&b'*') => {
                        self.blank(2);
                        self.state = State::Block;
                        i += 2;
                    }
                    b'\'' => {
                        self.kept(i, i + 1);
                        self.state = State::Quote;
                        i += 1;
                    }
                    _ => {
                        let rest = &bytes[i + 1..];
                        let n = rest.iter().position(|&c| matches!(c, b'\n' | b'/' | b'\''));
                        let end = i + 1 + n.unwrap_or(rest.len());
                        self.kept(i, end);
                        i = end;
                    }
                },
            }
        }
        self.end_line(bytes.len());
    }

    /// `n` comment bytes, each a space.
    fn blank(&mut self, n: usize) {
        const SPACES: &str = "                                                                ";
        let mut n = n;
        while n > 0 {
            let k = n.min(SPACES.len());
            self.out.push_str(&SPACES[..k]);
            n -= k;
        }
    }

    /// Source bytes `a..b` that are not comment: no newline among them, and
    /// both ends on a character boundary (every byte the caller splits at
    /// is ASCII).
    fn kept(&mut self, a: usize, b: usize) {
        let mut a = a;
        if self.line == Line::Lead {
            let text = &self.src[a..b];
            let first = text.char_indices().find(|&(_, c)| !c.is_whitespace());
            let Some((off, c)) = first else {
                self.out.push_str(text);
                return;
            };
            self.out.push_str(&text[..off]);
            a += off;
            self.line = if c == '#' { Line::Directive(self.out.len()) } else { Line::Code };
        }
        if matches!(self.line, Line::Directive(_)) || self.macros.none() {
            self.out.push_str(&self.src[a..b]);
            return;
        }
        // Identifiers start at a letter or `_` anywhere — after digits too,
        // as in `0xK` — and run over letters, digits and `_`.
        let bytes = &self.src.as_bytes()[..b];
        let (mut j, mut flushed) = (a, a);
        while let Some(k) = bytes[j..].iter().position(|&c| is_ident_start(c)) {
            let start = j + k;
            let len = bytes[start + 1..].iter().position(|&c| !is_ident(c));
            j = len.map_or(b, |len| start + 1 + len);
            if let Some(m) = self.macros.find(&self.src[start..j]) {
                self.out.push_str(&self.src[flushed..start]);
                let span = Span::new(start as u32, j as u32);
                self.macros.expand(m, &self.src[start..j], span, &mut self.out, self.diags);
                flushed = j;
            }
        }
        self.out.push_str(&self.src[flushed..b]);
    }

    /// The newline at source offset `i`: ends the line, returns `i + 1`.
    fn newline(&mut self, i: usize) -> usize {
        self.end_line(i + 1);
        i + 1
    }

    /// Ends the line that runs to source offset `end` (past its newline,
    /// if it has one). A directive line is read, then blanked: a space per
    /// character, the newline kept.
    fn end_line(&mut self, end: usize) {
        let newline = end > self.line_start && self.src.as_bytes()[end - 1] == b'\n';
        if let Line::Directive(hash) = self.line {
            let span = Span::new(self.line_start as u32, end as u32);
            self.macros.directive(self.out[hash + 1..].trim_end(), span, self.diags);
            let chars = self.out[self.line_out..].chars().count();
            self.out.truncate(self.line_out);
            self.blank(chars);
        }
        if newline {
            self.out.push('\n');
        }
        self.line = Line::Lead;
        self.line_start = end;
        self.line_out = self.out.len();
    }
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// The macros defined so far, and the state of an expansion.
#[derive(Default)]
struct Macros {
    /// The macros defined now; `#undef` removes the name only.
    names: HashMap<String, Macro>,
    /// Every replacement ever defined, one after the other.
    text: String,
    /// Per [`Macro::id`]: being expanded right now, so not to be replaced
    /// again.
    active: Vec<bool>,
    /// Bit `len % 64` for every defined name's length and bit `first % 64`
    /// for its first byte: an identifier missing either bit is no macro,
    /// without hashing it.
    lengths: u64,
    firsts: u64,
    /// The macros being expanded, innermost last, each with how far into
    /// `text` its expansion has got.
    stack: Vec<(Macro, usize)>,
    /// Replacement bytes written so far, against [`EXPANSION_LIMIT`].
    written: usize,
    /// The limit was crossed: nothing expands any more.
    exhausted: bool,
}

/// A defined name: which one, and where its replacement is in
/// [`Macros::text`].
#[derive(Clone, Copy)]
struct Macro {
    id: usize,
    start: usize,
    end: usize,
}

impl Macros {
    fn none(&self) -> bool {
        self.names.is_empty() || self.exhausted
    }

    fn find(&self, word: &str) -> Option<Macro> {
        let (len, first) = (word.len() % 64, word.as_bytes()[0] % 64);
        if self.lengths & (1 << len) == 0 || self.firsts & (1 << first) == 0 || self.exhausted {
            return None;
        }
        self.names.get(word).copied()
    }

    /// One directive: `text` is what follows the `#`, trailing whitespace
    /// trimmed; `span` is its line.
    fn directive(&mut self, text: &str, span: Span, diags: &mut DiagnosticSink) {
        let mut parts = text.splitn(2, char::is_whitespace);
        match parts.next().unwrap_or("") {
            "define" => {
                let body = parts.next().unwrap_or("").trim();
                let mut it = body.splitn(2, char::is_whitespace);
                let name = it.next().unwrap_or("");
                if name.contains('(') {
                    diags.error("E0005", "function-like macros are not supported", span);
                } else if is_macro_name(name) {
                    self.define(name, it.next().unwrap_or("").trim());
                } else {
                    diags.error("E0006", "malformed #define", span);
                }
            }
            "undef" => {
                self.names.remove(parts.next().unwrap_or("").trim());
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

    fn define(&mut self, name: &str, replacement: &str) {
        if self.active.is_empty() {
            // Room for the macros of a typical unit, reserved by its first.
            self.names.reserve(16);
            self.text.reserve(256);
            self.active.reserve(16);
        }
        self.lengths |= 1 << (name.len() % 64);
        self.firsts |= 1 << (name.as_bytes()[0] % 64);
        let start = self.text.len();
        self.text.push_str(replacement);
        let end = self.text.len();
        let fresh = Macro { id: self.active.len(), start, end };
        let m = self.names.entry(name.into()).or_insert(fresh);
        if m.id == fresh.id {
            self.active.push(false);
        }
        (m.start, m.end) = (start, end);
    }

    /// Writes the expansion of macro `top`, found as `word` at `span`, into
    /// `out`: its replacement, each identifier in it that names a macro not
    /// being expanded replaced in turn. Crossing [`EXPANSION_LIMIT`] takes
    /// back what this expansion wrote, writes `word`, reports E0008 and
    /// ends all expansion.
    fn expand(
        &mut self,
        top: Macro,
        word: &str,
        span: Span,
        out: &mut String,
        diags: &mut DiagnosticSink,
    ) {
        let mark = out.len();
        let mut ok = self.enter(top);
        while let (true, Some(&(m, at))) = (ok, self.stack.last()) {
            let rep = &self.text.as_bytes()[..m.end];
            if at == m.end {
                self.active[m.id] = false;
                self.stack.pop();
                continue;
            }
            let mut end = at;
            if is_ident_start(rep[at]) {
                while end < m.end && is_ident(rep[end]) {
                    end += 1;
                }
                if let Some(n) = self.find(&self.text[at..end]).filter(|n| !self.active[n.id]) {
                    self.stack.last_mut().expect("a frame is open").1 = end;
                    ok = self.enter(n);
                    continue;
                }
            } else {
                while end < m.end && !is_ident_start(rep[end]) {
                    end += 1;
                }
            }
            out.push_str(&self.text[at..end]);
            self.stack.last_mut().expect("a frame is open").1 = end;
        }
        if !ok {
            for &(m, _) in &self.stack {
                self.active[m.id] = false;
            }
            self.stack.clear();
            self.exhausted = true;
            out.truncate(mark);
            out.push_str(word);
            let message = format!("expansion of `{word}` exceeds {EXPANSION_LIMIT} bytes");
            diags.error("E0008", message, span);
        }
    }

    /// Opens macro `m`'s expansion, charging its replacement against the
    /// limit; `false` when that would cross it.
    fn enter(&mut self, m: Macro) -> bool {
        self.written += m.end - m.start;
        if self.written > EXPANSION_LIMIT {
            return false;
        }
        self.active[m.id] = true;
        self.stack.push((m, m.start));
        true
    }
}

fn is_macro_name(s: &str) -> bool {
    s.as_bytes().first().is_some_and(|&c| is_ident_start(c)) && s.bytes().all(is_ident)
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
        let out = pp("int a; // trailing\nint /* mid */ b;\n");
        assert_eq!(out.lines().count(), 2);
        assert!(out.contains("int a;"));
        assert!(!out.contains("trailing"));
        assert!(!out.contains("mid"));
        // `b` stays at its original column.
        assert_eq!(out.lines().nth(1).unwrap().find('b'), "int /* mid */ b;".find('b'));
    }

    #[test]
    fn block_comment_spanning_lines() {
        let out = pp("a /* x\ny */ b\n");
        assert_eq!(out, "a     \n     b\n");
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

    /// C11 §6.10.3.4p2: a macro's name inside its own expansion stays.
    #[test]
    fn a_self_referencing_macro_expands_once() {
        assert_eq!(pp("#define X X X X\nint y = X;"), "               \nint y = X X X;");
    }

    /// `A` → `B` → `A`: the expansion ends at the name being expanded.
    #[test]
    fn a_mutual_pair_ends_at_the_name_being_expanded() {
        let out = pp("#define A B\n#define B A\nint a = A; int b = B;\n");
        assert_eq!(out.lines().nth(2), Some("int a = A; int b = B;"));
        let out = pp("#define A 1 + B\n#define B 2 * A\nint a = A; int b = B;\n");
        assert_eq!(out.lines().nth(2), Some("int a = 1 + 2 * A; int b = 2 * 1 + B;"));
    }

    /// Forty macros, each naming the one before it twice, would expand to
    /// 2⁴⁰ copies: one E0008 at the name, which is left as written, and
    /// nothing expands after it.
    #[test]
    fn a_doubling_chain_stops_at_the_bound() {
        let mut src = String::from("#define M0 x\n");
        for i in 1..40 {
            src.push_str(&format!("#define M{i} M{p} M{p}\n", p = i - 1));
        }
        src.push_str("int y = M39; int z = M0;\n");
        let t0 = std::time::Instant::now();
        let mut d = DiagnosticSink::new();
        let out = preprocess(&src, &mut d);
        assert!(t0.elapsed() < std::time::Duration::from_secs(2), "{:?}", t0.elapsed());
        let [e] = d.diagnostics() else { panic!("{:?}", d.diagnostics()) };
        assert_eq!(e.code, "E0008");
        assert_eq!(out.lines().last(), Some("int y = M39; int z = M0;"));
        assert!(out.len() <= src.len() + EXPANSION_LIMIT);
    }
}
