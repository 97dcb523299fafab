//! Parser for the P4-16 subset this toolchain emits and consumes.
//!
//! `parse_program(print_program(p))` reproduces `p` up to layout, its
//! dialect included: `#include <v1model.p4>` reads as [`Target::V1Model`],
//! and a text without it as [`Target::Tna`]. The text is untrusted:
//! whatever it holds, parsing returns a program or a [`ParseError`], never
//! a panic.

use crate::ast::*;
use netcl_sema::builtins::{AtomicOp, AtomicRmw, HashKind};
use std::fmt::Write;

/// Parse error with line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line.
    pub(crate) line: u32,
    /// Description.
    pub(crate) message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p4:{}: {}", self.line, self.message)
    }
}

/// Parses a P4 program from text.
pub fn parse_program(text: &str) -> Result<P4Program, ParseError> {
    let (tokens, target) = lex(text)?;
    let mut p = Parser { tokens, pos: 0, depth: 0 };
    let mut program = p.program(target)?;
    read_device(&mut program);
    Ok(program)
}

/// Reads the program's device from its kernel guard: when the first
/// statement of the first control's `apply` is an `if` on
/// [`Expr::device_guard`] with a `16w<id>` constant, the constant becomes
/// the [`Expr::Device`] leaf and `<id>` the program's device.
fn read_device(p: &mut P4Program) {
    let ncl = |e: &Expr, field: &str| matches!(e, Expr::Field(f) if f.ns() == Ns::Hdr && f.canonical().strip_prefix("ncl.") == Some(field));
    let apply = std::sync::Arc::make_mut(&mut p.controls).first_mut().map(|c| &mut c.apply);
    let Some(Some(Stmt::If { cond, .. })) = apply.map(|a| a.first_mut()) else { return };
    let Expr::Bin(P4BinOp::LAnd, valid, here) = cond else { return };
    let Expr::Bin(P4BinOp::Eq, to, id) = &mut **here else { return };
    if let Expr::Const(n @ 0..=0xFFFF, 16) = **id {
        if ncl(valid, "$isValid") && ncl(to, "to") {
            **id = Expr::Device;
            p.device = n as u16;
        }
    }
}

// ---- lexer ---------------------------------------------------------------

/// One token; an identifier borrows its text from the source.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    Int(u64),
    /// Width-tagged literal `16w5`.
    Wint(u32, u64),
    Punct(&'static str),
}

#[derive(Debug, Clone, Copy)]
struct Token<'a> {
    tok: Tok<'a>,
    line: u32,
}

/// The punctuation token at the start of `rest` (non-empty): one match on
/// its first three bytes, longest token first.
fn punct(rest: &[u8]) -> Option<&'static str> {
    let (a, b, c) = (rest[0], rest.get(1).copied(), rest.get(2).copied());
    Some(match (a, b, c) {
        (b'|', Some(b'+'), Some(b'|')) => "|+|",
        (b'|', Some(b'-'), Some(b'|')) => "|-|",
        (b'|', Some(b'|'), _) => "||",
        (b'<', Some(b'<'), Some(b'=')) => "<<=",
        (b'<', Some(b'<'), _) => "<<",
        (b'<', Some(b'='), _) => "<=",
        (b'>', Some(b'>'), Some(b'=')) => ">>=",
        (b'>', Some(b'>'), _) => ">>",
        (b'>', Some(b'='), _) => ">=",
        (b'=', Some(b'='), _) => "==",
        (b'!', Some(b'='), _) => "!=",
        (b'&', Some(b'&'), _) => "&&",
        (b'.', Some(b'.'), _) => "..",
        (b'(', ..) => "(",
        (b')', ..) => ")",
        (b'{', ..) => "{",
        (b'}', ..) => "}",
        (b'[', ..) => "[",
        (b']', ..) => "]",
        (b'<', ..) => "<",
        (b'>', ..) => ">",
        (b';', ..) => ";",
        (b',', ..) => ",",
        (b'.', ..) => ".",
        (b':', ..) => ":",
        (b'=', ..) => "=",
        (b'+', ..) => "+",
        (b'-', ..) => "-",
        (b'*', ..) => "*",
        (b'/', ..) => "/",
        (b'&', ..) => "&",
        (b'|', ..) => "|",
        (b'^', ..) => "^",
        (b'~', ..) => "~",
        (b'!', ..) => "!",
        (b'@', ..) => "@",
        _ => return None,
    })
}

/// The literal number at `bytes[*i..]`, `0x` hexadecimal or decimal; one
/// that does not fit in 64 bits is an error.
fn number(bytes: &[u8], i: &mut usize, line: u32) -> Result<u64, ParseError> {
    let hex = bytes.get(*i) == Some(&b'0') && matches!(bytes.get(*i + 1), Some(b'x' | b'X'));
    let radix = if hex { 16 } else { 10 };
    *i += 2 * usize::from(hex);
    let mut value = 0u64;
    while let Some(d) = bytes.get(*i).and_then(|&b| (b as char).to_digit(radix)) {
        value = value.checked_mul(radix as u64).and_then(|v| v.checked_add(d as u64)).ok_or_else(
            || ParseError { line, message: "integer literal does not fit in 64 bits".into() },
        )?;
        *i += 1;
    }
    Ok(value)
}

/// `w` as a bit width: P4 values here are at most 64 bits wide.
fn width(w: u64, line: u32) -> Result<u32, ParseError> {
    match w {
        1..=64 => Ok(w as u32),
        _ => Err(ParseError { line, message: format!("bit width {w} is not in 1..=64") }),
    }
}

/// The tokens of `text`, and the dialect its `#include` lines name.
fn lex(text: &str) -> Result<(Vec<Token<'_>>, Target), ParseError> {
    let bytes = text.as_bytes();
    // Printed P4 runs one token per four bytes or a little fewer.
    let mut out = Vec::with_capacity(bytes.len() / 3);
    let mut target = Target::Tna;
    let mut i = 0;
    let mut line = 1u32;
    while i < bytes.len() {
        let c = bytes[i];
        if c == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == b'/' && bytes.get(i + 1) == Some(&b'/') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        if c == b'/' && bytes.get(i + 1) == Some(&b'*') {
            i += 2;
            while i + 1 < bytes.len() && !(bytes[i] == b'*' && bytes[i + 1] == b'/') {
                if bytes[i] == b'\n' {
                    line += 1;
                }
                i += 1;
            }
            i = (i + 2).min(bytes.len());
            continue;
        }
        // A preprocessor line is no token; `#include <v1model.p4>` names
        // the dialect.
        if c == b'#' {
            let start = i;
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            if text[start..i].trim_end() == "#include <v1model.p4>" {
                target = Target::V1Model;
            }
            continue;
        }
        if c.is_ascii_digit() {
            let hex = c == b'0' && matches!(bytes.get(i + 1), Some(b'x' | b'X'));
            let value = number(bytes, &mut i, line)?;
            // Width-tagged literal `Ww V`.
            let tok = if !hex && bytes.get(i) == Some(&b'w') {
                i += 1;
                Tok::Wint(width(value, line)?, number(bytes, &mut i, line)?)
            } else {
                Tok::Int(value)
            };
            out.push(Token { tok, line });
            continue;
        }
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            out.push(Token { tok: Tok::Ident(&text[start..i]), line });
            continue;
        }
        let Some(p) = punct(&bytes[i..]) else {
            return Err(ParseError {
                line,
                message: format!("unexpected character `{}`", c as char),
            });
        };
        out.push(Token { tok: Tok::Punct(p), line });
        i += p.len();
    }
    Ok((out, target))
}

// ---- parser ----------------------------------------------------------------

/// How deep expressions and statement blocks may nest: far beyond what the
/// printer writes, far short of overflowing the stack.
const MAX_NESTING: u32 = 128;

/// `obj.method(args)`: the object, the method and the arguments.
type MethodCall<'a> = (&'a str, &'a str, Vec<Expr>);

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    depth: u32,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<Tok<'a>> {
        self.peek_at(0)
    }

    fn peek_at(&self, n: usize) -> Option<Tok<'a>> {
        self.tokens.get(self.pos + n).map(|t| t.tok)
    }

    fn line(&self) -> u32 {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map(|t| t.line)
            .unwrap_or(0)
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError { line: self.line(), message: msg.into() })
    }

    /// Runs `f` one nesting level deeper.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_NESTING {
            return self.err(format!("nested more than {MAX_NESTING} deep"));
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn bump(&mut self) -> Option<Tok<'a>> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Punct(q)) if q == p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseError> {
        // Split `>>` into two `>` when closing nested template argument
        // lists (`Register<bit<32>, bit<32>>`).
        if p == ">" && matches!(self.peek(), Some(Tok::Punct(">>"))) {
            self.tokens[self.pos].tok = Tok::Punct(">");
            return Ok(());
        }
        if self.eat_punct(p) {
            Ok(())
        } else {
            self.err(format!("expected `{p}`, found {:?}", self.peek()))
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Ident(s)) if s == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<&'a str, ParseError> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            other => self.err(format!("expected identifier, found {other:?}")),
        }
    }

    fn expect_int(&mut self) -> Result<u64, ParseError> {
        match self.bump() {
            Some(Tok::Int(v)) => Ok(v),
            Some(Tok::Wint(_, v)) => Ok(v),
            other => self.err(format!("expected integer, found {other:?}")),
        }
    }

    /// An integer that must fit in 32 bits: a size or a stack index.
    fn expect_u32(&mut self) -> Result<u32, ParseError> {
        let v = self.expect_int()?;
        u32::try_from(v).or_else(|_| self.err(format!("`{v}` does not fit in 32 bits")))
    }

    /// `bit<W>` — returns W.
    fn bit_type(&mut self) -> Result<u32, ParseError> {
        if !self.eat_kw("bit") {
            // `bool` is accepted as bit<1>.
            if self.eat_kw("bool") {
                return Ok(1);
            }
            return self.err("expected `bit<...>`");
        }
        self.expect_punct("<")?;
        let w = width(self.expect_int()?, self.line())?;
        self.expect_punct(">")?;
        Ok(w)
    }

    /// Skips a balanced group whose `open` was just consumed, through its
    /// `close`.
    fn skip_group(&mut self, open: &str, close: &str) -> Result<(), ParseError> {
        let mut depth = 1;
        while depth > 0 {
            match self.bump() {
                Some(Tok::Punct(p)) if p == open => depth += 1,
                Some(Tok::Punct(p)) if p == close => depth -= 1,
                Some(_) => {}
                None => return self.err(format!("unbalanced `{open}`")),
            }
        }
        Ok(())
    }

    fn program(&mut self, target: Target) -> Result<P4Program, ParseError> {
        let mut p = P4Program { name: "parsed".into(), target, ..Default::default() };
        while let Some(tok) = self.peek() {
            self.pos += 1;
            match tok {
                Tok::Ident("header") => {
                    std::sync::Arc::make_mut(&mut p.headers).push(self.header()?)
                }
                Tok::Ident("parser") => p.parser = Some(self.parser_def()?.into()),
                Tok::Ident("control") => {
                    std::sync::Arc::make_mut(&mut p.controls).push(self.control()?)
                }
                Tok::Ident("struct") if self.eat_kw("headers_t") => {
                    self.headers_struct(std::sync::Arc::make_mut(&mut p.headers).as_mut_slice())?
                }
                Tok::Ident("struct" | "typedef") => {
                    // Other structs are layout-only in our subset; skip body.
                    while !matches!(self.peek(), Some(Tok::Punct("{")) | None) {
                        self.bump();
                    }
                    self.expect_punct("{")?;
                    self.skip_group("{", "}")?;
                }
                Tok::Ident("Pipeline" | "Switch" | "V1Switch") => {
                    // Instantiations at the end — consume to the `;`.
                    while !matches!(self.peek(), Some(Tok::Punct(";")) | None) {
                        self.bump();
                    }
                    self.eat_punct(";");
                }
                _ => {
                    self.pos -= 1;
                    return self.err(format!("unexpected top-level token {tok:?}"));
                }
            }
        }
        Ok(p)
    }

    fn header(&mut self) -> Result<HeaderDef, ParseError> {
        let name = self.expect_ident()?;
        self.expect_punct("{")?;
        let mut fields = Vec::new();
        while !self.eat_punct("}") {
            let bits = self.bit_type()?;
            let fname = self.expect_ident()?;
            self.expect_punct(";")?;
            fields.push((fname.into(), bits));
        }
        Ok(HeaderDef { name: name.into(), fields, stack: 1 })
    }

    /// The body of `struct headers_t`: each member `x_t x;` or `x_t[n] x;`
    /// instantiates the declared header type `x_t` once, `n` deep (1 to
    /// 2³² − 1).
    fn headers_struct(&mut self, headers: &mut [HeaderDef]) -> Result<(), ParseError> {
        self.expect_punct("{")?;
        let mut seen = vec![false; headers.len()];
        while !self.eat_punct("}") {
            let ty = self.expect_ident()?;
            let Some(k) = headers.iter().position(|h| h.name == ty) else {
                return self.err(format!("header type `{ty}` is not declared"));
            };
            let mut stack = 1;
            if self.eat_punct("[") {
                stack = self.expect_u32()?;
                if stack == 0 {
                    return self.err(format!("`{ty}[0]` is a stack of no headers"));
                }
                self.expect_punct("]")?;
            }
            let instance = self.expect_ident()?;
            if ty.strip_suffix("_t") != Some(instance) {
                return self.err(format!("an instance of `{ty}` is named `{instance}`"));
            }
            if std::mem::replace(&mut seen[k], true) {
                return self.err(format!("duplicate instance `{instance}`"));
            }
            self.expect_punct(";")?;
            headers[k].stack = stack;
        }
        Ok(())
    }

    fn parser_def(&mut self) -> Result<ParserDef, ParseError> {
        let name = self.expect_ident()?;
        self.expect_punct("(")?;
        self.skip_group("(", ")")?;
        self.expect_punct("{")?;
        let mut states = Vec::new();
        while !self.eat_punct("}") {
            if !self.eat_kw("state") {
                return self.err("expected `state`");
            }
            let sname = self.expect_ident()?;
            self.expect_punct("{")?;
            let mut extracts = Vec::new();
            let mut transition = Transition::Accept;
            while !self.eat_punct("}") {
                if self.eat_kw("transition") {
                    if self.eat_kw("select") {
                        self.expect_punct("(")?;
                        let selector = self.expr()?;
                        self.expect_punct(")")?;
                        self.expect_punct("{")?;
                        let mut cases = Vec::new();
                        let mut default = "reject";
                        while !self.eat_punct("}") {
                            if self.eat_kw("default") {
                                self.expect_punct(":")?;
                                default = self.expect_ident()?;
                                self.expect_punct(";")?;
                            } else {
                                let v = self.expect_int()?;
                                self.expect_punct(":")?;
                                let target = self.expect_ident()?;
                                self.expect_punct(";")?;
                                cases.push((v, target.into()));
                            }
                        }
                        let default = default.into();
                        transition = Transition::Select { selector, cases, default };
                    } else {
                        let target = self.expect_ident()?;
                        self.expect_punct(";")?;
                        transition = match target {
                            "accept" => Transition::Accept,
                            "reject" => Transition::Reject,
                            other => Transition::Direct(other.to_string()),
                        };
                    }
                } else {
                    // `pkt.extract(hdr.x);`
                    let obj = self.expect_ident()?;
                    self.expect_punct(".")?;
                    let method = self.expect_ident()?;
                    if method != "extract" {
                        return self.err(format!("unsupported parser call `{obj}.{method}`"));
                    }
                    self.expect_punct("(")?;
                    let mut path = String::new();
                    loop {
                        match self.bump() {
                            Some(Tok::Ident(s)) => path.push_str(s),
                            Some(Tok::Punct(".")) => path.push('.'),
                            Some(Tok::Punct(")")) => break,
                            other => return self.err(format!("bad extract path: {other:?}")),
                        }
                    }
                    self.expect_punct(";")?;
                    extracts.push(path);
                }
            }
            states.push(ParserState { name: sname.into(), extracts, transition });
        }
        Ok(ParserDef { name: name.into(), states })
    }

    fn control(&mut self) -> Result<ControlDef, ParseError> {
        let name = self.expect_ident()?;
        self.expect_punct("(")?;
        self.skip_group("(", ")")?;
        self.expect_punct("{")?;
        let mut c = ControlDef { name: name.into(), ..Default::default() };
        while !self.eat_punct("}") {
            match self.peek() {
                Some(Tok::Ident("bit" | "bool")) => {
                    let bits = self.bit_type()?;
                    let lname = self.expect_ident()?;
                    self.expect_punct(";")?;
                    c.locals.push((lname.into(), bits));
                }
                Some(Tok::Ident("Register")) => {
                    self.bump();
                    self.expect_punct("<")?;
                    let elem_bits = self.bit_type()?;
                    if self.eat_punct(",") {
                        let _idx = self.bit_type()?;
                    }
                    self.expect_punct(">")?;
                    self.expect_punct("(")?;
                    let size = self.expect_u32()?;
                    self.expect_punct(")")?;
                    let rname = self.expect_ident()?;
                    self.expect_punct(";")?;
                    c.registers.push(RegisterDef { name: rname.into(), elem_bits, size });
                }
                Some(Tok::Ident("RegisterAction")) => {
                    self.bump();
                    let ra = self.register_action()?;
                    c.register_actions.push(ra);
                }
                Some(Tok::Ident("Hash")) => {
                    self.bump();
                    self.expect_punct("<")?;
                    let out_bits = self.bit_type()?;
                    self.expect_punct(">")?;
                    self.expect_punct("(")?;
                    // HashAlgorithm_t.CRC16
                    let _ns = self.expect_ident()?;
                    self.expect_punct(".")?;
                    let algo = match self.expect_ident()? {
                        "CRC16" => HashKind::Crc16,
                        "CRC32" => HashKind::Crc32,
                        "XOR16" => HashKind::Xor16,
                        "IDENTITY" => HashKind::Identity,
                        other => return self.err(format!("unknown hash algorithm `{other}`")),
                    };
                    self.expect_punct(")")?;
                    let hname = self.expect_ident()?;
                    self.expect_punct(";")?;
                    c.hashes.push(HashDef { name: hname.into(), algo, out_bits });
                }
                Some(Tok::Ident("action")) => {
                    self.bump();
                    let aname = self.expect_ident()?;
                    self.expect_punct("(")?;
                    let mut params = Vec::new();
                    while !self.eat_punct(")") {
                        let bits = self.bit_type()?;
                        let pname = self.expect_ident()?;
                        params.push((pname.into(), bits));
                        self.eat_punct(",");
                    }
                    self.expect_punct("{")?;
                    let body = self.stmts_until_close()?;
                    c.actions.push(ActionDef { name: aname.into(), params, body });
                }
                Some(Tok::Ident("table")) => {
                    self.bump();
                    c.tables.push(self.table()?);
                }
                Some(Tok::Ident("apply")) => {
                    self.bump();
                    self.expect_punct("{")?;
                    c.apply = self.stmts_until_close()?;
                }
                other => return self.err(format!("unexpected control member {other:?}")),
            }
        }
        Ok(c)
    }

    fn register_action(&mut self) -> Result<RegisterActionDef, ParseError> {
        self.expect_punct("<")?;
        // Type args; may be 2 or 3.
        let _ = self.bit_type()?;
        while self.eat_punct(",") {
            let _ = self.bit_type()?;
        }
        self.expect_punct(">")?;
        self.expect_punct("(")?;
        let register = self.expect_ident()?;
        self.expect_punct(")")?;
        let name = self.expect_ident()?;
        self.expect_punct("=")?;
        self.expect_punct("{")?;
        // void apply(inout bit<W> m, out bit<W> o) { ... }
        if !self.eat_kw("void") {
            return self.err("expected `void apply`");
        }
        if !self.eat_kw("apply") {
            return self.err("expected `apply`");
        }
        self.expect_punct("(")?;
        self.skip_group("(", ")")?;
        self.expect_punct("{")?;
        let body = self.stmts_until_close()?;
        self.expect_punct("}")?;
        self.expect_punct(";")?;
        let (op, cond, operands) = recover_salu(&body).ok_or_else(|| ParseError {
            line: self.line(),
            message: format!("unrecognized SALU microprogram in RegisterAction `{name}`"),
        })?;
        Ok(RegisterActionDef { name: name.into(), register: register.into(), op, cond, operands })
    }

    fn table(&mut self) -> Result<TableDef, ParseError> {
        let name = self.expect_ident()?;
        self.expect_punct("{")?;
        let mut t = TableDef {
            name: name.into(),
            keys: vec![],
            actions: vec![],
            entries: vec![],
            default_action: "NoAction".into(),
            size: 1,
        };
        while !self.eat_punct("}") {
            if self.eat_kw("key") {
                self.expect_punct("=")?;
                self.expect_punct("{")?;
                while !self.eat_punct("}") {
                    let e = self.expr()?;
                    self.expect_punct(":")?;
                    let kind = match self.expect_ident()? {
                        "exact" => MatchKind::Exact,
                        "range" => MatchKind::Range,
                        "ternary" => MatchKind::Ternary,
                        "lpm" => MatchKind::Lpm,
                        other => return self.err(format!("unknown match kind `{other}`")),
                    };
                    t.keys.push((e, kind));
                    self.eat_punct(";");
                }
                self.eat_punct(";");
            } else if self.eat_kw("actions") {
                self.expect_punct("=")?;
                self.expect_punct("{")?;
                while !self.eat_punct("}") {
                    let a = self.expect_ident()?;
                    if a != "NoAction" {
                        t.actions.push(a.into());
                    }
                    self.eat_punct(";");
                    self.eat_punct(",");
                }
                self.eat_punct(";");
            } else if self.eat_kw("default_action") {
                self.expect_punct("=")?;
                t.default_action = self.expect_ident()?.into();
                if self.eat_punct("(") {
                    self.skip_group("(", ")")?;
                }
                self.expect_punct(";")?;
            } else if self.eat_kw("const") || self.peek() == Some(Tok::Ident("entries")) {
                self.eat_kw("entries");
                self.expect_punct("=")?;
                self.expect_punct("{")?;
                while !self.eat_punct("}") {
                    t.entries.push(self.table_entry()?);
                }
                self.eat_punct(";");
            } else if self.eat_kw("size") {
                self.expect_punct("=")?;
                t.size = self.expect_u32()?;
                self.expect_punct(";")?;
            } else {
                return self.err(format!("unexpected table member {:?}", self.peek()));
            }
        }
        Ok(t)
    }

    fn table_entry(&mut self) -> Result<TableEntry, ParseError> {
        let mut keys = Vec::new();
        if self.eat_punct("(") {
            loop {
                keys.push(self.entry_key()?);
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
        } else {
            keys.push(self.entry_key()?);
        }
        self.expect_punct(":")?;
        let action = self.expect_ident()?.into();
        let mut args = Vec::new();
        if self.eat_punct("(") {
            while !self.eat_punct(")") {
                args.push(self.expect_int()?);
                self.eat_punct(",");
            }
        }
        self.expect_punct(";")?;
        Ok(TableEntry { keys, action, args })
    }

    fn entry_key(&mut self) -> Result<EntryKey, ParseError> {
        let lo = self.expect_int()?;
        if self.eat_punct("..") {
            let hi = self.expect_int()?;
            Ok(EntryKey::Range(lo, hi))
        } else {
            Ok(EntryKey::Value(lo))
        }
    }

    fn stmts_until_close(&mut self) -> Result<Vec<Stmt>, ParseError> {
        let mut out = Vec::new();
        while !self.eat_punct("}") {
            out.push(self.nested(Self::stmt)?);
        }
        Ok(out)
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        if self.eat_kw("if") {
            self.expect_punct("(")?;
            let cond = self.expr()?;
            self.expect_punct(")")?;
            self.expect_punct("{")?;
            let then = self.stmts_until_close()?;
            let els = if self.eat_kw("else") {
                if self.eat_kw("if") {
                    // `else if` — re-parse as nested if.
                    self.pos -= 1; // rewind the `if`
                    vec![self.nested(Self::stmt)?]
                } else {
                    self.expect_punct("{")?;
                    self.stmts_until_close()?
                }
            } else {
                vec![]
            };
            return Ok(Stmt::If { cond, then, els });
        }
        if self.eat_kw("exit") {
            self.expect_punct(";")?;
            return Ok(Stmt::Exit);
        }
        // `name();` / `func(args);` — bare call statements.
        if let (Some(Tok::Ident(_)), Some(Tok::Punct("("))) = (self.peek(), self.peek_at(1)) {
            let name = self.expect_ident()?.into();
            self.expect_punct("(")?;
            let mut args = Vec::new();
            while !self.eat_punct(")") {
                args.push(self.expr()?);
                self.eat_punct(",");
            }
            self.expect_punct(";")?;
            return Ok(if args.is_empty() {
                Stmt::CallAction(name)
            } else {
                Stmt::ExternCall { dst: None, func: name, args }
            });
        }
        // `ra.execute(index);` — a register action whose output is unused.
        let save = self.pos;
        if let Some((ra, method, args)) = self.try_method_call()? {
            if method == "execute" && self.eat_punct(";") {
                let index = args.into_iter().next().unwrap_or(Expr::val(0, 32));
                return Ok(Stmt::ExecuteRegisterAction { dst: None, ra: ra.into(), index });
            }
            self.pos = save;
        }
        // `table.apply();` / `hdr.x.setValid();` / assignment.
        let lhs = self.expr()?;
        if self.eat_punct(";") {
            // A bare expression statement: only valid for certain shapes.
            return match lhs {
                Expr::TableHit(t) | Expr::TableMiss(t) => Ok(Stmt::ApplyTable(t)),
                Expr::Field(path) if path.name().is_some() => {
                    Ok(Stmt::CallAction(path.canonical().to_string()))
                }
                // `hdr.x.setValid();` / `hdr.x.setInvalid();`
                Expr::Field(path) => match path.canonical().rsplit_once('.') {
                    Some((head, method @ ("$setValid" | "$setInvalid"))) => {
                        let mut header = Path::new(path.ns());
                        let _ = header.write_str(head);
                        Ok(match method {
                            "$setValid" => Stmt::SetValid(Expr::Field(header)),
                            _ => Stmt::SetInvalid(Expr::Field(header)),
                        })
                    }
                    _ => self.err(format!("expression `{path:?}` is not a statement")),
                },
                other => self.err(format!("expression `{other:?}` is not a statement")),
            };
        }
        self.expect_punct("=")?;
        // RHS: check for `.execute(` / `.get(` method forms.
        let save = self.pos;
        if let Ok(Some((obj, method, args))) = self.try_method_call() {
            self.expect_punct(";")?;
            return match method {
                "execute" => Ok(Stmt::ExecuteRegisterAction {
                    dst: Some(lhs),
                    ra: obj.into(),
                    index: args.into_iter().next().unwrap_or(Expr::val(0, 32)),
                }),
                "get" => Ok(Stmt::HashGet { dst: lhs, hash: obj.into(), args }),
                other => self.err(format!("unknown method `{other}`")),
            };
        }
        self.pos = save;
        // `x = func(args);` extern call form.
        if let (Some(Tok::Ident(f)), Some(Tok::Punct("("))) = (self.peek(), self.peek_at(1)) {
            let func = f.into();
            // Exclude table-hit expressions (`x = t.apply()...` never occurs).
            self.bump();
            self.expect_punct("(")?;
            let mut args = Vec::new();
            while !self.eat_punct(")") {
                args.push(self.expr()?);
                self.eat_punct(",");
            }
            self.expect_punct(";")?;
            return Ok(Stmt::ExternCall { dst: Some(lhs), func, args });
        }
        let rhs = self.expr()?;
        self.expect_punct(";")?;
        Ok(Stmt::Assign(lhs, rhs))
    }

    /// Tries `ident.method({args})` / `ident.method(args)`; returns `None`,
    /// having moved nothing and allocated nothing, when the text does not
    /// start `ident.execute` or `ident.get`.
    fn try_method_call(&mut self) -> Result<Option<MethodCall<'a>>, ParseError> {
        let (
            Some(Tok::Ident(obj)),
            Some(Tok::Punct(".")),
            Some(Tok::Ident(m @ ("execute" | "get"))),
        ) = (self.peek(), self.peek_at(1), self.peek_at(2))
        else {
            return Ok(None);
        };
        self.pos += 3;
        self.expect_punct("(")?;
        let braced = self.eat_punct("{");
        let mut args = Vec::new();
        if braced {
            while !self.eat_punct("}") {
                args.push(self.expr()?);
                self.eat_punct(",");
            }
            self.expect_punct(")")?;
        } else if !self.eat_punct(")") {
            loop {
                args.push(self.expr()?);
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
        }
        Ok(Some((obj, m, args)))
    }

    // Expressions, precedence climbing.
    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.binary(0)
    }

    fn binary(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        loop {
            let (op, prec) = match self.peek() {
                Some(Tok::Punct("||")) => (P4BinOp::LOr, 1),
                Some(Tok::Punct("&&")) => (P4BinOp::LAnd, 2),
                Some(Tok::Punct("|")) => (P4BinOp::Or, 3),
                Some(Tok::Punct("^")) => (P4BinOp::Xor, 4),
                Some(Tok::Punct("&")) => (P4BinOp::And, 5),
                Some(Tok::Punct("==")) => (P4BinOp::Eq, 6),
                Some(Tok::Punct("!=")) => (P4BinOp::Ne, 6),
                Some(Tok::Punct("<")) => (P4BinOp::Lt, 7),
                Some(Tok::Punct("<=")) => (P4BinOp::Le, 7),
                Some(Tok::Punct(">")) => (P4BinOp::Gt, 7),
                Some(Tok::Punct(">=")) => (P4BinOp::Ge, 7),
                Some(Tok::Punct("<<")) => (P4BinOp::Shl, 8),
                Some(Tok::Punct(">>")) => (P4BinOp::Shr, 8),
                Some(Tok::Punct("+")) => (P4BinOp::Add, 9),
                Some(Tok::Punct("-")) => (P4BinOp::Sub, 9),
                Some(Tok::Punct("|+|")) => (P4BinOp::SatAdd, 9),
                Some(Tok::Punct("|-|")) => (P4BinOp::SatSub, 9),
                Some(Tok::Punct("*")) => (P4BinOp::Mul, 10),
                _ => return Ok(lhs),
            };
            if prec < min_prec {
                return Ok(lhs);
            }
            self.bump();
            let rhs = self.binary(prec + 1)?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat_punct("!") {
            let e = self.nested(Self::unary)?;
            // `!t.apply().hit` → TableMiss.
            if let Expr::TableHit(t) = e {
                return Ok(Expr::TableMiss(t));
            }
            return Ok(Expr::Not(Box::new(e)));
        }
        if self.eat_punct("~") {
            return Ok(Expr::BitNot(Box::new(self.nested(Self::unary)?)));
        }
        // Cast `(bit<w>)expr` vs parenthesized expr.
        if self.eat_punct("(") {
            if self.peek() == Some(Tok::Ident("bit")) {
                let bits = self.bit_type()?;
                self.expect_punct(")")?;
                return Ok(Expr::Cast(bits, Box::new(self.nested(Self::unary)?)));
            }
            let e = self.nested(Self::expr)?;
            self.expect_punct(")")?;
            return self.postfix(e);
        }
        let e = self.primary()?;
        self.postfix(e)
    }

    fn postfix(&mut self, mut e: Expr) -> Result<Expr, ParseError> {
        // Bit slice `[hi:lo]`. The text is untrusted: a reversed or
        // out-of-range slice has no width, so it is refused here rather than
        // left for a loader to subtract.
        while self.eat_punct("[") {
            let hi = self.expect_int()?;
            self.expect_punct(":")?;
            let lo = self.expect_int()?;
            if !(lo <= hi && hi < 64) {
                return self.err(format!("bit slice `[{hi}:{lo}]` needs lo <= hi < 64"));
            }
            self.expect_punct("]")?;
            e = Expr::Slice(Box::new(e), hi as u32, lo as u32);
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.bump() {
            Some(Tok::Int(v)) => Ok(Expr::Const(v, 32)),
            Some(Tok::Wint(w, v)) => Ok(Expr::Const(v, w)),
            Some(Tok::Ident("true")) => Ok(Expr::Bool(true)),
            Some(Tok::Ident("false")) => Ok(Expr::Bool(false)),
            Some(Tok::Ident(first)) => {
                let dotted = matches!(self.peek(), Some(Tok::Punct(".")));
                let ns = match first {
                    "hdr" if dotted => Ns::Hdr,
                    "meta" if dotted => Ns::Meta,
                    _ => Ns::Bare,
                };
                let mut path = Path::new(ns);
                if ns == Ns::Bare {
                    self.seg(&mut path, first)?;
                }
                while matches!(self.peek(), Some(Tok::Punct(".")))
                    && matches!(self.peek_at(1), Some(Tok::Ident(_)))
                {
                    self.bump(); // .
                    let name = self.expect_ident()?;
                    // `t.apply().hit` / `.miss` / method calls.
                    if name == "apply" && matches!(self.peek(), Some(Tok::Punct("("))) {
                        self.bump();
                        self.expect_punct(")")?;
                        if self.eat_punct(".") {
                            let what = self.expect_ident()?;
                            return match what {
                                "hit" => Ok(Expr::TableHit(first.to_string())),
                                "miss" => Ok(Expr::TableMiss(first.to_string())),
                                other => self.err(format!("unknown apply result `{other}`")),
                            };
                        }
                        return Ok(Expr::TableHit(first.to_string()));
                    }
                    let pseudo = match name {
                        "setValid" => Some("$setValid"),
                        "setInvalid" => Some("$setInvalid"),
                        "isValid" => Some("$isValid"),
                        _ => None,
                    };
                    if let (Some(pseudo), Some(Tok::Punct("("))) = (pseudo, self.peek()) {
                        self.bump();
                        self.expect_punct(")")?;
                        // Validity tests appear in conditions; model as a
                        // field read of a validity pseudo-field.
                        path.push(pseudo);
                        return Ok(Expr::Field(path));
                    }
                    self.seg(&mut path, name)?;
                }
                Ok(Expr::Field(path))
            }
            other => self.err(format!("expected expression, found {other:?}")),
        }
    }

    /// Appends segment `name` to `path`, with its stack index if one
    /// follows (only constant stack indices appear in the printed subset; a
    /// slice `[a:b]` is left for `postfix`).
    fn seg(&mut self, path: &mut Path, name: &str) -> Result<(), ParseError> {
        path.push(name);
        if matches!(self.peek(), Some(Tok::Punct("[")))
            && matches!(self.peek_at(1), Some(Tok::Int(_) | Tok::Wint(..)))
            && matches!(self.peek_at(2), Some(Tok::Punct("]")))
        {
            self.bump();
            path.push_index(self.expect_u32()?);
            self.expect_punct("]")?;
        }
        Ok(())
    }
}

/// Reconstructs the structured SALU descriptor from a parsed apply body —
/// the inverse of `print::salu_body`.
fn recover_salu(body: &[Stmt]) -> Option<(AtomicOp, Option<Expr>, Vec<Expr>)> {
    let is_out = |e: &Expr| matches!(e, Expr::Field(p) if p.name() == Some("o"));
    let is_mem = |e: &Expr| matches!(e, Expr::Field(p) if p.name() == Some("m"));
    // Recognize an RMW statement `m = ...`, returning (rmw, operands).
    let rmw_of = |s: &Stmt| -> Option<(AtomicRmw, Vec<Expr>)> {
        // `m = max(m, e);` / `m = min(m, e);`
        if let Stmt::ExternCall { dst: Some(lhs), func, args } = s {
            let rmw = match func.as_str() {
                "max" => AtomicRmw::Max,
                "min" => AtomicRmw::Min,
                _ => return None,
            };
            return match args.as_slice() {
                [m, e] if is_mem(lhs) && is_mem(m) => Some((rmw, vec![e.clone()])),
                _ => None,
            };
        }
        let Stmt::Assign(lhs, rhs) = s else { return None };
        if !is_mem(lhs) {
            return None;
        }
        match rhs {
            Expr::Bin(op, a, b) if is_mem(a) => {
                let rmw = match op {
                    P4BinOp::Add => AtomicRmw::Add,
                    P4BinOp::Sub => AtomicRmw::Sub,
                    P4BinOp::SatAdd => AtomicRmw::SAdd,
                    P4BinOp::SatSub => AtomicRmw::SSub,
                    P4BinOp::Or => AtomicRmw::Or,
                    P4BinOp::And => AtomicRmw::And,
                    P4BinOp::Xor => AtomicRmw::Xor,
                    _ => return None,
                };
                // `m + 1` with value one ⇒ inc; `m |-| 1` ⇒ dec.
                if let Expr::Const(1, _) = **b {
                    if rmw == AtomicRmw::Add {
                        return Some((AtomicRmw::Inc, vec![]));
                    }
                    if rmw == AtomicRmw::SSub {
                        return Some((AtomicRmw::Dec, vec![]));
                    }
                }
                Some((rmw, vec![(**b).clone()]))
            }
            other if !is_mem(other) => Some((AtomicRmw::Swap, vec![other.clone()])),
            _ => None,
        }
    };
    let out_stmt =
        |s: &Stmt| -> bool { matches!(s, Stmt::Assign(lhs, rhs) if is_out(lhs) && is_mem(rhs)) };

    match body {
        // o = m;                       → atomic_read
        [s] if out_stmt(s) => {
            Some((AtomicOp { rmw: AtomicRmw::Read, cond: false, ret_new: false }, None, vec![]))
        }
        // if (c) { m = RMW; } o = m;   → conditional, new-returning
        [Stmt::If { cond, then, els }, s2] if els.is_empty() && out_stmt(s2) => {
            let (rmw, ops) = rmw_of(then.first()?)?;
            Some((AtomicOp { rmw, cond: true, ret_new: true }, Some(cond.clone()), ops))
        }
        // if (m == e) { m = d; } with `o = m` first → compare-and-swap
        [s1, Stmt::If { cond: Expr::Bin(P4BinOp::Eq, a, b), then, els }]
            if els.is_empty() && out_stmt(s1) && is_mem(a) =>
        {
            let Stmt::Assign(lhs, rhs) = then.first()? else { return None };
            if !is_mem(lhs) {
                return None;
            }
            Some((
                AtomicOp { rmw: AtomicRmw::Cas, cond: false, ret_new: false },
                None,
                vec![(**b).clone(), rhs.clone()],
            ))
        }
        // o = m; if (c) { m = RMW; }   → conditional, old-returning
        [s1, Stmt::If { cond, then, els }] if els.is_empty() && out_stmt(s1) => {
            let (rmw, ops) = rmw_of(then.first()?)?;
            Some((AtomicOp { rmw, cond: true, ret_new: false }, Some(cond.clone()), ops))
        }
        // o = m; m = RMW;              → old-returning unconditional
        [s1, s2] if out_stmt(s1) => {
            let (rmw, ops) = rmw_of(s2)?;
            Some((AtomicOp { rmw, cond: false, ret_new: false }, None, ops))
        }
        // m = RMW; o = m;              → new-returning unconditional
        [s1, s2] if out_stmt(s2) => {
            let (rmw, ops) = rmw_of(s1)?;
            Some((AtomicOp { rmw, cond: false, ret_new: true }, None, ops))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::print::print_program;
    use std::sync::Arc;

    /// The lexer's punctuation as a scan over candidate tokens, longest
    /// first: the oracle the byte match must equal.
    fn punct_by_scan(rest: &[u8]) -> Option<&'static str> {
        const TOKENS: [&str; 36] = [
            "|+|", "|-|", "<<=", ">>=", "||", "<<", "<=", ">>", ">=", "==", "!=", "&&", "..", "(",
            ")", "{", "}", "[", "]", "<", ">", ";", ",", ".", ":", "=", "+", "-", "*", "/", "&",
            "|", "^", "~", "!", "@",
        ];
        TOKENS.into_iter().find(|t| rest.starts_with(t.as_bytes()))
    }

    /// Every byte, and every pair and triple of punctuation bytes (the
    /// longer tokens' prefixes among them), lexes as the scan does.
    #[test]
    fn punct_matches_the_scan_over_tokens() {
        let chars = b"(){}[]<>;,.:=+-*/&|^~!@a0 ";
        for a in 0..=255u8 {
            assert_eq!(punct(&[a]), punct_by_scan(&[a]), "{:?}", a as char);
        }
        for &a in chars {
            for &b in chars {
                assert_eq!(punct(&[a, b]), punct_by_scan(&[a, b]));
                for &c in chars {
                    assert_eq!(punct(&[a, b, c]), punct_by_scan(&[a, b, c]));
                }
            }
        }
    }

    #[test]
    fn parses_header() {
        let p = parse_program("header cache_t { bit<8> Op; bit<32> K; }").unwrap();
        assert_eq!(p.headers.len(), 1);
        assert_eq!(p.headers[0].fields, vec![("Op".into(), 8), ("K".into(), 32)]);
    }

    #[test]
    fn parses_control_with_register_action() {
        let src = r#"
control C(inout headers_t hdr, inout metadata_t meta) {
    bit<32> c0;
    Register<bit<32>, bit<32>>(65536) Cnt0;
    RegisterAction<bit<32>, bit<32>, bit<32>>(Cnt0) Incr0 = {
        void apply(inout bit<32> m, out bit<32> o) {
            m = m |+| 32w1;
            o = m;
        }
    };
    Hash<bit<16>>(HashAlgorithm_t.CRC16) Hash0;
    apply {
        meta.h0 = Hash0.get({hdr.ncl.K});
        meta.c0 = Incr0.execute(meta.h0);
    }
}
"#;
        let p = parse_program(src).unwrap();
        let c = &p.controls[0];
        assert_eq!(c.registers[0], RegisterDef { name: "Cnt0".into(), elem_bits: 32, size: 65536 });
        let ra = &c.register_actions[0];
        assert_eq!(ra.op.name(), "atomic_sadd_new");
        assert_eq!(c.hashes[0].algo, HashKind::Crc16);
        assert_eq!(c.apply.len(), 2);
        assert!(matches!(&c.apply[0], Stmt::HashGet { hash, .. } if hash == "Hash0"));
        assert!(matches!(&c.apply[1], Stmt::ExecuteRegisterAction { ra, .. } if *ra == "Incr0"));
    }

    #[test]
    fn parses_table_with_entries() {
        let src = r#"
control C(inout headers_t hdr) {
    action CacheHit(bit<32> v) { hdr.cache.V = v; }
    table cache {
        key = { hdr.cache.K : exact }
        actions = { CacheHit; NoAction; }
        default_action = NoAction();
        const entries = {
            1 : CacheHit(42);
            2 : CacheHit(43);
        }
        size = 4;
    }
    apply { if (!cache.apply().hit) { hdr.cache.Hit = 8w0; } }
}
"#;
        let p = parse_program(src).unwrap();
        let t = &p.controls[0].tables[0];
        assert_eq!(t.entries.len(), 2);
        assert_eq!(t.entries[0].keys, vec![EntryKey::Value(1)]);
        assert_eq!(t.entries[0].args, vec![42]);
        match &p.controls[0].apply[0] {
            Stmt::If { cond: Expr::TableMiss(t), .. } => assert_eq!(t, "cache"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_parser_fsm() {
        let src = r#"
parser P(packet_in pkt, out headers_t hdr) {
    state start {
        pkt.extract(hdr.eth);
        transition select(hdr.eth.ty) {
            2048: parse_ip;
            default: accept;
        }
    }
    state parse_ip {
        pkt.extract(hdr.ip);
        transition accept;
    }
}
"#;
        let p = parse_program(src).unwrap();
        let pd = p.parser.unwrap();
        assert_eq!(pd.states.len(), 2);
        assert_eq!(pd.states[0].extracts, vec!["hdr.eth".to_string()]);
        match &pd.states[0].transition {
            Transition::Select { cases, default, .. } => {
                assert_eq!(cases[0], (2048, "parse_ip".into()));
                assert_eq!(default, "accept");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn salu_recovery_all_variants() {
        for (body, expect) in [
            ("o = m;", "atomic_read"),
            ("o = m; m = m + meta.v;", "atomic_add"),
            ("m = m | meta.v; o = m;", "atomic_or_new"),
            ("o = m; m = m |-| 16w1;", "atomic_dec"),
            ("if (meta.c) { m = m |+| meta.v; } o = m;", "atomic_cond_sadd_new"),
            ("o = m; if (meta.c) { m = m & meta.v; }", "atomic_cond_and"),
            ("o = m; m = meta.v;", "atomic_swap"),
            ("o = m; if (meta.c) { m = max(m, meta.v); }", "atomic_cond_max"),
            ("m = min(m, meta.v); o = m;", "atomic_min_new"),
        ] {
            let src = format!(
                "control C(inout h x) {{ Register<bit<16>, bit<32>>(4) R;\n\
                 RegisterAction<bit<16>, bit<32>, bit<16>>(R) ra = {{\n\
                 void apply(inout bit<16> m, out bit<16> o) {{ {body} }}\n\
                 }};\napply {{ }} }}"
            );
            let p = parse_program(&src).unwrap_or_else(|e| panic!("{body}: {e}"));
            assert_eq!(p.controls[0].register_actions[0].op.name(), expect, "{body}");
        }
    }

    #[test]
    fn execute_without_a_destination() {
        let p = parse_program("control C(inout h x) { apply { ra.execute(meta.i); } }").unwrap();
        assert_eq!(
            p.controls[0].apply,
            [Stmt::ExecuteRegisterAction {
                dst: None,
                ra: "ra".into(),
                index: Expr::field(&["meta", "i"])
            }]
        );
    }

    #[test]
    fn set_valid_and_set_invalid_are_statements() {
        let src = "control C(inout h x) { apply { hdr.v[2].setValid(); hdr.ncl.setInvalid(); } }";
        assert_eq!(
            parse_program(src).unwrap().controls[0].apply,
            [
                Stmt::SetValid(Expr::field(&["hdr", "v[2]"])),
                Stmt::SetInvalid(Expr::field(&["hdr", "ncl"]))
            ]
        );
        let e = parse_program("control C(inout h x) { apply { hdr.ncl.isValid(); } }");
        assert!(e.unwrap_err().message.contains("is not a statement"));
    }

    /// A slice is `[hi:lo]` with `lo <= hi < 64`; anything else used to
    /// parse and then underflow `hi - lo + 1` in whoever loaded the program.
    #[test]
    fn reversed_or_out_of_range_slices_are_refused_with_the_line() {
        let src = |slice: &str| {
            format!("control C(inout h x) {{\napply {{\nmeta.a = (hdr.h.v){slice};\n}} }}")
        };
        let ok = parse_program(&src("[7:3]")).unwrap();
        assert_eq!(
            ok.controls[0].apply[0],
            Stmt::Assign(
                Expr::field(&["meta", "a"]),
                Expr::Slice(Box::new(Expr::field(&["hdr", "h", "v"])), 7, 3)
            )
        );
        assert!(parse_program(&src("[63:63]")).is_ok());
        for bad in ["[3:7]", "[64:0]", "[70:65]", "[4294967303:4294967299]"] {
            let e = parse_program(&src(bad)).expect_err(bad);
            assert_eq!(e.line, 3, "{bad}: {e}");
            assert!(e.message.contains("bit slice"), "{bad}: {e}");
        }
    }

    #[test]
    fn roundtrip_print_parse_print() {
        use crate::ast::*;
        use netcl_sema::builtins::AtomicOp;
        let prog = P4Program {
            name: "rt".into(),
            target: Target::Tna,
            device: 0,
            headers: vec![
                HeaderDef {
                    name: "ncl_t".into(),
                    fields: vec![("src".into(), 16), ("dst".into(), 16)],
                    stack: 1,
                },
                HeaderDef { name: "v_t".into(), fields: vec![("value".into(), 32)], stack: 4 },
            ]
            .into(),
            parser: Some(Arc::new(ParserDef {
                name: "IgP".into(),
                states: vec![ParserState {
                    name: "start".into(),
                    extracts: vec!["hdr.ncl".into(), "hdr.v".into()],
                    transition: Transition::Accept,
                }],
            })),
            controls: vec![ControlDef {
                name: "Ig".into(),
                locals: vec![("t0".into(), 16)],
                registers: vec![RegisterDef { name: "R".into(), elem_bits: 16, size: 128 }],
                register_actions: vec![RegisterActionDef {
                    name: "bump".into(),
                    register: "R".into(),
                    op: AtomicOp { rmw: AtomicRmw::Or, cond: true, ret_new: true },
                    cond: Some(Expr::Bin(
                        P4BinOp::Ne,
                        Box::new(Expr::field(&["meta", "c"])),
                        Box::new(Expr::val(0, 16)),
                    )),
                    operands: vec![Expr::field(&["meta", "mask"])],
                }],
                hashes: vec![],
                actions: vec![ActionDef {
                    name: "set".into(),
                    params: vec![("v".into(), 16)],
                    body: vec![Stmt::Assign(
                        Expr::field(&["hdr", "ncl", "dst"]),
                        Expr::field(&["v"]),
                    )],
                }],
                tables: vec![TableDef {
                    name: "fwd".into(),
                    keys: vec![(Expr::field(&["hdr", "ncl", "dst"]), MatchKind::Exact)],
                    actions: vec!["set".into()],
                    entries: vec![TableEntry {
                        keys: vec![EntryKey::Value(7)],
                        action: "set".into(),
                        args: vec![9],
                    }],
                    default_action: "NoAction".into(),
                    size: 16,
                }],
                apply: vec![
                    Stmt::ApplyTable("fwd".into()),
                    Stmt::If {
                        cond: Expr::Bin(
                            P4BinOp::Eq,
                            Box::new(Expr::field(&["hdr", "ncl", "src"])),
                            Box::new(Expr::val(3, 16)),
                        ),
                        then: vec![Stmt::Assign(Expr::field(&["meta", "t0"]), Expr::val(1, 16))],
                        els: vec![],
                    },
                ],
            }]
            .into(),
        };
        for target in [Target::Tna, Target::V1Model] {
            let prog = P4Program { target, ..prog.clone() };
            let text1 = print_program(&prog);
            let parsed = parse_program(&text1).unwrap_or_else(|e| panic!("{e}\n{text1}"));
            assert_eq!((parsed.target, &parsed.headers), (target, &prog.headers));
            let text2 = print_program(&parsed);
            // Compare modulo the program-name comment line.
            let body1: Vec<&str> = text1.lines().skip(1).collect();
            let body2: Vec<&str> = text2.lines().skip(1).collect();
            assert_eq!(body1, body2);
        }
    }

    /// The kernel guard's constant reads back as the device leaf, and the
    /// program prints back byte for byte; a condition of another shape, or
    /// one that is not the first statement of the first `apply`, keeps its
    /// constant and leaves the device 0.
    #[test]
    fn the_kernel_guard_reads_back_as_the_device() -> Result<(), ParseError> {
        let text = |first: &str, cond: &str| {
            format!(
                "#include <tna.p4>
header ncl_t {{ bit<16> from; bit<16> to; }}
struct headers_t {{ ncl_t ncl; }}
control Ig(inout headers_t hdr, inout metadata_t meta) {{
    apply {{ {first} if ({cond}) {{ exit; }} }}
}}"
            )
        };
        let guard = "(hdr.ncl.isValid() && (hdr.ncl.to == 16w513))";
        let p = parse_program(&text("", guard))?;
        assert_eq!(p.device, 513);
        let first = &p.controls[0].apply[0];
        assert!(matches!(first, Stmt::If { cond, .. } if *cond == Expr::device_guard()));
        let printed = print_program(&p);
        assert!(printed.contains(&format!("if ({guard}) {{")), "{printed}");
        for (first, cond) in [
            ("exit;", guard),
            ("", "(hdr.ncl.isValid() && (hdr.ncl.to == 32w513))"),
            ("", "(hdr.ncl.isValid() && (hdr.ncl.from == 16w513))"),
            ("", "(hdr.ncl.isValid() || (hdr.ncl.to == 16w513))"),
            ("", "((hdr.ncl.to == 16w513) && hdr.ncl.isValid())"),
        ] {
            let p = parse_program(&text(first, cond))?;
            assert_eq!(p.device, 0, "{first} {cond}");
            assert!(print_program(&p).contains(&format!("if ({cond}) {{")), "{first} {cond}");
        }
        Ok(())
    }

    /// Parses `src`, which must be refused at line 2 with a message that
    /// contains `what`.
    fn refused_on_line_2(src: &str, what: &str) {
        let e = parse_program(src).expect_err(src);
        assert_eq!(e.line, 2, "{src}: {e}");
        assert!(e.message.contains(what), "{src}: {e}");
    }

    #[test]
    fn an_oversized_decimal_literal_is_an_error() {
        refused_on_line_2("header h_t {\nbit<99999999999999999999999> f; }", "64 bits");
        refused_on_line_2("header h_t {\nbit<18446744073709551616> f; }", "64 bits");
    }

    #[test]
    fn an_oversized_hex_literal_is_an_error() {
        let src = |lit: &str| format!("control C(inout h x) {{\napply {{ meta.a = {lit}; }} }}");
        refused_on_line_2(&src("0xFFFFFFFFFFFFFFFFFF"), "64 bits");
        refused_on_line_2(&src("64w0x1FFFFFFFFFFFFFFFF"), "64 bits");
        assert!(parse_program(&src("0xFFFFFFFFFFFFFFFF")).is_ok());
    }

    #[test]
    fn an_oversized_literal_width_is_an_error() {
        let src = |lit: &str| format!("control C(inout h x) {{\napply {{ meta.a = {lit}; }} }}");
        refused_on_line_2(&src("99999999999w1"), "bit width 99999999999");
        refused_on_line_2(&src("65w1"), "bit width 65");
        refused_on_line_2(&src("0w0"), "bit width 0");
        assert!(parse_program(&src("64w18446744073709551615")).is_ok());
    }

    #[test]
    fn a_zero_or_wider_than_64_bit_type_is_an_error() {
        refused_on_line_2("header h_t {\nbit<0> f; }", "bit width 0");
        refused_on_line_2("header h_t {\nbit<65> f; }", "bit width 65");
        assert!(parse_program("header h_t {\nbit<1> a; bit<64> b; }").is_ok());
    }

    #[test]
    fn a_size_or_stack_index_wider_than_32_bits_is_an_error() {
        let reg = "control C(inout h x) {\nRegister<bit<8>, bit<32>>(4294967296) R; apply { } }";
        refused_on_line_2(reg, "32 bits");
        let idx = "control C(inout h x) {\napply { meta.a = hdr.v[4294967296].x; } }";
        refused_on_line_2(idx, "32 bits");
    }

    /// Nesting is bounded before the recursive descent can overflow the
    /// stack, for each construct that recurses.
    #[test]
    fn nesting_deeper_than_the_limit_is_an_error() {
        let expr = |open: &str, close: &str, n: usize| {
            let e = format!("{}1{}", open.repeat(n), close.repeat(n));
            format!("control C(inout h x) {{\napply {{ meta.a = {e}; }} }}")
        };
        assert!(parse_program(&expr("(", ")", 100)).is_ok());
        for (open, close) in [("(", ")"), ("!", ""), ("~", ""), ("(bit<8>)", "")] {
            refused_on_line_2(&expr(open, close, 100_000), "nested more than 128 deep");
        }
        let ifs = |n: usize| {
            let body = format!("{}exit;{}", "if (true) { ".repeat(n), " }".repeat(n));
            format!("control C(inout h x) {{\napply {{ {body} }} }}")
        };
        assert!(parse_program(&ifs(100)).is_ok());
        refused_on_line_2(&ifs(100_000), "nested more than 128 deep");
        let chain = format!(
            "control C(inout h x) {{\napply {{ {} }} }}",
            "if (true) { } else ".repeat(100_000) + "{ }"
        );
        refused_on_line_2(&chain, "nested more than 128 deep");
    }

    /// `struct headers_t` sets each declared header's stack length, and
    /// refuses a member it cannot read as one instance of one declared type.
    #[test]
    fn the_headers_struct_reads_stack_lengths_and_fails_closed() {
        let decls = "header h_t { bit<8> a; }\nheader v_t { bit<32> value; }\n";
        let p =
            parse_program(&format!("{decls}struct headers_t {{\nh_t h;\nv_t[32] v;\n}}")).unwrap();
        assert_eq!(p.headers.iter().map(|h| h.stack).collect::<Vec<_>>(), [1, 32]);
        let max = parse_program(&format!("{decls}struct headers_t {{ v_t[4294967295] v; }}"));
        assert_eq!(max.unwrap().headers[1].stack, u32::MAX);
        let struct_with =
            |member: &str| format!("{decls}struct headers_t {{\nh_t h;\n{member}\n}}");
        let refused_on_line_5 = |member: &str, what: &str| {
            let e = parse_program(&struct_with(member)).expect_err(member);
            assert_eq!((e.line, e.message.contains(what)), (5, true), "{member}: {e}");
        };
        refused_on_line_5("v_t[0] v;", "stack of no headers");
        refused_on_line_5("v_t[4294967296] v;", "32 bits");
        refused_on_line_5("w_t w;", "header type `w_t` is not declared");
        refused_on_line_5("v_t w;", "an instance of `v_t` is named `w`");
        refused_on_line_5("v_t[2] v_t;", "an instance of `v_t` is named `v_t`");
        refused_on_line_5("h_t h;", "duplicate instance `h`");
    }

    #[test]
    fn error_carries_line() {
        let err = parse_program("header X {\n bit<8> a;\n $$$ }").unwrap_err();
        assert_eq!(err.line, 3);
    }
}
