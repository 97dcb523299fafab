//! Hand-written lexer for NetCL-C.
//!
//! Operates on preprocessed source (comments already blanked). Produces a
//! flat token vector terminated by [`TokenKind::Eof`]. Maximal-munch for
//! multi-character operators; `>>` is lexed as a single shift token and the
//! parser splits it when closing nested template argument lists
//! (`ncl::kv<unsigned, ncl::kv<u8,u8>>` never appears in practice, but
//! `ncl::crc32<16>` style template args do).

use crate::token::{Keyword, Token, TokenKind};
use netcl_util::{DiagnosticSink, Interner, Span};

/// Lexes `source` into tokens. Errors are reported to `diags`; lexing always
/// produces an EOF-terminated stream.
pub(crate) fn lex(source: &str, interner: &mut Interner, diags: &mut DiagnosticSink) -> Vec<Token> {
    Lexer { text: source, src: source.as_bytes(), pos: 0, interner, diags }.run()
}

struct Lexer<'a> {
    text: &'a str,
    src: &'a [u8],
    pos: usize,
    interner: &'a mut Interner,
    diags: &'a mut DiagnosticSink,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Vec<Token> {
        let mut tokens = Vec::new();
        loop {
            self.skip_whitespace();
            let start = self.pos;
            let Some(c) = self.peek() else {
                tokens.push(Token { kind: TokenKind::Eof, span: self.span_from(start) });
                return tokens;
            };
            let kind = match c {
                b'0'..=b'9' => self.lex_number(),
                b'\'' => self.lex_char(),
                c if c.is_ascii_alphabetic() || c == b'_' => self.lex_word(),
                _ => self.lex_operator(),
            };
            if let Some(kind) = kind {
                tokens.push(Token { kind, span: self.span_from(start) });
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    /// The character at the cursor, decoded, and the cursor past all its
    /// bytes. The cursor only ever stops at a character boundary.
    fn bump_char(&mut self) -> Option<char> {
        let c = self.text[self.pos..].chars().next()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn span_from(&self, start: usize) -> Span {
        Span::new(start as u32, self.pos as u32)
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn lex_number(&mut self) -> Option<TokenKind> {
        let start = self.pos;
        let mut value: u64 = 0;
        let mut overflow = false;
        if self.peek() == Some(b'0') && matches!(self.peek2(), Some(b'x' | b'X')) {
            self.pos += 2;
            let digits_start = self.pos;
            while let Some(c) = self.peek() {
                if c.is_ascii_hexdigit() {
                    let d = (c as char).to_digit(16).unwrap() as u64;
                    let (v, o1) = value.overflowing_mul(16);
                    let (v, o2) = v.overflowing_add(d);
                    value = v;
                    overflow |= o1 || o2;
                    self.pos += 1;
                } else {
                    break;
                }
            }
            if self.pos == digits_start {
                self.diags.error("E0010", "hex literal without digits", self.span_from(start));
            }
        } else if self.peek() == Some(b'0') && matches!(self.peek2(), Some(b'b' | b'B')) {
            self.pos += 2;
            while let Some(c @ (b'0' | b'1')) = self.peek() {
                let (v, o1) = value.overflowing_mul(2);
                let (v, o2) = v.overflowing_add((c - b'0') as u64);
                value = v;
                overflow |= o1 || o2;
                self.pos += 1;
            }
        } else {
            while let Some(c) = self.peek() {
                if c.is_ascii_digit() {
                    let (v, o1) = value.overflowing_mul(10);
                    let (v, o2) = v.overflowing_add((c - b'0') as u64);
                    value = v;
                    overflow |= o1 || o2;
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        // Integer suffixes: accepted, ignored (width comes from context).
        while matches!(self.peek(), Some(b'u' | b'U' | b'l' | b'L')) {
            self.pos += 1;
        }
        if overflow {
            self.diags.error("E0011", "integer literal overflows 64 bits", self.span_from(start));
        }
        if let Some(c) = self.peek() {
            if c.is_ascii_alphabetic() || c == b'_' {
                self.diags.error(
                    "E0012",
                    format!("invalid character `{}` in number", c as char),
                    self.span_from(start),
                );
                while self.peek().is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_') {
                    self.pos += 1;
                }
            }
        }
        Some(TokenKind::Int(value))
    }

    fn lex_char(&mut self) -> Option<TokenKind> {
        let start = self.pos;
        self.bump(); // opening quote
        let value = match self.bump_char() {
            Some('\\') => match self.bump_char() {
                Some('n') => b'\n',
                Some('t') => b'\t',
                Some('0') => 0,
                Some('\\') => b'\\',
                Some('\'') => b'\'',
                other => {
                    self.diags.error(
                        "E0013",
                        format!("unknown escape `\\{}`", other.unwrap_or('?')),
                        self.span_from(start),
                    );
                    b'?'
                }
            },
            Some(c) if c.is_ascii() => c as u8,
            Some(c) => {
                let at = self.pos - c.len_utf8();
                self.diags.error(
                    "E0015",
                    format!("unexpected character `{c}`"),
                    self.span_from(at),
                );
                b'?'
            }
            None => {
                self.diags.error("E0014", "unterminated character literal", self.span_from(start));
                return Some(TokenKind::Char(0));
            }
        };
        if self.bump_char() != Some('\'') {
            self.diags.error("E0014", "unterminated character literal", self.span_from(start));
        }
        Some(TokenKind::Char(value))
    }

    fn lex_word(&mut self) -> Option<TokenKind> {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_') {
            self.pos += 1;
        }
        let word = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
        Some(match Keyword::from_str(word) {
            Some(kw) => TokenKind::Keyword(kw),
            None => TokenKind::Ident(self.interner.intern(word)),
        })
    }

    fn lex_operator(&mut self) -> Option<TokenKind> {
        use TokenKind::*;
        let start = self.pos;
        let c = self.bump().unwrap();
        let two = |l: &mut Self, next: u8, a: TokenKind, b: TokenKind| {
            if l.peek() == Some(next) {
                l.pos += 1;
                a
            } else {
                b
            }
        };
        Some(match c {
            b'(' => LParen,
            b')' => RParen,
            b'{' => LBrace,
            b'}' => RBrace,
            b'[' => LBracket,
            b']' => RBracket,
            b';' => Semi,
            b',' => Comma,
            b'.' => Dot,
            b'?' => Question,
            b'~' => Tilde,
            b':' => two(self, b':', ColonColon, Colon),
            b'=' => two(self, b'=', EqEq, Eq),
            b'!' => two(self, b'=', Ne, Bang),
            b'*' => two(self, b'=', StarEq, Star),
            b'/' => two(self, b'=', SlashEq, Slash),
            b'%' => two(self, b'=', PercentEq, Percent),
            b'^' => two(self, b'=', CaretEq, Caret),
            b'+' => match self.peek() {
                Some(b'+') => {
                    self.pos += 1;
                    PlusPlus
                }
                Some(b'=') => {
                    self.pos += 1;
                    PlusEq
                }
                _ => Plus,
            },
            b'-' => match self.peek() {
                Some(b'-') => {
                    self.pos += 1;
                    MinusMinus
                }
                Some(b'=') => {
                    self.pos += 1;
                    MinusEq
                }
                _ => Minus,
            },
            b'&' => match self.peek() {
                Some(b'&') => {
                    self.pos += 1;
                    AmpAmp
                }
                Some(b'=') => {
                    self.pos += 1;
                    AmpEq
                }
                _ => Amp,
            },
            b'|' => match self.peek() {
                Some(b'|') => {
                    self.pos += 1;
                    PipePipe
                }
                Some(b'=') => {
                    self.pos += 1;
                    PipeEq
                }
                _ => Pipe,
            },
            b'<' => match self.peek() {
                Some(b'<') => {
                    self.pos += 1;
                    two(self, b'=', ShlEq, Shl)
                }
                Some(b'=') => {
                    self.pos += 1;
                    Le
                }
                _ => Lt,
            },
            b'>' => match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    two(self, b'=', ShrEq, Shr)
                }
                Some(b'=') => {
                    self.pos += 1;
                    Ge
                }
                _ => Gt,
            },
            _ => {
                // A character outside ASCII is one error, spanning its bytes.
                self.pos = start;
                let ch = self.bump_char().expect("a byte was peeked at `start`");
                self.diags.error(
                    "E0015",
                    format!("unexpected character `{ch}`"),
                    self.span_from(start),
                );
                return None;
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::Keyword as K;
    use TokenKind::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        let mut interner = Interner::new();
        let mut diags = DiagnosticSink::new();
        let toks = lex(src, &mut interner, &mut diags);
        assert!(!diags.has_errors(), "{:?}", diags.diagnostics());
        toks.into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_declaration() {
        let mut interner = Interner::new();
        let mut diags = DiagnosticSink::new();
        let toks = lex("_net_ unsigned cms[3];", &mut interner, &mut diags);
        let kinds: Vec<_> = toks.iter().map(|t| t.kind).collect();
        assert_eq!(kinds[0], Keyword(K::NetSpec));
        assert_eq!(kinds[1], Keyword(K::Unsigned));
        assert!(matches!(kinds[2], Ident(_)));
        assert_eq!(kinds[3], LBracket);
        assert_eq!(kinds[4], Int(3));
        assert_eq!(kinds[5], RBracket);
        assert_eq!(kinds[6], Semi);
        assert_eq!(kinds[7], Eof);
    }

    #[test]
    fn numeric_bases_and_suffixes() {
        assert_eq!(kinds("0xFF 0b101 42u 7UL")[..4], [Int(255), Int(5), Int(42), Int(7)]);
    }

    #[test]
    fn char_literals() {
        assert_eq!(kinds("'G' '\\n' '\\0'")[..3], [Char(b'G'), Char(b'\n'), Char(0)]);
    }

    #[test]
    fn operators_maximal_munch() {
        assert_eq!(
            kinds("<<= >>= << >> <= >= == != && || ++ -- ::")[..13],
            [
                ShlEq, ShrEq, Shl, Shr, Le, Ge, EqEq, Ne, AmpAmp, PipePipe, PlusPlus, MinusMinus,
                ColonColon
            ]
        );
    }

    #[test]
    fn ncl_path_tokens() {
        let ks = kinds("ncl::atomic_sadd_new(&cms[0], 1)");
        assert!(matches!(ks[0], Ident(_)));
        assert_eq!(ks[1], ColonColon);
        assert!(matches!(ks[2], Ident(_)));
        assert_eq!(ks[3], LParen);
        assert_eq!(ks[4], Amp);
    }

    #[test]
    fn spans_cover_tokens() {
        let mut interner = Interner::new();
        let mut diags = DiagnosticSink::new();
        let toks = lex("if (x) ", &mut interner, &mut diags);
        assert_eq!(toks[0].span, Span::new(0, 2));
        assert_eq!(toks[1].span, Span::new(3, 4));
        assert_eq!(toks[2].span, Span::new(4, 5));
    }

    #[test]
    fn bad_character_reports_error() {
        let mut interner = Interner::new();
        let mut diags = DiagnosticSink::new();
        lex("int x = $;", &mut interner, &mut diags);
        assert!(diags.has_code("E0015"));
    }

    /// Every string of up to four pieces drawn from quotes, escapes, ASCII
    /// and multi-byte characters lexes without stopping inside a character
    /// (`bump_char` would panic there), and every diagnostic names whole
    /// characters.
    #[test]
    fn lexing_never_splits_a_character() {
        let pieces = ["'", "\\", "é", "€", "a", "1", "0x", " ", "$"];
        let (mut texts, mut longest) = (vec![], vec![String::new()]);
        for _ in 0..4 {
            longest = longest.iter().flat_map(|t| pieces.map(|p| format!("{t}{p}"))).collect();
            texts.extend_from_slice(&longest);
        }
        for text in &texts {
            let (mut interner, mut diags) = (Interner::new(), DiagnosticSink::new());
            lex(text, &mut interner, &mut diags);
            for d in diags.diagnostics() {
                assert!(!d.message.contains(['Ã', 'â']), "{text:?}: {}", d.message);
            }
        }
    }

    #[test]
    fn trailing_letter_in_number_reports_error() {
        let mut interner = Interner::new();
        let mut diags = DiagnosticSink::new();
        lex("int x = 12ab;", &mut interner, &mut diags);
        assert!(diags.has_code("E0012"));
    }

    #[test]
    fn huge_literal_overflow() {
        let mut interner = Interner::new();
        let mut diags = DiagnosticSink::new();
        lex("x = 99999999999999999999999;", &mut interner, &mut diags);
        assert!(diags.has_code("E0011"));
    }
}
