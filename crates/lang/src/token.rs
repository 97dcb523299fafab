//! Token definitions for NetCL-C.

use netcl_util::{Span, Symbol};

/// A lexed token: kind plus source span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Token {
    /// What the token is.
    pub(crate) kind: TokenKind,
    /// Where it came from.
    pub(crate) span: Span,
}

/// All NetCL-C token kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TokenKind {
    /// Integer literal with its parsed value (suffixes `u`/`U`/`l` accepted
    /// and ignored; width comes from context).
    Int(u64),
    /// Character literal, e.g. `'G'`.
    Char(u8),
    /// An identifier (includes type names; the parser resolves them).
    Ident(Symbol),
    /// A reserved keyword.
    Keyword(Keyword),

    // Punctuation / operators.
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `::`
    ColonColon,
    /// `:`
    Colon,
    /// `?`
    Question,
    /// `=`
    Eq,
    /// `==`
    EqEq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `&`
    Amp,
    /// `|`
    Pipe,
    /// `^`
    Caret,
    /// `~`
    Tilde,
    /// `!`
    Bang,
    /// `&&`
    AmpAmp,
    /// `||`
    PipePipe,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `+=`
    PlusEq,
    /// `-=`
    MinusEq,
    /// `*=`
    StarEq,
    /// `/=`
    SlashEq,
    /// `%=`
    PercentEq,
    /// `&=`
    AmpEq,
    /// `|=`
    PipeEq,
    /// `^=`
    CaretEq,
    /// `<<=`
    ShlEq,
    /// `>>=`
    ShrEq,
    /// `++`
    PlusPlus,
    /// `--`
    MinusMinus,

    /// End of input.
    Eof,
}

/// Reserved words, including the NetCL extension specifiers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Keyword {
    // C subset.
    Void,
    Bool,
    Char,
    Int,
    Short,
    Long,
    Unsigned,
    Signed,
    Auto,
    Const,
    Static,
    If,
    Else,
    For,
    While,
    Do,
    Return,
    Break,
    Continue,
    True,
    False,
    Struct,
    Sizeof,

    // Fixed-width typedef names, treated as keywords for convenience.
    Uint8T,
    Uint16T,
    Uint32T,
    Uint64T,
    Int8T,
    Int16T,
    Int32T,
    Int64T,

    // NetCL extensions (paper Table I).
    KernelSpec,
    NetSpec,
    ManagedSpec,
    LookupSpec,
    AtSpec,
    SpecSpec,
}

impl Keyword {
    /// Maps an identifier spelling to a keyword, if reserved. Not the
    /// `FromStr` trait: lookup failure is ordinary (any identifier), not an
    /// error.
    #[allow(clippy::should_implement_trait)]
    pub(crate) fn from_str(s: &str) -> Option<Keyword> {
        use Keyword::*;
        Some(match s {
            "void" => Void,
            "bool" => Bool,
            "char" => Char,
            "int" => Int,
            "short" => Short,
            "long" => Long,
            "unsigned" => Unsigned,
            "signed" => Signed,
            "auto" => Auto,
            "const" => Const,
            "static" => Static,
            "if" => If,
            "else" => Else,
            "for" => For,
            "while" => While,
            "do" => Do,
            "return" => Return,
            "break" => Break,
            "continue" => Continue,
            "true" => True,
            "false" => False,
            "struct" => Struct,
            "sizeof" => Sizeof,
            "uint8_t" => Uint8T,
            "uint16_t" => Uint16T,
            "uint32_t" => Uint32T,
            "uint64_t" => Uint64T,
            "int8_t" => Int8T,
            "int16_t" => Int16T,
            "int32_t" => Int32T,
            "int64_t" => Int64T,
            "_kernel" => KernelSpec,
            "_net_" => NetSpec,
            "_managed_" => ManagedSpec,
            "_lookup_" => LookupSpec,
            "_at" => AtSpec,
            "_spec" => SpecSpec,
            _ => return None,
        })
    }

    /// True for keywords that can begin a type.
    pub(crate) fn starts_type(self) -> bool {
        use Keyword::*;
        matches!(
            self,
            Void | Bool
                | Char
                | Int
                | Short
                | Long
                | Unsigned
                | Signed
                | Auto
                | Const
                | Uint8T
                | Uint16T
                | Uint32T
                | Uint64T
                | Int8T
                | Int16T
                | Int32T
                | Int64T
        )
    }
}

impl TokenKind {
    /// Human-readable description for diagnostics.
    pub(crate) fn describe(&self) -> String {
        match self {
            TokenKind::Int(v) => format!("integer literal `{v}`"),
            TokenKind::Char(c) => format!("character literal `{}`", *c as char),
            TokenKind::Ident(_) => "identifier".into(),
            TokenKind::Keyword(k) => format!("keyword `{k:?}`"),
            TokenKind::Eof => "end of input".into(),
            other => format!("`{}`", other.text()),
        }
    }

    /// The literal spelling of punctuation tokens (empty for others).
    pub(crate) fn text(&self) -> &'static str {
        use TokenKind::*;
        match self {
            LParen => "(",
            RParen => ")",
            LBrace => "{",
            RBrace => "}",
            LBracket => "[",
            RBracket => "]",
            Semi => ";",
            Comma => ",",
            Dot => ".",
            ColonColon => "::",
            Colon => ":",
            Question => "?",
            Eq => "=",
            EqEq => "==",
            Ne => "!=",
            Lt => "<",
            Gt => ">",
            Le => "<=",
            Ge => ">=",
            Plus => "+",
            Minus => "-",
            Star => "*",
            Slash => "/",
            Percent => "%",
            Amp => "&",
            Pipe => "|",
            Caret => "^",
            Tilde => "~",
            Bang => "!",
            AmpAmp => "&&",
            PipePipe => "||",
            Shl => "<<",
            Shr => ">>",
            PlusEq => "+=",
            MinusEq => "-=",
            StarEq => "*=",
            SlashEq => "/=",
            PercentEq => "%=",
            AmpEq => "&=",
            PipeEq => "|=",
            CaretEq => "^=",
            ShlEq => "<<=",
            ShrEq => ">>=",
            PlusPlus => "++",
            MinusMinus => "--",
            _ => "",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_lookup() {
        assert_eq!(Keyword::from_str("_kernel"), Some(Keyword::KernelSpec));
        assert_eq!(Keyword::from_str("_net_"), Some(Keyword::NetSpec));
        assert_eq!(Keyword::from_str("uint32_t"), Some(Keyword::Uint32T));
        assert_eq!(Keyword::from_str("ncl"), None);
    }

    #[test]
    fn type_starters() {
        assert!(Keyword::Unsigned.starts_type());
        assert!(Keyword::Auto.starts_type());
        assert!(!Keyword::Return.starts_type());
        assert!(!Keyword::KernelSpec.starts_type());
    }
}
