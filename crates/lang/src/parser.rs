//! Recursive-descent parser for NetCL-C.
//!
//! Grammar follows C expression precedence exactly; statements are the C
//! subset §V admits plus the NetCL specifiers on declarations. The parser is
//! error-tolerant: on a syntax error it emits a diagnostic, synchronizes to
//! the next `;` or `}`, and keeps going, so a single pass reports as many
//! problems as possible.

use crate::ast::*;
use crate::token::{Keyword, Token, TokenKind};
use netcl_util::{DiagnosticSink, Interner, Span, Symbol};

/// Parses a full translation unit from a token stream.
pub(crate) fn parse_tokens(
    tokens: &[Token],
    interner: &mut Interner,
    diags: &mut DiagnosticSink,
) -> Program {
    let mut parser = Parser { tokens, pos: 0, interner, diags, next_id: 0 };
    parser.parse_program()
}

/// Library function names that accept template arguments in expression
/// position (`ncl::crc32<16>(k)`, `ncl::rand<u8>()`): anywhere else `<` is
/// the less-than operator.
const TEMPLATED_FNS: &[&str] = &["crc16", "crc32", "xor16", "rand", "identity", "csum16r"];

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
    interner: &'a mut Interner,
    diags: &'a mut DiagnosticSink,
    next_id: u32,
}

impl<'a> Parser<'a> {
    // ---- token helpers -------------------------------------------------

    fn peek(&self) -> TokenKind {
        self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn peek_ahead(&self, n: usize) -> TokenKind {
        self.tokens[(self.pos + n).min(self.tokens.len() - 1)].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos.min(self.tokens.len() - 1)].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1).min(self.tokens.len() - 1)].span
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)];
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at(&self, kind: TokenKind) -> bool {
        self.peek() == kind
    }

    fn eat(&mut self, kind: TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Span {
        if self.at(kind) {
            self.bump().span
        } else {
            self.diags.error(
                "E0100",
                format!("expected {}, found {}", kind.describe(), self.peek().describe()),
                self.span(),
            );
            self.span()
        }
    }

    fn expect_ident(&mut self) -> (Symbol, Span) {
        match self.peek() {
            TokenKind::Ident(sym) => {
                let span = self.bump().span;
                (sym, span)
            }
            other => {
                self.diags.error(
                    "E0101",
                    format!("expected identifier, found {}", other.describe()),
                    self.span(),
                );
                (self.interner.intern("<error>"), self.span())
            }
        }
    }

    fn node_id(&mut self) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        id
    }

    fn mk(&mut self, kind: ExprKind, span: Span) -> Expr {
        Expr { kind, span, id: self.node_id() }
    }

    /// Skips tokens until a likely statement/item boundary.
    fn synchronize(&mut self) {
        let mut depth = 0usize;
        loop {
            match self.peek() {
                TokenKind::Eof => return,
                TokenKind::Semi if depth == 0 => {
                    self.bump();
                    return;
                }
                TokenKind::LBrace => {
                    depth += 1;
                    self.bump();
                }
                TokenKind::RBrace => {
                    if depth == 0 {
                        return;
                    }
                    depth -= 1;
                    self.bump();
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    // ---- top level -----------------------------------------------------

    fn parse_program(&mut self) -> Program {
        let mut items = Vec::new();
        while !self.at(TokenKind::Eof) {
            let before = self.pos;
            match self.parse_item() {
                Some(item) => items.push(item),
                None => {
                    if self.pos == before {
                        self.synchronize();
                        if self.pos == before {
                            self.bump();
                        }
                    }
                }
            }
        }
        Program { items, node_count: self.next_id }
    }

    fn parse_item(&mut self) -> Option<Item> {
        let specs = self.parse_specifiers();
        let start = if specs.span.is_dummy() { self.span() } else { specs.span };
        let ty = self.parse_type()?;
        let (name, _) = self.expect_ident();
        if self.at(TokenKind::LParen) {
            self.parse_function_rest(specs, ty, name, start).map(Item::Function)
        } else {
            self.parse_global_rest(specs, ty, name, start).map(Item::Global)
        }
    }

    fn parse_specifiers(&mut self) -> Specifiers {
        let mut specs = Specifiers { span: Span::DUMMY, ..Default::default() };
        loop {
            let span = self.span();
            match self.peek() {
                TokenKind::Keyword(Keyword::KernelSpec) => {
                    self.bump();
                    self.expect(TokenKind::LParen);
                    let e = self.parse_expr();
                    let end = self.expect(TokenKind::RParen);
                    if specs.kernel.is_some() {
                        self.diags.error("E0102", "duplicate `_kernel` specifier", span);
                    }
                    specs.kernel = Some((Box::new(e), span.to(end)));
                }
                TokenKind::Keyword(Keyword::AtSpec) => {
                    self.bump();
                    self.expect(TokenKind::LParen);
                    let mut locs = Vec::new();
                    if !self.at(TokenKind::RParen) {
                        locs.push(self.parse_expr());
                        while self.eat(TokenKind::Comma) {
                            locs.push(self.parse_expr());
                        }
                    }
                    let end = self.expect(TokenKind::RParen);
                    if specs.at.is_some() {
                        self.diags.error("E0103", "duplicate `_at` specifier", span);
                    }
                    specs.at = Some((locs, span.to(end)));
                }
                TokenKind::Keyword(Keyword::NetSpec) => {
                    self.bump();
                    specs.is_net = true;
                }
                TokenKind::Keyword(Keyword::ManagedSpec) => {
                    self.bump();
                    specs.is_managed = true;
                }
                TokenKind::Keyword(Keyword::LookupSpec) => {
                    self.bump();
                    specs.is_lookup = true;
                }
                TokenKind::Keyword(Keyword::Const) => {
                    self.bump();
                    specs.is_const = true;
                }
                TokenKind::Keyword(Keyword::Static) => {
                    self.bump();
                    specs.is_static = true;
                }
                _ => break,
            }
            specs.span = specs.span.to(span).to(self.prev_span());
        }
        specs
    }

    fn parse_function_rest(
        &mut self,
        specs: Specifiers,
        ret: TypeExpr,
        name: Symbol,
        start: Span,
    ) -> Option<FunctionDecl> {
        self.expect(TokenKind::LParen);
        let mut params = Vec::new();
        if !self.at(TokenKind::RParen) {
            loop {
                if let Some(p) = self.parse_param() {
                    params.push(p);
                }
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen);
        let body = if self.at(TokenKind::LBrace) {
            Some(self.parse_block())
        } else {
            self.expect(TokenKind::Semi);
            None
        };
        let span = start.to(self.prev_span());
        Some(FunctionDecl { name, specs, ret, params, body, span })
    }

    fn parse_param(&mut self) -> Option<Param> {
        let start = self.span();
        // `const` on parameters is accepted and ignored.
        while self.eat(TokenKind::Keyword(Keyword::Const)) {}
        let ty = self.parse_type()?;
        // `_spec(n)` may appear between type and declarator (paper Fig. 7).
        let mut spec = None;
        if self.eat(TokenKind::Keyword(Keyword::SpecSpec)) {
            self.expect(TokenKind::LParen);
            spec = Some(self.parse_expr());
            self.expect(TokenKind::RParen);
        }
        let mode = if self.eat(TokenKind::Star) {
            PassMode::Pointer
        } else if self.eat(TokenKind::Amp) {
            PassMode::Reference
        } else {
            PassMode::Value
        };
        let (name, _) = self.expect_ident();
        let mut dims = Vec::new();
        while self.eat(TokenKind::LBracket) {
            dims.push(self.parse_expr());
            self.expect(TokenKind::RBracket);
        }
        if spec.is_some() && mode != PassMode::Pointer {
            self.diags.error("E0104", "`_spec` only applies to pointer parameters", start);
        }
        Some(Param { name, ty, mode, dims, spec, span: start.to(self.prev_span()) })
    }

    fn parse_global_rest(
        &mut self,
        specs: Specifiers,
        ty: TypeExpr,
        name: Symbol,
        start: Span,
    ) -> Option<GlobalDecl> {
        let mut dims = Vec::new();
        while self.eat(TokenKind::LBracket) {
            if self.eat(TokenKind::RBracket) {
                dims.push(None);
            } else {
                dims.push(Some(self.parse_expr()));
                self.expect(TokenKind::RBracket);
            }
        }
        let init = if self.eat(TokenKind::Eq) { Some(self.parse_init()) } else { None };
        self.expect(TokenKind::Semi);
        let span = start.to(self.prev_span());
        Some(GlobalDecl { name, specs, ty, dims, init, span })
    }

    fn parse_init(&mut self) -> Init {
        if self.at(TokenKind::LBrace) {
            let start = self.bump().span;
            let mut items = Vec::new();
            if !self.at(TokenKind::RBrace) {
                loop {
                    items.push(self.parse_init());
                    if !self.eat(TokenKind::Comma) {
                        break;
                    }
                    // Allow trailing comma.
                    if self.at(TokenKind::RBrace) {
                        break;
                    }
                }
            }
            let end = self.expect(TokenKind::RBrace);
            Init::List(items, start.to(end))
        } else {
            Init::Expr(self.parse_expr())
        }
    }

    // ---- types ---------------------------------------------------------

    /// Parses a type; returns `None` (with a diagnostic) if no type is here.
    fn parse_type(&mut self) -> Option<TypeExpr> {
        use Keyword as K;
        let t = self.peek();
        match t {
            TokenKind::Keyword(kw) => {
                let ty = match kw {
                    K::Void => {
                        self.bump();
                        TypeExpr::Void
                    }
                    K::Bool => {
                        self.bump();
                        TypeExpr::Bool
                    }
                    K::Auto => {
                        self.bump();
                        TypeExpr::Auto
                    }
                    K::Char => {
                        self.bump();
                        TypeExpr::U8
                    }
                    K::Int => {
                        self.bump();
                        TypeExpr::I32
                    }
                    K::Short => {
                        self.bump();
                        self.eat(TokenKind::Keyword(K::Int));
                        TypeExpr::Int { bits: 16, signed: true }
                    }
                    K::Long => {
                        self.bump();
                        self.eat(TokenKind::Keyword(K::Long));
                        self.eat(TokenKind::Keyword(K::Int));
                        TypeExpr::Int { bits: 64, signed: true }
                    }
                    K::Signed | K::Unsigned => {
                        let signed = kw == K::Signed;
                        self.bump();
                        let bits = match self.peek() {
                            TokenKind::Keyword(K::Char) => {
                                self.bump();
                                8
                            }
                            TokenKind::Keyword(K::Short) => {
                                self.bump();
                                self.eat(TokenKind::Keyword(K::Int));
                                16
                            }
                            TokenKind::Keyword(K::Long) => {
                                self.bump();
                                self.eat(TokenKind::Keyword(K::Long));
                                self.eat(TokenKind::Keyword(K::Int));
                                64
                            }
                            TokenKind::Keyword(K::Int) => {
                                self.bump();
                                32
                            }
                            _ => 32,
                        };
                        TypeExpr::Int { bits, signed }
                    }
                    K::Uint8T => {
                        self.bump();
                        TypeExpr::U8
                    }
                    K::Uint16T => {
                        self.bump();
                        TypeExpr::U16
                    }
                    K::Uint32T => {
                        self.bump();
                        TypeExpr::U32
                    }
                    K::Uint64T => {
                        self.bump();
                        TypeExpr::U64
                    }
                    K::Int8T => {
                        self.bump();
                        TypeExpr::Int { bits: 8, signed: true }
                    }
                    K::Int16T => {
                        self.bump();
                        TypeExpr::Int { bits: 16, signed: true }
                    }
                    K::Int32T => {
                        self.bump();
                        TypeExpr::I32
                    }
                    K::Int64T => {
                        self.bump();
                        TypeExpr::Int { bits: 64, signed: true }
                    }
                    K::Const => {
                        self.bump();
                        return self.parse_type();
                    }
                    _ => {
                        self.diags.error(
                            "E0105",
                            format!("expected type, found {}", t.describe()),
                            self.span(),
                        );
                        return None;
                    }
                };
                Some(ty)
            }
            TokenKind::Ident(sym) => {
                // Could be `ncl::kv<K,V>` / `ncl::rv<R,V>` or an unknown name.
                if self.interner.resolve(sym) == "ncl"
                    && self.peek_ahead(1) == TokenKind::ColonColon
                {
                    self.bump(); // ncl
                    self.bump(); // ::
                    let (seg, seg_span) = self.expect_ident();
                    let seg_name = self.interner.resolve(seg).to_string();
                    match seg_name.as_str() {
                        "kv" | "rv" => {
                            self.expect(TokenKind::Lt);
                            let a = self.parse_type()?;
                            self.expect(TokenKind::Comma);
                            let b = self.parse_type()?;
                            self.close_template_angle();
                            Some(if seg_name == "kv" {
                                TypeExpr::Kv(Box::new(a), Box::new(b))
                            } else {
                                TypeExpr::Rv(Box::new(a), Box::new(b))
                            })
                        }
                        other => {
                            self.diags.error(
                                "E0106",
                                format!("unknown ncl type `ncl::{other}`"),
                                seg_span,
                            );
                            None
                        }
                    }
                } else {
                    // Unknown named type: consume and let sema report usage.
                    self.bump();
                    Some(TypeExpr::Named(sym))
                }
            }
            _ => {
                self.diags.error(
                    "E0105",
                    format!("expected type, found {}", t.describe()),
                    self.span(),
                );
                None
            }
        }
    }

    /// Consumes a closing `>` of a template list, splitting `>>` if needed.
    fn close_template_angle(&mut self) {
        match self.peek() {
            TokenKind::Gt => {
                self.bump();
            }
            TokenKind::Shr => {
                // Split `>>` into two `>`: rewrite in place by shrinking span.
                let tok = self.tokens[self.pos];
                self.pos += 1;
                // The second `>` is synthesized by *not* requiring another
                // close: callers nesting two levels call this twice, so we
                // push a marker by rewinding onto a virtual Gt. Since token
                // storage is borrowed, emulate by treating the next close as
                // already consumed via a flag... Simplest correct approach:
                // NetCL type grammar never nests template types (kv/rv take
                // scalar keys), so a bare `>>` here is an error.
                self.diags.error(
                    "E0107",
                    "nested template arguments are not supported in NetCL types",
                    tok.span,
                );
            }
            other => {
                self.diags.error(
                    "E0100",
                    format!("expected `>`, found {}", other.describe()),
                    self.span(),
                );
            }
        }
    }

    // ---- statements ------------------------------------------------------

    fn parse_block(&mut self) -> Block {
        let start = self.expect(TokenKind::LBrace);
        let mut stmts = Vec::new();
        while !self.at(TokenKind::RBrace) && !self.at(TokenKind::Eof) {
            let before = self.pos;
            if let Some(s) = self.parse_stmt() {
                stmts.push(s);
            } else if self.pos == before {
                self.synchronize();
                if self.pos == before {
                    self.bump();
                }
            }
        }
        let end = self.expect(TokenKind::RBrace);
        Block { stmts, span: start.to(end) }
    }

    /// Wraps a single statement into a block unless it already is one.
    fn parse_stmt_as_block(&mut self) -> Block {
        if self.at(TokenKind::LBrace) {
            self.parse_block()
        } else {
            match self.parse_stmt() {
                Some(s) => {
                    let span = s.span();
                    Block { stmts: vec![s], span }
                }
                None => Block::default(),
            }
        }
    }

    fn starts_decl(&self) -> bool {
        match self.peek() {
            TokenKind::Keyword(kw) => kw.starts_type(),
            TokenKind::Ident(sym) => {
                // `ncl::kv<...>` local declarations (rare but legal).
                // Heuristic: ident `ncl` followed by `::kv` or `::rv`.
                if self.peek_ahead(1) == TokenKind::ColonColon {
                    if let TokenKind::Ident(_) = self.peek_ahead(2) {
                        // Can't resolve without interner access here; handled
                        // in parse_stmt via lookahead on resolved names.
                        let _ = sym;
                        return false;
                    }
                }
                false
            }
            _ => false,
        }
    }

    fn parse_stmt(&mut self) -> Option<Stmt> {
        let start = self.span();
        match self.peek() {
            TokenKind::Keyword(Keyword::If) => {
                self.bump();
                self.expect(TokenKind::LParen);
                let cond = self.parse_expr();
                self.expect(TokenKind::RParen);
                let then = self.parse_stmt_as_block();
                let els = if self.eat(TokenKind::Keyword(Keyword::Else)) {
                    Some(self.parse_stmt_as_block())
                } else {
                    None
                };
                Some(Stmt::If { cond, then, els, span: start.to(self.prev_span()) })
            }
            TokenKind::Keyword(Keyword::For) => {
                self.bump();
                self.expect(TokenKind::LParen);
                let init = if self.at(TokenKind::Semi) {
                    self.bump();
                    None
                } else if self.starts_decl() {
                    let d = self.parse_local_decl()?;
                    Some(Box::new(Stmt::Decl(d)))
                } else {
                    let e = self.parse_expr();
                    self.expect(TokenKind::Semi);
                    Some(Box::new(Stmt::Expr(e)))
                };
                let cond = if self.at(TokenKind::Semi) { None } else { Some(self.parse_expr()) };
                self.expect(TokenKind::Semi);
                let step = if self.at(TokenKind::RParen) { None } else { Some(self.parse_expr()) };
                self.expect(TokenKind::RParen);
                let body = self.parse_stmt_as_block();
                Some(Stmt::For { init, cond, step, body, span: start.to(self.prev_span()) })
            }
            TokenKind::Keyword(Keyword::While) => {
                self.bump();
                self.expect(TokenKind::LParen);
                let cond = self.parse_expr();
                self.expect(TokenKind::RParen);
                let body = self.parse_stmt_as_block();
                Some(Stmt::While { cond, body, span: start.to(self.prev_span()) })
            }
            TokenKind::Keyword(Keyword::Do) => {
                self.diags.error("E0108", "`do`/`while` loops are not supported in NetCL device code; use `for` or `while`", start);
                self.synchronize();
                None
            }
            TokenKind::Keyword(Keyword::Return) => {
                self.bump();
                let value = if self.at(TokenKind::Semi) { None } else { Some(self.parse_expr()) };
                self.expect(TokenKind::Semi);
                Some(Stmt::Return { value, span: start.to(self.prev_span()) })
            }
            TokenKind::Keyword(Keyword::Break) => {
                self.bump();
                self.expect(TokenKind::Semi);
                Some(Stmt::Break(start))
            }
            TokenKind::Keyword(Keyword::Continue) => {
                self.bump();
                self.expect(TokenKind::Semi);
                Some(Stmt::Continue(start))
            }
            TokenKind::LBrace => Some(Stmt::Block(self.parse_block())),
            TokenKind::Semi => {
                self.bump();
                // Empty statement: normalized to an empty block.
                Some(Stmt::Block(Block { stmts: vec![], span: start }))
            }
            _ if self.starts_decl() => self.parse_local_decl().map(Stmt::Decl),
            _ => {
                let e = self.parse_expr();
                self.expect(TokenKind::Semi);
                Some(Stmt::Expr(e))
            }
        }
    }

    fn parse_local_decl(&mut self) -> Option<LocalDecl> {
        let start = self.span();
        let ty = self.parse_type()?;
        let (name, _) = self.expect_ident();
        let mut dims = Vec::new();
        while self.eat(TokenKind::LBracket) {
            dims.push(self.parse_expr());
            self.expect(TokenKind::RBracket);
        }
        let init = if self.eat(TokenKind::Eq) { Some(self.parse_init()) } else { None };
        // Comma-chained declarations (`int a, b;`) share the type.
        if self.at(TokenKind::Comma) {
            self.diags.error(
                "E0109",
                "multiple declarators per statement are not supported; declare each variable separately",
                self.span(),
            );
            while !self.at(TokenKind::Semi) && !self.at(TokenKind::Eof) {
                self.bump();
            }
        }
        self.expect(TokenKind::Semi);
        let id = self.node_id();
        Some(LocalDecl { id, name, ty, dims, init, span: start.to(self.prev_span()) })
    }

    // ---- expressions -----------------------------------------------------

    fn parse_expr(&mut self) -> Expr {
        self.parse_assign()
    }

    fn parse_assign(&mut self) -> Expr {
        let lhs = self.parse_ternary();
        let op = match self.peek() {
            TokenKind::Eq => None,
            TokenKind::PlusEq => Some(BinOp::Add),
            TokenKind::MinusEq => Some(BinOp::Sub),
            TokenKind::StarEq => Some(BinOp::Mul),
            TokenKind::SlashEq => Some(BinOp::Div),
            TokenKind::PercentEq => Some(BinOp::Rem),
            TokenKind::AmpEq => Some(BinOp::And),
            TokenKind::PipeEq => Some(BinOp::Or),
            TokenKind::CaretEq => Some(BinOp::Xor),
            TokenKind::ShlEq => Some(BinOp::Shl),
            TokenKind::ShrEq => Some(BinOp::Shr),
            _ => return lhs,
        };
        self.bump();
        let rhs = self.parse_assign();
        let span = lhs.span.to(rhs.span);
        self.mk(ExprKind::Assign { op, target: Box::new(lhs), value: Box::new(rhs) }, span)
    }

    fn parse_ternary(&mut self) -> Expr {
        let cond = self.parse_binary(0);
        if self.eat(TokenKind::Question) {
            let then = self.parse_expr();
            self.expect(TokenKind::Colon);
            let els = self.parse_ternary();
            let span = cond.span.to(els.span);
            self.mk(ExprKind::Ternary(Box::new(cond), Box::new(then), Box::new(els)), span)
        } else {
            cond
        }
    }

    /// Precedence-climbing binary expression parser.
    fn parse_binary(&mut self, min_prec: u8) -> Expr {
        let mut lhs = self.parse_unary();
        loop {
            let (op, prec) = match self.peek() {
                TokenKind::PipePipe => (BinOp::LogicalOr, 1),
                TokenKind::AmpAmp => (BinOp::LogicalAnd, 2),
                TokenKind::Pipe => (BinOp::Or, 3),
                TokenKind::Caret => (BinOp::Xor, 4),
                TokenKind::Amp => (BinOp::And, 5),
                TokenKind::EqEq => (BinOp::Eq, 6),
                TokenKind::Ne => (BinOp::Ne, 6),
                TokenKind::Lt => (BinOp::Lt, 7),
                TokenKind::Le => (BinOp::Le, 7),
                TokenKind::Gt => (BinOp::Gt, 7),
                TokenKind::Ge => (BinOp::Ge, 7),
                TokenKind::Shl => (BinOp::Shl, 8),
                TokenKind::Shr => (BinOp::Shr, 8),
                TokenKind::Plus => (BinOp::Add, 9),
                TokenKind::Minus => (BinOp::Sub, 9),
                TokenKind::Star => (BinOp::Mul, 10),
                TokenKind::Slash => (BinOp::Div, 10),
                TokenKind::Percent => (BinOp::Rem, 10),
                _ => return lhs,
            };
            if prec < min_prec {
                return lhs;
            }
            self.bump();
            let rhs = self.parse_binary(prec + 1);
            let span = lhs.span.to(rhs.span);
            lhs = self.mk(ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)), span);
        }
    }

    fn parse_unary(&mut self) -> Expr {
        let start = self.span();
        match self.peek() {
            TokenKind::Minus => {
                self.bump();
                let e = self.parse_unary();
                let span = start.to(e.span);
                self.mk(ExprKind::Unary(UnOp::Neg, Box::new(e)), span)
            }
            TokenKind::Bang => {
                self.bump();
                let e = self.parse_unary();
                let span = start.to(e.span);
                self.mk(ExprKind::Unary(UnOp::Not, Box::new(e)), span)
            }
            TokenKind::Tilde => {
                self.bump();
                let e = self.parse_unary();
                let span = start.to(e.span);
                self.mk(ExprKind::Unary(UnOp::BitNot, Box::new(e)), span)
            }
            TokenKind::Amp => {
                self.bump();
                let e = self.parse_unary();
                let span = start.to(e.span);
                self.mk(ExprKind::Unary(UnOp::AddrOf, Box::new(e)), span)
            }
            TokenKind::Star => {
                self.bump();
                let e = self.parse_unary();
                let span = start.to(e.span);
                self.mk(ExprKind::Unary(UnOp::Deref, Box::new(e)), span)
            }
            TokenKind::PlusPlus | TokenKind::MinusMinus => {
                let inc = self.peek() == TokenKind::PlusPlus;
                self.bump();
                let e = self.parse_unary();
                let span = start.to(e.span);
                self.mk(ExprKind::IncDec { inc, postfix: false, expr: Box::new(e) }, span)
            }
            TokenKind::Keyword(Keyword::Sizeof) => {
                self.bump();
                self.expect(TokenKind::LParen);
                let ty = self.parse_type().unwrap_or(TypeExpr::I32);
                let end = self.expect(TokenKind::RParen);
                self.mk(ExprKind::Sizeof(ty), start.to(end))
            }
            TokenKind::LParen if self.is_cast_paren() => {
                self.bump();
                let ty = self.parse_type().unwrap_or(TypeExpr::I32);
                self.expect(TokenKind::RParen);
                let e = self.parse_unary();
                let span = start.to(e.span);
                self.mk(ExprKind::Cast(ty, Box::new(e)), span)
            }
            _ => self.parse_postfix(),
        }
    }

    /// Whether `(` begins a C-style cast: `(` followed by a type keyword.
    fn is_cast_paren(&self) -> bool {
        matches!(self.peek_ahead(1), TokenKind::Keyword(kw) if kw.starts_type())
    }

    fn parse_postfix(&mut self) -> Expr {
        let mut e = self.parse_primary();
        loop {
            let start = e.span;
            match self.peek() {
                TokenKind::LParen => {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.at(TokenKind::RParen) {
                        loop {
                            args.push(self.parse_expr());
                            if !self.eat(TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    let end = self.expect(TokenKind::RParen);
                    e = self.mk(ExprKind::Call { callee: Box::new(e), args }, start.to(end));
                }
                TokenKind::LBracket => {
                    self.bump();
                    let idx = self.parse_expr();
                    let end = self.expect(TokenKind::RBracket);
                    e = self.mk(ExprKind::Index(Box::new(e), Box::new(idx)), start.to(end));
                }
                TokenKind::Dot => {
                    self.bump();
                    let (field, fspan) = self.expect_ident();
                    e = self.mk(ExprKind::Member(Box::new(e), field), start.to(fspan));
                }
                TokenKind::PlusPlus | TokenKind::MinusMinus => {
                    let inc = self.peek() == TokenKind::PlusPlus;
                    let end = self.bump().span;
                    e = self.mk(
                        ExprKind::IncDec { inc, postfix: true, expr: Box::new(e) },
                        start.to(end),
                    );
                }
                _ => return e,
            }
        }
    }

    fn parse_primary(&mut self) -> Expr {
        let start = self.span();
        match self.peek() {
            TokenKind::Int(v) => {
                self.bump();
                self.mk(ExprKind::Int(v), start)
            }
            TokenKind::Char(c) => {
                self.bump();
                self.mk(ExprKind::Char(c), start)
            }
            TokenKind::Keyword(Keyword::True) => {
                self.bump();
                self.mk(ExprKind::Bool(true), start)
            }
            TokenKind::Keyword(Keyword::False) => {
                self.bump();
                self.mk(ExprKind::Bool(false), start)
            }
            TokenKind::Ident(sym) => {
                self.bump();
                if self.at(TokenKind::ColonColon) {
                    self.parse_path_rest(sym, start)
                } else {
                    self.mk(ExprKind::Ident(sym), start)
                }
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.parse_expr();
                self.expect(TokenKind::RParen);
                e
            }
            other => {
                self.diags.error(
                    "E0110",
                    format!("expected expression, found {}", other.describe()),
                    start,
                );
                self.bump();
                self.mk(ExprKind::Error, start)
            }
        }
    }

    fn parse_path_rest(&mut self, first: Symbol, start: Span) -> Expr {
        let mut segments = vec![first];
        while self.eat(TokenKind::ColonColon) {
            let (seg, _) = self.expect_ident();
            segments.push(seg);
        }
        let mut targs = Vec::new();
        let last = *segments.last().unwrap();
        let last_name = self.interner.resolve(last).to_string();
        if self.at(TokenKind::Lt) && TEMPLATED_FNS.contains(&last_name.as_str()) {
            self.bump();
            loop {
                match self.peek() {
                    TokenKind::Int(v) => {
                        self.bump();
                        targs.push(TemplateArg::Const(v));
                    }
                    TokenKind::Keyword(kw) if kw.starts_type() => {
                        if let Some(ty) = self.parse_type() {
                            targs.push(TemplateArg::Type(ty));
                        }
                    }
                    TokenKind::Ident(s)
                        if matches!(
                            self.interner.resolve(s),
                            "u8" | "u16" | "u32" | "u64" | "i8" | "i16" | "i32" | "i64"
                        ) =>
                    {
                        let name = self.interner.resolve(s).to_string();
                        self.bump();
                        let bits: u8 = name[1..].parse().unwrap();
                        let signed = name.starts_with('i');
                        targs.push(TemplateArg::Type(TypeExpr::Int { bits, signed }));
                    }
                    other => {
                        self.diags.error(
                            "E0111",
                            format!("expected template argument, found {}", other.describe()),
                            self.span(),
                        );
                        break;
                    }
                }
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
            self.close_template_angle();
        }
        self.mk(ExprKind::Path { segments, targs }, start.to(self.prev_span()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    impl Program {
        fn globals(&self) -> impl Iterator<Item = &GlobalDecl> {
            self.items.iter().filter_map(|i| match i {
                Item::Global(g) => Some(g),
                _ => None,
            })
        }

        fn functions(&self) -> impl Iterator<Item = &FunctionDecl> {
            self.items.iter().filter_map(|i| match i {
                Item::Function(f) => Some(f),
                _ => None,
            })
        }
    }

    fn parse_ok(src: &str) -> (Program, Interner) {
        let mut interner = Interner::new();
        let mut diags = DiagnosticSink::new();
        let toks = lex(src, &mut interner, &mut diags);
        let prog = parse_tokens(&toks, &mut interner, &mut diags);
        assert!(!diags.has_errors(), "unexpected errors: {:?}", diags.diagnostics());
        (prog, interner)
    }

    fn parse_err(src: &str) -> DiagnosticSink {
        let mut interner = Interner::new();
        let mut diags = DiagnosticSink::new();
        let toks = lex(src, &mut interner, &mut diags);
        let _ = parse_tokens(&toks, &mut interner, &mut diags);
        assert!(diags.has_errors(), "expected errors for {src}");
        diags
    }

    #[test]
    fn parses_global_array() {
        let (p, i) = parse_ok("_managed_ unsigned cms[3][65536];");
        let g = p.globals().next().unwrap();
        assert!(g.specs.is_managed);
        assert_eq!(i.resolve(g.name), "cms");
        assert_eq!(g.ty, TypeExpr::U32);
        assert_eq!(g.dims.len(), 2);
    }

    #[test]
    fn parses_kernel_with_refs() {
        let (p, i) = parse_ok(
            "_kernel(1) _at(1) void query(char op, unsigned k, unsigned &v, char &hit) { }",
        );
        let f = p.functions().next().unwrap();
        assert!(f.specs.kernel.is_some());
        assert_eq!(i.resolve(f.name), "query");
        assert_eq!(f.params.len(), 4);
        assert_eq!(f.params[0].mode, PassMode::Value);
        assert_eq!(f.params[2].mode, PassMode::Reference);
        assert!(f.specs.at.is_some());
    }

    #[test]
    fn parses_spec_pointer_param() {
        let (p, _) = parse_ok("_kernel(1) void f(uint32_t _spec(32) *v) {}");
        let f = p.functions().next().unwrap();
        assert_eq!(f.params[0].mode, PassMode::Pointer);
        assert!(f.params[0].spec.is_some());
    }

    #[test]
    fn parses_array_param_no_decay() {
        let (p, _) = parse_ok("_kernel(1) void a(int x[3]) {}");
        let f = p.functions().next().unwrap();
        assert_eq!(f.params[0].dims.len(), 1);
        assert_eq!(f.params[0].mode, PassMode::Value);
    }

    #[test]
    fn parses_lookup_kv_initializer() {
        let (p, _) =
            parse_ok("_net_ _lookup_ ncl::kv<unsigned, unsigned> cache[] = {{1,42},{2,42}};");
        let g = p.globals().next().unwrap();
        assert!(g.specs.is_lookup);
        assert!(matches!(g.ty, TypeExpr::Kv(_, _)));
        assert_eq!(g.dims.len(), 1);
        assert!(g.dims[0].is_none());
        match &g.init {
            Some(Init::List(items, _)) => assert_eq!(items.len(), 2),
            other => panic!("expected list init, got {other:?}"),
        }
    }

    #[test]
    fn parses_figure4_sketch() {
        let src = r#"
#define CMS_HASHES 3
#define THRESH 512
_managed_ unsigned cms[CMS_HASHES][65536];
_net_ void sketch(unsigned k, unsigned &hot) {
  unsigned c[CMS_HASHES];
  c[0] = ncl::atomic_sadd_new(&cms[0][ncl::xor16(k)], 1);
  c[1] = ncl::atomic_sadd_new(&cms[1][ncl::crc32<16>(k)], 1);
  c[2] = ncl::atomic_sadd_new(&cms[2][ncl::crc16(k)], 1);
  for (auto i = 1; i < CMS_HASHES; ++i)
    if (c[i] < c[0]) c[0] = c[i];
  hot = c[0] > THRESH ? c[0] : 0;
}
"#;
        let (unit, diags) = crate::parse("fig4.ncl", src);
        assert!(!diags.has_errors(), "{}", diags.render_all(&unit.source_map));
        assert_eq!(unit.program.items.len(), 2);
        let f = unit.program.functions().next().unwrap();
        assert!(f.specs.is_net);
        assert_eq!(f.params.len(), 2);
        let body = f.body.as_ref().unwrap();
        assert_eq!(body.stmts.len(), 6);
        assert!(matches!(body.stmts[5], Stmt::Expr(_))); // hot = ...
        assert!(matches!(body.stmts[4], Stmt::For { .. }));
    }

    #[test]
    fn parses_return_action() {
        let (p, _) = parse_ok(
            "_kernel(1) void k(unsigned x) { if (x) return ncl::reflect(); return ncl::drop(); }",
        );
        let f = p.functions().next().unwrap();
        let body = f.body.as_ref().unwrap();
        assert!(matches!(&body.stmts[1], Stmt::Return { value: Some(_), .. }));
    }

    #[test]
    fn parses_ternary_and_shift() {
        let (p, _) =
            parse_ok("_net_ void f(unsigned x, unsigned &o) { o = x > 2 ? x << 1 : x >> 1; }");
        let f = p.functions().next().unwrap();
        match &f.body.as_ref().unwrap().stmts[0] {
            Stmt::Expr(e) => match &e.kind {
                ExprKind::Assign { value, .. } => {
                    assert!(matches!(value.kind, ExprKind::Ternary(..)))
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_device_id_member() {
        let (p, i) = parse_ok("_kernel(1) void k(unsigned &x) { x = device.id; }");
        let f = p.functions().next().unwrap();
        match &f.body.as_ref().unwrap().stmts[0] {
            Stmt::Expr(e) => match &e.kind {
                ExprKind::Assign { value, .. } => match &value.kind {
                    ExprKind::Member(base, field) => {
                        assert!(matches!(base.kind, ExprKind::Ident(_)));
                        assert_eq!(i.resolve(*field), "id");
                    }
                    other => panic!("{other:?}"),
                },
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_cast() {
        let (p, _) = parse_ok("_net_ void f(unsigned x, uint16_t &o) { o = (uint16_t)x; }");
        let f = p.functions().next().unwrap();
        match &f.body.as_ref().unwrap().stmts[0] {
            Stmt::Expr(e) => match &e.kind {
                ExprKind::Assign { value, .. } => {
                    assert!(matches!(value.kind, ExprKind::Cast(TypeExpr::Int { bits: 16, .. }, _)))
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn precedence_mul_over_add() {
        let (p, _) = parse_ok("_net_ void f(int a, int b, int c, int &o) { o = a + b * c; }");
        let f = p.functions().next().unwrap();
        match &f.body.as_ref().unwrap().stmts[0] {
            Stmt::Expr(e) => match &e.kind {
                ExprKind::Assign { value, .. } => match &value.kind {
                    ExprKind::Binary(BinOp::Add, _, rhs) => {
                        assert!(matches!(rhs.kind, ExprKind::Binary(BinOp::Mul, _, _)))
                    }
                    other => panic!("{other:?}"),
                },
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn multiple_declarators_rejected() {
        let d = parse_err("_net_ void f() { int a, b; }");
        assert!(d.has_code("E0109"));
    }

    #[test]
    fn do_while_rejected() {
        let d = parse_err("_net_ void f() { do { } while (1); }");
        assert!(d.has_code("E0108"));
    }

    #[test]
    fn recovery_continues_after_error() {
        let mut interner = Interner::new();
        let mut diags = DiagnosticSink::new();
        let toks =
            lex("_net_ void f() { int x = $$; } _net_ void g() {}", &mut interner, &mut diags);
        let p = parse_tokens(&toks, &mut interner, &mut diags);
        assert!(diags.has_errors());
        // g still parsed.
        assert_eq!(p.functions().count(), 2);
    }

    #[test]
    fn allreduce_figure7_parses() {
        let src = r#"
#define NUM_SLOTS 2048
#define SLOT_SIZE 32
#define NUM_WORKERS 6
_net_ uint16_t Bitmap[2][NUM_SLOTS];
_net_ uint32_t Agg[SLOT_SIZE][NUM_SLOTS * 2];
_net_ uint8_t Count[NUM_SLOTS * 2];

_kernel(1) void allreduce( uint8_t ver, uint16_t bmp_idx,
                           uint16_t agg_idx, uint16_t mask,
                           uint32_t _spec(SLOT_SIZE) *v) {
  uint16_t bitmap;
  if (ver == 0) {
    bitmap = ncl::atomic_or(&Bitmap[0][bmp_idx], mask);
    ncl::atomic_and(&Bitmap[1][bmp_idx], ~mask);
  } else {
    ncl::atomic_and(&Bitmap[0][bmp_idx], ~mask);
    bitmap = ncl::atomic_or(&Bitmap[1][bmp_idx], mask);
  }
  if (bitmap == 0) {
    for (auto i = 0; i < SLOT_SIZE; ++i)
      Agg[i][agg_idx] = v[i];
    Count[agg_idx] = NUM_WORKERS - 1;
  } else {
    auto seen = bitmap & mask;
    for (auto i = 0; i < SLOT_SIZE; ++i)
      v[i] = ncl::atomic_cond_add_new(&Agg[i][agg_idx], !seen, v[i]);
    auto cnt = ncl::atomic_cond_dec(&Count[agg_idx], !seen);
    if (cnt == 0)
      return ncl::reflect();
    if (cnt == 1)
      return ncl::multicast(42);
  }
  return ncl::drop();
}
"#;
        let (unit, diags) = crate::parse("agg.ncl", src);
        assert!(!diags.has_errors(), "{}", diags.render_all(&unit.source_map));
        assert_eq!(unit.program.globals().count(), 3);
        let k = unit.program.functions().next().unwrap();
        assert_eq!(k.params.len(), 5);
        assert!(k.params[4].spec.is_some());
    }
}
