//! Abstract syntax tree for NetCL-C.
//!
//! The AST mirrors the paper's surface language closely: a translation unit
//! is a list of global memory declarations and functions (kernels, net
//! functions, and — on the host side — ordinary functions). Every node
//! carries a [`Span`]; every expression and local declaration carries a
//! [`NodeId`], numbered densely from 0, that semantic analysis indexes its
//! per-node tables by.

use netcl_util::{Span, Symbol};

/// Identifier of an expression or local declaration within one translation
/// unit: `0..Program::node_count`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// A parsed translation unit.
#[derive(Debug, Default, Clone)]
pub struct Program {
    /// Top-level declarations in source order.
    pub items: Vec<Item>,
    /// How many [`NodeId`]s the parser handed out.
    pub node_count: u32,
}

/// A top-level declaration.
#[derive(Debug, Clone)]
pub enum Item {
    /// Global (device or managed) memory.
    Global(GlobalDecl),
    /// Kernel or net function.
    Function(FunctionDecl),
}

/// NetCL declaration specifiers (paper Table I).
#[derive(Debug, Clone, Default)]
pub struct Specifiers {
    /// `_kernel(c)`: computation ID expression (must be a constant).
    pub kernel: Option<(Box<Expr>, Span)>,
    /// `_net_` present.
    pub is_net: bool,
    /// `_managed_` present.
    pub is_managed: bool,
    /// `_lookup_` present.
    pub is_lookup: bool,
    /// `const` present.
    pub(crate) is_const: bool,
    /// `static` present.
    pub(crate) is_static: bool,
    /// `_at(l, ...)`: location-set expressions (constants) and the spec span.
    pub at: Option<(Vec<Expr>, Span)>,
    /// Span covering all specifiers.
    pub span: Span,
}

/// A syntactic type (before semantic resolution).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeExpr {
    /// `void`
    Void,
    /// `bool`
    Bool,
    /// `auto` — inferred from the initializer (locals only).
    Auto,
    /// Any integer spelling; `bits`/`signed` resolved by the parser
    /// (`unsigned` = u32, `char` = u8, `uint16_t` = u16, ...).
    Int {
        /// Bit width: 8, 16, 32, or 64.
        bits: u8,
        /// Signedness.
        signed: bool,
    },
    /// `ncl::kv<K, V>` — exact-match lookup entry.
    Kv(Box<TypeExpr>, Box<TypeExpr>),
    /// `ncl::rv<R, V>` — range-match lookup entry.
    Rv(Box<TypeExpr>, Box<TypeExpr>),
    /// Unresolved named type — always a semantic error in NetCL-C.
    Named(Symbol),
}

impl TypeExpr {
    /// `unsigned` / `uint32_t`.
    pub const U32: TypeExpr = TypeExpr::Int { bits: 32, signed: false };
    /// `int` / `int32_t`.
    pub const I32: TypeExpr = TypeExpr::Int { bits: 32, signed: true };
    /// `char` / `uint8_t` (NetCL treats plain `char` as unsigned, matching
    /// how the paper uses it for opcodes and flags).
    pub const U8: TypeExpr = TypeExpr::Int { bits: 8, signed: false };
    /// `uint16_t`.
    pub const U16: TypeExpr = TypeExpr::Int { bits: 16, signed: false };
    /// `uint64_t`.
    pub const U64: TypeExpr = TypeExpr::Int { bits: 64, signed: false };
}

/// How a kernel / function parameter is passed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassMode {
    /// By value: updates are device-local (paper §V-A).
    Value,
    /// By reference (`&`): updates visible to all receivers.
    Reference,
    /// By pointer (`*`): like reference, with `_spec(n)` element counts.
    Pointer,
}

/// One function parameter.
#[derive(Debug, Clone)]
pub struct Param {
    /// Parameter name.
    pub name: Symbol,
    /// Element type.
    pub ty: TypeExpr,
    /// Value / reference / pointer.
    pub mode: PassMode,
    /// Declared array dimensions, e.g. `int x[3]` (no decay for kernels).
    pub dims: Vec<Expr>,
    /// `_spec(n)` expression for pointer parameters.
    pub spec: Option<Expr>,
    /// Whole-parameter span.
    pub span: Span,
}

/// A kernel, net function, or host function.
#[derive(Debug, Clone)]
pub struct FunctionDecl {
    /// Function name.
    pub name: Symbol,
    /// NetCL specifiers.
    pub specs: Specifiers,
    /// Return type (kernels must be `void`).
    pub ret: TypeExpr,
    /// Parameters in order.
    pub params: Vec<Param>,
    /// Body; `None` for prototypes.
    pub body: Option<Block>,
    /// Whole-declaration span.
    pub span: Span,
}

/// A global memory declaration.
#[derive(Debug, Clone)]
pub struct GlobalDecl {
    /// Variable name.
    pub name: Symbol,
    /// NetCL specifiers.
    pub specs: Specifiers,
    /// Element type.
    pub ty: TypeExpr,
    /// Array dimensions; an empty `[]` (size from initializer) is `None`.
    pub dims: Vec<Option<Expr>>,
    /// Optional initializer (required for `_lookup_` tables with entries).
    pub init: Option<Init>,
    /// Whole-declaration span.
    pub span: Span,
}

/// An initializer: scalar expression or brace-enclosed list.
#[derive(Debug, Clone)]
pub enum Init {
    /// `= expr`
    Expr(Expr),
    /// `= { ... }`
    List(Vec<Init>, Span),
}

impl Init {
    /// The initializer's span.
    pub fn span(&self) -> Span {
        match self {
            Init::Expr(e) => e.span,
            Init::List(_, s) => *s,
        }
    }
}

/// A brace-enclosed statement sequence.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
    /// Span covering the braces.
    pub span: Span,
}

/// A statement.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// Local variable declaration.
    Decl(LocalDecl),
    /// Expression statement.
    Expr(Expr),
    /// `if (cond) { .. } else { .. }` — branches normalized to blocks.
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then: Block,
        /// Else branch, if present.
        els: Option<Block>,
        /// Statement span.
        span: Span,
    },
    /// `for (init; cond; step) body`.
    For {
        /// Init clause (declaration or expression statement).
        init: Option<Box<Stmt>>,
        /// Loop condition (`None` = `true`).
        cond: Option<Expr>,
        /// Step expression.
        step: Option<Expr>,
        /// Loop body.
        body: Block,
        /// Statement span.
        span: Span,
    },
    /// `while (cond) body`.
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Block,
        /// Statement span.
        span: Span,
    },
    /// `return;` / `return expr;` (kernels return actions).
    Return {
        /// Returned value, if any.
        value: Option<Expr>,
        /// Statement span.
        span: Span,
    },
    /// `break;`
    Break(Span),
    /// `continue;`
    Continue(Span),
    /// A nested block.
    Block(Block),
}

impl Stmt {
    /// The statement's span.
    pub(crate) fn span(&self) -> Span {
        match self {
            Stmt::Decl(d) => d.span,
            Stmt::Expr(e) => e.span,
            Stmt::If { span, .. }
            | Stmt::For { span, .. }
            | Stmt::While { span, .. }
            | Stmt::Return { span, .. } => *span,
            Stmt::Break(s) | Stmt::Continue(s) => *s,
            Stmt::Block(b) => b.span,
        }
    }
}

/// A local variable declaration, possibly with array dimensions.
#[derive(Debug, Clone)]
pub struct LocalDecl {
    /// Node ID (sema records the declared type and dimensions under it).
    pub id: NodeId,
    /// Variable name.
    pub name: Symbol,
    /// Declared type (may be `auto`).
    pub ty: TypeExpr,
    /// Array dimensions.
    pub dims: Vec<Expr>,
    /// Initializer.
    pub init: Option<Init>,
    /// Declaration span.
    pub span: Span,
}

/// An expression node.
#[derive(Debug, Clone)]
pub struct Expr {
    /// The expression variant.
    pub kind: ExprKind,
    /// Source span.
    pub span: Span,
    /// Unique node ID (types are recorded per-ID in sema).
    pub id: NodeId,
}

/// A template argument in a library path (`ncl::crc32<16>`).
#[derive(Debug, Clone)]
pub enum TemplateArg {
    /// A type argument.
    Type(TypeExpr),
    /// A constant argument.
    Const(u64),
}

/// Expression variants.
#[derive(Debug, Clone)]
pub enum ExprKind {
    /// Integer literal.
    Int(u64),
    /// Boolean literal.
    Bool(bool),
    /// Character literal.
    Char(u8),
    /// Plain identifier.
    Ident(Symbol),
    /// Qualified path with optional template args, e.g.
    /// `ncl::atomic_add`, `ncl::crc32<16>`, `ncl::tna::crc64`.
    Path {
        /// Path segments.
        segments: Vec<Symbol>,
        /// Template arguments.
        targs: Vec<TemplateArg>,
    },
    /// Unary operator application.
    Unary(UnOp, Box<Expr>),
    /// Binary operator application.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Assignment; `op` is `Some` for compound assignment (`+=` etc.).
    Assign {
        /// Compound operator, if any.
        op: Option<BinOp>,
        /// Assignment target.
        target: Box<Expr>,
        /// Assigned value.
        value: Box<Expr>,
    },
    /// `cond ? a : b`.
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Function or builtin call.
    Call {
        /// Callee (identifier or path).
        callee: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `base[index]`.
    Index(Box<Expr>, Box<Expr>),
    /// `base.field` (only `device.id` and friends in device code).
    Member(Box<Expr>, Symbol),
    /// C-style cast `(type)expr`.
    Cast(TypeExpr, Box<Expr>),
    /// `++x` / `x--` etc.
    IncDec {
        /// Increment or decrement.
        inc: bool,
        /// Postfix or prefix.
        postfix: bool,
        /// Operand.
        expr: Box<Expr>,
    },
    /// `sizeof(type)` — constant-folded by sema.
    Sizeof(TypeExpr),
    /// Parse-error placeholder so later phases can keep going.
    Error,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// `-x`
    Neg,
    /// `!x`
    Not,
    /// `~x`
    BitNot,
    /// `&x`
    AddrOf,
    /// `*x`
    Deref,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    LogicalAnd,
    /// `||`
    LogicalOr,
}

impl BinOp {
    /// True for `== != < <= > >= && ||` (result type `bool`).
    pub fn is_comparison(self) -> bool {
        use BinOp::*;
        matches!(self, Eq | Ne | Lt | Le | Gt | Ge | LogicalAnd | LogicalOr)
    }

    /// The C spelling.
    pub fn symbol(self) -> &'static str {
        use BinOp::*;
        match self {
            Add => "+",
            Sub => "-",
            Mul => "*",
            Div => "/",
            Rem => "%",
            And => "&",
            Or => "|",
            Xor => "^",
            Shl => "<<",
            Shr => ">>",
            Eq => "==",
            Ne => "!=",
            Lt => "<",
            Le => "<=",
            Gt => ">",
            Ge => ">=",
            LogicalAnd => "&&",
            LogicalOr => "||",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_classification() {
        assert!(BinOp::Eq.is_comparison());
        assert!(BinOp::LogicalAnd.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert_eq!(BinOp::Shl.symbol(), "<<");
    }

    #[test]
    fn type_constants() {
        assert_eq!(TypeExpr::U32, TypeExpr::Int { bits: 32, signed: false });
        assert_eq!(TypeExpr::U8, TypeExpr::Int { bits: 8, signed: false });
    }
}
