//! Typed P4-16 subset AST.

use netcl_sema::builtins::{AtomicOp, HashKind};
use std::sync::Arc;

/// Which P4 architecture dialect a program is written against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Target {
    /// Intel Tofino Native Architecture.
    #[default]
    Tna,
    /// p4lang v1model (BMv2 software switch).
    V1Model,
}

/// A complete P4 program (one device pipeline).
///
/// Everything but the name and dialect is shared: cloning a program copies
/// its name and bumps three counts. Edit a part through `Arc::make_mut`,
/// which copies only if shared.
#[derive(Clone, Debug, Default)]
pub struct P4Program {
    /// Program name (used in comments and reports).
    pub name: String,
    /// Dialect.
    pub target: TargetOpt,
    /// Header type definitions.
    pub headers: Arc<Vec<HeaderDef>>,
    /// Parser (single ingress parser in our subset).
    pub parser: Option<Arc<ParserDef>>,
    /// Controls (ingress control carries the NetCL runtime + kernels).
    pub controls: Arc<Vec<ControlDef>>,
}

/// `Target` with a default for `Default` derives.
pub type TargetOpt = Target;

impl P4Program {
    /// Finds a control by name.
    pub fn control(&self, name: &str) -> Option<&ControlDef> {
        self.controls.iter().find(|c| c.name == name)
    }

    /// Finds a header definition by type name.
    pub fn header(&self, name: &str) -> Option<&HeaderDef> {
        self.headers.iter().find(|h| h.name == name)
    }
}

/// `header name_t { bit<w> f; ... }`
#[derive(Clone, Debug, PartialEq)]
pub struct HeaderDef {
    /// Type name (`cache_t`).
    pub name: String,
    /// Field name and width pairs.
    pub fields: Vec<(String, u32)>,
    /// Number of stack instances (1 = plain header; >1 = header stack,
    /// used for array arguments per Fig. 9).
    pub stack: u32,
}

impl HeaderDef {
    /// Total bits of one instance.
    pub fn bits(&self) -> u32 {
        self.fields.iter().map(|(_, w)| w).sum()
    }
}

/// A parser definition: a finite-state machine of extract states.
#[derive(Clone, Debug, Default)]
pub struct ParserDef {
    /// Parser name.
    pub name: String,
    /// States in declaration order; `start` must exist.
    pub states: Vec<ParserState>,
}

/// One parser state.
#[derive(Clone, Debug)]
pub struct ParserState {
    /// State name.
    pub name: String,
    /// Headers extracted, in order (paths like `hdr.ipv4`).
    pub extracts: Vec<String>,
    /// State transition.
    pub transition: Transition,
}

/// Parser state transitions.
#[derive(Clone, Debug)]
pub enum Transition {
    /// `transition accept;`
    Accept,
    /// `transition reject;`
    Reject,
    /// `transition next_state;`
    Direct(String),
    /// `transition select(expr) { value: state; ...; default: state; }`
    Select {
        /// Selector expression.
        selector: Expr,
        /// `(value, state)` cases.
        cases: Vec<(u64, String)>,
        /// Default state (`accept`/`reject` allowed).
        default: String,
    },
}

/// `Register<bit<W>, bit<I>>(size) name;`
#[derive(Clone, Debug, PartialEq)]
pub struct RegisterDef {
    /// Instance name.
    pub name: Name,
    /// Element width in bits.
    pub elem_bits: u32,
    /// Element count.
    pub size: u32,
}

/// `RegisterAction<...>(reg) name = { void apply(inout bit<W> m, out
/// bit<W> o) { ... } };`
///
/// The SALU microprogram is stored structurally as the NetCL atomic it
/// implements; the printer renders the apply body and the parser recognizes
/// the same shapes. This is exactly the semantic content a Tofino SALU can
/// hold: one conditional read-modify-write plus an output selection.
#[derive(Clone, Debug, PartialEq)]
pub struct RegisterActionDef {
    /// Instance name.
    pub name: Name,
    /// The register it operates on.
    pub register: Name,
    /// The RMW microprogram.
    pub op: AtomicOp,
    /// Condition source (a metadata field path) for `_cond` forms.
    pub cond: Option<Expr>,
    /// Value operand sources.
    pub operands: Vec<Expr>,
}

/// `Hash<bit<W>>(HashAlgorithm_t.X) name;`
#[derive(Clone, Debug, PartialEq)]
pub struct HashDef {
    /// Instance name.
    pub name: String,
    /// Algorithm.
    pub algo: HashKind,
    /// Output width in bits.
    pub out_bits: u32,
}

/// Table key match kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatchKind {
    /// `exact`
    Exact,
    /// `range`
    Range,
    /// `ternary`
    Ternary,
    /// `lpm`
    Lpm,
}

impl MatchKind {
    /// The P4 keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            MatchKind::Exact => "exact",
            MatchKind::Range => "range",
            MatchKind::Ternary => "ternary",
            MatchKind::Lpm => "lpm",
        }
    }
}

/// A `const entries` row.
#[derive(Clone, Debug, PartialEq)]
pub struct TableEntry {
    /// Key values (one per table key; for range keys, `(lo, hi)`).
    pub keys: Vec<EntryKey>,
    /// Invoked action name.
    pub action: String,
    /// Action arguments.
    pub args: Vec<u64>,
}

/// One key cell of a const entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntryKey {
    /// Exact value.
    Value(u64),
    /// Inclusive range `lo..hi`.
    Range(u64, u64),
}

/// `table name { key = ...; actions = ...; const entries = ...; }`
#[derive(Clone, Debug)]
pub struct TableDef {
    /// Table name.
    pub name: String,
    /// Key expressions with match kinds.
    pub keys: Vec<(Expr, MatchKind)>,
    /// Allowed action names (`NoAction` implied available).
    pub actions: Vec<String>,
    /// Static entries (compile-time; `_managed_ _lookup_` tables start with
    /// these and are mutated through the control plane at run time).
    pub entries: Vec<TableEntry>,
    /// Default action name.
    pub default_action: String,
    /// Declared capacity.
    pub size: u32,
}

/// `action name(params) { body }`
#[derive(Clone, Debug)]
pub struct ActionDef {
    /// Action name.
    pub name: String,
    /// `(name, bits)` parameters (action data from table entries).
    pub params: Vec<(String, u32)>,
    /// Statements.
    pub body: Vec<Stmt>,
}

/// A control block.
#[derive(Clone, Debug, Default)]
pub struct ControlDef {
    /// Control name.
    pub name: String,
    /// Local metadata variables `(name, bits)`.
    pub locals: Vec<(Name, u32)>,
    /// Register instances.
    pub registers: Vec<RegisterDef>,
    /// RegisterAction instances.
    pub register_actions: Vec<RegisterActionDef>,
    /// Hash instances.
    pub hashes: Vec<HashDef>,
    /// Actions.
    pub actions: Vec<ActionDef>,
    /// Tables.
    pub tables: Vec<TableDef>,
    /// The apply block.
    pub apply: Vec<Stmt>,
}

impl ControlDef {
    /// Finds a table by name.
    pub fn table(&self, name: &str) -> Option<&TableDef> {
        self.tables.iter().find(|t| t.name == name)
    }

    /// Finds an action by name.
    pub fn action(&self, name: &str) -> Option<&ActionDef> {
        self.actions.iter().find(|a| a.name == name)
    }

    /// Finds a register by name.
    pub fn register(&self, name: &str) -> Option<&RegisterDef> {
        self.registers.iter().find(|r| r.name == name)
    }

    /// Finds a register action by name.
    pub fn register_action(&self, name: &str) -> Option<&RegisterActionDef> {
        self.register_actions.iter().find(|r| r.name == name)
    }
}

/// Binary operators in P4 expressions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum P4BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
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
    /// `|+|` saturating add
    SatAdd,
    /// `|-|` saturating subtract
    SatSub,
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
    LAnd,
    /// `||`
    LOr,
}

impl P4BinOp {
    /// The P4 spelling.
    pub fn symbol(self) -> &'static str {
        use P4BinOp::*;
        match self {
            Add => "+",
            Sub => "-",
            Mul => "*",
            And => "&",
            Or => "|",
            Xor => "^",
            Shl => "<<",
            Shr => ">>",
            SatAdd => "|+|",
            SatSub => "|-|",
            Eq => "==",
            Ne => "!=",
            Lt => "<",
            Le => "<=",
            Gt => ">",
            Ge => ">=",
            LAnd => "&&",
            LOr => "||",
        }
    }

    /// True for comparison/logical operators (result is `bool`).
    pub fn is_boolean(self) -> bool {
        use P4BinOp::*;
        matches!(self, Eq | Ne | Lt | Le | Gt | Ge | LAnd | LOr)
    }
}

/// P4 expressions.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// `hdr.ncl.K`, `meta.tmp_3`, `hdr.v[2].value` — a dotted path where a
    /// segment may carry a stack index.
    Field(Vec<PathSeg>),
    /// Integer literal with width (`(bit<16>)5` prints as `16w5`).
    Const(u64, u32),
    /// `true`/`false`.
    Bool(bool),
    /// Binary operation.
    Bin(P4BinOp, Box<Expr>, Box<Expr>),
    /// `!e`
    Not(Box<Expr>),
    /// `~e`
    BitNot(Box<Expr>),
    /// `(bit<w>)e`
    Cast(u32, Box<Expr>),
    /// `e[hi:lo]` bit slice.
    Slice(Box<Expr>, u32, u32),
    /// `t.apply().hit` — only inside `if` conditions in our subset.
    TableHit(String),
    /// `!t.apply().hit` (miss).
    TableMiss(String),
}

/// One segment of a field path: a name plus optional stack index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathSeg {
    /// Segment name.
    pub name: Name,
    /// Stack index (`hdr.v[3]`).
    pub index: Option<u32>,
}

impl PathSeg {
    /// Plain segment.
    pub fn new(name: &str) -> PathSeg {
        PathSeg { name: name.into(), index: None }
    }

    /// Indexed segment.
    pub fn indexed(name: &str, index: u32) -> PathSeg {
        PathSeg { name: name.into(), index: Some(index) }
    }
}

/// A name the AST holds many of — a path segment, a local, a register or
/// register action — kept in place when it is at most [`Name::INLINE`]
/// bytes long, as every name the compiler generates is: a field path costs
/// one allocation, its segment list, not one more per segment. Reads, and
/// keys a map, as a `&str`.
#[derive(Clone)]
pub struct Name(Repr);

#[derive(Clone)]
enum Repr {
    /// The first `len` bytes are the name, copied whole from a `str` by
    /// `From<&str>`, the only constructor; the rest are zero.
    Inline {
        len: u8,
        bytes: [u8; Name::INLINE],
    },
    Heap(Box<str>),
}

impl Name {
    /// The longest name held in place.
    pub const INLINE: usize = 22;

    /// The name. Loading a switch and fitting a program read every path's
    /// names many times over, so this does not re-validate UTF-8: checking
    /// here made both ≈ 10–15 % slower.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            // SAFETY: `bytes[..len]` is a whole `str` copied byte for byte
            // (`From<&str>`), and nothing else writes an inline name.
            Repr::Inline { len, bytes } => unsafe {
                std::str::from_utf8_unchecked(&bytes[..*len as usize])
            },
            Repr::Heap(s) => s,
        }
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Name {
        if s.len() > Name::INLINE {
            return Name(Repr::Heap(s.into()));
        }
        let mut bytes = [0; Name::INLINE];
        bytes[..s.len()].copy_from_slice(s.as_bytes());
        Name(Repr::Inline { len: s.len() as u8, bytes })
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        if s.len() <= Name::INLINE {
            Name::from(s.as_str())
        } else {
            Name(Repr::Heap(s.into_boxed_str()))
        }
    }
}

impl std::ops::Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

// Equality, hashing and borrowing are those of the `str`, so a `Name` keys
// a map that is looked up by `&str`.
impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Name {}

impl std::hash::Hash for Name {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl std::borrow::Borrow<str> for Name {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl std::fmt::Display for Name {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::fmt::Debug for Name {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_str(), f)
    }
}

impl Expr {
    /// Builds a field expression from dotted names.
    pub fn field(path: &[&str]) -> Expr {
        Expr::Field(path.iter().map(|s| PathSeg::new(s)).collect())
    }

    /// Width-tagged constant.
    pub fn val(v: u64, bits: u32) -> Expr {
        Expr::Const(v, bits)
    }
}

/// Statements of the apply block and action bodies.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// `lhs = rhs;`
    Assign(Expr, Expr),
    /// `name();` (invoke an action directly).
    CallAction(String),
    /// `table.apply();`
    ApplyTable(String),
    /// `dst = ra.execute(index);`
    ExecuteRegisterAction {
        /// Destination field (None = result discarded).
        dst: Option<Expr>,
        /// RegisterAction name.
        ra: Name,
        /// Register index expression.
        index: Expr,
    },
    /// `dst = hash.get({args});`
    HashGet {
        /// Destination field.
        dst: Expr,
        /// Hash instance name.
        hash: String,
        /// Hashed fields.
        args: Vec<Expr>,
    },
    /// `if (cond) { .. } else { .. }`
    If {
        /// Condition (may be `TableHit`/`TableMiss`).
        cond: Expr,
        /// Then branch.
        then: Vec<Stmt>,
        /// Else branch.
        els: Vec<Stmt>,
    },
    /// `dst = func(args);` — extern function call (`random`, target
    /// intrinsics). `func` uses `<target>_<name>` naming for intrinsics.
    ExternCall {
        /// Destination (None = result discarded).
        dst: Option<Expr>,
        /// Extern function name.
        func: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `hdr.x.setValid();`
    SetValid(Expr),
    /// `hdr.x.setInvalid();`
    SetInvalid(Expr),
    /// `exit;`
    Exit,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_bits() {
        let h = HeaderDef {
            name: "cache_t".into(),
            fields: vec![("Op".into(), 8), ("K".into(), 32), ("V".into(), 32)],
            stack: 1,
        };
        assert_eq!(h.bits(), 72);
    }

    #[test]
    fn control_lookups() {
        let c = ControlDef {
            name: "In".into(),
            registers: vec![RegisterDef { name: "Cnt0".into(), elem_bits: 32, size: 65536 }],
            ..Default::default()
        };
        assert!(c.register("Cnt0").is_some());
        assert!(c.register("nope").is_none());
    }

    #[test]
    fn expr_builders() {
        let e = Expr::field(&["hdr", "ncl", "K"]);
        match &e {
            Expr::Field(segs) => {
                assert_eq!(segs.len(), 3);
                assert_eq!(segs[2].name, "K");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn names_read_back_in_place_and_on_the_heap() {
        let long = "a_name_longer_than_the_inline_buffer";
        let cases = ["", "hdr", "$isValid", "ünïcödé_ñame", &long[..Name::INLINE], long];
        for s in cases.into_iter().chain([&long[..Name::INLINE + 1]]) {
            let n = Name::from(s);
            assert_eq!(n.as_str(), s);
            assert_eq!(n, s);
            assert_eq!(format!("{n}|{n:?}"), format!("{s}|{s:?}"));
        }
        assert_ne!(Name::from("hdr"), Name::from("hd"));
    }

    #[test]
    fn binop_symbols() {
        assert_eq!(P4BinOp::SatAdd.symbol(), "|+|");
        assert!(P4BinOp::Eq.is_boolean());
        assert!(!P4BinOp::Add.is_boolean());
    }
}
