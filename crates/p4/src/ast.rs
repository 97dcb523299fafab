//! Typed P4-16 subset AST.

use netcl_sema::builtins::{AtomicOp, HashKind};
use std::sync::{Arc, Weak};

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
/// Everything but the name, dialect and device is shared: cloning a program
/// copies its name and bumps three counts. Edit a part through
/// `Arc::make_mut`, which copies only if shared.
#[derive(Clone, Debug, Default)]
pub struct P4Program {
    /// Program name (used in comments and reports).
    pub name: String,
    /// Dialect.
    pub target: Target,
    /// The device the program is placed at: the value of every
    /// [`Expr::Device`] leaf, so one set of parts serves every device a
    /// program runs on.
    pub device: u16,
    /// Header type definitions.
    pub headers: Arc<Vec<HeaderDef>>,
    /// Parser (single ingress parser in our subset).
    pub parser: Option<Arc<ParserDef>>,
    /// Controls (ingress control carries the NetCL runtime + kernels).
    pub controls: Arc<Vec<ControlDef>>,
}

impl P4Program {
    /// Finds a control by name.
    pub fn control(&self, name: &str) -> Option<&ControlDef> {
        self.controls.iter().find(|c| c.name == name)
    }
}

/// The addresses of a program's `headers`, `parser` (0 for none) and
/// `controls` allocations: [`Parts::key`].
pub type PartsKey = [usize; 3];

/// A hold on a program's three shared parts: all of a program but its
/// name, dialect and device. Two programs whose parts are the same
/// allocations are one program to whatever reads only the parts: bmv2
/// lowers them once (its table of loaded programs is keyed by
/// [`Parts::key`]) and the Tofino fit memo fits them once. Equal parts in
/// distinct allocations are not the same parts.
pub struct Parts {
    headers: Arc<Vec<HeaderDef>>,
    parser: Option<Arc<ParserDef>>,
    controls: Arc<Vec<ControlDef>>,
}

impl Parts {
    /// `p`'s parts, held.
    pub fn of(p: &P4Program) -> Parts {
        Parts {
            headers: Arc::clone(&p.headers),
            parser: p.parser.clone(),
            controls: Arc::clone(&p.controls),
        }
    }

    /// The addresses of `p`'s parts. While something holds those parts,
    /// no other allocation has their addresses, so an equal key names them
    /// — confirm a key found in a table with [`Parts::are`].
    pub fn key(p: &P4Program) -> PartsKey {
        let parser = p.parser.as_ref().map_or(0, |a| Arc::as_ptr(a) as usize);
        [Arc::as_ptr(&p.headers) as usize, parser, Arc::as_ptr(&p.controls) as usize]
    }

    /// Whether `p`'s parts are these allocations.
    pub fn are(&self, p: &P4Program) -> bool {
        let parser = |x: &Option<Arc<ParserDef>>| x.as_ref().map(Arc::as_ptr);
        Arc::ptr_eq(&self.headers, &p.headers)
            && parser(&self.parser) == parser(&p.parser)
            && Arc::ptr_eq(&self.controls, &p.controls)
    }
}

/// A program's parts held weakly: they stay the same allocations, but
/// nothing is kept alive. While a `WeakParts` lives, `Arc::get_mut` on a
/// part fails and `Arc::make_mut` moves its value to a new allocation, so
/// the parts cannot change in place under it: an upgrade either yields the
/// parts as they were taken or fails.
pub struct WeakParts {
    headers: Weak<Vec<HeaderDef>>,
    parser: Option<Weak<ParserDef>>,
    controls: Weak<Vec<ControlDef>>,
}

impl WeakParts {
    /// `p`'s parts, held weakly.
    pub fn of(p: &P4Program) -> WeakParts {
        WeakParts {
            headers: Arc::downgrade(&p.headers),
            parser: p.parser.as_ref().map(Arc::downgrade),
            controls: Arc::downgrade(&p.controls),
        }
    }

    /// The parts, if every one of them is still alive.
    pub fn upgrade(&self) -> Option<Parts> {
        let parser = match &self.parser {
            Some(w) => Some(w.upgrade()?),
            None => None,
        };
        Some(Parts { headers: self.headers.upgrade()?, parser, controls: self.controls.upgrade()? })
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
    pub(crate) fn keyword(self) -> &'static str {
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
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
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
    pub(crate) fn symbol(self) -> &'static str {
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
}

/// P4 expressions.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Expr {
    /// `hdr.ncl.K`, `meta.tmp_3`, `hdr.v[2].value` — a field path.
    Field(Path),
    /// Integer literal with width (`(bit<16>)5` prints as `16w5`).
    Const(u64, u32),
    /// The program's [`P4Program::device`], a 16-bit constant (`16w<id>`):
    /// the right-hand side of the kernel guard [`Expr::device_guard`].
    Device,
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

// A path is held in place, so an expression node is no larger than its
// widest boxed form.
const _: () = assert!(std::mem::size_of::<Expr>() == 32);

/// Text of at most `N` bytes held in place: the first `len` bytes are whole
/// `str`s appended by [`Inline::push`], the only writer; the rest are zero.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Inline<const N: usize> {
    len: u8,
    bytes: [u8; N],
}

impl<const N: usize> Inline<N> {
    const EMPTY: Self = Inline { len: 0, bytes: [0; N] };

    /// Appends `s` if the result fits.
    fn push(&mut self, s: &str) -> bool {
        let (start, end) = (self.len as usize, self.len as usize + s.len());
        if end > N {
            return false;
        }
        self.bytes[start..end].copy_from_slice(s.as_bytes());
        self.len = end as u8;
        true
    }

    /// The text. Loading a switch and fitting a program read every path and
    /// name many times over, so this does not re-validate UTF-8: checking
    /// here made both ≈ 10–15 % slower.
    fn as_str(&self) -> &str {
        // SAFETY: `bytes[..len]` is whole `str`s copied byte for byte by
        // `push`, and nothing else writes them.
        unsafe { std::str::from_utf8_unchecked(&self.bytes[..self.len as usize]) }
    }
}

/// The namespace a field path starts in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Ns {
    /// `hdr.…`: a header instance or field.
    Hdr,
    /// `meta.…`: a control local.
    Meta,
    /// No prefix: an action parameter or a SALU's `m` / `o`, read from the
    /// metadata namespace first.
    Bare,
}

/// A field path: its namespace, then the text after it — segments joined
/// by `.`, a stack index as `[i]` after its segment, and a validity test as
/// a last segment `$isValid` (`hdr.ncl.$isValid` prints as
/// `hdr.ncl.isValid()`). That text is held in place when it is at most
/// [`Path::INLINE`] bytes long, as every path the compiler and the fleet
/// make is (the longest text is 19 bytes), so a path allocates nothing; a
/// longer one spills to one heap block, so equal paths have equal
/// representations.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Path(PathRepr);

#[derive(Clone, PartialEq, Eq, Hash)]
enum PathRepr {
    Inline(Ns, Inline<{ Path::INLINE }>),
    Heap(Ns, Box<str>),
}

impl Path {
    /// The longest text held in place.
    pub const INLINE: usize = 30;

    /// The empty path in `ns`.
    pub fn new(ns: Ns) -> Path {
        Path(PathRepr::Inline(ns, Inline::EMPTY))
    }

    /// The namespace.
    pub fn ns(&self) -> Ns {
        match self.0 {
            PathRepr::Inline(ns, _) | PathRepr::Heap(ns, _) => ns,
        }
    }

    /// The text after the namespace (`ncl.K`, `v[2].value`): what a switch
    /// keys the field's slot by, within the namespace.
    pub fn canonical(&self) -> &str {
        match &self.0 {
            PathRepr::Inline(_, text) => text.as_str(),
            PathRepr::Heap(_, text) => text,
        }
    }

    /// The header instance the path is in: its first segment's name (`ncl`
    /// of `hdr.ncl.K`, `v` of `hdr.v[2].value`), `meta` for a metadata
    /// path, empty when there is none.
    pub fn instance(&self) -> &str {
        let first = self.canonical().split(['.', '[']).next().unwrap_or("");
        match self.ns() {
            Ns::Meta => "meta",
            _ if first.starts_with('$') => "",
            _ => first,
        }
    }

    /// The name a bare, one-segment path is (an action called as a
    /// statement, a SALU's `m` or `o`).
    pub(crate) fn name(&self) -> Option<&str> {
        let text = self.canonical();
        (self.ns() == Ns::Bare && !text.contains(['.', '['])).then_some(text)
    }

    /// Whether this is a validity test, `….$isValid`.
    pub fn is_validity(&self) -> bool {
        self.canonical().rsplit('.').next() == Some("$isValid")
    }

    /// Appends segment `name`.
    pub(crate) fn push(&mut self, name: &str) {
        if !self.canonical().is_empty() {
            self.append(".");
        }
        self.append(name);
    }

    /// Appends a constant stack index `[i]`, its digits written by hand:
    /// the parser appends one per stack access, and `core::fmt` would cost
    /// more than the append.
    pub(crate) fn push_index(&mut self, i: u32) {
        // `[`, at most ten digits, `]`: filled from the back.
        let mut buf = [b']'; 12];
        let (mut at, mut v) = (buf.len() - 1, i);
        loop {
            at -= 1;
            buf[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        at -= 1;
        buf[at] = b'[';
        if let Ok(text) = std::str::from_utf8(&buf[at..]) {
            self.append(text);
        }
    }

    /// Appends raw text, spilling to the heap past [`Path::INLINE`] bytes.
    fn append(&mut self, s: &str) {
        let spilled = match &mut self.0 {
            PathRepr::Inline(_, text) => match text.push(s) {
                true => return,
                false => [text.as_str(), s].concat(),
            },
            PathRepr::Heap(_, text) => [&**text, s].concat(),
        };
        self.0 = PathRepr::Heap(self.ns(), spilled.into_boxed_str());
    }
}

/// Appends raw text, such as a generated stack access `v[2].value`.
impl std::fmt::Write for Path {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.append(s);
        Ok(())
    }
}

impl std::fmt::Debug for Path {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Path").field(&self.ns()).field(&self.canonical()).finish()
    }
}

/// A name the AST holds many of — a local, a register or register action —
/// kept in place when it is at most [`Name::INLINE`] bytes long, as every
/// name the compiler generates is. Reads, and keys a map, as a `&str`.
#[derive(Clone)]
pub struct Name(Repr);

#[derive(Clone)]
enum Repr {
    Inline(Inline<{ Name::INLINE }>),
    Heap(Box<str>),
}

impl Name {
    /// The longest name held in place.
    pub const INLINE: usize = 22;

    /// The name.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline(text) => text.as_str(),
            Repr::Heap(s) => s,
        }
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Name {
        let mut text = Inline::EMPTY;
        Name(if text.push(s) { Repr::Inline(text) } else { Repr::Heap(s.into()) })
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        Name::from(s.as_str())
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
    /// The field `names` spell; a first name `hdr` or `meta` is its
    /// namespace, and a name may carry its `[i]`.
    pub fn field(names: &[&str]) -> Expr {
        let (ns, rest) = match names {
            ["hdr", rest @ ..] => (Ns::Hdr, rest),
            ["meta", rest @ ..] => (Ns::Meta, rest),
            _ => (Ns::Bare, names),
        };
        let mut path = Path::new(ns);
        for name in rest {
            path.push(name);
        }
        Expr::Field(path)
    }

    /// Width-tagged constant.
    pub fn val(v: u64, bits: u32) -> Expr {
        Expr::Const(v, bits)
    }

    /// `hdr.ncl.isValid() && hdr.ncl.to == <device>`: the condition a NetCL
    /// program's kernels run under (the no-implicit-computation rule, §IV).
    /// The first statement of a program's first `apply` is an `if` on it.
    pub fn device_guard() -> Expr {
        let valid = Expr::field(&["hdr", "ncl", "$isValid"]);
        let to = Expr::field(&["hdr", "ncl", "to"]);
        let here = Expr::Bin(P4BinOp::Eq, Box::new(to), Box::new(Expr::Device));
        Expr::Bin(P4BinOp::LAnd, Box::new(valid), Box::new(here))
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
    fn paths_hold_their_text_in_place_and_on_the_heap() {
        use std::fmt::Write;
        let Expr::Field(mut p) = Expr::field(&["hdr", "arr_c1_a4"]) else { panic!() };
        write!(p, "[3]").unwrap();
        p.push("value");
        assert_eq!(
            (p.ns(), p.canonical(), p.instance()),
            (Ns::Hdr, "arr_c1_a4[3].value", "arr_c1_a4")
        );
        assert!(matches!(p.0, PathRepr::Inline(..)));
        p.push("past_the_inline_limit");
        assert!(matches!(p.0, PathRepr::Heap(..)));
        let names = ["hdr", "arr_c1_a4[3]", "value", "past_the_inline_limit"];
        assert_eq!(Expr::Field(p), Expr::field(&names));
    }

    #[test]
    fn a_stack_index_appends_as_formatted() {
        use std::fmt::Write;
        for i in [0, 7, 10, 42, 999, 1_000_000, u32::MAX] {
            let (mut by_hand, mut formatted) = (Path::new(Ns::Hdr), Path::new(Ns::Hdr));
            by_hand.push("v");
            by_hand.push_index(i);
            write!(formatted, "v[{i}]").unwrap();
            assert_eq!(by_hand.canonical(), formatted.canonical());
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
    }
}
