//! P4-16 text rendering.
//!
//! One form for both dialects: `Register`, `RegisterAction` and `Hash`
//! externs, whole. A TNA and a v1model program differ only in the comment
//! line naming the target and the `#include` line, which is what
//! [`crate::parse::parse_program`] reads the dialect from. The output is what `ncc
//! --emit-p4` writes and what the LoC measurements of Table III count.

use crate::ast::*;
use std::fmt::{self, Write};

/// Writes one formatted line at the writer's indent.
macro_rules! ln {
    ($w:expr, $($arg:tt)*) => {{
        let w: &mut Writer = $w;
        w.indent();
        // Writing into a `String` cannot fail.
        let _ = writeln!(w.out, $($arg)*);
    }};
}

/// Prints a full program.
pub fn print_program(p: &P4Program) -> String {
    let mut w = Writer { out: String::with_capacity(4096), indent: 0, device: p.device };
    let target = match p.target {
        Target::Tna => "Intel Tofino (TNA)",
        Target::V1Model => "v1model",
    };
    ln!(&mut w, "// {} — generated for {target}", p.name);
    w.line("#include <core.p4>");
    w.line(match p.target {
        Target::Tna => "#include <tna.p4>",
        Target::V1Model => "#include <v1model.p4>",
    });
    w.blank();
    for h in p.headers.iter() {
        w.header(h);
    }
    w.headers_struct(&p.headers);
    if let Some(parser) = &p.parser {
        w.parser(parser);
    }
    for c in p.controls.iter() {
        w.control(c);
    }
    w.out
}

struct Writer {
    out: String,
    indent: usize,
    /// What [`Expr::Device`] prints as.
    device: u16,
}

impl Writer {
    fn indent(&mut self) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
    }

    fn line(&mut self, s: &str) {
        self.indent();
        self.out.push_str(s);
        self.out.push('\n');
    }

    fn blank(&mut self) {
        self.out.push('\n');
    }

    fn header(&mut self, h: &HeaderDef) {
        ln!(self, "header {} {{", h.name);
        self.indent += 1;
        for (name, bits) in &h.fields {
            ln!(self, "bit<{bits}> {name};");
        }
        self.indent -= 1;
        self.line("}");
        self.blank();
    }

    /// `struct headers_t`: one instance per header type `x_t`, named `x`,
    /// and `x_t[n] x;` for a stack of `n`. A type without the suffix has no
    /// instance, as on the switch.
    fn headers_struct(&mut self, headers: &[HeaderDef]) {
        self.line("struct headers_t {");
        self.indent += 1;
        for h in headers {
            let Some(instance) = h.name.strip_suffix("_t") else { continue };
            match h.stack {
                1 => ln!(self, "{} {instance};", h.name),
                n => ln!(self, "{}[{n}] {instance};", h.name),
            }
        }
        self.indent -= 1;
        self.line("}");
        self.blank();
    }

    fn parser(&mut self, p: &ParserDef) {
        let d = self.device;
        ln!(self, "parser {}(packet_in pkt, out headers_t hdr) {{", p.name);
        self.indent += 1;
        for s in &p.states {
            ln!(self, "state {} {{", s.name);
            self.indent += 1;
            for e in &s.extracts {
                ln!(self, "pkt.extract({e});");
            }
            match &s.transition {
                Transition::Accept => self.line("transition accept;"),
                Transition::Reject => self.line("transition reject;"),
                Transition::Direct(t) => ln!(self, "transition {t};"),
                Transition::Select { selector, cases, default } => {
                    ln!(self, "transition select({}) {{", Show(selector, d));
                    self.indent += 1;
                    for (v, t) in cases {
                        ln!(self, "{v}: {t};");
                    }
                    ln!(self, "default: {default};");
                    self.indent -= 1;
                    self.line("}");
                }
            }
            self.indent -= 1;
            self.line("}");
        }
        self.indent -= 1;
        self.line("}");
        self.blank();
    }

    fn control(&mut self, c: &ControlDef) {
        ln!(self, "control {}(inout headers_t hdr, inout metadata_t meta) {{", c.name);
        self.indent += 1;
        for (name, bits) in &c.locals {
            ln!(self, "bit<{bits}> {name};");
        }
        for r in &c.registers {
            ln!(self, "Register<bit<{}>, bit<32>>({}) {};", r.elem_bits, r.size, r.name);
        }
        for ra in &c.register_actions {
            self.register_action(ra, c);
        }
        for h in &c.hashes {
            let algo = match h.algo {
                netcl_sema::builtins::HashKind::Crc16 => "CRC16",
                netcl_sema::builtins::HashKind::Crc32 => "CRC32",
                netcl_sema::builtins::HashKind::Xor16 => "XOR16",
                netcl_sema::builtins::HashKind::Identity => "IDENTITY",
            };
            ln!(self, "Hash<bit<{}>>(HashAlgorithm_t.{algo}) {};", h.out_bits, h.name);
        }
        for a in &c.actions {
            let params = Join(&a.params, ", ", |(n, b), f| write!(f, "bit<{b}> {n}"));
            ln!(self, "action {}({params}) {{", a.name);
            self.indent += 1;
            for s in &a.body {
                self.stmt(s);
            }
            self.indent -= 1;
            self.line("}");
        }
        for t in &c.tables {
            self.table(t);
        }
        self.line("apply {");
        self.indent += 1;
        for s in &c.apply {
            self.stmt(s);
        }
        self.indent -= 1;
        self.line("}");
        self.indent -= 1;
        self.line("}");
        self.blank();
    }

    fn register_action(&mut self, ra: &RegisterActionDef, c: &ControlDef) {
        let bits = c.register(&ra.register).map(|r| r.elem_bits).unwrap_or(32);
        ln!(
            self,
            "RegisterAction<bit<{bits}>, bit<32>, bit<{bits}>>({}) {} = {{",
            ra.register,
            ra.name
        );
        self.indent += 1;
        ln!(self, "void apply(inout bit<{bits}> m, out bit<{bits}> o) {{");
        self.indent += 1;
        self.salu_body(ra);
        self.indent -= 1;
        self.line("}");
        self.indent -= 1;
        self.line("};");
    }

    /// The output is read before the update (`o = m;` first) or after it
    /// (last); a conditional update sits in `if (cond) { .. }`.
    fn salu_body(&mut self, ra: &RegisterActionDef) {
        use netcl_sema::builtins::AtomicRmw as R;
        let d = self.device;
        if !ra.op.ret_new {
            self.line("o = m;");
        }
        if ra.op.cond {
            ln!(self, "if ({}) {{", OrElse(ra.cond.as_ref(), "true", d));
            self.indent += 1;
        }
        let a = OrElse(ra.operands.first(), "0", d);
        match ra.op.rmw {
            R::Add => ln!(self, "m = m + {a};"),
            R::SAdd => ln!(self, "m = m |+| {a};"),
            R::Sub => ln!(self, "m = m - {a};"),
            R::SSub => ln!(self, "m = m |-| {a};"),
            R::Or => ln!(self, "m = m | {a};"),
            R::And => ln!(self, "m = m & {a};"),
            R::Xor => ln!(self, "m = m ^ {a};"),
            R::Min => ln!(self, "m = min(m, {a});"),
            R::Max => ln!(self, "m = max(m, {a});"),
            R::Inc => self.line("m = m + 1;"),
            R::Dec => self.line("m = m |-| 1;"),
            R::Swap => ln!(self, "m = {a};"),
            R::Cas => ln!(self, "if (m == {a}) {{ m = {}; }}", OrElse(ra.operands.get(1), "0", d)),
            R::Read => {}
        }
        if ra.op.cond {
            self.indent -= 1;
            self.line("}");
        }
        if ra.op.ret_new {
            self.line("o = m;");
        }
    }

    fn table(&mut self, t: &TableDef) {
        let d = self.device;
        ln!(self, "table {} {{", t.name);
        self.indent += 1;
        if !t.keys.is_empty() {
            let keys =
                Join(&t.keys, "; ", |(e, mk), f| write!(f, "{} : {}", Show(e, d), mk.keyword()));
            ln!(self, "key = {{ {keys} }}");
        }
        let actions = Join(&t.actions, "; ", fmt::Display::fmt);
        let no_action = match () {
            _ if t.actions.iter().any(|a| a == "NoAction") => "",
            _ if t.actions.is_empty() => "NoAction",
            _ => "; NoAction",
        };
        ln!(self, "actions = {{ {actions}{no_action}; }}");
        ln!(self, "default_action = {}();", t.default_action);
        if !t.entries.is_empty() {
            self.line("const entries = {");
            self.indent += 1;
            for e in &t.entries {
                let keys = Join(&e.keys, ", ", |k, f| match k {
                    EntryKey::Value(v) => write!(f, "{v}"),
                    EntryKey::Range(lo, hi) => write!(f, "{lo} .. {hi}"),
                });
                let args = Join(&e.args, ", ", fmt::Display::fmt);
                match e.keys.len() {
                    1 => ln!(self, "{keys} : {}({args});", e.action),
                    _ => ln!(self, "({keys}) : {}({args});", e.action),
                }
            }
            self.indent -= 1;
            self.line("}");
        }
        ln!(self, "size = {};", t.size.max(1));
        self.indent -= 1;
        self.line("}");
    }

    fn stmt(&mut self, s: &Stmt) {
        let d = self.device;
        match s {
            Stmt::Assign(lhs, rhs) => ln!(self, "{} = {};", Show(lhs, d), Show(rhs, d)),
            Stmt::CallAction(name) => ln!(self, "{name}();"),
            Stmt::ApplyTable(name) => ln!(self, "{name}.apply();"),
            Stmt::ExecuteRegisterAction { dst: Some(dst), ra, index } => {
                ln!(self, "{} = {ra}.execute({});", Show(dst, d), Show(index, d))
            }
            Stmt::ExecuteRegisterAction { dst: None, ra, index } => {
                ln!(self, "{ra}.execute({});", Show(index, d))
            }
            Stmt::HashGet { dst, hash, args } => {
                let args = Join(args, ", ", |e, f| fmt::Display::fmt(&Show(e, d), f));
                ln!(self, "{} = {hash}.get({{{args}}});", Show(dst, d))
            }
            Stmt::If { cond, then, els } => {
                ln!(self, "if ({}) {{", Show(cond, d));
                self.indent += 1;
                for s in then {
                    self.stmt(s);
                }
                self.indent -= 1;
                if els.is_empty() {
                    self.line("}");
                } else {
                    self.line("} else {");
                    self.indent += 1;
                    for s in els {
                        self.stmt(s);
                    }
                    self.indent -= 1;
                    self.line("}");
                }
            }
            Stmt::ExternCall { dst, func, args } => {
                let args = Join(args, ", ", |e, f| fmt::Display::fmt(&Show(e, d), f));
                match dst {
                    Some(dst) => ln!(self, "{} = {func}({args});", Show(dst, d)),
                    None => ln!(self, "{func}({args});"),
                }
            }
            Stmt::SetValid(e) => ln!(self, "{}.setValid();", Show(e, d)),
            Stmt::SetInvalid(e) => ln!(self, "{}.setInvalid();", Show(e, d)),
            Stmt::Exit => self.line("exit;"),
        }
    }
}

/// `items`, each written by `each`, separated by `sep`.
struct Join<'a, T, F: Fn(&T, &mut fmt::Formatter<'_>) -> fmt::Result>(&'a [T], &'static str, F);

impl<T, F: Fn(&T, &mut fmt::Formatter<'_>) -> fmt::Result> fmt::Display for Join<'_, T, F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, x) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(self.1)?;
            }
            (self.2)(x, f)?;
        }
        Ok(())
    }
}

/// An optional expression of the program at a device, or `default` when it
/// is absent.
struct OrElse<'a>(Option<&'a Expr>, &'static str, u16);

impl fmt::Display for OrElse<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(e) => fmt::Display::fmt(&Show(e, self.2), f),
            None => f.write_str(self.1),
        }
    }
}

/// A path prints its namespace, then its text; the validity pseudo-field
/// prints as the `isValid()` method.
impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.ns() {
            Ns::Hdr => f.write_str("hdr.")?,
            Ns::Meta => f.write_str("meta.")?,
            Ns::Bare => {}
        }
        match self.canonical().strip_suffix("$isValid") {
            Some(head) if self.is_validity() => write!(f, "{head}isValid()"),
            _ => f.write_str(self.canonical()),
        }
    }
}

/// An expression of the program at a device. It prints fully
/// parenthesised, `(a + (b * c))`, and the device leaf as its constant.
struct Show<'a>(&'a Expr, u16);

impl fmt::Display for Show<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Show(e, device) = *self;
        let x = |e| Show(e, device);
        match e {
            Expr::Field(path) => path.fmt(f),
            Expr::Const(v, bits) => write!(f, "{bits}w{v}"),
            Expr::Device => write!(f, "16w{device}"),
            Expr::Bool(b) => write!(f, "{b}"),
            Expr::Bin(op, a, b) => write!(f, "({} {} {})", x(a), op.symbol(), x(b)),
            Expr::Not(e) => write!(f, "!({})", x(e)),
            Expr::BitNot(e) => write!(f, "~({})", x(e)),
            Expr::Cast(bits, e) => write!(f, "(bit<{bits}>)({})", x(e)),
            Expr::Slice(e, hi, lo) => write!(f, "({})[{hi}:{lo}]", x(e)),
            Expr::TableHit(t) => write!(f, "{t}.apply().hit"),
            Expr::TableMiss(t) => write!(f, "!{t}.apply().hit"),
        }
    }
}

/// Counts the non-blank, non-comment lines of rendered P4 — the Table III
/// LoC metric.
pub fn loc(text: &str) -> usize {
    text.lines()
        .map(str::trim)
        .filter(|l| {
            !l.is_empty() && !l.starts_with("//") && !l.starts_with("/*") && !l.starts_with('*')
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcl_sema::builtins::{AtomicOp, AtomicRmw, HashKind};
    use std::sync::Arc;

    fn sample_control() -> ControlDef {
        ControlDef {
            name: "Cache".into(),
            locals: vec![("tmp0".into(), 32)],
            registers: vec![RegisterDef { name: "Cnt0".into(), elem_bits: 32, size: 65536 }],
            register_actions: vec![RegisterActionDef {
                name: "Incr0".into(),
                register: "Cnt0".into(),
                op: AtomicOp { rmw: AtomicRmw::SAdd, cond: false, ret_new: true },
                cond: None,
                operands: vec![Expr::val(1, 32)],
            }],
            hashes: vec![HashDef { name: "Hash0".into(), algo: HashKind::Crc16, out_bits: 16 }],
            actions: vec![ActionDef {
                name: "CacheHit".into(),
                params: vec![("v".into(), 32)],
                body: vec![Stmt::Assign(Expr::field(&["hdr", "cache", "V"]), Expr::field(&["v"]))],
            }],
            tables: vec![TableDef {
                name: "cache".into(),
                keys: vec![(Expr::field(&["hdr", "cache", "K"]), MatchKind::Exact)],
                actions: vec!["CacheHit".into()],
                entries: vec![TableEntry {
                    keys: vec![EntryKey::Value(1)],
                    action: "CacheHit".into(),
                    args: vec![42],
                }],
                default_action: "NoAction".into(),
                size: 4,
            }],
            apply: vec![Stmt::If {
                cond: Expr::TableMiss("cache".into()),
                then: vec![Stmt::ExecuteRegisterAction {
                    dst: Some(Expr::field(&["meta", "tmp0"])),
                    ra: "Incr0".into(),
                    index: Expr::field(&["meta", "h0"]),
                }],
                els: vec![],
            }],
        }
    }

    #[test]
    fn prints_tna_dialect() {
        let p = P4Program {
            name: "cache".into(),
            target: Target::Tna,
            device: 0,
            headers: vec![HeaderDef {
                name: "cache_t".into(),
                fields: vec![("Op".into(), 8), ("K".into(), 32)],
                stack: 1,
            }]
            .into(),
            parser: None,
            controls: vec![sample_control()].into(),
        };
        let text = print_program(&p);
        assert!(text.contains("#include <tna.p4>"));
        assert!(text.contains("header cache_t {"));
        assert!(text.contains("}\n\nstruct headers_t {\n    cache_t cache;\n}\n\n"));
        assert!(text.contains("Register<bit<32>, bit<32>>(65536) Cnt0;"));
        assert!(text.contains("RegisterAction<bit<32>, bit<32>, bit<32>>(Cnt0) Incr0 = {"));
        assert!(text.contains("m = m |+| 32w1;"));
        assert!(text.contains("Hash<bit<16>>(HashAlgorithm_t.CRC16) Hash0;"));
        assert!(text.contains("key = { hdr.cache.K : exact }"));
        assert!(text.contains("1 : CacheHit(42);"));
        assert!(text.contains("if (!cache.apply().hit) {"));
        assert!(text.contains("meta.tmp0 = Incr0.execute(meta.h0);"));
    }

    /// v1model prints the same externs, whole; only the comment naming the
    /// target and the `#include` line differ.
    #[test]
    fn the_dialects_differ_only_in_the_comment_and_include_lines() {
        let p = |target| P4Program {
            name: "cache".into(),
            target,
            controls: vec![sample_control()].into(),
            ..Default::default()
        };
        let (tna, v1) = (print_program(&p(Target::Tna)), print_program(&p(Target::V1Model)));
        let differ: Vec<_> = tna.lines().zip(v1.lines()).filter(|(a, b)| a != b).collect();
        assert_eq!(
            differ,
            [
                ("// cache — generated for Intel Tofino (TNA)", "// cache — generated for v1model"),
                ("#include <tna.p4>", "#include <v1model.p4>"),
            ]
        );
        assert_eq!(tna.lines().count(), v1.lines().count());
    }

    #[test]
    fn salu_bodies_cover_variants() {
        let mk = |cond: bool, ret_new: bool| RegisterActionDef {
            name: "ra".into(),
            register: "R".into(),
            op: AtomicOp { rmw: AtomicRmw::Add, cond, ret_new },
            cond: if cond { Some(Expr::field(&["meta", "c"])) } else { None },
            operands: vec![Expr::field(&["meta", "v"])],
        };
        let ctrl = ControlDef {
            name: "C".into(),
            registers: vec![RegisterDef { name: "R".into(), elem_bits: 8, size: 4 }],
            register_actions: vec![mk(false, false), mk(true, true), mk(true, false)],
            ..Default::default()
        };
        let p = P4Program {
            name: "t".into(),
            target: Target::Tna,
            controls: vec![ctrl].into(),
            ..Default::default()
        };
        let text = print_program(&p);
        // old-returning: output first, then modify.
        let i_old = text.find("o = m;\n            m = m + meta.v;").unwrap_or(usize::MAX);
        assert_ne!(i_old, usize::MAX, "{text}");
        // conditional new-returning: guard then output.
        assert!(text.contains("if (meta.c) {"));
    }

    /// Shapes no shipped program prints: a range entry, a multi-key entry
    /// and a `select` with cases and a default. The text reads back to
    /// itself.
    #[test]
    fn prints_range_and_multi_key_entries_and_a_select_default() {
        let entry =
            |keys: Vec<EntryKey>, args: Vec<u64>| TableEntry { keys, action: "set".into(), args };
        let table = TableDef {
            name: "t".into(),
            keys: vec![
                (Expr::field(&["hdr", "h", "a"]), MatchKind::Range),
                (Expr::field(&["hdr", "h", "b"]), MatchKind::Exact),
            ],
            actions: vec!["set".into()],
            entries: vec![
                entry(vec![EntryKey::Range(1, 5)], vec![9]),
                entry(vec![EntryKey::Value(7), EntryKey::Range(2, 3)], vec![]),
            ],
            default_action: "NoAction".into(),
            size: 0,
        };
        let transition = Transition::Select {
            selector: Expr::field(&["hdr", "h", "a"]),
            cases: vec![(1, "next".into()), (0x800, "accept".into())],
            default: "reject".into(),
        };
        let p = P4Program {
            name: "shapes".into(),
            target: Target::Tna,
            parser: Some(Arc::new(ParserDef {
                name: "P".into(),
                states: vec![ParserState {
                    name: "start".into(),
                    extracts: vec!["hdr.h".into()],
                    transition,
                }],
            })),
            controls: vec![ControlDef {
                name: "C".into(),
                tables: vec![table],
                ..Default::default()
            }]
            .into(),
            ..Default::default()
        };
        let text = print_program(&p);
        for line in [
            "        transition select(hdr.h.a) {\n            1: next;\n            2048: accept;\n            default: reject;\n        }\n",
            "        key = { hdr.h.a : range; hdr.h.b : exact }\n",
            "        actions = { set; NoAction; }\n",
            "            1 .. 5 : set(9);\n            (7, 2 .. 3) : set();\n",
            "        size = 1;\n",
        ] {
            assert!(text.contains(line), "{line:?} in\n{text}");
        }
        let reparsed = crate::parse::parse_program(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        let body = |t: &str| t.split_once('\n').map(|(_, b)| b.to_string());
        assert_eq!(body(&print_program(&reparsed)), body(&text));
    }

    #[test]
    fn loc_counts_code_lines_only() {
        let text = "// comment\n\ncontrol C() {\n    apply { }\n}\n";
        assert_eq!(loc(text), 3);
    }

    #[test]
    fn expr_printing() {
        let show = |e: &Expr| Show(e, 7).to_string();
        let e =
            Expr::Bin(P4BinOp::SatAdd, Box::new(Expr::field(&["m"])), Box::new(Expr::val(1, 32)));
        assert_eq!(show(&e), "(m |+| 32w1)");
        let s = Expr::Slice(Box::new(Expr::field(&["meta", "x"])), 15, 8);
        assert_eq!(show(&s), "(meta.x)[15:8]");
        assert_eq!(show(&Expr::field(&["hdr", "v[3]", "value"])), "hdr.v[3].value");
        assert_eq!(show(&Expr::field(&["hdr", "ncl", "$isValid"])), "hdr.ncl.isValid()");
        let guard = "(hdr.ncl.isValid() && (hdr.ncl.to == 16w7))";
        assert_eq!(show(&Expr::device_guard()), guard);
    }
}
