//! Incremental recompilation cache (DESIGN.md §16).
//!
//! `ncc` compiles workloads of many translation units; editing one kernel
//! should not pay the pass pipeline and codegen for the other 999. A
//! [`CompileCache`] keeps two maps and serves from three tiers:
//!
//! * **units** — keyed by unit name. Each name holds its revisions: the
//!   options fingerprint and the source text each was compiled from, and
//!   the [`CompiledUnit`] behind an `Arc`. A lookup walks that name's
//!   revisions newest first and compares the fingerprint, then the text;
//!   nothing hashes the source. A hit returns the cache's `Arc` without
//!   touching the frontend. Every revision stays servable: A → B → A hits
//!   A's entry.
//! * **the token tier** — below the text match, no map of its own. After a
//!   text miss the new source is preprocessed once; the newest revision of
//!   the name under the same options is preprocessed again from the source
//!   its entry holds, and the two are compared line by line, the
//!   whitespace the lexer skips trimmed from line ends and trailing blank
//!   lines ignored. Equal means every token at the same line and column,
//!   so every phase would build what it built for the revision, and the
//!   revision's unit is served: a unit miss (`unit_hit` false) with every
//!   device reused, counted in [`CacheStats::expansion_hits`], and the new
//!   text stored as a revision sharing the revision's `Arc`. Its public
//!   fields equal a cold compile's except `timings` and `reuse`; the
//!   model's crate-private declaration spans are byte offsets read only
//!   during analysis, and keep the revision's values. A revision with
//!   warnings is refused (their rendered excerpts show the line, where a
//!   comment may have changed), as is a new text whose preprocessing
//!   reported anything. Nothing preprocessed is stored; otherwise the
//!   frontend continues from the text the probe preprocessed.
//! * **programs** — keyed by the *program key*: a 64-bit hash over
//!   (options fingerprint, the lowered module), taken structurally through
//!   the IR's derived `Hash`. A hit skips the §VI-B pass pipeline and P4
//!   codegen. A lowered module does not name its device, so neither does
//!   the key: a program built at one device serves an equal module at any
//!   other, re-placed by `codegen::place` the way the driver places a
//!   unit's devices from one another (DESIGN.md §4). Editing one kernel of
//!   a multi-device unit re-runs the backend only for the devices whose
//!   lowered modules the edit changed.
//!
//! **One copy of each artifact.** The heavy parts of a result — the two
//! IR modules and two P4 programs of a [`CompiledDevice`], and the unit's
//! `Model` — are immutable behind `Arc`. The program table, the unit map
//! and every unit handed to a caller point at the same allocations. A unit
//! entry is stored as a hit serves it — `reuse` filled in, reports
//! `from_cache` — and is itself shared: a unit hit is one text compare and
//! one reference count, with no allocation, however large the unit
//! (`tests/cache_alloc.rs` is the gate). Nothing a caller does to a served
//! unit (`Arc::make_mut`, pushing devices) reaches the cache's copy.
//!
//! **Which matches are exact.** A unit match compares the text, and the
//! token tier the preprocessed text, so both are exact. Program entries
//! stay hash-addressed: keeping the module to compare would cost about one
//! more module per entry, a module is compiler output rather than
//! arbitrary input, and the table is probed only after a unit miss; at 10⁶
//! entries the birthday bound on a 64-bit key is below 3 × 10⁻⁸. Within a unit no key decides anything: devices placed alike
//! share one lowering (DESIGN.md §4), so placement there is exact.
//!
//! A mutated source simply misses and recompiles; nothing is ever
//! invalidated in place. Served artifacts are marked by
//! [`CompiledUnit::reuse`] and by `from_cache` on any embedded
//! `PassReport`s, so telemetry consumers can tell a replayed report from a
//! live pipeline run. `tests/incremental.rs` counts [`CacheStats`] across a
//! one-unit edit of a 34-unit workload to prove there is no silent cache
//! miss.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use netcl_ir::Module;
use netcl_lang::Preprocessed;
use netcl_passes::PassFlags;

use crate::compiler::{CompileOptions, CompiledDevice, CompiledUnit};

/// How much of a [`CompiledUnit`] was not built afresh.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReuseStats {
    /// The whole unit was a cache hit on its exact text (frontend, sema,
    /// lowering, passes and codegen all skipped). A unit the token tier
    /// served — an edit that moved no token — is not a hit: it reads
    /// `false`, with `devices_reused == devices_total`.
    pub unit_hit: bool,
    /// Devices this unit compiled for.
    pub devices_total: usize,
    /// Devices that did not run the pass pipeline and codegen: placed from
    /// an earlier device of the unit placed alike, or from the program the
    /// cache holds for an equal lowered module (equals `devices_total` on a
    /// unit hit).
    pub devices_reused: usize,
}

/// Hit/miss counters for a [`CompileCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Whole-unit lookups that hit.
    pub unit_hits: u64,
    /// Whole-unit lookups that missed, served by the token tier or not.
    pub unit_misses: u64,
    /// Unit misses served whole by the token tier: the edited text
    /// preprocesses to the newest revision's tokens at the same lines and
    /// columns, so no phase ran (see [`CompileCache`]).
    pub expansion_hits: u64,
    /// Program lookups that hit: at most one per group of a unit's devices
    /// placed alike, made for the first of them.
    pub device_hits: u64,
    /// Program lookups that missed.
    pub(crate) device_misses: u64,
}

/// The unit map and the program table behind
/// `Compiler::compile_incremental`.
#[derive(Debug, Default)]
pub struct CompileCache {
    units: HashMap<String, Vec<UnitEntry>>,
    programs: HashMap<u64, CompiledDevice>,
    stats: CacheStats,
}

/// One revision of a named unit: what it was compiled under and from,
/// which a lookup compares before serving it.
#[derive(Debug)]
struct UnitEntry {
    fingerprint: u64,
    source: String,
    unit: Arc<CompiledUnit>,
}

impl CompileCache {
    /// An empty cache.
    pub fn new() -> CompileCache {
        CompileCache::default()
    }

    /// Hit/miss counters accumulated since construction.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Whole-unit lookup; counts the hit or miss. The revisions of `name`
    /// are walked newest first, and only one compiled under `fingerprint`
    /// from exactly `source` is served.
    pub(crate) fn unit(
        &mut self,
        fingerprint: u64,
        name: &str,
        source: &str,
    ) -> Option<Arc<CompiledUnit>> {
        let revisions = self.units.get(name).into_iter().flatten().rev();
        let hit = revisions.filter(|e| e.fingerprint == fingerprint).find(|e| e.source == source);
        let hit = hit.map(|e| Arc::clone(&e.unit));
        match hit {
            Some(_) => self.stats.unit_hits += 1,
            None => self.stats.unit_misses += 1,
        }
        hit
    }

    /// The token tier, probed after a text miss with `pre`, the new
    /// source preprocessed. The newest revision of `name` compiled under
    /// `fingerprint` is served when it has no warnings, `pre` has no
    /// diagnostics, and its own source, preprocessed again, places every
    /// token where `pre` does. `source` then becomes a revision sharing
    /// that revision's unit, and the caller gets a copy of the unit marked
    /// as a miss with every device reused.
    pub(crate) fn same_tokens(
        &mut self,
        fingerprint: u64,
        name: &str,
        source: &str,
        pre: &Preprocessed,
    ) -> Option<Arc<CompiledUnit>> {
        if !pre.diags.diagnostics().is_empty() {
            return None;
        }
        let revisions = self.units.get_mut(name)?;
        let newest = revisions.iter().rev().find(|e| e.fingerprint == fingerprint)?;
        if !newest.unit.warnings.is_empty()
            || !netcl_lang::preprocess(&newest.source).places_tokens_as(pre)
        {
            return None;
        }
        let unit = Arc::clone(&newest.unit);
        let served =
            CompiledUnit { reuse: ReuseStats { unit_hit: false, ..unit.reuse }, ..(*unit).clone() };
        revisions.push(UnitEntry { fingerprint, source: source.into(), unit });
        self.stats.expansion_hits += 1;
        Some(Arc::new(served))
    }

    /// Keeps `unit` as the newest revision of `name`, as a hit will serve
    /// it: everything reused, reports marked (see
    /// [`CompileCache::put_program`]).
    pub(crate) fn put_unit(
        &mut self,
        fingerprint: u64,
        name: &str,
        source: &str,
        mut unit: CompiledUnit,
    ) {
        unit.reuse =
            ReuseStats { unit_hit: true, devices_reused: unit.reuse.devices_total, ..unit.reuse };
        unit.devices.iter_mut().for_each(mark_served);
        let entry = UnitEntry { fingerprint, source: source.into(), unit: Arc::new(unit) };
        match self.units.get_mut(name) {
            Some(revisions) => revisions.push(entry),
            None => {
                self.units.insert(name.into(), vec![entry]);
            }
        }
    }

    /// The program under a [`program_key`], built at whichever device
    /// first had its module; counts the hit or miss.
    pub(crate) fn program(&mut self, key: u64) -> Option<&CompiledDevice> {
        let hit = self.programs.get(&key);
        match hit {
            Some(_) => self.stats.device_hits += 1,
            None => self.stats.device_misses += 1,
        }
        hit
    }

    pub(crate) fn put_program(&mut self, key: u64, mut device: CompiledDevice) {
        mark_served(&mut device);
        self.programs.insert(key, device);
    }
}

/// Flags every embedded pass report as cache-served so telemetry
/// consumers don't mistake a replayed report for a live pipeline run.
pub(crate) fn mark_served(d: &mut CompiledDevice) {
    for r in [&mut d.tna_pass_report, &mut d.v1_pass_report].into_iter().flatten() {
        r.from_cache = true;
    }
}

/// The program table's 64-bit key hash, written out so the cache has no
/// hasher dependency and keys are stable across runs (`tests/incremental.rs`
/// and `netcl_e2e`'s `compile_edit` gate hold reuse counts to exact
/// expectations). One step — xor, multiply, fold the high half down — per
/// integer and per eight bytes of a byte string.
struct KeyHasher(u64);

impl KeyHasher {
    fn new() -> KeyHasher {
        KeyHasher(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 ^= self.0 >> 32;
    }
}

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    /// Hashes `bytes` and then their length, so that consecutive writes
    /// cannot run into each other.
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().expect("chunks of eight")));
        }
        let mut tail = [0u8; 8];
        tail[..words.remainder().len()].copy_from_slice(words.remainder());
        self.mix(u64::from_le_bytes(tail));
        self.mix(bytes.len() as u64);
    }

    fn write_u8(&mut self, v: u8) {
        self.mix(v.into())
    }

    fn write_u16(&mut self, v: u16) {
        self.mix(v.into())
    }

    fn write_u32(&mut self, v: u32) {
        self.mix(v.into())
    }

    fn write_u64(&mut self, v: u64) {
        self.mix(v)
    }

    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64)
    }
}

fn key(parts: impl Hash) -> u64 {
    let mut h = KeyHasher::new();
    parts.hash(&mut h);
    h.finish()
}

/// Hashes every [`CompileOptions`] field: each can change the artifacts.
/// Two compilers with equal fingerprints produce byte-identical output for
/// equal input, so fingerprints partition both the unit revisions and the
/// program keys.
pub(crate) fn options_fingerprint(options: &CompileOptions) -> u64 {
    let CompileOptions { target, flags, devices, pass_report } = options;
    let PassFlags { speculation, duplicate_lookup, icmp_to_sub_msb } = flags;
    key((target, speculation, duplicate_lookup, icmp_to_sub_msb, pass_report, devices))
}

/// Program key: options fingerprint + every field of the lowered module —
/// its name, its globals with their lookup entries, its kernels down to
/// each value's type. The pass pipeline and codegen are pure
/// functions of these, and what they build differs between devices only
/// in what `codegen::place` writes, so equal keys mean one program.
pub(crate) fn program_key(fingerprint: u64, module: &Module) -> u64 {
    key((fingerprint, module))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{self, frontend, tests::FIG4_CACHE, Compiler, EmitTarget};
    use netcl_ir::{BlockId, Operand};
    use netcl_sema::model::LookupEntry;
    use std::sync::Arc;

    #[test]
    fn unit_hit_serves_identical_artifacts() {
        let cc = Compiler::new(CompileOptions::default());
        let mut cache = CompileCache::new();
        let cold = cc.compile_incremental("fig4.ncl", FIG4_CACHE, &mut cache).unwrap();
        assert!(!cold.reuse.unit_hit);
        assert_eq!(cold.reuse.devices_reused, 0);

        let warm = cc.compile_incremental("fig4.ncl", FIG4_CACHE, &mut cache).unwrap();
        assert!(warm.reuse.unit_hit);
        assert_eq!(warm.reuse.devices_reused, warm.reuse.devices_total);
        // Byte-identical output: the serve path never re-runs a pass.
        assert_eq!(
            netcl_p4::print::print_program(&cold.devices[0].tna_p4),
            netcl_p4::print::print_program(&warm.devices[0].tna_p4),
        );
        assert_eq!(
            netcl_ir::print::print_module(&cold.devices[0].tna_ir),
            netcl_ir::print::print_module(&warm.devices[0].tna_ir),
        );
        let st = cache.stats();
        assert_eq!((st.unit_hits, st.unit_misses), (1, 1));
    }

    /// The four shared artifacts of a device, as raw pointers: equal
    /// pointers mean one allocation.
    fn artifacts(d: &CompiledDevice) -> [*const (); 4] {
        [
            Arc::as_ptr(&d.tna_ir).cast(),
            Arc::as_ptr(&d.v1_ir).cast(),
            Arc::as_ptr(&d.tna_p4).cast(),
            Arc::as_ptr(&d.v1_p4).cast(),
        ]
    }

    #[test]
    fn serves_share_one_copy_of_each_artifact() {
        let cc = Compiler::new(CompileOptions::default());
        let mut cache = CompileCache::new();
        let cold = cc.compile_incremental("fig4.ncl", FIG4_CACHE, &mut cache).unwrap();
        // The unit entry and the program entry point at the cold compile's
        // own allocations.
        let in_units = &cache.units["fig4.ncl"][0].unit;
        let in_programs = cache.programs.values().next().unwrap();
        assert_eq!(artifacts(&in_units.devices[0]), artifacts(&cold.devices[0]));
        assert_eq!(artifacts(in_programs), artifacts(&cold.devices[0]));
        assert!(Arc::ptr_eq(&in_units.model, &cold.model));

        let a = cc.compile_incremental("fig4.ncl", FIG4_CACHE, &mut cache).unwrap();
        let b = cc.compile_incremental("fig4.ncl", FIG4_CACHE, &mut cache).unwrap();
        assert!(a.reuse.unit_hit && b.reuse.unit_hit);
        assert_eq!(artifacts(&a.devices[0]), artifacts(&b.devices[0]));
        assert_eq!(artifacts(&a.devices[0]), artifacts(&cold.devices[0]));
        assert!(Arc::ptr_eq(&a.model, &b.model));
    }

    /// A comment line inserted at the top moves every token down a line:
    /// a fresh frontend run and model around the same device artifacts.
    #[test]
    fn comment_only_edit_shares_the_previous_revisions_artifacts() {
        let cc = Compiler::new(CompileOptions::default());
        let mut cache = CompileCache::new();
        let first = cc.compile_incremental("fig4.ncl", FIG4_CACHE, &mut cache).unwrap();
        let edited = format!("// retuned\n{FIG4_CACHE}");
        let second = cc.compile_incremental("fig4.ncl", &edited, &mut cache).unwrap();
        assert!(!second.reuse.unit_hit);
        assert!(!Arc::ptr_eq(&first.model, &second.model));
        assert_eq!(artifacts(&first.devices[0]), artifacts(&second.devices[0]));
        assert_eq!((cache.units["fig4.ncl"].len(), cache.programs.len()), (2, 1));
        assert_eq!(cache.stats().expansion_hits, 0);
    }

    /// An edit that moves no token is served the newest revision whole: a
    /// miss with every device reused, the revision's model and artifacts,
    /// and a new revision sharing the revision's stored unit.
    #[test]
    fn an_edit_that_moves_no_token_is_served_the_newest_revision() {
        let cc = Compiler::new(CompileOptions::default());
        let mut cache = CompileCache::new();
        let first = cc.compile_incremental("fig4.ncl", FIG4_CACHE, &mut cache).unwrap();
        let line = "_managed_ unsigned cms[CMS_HASHES][65536];";
        let edited =
            FIG4_CACHE.replace(line, &format!("{line} /* sketch */")) + "   \n// retuned\n\n";
        let second = cc.compile_incremental("fig4.ncl", &edited, &mut cache).unwrap();
        assert!(!second.reuse.unit_hit);
        assert_eq!(second.reuse.devices_reused, second.reuse.devices_total);
        assert!(Arc::ptr_eq(&first.model, &second.model));
        assert_eq!(artifacts(&first.devices[0]), artifacts(&second.devices[0]));
        let revisions = &cache.units["fig4.ncl"];
        assert_eq!(revisions.len(), 2);
        assert!(Arc::ptr_eq(&revisions[0].unit, &revisions[1].unit));
        let st = cache.stats();
        assert_eq!((st.unit_misses, st.expansion_hits, st.device_hits), (2, 1, 0));
        // The new text is now an exact revision: a hit.
        let third = cc.compile_incremental("fig4.ncl", &edited, &mut cache).unwrap();
        assert!(third.reuse.unit_hit);
    }

    /// The tier refuses a revision with warnings — their rendered excerpts
    /// show the line's text, which an edit may change — and a new text its
    /// preprocessing reports anything about, however its tokens compare.
    #[test]
    fn the_tier_refuses_warnings_and_preprocessing_errors() {
        let cc = Compiler::new(CompileOptions::default());
        let mut cache = CompileCache::new();
        let warned = "_net_ void f(unsigned _spec(2) *x) { x[0] = x[0] + 1; }\n\
                      _kernel(1) _at(1) void k(unsigned _spec(2) *a) { f(a); }\n";
        let first = cc.compile_incremental("w.ncl", warned, &mut cache).unwrap();
        assert!(!first.warnings.is_empty());
        let edited = warned.replacen("+ 1; }", "+ 1; } // note", 1);
        let second = cc.compile_incremental("w.ncl", &edited, &mut cache).unwrap();
        assert_eq!(second.warnings, cc.compile("w.ncl", &edited).unwrap().warnings);
        assert_ne!(second.warnings, first.warnings, "the excerpt shows the blanked comment");
        assert_eq!(cache.stats().expansion_hits, 0);

        cc.compile_incremental("fig4.ncl", FIG4_CACHE, &mut cache).unwrap();
        let bogus = format!("{FIG4_CACHE}#bogus\n");
        let err = cc.compile_incremental("fig4.ncl", &bogus, &mut cache).unwrap_err();
        assert_eq!(err.codes, ["E0007"]);
        assert_eq!(cache.stats().expansion_hits, 0);
    }

    /// Both dialects and the TNA IR of every device, printed.
    fn rendered(u: &CompiledUnit) -> Vec<(u16, String, String, String)> {
        u.devices
            .iter()
            .map(|d| {
                (
                    d.device,
                    netcl_p4::print::print_program(&d.tna_p4),
                    netcl_p4::print::print_program(&d.v1_p4),
                    netcl_ir::print::print_module(&d.tna_ir),
                )
            })
            .collect()
    }

    #[test]
    fn mutating_a_served_unit_does_not_reach_the_cache() {
        let cc = Compiler::new(CompileOptions::default());
        let mut cache = CompileCache::new();
        cc.compile_incremental("fig4.ncl", FIG4_CACHE, &mut cache).unwrap();
        let mut served = cc.compile_incremental("fig4.ncl", FIG4_CACHE, &mut cache).unwrap();
        let unit = Arc::make_mut(&mut served);
        Arc::make_mut(&mut Arc::make_mut(&mut unit.devices[0].tna_p4).controls).clear();
        Arc::make_mut(&mut unit.devices[0].tna_ir).kernels.clear();
        unit.devices[0].device = 99;
        let extra = unit.devices[0].clone();
        unit.devices.push(extra);

        let next = cc.compile_incremental("fig4.ncl", FIG4_CACHE, &mut cache).unwrap();
        let cold = cc.compile("fig4.ncl", FIG4_CACHE).unwrap();
        assert!(next.reuse.unit_hit);
        assert!(!Arc::ptr_eq(&next, &served));
        assert_eq!(rendered(&next), rendered(&cold));
    }

    #[test]
    fn every_revision_stays_served_as_one_shared_unit() {
        const B: &str = "_kernel(1) _at(1) void b(unsigned x, unsigned &o) { o = x + 1; }\n";
        let cc = Compiler::new(CompileOptions::default());
        let mut cache = CompileCache::new();
        let cold = |source| rendered(&cc.compile("u.ncl", source).unwrap());
        let (cold_a, cold_b) = (cold(FIG4_CACHE), cold(B));
        let mut serve = |source| cc.compile_incremental("u.ncl", source, &mut cache).unwrap();

        let first = serve(FIG4_CACHE);
        let a = serve(FIG4_CACHE);
        let b = serve(B);
        let b_again = serve(B);
        let a_again = serve(FIG4_CACHE);
        for (unit, want) in [(&first, &cold_a), (&a, &cold_a), (&b, &cold_b), (&a_again, &cold_a)] {
            assert_eq!(rendered(unit), *want);
        }
        assert!(!first.reuse.unit_hit && !b.reuse.unit_hit);
        assert!(a.reuse.unit_hit && b_again.reuse.unit_hit && a_again.reuse.unit_hit);
        // A hit hands out the cache's own unit, the same one every time.
        assert!(Arc::ptr_eq(&a, &a_again));
        let st = cache.stats();
        assert_eq!((st.unit_hits, st.unit_misses), (3, 2));
    }

    #[test]
    fn compilers_with_other_options_never_serve_each_others_units() {
        let options = [
            CompileOptions::default(),
            CompileOptions { target: EmitTarget::Tna, ..Default::default() },
            CompileOptions { pass_report: true, ..Default::default() },
        ];
        let compilers: Vec<Compiler> = options.into_iter().map(Compiler::new).collect();
        let mut cache = CompileCache::new();
        for cc in &compilers {
            let unit = cc.compile_incremental("fig4.ncl", FIG4_CACHE, &mut cache).unwrap();
            assert!(!unit.reuse.unit_hit, "served a unit compiled under other options");
        }
        for cc in &compilers {
            let unit = cc.compile_incremental("fig4.ncl", FIG4_CACHE, &mut cache).unwrap();
            assert!(unit.reuse.unit_hit);
            assert_eq!(rendered(&unit), rendered(&cc.compile("fig4.ncl", FIG4_CACHE).unwrap()));
        }
        let st = cache.stats();
        assert_eq!((st.unit_hits, st.unit_misses), (3, 3));
    }

    #[test]
    fn the_same_text_under_another_name_misses() {
        let cc = Compiler::new(CompileOptions::default());
        let mut cache = CompileCache::new();
        cc.compile_incremental("a.ncl", FIG4_CACHE, &mut cache).unwrap();
        let b = cc.compile_incremental("b.ncl", FIG4_CACHE, &mut cache).unwrap();
        assert!(!b.reuse.unit_hit);
        // A unit's name is its modules' name, so B's programs are its own.
        assert_eq!(rendered(&b), rendered(&cc.compile("b.ncl", FIG4_CACHE).unwrap()));
        let st = cache.stats();
        assert_eq!((st.unit_hits, st.unit_misses), (0, 2));
    }

    #[test]
    fn key_hash_separates_neighbouring_inputs() {
        // Every single-bit flip of a 40-byte input, every truncation of
        // it, and every way of splitting it into two writes hash apart.
        let base: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(37)).collect();
        let key = |parts: &[&[u8]]| {
            let mut h = KeyHasher::new();
            for p in parts {
                h.write(p);
            }
            h.finish()
        };
        let mut seen = std::collections::HashSet::new();
        assert!(seen.insert(key(&[&base])));
        for bit in 0..base.len() * 8 {
            let mut flipped = base.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(seen.insert(key(&[&flipped])), "bit {bit}");
        }
        for len in 0..base.len() {
            assert!(seen.insert(key(&[&base[..len]])), "prefix {len}");
            assert!(seen.insert(key(&[&base[..len], &base[len..]])), "split {len}");
        }
    }

    /// `src` lowered for `dev`.
    fn lowered(src: &str, dev: u16) -> Module {
        let mut fe = frontend("t.ncl", src).unwrap_or_else(|e| panic!("{e}"));
        let (module, _) = compiler::lowered(&mut fe, dev).unwrap_or_else(|e| panic!("{e}"));
        compiler::verified(&module, "lowered").unwrap_or_else(|e| panic!("{e}"));
        module
    }

    /// Each edit changes one field of a lowered module, and the key with
    /// it. An edit returns `false` where the module has no such field.
    #[test]
    fn program_key_covers_every_field() {
        let modules = [
            lowered(include_str!("../../../artifacts/netcl_src/agg.ncl"), 1),
            lowered(include_str!("../../../artifacts/netcl_src/cache.ncl"), 1),
            lowered(include_str!("../../../artifacts/netcl_src/pacc.ncl"), 2),
            // The three above initialise no lookup table.
            lowered(FIG4_CACHE, 1),
        ];
        type Edit = fn(&mut Module) -> bool;
        let edits: [(&str, Edit); 8] = [
            ("a lookup entry's value", |m| {
                let Some(e) = m.globals.iter_mut().find_map(|g| g.entries.first_mut()) else {
                    return false;
                };
                match e {
                    LookupEntry::Member { key } => *key += 1,
                    LookupEntry::Exact { value, .. } | LookupEntry::Range { value, .. } => {
                        *value += 1
                    }
                }
                true
            }),
            ("a global's dims", |m| {
                let Some(d) = m.globals.iter_mut().find_map(|g| g.dims.first_mut()) else {
                    return false;
                };
                *d += 1;
                true
            }),
            ("a global's managed flag", |m| {
                let Some(g) = m.globals.first_mut() else { return false };
                g.managed = !g.managed;
                true
            }),
            ("a local slot's name", |m| {
                let Some(l) = m.kernels.iter_mut().find_map(|k| k.locals.iter_mut().next()) else {
                    return false;
                };
                l.name.push('_');
                true
            }),
            ("an argument's in_message", |m| {
                let Some(a) = m.kernels.iter_mut().find_map(|k| k.args.first_mut()) else {
                    return false;
                };
                a.in_message = !a.in_message;
                true
            }),
            ("one constant operand", |m| {
                let insts = m.kernels.iter_mut().flat_map(|k| k.blocks.iter_mut());
                for inst in insts.flat_map(|b| b.insts.iter_mut()) {
                    let mut done = false;
                    inst.kind.map_operands(|op| match op {
                        Operand::Const(v, ty) if !done => {
                            done = true;
                            Operand::Const(ty.wrap(v ^ 1), ty)
                        }
                        op => op,
                    });
                    if done {
                        return true;
                    }
                }
                false
            }),
            ("Function::entry", |m| {
                let Some(k) = m.kernels.first_mut() else { return false };
                k.entry = BlockId(k.entry.0 + 1);
                true
            }),
            ("the unit name", |m| {
                m.name.push('_');
                true
            }),
        ];
        let fp = options_fingerprint(&CompileOptions::default());
        for (what, edit) in edits {
            let mut applied = 0;
            for m in &modules {
                let mut edited = m.clone();
                if edit(&mut edited) {
                    assert_ne!(edited, *m, "{what}: the edit changed nothing");
                    assert_ne!(
                        program_key(fp, &edited),
                        program_key(fp, m),
                        "{what} in {}",
                        m.name
                    );
                    applied += 1;
                }
            }
            assert!(applied > 0, "{what}: no module has the field");
        }

        let calc =
            include_str!("../../../artifacts/netcl_src/calc.ncl").replace("_at(1)", "_at(1, 7)");
        let (at_1, at_7) = (lowered(&calc, 1), lowered(&calc, 7));
        assert_eq!(at_1, at_7);
        assert_eq!(program_key(fp, &at_1), program_key(fp, &at_7));
    }

    #[test]
    fn mutation_misses_and_recompiles() {
        let cc = Compiler::new(CompileOptions::default());
        let mut cache = CompileCache::new();
        cc.compile_incremental("fig4.ncl", FIG4_CACHE, &mut cache).unwrap();
        let mutated = FIG4_CACHE.replace("#define THRESH 512", "#define THRESH 600");
        let warm = cc.compile_incremental("fig4.ncl", &mutated, &mut cache).unwrap();
        assert!(!warm.reuse.unit_hit, "mutated source must miss the unit cache");
        assert_eq!(warm.reuse.devices_reused, 0, "mutated IR must miss the program table");
        // And the mutated artifact matches its own cold compile exactly.
        let cold = cc.compile("fig4.ncl", &mutated).unwrap();
        assert_eq!(
            netcl_p4::print::print_program(&cold.devices[0].tna_p4),
            netcl_p4::print::print_program(&warm.devices[0].tna_p4),
        );
    }

    #[test]
    fn untouched_device_reuses_after_mutation() {
        // Two kernels on two devices: editing the device-2 kernel leaves
        // device 1's base IR unchanged, so only device 2 recompiles.
        let src = |idx: usize| {
            format!(
                r#"
_net_ _at(1) int sa[8];
_net_ _at(2) int sb[8];
_kernel(1) _at(1) void ka(int x, int &o) {{ o = ncl::atomic_add(&sa[0], x); }}
_kernel(2) _at(2) void kb(int x, int &o) {{ o = ncl::atomic_add(&sb[{idx}], x); }}
"#
            )
        };
        let cc = Compiler::new(CompileOptions::default());
        let mut cache = CompileCache::new();
        let cold = cc.compile_incremental("t.ncl", &src(0), &mut cache).unwrap();
        assert_eq!(cold.reuse.devices_total, 2);
        assert_eq!(cold.reuse.devices_reused, 0);

        let warm = cc.compile_incremental("t.ncl", &src(1), &mut cache).unwrap();
        assert!(!warm.reuse.unit_hit);
        assert_eq!(warm.reuse.devices_total, 2);
        assert_eq!(warm.reuse.devices_reused, 1, "device 1 must be served from cache");
        // Device 1's artifact is byte-identical to the cold compile;
        // device 2 actually picked up the edit.
        let p4 =
            |u: &CompiledUnit, d: u16| netcl_p4::print::print_program(&u.device(d).unwrap().tna_p4);
        assert_eq!(p4(&cold, 1), p4(&warm, 1));
        assert_ne!(p4(&cold, 2), p4(&warm, 2));
        assert_eq!(warm.device(1).unwrap().device, 1);
        assert_eq!(warm.device(2).unwrap().device, 2);
    }

    #[test]
    fn lookup_entry_values_are_part_of_the_key() {
        // The IR printer shows only the entry *count* for lookup globals;
        // a value-only edit must still miss the program table.
        let src = |v: u64| {
            format!(
                r#"
_net_ _lookup_ ncl::kv<unsigned, unsigned> t[] = {{{{1,{v}}}, {{2,7}}}};
_kernel(1) _at(1) void g(unsigned k, unsigned &v, char &hit) {{ hit = ncl::lookup(t, k, v); }}
"#
            )
        };
        let cc = Compiler::new(CompileOptions::default());
        let mut cache = CompileCache::new();
        cc.compile_incremental("t.ncl", &src(10), &mut cache).unwrap();
        let warm = cc.compile_incremental("t.ncl", &src(11), &mut cache).unwrap();
        assert_eq!(warm.reuse.devices_reused, 0, "changed entry value served stale artifact");
        let cold = cc.compile("t.ncl", &src(11)).unwrap();
        assert_eq!(
            netcl_p4::print::print_program(&cold.devices[0].tna_p4),
            netcl_p4::print::print_program(&warm.devices[0].tna_p4),
        );
    }

    #[test]
    fn comment_only_edit_keeps_sibling_device_entries_hot() {
        // A comment near kernel A changes the source text (unit miss) but
        // not any lowered module: both devices' programs are served from
        // the program table.
        let src = |note: &str| {
            format!(
                r#"
_net_ _at(1) int sa[8];
_net_ _at(2) int sb[8];
_kernel(1) _at(1) void ka(int x, int &o) {{ {note} o = ncl::atomic_add(&sa[0], x); }}
_kernel(2) _at(2) void kb(int x, int &o) {{ o = ncl::atomic_add(&sb[0], x); }}
"#
            )
        };
        let cc = Compiler::new(CompileOptions::default());
        let mut cache = CompileCache::new();
        cc.compile_incremental("t.ncl", &src(""), &mut cache).unwrap();
        let warm =
            cc.compile_incremental("t.ncl", &src("/* retune threshold */"), &mut cache).unwrap();
        assert!(!warm.reuse.unit_hit, "edited source must miss the unit cache");
        assert_eq!(warm.reuse.devices_reused, 2, "both devices' programs must be cache-hit");
        let st = cache.stats();
        assert_eq!((st.device_hits, st.device_misses), (2, 2));
    }

    #[test]
    fn options_partition_the_key_space() {
        let a = options_fingerprint(&CompileOptions::default());
        let b =
            options_fingerprint(&CompileOptions { target: EmitTarget::Tna, ..Default::default() });
        let mut flags_off = CompileOptions::default();
        flags_off.flags.speculation = !flags_off.flags.speculation;
        let c = options_fingerprint(&flags_off);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn cached_pass_reports_are_marked() {
        let cc = Compiler::new(CompileOptions { pass_report: true, ..Default::default() });
        let mut cache = CompileCache::new();
        let cold = cc.compile_incremental("fig4.ncl", FIG4_CACHE, &mut cache).unwrap();
        assert!(!cold.devices[0].tna_pass_report.as_ref().unwrap().from_cache);
        let warm = cc.compile_incremental("fig4.ncl", FIG4_CACHE, &mut cache).unwrap();
        assert!(warm.devices[0].tna_pass_report.as_ref().unwrap().from_cache);
        assert!(warm.devices[0].v1_pass_report.as_ref().unwrap().from_cache);
    }
}
