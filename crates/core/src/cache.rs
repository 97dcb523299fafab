//! Incremental recompilation cache (DESIGN.md §16).
//!
//! `ncc` compiles workloads of many translation units; editing one kernel
//! should not pay the pass pipeline and codegen for the other 999. A
//! [`CompileCache`] keeps two content-addressed maps and a set:
//!
//! * **unit cache** — keyed by a 64-bit hash over (options fingerprint,
//!   unit name, source text) and *verified*: the entry keeps the name and
//!   the source it was compiled from, and a lookup whose key matches but
//!   whose text does not is a miss. A hit returns the [`CompiledUnit`]
//!   without touching the frontend.
//! * **device cache** — keyed by a 64-bit hash over (options fingerprint,
//!   the device id, the printed header of the post-sema base IR for that
//!   device, the lookup-entry data, the device's kernel keys). A hit skips
//!   the §VI-B pass pipeline and P4 codegen for that device; editing one
//!   kernel of a multi-device unit therefore re-runs the backend only for
//!   the devices that kernel is `_at(...)`. The module does not name its
//!   device and the artifact does (program name, device guard), so the key
//!   writes the id out: devices with equal modules never alias. A unit's
//!   devices with equal modules are looked up once, under the first of
//!   them; the driver places the rest from what that serves.
//! * **kernel seen-set** — a hash over (options fingerprint, the kernel's
//!   printed IR). Attribution: [`ReuseStats`] reports how many kernels of a
//!   recompile were already known, so a one-kernel edit is visible as
//!   exactly one cold kernel while its siblings (and their devices'
//!   artifacts) stay cache-hit. The same hashes make up the device key, so
//!   a kernel is printed once per compile.
//!
//! **One copy of each artifact.** The heavy parts of a result — the two
//! IR modules and two P4 programs of a [`CompiledDevice`], and the unit's
//! `Model` — are immutable behind `Arc`. The device map, the unit map and
//! every unit handed to a caller point at the same allocations. What a
//! serve does own is small: the `Vec` of devices, `reuse`, `timings`,
//! `warnings` and any `PassReport`s (an entry is stored as a hit serves it
//! — `reuse` filled in, reports `from_cache` — and its key names its
//! device, so a serve rewrites nothing). A unit hit therefore costs two
//! reads of the source text (hash it, then compare it), one allocation for
//! the device `Vec`, four reference-count bumps per device and one for the
//! model — independent of how large the artifacts are
//! (`tests/cache_alloc.rs` is the gate). Nothing a caller does to a served
//! unit (`Arc::make_mut`, pushing devices) reaches the cache's copy.
//!
//! **Which entries are verified.** A unit key hashes text the user
//! controls, and the preimage is small (~0.7 KB against ~150 KB of
//! artifacts), so the entry keeps it and a 64-bit collision can never
//! serve one unit's program for another. Device entries stay
//! hash-addressed: their preimage is the whole printed base IR, which
//! would cost about one more module per entry to keep and to compare, it
//! is compiler-canonical text rather than arbitrary input, and a device
//! lookup happens only after a verified unit miss; at 10⁶ entries the
//! birthday bound on a 64-bit key is below 3 × 10⁻⁸.
//!
//! Keys are content hashes, so a mutated source simply misses and
//! recompiles; nothing is ever invalidated in place. Served artifacts are
//! marked by [`CompiledUnit::reuse`] and by `from_cache` on any embedded
//! `PassReport`s, so telemetry consumers can tell a replayed report from a
//! live pipeline run. `tests/incremental.rs` counts [`CacheStats`] across a
//! one-unit edit of a 34-unit workload to prove there is no silent cache
//! miss.

use std::collections::HashMap;

use crate::compiler::{CompileOptions, CompiledDevice, CompiledUnit, EmitTarget};

/// How much of a [`CompiledUnit`] was served from a [`CompileCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReuseStats {
    /// The whole unit was a cache hit (frontend, sema, lowering, passes
    /// and codegen all skipped).
    pub unit_hit: bool,
    /// Devices this unit compiled for.
    pub devices_total: usize,
    /// Devices that did not run the pass pipeline and codegen: served from
    /// the device cache, or placed from the program of an earlier device
    /// with an equal lowered module (equals `devices_total` on a unit hit).
    pub devices_reused: usize,
    /// Kernels lowered across all devices of this unit (counted when a
    /// cache is in use).
    pub kernels_total: usize,
    /// Kernels whose post-sema IR was already known to the cache, or whose
    /// device was placed from an earlier device's program — the per-kernel
    /// attribution behind `devices_reused`: a one-kernel edit shows up as
    /// exactly one cold kernel here, and every device whose kernels all
    /// reused serves its artifact from the device cache.
    pub kernels_reused: usize,
}

/// Hit/miss counters for a [`CompileCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Whole-unit lookups that hit.
    pub unit_hits: u64,
    /// Whole-unit lookups that missed.
    pub unit_misses: u64,
    /// Device-cache lookups that hit: one lookup per group of a unit's
    /// devices with equal lowered modules.
    pub device_hits: u64,
    /// Device-cache lookups that missed.
    pub device_misses: u64,
    /// Per-kernel IR hashes already in the seen-set.
    pub kernel_hits: u64,
    /// Per-kernel IR hashes recorded for the first time.
    pub kernel_misses: u64,
}

/// The two-level artifact cache behind `Compiler::compile_incremental`,
/// plus a per-kernel seen-set that attributes each device hit or miss to
/// the kernels that caused it.
#[derive(Debug, Default)]
pub struct CompileCache {
    units: HashMap<u64, UnitEntry>,
    devices: HashMap<u64, CompiledDevice>,
    kernels: std::collections::HashSet<u64>,
    stats: CacheStats,
}

/// A cached unit beside the text it was compiled from, which a lookup
/// compares before serving it (module docs, "Which entries are verified").
#[derive(Debug)]
struct UnitEntry {
    name: String,
    source: String,
    unit: CompiledUnit,
}

impl CompileCache {
    /// An empty cache.
    pub fn new() -> CompileCache {
        CompileCache::default()
    }

    /// Hit/miss counters accumulated since construction (or [`Self::clear`]).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Cached unit count.
    pub fn unit_count(&self) -> usize {
        self.units.len()
    }

    /// Cached per-device artifact count.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Drops all cached artifacts and resets the counters.
    pub fn clear(&mut self) {
        self.units.clear();
        self.devices.clear();
        self.kernels.clear();
        self.stats = CacheStats::default();
    }

    /// Whole-unit lookup; counts the hit or miss. An entry under `key`
    /// that was compiled from other text is a miss.
    pub(crate) fn unit(&mut self, key: u64, name: &str, source: &str) -> Option<CompiledUnit> {
        let hit = self
            .units
            .get(&key)
            .filter(|e| e.name == name && e.source == source)
            .map(|e| e.unit.clone());
        match hit {
            Some(_) => self.stats.unit_hits += 1,
            None => self.stats.unit_misses += 1,
        }
        hit
    }

    /// Keeps `unit` as a hit will serve it: everything reused, reports
    /// marked (see [`CompileCache::put_device`]).
    pub(crate) fn put_unit(&mut self, key: u64, name: &str, source: &str, mut unit: CompiledUnit) {
        unit.reuse = ReuseStats {
            unit_hit: true,
            devices_reused: unit.reuse.devices_total,
            kernels_reused: unit.reuse.kernels_total,
            ..unit.reuse
        };
        unit.devices.iter_mut().for_each(mark_served);
        self.units.insert(key, UnitEntry { name: name.into(), source: source.into(), unit });
    }

    /// Per-device lookup; counts the hit or miss.
    pub(crate) fn device(&mut self, key: u64) -> Option<CompiledDevice> {
        let hit = self.devices.get(&key).cloned();
        match hit {
            Some(_) => self.stats.device_hits += 1,
            None => self.stats.device_misses += 1,
        }
        hit
    }

    pub(crate) fn put_device(&mut self, key: u64, mut device: CompiledDevice) {
        mark_served(&mut device);
        self.devices.insert(key, device);
    }

    /// Records a kernel's IR hash in the seen-set; returns whether it was
    /// already known (i.e. this kernel's lowered IR is unchanged since
    /// some earlier compile through this cache).
    pub(crate) fn kernel(&mut self, key: u64) -> bool {
        let seen = !self.kernels.insert(key);
        match seen {
            true => self.stats.kernel_hits += 1,
            false => self.stats.kernel_misses += 1,
        }
        seen
    }
}

/// Flags every embedded pass report as cache-served so telemetry
/// consumers don't mistake a replayed report for a live pipeline run.
pub(crate) fn mark_served(d: &mut CompiledDevice) {
    for r in [&mut d.tna_pass_report, &mut d.v1_pass_report].into_iter().flatten() {
        r.from_cache = true;
    }
}

/// The cache's 64-bit key hash, written out so the cache has no hasher
/// dependency and keys are stable across runs (`tests/incremental.rs` and
/// `netcl_e2e`'s `compile_edit` gate hold reuse counts to exact
/// expectations). It takes eight bytes per step —
/// xor, multiply, fold the high half down — because hashing the source is
/// most of what a unit hit costs.
struct KeyHasher(u64);

impl KeyHasher {
    fn new() -> KeyHasher {
        KeyHasher(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, v: u64) -> &mut Self {
        self.0 = (self.0 ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 ^= self.0 >> 32;
        self
    }

    /// Hashes `bytes` and then their length, so that consecutive writes
    /// cannot run into each other.
    fn write(&mut self, bytes: &[u8]) -> &mut Self {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("chunks of eight")));
        }
        let mut tail = [0u8; 8];
        tail[..words.remainder().len()].copy_from_slice(words.remainder());
        self.write_u64(u64::from_le_bytes(tail)).write_u64(bytes.len() as u64)
    }
}

/// Hashes every [`CompileOptions`] field that can change the artifacts.
/// Two compilers with equal fingerprints produce byte-identical output for
/// equal input, so fingerprints partition the cache key space.
pub(crate) fn options_fingerprint(options: &CompileOptions) -> u64 {
    let mut h = KeyHasher::new();
    h.write(&[match options.target {
        EmitTarget::Tna => 0u8,
        EmitTarget::V1Model => 1,
        EmitTarget::Both => 2,
    }]);
    let f = &options.flags;
    h.write(&[f.speculation as u8, f.duplicate_lookup as u8, f.icmp_to_sub_msb as u8]);
    h.write(&[options.pass_report as u8]);
    match &options.devices {
        None => {
            h.write(&[0u8]);
        }
        Some(list) => {
            h.write(&[1u8]).write_u64(list.len() as u64);
            for d in list {
                h.write(&d.to_le_bytes());
            }
        }
    }
    h.0
}

/// Unit key: options fingerprint + unit name + full source text.
pub(crate) fn unit_key(fingerprint: u64, name: &str, source: &str) -> u64 {
    let mut h = KeyHasher::new();
    h.write_u64(fingerprint).write(name.as_bytes()).write(source.as_bytes());
    h.0
}

/// Device key: options fingerprint + the device id + the printed header of
/// the post-sema base IR (unit name, globals) + the lookup-entry data (the
/// printer records only entry *counts*, but the generated MATs embed the
/// values) + `kernel_keys`, the [`kernel_key`] of every kernel of `base`
/// in order. The id is written out because the module does not name it
/// and the artifact does (program name, device guard): without it, two
/// devices with equal modules would share a key. Together these cover
/// everything `print_module` shows and the placement, and the pass
/// pipeline and codegen are pure functions of those, so equal keys imply
/// equal artifacts.
pub(crate) fn device_key(
    fingerprint: u64,
    device: u16,
    base: &netcl_ir::Module,
    kernel_keys: &[u64],
) -> u64 {
    use netcl_sema::model::LookupEntry;
    let mut h = KeyHasher::new();
    h.write_u64(fingerprint)
        .write_u64(device as u64)
        .write(netcl_ir::print::print_module_header(base).as_bytes());
    for g in &base.globals {
        for e in &g.entries {
            match e {
                LookupEntry::Member { key } => h.write(&[1]).write_u64(*key),
                LookupEntry::Exact { key, value } => {
                    h.write(&[2]).write_u64(*key).write_u64(*value)
                }
                LookupEntry::Range { lo, hi, value } => {
                    h.write(&[3]).write_u64(*lo).write_u64(*hi).write_u64(*value)
                }
            };
        }
    }
    for &k in kernel_keys {
        h.write_u64(k);
    }
    h.0
}

/// Kernel key: options fingerprint + the kernel's printed post-sema IR.
/// This is the unit of change attribution: a device key is the
/// combination of its device id, its kernels' keys and its globals, so a
/// device misses exactly when one of its kernels' keys is cold or a global
/// changed. A comment-only edit leaves every kernel key hot.
pub(crate) fn kernel_key(fingerprint: u64, f: &netcl_ir::Function) -> u64 {
    let mut h = KeyHasher::new();
    h.write_u64(fingerprint).write(netcl_ir::print::print_function(f).as_bytes());
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{tests::FIG4_CACHE, Compiler};
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
        // The unit entry and the device entry point at the cold compile's
        // own allocations.
        let in_units = &cache.units.values().next().unwrap().unit;
        let in_devices = cache.devices.values().next().unwrap();
        assert_eq!(artifacts(&in_units.devices[0]), artifacts(&cold.devices[0]));
        assert_eq!(artifacts(in_devices), artifacts(&cold.devices[0]));
        assert!(Arc::ptr_eq(&in_units.model, &cold.model));

        let a = cc.compile_incremental("fig4.ncl", FIG4_CACHE, &mut cache).unwrap();
        let b = cc.compile_incremental("fig4.ncl", FIG4_CACHE, &mut cache).unwrap();
        assert!(a.reuse.unit_hit && b.reuse.unit_hit);
        assert_eq!(artifacts(&a.devices[0]), artifacts(&b.devices[0]));
        assert_eq!(artifacts(&a.devices[0]), artifacts(&cold.devices[0]));
        assert!(Arc::ptr_eq(&a.model, &b.model));
    }

    #[test]
    fn comment_only_edit_shares_the_previous_revisions_artifacts() {
        let cc = Compiler::new(CompileOptions::default());
        let mut cache = CompileCache::new();
        let first = cc.compile_incremental("fig4.ncl", FIG4_CACHE, &mut cache).unwrap();
        let edited = format!("{FIG4_CACHE}// retuned\n");
        let second = cc.compile_incremental("fig4.ncl", &edited, &mut cache).unwrap();
        // A new unit (fresh frontend run, fresh model) around the same
        // device artifacts.
        assert!(!second.reuse.unit_hit);
        assert!(!Arc::ptr_eq(&first.model, &second.model));
        assert_eq!(artifacts(&first.devices[0]), artifacts(&second.devices[0]));
        assert_eq!((cache.unit_count(), cache.device_count()), (2, 1));
    }

    #[test]
    fn mutating_a_served_unit_does_not_reach_the_cache() {
        let cc = Compiler::new(CompileOptions::default());
        let mut cache = CompileCache::new();
        cc.compile_incremental("fig4.ncl", FIG4_CACHE, &mut cache).unwrap();
        let mut served = cc.compile_incremental("fig4.ncl", FIG4_CACHE, &mut cache).unwrap();
        Arc::make_mut(&mut Arc::make_mut(&mut served.devices[0].tna_p4).controls).clear();
        Arc::make_mut(&mut served.devices[0].tna_ir).kernels.clear();
        served.devices[0].device = 99;
        let extra = served.devices[0].clone();
        served.devices.push(extra);

        let next = cc.compile_incremental("fig4.ncl", FIG4_CACHE, &mut cache).unwrap();
        let cold = cc.compile("fig4.ncl", FIG4_CACHE).unwrap();
        assert!(next.reuse.unit_hit);
        let rendered = |u: &CompiledUnit| -> Vec<(u16, String, String, String)> {
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
        };
        assert_eq!(rendered(&next), rendered(&cold));
    }

    #[test]
    fn unit_entry_under_a_colliding_key_is_not_served() {
        // Plant unit B under unit A's key, as a 64-bit collision would.
        const B: &str = "_kernel(1) _at(1) void b(unsigned x, unsigned &o) { o = x + 1; }\n";
        let cc = Compiler::new(CompileOptions::default());
        let mut cache = CompileCache::new();
        let key_a = unit_key(options_fingerprint(&CompileOptions::default()), "a.ncl", FIG4_CACHE);
        cache.put_unit(key_a, "b.ncl", B, cc.compile("b.ncl", B).unwrap());

        let a = cc.compile_incremental("a.ncl", FIG4_CACHE, &mut cache).unwrap();
        assert!(!a.reuse.unit_hit, "served another unit's artifacts on a key match alone");
        let cold = cc.compile("a.ncl", FIG4_CACHE).unwrap();
        assert_eq!(
            netcl_p4::print::print_program(&a.devices[0].tna_p4),
            netcl_p4::print::print_program(&cold.devices[0].tna_p4),
        );
        let st = cache.stats();
        assert_eq!((st.unit_hits, st.unit_misses), (0, 1));
        // The recompile took the slot over: A now hits.
        assert!(cc.compile_incremental("a.ncl", FIG4_CACHE, &mut cache).unwrap().reuse.unit_hit);
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
            h.0
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

    #[test]
    fn mutation_misses_and_recompiles() {
        let cc = Compiler::new(CompileOptions::default());
        let mut cache = CompileCache::new();
        cc.compile_incremental("fig4.ncl", FIG4_CACHE, &mut cache).unwrap();
        let mutated = FIG4_CACHE.replace("#define THRESH 512", "#define THRESH 600");
        let warm = cc.compile_incremental("fig4.ncl", &mutated, &mut cache).unwrap();
        assert!(!warm.reuse.unit_hit, "mutated source must miss the unit cache");
        assert_eq!(warm.reuse.devices_reused, 0, "mutated IR must miss the device cache");
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
        // a value-only edit must still miss the device cache.
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
        // not any kernel's lowered IR: every kernel key stays hot and
        // both devices' artifacts are served from the device cache.
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
        let cold = cc.compile_incremental("t.ncl", &src(""), &mut cache).unwrap();
        assert_eq!((cold.reuse.kernels_total, cold.reuse.kernels_reused), (2, 0));

        let warm =
            cc.compile_incremental("t.ncl", &src("/* retune threshold */"), &mut cache).unwrap();
        assert!(!warm.reuse.unit_hit, "edited source must miss the unit cache");
        assert_eq!(
            (warm.reuse.kernels_total, warm.reuse.kernels_reused),
            (2, 2),
            "a comment-only edit must leave every kernel's IR hash hot"
        );
        assert_eq!(
            warm.reuse.devices_reused, 2,
            "kernel B's (and A's) device entries must be cache-hit"
        );
        let st = cache.stats();
        assert_eq!((st.kernel_hits, st.kernel_misses), (2, 2));
        assert_eq!((st.device_hits, st.device_misses), (2, 2));
    }

    #[test]
    fn one_kernel_edit_attributes_the_miss_to_that_kernel() {
        // A real edit to kernel B: B's key is cold, A's stays hot, and
        // only B's device recompiles.
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
        cc.compile_incremental("t.ncl", &src(0), &mut cache).unwrap();
        let warm = cc.compile_incremental("t.ncl", &src(1), &mut cache).unwrap();
        assert_eq!(
            (warm.reuse.kernels_total, warm.reuse.kernels_reused),
            (2, 1),
            "exactly the edited kernel must be cold"
        );
        assert_eq!(warm.reuse.devices_reused, 1, "only the edited kernel's device recompiles");
        // A unit hit reports full kernel reuse without recomputing hashes.
        let hit = cc.compile_incremental("t.ncl", &src(1), &mut cache).unwrap();
        assert!(hit.reuse.unit_hit);
        assert_eq!((hit.reuse.kernels_total, hit.reuse.kernels_reused), (2, 2));
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
