//! The in-flight packet representation: parsed headers + metadata.
//!
//! A packet is a dense `Vec<u64>` value store indexed by the program's
//! [`SlotTable`] (one slot per interned field/metadata path), plus bitsets
//! for metadata presence and header validity. The compiled fast path
//! addresses slots directly; the string-keyed methods (`get`, `set_meta`,
//! ...) are a thin compatibility layer that resolves paths through the slot
//! table, spilling into a dynamic overflow map only for paths the program
//! never mentioned (hand-built packets in tests, mostly). The compiled hot
//! path never touches the overflow map and performs no heap allocation for
//! already-interned fields.

use std::collections::HashMap;
use std::sync::Arc;

use crate::layout::{FieldSlot, HeaderId, SlotTable};
use netcl_util::bitset::BitSet;
use netcl_util::idx::Idx;

/// Errors while parsing/deparsing wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacketError {
    /// Ran out of bytes while extracting a header.
    Truncated {
        /// Header being extracted.
        header: String,
    },
    /// A referenced header type is unknown.
    UnknownHeader(String),
    /// Non-byte-aligned header (the wire format is byte-aligned).
    Unaligned(String),
}

impl std::fmt::Display for PacketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PacketError::Truncated { header } => write!(f, "packet truncated in `{header}`"),
            PacketError::UnknownHeader(h) => write!(f, "unknown header `{h}`"),
            PacketError::Unaligned(h) => write!(f, "header `{h}` is not byte aligned"),
        }
    }
}

/// A field-level wire error, mapped to [`PacketError`] with the offending
/// header's name by the parser/deparser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldError {
    /// Width is zero or not a whole number of bytes.
    Unaligned {
        /// The offending width.
        bits: u32,
    },
    /// Not enough bytes left.
    Truncated,
}

/// Overflow store for paths/instances outside the program's slot table.
#[derive(Debug, Clone, Default)]
struct DynPaths {
    /// Prefixed path (`"h:..."` / `"m:..."`) → slot.
    paths: HashMap<String, FieldSlot>,
    /// Instance name → id (ids continue past the static table).
    instances: HashMap<String, HeaderId>,
    /// Names of dynamic instances, by `id - n_static_instances`.
    names: Vec<String>,
}

/// A parsed packet: header fields, validity, metadata, and residual payload.
#[derive(Debug, Clone)]
pub struct Packet {
    slots: Arc<SlotTable>,
    /// Slot values (header fields and metadata share one dense store; the
    /// namespaces get distinct slots at interning time).
    values: Vec<u64>,
    /// Which metadata slots are bound (cleared slots read as 0 and make
    /// bare-name loads fall through to the header namespace).
    meta_present: BitSet,
    /// Valid header instances.
    valid: BitSet,
    /// Instances ever marked valid — gates `order` pushes in O(1).
    seen: BitSet,
    /// First-validation order (deparse emits valid headers in this order).
    order: Vec<HeaderId>,
    /// Overflow for unknown paths; `None` until first needed, never touched
    /// by the threaded engine.
    dynamic: Option<Box<DynPaths>>,
    /// Bytes following the parsed headers.
    pub(crate) payload: Vec<u8>,
    /// The device the packet is running at, stamped by the switch that
    /// runs it: what a program's `Expr::Device` leaf reads.
    device: u16,
}

impl Default for Packet {
    fn default() -> Packet {
        Packet::with_slots(Arc::new(SlotTable::default()))
    }
}

impl Packet {
    /// Creates an empty packet sized for `slots`.
    pub(crate) fn with_slots(slots: Arc<SlotTable>) -> Packet {
        let ns = slots.n_slots();
        let ni = slots.n_instances();
        Packet {
            values: vec![0; ns],
            meta_present: BitSet::new(ns),
            valid: BitSet::new(ni),
            seen: BitSet::new(ni),
            order: Vec::new(),
            dynamic: None,
            payload: Vec::new(),
            device: 0,
            slots,
        }
    }

    /// Re-shapes the packet for `slots` if it currently uses a different
    /// table (callers may hand a `Packet::default()` to `process_into`).
    pub(crate) fn ensure_slots(&mut self, slots: &Arc<SlotTable>) {
        if !Arc::ptr_eq(&self.slots, slots) {
            *self = Packet::with_slots(Arc::clone(slots));
        }
    }

    /// Clears all state, keeping allocated capacity (the hot-path reuse
    /// entry point — no allocation happens here).
    pub(crate) fn reset(&mut self) {
        self.values.truncate(self.slots.n_slots());
        self.values.fill(0);
        self.meta_present.clear();
        self.valid.clear();
        self.seen.clear();
        self.order.clear();
        self.payload.clear();
        self.dynamic = None;
    }

    /// The device the packet is running at (0 until a switch runs it).
    #[inline]
    pub(crate) fn device(&self) -> u16 {
        self.device
    }

    pub(crate) fn set_device(&mut self, device: u16) {
        self.device = device;
    }

    // ---- slot-addressed fast path ---------------------------------------

    /// Reads a slot value.
    #[inline]
    pub(crate) fn value(&self, slot: FieldSlot) -> u64 {
        self.values[slot.index()]
    }

    /// Writes a slot value.
    #[inline]
    pub(crate) fn set_value(&mut self, slot: FieldSlot, v: u64) {
        self.values[slot.index()] = v;
    }

    /// Whether a metadata slot is bound.
    #[inline]
    pub(crate) fn meta_present(&self, slot: FieldSlot) -> bool {
        self.meta_present.contains(slot.index())
    }

    /// Binds a metadata slot.
    #[inline]
    pub(crate) fn set_meta_slot(&mut self, slot: FieldSlot, v: u64) {
        self.values[slot.index()] = v;
        self.meta_present.insert(slot.index());
    }

    /// Unbinds a metadata slot (reads fall back to 0 / the header
    /// namespace).
    #[inline]
    pub(crate) fn clear_meta_slot(&mut self, slot: FieldSlot) {
        self.values[slot.index()] = 0;
        self.meta_present.remove(slot.index());
    }

    /// Header validity by instance id.
    #[inline]
    pub(crate) fn is_valid_id(&self, inst: HeaderId) -> bool {
        self.valid.contains(inst.index())
    }

    /// Marks a header (in)valid — O(1); the `seen` bitset preserves the
    /// first-validation deparse order without scanning `order`.
    #[inline]
    pub(crate) fn set_valid_id(&mut self, inst: HeaderId, valid: bool) {
        if valid {
            self.valid.insert(inst.index());
            if !self.seen.contains(inst.index()) {
                self.seen.insert(inst.index());
                self.order.push(inst);
            }
        } else {
            self.valid.remove(inst.index());
        }
    }

    /// Instance ids in first-validation order.
    pub(crate) fn order_ids(&self) -> &[HeaderId] {
        &self.order
    }

    /// Resolves an instance id to its name (static table first, then the
    /// packet's dynamic overflow).
    pub(crate) fn instance_name(&self, id: HeaderId) -> &str {
        if let Some(n) = self.slots.instance_name(id) {
            return n;
        }
        let base = self.slots.n_instances();
        self.dynamic
            .as_ref()
            .and_then(|d| d.names.get(id.index() - base))
            .map(|s| s.as_str())
            .unwrap_or("")
    }

    // ---- string compatibility layer -------------------------------------

    /// Reads a header field (0 when missing).
    pub fn get(&self, path: &str) -> u64 {
        match self.resolve('h', path) {
            Some(s) => self.values[s.index()],
            None => 0,
        }
    }

    /// Writes a header field.
    pub(crate) fn set(&mut self, path: &str, value: u64) {
        let s = self.resolve_or_insert('h', path);
        self.values[s.index()] = value;
    }

    /// Reads metadata (zero default).
    pub(crate) fn get_meta(&self, name: &str) -> u64 {
        match self.resolve('m', name) {
            Some(s) => self.values[s.index()],
            None => 0,
        }
    }

    /// Writes metadata.
    pub(crate) fn set_meta(&mut self, name: &str, value: u64) {
        let s = self.resolve_or_insert('m', name);
        self.values[s.index()] = value;
        self.meta_present.ensure_len(s.index() + 1);
        self.meta_present.insert(s.index());
    }

    /// Reads metadata only if bound (the interpreter's bare-name namespace
    /// probe).
    pub(crate) fn meta_opt(&self, name: &str) -> Option<u64> {
        let s = self.resolve('m', name)?;
        if self.meta_present.contains(s.index()) {
            Some(self.values[s.index()])
        } else {
            None
        }
    }

    /// Unbinds a metadata name.
    pub(crate) fn meta_remove(&mut self, name: &str) {
        if let Some(s) = self.resolve('m', name) {
            self.values[s.index()] = 0;
            self.meta_present.remove(s.index());
        }
    }

    /// Header validity.
    pub(crate) fn is_valid(&self, instance: &str) -> bool {
        match self.resolve_instance(instance) {
            Some(id) => self.valid.contains(id.index()),
            None => false,
        }
    }

    /// Marks a header (in)valid, preserving first-validation order.
    pub(crate) fn set_valid(&mut self, instance: &str, valid: bool) {
        if !valid {
            // Invalidation of a never-seen instance is a no-op; avoid
            // allocating a dynamic id for it.
            if let Some(id) = self.resolve_instance(instance) {
                self.valid.remove(id.index());
            }
            return;
        }
        let id = self.resolve_or_insert_instance(instance);
        self.set_valid_id(id, true);
    }

    // ---- resolution -----------------------------------------------------

    fn resolve(&self, ns: char, path: &str) -> Option<FieldSlot> {
        let hit = match ns {
            'h' => self.slots.header_slot(path),
            _ => self.slots.meta_slot(path),
        };
        if hit.is_some() {
            return hit;
        }
        self.dynamic.as_ref()?.paths.get(&format!("{ns}:{path}")).copied()
    }

    fn resolve_or_insert(&mut self, ns: char, path: &str) -> FieldSlot {
        if let Some(s) = self.resolve(ns, path) {
            return s;
        }
        let slot = FieldSlot(self.values.len() as u32);
        self.values.push(0);
        self.dynamic
            .get_or_insert_with(Default::default)
            .paths
            .insert(format!("{ns}:{path}"), slot);
        slot
    }

    fn resolve_instance(&self, name: &str) -> Option<HeaderId> {
        if let Some(id) = self.slots.instance_id(name) {
            return Some(id);
        }
        self.dynamic.as_ref()?.instances.get(name).copied()
    }

    fn resolve_or_insert_instance(&mut self, name: &str) -> HeaderId {
        if let Some(id) = self.resolve_instance(name) {
            return id;
        }
        let base = self.slots.n_instances();
        let dynamic = self.dynamic.get_or_insert_with(Default::default);
        let id = HeaderId((base + dynamic.names.len()) as u32);
        dynamic.names.push(name.to_string());
        dynamic.instances.insert(name.to_string(), id);
        self.valid.ensure_len(id.index() + 1);
        self.seen.ensure_len(id.index() + 1);
        id
    }
}

/// Reads `bits` (byte-aligned, big-endian network order) from `bytes` at
/// `*cursor`, advancing it.
pub(crate) fn read_field(bytes: &[u8], cursor: &mut usize, bits: u32) -> Result<u64, FieldError> {
    if bits == 0 || !bits.is_multiple_of(8) {
        return Err(FieldError::Unaligned { bits });
    }
    let nbytes = (bits / 8) as usize;
    if *cursor + nbytes > bytes.len() {
        return Err(FieldError::Truncated);
    }
    let mut v = 0u64;
    for i in 0..nbytes {
        v = (v << 8) | bytes[*cursor + i] as u64;
    }
    *cursor += nbytes;
    Ok(v)
}

/// Appends `bits` of `value` in network order.
pub(crate) fn write_field(out: &mut Vec<u8>, value: u64, bits: u32) -> Result<(), FieldError> {
    if bits == 0 || !bits.is_multiple_of(8) {
        return Err(FieldError::Unaligned { bits });
    }
    let nbytes = (bits / 8) as usize;
    for i in (0..nbytes).rev() {
        out.push((value >> (8 * i)) as u8);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Instance names in first-validation order.
    fn order_names(p: &Packet) -> Vec<String> {
        p.order.iter().map(|&id| p.instance_name(id).to_string()).collect()
    }

    #[test]
    fn field_roundtrip() {
        let mut out = Vec::new();
        write_field(&mut out, 0xDEAD, 16).unwrap();
        write_field(&mut out, 0xBEEFCAFE, 32).unwrap();
        write_field(&mut out, 7, 8).unwrap();
        let mut cur = 0;
        assert_eq!(read_field(&out, &mut cur, 16), Ok(0xDEAD));
        assert_eq!(read_field(&out, &mut cur, 32), Ok(0xBEEFCAFE));
        assert_eq!(read_field(&out, &mut cur, 8), Ok(7));
        assert_eq!(cur, out.len());
    }

    #[test]
    fn truncation_detected() {
        let bytes = [1u8, 2];
        let mut cur = 0;
        assert_eq!(read_field(&bytes, &mut cur, 32), Err(FieldError::Truncated));
        assert_eq!(cur, 0, "failed read must not advance the cursor");
    }

    #[test]
    fn unaligned_widths_rejected() {
        let bytes = [1u8, 2, 3, 4];
        let mut cur = 0;
        assert_eq!(read_field(&bytes, &mut cur, 12), Err(FieldError::Unaligned { bits: 12 }));
        assert_eq!(read_field(&bytes, &mut cur, 0), Err(FieldError::Unaligned { bits: 0 }));
        assert_eq!(cur, 0);
        let mut out = Vec::new();
        assert_eq!(write_field(&mut out, 0xFFF, 12), Err(FieldError::Unaligned { bits: 12 }));
        assert_eq!(write_field(&mut out, 1, 0), Err(FieldError::Unaligned { bits: 0 }));
        assert!(out.is_empty(), "failed write must not emit bytes");
    }

    #[test]
    fn validity_tracks_order() {
        let mut p = Packet::default();
        p.set_valid("ncl", true);
        p.set_valid("args_c1", true);
        p.set_valid("ncl", true); // re-validation keeps position
        assert_eq!(order_names(&p), vec!["ncl".to_string(), "args_c1".to_string()]);
        p.set_valid("args_c1", false);
        assert!(!p.is_valid("args_c1"));
        assert!(p.is_valid("ncl"));
        // Re-validating after invalidation keeps the original slot, as the
        // old order-scan implementation did.
        p.set_valid("args_c1", true);
        assert_eq!(order_names(&p), vec!["ncl".to_string(), "args_c1".to_string()]);
    }

    #[test]
    fn metadata_zero_default() {
        let p = Packet::default();
        assert_eq!(p.get_meta("anything"), 0);
        assert_eq!(p.get("ncl.src"), 0);
    }

    #[test]
    fn meta_and_header_namespaces_do_not_alias() {
        let mut p = Packet::default();
        p.set_meta("x", 42);
        p.set("x", 7);
        assert_eq!(p.get_meta("x"), 42);
        assert_eq!(p.get("x"), 7);
        assert_eq!(p.meta_opt("x"), Some(42));
        p.meta_remove("x");
        assert_eq!(p.meta_opt("x"), None);
        assert_eq!(p.get_meta("x"), 0);
        assert_eq!(p.get("x"), 7, "removing metadata must not clear the header field");
    }

    #[test]
    fn reset_clears_dynamic_state() {
        let mut p = Packet::default();
        p.set("a.b", 9);
        p.set_valid("a", true);
        p.payload = vec![1, 2, 3];
        p.reset();
        assert_eq!(p.get("a.b"), 0);
        assert!(!p.is_valid("a"));
        assert!(p.order_ids().is_empty());
        assert!(p.payload.is_empty());
    }
}
