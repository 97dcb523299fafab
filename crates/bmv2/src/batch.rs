//! Packet batches: the unit of work replay drivers and benchmarks hand to
//! [`Switch::process_batch`](crate::Switch::process_batch) (DESIGN.md §13).
//! The simulator delivers message by message through
//! [`Switch::process_into`](crate::Switch::process_into) instead.
//!
//! A [`PacketBatch`] owns four structures:
//!
//! - a single **arena** of wire bytes — pushed buffers are copied
//!   back-to-back so a burst of packets is one contiguous allocation;
//! - one dense-slot scratch [`Packet`], shaped once per batch call against
//!   the program's slot table instead of once per packet and shared by
//!   every slot (processing is sequential);
//! - per-packet **output buffers**, reused by every
//!   [`process_batch`](crate::Switch::process_batch) call on the batch, so
//!   the steady state allocates nothing;
//! - per-packet **outcomes** (`Result<(), SwitchError>`), the same value a
//!   scalar [`process_into`](crate::Switch::process_into) call returns.
//!
//! The batch itself knows nothing about a program: the switch shapes the
//! packet pool on entry (`prepare`), so one batch can be reused across
//! switches.

use std::sync::Arc;

use crate::layout::SlotTable;
use crate::packet::Packet;
use crate::switch::SwitchError;

/// Default batch size for batched delivery. Chosen by PR 5's batch-size
/// sweep (EXPERIMENTS.md, "Self-measurement"): per-packet cost is flat from 64 up
/// on every Table III app, while 256 keeps arena + packet-pool footprint
/// comfortably in cache; larger sizes measured no further gain.
pub const DEFAULT_BATCH: usize = 256;

/// A batch of wire packets plus the per-packet state needed to run them
/// through a [`Switch`](crate::Switch) with amortized setup.
#[derive(Default)]
pub struct PacketBatch {
    /// All input wire bytes, back to back.
    arena: Vec<u8>,
    /// `(start, len)` of each packet's wire bytes in `arena`.
    ranges: Vec<(u32, u32)>,
    /// Parsed-representation scratch, shared by every slot (processing is
    /// sequential), shaped lazily. `Vec` only so an unshaped batch needs
    /// no slot table.
    pkts: Vec<Packet>,
    /// Deparsed output per slot.
    outs: Vec<Vec<u8>>,
    /// What the pipeline said about each slot, exactly as `process_into`
    /// would have returned it.
    outcomes: Vec<Result<(), SwitchError>>,
}

impl PacketBatch {
    /// An empty batch.
    pub fn new() -> PacketBatch {
        PacketBatch::default()
    }

    /// Number of packets queued.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Whether no packets are queued.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Copies one wire packet into the arena.
    pub fn push(&mut self, wire: &[u8]) {
        let start = self.arena.len() as u32;
        self.arena.extend_from_slice(wire);
        self.ranges.push((start, wire.len() as u32));
    }

    /// The pipeline outcome of packet `i` (meaningful once processed).
    pub fn outcome(&self, i: usize) -> &Result<(), SwitchError> {
        &self.outcomes[i]
    }

    /// The deparsed output of packet `i` (meaningful when `outcome(i)` is
    /// `Ok`).
    pub fn output(&self, i: usize) -> &[u8] {
        &self.outs[i]
    }

    /// Shapes the scratch packet and sizes the parallel vectors for
    /// `len()` packets against `slots`. Cheap when already shaped:
    /// `ensure_slots` is one pointer comparison per batch.
    pub(crate) fn prepare(&mut self, slots: &Arc<SlotTable>) {
        let n = self.ranges.len();
        if self.pkts.is_empty() {
            self.pkts.push(Packet::with_slots(Arc::clone(slots)));
        }
        self.pkts[0].ensure_slots(slots);
        if self.outs.len() < n {
            self.outs.resize_with(n, Vec::new);
        }
        self.outcomes.resize(n, Ok(()));
    }

    /// Split-borrows slot `i` into `(wire, scratch packet, output)` — the
    /// three disjoint pieces one pipeline run needs.
    pub(crate) fn slot_mut(&mut self, i: usize) -> (&[u8], &mut Packet, &mut Vec<u8>) {
        let (s, l) = self.ranges[i];
        (&self.arena[s as usize..(s + l) as usize], &mut self.pkts[0], &mut self.outs[i])
    }

    /// Records packet `i`'s pipeline outcome.
    pub(crate) fn set_outcome(&mut self, i: usize, r: Result<(), SwitchError>) {
        self.outcomes[i] = r;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl PacketBatch {
        /// Clears the queued packets while keeping every allocation (arena,
        /// scratch packet, output buffers) in place for the next batch.
        pub(crate) fn clear(&mut self) {
            self.arena.clear();
            self.ranges.clear();
            for o in &mut self.outs {
                o.clear();
            }
            self.outcomes.clear();
        }
    }

    #[test]
    fn arena_is_contiguous_and_ranges_index_it() {
        let mut b = PacketBatch::new();
        b.push(&[1, 2, 3]);
        b.push(&[]);
        b.push(&[4, 5]);
        assert_eq!(b.len(), 3);
        b.prepare(&Arc::new(SlotTable::default()));
        assert_eq!(b.slot_mut(0).0, &[1, 2, 3]);
        assert_eq!(b.slot_mut(1).0, &[] as &[u8]);
        assert_eq!(b.slot_mut(2).0, &[4, 5]);
    }

    #[test]
    fn clear_keeps_output_allocations() {
        let mut b = PacketBatch::new();
        b.push(&[9]);
        b.prepare(&Arc::new(SlotTable::default()));
        b.outs[0].extend_from_slice(&[7, 7]);
        b.clear();
        assert!(b.is_empty());
        b.push(&[1]);
        b.prepare(&Arc::new(SlotTable::default()));
        assert!(b.output(0).is_empty() && b.outs[0].capacity() >= 2);
    }
}
