//! The event queue: a heap of 32-byte keys over a slab of payloads.
//!
//! Invariants:
//! - Pop order is `(time, EventSrc)` order. [`Key`] packs an [`EventSrc`]
//!   into two plain words, injectively, whose lexicographic order is the
//!   enum's derived order — `Control` < `External` < `Node(Host)` <
//!   `Node(Device)`, then id, then counter. Keys are unique (`sim/mod.rs`),
//!   so the order is total, the slot number never decides a comparison, and
//!   any priority queue over it pops the same sequence.
//! - Every key in the heap names one full slab cell, and no two the same
//!   one. The other cells are threaded on the free list, so the slab grows
//!   to the high-water mark of live events and is reused from then on: a
//!   sift moves keys only, and a payload stays put from `push` to `pop`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::EventSrc;
use crate::topo::NodeId;

/// What the heap orders and sifts: when, the packed [`EventSrc`], and where
/// the payload waits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(super) struct Key {
    pub(super) time: u64,
    /// Key shape (the variant order above) in the high half, node id in the low.
    who: u64,
    /// The variant's counter or index.
    seq: u64,
    slot: u32,
}

const _: () = assert!(std::mem::size_of::<Reverse<Key>>() <= 32);

impl Key {
    fn new(time: u64, src: EventSrc, slot: u32) -> Key {
        let (who, seq) = match src {
            EventSrc::Control(i) => (0, i),
            EventSrc::External(i) => (1 << 32, i),
            EventSrc::Node(NodeId::Host(h), c) => (2 << 32 | h as u64, c),
            EventSrc::Node(NodeId::Device(d), c) => (3 << 32 | d as u64, c),
        };
        Key { time, who, seq, slot }
    }
}

enum Cell<T> {
    Full(T),
    /// Empty; the next empty cell, or the slab's length after the last.
    Free(u32),
}

/// A priority queue of `T`s popped in `(time, EventSrc)` order.
pub(super) struct EventQueue<T> {
    heap: BinaryHeap<Reverse<Key>>,
    slab: Vec<Cell<T>>,
    /// Head of the free list; the slab's length when every cell is full
    /// (it cannot grow while a free cell holds that as its link).
    free: u32,
}

impl<T> EventQueue<T> {
    pub(super) fn new() -> EventQueue<T> {
        EventQueue { heap: BinaryHeap::new(), slab: Vec::new(), free: 0 }
    }

    pub(super) fn push(&mut self, time: u64, src: EventSrc, payload: T) {
        let slot = self.free;
        self.heap.push(Reverse(Key::new(time, src, slot)));
        if slot as usize == self.slab.len() {
            self.free += 1;
            return self.slab.push(Cell::Full(payload));
        }
        match std::mem::replace(&mut self.slab[slot as usize], Cell::Full(payload)) {
            Cell::Free(next) => self.free = next,
            Cell::Full(_) => unreachable!("the free list names empty cells only"),
        }
    }

    /// The earliest event: its key and its own payload.
    pub(super) fn pop(&mut self) -> Option<(Key, T)> {
        let Reverse(key) = self.heap.pop()?;
        let cell = std::mem::replace(&mut self.slab[key.slot as usize], Cell::Free(self.free));
        self.free = key.slot;
        match cell {
            Cell::Full(payload) => Some((key, payload)),
            Cell::Free(_) => unreachable!("a queued key names a full cell"),
        }
    }

    /// Time of the earliest event.
    pub(super) fn next_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(k)| k.time)
    }

    pub(super) fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Every key shape, with ids and counters at both ends of their range so
    /// a field spilling into its neighbor's bits would reorder something.
    fn src() -> impl Strategy<Value = EventSrc> {
        let edge = |max: u64| prop_oneof![0..4u64, max - 3..=max];
        prop_oneof![
            edge(u64::MAX).prop_map(EventSrc::Control),
            (0..4u64).prop_map(|i| EventSrc::Control(super::super::RULE_UPDATE_KEY_BIT | i)),
            edge(u64::MAX).prop_map(EventSrc::External),
            (edge(u32::MAX as u64), edge(u64::MAX))
                .prop_map(|(h, c)| EventSrc::Node(NodeId::Host(h as u32), c)),
            (edge(u16::MAX as u64), edge(u64::MAX))
                .prop_map(|(d, c)| EventSrc::Node(NodeId::Device(d as u16), c)),
        ]
    }

    proptest! {
        /// The packing is the derived order, and injective.
        #[test]
        fn packed_keys_compare_as_time_and_src(a in (0..3u64, src()), b in (0..3u64, src())) {
            prop_assert_eq!(Key::new(a.0, a.1, 7).cmp(&Key::new(b.0, b.1, 7)), a.cmp(&b));
        }

        /// The queue against the heap it replaced, fed one interleaving of
        /// pushes and pops (a third of the steps, then until empty): times
        /// with heavy ties that may lie below the current minimum (a driver
        /// may inject in the past), every key shape. Same key sequence, and
        /// each key comes back with the payload it was pushed with.
        #[test]
        fn pops_what_a_heap_of_time_src_pairs_pops(
            ops in proptest::collection::vec((0..3u8, 0..4u64, src()), 1..200),
        ) {
            let mut queue = EventQueue::new();
            let mut oracle = BinaryHeap::new();
            let mut payload_of = BTreeMap::new();
            let drain = ops.len();
            let pops = std::iter::repeat_n(None, drain);
            for (i, op) in ops.into_iter().map(Some).chain(pops).enumerate() {
                match op {
                    // Keys are unique in the simulator: a repeat pops instead.
                    Some((1.., t, s)) if !payload_of.contains_key(&(t, s)) => {
                        payload_of.insert((t, s), i);
                        oracle.push(Reverse((t, s)));
                        queue.push(t, s, i);
                    }
                    _ => {
                        prop_assert_eq!(queue.len(), oracle.len());
                        prop_assert_eq!(queue.next_time(), oracle.peek().map(|r| r.0 .0));
                        let want = oracle.pop().map(|Reverse(k): Reverse<(u64, EventSrc)>| {
                            (Key::new(k.0, k.1, 0), payload_of.remove(&k).expect("pushed"))
                        });
                        let got = queue.pop().map(|(k, payload)| (Key { slot: 0, ..k }, payload));
                        prop_assert_eq!(got, want);
                    }
                }
            }
            prop_assert_eq!(queue.len(), 0);
        }
    }
}
