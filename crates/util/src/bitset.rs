//! A compact growable bitset.
//!
//! Used by the dominance computation, liveness in φ-elimination, the Tofino
//! stage allocator (which resources a stage still has free), and by the
//! AllReduce worker bitmaps in tests.

/// Growable bitset backed by `u64` words.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates a bitset with capacity for `len` bits, all clear.
    pub fn new(len: usize) -> Self {
        BitSet { words: vec![0; len.div_ceil(64)], len }
    }

    /// Sets bit `i`, returning whether it changed.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        let (w, b) = (i / 64, i % 64);
        let old = self.words[w];
        self.words[w] |= 1 << b;
        old != self.words[w]
    }

    /// Clears bit `i`, returning whether it changed.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        let (w, b) = (i / 64, i % 64);
        let old = self.words[w];
        self.words[w] &= !(1 << b);
        old != self.words[w]
    }

    /// Whether bit `i` is set.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Grows the bitset to at least `len` bits (new bits clear). Never
    /// shrinks. Lets long-lived sets (e.g. per-packet validity in the
    /// software switch) absorb late-interned indices without reallocation
    /// churn.
    pub fn ensure_len(&mut self, len: usize) {
        if len > self.len {
            self.len = len;
            let words = len.div_ceil(64);
            if words > self.words.len() {
                self.words.resize(words, 0);
            }
        }
    }

    /// Clears every bit.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over set bit indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let len = items.iter().max().map(|&m| m + 1).unwrap_or(0);
        let mut s = BitSet::new(len);
        for i in items {
            s.insert(i);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(129), "second insert reports no change");
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert!(s.remove(64));
        assert!(!s.contains(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn iter_ascending() {
        let s: BitSet = [127usize, 0, 63, 64].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 127]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_insert_panics() {
        BitSet::new(4).insert(4);
    }
}
