//! Typed index handles and index-keyed vectors.
//!
//! The IR, the P4 AST, and the Tofino allocator all use arena-style storage
//! where entities are referenced by dense integer indices. [`define_index!`](crate::define_index)
//! generates a newtype per entity kind so that a block index can never be
//! confused with an instruction index, and [`IndexVec`] provides a vector
//! indexed by such a newtype.

use std::marker::PhantomData;

/// Trait implemented by index newtypes created with [`define_index!`](crate::define_index).
pub trait Idx: Copy + Eq + std::hash::Hash + std::fmt::Debug + 'static {
    /// Constructs from a raw `usize`.
    fn from_usize(i: usize) -> Self;
    /// The raw index value.
    fn index(self) -> usize;
}

/// Defines a `Copy` index newtype implementing [`Idx`].
///
/// ```
/// netcl_util::define_index!(BlockId, "bb");
/// let b = BlockId::from_usize(3);
/// assert_eq!(format!("{b:?}"), "bb3");
/// # use netcl_util::idx::Idx;
/// assert_eq!(b.index(), 3);
/// ```
#[macro_export]
macro_rules! define_index {
    ($name:ident, $prefix:expr) => {
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);

        impl $crate::idx::Idx for $name {
            fn from_usize(i: usize) -> Self {
                debug_assert!(i <= u32::MAX as usize);
                $name(i as u32)
            }
            fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}{}", $prefix, self.0)
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}{}", $prefix, self.0)
            }
        }
    };
}

/// A vector indexed by a typed index instead of `usize`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct IndexVec<I: Idx, T> {
    raw: Vec<T>,
    _marker: PhantomData<I>,
}

impl<I: Idx, T: std::fmt::Debug> std::fmt::Debug for IndexVec<I, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.raw.iter()).finish()
    }
}

impl<I: Idx, T> Default for IndexVec<I, T> {
    fn default() -> Self {
        IndexVec { raw: Vec::new(), _marker: PhantomData }
    }
}

impl<I: Idx, T> IndexVec<I, T> {
    /// Creates an empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an element, returning its typed index.
    pub fn push(&mut self, value: T) -> I {
        let idx = I::from_usize(self.raw.len());
        self.raw.push(value);
        idx
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Iterates over `(index, &element)` pairs.
    pub fn iter_enumerated(&self) -> impl Iterator<Item = (I, &T)> {
        self.raw.iter().enumerate().map(|(i, t)| (I::from_usize(i), t))
    }

    /// Iterates over elements.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.raw.iter()
    }

    /// Iterates mutably over elements.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.raw.iter_mut()
    }

    /// Iterates over all valid indices.
    pub fn indices(&self) -> impl Iterator<Item = I> + 'static {
        (0..self.raw.len()).map(I::from_usize)
    }

    /// Borrow element if in range.
    pub fn get(&self, i: I) -> Option<&T> {
        self.raw.get(i.index())
    }

    /// Borrow element mutably if in range.
    pub fn get_mut(&mut self, i: I) -> Option<&mut T> {
        self.raw.get_mut(i.index())
    }

    /// The underlying slice.
    pub fn as_slice(&self) -> &[T] {
        &self.raw
    }
}

impl<I: Idx, T> std::ops::Index<I> for IndexVec<I, T> {
    type Output = T;
    fn index(&self, i: I) -> &T {
        &self.raw[i.index()]
    }
}

impl<I: Idx, T> std::ops::IndexMut<I> for IndexVec<I, T> {
    fn index_mut(&mut self, i: I) -> &mut T {
        &mut self.raw[i.index()]
    }
}

impl<I: Idx, T> FromIterator<T> for IndexVec<I, T> {
    fn from_iter<It: IntoIterator<Item = T>>(iter: It) -> Self {
        IndexVec { raw: iter.into_iter().collect(), _marker: PhantomData }
    }
}

impl<'a, I: Idx, T> IntoIterator for &'a IndexVec<I, T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.raw.iter()
    }
}

#[cfg(test)]
#[allow(unreachable_pub)]
mod tests {
    use super::*;

    define_index!(TestId, "t");

    #[test]
    fn push_returns_sequential_indices() {
        let mut v: IndexVec<TestId, &str> = IndexVec::new();
        let a = v.push("a");
        let b = v.push("b");
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(v[a], "a");
        assert_eq!(v[b], "b");
    }

    #[test]
    fn iter_enumerated_pairs() {
        let v: IndexVec<TestId, u32> = [10, 20].into_iter().collect();
        let pairs: Vec<_> = v.iter_enumerated().map(|(i, &x)| (i.index(), x)).collect();
        assert_eq!(pairs, vec![(0, 10), (1, 20)]);
    }

    #[test]
    fn debug_format_uses_prefix() {
        assert_eq!(format!("{:?}", TestId(5)), "t5");
    }
}
