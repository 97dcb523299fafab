//! String interning.
//!
//! Identifiers appear everywhere in the AST and IR; interning them lets the
//! rest of the compiler compare names with a `u32` comparison and keeps AST
//! nodes `Copy`-friendly.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Handle to an interned string.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

/// Owning intern table. One per compilation session. Each string is
/// allocated once, shared by the lookup map and the symbol table.
#[derive(Default, Debug)]
pub struct Interner {
    map: HashMap<Arc<str>, Symbol>,
    strings: Vec<Arc<str>>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, returning the existing symbol if already present.
    pub fn intern(&mut self, s: &str) -> Symbol {
        if let Some(&sym) = self.map.get(s) {
            return sym;
        }
        let sym = Symbol(self.strings.len() as u32);
        let s: Arc<str> = s.into();
        self.strings.push(Arc::clone(&s));
        self.map.insert(s, sym);
        sym
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    /// Panics if `sym` was produced by a different interner.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.strings[sym.0 as usize]
    }

    /// Looks up a string without interning it.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        self.map.get(s).copied()
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("cache");
        let b = i.intern("cache");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let mut i = Interner::new();
        let a = i.intern("Agg");
        let b = i.intern("Bitmap");
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "Agg");
        assert_eq!(i.resolve(b), "Bitmap");
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert_eq!(i.get("x"), None);
        let s = i.intern("x");
        assert_eq!(i.get("x"), Some(s));
        assert_eq!(i.len(), 1);
    }
}
