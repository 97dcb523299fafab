//! Tenant namespacing conventions (DESIGN.md §17).
//!
//! Multi-tenant merging prefixes every global (register, `_managed_`
//! scalar/array, `_lookup_` table) and kernel of a tenant's module with
//! `t<id>__` before independently-compiled programs are combined into one
//! pipeline. The prefix is chosen to survive the code generator's
//! identifier sanitization (`[a-zA-Z0-9_]` passes through unchanged), so
//! every layer downstream — the Tofino allocator, the bmv2 counters, the
//! runtime control plane — can recover the owning tenant from a name
//! alone. Lookup MATs materialize as `lu_<global>_<site>`, so a table
//! named `lu_t3__cache_0` also resolves to tenant 3.

/// The namespace prefix for tenant `id`: `t<id>__`.
pub fn prefix(id: u16) -> String {
    format!("t{id}__")
}

/// Applies the tenant prefix to a source-level name, in one allocation.
pub fn apply(id: u16, name: &str) -> String {
    use std::fmt::Write;
    // `t`, at most five digits, `__`.
    let mut s = String::with_capacity(8 + name.len());
    let _ = write!(s, "t{id}__{name}");
    s
}

/// Recovers the tenant id from a namespaced name, if any.
///
/// Accepts both raw global/kernel names (`t3__cms__0`) and generated MAT
/// names (`lu_t3__cache_0`). Names without the `t<digits>__` shape belong
/// to no tenant.
pub fn of(name: &str) -> Option<u16> {
    let s = name.strip_prefix("lu_").unwrap_or(name);
    let rest = s.strip_prefix('t')?;
    let digits: &str =
        &rest[..rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len()];
    if digits.is_empty() {
        return None;
    }
    let tail = &rest[digits.len()..];
    if !tail.starts_with("__") {
        return None;
    }
    digits.parse().ok()
}

/// Strips the tenant prefix, returning `(tenant, bare name)`; names
/// without a prefix come back unchanged with no tenant.
pub fn strip(name: &str) -> (Option<u16>, &str) {
    match of(name) {
        Some(id) => {
            let p = prefix(id);
            match name.strip_prefix(&p) {
                Some(rest) => (Some(id), rest),
                // `lu_`-prefixed MAT names keep their full shape: the
                // caller wants the table name, not the source global.
                None => (Some(id), name),
            }
        }
        None => (None, name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        assert_eq!(apply(0, "cache"), "t0__cache");
        assert_eq!(of("t0__cache"), Some(0));
        assert_eq!(of("t17__cms__2"), Some(17));
        assert_eq!(strip("t17__cms__2"), (Some(17), "cms__2"));
    }

    #[test]
    fn lookup_mat_names_resolve() {
        assert_eq!(of("lu_t3__cache_0"), Some(3));
        assert_eq!(of("lu_cache_0"), None);
    }

    #[test]
    fn non_tenant_names_pass_through() {
        assert_eq!(of("cache"), None);
        assert_eq!(of("t__x"), None);
        assert_eq!(of("t3_x"), None);
        assert_eq!(of("table0"), None);
        assert_eq!(strip("cache"), (None, "cache"));
    }
}
