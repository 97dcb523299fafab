//! Every code listing in the paper compiles through the full pipeline.

mod listings;

use netcl::{CompileOptions, Compiler, EmitTarget};

fn compiles(src: &str) {
    Compiler::new(CompileOptions::default())
        .compile("listing.ncl", src)
        .unwrap_or_else(|e| panic!("{e}"));
}

/// Figure 4 — the complete NetCL device code for the in-network cache.
#[test]
fn figure_4() {
    compiles(listings::FIGURE_4);
}

/// Figure 7 — in-network AllReduce, exactly as printed (including the
/// `cnt == 1` decision; see DESIGN.md §8 for why the shipped AGG app uses a
/// retransmission-safe variant).
#[test]
fn figure_7() {
    compiles(listings::FIGURE_7);
}

/// §V-A specification examples — all four kernels, with the specs the paper
/// derives.
#[test]
fn section_5a_specifications() {
    let unit =
        Compiler::new(CompileOptions::default()).compile("spec.ncl", listings::SECTION_5A).unwrap();
    let specs: Vec<String> =
        unit.model.kernels.iter().map(|k| k.specification().describe()).collect();
    assert_eq!(specs[0], "[3][int32_t]");
    assert_eq!(specs[1], "[4][int32_t]");
    assert_eq!(specs[2], "[4][int32_t]");
    assert_eq!(specs[3], "[1,2,1][int32_t,int32_t,int32_t]");
    // b and c could share a computation; a and d could not.
    assert_eq!(specs[1], specs[2]);
    assert_ne!(specs[0], specs[3]);
}

/// §V-B lookup examples.
#[test]
fn section_5b_lookup() {
    compiles(listings::SECTION_5B);
}

/// §V-C multi-location example (valid variant) and Fig. 11's placement
/// shape.
#[test]
fn section_5c_placement() {
    let unit = Compiler::new(CompileOptions::default())
        .compile("place.ncl", listings::SECTION_5C)
        .unwrap();
    assert_eq!(unit.devices.len(), 2);

    // Figure 11's memory layout compiles at all five locations.
    compiles(&netcl_apps::paxos::full_source());
}

/// §V-D kernel `b` — valid mutually-exclusive access — compiles for Tofino;
/// kernel `a` (same-path double access) is rejected with E0302.
#[test]
fn section_5d_memory_rules() {
    compiles(listings::SECTION_5D_MEMORY);
    let err = Compiler::new(CompileOptions { target: EmitTarget::Tna, ..Default::default() })
        .compile("a.ncl", "_net_ int m[42];\n_kernel(2) void a(int x, int &o) { o = m[0] + m[1]; }")
        .unwrap_err();
    assert!(err.codes.iter().any(|c| c == "E0302"));
}

/// §V-D ordering example: reorderable operand order is accepted, dependent
/// reversed order is rejected.
#[test]
fn section_5d_ordering() {
    compiles(listings::SECTION_5D_ORDERING);
    let err = Compiler::new(CompileOptions { target: EmitTarget::Tna, ..Default::default() })
        .compile(
            "a.ncl",
            r#"
_net_ int m1[42];
_net_ int m2[42];
_kernel(1) void a(int x, int &o) {
  int y = 0;
  if (x > 10) { y = m1[0]; y = m2[y & 41]; }
  else        { y = m2[0]; y = m1[y & 41]; }
  o = y;
}
"#,
        )
        .unwrap_err();
    assert!(err.codes.iter().any(|c| c == "E0304"), "{:?}", err.codes);
}
