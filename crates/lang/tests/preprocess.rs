//! The one-pass preprocessor against the line-by-line oracle it replaced
//! (`oracle/mod.rs`), on the shipped NetCL sources and on generated inputs
//! whose macros neither refer to themselves nor chain deeper than 16; and
//! its totality on inputs built to break it — self-reference, mutual
//! pairs, doubling chains, unterminated comments and quotes, characters
//! outside ASCII: it never panics and writes at most the source plus
//! [`EXPANSION_LIMIT`] bytes, one line per source line.
//!
//! The root package's `tests/preprocess.rs` runs the same differential
//! over the benchmark's fleet.

mod oracle;

use netcl_lang::{preprocess, EXPANSION_LIMIT};
use netcl_util::{DiagnosticSink, Span};
use proptest::prelude::*;

/// What the oracle writes and reports for `source`.
fn old(source: &str) -> (String, String) {
    let mut diags = DiagnosticSink::new();
    let text = oracle::preprocess(source, &mut diags);
    (text, format!("{:?}", diags.diagnostics()))
}

/// What the one-pass preprocessor writes and reports for `source`.
fn new(source: &str) -> (String, String) {
    let pre = preprocess(source);
    (pre.text, format!("{:?}", pre.diags.diagnostics()))
}

#[test]
fn every_shipped_source_preprocesses_as_before() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../artifacts/netcl_src");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("the shipped sources") {
        let path = entry.expect("a directory entry").path();
        let source = std::fs::read_to_string(&path).expect("UTF-8 source");
        assert_eq!(new(&source), old(&source), "{}", path.display());
        seen += 1;
    }
    assert_eq!(seen, 6);
}

/// The corners the oracle defines by accident and the new pass keeps:
/// identifiers after digits, quotes that run across lines and hide
/// comment starters, directives behind comments or inside quotes, a
/// directive's characters (not bytes) blanked, Unicode whitespace before
/// `#`, and a last line without a newline.
#[test]
fn the_oracles_corners_are_kept() {
    for source in [
        "#define K 9\nint x = 0xK + 12K;\n",
        "#define K 9\nchar c = 'K'; int y = K; // 'K\n",
        "int a = 'x // not a comment\n#define K 1\nK' + K;\n",
        "/* lead */ #define K 2\n  /* a\n */ #define J K\nint z = J;",
        "#define E é é\n\u{3000}#define F E\r\nint w = F;\t\r\n",
        "#  define K 1\n#\n#define\n#define 9X 1\n#define F(x) x\n#undef\nK",
        "#define A /* a\nspans */ 1\nint v = A; /* open",
        "#define B\nint u = B B;\n#undef B\nint t = B;\n'",
        "a/**/b//c\n/*/ still */ d\n/**/",
    ] {
        assert_eq!(new(source), old(source), "{source:?}");
    }
}

/// Draws from `choices`.
fn pick<'a>(rng: &mut TestRng, choices: &[&'a str]) -> &'a str {
    choices[rng.below(choices.len() as u64) as usize]
}

/// Pieces of code lines: identifiers (macro names among them, and names
/// that only contain one), numbers glued to names, punctuation, comments,
/// quotes, `#` and `/` in the middle of a line, and characters outside
/// ASCII. Never the word `define`, so a code line that turns out to be a
/// directive defines nothing.
const CODE: &[&str] = &[
    "M0", "M1", "M2", "M3", "M7", "M11", "xM1", "M1x", "_M2", "12M3", "0xM0", "ncl", "k", "_", " ",
    " ", "  ", "\t", "+", "-", "*", "/", "(", ")", ";", "[", "]", "{", "}", ",", "#", "'", "//",
    "/*", "*/", "\"", "\r", "é", "\u{3000}", "\u{a0}", "undef", "include",
];

/// A generated unit: directives that define macros `M0`–`M11`, each
/// naming only macros of lower index (so none refers to itself and no
/// chain is deeper than 12), `#undef`s, malformed directives, and code
/// lines from [`CODE`].
fn generated(rng: &mut TestRng) -> String {
    let mut src = String::new();
    for _ in 0..rng.below(24) {
        let lead = pick(rng, &["", "", " ", "\t", "/* c */ ", "\u{3000}"]);
        match rng.below(8) {
            0..=2 => {
                let k = rng.below(12);
                src.push_str(&format!("{lead}#define M{k}"));
                for _ in 0..rng.below(5) {
                    let word = match rng.below(4) {
                        0 if k > 0 => format!("M{}", rng.below(k)),
                        1 => pick(rng, &["1", "x", "+", "(", "é", "'", "/*", "//", "*/"]).into(),
                        _ => pick(rng, &["a", "7", "ncl", "M", "*", "-"]).into(),
                    };
                    src.push(' ');
                    src.push_str(&word);
                }
            }
            3 => src.push_str(&format!("{lead}#undef M{}", rng.below(12))),
            4 => src.push_str(pick(rng, &["#pragma x", "#bogus", "#define 1A", "#define F(x) x"])),
            _ => {
                src.push_str(lead);
                for _ in 0..rng.below(12) {
                    src.push_str(pick(rng, CODE));
                }
            }
        }
        src.push_str(pick(rng, &["\n", "\n", "\n", "\r\n", " \n"]));
    }
    if rng.below(2) == 0 {
        src.push_str(pick(rng, CODE));
    }
    src
}

/// A unit built to break a preprocessor: [`generated`] with macros that
/// name themselves, mutual pairs and doubling chains mixed in.
fn hostile(rng: &mut TestRng) -> String {
    let mut src = String::new();
    for _ in 0..rng.below(6) {
        match rng.below(4) {
            0 => src.push_str("#define X X X X\n"),
            1 => src.push_str("#define A 1 + B\n#define B A A\n"),
            2 => {
                let n = 20 + rng.below(30);
                src.push_str("#define D0 y\n");
                for i in 1..n {
                    src.push_str(&format!("#define D{i} D{p} D{p}\n", p = i - 1));
                }
                src.push_str(&format!("D{}\n", n - 1));
            }
            _ => src.push_str(&generated(rng)),
        }
        src.push_str(pick(rng, &["X A B\n", "B D3 X\n", "", "'\n", "/*"]));
    }
    src
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Generated units without self-reference or deep chains: the same
    /// text and the same diagnostics as the oracle.
    #[test]
    fn generated_units_preprocess_as_before(seed in any::<u64>()) {
        let source = generated(&mut TestRng::new(seed));
        prop_assert_eq!(new(&source), old(&source), "{:?}", source);
    }
}

proptest! {
    // A doubling chain writes up to the limit, a mebibyte, per case.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Never a panic; one output line per source line; at most the source
    /// plus the expansion limit; at most one E0008.
    #[test]
    fn preprocess_is_total_and_bounded(seed in any::<u64>()) {
        let source = hostile(&mut TestRng::new(seed));
        let pre = preprocess(&source);
        prop_assert!(pre.text.len() <= source.len() + EXPANSION_LIMIT, "{}", pre.text.len());
        prop_assert_eq!(pre.text.matches('\n').count(), source.matches('\n').count());
        let e0008 = pre.diags.diagnostics().iter().filter(|d| d.code == "E0008").count();
        prop_assert!(e0008 <= 1, "{} E0008", e0008);
    }
}

/// A diagnostic's span is where the oracle puts it: its line, newline
/// included, for a directive; the name, for E0008.
#[test]
fn diagnostics_name_their_lines() {
    let pre = preprocess("int a;\n#bogus\n");
    let [d] = pre.diags.diagnostics() else { panic!("{:?}", pre.diags.diagnostics()) };
    assert_eq!((d.code, d.message.as_str()), ("E0007", "unknown preprocessor directive `#bogus`"));
    assert!(format!("{d:?}").contains("span: 7..14"), "{d:?}");
    let mut src = String::from("#define D0 y\n");
    for i in 1..30 {
        src.push_str(&format!("#define D{i} D{p} D{p}\n", p = i - 1));
    }
    let at = src.len() as u32 + 4;
    src.push_str("int D29;\n");
    let pre = preprocess(&src);
    let [d] = pre.diags.diagnostics() else { panic!("{:?}", pre.diags.diagnostics()) };
    assert_eq!(d.code, "E0008");
    assert!(format!("{d:?}").contains(&format!("span: {at}..{}", at + 3)), "{d:?}");
}
