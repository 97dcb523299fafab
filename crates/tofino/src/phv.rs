//! PHV accounting (Table VI).
//!
//! Everything the pipeline carries between stages lives on the Packet
//! Header Vector: parsed header fields (including every header-stack
//! element) and compiler metadata (instruction-result temporaries, local
//! variables). Container granularity is modeled by rounding each field up
//! to the smallest 8/16/32-bit container — the dominant effect behind the
//! paper's "NetCL is within 2% of handwritten" observation.

use crate::report::PhvReport;
use crate::spec::TofinoSpec;
use netcl_p4::ast::P4Program;

/// Rounds a field width up to its PHV container size.
pub(crate) fn container_bits(width: u32) -> u32 {
    match width {
        0 => 0,
        1..=8 => 8,
        9..=16 => 16,
        17..=32 => 32,
        // Wide fields span multiple 32-bit containers.
        w => w.div_ceil(32) * 32,
    }
}

/// Accounts a program's PHV demand.
pub(crate) fn account(program: &P4Program, spec: &TofinoSpec) -> PhvReport {
    let mut header_bits = 0u32;
    for h in program.headers.iter() {
        let one: u32 = h.fields.iter().map(|(_, w)| container_bits(*w)).sum();
        header_bits += one * h.stack.max(1);
        // Validity bit per header instance.
        header_bits += h.stack.max(1);
    }
    // Single-bit flags pack eight to a byte container; wider fields round
    // up to their own container.
    let mut metadata_bits = 0u32;
    let mut flags = 0u32;
    for c in program.controls.iter() {
        for (_, w) in &c.locals {
            if *w == 1 {
                flags += 1;
            } else {
                metadata_bits += container_bits(*w);
            }
        }
    }
    metadata_bits += flags.div_ceil(8) * 8;
    PhvReport { header_bits, metadata_bits, capacity_bits: spec.phv_bits }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcl_p4::parse::parse_program;

    #[test]
    fn container_rounding() {
        assert_eq!(container_bits(1), 8);
        assert_eq!(container_bits(8), 8);
        assert_eq!(container_bits(9), 16);
        assert_eq!(container_bits(32), 32);
        assert_eq!(container_bits(48), 64);
        assert_eq!(container_bits(0), 0);
    }

    #[test]
    fn accounts_stacks_and_metadata() {
        let p = parse_program(
            "header v_t { bit<32> value; }
            struct headers_t { v_t[32] v; }
            control Ig(inout headers_t hdr, inout metadata_t meta) { bit<1> a; bit<16> b; apply { } }",
        )
        .unwrap();
        let r = account(&p, &TofinoSpec::tofino1());
        // 32 × 32 bits + 32 validity bits.
        assert_eq!(r.header_bits, 32 * 32 + 32);
        // 1-bit local rounds to an 8-bit container.
        assert_eq!(r.metadata_bits, 8 + 16);
        assert!(r.percent() > 25.0);
    }
}
