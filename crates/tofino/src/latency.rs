//! Per-packet latency model (Fig. 13).
//!
//! Tofino's fixed pipeline makes per-packet latency a deterministic
//! function of the enabled components: parser → N match-action stages →
//! deparser → traffic manager → egress parser/deparser (we measure the
//! worst case, i.e. *no egress bypass*, as the paper does). Differences
//! between programs come only from the number of stages their logic
//! occupies — which is why the paper's NetCL-vs-handwritten deltas are
//! "in the order of 10s of cycles".

use crate::spec::TofinoSpec;

/// Worst-case (no egress bypass) pipeline transit: `(cycles, nanoseconds)`.
pub(crate) fn pipeline_latency(spec: &TofinoSpec, stages_used: u32) -> (u32, f64) {
    let ingress = spec.parser_cycles + stages_used * spec.stage_cycles + spec.deparser_cycles;
    // No egress bypass: the packet traverses the egress pipe's parser and
    // deparser even when no egress logic is enabled.
    let egress = spec.parser_cycles + spec.deparser_cycles;
    let cycles = ingress + spec.tm_cycles + egress;
    (cycles, cycles as f64 / spec.clock_hz * 1e9)
}

/// Convenience: latency in nanoseconds for a stage count on Tofino 1.
pub fn latency_ns(stages_used: u32) -> f64 {
    pipeline_latency(&TofinoSpec::tofino1(), stages_used).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_in_stages() {
        let spec = TofinoSpec::tofino1();
        let (_, l4) = pipeline_latency(&spec, 4);
        let (_, l12) = pipeline_latency(&spec, 12);
        assert!(l12 > l4);
        // Whole-pipe worst case stays below 1 µs (Fig. 13: "in all cases,
        // total latency is well below 1µs").
        assert!(l12 < 1000.0, "{l12} ns");
    }

    #[test]
    fn stage_delta_is_tens_of_cycles() {
        let spec = TofinoSpec::tofino1();
        let (c5, _) = pipeline_latency(&spec, 5);
        let (c8, _) = pipeline_latency(&spec, 8);
        let delta = c8 - c5;
        assert!((10..=100).contains(&delta), "{delta} cycles");
    }
}
