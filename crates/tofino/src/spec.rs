//! Pipeline parameters.

/// The modeled switch pipeline.
#[derive(Clone, Debug, PartialEq)]
pub struct TofinoSpec {
    /// Match-action stages per pipe (Tofino 1: 12).
    pub(crate) stages: u32,
    /// SRAM bits per stage (80 blocks × 16 KB ≈ 10 Mb).
    pub(crate) sram_bits_per_stage: u64,
    /// TCAM bits per stage (24 blocks × 512 × 44 b ≈ 540 Kb).
    pub(crate) tcam_bits_per_stage: u64,
    /// Stateful ALUs per stage.
    pub(crate) salus_per_stage: u32,
    /// VLIW action slots per stage.
    pub(crate) vliw_per_stage: u32,
    /// Hash distribution units per stage.
    pub(crate) hash_units_per_stage: u32,
    /// Logical tables per stage.
    pub(crate) tables_per_stage: u32,
    /// Total PHV capacity in bits (64×8b + 96×16b + 64×32b containers).
    pub(crate) phv_bits: u32,
    /// Core clock in Hz.
    pub(crate) clock_hz: f64,
    /// Parser latency in cycles.
    pub(crate) parser_cycles: u32,
    /// Per-stage latency in cycles.
    pub(crate) stage_cycles: u32,
    /// Deparser latency in cycles.
    pub(crate) deparser_cycles: u32,
    /// Traffic-manager transit in cycles (ingress→egress, no bypass).
    pub(crate) tm_cycles: u32,
}

impl TofinoSpec {
    /// Tofino-1-like parameters.
    pub fn tofino1() -> TofinoSpec {
        TofinoSpec {
            stages: 12,
            sram_bits_per_stage: 80 * 16 * 1024 * 8,
            tcam_bits_per_stage: 24 * 512 * 44,
            salus_per_stage: 4,
            vliw_per_stage: 32,
            hash_units_per_stage: 6,
            tables_per_stage: 16,
            phv_bits: 4096,
            clock_hz: 1.22e9,
            parser_cycles: 40,
            stage_cycles: 22,
            deparser_cycles: 30,
            tm_cycles: 120,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tofino1_parameters_sane() {
        let s = TofinoSpec::tofino1();
        assert_eq!(s.stages, 12);
        assert!(s.sram_bits_per_stage > s.tcam_bits_per_stage);
        assert_eq!(s.phv_bits, 4096);
        // Pipeline transit must stay below 1µs (paper Fig. 13).
        let worst = s.parser_cycles + s.stages * s.stage_cycles + s.deparser_cycles + s.tm_cycles;
        let ns = worst as f64 / s.clock_hz * 1e9;
        assert!(ns < 1000.0, "worst pipe transit {ns} ns");
    }
}
