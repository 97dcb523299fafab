//! Allocation results: the data behind Tables V, VI, and Fig. 13.

use std::sync::Arc;

use crate::spec::TofinoSpec;

/// The four per-stage resources Table V reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ResourceKind {
    /// Exact-match and register SRAM.
    Sram,
    /// Ternary/range/LPM TCAM.
    Tcam,
    /// Stateful ALUs.
    Salus,
    /// VLIW action slots.
    Vliw,
}

impl ResourceKind {
    /// All kinds in Table V order.
    pub(crate) fn all() -> [ResourceKind; 4] {
        [ResourceKind::Sram, ResourceKind::Tcam, ResourceKind::Salus, ResourceKind::Vliw]
    }

    /// Display label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            ResourceKind::Sram => "SRAM",
            ResourceKind::Tcam => "TCAM",
            ResourceKind::Salus => "SALUs",
            ResourceKind::Vliw => "VLIW",
        }
    }
}

/// Resource consumption of a single stage.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StageUse {
    /// SRAM bits.
    pub sram_bits: u64,
    /// TCAM bits.
    pub tcam_bits: u64,
    /// SALUs.
    pub salus: u32,
    /// VLIW slots.
    pub vliw: u32,
    /// Hash units.
    pub hash_units: u32,
    /// Logical tables.
    pub tables: u32,
}

impl StageUse {
    /// True when nothing is placed here.
    pub fn is_empty(&self) -> bool {
        *self == StageUse::default()
    }
}

/// PHV accounting (Table VI).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhvReport {
    /// Header bits carried (incl. stacks).
    pub header_bits: u32,
    /// Metadata (compiler local) bits.
    pub metadata_bits: u32,
    /// Capacity.
    pub capacity_bits: u32,
}

impl PhvReport {
    /// Total occupied bits.
    pub(crate) fn used_bits(&self) -> u32 {
        self.header_bits + self.metadata_bits
    }

    /// Occupancy percentage.
    pub fn percent(&self) -> f64 {
        100.0 * self.used_bits() as f64 / self.capacity_bits.max(1) as f64
    }
}

/// Pipe-total resources attributed to one tenant's namespaced units
/// (DESIGN.md §17). Filled by the allocator whether or not budgets are
/// enforced; the placement planner packs switches from these footprints.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantUsage {
    /// The tenant id recovered from `t<id>__` prefixes.
    pub tenant: u16,
    /// SRAM bits (registers + exact-match tables).
    pub sram_bits: u64,
    /// TCAM bits (ternary/range/LPM tables).
    pub tcam_bits: u64,
    /// Stateful ALUs.
    pub salus: u32,
    /// Logical tables.
    pub tables: u32,
    /// First stage any of this tenant's units occupies.
    pub first_stage: u32,
    /// Last stage any of this tenant's units occupies.
    pub last_stage: u32,
}

impl TenantUsage {
    /// Inclusive stage span.
    pub(crate) fn stage_span(&self) -> u32 {
        self.last_stage - self.first_stage + 1
    }
}

/// The full fit report.
#[derive(Clone, Debug, PartialEq)]
pub struct AllocationReport {
    /// Program name.
    pub(crate) program: String,
    /// Stages actually used (highest occupied stage + 1).
    pub stages_used: u32,
    /// Per-stage consumption (length = spec.stages), shared by the reports
    /// the fit memo hands out for one program's parts.
    pub per_stage: Arc<[StageUse]>,
    /// PHV occupancy.
    pub phv: PhvReport,
    /// The spec allocated against.
    pub(crate) spec: TofinoSpec,
    /// Worst-case per-packet latency in nanoseconds (no egress bypass).
    pub latency_ns: f64,
    /// Latency in cycles.
    pub latency_cycles: u32,
    /// Per-tenant attribution (empty for single-tenant programs).
    pub tenants: Vec<TenantUsage>,
}

impl AllocationReport {
    /// Pipe-total percentage for a resource (Table V top half).
    pub fn total_percent(&self, kind: ResourceKind) -> f64 {
        let (used, cap): (f64, f64) = match kind {
            ResourceKind::Sram => (
                self.per_stage.iter().map(|s| s.sram_bits).sum::<u64>() as f64,
                (self.spec.sram_bits_per_stage * self.spec.stages as u64) as f64,
            ),
            ResourceKind::Tcam => (
                self.per_stage.iter().map(|s| s.tcam_bits).sum::<u64>() as f64,
                (self.spec.tcam_bits_per_stage * self.spec.stages as u64) as f64,
            ),
            ResourceKind::Salus => (
                self.per_stage.iter().map(|s| s.salus).sum::<u32>() as f64,
                (self.spec.salus_per_stage * self.spec.stages) as f64,
            ),
            ResourceKind::Vliw => (
                self.per_stage.iter().map(|s| s.vliw).sum::<u32>() as f64,
                (self.spec.vliw_per_stage * self.spec.stages) as f64,
            ),
        };
        100.0 * used / cap.max(1.0)
    }

    /// Worst single-stage percentage (Table V bottom half).
    pub fn worst_stage_percent(&self, kind: ResourceKind) -> f64 {
        self.per_stage
            .iter()
            .map(|s| {
                let (used, cap): (f64, f64) = match kind {
                    ResourceKind::Sram => {
                        (s.sram_bits as f64, self.spec.sram_bits_per_stage as f64)
                    }
                    ResourceKind::Tcam => {
                        (s.tcam_bits as f64, self.spec.tcam_bits_per_stage as f64)
                    }
                    ResourceKind::Salus => (s.salus as f64, self.spec.salus_per_stage as f64),
                    ResourceKind::Vliw => (s.vliw as f64, self.spec.vliw_per_stage as f64),
                };
                100.0 * used / cap.max(1.0)
            })
            .fold(0.0, f64::max)
    }

    /// True when the program uses no TCAM at all (the AGG observation in
    /// Table V: conditions evaluated inside SALUs free the TCAM for L3).
    pub fn tcam_free(&self) -> bool {
        self.per_stage.iter().all(|s| s.tcam_bits == 0)
    }

    /// This report under `program`'s name: what the fit memo hands out. The
    /// stages are shared; nothing else holds a heap block but the name and
    /// a tenant attribution.
    pub(crate) fn named(&self, program: &str) -> AllocationReport {
        AllocationReport {
            program: program.to_owned(),
            stages_used: self.stages_used,
            per_stage: Arc::clone(&self.per_stage),
            phv: self.phv.clone(),
            spec: self.spec.clone(),
            latency_ns: self.latency_ns,
            latency_cycles: self.latency_cycles,
            tenants: self.tenants.clone(),
        }
    }

    /// Formats the Table V row pair for this program.
    pub fn table_v_row(&self) -> String {
        let mut out = format!("{:<10} stages={:<2}", self.program, self.stages_used);
        for k in ResourceKind::all() {
            out.push_str(&format!(
                " {}={:.2}%/{:.2}%",
                k.label(),
                self.total_percent(k),
                self.worst_stage_percent(k)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(stages: Vec<StageUse>) -> AllocationReport {
        AllocationReport {
            program: "t".into(),
            stages_used: stages
                .iter()
                .rposition(|s| !s.is_empty())
                .map(|i| i as u32 + 1)
                .unwrap_or(0),
            per_stage: stages.into(),
            phv: PhvReport { header_bits: 200, metadata_bits: 100, capacity_bits: 4096 },
            spec: TofinoSpec::tofino1(),
            latency_ns: 500.0,
            latency_cycles: 600,
            tenants: vec![],
        }
    }

    #[test]
    fn percentages() {
        let spec = TofinoSpec::tofino1();
        let mut stages = vec![StageUse::default(); spec.stages as usize];
        stages[0].salus = 2;
        stages[1].salus = 4;
        let r = report_with(stages);
        // total: 6 of 48 SALUs = 12.5%; worst stage: 4/4 = 100%.
        assert!((r.total_percent(ResourceKind::Salus) - 12.5).abs() < 1e-9);
        assert!((r.worst_stage_percent(ResourceKind::Salus) - 100.0).abs() < 1e-9);
        assert_eq!(r.stages_used, 2);
        assert!(r.tcam_free());
    }

    #[test]
    fn phv_percent() {
        let p = PhvReport { header_bits: 1024, metadata_bits: 0, capacity_bits: 4096 };
        assert!((p.percent() - 25.0).abs() < 1e-9);
    }
}
