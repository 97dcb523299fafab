//! Multi-switch tenant placement (DESIGN.md §17).
//!
//! Merging puts several tenants' kernels on one switch; a deployment has
//! several switches. This crate closes the loop: given the per-tenant
//! resource footprints the Tofino allocator reports
//! ([`netcl_tofino::TenantUsage`]), it packs N tenants onto M switches by
//! first-fit-decreasing on each tenant's dominant resource fraction — the
//! classic bin-packing heuristic (≤ 11/9·OPT + 1 bins) — and reports the
//! plan. `crates/bench/tests/tenancy.rs` runs it on the footprints of the
//! real AGG + CACHE merge.
//!
//! The planner is intentionally capacity-based: it treats a switch as a
//! pipe-total pool of SRAM/TCAM/SALUs/tables rather than re-running stage
//! allocation per candidate bin. Callers that need a hard guarantee verify
//! the winning assignment with [`netcl_tofino::allocate_with_budgets`] on
//! the merged program, as `netcl::compile_tenants` does.

use netcl_tofino::{AllocationReport, TenantUsage, TofinoSpec};

/// One tenant's pipe-total resource demand, the planner's packing unit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantFootprint {
    /// The tenant id.
    pub tenant: u16,
    /// SRAM bits.
    pub sram_bits: u64,
    /// TCAM bits.
    pub tcam_bits: u64,
    /// Stateful ALUs.
    pub salus: u32,
    /// Logical tables.
    pub tables: u32,
}

impl TenantFootprint {
    /// Converts one allocator-reported usage row.
    pub fn from_usage(u: &TenantUsage) -> TenantFootprint {
        TenantFootprint {
            tenant: u.tenant,
            sram_bits: u.sram_bits,
            tcam_bits: u.tcam_bits,
            salus: u.salus,
            tables: u.tables,
        }
    }

    /// Extracts every tenant's footprint from an allocation report.
    pub fn from_report(r: &AllocationReport) -> Vec<TenantFootprint> {
        r.tenants.iter().map(TenantFootprint::from_usage).collect()
    }

    /// The largest fraction of a switch this footprint claims on any one
    /// resource — the FFD sort key and the "size" of the item.
    pub fn dominant_fraction(&self, spec: &TofinoSpec) -> f64 {
        let caps = Capacity::of(spec);
        [
            self.sram_bits as f64 / caps.sram_bits.max(1) as f64,
            self.tcam_bits as f64 / caps.tcam_bits.max(1) as f64,
            self.salus as f64 / caps.salus.max(1) as f64,
            self.tables as f64 / caps.tables.max(1) as f64,
        ]
        .into_iter()
        .fold(0.0, f64::max)
    }
}

/// Pipe-total capacity of one switch under `spec`.
#[derive(Clone, Copy, Debug)]
struct Capacity {
    sram_bits: u64,
    tcam_bits: u64,
    salus: u32,
    tables: u32,
}

impl Capacity {
    fn of(spec: &TofinoSpec) -> Capacity {
        Capacity {
            sram_bits: spec.sram_bits_per_stage * spec.stages as u64,
            tcam_bits: spec.tcam_bits_per_stage * spec.stages as u64,
            salus: spec.salus_per_stage * spec.stages,
            tables: spec.tables_per_stage * spec.stages,
        }
    }
}

/// Why a tenant set cannot be placed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlaceError {
    /// A single tenant exceeds one empty switch on its own.
    TooBig {
        /// The tenant.
        tenant: u16,
        /// The resource it overflows.
        resource: &'static str,
        /// Demand.
        needed: u64,
        /// One switch's capacity.
        capacity: u64,
    },
    /// Every switch is too full to take this tenant.
    NoCapacity {
        /// The tenant that did not fit.
        tenant: u16,
        /// Switches available.
        switches: usize,
    },
    /// Two footprints claim the same tenant id.
    DuplicateTenant(u16),
}

impl std::fmt::Display for PlaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlaceError::TooBig { tenant, resource, needed, capacity } => {
                write!(f, "tenant {tenant} needs {needed} {resource} but one switch has {capacity}")
            }
            PlaceError::NoCapacity { tenant, switches } => {
                write!(f, "tenant {tenant} does not fit on any of {switches} switches")
            }
            PlaceError::DuplicateTenant(t) => write!(f, "tenant {t} appears twice"),
        }
    }
}

impl std::error::Error for PlaceError {}

/// One switch's share of the plan.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SwitchPlan {
    /// Switch index (0-based).
    pub switch: usize,
    /// Tenants placed here, in placement order.
    pub tenants: Vec<u16>,
    /// Committed SRAM bits.
    pub sram_bits: u64,
    /// Committed TCAM bits.
    pub tcam_bits: u64,
    /// Committed SALUs.
    pub salus: u32,
    /// Committed logical tables.
    pub tables: u32,
}

impl SwitchPlan {
    fn fits(&self, fp: &TenantFootprint, caps: &Capacity) -> bool {
        self.sram_bits + fp.sram_bits <= caps.sram_bits
            && self.tcam_bits + fp.tcam_bits <= caps.tcam_bits
            && self.salus + fp.salus <= caps.salus
            && self.tables + fp.tables <= caps.tables
    }

    fn commit(&mut self, fp: &TenantFootprint) {
        self.tenants.push(fp.tenant);
        self.sram_bits += fp.sram_bits;
        self.tcam_bits += fp.tcam_bits;
        self.salus += fp.salus;
        self.tables += fp.tables;
    }
}

/// A complete assignment of tenants to switches.
#[derive(Clone, Debug)]
pub struct Placement {
    /// Per-switch plans, indexed by switch id; empty switches are kept so
    /// indices line up with the topology.
    pub switches: Vec<SwitchPlan>,
}

impl Placement {
    /// Switches with at least one tenant.
    pub fn switches_used(&self) -> usize {
        self.switches.iter().filter(|s| !s.tenants.is_empty()).count()
    }

    /// The switch holding `tenant`, if placed.
    pub fn switch_of(&self, tenant: u16) -> Option<usize> {
        self.switches.iter().find(|s| s.tenants.contains(&tenant)).map(|s| s.switch)
    }
}

/// Packs `footprints` onto `n_switches` identical switches of `spec` by
/// first-fit-decreasing on the dominant resource fraction. Deterministic:
/// ties sort by tenant id.
pub fn plan(
    footprints: &[TenantFootprint],
    n_switches: usize,
    spec: &TofinoSpec,
) -> Result<Placement, PlaceError> {
    let caps = Capacity::of(spec);
    for (i, fp) in footprints.iter().enumerate() {
        if footprints[..i].iter().any(|o| o.tenant == fp.tenant) {
            return Err(PlaceError::DuplicateTenant(fp.tenant));
        }
        let too_big = |resource, needed: u64, capacity: u64| PlaceError::TooBig {
            tenant: fp.tenant,
            resource,
            needed,
            capacity,
        };
        if fp.sram_bits > caps.sram_bits {
            return Err(too_big("SRAM bits", fp.sram_bits, caps.sram_bits));
        }
        if fp.tcam_bits > caps.tcam_bits {
            return Err(too_big("TCAM bits", fp.tcam_bits, caps.tcam_bits));
        }
        if fp.salus > caps.salus {
            return Err(too_big("SALUs", fp.salus as u64, caps.salus as u64));
        }
        if fp.tables > caps.tables {
            return Err(too_big("tables", fp.tables as u64, caps.tables as u64));
        }
    }

    let mut order: Vec<&TenantFootprint> = footprints.iter().collect();
    order.sort_by(|a, b| {
        b.dominant_fraction(spec)
            .partial_cmp(&a.dominant_fraction(spec))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.tenant.cmp(&b.tenant))
    });

    let mut switches: Vec<SwitchPlan> =
        (0..n_switches).map(|i| SwitchPlan { switch: i, ..Default::default() }).collect();
    for fp in order {
        let Some(sw) = switches.iter_mut().find(|s| s.fits(fp, &caps)) else {
            return Err(PlaceError::NoCapacity { tenant: fp.tenant, switches: n_switches });
        };
        sw.commit(fp);
    }
    Ok(Placement { switches })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(tenant: u16, salus: u32, sram_kbits: u64) -> TenantFootprint {
        TenantFootprint { tenant, salus, sram_bits: sram_kbits * 1024, ..Default::default() }
    }

    #[test]
    fn ffd_packs_decreasing_and_first_fits() {
        // tiny: 3 stages × 1 SALU = 3 SALUs per switch.
        let spec = TofinoSpec::tiny();
        let fps = [fp(1, 1, 0), fp(2, 2, 0), fp(3, 2, 0), fp(4, 1, 0)];
        let p = plan(&fps, 2, &spec).unwrap();
        // Decreasing: 2, 3, 1, 4 → switch0 gets {2,1}, switch1 gets {3,4}.
        assert_eq!(p.switches[0].tenants, vec![2, 1]);
        assert_eq!(p.switches[1].tenants, vec![3, 4]);
        assert_eq!(p.switches_used(), 2);
        assert_eq!(p.switch_of(3), Some(1));
        assert_eq!(p.switch_of(9), None);
    }

    #[test]
    fn too_big_and_no_capacity_are_structured() {
        let spec = TofinoSpec::tiny();
        let giant = fp(7, 99, 0);
        assert_eq!(
            plan(&[giant], 4, &spec).unwrap_err(),
            PlaceError::TooBig { tenant: 7, resource: "SALUs", needed: 99, capacity: 3 }
        );
        let fits_alone = [fp(1, 3, 0), fp(2, 3, 0), fp(3, 1, 0)];
        assert_eq!(
            plan(&fits_alone, 2, &spec).unwrap_err(),
            PlaceError::NoCapacity { tenant: 3, switches: 2 }
        );
        assert!(plan(&fits_alone, 3, &spec).is_ok());
        assert_eq!(
            plan(&[fp(1, 1, 0), fp(1, 1, 0)], 2, &spec).unwrap_err(),
            PlaceError::DuplicateTenant(1)
        );
    }

    #[test]
    fn empty_plan_and_display() {
        let spec = TofinoSpec::tiny();
        let p = plan(&[], 2, &spec).unwrap();
        assert_eq!(p.switches_used(), 0);
        let e = PlaceError::NoCapacity { tenant: 3, switches: 2 };
        assert!(e.to_string().contains("tenant 3"));
    }
}
