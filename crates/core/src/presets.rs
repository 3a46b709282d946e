//! PAPI preset events and their hybrid "derived-add" expansion.
//!
//! Presets (`PAPI_TOT_INS`, `PAPI_L3_TCM`, …) let users name common
//! quantities without knowing vendor event spellings. On a homogeneous
//! machine a preset maps to one native event. On a hybrid machine the
//! paper's §V.2 plan applies: the preset becomes a *derived* event that
//! opens the equivalent native event on **every** core-type PMU and sums
//! the results — `PAPI_TOT_INS = adl_glc::INST_RETIRED:ANY +
//! adl_grt::INST_RETIRED:ANY` — so users do not have to care that they are
//! on a hybrid machine.
//!
//! Each preset's natives live in one place, the preset table
//! ([`crate::preset_table::BUILTIN_CSV`]), keyed by `papi_name()`: vendor-
//! generic *unprefixed* native names, which `pfmlib` resolves per default
//! PMU. A preset is unavailable on machines where no default PMU has the
//! native event (e.g. `PAPI_REF_CYC` on ARM).

/// The preset events this implementation defines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Preset {
    /// Total retired instructions.
    TotIns,
    /// Total cycles.
    TotCyc,
    /// Reference cycles (Intel only).
    RefCyc,
    /// Branch instructions.
    BrIns,
    /// Mispredicted branches.
    BrMsp,
    /// L1 data cache misses.
    L1Dcm,
    /// L2 total accesses.
    L2Tca,
    /// L2 total misses.
    L2Tcm,
    /// L3 (last-level) total accesses.
    L3Tca,
    /// L3 (last-level) total misses.
    L3Tcm,
    /// Double-precision FLOPs.
    FpOps,
    /// Vector/SIMD instructions.
    VecIns,
    /// Cycles stalled on any resource (memory in this model).
    ResStl,
    /// Data TLB misses.
    TlbDm,
    /// Context switches (software event, kernel-counted).
    CtxSw,
    /// Cross-CPU migrations (software event).
    CpuMig,
    /// Minor page faults (software event).
    PgFlt,
    /// Task clock: wall time the target ran, ns (software event).
    TskClk,
}

/// All presets, for enumeration APIs.
pub const ALL_PRESETS: &[Preset] = &[
    Preset::TotIns,
    Preset::TotCyc,
    Preset::RefCyc,
    Preset::BrIns,
    Preset::BrMsp,
    Preset::L1Dcm,
    Preset::L2Tca,
    Preset::L2Tcm,
    Preset::L3Tca,
    Preset::L3Tcm,
    Preset::FpOps,
    Preset::VecIns,
    Preset::ResStl,
    Preset::TlbDm,
    Preset::CtxSw,
    Preset::CpuMig,
    Preset::PgFlt,
    Preset::TskClk,
];

impl Preset {
    /// The classic PAPI name.
    pub fn papi_name(self) -> &'static str {
        match self {
            Preset::TotIns => "PAPI_TOT_INS",
            Preset::TotCyc => "PAPI_TOT_CYC",
            Preset::RefCyc => "PAPI_REF_CYC",
            Preset::BrIns => "PAPI_BR_INS",
            Preset::BrMsp => "PAPI_BR_MSP",
            Preset::L1Dcm => "PAPI_L1_DCM",
            Preset::L2Tca => "PAPI_L2_TCA",
            Preset::L2Tcm => "PAPI_L2_TCM",
            Preset::L3Tca => "PAPI_L3_TCA",
            Preset::L3Tcm => "PAPI_L3_TCM",
            Preset::FpOps => "PAPI_FP_OPS",
            Preset::VecIns => "PAPI_VEC_INS",
            Preset::ResStl => "PAPI_RES_STL",
            Preset::TlbDm => "PAPI_TLB_DM",
            Preset::CtxSw => "PAPI_CTX_SW",
            Preset::CpuMig => "PAPI_CPU_MIG",
            Preset::PgFlt => "PAPI_PG_FLT",
            Preset::TskClk => "PAPI_TSK_CLK",
        }
    }

    /// Parse a `PAPI_*` name.
    pub fn from_papi_name(name: &str) -> Option<Preset> {
        ALL_PRESETS
            .iter()
            .copied()
            .find(|p| p.papi_name() == name.to_ascii_uppercase())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for &p in ALL_PRESETS {
            assert_eq!(Preset::from_papi_name(p.papi_name()), Some(p));
        }
        assert_eq!(Preset::from_papi_name("papi_tot_ins"), Some(Preset::TotIns));
        assert_eq!(Preset::from_papi_name("PAPI_NOPE"), None);
    }
}
