//! Static per-PMU event tables.
//!
//! Mirrors libpfm4's role: a vocabulary of vendor-specific event names
//! (with unit masks) per PMU, mapped to encodings — here, to the
//! architectural events the simulated PMUs count. Naming follows the real
//! tables: Intel hybrid events live under `adl_glc` (Alder/Raptor Lake
//! Golden Cove P-core) and `adl_grt` (Gracemont E-core), exactly the names
//! the paper uses (`adl_glc::INST_RETIRED:ANY`); ARM events use the
//! ARMv8 PMU architectural names (`INST_RETIRED`, `LL_CACHE_MISS_RD`, …).

use simcpu::events::ArchEvent;
use simos::perf::{EventConfig, RaplConfig, UncoreConfig};

/// One unit mask of an event.
#[derive(Debug, Clone, Copy)]
pub struct PfmUmask {
    pub name: &'static str,
    pub desc: &'static str,
    /// Whether this umask is implied when none is given.
    pub is_default: bool,
    /// Encoding override (None = use the event's own encoding).
    pub config: Option<EventConfig>,
}

/// One event table entry.
#[derive(Debug, Clone, Copy)]
pub struct PfmEvent {
    pub name: &'static str,
    pub desc: &'static str,
    pub config: EventConfig,
    pub umasks: &'static [PfmUmask],
}

const fn hw(ev: ArchEvent) -> EventConfig {
    EventConfig::Hw(ev)
}

const NO_UMASKS: &[PfmUmask] = &[];

/// Plain default umask (keeps the event encoding).
const fn um(name: &'static str, desc: &'static str, is_default: bool) -> PfmUmask {
    PfmUmask {
        name,
        desc,
        is_default,
        config: None,
    }
}

/// Umask that switches the encoding.
const fn um_cfg(
    name: &'static str,
    desc: &'static str,
    is_default: bool,
    cfg: EventConfig,
) -> PfmUmask {
    PfmUmask {
        name,
        desc,
        is_default,
        config: Some(cfg),
    }
}

// ---------------------------------------------------------------------------
// Intel hybrid: Golden Cove (P) and Gracemont (E)
// ---------------------------------------------------------------------------

macro_rules! intel_common_events {
    () => {
        &[
            PfmEvent {
                name: "INST_RETIRED",
                desc: "Instructions retired",
                config: hw(ArchEvent::Instructions),
                umasks: &[
                    um("ANY", "all retired instructions (fixed counter)", true),
                    um("ANY_P", "all retired instructions (programmable)", false),
                ],
            },
            PfmEvent {
                name: "CPU_CLK_UNHALTED",
                desc: "Core cycles when not halted",
                config: hw(ArchEvent::Cycles),
                umasks: &[
                    um("THREAD", "core cycles at current frequency", true),
                    um_cfg(
                        "REF_TSC",
                        "reference cycles at TSC rate",
                        false,
                        hw(ArchEvent::RefCycles),
                    ),
                ],
            },
            PfmEvent {
                name: "BR_INST_RETIRED",
                desc: "Branch instructions retired",
                config: hw(ArchEvent::BranchInstructions),
                umasks: &[um("ALL_BRANCHES", "all branches", true)],
            },
            PfmEvent {
                name: "BR_MISP_RETIRED",
                desc: "Mispredicted branches retired",
                config: hw(ArchEvent::BranchMisses),
                umasks: &[um("ALL_BRANCHES", "all mispredicted branches", true)],
            },
            PfmEvent {
                name: "MEM_INST_RETIRED",
                desc: "Memory instructions retired",
                config: hw(ArchEvent::L1dAccesses),
                umasks: &[um("ALL_LOADS", "all retired loads", true)],
            },
            PfmEvent {
                name: "L1D",
                desc: "L1 data cache",
                config: hw(ArchEvent::L1dMisses),
                umasks: &[um("REPLACEMENT", "lines replaced in L1D", true)],
            },
            PfmEvent {
                name: "L2_RQSTS",
                desc: "L2 requests",
                config: hw(ArchEvent::L2Accesses),
                umasks: &[
                    um("REFERENCES", "all L2 requests", true),
                    um_cfg("MISS", "L2 misses", false, hw(ArchEvent::L2Misses)),
                ],
            },
            PfmEvent {
                name: "LONGEST_LAT_CACHE",
                desc: "Last-level cache",
                config: hw(ArchEvent::LlcAccesses),
                umasks: &[
                    um("REFERENCE", "LLC references", true),
                    um_cfg("MISS", "LLC misses", false, hw(ArchEvent::LlcMisses)),
                ],
            },
            PfmEvent {
                name: "CYCLE_ACTIVITY",
                desc: "Stall cycle breakdown",
                config: hw(ArchEvent::MemStallCycles),
                umasks: &[um("STALLS_MEM_ANY", "cycles stalled on memory", true)],
            },
            PfmEvent {
                name: "FP_ARITH_INST_RETIRED",
                desc: "Floating-point operations retired",
                config: hw(ArchEvent::FpOps),
                umasks: &[um("ALL", "scalar + vector DP FLOPs", true)],
            },
            PfmEvent {
                name: "UOPS_RETIRED",
                desc: "Micro-ops retired",
                config: hw(ArchEvent::VectorUops),
                umasks: &[um("VECTOR", "vector micro-ops", true)],
            },
            PfmEvent {
                name: "DTLB_LOAD_MISSES",
                desc: "Data TLB load misses",
                config: hw(ArchEvent::DtlbMisses),
                umasks: &[um("WALK_COMPLETED", "completed page walks", true)],
            },
        ]
    };
}

/// Golden Cove: the common Intel set plus top-down slots, which — as the
/// paper highlights — exists only on the P-core.
pub static ADL_GLC_EVENTS: &[PfmEvent] = {
    const COMMON: &[PfmEvent] = intel_common_events!();
    const EXTRA: PfmEvent = PfmEvent {
        name: "TOPDOWN",
        desc: "Top-down microarchitecture analysis (P-core only)",
        config: hw(ArchEvent::TopdownSlots),
        umasks: &[um("SLOTS", "total pipeline slots", true)],
    };
    // Concatenate at compile time.
    const ALL: [PfmEvent; 13] = {
        let mut out = [EXTRA; 13];
        let mut i = 0;
        while i < 12 {
            out[i] = COMMON[i];
            i += 1;
        }
        out[12] = EXTRA;
        out
    };
    &ALL
};

/// Gracemont: the common Intel set (no TOPDOWN).
pub static ADL_GRT_EVENTS: &[PfmEvent] = intel_common_events!();

/// Skylake (homogeneous control machine).
pub static SKL_EVENTS: &[PfmEvent] = intel_common_events!();

// ---------------------------------------------------------------------------
// ARM (ARMv8 PMU architectural events)
// ---------------------------------------------------------------------------

pub static ARM_V8_EVENTS: &[PfmEvent] = &[
    PfmEvent {
        name: "INST_RETIRED",
        desc: "Instructions architecturally executed",
        config: hw(ArchEvent::Instructions),
        umasks: NO_UMASKS,
    },
    PfmEvent {
        name: "CPU_CYCLES",
        desc: "Processor cycles",
        config: hw(ArchEvent::Cycles),
        umasks: NO_UMASKS,
    },
    PfmEvent {
        name: "BR_RETIRED",
        desc: "Branches architecturally executed",
        config: hw(ArchEvent::BranchInstructions),
        umasks: NO_UMASKS,
    },
    PfmEvent {
        name: "BR_MIS_PRED_RETIRED",
        desc: "Mispredicted branches",
        config: hw(ArchEvent::BranchMisses),
        umasks: NO_UMASKS,
    },
    PfmEvent {
        name: "L1D_CACHE",
        desc: "L1 data cache accesses",
        config: hw(ArchEvent::L1dAccesses),
        umasks: NO_UMASKS,
    },
    PfmEvent {
        name: "L1D_CACHE_REFILL",
        desc: "L1 data cache refills",
        config: hw(ArchEvent::L1dMisses),
        umasks: NO_UMASKS,
    },
    PfmEvent {
        name: "L2D_CACHE",
        desc: "L2 data cache accesses",
        config: hw(ArchEvent::L2Accesses),
        umasks: NO_UMASKS,
    },
    PfmEvent {
        name: "L2D_CACHE_REFILL",
        desc: "L2 data cache refills",
        config: hw(ArchEvent::L2Misses),
        umasks: NO_UMASKS,
    },
    PfmEvent {
        name: "LL_CACHE_RD",
        desc: "Last-level cache reads",
        config: hw(ArchEvent::LlcAccesses),
        umasks: NO_UMASKS,
    },
    PfmEvent {
        name: "LL_CACHE_MISS_RD",
        desc: "Last-level cache read misses",
        config: hw(ArchEvent::LlcMisses),
        umasks: NO_UMASKS,
    },
    PfmEvent {
        name: "STALL_BACKEND",
        desc: "Backend stall cycles",
        config: hw(ArchEvent::MemStallCycles),
        umasks: NO_UMASKS,
    },
    PfmEvent {
        name: "VFP_SPEC",
        desc: "Floating-point operations speculatively executed",
        config: hw(ArchEvent::FpOps),
        umasks: NO_UMASKS,
    },
    PfmEvent {
        name: "ASE_SPEC",
        desc: "Advanced SIMD operations speculatively executed",
        config: hw(ArchEvent::VectorUops),
        umasks: NO_UMASKS,
    },
    PfmEvent {
        name: "DTLB_WALK",
        desc: "Data TLB walks",
        config: hw(ArchEvent::DtlbMisses),
        umasks: NO_UMASKS,
    },
];

// ---------------------------------------------------------------------------
// RAPL and uncore
// ---------------------------------------------------------------------------

pub static RAPL_EVENTS: &[PfmEvent] = &[
    PfmEvent {
        name: "RAPL_ENERGY_PKG",
        desc: "Package energy consumed (µJ)",
        config: EventConfig::Rapl(RaplConfig::EnergyPkg),
        umasks: NO_UMASKS,
    },
    PfmEvent {
        name: "RAPL_ENERGY_CORES",
        desc: "Core (PP0) energy consumed (µJ)",
        config: EventConfig::Rapl(RaplConfig::EnergyCores),
        umasks: NO_UMASKS,
    },
    PfmEvent {
        name: "RAPL_ENERGY_DRAM",
        desc: "DRAM energy consumed (µJ)",
        config: EventConfig::Rapl(RaplConfig::EnergyRam),
        umasks: NO_UMASKS,
    },
    PfmEvent {
        name: "RAPL_ENERGY_PSYS",
        desc: "Platform energy consumed (µJ)",
        config: EventConfig::Rapl(RaplConfig::EnergyPsys),
        umasks: NO_UMASKS,
    },
];

/// Kernel software events (the `perf_sw` namespace).
pub static PERF_SW_EVENTS: &[PfmEvent] = &[
    PfmEvent {
        name: "TASK_CLOCK",
        desc: "Wall-clock time the target ran (ns)",
        config: EventConfig::SwTaskClock,
        umasks: NO_UMASKS,
    },
    PfmEvent {
        name: "CONTEXT_SWITCHES",
        desc: "Times the target was switched in",
        config: EventConfig::SwContextSwitches,
        umasks: NO_UMASKS,
    },
    PfmEvent {
        name: "CPU_MIGRATIONS",
        desc: "Cross-CPU migrations of the target",
        config: EventConfig::SwCpuMigrations,
        umasks: NO_UMASKS,
    },
    PfmEvent {
        name: "PAGE_FAULTS",
        desc: "Minor page faults (first-touch working-set model)",
        config: EventConfig::SwPageFaults,
        umasks: NO_UMASKS,
    },
];

pub static UNCORE_LLC_EVENTS: &[PfmEvent] = &[
    PfmEvent {
        name: "UNC_LLC_LOOKUPS",
        desc: "Package-wide LLC lookups",
        config: EventConfig::Uncore(UncoreConfig::LlcLookups),
        umasks: NO_UMASKS,
    },
    PfmEvent {
        name: "UNC_LLC_MISSES",
        desc: "Package-wide LLC misses",
        config: EventConfig::Uncore(UncoreConfig::LlcMisses),
        umasks: NO_UMASKS,
    },
];

/// Memory-controller (IMC) uncore events.
pub static UNCORE_IMC_EVENTS: &[PfmEvent] = &[PfmEvent {
    name: "UNC_M_CAS_COUNT",
    desc: "DRAM CAS commands",
    config: EventConfig::Uncore(UncoreConfig::ImcCasReads),
    umasks: &[
        um("RD", "read CAS commands (64 B each)", true),
        um_cfg(
            "WR",
            "write CAS commands (64 B each)",
            false,
            EventConfig::Uncore(UncoreConfig::ImcCasWrites),
        ),
    ],
}];

/// Table lookup by pfm PMU name.
pub fn events_for_pmu(pfm_name: &str) -> Option<&'static [PfmEvent]> {
    Some(match pfm_name {
        "adl_glc" => ADL_GLC_EVENTS,
        "adl_grt" => ADL_GRT_EVENTS,
        "skl" => SKL_EVENTS,
        "arm_ac72" | "arm_ac53" | "arm_x1" | "arm_a76" | "arm_a55" => ARM_V8_EVENTS,
        "rapl" => RAPL_EVENTS,
        "unc_llc" => UNCORE_LLC_EVENTS,
        "unc_imc" => UNCORE_IMC_EVENTS,
        "perf_sw" => PERF_SW_EVENTS,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glc_has_topdown_grt_does_not() {
        assert!(ADL_GLC_EVENTS.iter().any(|e| e.name == "TOPDOWN"));
        assert!(!ADL_GRT_EVENTS.iter().any(|e| e.name == "TOPDOWN"));
    }

    #[test]
    fn intel_tables_share_common_set() {
        for name in ["INST_RETIRED", "LONGEST_LAT_CACHE", "CPU_CLK_UNHALTED"] {
            assert!(ADL_GLC_EVENTS.iter().any(|e| e.name == name));
            assert!(ADL_GRT_EVENTS.iter().any(|e| e.name == name));
            assert!(SKL_EVENTS.iter().any(|e| e.name == name));
        }
    }

    #[test]
    fn every_event_with_umasks_has_a_default() {
        for table in [
            ADL_GLC_EVENTS,
            ADL_GRT_EVENTS,
            SKL_EVENTS,
            ARM_V8_EVENTS,
            RAPL_EVENTS,
            UNCORE_LLC_EVENTS,
        ] {
            for e in table {
                if !e.umasks.is_empty() {
                    assert!(
                        e.umasks.iter().any(|u| u.is_default),
                        "{} lacks a default umask",
                        e.name
                    );
                }
            }
        }
    }

    #[test]
    fn event_names_unique_per_table() {
        for table in [ADL_GLC_EVENTS, ARM_V8_EVENTS, RAPL_EVENTS] {
            let mut names: Vec<&str> = table.iter().map(|e| e.name).collect();
            names.sort();
            let before = names.len();
            names.dedup();
            assert_eq!(names.len(), before);
        }
    }

    #[test]
    fn table_lookup() {
        assert!(events_for_pmu("adl_glc").is_some());
        assert!(events_for_pmu("arm_ac53").is_some());
        assert!(events_for_pmu("nonexistent").is_none());
    }

    #[test]
    fn umask_encoding_override() {
        let llc = ADL_GLC_EVENTS
            .iter()
            .find(|e| e.name == "LONGEST_LAT_CACHE")
            .unwrap();
        let miss = llc.umasks.iter().find(|u| u.name == "MISS").unwrap();
        assert_eq!(miss.config, Some(EventConfig::Hw(ArchEvent::LlcMisses)));
    }
}
