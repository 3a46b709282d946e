//! Microarchitecture descriptors.
//!
//! Each [`Microarch`] carries the constants the execution, power and PMU
//! models need: pipeline width, peak vector FLOP throughput, memory-level
//! parallelism, the PMU shape (fixed/general counter counts, which
//! architectural events exist), the dynamic-power coefficient and
//! voltage/frequency curve, and the identification values the OS exposes
//! (MIDR on ARM, family/model on x86 — where, as the paper stresses, P- and
//! E-cores are *indistinguishable*).
//!
//! The calibration targets are the paper's own measurements: with the
//! constants below, the Raptor Lake machine model settles at ≈2.6 GHz
//! (P) / ≈2.3 GHz (E) under the 65 W long-term RAPL limit with all cores
//! busy — the median frequencies Figure 1(b) reports for Intel HPL.

use crate::events::ArchEvent;
use crate::types::CoreType;

/// Identifier for a core microarchitecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Microarch {
    /// Intel P-core in Alder/Raptor Lake ("Golden Cove" / "Raptor Cove").
    GoldenCove,
    /// Intel E-core in Alder/Raptor Lake ("Gracemont").
    Gracemont,
    /// Intel Skylake (homogeneous control machine).
    Skylake,
    /// ARM Cortex-A72 (the OrangePi 800 / RK3399 "big" core).
    CortexA72,
    /// ARM Cortex-A53 (the RK3399 "LITTLE" core).
    CortexA53,
    /// ARM Cortex-X1 (big core of the tri-cluster test machine).
    CortexX1,
    /// ARM Cortex-A76 (mid core of the tri-cluster test machine).
    CortexA76,
    /// ARM Cortex-A55 (little core of the tri-cluster test machine).
    CortexA55,
}

/// CPU vendor, as reported in `/proc/cpuinfo`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vendor {
    Intel,
    Arm,
}

/// Full parameter set for one microarchitecture.
#[derive(Debug, Clone)]
pub struct UarchParams {
    pub arch: Microarch,
    pub vendor: Vendor,
    /// Human name ("Golden Cove").
    pub name: &'static str,
    /// libpfm4-style PMU name ("adl_glc").
    pub pfm_name: &'static str,
    /// Kernel perf PMU directory name ("cpu_core") when this µarch is part
    /// of a hybrid system; homogeneous machines use plain "cpu".
    pub kernel_pmu_name: &'static str,
    /// The role this core plays in a hybrid design.
    pub core_type: CoreType,
    /// Linux `cpu_capacity` value (0–1024, biggest core = 1024).
    pub capacity: u32,

    // -- execution model ---------------------------------------------------
    /// Peak sustainable instructions per cycle on friendly code.
    pub ipc_base: f64,
    /// Peak double-precision FLOPs per cycle (FMA lanes × 2).
    pub flops_per_cycle: f64,
    /// Branch mispredict penalty in cycles.
    pub mispredict_penalty: f64,
    /// Memory-level parallelism: how many outstanding misses overlap.
    pub mlp: f64,
    /// Fraction of would-be demand LLC misses hidden by prefetch; slower
    /// efficiency cores let prefetchers run ahead of demand, which is why
    /// the paper's Table III shows E-core LLC miss rates near zero.
    pub prefetch_hide: f64,
    /// Throughput multiplier per SMT thread when both siblings are busy.
    pub smt_share: f64,

    // -- caches -------------------------------------------------------------
    /// L1D size in bytes (per core).
    pub l1d_bytes: u64,
    /// L2 size in bytes (per core or per module, see `l2_shared_cores`).
    pub l2_bytes: u64,
    /// How many cores share one L2 (Gracemont modules share a 4 MB L2).
    pub l2_shared_cores: u32,
    /// L2 hit latency (cycles).
    pub l2_lat_cycles: f64,
    /// LLC hit latency (cycles).
    pub llc_lat_cycles: f64,

    // -- PMU shape ----------------------------------------------------------
    /// Events available as *fixed* counters (Intel: INST, CYC, REF).
    pub fixed_counters: &'static [ArchEvent],
    /// Number of general-purpose programmable counters.
    pub n_gp_counters: usize,
    /// Events this PMU can count at all (top-down slots are GoldenCove-only).
    pub available_events: &'static [ArchEvent],

    // -- power --------------------------------------------------------------
    /// Dynamic energy per cycle at 1.0 V, in nanojoules.
    pub cdyn_nj: f64,
    /// Voltage at the bottom of the frequency range.
    pub v_min: f64,
    /// Voltage at the top of the frequency range.
    pub v_max: f64,
    /// Static/idle power per core in watts (gate leakage, clocks).
    pub idle_w: f64,

    // -- identification -----------------------------------------------------
    /// ARM MIDR part number (0 for x86). A72=0xd08, A53=0xd03, …
    pub midr_part: u32,
    /// x86 CPUID (family, model): note Raptor Lake P and E report the
    /// *same* (6, 0xb7) pair — the paper's point that family/model cannot
    /// distinguish hybrid core types on Intel.
    pub x86_family_model: (u32, u32),
    /// Intel CPUID leaf 0x1A core-type byte (EAX bits 31:24): 0x40 = Atom (E),
    /// 0x20 = Core (P); 0 when the leaf is absent.
    pub cpuid_1a_core_type: u8,
}

/// The common event set every modeled PMU supports.
const COMMON_EVENTS: &[ArchEvent] = &[
    ArchEvent::Instructions,
    ArchEvent::Cycles,
    ArchEvent::RefCycles,
    ArchEvent::BranchInstructions,
    ArchEvent::BranchMisses,
    ArchEvent::L1dAccesses,
    ArchEvent::L1dMisses,
    ArchEvent::L2Accesses,
    ArchEvent::L2Misses,
    ArchEvent::LlcAccesses,
    ArchEvent::LlcMisses,
    ArchEvent::MemStallCycles,
    ArchEvent::FpOps,
    ArchEvent::VectorUops,
    ArchEvent::DtlbMisses,
];

/// GoldenCove additionally has top-down slots.
const GLC_EVENTS: &[ArchEvent] = &[
    ArchEvent::Instructions,
    ArchEvent::Cycles,
    ArchEvent::RefCycles,
    ArchEvent::BranchInstructions,
    ArchEvent::BranchMisses,
    ArchEvent::L1dAccesses,
    ArchEvent::L1dMisses,
    ArchEvent::L2Accesses,
    ArchEvent::L2Misses,
    ArchEvent::LlcAccesses,
    ArchEvent::LlcMisses,
    ArchEvent::MemStallCycles,
    ArchEvent::FpOps,
    ArchEvent::VectorUops,
    ArchEvent::TopdownSlots,
    ArchEvent::DtlbMisses,
];

const INTEL_FIXED: &[ArchEvent] = &[
    ArchEvent::Instructions,
    ArchEvent::Cycles,
    ArchEvent::RefCycles,
];

/// ARM PMUs have a fixed cycle counter only.
const ARM_FIXED: &[ArchEvent] = &[ArchEvent::Cycles];

impl Microarch {
    /// The full parameter set for this microarchitecture.
    pub fn params(self) -> &'static UarchParams {
        match self {
            Microarch::GoldenCove => &GOLDEN_COVE,
            Microarch::Gracemont => &GRACEMONT,
            Microarch::Skylake => &SKYLAKE,
            Microarch::CortexA72 => &CORTEX_A72,
            Microarch::CortexA53 => &CORTEX_A53,
            Microarch::CortexX1 => &CORTEX_X1,
            Microarch::CortexA76 => &CORTEX_A76,
            Microarch::CortexA55 => &CORTEX_A55,
        }
    }

    /// All modeled microarchitectures.
    pub fn all() -> &'static [Microarch] {
        &[
            Microarch::GoldenCove,
            Microarch::Gracemont,
            Microarch::Skylake,
            Microarch::CortexA72,
            Microarch::CortexA53,
            Microarch::CortexX1,
            Microarch::CortexA76,
            Microarch::CortexA55,
        ]
    }
}

impl UarchParams {
    /// Core voltage at frequency `khz`, from the linear V/f curve between
    /// (`f_min`,`v_min`) and (`f_max`,`v_max`).
    pub fn voltage_at(&self, khz: u64, f_min_khz: u64, f_max_khz: u64) -> f64 {
        if f_max_khz <= f_min_khz {
            return self.v_max;
        }
        let t = ((khz.saturating_sub(f_min_khz)) as f64) / ((f_max_khz - f_min_khz) as f64);
        self.v_min + (self.v_max - self.v_min) * t.clamp(0.0, 1.0)
    }

    /// Dynamic power in watts of one core running at `khz` with the given
    /// utilization (fraction of cycles doing work), using `C·V²·f`.
    pub fn dyn_power_w(&self, khz: u64, f_min_khz: u64, f_max_khz: u64, util: f64) -> f64 {
        let v = self.voltage_at(khz, f_min_khz, f_max_khz);
        let f_ghz = khz as f64 / 1e6;
        self.cdyn_nj * v * v * f_ghz * util.clamp(0.0, 1.0)
    }

    /// Whether this PMU can count `ev` at all.
    pub fn supports_event(&self, ev: ArchEvent) -> bool {
        self.available_events.contains(&ev)
    }
}

pub static GOLDEN_COVE: UarchParams = UarchParams {
    arch: Microarch::GoldenCove,
    vendor: Vendor::Intel,
    name: "Golden Cove (P-core)",
    pfm_name: "adl_glc",
    kernel_pmu_name: "cpu_core",
    core_type: CoreType::Performance,
    capacity: 1024,
    ipc_base: 4.6,
    flops_per_cycle: 16.0, // 2×256-bit FMA pipes, DP
    mispredict_penalty: 17.0,
    mlp: 12.0,
    prefetch_hide: 0.0,
    smt_share: 0.62,
    l1d_bytes: 48 * 1024,
    l2_bytes: 2 * 1024 * 1024,
    l2_shared_cores: 1,
    l2_lat_cycles: 15.0,
    llc_lat_cycles: 52.0,
    fixed_counters: INTEL_FIXED,
    n_gp_counters: 8,
    available_events: GLC_EVENTS,
    cdyn_nj: 2.50,
    v_min: 0.82,
    v_max: 1.35,
    idle_w: 0.15,
    midr_part: 0,
    x86_family_model: (6, 0xb7),
    cpuid_1a_core_type: 0x40, // Intel "Core"
};

pub static GRACEMONT: UarchParams = UarchParams {
    arch: Microarch::Gracemont,
    vendor: Vendor::Intel,
    name: "Gracemont (E-core)",
    pfm_name: "adl_grt",
    kernel_pmu_name: "cpu_atom",
    core_type: CoreType::Efficiency,
    capacity: 446,
    ipc_base: 3.2,
    flops_per_cycle: 6.5, // 2×128-bit FMA, DP (sustained)
    mispredict_penalty: 13.0,
    mlp: 8.0,
    prefetch_hide: 0.9994,
    smt_share: 1.0, // no SMT on Gracemont
    l1d_bytes: 32 * 1024,
    l2_bytes: 4 * 1024 * 1024,
    l2_shared_cores: 4, // 4-core module shares the L2
    l2_lat_cycles: 19.0,
    llc_lat_cycles: 65.0,
    fixed_counters: INTEL_FIXED,
    n_gp_counters: 6,
    available_events: COMMON_EVENTS,
    cdyn_nj: 1.11,
    v_min: 0.78,
    v_max: 1.15,
    idle_w: 0.06,
    midr_part: 0,
    x86_family_model: (6, 0xb7), // identical to the P-core, deliberately
    cpuid_1a_core_type: 0x20,    // Intel "Atom"
};

pub static SKYLAKE: UarchParams = UarchParams {
    arch: Microarch::Skylake,
    vendor: Vendor::Intel,
    name: "Skylake",
    pfm_name: "skl",
    kernel_pmu_name: "cpu",
    core_type: CoreType::Uniform,
    capacity: 1024,
    ipc_base: 4.0,
    flops_per_cycle: 16.0,
    mispredict_penalty: 16.0,
    mlp: 10.0,
    prefetch_hide: 0.0,
    smt_share: 0.62,
    l1d_bytes: 32 * 1024,
    l2_bytes: 1024 * 1024,
    l2_shared_cores: 1,
    l2_lat_cycles: 14.0,
    llc_lat_cycles: 44.0,
    fixed_counters: INTEL_FIXED,
    n_gp_counters: 4,
    available_events: COMMON_EVENTS,
    cdyn_nj: 2.3,
    v_min: 0.8,
    v_max: 1.3,
    idle_w: 0.2,
    midr_part: 0,
    x86_family_model: (6, 0x5e),
    cpuid_1a_core_type: 0, // leaf absent pre-hybrid
};

pub static CORTEX_A72: UarchParams = UarchParams {
    arch: Microarch::CortexA72,
    vendor: Vendor::Arm,
    name: "Cortex-A72 (big)",
    pfm_name: "arm_ac72",
    kernel_pmu_name: "armv8_cortex_a72",
    core_type: CoreType::Performance,
    capacity: 1024,
    ipc_base: 3.0,
    flops_per_cycle: 4.0, // one 128-bit NEON FMA pipe, DP
    mispredict_penalty: 15.0,
    mlp: 6.0,
    prefetch_hide: 0.2,
    smt_share: 1.0,
    l1d_bytes: 32 * 1024,
    l2_bytes: 1024 * 1024,
    l2_shared_cores: 2, // big cluster shares 1 MB L2
    l2_lat_cycles: 18.0,
    llc_lat_cycles: 0.0, // no L3 on RK3399; L2 is last-level
    fixed_counters: ARM_FIXED,
    n_gp_counters: 6,
    available_events: COMMON_EVENTS,
    cdyn_nj: 1.30,
    v_min: 0.85,
    v_max: 1.25,
    idle_w: 0.05,
    midr_part: 0xd08,
    x86_family_model: (0, 0),
    cpuid_1a_core_type: 0,
};

pub static CORTEX_A53: UarchParams = UarchParams {
    arch: Microarch::CortexA53,
    vendor: Vendor::Arm,
    name: "Cortex-A53 (LITTLE)",
    pfm_name: "arm_ac53",
    kernel_pmu_name: "armv8_cortex_a53",
    core_type: CoreType::Efficiency,
    capacity: 446,
    ipc_base: 1.8,
    flops_per_cycle: 2.0, // in-order, 64-bit DP NEON
    mispredict_penalty: 8.0,
    mlp: 3.0,
    prefetch_hide: 0.95,
    smt_share: 1.0,
    l1d_bytes: 32 * 1024,
    l2_bytes: 512 * 1024,
    l2_shared_cores: 4, // LITTLE cluster shares 512 KB L2
    l2_lat_cycles: 15.0,
    llc_lat_cycles: 0.0,
    fixed_counters: ARM_FIXED,
    n_gp_counters: 6,
    available_events: COMMON_EVENTS,
    cdyn_nj: 0.30,
    v_min: 0.80,
    v_max: 1.15,
    idle_w: 0.02,
    midr_part: 0xd03,
    x86_family_model: (0, 0),
    cpuid_1a_core_type: 0,
};

pub static CORTEX_X1: UarchParams = UarchParams {
    arch: Microarch::CortexX1,
    vendor: Vendor::Arm,
    name: "Cortex-X1 (prime)",
    pfm_name: "arm_x1",
    kernel_pmu_name: "armv8_cortex_x1",
    core_type: CoreType::Performance,
    capacity: 1024,
    ipc_base: 5.0,
    flops_per_cycle: 16.0,
    mispredict_penalty: 14.0,
    mlp: 16.0,
    prefetch_hide: 0.0,
    smt_share: 1.0,
    l1d_bytes: 64 * 1024,
    l2_bytes: 1024 * 1024,
    l2_shared_cores: 1,
    l2_lat_cycles: 13.0,
    llc_lat_cycles: 40.0,
    fixed_counters: ARM_FIXED,
    n_gp_counters: 6,
    available_events: COMMON_EVENTS,
    cdyn_nj: 1.5,
    v_min: 0.75,
    v_max: 1.1,
    idle_w: 0.05,
    midr_part: 0xd44,
    x86_family_model: (0, 0),
    cpuid_1a_core_type: 0,
};

pub static CORTEX_A76: UarchParams = UarchParams {
    arch: Microarch::CortexA76,
    vendor: Vendor::Arm,
    name: "Cortex-A76 (mid)",
    pfm_name: "arm_a76",
    kernel_pmu_name: "armv8_cortex_a76",
    core_type: CoreType::Mid,
    capacity: 760,
    ipc_base: 4.0,
    flops_per_cycle: 8.0,
    mispredict_penalty: 12.0,
    mlp: 10.0,
    prefetch_hide: 0.3,
    smt_share: 1.0,
    l1d_bytes: 64 * 1024,
    l2_bytes: 512 * 1024,
    l2_shared_cores: 1,
    l2_lat_cycles: 12.0,
    llc_lat_cycles: 38.0,
    fixed_counters: ARM_FIXED,
    n_gp_counters: 6,
    available_events: COMMON_EVENTS,
    cdyn_nj: 0.8,
    v_min: 0.72,
    v_max: 1.05,
    idle_w: 0.03,
    midr_part: 0xd0b,
    x86_family_model: (0, 0),
    cpuid_1a_core_type: 0,
};

pub static CORTEX_A55: UarchParams = UarchParams {
    arch: Microarch::CortexA55,
    vendor: Vendor::Arm,
    name: "Cortex-A55 (little)",
    pfm_name: "arm_a55",
    kernel_pmu_name: "armv8_cortex_a55",
    core_type: CoreType::Efficiency,
    capacity: 250,
    ipc_base: 2.0,
    flops_per_cycle: 4.0,
    mispredict_penalty: 8.0,
    mlp: 4.0,
    prefetch_hide: 0.9,
    smt_share: 1.0,
    l1d_bytes: 32 * 1024,
    l2_bytes: 256 * 1024,
    l2_shared_cores: 1,
    l2_lat_cycles: 10.0,
    llc_lat_cycles: 35.0,
    fixed_counters: ARM_FIXED,
    n_gp_counters: 6,
    available_events: COMMON_EVENTS,
    cdyn_nj: 0.22,
    v_min: 0.70,
    v_max: 1.0,
    idle_w: 0.015,
    midr_part: 0xd05,
    x86_family_model: (0, 0),
    cpuid_1a_core_type: 0,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_resolve_for_all() {
        for &m in Microarch::all() {
            let p = m.params();
            assert_eq!(p.arch, m);
            assert!(p.ipc_base > 0.0);
            assert!(p.n_gp_counters > 0);
            assert!(!p.available_events.is_empty());
        }
    }

    #[test]
    fn topdown_only_on_goldencove() {
        for &m in Microarch::all() {
            let has = m.params().supports_event(ArchEvent::TopdownSlots);
            assert_eq!(has, m == Microarch::GoldenCove, "{m:?}");
        }
    }

    #[test]
    fn hybrid_intel_family_model_identical() {
        // The paper: Intel P/E cores cannot be told apart by family/model.
        assert_eq!(GOLDEN_COVE.x86_family_model, GRACEMONT.x86_family_model);
        // …but cpuid leaf 0x1A does distinguish them.
        assert_ne!(GOLDEN_COVE.cpuid_1a_core_type, GRACEMONT.cpuid_1a_core_type);
    }

    #[test]
    fn arm_midr_distinguishes_cores() {
        assert_ne!(CORTEX_A72.midr_part, CORTEX_A53.midr_part);
    }

    #[test]
    fn voltage_curve_monotone() {
        let p = &GOLDEN_COVE;
        let lo = p.voltage_at(2_100_000, 2_100_000, 5_100_000);
        let mid = p.voltage_at(3_600_000, 2_100_000, 5_100_000);
        let hi = p.voltage_at(5_100_000, 2_100_000, 5_100_000);
        assert!(lo < mid && mid < hi);
        assert!((lo - 0.82).abs() < 1e-9);
        assert!((hi - 1.35).abs() < 1e-9);
    }

    #[test]
    fn power_model_matches_calibration_point() {
        // At the PL1 equilibrium frequencies from Fig. 1(b) (P ≈ 2.61 GHz,
        // E ≈ 2.32 GHz, full utilization) the modeled package power must be
        // close to the 65 W long-term limit: 8·P_glc + 8·P_grt + ~10 W uncore.
        let p = GOLDEN_COVE.dyn_power_w(2_610_000, 2_100_000, 5_100_000, 1.0);
        let e = GRACEMONT.dyn_power_w(2_320_000, 1_500_000, 4_100_000, 1.0);
        let pkg = 8.0 * p + 8.0 * e + 10.0;
        assert!(
            (55.0..75.0).contains(&pkg),
            "package power at paper's equilibrium freqs = {pkg:.1} W"
        );
    }

    #[test]
    fn peak_power_reaches_pl2_neighborhood() {
        // All cores at max turbo should approach the 219 W short-term cap.
        let p = GOLDEN_COVE.dyn_power_w(5_100_000, 2_100_000, 5_100_000, 1.0);
        let e = GRACEMONT.dyn_power_w(4_100_000, 1_500_000, 4_100_000, 1.0);
        let pkg = 8.0 * p * 1.0 + 8.0 * e + 10.0;
        assert!(
            (170.0..260.0).contains(&pkg),
            "peak package power = {pkg:.1} W"
        );
    }

    #[test]
    fn capacity_ordering() {
        assert!(GOLDEN_COVE.capacity > GRACEMONT.capacity);
        assert!(CORTEX_A72.capacity > CORTEX_A53.capacity);
        assert!(CORTEX_X1.capacity > CORTEX_A76.capacity);
        assert!(CORTEX_A76.capacity > CORTEX_A55.capacity);
    }
}
