//! Machine descriptions and runtime hardware state.
//!
//! A [`MachineSpec`] is the static description (clusters of identical cores,
//! caches, memory, power/thermal configuration); a [`Machine`] is the live
//! hardware: per-CPU seats (plan cache, LLC share, trace sink), per-cluster
//! frequency domains, RAPL counters, package temperature, LLC occupancy
//! and memory-bus contention.
//!
//! Presets model the paper's systems:
//! * [`MachineSpec::raptor_lake_i7_13700`] — Table I: 8 P-cores
//!   (16 threads, 2.1–5.1 GHz) + 8 E-cores (1.5–4.1 GHz), 32 GB DDR5,
//!   PL1 = 65 W / PL2 = 219 W;
//! * [`MachineSpec::orangepi_800`] — Table IV: RK3399, 2×Cortex-A72
//!   @1.8 GHz + 4×Cortex-A53 @1.4 GHz, 4 GB LPDDR4, passively cooled;
//! * [`MachineSpec::skylake_quad`] — a homogeneous control machine;
//! * [`MachineSpec::dynamiq_tri`] — a three-core-type ARM DynamIQ design,
//!   for the "there exist ARM CPUs with three types" case the paper notes.

use crate::dvfs::{FreqDomain, FreqDomainSpec};
use crate::exec::ExecContext;
use crate::plan::PlanCache;
use crate::power::{RaplDomain, RaplSpec, RaplState};
use crate::thermal::{ThermalSpec, ThermalState, TripPoint};
use crate::types::{ClusterId, CoreId, CoreType, CpuId, CpuMask, Khz, Nanos};
use crate::uarch::{Microarch, Vendor};
use simtrace::{EventKind, TraceConfig, TraceSink};

/// Static description of one cluster of identical cores.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    pub uarch: Microarch,
    pub n_cores: u32,
    pub threads_per_core: u32,
    pub f_min_khz: Khz,
    pub f_max_khz: Khz,
}

/// Static description of a whole machine.
#[derive(Debug, Clone)]
pub struct MachineSpec {
    pub name: String,
    /// The marketing model string `/proc/cpuinfo` shows.
    pub model_string: String,
    pub vendor: Vendor,
    pub clusters: Vec<ClusterSpec>,
    /// Shared last-level cache in bytes (0 = the L2s are last-level).
    pub llc_bytes: u64,
    /// Peak DRAM bandwidth, GB/s.
    pub mem_bw_gbps: f64,
    /// DRAM capacity, GB.
    pub mem_gb: u32,
    /// Memory description for Table I/IV style reports.
    pub mem_string: String,
    /// RAPL limits (None = no RAPL, e.g. the OrangePi).
    pub rapl: Option<RaplSpec>,
    pub thermal: ThermalSpec,
    /// Constant uncore/SoC power, watts.
    pub uncore_w: f64,
    /// Board power outside the SoC (regulators, RAM, USB…), watts; the
    /// WattsUpPro-style wall meter reads package + dram + this.
    pub board_idle_w: f64,
    /// Reference/TSC frequency in kHz (`RefCycles` rate).
    pub ref_khz: Khz,
}

/// Topology record for one logical CPU.
#[derive(Debug, Clone, Copy)]
pub struct CpuInfo {
    pub cpu: CpuId,
    pub core: CoreId,
    pub cluster: ClusterId,
    pub smt_sibling: Option<CpuId>,
    pub uarch: Microarch,
}

impl CpuInfo {
    /// The core type of this CPU.
    pub fn core_type(&self) -> CoreType {
        self.uarch.params().core_type
    }
}

/// Per-CPU load report handed to [`Machine::end_tick`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuLoad {
    /// Fraction of the tick's cycles spent executing (0..=1).
    pub util: f64,
    /// Activity factor of what ran (vector-heavy ≈ 1, scalar ≈ 0.6).
    pub activity: f64,
    /// Bytes demanded from DRAM during the tick.
    pub mem_bytes: f64,
    /// LLC pressure (L2 misses per instruction × instruction rate proxy).
    pub llc_pressure: f64,
}

/// Power readings from the last tick, for telemetry.
#[derive(Debug, Clone, Copy, Default)]
pub struct PowerReadings {
    pub pkg_w: f64,
    pub cores_w: f64,
    pub dram_w: f64,
    /// Wall-meter power (package + DRAM + board).
    pub meter_w: f64,
    /// Per-cluster core power.
    pub cluster_w: [f64; 4],
}

/// The mutable hardware state private to one logical CPU.
///
/// Everything here is touched by exactly one CPU's execution within a
/// tick; the kernel borrows the seat through [`Machine::seats_mut`] while
/// it runs that CPU. Cross-core state — the LLC analytic model, the RC
/// thermal node, RAPL, the per-cluster DVFS governors — stays behind the
/// shared side of [`Machine`] and is only updated in
/// [`Machine::end_tick`].
pub struct CoreSeat {
    /// This CPU's current share of the LLC in bytes (recomputed every
    /// tick by `end_tick`; read-only during execution).
    pub llc_share: u64,
    /// Memoized exec plans for phases recently run on this seat
    /// (DESIGN.md §9). Fixed-size and inline: no heap.
    pub plan: PlanCache,
    /// Per-CPU flight recorder (plan-cache hits/misses).
    pub trace: TraceSink,
}

/// Hardware shared across all cores: anything one core's execution may not
/// mutate, because every core's execution reads it. Only
/// [`Machine::end_tick`] updates it.
struct SharedHw {
    domains: Vec<FreqDomain>,
    rapl: RaplState,
    thermal: ThermalState,
    /// Memory latency multiplier from bus contention (≥ 1).
    mem_contention: f64,
    power: PowerReadings,
}

/// Reusable buffers for [`Machine::end_tick`], so closing a tick never
/// allocates after boot.
struct EndTickScratch {
    seen_core: Vec<bool>,
    pressures: Vec<f64>,
    shares: Vec<u64>,
}

/// Live machine state, split into per-core seats and shared hardware.
pub struct Machine {
    spec: MachineSpec,
    cpus: Vec<CpuInfo>,
    seats: Vec<CoreSeat>,
    shared: SharedHw,
    time_ns: Nanos,
    scratch: EndTickScratch,
    /// Shared-hardware flight recorder (DVFS / thermal transitions).
    hw_trace: TraceSink,
}

impl Machine {
    /// Instantiate hardware from a spec.
    pub fn new(spec: MachineSpec) -> Machine {
        assert!(
            !spec.clusters.is_empty(),
            "machine needs at least one cluster"
        );
        let mut cpus = Vec::new();
        let mut seats = Vec::new();
        let mut domains = Vec::new();
        let mut core_idx = 0usize;
        let mut cpu_idx = 0usize;
        for (ci, cl) in spec.clusters.iter().enumerate() {
            domains.push(FreqDomain::new(FreqDomainSpec::new(
                cl.f_min_khz,
                cl.f_max_khz,
            )));
            for _ in 0..cl.n_cores {
                let tpc = cl.threads_per_core.max(1) as usize;
                for t in 0..tpc {
                    let sibling = if tpc == 2 {
                        Some(CpuId(if t == 0 { cpu_idx + 1 } else { cpu_idx - 1 }))
                    } else {
                        None
                    };
                    cpus.push(CpuInfo {
                        cpu: CpuId(cpu_idx),
                        core: CoreId(core_idx),
                        cluster: ClusterId(ci),
                        smt_sibling: sibling,
                        uarch: cl.uarch,
                    });
                    seats.push(CoreSeat {
                        llc_share: 0,
                        plan: PlanCache::new(),
                        trace: TraceSink::disabled(),
                    });
                    cpu_idx += 1;
                }
                core_idx += 1;
            }
        }
        let n = cpus.len();
        let llc0 = if n > 0 { spec.llc_bytes / n as u64 } else { 0 };
        for seat in &mut seats {
            seat.llc_share = llc0;
        }
        let n_cores = cpus.iter().map(|c| c.core.0).max().map_or(0, |m| m + 1);
        Machine {
            shared: SharedHw {
                domains,
                rapl: RaplState::new(spec.rapl.clone()),
                thermal: ThermalState::new(spec.thermal.clone()),
                mem_contention: 1.0,
                power: PowerReadings::default(),
            },
            time_ns: 0,
            scratch: EndTickScratch {
                seen_core: vec![false; n_cores],
                pressures: Vec::with_capacity(n),
                shares: Vec::with_capacity(n),
            },
            cpus,
            seats,
            spec,
            hw_trace: TraceSink::disabled(),
        }
    }

    /// Install (or replace) the hardware-domain trace sinks: one for the
    /// shared hardware and one per core seat. Rings are preallocated
    /// here so the hot loop stays allocation-free with tracing on.
    pub fn set_trace(&mut self, cfg: &TraceConfig) {
        self.hw_trace = TraceSink::new(cfg);
        for seat in &mut self.seats {
            seat.trace = TraceSink::new(cfg);
        }
    }

    /// The shared-hardware flight recorder (DVFS / thermal transitions).
    pub fn hw_trace(&self) -> &TraceSink {
        &self.hw_trace
    }

    // ---- topology --------------------------------------------------------

    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    pub fn n_cpus(&self) -> usize {
        self.cpus.len()
    }

    pub fn n_cores(&self) -> usize {
        self.cpus
            .iter()
            .map(|c| c.core.0)
            .max()
            .map_or(0, |m| m + 1)
    }

    pub fn cpu_info(&self, cpu: CpuId) -> &CpuInfo {
        &self.cpus[cpu.0]
    }

    pub fn cpus(&self) -> &[CpuInfo] {
        &self.cpus
    }

    /// All CPUs whose core is of the given type.
    pub fn cpus_of_type(&self, t: CoreType) -> CpuMask {
        CpuMask::from_cpus(
            self.cpus
                .iter()
                .filter(|c| c.core_type() == t)
                .map(|c| c.cpu.0),
        )
    }

    /// The distinct core types present, in cluster order.
    pub fn core_types(&self) -> Vec<CoreType> {
        let mut out = Vec::new();
        for cl in &self.spec.clusters {
            let t = cl.uarch.params().core_type;
            if !out.contains(&t) {
                out.push(t);
            }
        }
        out
    }

    /// Whether more than one core type is present.
    pub fn is_hybrid(&self) -> bool {
        self.core_types().len() > 1
    }

    pub fn cluster_spec(&self, id: ClusterId) -> &ClusterSpec {
        &self.spec.clusters[id.0]
    }

    // ---- per-CPU seats -----------------------------------------------------

    /// The per-CPU hardware seats, indexed by logical CPU.
    pub fn seats(&self) -> &[CoreSeat] {
        &self.seats
    }

    /// Mutable per-CPU seats, indexed by CPU.
    pub fn seats_mut(&mut self) -> &mut [CoreSeat] {
        &mut self.seats
    }

    // ---- execution context -------------------------------------------------

    /// Current frequency of a CPU's cluster.
    pub fn freq_khz(&self, cpu: CpuId) -> Khz {
        self.shared.domains[self.cpus[cpu.0].cluster.0].cur_khz()
    }

    /// Build the execution context for a CPU this tick. `smt_busy` says
    /// whether the SMT sibling is also running a task.
    pub fn exec_context(&self, cpu: CpuId, smt_busy: bool) -> ExecContext<'static> {
        let info = &self.cpus[cpu.0];
        let ua = info.uarch.params();
        ExecContext {
            uarch: ua,
            freq_khz: self.freq_khz(cpu),
            ref_khz: self.spec.ref_khz,
            llc_share_bytes: self.seats[cpu.0].llc_share,
            mem_contention: self.shared.mem_contention,
            smt_factor: if smt_busy { ua.smt_share } else { 1.0 },
        }
    }

    // ---- tick update -------------------------------------------------------

    /// Close out one tick: integrate power/thermal, run RAPL and DVFS
    /// governors, recompute LLC shares and memory contention.
    ///
    /// `loads[i]` describes logical CPU `i` during the elapsed `dt_ns`.
    pub fn end_tick(&mut self, dt_ns: Nanos, loads: &[CpuLoad]) {
        assert_eq!(loads.len(), self.cpus.len(), "one load per CPU");
        let dt_s = dt_ns as f64 / 1e9;
        self.time_ns += dt_ns;

        // --- per-core power (SMT siblings share silicon) ---
        let mut cluster_w = [0.0f64; 4];
        let mut cluster_util = [0.0f64; 4];
        let n_clusters = self.spec.clusters.len();
        let seen_core = &mut self.scratch.seen_core;
        seen_core.fill(false);
        for info in &self.cpus {
            if seen_core[info.core.0] {
                continue;
            }
            seen_core[info.core.0] = true;
            let l0 = loads[info.cpu.0];
            let (util, act) = match info.smt_sibling {
                Some(sib) => {
                    let l1 = loads[sib.0];
                    // Second thread adds ~30 % more switching activity.
                    let u = (l0.util.max(l1.util) + 0.3 * l0.util.min(l1.util)).min(1.2);
                    let a = if l0.util + l1.util > 0.0 {
                        (l0.activity * l0.util + l1.activity * l1.util) / (l0.util + l1.util)
                    } else {
                        0.0
                    };
                    (u, a)
                }
                None => (l0.util, l0.activity),
            };
            let cl = info.cluster.0;
            let cs = &self.spec.clusters[cl];
            let ua = info.uarch.params();
            let f = self.shared.domains[cl].cur_khz();
            let p =
                ua.dyn_power_w(f, cs.f_min_khz, cs.f_max_khz, (util * act).min(1.2)) + ua.idle_w;
            if cl < 4 {
                cluster_w[cl] += p;
            }
            if cl < 4 {
                cluster_util[cl] = cluster_util[cl].max(loads[info.cpu.0].util);
            }
        }
        // Peak utilization per cluster across *all* its CPUs (not just the
        // first sibling) drives the governor.
        for info in &self.cpus {
            let cl = info.cluster.0;
            if cl < 4 {
                cluster_util[cl] = cluster_util[cl].max(loads[info.cpu.0].util);
            }
        }

        let cores_w: f64 = cluster_w[..n_clusters.min(4)].iter().sum();
        let pkg_w = cores_w + self.spec.uncore_w;

        // --- DRAM power from demanded bandwidth ---
        let bw_gbps = loads.iter().map(|l| l.mem_bytes).sum::<f64>() / dt_s / 1e9;
        let dram_w = 1.2 + 0.25 * bw_gbps;
        let meter_w = pkg_w + dram_w + self.spec.board_idle_w;
        self.shared.power = PowerReadings {
            pkg_w,
            cores_w,
            dram_w,
            meter_w,
            cluster_w,
        };

        // --- RAPL + thermal ---
        let scale = self
            .shared
            .rapl
            .step(dt_ns, pkg_w, cores_w, dram_w, meter_w);
        let throttling_before = self.shared.thermal.throttling();
        self.shared.thermal.step(dt_ns, pkg_w);
        let throttling_now = self.shared.thermal.throttling();
        if throttling_now != throttling_before {
            self.hw_trace.record(
                self.time_ns,
                EventKind::ThermalTransition,
                0,
                throttling_now as u64,
                self.shared.thermal.temp_mc() as u64,
            );
        }

        // --- DVFS per cluster ---
        let shared = &mut self.shared;
        for (ci, dom) in shared.domains.iter_mut().enumerate() {
            let ct = self.spec.clusters[ci].uarch.params().core_type;
            let cap = shared.thermal.freq_cap_khz(ct);
            let before = dom.cur_khz();
            dom.step(dt_ns, cluster_util[ci.min(3)], scale, cap);
            if dom.cur_khz() != before {
                self.hw_trace.record(
                    self.time_ns,
                    EventKind::DvfsTransition,
                    ci as u32,
                    before,
                    dom.cur_khz(),
                );
            }
        }

        // --- LLC shares & memory contention for next tick ---
        if self.spec.llc_bytes > 0 {
            self.scratch.pressures.clear();
            self.scratch
                .pressures
                .extend(loads.iter().map(|l| l.llc_pressure));
            crate::cache::analytic::llc_shares_into(
                self.spec.llc_bytes,
                &self.scratch.pressures,
                &mut self.scratch.shares,
            );
            let nominal = self.spec.llc_bytes / self.cpus.len() as u64;
            for (seat, &s) in self.seats.iter_mut().zip(self.scratch.shares.iter()) {
                // An idle CPU keeps a nominal share so cold starts are sane.
                seat.llc_share = if s == 0 { nominal } else { s };
            }
        }
        self.shared.mem_contention = (bw_gbps / self.spec.mem_bw_gbps).max(1.0);
    }

    // ---- readings ----------------------------------------------------------

    pub fn time_ns(&self) -> Nanos {
        self.time_ns
    }

    pub fn power(&self) -> &PowerReadings {
        &self.shared.power
    }

    pub fn rapl(&self) -> &RaplState {
        &self.shared.rapl
    }

    pub fn rapl_mut(&mut self) -> &mut RaplState {
        &mut self.shared.rapl
    }

    pub fn thermal(&self) -> &ThermalState {
        &self.shared.thermal
    }

    pub fn thermal_mut(&mut self) -> &mut ThermalState {
        &mut self.shared.thermal
    }

    /// Wrapped RAPL energy counter (µJ), as `powercap` sysfs exposes it.
    pub fn energy_uj(&self, dom: RaplDomain) -> u64 {
        self.shared.rapl.energy_uj(dom)
    }

    /// Shared-LLC size.
    pub fn llc_bytes(&self) -> u64 {
        self.spec.llc_bytes
    }

    // ---- presets ----------------------------------------------------------
}

impl MachineSpec {
    /// Table I: the 13th-gen Intel i7-13700 Raptor Lake desktop.
    pub fn raptor_lake_i7_13700() -> MachineSpec {
        MachineSpec {
            name: "raptor-lake-i7-13700".into(),
            model_string: "13th Gen Intel(R) Core(TM) i7-13700".into(),
            vendor: Vendor::Intel,
            clusters: vec![
                ClusterSpec {
                    uarch: Microarch::GoldenCove,
                    n_cores: 8,
                    threads_per_core: 2,
                    f_min_khz: 2_100_000,
                    f_max_khz: 5_100_000,
                },
                ClusterSpec {
                    uarch: Microarch::Gracemont,
                    n_cores: 8,
                    threads_per_core: 1,
                    f_min_khz: 1_500_000,
                    f_max_khz: 4_100_000,
                },
            ],
            llc_bytes: 30 * 1024 * 1024,
            mem_bw_gbps: 68.0,
            mem_gb: 32,
            mem_string: "32GB DDR5, 4.4G T/s".into(),
            rapl: Some(RaplSpec::raptor_lake()),
            thermal: ThermalSpec::desktop_cooled(),
            uncore_w: 10.0,
            board_idle_w: 0.0,
            ref_khz: 2_100_000,
        }
    }

    /// Table IV: the OrangePi 800 (Rockchip RK3399).
    pub fn orangepi_800() -> MachineSpec {
        MachineSpec {
            name: "orangepi-800-rk3399".into(),
            model_string: "Rockchip RK3399 SoC".into(),
            vendor: Vendor::Arm,
            clusters: vec![
                ClusterSpec {
                    uarch: Microarch::CortexA72,
                    n_cores: 2,
                    threads_per_core: 1,
                    f_min_khz: 600_000,
                    f_max_khz: 1_800_000,
                },
                ClusterSpec {
                    uarch: Microarch::CortexA53,
                    n_cores: 4,
                    threads_per_core: 1,
                    f_min_khz: 600_000,
                    f_max_khz: 1_416_000,
                },
            ],
            llc_bytes: 0, // no L3: the cluster L2s are last-level
            mem_bw_gbps: 9.6,
            mem_gb: 4,
            mem_string: "4GB LPDDR4".into(),
            rapl: None,
            thermal: ThermalSpec::passive_sbc(),
            uncore_w: 0.7,
            board_idle_w: 2.3,
            ref_khz: 24_000, // ARM generic timer
        }
    }

    /// A homogeneous Skylake quad-core control machine.
    pub fn skylake_quad() -> MachineSpec {
        MachineSpec {
            name: "skylake-quad".into(),
            model_string: "Intel(R) Core(TM) i7-6700K".into(),
            vendor: Vendor::Intel,
            clusters: vec![ClusterSpec {
                uarch: Microarch::Skylake,
                n_cores: 4,
                threads_per_core: 2,
                f_min_khz: 800_000,
                f_max_khz: 4_200_000,
            }],
            llc_bytes: 8 * 1024 * 1024,
            mem_bw_gbps: 34.0,
            mem_gb: 16,
            mem_string: "16GB DDR4".into(),
            rapl: Some(RaplSpec {
                pl1_w: 95.0,
                tau1_s: 28.0,
                pl2_w: 131.0,
                tau2_s: 2.44,
                min_scale: 0.25,
            }),
            thermal: ThermalSpec::desktop_cooled(),
            uncore_w: 6.0,
            board_idle_w: 0.0,
            ref_khz: 4_000_000,
        }
    }

    /// An Alder Lake mobile part (i7-1260P-like: 4 P + 8 E at 28 W): a
    /// second Intel hybrid configuration with a much tighter power budget,
    /// for generality tests — the paper notes Raptor Lake "systems have
    /// the same underlying PMU as Alder Lake".
    pub fn alder_lake_mobile() -> MachineSpec {
        MachineSpec {
            name: "alder-lake-i7-1260p".into(),
            model_string: "12th Gen Intel(R) Core(TM) i7-1260P".into(),
            vendor: Vendor::Intel,
            clusters: vec![
                ClusterSpec {
                    uarch: Microarch::GoldenCove,
                    n_cores: 4,
                    threads_per_core: 2,
                    f_min_khz: 1_200_000,
                    f_max_khz: 4_700_000,
                },
                ClusterSpec {
                    uarch: Microarch::Gracemont,
                    n_cores: 8,
                    threads_per_core: 1,
                    f_min_khz: 900_000,
                    f_max_khz: 3_400_000,
                },
            ],
            llc_bytes: 18 * 1024 * 1024,
            mem_bw_gbps: 51.0,
            mem_gb: 16,
            mem_string: "16GB LPDDR5".into(),
            rapl: Some(RaplSpec {
                pl1_w: 28.0,
                tau1_s: 28.0,
                pl2_w: 64.0,
                tau2_s: 2.44,
                min_scale: 0.2,
            }),
            thermal: ThermalSpec {
                // Thin laptop: worse than a tower, better than a bare SBC.
                c_j_per_k: 18.0,
                r_k_per_w: 1.8,
                t_amb_c: 25.0,
                trips: vec![TripPoint {
                    temp_c: 100.0,
                    core_type: CoreType::Performance,
                    cap_khz: 1_200_000,
                }],
                hysteresis_c: 3.0,
                t_crit_c: 100.0,
            },
            uncore_w: 4.0,
            board_idle_w: 0.0,
            ref_khz: 2_100_000,
        }
    }

    /// A tri-cluster ARM DynamIQ machine (1×X1 + 3×A76 + 4×A55): the
    /// "there exist ARM CPUs with three types" case.
    pub fn dynamiq_tri() -> MachineSpec {
        MachineSpec {
            name: "dynamiq-tri".into(),
            model_string: "DynamIQ X1/A76/A55 dev board".into(),
            vendor: Vendor::Arm,
            clusters: vec![
                ClusterSpec {
                    uarch: Microarch::CortexX1,
                    n_cores: 1,
                    threads_per_core: 1,
                    f_min_khz: 500_000,
                    f_max_khz: 2_800_000,
                },
                ClusterSpec {
                    uarch: Microarch::CortexA76,
                    n_cores: 3,
                    threads_per_core: 1,
                    f_min_khz: 500_000,
                    f_max_khz: 2_400_000,
                },
                ClusterSpec {
                    uarch: Microarch::CortexA55,
                    n_cores: 4,
                    threads_per_core: 1,
                    f_min_khz: 300_000,
                    f_max_khz: 1_800_000,
                },
            ],
            llc_bytes: 4 * 1024 * 1024,
            mem_bw_gbps: 25.0,
            mem_gb: 8,
            mem_string: "8GB LPDDR5".into(),
            rapl: None,
            thermal: ThermalSpec::passive_sbc(),
            uncore_w: 0.9,
            board_idle_w: 1.5,
            ref_khz: 24_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raptor_lake_topology_matches_table1() {
        let m = Machine::new(MachineSpec::raptor_lake_i7_13700());
        assert_eq!(m.n_cpus(), 24); // 8×2 P threads + 8 E
        assert_eq!(m.n_cores(), 16);
        assert!(m.is_hybrid());
        assert_eq!(m.cpus_of_type(CoreType::Performance).count(), 16);
        assert_eq!(m.cpus_of_type(CoreType::Efficiency).count(), 8);
        // SMT pairing: cpu0 ↔ cpu1.
        assert_eq!(m.cpu_info(CpuId(0)).smt_sibling, Some(CpuId(1)));
        assert_eq!(m.cpu_info(CpuId(1)).smt_sibling, Some(CpuId(0)));
        // E-cores (cpus 16-23) have no siblings.
        assert_eq!(m.cpu_info(CpuId(16)).smt_sibling, None);
        assert_eq!(m.cpu_info(CpuId(16)).core_type(), CoreType::Efficiency);
    }

    #[test]
    fn orangepi_topology_matches_table4() {
        let m = Machine::new(MachineSpec::orangepi_800());
        assert_eq!(m.n_cpus(), 6);
        assert!(m.is_hybrid());
        assert_eq!(m.cpus_of_type(CoreType::Performance).to_cpulist(), "0-1");
        assert_eq!(m.cpus_of_type(CoreType::Efficiency).to_cpulist(), "2-5");
        assert_eq!(m.llc_bytes(), 0);
        assert!(!m.rapl().available());
    }

    #[test]
    fn skylake_is_homogeneous() {
        let m = Machine::new(MachineSpec::skylake_quad());
        assert!(!m.is_hybrid());
        assert_eq!(m.core_types(), vec![CoreType::Uniform]);
    }

    #[test]
    fn alder_mobile_topology_and_budget() {
        let m = Machine::new(MachineSpec::alder_lake_mobile());
        assert_eq!(m.n_cpus(), 16); // 4×2 P threads + 8 E
        assert!(m.is_hybrid());
        assert_eq!(m.cpus_of_type(CoreType::Performance).count(), 8);
        assert_eq!(m.cpus_of_type(CoreType::Efficiency).count(), 8);
        // 28 W budget: the all-core equilibrium sits far below the
        // desktop's frequencies.
        let mut mm = Machine::new(MachineSpec::alder_lake_mobile());
        let loads = vec![
            CpuLoad {
                util: 1.0,
                activity: 0.95,
                mem_bytes: 1e6,
                llc_pressure: 0.01,
            };
            mm.n_cpus()
        ];
        for _ in 0..120_000 {
            mm.end_tick(1_000_000, &loads);
        }
        assert!(
            (20.0..36.0).contains(&mm.power().pkg_w),
            "28 W cap: {:.1}",
            mm.power().pkg_w
        );
        assert!(mm.freq_khz(CpuId(0)) < 2_500_000, "P throttled well down");
    }

    #[test]
    fn tri_cluster_has_three_types() {
        let m = Machine::new(MachineSpec::dynamiq_tri());
        assert_eq!(
            m.core_types(),
            vec![CoreType::Performance, CoreType::Mid, CoreType::Efficiency]
        );
    }

    fn full_load(m: &Machine) -> Vec<CpuLoad> {
        vec![
            CpuLoad {
                util: 1.0,
                activity: 0.95,
                mem_bytes: 1e6,
                llc_pressure: 0.01,
            };
            m.n_cpus()
        ]
    }

    #[test]
    fn full_load_settles_near_paper_frequencies() {
        // All-core full load on Raptor Lake: after PL2 turbo expires, the
        // P cluster should settle near 2.6 GHz and E near 2.3 GHz
        // (Fig. 1(b) medians).
        let mut m = Machine::new(MachineSpec::raptor_lake_i7_13700());
        let loads = full_load(&m);
        for _ in 0..120_000 {
            m.end_tick(1_000_000, &loads);
        }
        let fp = m.freq_khz(CpuId(0));
        let fe = m.freq_khz(CpuId(16));
        assert!(
            (2_300_000..3_100_000).contains(&fp),
            "P settled at {fp} kHz"
        );
        assert!(
            (1_800_000..2_800_000).contains(&fe),
            "E settled at {fe} kHz"
        );
        // Package power near PL1.
        let pw = m.power().pkg_w;
        assert!((55.0..75.0).contains(&pw), "pkg power {pw:.1} W");
        // Never thermally throttled.
        assert!(!m.thermal().throttling());
        assert!(m.thermal().temp_c() < 100.0);
    }

    #[test]
    fn turbo_spike_then_cap() {
        let mut m = Machine::new(MachineSpec::raptor_lake_i7_13700());
        let loads = full_load(&m);
        let mut peak_w: f64 = 0.0;
        for _ in 0..5_000 {
            m.end_tick(1_000_000, &loads);
            peak_w = peak_w.max(m.power().pkg_w);
        }
        // During the first 5 s power must spike well above PL1...
        assert!(peak_w > 120.0, "turbo peak = {peak_w:.0} W");
        for _ in 0..120_000 {
            m.end_tick(1_000_000, &loads);
        }
        // ...and then settle at the long-term cap.
        assert!((55.0..75.0).contains(&m.power().pkg_w));
    }

    #[test]
    fn orangepi_big_cores_thermally_throttle() {
        let mut m = Machine::new(MachineSpec::orangepi_800());
        // Load only the big cluster (cpus 0-1).
        let mut loads = vec![CpuLoad::default(); m.n_cpus()];
        for l in loads.iter_mut().take(2) {
            *l = CpuLoad {
                util: 1.0,
                activity: 0.9,
                mem_bytes: 1e5,
                llc_pressure: 0.005,
            };
        }
        let mut reached_max = false;
        for _ in 0..200_000 {
            m.end_tick(1_000_000, &loads);
            if m.freq_khz(CpuId(0)) == 1_800_000 {
                reached_max = true;
            }
        }
        assert!(reached_max, "big cores should ramp to 1.8 GHz first");
        assert!(m.thermal().throttling(), "should be throttling by 200 s");
        let f_big = m.freq_khz(CpuId(0));
        assert!(f_big < 1_800_000, "big cluster throttled to {f_big} kHz");
        // The ladder always throttles the big cluster harder than the
        // LITTLE one (whose first trip sits deeper in the table).
        assert!(
            m.thermal().freq_cap_khz(CoreType::Efficiency)
                >= m.thermal().freq_cap_khz(CoreType::Performance)
        );
    }

    #[test]
    fn idle_machine_is_cool_and_slow() {
        let mut m = Machine::new(MachineSpec::raptor_lake_i7_13700());
        let loads = vec![CpuLoad::default(); m.n_cpus()];
        for _ in 0..20_000 {
            m.end_tick(1_000_000, &loads);
        }
        assert_eq!(m.freq_khz(CpuId(0)), 2_100_000); // min
        assert!(m.power().pkg_w < 20.0);
        assert!(m.thermal().temp_c() < 40.0);
    }

    #[test]
    fn energy_counters_advance() {
        let mut m = Machine::new(MachineSpec::raptor_lake_i7_13700());
        let loads = full_load(&m);
        let e0 = m.energy_uj(RaplDomain::Package);
        for _ in 0..1000 {
            m.end_tick(1_000_000, &loads);
        }
        let e1 = m.energy_uj(RaplDomain::Package);
        assert!(e1 != e0, "package energy should advance");
    }

    #[test]
    fn exec_context_reflects_cluster_freq() {
        let m = Machine::new(MachineSpec::raptor_lake_i7_13700());
        let ctx = m.exec_context(CpuId(0), false);
        assert_eq!(ctx.freq_khz, 2_100_000);
        assert_eq!(ctx.smt_factor, 1.0);
        let ctx2 = m.exec_context(CpuId(0), true);
        assert!(ctx2.smt_factor < 1.0);
    }

    #[test]
    #[should_panic(expected = "one load per CPU")]
    fn end_tick_checks_load_len() {
        let mut m = Machine::new(MachineSpec::skylake_quad());
        m.end_tick(1_000_000, &[CpuLoad::default()]);
    }
}
