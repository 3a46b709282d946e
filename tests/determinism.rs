//! Golden determinism conformance suite.
//!
//! The tick loop (DESIGN.md §7) promises: same seed, same machine, same
//! workload ⇒ **bit-identical** observable state, including under fault
//! injection. This suite runs a seeded mixed workload with a full
//! `FaultPlan` on every machine preset, folds *everything* observable
//! (perf reads, RAPL energy, the fault log, task stats, DVFS frequencies)
//! into one FNV-1a hash, and asserts the hash is identical across two
//! back-to-back same-seed runs and equal to recorded goldens.

use simcpu::events::ArchEvent;
use simcpu::machine::MachineSpec;
use simcpu::phase::Phase;
use simcpu::power::RaplDomain;
use simcpu::types::{CpuId, CpuMask};
use simos::faults::{FaultKind, FaultPlan, TransientErrno};
use simos::kernel::{Kernel, KernelConfig};
use simos::perf::{EventConfig, EventFd, PerfAttr, PmuKind, RaplConfig, Target, UncoreConfig};
use simos::simsched::SchedName;
use simos::task::{Op, Pid, ScriptedProgram};
use simtrace::TraceConfig;

// ---- FNV-1a ----------------------------------------------------------------

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn str(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        self.u64(s.len() as u64);
    }
}

// ---- the workload ----------------------------------------------------------

/// Every fault kind PR 1 can inject, timed inside the 400 ms run, touching
/// only CPUs that exist on the smallest preset (skylake_quad has 8 CPUs).
fn fault_plan() -> FaultPlan {
    FaultPlan::new(0xd15ea5e)
        .at(
            10_000_000,
            FaultKind::CounterWrap {
                headroom: 5_000_000,
            },
        )
        .at(
            50_000_000,
            FaultKind::CpuOffline {
                cpu: CpuId(1),
                down_ns: Some(100_000_000),
            },
        )
        .at(
            80_000_000,
            FaultKind::NmiWatchdog {
                steal: ArchEvent::Instructions,
                hold_ns: Some(120_000_000),
            },
        )
        .at(
            150_000_000,
            FaultKind::TransientRead {
                errno: TransientErrno::Eintr,
                count: 3,
            },
        )
        .at(
            150_000_000,
            FaultKind::TransientOpen {
                errno: TransientErrno::Ebusy,
                count: 1,
            },
        )
        .at(
            250_000_000,
            FaultKind::RaplWrapBurst {
                wraps: 2,
                extra_uj: 10_000,
            },
        )
        .at(300_000_000, FaultKind::SysfsFlaky { dur_ns: 50_000_000 })
}

/// Mixed scripted workload: more tasks than CPUs, pinned and free tasks,
/// sleepers, a two-party barrier, and phase shapes spanning compute-bound
/// to stream-bound.
fn spawn_workload(k: &mut Kernel) {
    let n = k.machine().n_cpus();
    for i in 0..n + 3 {
        let mut ops = vec![Op::Compute(Phase::scalar(3_000_000 + 251_000 * i as u64))];
        match i % 4 {
            0 => ops.push(Op::Compute(Phase::stream(2_000_000, 48 << 20))),
            1 => ops.push(Op::Sleep(7_000_000)),
            2 => ops.push(Op::Compute(Phase::dgemm(2_500_000, 8 << 20, 0.3))),
            _ => {}
        }
        ops.push(Op::Compute(Phase::scalar(30_000_000)));
        ops.push(Op::Exit);
        let mask = if i % 3 == 0 {
            CpuMask::from_cpus([i % n])
        } else {
            CpuMask::first_n(n)
        };
        k.spawn(
            &format!("w{i}"),
            Box::new(ScriptedProgram::new(ops)),
            mask,
            0,
        );
    }
    // Two tasks meet at a barrier mid-run.
    k.register_barrier(1, 2);
    for j in 0..2u64 {
        k.spawn(
            &format!("bar{j}"),
            Box::new(ScriptedProgram::new([
                Op::Compute(Phase::scalar(4_000_000 + j * 900_000)),
                Op::Barrier(1),
                Op::Compute(Phase::scalar(6_000_000)),
                Op::Exit,
            ])),
            CpuMask::first_n(n),
            0,
        );
    }
}

/// Open events generically against every registered PMU, exercising every
/// perf path: per-thread and per-CPU hardware events, an over-committed
/// group (multiplexing), software events, RAPL and uncore.
fn open_events(k: &mut Kernel) -> Vec<EventFd> {
    let mut fds = Vec::new();
    let pmus: Vec<_> = k
        .pmus()
        .iter()
        .map(|p| (p.id, p.kind, p.cpus.iter().next().unwrap_or(CpuId(0))))
        .collect();
    let open =
        |k: &mut Kernel, attr: PerfAttr, target, group| k.perf_event_open(attr, target, group).ok();
    for (id, kind, first_cpu) in pmus {
        match kind {
            PmuKind::CoreHw => {
                fds.extend(open(
                    k,
                    PerfAttr::counting(id, ArchEvent::Cycles),
                    Target::Cpu(first_cpu),
                    None,
                ));
                fds.extend(open(
                    k,
                    PerfAttr::counting(id, ArchEvent::Instructions),
                    Target::Thread(Pid(0)),
                    None,
                ));
                // A wide group plus the singles above over-commits the GP
                // counters and forces rotation on `first_cpu`'s PMU.
                if let Some(leader) = open(
                    k,
                    PerfAttr::counting(id, ArchEvent::LlcAccesses),
                    Target::Thread(Pid(1)),
                    None,
                ) {
                    fds.push(leader);
                    for ev in [
                        ArchEvent::LlcMisses,
                        ArchEvent::BranchInstructions,
                        ArchEvent::BranchMisses,
                    ] {
                        fds.extend(open(
                            k,
                            PerfAttr::counting(id, ev),
                            Target::Thread(Pid(1)),
                            Some(leader),
                        ));
                    }
                }
            }
            PmuKind::Software => {
                for cfg in [
                    EventConfig::SwTaskClock,
                    EventConfig::SwContextSwitches,
                    EventConfig::SwCpuMigrations,
                    EventConfig::SwPageFaults,
                ] {
                    let attr = PerfAttr {
                        pmu_type: id,
                        config: cfg,
                        disabled: true,
                        sample_period: 0,
                        pinned: false,
                    };
                    fds.extend(open(k, attr, Target::Thread(Pid(2)), None));
                }
            }
            PmuKind::Rapl => {
                for cfg in [RaplConfig::EnergyPkg, RaplConfig::EnergyCores] {
                    let attr = PerfAttr {
                        pmu_type: id,
                        config: EventConfig::Rapl(cfg),
                        disabled: true,
                        sample_period: 0,
                        pinned: false,
                    };
                    fds.extend(open(k, attr, Target::Cpu(CpuId(0)), None));
                }
            }
            PmuKind::Uncore => {
                for cfg in [UncoreConfig::LlcLookups, UncoreConfig::ImcCasReads] {
                    let attr = PerfAttr {
                        pmu_type: id,
                        config: EventConfig::Uncore(cfg),
                        disabled: true,
                        sample_period: 0,
                        pinned: false,
                    };
                    fds.extend(open(k, attr, Target::Cpu(CpuId(0)), None));
                }
            }
        }
    }
    for &fd in &fds {
        k.ioctl_enable(fd, false).unwrap();
    }
    fds
}

/// The mid-run `perf_event_open` at tick 201. It is the first open after
/// the plan's one-shot TransientOpen EBUSY (armed at 150 ms), so it is
/// refused; it hashes the refusal and opens once more, as PAPI's
/// `retry_transient` would. An event opened then draws its wrap bias from
/// the fault plan's RNG, the plan's `CounterWrap` having fired at 10 ms.
/// Refusal, retry and bias must replay identically whichever tick loop
/// got us here.
fn mid_open(k: &mut Kernel, fds: &mut Vec<EventFd>, h: &mut Fnv) {
    let core = k
        .pmus()
        .iter()
        .find(|p| p.kind == PmuKind::CoreHw)
        .map(|p| p.id)
        .unwrap();
    let attr = PerfAttr::counting(core, ArchEvent::RefCycles);
    let mut opened = k.perf_event_open(attr, Target::Cpu(CpuId(0)), None);
    if let Err(e) = &opened {
        if e.is_transient() {
            h.str(&format!("open:{e:?}"));
            opened = k.perf_event_open(attr, Target::Cpu(CpuId(0)), None);
        }
    }
    match opened {
        Ok(fd) => {
            k.ioctl_enable(fd, false).unwrap();
            fds.push(fd);
            h.str("open:ok");
        }
        Err(e) => h.str(&format!("open:{e:?}")),
    }
}

/// Run the scenario for 400 ticks and fold all observable state into a hash.
fn run_case(spec: MachineSpec) -> u64 {
    run_case_cfg(spec, KernelConfig::default())
}

type SpecFn = fn() -> MachineSpec;

/// [`run_case`] with full config control.
fn run_case_cfg(spec: MachineSpec, cfg: KernelConfig) -> u64 {
    let mut k = Kernel::boot(spec, cfg);
    spawn_workload(&mut k);
    let mut fds = open_events(&mut k);
    k.install_faults(&fault_plan());

    let mut h = Fnv::new();
    for step in 0..400 {
        k.tick();
        if step == 200 {
            mid_open(&mut k, &mut fds, &mut h);
        }
    }
    digest(&mut k, &fds, &mut h);
    h.0
}

/// Fold every class of observable state into the hash.
fn digest(k: &mut Kernel, fds: &[EventFd], h: &mut Fnv) {
    // 1. Every perf event read (value + the three clocks), errors included.
    for &fd in fds {
        match k.read_event(fd) {
            Ok(v) => {
                h.u64(v.value);
                h.u64(v.time_enabled);
                h.u64(v.time_running);
                h.u64(v.time_matched);
            }
            Err(e) => h.str(&format!("read:{e:?}")),
        }
    }
    // 2. RAPL energy ledger.
    for dom in [
        RaplDomain::Package,
        RaplDomain::Cores,
        RaplDomain::Dram,
        RaplDomain::Psys,
    ] {
        h.u64(k.machine().energy_uj(dom));
    }
    // 3. Fault log.
    for r in k.fault_log() {
        h.u64(r.at_ns);
        h.str(&r.desc);
    }
    // 4. Task stats, every field.
    let mut pid = 0;
    while let Some(s) = k.task_stats(Pid(pid)) {
        h.u64(s.instructions);
        h.u64(s.cycles);
        h.u64(s.runtime_ns);
        h.f64(s.flops);
        h.u64(s.migrations);
        h.u64(s.core_type_migrations);
        h.u64(s.page_faults);
        for v in s.instructions_by_type {
            h.u64(v);
        }
        for v in s.runtime_ns_by_type {
            h.u64(v);
        }
        pid += 1;
    }
    // 5. DVFS state.
    for ci in 0..k.machine().n_cpus() {
        h.u64(k.machine().freq_khz(CpuId(ci)));
    }
}

fn conformance(name: &str, spec: fn() -> MachineSpec) {
    let golden = run_case(spec());
    let replay = run_case(spec());
    assert_eq!(golden, replay, "{name}: replay with the same seed diverged");
}

/// Marker-region conformance: a full `Regions` measurement (hybrid
/// hardware presets per core type + the software presets, region hooks,
/// report rendering) folded into a digest.
fn region_case(spec: MachineSpec) -> u64 {
    use papi::regions::{begin_hook, end_hook, RegionId, Regions};
    use workloads::micro::Analytic;
    let kernel = Kernel::boot_handle(spec, KernelConfig::default());
    let r = RegionId(0);
    let kern = Analytic::server(2_000_000, 4, 2_000_000);
    let n_cpus = kernel.lock().machine().n_cpus();
    let pid = kern.spawn_marked(
        &kernel,
        CpuMask::first_n(n_cpus),
        begin_hook(r),
        end_hook(r),
    );
    let papi = papi::Papi::init(kernel.clone()).unwrap();
    let mut regions = Regions::init(papi, pid, &Analytic::events()).unwrap();
    regions.region_init(kern.name());
    regions.run_marked(600_000_000_000).unwrap();
    let report = regions.finish().unwrap();
    let mut h = Fnv::new();
    for reg in &report.regions {
        h.str(&reg.name);
        h.u64(reg.count);
        h.u64(reg.time_ns);
        for c in &reg.counters {
            h.str(&c.event);
            h.str(&c.native);
            h.u64(c.value);
        }
    }
    h.str(&report.render());
    h.0
}

/// Every preset's marker-region digest ([`region_case`]) reproduces the
/// value recorded before the region API moved from perftool into papi.
#[test]
fn region_conformance_matches_golden() {
    let presets: [(&str, SpecFn, u64); 4] = [
        (
            "raptor_lake_i7_13700",
            MachineSpec::raptor_lake_i7_13700,
            0x22fa_36be_2341_ff4f,
        ),
        (
            "orangepi_800",
            MachineSpec::orangepi_800,
            0x3eb0_cb7a_56d3_5143,
        ),
        (
            "skylake_quad",
            MachineSpec::skylake_quad,
            0xe2b8_2e94_c252_4f4f,
        ),
        (
            "alder_lake_mobile",
            MachineSpec::alder_lake_mobile,
            0xfd2d_b070_7d60_094c,
        ),
    ];
    let moved: Vec<String> = presets
        .into_iter()
        .filter_map(|(name, spec, golden)| {
            let h = region_case(spec());
            (h != golden).then(|| format!("{name}: {h:#018x} (golden {golden:#018x})"))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "marker-region digest diverged from the golden on: {moved:#?}"
    );
}

/// The flight recorder is a pure observer: running the full conformance
/// scenario with tracing on (big enough rings that nothing drops) must
/// reproduce the untraced golden digest bit-for-bit.
#[test]
fn tracing_does_not_perturb_the_golden_digest() {
    let golden = run_case(MachineSpec::skylake_quad());
    let traced = run_case_cfg(
        MachineSpec::skylake_quad(),
        KernelConfig {
            trace: TraceConfig::enabled_with_cap(1 << 15),
            ..Default::default()
        },
    );
    assert_eq!(
        golden, traced,
        "skylake_quad: traced run diverged from untraced run"
    );
}

#[test]
fn determinism_raptor_lake_i7_13700() {
    conformance("raptor_lake_i7_13700", MachineSpec::raptor_lake_i7_13700);
}

#[test]
fn determinism_orangepi_800() {
    conformance("orangepi_800", MachineSpec::orangepi_800);
}

#[test]
fn determinism_skylake_quad() {
    conformance("skylake_quad", MachineSpec::skylake_quad);
}

#[test]
fn determinism_alder_lake_mobile() {
    conformance("alder_lake_mobile", MachineSpec::alder_lake_mobile);
}

/// The `simsched` refactor is behavior-preserving: `CfsLike` (registry
/// `cfs`, the default) must reproduce the digests captured on this exact
/// scenario *before* scheduling moved behind the trait. These constants
/// are load-bearing — a change here means the hook decomposition altered
/// scheduling behavior, not just its plumbing.
#[test]
fn cfs_like_matches_pre_simsched_goldens() {
    let presets: [(&str, SpecFn, u64); 4] = [
        (
            "raptor_lake_i7_13700",
            MachineSpec::raptor_lake_i7_13700,
            0x872c_957f_48a0_db26,
        ),
        (
            "orangepi_800",
            MachineSpec::orangepi_800,
            0x370a_9b2a_6fa9_e4ed,
        ),
        (
            "skylake_quad",
            MachineSpec::skylake_quad,
            0x26ea_770d_6868_da59,
        ),
        (
            "alder_lake_mobile",
            MachineSpec::alder_lake_mobile,
            0xd239_6f16_e642_adf5,
        ),
    ];
    // Run every preset before asserting, so a re-pin or a regression
    // shows every preset that moved, not just the first.
    let moved: Vec<String> = presets
        .into_iter()
        .filter_map(|(name, spec, golden)| {
            let h = run_case_cfg(
                spec(),
                KernelConfig {
                    sched: SchedName::Cfs,
                    ..Default::default()
                },
            );
            (h != golden).then(|| format!("{name}: {h:#018x} (golden {golden:#018x})"))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "CfsLike digest diverged from the pre-simsched golden on: {moved:#?}"
    );
}

/// The paper's C2 measurement must repeat: HPL on raptor's P+E set under
/// `KernelConfig::default()` reproduces the Gflops and per-core-type
/// instruction split recorded from serial execution, bit for bit. HPL
/// workers claim chunks and meet at barriers through run state they share
/// from inside execution, so any per-CPU execution order that depends on
/// host timing moves both numbers.
///
/// Beyond those two it pins what the OpenBLAS spin-waits and the steady
/// dgemm ticks feed into the rest of the machine: the summed task cycles
/// and runtimes, every task's f64 flops (bit for bit, folded in pid
/// order), and the package energy that the per-tick activity factor
/// drives through power and RAPL.
#[test]
fn default_config_hpl_matches_serial_golden() {
    use telemetry::{monitored_hpl_run, DriverConfig};
    use workloads::hpl::{HplConfig, HplVariant};
    /// What one variant's run pins.
    #[derive(Debug, PartialEq, Eq)]
    struct HplGolden {
        gflops_bits: u64,
        /// Instructions per core type [P, E, Mid, Uniform].
        by_type: [u64; 4],
        /// Σ `TaskStats::cycles` over every task.
        cycles: u64,
        /// Σ `TaskStats::runtime_ns` over every task.
        runtime_ns: u64,
        /// FNV-1a over every task's `TaskStats::flops` bits, in pid order.
        flops_fnv: u64,
        /// Package energy at the end of the run, µJ.
        pkg_uj: u64,
    }
    let goldens: [(HplVariant, HplGolden); 2] = [
        // 255.92570542372883 Gflops
        (
            HplVariant::IntelMkl,
            HplGolden {
                gflops_bits: 4643208601810965669,
                by_type: [7_499_492_336, 3_022_106_416, 0, 0],
                cycles: 4_042_649_699,
                runtime_ns: 1_499_000_942,
                flops_fnv: 9283650384865654871,
                pkg_uj: 8_751_992,
            },
        ),
        // 188.74520775 Gflops
        (
            HplVariant::OpenBlas,
            HplGolden {
                gflops_bits: 4640844898183700281,
                by_type: [19_767_189_168, 7_645_189_168, 0, 0],
                cycles: 8_730_278_512,
                runtime_ns: 2_597_883_077,
                flops_fnv: 14980464186153028694,
                pkg_uj: 16_424_795,
            },
        ),
    ];
    for (variant, golden) in goldens {
        let kernel =
            Kernel::boot_handle(MachineSpec::raptor_lake_i7_13700(), KernelConfig::default());
        let run = monitored_hpl_run(
            &kernel,
            &HplConfig::scaled(16),
            variant,
            CpuMask::parse_cpulist("0,2,4,6,8,10,12,14,16-23").unwrap(),
            &DriverConfig {
                n_runs: 1,
                ..Default::default()
            },
            0,
        );
        let gflops = run.gflops.expect("HPL finishes");
        let k = kernel.lock();
        let (mut cycles, mut runtime_ns, mut flops) = (0u64, 0u64, Fnv::new());
        let mut pid = 0;
        while let Some(s) = k.task_stats(Pid(pid)) {
            cycles += s.cycles;
            runtime_ns += s.runtime_ns;
            flops.f64(s.flops);
            pid += 1;
        }
        let got = HplGolden {
            gflops_bits: gflops.to_bits(),
            by_type: run.instructions_by_type,
            cycles,
            runtime_ns,
            flops_fnv: flops.0,
            pkg_uj: k.machine().energy_uj(RaplDomain::Package),
        };
        assert_eq!(
            got,
            golden,
            "{}: {gflops} Gflops run diverged from the serial golden",
            variant.name()
        );
    }
}

/// A mid-run perf syscall in [`perf_lifecycle_case`].
#[derive(Debug, Clone, Copy)]
enum PerfAction {
    /// `ioctl_disable` every toggled thread group.
    DisableGroups,
    /// `close_event` one member of every member-closing group.
    CloseMembers,
    /// `ioctl_enable` the toggled groups again.
    EnableGroups,
    /// `close_event` every leader-closing group's leader.
    CloseLeaders,
}

/// Ticks (0-based) after which each [`PerfAction`] runs.
const PERF_ACTIONS: [(u64, PerfAction); 4] = [
    (99, PerfAction::DisableGroups),
    (119, PerfAction::CloseMembers),
    (219, PerfAction::EnableGroups),
    (259, PerfAction::CloseLeaders),
];

/// Three tasks that outlive the 400-tick run, so every mid-run action
/// lands on a live context: `roam` alternates compute with 3 ms sleeps on
/// the first CPU of each core PMU; `sampled` and `toggled` run anywhere.
fn spawn_long_tasks(k: &mut Kernel) -> [Pid; 3] {
    let n = k.machine().n_cpus();
    let mut roam_mask = CpuMask::EMPTY;
    for p in k.pmus().iter().filter(|p| p.kind == PmuKind::CoreHw) {
        if let Some(c) = p.cpus.iter().next() {
            roam_mask.set(c);
        }
    }
    let mut step = 0u64;
    let roam = k.spawn(
        "roam",
        Box::new(move |_: &simos::task::ProgCtx| {
            step += 1;
            if step.is_multiple_of(2) {
                Op::Sleep(3_000_000)
            } else {
                Op::Compute(Phase::scalar(20_000_000))
            }
        }),
        roam_mask,
        0,
    );
    let sampled = k.spawn(
        "sampled",
        Box::new(|_: &simos::task::ProgCtx| Op::Compute(Phase::dgemm(50_000_000, 8 << 20, 0.3))),
        CpuMask::first_n(n),
        0,
    );
    let toggled = k.spawn(
        "toggled",
        Box::new(|_: &simos::task::ProgCtx| Op::Compute(Phase::stream(30_000_000, 48 << 20))),
        CpuMask::first_n(n),
        0,
    );
    [roam, sampled, toggled]
}

/// The fds [`perf_lifecycle_case`] opens, by role.
#[derive(Default)]
struct LifecycleFds {
    all: Vec<EventFd>,
    /// Group members closed mid-run (their leaders stay open).
    closing_members: Vec<EventFd>,
    /// Group leaders closed mid-run, taking their groups with them.
    closing_leaders: Vec<EventFd>,
    /// Leaders of groups disabled, then enabled again, mid-run.
    toggled: Vec<EventFd>,
    /// Sampling events.
    sampling: Vec<EventFd>,
}

/// Open the events for [`perf_lifecycle_case`] on every core PMU and the
/// software PMU, all enabled.
fn open_lifecycle_events(k: &mut Kernel, [roam, sampled, toggled]: [Pid; 3]) -> LifecycleFds {
    let mut fds = LifecycleFds::default();
    let pmus: Vec<_> = k
        .pmus()
        .iter()
        .map(|p| (p.id, p.kind, p.cpus.iter().next().unwrap_or(CpuId(0))))
        .collect();
    let first_core_cpu = pmus
        .iter()
        .find(|p| p.1 == PmuKind::CoreHw)
        .map(|p| p.2)
        .unwrap();
    let mut all = Vec::new();
    let mut open = |k: &mut Kernel, attr: PerfAttr, target, group| {
        let fd = k.perf_event_open(attr, target, group).unwrap();
        all.push(fd);
        fd
    };
    for (id, kind, first_cpu) in pmus {
        match kind {
            PmuKind::CoreHw => {
                let hw = |ev| PerfAttr::counting(id, ev);
                let roam_t = Target::Thread(roam);
                let leader = open(k, hw(ArchEvent::Instructions), roam_t, None);
                open(k, hw(ArchEvent::Cycles), roam_t, Some(leader));
                let member = open(k, hw(ArchEvent::BranchMisses), roam_t, Some(leader));
                fds.closing_members.push(member);
                let sampled_t = Target::Thread(sampled);
                let leader = open(k, hw(ArchEvent::LlcMisses), sampled_t, None);
                open(
                    k,
                    hw(ArchEvent::BranchInstructions),
                    sampled_t,
                    Some(leader),
                );
                fds.closing_leaders.push(leader);
                let toggled_t = Target::Thread(toggled);
                let leader = open(k, hw(ArchEvent::Cycles), toggled_t, None);
                open(k, hw(ArchEvent::Instructions), toggled_t, Some(leader));
                fds.toggled.push(leader);
                // `roam` counted only on this PMU's first CPU.
                open(
                    k,
                    hw(ArchEvent::Instructions),
                    Target::ThreadOnCpu(roam, first_cpu),
                    None,
                );
                let sampler = open(
                    k,
                    PerfAttr {
                        sample_period: 4_000_000,
                        ..hw(ArchEvent::Instructions)
                    },
                    sampled_t,
                    None,
                );
                fds.sampling.push(sampler);
            }
            PmuKind::Software => {
                let attr = PerfAttr {
                    pmu_type: id,
                    config: EventConfig::SwTaskClock,
                    disabled: true,
                    sample_period: 0,
                    pinned: false,
                };
                open(k, attr, Target::ThreadOnCpu(roam, first_core_cpu), None);
            }
            PmuKind::Rapl | PmuKind::Uncore => {}
        }
    }
    fds.all = all;
    for &fd in &fds.all {
        k.ioctl_enable(fd, false).unwrap();
    }
    fds
}

fn perf_action(k: &mut Kernel, fds: &LifecycleFds, action: PerfAction) {
    match action {
        PerfAction::DisableGroups => {
            for &fd in &fds.toggled {
                k.ioctl_disable(fd, true).unwrap();
            }
        }
        PerfAction::CloseMembers => {
            for &fd in &fds.closing_members {
                k.close_event(fd).unwrap();
            }
        }
        PerfAction::EnableGroups => {
            for &fd in &fds.toggled {
                k.ioctl_enable(fd, true).unwrap();
            }
        }
        PerfAction::CloseLeaders => {
            for &fd in &fds.closing_leaders {
                k.close_event(fd).unwrap();
            }
        }
    }
}

/// Fold every fd's userpage (count, clocks and whether it holds a
/// hardware counter right now) into `h`. The userpage is read without a
/// syscall, so it consumes none of the plan's transient read faults.
fn digest_userpages(k: &mut Kernel, fds: &[EventFd], h: &mut Fnv) {
    for &fd in fds {
        match k.mmap_userpage(fd) {
            Ok(p) => {
                h.u64(p.index as u64);
                h.u64(p.offset);
                h.u64(p.time_enabled);
                h.u64(p.time_running);
            }
            Err(e) => h.str(&format!("userpage:{e:?}")),
        }
    }
}

/// 400 ticks of the conformance workload and fault plan plus
/// [`spawn_long_tasks`], with the lifecycle events open and
/// [`PERF_ACTIONS`] applied mid-run, folded into a digest: every fd's
/// userpage before each action, each sampling event's record count and
/// last record, then every fd's read (closed fds hash their error) and
/// the rest of the observable state ([`digest`]).
fn perf_lifecycle_case(spec: MachineSpec) -> u64 {
    let mut k = Kernel::boot(spec, KernelConfig::default());
    spawn_workload(&mut k);
    let long = spawn_long_tasks(&mut k);
    let fds = open_lifecycle_events(&mut k, long);
    k.install_faults(&fault_plan());
    let mut h = Fnv::new();
    let mut done = 0u64;
    for (step, action) in PERF_ACTIONS {
        k.tick_batch(step + 1 - done);
        done = step + 1;
        digest_userpages(&mut k, &fds.all, &mut h);
        perf_action(&mut k, &fds, action);
    }
    k.tick_batch(400 - done);
    for &fd in &fds.sampling {
        let recs = k.event_samples(fd).unwrap();
        h.u64(recs.len() as u64);
        if let Some(r) = recs.iter().last() {
            h.u64(r.time_ns);
            h.u64(r.cpu.0 as u64);
            h.u64(r.pid.map_or(u64::MAX, |p| p.0 as u64));
            h.u64(r.value);
        }
    }
    digest(&mut k, &fds.all, &mut h);
    h.0
}

/// The perf paths [`run_case`] does not reach — mid-run close of a group
/// leader and of a lone member, group disable/enable, `ThreadOnCpu`
/// events and a sampling event — reproduce digests recorded before the
/// kernel kept per-context event lists.
#[test]
fn perf_lifecycle_matches_golden() {
    let presets: [(&str, SpecFn, u64); 2] = [
        (
            "raptor_lake_i7_13700",
            MachineSpec::raptor_lake_i7_13700,
            0xf907_0fc9_b52d_87e8,
        ),
        (
            "orangepi_800",
            MachineSpec::orangepi_800,
            0x3399_1763_38c0_2f22,
        ),
    ];
    for (name, spec, golden) in presets {
        let h = perf_lifecycle_case(spec());
        assert_eq!(
            h, golden,
            "{name}: perf lifecycle digest {h:#018x} diverged"
        );
    }
}

/// Every registered scheduler honours the determinism contract on the full
/// conformance scenario (all 7 fault kinds, mid-run open): two runs with
/// the same config ⇒ bit-identical digests.
#[test]
fn every_scheduler_is_deterministic() {
    let presets: [(&str, SpecFn); 2] = [
        ("raptor_lake_i7_13700", MachineSpec::raptor_lake_i7_13700),
        ("orangepi_800", MachineSpec::orangepi_800),
    ];
    for sched in SchedName::ALL {
        for (name, spec) in presets {
            let cfg = || KernelConfig {
                sched,
                ..Default::default()
            };
            let first = run_case_cfg(spec(), cfg());
            let second = run_case_cfg(spec(), cfg());
            assert_eq!(first, second, "{}/{name}: replay diverged", sched.as_str());
        }
    }
}
