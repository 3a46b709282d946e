//! Golden determinism conformance suite.
//!
//! The tick loop (DESIGN.md §7) promises: same seed, same machine, same
//! workload ⇒ **bit-identical** observable state, including under fault
//! injection. This suite runs a seeded mixed workload with a full
//! `FaultPlan` on every machine preset, folds *everything* observable
//! (perf reads, raw PMU registers, RAPL energy, the fault log, task stats,
//! DVFS frequencies) into one FNV-1a hash, and asserts the hash is
//! identical across two back-to-back same-seed runs and across per-tick
//! and batched (macro-tick on and off) tick loops.

use simcpu::events::ArchEvent;
use simcpu::machine::MachineSpec;
use simcpu::phase::Phase;
use simcpu::power::RaplDomain;
use simcpu::types::{CpuId, CpuMask};
use simos::faults::{FaultKind, FaultPlan, TransientErrno};
use simos::kernel::{Kernel, KernelConfig, MacroTicks};
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

/// The mid-run `perf_event_open` at tick 201: draws its wrap bias from the
/// kernel RNG and races the TransientOpen fault — both must replay
/// identically whichever tick loop got us here.
fn mid_open(k: &mut Kernel, fds: &mut Vec<EventFd>, h: &mut Fnv) {
    let core = k
        .pmus()
        .iter()
        .find(|p| p.kind == PmuKind::CoreHw)
        .map(|p| p.id)
        .unwrap();
    match k.perf_event_open(
        PerfAttr::counting(core, ArchEvent::RefCycles),
        Target::Cpu(CpuId(0)),
        None,
    ) {
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
    run_case_cfg(
        spec,
        KernelConfig {
            seed: 0x5eed_cafe,
            ..Default::default()
        },
        false,
    )
}

type SpecFn = fn() -> MachineSpec;

/// [`run_case`] with full config control. `batched: true` drives the run
/// through two `tick_batch` calls (the mid-run open splitting them) instead
/// of 400 individual `tick`s — the result must be bit-identical either way.
fn run_case_cfg(spec: MachineSpec, cfg: KernelConfig, batched: bool) -> u64 {
    let mut k = Kernel::boot(spec, cfg);
    spawn_workload(&mut k);
    let mut fds = open_events(&mut k);
    k.install_faults(&fault_plan());

    let mut h = Fnv::new();
    if batched {
        k.tick_batch(201);
        mid_open(&mut k, &mut fds, &mut h);
        k.tick_batch(199);
    } else {
        for step in 0..400 {
            k.tick();
            if step == 200 {
                mid_open(&mut k, &mut fds, &mut h);
            }
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
    // 2. Raw PMU registers on every CPU (48-bit wrap state included).
    for ci in 0..k.machine().n_cpus() {
        let p = k.machine().pmu(CpuId(ci));
        for i in 0..p.n_fixed() {
            h.u64(p.read_fixed(i).unwrap());
        }
        for i in 0..p.n_gp() {
            h.u64(p.read_gp(i).unwrap());
        }
    }
    // 3. RAPL energy ledger.
    for dom in [
        RaplDomain::Package,
        RaplDomain::Cores,
        RaplDomain::Dram,
        RaplDomain::Psys,
    ] {
        h.u64(k.machine().energy_uj(dom));
    }
    // 4. Fault log.
    for r in k.fault_log() {
        h.u64(r.at_ns);
        h.str(&r.desc);
    }
    // 5. Task stats, every field.
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
    // 6. DVFS state.
    for ci in 0..k.machine().n_cpus() {
        h.u64(k.machine().freq_khz(CpuId(ci)));
    }
}

fn conformance(name: &str, spec: fn() -> MachineSpec) {
    let golden = run_case(spec());
    let replay = run_case(spec());
    assert_eq!(golden, replay, "{name}: replay with the same seed diverged");
    macro_conformance(name, spec, golden);
    region_conformance(name, spec);
}

/// Marker-region conformance: a full `Regions` measurement (hybrid
/// hardware presets per core type + the software presets, region hooks,
/// report rendering) folded into a digest must replay bit-identically on
/// every preset.
fn region_conformance(name: &str, spec: fn() -> MachineSpec) {
    use perftool::regions::{begin_hook, end_hook, RegionConfig, RegionId, Regions};
    use workloads::micro::Analytic;
    let run = || -> u64 {
        let kernel = Kernel::boot_handle(
            spec(),
            KernelConfig {
                seed: 0x5eed_cafe,
                ..Default::default()
            },
        );
        let r = RegionId(0);
        let kern = Analytic::server(2_000_000, 4, 2_000_000);
        let n_cpus = kernel.lock().machine().n_cpus();
        let pid = kern.spawn_marked(
            &kernel,
            CpuMask::first_n(n_cpus),
            begin_hook(r),
            end_hook(r),
        );
        let cfg = RegionConfig {
            events: Analytic::events(),
            overhead_instructions: None,
        };
        let mut regions = Regions::init(&kernel, pid, &cfg).unwrap();
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
    };
    assert_eq!(run(), run(), "{name}: marker-region replay diverged");
}

/// Macro-tick conformance: `tick_batch` with quiescent coalescing on and
/// off must both reproduce the per-tick golden hash, even with the full
/// fault plan and the mid-run open in play.
fn macro_conformance(name: &str, spec: fn() -> MachineSpec, golden: u64) {
    for macro_ticks in [MacroTicks::Auto, MacroTicks::Off] {
        let h = run_case_cfg(
            spec(),
            KernelConfig {
                seed: 0x5eed_cafe,
                macro_ticks,
                ..Default::default()
            },
            true,
        );
        assert_eq!(
            golden, h,
            "{name}: batched run with macro_ticks={macro_ticks:?} diverged from per-tick run"
        );
    }
}

/// A workload built to coalesce: immortal pinned compute tasks whose phases
/// outlive the run. After the DVFS ramp settles the kernel must fast-forward
/// most ticks, and the digest must still match the non-coalesced run.
#[test]
fn macro_ticks_coalesce_and_match() {
    let run = |macro_ticks: MacroTicks| {
        let mut k = Kernel::boot(
            MachineSpec::skylake_quad(),
            KernelConfig {
                seed: 0x5eed_cafe,
                macro_ticks,
                ..Default::default()
            },
        );
        let n = k.machine().n_cpus();
        for i in 0..n {
            k.spawn(
                &format!("w{i}"),
                Box::new(move |_: &simos::task::ProgCtx| {
                    Op::Compute(Phase::scalar(20_000_000_000))
                }),
                CpuMask::from_cpus([i]),
                0,
            );
        }
        k.tick_batch(500);
        let mut h = Fnv::new();
        digest(&mut k, &[], &mut h);
        (h.0, k.macro_stats())
    };
    let (coalesced, (replayed, total)) = run(MacroTicks::Auto);
    let (off, (off_replayed, _)) = run(MacroTicks::Off);
    assert_eq!(
        coalesced, off,
        "macro-tick digest diverged from per-tick run"
    );
    assert_eq!(total, 500);
    assert_eq!(off_replayed, 0, "MacroTicks::Off must never coalesce");
    // The DVFS slew ramp (~143 ticks on skylake_quad) is correctly
    // non-replayable; the steady tail after it must coalesce.
    assert!(
        replayed > 250,
        "steady phases should coalesce most of the run: {replayed}"
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
            seed: 0x5eed_cafe,
            trace: TraceConfig::enabled_with_cap(1 << 15),
            ..Default::default()
        },
        false,
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
            0x0b7f_a56e_dfec_38c2,
        ),
        (
            "orangepi_800",
            MachineSpec::orangepi_800,
            0x92de_d6f2_fd8d_2058,
        ),
        (
            "skylake_quad",
            MachineSpec::skylake_quad,
            0x1368_c33f_45ab_1c52,
        ),
        (
            "alder_lake_mobile",
            MachineSpec::alder_lake_mobile,
            0x5762_914c_9745_2649,
        ),
    ];
    for (name, spec, golden) in presets {
        let h = run_case_cfg(
            spec(),
            KernelConfig {
                seed: 0x5eed_cafe,
                sched: SchedName::Cfs,
                ..Default::default()
            },
            false,
        );
        assert_eq!(
            h, golden,
            "{name}: CfsLike digest diverged from the pre-simsched golden"
        );
    }
}

/// The paper's C2 measurement must repeat: HPL on raptor's P+E set under
/// `KernelConfig::default()` reproduces the Gflops and per-core-type
/// instruction split recorded from serial execution, bit for bit. HPL
/// workers claim chunks and meet at barriers through run state they share
/// from inside execution, so any per-CPU execution order that depends on
/// host timing moves both numbers.
#[test]
fn default_config_hpl_matches_serial_golden() {
    use telemetry::{monitored_hpl_run, DriverConfig};
    use workloads::hpl::{HplConfig, HplVariant};
    // (variant, Gflops bits, instructions per core type [P, E, Mid, Uniform])
    let goldens: [(HplVariant, u64, [u64; 4]); 2] = [
        // 255.92570542372883 Gflops
        (
            HplVariant::IntelMkl,
            4643208601810965669,
            [7_499_492_336, 3_022_106_416, 0, 0],
        ),
        // 188.74520775 Gflops
        (
            HplVariant::OpenBlas,
            4640844898183700281,
            [19_767_189_168, 7_645_189_168, 0, 0],
        ),
    ];
    for (variant, gflops_bits, by_type) in goldens {
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
        assert_eq!(
            (gflops.to_bits(), run.instructions_by_type),
            (gflops_bits, by_type),
            "{}: {gflops} Gflops diverged from the serial golden",
            variant.name()
        );
    }
}

/// Every registered scheduler honours the determinism contract on the full
/// conformance scenario (all 7 fault kinds, mid-run open): same seed ⇒
/// bit-identical digests across per-tick vs batched (`MacroTicks::Auto`/
/// `Off`) tick loops.
#[test]
fn every_scheduler_is_deterministic() {
    let presets: [(&str, SpecFn); 2] = [
        ("raptor_lake_i7_13700", MachineSpec::raptor_lake_i7_13700),
        ("orangepi_800", MachineSpec::orangepi_800),
    ];
    for sched in SchedName::ALL {
        for (name, spec) in presets {
            let cfg = |macro_ticks| KernelConfig {
                macro_ticks,
                seed: 0x5eed_cafe,
                sched,
                ..Default::default()
            };
            let golden = run_case_cfg(spec(), cfg(MacroTicks::Auto), false);
            for macro_ticks in [MacroTicks::Auto, MacroTicks::Off] {
                let batched = run_case_cfg(spec(), cfg(macro_ticks), true);
                assert_eq!(
                    golden,
                    batched,
                    "{}/{name}: batched macro_ticks={macro_ticks:?} diverged",
                    sched.as_str()
                );
            }
        }
    }
}
