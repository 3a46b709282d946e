//! Property-based tests (proptest) on the stack's core invariants.

use proptest::prelude::*;
use simcpu::cache::setassoc::{Access, SetAssocCache};
use simcpu::cache::CacheGeometry;
use simcpu::events::ArchEvent;
use simcpu::machine::MachineSpec;
use simcpu::phase::Phase;
use simcpu::power::energy_delta_uj;
use simcpu::types::{CpuId, CpuMask};
use simos::faults::{FaultKind, FaultPlan, TransientErrno};
use simos::kernel::{Kernel, KernelConfig};
use simos::perf::{PerfAttr, Target};
use simos::simsched::SchedName;
use simos::task::{Op, ScriptedProgram};

/// A random but valid compute phase.
fn arb_phase() -> impl Strategy<Value = Phase> {
    (
        1_000u64..3_000_000,
        0.0f64..0.6,
        10u64..34,
        0.0f64..1.0,
        0.0f64..1.0,
        0.0f64..1.0,
        0.0f64..8.0,
        0.0f64..1.0,
        0.0f64..0.4,
        0.0f64..0.2,
    )
        .prop_map(|(inst, mem, ws_log, r1, r2, r3, fpi, vf, br, bm)| Phase {
            instructions: inst,
            mem_ref_rate: mem,
            working_set: 1u64 << ws_log,
            reuse_l1: r1,
            reuse_l2: r2,
            reuse_llc: r3,
            flops_per_inst: fpi,
            vector_frac: vf,
            branch_rate: br,
            branch_miss_rate: bm,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Counter conservation: whatever the phase mix and pinning, a
    /// perf INST_RETIRED event on the right PMU counts *exactly* the
    /// instructions the task retires.
    #[test]
    fn perf_counts_match_task_stats(
        phases in proptest::collection::vec(arb_phase(), 1..4),
        cpu_pick in 0usize..24,
    ) {
        let mut k = Kernel::boot(
            MachineSpec::raptor_lake_i7_13700(),
            KernelConfig::default(),
        );
        let total: u64 = phases.iter().map(|p| p.instructions).sum();
        let ops: Vec<Op> = phases
            .into_iter()
            .map(Op::Compute)
            .chain([Op::Exit])
            .collect();
        let pid = k.spawn(
            "w",
            Box::new(ScriptedProgram::new(ops)),
            CpuMask::from_cpus([cpu_pick]),
            0,
        );
        let pmu = if cpu_pick < 16 { "cpu_core" } else { "cpu_atom" };
        let pmu_id = k.pmu_by_name(pmu).unwrap().id;
        let fd = k
            .perf_event_open(
                PerfAttr::counting(pmu_id, simcpu::events::ArchEvent::Instructions),
                Target::Thread(pid),
                None,
            )
            .unwrap();
        k.ioctl_enable(fd, false).unwrap();
        k.run_to_completion(600_000_000_000);
        prop_assert!(k.all_exited());
        let counted = k.read_event(fd).unwrap().value;
        let stats = k.task_stats(pid).unwrap();
        prop_assert_eq!(stats.instructions, total);
        prop_assert_eq!(counted, total);
    }

    /// LRU cache invariants: misses ≤ accesses; a working set that fits
    /// never misses after a warm pass; stats always reconcile.
    #[test]
    fn cache_lru_invariants(
        addrs in proptest::collection::vec(0u64..1_000_000, 1..2000),
    ) {
        let mut c = SetAssocCache::new(CacheGeometry::new(16 * 1024, 4, 64));
        for &a in &addrs {
            c.access(a);
        }
        prop_assert_eq!(c.hits() + c.misses(), addrs.len() as u64);
        // Re-access the last address immediately: must hit (it is MRU).
        let last = *addrs.last().unwrap();
        prop_assert_eq!(c.access(last), Access::Hit);
    }

    /// Fits-in-cache working sets never take capacity misses.
    #[test]
    fn cache_fitting_ws_all_hits_after_warm(lines in 1u64..64) {
        // 16 KB, 4-way: 64 sets × 4 ways = 256 lines capacity; use ≤ 64
        // consecutive lines (≤ 1 way per set: conflict-free).
        let mut c = SetAssocCache::new(CacheGeometry::new(16 * 1024, 4, 64));
        for i in 0..lines {
            c.access(i * 64);
        }
        let warm_misses = c.misses();
        for _ in 0..3 {
            for i in 0..lines {
                prop_assert_eq!(c.access(i * 64), Access::Hit);
            }
        }
        prop_assert_eq!(c.misses(), warm_misses);
    }

    /// The analytic model always returns probabilities, for any phase.
    #[test]
    fn analytic_model_bounded(phase in arb_phase(), share_log in 0u32..36) {
        for ua in [&simcpu::uarch::GOLDEN_COVE, &simcpu::uarch::GRACEMONT,
                   &simcpu::uarch::CORTEX_A53] {
            let share = if share_log == 0 { 0 } else { 1u64 << share_log };
            let m = simcpu::cache::analytic::miss_profile(&phase, ua, share);
            for v in [m.l1, m.l2, m.llc, m.llc_demand_frac] {
                prop_assert!((0.0..=1.0).contains(&v), "{m:?}");
            }
        }
    }

    /// RAPL energy counters are monotone (modulo wrap) and consistent
    /// with the wrap-aware delta helper.
    #[test]
    fn energy_monotone_under_load(ticks in 1usize..400) {
        let mut k = Kernel::boot(
            MachineSpec::raptor_lake_i7_13700(),
            KernelConfig::default(),
        );
        k.spawn(
            "burn",
            Box::new(ScriptedProgram::new([
                Op::Compute(Phase::dgemm(u64::MAX / 4, 1 << 20, 0.9)),
                Op::Exit,
            ])),
            CpuMask::first_n(24),
            0,
        );
        let mut prev = k.machine().energy_uj(simcpu::power::RaplDomain::Package);
        let mut total = 0u64;
        for _ in 0..ticks {
            k.tick();
            let now = k.machine().energy_uj(simcpu::power::RaplDomain::Package);
            total += energy_delta_uj(prev, now);
            prev = now;
        }
        // Total unwrapped energy matches the machine's ground truth.
        let truth = k
            .machine()
            .rapl()
            .energy_total_uj(simcpu::power::RaplDomain::Package) as u64;
        prop_assert!(total <= truth + 1);
        prop_assert!(truth <= total + simcpu::power::ENERGY_WRAP_UJ);
    }

    /// The scheduler never assigns one task to two CPUs, never violates
    /// affinity, and never schedules a blocked task.
    #[test]
    fn scheduler_assignment_sound(
        n_tasks in 1usize..12,
        masks in proptest::collection::vec(1u64..0xFFFFFF, 12),
        ticks in 1usize..50,
    ) {
        let mut k = Kernel::boot(
            MachineSpec::raptor_lake_i7_13700(),
            KernelConfig::default(),
        );
        let mut pids = Vec::new();
        for &mask_bits in masks.iter().take(n_tasks) {
            let mask = CpuMask::from_cpus(
                (0..24).filter(|b| (mask_bits >> b) & 1 == 1),
            );
            let mask = if mask.is_empty() {
                CpuMask::first_n(24)
            } else {
                mask
            };
            pids.push((
                k.spawn(
                    "t",
                    Box::new(ScriptedProgram::new([
                        Op::Compute(Phase::scalar(u64::MAX / 4)),
                        Op::Exit,
                    ])),
                    mask,
                    0,
                ),
                mask,
            ));
        }
        for _ in 0..ticks {
            k.tick();
            let mut seen = std::collections::HashSet::new();
            for (pid, mask) in &pids {
                if let Some(simos::task::TaskState::Running(cpu)) = k.task_state(*pid) {
                    prop_assert!(mask.contains(cpu), "affinity respected");
                    prop_assert!(seen.insert(*pid), "no double assignment");
                    let _ = cpu;
                }
            }
        }
    }

    /// Pluggable-scheduler invariants, for *every* registered policy,
    /// under all 7 fault kinds: (1) no task is ever left running on an
    /// offline CPU — hotplug (with re-online racing the policy's own
    /// migrations) must vacate and stay vacated; (2) migrations stay
    /// exactly-once-counted (the PR 7 invariant): the per-task
    /// `migrations` stat must equal the number of placement changes
    /// observable from outside via `task_state`, however the policy
    /// shuffles tasks between ticks.
    #[test]
    fn schedulers_respect_hotplug_and_count_migrations_once(
        sched_pick in 0usize..5,
        n_tasks in 2usize..8,
        pin_bits in 0u64..256,
        fault_picks in proptest::collection::vec((0usize..7, 1u64..90), 1..6),
        ticks in 40u64..110,
    ) {
        let sched = SchedName::ALL[sched_pick];
        let mut plan = FaultPlan::new(0xfaceb00c);
        for &(kind, at_ms) in &fault_picks {
            let at = at_ms * 1_000_000;
            plan = match kind {
                0 => plan.at(at, FaultKind::CpuOffline {
                    cpu: CpuId(1),
                    down_ns: Some(25_000_000),
                }),
                1 => plan.at(at, FaultKind::NmiWatchdog {
                    steal: ArchEvent::Instructions,
                    hold_ns: Some(20_000_000),
                }),
                2 => plan.at(at, FaultKind::TransientOpen {
                    errno: TransientErrno::Ebusy,
                    count: 1,
                }),
                3 => plan.at(at, FaultKind::TransientRead {
                    errno: TransientErrno::Eintr,
                    count: 2,
                }),
                4 => plan.at(at, FaultKind::CounterWrap { headroom: 1_000_000 }),
                5 => plan.at(at, FaultKind::RaplWrapBurst { wraps: 1, extra_uj: 5_000 }),
                _ => plan.at(at, FaultKind::SysfsFlaky { dur_ns: 10_000_000 }),
            };
        }
        let mut k = Kernel::boot(
            MachineSpec::skylake_quad(),
            KernelConfig {
                sched,
                ..Default::default()
            },
        );
        let n = k.machine().n_cpus();
        let mut pids = Vec::new();
        for i in 0..n_tasks {
            // A mix of pinned tasks (some pinned to the CPU that goes
            // offline) and free tasks that the policy may move at will.
            let mask = if (pin_bits >> i) & 1 == 1 {
                CpuMask::from_cpus([i % n])
            } else {
                CpuMask::first_n(n)
            };
            pids.push(k.spawn(
                "w",
                Box::new(ScriptedProgram::new([
                    Op::Compute(Phase::scalar(u64::MAX / 4)),
                    Op::Exit,
                ])),
                mask,
                0,
            ));
        }
        k.install_faults(&plan);
        let mut last_seen: Vec<Option<CpuId>> = vec![None; pids.len()];
        let mut expected_migrations = 0u64;
        for _ in 0..ticks {
            k.tick();
            for (i, &pid) in pids.iter().enumerate() {
                if let Some(simos::task::TaskState::Running(cpu)) = k.task_state(pid) {
                    prop_assert!(
                        k.cpu_online(cpu),
                        "{}: pid {} running on offline cpu{}",
                        sched.as_str(), pid.0, cpu.0
                    );
                    if let Some(prev) = last_seen[i] {
                        if prev != cpu {
                            expected_migrations += 1;
                        }
                    }
                    last_seen[i] = Some(cpu);
                }
            }
        }
        let counted: u64 = pids
            .iter()
            .filter_map(|&p| k.task_stats(p))
            .map(|s| s.migrations)
            .sum();
        prop_assert_eq!(
            counted, expected_migrations,
            "{}: migration stat drifted from observed placement changes",
            sched.as_str()
        );
    }

    /// CpuMask parse/format round-trips.
    #[test]
    fn cpumask_roundtrip(bits in 1u128..(1u128 << 48)) {
        let mask = CpuMask::from_cpus((0..48).filter(|b| (bits >> b) & 1 == 1));
        let s = mask.to_cpulist();
        let back = CpuMask::parse_cpulist(&s).unwrap();
        prop_assert_eq!(mask, back);
    }

    /// Frequency stays inside the domain's [min, max] whatever the load
    /// and cap history.
    #[test]
    fn freq_always_in_range(utils in proptest::collection::vec(0.0f64..1.0, 1..300)) {
        let mut d = simcpu::dvfs::FreqDomain::new(
            simcpu::dvfs::FreqDomainSpec::new(1_500_000, 4_100_000),
        );
        for (i, u) in utils.iter().enumerate() {
            let scale = 0.2 + 0.8 * (i % 7) as f64 / 6.0;
            let cap = if i % 5 == 0 { 2_000_000 } else { u64::MAX };
            d.step(1_000_000, *u, scale, cap);
            prop_assert!((1_500_000..=4_100_000).contains(&d.cur_khz()));
        }
    }
}

/// Exact instruction accounting survives hook/injection boundaries.
#[test]
fn caliper_boundaries_are_exact() {
    // Not a proptest (needs PAPI), but the invariant the whole §IV.F
    // result rests on: repeated start/stop cycles never leak counts.
    use hetero_papi::prelude::*;
    let session = Session::raptor_lake();
    let kernel = session.kernel();
    let pid = kernel.lock().spawn(
        "caliper",
        Box::new(ScriptedProgram::new([
            Op::Compute(Phase::scalar(777)), // outside any caliper
            Op::Call(HookId(1)),
            Op::Compute(Phase::scalar(111_111)),
            Op::Call(HookId(2)),
            Op::Compute(Phase::scalar(999_999)), // outside again
            Op::Call(HookId(1)),
            Op::Compute(Phase::scalar(222_222)),
            Op::Call(HookId(2)),
            Op::Exit,
        ])),
        CpuMask::from_cpus([0]),
        0,
    );
    let mut papi = papi::Papi::init_with(
        kernel,
        papi::PapiConfig {
            overhead_instructions: 0,
            ..Default::default()
        },
    )
    .unwrap();
    let es = papi.create_eventset();
    papi.attach(es, Attach::Task(pid)).unwrap();
    papi.add_named(es, "adl_glc::INST_RETIRED:ANY").unwrap();
    let results = papi
        .run_instrumented(es, HookId(1), HookId(2), pid, 600_000_000_000)
        .unwrap();
    assert_eq!(results.len(), 2);
    assert_eq!(results[0][0].1, 111_111);
    assert_eq!(results[1][0].1, 222_222);
}
