//! Fault-injection integration tests: the §IV.F validation workload run
//! under every fault class the `simos::faults` subsystem can inject.
//!
//! The contract under test (DESIGN.md, "Fault model & degradation
//! semantics"): with faults active, every measurement is either **exact**
//! or **flagged** — transient syscall errors are retried away, hotplug and
//! 48-bit wraps are recovered to the exact count, and anything that truly
//! lost counter time surfaces as a non-`Ok` [`ReadQuality`] rather than a
//! silently wrong number. And the whole thing replays: the same
//! [`FaultPlan`] seed produces byte-identical fault logs and identical
//! final counts, run after run.

use hetero_papi::prelude::*;
use papi::ReadQuality;
use simcpu::events::ArchEvent;
use simcpu::pmu::COUNTER_MASK;
use simcpu::power::{energy_delta_uj, energy_delta_uj_hinted, RaplDomain, ENERGY_WRAP_UJ};
use simcpu::types::CpuId;
use simos::faults::{FaultKind, FaultPlan, TransientErrno};
use simos::perf::EventFd;
use simos::sysfs;
use telemetry::Poller;
use workloads::micro::{spawn_hybrid_test, spawn_noise, HybridTestConfig, HOOK_START, HOOK_STOP};

/// Per-repetition instruction count of the §IV.F loop, plus the modeled
/// PAPI caliper overhead (see `paper_claims.rs` — the same invariant must
/// survive fault injection).
const REP_INSTRUCTIONS: u64 = 1_000_000;
const CALIPER_OVERHEAD: u64 = 4_300;

/// Run the §IV.F hybrid test (`reps` × 1 M instructions, unpinned, under
/// P-core noise) with `plan` installed. Returns the per-repetition
/// (P-count, E-count) pairs and the kernel's fault log as strings.
fn hybrid_run_under(plan: Option<&FaultPlan>, reps: u32) -> (Vec<(u64, u64)>, Vec<String>) {
    let session = Session::raptor_lake();
    let kernel = session.kernel();
    if let Some(p) = plan {
        kernel.lock().install_faults(p);
    }
    let noise = spawn_noise(
        &kernel,
        CpuMask::parse_cpulist("0-15").unwrap(),
        2_000_000,
        10_000_000,
    );
    let cfg = HybridTestConfig {
        repetitions: reps,
        ..HybridTestConfig::paper(24)
    };
    let pid = spawn_hybrid_test(&kernel, &cfg);
    let mut papi = session.papi().unwrap();
    let es = papi.create_eventset();
    papi.attach(es, Attach::Task(pid)).unwrap();
    papi.add_named(es, "adl_glc::INST_RETIRED:ANY").unwrap();
    papi.add_named(es, "adl_grt::INST_RETIRED:ANY").unwrap();
    let results = papi
        .run_instrumented(es, HOOK_START, HOOK_STOP, pid, 600_000_000_000)
        .unwrap();
    noise.stop();
    let log = kernel
        .lock()
        .fault_log()
        .iter()
        .map(|r| format!("{}:{}", r.at_ns, r.desc))
        .collect();
    (results.iter().map(|r| (r[0].1, r[1].1)).collect(), log)
}

/// Every repetition must still sum exactly — the zero-silently-wrong-counts
/// guarantee.
fn assert_exact_reps(results: &[(u64, u64)], reps: u32) {
    assert_eq!(results.len(), reps as usize);
    let (mut p_total, mut e_total) = (0u64, 0u64);
    for &(p, e) in results {
        assert_eq!(
            p + e,
            REP_INSTRUCTIONS + CALIPER_OVERHEAD,
            "per-rep sum must stay exact under faults: p={p} e={e}"
        );
        p_total += p;
        e_total += e;
    }
    assert!(
        p_total > e_total,
        "P cores dominate: {p_total} vs {e_total}"
    );
    assert!(e_total > 0, "some repetitions migrate to E cores");
}

/// A plan exercising every fault class in one run.
fn storm_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .at(
            0,
            FaultKind::CounterWrap {
                headroom: 3_000_000,
            },
        )
        .at(
            0,
            FaultKind::TransientOpen {
                errno: TransientErrno::Eintr,
                count: 3,
            },
        )
        .at(
            20_000_000,
            FaultKind::TransientRead {
                errno: TransientErrno::Ebusy,
                count: 4,
            },
        )
        .at(
            40_000_000,
            FaultKind::NmiWatchdog {
                steal: ArchEvent::Instructions,
                hold_ns: Some(60_000_000),
            },
        )
        .at(
            70_000_000,
            FaultKind::CpuOffline {
                cpu: CpuId(3),
                down_ns: Some(50_000_000),
            },
        )
        .at(90_000_000, FaultKind::SysfsFlaky { dur_ns: 30_000_000 })
        .at(
            120_000_000,
            FaultKind::RaplWrapBurst {
                wraps: 2,
                extra_uj: 4_321,
            },
        )
}

/// The headline test: 100 × 1 M instructions through a storm of every
/// fault class. Same seed ⇒ byte-identical fault log and identical counts
/// (the replay contract); and every repetition still sums exactly (the
/// degradation contract — every one of these faults is recoverable).
#[test]
fn fault_storm_replays_identically_and_counts_stay_exact() {
    let plan = storm_plan(7);
    let (r1, log1) = hybrid_run_under(Some(&plan), 100);
    let (r2, log2) = hybrid_run_under(Some(&plan), 100);
    assert_eq!(log1, log2, "same plan must replay byte-for-byte");
    assert_eq!(r1, r2, "same plan must reproduce identical counts");

    // The storm actually happened.
    for needle in [
        "wrap bias",
        "offline",
        "back online",
        "watchdog stole",
        "watchdog released",
        "perf_event_open calls fail",
        "perf read calls fail",
        "rapl energy burst",
    ] {
        assert!(
            log1.iter().any(|l| l.contains(needle)),
            "fault log missing {needle:?}: {log1:#?}"
        );
    }
    assert_exact_reps(&r1, 100);

    // A different seed draws different wrap biases — visibly a different
    // universe, even though the schedule is the same.
    let (_, log3) = hybrid_run_under(Some(&storm_plan(1234)), 5);
    let biases = |log: &[String]| -> Vec<String> {
        log.iter()
            .filter(|l| l.contains("wrap bias"))
            .cloned()
            .collect()
    };
    assert!(!biases(&log3).is_empty());
    assert_ne!(biases(&log1), biases(&log3), "seed changes the biases");
}

/// Transient EINTR/EBUSY: absorbed by the retry budget while charged to
/// the syscall ledger; beyond the budget they surface as a classified
/// transient error on the strict path, then clear.
#[test]
fn transient_errors_retry_then_surface_then_recover() {
    let session = Session::raptor_lake();
    let kernel = session.kernel();
    kernel.lock().install_faults(
        &FaultPlan::new(5)
            .at(
                0,
                FaultKind::TransientOpen {
                    errno: TransientErrno::Eintr,
                    count: 2,
                },
            )
            // Armed after start(), before any caller read: 20 failures =
            // two full retry budgets (1 + 8 each) plus two absorbed by the
            // third call.
            .at(
                1_000_000,
                FaultKind::TransientRead {
                    errno: TransientErrno::Ebusy,
                    count: 20,
                },
            ),
    );
    let pid = kernel.lock().spawn(
        "w",
        Box::new(ScriptedProgram::new([
            Op::Compute(Phase::scalar(100_000_000)),
            Op::Exit,
        ])),
        CpuMask::from_cpus([0]),
        0,
    );
    let mut papi = session.papi().unwrap();
    let es = papi.create_eventset();
    papi.attach(es, Attach::Task(pid)).unwrap();
    papi.add_named(es, "adl_glc::INST_RETIRED:ANY").unwrap();

    let opens_before = papi.syscall_stats().opens;
    papi.start(es).unwrap();
    assert_eq!(
        papi.syscall_stats().opens,
        opens_before + 3,
        "both failed open attempts are charged to the ledger"
    );

    kernel.lock().run_to_completion(600_000_000_000);

    for attempt in 0..2 {
        let e = papi.read(es).unwrap_err();
        assert!(
            e.is_transient(),
            "budget-exhausting failure is classified transient (attempt {attempt}): {e}"
        );
    }
    // Exact: the 100 M workload plus start()'s modeled caliper overhead.
    let v = papi.read(es).unwrap();
    assert_eq!(
        v[0].1,
        100_000_000 + CALIPER_OVERHEAD,
        "count exact once the fault clears"
    );
    let v = papi.stop(es).unwrap();
    assert_eq!(v[0].1, 100_000_000 + CALIPER_OVERHEAD);
}

/// CPU hotplug mid-run — one temporary, one permanent — must not cost the
/// thread-attached EventSet a single instruction.
#[test]
fn hotplug_mid_run_keeps_thread_counts_exact_at_100m() {
    let plan = FaultPlan::new(11)
        .at(
            30_000_000,
            FaultKind::CpuOffline {
                cpu: CpuId(2),
                down_ns: Some(80_000_000),
            },
        )
        .at(
            60_000_000,
            FaultKind::CpuOffline {
                cpu: CpuId(17),
                down_ns: None,
            },
        );
    let (results, log) = hybrid_run_under(Some(&plan), 100);
    assert!(log.iter().any(|l| l.contains("cpu2 offline")));
    assert!(log.iter().any(|l| l.contains("cpu2 back online")));
    assert!(log.iter().any(|l| l.contains("cpu17 offline")));
    assert_exact_reps(&results, 100);
}

/// 48-bit counter wrap: both PMUs' hardware registers start within
/// `headroom` of the 2⁴⁸ limit and wrap mid-run; the kernel's `read()`
/// returns the 64-bit count, as Linux's does, so every count stays exact
/// with no unwrapping in the PAPI layer.
#[test]
fn counter_wrap_unwraps_exactly_across_100m_instructions() {
    let plan = FaultPlan::new(77).at(
        0,
        FaultKind::CounterWrap {
            headroom: 2_000_000,
        },
    );
    let (results, log) = hybrid_run_under(Some(&plan), 100);
    let biases: Vec<u64> = log
        .iter()
        .filter(|l| l.contains("wrap bias"))
        .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
        .collect();
    assert_eq!(biases.len(), 2, "one bias per opened core event: {log:#?}");
    for b in &biases {
        assert!(
            *b > COUNTER_MASK - 2_000_000 && *b <= COUNTER_MASK,
            "bias within headroom of the 48-bit limit: {b}"
        );
    }
    // ~95 M P-core instructions through a counter < 2 M from the limit:
    // the raw value is guaranteed to have wrapped, yet every repetition
    // still sums exactly.
    assert_exact_reps(&results, 100);
}

/// The rdpmc fast path across a counter wrap. Only the userpage carries
/// the register's wrapped 48-bit bits; the kernel's `read()` returns the
/// 64-bit count. `read_fast` must equal `read()` and the task's own
/// instruction count both before the bits cross 2⁴⁸, where adding them
/// without sign-extending from `pmc_width` is 2⁴⁸ too high, and after.
#[test]
fn rdpmc_read_fast_stays_exact_across_the_counter_wrap() {
    let session = Session::raptor_lake();
    let kernel = session.kernel();
    kernel.lock().install_faults(&FaultPlan::new(3).at(
        0,
        FaultKind::CounterWrap {
            headroom: 50_000_000,
        },
    ));
    let pid = kernel.lock().spawn(
        "w",
        Box::new(ScriptedProgram::new([
            Op::Compute(Phase::scalar(200_000_000)),
            Op::Exit,
        ])),
        CpuMask::from_cpus([0]),
        0,
    );
    let mut papi = session.papi().unwrap();
    let es = papi.create_eventset();
    papi.attach(es, Attach::Task(pid)).unwrap();
    papi.add_named(es, "adl_glc::INST_RETIRED:ANY").unwrap();
    papi.start(es).unwrap();
    let (fd, bias) = kernel
        .lock()
        .fault_log()
        .iter()
        .find_map(|r| {
            let (fd, bias) = r.desc.strip_prefix("fd")?.split_once(" wrap bias ")?;
            Some((EventFd(fd.parse().ok()?), bias.parse::<u64>().ok()?))
        })
        .expect("the P-core event drew a wrap bias");
    // start() reset the count to 0, so the register's bits are
    // `count + bias` and cross 2⁴⁸ once the count reaches this.
    let wraps_at = COUNTER_MASK - bias + 1;
    let mut checked = [false; 2];
    for _ in 0..10_000 {
        kernel.lock().tick();
        let counted = kernel.lock().task_stats(pid).unwrap().instructions;
        let side = usize::from(counted >= wraps_at);
        if checked[side] {
            continue;
        }
        let before = papi.syscall_stats();
        let fast = papi.read_fast(es, 0).unwrap();
        let after = papi.syscall_stats();
        assert_eq!(
            (after.rdpmc_reads, after.reads),
            (before.rdpmc_reads + 1, before.reads),
            "read_fast took the rdpmc path, not the syscall fallback"
        );
        let slow = papi.read(es).unwrap()[0].1;
        assert_eq!(fast, slow, "rdpmc equals read() (wrapped: {side})");
        assert_eq!(fast, counted, "rdpmc equals the task's instructions");
        let mut k = kernel.lock();
        assert_eq!(
            k.mmap_userpage(fd).unwrap().hw_value,
            counted.wrapping_add(bias) & COUNTER_MASK,
            "the userpage carries the register's wrapped bits"
        );
        assert_eq!(k.read_event(fd).unwrap().value, counted, "read() is 64-bit");
        drop(k);
        checked[side] = true;
        if side == 1 {
            break;
        }
    }
    assert_eq!(
        checked,
        [true, true],
        "read once before and once after the wrap"
    );
}

/// NMI-watchdog theft of the instructions fixed counter under full GP
/// pressure: the event multiplexes, and the PAPI layer reports a scaled
/// estimate *flagged* `Scaled` — degraded, never silently wrong.
#[test]
fn watchdog_theft_degrades_to_scaled_quality() {
    let session = Session::raptor_lake();
    let kernel = session.kernel();
    kernel.lock().install_faults(&FaultPlan::new(3).at(
        0,
        FaultKind::NmiWatchdog {
            steal: ArchEvent::Instructions,
            hold_ns: None,
        },
    ));
    let pid = kernel.lock().spawn(
        "w",
        Box::new(ScriptedProgram::new([
            Op::Compute(Phase::scalar(100_000_000)),
            Op::Exit,
        ])),
        CpuMask::from_cpus([0]),
        0,
    );
    let mut papi = session.papi().unwrap();
    let es = papi.create_eventset();
    papi.attach(es, Attach::Task(pid)).unwrap();
    // INST_RETIRED would live on the (stolen) fixed counter; these eight
    // fill every Golden Cove GP counter, so the spilled event multiplexes.
    for name in [
        "adl_glc::INST_RETIRED:ANY",
        "adl_glc::BR_INST_RETIRED:ALL_BRANCHES",
        "adl_glc::BR_MISP_RETIRED:ALL_BRANCHES",
        "adl_glc::MEM_INST_RETIRED:ALL_LOADS",
        "adl_glc::L1D:REPLACEMENT",
        "adl_glc::L2_RQSTS:REFERENCES",
        "adl_glc::LONGEST_LAT_CACHE:REFERENCE",
        "adl_glc::CYCLE_ACTIVITY:STALLS_MEM_ANY",
        "adl_glc::DTLB_LOAD_MISSES:WALK_COMPLETED",
    ] {
        papi.add_named(es, name).unwrap();
    }
    assert_eq!(papi.num_groups(es).unwrap(), 1, "one per-PMU group planned");
    papi.start(es).unwrap();
    // With the fixed counter stolen the 9-event group can never be
    // co-scheduled on 8 GP counters; start() must have fallen back to
    // multiplexed single-event groups automatically.
    assert_eq!(
        papi.num_groups(es).unwrap(),
        9,
        "automatic multiplexing fallback splits the unschedulable group"
    );
    kernel.lock().run_to_completion(600_000_000_000);

    let q = papi.read_with_quality(es).unwrap();
    let (label, inst, quality) = &q[0];
    assert!(label.contains("INST_RETIRED"));
    assert_ne!(
        *quality,
        ReadQuality::Ok,
        "a multiplexed estimate must not masquerade as exact"
    );
    let err = (*inst as f64 - 100_000_000.0).abs() / 100_000_000.0;
    assert!(
        err < 0.25,
        "scaled estimate within tolerance: {inst} ({err:.3})"
    );
    assert!(
        q.iter().any(|(_, _, qq)| *qq == ReadQuality::Scaled),
        "rotation shows up as Scaled somewhere: {q:#?}"
    );
    // The strict path returns the same (scaled) values — scaling is an
    // estimate, not an error.
    let v = papi.read(es).unwrap();
    assert_eq!(v[0].1, *inst);
    assert!(kernel
        .lock()
        .fault_log()
        .iter()
        .any(|r| r.desc.contains("watchdog stole")));
}

/// A RAPL burst of several whole 2³² µJ wraps between two samples is
/// invisible to the naive single-wrap delta but exactly recoverable with a
/// plan-informed hint.
#[test]
fn rapl_burst_recovered_with_plan_known_hint() {
    const WRAPS: u64 = 3;
    const EXTRA_UJ: u64 = 123_456;
    let session = Session::raptor_lake();
    let kernel = session.kernel();
    kernel.lock().install_faults(&FaultPlan::new(9).at(
        200_000_000,
        FaultKind::RaplWrapBurst {
            wraps: WRAPS as u32,
            extra_uj: EXTRA_UJ,
        },
    ));
    kernel.lock().spawn(
        "burn",
        Box::new(ScriptedProgram::new([
            Op::Compute(Phase::scalar(2_000_000_000)),
            Op::Exit,
        ])),
        CpuMask::from_cpus([0]),
        0,
    );
    let run_to = |t: u64| {
        let mut k = kernel.lock();
        while k.time_ns() < t {
            k.tick();
        }
    };
    let read_pkg = || -> u64 {
        let k = kernel.lock();
        sysfs::read(&k, "/sys/class/powercap/intel-rapl:0/energy_uj")
            .unwrap()
            .parse()
            .unwrap()
    };
    run_to(100_000_000);
    let prev = read_pkg();
    let truth0 = kernel
        .lock()
        .machine()
        .rapl()
        .energy_total_uj(RaplDomain::Package);
    run_to(400_000_000);
    let now = read_pkg();
    let truth1 = kernel
        .lock()
        .machine()
        .rapl()
        .energy_total_uj(RaplDomain::Package);

    let truth = truth1 - truth0;
    let naive = energy_delta_uj(prev, now);
    // Naive unwrapping cannot see whole injected wraps: it is short by
    // exactly WRAPS × 2³² µJ.
    assert!(
        truth - naive as f64 > (WRAPS as f64 - 0.1) * ENERGY_WRAP_UJ as f64,
        "naive delta misses the burst: naive={naive} truth={truth}"
    );
    // A consumer that knows the plan (or carries a power-model estimate
    // within ±half a wrap) recovers the delta exactly.
    let hinted = energy_delta_uj_hinted(prev, now, naive + WRAPS * ENERGY_WRAP_UJ);
    assert_eq!(hinted, naive + WRAPS * ENERGY_WRAP_UJ);
    assert!(
        (truth - hinted as f64).abs() < 4.0,
        "hinted delta matches unwrapped ground truth to rounding: {hinted} vs {truth}"
    );
}

/// The telemetry poller rides out a flaky-sysfs window overlapping a CPU
/// outage: dropped samples are counted, never fabricated; the power series
/// bridges the gap; per-CPU frequency tracks the hotplug.
#[test]
fn poller_bridges_flaky_sysfs_during_hotplug() {
    let session = Session::raptor_lake();
    let kernel = session.kernel();
    kernel.lock().install_faults(
        &FaultPlan::new(13)
            .at(
                200_000_000,
                FaultKind::CpuOffline {
                    cpu: CpuId(17),
                    down_ns: Some(300_000_000),
                },
            )
            .at(
                300_000_000,
                FaultKind::SysfsFlaky {
                    dur_ns: 200_000_000,
                },
            ),
    );
    kernel.lock().spawn(
        "burn",
        Box::new(ScriptedProgram::new([
            Op::Compute(Phase::scalar(2_000_000_000)),
            Op::Exit,
        ])),
        CpuMask::first_n(8),
        0,
    );
    let mut poller = Poller::new(kernel.clone(), 100_000_000); // 10 Hz
    for _ in 0..1000 {
        kernel.lock().tick();
        poller.poll();
    }
    let tr = &poller.trace;
    assert!(tr.missed >= 2, "0.2 s blackout at 10 Hz: {}", tr.missed);
    for s in &tr.samples {
        assert!(s.temp_mc > 0, "no fabricated samples");
        assert!(s.rapl_uj.is_some(), "no partial RAPL triples");
    }
    // Hotplug visible in the frequency column, before and after.
    assert!(
        tr.samples
            .iter()
            .any(|s| s.t_s > 0.2 && s.t_s < 0.3 && s.freq_khz[17] == 0),
        "offline CPU reads 0 kHz during the outage"
    );
    assert!(
        tr.samples.iter().any(|s| s.t_s > 0.6 && s.freq_khz[17] > 0),
        "re-onlined CPU reports a frequency again"
    );
    // The energy series is continuous: one point per surviving pair,
    // bridged straight across the blackout.
    let p = tr.pkg_power_series();
    assert_eq!(p.len(), tr.samples.len() - 1);
    assert!(p.iter().all(|&(_, w)| w.is_finite() && w >= 0.0));
}
