//! Executable versions of the paper's headline claims, at test-friendly
//! scales. The full-scale numbers live in EXPERIMENTS.md; these tests
//! assert the *shapes* hold in CI time.

use hetero_papi::prelude::*;
use simcpu::types::CpuId;
use telemetry::{monitored_hpl_run, DriverConfig};
use workloads::micro::{spawn_hybrid_test, spawn_noise, HybridTestConfig, HOOK_START, HOOK_STOP};

/// §IV.F: the hybrid test — per-type counts sum to work + overhead, with
/// both core types represented under background load.
#[test]
fn hybrid_100x1m_counts_sum_to_one_million() {
    let session = Session::raptor_lake();
    let kernel = session.kernel();
    let noise = spawn_noise(
        &kernel,
        CpuMask::parse_cpulist("0-15").unwrap(),
        2_000_000,
        10_000_000,
    );
    let cfg = HybridTestConfig {
        repetitions: 30,
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
    assert_eq!(results.len(), 30);
    let mut p_total = 0u64;
    let mut e_total = 0u64;
    for r in &results {
        let (p, e) = (r[0].1, r[1].1);
        // Every repetition: p + e = 1 M + PAPI overhead, exactly.
        assert_eq!(p + e, 1_000_000 + 4_300, "{r:?}");
        p_total += p;
        e_total += e;
    }
    assert!(
        p_total > e_total,
        "P cores dominate: {p_total} vs {e_total}"
    );
    assert!(e_total > 0, "some repetitions migrate to E cores");
}

/// §II.A at 1/16 scale: the hetero-aware build must beat the unaware one
/// on the mixed core set, by more than on the P-only set.
#[test]
fn table2_shape_intel_wins_most_on_mixed_cores() {
    let driver = DriverConfig {
        n_runs: 1,
        ..Default::default()
    };
    let cfg = HplConfig::scaled(16);
    let mut gf = std::collections::HashMap::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (set, cpulist) in [
            ("p", "0,2,4,6,8,10,12,14"),
            ("all", "0,2,4,6,8,10,12,14,16-23"),
        ] {
            for variant in [HplVariant::OpenBlas, HplVariant::IntelMkl] {
                let driver = driver.clone();
                let cfg = cfg.clone();
                handles.push((
                    (set, variant),
                    s.spawn(move || {
                        let kernel = Session::boot_with(
                            simcpu::machine::MachineSpec::raptor_lake_i7_13700(),
                            KernelConfig {
                                tick_ns: 200_000,
                                ..Default::default()
                            },
                        )
                        .kernel();
                        monitored_hpl_run(
                            &kernel,
                            &cfg,
                            variant,
                            CpuMask::parse_cpulist(cpulist).unwrap(),
                            &driver,
                            0,
                        )
                        .gflops
                        .expect("finishes")
                    }),
                ));
            }
        }
        for (k, h) in handles {
            gf.insert(k, h.join().unwrap());
        }
    });
    let ob_p = gf[&("p", HplVariant::OpenBlas)];
    let ob_all = gf[&("all", HplVariant::OpenBlas)];
    let mkl_p = gf[&("p", HplVariant::IntelMkl)];
    let mkl_all = gf[&("all", HplVariant::IntelMkl)];
    // Intel wins on both sets…
    assert!(mkl_p > ob_p, "P-only: {mkl_p} vs {ob_p}");
    assert!(mkl_all > ob_all, "all-core: {mkl_all} vs {ob_all}");
    // …and by more on the mixed set (Table II's widening gap).
    let gain_p = mkl_p / ob_p;
    let gain_all = mkl_all / ob_all;
    assert!(
        gain_all > gain_p,
        "hetero-awareness matters most on mixed cores: {gain_all:.3} vs {gain_p:.3}"
    );
    // The aware build extracts positive value from the E-cores.
    assert!(mkl_all > mkl_p, "Intel all-core beats P-only");
}

/// Table III's E-core story: demand LLC miss rates on E cores are orders
/// of magnitude below P cores for the same workload.
#[test]
fn table3_shape_ecore_llc_missrate_tiny() {
    let session = Session::raptor_lake();
    let kernel = session.kernel();
    let pfm = {
        let k = kernel.lock();
        pfmlib::Pfm::initialize(&k, pfmlib::PfmOptions::default()).unwrap()
    };
    // One dgemm-ish streaming task per type, pinned.
    let mut fds = Vec::new();
    {
        let mut k = kernel.lock();
        for (cpu, pmu) in [(0usize, "adl_glc"), (16, "adl_grt")] {
            k.spawn(
                "w",
                Box::new(ScriptedProgram::new([
                    Op::Compute(Phase::dgemm(80_000_000, 20 << 30, 0.1)),
                    Op::Exit,
                ])),
                CpuMask::from_cpus([cpu]),
                0,
            );
            let r = pfm
                .encode(&format!("{pmu}::LONGEST_LAT_CACHE:REFERENCE"))
                .unwrap();
            let m = pfm
                .encode(&format!("{pmu}::LONGEST_LAT_CACHE:MISS"))
                .unwrap();
            let leader = k
                .perf_event_open(r.attr, simos::perf::Target::Cpu(CpuId(cpu)), None)
                .unwrap();
            let miss = k
                .perf_event_open(m.attr, simos::perf::Target::Cpu(CpuId(cpu)), Some(leader))
                .unwrap();
            k.ioctl_enable(leader, true).unwrap();
            fds.push((leader, miss));
        }
        k.run_to_completion(600_000_000_000);
    }
    let mut rates = Vec::new();
    {
        let mut k = kernel.lock();
        for (r, m) in &fds {
            let refs = k.read_event(*r).unwrap().value as f64;
            let miss = k.read_event(*m).unwrap().value as f64;
            rates.push(miss / refs.max(1.0));
        }
    }
    assert!(rates[0] > 0.5, "P-core demand miss rate high: {rates:?}");
    assert!(rates[1] < 0.01, "E-core demand miss rate tiny: {rates:?}");
}

/// §II.B at reduced scale: big cores throttle; LITTLE cores at full tilt.
#[test]
fn biglittle_thermal_story() {
    let session = Session::orangepi_800();
    let kernel = session.kernel();
    // Long enough to outlast the SoC's ~66 s thermal time constant.
    let cfg = HplConfig {
        n: 14976,
        nb: 192,
        p: 1,
        q: 1,
    };
    let driver = DriverConfig {
        n_runs: 1,
        ..Default::default()
    };
    let big = monitored_hpl_run(
        &kernel,
        &cfg,
        HplVariant::OpenBlas,
        CpuMask::parse_cpulist("0-1").unwrap(),
        &driver,
        0,
    );
    let big_f = big
        .trace
        .freq_series_mhz(&CpuMask::parse_cpulist("0-1").unwrap());
    assert!(
        big_f.iter().any(|&(_, f)| f >= 1790.0),
        "big cores reach 1.8 GHz first"
    );
    assert!(
        big_f.last().unwrap().1 < 1700.0,
        "…then get thermally stepped down: {:?}",
        big_f.last()
    );

    let fresh = Session::orangepi_800();
    let little = monitored_hpl_run(
        &fresh.kernel(),
        &cfg,
        HplVariant::OpenBlas,
        CpuMask::parse_cpulist("2-5").unwrap(),
        &driver,
        0,
    );
    // Fig 4: four LITTLE beat two throttled big.
    assert!(
        little.gflops.unwrap() > big.gflops.unwrap(),
        "4×A53 {:.2} GF vs 2×A72 {:.2} GF",
        little.gflops.unwrap(),
        big.gflops.unwrap()
    );
}

/// §IV.B: detection works on every machine, via the right method.
#[test]
fn detection_ladder_per_machine() {
    use papi::DetectMethod::*;
    for (session, expect_method, expect_types) in [
        (Session::raptor_lake(), CpuidLeaf1A, 2),
        (Session::orangepi_800(), CpuCapacity, 2),
        (Session::dynamiq(), CpuCapacity, 3),
        (Session::skylake(), PmuCpusFiles, 1),
    ] {
        let papi = session.papi().unwrap();
        let report = papi.detection_report();
        let (method, _) = report.chosen.clone().expect("something detects");
        assert_eq!(method, expect_method);
        assert_eq!(report.n_core_types(), expect_types);
    }
}

/// §IV.D/E: the legacy library fails on hybrid configurations in all the
/// documented ways; the patched one succeeds.
#[test]
fn legacy_vs_patched_matrix() {
    let session = Session::raptor_lake();
    // Legacy libpfm4 on ARM finds one PMU (§IV.C).
    let opi = Session::orangepi_800();
    let legacy_arm = opi.papi_legacy().unwrap();
    assert_eq!(legacy_arm.pfm().default_pmus().len(), 1);
    let patched_arm = opi.papi().unwrap();
    assert_eq!(patched_arm.pfm().default_pmus().len(), 2);

    // Legacy can't mix PMUs; patched can.
    let mut legacy = session.papi_legacy().unwrap();
    let es = legacy.create_eventset();
    legacy.add_named(es, "adl_glc::INST_RETIRED:ANY").unwrap();
    assert!(matches!(
        legacy.add_named(es, "adl_grt::INST_RETIRED:ANY"),
        Err(PapiError::MultiPmuUnsupported { .. })
    ));
    let mut patched = session.papi().unwrap();
    let es2 = patched.create_eventset();
    patched.add_named(es2, "adl_glc::INST_RETIRED:ANY").unwrap();
    patched.add_named(es2, "adl_grt::INST_RETIRED:ANY").unwrap();
    patched.add_named(es2, "rapl::RAPL_ENERGY_PKG").unwrap();
    assert_eq!(patched.num_groups(es2).unwrap(), 3);
}

/// Scheduler tournament, Table II side: CfsLike's idle-core bonus parks
/// half the 16-worker team on E cores (the all-core straggler the paper
/// measures as OpenBLAS losing 18.5 % vs P-only); capacity-aware packing
/// onto P SMT siblings removes it. Same scenarios `schedbench` publishes
/// to BENCH_sched.json, at smoke scale.
#[test]
fn sched_tournament_capacity_kills_the_table2_straggler() {
    use simos::SchedName;
    use workloads::tournament::{raptor_scenario, run_case};

    let sc = raptor_scenario(64);
    let cfs = run_case(&sc, SchedName::Cfs);
    let cap = run_case(&sc, SchedName::Capacity);

    // CfsLike reproduces the pathology: a meaningful slice of the team's
    // instructions retire on E cores, and the solve pays for it.
    assert!(
        cfs.big_core_share_pct < 90.0,
        "cfs should spill onto E cores: {:.1}% on P",
        cfs.big_core_share_pct
    );
    // CapacityAware packs the team onto P SMT siblings instead.
    assert!(
        cap.big_core_share_pct > 99.0,
        "capacity should pack P cores: {:.1}% on P",
        cap.big_core_share_pct
    );
    assert!(
        cap.gflops > cfs.gflops * 1.05,
        "straggler removed: capacity {:.2} GF vs cfs {:.2} GF",
        cap.gflops,
        cfs.gflops
    );
}

/// Scheduler tournament, Table IV side: on the pre-soaked RK3399,
/// capacity-only placement keeps hammering the A72s into the trip
/// ladder until the whole package (A53s included) is frequency-capped;
/// thermal steering latches its derate near the first trip and finishes
/// faster on the LITTLE cluster — Fig. 4's inversion, as a scheduling
/// decision.
#[test]
fn sched_tournament_thermal_steer_avoids_the_table4_inversion() {
    use simos::SchedName;
    use workloads::tournament::{orangepi_scenario, run_case};

    let sc = orangepi_scenario(4);
    let cfs = run_case(&sc, SchedName::Cfs);
    let thm = run_case(&sc, SchedName::Thermal);

    // CfsLike reproduces the pathology: the big cores do most of the
    // work and drag the package over the A53 trip point.
    assert!(
        cfs.big_core_share_pct > 50.0,
        "cfs should favor the A72s: {:.1}% on big",
        cfs.big_core_share_pct
    );
    // ThermalSteer runs the solve on the LITTLE cluster…
    assert!(
        thm.big_core_share_pct < 20.0,
        "thermal should steer to the A53s: {:.1}% on big",
        thm.big_core_share_pct
    );
    // …and both finishes sooner and spends less energy doing it.
    assert!(
        thm.gflops > cfs.gflops * 1.03,
        "inversion avoided: thermal {:.2} GF vs cfs {:.2} GF",
        thm.gflops,
        cfs.gflops
    );
    assert!(
        thm.energy_uj < cfs.energy_uj,
        "cool placement is also the cheaper one: {:.0} vs {:.0} uJ",
        thm.energy_uj,
        cfs.energy_uj
    );
}
