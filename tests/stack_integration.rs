//! Cross-crate integration tests: the full stack (machine → kernel →
//! libpfm → PAPI → workloads → telemetry) exercised end to end on every
//! machine model.

use hetero_papi::prelude::*;
use telemetry::{monitored_hpl_run, DriverConfig, Poller};
use workloads::hpl::spawn_hpl;

fn small_hpl() -> HplConfig {
    HplConfig {
        n: 1152,
        nb: 192,
        p: 1,
        q: 1,
    }
}

#[test]
fn full_stack_raptor_lake_hpl_with_papi_counters() {
    let session = Session::raptor_lake();
    let kernel = session.kernel();
    let run = spawn_hpl(
        &kernel,
        small_hpl(),
        HplVariant::IntelMkl,
        CpuMask::parse_cpulist("0,2,16,17").unwrap(),
    );
    // Count package-wide LLC traffic and energy through one EventSet
    // while HPL runs (paper's merged-component scenario).
    let mut papi = session.papi().unwrap();
    let es = papi.create_eventset();
    papi.attach(es, Attach::Cpu(CpuId(0))).unwrap();
    papi.add_named(es, "unc_llc::UNC_LLC_LOOKUPS").unwrap();
    papi.add_named(es, "rapl::RAPL_ENERGY_PKG").unwrap();
    papi.start(es).unwrap();
    let gflops =
        workloads::hpl::run_to_completion(&kernel, &run, 600_000_000_000).expect("finishes");
    let values = papi.stop(es).unwrap();
    assert!(gflops > 1.0);
    assert!(values[0].1 > 0, "LLC lookups counted: {values:?}");
    assert!(values[1].1 > 0, "package energy counted: {values:?}");
}

#[test]
fn presets_work_on_every_machine() {
    for (session, cpulist) in [
        (Session::raptor_lake(), "0,16"),
        (Session::orangepi_800(), "0,2"),
        (Session::skylake(), "0"),
        (Session::dynamiq(), "0,1,4"),
    ] {
        let kernel = session.kernel();
        let pid = kernel.lock().spawn(
            "w",
            Box::new(ScriptedProgram::new([
                Op::Compute(Phase::scalar(2_000_000)),
                Op::Exit,
            ])),
            CpuMask::parse_cpulist(cpulist).unwrap(),
            0,
        );
        let mut papi = session.papi().unwrap();
        let es = papi.create_eventset();
        papi.attach(es, Attach::Task(pid)).unwrap();
        papi.add_preset(es, Preset::TotIns).unwrap();
        papi.add_preset(es, Preset::TotCyc).unwrap();
        papi.start(es).unwrap();
        kernel.lock().run_to_completion(60_000_000_000);
        let v = papi.stop(es).unwrap();
        assert_eq!(
            v[0].1,
            2_000_000 + 4_300,
            "TOT_INS on {}",
            papi.hardware_info().model_string
        );
        assert!(v[1].1 > 0, "TOT_CYC counted");
    }
}

#[test]
fn tri_cluster_preset_spans_three_pmus() {
    let session = Session::dynamiq();
    let mut papi = session.papi().unwrap();
    let es = papi.create_eventset();
    let kernel = session.kernel();
    let pid = kernel.lock().spawn(
        "w",
        Box::new(ScriptedProgram::new([
            Op::Compute(Phase::scalar(1_000_000)),
            Op::Exit,
        ])),
        CpuMask::first_n(8),
        0,
    );
    papi.attach(es, Attach::Task(pid)).unwrap();
    papi.add_preset(es, Preset::TotIns).unwrap();
    // Three core types → three natives → three perf groups.
    assert_eq!(papi.native_names(es).unwrap().len(), 3);
    assert_eq!(papi.num_groups(es).unwrap(), 3);
    papi.start(es).unwrap();
    kernel.lock().run_to_completion(60_000_000_000);
    let v = papi.stop(es).unwrap();
    assert_eq!(v[0].1, 1_000_000 + 4_300);
}

#[test]
fn telemetry_observes_hpl_run() {
    let session = Session::raptor_lake();
    let r = monitored_hpl_run(
        &session.kernel(),
        &small_hpl(),
        HplVariant::OpenBlas,
        CpuMask::parse_cpulist("0,2,4,6").unwrap(),
        &DriverConfig {
            n_runs: 1,
            poll_interval_ns: 5_000_000,
            ..Default::default()
        },
        0,
    );
    assert!(r.gflops.unwrap() > 1.0);
    assert!(!r.trace.samples.is_empty());
    // RAPL energy advanced over the run.
    let p = r.trace.pkg_power_series();
    assert!(!p.is_empty());
    assert!(p.iter().any(|&(_, w)| w > 1.0), "some package power seen");
}

#[test]
fn poller_thermal_trace_on_orangepi() {
    let session = Session::orangepi_800();
    let kernel = session.kernel();
    // Saturate the big cores for 120 simulated seconds.
    for c in 0..2 {
        kernel.lock().spawn(
            "burn",
            Box::new(ScriptedProgram::new([
                Op::Compute(Phase::dgemm(u64::MAX / 4, 1 << 20, 0.9)),
                Op::Exit,
            ])),
            CpuMask::from_cpus([c]),
            0,
        );
    }
    let mut poller = Poller::new(kernel.clone(), 1_000_000_000);
    for _ in 0..120_000 {
        kernel.lock().tick();
        poller.poll();
    }
    let temps = poller.trace.temp_series_c();
    let first = temps.first().unwrap().1;
    let last = temps.last().unwrap().1;
    assert!(last > first + 20.0, "SoC heated: {first} → {last}");
    // The big cluster must have been stepped down by the trip ladder.
    let big = CpuMask::parse_cpulist("0-1").unwrap();
    let f = poller.trace.freq_series_mhz(&big);
    assert!(f.iter().any(|&(_, mhz)| mhz >= 1790.0), "reached max");
    assert!(
        f.last().unwrap().1 < 1700.0,
        "throttled by the end: {:?}",
        f.last()
    );
}

#[test]
fn perf_tool_style_system_wide_counting() {
    // The §IV.A perf-tool pattern: per-CPU events on every CPU via each
    // CPU's own PMU, alongside a running workload.
    let session = Session::raptor_lake();
    let kernel = session.kernel();
    let pfm = {
        let k = kernel.lock();
        pfmlib::Pfm::initialize(&k, pfmlib::PfmOptions::default()).unwrap()
    };
    let mut fds = Vec::new();
    {
        let mut k = kernel.lock();
        for i in 0..k.machine().n_cpus() {
            let ct = k.machine().cpu_info(CpuId(i)).core_type();
            let pmu = if ct == CoreType::Performance {
                "adl_glc"
            } else {
                "adl_grt"
            };
            let enc = pfm.encode(&format!("{pmu}::INST_RETIRED:ANY")).unwrap();
            let fd = k
                .perf_event_open(enc.attr, simos::perf::Target::Cpu(CpuId(i)), None)
                .unwrap();
            k.ioctl_enable(fd, false).unwrap();
            fds.push(fd);
        }
        k.spawn(
            "w",
            Box::new(ScriptedProgram::new([
                Op::Compute(Phase::scalar(10_000_000)),
                Op::Exit,
            ])),
            CpuMask::first_n(24),
            0,
        );
        k.run_to_completion(60_000_000_000);
    }
    let total: u64 = {
        let mut k = kernel.lock();
        fds.iter().map(|&fd| k.read_event(fd).unwrap().value).sum()
    };
    assert_eq!(total, 10_000_000, "system-wide sum sees every instruction");
}

#[test]
fn acpi_firmware_full_stack() {
    // The devicetree/ACPI naming wrinkle must not break the stack.
    let session = Session::boot_with(
        simcpu::machine::MachineSpec::orangepi_800(),
        KernelConfig {
            firmware: simos::kernel::Firmware::Acpi,
            ..Default::default()
        },
    );
    let mut papi = session.papi().unwrap();
    assert!(papi.hardware_info().heterogeneous);
    let kernel = session.kernel();
    let pid = kernel.lock().spawn(
        "w",
        Box::new(ScriptedProgram::new([
            Op::Compute(Phase::scalar(500_000)),
            Op::Exit,
        ])),
        CpuMask::from_cpus([0]),
        0,
    );
    let es = papi.create_eventset();
    papi.attach(es, Attach::Task(pid)).unwrap();
    papi.add_named(es, "arm_ac72::INST_RETIRED").unwrap();
    papi.start(es).unwrap();
    kernel.lock().run_to_completion(30_000_000_000);
    assert_eq!(papi.stop(es).unwrap()[0].1, 500_000 + 4_300);
}

/// Per-core-type instruction conservation through 16 concurrent
/// EventSets, one `Papi` per pinned HPL worker as in the paper's
/// monitored run: each worker's `adl_glc` and `adl_grt` INST_RETIRED:ANY
/// equal, exactly, the instructions the core model retired for it on P
/// and on E cores, and no read is scaled or lost.
#[test]
fn hpl_worker_eventsets_conserve_instructions_per_core_type() {
    use simos::task::core_type_index;
    for variant in [HplVariant::IntelMkl, HplVariant::OpenBlas] {
        let session = Session::raptor_lake();
        let kernel = session.kernel();
        let run = spawn_hpl(
            &kernel,
            HplConfig {
                n: 2304,
                nb: 192,
                p: 1,
                q: 1,
            },
            variant,
            CpuMask::parse_cpulist("0,2,4,6,8,10,12,14,16-23").unwrap(),
        );
        let mut sets = Vec::new();
        for &pid in &run.pids {
            let mut papi = session.papi().unwrap();
            let es = papi.create_eventset();
            papi.attach(es, Attach::Task(pid)).unwrap();
            papi.add_named(es, "adl_glc::INST_RETIRED:ANY").unwrap();
            papi.add_named(es, "adl_grt::INST_RETIRED:ANY").unwrap();
            papi.start(es).unwrap();
            sets.push((pid, papi, es));
        }
        assert_eq!(sets.len(), 16, "one worker per CPU of the P+E set");
        workloads::hpl::run_to_completion(&kernel, &run, 600_000_000_000).expect("HPL finishes");
        for (pid, mut papi, es) in sets {
            let got = papi.read_with_quality(es).unwrap();
            let by_type = kernel.lock().task_stats(pid).unwrap().instructions_by_type;
            let want = [
                by_type[core_type_index(CoreType::Performance)],
                by_type[core_type_index(CoreType::Efficiency)],
            ];
            for ((label, value, quality), want) in got.iter().zip(want) {
                assert_eq!(
                    (*value, *quality),
                    (want, ReadQuality::Ok),
                    "{} worker {pid:?}: {label}",
                    variant.name()
                );
            }
            assert!(want.iter().sum::<u64>() > 0, "worker {pid:?} retired work");
        }
    }
}
