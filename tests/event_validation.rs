//! Röhl-style event-validation matrix.
//!
//! "Validation of hardware events for successful performance pattern
//! identification in HPC" (Röhl et al.) trusts a counter only after a
//! kernel with *analytically known* event counts lands inside bounds.
//! This suite generalises the paper's single §IV.F validation
//! (`papi_hybrid_100m_one_eventset`) to a gated matrix:
//!
//!   every analytic kernel (retire / stream / chase / server)
//! × every core type   (glc / grt on Raptor Lake, a72 / a53 on RK3399)
//! × hardware + software events (4 presets each),
//!
//! measured through the LIKWID-style marker-region API, asserting each
//! measured value lands in the kernel's closed-form `(lo, hi)` and on
//! the *correct core type's* PMU row. A fault-interaction pass reruns
//! the structure under hotplug + NMI counter theft: software events must
//! stay exact while hardware reads degrade via `ReadQuality`.
//!
//! Emits `BENCH_validation.json` (per-kernel measured-vs-expected
//! deltas) for the tier-1 ledger. `VALIDATION_QUICK=1` shrinks the
//! instruction count, keeping the full matrix shape.

use papi::regions::{begin_hook, end_hook, RegionId, RegionSummary, Regions};
use papi::{Attach, Papi, PapiConfig, ReadQuality};
use simcpu::machine::MachineSpec;
use simcpu::phase::Phase;
use simcpu::types::{CoreType, CpuMask};
use simos::faults::{FaultKind, FaultPlan};
use simos::kernel::{Kernel, KernelConfig, KernelHandle};
use simos::task::{Op, ScriptedProgram};
use workloads::micro::Analytic;

const HW_EVENTS: &[&str] = &["PAPI_TOT_INS", "PAPI_BR_INS", "PAPI_BR_MSP", "PAPI_VEC_INS"];

fn instructions() -> u64 {
    if std::env::var("VALIDATION_QUICK").is_ok_and(|v| !v.is_empty()) {
        2_000_000
    } else {
        10_000_000
    }
}

fn boot(spec: MachineSpec) -> KernelHandle {
    Kernel::boot_handle(spec, KernelConfig::default())
}

/// PAPI without its injected start overhead.
fn papi_without_overhead(kernel: &KernelHandle) -> Papi {
    let cfg = PapiConfig {
        overhead_instructions: 0,
        ..Default::default()
    };
    Papi::init_with(kernel.clone(), cfg).unwrap()
}

/// One matrix target: a machine and a pinned CPU of a known core type.
struct Target {
    machine: &'static str,
    uarch: &'static str,
    spec: fn() -> MachineSpec,
    cpu: usize,
    core_type: CoreType,
}

fn targets() -> Vec<Target> {
    vec![
        Target {
            machine: "raptor_lake_i7_13700",
            uarch: "glc",
            spec: MachineSpec::raptor_lake_i7_13700,
            cpu: 0,
            core_type: CoreType::Performance,
        },
        Target {
            machine: "raptor_lake_i7_13700",
            uarch: "grt",
            spec: MachineSpec::raptor_lake_i7_13700,
            cpu: 16,
            core_type: CoreType::Efficiency,
        },
        Target {
            machine: "orangepi_800",
            uarch: "a72",
            spec: MachineSpec::orangepi_800,
            cpu: 0,
            core_type: CoreType::Performance,
        },
        Target {
            machine: "orangepi_800",
            uarch: "a53",
            spec: MachineSpec::orangepi_800,
            cpu: 2,
            core_type: CoreType::Efficiency,
        },
    ]
}

/// Run one analytic kernel pinned to `target`, measured through marker
/// regions, and return the finished region summary.
fn run_kernel(target: &Target, kernel_spec: &Analytic) -> RegionSummary {
    let kernel = boot((target.spec)());
    let r = RegionId(0);
    let pid = kernel_spec.spawn_marked(
        &kernel,
        CpuMask::from_cpus([target.cpu]),
        begin_hook(r),
        end_hook(r),
    );
    let papi = papi_without_overhead(&kernel);
    let mut regions = Regions::init(papi, pid, &Analytic::events()).unwrap();
    assert_eq!(regions.region_init(kernel_spec.name()), r);
    regions.run_marked(600_000_000_000).unwrap();
    let report = regions.finish().unwrap();
    report.regions.into_iter().next().unwrap()
}

#[test]
fn validation_matrix_kernels_by_core_type() {
    let n = instructions();
    let mut w = jsonw::JsonWriter::new();
    w.begin_obj();
    w.field_str("bench", "validation");
    w.field_u64("instructions", n);
    w.key("cells");
    w.begin_arr();
    let mut failures = Vec::new();
    for target in targets() {
        for kernel_spec in Analytic::suite(n) {
            let summary = run_kernel(&target, &kernel_spec);
            assert_eq!(summary.count, 1);
            for (event, (lo, hi)) in kernel_spec.expected_counts(target.core_type) {
                let measured = summary.value(&event);
                w.begin_obj();
                w.field_str("machine", target.machine);
                w.field_str("core", target.uarch);
                w.field_str("kernel", kernel_spec.name());
                w.field_str("event", &event);
                w.field_u64("measured", measured);
                w.field_u64("lo", lo);
                w.field_u64("hi", hi);
                let mid = (lo + hi) / 2;
                w.field_f64("delta", measured as f64 - mid as f64);
                w.end_obj();
                if !(lo..=hi).contains(&measured) {
                    failures.push(format!(
                        "{}/{}/{}: {event} = {measured} outside [{lo}, {hi}]",
                        target.machine,
                        target.uarch,
                        kernel_spec.name()
                    ));
                }
                // Hardware counts must land on the pinned core type's PMU
                // row; the other core type's row stays zero.
                if HW_EVENTS.contains(&event.as_str()) {
                    let on_type = summary.value_on(&event, target.core_type);
                    if on_type != measured {
                        failures.push(format!(
                            "{}/{}/{}: {event} = {measured} but only {on_type} on {:?}",
                            target.machine,
                            target.uarch,
                            kernel_spec.name(),
                            target.core_type
                        ));
                    }
                    let other = match target.core_type {
                        CoreType::Performance => CoreType::Efficiency,
                        _ => CoreType::Performance,
                    };
                    let off_type = summary.value_on(&event, other);
                    if off_type != 0 {
                        failures.push(format!(
                            "{}/{}/{}: {event} leaked {off_type} onto {other:?}",
                            target.machine,
                            target.uarch,
                            kernel_spec.name()
                        ));
                    }
                }
            }
        }
    }
    w.end_arr();
    w.field_u64("violations", failures.len() as u64);
    w.end_obj();
    let json = w.finish();
    assert!(jsonw::validate(&json), "BENCH_validation.json emitter bug");
    std::fs::write("BENCH_validation.json", &json).expect("write BENCH_validation.json");
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn software_events_stay_exact_under_hotplug_and_nmi_theft() {
    // The degradation split the paper's graceful-degradation model
    // implies: NMI watchdog theft multiplexes the hardware instruction
    // counter (reads become Scaled estimates), while the software PMU —
    // which needs no hardware counter — keeps counting exactly through
    // both the theft and a CPU hotplug.
    let kernel = boot(MachineSpec::raptor_lake_i7_13700());
    let pid = kernel.lock().spawn(
        "victim",
        Box::new(ScriptedProgram::new([
            Op::Compute(Phase::scalar(200_000_000)),
            Op::Exit,
        ])),
        CpuMask::from_cpus([0, 1]),
        0,
    );
    let mut papi = papi_without_overhead(&kernel);
    let es = papi.create_eventset();
    papi.attach(es, Attach::Task(pid)).unwrap();
    papi.add_named(es, "adl_glc::INST_RETIRED:ANY").unwrap();
    papi.add_named(es, "perf_sw::CONTEXT_SWITCHES").unwrap();
    papi.add_named(es, "perf_sw::CPU_MIGRATIONS").unwrap();
    papi.add_named(es, "perf_sw::PAGE_FAULTS").unwrap();
    // Fill every Golden Cove GP counter so the stolen fixed counter has
    // nowhere to spill — without this, theft just reschedules
    // INST_RETIRED onto a free GP counter and quality stays Ok.
    for filler in [
        "adl_glc::BR_INST_RETIRED:ALL_BRANCHES",
        "adl_glc::BR_MISP_RETIRED:ALL_BRANCHES",
        "adl_glc::MEM_INST_RETIRED:ALL_LOADS",
        "adl_glc::L1D:REPLACEMENT",
        "adl_glc::L2_RQSTS:REFERENCES",
        "adl_glc::LONGEST_LAT_CACHE:REFERENCE",
        "adl_glc::CYCLE_ACTIVITY:STALLS_MEM_ANY",
        "adl_glc::FP_ARITH_INST_RETIRED:ALL",
    ] {
        papi.add_named(es, filler).unwrap();
    }
    papi.start(es).unwrap();
    kernel.lock().install_faults(
        &FaultPlan::new(42)
            .at(
                2_000_000,
                FaultKind::NmiWatchdog {
                    steal: simcpu::events::ArchEvent::Instructions,
                    hold_ns: None,
                },
            )
            .at(
                10_000_000,
                FaultKind::CpuOffline {
                    cpu: simcpu::types::CpuId(0),
                    down_ns: Some(20_000_000),
                },
            ),
    );
    kernel.lock().run_to_completion(600_000_000_000);
    let v = papi.read_with_quality(es).unwrap();
    papi.stop(es).unwrap();
    let (ref _ins_label, _ins, ins_q) = v[0];
    let (_, ctx, ctx_q) = v[1];
    let (_, mig, mig_q) = v[2];
    let (_, flt, flt_q) = v[3];
    assert_ne!(
        ins_q,
        ReadQuality::Ok,
        "theft must surface on the hardware row: {v:?}"
    );
    assert_eq!(ctx_q, ReadQuality::Ok, "{v:?}");
    assert_eq!(mig_q, ReadQuality::Ok, "{v:?}");
    assert_eq!(flt_q, ReadQuality::Ok, "{v:?}");
    assert_eq!(mig, 1, "hotplug migration counted exactly once: {v:?}");
    assert_eq!(flt, 2, "scalar working set = 2 first-touch pages: {v:?}");
    assert!(
        ctx >= 2,
        "initial switch-in + post-hotplug switch-in: {v:?}"
    );
    let st = kernel.lock().task_stats(pid).unwrap();
    assert_eq!(st.migrations, mig, "PMU and task stats agree");
    assert_eq!(st.page_faults, flt, "PMU and task stats agree");
}

#[test]
fn validation_survives_hotplug_with_software_events_exact() {
    // Matrix rerun under a hotplug fault: the marked region's software
    // events keep their closed forms (plus exactly the one forced
    // migration), and thread-attached hardware counting loses nothing
    // because both P cores share the glc PMU.
    // Sized so the 5 ms offline fault lands mid-region: 200 M scalar
    // instructions run ~10 ms; the server's 15 supra-tick sleeps alone
    // span ~30 ms.
    for kernel_spec in [
        Analytic::retire(200_000_000),
        Analytic::server(10_000_000, 16, 2_000_000),
    ] {
        let kernel = boot(MachineSpec::raptor_lake_i7_13700());
        let r = RegionId(0);
        let pid = kernel_spec.spawn_marked(
            &kernel,
            CpuMask::from_cpus([0, 1]),
            begin_hook(r),
            end_hook(r),
        );
        let papi = papi_without_overhead(&kernel);
        let mut regions = Regions::init(papi, pid, &Analytic::events()).unwrap();
        regions.region_init(kernel_spec.name());
        kernel.lock().install_faults(&FaultPlan::new(7).at(
            5_000_000,
            FaultKind::CpuOffline {
                cpu: simcpu::types::CpuId(0),
                down_ns: Some(20_000_000),
            },
        ));
        regions.run_marked(600_000_000_000).unwrap();
        let report = regions.finish().unwrap();
        let s = report.region(kernel_spec.name()).unwrap();
        let expected = kernel_spec.expected_counts(CoreType::Performance);
        let bound = |ev: &str| expected.iter().find(|(e, _)| e == ev).unwrap().1;
        assert_eq!(
            s.value("PAPI_TOT_INS"),
            kernel_spec.instructions,
            "{}: thread counting survives hotplug",
            kernel_spec.name()
        );
        assert_eq!(
            s.value("PAPI_CPU_MIG"),
            1,
            "{}: exactly one forced migration",
            kernel_spec.name()
        );
        let (flo, fhi) = bound("PAPI_PG_FLT");
        let flt = s.value("PAPI_PG_FLT");
        assert!(
            (flo..=fhi).contains(&flt),
            "{}: faults {flt} outside [{flo}, {fhi}]",
            kernel_spec.name()
        );
        // Baseline switch-ins, plus at most one extra from the forced
        // migration (a migration while the task sleeps lands on the
        // wake-up switch-in that was counted anyway).
        let (clo, chi) = bound("PAPI_CTX_SW");
        let ctx = s.value("PAPI_CTX_SW");
        assert!(
            (clo..=chi + 1).contains(&ctx),
            "{}: switches {ctx} outside [{}, {}]",
            kernel_spec.name(),
            clo,
            chi + 1
        );
    }
}
