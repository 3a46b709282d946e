//! Regenerates the §IV.F validation result: `papi_hybrid_100m_one_eventset`.
//!
//! The test runs 1 million instructions 100 times with PAPI calipers
//! around each repetition, on an *unpinned* task with background load
//! nudging it between core types.
//!
//! * **Original PAPI** (legacy mode) can only open one of the two
//!   INST_RETIRED events per EventSet: depending on where the scheduler
//!   puts the task you read 0, 1 million, or something in between.
//! * **Patched PAPI** opens both events in one EventSet; the per-type
//!   counts sum to ≈1 M (plus a little library overhead). The paper's
//!   example: `Average instructions p: 836848 e: 167487`.

use bench_harness::common::*;
use papi::{Attach, Papi, PapiMode};
use simcpu::types::CpuMask;
use workloads::micro::{spawn_hybrid_test, spawn_noise, HybridTestConfig, HOOK_START, HOOK_STOP};

/// Run the instrumented loop and return (avg_p, avg_e, repetitions).
fn run_patched(cpus: CpuMask, with_noise: bool) -> (f64, f64, usize) {
    let kernel = raptor_kernel();
    let noise = if with_noise {
        Some(spawn_noise(
            &kernel,
            CpuMask::parse_cpulist("0-15").unwrap(),
            2_000_000,
            10_000_000,
        ))
    } else {
        None
    };
    let cfg = HybridTestConfig {
        cpus,
        ..HybridTestConfig::paper(24)
    };
    let pid = spawn_hybrid_test(&kernel, &cfg);
    let mut papi = Papi::init(kernel).expect("init");
    let es = papi.create_eventset();
    papi.attach(es, Attach::Task(pid)).unwrap();
    papi.add_named(es, "adl_glc::INST_RETIRED:ANY").unwrap();
    papi.add_named(es, "adl_grt::INST_RETIRED:ANY").unwrap();
    let results = papi
        .run_instrumented(es, HOOK_START, HOOK_STOP, pid, 600_000_000_000)
        .expect("run");
    if let Some(n) = noise {
        n.stop();
    }
    let n = results.len().max(1);
    let p: u64 = results.iter().map(|v| v[0].1).sum();
    let e: u64 = results.iter().map(|v| v[1].1).sum();
    (p as f64 / n as f64, e as f64 / n as f64, results.len())
}

/// Legacy PAPI: only one event can be in the set; measure with the P-core
/// event under the given pinning.
fn run_legacy(cpus: CpuMask, label: &str, with_noise: bool) {
    let kernel = raptor_kernel();
    let noise = if with_noise {
        Some(spawn_noise(
            &kernel,
            CpuMask::parse_cpulist("0-15").unwrap(),
            2_000_000,
            10_000_000,
        ))
    } else {
        None
    };
    let cfg = HybridTestConfig {
        cpus,
        ..HybridTestConfig::paper(24)
    };
    let pid = spawn_hybrid_test(&kernel, &cfg);
    let mut papi = Papi::init_with(
        papi_kernel(&kernel),
        papi::PapiConfig {
            mode: PapiMode::Legacy,
            ..Default::default()
        },
    )
    .expect("init");
    let es = papi.create_eventset();
    papi.attach(es, Attach::Task(pid)).unwrap();
    papi.add_named(es, "adl_glc::INST_RETIRED:ANY").unwrap();
    // The defining legacy failure: the E-core event cannot join.
    let err = papi.add_named(es, "adl_grt::INST_RETIRED:ANY").unwrap_err();
    let results = papi
        .run_instrumented(es, HOOK_START, HOOK_STOP, pid, 600_000_000_000)
        .expect("run");
    if let Some(n) = noise {
        n.stop();
    }
    let n = results.len().max(1);
    let avg: u64 = results.iter().map(|v| v[0].1).sum::<u64>() / n as u64;
    println!("  legacy, {label:<22} glc::INST_RETIRED avg = {avg:>9}   (adding grt event: {err})");
}

fn papi_kernel(k: &simos::kernel::KernelHandle) -> simos::kernel::KernelHandle {
    k.clone()
}

fn main() {
    header("§IV.F — papi_hybrid_100m_one_eventset (1 M instructions × 100)");

    println!("\nOriginal PAPI (one PMU per EventSet): count depends on pinning —");
    run_legacy(
        CpuMask::parse_cpulist("0").unwrap(),
        "taskset P-core (cpu 0)",
        false,
    );
    run_legacy(
        CpuMask::parse_cpulist("16").unwrap(),
        "taskset E-core (cpu 16)",
        false,
    );
    run_legacy(CpuMask::first_n(24), "unpinned (noisy system)", true);

    println!("\nPatched PAPI (multi-PMU EventSet):");
    let (p, e, n) = run_patched(CpuMask::first_n(24), true);
    println!("  unpinned + background noise ({n} repetitions):");
    println!("  Average instructions p: {:.0} e: {:.0}", p, e);
    println!("  paper example:          p: 836848 e: 167487");
    let total = p + e;
    println!("  sum: {total:.0} (expected ≈1,000,000 + library overhead; paper sums to 1,004,335)");
    let e_share = e / total * 100.0;
    println!("  E-core share: {e_share:.1}% (paper: 16.7%)");

    // Sanity configurations like the paper's taskset verification.
    let (p_pin, e_pin, _) = run_patched(CpuMask::parse_cpulist("0").unwrap(), false);
    println!("\n  taskset P-core: p={p_pin:.0} e={e_pin:.0} (expected all on P)");
    let (p_pin2, e_pin2, _) = run_patched(CpuMask::parse_cpulist("16").unwrap(), false);
    println!("  taskset E-core: p={p_pin2:.0} e={e_pin2:.0} (expected all on E)");

    telemetry::write_csv(
        "results/hybrid_test.csv",
        &["avg_p", "avg_e", "sum"],
        &[vec![p, e, total]],
    )
    .expect("csv");
    println!("\nwrote results/hybrid_test.csv");
}
