//! §V.5 — measurement-overhead report.
//!
//! The multi-PMU redesign adds a layer of indirection: an EventSet now
//! spans several perf event groups, so `PAPI_read` issues one read syscall
//! *per group* and start/stop ioctl every group leader. This binary
//! quantifies that against the single-group baseline, and compares the
//! `rdpmc` fast path (which skips the syscall entirely).

use bench_harness::common::*;
use papi::{Attach, Papi};
use simcpu::phase::Phase;
use simcpu::types::CpuMask;
use simos::kernel::SyscallStats;
use simos::task::Op;
use workloads::micro::{spawn_hybrid_test, HybridTestConfig};

struct Scenario {
    label: &'static str,
    events: &'static [&'static str],
}

fn measure(sc: &Scenario, reads: u32) -> (usize, SyscallStats, SyscallStats) {
    let kernel = raptor_kernel();
    let pid = kernel.lock().spawn(
        "spin",
        Box::new(simos::task::ScriptedProgram::new([
            Op::Compute(Phase::scalar(u64::MAX / 2)),
            Op::Exit,
        ])),
        CpuMask::from_cpus([0, 16]),
        0,
    );
    let mut papi = Papi::init(kernel.clone()).expect("init");
    let es = papi.create_eventset();
    papi.attach(es, Attach::Task(pid)).unwrap();
    for ev in sc.events {
        papi.add_named(es, ev).unwrap();
    }
    let groups = papi.num_groups(es).unwrap();
    papi.start(es).unwrap();
    for _ in 0..50 {
        kernel.lock().tick();
    }
    let before = papi.syscall_stats();
    for _ in 0..reads {
        let _ = papi.read(es).unwrap();
    }
    let after_reads = papi.syscall_stats();
    for _ in 0..reads {
        let _ = papi.read_fast(es, 0).unwrap();
    }
    let after_fast = papi.syscall_stats();
    (
        groups,
        SyscallStats {
            reads: after_reads.reads - before.reads,
            total_latency_ns: after_reads.total_latency_ns - before.total_latency_ns,
            ..Default::default()
        },
        SyscallStats {
            rdpmc_reads: after_fast.rdpmc_reads - after_reads.rdpmc_reads,
            total_latency_ns: after_fast.total_latency_ns - after_reads.total_latency_ns,
            ..Default::default()
        },
    )
}

fn main() {
    header("§V.5 — measurement overhead: multi-group indirection & read paths");
    const READS: u32 = 1000;
    let scenarios = [
        Scenario {
            label: "1 group  (P events only)",
            events: &[
                "adl_glc::INST_RETIRED:ANY",
                "adl_glc::CPU_CLK_UNHALTED:THREAD",
            ],
        },
        Scenario {
            label: "2 groups (P + E events)",
            events: &[
                "adl_glc::INST_RETIRED:ANY",
                "adl_glc::CPU_CLK_UNHALTED:THREAD",
                "adl_grt::INST_RETIRED:ANY",
                "adl_grt::CPU_CLK_UNHALTED:THREAD",
            ],
        },
        Scenario {
            label: "3 groups (P + E + RAPL)",
            events: &[
                "adl_glc::INST_RETIRED:ANY",
                "adl_grt::INST_RETIRED:ANY",
                "rapl::RAPL_ENERGY_PKG",
            ],
        },
    ];
    println!(
        "\n{:<28} {:>7} {:>14} {:>16} {:>18}",
        "EventSet", "groups", "read syscalls", "ns per PAPI_read", "rdpmc ns per read"
    );
    let mut rows = Vec::new();
    for sc in &scenarios {
        let (groups, reads, fast) = measure(sc, READS);
        let ns_per_read = reads.total_latency_ns as f64 / READS as f64;
        let ns_per_fast = fast.total_latency_ns as f64 / READS as f64;
        println!(
            "{:<28} {:>7} {:>14.1} {:>16.0} {:>18.0}",
            sc.label,
            groups,
            reads.reads as f64 / READS as f64,
            ns_per_read,
            ns_per_fast,
        );
        rows.push(vec![groups as f64, ns_per_read, ns_per_fast]);
    }
    println!(
        "\nThe hybrid EventSet costs one extra read syscall per additional PMU\n\
         group — the \"two or more relatively high-latency read syscalls\" of\n\
         §IV.A — while rdpmc reads stay cheap but only cover core-PMU events."
    );

    // The caliper loop's total overhead, legacy vs hybrid shape.
    let kernel = raptor_kernel();
    let cfg = HybridTestConfig {
        repetitions: 100,
        ..HybridTestConfig::paper(24)
    };
    let pid = spawn_hybrid_test(&kernel, &cfg);
    let mut papi = Papi::init(kernel).expect("init");
    let es = papi.create_eventset();
    papi.attach(es, Attach::Task(pid)).unwrap();
    papi.add_named(es, "adl_glc::INST_RETIRED:ANY").unwrap();
    papi.add_named(es, "adl_grt::INST_RETIRED:ANY").unwrap();
    let _ = papi
        .run_instrumented(
            es,
            workloads::HOOK_START,
            workloads::HOOK_STOP,
            pid,
            600_000_000_000,
        )
        .unwrap();
    let s = papi.syscall_stats();
    println!(
        "\n100 calipered regions on a 2-group EventSet: {} opens, {} ioctls, \
         {} reads, {:.1} µs total syscall latency",
        s.opens,
        s.ioctls,
        s.reads,
        s.total_latency_ns as f64 / 1000.0
    );

    telemetry::write_csv(
        "results/overhead.csv",
        &["groups", "ns_per_read", "ns_per_rdpmc"],
        &rows,
    )
    .expect("csv");
    println!("wrote results/overhead.csv");
}
