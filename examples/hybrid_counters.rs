//! The §IV.F experience, condensed: calipered measurement of a migrating
//! task on a hybrid machine, first with original PAPI (one PMU per
//! EventSet — misleading numbers), then with the paper's multi-PMU
//! EventSets (per-core-type counts that sum to the truth).
//!
//! Run with: `cargo run --release --example hybrid_counters`

use hetero_papi::prelude::*;
use workloads::micro::{spawn_hybrid_test, spawn_noise, HybridTestConfig, HOOK_START, HOOK_STOP};

fn main() {
    println!("== original PAPI (legacy mode) ==");
    {
        let session = Session::raptor_lake();
        let mut papi = session.papi_legacy().unwrap();
        let es = papi.create_eventset();
        papi.add_named(es, "adl_glc::INST_RETIRED:ANY").unwrap();
        match papi.add_named(es, "adl_grt::INST_RETIRED:ANY") {
            Err(e) => println!("adding the E-core event fails: {e}"),
            Ok(_) => unreachable!("legacy mode must reject the second PMU"),
        }
    }

    println!("\n== patched PAPI (multi-PMU EventSet) ==");
    let session = Session::raptor_lake();
    let kernel = session.kernel();

    // Background bursts on the P-cores displace the measured task to an
    // E-core now and then, like a busy desktop would.
    let noise = spawn_noise(
        &kernel,
        CpuMask::parse_cpulist("0-15").unwrap(),
        2_000_000,
        10_000_000,
    );

    let cfg = HybridTestConfig::paper(24);
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

    let n = results.len() as u64;
    let p: u64 = results.iter().map(|v| v[0].1).sum::<u64>() / n;
    let e: u64 = results.iter().map(|v| v[1].1).sum::<u64>() / n;
    println!("{} repetitions of a 1M-instruction region:", n);
    println!("Average instructions p: {p} e: {e}");
    println!("sum = {} (1,000,000 of work + PAPI overhead)", p + e);

    let stats = kernel.lock().task_stats(pid).unwrap();
    println!(
        "\nscheduler view: {} migrations, {} of them across core types",
        stats.migrations, stats.core_type_migrations
    );
}
