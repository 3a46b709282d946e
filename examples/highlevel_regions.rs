//! The PAPI high-level API on a hybrid machine: named regions measured by
//! derived presets that transparently span both core types — the paper's
//! end-state where instrumented code does not care that the machine is
//! heterogeneous.
//!
//! Run with: `cargo run --release --example highlevel_regions`

use hetero_papi::prelude::*;
use papi::HighLevel;

fn main() {
    let session = Session::raptor_lake();
    let kernel = session.kernel();

    // An application with two phases, instrumented with hl regions:
    // hooks 1/2 bracket "compute", hooks 3/4 bracket "memory".
    let mut ops = Vec::new();
    for _ in 0..3 {
        ops.extend([
            Op::Call(HookId(1)),
            Op::Compute(Phase::dgemm(30_000_000, 16 << 20, 0.8)),
            Op::Call(HookId(2)),
            Op::Call(HookId(3)),
            Op::Compute(Phase::stream(10_000_000, 2 << 30)),
            Op::Call(HookId(4)),
        ]);
    }
    ops.push(Op::Exit);
    let pid = kernel.lock().spawn(
        "app",
        Box::new(ScriptedProgram::new(ops)),
        CpuMask::first_n(24),
        0,
    );

    let mut hl = HighLevel::new(
        kernel.clone(),
        pid,
        &["PAPI_TOT_INS", "PAPI_TOT_CYC", "PAPI_L3_TCM", "PAPI_FP_OPS"],
    )
    .expect("hl init");

    run_with_hooks(&kernel, 600_000_000_000, |_, _, h| match h.0 {
        1 => hl.region_begin("compute").unwrap(),
        2 => hl.region_end("compute").unwrap(),
        3 => hl.region_begin("memory").unwrap(),
        _ => hl.region_end("memory").unwrap(),
    });

    println!("{}", hl.report());
    // Derived metrics per region.
    for (name, r) in hl.regions() {
        let values: papi::Values = hl
            .labels()
            .iter()
            .cloned()
            .zip(r.totals.iter().copied())
            .collect();
        let ipc = papi::metrics::ipc(&values).unwrap_or(0.0);
        println!("region {name:<8} IPC = {ipc:.2}");
    }
    println!(
        "\nThe same source would report the same regions on the OrangePi —\n\
         the presets expand per machine (adl_glc+adl_grt here, A72+A53 there)."
    );
}
