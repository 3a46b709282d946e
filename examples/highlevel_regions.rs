//! Named regions on a hybrid machine: marker regions measured by derived
//! presets that transparently span both core types — the paper's
//! end-state where instrumented code does not care that the machine is
//! heterogeneous.
//!
//! Run with: `cargo run --release --example highlevel_regions`

use hetero_papi::prelude::*;
use papi::regions::{begin_hook, end_hook, RegionId, Regions};

fn main() {
    let session = Session::raptor_lake();
    let kernel = session.kernel();

    // An application with two phases, instrumented with region markers
    // around "compute" and "memory".
    let (compute, memory) = (RegionId(0), RegionId(1));
    let mut ops = Vec::new();
    for _ in 0..3 {
        ops.extend([
            Op::Call(begin_hook(compute)),
            Op::Compute(Phase::dgemm(30_000_000, 16 << 20, 0.8)),
            Op::Call(end_hook(compute)),
            Op::Call(begin_hook(memory)),
            Op::Compute(Phase::stream(10_000_000, 2 << 30)),
            Op::Call(end_hook(memory)),
        ]);
    }
    ops.push(Op::Exit);
    let pid = kernel.lock().spawn(
        "app",
        Box::new(ScriptedProgram::new(ops)),
        CpuMask::first_n(24),
        0,
    );

    let papi = session.papi().expect("papi init");
    let events = ["PAPI_TOT_INS", "PAPI_TOT_CYC", "PAPI_L3_TCM", "PAPI_FP_OPS"];
    let mut regions = Regions::init(papi, pid, &events).expect("regions init");
    regions.region_init("compute");
    regions.region_init("memory");
    regions.run_marked(600_000_000_000).expect("run");
    let report = regions.finish().expect("finish");

    print!("{}", report.render());
    // Derived metrics per region, over the sums across core types.
    for r in &report.regions {
        let values: papi::Values = ["PAPI_TOT_INS", "PAPI_TOT_CYC"]
            .into_iter()
            .map(|e| (e.to_string(), r.value(e)))
            .collect();
        let ipc = papi::metrics::ipc(&values).unwrap_or(0.0);
        println!("region {:<8} IPC = {ipc:.2}", r.name);
    }
    println!(
        "\nThe same source would report the same regions on the OrangePi —\n\
         the presets expand per machine (adl_glc+adl_grt here, A72+A53 there)."
    );
}
