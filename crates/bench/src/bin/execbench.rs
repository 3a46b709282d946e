//! Exec hot-path microbenchmark + tier-1 regression gate.
//!
//! Emits `BENCH_exec.json` and exits nonzero if the per-tick serial rate on
//! `raptor_lake_i7_13700` drops below the pre-plan-cache baseline, so
//! `scripts/tier1.sh` fails loudly on a hot-path regression. Two sections:
//!
//!  1. ns/call for `exec::advance` (full analytic model every call) vs
//!     `exec::advance_planned` (exec-plan cache) on a warm dgemm phase —
//!     the per-batch cost `exec_core` pays on every CPU on every tick.
//!  2. The legacy per-tick serial tick rate: the exact pre-PR tickbench
//!     workload (one 200k-instruction dgemm worker per CPU, plain `tick()`
//!     loop) on `raptor_lake_i7_13700`. The gate
//!     floor is the rate this host recorded *before* the plan cache landed.
//!
//! Knobs: `--quick` (300 timed ticks instead of 1500).

use simcpu::exec::{advance, advance_planned, ExecContext};
use simcpu::machine::MachineSpec;
use simcpu::phase::Phase;
use simcpu::plan::PlanCache;
use simcpu::types::CpuMask;
use simos::kernel::{Kernel, KernelConfig};
use simos::task::Op;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// `raptor_lake_i7_13700` serial ticks/s recorded by tickbench at PR 3 on
/// this host class, before the exec-plan cache existed. The gate fails if
/// the cached path ever falls below what the uncached path delivered.
const BASELINE_PR3_SERIAL_TPS: f64 = 5344.84;

fn ns_per_call(mut f: impl FnMut()) -> f64 {
    for _ in 0..10_000 {
        f();
    }
    let iters = 200_000u32;
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e9 / iters as f64
}

/// The pre-PR tickbench shape: micro-phases that complete every tick, so
/// neither per-CPU template replay nor the one-deep result memo can hide
/// model cost.
fn per_tick_serial_tps(warmup: usize, ticks: usize) -> f64 {
    let mut k = Kernel::boot(MachineSpec::raptor_lake_i7_13700(), KernelConfig::default());
    let n = k.machine().n_cpus();
    for i in 0..n {
        k.spawn(
            &format!("w{i}"),
            Box::new(move |_: &simos::task::ProgCtx| {
                Op::Compute(Phase::dgemm(200_000, 8 << 20, 0.35))
            }),
            CpuMask::from_cpus([i]),
            0,
        );
    }
    for _ in 0..warmup {
        k.tick();
    }
    let start = Instant::now();
    for _ in 0..ticks {
        k.tick();
    }
    ticks as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let ticks = if quick { 300 } else { 1500 };

    let phase = Phase::dgemm(1 << 44, 26 << 30, 0.35);
    let ctx = ExecContext {
        uarch: &simcpu::uarch::GOLDEN_COVE,
        freq_khz: 3_400_000,
        ref_khz: 2_100_000,
        llc_share_bytes: 15 << 20,
        mem_contention: 1.2,
        smt_factor: 1.0,
    };
    let uncached_ns = ns_per_call(|| {
        black_box(advance(black_box(&phase), 3.4e6, &ctx));
    });
    let mut cache = PlanCache::new();
    let planned_ns = ns_per_call(|| {
        black_box(advance_planned(black_box(&phase), 3.4e6, &ctx, &mut cache));
    });
    let call_speedup = uncached_ns / planned_ns.max(1e-9);

    let tps = per_tick_serial_tps(ticks / 10, ticks);
    let gate_pass = tps >= BASELINE_PR3_SERIAL_TPS;

    println!("execbench: {ticks} timed ticks");
    println!("  advance          {uncached_ns:>8.1} ns/call");
    println!("  advance_planned  {planned_ns:>8.1} ns/call   speedup {call_speedup:.2}x");
    println!(
        "  raptor per-tick serial {tps:>9.1} t/s   floor {BASELINE_PR3_SERIAL_TPS} t/s   {}",
        if gate_pass { "PASS" } else { "FAIL" }
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"ticks\": {ticks},");
    let _ = writeln!(json, "  \"advance_ns_per_call\": {uncached_ns:.2},");
    let _ = writeln!(json, "  \"advance_planned_ns_per_call\": {planned_ns:.2},");
    let _ = writeln!(json, "  \"call_speedup\": {call_speedup:.3},");
    let _ = writeln!(json, "  \"raptor_serial_per_tick_ticks_per_s\": {tps:.2},");
    let _ = writeln!(
        json,
        "  \"baseline_pr3_serial_ticks_per_s\": {BASELINE_PR3_SERIAL_TPS},"
    );
    let _ = writeln!(json, "  \"gate_pass\": {gate_pass}");
    let _ = writeln!(json, "}}");
    std::fs::write("BENCH_exec.json", &json).expect("write BENCH_exec.json");
    println!("wrote BENCH_exec.json");

    if !gate_pass {
        eprintln!(
            "execbench: REGRESSION — raptor per-tick serial {tps:.1} t/s \
             is below the PR-3 baseline {BASELINE_PR3_SERIAL_TPS} t/s"
        );
        std::process::exit(1);
    }
}
