//! Tick-throughput benchmark: `Kernel::tick()` per preset, plus the
//! tick hot path's hard floor.
//!
//! Emits `BENCH_tick.json`, the tick baseline later changes diff against
//! (`scripts/tier1.sh` runs this in `--quick` mode). For each machine
//! preset it boots a fully loaded kernel (one immortal dgemm-ish worker
//! per CPU, phases long enough to span many ticks like the paper's HPL
//! runs), ticks past the DVFS slew ramp (~143 ticks), and measures
//! ticks/second of `tick()` in [`WINDOWS`] consecutive timed windows,
//! reporting the median with the slowest and fastest window, so one host
//! stall moves one window instead of the preset's figure. After the ramp
//! nearly every busy CPU replays its last tick (per-CPU template replay,
//! DESIGN.md §9), so this measures that path. The exec-plan cache hit
//! rate over the whole run is reported per preset, with `host_cpus`
//! recorded beside them. The windows end by tick 2,240 (0.45 s
//! simulated) because the later ticks are a different regime: timed as
//! 5 windows of 2,000 ticks, raptor's plan hit rate over the run fell
//! from 94% to 55% and its slowest window ran at a third of its fastest.
//!
//! The `finishing_phases` row is the gate: raptor with one
//! 200k-instruction dgemm worker per CPU, so phases finish every tick
//! and neither template replay nor the one-deep result memo can hide
//! model cost. Its one timed window must stay at or above
//! [`FINISHING_FLOOR_TPS`], or the run exits 1 after writing the JSON.
//! Beside it sit the ns/call of the uncached `exec::advance` and of one
//! `PlanCache::plan` lookup plus `exec::advance_with_plan` on a warm
//! dgemm phase: the per-batch cost `exec_core` pays on every CPU.
//!
//! Knobs: `--quick` (windows of 300 timed ticks instead of 400).

use simcpu::exec::{advance, advance_with_plan, ExecContext};
use simcpu::machine::MachineSpec;
use simcpu::phase::Phase;
use simcpu::plan::PlanCache;
use simcpu::types::CpuMask;
use simos::kernel::{Kernel, KernelConfig};
use simos::task::Op;
use std::hint::black_box;
use std::time::Instant;

/// Timed windows per preset.
const WINDOWS: usize = 5;

/// Raptor ticks/s of the `finishing_phases` workload on a 1-CPU host
/// before the exec-plan cache existed, when every slice ran the full
/// model. The gate fails if the cached path ever falls below what the
/// uncached path delivered.
const FINISHING_FLOOR_TPS: f64 = 5344.84;

struct PresetResult {
    /// Median, slowest and fastest window.
    ticks_per_s: f64,
    ticks_per_s_min: f64,
    ticks_per_s_max: f64,
    /// Exec-plan cache hit rate over the whole run, 0.0 if never probed.
    plan_hit_rate: f64,
}

/// A kernel with one pinned blocked-dgemm worker per CPU whose every op
/// is a `phase_inst`-instruction phase, like one slice of an HPL
/// factorization.
fn load_kernel(spec: MachineSpec, phase_inst: u64) -> Kernel {
    let mut k = Kernel::boot(spec, KernelConfig::default());
    let n = k.machine().n_cpus();
    for i in 0..n {
        k.spawn(
            &format!("w{i}"),
            Box::new(move |_: &simos::task::ProgCtx| {
                Op::Compute(Phase::dgemm(phase_inst, 8 << 20, 0.35))
            }),
            CpuMask::from_cpus([i]),
            0,
        );
    }
    k
}

/// Ticks/s of `ticks` consecutive `tick()` calls.
fn timed_window(k: &mut Kernel, ticks: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..ticks {
        k.tick();
    }
    ticks as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

fn run_preset(spec: MachineSpec, warmup: usize, ticks: usize) -> PresetResult {
    // Phases long enough to outlive the run: each tick consumes its full
    // cycle budget against one phase.
    let mut k = load_kernel(spec, 1 << 44);
    // Warm up past the DVFS slew ramp so the timed window measures the
    // steady state.
    for _ in 0..warmup + 200 {
        k.tick();
    }
    let mut rates: Vec<f64> = (0..WINDOWS).map(|_| timed_window(&mut k, ticks)).collect();
    rates.sort_by(f64::total_cmp);
    let (hits, misses) = k.plan_cache_stats();
    PresetResult {
        ticks_per_s: rates[WINDOWS / 2],
        ticks_per_s_min: rates[0],
        ticks_per_s_max: rates[WINDOWS - 1],
        plan_hit_rate: if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
    }
}

/// Raptor ticks/s with phases that finish every tick: `warmup` ticks,
/// then one timed window.
fn finishing_phases_tps(warmup: usize, ticks: usize) -> f64 {
    let mut k = load_kernel(MachineSpec::raptor_lake_i7_13700(), 200_000);
    for _ in 0..warmup {
        k.tick();
    }
    timed_window(&mut k, ticks)
}

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

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let ticks = if quick { 300 } else { 400 };
    let warmup = ticks / 10;
    let host_cpus = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1);

    type PresetRow = (&'static str, fn() -> MachineSpec);
    let presets: [PresetRow; 4] = [
        ("raptor_lake_i7_13700", MachineSpec::raptor_lake_i7_13700),
        ("orangepi_800", MachineSpec::orangepi_800),
        ("skylake_quad", MachineSpec::skylake_quad),
        ("alder_lake_mobile", MachineSpec::alder_lake_mobile),
    ];

    let mut w = jsonw::JsonWriter::new();
    w.begin_obj();
    w.field_u64("host_cpus", host_cpus as u64);
    w.field_bool("quick", quick);
    w.field_u64("windows", WINDOWS as u64);
    w.field_u64("ticks", ticks as u64);
    w.key("presets");
    w.begin_obj();

    println!("tickbench: {WINDOWS} windows of {ticks} timed ticks/preset, host_cpus={host_cpus}");
    for (name, spec) in presets.iter() {
        let r = run_preset(spec(), warmup, ticks);
        println!(
            "  {name:<22} {:>10.1} t/s (windows {:.1}-{:.1})   plan hits {:.1}%",
            r.ticks_per_s,
            r.ticks_per_s_min,
            r.ticks_per_s_max,
            100.0 * r.plan_hit_rate
        );
        w.key(name);
        w.begin_obj();
        w.field_f64("ticks_per_s", round2(r.ticks_per_s));
        w.field_f64("ticks_per_s_min", round2(r.ticks_per_s_min));
        w.field_f64("ticks_per_s_max", round2(r.ticks_per_s_max));
        w.field_f64("plan_hit_rate", round4(r.plan_hit_rate));
        w.end_obj();
    }
    w.end_obj();

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
        let plan = cache.plan(black_box(&phase), &ctx);
        black_box(advance_with_plan(&phase, 3.4e6, &ctx, &mut cache, plan));
    });
    let call_speedup = uncached_ns / planned_ns.max(1e-9);

    let tps = finishing_phases_tps(warmup, ticks);
    let gate_pass = tps >= FINISHING_FLOOR_TPS;
    println!(
        "  finishing_phases (raptor) {tps:>9.1} t/s   floor {FINISHING_FLOOR_TPS} t/s   {}",
        if gate_pass { "PASS" } else { "FAIL" }
    );
    println!("    advance                    {uncached_ns:>8.1} ns/call");
    println!(
        "    plan + advance_with_plan   {planned_ns:>8.1} ns/call   speedup {call_speedup:.2}x"
    );
    w.key("finishing_phases");
    w.begin_obj();
    w.field_u64("warmup_ticks", warmup as u64);
    w.field_f64("ticks_per_s", round2(tps));
    w.field_f64("floor_ticks_per_s", FINISHING_FLOOR_TPS);
    w.field_bool("gate_pass", gate_pass);
    w.field_f64("advance_ns_per_call", round2(uncached_ns));
    w.field_f64("plan_advance_ns_per_call", round2(planned_ns));
    w.field_f64("call_speedup", round4(call_speedup));
    w.end_obj();
    w.end_obj();
    let json = w.finish();
    assert!(jsonw::validate(&json), "BENCH_tick.json emitter bug");

    std::fs::write("BENCH_tick.json", &json).expect("write BENCH_tick.json");
    println!("wrote BENCH_tick.json");

    if !gate_pass {
        eprintln!(
            "tickbench: REGRESSION — finishing_phases {tps:.1} t/s \
             is below the floor {FINISHING_FLOOR_TPS} t/s"
        );
        std::process::exit(1);
    }
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

fn round4(v: f64) -> f64 {
    (v * 10000.0).round() / 10000.0
}
