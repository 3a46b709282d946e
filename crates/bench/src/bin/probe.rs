//! Diagnostic probe: prints frequency/power/temperature every 20 simulated
//! seconds during one P-only Intel-HPL run (respects HPL_SCALE).
//! Not part of the paper reproduction; useful when re-calibrating
//! `simcpu::uarch` constants.
use bench_harness::common::*;
use simcpu::types::CpuId;
use workloads::hpl::{spawn_hpl, HplVariant};

fn main() {
    let kernel = raptor_kernel();
    let (_, p_only, _all) = raptor_core_sets();
    let cfg = hpl_config();
    eprintln!("N={} iters={}", cfg.n, cfg.iterations());
    kernel.lock().settle_temperature(35.0);
    let run = spawn_hpl(&kernel, cfg, HplVariant::IntelMkl, p_only);
    let mut next = 0u64;
    loop {
        let (t, fp, fe, pw, temp) = {
            let mut k = kernel.lock();
            for _ in 0..16 {
                k.tick();
            }
            (
                k.time_ns(),
                k.machine().freq_khz(CpuId(0)),
                k.machine().freq_khz(CpuId(16)),
                k.machine().power().pkg_w,
                k.machine().thermal().temp_c(),
            )
        };
        if t >= next {
            next = t + 20_000_000_000;
            eprintln!(
                "t={:.3}s fP={:.2}GHz fE={:.2}GHz pkg={:.1}W T={:.1}C solve_started={} ",
                t as f64 / 1e9,
                fp as f64 / 1e6,
                fe as f64 / 1e6,
                pw,
                temp,
                run.solve_time_s().is_some() || run.gflops().is_some()
            );
        }
        if run.finished() {
            break;
        }
        if t > 900_000_000_000 {
            eprintln!("timeout");
            break;
        }
    }
    eprintln!("gflops={:?} solve_s={:?}", run.gflops(), run.solve_time_s());
}
