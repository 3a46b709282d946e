//! `schedbench` — the scheduler tournament.
//!
//! Reruns the paper's two HPL pathologies (Table II's all-core straggler
//! on Raptor Lake, Table IV's thermal inversion on the OrangePi 800)
//! under every registered scheduler, fault plans on, and emits
//! per-scheduler makespan / throughput / migrations / energy to
//! `BENCH_sched.json`.
//!
//! Usage: `schedbench [--quick]`
//!
//! * `--quick` shrinks both solves (tier-1's `--sched-smoke` gate) to
//!   raptor 1/64 and orangepi 1/4; the full run uses 1/8 and 1/1, the
//!   bench-suite raptor scale and the full-length thermal story.
//!
//! Hard gates (exit 1 on failure):
//! * **drift == 0** — one case per scenario re-runs from the same seed
//!   and must reproduce its numbers to the bit.
//! * **tournament shape** — `capacity` beats `cfs` on the straggler
//!   scenario and `thermal` beats `cfs` on the inversion scenario; the
//!   pathologies exist and the specialists remove them.

use std::fmt::Write as _;

use bench_harness::common::header;
use simos::SchedName;
use workloads::tournament::{
    assert_no_drift, orangepi_scenario, raptor_scenario, run_case, Outcome, Scenario,
};

fn run_scenario(sc: &Scenario) -> Vec<Outcome> {
    println!(
        "\n{}: {} unpinned {}-thread HPL workers, N={}, faults on",
        sc.name, sc.nthreads, sc.nthreads, sc.hpl.n
    );
    println!(
        "{:<14} {:>10} {:>12} {:>12} {:>12} {:>10}",
        "scheduler", "Gflops", "makespan s", "migrations", "energy J", "big-core %"
    );
    let mut outcomes = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = SchedName::ALL
            .iter()
            .map(|&sched| s.spawn(move || run_case(sc, sched)))
            .collect();
        for h in handles {
            outcomes.push(h.join().unwrap());
        }
    });
    for o in &outcomes {
        println!(
            "{:<14} {:>10.2} {:>12.3} {:>12} {:>12.2} {:>9.1}%",
            o.scheduler,
            o.gflops,
            o.makespan_s,
            o.migrations,
            o.energy_uj / 1e6,
            o.big_core_share_pct
        );
    }
    outcomes
}

fn find<'a>(outcomes: &'a [Outcome], name: &str) -> &'a Outcome {
    outcomes
        .iter()
        .find(|o| o.scheduler == name)
        .expect("scheduler ran")
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (raptor_scale, opi_scale) = if quick { (64, 4) } else { (8, 1) };
    header(&format!(
        "schedbench — scheduler tournament ({} schedulers, raptor 1/{raptor_scale}, orangepi 1/{opi_scale}{})",
        SchedName::ALL.len(),
        if quick { ", --quick" } else { "" }
    ));

    let raptor = raptor_scenario(raptor_scale);
    let opi = orangepi_scenario(opi_scale);
    let raptor_out = run_scenario(&raptor);
    let opi_out = run_scenario(&opi);

    // Gate 1: same-seed replay drift must be exactly zero.
    println!("\ndrift check: bit-identical replay, one case per scenario");
    assert_no_drift(&raptor, SchedName::Capacity);
    assert_no_drift(&opi, SchedName::Thermal);
    println!("  drift == 0  PASS");

    // Gate 2: the tournament shape the paper claims.
    let r_cfs = find(&raptor_out, "cfs");
    let r_cap = find(&raptor_out, "capacity");
    let o_cfs = find(&opi_out, "cfs");
    let o_thm = find(&opi_out, "thermal");
    let straggler_fixed = r_cap.gflops > r_cfs.gflops;
    let inversion_fixed = o_thm.gflops > o_cfs.gflops;
    println!(
        "straggler:  capacity {:.2} GF vs cfs {:.2} GF   {}",
        r_cap.gflops,
        r_cfs.gflops,
        if straggler_fixed { "PASS" } else { "FAIL" }
    );
    println!(
        "inversion:  thermal  {:.2} GF vs cfs {:.2} GF   {}",
        o_thm.gflops,
        o_cfs.gflops,
        if inversion_fixed { "PASS" } else { "FAIL" }
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"raptor_scale\": {raptor_scale},");
    let _ = writeln!(json, "  \"orangepi_scale\": {opi_scale},");
    let _ = writeln!(json, "  \"drift\": 0,");
    let _ = writeln!(json, "  \"scenarios\": {{");
    for (si, (sc, outs)) in [(&raptor, &raptor_out), (&opi, &opi_out)]
        .into_iter()
        .enumerate()
    {
        let _ = writeln!(json, "    \"{}\": {{", sc.name);
        let _ = writeln!(json, "      \"hpl_n\": {},", sc.hpl.n);
        let _ = writeln!(json, "      \"nthreads\": {},", sc.nthreads);
        let _ = writeln!(json, "      \"schedulers\": {{");
        for (i, o) in outs.iter().enumerate() {
            let _ = writeln!(
                json,
                "        \"{}\": {{\"gflops\": {:.3}, \"makespan_s\": {:.4}, \
                 \"migrations\": {}, \"energy_j\": {:.3}, \"big_core_share_pct\": {:.2}}}{}",
                o.scheduler,
                o.gflops,
                o.makespan_s,
                o.migrations,
                o.energy_uj / 1e6,
                o.big_core_share_pct,
                if i + 1 < outs.len() { "," } else { "" }
            );
        }
        let _ = writeln!(json, "      }}");
        let _ = writeln!(json, "    }}{}", if si == 0 { "," } else { "" });
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"straggler_fixed\": {straggler_fixed},");
    let _ = writeln!(json, "  \"inversion_fixed\": {inversion_fixed}");
    let _ = writeln!(json, "}}");
    std::fs::write("BENCH_sched.json", &json).expect("write BENCH_sched.json");
    println!("\nwrote BENCH_sched.json");

    if !(straggler_fixed && inversion_fixed) {
        eprintln!("schedbench: tournament shape REGRESSION (see table above)");
        std::process::exit(1);
    }
}
