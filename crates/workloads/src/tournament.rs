//! Scheduler-tournament scenarios: the paper's two HPL pathologies as
//! reusable, seeded experiments.
//!
//! Both `schedbench` (the BENCH_sched.json tournament) and the
//! `paper_claims` integration tests run the *same* scenarios through
//! [`run_case`], so the numbers the benchmark publishes are the numbers
//! the tests gate on:
//!
//! * [`raptor_scenario`] — Table II's all-core straggler. 16 unpinned
//!   OpenBLAS-personality HPL workers on the Raptor Lake desktop. A
//!   scheduler that prefers *idle* cores over *capable* ones (CfsLike's
//!   idle-core bonus outweighs the P/E capacity delta) parks half the
//!   team on E cores; static chunking then makes every barrier wait for
//!   the E-core stragglers. Capacity-aware packing onto P SMT siblings
//!   removes the straggler.
//! * [`orangepi_scenario`] — Table IV's thermal inversion. 4 unpinned
//!   workers on the RK3399 (2×A72 + 4×A53), pre-warmed near the first
//!   trip point. Capacity-only placement pins work to the A72s, which
//!   promptly throttle down the trip ladder; steering to the cool A53s
//!   wins despite their lower nominal capacity.
//!
//! Fault plans stay **on** (hotplug, RAPL wrap bursts, flaky sysfs): the
//! tournament measures policies under the same adversity the determinism
//! suite replays. The fault plan has a fixed seed and the simulation no
//! other random input, so any two invocations are bit-identical.

use simcpu::machine::MachineSpec;
use simcpu::power::RaplDomain;
use simcpu::types::{CpuId, CpuMask};
use simos::kernel::{Kernel, KernelConfig};
use simos::{FaultKind, FaultPlan, SchedName, TransientErrno};

use crate::hpl::{run_to_completion, spawn_hpl_free, HplConfig, HplTuning, HplVariant};

/// One tournament scenario: a machine, a worker team, and adversity.
pub struct Scenario {
    pub name: &'static str,
    pub machine: fn() -> MachineSpec,
    /// Affinity mask shared by every (unpinned) worker.
    pub cpus: CpuMask,
    pub nthreads: usize,
    pub hpl: HplConfig,
    pub tick_ns: u64,
    /// Give up (makespan = ∞) past this much simulated time.
    pub max_ns: u64,
    /// Pre-warmed package temperature, if the scenario needs the thermal
    /// story to develop inside CI time.
    pub start_temp_c: Option<f64>,
    pub faults: Option<FaultPlan>,
}

/// What one scheduler did on one scenario.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub scheduler: &'static str,
    /// HPL figure of merit (0.0 if the run blew `max_ns`).
    pub gflops: f64,
    /// Solve wall time in simulated seconds (∞ if unfinished).
    pub makespan_s: f64,
    /// Total simulated time when the last worker exited.
    pub sim_time_s: f64,
    /// Sum of per-task migration counts across the team.
    pub migrations: u64,
    /// Unwrapped package energy over the whole run (µJ).
    pub energy_uj: f64,
    /// Share of team instructions retired on Performance/big cores (%).
    pub big_core_share_pct: f64,
}

/// The shared fault plan: scheduler-relevant adversity (a CPU from the
/// working set bounces offline mid-solve) plus the telemetry-side faults
/// the determinism suite exercises.
fn tournament_faults(offline: CpuId, at_ns: u64, down_ns: u64) -> FaultPlan {
    FaultPlan::new(0xd15ea5e)
        .at(
            at_ns,
            FaultKind::CpuOffline {
                cpu: offline,
                down_ns: Some(down_ns),
            },
        )
        .at(
            at_ns / 2,
            FaultKind::RaplWrapBurst {
                wraps: 1,
                extra_uj: 10_000,
            },
        )
        .at(
            at_ns / 3,
            FaultKind::TransientRead {
                errno: TransientErrno::Eintr,
                count: 2,
            },
        )
        .at(at_ns, FaultKind::SysfsFlaky { dur_ns: 50_000_000 })
}

/// Table II straggler scenario on the Raptor Lake desktop.
///
/// `scale` divides the paper's N=57024 (the benchmark uses 8, the smoke
/// tests larger). All 24 CPUs are allowed: the interesting choice is
/// P-SMT-sibling vs idle-E-core, and both must be on the table.
pub fn raptor_scenario(scale: u64) -> Scenario {
    Scenario {
        name: "raptor_table2",
        machine: MachineSpec::raptor_lake_i7_13700,
        cpus: CpuMask::parse_cpulist("0-23").unwrap(),
        nthreads: 16,
        hpl: HplConfig::scaled(scale.max(1)),
        tick_ns: 200_000,
        max_ns: 3_600_000_000_000,
        start_temp_c: Some(35.0),
        // CPU 4 (a P core) drops out mid-solve and comes back.
        faults: Some(tournament_faults(CpuId(4), 400_000_000, 300_000_000)),
    }
}

/// Table IV thermal-inversion scenario on the OrangePi 800.
///
/// `scale` divides the full-length N=14976 solve (which outlasts the
/// SoC's ~66 s thermal time constant). Scaled-down runs pre-warm closer
/// to the 68 °C first trip so the throttle story still develops.
pub fn orangepi_scenario(scale: u64) -> Scenario {
    let scale = scale.max(1);
    Scenario {
        name: "orangepi_table4",
        machine: MachineSpec::orangepi_800,
        cpus: CpuMask::parse_cpulist("0-5").unwrap(),
        nthreads: 4,
        hpl: HplConfig {
            n: (14976 / scale).max(192 * 4),
            nb: 192,
            p: 1,
            q: 1,
        },
        tick_ns: 200_000,
        max_ns: 3_600_000_000_000,
        start_temp_c: Some(if scale > 1 { 75.5 } else { 62.0 }),
        // An A53 from everyone's working set bounces offline mid-solve.
        faults: Some(tournament_faults(CpuId(3), 2_000_000_000, 500_000_000)),
    }
}

/// Run one scheduler through one scenario on a fresh machine: same
/// inputs → bit-identical [`Outcome`].
pub fn run_case(sc: &Scenario, sched: SchedName) -> Outcome {
    let kernel = Kernel::boot_handle(
        (sc.machine)(),
        KernelConfig {
            tick_ns: sc.tick_ns,
            sched,
            ..Default::default()
        },
    );
    if let Some(t) = sc.start_temp_c {
        kernel.lock().settle_temperature(t);
    }
    if let Some(plan) = &sc.faults {
        kernel.lock().install_faults(plan);
    }
    let run = spawn_hpl_free(
        &kernel,
        sc.hpl.clone(),
        HplVariant::OpenBlas,
        HplTuning::default(),
        sc.cpus,
        sc.nthreads,
    );
    let gflops = run_to_completion(&kernel, &run, sc.max_ns).unwrap_or(0.0);

    let k = kernel.lock();
    let mut migrations = 0u64;
    // instructions_by_type is indexed by core type: Performance/big = 0.
    let mut insns = [0u64; 4];
    for &pid in &run.pids {
        let st = k.task_stats(pid).expect("worker existed");
        migrations += st.migrations;
        for (acc, v) in insns.iter_mut().zip(st.instructions_by_type) {
            *acc += v;
        }
    }
    let total: u64 = insns.iter().sum();
    Outcome {
        scheduler: sched.as_str(),
        gflops,
        makespan_s: run.solve_time_s().unwrap_or(f64::INFINITY),
        sim_time_s: k.time_ns() as f64 / 1e9,
        migrations,
        energy_uj: k.machine().rapl().energy_total_uj(RaplDomain::Package),
        big_core_share_pct: insns[0] as f64 / total.max(1) as f64 * 100.0,
    }
}

/// Replay-drift check: the same case twice must agree on *everything* to
/// the bit — Gflops, makespan, simulated time, migration count, and
/// integrated energy. This is the determinism contract the tournament
/// numbers rest on.
///
/// Returns the outcome; panics on drift.
pub fn assert_no_drift(sc: &Scenario, sched: SchedName) -> Outcome {
    let a = run_case(sc, sched);
    let a2 = run_case(sc, sched);
    assert_eq!(
        (
            a.gflops.to_bits(),
            a.makespan_s.to_bits(),
            a.sim_time_s.to_bits(),
            a.migrations,
            a.energy_uj.to_bits(),
        ),
        (
            a2.gflops.to_bits(),
            a2.makespan_s.to_bits(),
            a2.sim_time_s.to_bits(),
            a2.migrations,
            a2.energy_uj.to_bits(),
        ),
        "{}/{}: replay drifted",
        sc.name,
        sched.as_str()
    );
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_well_formed() {
        for sc in [raptor_scenario(16), orangepi_scenario(8)] {
            assert!(sc.nthreads > 0);
            assert!(sc.hpl.n >= 192 * 4);
            let plan = sc.faults.as_ref().unwrap();
            assert!(plan.schedule().iter().any(
                |e| matches!(e.kind, FaultKind::CpuOffline { cpu, .. } if sc.cpus.contains(cpu))
            ));
        }
    }

    #[test]
    fn outcome_is_reproducible() {
        let sc = raptor_scenario(64);
        let a = run_case(&sc, SchedName::Vtime);
        let b = run_case(&sc, SchedName::Vtime);
        assert_eq!(a.gflops.to_bits(), b.gflops.to_bits());
        assert_eq!(a.migrations, b.migrations);
        assert_eq!(a.energy_uj.to_bits(), b.energy_uj.to_bits());
    }
}
