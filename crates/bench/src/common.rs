//! Shared experiment plumbing for the table/figure regeneration binaries.

use simcpu::machine::MachineSpec;
use simcpu::types::{CoreType, CpuMask};
use simos::kernel::{Kernel, KernelConfig, KernelHandle};
use telemetry::{average_runs, monitored_hpl_runs, DriverConfig, MonitoredRun};
use workloads::hpl::{HplConfig, HplVariant};

/// Simulation tick for experiments: 200 µs.
///
/// Scaled-down HPL runs are short enough that synchronization costs are
/// quantized by the tick; 200 µs keeps that artifact small while staying
/// fast. The full-scale paper runs are insensitive to this.
const TICK_NS: u64 = 200_000;

fn kernel_config() -> KernelConfig {
    KernelConfig {
        tick_ns: TICK_NS,
        ..Default::default()
    }
}

/// Boot the paper's Raptor Lake desktop.
pub fn raptor_kernel() -> KernelHandle {
    Kernel::boot_handle(MachineSpec::raptor_lake_i7_13700(), kernel_config())
}

/// Boot the paper's OrangePi 800.
pub fn orangepi_kernel() -> KernelHandle {
    Kernel::boot_handle(MachineSpec::orangepi_800(), kernel_config())
}

/// The paper's three Raptor Lake core sets, all at 1 thread per core:
/// (E-only, P-only, P-and-E). The P sets use one SMT sibling per core,
/// mirroring the artifact's `--cores 0,2,4,…,14,16-23`.
pub fn raptor_core_sets() -> (CpuMask, CpuMask, CpuMask) {
    let e_only = CpuMask::parse_cpulist("16-23").unwrap();
    let p_only = CpuMask::parse_cpulist("0,2,4,6,8,10,12,14").unwrap();
    let all = CpuMask::parse_cpulist("0,2,4,6,8,10,12,14,16-23").unwrap();
    (e_only, p_only, all)
}

/// CPU masks for the core types of any machine.
pub fn type_masks(kernel: &KernelHandle) -> (CpuMask, CpuMask) {
    let k = kernel.lock();
    (
        k.machine().cpus_of_type(CoreType::Performance),
        k.machine().cpus_of_type(CoreType::Efficiency),
    )
}

/// Experiment scale: divides the paper's N to trade fidelity for speed.
/// Controlled by `HPL_SCALE` (default 8; 1 = the paper's full N=57024).
pub fn hpl_scale() -> u64 {
    std::env::var("HPL_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(8)
}

/// Runs per configuration: `N_RUNS` (default 3; the paper uses 10).
pub fn n_runs() -> u32 {
    std::env::var("N_RUNS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(3)
}

/// The HPL configuration at the chosen scale.
pub fn hpl_config() -> HplConfig {
    HplConfig::scaled(hpl_scale())
}

/// One Table II cell: run a variant on a core set, averaged over runs,
/// on a fresh machine.
pub fn hpl_cell(variant: HplVariant, cpus: CpuMask, n_runs: u32) -> MonitoredRun {
    let kernel = raptor_kernel();
    let driver = DriverConfig {
        n_runs,
        ..Default::default()
    };
    let runs = monitored_hpl_runs(&kernel, &hpl_config(), variant, cpus, &driver);
    average_runs(&runs).expect("n_runs >= 1 produces at least one run")
}

/// Percent change from `a` to `b`.
pub fn pct_change(a: f64, b: f64) -> f64 {
    (b - a) / a * 100.0
}

/// Format a paper-vs-measured comparison row.
pub fn compare_row(label: &str, paper: f64, measured: f64, unit: &str) -> String {
    format!("{label:<34} paper: {paper:>10.2} {unit:<7} measured: {measured:>10.2} {unit}")
}

/// Print a section header.
pub fn header(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

/// OrangePi experiment scale: `OPI_SCALE` (default 1 = full size).
/// Unlike the desktop runs, the RK3399 experiments *need* full length:
/// thermal throttling develops on the SoC's ~66 s RC time constant.
pub fn opi_scale() -> u64 {
    std::env::var("OPI_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(1)
}

/// OrangePi HPL configuration at the chosen scale: the β approach on its
/// 4 GB of LPDDR4 (80 % fraction), like the paper's desktop methodology.
pub fn opi_hpl_config() -> HplConfig {
    let n = HplConfig::n_for_memory_fraction(4, 0.80) / opi_scale();
    HplConfig {
        n: n.max(192 * 4),
        nb: 192,
        p: 1,
        q: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_sets_match_paper_artifact() {
        let (e, p, all) = raptor_core_sets();
        assert_eq!(e.count(), 8);
        assert_eq!(p.count(), 8);
        assert_eq!(all.count(), 16);
        assert_eq!(all.to_cpulist(), "0,2,4,6,8,10,12,14,16-23");
        // One thread per P core: no SMT siblings in the set.
        for c in p.iter() {
            assert_eq!(c.0 % 2, 0, "P set uses even (first) siblings");
        }
    }

    #[test]
    fn pct_change_math() {
        assert!((pct_change(100.0, 150.0) - 50.0).abs() < 1e-9);
        assert!((pct_change(200.0, 100.0) + 50.0).abs() < 1e-9);
    }

    #[test]
    fn scales_default_sanely() {
        assert!(hpl_scale() >= 1);
        assert!(opi_scale() >= 1);
        assert!(n_runs() >= 1);
        assert!(hpl_config().n >= 768);
        assert!(opi_hpl_config().n >= 768);
    }

    #[test]
    fn compare_row_formats() {
        let row = compare_row("Gflops", 457.38, 387.17, "GF");
        assert!(row.contains("457.38"));
        assert!(row.contains("387.17"));
    }
}
