//! What loadgen and chaosbench share: the bench machine, each
//! session's subscription shape, and the digest over the counter values
//! the sessions end with. Both bins include this module; Cargo does not
//! build it as a bin of its own.

use metricsd::wire::{fnv64, metrics};
use simcpu::machine::MachineSpec;
use simcpu::phase::Phase;
use simcpu::types::{CpuId, CpuMask};
use simos::faults::{FaultKind, FaultPlan};
use simos::kernel::{Kernel, KernelConfig, KernelHandle};
use simos::task::{Op, ScriptedProgram};
use simtrace::TraceConfig;

const SEED: u64 = 42;

/// The machine every bench configuration boots: `raptor_lake_i7_13700`
/// with a standing scalar worker on every third CPU, and a fault plan
/// (hotplug, flaky sysfs, RAPL wrap burst; seeded with `SEED`) that
/// fires inside the kernel while sessions are being served.
pub fn boot_machine(trace: TraceConfig) -> KernelHandle {
    let kernel = Kernel::boot_handle(
        MachineSpec::raptor_lake_i7_13700(),
        KernelConfig {
            trace,
            ..KernelConfig::default()
        },
    );
    {
        let mut k = kernel.lock();
        let n_cpus = k.machine().n_cpus();
        for cpu in (0..n_cpus).step_by(3) {
            k.spawn(
                &format!("w{cpu}"),
                Box::new(ScriptedProgram::new([
                    Op::Compute(Phase::scalar(u64::MAX / 4)),
                    Op::Exit,
                ])),
                CpuMask::from_cpus([cpu]),
                0,
            );
        }
        k.install_faults(
            &FaultPlan::new(SEED)
                .at(
                    100_000_000,
                    FaultKind::CpuOffline {
                        cpu: CpuId(17),
                        down_ns: Some(150_000_000),
                    },
                )
                .at(150_000_000, FaultKind::SysfsFlaky { dur_ns: 60_000_000 })
                .at(
                    250_000_000,
                    FaultKind::RaplWrapBurst {
                        wraps: 2,
                        extra_uj: 5_000_000,
                    },
                ),
        );
    }
    kernel
}

/// Session i's CPU mask: two CPUs, deterministic in `i`.
pub fn session_mask(i: usize, n_cpus: usize) -> u64 {
    let width = n_cpus.min(64);
    let a = i % width;
    let b = (i * 7 + 3) % width;
    (1u64 << a) | (1u64 << b)
}

/// Session i's metric set: never empty, deterministic in `i`.
pub fn session_metrics(i: usize) -> u8 {
    (i % metrics::ALL as usize) as u8 + 1
}

/// FNV-1a over every session's final `(metric, value)` pairs, each
/// session's prefixed by its index: the counter digest that must come
/// out the same whatever the serving layer or the transport did.
pub fn final_values_digest<'a>(sessions: impl IntoIterator<Item = &'a [(u8, u64)]>) -> u64 {
    let mut bytes = Vec::new();
    for (i, values) in sessions.into_iter().enumerate() {
        bytes.extend_from_slice(&(i as u64).to_le_bytes());
        for &(metric, value) in values {
            bytes.push(metric);
            bytes.extend_from_slice(&value.to_le_bytes());
        }
    }
    fnv64(&bytes)
}
