//! # hetero-papi
//!
//! A from-scratch Rust reproduction of *"Performance Measurement on
//! Heterogeneous Processors with PAPI"* (Cunningham & Weaver, SC 2024):
//! a PAPI-style performance-measurement library with full heterogeneous
//! (hybrid) CPU support, running over a simulated hybrid-CPU substrate —
//! Intel Raptor Lake (P+E cores) and ARM big.LITTLE machine models with
//! per-core-type PMUs, a Linux-faithful `perf_event` layer, RAPL power
//! capping, DVFS and thermal throttling.
//!
//! ## Layers (each its own crate, re-exported here)
//!
//! * [`simcpu`] — heterogeneous CPU hardware: cores, PMUs, caches, DVFS,
//!   RAPL, thermals, machine presets.
//! * [`simos`] — the kernel: CFS-like scheduler, tasks, the
//!   `perf_event_open` analogue, sysfs/cpuid emulation.
//! * [`pfmlib`] — libpfm4's role: event tables, name parsing, encoding,
//!   PMU detection.
//! * [`papi`] — the paper's contribution: multi-PMU EventSets, derived
//!   presets, hetero-aware hardware info, plus a legacy mode reproducing
//!   the original library's limitations.
//! * [`workloads`] — the HPL benchmark model (hetero-aware and
//!   hetero-unaware personalities) and the §IV.F microbenchmark.
//! * [`telemetry`] — the `mon_hpl.py`-style monitoring harness.
//! * [`perftool`] — a `perf stat`/`perf record` analogue (`simperf`),
//!   the tool the paper contrasts PAPI with.
//! * [`metricsd`] — a multi-client counter-serving daemon over
//!   the sim kernel (one collector pass per pump, snapshot-cached hot
//!   queries, backpressure with slow-consumer eviction), plus the
//!   `metrics-client` library and `loadgen` load generator.
//! * [`jsonw`] — the tiny dependency-free JSON writer the `--json`
//!   outputs and benchmark reports share.
//!
//! ## Quickstart
//!
//! ```
//! use hetero_papi::prelude::*;
//!
//! // Boot the paper's Raptor Lake desktop and initialize PAPI on it.
//! let session = Session::raptor_lake();
//! let mut papi = session.papi().unwrap();
//! assert!(papi.hardware_info().heterogeneous);
//!
//! // Run 1M instructions pinned to an E-core, measured by a multi-PMU
//! // EventSet holding both core types' INST_RETIRED events.
//! let pid = session.kernel().lock().spawn(
//!     "demo",
//!     Box::new(ScriptedProgram::new([
//!         Op::Compute(Phase::scalar(1_000_000)),
//!         Op::Exit,
//!     ])),
//!     CpuMask::from_cpus([16]),
//!     0,
//! );
//! let es = papi.create_eventset();
//! papi.attach(es, Attach::Task(pid)).unwrap();
//! papi.add_named(es, "adl_glc::INST_RETIRED:ANY").unwrap();
//! papi.add_named(es, "adl_grt::INST_RETIRED:ANY").unwrap();
//! papi.start(es).unwrap();
//! session.kernel().lock().run_to_completion(10_000_000_000);
//! let values = papi.stop(es).unwrap();
//! assert_eq!(values[0].1, 0);          // nothing on the P cores
//! assert!(values[1].1 >= 1_000_000);   // everything on the E core
//! ```

pub use jsonw;
pub use metricsd;
pub use papi;
pub use perftool;
pub use pfmlib;
pub use simcpu;
pub use simos;
pub use telemetry;
pub use workloads;

use simcpu::machine::MachineSpec;
use simos::kernel::{Kernel, KernelConfig, KernelHandle};

/// A booted machine + kernel, ready for measurement.
pub struct Session {
    kernel: KernelHandle,
}

impl Session {
    /// Boot any machine spec with default kernel configuration.
    pub fn boot(spec: MachineSpec) -> Session {
        Session {
            kernel: Kernel::boot_handle(spec, KernelConfig::default()),
        }
    }

    /// Boot with explicit kernel configuration.
    pub fn boot_with(spec: MachineSpec, cfg: KernelConfig) -> Session {
        Session {
            kernel: Kernel::boot_handle(spec, cfg),
        }
    }

    /// The paper's Intel Raptor Lake desktop (Table I).
    pub fn raptor_lake() -> Session {
        Session::boot(MachineSpec::raptor_lake_i7_13700())
    }

    /// The paper's OrangePi 800 big.LITTLE system (Table IV).
    pub fn orangepi_800() -> Session {
        Session::boot(MachineSpec::orangepi_800())
    }

    /// A homogeneous control machine.
    pub fn skylake() -> Session {
        Session::boot(MachineSpec::skylake_quad())
    }

    /// A tri-cluster ARM DynamIQ machine (three core types).
    pub fn dynamiq() -> Session {
        Session::boot(MachineSpec::dynamiq_tri())
    }

    /// An Alder Lake mobile hybrid (4 P + 8 E, 28 W budget).
    pub fn alder_mobile() -> Session {
        Session::boot(MachineSpec::alder_lake_mobile())
    }

    /// Shared handle to the kernel.
    pub fn kernel(&self) -> KernelHandle {
        self.kernel.clone()
    }

    /// Initialize the heterogeneous-capable PAPI library on this machine.
    pub fn papi(&self) -> Result<papi::Papi, papi::PapiError> {
        papi::Papi::init(self.kernel())
    }

    /// Initialize the legacy (pre-paper) PAPI library.
    pub fn papi_legacy(&self) -> Result<papi::Papi, papi::PapiError> {
        papi::Papi::init_legacy(self.kernel())
    }
}

/// Convenient glob import for examples and tests.
pub mod prelude {
    pub use crate::Session;
    pub use papi::{
        Attach, EventSetId, Papi, PapiError, PapiMode, Preset, QualifiedValues, ReadQuality,
    };
    pub use simcpu::phase::Phase;
    pub use simcpu::types::{CoreType, CpuId, CpuMask};
    pub use simos::faults::{FaultKind, FaultPlan};
    pub use simos::kernel::{run_with_hooks, Kernel, KernelConfig, KernelHandle};
    pub use simos::task::{HookId, Op, Pid, ScriptedProgram};
    pub use workloads::{HplConfig, HplVariant};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn sessions_boot_all_machines() {
        for s in [
            Session::raptor_lake(),
            Session::orangepi_800(),
            Session::skylake(),
            Session::dynamiq(),
            Session::alder_mobile(),
        ] {
            let papi = s.papi().unwrap();
            assert!(papi.hardware_info().ncpus > 0);
        }
    }

    #[test]
    fn metricsd_serves_counters_over_the_facade() {
        use metricsd::wire::{metrics, Request, Response};
        let s = Session::raptor_lake();
        s.kernel().lock().spawn(
            "w",
            Box::new(ScriptedProgram::new([
                Op::Compute(Phase::scalar(u64::MAX / 4)),
                Op::Exit,
            ])),
            CpuMask::from_cpus([0]),
            0,
        );
        let mut d = metricsd::Daemon::new(s.kernel(), metricsd::DaemonConfig::default());
        let mut c = metricsd::MetricsClient::new(d.connector().connect());
        c.post(&Request::Hello {
            proto: metricsd::PROTO_VERSION,
        })
        .unwrap();
        d.pump();
        assert!(matches!(c.take().unwrap(), Response::Welcome { .. }));
        c.post(&Request::Subscribe {
            cpu_mask: 1,
            metrics: metrics::INSTRUCTIONS,
        })
        .unwrap();
        d.pump();
        let sub_id = match c.take().unwrap() {
            Response::Subscribed { sub_id, .. } => sub_id,
            other => panic!("{other:?}"),
        };
        d.pump();
        c.post(&Request::Read {
            sub_id,
            submit_ns: 0,
        })
        .unwrap();
        d.pump();
        match c.take().unwrap() {
            Response::Counters { values, .. } => assert!(values[0].value > 0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hybrid_and_legacy_modes() {
        let s = Session::raptor_lake();
        assert_eq!(s.papi().unwrap().mode(), PapiMode::Hybrid);
        assert_eq!(s.papi_legacy().unwrap().mode(), PapiMode::Legacy);
    }
}
