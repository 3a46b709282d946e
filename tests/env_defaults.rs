//! `KernelConfig::default()` is a constant: the scheduler and the flight
//! recorder are chosen in code, never by the process environment.
//!
//! This file holds one test so that it runs in a process of its own: the
//! variables it sets cannot reach any other test.

use simcpu::machine::MachineSpec;
use simos::kernel::{Kernel, KernelConfig};
use simos::simsched::SchedName;

#[test]
fn kernel_defaults_ignore_the_environment() {
    std::env::set_var("SIM_SCHED", "vtime");
    std::env::set_var("SIM_TRACE", "on");
    std::env::set_var("SIM_TRACE_CAP", "1");
    let cfg = KernelConfig::default();
    assert_eq!(cfg.sched, SchedName::Cfs);
    assert!(!cfg.trace.enabled, "tracing is off by default");
    let k = Kernel::boot(MachineSpec::skylake_quad(), cfg);
    assert_eq!(k.scheduler_name(), "cfs");
}
