//! # simos — a simulated operating-system kernel over `simcpu`
//!
//! This crate reproduces the slice of Linux that the paper's PAPI work is
//! written against:
//!
//! * [`task`] — processes/threads as streams of workload operations
//!   (compute phases, barriers, instrumentation hooks), with affinity
//!   masks (`taskset`), nice levels and per-task statistics.
//! * [`simsched`] — pluggable scheduling (scx-style): a [`simsched::Scheduler`]
//!   trait with `enqueue`/`select_cpu`/`dispatch`/`tick` hooks over a
//!   read-only [`simsched::KernelCtx`], a registry ([`SchedName`]) of
//!   policies — the CFS-like legacy default, pure vtime fairness,
//!   capacity packing, thermal steering — and the shared pass mechanics
//!   (wakeups, hotplug vacating, run queue, migration accounting).
//! * [`perf`] — the `perf_event_open` analogue, faithful to the semantics
//!   the paper leans on: one PMU per event, groups cannot span PMUs,
//!   per-thread events count **only while the thread runs on a core whose
//!   PMU type matches**, `time_enabled`/`time_running` diverge otherwise,
//!   group multiplexing, counting vs sampling, and an `rdpmc` fast path.
//! * [`sysfs`] — the `/sys` and `/proc/cpuinfo` surface used for core-type
//!   detection (§IV.B of the paper), including its warts: `cpu_capacity`
//!   only on ARM, identical family/model for Intel P/E cores, devicetree
//!   vs ACPI PMU naming on ARM, and RAPL `powercap` energy counters.
//! * [`kernel`] — the tick loop that binds scheduler, execution model and
//!   perf counting together, plus the syscall surface and its latency
//!   accounting (for the paper's §V.5 overhead questions).
//! * [`faults`] — seeded, deterministic fault injection: CPU hotplug,
//!   NMI-watchdog counter theft, transient `EINTR`/`EBUSY`, 48-bit
//!   counter wrap, RAPL energy-wrap bursts and flaky sysfs, all
//!   replayable byte-for-byte from a `FaultPlan`.

pub mod faults;
pub mod kernel;
pub mod perf;
pub mod simsched;
pub mod sysfs;
pub mod task;

pub use faults::{FaultKind, FaultPlan, FaultRecord, TransientErrno};
pub use kernel::{Kernel, KernelConfig, KernelHandle, SyscallStats};
pub use perf::{EventFd, PerfAttr, PerfError, PmuDesc, PmuKind, ReadValue, Target};
pub use simsched::{KernelCtx, Migration, SchedName, Scheduler, TaskView};
pub use task::{HookId, Op, Pid, ProgCtx, Program, TaskStats};
