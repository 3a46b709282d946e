//! The kernel: tick loop, task syscalls, and the perf syscall surface.
//!
//! One [`Kernel`] owns a [`simcpu::Machine`] and a task table. Every tick it
//! (1) runs the scheduler, (2) executes each CPU's task through the
//! cycle-batch engine — honouring compute phases, barriers, instrumentation
//! hooks and sleeps at exact instruction boundaries — (3) feeds the
//! resulting event deltas to the perf subsystem, and (4) closes the
//! hardware tick (power, thermal, DVFS, LLC shares).
//!
//! The perf implementation keeps the semantics the paper depends on: a
//! per-thread event only counts on CPUs its PMU covers; groups are
//! per-PMU; over-committed contexts multiplex by group rotation;
//! `read()` carries simulated syscall latency while `rdpmc` reads are
//! nearly free (§V.5's overhead concern, measurable via [`SyscallStats`]).

use crate::faults::{FaultKind, FaultPlan, FaultRecord, FaultState, Undo};
use crate::perf::{
    schedule_groups_with, EventConfig, EventFd, GroupReq, PerfAttr, PerfError, PerfEvent, PmuDesc,
    PmuKind, RaplConfig, ReadValue, Target, UncoreConfig,
};
use crate::simsched::{HwView, SchedCpu, SchedName, SchedPass, Scheduler};
use crate::task::{
    core_type_index, BlockReason, HookId, Op, Pid, ProgCtx, Program, Task, TaskState, TaskStats,
};
use parking_lot::Mutex;
use simcpu::events::{ArchEvent, EventCounts};
use simcpu::exec;
use simcpu::machine::{CoreSeat, CpuLoad, Machine, MachineSpec};
use simcpu::phase::Phase;
use simcpu::plan::PlanId;
use simcpu::power::RaplDomain;
use simcpu::types::{CoreType, CpuId, CpuMask, Nanos};
use simtrace::{EventKind, TraceConfig, TraceSink, Track};
use std::collections::HashMap;
use std::sync::Arc;

/// How ARM firmware names PMUs in sysfs — the paper notes devicetree
/// systems and ACPI servers can expose *different names for the same PMU*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Firmware {
    /// Embedded style: `armv8_cortex_a72`.
    DeviceTree,
    /// Server style: `armv8_pmuv3_0`, `armv8_pmuv3_1`, …
    Acpi,
}

/// How the tick loop drives per-CPU execution. There is one path:
/// every CPU runs in index order on the calling thread (DESIGN.md §7).
///
/// This enum and [`KernelConfig::exec_mode`] remain only because the
/// benchmark in `perfbench/src/hpl.rs` names `ExecMode::Serial`; remove
/// both once that benchmark stops naming it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Execute CPUs one after another on the calling thread.
    #[default]
    Serial,
}

/// Kernel configuration.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// Simulation tick, ns.
    pub tick_ns: Nanos,
    /// Scheduling policy, from the [`crate::simsched`] registry
    /// (default `cfs`, the legacy capacity-aware policy).
    pub sched: SchedName,
    /// Has no effect: nothing in the kernel draws random numbers (the
    /// fault plan carries its own seed). Kept only because the benchmark
    /// in `perfbench/src` names it.
    pub seed: u64,
    /// ARM PMU naming style.
    pub firmware: Firmware,
    /// Has no effect: kept only because the benchmark in
    /// `perfbench/src/hpl.rs` names it (see [`ExecMode`]).
    pub exec_mode: ExecMode,
    /// Flight-recorder tracing (see `simtrace`). Off by default;
    /// timestamps are sim time, so enabling it cannot perturb the
    /// simulation.
    pub trace: TraceConfig,
}

impl Default for KernelConfig {
    fn default() -> KernelConfig {
        KernelConfig {
            tick_ns: 1_000_000,
            sched: SchedName::default(),
            seed: 0x5eed,
            firmware: Firmware::DeviceTree,
            exec_mode: ExecMode::Serial,
            trace: TraceConfig::default(),
        }
    }
}

/// Multiplex rotation interval, ns.
const MUX_INTERVAL_NS: Nanos = 4_000_000;

/// Modeled syscall latencies (ns) — calibrated to the magnitudes reported
/// for perf_event self-monitoring overhead studies.
pub const LAT_OPEN_NS: u64 = 15_000;
pub const LAT_READ_NS: u64 = 1_800;
pub const LAT_IOCTL_NS: u64 = 1_200;
pub const LAT_CLOSE_NS: u64 = 2_500;
pub const LAT_RDPMC_NS: u64 = 30;

/// Counts and cumulative latency of the perf syscalls issued so far —
/// the measurement-overhead ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyscallStats {
    pub opens: u64,
    pub reads: u64,
    pub ioctls: u64,
    pub closes: u64,
    pub rdpmc_reads: u64,
    pub total_latency_ns: u64,
}

#[derive(Debug, Default)]
struct BarrierState {
    expected: u32,
    waiting: Vec<Pid>,
}

/// Per-CPU perf state: the CPU's event context and its hardware
/// counter programming.
#[derive(Debug, Default, Clone)]
struct CpuPerfState {
    /// The CPU's core PMU (index into `Kernel::pmus`), resolved at boot.
    core_pmu: Option<usize>,
    /// The CPU's context: open events with a `Cpu` or `ThreadOnCpu`
    /// target on this CPU, except RAPL/uncore (package context).
    context: Vec<EventFd>,
    /// Which event fds currently hold hardware counters (a set).
    scheduled: Vec<EventFd>,
    /// Task the current programming was computed for.
    for_task: Option<Pid>,
    /// perf generation the programming was computed at.
    at_gen: u64,
    /// Whether the last fit left a candidate group without counters —
    /// only then can a rotation change the programming (Linux's
    /// `rotate_necessary`).
    rotate_necessary: bool,
    /// Rotation cursor for multiplexing.
    rotation: usize,
    next_rotate_ns: Nanos,
}

impl CpuPerfState {
    /// Advance the rotation cursor if a mux interval has elapsed.
    fn advance_rotation(&mut self, now: Nanos, interval: Nanos) {
        if now >= self.next_rotate_ns {
            self.rotation = self.rotation.wrapping_add(1);
            self.next_rotate_ns = now + interval;
        }
    }
}

/// A side effect of one core's execution that must be merged into shared
/// kernel state. `exec_core` records at most one per core; the kernel
/// applies them in ascending CPU order, which fixes barrier-queue and hook
/// order.
#[derive(Debug, Clone, Copy)]
enum CtrlOp {
    Barrier(u32),
    Hook(HookId),
}

/// Everything one core needs to execute its tick, captured up front so
/// `exec_core` touches no shared kernel state.
#[derive(Debug, Clone)]
struct CoreWork {
    pid: Pid,
    cpu: CpuId,
    /// Who ran here last tick (context-switch accounting).
    prev: Option<Pid>,
    ctx: exec::ExecContext<'static>,
    /// Plan-cache invalidation epoch (the kernel's fault epoch); the seat
    /// cache drops its entries when this moves.
    plan_epoch: u64,
    /// Test-only oracle: bypass the seat's plan cache and recompute every
    /// model input for each slice, and poll the program after every
    /// `Op::Spin` chunk instead of re-installing it.
    #[cfg(test)]
    uncached: bool,
}

/// Upper bound on recorded advance-iterations in a steady template. A
/// steady tick runs the engine once or twice (full budget, then the
/// sub-cycle remainder); anything past 8 is not worth replaying.
const STEADY_ITERS: usize = 8;

/// Simulated page size for the first-touch page-fault model.
const PAGE_BYTES: u64 = 4096;

/// Software-event deltas observed on one CPU during one tick; the source
/// the software PMU counts from in [`Kernel::perf_tick`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SwDelta {
    /// The running task was context-switched in this tick.
    switched_in: bool,
    /// The running task arrived from a different CPU this tick.
    migrated: bool,
    /// Minor page faults charged this tick (first-touch model: pages of a
    /// freshly installed phase's working set never touched before).
    page_faults: u64,
}

/// One core's outputs for the tick, written into its indexed slot.
#[derive(Debug, Clone, Copy)]
struct CoreOut {
    load: CpuLoad,
    delta: EventCounts,
    run_ns: u64,
    sw: SwDelta,
    ctrl: Option<CtrlOp>,
    /// Whether this tick is a *steady template*: the task ran the same
    /// phase end to end with no op pull, no phase completion, no control
    /// op and no context switch — so an identical tick (same context,
    /// enough instructions left) reproduces these outputs exactly.
    steady: bool,
    /// The seat-cache plan the tick's last phase was sliced from (`None`
    /// on the uncached oracle): on a steady template, its carried phase's.
    /// A steady template is replayed only when the next tick's lookup for
    /// that phase hits this id.
    plan: Option<PlanId>,
    /// Instructions retired this tick (phase decrement during replay).
    inst_total: u64,
    /// Core cycles consumed this tick (task-stats replay).
    cycles_total: u64,
    /// Per-iteration flops, preserved individually because f64 addition
    /// is not associative: replay must re-add them in the original order
    /// to keep `TaskStats::flops` bit-identical.
    flops_iters: [f64; STEADY_ITERS],
    n_iters: u8,
    /// Test-only: engine slices taken this tick (0 on a replayed tick).
    #[cfg(test)]
    slices: u32,
}

impl Default for CoreOut {
    fn default() -> CoreOut {
        CoreOut {
            load: CpuLoad::default(),
            delta: EventCounts::ZERO,
            run_ns: 0,
            sw: SwDelta::default(),
            ctrl: None,
            steady: false,
            plan: None,
            inst_total: 0,
            cycles_total: 0,
            flops_iters: [0.0; STEADY_ITERS],
            n_iters: 0,
            #[cfg(test)]
            slices: 0,
        }
    }
}

/// One CPU's running sums over the slices of the tick it executes.
#[derive(Default)]
struct TickSums {
    /// Cycles consumed: a sum of whole slice cycle counts, so exact.
    used: f64,
    /// Cycles weighted by the activity factor (the power model's input).
    act_cycles: f64,
    mem_bytes: f64,
    events: EventCounts,
}

impl TickSums {
    /// Account `n` back-to-back slices that each produced `res` from a
    /// phase with vector fraction `vec_frac`. The integer sums are scaled
    /// once; the f64 sums, which are order-sensitive, take one add per
    /// slice in slice order, so this is bit-identical to `n` calls with
    /// `n = 1`.
    fn account(
        &mut self,
        task: &mut Task,
        out: &mut CoreOut,
        ct_idx: usize,
        res: &exec::ExecResult,
        vec_frac: f64,
        n: u64,
    ) {
        let inst = res.instructions * n;
        let cycles = res.cycles * n;
        out.inst_total += inst;
        out.cycles_total += cycles;
        task.stats.instructions += inst;
        task.stats.cycles += cycles;
        task.stats.instructions_by_type[ct_idx] += inst;
        // One slice is the common case: skip the per-event multiplies.
        if n == 1 {
            self.events.add(&res.events);
        } else {
            self.events.add_times(&res.events, n);
        }
        // Activity factor: vector-dense work toggles more silicon;
        // memory-stalled cycles toggle much less.
        let stall_frac =
            (res.events.get(ArchEvent::MemStallCycles) as f64 / res.cycles.max(1) as f64).min(1.0);
        let mix_act = 0.55 + 0.45 * (vec_frac / 0.6).min(1.0);
        let act = res.cycles as f64 * (mix_act * (1.0 - stall_frac) + 0.35 * stall_frac);
        for _ in 0..n {
            if (out.n_iters as usize) < STEADY_ITERS {
                out.flops_iters[out.n_iters as usize] = res.flops;
                out.n_iters += 1;
            } else {
                out.steady = false;
            }
            task.stats.flops += res.flops;
            self.used += res.cycles as f64;
            self.act_cycles += act;
            self.mem_bytes += res.mem_bytes;
        }
    }
}

/// Re-apply a steady template's effects to the task it was recorded for:
/// the phase decrement and every stat the tick adds. Flops are re-added
/// per iteration, in the original order, because f64 addition is not
/// associative.
fn apply_template(task: &mut Task, out: &CoreOut, ct_idx: usize) {
    let ph = task
        .current
        .as_mut()
        .expect("a replayed template's task has a phase");
    ph.instructions -= out.inst_total;
    task.stats.instructions += out.inst_total;
    task.stats.cycles += out.cycles_total;
    for &flops in &out.flops_iters[..out.n_iters as usize] {
        task.stats.flops += flops;
    }
    task.stats.instructions_by_type[ct_idx] += out.inst_total;
    task.stats.runtime_ns += out.run_ns;
    task.stats.runtime_ns_by_type[ct_idx] += out.run_ns;
    task.charge_vruntime(out.run_ns);
}

/// Reusable per-tick buffers. Everything `tick()` used to allocate lives
/// here, sized once at boot, so the steady-state hot loop is allocation-free.
struct TickScratch {
    prev_current: Vec<Option<Pid>>,
    /// Each CPU's `outs[ci].load`, gathered for `Machine::end_tick`.
    loads: Vec<CpuLoad>,
    /// This tick's per-CPU outputs, read by the perf accounting. A slot
    /// persists from tick to tick (an idle CPU resets its own), so it is
    /// also the CPU's template for per-CPU template replay.
    outs: Vec<CoreOut>,
}

impl TickScratch {
    fn new(n: usize) -> TickScratch {
        TickScratch {
            prev_current: Vec::with_capacity(n),
            loads: vec![CpuLoad::default(); n],
            outs: vec![CoreOut::default(); n],
        }
    }
}

/// A shared handle to a kernel, cloneable across the measurement library,
/// telemetry pollers and the run driver.
pub type KernelHandle = Arc<Mutex<Kernel>>;

/// The simulated kernel.
pub struct Kernel {
    machine: Machine,
    cfg: KernelConfig,
    scheduler: Box<dyn Scheduler + Send>,
    /// Policy-independent scheduling mechanics + reusable pass scratch.
    sched_pass: SchedPass,
    /// Per-CPU current cluster frequency (kHz), refreshed each tick for
    /// the scheduler's [`HwView`].
    sched_freq: Vec<u64>,
    /// Per-CPU nominal maximum frequency (kHz), fixed at boot.
    sched_max_khz: Vec<u64>,
    /// Lowest configured thermal trip (milli-°C), fixed at boot.
    first_trip_mc: i64,
    topo: Vec<SchedCpu>,
    tasks: Vec<Option<Task>>,
    current: Vec<Option<Pid>>,
    barriers: HashMap<u32, BarrierState>,
    pmus: Vec<PmuDesc>,
    events: Vec<Option<PerfEvent>>,
    cpu_perf: Vec<CpuPerfState>,
    /// Per-task contexts, indexed by pid: open events with a `Thread`
    /// target.
    task_events: Vec<Vec<EventFd>>,
    /// The package context: open RAPL and uncore events.
    package_events: Vec<EventFd>,
    pending_hooks: Vec<(Pid, HookId)>,
    time_ns: Nanos,
    perf_gen: u64,
    stats: SyscallStats,
    /// Previous tick's per-domain energy, for RAPL perf events.
    rapl_prev_uj: [f64; 4],
    /// Per-CPU hotplug state; offline CPUs run nothing and their perf
    /// contexts freeze.
    online: Vec<bool>,
    /// Installed fault-injection state, if any.
    faults: Option<FaultState>,
    /// Core type per CPU index (immutable topology).
    core_types: Vec<CoreType>,
    /// Reusable per-tick buffers.
    scratch: TickScratch,
    /// Bumped whenever a fault (or fault reversal) fires — the per-seat
    /// plan caches drop their entries when this moves. Exec-context
    /// changes (DVFS, LLC shares, contention) need no bump: they are in
    /// the plan key itself.
    fault_epoch: u64,
    /// Total ticks advanced.
    tick_count: u64,
    /// Kernel-domain flight recorder (ticks, scheduling decisions,
    /// faults). Hardware and per-CPU events live in the machine's sinks.
    trace: TraceSink,
    /// Test-only oracle switch: route `exec_core` through the uncached
    /// `exec::advance` / `exec::llc_pressure` model, polling the program
    /// after every `Op::Spin` chunk.
    #[cfg(test)]
    uncached: bool,
}

impl Kernel {
    /// Boot a kernel on the given machine.
    pub fn boot(spec: MachineSpec, cfg: KernelConfig) -> Kernel {
        let mut machine = Machine::new(spec);
        machine.set_trace(&cfg.trace);
        let n = machine.n_cpus();
        let topo = machine
            .cpus()
            .iter()
            .map(|c| SchedCpu {
                capacity: c.uarch.params().capacity,
                sibling: c.smt_sibling.map(|s| s.0),
            })
            .collect();
        let pmus = Self::register_pmus(&machine, cfg.firmware);
        let cpu_perf = machine
            .cpus()
            .iter()
            .map(|c| CpuPerfState {
                core_pmu: pmus
                    .iter()
                    .position(|p| p.kind == PmuKind::CoreHw && p.cpus.contains(c.cpu)),
                ..Default::default()
            })
            .collect();
        let sched_max_khz: Vec<u64> = machine
            .cpus()
            .iter()
            .map(|c| machine.cluster_spec(c.cluster).f_max_khz)
            .collect();
        let first_trip_mc = machine
            .thermal()
            .spec()
            .trips
            .iter()
            .map(|t| (t.temp_c * 1000.0) as i64)
            .min()
            .unwrap_or(i64::MAX);
        Kernel {
            scheduler: cfg.sched.instantiate(),
            sched_pass: SchedPass::default(),
            sched_freq: vec![0; n],
            sched_max_khz,
            first_trip_mc,
            topo,
            tasks: Vec::new(),
            current: vec![None; n],
            barriers: HashMap::new(),
            pmus,
            events: Vec::new(),
            cpu_perf,
            task_events: Vec::new(),
            package_events: Vec::new(),
            pending_hooks: Vec::new(),
            time_ns: 0,
            perf_gen: 0,
            stats: SyscallStats::default(),
            rapl_prev_uj: [0.0; 4],
            online: vec![true; n],
            faults: None,
            core_types: machine.cpus().iter().map(|c| c.core_type()).collect(),
            scratch: TickScratch::new(n),
            fault_epoch: 0,
            tick_count: 0,
            trace: TraceSink::new(&cfg.trace),
            #[cfg(test)]
            uncached: false,
            machine,
            cfg,
        }
    }

    /// Whether flight-recorder tracing is on for this kernel.
    pub fn trace_enabled(&self) -> bool {
        self.trace.enabled()
    }

    /// Export every flight-recorder stream owned by the kernel and its
    /// machine: the kernel track, the shared-hardware track, and one
    /// track per CPU seat.
    pub fn trace_tracks(&self) -> Vec<Track> {
        let mut tracks = Vec::with_capacity(2 + self.machine.n_cpus());
        tracks.push(Track::new("kernel", self.trace.events()));
        tracks.push(Track::new("hw", self.machine.hw_trace().events()));
        for (i, seat) in self.machine.seats().iter().enumerate() {
            tracks.push(Track::new(format!("cpu{i}"), seat.trace.events()));
        }
        tracks
    }

    /// Boot with default config and wrap in a shareable handle.
    pub fn boot_handle(spec: MachineSpec, cfg: KernelConfig) -> KernelHandle {
        Arc::new(Mutex::new(Kernel::boot(spec, cfg)))
    }

    fn register_pmus(machine: &Machine, firmware: Firmware) -> Vec<PmuDesc> {
        let mut pmus = Vec::new();
        // Software PMU is always type 1 (PERF_TYPE_SOFTWARE).
        pmus.push(PmuDesc {
            id: 1,
            name: "software".into(),
            kind: PmuKind::Software,
            cpus: CpuMask::first_n(machine.n_cpus()),
            uarch: None,
        });
        let mut next_id = 4u32; // dynamic PMU ids start past the fixed ones
        let hybrid = machine.is_hybrid();
        let mut seen = Vec::new();
        for (ci, cl) in machine.spec().clusters.iter().enumerate() {
            if seen.contains(&cl.uarch) {
                continue;
            }
            seen.push(cl.uarch);
            let ua = cl.uarch.params();
            let name = match (ua.vendor, firmware) {
                (simcpu::uarch::Vendor::Intel, _) => {
                    if hybrid {
                        ua.kernel_pmu_name.to_string()
                    } else {
                        "cpu".to_string()
                    }
                }
                (simcpu::uarch::Vendor::Arm, Firmware::DeviceTree) => {
                    ua.kernel_pmu_name.to_string()
                }
                (simcpu::uarch::Vendor::Arm, Firmware::Acpi) => {
                    format!("armv8_pmuv3_{ci}")
                }
            };
            // Cover all cpus of clusters sharing this uarch.
            let mut cpus = CpuMask::EMPTY;
            for info in machine.cpus() {
                if info.uarch == cl.uarch {
                    cpus.set(info.cpu);
                }
            }
            pmus.push(PmuDesc {
                id: next_id,
                name,
                kind: PmuKind::CoreHw,
                cpus,
                uarch: Some(cl.uarch),
            });
            next_id += 1;
        }
        if machine.llc_bytes() > 0 {
            pmus.push(PmuDesc {
                id: next_id,
                name: "uncore_llc".into(),
                kind: PmuKind::Uncore,
                cpus: CpuMask::from_cpus([0]),
                uarch: None,
            });
            next_id += 1;
        }
        // Every machine has a memory controller PMU.
        pmus.push(PmuDesc {
            id: next_id,
            name: "uncore_imc".into(),
            kind: PmuKind::Uncore,
            cpus: CpuMask::from_cpus([0]),
            uarch: None,
        });
        next_id += 1;
        if machine.rapl().available() {
            pmus.push(PmuDesc {
                id: next_id,
                name: "power".into(),
                kind: PmuKind::Rapl,
                cpus: CpuMask::from_cpus([0]),
                uarch: None,
            });
        }
        pmus
    }

    // ---- introspection -----------------------------------------------------

    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    pub fn config(&self) -> &KernelConfig {
        &self.cfg
    }

    /// Registry name of the running scheduling policy.
    pub fn scheduler_name(&self) -> &'static str {
        self.scheduler.name()
    }

    pub fn time_ns(&self) -> Nanos {
        self.time_ns
    }

    pub fn pmus(&self) -> &[PmuDesc] {
        &self.pmus
    }

    /// Find a PMU by sysfs name.
    pub fn pmu_by_name(&self, name: &str) -> Option<&PmuDesc> {
        self.pmus.iter().find(|p| p.name == name)
    }

    /// Find a PMU by type id.
    pub fn pmu_by_id(&self, id: u32) -> Option<&PmuDesc> {
        self.pmus.iter().find(|p| p.id == id)
    }

    pub fn syscall_stats(&self) -> SyscallStats {
        self.stats
    }

    /// Emulated `cpuid` (Intel only): leaf 0x1A returns the hybrid
    /// core-type byte in EAX bits 31:24, zero on machines without the leaf.
    pub fn cpuid(&self, cpu: CpuId, leaf: u32) -> (u32, u32, u32, u32) {
        let info = self.machine.cpu_info(cpu);
        let ua = info.uarch.params();
        if ua.vendor != simcpu::uarch::Vendor::Intel {
            return (0, 0, 0, 0);
        }
        match leaf {
            0x1 => {
                let (fam, model) = ua.x86_family_model;
                let eax = (fam << 8) | ((model & 0xf) << 4) | ((model >> 4) << 16);
                (eax, 0, 0, 0)
            }
            0x1a => ((ua.cpuid_1a_core_type as u32) << 24, 0, 0, 0),
            _ => (0, 0, 0, 0),
        }
    }

    // ---- task syscalls -----------------------------------------------------

    /// Spawn a task. Panics on an empty affinity mask (caller bug).
    pub fn spawn(
        &mut self,
        name: &str,
        program: Box<dyn Program>,
        affinity: CpuMask,
        nice: i32,
    ) -> Pid {
        let machine_cpus = CpuMask::first_n(self.machine.n_cpus());
        let eff = affinity.and(&machine_cpus);
        assert!(!eff.is_empty(), "task affinity selects no CPU");
        let pid = Pid(self.tasks.len() as u32);
        self.tasks
            .push(Some(Task::new(pid, name.to_string(), program, eff, nice)));
        pid
    }

    /// `sched_setaffinity`: change a task's CPU mask.
    pub fn set_affinity(&mut self, pid: Pid, mask: CpuMask) -> Result<(), PerfError> {
        let machine_cpus = CpuMask::first_n(self.machine.n_cpus());
        let eff = mask.and(&machine_cpus);
        if eff.is_empty() {
            return Err(PerfError::InvalidState("affinity selects no CPU"));
        }
        let t = self
            .tasks
            .get_mut(pid.0 as usize)
            .and_then(|t| t.as_mut())
            .ok_or(PerfError::NoSuchProcess)?;
        t.affinity = eff;
        Ok(())
    }

    /// Register a barrier with a fixed participant count.
    pub fn register_barrier(&mut self, id: u32, participants: u32) {
        self.barriers.insert(
            id,
            BarrierState {
                expected: participants,
                ..Default::default()
            },
        );
    }

    /// Resume a task parked in an instrumentation hook.
    pub fn resume(&mut self, pid: Pid) -> Result<(), PerfError> {
        let t = self
            .tasks
            .get_mut(pid.0 as usize)
            .and_then(|t| t.as_mut())
            .ok_or(PerfError::NoSuchProcess)?;
        match t.state {
            TaskState::Blocked(BlockReason::Hook(_)) => {
                t.state = TaskState::Runnable;
                Ok(())
            }
            _ => Err(PerfError::InvalidState("task not parked in a hook")),
        }
    }

    /// Inject ops to run *before* the task's own program continues (used by
    /// the measurement library to model its in-process overhead).
    pub fn inject_ops(&mut self, pid: Pid, ops: impl IntoIterator<Item = Op>) {
        if let Some(t) = self.tasks.get_mut(pid.0 as usize).and_then(|t| t.as_mut()) {
            for op in ops {
                t.injected.push_back(op);
            }
        }
    }

    pub fn task_stats(&self, pid: Pid) -> Option<TaskStats> {
        self.tasks
            .get(pid.0 as usize)
            .and_then(|t| t.as_ref())
            .map(|t| t.stats)
    }

    pub fn task_state(&self, pid: Pid) -> Option<TaskState> {
        self.tasks
            .get(pid.0 as usize)
            .and_then(|t| t.as_ref())
            .map(|t| t.state)
    }

    /// Whether every spawned task has exited.
    pub fn all_exited(&self) -> bool {
        self.tasks
            .iter()
            .flatten()
            .all(|t| t.state == TaskState::Exited)
    }

    /// Drain instrumentation hooks that fired since the last drain
    /// (only [`run_with_hooks`] services them).
    fn take_pending_hooks(&mut self) -> Vec<(Pid, HookId)> {
        std::mem::take(&mut self.pending_hooks)
    }

    // ---- fault injection -----------------------------------------------------

    /// Install a fault plan (see [`crate::faults`]). Faults scheduled at
    /// or before the current time fire immediately; the rest fire at tick
    /// boundaries. Replaces any previously installed plan wholesale —
    /// install once, before the run.
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        self.faults = Some(FaultState::new(plan));
        self.apply_due_faults();
    }

    /// Log of every fault injected so far. Identical plans on identically
    /// configured kernels produce identical logs — the determinism
    /// contract fault tests assert on.
    pub fn fault_log(&self) -> &[FaultRecord] {
        self.faults.as_ref().map(|f| f.log()).unwrap_or(&[])
    }

    pub fn cpu_online(&self, cpu: CpuId) -> bool {
        self.online.get(cpu.0).copied().unwrap_or(false)
    }

    /// Mask of currently online CPUs (the sysfs `online` file).
    pub fn online_mask(&self) -> CpuMask {
        let mut m = CpuMask::EMPTY;
        for (ci, &on) in self.online.iter().enumerate() {
            if on {
                m.set(CpuId(ci));
            }
        }
        m
    }

    /// Whether sysfs reads are failing right now (flaky-sysfs fault).
    pub(crate) fn sysfs_faulty_now(&self) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.sysfs_faulty_at(self.time_ns))
    }

    /// Fire every fault (and fault reversal) due at the current time.
    fn apply_due_faults(&mut self) {
        let Some(mut fs) = self.faults.take() else {
            return;
        };
        let now = self.time_ns;
        let mut fired = false;
        while let Some((at, undo)) = fs.pop_due_undo(now) {
            fired = true;
            match undo {
                Undo::Reonline(cpu) => {
                    if let Some(slot) = self.online.get_mut(cpu.0) {
                        *slot = true;
                    }
                    self.perf_gen += 1;
                    self.trace
                        .record(at, EventKind::FaultUndo, cpu.0 as u32, 1, 0);
                    fs.record(at, format!("cpu{} back online", cpu.0));
                }
                Undo::WatchdogRelease(ev) => {
                    if let Some(pos) = fs.watchdog_stolen.iter().position(|&e| e == ev) {
                        fs.watchdog_stolen.remove(pos);
                    }
                    self.perf_gen += 1;
                    self.trace.record(at, EventKind::FaultUndo, 0, 2, 0);
                    fs.record(at, format!("nmi watchdog released {ev:?}"));
                }
            }
        }
        while let Some(fe) = fs.pop_due(now) {
            fired = true;
            match fe.kind {
                FaultKind::CpuOffline { cpu, down_ns } => {
                    if self.online.get(cpu.0).copied() == Some(true) {
                        self.online[cpu.0] = false;
                        // Kick whatever was running there back to the run
                        // queue; its per-thread events resume on the next
                        // CPU the scheduler finds.
                        if let Some(pid) = self.current[cpu.0].take() {
                            if let Some(t) =
                                self.tasks.get_mut(pid.0 as usize).and_then(|t| t.as_mut())
                            {
                                if matches!(t.state, TaskState::Running(_)) {
                                    t.state = TaskState::Runnable;
                                }
                            }
                        }
                        // Per-CPU contexts lose their counters immediately.
                        let st = &mut self.cpu_perf[cpu.0];
                        st.scheduled.clear();
                        st.for_task = None;
                        self.perf_gen += 1;
                        if let Some(d) = down_ns {
                            fs.push_undo(now + d, Undo::Reonline(cpu));
                        }
                        self.trace.record(
                            now,
                            EventKind::FaultCpuOffline,
                            cpu.0 as u32,
                            down_ns.unwrap_or(0),
                            0,
                        );
                        fs.record(now, format!("cpu{} offline", cpu.0));
                    }
                }
                FaultKind::NmiWatchdog { steal, hold_ns } => {
                    if !fs.watchdog_stolen.contains(&steal) {
                        fs.watchdog_stolen.push(steal);
                    }
                    self.perf_gen += 1;
                    if let Some(d) = hold_ns {
                        fs.push_undo(now + d, Undo::WatchdogRelease(steal));
                    }
                    self.trace
                        .record(now, EventKind::FaultNmiWatchdog, 0, hold_ns.unwrap_or(0), 0);
                    fs.record(now, format!("nmi watchdog stole fixed {steal:?}"));
                }
                FaultKind::TransientOpen { errno, count } => {
                    fs.arm_open_failures(errno, count);
                    self.trace
                        .record(now, EventKind::FaultTransientOpen, 0, count as u64, 0);
                    fs.record(
                        now,
                        format!("next {count} perf_event_open calls fail {errno:?}"),
                    );
                }
                FaultKind::TransientRead { errno, count } => {
                    fs.arm_read_failures(errno, count);
                    self.trace
                        .record(now, EventKind::FaultTransientRead, 0, count as u64, 0);
                    fs.record(now, format!("next {count} perf read calls fail {errno:?}"));
                }
                FaultKind::CounterWrap { headroom } => {
                    fs.arm_wrap(headroom);
                    self.trace
                        .record(now, EventKind::FaultCounterWrap, 0, headroom, 0);
                    fs.record(
                        now,
                        format!("48-bit counter wrap armed (headroom {headroom})"),
                    );
                }
                FaultKind::RaplWrapBurst { wraps, extra_uj } => {
                    let uj = wraps as u64 * simcpu::power::ENERGY_WRAP_UJ + extra_uj;
                    self.machine.rapl_mut().inject_energy_uj(uj as f64);
                    self.trace
                        .record(now, EventKind::FaultRaplWrapBurst, 0, uj, 0);
                    fs.record(
                        now,
                        format!("rapl energy burst: {wraps} wraps + {extra_uj} uj"),
                    );
                }
                FaultKind::SysfsFlaky { dur_ns } => {
                    // Window membership is precomputed; this entry only logs.
                    self.trace
                        .record(now, EventKind::FaultSysfsFlaky, 0, dur_ns, 0);
                    fs.record(now, format!("sysfs flaky for {dur_ns} ns"));
                }
            }
        }
        if fired {
            // A fault can change anything downstream of the exec model
            // (hotplug, counter state, energy); cheap blanket invalidation
            // of every seat's plan cache keeps the correctness argument
            // local to the key.
            self.fault_epoch += 1;
        }
        self.faults = Some(fs);
    }

    // ---- perf syscalls -------------------------------------------------------

    /// `perf_event_open(2)`.
    pub fn perf_event_open(
        &mut self,
        attr: PerfAttr,
        target: Target,
        group_fd: Option<EventFd>,
    ) -> Result<EventFd, PerfError> {
        self.charge(LAT_OPEN_NS);
        self.stats.opens += 1;
        if let Some(errno) = self.faults.as_mut().and_then(|f| f.take_open_failure()) {
            return Err(errno.to_perf_error());
        }

        let pmu = self
            .pmus
            .iter()
            .find(|p| p.id == attr.pmu_type)
            .ok_or(PerfError::NoSuchPmu(attr.pmu_type))?
            .clone();

        // Config validity per PMU kind.
        match (pmu.kind, attr.config) {
            (PmuKind::CoreHw, EventConfig::Hw(ev)) => {
                let ua = pmu.uarch.expect("core pmu has uarch").params();
                if !ua.supports_event(ev) {
                    return Err(PerfError::EventNotSupported);
                }
            }
            (PmuKind::Rapl, EventConfig::Rapl(_)) => {
                if attr.sample_period > 0 {
                    return Err(PerfError::BadConfig);
                }
            }
            (PmuKind::Uncore, EventConfig::Uncore(_)) => {}
            (
                PmuKind::Software,
                EventConfig::SwTaskClock
                | EventConfig::SwContextSwitches
                | EventConfig::SwCpuMigrations
                | EventConfig::SwPageFaults,
            ) => {}
            _ => return Err(PerfError::BadConfig),
        }

        // Target validity.
        match (pmu.kind, target) {
            (PmuKind::Rapl | PmuKind::Uncore, Target::Cpu(c)) => {
                if !pmu.cpus.contains(c) {
                    return Err(PerfError::CpuNotCovered);
                }
            }
            (PmuKind::Rapl | PmuKind::Uncore, _) => {
                // RAPL/uncore are per-socket: thread mode is meaningless.
                return Err(PerfError::CpuNotCovered);
            }
            (_, Target::Cpu(c) | Target::ThreadOnCpu(_, c)) => {
                if c.0 >= self.machine.n_cpus() {
                    return Err(PerfError::CpuNotCovered);
                }
                if pmu.kind == PmuKind::CoreHw && !pmu.cpus.contains(c) {
                    return Err(PerfError::CpuNotCovered);
                }
            }
            (_, Target::Thread(_)) => {}
        }
        if let Some(pid) = target.pid() {
            if self
                .tasks
                .get(pid.0 as usize)
                .and_then(|t| t.as_ref())
                .is_none()
            {
                return Err(PerfError::NoSuchProcess);
            }
        }

        // Group membership: one PMU per group — the paper's constraint.
        let fd = EventFd(self.events.len() as u32);
        let leader = match group_fd {
            None => fd,
            Some(lfd) => {
                let l = self
                    .events
                    .get(lfd.0 as usize)
                    .and_then(|e| e.as_ref())
                    .ok_or(PerfError::BadFd)?;
                if !l.is_leader() {
                    return Err(PerfError::BadFd);
                }
                if l.attr.pmu_type != attr.pmu_type {
                    return Err(PerfError::CrossPmuGroup);
                }
                if l.target != target {
                    return Err(PerfError::InvalidState("group members must share a target"));
                }
                lfd
            }
        };
        let mut ev = PerfEvent::new(fd, attr, pmu.kind, target, leader);
        // Armed 48-bit wrap fault: the hardware register of a core
        // counting event starts near its limit, which only the userpage
        // shows. The draw is logged so two same-seed runs can be diffed.
        if pmu.kind == PmuKind::CoreHw && attr.sample_period == 0 {
            let time_ns = self.time_ns;
            if let Some(fs) = self.faults.as_mut() {
                let bias = fs.draw_wrap_bias();
                if bias != 0 {
                    ev.wrap_bias = bias;
                    fs.record(time_ns, format!("fd{} wrap bias {bias}", fd.0));
                }
            }
        }
        self.events.push(Some(ev));
        if leader != fd {
            if let Some(l) = self.events[leader.0 as usize].as_mut() {
                l.group.push(fd);
            }
        }
        self.context_mut(pmu.kind, target).push(fd);
        self.perf_gen += 1;
        Ok(fd)
    }

    /// The context an event with this PMU kind and target is filed
    /// under: the package for RAPL/uncore, else the CPU for `Cpu` and
    /// `ThreadOnCpu` targets and the task for `Thread` targets.
    fn context_mut(&mut self, kind: PmuKind, target: Target) -> &mut Vec<EventFd> {
        match (kind, target) {
            (PmuKind::Rapl | PmuKind::Uncore, _) => &mut self.package_events,
            (_, Target::Cpu(c) | Target::ThreadOnCpu(_, c)) => &mut self.cpu_perf[c.0].context,
            (_, Target::Thread(p)) => {
                let i = p.0 as usize;
                if self.task_events.len() <= i {
                    self.task_events.resize_with(i + 1, Vec::new);
                }
                &mut self.task_events[i]
            }
        }
    }

    fn event(&self, fd: EventFd) -> Result<&PerfEvent, PerfError> {
        self.events
            .get(fd.0 as usize)
            .and_then(|e| e.as_ref())
            .ok_or(PerfError::BadFd)
    }

    fn event_mut(&mut self, fd: EventFd) -> Result<&mut PerfEvent, PerfError> {
        self.events
            .get_mut(fd.0 as usize)
            .and_then(|e| e.as_mut())
            .ok_or(PerfError::BadFd)
    }

    /// `ioctl(PERF_EVENT_IOC_ENABLE)`; with `group`, applies to the whole
    /// group led by `fd`.
    pub fn ioctl_enable(&mut self, fd: EventFd, group: bool) -> Result<(), PerfError> {
        self.charge(LAT_IOCTL_NS);
        self.stats.ioctls += 1;
        for f in self.group_fds(fd, group)? {
            self.event_mut(f)?.enabled = true;
        }
        self.perf_gen += 1;
        Ok(())
    }

    /// `ioctl(PERF_EVENT_IOC_DISABLE)`.
    pub fn ioctl_disable(&mut self, fd: EventFd, group: bool) -> Result<(), PerfError> {
        self.charge(LAT_IOCTL_NS);
        self.stats.ioctls += 1;
        for f in self.group_fds(fd, group)? {
            self.event_mut(f)?.enabled = false;
        }
        self.perf_gen += 1;
        Ok(())
    }

    /// `ioctl(PERF_EVENT_IOC_RESET)`: zero counts (not times).
    pub fn ioctl_reset(&mut self, fd: EventFd, group: bool) -> Result<(), PerfError> {
        self.charge(LAT_IOCTL_NS);
        self.stats.ioctls += 1;
        for f in self.group_fds(fd, group)? {
            let e = self.event_mut(f)?;
            e.count = 0;
            e.sample_accum = 0;
        }
        Ok(())
    }

    fn group_fds(&self, fd: EventFd, group: bool) -> Result<Vec<EventFd>, PerfError> {
        let e = self.event(fd)?;
        if group {
            let leader = self.event(e.leader)?;
            Ok(leader.group.clone())
        } else {
            Ok(vec![fd])
        }
    }

    /// `read(2)` on an event fd — carries syscall latency.
    pub fn read_event(&mut self, fd: EventFd) -> Result<ReadValue, PerfError> {
        self.charge(LAT_READ_NS);
        self.stats.reads += 1;
        if let Some(errno) = self.faults.as_mut().and_then(|f| f.take_read_failure()) {
            return Err(errno.to_perf_error());
        }
        Ok(self.event(fd)?.read_value())
    }

    /// Group read (`PERF_FORMAT_GROUP`): one syscall returns every member.
    pub fn read_group(&mut self, fd: EventFd) -> Result<Vec<ReadValue>, PerfError> {
        self.charge(LAT_READ_NS);
        self.stats.reads += 1;
        if let Some(errno) = self.faults.as_mut().and_then(|f| f.take_read_failure()) {
            return Err(errno.to_perf_error());
        }
        let leader_fd = self.event(fd)?.leader;
        let leader = self.event(leader_fd)?;
        leader
            .group
            .clone()
            .into_iter()
            .map(|f| self.event(f).map(|e| e.read_value()))
            .collect()
    }

    /// Whether `fd` currently holds a hardware counter somewhere. The
    /// per-CPU schedules are recomputed lazily (at the next tick), so also
    /// require the event's context to still be live on that CPU.
    fn is_scheduled(&self, fd: EventFd) -> bool {
        let Some(target) = self.event(fd).ok().map(|e| e.target) else {
            return false;
        };
        let running_on = |p: Pid, c: usize| -> bool {
            self.current[c] == Some(p) && matches!(self.task_state(p), Some(TaskState::Running(_)))
        };
        match target {
            Target::Cpu(c) => self.cpu_perf[c.0].scheduled.contains(&fd),
            Target::ThreadOnCpu(p, c) => {
                self.cpu_perf[c.0].scheduled.contains(&fd) && running_on(p, c.0)
            }
            Target::Thread(p) => self
                .cpu_perf
                .iter()
                .enumerate()
                .any(|(ci, s)| s.scheduled.contains(&fd) && running_on(p, ci)),
        }
    }

    /// Whether `leader`'s group could hold all its counters *at once* on
    /// its PMU, given counters the kernel has claimed for itself (NMI
    /// watchdog theft). `false` means the group as constituted will never
    /// be co-scheduled — the measurement library's cue to fall back to
    /// multiplexed single-event groups instead of reading zeros forever.
    /// Non-core PMUs (RAPL, uncore, software) have no counter contention
    /// and always report `true`.
    pub fn group_schedulable(&self, leader: EventFd) -> Result<bool, PerfError> {
        let ev = self
            .events
            .get(leader.0 as usize)
            .and_then(|e| e.as_ref())
            .ok_or(PerfError::BadFd)?;
        let Some(pmu) = self
            .pmus
            .iter()
            .find(|p| p.id == ev.attr.pmu_type && p.kind == PmuKind::CoreHw)
        else {
            return Ok(true);
        };
        let Some(arch) = pmu.uarch else {
            return Ok(false);
        };
        let req = GroupReq {
            leader: ev.fd,
            events: ev
                .group
                .iter()
                .filter_map(|f| self.events[f.0 as usize].as_ref())
                .filter_map(|e| match e.attr.config {
                    EventConfig::Hw(a) => Some(a),
                    _ => None,
                })
                .collect(),
            pinned: false,
        };
        let stolen: Vec<ArchEvent> = self
            .faults
            .as_ref()
            .map(|f| f.watchdog_stolen.clone())
            .unwrap_or_default();
        Ok(schedule_groups_with(arch.params(), &[req], &stolen)[0])
    }

    /// Snapshot the event's mmap'd userpage (`perf_event_mmap_page`): the
    /// real mechanism behind rdpmc. `index == 0` in the result means the
    /// fast path is unavailable *right now* — multiplexed out, wrong core
    /// type, or the target is not running — and the reader must fall back
    /// to the `read()` syscall. This is the §V.5 interaction the paper
    /// flags for hybrid EventSets. A drawn wrap bias shows here and
    /// nowhere else: in the page's wrapped hardware bits, which
    /// [`crate::perf::UserPage::rdpmc`] sign-extends from `pmc_width`.
    pub fn mmap_userpage(&mut self, fd: EventFd) -> Result<crate::perf::UserPage, PerfError> {
        self.charge(LAT_RDPMC_NS);
        self.stats.rdpmc_reads += 1;
        let scheduled = self.is_scheduled(fd);
        let e = self.event(fd)?;
        // Counting-mode hardware events only.
        let on_hw =
            scheduled && e.kind == PmuKind::CoreHw && e.enabled && e.attr.sample_period == 0;
        // Always an even snapshot.
        Ok(e.userpage(on_hw, (self.perf_gen as u32) << 1))
    }

    /// Read an event's recorded samples (sampling mode).
    pub fn event_samples(&self, fd: EventFd) -> Result<&crate::perf::SampleRing, PerfError> {
        Ok(&self.event(fd)?.samples)
    }

    /// `close(2)`: release the fd. Closing a leader closes the group.
    pub fn close_event(&mut self, fd: EventFd) -> Result<(), PerfError> {
        self.charge(LAT_CLOSE_NS);
        self.stats.closes += 1;
        let e = self.event(fd)?;
        // A group shares one PMU and one target, so one context.
        let (kind, target, leader) = (e.kind, e.target, e.leader);
        let closed = if e.is_leader() {
            self.group_fds(fd, true)?
        } else {
            vec![fd]
        };
        for f in &closed {
            self.events[f.0 as usize] = None;
        }
        if let Some(l) = self.events[leader.0 as usize].as_mut() {
            l.group.retain(|f| !closed.contains(f));
        }
        self.context_mut(kind, target)
            .retain(|f| !closed.contains(f));
        self.perf_gen += 1;
        // Drop stale hardware schedules.
        for st in &mut self.cpu_perf {
            st.scheduled.retain(|f| {
                self.events
                    .get(f.0 as usize)
                    .map(|e| e.is_some())
                    .unwrap_or(false)
            });
        }
        Ok(())
    }

    fn charge(&mut self, ns: u64) {
        self.stats.total_latency_ns += ns;
    }

    // ---- the tick ------------------------------------------------------------

    /// Thermal inputs for the scheduler's [`HwView`]: per-core-type
    /// frequency caps (indexed by [`core_type_index`]), package
    /// temperature (milli-°C) and the throttling latch.
    fn thermal_snapshot(&self) -> ([u64; 4], i64, bool) {
        use simcpu::types::CoreType as Ct;
        let th = self.machine.thermal();
        let caps = [
            th.freq_cap_khz(Ct::Performance),
            th.freq_cap_khz(Ct::Efficiency),
            th.freq_cap_khz(Ct::Mid),
            th.freq_cap_khz(Ct::Uniform),
        ];
        (caps, th.temp_mc(), th.throttling())
    }

    /// Advance the world by one tick.
    pub fn tick(&mut self) {
        let dt = self.cfg.tick_ns;
        let tick_idx = self.tick_count;
        self.trace
            .record(self.time_ns, EventKind::TickBegin, 0, tick_idx, 0);

        // 0. Fire due faults (hotplug, watchdog theft, bursts) before the
        //    scheduler looks at the world.
        self.apply_due_faults();

        // 1. Scheduling (keeping the previous assignment for context-switch
        //    and migration accounting): drive the pluggable policy's hooks
        //    through the shared pass mechanics.
        self.scratch.prev_current.clear();
        self.scratch.prev_current.extend_from_slice(&self.current);
        for ci in 0..self.sched_freq.len() {
            self.sched_freq[ci] = self.machine.freq_khz(simcpu::types::CpuId(ci));
        }
        let (thermal_cap_khz, temp_mc, throttling) = self.thermal_snapshot();
        let hw = HwView {
            freq_khz: &self.sched_freq,
            max_khz: &self.sched_max_khz,
            thermal_cap_khz,
            temp_mc,
            first_trip_mc: self.first_trip_mc,
            throttling,
        };
        self.sched_pass.run(
            &mut *self.scheduler,
            &self.topo,
            &self.online,
            &self.core_types,
            &hw,
            &mut self.tasks,
            &mut self.current,
            self.time_ns,
            &mut self.trace,
        );

        // 2. Execute each CPU into its indexed scratch slot.
        self.exec_cores(dt);

        // 3. Perf accounting.
        self.perf_tick(dt);

        // 4. Barrier releases.
        let released: Vec<Pid> = self
            .barriers
            .values_mut()
            .filter(|b| b.expected > 0 && b.waiting.len() as u32 >= b.expected)
            .flat_map(|b| std::mem::take(&mut b.waiting))
            .collect();
        for pid in released {
            if let Some(t) = self.tasks[pid.0 as usize].as_mut() {
                t.state = TaskState::Runnable;
            }
        }

        // 5. Hardware tick, then package-level perf accounting (RAPL
        //    energy integrates in end_tick, so the perf counters must read
        //    *after* it — otherwise short measurement windows lag a tick).
        let mem_bytes: f64 = self.scratch.loads.iter().map(|l| l.mem_bytes).sum();
        self.machine.end_tick(dt, &self.scratch.loads);
        self.perf_package_tick(dt, mem_bytes);
        self.time_ns += dt;
        self.tick_count += 1;
        self.trace
            .record(self.time_ns, EventKind::TickEnd, 0, tick_idx, 0);
    }

    /// Advance the world by `n` ticks: `n` calls to [`Kernel::tick`].
    pub fn tick_batch(&mut self, n: u64) {
        for _ in 0..n {
            self.tick();
        }
    }

    /// Plan-cache statistics summed over every seat: `(hits, misses)`.
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        self.machine
            .seats()
            .iter()
            .map(|s| s.plan.stats())
            .fold((0, 0), |(h, m), (sh, sm)| (h + sh, m + sm))
    }

    /// `(0, total_ticks)`: every tick runs through [`Kernel::tick`], so
    /// none is fast-forwarded as a whole. Kept only because the benchmark
    /// in `perfbench/src/report.rs` calls it; remove it once that
    /// benchmark stops calling it.
    pub fn macro_stats(&self) -> (u64, u64) {
        (0, self.tick_count)
    }

    /// Stage [`CoreWork`] for `cpu` if a task is scheduled there.
    fn stage_core(&self, cpu_idx: usize) -> Option<CoreWork> {
        let pid = self.current[cpu_idx]?;
        let cpu = CpuId(cpu_idx);
        let smt_busy = self
            .machine
            .cpu_info(cpu)
            .smt_sibling
            .map(|s| self.current[s.0].is_some())
            .unwrap_or(false);
        Some(CoreWork {
            pid,
            cpu,
            prev: self.scratch.prev_current[cpu_idx],
            ctx: self.machine.exec_context(cpu, smt_busy),
            plan_epoch: self.fault_epoch,
            #[cfg(test)]
            uncached: self.uncached,
        })
    }

    /// Execute one CPU after another, in index order, on the calling
    /// thread, merging each core's outputs — its `CtrlOp` included — into
    /// the shared kernel state in that order.
    fn exec_cores(&mut self, dt: Nanos) {
        let now = self.time_ns;
        for cpu_idx in 0..self.machine.n_cpus() {
            let Some(work) = self.stage_core(cpu_idx) else {
                // An idle CPU has no template to keep.
                self.scratch.outs[cpu_idx] = CoreOut::default();
                self.scratch.loads[cpu_idx] = CpuLoad::default();
                continue;
            };
            let pid = work.pid;
            let out = &mut self.scratch.outs[cpu_idx];
            exec_core(
                dt,
                now,
                &work,
                &self.core_types,
                self.tasks[pid.0 as usize]
                    .as_mut()
                    .expect("scheduled pid has a task"),
                &mut self.machine.seats_mut()[cpu_idx],
                out,
            );
            self.scratch.loads[cpu_idx] = out.load;
            let (migrated, ctrl) = (out.sw.migrated, out.ctrl);
            if migrated {
                self.trace.record(
                    self.time_ns,
                    EventKind::SchedMigrate,
                    cpu_idx as u32,
                    pid.0 as u64,
                    0,
                );
            }
            match ctrl {
                Some(CtrlOp::Barrier(id)) => {
                    self.barriers.entry(id).or_default().waiting.push(pid);
                }
                Some(CtrlOp::Hook(h)) => self.pending_hooks.push((pid, h)),
                None => {}
            }
        }
    }

    /// Package-scope perf events: RAPL energy and uncore traffic.
    fn perf_package_tick(&mut self, dt: Nanos, mem_bytes: f64) {
        // RAPL domain deltas (µJ) once per tick, post-integration.
        let rapl_now = [
            self.machine.rapl().energy_total_uj(RaplDomain::Package),
            self.machine.rapl().energy_total_uj(RaplDomain::Cores),
            self.machine.rapl().energy_total_uj(RaplDomain::Dram),
            self.machine.rapl().energy_total_uj(RaplDomain::Psys),
        ];
        let mut rapl_delta = [0u64; 4];
        for (d, (now, prev)) in rapl_delta
            .iter_mut()
            .zip(rapl_now.iter().zip(self.rapl_prev_uj.iter()))
        {
            *d = (now - prev).max(0.0) as u64;
        }
        self.rapl_prev_uj = rapl_now;

        // Package-wide uncore deltas.
        let mut llc_lookups = 0u64;
        let mut llc_misses = 0u64;
        for out in &self.scratch.outs {
            llc_lookups += out.delta.get(ArchEvent::LlcAccesses);
            llc_misses += out.delta.get(ArchEvent::LlcMisses);
        }
        // DRAM traffic splits ~2:1 reads:writes for the modeled
        // workloads; one CAS moves 64 bytes.
        let cas_total = (mem_bytes / 64.0) as u64;

        let time_ns = self.time_ns;
        for &fd in &self.package_events {
            let Some(ev) = self.events[fd.0 as usize].as_mut() else {
                continue;
            };
            if !ev.enabled {
                continue;
            }
            ev.time_enabled += dt;
            ev.time_matched += dt;
            ev.time_running += dt;
            let d = match ev.attr.config {
                EventConfig::Rapl(RaplConfig::EnergyPkg) => rapl_delta[0],
                EventConfig::Rapl(RaplConfig::EnergyCores) => rapl_delta[1],
                EventConfig::Rapl(RaplConfig::EnergyRam) => rapl_delta[2],
                EventConfig::Rapl(RaplConfig::EnergyPsys) => rapl_delta[3],
                EventConfig::Uncore(UncoreConfig::LlcLookups) => llc_lookups,
                EventConfig::Uncore(UncoreConfig::LlcMisses) => llc_misses,
                EventConfig::Uncore(UncoreConfig::ImcCasReads) => cas_total * 2 / 3,
                EventConfig::Uncore(UncoreConfig::ImcCasWrites) => cas_total / 3,
                _ => 0,
            };
            ev.add_count(d, time_ns, CpuId(0));
        }
    }

    /// Per-CPU perf bookkeeping for one tick: each online CPU's context
    /// and its running task's context, counted from this tick's per-core
    /// outputs.
    fn perf_tick(&mut self, dt: Nanos) {
        for ci in 0..self.cpu_perf.len() {
            // An offline CPU's perf contexts freeze entirely: neither
            // time_enabled nor time_running advances, exactly like a
            // hot-unplugged CPU's events on Linux. Thread events are
            // untouched — they tick on whichever CPU the thread moved to.
            if !self.online[ci] {
                continue;
            }
            let cpu = CpuId(ci);
            let running = self.current[ci];
            let st = &self.cpu_perf[ci];
            if st.for_task != running
                || st.at_gen != self.perf_gen
                || self.time_ns >= st.next_rotate_ns
            {
                self.reschedule_cpu(cpu, running);
            }

            let st = &self.cpu_perf[ci];
            let pmu_of_cpu = st.core_pmu.map(|i| self.pmus[i].id);
            let out = &self.scratch.outs[ci];
            let task = task_context(&self.task_events, running);
            for &fd in st.context.iter().chain(task) {
                let Some(ev) = self.events[fd.0 as usize].as_mut() else {
                    continue;
                };
                if !ev.enabled {
                    continue;
                }
                // time_enabled advances whenever the context is active:
                // the CPU ticked, or the thread ran here.
                let active_ns = match ev.target {
                    Target::Cpu(_) => dt,
                    Target::Thread(_) => out.run_ns,
                    Target::ThreadOnCpu(p, _) if running == Some(p) => out.run_ns,
                    Target::ThreadOnCpu(..) => continue,
                };
                match ev.kind {
                    PmuKind::CoreHw => {
                        if active_ns == 0 {
                            continue;
                        }
                        ev.time_enabled += active_ns;
                        if Some(ev.attr.pmu_type) == pmu_of_cpu {
                            // Countable in principle (right core type);
                            // `matched − running` is then pure counter
                            // loss (multiplexing, watchdog theft).
                            ev.time_matched += active_ns;
                            if st.scheduled.contains(&fd) {
                                ev.time_running += active_ns;
                                if let EventConfig::Hw(arch) = ev.attr.config {
                                    let d = out.delta.get(arch);
                                    if d > 0 {
                                        ev.add_count(d, self.time_ns, cpu);
                                    }
                                }
                            }
                        }
                    }
                    PmuKind::Software => {
                        ev.time_enabled += active_ns;
                        ev.time_matched += active_ns;
                        ev.time_running += active_ns;
                        let delta = match ev.attr.config {
                            EventConfig::SwTaskClock => active_ns,
                            EventConfig::SwContextSwitches => out.sw.switched_in as u64,
                            EventConfig::SwCpuMigrations => out.sw.migrated as u64,
                            EventConfig::SwPageFaults => out.sw.page_faults,
                            _ => 0,
                        };
                        if delta > 0 {
                            ev.add_count(delta, self.time_ns, cpu);
                        }
                    }
                    // RAPL/uncore live in the package context.
                    PmuKind::Rapl | PmuKind::Uncore => {}
                }
            }
        }
    }

    /// Recompute which events hold hardware counters on `cpu`.
    fn reschedule_cpu(&mut self, cpu: CpuId, running: Option<Pid>) {
        let st = &self.cpu_perf[cpu.0];
        let Some(pmu) = st.core_pmu.map(|i| &self.pmus[i]) else {
            return;
        };
        // A core PMU without a uarch is a registration bug; degrade to
        // "nothing schedulable" rather than panicking mid-tick.
        let Some(arch) = pmu.uarch else {
            self.cpu_perf[cpu.0].scheduled.clear();
            return;
        };
        let uarch = arch.params();
        let pmu_id = pmu.id;

        // Same task, same events: only the rotation is due. If the last
        // fit gave every candidate group its counters, so would a fit in
        // rotated order — `schedule_groups_with` spends the same number
        // of GP counters on a set of groups in any order, and
        // `scheduled` is only used as a set — so only the clock moves.
        if st.for_task == running && st.at_gen == self.perf_gen && !st.rotate_necessary {
            self.cpu_perf[cpu.0].advance_rotation(self.time_ns, MUX_INTERVAL_NS);
            return;
        }

        // Candidate groups: leaders of enabled hw events on this CPU's
        // PMU whose context is live here — the CPU's own context and the
        // running task's. Pinned (cpu-target) groups first.
        let task = task_context(&self.task_events, running);
        let mut cands: Vec<(bool, EventFd)> = Vec::new();
        for &fd in st.context.iter().chain(task) {
            let Some(ev) = self.events[fd.0 as usize].as_ref() else {
                continue;
            };
            if !ev.is_leader() || ev.attr.pmu_type != pmu_id {
                continue;
            }
            if let Target::ThreadOnCpu(p, _) = ev.target {
                if running != Some(p) {
                    continue;
                }
            }
            let group_enabled = ev
                .group
                .iter()
                .any(|f| self.events[f.0 as usize].as_ref().map(|e| e.enabled) == Some(true));
            if group_enabled {
                let pinned = matches!(ev.target, Target::Cpu(_)) || ev.attr.pinned;
                cands.push((pinned, fd));
            }
        }
        // Nothing wants a counter here (the common case on CPUs without
        // open events): skip the group-fitting machinery — and its
        // allocations — but keep the rotation clock and programming stamp
        // exactly as the full path would have left them.
        if cands.is_empty() {
            let st = &mut self.cpu_perf[cpu.0];
            st.scheduled.clear();
            st.advance_rotation(self.time_ns, MUX_INTERVAL_NS);
            st.for_task = running;
            st.at_gen = self.perf_gen;
            st.rotate_necessary = false;
            return;
        }

        // Pinned first; rotate the rest.
        cands.sort_by_key(|(pinned, fd)| (!pinned, fd.0));
        let st = &mut self.cpu_perf[cpu.0];
        let n_unpinned = cands.iter().filter(|(p, _)| !p).count();
        if n_unpinned > 1 {
            let first_unpinned = cands.iter().position(|(p, _)| !p).unwrap();
            let rot = st.rotation % n_unpinned;
            cands[first_unpinned..].rotate_left(rot);
        }
        st.advance_rotation(self.time_ns, MUX_INTERVAL_NS);

        let reqs: Vec<GroupReq> = cands
            .iter()
            .filter_map(|(pinned, fd)| {
                let leader = self.events[fd.0 as usize].as_ref()?;
                Some(GroupReq {
                    leader: *fd,
                    events: leader
                        .group
                        .iter()
                        .filter_map(|f| self.events[f.0 as usize].as_ref())
                        .filter_map(|e| match e.attr.config {
                            EventConfig::Hw(a) => Some(a),
                            _ => None,
                        })
                        .collect(),
                    pinned: *pinned,
                })
            })
            .collect();
        // Fixed counters the NMI watchdog holds are off the table.
        let stolen: Vec<ArchEvent> = self
            .faults
            .as_ref()
            .map(|f| f.watchdog_stolen.clone())
            .unwrap_or_default();
        let fit = schedule_groups_with(uarch, &reqs, &stolen);
        let mut scheduled = Vec::new();
        for (req, &ok) in reqs.iter().zip(&fit) {
            if ok {
                if let Some(leader) = self.events[req.leader.0 as usize].as_ref() {
                    scheduled.extend(leader.group.iter().copied());
                }
            }
        }
        let st = &mut self.cpu_perf[cpu.0];
        st.scheduled = scheduled;
        st.for_task = running;
        st.at_gen = self.perf_gen;
        st.rotate_necessary = fit.contains(&false);
    }

    // ---- run helpers -----------------------------------------------------------

    /// Tick until every task has exited or `max_ns` elapses. Panics if
    /// an instrumentation hook fires (use [`run_with_hooks`]).
    pub fn run_to_completion(&mut self, max_ns: Nanos) {
        let deadline = self.time_ns + max_ns;
        while !self.all_exited() && self.time_ns < deadline {
            self.tick();
            assert!(
                self.pending_hooks.is_empty(),
                "instrumentation hook fired without a handler; use run_with_hooks"
            );
        }
    }

    /// Fast-forward the package temperature to `temp_c` (the telemetry
    /// driver's "wait for thermal settle" shortcut).
    pub fn settle_temperature(&mut self, temp_c: f64) {
        self.machine.thermal_mut().set_temp_c(temp_c);
    }
}

/// The running task's perf context (empty when the CPU is idle or the
/// task never had an event opened on it).
fn task_context(task_events: &[Vec<EventFd>], running: Option<Pid>) -> &[EventFd] {
    running
        .and_then(|p| task_events.get(p.0 as usize))
        .map_or(&[], Vec::as_slice)
}

/// Execute one core's tick: drive the task's program through the
/// cycle-batch engine for up to one tick's worth of cycles, accounting
/// context switches, migrations, stats and PMU counts.
///
/// `out` holds this CPU's outputs from the last tick it ran. When those
/// were a steady template of the same task and this tick's plan lookup
/// proves the context unchanged, they are this tick's outputs too and are
/// only re-applied (DESIGN.md §9, per-CPU template replay).
///
/// This touches only the task, this core's seat and the output slot; every
/// shared side effect goes back to the kernel as a [`CtrlOp`].
fn exec_core(
    dt: Nanos,
    now: Nanos,
    work: &CoreWork,
    core_types: &[CoreType],
    task: &mut Task,
    seat: &mut CoreSeat,
    out: &mut CoreOut,
) {
    let cpu = work.cpu;
    let ctx = &work.ctx;
    let cycles_avail = ctx.freq_khz as f64 * 1e3 * dt as f64 / 1e9;

    let core_type = core_types[cpu.0];
    let ct_idx = core_type_index(core_type);
    seat.plan.set_epoch(work.plan_epoch);
    #[cfg(test)]
    let uncached = work.uncached;
    #[cfg(not(test))]
    let uncached = false;
    // Plan-cache deltas are recorded into the seat's own sink, which
    // costs one branch when tracing is off.
    let plan_stats0 = if seat.trace.enabled() {
        Some(seat.plan.stats())
    } else {
        None
    };
    let switched_in = work.prev != Some(work.pid);

    // The seat-cache plan of `task.current`, looked up once per installed
    // phase (and once for a phase carried into the tick): the phase shape
    // and `ctx` stay fixed until the phase completes, and a re-installed
    // spin chunk keeps its predecessor's.
    let mut plan: Option<PlanId> = None;
    // Per-CPU template replay. Last tick on this CPU was a steady template
    // of this same task, and the carried phase has more than one tick of
    // instructions left, so the end-of-phase clamp cannot engage. The
    // lookup is the one the first slice would make; a hit on the
    // template's own id proves the phase shape and every context input
    // equal to the template's (nothing else looks up on this seat, and a
    // fault-epoch change empties it), and with them every slice.
    let template = out
        .plan
        .filter(|_| out.steady && !switched_in && cycles_avail >= 1.0);
    if let (Some(template), Some(ph)) = (template, task.current.as_ref()) {
        if ph.instructions > out.inst_total {
            let (id, hit) = seat.plan.lookup(ph, ctx);
            if hit && id == template {
                apply_template(task, out, ct_idx);
                #[cfg(test)]
                {
                    out.slices = 0;
                }
                record_plan_stats(seat, now, cpu, plan_stats0);
                return;
            }
            plan = Some(id);
        }
    }

    *out = CoreOut::default();
    // Context-switch and migration accounting.
    let mut migrated = false;
    if let Some(last) = task.last_cpu {
        if last != cpu {
            task.stats.migrations += 1;
            migrated = true;
            if core_types[last.0] != core_type {
                task.stats.core_type_migrations += 1;
            }
        }
    }
    task.last_cpu = Some(cpu);
    out.sw = SwDelta {
        switched_in,
        migrated,
        page_faults: 0,
    };
    // A tick is a replayable steady template only if the task entered it
    // mid-phase and left it mid-phase with nothing but plain `advance`
    // calls in between (no op pull, no completion, no control op, no
    // context switch): exactly those ticks are input-identical to the
    // next one modulo the shrinking instruction count.
    out.steady = !switched_in && task.current.is_some();
    // The program's last `Op::Spin` phase. Until this call returns no
    // other task runs and `now` stands still, so polling again would give
    // the same answer: each finished chunk is re-installed instead.
    let mut spin: Option<Phase> = None;
    let mut sums = TickSums::default();
    let mut pressure = 0.0;

    loop {
        let budget = cycles_avail - sums.used;
        if budget < 1.0 {
            break;
        }
        // Ensure there is a current phase.
        if task.current.is_none() {
            out.steady = false;
            let op = if let Some(op) = task.injected.pop_front() {
                op
            } else if let Some(ph) = &spin {
                Op::Spin(ph.clone())
            } else {
                let op = task.program.next(&ProgCtx {
                    pid: work.pid,
                    time_ns: now,
                    cpu,
                });
                // A zero-instruction spin installs nothing and must poll
                // again, like `Compute`; the oracle polls after every chunk.
                if let Op::Spin(ph) = &op {
                    if ph.instructions > 0 && !uncached {
                        spin = Some(ph.clone());
                    }
                }
                op
            };
            match op {
                Op::Compute(ph) | Op::Spin(ph) => {
                    debug_assert!(ph.validate().is_ok(), "invalid phase from program");
                    if ph.instructions > 0 {
                        // First-touch minor faults: pages of this phase's
                        // working set beyond the task's address-space
                        // high-water mark fault in now. Charged at phase
                        // install (an op-pull tick, never a steady
                        // template), so replay stays fault-exact for free.
                        let pages = ph.working_set.div_ceil(PAGE_BYTES);
                        if pages > task.touched_pages {
                            let faulted = pages - task.touched_pages;
                            task.touched_pages = pages;
                            task.stats.page_faults += faulted;
                            out.sw.page_faults += faulted;
                        }
                        task.current = Some(ph);
                    }
                    continue;
                }
                Op::Barrier(id) => {
                    task.state = TaskState::Blocked(BlockReason::Barrier(id));
                    out.ctrl = Some(CtrlOp::Barrier(id));
                    break;
                }
                Op::Call(h) => {
                    task.state = TaskState::Blocked(BlockReason::Hook(h));
                    out.ctrl = Some(CtrlOp::Hook(h));
                    break;
                }
                Op::Sleep(d) => {
                    task.state = TaskState::Blocked(BlockReason::SleepUntil(now + d));
                    break;
                }
                Op::Exit => {
                    task.state = TaskState::Exited;
                    break;
                }
            }
        }
        // Advance the current phase.
        let ph = task.current.as_mut().unwrap();
        let res = if uncached {
            exec::advance(ph, budget, ctx)
        } else {
            let id = *plan.get_or_insert_with(|| seat.plan.plan(ph, ctx));
            exec::advance_with_plan(ph, budget, ctx, &mut seat.plan, id)
        };
        #[cfg(test)]
        {
            out.slices += 1;
        }
        if res.instructions == 0 {
            // Cannot fit even one instruction in the leftover budget:
            // burn it (partial-cycle stall).
            sums.used = cycles_avail;
            break;
        }
        ph.instructions -= res.instructions;
        let phase_done = ph.instructions == 0;
        let vec_frac = ph.vector_frac;
        if phase_done {
            task.current = None;
            // After a spin chunk only its re-install can follow, with the
            // same shape: the plan stays held.
            if spin.is_none() {
                plan = None;
            }
            out.steady = false;
        }
        sums.account(task, out, ct_idx, &res, vec_frac, 1);
        if let Some(cur) = task.current.as_ref() {
            pressure = match plan {
                Some(id) => seat.plan.pressure(id),
                None => exec::llc_pressure(cur, ctx.uarch, ctx.llc_share_bytes),
            };
            continue;
        }
        // A whole spin chunk just retired in one slice: every further
        // chunk the budget fits whole is re-installed and sliced to this
        // same result, so apply it once per such chunk in closed form and
        // leave only the last, partial chunk to the engine.
        if let (Some(chunk), Some(id)) = (&spin, plan) {
            if res.instructions == chunk.instructions {
                let (mut n, mut used) = (0, sums.used);
                while cycles_avail - used >= 1.0
                    && exec::retires_whole(cycles_avail - used, &seat.plan, id, chunk.instructions)
                {
                    used += res.cycles as f64;
                    n += 1;
                }
                if n > 0 {
                    sums.account(task, out, ct_idx, &res, vec_frac, n);
                }
            }
        }
    }
    if out.ctrl.is_some() || task.current.is_none() {
        out.steady = false;
    }

    let used = sums.used;
    let util = (used / cycles_avail).clamp(0.0, 1.0);
    let ran_ns = (dt as f64 * util) as u64;
    task.stats.runtime_ns += ran_ns;
    task.stats.runtime_ns_by_type[ct_idx] += ran_ns;
    task.charge_vruntime(ran_ns);
    out.run_ns = ran_ns;
    out.load = CpuLoad {
        util,
        activity: if used > 0.0 {
            sums.act_cycles / used
        } else {
            0.0
        },
        mem_bytes: sums.mem_bytes,
        llc_pressure: pressure,
    };
    out.delta = sums.events;
    out.plan = plan;
    record_plan_stats(seat, now, cpu, plan_stats0);
}

/// Record this tick's plan-cache hits and misses on the seat's track,
/// given the seat's `(hits, misses)` before the tick (taken only when
/// tracing is on).
fn record_plan_stats(seat: &mut CoreSeat, now: Nanos, cpu: CpuId, before: Option<(u64, u64)>) {
    let Some((h0, m0)) = before else {
        return;
    };
    let (h1, m1) = seat.plan.stats();
    if h1 > h0 {
        seat.trace
            .record(now, EventKind::PlanHit, cpu.0 as u32, h1 - h0, 0);
    }
    if m1 > m0 {
        seat.trace
            .record(now, EventKind::PlanMiss, cpu.0 as u32, m1 - m0, 0);
    }
}

/// Drive a kernel handle, dispatching instrumentation hooks to `handler`,
/// until task `watched` has exited (other tasks may outlive it) or
/// `max_ns` elapses. The handler may issue PAPI-style syscalls through
/// the same handle; the hooked task stays parked until `handler` returns,
/// after which it is resumed automatically.
pub fn run_with_hooks(
    handle: &KernelHandle,
    watched: Pid,
    max_ns: Nanos,
    mut handler: impl FnMut(&KernelHandle, Pid, HookId),
) {
    let deadline = {
        let k = handle.lock();
        k.time_ns() + max_ns
    };
    loop {
        let hooks = {
            let mut k = handle.lock();
            let watched_done = k.task_state(watched).is_none_or(|s| s == TaskState::Exited);
            if watched_done || k.time_ns() >= deadline {
                return;
            }
            k.tick();
            k.take_pending_hooks()
        };
        for (pid, hook) in hooks {
            handler(handle, pid, hook);
            // The handler may legitimately have resumed (or exited) the
            // task itself; a failed resume here is not an error.
            let _ = handle.lock().resume(pid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::ScriptedProgram;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    fn raptor() -> Kernel {
        Kernel::boot(MachineSpec::raptor_lake_i7_13700(), KernelConfig::default())
    }

    fn orangepi() -> Kernel {
        Kernel::boot(MachineSpec::orangepi_800(), KernelConfig::default())
    }

    #[test]
    fn pmu_registry_hybrid_intel() {
        let k = raptor();
        let names: Vec<&str> = k.pmus().iter().map(|p| p.name.as_str()).collect();
        assert!(names.contains(&"cpu_core"));
        assert!(names.contains(&"cpu_atom"));
        assert!(names.contains(&"power"));
        assert!(names.contains(&"uncore_llc"));
        let core = k.pmu_by_name("cpu_core").unwrap();
        let atom = k.pmu_by_name("cpu_atom").unwrap();
        assert_ne!(core.id, atom.id);
        assert_eq!(core.cpus.to_cpulist(), "0-15");
        assert_eq!(atom.cpus.to_cpulist(), "16-23");
    }

    #[test]
    fn pmu_registry_homogeneous_is_plain_cpu() {
        let k = Kernel::boot(MachineSpec::skylake_quad(), KernelConfig::default());
        assert!(k.pmu_by_name("cpu").is_some());
        assert!(k.pmu_by_name("cpu_core").is_none());
    }

    #[test]
    fn pmu_registry_arm_firmware_naming() {
        let dt = orangepi();
        assert!(dt.pmu_by_name("armv8_cortex_a72").is_some());
        assert!(dt.pmu_by_name("armv8_cortex_a53").is_some());
        let acpi = Kernel::boot(
            MachineSpec::orangepi_800(),
            KernelConfig {
                firmware: Firmware::Acpi,
                ..Default::default()
            },
        );
        assert!(acpi.pmu_by_name("armv8_pmuv3_0").is_some());
        assert!(acpi.pmu_by_name("armv8_cortex_a72").is_none());
    }

    #[test]
    fn cpuid_leaf_1a_distinguishes_core_types() {
        let k = raptor();
        let (p, ..) = k.cpuid(CpuId(0), 0x1a);
        let (e, ..) = k.cpuid(CpuId(16), 0x1a);
        assert_eq!(p >> 24, 0x40);
        assert_eq!(e >> 24, 0x20);
        // ARM has no cpuid.
        let a = orangepi();
        assert_eq!(a.cpuid(CpuId(0), 0x1a), (0, 0, 0, 0));
    }

    #[test]
    fn simple_task_runs_to_exit() {
        let mut k = raptor();
        let pid = k.spawn(
            "loop",
            Box::new(ScriptedProgram::new([
                Op::Compute(Phase::scalar(5_000_000)),
                Op::Exit,
            ])),
            CpuMask::first_n(24),
            0,
        );
        k.run_to_completion(1_000_000_000);
        assert!(k.all_exited());
        let st = k.task_stats(pid).unwrap();
        assert_eq!(st.instructions, 5_000_000);
        assert!(st.cycles > 0);
        assert!(st.runtime_ns > 0);
    }

    #[test]
    fn pinned_task_runs_only_there() {
        let mut k = raptor();
        let pid = k.spawn(
            "pinned",
            Box::new(ScriptedProgram::new([
                Op::Compute(Phase::scalar(3_000_000)),
                Op::Exit,
            ])),
            CpuMask::from_cpus([17]), // an E-core
            0,
        );
        k.run_to_completion(1_000_000_000);
        let st = k.task_stats(pid).unwrap();
        assert_eq!(st.instructions_by_type[1], 3_000_000); // Efficiency
        assert_eq!(st.instructions_by_type[0], 0);
        assert_eq!(st.migrations, 0);
    }

    #[test]
    fn barrier_synchronizes_two_tasks() {
        let mut k = raptor();
        k.register_barrier(1, 2);
        let fast = k.spawn(
            "fast",
            Box::new(ScriptedProgram::new([
                Op::Compute(Phase::scalar(1_000)),
                Op::Barrier(1),
                Op::Exit,
            ])),
            CpuMask::first_n(24),
            0,
        );
        let slow = k.spawn(
            "slow",
            Box::new(ScriptedProgram::new([
                Op::Compute(Phase::scalar(50_000_000)),
                Op::Barrier(1),
                Op::Exit,
            ])),
            CpuMask::first_n(24),
            0,
        );
        k.run_to_completion(10_000_000_000);
        assert!(k.all_exited());
        // The fast task must have waited: its total wall time is bounded by
        // the slow one's compute.
        assert!(k.task_stats(fast).unwrap().runtime_ns < k.task_stats(slow).unwrap().runtime_ns);
    }

    #[test]
    fn barrier_reusable_across_generations() {
        // HPL-style lockstep: the same barrier id synchronizes every
        // iteration; the kernel must reset it after each release.
        let mut k = raptor();
        k.register_barrier(9, 2);
        for _ in 0..2 {
            k.spawn(
                "iter",
                Box::new(ScriptedProgram::new([
                    Op::Compute(Phase::scalar(100_000)),
                    Op::Barrier(9),
                    Op::Compute(Phase::scalar(100_000)),
                    Op::Barrier(9),
                    Op::Compute(Phase::scalar(100_000)),
                    Op::Barrier(9),
                    Op::Exit,
                ])),
                CpuMask::first_n(24),
                0,
            );
        }
        k.run_to_completion(10_000_000_000);
        assert!(k.all_exited(), "three barrier generations must all release");
    }

    #[test]
    fn resume_requires_hooked_state() {
        let mut k = raptor();
        let pid = k.spawn(
            "w",
            Box::new(ScriptedProgram::new([
                Op::Compute(Phase::scalar(1_000)),
                Op::Exit,
            ])),
            CpuMask::first_n(24),
            0,
        );
        assert!(k.resume(pid).is_err(), "not parked in a hook");
        assert!(k.resume(Pid(99)).is_err(), "no such process");
    }

    #[test]
    #[should_panic(expected = "affinity selects no CPU")]
    fn spawn_rejects_empty_affinity() {
        let mut k = raptor();
        k.spawn("w", Box::new(ScriptedProgram::new([])), CpuMask::EMPTY, 0);
    }

    #[test]
    fn set_affinity_validates() {
        let mut k = raptor();
        let pid = k.spawn(
            "w",
            Box::new(ScriptedProgram::new([
                Op::Compute(Phase::scalar(1_000)),
                Op::Exit,
            ])),
            CpuMask::first_n(24),
            0,
        );
        assert!(k.set_affinity(pid, CpuMask::from_cpus([120])).is_err());
        assert!(k.set_affinity(Pid(99), CpuMask::first_n(1)).is_err());
        assert!(k.set_affinity(pid, CpuMask::from_cpus([5])).is_ok());
    }

    #[test]
    fn hooks_fire_and_resume() {
        let handle =
            Kernel::boot_handle(MachineSpec::raptor_lake_i7_13700(), KernelConfig::default());
        let pid = handle.lock().spawn(
            "instrumented",
            Box::new(ScriptedProgram::new([
                Op::Call(HookId(1)),
                Op::Compute(Phase::scalar(1_000_000)),
                Op::Call(HookId(2)),
                Op::Exit,
            ])),
            CpuMask::first_n(24),
            0,
        );
        let mut seen = Vec::new();
        run_with_hooks(&handle, pid, 1_000_000_000, |_, p, h| {
            assert_eq!(p, pid);
            seen.push(h.0);
        });
        assert_eq!(seen, vec![1, 2]);
        assert!(handle.lock().all_exited());
    }

    #[test]
    fn hooks_stop_when_the_watched_task_exits() {
        // A task that never exits on CPU 0 beside a short hooked task on
        // CPU 1: the run ends with the short one.
        let handle =
            Kernel::boot_handle(MachineSpec::raptor_lake_i7_13700(), KernelConfig::default());
        let forever = handle.lock().spawn(
            "forever",
            Box::new(|_: &ProgCtx| Op::Compute(Phase::scalar(1_000_000))),
            CpuMask::from_cpus([0]),
            0,
        );
        let short = handle.lock().spawn(
            "short",
            Box::new(ScriptedProgram::new([
                Op::Call(HookId(1)),
                Op::Compute(Phase::scalar(1_000_000)),
                Op::Call(HookId(2)),
                Op::Exit,
            ])),
            CpuMask::from_cpus([1]),
            0,
        );
        let mut seen = Vec::new();
        run_with_hooks(&handle, short, 10_000_000_000, |_, p, h| {
            assert_eq!(p, short);
            seen.push(h.0);
        });
        assert_eq!(seen, vec![1, 2]);
        let k = handle.lock();
        assert_eq!(k.task_state(short), Some(TaskState::Exited));
        assert_ne!(k.task_state(forever), Some(TaskState::Exited));
        assert!(
            k.time_ns() < 10_000_000,
            "returned at {} ns, not when the watched task exited",
            k.time_ns()
        );
    }

    #[test]
    fn sleep_delays_execution() {
        let mut k = raptor();
        let pid = k.spawn(
            "sleeper",
            Box::new(ScriptedProgram::new([
                Op::Sleep(50_000_000),
                Op::Compute(Phase::scalar(1_000)),
                Op::Exit,
            ])),
            CpuMask::first_n(24),
            0,
        );
        for _ in 0..10 {
            k.tick();
        }
        assert_ne!(k.task_state(pid), Some(TaskState::Exited));
        k.run_to_completion(1_000_000_000);
        assert!(k.all_exited());
    }

    // ---- perf semantics ---------------------------------------------------

    fn spawn_loop(k: &mut Kernel, cpus: CpuMask, inst: u64) -> Pid {
        k.spawn(
            "w",
            Box::new(ScriptedProgram::new([
                Op::Compute(Phase::scalar(inst)),
                Op::Exit,
            ])),
            cpus,
            0,
        )
    }

    #[test]
    fn perf_counts_instructions_exactly() {
        let mut k = raptor();
        let pid = spawn_loop(&mut k, CpuMask::from_cpus([0]), 2_000_000);
        let core = k.pmu_by_name("cpu_core").unwrap().id;
        let fd = k
            .perf_event_open(
                PerfAttr::counting(core, ArchEvent::Instructions),
                Target::Thread(pid),
                None,
            )
            .unwrap();
        k.ioctl_enable(fd, false).unwrap();
        k.run_to_completion(1_000_000_000);
        let rv = k.read_event(fd).unwrap();
        assert_eq!(rv.value, 2_000_000);
        assert_eq!(rv.time_enabled, rv.time_running);
    }

    #[test]
    fn hybrid_event_counts_only_on_matching_core_type() {
        // A P-core PMU event on a task pinned to an E-core: counts nothing,
        // and time_running stays zero while time_enabled advances — the
        // kernel behaviour §IV.A describes.
        let mut k = raptor();
        let pid = spawn_loop(&mut k, CpuMask::from_cpus([16]), 2_000_000);
        let core = k.pmu_by_name("cpu_core").unwrap().id;
        let atom = k.pmu_by_name("cpu_atom").unwrap().id;
        let fd_p = k
            .perf_event_open(
                PerfAttr::counting(core, ArchEvent::Instructions),
                Target::Thread(pid),
                None,
            )
            .unwrap();
        let fd_e = k
            .perf_event_open(
                PerfAttr::counting(atom, ArchEvent::Instructions),
                Target::Thread(pid),
                None,
            )
            .unwrap();
        k.ioctl_enable(fd_p, false).unwrap();
        k.ioctl_enable(fd_e, false).unwrap();
        k.run_to_completion(1_000_000_000);
        let p = k.read_event(fd_p).unwrap();
        let e = k.read_event(fd_e).unwrap();
        assert_eq!(p.value, 0);
        assert!(p.time_enabled > 0);
        assert_eq!(p.time_running, 0);
        assert_eq!(e.value, 2_000_000);
        assert!(e.time_running > 0);
    }

    #[test]
    fn cross_pmu_group_rejected() {
        let mut k = raptor();
        let pid = spawn_loop(&mut k, CpuMask::first_n(24), 1000);
        let core = k.pmu_by_name("cpu_core").unwrap().id;
        let atom = k.pmu_by_name("cpu_atom").unwrap().id;
        let leader = k
            .perf_event_open(
                PerfAttr::counting(core, ArchEvent::Instructions),
                Target::Thread(pid),
                None,
            )
            .unwrap();
        let err = k
            .perf_event_open(
                PerfAttr::counting(atom, ArchEvent::Instructions),
                Target::Thread(pid),
                Some(leader),
            )
            .unwrap_err();
        assert_eq!(err, PerfError::CrossPmuGroup);
    }

    #[test]
    fn topdown_rejected_on_atom_pmu() {
        let mut k = raptor();
        let pid = spawn_loop(&mut k, CpuMask::first_n(24), 1000);
        let atom = k.pmu_by_name("cpu_atom").unwrap().id;
        let err = k
            .perf_event_open(
                PerfAttr::counting(atom, ArchEvent::TopdownSlots),
                Target::Thread(pid),
                None,
            )
            .unwrap_err();
        assert_eq!(err, PerfError::EventNotSupported);
    }

    #[test]
    fn cpu_pinned_event_must_match_pmu_coverage() {
        let mut k = raptor();
        let core = k.pmu_by_name("cpu_core").unwrap().id;
        // cpu 16 is an E-core: the P PMU cannot be opened there.
        let err = k
            .perf_event_open(
                PerfAttr::counting(core, ArchEvent::Instructions),
                Target::Cpu(CpuId(16)),
                None,
            )
            .unwrap_err();
        assert_eq!(err, PerfError::CpuNotCovered);
    }

    #[test]
    fn group_read_returns_members_in_order() {
        let mut k = raptor();
        let pid = spawn_loop(&mut k, CpuMask::from_cpus([0]), 1_000_000);
        let core = k.pmu_by_name("cpu_core").unwrap().id;
        let leader = k
            .perf_event_open(
                PerfAttr::counting(core, ArchEvent::Instructions),
                Target::Thread(pid),
                None,
            )
            .unwrap();
        let member = k
            .perf_event_open(
                PerfAttr::counting(core, ArchEvent::Cycles),
                Target::Thread(pid),
                Some(leader),
            )
            .unwrap();
        k.ioctl_enable(leader, true).unwrap();
        k.run_to_completion(1_000_000_000);
        let vals = k.read_group(leader).unwrap();
        assert_eq!(vals.len(), 2);
        assert_eq!(vals[0].fd, leader);
        assert_eq!(vals[1].fd, member);
        assert_eq!(vals[0].value, 1_000_000);
        assert!(vals[1].value > 0);
    }

    #[test]
    fn multiplexing_scales_counts() {
        // Open 9 single-event groups of GP-only events on GoldenCove
        // (8 GP counters): they must multiplex, and scaled estimates must
        // land near the true value.
        let mut k = raptor();
        let pid = spawn_loop(&mut k, CpuMask::from_cpus([0]), 400_000_000);
        let core = k.pmu_by_name("cpu_core").unwrap().id;
        let mut fds = Vec::new();
        for _ in 0..9 {
            let fd = k
                .perf_event_open(
                    PerfAttr::counting(core, ArchEvent::BranchInstructions),
                    Target::Thread(pid),
                    None,
                )
                .unwrap();
            k.ioctl_enable(fd, false).unwrap();
            fds.push(fd);
        }
        k.run_to_completion(10_000_000_000);
        let truth = 400_000_000.0 * 0.08; // scalar phase branch rate
        let mut any_scaled = false;
        for fd in fds {
            let rv = k.read_event(fd).unwrap();
            assert!(rv.time_running > 0, "every event should get turns");
            if rv.time_running < rv.time_enabled {
                any_scaled = true;
            }
            let est = rv.scaled() as f64;
            let err = (est - truth).abs() / truth;
            assert!(err < 0.25, "scaled estimate off by {:.1}%", err * 100.0);
        }
        assert!(any_scaled, "9 events on 8 counters must multiplex");
    }

    #[test]
    fn sampling_collects_records() {
        let mut k = raptor();
        let pid = spawn_loop(&mut k, CpuMask::from_cpus([0]), 10_000_000);
        let core = k.pmu_by_name("cpu_core").unwrap().id;
        let fd = k
            .perf_event_open(
                PerfAttr {
                    sample_period: 1_000_000,
                    ..PerfAttr::counting(core, ArchEvent::Instructions)
                },
                Target::Thread(pid),
                None,
            )
            .unwrap();
        k.ioctl_enable(fd, false).unwrap();
        k.run_to_completion(1_000_000_000);
        let n = k.event_samples(fd).unwrap().len();
        assert_eq!(n, 10, "10 M instructions / 1 M period = 10 samples");
    }

    #[test]
    fn thread_on_cpu_counts_only_there() {
        // (pid, cpu) mode: counts the thread only while it runs on that
        // exact CPU.
        let mut k = raptor();
        let pid = spawn_loop(&mut k, CpuMask::from_cpus([0, 2]), 40_000_000);
        let core = k.pmu_by_name("cpu_core").unwrap().id;
        let on0 = k
            .perf_event_open(
                PerfAttr::counting(core, ArchEvent::Instructions),
                Target::ThreadOnCpu(pid, CpuId(0)),
                None,
            )
            .unwrap();
        let on2 = k
            .perf_event_open(
                PerfAttr::counting(core, ArchEvent::Instructions),
                Target::ThreadOnCpu(pid, CpuId(2)),
                None,
            )
            .unwrap();
        let anywhere = k
            .perf_event_open(
                PerfAttr::counting(core, ArchEvent::Instructions),
                Target::Thread(pid),
                None,
            )
            .unwrap();
        for fd in [on0, on2, anywhere] {
            k.ioctl_enable(fd, false).unwrap();
        }
        // Force a migration midway.
        for _ in 0..2 {
            k.tick();
        }
        k.set_affinity(pid, CpuMask::from_cpus([2])).unwrap();
        k.run_to_completion(10_000_000_000);
        let v0 = k.read_event(on0).unwrap().value;
        let v2 = k.read_event(on2).unwrap().value;
        let all = k.read_event(anywhere).unwrap().value;
        assert_eq!(all, 40_000_000);
        assert_eq!(v0 + v2, all, "per-cpu slices partition the total");
        assert!(v0 > 0 && v2 > 0, "ran on both: {v0} + {v2}");
    }

    #[test]
    fn fixed_counter_event_survives_gp_overcommit() {
        // 10 GP-hungry events on Gracemont's 6 GP counters must rotate,
        // but an Instructions event rides the fixed counter and is never
        // multiplexed out — and its count stays exact.
        let mut k = raptor();
        let pid = spawn_loop(&mut k, CpuMask::from_cpus([16]), 200_000_000);
        let atom = k.pmu_by_name("cpu_atom").unwrap().id;
        let mut gp_fds = Vec::new();
        for _ in 0..10 {
            let fd = k
                .perf_event_open(
                    PerfAttr::counting(atom, ArchEvent::BranchMisses),
                    Target::Thread(pid),
                    None,
                )
                .unwrap();
            k.ioctl_enable(fd, false).unwrap();
            gp_fds.push(fd);
        }
        let inst_fd = k
            .perf_event_open(
                PerfAttr::counting(atom, ArchEvent::Instructions),
                Target::Thread(pid),
                None,
            )
            .unwrap();
        k.ioctl_enable(inst_fd, false).unwrap();
        k.run_to_completion(120_000_000_000);
        let inst = k.read_event(inst_fd).unwrap();
        assert_eq!(
            inst.time_enabled, inst.time_running,
            "fixed-counter event never rotated out"
        );
        assert_eq!(inst.value, 200_000_000);
        let rotated = gp_fds
            .iter()
            .map(|&fd| k.read_event(fd).unwrap())
            .any(|rv| rv.time_running < rv.time_enabled);
        assert!(rotated, "10 GP events on 6 counters must multiplex");
    }

    #[test]
    fn rapl_event_counts_energy() {
        let mut k = raptor();
        let _pid = spawn_loop(&mut k, CpuMask::from_cpus([0]), 200_000_000);
        let rapl = k.pmu_by_name("power").unwrap().id;
        let fd = k
            .perf_event_open(
                PerfAttr {
                    config: EventConfig::Rapl(RaplConfig::EnergyPkg),
                    ..PerfAttr::counting(rapl, ArchEvent::Instructions)
                },
                Target::Cpu(CpuId(0)),
                None,
            )
            .unwrap();
        k.ioctl_enable(fd, false).unwrap();
        k.run_to_completion(10_000_000_000);
        let uj = k.read_event(fd).unwrap().value;
        assert!(uj > 0, "package energy should accumulate");
        // Thread-mode RAPL is rejected.
        let pid2 = spawn_loop(&mut k, CpuMask::from_cpus([0]), 1000);
        let err = k
            .perf_event_open(
                PerfAttr {
                    config: EventConfig::Rapl(RaplConfig::EnergyPkg),
                    ..PerfAttr::counting(rapl, ArchEvent::Instructions)
                },
                Target::Thread(pid2),
                None,
            )
            .unwrap_err();
        assert_eq!(err, PerfError::CpuNotCovered);
    }

    #[test]
    fn uncore_event_counts_llc_traffic() {
        let mut k = raptor();
        let _ = k.spawn(
            "stream",
            Box::new(ScriptedProgram::new([
                Op::Compute(Phase::stream(50_000_000, 8 << 30)),
                Op::Exit,
            ])),
            CpuMask::from_cpus([0]),
            0,
        );
        let unc = k.pmu_by_name("uncore_llc").unwrap().id;
        let fd = k
            .perf_event_open(
                PerfAttr {
                    config: EventConfig::Uncore(UncoreConfig::LlcLookups),
                    ..PerfAttr::counting(unc, ArchEvent::Instructions)
                },
                Target::Cpu(CpuId(0)),
                None,
            )
            .unwrap();
        k.ioctl_enable(fd, false).unwrap();
        k.run_to_completion(10_000_000_000);
        assert!(k.read_event(fd).unwrap().value > 0);
    }

    #[test]
    fn software_events_count_switches_and_migrations() {
        let mut k = raptor();
        let pid = spawn_loop(&mut k, CpuMask::from_cpus([0]), 400_000_000);
        let sw = k.pmu_by_name("software").unwrap().id;
        let open_sw = |k: &mut Kernel, cfg| {
            let fd = k
                .perf_event_open(
                    PerfAttr {
                        config: cfg,
                        ..PerfAttr::counting(sw, ArchEvent::Instructions)
                    },
                    Target::Thread(pid),
                    None,
                )
                .unwrap();
            k.ioctl_enable(fd, false).unwrap();
            fd
        };
        let fd_clk = open_sw(&mut k, EventConfig::SwTaskClock);
        let fd_ctx = open_sw(&mut k, EventConfig::SwContextSwitches);
        let fd_mig = open_sw(&mut k, EventConfig::SwCpuMigrations);
        // Run a while on cpu0, then force two migrations.
        for _ in 0..20 {
            k.tick();
        }
        k.set_affinity(pid, CpuMask::from_cpus([16])).unwrap();
        for _ in 0..20 {
            k.tick();
        }
        k.set_affinity(pid, CpuMask::from_cpus([2])).unwrap();
        k.run_to_completion(60_000_000_000);
        let clk = k.read_event(fd_clk).unwrap().value;
        let ctx = k.read_event(fd_ctx).unwrap().value;
        let mig = k.read_event(fd_mig).unwrap().value;
        let st = k.task_stats(pid).unwrap();
        assert!(clk > 0, "task clock advanced");
        assert!((clk as i64 - st.runtime_ns as i64).abs() <= 1_000_000);
        assert_eq!(mig, st.migrations, "perf and stats agree on migrations");
        assert!(mig >= 2, "two forced migrations: {mig}");
        assert!(
            ctx >= mig,
            "every migration implies a switch-in: {ctx} >= {mig}"
        );
    }

    #[test]
    fn software_page_faults_follow_first_touch_high_water() {
        // Two phases: 8 KiB scalar (2 pages), then a 64 KiB stream
        // (16 pages). The high-water model faults 2, then 14 more; a
        // third phase inside the existing footprint faults nothing. A
        // fourth, 2^45-byte stream faults the rest of its 2^33 pages in
        // one tick — more than a u32 counts.
        let mut k = raptor();
        let pid = k.spawn(
            "pf",
            Box::new(ScriptedProgram::new([
                Op::Compute(Phase::scalar(1_000_000)),
                Op::Compute(Phase::stream(1_000_000, 64 * 1024)),
                Op::Compute(Phase::scalar(1_000_000)),
                Op::Compute(Phase::stream(1_000_000, 1 << 45)),
                Op::Exit,
            ])),
            CpuMask::from_cpus([0]),
            0,
        );
        let sw = k.pmu_by_name("software").unwrap().id;
        let fd = k
            .perf_event_open(
                PerfAttr {
                    config: EventConfig::SwPageFaults,
                    ..PerfAttr::counting(sw, ArchEvent::Instructions)
                },
                Target::Thread(pid),
                None,
            )
            .unwrap();
        k.ioctl_enable(fd, false).unwrap();
        k.run_to_completion(60_000_000_000);
        let flt = k.read_event(fd).unwrap().value;
        let st = k.task_stats(pid).unwrap();
        assert_eq!(st.page_faults, 1 << 33, "2 + 14 + 0 + (2^33 - 16) faults");
        assert_eq!(flt, st.page_faults, "perf and stats agree on faults");
    }

    /// Instructions per `Op::Spin` chunk of [`spin_until`].
    const SPIN_CHUNK: u64 = 20_000;

    /// A program that spin-waits through `Op::Spin` in `SPIN_CHUNK`
    /// chunks until `ready` holds, counting every poll in `polls`, then
    /// runs a 1M-instruction scalar phase and exits.
    fn spin_until(
        polls: Arc<AtomicU64>,
        mut ready: impl FnMut(&ProgCtx) -> bool + Send + 'static,
    ) -> Box<dyn Program> {
        let mut done = false;
        Box::new(move |ctx: &ProgCtx| {
            polls.fetch_add(1, Ordering::Relaxed);
            if done {
                Op::Exit
            } else if ready(ctx) {
                done = true;
                Op::Compute(Phase::scalar(1_000_000))
            } else {
                Op::Spin(Phase::spin(SPIN_CHUNK))
            }
        })
    }

    /// Boot skylake-quad with a `spin_until` task pinned to cpu0 that
    /// waits for simulated time 10 ms. Returns the kernel, the pid and the
    /// poll counter.
    fn deadline_spinner(uncached: bool) -> (Kernel, Pid, Arc<AtomicU64>) {
        let mut k = Kernel::boot(MachineSpec::skylake_quad(), KernelConfig::default());
        k.uncached = uncached;
        let polls = Arc::new(AtomicU64::new(0));
        let pid = k.spawn(
            "spin",
            spin_until(polls.clone(), |c| c.time_ns >= 10_000_000),
            CpuMask::from_cpus([0]),
            0,
        );
        (k, pid, polls)
    }

    fn polls_of(p: &Arc<AtomicU64>) -> u64 {
        p.load(Ordering::Relaxed)
    }

    #[test]
    fn spin_wait_is_polled_once_per_tick() {
        // Dozens of chunks fit in one 1 ms tick. The fast path polls the
        // waiting program once per tick (ticks 0-9) and re-installs the
        // chunk in between; the oracle polls after every chunk. Either
        // way two more polls follow: the one that sees the deadline and
        // the one that exits. Everything the task did is identical.
        //
        // Nor is the engine run per chunk: after the first whole chunk of
        // a tick, the fast path applies every further whole chunk in
        // closed form, so a tick slices at most three times (the chunk
        // carried in, the polled one, the last partial one).
        let run = |uncached| {
            let (mut k, pid, polls) = deadline_spinner(uncached);
            let mut max_slices = 0;
            while !k.all_exited() && k.time_ns() < 1_000_000_000 {
                k.tick();
                max_slices = max_slices.max(k.scratch.outs[0].slices);
            }
            let stats = k.task_stats(pid).unwrap();
            (stats, polls_of(&polls), k.time_ns(), max_slices)
        };
        let (fast, fast_polls, fast_end, fast_slices) = run(false);
        let (oracle, oracle_polls, oracle_end, oracle_slices) = run(true);
        assert_eq!(fast, oracle);
        assert_eq!(fast_end, oracle_end);
        let spun = fast.instructions - 1_000_000;
        assert_eq!(spun % SPIN_CHUNK, 0, "every chunk ran to its end");
        let chunks = spun / SPIN_CHUNK;
        assert!(chunks > 100, "only {chunks} chunks in 10 ticks");
        assert_eq!(fast_polls, 10 + 2);
        assert_eq!(oracle_polls, chunks + 2);
        assert!(fast_slices <= 3, "{fast_slices} slices in one tick");
        assert!(oracle_slices > 10, "the oracle slices every chunk");
    }

    #[test]
    fn injected_ops_run_before_the_program_and_an_injected_spin_is_not_reinstalled() {
        // Before tick 5 the host injects a scalar phase and a spin chunk.
        // They run ahead of the program, exactly as on the oracle, and the
        // injected chunk is not the program's answer: the program is still
        // polled in that tick (a re-installed injected chunk would poll 0
        // times).
        let run = |uncached| {
            let (mut k, pid, polls) = deadline_spinner(uncached);
            let mut per_tick = Vec::new();
            let mut stats = Vec::new();
            for t in 0..8 {
                if t == 5 {
                    k.inject_ops(
                        pid,
                        [
                            Op::Compute(Phase::scalar(50_000)),
                            Op::Spin(Phase::spin(SPIN_CHUNK)),
                        ],
                    );
                }
                let before = polls_of(&polls);
                k.tick();
                per_tick.push(polls_of(&polls) - before);
                stats.push(k.task_stats(pid).unwrap());
            }
            (per_tick, stats)
        };
        let (fast_polls, fast) = run(false);
        let (oracle_polls, oracle) = run(true);
        assert_eq!(fast, oracle);
        assert_eq!(fast_polls, vec![1; 8]);
        assert!(
            oracle_polls[5] > 10,
            "oracle polls per chunk: {oracle_polls:?}"
        );
    }

    #[test]
    fn zero_instruction_spin_polls_again() {
        // Like a zero-instruction `Compute`, an empty spin installs
        // nothing: the kernel polls again instead of re-installing it, so
        // it cannot hang the tick.
        let mut k = raptor();
        let polls = Arc::new(AtomicU64::new(0));
        let p = polls.clone();
        let pid = k.spawn(
            "empty-spin",
            Box::new(move |_: &ProgCtx| {
                if p.fetch_add(1, Ordering::Relaxed) < 3 {
                    Op::Spin(Phase::spin(0))
                } else {
                    Op::Exit
                }
            }),
            CpuMask::from_cpus([0]),
            0,
        );
        k.tick();
        assert_eq!(polls_of(&polls), 4);
        assert_eq!(k.task_state(pid), Some(TaskState::Exited));
    }

    #[test]
    fn a_reinstalling_tick_is_not_a_steady_template() {
        // Mid-wait, a tick runs the carried chunk to its end and then
        // re-installs chunk after chunk with one poll: an op-pull tick,
        // never a template, so the next tick cannot replay it.
        let (mut k, _, polls) = deadline_spinner(false);
        for _ in 0..5 {
            let before = polls_of(&polls);
            k.tick();
            assert_eq!(polls_of(&polls) - before, 1);
            assert!(
                !k.scratch.outs[0].steady,
                "a re-installing tick is not steady"
            );
        }
    }

    /// Whether `cpu`'s last tick re-applied its template instead of
    /// slicing.
    fn replayed(k: &Kernel, cpu: usize) -> bool {
        let out = &k.scratch.outs[cpu];
        out.steady && out.slices == 0
    }

    /// Every task's stats and each fd's count: what the template-replay
    /// tests compare against the oracle.
    fn observe(k: &mut Kernel, fds: &[EventFd]) -> (Vec<TaskStats>, Vec<u64>) {
        let stats = (0..k.tasks.len() as u32)
            .filter_map(|p| k.task_stats(Pid(p)))
            .collect();
        let counts = fds
            .iter()
            .map(|&fd| k.read_event(fd).unwrap().value)
            .collect();
        (stats, counts)
    }

    /// Open counting instructions, cycles and context switches on `cpu`.
    fn open_cpu_counters(k: &mut Kernel, cpu: usize) -> Vec<EventFd> {
        let core = k
            .pmus()
            .iter()
            .find(|p| p.kind == PmuKind::CoreHw && p.cpus.contains(CpuId(cpu)))
            .unwrap()
            .id;
        let sw = k.pmu_by_name("software").unwrap().id;
        let attrs = [
            PerfAttr::counting(core, ArchEvent::Instructions),
            PerfAttr::counting(core, ArchEvent::Cycles),
            PerfAttr {
                config: EventConfig::SwContextSwitches,
                ..PerfAttr::counting(sw, ArchEvent::Instructions)
            },
        ];
        attrs
            .into_iter()
            .map(|attr| {
                let fd = k
                    .perf_event_open(attr, Target::Cpu(CpuId(cpu)), None)
                    .unwrap();
                k.ioctl_enable(fd, false).unwrap();
                fd
            })
            .collect()
    }

    /// Skylake-quad with one scalar phase of `inst` instructions pinned to
    /// cpu0, followed by a short scalar phase and an exit.
    fn lone_scalar(uncached: bool, inst: u64) -> (Kernel, Pid) {
        let mut k = Kernel::boot(MachineSpec::skylake_quad(), KernelConfig::default());
        k.uncached = uncached;
        let pid = k.spawn(
            "lone",
            Box::new(ScriptedProgram::new([
                Op::Compute(Phase::scalar(inst)),
                Op::Compute(Phase::scalar(3_000_000)),
                Op::Exit,
            ])),
            CpuMask::from_cpus([0]),
            0,
        );
        (k, pid)
    }

    /// Each CPU's exec context as its next tick would see it under the
    /// current assignment: frequency, LLC share, and the contention and
    /// SMT-factor bits. A CPU's context *held* across a tick when this is
    /// the same before and after it.
    fn contexts(k: &Kernel) -> Vec<(u64, u64, u64, u64)> {
        (0..k.machine.n_cpus())
            .map(|ci| {
                let smt_busy = k
                    .machine
                    .cpu_info(CpuId(ci))
                    .smt_sibling
                    .is_some_and(|s| k.current[s.0].is_some());
                let c = k.machine.exec_context(CpuId(ci), smt_busy);
                (
                    c.freq_khz,
                    c.llc_share_bytes,
                    c.mem_contention.to_bits(),
                    c.smt_factor.to_bits(),
                )
            })
            .collect()
    }

    /// Tick until every CPU's context held across the last two ticks, so
    /// the last tick could replay and so could the next one. Returns the
    /// ticks run.
    fn tick_until_context_holds(k: &mut Kernel) -> u64 {
        let mut quiet = 0;
        for t in 1..=2_000 {
            let before = contexts(k);
            k.tick();
            quiet = if contexts(k) == before { quiet + 1 } else { 0 };
            if quiet >= 2 && t >= 3 {
                return t;
            }
        }
        panic!("the exec context never held for two ticks");
    }

    #[test]
    fn a_lone_steady_phase_replays_whenever_its_context_holds() {
        // Two shapes on raptor: a pinned scalar phase alone on cpu0, and
        // tickbench's one immortal dgemm per CPU. From the third tick on,
        // each busy CPU's previous tick was a steady template, so every
        // tick whose predecessor left that CPU's context unchanged
        // re-applies it, and the whole run stays identical to the oracle's.
        fn lone_scalar(k: &mut Kernel) {
            spawn_loop(k, CpuMask::from_cpus([0]), 50_000_000_000);
        }
        fn dgemm_per_cpu(k: &mut Kernel) {
            for i in 0..k.machine().n_cpus() {
                k.spawn(
                    &format!("w{i}"),
                    Box::new(|_: &ProgCtx| Op::Compute(Phase::dgemm(1 << 44, 8 << 20, 0.35))),
                    CpuMask::from_cpus([i]),
                    0,
                );
            }
        }
        let run = |spawn: fn(&mut Kernel), uncached: bool| {
            let mut k = raptor();
            k.uncached = uncached;
            spawn(&mut k);
            let fds = open_cpu_counters(&mut k, 0);
            let n = k.machine().n_cpus();
            let (mut eligible, mut replays) = (0, 0);
            let mut held = vec![false; n];
            for t in 0..400 {
                let before = contexts(&k);
                k.tick();
                for (ci, &held) in held.iter().enumerate() {
                    if k.current[ci].is_none() {
                        continue;
                    }
                    if t >= 2 && held {
                        eligible += 1;
                        assert!(
                            uncached || replayed(&k, ci),
                            "tick {t}: cpu{ci} did not replay"
                        );
                    }
                    replays += replayed(&k, ci) as u64;
                }
                for (h, (b, a)) in held.iter_mut().zip(before.iter().zip(contexts(&k))) {
                    *h = *b == a;
                }
            }
            (observe(&mut k, &fds), eligible, replays)
        };
        let shapes = [
            ("lone scalar", lone_scalar as fn(&mut Kernel), 200),
            ("dgemm per cpu", dgemm_per_cpu, 24 * 200),
        ];
        for (shape, spawn, min_eligible) in shapes {
            let (fast, eligible, replays) = run(spawn, false);
            let (oracle, oracle_eligible, oracle_replays) = run(spawn, true);
            assert_eq!(fast, oracle, "{shape}");
            assert_eq!(eligible, oracle_eligible, "{shape}");
            assert_eq!(oracle_replays, 0, "{shape}");
            assert!(
                eligible > min_eligible,
                "{shape}: only {eligible} CPU-ticks kept their context"
            );
            assert!(replays >= eligible, "{shape}");
        }
    }

    #[test]
    fn a_template_is_not_replayed_once_the_smt_sibling_changes() {
        // cpu0 replays its lone scalar phase; then a task lands on its SMT
        // sibling. The last `end_tick` moved nothing, so cpu0's context
        // differs from its template's only in the SMT factor, which the
        // plan key holds: the lookup misses and the tick runs in full.
        let settle = tick_until_context_holds(&mut lone_scalar(false, 50_000_000_000).0);
        let run = |uncached: bool| {
            let (mut k, _) = lone_scalar(uncached, 50_000_000_000);
            let sibling = k.machine().cpu_info(CpuId(0)).smt_sibling.unwrap();
            let fds = open_cpu_counters(&mut k, 0);
            for _ in 0..settle {
                k.tick();
            }
            assert!(uncached || replayed(&k, 0));
            k.spawn(
                "sibling",
                Box::new(ScriptedProgram::new([Op::Compute(Phase::scalar(
                    50_000_000_000,
                ))])),
                CpuMask::from_cpus([sibling.0]),
                0,
            );
            k.tick();
            assert_eq!(k.current[sibling.0], Some(Pid(1)));
            assert!(!replayed(&k, 0), "replayed a template of a lone core");
            for _ in 0..20 {
                k.tick();
            }
            observe(&mut k, &fds)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn a_template_is_not_replayed_onto_the_phases_last_tick() {
        // Probe how far the phase gets by a tick that will replay, then
        // size the phase so that exactly one template's worth is left
        // there: that tick must run in full, finish the phase and pull the
        // next one, as the oracle does.
        let (mut probe, ppid) = lone_scalar(false, 50_000_000_000);
        let settle = tick_until_context_holds(&mut probe);
        let per_tick = probe.scratch.outs[0].inst_total;
        let inst = probe.task_stats(ppid).unwrap().instructions + per_tick;
        let run = |uncached: bool| {
            let (mut k, pid) = lone_scalar(uncached, inst);
            let fds = open_cpu_counters(&mut k, 0);
            for _ in 0..settle {
                k.tick();
            }
            let left = k.tasks[pid.0 as usize]
                .as_ref()
                .unwrap()
                .current
                .as_ref()
                .unwrap();
            assert_eq!(left.instructions, per_tick);
            if !uncached {
                assert!(replayed(&k, 0));
                assert_eq!(k.scratch.outs[0].inst_total, per_tick);
            }
            k.tick();
            assert!(!replayed(&k, 0), "replayed past the end of the phase");
            for _ in 0..10 {
                k.tick();
            }
            observe(&mut k, &fds)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn a_template_is_not_replayed_across_a_fault() {
        // A fault that changes nothing the exec model reads still bumps the
        // fault epoch, which empties the seat's plan cache: the next lookup
        // misses and the tick runs in full. The tick after it hits the
        // rebuilt plan and replays again.
        let settle = tick_until_context_holds(&mut lone_scalar(false, 50_000_000_000).0);
        let run = |uncached: bool| {
            let (mut k, _) = lone_scalar(uncached, 50_000_000_000);
            let fds = open_cpu_counters(&mut k, 0);
            k.install_faults(&FaultPlan::new(7).at(
                settle * k.config().tick_ns,
                FaultKind::SysfsFlaky { dur_ns: 1_000_000 },
            ));
            for _ in 0..settle {
                k.tick();
            }
            assert!(uncached || replayed(&k, 0));
            let before = contexts(&k);
            k.tick();
            assert_eq!(k.fault_log().len(), 1);
            assert!(!replayed(&k, 0), "replayed across a fault");
            let held = contexts(&k)[0] == before[0];
            k.tick();
            assert!(uncached || !held || replayed(&k, 0));
            for _ in 0..10 {
                k.tick();
            }
            observe(&mut k, &fds)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn a_template_is_not_replayed_for_a_task_switched_in() {
        // Two tasks with the same scalar phase share cpu0. When one is
        // switched in, the slot holds the other's steady template, and its
        // lookup hits that very plan (same shape, same context): only the
        // switch-in refuses the template, and the tick counts the context
        // switch as the oracle does.
        let run = |uncached: bool| {
            let mut k = Kernel::boot(MachineSpec::skylake_quad(), KernelConfig::default());
            k.uncached = uncached;
            for _ in 0..2 {
                spawn_loop(&mut k, CpuMask::from_cpus([0]), 50_000_000_000);
            }
            let fds = open_cpu_counters(&mut k, 0);
            let mut refused = 0;
            for _ in 0..300 {
                let steady = k.scratch.outs[0].steady;
                let (hits, misses) = k.plan_cache_stats();
                k.tick();
                let out = &k.scratch.outs[0];
                if steady && out.sw.switched_in && k.plan_cache_stats() == (hits + 1, misses) {
                    refused += 1;
                }
            }
            (observe(&mut k, &fds), refused)
        };
        let (fast, refused) = run(false);
        let (oracle, _) = run(true);
        assert_eq!(fast, oracle);
        assert!(
            refused > 10,
            "only {refused} switch-ins hit the template's plan"
        );
    }

    #[test]
    fn hotplug_migration_counted_exactly_once() {
        // Regression for the hotplug undo path: offline cpu0 (one genuine
        // migration to cpu1), then bring it back. Sticky placement keeps
        // the running task where it is, so neither the offline nor the
        // re-online may add a second migration — in the task stats or in
        // the software PMU.
        let mut k = raptor();
        let pid = spawn_loop(&mut k, CpuMask::from_cpus([0, 1]), 500_000_000);
        let sw = k.pmu_by_name("software").unwrap().id;
        let fd = k
            .perf_event_open(
                PerfAttr {
                    config: EventConfig::SwCpuMigrations,
                    ..PerfAttr::counting(sw, ArchEvent::Instructions)
                },
                Target::Thread(pid),
                None,
            )
            .unwrap();
        k.ioctl_enable(fd, false).unwrap();
        k.install_faults(&FaultPlan::new(11).at(
            10_000_000,
            FaultKind::CpuOffline {
                cpu: CpuId(0),
                down_ns: Some(20_000_000),
            },
        ));
        k.run_to_completion(100_000_000_000);
        assert!(k.cpu_online(CpuId(0)), "cpu0 came back");
        let st = k.task_stats(pid).unwrap();
        assert_eq!(st.instructions, 500_000_000);
        assert_eq!(
            st.migrations, 1,
            "exactly one migration across offline + undo"
        );
        assert_eq!(k.read_event(fd).unwrap().value, 1);
    }

    #[test]
    fn userpage_rdpmc_protocol() {
        // §V.5: rdpmc works only while the event holds a hardware counter.
        let mut k = raptor();
        let pid = spawn_loop(&mut k, CpuMask::from_cpus([16]), 100_000_000);
        let core = k.pmu_by_name("cpu_core").unwrap().id;
        let atom = k.pmu_by_name("cpu_atom").unwrap().id;
        let fd_e = k
            .perf_event_open(
                PerfAttr::counting(atom, ArchEvent::Instructions),
                Target::Thread(pid),
                None,
            )
            .unwrap();
        let fd_p = k
            .perf_event_open(
                PerfAttr::counting(core, ArchEvent::Instructions),
                Target::Thread(pid),
                None,
            )
            .unwrap();
        k.ioctl_enable(fd_e, false).unwrap();
        k.ioctl_enable(fd_p, false).unwrap();
        for _ in 0..5 {
            k.tick();
        }
        // While running on the E core: the matching event is rdpmc-able…
        let page_e = k.mmap_userpage(fd_e).unwrap();
        assert!(page_e.index != 0, "{page_e:?}");
        assert!(page_e.rdpmc().unwrap() > 0);
        assert_eq!(page_e.lock_seq % 2, 0, "stable snapshot");
        // …and the wrong-core-type event is not: fallback required.
        let page_p = k.mmap_userpage(fd_p).unwrap();
        assert_eq!(page_p.index, 0, "{page_p:?}");
        assert_eq!(page_p.rdpmc(), None);
        // After exit, nothing is on hardware.
        k.run_to_completion(60_000_000_000);
        let page_done = k.mmap_userpage(fd_e).unwrap();
        assert_eq!(page_done.index, 0);
        // RAPL events never expose rdpmc.
        let rapl = k.pmu_by_name("power").unwrap().id;
        let fd_r = k
            .perf_event_open(
                PerfAttr {
                    config: EventConfig::Rapl(RaplConfig::EnergyPkg),
                    ..PerfAttr::counting(rapl, ArchEvent::Instructions)
                },
                Target::Cpu(CpuId(0)),
                None,
            )
            .unwrap();
        k.ioctl_enable(fd_r, false).unwrap();
        k.tick();
        assert_eq!(k.mmap_userpage(fd_r).unwrap().index, 0);
    }

    #[test]
    fn imc_uncore_counts_dram_traffic() {
        let mut k = raptor();
        let _ = k.spawn(
            "stream",
            Box::new(ScriptedProgram::new([
                Op::Compute(Phase::stream(100_000_000, 8 << 30)),
                Op::Exit,
            ])),
            CpuMask::from_cpus([0]),
            0,
        );
        let imc = k.pmu_by_name("uncore_imc").unwrap().id;
        let open = |k: &mut Kernel, cfg| {
            let fd = k
                .perf_event_open(
                    PerfAttr {
                        config: cfg,
                        ..PerfAttr::counting(imc, ArchEvent::Instructions)
                    },
                    Target::Cpu(CpuId(0)),
                    None,
                )
                .unwrap();
            k.ioctl_enable(fd, false).unwrap();
            fd
        };
        let rd = open(&mut k, EventConfig::Uncore(UncoreConfig::ImcCasReads));
        let wr = open(&mut k, EventConfig::Uncore(UncoreConfig::ImcCasWrites));
        k.run_to_completion(60_000_000_000);
        let r = k.read_event(rd).unwrap().value;
        let w = k.read_event(wr).unwrap().value;
        assert!(r > 0 && w > 0, "CAS traffic counted: rd={r} wr={w}");
        assert!(r > w, "reads dominate the modeled split");
        // A stream touching ~working-set bytes should move megabytes.
        assert!((r + w) * 64 > 10 << 20, "total DRAM bytes {}", (r + w) * 64);
    }

    #[test]
    fn sample_ring_caps_at_limit() {
        let mut k = raptor();
        let pid = spawn_loop(&mut k, CpuMask::from_cpus([0]), 8_000_000_000);
        let core = k.pmu_by_name("cpu_core").unwrap().id;
        let fd = k
            .perf_event_open(
                PerfAttr {
                    sample_period: 100_000, // 80 k samples > the 65536 cap
                    ..PerfAttr::counting(core, ArchEvent::Instructions)
                },
                Target::Thread(pid),
                None,
            )
            .unwrap();
        k.ioctl_enable(fd, false).unwrap();
        k.run_to_completion(600_000_000_000);
        let n = k.event_samples(fd).unwrap().len();
        assert_eq!(n, crate::perf::SAMPLE_RING_CAP, "ring overwrites oldest");
        // Count is unaffected by ring overflow.
        assert_eq!(k.read_event(fd).unwrap().value, 8_000_000_000);
    }

    #[test]
    fn reset_zeroes_counts_not_times() {
        let mut k = raptor();
        let pid = spawn_loop(&mut k, CpuMask::from_cpus([0]), 1_000_000);
        let core = k.pmu_by_name("cpu_core").unwrap().id;
        let fd = k
            .perf_event_open(
                PerfAttr::counting(core, ArchEvent::Instructions),
                Target::Thread(pid),
                None,
            )
            .unwrap();
        k.ioctl_enable(fd, false).unwrap();
        k.run_to_completion(1_000_000_000);
        let before = k.read_event(fd).unwrap();
        assert!(before.value > 0);
        k.ioctl_reset(fd, false).unwrap();
        let after = k.read_event(fd).unwrap();
        assert_eq!(after.value, 0);
        assert_eq!(after.time_enabled, before.time_enabled);
    }

    #[test]
    fn close_releases_group() {
        let mut k = raptor();
        let pid = spawn_loop(&mut k, CpuMask::from_cpus([0]), 1000);
        let core = k.pmu_by_name("cpu_core").unwrap().id;
        let leader = k
            .perf_event_open(
                PerfAttr::counting(core, ArchEvent::Instructions),
                Target::Thread(pid),
                None,
            )
            .unwrap();
        let member = k
            .perf_event_open(
                PerfAttr::counting(core, ArchEvent::Cycles),
                Target::Thread(pid),
                Some(leader),
            )
            .unwrap();
        k.close_event(leader).unwrap();
        assert_eq!(k.read_event(leader).unwrap_err(), PerfError::BadFd);
        assert_eq!(k.read_event(member).unwrap_err(), PerfError::BadFd);
    }

    #[test]
    fn syscall_stats_accumulate() {
        let mut k = raptor();
        let pid = spawn_loop(&mut k, CpuMask::from_cpus([0]), 1000);
        let core = k.pmu_by_name("cpu_core").unwrap().id;
        let fd = k
            .perf_event_open(
                PerfAttr::counting(core, ArchEvent::Instructions),
                Target::Thread(pid),
                None,
            )
            .unwrap();
        k.ioctl_enable(fd, false).unwrap();
        let _ = k.read_event(fd).unwrap();
        let _ = k.mmap_userpage(fd).unwrap();
        let s = k.syscall_stats();
        assert_eq!(s.opens, 1);
        assert_eq!(s.ioctls, 1);
        assert_eq!(s.reads, 1);
        assert_eq!(s.rdpmc_reads, 1);
        assert!(s.total_latency_ns >= LAT_OPEN_NS + LAT_IOCTL_NS + LAT_READ_NS);
    }

    #[test]
    fn unpinned_task_on_hybrid_prefers_p_cores() {
        let mut k = raptor();
        let pid = spawn_loop(&mut k, CpuMask::first_n(24), 50_000_000);
        k.run_to_completion(10_000_000_000);
        let st = k.task_stats(pid).unwrap();
        assert_eq!(st.instructions_by_type[0], 50_000_000, "{st:?}");
    }

    #[test]
    fn orangepi_runs_tasks() {
        let mut k = orangepi();
        let pid = spawn_loop(&mut k, CpuMask::first_n(6), 10_000_000);
        k.run_to_completion(10_000_000_000);
        assert!(k.all_exited());
        assert_eq!(k.task_stats(pid).unwrap().instructions, 10_000_000);
    }

    // ---- fault injection --------------------------------------------------

    use crate::faults::{FaultKind, FaultPlan, TransientErrno};

    #[test]
    fn hotplug_freezes_cpu_pinned_event_clocks() {
        // A task pinned to cpu0 alone: it starves during the outage and
        // resumes in place afterwards, so the CPU-pinned event must both
        // freeze its clocks (no scaling over the dead window) and resume
        // counting when the CPU returns.
        let mut k = raptor();
        let pid = spawn_loop(&mut k, CpuMask::from_cpus([0]), 500_000_000);
        let core = k.pmu_by_name("cpu_core").unwrap().id;
        let fd = k
            .perf_event_open(
                PerfAttr::counting(core, ArchEvent::Cycles),
                Target::Cpu(CpuId(0)),
                None,
            )
            .unwrap();
        k.ioctl_enable(fd, false).unwrap();
        k.install_faults(&FaultPlan::new(42).at(
            10_000_000,
            FaultKind::CpuOffline {
                cpu: CpuId(0),
                down_ns: Some(20_000_000),
            },
        ));
        while k.time_ns() < 30_000_000 {
            k.tick();
        }
        // Both clocks froze for the whole outage — of the 30 ms elapsed,
        // exactly the first 10 ms were countable. No scaling applies.
        let mid = k.read_event(fd).unwrap();
        assert_eq!(mid.time_enabled, 10_000_000);
        assert_eq!(mid.time_running, 10_000_000);
        while k.time_ns() < 40_000_000 {
            k.tick();
        }
        // Back online: both clocks resume, and so does counting.
        let end = k.read_event(fd).unwrap();
        assert_eq!(end.time_enabled, 20_000_000);
        assert_eq!(end.time_running, 20_000_000);
        assert!(end.value > mid.value, "counting again after re-online");
        k.run_to_completion(100_000_000_000);
        assert_eq!(k.task_stats(pid).unwrap().instructions, 500_000_000);
        let log: Vec<&str> = k.fault_log().iter().map(|r| r.desc.as_str()).collect();
        assert!(log.iter().any(|d| d.contains("cpu0 offline")), "{log:?}");
        assert!(
            log.iter().any(|d| d.contains("cpu0 back online")),
            "{log:?}"
        );
    }

    #[test]
    fn hotplug_migrates_tasks_and_loses_no_thread_counts() {
        // A task that may run on cpu0 or cpu1 gets kicked off cpu0 when it
        // goes down for good; its per-thread event keeps counting on cpu1
        // and the total stays exact.
        let mut k = raptor();
        let pid = spawn_loop(&mut k, CpuMask::from_cpus([0, 1]), 500_000_000);
        let core = k.pmu_by_name("cpu_core").unwrap().id;
        let fd = k
            .perf_event_open(
                PerfAttr::counting(core, ArchEvent::Instructions),
                Target::Thread(pid),
                None,
            )
            .unwrap();
        k.ioctl_enable(fd, false).unwrap();
        k.install_faults(&FaultPlan::new(7).at(
            10_000_000,
            FaultKind::CpuOffline {
                cpu: CpuId(0),
                down_ns: None,
            },
        ));
        k.run_to_completion(100_000_000_000);
        assert!(!k.cpu_online(CpuId(0)), "cpu0 stays down");
        let st = k.task_stats(pid).unwrap();
        assert_eq!(st.instructions, 500_000_000);
        assert!(st.migrations >= 1, "task left the offlined CPU");
        let rv = k.read_event(fd).unwrap();
        assert_eq!(rv.value, 500_000_000, "thread event followed the task");
    }

    #[test]
    fn watchdog_theft_forces_multiplexing_and_scaling() {
        // Fill all 8 GoldenCove GP counters and let Instructions ride its
        // fixed counter; then the NMI watchdog steals the fixed counter.
        // Instructions must spill to the (full) GP file and rotate, with
        // scaled estimates staying honest.
        let mut k = raptor();
        let pid = spawn_loop(&mut k, CpuMask::from_cpus([0]), 400_000_000);
        let core = k.pmu_by_name("cpu_core").unwrap().id;
        let inst_fd = k
            .perf_event_open(
                PerfAttr::counting(core, ArchEvent::Instructions),
                Target::Thread(pid),
                None,
            )
            .unwrap();
        k.ioctl_enable(inst_fd, false).unwrap();
        let mut gp_fds = Vec::new();
        for _ in 0..8 {
            let fd = k
                .perf_event_open(
                    PerfAttr::counting(core, ArchEvent::BranchInstructions),
                    Target::Thread(pid),
                    None,
                )
                .unwrap();
            k.ioctl_enable(fd, false).unwrap();
            gp_fds.push(fd);
        }
        k.install_faults(&FaultPlan::new(5).at(
            0,
            FaultKind::NmiWatchdog {
                steal: ArchEvent::Instructions,
                hold_ns: None,
            },
        ));
        k.run_to_completion(60_000_000_000);
        let inst = k.read_event(inst_fd).unwrap();
        assert!(
            inst.time_running < inst.time_enabled,
            "without its fixed counter, Instructions must rotate: {inst:?}"
        );
        let est = inst.scaled() as f64;
        let err = (est - 400e6).abs() / 400e6;
        assert!(err < 0.25, "scaled estimate off by {:.1}%", err * 100.0);
        let log: Vec<&str> = k.fault_log().iter().map(|r| r.desc.as_str()).collect();
        assert!(log.iter().any(|d| d.contains("watchdog")), "{log:?}");
    }

    #[test]
    fn transient_open_and_read_errors_fire_then_clear() {
        let mut k = raptor();
        let pid = spawn_loop(&mut k, CpuMask::from_cpus([0]), 1_000_000);
        k.install_faults(
            &FaultPlan::new(9)
                .at(
                    0,
                    FaultKind::TransientOpen {
                        errno: TransientErrno::Eintr,
                        count: 2,
                    },
                )
                .at(
                    0,
                    FaultKind::TransientRead {
                        errno: TransientErrno::Ebusy,
                        count: 1,
                    },
                ),
        );
        let core = k.pmu_by_name("cpu_core").unwrap().id;
        let attr = PerfAttr::counting(core, ArchEvent::Instructions);
        let e1 = k
            .perf_event_open(attr, Target::Thread(pid), None)
            .unwrap_err();
        assert_eq!(e1, PerfError::TransientEintr);
        assert!(e1.is_transient());
        let e2 = k
            .perf_event_open(attr, Target::Thread(pid), None)
            .unwrap_err();
        assert!(e2.is_transient());
        // Third attempt goes through: the fault is transient, not sticky.
        let fd = k.perf_event_open(attr, Target::Thread(pid), None).unwrap();
        k.ioctl_enable(fd, false).unwrap();
        k.run_to_completion(1_000_000_000);
        assert_eq!(k.read_event(fd).unwrap_err(), PerfError::TransientEbusy);
        let rv = k.read_event(fd).unwrap();
        assert_eq!(rv.value, 1_000_000, "retried read is exact");
    }

    #[test]
    fn wrap_bias_unwraps_exactly_with_48bit_arithmetic() {
        use simcpu::pmu::COUNTER_MASK;
        let mut k = raptor();
        // Bias every new counter to within 1 M events of the 48-bit limit,
        // so a 5 M-instruction run is guaranteed to wrap.
        k.install_faults(&FaultPlan::new(11).at(
            0,
            FaultKind::CounterWrap {
                headroom: 1_000_000,
            },
        ));
        let pid = spawn_loop(&mut k, CpuMask::from_cpus([0]), 5_000_000);
        let core = k.pmu_by_name("cpu_core").unwrap().id;
        let fd = k
            .perf_event_open(
                PerfAttr::counting(core, ArchEvent::Instructions),
                Target::Thread(pid),
                None,
            )
            .unwrap();
        k.ioctl_enable(fd, false).unwrap();
        let hw0 = k.mmap_userpage(fd).unwrap().hw_value;
        assert!(
            hw0 > COUNTER_MASK - 1_000_000,
            "the register starts near the wrap point: {hw0:#x}"
        );
        k.run_to_completion(10_000_000_000);
        let hw1 = k.mmap_userpage(fd).unwrap().hw_value;
        assert!(hw1 < hw0, "the hardware bits wrapped past 2^48");
        // Modular 48-bit subtraction of the register recovers the exact
        // count, which `read()` returns as is.
        assert_eq!(hw1.wrapping_sub(hw0) & COUNTER_MASK, 5_000_000);
        assert_eq!(k.read_event(fd).unwrap().value, 5_000_000);
        let log: Vec<&str> = k.fault_log().iter().map(|r| r.desc.as_str()).collect();
        assert!(log.iter().any(|d| d.contains("wrap bias")), "{log:?}");
    }

    #[test]
    fn same_seed_fault_plans_replay_identically() {
        let run = |seed: u64| -> (Vec<String>, u64, u64) {
            let mut k = raptor();
            k.install_faults(
                &FaultPlan::new(seed)
                    .at(0, FaultKind::CounterWrap { headroom: 500_000 })
                    .at(
                        5_000_000,
                        FaultKind::CpuOffline {
                            cpu: CpuId(3),
                            down_ns: Some(10_000_000),
                        },
                    ),
            );
            let pid = spawn_loop(&mut k, CpuMask::from_cpus([0]), 3_000_000);
            let core = k.pmu_by_name("cpu_core").unwrap().id;
            let fd = k
                .perf_event_open(
                    PerfAttr::counting(core, ArchEvent::Instructions),
                    Target::Thread(pid),
                    None,
                )
                .unwrap();
            k.ioctl_enable(fd, false).unwrap();
            let base = k.mmap_userpage(fd).unwrap().hw_value;
            k.run_to_completion(30_000_000_000);
            let log = k
                .fault_log()
                .iter()
                .map(|r| format!("{}:{}", r.at_ns, r.desc))
                .collect();
            (log, base, k.read_event(fd).unwrap().value)
        };
        let a = run(1234);
        let b = run(1234);
        assert_eq!(a, b, "same seed ⇒ identical log, bias and final counts");
        let c = run(99);
        assert_ne!(a.1, c.1, "different seed draws a different wrap bias");
    }

    /// Every registry name boots a kernel running that policy.
    #[test]
    fn every_registry_name_boots() {
        for name in SchedName::ALL {
            let k = Kernel::boot(
                MachineSpec::skylake_quad(),
                KernelConfig {
                    sched: name,
                    ..Default::default()
                },
            );
            assert_eq!(k.scheduler.name(), name.as_str());
        }
    }

    /// A random but valid compute phase.
    fn arb_phase() -> impl Strategy<Value = Phase> {
        (
            1_000u64..3_000_000,
            0.0f64..0.6,
            10u64..34,
            0.0f64..1.0,
            0.0f64..1.0,
            0.0f64..1.0,
            0.0f64..8.0,
            0.0f64..1.0,
            0.0f64..0.4,
            0.0f64..0.2,
        )
            .prop_map(|(inst, mem, ws_log, r1, r2, r3, fpi, vf, br, bm)| Phase {
                instructions: inst,
                mem_ref_rate: mem,
                working_set: 1u64 << ws_log,
                reuse_l1: r1,
                reuse_l2: r2,
                reuse_llc: r3,
                flops_per_inst: fpi,
                vector_frac: vf,
                branch_rate: br,
                branch_miss_rate: bm,
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Exec-plan cache invalidation: with DVFS ramps, hotplug and every
        /// fault kind interleaved at random times, the plan-cached kernel
        /// must stay bit-identical to the test-only oracle that recomputes
        /// every model input from scratch (`Kernel::uncached`). A stale
        /// cache entry — e.g. one surviving a frequency change or an
        /// LLC-share shift after a CPU offline — would shift CPI and show
        /// up in the digest, which folds per-CPU perf counts as well as
        /// task stats, frequencies and package energy.
        #[test]
        fn plan_cache_equals_uncached(
            phases in proptest::collection::vec(arb_phase(), 2..6),
            fault_picks in proptest::collection::vec((0usize..7, 1u64..110), 1..8),
            ticks in 40u64..120,
            spin_deadline_ms in 1u64..80,
        ) {
            let mut plan = FaultPlan::new(0xfaceb00c);
            for &(kind, at_ms) in &fault_picks {
                let at = at_ms * 1_000_000;
                plan = match kind {
                    0 => plan.at(at, FaultKind::CpuOffline {
                        cpu: CpuId(1),
                        down_ns: Some(30_000_000),
                    }),
                    1 => plan.at(at, FaultKind::NmiWatchdog {
                        steal: ArchEvent::Instructions,
                        hold_ns: Some(20_000_000),
                    }),
                    2 => plan.at(at, FaultKind::TransientOpen {
                        errno: TransientErrno::Ebusy,
                        count: 1,
                    }),
                    3 => plan.at(at, FaultKind::TransientRead {
                        errno: TransientErrno::Eintr,
                        count: 2,
                    }),
                    4 => plan.at(at, FaultKind::CounterWrap { headroom: 1_000_000 }),
                    5 => plan.at(at, FaultKind::RaplWrapBurst { wraps: 1, extra_uj: 5_000 }),
                    _ => plan.at(at, FaultKind::SysfsFlaky { dur_ns: 10_000_000 }),
                };
            }
            let run = |uncached: bool| -> (u64, u64) {
                let mut k = Kernel::boot(
                    MachineSpec::skylake_quad(),
                    KernelConfig {
                        ..Default::default()
                    },
                );
                k.uncached = uncached;
                let n = k.machine().n_cpus();
                // Worker 0 raises `flag` when its first phase is done.
                let flag = Arc::new(AtomicBool::new(false));
                for (i, ph) in phases.iter().enumerate() {
                    let mask = if i % 2 == 0 {
                        CpuMask::from_cpus([i % n])
                    } else {
                        CpuMask::first_n(n)
                    };
                    let program: Box<dyn Program> = if i == 0 {
                        let (ph, flag) = (ph.clone(), flag.clone());
                        let mut step = 0;
                        Box::new(move |_: &ProgCtx| {
                            step += 1;
                            match step {
                                1 => Op::Compute(ph.clone()),
                                2 => {
                                    flag.store(true, Ordering::Relaxed);
                                    Op::Compute(Phase::scalar(40_000_000))
                                }
                                _ => Op::Exit,
                            }
                        })
                    } else {
                        Box::new(ScriptedProgram::new([
                            Op::Compute(ph.clone()),
                            Op::Compute(Phase::scalar(40_000_000)),
                            Op::Exit,
                        ]))
                    };
                    k.spawn("w", program, mask, 0);
                }
                // Spin-waiters whose answer only another task (the flag)
                // or a later tick (the deadline) can change: the fast
                // path re-installs their chunks where the oracle polls.
                let polls = Arc::new(AtomicU64::new(0));
                k.spawn(
                    "spin-flag",
                    spin_until(polls.clone(), move |_| flag.load(Ordering::Relaxed)),
                    CpuMask::from_cpus([2]),
                    0,
                );
                k.spawn(
                    "spin-deadline",
                    spin_until(polls.clone(), move |c| c.time_ns >= spin_deadline_ms * 1_000_000),
                    CpuMask::first_n(n),
                    0,
                );
                // Per-CPU counting events, opened before the plan can
                // fail an open.
                let mut fds = Vec::new();
                for ci in 0..n {
                    let pmu = k
                        .pmus()
                        .iter()
                        .find(|p| p.kind == PmuKind::CoreHw && p.cpus.contains(CpuId(ci)))
                        .expect("every CPU has a core PMU")
                        .id;
                    for ev in [
                        ArchEvent::Instructions,
                        ArchEvent::Cycles,
                        ArchEvent::LlcMisses,
                        ArchEvent::MemStallCycles,
                        ArchEvent::BranchMisses,
                    ] {
                        let attr = PerfAttr::counting(pmu, ev);
                        let fd = k.perf_event_open(attr, Target::Cpu(CpuId(ci)), None).unwrap();
                        k.ioctl_enable(fd, false).unwrap();
                        fds.push(fd);
                    }
                }
                k.install_faults(&plan);
                for _ in 0..ticks {
                    k.tick();
                }
                if uncached {
                    assert_eq!(k.plan_cache_stats(), (0, 0), "oracle probed the cache");
                }
                // FNV-1a over everything the exec model influences.
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                let mut fold = |v: u64| {
                    for b in v.to_le_bytes() {
                        h ^= b as u64;
                        h = h.wrapping_mul(0x100_0000_01b3);
                    }
                };
                let mut pid = 0;
                while let Some(s) = k.task_stats(Pid(pid)) {
                    fold(s.instructions);
                    fold(s.cycles);
                    fold(s.runtime_ns);
                    fold(s.flops.to_bits());
                    pid += 1;
                }
                for ci in 0..n {
                    fold(k.machine().freq_khz(CpuId(ci)));
                }
                for &fd in &fds {
                    match k.read_event(fd) {
                        Ok(v) => {
                            fold(v.value);
                            fold(v.time_enabled);
                            fold(v.time_running);
                            fold(v.time_matched);
                        }
                        Err(e) => format!("{e:?}").bytes().for_each(|b| fold(b.into())),
                    }
                }
                fold(k.machine().energy_uj(RaplDomain::Package));
                fold(k.fault_log().len() as u64);
                (h, polls.load(Ordering::Relaxed))
            };
            let ((fast, fast_polls), (oracle, oracle_polls)) = (run(false), run(true));
            prop_assert_eq!(fast, oracle);
            prop_assert!(fast_polls <= oracle_polls);
        }
    }

    #[test]
    fn scratch_does_not_leak_between_ticks() {
        // After the only task on cpu0 exits, its per-CPU scratch slots must
        // read as idle — a cpu-target event on cpu0 must stop counting.
        let mut k = raptor();
        spawn_loop(&mut k, CpuMask::from_cpus([0]), 2_000_000);
        let core = k.pmu_by_name("cpu_core").unwrap().id;
        let fd = k
            .perf_event_open(
                PerfAttr::counting(core, ArchEvent::Instructions),
                Target::Cpu(CpuId(0)),
                None,
            )
            .unwrap();
        k.ioctl_enable(fd, false).unwrap();
        k.run_to_completion(1_000_000_000);
        let at_exit = k.read_event(fd).unwrap().value;
        assert_eq!(at_exit, 2_000_000);
        for _ in 0..50 {
            k.tick();
        }
        let after_idle = k.read_event(fd).unwrap().value;
        assert_eq!(
            at_exit, after_idle,
            "stale scratch deltas re-counted on an idle CPU"
        );
    }
}
