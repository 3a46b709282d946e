//! Tasks: simulated processes/threads.
//!
//! A task executes a [`Program`]: a pull-based stream of [`Op`]s. Compute
//! and spin-wait ops carry a [`Phase`] describing the instruction mix;
//! control ops model the synchronization and instrumentation structure the
//! paper's workloads need — barriers for HPL's lockstep iterations, and
//! *hooks*, the points where an instrumented application calls into the
//! measurement library (`PAPI_start()` / `PAPI_stop()` calipers around code
//! regions).
//!
//! Programs are closures so workloads can share state (work queues,
//! counters) through captured `Arc`s — that is how the hetero-aware HPL
//! partitioner hands out chunks dynamically.

use simcpu::phase::Phase;
use simcpu::types::{CpuId, CpuMask, Nanos};
use std::collections::VecDeque;

/// Process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u32);

impl std::fmt::Display for Pid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// Identifier of an instrumentation hook (caliper point) within a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HookId(pub u32);

/// One operation pulled from a program.
#[derive(Debug, Clone)]
pub enum Op {
    /// Execute a stretch of computation.
    Compute(Phase),
    /// Busy-wait: execute the phase like `Compute`, as one chunk of a spin
    /// loop. By returning it the program promises that, until another task
    /// has run or simulated time has moved, it would answer every poll with
    /// this same op. The kernel relies on that: within one CPU's share of a
    /// tick it re-installs the phase after each chunk instead of polling
    /// again (ops injected ahead of the program still come first).
    Spin(Phase),
    /// Wait at barrier `id` until all registered participants arrive.
    Barrier(u32),
    /// Pause and let the host (the instrumented application's measurement
    /// code) run; resumes when the host calls [`crate::Kernel::resume`].
    Call(HookId),
    /// Sleep for the given simulated duration.
    Sleep(Nanos),
    /// Terminate the task.
    Exit,
}

/// Context handed to a program when it is asked for its next op.
#[derive(Debug, Clone, Copy)]
pub struct ProgCtx {
    pub pid: Pid,
    pub time_ns: Nanos,
    /// CPU the task was last running on (where the next op will start).
    pub cpu: CpuId,
}

/// A program: a pull-based op stream.
///
/// Implemented for any `FnMut(&ProgCtx) -> Op`, which is the usual way to
/// write one; stateful workloads capture their shared state.
pub trait Program: Send {
    fn next(&mut self, ctx: &ProgCtx) -> Op;
}

impl<F: FnMut(&ProgCtx) -> Op + Send> Program for F {
    fn next(&mut self, ctx: &ProgCtx) -> Op {
        self(ctx)
    }
}

/// A program that plays a fixed list of ops, then exits.
pub struct ScriptedProgram {
    ops: VecDeque<Op>,
}

impl ScriptedProgram {
    pub fn new(ops: impl IntoIterator<Item = Op>) -> ScriptedProgram {
        ScriptedProgram {
            ops: ops.into_iter().collect(),
        }
    }
}

impl Program for ScriptedProgram {
    fn next(&mut self, _ctx: &ProgCtx) -> Op {
        self.ops.pop_front().unwrap_or(Op::Exit)
    }
}

/// Why a task is blocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockReason {
    /// Waiting at a barrier.
    Barrier(u32),
    /// In an instrumentation hook; waiting for the host to resume it.
    Hook(HookId),
    /// Sleeping until the given time.
    SleepUntil(Nanos),
}

/// Scheduler-visible task state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    Runnable,
    Running(CpuId),
    Blocked(BlockReason),
    Exited,
}

/// Cumulative statistics for one task.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TaskStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Core cycles consumed.
    pub cycles: u64,
    /// Wall time spent running on a CPU, ns.
    pub runtime_ns: u64,
    /// Double-precision FLOPs performed.
    pub flops: f64,
    /// Number of cross-CPU migrations.
    pub migrations: u64,
    /// Number of migrations that changed core *type* (P↔E).
    pub core_type_migrations: u64,
    /// Minor page faults (first-touch working-set model).
    pub page_faults: u64,
    /// Instructions retired per core type, indexed like
    /// `[Performance, Efficiency, Mid, Uniform]`.
    pub instructions_by_type: [u64; 4],
    /// Runtime per core type, same indexing.
    pub runtime_ns_by_type: [u64; 4],
}

/// Index into the per-core-type arrays of [`TaskStats`].
pub fn core_type_index(t: simcpu::types::CoreType) -> usize {
    match t {
        simcpu::types::CoreType::Performance => 0,
        simcpu::types::CoreType::Efficiency => 1,
        simcpu::types::CoreType::Mid => 2,
        simcpu::types::CoreType::Uniform => 3,
    }
}

/// Nice level → CFS load weight (the kernel's `sched_prio_to_weight`,
/// abbreviated: each nice step is ×1.25).
pub fn nice_to_weight(nice: i32) -> u64 {
    const NICE0: f64 = 1024.0;
    (NICE0 / 1.25f64.powi(nice)) as u64
}

/// The kernel-internal task control block.
pub struct Task {
    pub pid: Pid,
    pub name: String,
    pub program: Box<dyn Program>,
    pub affinity: CpuMask,
    pub nice: i32,
    pub weight: u64,
    pub state: TaskState,
    /// The compute phase currently being executed, if any.
    pub current: Option<Phase>,
    /// Ops injected ahead of the program (e.g. measurement-library
    /// overhead instructions charged by PAPI start/stop).
    pub injected: VecDeque<Op>,
    /// CFS virtual runtime (ns, weight-scaled).
    pub vruntime: f64,
    /// CPU the task last ran on (for migration accounting + cache warmth).
    pub last_cpu: Option<CpuId>,
    /// High-water mark of 4 KiB pages the task has ever touched — the
    /// address-space size backing the first-touch page-fault model.
    pub touched_pages: u64,
    pub stats: TaskStats,
}

impl Task {
    pub fn new(
        pid: Pid,
        name: String,
        program: Box<dyn Program>,
        affinity: CpuMask,
        nice: i32,
    ) -> Task {
        Task {
            pid,
            name,
            program,
            affinity,
            nice,
            weight: nice_to_weight(nice),
            state: TaskState::Runnable,
            current: None,
            injected: VecDeque::new(),
            vruntime: 0.0,
            last_cpu: None,
            touched_pages: 0,
            stats: TaskStats::default(),
        }
    }

    /// Whether the scheduler may place this task on a CPU right now.
    pub fn is_runnable(&self) -> bool {
        matches!(self.state, TaskState::Runnable | TaskState::Running(_))
    }

    /// Charge `dt` of runtime to the vruntime clock.
    pub fn charge_vruntime(&mut self, dt_ns: Nanos) {
        self.vruntime += dt_ns as f64 * 1024.0 / self.weight.max(1) as f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcpu::types::CoreType;

    #[test]
    fn nice_weights() {
        assert_eq!(nice_to_weight(0), 1024);
        assert!(nice_to_weight(5) < nice_to_weight(0));
        assert!(nice_to_weight(-5) > nice_to_weight(0));
        // Each step ≈ ×1.25.
        let r = nice_to_weight(-1) as f64 / nice_to_weight(0) as f64;
        assert!((r - 1.25).abs() < 0.01);
    }

    #[test]
    fn scripted_program_plays_then_exits() {
        let mut p = ScriptedProgram::new([Op::Barrier(1), Op::Exit]);
        let ctx = ProgCtx {
            pid: Pid(1),
            time_ns: 0,
            cpu: CpuId(0),
        };
        assert!(matches!(p.next(&ctx), Op::Barrier(1)));
        assert!(matches!(p.next(&ctx), Op::Exit));
        assert!(matches!(p.next(&ctx), Op::Exit)); // idempotent
    }

    #[test]
    fn closure_is_a_program() {
        let mut n = 0;
        let mut p = move |_: &ProgCtx| {
            n += 1;
            if n > 2 {
                Op::Exit
            } else {
                Op::Compute(Phase::scalar(100))
            }
        };
        let ctx = ProgCtx {
            pid: Pid(1),
            time_ns: 0,
            cpu: CpuId(0),
        };
        assert!(matches!(Program::next(&mut p, &ctx), Op::Compute(_)));
    }

    #[test]
    fn vruntime_scales_with_weight() {
        let mk = |nice| {
            Task::new(
                Pid(1),
                "t".into(),
                Box::new(ScriptedProgram::new([])),
                CpuMask::first_n(1),
                nice,
            )
        };
        let mut heavy = mk(-5);
        let mut light = mk(5);
        heavy.charge_vruntime(1_000_000);
        light.charge_vruntime(1_000_000);
        assert!(heavy.vruntime < light.vruntime);
    }

    #[test]
    fn core_type_indices_distinct() {
        let idx: Vec<usize> = [
            CoreType::Performance,
            CoreType::Efficiency,
            CoreType::Mid,
            CoreType::Uniform,
        ]
        .iter()
        .map(|&t| core_type_index(t))
        .collect();
        let mut d = idx.clone();
        d.sort();
        d.dedup();
        assert_eq!(d.len(), 4);
    }
}
