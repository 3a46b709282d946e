//! Pluggable scheduling framework (scx-style).
//!
//! Scheduling policy lives behind [`Scheduler`], a trait with four hooks
//! modeled on sched_ext's callback surface:
//!
//! * [`Scheduler::enqueue`] — assign a run-queue sort key to a task that
//!   just became runnable (lower runs first);
//! * [`Scheduler::select_cpu`] — place a queued task on a *free* CPU;
//! * [`Scheduler::dispatch`] — pick a preemption victim for a task that
//!   found no free CPU;
//! * [`Scheduler::tick`] — rebalance already-running tasks (migrations).
//!
//! Hooks see the world through a read-only [`KernelCtx`]: per-CPU dispatch
//! state, idle-CPU lookup, per-task vtime/weight — and, unique to this
//! stack, core types, live DVFS frequencies, thermal caps and the hotplug
//! online mask, the inputs a policy needs to avoid the paper's two
//! pathologies (the Table II E-core straggler and the Table IV thermal
//! inversion).
//!
//! The *mechanics* — waking sleepers, vacating invalid slots, building and
//! draining the run queue, writing task states — live in [`SchedPass`] and
//! are shared by every policy, so a scheduler is pure placement logic.
//! [`CfsLike`] ports the legacy hard-coded policy hook-for-hook and is
//! proven bit-identical by the golden digests in `tests/determinism.rs`.
//!
//! Determinism rules for scheduler authors (DESIGN.md §13):
//!
//! * hooks must be pure functions of `KernelCtx` + internal state that
//!   evolves only from hook calls — no wall clock, no host randomness;
//! * hooks may not allocate in steady state: reuse internal buffers.

pub mod capacity_aware;
pub mod cfs_like;
pub mod thermal_steer;
pub mod vtime_fair;

pub use capacity_aware::CapacityAware;
pub use cfs_like::CfsLike;
pub use thermal_steer::ThermalSteer;
pub use vtime_fair::VtimeFair;

use crate::task::{BlockReason, Pid, Task, TaskState};
use simcpu::types::{CoreType, CpuId, CpuMask, Nanos};
use simtrace::{EventKind, TraceSink};

/// Per-CPU topology facts the scheduler needs.
#[derive(Debug, Clone, Copy)]
pub struct SchedCpu {
    /// Linux-style capacity (0–1024).
    pub capacity: u32,
    /// Index of the SMT sibling, if any.
    pub sibling: Option<usize>,
}

/// Immutable per-task view handed to scheduler hooks.
#[derive(Debug, Clone, Copy)]
pub struct TaskView {
    pub pid: Pid,
    /// Weighted virtual runtime (CFS fairness clock).
    pub vruntime: f64,
    /// CFS load weight (1024 at nice 0).
    pub weight: u64,
    pub nice: i32,
    pub affinity: CpuMask,
    /// Where the task last ran (cache warmth / migration cost).
    pub last_cpu: Option<usize>,
}

impl TaskView {
    fn of(t: &Task) -> TaskView {
        TaskView {
            pid: t.pid,
            vruntime: t.vruntime,
            weight: t.weight,
            nice: t.nice,
            affinity: t.affinity,
            last_cpu: t.last_cpu.map(|c| c.0),
        }
    }
}

/// One rebalance decision from [`Scheduler::tick`]: move the running task
/// `pid` to the free CPU `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    pub pid: Pid,
    pub to: usize,
}

/// Hardware-side inputs to a scheduling pass, assembled by the kernel from
/// the machine each tick.
#[derive(Debug, Clone, Copy)]
pub struct HwView<'a> {
    /// Current cluster frequency per CPU (kHz).
    pub freq_khz: &'a [u64],
    /// Nominal maximum frequency per CPU (kHz).
    pub max_khz: &'a [u64],
    /// Thermal frequency cap per core-type index (`u64::MAX` = uncapped);
    /// indexed by [`crate::task::core_type_index`].
    pub thermal_cap_khz: [u64; 4],
    /// Package temperature, milli-°C.
    pub temp_mc: i64,
    /// Lowest configured thermal trip, milli-°C (`i64::MAX` if none).
    pub first_trip_mc: i64,
    /// Whether any thermal trip is currently latched.
    pub throttling: bool,
}

/// Read-only world view for scheduler hooks, built by [`SchedPass::run`]
/// on every tick.
///
/// `current` and `running` reflect the assignment *as the pass mutates it*:
/// a `select_cpu` call sees every placement made earlier in the same pass.
#[derive(Clone, Copy)]
pub struct KernelCtx<'a> {
    pub now_ns: Nanos,
    pub topo: &'a [SchedCpu],
    /// Hotplug mask; offline CPUs must never be selected.
    pub online: &'a [bool],
    /// Per-CPU dispatch queue head (the running/placed task, if any).
    pub current: &'a [Option<Pid>],
    /// View of the task occupying each CPU (`None` = idle), live as the
    /// pass mutates the assignment.
    pub running: &'a [Option<TaskView>],
    pub core_types: &'a [CoreType],
    pub hw: &'a HwView<'a>,
}

impl<'a> KernelCtx<'a> {
    /// Whether `ci` is online and has no task placed on it.
    pub fn is_free(&self, ci: usize) -> bool {
        self.online[ci] && self.current[ci].is_none()
    }

    /// Whether `task` may run on `ci` right now (online + affinity).
    pub fn allowed(&self, task: &TaskView, ci: usize) -> bool {
        self.online[ci] && task.affinity.contains(CpuId(ci))
    }

    /// Whether `ci`'s SMT sibling currently runs a task.
    pub fn sibling_busy(&self, ci: usize) -> bool {
        self.topo[ci]
            .sibling
            .map(|s| self.current[s].is_some())
            .unwrap_or(false)
    }

    /// Idle-CPU lookup: online CPUs with nothing placed, ascending index.
    pub fn idle_cpus(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.topo.len()).filter(|&ci| self.is_free(ci))
    }

    /// `ci`'s frequency ceiling right now: nominal f_max clamped by the
    /// thermal cap on its core type. Idle CPUs clock down, so policies
    /// comparing *potential* speed should use this, not `hw.freq_khz`.
    pub fn cap_khz(&self, ci: usize) -> u64 {
        let ct = crate::task::core_type_index(self.core_types[ci]);
        self.hw.max_khz[ci].min(self.hw.thermal_cap_khz[ct])
    }
}

/// A pluggable scheduling policy (see module docs for the contract).
pub trait Scheduler: Send {
    /// Registry name (what [`SchedName::parse`] accepts).
    fn name(&self) -> &'static str;

    /// Minimum vruntime lead (ns) before preempting a running task.
    fn granularity_ns(&self) -> u64 {
        3_000_000
    }

    /// Run-queue sort key for an unplaced runnable task; the queue drains
    /// lowest key first (ties break on pid). Default: the CFS vruntime.
    fn enqueue(&mut self, ctx: &KernelCtx, task: &TaskView) -> f64 {
        let _ = ctx;
        task.vruntime
    }

    /// Choose a *free* CPU for `task`, or `None` to leave it queued. The
    /// pass panics if the returned CPU is offline, occupied, or outside
    /// the task's affinity.
    fn select_cpu(&mut self, ctx: &KernelCtx, task: &TaskView) -> Option<usize>;

    /// Preemption: pick an occupied CPU whose running task should yield to
    /// `task` (no free CPU was available). Default: the highest-vruntime
    /// laggard trailing `task` by more than the granularity.
    fn dispatch(&mut self, ctx: &KernelCtx, task: &TaskView) -> Option<usize> {
        let wv = task.vruntime;
        let gran = self.granularity_ns() as f64;
        let mut victim: Option<(f64, usize)> = None;
        for ci in 0..ctx.topo.len() {
            if !ctx.allowed(task, ci) {
                continue;
            }
            if let Some(run) = ctx.running[ci] {
                let rv = run.vruntime;
                if rv > wv + gran && victim.map(|(v, _)| rv > v).unwrap_or(true) {
                    victim = Some((rv, ci));
                }
            }
        }
        victim.map(|(_, ci)| ci)
    }

    /// Rebalance running tasks: push [`Migration`]s to free CPUs. Targets
    /// must be free and allowed; emit conflict-free sets (the pass panics
    /// otherwise). Default: no rebalancing.
    fn tick(&mut self, ctx: &KernelCtx, out: &mut Vec<Migration>) {
        let _ = (ctx, out);
    }
}

/// Scheduler-side scratch plus the policy-independent pass mechanics.
///
/// Owned by the kernel; every buffer is reused across ticks so the
/// steady-state hot loop stays allocation-free.
#[derive(Default)]
pub struct SchedPass {
    waiting: Vec<(f64, Pid)>,
    queue: Vec<(f64, Pid)>,
    running: Vec<Option<TaskView>>,
    migrations: Vec<Migration>,
}

impl SchedPass {
    /// Recompute the CPU→task assignment for one tick by driving `sched`'s
    /// hooks over the shared mechanics (wakeups, vacating, queueing,
    /// placement, preemption, rebalancing, state write-back).
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &mut self,
        sched: &mut dyn Scheduler,
        topo: &[SchedCpu],
        online: &[bool],
        core_types: &[CoreType],
        hw: &HwView,
        tasks: &mut [Option<Task>],
        current: &mut [Option<Pid>],
        now_ns: Nanos,
        trace: &mut TraceSink,
    ) {
        assert_eq!(topo.len(), current.len());
        assert_eq!(topo.len(), online.len());

        // 1. Wake sleepers whose deadline passed.
        let gran = sched.granularity_ns();
        let mut min_vruntime = f64::INFINITY;
        for t in tasks.iter().flatten() {
            if t.is_runnable() {
                min_vruntime = min_vruntime.min(t.vruntime);
            }
        }
        if !min_vruntime.is_finite() {
            min_vruntime = 0.0;
        }
        for t in tasks.iter_mut().flatten() {
            if let TaskState::Blocked(BlockReason::SleepUntil(when)) = t.state {
                if now_ns >= when {
                    t.state = TaskState::Runnable;
                    // CFS-style wakeup placement on the vruntime clock: do
                    // not let a long sleeper starve everyone.
                    t.vruntime = t.vruntime.max(min_vruntime - gran as f64);
                }
            }
        }

        // 2. Drop assignments whose task is gone/blocked/exited, whose
        //    affinity no longer allows its current CPU (sched_setaffinity
        //    migrates a running task immediately), or whose CPU went
        //    offline.
        for (ci, slot) in current.iter_mut().enumerate() {
            if let Some(pid) = *slot {
                let keep = online[ci]
                    && tasks
                        .get(pid.0 as usize)
                        .and_then(|t| t.as_ref())
                        .map(|t| t.is_runnable() && t.affinity.contains(CpuId(ci)))
                        .unwrap_or(false);
                if !keep {
                    if let Some(t) = tasks.get_mut(pid.0 as usize).and_then(|t| t.as_mut()) {
                        if t.is_runnable() {
                            t.state = TaskState::Runnable;
                        }
                    }
                    *slot = None;
                }
            }
        }

        // Per-CPU task views, kept in sync with `current` through every
        // mutation below so hooks always see the live assignment.
        let mut running = std::mem::take(&mut self.running);
        running.clear();
        running.extend(current.iter().map(|slot| {
            slot.map(|pid| {
                TaskView::of(tasks[pid.0 as usize].as_ref().expect("current pid exists"))
            })
        }));

        // 3. Gather unplaced runnable tasks, lowest enqueue key first. The
        //    scratch buffers are taken out of `self` for the duration
        //    (restored at the end) so steady-state ticks do not allocate.
        let mut waiting = std::mem::take(&mut self.waiting);
        let mut queue = std::mem::take(&mut self.queue);
        waiting.clear();
        for t in tasks.iter().flatten() {
            if t.is_runnable() && !current.contains(&Some(t.pid)) {
                let view = TaskView::of(t);
                let ctx = KernelCtx {
                    now_ns,
                    topo,
                    online,
                    current,
                    running: &running,
                    core_types,
                    hw,
                };
                waiting.push((sched.enqueue(&ctx, &view), t.pid));
            }
        }
        // Unstable sort (no allocation); `waiting` is built in pid order, so
        // the explicit pid tiebreak reproduces the old stable order exactly.
        waiting.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));

        // 4. Place waiting tasks on free CPUs (one select_cpu per task).
        queue.clear();
        queue.extend_from_slice(&waiting);
        for &(_, pid) in queue.iter() {
            let view = TaskView::of(tasks[pid.0 as usize].as_ref().expect("task exists"));
            let ctx = KernelCtx {
                now_ns,
                topo,
                online,
                current,
                running: &running,
                core_types,
                hw,
            };
            if let Some(ci) = sched.select_cpu(&ctx, &view) {
                assert!(
                    ci < current.len() && online[ci] && current[ci].is_none(),
                    "{}: select_cpu returned unusable cpu{ci}",
                    sched.name()
                );
                assert!(
                    view.affinity.contains(CpuId(ci)),
                    "{}: select_cpu violated affinity (pid {} on cpu{ci})",
                    sched.name(),
                    pid.0
                );
                current[ci] = Some(pid);
                running[ci] = Some(view);
                waiting.retain(|&(_, p)| p != pid);
                trace.record(now_ns, EventKind::SchedDispatch, ci as u32, pid.0 as u64, 0);
            }
        }

        // 5. Preempt for the still-waiting (one dispatch per waiting task
        //    per tick).
        for &(_, pid) in waiting.iter() {
            let view = TaskView::of(tasks[pid.0 as usize].as_ref().expect("task exists"));
            let ctx = KernelCtx {
                now_ns,
                topo,
                online,
                current,
                running: &running,
                core_types,
                hw,
            };
            if let Some(ci) = sched.dispatch(&ctx, &view) {
                assert!(
                    ci < current.len() && online[ci] && current[ci].is_some(),
                    "{}: dispatch returned unusable cpu{ci}",
                    sched.name()
                );
                assert!(
                    view.affinity.contains(CpuId(ci)),
                    "{}: dispatch violated affinity (pid {} on cpu{ci})",
                    sched.name(),
                    pid.0
                );
                let old = current[ci].take().unwrap();
                current[ci] = Some(pid);
                running[ci] = Some(view);
                trace.record(
                    now_ns,
                    EventKind::SchedPreempt,
                    ci as u32,
                    pid.0 as u64,
                    old.0 as u64,
                );
            }
        }

        // 6. Rebalance running tasks (tick hook), applied in emit order.
        let mut migrations = std::mem::take(&mut self.migrations);
        migrations.clear();
        {
            let ctx = KernelCtx {
                now_ns,
                topo,
                online,
                current,
                running: &running,
                core_types,
                hw,
            };
            sched.tick(&ctx, &mut migrations);
        }
        for m in migrations.drain(..) {
            let from = current
                .iter()
                .position(|&c| c == Some(m.pid))
                .unwrap_or_else(|| {
                    panic!(
                        "{}: tick migrated non-running pid {}",
                        sched.name(),
                        m.pid.0
                    )
                });
            assert!(
                m.to < current.len() && online[m.to] && current[m.to].is_none(),
                "{}: tick migration target cpu{} unusable",
                sched.name(),
                m.to
            );
            let view = running[from].expect("running view in sync");
            assert!(
                view.affinity.contains(CpuId(m.to)),
                "{}: tick migration violated affinity (pid {} on cpu{})",
                sched.name(),
                m.pid.0,
                m.to
            );
            current[from] = None;
            running[from] = None;
            current[m.to] = Some(m.pid);
            running[m.to] = Some(view);
            trace.record(
                now_ns,
                EventKind::SchedRebalance,
                m.to as u32,
                m.pid.0 as u64,
                from as u64,
            );
        }
        self.migrations = migrations;
        self.waiting = waiting;
        self.queue = queue;
        self.running = running;

        // 7. Write back task states: dispossessed tasks go back to the run
        //    queue, everything placed is Running where `current` says.
        for t in tasks.iter_mut().flatten() {
            if let TaskState::Running(cpu) = t.state {
                if current.get(cpu.0).copied().flatten() != Some(t.pid) {
                    t.state = TaskState::Runnable;
                }
            }
        }
        for (ci, slot) in current.iter().enumerate() {
            if let Some(pid) = *slot {
                if let Some(t) = tasks[pid.0 as usize].as_mut() {
                    t.state = TaskState::Running(CpuId(ci));
                }
            }
        }
    }
}

/// Registry of built-in schedulers: the `--sched` namespace of `simperf`
/// and `metricsd`.
///
/// `cfs` and `cfs_unaware` replace the legacy `Scheduler::new(hetero_aware:
/// bool)` flag: they are the same CFS-like policy with capacity awareness
/// on (the default, post-ITMT/EAS kernels) or off (pre-hybrid kernels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedName {
    /// Legacy default: CFS-like, capacity-aware placement.
    #[default]
    Cfs,
    /// CFS-like with capacity awareness off (low-index placement).
    CfsUnaware,
    /// Pure global vtime fair queue, no topology heuristics.
    Vtime,
    /// big.LITTLE capacity + SMT-share placement with migration cost.
    Capacity,
    /// Thermal-headroom steering away from throttling core types.
    Thermal,
}

impl SchedName {
    /// Every registered scheduler, tournament order.
    pub const ALL: [SchedName; 5] = [
        SchedName::Cfs,
        SchedName::CfsUnaware,
        SchedName::Vtime,
        SchedName::Capacity,
        SchedName::Thermal,
    ];

    /// Registry name (what `parse` accepts).
    pub fn as_str(self) -> &'static str {
        match self {
            SchedName::Cfs => "cfs",
            SchedName::CfsUnaware => "cfs_unaware",
            SchedName::Vtime => "vtime",
            SchedName::Capacity => "capacity",
            SchedName::Thermal => "thermal",
        }
    }

    /// Parse a registry name: whitespace tolerated, anything else unknown
    /// rejected so a `--sched` typo exits instead of silently defaulting.
    pub fn parse(s: &str) -> Option<SchedName> {
        match s.trim() {
            "cfs" => Some(SchedName::Cfs),
            "cfs_unaware" => Some(SchedName::CfsUnaware),
            "vtime" => Some(SchedName::Vtime),
            "capacity" => Some(SchedName::Capacity),
            "thermal" => Some(SchedName::Thermal),
            _ => None,
        }
    }

    /// Instantiate the policy.
    pub fn instantiate(self) -> Box<dyn Scheduler + Send> {
        match self {
            SchedName::Cfs => Box::new(CfsLike::new(true)),
            SchedName::CfsUnaware => Box::new(CfsLike::new(false)),
            SchedName::Vtime => Box::new(VtimeFair),
            SchedName::Capacity => Box::new(CapacityAware::default()),
            SchedName::Thermal => Box::new(ThermalSteer::default()),
        }
    }
}

/// A [`HwView`] with no DVFS/thermal signal, for policy unit tests.
pub fn hw_for_tests(n: usize) -> (Vec<u64>, Vec<u64>) {
    (vec![1_000_000; n], vec![1_000_000; n])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::ScriptedProgram;

    pub(crate) fn topo_hybrid() -> Vec<SchedCpu> {
        // 2 P cpus (SMT pair) + 2 E cpus.
        vec![
            SchedCpu {
                capacity: 1024,
                sibling: Some(1),
            },
            SchedCpu {
                capacity: 1024,
                sibling: Some(0),
            },
            SchedCpu {
                capacity: 446,
                sibling: None,
            },
            SchedCpu {
                capacity: 446,
                sibling: None,
            },
        ]
    }

    pub(crate) fn mk_task(pid: u32, affinity: CpuMask) -> Option<Task> {
        Some(Task::new(
            Pid(pid),
            format!("t{pid}"),
            Box::new(ScriptedProgram::new([])),
            affinity,
            0,
        ))
    }

    pub(crate) fn table(n: u32, affinity: CpuMask) -> Vec<Option<Task>> {
        (0..n).map(|i| mk_task(i, affinity)).collect()
    }

    /// Drive one pass with every CPU online and a flat hw view.
    pub(crate) fn assign(
        sched: &mut dyn Scheduler,
        topo: &[SchedCpu],
        tasks: &mut [Option<Task>],
        current: &mut [Option<Pid>],
        now_ns: Nanos,
    ) {
        assign_masked(sched, topo, &vec![true; topo.len()], tasks, current, now_ns);
    }

    pub(crate) fn assign_masked(
        sched: &mut dyn Scheduler,
        topo: &[SchedCpu],
        online: &[bool],
        tasks: &mut [Option<Task>],
        current: &mut [Option<Pid>],
        now_ns: Nanos,
    ) {
        let n = topo.len();
        let (freq, max) = hw_for_tests(n);
        let hw = HwView {
            freq_khz: &freq,
            max_khz: &max,
            thermal_cap_khz: [u64::MAX; 4],
            temp_mc: 45_000,
            first_trip_mc: i64::MAX,
            throttling: false,
        };
        let core_types: Vec<CoreType> = topo
            .iter()
            .map(|c| {
                if c.capacity >= 1024 {
                    CoreType::Performance
                } else {
                    CoreType::Efficiency
                }
            })
            .collect();
        let mut pass = SchedPass::default();
        let mut trace = TraceSink::new(&simtrace::TraceConfig::default());
        pass.run(
            sched,
            topo,
            online,
            &core_types,
            &hw,
            tasks,
            current,
            now_ns,
            &mut trace,
        );
    }

    #[test]
    fn registry_parses() {
        assert_eq!(SchedName::parse("cfs"), Some(SchedName::Cfs));
        assert_eq!(SchedName::parse("cfs_unaware"), Some(SchedName::CfsUnaware));
        assert_eq!(SchedName::parse("vtime"), Some(SchedName::Vtime));
        assert_eq!(SchedName::parse("capacity"), Some(SchedName::Capacity));
        assert_eq!(SchedName::parse("thermal"), Some(SchedName::Thermal));
        assert_eq!(SchedName::parse(" cfs "), Some(SchedName::Cfs));
        // Strict: unknown names, case drift and empty are rejected so a
        // `--sched` typo exits instead of silently defaulting.
        assert_eq!(SchedName::parse("CFS"), None);
        assert_eq!(SchedName::parse("cfs-unaware"), None);
        assert_eq!(SchedName::parse("fifo"), None);
        assert_eq!(SchedName::parse(""), None);
        assert_eq!(SchedName::default(), SchedName::Cfs);
    }

    #[test]
    fn registry_names_round_trip() {
        for name in SchedName::ALL {
            assert_eq!(SchedName::parse(name.as_str()), Some(name));
            assert_eq!(name.instantiate().name(), name.as_str());
        }
    }

    #[test]
    fn every_scheduler_respects_offline_and_affinity() {
        for name in SchedName::ALL {
            let topo = topo_hybrid();
            let online = vec![false, true, true, true];
            let mut sched = name.instantiate();
            let mut tasks = table(3, CpuMask::from_cpus([0, 1, 3]));
            let mut cur = vec![None; 4];
            for step in 0..4u64 {
                assign_masked(
                    &mut *sched,
                    &topo,
                    &online,
                    &mut tasks,
                    &mut cur,
                    step * 1_000_000,
                );
                assert_eq!(cur[0], None, "{}: placed on offline cpu0", name.as_str());
                assert_eq!(cur[2], None, "{}: violated affinity (cpu2)", name.as_str());
            }
        }
    }

    #[test]
    fn sleeper_wakeup_clamps_vruntime() {
        for name in SchedName::ALL {
            let topo = topo_hybrid();
            let mut sched = name.instantiate();
            let mut tasks = table(2, CpuMask::first_n(4));
            tasks[0].as_mut().unwrap().vruntime = 90_000_000.0;
            tasks[1].as_mut().unwrap().state =
                TaskState::Blocked(BlockReason::SleepUntil(5_000_000));
            tasks[1].as_mut().unwrap().vruntime = 0.0;
            let mut cur = vec![None; 4];
            assign(&mut *sched, &topo, &mut tasks, &mut cur, 10_000_000);
            let woken = tasks[1].as_ref().unwrap().vruntime;
            assert_eq!(
                woken,
                90_000_000.0 - sched.granularity_ns() as f64,
                "{}: wakeup clamp",
                name.as_str()
            );
        }
    }
}
