//! Seeded, deterministic fault injection for the simulated perf stack.
//!
//! A [`FaultPlan`] is a declarative schedule of fault events plus a seed;
//! installing the same plan on identically-configured kernels replays the
//! same faults byte-for-byte — same injection times, same drawn wrap
//! biases, same log. That determinism is what makes degradation *testable*:
//! a run under faults can be asserted against exact expected counts, and
//! two runs can be diffed.
//!
//! Fault classes and where they bite (each absorbed at a different layer):
//!
//! * [`FaultKind::CpuOffline`] — hotplug. The scheduler stops placing work
//!   on the CPU, per-CPU perf contexts freeze (`time_running` *and*
//!   `time_enabled` stop, as on Linux), and sysfs `online`/PMU `cpus`
//!   masks shrink.
//! * [`FaultKind::NmiWatchdog`] — the kernel claims a fixed counter for
//!   itself. User groups that relied on it spill onto general counters
//!   and, under pressure, multiplex.
//! * [`FaultKind::TransientOpen`] / [`FaultKind::TransientRead`] — the
//!   next N calls fail `EINTR`/`EBUSY`. Callers with a retry loop never
//!   notice; callers without one see a transient [`PerfError`].
//! * [`FaultKind::CounterWrap`] — the hardware registers of newly opened
//!   core events start near the 48-bit limit and wrap mid-run. As on
//!   Linux, `read()` returns the 64-bit count and absorbs the wrap; only
//!   the rdpmc userpage carries the wrapped bits, and its readers recover
//!   exact counts by sign-extending them from `pmc_width`.
//! * [`FaultKind::RaplWrapBurst`] — injects whole 32-bit wraps of package
//!   energy between two samples, the blind spot of naive RAPL deltas.
//! * [`FaultKind::SysfsFlaky`] — every sysfs read in a time window fails,
//!   as seen with racing hotplug or overloaded hwmon drivers.
//!
//! The kernel owns a [`FaultState`] built from the plan and consults it at
//! tick boundaries and syscall entry; this module holds no kernel state
//! itself.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simcpu::events::ArchEvent;
use simcpu::pmu::COUNTER_MASK;
use simcpu::types::{CpuId, Nanos};

use crate::perf::PerfError;

/// Which errno a transient syscall failure surfaces as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransientErrno {
    /// Interrupted by a signal mid-call.
    Eintr,
    /// Resource momentarily claimed elsewhere.
    Ebusy,
}

impl TransientErrno {
    pub fn to_perf_error(self) -> PerfError {
        match self {
            TransientErrno::Eintr => PerfError::TransientEintr,
            TransientErrno::Ebusy => PerfError::TransientEbusy,
        }
    }
}

/// One injectable fault class. See the module docs for semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Take a CPU offline; back online after `down_ns` (forever if `None`).
    CpuOffline { cpu: CpuId, down_ns: Option<Nanos> },
    /// The NMI watchdog steals the fixed counter for `steal`; released
    /// after `hold_ns` (never, if `None`).
    NmiWatchdog {
        steal: ArchEvent,
        hold_ns: Option<Nanos>,
    },
    /// The next `count` `perf_event_open` calls fail with `errno`.
    TransientOpen { errno: TransientErrno, count: u32 },
    /// The next `count` perf `read` calls fail with `errno`.
    TransientRead { errno: TransientErrno, count: u32 },
    /// Arm 48-bit counter wrap: the hardware register of every core
    /// counting event opened from this point starts within `headroom`
    /// counts of the 48-bit limit (exact offset drawn from the plan's
    /// seeded RNG). `read()` still returns the exact 64-bit count; the
    /// wrapped bits show on the rdpmc userpage only.
    CounterWrap { headroom: u64 },
    /// Inject `wraps` full 32-bit wraps plus `extra_uj` of package energy
    /// into the RAPL counters in one tick.
    RaplWrapBurst { wraps: u32, extra_uj: u64 },
    /// All sysfs reads fail for `dur_ns` starting at the fault time.
    SysfsFlaky { dur_ns: Nanos },
}

/// A fault and when it fires (simulated kernel time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    pub at_ns: Nanos,
    pub kind: FaultKind,
}

/// A seed plus a schedule of fault events. Build with [`FaultPlan::new`]
/// and chain [`FaultPlan::at`]; install via `Kernel::install_faults`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    pub seed: u64,
    schedule: Vec<FaultEvent>,
}

impl FaultPlan {
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            schedule: Vec::new(),
        }
    }

    /// Add a fault firing at `at_ns`. Order of calls is irrelevant; the
    /// schedule is replayed in time order (ties in insertion order).
    pub fn at(mut self, at_ns: Nanos, kind: FaultKind) -> FaultPlan {
        self.schedule.push(FaultEvent { at_ns, kind });
        self
    }

    pub fn schedule(&self) -> &[FaultEvent] {
        &self.schedule
    }
}

/// One line of the fault log: what was injected, and when. Two runs of
/// the same plan produce identical logs — the determinism contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    pub at_ns: Nanos,
    pub desc: String,
}

/// Deferred fault reversal (re-online, watchdog release).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Undo {
    Reonline(CpuId),
    WatchdogRelease(ArchEvent),
}

/// Kernel-side runtime state for an installed plan.
pub(crate) struct FaultState {
    rng: StdRng,
    /// Plan events, sorted by time; `next` is the replay cursor.
    pending: Vec<FaultEvent>,
    next: usize,
    /// Scheduled reversals, kept sorted by time.
    undos: Vec<(Nanos, Undo)>,
    /// Fixed counters currently held by the watchdog.
    pub(crate) watchdog_stolen: Vec<ArchEvent>,
    open_fail: Option<(TransientErrno, u32)>,
    read_fail: Option<(TransientErrno, u32)>,
    wrap_headroom: Option<u64>,
    /// Precomputed `[start, end)` windows in which sysfs reads fail.
    /// Windows are a pure function of time so `sysfs::read` can consult
    /// them through a shared kernel reference.
    sysfs_windows: Vec<(Nanos, Nanos)>,
    log: Vec<FaultRecord>,
}

impl FaultState {
    pub(crate) fn new(plan: &FaultPlan) -> FaultState {
        let mut pending = plan.schedule.clone();
        pending.sort_by_key(|e| e.at_ns);
        let sysfs_windows = pending
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::SysfsFlaky { dur_ns } => Some((e.at_ns, e.at_ns + dur_ns)),
                _ => None,
            })
            .collect();
        FaultState {
            rng: StdRng::seed_from_u64(plan.seed),
            pending,
            next: 0,
            undos: Vec::new(),
            watchdog_stolen: Vec::new(),
            open_fail: None,
            read_fail: None,
            wrap_headroom: None,
            sysfs_windows,
            log: Vec::new(),
        }
    }

    /// Next plan event due at or before `now`, advancing the cursor.
    pub(crate) fn pop_due(&mut self, now: Nanos) -> Option<FaultEvent> {
        let e = self.pending.get(self.next)?;
        if e.at_ns <= now {
            self.next += 1;
            Some(e.clone())
        } else {
            None
        }
    }

    pub(crate) fn push_undo(&mut self, at_ns: Nanos, undo: Undo) {
        self.undos.push((at_ns, undo));
        self.undos.sort_by_key(|&(t, _)| t);
    }

    /// Next reversal due at or before `now`.
    pub(crate) fn pop_due_undo(&mut self, now: Nanos) -> Option<(Nanos, Undo)> {
        if self.undos.first().is_some_and(|&(t, _)| t <= now) {
            Some(self.undos.remove(0))
        } else {
            None
        }
    }

    pub(crate) fn arm_open_failures(&mut self, errno: TransientErrno, count: u32) {
        let prior = match self.open_fail {
            Some((e, n)) if e == errno => n,
            _ => 0,
        };
        self.open_fail = Some((errno, prior + count));
    }

    pub(crate) fn arm_read_failures(&mut self, errno: TransientErrno, count: u32) {
        let prior = match self.read_fail {
            Some((e, n)) if e == errno => n,
            _ => 0,
        };
        self.read_fail = Some((errno, prior + count));
    }

    /// Consume one armed open failure, if any.
    pub(crate) fn take_open_failure(&mut self) -> Option<TransientErrno> {
        Self::take_failure(&mut self.open_fail)
    }

    /// Consume one armed read failure, if any.
    pub(crate) fn take_read_failure(&mut self) -> Option<TransientErrno> {
        Self::take_failure(&mut self.read_fail)
    }

    fn take_failure(slot: &mut Option<(TransientErrno, u32)>) -> Option<TransientErrno> {
        let (errno, left) = (*slot)?;
        *slot = if left > 1 {
            Some((errno, left - 1))
        } else {
            None
        };
        Some(errno)
    }

    pub(crate) fn arm_wrap(&mut self, headroom: u64) {
        self.wrap_headroom = Some(headroom.max(1));
    }

    /// Wrap bias for a newly opened core counting event: within the armed
    /// headroom of the 48-bit limit, or 0 when no wrap fault is armed.
    /// Draws advance the seeded RNG, so open order fixes the biases.
    pub(crate) fn draw_wrap_bias(&mut self) -> u64 {
        match self.wrap_headroom {
            Some(h) => COUNTER_MASK - self.rng.gen_range_u64(0, h),
            None => 0,
        }
    }

    /// Whether sysfs reads fail at `now` (pure in time — usable through a
    /// shared reference).
    pub(crate) fn sysfs_faulty_at(&self, now: Nanos) -> bool {
        self.sysfs_windows
            .iter()
            .any(|&(s, e)| (s..e).contains(&now))
    }

    pub(crate) fn record(&mut self, at_ns: Nanos, desc: impl Into<String>) {
        self.log.push(FaultRecord {
            at_ns,
            desc: desc.into(),
        });
    }

    pub(crate) fn log(&self) -> &[FaultRecord] {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_replays_in_time_order() {
        let plan = FaultPlan::new(7)
            .at(500, FaultKind::SysfsFlaky { dur_ns: 10 })
            .at(
                100,
                FaultKind::CpuOffline {
                    cpu: CpuId(2),
                    down_ns: None,
                },
            );
        let mut fs = FaultState::new(&plan);
        assert!(fs.pop_due(50).is_none());
        let first = fs.pop_due(1000).unwrap();
        assert_eq!(first.at_ns, 100);
        let second = fs.pop_due(1000).unwrap();
        assert_eq!(second.at_ns, 500);
        assert!(fs.pop_due(1000).is_none());
    }

    #[test]
    fn wrap_bias_is_seed_deterministic_and_near_limit() {
        let plan = FaultPlan::new(42).at(0, FaultKind::CounterWrap { headroom: 1 << 20 });
        let draw = |seed: u64| {
            let mut fs = FaultState::new(
                &FaultPlan::new(seed).at(0, FaultKind::CounterWrap { headroom: 1 << 20 }),
            );
            fs.arm_wrap(1 << 20);
            (0..4).map(|_| fs.draw_wrap_bias()).collect::<Vec<_>>()
        };
        let a = draw(plan.seed);
        let b = draw(plan.seed);
        assert_eq!(a, b);
        for bias in &a {
            assert!(*bias > COUNTER_MASK - (1 << 20) && *bias <= COUNTER_MASK);
        }
        assert_ne!(draw(43), a, "different seeds give different biases");
    }

    #[test]
    fn transient_failures_count_down() {
        let mut fs = FaultState::new(&FaultPlan::new(1));
        fs.arm_read_failures(TransientErrno::Eintr, 2);
        assert_eq!(fs.take_read_failure(), Some(TransientErrno::Eintr));
        assert_eq!(fs.take_read_failure(), Some(TransientErrno::Eintr));
        assert_eq!(fs.take_read_failure(), None);
        assert_eq!(fs.take_open_failure(), None, "read arm never hits opens");
    }

    #[test]
    fn sysfs_windows_are_pure_in_time() {
        let plan = FaultPlan::new(1).at(1_000, FaultKind::SysfsFlaky { dur_ns: 500 });
        let fs = FaultState::new(&plan);
        assert!(!fs.sysfs_faulty_at(999));
        assert!(fs.sysfs_faulty_at(1_000));
        assert!(fs.sysfs_faulty_at(1_499));
        assert!(!fs.sysfs_faulty_at(1_500));
    }

    #[test]
    fn undos_fire_in_order() {
        let mut fs = FaultState::new(&FaultPlan::new(1));
        fs.push_undo(300, Undo::WatchdogRelease(ArchEvent::Cycles));
        fs.push_undo(200, Undo::Reonline(CpuId(1)));
        assert!(fs.pop_due_undo(100).is_none());
        assert_eq!(fs.pop_due_undo(400).unwrap().1, Undo::Reonline(CpuId(1)));
        assert_eq!(
            fs.pop_due_undo(400).unwrap().1,
            Undo::WatchdogRelease(ArchEvent::Cycles)
        );
    }
}
